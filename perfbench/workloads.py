"""Seeded input generation for the crjet benchmark.

Every workload is a fixed list of CLI calls over documents in the README
line format.  The seed only draws coefficients (and Re or Im parts) over
fixed supports, map factors and system coefficients, under fixed rules;
an input is never re-drawn because a call on it fails, so a failure
shows up in the run's failed count.  Flags that must fit an
input (``aut --order``, grid intervals) are derived from documented rules
of the program rather than by trial.

A call carries its argv (document paths are absolute) and an optional
check on the parsed JSON report that returns an error string or None.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("invariants", "symmetry", "transport")


@dataclass(frozen=True)
class Call:
    argv: tuple
    check: object = None     # callable(report) -> str | None

    @property
    def verb(self) -> str:
        return self.argv[0]


# ---------------------------------------------------------------------------
# germs: Im w = Levi part + sum of real terms


@dataclass(frozen=True)
class Term:
    """c * Re(m) or c * Im(m) for a monomial m over z, conj(z), Re(w), w.

    exps lists exponents in the order z1..zn, conj(z1)..conj(zn), Re(w), w.
    """

    coef: Fraction
    part: str
    exps: tuple


def _monomial_text(n, exps):
    names = [f"z{j + 1}" for j in range(n)]
    names += [f"conj(z{j + 1})" for j in range(n)]
    names += ["Re(w)", "w"]
    factors = []
    for name, e in zip(names, exps):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    return "*".join(factors)


def _self_conjugate(n, exps):
    return exps[:n] == exps[n:2 * n] and exps[-1] == 0


class Germ:
    """Real graph germ Im w = sum levi_j |z_j|^2 + sum of terms, in C^N.

    levi holds one coefficient per CR direction, or is empty for a germ
    with no Levi part.
    """

    def __init__(self, N, terms, levi=()):
        self.N = N
        self.n = N - 1
        self.terms = tuple(terms)
        self.levi = tuple(levi)

    def rho(self) -> str:
        parts = ["Im(w)"]
        for j, c in enumerate(self.levi):
            parts.append(f"- {c}*z{j + 1}*conj(z{j + 1})")
        for t in self.terms:
            sign = "-" if t.coef > 0 else "+"
            parts.append(f"{sign} {abs(t.coef)}*{t.part}("
                         f"{_monomial_text(self.n, t.exps)})")
        return " ".join(parts)

    def document(self) -> str:
        return f"kind = hypersurface\nN = {self.N}\nrho = {self.rho()}\n"

    def min_gradient_degree(self):
        """Largest over the CR directions of the lowest degree in d rho/dz_j.

        Mirrors the AutError order rule of ``autdim``: a candidate of
        degree |alpha| in slot j needs order >= |alpha| + mindeg_j, and a
        direction absent from rho is exempt.  The transverse slot has a
        constant gradient (from Im w), so it never binds.
        """
        n = self.n
        worst = 0
        for j in range(n):
            degs = [1] if self.levi else []
            for t in self.terms:
                if t.exps[j] or t.exps[n + j]:
                    degs.append(sum(t.exps) - 1)
            if degs:
                worst = max(worst, min(degs))
        return worst

    def scaled(self, lam, mu) -> "Germ":
        """Image under z_j -> lam_j z_j, w -> mu w (all factors real).

        On the image Im w' = mu * phi(z'/lam, conj(z')/lam, Re(w')/mu), so
        a term of z-degree a and w-degree k (Re(w) or w) picks up
        mu * lam^-a * mu^-k.
        """
        n = self.n
        terms = []
        for t in self.terms:
            f = Fraction(mu)
            for j in range(n):
                f /= lam[j] ** (t.exps[j] + t.exps[n + j])
            f /= mu ** (t.exps[2 * n] + t.exps[2 * n + 1])
            terms.append(Term(t.coef * f, t.part, t.exps))
        levi = [c * mu / lam[j] ** 2 for j, c in enumerate(self.levi)]
        return Germ(self.N, terms, levi)


def _coef(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randrange(1, 5))


# Term supports, as exponents over (z, conj z, Re w, w).  The seed draws
# the coefficients and Re or Im; the supports are fixed so that the work
# per germ, and so the time of a pass, barely depends on the seed.  (Even
# exchanging z1 and z2 changes the cost of verify three- to fourfold.)
LEVI_SUPPORT = {
    2: [(2, 1, 0, 0), (1, 1, 1, 0), (3, 1, 0, 0), (2, 2, 0, 0)],
    3: [(2, 0, 0, 1, 0, 0), (1, 1, 1, 0, 0, 0), (1, 0, 1, 0, 1, 0)],
}
# a Levi coefficient that is not one, pluriharmonic terms Re/Im(z^2) and
# a holomorphic w factor that makes the graph non-polynomial
GENERIC_SUPPORT = {
    2: [(1, 1, 0, 0), (2, 0, 0, 0), (1, 0, 0, 1), (2, 1, 0, 0)],
    3: [(1, 0, 1, 0, 0, 0), (2, 0, 0, 1, 0, 0), (0, 2, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 1)],
}
# generic but polynomial in z, conj z and Re w, so the scan applies
GRAPH_SUPPORT = {
    2: [(1, 1, 0, 0), (2, 0, 0, 0), (2, 1, 0, 0), (1, 1, 1, 0)],
    3: [(1, 0, 1, 0, 0, 0), (2, 0, 0, 1, 0, 0), (0, 2, 0, 0, 0, 0),
        (1, 1, 0, 0, 1, 0)],
}


def _germ(rng, N, support, levi=()):
    n = N - 1
    terms = []
    for exps in support:
        part = "Re" if _self_conjugate(n, exps) else rng.choice(("Re", "Im"))
        terms.append(Term(_coef(rng), part, exps))
    return Germ(N, terms, levi)


def unit_levi_germ(rng, N) -> Germ:
    """sum |z_j|^2 plus terms in z, conj(z), Re(w): a polynomial graph."""
    return _germ(rng, N, LEVI_SUPPORT[N], levi=(Fraction(1),) * (N - 1))


def generic_germ(rng, N) -> Germ:
    """No unit Levi part, with pluriharmonic and non-graph terms that
    from_defining must solve away."""
    return _germ(rng, N, GENERIC_SUPPORT[N])


def graph_germ(rng, N) -> Germ:
    """No unit Levi part, but a polynomial graph, so the scan applies."""
    return _germ(rng, N, GRAPH_SUPPORT[N])


# ---------------------------------------------------------------------------
# named models (acceptance criteria 01-03, 09)

NAMED = {
    "quadric2": "kind = hypersurface\nN = 2\nrho = Im(w) - z1*conj(z1)\n",
    "quadric3": "kind = hypersurface\nN = 3\n"
                "rho = Im(w) - z1*conj(z1) - z2*conj(z2)\n",
    "quadric4": "kind = hypersurface\nN = 4\n"
                "rho = Im(w) - z1*conj(z1) - z2*conj(z2) - z3*conj(z3)\n",
    "cubic": "kind = hypersurface\nN = 3\n"
             "rho = Im(w) - z1*conj(z1) - 1/2*(z1^2*conj(z2) "
             "+ conj(z1)^2*z2)\n",
    "quartic": "kind = hypersurface\nN = 2\nrho = Im(w) - (z1*conj(z1))^2\n",
}


def _expect(**want):
    """Check that dotted report paths hold the given values."""
    def check(report):
        for path, value in want.items():
            node = report
            for key in path.split("__"):
                node = node[key] if not key.isdigit() else node[int(key)]
            if node != value:
                return f"{path.replace('__', '.')} = {node!r}, want {value!r}"
        return None
    return check


QUADRIC_K0 = _expect(filtration__k0=1, extrinsic_k0=1)
CUBIC_K0 = _expect(filtration__k0=2, extrinsic_k0=2,
                   filtration__Ek_dims__1=2, filtration__Ek_dims__2=3)
QUARTIC_MARKERS = _expect(filtration__k0="inf@kmax=6",
                          extrinsic_k0="inf@kmax=6", filtration__type=4)
WEIGHTED_QUADRIC = _expect(real__dim=8, bound=30)


# ---------------------------------------------------------------------------
# complete systems and jets


def _system_doc(q, m, k, rhs):
    lines = ["kind = system", f"axes = {q}", f"components = {m}",
             f"jet_order = {k}"]
    lines += [f"{key} = {value}" for key, value in rhs]
    return "\n".join(lines) + "\n"


def _jet_doc(q, m, k, values):
    lines = ["kind = jet", f"axes = {q}", f"components = {m}",
             f"jet_order = {k}"]
    lines += [f"{key} = {value}" for key, value in values]
    return "\n".join(lines) + "\n"


def _grid_points(report):
    return {tuple(float(c) for c in key.strip("()").split(",")): vals
            for key, vals in report["grid"]["points"].items()}


def _within(truth, tol=1e-8):
    """Grid values within tol of a closed-form truth(coords) -> value."""
    def check(report):
        worst = 0.0
        for coords, vals in _grid_points(report).items():
            worst = max(worst, abs(vals[0] - truth(coords)))
        if not worst <= tol:
            return f"grid deviation {worst:.3e} exceeds {tol:g}"
        return None
    return check


def _jet_equals(expected):
    """Exact jet entries: name -> Fraction."""
    def check(report):
        got = report["jet"]
        for name, value in expected.items():
            if Fraction(got[name]) != value:
                return f"jet {name} = {got[name]}, want {value}"
        return None
    return check


def _all(*checks):
    def check(report):
        for c in checks:
            err = c(report)
            if err:
                return err
        return None
    return check


def _ode_jet(coefs, poly, init, target):
    """Derivatives at 0 of f^(k+1) = sum_i coefs[i] f^(i) + poly(x).

    poly lists the Taylor coefficients of the forcing polynomial, so its
    n-th derivative at 0 is n! * poly[n].  Returns f^(0..target)(0).
    """
    k = len(init) - 1
    d = list(init)
    while len(d) <= target:
        n = len(d) - (k + 1)
        force = math.factorial(n) * poly[n] if n < len(poly) else 0
        d.append(force + sum(c * d[n + i] for i, c in enumerate(coefs)))
    return d


def _poly_text(poly):
    parts = [f"{c}" if e == 0 else f"{c}*x1" if e == 1 else f"{c}*x1^{e}"
             for e, c in enumerate(poly) if c]
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# workload assembly


class Writer:
    """Writes documents under a directory; returns each one's path."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def __call__(self, name, text) -> str:
        path = self.root / f"{name}.crj"
        path.write_text(text, encoding="utf-8")
        return str(path)


def _named(write):
    return {name: write(name, text) for name, text in NAMED.items()}


def invariants_calls(seed, write):
    """analyze (some with --scan), verify with all checks, scan."""
    rng = random.Random(f"invariants:{seed}")
    m = _named(write)
    calls = [
        Call(("analyze", m["quadric2"], "--kmax", "2"), QUADRIC_K0),
        Call(("analyze", m["quadric3"], "--kmax", "2"), QUADRIC_K0),
        Call(("analyze", m["cubic"], "--kmax", "3"), CUBIC_K0),
        Call(("analyze", m["quartic"], "--kmax", "6"), QUARTIC_MARKERS),
        Call(("analyze", m["quadric2"], "--scan=-1,0,1")),
        Call(("verify", m["quadric2"])),
        Call(("verify", m["quadric3"])),
        Call(("verify", m["cubic"])),
        Call(("verify", m["quartic"])),
        Call(("scan", m["cubic"], "--scan", "0,1/2")),
    ]
    # half the germs have a unit Levi part; scans run on C^2 polynomial
    # graphs only, since recentring a C^3 germ at 1/2 costs from 1 s to
    # 10 s depending on the coefficients
    germs = [("levi2_0", unit_levi_germ(rng, 2), ("analyze+scan", "verify")),
             ("levi2_1", unit_levi_germ(rng, 2), ("analyze", "verify",
                                                  "scan")),
             ("generic2", generic_germ(rng, 2), ("analyze", "verify")),
             ("graph2", graph_germ(rng, 2), ("analyze", "verify", "scan")),
             ("levi3", unit_levi_germ(rng, 3), ("analyze", "verify")),
             ("generic3", generic_germ(rng, 3), ("analyze",))]
    for name, germ, verbs in germs:
        path = write(name, germ.document())
        for verb in verbs:
            if verb == "analyze+scan":
                calls.append(Call(("analyze", path, "--scan", "0,1/2")))
            elif verb == "scan":
                calls.append(Call(("scan", path, "--scan", "0,1/2")))
            else:
                calls.append(Call((verb, path)))
    return calls


def symmetry_calls(seed, write):
    """aut on models with symmetry and on random germs without."""
    rng = random.Random(f"symmetry:{seed}")
    m = _named(write)
    calls = [
        Call(("aut", m["quadric2"], "--degree", "3")),
        Call(("aut", m["quadric2"], "--degree", "4")),
        Call(("aut", m["quadric2"], "--weights", "1,2"),
             WEIGHTED_QUADRIC),
        Call(("aut", m["quadric4"], "--degree", "2")),
        Call(("aut", m["cubic"], "--degree", "3")),
    ]
    # A few germs of each kind in C^2 and C^3; random germs have no
    # symmetry, so their systems are tall and of full rank.  The C^2 germ
    # at degree 2 is a mid-size tall system.  A C^3 germ's cost varies
    # with its coefficients by up to 1.6x, so there are two of each kind.
    germs = [("aut_levi2", unit_levi_germ(rng, 2), 1),
             ("aut_graph2", graph_germ(rng, 2), 1),
             ("aut_levi3_0", unit_levi_germ(rng, 3), 1),
             ("aut_levi3_1", unit_levi_germ(rng, 3), 1),
             ("aut_graph3_0", graph_germ(rng, 3), 1),
             ("aut_graph3_1", graph_germ(rng, 3), 1),
             ("aut_graph2_d2", graph_germ(rng, 2), 2)]
    for name, g, degree in germs:
        # the AutError rule needs tangency order >= degree + the binding
        # gradient degree; one more keeps every candidate's contribution
        # inside the cutoff, and the CLI uses --order minus one
        order = degree + g.min_gradient_degree() + 2
        calls.append(Call(("aut", write(name, g.document()), "--degree",
                           str(degree), "--order", str(order))))
    return calls


def _axis1_key(e):
    """Jet coordinate of the e-th derivative of f1 along axis 1."""
    return "f1" + ("_" + "1" * e if e else "")


def _factor(rng):
    return Fraction(rng.choice((1, 2, 3, 4, 5)), rng.choice((1, 2, 3)))


def transport_calls(seed, write):
    """reflect on dilation pairs; reconstruct on seeded and closed-form
    systems."""
    rng = random.Random(f"transport:{seed}")
    calls = []
    for i, (N, kmax) in enumerate(((2, 2), (2, 3), (2, 3), (3, 2), (3, 2))):
        src = unit_levi_germ(rng, N)
        lam = [_factor(rng) for _ in range(N - 1)]
        mu = _factor(rng)
        tgt = src.scaled(lam, mu)
        comps = [f"f{j + 1} = {lam[j]}*z{j + 1}" for j in range(N - 1)]
        comps.append(f"f{N} = {mu}*w")
        map_doc = f"kind = map\nN = {N}\n" + "\n".join(comps) + "\n"
        calls.append(Call(("reflect", write(f"src{i}", src.document()),
                           write(f"tgt{i}", tgt.document()),
                           write(f"map{i}", map_doc), "--kmax", str(kmax))))

    # closed forms of acceptance criterion 07, at step 1/10000
    growth = (write("growth_sys", _system_doc(1, 1, 0, [("d1_f1", "f1")])),
              write("growth_jet", _jet_doc(1, 1, 0, [("f1", 1)])))
    line = (write("line_sys", _system_doc(1, 1, 1, [("d11_f1", "0")])),
            write("line_jet", _jet_doc(1, 1, 1, [("f1", 1), ("f1_1", 2)])))
    plane = (write("plane_sys", _system_doc(2, 1, 0, [("d1_f1", "f1"),
                                                      ("d2_f1", "2*f1")])),
             write("plane_jet", _jet_doc(2, 1, 0, [("f1", 1)])))
    closed = [(growth, "0:1:5", (), lambda c: math.exp(c[0])),
              (line, "0:1:5", (), lambda c: 1 + 2 * c[0]),
              (plane, "0:1:3", (), lambda c: math.exp(c[0] + 2 * c[1])),
              (plane, "0:1:3", ("--axis-order", "2,1"),
               lambda c: math.exp(c[0] + 2 * c[1]))]
    for docs, grid, extra, truth in closed:
        calls.append(Call(("reconstruct", *docs, "--grid", grid, "--step",
                           "0.0001", *extra), _within(truth)))

    # one-axis linear systems with polynomial forcing; interval rule:
    # [-1/2, 1] with 4 nodes at step 1/1000 (linear, so no blow-up).  With
    # six calls below the two closed-form plane grids and five above, the
    # median call is a plane grid on every seed.
    for i in range(2):
        k = 1 + i % 2
        coefs = [Fraction(rng.randrange(-2, 3), rng.randrange(1, 4))
                 for _ in range(k + 1)]
        poly = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
                for _ in range(3)]
        init = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
                for _ in range(k + 1)]
        jet_keys = [_axis1_key(e) for e in range(k + 1)]
        rhs = " + ".join(f"{c}*{key}" for c, key in zip(coefs, jet_keys))
        rhs = f"{_poly_text(poly)} + {rhs}"
        sys_text = _system_doc(1, 1, k, [("d" + "1" * (k + 1) + "_f1",
                                          rhs)])
        jet_text = _jet_doc(1, 1, k, list(zip(jet_keys, init)))
        target = 8
        derivs = _ode_jet(coefs, poly, init, target)
        want = {_axis1_key(e): derivs[e] for e in range(target + 1)}
        calls.append(Call(("reconstruct", write(f"ode{i}_sys", sys_text),
                           write(f"ode{i}_jet", jet_text), "--target-order",
                           str(target), "--grid=-1/2:1:4", "--step", "0.001"),
                          _jet_equals(want)))

    # two-axis scalar systems d1 f = a + b f, d2 f = r (a + b f): the
    # solution is (f0 + a/b) exp(b (x1 + r x2)) - a/b
    for i in range(2):
        a = Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
        b = Fraction(rng.choice((-2, -1, 1, 2)), rng.randrange(2, 5))
        r = Fraction(rng.choice((-2, -1, 1, 2)), rng.randrange(1, 4))
        f0 = Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
        sys_text = _system_doc(2, 1, 0, [("d1_f1", f"{a} + {b}*f1"),
                                         ("d2_f1", f"{r}*({a} + {b}*f1)")])
        jet_text = _jet_doc(2, 1, 0, [("f1", f0)])
        target = 5
        want = {"f1": f0}
        for d in range(1, target + 1):
            for k2 in range(d + 1):
                digits = "1" * (d - k2) + "2" * k2
                want[f"f1_{digits}"] = (f0 + a / b) * b ** d * r ** k2

        def truth(c, a=a, b=b, r=r, f0=f0):
            return float(f0 + a / b) * math.exp(float(b) * (
                c[0] + float(r) * c[1])) - float(a / b)
        calls.append(Call(("reconstruct", write(f"pair{i}_sys", sys_text),
                           write(f"pair{i}_jet", jet_text), "--target-order",
                           str(target), "--grid=-1/2:1:4", "--step", "0.001"),
                          _all(_jet_equals(want), _within(truth))))
    return calls


GENERATORS = {
    "invariants": invariants_calls,
    "symmetry": symmetry_calls,
    "transport": transport_calls,
}


def build(workload, seed, root: Path):
    """Write the workload's documents under root; return its calls."""
    return GENERATORS[workload](seed, Writer(root))
