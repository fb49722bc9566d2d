"""Jet coordinates, complete derivative systems, and reconstruction tools.

A complete system of order k prescribes every derivative of order k + 1 of
an unknown map f: R^q -> R^m as a polynomial in the k-jet of f and the
position.  Whatever such a system admits as a solution is pinned down by
its k-jet at 0: reduce_to_first_order rewrites the system with the jet
entries as new unknowns, integrate marches the reduced system axis by
axis with a classical fourth-order stepper, and taylor_propagate grows
the jet formally degree by degree, cross-checking the overdetermined
mixed partials.  jet_injectivity_demo applies the same rigidity idea to
families of ambient self-maps of a hypersurface germ: a finite jet at 0
separates the members.

Chart conventions used throughout: the unknowns of a system are the jet
entries (i, beta) in the order of unknown_layout, followed by the q
position variables.  Reduction keeps that chart, so top-order right-hand
sides transfer verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .invariants import CheckReport
from .mappings import restrict
from .series import CScalar, TruncatedSeries


class JetError(ValueError):
    """Raised on malformed jet data or a failed system precondition."""


# ----------------------------------------------------------------------
# multi-index bookkeeping


def multi_indices(q: int, degree: int):
    """Exponent tuples of length q with the given total degree, ascending
    lexicographic order."""
    if q == 1:
        return [(degree,)]
    out = []
    for e in range(degree + 1):
        out.extend((e,) + rest for rest in multi_indices(q - 1, degree - e))
    return out


def jet_exponents(q: int, k: int) -> tuple:
    """Exponent tuples with total degree at most k, degree-graded then
    lexicographic; this is the documented enumeration order."""
    out = []
    for d in range(k + 1):
        out.extend(multi_indices(q, d))
    return tuple(out)


def unknown_layout(q: int, m: int, k: int) -> tuple:
    """Order of the jet unknowns: exponent outer, component index inner.

    The zero exponent comes first, so positions 0..m-1 of any state vector
    in this layout are the map components themselves.
    """
    return tuple((i, beta) for beta in jet_exponents(q, k)
                 for i in range(m))


def _beta_factorial(beta) -> int:
    out = 1
    for e in beta:
        out *= math.factorial(e)
    return out


def _add(beta, delta):
    return tuple(b + d for b, d in zip(beta, delta))


# ----------------------------------------------------------------------
# jet vectors


class JetVector:
    """Coordinates of a k-jet at 0 of a map R^q -> R^m.

    values[(i, beta)] is the beta-derivative of component i at 0, for
    every exponent with |beta| <= k; entries are Fractions or ints in the
    exact regime and floats otherwise.
    """

    __slots__ = ("q", "m", "k", "values")

    def __init__(self, q: int, m: int, k: int, values):
        values = dict(values)
        need = set(unknown_layout(q, m, k))
        got = set(values)
        if got != need:
            missing = sorted(need - got)[:3]
            extra = sorted(got - need)[:3]
            raise JetError(
                f"jet coordinate set mismatch (missing {missing}, "
                f"unexpected {extra})")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("JetVector is immutable")

    def __getitem__(self, key):
        return self.values[key]

    def is_exact(self) -> bool:
        return all(not isinstance(v, float) for v in self.values.values())

    @classmethod
    def from_series(cls, components, k: int) -> "JetVector":
        """Read the k-jet off a tuple of real series in q variables."""
        components = list(components)
        if not components:
            raise JetError("need at least one component")
        q = components[0].nvars
        values = {}
        for i, f in enumerate(components):
            if f.nvars != q:
                raise JetError("components must share one variable space")
            for beta in jet_exponents(q, k):
                c = f.coeff(beta)
                if not c.is_real():
                    raise JetError("jet extraction needs real series")
                values[(i, beta)] = c.re * _beta_factorial(beta)
        return cls(q, len(components), k, values)

    def to_series(self, order=None) -> tuple:
        """Taylor polynomial per component; inverts from_series exactly."""
        order = self.k if order is None else order
        comps = []
        for i in range(self.m):
            coeffs = {}
            for beta in jet_exponents(self.q, min(self.k, order)):
                v = Fraction(self.values[(i, beta)])
                if v:
                    coeffs[beta] = CScalar(v / _beta_factorial(beta))
            comps.append(TruncatedSeries(self.q, order, coeffs))
        return tuple(comps)

    def __eq__(self, other):
        if not isinstance(other, JetVector):
            return NotImplemented
        return (self.q, self.m, self.k) == (other.q, other.m, other.k) \
            and self.values == other.values

    def __repr__(self):
        return f"JetVector(q={self.q}, m={self.m}, k={self.k})"


# ----------------------------------------------------------------------
# complete systems


class CompleteSystem:
    """Order-k system: one polynomial per derivative of order k + 1.

    rhs maps (j, alpha) with |alpha| = k + 1 to a series on the system
    chart (jet unknowns in layout order, then x_1..x_q) giving that
    derivative of component j.  box, when set, bounds each position axis
    by an open interval; evaluation is plain polynomial arithmetic and
    therefore deterministic.
    """

    __slots__ = ("q", "m", "k", "rhs", "box", "layout", "nvars")

    def __init__(self, q: int, m: int, k: int, rhs, box=None):
        layout = unknown_layout(q, m, k)
        nvars = len(layout) + q
        rhs = dict(rhs)
        need = {(j, tuple(alpha)) for alpha in multi_indices(q, k + 1)
                for j in range(m)}
        if set(rhs) != need:
            raise JetError(
                "rhs must cover each component and each top derivative "
                "exactly once")
        for s in rhs.values():
            if not isinstance(s, TruncatedSeries) or s.nvars != nvars:
                raise JetError(
                    f"rhs entries must be series in the {nvars} chart "
                    "variables")
        if box is not None:
            box = tuple(tuple(b) for b in box)
            if len(box) != q or any(len(b) != 2 for b in box):
                raise JetError("box needs one (lo, hi) pair per axis")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "nvars", nvars)

    def __setattr__(self, name, value):
        raise AttributeError("CompleteSystem is immutable")

    def __repr__(self):
        return (f"CompleteSystem(q={self.q}, m={self.m}, k={self.k}, "
                f"unknowns={len(self.layout)})")


def chart(q: int, m: int, k: int, order: int):
    """Variable series of the system chart, for building rhs polynomials.

    Returns (jet, xs): jet[(i, beta)] is the unknown for that jet entry
    and xs[a] the position variable x_{a+1}.
    """
    layout = unknown_layout(q, m, k)
    nv = len(layout) + q
    jet = {key: TruncatedSeries.variable(nv, p, order)
           for p, key in enumerate(layout)}
    xs = [TruncatedSeries.variable(nv, len(layout) + a, order)
          for a in range(q)]
    return jet, xs


def reduce_to_first_order(S: CompleteSystem) -> CompleteSystem:
    """Equivalent order-0 system whose unknowns are the jet entries.

    An axis derivative of a jet entry either shifts the exponent, staying
    among the unknowns, or reads the supplied top-order polynomial; mixed
    partials are identified through the exponent arithmetic.  The chart is
    unchanged, so original rhs series are reused verbatim.  An order-0
    input is returned as is.
    """
    if S.k == 0:
        return S
    pos = {key: p for p, key in enumerate(S.layout)}
    order = max(s.order for s in S.rhs.values())
    rhs = {}
    for a in range(S.q):
        e_a = tuple(1 if v == a else 0 for v in range(S.q))
        for p, (i, beta) in enumerate(S.layout):
            up = _add(beta, e_a)
            if sum(up) <= S.k:
                rhs[(p, e_a)] = TruncatedSeries.variable(
                    S.nvars, pos[(i, up)], order)
            else:
                rhs[(p, e_a)] = S.rhs[(i, up)]
    return CompleteSystem(S.q, len(S.layout), 0, rhs, box=S.box)


def reduce_jet(jet: JetVector) -> JetVector:
    """Initial vector of the reduced system: jet entries in layout order."""
    layout = unknown_layout(jet.q, jet.m, jet.k)
    zero = (0,) * jet.q
    vals = {(p, zero): jet.values[key] for p, key in enumerate(layout)}
    return JetVector(jet.q, len(layout), 0, vals)


# ----------------------------------------------------------------------
# numeric reconstruction


@dataclass(frozen=True)
class ReconstructionResult:
    """Grid tabulation of the reconstructed map with run diagnostics."""

    values: dict
    step: float
    axis_order: tuple
    max_deviation: float | None = None


def _monomial_table(series: TruncatedSeries) -> tuple:
    items = []
    for alpha, c in series.terms():
        if not c.is_real():
            raise JetError("numeric marching needs real rhs polynomials")
        idx = tuple(v for v, e in enumerate(alpha) for _ in range(e))
        items.append((idx, float(c.re)))
    return tuple(items)


def _eval_table(table, vals) -> float:
    total = 0.0
    for idx, c in table:
        v = c
        for t in idx:
            v *= vals[t]
        total += v
    return total


def integrate(S: CompleteSystem, lambda0: JetVector, grid, step,
              truth=None, axis_order=None) -> ReconstructionResult:
    """Tabulate the map with k-jet lambda0 on an axis-aligned grid.

    Marching is sequential: the first axis in axis_order is integrated
    from 0 through its grid values, every reached node seeds the next
    axis, and so on; deeper axes sit at 0 while an earlier one runs.  The
    run between neighboring grid values is split into uniform substeps of
    at most the requested size and advanced with the classical
    fourth-order one-step rule, so a fixed step gives identical output on
    every run.  Negative grid values are reached by marching backward
    from 0.  truth, when supplied, is evaluated on each grid point and
    the maximum deviation of any component is reported.  A non-finite
    state or a grid outside the declared box aborts with the offending
    location.
    """
    if lambda0.q != S.q or lambda0.m != S.m or lambda0.k != S.k:
        raise JetError("initial jet does not match the system signature")
    step = float(step)
    if not step > 0:
        raise JetError("step must be positive")
    grid = tuple(tuple(sorted(float(g) for g in axis)) for axis in grid)
    if len(grid) != S.q:
        raise JetError(f"grid needs {S.q} axes")
    if S.box is not None:
        for a, axis in enumerate(grid):
            lo, hi = S.box[a]
            for g in axis:
                if not (lo < g < hi):
                    raise JetError(
                        f"grid value {g} on axis {a + 1} leaves the "
                        f"declared box ({lo}, {hi})")
    if axis_order is None:
        axis_order = tuple(range(S.q))
    else:
        axis_order = tuple(axis_order)
        if sorted(axis_order) != list(range(S.q)):
            raise JetError("axis_order must permute the axes")

    R = reduce_to_first_order(S)
    lam = reduce_jet(lambda0) if S.k > 0 else lambda0
    zero = (0,) * S.q
    state0 = [float(lam.values[(p, zero)]) for p in range(R.m)]
    tables = [[None] * S.q for _ in range(R.m)]
    for (j, alpha), s in R.rhs.items():
        tables[j][alpha.index(1)] = _monomial_table(s)

    def advance(state, coords, a, t0, t1):
        dist = t1 - t0
        if dist == 0.0:
            return state
        nsub = max(1, round(abs(dist) / step))
        h = dist / nsub
        rows = [tables[j][a] for j in range(R.m)]

        def slope(u, t):
            vals = u + coords
            vals[R.m + a] = t
            return [_eval_table(row, vals) for row in rows]

        u = list(state)
        for s_i in range(nsub):
            t = t0 + s_i * h
            k1 = slope(u, t)
            k2 = slope([u[j] + 0.5 * h * k1[j] for j in range(R.m)],
                       t + 0.5 * h)
            k3 = slope([u[j] + 0.5 * h * k2[j] for j in range(R.m)],
                       t + 0.5 * h)
            k4 = slope([u[j] + h * k3[j] for j in range(R.m)], t + h)
            u = [u[j] + h / 6.0 * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j]
                                   + k4[j]) for j in range(R.m)]
            for j in range(R.m):
                if not math.isfinite(u[j]):
                    raise JetError(
                        f"non-finite state while marching axis {a + 1} "
                        f"near x_{a + 1} = {t + h}")
        return u

    values = {}

    def walk(depth, state, coords):
        if depth == S.q:
            values[tuple(coords)] = tuple(state[:S.m])
            return
        a = axis_order[depth]
        forward = [g for g in grid[a] if g >= 0]
        backward = [g for g in reversed(grid[a]) if g < 0]
        for branch in (forward, backward):
            u, t = state, 0.0
            for target in branch:
                u = advance(u, list(coords), a, t, target)
                t = target
                coords2 = list(coords)
                coords2[a] = target
                walk(depth + 1, u, coords2)

    walk(0, state0, [0.0] * S.q)

    max_dev = None
    if truth is not None:
        max_dev = 0.0
        for pt, fv in values.items():
            tv = truth(pt)
            for j in range(S.m):
                max_dev = max(max_dev, abs(fv[j] - float(tv[j])))
    return ReconstructionResult(values=values, step=step,
                                axis_order=axis_order,
                                max_deviation=max_dev)


# ----------------------------------------------------------------------
# formal propagation


def _compose_affine(series: TruncatedSeries, subs) -> TruncatedSeries:
    # composition demands vanishing constant terms; shift them into the
    # polynomial first
    const = [s.constant_term() for s in subs]
    centered = [s - TruncatedSeries.constant(s.nvars, c, s.order)
                for s, c in zip(subs, const)]
    return series.recenter(const).compose(centered)


def taylor_propagate(S: CompleteSystem, lambda0: JetVector,
                     target_order: int) -> JetVector:
    """Grow the jet to target_order by formal differentiation of the rhs.

    Degree by degree, every derivative of the next order is read off the
    expansion of a top-order rhs entry around the current jet; each way of
    splitting an exponent gives a candidate value and all candidates must
    agree.  Agreement is exact while every coordinate is rational; once a
    float enters, candidates may differ by a relative 1e-10 and the
    returned jet carries floats.
    """
    if lambda0.q != S.q or lambda0.m != S.m or lambda0.k != S.k:
        raise JetError("initial jet does not match the system signature")
    if target_order <= S.k:
        keep = {key: v for key, v in lambda0.values.items()
                if sum(key[1]) <= target_order}
        return JetVector(S.q, S.m, target_order, keep)
    exact = lambda0.is_exact()
    vals = {key: Fraction(v) for key, v in lambda0.values.items()}
    q, m, k = S.q, S.m, S.k
    for d in range(k + 1, target_order + 1):
        t = d - k - 1
        subs = []
        for (i, beta) in S.layout:
            coeffs = {}
            for delta in jet_exponents(q, t):
                v = vals[(i, _add(beta, delta))]
                if v:
                    coeffs[delta] = CScalar(v / _beta_factorial(delta))
            subs.append(TruncatedSeries(q, t, coeffs))
        for a in range(q):
            # expansion of x_a about 0 to order t; order 0 leaves nothing
            subs.append(TruncatedSeries.variable(q, a, max(t, 1)).truncate(t))
        # rhs entries are polynomials; lift them past their stored order so
        # the expansion is not capped by how the system was written down
        expansions = {key: _compose_affine(s.extended(max(s.order, t)), subs)
                      for key, s in S.rhs.items()}
        for alpha in multi_indices(q, d):
            for j in range(m):
                candidates = []
                for alpha0 in multi_indices(q, k + 1):
                    if any(alpha0[v] > alpha[v] for v in range(q)):
                        continue
                    delta = tuple(alpha[v] - alpha0[v] for v in range(q))
                    c = expansions[(j, alpha0)].coeff(delta)
                    if not c.is_real():
                        raise JetError(
                            "rhs expansion produced a non-real jet value")
                    candidates.append(c.re * _beta_factorial(delta))
                value = candidates[0]
                for other in candidates[1:]:
                    if exact:
                        bad = other != value
                    else:
                        scale = max(1.0, abs(float(value)),
                                    abs(float(other)))
                        bad = abs(float(other) - float(value)) \
                            > 1e-10 * scale
                    if bad:
                        raise JetError(
                            f"inconsistent mixed partials for component "
                            f"{j}, exponent {alpha}: {value} vs {other}; "
                            "the system admits no solution with this jet")
                vals[(j, alpha)] = value
    if not exact:
        vals = {key: float(v) for key, v in vals.items()}
    return JetVector(q, m, target_order, vals)


# ----------------------------------------------------------------------
# jet separation for map families


def jet_injectivity_demo(family, jet_order: int) -> CheckReport:
    """Pairwise jet separation within a family of ambient self-maps.

    Every member must send its source germ into its target (checked by
    restricting to the chart, which raises otherwise).  Each pair is
    compared on the jet_order-jet of the ambient components at 0 and on
    the full stored truncation: a pair with equal jets but different maps
    is a violation, so an ok report certifies that the finite jets
    separate the family.
    """
    family = list(family)
    for F in family:
        restrict(F)
    jets = []
    for F in family:
        jets.append(tuple(
            tuple(t for t in comp.terms() if sum(t[0]) <= jet_order)
            for comp in F.components))
    checked, equal_jets, violations = 0, 0, []
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            checked += 1
            if jets[i] != jets[j]:
                continue
            equal_jets += 1
            o = min(family[i].order, family[j].order)
            same_map = all(
                x.truncate(o) == y.truncate(o)
                for x, y in zip(family[i].components, family[j].components))
            if not same_map:
                violations.append((i, j))
    return CheckReport(name="jet-injectivity", ok=not violations,
                       checked=checked, violations=tuple(violations),
                       note=f"jet order {jet_order}; "
                            f"{equal_jets} equal-jet pairs")
