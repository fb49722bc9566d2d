"""Jet coordinates, complete derivative systems, and reconstruction tools.

A complete system of order k prescribes every derivative of order k + 1 of
an unknown map f: R^q -> R^m as a polynomial in the k-jet of f and the
position.  Whatever such a system admits as a solution is pinned down by
its k-jet at 0: integrate marches the jet entries axis by axis with a
classical fourth-order stepper, and taylor_propagate grows the jet
formally and exactly degree by degree, cross-checking the overdetermined
mixed partials.

Chart conventions used throughout: the unknowns of a system are the jet
entries (i, beta) in the order of unknown_layout, followed by the q
position variables.  integrate marches every jet entry at once, in that
chart: the derivative of an entry along an axis is the shifted entry
below the top order, and the system's rhs polynomial at the top order.

integrate is the only floating-point code; taylor_propagate reads every
jet value, a float included, as the Fraction it equals.  Before marching
integrate compiles, per axis, one straight-line RK4 stepper from
generated source: the state lives in locals, the other axes' coordinates
are bound once per call, the substep loop runs inside, and each
right-hand side is one literal sum of monomials.  The generated source
holds only generated names and the repr of finite floats; values beyond
the float range are refused first.  Grid values are printed in shortest
round-trip form, so the stepper keeps the exact operation order of
term-by-term evaluation (the rule in the integrate docstring): no shared
monomials, reassociation or Horner's rule, each of which would change
the bits.  It leaves out only what cannot change them: a unit
coefficient, and the position sums when no row reads the position.  The
term-by-term evaluator is the differential oracle in tests/test_jets.py.

The stepper returns the state and tests nothing; integrate tests each
run's end state for finiteness once: under the loop's + and * a
non-finite entry stays non-finite, so a run ends non-finite exactly when
one of its substeps did.  Such a run is replayed from its start state by
the same stepper, one substep per call, which names the first substep
that failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import JetError
from .series import CScalar, TruncatedSeries


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
    every exponent with |beta| <= k.  Entries are ints, Fractions or
    floats: integrate reads them as floats and taylor_propagate as the
    Fractions they equal.
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
    derivative of component j.  Evaluation is plain polynomial arithmetic
    and therefore deterministic.
    """

    __slots__ = ("q", "m", "k", "rhs", "layout", "nvars")

    def __init__(self, q: int, m: int, k: int, rhs):
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
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "nvars", nvars)

    def __setattr__(self, name, value):
        raise AttributeError("CompleteSystem is immutable")

    def __repr__(self):
        return (f"CompleteSystem(q={self.q}, m={self.m}, k={self.k}, "
                f"unknowns={len(self.layout)})")


# ----------------------------------------------------------------------
# numeric reconstruction


@dataclass(frozen=True)
class ReconstructionResult:
    """Grid tabulation of the reconstructed map with run diagnostics."""

    values: dict
    step: float
    axis_order: tuple


# Most fourth-order substeps one integrate call may take; the walk is
# counted before marching and refused above this.  A walk that ends
# non-finite replays its failing run once, to locate the failure.
MAX_RK4_SUBSTEPS = 10_000_000
# Most operands in one generated statement: CPython's compiler recurses
# along an operator chain and gives up near a thousand.
_CHAIN = 64


def _to_float(value, what) -> float:
    try:
        return float(value)
    except OverflowError:
        raise JetError(f"{what} is beyond the float range") from None


def _branches(axis):
    """Runs from 0 along one axis: forward through the nodes >= 0, then
    backward through the negative ones."""
    return ([g for g in axis if g >= 0],
            [g for g in reversed(axis) if g < 0])


def _substeps(dist, step) -> int:
    n = abs(dist) / step
    if n > MAX_RK4_SUBSTEPS:
        raise JetError(
            f"a run of length {abs(dist)} at step {step} exceeds "
            f"MAX_RK4_SUBSTEPS = {MAX_RK4_SUBSTEPS}")
    return max(1, round(n))


def _check_budget(grid, axis_order, step):
    total, parents = 0, 1
    for a in axis_order:
        per_parent = 0
        for branch in _branches(grid[a]):
            t = 0.0
            for g in branch:
                if g != t:
                    per_parent += _substeps(g - t, step)
                t = g
        total += parents * per_parent
        parents *= len(grid[a])
        if total > MAX_RK4_SUBSTEPS:
            raise JetError(
                f"marching this grid at step {step} needs more than "
                f"MAX_RK4_SUBSTEPS = {MAX_RK4_SUBSTEPS} substeps")


def _fold(target, head, operands, op) -> list:
    """Statements leaving head op x1 op x2 ... in target, evaluated left
    to right, at most _CHAIN operands per statement."""
    lines = [f"{target} = {head}"] if not operands else []
    for i in range(0, len(operands), _CHAIN):
        lines.append(f"{target} = {head}"
                     + "".join(op + x for x in operands[i:i + _CHAIN]))
        head = target
    return lines


def _rhs_lines(target, terms, names) -> list:
    """Statements leaving one rhs polynomial, read at the given variable
    names, in target: 0.0 + ((c*v_a)*v_b)... + ..., in terms() order.  A
    coefficient of exactly 1.0 in front of a factor is left out, since
    1.0*x is x bit for bit."""
    lines, operands = [], []
    for c, idx in terms:
        factors = [names[v] for v in idx]
        if not factors or c != 1.0:
            factors.insert(0, f"({c!r})")
        if len(factors) <= _CHAIN:
            operands.append("*".join(factors))
        else:
            temp = f"p{len(operands)}"
            lines += _fold(temp, factors[0], factors[1:], "*")
            operands.append(temp)
    return lines + _fold(target, "0.0", operands, " + ")


def _stepper_source(rows, q, a) -> str:
    """Source of the RK4 stepper for axis a (see _compile_stepper).

    Positions are computed only when a row reads the axis's own position.
    """
    m = len(rows)
    u = [f"u{j}" for j in range(m)]
    w = [f"w{j}" for j in range(m)]
    xs = [f"x{b}" for b in range(q)]
    body = [f"{', '.join(u)}, = state", f"{', '.join(xs)}, = coords",
            "hh = 0.5 * h", "h6 = h / 6.0",
            "for s_i in range(nsub):"]
    if any(m + a in idx for row in rows for _, idx in row):
        body += ["    t = t0 + s_i * h", "    th = t + hh", "    tf = t + h"]
    stages = ((u, "t", None), (w, "th", "hh"), (w, "th", "hh"),
              (w, "tf", "h"))
    for s, (args, pos, scale) in enumerate(stages, 1):
        if scale is not None:
            body += [f"    w{j} = u{j} + {scale} * k{s - 1}_{j}"
                     for j in range(m)]
        names = args + xs
        names[m + a] = pos
        for j, row in enumerate(rows):
            body += ["    " + line
                     for line in _rhs_lines(f"k{s}_{j}", row, names)]
    body += [f"    u{j} = u{j} + h6 * (k1_{j} + 2.0 * k2_{j} + 2.0 * k3_{j}"
             f" + k4_{j})" for j in range(m)]
    body.append(f"return [{', '.join(u)}]")
    return "def stepper(state, coords, t0, h, nsub):\n" + "".join(
        f"    {line}\n" for line in body)


def _compile_stepper(rows, q, a):
    """Straight-line RK4 for axis a of a system's jet entries.

    rows[j] lists the (float coefficient, variable indices) terms of the
    derivative of jet entry j along axis a.  The stepper(state, coords,
    t0, h, nsub) takes nsub substeps of size h from x_{a+1} = t0, the
    other positions frozen at coords, and returns the new state.  Every
    float operation happens in the order of the rule in integrate, so
    the results are bit-identical to evaluating it term by term, and
    nsub calls of one substep each, from t0 + s_i*h, take the very same
    steps as one call of nsub substeps.
    """
    namespace = {"__builtins__": {}, "range": range}
    exec(compile(_stepper_source(rows, q, a), f"<rk4 axis {a + 1}>",
                 "exec"), namespace)
    return namespace["stepper"]


def integrate(S: CompleteSystem, lambda0: JetVector, grid, step,
              axis_order=None) -> ReconstructionResult:
    """Tabulate the map with k-jet lambda0 on an axis-aligned grid.

    Marching is sequential: the first axis in axis_order is integrated
    from 0 through its grid values, every reached node seeds the next
    axis, and so on; deeper axes sit at 0 while an earlier one runs.  The
    run between neighboring grid values is split into uniform substeps,
    as many as the run's length over the requested step rounded to the
    nearest integer and at least one, so a substep may be almost 1.5
    times the step; each is advanced with the classical fourth-order
    one-step rule, so a fixed step gives identical output on every run.
    Negative grid values are reached by marching backward from 0.  A
    non-finite state aborts with the offending location, found by
    replaying the run that ended non-finite one substep at a time, so a
    failing walk takes one run more than it marched; a walk of more than
    MAX_RK4_SUBSTEPS substeps, a step that is not finite, and a
    coefficient, jet value or grid value beyond the float range, are
    refused before marching.

    The rule, in float arithmetic: each rhs is 0.0 + t_1 + t_2 + ... over
    its monomials in terms() order, each monomial ((c*v_a)*v_b)... in
    ascending variable order; with t = t0 + s_i*h the stages read
    (u, t), (u + 0.5*h*k1, t + 0.5*h), (u + 0.5*h*k2, t + 0.5*h) and
    (u + h*k3, t + h), and the update is
    u + h/6.0*(k1 + 2.0*k2 + 2.0*k3 + k4).  Before marching, each axis
    gets one compiled straight-line stepper (_compile_stepper) that
    performs exactly these operations in this order, so its output is
    bit-identical to evaluating the rule term by term; integrate tests
    the state for finiteness once per run.
    """
    if lambda0.q != S.q or lambda0.m != S.m or lambda0.k != S.k:
        raise JetError("initial jet does not match the system signature")
    step = _to_float(step, "step")
    if not math.isfinite(step):
        raise JetError(f"step must be finite, got {step}")
    if not step > 0:
        raise JetError("step must be positive")
    if len(grid) != S.q:
        raise JetError(f"grid needs {S.q} axes")
    grid = tuple(tuple(sorted(_to_float(g, f"grid value on axis {a + 1}")
                              for g in axis))
                 for a, axis in enumerate(grid))
    if axis_order is None:
        axis_order = tuple(range(S.q))
    else:
        axis_order = tuple(axis_order)
        if sorted(axis_order) != list(range(S.q)):
            raise JetError("axis_order must permute the axes")
    _check_budget(grid, axis_order, step)

    state0 = [_to_float(lambda0.values[(i, beta)], f"jet value d^{beta} "
                        f"f{i + 1}") for i, beta in S.layout]
    # rows[a][p] is the derivative of jet entry S.layout[p] along axis a:
    # the shifted entry below the top order, the rhs polynomial at it
    pos = {key: p for p, key in enumerate(S.layout)}
    rows = [[None] * len(S.layout) for _ in range(S.q)]
    for a in range(S.q):
        e_a = tuple(1 if v == a else 0 for v in range(S.q))
        for p, (i, beta) in enumerate(S.layout):
            up = _add(beta, e_a)
            if sum(up) <= S.k:
                rows[a][p] = [(1.0, (pos[(i, up)],))]
                continue
            row = rows[a][p] = []
            for e, c in S.rhs[(i, up)].terms():
                if not c.is_real():
                    raise JetError(
                        "numeric marching needs real rhs polynomials")
                row.append((_to_float(c.re, f"a coefficient of the rhs of "
                                      f"d^{up} f{i + 1}"),
                            tuple(v for v, n in enumerate(e)
                                  for _ in range(n))))

    steppers = [_compile_stepper(rows[a], S.q, a) for a in range(S.q)]
    values = {}

    def walk(depth, state, coords):
        if depth == S.q:
            values[tuple(coords)] = tuple(state[:S.m])
            return
        a = axis_order[depth]
        for branch in _branches(grid[a]):
            u, t = state, 0.0
            for target in branch:
                dist = target - t
                if dist != 0.0:
                    nsub = _substeps(dist, step)
                    h = dist / nsub
                    end = steppers[a](u, coords, t, h, nsub)
                    if not all(map(math.isfinite, end)):
                        # replay the run to name its first failing substep
                        for s_i in range(nsub):
                            x = t + s_i * h
                            u = steppers[a](u, coords, x, h, 1)
                            if not all(map(math.isfinite, u)):
                                break
                        raise JetError(
                            f"non-finite state while marching axis {a + 1} "
                            f"near x_{a + 1} = {x + h}")
                    u = end
                t = target
                coords2 = list(coords)
                coords2[a] = target
                walk(depth + 1, u, coords2)

    walk(0, state0, [0.0] * S.q)
    return ReconstructionResult(values=values, step=step,
                                axis_order=axis_order)


# ----------------------------------------------------------------------
# formal propagation


def taylor_propagate(S: CompleteSystem, lambda0: JetVector,
                     target_order: int) -> JetVector:
    """Grow the jet to target_order by formal differentiation of the rhs.

    Degree by degree, every derivative of the next order is read off the
    expansion of a top-order rhs entry around the current jet; each way of
    splitting an exponent gives a candidate value and all candidates must
    agree exactly.  The jet's entries enter as Fraction(v), so the
    returned jet holds Fractions.
    """
    if lambda0.q != S.q or lambda0.m != S.m or lambda0.k != S.k:
        raise JetError("initial jet does not match the system signature")
    vals = {key: Fraction(v) for key, v in lambda0.values.items()}
    if target_order <= S.k:
        keep = {key: v for key, v in vals.items()
                if sum(key[1]) <= target_order}
        return JetVector(S.q, S.m, target_order, keep)
    q, m, k = S.q, S.m, S.k
    # the jet's values at 0 never change: recentre each rhs there once, and
    # compose it with substitutions that vanish at 0
    centre = [vals[key] for key in S.layout] + [0] * q
    centred = {key: s.recenter(centre) for key, s in S.rhs.items()}
    for d in range(k + 1, target_order + 1):
        t = d - k - 1
        subs = []
        for (i, beta) in S.layout:
            coeffs = {}
            for delta in jet_exponents(q, t):
                v = vals[(i, _add(beta, delta))]
                if v and any(delta):
                    coeffs[delta] = CScalar(v / _beta_factorial(delta))
            subs.append(TruncatedSeries(q, t, coeffs))
        for a in range(q):
            # expansion of x_a about 0 to order t; order 0 leaves nothing
            subs.append(TruncatedSeries.variable(q, a, max(t, 1)).truncate(t))
        # rhs entries are polynomials; lift them past their stored order so
        # the expansion is not capped by how the system was written down
        expansions = {key: s.extended(max(s.order, t)).compose(subs)
                      for key, s in centred.items()}
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
                    if other != value:
                        raise JetError(
                            f"inconsistent mixed partials for component "
                            f"{j}, exponent {alpha}: {value} vs {other}; "
                            "the system admits no solution with this jet")
                vals[(j, alpha)] = value
    return JetVector(q, m, target_order, vals)
