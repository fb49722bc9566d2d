from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from crjet import jets
from crjet.jets import (
    MAX_RK4_SUBSTEPS,
    CompleteSystem,
    JetError,
    JetVector,
    _beta_factorial,
    _stepper_source,
    integrate,
    jet_exponents,
    multi_indices,
    taylor_propagate,
    unknown_layout,
)
from crjet.series import CS_I, CScalar, TruncatedSeries
from tests.conftest import HALF, max_deviation


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


def jet_from_series(components, k: int) -> JetVector:
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
    return JetVector(q, len(components), k, values)


def jet_to_series(jv: JetVector) -> tuple:
    """Taylor polynomial per component; inverts jet_from_series."""
    comps = []
    for i in range(jv.m):
        coeffs = {}
        for beta in jet_exponents(jv.q, jv.k):
            v = Fraction(jv.values[(i, beta)])
            if v:
                coeffs[beta] = CScalar(v / _beta_factorial(beta))
        comps.append(TruncatedSeries(jv.q, jv.k, coeffs))
    return tuple(comps)


def reduce_to_first_order(S: CompleteSystem) -> CompleteSystem:
    """Equivalent order-0 system whose unknowns are the jet entries.

    An axis derivative of a jet entry either shifts the exponent, staying
    among the unknowns, or reads the supplied top-order polynomial.  The
    chart is unchanged, so the rhs series are reused verbatim.  An order-0
    input is returned as is.  integrate marches the same rows without
    building this system; reference_integrate below marches this one.
    """
    if S.k == 0:
        return S
    pos = {key: p for p, key in enumerate(S.layout)}
    order = max(s.order for s in S.rhs.values())
    rhs = {}
    for a in range(S.q):
        e_a = tuple(1 if v == a else 0 for v in range(S.q))
        for p, (i, beta) in enumerate(S.layout):
            up = tuple(b + d for b, d in zip(beta, e_a))
            if sum(up) <= S.k:
                rhs[(p, e_a)] = TruncatedSeries.variable(
                    S.nvars, pos[(i, up)], order)
            else:
                rhs[(p, e_a)] = S.rhs[(i, up)]
    return CompleteSystem(S.q, len(S.layout), 0, rhs)


def reduce_jet(jet: JetVector) -> JetVector:
    """Initial vector of the reduced system: jet entries in layout order."""
    layout = unknown_layout(jet.q, jet.m, jet.k)
    zero = (0,) * jet.q
    vals = {(p, zero): jet.values[key] for p, key in enumerate(layout)}
    return JetVector(jet.q, len(layout), 0, vals)


def exp_system(order=6):
    # f' = f
    jet, _ = chart(1, 1, 0, order)
    return CompleteSystem(1, 1, 0, {(0, (1,)): jet[(0, (0,))]})


def line_system(order=6):
    # f'' = 0
    return CompleteSystem(1, 1, 1, {(0, (2,)): TruncatedSeries.zero(3, order)})


def plane_system(order=6):
    # d1 f = f, d2 f = 2f; solution c exp(x1 + 2 x2)
    jet, _ = chart(2, 1, 0, order)
    u = jet[(0, (0, 0))]
    return CompleteSystem(2, 1, 0, {(0, (1, 0)): u, (0, (0, 1)): 2 * u})


QUAD_COEFFS = {(0, 0): Fraction(3), (1, 0): Fraction(1),
               (0, 1): Fraction(-2), (2, 0): HALF, (1, 1): Fraction(1),
               (0, 2): Fraction(-1)}


def quad_poly(order=6):
    # 3 + x - 2y + x^2/2 + xy - y^2
    return TruncatedSeries(2, order,
                           {a: CScalar(c) for a, c in QUAD_COEFFS.items()})


def quad_system(order=6):
    # second derivatives of the quadratic are constants
    nv = 5
    rhs = {(0, (2, 0)): TruncatedSeries.constant(nv, 1, order),
           (0, (1, 1)): TruncatedSeries.constant(nv, 1, order),
           (0, (0, 2)): TruncatedSeries.constant(nv, -2, order)}
    return CompleteSystem(2, 1, 1, rhs)


def quad_jet():
    return jet_from_series([quad_poly()], 1)


class TestLayout:
    def test_multi_indices(self):
        assert multi_indices(2, 2) == [(0, 2), (1, 1), (2, 0)]
        assert multi_indices(1, 3) == [(3,)]

    def test_jet_exponents_graded_lex(self):
        assert jet_exponents(2, 2) == ((0, 0), (0, 1), (1, 0), (0, 2),
                                       (1, 1), (2, 0))

    def test_unknown_layout(self):
        assert unknown_layout(1, 1, 1) == ((0, (0,)), (0, (1,)))
        assert unknown_layout(2, 2, 0) == ((0, (0, 0)), (1, (0, 0)))


class TestJetVector:
    def test_completeness_required(self):
        with pytest.raises(JetError):
            JetVector(1, 1, 1, {(0, (0,)): 1})
        with pytest.raises(JetError):
            JetVector(1, 1, 0, {(0, (0,)): 1, (0, (1,)): 2})

    def test_series_roundtrip(self):
        jv = jet_from_series([quad_poly()], 2)
        assert jv[(0, (1, 1))] == 1
        assert jv[(0, (2, 0))] == 1
        assert jv[(0, (0, 1))] == -2
        back = jet_from_series(jet_to_series(jv), 2)
        assert back == jv

    def test_rejects_complex_series(self):
        with pytest.raises(JetError):
            jet_from_series([TruncatedSeries(1, 2, {(1,): CS_I})], 1)


class TestReduce:
    def test_second_derivative_system(self):
        R = reduce_to_first_order(line_system())
        assert R.k == 0 and R.m == 2
        # u0' = u1, u1' = 0
        assert R.rhs[(0, (1,))] == TruncatedSeries.variable(
            3, 1, R.rhs[(0, (1,))].order)
        assert R.rhs[(1, (1,))].is_zero()

    def test_order_zero_unchanged(self):
        S = exp_system()
        assert reduce_to_first_order(S) is S

    def test_reduce_jet_layout(self):
        jet = JetVector(1, 1, 1, {(0, (0,)): 2, (0, (1,)): -3})
        flat = reduce_jet(jet)
        assert flat.m == 2 and flat.k == 0
        assert flat[(0, (0,))] == 2 and flat[(1, (0,))] == -3

    def test_reduced_system_reproduces_derivatives(self):
        # integrating the reduced system tabulates f and both first
        # derivatives of the quadratic at once
        R = reduce_to_first_order(quad_system())
        flat = reduce_jet(quad_jet())
        grid = ((0.0, 0.25, 0.5), (-0.5, 0.0, 0.5))

        def truth(pt):
            x, y = pt
            f = 3 + x - 2 * y + x * x / 2 + x * y - y * y
            return (f, -2 + x - 2 * y, 1 + x + y)

        r = integrate(R, flat, grid, 1e-2)
        assert len(r.values) == 9
        assert max_deviation(r, truth) < 1e-12


class TestIntegrate:
    def test_exponential(self):
        S = exp_system()
        jet = JetVector(1, 1, 0, {(0, (0,)): 1})
        r = integrate(S, jet, ((0.0, 0.5, 1.0),), 1e-3)
        assert max_deviation(r, lambda pt: (math.exp(pt[0]),)) < 1e-9

    def test_runs_agree_exactly(self):
        S = exp_system()
        jet = JetVector(1, 1, 0, {(0, (0,)): 1})
        r1 = integrate(S, jet, ((0.0, 1.0),), 1e-2)
        r2 = integrate(S, jet, ((0.0, 1.0),), 1e-2)
        assert r1.values == r2.values

    def test_line_with_backward_branch(self):
        jet = JetVector(1, 1, 1, {(0, (0,)): 2, (0, (1,)): -3})
        r = integrate(line_system(), jet, ((-0.5, 0.0, 0.25, 1.0),), 1e-2)
        assert max_deviation(r, lambda pt: (2 - 3 * pt[0],)) < 1e-12
        assert abs(r.values[(-0.5,)][0] - 3.5) < 1e-12

    def test_two_axes(self):
        S = plane_system()
        jet = JetVector(2, 1, 0, {(0, (0, 0)): 0.5})
        grid = ((0.0, 0.5, 1.0), (0.0, 0.5, 1.0))
        r = integrate(S, jet, grid, 1e-3)
        assert len(r.values) == 9
        assert max_deviation(
            r, lambda pt: (0.5 * math.exp(pt[0] + 2 * pt[1]),)) < 1e-8

    def test_axis_order_flag(self):
        # a genuine solution exists, so both orderings reconstruct it
        S = plane_system()
        jet = JetVector(2, 1, 0, {(0, (0, 0)): 0.5})
        grid = ((0.0, 1.0), (0.0, 0.5))
        r01 = integrate(S, jet, grid, 1e-3)
        r10 = integrate(S, jet, grid, 1e-3, axis_order=(1, 0))
        for pt, fv in r01.values.items():
            assert abs(fv[0] - r10.values[pt][0]) < 1e-8

    def test_fourth_order_convergence(self):
        S = exp_system()
        jet = JetVector(1, 1, 0, {(0, (0,)): 1})
        errs = []
        for step in (0.1, 0.05):
            r = integrate(S, jet, ((1.0,),), step)
            errs.append(abs(r.values[(1.0,)][0] - math.e))
        order = math.log2(errs[0] / errs[1])
        assert 3.8 <= order <= 4.2

    def test_blowup_reported(self):
        # f' = f^2 from f(0) = 1 leaves every bound before x = 1.2
        jet, _ = chart(1, 1, 0, 4)
        u = jet[(0, (0,))]
        S = CompleteSystem(1, 1, 0, {(0, (1,)): u * u})
        j0 = JetVector(1, 1, 0, {(0, (0,)): 1.0})
        with pytest.raises(JetError, match="non-finite"):
            integrate(S, j0, ((1.2,),), 1e-3)

    def test_signature_mismatch(self):
        jet = JetVector(1, 1, 1, {(0, (0,)): 1, (0, (1,)): 1})
        with pytest.raises(JetError):
            integrate(exp_system(), jet, ((1.0,),), 1e-2)


# ----------------------------------------------------------------------
# reference integrator: the term-by-term evaluator that the compiled
# steppers replaced, marching the reduced first-order system, kept as the
# oracle for the bit-identity of the steppers and of integrate's rows


def _monomial_table(series):
    items = []
    for alpha, c in series.terms():
        if not c.is_real():
            raise JetError("numeric marching needs real rhs polynomials")
        idx = tuple(v for v, e in enumerate(alpha) for _ in range(e))
        items.append((idx, float(c.re)))
    return tuple(items)


def _eval_table(table, vals):
    total = 0.0
    for idx, c in table:
        v = c
        for t in idx:
            v *= vals[t]
        total += v
    return total


def reference_integrate(S, lambda0, grid, step, axis_order=None):
    """Grid values of integrate, evaluating every rhs term by term."""
    step = float(step)
    grid = tuple(tuple(sorted(float(g) for g in axis)) for axis in grid)
    if axis_order is None:
        axis_order = tuple(range(S.q))
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
    return values


def outcome(run, *args, **kwargs):
    """Grid values as reprs in tabulation order, or the JetError text."""
    try:
        values = run(*args, **kwargs)
    except JetError as exc:
        return ("error", str(exc))
    if not isinstance(values, dict):
        values = values.values
    return [(repr(pt), repr(fv)) for pt, fv in values.items()]


def random_case(rng):
    """A random complete system of degree <= 2 with jet, grid and step.

    Right-hand sides include zero and constant ones; some jets are
    floats with signed zeros, so the sign of a zero sum shows."""
    q, m, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 2)
    jet, xs = chart(q, m, k, 2)
    chart_vars = list(jet.values()) + xs
    nv = len(chart_vars)

    def rational():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 4))

    rhs = {}
    for alpha in multi_indices(q, k + 1):
        for j in range(m):
            kind = rng.random()
            poly = TruncatedSeries.zero(nv, 2)
            if kind >= 0.15:
                poly = TruncatedSeries.constant(nv, rational(), 2)
            if kind >= 0.3:
                for _ in range(rng.randint(1, 4)):
                    term = TruncatedSeries.constant(nv, rational(), 2)
                    for _ in range(rng.randint(1, 2)):
                        term = term * rng.choice(chart_vars)
                    poly = poly + term
            rhs[(j, alpha)] = poly
    floats = rng.random() < 0.5
    values = {}
    for key in unknown_layout(q, m, k):
        if floats:
            values[key] = rng.choice((0.0, -0.0, -0.0, 0.5, -1.25))
        else:
            values[key] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    nodes = (-1, Fraction(-1, 2), Fraction(-1, 3), 0, Fraction(1, 4),
             Fraction(1, 2), Fraction(3, 4), 1)
    grid = tuple(rng.sample(nodes, rng.randint(1, 3)) for _ in range(q))
    order = list(range(q))
    rng.shuffle(order)
    return (CompleteSystem(q, m, k, rhs), JetVector(q, m, k, values), grid,
            rng.choice((0.1, 0.25, 0.3, Fraction(1, 3))), tuple(order))


class TestCompiledStepper:
    """integrate against the term-by-term oracle, which marches the
    reduced first-order system: every grid value and every blow-up
    message is bit-identical."""

    def test_random_systems(self):
        rng = random.Random(2024)
        blowups = 0
        for _ in range(300):
            S, jet, grid, step, order = random_case(rng)
            want = outcome(reference_integrate, S, jet, grid, step,
                           axis_order=order)
            got = outcome(integrate, S, jet, grid, step, axis_order=order)
            assert got == want, (S, jet.values, grid, step, order)
            blowups += want[0] == "error"
        assert 0 < blowups < 150

    def test_long_sums_and_products(self):
        # longer than one generated statement may chain
        jet, xs = chart(1, 1, 0, 150)
        u = jet[(0, (0,))]
        poly = xs[0] ** 150 - u
        for i in range(200):
            poly = poly + Fraction(1, i + 2) * xs[0] ** (i % 5) * u
        S = CompleteSystem(1, 1, 0, {(0, (1,)): poly})
        j0 = JetVector(1, 1, 0, {(0, (0,)): Fraction(1, 3)})
        grid = ((-0.5, 0.25, 0.5),)
        want = outcome(reference_integrate, S, j0, grid, 0.05)
        assert want[0] != "error"
        assert outcome(integrate, S, j0, grid, 0.05) == want

    def test_blowup_location_matches(self):
        jet, _ = chart(1, 1, 0, 4)
        u = jet[(0, (0,))]
        S = CompleteSystem(1, 1, 0, {(0, (1,)): u * u})
        j0 = JetVector(1, 1, 0, {(0, (0,)): 1.0})
        want = outcome(reference_integrate, S, j0, ((-0.5, 1.2),), 1e-3)
        assert want[0] == "error"
        assert outcome(integrate, S, j0, ((-0.5, 1.2),), 1e-3) == want

    def test_substep_budget(self):
        S = exp_system()
        j0 = JetVector(1, 1, 0, {(0, (0,)): 1})
        # the forward and the backward run each fit, together they do not
        with pytest.raises(JetError, match="MAX_RK4_SUBSTEPS"):
            integrate(S, j0, ((-1.0, 1.0),), 1.0 / MAX_RK4_SUBSTEPS)
        # one run past the budget
        with pytest.raises(JetError, match="MAX_RK4_SUBSTEPS"):
            integrate(S, j0, ((2.0,),), 1.0 / MAX_RK4_SUBSTEPS)


def square_system(q, axis, sign=1):
    """d_axis f = sign * f^2 and the other axes' derivatives zero, from
    f(0) = 1: along the axis f = 1/(1 - sign*x) leaves every bound at
    x = sign."""
    jet, _ = chart(q, 1, 0, 4)
    u = jet[(0, (0,) * q)]
    rhs = {}
    for b in range(q):
        e = tuple(1 if v == b else 0 for v in range(q))
        rhs[(0, e)] = sign * u * u if b == axis else TruncatedSeries.zero(
            q + 1, 4)
    return CompleteSystem(q, 1, 0, rhs), JetVector(q, 1, 0,
                                                   {(0, (0,) * q): 1.0})


class TestStepperPaths:
    """integrate against the oracle on cases that force each path of the
    generated stepper: rows with and without the axis's own position,
    unit coefficients, signed zeros, and blow-ups that the once-per-run
    finiteness check hands to the substep-by-substep replay."""

    def test_autonomous_and_position_reading_rows(self):
        jet, xs = chart(2, 2, 0, 3)
        u, v = jet[(0, (0, 0))], jet[(1, (0, 0))]
        # axis 1 reads x2 only, axis 2 reads its own position x2
        S = CompleteSystem(2, 2, 0, {
            (0, (1, 0)): v + Fraction(1, 3) * xs[1] * u,
            (1, (1, 0)): -u,
            (0, (0, 1)): xs[1] * v - u,
            (1, (0, 1)): u + xs[1] * xs[1]})
        j0 = JetVector(2, 2, 0, {(0, (0, 0)): 0.5, (1, (0, 0)): -0.25})
        grid = ((-0.5, 0.25, 1.0), (-1.0, 0.0, 0.75))
        for order in ((0, 1), (1, 0)):
            want = outcome(reference_integrate, S, j0, grid, 0.1,
                           axis_order=order)
            assert want[0] != "error"
            assert outcome(integrate, S, j0, grid, 0.1,
                           axis_order=order) == want
        rows = [[(1.0, (1,)), (1 / 3, (0, 3))], [(-1.0, (0,))]]
        assert "tf" not in _stepper_source(rows, 2, 0)
        assert "tf = t + h" in _stepper_source(rows, 2, 1)

    def test_unit_coefficients_and_signed_zeros(self):
        # coefficients 1.0 and -1.0 on products and constants, read at
        # signed zeros: 0.0 + ... turns -0.0 into +0.0, u*v keeps the sign
        jet, xs = chart(1, 2, 1, 3)
        f, g = jet[(0, (0,))], jet[(1, (0,))]
        fx, gx = jet[(0, (1,))], jet[(1, (1,))]
        one = TruncatedSeries.constant(f.nvars, 1, 3)
        S = CompleteSystem(1, 2, 1, {
            (0, (2,)): f * g - fx + one,
            (1, (2,)): -(f * gx) - one + xs[0] * g})
        for value in (-0.0, 0.0, 1.0):
            j0 = JetVector(1, 2, 1, {(0, (0,)): value, (1, (0,)): -0.0,
                                     (0, (1,)): -0.0, (1, (1,)): value})
            grid = ((-0.5, 0.0, 0.5),)
            want = outcome(reference_integrate, S, j0, grid, 0.25)
            assert want[0] != "error"
            assert outcome(integrate, S, j0, grid, 0.25) == want
        rows = [[(1.0, ()), (1.0, (0, 1)), (-1.0, (1,))], [(1.0, (0,))]]
        source = _stepper_source(rows, 1, 0)
        assert "k1_0 = 0.0 + (1.0) + u0*u1 + (-1.0)*u1\n" in source
        assert "k1_1 = 0.0 + u0\n" in source
        assert "(1.0)*" not in source

    @pytest.mark.parametrize("q, axis, sign, grid, order", [
        # a later run of a multi-node forward branch
        (1, 0, 1, ((0.25, 0.5, 0.75, 1.5),), None),
        # the backward branch, after a finite forward one
        (1, 0, -1, ((-1.5, -0.5, 0.5, 1.0),), None),
        # the deeper axis, under the first node of the outer one
        (2, 1, 1, ((-0.5, 0.5), (0.5, 1.25)), None),
        (2, 0, 1, ((0.5, 1.25), (-0.5, 0.5)), (1, 0)),
        # the state at +-1.002 is finite but its square overflows, so the
        # run after it fails in its first substep, and the one run to
        # +-1.003 in its last, at the position t0 + s_i*h + h
        (1, 0, 1, ((1.002, 1.5),), None),
        (1, 0, 1, ((1.003,),), None),
        (1, 0, -1, ((-1.5, -1.002),), None),
        (1, 0, -1, ((-1.003,),), None),
    ], ids=["forward-later-run", "backward-branch", "deeper-axis",
            "deeper-first-axis", "forward-first-substep",
            "forward-last-substep", "backward-first-substep",
            "backward-last-substep"])
    def test_blowup_replays_to_the_same_message(self, q, axis, sign, grid,
                                                order):
        S, j0 = square_system(q, axis, sign)
        want = outcome(reference_integrate, S, j0, grid, 1e-3,
                       axis_order=order)
        assert want[0] == "error"
        assert outcome(integrate, S, j0, grid, 1e-3,
                       axis_order=order) == want

    def test_finiteness_checked_once_per_run(self, monkeypatch):
        calls, isfinite = [], math.isfinite

        def counting_isfinite(x):
            calls.append(x)
            return isfinite(x)

        monkeypatch.setattr(jets.math, "isfinite", counting_isfinite)
        jet = JetVector(1, 1, 1, {(0, (0,)): 2, (0, (1,)): -3})
        grid = ((-0.5, 0.25, 1.0),)
        # three runs of 25, 75 and 50 substeps over two state entries
        got = outcome(integrate, line_system(), jet, grid, 1e-2)
        monkeypatch.undo()
        assert got == outcome(reference_integrate, line_system(), jet, grid,
                              1e-2)
        # integrate's own test of the step, then at most m per run
        assert len(calls) <= 1 + 2 * 3


class TestTaylorPropagate:
    def test_line_jets_vanish(self):
        jet = JetVector(1, 1, 1, {(0, (0,)): 2, (0, (1,)): -3})
        out = taylor_propagate(line_system(), jet, 5)
        assert out[(0, (1,))] == -3
        assert all(out[(0, (d,))] == 0 for d in range(2, 6))

    def test_exponential_jet(self):
        jet = JetVector(1, 1, 0, {(0, (0,)): 1})
        out = taylor_propagate(exp_system(), jet, 6)
        assert all(out[(0, (d,))] == 1 for d in range(7))
        assert all(type(v) is Fraction for v in out.values.values())

    def test_plane_jet_with_cross_checks(self):
        jet = JetVector(2, 1, 0, {(0, (0, 0)): HALF})
        out = taylor_propagate(plane_system(), jet, 3)
        for beta in jet_exponents(2, 3):
            assert out[(0, beta)] == Fraction(2) ** beta[1] * HALF

    def test_quadratic_matches_true_jet(self):
        out = taylor_propagate(quad_system(), quad_jet(), 4)
        assert out == jet_from_series([quad_poly()], 4)

    def test_inconsistent_system_rejected(self):
        # d1 f = f and d2 f = x1 have incompatible mixed partials
        jet, xs = chart(2, 1, 0, 4)
        S = CompleteSystem(2, 1, 0, {(0, (1, 0)): jet[(0, (0, 0))],
                                     (0, (0, 1)): xs[0]})
        j0 = JetVector(2, 1, 0, {(0, (0, 0)): 1})
        with pytest.raises(JetError, match="inconsistent"):
            taylor_propagate(S, j0, 2)

    def test_float_regime(self):
        # a float entry enters as the Fraction it equals, and propagation
        # stays exact: 0.1 is not 1/10
        for value in (0.5, 0.1):
            jet = JetVector(2, 1, 0, {(0, (0, 0)): value})
            out = taylor_propagate(plane_system(), jet, 2)
            want = taylor_propagate(
                plane_system(), JetVector(2, 1, 0, {(0, (0, 0)): Fraction(
                    value)}), 2)
            assert out == want
            assert all(type(v) is Fraction for v in out.values.values())
        assert out[(0, (1, 1))] == 2 * Fraction(0.1) != Fraction(1, 5)

    def test_agrees_with_integration(self):
        jet = JetVector(1, 1, 0, {(0, (0,)): 1})
        out = taylor_propagate(exp_system(), jet, 10)
        poly = sum(Fraction(out[(0, (d,))]) / math.factorial(d)
                   * Fraction(1, 2) ** d for d in range(11))
        r = integrate(exp_system(), jet, ((0.5,),), 1e-3)
        assert abs(float(poly) - r.values[(0.5,)][0]) < 1e-9
