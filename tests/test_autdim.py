"""Symmetry-dimension suite: bound arithmetic, tangency systems, classical
oracles.

The quadric Im w = |z|^2 carries the eight classical polynomial symmetries
(transverse translation, two parabolic translations, rotation, dilation,
two inversion-like fields, and the top inversion); they are written out by
hand below and anchor both residual functions and the real-dimension
solver.
"""

from math import factorial

import pytest

from crjet.autdim import (AutError, FormalVectorField, aut_bound,
                          holomorphic_degeneracy_test, infinitesimal_aut_dim,
                          tangency_restrictions, tangency_terms)
from crjet.hypersurface import (ambient_pairing, ambient_var, from_defining,
                                intrinsic_pairing)
from crjet.linalg import rank
from crjet.series import CS_I, CS_ONE, CScalar, TruncatedSeries

from tests.conftest import (heis, im_w, m2_rho, m3_rho, random_model,
                            random_nondegenerate_model)

WT = (1, 2)

Z, WVAR = (1, 0, 0, 0), (0, 1, 0, 0)
Z2, ZW, W2 = (2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)
CONST = (0, 0, 0, 0)


def degenerate_c3(order=5):
    """Im w = |z1|^2 in C^3: the graph never sees z2."""
    rho = im_w(3, order) - ambient_var(3, 0, order) * ambient_var(3, 3, order)
    return from_defining(rho, 3)


def holomorphic_residual(M, Y):
    """Y rho restricted to the graph; zero iff rho divides Y rho."""
    return M.restrict(Y.apply(M.rho))


def real_residual(M, Y):
    """(Y rho + conj(Y rho)) restricted to the graph; zero iff Re Y is
    tangent."""
    r = Y.apply(M.rho)
    return M.restrict(r + r.conjugate(ambient_pairing(M.N)))


def c2_field(M, az, aw):
    """Field a_z d/dz + a_w d/dw from exponent->value maps on (z, w)."""
    W = M.order
    return FormalVectorField([
        TruncatedSeries(4, W, {e: CScalar.coerce(c) for e, c in az.items()}),
        TruncatedSeries(4, W, {e: CScalar.coerce(c) for e, c in aw.items()}),
    ])


def su21_generators(M):
    """Hand-built basis of the quadric's polynomial symmetries in C^2."""
    i = CScalar(0, 1)
    two_i = CScalar(0, 2)
    gens = [c2_field(M, {}, {CONST: 1})]
    for a in (CScalar(1), i):
        gens.append(c2_field(M, {CONST: a}, {Z: two_i * a.conj()}))
    gens.append(c2_field(M, {Z: i}, {}))
    gens.append(c2_field(M, {Z: 1}, {WVAR: 2}))
    for c in (CScalar(1), i):
        gens.append(c2_field(M, {WVAR: c, Z2: two_i * c.conj()},
                             {ZW: two_i * c.conj()}))
    gens.append(c2_field(M, {ZW: 1}, {W2: 1}))
    return gens


class TestAutBound:
    def test_small_values(self):
        assert aut_bound(2) == 30
        assert aut_bound(3) == 630
        assert aut_bound(4) == 12012

    def test_rejects_points_and_lines(self):
        for N in (1, 0, -3):
            with pytest.raises(AutError):
                aut_bound(N)

    def test_matches_factorial_arithmetic(self):
        for N in range(2, 9):
            top = factorial(4 * N - 3)
            low = factorial(2 * N - 2) * factorial(2 * N - 1)
            assert aut_bound(N) == (2 * N - 1) * (top // low)


class TestFieldBasics:
    def test_rejects_conjugate_coefficients(self):
        M = heis(2, 6)
        with pytest.raises(AutError, match="holomorphic"):
            c2_field(M, {(0, 0, 1, 0): 1}, {})

    def test_apply_is_a_derivation(self):
        M = heis(2, 6)
        Y = c2_field(M, {Z: 1}, {WVAR: 2})
        f = ambient_var(2, 0, 6) + ambient_var(2, 1, 6) ** 2
        g = ambient_var(2, 0, 6) * ambient_var(2, 3, 6)
        left = Y.apply(f * g)
        right = Y.apply(f) * g + f * Y.apply(g)
        assert left == right.truncate(left.order)

    def test_zero_field(self):
        M = heis(2, 6)
        Y = c2_field(M, {}, {})
        assert Y.is_zero()
        assert Y.apply(M.rho).is_zero()


class TestResidualOracles:
    def test_classical_generators_are_tangent(self):
        M = heis(2, 9)
        for Y in su21_generators(M):
            assert real_residual(M, Y).is_zero()

    def test_dilation_combo_is_twice_rho(self):
        # Y rho + conj(Y rho) = 2 rho exactly, before any restriction
        M = heis(2, 9)
        Y = c2_field(M, {Z: 1}, {WVAR: 2})
        r = Y.apply(M.rho)
        total = r + r.conjugate(ambient_pairing(2))
        assert total == (M.rho + M.rho).truncate(total.order)

    def test_rotation_combo_vanishes_before_restriction(self):
        M = heis(2, 9)
        Y = c2_field(M, {Z: CScalar(0, 1)}, {})
        r = Y.apply(M.rho)
        assert (r + r.conjugate(ambient_pairing(2))).is_zero()

    def test_transverse_shear_is_not_tangent(self):
        M = heis(2, 9)
        Y = c2_field(M, {}, {Z: 1})
        assert not real_residual(M, Y).is_zero()

    def test_dilation_holomorphic_residual_value(self):
        # Y rho = -z zb - i w restricts to -i s: real-tangent, not C-tangent
        M = heis(2, 9)
        Y = c2_field(M, {Z: 1}, {WVAR: 2})
        expected = TruncatedSeries(3, 8, {(0, 0, 1): CScalar(0, -1)})
        assert holomorphic_residual(M, Y) == expected


class TestDegeneracyTest:
    def test_heisenberg_plane_has_no_tangent_field(self):
        sys = holomorphic_degeneracy_test(heis(2, 8), 2, 6)
        assert sys.solution_dim == 0
        assert sys.basis == ()
        assert "no obstruction found up to order 6" in sys.note

    def test_quartic_model_has_no_tangent_field(self):
        M = from_defining(m2_rho(9), 2)
        assert holomorphic_degeneracy_test(M, 2, 8).solution_dim == 0

    def test_absent_variable_gives_free_directions(self):
        M = degenerate_c3(5)
        sys = holomorphic_degeneracy_test(M, 1, 4)
        # exactly the four monomial multiples of d/dz2 of degree <= 1
        assert sys.solution_dim == 4
        assert any(Y.coeffs[1].terms() == [((0,) * 6, CS_ONE)] for Y in sys.basis)
        for Y in sys.basis:
            assert Y.coeffs[0].is_zero() and Y.coeffs[2].is_zero()
            assert holomorphic_residual(M, Y).is_zero()

    def test_unknown_and_equation_shapes(self):
        sys = holomorphic_degeneracy_test(heis(2, 8), 1, 4)
        assert all(0 <= c < len(sys.unknowns) and x
                   for row in sys.equations for c, x in row.items())
        assert all(len(key) == 2 for key in sys.unknowns)
        assert sys.solution_dim == len(sys.basis)

    def test_order_must_fit_truncation(self):
        with pytest.raises(AutError, match="usable truncation"):
            holomorphic_degeneracy_test(heis(2, 5), 1, 5)

    def test_order_too_small_for_degree(self):
        with pytest.raises(AutError, match="too small"):
            holomorphic_degeneracy_test(heis(2, 5), 4, 4)


class TestInfinitesimalDim:
    def test_heisenberg_weighted_dimension(self):
        sys = infinitesimal_aut_dim(heis(2, 9), 2, 8, weights=WT)
        assert sys.kind == "real"
        assert sys.solution_dim == 8
        assert len(sys.basis) == 8
        assert all(len(key) == 3 for key in sys.unknowns)

    def test_basis_fields_tangent_independently(self):
        M = heis(2, 9)
        for Y in infinitesimal_aut_dim(M, 2, 8, weights=WT).basis:
            assert real_residual(M, Y).truncate(8).is_zero()

    def test_classical_generators_span_the_solution(self):
        # eight tangent fields, linearly independent over R, in a space the
        # solver reports as eight-dimensional: the spans coincide
        M = heis(2, 9)
        gens = su21_generators(M)
        exps = sorted({e for Y in gens for c in Y.coeffs for e, _ in c.terms()})
        rows = []
        for Y in gens:
            row = []
            for j in range(2):
                for e in exps:
                    v = Y.coeffs[j].coeff(e)
                    row.extend((CScalar(v.re), CScalar(v.im)))
            rows.append(row)
        assert rank(rows) == 8
        assert infinitesimal_aut_dim(M, 2, 8, weights=WT).solution_dim == 8

    def test_weight_one_cut_drops_the_top_field(self):
        # the zw d/dz + w^2 d/dw field has weighted degree 2; all others fit
        assert infinitesimal_aut_dim(heis(2, 9), 1, 8,
                                     weights=WT).solution_dim == 7

    def test_dimension_grows_on_degenerate_model(self):
        M = degenerate_c3(5)
        dims = [infinitesimal_aut_dim(M, d, 4).solution_dim
                for d in (1, 2, 3)]
        assert dims[0] < dims[1] < dims[2]

    def test_bound_holds_on_nondegenerate_models(self):
        cases = ((heis(2, 9), 2), (heis(3, 6), 3),
                 (from_defining(m3_rho(6), 3), 3))
        for M, N in cases:
            dim = infinitesimal_aut_dim(M, 1, 4).solution_dim
            assert 0 < dim <= aut_bound(N)

    def test_monotone_in_order_and_degree(self):
        M = heis(2, 9)
        d2_loose = infinitesimal_aut_dim(M, 2, 6, weights=WT).solution_dim
        d2_tight = infinitesimal_aut_dim(M, 2, 8, weights=WT).solution_dim
        d1 = infinitesimal_aut_dim(M, 1, 6, weights=WT).solution_dim
        assert d2_tight <= d2_loose
        assert d1 <= d2_loose

    def test_vacuity_guard(self):
        with pytest.raises(AutError, match="too small"):
            infinitesimal_aut_dim(heis(2, 5), 3, 4, weights=WT)
        with pytest.raises(AutError, match="usable truncation"):
            infinitesimal_aut_dim(heis(2, 5), 1, 5)


def graph_dependent_c2(order=8):
    """Im w = |z|^2 (1 + Re w): the graph depends on s, so powers of the
    transverse substitution carry phi."""
    z, zb = ambient_var(2, 0, order), ambient_var(2, 2, order)
    w, wb = ambient_var(2, 1, order), ambient_var(2, 3, order)
    half = CScalar(1, 0) / 2
    return from_defining(im_w(2, order) - z * zb * (1 + half * (w + wb)), 2)


class TestTangencyTerms:
    CASES = ((lambda: heis(3, 7), 2, 6, None),
             (lambda: heis(2, 9), 2, 6, WT),
             (lambda: from_defining(m3_rho(7), 3), 3, 6, None),
             (lambda: from_defining(m2_rho(8), 2), 2, 7, None),
             (graph_dependent_c2, 3, 7, None))

    @staticmethod
    def built_terms(M, d, order, weights):
        return sum(len(R.truncate(order).terms())
                   for _, _, R in tangency_restrictions(M, d, order, weights))

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_bounds_the_built_restrictions(self, case):
        make, d, order, weights = self.CASES[case]
        M = make()
        bound = tangency_terms(M, d, order, weights)
        built = self.built_terms(M, d, order, weights)
        assert bound >= built > 0
        if case < 4:
            # model germs restrict without cancellation: the bound is exact
            assert bound == built

    def test_stops_past_the_limit(self):
        M = graph_dependent_c2()
        full = tangency_terms(M, 3, 7)
        stopped = tangency_terms(M, 3, 7, limit=10)
        assert 10 < stopped < full

    def test_negative_order_counts_nothing(self):
        assert tangency_terms(heis(2, 5), 2, -1) == 0


def oracle_rows(restrictions, order, real):
    """Equation rows read through terms(): CScalar entries for the complex
    problem, Fraction for the real one, rows in exponent-tuple order."""
    pairing = None
    residuals = []
    for _, _, Rc in restrictions:
        if real:
            pairing = pairing or intrinsic_pairing(Rc.nvars // 2)
            Rcc = Rc.conjugate(pairing)
            residuals += [Rc + Rcc, CS_I * (Rc - Rcc)]
        else:
            residuals.append(Rc)
    entries = {}
    for t, R in enumerate(residuals):
        for e, c in R.truncate(order).terms():
            entries.setdefault(e, {})[t] = c
    rows = []
    for e in sorted(entries):
        row = entries[e]
        if real:
            for part in ("re", "im"):
                got = {t: getattr(c, part) for t, c in row.items()
                       if getattr(c, part)}
                if got:
                    rows.append(got)
        else:
            rows.append(row)
    return rows


class TestIntegerRows:
    """Each tangency row is its terms()-read row scaled by a positive
    rational, with integer entries, in the same order."""

    def test_rows_are_scaled_oracle_rows(self):
        checked = 0
        for seed in range(3):
            for N in (2, 3):
                for build in (random_model, random_nondegenerate_model):
                    M = build(seed, N, 5)
                    shared = tangency_restrictions(M, 1, 4)
                    for real, solve in ((False, holomorphic_degeneracy_test),
                                        (True, infinitesimal_aut_dim)):
                        try:
                            system = solve(M, 1, 4, restrictions=shared)
                        except AutError:
                            continue
                        want = oracle_rows(shared, 4, real)
                        assert len(system.equations) == len(want)
                        for got, ref in zip(system.equations, want):
                            assert got.keys() == ref.keys()
                            t = next(iter(got))
                            scale = CScalar.coerce(got[t]) / ref[t]
                            assert scale.is_real() and scale.re > 0
                            for t, x in got.items():
                                if real:
                                    assert type(x) is int
                                    assert x == scale.re * ref[t]
                                else:
                                    assert x.re.denominator == 1
                                    assert x.im.denominator == 1
                                    assert x == scale * ref[t]
                            checked += 1
        assert checked > 100
