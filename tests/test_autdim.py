"""Symmetry-dimension suite: bound arithmetic, tangency systems, classical
oracles.

The quadric Im w = |z|^2 carries the eight classical polynomial symmetries
(transverse translation, two parabolic translations, rotation, dilation,
two inversion-like fields, and the top inversion); they are written out by
hand below and anchor both residual functions and the real-dimension
solver.
"""

import re
from fractions import Fraction
from math import factorial

import pytest

from crjet import autdim
from crjet.autdim import (AutError, FormalVectorField, aut_bound,
                          infinitesimal_aut_dim, tangency_restrictions)
from crjet.cli.main import main
from crjet.hypersurface import ambient_pairing, ambient_var, from_defining
from crjet.linalg import rank
from crjet.series import (CS_ONE, CScalar, OrderExhausted, SeriesError,
                          TruncatedSeries)

from tests.conftest import (basis_fields, compose_restrictions, heis,
                            holomorphic_oracle, im_w, labeled_tangency_rows,
                            m2_rho, m3_rho, random_model,
                            random_nondegenerate_model, ref_nullspace,
                            residual_system)

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

    def test_apply_matches_derive_and_sum(self):
        # apply is one derivation over the padded coefficients; the oracle
        # derives f along each nonzero coefficient and sums the products
        def derive_and_sum(Y, f):
            out = None
            for j, c in enumerate(Y.coeffs):
                if not c.is_zero():
                    term = c * f.derive(j)
                    out = term if out is None else out + term
            return out

        M = heis(2, 9)
        f = M.rho * ambient_var(2, 3, 9) + ambient_var(2, 1, 9) ** 3
        fields = su21_generators(M) + [c2_field(M, {}, {Z: 1})] + \
            basis_fields(infinitesimal_aut_dim(M, 2, 8, weights=WT), 8)
        for Y in fields:
            for g in (M.rho, f):
                assert Y.apply(g) == derive_and_sum(Y, g)
        M3 = degenerate_c3(5)
        for Y in holomorphic_oracle(M3, 1, 4)[3]:
            assert Y.apply(M3.rho) == derive_and_sum(Y, M3.rho)

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
    """The holomorphic dimension read off the real solution space, and the
    complex oracle's witnesses and shapes."""

    def test_heisenberg_plane_has_no_tangent_field(self):
        sys = infinitesimal_aut_dim(heis(2, 8), 2, 6)
        assert sys.holomorphic_dim == 0
        assert "no obstruction found up to order 6" in sys.holomorphic_note
        assert holomorphic_oracle(heis(2, 8), 2, 6)[2] == []

    def test_quartic_model_has_no_tangent_field(self):
        M = from_defining(m2_rho(9), 2)
        assert infinitesimal_aut_dim(M, 2, 8).holomorphic_dim == 0

    def test_absent_variable_gives_free_directions(self):
        M = degenerate_c3(5)
        sys = infinitesimal_aut_dim(M, 1, 4)
        assert sys.holomorphic_dim == 4
        assert sys.holomorphic_note == ("4 independent tangent fields up to "
                                        "order 4; degeneracy evidence at "
                                        "this truncation")
        # exactly the four monomial multiples of d/dz2 of degree <= 1
        fields = holomorphic_oracle(M, 1, 4)[3]
        assert len(fields) == 4
        assert any(Y.coeffs[1].terms() == [((0,) * 6, CS_ONE)]
                   for Y in fields)
        for Y in fields:
            assert Y.coeffs[0].is_zero() and Y.coeffs[2].is_zero()
            assert holomorphic_residual(M, Y).is_zero()

    def test_unknown_and_equation_shapes(self):
        unknowns, rows, vectors, fields = holomorphic_oracle(heis(2, 8), 1, 4)
        assert all(0 <= c < len(unknowns) and x
                   for row in rows for c, x in row.items())
        assert all(len(key) == 2 for key in unknowns)
        assert len(vectors) == len(fields)
        sys = infinitesimal_aut_dim(heis(2, 8), 1, 4)
        assert all(0 <= c < len(sys.unknowns) and type(x) is int and x
                   for row in sys.equations for c, x in row.items())
        # the two parts of a candidate are adjacent unknowns
        assert [key[:2] for key in sys.unknowns[::2]] == unknowns
        assert [key[2] for key in sys.unknowns] == [0, 1] * len(unknowns)

    def test_order_must_fit_truncation(self):
        for solve in (holomorphic_oracle, infinitesimal_aut_dim):
            with pytest.raises(AutError, match="usable truncation"):
                solve(heis(2, 5), 1, 5)

    def test_order_too_small_for_degree(self):
        for solve in (holomorphic_oracle, infinitesimal_aut_dim):
            with pytest.raises(AutError, match="too small"):
                solve(heis(2, 5), 4, 4)


class TestInfinitesimalDim:
    def test_heisenberg_weighted_dimension(self):
        sys = infinitesimal_aut_dim(heis(2, 9), 2, 8, weights=WT)
        assert sys.solution_dim == 8
        assert len(sys.vectors) == len(basis_fields(sys, 8)) == 8
        assert all(len(key) == 3 for key in sys.unknowns)

    def test_basis_fields_tangent_independently(self):
        M = heis(2, 9)
        for Y in basis_fields(infinitesimal_aut_dim(M, 2, 8, weights=WT),
                              8):
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
    """The MAX_TANGENCY_TERMS count: exact, and taken before any
    candidate's restriction is built."""

    CASES = ((lambda: heis(3, 7), 2, 6, None),
             (lambda: heis(2, 9), 2, 6, WT),
             (lambda: from_defining(m3_rho(7), 3), 3, 6, None),
             (lambda: from_defining(m2_rho(8), 2), 2, 7, None),
             (graph_dependent_c2, 3, 7, None),
             (lambda: graph_dependent_c2(8), 3, 4, None))

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_bounds_the_built_restrictions(self, case, monkeypatch):
        # refused one term below the built restrictions' terms up to the
        # order, accepted at exactly that many: the count is exact, also
        # on the graph-dependent germs, whose products cancel
        make, d, order, weights = self.CASES[case]
        M = make()
        built = sum(len(R.truncate(order).terms())
                    for _, _, R in tangency_restrictions(M, d, order, weights))
        assert built > 0
        monkeypatch.setattr(autdim, "MAX_TANGENCY_TERMS", built - 1)
        with pytest.raises(AutError, match="MAX_TANGENCY_TERMS"):
            tangency_restrictions(M, d, order, weights)
        monkeypatch.setattr(autdim, "MAX_TANGENCY_TERMS", built)
        tangency_restrictions(M, d, order, weights)

    def test_stops_past_the_limit(self, monkeypatch):
        # each candidate's restriction is its product shifted by z^beta,
        # the only series the route builds through the constructor: a
        # refusal builds none of them
        M = graph_dependent_c2()
        shifts = []
        init = TruncatedSeries.__init__
        monkeypatch.setattr(TruncatedSeries, "__init__",
                            lambda self, *a: shifts.append(a) or init(self,
                                                                      *a))
        monkeypatch.setattr(autdim, "MAX_TANGENCY_TERMS", 10)
        with pytest.raises(AutError) as info:
            tangency_restrictions(M, 3, 7)
        assert str(info.value) == (
            "degree bound 3 at tangency order 7 needs more than "
            "MAX_TANGENCY_TERMS = 10 restricted tangency terms; lower the "
            "truncation order or the degree bound")
        assert shifts == []
        monkeypatch.setattr(autdim, "MAX_TANGENCY_TERMS", 50_000)
        assert len(tangency_restrictions(M, 3, 7)) == len(shifts) == 20

    def test_negative_order_counts_nothing(self, monkeypatch):
        # no term lies at a negative order, so even a zero budget passes
        # and the candidate check refuses the problem
        monkeypatch.setattr(autdim, "MAX_TANGENCY_TERMS", 0)
        with pytest.raises(AutError, match="too small"):
            tangency_restrictions(heis(2, 5), 2, -1)


def outcome(route, M, d, order, weights):
    """The restrictions a route builds, or the type of error it raises."""
    try:
        return route(M, d, order, weights)
    except (AutError, SeriesError) as exc:
        return type(exc)


class TestAgainstComposeRoute:
    """The products z^beta (s + i phi)^k R_j equal the candidate products
    composed one by one with the graph substitution, in exact storage, and
    both routes refuse the same problems with the same error type."""

    def test_seeded_germs(self):
        germs = []
        for seed in range(2):
            for W in (3, 4, 5, 6):
                germs.append((lifted_c3(random_model(seed, 2, W)),
                              ((1, 1, 2), (3, 1, 1), (1, 5, 1))))
                for N in (2, 3):
                    for build in (random_model, random_nondegenerate_model):
                        germs.append((build(seed, N, W),
                                      ((1,) * (N - 1) + (2,),
                                       (3,) + (1,) * (N - 1))))
        equal, raised = 0, set()
        for M, weightings in germs:
            for weights in (None,) + weightings:
                for d in range(4):
                    for order in range(M.order + 1):
                        got = outcome(tangency_restrictions, M, d, order,
                                      weights)
                        want = outcome(compose_restrictions, M, d, order,
                                       weights)
                        assert got == want
                        if isinstance(got, tuple):
                            equal += 1
                        else:
                            raised.add(got)
        assert equal > 400
        assert raised == {AutError, OrderExhausted}

    def test_free_candidate_above_the_germ_order(self):
        # a variable absent from rho has free candidates, yet one of degree
        # above the germ's order cannot be stored at it: z2 absent with
        # weights (1, 5, 1), and the flat germ Im w = 0, where no other
        # candidate is refused and w^4 alone exceeds order 3
        cases = ((lifted_c3(random_model(0, 2, 4)), (1, 5, 1),
                  "(0, 0, 5, 0, 0, 0) exceeds order 4"),
                 (from_defining(im_w(3, 3), 3), (5, 5, 1),
                  "(0, 0, 4, 0, 0, 0) exceeds order 3"))
        for M, weights, message in cases:
            for route in (tangency_restrictions, compose_restrictions):
                with pytest.raises(OrderExhausted) as info:
                    route(M, 0, M.order - 1, weights)
                assert str(info.value) == "stored term " + message


class TestIntegerRows:
    """The rows are the terms()-read rows of the graph monomials e whose
    conjugate ebar is not below e, each scaled by a positive rational, with
    integer entries, in the same order; every read row at an ebar above
    its e is plus or minus the row of the same part at e."""

    def test_rows_are_scaled_oracle_rows(self):
        checked = repeated = 0
        for seed in range(3):
            for N in (2, 3):
                for build in (random_model, random_nondegenerate_model):
                    M = build(seed, N, 5)
                    try:
                        system = infinitesimal_aut_dim(M, 1, 4)
                    except AutError:
                        continue
                    n = N - 1
                    labeled = {(e, part): row for e, part, row in
                               labeled_tangency_rows(
                                   tangency_restrictions(M, 1, 4), 4, True)}
                    want = []
                    for (e, part), row in labeled.items():
                        ebar = e[n:2 * n] + e[:n] + e[2 * n:]
                        if e <= ebar:
                            want.append(row)
                            continue
                        sign = 1 if part == "re" else -1
                        kept = labeled[ebar, part]
                        assert row == {t: sign * x for t, x in kept.items()}
                        repeated += 1
                    assert len(system.equations) == len(want)
                    for got, ref in zip(system.equations, want):
                        assert got.keys() == ref.keys()
                        t = next(iter(got))
                        scale = got[t] / ref[t]
                        assert scale > 0
                        for t, x in got.items():
                            assert type(x) is int
                            assert x == scale * ref[t]
                        checked += 1
        assert checked > 100 and repeated > 100


def lifted_c3(M):
    """A C^2 germ read in C^3, where the graph never sees z2: every
    multiple of d/dz2 is a tangent holomorphic field."""
    return from_defining(TruncatedSeries(6, M.order, {
        (a[0], 0, a[1], a[2], 0, a[3]): c for a, c in M.rho.terms()}), 3)


def oracle_sequence_raises(M, d, order, weights):
    """Whether the two separate solves, complex then real, refuse the
    problem: the restrictions' own checks, complex vacuity, real vacuity."""
    for oracle in (holomorphic_oracle, residual_system):
        try:
            oracle(M, d, order, weights)
        except AutError:
            return True
    return False


class TestHolomorphicDimAgainstOracle:
    """dim V - rank(V cup iV) / 2 on the real solution space V equals the
    complex oracle's nullspace size, and one solve refuses exactly the
    problems the two separate solves refused."""

    def test_seeded_germs(self):
        cases = [(degenerate_c3(o + 1), d, o, None)
                 for d in (1, 2) for o in (2, 4)]
        for seed in range(2):
            for order in (3, 4, 5):
                M = lifted_c3(random_model(seed, 2, order + 1))
                cases += [(M, d, order, wt) for d in (1, 2)
                          for wt in (None, (1, 1, 2))]
            for N in (2, 3):
                for build in (random_model, random_nondegenerate_model):
                    for order in (2, 3, 4, 5):
                        M = build(seed, N, order + 1)
                        for d in (1, 2, 3) if N == 2 else (1, 2):
                            cases.append((M, d, order, None))
                            cases.append((M, d, order, (1,) * (N - 1) + (2,)))
        raised, positive = 0, 0
        for M, d, order, weights in cases:
            refused = oracle_sequence_raises(M, d, order, weights)
            try:
                system = infinitesimal_aut_dim(M, d, order, weights)
            except AutError:
                assert refused
                raised += 1
                continue
            assert not refused
            want = len(holomorphic_oracle(M, d, order, weights)[2])
            assert system.holomorphic_dim == want
            positive += want > 0
        assert raised > 0 and positive > 0
        assert len(cases) - raised > 50

    def test_vacuous_candidate_is_named_by_its_real_part(self):
        # Im w = |z1|^2 - Re(z2) Im(w), built at order 5 but solved at
        # tangency order 1, below the CLI's order - 1: the d/dz2 candidate
        # is vacuous for both problems, and the message names the real
        # part of it
        z1, z2, _, zb1, zb2, _ = (ambient_var(3, v, 5) for v in range(6))
        re_z2 = CScalar(Fraction(1, 2)) * (z2 + zb2)
        M = from_defining(im_w(3, 5) - z1 * zb1 + re_z2 * im_w(3, 5), 3)
        with pytest.raises(AutError) as info:
            infinitesimal_aut_dim(M, 0, 1)
        assert str(info.value) == (
            "order 1 is too small for degree bound 0: candidate "
            "(1, (0, 0, 0, 0, 0, 0), 0) only contributes beyond it, so the "
            "system is vacuous there")
        with pytest.raises(AutError, match="vacuous"):
            holomorphic_oracle(M, 0, 1)


class TestVacuityAgainstResidualSeries:
    """The halved assembly refuses a residual that vanishes up to the order
    but not beyond for exactly the problems the residual-series oracle
    refuses, with the same message, and otherwise solves the oracle's full
    rows: seeded germs in C^2 and C^3 at low orders."""

    def test_seeded_germs(self):
        raised, solved = set(), 0
        for seed in range(3):
            for N in (2, 3):
                for build in (random_model, random_nondegenerate_model):
                    for W in (3, 4, 5):
                        M = build(seed, N, W)
                        for order in range(1, W):
                            for d in (0, 1, 2):
                                for weights in (None,
                                                (1,) * (N - 1) + (2,)):
                                    try:
                                        unknowns, rows = residual_system(
                                            M, d, order, weights)
                                    except AutError as exc:
                                        with pytest.raises(AutError) as info:
                                            infinitesimal_aut_dim(
                                                M, d, order, weights)
                                        assert str(info.value) == str(exc)
                                        part = re.search(
                                            r", (\d)\) only contributes",
                                            str(exc))
                                        if part:
                                            raised.add(part.group(1))
                                        continue
                                    system = infinitesimal_aut_dim(
                                        M, d, order, weights)
                                    assert list(system.vectors) == \
                                        ref_nullspace(rows, len(unknowns))
                                    solved += 1
        # vacuous real and imaginary parts both came up, and many solves
        assert raised == {"0", "1"} and solved > 100


class TestFieldsOnDemand:
    def test_cli_aut_builds_no_field(self, tmp_path, monkeypatch, capsys):
        built = []
        check = FormalVectorField._check
        monkeypatch.setattr(FormalVectorField, "_check", lambda self, *a:
                            built.append(1) or check(self, *a))
        doc = tmp_path / "q.crj"
        doc.write_text("kind = hypersurface\nN = 2\n"
                       "rho = Im(w) - z1*conj(z1)\n", encoding="utf-8")
        assert main(["aut", str(doc), "--degree", "2"]) == 0
        assert "dim: 8" in capsys.readouterr().out
        assert built == []
        # the fields are still there for whoever asks
        assert len(basis_fields(infinitesimal_aut_dim(heis(2, 9), 2, 8,
                                                      WT), 8)) == 8
        assert len(built) == 8

    def test_basis_reads_back_the_vectors(self):
        # each field's coefficient of an unknown's monomial carries the
        # vector's entries as its real and imaginary parts
        for M, d, order in ((heis(2, 9), 2, 8), (degenerate_c3(5), 1, 4)):
            system = infinitesimal_aut_dim(M, d, order)
            for v, Y in zip(system.vectors, basis_fields(system, order),
                            strict=True):
                got = [(c.re, c.im)[part]
                       for j, alpha, part in system.unknowns
                       for c in [Y.coeffs[j].coeff(alpha)]]
                assert got == list(v)
