from __future__ import annotations

import random
from fractions import Fraction

import pytest

from crjet.autdim import FormalVectorField
from crjet.hypersurface import (
    GeometryError,
    OneForm,
    TwoFormEvaluator,
    VectorFieldOp,
    _apply_holo_change,
    _holo_gradient,
    ambient_var,
    build_frame,
    from_defining,
    intrinsic_pairing,
)
from crjet.linalg import rank
from crjet.series import (CS_I, CS_ONE, CS_ZERO, CScalar, OrderExhausted,
                          TruncatedSeries, series_solve)
from tests.conftest import (
    adapt_frame,
    graph_rho,
    heis,
    heisenberg_rho,
    im_w,
    intrinsic_var,
    m3_rho,
    random_model,
    random_nondegenerate_model,
    random_phi,
    re_w,
    scaled,
)
from tests.test_invariants import linear_change, random_invertible


class TestFromDefining:
    def test_heisenberg_already_graph(self):
        M = from_defining(heisenberg_rho(2, 6), 2)
        z = intrinsic_var(1, 0, 6)
        zb = intrinsic_var(1, 1, 6)
        assert M.phi == z * zb
        # normalization was the identity
        assert M.change == [[CS_ONE, CS_ZERO], [CS_ZERO, CS_ONE]]

    def test_second_model_already_graph(self):
        M = from_defining(m3_rho(6), 3)
        z1 = intrinsic_var(2, 0, 6)
        z2 = intrinsic_var(2, 1, 6)
        zb1 = intrinsic_var(2, 2, 6)
        zb2 = intrinsic_var(2, 3, 6)
        want = z1 * zb1 + Fraction(1, 2) * (z1 * z1 * zb2 + zb1 * zb1 * z2)
        assert M.phi == want

    def test_newton_on_transverse_factor(self):
        # rho = (Im w)(1 + Re w) - z zb requires genuine iteration
        rho = im_w(2, 6) * (1 + re_w(2, 6)).truncate(6) - \
            ambient_var(2, 0, 6) * ambient_var(2, 2, 6)
        rho = rho.truncate(6)
        M = from_defining(rho, 2)
        assert M.defining_residual().is_zero()
        assert M.phi.constant_term().is_zero()
        assert M.phi.homogeneous_part(1).is_zero()
        # leading part agrees with the product expansion phi = zzb(1 - s + ...)
        z = intrinsic_var(1, 0, 6)
        zb = intrinsic_var(1, 1, 6)
        s = intrinsic_var(1, 2, 6)
        assert M.phi.truncate(3) == (z * zb * (1 - s)).truncate(3)

    def test_swaps_transverse_coordinate(self):
        # transverse direction sits in z1: the swap must move it to w
        z1 = ambient_var(2, 0, 6)
        zb1 = ambient_var(2, 2, 6)
        w = ambient_var(2, 1, 6)
        wb = ambient_var(2, 3, 6)
        rho = CScalar(0, Fraction(-1, 2)) * (z1 - zb1) - w * wb
        M = from_defining(rho, 2)
        zi = intrinsic_var(1, 0, 6)
        zbi = intrinsic_var(1, 1, 6)
        assert M.phi == zi * zbi

    def test_rotates_real_transverse_slot(self):
        # rho = Re w - z zb has a real w-derivative; a phase fixes it
        rho = re_w(2, 6) - ambient_var(2, 0, 6) * ambient_var(2, 2, 6)
        M = from_defining(rho, 2)
        assert M.defining_residual().is_zero()
        zi = intrinsic_var(1, 0, 6)
        zbi = intrinsic_var(1, 1, 6)
        assert M.phi == zi * zbi

    def test_random_graph_roundtrip(self):
        for seed in range(3):
            rng = random.Random(100 + seed)
            phi = random_phi(rng, 1, 6)
            M = from_defining(graph_rho(phi, 2, 6), 2)
            assert M.phi == phi
            assert M.defining_residual().is_zero()

    def test_rejects_complex_defining_series(self):
        bad = heisenberg_rho(2, 4) + CS_I * ambient_var(2, 0, 4) * ambient_var(2, 2, 4)
        with pytest.raises(GeometryError):
            from_defining(bad, 2)

    def test_rejects_nonvanishing_origin(self):
        with pytest.raises(GeometryError):
            from_defining(heisenberg_rho(2, 4) + 1, 2)

    def test_rejects_degenerate_differential(self):
        z = ambient_var(2, 0, 4)
        zb = ambient_var(2, 2, 4)
        with pytest.raises(GeometryError):
            from_defining(z * zb, 2)


def stepwise_linear_change(rho, N):
    """Oracle for the linear stages of from_defining: each change a matrix
    product on P and a rewrite of rho by the change's own inverse, with
    the gradient read afresh from the rewritten rho.  Returns the final
    rho, P and the stages taken."""

    def matmul(A, B):
        return [[sum((A[i][k] * B[k][j] for k in range(N)), CS_ZERO)
                 for j in range(N)] for i in range(N)]

    def identity():
        return [[CS_ONE if i == j else CS_ZERO for j in range(N)]
                for i in range(N)]

    grad = _holo_gradient(rho, N)
    P, taken = identity(), []
    if grad[N - 1].im == 0:
        best, best_size = None, Fraction(0)
        for j in range(N):
            size = grad[j].abs2()
            if size > best_size:
                best, best_size = j, size
        if best != N - 1:
            S = identity()
            S[best][best] = S[N - 1][N - 1] = CS_ZERO
            S[best][N - 1] = S[N - 1][best] = CS_ONE
            P = matmul(S, P)
            rho = _apply_holo_change(rho, N, S)  # a swap is its own inverse
            grad = _holo_gradient(rho, N)
            taken.append("swap")
        if grad[N - 1].im == 0:
            D, Dinv = identity(), identity()
            D[N - 1][N - 1] = CS_I
            Dinv[N - 1][N - 1] = -CS_I
            P = matmul(D, P)
            rho = _apply_holo_change(rho, N, Dinv)
            grad = _holo_gradient(rho, N)
            taken.append("diagonal")
    Sh, Shinv = identity(), identity()
    for j in range(N):
        Sh[N - 1][j] = CScalar(0, 2) * grad[j]
    # the last row of the inverse solves Sh's last row for the old w
    for j in range(N - 1):
        Shinv[N - 1][j] = -Sh[N - 1][j] / Sh[N - 1][N - 1]
    Shinv[N - 1][N - 1] = 1 / Sh[N - 1][N - 1]
    assert matmul(Shinv, Sh) == identity()
    P = matmul(Sh, P)
    rho = _apply_holo_change(rho, N, Shinv)
    return rho, P, tuple(taken)


class TestLinearChangeOnce:
    """from_defining applies its swap, phase and shear as one change; the
    result must equal the stepwise changes exactly."""

    @staticmethod
    def w_rows(rng, N):
        """Rows giving w in the new coordinates: generic, a swap from z1, a
        swap then a phase, a phase alone, a tie between z1 and w and, for
        N >= 3, a real gradient with a tie between z1 and z2."""
        e = [[CS_ONE if i == j else CS_ZERO for j in range(N)]
             for i in range(N)]
        rows = [random_invertible(rng, N)[0], e[0], [CS_I * c for c in e[0]],
                [CS_I * c for c in e[N - 1]],
                [CS_I * (a + b) for a, b in zip(e[0], e[N - 1])]]
        if N >= 3:
            rows.append([CS_I * (a + b) for a, b in zip(e[0], e[1])])
        return rows

    def test_matches_stepwise_changes(self):
        rng = random.Random(2610)
        taken, z_ties = set(), 0
        for N, order in ((2, 5), (3, 4), (4, 3)):
            e = [[CS_ONE if i == j else CS_ZERO for j in range(N)]
                 for i in range(N)]
            z_tie = [CS_I * (a + b) for a, b in zip(e[0], e[1])]
            for _ in range(2):
                base = graph_rho(random_phi(rng, N - 1, order), N, order)
                for row in self.w_rows(rng, N):
                    A = random_invertible(rng, N)
                    A[N - 1] = row
                    if rank(A) < N:
                        continue
                    rho = linear_change(base, N, A)
                    want_rho, want_P, stages = stepwise_linear_change(rho, N)
                    M = from_defining(rho, N)
                    assert M.rho == want_rho and M.change == want_P, stages
                    # the graph of an already normalized rho is solved by
                    # Newton alone, with no linear change
                    assert M.phi == from_defining(want_rho, N).phi
                    taken.add(stages)
                    if N >= 3 and row == z_tie:
                        # z1 and z2 tie: the lower index gives up its slot
                        assert M.change[0] == e[N - 1]
                        z_ties += 1
        assert taken == {(), ("swap",), ("swap", "diagonal"), ("diagonal",)}
        assert z_ties


class TestBuildFrame:
    def test_heisenberg_frame(self):
        M = from_defining(heisenberg_rho(2, 6), 2)
        F = build_frame(M)
        z = intrinsic_var(1, 0, 5)
        zb = intrinsic_var(1, 1, 5)
        assert F.Lbar[0].coeffs[1] == TruncatedSeries.constant(3, 1, 5)
        assert F.Lbar[0].coeffs[2] == (-CS_I) * z
        assert F.L[0].coeffs[0] == TruncatedSeries.constant(3, 1, 5)
        assert F.L[0].coeffs[2] == CS_I * zb
        assert F.theta.coeffs[0] == (-CS_I) * zb
        assert F.theta.coeffs[1] == CS_I * z
        assert F.theta.coeffs[2] == TruncatedSeries.constant(3, 1, 5)

    def test_duality_pairings(self):
        for seed, N, order in [(200, 2, 6), (201, 2, 6), (202, 3, 6),
                               (203, 4, 5)]:
            F = build_frame(random_model(seed, N, order))
            fields = (F.T,) + F.L + F.Lbar
            forms = (F.theta,) + F.thetaA + F.thetaAbar
            for r, form in enumerate(forms):
                for c, field in enumerate(fields):
                    want = TruncatedSeries.constant(
                        2 * F.n + 1, 1 if r == c else 0, F.order)
                    got = form.pair(field)
                    assert got.truncate(want.order) == want.truncate(got.order)

    def test_reality(self):
        M = random_model(210, 3, 6)
        F = build_frame(M)
        pairing = intrinsic_pairing(F.n)
        assert F.T.conjugate(pairing) == F.T
        assert F.theta.conjugate(pairing) == F.theta
        for j in range(F.n):
            assert F.L[j].conjugate(pairing) == F.Lbar[j]
            assert F.thetaA[j].conjugate(pairing) == F.thetaAbar[j]

    def test_brackets_are_transverse(self):
        # every frame bracket is a multiple of d/ds
        M = random_model(220, 2, 6)
        F = build_frame(M)
        fields = list(F.L) + list(F.Lbar) + [F.T]
        for X in fields:
            for Y in fields:
                B = X.bracket(Y)
                for v in range(2 * F.n):
                    assert B.coeffs[v].is_zero()

    def test_cr_fields_commute(self):
        M = random_model(230, 3, 6)
        F = build_frame(M)
        for X in F.L:
            for Y in F.L:
                assert X.bracket(Y).is_zero()

    def test_structure_pairings_vanish(self):
        # d theta^A paired against every frame pair is zero: the coframe
        # differentials carry no curvature terms in this construction
        for seed in (240, 241):
            M = random_model(seed, 2, 6)
            F = build_frame(M)
            fields = list(F.L) + list(F.Lbar) + [F.T]
            for form in F.thetaA:
                ev = TwoFormEvaluator(form)
                for X in fields:
                    for Y in fields:
                        assert ev(X, Y).is_zero()


def inverse_coframe(F):
    """Coframe oracle: theta, theta^A and theta^Abar as the rows of the
    inverse of the matrix whose columns are T, L_A, Lbar_A, solved over the
    series ring; asserts the inverse before returning it."""
    nv = 2 * F.n + 1
    columns = (F.T,) + F.L + F.Lbar
    mat = [[X.coeffs[v] for X in columns] for v in range(nv)]
    ident = [[TruncatedSeries.constant(nv, 1 if i == j else 0, F.order)
              for i in range(nv)] for j in range(nv)]
    cols = series_solve(mat, ident)
    inv = [[cols[j][i] for j in range(nv)] for i in range(nv)]
    for i in range(nv):
        for j in range(nv):
            acc = TruncatedSeries.zero(nv, F.order)
            for k in range(nv):
                acc = acc + mat[i][k] * inv[k][j]
            assert acc == ident[j][i]
    forms = [OneForm(row) for row in inv]
    return forms[0], tuple(forms[1:F.n + 1]), tuple(forms[F.n + 1:])


class TestCoframeOracle:
    @pytest.mark.parametrize("N, order", [(2, 6), (3, 6), (4, 5)])
    def test_closed_form_equals_inverse(self, N, order):
        # series equality is equality in storage: order, common
        # denominator and every stored term
        models = [heis(N, order)]
        for seed in range(6):
            models.append(random_model(seed, N, order))
            models.append(random_nondegenerate_model(seed, N, order))
        for M in models:
            F = build_frame(M)
            theta, thetaA, thetaAbar = inverse_coframe(F)
            assert F.theta == theta
            assert F.thetaA == thetaA
            assert F.thetaAbar == thetaAbar


class TestBracket:
    def test_heisenberg_hand_expansion(self):
        # [d/dzb - iz d/ds, d/dz + izb d/ds] applied to f:
        # the first field sees the izb coefficient (+i), the second the -iz
        # coefficient (-i); the difference leaves 2i d/ds
        M = from_defining(heisenberg_rho(2, 6), 2)
        F = build_frame(M)
        B = F.Lbar[0].bracket(F.L[0])
        assert B.coeffs[0].is_zero() and B.coeffs[1].is_zero()
        assert B.coeffs[2] == TruncatedSeries.constant(3, CScalar(0, 2), 4)

    def test_self_bracket_vanishes(self):
        M = random_model(250, 3, 6)
        F = build_frame(M)
        assert F.L[1].bracket(F.L[1]).is_zero()

    def test_jacobi(self):
        rng = random.Random(260)
        from tests.test_series import rand_series
        fields = []
        for _ in range(3):
            fields.append(VectorFieldOp(
                [rand_series(rng, 3, 6, terms=3) for _ in range(3)]))
        X, Y, Z = fields
        total = (X.bracket(Y.bracket(Z)) + Y.bracket(Z.bracket(X))
                 + Z.bracket(X.bracket(Y)))
        assert total.is_zero()


class TestDenseCoefficients:
    def test_one_shell_for_fields_and_forms(self):
        shell = {"__init__", "__setattr__", "is_zero", "conjugate",
                 "__add__", "__sub__", "__neg__", "__eq__",
                 "__repr__"}
        for cls in (VectorFieldOp, OneForm, FormalVectorField):
            assert not shell & set(vars(cls)), cls

    def test_common_order_and_slotwise_algebra(self):
        a = TruncatedSeries.variable(3, 0, 5)
        b = TruncatedSeries.variable(3, 1, 3)
        X = VectorFieldOp([a, b, a * b])
        assert X.order == 3 and all(c.order == 3 for c in X.coeffs)
        assert (X - X).is_zero() and scaled(X, 2) == X + X == X - (-X)
        with pytest.raises(AttributeError, match="VectorFieldOp is immutable"):
            X.order = 5
        omega = OneForm([a, b, a * b])
        assert omega.coeffs == X.coeffs and omega != X
        with pytest.raises(TypeError):
            X + omega


class TestExteriorDerivative:
    def test_closed_coordinate_differential(self):
        M = from_defining(heisenberg_rho(2, 6), 2)
        F = build_frame(M)
        ds = TwoFormEvaluator(
            # take d of the plain coordinate differential ds
            F.theta.__class__([TruncatedSeries.zero(3, 5),
                               TruncatedSeries.zero(3, 5),
                               TruncatedSeries.constant(3, 1, 5)]))
        assert ds(F.Lbar[0], F.L[0]).is_zero()

    def test_heisenberg_characteristic_value(self):
        M = from_defining(heisenberg_rho(2, 6), 2)
        F = build_frame(M)
        val = TwoFormEvaluator(F.theta)(F.Lbar[0], F.L[0])
        assert val == TruncatedSeries.constant(3, CScalar(0, -2), 4)

    def test_order_zero_form_is_refused(self):
        # every two-form is built by this constructor, so it checks the
        # order itself
        omega = OneForm([TruncatedSeries.zero(3, 0)] * 3)
        with pytest.raises(OrderExhausted,
                           match="^one-form order too low to differentiate$"):
            TwoFormEvaluator(omega)

    def test_antisymmetry(self):
        rng = random.Random(270)
        from tests.test_series import rand_series
        omega = OneForm([rand_series(rng, 3, 5, terms=3) for _ in range(3)])
        X = VectorFieldOp([rand_series(rng, 3, 5, terms=3) for _ in range(3)])
        Y = VectorFieldOp([rand_series(rng, 3, 5, terms=3) for _ in range(3)])
        ev = TwoFormEvaluator(omega)
        assert (ev(X, Y) + ev(Y, X)).is_zero()

    def test_invariant_formula(self):
        # d omega(X, Y) = X<omega,Y> - Y<omega,X> - <omega,[X,Y]>
        rng = random.Random(280)
        from tests.test_series import rand_series
        omega = OneForm([rand_series(rng, 3, 6, terms=3) for _ in range(3)])
        X = VectorFieldOp([rand_series(rng, 3, 6, terms=3) for _ in range(3)])
        Y = VectorFieldOp([rand_series(rng, 3, 6, terms=3) for _ in range(3)])
        lhs = TwoFormEvaluator(omega)(X, Y)
        rhs = X.apply(omega.pair(Y)) - Y.apply(omega.pair(X)) \
            - omega.pair(X.bracket(Y))
        o = min(lhs.order, rhs.order)
        assert lhs.truncate(o) == rhs.truncate(o)

    def test_contract_matches_evaluation(self):
        rng = random.Random(290)
        from tests.test_series import rand_series
        omega = OneForm([rand_series(rng, 3, 5, terms=3) for _ in range(3)])
        X = VectorFieldOp([rand_series(rng, 3, 5, terms=3) for _ in range(3)])
        Y = VectorFieldOp([rand_series(rng, 3, 5, terms=3) for _ in range(3)])
        ev = TwoFormEvaluator(omega)
        lhs = ev.contract(X).pair(Y)
        rhs = ev(X, Y)
        o = min(lhs.order, rhs.order)
        assert lhs.truncate(o) == rhs.truncate(o)


def at0(X):
    return [c.constant_term() for c in X.coeffs]


class TestAdaptFrame:
    def test_reorders_to_kernel(self):
        # kernel chain: full space, then span{e2}
        M = from_defining(m3_rho(6), 3)
        F = build_frame(M)
        e1 = [CS_ONE, CS_ZERO]
        e2 = [CS_ZERO, CS_ONE]
        G = adapt_frame(F, [[e1, e2], [e2]])
        assert at0(G.L[1]) == at0(F.L[1])  # e2 direction lands last
        # duality still holds at the adapted frame
        forms = (G.theta,) + G.thetaA + G.thetaAbar
        for r, form in enumerate(forms):
            for c, field in enumerate((G.T,) + G.L + G.Lbar):
                want = TruncatedSeries.constant(5, 1 if r == c else 0, G.order)
                got = form.pair(field)
                assert got.truncate(want.order) == want.truncate(got.order)

    def test_nontrivial_kernel_vector(self):
        M = from_defining(m3_rho(6), 3)
        F = build_frame(M)
        v = [CS_ONE, CScalar(2)]
        G = adapt_frame(F, [[[CS_ONE, CS_ZERO], v], [v]])
        assert at0(G.L[1])[:2] == [CS_ONE, CScalar(2)]
        # brackets stay transverse under constant changes
        B = G.L[0].bracket(G.Lbar[1])
        for u in range(4):
            assert B.coeffs[u].is_zero()

    def test_dimension_mismatch(self):
        M = from_defining(heisenberg_rho(2, 6), 2)
        F = build_frame(M)
        with pytest.raises(GeometryError):
            adapt_frame(F, [[[CS_ONE, CS_ZERO]]])
