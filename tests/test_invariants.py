from __future__ import annotations

import itertools
import random
from fractions import Fraction

from crjet.hypersurface import (
    TwoFormEvaluator,
    VectorFieldOp,
    ambient_var,
    build_frame,
    from_defining,
)
from crjet.invariants import (
    extrinsic_k0,
    intrinsic_filtration,
    is_finite,
    nondegeneracy_scan,
    verify_bracket_pairing,
    verify_derivative_recursion,
    verify_leading_order_reduction,
)
from crjet.linalg import SpanTracker, rank
from crjet.series import CScalar, TruncatedSeries, Unbounded
from tests.conftest import (adapt_frame, graph_rho, heis, heisenberg_rho,
                            im_w, kernel_bases, m2_rho, m3_rho, m4_rho,
                            random_model, random_nondegenerate_model,
                            oracle_scan, random_phi, ref_nullspace)
from tests.test_words import OrderedWords


def frame_for(rho, N):
    return build_frame(from_defining(rho, N))


def symmetric_at_zero(F, k) -> bool:
    """Every length-k entry at 0, each built along its own ordered word, is
    unchanged by permuting its abar slots."""
    oracle = OrderedWords(F)
    for abar in itertools.product(range(F.n), repeat=k):
        for D in range(F.n):
            v = oracle.h(abar, D).constant_term()
            for perm in itertools.permutations(abar):
                if oracle.h(perm, D).constant_term() != v:
                    return False
    return True


class TestLieChain:
    def test_empty_tuple_is_theta(self):
        F = frame_for(heisenberg_rho(2, 6), 2)
        assert F.chain(()) == F.theta

    def test_heisenberg_single_step(self):
        F = frame_for(heisenberg_rho(2, 6), 2)
        omega = F.chain((0,))
        got = omega.pair(F.L[0]).constant_term()
        want = TwoFormEvaluator(F.theta)(F.Lbar[0], F.L[0]).constant_term()
        assert got == want == CScalar(0, -2)

    def test_stays_holomorphic(self):
        F = frame_for(m3_rho(8), 3)
        for abar in [(0,), (1, 0), (0, 0, 1)]:
            omega = F.chain(abar)
            for B in range(F.n):
                assert omega.pair(F.Lbar[B]).is_zero()


class TestHTensor:
    def test_heisenberg_levi_value(self):
        F = frame_for(heisenberg_rho(2, 6), 2)
        assert F.h((0,), 0).constant_term() == CScalar(0, -2)

    def test_degenerate_levi_value(self):
        F = frame_for(m2_rho(6), 2)
        assert F.h((0,), 0).constant_term() == CScalar(0)

    def test_zero_length_convention(self):
        F = frame_for(heisenberg_rho(2, 6), 2)
        assert F.transverse(()).constant_term() == CScalar(1)
        assert F.h((), 0).is_zero()

    def test_symmetry_at_zero(self):
        for seed, N in [(300, 2), (301, 3)]:
            F = build_frame(random_model(seed, N, 7))
            for k in (2, 3):
                assert symmetric_at_zero(F, k)

    def test_defining_rescale_covariance(self):
        # rescaling the defining series rescales the characteristic form and
        # with it every tensor entry; the filtration integers cannot move
        rho1 = heisenberg_rho(2, 6)
        F1 = frame_for(rho1, 2)
        M2 = from_defining(TruncatedSeries.constant(4, 4, 6) * rho1, 2)
        F2 = build_frame(M2)
        a = F1.h((0,), 0).constant_term()
        b = F2.h((0,), 0).constant_term()
        assert b == 4 * a
        r1 = intrinsic_filtration(F1)
        r2 = intrinsic_filtration(F2)
        assert (r1.k0, r1.ell0, r1.ell1, r1.m0) == \
            (r2.k0, r2.ell0, r2.ell1, r2.m0)
        assert r1.Ek_dims == r2.Ek_dims


def ordered_extrinsic_k0(rho, kmax):
    """extrinsic_k0 walking every ordered word: the gradient-span route
    without relying on the ambient fields commuting."""
    N, W = rho.nvars // 2, rho.order
    n = N - 1
    grad = [rho.derive(j) for j in range(n)] + [rho.derive(N - 1)]
    wb_inv = rho.derive(2 * N - 1).invert_unit()
    fields = []
    for j in range(n):
        coeffs = [TruncatedSeries.zero(2 * N, W - 1) for _ in range(2 * N)]
        coeffs[N + j] = TruncatedSeries.constant(2 * N, 1, W - 1)
        coeffs[2 * N - 1] = -(rho.derive(N + j) * wb_inv)
        fields.append(VectorFieldOp(coeffs))
    tracker = SpanTracker()
    level = {(): grad}
    for k in range(kmax + 1):
        for word in sorted(level):
            tracker.add([s.constant_term() for s in level[word]])
        if tracker.dim == N:
            return k
        level = {word + (j,): [fields[j].apply(s) for s in vec]
                 for word, vec in level.items() for j in range(n)}
    return Unbounded("kmax", kmax)


class TestExtrinsicK0:
    def test_sorted_words_match_ordered_walk(self):
        # the ambient fields commute, so the sorted words span what the
        # ordered ones do at every length
        seen = set()
        for N in (2, 3, 4):
            for maker in (random_model, random_nondegenerate_model):
                for seed in range(12):
                    for kmax in range(5):
                        M = maker(700 + seed, N, kmax + 3)
                        got = extrinsic_k0(M.rho, kmax)
                        assert got == ordered_extrinsic_k0(M.rho, kmax), \
                            (maker, seed, N, kmax)
                        seen.add(got)
        assert {1, 2, 3, 4, Unbounded("kmax", 4)} <= seen

    def test_heisenberg_plane(self):
        M = from_defining(heisenberg_rho(2, 6), 2)
        assert extrinsic_k0(M.rho, 3) == 1

    def test_heisenberg_space(self):
        M = from_defining(heisenberg_rho(3, 6), 3)
        assert extrinsic_k0(M.rho, 3) == 1

    def test_two_step_model(self):
        M = from_defining(m3_rho(8), 3)
        assert extrinsic_k0(M.rho, 4) == 2

    def test_degenerate_model_marker(self):
        M = from_defining(m2_rho(10), 2)
        got = extrinsic_k0(M.rho, 6)
        assert got == Unbounded("kmax", 6)
        assert str(got) == "inf@kmax=6"


class TestIntrinsicFiltration:
    def test_heisenberg(self):
        F = frame_for(heisenberg_rho(2, 8), 2)
        r = intrinsic_filtration(F)
        assert list(r.Ek_dims) == [1, 2]
        assert list(r.Fk_dims) == [1, 0]
        assert list(r.rk) == [0, 1]
        assert r.k0 == 1 and r.levi_rank == 1
        assert r.ell0 == 1 and r.ell1 == 1 and r.m0 == 2

    def test_two_step_model(self):
        F = frame_for(m3_rho(8), 3)
        r = intrinsic_filtration(F)
        assert list(r.Ek_dims) == [1, 2, 3]
        assert r.k0 == 2 and r.levi_rank == 1
        assert r.ell0 == 1 and r.ell1 == 1
        assert is_finite(r.m0) and r.m0 <= r.k0 + 1

    def test_degenerate_model(self):
        F = frame_for(m2_rho(10), 2)
        r = intrinsic_filtration(F, kmax=6)
        assert r.k0 == Unbounded("kmax", 6)
        assert r.ell0 == Unbounded("lmax", 7)
        assert r.ell1 == Unbounded("lmax", 7)
        assert r.m0 == 4
        assert r.levi_rank == 0

    def test_zero_levi_two_step(self):
        # Im w = Re(z1^2 zb2): Levi form vanishes at 0 but the length-two
        # tensor does not
        F = frame_for(m4_rho(8), 3)
        r = intrinsic_filtration(F)
        assert r.levi_rank == 0
        assert r.ell0 == 2 and r.ell1 == 2
        assert r.m0 == 3

    def test_monotonic_dims(self):
        for seed, N in [(310, 2), (311, 3)]:
            F = build_frame(random_model(seed, N, 7))
            r = intrinsic_filtration(F)
            for a, b in zip(r.Ek_dims, r.Ek_dims[1:]):
                assert a <= b
            for a, b in zip(r.Fk_dims, r.Fk_dims[1:]):
                assert a >= b
            for k in range(len(r.rk)):
                assert r.rk[k] == F.n - r.Fk_dims[k]
                assert r.Ek_dims[k] == r.rk[k] + 1

    def test_cross_oracle_k0_agreement(self):
        cases = [
            (heisenberg_rho(2, 8), 2, 1),
            (heisenberg_rho(3, 8), 3, 1),
            (m3_rho(8), 3, 2),
        ]
        for rho, N, want in cases:
            M = from_defining(rho, N)
            F = build_frame(M)
            r = intrinsic_filtration(F)
            assert r.k0 == want
            assert extrinsic_k0(M.rho, r.kmax) == want

    def test_cross_oracle_marker_agreement(self):
        # the quartic model and the cubic model both fail every finite
        # nondegeneracy order; the two oracles must agree on the marker too
        for rho, N, kmax in [(m2_rho(10), 2, 6), (m4_rho(8), 3, 2)]:
            M = from_defining(rho, N)
            F = build_frame(M)
            r = intrinsic_filtration(F, kmax=kmax)
            assert r.k0 == Unbounded("kmax", kmax)
            assert extrinsic_k0(M.rho, kmax) == r.k0

    def test_levi_rank_at_kmax_zero(self):
        # with no k-step the Levi rank comes from the length-one tensor
        for N, want in ((2, 1), (3, 2)):
            r = intrinsic_filtration(build_frame(heis(N, 4)), kmax=0)
            assert (r.levi_rank, r.rk, r.Fk_dims) == (want, (0,), (N - 1,))
            assert r.k0 == Unbounded("kmax", 0)

    def test_seeded_k0_routes_agree(self):
        # the filtration and the gradient span reach k0 independently
        seen = set()
        for N, order in ((2, 6), (3, 6), (4, 5)):
            for maker in (random_model, random_nondegenerate_model):
                for seed in range(600, 610):
                    M = maker(seed, N, order)
                    r = intrinsic_filtration(build_frame(M), kmax=3)
                    assert r.k0 == extrinsic_k0(M.rho, 3), (maker, seed, N)
                    seen.add(r.k0)
        assert seen == {1, 2, 3, Unbounded("kmax", 3)}

    def test_ranks_match_kernel_bases(self):
        # one span tracker against the nullspace oracle at every level, and
        # the Levi rank against the length-one h matrix at 0, at every kmax
        seen = set()
        for N, order in ((2, 6), (3, 6), (4, 5)):
            for maker in (random_model, random_nondegenerate_model):
                for seed in range(620, 625):
                    F = build_frame(maker(seed, N, order))
                    n = F.n
                    h1 = [[F.h((A,), B).constant_term()
                           for B in range(n)] for A in range(n)]
                    levi = n - len(ref_nullspace(h1, n))
                    for kmax in range(4):
                        r = intrinsic_filtration(F, kmax=kmax)
                        sizes = tuple(len(b) for b in kernel_bases(F, kmax))
                        case = (maker.__name__, seed, N, kmax)
                        assert r.Fk_dims == sizes, case
                        assert r.rk == tuple(n - d for d in sizes), case
                        assert r.levi_rank == levi, case
                        seen.update((n, d) for d in r.Fk_dims)
        # the seeds reach proper kernels, which a rank slip would move
        assert {(n, d) for n, d in seen if 0 < d < n} == {(2, 1), (3, 1),
                                                          (3, 2)}

    def test_seeded_germs_at_the_derived_order(self):
        # the filtration reads frame order lmax = kmax + 1 and extrinsic_k0
        # rho order kmax + 1, so rho cut at kmax + 2 must give what the
        # former default order 2*(kmax+2) gave
        seen = set()
        for N, kmaxes, seeds in ((2, (1, 2, 3), range(12)),
                                 (3, (2, 3), range(4)), (4, (3,), range(4)),
                                 (5, (2,), range(4))):
            for maker in (random_model, random_nondegenerate_model):
                for seed, kmax in itertools.product(seeds, kmaxes):
                    full = maker(900 + seed, N, 2 * (kmax + 2))
                    cut = from_defining(full.rho.truncate(kmax + 2), N)
                    got = [(intrinsic_filtration(build_frame(M), kmax),
                            extrinsic_k0(M.rho, kmax)) for M in (cut, full)]
                    assert got[0] == got[1], (maker.__name__, seed, N, kmax)
                    seen.add((got[0][0].k0, got[0][0].m0))
        assert {k0 for k0, _ in seen} >= {1, 2, Unbounded("kmax", 3)}
        assert {m0 for _, m0 in seen} >= {2, 3, 4, Unbounded("typemax", 4)}

    def test_prop_consequences_on_random_models(self):
        for seed, N in [(320, 2), (321, 3), (322, 3)]:
            F = build_frame(random_model(seed, N, 7))
            r = intrinsic_filtration(F)
            if is_finite(r.ell0) or is_finite(r.ell1):
                assert r.ell0 == r.ell1
            if is_finite(r.k0):
                assert is_finite(r.m0) and r.m0 <= r.k0 + 1


class TestAdaptedFrame:
    def test_adapts_to_levi_kernel(self):
        M = from_defining(m3_rho(8), 3)
        F = build_frame(M)
        G = adapt_frame(F, kernel_bases(F))
        # trailing field spans the Levi kernel: its pairing row vanishes
        for A in range(G.n):
            assert G.h((A,), G.n - 1).constant_term().is_zero()

    def test_idempotent_dimensions(self):
        M = from_defining(m3_rho(8), 3)
        F = build_frame(M)
        r1 = intrinsic_filtration(F)
        G = adapt_frame(F, kernel_bases(F))
        r2 = intrinsic_filtration(G)
        assert r1.Ek_dims == r2.Ek_dims
        assert r1.Fk_dims == r2.Fk_dims
        assert r1.k0 == r2.k0 and r1.ell0 == r2.ell0 and r1.m0 == r2.m0


class TestDerivativeRecursion:
    def test_heisenberg(self):
        F = frame_for(heisenberg_rho(2, 8), 2)
        rep = verify_derivative_recursion(F, 1)
        assert rep.ok and rep.checked > 0

    def test_zero_length_base(self):
        F = frame_for(heisenberg_rho(2, 8), 2)
        rep = verify_derivative_recursion(F, 0)
        assert rep.ok

    def test_random_models(self):
        for seed in (330, 331):
            F = build_frame(random_model(seed, 2, 6))
            assert verify_derivative_recursion(F, 3).ok

    def test_walks_sorted_tuples(self):
        # entries are keyed by sorted words, so every ordering of a tuple
        # repeats the sorted tuple's residual: C(n + j - 1, j) * n^2 checks
        # per length j
        F = frame_for(m3_rho(8), 3)
        rep = verify_derivative_recursion(F, 3)
        assert rep.ok and rep.checked == (1 + 2 + 3 + 4) * 4


class TestLeadingOrderReduction:
    def test_heisenberg_thin(self):
        F = frame_for(heisenberg_rho(2, 8), 2)
        rep = verify_leading_order_reduction(F, intrinsic_filtration(F))
        assert rep.ok and not rep.vacuous

    def test_two_step_zero_levi(self):
        F = frame_for(m4_rho(8), 3)
        rep = verify_leading_order_reduction(F, intrinsic_filtration(F))
        assert rep.ok and rep.checked > 0

    def test_vacuous_for_unbounded(self):
        F = frame_for(m2_rho(10), 2)
        rep = verify_leading_order_reduction(
            F, intrinsic_filtration(F, kmax=6))
        assert rep.ok and rep.vacuous


class TestBracketPairing:
    def test_heisenberg_value(self):
        F = frame_for(heisenberg_rho(2, 8), 2)
        rep = verify_bracket_pairing(F, intrinsic_filtration(F))
        assert rep.ok and rep.checked == 1
        B = F.Lbar[0].bracket(F.L[0])
        assert F.theta.pair(B).constant_term() == CScalar(0, 2)

    def test_two_step(self):
        F = frame_for(m4_rho(8), 3)
        rep = verify_bracket_pairing(F, intrinsic_filtration(F))
        assert rep.ok and rep.checked > 4

    def test_random_models(self):
        for seed in (340, 341):
            F = build_frame(random_model(seed, 2, 7))
            assert verify_bracket_pairing(F, intrinsic_filtration(F)).ok

    def test_unbounded_case_vacuous(self):
        F = frame_for(m2_rho(10), 2)
        rep = verify_bracket_pairing(F, intrinsic_filtration(F, kmax=6))
        assert rep.ok and rep.vacuous


class TestNondegeneracyScan:
    def test_degenerate_model_grid(self):
        M = from_defining(m2_rho(8), 2)
        grid = [((z,), s)
                for z in (Fraction(1, 2), Fraction(-1, 2),
                          Fraction(1, 4), Fraction(-1, 4))
                for s in (0, Fraction(1, 2), Fraction(-1, 2))]
        rep = nondegeneracy_scan(M, grid, 1)
        assert all(r.status == "ok" for r in rep.results)
        assert all(r.nondegenerate for r in rep.results)

    def test_degenerate_model_axis(self):
        M = from_defining(m2_rho(8), 2)
        rep = nondegeneracy_scan(M, [((0,), 0), ((0,), Fraction(1, 2))], 1)
        assert not any(r.nondegenerate for r in rep.results)

    def test_heisenberg_everywhere(self):
        M = from_defining(heisenberg_rho(2, 8), 2)
        pts = [((Fraction(1, 2),), Fraction(1, 3)), ((0,), 0),
               ((CScalar(0, Fraction(1, 2)),), 1)]
        rep = nondegeneracy_scan(M, pts, 1)
        assert all(r.nondegenerate for r in rep.results)
        assert rep.nondegenerate_count == 3

    def test_seeded_graphs_match_the_graph_route(self):
        # the linear normalization alone gives every point the k0 that
        # solving the recentred graph gave
        seen = set()
        half, third = Fraction(1, 2), Fraction(-1, 3)
        values = (0, half, third, CScalar(0, half), CScalar(third, 1))
        for N, order, seeds in ((2, 6, range(4)), (3, 5, range(3))):
            for maker in (random_model, random_nondegenerate_model):
                for seed in seeds:
                    M = maker(40 + seed, N, order)
                    points = [(z, s) for z in itertools.product(
                        values, repeat=N - 1) for s in (0, third)]
                    if N == 3:
                        points = points[::3]
                    for k in range(min(order - 1, 3)):
                        got = nondegeneracy_scan(M, points, k)
                        assert got.results == oracle_scan(M, points, k), \
                            (maker.__name__, seed, N, k)
                        seen.update(str(r.k0) for r in got.results)
        assert {"1", "2", "inf@kmax=0", "inf@kmax=1",
                "inf@kmax=2"} <= seen

    def test_vanishing_differential_is_singular_on_both_routes(self):
        # rho = (Im w - |z1|^2)(1 - 4|z1|^2): both factors vanish on
        # |z1| = 1/2, so d rho does, and the linear normalization refuses
        # the point as the graph route did
        z, zb = ambient_var(2, 0, 4), ambient_var(2, 2, 4)
        M = from_defining((im_w(2, 4) - z * zb) * (1 - 4 * z * zb), 2)
        points = [((0,), 0), ((Fraction(1, 2),), 0)]
        got = nondegeneracy_scan(M, points, 1)
        assert got.results == oracle_scan(M, points, 1)
        assert [r.status for r in got.results] == ["ok", "singular"]
        assert got.results[0].k0 == 1


def random_invertible(rng, N):
    """Random invertible N x N matrix of small complex rationals."""
    while True:
        A = [[CScalar(Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)),
                      Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)))
              for _ in range(N)] for _ in range(N)]
        if rank(A) == N:
            return A


def linear_change(rho, N, A):
    """rho in the coordinates (z', w') with (z, w) = A (z', w')."""
    W = rho.order
    zero = TruncatedSeries.zero(2 * N, W)
    holo = [sum((A[i][j] * ambient_var(N, j, W) for j in range(N)), zero)
            for i in range(N)]
    anti = [sum((A[i][j].conj() * ambient_var(N, N + j, W)
                 for j in range(N)), zero) for i in range(N)]
    return rho.compose(holo + anti)


class TestLinearChangeInvariance:
    """The origin invariants do not see invertible linear holomorphic
    changes of coordinates: both germs go through from_defining, whose
    normalization must undo the change up to a biholomorphism."""

    @staticmethod
    def invariants(rho, N, kmax=None):
        r = intrinsic_filtration(build_frame(from_defining(rho, N)),
                                 kmax=kmax)
        return r.k0, r.Ek_dims, r.levi_rank, r.ell0, r.m0

    def test_seeded_changes(self):
        rng = random.Random(2024)
        cases = [
            (heisenberg_rho(2, 6), 2, None),
            (m2_rho(6), 2, 3),
            (heisenberg_rho(3, 5), 3, None),
            (m3_rho(5), 3, None),
            (m4_rho(5), 3, None),
        ]
        for N, order in [(2, 6), (2, 6), (3, 5), (3, 5)]:
            phi = random_phi(rng, N - 1, order)
            cases.append((graph_rho(phi, N, order), N, None))
        seen = set()
        for rho, N, kmax in cases:
            want = self.invariants(rho, N, kmax)
            seen.add(want)
            for _ in range(2):
                A = random_invertible(rng, N)
                got = self.invariants(linear_change(rho, N, A), N, kmax)
                assert got == want, (N, A)
        # the cases reach nondegenerate, two-step and degenerate germs
        assert {w[0] for w in seen} >= {1, 2, Unbounded("kmax", 3)}
