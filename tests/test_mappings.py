from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction

import pytest

from crjet import mappings, series
from crjet.cli.main import main
from crjet.hypersurface import Frame, ambient_var, build_frame, from_defining
from crjet.mappings import (
    AmbientMap,
    MappingError,
    Pullback,
    pushforward_data,
    restrict,
    solve_levi_reflection,
    tangency_residual,
    verify_reflection_base,
    verify_transport_recursion,
)
from crjet.series import CS_I, CScalar, TruncatedSeries
from tests.conftest import (
    HALF,
    compose_maps,
    dilation,
    heis,
    heisenberg_rho,
    identity_map,
    m2_rho,
    m3_rho,
    pullback_transport,
    random_nondegenerate_model,
    rotation,
    sigma,
    tau,
)
from tests.test_linalg import ref_series_solve
from tests.test_words import OrderedWords, load_workloads


def m3_auto(M):
    W = M.order
    return AmbientMap([CS_I * ambient_var(3, 0, W), -ambient_var(3, 1, W),
                       ambient_var(3, 2, W)], M, M)


def swap_c3(M):
    W = M.order
    return AmbientMap([ambient_var(3, 1, W), ambient_var(3, 0, W),
                       ambient_var(3, 2, W)], M, M)


def rotate_c3(M):
    # (z1, z2) -> (-z2, z1): unitary, with a non-symmetric gamma
    W = M.order
    return AmbientMap([-ambient_var(3, 1, W), ambient_var(3, 0, W),
                       ambient_var(3, 2, W)], M, M)


def shear(order):
    """(z, w) -> (z + w, w) from the quadric onto its image germ, whose
    eta is 1 at 0."""
    z, w = ambient_var(2, 0, order), ambient_var(2, 1, order)
    zb, wb = ambient_var(2, 2, order), ambient_var(2, 3, order)
    M = heis(2, order)
    image = from_defining(heisenberg_rho(2, order).compose(
        [z - w, w, zb - wb, wb]), 2)
    return AmbientMap([z + w, w], M, image)


def data_for(F):
    return pushforward_data(F, build_frame(F.source), build_frame(F.target))


def pull_for(data):
    return Pullback(data.source_frame, data.target_frame, data.imap)


class DirectPullback:
    """Oracle for Pullback: every target entry built along its own ordered
    word, and composed with the map again on every read."""

    def __init__(self, data):
        self.source_frame = data.source_frame
        self.imap = list(data.imap)
        self._target = OrderedWords(data.target_frame)

    def entry(self, abar, D):
        target = self._target
        raw = target.transverse(abar) if D == "T" else target.h(abar, D)
        return raw.compose(self.imap)


def dilation_pair(seed, N, order):
    """(z, w) -> (lam z, mu w) with seeded rational factors, from a seeded
    unit-Levi germ onto its image germ."""
    rng = random.Random(seed)
    Ms = random_nondegenerate_model(seed, N, order)
    scale = [Fraction(rng.randrange(1, 6), rng.randrange(1, 4))
             for _ in range(N)]
    inverse = [ambient_var(N, v, order) * (1 / scale[v % N])
               for v in range(2 * N)]
    # times mu, so the image germ keeps Im w as its transverse part
    Mt = from_defining(scale[-1] * Ms.rho.compose(inverse), N)
    return AmbientMap([scale[j] * ambient_var(N, j, order) for j in range(N)],
                      Ms, Mt)


class TestAmbientMap:
    def test_identity(self):
        M = heis(2)
        F = identity_map(M)
        assert F.base_point == ()
        assert F.components[0] == ambient_var(2, 0, M.order)

    def test_rejects_antiholomorphic_component(self):
        M = heis(2)
        with pytest.raises(MappingError):
            AmbientMap([ambient_var(2, 2, M.order),
                        ambient_var(2, 1, M.order)], M, M)

    def test_rejects_origin_image_off_target(self):
        M = heis(2)
        z, w = ambient_var(2, 0, M.order), ambient_var(2, 1, M.order)
        with pytest.raises(MappingError):
            AmbientMap([z + TruncatedSeries.constant(4, HALF, M.order), w],
                       M, M)

    def test_translation_normalizes_to_identity(self):
        M = heis(2)
        F = tau(M, HALF)
        assert F.base_point == (CScalar(HALF), CScalar(0, Fraction(1, 4)))
        assert F.target.rho == M.rho
        assert F.components[0] == ambient_var(2, 0, M.order)
        assert F.components[1] == ambient_var(2, 1, M.order)

    def test_translation_complex_parameter(self):
        M = heis(2)
        F = tau(M, CScalar(0, Fraction(1, 3)))
        assert F.base_point[0] == CScalar(0, Fraction(1, 3))
        assert tangency_residual(F).is_zero()

    def test_jacobian(self):
        M = heis(2)
        F = sigma(M, HALF)
        J = [[F.components[r].derive(c).constant_term() for c in range(2)]
             for r in range(2)]
        assert J[0][0] == CScalar(1) and J[0][1] == CScalar(HALF)
        assert J[1][0] == CScalar(0) and J[1][1] == CScalar(1)


class TestRestrict:
    def test_identity_chart(self):
        M = heis(2)
        imap = restrict(identity_map(M))
        for v, comp in enumerate(imap):
            assert comp == TruncatedSeries.variable(3, v, comp.order)

    def test_dilation_chart(self):
        M = heis(2)
        imap = restrict(dilation(M, 2))
        assert imap[0] == 2 * TruncatedSeries.variable(3, 0, imap[0].order)
        assert imap[2] == 4 * TruncatedSeries.variable(3, 2, imap[2].order)

    def test_exact_automorphisms_are_tangent(self):
        M = heis(2)
        for F in (rotation(M), tau(M, HALF), sigma(M, HALF),
                  sigma(M, CScalar(0, Fraction(1, 3)))):
            assert tangency_residual(F).is_zero()
        M3 = from_defining(m3_rho(8), 3)
        assert tangency_residual(m3_auto(M3)).is_zero()
        assert tangency_residual(swap_c3(heis(3))).is_zero()

    def test_nontangent_raises(self):
        M = heis(2)
        z, w = ambient_var(2, 0, M.order), ambient_var(2, 1, M.order)
        F = AmbientMap([z, w + z * z], M, M)
        assert not tangency_residual(F).is_zero()
        with pytest.raises(MappingError):
            restrict(F)


class TestPushforwardData:
    def test_identity_data(self):
        P = data_for(identity_map(heis(2)))
        assert P.xi == TruncatedSeries.constant(3, 1, P.xi.order)
        assert P.eta[0].is_zero()
        assert P.gamma[0][0] == TruncatedSeries.constant(
            3, 1, P.gamma[0][0].order)

    def test_dilation_data(self):
        P = data_for(dilation(heis(2), 2))
        assert P.xi == TruncatedSeries.constant(3, 4, P.xi.order)
        assert P.gamma[0][0] == TruncatedSeries.constant(
            3, 2, P.gamma[0][0].order)
        assert P.eta[0].is_zero()

    def test_contraction_data(self):
        P = data_for(dilation(heis(2), HALF))
        assert P.xi.constant_term() == CScalar(Fraction(1, 4))
        assert P.gamma[0][0].constant_term() == CScalar(HALF)

    def test_rotation_data(self):
        P = data_for(rotation(heis(2)))
        assert P.xi == TruncatedSeries.constant(3, 1, P.xi.order)
        assert P.gamma[0][0].constant_term() == CScalar(0, 1)

    def test_translation_data(self):
        P = data_for(tau(heis(2), HALF))
        assert P.xi == TruncatedSeries.constant(3, 1, P.xi.order)
        assert P.eta[0].is_zero()
        assert P.gamma[0][0] == TruncatedSeries.constant(
            3, 1, P.gamma[0][0].order)

    def test_drift_map_data(self):
        P = data_for(sigma(heis(2), HALF))
        assert P.xi.constant_term() == CScalar(1)
        assert P.gamma[0][0].constant_term() == CScalar(1)
        assert not P.eta[0].is_zero()
        assert P.eta[0].constant_term() == CScalar(HALF)

    def test_gamma_conjugated_once(self):
        rotated = data_for(rotate_c3(heis(3)))
        assert rotated.gamma[0][1] != rotated.gamma[1][0]
        for P in (data_for(sigma(heis(2), HALF)), rotated):
            pairing = tuple(list(range(P.n, 2 * P.n)) + list(range(P.n))
                            + [2 * P.n])
            assert P.gbar == tuple(
                tuple(g.conjugate(pairing) for g in row) for row in P.gamma)

    def test_collapsed_map_rejected(self):
        M = heis(2)
        zero = TruncatedSeries.zero(4, M.order)
        F = AmbientMap([zero, zero], M, M)
        with pytest.raises(MappingError):
            data_for(F)

    def test_block_relation_direct(self):
        # push the frame forward by differentiating the intrinsic components
        # and compare against the block matrix, read through the target
        # fields; independent of the coframe pairing used internally
        P = data_for(sigma(heis(2), HALF))
        Fs, Ft = P.source_frame, P.target_frame
        n = P.n
        pairing = tuple(list(range(n, 2 * n)) + list(range(n)) + [2 * n])

        def through(series):
            return series.compose(list(P.imap))

        for u in range(2 * n + 1):
            lhs = Fs.T.apply(P.imap[u])
            rhs = P.xi * through(Ft.T.coeffs[u])
            for A in range(n):
                rhs = rhs + P.eta[A] * through(Ft.L[A].coeffs[u])
                rhs = rhs + P.eta[A].conjugate(pairing) * \
                    through(Ft.Lbar[A].coeffs[u])
            assert lhs.agrees(rhs)
            for B in range(n):
                lhs = Fs.L[B].apply(P.imap[u])
                rhs = None
                for A in range(n):
                    term = P.gamma[A][B] * through(Ft.L[A].coeffs[u])
                    rhs = term if rhs is None else rhs + term
                assert lhs.agrees(rhs)


def sphere_maps(seed, order):
    """Seeded automorphisms of the C^2 quadric: a dilation, a rotation by
    a rational unit, a translation, a drift map, and compositions."""
    rng = random.Random(seed)

    def rational():
        return Fraction(rng.choice((-1, 1)) * rng.randrange(1, 5),
                        rng.randrange(1, 4))

    M = heis(2, order)
    a, b = rng.randrange(1, 4), rng.randrange(0, 4)
    unit = CScalar(Fraction(a * a - b * b, a * a + b * b),
                   Fraction(2 * a * b, a * a + b * b))
    maps = [dilation(M, rational()), rotation(M, unit),
            tau(M, CScalar(rational(), rational())),
            sigma(M, CScalar(rational(), rational()))]
    return maps + [compose_maps(maps[i], maps[j])
                   for i, j in ((0, 1), (1, 3), (3, 0), (2, 3))]


class TestAgainstPullbackOracle:
    """pushforward_data against the pulled-back coframe route, read one
    target form at a time (``tests.conftest.pullback_transport``)."""

    @staticmethod
    def assert_same(F, frame_src=None, frame_tgt=None):
        Fs = build_frame(F.source) if frame_src is None else frame_src
        Ft = build_frame(F.target) if frame_tgt is None else frame_tgt
        try:
            want = pullback_transport(F, Fs, Ft)
        except MappingError as exc:
            with pytest.raises(MappingError) as got:
                pushforward_data(F, Fs, Ft)
            assert str(got.value) == str(exc)
            return str(exc)
        P = pushforward_data(F, Fs, Ft)
        # TruncatedSeries equality compares the orders too
        assert (P.xi, P.eta, P.gamma) == want
        return None

    @pytest.mark.parametrize("seed", range(3))
    def test_sphere_maps(self, seed):
        for F in sphere_maps(seed, 6):
            assert self.assert_same(F) is None

    def test_two_variable_and_shear_maps(self):
        for F in (m3_auto(from_defining(m3_rho(6), 3)), swap_c3(heis(3, 6)),
                  rotate_c3(heis(3, 6)), shear(6)):
            assert self.assert_same(F) is None
        # the shear's eta does not vanish, so its eta is compared too
        assert data_for(shear(6)).eta[0].constant_term() == CScalar(1)

    @pytest.mark.parametrize("seed, N", [(0, 2), (1, 3)])
    def test_dilation_pairs(self, seed, N):
        assert self.assert_same(dilation_pair(seed, N, 5)) is None

    def test_refusals_match(self):
        M = heis(2, 6)
        z, w = ambient_var(2, 0, 6), ambient_var(2, 1, 6)
        zero = TruncatedSeries.zero(4, 6)
        Fs = build_frame(M)
        F = identity_map(M)
        # fields the pulled-back theta-hat does not kill, and fields it
        # kills that do not kill z'
        not_cr = Frame(1, Fs.T, Fs.L, [Fs.T], Fs.theta, Fs.thetaA,
                       Fs.thetaAbar)
        antiholo = Frame(1, Fs.T, Fs.L, Fs.L, Fs.theta, Fs.thetaA,
                         Fs.thetaAbar)
        quartic = from_defining(m2_rho(6), 2)
        squaring = AmbientMap([z * z, w], quartic, M)
        messages = [
            self.assert_same(AmbientMap([z, w + z * z], M, M)),
            self.assert_same(F, frame_src=not_cr),
            self.assert_same(F, frame_src=antiholo),
            self.assert_same(AmbientMap([zero, zero], M, M)),
            self.assert_same(squaring),
        ]
        assert messages == [
            "map does not send the source germ into the target "
            "(tangency residual is nonzero)",
            "pulled-back characteristic form is not proportional to the "
            "source one; the map is not CR",
            "pulled-back holomorphic coframe has an antiholomorphic "
            "component; the map is not CR",
            "transverse factor must be real and nonzero at 0",
            "map is not a diffeomorphism at 0 (CR Jacobian singular)",
        ]


def test_on_graph_is_built_once():
    F = sigma(heis(2, 6), HALF)
    g = F.on_graph()
    assert F.on_graph() is g
    assert restrict(F)[0] is g[0] and restrict(F)[1] is g[2]


def test_compositions_per_transport_pass(monkeypatch, tmp_path):
    # one pass of the seed-7 transport reflect calls: each map is
    # restricted to the source graph once, and the residual, the chart and
    # the transport data all read that restriction, where composing rho'
    # in ambient form and pulling back each target form cost 183
    calls = [c for c in load_workloads().build("transport", 7, tmp_path)
             if c.verb == "reflect"]
    assert calls
    count = [0]
    compose = TruncatedSeries.compose

    def counting(self, subs):
        count[0] += 1
        return compose(self, subs)

    monkeypatch.setattr(TruncatedSeries, "compose", counting)
    for call in calls:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(list(call.argv)) == 0, call.argv
    assert count[0] <= 171


class TestReflectionBase:
    def test_quadric_maps(self):
        M = heis(2)
        for F in (identity_map(M), dilation(M, 2), dilation(M, HALF),
                  rotation(M), tau(M, HALF), tau(M, CScalar(0, Fraction(1, 3))),
                  sigma(M, HALF)):
            P = data_for(F)
            rep = verify_reflection_base(P, pull_for(P))
            assert rep.ok and rep.checked == 5

    def test_two_variable_maps(self):
        for F in (swap_c3(heis(3)), rotate_c3(heis(3)),
                  m3_auto(from_defining(m3_rho(8), 3))):
            P = data_for(F)
            rep = verify_reflection_base(P, pull_for(P))
            assert rep.ok and rep.checked == 22


class TestTransportRecursion:
    def test_identity_low_orders(self):
        P = data_for(identity_map(heis(2)))
        for k in (0, 1):
            rep = verify_transport_recursion(P, pull_for(P), k)
            assert rep.ok and rep.checked == 2

    def test_quadric_maps_k1(self):
        M = heis(2)
        for F in (dilation(M, 2), tau(M, HALF), sigma(M, HALF)):
            P = data_for(F)
            rep = verify_transport_recursion(P, pull_for(P), 1)
            assert rep.ok

    def test_explicit_tensor_family(self):
        P = data_for(m3_auto(from_defining(m3_rho(8), 3)))
        pull = pull_for(P)
        rep = verify_transport_recursion(P, pull, 1)
        assert rep.ok and rep.checked == 12
        # one composed entry per sorted word, shared by the next level
        one, two = pull.entry((1,), 0), pull.entry((1, 0), "T")
        # sorted tuples only: 3 of length 2, each checked for n^2 + n rows
        rep = verify_transport_recursion(P, pull, 2)
        assert rep.ok and rep.checked == 18
        assert pull.entry((1,), 0) is one
        assert pull.entry((0, 1), "T") is two


class TestSharedPullback:
    @pytest.mark.parametrize("N", [2, 3])
    def test_matches_direct_composition(self, N):
        for seed in range(3):
            kmax = 1 + seed
            P = data_for(dilation_pair(seed, N, kmax + 4))
            pull, direct = pull_for(P), DirectPullback(P)
            reports = [verify_reflection_base(P, pull)]
            want = [verify_reflection_base(P, direct)]
            for k in range(1, kmax + 1):
                reports.append(verify_transport_recursion(P, pull, k))
                want.append(verify_transport_recursion(P, direct, k))
            assert reports == want
            assert all(rep.ok for rep in reports)
            assert solve_levi_reflection(P.xi, P.gbar, pull) == \
                solve_levi_reflection(P.xi, P.gbar, direct)


class TestSolveLeviReflection:
    def test_roundtrip_on_quadric_maps(self):
        M = heis(2)
        for F in (identity_map(M), dilation(M, 2), rotation(M),
                  tau(M, HALF), sigma(M, HALF)):
            P = data_for(F)
            gamma, eta = solve_levi_reflection(P.xi, P.gbar, pull_for(P))
            for A in range(P.n):
                assert eta[A].agrees(P.eta[A])
                for B in range(P.n):
                    assert gamma[A][B].agrees(P.gamma[A][B])

    def test_roundtrip_two_variables(self):
        P = data_for(swap_c3(heis(3)))
        gamma, eta = solve_levi_reflection(P.xi, P.gbar, pull_for(P))
        for A in range(P.n):
            assert eta[A].agrees(P.eta[A])
            for B in range(P.n):
                assert gamma[A][B].agrees(P.gamma[A][B])

    def test_degenerate_levi_rejected(self):
        M2 = from_defining(m2_rho(8), 2)
        P = data_for(identity_map(M2))
        with pytest.raises(MappingError):
            solve_levi_reflection(P.xi, P.gbar, pull_for(P))

    @pytest.mark.parametrize("N", [2, 3])
    def test_levi_systems_match_gauss_jordan(self, N, monkeypatch):
        systems, solve = [], mappings.series_solve

        def recording(rows, columns):
            systems.append((rows, columns))
            return solve(rows, columns)

        monkeypatch.setattr(mappings, "series_solve", recording)
        for kmax in (1, 2, 3):
            # the order reflect gives level kmax
            P = data_for(dilation_pair(kmax, N, 2 * (kmax + 2)))
            solve_levi_reflection(P.xi, P.gbar, pull_for(P))
        assert len(systems) == 3
        for rows, columns in systems:
            assert len(columns) == N
            for col, sol in zip(columns, solve(rows, columns)):
                assert sol == ref_series_solve(rows, col)

    def test_solve_work_on_a_c3_pair(self, monkeypatch):
        # the Levi solve of a seeded C^3 pair at the order of reflect
        # --kmax 6, once the base check has composed the entries it reads:
        # degree by degree it inverts nothing and makes 934 term pairs,
        # where Gauss-Jordan elimination inverted 2 pivots and made 253924
        P = data_for(dilation_pair(3, 3, 16))
        pull = pull_for(P)
        assert verify_reflection_base(P, pull).ok
        counts = {"invert_unit": 0, "pairs": 0}
        invert, mul_into = TruncatedSeries.invert_unit, series._mul_into

        def counting_invert(self):
            counts["invert_unit"] += 1
            return invert(self)

        def counting_mul_into(out, left, right, lim):
            left = list(left)
            counts["pairs"] += len(left) * len(right)
            return mul_into(out, left, right, lim)

        monkeypatch.setattr(TruncatedSeries, "invert_unit", counting_invert)
        monkeypatch.setattr(series, "_mul_into", counting_mul_into)
        gamma, eta = solve_levi_reflection(P.xi, P.gbar, pull)
        assert counts["invert_unit"] == 0
        assert 0 < counts["pairs"] <= 1000
        assert all(gamma[A][B].agrees(P.gamma[A][B]) and
                   eta[A].agrees(P.eta[A]) for A in range(2) for B in range(2))


class TestComposition:
    def cases(self):
        M = heis(2)
        return [
            (sigma(M, HALF), dilation(M, 2)),
            (dilation(M, HALF), sigma(M, HALF)),
            (rotation(M), tau(M, HALF)),
            (tau(M, CScalar(0, Fraction(1, 3))), rotation(M)),
        ]

    def test_chain_rule(self):
        for F, G in self.cases():
            PF, PG = data_for(F), data_for(G)
            PC = data_for(compose_maps(F, G))
            xi_expected = PF.xi.compose(list(PG.imap)) * PG.xi
            assert PC.xi.agrees(xi_expected)
            n = PC.n
            for A in range(n):
                for B in range(n):
                    want = None
                    for C in range(n):
                        term = PF.gamma[A][C].compose(list(PG.imap)) * \
                            PG.gamma[C][B]
                        want = term if want is None else want + term
                    assert PC.gamma[A][B].agrees(want)

    def test_middle_germ_mismatch(self):
        M, M3 = heis(2), from_defining(m3_rho(8), 3)
        with pytest.raises(MappingError):
            compose_maps(identity_map(M), m3_auto(M3))
