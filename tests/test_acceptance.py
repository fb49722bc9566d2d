"""Acceptance gate: ten criteria, one test per criterion.

A verbose run prints exactly one pass/fail line per criterion.  Exact
claims compare rational scalars and truncated series by equality; the
numeric integrator claims use the stated tolerances and nothing looser.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import crjet
from crjet.autdim import aut_bound, infinitesimal_aut_dim
from crjet.hypersurface import build_frame, from_defining
from crjet.invariants import (extrinsic_k0, intrinsic_filtration,
                              is_finite, verify_bracket_pairing,
                              verify_derivative_recursion,
                              verify_frame_structure,
                              verify_leading_order_reduction)
from crjet.jets import CompleteSystem, JetVector, integrate
from crjet.mappings import (Pullback, pushforward_data,
                            solve_levi_reflection, tangency_residual,
                            verify_reflection_base,
                            verify_transport_recursion)
from crjet.operators import CertificateMemo, operator_certificates
from crjet.series import CScalar, TruncatedSeries
from tests.conftest import (compose_maps, dilation, heis, identity_map, im_w,
                            m2_rho, m3_rho, max_deviation, random_model,
                            random_nondegenerate_model, rotation, sigma, tau,
                            unit_exponent)


def test_criterion_01_quadric_invariants_exact():
    # Im w = |z|^2 in ambient dimensions 2 and 3: nondegenerate at the
    # first step by both the gradient-span and filtration routes
    for N in (2, 3):
        M = heis(N, 8)
        filt = intrinsic_filtration(build_frame(M), kmax=2)
        assert filt.k0 == 1
        assert extrinsic_k0(M.rho, 2) == 1
        assert filt.ell0 == 1 and filt.ell1 == 1
        assert filt.m0 == 2
        assert filt.levi_rank == N - 1


def test_criterion_02_cubic_model_filtration_exact():
    M = from_defining(m3_rho(8), 3)
    filt = intrinsic_filtration(build_frame(M), kmax=3)
    assert filt.k0 == 2
    assert extrinsic_k0(M.rho, 3) == 2
    assert filt.Ek_dims[1] == 2
    assert filt.Ek_dims[2] == 3


def test_criterion_03_quartic_model_unbounded_markers():
    # finite type can hold while both first-nonvanishing lengths stay
    # unbounded; the markers must carry their search bounds, not sentinels
    M = from_defining(m2_rho(10), 2)
    filt = intrinsic_filtration(build_frame(M), kmax=6)
    assert not is_finite(filt.k0) and filt.k0.bound == 6
    assert not is_finite(extrinsic_k0(M.rho, 6))
    assert not is_finite(filt.ell0) and not is_finite(filt.ell1)
    assert filt.ell0 == filt.ell1
    assert filt.m0 == 4


def test_criterion_04_identity_suites_zero_residual():
    models = [heis(2, 6), heis(3, 6), from_defining(m2_rho(6), 2),
              from_defining(m3_rho(6), 3)]
    for seed in range(5):
        models.append(random_nondegenerate_model(seed, 2, 6))
        models.append(random_nondegenerate_model(100 + seed, 3, 6))
        models.append(random_model(200 + seed, 2, 6))
        models.append(random_model(300 + seed, 3, 6))
    assert len(models) == 24
    for M in models:
        F = build_frame(M)
        recursion = verify_derivative_recursion(F, 2)
        filt = intrinsic_filtration(F)
        leading = verify_leading_order_reduction(F, filt)
        pairing = verify_bracket_pairing(F, filt)
        structure = verify_frame_structure(F)
        for rep in (recursion, leading, pairing, structure):
            assert rep.ok, (M, rep.name, rep.violations[:3])
        assert not recursion.vacuous and not structure.vacuous


def test_criterion_05_reflection_suite_exact():
    H = heis(2, 6)
    maps = [tau(H, Fraction(1, 2)), tau(H, CScalar(0, Fraction(1, 3))),
            dilation(H, 2), dilation(H, Fraction(1, 2)),
            rotation(H), rotation(H, CScalar(Fraction(3, 5), Fraction(4, 5))),
            compose_maps(dilation(H, 2), tau(H, Fraction(1, 2))),
            compose_maps(rotation(H), dilation(H, Fraction(1, 2)))]
    for F in maps:
        Fs, Ft = build_frame(F.source), build_frame(F.target)
        data = pushforward_data(F, Fs, Ft)
        pull = Pullback(Fs, Ft, data.imap)
        base = verify_reflection_base(data, pull)
        assert base.ok and not base.vacuous
        for k in (1, 2):
            rep = verify_transport_recursion(data, pull, k)
            assert rep.ok, (F, k, rep.violations[:3])
        gamma, eta = solve_levi_reflection(data.conjugated(), pull)
        n = data.n
        for C in range(n):
            assert eta[C].agrees(data.eta[C])
            for B in range(n):
                assert gamma[C][B].agrees(data.gamma[C][B])


def test_criterion_06_operator_certificates_exact():
    F = build_frame(heis(2, 8))
    for m in (2, 3):
        certs = operator_certificates(CertificateMemo(F), m, verify_degree=5)
        assert certs
        assert all(c.verified for c in certs)


def test_criterion_07_integrator_closed_forms():
    # f' = f from f(0) = 1 on [0, 1]
    growth = CompleteSystem(1, 1, 0, {
        (0, (1,)): TruncatedSeries(2, 1, {(1, 0): CScalar(1)})})
    one_jet = JetVector(1, 1, 0, {(0, (0,)): Fraction(1)})
    grid = [[Fraction(k, 4) for k in range(5)]]
    step = Fraction(1, 10000)
    res = integrate(growth, one_jet, grid, step)
    assert max_deviation(res, lambda c: (math.exp(c[0]),)) <= 1e-8

    # f'' = 0 from f(0) = 1, f'(0) = 2: the line 1 + 2x
    line = CompleteSystem(1, 1, 1, {(0, (2,)): TruncatedSeries.zero(3, 1)})
    line_jet = JetVector(1, 1, 1, {(0, (0,)): Fraction(1),
                                   (0, (1,)): Fraction(2)})
    res = integrate(line, line_jet, grid, step)
    assert max_deviation(res, lambda c: (1 + 2 * c[0],)) <= 1e-8

    # d1 f = f, d2 f = 2 f: exp(x1 + 2 x2) on the unit square
    g = TruncatedSeries(3, 1, {(1, 0, 0): CScalar(1)})
    plane = CompleteSystem(2, 1, 0, {(0, (1, 0)): g,
                                     (0, (0, 1)): CScalar(2) * g})
    plane_jet = JetVector(2, 1, 0, {(0, (0, 0)): Fraction(1)})
    grid2 = [[Fraction(0), Fraction(1, 2), Fraction(1)]] * 2
    forward = integrate(plane, plane_jet, grid2, step)
    assert max_deviation(forward,
                         lambda c: (math.exp(c[0] + 2 * c[1]),)) <= 1e-8

    # uniqueness: the same 0-jet marched along the other axis order
    # lands on the same grid values
    swapped = integrate(plane, plane_jet, grid2, step, axis_order=(1, 0))
    for key, vals in forward.values.items():
        for a, b in zip(vals, swapped.values[key]):
            assert abs(a - b) <= 1e-8

    # observed convergence order under step halving
    errs = []
    for denom in (50, 100):
        r = integrate(growth, one_jet, [[Fraction(1)]], Fraction(1, denom))
        errs.append(max_deviation(r, lambda c: (math.exp(c[0]),)))
    order = math.log2(errs[0] / errs[1])
    assert 3.8 <= order <= 4.2


def test_criterion_08_two_jet_injectivity():
    H = heis(2, 8)
    family = [identity_map(H), dilation(H, 2), dilation(H, Fraction(1, 2)),
              dilation(H, 3), rotation(H),
              rotation(H, CScalar(Fraction(3, 5), Fraction(4, 5))),
              sigma(H, 1), sigma(H, CScalar(0, 1)),
              compose_maps(dilation(H, 2), rotation(H)),
              compose_maps(sigma(H, 1), dilation(H, 2))]
    assert len(family) == 10
    for F in family:
        assert tangency_residual(F).is_zero()

    jets = [tuple(c.truncate(2) for c in F.components) for F in family]
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            assert jets[i] != jets[j]

    # equal 2-jets force agreement of the full truncation: build the same
    # automorphism along different composition routes
    pairs = [
        (compose_maps(dilation(H, 2), dilation(H, 3)), dilation(H, 6)),
        (compose_maps(rotation(H), rotation(H)), rotation(H, CScalar(-1, 0))),
        (compose_maps(sigma(H, 1), sigma(H, -1)), identity_map(H)),
    ]
    for F, G in pairs:
        two_f = [c.truncate(2) for c in F.components]
        two_g = [c.truncate(2) for c in G.components]
        assert two_f == two_g
        full_f = [c.truncate(8) for c in F.components]
        full_g = [c.truncate(8) for c in G.components]
        assert full_f == full_g


def test_criterion_09_symmetry_dimension_bound():
    assert aut_bound(2) == 30
    assert aut_bound(3) == 630

    quadric = infinitesimal_aut_dim(heis(2, 9), 2, 8, (1, 2))
    assert quadric.solution_dim == 8
    assert quadric.solution_dim <= aut_bound(2)

    # Im w = |z1|^2 in ambient dimension 3 never involves z2, so tangent
    # fields keep appearing as the coefficient degree grows
    rho = im_w(3, 5) - (TruncatedSeries(6, 5, {unit_exponent(6, 0): 1})
                        * TruncatedSeries(6, 5, {unit_exponent(6, 3): 1}))
    degenerate = from_defining(rho, 3)
    dims = [infinitesimal_aut_dim(degenerate, d, 4).solution_dim
            for d in (1, 2, 3)]
    assert dims[0] < dims[1] < dims[2]


def test_criterion_10_reports_byte_identical(tmp_path):
    doc = tmp_path / "quadric.crj"
    doc.write_text("kind = hypersurface\nN = 2\nrho = Im(w) - z1*conj(z1)\n",
                   encoding="utf-8")
    src = str(Path(crjet.__file__).resolve().parent.parent)
    commands = (["analyze", str(doc), "--kmax", "2"],
                ["aut", str(doc), "--json"])
    outputs = {tuple(argv): [] for argv in commands}
    # vary the hash seed across runs; report assembly is single-threaded
    # and fully ordered, so the bytes may not depend on it
    for seed in ("0", "1"):
        env = {k: v for k, v in os.environ.items() if k != "CRJET_ORDER"}
        env["PYTHONHASHSEED"] = seed
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        for argv in commands:
            proc = subprocess.run([sys.executable, "-m", "crjet.cli", *argv],
                                  capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs[tuple(argv)].append(proc.stdout)
    for runs in outputs.values():
        assert runs[0] == runs[1]
