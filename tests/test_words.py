"""Differential tests of the frame's word engine: ``Frame.chain``,
``Frame.dchain``, ``Frame.h``, ``Frame.transverse`` and ``Frame.bracket``.

The oracle below is the ordered route the engine replaced: chains keyed by
the ordered word, never sorted, and every bracket word rebuilt from L_D.
On seeded germs, adapted frames and a frame whose L fields do not commute,
the engine must give the same forms, series and fields for every ordered
word, sorted or not.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import itertools
import sys
from pathlib import Path

import pytest

from crjet.hypersurface import (Frame, TwoFormEvaluator, VectorFieldOp,
                                build_frame, from_defining)
from crjet.cli.main import main
from crjet.invariants import (intrinsic_filtration,
                              verify_derivative_recursion,
                              verify_frame_structure)
from crjet import series
from crjet.series import OrderExhausted, TruncatedSeries
from tests.conftest import (adapt_frame, heis, heisenberg_rho,
                            kernel_bases, m3_rho, random_model,
                            random_nondegenerate_model, scaled)


class OrderedWords:
    """Oracle for the frame's word engine: chains memoized by the ordered
    word, and brackets rebuilt from L_D on every read."""

    def __init__(self, F):
        self.F = F
        self._chains = {(): F.theta}

    def chain(self, abar):
        abar = tuple(abar)
        if abar not in self._chains:
            if len(abar) > self.F.order:
                raise OrderExhausted(
                    f"length {len(abar)} exceeds frame order {self.F.order}")
            self._chains[abar] = TwoFormEvaluator(
                self.chain(abar[:-1])).contract(self.F.Lbar[abar[-1]])
        return self._chains[abar]

    def h(self, abar, D):
        return self.chain(abar).pair(self.F.L[D])

    def transverse(self, abar):
        return self.chain(abar).pair(self.F.T)

    def bracket(self, abar, D):
        acc = self.F.L[D]
        for a in abar:
            acc = self.F.Lbar[a].bracket(acc)
        return acc


def twisted(F):
    """F with L_1 rescaled by 1 + z_2, so that the L fields do not commute;
    the Lbar fields are untouched and still commute."""
    z2 = TruncatedSeries.variable(2 * F.n + 1, 1, F.order)
    L = (scaled(F.L[0], 1 + z2),) + F.L[1:]
    return Frame(F.n, F.T, L, F.Lbar, F.theta, F.thetaA, F.thetaAbar)


def seeded_frames():
    """Frames of seeded germs on C^2, C^3 and C^4, their adapted frames
    and, where n > 1, their twisted frames, each as a pytest parameter."""
    out = []
    for N, order, seeds in ((2, 6, (700, 701)), (3, 6, (710, 711)),
                            (4, 5, (720, 721))):
        for maker in (random_model, random_nondegenerate_model):
            for seed in seeds:
                M = maker(seed, N, order)
                F = build_frame(M)
                label = f"{maker.__name__}-{seed}-C{N}"
                out.append(pytest.param(F, id=label))
                G = adapt_frame(F, kernel_bases(F, kmax=2))
                out.append(pytest.param(G, id=label + "-adapted"))
                if N > 2:
                    out.append(pytest.param(twisted(F), id=label + "-twisted"))
    M = from_defining(m3_rho(6), 3)
    F = build_frame(M)
    G = adapt_frame(F, kernel_bases(F))
    out.append(pytest.param(G, id="m3-adapted"))
    return out


FRAMES = seeded_frames()


@pytest.mark.parametrize("F", FRAMES)
def test_lbar_fields_commute(F):
    # the precondition under which chains and brackets are symmetric
    for a in range(F.n):
        for b in range(F.n):
            assert F.Lbar[a].bracket(F.Lbar[b]).is_zero()


@pytest.mark.parametrize("F", FRAMES)
def test_engine_matches_ordered_oracle(F):
    # every ordered word up to length 3, sorted or not
    oracle = OrderedWords(F)
    for abar in itertools.chain.from_iterable(
            itertools.product(range(F.n), repeat=k) for k in range(4)):
        assert F.chain(abar) == oracle.chain(abar), abar
        assert F.transverse(abar) == oracle.transverse(abar), abar
        for D in range(F.n):
            assert F.h(abar, D) == oracle.h(abar, D), (abar, D)
            assert F.bracket(abar, D) == oracle.bracket(abar, D), \
                (abar, D)


def test_entries_are_built_once():
    F = build_frame(random_model(730, 3, 6))
    assert F.chain((1, 0)) is F.chain((0, 1))
    assert F.dchain((1, 0)) is F.dchain((0, 1))
    assert F.h((1, 0, 1), 0) is F.h((0, 1, 1), 0)
    assert F.transverse((1, 0)) is F.transverse((0, 1))
    assert F.bracket((0, 1), 1) is F.bracket((0, 1), 1)
    assert F.chain(()) is F.theta
    assert F.bracket((), 1) is F.L[1]


def test_mixed_brackets_built_once_per_frame(monkeypatch):
    # the frame-structure suite and the filtration's ell1 scan both read
    # [Lbar_A, L_B]; the frame builds each of them once
    F = build_frame(heis(3, 6))
    built = []
    bracket = VectorFieldOp.bracket

    def counting(self, other):
        for A, X in enumerate(F.Lbar):
            for B, Y in enumerate(F.L):
                if self is X and other is Y:
                    built.append((A, B))
        return bracket(self, other)

    monkeypatch.setattr(VectorFieldOp, "bracket", counting)
    assert verify_frame_structure(F).ok
    intrinsic_filtration(F)
    assert sorted(built) == [(A, B) for A in range(F.n) for B in range(F.n)]


def count_two_forms(monkeypatch) -> list:
    """The one-forms every later TwoFormEvaluator is built from."""
    built = []
    init = TwoFormEvaluator.__init__

    def counting(self, omega):
        built.append(omega)
        init(self, omega)

    monkeypatch.setattr(TwoFormEvaluator, "__init__", counting)
    return built


def test_one_two_form_per_chain_prefix(monkeypatch):
    # every extension of a sorted word reads the one two-form of the word,
    # and the frame-structure suite's d theta is the two-form of ()
    F = build_frame(random_nondegenerate_model(731, 3, 6))
    built = count_two_forms(monkeypatch)
    intrinsic_filtration(F)
    assert verify_frame_structure(F).ok
    assert verify_derivative_recursion(F, 2).ok
    chains = [omega for omega in built
              if not any(omega is form for form in F.thetaA)]
    prefixes = [F.chain(abar) for k in range(3)
                for abar in itertools.combinations_with_replacement(
                    range(F.n), k)]
    assert sorted(map(id, chains)) == sorted(map(id, prefixes))
    # both suites share the frame's one two-form per coordinate form
    # theta^A
    assert len(built) - len(chains) == F.n


def load_workloads():
    """The benchmark's workload module, read from perfbench/; its
    dataclasses need it registered in sys.modules."""
    name = "crjet_bench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "perfbench" / \
            "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


@pytest.mark.parametrize("workload, most", [
    ("invariants", 62), ("transport", 28), ("symmetry", 0)])
def test_two_forms_per_benchmark_pass(monkeypatch, tmp_path, workload,
                                      most):
    # one pass of each benchmark workload at seed 7: every frame builds
    # one two-form per chain prefix it extends and one per coordinate
    # form theta^A, where rebuilding the prefix's two-form for every
    # extension cost 98 and 36, and the coordinate forms' two-forms once
    # per suite 74 on invariants
    calls = load_workloads().build(workload, 7, tmp_path)
    built = count_two_forms(monkeypatch)
    for call in calls:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(list(call.argv)) == 0, call.argv
    assert len(built) <= most


def test_series_kernel_calls_per_invariants_pass(monkeypatch, tmp_path):
    # one invariants pass at seed 7: a field applied to the zero series
    # builds no product, and each operator-certificate memo inverts its
    # Levi pivot once, where the per-application products cost 5451
    # sums of products and the per-pivot inverses 158 inversions; every
    # germ of the pass is affine in Im w, so its graph takes one Newton
    # step, and the scan solves no graph, where the doubling schedule and
    # the per-point graphs cost 36 more inversions; extrinsic_k0 builds
    # polynomial fields from rho's derivatives, where inverting rho_wb
    # for each germ and scan point cost 24 more
    calls = load_workloads().build("invariants", 7, tmp_path)
    counts = {"invert_unit": 0, "_sum_of_products": 0}
    invert, sums = TruncatedSeries.invert_unit, series._sum_of_products

    def counting_invert(self):
        counts["invert_unit"] += 1
        return invert(self)

    def counting_sums(*args):
        counts["_sum_of_products"] += 1
        return sums(*args)

    monkeypatch.setattr(TruncatedSeries, "invert_unit", counting_invert)
    monkeypatch.setattr(series, "_sum_of_products", counting_sums)
    for call in calls:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(list(call.argv)) == 0, call.argv
    assert 0 < counts["invert_unit"] <= 51
    assert 0 < counts["_sum_of_products"] <= 3345


@pytest.mark.parametrize("workload, most", [
    ("invariants", 69), ("symmetry", 67), ("transport", 164)])
def test_compositions_per_pass(monkeypatch, tmp_path, workload, most):
    # one seed-7 pass of each workload: an affine germ composes once for
    # its one Newton step, the identity linear change composes nothing,
    # and a scan point none, since extrinsic_k0 reads rho in any
    # coordinates, where the doubling schedule, the per-point graphs and
    # the identity composed anyway made 161, 95 and 204 compositions, and
    # the per-point linear changes 76 on invariants
    calls = load_workloads().build(workload, 7, tmp_path)
    count = [0]
    compose = TruncatedSeries.compose

    def counting_compose(self, subs):
        count[0] += 1
        return compose(self, subs)

    monkeypatch.setattr(TruncatedSeries, "compose", counting_compose)
    for call in calls:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(list(call.argv)) == 0, call.argv
    assert 0 < count[0] <= most


def test_word_longer_than_frame_order():
    F = build_frame(from_defining(heisenberg_rho(3, 3), 3))
    assert F.order == 2
    F.h((0, 1), 0)
    for read in (lambda w: w.chain((0, 1, 0)),
                 lambda w: w.h((1, 1, 1), 0),
                 lambda w: w.transverse((0, 0, 0)),
                 lambda w: w.bracket((1, 0, 1), 0)):
        with pytest.raises(OrderExhausted,
                           match="^length 3 exceeds frame order 2$"):
            read(F)
