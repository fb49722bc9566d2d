"""Differential tests of the per-frame word engine, ``Frame.words``.

The oracle below is the ordered route the engine replaced: chains keyed by
the ordered word, never sorted, and every bracket word rebuilt from L_D.
On seeded germs, adapted frames and a frame whose L fields do not commute,
the engine must give the same forms, series and fields for every ordered
word, sorted or not.
"""

from __future__ import annotations

import itertools

import pytest

from crjet.hypersurface import (Frame, VectorFieldOp, build_frame,
                                exterior_derivative, from_defining)
from crjet.invariants import intrinsic_filtration, verify_frame_structure
from crjet.series import OrderExhausted, TruncatedSeries
from tests.conftest import (adapt_frame, heis, heisenberg_rho,
                            kernel_bases, m3_rho, random_model,
                            random_nondegenerate_model, scaled)


class OrderedWords:
    """Oracle for ``Frame.words``: chains memoized by the ordered word, and
    brackets rebuilt from L_D on every read."""

    def __init__(self, F):
        self.F = F
        self._chains = {(): F.theta}

    def chain(self, abar):
        abar = tuple(abar)
        if abar not in self._chains:
            if len(abar) > self.F.order:
                raise OrderExhausted(
                    f"length {len(abar)} exceeds frame order {self.F.order}")
            self._chains[abar] = exterior_derivative(
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
        assert F.words.chain(abar) == oracle.chain(abar), abar
        assert F.words.transverse(abar) == oracle.transverse(abar), abar
        for D in range(F.n):
            assert F.words.h(abar, D) == oracle.h(abar, D), (abar, D)
            assert F.words.bracket(abar, D) == oracle.bracket(abar, D), \
                (abar, D)


def test_entries_are_built_once():
    F = build_frame(random_model(730, 3, 6))
    words = F.words
    assert words.chain((1, 0)) is words.chain((0, 1))
    assert words.h((1, 0, 1), 0) is words.h((0, 1, 1), 0)
    assert words.transverse((1, 0)) is words.transverse((0, 1))
    assert words.bracket((0, 1), 1) is words.bracket((0, 1), 1)
    assert words.chain(()) is F.theta
    assert words.bracket((), 1) is F.L[1]


def test_mixed_brackets_built_once_per_frame(monkeypatch):
    # the frame-structure suite and the filtration's ell1 scan both read
    # [Lbar_A, L_B]; the frame's words build each of them once
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


def test_word_longer_than_frame_order():
    F = build_frame(from_defining(heisenberg_rho(3, 3), 3))
    assert F.order == 2
    F.words.h((0, 1), 0)
    for read in (lambda w: w.chain((0, 1, 0)),
                 lambda w: w.h((1, 1, 1), 0),
                 lambda w: w.transverse((0, 0, 0)),
                 lambda w: w.bracket((1, 0, 1), 0)):
        with pytest.raises(OrderExhausted,
                           match="^length 3 exceeds frame order 2$"):
            read(F.words)
