"""Differential tests of the packed sum-of-products, translation and
constructor kernels.

The oracles below are the code paths the kernels replaced: the
per-coefficient loop of ``VectorFieldOp.apply``, the running sum of
products that ``dot`` stands for, the ``CScalar`` term-by-term
``recenter`` and ``eval_at``, and ``variable`` built from its exponent
tuple through the constructor.  On seeded random series the kernels must
give the same storage (nvars, order, denominator and packed terms) and
raise the same exceptions.  ``numerators`` must read back the terms that
``terms()`` gives.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest

from crjet.hypersurface import VectorFieldOp
from crjet.series import (CS_ONE, CS_ZERO, EXPONENT_LIMIT, CScalar,
                          OrderExhausted, SeriesError, TruncatedSeries, dot)
from tests.test_series import packed, ref_coeff, ref_series


def oracle_apply(X, f):
    """sum_v c_v * d f / d x_v, one derivative, product and sum at a time."""
    if f.order < 1:
        raise OrderExhausted("cannot differentiate an order-0 series")
    out = TruncatedSeries.zero(X.nvars, min(X.order, f.order - 1))
    for v, c in enumerate(X.coeffs):
        if not c.is_zero():
            out = out + c * f.derive(v)
    return out


def oracle_dot(pairs, order=None, nvars=None):
    """The running sum of products that dot replaces."""
    out = None if order is None else TruncatedSeries.zero(nvars, order)
    for a, b in pairs:
        out = a * b if out is None else out + a * b
    if out is None:
        raise SeriesError("a dot product of no pairs needs nvars and order")
    return out


def oracle_variable(nvars, idx, order):
    """x_idx through the constructor, from its exponent tuple."""
    if not 0 <= idx < nvars:
        raise SeriesError(f"variable index {idx} out of range")
    alpha = tuple(1 if i == idx else 0 for i in range(nvars))
    return TruncatedSeries(nvars, order, {alpha: CS_ONE})


def oracle_recenter(s, point):
    """Binomial expansion of every term over CScalar coefficients."""
    point = [CScalar.coerce(p) for p in point]
    if len(point) != s.nvars:
        raise SeriesError("point length must equal nvars")
    out = {}
    for a, c in s.terms():
        expansion = {(0,) * s.nvars: c}
        for j, e in enumerate(a):
            if e == 0:
                continue
            p = point[j]
            nxt = {}
            powers = [CS_ONE]
            for _ in range(e):
                powers.append(powers[-1] * p)
            for b, cb in expansion.items():
                for k in range(e + 1):
                    w = cb * comb(e, k) * powers[e - k]
                    if w.is_zero():
                        continue
                    g = b[:j] + (k,) + b[j + 1:]
                    acc = nxt.get(g, CS_ZERO) + w
                    if acc.is_zero():
                        nxt.pop(g, None)
                    else:
                        nxt[g] = acc
            expansion = nxt
        for g, w in expansion.items():
            acc = out.get(g, CS_ZERO) + w
            if acc.is_zero():
                out.pop(g, None)
            else:
                out[g] = acc
    return TruncatedSeries(s.nvars, s.order, out)


def oracle_eval_at(s, point):
    point = [CScalar.coerce(p) for p in point]
    if len(point) != s.nvars:
        raise SeriesError("point length must equal nvars")
    total = CS_ZERO
    for a, c in s.terms():
        v = c
        for j, e in enumerate(a):
            for _ in range(e):
                v = v * point[j]
        total = total + v
    return total


def storage(s):
    return (s.nvars, s.order, s._den, s._terms)


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        got = fn(*args)
    except (SeriesError, TypeError) as exc:
        return type(exc), str(exc)
    if isinstance(got, TruncatedSeries):
        return storage(got)
    return got.re, got.im


def random_series(rng, nvars, order, zero_chance=0.15):
    """Mixed denominators, complex coefficients, sometimes the zero series,
    sometimes a real multiple of another random series."""
    if rng.random() < zero_chance:
        return TruncatedSeries.zero(nvars, order)
    s = packed(ref_series(rng, nvars, order, rng.randrange(1, 7)))
    if rng.random() < 0.3:
        s = s * Fraction(rng.randrange(1, 5), rng.randrange(1, 8))
    return s


def random_point(rng, nvars):
    kinds = ("zero", "real", "complex")
    point = []
    for _ in range(nvars):
        kind = rng.choice(kinds)
        if kind == "zero":
            point.append(0)
        elif kind == "real":
            point.append(Fraction(rng.randrange(-4, 5), rng.randrange(1, 6)))
        else:
            point.append(ref_coeff(rng) + CScalar(0, rng.randrange(1, 3)))
    return point


class TestDot:
    def test_matches_running_sum(self):
        rng = random.Random(90101)
        for trial in range(400):
            nvars = rng.randrange(1, 6)
            pairs = []
            for _ in range(rng.randrange(1, 6)):
                # unequal orders inside a pair and across pairs
                pairs.append((random_series(rng, nvars, rng.randrange(0, 7)),
                              random_series(rng, nvars, rng.randrange(0, 7))))
            if rng.random() < 0.3:
                # a pair that cancels an earlier product exactly
                a, b = rng.choice(pairs)
                pairs.append((-a, b))
            order = rng.choice((None, rng.randrange(0, 8)))
            assert outcome(dot, pairs, order, nvars) == \
                outcome(oracle_dot, pairs, order, nvars), trial
            assert outcome(dot, iter(pairs)) == \
                outcome(oracle_dot, pairs), trial

    def test_order_counts_zero_factors(self):
        x = TruncatedSeries.variable(2, 0, 6)
        zero = TruncatedSeries.zero(2, 1)
        got = dot([(x, x), (zero, x)])
        assert got.order == 1
        assert storage(got) == storage(oracle_dot([(x, x), (zero, x)]))

    def test_empty(self):
        got = dot([], 3, 2)
        assert storage(got) == storage(TruncatedSeries.zero(2, 3))
        assert storage(got) == storage(oracle_dot([], 3, 2))
        with pytest.raises(SeriesError, match="no pairs"):
            dot([])

    def test_rejects_mixed_variable_spaces(self):
        x = TruncatedSeries.variable(2, 0, 3)
        y = TruncatedSeries.variable(3, 0, 3)
        with pytest.raises(SeriesError, match="nvars mismatch"):
            dot([(x, y)])
        with pytest.raises(SeriesError, match="nvars mismatch"):
            dot([(x, x)], nvars=3)


class TestApply:
    def test_matches_per_coefficient_loop(self):
        rng = random.Random(90102)
        orders_seen = set()
        for trial in range(400):
            nvars = rng.randrange(1, 6)
            X = VectorFieldOp([random_series(rng, nvars, rng.randrange(0, 7),
                                             zero_chance=0.4)
                               for _ in range(nvars)])
            f = random_series(rng, nvars, rng.randrange(0, 8))
            orders_seen.add(f.order)
            assert outcome(X.apply, f) == outcome(oracle_apply, X, f), trial
        assert 0 in orders_seen

    def test_order_zero_raises(self):
        X = VectorFieldOp([TruncatedSeries.variable(2, 0, 3)] * 2)
        f = TruncatedSeries.constant(2, 5, 0)
        with pytest.raises(OrderExhausted):
            X.apply(f)
        assert outcome(X.apply, f) == outcome(oracle_apply, X, f)

    def test_bracket_matches_oracle(self):
        rng = random.Random(90103)
        for trial in range(100):
            nvars = rng.randrange(1, 5)
            X, Y = (VectorFieldOp([random_series(rng, nvars,
                                                 rng.randrange(1, 6))
                                   for _ in range(nvars)]) for _ in range(2))
            want = [oracle_apply(X, Y.coeffs[v]) - oracle_apply(Y, X.coeffs[v])
                    for v in range(nvars)]
            got = X.bracket(Y)
            assert [storage(c) for c in got.coeffs] == \
                [storage(c.truncate(got.order)) for c in want], trial


class TestTranslation:
    def test_matches_cscalar_expansion(self):
        rng = random.Random(90104)
        kinds = set()
        for trial in range(300):
            nvars = rng.randrange(1, 5)
            s = random_series(rng, nvars, rng.randrange(0, 6))
            point = random_point(rng, nvars)
            kinds.update(type(p).__name__ for p in point)
            assert outcome(s.recenter, point) == \
                outcome(oracle_recenter, s, point), trial
            assert outcome(s.eval_at, point) == \
                outcome(oracle_eval_at, s, point), trial
        assert kinds == {"int", "Fraction", "CScalar"}

    def test_all_zero_and_all_complex_points(self):
        rng = random.Random(90105)
        for trial in range(50):
            nvars = rng.randrange(1, 4)
            s = random_series(rng, nvars, rng.randrange(1, 6), zero_chance=0)
            for point in ([0] * nvars,
                          [CScalar(Fraction(1, 2), -1)] * nvars):
                assert outcome(s.recenter, point) == \
                    outcome(oracle_recenter, s, point), trial
                assert outcome(s.eval_at, point) == \
                    outcome(oracle_eval_at, s, point), trial

    def test_bad_points_raise_alike(self):
        s = TruncatedSeries.variable(2, 1, 3)
        for point in ([1], [1, 2, 3], [1, "x"]):
            for new, old in ((s.recenter, oracle_recenter),
                             (s.eval_at, oracle_eval_at)):
                got = outcome(new, point)
                assert got == outcome(old, s, point)
                assert got[0] in (SeriesError, TypeError)


class TestVariable:
    def test_matches_constructor(self):
        for nvars in range(1, 8):
            for idx in range(-1, nvars + 1):
                for order in list(range(-1, 13)) + [EXPONENT_LIMIT,
                                                   EXPONENT_LIMIT + 1]:
                    got = outcome(TruncatedSeries.variable, nvars, idx, order)
                    assert got == outcome(oracle_variable, nvars, idx,
                                          order), (nvars, idx, order)

    def test_order_zero_raises(self):
        with pytest.raises(OrderExhausted) as exc:
            TruncatedSeries.variable(3, 1, 0)
        assert str(exc.value) == "stored term (0, 1, 0) exceeds order 0"


class TestNumerators:
    def test_reads_back_the_terms(self):
        rng = random.Random(4411)
        for trial in range(200):
            nvars = rng.randrange(1, 6)
            s = random_series(rng, nvars, rng.randrange(0, 7))
            den, items = s.numerators()
            got = [(Fraction(re, den), Fraction(im, den))
                   for _, (re, im) in sorted(items)]
            # distinct monomials, keys sorted as the exponent tuples are
            assert got == [(c.re, c.im) for _, c in sorted(s.terms())], trial
            assert len({k for k, _ in items}) == len(items)
