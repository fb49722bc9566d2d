from __future__ import annotations

import random
from fractions import Fraction

import pytest

from crjet.series import CS_I, CS_ONE, CScalar, OrderExhausted, SeriesError, TruncatedSeries


def rand_series(rng, nvars, order, terms=6, allow_const=True):
    coeffs = {}
    for _ in range(terms):
        alpha = [0] * nvars
        for _ in range(rng.randrange(0, order + 1)):
            alpha[rng.randrange(nvars)] += 1
        if sum(alpha) > order:
            continue
        if not allow_const and sum(alpha) == 0:
            continue
        c = CScalar(Fraction(rng.randrange(-5, 6), rng.randrange(1, 5)),
                    Fraction(rng.randrange(-5, 6), rng.randrange(1, 5)))
        coeffs[tuple(alpha)] = c
    return TruncatedSeries(nvars, order, coeffs)


class TestCScalar:
    def test_field_ops(self):
        a = CScalar(Fraction(1, 2), Fraction(-1, 3))
        b = CScalar(2, 5)
        assert (a * b) / b == a
        assert a + (-a) == CScalar(0)
        assert (CS_I * CS_I) == CScalar(-1)

    def test_conj_involution(self):
        a = CScalar(Fraction(3, 7), Fraction(2, 9))
        assert a.conj().conj() == a
        assert (a * a.conj()).im == 0

    def test_render_exact(self):
        assert CScalar(Fraction(-2, 3)).render() == "-2/3"
        assert CScalar(0, 1).render() == "1*i"
        assert CScalar(1, Fraction(-1, 2)).render() == "1-1/2*i"

    def test_hash_agrees_with_equality(self):
        for x in (1, Fraction(1, 2), Fraction(-7, 3), 0):
            assert CScalar(x) == x
            assert len({CScalar(x), x}) == 1
        assert len({CScalar(1, 1), CScalar(1, 1), 1}) == 2


class TestAdd:
    def test_cancellation(self):
        z = TruncatedSeries.variable(1, 0, 4)
        assert ((1 + z) + (1 - z)) == TruncatedSeries.constant(1, 2, 4)

    def test_identity(self):
        rng = random.Random(1)
        a = rand_series(rng, 2, 5)
        assert a + TruncatedSeries.zero(2, 5) == a

    def test_min_order_rule(self):
        a = TruncatedSeries.zero(1, 5)
        b = TruncatedSeries.zero(1, 3)
        assert (a + b).order == 3

    def test_nvars_mismatch(self):
        with pytest.raises(SeriesError):
            TruncatedSeries.zero(1, 3) + TruncatedSeries.zero(2, 3)


class TestMul:
    def test_difference_of_squares(self):
        z = TruncatedSeries.variable(1, 0, 3)
        assert ((1 + z) * (1 - z)) == TruncatedSeries(1, 3, {(0,): 1, (2,): -1})

    def test_identity(self):
        rng = random.Random(2)
        a = rand_series(rng, 3, 4)
        assert a * TruncatedSeries.constant(3, 1, 4) == a

    def test_truncation_drops_high_degree(self):
        z = TruncatedSeries.variable(1, 0, 3)
        prod = (z ** 2) * (z ** 2)
        assert prod.is_zero() and prod.order == 3


class TestDerive:
    def test_monomial(self):
        # d/dz (z^2 zb) = 2 z zb
        a = TruncatedSeries(2, 4, {(2, 1): 1})
        assert a.derive(0) == TruncatedSeries(2, 3, {(1, 1): 2})

    def test_constant(self):
        c = TruncatedSeries.constant(2, 7, 4)
        assert c.derive(1).is_zero()

    def test_order_bookkeeping(self):
        rng = random.Random(3)
        a = rand_series(rng, 2, 4)
        assert a.derive(0).order == 3

    def test_exhaustion(self):
        with pytest.raises(OrderExhausted):
            TruncatedSeries.constant(1, 1, 0).derive(0)


class TestConjugate:
    PAIRING = (1, 0)  # two variables z, zb

    def test_iz(self):
        z = TruncatedSeries.variable(2, 0, 3)
        zb = TruncatedSeries.variable(2, 1, 3)
        assert (CS_I * z).conjugate(self.PAIRING) == (-CS_I) * zb

    def test_fixed_real_variable(self):
        s = TruncatedSeries.variable(1, 0, 3)
        assert s.conjugate((0,)) == s

    def test_involution(self):
        rng = random.Random(4)
        a = rand_series(rng, 2, 5)
        assert a.conjugate(self.PAIRING).conjugate(self.PAIRING) == a

    def test_rejects_non_involution(self):
        with pytest.raises(SeriesError):
            TruncatedSeries.zero(3, 2).conjugate((1, 2, 0))


class TestCompose:
    def test_square_after_shift(self):
        z = TruncatedSeries.variable(1, 0, 3)
        a = z ** 2
        out = a.compose([z + z ** 2])
        assert out == TruncatedSeries(1, 3, {(2,): 1, (3,): 2})

    def test_identity_substitution(self):
        rng = random.Random(5)
        a = rand_series(rng, 2, 4)
        ident = [TruncatedSeries.variable(2, j, 4) for j in range(2)]
        assert a.compose(ident) == a

    def test_constant_term_survives(self):
        rng = random.Random(6)
        a = rand_series(rng, 2, 4)
        zero = [TruncatedSeries.zero(2, 4) for _ in range(2)]
        assert a.compose(zero).constant_term() == a.constant_term()

    def test_rejects_nonzero_constant_sub(self):
        z = TruncatedSeries.variable(1, 0, 3)
        with pytest.raises(SeriesError):
            (z ** 2).compose([1 + z])

    def test_can_change_variable_space(self):
        # substitute two-variable expressions into a one-variable series
        z = TruncatedSeries.variable(1, 0, 4)
        u = TruncatedSeries.variable(2, 0, 4)
        v = TruncatedSeries.variable(2, 1, 4)
        out = (z ** 2).compose([u + v])
        assert out == (u + v) ** 2


class TestInvertUnit:
    def test_geometric(self):
        z = TruncatedSeries.variable(1, 0, 2)
        assert (1 - z).invert_unit() == TruncatedSeries(1, 2, {(0,): 1, (1,): 1, (2,): 1})

    def test_one(self):
        one = TruncatedSeries.constant(3, 1, 5)
        assert one.invert_unit() == one

    def test_defining_property(self):
        rng = random.Random(7)
        for _ in range(10):
            a = rand_series(rng, 2, 5)
            if a.constant_term().is_zero():
                a = a + 3
            assert a * a.invert_unit() == TruncatedSeries.constant(2, 1, 5)

    def test_requires_unit(self):
        z = TruncatedSeries.variable(1, 0, 3)
        with pytest.raises(SeriesError):
            z.invert_unit()


class TestRecenter:
    def test_square_about_one(self):
        z = TruncatedSeries.variable(1, 0, 2)
        out = (z ** 2).recenter([1])
        assert out == TruncatedSeries(1, 2, {(0,): 1, (1,): 2, (2,): 1})

    def test_recenter_at_zero(self):
        rng = random.Random(8)
        a = rand_series(rng, 2, 4)
        assert a.recenter([0, 0]) == a

    def test_roundtrip(self):
        rng = random.Random(9)
        a = rand_series(rng, 2, 4)
        p = [CScalar(Fraction(1, 2), 1), CScalar(-2, Fraction(1, 3))]
        back = a.recenter(p).recenter([-x for x in p])
        assert back == a


class TestRingProperties:
    def test_ring_axioms(self):
        rng = random.Random(10)
        for _ in range(15):
            a = rand_series(rng, 2, 5)
            b = rand_series(rng, 2, 5)
            c = rand_series(rng, 2, 5)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    def test_leibniz(self):
        rng = random.Random(11)
        for _ in range(15):
            a = rand_series(rng, 3, 5)
            b = rand_series(rng, 3, 5)
            for v in range(3):
                lhs = (a * b).derive(v)
                rhs = a.derive(v) * b.truncate(4) + a.truncate(4) * b.derive(v)
                assert lhs == rhs

    def test_conjugate_is_ring_antiinvolution(self):
        rng = random.Random(12)
        pairing = (1, 0, 2)
        for _ in range(15):
            a = rand_series(rng, 3, 5)
            b = rand_series(rng, 3, 5)
            assert (a + b).conjugate(pairing) == a.conjugate(pairing) + b.conjugate(pairing)
            assert (a * b).conjugate(pairing) == a.conjugate(pairing) * b.conjugate(pairing)

    def test_compose_chains_associatively(self):
        rng = random.Random(13)
        for _ in range(10):
            a = rand_series(rng, 2, 5)
            mid = [rand_series(rng, 2, 5, allow_const=False) for _ in range(2)]
            inner = [rand_series(rng, 2, 5, allow_const=False) for _ in range(2)]
            left = a.compose(mid).compose(inner)
            right = a.compose([m.compose(inner) for m in mid])
            o = min(left.order, right.order)
            assert left.truncate(o) == right.truncate(o)
