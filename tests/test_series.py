from __future__ import annotations

import random
from fractions import Fraction
from math import ceil, log2

import pytest

from crjet.autdim import FormalVectorField
from crjet.hypersurface import VectorFieldOp
from crjet.series import (CS_I, CS_ONE, CS_ZERO, EXPONENT_LIMIT, CScalar,
                          OrderExhausted, SeriesError, TruncatedSeries,
                          check_involution, key_conjugation)


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


def to_str(s, names=None) -> str:
    """Human-readable sum of the stored terms in canonical order, unit
    coefficients dropped."""
    if s.is_zero():
        return "0"
    names = names or [f"x{i}" for i in range(s.nvars)]
    parts = []
    for a, c in s.terms():
        factors = []
        for j, e in enumerate(a):
            if e == 1:
                factors.append(names[j])
            elif e > 1:
                factors.append(f"{names[j]}^{e}")
        head = c.render()
        if factors and head == "1":
            parts.append("*".join(factors))
        elif factors and head == "-1":
            parts.append("-" + "*".join(factors))
        else:
            if factors and (head.startswith("-") or c.re and c.im):
                head = f"({head})"
            parts.append("*".join([head] + factors))
    return " + ".join(parts).replace("+ -", "- ")


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


class TestSupport:
    def test_degree_counts(self):
        s = TruncatedSeries(2, 4, {(0, 0): 3, (1, 0): CS_I, (0, 1): -1,
                                   (2, 1): Fraction(1, 2)})
        assert s.degree_counts() == [1, 2, 0, 1, 0]
        assert TruncatedSeries.zero(2, 1).degree_counts() == [0, 0]


class TestAgrees:
    def test_compares_up_to_the_lower_order(self):
        z = TruncatedSeries.variable(1, 0, 5)
        low = (1 + z).truncate(2)
        high = 1 + z + z ** 4
        assert low != high
        assert low.agrees(high) and high.agrees(low)
        assert not low.agrees(1 + 2 * z)
        assert not (1 + z).agrees(1 + z + z ** 4)


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
        with pytest.raises(SeriesError):
            key_conjugation((1, 2, 0))

    def test_key_conjugation_matches_series_conjugation(self):
        # graph charts (z_1..z_n, zb_1..zb_n, s) of C^2 to C^4: the key of
        # each numerator pair maps to the key the conjugate series stores
        # the conjugate pair under
        rng = random.Random(7)
        for n in (1, 2, 3):
            pairing = tuple(range(n, 2 * n)) + tuple(range(n)) + (2 * n,)
            conjugate = key_conjugation(pairing)
            for _ in range(10):
                a = rand_series(rng, 2 * n + 1, 6, terms=12)
                den, items = a.numerators()
                cden, citems = a.conjugate(pairing).numerators()
                assert cden == den
                assert dict(citems) == {conjugate(k): (re, -im)
                                        for k, (re, im) in items}


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

    def test_sparse_unit_costs_one_product_per_present_degree(self,
                                                              monkeypatch):
        # a unit with terms in k degrees is inverted at order W in at most
        # W * k partial products, and equals its closed-form geometric
        # series: 1 / (2 - z) = sum z^d / 2^(d+1), and
        # 1 / ((1 - z)(1 - w^2)) = sum z^i w^(2j)
        import crjet.series as series
        calls = []
        inner = series._mul_into

        def counted(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(series, "_mul_into", counted)
        W = 300
        z = TruncatedSeries.variable(1, 0, W)
        got = (2 - z).invert_unit()
        assert len(calls) <= W * 1
        assert got == TruncatedSeries(1, W, {(d,): Fraction(1, 2 ** (d + 1))
                                             for d in range(W + 1)})
        calls.clear()
        W = 40
        z, w = (TruncatedSeries.variable(2, v, W) for v in range(2))
        got = ((1 - z) * (1 - w * w)).invert_unit()
        assert len(calls) <= W * 3
        assert got == TruncatedSeries(2, W, {
            (i, 2 * j): 1 for i in range(W + 1)
            for j in range((W - i) // 2 + 1)})


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


class TestToStr:
    def test_complex_coefficients_are_parenthesized(self):
        s = TruncatedSeries(2, 3, {
            (0, 0): CScalar(Fraction(-1, 2), 1),
            (1, 0): CScalar(-3),
            (0, 1): CScalar(Fraction(1, 2), Fraction(1, 3)),
            (1, 1): CScalar(Fraction(241, 180), Fraction(-227, 180)),
            (2, 0): CScalar(0, -1),
            (0, 2): CScalar(0, 2)})
        assert to_str(s) == ("-1/2+1*i + (1/2+1/3*i)*x1 + (-3)*x0 + "
                              "2*i*x1^2 + (241/180-227/180*i)*x0*x1 + "
                              "(-1*i)*x0^2")

    def test_unit_coefficients_are_dropped(self):
        z = TruncatedSeries.variable(2, 0, 2)
        w = TruncatedSeries.variable(2, 1, 2)
        assert to_str(z * w - z + 2 * w, ["z", "w"]) == "2*w - z + z*w"


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


# ----------------------------------------------------------------------
# differential oracle: the dict-of-CScalar kernel the packed one replaced


class RefSeries:
    """Reference kernel: exponent tuple -> CScalar, no zeros stored.

    This is the series kernel as it was before the packed representation,
    cut down to what the differential test calls.  It is slow and plainly
    correct, and the packed TruncatedSeries must agree with it exactly.
    """

    def __init__(self, nvars, order, coeffs=None):
        self.nvars, self.order = nvars, order
        self.coeffs = {}
        for alpha, c in (coeffs or {}).items():
            assert len(alpha) == nvars and sum(alpha) <= order
            c = CScalar.coerce(c)
            if not c.is_zero():
                self.coeffs[tuple(alpha)] = c

    @classmethod
    def constant(cls, nvars, value, order):
        return cls(nvars, order, {(0,) * nvars: value})

    def constant_term(self):
        return self.coeffs.get((0,) * self.nvars, CS_ZERO)

    def terms(self):
        return sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def homogeneous_part(self, d):
        return RefSeries(self.nvars, self.order,
                         {a: c for a, c in self.coeffs.items() if sum(a) == d})

    def truncate(self, order):
        if order >= self.order:
            return self
        return RefSeries(self.nvars, order, {
            a: c for a, c in self.coeffs.items() if sum(a) <= order})

    def extended(self, order):
        if order <= self.order:
            return self.truncate(order)
        return RefSeries(self.nvars, order, self.coeffs)

    def __add__(self, other):
        if not isinstance(other, RefSeries):
            other = RefSeries.constant(self.nvars, other, self.order)
        order = min(self.order, other.order)
        out = {a: c for a, c in self.coeffs.items() if sum(a) <= order}
        for a, c in other.coeffs.items():
            if sum(a) <= order:
                out[a] = out.get(a, CS_ZERO) + c
        return RefSeries(self.nvars, order, out)

    def __neg__(self):
        return RefSeries(self.nvars, self.order,
                         {a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, RefSeries):
            other = RefSeries.constant(self.nvars, other, self.order)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RefSeries):
            c = CScalar.coerce(other)
            return RefSeries(self.nvars, self.order,
                             {a: c * v for a, v in self.coeffs.items()})
        order = min(self.order, other.order)
        out = {}
        for a, ca in self.coeffs.items():
            for b, cb in other.coeffs.items():
                if sum(a) + sum(b) <= order:
                    g = tuple(x + y for x, y in zip(a, b))
                    out[g] = out.get(g, CS_ZERO) + ca * cb
        return RefSeries(self.nvars, order, out)

    def __pow__(self, k):
        result = RefSeries.constant(self.nvars, 1, self.order)
        for _ in range(k):
            result = result * self
        return result

    def derive(self, var):
        out = {}
        for a, c in self.coeffs.items():
            if a[var]:
                out[a[:var] + (a[var] - 1,) + a[var + 1:]] = c * a[var]
        return RefSeries(self.nvars, self.order - 1, out)

    def conjugate(self, pairing):
        return RefSeries(self.nvars, self.order, {
            tuple(a[pairing[i]] for i in range(self.nvars)): c.conj()
            for a, c in self.coeffs.items()})

    def compose(self, subs):
        order = self.order
        for j, s in enumerate(subs):
            if any(a[j] for a in self.coeffs):
                order = min(order, s.order)
        m = subs[0].nvars
        result = RefSeries(m, order)
        for a, c in self.terms():
            term = RefSeries.constant(m, c, order)
            for j, e in enumerate(a):
                if e:
                    term = term * subs[j].truncate(order) ** e
            result = result + term
        return result

    def invert_unit(self):
        inv = RefSeries.constant(self.nvars, CS_ONE / self.constant_term(),
                                 self.order)
        # Newton updates double the correct order each step.
        for _ in range(ceil(log2(self.order + 1)) if self.order else 0):
            inv = inv * (RefSeries.constant(self.nvars, 2, self.order)
                         - self * inv)
        return inv


DENOMINATORS = (1, 1, 1, 2, 3, 4, 6, 9)


def ref_coeff(rng):
    re = Fraction(rng.randrange(-3, 4), rng.choice(DENOMINATORS))
    im = 0
    if rng.random() < 0.6:
        im = Fraction(rng.randrange(-3, 4), rng.choice(DENOMINATORS))
    return CScalar(re, im)


def ref_series(rng, nvars, order, terms, lowdeg=0):
    """Random reference series; low degrees so that terms collide."""
    coeffs = {}
    if order >= lowdeg:
        for _ in range(terms):
            alpha = [0] * nvars
            for _ in range(rng.randrange(lowdeg, min(order, lowdeg + 3) + 1)):
                alpha[rng.randrange(nvars)] += 1
            coeffs[tuple(alpha)] = ref_coeff(rng)
    return RefSeries(nvars, order, coeffs)


def packed(ref):
    return TruncatedSeries(ref.nvars, ref.order, ref.coeffs)


def random_pairing(rng, nvars):
    free = list(range(nvars))
    rng.shuffle(free)
    pairing = list(range(nvars))
    while len(free) >= 2 and rng.random() < 0.8:
        i, j = free.pop(), free.pop()
        pairing[i], pairing[j] = j, i
    return check_involution(pairing)


class TestAgainstReferenceKernel:
    def assert_agree(self, got, want, what):
        assert got.order == want.order, what
        assert got.terms() == want.terms(), what
        # equal storage, so the denominator was reduced to the least one
        assert got == packed(want), what

    def test_random_series(self):
        rng = random.Random(20240601)
        ops = 0
        for trial in range(1500):
            nvars = rng.randrange(1, 8)
            order = rng.randrange(0, 9)
            terms = rng.randrange(0, 7)
            ra = ref_series(rng, nvars, order, terms)
            rb = ref_series(rng, nvars, rng.randrange(0, 9), terms)
            if ra.coeffs and rng.random() < 0.5:
                # forced cancellation: b repeats part of a with the
                # opposite sign, or a multiple of it with a new denominator
                part = RefSeries(nvars, rb.order, {
                    a: c for a, c in ra.coeffs.items()
                    if sum(a) <= rb.order and rng.random() < 0.7})
                rb = rb - part if rng.random() < 0.5 else \
                    part * Fraction(rng.randrange(1, 4), rng.randrange(1, 5))
            a, b = packed(ra), packed(rb)
            checks = [
                ("add", a + b, ra + rb),
                ("sub", a - b, ra - rb),
                ("sub self", a - a, ra - ra),
                ("neg", -a, -ra),
                ("mul", a * b, ra * rb),
                # the cross terms cancel inside one product
                ("mul cancel", (a + b) * (a - b), (ra + rb) * (ra - rb)),
                ("add scalar", a + 2, ra + 2),
                ("rsub scalar", 1 - a, RefSeries.constant(nvars, 1, order) - ra),
            ]
            for c in (0, 2, Fraction(-3, 4), ref_coeff(rng), CScalar(0, 6)):
                checks.append(("scale", a * c, ra * c))
                checks.append(("rscale", c * a, ra * c))
            k = rng.randrange(0, 4)
            checks.append(("pow", a ** k, ra ** k))
            if order:
                var = rng.randrange(nvars)
                checks.append(("derive", a.derive(var), ra.derive(var)))
            pairing = random_pairing(rng, nvars)
            checks.append(("conjugate", a.conjugate(pairing),
                           ra.conjugate(pairing)))
            cut = rng.randrange(0, order + 2)
            checks.append(("truncate", a.truncate(cut), ra.truncate(cut)))
            checks.append(("extended", a.extended(cut + 2),
                           ra.extended(cut + 2)))
            d = rng.randrange(0, order + 1)
            checks.append(("homogeneous", a.homogeneous_part(d),
                           ra.homogeneous_part(d)))
            c0 = ref_coeff(rng)
            if not (ra.constant_term() + c0).is_zero() and nvars * order <= 24:
                ru = ra + c0
                checks.append(("invert", packed(ru).invert_unit(),
                               ru.invert_unit()))
            if nvars * order <= 24:
                m = rng.randrange(1, 8)
                rsubs = [ref_series(rng, m, rng.randrange(order, order + 3)
                                    if rng.random() < 0.8 else
                                    rng.randrange(0, order + 1), 3, lowdeg=1)
                         for _ in range(nvars)]
                checks.append(("compose", a.compose([packed(s) for s in rsubs]),
                               ra.compose(rsubs)))
            for what, got, want in checks:
                self.assert_agree(got, want, (trial, what))
                ops += 1
        assert ops > 25000

    @staticmethod
    def ref_field(rng, nvars, reach):
        """Reference coefficients of a random field on nvars variables,
        zero, unit or random, living on the first reach variables, cut to
        their common order as a field cuts them."""
        order = rng.randrange(0, 7)
        coeffs = []
        for _ in range(reach):
            roll = rng.random()
            if roll < 0.3:
                c = RefSeries(nvars, order)
            elif roll < 0.45:
                c = RefSeries.constant(nvars, 1, order)
            else:
                c = ref_series(rng, reach, order, rng.randrange(1, 4))
                c = RefSeries(nvars, order, {
                    a + (0,) * (nvars - reach): v for a, v in c.coeffs.items()})
            coeffs.append(c)
        low = min(c.order for c in coeffs)
        return [c.truncate(low) for c in coeffs]

    @staticmethod
    def ref_apply(coeffs, nvars, f):
        """sum_v c_v * d f / d x_v over every coefficient, zeros included."""
        out = RefSeries(nvars, min(coeffs[0].order, f.order - 1))
        for v, c in enumerate(coeffs):
            out = out + c * f.derive(v)
        return out

    def test_field_application(self):
        rng = random.Random(20260601)
        zero_inputs = applied = 0
        for trial in range(600):
            nvars = rng.randrange(1, 7)
            coeffs = self.ref_field(rng, nvars, nvars)
            X = VectorFieldOp([packed(c) for c in coeffs])
            assert X.slots == tuple((v, packed(c)) for v, c in
                                    enumerate(coeffs) if c.coeffs)
            rf = ref_series(rng, nvars, rng.randrange(1, 9),
                            rng.choice((0, 0, 2, 5)))
            zero_inputs += not rf.coeffs
            self.assert_agree(X.apply(packed(rf)),
                              self.ref_apply(coeffs, nvars, rf),
                              (trial, "field"))
            # a holomorphic field on the ambient chart of C^N
            N = rng.randrange(1, 4)
            hcoeffs = self.ref_field(rng, 2 * N, N)
            Y = FormalVectorField([packed(c) for c in hcoeffs])
            rg = ref_series(rng, 2 * N, rng.randrange(1, 9),
                            rng.choice((0, 2, 5)))
            zero_inputs += not rg.coeffs
            self.assert_agree(Y.apply(packed(rg)),
                              self.ref_apply(hcoeffs, 2 * N, rg),
                              (trial, "formal field"))
            applied += 2
        assert applied == 1200 and zero_inputs > 100

    def test_field_application_errors(self):
        x, y = (TruncatedSeries.variable(2, v, 3) for v in range(2))
        fields = (VectorFieldOp([x, y]), VectorFieldOp([x * 0, y * 0]),
                  FormalVectorField([1 + x]))
        for X in fields:
            for f in (TruncatedSeries.constant(2, 5, 0),
                      TruncatedSeries.zero(2, 0)):
                with pytest.raises(OrderExhausted, match="^cannot "
                                   "differentiate an order-0 series$"):
                    X.apply(f)
            for f in (TruncatedSeries.variable(3, 0, 3),
                      TruncatedSeries.zero(3, 3)):
                with pytest.raises(SeriesError, match="^2 coefficients for "
                                   "a series in 3 variables$"):
                    X.apply(f)

    def test_zero_series_agree_by_nvars(self):
        assert TruncatedSeries.zero(2, 0).agrees(TruncatedSeries.zero(2, 5))
        assert not TruncatedSeries.zero(2, 3).agrees(
            TruncatedSeries.zero(3, 3))
        assert not TruncatedSeries.zero(3, 1).agrees(
            TruncatedSeries.zero(2, 4))

    def test_exponent_limit(self):
        top = TruncatedSeries(1, EXPONENT_LIMIT, {(EXPONENT_LIMIT,): 1})
        assert [e for e, _ in top.terms()] == [(EXPONENT_LIMIT,)]
        assert (top * TruncatedSeries.variable(1, 0, EXPONENT_LIMIT)).is_zero()
        with pytest.raises(SeriesError, match=f"exponent limit {EXPONENT_LIMIT}"):
            TruncatedSeries.zero(2, EXPONENT_LIMIT + 1)
        with pytest.raises(SeriesError, match="exponent limit"):
            top.extended(EXPONENT_LIMIT + 1)
