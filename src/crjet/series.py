"""Exact complex-rational truncated multivariate power series.

Every symbolic computation in this package runs on :class:`TruncatedSeries`.
A series knows how many variables it lives in, the total degree up to which
its coefficients are meaningful (``order``), and its nonzero terms.  Terms
of total degree above ``order`` are unknown, not zero; each operation
returns the weakest order it can guarantee, so precision loss is always
explicit.

Terms are stored packed, in the sparse representation of Johnson ("Sparse
polynomial arithmetic", 1974) with the packed monomials of Monagan and
Pearce (ISSAC 2009).  A monomial x^alpha is one integer key: one 16-bit
field per exponent, alpha_0 most significant, under a top field that holds
the total degree.  Adding two keys multiplies the monomials, comparing keys
gives the canonical (degree, lex) order of ``terms()``, and "total degree
at most d" is the comparison ``key < (d + 1) << 16 * nvars``.  Coefficients
are Gaussian-integer numerators (re, im) over one positive denominator per
series, the least one, so equal series have equal storage.  No order above
``EXPONENT_LIMIT`` (65535, the largest exponent a field holds) is accepted,
and asking for more raises :class:`SeriesError`: every stored exponent is at
most the order, so a product term that passes the degree cut never carries
from one field into the next.

:class:`CScalar` and exponent tuples stay the public boundary: the
constructor, ``coeff``, ``terms`` and the printers convert, while every
ring and calculus operation works on the packed form.

Sums of products have one kernel, the multiply-accumulate of Monagan and
Pearce ("Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007).  :func:`dot` computes sum a * b over a
list of series pairs: every product goes into one dict of packed keys,
over the least common denominator of the products, and the result is
reduced once.  Its order is the least of the orders of every pair (a
pair with a zero factor counts too) and of an explicit ``order``, which
is the order the running sum ``out = out + a * b`` gives, so the result
is that sum, stored identically.  :func:`derivation` is the one kernel
that applies a vector field: it takes the field's nonzero (variable,
coefficient) slots, which the field stores once when it is built, and
feeds the same accumulator sum_v c_v * d f / d x_v over those slots
alone, reading each derivative straight from f's keys.  Its order is the
least of the field's order and f.order - 1, and a zero f costs no
product.  ``VectorFieldOp.apply`` and ``FormalVectorField.apply`` are
this sum.

``recenter`` and ``eval_at`` work on the packed numerators too.  They
translate one variable at a time: with p_j = g / q and E the largest
exponent of x_j, each power x_j^e becomes the binomial expansion of
(x_j + p_j)^e, all over the one denominator q^E.  ``eval_at`` keeps only
the degree-0 part of each expansion, and a zero coordinate costs nothing.

Linear systems A X = B with series entries and A(0) invertible have one
solver, :func:`series_solve`.  It inverts the constant matrix A(0) once,
exactly, and then runs the matrix form of the ``invert_unit`` recurrence
over Gaussian-integer numerators, X_d = A(0)^-1 (B_d - sum_j A_j X_(d-j))
over the degrees j present in A, so its work follows the size of the
solution, where Gauss-Jordan elimination multiplied whole rows by dense
pivot inverses.  Each solution column has the least order of A's entries
and of that column's; a singular A(0), a system that is not square or a
column of the wrong length raises :class:`SeriesError`.

Example:

    >>> z = TruncatedSeries.variable(1, 0, order=3)
    >>> (1 + z) * (1 - z)
    TruncatedSeries(1, 3, {(0,): '1', (2,): '-1'})
    >>> (1 + z).invert_unit()
    TruncatedSeries(1, 3, {(0,): '1', (1,): '-1', (2,): '1', (3,): '-1'})
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm


class SeriesError(ValueError):
    """Contract violation in a series operation."""


class OrderExhausted(SeriesError):
    """An operation needed more truncation order than its input carries."""


class CScalar:
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("CScalar is immutable")

    @staticmethod
    def coerce(x) -> "CScalar":
        if isinstance(x, CScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return CScalar(x)
        raise TypeError(f"cannot interpret {type(x).__name__} as CScalar")

    def __add__(self, other):
        if not isinstance(other, (int, Fraction, CScalar)):
            return NotImplemented
        other = CScalar.coerce(other)
        return CScalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return CScalar(-self.re, -self.im)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, CScalar)):
            return NotImplemented
        return self + (-CScalar.coerce(other))

    def __rsub__(self, other):
        return CScalar.coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction, CScalar)):
            return NotImplemented
        other = CScalar.coerce(other)
        return CScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = CScalar.coerce(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero CScalar")
        return CScalar(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return CScalar.coerce(other) / self

    def conj(self) -> "CScalar":
        return CScalar(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|x|^2 as an exact rational; ranks candidates by size where the
        choice matters (series pivots, the transverse coordinate)."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CScalar)):
            other = CScalar.coerce(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        # a real value hashes like the int or Fraction it equals
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return f"CScalar({self.re})"
        return f"CScalar({self.re}, {self.im})"

    def render(self) -> str:
        """Canonical exact string: 'p/q', 'p/q*i', or 'p/q+r/s*i'."""
        if self.im == 0:
            return str(self.re)
        imag = f"{self.im}*i"
        if self.re == 0:
            return imag
        sep = "+" if self.im > 0 else ""
        return f"{self.re}{sep}{imag}"


CS_ZERO = CScalar(0)
CS_ONE = CScalar(1)
CS_I = CScalar(0, 1)


@dataclass(frozen=True)
class Unbounded:
    """Explicit no-witness-up-to-bound marker; never a sentinel integer."""

    bound_name: str
    bound: int

    def __str__(self):
        return f"inf@{self.bound_name}={self.bound}"


def check_involution(pairing) -> tuple:
    pairing = tuple(pairing)
    n = len(pairing)
    if sorted(pairing) != list(range(n)) or any(pairing[pairing[i]] != i for i in range(n)):
        raise SeriesError("pairing is not an involution of variable indices")
    return pairing


# ---------------------------------------------------------------------------
# packed layout: helpers of the series kernel

_BITS = 16
_MASK = (1 << _BITS) - 1
EXPONENT_LIMIT = _MASK
_new = object.__new__
_set = object.__setattr__


def _pack(alpha) -> int:
    """Key of the monomial with exponent tuple alpha."""
    key = degree = 0
    for e in alpha:
        key = (key << _BITS) | e
        degree += e
    return (degree << (_BITS * len(alpha))) | key


def _unpack(key: int, nvars: int) -> tuple:
    alpha = [0] * nvars
    for j in range(nvars - 1, -1, -1):
        alpha[j] = key & _MASK
        key >>= _BITS
    return tuple(alpha)


def _conjugation_moves(pairing) -> list:
    """(source shift, mask, destination shift) per run of consecutive
    variables that pairing moves together: variable i takes the exponent
    of pairing[i], and a run moves as one bit block."""
    n = len(pairing)
    moves = []
    i = 0
    while i < n:
        j = i + 1
        while j < n and pairing[j] == pairing[j - 1] + 1:
            j += 1
        width = _BITS * (j - i)
        moves.append((_BITS * (n - pairing[i]) - width, (1 << width) - 1,
                      _BITS * (n - i) - width))
        i = j
    return moves


def key_conjugation(pairing):
    """The map from the key of a monomial, as ``numerators`` gives it, to
    the key of its conjugate under the involution pairing: variable i
    takes the exponent of variable pairing[i]."""
    moves = _conjugation_moves(check_involution(pairing))

    def conjugate(key: int) -> int:
        out = 0
        for src, mask, dst in moves:
            out |= ((key >> src) & mask) << dst
        return out

    return conjugate


def _check_order(order: int):
    if order < 0:
        raise SeriesError("order must be non-negative")
    if order > EXPONENT_LIMIT:
        raise SeriesError(
            f"order {order} exceeds the series exponent limit "
            f"{EXPONENT_LIMIT} (one {_BITS}-bit field per exponent)")


def _split(c: CScalar) -> tuple:
    """(re, im, den) with c = (re + im*i) / den and den least."""
    re, im = c.re, c.im
    den = lcm(re.denominator, im.denominator)
    return (re.numerator * (den // re.denominator),
            im.numerator * (den // im.denominator), den)


def _scalar(re: int, im: int, den: int) -> CScalar:
    c = _new(CScalar)
    _set(c, "re", Fraction(re, den))
    _set(c, "im", Fraction(im, den))
    return c


def _make(nvars, order, terms, den) -> "TruncatedSeries":
    """Series from canonical packed data, unchecked."""
    s = _new(TruncatedSeries)
    _set(s, "nvars", nvars)
    _set(s, "order", order)
    _set(s, "_terms", terms)
    _set(s, "_den", den)
    return s


def _reduced(nvars, order, terms, den) -> "TruncatedSeries":
    """Series from nonzero numerator pairs over any positive denominator."""
    if den != 1:
        g = den
        for re, im in terms.values():
            g = gcd(g, re, im)
            if g == 1:
                break
        if g != 1:
            den //= g
            terms = {k: (re // g, im // g) for k, (re, im) in terms.items()}
    return _make(nvars, order, terms, den)


def _combine(a, b, sign) -> "TruncatedSeries":
    """a + sign * b at the smaller of their orders."""
    order = min(a.order, b.order)
    if not b._terms:
        return a.truncate(order)
    if not a._terms:
        return (b if sign > 0 else -b).truncate(order)
    lim = (order + 1) << (_BITS * a.nvars)
    g = gcd(a._den, b._den)
    fa, fb = b._den // g, sign * (a._den // g)
    if fa == 1 and a.order == order:
        out = dict(a._terms)
    else:
        out = {k: (re * fa, im * fa)
               for k, (re, im) in a._terms.items() if k < lim}
    get = out.get
    for k, (re, im) in b._terms.items():
        if k >= lim:
            continue
        re *= fb
        im *= fb
        old = get(k)
        if old is not None:
            re += old[0]
            im += old[1]
            if not (re or im):
                del out[k]
                continue
        out[k] = (re, im)
    return _reduced(a.nvars, order, out, a._den // g * b._den)


def _mul_into(out, left, right, lim):
    """Add every product of a left and a right term with key below lim.

    left and right hold (key, (re, im)) items, right re-iterable; out maps
    keys to numerator pairs and is left without (0, 0) entries.
    """
    get = out.get
    for ka, (ar, ai) in left:
        room = lim - ka
        for kb, (br, bi) in right:
            if kb >= room:
                continue
            k = ka + kb
            re = ar * br - ai * bi
            im = ar * bi + ai * br
            old = get(k)
            if old is not None:
                re += old[0]
                im += old[1]
                if not (re or im):
                    del out[k]
                    continue
            out[k] = (re, im)


def _product(a, b) -> "TruncatedSeries":
    """a * b at the smaller of their orders."""
    order = min(a.order, b.order)
    out = {}
    _mul_into(out, a._terms.items(), b._terms.items(),
              (order + 1) << (_BITS * a.nvars))
    return _reduced(a.nvars, order, out, a._den * b._den)


def _sum_of_products(nvars, order, parts) -> "TruncatedSeries":
    """Sum of the products a * b, as one series at this order.

    parts holds (a_items, a_den, b_items, b_den): the packed items and the
    denominator of each nonzero factor.  Every product is accumulated into
    one dict over the least common denominator of the products, and the
    result is reduced once.
    """
    den = lcm(*(ad * bd for _, ad, _, bd in parts))
    lim = (order + 1) << (_BITS * nvars)
    out = {}
    for a_items, ad, b_items, bd in parts:
        f = den // (ad * bd)
        if f != 1:
            a_items = [(k, (re * f, im * f)) for k, (re, im) in a_items
                       if k < lim]
        _mul_into(out, a_items, b_items, lim)
    return _reduced(nvars, order, out, den)


def dot(pairs, order=None, nvars=None) -> "TruncatedSeries":
    """Sum of a * b over the (a, b) pairs of series.

    The result's order is the least of the orders of every pair, zero
    factors included, and of order when it is given; it equals the sum
    that adding the products one by one would give.  nvars and order are
    needed when pairs is empty.
    """
    pairs = list(pairs)
    for a, b in pairs:
        if nvars is None:
            nvars = a.nvars
        if a.nvars != nvars or b.nvars != nvars:
            raise SeriesError(f"nvars mismatch: {a.nvars} and {b.nvars} "
                              f"in a dot product over {nvars}")
        low = min(a.order, b.order)
        if order is None or low < order:
            order = low
    if order is None or nvars is None:
        raise SeriesError("a dot product of no pairs needs nvars and order")
    _check_order(order)
    return _sum_of_products(nvars, order, [
        (a._terms.items(), a._den, b._terms.items(), b._den)
        for a, b in pairs if a._terms and b._terms])


def derivation(slots, nvars, order, f) -> "TruncatedSeries":
    """Sum of c * (d f / d x_v) over the (v, c) slots of a field.

    The field acts on series in nvars variables, its coefficients have
    this order, and slots lists its nonzero coefficients c with their
    variables v.  The result's order is the least of order and
    f.order - 1.  A zero f gives the zero series at that order without a
    product; otherwise each slot's derivative is fed to the accumulator
    from f's packed keys, and no derivative or product series is built.
    """
    if f.order < 1:
        raise OrderExhausted("cannot differentiate an order-0 series")
    if f.nvars != nvars:
        raise SeriesError(f"{nvars} coefficients for a series in "
                          f"{f.nvars} variables")
    order = min(order, f.order - 1)
    if not f._terms:
        return _make(nvars, order, {}, 1)
    parts = []
    for v, c in slots:
        deriv = _derivative_items(f, v)
        if deriv:
            parts.append((c._terms.items(), c._den, deriv, f._den))
    return _sum_of_products(nvars, order, parts)


def _derivative_items(s, var) -> list:
    """Packed items of d s / d x_var, over the denominator of s."""
    shift = _BITS * (s.nvars - 1 - var)
    # one less in the exponent field and one less in the degree field
    step = (1 << shift) + (1 << (_BITS * s.nvars))
    out = []
    for k, (re, im) in s._terms.items():
        e = (k >> shift) & _MASK
        if e:
            out.append((k - step, (re * e, im * e)))
    return out


def _scaled(s, c: CScalar) -> "TruncatedSeries":
    cr, ci, cd = _split(c)
    if not (cr or ci):
        return _make(s.nvars, s.order, {}, 1)
    out = {k: (re * cr - im * ci, re * ci + im * cr)
           for k, (re, im) in s._terms.items()}
    return _reduced(s.nvars, s.order, out, s._den * cd)


class TruncatedSeries:
    """Sparse truncated power series with exact complex-rational coefficients.

    ``_terms`` maps packed monomial keys (see the module docstring) to
    numerator pairs (re, im); it never stores (0, 0) and never a key of
    total degree above ``order``.  ``_den`` is the least positive common
    denominator of the coefficients, 1 for the zero series.  The form is
    canonical, so two series are equal iff their nvars, orders and stored
    data agree.  Instances are immutable; all operations return new series.
    """

    __slots__ = ("nvars", "order", "_terms", "_den")

    def __init__(self, nvars: int, order: int, coeffs=None):
        _check_order(order)
        given = {}
        for alpha, c in (coeffs or {}).items():
            alpha = tuple(alpha)
            if len(alpha) != nvars or any(e < 0 for e in alpha):
                raise SeriesError(f"bad exponent tuple {alpha} for nvars={nvars}")
            c = CScalar.coerce(c)
            if sum(alpha) > order:
                raise OrderExhausted(f"stored term {alpha} exceeds order {order}")
            if not c.is_zero():
                given[_pack(alpha)] = c
        den = lcm(*(x.denominator for c in given.values() for x in (c.re, c.im)))
        _set(self, "nvars", nvars)
        _set(self, "order", order)
        _set(self, "_terms", {
            k: (c.re.numerator * (den // c.re.denominator),
                c.im.numerator * (den // c.im.denominator))
            for k, c in given.items()})
        _set(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, nvars: int, order: int) -> "TruncatedSeries":
        _check_order(order)
        return _make(nvars, order, {}, 1)

    @classmethod
    def constant(cls, nvars: int, value, order: int) -> "TruncatedSeries":
        _check_order(order)
        re, im, den = _split(CScalar.coerce(value))
        return _make(nvars, order, {0: (re, im)} if re or im else {}, den)

    @classmethod
    def variable(cls, nvars: int, idx: int, order: int) -> "TruncatedSeries":
        if not 0 <= idx < nvars:
            raise SeriesError(f"variable index {idx} out of range")
        _check_order(order)
        if order < 1:
            alpha = tuple(1 if i == idx else 0 for i in range(nvars))
            raise OrderExhausted(f"stored term {alpha} exceeds order {order}")
        key = (1 << (_BITS * nvars)) | (1 << (_BITS * (nvars - 1 - idx)))
        return _make(nvars, order, {key: (1, 0)}, 1)

    # ------------------------------------------------------------------
    # inspection

    def coeff(self, alpha) -> CScalar:
        alpha = tuple(alpha)
        if (len(alpha) != self.nvars or sum(alpha) > self.order
                or min(alpha, default=0) < 0):
            return CS_ZERO
        pair = self._terms.get(_pack(alpha))
        return CS_ZERO if pair is None else _scalar(*pair, self._den)

    def constant_term(self) -> CScalar:
        pair = self._terms.get(0)
        return CS_ZERO if pair is None else _scalar(*pair, self._den)

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self):
        """Stored terms in (degree, lex) order; the canonical iteration."""
        nvars, den = self.nvars, self._den
        return [(_unpack(k, nvars), _scalar(re, im, den))
                for k, (re, im) in sorted(self._terms.items())]

    def numerators(self) -> tuple:
        """(den, items): the stored Gaussian-integer numerator pairs over
        the common denominator den, as (key, (re, im)) items.  A key is the
        monomial's exponent fields as one integer: distinct monomials have
        distinct keys, and keys sort as the exponent tuples do."""
        low = (1 << (_BITS * self.nvars)) - 1
        return self._den, [(k & low, v) for k, v in self._terms.items()]

    def degree_counts(self) -> list:
        """Number of stored terms of each total degree 0 to order."""
        counts = [0] * (self.order + 1)
        shift = _BITS * self.nvars
        for k in self._terms:
            counts[k >> shift] += 1
        return counts

    def homogeneous_part(self, d: int) -> "TruncatedSeries":
        """Terms of total degree exactly d."""
        if d > self.order:
            raise SeriesError(f"degree {d} exceeds order {self.order}")
        shift = _BITS * self.nvars
        kept = {k: v for k, v in self._terms.items() if k >> shift == d}
        return _reduced(self.nvars, self.order, kept, self._den)

    # ------------------------------------------------------------------
    # order bookkeeping

    def truncate(self, order: int) -> "TruncatedSeries":
        """Weaken to a smaller order, dropping now-unknown terms."""
        if order >= self.order:
            return self
        _check_order(order)
        lim = (order + 1) << (_BITS * self.nvars)
        kept = {k: v for k, v in self._terms.items() if k < lim}
        if len(kept) == len(self._terms):
            return _make(self.nvars, order, self._terms, self._den)
        return _reduced(self.nvars, order, kept, self._den)

    def extended(self, order: int) -> "TruncatedSeries":
        """Raise the order of polynomial data.

        Only valid when the stored terms are exact polynomial coefficients;
        the caller asserts that no unknown tail exists.
        """
        if order <= self.order:
            return self.truncate(order)
        _check_order(order)
        return _make(self.nvars, order, self._terms, self._den)

    # ------------------------------------------------------------------
    # ring operations

    def _operand(self, other):
        """other as a series on this one's variables; None if foreign."""
        if isinstance(other, TruncatedSeries):
            if self.nvars != other.nvars:
                raise SeriesError(
                    f"nvars mismatch: {self.nvars} vs {other.nvars}")
            return other
        if isinstance(other, (int, Fraction, CScalar)):
            return TruncatedSeries.constant(self.nvars, other, self.order)
        return None

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return _combine(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.nvars, self.order,
                     {k: (-re, -im) for k, (re, im) in self._terms.items()},
                     self._den)

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return _combine(self, other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return _product(self, self._operand(other))
        if isinstance(other, (int, Fraction, CScalar)):
            return _scaled(self, CScalar.coerce(other))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise SeriesError("series powers take non-negative integer exponents")
        if k == 0:
            return TruncatedSeries.constant(self.nvars, 1, self.order)
        result, base = None, self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.order == other.order
            and self._den == other._den
            and self._terms == other._terms
        )

    def agrees(self, other: "TruncatedSeries") -> bool:
        """Equality after truncating both to the lower of the two orders."""
        if not (self._terms or other._terms):
            return self.nvars == other.nvars
        o = min(self.order, other.order)
        return self.truncate(o) == other.truncate(o)

    # ------------------------------------------------------------------
    # calculus

    def derive(self, var: int) -> "TruncatedSeries":
        """Formal partial derivative; costs one order of truncation."""
        if not 0 <= var < self.nvars:
            raise SeriesError(f"variable index {var} out of range")
        if self.order == 0:
            raise OrderExhausted("cannot differentiate an order-0 series")
        return _reduced(self.nvars, self.order - 1,
                        dict(_derivative_items(self, var)), self._den)

    def conjugate(self, pairing) -> "TruncatedSeries":
        """Complex conjugation: conjugate coefficients, swap paired exponents."""
        pairing = check_involution(pairing)
        n = self.nvars
        if len(pairing) != n:
            raise SeriesError("pairing length must equal nvars")
        moves = _conjugation_moves(pairing)
        shift = _BITS * n
        out = {}
        for k, (re, im) in self._terms.items():
            key = k >> shift << shift
            for src, mask, dst in moves:
                key |= ((k >> src) & mask) << dst
            out[key] = (re, -im)
        return _make(n, self.order, out, self._den)

    def compose(self, subs) -> "TruncatedSeries":
        """Substitute subs[j] for variable j; all used subs must vanish at 0.

        The result order is the weakest of this series' order and the orders
        of the substitutions that actually occur in stored terms.
        """
        subs = list(subs)
        n = self.nvars
        if len(subs) != n:
            raise SeriesError("one substitution per variable required")
        support = 0
        for k in self._terms:
            support |= k
        target_nvars = subs[0].nvars if subs else n
        order = self.order
        for j, s in enumerate(subs):
            if not isinstance(s, TruncatedSeries) or s.nvars != target_nvars:
                raise SeriesError("substitutions must share one variable space")
            if (support >> (_BITS * (n - 1 - j))) & _MASK:
                if 0 in s._terms:
                    raise SeriesError(
                        "substitution with nonzero constant term into an "
                        "order-limited series"
                    )
                order = min(order, s.order)
        powers, monomials = {}, {}

        def power(j: int, e: int) -> TruncatedSeries:
            p = powers.get((j, e))
            if p is None:
                if e == 1:
                    p = subs[j].truncate(order)
                else:
                    p = power(j, e >> 1) * power(j, e - (e >> 1))
                powers[(j, e)] = p
            return p

        def monomial(x: int) -> TruncatedSeries:
            # x holds nonzero exponent fields; strip the last variable
            # present, so monomials sharing a prefix share its product
            m = monomials.get(x)
            if m is None:
                field = ((x & -x).bit_length() - 1) // _BITS
                e = (x >> (_BITS * field)) & _MASK
                rest = x - (e << (_BITS * field))
                m = power(n - 1 - field, e)
                if rest:
                    m = monomial(rest) * m
                monomials[x] = m
            return m

        # used substitutions vanish at 0, so a term of degree above the
        # result order contributes nothing
        lim = (order + 1) << (_BITS * n)
        low = (1 << (_BITS * n)) - 1
        one = _make(target_nvars, order, {0: (1, 0)}, 1)
        parts = []
        for k, (re, im) in self._terms.items():
            if k < lim:
                m = monomial(k & low) if k else one
                if m._terms:
                    parts.append((re, im, m))
        den = lcm(*(m._den for _, _, m in parts))
        cut = (order + 1) << (_BITS * target_nvars)
        out = {}
        for re, im, m in parts:
            f = den // m._den
            _mul_into(out, ((0, (re * f, im * f)),), m._terms.items(), cut)
        return _reduced(target_nvars, order, out, self._den * den)

    def invert_unit(self) -> "TruncatedSeries":
        """Multiplicative inverse of a series with nonzero constant term.

        With self = (g0 + A_1 + A_2 + ...) / den, A_d homogeneous of degree
        d with Gaussian-integer coefficients and N = |g0|^2, the inverse is
        sum_d den * B_d / N^(d+1), where B_0 = conj(g0) and
        B_d = -conj(g0) * sum_{j=1..d} N^(j-1) A_j B_{d-j}: one pass over
        the degrees, all in integers.
        """
        g0 = self._terms.get(0)
        if g0 is None:
            raise SeriesError("invert_unit requires a nonzero constant term")
        r0, i0 = g0
        norm = r0 * r0 + i0 * i0
        order, shift = self.order, _BITS * self.nvars
        parts = [[] for _ in range(order + 1)]
        for k, (re, im) in self._terms.items():
            d = k >> shift
            if d:
                f = norm ** (d - 1)
                parts[d].append((k, (re * f, im * f)))
        lim = (order + 1) << shift
        # a degree absent from self adds nothing to any B_d
        present = [j for j in range(1, order + 1) if parts[j]]
        inverse = [{0: (r0, -i0)}]
        for d in range(1, order + 1):
            acc = {}
            for j in present:
                if j > d:
                    break
                _mul_into(acc, parts[j], inverse[d - j].items(), lim)
            inverse.append({k: (-(r0 * re + i0 * im), i0 * re - r0 * im)
                            for k, (re, im) in acc.items()})
        out = {}
        for d, part in enumerate(inverse):
            f = self._den * norm ** (order - d)
            for k, (re, im) in part.items():
                out[k] = (re * f, im * f)
        return _reduced(self.nvars, order, out, norm ** (order + 1))

    # ------------------------------------------------------------------
    # polynomial-only operations

    def recenter(self, point) -> "TruncatedSeries":
        """Taylor-expand polynomial data about a new base point.

        Stored terms are taken as the complete polynomial; the expansion is
        exact and keeps the same order.
        """
        terms, den = self._translated(point, keep=True)
        return _reduced(self.nvars, self.order, terms, den)

    def eval_at(self, point) -> CScalar:
        """Exact evaluation of polynomial data at a point."""
        terms, den = self._translated(point, keep=False)
        pair = terms.get(0)
        return CS_ZERO if pair is None else _scalar(*pair, den)

    def _translated(self, point, keep):
        """Numerators and denominator of the stored polynomial at x + point.

        One variable at a time, each term's power x_j^e becomes the
        binomial expansion of (x_j + p_j)^e over the denominator q^E of
        p_j = g / q, E the largest exponent of x_j present: the part of
        degree b is C(e, b) * g^(e-b) * q^(E-e+b) / q^E.  With keep false
        only b = 0 is kept, which evaluates x_j at p_j.
        """
        point = [CScalar.coerce(p) for p in point]
        n = self.nvars
        if len(point) != n:
            raise SeriesError("point length must equal nvars")
        terms, den = self._terms, self._den
        for j, p in enumerate(point):
            shift = _BITS * (n - 1 - j)
            step = (1 << shift) + (1 << (_BITS * n))
            top = max(((k >> shift) & _MASK for k in terms), default=0)
            if not top:
                continue
            if p.is_zero():
                if not keep:
                    terms = {k: v for k, v in terms.items()
                             if not (k >> shift) & _MASK}
                continue
            gr, gi, q = _split(p)
            # g^m * q^(top-m) for m = 0..top
            powers = [(1, 0)]
            for _ in range(top):
                pr, pi = powers[-1]
                powers.append((pr * gr - pi * gi, pr * gi + pi * gr))
            powers = [(pr * q ** (top - m), pi * q ** (top - m))
                      for m, (pr, pi) in enumerate(powers)]
            # weights[e] lists (key offset, (re, im)) for each kept b
            weights = {}
            out = {}
            get = out.get
            for k, (re, im) in terms.items():
                e = (k >> shift) & _MASK
                ws = weights.get(e)
                if ws is None:
                    ws = [(step * (e - b), comb(e, b) * powers[e - b][0],
                           comb(e, b) * powers[e - b][1])
                          for b in (range(e + 1) if keep else (0,))]
                    weights[e] = ws
                for off, wr, wi in ws:
                    key = k - off
                    nr = re * wr - im * wi
                    ni = re * wi + im * wr
                    old = get(key)
                    if old is not None:
                        nr += old[0]
                        ni += old[1]
                        if not (nr or ni):
                            del out[key]
                            continue
                    out[key] = (nr, ni)
            terms = out
            den *= q ** top
        return terms, den

    def __repr__(self):
        inner = {a: c.render() for a, c in self.terms()}
        return f"TruncatedSeries({self.nvars}, {self.order}, {inner})"


def series_solve(rows, columns) -> list:
    """Solve A X = B for each right-hand-side column B, where rows is the
    square series matrix A and A(0) is invertible.

    Degree by degree, as invert_unit runs its recurrence (the relaxed
    triangular solve of van der Hoeven, J. Symb. Comp. 34, 2002): with
    D A and E B integer, D and E the least common denominators of A and
    of the column, and (D A)(0)^-1 = M / q for a Gaussian-integer M and
    an integer q > 0, Z_d = M (q^d E B_d - sum_j q^(j-1) D A_j Z_(d-j))
    over the degrees j present in A, and X = D sum_d Z_d q^(order-d) /
    (E q^(order+1)).  The work grows with the solution, not with dense
    inverses of the pivots.  Each column gets the least order of A's
    entries and of its own; Gauss-Jordan elimination could keep a higher
    one where orders are mixed, with the same values up to this order.
    A system that is not n x n with columns of length n, or mixes nvars,
    raises SeriesError, as does a singular A(0); n = 0 gives one empty
    solution per column.
    """
    n, entries = len(rows), [s for r in rows for s in r]
    if any(len(r) != n for r in rows) or any(len(c) != n for c in columns):
        raise SeriesError(
            f"series system of {n} rows of lengths {[len(r) for r in rows]} "
            f"and columns of lengths {[len(c) for c in columns]}")
    if not n:
        return [[] for _ in columns]
    nvars = entries[0].nvars
    if any(s.nvars != nvars for c in (entries, *columns) for s in c):
        raise SeriesError(f"nvars mismatch in a series system over {nvars}")
    shift, top = _BITS * nvars, min(s.order for s in entries)
    den = lcm(*(s._den for s in entries))
    # Gauss-Jordan on the integer rows [(D A)(0) | I]: row i ends as
    # p_i e_i | R_i, so row i of (D A)(0)^-1 is R_i conj(p_i) / |p_i|^2
    aug = [[(re * (den // s._den), im * (den // s._den))
            for s in r for re, im in (s._terms.get(0, (0, 0)),)]
           + [(int(j == i), 0) for j in range(n)] for i, r in enumerate(rows)]
    for c in range(n):
        p = next((i for i in range(c, n) if aug[i][c] != (0, 0)), None)
        if p is None:
            raise SeriesError("series system pivot is not a unit")
        aug[c], aug[p] = aug[p], aug[c]
        (pr, pi), pivot = aug[c][c], aug[c]
        for i, row in enumerate(aug):
            fr, fi = row[c]
            if i != c and (fr or fi):
                aug[i] = [(pr * a - pi * b - fr * x + fi * y,
                           pr * b + pi * a - fr * y - fi * x)
                          for (a, b), (x, y) in zip(row, pivot)]
    inv = [[(k, a * pr + b * pi, b * pr - a * pi, pr * pr + pi * pi)
            for k, (a, b) in enumerate(row[n:]) if a or b]
           for row, (pr, pi) in zip(aug, (aug[i][i] for i in range(n)))]
    q = lcm(*(d for r in inv for *_, d in r))
    q //= gcd(q, *(x * (q // d) for r in inv for _, a, b, d in r
                   for x in (a, b)))
    # M row by row, as (k, one constant item) per nonzero entry
    m = [[(k, ((0, (a * q // d, b * q // d)),)) for k, a, b, d in r]
         for r in inv]
    qpow = [q ** d for d in range(top + 2)]
    # -q^(j-1) D A_j, by degree j, row and column
    parts = [[[[] for _ in r] for r in rows] for _ in range(top + 1)]
    for i, r in enumerate(rows):
        for k, s in enumerate(r):
            for key, (re, im) in s._terms.items():
                d = key >> shift
                if 0 < d <= top:
                    g = -(den // s._den) * qpow[d - 1]
                    parts[d][i][k].append((key, (re * g, im * g)))
    present = [d for d in range(1, top + 1) if any(map(any, parts[d]))]
    out = []
    for col in columns:
        order = min(top, *(s.order for s in col))
        lim, e = (order + 1) << shift, lcm(*(s._den for s in col))
        # q^d E B_d, less the products below as they are added
        rhs = [[{} for _ in col] for _ in range(order + 1)]
        for i, s in enumerate(col):
            for key, (re, im) in s._terms.items():
                d = key >> shift
                if d <= order:
                    g = e // s._den * qpow[d]
                    rhs[d][i][key] = (re * g, im * g)
        z = []
        for d, acc in enumerate(rhs):
            for j in present:
                if j > d:
                    break
                for i, row in enumerate(parts[j]):
                    for a, zk in zip(row, z[d - j]):
                        if a and zk:
                            _mul_into(acc[i], a, zk.items(), lim)
            z.append([{} for _ in col])
            for zi, row in zip(z[d], m):
                for k, item in row:
                    if acc[k]:
                        _mul_into(zi, item, acc[k].items(), lim)
        sol = []
        for i in range(n):
            terms = {}
            for d, zd in enumerate(z):
                g = den * qpow[order - d]
                terms.update((k, (re * g, im * g))
                             for k, (re, im) in zd[i].items())
            sol.append(_reduced(nvars, order, terms, e * qpow[order + 1]))
        out.append(sol)
    return out
