"""Exact complex-rational truncated multivariate power series.

Every symbolic computation in this package runs on :class:`TruncatedSeries`.
A series knows how many variables it lives in, the total degree up to which
its coefficients are meaningful (``order``), and a sparse map from exponent
tuples to exact complex-rational coefficients.  Terms of total degree above
``order`` are unknown, not zero; each operation returns the weakest order it
can guarantee, so precision loss is always explicit.

Example:

    >>> z = TruncatedSeries.variable(1, 0, order=3)
    >>> ((1 + z) * (1 - z)).to_str(["z"])
    '1 - z^2'
    >>> (1 + z).invert_unit().to_str(["z"])
    '1 - z + z^2 - z^3'
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, comb, log2


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

        def rat(q: Fraction) -> str:
            return str(q)

        if self.im == 0:
            return rat(self.re)
        imag = f"{rat(self.im)}*i"
        if self.re == 0:
            return imag
        sep = "+" if self.im > 0 else ""
        return f"{rat(self.re)}{sep}{imag}"


CS_ZERO = CScalar(0)
CS_ONE = CScalar(1)
CS_I = CScalar(0, 1)


def check_involution(pairing) -> tuple:
    pairing = tuple(pairing)
    n = len(pairing)
    if sorted(pairing) != list(range(n)) or any(pairing[pairing[i]] != i for i in range(n)):
        raise SeriesError("pairing is not an involution of variable indices")
    return pairing


class TruncatedSeries:
    """Sparse truncated power series over :class:`CScalar`.

    ``coeffs`` never stores zeros and never stores exponents of total degree
    above ``order``.  Two series are equal iff their orders and coefficient
    maps agree.  Instances are immutable; all operations return new series.
    """

    __slots__ = ("nvars", "order", "coeffs")

    def __init__(self, nvars: int, order: int, coeffs=None):
        if order < 0:
            raise SeriesError("order must be non-negative")
        clean = {}
        for alpha, c in (coeffs or {}).items():
            alpha = tuple(alpha)
            if len(alpha) != nvars or any(e < 0 for e in alpha):
                raise SeriesError(f"bad exponent tuple {alpha} for nvars={nvars}")
            c = CScalar.coerce(c)
            if sum(alpha) > order:
                raise SeriesError(f"stored term {alpha} exceeds order {order}")
            if not c.is_zero():
                clean[alpha] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, nvars: int, order: int) -> "TruncatedSeries":
        return cls(nvars, order, {})

    @classmethod
    def constant(cls, nvars: int, value, order: int) -> "TruncatedSeries":
        return cls(nvars, order, {(0,) * nvars: CScalar.coerce(value)})

    @classmethod
    def variable(cls, nvars: int, idx: int, order: int) -> "TruncatedSeries":
        if not 0 <= idx < nvars:
            raise SeriesError(f"variable index {idx} out of range")
        alpha = tuple(1 if i == idx else 0 for i in range(nvars))
        return cls(nvars, order, {alpha: CS_ONE})

    # ------------------------------------------------------------------
    # inspection

    def coeff(self, alpha) -> CScalar:
        return self.coeffs.get(tuple(alpha), CS_ZERO)

    def constant_term(self) -> CScalar:
        return self.coeffs.get((0,) * self.nvars, CS_ZERO)

    def degree(self) -> int:
        """Largest stored total degree, or -1 for a stored-zero series."""
        return max((sum(a) for a in self.coeffs), default=-1)

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self):
        """Stored terms in (degree, lex) order; the canonical iteration."""
        return sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def homogeneous_part(self, d: int) -> "TruncatedSeries":
        """Terms of total degree exactly d."""
        if d > self.order:
            raise SeriesError(f"degree {d} exceeds order {self.order}")
        kept = {a: c for a, c in self.coeffs.items() if sum(a) == d}
        return TruncatedSeries(self.nvars, self.order, kept)

    # ------------------------------------------------------------------
    # order bookkeeping

    def truncate(self, order: int) -> "TruncatedSeries":
        """Weaken to a smaller order, dropping now-unknown terms."""
        if order >= self.order:
            return self
        kept = {a: c for a, c in self.coeffs.items() if sum(a) <= order}
        return TruncatedSeries(self.nvars, order, kept)

    def extended(self, order: int) -> "TruncatedSeries":
        """Raise the order of polynomial data.

        Only valid when the stored terms are exact polynomial coefficients;
        the caller asserts that no unknown tail exists.
        """
        if order <= self.order:
            return self.truncate(order)
        return TruncatedSeries(self.nvars, order, dict(self.coeffs))

    # ------------------------------------------------------------------
    # ring operations

    def _check_compatible(self, other: "TruncatedSeries"):
        if self.nvars != other.nvars:
            raise SeriesError(f"nvars mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CScalar)):
            other = TruncatedSeries.constant(self.nvars, other, self.order)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        order = min(self.order, other.order)
        out = {a: c for a, c in self.coeffs.items() if sum(a) <= order}
        for a, c in other.coeffs.items():
            if sum(a) > order:
                continue
            s = out.get(a, CS_ZERO) + c
            if s.is_zero():
                out.pop(a, None)
            else:
                out[a] = s
        return TruncatedSeries(self.nvars, order, out)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(
            self.nvars, self.order, {a: -c for a, c in self.coeffs.items()}
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, CScalar)):
            other = TruncatedSeries.constant(self.nvars, other, self.order)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CScalar)):
            c = CScalar.coerce(other)
            return TruncatedSeries(
                self.nvars, self.order, {a: c * v for a, v in self.coeffs.items()}
            )
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        order = min(self.order, other.order)
        out = {}
        for a, ca in self.coeffs.items():
            da = sum(a)
            if da > order:
                continue
            for b, cb in other.coeffs.items():
                if da + sum(b) > order:
                    continue
                g = tuple(x + y for x, y in zip(a, b))
                s = out.get(g, CS_ZERO) + ca * cb
                if s.is_zero():
                    out.pop(g, None)
                else:
                    out[g] = s
        return TruncatedSeries(self.nvars, order, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise SeriesError("series powers take non-negative integer exponents")
        result = TruncatedSeries.constant(self.nvars, 1, self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    # ------------------------------------------------------------------
    # calculus

    def derive(self, var: int) -> "TruncatedSeries":
        """Formal partial derivative; costs one order of truncation."""
        if not 0 <= var < self.nvars:
            raise SeriesError(f"variable index {var} out of range")
        if self.order == 0:
            raise OrderExhausted("cannot differentiate an order-0 series")
        out = {}
        for a, c in self.coeffs.items():
            e = a[var]
            if e == 0:
                continue
            b = a[:var] + (e - 1,) + a[var + 1:]
            out[b] = c * e
        return TruncatedSeries(self.nvars, self.order - 1, out)

    def conjugate(self, pairing) -> "TruncatedSeries":
        """Complex conjugation: conjugate coefficients, swap paired exponents."""
        pairing = check_involution(pairing)
        if len(pairing) != self.nvars:
            raise SeriesError("pairing length must equal nvars")
        out = {}
        for a, c in self.coeffs.items():
            b = tuple(a[pairing[i]] for i in range(self.nvars))
            out[b] = c.conj()
        return TruncatedSeries(self.nvars, self.order, out)

    def compose(self, subs) -> "TruncatedSeries":
        """Substitute subs[j] for variable j; all used subs must vanish at 0.

        The result order is the weakest of this series' order and the orders
        of the substitutions that actually occur in stored terms.
        """
        subs = list(subs)
        if len(subs) != self.nvars:
            raise SeriesError("one substitution per variable required")
        used = [False] * self.nvars
        for a in self.coeffs:
            for j, e in enumerate(a):
                if e:
                    used[j] = True
        target_nvars = subs[0].nvars if subs else self.nvars
        order = self.order
        for j, s in enumerate(subs):
            if not isinstance(s, TruncatedSeries) or s.nvars != target_nvars:
                raise SeriesError("substitutions must share one variable space")
            if used[j]:
                if not s.constant_term().is_zero():
                    raise SeriesError(
                        "substitution with nonzero constant term into an "
                        "order-limited series"
                    )
                order = min(order, s.order)
        result = TruncatedSeries.zero(target_nvars, order)
        power_cache = {}

        def power(j: int, e: int) -> TruncatedSeries:
            key = (j, e)
            if key not in power_cache:
                power_cache[key] = subs[j].truncate(order) ** e
            return power_cache[key]

        for a, c in self.terms():
            term = TruncatedSeries.constant(target_nvars, c, order)
            for j, e in enumerate(a):
                if e:
                    term = term * power(j, e)
            result = result + term
        return result

    def invert_unit(self) -> "TruncatedSeries":
        """Multiplicative inverse of a series with nonzero constant term."""
        c0 = self.constant_term()
        if c0.is_zero():
            raise SeriesError("invert_unit requires a nonzero constant term")
        inv = TruncatedSeries.constant(self.nvars, CS_ONE / c0, self.order)
        # Newton updates double the correct order each step.
        for _ in range(ceil(log2(self.order + 1)) if self.order else 0):
            inv = inv * (2 - self * inv)
        return inv

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, CScalar)):
            c = CScalar.coerce(other)
            return self * (CS_ONE / c)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self * other.invert_unit()

    # ------------------------------------------------------------------
    # polynomial-only operations

    def recenter(self, point) -> "TruncatedSeries":
        """Taylor-expand polynomial data about a new base point.

        Stored terms are taken as the complete polynomial; the expansion is
        exact and keeps the same order.
        """
        point = [CScalar.coerce(p) for p in point]
        if len(point) != self.nvars:
            raise SeriesError("point length must equal nvars")
        out = {}
        for a, c in self.coeffs.items():
            # expand prod_j (x_j + p_j)^{a_j} by binomials
            expansion = {(0,) * self.nvars: c}
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
        return TruncatedSeries(self.nvars, self.order, out)

    def eval_at(self, point) -> CScalar:
        """Exact evaluation of polynomial data at a point."""
        point = [CScalar.coerce(p) for p in point]
        if len(point) != self.nvars:
            raise SeriesError("point length must equal nvars")
        total = CS_ZERO
        for a, c in self.terms():
            v = c
            for j, e in enumerate(a):
                for _ in range(e):
                    v = v * point[j]
            total = total + v
        return total

    # ------------------------------------------------------------------

    def to_str(self, names=None) -> str:
        if not self.coeffs:
            return "0"
        names = names or [f"x{i}" for i in range(self.nvars)]
        parts = []
        for a, c in self.terms():
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
                body = "*".join([f"({head})" if ("+" in head or head.startswith("-")) and factors else head] + factors)
                parts.append(body)
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        inner = {a: c.render() for a, c in self.terms()}
        return f"TruncatedSeries({self.nvars}, {self.order}, {inner})"
