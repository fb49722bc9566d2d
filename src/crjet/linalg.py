"""Exact linear algebra over field entries.

Everything here is exact: rank and nullspace decisions feed span
computations that must be tolerance-free.  Systems with series entries
are solved in the series layer (``series.series_solve``), which inverts
their constant matrix here, with ``inverse``.  The one eliminator is
fraction-free (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22, 1968) and
works on sparse rows {column: (re, im)} of Gaussian-integer
pairs, the numerator convention of TruncatedSeries.

- Entry.  nullspace takes sparse {column: int} rows with nonzero values,
  which enter as Gaussian integers with imaginary part 0; rank and
  SpanTracker take dense sequences of int, Fraction or CScalar values,
  whose denominators are cleared; inverse takes dense rows of
  Gaussian-integer pairs.  Every row is converted once and divided by
  its content (the gcd of every real and imaginary part), so it is
  primitive.
- Elimination.  Rows pivot on their lowest column.  A row with lead
  column q is reduced by the pivot row piv stored under q as
  row = piv[q] * row - row[q] * piv, once both leads are divided by their
  gcd, and the result is made primitive again.  A row stored as a pivot is
  first multiplied by the conjugate of its lead, so every pivot lead is a
  positive integer: a reduction then scales a row by a rational integer
  only, and content removal keeps entries at the size of the row's
  primitive form instead of letting them grow with the number of steps.
- Exit.  nullspace and inverse clear every pivot column above its pivot.
  Only nullspace divides, by each pivot row's lead, when it hands values
  back, always as Fraction: its rows are real, so every pivot row stays
  real.  inverse, rank and SpanTracker never leave the integers.

A reduced row echelon form is unique, so the pivots, the nullspace
basis (one vector per free column, read off the cleared pivot rows) and
the inverse depend on neither the pivot rule nor the scaling of the
integer rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .series import CScalar


def _integer_row(vec) -> dict:
    """vec, a dense sequence of int, Fraction or CScalar values, as a
    primitive {column: (re, im)} integer row."""
    parts, den = [], 1
    for c, x in enumerate(vec):
        if isinstance(x, CScalar):
            re, im = x.re, x.im
            if not (re or im):
                continue
            den = lcm(den, re.denominator, im.denominator)
        elif x:
            re, im = x, 0
            den = lcm(den, x.denominator)
        else:
            continue
        parts.append((c, re, im))
    row = {c: (re.numerator * (den // re.denominator),
               im.numerator * (den // im.denominator))
           for c, re, im in parts}
    return _primitive(row)


def _primitive(row: dict) -> dict:
    """row divided by the gcd of all its parts."""
    g = 0
    for re, im in row.values():
        g = gcd(g, re, im)
        if g == 1:
            return row
    return {c: (re // g, im // g) for c, (re, im) in row.items()}


def _eliminate(row: dict, q: int, piv: dict) -> dict:
    """Primitive form of piv[q] * row - row[q] * piv, which has no entry in
    column q; piv[q] is a positive integer, both leads cut by their gcd."""
    p = piv[q][0]
    c, d = row[q]
    g = gcd(p, c, d)
    if g != 1:
        p, c, d = p // g, c // g, d // g
    # row is consumed: every caller replaces it with the result
    out = row if p == 1 else {k: (p * re, p * im)
                              for k, (re, im) in row.items()}
    for k, (a, b) in piv.items():
        re, im = c * a - d * b, c * b + d * a
        x = out.get(k)
        if x is not None:
            re, im = x[0] - re, x[1] - im
            if re or im:
                out[k] = (re, im)
            else:
                del out[k]
        else:
            out[k] = (-re, -im)
    return _primitive(out)


def _reduce(row: dict, echelon: dict) -> dict:
    """Reduce row's lowest columns against echelon until its lead has no
    pivot row; an empty result means row lies in the echelon's span, since
    every echelon row starts at its key."""
    while row:
        q = min(row)
        piv = echelon.get(q)
        if piv is None:
            break
        row = _eliminate(row, q, piv)
    return row


def _insert(row: dict, echelon: dict) -> bool:
    """Reduce row against echelon; if something is left, store it under
    its lead, scaled by the lead's conjugate (over the gcd of its parts)
    so that the lead is a positive integer."""
    row = _reduce(row, echelon)
    if not row:
        return False
    lead = min(row)
    a, b = row[lead]
    if b:
        g = gcd(a, b)
        a, b = a // g, -b // g
        row = _primitive({k: (a * re - b * im, a * im + b * re)
                          for k, (re, im) in row.items()})
    elif a < 0:
        row = {k: (-re, -im) for k, (re, im) in row.items()}
    echelon[lead] = row
    return True


def rank(rows) -> int:
    echelon = {}
    for vec in rows:
        _insert(_integer_row(vec), echelon)
    return len(echelon)


def _clear(echelon: dict) -> None:
    """Clear every pivot column above its pivot, highest pivot first, so
    each pivot row holds no pivot column but its own."""
    for p in sorted(echelon, reverse=True):
        row = echelon[p]
        for q in [q for q in row if q != p and q in echelon]:
            row = _eliminate(row, q, echelon[q])
        echelon[p] = row


def nullspace(rows, ncols: int) -> list:
    """Basis of the right nullspace of {column: int} rows with nonzero
    values over ncols columns, one Fraction vector per free column."""
    echelon = {}
    for row in rows:
        _insert(_primitive({c: (x, 0) for c, x in row.items()}), echelon)
    _clear(echelon)
    free = {fc: [Fraction(0)] * ncols for fc in range(ncols)
            if fc not in echelon}
    for fc, v in free.items():
        v[fc] = Fraction(1)
    # every column of a cleared pivot row other than its pivot is free
    for p, row in echelon.items():
        den = row[p][0]
        for c, (re, _) in row.items():
            if c != p:
                free[c][p] = Fraction(-re, den)
    return list(free.values())


def inverse(rows) -> tuple:
    """(q, M) with M / q the inverse of the square matrix rows, given as
    dense rows of Gaussian-integer pairs (re, im): q is the least positive
    integer that makes M Gaussian-integral, and M[i] is row i of M as a
    sparse {column: (re, im)} row in ascending columns.  A singular matrix
    raises ZeroDivisionError.

    Row i enters as [rows[i] | e_i].  The matrix is singular exactly when
    some pivot lands in the identity half; otherwise cleared pivot row p
    is the primitive row [l_p e_p | R_p] with l_p > 0, so row p of the
    inverse is R_p / l_p in lowest terms and q is the lcm of the l_p.
    """
    n, echelon = len(rows), {}
    for i, row in enumerate(rows):
        aug = {c: x for c, x in enumerate(row) if x != (0, 0)}
        aug[n + i] = (1, 0)     # a unit entry: the row is primitive
        _insert(aug, echelon)
    if any(p >= n for p in echelon):
        raise ZeroDivisionError("singular matrix")
    _clear(echelon)
    q = lcm(*(echelon[p][p][0] for p in range(n)))
    m = []
    for p in range(n):
        f = q // echelon[p][p][0]
        m.append({c - n: (re * f, im * f)
                  for c, (re, im) in sorted(echelon[p].items()) if c >= n})
    return q, m


class SpanTracker:
    """Incremental exact span of row vectors; reports dimension growth."""

    def __init__(self):
        self.rows = {}  # integer echelon: lead column -> row, lead > 0

    def add(self, vec) -> bool:
        """Reduce vec against the stored echelon; keep it if independent."""
        return _insert(_integer_row(vec), self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, vec) -> bool:
        return not _reduce(_integer_row(vec), self.rows)
