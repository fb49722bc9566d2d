"""Exact linear algebra over field entries and over series entries.

Everything here is exact: rank, nullspace and solve decisions feed span
computations that must be tolerance-free.  The one eliminator is
fraction-free (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22, 1968) and works
on sparse rows {column: (re, im)} of Gaussian-integer pairs, the numerator
convention of TruncatedSeries.

- Entry.  A row arrives as a dense sequence or a {column: value} dict of
  int, Fraction or CScalar values.  It is converted once: its denominators
  are cleared, then it is divided by its content (the gcd of every real
  and imaginary part), so it is primitive.
- Elimination.  Rows pivot on their lowest column.  A row with lead
  column q is reduced by the pivot row piv stored under q as
  row = piv[q] * row - row[q] * piv, once both leads are divided by their
  gcd, and the result is made primitive again.  A row stored as a pivot is
  first multiplied by the conjugate of its lead, so every pivot lead is a
  positive integer: a reduction then scales a row by a rational integer
  only, and content removal keeps entries at the size of the row's
  primitive form instead of letting them grow with the number of steps.
- Exit.  Only reduced_echelon, nullspace and solve_unique divide, by each
  pivot row's lead, when they hand values back: Fraction when every entry
  given was an int or a Fraction, CScalar when any was a CScalar (and for
  a matrix with no entries).  rank and SpanTracker never leave the
  integers.

A reduced row echelon form is unique, so the pivots, reduced rows and
nullspace basis (one vector per free column) depend on neither the pivot
rule nor the scaling of the integer rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .series import CS_ONE, CS_ZERO, CScalar, SeriesError, TruncatedSeries


def _integer_row(vec):
    """(row, complex): vec as a primitive {column: (re, im)} integer row,
    and whether any entry was a CScalar."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    parts, den, cplx = [], 1, False
    for c, x in items:
        if isinstance(x, CScalar):
            cplx = True
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
    return _primitive(row), cplx


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


def _echelon(rows, clear: bool):
    """(echelon, complex): the integer echelon {lead column: row} of rows,
    pivots cleared upwards in descending order when clear is set, and
    whether values should leave as CScalar."""
    echelon, cplx, empty = {}, False, True
    for vec in rows:
        row, c = _integer_row(vec)
        cplx = cplx or c
        empty = empty and not len(vec)
        _insert(row, echelon)
    if clear:
        for p in sorted(echelon, reverse=True):
            row = echelon[p]
            for q in [q for q in row if q != p and q in echelon]:
                row = _eliminate(row, q, echelon[q])
            echelon[p] = row
    return echelon, cplx or empty


def _value(re: int, im: int, den: int, cplx: bool):
    if cplx:
        return CScalar(Fraction(re, den), Fraction(im, den))
    return Fraction(re, den)


def reduced_echelon(rows) -> dict:
    """Reduced row echelon form of dense or {column: value} rows as
    {pivot column: {column: value}}, with 1 at each pivot."""
    echelon, cplx = _echelon(rows, True)
    out = {}
    for p, row in echelon.items():
        den = row[p][0]
        out[p] = {c: _value(re, im, den, cplx) for c, (re, im) in row.items()}
    return out


def rank(rows) -> int:
    return len(_echelon(rows, False)[0])


def nullspace(rows, ncols=None):
    """Basis of the right nullspace, one vector per free column.  ncols
    defaults to the length of the first row and is needed for {column:
    value} rows and for an empty matrix."""
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    echelon, cplx = _echelon(rows, True)
    one, zero = (CS_ONE, CS_ZERO) if cplx else (Fraction(1), Fraction(0))
    free = {fc: [zero] * ncols for fc in range(ncols) if fc not in echelon}
    for fc, v in free.items():
        v[fc] = one
    # every column of a cleared pivot row other than its pivot is free
    for p, row in echelon.items():
        den = row[p][0]
        for c, (re, im) in row.items():
            if c != p:
                free[c][p] = _value(-re, -im, den, cplx)
    return list(free.values())


def solve_unique(rows, rhs):
    """Solve A x = b for square invertible A; raises on singular input."""
    n = len(rows)
    red = reduced_echelon([list(r) + [b] for r, b in zip(rows, rhs)])
    if sorted(red) != list(range(n)):
        raise SeriesError("singular linear system")
    return [red[i].get(n, 0 * red[i][i]) for i in range(n)]


class SpanTracker:
    """Incremental exact span of row vectors; reports dimension growth."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows = {}  # integer echelon: lead column -> row, lead > 0

    def add(self, vec) -> bool:
        """Reduce vec against the stored echelon; keep it if independent."""
        return _insert(_integer_row(vec)[0], self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, vec) -> bool:
        return not _reduce(_integer_row(vec)[0], self.rows)


def series_solve(rows, rhs):
    """Solve A x = b where entries are series and A(0) is invertible.

    Gaussian elimination over the series ring; every pivot must be a unit
    (nonzero constant term), which A(0) invertible guarantees.
    """
    n = len(rows)
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        best, best_size = None, None
        for i in range(col, n):
            size = aug[i][col].constant_term().abs2()
            if size != 0 and (best is None or size > best_size):
                best, best_size = i, size
        if best is None:
            raise SeriesError("series system pivot is not a unit")
        aug[col], aug[best] = aug[best], aug[col]
        inv = aug[col][col].invert_unit()
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and not aug[i][col].is_zero():
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [aug[i][n] for i in range(n)]


def series_matrix_inverse(rows):
    """Inverse of a square series matrix with invertible constant term."""
    n = len(rows)
    cols = []
    for j in range(n):
        e = [
            TruncatedSeries.constant(rows[0][0].nvars, 1 if i == j else 0, rows[i][j].order)
            for i in range(n)
        ]
        cols.append(series_solve(rows, e))
    # columns of the inverse were solved one at a time
    return [[cols[j][i] for j in range(n)] for i in range(n)]

