"""Exact linear algebra over field entries and over series entries.

Everything here is exact: rank, nullspace and solve decisions feed span
computations that must be tolerance-free.  The one eliminator works on
sparse rows {column: value}, pivots on the lowest nonzero column and needs
only + - * / and truth values, so it runs on CScalar and on Fraction.  A
reduced row echelon form is unique, so the pivots, reduced rows and
nullspace basis (one vector per free column) do not depend on that rule.
"""

from __future__ import annotations

from .series import CS_ONE, SeriesError, TruncatedSeries


def _subtract(row: dict, f, pivot_row: dict):
    """row -= f * pivot_row in place, dropping entries that cancel."""
    for c, x in pivot_row.items():
        v = row[c] - f * x if c in row else -f * x
        if v:
            row[c] = v
        else:
            del row[c]


def _insert(vec, echelon: dict) -> bool:
    """Reduce vec's lowest columns against echelon; store it, normalised,
    under the first lead with no echelon row.  A vec that reduces to
    nothing lies in the echelon's span: every echelon row starts at its key.
    """
    row = {c: x for c, x in enumerate(vec) if x}
    while row:
        lead = min(row)
        if lead not in echelon:
            inv = 1 / row[lead]
            echelon[lead] = {c: x * inv for c, x in row.items()}
            return True
        _subtract(row, row[lead], echelon[lead])
    return False


def reduced_echelon(rows) -> dict:
    """Reduced row echelon form of dense rows as {pivot column: row}: rows
    enter one at a time, then pivots are cleared upwards in descending order.
    """
    echelon = {}
    for row in rows:
        _insert(row, echelon)
    for p in sorted(echelon, reverse=True):
        row = echelon[p]
        for q in [q for q in row if q != p and q in echelon]:
            _subtract(row, row[q], echelon[q])
    return echelon


def rank(rows) -> int:
    return len(reduced_echelon(rows))


def nullspace(rows, ncols=None):
    """Basis of the right nullspace, one vector per free column."""
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise ValueError("ncols required for an empty matrix")
    red = reduced_echelon(rows)
    one = next((row[p] for p, row in red.items()), CS_ONE)
    basis = []
    for fc in range(ncols):
        if fc in red:
            continue
        v = [0 * one] * ncols
        v[fc] = one
        for p, row in red.items():
            if fc in row:
                v[p] = -row[fc]
        basis.append(v)
    return basis


def solve_unique(rows, rhs):
    """Solve A x = b for square invertible A; raises on singular input."""
    n = len(rows)
    red = reduced_echelon(list(r) + [b] for r, b in zip(rows, rhs))
    if sorted(red) != list(range(n)):
        raise SeriesError("singular linear system")
    return [red[i].get(n, 0 * red[i][i]) for i in range(n)]


class SpanTracker:
    """Incremental exact span of row vectors; reports dimension growth."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows = {}  # echelon: lead column -> row, 1 at its lead

    def add(self, vec) -> bool:
        """Reduce vec against the stored echelon; keep it if independent."""
        return _insert(vec, self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, vec) -> bool:
        # a vec outside the span lands in the scratch copy, not in self.rows
        return not _insert(vec, dict(self.rows))


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

