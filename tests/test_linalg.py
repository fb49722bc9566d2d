from __future__ import annotations

import random
from fractions import Fraction

import pytest

from crjet.linalg import (
    SpanTracker,
    nullspace,
    rank,
    reduced_echelon,
    series_matrix_inverse,
    series_solve,
    solve_unique,
)
from crjet.series import CS_ONE, CS_ZERO, CScalar, SeriesError, TruncatedSeries


def C(x, y=0):
    return CScalar(x, y)


# ---------------------------------------------------------------------------
# differential oracle: the dense kernel the sparse eliminator replaced


def _size(x):
    return x.abs2() if isinstance(x, CScalar) else x * x


def dense_rref(rows):
    """Dense reduced row echelon form, pivoting on the largest |entry|^2
    with ties to the lowest row.  Returns (new_rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        if r >= len(rows):
            break
        best, best_size = None, None
        for i in range(r, len(rows)):
            size = _size(rows[i][col])
            if size != 0 and (best is None or size > best_size):
                best, best_size = i, size
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows, pivots


def dense_nullspace(red, pivots, ncols):
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [CS_ZERO] * ncols
        v[fc] = CS_ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def dense_solve(rows, rhs):
    n = len(rows)
    red, pivots = dense_rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if pivots != list(range(n)):
        raise SeriesError("singular linear system")
    return [red[i][n] for i in range(n)]


class DenseSpan:
    """The dense incremental span the sparse SpanTracker replaced."""

    def __init__(self):
        self.rows = []

    def _reduce(self, vec):
        for row in self.rows:
            lead = next(i for i, x in enumerate(row) if x)
            if vec[lead]:
                f = vec[lead]
                vec = [a - f * b for a, b in zip(vec, row)]
        return vec

    def add(self, vec) -> bool:
        vec = self._reduce(list(vec))
        lead = next((i for i, x in enumerate(vec) if x), None)
        if lead is None:
            return False
        inv = 1 / vec[lead]
        self.rows.append([x * inv for x in vec])
        self.rows.sort(key=lambda r: next(i for i, x in enumerate(r) if x))
        return True

    def contains(self, vec) -> bool:
        return not any(self._reduce(list(vec)))


def _entry(rng, kind):
    if rng.random() < 0.6:
        return C(0) if kind == "complex" else Fraction(0)
    re = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
    if kind == "complex":
        return C(re, Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)))
    return re


def _random_matrix(rng, kind, nrows, ncols):
    rows = [[_entry(rng, kind) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and ncols > 1 and rng.random() < 0.4:
        # rank-deficient: every row a combination of a few random rows
        k = rng.randrange(1, min(nrows, ncols))
        gens = rows[:k]
        zero = rows[0][0] * 0
        rows = []
        for _ in range(nrows):
            coefs = [rng.randrange(-2, 3) for _ in range(k)]
            rows.append([sum((f * g[c] for f, g in zip(coefs, gens)), zero)
                         for c in range(ncols)])
    return rows


class TestAgainstDenseKernel:
    """Seeded differential test of the sparse eliminator against the dense
    pivoted rref it replaced: empty, tall, wide and rank-deficient
    matrices over CScalar and over Fraction."""

    CASES = 2000

    def test_random_matrices(self):
        rng = random.Random(2000)
        shapes = set()
        for case in range(self.CASES):
            kind = ("complex", "rational")[case % 2]
            nrows, ncols = rng.randrange(0, 7), rng.randrange(1, 7)
            shapes.add((nrows == 0, (nrows > ncols) - (nrows < ncols)))
            rows = _random_matrix(rng, kind, nrows, ncols)
            dense, pivots = dense_rref(rows)
            red = reduced_echelon(rows)
            assert sorted(red) == pivots
            for r, p in enumerate(pivots):
                assert [red[p].get(c, 0) for c in range(ncols)] == dense[r]
            assert rank(rows) == len(pivots)

            basis = nullspace(rows, ncols=ncols)
            assert basis == dense_nullspace(dense, pivots, ncols)
            if kind == "complex":
                assert all(isinstance(x, CScalar) for v in basis for x in v)

            if nrows == ncols:
                rhs = [_entry(rng, kind) for _ in range(nrows)]
                try:
                    want = dense_solve(rows, rhs)
                except SeriesError:
                    with pytest.raises(SeriesError):
                        solve_unique(rows, rhs)
                else:
                    got = solve_unique(rows, rhs)
                    assert got == want
                    assert kind != "complex" or all(
                        isinstance(x, CScalar) for x in got)

            tracker, oracle = SpanTracker(ncols), DenseSpan()
            for vec in rows:
                probe = _random_matrix(rng, kind, 1, ncols)[0]
                assert tracker.contains(probe) is oracle.contains(probe)
                assert tracker.add(vec) is oracle.add(vec)
                assert tracker.dim == len(oracle.rows)
        # empty, tall, square and wide shapes all occurred
        assert shapes >= {(True, -1), (False, 1), (False, 0), (False, -1)}


class TestExactRank:
    def test_rank_counts_independent_rows(self):
        rows = [[C(1), C(2)], [C(2), C(4)], [C(0), C(1)]]
        assert rank(rows) == 2

    def test_complex_entries(self):
        rows = [[C(0, 1), C(1)], [C(-1), C(0, 1)]]  # second row = i * first
        assert rank(rows) == 1

    def test_nullspace_dimension(self):
        basis = nullspace([[C(1), C(2), C(3)]])
        assert len(basis) == 2
        for vec in basis:
            s = vec[0] + C(2) * vec[1] + C(3) * vec[2]
            assert s.is_zero()

    def test_nullspace_of_full_rank_is_empty(self):
        assert nullspace([[C(1), C(0)], [C(0), C(1)]]) == []

    def test_rref_pivot_columns(self):
        rows = [[C(0), C(1)], [C(0), C(2)]]
        _, pivots = dense_rref(rows)
        assert pivots == [1]
        assert sorted(reduced_echelon(rows)) == [1]


class TestSolveUnique:
    def test_two_by_two(self):
        a = [[C(1), C(1)], [C(1), C(-1)]]
        x = solve_unique(a, [C(3), C(1)])
        assert x == [C(2), C(1)]

    def test_singular_raises(self):
        with pytest.raises(SeriesError):
            solve_unique([[C(1), C(1)], [C(2), C(2)]], [C(1), C(1)])


class TestSpanTracker:
    def test_growth_and_membership(self):
        t = SpanTracker(3)
        assert t.add([C(1), C(0), C(1)]) is True
        assert t.add([C(2), C(0), C(2)]) is False
        assert t.dim == 1
        assert t.contains([C(-1), C(0), C(-1)])
        assert not t.contains([C(0), C(1), C(0)])
        assert t.add([C(0), C(1), C(0)]) is True
        assert t.dim == 2

    def test_matches_batch_rank(self):
        rng = random.Random(20)
        vecs = []
        for _ in range(6):
            vecs.append([C(Fraction(rng.randrange(-3, 4))) for _ in range(4)])
        t = SpanTracker(4)
        for v in vecs:
            t.add(v)
        assert t.dim == rank(vecs)


def _series_matrix(rng, n, nvars, order):
    from tests.test_series import rand_series
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            s = rand_series(rng, nvars, order, terms=3)
            if i == j and s.constant_term().is_zero():
                s = s + 1
            if i != j:
                s = s - s.constant_term()  # keep diagonal dominant at the origin
            row.append(s)
        rows.append(row)
    return rows


class TestSeriesSolve:
    def test_roundtrip_against_inverse(self):
        rng = random.Random(21)
        a = _series_matrix(rng, 2, 2, 4)
        inv = series_matrix_inverse(a)
        ident = [[TruncatedSeries.constant(2, 1 if i == j else 0, 4) for j in range(2)]
                 for i in range(2)]
        for i in range(2):
            for j in range(2):
                acc = TruncatedSeries.zero(2, 4)
                for k in range(2):
                    acc = acc + a[i][k] * inv[k][j]
                assert acc == ident[i][j]

    def test_solve_reproduces_known_solution(self):
        rng = random.Random(22)
        a = _series_matrix(rng, 3, 2, 4)
        from tests.test_series import rand_series
        x = [rand_series(rng, 2, 4, terms=3) for _ in range(3)]
        rhs = []
        for i in range(3):
            acc = TruncatedSeries.zero(2, 4)
            for k in range(3):
                acc = acc + a[i][k] * x[k]
            rhs.append(acc)
        sol = series_solve(a, rhs)
        for got, want in zip(sol, x):
            assert got == want

    def test_singular_at_origin_raises(self):
        z = TruncatedSeries.variable(1, 0, 3)
        with pytest.raises(SeriesError):
            series_solve([[z]], [z])

