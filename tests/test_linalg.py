from __future__ import annotations

import random
from fractions import Fraction

import pytest

from crjet.autdim import (AutError, holomorphic_degeneracy_test,
                          infinitesimal_aut_dim, tangency_restrictions)
from crjet.linalg import (
    SpanTracker,
    nullspace,
    rank,
    series_solve,
)
from crjet.series import CS_ONE, CS_ZERO, CScalar, SeriesError, TruncatedSeries

from tests.conftest import random_model, random_nondegenerate_model


def C(x, y=0):
    return CScalar(x, y)


# ---------------------------------------------------------------------------
# differential oracle: the dense pivoted kernel


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


# ---------------------------------------------------------------------------
# differential oracle: the sparse Fraction/CScalar kernel the integer one
# replaced; rows are dense sequences of Fraction or CScalar


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
    under the first lead with no echelon row."""
    row = {c: x for c, x in enumerate(vec) if x}
    while row:
        lead = min(row)
        if lead not in echelon:
            inv = 1 / row[lead]
            echelon[lead] = {c: x * inv for c, x in row.items()}
            return True
        _subtract(row, row[lead], echelon[lead])
    return False


def ref_reduced_echelon(rows) -> dict:
    echelon = {}
    for row in rows:
        _insert(row, echelon)
    for p in sorted(echelon, reverse=True):
        row = echelon[p]
        for q in [q for q in row if q != p and q in echelon]:
            _subtract(row, row[q], echelon[q])
    return echelon


def ref_nullspace(rows, ncols):
    red = ref_reduced_echelon(rows)
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


class RefSpan:
    def __init__(self):
        self.rows = {}

    def add(self, vec) -> bool:
        return _insert(vec, self.rows)

    def contains(self, vec) -> bool:
        return not _insert(vec, dict(self.rows))


# ---------------------------------------------------------------------------
# random matrices: complex, rational, mixed int/Fraction, and big entries
# whose numerators and denominators pass 2**64

KINDS = ("complex", "rational", "mixed", "big", "bigc")
BIG = 2 ** 70


def _entry(rng, kind):
    if rng.random() < 0.6:
        return {"complex": C(0), "bigc": C(0), "mixed": 0}.get(kind,
                                                               Fraction(0))
    if kind == "mixed":
        if rng.random() < 0.5:
            return rng.randrange(-4, 5)
        return Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
    if kind in ("big", "bigc"):
        def part():
            return Fraction(rng.randrange(-BIG, BIG), rng.randrange(1, BIG))
        return C(part(), part()) if kind == "bigc" else part()
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


def _exact(rows):
    """rows with int entries as Fraction: the oracles divide with /."""
    return [[x if isinstance(x, (CScalar, Fraction)) else Fraction(x)
             for x in r] for r in rows]


def _sparse(rng, rows):
    """{column: value} rows, keeping a few explicit zeros."""
    return [{c: x for c, x in enumerate(r) if x or rng.random() < 0.2}
            for r in rows]


class TestAgainstDenseKernel:
    """Seeded differential test of the integer eliminator against the dense
    pivoted rref and against the sparse Fraction/CScalar kernel it
    replaced: empty, tall, wide and rank-deficient matrices over CScalar,
    Fraction and mixed int/Fraction, with small and with big entries, fed
    as dense rows and as {column: value} rows."""

    CASES = 2000

    def test_random_matrices(self):
        rng = random.Random(2000)
        shapes = set()
        for case in range(self.CASES):
            kind = KINDS[case % len(KINDS)]
            nrows, ncols = rng.randrange(0, 7), rng.randrange(1, 7)
            shapes.add((nrows == 0, (nrows > ncols) - (nrows < ncols)))
            rows = _random_matrix(rng, kind, nrows, ncols)
            exact = _exact(rows)
            sparse = _sparse(rng, rows)
            dense, pivots = dense_rref(exact)
            assert rank(rows) == rank(sparse) == len(pivots)

            basis = nullspace(rows, ncols=ncols)
            assert basis == dense_nullspace(dense, pivots, ncols)
            assert basis == ref_nullspace(exact, ncols)
            assert nullspace(sparse, ncols=ncols) == basis
            complex_kind = kind in ("complex", "bigc") or not rows
            want = CScalar if complex_kind else Fraction
            assert all(type(x) is want for v in basis for x in v)

            if nrows == ncols:
                # A x = b for invertible A: the nullspace of [A | b] is
                # spanned by (-x, 1), read off its cleared pivot rows
                rhs = [_entry(rng, kind) for _ in range(nrows)]
                got = nullspace([list(r) + [b] for r, b in zip(rows, rhs)],
                                ncols=ncols + 1)
                try:
                    want = dense_solve(exact, _exact([rhs])[0])
                except SeriesError:
                    assert rank(rows) < nrows
                else:
                    assert got == [[-x for x in want] + [1]]

            tracker, oracle, ref = SpanTracker(ncols), DenseSpan(), RefSpan()
            for vec, exact_vec, sparse_vec in zip(rows, exact, sparse):
                probe = _random_matrix(rng, kind, 1, ncols)[0]
                exact_probe = _exact([probe])[0]
                inside = oracle.contains(exact_probe)
                assert ref.contains(exact_probe) is inside
                assert tracker.contains(probe) is inside
                added = oracle.add(exact_vec)
                assert ref.add(exact_vec) is added
                assert tracker.add(vec if case % 2 else sparse_vec) is added
                assert tracker.dim == len(oracle.rows) == len(ref.rows)
        # empty, tall, square and wide shapes all occurred
        assert shapes >= {(True, -1), (False, 1), (False, 0), (False, -1)}

    def test_big_entries_cancel_exactly(self):
        # rows that agree up to a huge rational factor, one entry apart
        big = Fraction(3 ** 50, 7 ** 30)
        rows = [[big, 2 * big, Fraction(1, 3 ** 45)],
                [1, 2, 0],
                [C(0, 1) * big, C(0, 2) * big, 0]]
        assert rank(rows) == 2
        basis = nullspace(rows)
        assert basis == [[C(-2), C(1), C(0)]]
        assert nullspace([[big, 2 * big, 0]]) == ref_nullspace(
            [[big, 2 * big, Fraction(0)]], 3)


class TestTangencyAgainstOracle:
    """The tangency solver's basis, read back as vectors over its unknowns,
    equals the oracle's nullspace of the same equation rows: seeded
    unit-Levi and generic germs in C^2 and C^3 at degrees 1 and 2, for the
    complex and the real problem."""

    @staticmethod
    def _vector(system, Y):
        out = []
        for key in system.unknowns:
            c = Y.coeffs[key[0]].coeff(key[1])
            out.append(c if len(key) == 2 else (c.re, c.im)[key[2]])
        return out

    def test_seeded_germs(self):
        solved = set()
        for seed in range(3):
            for N in (2, 3):
                for build in (random_nondegenerate_model, random_model):
                    M = build(seed, N, 5)
                    for d in (1, 2):
                        shared = tangency_restrictions(M, d, 4)
                        for solve in (holomorphic_degeneracy_test,
                                      infinitesimal_aut_dim):
                            try:
                                system = solve(M, d, 4, restrictions=shared)
                            except AutError:
                                continue  # vacuous at this order
                            ncols = len(system.unknowns)
                            dense = [[row.get(c, 0 * x) for c in range(ncols)]
                                     for row in system.equations
                                     for x in [next(iter(row.values()))]]
                            want = ref_nullspace(dense, ncols)
                            got = [self._vector(system, Y)
                                   for Y in system.basis]
                            assert got == want
                            solved.add((N, build, d, system.kind,
                                        bool(want)))
        # every germ kind, dimension, degree and problem was solved, with
        # and without a nonzero nullspace
        assert {k[:4] for k in solved} == {
            (N, b, d, kind) for N in (2, 3)
            for b in (random_nondegenerate_model, random_model)
            for d in (1, 2) for kind in ("holomorphic", "real")}
        assert {k[4] for k in solved} == {True, False}


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
        # column 0 is the one free column
        assert nullspace(rows) == [[C(1), C(0)]]


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


# the single-column series solve that series_solve replaced, kept as the
# oracle for its many-column elimination
def ref_series_solve(rows, rhs):
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


def _unit_matrix(rng, n, nvars, order):
    """Random series matrix, invertible at 0 but with no preferred
    diagonal, so the pivot search swaps rows."""
    from tests.test_series import rand_series
    while True:
        rows = [[rand_series(rng, nvars, order, terms=3) for _ in range(n)]
                for _ in range(n)]
        if rank([[s.constant_term() for s in r] for r in rows]) == n:
            return rows


class TestSeriesSolve:
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
        [sol] = series_solve(a, [rhs])
        for got, want in zip(sol, x):
            assert got == want

    def test_singular_at_origin_raises(self):
        z = TruncatedSeries.variable(1, 0, 3)
        with pytest.raises(SeriesError):
            series_solve([[z]], [[z]])

    def test_columns_match_single_column_solves(self):
        from tests.test_series import rand_series
        rng = random.Random(23)
        cases = 0
        for n in range(1, 5):
            for ncols in range(1, 6):
                for order in range(7):
                    a = _unit_matrix(rng, n, 2, order)
                    columns = [[rand_series(rng, 2, order, terms=3)
                                for _ in range(n)] for _ in range(ncols)]
                    got = series_solve(a, columns)
                    assert len(got) == ncols
                    for col, sol in zip(columns, got):
                        assert sol == ref_series_solve(a, col)
                    cases += 1
        assert cases == 4 * 5 * 7

    def test_non_unit_pivot_raises_like_the_oracle(self):
        from tests.test_series import rand_series
        rng = random.Random(24)
        for n in range(1, 5):
            a = _unit_matrix(rng, n, 2, 3)
            # a last row that vanishes at the origin: A(0) is singular
            a[-1] = [x - x.constant_term() for x in a[-1]]
            columns = [[rand_series(rng, 2, 3) for _ in range(n)]
                       for _ in range(3)]
            with pytest.raises(SeriesError, match="pivot is not a unit"):
                ref_series_solve(a, columns[0])
            with pytest.raises(SeriesError, match="pivot is not a unit"):
                series_solve(a, columns)
