from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from crjet.autdim import AutError, infinitesimal_aut_dim
from crjet.linalg import SpanTracker, inverse, nullspace, rank
from crjet.series import (CS_ONE, CS_ZERO, CScalar, SeriesError,
                          TruncatedSeries, series_solve)

from tests.conftest import (holomorphic_oracle, random_model,
                            random_nondegenerate_model, ref_insert,
                            ref_nullspace, ref_reduced_echelon,
                            residual_system)


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
# replaced (tests/conftest.py), as an incremental span


class RefSpan:
    def __init__(self):
        self.rows = {}

    def add(self, vec) -> bool:
        return ref_insert(vec, self.rows)

    def contains(self, vec) -> bool:
        return not ref_insert(vec, dict(self.rows))


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


def _integer_rows(rows):
    """Real rows as nullspace takes them: {column: int} rows with nonzero
    values, each row scaled by the lcm of its denominators."""
    out = []
    for r in rows:
        den = lcm(*(Fraction(x).denominator for x in r))
        out.append({c: int(x * den) for c, x in enumerate(r) if x})
    return out


class TestAgainstDenseKernel:
    """Seeded differential test of the integer eliminator against the dense
    pivoted rref and against the sparse Fraction/CScalar kernel it
    replaced, on empty, tall, wide and rank-deficient matrices over
    CScalar, Fraction and mixed int/Fraction, with small and with big
    entries: rank and SpanTracker on the dense rows of every kind,
    nullspace on the {column: int} form of the real ones."""

    CASES = 2000

    def test_random_matrices(self):
        rng = random.Random(2000)
        shapes, solved = set(), set()
        for case in range(self.CASES):
            kind = KINDS[case % len(KINDS)]
            real = kind not in ("complex", "bigc")
            nrows, ncols = rng.randrange(0, 7), rng.randrange(1, 7)
            shapes.add((nrows == 0, (nrows > ncols) - (nrows < ncols)))
            rows = _random_matrix(rng, kind, nrows, ncols)
            exact = _exact(rows)
            dense, pivots = dense_rref(exact)
            assert rank(rows) == len(ref_reduced_echelon(exact)) == \
                len(pivots)

            if real:
                basis = nullspace(_integer_rows(rows), ncols)
                assert basis == dense_nullspace(dense, pivots, ncols)
                assert basis == ref_nullspace(exact, ncols)
                assert all(type(x) is Fraction for v in basis for x in v)

            if nrows == ncols and real:
                # A x = b for invertible A: the nullspace of [A | b] is
                # spanned by (-x, 1), read off its cleared pivot rows
                rhs = [_entry(rng, kind) for _ in range(nrows)]
                got = nullspace(_integer_rows(
                    [list(r) + [b] for r, b in zip(rows, rhs)]), ncols + 1)
                try:
                    want = dense_solve(exact, _exact([rhs])[0])
                except SeriesError:
                    assert rank(rows) < nrows
                else:
                    assert got == [[-x for x in want] + [1]]
                    solved.add(kind)

            tracker, oracle, ref = SpanTracker(), DenseSpan(), RefSpan()
            for vec, exact_vec in zip(rows, exact):
                probe = _random_matrix(rng, kind, 1, ncols)[0]
                exact_probe = _exact([probe])[0]
                inside = oracle.contains(exact_probe)
                assert ref.contains(exact_probe) is inside
                assert tracker.contains(probe) is inside
                added = oracle.add(exact_vec)
                assert ref.add(exact_vec) is added
                assert tracker.add(vec) is added
                assert tracker.dim == len(oracle.rows) == len(ref.rows)
        # empty, tall, square and wide shapes all occurred, and every real
        # kind solved a system
        assert shapes >= {(True, -1), (False, 1), (False, 0), (False, -1)}
        assert solved == {"rational", "mixed", "big"}

    def test_big_entries_cancel_exactly(self):
        # rows that agree up to a huge rational factor, one entry apart
        big = Fraction(3 ** 50, 7 ** 30)
        rows = [[big, 2 * big, Fraction(1, 3 ** 45)],
                [1, 2, 0],
                [C(0, 1) * big, C(0, 2) * big, 0]]
        assert rank(rows) == 2
        # the real rows scaled to integers, the last divided by i
        ints = [{0: 3 ** 95, 1: 2 * 3 ** 95, 2: 7 ** 30}, {0: 1, 1: 2},
                {0: 3 ** 50, 1: 2 * 3 ** 50}]
        assert nullspace(ints, 3) == [[Fraction(-2), Fraction(1), Fraction(0)]]
        assert nullspace([ints[2]], 3) == ref_nullspace(
            [[big, 2 * big, Fraction(0)]], 3)


class TestTangencyAgainstOracle:
    """The tangency solver's vectors equal the reference nullspace of the
    full, unhalved rows assembled from residual series, and the complex
    oracle's vectors (eliminated by the reference kernel) the dense
    kernel's nullspace of its own rows: seeded unit-Levi and generic germs
    in C^2 and C^3 at degrees 1 and 2, unweighted and with the transverse
    variable of weight 2, for the real and the complex problem."""

    def test_seeded_germs(self):
        solved = set()
        for seed in range(3):
            for N in (2, 3):
                for build in (random_nondegenerate_model, random_model):
                    M = build(seed, N, 5)
                    for d in (1, 2):
                        for weights in (None, (1,) * (N - 1) + (2,)):
                            for kind in ("holomorphic", "real"):
                                try:
                                    if kind == "real":
                                        got = list(infinitesimal_aut_dim(
                                            M, d, 4, weights).vectors)
                                        unknowns, rows = residual_system(
                                            M, d, 4, weights)
                                    else:
                                        unknowns, rows, got, _ = \
                                            holomorphic_oracle(M, d, 4,
                                                               weights)
                                except AutError:
                                    continue  # vacuous at this order
                                ncols = len(unknowns)
                                if kind == "real":
                                    want = ref_nullspace(rows, ncols)
                                else:
                                    # the oracle is the reference kernel:
                                    # check it against the dense one
                                    dense = [[row.get(c, CS_ZERO)
                                              for c in range(ncols)]
                                             for row in rows]
                                    want = dense_nullspace(
                                        *dense_rref(dense), ncols)
                                assert got == want
                                solved.add((N, build, d, weights is None,
                                            kind, bool(want)))
        # every germ kind, dimension, degree, weighting and problem was
        # solved, with and without a nonzero nullspace
        assert {k[:5] for k in solved} == {
            (N, b, d, plain, kind) for N in (2, 3)
            for b in (random_nondegenerate_model, random_model)
            for d in (1, 2) for plain in (True, False)
            for kind in ("holomorphic", "real")}
        assert {k[5] for k in solved} == {True, False}


class TestExactRank:
    def test_rank_counts_independent_rows(self):
        rows = [[C(1), C(2)], [C(2), C(4)], [C(0), C(1)]]
        assert rank(rows) == 2

    def test_complex_entries(self):
        rows = [[C(0, 1), C(1)], [C(-1), C(0, 1)]]  # second row = i * first
        assert rank(rows) == 1

    def test_nullspace_dimension(self):
        basis = nullspace([{0: 1, 1: 2, 2: 3}], 3)
        assert len(basis) == 2
        for vec in basis:
            assert vec[0] + 2 * vec[1] + 3 * vec[2] == 0

    def test_nullspace_of_full_rank_is_empty(self):
        assert nullspace([{0: 1}, {1: 1}], 2) == []

    def test_rref_pivot_columns(self):
        rows = [[C(0), C(1)], [C(0), C(2)]]
        _, pivots = dense_rref(rows)
        assert pivots == [1]
        # column 0 is the one free column
        assert nullspace([{1: 1}, {1: 2}], 2) == [[1, 0]]

    def test_empty_matrix_gives_fraction_unit_vectors(self):
        basis = nullspace([], 3)
        assert basis == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert all(type(x) is Fraction for v in basis for x in v)


class TestSpanTracker:
    def test_growth_and_membership(self):
        t = SpanTracker()
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
        t = SpanTracker()
        for v in vecs:
            t.add(v)
        assert t.dim == rank(vecs)


# ---------------------------------------------------------------------------
# inverse of a Gaussian-integer matrix, against Gauss-Jordan over Fractions


def ref_inverse(rows):
    """Inverse of a matrix of (re, im) integer pairs by Gauss-Jordan
    elimination over exact complex rationals, or None when it is
    singular: the oracle for linalg.inverse."""
    n = len(rows)
    aug = [[C(*x) for x in r] + [C(int(i == j)) for j in range(n)]
           for i, r in enumerate(rows)]
    for c in range(n):
        p = next((i for i in range(c, n) if aug[i][c] != C(0)), None)
        if p is None:
            return None
        aug[c], aug[p] = aug[p], aug[c]
        pivot = 1 / aug[c][c]
        aug[c] = [x * pivot for x in aug[c]]
        for i in range(n):
            f = aug[i][c]
            if i != c and f != C(0):
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return [r[n:] for r in aug]


def _gaussian_matrix(rng, n, parts, singular):
    """A random n x n matrix of (re, im) pairs, im = 0 unless parts is 2;
    when singular, its last row is a Gaussian-integer combination of the
    others (the zero row for n = 1)."""
    def entry():
        if rng.random() < 0.3:
            return (0, 0)
        return (rng.randint(-5, 5), rng.randint(-5, 5) if parts == 2 else 0)
    rows = [[entry() for _ in range(n)] for _ in range(n)]
    if singular:
        coefs = [entry() for _ in range(n - 1)]
        rows[-1] = [(sum(a * r[k][0] - b * r[k][1]
                         for (a, b), r in zip(coefs, rows)),
                     sum(a * r[k][1] + b * r[k][0]
                         for (a, b), r in zip(coefs, rows)))
                    for k in range(n)]
    return rows


class TestInverse:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("parts", [1, 2], ids=["real", "complex"])
    def test_random_matrices_match_the_oracle(self, n, parts):
        rng = random.Random(10 * n + parts)
        singular = non_unit = 0
        for trial in range(60):
            rows = _gaussian_matrix(rng, n, parts, trial % 4 == 3)
            want = ref_inverse(rows)
            if want is None:
                with pytest.raises(ZeroDivisionError):
                    inverse(rows)
                singular += 1
                continue
            q, m = inverse(rows)
            assert all(list(r) == sorted(r) and (0, 0) not in r.values()
                       for r in m)
            dense = [[r.get(k, (0, 0)) for k in range(n)] for r in m]
            assert [[C(*e) / q for e in r] for r in dense] == want
            for i in range(n):
                for k in range(n):
                    re = sum(a * rows[j][k][0] - b * rows[j][k][1]
                             for j, (a, b) in enumerate(dense[i]))
                    im = sum(a * rows[j][k][1] + b * rows[j][k][0]
                             for j, (a, b) in enumerate(dense[i]))
                    assert (re, im) == (q * (i == k), 0)
            # q is the least denominator: no prime divides it and all of M
            assert q > 0 and gcd(q, *(x for r in dense for e in r
                                        for x in e)) == 1
            if parts == 1:
                assert all(im == 0 for r in dense for _, im in r)
            non_unit += q > 1
        assert singular >= 15 and non_unit > 0


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


# Gauss-Jordan elimination over the series ring, one column at a time,
# kept as the oracle for the degree-by-degree series_solve: each pivot is
# the unit of largest |constant term|^2 in its column, and its row is
# multiplied by the pivot's inverse
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


def _unit_matrix(rng, n, nvars, order, terms=3):
    """Random series matrix, invertible at 0 but with no preferred
    diagonal, so the pivot search swaps rows."""
    from tests.test_series import rand_series
    while True:
        rows = [[rand_series(rng, nvars, order, terms=terms)
                 for _ in range(n)] for _ in range(n)]
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

    def test_dependent_rows_at_the_origin_raise_like_the_oracle(self):
        from tests.test_series import rand_series
        rng = random.Random(25)
        for n in (2, 3, 4):
            a = _unit_matrix(rng, n, 2, 3)
            # the last row is nonzero at 0 but a multiple of the first there
            lam = C(Fraction(rng.randrange(1, 5), rng.randrange(1, 4)),
                    rng.randrange(-2, 3))
            a[-1] = [y - y.constant_term() + lam * x.constant_term()
                     for x, y in zip(a[0], a[-1])]
            assert any(not y.constant_term().is_zero() for y in a[-1])
            columns = [[rand_series(rng, 2, 3) for _ in range(n)]]
            with pytest.raises(SeriesError, match="pivot is not a unit"):
                ref_series_solve(a, columns[0])
            with pytest.raises(SeriesError, match="pivot is not a unit"):
                series_solve(a, columns)

    @pytest.mark.parametrize("n, nvars", [(2, 3), (3, 3), (2, 5), (3, 5)])
    def test_dense_systems_match_the_oracle(self, n, nvars):
        from tests.test_series import rand_series
        rng = random.Random(26 + 10 * n + nvars)
        for order in (1, 3, 6):
            a = _unit_matrix(rng, n, nvars, order, terms=20)
            columns = [[rand_series(rng, nvars, order, terms=20)
                        for _ in range(n)] for _ in range(2)]
            for col, sol in zip(columns, series_solve(a, columns)):
                assert sol == ref_series_solve(a, col)

    def test_one_by_one_is_invert_unit(self):
        from tests.test_series import rand_series
        rng = random.Random(27)
        for nvars in (1, 2, 3, 5):
            for order in range(7):
                g = rand_series(rng, nvars, order)
                if g.constant_term().is_zero():
                    g = g + 1
                one = TruncatedSeries.constant(nvars, 1, order)
                assert series_solve([[g]], [[one]]) == [[g.invert_unit()]]

    def test_mixed_orders_agree_with_the_oracle_up_to_the_least(self):
        from tests.test_series import rand_series
        rng = random.Random(28)
        for n in (1, 2, 3):
            for _ in range(15):
                a = [[s.truncate(rng.randrange(7)) for s in r]
                     for r in _unit_matrix(rng, n, 2, 6)]
                col = [rand_series(rng, 2, rng.randrange(7))
                       for _ in range(n)]
                least = min(s.order for s in [*sum(a, []), *col])
                [got] = series_solve(a, [col])
                for x, want in zip(got, ref_series_solve(a, col)):
                    assert x.order == least <= want.order
                    assert x == want.truncate(least)

    def test_block_diagonal_orders(self):
        # Gauss-Jordan keeps each block's order; the solver gives every
        # unknown the least order of the matrix, with the same values
        x = TruncatedSeries.variable(1, 0, 5)
        zero, one = TruncatedSeries.zero(1, 5), 1 + 0 * x
        a = [[1 + x, zero], [zero, (2 + x).truncate(3)]]
        want = ref_series_solve(a, [one, one])
        [got] = series_solve(a, [[one, one]])
        assert [s.order for s in want] == [5, 3]
        assert [s.order for s in got] == [3, 3]
        assert all(g == w.truncate(3) for g, w in zip(got, want))

    def test_malformed_systems_raise(self):
        a = TruncatedSeries.constant(2, 2, 3)
        with pytest.raises(SeriesError, match=r"1 rows of lengths \[2\]"):
            series_solve([[a, a]], [[a]])
        with pytest.raises(SeriesError, match=r"columns of lengths \[2\]"):
            series_solve([[a]], [[a, a]])
        with pytest.raises(SeriesError, match="nvars mismatch"):
            series_solve([[a]], [[TruncatedSeries.constant(3, 2, 3)]])
        assert series_solve([], [[], []]) == [[], []]
        assert series_solve([[a]], []) == []
