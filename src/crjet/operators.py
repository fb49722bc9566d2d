"""Commutator certificates for words of CR fields against one conjugate field.

In a graph frame the fields L_A commute exactly, [T, L_A] is a multiple of
T, and [L_A, L_Abar] is a function times T.  Consequently every commutator
[L^W, L_Fbar] decomposes exactly as sum_K d_K L^K T over sorted words K with
|K| < |W|, and the decomposition is computable by a two-rule recursion.
This module computes such decompositions, the resulting reduction
identities, and the weighted-word certificates solved triangularly over the
word lattice, then re-verifies everything by acting on a monomial basis
through independent operator compositions.

One ``_Memo`` lives for one call of ``operator_certificates`` and is then
dropped; it is not kept on the frame or at module level.  It holds the
h rows of the characteristic two-form, the chosen conjugate index, the
T-pushdown and commutator tables, and the applications L^W(Lbar f), L^W f,
[L^W, L_Fbar] f and L^K(T f) on each basis monomial f, named by its
exponents and order.
Tables and applications are memoized by the exact suffix of the word:
L^(w0, rest) f = L_w0(L^rest f), never re-sorted through the commutativity
of the L fields, so every series is the same composition, in the same order,
that an unmemoized evaluation would build.  The verification stays
independent of the tables: its left side composes the frame fields
directly and never reads a table, so a wrong table still fails it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .hypersurface import Frame, GeometryError, exterior_derivative
from .series import OrderExhausted, TruncatedSeries, dot


def _sorted_word(word):
    return tuple(sorted(word))


def _dadd(table: dict, key, series: TruncatedSeries):
    cur = table.get(key)
    out = series if cur is None else cur + series
    if out.is_zero():
        table.pop(key, None)
    else:
        table[key] = out


def _scale_table(table: dict, factor) -> dict:
    out = {}
    for key, series in table.items():
        _dadd(out, key, factor * series)
    return out


def _left_compose(F: Frame, E: int, table: dict) -> dict:
    """Table for L_E composed with sum_K f_K L^K T."""
    out = {}
    for K, f in table.items():
        _dadd(out, _sorted_word(K + (E,)), f)
        _dadd(out, K, F.L[E].apply(f))
    return out


class _Memo:
    """Everything one certificate computation needs more than once.

    Returned tables and series are shared between callers and must not be
    mutated.
    """

    def __init__(self, F: Frame):
        self.F = F
        self._two_form = None
        self._h_rows = {}
        self._conjugate = None
        self._pushdowns = {}
        self._tables = {}
        self._applied = {}
        self._commutators = {}

    def h_row(self, Fbar: int):
        """Series h_{FbarE} for all E, via the characteristic two-form."""
        row = self._h_rows.get(Fbar)
        if row is None:
            F = self.F
            if self._two_form is None:
                self._two_form = exterior_derivative(F.theta)
            row = [self._two_form(F.Lbar[Fbar], F.L[E]) for E in range(F.n)]
            self._h_rows[Fbar] = row
        return row

    def conjugate_index(self) -> int:
        """Lexicographically smallest index with nonzero pairing against
        L_1."""
        if self._conjugate is None:
            for Fb in range(self.F.n):
                if not self.h_row(Fb)[0].constant_term().is_zero():
                    self._conjugate = Fb
                    break
            else:
                raise GeometryError(
                    "no conjugate index pairs with the first field at 0; "
                    "the construction needs a nonzero first-column pairing "
                    "(reorder the frame so a nondegenerate direction comes "
                    "first)")
        return self._conjugate

    def pushdown(self, word: tuple) -> dict:
        """T composed with L^word, rewritten as sum_K f_K L^K T."""
        out = self._pushdowns.get(word)
        if out is None:
            F = self.F
            if not word:
                out = {(): TruncatedSeries.constant(2 * F.n + 1, 1, F.order)}
            else:
                head, rest = word[0], word[1:]
                inner = self.pushdown(rest)
                out = _left_compose(F, head, inner)
                # [T, L_head] is the s-derivative of L_head's transverse
                # coefficient times T
                c_head = F.L[head].coeffs[2 * F.n].derive(2 * F.n)
                if not c_head.is_zero():
                    for K, f in _scale_table(inner, c_head).items():
                        _dadd(out, K, f)
            self._pushdowns[word] = out
        return out

    def table(self, word: tuple, Fbar: int) -> dict:
        """[L^word, L_Fbar] as sum_K d_K L^K T."""
        key = (word, Fbar)
        out = self._tables.get(key)
        if out is None:
            if not word:
                out = {}
            else:
                head, rest = word[0], word[1:]
                out = _left_compose(self.F, head, self.table(rest, Fbar))
                for K, f in _scale_table(self.pushdown(rest),
                                         self.h_row(Fbar)[head]).items():
                    _dadd(out, K, f)
            self._tables[key] = out
        return out

    def word_on(self, word: tuple, base, mono) -> TruncatedSeries:
        """L^word applied to f (base None), to T f (base "T") or to
        Lbar_base f (an integer base), where the basis monomial f is named
        by mono = (exponents, order)."""
        key = (word, base, mono)
        out = self._applied.get(key)
        if out is None:
            F = self.F
            if word:
                out = F.L[word[0]].apply(self.word_on(word[1:], base, mono))
            elif base is None:
                exps, order = mono
                out = TruncatedSeries(len(exps), order, {exps: 1})
            else:
                f = self.word_on((), None, mono)
                out = F.T.apply(f) if base == "T" else F.Lbar[base].apply(f)
            self._applied[key] = out
        return out

    def commutator_on(self, word: tuple, Fbar: int, mono) -> TruncatedSeries:
        """[L^word, L_Fbar] f by direct composition, never from a table."""
        key = (word, Fbar, mono)
        out = self._commutators.get(key)
        if out is None:
            out = self.word_on(word, Fbar, mono) \
                - self.F.Lbar[Fbar].apply(self.word_on(word, None, mono))
            self._commutators[key] = out
        return out


@dataclass(frozen=True)
class CommutatorCertificate:
    """Solved operator identity with its coefficient tables.

    kind "reduction": mult-weighted leading words of [L^W, L_Fbar] with the
    lower-order tail moved to the other side.  kind "weighted": a single
    bracket combination equal to h^p L^J T.
    """

    kind: str
    target: str
    word: tuple
    Fbar: int
    p: int
    leading: dict
    tail: dict
    bracket_coeffs: dict
    verified: bool


def _reduction(memo: _Memo, word, Fbar, verify_degree):
    """[L^W, L_Fbar] = sum_E mult_E(W) h_{FbarE} L^{W - E} T - tail.

    The leading coefficients are forced exactly; the tail collects every
    shorter word of the decomposition.  A forced coefficient that is the
    zero series has no entry in the table.  Raises when the decomposition
    disagrees with the forced leading shape (a build bug, not a data error).
    """
    F = memo.F
    word = _sorted_word(word)
    if Fbar is None:
        Fbar = memo.conjugate_index()
    m = len(word)
    table = memo.table(word, Fbar)
    h_row = memo.h_row(Fbar)
    leading = {}
    for E in sorted(set(word)):
        shorter = list(word)
        shorter.remove(E)
        leading[tuple(shorter)] = word.count(E) * h_row[E]
    tail = {}
    for K, d in table.items():
        if len(K) == m - 1:
            want = leading.get(K)
            if want is None:
                raise GeometryError(f"unexpected leading word {K}")
            if not want.agrees(d):
                raise GeometryError(f"leading coefficient mismatch at {K}")
        else:
            _dadd(tail, K, -d)
    for K in leading:
        if K not in table and not leading[K].is_zero():
            raise GeometryError(f"missing leading word {K}")
    verified = False
    if verify_degree is not None:
        verified = _verify_reduction(memo, word, Fbar, leading, tail,
                                     verify_degree)
        if not verified:
            raise GeometryError("reduction failed monomial verification")
    label = " + ".join(
        f"{word.count(E)}*h[{Fbar + 1}b,{E + 1}] L^{_word_label(_drop(word, E))} T"
        for E in sorted(set(word)))
    one = TruncatedSeries.constant(2 * F.n + 1, 1, F.order)
    return CommutatorCertificate(
        kind="reduction", target=label, word=word, Fbar=Fbar, p=1,
        leading=leading, tail=tail, bracket_coeffs={word: one},
        verified=verified)


def _drop(word, E):
    out = list(word)
    out.remove(E)
    return tuple(out)


def _word_label(word):
    return "(" + ",".join(str(E + 1) for E in word) + ")"


def _weighted(memo: _Memo, J, Fbar, verify_degree):
    """Solve sum_W b_W [L^W, L_Fbar] = h^p L^J T with p = |J| - |J|_1 + 2.

    The system over sorted words is triangular when processed by length
    descending, then by non-1 content descending: producing the output word
    K uses the bracket word K + (1,), whose pivot coefficient
    (count_1(K) + 1) h_{Fbar1} is a unit at the origin.
    """
    F = memo.F
    J = _sorted_word(J)
    if Fbar is None:
        Fbar = memo.conjugate_index()
    h1 = memo.h_row(Fbar)[0]
    if h1.constant_term().is_zero():
        raise GeometryError("pivot pairing vanishes at 0 for this index")
    p = len(J) - sum(1 for E in J if E == 0) + 2

    target = h1
    for _ in range(p - 1):
        target = target * h1
    rhs = {J: target}

    def order_key(K):
        return (-len(K), -sum(1 for E in K if E != 0), K)

    all_words = set()
    for length in range(len(J) + 1):
        for w in itertools.combinations_with_replacement(range(F.n), length):
            all_words.add(w)
    b_coeffs = {}
    for K in sorted(all_words, key=order_key):
        resid = rhs.pop(K, None)
        if resid is None or resid.is_zero():
            continue
        pivot_word = _sorted_word(K + (0,))
        pivot = (K.count(0) + 1) * h1
        b = resid * pivot.invert_unit()
        _dadd(b_coeffs, pivot_word, b)
        for K2, d in memo.table(pivot_word, Fbar).items():
            if K2 == K:
                if not d.agrees(pivot):
                    raise GeometryError(f"pivot coefficient mismatch at {K}")
            else:
                _dadd(rhs, K2, -(b * d))
    leftovers = {K: v for K, v in rhs.items() if not v.is_zero()}
    if leftovers:
        raise GeometryError(f"triangular solve left residuals at "
                            f"{sorted(leftovers)}")
    verified = False
    if verify_degree is not None:
        verified = _verify_weighted(memo, J, Fbar, p, b_coeffs,
                                    verify_degree)
        if not verified:
            raise GeometryError("certificate failed monomial verification")
    return CommutatorCertificate(
        kind="weighted", target=f"h[{Fbar + 1}b,1]^{p} L^{_word_label(J)} T",
        word=J, Fbar=Fbar, p=p, leading={}, tail={},
        bracket_coeffs=b_coeffs, verified=verified)


def _basis(nvars: int, degree: int, order: int):
    """Monomials of total degree <= degree at this order, as (exponents,
    order) names for _Memo.word_on."""
    for total in range(degree + 1):
        for alpha in itertools.combinations_with_replacement(
                range(nvars), total):
            exps = [0] * nvars
            for v in alpha:
                exps[v] += 1
            yield tuple(exps), order


def _verify_reduction(memo: _Memo, word, Fbar, leading, tail,
                      degree) -> bool:
    basis_order = degree + len(word) + 2
    terms = list(leading.items()) + [(K, -c) for K, c in tail.items()]
    for mono in _basis(2 * memo.F.n + 1, degree, basis_order):
        lhs = memo.commutator_on(word, Fbar, mono)
        rhs = dot([(c, memo.word_on(K, "T", mono)) for K, c in terms])
        if not lhs.agrees(rhs):
            return False
    return True


def _verify_weighted(memo: _Memo, J, Fbar, p, b_coeffs, degree) -> bool:
    nv = 2 * memo.F.n + 1
    basis_order = degree + len(J) + 3
    h1 = memo.h_row(Fbar)[0]
    hp = TruncatedSeries.constant(nv, 1, h1.order)
    for _ in range(p):
        hp = hp * h1
    for mono in _basis(nv, degree, basis_order):
        rhs = hp * memo.word_on(J, "T", mono)
        lhs = dot([(b, memo.commutator_on(W, Fbar, mono))
                   for W, b in b_coeffs.items()], rhs.order, nv)
        if not lhs.agrees(rhs):
            return False
    return True


def operator_certificates(F: Frame, m: int, Fbar=None, verify_degree=None):
    """Certificates for every sorted word of length m and target of length
    m - 1: the reduction identities and the weighted-word identities."""
    if m < 1:
        raise OrderExhausted("word length must be at least 1")
    memo = _Memo(F)
    certs = []
    for word in itertools.combinations_with_replacement(range(F.n), m):
        certs.append(_reduction(memo, word, Fbar, verify_degree))
    for J in itertools.combinations_with_replacement(range(F.n), m - 1):
        certs.append(_weighted(memo, J, Fbar, verify_degree))
    return certs
