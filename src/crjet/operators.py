"""Commutator certificates for words of CR fields against one conjugate field.

In a graph frame the fields L_A commute exactly, [T, L_A] is a multiple of
T, and [L_A, L_Abar] is a function times T.  Consequently every commutator
[L^W, L_Fbar] decomposes exactly as sum_K d_K L^K T over sorted words K with
|K| < |W|, and the decomposition is computable by a two-rule recursion.
This module computes such decompositions, the resulting reduction
identities, and the weighted-word certificates solved triangularly over the
word lattice, then re-verifies everything by acting on a monomial basis
through independent operator compositions.

A certificate fails in one way only: it comes back with verified False.
That covers a failed monomial verification and a decomposition that
disagrees with its forced shape (an unexpected or missing leading word, a
leading or pivot coefficient mismatch, or residuals left by the triangular
solve).  The command line reports such a certificate as a violation, so
the check fails and the run exits 1.  The one GeometryError is a frame
with no conjugate index, for which no certificate exists.

One ``CertificateMemo`` serves the calls of ``operator_certificates`` that
are handed it, both word lengths of one verify run on the command line,
and is then dropped; it is not kept on the frame or at module level.  It reads
the Levi rows h_{FbarE} from the frame (``Frame.h``), which builds them
once, and holds the chosen conjugate index, the T-pushdown and commutator
tables, and the applications L^W(Lbar f), L^W f, [L^W, L_Fbar] f and
L^K(T f) on each basis monomial f, named by its exponents and order.
A basis monomial enters only through a frame field's derivation, whose
order is the least of f.order - 1 and the field's coefficient orders, so
its order is cut at one above the largest of those: every series stays the
same, and word lengths 2 and 3 read the same monomials.
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

from .errors import GeometryError
from .hypersurface import Frame
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


class CertificateMemo:
    """Everything one certificate computation needs more than once.

    Returned tables and series are shared between callers and must not be
    mutated.
    """

    def __init__(self, F: Frame):
        self.F = F
        # a basis monomial's order above this one never shows in a series
        self._order_cap = 1 + max(c.order for X in (F.T, *F.L, *F.Lbar)
                                  for c in X.coeffs)
        self._conjugate = None
        self._pushdowns = {}
        self._tables = {}
        self._applied = {}
        self._commutators = {}

    def conjugate_index(self) -> int:
        """Lexicographically smallest index with nonzero pairing against
        L_1."""
        if self._conjugate is None:
            for Fb in range(self.F.n):
                if not self.F.h((Fb,), 0).constant_term().is_zero():
                    self._conjugate = Fb
                    break
            else:
                raise GeometryError(
                    "no conjugate index pairs with the first field at 0; "
                    "the construction needs a nonzero first-column pairing "
                    "(reorder the frame so a nondegenerate direction comes "
                    "first)")
        return self._conjugate

    def basis_order(self, need: int, degree: int) -> int:
        """Order for basis monomials of total degree <= degree that need
        order need: cut at the order no series shows, but never below the
        degree the monomials must fit."""
        return min(need, max(self._order_cap, degree))

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
                h = self.F.h((Fbar,), head)
                for K, f in _scale_table(self.pushdown(rest), h).items():
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


def _reduction(memo: CertificateMemo, word, verify_degree):
    """[L^W, L_Fbar] = sum_E mult_E(W) h_{FbarE} L^{W - E} T - tail.

    The leading coefficients are forced exactly; the tail collects every
    shorter word of the decomposition.  A forced coefficient that is the
    zero series has no entry in the table.  A decomposition that disagrees
    with the forced leading shape is not verified.
    """
    F = memo.F
    word = _sorted_word(word)
    Fbar = memo.conjugate_index()
    m = len(word)
    table = memo.table(word, Fbar)
    leading = {}
    for E in sorted(set(word)):
        leading[_drop(word, E)] = word.count(E) * F.h((Fbar,), E)
    tail = {}
    consistent = all(K in table or c.is_zero() for K, c in leading.items())
    for K, d in table.items():
        if len(K) == m - 1:
            want = leading.get(K)
            consistent = consistent and want is not None and want.agrees(d)
        else:
            _dadd(tail, K, -d)
    verified = consistent and _verify_reduction(
        memo, word, Fbar, leading, tail, verify_degree)
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


def _weighted(memo: CertificateMemo, J, verify_degree):
    """Solve sum_W b_W [L^W, L_Fbar] = h^p L^J T with p = |J| - |J|_1 + 2.

    The system over sorted words is triangular when processed by length
    descending, then by non-1 content descending: producing the output word
    K uses the bracket word K + (1,), whose pivot coefficient
    (count_1(K) + 1) h_{Fbar1} is a unit at the origin.  A pivot
    coefficient the table does not reproduce, or a residual the solve
    leaves, makes the certificate unverified.
    """
    F = memo.F
    J = _sorted_word(J)
    Fbar = memo.conjugate_index()
    h1 = F.h((Fbar,), 0)
    p = len(J) - sum(1 for E in J if E == 0) + 2
    rhs = {J: h1 ** p}

    def order_key(K):
        return (-len(K), -sum(1 for E in K if E != 0), K)

    all_words = set()
    for length in range(len(J) + 1):
        for w in itertools.combinations_with_replacement(range(F.n), length):
            all_words.add(w)
    b_coeffs = {}
    consistent = True
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
                consistent = consistent and d.agrees(pivot)
            else:
                _dadd(rhs, K2, -(b * d))
    consistent = consistent and all(v.is_zero() for v in rhs.values())
    verified = consistent and _verify_weighted(
        memo, J, Fbar, p, b_coeffs, verify_degree)
    return CommutatorCertificate(
        kind="weighted", target=f"h[{Fbar + 1}b,1]^{p} L^{_word_label(J)} T",
        word=J, Fbar=Fbar, p=p, leading={}, tail={},
        bracket_coeffs=b_coeffs, verified=verified)


def _basis(nvars: int, degree: int, order: int):
    """Monomials of total degree <= degree at this order, as (exponents,
    order) names for CertificateMemo.word_on."""
    for total in range(degree + 1):
        for alpha in itertools.combinations_with_replacement(
                range(nvars), total):
            exps = [0] * nvars
            for v in alpha:
                exps[v] += 1
            yield tuple(exps), order


def _verify_reduction(memo: CertificateMemo, word, Fbar, leading, tail,
                      degree) -> bool:
    basis_order = memo.basis_order(degree + len(word) + 2, degree)
    terms = list(leading.items()) + [(K, -c) for K, c in tail.items()]
    for mono in _basis(2 * memo.F.n + 1, degree, basis_order):
        lhs = memo.commutator_on(word, Fbar, mono)
        rhs = dot([(c, memo.word_on(K, "T", mono)) for K, c in terms])
        if not lhs.agrees(rhs):
            return False
    return True


def _verify_weighted(memo: CertificateMemo, J, Fbar, p, b_coeffs,
                     degree) -> bool:
    nv = 2 * memo.F.n + 1
    basis_order = memo.basis_order(degree + len(J) + 3, degree)
    hp = memo.F.h((Fbar,), 0) ** p
    for mono in _basis(nv, degree, basis_order):
        rhs = hp * memo.word_on(J, "T", mono)
        lhs = dot([(b, memo.commutator_on(W, Fbar, mono))
                   for W, b in b_coeffs.items()], rhs.order, nv)
        if not lhs.agrees(rhs):
            return False
    return True


def operator_certificates(memo: CertificateMemo, m: int, verify_degree: int):
    """Certificates for every sorted word of length m and target of length
    m - 1 on the memo's frame: the reduction identities and the
    weighted-word identities, each verified on the monomial basis up to
    verify_degree.  The memo may serve other calls on the same frame."""
    if m < 1:
        raise OrderExhausted("word length must be at least 1")
    F = memo.F
    # the Levi row differentiates theta once and a word of length m applies
    # m - 1 more fields to it
    if F.order < m:
        # without a conjugate index there is no certificate at any order;
        # say so wherever the Levi row is known
        if F.order >= 1:
            memo.conjugate_index()
        raise OrderExhausted(f"operator certificates of word length {m} "
                             f"need frame order {m}, frame has {F.order}")
    certs = []
    for word in itertools.combinations_with_replacement(range(F.n), m):
        certs.append(_reduction(memo, word, verify_degree))
    for J in itertools.combinations_with_replacement(range(F.n), m - 1):
        certs.append(_weighted(memo, J, verify_degree))
    return certs
