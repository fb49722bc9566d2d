from __future__ import annotations

import itertools
from dataclasses import fields

import pytest

from crjet import operators
from crjet.hypersurface import (Frame, GeometryError, build_frame,
                                exterior_derivative, from_defining)
from crjet.operators import (
    CommutatorCertificate,
    _basis,
    _dadd,
    _drop,
    _left_compose,
    _Memo,
    _reduction,
    _scale_table,
    _sorted_word,
    _verify_reduction,
    _verify_weighted,
    _weighted,
    _word_label,
    operator_certificates,
)
from crjet.series import CScalar, TruncatedSeries
from tests.conftest import (
    heisenberg_rho,
    m2_rho,
    m3_rho,
    m4_rho,
    random_model,
    random_nondegenerate_model,
)


def frame_for(rho, N):
    return build_frame(from_defining(rho, N))


class TestCommutatorTable:
    def test_single_letter_is_levi_row(self):
        F = frame_for(heisenberg_rho(2, 8), 2)
        table = _Memo(F).table((0,), 0)
        assert set(table) == {()}
        assert table[()].constant_term() == CScalar(0, -2)

    def test_matches_direct_application(self):
        # the decomposition [L^W, L_Fb] = sum d_K L^K T holds as operators,
        # not just at the origin; probe it on a few series
        F = build_frame(random_model(400, 2, 7))
        for word in [(0,), (0, 0), (0, 0, 0)]:
            table = _Memo(F).table(word, 0)
            for mono in [(1, 0, 0), (0, 1, 0), (1, 1, 1)]:
                f = monomial(F, mono)
                lhs = apply_commutator(F, word, 0, f)
                rhs = apply_table(F, table, f)
                assert lhs.agrees(rhs)

    def test_mixed_letters(self):
        F = build_frame(random_model(401, 3, 7))
        table = _Memo(F).table((0, 1), 1)
        f = monomial(F, (0, 1, 0, 0, 1))
        assert apply_commutator(F, (0, 1), 1, f).agrees(
            apply_table(F, table, f))


def monomial(F, exps):
    order = F.order - 1
    return TruncatedSeries(len(exps), order, {tuple(exps): CScalar(1)})


class TestChooseConjugateIndex:
    def test_heisenberg(self):
        F = frame_for(heisenberg_rho(3, 6), 3)
        assert _Memo(F).conjugate_index() == 0

    def test_degenerate_origin_raises(self):
        F = frame_for(m2_rho(6), 2)
        with pytest.raises(GeometryError):
            _Memo(F).conjugate_index()

    def test_zero_levi_raises(self):
        F = frame_for(m4_rho(6), 3)
        with pytest.raises(GeometryError):
            _Memo(F).conjugate_index()


class TestBracketReduction:
    def test_heisenberg_pure_word(self):
        F = frame_for(heisenberg_rho(2, 8), 2)
        cert = _reduction(_Memo(F), (0, 0), 4)
        assert cert.verified
        assert cert.p == 1
        assert set(cert.leading) == {(0,)}
        lead = cert.leading[(0,)]
        h11 = F.words.h((0,), 0)
        assert lead.agrees(2 * h11)

    def test_mixed_word_leading_shape(self):
        # length-two word with distinct letters: both drop-one words carry
        # the matching Levi entry
        F = build_frame(random_nondegenerate_model(410, 3, 8))
        Fb = _Memo(F).conjugate_index()
        cert = _reduction(_Memo(F), (0, 1), 3)
        assert cert.verified
        assert set(cert.leading) == {(0,), (1,)}
        assert cert.leading[(1,)].agrees(F.words.h((Fb,), 0))
        assert cert.leading[(0,)].agrees(F.words.h((Fb,), 1))

    def test_three_letter_multiplicity(self):
        F = build_frame(random_nondegenerate_model(411, 2, 8))
        cert = _reduction(_Memo(F), (0, 0, 0), 3)
        assert cert.verified
        assert cert.leading[(0, 0)].agrees(3 * F.words.h((0,), 0))

    def test_verification_on_monomials(self):
        for seed, N in [(412, 2), (413, 3)]:
            F = build_frame(random_nondegenerate_model(seed, N, 7))
            cert = _reduction(_Memo(F), (0,) * 2, 4)
            assert cert.verified


class TestWeightedCertificate:
    def test_heisenberg_single_letter(self):
        F = frame_for(heisenberg_rho(2, 8), 2)
        cert = _weighted(_Memo(F), (0,), 5)
        assert cert.verified
        assert cert.p == 2
        assert cert.word == (0,)

    def test_weight_counts_nonminimal_letters(self):
        F = build_frame(random_nondegenerate_model(420, 3, 8))
        c1 = _weighted(_Memo(F), (0, 0), 3)
        c2 = _weighted(_Memo(F), (0, 1), 3)
        c3 = _weighted(_Memo(F), (1, 1), 3)
        assert (c1.p, c2.p, c3.p) == (2, 3, 4)
        assert c1.verified and c2.verified and c3.verified

    def test_bracket_words_cover_lengths(self):
        F = frame_for(heisenberg_rho(2, 8), 2)
        cert = _weighted(_Memo(F), (0, 0), 4)
        assert cert.verified
        lengths = {len(w) for w in cert.bracket_coeffs}
        assert max(lengths) == 3

    def test_random_models(self):
        for seed in (421, 422):
            F = build_frame(random_nondegenerate_model(seed, 2, 8))
            cert = _weighted(_Memo(F), (0, 0), 3)
            assert cert.verified


class TestOperatorCertificates:
    def test_heisenberg_m2(self):
        F = frame_for(heisenberg_rho(2, 8), 2)
        certs = operator_certificates(F, 2, 5)
        kinds = {c.kind for c in certs}
        assert kinds == {"reduction", "weighted"}
        assert all(c.verified for c in certs)

    def test_heisenberg_m3(self):
        F = frame_for(heisenberg_rho(2, 8), 2)
        certs = operator_certificates(F, 3, 5)
        assert all(c.verified for c in certs)

    def test_two_variable_m2(self):
        F = frame_for(m3_rho(8), 3)
        certs = operator_certificates(F, 2, 3)
        assert len(certs) == 3 + 2  # words of length 2, weights of length 1
        assert all(c.verified for c in certs)


# ----------------------------------------------------------------------
# reference: the unmemoized certificate path, kept as the differential
# oracle for the per-call memo in crjet.operators.  Every table, h row and
# monomial application is rebuilt where it is needed.


def apply_word(F, word, f: TruncatedSeries) -> TruncatedSeries:
    """L^word f, the last letter applied first."""
    for E in reversed(tuple(word)):
        f = F.L[E].apply(f)
    return f


def apply_table(F, table: dict, f: TruncatedSeries) -> TruncatedSeries:
    """sum_K d_K L^K T f for a table {K: d_K}."""
    tf = F.T.apply(f)
    out = None
    for K, coeff in sorted(table.items()):
        term = coeff * apply_word(F, K, tf)
        out = term if out is None else out + term
    if out is None:
        return TruncatedSeries.zero(f.nvars, f.order - 1)
    return out


def apply_commutator(F, word, Fbar: int,
                     f: TruncatedSeries) -> TruncatedSeries:
    """[L^word, L_Fbar] f by direct composition; independent of the tables."""
    return apply_word(F, word, F.Lbar[Fbar].apply(f)) \
        - F.Lbar[Fbar].apply(apply_word(F, word, f))


def _ref_t_pushdown(F, word: tuple, _memo: dict) -> dict:
    """T composed with L^word, rewritten as sum_K f_K L^K T."""
    word = tuple(word)
    if word in _memo:
        return _memo[word]
    nv = 2 * F.n + 1
    if not word:
        out = {(): TruncatedSeries.constant(nv, 1, F.order)}
    else:
        head, rest = word[0], word[1:]
        inner = _ref_t_pushdown(F, rest, _memo)
        out = _left_compose(F, head, inner)
        # [T, L_head] is the s-derivative of L_head's transverse coefficient
        # times T
        c_head = F.L[head].coeffs[2 * F.n].derive(2 * F.n)
        if not c_head.is_zero():
            for K, f in _scale_table(inner, c_head).items():
                _dadd(out, K, f)
    _memo[word] = out
    return out


def _ref_h_row(F, Fbar: int):
    """Series h_{FbarE} for all E, via the characteristic two-form."""
    ev = exterior_derivative(F.theta)
    return [ev(F.Lbar[Fbar], F.L[E]) for E in range(F.n)]


def ref_commutator_table(F, word, Fbar: int) -> dict:
    """Exact decomposition of [L^word, L_Fbar] as sum_K d_K L^K T."""
    word = tuple(word)
    h_row = _ref_h_row(F, Fbar)
    memo = {}

    def rec(w):
        if not w:
            return {}
        head, rest = w[0], w[1:]
        out = _left_compose(F, head, rec(rest))
        for K, f in _scale_table(_ref_t_pushdown(F, rest, memo),
                                 h_row[head]).items():
            _dadd(out, K, f)
        return out

    return rec(word)


def ref_choose_conjugate_index(F):
    """Lexicographically smallest index with nonzero pairing against L_1."""
    h_at0 = [_ref_h_row(F, Fb)[0].constant_term() for Fb in range(F.n)]
    for Fb, val in enumerate(h_at0):
        if not val.is_zero():
            return Fb
    raise GeometryError(
        "no conjugate index pairs with the first field at 0; "
        "the construction needs a nonzero first-column pairing "
        "(reorder the frame so a nondegenerate direction comes first)")


def ref_bracket_reduction(F, word, verify_degree):
    word = _sorted_word(word)
    Fbar = ref_choose_conjugate_index(F)
    m = len(word)
    table = ref_commutator_table(F, word, Fbar)
    h_row = _ref_h_row(F, Fbar)
    leading = {}
    for E in sorted(set(word)):
        shorter = list(word)
        shorter.remove(E)
        leading[tuple(shorter)] = word.count(E) * h_row[E]
    tail = {}
    consistent = True
    for K, d in table.items():
        if len(K) == m - 1:
            want = leading.get(K)
            if want is None:
                consistent = False  # unexpected leading word
                continue
            o = min(want.order, d.order)
            if want.truncate(o) != d.truncate(o):
                consistent = False  # leading coefficient mismatch
        else:
            _dadd(tail, K, -d)
    for K in leading:
        if K not in table and not leading[K].is_zero():
            consistent = False  # missing leading word
    verified = consistent and _ref_verify_reduction(
        F, word, Fbar, leading, tail, verify_degree)
    label = " + ".join(
        f"{word.count(E)}*h[{Fbar + 1}b,{E + 1}] L^{_word_label(_drop(word, E))} T"
        for E in sorted(set(word)))
    one = TruncatedSeries.constant(2 * F.n + 1, 1, F.order)
    return CommutatorCertificate(
        kind="reduction", target=label, word=word, Fbar=Fbar, p=1,
        leading=leading, tail=tail, bracket_coeffs={word: one},
        verified=verified)


def ref_weighted_certificate(F, J, verify_degree):
    J = _sorted_word(J)
    Fbar = ref_choose_conjugate_index(F)
    h_row = _ref_h_row(F, Fbar)
    p = len(J) - sum(1 for E in J if E == 0) + 2

    h1 = h_row[0]
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
    consistent = True
    for K in sorted(all_words, key=order_key):
        resid = rhs.pop(K, None)
        if resid is None or resid.is_zero():
            continue
        pivot_word = _sorted_word(K + (0,))
        pivot = (K.count(0) + 1) * h1
        b = resid * pivot.invert_unit()
        _dadd(b_coeffs, pivot_word, b)
        for K2, d in ref_commutator_table(F, pivot_word, Fbar).items():
            if K2 == K:
                o = min(d.order, pivot.order)
                if d.truncate(o) != pivot.truncate(o):
                    consistent = False  # pivot coefficient mismatch
            else:
                _dadd(rhs, K2, -(b * d))
    if any(not v.is_zero() for v in rhs.values()):
        consistent = False  # the triangular solve left residuals
    verified = consistent and _ref_verify_weighted(
        F, J, Fbar, p, b_coeffs, verify_degree)
    return CommutatorCertificate(
        kind="weighted", target=f"h[{Fbar + 1}b,1]^{p} L^{_word_label(J)} T",
        word=J, Fbar=Fbar, p=p, leading={}, tail={},
        bracket_coeffs=b_coeffs, verified=verified)


def _ref_monomials(nvars: int, degree: int, order: int):
    for total in range(degree + 1):
        for alpha in itertools.combinations_with_replacement(
                range(nvars), total):
            exps = [0] * nvars
            for v in alpha:
                exps[v] += 1
            yield TruncatedSeries(nvars, order, {tuple(exps): 1})


def _ref_verify_reduction(F, word, Fbar, leading, tail, degree) -> bool:
    nv = 2 * F.n + 1
    basis_order = degree + len(word) + 2
    for mono in _ref_monomials(nv, degree, basis_order):
        lhs = apply_commutator(F, word, Fbar, mono)
        tf = F.T.apply(mono)
        rhs = None
        for K, coeff in sorted(leading.items()):
            term = coeff * apply_word(F, K, tf)
            rhs = term if rhs is None else rhs + term
        for K, coeff in sorted(tail.items()):
            rhs = rhs - coeff * apply_word(F, K, tf)
        if not lhs.agrees(rhs):
            return False
    return True


def _ref_verify_weighted(F, J, Fbar, p, b_coeffs, degree) -> bool:
    nv = 2 * F.n + 1
    basis_order = degree + len(J) + 3
    h1 = _ref_h_row(F, Fbar)[0]
    hp = TruncatedSeries.constant(nv, 1, h1.order)
    for _ in range(p):
        hp = hp * h1
    for mono in _ref_monomials(nv, degree, basis_order):
        lhs = None
        for W, b in sorted(b_coeffs.items()):
            term = b * apply_commutator(F, W, Fbar, mono)
            lhs = term if lhs is None else lhs + term
        rhs = hp * apply_word(F, J, F.T.apply(mono))
        if lhs is None:
            lhs = TruncatedSeries.zero(nv, rhs.order)
        if not lhs.agrees(rhs):
            return False
    return True


def ref_operator_certificates(F, m, verify_degree):
    certs = []
    for word in itertools.combinations_with_replacement(range(F.n), m):
        certs.append(ref_bracket_reduction(F, word, verify_degree))
    for J in itertools.combinations_with_replacement(range(F.n), m - 1):
        certs.append(ref_weighted_certificate(F, J, verify_degree))
    return certs


def outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except GeometryError as exc:
        return "error", str(exc)


def assert_same_certificates(got, want, context):
    assert len(got) == len(want), context
    for g, w in zip(got, want):
        for f in fields(CommutatorCertificate):
            a, b = getattr(g, f.name), getattr(w, f.name)
            if isinstance(b, dict):
                assert sorted(a) == sorted(b), (context, f.name)
                for key in b:
                    assert a[key] == b[key], (context, f.name, key)
            else:
                assert a == b, (context, f.name)


class TestAgainstUnmemoizedPath:
    def test_random_models(self):
        checked = errors = 0
        for seed, maker in ((440, random_model),
                            (441, random_nondegenerate_model),
                            (442, random_model),
                            (443, random_nondegenerate_model)):
            for N, order in ((2, 7), (3, 6)):
                F = build_frame(maker(seed, N, order))
                for m in (1, 2, 3):
                    for degree in (1, 2, 3):
                        context = (seed, N, m, degree)
                        got = outcome(operator_certificates, F, m, degree)
                        want = outcome(ref_operator_certificates, F, m,
                                       degree)
                        assert got[0] == want[0], context
                        if want[0] == "error":
                            assert got[1] == want[1], context
                            errors += 1
                        else:
                            assert_same_certificates(got[1], want[1],
                                                     context)
                            checked += 1
        assert checked and errors

    def test_no_pairing_index_message(self):
        F = frame_for(m2_rho(6), 2)
        got = outcome(operator_certificates, F, 2, 2)
        want = outcome(ref_operator_certificates, F, 2, 2)
        assert got[0] == want[0] == "error"
        assert got[1] == want[1]
        assert outcome(_Memo(F).conjugate_index) == \
            outcome(ref_choose_conjugate_index, F)

    @pytest.mark.parametrize("twisted", [False, True])
    def test_memo_answers_as_direct_composition(self, twisted):
        # one memo asked across conjugate indices, basis orders and unsorted
        # words must answer each exactly as an unshared evaluation would.
        # The memo relies on no commutation of the L fields: rescaling L_1
        # by 1 + z_2 makes them non-commuting, and it must still compose the
        # letters of each word in the order given.
        F = build_frame(random_nondegenerate_model(445, 3, 6))
        if twisted:
            z2 = TruncatedSeries.variable(2 * F.n + 1, 1, F.order)
            L = (F.L[0].scaled(1 + z2),) + F.L[1:]
            F = Frame(F.n, F.T, L, F.Lbar, F.theta, F.thetaA, F.thetaAbar)
            f = monomial(F, (1, 0, 0, 0, 0))
            assert apply_word(F, (0, 1), f) != apply_word(F, (1, 0), f)
        memo = _Memo(F)
        words = [(0,), (1, 0), (0, 1), (0, 1, 1), (1, 1, 0), (1, 0, 1)]
        for Fb in range(F.n):
            for word in words:
                assert memo.table(word, Fb) == \
                    ref_commutator_table(F, word, Fb), (Fb, word)
        for degree, order in ((1, 4), (1, 5), (2, 5)):
            for mono in _basis(2 * F.n + 1, degree, order):
                exps, _ = mono
                f = TruncatedSeries(2 * F.n + 1, order, {exps: 1})
                for word in words:
                    assert memo.word_on(word, None, mono) == \
                        apply_word(F, word, f)
                    assert memo.word_on(word, "T", mono) == \
                        apply_word(F, word, F.T.apply(f))
                    for Fb in range(F.n):
                        assert memo.commutator_on(word, Fb, mono) == \
                            apply_commutator(F, word, Fb, f)


class TestVerificationRejectsCorruption:
    def test_corrupted_tail_and_bracket_coefficient(self):
        F = build_frame(random_nondegenerate_model(446, 3, 6))
        memo = _Memo(F)
        one = TruncatedSeries.constant(2 * F.n + 1, 1, F.order)
        degree = 2
        # the memo has already verified the true certificates when it is
        # asked about the corrupted ones
        red = _reduction(memo, (0, 1, 1), degree)
        wtd = _weighted(memo, (0, 1), degree)
        assert red.verified and wtd.verified and red.tail
        K = sorted(red.tail)[0]
        tail = dict(red.tail)
        tail[K] = tail[K] + one
        assert not _verify_reduction(memo, red.word, red.Fbar, red.leading,
                                     tail, degree)
        W = sorted(wtd.bracket_coeffs)[0]
        coeffs = dict(wtd.bracket_coeffs)
        coeffs[W] = coeffs[W] + one
        assert not _verify_weighted(memo, wtd.word, wtd.Fbar, wtd.p, coeffs,
                                    degree)
        # the uncorrupted data still verify through the same memo
        assert _verify_reduction(memo, red.word, red.Fbar, red.leading,
                                 red.tail, degree)
        assert _verify_weighted(memo, wtd.word, wtd.Fbar, wtd.p,
                                wtd.bracket_coeffs, degree)

    def test_inconsistent_tables_are_unverified(self, monkeypatch):
        # a decomposition that disagrees with its forced shape comes back
        # unverified, even with the monomial verifications forced to pass
        monkeypatch.setattr(operators, "_verify_reduction",
                            lambda *args: True)
        monkeypatch.setattr(operators, "_verify_weighted",
                            lambda *args: True)
        F = build_frame(random_nondegenerate_model(446, 3, 6))
        one = TruncatedSeries.constant(2 * F.n + 1, 1, F.order)
        degree = 2
        Fb = _Memo(F).conjugate_index()

        def certificate(build, word, table_word, edit):
            memo = _Memo(F)
            table = dict(memo.table(table_word, Fb))
            edit(table)
            memo._tables[(table_word, Fb)] = table
            return build(memo, word, degree)

        def shift(K):
            def edit(table):
                table[K] = table[K] + one
            return edit

        def add(K):
            def edit(table):
                table[K] = one
            return edit

        def drop(K):
            def edit(table):
                del table[K]
            return edit

        word = (0, 1, 1)
        assert _reduction(_Memo(F), word, degree).verified
        assert {(1, 1), (0, 1)} <= set(_Memo(F).table(word, Fb))
        # leading coefficient mismatch, unexpected and missing leading word
        for edit in (shift((1, 1)), add((0, 0)), drop((0, 1))):
            assert not certificate(_reduction, word, word, edit).verified
        # the first pivot of J = (0, 1) is the bracket word (0, 0, 1): a
        # mismatched pivot coefficient, and a word the triangular solve
        # never reaches, which it leaves as a residual
        J = (0, 1)
        assert _weighted(_Memo(F), J, degree).verified
        for edit in (shift(J), add((1, 1, 1))):
            assert not certificate(_weighted, J, (0, 0, 1), edit).verified
