"""Differential tests of graph normalization and of the shared graph
substitution.

The oracle is the normalization that doubling-precision Newton replaced:
every Newton step at the full order W, ceil(log2(W + 1)) of them, and rho
rewritten by composing with the linear change even when that change is
the identity.  On seeded germs, before and after random linear changes,
and on hand-made rhos that take each branch of the linear stages,
from_defining must give the same rho, phi and change, stored identically.
Germs affine in t = Im w (graphs, terms linear in w, Im(w) Re(w) terms)
must take one Newton step and every other germ (Im(w)^2, w^2, w wb
terms) the doubling schedule, before and after the linear change.
"""

from __future__ import annotations

import random
from fractions import Fraction

from crjet.hypersurface import (_holo_gradient, ambient_pairing, ambient_var,
                                from_defining)
from crjet.mappings import restrict
from crjet.series import CS_I, CS_ONE, CS_ZERO, CScalar, TruncatedSeries
from tests.conftest import (graph_rho, heis, identity_map, im_w,
                            intrinsic_var, random_model,
                            random_nondegenerate_model, random_phi, re_w)
from tests.test_hypersurface import stepwise_linear_change
from tests.test_invariants import linear_change, random_invertible


def oracle_compose_linear(rho, N, Q):
    """rho in coordinates zeta with old holomorphic coordinates Q zeta,
    always by one composition."""
    W = rho.order
    subs = []
    for i in range(N):
        acc = TruncatedSeries.zero(2 * N, W)
        for j in range(N):
            if not Q[i][j].is_zero():
                acc = acc + Q[i][j] * ambient_var(N, j, W)
        subs.append(acc)
    for i in range(N):
        acc = TruncatedSeries.zero(2 * N, W)
        for j in range(N):
            c = Q[i][j].conj()
            if not c.is_zero():
                acc = acc + c * ambient_var(N, N + j, W)
        subs.append(acc)
    return rho.compose(subs)


def oracle_substitution(n, phi):
    """(z, s + i phi, zb, s - i phi), every variable built from its
    exponent tuple."""
    W, nv = phi.order, 2 * n + 1

    def var(j):
        return TruncatedSeries(nv, W, {tuple(int(i == j) for i in range(nv)):
                                       CS_ONE})

    s = var(2 * n)
    return ([var(j) for j in range(n)] + [s + CS_I * phi]
            + [var(n + j) for j in range(n)] + [s - CS_I * phi])


def oracle_from_defining(rho, N):
    """(rho, phi, change) of the full-order, fixed-step normalization."""
    grad = _holo_gradient(rho, N)
    P = [[CS_ONE if i == j else CS_ZERO for j in range(N)] for i in range(N)]
    Q = [list(row) for row in P]
    if grad[N - 1].im == 0:
        best, best_size = None, Fraction(0)
        for j in range(N):
            size = grad[j].abs2()
            if size > best_size:
                best, best_size = j, size
        if best != N - 1:
            P[best], P[N - 1] = P[N - 1], P[best]
            for row in Q:
                row[best], row[N - 1] = row[N - 1], row[best]
            grad[best], grad[N - 1] = grad[N - 1], grad[best]
        if grad[N - 1].im == 0:
            P[N - 1] = [CS_I * c for c in P[N - 1]]
            for row in Q:
                row[N - 1] = -CS_I * row[N - 1]
            grad[N - 1] = -CS_I * grad[N - 1]
    shear = [CScalar(0, 2) * g for g in grad]
    P[N - 1] = [sum((shear[k] * P[k][j] for k in range(N)), CS_ZERO)
                for j in range(N)]
    for row in Q:
        last = row[N - 1] / shear[N - 1]
        row[:N - 1] = [c - shear[k] * last for k, c in enumerate(row[:N - 1])]
        row[N - 1] = last
    rho = oracle_compose_linear(rho, N, Q)
    W, n = rho.order, N - 1
    rho_ext = rho.extended(W + 1)
    rho_t = CS_I * (rho_ext.derive(N - 1) - rho_ext.derive(2 * N - 1))
    phi = TruncatedSeries.zero(2 * n + 1, W)
    for _ in range(max(1, W.bit_length())):
        subs = oracle_substitution(n, phi)
        res = rho_ext.compose(subs)
        dres = rho_t.compose(subs)
        phi = phi - res * dres.invert_unit()
    return rho, phi, P


def storage(s):
    return (s.nvars, s.order, s._den, s._terms)


def assert_same_normalization(rho, N):
    M = from_defining(rho, N)
    want_rho, want_phi, want_change = oracle_from_defining(rho, N)
    assert storage(M.rho) == storage(want_rho)
    assert storage(M.phi) == storage(want_phi)
    assert M.change == want_change
    return M


class TestNewtonAgainstFullOrder:
    def test_seeded_germs_at_every_order(self):
        """Seeded germs in C^2 to C^4, truncated to orders 1 to 10, as
        given and, at the orders where the dense result stays cheap,
        after a random linear change."""
        rng = random.Random(1978)
        for seed in range(2):
            for N in (2, 3, 4):
                for build in (random_model, random_nondegenerate_model):
                    base = build(seed, N, 10).rho
                    for order in range(1, 11):
                        rho = base.truncate(order)
                        assert_same_normalization(rho, N)
                        if order <= (7 if N == 2 else 4):
                            A = random_invertible(rng, N)
                            assert_same_normalization(
                                linear_change(rho, N, A), N)

    def test_every_linear_branch(self):
        """The identity change, a swap, the phase w' = i w, a swap then
        the phase, and a generic change, whose shear is nonzero off the
        transverse slot."""
        rng = random.Random(25)
        taken = set()
        for N, order in ((2, 6), (3, 5), (4, 4)):
            base = graph_rho(random_phi(rng, N - 1, order), N, order)
            M = assert_same_normalization(base, N)
            # the identity change leaves rho as it is
            assert M.rho is base
            e = [[CS_ONE if i == j else CS_ZERO for j in range(N)]
                 for i in range(N)]
            for row in (e[0], [CS_I * c for c in e[N - 1]],
                        [CS_I * c for c in e[0]]):
                A = [list(r) for r in e]
                A[N - 1] = row
                rho = linear_change(base, N, A)
                assert_same_normalization(rho, N)
                taken.add(stepwise_linear_change(rho, N)[2])
            rho = linear_change(base, N, random_invertible(rng, N))
            assert any(_holo_gradient(rho, N)[:N - 1])
            assert_same_normalization(rho, N)
        assert taken == {("swap",), ("diagonal",), ("swap", "diagonal")}

    def test_precision_schedule_reaches_full_order(self):
        """A graph whose phi is dense up to the order is recovered exactly,
        whatever the order: the last step runs at W."""
        rng = random.Random(78)
        for W in range(1, 13):
            phi = random_phi(rng, 1, W, terms=12) if W >= 2 else \
                TruncatedSeries.zero(3, W)
            rho = graph_rho(phi, 2, W)
            M = assert_same_normalization(rho, 2)
            assert M.phi == phi.extended(W)


def t_derivative(rho, N):
    """d rho / dt for t = Im w: i (d/dw - d/dwb)."""
    return CS_I * (rho.derive(N - 1) - rho.derive(2 * N - 1))


def is_affine(rho, N):
    """rho = a t + b with a, b free of t, through rho's order plus one."""
    rho_t = t_derivative(rho.extended(rho.order + 1), N)
    return t_derivative(rho_t, N).is_zero()


def newton_steps(rho, N):
    """The normalization of rho, and the Newton steps it took: each step
    inverts the t-derivative once, and nothing else in from_defining
    inverts a series."""
    count = [0]
    invert = TruncatedSeries.invert_unit

    def counting(self):
        count[0] += 1
        return invert(self)

    TruncatedSeries.invert_unit = counting
    try:
        from_defining(rho, N)
    finally:
        TruncatedSeries.invert_unit = invert
    return assert_same_normalization(rho, N), count[0]


def doubling_steps(W):
    """Steps of the doubling schedule at germ order W."""
    K = 0
    while W >> K > 3:
        K += 1
    return K + 1


def real_part(term, N):
    return term + term.conjugate(ambient_pairing(N))


def random_monomial(rng, N, order, low, high):
    """A random monomial in z and zb of degree from low to high, with a
    small complex coefficient."""
    alpha = [0] * (2 * N)
    for _ in range(rng.randrange(low, max(low, high) + 1)):
        alpha[rng.choice([j for j in range(2 * N) if j % N != N - 1])] += 1
    c = CScalar(Fraction(rng.randrange(-2, 3), rng.randrange(1, 4)),
                Fraction(rng.randrange(-2, 3), rng.randrange(1, 4)))
    return c * TruncatedSeries(2 * N, order, {tuple(alpha): CS_ONE})


# real terms Re(m f) added to a graph germ, m a monomial in z and zb and f
# of degree 1 or 2 in (w, wb): f = w and f = Im(w) Re(w) keep rho affine
# in t = Im w, while Im(w)^2, w^2 and w wb do not
TERM_KINDS = {
    "w": (1, lambda N, W: ambient_var(N, N - 1, W)),
    "im_re": (2, lambda N, W: im_w(N, W) * re_w(N, W)),
    "im2": (2, lambda N, W: im_w(N, W) * im_w(N, W)),
    "w2": (2, lambda N, W: ambient_var(N, N - 1, W) ** 2),
    "wwb": (2, lambda N, W: ambient_var(N, N - 1, W)
            * ambient_var(N, 2 * N - 1, W)),
}


def germ_with_terms(rng, N, order, kinds):
    """A seeded polynomial graph germ plus one real term of each kind, all
    of degree 2 or more, so that the linear part stays Im w."""
    phi = random_phi(rng, N - 1, order, terms=3) if order >= 2 \
        else TruncatedSeries.zero(2 * N - 1, order)
    rho = graph_rho(phi, N, order)
    for kind in kinds:
        degree, f = TERM_KINDS[kind]
        m = random_monomial(rng, N, order, 2 - degree, order - degree)
        rho = rho + real_part(m * f(N, order), N)
    return rho.truncate(order)


class TestAffineRule:
    """Germs affine in t = Im w take one Newton step at the germ's order
    and every other germ the doubling schedule; both store what the
    full-order oracle stores."""

    def test_affine_and_curved_germs(self):
        rng = random.Random(1999)
        seen = set()
        kinds = [("w",), ("im_re",), ("w", "im_re"), ("im2",), ("w2",),
                 ("wwb",), ("w", "w2"), ("im_re", "wwb")]
        for N in (2, 3, 4):
            for order in range(1, 11):
                for kind in kinds:
                    rho = germ_with_terms(rng, N, order, kind)
                    affine = is_affine(rho, N)
                    M, steps = newton_steps(rho, N)
                    assert M.rho is rho
                    assert steps == (1 if affine else doubling_steps(order))
                    seen.add((kind, affine))
        # the affine kinds always are, and each curved kind reaches the
        # schedule at some order
        assert {kind for kind, affine in seen if not affine} == {
            ("im2",), ("w2",), ("wwb",), ("w", "w2"), ("im_re", "wwb")}
        assert all(affine for kind, affine in seen
                   if kind in (("w",), ("im_re",), ("w", "im_re")))

    def test_graph_documents(self):
        """Polynomial graphs, as documents write them, at orders 1 to 10
        in C^2 to C^4: affine, one step, the graph itself."""
        rng = random.Random(27)
        for N in (2, 3, 4):
            for order in range(1, 11):
                phi = random_phi(rng, N - 1, order, terms=4) if order >= 2 \
                    else TruncatedSeries.zero(2 * N - 1, order)
                rho = graph_rho(phi, N, order)
                assert is_affine(rho, N)
                M, steps = newton_steps(rho, N)
                assert steps == 1 and M.phi == phi.extended(order)

    def test_affine_only_after_the_change(self):
        """Swaps, the phase w' = i w and swap-then-phase changes of graph
        germs: curved in the given coordinates, affine once normalized."""
        rng = random.Random(1978)
        curved = set()
        for N in (2, 3, 4):
            e = [[CS_ONE if i == j else CS_ZERO for j in range(N)]
                 for i in range(N)]
            for order in range(2, 11):
                base = germ_with_terms(rng, N, order, ("w", "im_re"))
                k = rng.randrange(N - 1)
                swap = [list(r) for r in e]
                swap[k], swap[N - 1] = swap[N - 1], swap[k]
                phase = [list(r) for r in e]
                phase[N - 1] = [CS_I * c for c in e[N - 1]]
                for A in (swap, phase, [[CS_I * c if i == N - 1 else c
                                          for c in row]
                                         for i, row in enumerate(swap)]):
                    rho = linear_change(base, N, A)
                    M, steps = newton_steps(rho, N)
                    assert M.rho is not rho
                    assert is_affine(M.rho, N) and steps == 1
                    if not is_affine(rho, N):
                        curved.add((N, A is swap))
        assert curved == {(N, swap) for N in (2, 3, 4)
                          for swap in (True, False)}

    def test_swap_whose_shear_is_a_unit_row(self):
        """rho = -(i/2)(z_k - zb_k) - |w|^2 has g = -(i/2) e_k: the last
        row 2i g of the change is the unit row e_k, but the change is a
        swap, not the identity."""
        for N in (2, 3, 4):
            for k in range(N - 1):
                for order in range(2, 11):
                    zk = ambient_var(N, k, order)
                    zbk = ambient_var(N, N + k, order)
                    w = ambient_var(N, N - 1, order)
                    wb = ambient_var(N, 2 * N - 1, order)
                    rho = CScalar(0, Fraction(-1, 2)) * (zk - zbk) - w * wb
                    assert not is_affine(rho, N)
                    M, steps = newton_steps(rho, N)
                    unit = [CS_ONE if j == k else CS_ZERO for j in range(N)]
                    assert M.change[N - 1] == unit
                    assert M.change != [[CS_ONE if i == j else CS_ZERO
                                         for j in range(N)]
                                        for i in range(N)]
                    assert steps == 1
                    z, zb = intrinsic_var(N - 1, k, order), \
                        intrinsic_var(N - 1, N - 1 + k, order)
                    assert M.phi == z * zb


class TestGraphSubstitution:
    def test_built_once(self):
        M = random_model(3, 3, 6)
        subs = M.graph_substitution()
        assert isinstance(subs, tuple)
        assert M.graph_substitution() is subs
        assert list(subs) == oracle_substitution(M.n, M.phi)

    def test_restrict_equals_fresh_composition(self):
        rng = random.Random(7)
        for seed in range(3):
            for N in (2, 3):
                M = random_nondegenerate_model(seed, N, 6)
                for _ in range(3):
                    A = random_invertible(rng, N)
                    f = linear_change(M.rho, N, A) * M.rho.derive(
                        rng.randrange(2 * N))
                    fresh = f.compose(oracle_substitution(M.n, M.phi))
                    assert storage(M.restrict(f)) == storage(fresh)
                    assert M.graph_substitution() is M.graph_substitution()

    def test_map_restriction_reuses_the_source_substitution(self):
        M = heis(3, 6)
        F = identity_map(M)
        subs = M.graph_substitution()
        got = restrict(F)
        assert M.graph_substitution() is subs
        want = [c.compose(oracle_substitution(M.n, M.phi))
                for c in F.components]
        assert list(got[:M.n]) == want[:M.n]
