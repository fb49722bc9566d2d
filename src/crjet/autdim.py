"""Formal infinitesimal symmetries of a graph germ by exact linear algebra.

A holomorphic polynomial vector field Y = sum a_j(z, w) d/dz_j (the last
slot differentiates along the transverse variable) is tangent to the germ
when the defining series divides Y rho; on a graph chart divisibility is
plain restriction, so the condition is that Y rho composed with the graph
substitution vanishes.  Restriction is a ring homomorphism: the gradient
of rho is restricted once, entry by entry, and each candidate term
z^alpha d rho/dz_j restricts to a monomial multiple of one product per
entry and power of w, whose terms are counted against MAX_TANGENCY_TERMS
before any candidate is built.  The real problem asks for Re Y tangent to M,
encoded as Y rho + conj(Y rho) = 0 on M with the coefficient space split
into real unknowns; its solution space is the polynomial symmetry algebra
cut at a degree, found by one exact nullspace computation over the
rationals.  Its residuals are real series, so the rows at a graph
monomial and at its conjugate repeat each other: only the rows of the
monomials e <= ebar are assembled, read straight from the restrictions.
The complex problem, Y rho = 0 on M, asks for a holomorphic direction the
germ does not see, evidence of holomorphic degeneracy; its solutions are
the real ones whose multiple by i is a solution too, so its dimension is
read off the real solution space.  aut_bound is the closed-form ceiling
for the real dimension on finitely nondegenerate minimal germs.

Truncated runs certify truncated statements only: a zero dimension rules
out candidates up to the stated degree and order, while a positive one is
an obstruction witness, never a degeneracy certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import comb, lcm

from .errors import AutError
from .hypersurface import DenseCoefficients, Hypersurface, intrinsic_pairing
from .linalg import nullspace, rank
from .series import (CS_ONE, OrderExhausted, TruncatedSeries, derivation,
                     key_conjugation)


# most graph terms aut's tangency restrictions may hold up to the tangency
# order, counted exactly by tangency_restrictions before it builds any: the
# order drives the cost as much as the unknowns do.  A generic C^3 germ at
# --degree 10 --order 14 (1716 unknowns, 59602 terms) takes about 16 s and
# 116 MB; the C^4 quadric at --degree 9 --order 14 (32064 terms) 4 s, and
# the C^5 quadric at --degree 3 and the default order 12 (1100 terms) 0.4 s
MAX_TANGENCY_TERMS = 50_000


def aut_bound(N: int) -> int:
    """Ceiling for the real symmetry dimension of a germ in C^N."""
    if N < 2:
        raise AutError("the bound needs an ambient dimension of at least 2")
    return (2 * N - 1) * comb(4 * N - 3, 2 * N - 2)


class FormalVectorField(DenseCoefficients):
    """Holomorphic polynomial field sum a_j d/dz_j on the ambient chart.

    Coefficients are N truncated series in the holomorphic variables only;
    the field acts on ambient series as a derivation.
    """

    __slots__ = ()

    def _check(self, coeffs, nvars):
        N = len(coeffs)
        if nvars != 2 * N:
            raise AutError("coefficients must live on the ambient chart")
        if any(any(a[N:]) for c in coeffs for a, _ in c.terms()):
            raise AutError("coefficients must be holomorphic")

    def apply(self, f: TruncatedSeries) -> TruncatedSeries:
        zero = TruncatedSeries.zero(self.nvars, self.order)
        return derivation(self.coeffs + (zero,) * len(self.coeffs), f)


@dataclass(frozen=True)
class TangencySystem:
    """Solved truncated real tangency problem with its certificate data.

    unknowns lists the candidate coefficient monomials as (j, alpha,
    part), part 0/1 for the real and imaginary split, and the two parts
    of a candidate are adjacent.  equations holds the exact constraint
    rows in the form linalg.nullspace takes: sparse {column: int} dicts,
    a column indexing unknowns and every stored value nonzero, each row
    scaled to integers.  They are the real and imaginary rows of the
    graph monomials e whose packed key is at most that of their conjugate
    ebar, since the rows at ebar repeat them.  vectors is the nullspace
    basis over the unknowns, one Fraction list per real dimension;
    holomorphic_dim is the complex dimension of its part closed under
    multiplication by i, the fields with Y rho = 0 on M.  note and
    holomorphic_note are the report texts.
    """

    unknowns: tuple
    equations: tuple
    vectors: tuple
    holomorphic_dim: int
    note: str
    holomorphic_note: str

    @property
    def solution_dim(self) -> int:
        return len(self.vectors)


def _holo_exponents(N: int, d: int, weights, j: int):
    """Candidate monomial exponents for coefficient j, ambient layout,
    yielded in ascending order one at a time, so a count can stop early.

    Plain runs bound the total degree by d for every coefficient; weighted
    runs bound the weighted degree of the whole field by d, which allows
    coefficient j the extra weight of its own variable.
    """
    if weights is None:
        wt, bound = [1] * N, d
    else:
        wt = list(weights)
        if len(wt) != N or any(w < 1 for w in wt):
            raise AutError("weights must give a positive weight per "
                           "holomorphic variable")
        bound = d + wt[j]

    def rec(pos, left, acc):
        if pos == N:
            yield acc + (0,) * N
            return
        for e in range(left // wt[pos] + 1):
            yield from rec(pos + 1, left - e * wt[pos], acc + (e,))

    yield from rec(0, bound, ())


def tangency_unknowns(N: int, d: int, weights, limit: int) -> int:
    """Real unknowns of the tangency problems, counted without building
    them; a weighted count stops once it passes limit."""
    if weights is None:
        return 2 * N * comb(N + d, d)
    count = 0
    for j in range(N):
        for _ in _holo_exponents(N, d, weights, j):
            count += 2
            if count > limit:
                return count
    return count


def tangency_restrictions(M: Hypersurface, d: int, order: int,
                          weights=None) -> tuple:
    """Candidate monomials with their restricted gradient products.

    One entry (j, alpha, R) per candidate monomial z^alpha of coefficient
    a_j, where R is z^alpha * d rho/dz_j restricted to the graph: the
    tangency residual of a field is linear in these restrictions.

    Restriction is a ring homomorphism, so with alpha = (beta, k), k the
    power of w, R is z^beta (s + i phi)^k R_j, where R_j is the restricted
    gradient entry: one composition per gradient entry and one product
    per (j, k), each candidate shifting its product by z^beta.  The terms
    up to order of all restrictions are counted on those products against
    MAX_TANGENCY_TERMS before any candidate's restriction is built.
    """
    N, W = M.N, M.order
    if d < 0:
        raise AutError("degree bound must be non-negative")
    if order > W - 1:
        raise AutError(
            f"order {order} exceeds the germ's usable truncation {W - 1}")
    grads = [M.rho.derive(j) for j in range(N)]
    candidates = [(j, alpha) for j in range(N)
                  for alpha in _holo_exponents(N, d, weights, j)]
    restricted = [M.restrict(g) for g in grads]
    w = M.graph_substitution()[N - 1]
    powers = [TruncatedSeries.constant(w.nvars, 1, W)]
    # (j, k) -> (s + i phi)^k R_j and its number of terms up to each degree
    products = {}
    count = 0
    for j, alpha in candidates:
        k, shift = alpha[N - 1], sum(alpha) - alpha[N - 1]
        if (j, k) not in products:
            while len(powers) <= k:
                powers.append(powers[-1] * w)
            P = powers[k] * restricted[j]
            products[j, k] = P, list(accumulate(P.degree_counts()))
        if shift <= order:
            count += products[j, k][1][order - shift]
            if count > MAX_TANGENCY_TERMS:
                raise AutError(
                    f"degree bound {d} at tangency order {order} needs more "
                    f"than MAX_TANGENCY_TERMS = {MAX_TANGENCY_TERMS} "
                    "restricted tangency terms; lower the truncation order "
                    "or the degree bound")
    # A candidate monomial constrains nothing unless its product with the
    # gradient entry reaches the cutoff; a variable absent from rho gives
    # genuinely free candidates and stays exempt, as long as the candidate
    # itself fits in the germ's order.
    mindeg = [next((e for e, c in enumerate(g.degree_counts()) if c), None)
              for g in grads]
    for j, alpha in candidates:
        if mindeg[j] is not None and sum(alpha) + mindeg[j] > order:
            raise AutError(
                f"order {order} is too small for degree bound {d}: "
                f"coefficient {j} candidate {alpha} cannot contribute "
                f"below the cutoff (needs order "
                f">= {sum(alpha) + mindeg[j]})")
        if sum(alpha) > W:
            raise OrderExhausted(f"stored term {alpha} exceeds order {W}")
    return tuple(
        (j, alpha, TruncatedSeries(2 * N - 1, W, {
            alpha[:N - 1] + (0,) * N: CS_ONE}) * products[j, alpha[N - 1]][0])
        for j, alpha in candidates)


def infinitesimal_aut_dim(M: Hypersurface, d: int, order: int,
                          weights=None) -> TangencySystem:
    """Real dimension of degree-d fields with Re Y tangent to the germ,
    and the complex dimension of those with Y rho = 0 on M.

    Each complex coefficient splits into two real unknowns, so the first
    dimension is over the reals.  With R(Y) the restriction of Y rho, the
    real solutions V solve R + conj R = 0 and the complex ones H solve
    R = 0; R is C-linear and conjugation keeps degrees, so H = V cap iV
    and dim_C H = dim V - rank(V cup iV) / 2, from one elimination.

    The residuals R + conj R and i (R - conj R) of a candidate are real
    series, so their coefficients at a graph monomial e and at its
    conjugate ebar are conjugate: the rows at ebar repeat those at e, the
    imaginary row negated.  The rows are read straight from each candidate
    restriction R at the monomials e <= ebar: with R_e = (a + bi) / D and
    R_ebar = (c + di) / D, candidate t's real part has a + c in the real
    row and b - d in the imaginary one, its imaginary part -(b + d) and
    a - c.  No residual series is built unless a column is missing from
    every row, that is, a residual vanishes up to the order.
    """
    restrictions = tangency_restrictions(M, d, order, weights)
    pairing = intrinsic_pairing(M.N - 1)
    conjugate = key_conjugation(pairing)
    unknowns = []
    # halves[e][t]: numerators of candidate t's restriction at e and at
    # ebar, and their denominator, for every e <= ebar either one reaches
    halves = {}
    for t, (j, alpha, R) in enumerate(restrictions):
        unknowns += [(j, alpha, 0), (j, alpha, 1)]
        den, items = R.truncate(order).numerators()
        for k, pair in items:
            kc = conjugate(k)
            x = halves.setdefault(min(k, kc), {}).setdefault(
                t, [(0, 0), (0, 0), den])
            if k <= kc:
                x[0] = pair
            if k >= kc:
                x[1] = pair

    # each pair of rows is scaled by the least common denominator of its
    # entries: integer rows with the same nullspace
    rows = []
    for e in sorted(halves):
        row = halves[e]
        scale = lcm(*(den for _, _, den in row.values()))
        real, imag = {}, {}
        for t, ((a, b), (c, dd), den) in row.items():
            f = scale // den
            for col, re, im in ((2 * t, a + c, b - dd),
                                (2 * t + 1, -(b + dd), a - c)):
                if re:
                    real[col] = re * f
                if im:
                    imag[col] = im * f
        rows += [r for r in (real, imag) if r]

    # a column in no row has a residual that vanishes up to the order;
    # i (R - conj R) vanishes with R - conj R
    used = set().union(*rows)
    for col, key in enumerate(unknowns):
        if col in used:
            continue
        R = restrictions[col // 2][2]
        Rcc = R.conjugate(pairing)
        if not (R + Rcc if col % 2 == 0 else R - Rcc).is_zero():
            raise AutError(
                f"order {order} is too small for degree bound {d}: "
                f"candidate {key} only contributes beyond it, so the "
                "system is vacuous there")

    vecs = nullspace(rows, ncols=len(unknowns))
    # i (x + iy) = -y + ix on each adjacent (real, imaginary) pair
    turned = [[x for t in range(0, len(v), 2) for x in (-v[t + 1], v[t])]
              for v in vecs]
    dim = len(vecs)
    hol = dim - rank(vecs + turned) // 2
    if hol == 0:
        hol_note = (f"no tangent holomorphic field with coefficient degree "
                    f"<= {d}: no obstruction found up to order {order}")
    else:
        hol_note = (f"{hol} independent tangent fields up to order "
                    f"{order}; degeneracy evidence at this truncation")
    return TangencySystem(
        unknowns=tuple(unknowns), equations=tuple(rows),
        vectors=tuple(vecs), holomorphic_dim=hol,
        note=f"real tangency dimension {dim} at degree {d}, order {order}",
        holomorphic_note=hol_note)
