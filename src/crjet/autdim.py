"""Formal infinitesimal symmetries of a graph germ by exact linear algebra.

A holomorphic polynomial vector field Y = sum a_j(z, w) d/dz_j (the last
slot differentiates along the transverse variable) is tangent to the germ
when the defining series divides Y rho; on a graph chart divisibility is
plain restriction, so the condition is that Y rho composed with the graph
substitution vanishes.  Two linear problems on truncated data follow.
The complex one asks for Y rho = 0 on M: a nonzero solution is a
holomorphic direction the germ does not see, and evidence of holomorphic
degeneracy.  The real one asks for Re Y tangent to M, encoded as
Y rho + conj(Y rho) = 0 on M with the coefficient space split into real
unknowns; its solution space is the polynomial symmetry algebra cut at a
degree.  Both reduce to exact nullspace computations over the rationals.
aut_bound is the closed-form ceiling for the real dimension on finitely
nondegenerate minimal germs.

Truncated runs certify truncated statements only: a zero dimension rules
out candidates up to the stated degree and order, while a positive one is
an obstruction witness, never a degeneracy certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import comb, lcm

from .hypersurface import Hypersurface, _DenseCoefficients, intrinsic_pairing
from .linalg import nullspace
from .series import CS_I, CS_ONE, CScalar, TruncatedSeries, derivation


class AutError(ValueError):
    """Raised on a malformed or vacuously truncated tangency problem."""


def aut_bound(N: int) -> int:
    """Ceiling for the real symmetry dimension of a germ in C^N."""
    if N < 2:
        raise AutError("the bound needs an ambient dimension of at least 2")
    return (2 * N - 1) * comb(4 * N - 3, 2 * N - 2)


class FormalVectorField(_DenseCoefficients):
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
    """Solved truncated tangency problem with its certificate data.

    unknowns lists the candidate coefficient monomials, (j, alpha) for the
    complex problem and (j, alpha, part) with part 0/1 for the real and
    imaginary split; equations holds the exact constraint rows as sparse
    {column: value} dicts, a column indexing unknowns and every stored
    value nonzero, each row scaled to integers: Gaussian-integer CScalar
    for the complex problem and int for the real one.  solution_dim is
    the nullspace dimension (complex or real, matching the problem) and
    basis realizes it as vector fields.
    """

    kind: str
    d: int
    order: int
    weights: tuple | None
    unknowns: tuple
    equations: tuple
    solution_dim: int
    basis: tuple
    note: str


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


def tangency_terms(M: Hypersurface, d: int, order: int, weights=None,
                   limit=None) -> int:
    """Bound on the graph terms up to order of the restrictions that
    tangency_restrictions(M, d, order, weights) builds, counted from
    supports without building any of them.

    z^alpha d rho/dz_j restricts to z^beta (s + i phi)^k R_j, where alpha
    is beta followed by k and R_j is the restricted gradient entry, so its
    terms lie in beta + supp((s + i phi)^k R_j).  A product of series with
    positive coefficients has exactly the sum of the supports as its
    support, so the bound is plain multiplication of such series.
    Candidates are counted by ascending k, and a count above limit is
    returned as soon as it passes it.
    """
    N = M.N
    if order < 0:
        return 0
    subs = M.graph_substitution()
    w = subs[N - 1].truncate(order).indicator()
    grads = [M.rho.derive(j).compose(subs).truncate(order).indicator()
             for j in range(N)]
    powers = [TruncatedSeries.constant(w.nvars, 1, order)]
    below = {}     # (j, k) -> terms of (s + i phi)^k R_j up to each degree
    candidates = sorted(((alpha[N - 1], j, sum(alpha) - alpha[N - 1])
                         for j in range(N)
                         for alpha in _holo_exponents(N, d, weights, j)))
    count = 0
    for k, j, shift in candidates:
        if shift > order:
            continue
        if (j, k) not in below:
            while len(powers) <= k:
                powers.append(powers[-1] * w)
            below[j, k] = list(accumulate(
                (powers[k] * grads[j]).degree_counts()))
        count += below[j, k][order - shift]
        if limit is not None and count > limit:
            break
    return count


def tangency_restrictions(M: Hypersurface, d: int, order: int,
                          weights=None) -> tuple:
    """Candidate monomials with their restricted gradient products.

    One entry (j, alpha, R) per candidate monomial z^alpha of coefficient
    a_j, where R is z^alpha * d rho/dz_j restricted to the graph.  Both
    tangency problems are linear in these restrictions: build them once
    and pass them to holomorphic_degeneracy_test and infinitesimal_aut_dim
    with the same M, d, order and weights.
    """
    N, W = M.N, M.order
    if d < 0:
        raise AutError("degree bound must be non-negative")
    if order > W - 1:
        raise AutError(
            f"order {order} exceeds the germ's usable truncation {W - 1}")
    grads = [M.rho.derive(j) for j in range(N)]
    # A candidate monomial constrains nothing unless its product with the
    # gradient entry reaches the cutoff; a variable absent from rho gives
    # genuinely free candidates and stays exempt.
    mindeg = [next((e for e, c in enumerate(g.degree_counts()) if c), None)
              for g in grads]
    out = []
    for j in range(N):
        for alpha in _holo_exponents(N, d, weights, j):
            if mindeg[j] is not None and sum(alpha) + mindeg[j] > order:
                raise AutError(
                    f"order {order} is too small for degree bound {d}: "
                    f"coefficient {j} candidate {alpha} cannot contribute "
                    f"below the cutoff (needs order "
                    f">= {sum(alpha) + mindeg[j]})")
            mono = TruncatedSeries(2 * N, W, {alpha: CS_ONE})
            out.append((j, alpha, M.restrict(mono * grads[j])))
    return tuple(out)


def _solve_tangency(M: Hypersurface, d: int, order: int, weights, real,
                    restrictions):
    N, W = M.N, M.order
    if restrictions is None:
        restrictions = tangency_restrictions(M, d, order, weights)
    pairing = intrinsic_pairing(N - 1)
    unknowns, residuals = [], []
    for j, alpha, Rc in restrictions:
        if real:
            Rcc = Rc.conjugate(pairing)
            unknowns.append((j, alpha, 0))
            residuals.append(Rc + Rcc)
            unknowns.append((j, alpha, 1))
            residuals.append(CS_I * (Rc - Rcc))
        else:
            unknowns.append((j, alpha))
            residuals.append(Rc)

    # entries[e][t]: numerators and denominator of the coefficient of the
    # graph monomial e in residual t
    entries = {}
    for t, (key, Rfull) in enumerate(zip(unknowns, residuals)):
        Req = Rfull.truncate(order)
        if Req.is_zero() and not Rfull.is_zero():
            raise AutError(
                f"order {order} is too small for degree bound {d}: "
                f"candidate {key} only contributes beyond it, so the "
                "system is vacuous there")
        den, items = Req.numerators()
        for e, (re, im) in items:
            entries.setdefault(e, {})[t] = (re, im, den)

    # each row is scaled by the least common denominator of its entries:
    # integer rows with the same nullspace
    rows = []
    for e in sorted(entries):
        row = entries[e]
        scale = lcm(*(den for _, _, den in row.values()))
        row = {t: (re * (scale // den), im * (scale // den))
               for t, (re, im, den) in row.items()}
        if real:
            re_row = {t: re for t, (re, _) in row.items() if re}
            im_row = {t: im for t, (_, im) in row.items() if im}
            if re_row:
                rows.append(re_row)
            if im_row:
                rows.append(im_row)
        else:
            rows.append({t: CScalar(re, im) for t, (re, im) in row.items()})

    vecs = nullspace(rows, ncols=len(unknowns))
    fields = []
    for v in vecs:
        comps = [TruncatedSeries.zero(2 * N, W) for _ in range(N)]
        for t, key in enumerate(unknowns):
            if not v[t]:
                continue
            c = CScalar.coerce(v[t])  # real problems solve in Fraction
            if real and key[2]:
                c = c * CS_I
            comps[key[0]] = comps[key[0]] + TruncatedSeries(
                2 * N, W, {key[1]: c})
        fields.append(FormalVectorField(comps))
    return tuple(unknowns), tuple(rows), tuple(fields)


def holomorphic_degeneracy_test(M: Hypersurface, d: int, order: int,
                                weights=None,
                                restrictions=None) -> TangencySystem:
    """Complex tangency problem Y rho = 0 on M for degree-d coefficients.

    A zero dimension certifies there is no tangent holomorphic field
    within the degree and order tested; a positive dimension exhibits
    witnesses and is evidence of degeneracy, not a proof, since the
    defect could appear above the truncation.  restrictions, when given,
    is tangency_restrictions(M, d, order, weights), computed once for both
    problems.
    """
    unknowns, rows, fields = _solve_tangency(M, d, order, weights, False,
                                             restrictions)
    dim = len(fields)
    if dim == 0:
        note = (f"no tangent holomorphic field with coefficient degree "
                f"<= {d}: no obstruction found up to order {order}")
    else:
        note = (f"{dim} independent tangent fields up to order {order}; "
                "degeneracy evidence at this truncation")
    return TangencySystem(kind="holomorphic", d=d, order=order,
                          weights=weights, unknowns=unknowns,
                          equations=rows, solution_dim=dim, basis=fields,
                          note=note)


def infinitesimal_aut_dim(M: Hypersurface, d: int, order: int,
                          weights=None, restrictions=None) -> TangencySystem:
    """Real dimension of degree-d fields with Re Y tangent to the germ.

    Each complex coefficient splits into two real unknowns, so the
    dimension is over the reals; the basis realizes one field per
    dimension and every member has zero real tangency residual to the
    stated order.  restrictions is as for holomorphic_degeneracy_test.
    """
    unknowns, rows, fields = _solve_tangency(M, d, order, weights, True,
                                             restrictions)
    dim = len(fields)
    return TangencySystem(kind="real", d=d, order=order, weights=weights,
                          unknowns=unknowns, equations=rows,
                          solution_dim=dim, basis=fields,
                          note=f"real tangency dimension {dim} at degree "
                               f"{d}, order {order}")
