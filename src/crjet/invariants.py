"""Invariant tensors, nondegeneracy filtration, and identity checks.

Everything here is computed from a graph frame: iterated contracted
derivatives of the characteristic form give the h tensors, their values at
the origin drive the span filtration E_k / kernel filtration F_k, and
identity checks confirm the tensor calculus against independent code paths
(plain derivatives and iterated brackets here; the operator certificates
live in ``crjet.operators``).  Chains, their two-forms, h entries and
bracket words all come from the frame itself (``Frame.chain``), so the
filtration and every suite run on one frame build each of them once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import GeometryError
from .hypersurface import Frame, Hypersurface, VectorFieldOp, from_defining
from .linalg import SpanTracker, rank
from .series import (CS_I, CScalar, OrderExhausted, TruncatedSeries,
                     Unbounded)


def is_finite(value) -> bool:
    return isinstance(value, int)


# ---------------------------------------------------------------------------
# nondegeneracy integers


def extrinsic_k0(M: Hypersurface, kmax: int):
    """Smallest k <= kmax with full gradient span, else an explicit marker.

    Uses the ambient tangential antiholomorphic fields applied to the
    holomorphic gradient of the defining series, with exact incremental
    rank tracking.  Each field annihilates rho identically, so a bracket
    of two of them is a multiple of d/dwb that kills rho, hence zero: the
    fields commute up to the truncation order, and only sorted words are
    walked.
    """
    N, n, W = M.N, M.n, M.rho.order
    if kmax + 1 > W:
        raise OrderExhausted(f"kmax {kmax} exceeds series budget {W - 1}")
    rho = M.rho
    grad = [rho.derive(j) for j in range(n)] + [rho.derive(N - 1)]
    rho_wb = rho.derive(2 * N - 1)
    if rho_wb.constant_term().is_zero():
        raise GeometryError("transverse derivative vanishes at the origin")
    wb_inv = rho_wb.invert_unit()
    fields = []
    for j in range(n):
        coeffs = [TruncatedSeries.zero(2 * N, W - 1) for _ in range(2 * N)]
        coeffs[N + j] = TruncatedSeries.constant(2 * N, 1, W - 1)
        coeffs[2 * N - 1] = -(rho.derive(N + j) * wb_inv)
        fields.append(VectorFieldOp(coeffs))

    tracker = SpanTracker()
    level = {(): grad}
    for k in range(kmax + 1):
        for word in sorted(level):
            tracker.add([s.constant_term() for s in level[word]])
        if tracker.dim == N:
            return k
        level = {word + (j,): [fields[j].apply(s) for s in vec]
                 for word, vec in level.items()
                 for j in range(word[-1] if word else 0, n)}
    return Unbounded("kmax", kmax)


@dataclass(frozen=True)
class FiltrationReport:
    """Origin data of the span/kernel filtration and its derived integers."""

    Ek_dims: tuple
    Fk_dims: tuple
    rk: tuple
    k0: object
    levi_rank: int
    ell0: object
    ell1: object
    m0: object
    kmax: int = 0
    lmax: int = 0
    typemax: int = 0


def _finite_type(F: Frame, typemax: int):
    """Breadth-first scan of iterated commutators of the CR fields."""
    gens = list(F.L) + list(F.Lbar)
    level = gens
    for m in range(2, typemax + 1):
        nxt = []
        for X in gens:
            for P in level:
                B = X.bracket(P)
                if B.is_zero():
                    continue
                if not F.theta.pair(B).constant_term().is_zero():
                    return m
                nxt.append(B)
        if not nxt:
            return Unbounded("typemax", typemax)
        level = nxt
    return Unbounded("typemax", typemax)


def intrinsic_filtration(F: Frame, kmax=None):
    """Filtration dimensions at the origin and the derived integers.

    kmax defaults to the ambient dimension minus one; the tuple-length and
    commutator-length bounds lmax and typemax are kmax + 1.
    """
    n = F.n
    if kmax is None:
        kmax = n  # ambient dimension minus one
    lmax = typemax = kmax + 1
    if lmax > F.order:
        raise OrderExhausted(
            f"bounds need order {lmax}, frame has {F.order}")

    # chains and entries depend only on the multiset of indices, so each
    # scan reads the sorted words alone
    def sorted_words(length):
        return itertools.combinations_with_replacement(range(n), length)

    # E_k is spanned by the (transverse, h) rows at 0 of the words up to
    # length k, and F_k is the kernel of their h parts: dim F_k = n - rank
    span, kernel = SpanTracker(), SpanTracker()
    Ek_dims, Fk_dims, rk = [], [], []
    k0 = None
    for k in range(kmax + 1):
        for abar in sorted_words(k):
            t0 = F.transverse(abar).constant_term()
            row = [F.h(abar, D).constant_term() for D in range(n)]
            span.add([t0] + row)
            kernel.add(row)
        Ek_dims.append(span.dim)
        Fk_dims.append(n - kernel.dim)
        rk.append(kernel.dim)
        if k0 is None and kernel.dim == n:
            k0 = k
    if k0 is None:
        k0 = Unbounded("kmax", kmax)
    levi_rank = rank([[F.h((A,), B).constant_term() for B in range(n)]
                      for A in range(n)])

    ell0 = ell1 = None
    for ell in range(1, lmax + 1):
        if any(not F.h(abar, D).constant_term().is_zero()
               for abar in sorted_words(ell) for D in range(n)):
            ell0 = ell
            break
    for r in range(1, lmax + 1):
        if any(not F.theta.pair(F.bracket(abar, D)).constant_term()
               .is_zero() for abar in sorted_words(r) for D in range(n)):
            ell1 = r
            break
    if ell0 is None:
        ell0 = Unbounded("lmax", lmax)
    if ell1 is None:
        ell1 = Unbounded("lmax", lmax)

    m0 = _finite_type(F, typemax)
    return FiltrationReport(
        Ek_dims=tuple(Ek_dims), Fk_dims=tuple(Fk_dims), rk=tuple(rk),
        k0=k0, levi_rank=levi_rank, ell0=ell0, ell1=ell1, m0=m0,
        kmax=kmax, lmax=lmax, typemax=typemax)


# ---------------------------------------------------------------------------
# identity checks


@dataclass(frozen=True)
class CheckReport:
    name: str
    ok: bool
    checked: int
    violations: tuple = ()
    vacuous: bool = False
    note: str = ""


def verify_derivative_recursion(F: Frame, k: int) -> CheckReport:
    """Extending a tuple by one index equals a derivative plus tensor terms.

    For every sorted tuple of length j <= k and indices C, D the entry with
    the tuple extended by C must equal the Lbar_C derivative of the shorter
    entry, plus the structure-pairing correction (identically zero for
    graph frames, computed anyway), plus the transverse entry times the
    length-one entry.  Entries come from contracted chains, keyed by sorted
    words, so every ordering of a tuple reads the same cached entries and
    repeats the same residual: only sorted tuples are walked.  The
    symmetry itself is checked by the bracket pairing and leading-order
    suites, which read ordered brackets and derivatives.
    """
    n = F.n
    h1 = [[F.h((C,), D) for D in range(n)] for C in range(n)]
    # the structure pairings do not depend on the tuple: evaluated once
    pairings = [[[F.dthetaA[B](F.Lbar[C], F.L[D]) for B in range(n)]
                 for D in range(n)] for C in range(n)]
    checked, violations = 0, []
    for j in range(k + 1):
        for abar in itertools.combinations_with_replacement(range(n), j):
            for C in range(n):
                for D in range(n):
                    res = F.h(abar + (C,), D) \
                        - F.Lbar[C].apply(F.h(abar, D)) \
                        - F.transverse(abar) * h1[C][D]
                    for B in range(n):
                        res = res - F.h(abar, B) * pairings[C][D][B]
                    checked += 1
                    if not res.is_zero():
                        violations.append((abar, C, D))
    return CheckReport(name="derivative-recursion", ok=not violations,
                       checked=checked, violations=tuple(violations))


def verify_leading_order_reduction(F: Frame, filtration) -> CheckReport:
    """Tensor entries at 0 reduce to plain derivatives within the first
    nonvanishing length.

    Vacuous when no tuple length up to the bound has a nonzero entry at 0.
    """
    if not is_finite(filtration.ell0):
        return CheckReport(name="leading-order-reduction", ok=True,
                           checked=0, vacuous=True,
                           note=f"no nonzero entry at 0 ({filtration.ell0})")
    ell0 = filtration.ell0
    n = F.n
    checked, violations = 0, []
    for r in range(2, ell0 + 1):
        for j in range(0, ell0 - r + 1):
            for abar in itertools.product(range(n), repeat=r):
                for cbar in itertools.product(range(n), repeat=j):
                    for D in range(n):
                        lhs = F.h(abar, D)
                        rhs = F.Lbar[abar[-1]].apply(F.h(abar[:-1], D))
                        for c in reversed(cbar):
                            lhs = F.Lbar[c].apply(lhs)
                            rhs = F.Lbar[c].apply(rhs)
                        checked += 1
                        if lhs.constant_term() != rhs.constant_term():
                            violations.append((abar, cbar, D))
    # full collapse at the critical length: all derivatives, one contraction
    if ell0 >= 2:
        for abar in itertools.product(range(n), repeat=ell0):
            for D in range(n):
                val = F.h((abar[0],), D)
                for a in abar[1:]:
                    val = F.Lbar[a].apply(val)
                checked += 1
                if val.constant_term() != F.h(abar, D).constant_term():
                    violations.append((abar, "collapse", D))
    return CheckReport(name="leading-order-reduction", ok=not violations,
                       checked=checked, violations=tuple(violations))


def verify_bracket_pairing(F: Frame, filtration) -> CheckReport:
    """Iterated-bracket pairings at 0 equal minus the tensor entries.

    Checked for every bracket length up to the first nonvanishing one; also
    confirms the derivative-based and bracket-based first nonvanishing
    lengths agree (as markers when both are unbounded).  Brackets are kept
    by ordered word and entries by sorted word, so an unsorted word also
    checks that the two sides are symmetric alike.
    """
    if filtration.ell0 != filtration.ell1:
        return CheckReport(name="bracket-pairing", ok=False, checked=0,
                           violations=((filtration.ell0, filtration.ell1),),
                           note="first nonvanishing lengths disagree")
    if not is_finite(filtration.ell0):
        return CheckReport(name="bracket-pairing", ok=True, checked=0,
                           vacuous=True,
                           note=f"both lengths unbounded ({filtration.ell0})")
    n = F.n
    checked, violations = 0, []
    for r in range(1, filtration.ell0 + 1):
        for abar in itertools.product(range(n), repeat=r):
            for D in range(n):
                lhs = F.theta.pair(F.bracket(abar, D)).constant_term()
                rhs = -F.h(abar, D).constant_term()
                checked += 1
                if lhs != rhs:
                    violations.append((abar, D))
    return CheckReport(name="bracket-pairing", ok=not violations,
                       checked=checked, violations=tuple(violations))


def verify_frame_structure(F: Frame) -> CheckReport:
    """Bracket and two-form relations every adapted graph frame satisfies.

    CR fields commute, mixed brackets are transverse, the characteristic
    pairing of a mixed bracket is minus the length-one tensor entry, and
    the two-form of theta on the same pair equals the entry itself.
    """
    n = F.n
    h1 = [[F.h((A,), B) for B in range(n)] for A in range(n)]
    dtheta = F.dchain(())
    checked, violations = 0, []

    def record(label, idx, ok):
        nonlocal checked
        checked += 1
        if not ok:
            violations.append((label, idx))

    for A in range(n):
        for B in range(n):
            br = F.bracket((A,), B)
            for C in range(n):
                record("bracket-transverse", (A, B, C),
                       F.thetaA[C].pair(br).is_zero()
                       and F.thetaAbar[C].pair(br).is_zero())
            record("characteristic-pairing", (A, B),
                   (F.theta.pair(br) + h1[A][B]).is_zero())
            record("two-form-value", (A, B),
                   (dtheta(F.Lbar[A], F.L[B]) - h1[A][B]).is_zero())
            record("cr-commute", (A, B),
                   F.L[A].bracket(F.L[B]).is_zero())
            for C in range(n):
                record("structure-pairing", (A, B, C),
                       F.dthetaA[C](F.Lbar[A], F.L[B]).is_zero())
    return CheckReport(name="frame-structure", ok=not violations,
                       checked=checked, violations=tuple(violations))


# ---------------------------------------------------------------------------
# point scans


@dataclass(frozen=True)
class PointResult:
    z: tuple
    s: object
    status: str           # "ok" or "singular"
    k0: object = None
    nondegenerate: bool = False


@dataclass(frozen=True)
class ScanReport:
    k: int
    results: tuple

    @property
    def nondegenerate_count(self):
        return sum(1 for r in self.results if r.nondegenerate)


def nondegeneracy_scan(M: Hypersurface, points, k: int) -> ScanReport:
    """Recenter at exact on-surface points and re-run the gradient-span test.

    Each point is given as (z_values, s) with exact coordinates; the
    transverse value is completed from the graph.  Points must lie exactly
    on the hypersurface, which restricts the scan to polynomial graphs,
    and M's rho must be the complete polynomial.  extrinsic_k0 reads
    derivatives of order at most k + 1 at the point, so each recentred rho
    is normalized at order k + 2, the order of an analyze germ, or at M's
    order when that is lower.
    """
    N = M.N
    results = []
    for z_values, s in points:
        z = [CScalar.coerce(v) for v in z_values]
        s = CScalar.coerce(s)
        if not s.is_real():
            raise GeometryError("the transverse base coordinate must be real")
        t = M.phi.eval_at(z + [v.conj() for v in z] + [s])
        if not t.is_real():
            raise GeometryError("graph value came out complex")
        w = s + CS_I * t
        p = z + [w] + [v.conj() for v in z] + [w.conj()]
        if not M.rho.eval_at(p).is_zero():
            raise GeometryError(
                "sample point is not exactly on the hypersurface; "
                "the scan needs a polynomial graph")
        try:
            Mp = from_defining(M.rho.recenter(p).truncate(k + 2), N)
            k0p = extrinsic_k0(Mp, k)
            results.append(PointResult(
                z=tuple(z), s=s, status="ok", k0=k0p,
                nondegenerate=is_finite(k0p) and k0p <= k))
        except GeometryError:
            results.append(PointResult(z=tuple(z), s=s, status="singular"))
    return ScanReport(k=k, results=tuple(results))


__all__ = [
    "CheckReport", "FiltrationReport", "PointResult",
    "ScanReport", "extrinsic_k0",
    "intrinsic_filtration", "is_finite", "nondegeneracy_scan",
    "verify_bracket_pairing", "verify_derivative_recursion",
    "verify_frame_structure", "verify_leading_order_reduction",
]
