"""Invariant tensors, nondegeneracy filtration, and identity checks.

Everything here is computed from a graph frame: iterated contracted
derivatives of the characteristic form give the h tensors, their values at
the origin drive the span filtration E_k / kernel filtration F_k, and
identity checks confirm the tensor calculus against independent code paths
(plain derivatives and iterated brackets here; the operator certificates
live in ``crjet.operators``).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .hypersurface import (
    Frame,
    GeometryError,
    Hypersurface,
    VectorFieldOp,
    exterior_derivative,
    from_defining,
)
from .linalg import SpanTracker, nullspace, rank
from .series import CS_I, CS_ONE, CS_ZERO, CScalar, OrderExhausted, TruncatedSeries


@dataclass(frozen=True)
class Unbounded:
    """Explicit no-witness-up-to-bound marker; never a sentinel integer."""

    bound_name: str
    bound: int

    def __str__(self):
        return f"inf@{self.bound_name}={self.bound}"


def is_finite(value) -> bool:
    return isinstance(value, int)


# ---------------------------------------------------------------------------
# tensor entries


class HTensor:
    """Contracted-derivative entries for index tuples of one fixed length.

    h(abar, D) pairs the iterated contracted derivative of theta along
    Lbar_{abar} with L_D; transverse(abar) pairs it with T.  Indices are
    0-based.  At the origin the entries are symmetric in the abar slots.
    """

    def __init__(self, n: int, k: int, with_d: dict, transverse: dict):
        self.n = n
        self.k = k
        self._with_d = dict(with_d)
        self._transverse = dict(transverse)

    def h(self, abar, D: int) -> TruncatedSeries:
        return self._with_d[(tuple(abar), D)]

    def transverse(self, abar) -> TruncatedSeries:
        return self._transverse[tuple(abar)]


class _ChainCache:
    """Prefix-sharing cache of the iterated contracted derivatives of theta
    for one frame.

    get(abar) differentiates theta along Lbar_{abar}, the first listed index
    first.  The result is a holomorphic form: its pairings with every Lbar
    field vanish, so it decomposes as sum_D h_D theta^D + h theta.
    """

    def __init__(self, frame: Frame):
        self.frame = frame
        self.store = {(): frame.theta}

    def get(self, abar: tuple):
        if abar not in self.store:
            prev = self.get(abar[:-1])
            self.store[abar] = exterior_derivative(prev).contract(
                self.frame.Lbar[abar[-1]])
        return self.store[abar]


def _components(F: Frame, omega):
    """(transverse, [h_D]) coefficients of a holomorphic form."""
    return omega.pair(F.T), [omega.pair(LD) for LD in F.L]


def h_tensor(F: Frame, k: int, _cache: _ChainCache | None = None) -> HTensor:
    """All tensor entries for index tuples of length exactly k."""
    if k > F.order:
        raise OrderExhausted(f"length {k} exceeds frame order {F.order}")
    cache = _cache if _cache is not None else _ChainCache(F)
    with_d, transverse = {}, {}
    for abar in itertools.product(range(F.n), repeat=k):
        omega = cache.get(abar)
        t, hs = _components(F, omega)
        transverse[abar] = t
        for D in range(F.n):
            with_d[(abar, D)] = hs[D]
    return HTensor(F.n, k, with_d, transverse)


# ---------------------------------------------------------------------------
# nondegeneracy integers


def extrinsic_k0(M: Hypersurface, kmax: int):
    """Smallest k <= kmax with full gradient span, else an explicit marker.

    Uses the ambient tangential antiholomorphic fields applied to the
    holomorphic gradient of the defining series, with exact incremental
    rank tracking.
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

    tracker = SpanTracker(N)
    level = {(): grad}
    for k in range(kmax + 1):
        for word in sorted(level):
            tracker.add([s.constant_term() for s in level[word]])
        if tracker.dim == N:
            return k
        level = {word + (j,): [fields[j].apply(s) for s in vec]
                 for word, vec in level.items() for j in range(n)}
    return Unbounded("kmax", kmax)


@dataclass(frozen=True)
class FiltrationReport:
    """Origin data of the span/kernel filtration and its derived integers."""

    n: int
    Ek_dims: tuple
    Fk_dims: tuple
    rk: tuple
    k0: object
    levi_rank: int
    ell0: object
    ell1: object
    m0: object
    Fk_bases: tuple = field(repr=False)
    ell0_witness: object = None
    kmax: int = 0
    lmax: int = 0
    typemax: int = 0


def _ell1_value(F: Frame, r: int):
    """First nonzero theta-pairing among bracket words of length r, or None."""
    for abar in itertools.product(range(F.n), repeat=r):
        for D in range(F.n):
            acc = F.L[D]
            for a in abar:
                acc = F.Lbar[a].bracket(acc)
            if not F.theta.pair(acc).constant_term().is_zero():
                return (abar, D)
    return None


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


def intrinsic_filtration(F: Frame, kmax=None, lmax=None, typemax=None):
    """Filtration dimensions at the origin and the derived integers.

    kmax defaults to the ambient dimension minus one; the tuple-length and
    commutator-length bounds default to kmax + 1.
    """
    n = F.n
    if kmax is None:
        kmax = n  # ambient dimension minus one
    if lmax is None:
        lmax = kmax + 1
    if typemax is None:
        typemax = kmax + 1
    budget = max(kmax, lmax, typemax - 1)
    if budget > F.order:
        raise OrderExhausted(
            f"bounds need order {budget}, frame has {F.order}")

    cache = _ChainCache(F)
    span = SpanTracker(n + 1)
    kernel_rows = []
    Ek_dims, Fk_dims, rk, Fk_bases = [], [], [], []
    k0 = None
    for k in range(kmax + 1):
        tensor = h_tensor(F, k, cache)
        for abar in itertools.product(range(n), repeat=k):
            t0 = tensor.transverse(abar).constant_term()
            row = [tensor.h(abar, D).constant_term() for D in range(n)]
            span.add([t0] + row)
            if any(not c.is_zero() for c in row):
                kernel_rows.append(row)
        Ek_dims.append(span.dim)
        basis = nullspace(kernel_rows, ncols=n) if kernel_rows else \
            [[CS_ONE if i == j else CS_ZERO for i in range(n)]
             for j in range(n)]
        Fk_bases.append(tuple(tuple(v) for v in basis))
        Fk_dims.append(len(basis))
        rk.append(n - len(basis))
        if k0 is None and len(basis) == 0:
            k0 = k
    if k0 is None:
        k0 = Unbounded("kmax", kmax)
    if kmax >= 1:
        levi_rank = rk[1]
    else:
        t1 = h_tensor(F, 1, cache)
        levi_rank = rank([[t1.h((A,), B).constant_term() for B in range(n)]
                          for A in range(n)])

    ell0, witness = None, None
    for ell in range(1, lmax + 1):
        tensor = h_tensor(F, ell, cache)
        for abar in itertools.product(range(n), repeat=ell):
            for D in range(n):
                if not tensor.h(abar, D).constant_term().is_zero():
                    ell0, witness = ell, (abar, D)
                    break
            if ell0 is not None:
                break
        if ell0 is not None:
            break
    if ell0 is None:
        ell0 = Unbounded("lmax", lmax)

    ell1 = None
    for r in range(1, lmax + 1):
        if _ell1_value(F, r) is not None:
            ell1 = r
            break
    if ell1 is None:
        ell1 = Unbounded("lmax", lmax)

    m0 = _finite_type(F, typemax)
    return FiltrationReport(
        n=n, Ek_dims=tuple(Ek_dims), Fk_dims=tuple(Fk_dims), rk=tuple(rk),
        k0=k0, levi_rank=levi_rank, ell0=ell0, ell1=ell1, m0=m0,
        Fk_bases=tuple(Fk_bases), ell0_witness=witness,
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


def verify_derivative_recursion(F: Frame, k: int, samples=None) -> CheckReport:
    """Extending a tuple by one index equals a derivative plus tensor terms.

    For every tuple length j <= k and indices C, D the entry with the tuple
    extended by C must equal the Lbar_C derivative of the shorter entry,
    plus the structure-pairing correction (identically zero for graph
    frames, computed anyway), plus the transverse entry times the length-one
    entry.
    """
    n = F.n
    cache = _ChainCache(F)
    tensors = {j: h_tensor(F, j, cache) for j in range(k + 2)}
    t1 = tensors[1]
    dthetaA = [exterior_derivative(form) for form in F.thetaA]
    combos = []
    for j in range(k + 1):
        for abar in itertools.product(range(n), repeat=j):
            for C in range(n):
                for D in range(n):
                    combos.append((abar, C, D))
    if samples is not None and samples < len(combos):
        combos = random.Random(0).sample(combos, samples)
    violations = []
    for abar, C, D in combos:
        tk = tensors[len(abar)]
        tk1 = tensors[len(abar) + 1]
        res = tk1.h(abar + (C,), D) - F.Lbar[C].apply(tk.h(abar, D)) \
            - tk.transverse(abar) * t1.h((C,), D)
        for B in range(n):
            res = res - tk.h(abar, B) * dthetaA[B](F.Lbar[C], F.L[D])
        if not res.is_zero():
            violations.append((abar, C, D))
    return CheckReport(name="derivative-recursion", ok=not violations,
                       checked=len(combos), violations=tuple(violations))


def verify_leading_order_reduction(F: Frame, filtration=None) -> CheckReport:
    """Tensor entries at 0 reduce to plain derivatives within the first
    nonvanishing length.

    Vacuous when no tuple length up to the bound has a nonzero entry at 0.
    """
    filt = filtration if filtration is not None else intrinsic_filtration(F)
    if not is_finite(filt.ell0):
        return CheckReport(name="leading-order-reduction", ok=True,
                           checked=0, vacuous=True,
                           note=f"no nonzero entry at 0 ({filt.ell0})")
    ell0 = filt.ell0
    n = F.n
    cache = _ChainCache(F)
    checked, violations = 0, []
    for r in range(2, ell0 + 1):
        tr = h_tensor(F, r, cache)
        tr1 = h_tensor(F, r - 1, cache)
        for j in range(0, ell0 - r + 1):
            for abar in itertools.product(range(n), repeat=r):
                for cbar in itertools.product(range(n), repeat=j):
                    for D in range(n):
                        lhs = tr.h(abar, D)
                        rhs = F.Lbar[abar[-1]].apply(tr1.h(abar[:-1], D))
                        for c in reversed(cbar):
                            lhs = F.Lbar[c].apply(lhs)
                            rhs = F.Lbar[c].apply(rhs)
                        checked += 1
                        if lhs.constant_term() != rhs.constant_term():
                            violations.append((abar, cbar, D))
    # full collapse at the critical length: all derivatives, one contraction
    if ell0 >= 2:
        t_full = h_tensor(F, ell0, cache)
        t_one = h_tensor(F, 1, cache)
        for abar in itertools.product(range(n), repeat=ell0):
            for D in range(n):
                val = t_one.h((abar[0],), D)
                for a in abar[1:]:
                    val = F.Lbar[a].apply(val)
                checked += 1
                if val.constant_term() != t_full.h(abar, D).constant_term():
                    violations.append((abar, "collapse", D))
    return CheckReport(name="leading-order-reduction", ok=not violations,
                       checked=checked, violations=tuple(violations))


def verify_bracket_pairing(F: Frame, filtration=None) -> CheckReport:
    """Iterated-bracket pairings at 0 equal minus the tensor entries.

    Checked for every bracket length up to the first nonvanishing one; also
    confirms the derivative-based and bracket-based first nonvanishing
    lengths agree (as markers when both are unbounded).
    """
    filt = filtration if filtration is not None else intrinsic_filtration(F)
    if filt.ell0 != filt.ell1:
        return CheckReport(name="bracket-pairing", ok=False, checked=0,
                           violations=((filt.ell0, filt.ell1),),
                           note="first nonvanishing lengths disagree")
    if not is_finite(filt.ell0):
        return CheckReport(name="bracket-pairing", ok=True, checked=0,
                           vacuous=True,
                           note=f"both lengths unbounded ({filt.ell0})")
    n = F.n
    cache = _ChainCache(F)
    checked, violations = 0, []
    for r in range(1, filt.ell0 + 1):
        tensor = h_tensor(F, r, cache)
        for abar in itertools.product(range(n), repeat=r):
            for D in range(n):
                acc = F.L[D]
                for a in abar:
                    acc = F.Lbar[a].bracket(acc)
                lhs = F.theta.pair(acc).constant_term()
                rhs = -tensor.h(abar, D).constant_term()
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
    t1 = h_tensor(F, 1)
    dtheta = exterior_derivative(F.theta)
    dthetaA = [exterior_derivative(form) for form in F.thetaA]
    checked, violations = 0, []

    def record(label, idx, ok):
        nonlocal checked
        checked += 1
        if not ok:
            violations.append((label, idx))

    for A in range(n):
        for B in range(n):
            br = F.Lbar[A].bracket(F.L[B])
            for C in range(n):
                record("bracket-transverse", (A, B, C),
                       F.thetaA[C].pair(br).is_zero()
                       and F.thetaAbar[C].pair(br).is_zero())
            record("characteristic-pairing", (A, B),
                   (F.theta.pair(br) + t1.h((A,), B)).is_zero())
            record("two-form-value", (A, B),
                   (dtheta(F.Lbar[A], F.L[B]) - t1.h((A,), B)).is_zero())
            record("cr-commute", (A, B),
                   F.L[A].bracket(F.L[B]).is_zero())
            for C in range(n):
                record("structure-pairing", (A, B, C),
                       dthetaA[C](F.Lbar[A], F.L[B]).is_zero())
    return CheckReport(name="frame-structure", ok=not violations,
                       checked=checked, violations=tuple(violations))


# ---------------------------------------------------------------------------
# point scans


@dataclass(frozen=True)
class PointResult:
    z: tuple
    s: object
    t: object
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
    on the hypersurface, which restricts the scan to polynomial graphs.
    """
    n, N = M.n, M.N
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
            Mp = from_defining(M.rho.recenter(p), N)
            k0p = extrinsic_k0(Mp, k)
            results.append(PointResult(
                z=tuple(z), s=s, t=t, status="ok", k0=k0p,
                nondegenerate=is_finite(k0p) and k0p <= k))
        except GeometryError:
            results.append(PointResult(z=tuple(z), s=s, t=t,
                                       status="singular"))
    return ScanReport(k=k, results=tuple(results))


__all__ = [
    "CheckReport", "FiltrationReport", "HTensor", "PointResult",
    "ScanReport", "Unbounded", "extrinsic_k0", "h_tensor",
    "intrinsic_filtration", "is_finite", "nondegeneracy_scan",
    "verify_bracket_pairing", "verify_derivative_recursion",
    "verify_frame_structure", "verify_leading_order_reduction",
]
