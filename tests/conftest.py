"""Shared model builders: defining series for the hypersurfaces under test,
maps between them, the reference eliminator, frames adapted to a
filtration, the pulled-back coframe route to a map's transport data,
and the tangency problem built and solved on its own:
restrictions composed candidate by candidate, the complex problem, and the
fields of a solution."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from crjet.autdim import (AutError, FormalVectorField, _holo_exponents,
                          tangency_restrictions)
from crjet.hypersurface import (Frame, GeometryError, OneForm,
                                ambient_pairing, ambient_var, from_defining,
                                intrinsic_pairing)
from crjet.linalg import SpanTracker, rank
from crjet.mappings import AmbientMap, MappingError
from crjet.series import (CS_I, CS_ONE, CS_ZERO, CScalar, TruncatedSeries,
                          dot)

HALF = Fraction(1, 2)


def im_w(N: int, order: int) -> TruncatedSeries:
    w = ambient_var(N, N - 1, order)
    wb = ambient_var(N, 2 * N - 1, order)
    return CScalar(0, -HALF) * (w - wb)


def intrinsic_var(n: int, index: int, order: int) -> TruncatedSeries:
    """Coordinate index of the chart (z_1..z_n, zb_1..zb_n, s)."""
    return TruncatedSeries.variable(2 * n + 1, index, order)


def re_w(N: int, order: int) -> TruncatedSeries:
    w = ambient_var(N, N - 1, order)
    wb = ambient_var(N, 2 * N - 1, order)
    return HALF * (w + wb)


def heisenberg_rho(N: int, order: int) -> TruncatedSeries:
    """Im w = sum |z_j|^2, the nondegenerate model."""
    out = im_w(N, order)
    for j in range(N - 1):
        out = out - ambient_var(N, j, order) * ambient_var(N, N + j, order)
    return out


def m2_rho(order: int) -> TruncatedSeries:
    """Im w = |z|^4 in C^2: degenerate Levi form, finite type 4."""
    z = ambient_var(2, 0, order)
    zb = ambient_var(2, 2, order)
    return im_w(2, order) - (z * zb) ** 2


def m3_rho(order: int) -> TruncatedSeries:
    """Im w = |z1|^2 + Re(z1^2 zb2) in C^3: nondegenerate only at step 2."""
    z1, z2 = ambient_var(3, 0, order), ambient_var(3, 1, order)
    zb1, zb2 = ambient_var(3, 3, order), ambient_var(3, 4, order)
    return im_w(3, order) - z1 * zb1 - HALF * (z1 * z1 * zb2 + zb1 * zb1 * z2)


def m4_rho(order: int) -> TruncatedSeries:
    """Im w = Re(z1^2 zb2) in C^3: zero Levi form at 0, second step nonzero."""
    z1, z2 = ambient_var(3, 0, order), ambient_var(3, 1, order)
    zb1, zb2 = ambient_var(3, 3, order), ambient_var(3, 4, order)
    return im_w(3, order) - HALF * (z1 * z1 * zb2 + zb1 * zb1 * z2)


def graph_rho(phi: TruncatedSeries, N: int, order: int) -> TruncatedSeries:
    """Ambient defining series Im w - phi(z, zb, Re w) for an intrinsic phi."""
    n = N - 1
    subs = [ambient_var(N, j, order) for j in range(n)]
    subs.extend(ambient_var(N, N + j, order) for j in range(n))
    subs.append(re_w(N, order))
    return im_w(N, order) - phi.extended(order).compose(subs)


def random_phi(rng: random.Random, n: int, order: int, terms: int = 5,
               mindeg: int = 2):
    """Random real graph series with no constant or linear part."""
    nv = 2 * n + 1
    psi = TruncatedSeries.zero(nv, order)
    for _ in range(terms):
        alpha = [0] * nv
        for _ in range(rng.randrange(mindeg, order + 1)):
            alpha[rng.randrange(nv)] += 1
        if sum(alpha) > order or sum(alpha) < mindeg:
            continue
        c = CScalar(Fraction(rng.randrange(-2, 3), rng.randrange(1, 4)),
                    Fraction(rng.randrange(-2, 3), rng.randrange(1, 4)))
        psi = psi + c * TruncatedSeries(nv, order, {tuple(alpha): 1})
    pairing = tuple(list(range(n, 2 * n)) + list(range(n)) + [2 * n])
    return psi + psi.conjugate(pairing)


def random_model(seed: int, N: int, order: int):
    rng = random.Random(seed)
    phi = random_phi(rng, N - 1, order)
    return from_defining(graph_rho(phi, N, order), N)


def random_nondegenerate_model(seed: int, N: int, order: int):
    """Sum |z_j|^2 plus random cubic-and-higher noise: unit Levi pivot at 0."""
    rng = random.Random(seed)
    n = N - 1
    nv = 2 * n + 1
    phi = random_phi(rng, n, order, mindeg=3)
    for j in range(n):
        zj = TruncatedSeries(nv, order, {unit_exponent(nv, j): 1})
        zbj = TruncatedSeries(nv, order, {unit_exponent(nv, n + j): 1})
        phi = phi + zj * zbj
    return from_defining(graph_rho(phi, N, order), N)


def unit_exponent(nv: int, index: int) -> tuple:
    alpha = [0] * nv
    alpha[index] = 1
    return tuple(alpha)


# ----------------------------------------------------------------------
# ambient self-maps of the quadric model, used across mapping suites


def heis(N: int, order: int = 8):
    return from_defining(heisenberg_rho(N, order), N)


def identity_map(M, order=None):
    W = M.order if order is None else order
    comps = [ambient_var(M.N, j, W) for j in range(M.N)]
    return AmbientMap(comps, M, M)


def compose_maps(F, G):
    """The map F after G; the middle germs must be the same chart."""
    if F.source.rho != G.target.rho:
        raise MappingError("composition needs a matching middle germ")
    pairing = ambient_pairing(G.N)
    subs = list(G.components) + [c.conjugate(pairing) for c in G.components]
    comps = [c.compose(subs) for c in F.components]
    return AmbientMap(comps, G.source, F.target)


def dilation(M, lam):
    """(z, w) -> (lam z, lam^2 w), an automorphism for real lam != 0."""
    N, W = M.N, M.order
    comps = [lam * ambient_var(N, j, W) for j in range(N - 1)]
    comps.append(lam * lam * ambient_var(N, N - 1, W))
    return AmbientMap(comps, M, M)


def rotation(M, c=None):
    """(z, w) -> (c z, w) with |c| = 1; defaults to c = i."""
    c = CScalar(0, 1) if c is None else c
    W = M.order
    return AmbientMap([c * ambient_var(2, 0, W), ambient_var(2, 1, W)],
                      M, M)


def tau(M, a):
    """Quadric translation: fixes the graph, moves 0 to (a, i|a|^2)."""
    a = CScalar.coerce(a)
    W = M.order
    z, w = ambient_var(2, 0, W), ambient_var(2, 1, W)
    shift_z = z + TruncatedSeries.constant(4, a, W)
    shift_w = w + (CScalar(0, 2) * a.conj()) * z \
        + TruncatedSeries.constant(4, CScalar(0, 1) * a * a.conj(), W)
    return AmbientMap([shift_z, shift_w], M, M)


def sigma(M, c):
    """Exact quadric automorphism with nonzero drift:
    (z, w) -> ((z + c w)/d, w/d), d = 1 - 2i conj(c) z - i|c|^2 w."""
    c = CScalar.coerce(c)
    W = M.order
    z, w = ambient_var(2, 0, W), ambient_var(2, 1, W)
    one = TruncatedSeries.constant(4, 1, W)
    d = one - (CScalar(0, 2) * c.conj()) * z \
        - (CScalar(0, 1) * c * c.conj()) * w
    inv = d.invert_unit()
    return AmbientMap([(z + c * w) * inv, w * inv], M, M)


def _pulled_back(form, imap) -> OneForm:
    """The pullback of form through the intrinsic components imap, each
    coefficient composed and contracted with the map's Jacobian."""
    subs = list(imap)
    nv = len(subs)
    pulled = [(cu.compose(subs), imap[u])
              for u, cu in enumerate(form.coeffs) if not cu.is_zero()]
    return OneForm([dot([(pu, mu.derive(v)) for pu, mu in pulled],
                        subs[0].order - 1, nv) for v in range(nv)])


def pullback_transport(F, frame_src, frame_tgt):
    """Oracle for pushforward_data: (xi, eta, gamma) read off the target
    coframe pulled back through the map one form at a time, with the map
    restricted in ambient form.  Refuses a map with the same messages."""
    N, n, M = F.N, F.n, F.source
    conj = [c.conjugate(ambient_pairing(N)) for c in F.components]
    if not M.restrict(F.target.rho.compose(list(F.components) + conj)) \
            .is_zero():
        raise MappingError(
            "map does not send the source germ into the target "
            "(tangency residual is nonzero)")
    comps = [M.restrict(c) for c in F.components]
    pairing = intrinsic_pairing(n)
    imap = comps[:n] + [c.conjugate(pairing) for c in comps[:n]] \
        + [HALF * (comps[n] + comps[n].conjugate(pairing))]
    f_theta = _pulled_back(frame_tgt.theta, imap)
    f_thetaA = [_pulled_back(th, imap) for th in frame_tgt.thetaA]
    for B in range(n):
        if not f_theta.pair(frame_src.L[B]).is_zero() or \
                not f_theta.pair(frame_src.Lbar[B]).is_zero():
            raise MappingError(
                "pulled-back characteristic form is not proportional to "
                "the source one; the map is not CR")
        for A in range(n):
            if not f_thetaA[A].pair(frame_src.Lbar[B]).is_zero():
                raise MappingError(
                    "pulled-back holomorphic coframe has an antiholomorphic "
                    "component; the map is not CR")
    xi = f_theta.pair(frame_src.T)
    eta = tuple(f_thetaA[A].pair(frame_src.T) for A in range(n))
    gamma = tuple(tuple(f_thetaA[A].pair(frame_src.L[B]) for B in range(n))
                  for A in range(n))
    xi0 = xi.constant_term()
    if xi0.is_zero() or not xi0.is_real():
        raise MappingError("transverse factor must be real and nonzero at 0")
    if xi.conjugate(pairing) != xi:
        raise MappingError("transverse factor came out non-real")
    if rank([[g.constant_term() for g in row] for row in gamma]) != n:
        raise MappingError("map is not a diffeomorphism at 0 "
                           "(CR Jacobian singular)")
    return xi, eta, gamma


# ----------------------------------------------------------------------
# the reference eliminator: sparse Gauss-Jordan over Fraction and CScalar,
# the kernel the integer one replaced


def _subtract(row: dict, f, pivot_row: dict):
    """row -= f * pivot_row in place, dropping entries that cancel."""
    for c, x in pivot_row.items():
        v = row[c] - f * x if c in row else -f * x
        if v:
            row[c] = v
        else:
            del row[c]


def _entries(vec):
    return vec.items() if isinstance(vec, dict) else enumerate(vec)


def ref_insert(vec, echelon: dict) -> bool:
    """Reduce vec, a dense sequence or a {column: value} dict of int,
    Fraction or CScalar values, against echelon by its lowest columns;
    store it, normalised, under the first lead with no echelon row.  int
    entries become Fraction, so no division yields a float."""
    row = {c: Fraction(x) if isinstance(x, int) else x
           for c, x in _entries(vec) if x}
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
        ref_insert(row, echelon)
    for p in sorted(echelon, reverse=True):
        row = echelon[p]
        for q in [q for q in row if q != p and q in echelon]:
            _subtract(row, row[q], echelon[q])
    return echelon


def ref_nullspace(rows, ncols) -> list:
    """Nullspace basis of rows over ncols columns, one vector per free
    column: CScalar entries when any entry of rows is a CScalar, Fraction
    entries otherwise."""
    red = ref_reduced_echelon(rows)
    cplx = any(isinstance(x, CScalar) for r in rows for _, x in _entries(r))
    coerce = CScalar.coerce if cplx else Fraction
    basis = []
    for fc in range(ncols):
        if fc in red:
            continue
        v = [coerce(0)] * ncols
        v[fc] = coerce(1)
        for p, row in red.items():
            if fc in row:
                v[p] = coerce(-row[fc])
        basis.append(v)
    return basis


# ----------------------------------------------------------------------
# frames adapted to a filtration


def kernel_bases(F, kmax=None) -> list:
    """Oracle for the kernel filtration at the origin: a nullspace basis
    of F_k for k = 0..kmax (default n, as in intrinsic_filtration), where
    F_k is the kernel of the h rows at 0 of the words up to length k."""
    n = F.n
    rows, bases = [], []
    for k in range(n + 1 if kmax is None else kmax + 1):
        for abar in itertools.combinations_with_replacement(range(n), k):
            rows.append([F.h(abar, D).constant_term()
                         for D in range(n)])
        bases.append(ref_nullspace(rows, n))
    return bases


def scaled(X, factor):
    """A field or form with every coefficient multiplied by a CScalar or
    a TruncatedSeries on the same chart."""
    return type(X)([factor * c for c in X.coeffs])


def adapt_frame(frame, bases):
    """Reorder the CR frame by constants so trailing fields span each kernel.

    bases is a descending chain of kernel subspaces at the origin in frame
    coordinates, one basis per stage, as kernel_bases returns it; the
    returned frame applies a constant invertible change so that for every
    stage k the final fields L_{r_k+1}, ..., L_n span stage k's kernel.
    Constant changes keep every frame bracket proportional to T and every
    d theta^A zero.
    """
    n = frame.n
    for basis in bases:
        for vec in basis:
            if len(vec) != n:
                raise GeometryError("filtration inconsistent with frame size")
    tracker = SpanTracker()
    ordered = []
    for basis in reversed(bases):
        for vec in basis:
            if tracker.add(vec):
                ordered.append(vec)
    for j in range(n):  # complete with coordinate directions if needed
        vec = [CS_ONE if i == j else CS_ZERO for i in range(n)]
        if tracker.add(vec):
            ordered.append(vec)
    if len(ordered) != n:
        raise GeometryError("filtration inconsistent with frame size")
    cols = list(reversed(ordered))  # deepest kernel vectors go last

    C = [[cols[A][B] for A in range(n)] for B in range(n)]  # C[B][A]
    newL = []
    for A in range(n):
        acc = scaled(frame.L[0], C[0][A])
        for B in range(1, n):
            acc = acc + scaled(frame.L[B], C[B][A])
        newL.append(acc)
    pairing = intrinsic_pairing(n)
    newLbar = [X.conjugate(pairing) for X in newL]

    # column j of C^-1 solves C x = e_j: the nullspace of [C | -e_j] is
    # spanned by (x, 1)
    Cinv_cols = [ref_nullspace([C[i] + [-CS_ONE if i == j else CS_ZERO]
                                for i in range(n)], n + 1)[0][:n]
                 for j in range(n)]
    newThetaA = []
    for A in range(n):
        acc = scaled(frame.thetaA[0], Cinv_cols[0][A])
        for B in range(1, n):
            acc = acc + scaled(frame.thetaA[B], Cinv_cols[B][A])
        newThetaA.append(acc)
    newThetaAbar = [f.conjugate(pairing) for f in newThetaA]
    return Frame(n, frame.T, newL, newLbar, frame.theta, newThetaA,
                 newThetaAbar)


# ----------------------------------------------------------------------
# tangency problems assembled through terms()


def compose_restrictions(M, d, order, weights=None) -> tuple:
    """Oracle for tangency_restrictions: every candidate product
    z^alpha * d rho/dz_j composed with the graph substitution on its own,
    over the same candidates with the same candidate checks, in the same
    order."""
    N, W = M.N, M.order
    if d < 0:
        raise AutError("degree bound must be non-negative")
    if order > W - 1:
        raise AutError(
            f"order {order} exceeds the germ's usable truncation {W - 1}")
    grads = [M.rho.derive(j) for j in range(N)]
    mindeg = [next((e for e, c in enumerate(g.degree_counts()) if c), None)
              for g in grads]
    out = []
    for j in range(N):
        for alpha in _holo_exponents(N, d, weights, j):
            if mindeg[j] is not None and sum(alpha) + mindeg[j] > order:
                raise AutError(f"order {order} is too small for degree "
                               f"bound {d}: candidate {alpha}")
            mono = TruncatedSeries(2 * N, W, {alpha: CS_ONE})
            out.append((j, alpha, M.restrict(mono * grads[j])))
    return tuple(out)


def basis_fields(system, order) -> list:
    """One field per nullspace vector of a TangencySystem solved at the
    tangency order order, at the germ order order + 1 that its solve
    needs at least."""
    N, W = len(system.unknowns[0][1]) // 2, order + 1
    fields = []
    for v in system.vectors:
        coeffs = [{} for _ in range(N)]
        for t in range(0, len(v), 2):
            if v[t] or v[t + 1]:
                j, alpha, _ = system.unknowns[t]
                coeffs[j][alpha] = CScalar(v[t], v[t + 1])
        fields.append(FormalVectorField(
            [TruncatedSeries(2 * N, W, c) for c in coeffs]))
    return fields


def labeled_tangency_rows(restrictions, order, real):
    """Equation rows read through terms(), each as (e, part, row) with e
    the graph monomial's exponent tuple: CScalar entries and part None for
    the complex problem, Fraction entries and part "re" or "im" for the
    real one, rows in exponent-tuple order."""
    pairing = None
    residuals = []
    for _, _, Rc in restrictions:
        if real:
            pairing = pairing or intrinsic_pairing(Rc.nvars // 2)
            Rcc = Rc.conjugate(pairing)
            residuals += [Rc + Rcc, CS_I * (Rc - Rcc)]
        else:
            residuals.append(Rc)
    entries = {}
    for t, R in enumerate(residuals):
        for e, c in R.truncate(order).terms():
            entries.setdefault(e, {})[t] = c
    rows = []
    for e in sorted(entries):
        row = entries[e]
        if real:
            for part in ("re", "im"):
                got = {t: getattr(c, part) for t, c in row.items()
                       if getattr(c, part)}
                if got:
                    rows.append((e, part, got))
        else:
            rows.append((e, None, row))
    return rows


def tangency_rows(restrictions, order, real):
    """The rows of labeled_tangency_rows without their labels."""
    return [row for _, _, row in
            labeled_tangency_rows(restrictions, order, real)]


def residual_system(M, d, order, weights=None):
    """Oracle for the real tangency system assembled from residual series:
    every candidate's R + conj R and i (R - conj R) built whole, a residual
    that vanishes up to order but not beyond refused with the solver's
    message, and (unknowns, rows) with the full, unhalved rows of
    tangency_rows."""
    restrictions = tangency_restrictions(M, d, order, weights)
    pairing = intrinsic_pairing(M.N - 1)
    unknowns = []
    for j, alpha, R in restrictions:
        Rcc = R.conjugate(pairing)
        for part, res in enumerate((R + Rcc, CS_I * (R - Rcc))):
            unknowns.append((j, alpha, part))
            if res.truncate(order).is_zero() and not res.is_zero():
                raise AutError(
                    f"order {order} is too small for degree bound {d}: "
                    f"candidate {unknowns[-1]} only contributes beyond it, "
                    "so the system is vacuous there")
    return unknowns, tangency_rows(restrictions, order, True)


def holomorphic_oracle(M, d, order, weights=None):
    """Oracle for the complex tangency problem Y rho = 0 on M, assembled
    and eliminated on its own over CScalar: (unknowns, rows, vectors,
    fields), with one unknown (j, alpha) per candidate monomial and one
    field per nullspace vector.  Raises AutError where the restrictions
    do, and where a candidate contributes only beyond the order."""
    restrictions = tangency_restrictions(M, d, order, weights)
    for j, alpha, R in restrictions:
        if R.truncate(order).is_zero() and not R.is_zero():
            raise AutError(f"candidate {(j, alpha)} is vacuous at order "
                           f"{order}")
    unknowns = [(j, alpha) for j, alpha, _ in restrictions]
    rows = tangency_rows(restrictions, order, False)
    vectors = ref_nullspace(rows, len(unknowns))
    N, W = M.N, M.order
    fields = [FormalVectorField([
        TruncatedSeries(2 * N, W, {alpha: v[t]
                                   for t, (j, alpha) in enumerate(unknowns)
                                   if j == i and v[t]})
        for i in range(N)]) for v in vectors]
    return unknowns, rows, vectors, fields


def max_deviation(result, truth) -> float:
    """Largest deviation of any component of an integrate result from the
    closed form truth(point) over its grid."""
    return max((abs(v - float(t)) for pt, vals in result.values.items()
                for v, t in zip(vals, truth(pt))), default=0.0)
