"""Shared model builders: defining series for the hypersurfaces under test,
maps between them, and frames adapted to a filtration."""

from __future__ import annotations

import random
from fractions import Fraction

from crjet.hypersurface import (Frame, GeometryError, ambient_var,
                                from_defining, intrinsic_pairing)
from crjet.linalg import SpanTracker, nullspace
from crjet.mappings import AmbientMap, MappingError
from crjet.series import CS_ONE, CS_ZERO, CScalar, TruncatedSeries

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
    subs = list(G.components) + list(G.conjugate_components())
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


# ----------------------------------------------------------------------
# frames adapted to a filtration


def adapt_frame(frame, filtration):
    """Reorder the CR frame by constants so trailing fields span each kernel.

    The filtration report supplies, at the origin, a descending chain of
    kernel subspaces in frame coordinates; the returned frame applies a
    constant invertible change so that for every stage k the final fields
    L_{r_k+1}, ..., L_n span stage k's kernel.  Constant changes keep every
    frame bracket proportional to T and every d theta^A zero.
    """
    n = frame.n
    bases = list(filtration.Fk_bases)
    for basis in bases:
        for vec in basis:
            if len(vec) != n:
                raise GeometryError("filtration inconsistent with frame size")
    tracker = SpanTracker(n)
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
        acc = frame.L[0].scaled(C[0][A])
        for B in range(1, n):
            acc = acc + frame.L[B].scaled(C[B][A])
        newL.append(acc)
    pairing = intrinsic_pairing(n)
    newLbar = [X.conjugate(pairing) for X in newL]

    # column j of C^-1 solves C x = e_j: the nullspace of [C | -e_j] is
    # spanned by (x, 1)
    Cinv_cols = [nullspace([C[i] + [-CS_ONE if i == j else CS_ZERO]
                            for i in range(n)])[0][:n] for j in range(n)]
    newThetaA = []
    for A in range(n):
        acc = frame.thetaA[0].scaled(Cinv_cols[0][A])
        for B in range(1, n):
            acc = acc + frame.thetaA[B].scaled(Cinv_cols[B][A])
        newThetaA.append(acc)
    newThetaAbar = [f.conjugate(pairing) for f in newThetaA]
    return Frame(n, frame.T, newL, newLbar, frame.theta, newThetaA,
                 newThetaAbar)


def max_deviation(result, truth) -> float:
    """Largest deviation of any component of an integrate result from the
    closed form truth(point) over its grid."""
    return max((abs(v - float(t)) for pt, vals in result.values.items()
                for v, t in zip(vals, truth(pt))), default=0.0)
