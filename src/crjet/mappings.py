"""CR maps between graph germs: transport data and reflection identities.

A map enters in ambient form, as N holomorphic truncated series sending one
graph hypersurface into another.  Its restriction to the source graph,
built once (``AmbientMap.on_graph``), gives the tangency residual and the
intrinsic components f; applying the source frame to f yields the frame
transport

    f_*(T, L_B, L_Bb) = (That, Lhat_A, Lhat_Ab) [[xi,     0,     0    ],
                                                 [eta,    gamma, 0    ],
                                                 [etabar, 0,     gbar ]],

with xi real and gamma invertible at 0.  The verify functions confirm the
first-order identities these data satisfy against the h tensors of both
germs, and solve_levi_reflection inverts the Levi-step identity: with both
Levi pairings nondegenerate at 0 it reconstructs (gamma, eta) from xi and
the conjugated data alone.

Those three readers share one Pullback, which lives for one reflect call
and is then dropped.  It holds each target entry composed with the map's
intrinsic components, keyed by (sorted abar, D), or (sorted abar, "T") for
the transverse entry.  The raw entries of both germs come from their
frames (``Frame.h``), which build every chain once.  So each entry is
composed once, and the length-(k+1) entries that the level-k recursion
reads are the very series that level k+1 reads as its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from .errors import MappingError
from .hypersurface import (
    Frame,
    Hypersurface,
    from_defining,
    intrinsic_pairing,
    linear_change,
)
from .invariants import CheckReport
from .linalg import rank
from .series import SeriesError, TruncatedSeries, dot, series_solve

HALF = Fraction(1, 2)


class AmbientMap:
    """Holomorphic truncated map between two graph germs.

    Components are N series in the ambient chart of the source, holomorphic
    (no conjugated variables).  A map whose origin image q is a nonzero
    point of the target is accepted when q lies exactly on the target: the
    target germ is recentered at q and the components are conjugated by the
    same coordinate change, so the stored map always fixes the origin.  The
    absorbed point is kept in base_point.
    """

    __slots__ = ("N", "n", "order", "components", "source", "target",
                 "base_point", "_graph")

    def __init__(self, components, source: Hypersurface,
                 target: Hypersurface):
        components = list(components)
        N = source.N
        if target.N != N:
            raise MappingError("source and target dimensions differ")
        if len(components) != N:
            raise MappingError(f"need {N} components, got {len(components)}")
        for c in components:
            if not isinstance(c, TruncatedSeries) or c.nvars != 2 * N:
                raise MappingError("components must live on the ambient chart")
            if any(any(a[N:]) for a, _ in c.terms()):
                raise MappingError("components must be holomorphic")

        q = [c.constant_term() for c in components]
        if any(not v.is_zero() for v in q):
            p = q + [v.conj() for v in q]
            if not target.rho.eval_at(p).is_zero():
                raise MappingError(
                    "origin image is not exactly on the target germ")
            target = from_defining(target.rho.recenter(p), N)
            components = linear_change(
                target.change, [c - v for c, v in zip(components, q)])
            base_point = tuple(q)
        else:
            base_point = ()

        order = min(min(c.order for c in components),
                    source.order, target.order)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "n", N - 1)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "components",
                           tuple(c.truncate(order) for c in components))
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "base_point", base_point)
        object.__setattr__(self, "_graph", None)

    def __setattr__(self, name, value):
        raise AttributeError("AmbientMap is immutable")

    def on_graph(self) -> tuple:
        """(z', w', zb', wb'): the components on the source graph, then
        their conjugates; built on first use and shared."""
        if self._graph is None:
            subs = self.source.graph_substitution()
            comps = tuple(c.compose(subs) for c in self.components)
            pairing = intrinsic_pairing(self.n)
            object.__setattr__(self, "_graph", comps + tuple(
                c.conjugate(pairing) for c in comps))
        return self._graph

    def __repr__(self):
        return f"AmbientMap(N={self.N}, order={self.order})"


def tangency_residual(F: AmbientMap) -> TruncatedSeries:
    """Target defining series composed with the map on the source graph;
    the zero series exactly when F sends source into target."""
    return F.target.rho.compose(F.on_graph())


def restrict(F: AmbientMap):
    """Intrinsic components (z'_A, zb'_A, s') of the map on the source chart.

    Raises when the tangency residual is nonzero: the image then leaves the
    target germ and no chart restriction exists.
    """
    if not tangency_residual(F).is_zero():
        raise MappingError(
            "map does not send the source germ into the target "
            "(tangency residual is nonzero)")
    g, n, N = F.on_graph(), F.n, F.N
    return g[:n] + g[N:N + n] + (HALF * (g[n] + g[N + n]),)


@dataclass(frozen=True)
class PushforwardData:
    """Transport data (xi, eta^A, gamma^A_B) of a map between framed germs.

    gamma[A][B] is the coefficient of the target field A in the image of
    the source field B, and gbar[A][B] is its conjugate.  imap carries the
    intrinsic components so target quantities can be composed with the
    map.
    """

    xi: TruncatedSeries
    eta: tuple
    gamma: tuple
    gbar: tuple
    imap: tuple
    source_frame: Frame
    target_frame: Frame

    @property
    def n(self):
        return len(self.eta)

    def conjugated(self) -> "ConjugateData":
        return ConjugateData(xi=self.xi, gammabar=self.gbar)


@dataclass(frozen=True)
class ConjugateData:
    """The reflected inputs: xi together with conj(gamma)."""

    xi: TruncatedSeries
    gammabar: tuple


def pushforward_data(F: AmbientMap, frame_src: Frame,
                     frame_tgt: Frame) -> PushforwardData:
    """Transport data from the source frame applied to the map.

    Each source field X is applied once to each intrinsic component f_u:
    theta-hat pulls back to sum_u (theta-hat_u o f) X(f_u), which must
    vanish on every L_B and Lbar_B, and Lbar_B z'_A must vanish; together
    they say the map is CR.  Then xi, eta^A and gamma^A_B are theta-hat
    of f_* T, T z'_A and L_B z'_A.  gamma must be invertible at 0 and xi
    real and nonzero at 0.
    """
    imap = restrict(F)
    n = F.n
    theta = [c.compose(imap) for c in frame_tgt.theta.coeffs]

    def push(X):
        """theta-hat paired through the map with X, and X z'_A."""
        Xf = [X.apply(f) for f in imap]
        return dot(zip(theta, Xf)), tuple(Xf[:n])

    gamma_t = []
    for B in range(n):
        on_L, L_z = push(frame_src.L[B])
        on_Lbar, Lbar_z = push(frame_src.Lbar[B])
        if not on_L.is_zero() or not on_Lbar.is_zero():
            raise MappingError(
                "pulled-back characteristic form is not proportional to "
                "the source one; the map is not CR")
        if not all(d.is_zero() for d in Lbar_z):
            raise MappingError(
                "pulled-back holomorphic coframe has an antiholomorphic "
                "component; the map is not CR")
        gamma_t.append(L_z)
    xi, eta = push(frame_src.T)
    gamma = tuple(zip(*gamma_t))

    xi0 = xi.constant_term()
    if xi0.is_zero() or not xi0.is_real():
        raise MappingError("transverse factor must be real and nonzero at 0")
    pairing = intrinsic_pairing(n)
    if xi.conjugate(pairing) != xi:
        raise MappingError("transverse factor came out non-real")
    g0 = [[gamma[A][B].constant_term() for B in range(n)] for A in range(n)]
    if rank(g0) != n:
        raise MappingError("map is not a diffeomorphism at 0 "
                           "(CR Jacobian singular)")
    gbar = tuple(tuple(g.conjugate(pairing) for g in row) for row in gamma)
    return PushforwardData(xi=xi, eta=eta, gamma=gamma, gbar=gbar,
                           imap=imap, source_frame=frame_src,
                           target_frame=frame_tgt)


class Pullback:
    """Target entries composed with the map's intrinsic components, each
    computed once.

    Entries depend only on the multiset of abar, so they are keyed by the
    sorted word.  Returned series are shared between callers and must not
    be mutated.
    """

    def __init__(self, frame_src: Frame, frame_tgt: Frame, imap):
        self.source_frame = frame_src
        self._target = frame_tgt
        self._subs = list(imap)
        self._entries = {}

    def entry(self, abar: tuple, D) -> TruncatedSeries:
        """Target entry h(abar, D), or the transverse entry when D is "T",
        composed with the map."""
        key = (tuple(sorted(abar)), D)
        series = self._entries.get(key)
        if series is None:
            tgt = self._target
            raw = tgt.transverse(abar) if D == "T" else tgt.h(abar, D)
            series = raw.compose(self._subs)
            self._entries[key] = series
        return series


def verify_reflection_base(data: PushforwardData,
                           pull: Pullback) -> CheckReport:
    """Residuals of the five first-order transport identities.

    The source entries come from the source frame, and pull supplies the
    length-1 target entries composed with the map.  Each identity must
    give the zero series; violations carry an identity label and the
    offending indices.
    """
    n = data.n
    Fm = data.source_frame
    pairing = intrinsic_pairing(n)
    xi, eta, gamma, gbar = data.xi, data.eta, data.gamma, data.gbar
    hhat = [[pull.entry((C,), D) for D in range(n)] for C in range(n)]
    hhatT = [pull.entry((C,), "T") for C in range(n)]

    checked, violations = 0, []

    def record(label, idx, res):
        nonlocal checked
        checked += 1
        if not res.is_zero():
            violations.append((label, idx))

    for A in range(n):
        for B in range(n):
            res = xi * Fm.h((A,), B)
            for C in range(n):
                for D in range(n):
                    res = res - gamma[D][B] * gbar[C][A] * hhat[C][D]
            record("levi-transport", (A, B), res)
    for A in range(n):
        for B in range(n):
            for E in range(n):
                res = Fm.Lbar[A].apply(gamma[E][B]) + eta[E] * Fm.h((A,), B)
                record("gamma-derivative", (A, B, E), res)
    for A in range(n):
        res = Fm.Lbar[A].apply(xi) + xi * Fm.transverse((A,))
        for C in range(n):
            res = res - xi * gbar[C][A] * hhatT[C]
            for D in range(n):
                res = res - gbar[C][A] * eta[D] * hhat[C][D]
        record("xi-derivative", (A,), res)
    for A in range(n):
        for C in range(n):
            res = Fm.Lbar[A].apply(eta[C]) + eta[C] * Fm.transverse((A,))
            record("eta-derivative", (A, C), res)
    for A in range(n):
        tbar = Fm.transverse((A,)).conjugate(pairing)
        for C in range(n):
            res = Fm.T.apply(gamma[C][A]) - Fm.L[A].apply(eta[C]) \
                - eta[C] * tbar
            record("transverse-derivative", (A, C), res)
    return CheckReport(name="reflection-base", ok=not violations,
                       checked=checked, violations=tuple(violations))


def verify_transport_recursion(data: PushforwardData, pull: Pullback,
                               k: int) -> CheckReport:
    """Residuals of the two k-indexed transport identities.

    For each bar tuple of length k, differentiating the gamma- or
    eta-contracted target entry along a conjugate field must reproduce the
    length-(k+1) entry minus the transverse and Levi correction terms.
    The source entries come from the source frame, and pull supplies the
    target entries of lengths 1, k and k+1 composed with the map.  Entries
    are keyed by sorted words, so every ordering of a tuple repeats the
    same residual: only sorted tuples are walked.
    """
    n = data.n
    Fm = data.source_frame
    eta, gamma, gbar = data.eta, data.gamma, data.gbar
    h1 = [[pull.entry((I,), H) for H in range(n)] for I in range(n)]

    # the products with gbar do not depend on abar: negated once here
    pairs_H_I = [(H, I) for H in range(n) for I in range(n)]
    gamma_gbar = [[[-(gamma[H][B] * gbar[I][C]) for H, I in pairs_H_I]
                   for C in range(n)] for B in range(n)]
    eta_gbar = [[-(eta[H] * gbar[I][C]) for H, I in pairs_H_I]
                for C in range(n)]

    checked, violations = 0, []
    for abar in combinations_with_replacement(range(n), k):
        hk = [pull.entry(abar, D) for D in range(n)]
        hkT = pull.entry(abar, "T")
        # the length-(k+1) entry less its transverse correction, per (H, I)
        diff = [pull.entry(abar + (I,), H) - hkT * h1[I][H]
                for H, I in pairs_H_I]
        eta_hk = [eta[H] * hk[H] for H in range(n)]
        for B in range(n):
            inner = dot(zip((gamma[D][B] for D in range(n)), hk))
            for C in range(n):
                res = Fm.Lbar[C].apply(inner) + dot(
                    list(zip(gamma_gbar[B][C], diff))
                    + [(e, Fm.h((C,), B)) for e in eta_hk])
                checked += 1
                if not res.is_zero():
                    violations.append(("gamma-recursion", abar, B, C))
        inner = dot(zip(eta, hk))
        for C in range(n):
            res = Fm.Lbar[C].apply(inner) + dot(
                list(zip(eta_gbar[C], diff))
                + [(e, Fm.transverse((C,))) for e in eta_hk])
            checked += 1
            if not res.is_zero():
                violations.append(("eta-recursion", abar, C))
    return CheckReport(name="transport-recursion", ok=not violations,
                       checked=checked, violations=tuple(violations))


def solve_levi_reflection(conj: ConjugateData, pull: Pullback):
    """Reconstruct (gamma, eta) from xi and the conjugated data.

    Inverts the Levi-transport identity: the pairing matrix
    sum_C gammabar^C_A hhat_{CbD} is a unit matrix at 0 exactly when both
    germs are Levi-nondegenerate there, and then gamma solves the
    Levi-transport rows while eta solves the xi-derivative rows, all in
    one call of series_solve, degree by degree.  The source entries come
    from the source frame, and pull supplies the length-1 target entries
    composed with the map; neither reads gamma or eta.
    """
    frame_src = pull.source_frame
    n = frame_src.n
    xi = conj.xi
    G = [[dot((conj.gammabar[C][A], pull.entry((C,), D)) for C in range(n))
          for D in range(n)] for A in range(n)]
    try:
        columns = [[xi * frame_src.h((A,), B) for A in range(n)]
                   for B in range(n)]
        rhs = []
        for A in range(n):
            r = frame_src.Lbar[A].apply(xi) + xi * frame_src.transverse((A,))
            for C in range(n):
                r = r - xi * conj.gammabar[C][A] * pull.entry((C,), "T")
            rhs.append(r)
        cols = series_solve(G, columns + [rhs])
    except SeriesError as exc:
        raise MappingError(
            "Levi pairing is singular at 0; reconstruction needs "
            "1-nondegenerate germs") from exc
    gamma = tuple(tuple(cols[B][D] for B in range(n)) for D in range(n))
    return gamma, tuple(cols[n])
