"""Real hypersurfaces in complex space, graph normalization, and frames.

A hypersurface through the origin of C^N is described by a real defining
series rho in the ambient variables (z_1..z_n, w, zb_1..zb_n, wb), n = N-1.
`_linear_normalization`, which only `from_defining` calls, applies an
invertible linear holomorphic change P so that the linear part of rho
becomes Im w.  P has a closed form in
g = d rho / d(z, w) at 0.  It is the identity exactly when
g = (0, ..., 0, -i/2), which is decided from g before any matrix is
built, and then rho is returned as it is.  Otherwise the last row of P is
2i g, so the new w is 2i times the holomorphic linear part of rho.  It
replaces the old coordinate k: w itself when Im g_w != 0, else a
coordinate with the largest |g_j|^2, the lowest index winning ties.
Every other row r of P is the unit row e_sigma(r), sigma the
transposition of k and N-1 (a swap may leave the last row 2i g a unit
row too, so the identity is read off all of g).  `from_defining` then
solves rho = 0 for t = Im w by Newton iteration on series.  The result
is a graph

    Im w = phi(z, zb, s),        s = Re w,

with phi real, phi(0) = 0, d phi(0) = 0.  All intrinsic computation happens
in the chart (z_1..z_n, zb_1..zb_n, s).

A rho affine in t, rho = a t + b with a and b free of t (every polynomial
graph Im w - phi(z, zb, Re w), and every rho of degree at most 1 in w and
wb), has the graph phi = -b / a, which one Newton step from phi = 0 at
the germ's order gives exactly.  Other germs run Newton at doubling
precision (Brent and Kung, "Fast algorithms for manipulating formal power
series", J. ACM 25, 1978): a step that starts from phi exact through
degree c leaves it exact through degree 2c + 1, so each step only needs
about twice the order of the one before.  For a germ of order W the steps
run at orders W // 2^k, from the first at most 3 (phi = 0 is exact
through degree 1) up to W, where they stop: terms above the germ's order
are unknown, and the graph at order W is exact.  A germ builds its graph
substitution once and every restriction reuses it.

`build_frame` produces the tangential frame

    T = d/ds,
    Lbar_j = d/dzb_j + a_j d/ds,   a_j = -i phi_{zb_j} / (1 + i phi_s),
    L_j = conjugate(Lbar_j),

and its dual coframe in closed form,

    theta = ds - sum_j conj(a_j) dz_j - sum_j a_j dzb_j,
    theta^A = dz_A,   theta^Abar = dzb_A.

In this frame every bracket of frame fields is a multiple of d/ds and each
theta^A is an exact differential, so all structure pairings of d theta^A
against frame pairs vanish identically; downstream identity checks rely on
that shape.
"""

from __future__ import annotations

from .errors import GeometryError
from .series import (CS_I, CS_ONE, CS_ZERO, CScalar, OrderExhausted,
                     SeriesError, TruncatedSeries, derivation, dot)


# ---------------------------------------------------------------------------
# chart conventions


def intrinsic_pairing(n: int) -> tuple:
    """Conjugation permutation for the chart (z_1..z_n, zb_1..zb_n, s)."""
    return tuple(list(range(n, 2 * n)) + list(range(n)) + [2 * n])


def ambient_pairing(N: int) -> tuple:
    """Conjugation permutation for the chart (z_1..z_n, w, zb_1..zb_n, wb)."""
    return tuple(list(range(N, 2 * N)) + list(range(N)))


def ambient_var(N: int, index: int, order: int) -> TruncatedSeries:
    return TruncatedSeries.variable(2 * N, index, order)


# ---------------------------------------------------------------------------
# first-order operators and one-forms on a chart


class DenseCoefficients:
    """Immutable dense tuple of series on one chart, at a common order.

    The shell of every field and form type: construction truncates the
    coefficients to their lowest order and keeps the nonzero ones once, as
    (variable, coefficient) pairs in ``slots``, and the linear operations act
    slot by slot.  Subclasses add their own operations and may replace
    _check, which by default asks for one coefficient per chart variable.
    """

    __slots__ = ("nvars", "order", "coeffs", "slots")

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise SeriesError("empty coefficient list")
        nvars = coeffs[0].nvars
        if any(c.nvars != nvars for c in coeffs):
            raise SeriesError("coefficient variable-space mismatch")
        self._check(coeffs, nvars)
        order = min(c.order for c in coeffs)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "order", order)
        coeffs = tuple(c.truncate(order) for c in coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "slots", tuple(
            (v, c) for v, c in enumerate(coeffs) if not c.is_zero()))

    def _check(self, coeffs, nvars):
        if len(coeffs) != nvars:
            raise SeriesError("need one coefficient per chart variable")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self) -> bool:
        return not self.slots

    def conjugate(self, pairing):
        """Conjugate every coefficient and move slot v to pairing[v]."""
        new = [None] * len(self.coeffs)
        for v, c in enumerate(self.coeffs):
            new[pairing[v]] = c.conjugate(pairing)
        return type(self)(new)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return type(self)([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return type(self)([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return type(self)([-c for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self):
        return (f"{type(self).__name__}(order={self.order}, "
                f"coeffs={list(self.coeffs)!r})")


class VectorFieldOp(DenseCoefficients):
    """First-order differential operator sum_v c_v(x) d/dx_v on a chart.

    ``apply`` hands the nonzero (variable, coefficient) slots, kept once
    at construction, to ``derivation``: the field acts through those slots
    alone, and on the zero series it builds no product.
    """

    __slots__ = ()

    def apply(self, f: TruncatedSeries) -> TruncatedSeries:
        return derivation(self.slots, self.nvars, self.order, f)

    def bracket(self, other: "VectorFieldOp") -> "VectorFieldOp":
        if self.nvars != other.nvars:
            raise SeriesError("bracket of operators on different charts")
        return VectorFieldOp(
            [self.apply(other.coeffs[v]) - other.apply(self.coeffs[v])
             for v in range(self.nvars)]
        )


class OneForm(DenseCoefficients):
    """Differential form sum_v w_v(x) dx_v on a chart."""

    __slots__ = ()

    def pair(self, X: VectorFieldOp) -> TruncatedSeries:
        if self.nvars != X.nvars:
            raise SeriesError("pairing across different charts")
        return dot(zip(self.coeffs, X.coeffs), min(self.order, X.order),
                   self.nvars)


class TwoFormEvaluator:
    """Antisymmetric pairing d omega(X, Y) with an interior-product helper."""

    __slots__ = ("nvars", "order", "coeffs")

    def __init__(self, omega: OneForm):
        if omega.order < 1:
            raise OrderExhausted("one-form order too low to differentiate")
        nvars = omega.nvars
        coeffs = {}
        for u in range(nvars):
            for v in range(u + 1, nvars):
                c = omega.coeffs[v].derive(u) - omega.coeffs[u].derive(v)
                if not c.is_zero():
                    coeffs[(u, v)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "order", omega.order - 1)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TwoFormEvaluator is immutable")

    def component(self, u: int, v: int) -> TruncatedSeries:
        if u == v:
            return TruncatedSeries.zero(self.nvars, self.order)
        if u < v:
            got = self.coeffs.get((u, v))
            sign = 1
        else:
            got = self.coeffs.get((v, u))
            sign = -1
        if got is None:
            return TruncatedSeries.zero(self.nvars, self.order)
        return sign * got

    def __call__(self, X: VectorFieldOp, Y: VectorFieldOp) -> TruncatedSeries:
        # sum over u < v of c_uv (X_u Y_v - X_v Y_u), skipping zero X_u
        pairs = []
        for (u, v), c in self.coeffs.items():
            if not X.coeffs[u].is_zero():
                pairs.append((c * X.coeffs[u], Y.coeffs[v]))
            if not X.coeffs[v].is_zero():
                pairs.append((-(c * X.coeffs[v]), Y.coeffs[u]))
        return dot(pairs, min(self.order, X.order, Y.order), self.nvars)

    def contract(self, X: VectorFieldOp) -> OneForm:
        """Interior product X -| d omega as a one-form."""
        pairs = [[] for _ in range(self.nvars)]
        for (u, v), c in self.coeffs.items():
            if not X.coeffs[u].is_zero():
                pairs[v].append((X.coeffs[u], c))
            if not X.coeffs[v].is_zero():
                pairs[u].append((-X.coeffs[v], c))
        order = min(self.order, X.order)
        return OneForm([dot(p, order, self.nvars) for p in pairs])


# ---------------------------------------------------------------------------
# hypersurface germs


class Hypersurface:
    """Graph-normalized germ Im w = phi(z, zb, s) of a real hypersurface.

    Fields: N and n = N-1; rho, the defining series in the normalized ambient
    chart; phi, the real graph series in the intrinsic chart with no constant
    or linear part; change, the N x N holomorphic matrix P with
    (z, w)_normalized = P (z, w)_original.  P's last row is 2i g, g the
    holomorphic gradient of the original rho at 0, and its row r < N-1
    is the unit row e_sigma(r), sigma the transposition of the replaced
    coordinate k with N-1 (see the module docstring).
    """

    __slots__ = ("N", "n", "order", "rho", "phi", "change", "_subs")

    def __init__(self, N, rho, phi, change):
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "n", N - 1)
        object.__setattr__(self, "order", phi.order)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "change", change)
        object.__setattr__(self, "_subs", None)

    def __setattr__(self, name, value):
        raise AttributeError("Hypersurface is immutable")

    def graph_substitution(self) -> tuple:
        """Ambient-to-intrinsic substitution (z, s+i phi, zb, s-i phi),
        built on first use and shared by every later call."""
        if self._subs is None:
            object.__setattr__(self, "_subs",
                               _graph_substitution(self.n, self.phi))
        return self._subs

    def restrict(self, ambient_series: TruncatedSeries) -> TruncatedSeries:
        """Restrict an ambient series to M in the intrinsic chart."""
        if ambient_series.nvars != 2 * self.N:
            raise GeometryError("series does not live on the ambient chart")
        return ambient_series.compose(self.graph_substitution())

    def defining_residual(self) -> TruncatedSeries:
        return self.restrict(self.rho)

    def __repr__(self):
        return f"Hypersurface(N={self.N}, order={self.order})"


def _graph_substitution(n: int, phi: TruncatedSeries) -> tuple:
    """(z, s+i phi, zb, s-i phi) on the intrinsic chart, at phi's order."""
    W, nv = phi.order, 2 * n + 1
    s = TruncatedSeries.variable(nv, 2 * n, W)
    i_phi = CS_I * phi
    return (tuple(TruncatedSeries.variable(nv, j, W) for j in range(n))
            + (s + i_phi,)
            + tuple(TruncatedSeries.variable(nv, n + j, W) for j in range(n))
            + (s - i_phi,))


# the holomorphic gradient (0, ..., 0, g_w) of Im w = (w - wb) / (2i)
_IDENTITY_SLOPE = -CS_I / 2


def _holo_gradient(rho: TruncatedSeries, N: int):
    alpha0 = [0] * (2 * N)
    grad = []
    for j in range(N):
        alpha = list(alpha0)
        alpha[j] = 1
        grad.append(rho.coeff(tuple(alpha)))
    return grad


def linear_change(matrix, series) -> list:
    """sum_c matrix[r][c] * series[c] for each row r of a constant matrix,
    at the order of series[0]; zero entries add no term."""
    nvars, order = series[0].nvars, series[0].order
    out = []
    for row in matrix:
        acc = TruncatedSeries.zero(nvars, order)
        for m, f in zip(row, series):
            if not m.is_zero():
                acc = acc + m * f
        out.append(acc)
    return out


def _apply_holo_change(rho: TruncatedSeries, N: int, Q):
    """Rewrite rho in coordinates zeta = P (z, w), given Q = P^{-1}: the
    old holomorphic coordinates are Q zeta."""
    W = rho.order
    zeta = [ambient_var(N, j, W) for j in range(2 * N)]
    conj_Q = [[c.conj() for c in row] for row in Q]
    return rho.compose(linear_change(Q, zeta[:N])
                       + linear_change(conj_Q, zeta[N:]))


def _linear_normalization(rho: TruncatedSeries, N: int):
    """Check a defining series and bring its linear part to Im w.

    Returns (rho', P): rho' is rho in the coordinates P (z, w), and P is
    the closed-form change of the module docstring.  When the holomorphic
    gradient g at 0 is already (0, ..., 0, -i/2), P is the identity and
    rho itself is returned, with no composition.  Raises GeometryError
    for a series that is not on the ambient chart of C^N (N >= 2), is
    not real, does not vanish at 0 or has a vanishing differential there.
    """
    if N < 2:
        raise GeometryError("need at least one CR direction (N >= 2)")
    if rho.nvars != 2 * N:
        raise GeometryError("defining series must use the ambient chart")
    if rho.order < 1:
        raise GeometryError("defining series order too low")
    pairing = ambient_pairing(N)
    if rho.conjugate(pairing) != rho:
        raise GeometryError("defining series is not real")
    if not rho.constant_term().is_zero():
        raise GeometryError("defining series does not vanish at the origin")
    grad = _holo_gradient(rho, N)
    if all(c.is_zero() for c in grad):
        raise GeometryError("defining series has vanishing differential at 0")
    if grad[N - 1] == _IDENTITY_SLOPE and \
            all(c.is_zero() for c in grad[:N - 1]):
        return rho, [[CS_ONE if c == r else CS_ZERO for c in range(N)]
                     for r in range(N)]

    # w' = 2i * (holomorphic linear part of rho), so the linear part of rho
    # becomes exactly Im w'.  w' replaces the old coordinate k: w when
    # Im g_w != 0, else one with the largest |g_j|^2, ties taking the
    # lowest index; either way g_k != 0.  sigma swaps k with the last
    # slot.  Q = P^{-1} shares P's unit rows, and its row k solves
    # w' = sum_j shear_j x_j for the old x_k.
    k = N - 1
    if grad[N - 1].im == 0:
        sizes = [g.abs2() for g in grad]
        k = sizes.index(max(sizes))
    sigma = list(range(N))
    sigma[k], sigma[N - 1] = N - 1, k
    shear = [CScalar(0, 2) * g for g in grad]
    Q = [[CS_ONE if c == sigma[r] else CS_ZERO for c in range(N)]
         for r in range(N)]
    P = Q[:N - 1] + [shear]
    Q[k] = [-grad[sigma[c]] / grad[k] for c in range(N - 1)] + [1 / shear[k]]
    return _apply_holo_change(rho, N, Q), P


def from_defining(rho: TruncatedSeries, N: int) -> Hypersurface:
    """Normalize a real defining series to graph form Im w = phi(z, zb, s).

    ``_linear_normalization`` checks rho and brings its linear part to
    Im w.  The input is treated as exact polynomial data at its stated
    order; one extra order of rho is reconstructed internally so the
    Newton update divides by a full-order derivative.  When rho is affine
    in t = Im w, that is rho = a t + b with a, b free of t (its second
    t-derivative is zero), one Newton step at order W from phi = 0 gives
    phi = -b / a, the exact graph.  Otherwise the steps run at orders
    W // 2^k, k = K, ..., 1, 0, for the least K with W // 2^K <= 3: [3, 6]
    for W = 6 and [2, 4, 8] for W = 8.  Each step at least doubles the
    degree through which phi is exact, and the schedule stops at the
    germ's order W, past which rho's terms are unknown.  Every call checks
    that the result's residual vanishes and that phi is real with no
    constant or linear terms.
    """
    rho, P = _linear_normalization(rho, N)

    # Newton iteration for t = phi(z, zb, s); rho = Im w + O(2), so the
    # t-derivative d/dt = i (d/dw - d/dwb) is a unit at the origin.  phi = 0
    # is exact through degree 1, so the first step may run at order 3.
    W = rho.order
    n = N - 1
    rho_ext = rho.extended(W + 1)
    rho_t = CS_I * (rho_ext.derive(N - 1) - rho_ext.derive(2 * N - 1))
    K = 0
    # an affine rho (d^2 rho / dt^2 = 0) takes the one step at order W
    if not (rho_t.derive(N - 1) - rho_t.derive(2 * N - 1)).is_zero():
        while W >> K > 3:
            K += 1
    phi = TruncatedSeries.zero(2 * n + 1, W >> K)
    for k in range(K, -1, -1):
        d = W >> k
        phi = phi.extended(d)
        subs = _graph_substitution(n, phi)
        res = rho_ext.truncate(d).compose(subs)
        dres = rho_t.truncate(d).compose(subs)
        phi = phi - res * dres.invert_unit()
    final = Hypersurface(N, rho, phi, P)
    if not final.defining_residual().is_zero():
        raise GeometryError("Newton iteration failed to solve the graph")
    if phi.conjugate(intrinsic_pairing(n)) != phi:
        raise GeometryError("graph series is not real")
    if not phi.constant_term().is_zero() or not phi.homogeneous_part(1).is_zero():
        raise GeometryError("graph series has constant or linear terms")
    return final


# ---------------------------------------------------------------------------
# frames


class Frame:
    """Tangential frame T, L_A, Lbar_A with the dual coframe on one chart,
    and the iterated contracted derivatives and brackets of the frame
    along words of its Lbar fields, each built once, prefix by prefix.

    chain(abar) differentiates theta along Lbar_{abar}, the first listed
    index first: it contracts dchain, the two-form of the sorted word less
    its last index, with that index's field.  The result is a holomorphic
    form: its pairings with every Lbar field vanish, so it decomposes as
    sum_D h(abar, D) theta^D + transverse(abar) theta.  bracket(abar, D)
    is the iterated bracket [Lbar_{a_k}, ..., [Lbar_{a_1}, L_D]], the
    first listed index innermost.  Indices are 0-based.

    The Lbar fields of a graph frame commute, so by the Jacobi identity
    chain, dchain, h and transverse depend only on the multiset of abar:
    they are keyed by the sorted word.  Brackets are keyed by the ordered
    word.  A word longer than the frame order raises OrderExhausted.
    dthetaA holds the two-forms of the coordinate forms theta^A, zero by
    construction, built on first use.  Returned forms, fields and series
    are shared between callers and must not be mutated.
    """

    __slots__ = ("n", "order", "T", "L", "Lbar", "theta", "thetaA",
                 "thetaAbar", "_chains", "_dchains", "_dthetaA", "_h",
                 "_transverse", "_brackets")

    def __init__(self, n, T, L, Lbar, theta, thetaA, thetaAbar):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "order", T.order)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "L", tuple(L))
        object.__setattr__(self, "Lbar", tuple(Lbar))
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "thetaA", tuple(thetaA))
        object.__setattr__(self, "thetaAbar", tuple(thetaAbar))
        object.__setattr__(self, "_chains", {(): theta})
        object.__setattr__(self, "_dchains", {})
        object.__setattr__(self, "_dthetaA", None)
        object.__setattr__(self, "_h", {})
        object.__setattr__(self, "_transverse", {})
        object.__setattr__(self, "_brackets",
                           {((), D): X for D, X in enumerate(self.L)})

    def __setattr__(self, name, value):
        raise AttributeError("Frame is immutable")

    def _fits(self, abar):
        if len(abar) > self.order:
            raise OrderExhausted(
                f"length {len(abar)} exceeds frame order {self.order}")

    def chain(self, abar) -> OneForm:
        key = tuple(sorted(abar))
        omega = self._chains.get(key)
        if omega is None:
            self._fits(key)
            omega = self.dchain(key[:-1]).contract(self.Lbar[key[-1]])
            self._chains[key] = omega
        return omega

    def dchain(self, abar) -> TwoFormEvaluator:
        """The exterior derivative of chain(abar)."""
        key = tuple(sorted(abar))
        form = self._dchains.get(key)
        if form is None:
            form = self._dchains[key] = TwoFormEvaluator(self.chain(key))
        return form

    @property
    def dthetaA(self) -> tuple:
        if self._dthetaA is None:
            object.__setattr__(self, "_dthetaA", tuple(
                TwoFormEvaluator(form) for form in self.thetaA))
        return self._dthetaA

    def h(self, abar, D: int) -> TruncatedSeries:
        key = (tuple(sorted(abar)), D)
        value = self._h.get(key)
        if value is None:
            value = self._h[key] = self.chain(key[0]).pair(self.L[D])
        return value

    def transverse(self, abar) -> TruncatedSeries:
        key = tuple(sorted(abar))
        value = self._transverse.get(key)
        if value is None:
            value = self._transverse[key] = self.chain(key).pair(self.T)
        return value

    def bracket(self, abar, D: int) -> VectorFieldOp:
        key = (tuple(abar), D)
        field = self._brackets.get(key)
        if field is None:
            self._fits(abar)
            field = self.Lbar[abar[-1]].bracket(self.bracket(abar[:-1], D))
            self._brackets[key] = field
        return field

    def __repr__(self):
        return f"Frame(n={self.n}, order={self.order})"


def build_frame(M: Hypersurface) -> Frame:
    """Construct the graph frame and its dual coframe for M."""
    n, W = M.n, M.order
    nv = 2 * n + 1
    phi_s = M.phi.derive(2 * n)
    denom_inv = (1 + CS_I * phi_s).invert_unit()
    one = TruncatedSeries.constant(nv, 1, W - 1)
    zero = TruncatedSeries.zero(nv, W - 1)
    pairing = intrinsic_pairing(n)

    T = VectorFieldOp([zero] * (nv - 1) + [one])
    Lbar = []
    for j in range(n):
        a_j = (-CS_I) * M.phi.derive(n + j) * denom_inv
        coeffs = [zero] * nv
        coeffs[n + j] = one
        coeffs[2 * n] = a_j
        Lbar.append(VectorFieldOp(coeffs))
    L = [X.conjugate(pairing) for X in Lbar]

    # dual coframe in closed form: theta kills each L_j and Lbar_j through
    # its dz_j and dzb_j slots, and theta^A, theta^Abar are dz_A, dzb_A
    theta = OneForm([-X.coeffs[2 * n] for X in L + Lbar] + [one])
    dz = [OneForm([one if v == u else zero for v in range(nv)])
          for u in range(2 * n)]
    return Frame(n, T, L, Lbar, theta, dz[:n], dz[n:])
