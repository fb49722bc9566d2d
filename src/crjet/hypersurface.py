"""Real hypersurfaces in complex space, graph normalization, and frames.

A hypersurface through the origin of C^N is described by a real defining
series rho in the ambient variables (z_1..z_n, w, zb_1..zb_n, wb), n = N-1.
`from_defining` applies an invertible linear holomorphic change so that the
linear part of rho becomes Im w, then solves rho = 0 for t = Im w by Newton
iteration on series.  The result is a graph

    Im w = phi(z, zb, s),        s = Re w,

with phi real, phi(0) = 0, d phi(0) = 0.  All intrinsic computation happens
in the chart (z_1..z_n, zb_1..zb_n, s).

`build_frame` produces the tangential frame

    T = d/ds,
    Lbar_j = d/dzb_j + a_j d/ds,   a_j = -i phi_{zb_j} / (1 + i phi_s),
    L_j = conjugate(Lbar_j),

and the dual coframe theta, theta^A, theta^Abar by inverting the frame
coefficient matrix.  In this frame every bracket of frame fields is a
multiple of d/ds and each theta^A is an exact differential, so all structure
pairings of d theta^A against frame pairs vanish identically; downstream
identity checks rely on that shape.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import series_matrix_inverse, solve_unique
from .series import CS_I, CS_ONE, CS_ZERO, CScalar, OrderExhausted, SeriesError, TruncatedSeries


class GeometryError(ValueError):
    """Raised when input data does not describe a valid hypersurface germ."""


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


class _DenseCoefficients:
    """Immutable dense tuple of series on one chart, at a common order.

    The shell of every field and form type: construction truncates the
    coefficients to their lowest order, and the linear operations act
    slot by slot.  Subclasses add their own operations and may replace
    _check, which by default asks for one coefficient per chart variable.
    """

    __slots__ = ("nvars", "order", "coeffs")

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
        object.__setattr__(
            self, "coeffs", tuple(c.truncate(order) for c in coeffs)
        )

    def _check(self, coeffs, nvars):
        if len(coeffs) != nvars:
            raise SeriesError("need one coefficient per chart variable")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

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

    def scaled(self, factor):
        """Multiply by a CScalar or a TruncatedSeries on the same chart."""
        return type(self)([factor * c for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self):
        return (f"{type(self).__name__}(order={self.order}, "
                f"coeffs={list(self.coeffs)!r})")


class VectorFieldOp(_DenseCoefficients):
    """First-order differential operator sum_v c_v(x) d/dx_v on a chart."""

    __slots__ = ()

    def apply(self, f: TruncatedSeries) -> TruncatedSeries:
        if f.order < 1:
            raise OrderExhausted("cannot differentiate an order-0 series")
        out = TruncatedSeries.zero(self.nvars, min(self.order, f.order - 1))
        for v, c in enumerate(self.coeffs):
            if not c.is_zero():
                out = out + c * f.derive(v)
        return out

    def bracket(self, other: "VectorFieldOp") -> "VectorFieldOp":
        if self.nvars != other.nvars:
            raise SeriesError("bracket of operators on different charts")
        return VectorFieldOp(
            [self.apply(other.coeffs[v]) - other.apply(self.coeffs[v])
             for v in range(self.nvars)]
        )


class OneForm(_DenseCoefficients):
    """Differential form sum_v w_v(x) dx_v on a chart."""

    __slots__ = ()

    def pair(self, X: VectorFieldOp) -> TruncatedSeries:
        if self.nvars != X.nvars:
            raise SeriesError("pairing across different charts")
        out = TruncatedSeries.zero(self.nvars, min(self.order, X.order))
        for v in range(self.nvars):
            if not self.coeffs[v].is_zero() and not X.coeffs[v].is_zero():
                out = out + self.coeffs[v] * X.coeffs[v]
        return out


class TwoFormEvaluator:
    """Antisymmetric pairing d omega(X, Y) with an interior-product helper."""

    __slots__ = ("nvars", "order", "coeffs")

    def __init__(self, omega: OneForm):
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
        out = TruncatedSeries.zero(
            self.nvars, min(self.order, X.order, Y.order)
        )
        for (u, v), c in self.coeffs.items():
            out = out + c * (
                X.coeffs[u] * Y.coeffs[v] - X.coeffs[v] * Y.coeffs[u]
            )
        return out

    def contract(self, X: VectorFieldOp) -> OneForm:
        """Interior product X -| d omega as a one-form."""
        base = TruncatedSeries.zero(self.nvars, min(self.order, X.order))
        out = [base] * self.nvars
        for (u, v), c in self.coeffs.items():
            if not X.coeffs[u].is_zero():
                out[v] = out[v] + X.coeffs[u] * c
            if not X.coeffs[v].is_zero():
                out[u] = out[u] - X.coeffs[v] * c
        return OneForm(out)


def exterior_derivative(omega: OneForm) -> TwoFormEvaluator:
    if omega.order < 1:
        raise OrderExhausted("one-form order too low to differentiate")
    return TwoFormEvaluator(omega)


# ---------------------------------------------------------------------------
# hypersurface germs


class Hypersurface:
    """Graph-normalized germ Im w = phi(z, zb, s) of a real hypersurface.

    Fields: N and n = N-1; rho, the defining series in the normalized ambient
    chart; phi, the real graph series in the intrinsic chart with no constant
    or linear part; change, the N x N holomorphic matrix P with
    (z, w)_normalized = P (z, w)_original.
    """

    __slots__ = ("N", "n", "order", "rho", "phi", "change")

    def __init__(self, N, rho, phi, change):
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "n", N - 1)
        object.__setattr__(self, "order", phi.order)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "change", change)

    def __setattr__(self, name, value):
        raise AttributeError("Hypersurface is immutable")

    def graph_substitution(self, order=None):
        """Ambient-to-intrinsic substitution list (z, s+i phi, zb, s-i phi)."""
        n = self.n
        W = self.order if order is None else min(order, self.order)
        phi = self.phi.truncate(W)
        nv = 2 * n + 1
        subs = [TruncatedSeries.variable(nv, j, W) for j in range(n)]
        s = TruncatedSeries.variable(nv, 2 * n, W)
        subs.append(s + CS_I * phi)
        subs.extend(TruncatedSeries.variable(nv, n + j, W) for j in range(n))
        subs.append(s - CS_I * phi)
        return subs

    def restrict(self, ambient_series: TruncatedSeries) -> TruncatedSeries:
        """Restrict an ambient series to M in the intrinsic chart."""
        if ambient_series.nvars != 2 * self.N:
            raise GeometryError("series does not live on the ambient chart")
        return ambient_series.compose(self.graph_substitution())

    def defining_residual(self) -> TruncatedSeries:
        return self.restrict(self.rho)

    def __repr__(self):
        return f"Hypersurface(N={self.N}, order={self.order})"


def _holo_gradient(rho: TruncatedSeries, N: int):
    alpha0 = [0] * (2 * N)
    grad = []
    for j in range(N):
        alpha = list(alpha0)
        alpha[j] = 1
        grad.append(rho.coeff(tuple(alpha)))
    return grad


def _apply_holo_change(rho: TruncatedSeries, N: int, P):
    """Rewrite rho in coordinates zeta = P (z, w); exact for linear P."""
    # old holomorphic coordinates in terms of new: old = P^{-1} zeta
    cols = []
    ident = [[CS_ONE if i == j else CS_ZERO for j in range(N)] for i in range(N)]
    for j in range(N):
        cols.append(solve_unique(P, [ident[i][j] for i in range(N)]))
    W = rho.order
    subs = []
    for i in range(N):
        acc = TruncatedSeries.zero(2 * N, W)
        for j in range(N):
            if not cols[j][i].is_zero():
                acc = acc + cols[j][i] * ambient_var(N, j, W)
        subs.append(acc)
    for i in range(N):
        acc = TruncatedSeries.zero(2 * N, W)
        for j in range(N):
            c = cols[j][i].conj()
            if not c.is_zero():
                acc = acc + c * ambient_var(N, N + j, W)
        subs.append(acc)
    return rho.compose(subs)


def _matmul(A, B, N):
    return [
        [sum((A[i][k] * B[k][j] for k in range(N)), CS_ZERO) for j in range(N)]
        for i in range(N)
    ]


def from_defining(rho: TruncatedSeries, N: int) -> Hypersurface:
    """Normalize a real defining series to graph form Im w = phi(z, zb, s).

    The input is treated as exact polynomial data at its stated order; one
    extra order of rho is reconstructed internally so the Newton update
    divides by a full-order derivative.
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

    # Stage 1: swap a coordinate with the largest |gradient entry|^2 into the
    # transverse slot when Im(d rho / d w)(0) = 0; ties take the lowest index.
    P = [[CS_ONE if i == j else CS_ZERO for j in range(N)] for i in range(N)]
    if grad[N - 1].im == 0:
        best, best_size = None, Fraction(0)
        for j in range(N):
            size = grad[j].abs2()
            if size > best_size:
                best, best_size = j, size
        if best != N - 1:
            S = [[CS_ONE if i == j else CS_ZERO for j in range(N)] for i in range(N)]
            S[best][best] = CS_ZERO
            S[N - 1][N - 1] = CS_ZERO
            S[best][N - 1] = CS_ONE
            S[N - 1][best] = CS_ONE
            P = _matmul(S, P, N)
            rho = _apply_holo_change(rho, N, S)
            grad = _holo_gradient(rho, N)
        if grad[N - 1].im == 0:
            D = [[CS_ONE if i == j else CS_ZERO for j in range(N)] for i in range(N)]
            D[N - 1][N - 1] = CS_I
            P = _matmul(D, P, N)
            rho = _apply_holo_change(rho, N, D)
            grad = _holo_gradient(rho, N)
    if grad[N - 1].im == 0:
        raise GeometryError("defining series has vanishing differential at 0")

    # Stage 2: shear w' = 2i * (holomorphic linear part) so the linear part
    # of rho becomes exactly Im w'.
    Sh = [[CS_ONE if i == j else CS_ZERO for j in range(N)] for i in range(N)]
    for j in range(N):
        Sh[N - 1][j] = CScalar(0, 2) * grad[j]
    P = _matmul(Sh, P, N)
    rho = _apply_holo_change(rho, N, Sh)

    # Stage 3: Newton iteration for t = phi(z, zb, s); rho = Im w + O(2), so
    # the t-derivative is a unit at the origin.
    W = rho.order
    n = N - 1
    rho_ext = rho.extended(W + 1)
    rho_t = CS_I * (rho_ext.derive(N - 1) - rho_ext.derive(2 * N - 1))
    phi = TruncatedSeries.zero(2 * n + 1, W)
    steps = max(1, (W + 1 - 1).bit_length())  # ceil(log2(W + 1))
    for _ in range(steps):
        hyp = Hypersurface(N, rho_ext, phi, P)
        subs = hyp.graph_substitution()
        res = rho_ext.compose(subs)
        dres = rho_t.compose(subs)
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
    """Tangential frame T, L_A, Lbar_A with the dual coframe on one chart."""

    __slots__ = ("n", "order", "T", "L", "Lbar", "theta", "thetaA",
                 "thetaAbar", "hyp")

    def __init__(self, n, T, L, Lbar, theta, thetaA, thetaAbar, hyp):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "order", T.order)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "L", tuple(L))
        object.__setattr__(self, "Lbar", tuple(Lbar))
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "thetaA", tuple(thetaA))
        object.__setattr__(self, "thetaAbar", tuple(thetaAbar))
        object.__setattr__(self, "hyp", hyp)

    def __setattr__(self, name, value):
        raise AttributeError("Frame is immutable")

    def fields(self):
        return (self.T,) + self.L + self.Lbar

    def forms(self):
        return (self.theta,) + self.thetaA + self.thetaAbar

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

    # dual coframe: invert the matrix whose columns are T, L_A, Lbar_A
    columns = [T] + L + Lbar
    mat = [[columns[c].coeffs[v] for c in range(nv)] for v in range(nv)]
    inv = series_matrix_inverse(mat)
    forms = [OneForm(inv[r]) for r in range(nv)]
    theta = forms[0]
    thetaA = forms[1:n + 1]
    thetaAbar = forms[n + 1:]
    return Frame(n, T, L, Lbar, theta, thetaA, thetaAbar, M)
