"""Closed-form model manifolds and the registry used by the CLI.

The fleet covers the locally symmetric spaces (Euclidean, sphere, hyperbolic
space in the hyperboloid model, SPD matrices with the affine-invariant
connection, SO(3) with the symmetric Cartan-Schouten connection) plus one
deliberately non-symmetric chart metric, ``bump2d``, whose curvature varies
with position.  Registry names: "euclidean-n", "sphere-n", "hyperbolic-n",
"spd-n", "so3", "bump2d".
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .chart import (
    ChartConnection,
    ChartSpace,
    christoffels_from_metric,
)
from .core import (
    ConnectionSpace,
    CutLocus,
    DomainEscape,
    NonFinite,
    NotSPD,
    Point,
    ToleranceConfig,
    _check_float_range,
)

__all__ = [
    "Euclidean",
    "Sphere",
    "Hyperbolic",
    "SPD",
    "RotationGroup",
    "BumpMetric2D",
    "make_space",
    "make_chart",
    "registry_names",
]


# ---------------------------------------------------------------------------
# Euclidean space
# ---------------------------------------------------------------------------

class Euclidean(ConnectionSpace):
    """Flat R^n: geodesics are straight lines, transport is the identity."""

    locally_symmetric = True

    def __init__(self, n: int, tolerances: ToleranceConfig | None = None):
        if n < 1:
            raise ValueError("euclidean dimension must be at least 1")
        super().__init__(tolerances)
        self.dim = n
        self.ambient_dim = n
        self.name = f"euclidean-{n}"

    def _exp(self, x, v):
        return x + v

    def _log(self, x, y):
        return y - x

    def _exp_transport(self, x, u, v):
        return x + v, u.copy()

    def _curvature(self, x, u, v, w):
        return np.zeros_like(u)

    def _inner(self, x, u, v):
        return float(u @ v)

    def _tangent_basis(self, x):
        return np.eye(self.dim)

    def random_point(self, rng):
        return Point(rng.standard_normal(self.dim), self.name)


# ---------------------------------------------------------------------------
# Sphere
# ---------------------------------------------------------------------------

class Sphere(ConnectionSpace):
    """Unit n-sphere embedded in R^{n+1}, constant curvature +1.

    Antipodal points are each other's cut locus; the log map raises CutLocus
    there.  exp is defined globally.
    """

    locally_symmetric = True
    _ANTIPODE_TOL = 1e-8

    def __init__(self, n: int, tolerances: ToleranceConfig | None = None):
        if n < 1:
            raise ValueError("sphere dimension must be at least 1")
        super().__init__(tolerances)
        self.dim = n
        self.ambient_dim = n + 1
        self.name = f"sphere-{n}"
        self.injectivity_radius = math.pi

    def membership_residual(self, p):
        return abs(float(np.linalg.norm(p.coords)) - 1.0)

    def tangency_residual(self, v):
        return abs(float(v.base.coords @ v.components))

    def _exp(self, x, v):
        # each 1-d norm as numpy's np.linalg.norm defines it, sqrt(v . v),
        # without its per-call cost
        theta = math.sqrt(float(v @ v))
        # the norm of a vector shorter than about 1e-154 underflows to 0;
        # sin(theta) / theta tends to 1 there
        sinc = math.sin(theta) / theta if theta > 0.0 else 1.0
        y = math.cos(theta) * x + sinc * v
        return y / math.sqrt(float(y @ y))

    def _geodesic(self, x, v, times):
        theta = float(np.linalg.norm(v))
        if theta == 0.0:
            return super()._geodesic(x, v, times)
        # sin(t theta) / (t theta) * t v = sin(t theta) / theta * v
        a = times * theta
        y = (np.multiply.outer(np.cos(a), x)
             + np.multiply.outer(np.sin(a) / theta, v))
        return y / np.linalg.norm(y, axis=1, keepdims=True)

    def _log(self, x, y):
        c = float(np.clip(x @ y, -1.0, 1.0))
        u = y - c * x
        nr = math.sqrt(float(u @ u))
        theta = math.atan2(nr, c)
        if theta > math.pi - self._ANTIPODE_TOL:
            raise CutLocus("log at an antipodal point is undefined")
        if nr == 0.0:
            return np.zeros_like(x)
        return (theta / nr) * u

    def _exp_transport(self, x, u, v):
        y = self._exp(x, v)
        theta = math.sqrt(float(v @ v))
        if theta == 0.0:
            return y, u.copy()
        # u's component ue along e = v / theta turns in the plane of x and e
        ue = float(u @ v) / theta
        out = (u + (ue * (math.cos(theta) - 1.0) / theta) * v
               - (ue * math.sin(theta)) * x)
        return y, out - (out @ y) * y

    def _curvature(self, x, u, v, w):
        return (v @ w) * u - (u @ w) * v

    def _inner(self, x, u, v):
        return float(u @ v)

    def _tangent_basis(self, x):
        # the null space of the row x by scipy's null_space rule: the right
        # singular vectors past the rank, which counts the singular values
        # above max(s) * eps * max(M, N), here M = 1 and N = x.size.  The
        # columns sit in memory as in scipy's result, a view of LAPACK's
        # Fortran-ordered vh, since a product with the basis rounds by its
        # layout
        _, s, vh = np.linalg.svd(x[None, :])
        rank = np.count_nonzero(s > s.max() * np.finfo(float).eps * x.size)
        return np.ascontiguousarray(vh.T)[:, rank:]

    def _geodesic_symmetry(self, x, y):
        # point reflection through x extends past the cut locus of the log map
        return 2.0 * float(x @ y) * x - y

    def random_point(self, rng):
        x = rng.standard_normal(self.ambient_dim)
        return Point(x / math.sqrt(float(x @ x)), self.name)


# ---------------------------------------------------------------------------
# Hyperbolic space (hyperboloid model)
# ---------------------------------------------------------------------------

def _mink(a, b) -> float:
    return float(a[1:] @ b[1:] - a[0] * b[0])


# exp at x along a geodesic of length theta has coordinates of size at most
# sqrt(2) x0 exp(theta); their squares, summed for the time coordinate, stay
# below the float maximum, exp(709.78), while theta + log(x0) <= 354
_HYPERBOLIC_MAX_LOG_SCALE = 354.0


def _check_hyperbolic_scale(theta, x):
    if not theta + math.log(x[0]) <= _HYPERBOLIC_MAX_LOG_SCALE:
        raise NonFinite(
            f"exp overflows: geodesic length {theta:.6g} from a base "
            f"point with time coordinate {x[0]:.6g}")


class Hyperbolic(ConnectionSpace):
    """Hyperbolic n-space on the upper hyperboloid <x, x> = -1, x0 > 0.

    The hyperboloid model keeps exp/log closed forms numerically stable near
    the base point (log uses asinh of the tangential Minkowski norm, which has
    no cancellation for small distances).  Curvature is constant -1; there is
    no cut locus.
    """

    locally_symmetric = True

    def __init__(self, n: int, tolerances: ToleranceConfig | None = None):
        if n < 1:
            raise ValueError("hyperbolic dimension must be at least 1")
        super().__init__(tolerances)
        self.dim = n
        self.ambient_dim = n + 1
        self.name = f"hyperbolic-{n}"

    def membership_residual(self, p):
        x = p.coords
        if x[0] <= 0.0:
            return math.inf
        return abs(_mink(x, x) + 1.0)

    def tangency_residual(self, v):
        return abs(_mink(v.base.coords, v.components))

    def _exp(self, x, v):
        theta = math.sqrt(max(_mink(v, v), 0.0))
        if theta == 0.0:
            return x.copy()
        _check_hyperbolic_scale(theta, x)
        y = math.cosh(theta) * x + (math.sinh(theta) / theta) * v
        # recompute the time coordinate from the spatial ones: renormalizing
        # by sqrt(-<y, y>) fails far out, where the Minkowski product cancels
        # to a value of either sign
        y[0] = math.sqrt(1.0 + float(y[1:] @ y[1:]))
        return y

    def _geodesic(self, x, v, times):
        theta = math.sqrt(max(_mink(v, v), 0.0))
        if theta == 0.0:
            return super()._geodesic(x, v, times)
        _check_hyperbolic_scale(float(np.abs(times).max()) * theta, x)
        a = times * theta
        y = (np.multiply.outer(np.cosh(a), x)
             + np.multiply.outer(np.sinh(a) / theta, v))
        y[:, 0] = np.sqrt(1.0 + np.einsum("ij,ij->i", y[:, 1:], y[:, 1:]))
        return y

    def _log(self, x, y):
        c = -_mink(x, y)
        u = y - c * x
        nr = math.sqrt(max(_mink(u, u), 0.0))
        if nr == 0.0:
            return np.zeros_like(x)
        return (math.asinh(nr) / nr) * u

    def _exp_transport(self, x, u, v):
        y = self._exp(x, v)
        theta = math.sqrt(max(_mink(v, v), 0.0))
        if theta == 0.0:
            return y, u.copy()
        ue = _mink(u, v) / theta
        out = (u + (ue * (math.cosh(theta) - 1.0) / theta) * v
               + (ue * math.sinh(theta)) * x)
        # the projection onto the tangent space at y: no number in it passes
        # O Y^2, O and Y the sums of the |coordinates| of out and y, as
        # |<y, out>| is at most Y O
        big_y = sum(map(abs, y.tolist()))
        _check_float_range(sum(map(abs, out.tolist())) * big_y * big_y,
                           "transport")
        return y, out + _mink(y, out) * y

    def _curvature(self, x, u, v, w):
        return -(_mink(v, w) * u - _mink(u, w) * v)

    def _inner(self, x, u, v):
        return _mink(u, v)

    def _tangent_basis(self, x):
        # Gram-Schmidt on the projections e_i + x_i x of the spatial axes:
        # their Gram matrix I + x_s x_s^T is never singular, so no candidate
        # is nearly cancelled (the time axis would be, at any x with a small
        # spatial coordinate, leaving an off-tangent basis vector)
        basis = []
        for i in range(1, self.ambient_dim):
            cand = x[i] * x
            cand[i] += 1.0
            for b in basis:
                cand = cand - _mink(b, cand) * b
            basis.append(cand / math.sqrt(_mink(cand, cand)))
        return np.column_stack(basis)

    def _geodesic_symmetry(self, x, y):
        # no number below passes Y (1 + 2 X^2), X and Y the sums of the
        # |coordinates| of x and y: |<x, y>| is at most XY
        big_x = sum(map(abs, x.tolist()))
        _check_float_range(sum(map(abs, y.tolist()))
                           * (1.0 + 2.0 * big_x * big_x), "reflection")
        return -y - 2.0 * _mink(x, y) * x

    def random_point(self, rng):
        y = 0.5 * rng.standard_normal(self.dim)
        x = np.concatenate([[math.sqrt(1.0 + float(y @ y))], y])
        return Point(x, self.name)


# ---------------------------------------------------------------------------
# SPD matrices with the affine-invariant connection
# ---------------------------------------------------------------------------

def _sym(m):
    return 0.5 * (m + m.T)


def _eigh_spd(m, what="matrix"):
    w, vecs = np.linalg.eigh(_sym(m))
    if w.min() <= 0.0:
        raise NotSPD(f"{what} has a non-positive eigenvalue ({w.min():.3e})")
    return w, vecs


def _sqrt_pair(p):
    """P^{1/2}, P^{-1/2}, and the expm range margin of a conjugation by
    P^{1/2}: it scales eigenvalues by at most P's."""
    w, vecs = _eigh_spd(p, "base point")
    s = np.sqrt(w)
    return ((vecs * s) @ vecs.T, (vecs / s) @ vecs.T,
            math.log(max(1.0 / w[0], w[-1])))


# the factors of the last four SPD base points used in the process, keyed on
# the base's bytes and n: the pole kinds of one step factor three bases, p,
# exp_p(u) and q, and may come back to p after the other two.  The factors
# are read-only, since every caller that hits gets the same arrays; a base
# that is not SPD raises, and an exception is not cached.  The cache is safe
# to share between threads
@functools.lru_cache(maxsize=4)
def _cached_sqrt_pair(key, n):
    pair = _sqrt_pair(np.frombuffer(key).reshape(n, n))
    for a in pair[:2]:
        a.flags.writeable = False
    return pair


# exp of an eigenvalue outside +-708 is not a normal float: it overflows
# past 709.78 and flushes to a singular 0 below about -745
_EXPM_MAX_LOG = 708.0


def _check_expm_range(lo, hi, margin):
    # margin leaves room for a conjugation that scales the result's
    # eigenvalues by up to exp(margin) either way
    lim = _EXPM_MAX_LOG - margin
    if not (-lim <= lo and hi <= lim):
        raise NonFinite(
            f"matrix exponential leaves the float range: eigenvalues "
            f"{lo:.6g} to {hi:.6g}, limit {lim:.6g}")


def _eigh_expm(s, margin=0.0):
    w, vecs = np.linalg.eigh(_sym(s))
    _check_expm_range(w[0], w[-1], margin)  # eigh sorts ascending
    return w, vecs


def _expm_sym(s, margin=0.0):
    w, vecs = _eigh_expm(s, margin)
    return (vecs * np.exp(w)) @ vecs.T


@functools.lru_cache(maxsize=None)
def _sym_basis(n):
    """Stack of the n(n+1)/2 matrices F of the orthonormal basis of Sym(n)
    under <A, B> = tr(AB): E_ii, then (E_ij + E_ji) / sqrt(2), i < j, in row
    order; read-only, built once per n."""
    stack = []
    for i in range(n):
        for j in range(i, n):
            f = np.zeros((n, n))
            if i == j:
                f[i, i] = 1.0
            else:
                f[i, j] = f[j, i] = 1.0 / math.sqrt(2.0)
            stack.append(f)
    stack = np.array(stack)
    stack.flags.writeable = False
    return stack


def _bracket_curvature(a, b, c):
    """R(a, b)c = -[[a, b], c] / 4 of the SPD and SO(3) connections."""
    ab = a @ b - b @ a
    return -0.25 * (ab @ c - c @ ab)


class SPD(ConnectionSpace):
    """Symmetric positive-definite n x n matrices, affine-invariant metric.

    Points and tangent vectors are stored as flattened n x n arrays; tangent
    vectors are symmetric matrices.  exp/log conjugate the matrix exponential
    and logarithm by P^{+-1/2}; transport along t -> exp_P(t V) is
    U -> E U E^T with E = P^{1/2} expm(S/2) P^{-1/2}, S = P^{-1/2} V P^{-1/2},
    the square root of Q P^{-1} for Q = exp_P(V).  The space is a Hadamard
    manifold: no cut locus, infinite injectivity radius.  P^{+-1/2} of the
    last few base points are cached, so a ladder step that comes back to a
    base factors it once.
    """

    locally_symmetric = True

    def __init__(self, n: int, tolerances: ToleranceConfig | None = None):
        if n < 2:
            raise ValueError("SPD dimension must be at least 2")
        super().__init__(tolerances)
        self.n = n
        self.dim = n * (n + 1) // 2
        self.ambient_dim = n * n
        self.name = f"spd-{n}"

    def _mat(self, x):
        return x.reshape(self.n, self.n)

    def _sqrt_pair(self, x):
        """_sqrt_pair of the base point with flat coordinates x, cached."""
        return _cached_sqrt_pair(x.tobytes(), self.n)

    def membership_residual(self, p):
        m = self._mat(p.coords)
        res = float(np.linalg.norm(m - m.T))
        w = np.linalg.eigvalsh(_sym(m))
        return res + max(0.0, -float(w.min()))

    def tangency_residual(self, v):
        m = self._mat(v.components)
        return float(np.linalg.norm(m - m.T))

    def _exp(self, x, v):
        ps, pis, margin = self._sqrt_pair(x)
        inner = _expm_sym(pis @ self._mat(v) @ pis, margin)
        return _sym(ps @ inner @ ps).ravel()

    def _geodesic(self, x, v, times):
        # exp(t S) = Q exp(t L) Q^T: one eigendecomposition serves every t
        ps, pis, margin = self._sqrt_pair(x)
        lam, q = np.linalg.eigh(_sym(pis @ self._mat(v) @ pis))
        tl = np.multiply.outer(times, lam)
        _check_expm_range(tl.min(), tl.max(), margin)
        a = ps @ q
        y = (a * np.exp(tl)[:, None, :]) @ a.T
        return (0.5 * (y + y.transpose(0, 2, 1))).reshape(len(times), -1)

    def _log(self, x, y):
        ps, pis, _ = self._sqrt_pair(x)
        w, vecs = _eigh_spd(pis @ self._mat(y) @ pis, "target point")
        return _sym(ps @ ((vecs * np.log(w)) @ vecs.T) @ ps).ravel()

    def _exp_transport(self, x, u, v):
        # one eigh of S = P^-1/2 V P^-1/2 serves expm(S) and expm(S / 2)
        ps, pis, margin = self._sqrt_pair(x)
        w, vecs = _eigh_expm(pis @ self._mat(v) @ pis, margin)
        y = _sym(ps @ ((vecs * np.exp(w)) @ vecs.T) @ ps).ravel()
        e = ps @ ((vecs * np.exp(0.5 * w)) @ vecs.T) @ pis
        return y, _sym(e @ self._mat(u) @ e.T).ravel()

    def _geodesic_symmetry(self, x, y):
        # x y^-1 x = a^T a for a = L^-1 x, where y = L L^T; the factor is
        # also the check that y is SPD
        try:
            low = np.linalg.cholesky(_sym(self._mat(y)))
        except np.linalg.LinAlgError:
            raise NotSPD("point is not positive definite: its Cholesky "
                         "factorization failed") from None
        a = np.linalg.solve(low, self._mat(x))
        # no number below passes 2 A^2, A the sum of the |entries| of a,
        # which a NaN in a makes NaN
        big = sum(map(abs, a.ravel().tolist()))
        _check_float_range(2.0 * big * big, "reflection")
        return _sym(a.T @ a).ravel()

    def _curvature(self, x, u, v, w):
        ps, pis, _ = self._sqrt_pair(x)
        a = pis @ self._mat(u) @ pis
        b = pis @ self._mat(v) @ pis
        c = pis @ self._mat(w) @ pis
        return (ps @ _bracket_curvature(a, b, c) @ ps).ravel()

    def _inner(self, x, u, v):
        # tr(P^-1 U P^-1 V) = <A, B> for A = P^-1/2 U P^-1/2 and B alike,
        # from the cached factor; the contraction is symmetric in u and v
        # bit for bit and not negative on (u, u)
        _, pis, _ = self._sqrt_pair(x)
        a = pis @ self._mat(u) @ pis
        b = pis @ self._mat(v) @ pis
        return float(np.vdot(a, b))

    def _tangent_basis(self, x):
        ps, _, _ = self._sqrt_pair(x)
        # the columns P^1/2 F P^1/2 of the basis F of Sym(n), from one
        # stacked product, laid out as np.column_stack of the flat columns
        cols = (ps @ _sym_basis(self.n) @ ps).reshape(self.dim, -1)
        return np.ascontiguousarray(cols.T)

    def random_point(self, rng):
        s = 0.5 * _sym(rng.standard_normal((self.n, self.n)))
        return Point(_expm_sym(s).ravel(), self.name)


# ---------------------------------------------------------------------------
# SO(3) with the symmetric Cartan-Schouten connection
# ---------------------------------------------------------------------------

# The SO(3) kernels work on 3x3 matrices as lists of 9 row-major Python
# floats: at this size numpy's per-call cost is several times the arithmetic.
# Every sum runs left to right, never by sum(), which compensates its
# rounding from Python 3.12 on, so the kernels round alike on every version

def _mul3(a, b):
    """Product of two 3x3 matrices, as lists of 9 row-major floats."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    return [a0 * b0 + a1 * b3 + a2 * b6,
            a0 * b1 + a1 * b4 + a2 * b7,
            a0 * b2 + a1 * b5 + a2 * b8,
            a3 * b0 + a4 * b3 + a5 * b6,
            a3 * b1 + a4 * b4 + a5 * b7,
            a3 * b2 + a4 * b5 + a5 * b8,
            a6 * b0 + a7 * b3 + a8 * b6,
            a6 * b1 + a7 * b4 + a8 * b7,
            a6 * b2 + a7 * b5 + a8 * b8]


def _transpose3(a):
    """Transpose of a 3x3 matrix as 9 row-major floats."""
    return [a[0], a[3], a[6], a[1], a[4], a[7], a[2], a[5], a[8]]


def _hat3(w0, w1, w2):
    """hat(w) as 9 row-major floats."""
    return [0.0, -w2, w1, w2, 0.0, -w0, -w1, w0, 0.0]


def _hat(w):
    """hat(w) as a 3x3 array."""
    return np.reshape(_hat3(*w), (3, 3))


def _rodrigues(w0, w1, w2):
    """expm(hat(w)) = I + a K + b K^2, K = hat(w), as 9 row-major floats."""
    theta = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
    if theta < _SMALL_ANGLE:
        a = 1.0 - theta * theta / 6.0
        b = 0.5 - theta * theta / 24.0
    else:
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / (theta * theta)
    k = _hat3(w0, w1, w2)
    kk = _mul3(k, k)
    return [1.0 + b * kk[0], a * k[1] + b * kk[1], a * k[2] + b * kk[2],
            a * k[3] + b * kk[3], 1.0 + b * kk[4], a * k[5] + b * kk[5],
            a * k[6] + b * kk[6], a * k[7] + b * kk[7], 1.0 + b * kk[8]]


def _body_vec(r, v):
    """Rotation vector of the skew body components of V at R, from lists."""
    a = _mul3(_transpose3(r), v)
    return 0.5 * (a[7] - a[5]), 0.5 * (a[2] - a[6]), 0.5 * (a[3] - a[1])


# below this rotation angle the Rodrigues coefficients sin(t) / t and
# (1 - cos(t)) / t^2 and the log's t / sin(t) are read off their Taylor
# series, whose first omitted terms are under 1e-33, for the closed forms
# divide by a vanishing t and 1 - cos(t) has lost every digit there
_SMALL_ANGLE = 1e-8
_BRANCH_TOL = 1e-6


class RotationGroup(ConnectionSpace):
    """SO(3) with the symmetric Cartan-Schouten connection.

    Points are rotation matrices (flattened, 9 entries); tangent vectors at R
    are ambient matrices R @ Omega with Omega skew.  Geodesics through R are
    translated one-parameter subgroups R expm(t Omega); the geodesic symmetry
    is s_g(h) = g h^{-1} g, and transport along the geodesic from R to
    S = R expm(X) conjugates the body components by expm(X/2) on both sides.
    The bi-invariant metric <U, V> = tr(U^T V) / 2 makes geodesic distance
    equal the rotation angle, so the injectivity radius is pi.
    """

    locally_symmetric = True

    def __init__(self, tolerances: ToleranceConfig | None = None):
        super().__init__(tolerances)
        self.dim = 3
        self.ambient_dim = 9
        self.name = "so3"
        self.injectivity_radius = math.pi

    def _mat(self, x):
        return x.reshape(3, 3)

    def membership_residual(self, p):
        r = self._mat(p.coords)
        return float(np.linalg.norm(r.T @ r - np.eye(3))) + abs(
            float(np.linalg.det(r)) - 1.0)

    def tangency_residual(self, v):
        body = self._mat(v.base.coords).T @ self._mat(v.components)
        return float(np.linalg.norm(body + body.T)) / 2.0

    def _exp(self, x, v):
        r = x.tolist()
        return np.array(_mul3(r, _rodrigues(*_body_vec(r, v.tolist()))))

    def _geodesic(self, x, v, times):
        r = x.tolist()
        w0, w1, w2 = _body_vec(r, v.tolist())
        theta = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
        if theta < _SMALL_ANGLE:
            return super()._geodesic(x, v, times)
        # Rodrigues at angle a = t theta, written without dividing by a:
        # R expm(t K) = R + sin(a) / theta R K + 2 sin^2(a / 2) / theta^2 R K^2
        a = times * theta
        k = _hat3(w0, w1, w2)
        rk = _mul3(r, k)
        return (x + np.multiply.outer(np.sin(a) / theta, rk)
                + np.multiply.outer(2.0 * (np.sin(0.5 * a) / theta) ** 2,
                                    _mul3(rk, k)))

    def _log(self, x, y):
        # R hat(w), w the rotation vector of R^T S; CutLocus near angle pi
        r = x.tolist()
        rel = _mul3(_transpose3(r), y.tolist())
        # sin(theta) * axis
        a0 = (rel[7] - rel[5]) / 2.0
        a1 = (rel[2] - rel[6]) / 2.0
        a2 = (rel[3] - rel[1]) / 2.0
        s = math.sqrt(a0 * a0 + a1 * a1 + a2 * a2)
        c = 0.5 * (rel[0] + rel[4] + rel[8] - 1.0)
        theta = math.atan2(s, c)
        if theta > math.pi - _BRANCH_TOL:
            raise CutLocus("rotation angle at the cut locus (pi)")
        f = 1.0 + theta * theta / 6.0 if theta < _SMALL_ANGLE else theta / s
        return np.array(_mul3(r, _hat3(f * a0, f * a1, f * a2)))

    def _exp_transport(self, x, u, v):
        # the point by _exp's operations, and u's body components, hat of
        # their rotation vector bit for bit, conjugated by expm(X / 2)
        r = x.tolist()
        w0, w1, w2 = _body_vec(r, v.tolist())
        half = _rodrigues(0.5 * w0, 0.5 * w1, 0.5 * w2)
        body_u = _hat3(*_body_vec(r, u.tolist()))
        return (np.array(_mul3(r, _rodrigues(w0, w1, w2))),
                np.array(_mul3(_mul3(_mul3(r, half), body_u), half)))

    def _geodesic_symmetry(self, x, y):
        g = x.tolist()
        return np.array(_mul3(_mul3(g, _transpose3(y.tolist())), g))

    def _curvature(self, x, u, v, w):
        r = x.tolist()
        a, b, c = (_hat(_body_vec(r, t.tolist())) for t in (u, v, w))
        return (self._mat(x) @ _bracket_curvature(a, b, c)).ravel()

    def _inner(self, x, u, v):
        return 0.5 * float(u @ v)

    def _tangent_basis(self, x):
        r = x.tolist()
        cols = [_mul3(r, _hat3(*e))
                for e in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))]
        # rows of the 9 x 3 matrix, laid out in memory as np.column_stack
        # lays it out, since a product with the basis rounds by its layout
        return np.array(list(zip(*cols)))

    def random_point(self, rng):
        a = rng.standard_normal((3, 3))
        q, rr = np.linalg.qr(a)
        q = q * np.sign(np.diag(rr))
        # the sign of det(q) = +-1, as the triple product of its rows
        (q0, q1, q2), (q3, q4, q5), (q6, q7, q8) = q.tolist()
        if q0 * (q4 * q8 - q5 * q7) + q1 * (q5 * q6 - q3 * q8) \
                + q2 * (q3 * q7 - q4 * q6) < 0.0:
            q[:, [0, 1]] = q[:, [1, 0]]
        return Point(q.ravel(), self.name)


# ---------------------------------------------------------------------------
# Bump metric: the non-symmetric test bed
# ---------------------------------------------------------------------------

class BumpMetric2D(ChartSpace):
    """Conformal chart metric g = exp(2 f) (dx^2 + dy^2) with f = beta x^2.

    Gauss curvature K = -exp(-2f) Laplacian(f) = -2 beta exp(-2 beta x^2) is
    non-constant for beta != 0, so the covariant derivative of the curvature
    does not vanish: this is the space on which ladder schemes show their
    genuine truncation error.  Working box |x|, |y| <= 1.
    """

    def __init__(self, beta: float = 1.0,
                 tolerances: ToleranceConfig | None = None):
        self.beta = float(beta)
        beta_ = self.beta

        def grad_f(x):
            return [2.0 * beta_ * x[0], 0.0]

        hess = ((2.0 * beta_, 0.0), (0.0, 0.0))

        def hess_f(x):
            return hess

        def metric(x):
            return math.exp(2.0 * beta_ * x[0] * x[0]) * np.eye(2)

        conn = ChartConnection.conformal(
            2, grad_f, chart_bounds=(np.array([-2.0, -2.0]), np.array([2.0, 2.0])),
            hess_f=hess_f,
        )
        super().__init__("bump2d", conn, metric=metric, tolerances=tolerances,
                         anchor=np.array([0.3, 0.1]))
        self.locally_symmetric = beta_ == 0.0
        self.injectivity_radius = math.nan if beta_ != 0.0 else math.inf

    def gauss_curvature(self, x) -> float:
        """Closed-form K(x) = -2 beta exp(-2 beta x^2) for cross-checks."""
        x = np.asarray(x, dtype=float)
        return -2.0 * self.beta * math.exp(-2.0 * self.beta * x[0] * x[0])


# ---------------------------------------------------------------------------
# Registries: one name -> constructor table per lookup
# ---------------------------------------------------------------------------

# chart-level realizations of the fleet, for cross-validation

def _disc_factor(k):
    # grad_f and hess_f of the factor of the metric 4 |dx|^2 / (1 + k r^2)^2:
    # the sphere's chart from its north pole at k = 1, the Poincare disc at
    # k = -1.  In Python floats, in the order of the numpy expressions they
    # replaced, -2k x / s and -2k I / s + 4 x x^T / s^2, so each value keeps
    # its bits but r^2, where numpy's x @ x may fuse a product into its sum
    def one_plus_kr2(x0, x1):
        s = 1.0 + k * (x0 * x0 + x1 * x1)
        # outside the unit disc (k < 0) the formulas give a metric of the
        # wrong sign; a NaN passes on to the factor's finiteness check
        if s <= 0.0:
            raise DomainEscape(f"point ({x0}, {x1}) is outside the unit disc")
        return s

    def grad_f(x):
        x0, x1 = x
        s = one_plus_kr2(x0, x1)
        return [-2.0 * k * x0 / s, -2.0 * k * x1 / s]

    def hess_f(x):
        x0, x1 = x
        s = one_plus_kr2(x0, x1)
        ss = s * s
        # the identity's zero adds -0.0 at k = 1, which is no change, and
        # 0.0 at k = -1, which turns -0.0 into 0.0
        off = -2.0 * k * 0.0 / s + 4.0 * (x0 * x1) / ss
        return [[-2.0 * k / s + 4.0 * (x0 * x0) / ss, off],
                [off, -2.0 * k / s + 4.0 * (x1 * x1) / ss]]

    return grad_f, hess_f


def _stereographic_sphere_chart():
    grad_f, hess_f = _disc_factor(1.0)
    return ChartConnection.conformal(2, grad_f, hess_f=hess_f)


# least 1 - r^2 of an accepted integration state in the hyperbolic2-ball
# chart.  Nearer the rim the integrator's position error, about its 1e-12
# default absolute tolerance, is no longer small against 1 - r^2, so the
# conformal factor 2 / (1 - r^2), and any endpoint computed from it, means
# nothing: a flow that gets there raises DomainEscape
_RIM_MARGIN = 1e-9


def _poincare_ball_chart():
    # the box holds the disc
    grad_f, hess_f = _disc_factor(-1.0)
    return ChartConnection.conformal(
        2, grad_f,
        chart_bounds=(np.array([-0.999, -0.999]), np.array([0.999, 0.999])),
        hess_f=hess_f,
        interior=lambda x: 1.0 - float(x @ x) > _RIM_MARGIN,
    )


def _spd2_entry_chart():
    # coordinates (p11, p12, p22); the affine-invariant geodesic equation
    # P'' = P' P^{-1} P' gives G(U, V) = -(U P^{-1} V + V P^{-1} U) / 2
    basis = [np.array([[1.0, 0.0], [0.0, 0.0]]),
             np.array([[0.0, 1.0], [1.0, 0.0]]),
             np.array([[0.0, 0.0], [0.0, 1.0]])]

    def christoffel(x):
        p = np.array([[x[0], x[1]], [x[1], x[2]]])
        pinv = np.linalg.inv(p)
        g = np.empty((3, 3, 3))
        for i, ei in enumerate(basis):
            for j, ej in enumerate(basis):
                m = -0.5 * (ei @ pinv @ ej + ej @ pinv @ ei)
                g[:, i, j] = (m[0, 0], m[0, 1], m[1, 1])
        return g

    # the chart's domain is the positive-definite cone, p11 > 0 and
    # det P > 0, which a box cannot describe: a log between points outside
    # it would cross det P = 0, where the symbols blow up
    return ChartConnection(
        dim=3, christoffel=christoffel,
        interior=lambda x: x[0] > 0.0 and x[0] * x[2] - x[1] * x[1] > 0.0)


def _so3_rotation_vector_chart():
    # exponential coordinates; metric pulled back from the bi-invariant one,
    # g(theta) = J_r(theta)^T J_r(theta) with J_r the right Jacobian of SO(3)
    def right_jacobian(w):
        theta = float(np.linalg.norm(w))
        k = _hat(w)
        if theta < 1e-6:
            return np.eye(3) - 0.5 * k + (k @ k) / 6.0
        a = (1.0 - math.cos(theta)) / (theta * theta)
        b = (theta - math.sin(theta)) / (theta ** 3)
        return np.eye(3) - a * k + b * (k @ k)

    def metric(w):
        j = right_jacobian(np.asarray(w, dtype=float))
        return j.T @ j

    return ChartConnection(
        dim=3, christoffel=christoffels_from_metric(metric),
        chart_bounds=(np.full(3, -2.5), np.full(3, 2.5)),
    ), metric, right_jacobian


_SPACES = {
    "euclidean-n": Euclidean,
    "sphere-n": Sphere,
    "hyperbolic-n": Hyperbolic,
    "spd-n": SPD,
    "so3": RotationGroup,
    "bump2d": lambda tol: BumpMetric2D(1.0, tol),
}

_CHARTS = {
    "flat-n": lambda n: ChartConnection(
        dim=n, christoffel=lambda x: np.zeros((n, n, n))),
    "bump2d": lambda: BumpMetric2D().conn,
    "sphere2-stereographic": _stereographic_sphere_chart,
    "hyperbolic2-ball": _poincare_ball_chart,
    "spd2-entries": _spd2_entry_chart,
    "so3-rotvec": lambda: _so3_rotation_vector_chart()[0],
}


def _lookup(table: dict, name: str, what: str):
    """Constructor registered for name, with a family's dimension bound.

    A key ending in "-n" names a family; "sphere-2" selects "sphere-n" with
    n = 2.  n is written in ASCII digits with no leading zero, so that each
    space has one name.  The placeholder "sphere-n" itself names nothing.
    """
    family, sep, num = name.rpartition("-")
    if (sep and num.isascii() and num.isdecimal() and str(int(num)) == num
            and f"{family}-n" in table):
        return functools.partial(table[f"{family}-n"], int(num))
    if name in table and not name.endswith("-n"):
        return table[name]
    raise ValueError(f"unknown {what} {name!r}; expected one of {tuple(table)}")


def registry_names() -> tuple[str, ...]:
    return tuple(_SPACES)


def make_space(name: str, tolerances: ToleranceConfig | None = None
               ) -> ConnectionSpace:
    """Build a registered manifold from its name, e.g. "sphere-2", with the
    given tolerances (the ``ToleranceConfig`` defaults when None)."""
    return _lookup(_SPACES, name, "manifold")(tolerances)


def make_chart(name: str) -> ChartConnection:
    """Built-in ChartConnection from its name, e.g. "flat-3" or "so3-rotvec"."""
    return _lookup(_CHARTS, name, "chart")()
