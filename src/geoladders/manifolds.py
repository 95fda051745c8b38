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
    LogBranch,
    NonFinite,
    NotSPD,
    Point,
    ToleranceConfig,
    Unsupported,
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
        super().__init__(tolerances)
        self.dim = n
        self.ambient_dim = n
        self.name = f"euclidean-{n}"

    def _exp(self, x, v):
        return x + v

    def _log(self, x, y):
        return y - x

    def _transport(self, x, u, y):
        return u.copy()

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
        theta = float(np.linalg.norm(v))
        # the norm of a vector shorter than about 1e-154 underflows to 0;
        # sin(theta) / theta tends to 1 there
        sinc = math.sin(theta) / theta if theta > 0.0 else 1.0
        y = math.cos(theta) * x + sinc * v
        return y / np.linalg.norm(y)

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
        nr = float(np.linalg.norm(u))
        theta = math.atan2(nr, c)
        if theta > math.pi - self._ANTIPODE_TOL:
            raise CutLocus("log at an antipodal point is undefined")
        if nr == 0.0:
            return np.zeros_like(x)
        return (theta / nr) * u

    def _transport(self, x, u, y):
        w = self._log(x, y)
        theta = float(np.linalg.norm(w))
        if theta == 0.0:
            return u.copy()
        e = w / theta
        ue = float(u @ e)
        out = u + ue * ((math.cos(theta) - 1.0) * e - math.sin(theta) * x)
        return out - (out @ y) * y

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

    def random_point(self, rng):
        x = rng.standard_normal(self.ambient_dim)
        return Point(x / np.linalg.norm(x), self.name)

    def geodesic_symmetry(self, m, p):
        # point reflection through m extends past the cut locus of the log map
        self._check_point(m)
        self._check_point(p)
        return Point(2.0 * float(m.coords @ p.coords) * m.coords - p.coords,
                     self.name)


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

    def _transport(self, x, u, y):
        w = self._log(x, y)
        theta = math.sqrt(max(_mink(w, w), 0.0))
        if theta == 0.0:
            return u.copy()
        e = w / theta
        ue = _mink(u, e)
        out = u + ue * ((math.cosh(theta) - 1.0) * e + math.sinh(theta) * x)
        return out + _mink(y, out) * y

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

    def random_point(self, rng):
        y = 0.5 * rng.standard_normal(self.dim)
        x = np.concatenate([[math.sqrt(1.0 + float(y @ y))], y])
        return Point(x, self.name)

    def geodesic_symmetry(self, m, p):
        self._check_point(m)
        self._check_point(p)
        x = -p.coords - 2.0 * _mink(m.coords, p.coords) * m.coords
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


def _expm_sym(s, margin=0.0):
    w, vecs = np.linalg.eigh(_sym(s))
    _check_expm_range(w[0], w[-1], margin)  # eigh sorts ascending
    return (vecs * np.exp(w)) @ vecs.T


def _logm_spd(p, what="matrix"):
    w, vecs = _eigh_spd(p, what)
    return (vecs * np.log(w)) @ vecs.T


class SPD(ConnectionSpace):
    """Symmetric positive-definite n x n matrices, affine-invariant metric.

    Points and tangent vectors are stored as flattened n x n arrays; tangent
    vectors are symmetric matrices.  exp/log conjugate the matrix exponential
    and logarithm by P^{+-1/2}; transport P -> Q multiplies by the square
    root of Q P^{-1} on both sides.  The space is a Hadamard manifold: no cut
    locus, infinite injectivity radius.  P^{+-1/2} of the last few base
    points are cached, so a ladder step that comes back to a base factors it
    once.
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
        inner = _logm_spd(pis @ self._mat(y) @ pis, "target point")
        return _sym(ps @ inner @ ps).ravel()

    def _transport(self, x, u, y):
        ps, pis, _ = self._sqrt_pair(x)
        delta = _logm_spd(pis @ self._mat(y) @ pis, "target point")
        e = ps @ _expm_sym(0.5 * delta) @ pis
        return _sym(e @ self._mat(u) @ e.T).ravel()

    def _curvature(self, x, u, v, w):
        ps, pis, _ = self._sqrt_pair(x)
        a = pis @ self._mat(u) @ pis
        b = pis @ self._mat(v) @ pis
        c = pis @ self._mat(w) @ pis
        ab = a @ b - b @ a
        br = ab @ c - c @ ab
        return (ps @ (-0.25 * br) @ ps).ravel()

    def _inner(self, x, u, v):
        p = self._mat(x)
        a = np.linalg.solve(p, self._mat(u))
        b = np.linalg.solve(p, self._mat(v))
        return float(np.trace(a @ b))

    def _tangent_basis(self, x):
        ps, _, _ = self._sqrt_pair(x)
        cols = []
        for i in range(self.n):
            for j in range(i, self.n):
                f = np.zeros((self.n, self.n))
                if i == j:
                    f[i, i] = 1.0
                else:
                    f[i, j] = f[j, i] = 1.0 / math.sqrt(2.0)
                cols.append((ps @ f @ ps).ravel())
        return np.column_stack(cols)

    def random_point(self, rng):
        s = 0.5 * _sym(rng.standard_normal((self.n, self.n)))
        return Point(_expm_sym(s).ravel(), self.name)

    def geodesic_symmetry(self, m, p):
        self._check_point(m)
        self._check_point(p)
        # m p^-1 m = a^T a for a = L^-1 m, where p = L L^T; the factor is
        # also the check that p is SPD
        try:
            low = np.linalg.cholesky(_sym(self._mat(p.coords)))
        except np.linalg.LinAlgError:
            raise NotSPD("point is not positive definite: its Cholesky "
                         "factorization failed") from None
        a = np.linalg.solve(low, self._mat(m.coords))
        return Point(_sym(a.T @ a).ravel(), self.name)


# ---------------------------------------------------------------------------
# SO(3) with the symmetric Cartan-Schouten connection
# ---------------------------------------------------------------------------

def _hat(w):
    return np.array([
        [0.0, -w[2], w[1]],
        [w[2], 0.0, -w[0]],
        [-w[1], w[0], 0.0],
    ])


def _vee(m):
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def _rodrigues(w):
    theta = float(np.linalg.norm(w))
    k = _hat(w)
    if theta < 1e-8:
        a = 1.0 - theta * theta / 6.0
        b = 0.5 - theta * theta / 24.0
    else:
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / (theta * theta)
    return np.eye(3) + a * k + b * (k @ k)


_BRANCH_TOL = 1e-6


def _rotation_log(r):
    """Rotation vector of r; raises LogBranch within 1e-6 of angle pi."""
    a = _vee(r - r.T) / 2.0  # sin(theta) * axis
    s = float(np.linalg.norm(a))
    c = 0.5 * (float(np.trace(r)) - 1.0)
    theta = math.atan2(s, c)
    if theta > math.pi - _BRANCH_TOL:
        raise LogBranch("rotation angle at the cut locus (pi)")
    if theta < 1e-8:
        return a * (1.0 + theta * theta / 6.0)
    return (theta / s) * a


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

    def _body(self, x, v):
        """Skew body components R^T V of a tangent matrix at R."""
        a = self._mat(x).T @ self._mat(v)
        return 0.5 * (a - a.T)

    def _exp(self, x, v):
        r = self._mat(x)
        return (r @ _rodrigues(_vee(self._body(x, v)))).ravel()

    def _geodesic(self, x, v, times):
        w = _vee(self._body(x, v))
        theta = float(np.linalg.norm(w))
        if theta < 1e-8:
            return super()._geodesic(x, v, times)
        # Rodrigues at angle a = t theta, written without dividing by a:
        # R expm(t K) = R + sin(a) / theta R K + 2 sin^2(a / 2) / theta^2 R K^2
        a = times * theta
        k = _hat(w)
        rk = self._mat(x) @ k
        return (x + np.multiply.outer(np.sin(a) / theta, rk.ravel())
                + np.multiply.outer(2.0 * (np.sin(0.5 * a) / theta) ** 2,
                                    (rk @ k).ravel()))

    def _log(self, x, y):
        r, s = self._mat(x), self._mat(y)
        w = _rotation_log(r.T @ s)
        return (r @ _hat(w)).ravel()

    def _transport(self, x, u, y):
        r, s = self._mat(x), self._mat(y)
        w = _rotation_log(r.T @ s)
        half = _rodrigues(0.5 * w)
        return (r @ half @ self._body(x, u) @ half).ravel()

    def _curvature(self, x, u, v, w):
        r = self._mat(x)
        a, b, c = self._body(x, u), self._body(x, v), self._body(x, w)
        ab = a @ b - b @ a
        br = ab @ c - c @ ab
        return (r @ (-0.25 * br)).ravel()

    def _inner(self, x, u, v):
        return 0.5 * float(u @ v)

    def _tangent_basis(self, x):
        r = self._mat(x)
        cols = [(r @ _hat(e)).ravel() for e in np.eye(3)]
        return np.column_stack(cols)

    def random_point(self, rng):
        a = rng.standard_normal((3, 3))
        q, rr = np.linalg.qr(a)
        q = q * np.sign(np.diag(rr))
        if np.linalg.det(q) < 0.0:
            q[:, [0, 1]] = q[:, [1, 0]]
        return Point(q.ravel(), self.name)

    def geodesic_symmetry(self, m, p):
        self._check_point(m)
        self._check_point(p)
        g, h = self._mat(m.coords), self._mat(p.coords)
        return Point((g @ h.T @ g).ravel(), self.name)


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

def _stereographic_sphere_chart():
    # plane chart of the unit 2-sphere, projection from the north pole;
    # pullback metric 4 (dx^2 + dy^2) / (1 + r^2)^2.  The callbacks compute
    # in Python floats, in the order of the numpy expressions they replaced,
    # -2.0 * x / s and -2.0 * np.eye(2) / s + 4.0 * np.outer(x, x) / (s * s),
    # so each value keeps its bits but r^2: numpy's x @ x went through BLAS,
    # whose kernel may fuse the second product and its sum into one rounding
    def grad_f(x):
        x0, x1 = x
        s = 1.0 + (x0 * x0 + x1 * x1)
        return [-2.0 * x0 / s, -2.0 * x1 / s]

    def hess_f(x):
        x0, x1 = x
        s = 1.0 + (x0 * x0 + x1 * x1)
        ss = s * s
        # the identity's zero added -2.0 * 0.0 / s = -0.0, which is no change
        off = 4.0 * (x0 * x1) / ss
        return [[-2.0 / s + 4.0 * (x0 * x0) / ss, off],
                [off, -2.0 / s + 4.0 * (x1 * x1) / ss]]

    return ChartConnection.conformal(2, grad_f, hess_f=hess_f)


# least 1 - r^2 of an accepted integration state in the hyperbolic2-ball
# chart.  Nearer the rim the integrator's position error, about its 1e-12
# default absolute tolerance, is no longer small against 1 - r^2, so the
# conformal factor 2 / (1 - r^2), and any endpoint computed from it, means
# nothing: a flow that gets there raises DomainEscape
_RIM_MARGIN = 1e-9


def _poincare_ball_chart():
    # unit-disc chart of the hyperbolic plane, metric 4 (dx^2+dy^2)/(1-r^2)^2
    def one_minus_r2(x0, x1):
        # the box below holds the disc; outside the disc, the factor's
        # formulas give a metric of the wrong sign
        s = 1.0 - (x0 * x0 + x1 * x1)
        if not s > 0.0:
            raise DomainEscape(f"point ({x0}, {x1}) is outside the unit disc")
        return s

    # in Python floats, as on the sphere's chart
    def grad_f(x):
        x0, x1 = x
        s = one_minus_r2(x0, x1)
        return [2.0 * x0 / s, 2.0 * x1 / s]

    def hess_f(x):
        x0, x1 = x
        s = one_minus_r2(x0, x1)
        ss = s * s
        # the identity's zero added 2.0 * 0.0 / s = 0.0, which turns -0.0
        # into 0.0
        off = 0.0 + 4.0 * (x0 * x1) / ss
        return [[2.0 / s + 4.0 * (x0 * x0) / ss, off],
                [off, 2.0 / s + 4.0 * (x1 * x1) / ss]]

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

    return ChartConnection(dim=3, christoffel=christoffel)


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
    n = 2.  The placeholder "sphere-n" itself names nothing.
    """
    family, sep, num = name.rpartition("-")
    if sep and num.isdecimal() and f"{family}-n" in table:
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
