"""Numerical connection engine driven by Christoffel symbols.

Given a chart and a callable producing the symbols G^k_ij at a point, this
module integrates the geodesic equation, inverts it by shooting, solves the
parallel-transport ODE along geodesics, and assembles the curvature tensor
and its covariant derivative from central finite differences.

``ChartSpace`` adapts the engine to the ``ConnectionSpace`` contract so
chart-defined manifolds compose with the ladder schemes and the analysis
tools exactly like the closed-form model manifolds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from operator import mul
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .core import (
    ConnectionSpace,
    DomainEscape,
    MaxStepsExceeded,
    NoConvergence,
    NonFinite,
    Point,
    TangentVector,
    ToleranceConfig,
    Unsupported,
)

__all__ = [
    "ChartConnection",
    "ChartSpace",
    "geodesic_flow",
    "log_shooting",
    "transport_ode",
    "curvature_components",
    "nabla_curvature_components",
    "christoffels_from_metric",
    "conformal_christoffel",
]

_EPS = np.finfo(float).eps
# optimum for first derivatives of smooth functions by central differences
_FD_STEP = _EPS ** (1.0 / 3.0)
# outer step of the nested differences in nabla_curvature_components, wider
# than _FD_STEP so it stays above the noise of the inner curvature stencil
_NABLA_FD_STEP = 5e-4
# first trial fraction of each quasi-Newton step; the line search halves it
_NEWTON_DAMPING = 1.0
# time step of the fixed-step "rk4" integrator
_RK4_STEP = 1.0 / 256.0
# step budget of either integrator
_MAX_STEPS = 100_000
# right-hand-side evaluations per step attempt of the adaptive DOP853 pair:
# eleven new stages and the derivative at the step's end
_RHS_PER_STEP = 12

# Integrator methods: "adaptive" is the Dormand-Prince 8(5,3) pair (DOP853)
# with local error control at the ToleranceConfig ODE tolerances; at their
# tight defaults it takes fewer, longer steps than a 4(5) pair. "rk4" is the
# classical fixed-step scheme, for bit-reproducible sweeps.
_METHODS = ("adaptive", "rk4")
_DEFAULT_TOLERANCES = ToleranceConfig()


@dataclass(frozen=True)
class ChartConnection:
    """A torsion-free affine connection defined numerically on a chart.

    ``christoffel(x)`` returns the array G[k, i, j] = G^k_ij at chart point x.
    Symbols are symmetrized in (i, j) on every query; asymmetry beyond 1e-12
    triggers a warning since it would mean a connection with torsion, and a
    non-finite symbol raises NonFinite.

    A conformal connection, the Levi-Civita connection of g = exp(2 f) *
    euclidean, also carries ``grad_f``, the gradient of f; build it with
    ``ChartConnection.conformal`` so the symbols and the gradient agree.
    ``contract`` then evaluates G(x)(v, w) in closed form from the gradient
    alone, which is all the geodesic and transport equations need.
    """

    dim: int
    christoffel: Callable[[np.ndarray], np.ndarray]
    chart_bounds: tuple | None = None  # (lo, hi) arrays, inclusive box
    grad_f: Callable[[np.ndarray], np.ndarray] | None = None

    @classmethod
    def conformal(cls, dim: int, grad_f: Callable[[np.ndarray], np.ndarray],
                  chart_bounds: tuple | None = None) -> "ChartConnection":
        """The connection of g = exp(2 f) * euclidean, from the gradient of f."""
        return cls(dim, conformal_christoffel(grad_f), chart_bounds, grad_f)

    def contract(self, x: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        """G(x)(v, w)^k = G^k_ij v^i w^j; w is a vector or a stack of rows,
        each contracted with v."""
        if self.grad_f is None:
            # gv[k, i] = G^k_ij v^j; the symbols are symmetric in (i, j);
            # stacked matrix-vector products round each row as gv @ row does
            gv = self.gamma(x) @ v
            return (gv @ w[..., None])[..., 0]
        df = np.asarray(self.grad_f(x), dtype=float)
        if df.shape != (self.dim,):
            raise ValueError(
                f"grad_f returned shape {df.shape}, expected {(self.dim,)}")
        f = df.tolist()
        # the same guarantee as gamma: a NaN left unchecked makes the
        # adaptive integrator's time NaN, and it never terminates
        if not all(map(math.isfinite, f)):
            raise NonFinite(f"conformal factor gradient is not finite at {x}")
        # G^k_ij = f_i d_jk + f_j d_ik - f_k d_ij gives G(v, w) =
        # (df.v) w + (df.w) v - (v.w) df; in Python floats, since numpy's
        # per-call cost exceeds the arithmetic at these sizes
        vs = v.tolist()
        fv = sum(map(mul, f, vs))

        def row(r):
            fw, vw = sum(map(mul, f, r)), sum(map(mul, vs, r))
            return [fv * ri + fw * vi - vw * fi for ri, vi, fi in zip(r, vs, f)]

        return np.array(row(w.tolist()) if w.ndim == 1
                        else list(map(row, w.tolist())))

    def gamma(self, x: np.ndarray) -> np.ndarray:
        g = np.asarray(self.christoffel(x), dtype=float)
        if g.shape != (self.dim, self.dim, self.dim):
            raise ValueError(
                f"christoffel returned shape {g.shape}, expected "
                f"{(self.dim, self.dim, self.dim)}"
            )
        gt = g.swapaxes(1, 2)
        asym = float(np.abs(g - gt).max()) if g.size else 0.0
        # NaN/inf in any symbol makes asym non-finite; left unchecked, the
        # adaptive integrator's time becomes NaN and it never terminates
        if not math.isfinite(asym):
            raise NonFinite(f"christoffel symbols are not finite at {x}")
        if asym == 0.0:
            return g
        if asym > 1e-12:
            warnings.warn(
                f"christoffel symbols asymmetric by {asym:.3e}; symmetrizing "
                "(torsion is not supported)",
                RuntimeWarning,
                stacklevel=2,
            )
        return 0.5 * (g + gt)

    def in_bounds(self, x: np.ndarray) -> bool:
        """Whether x lies in the box; x is one point or a (dim, n) array of
        points, such as an integrator's trajectory."""
        if self.chart_bounds is None:
            return True
        lo, hi = self.chart_bounds
        # transposed, (dim, n) points broadcast against the (dim,) box
        xt = np.asarray(x).T
        return bool((xt >= lo).all() and (xt <= hi).all())


def _integrate(conn: ChartConnection, rhs, z0: np.ndarray, t: float,
               tolerances: ToleranceConfig, method: str) -> np.ndarray:
    if method not in _METHODS:
        raise ValueError(f"unknown integrator method {method!r}")
    if t == 0.0:
        return z0.copy()
    if t < 0.0:
        raise ValueError("integration time must be non-negative")
    d = conn.dim
    if method == "rk4":
        n = int(math.ceil(t / _RK4_STEP))
        if n > _MAX_STEPS:
            raise MaxStepsExceeded(
                f"{n} fixed steps exceed the budget of {_MAX_STEPS}"
            )
        h = t / n
        z = z0.copy()
        for _ in range(n):
            k1 = rhs(0.0, z)
            k2 = rhs(0.0, z + 0.5 * h * k1)
            k3 = rhs(0.0, z + 0.5 * h * k2)
            k4 = rhs(0.0, z + h * k3)
            z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not conn.in_bounds(z[:d]):
                raise DomainEscape("trajectory left the chart bounds")
        return z
    # the step budget is enforced while the solve runs, through its count of
    # right-hand-side evaluations: solve_ivp reports its steps only on return,
    # and every step attempt, accepted or rejected, costs _RHS_PER_STEP; the
    # extra one covers the start rule's evaluation and solve_ivp's own at t=0
    budget = _RHS_PER_STEP * (_MAX_STEPS + 1)
    evals = 0

    def counted(s, z):
        nonlocal evals
        evals += 1
        if evals > budget:
            raise MaxStepsExceeded(
                f"adaptive integrator exceeded {budget} right-hand-side "
                f"evaluations, the budget of {_MAX_STEPS} steps, at t={s:.6g}")
        return rhs(s, z)

    # first step: the time over which the initial derivative moves the state
    # by its own size, capped at the whole interval; scipy's default sizes it
    # from the tolerance alone, which costs a short flow three steps instead
    # of one, while the bound keeps a fast flow's first stages finite
    f0 = counted(0.0, z0)
    fnorm = float(np.linalg.norm(f0))
    h0 = min(t, float(np.linalg.norm(z0)) / fnorm) if fnorm else t
    sol = solve_ivp(counted, (0.0, t), z0, method="DOP853", first_step=h0,
                    rtol=tolerances.ode_rel_tol, atol=tolerances.ode_abs_tol)
    if not sol.success:
        # DOP853 fails only when its step size underflows, which happens as
        # the solution blows up at the edge of the chart's domain
        raise DomainEscape(f"adaptive integrator failed: {sol.message}")
    if not conn.in_bounds(sol.y[:d]):
        raise DomainEscape("trajectory left the chart bounds")
    return sol.y[:, -1]


def geodesic_flow(conn: ChartConnection, x, v, t: float = 1.0,
                  tolerances: ToleranceConfig | None = None,
                  method: str = "adaptive"):
    """Integrate the geodesic equation x'' + G(x)(x', x') = 0.

    Returns the (position, velocity) pair at time t.
    """
    tolerances = tolerances or _DEFAULT_TOLERANCES
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    d = conn.dim
    if not conn.in_bounds(x):
        raise DomainEscape("initial point outside the chart bounds")

    def rhs(_, z):
        vel = z[d:]
        return np.concatenate([vel, -conn.contract(z[:d], vel, vel)])

    z = _integrate(conn, rhs, np.concatenate([x, v]), t, tolerances, method)
    return z[:d], z[d:]


def log_shooting(conn: ChartConnection, x, y,
                 tolerances: ToleranceConfig | None = None,
                 method: str = "adaptive"):
    """Solve exp_x(v) = y for v by a quasi-Newton solve on the endpoint residual.

    The initial guess is the chart difference y - x, which converges inside
    convex normal neighborhoods.  The Jacobian of the endpoint map starts
    from its first-order model I - G(x)(v, .) and takes a rank-one "good
    Broyden" update after each trial, so an iteration costs one geodesic
    integration unless the line search retries (up to four times) to make
    the residual decrease: a rejected trial updates the Jacobian too, and
    the next trial takes half of the step solved from the updated one.  Once
    the residual is at most max(10 ode_rel_tol, 1e-11), one more step is
    tried and kept only if it lowers the residual; a chart difference that
    already meets the target returns at once, with 0 iterations.  All steps
    count against ``max_shooting_iters``.  Returns (v, iterations); raises
    NoConvergence with the best residual attached otherwise, also when a
    trial integration fails.
    """
    tolerances = tolerances or _DEFAULT_TOLERANCES
    max_iters = tolerances.max_shooting_iters
    # the endpoint carries integration error of order ode_rel_tol, so the
    # residual target sits a decade above it, and never below 1e-11
    residual_tol = max(10.0 * tolerances.ode_rel_tol, 1e-11)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def endpoint(vel, rnorm, escapes=()):
        # a trial velocity that stalls the integrator or escapes the chart is
        # a shooting failure, not silent garbage, unless the caller takes an
        # escape (None) as a rejected trial
        try:
            return geodesic_flow(conn, x, vel, 1.0, tolerances, method)[0]
        except escapes:
            return None
        except (MaxStepsExceeded, DomainEscape) as err:
            raise NoConvergence(
                f"shooting trial failed at residual {rnorm:.3e}: {err}",
                residual=rnorm) from err

    # before the first trial the solve holds v = 0, whose endpoint is x
    v = y - x
    res = endpoint(v, float(np.linalg.norm(v))) - y
    rnorm = float(np.linalg.norm(res))
    if rnorm <= residual_tol:
        return v, 0
    # derivative in v of the first-order model x + v - G(x)(v, v) / 2
    jac = np.eye(conn.dim) - v @ conn.gamma(x)
    it = 0
    while rnorm > residual_tol:
        if it == max_iters:
            raise NoConvergence(
                f"shooting stalled after {max_iters} iterations "
                f"(residual {rnorm:.3e})",
                residual=rnorm,
            )
        it += 1
        alpha = _NEWTON_DAMPING
        for _ in range(5):
            try:
                dv = -alpha * np.linalg.solve(jac, res)
            except np.linalg.LinAlgError:
                raise NoConvergence("singular shooting Jacobian",
                                    residual=rnorm)
            end = endpoint(v + dv, rnorm, DomainEscape)
            if end is None:
                # the trial left the chart: no endpoint to update jac with,
                # but a shorter step may stay inside
                alpha *= 0.5
                continue
            res_try = end - y
            r_try = float(np.linalg.norm(res_try))
            # the least change to jac that maps dv to the observed residual
            # change; a rejected trial informs jac too, so the next trial
            # solves again instead of halving a step along a poor direction
            jac += np.outer(res_try - res - jac @ dv, dv) / (dv @ dv)
            if r_try < rnorm:
                break
            alpha *= 0.5
        else:
            raise NoConvergence(
                f"shooting line search found no decrease at iteration {it} "
                f"(residual {rnorm:.3e})",
                residual=rnorm,
            )
        v, res, rnorm = v + dv, res_try, r_try
    # Broyden converges superlinearly, not quadratically, so it stops a few
    # digits short of Newton's last step; one more step recovers them
    if rnorm > 0.0 and it < max_iters:
        it += 1
        try:
            v_try = v - np.linalg.solve(jac, res)
            r_try = float(np.linalg.norm(endpoint(v_try, rnorm) - y))
        except (np.linalg.LinAlgError, NoConvergence):
            r_try = math.inf
        if r_try < rnorm:
            v = v_try
    return v, it


def transport_ode(conn: ChartConnection, u, x, v, t: float = 1.0,
                  tolerances: ToleranceConfig | None = None,
                  method: str = "adaptive"):
    """Transport u along the geodesic from x with initial velocity v:
    u' + G(x)(x', u) = 0.

    The transport is integrated jointly with the geodesic so the curve and
    the vector stay consistent.  Returns (u_t, position_t, velocity_t).
    """
    tolerances = tolerances or _DEFAULT_TOLERANCES
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    d = conn.dim

    def rhs(_, z):
        vel = z[d:2 * d]
        # one connection evaluation for the velocity row and the transported row
        acc = conn.contract(z[:d], vel, z[d:].reshape(2, d))
        return np.concatenate([vel, -acc.ravel()])

    z = _integrate(conn, rhs, np.concatenate([x, v, u]), t, tolerances, method)
    return z[2 * d:], z[:d], z[d:2 * d]


# ---------------------------------------------------------------------------
# Curvature from finite differences
# ---------------------------------------------------------------------------

def _fd_gamma_grad(conn: ChartConnection, x: np.ndarray, h: float) -> np.ndarray:
    """dG[m, k, i, j] = d_m G^k_ij by central differences."""
    d = conn.dim
    out = np.empty((d, d, d, d))
    for m in range(d):
        dx = np.zeros(d)
        dx[m] = h
        if not (conn.in_bounds(x + dx) and conn.in_bounds(x - dx)):
            raise DomainEscape("finite-difference stencil left the chart bounds")
        out[m] = (conn.gamma(x + dx) - conn.gamma(x - dx)) / (2.0 * h)
    return out


def curvature_components(conn: ChartConnection, x, fd_step: float | None = None
                         ) -> np.ndarray:
    """Curvature tensor R[l, i, j, k] = R^l_ijk at chart point x.

    R^l_ijk = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik, with the
    Christoffel derivatives taken by central differences.  The result is
    antisymmetrized in (i, j), which the exact tensor satisfies, so the skew
    symmetry holds to the last bit.
    """
    x = np.asarray(x, dtype=float)
    h = fd_step if fd_step is not None else _FD_STEP * max(1.0, float(np.max(np.abs(x))))
    dg = _fd_gamma_grad(conn, x, h)
    g = conn.gamma(x)
    r = (np.einsum("iljk->lijk", dg)
         - np.einsum("jlik->lijk", dg)
         + np.einsum("lim,mjk->lijk", g, g)
         - np.einsum("ljm,mik->lijk", g, g))
    return 0.5 * (r - np.einsum("ljik->lijk", r))


def nabla_curvature_components(conn: ChartConnection, x) -> np.ndarray:
    """Covariant derivative DR[m, l, i, j, k] = (nabla_m R)^l_ijk at x.

    Assembled as d_m R^l_ijk plus one Christoffel correction per tensor index:
    +G^l_ma R^a_ijk for the upper slot and -G^a_m* R...a... for each of the
    three lower slots.  The outer finite-difference step is wider than the
    one inside R so the nested differencing stays above the noise of the
    inner stencil.
    """
    x = np.asarray(x, dtype=float)
    h = _NABLA_FD_STEP * max(1.0, float(np.max(np.abs(x))))
    d = conn.dim
    dr = np.empty((d, d, d, d, d))
    for m in range(d):
        dx = np.zeros(d)
        dx[m] = h
        rp = curvature_components(conn, x + dx)
        rm = curvature_components(conn, x - dx)
        dr[m] = (rp - rm) / (2.0 * h)
    g = conn.gamma(x)
    r = curvature_components(conn, x)
    dr += np.einsum("lma,aijk->mlijk", g, r)
    dr -= np.einsum("ami,lajk->mlijk", g, r)
    dr -= np.einsum("amj,liak->mlijk", g, r)
    dr -= np.einsum("amk,lija->mlijk", g, r)
    return dr


# ---------------------------------------------------------------------------
# Christoffel builders
# ---------------------------------------------------------------------------

def conformal_christoffel(grad_f: Callable[[np.ndarray], np.ndarray]):
    """Symbols of a conformal metric g = exp(2 f) * euclidean.

    G^k_ij = f_i d_jk + f_j d_ik - f_k d_ij, needing only the gradient of f.
    ``ChartConnection.conformal`` pairs them with the gradient itself, from
    which the geodesic and transport equations contract in closed form.
    """

    def christoffel(x):
        df = np.asarray(grad_f(np.asarray(x, dtype=float)), dtype=float)
        eye = np.eye(df.size)
        # g[k, i, j] = f_i d_jk; adding its (i, j) transpose gives the first
        # two terms and keeps the symbols exactly symmetric
        g = df[:, None] * eye[:, None, :]
        return g + g.transpose(0, 2, 1) - df[:, None, None] * eye

    return christoffel


def christoffels_from_metric(metric: Callable[[np.ndarray], np.ndarray]):
    """Levi-Civita symbols of a chart metric, by central differences.

    G^k_ij = 1/2 g^kl (d_i g_lj + d_j g_li - d_l g_ij).
    """

    def christoffel(x):
        x = np.asarray(x, dtype=float)
        d = x.size
        h = _FD_STEP * max(1.0, float(np.max(np.abs(x))))
        dg = np.empty((d, d, d))
        for m in range(d):
            dx = np.zeros(d)
            dx[m] = h
            dg[m] = (np.asarray(metric(x + dx), dtype=float)
                     - np.asarray(metric(x - dx), dtype=float)) / (2.0 * h)
        ginv = np.linalg.inv(np.asarray(metric(x), dtype=float))
        # lower-index symbols: G_kij = 1/2 (d_i g_kj + d_j g_ki - d_k g_ij)
        lower = 0.5 * (np.einsum("ikj->kij", dg)
                       + np.einsum("jki->kij", dg)
                       - np.einsum("kij->kij", dg))
        return np.einsum("kl,lij->kij", ginv, lower)

    return christoffel


# ---------------------------------------------------------------------------
# ConnectionSpace adapter
# ---------------------------------------------------------------------------

class ChartSpace(ConnectionSpace):
    """A ConnectionSpace realized numerically from a ChartConnection.

    The log map is solved by shooting, the transport oracle is the transport
    ODE at the configured tolerances and integrator ``method`` ("adaptive"
    or "rk4"), and curvature callbacks contract the finite-difference
    tensors.
    """

    def __init__(self, name: str, connection: ChartConnection,
                 metric: Callable[[np.ndarray], np.ndarray] | None = None,
                 tolerances: ToleranceConfig | None = None,
                 method: str = "adaptive",
                 anchor=None,
                 sample_halfwidth: float = 0.5,
                 validity_radius: float = 0.5,
                 locally_symmetric: bool = False):
        super().__init__(tolerances)
        self.method = method
        self.name = name
        self.conn = connection
        self.dim = connection.dim
        self.ambient_dim = connection.dim
        self.metric = metric
        self.has_metric = metric is not None
        self.locally_symmetric = locally_symmetric
        self.injectivity_radius = math.nan  # unknown for a generic chart
        self.validity_radius = validity_radius
        #: canonical interior base point used by experiment sweeps
        self.anchor = (np.zeros(self.dim) if anchor is None
                       else np.asarray(anchor, dtype=float))
        self.sample_halfwidth = sample_halfwidth

    # -- kernels --------------------------------------------------------------

    def _exp(self, x, v):
        return geodesic_flow(self.conn, x, v, 1.0, self.tolerances,
                             self.method)[0]

    def _log(self, x, y):
        return log_shooting(self.conn, x, y, self.tolerances, self.method)[0]

    def log_stats(self, p: Point, q: Point):
        self._check_point(p)
        self._check_point(q)
        if np.array_equal(p.coords, q.coords):
            return TangentVector(p, np.zeros(self.ambient_dim)), 0
        v, iters = log_shooting(self.conn, p.coords, q.coords,
                                self.tolerances, self.method)
        return TangentVector(p, v), iters

    def _exp_transport(self, x, u, v):
        # one transport ODE carries the geodesic and the vector together
        u_t, y, _ = transport_ode(self.conn, u, x, v, 1.0, self.tolerances,
                                  self.method)
        return y, u_t

    def _transport(self, x, u, y):
        v = log_shooting(self.conn, x, y, self.tolerances, self.method)[0]
        return self._exp_transport(x, u, v)[1]

    def _curvature(self, x, u, v, w):
        r = curvature_components(self.conn, x)
        return np.einsum("lijk,i,j,k->l", r, u, v, w)

    def _nabla_curvature(self, x, direction, u, v, w):
        dr = nabla_curvature_components(self.conn, x)
        return np.einsum("mlijk,m,i,j,k->l", dr, direction, u, v, w)

    def _inner(self, x, u, v):
        if self.metric is None:
            raise Unsupported(f"{self.name} has no metric")
        return float(u @ np.asarray(self.metric(x), dtype=float) @ v)

    def _tangent_basis(self, x):
        if self.metric is None:
            return np.eye(self.dim)
        g = np.asarray(self.metric(x), dtype=float)
        w, vecs = np.linalg.eigh(g)
        return vecs @ np.diag(1.0 / np.sqrt(w)) @ vecs.T

    # -- helpers ---------------------------------------------------------------

    def membership_residual(self, p: Point) -> float:
        return 0.0 if self.conn.in_bounds(p.coords) else math.inf

    def random_point(self, rng: np.random.Generator) -> Point:
        chart = rng.uniform(-self.sample_halfwidth, self.sample_halfwidth, self.dim)
        return Point(chart, self.name)

    def anchor_point(self) -> Point:
        return Point(self.anchor.copy(), self.name)
