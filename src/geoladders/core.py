"""Core data model for numerical geometry on affine connection spaces.

Points and tangent vectors are thin wrappers around plain float arrays.
``ConnectionSpace`` is the contract every manifold in this package
implements: exponential and log maps, the points exp(t v) of one geodesic
at many times in one call, parallel transport along geodesics (to a given
endpoint, or along t -> exp(t v) in one pass), midpoints, geodesic
symmetries, and (optionally) the curvature tensor and its covariant
derivative.  All operations are pure functions of their inputs;
spaces are immutable after construction and safe to share.
"""

from __future__ import annotations

import abc
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeometryError",
    "InvalidBase",
    "DomainEscape",
    "MaxStepsExceeded",
    "NoConvergence",
    "NonFinite",
    "CutLocus",
    "NotSPD",
    "Unsupported",
    "InsufficientData",
    "ConfigError",
    "ToleranceConfig",
    "Point",
    "TangentVector",
    "ConnectionSpace",
]


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class GeometryError(Exception):
    """Base class for numerical-geometry failures."""


class InvalidBase(GeometryError):
    """A tangent vector was used at a point other than its base."""


class _StepLoopError(GeometryError):
    """Raised by the chart engine's step loop, the error carries the time
    ``t`` the integration had reached and its numbers of ``accepted`` and
    ``rejected`` steps; they are None where it is raised elsewhere."""

    def __init__(self, message, t=None, accepted=None, rejected=None):
        super().__init__(message)
        self.t, self.accepted, self.rejected = t, accepted, rejected


class DomainEscape(_StepLoopError):
    """An integration or finite-difference stencil left the chart."""


class MaxStepsExceeded(_StepLoopError):
    """The ODE integrator hit its step budget before reaching the end time."""


class NoConvergence(GeometryError):
    """Boundary-value geodesic solve failed; final residual attached."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NonFinite(GeometryError):
    """An input or computed quantity (coordinates, components, a Christoffel
    symbol, a squared norm) is NaN or infinite or would leave the float range."""


class CutLocus(GeometryError):
    """The log map was requested at or beyond the cut locus."""


class NotSPD(GeometryError):
    """An input matrix has a non-positive eigenvalue."""


class Unsupported(GeometryError):
    """The space does not provide the requested capability."""


class InsufficientData(GeometryError):
    """Not enough usable data points for a convergence fit."""


class ConfigError(GeometryError):
    """Invalid experiment configuration."""


# ---------------------------------------------------------------------------
# Tolerances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances shared across a space's operations.

    ``exactness_tol`` bounds the relative ladder error on symmetric spaces;
    ``ode_rel_tol``/``ode_abs_tol`` drive the adaptive geodesic integrator and
    ``max_shooting_iters`` the quasi-Newton log solve of chart spaces.
    Every tolerance is finite and positive, and ``ode_rel_tol`` is at least
    100 machine epsilons, the floor of scipy's DOP853, which the chart
    integrator keeps.
    Defaults sit roughly two orders of magnitude above double-precision noise
    accumulated over ~1e3 arithmetic operations.
    """

    exactness_tol: float = 1e-10
    ode_rel_tol: float = 1e-12
    ode_abs_tol: float = 1e-12
    max_shooting_iters: int = 100

    def __post_init__(self):
        for name in ("exactness_tol", "ode_rel_tol", "ode_abs_tol"):
            # written so that NaN fails it too
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and strictly positive")
        # the chart integrator takes scipy's DOP853 steps, and scipy raises a
        # smaller relative tolerance to 100 eps: error control that fine
        # would ask for less than the stages' own rounding
        floor = 100.0 * np.finfo(float).eps
        if self.ode_rel_tol < floor:
            raise ValueError(f"ode_rel_tol must be at least {floor:.3g} (100 eps)")
        if self.max_shooting_iters < 1:
            raise ValueError("max_shooting_iters must be at least 1")


# ---------------------------------------------------------------------------
# Points and tangent vectors
# ---------------------------------------------------------------------------

def _as_float_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    return arr


# a 1-d ndarray of this dtype is what _as_float_array returns as it is, and
# what every kernel returns: Point and TangentVector keep it without a call
_FLOAT64 = np.dtype(float)


def _same_base(a: np.ndarray, b: np.ndarray) -> bool:
    """Coordinates agree to 1e-8 each; NaN or inf never agrees."""
    # one reduction instead of np.allclose, several times cheaper at this
    # size, and it runs on every exp and every vector sum
    return float(np.abs(a - b).max(initial=0.0)) <= 1e-8


def _require_finite(values: np.ndarray, what: str):
    # on arrays of a few entries this scan is several times faster than
    # np.isfinite(values).all(), and it runs on every exp/log/transport
    if not all(map(math.isfinite, values.tolist())):
        raise NonFinite(f"{what} are not finite: {values}")


# about half the float range (1.8e308), leaving room for a bound's rounding
_FLOAT_LIMIT = 8.9e307


def _dot(a, b) -> float:
    """Sum of the products of two sequences of Python floats, left to right,
    alike on every CPU and Python version: BLAS's dot may fuse or reorder
    its products, and sum() compensates its rounding from Python 3.12 on."""
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


def _norm(a) -> float:
    """Euclidean norm of a list of Python floats or a 1-d array, by _dot."""
    if not isinstance(a, list):
        a = a.tolist()
    return math.sqrt(_dot(a, a))


def _check_float_range(bound, what):
    # before a closed form runs, where numpy would only warn and return inf;
    # a NaN bound fails too
    if not bound <= _FLOAT_LIMIT:
        raise NonFinite(f"{what} leaves the float range: bound {bound:.3g}")


@dataclass(frozen=True, eq=False, slots=True)
class Point:
    """A location on a manifold, in chart or embedding coordinates."""

    coords: np.ndarray
    space_id: str

    def __post_init__(self):
        c = self.coords
        if type(c) is not np.ndarray or c.dtype is not _FLOAT64 or c.ndim != 1:
            object.__setattr__(self, "coords", _as_float_array(c))

    def __repr__(self):
        return f"Point({np.array2string(self.coords, precision=6)}, {self.space_id!r})"


@dataclass(frozen=True, eq=False, slots=True)
class TangentVector:
    """A tangent vector: base point plus a component array of equal length."""

    base: Point
    components: np.ndarray

    def __post_init__(self):
        comps = self.components
        if type(comps) is not np.ndarray or comps.dtype is not _FLOAT64 \
                or comps.ndim != 1:
            comps = _as_float_array(comps)
            object.__setattr__(self, "components", comps)
        if comps.shape != self.base.coords.shape:
            raise InvalidBase(
                f"components of length {comps.size} do not match base of "
                f"length {self.base.coords.size}"
            )

    @property
    def component_norm(self) -> float:
        """Euclidean norm of the raw components (chart/embedding level)."""
        return _norm(self.components)

    def _require_same_base(self, other: "TangentVector"):
        # one Point is its own base, its coordinates finite or not; a space
        # refuses a non-finite base when it is used
        a, b = self.base, other.base
        if a is not b and (a.space_id != b.space_id
                           or not _same_base(a.coords, b.coords)):
            raise InvalidBase("cannot combine vectors from different tangent spaces")

    def __add__(self, other):
        self._require_same_base(other)
        return TangentVector(self.base, self.components + other.components)

    def __sub__(self, other):
        self._require_same_base(other)
        return TangentVector(self.base, self.components - other.components)

    def __mul__(self, scalar):
        if not isinstance(scalar, numbers.Real):
            return NotImplemented
        return TangentVector(self.base, float(scalar) * self.components)

    __rmul__ = __mul__

    def __neg__(self):
        return TangentVector(self.base, -self.components)

    def __repr__(self):
        return (
            f"TangentVector({np.array2string(self.components, precision=6)}"
            f" at {np.array2string(self.base.coords, precision=6)})"
        )


def _unit_direction(rng: np.random.Generator, p: Point,
                    basis: np.ndarray) -> TangentVector:
    """Uniform unit-norm direction at p in the span of basis, whose columns
    are metric-orthonormal: what random_direction draws from
    tangent_basis(p)."""
    z = rng.standard_normal(basis.shape[1])
    # np.linalg.norm(z) by its own 1-d definition, without its call cost
    z /= math.sqrt(float(z @ z))
    return TangentVector(p, basis @ z)


# ---------------------------------------------------------------------------
# The connection-space contract
# ---------------------------------------------------------------------------

class ConnectionSpace(abc.ABC):
    """A manifold with an affine connection (torsion-free).

    Subclasses implement the private kernels ``_exp``/``_log`` and
    ``_exp_transport`` (the point exp(v) and u transported along
    t -> exp(t v)) on raw coordinate arrays; ``transport`` to a point q is
    that kernel along ``_log``'s velocity.  They may override
    ``_geodesic`` (exp at many times along one geodesic) when the work the
    times share can be done once, and ``_geodesic_symmetry`` when the
    reflection has a closed form.  The public wrappers handle ``Point`` /
    ``TangentVector`` packing, base-point validation, non-finite inputs and
    vectors whose squared norm would overflow (``NonFinite``) and degenerate
    inputs (``exp(p, 0) == p`` exactly, ``log(p, p) == 0`` without shooting).

    The flags ``has_metric`` and ``locally_symmetric`` are truthful: a space
    with a metric backs ``inner``, and a locally symmetric one has nabla R = 0.
    """

    name: str = "abstract"
    dim: int = 0
    ambient_dim: int = 0
    has_metric: bool = True
    locally_symmetric: bool = False
    injectivity_radius: float = math.inf

    def __init__(self, tolerances: ToleranceConfig | None = None):
        self.tolerances = tolerances if tolerances is not None else ToleranceConfig()

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r})"

    # -- kernels on raw arrays ---------------------------------------------

    @abc.abstractmethod
    def _exp(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        ...

    @abc.abstractmethod
    def _log(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        ...

    @abc.abstractmethod
    def _exp_transport(self, x: np.ndarray, u: np.ndarray,
                       v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(exp_x(v), u transported along t -> exp_x(t v)), whatever |v|;
        the point is _exp's, bit for bit."""

    def _geodesic(self, x: np.ndarray, v: np.ndarray, times: np.ndarray):
        """Rows exp_x(t v), one per t in times (none of them 0)."""
        return [self._exp(x, t * v) for t in times]

    def _geodesic_symmetry(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # exp_x(-log_x(y)) by the public maps, with their checks and spans
        m = Point(x, self.name)
        return self.exp(m, -self.log(m, Point(y, self.name))).coords

    def _inner(self, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
        raise Unsupported(f"{self.name} has no metric")

    def _curvature(self, x, u, v, w) -> np.ndarray:
        raise Unsupported(f"{self.name} has no curvature capability")

    def _nabla_curvature(self, x, direction, u, v, w) -> np.ndarray:
        # on a locally symmetric space the curvature is covariantly constant
        if self.locally_symmetric:
            return np.zeros_like(u)
        raise Unsupported(f"{self.name} has no curvature-derivative capability")

    def _tangent_basis(self, x: np.ndarray) -> np.ndarray:
        raise Unsupported(f"{self.name} has no tangent basis helper")

    # -- validation helpers --------------------------------------------------

    def point(self, coords) -> Point:
        """Wrap finite raw coordinates as a Point owned by this space."""
        arr = _as_float_array(coords)
        if arr.size != self.ambient_dim:
            raise ValueError(
                f"{self.name} expects {self.ambient_dim} coordinates, got {arr.size}"
            )
        _require_finite(arr, "point coordinates")
        return Point(arr, self.name)

    def tangent(self, p: Point, components) -> TangentVector:
        """Wrap raw components as a vector at p, checked as a vector argument."""
        self._check_point(p)
        v = TangentVector(p, components)
        self._check_base(v, p)
        return v

    def _check_point(self, p: Point):
        if p.space_id != self.name:
            raise InvalidBase(f"point belongs to {p.space_id!r}, not {self.name!r}")
        if p.coords.size != self.ambient_dim:
            raise InvalidBase(
                f"point has {p.coords.size} coordinates, expected {self.ambient_dim}"
            )
        _require_finite(p.coords, "point coordinates")

    def _check_base(self, v: TangentVector, p: Point, reach: float = 1.0):
        """The one rule for a vector argument: v is at p, its components are
        finite, and the squared norm of t v stays in the float range for
        |t| <= reach (``NonFinite``).  Every caller has just checked p."""
        if v.base is not p:
            self._check_point(v.base)
            if not _same_base(v.base.coords, p.coords):
                raise InvalidBase("tangent vector is not based at the given point")
        # the sum of |components| bounds the norm, and is NaN or inf if one is
        big = reach * sum(map(abs, v.components.tolist()))
        if not big * big <= _FLOAT_LIMIT:
            _require_finite(v.components, "tangent components")
            _check_float_range(big * big, "squared tangent norm")

    def membership_residual(self, p: Point) -> float:
        """How far the point is from satisfying the space's membership constraint."""
        return 0.0

    def tangency_residual(self, v: TangentVector) -> float:
        """How far the vector is from the tangent space at its base."""
        return 0.0

    # -- geometry ------------------------------------------------------------

    def exp(self, p: Point, v: TangentVector) -> Point:
        """Geodesic endpoint at time 1 starting from p with velocity v."""
        self._check_point(p)
        self._check_base(v, p)
        if not v.components.any():
            return p
        return Point(self._exp(p.coords, v.components), self.name)

    def geodesic(self, p: Point, v: TangentVector, times) -> list[Point]:
        """The points exp_p(t v) for every t in times, from one kernel call.

        A closed-form space does the work the times share once, so a rail of
        points along one geodesic costs about one exp.  Inputs are checked
        as by exp; times must be a finite 1-d sequence (``ValueError``), and
        t == 0 or v == 0 gives p itself.
        """
        self._check_point(p)
        ts = np.asarray(times, dtype=float)
        tl = ts.tolist()
        if ts.ndim != 1 or not all(map(math.isfinite, tl)):
            raise ValueError(f"times must be a finite 1-d sequence, got {times!r}")
        self._check_base(v, p, max([1.0, *map(abs, tl)]))
        if not v.components.any():
            return [p] * ts.size
        moving = ts[ts != 0.0]
        rows = iter(self._geodesic(p.coords, v.components, moving)
                    if moving.size else ())
        return [Point(next(rows), self.name) if t != 0.0 else p
                for t in tl]

    def log(self, p: Point, q: Point) -> TangentVector:
        """Initial velocity of the geodesic from p reaching q at time 1."""
        self._check_point(p)
        self._check_point(q)
        # equal as np.array_equal finds finite arrays, several times faster
        if p.coords.tolist() == q.coords.tolist():
            return TangentVector(p, np.zeros(self.ambient_dim))
        return TangentVector(p, self._log(p.coords, q.coords))

    def log_stats(self, p: Point, q: Point) -> tuple[TangentVector, int]:
        """Log map plus an iteration count (0 for closed-form spaces)."""
        return self.log(p, q), 0

    def transport(self, u: TangentVector, q: Point) -> TangentVector:
        """Parallel transport of u along the geodesic from its base to q."""
        self._check_point(q)
        p = u.base
        self._check_point(p)
        self._check_base(u, p)
        if p.coords.tolist() == q.coords.tolist():
            return TangentVector(q, u.components.copy())
        x = p.coords
        v = self._log(x, q.coords)
        return TangentVector(q, self._exp_transport(x, u.components, v)[1])

    def exp_transport(self, u: TangentVector, v: TangentVector) -> TangentVector:
        """u parallel-transported along t -> exp(t v) from their common base
        point, returned at exp(v).

        The result's base is exp(v), bit for bit, so one call yields the
        point and the vector without a log map to recover the geodesic, and
        follows t -> exp(t v) for any length of v, past the cut locus too.
        """
        p = u.base
        self._check_point(p)
        self._check_base(v, p)
        self._check_base(u, p)
        if not v.components.any():
            return TangentVector(p, u.components.copy())
        y, uy = self._exp_transport(p.coords, u.components, v.components)
        return TangentVector(Point(y, self.name), uy)

    def midpoint(self, p: Point, q: Point) -> Point:
        """Point at parameter 1/2 on the geodesic [p, q] (exponential barycenter)."""
        return self.geodesic(p, self.log(p, q), (0.5,))[0]

    def geodesic_symmetry(self, m: Point, p: Point) -> Point:
        """Reverse p through m along the connecting geodesic: exp_m(-log_m(p))."""
        self._check_point(m)
        self._check_point(p)
        return Point(self._geodesic_symmetry(m.coords, p.coords), self.name)

    def curvature(self, p: Point, u: TangentVector, v: TangentVector,
                  w: TangentVector) -> TangentVector:
        """Curvature tensor R(u, v)w at p.

        Convention: R(u, v)w = nabla_u nabla_v w - nabla_v nabla_u w
        - nabla_[u,v] w, i.e. the component formula
        R^l_ijk = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik.
        """
        self._check_point(p)
        for vec in (u, v, w):
            self._check_base(vec, p)
        return TangentVector(
            p, self._curvature(p.coords, u.components, v.components, w.components)
        )

    def nabla_curvature(self, p: Point, direction: TangentVector,
                        u: TangentVector, v: TangentVector,
                        w: TangentVector) -> TangentVector:
        """Covariant derivative (nabla_direction R)(u, v)w at p."""
        self._check_point(p)
        for vec in (direction, u, v, w):
            self._check_base(vec, p)
        return TangentVector(
            p,
            self._nabla_curvature(
                p.coords, direction.components, u.components,
                v.components, w.components,
            ),
        )

    # -- metric --------------------------------------------------------------

    def inner(self, u: TangentVector, v: TangentVector) -> float:
        """Metric inner product of u and v, both checked as vectors at u's
        base."""
        if not self.has_metric:
            raise Unsupported(f"{self.name} has no metric")
        p = u.base
        self._check_point(p)
        self._check_base(u, p)
        if v is not u:
            self._check_base(v, p)
        return self._inner(p.coords, u.components, v.components)

    def norm(self, u: TangentVector) -> float:
        return math.sqrt(max(self.inner(u, u), 0.0))

    def dist(self, p: Point, q: Point) -> float:
        return self.norm(self.log(p, q))

    # -- sampling helpers ------------------------------------------------------

    def tangent_basis(self, p: Point) -> np.ndarray:
        """Columns form a metric-orthonormal basis of the tangent space at p."""
        self._check_point(p)
        return self._tangent_basis(p.coords)

    def random_point(self, rng: np.random.Generator) -> Point:
        raise Unsupported(f"{self.name} has no point sampler")

    def random_direction(self, rng: np.random.Generator, p: Point) -> TangentVector:
        """Uniform unit-norm direction in the tangent space at p."""
        return _unit_direction(rng, p, self.tangent_basis(p))
