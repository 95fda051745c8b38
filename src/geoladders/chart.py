"""Numerical connection engine driven by Christoffel symbols.

Given a chart and a callable producing the symbols G^k_ij at a point, this
module integrates the geodesic equation, inverts it by shooting, solves the
parallel-transport ODE along geodesics, and assembles the curvature tensor
and its covariant derivative from central finite differences.  One
right-hand side contracts G(x)(v, w) for geodesics, transports and the
shooting's first guess.  The ODEs are integrated by the module's own step
loop of the Dormand-Prince 8(5,3) pair, which takes scipy's DOP853 steps
with its coefficients, error norm and step control, but checks the chart's
box, a step budget and that each step moves the state as it goes, and
evaluates the derivative at a step's end only when the step is accepted
and another follows, whose first stage it is.  On a 2-d conformal chart
the shooting's first trial carries the surface's scalar Jacobi equation
with the geodesic; it only seeds the quasi-Newton solve, so it runs at a
looser tolerance than the flows that decide convergence.  The loop holds
scipy's tableau as literals, pinned equal to scipy's by a test, so
importing the module does not load scipy.  At the
dimensions of these charts numpy's per-call cost exceeds the arithmetic, so
the loop holds the state, the stages and the error estimates as lists of
Python floats, and so do the right-hand sides on conformal charts, which
hand the conformal factor's callbacks the chart point as a list and read
their numbers as they come.  numpy remains in the symbols-only right-hand
side, which hands back a list, in the shooting's linear algebra and in the
finite-difference curvature.  The loop's sums round otherwise than scipy's
products, so its steps are scipy's, accepted and rejected alike, while an
endpoint can differ from scipy's in its last bits.

``ChartSpace`` adapts the engine to the ``ConnectionSpace`` contract so
chart-defined manifolds compose with the ladder schemes and the analysis
tools exactly like the closed-form model manifolds.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from operator import le, mul
from typing import Callable, Sequence

import numpy as np

from .core import (
    ConnectionSpace,
    DomainEscape,
    MaxStepsExceeded,
    NoConvergence,
    NonFinite,
    Point,
    TangentVector,
    ToleranceConfig,
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
]


def __getattr__(name: str):
    # scipy's solve_ivp, which nothing here calls, imported only when the name
    # is looked up: the benchmark's tracer patches chart.solve_ivp, and
    # importing the package should not load scipy for it
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_EPS = np.finfo(float).eps
# optimum for first derivatives of smooth functions by central differences
_FD_STEP = _EPS ** (1.0 / 3.0)
# outer step of the nested differences in nabla_curvature_components, wider
# than _FD_STEP so it stays above the noise of the inner curvature stencil
_NABLA_FD_STEP = 5e-4
# budget of step attempts, accepted or rejected, of one integration
_MAX_STEPS = 100_000
# the Dormand-Prince 8(5,3) pair as scipy's DOP853 holds it, each double
# written as its repr so the values are scipy's to the last bit (a test pins
# them equal): row i of A weighs the earlier stages into stage i, B the
# twelve stages into the eighth-order step, and E5 and E3 the stages and the
# derivative at the step's end into the error estimates, unpacked by _dop853
_STAGE_ROWS = (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386,
     0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998,
     0.10726203044637328, -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
)
_B = (
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199,
    -0.1521609496625161, 0.20136540080403034, 0.04471061572777259)
_E5 = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0)
_E3 = (
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0)
# scipy's step-size control: the next step is the last one times
# SAFETY * error ** (-1/8), within [MIN_FACTOR, MAX_FACTOR]; the exponent is
# -1 / (error estimator order 7 + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0
_DEFAULT_TOLERANCES = ToleranceConfig()
# a shooting residual at most this times max(1, |y|_inf) is at the round-off
# of the target's coordinates, where one more Newton step buys nothing
_ROUND_OFF = 8.0 * _EPS


@dataclass(frozen=True, eq=False)
class ChartConnection:
    """A torsion-free affine connection defined numerically on a chart.

    ``christoffel(x)`` returns the array G[k, i, j] = G^k_ij at chart point x.
    Symbols are symmetrized in (i, j) on every query; asymmetry beyond 1e-12
    triggers a warning since it would mean a connection with torsion, and a
    non-finite symbol raises NonFinite.

    A conformal connection, the Levi-Civita connection of g = exp(2 f) *
    euclidean, also carries ``grad_f``, the gradient of f, and optionally
    ``hess_f``, its Hessian; build it with ``ChartConnection.conformal`` so
    the symbols and the gradient agree.  The geodesic and transport
    equations then contract G(x)(v, w) in closed form from the gradient
    alone.  On a 2-d chart the shooting seed of log_shooting reads the
    Gauss curvature from the Hessian's trace; a chart of another dimension
    does not read the Hessian.  Both callbacks take the chart point as a
    list of ``dim`` Python floats; ``grad_f`` returns ``dim`` numbers and
    ``hess_f`` ``dim`` rows of ``dim`` numbers.  The right-hand sides
    compute in Python floats, so callbacks written in them cost no numpy
    call; arrays work too, at numpy's cost per element.  Every read checks
    the lengths (ValueError) and that the numbers are finite (NonFinite).
    ``christoffel`` and ``interior`` take the point as an array.

    ``interior(x)``, when given, is a test that the initial and every
    accepted state of an integration must pass besides the box, for a domain
    a box cannot describe; a point that fails it is not a member of the
    chart's ``ChartSpace``.  Stages of a step are not held to it: the
    connection raises DomainEscape where it cannot be evaluated, and the
    step is rejected.
    """

    dim: int
    christoffel: Callable[[np.ndarray], np.ndarray]
    chart_bounds: tuple | None = None  # (lo, hi) arrays, inclusive box
    grad_f: Callable[[list], Sequence] | None = None
    hess_f: Callable[[list], Sequence] | None = None
    interior: Callable[[np.ndarray], bool] | None = None

    @classmethod
    def conformal(cls, dim: int, grad_f: Callable[[list], Sequence],
                  chart_bounds: tuple | None = None,
                  hess_f: Callable[[list], Sequence] | None = None,
                  interior: Callable[[np.ndarray], bool] | None = None
                  ) -> "ChartConnection":
        """The connection of g = exp(2 f) * euclidean, from the gradient of f
        and, when given, its Hessian.  ``grad_f(x)`` and ``hess_f(x)`` take
        the chart point x as a list of ``dim`` Python floats; ``grad_f``
        returns ``dim`` numbers and ``hess_f`` ``dim`` rows of ``dim``
        numbers.  Written in Python floats, they cost the right-hand sides
        no numpy call.  The symbols built here hand ``grad_f`` such a list
        too."""

        def christoffel(x):
            df = np.asarray(grad_f(np.asarray(x, dtype=float).tolist()),
                            dtype=float)
            eye = np.eye(df.size)
            # G^k_ij = f_i d_jk + f_j d_ik - f_k d_ij: g[k, i, j] = f_i d_jk
            # plus its (i, j) transpose keeps them exactly symmetric
            g = df[:, None] * eye[:, None, :]
            return g + g.transpose(0, 2, 1) - df[:, None, None] * eye

        return cls(dim, christoffel, chart_bounds, grad_f, hess_f, interior)

    def _gradient(self, x: list) -> Sequence:
        """grad_f(x) at the chart point x, a list of Python floats, checked."""
        f = self.grad_f(x)
        if len(f) != self.dim:
            raise ValueError(
                f"grad_f returned {len(f)} numbers, expected {self.dim}")
        # the same guarantee as gamma: a NaN left unchecked reads as a
        # rejected step, and the integrator shrinks its step until it
        # underflows and reports a domain escape instead of the fault
        if not all(map(math.isfinite, f)):
            raise NonFinite(f"conformal factor gradient is not finite at {x}")
        return f

    def _hessian(self, x: list) -> Sequence:
        """hess_f(x) at the chart point x, a list of Python floats, checked."""
        h = self.hess_f(x)
        d = self.dim
        if len(h) != d:
            raise ValueError(f"hess_f returned {len(h)} rows, expected {d}")
        # row by row, the cheapest of the forms tried for both checks
        for row in h:
            if len(row) != d:
                raise ValueError(f"hess_f returned a row of {len(row)} "
                                 f"numbers, expected {d}")
            if not all(map(math.isfinite, row)):
                raise NonFinite(
                    f"conformal factor Hessian is not finite at {x}")
        return h

    def gamma(self, x: np.ndarray) -> np.ndarray:
        g = np.asarray(self.christoffel(x), dtype=float)
        if g.shape != (self.dim, self.dim, self.dim):
            raise ValueError(
                f"christoffel returned shape {g.shape}, expected "
                f"{(self.dim, self.dim, self.dim)}"
            )
        gt = g.swapaxes(1, 2)
        asym = float(np.abs(g - gt).max()) if g.size else 0.0
        # NaN/inf in any symbol makes asym non-finite; left unchecked, it
        # reads as a rejected step, and the integrator shrinks its step until
        # it underflows and reports a domain escape instead of the fault
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

    def in_bounds(self, x) -> bool:
        """Whether the point x, an array or a list of floats, lies in the
        box.  A NaN coordinate is outside."""
        if self.chart_bounds is None:
            return True
        # compared in Python floats, as the step loop hands each accepted
        # state: numpy's per-call cost exceeds the comparisons
        if not isinstance(x, list):
            x = np.asarray(x)
            if x.ndim != 1:
                raise ValueError(f"in_bounds takes one point, got shape "
                                 f"{x.shape}")
            x = x.tolist()
        if len(x) != self.dim:
            raise ValueError(
                f"point of {len(x)} coordinates in a {self.dim}-d chart")
        lo, hi = self._box
        return all(map(le, lo, x)) and all(map(le, x, hi))

    @functools.cached_property
    def _box(self) -> tuple[list, list]:
        """The box's corners as lists of Python floats."""
        return tuple(np.broadcast_to(np.asarray(c, dtype=float),
                                     self.dim).tolist()
                     for c in self.chart_bounds)


def _inside(conn: ChartConnection, x: np.ndarray) -> bool:
    """Whether the chart point x lies in the connection's box and, when it
    has one, passes its interior test: the states an integration accepts."""
    return conn.in_bounds(x) and (conn.interior is None or conn.interior(x))


def _dop853(conn: ChartConnection, rhs, z: np.ndarray, f: list,
            t: float, h_abs: float, rtol: float, atol: float,
            controlled: int) -> tuple[np.ndarray, int, int]:
    """Integrate z' = rhs(z) from time 0 to t, starting from the derivative
    f = rhs(z) and a first step of h_abs; returns the state at t and the
    numbers of accepted and rejected steps.  rhs takes the state as a list
    of Python floats and returns its derivative as one.  A step attempt
    evaluates rhs at its 11 later stages; an accepted step short of t also
    evaluates it at its end, the next step's first stage, which the error
    estimates weigh by 0, so the last step does not.

    The steps are scipy's DOP853 steps: the same stages, the same error norm
    and the same step-size control, without the solver object around them.
    They run in Python floats, each stage one sum over the earlier stages
    whose coefficients are not zero, as Hairer's dop853.f writes them out;
    at these state sizes numpy's per-call cost exceeded the arithmetic.  The
    sums round otherwise than scipy's products, so the endpoint can differ
    from scipy's in its last bits.  Only the first ``controlled`` components
    enter the error norm.  A stage, or the derivative at the end of a step
    that passed the error test, whose right-hand side raises DomainEscape,
    or NonFinite at a non-finite state, makes the step's error NaN, and the
    step is rejected.  Every accepted state must be finite,
    inside the chart's box and, when the connection has one, pass its
    interior test; the DomainEscape raised otherwise names the test that
    failed.  An accepted step short of t that leaves the state unchanged
    raises DomainEscape: the solution has run into the edge of the
    connection's domain, where stages beyond it are rejected and the steps
    that stay before it no longer move the state.  Each error the loop
    raises carries the time it had reached and its step counts.
    """
    # the tableau's coefficients by stage; _ marks the zeros of scipy's
    # rows, which no stage sum reads
    ((a21,), (a31, a32), (a41, _, a43), (a51, _, a53, a54),
     (a61, _, _, a64, a65), (a71, _, _, a74, a75, a76),
     (a81, _, _, a84, a85, a86, a87), (a91, _, _, a94, a95, a96, a97, a98),
     (a101, _, _, a104, a105, a106, a107, a108, a109),
     (a111, _, _, a114, a115, a116, a117, a118, a119, a1110),
     (a121, _, _, a124, a125, a126, a127, a128, a129, a1210, a1211),
     (b1, _, _, _, _, b6, b7, b8, b9, b10, b11, b12),
     (e1, _, _, _, _, e6, e7, e8, e9, e10, e11, e12, _),
     (g1, _, _, _, _, g6, g7, g8, g9, g10, g11, g12, _)) = (
         *_STAGE_ROWS, _B, _E5, _E3)
    d = conn.dim
    z = z.tolist()
    s, accepted, rejected = 0.0, 0, 0
    while s < t:
        min_step = 10.0 * math.ulp(s)
        if h_abs < min_step:
            h_abs = min_step
        step_rejected = False
        # the derivative at the step's start is its first stage
        k1 = f
        while True:
            if h_abs < min_step:
                # the solution blows up at the edge of the chart's domain
                raise DomainEscape(
                    f"adaptive integrator failed: step size {h_abs:.3g} fell "
                    f"below the spacing of numbers at t={s:.6g}",
                    s, accepted, rejected)
            if accepted + rejected == _MAX_STEPS:
                raise MaxStepsExceeded(
                    f"adaptive integrator exceeded its budget of {_MAX_STEPS} "
                    f"steps at t={s:.6g}", s, accepted, rejected)
            s_new = min(s + h_abs, t)
            h = s_new - s
            h_abs = h
            try:
                y = [zi + h * (a21 * p1) for zi, p1 in zip(z, k1)]
                k2 = rhs(y)
                y = [zi + h * (a31 * p1 + a32 * p2)
                     for zi, p1, p2 in zip(z, k1, k2)]
                k3 = rhs(y)
                y = [zi + h * (a41 * p1 + a43 * p3)
                     for zi, p1, p3 in zip(z, k1, k3)]
                k4 = rhs(y)
                y = [zi + h * (a51 * p1 + a53 * p3 + a54 * p4)
                     for zi, p1, p3, p4 in zip(z, k1, k3, k4)]
                k5 = rhs(y)
                y = [zi + h * (a61 * p1 + a64 * p4 + a65 * p5)
                     for zi, p1, p4, p5 in zip(z, k1, k4, k5)]
                k6 = rhs(y)
                y = [zi + h * (a71 * p1 + a74 * p4 + a75 * p5 + a76 * p6)
                     for zi, p1, p4, p5, p6 in zip(z, k1, k4, k5, k6)]
                k7 = rhs(y)
                y = [zi + h * (a81 * p1 + a84 * p4 + a85 * p5 + a86 * p6
                               + a87 * p7)
                     for zi, p1, p4, p5, p6, p7 in zip(z, k1, k4, k5, k6, k7)]
                k8 = rhs(y)
                y = [zi + h * (a91 * p1 + a94 * p4 + a95 * p5 + a96 * p6
                               + a97 * p7 + a98 * p8)
                     for zi, p1, p4, p5, p6, p7, p8
                     in zip(z, k1, k4, k5, k6, k7, k8)]
                k9 = rhs(y)
                y = [zi + h * (a101 * p1 + a104 * p4 + a105 * p5 + a106 * p6
                               + a107 * p7 + a108 * p8 + a109 * p9)
                     for zi, p1, p4, p5, p6, p7, p8, p9
                     in zip(z, k1, k4, k5, k6, k7, k8, k9)]
                k10 = rhs(y)
                y = [zi + h * (a111 * p1 + a114 * p4 + a115 * p5 + a116 * p6
                               + a117 * p7 + a118 * p8 + a119 * p9
                               + a1110 * p10)
                     for zi, p1, p4, p5, p6, p7, p8, p9, p10
                     in zip(z, k1, k4, k5, k6, k7, k8, k9, k10)]
                k11 = rhs(y)
                y = [zi + h * (a121 * p1 + a124 * p4 + a125 * p5 + a126 * p6
                               + a127 * p7 + a128 * p8 + a129 * p9
                               + a1210 * p10 + a1211 * p11)
                     for zi, p1, p4, p5, p6, p7, p8, p9, p10, p11
                     in zip(z, k1, k4, k5, k6, k7, k8, k9, k10, k11)]
                k12 = rhs(y)
                y = [zi + h * (b1 * p1 + b6 * p6 + b7 * p7 + b8 * p8
                               + b9 * p9 + b10 * p10 + b11 * p11 + b12 * p12)
                     for zi, p1, p6, p7, p8, p9, p10, p11, p12
                     in zip(z, k1, k6, k7, k8, k9, k10, k11, k12)]
                z_new = y
                # scipy's error norm: the fifth- and third-order estimates,
                # scaled componentwise by atol + max(|z|, |z_new|) rtol (the
                # larger of the two, or NaN where z_new is), summed squared
                e5 = e3 = 0.0
                for y0, y1, p1, p6, p7, p8, p9, p10, p11, p12 in zip(
                        z[:controlled], z_new, k1, k6, k7, k8, k9, k10, k11,
                        k12):
                    y0, y1 = abs(y0), abs(y1)
                    scale = atol + (y0 if y0 > y1 else y1) * rtol
                    r5 = (e1 * p1 + e6 * p6 + e7 * p7 + e8 * p8 + e9 * p9
                          + e10 * p10 + e11 * p11 + e12 * p12) / scale
                    r3 = (g1 * p1 + g6 * p6 + g7 * p7 + g8 * p8 + g9 * p9
                          + g10 * p10 + g11 * p11 + g12 * p12) / scale
                    e5 += r5 * r5
                    e3 += r3 * r3
                # the fifth-order estimate, damped where the third-order one
                # is small against it (Hairer, Norsett & Wanner, II.10)
                error_norm = (h * e5 / math.sqrt((e5 + 0.01 * e3) * controlled)
                              if e5 else 0.0)
                if error_norm < 1.0 and s_new < t:
                    # the derivative at the end of an accepted step is the
                    # next step's first stage, which the error estimates
                    # weigh by 0
                    f = rhs(y)
            except (DomainEscape, NonFinite) as err:
                # a stage of a too-long step, or the end of one that passed
                # the error test, overflowed or left the connection's
                # domain; symbols that are not finite at a finite state
                # still raise
                if isinstance(err, NonFinite) and all(map(math.isfinite, y)):
                    raise
                error_norm = math.nan
            if error_norm < 1.0:
                factor = _MAX_FACTOR
                if error_norm > 0.0:
                    factor = min(factor,
                                 _SAFETY * error_norm ** _ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            # a NaN error norm shrinks the step by the least factor
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            step_rejected = True
            rejected += 1
        accepted += 1
        # an infinite state can pass the error test, whose scale is then
        # infinite
        if not all(map(math.isfinite, z_new)):
            raise DomainEscape(f"trajectory state is not finite at "
                               f"t={s_new:.6g}", s_new, accepted, rejected)
        if not conn.in_bounds(z_new[:d]):
            raise DomainEscape(f"trajectory left the chart bounds at "
                               f"t={s_new:.6g}", s_new, accepted, rejected)
        if conn.interior is not None and not conn.interior(
                np.array(z_new[:d])):
            raise DomainEscape(f"trajectory left the chart's interior at "
                               f"t={s_new:.6g}", s_new, accepted, rejected)
        if z_new == z and s_new < t:
            raise DomainEscape(
                f"adaptive integrator stalled: a step of {h:.3g} at "
                f"t={s:.6g} left the state unchanged", s, accepted, rejected)
        s, z = s_new, z_new
    return np.array(z), accepted, rejected


def _norm(a) -> float:
    """Euclidean norm of a list of Python floats or a 1-d array, as a sum
    in Python floats: it rounds alike on every CPU, where BLAS's dot, which
    np.linalg.norm calls, may fuse its products."""
    if not isinstance(a, list):
        a = a.tolist()
    return math.sqrt(sum(map(mul, a, a)))


def _integrate(conn: ChartConnection, rhs, z0: np.ndarray, t: float,
               tolerances: ToleranceConfig, controlled: int | None = None
               ) -> np.ndarray:
    # the Dormand-Prince 8(5,3) pair with local error control at the
    # ToleranceConfig ODE tolerances; at their tight defaults it takes fewer,
    # longer steps than a 4(5) pair.  Only the first `controlled` components
    # are error-controlled when it is given; the rest ride along on their
    # steps.  The geodesic, transport and Jacobi equations are autonomous,
    # so rhs takes the state alone
    if not 0.0 <= t < math.inf:
        raise ValueError(
            f"integration time must be finite and non-negative, got {t}")
    x0 = z0[:conn.dim]
    if not conn.in_bounds(x0):
        raise DomainEscape("initial point outside the chart bounds")
    # stages that overflow give an infinite or NaN error estimate, and the
    # step is rejected; the warnings numpy raises on the way, in a
    # connection's own arithmetic, are not errors
    with np.errstate(over="ignore", invalid="ignore"):
        # this evaluation, at the initial state, raises where the connection
        # cannot be evaluated; the interior test, which every accepted state
        # passes too, follows it so that such a point reports the connection's
        # own reason, and both apply to a flow of no time
        z = z0.tolist()
        f0 = rhs(z)
        if conn.interior is not None and not conn.interior(x0):
            raise DomainEscape("initial point outside the chart's interior")
        if t == 0.0:
            return z0.copy()
        # first step: the time over which the initial derivative moves the
        # state by its own size, capped at the whole interval; scipy's default
        # sizes it from the tolerance alone, which costs a short flow three
        # steps instead of one, while the bound keeps a fast flow's first
        # stages finite
        fnorm = _norm(f0)
        h0 = min(t, _norm(z) / fnorm) if fnorm else t
        if not h0 > 0.0:
            raise DomainEscape(
                f"initial derivative of norm {fnorm:.3g} overflows the state")
        return _dop853(conn, rhs, z0, f0, t, h0, tolerances.ode_rel_tol,
                       tolerances.ode_abs_tol, controlled or z0.size)[0]


def geodesic_flow(conn: ChartConnection, x, v, t: float = 1.0,
                  tolerances: ToleranceConfig | None = None):
    """Integrate the geodesic equation x'' + G(x)(x', x') = 0.

    Returns the (position, velocity) pair at time t.
    """
    tolerances = tolerances or _DEFAULT_TOLERANCES
    d = conn.dim
    x, v = _chart_vectors(d, x, v)
    z = _integrate(conn, _flow_rhs(conn), np.concatenate([x, v]), t,
                   tolerances)
    return z[:d], z[d:]


def _chart_vectors(d: int, *vectors) -> list[np.ndarray]:
    """The vectors as float arrays, each of shape (d,); the right-hand
    sides slice the state by d and would not notice a wrong length."""
    out = [np.asarray(a, dtype=float) for a in vectors]
    for a in out:
        if a.shape != (d,):
            raise ValueError(
                f"expected a chart vector of shape ({d},), got {a.shape}")
    return out


def _flow_rhs(conn: ChartConnection):
    """Right-hand side of the geodesic equation carrying vectors by parallel
    transport: the state (x, v, w_1 .. w_k) maps to (v, -G(x)(v, v),
    -G(x)(v, w_1) .. -G(x)(v, w_k)).  A geodesic is the transport of no
    vector.  The state and its derivative are lists of Python floats."""
    d = conn.dim
    if conn.grad_f is None:
        def rhs(z):
            z = np.array(z)
            vel = z[d:2 * d]
            # one connection evaluation for the velocity and every vector:
            # gv[k, i] = G^k_ij v^j, the symbols being symmetric, times each
            # row in a stacked product, which rounds each as gv @ row does
            gv = conn.gamma(z[:d]) @ vel
            acc = gv @ z[d:].reshape(-1, d, 1)
            return np.concatenate([vel, -acc.ravel()]).tolist()
        return rhs

    def rhs(z):
        # the conformal symbols give G(v, w) = (f.v) w + (f.w) v - (v.w) f
        # for f = grad_f(x); in Python floats, as numpy's per-call cost
        # exceeds the arithmetic
        f = conn._gradient(z[:d])
        vs = z[d:2 * d]
        fv, vv = sum(map(mul, f, vs)), sum(map(mul, vs, vs))
        out = vs + _conformal_acceleration(f, vs, fv, vv)
        for j in range(2 * d, len(z), d):
            w = z[j:j + d]
            fw, vw = sum(map(mul, f, w)), sum(map(mul, vs, w))
            out += [-(fv * wi + fw * vi - vw * fi)
                    for wi, vi, fi in zip(w, vs, f)]
        return out
    return rhs


def _conformal_acceleration(f: list, vs: list, fv: float, vv: float) -> list:
    """-G(v, v) = -((f.v) v + (f.v) v - (v.v) f) on a conformal chart, from
    the gradient f of its conformal exponent, fv = f.v and vv = v.v, in
    Python floats."""
    return [-(fv * vi + fv * vi - vv * fi) for vi, fi in zip(vs, f)]


def _jacobi_flow(conn: ChartConnection, x: np.ndarray, v: np.ndarray,
                 tolerances: ToleranceConfig):
    """Endpoint of the geodesic from x with velocity v at t = 1, and the
    Jacobian of that endpoint in v, on a 2-d connection with ``hess_f``.

    On a surface the Jacobi field with J(0) = 0, J'(0) = v is t x'(t),
    and with J'(0) = Rv, R the rotation by 90 degrees (a conformal metric's
    own), it is b(t) R x'(t), where b'' + K |x'|_g^2 b = 0, b(0) = 0,
    b'(0) = 1 (do Carmo, Riemannian Geometry, ch. 5).  For g = exp(2 f)
    euclidean, K |x'|_g^2 = -(f_00 + f_11) |v|^2, so one flow carries the
    state (x, v, b, b'), and with v_1 = x'(1) the Jacobian is
    (v_1 v^T + b(1) R v_1 (R v)^T) / |v|^2, the identity at v = 0.  Only
    the geodesic is error-controlled, by a plain flow's error norm, so the
    flow takes about a plain flow's steps, though not the same ones: its
    start rule sees the whole state.  The Jacobian comes out accurate to a
    few 1e-12 at the default tolerances; log_shooting runs the flow at the
    looser ``_seed_tolerances``.
    """
    def rhs(z):
        # on the state (x, v, b, b'), in Python floats as in _flow_rhs; the
        # geodesic's rows are a plain flow's, bit for bit
        pos, vs = z[:2], z[2:4]
        f, hf = conn._gradient(pos), conn._hessian(pos)
        fv, vv = sum(map(mul, f, vs)), sum(map(mul, vs, vs))
        return (vs + _conformal_acceleration(f, vs, fv, vv)
                + [z[5], (hf[0][0] + hf[1][1]) * vv * z[4]])

    z = _integrate(conn, rhs, np.array([*x.tolist(), *v.tolist(), 0.0, 1.0]),
                   1.0, tolerances, 4)
    # over u = v / |v| and w = v_1 / |v|, so that a tiny v neither underflows
    # nor divides by zero: w u^T + b(1) Rw (Ru)^T, with R(a, c) = (-c, a)
    n = math.hypot(*v.tolist())
    if n == 0.0:
        return z[:2], np.eye(2)
    (a, c), (p, q), b = (v / n).tolist(), (z[2:4] / n).tolist(), float(z[4])
    return z[:2], np.array([[p * a + b * q * c, p * c - b * q * a],
                            [q * a - b * p * c, q * c + b * p * a]])


def _shooting_start(conn: ChartConnection, x: np.ndarray, d: np.ndarray):
    """First shooting velocity toward x + d: the third-order inverse of the
    geodesic's Taylor series x + v - G(v, v)/2 + ..., which is
    d + G(x + d/3)(d, d)/2 + G(x)(d, G(x)(d, d))/6, or d itself where that
    moves d by more than a quarter of its length and the series is not to
    be trusted."""
    # each term is read off the flow's right-hand side at (x, v, w..), which
    # carries -G(x)(v, w) for each w, -G(x)(v, v) first
    rhs, n = _flow_rhs(conn), conn.dim
    try:
        gdd = -np.array(rhs([*x.tolist(), *d.tolist()]))[n:]
        g_third = -np.array(rhs([*(x + d / 3.0).tolist(), *d.tolist()]))[n:]
        g_gdd = -np.array(rhs([*x.tolist(), *d.tolist(),
                                *gdd.tolist()]))[2 * n:]
        v = d + 0.5 * g_third + g_gdd / 6.0
    except (DomainEscape, NonFinite):
        # x + d/3 lies outside the connection's domain
        return d
    # written so that a NaN start falls back too
    return v if _norm(v - d) <= 0.25 * _norm(d) else d


def _seed_tolerances(tolerances: ToleranceConfig) -> ToleranceConfig:
    """The tolerances of the Jacobi flow that seeds a shooting solve: its
    relative tolerance is the solve's to the power 3/4, 1e-9 at the default
    1e-12, and never tighter than the solve's.  The seed's endpoint and
    Jacobian only start the quasi-Newton iteration, which decides
    convergence on the flows ``exp`` integrates at the solve's own
    tolerance, so a seed more accurate than its first step buys nothing
    (inexact Newton: Dembo, Eisenstat & Steihaug, 1982)."""
    rtol = tolerances.ode_rel_tol
    return replace(tolerances, ode_rel_tol=max(rtol, rtol ** 0.75))


def log_shooting(conn: ChartConnection, x, y,
                 tolerances: ToleranceConfig | None = None):
    """Solve exp_x(v) = y for v by a quasi-Newton solve on the endpoint residual.

    On a 2-d connection with ``hess_f`` the initial guess is the
    third-order inverse of the geodesic's Taylor series at x, or the chart
    difference y - x where that series is far off, and the first trial
    integrates the surface's scalar Jacobi equation with the geodesic
    (``_jacobi_flow``), which gives the Jacobian of the endpoint map at the
    guess.  That trial only seeds the solve, so it runs at
    ``_seed_tolerances``, a relative tolerance of 1e-9 at the default
    1e-12; every later trial, and the flow that confirms a guess, is the
    plain flow ``exp`` integrates at ``ode_rel_tol``, so a returned v meets
    the target on ``exp``'s map.  On every other chart, one with only
    symbols or a conformal one of another dimension, the guess is the
    chart difference, the first trial a plain geodesic integration, and the
    Jacobian starts from its first-order model I - G(x)(v, .).  Either guess
    converges inside convex normal neighborhoods.  Every later trial is one
    geodesic integration, after which the Jacobian takes a rank-one "good
    Broyden" update; the line search retries (up to four times) to make the
    residual decrease: a rejected trial updates the Jacobian too, and the
    next trial takes half of the step solved from the updated one.  Once
    the residual is at most max(10 ode_rel_tol, 1e-11), one more step is
    tried and kept only if it lowers the residual, unless the residual is
    already at most 8 eps max(1, |y|_inf), the round-off of y.  A guess
    that already meets the target on the plain integration ``exp`` makes
    returns at once, with 0 iterations.  All steps count against
    ``max_shooting_iters``.  Returns (v, iterations); raises NoConvergence
    with the best residual attached otherwise, also when a trial
    integration fails, and DomainEscape when x or y is outside the chart's
    box or interior.
    """
    tolerances = tolerances or _DEFAULT_TOLERANCES
    max_iters = tolerances.max_shooting_iters
    # the endpoint carries integration error of order ode_rel_tol, so the
    # residual target sits a decade above it, and never below 1e-11
    residual_tol = max(10.0 * tolerances.ode_rel_tol, 1e-11)
    x, y = _chart_vectors(conn.dim, x, y)
    if not _inside(conn, x):
        # no trial can start there, so this is not a failed solve
        raise DomainEscape("base point of the log outside the chart's domain")
    if not _inside(conn, y):
        # no trial can end there, since every accepted state is inside
        raise DomainEscape(f"target {y} of the log outside the chart's domain")

    def failed(rnorm, err):
        # a trial velocity that stalls the integrator or escapes the chart is
        # a shooting failure, not silent garbage
        return NoConvergence(
            f"shooting trial failed at residual {rnorm:.3e}: {err}",
            residual=rnorm)

    def endpoint(vel, rnorm, escapes=()):
        # unless the caller takes an escape (None) as a rejected trial
        try:
            return geodesic_flow(conn, x, vel, 1.0, tolerances)[0]
        except escapes:
            return None
        except (MaxStepsExceeded, DomainEscape) as err:
            raise failed(rnorm, err) from err

    # before the first trial the solve holds v = 0, whose endpoint is x
    rnorm = _norm(y - x)
    jac = None
    if conn.hess_f is None or conn.dim != 2:
        v = y - x
        end = endpoint(v, rnorm)
    else:
        v = _shooting_start(conn, x, y - x)
        try:
            end, jac = _jacobi_flow(conn, x, v, _seed_tolerances(tolerances))
        except (MaxStepsExceeded, DomainEscape) as err:
            raise failed(rnorm, err) from err
        if _norm(end - y) <= residual_tol:
            # a guess is returned only on the endpoint exp gives it, and the
            # augmented flow's steps are not exp's
            end = endpoint(v, rnorm)
    res = end - y
    rnorm = _norm(res)
    if rnorm <= residual_tol:
        return v, 0
    if jac is None:
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
        alpha = 1.0
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
            r_try = _norm(res_try)
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
    # digits short of Newton's last step; one more step recovers them,
    # unless the residual is already at the round-off of y's coordinates
    if (rnorm > _ROUND_OFF * max(1.0, float(np.abs(y).max()))
            and it < max_iters):
        it += 1
        try:
            v_try = v - np.linalg.solve(jac, res)
            r_try = _norm(endpoint(v_try, rnorm) - y)
        except (np.linalg.LinAlgError, NoConvergence):
            r_try = math.inf
        if r_try < rnorm:
            v = v_try
    return v, it


def transport_ode(conn: ChartConnection, u, x, v, t: float = 1.0,
                  tolerances: ToleranceConfig | None = None):
    """Transport u along the geodesic from x with initial velocity v:
    u' + G(x)(x', u) = 0.

    The transport is integrated jointly with the geodesic so the curve and
    the vector stay consistent.  Returns (u_t, position_t, velocity_t).
    """
    tolerances = tolerances or _DEFAULT_TOLERANCES
    d = conn.dim
    u, x, v = _chart_vectors(d, u, x, v)
    z = _integrate(conn, _flow_rhs(conn), np.concatenate([x, v, u]), t,
                   tolerances)
    return z[2 * d:], z[:d], z[d:2 * d]


# ---------------------------------------------------------------------------
# Curvature from finite differences
# ---------------------------------------------------------------------------

def _central_differences(f, x: np.ndarray, h: float) -> np.ndarray:
    """D[m] = (f(x + h e_m) - f(x - h e_m)) / 2h for each axis m of x."""
    return np.array([(np.asarray(f(x + dx), dtype=float)
                      - np.asarray(f(x - dx), dtype=float)) / (2.0 * h)
                     for dx in h * np.eye(x.size)])


def curvature_components(conn: ChartConnection, x) -> np.ndarray:
    """Curvature tensor R[l, i, j, k] = R^l_ijk at chart point x.

    R^l_ijk = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik, with the
    Christoffel derivatives taken by central differences.  The result is
    antisymmetrized in (i, j), which the exact tensor satisfies, so the skew
    symmetry holds to the last bit.
    """
    x = np.asarray(x, dtype=float)
    h = _FD_STEP * max(1.0, float(np.max(np.abs(x))))
    if not all(conn.in_bounds(x + dx) and conn.in_bounds(x - dx)
               for dx in h * np.eye(conn.dim)):
        raise DomainEscape("finite-difference stencil left the chart bounds")
    # dg[m, k, i, j] = d_m G^k_ij
    dg = _central_differences(conn.gamma, x, h)
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
    dr = _central_differences(lambda y: curvature_components(conn, y), x, h)
    g = conn.gamma(x)
    r = curvature_components(conn, x)
    dr += np.einsum("lma,aijk->mlijk", g, r)
    dr -= np.einsum("ami,lajk->mlijk", g, r)
    dr -= np.einsum("amj,liak->mlijk", g, r)
    dr -= np.einsum("amk,lija->mlijk", g, r)
    return dr


# the last tensor a ChartSpace asked for: the error predictor contracts it
# twice at one point, and a sweep at one anchor asks in every op.  The key's
# connection hashes by identity, and its id is not reused while held here
@functools.lru_cache(maxsize=1)
def _cached_nabla_curvature(conn: ChartConnection, key: bytes) -> np.ndarray:
    return nabla_curvature_components(conn, np.frombuffer(key))


# ---------------------------------------------------------------------------
# Christoffel builders
# ---------------------------------------------------------------------------

def christoffels_from_metric(metric: Callable[[np.ndarray], np.ndarray]):
    """Levi-Civita symbols of a chart metric, by central differences.

    G^k_ij = 1/2 g^kl (d_i g_lj + d_j g_li - d_l g_ij).
    """

    def christoffel(x):
        x = np.asarray(x, dtype=float)
        h = _FD_STEP * max(1.0, float(np.max(np.abs(x))))
        dg = _central_differences(metric, x, h)
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
    ODE at the configured tolerances, and curvature callbacks contract the
    finite-difference tensors.  A generic chart is not locally symmetric and
    its injectivity radius is unknown (NaN); a subclass that knows better
    sets them after construction.
    """

    def __init__(self, name: str, connection: ChartConnection,
                 metric: Callable[[np.ndarray], np.ndarray] | None = None,
                 tolerances: ToleranceConfig | None = None,
                 anchor=None):
        super().__init__(tolerances)
        self.name = name
        self.conn = connection
        self.dim = connection.dim
        self.ambient_dim = connection.dim
        self.metric = metric
        self.has_metric = metric is not None
        self.injectivity_radius = math.nan  # unknown for a generic chart
        #: canonical interior base point used by experiment sweeps
        self.anchor = (np.zeros(self.dim) if anchor is None
                       else np.asarray(anchor, dtype=float))

    # -- kernels --------------------------------------------------------------

    def _exp(self, x, v):
        return geodesic_flow(self.conn, x, v, 1.0, self.tolerances)[0]

    def _log(self, x, y):
        return log_shooting(self.conn, x, y, self.tolerances)[0]

    def log_stats(self, p: Point, q: Point):
        self._check_point(p)
        self._check_point(q)
        if np.array_equal(p.coords, q.coords):
            return TangentVector(p, np.zeros(self.ambient_dim)), 0
        v, iters = log_shooting(self.conn, p.coords, q.coords, self.tolerances)
        return TangentVector(p, v), iters

    def _exp_transport(self, x, u, v):
        # one transport ODE carries the geodesic and the vector together
        u_t, y, _ = transport_ode(self.conn, u, x, v, 1.0, self.tolerances)
        return y, u_t

    def _transport(self, x, u, y):
        v = log_shooting(self.conn, x, y, self.tolerances)[0]
        return self._exp_transport(x, u, v)[1]

    def _curvature(self, x, u, v, w):
        r = curvature_components(self.conn, x)
        return np.einsum("lijk,i,j,k->l", r, u, v, w)

    def _nabla_curvature(self, x, direction, u, v, w):
        dr = _cached_nabla_curvature(self.conn, x.tobytes())
        return np.einsum("mlijk,m,i,j,k->l", dr, direction, u, v, w)

    def _inner(self, x, u, v):
        return float(u @ np.asarray(self.metric(x), dtype=float) @ v)

    def _tangent_basis(self, x):
        if self.metric is None:
            return np.eye(self.dim)
        g = np.asarray(self.metric(x), dtype=float)
        w, vecs = np.linalg.eigh(g)
        return vecs @ np.diag(1.0 / np.sqrt(w)) @ vecs.T

    # -- helpers ---------------------------------------------------------------

    def membership_residual(self, p: Point) -> float:
        return 0.0 if _inside(self.conn, p.coords) else math.inf

    def random_point(self, rng: np.random.Generator) -> Point:
        chart = rng.uniform(-0.5, 0.5, self.dim)
        return Point(chart, self.name)

    def anchor_point(self) -> Point:
        return Point(self.anchor.copy(), self.name)
