"""Numerical connection engine driven by Christoffel symbols.

Given a chart and a callable producing the symbols G^k_ij at a point, this
module integrates the geodesic equation, inverts it by shooting, solves the
parallel-transport ODE along geodesics, and assembles the curvature tensor
and its covariant derivative from central finite differences, each stencil
held to the chart's domain.  One contraction G(x)(v, w) serves geodesics,
transports and the shooting's first guess.  The ODEs are integrated by the
module's own step loop of the Dormand-Prince 8(5,3) pair, which takes
scipy's DOP853 steps with its coefficients, error norm and step control,
but checks the chart's box, a step budget and that each step moves the
state as it goes, and evaluates the derivative at a step's end only when
the step is accepted and another follows, whose first stage it is.  On a
2-d conformal chart the shooting's first trial carries the surface's scalar
Jacobi equation with the geodesic; it only seeds the quasi-Newton solve, so
it runs at a looser tolerance than the flows that decide convergence.  The
loop holds scipy's tableau as literals, pinned equal to scipy's by a test,
so importing the module does not load scipy.

At the dimensions of these charts numpy's per-call cost exceeds the
arithmetic, and so do loops and comprehensions over the state.  Each ODE's
kernel, its right-hand side and its step attempt, is therefore straight-line
code in Python floats, generated on first use from one source per shape and
registered with linecache under a name that gives the shape, so tracebacks
show its lines.  On a chart with only symbols the right-hand side is
numpy's contraction of them, handed back as a list, and each stage calls
it.  On a conformal chart the right-hand side and each stage write the
derivative out from the same expressions, and call no function but the
factor's callbacks.  From the shooting solve down to the right-hand side
the engine's state is Python floats; numpy remains in the symbols'
contraction, in the shooting's linear solve and in the finite-difference
curvature.  The loop's sums round otherwise than scipy's products, so its
steps are scipy's, accepted and rejected alike, while an endpoint can
differ from scipy's in its last bits.

``ChartSpace`` adapts the engine to the ``ConnectionSpace`` contract so
chart-defined manifolds compose with the ladder schemes and the analysis
tools exactly like the closed-form model manifolds.
"""

from __future__ import annotations

import functools
import linecache
import math
import textwrap
import warnings
from dataclasses import dataclass
from operator import le
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    ConnectionSpace,
    DomainEscape,
    MaxStepsExceeded,
    NoConvergence,
    NonFinite,
    Point,
    ToleranceConfig,
    Unsupported,
    _dot,
    _norm,
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

    Those right-hand sides are straight-line code, one expression per
    component with no loop, comprehension or slice at run time, generated
    with the step attempt of the same ODE from one source per shape
    (``_kernel_code``); the step attempts write the same expressions out
    at each stage, so an integration calls no right-hand side after its
    first derivative.  They keep the operands and order of the hand-written
    loops in ``tests/loop_reference.py``, which a test holds them to bit
    for bit; each dot product sums left to right from 0.0, alike on every
    Python version.  Each ODE's kernel is bound to the connection once, on
    first use, and kept with it.  Only a 2-d connection with both
    callbacks has the Jacobi seed's kernel; log_shooting seeds exactly
    where it has one.

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

    # the engine's ODEs on this connection, each bound once, on first use:
    # a replaced connection binds its own callbacks
    @functools.cached_property
    def _geodesic(self) -> _Kernel:
        """The geodesic equation's kernel."""
        return _kernel(self, 0, False)

    @functools.cached_property
    def _transport(self) -> _Kernel:
        """The kernel of the geodesic carrying one vector."""
        return _kernel(self, 1, False)

    @functools.cached_property
    def _jacobi(self) -> _Kernel | None:
        """The kernel of _jacobi_flow's geodesic and scalar Jacobi field,
        which seeds log_shooting: on a 2-d connection with ``grad_f`` and
        ``hess_f`` alone, None on every other."""
        if (self.dim == 2 and self.grad_f is not None
                and self.hess_f is not None):
            return _kernel(self, 0, True)
        return None


def _inside(conn: ChartConnection, x) -> bool:
    """Whether the chart point x, an array or a list of floats, lies in the
    connection's box and, when it has one, passes its interior test: the
    states an integration accepts."""
    return conn.in_bounds(x) and (conn.interior is None
                                  or conn.interior(np.asarray(x)))


def _weighted(coefficients, stages, i: int) -> str:
    """c_1 * k{s_1}_i + c_2 * k{s_2}_i + ..., left to right, over the
    coefficients that are not zero, each written as its repr."""
    return " + ".join(f"{c!r} * k{s}_{i}"
                      for c, s in zip(coefficients, stages) if c)


def _conformal_derivative(dim: int, vectors: int, jacobi: bool,
                          state: list) -> tuple[list, list]:
    """The derivative on a conformal chart of dimension ``dim`` at the state
    whose components the names ``state`` hold, (x, v, w_1 .. w_vectors) or,
    with ``jacobi``, the (x, v, b, b') of _jacobi_flow: the lines that read
    the factor's callbacks, named ``grad_f`` and ``hessian``, and the dot
    products, and one expression per component.  The conformal symbols give
    G(v, w) = (g.v) w + (g.w) v - (v.w) g for g = grad_f(x), each dot
    product summed left to right from 0.0 as ``core._dot`` sums: sum()
    compensates its rounding from Python 3.12 on, though at dim 2 its value
    is this one on every version."""
    x, v = state[:dim], state[dim:2 * dim]
    ws = [state[(2 + j) * dim:(3 + j) * dim] for j in range(vectors)]
    g = [f"g{i}" for i in range(dim)]

    def dot(a, b):
        return " + ".join(["0.0", *(f"{p} * {q}" for p, q in zip(a, b))])

    lines = [
        f"x = [{', '.join(x)}]",
        "g = grad_f(x)",
        # the same guarantee as gamma: a NaN left unchecked reads as a
        # rejected step, and the integrator shrinks its step until it
        # underflows and reports a domain escape instead of the fault
        f"if len(g) != {dim}:",
        "    raise ValueError(",
        f"        f'grad_f returned {{len(g)}} numbers, expected {dim}')",
        f"{', '.join(g)}, = g",
        f"if not ({' and '.join(f'isfinite({gi})' for gi in g)}):",
        "    raise NonFinite(",
        "        f'conformal factor gradient is not finite at {x}')",
        *["hf = hessian(x)"] * jacobi,
        f"gv = {dot(g, v)}",
        f"vv = {dot(v, v)}"]
    rows = [*v, *(f"-(gv * {vi} + gv * {vi} - vv * {gi})"
                  for vi, gi in zip(v, g))]
    for j, w in enumerate(ws):
        lines += [f"gw{j} = {dot(g, w)}", f"vw{j} = {dot(v, w)}"]
        rows += [f"-(gv * {wi} + gw{j} * {vi} - vw{j} * {gi})"
                 for wi, vi, gi in zip(w, v, g)]
    if jacobi:
        # K |x'|_g^2 b = -(f_00 + f_11) |v|^2 b, as _jacobi_flow derives
        b, db = state[-2:]
        trace = " + ".join(f"hf[{i}][{i}]" for i in range(dim))
        rows += [db, f"({trace}) * vv * {b}"]
    return lines, rows


@functools.cache
def _kernel_code(dim: int, vectors: int, jacobi: bool, conformal: bool):
    """The kernel of one ODE shape as straight-line code, whose
    ``bind(conn)`` binds it to the connection's callbacks and returns the
    _Kernel.  The shape is the geodesic equation on a chart of dimension
    ``dim`` carrying ``vectors`` vectors by parallel transport, (x, v, w_1
    .. w_vectors) mapping to (v, -G(x)(v, v), -G(x)(v, w_1) ..), or with
    ``jacobi`` the 2-d (x, v, b, b') of _jacobi_flow, whose geodesic alone
    is error-controlled.  The step attempt ``stages(z, f, h, rtol, atol,
    more)`` returns the state at the step's end, the step's error norm and
    the derivative the next step starts from, which is f unless the step
    passed the error test and ``more`` steps follow.

    On a chart with only symbols (not ``conformal``) ``rhs`` evaluates
    gamma once for the velocity and every vector, gv[k, i] = G^k_ij v^j,
    the symbols being symmetric, times each row in a stacked product,
    which rounds each as gv @ row does, and each stage calls it; the
    Jacobi shape is a conformal chart's only, since this product would
    take (b, b') for a vector.  On a conformal chart ``rhs`` and each
    stage's derivative are the lines and expressions of
    _conformal_derivative, so the attempt calls no function but the
    factor's callbacks.  The source is registered with linecache under a
    name that gives its shape, so tracebacks, pdb and profilers show its
    lines."""
    n = (2 + vectors) * dim + 2 * jacobi
    controlled = 2 * dim if jacobi else n
    comps, ctrl = range(n), range(controlled)
    state = [f"y{i}" for i in comps]
    ys = ", ".join(state)

    def each(name):
        return ", ".join(name.format(i) for i in comps)

    if conformal:
        lines, rows = _conformal_derivative(dim, vectors, jacobi, state)
        rhs = [f"{ys} = z", *lines, f"return [{', '.join(rows)}]"]
    else:
        rhs = ["z = array(z)", f"vel = z[{dim}:{2 * dim}]",
               f"gv = gamma(z[:{dim}]) @ vel",
               f"acc = gv @ z[{dim}:].reshape(-1, {dim}, 1)",
               "return concatenate([vel, -acc.ravel()]).tolist()"]

    def derivative(stage):
        # the derivative at the state y0 .. into k{stage}_0 .., or with no
        # stage, at the step's end, into the list f
        if not conformal:
            return ([f"y = [{ys}]", f"{each(f'k{stage}_{{}}')} = rhs(y)"]
                    if stage else ["f = rhs(y)"])
        return lines + ([f"k{stage}_{i} = {row}" for i, row in zip(comps, rows)]
                        if stage else [f"f = [{', '.join(rows)}]"])

    body = [f"{each('z{}')} = z", f"{each('k1_{}')} = f", "try:"]
    for stage, row in enumerate(_STAGE_ROWS, 2):
        body += [f"    y{i} = z{i} + h * ({_weighted(row, range(1, stage), i)})"
                 for i in comps]
        body += ["    " + line for line in derivative(stage)]
    body += [f"    y{i} = z{i} + h * ({_weighted(_B, range(1, 13), i)})"
             for i in comps]
    # scipy's error norm: the fifth- and third-order estimates, scaled
    # componentwise by atol + max(|z|, |z_new|) rtol (the larger of the two,
    # or NaN where z_new is), summed squared
    for i in ctrl:
        body += [f"    a, b = abs(z{i}), abs(y{i})",
                 "    s = atol + (a if a > b else b) * rtol",
                 f"    r5_{i} = ({_weighted(_E5, range(1, 14), i)}) / s",
                 f"    r3_{i} = ({_weighted(_E3, range(1, 14), i)}) / s"]
    body += [f"    e{e} = 0.0 + " + " + ".join(f"r{e}_{i} * r{e}_{i}"
                                               for i in ctrl)
             for e in (5, 3)]
    body += [
        # the fifth-order estimate, damped where the third-order one is small
        # against it (Hairer, Norsett & Wanner, II.10)
        f"    error = (h * e5 / sqrt((e5 + 0.01 * e3) * {controlled})"
        " if e5 else 0.0)",
        f"    y = [{ys}]",
        # the derivative at the end of an accepted step is the next step's
        # first stage, which the error estimates weigh by 0
        "    if error < 1.0 and more:",
        *("        " + line for line in derivative(None)),
        # a stage of a too-long step, or the end of one that passed the
        # error test, overflowed or left the connection's domain; symbols
        # that are not finite at a finite state still raise
        "except (DomainEscape, NonFinite) as err:",
        "    if isinstance(err, NonFinite) and "
        + " and ".join(f"isfinite(y{i})" for i in comps) + ":",
        "        raise",
        "    return z, nan, f",
        "return y, error, f"]
    name = (f"<chart {'conformal ' * conformal}kernel dim={dim} "
            + ("jacobi>" if jacobi else f"vectors={vectors}>"))
    callbacks = ("grad_f, hessian = conn.grad_f, conn._hessian" if conformal
                 else "gamma = conn.gamma")
    source = "\n".join([
        "def bind(conn):", "    " + callbacks, "    def rhs(z):",
        textwrap.indent("\n".join(rhs), " " * 8),
        "    def stages(z, f, h, rtol, atol, more):",
        textwrap.indent("\n".join(body), " " * 8),
        f"    return Kernel(rhs, stages, {controlled})"]) + "\n"
    linecache.cache[name] = (len(source), None, source.splitlines(True), name)
    namespace = {"Kernel": _Kernel, "DomainEscape": DomainEscape,
                 "NonFinite": NonFinite, "isfinite": math.isfinite,
                 "sqrt": math.sqrt, "nan": math.nan, "array": np.array,
                 "concatenate": np.concatenate}
    exec(compile(source, name, "exec"), namespace)
    return namespace["bind"]


class _Kernel(NamedTuple):
    """One of the engine's ODEs bound to a connection: its right-hand side,
    from a state, a list of Python floats, to its derivative; its step
    attempt, ``stages(z, f, h, rtol, atol, more)``; and how many leading
    components enter the error norm."""
    rhs: Callable[[list], list]
    attempt: Callable
    controlled: int


def _kernel(conn: ChartConnection, vectors: int, jacobi: bool) -> _Kernel:
    """The geodesic equation carrying ``vectors`` vectors or, with
    ``jacobi``, the 2-d Jacobi seed of _jacobi_flow, bound to ``conn``."""
    return _kernel_code(conn.dim, vectors, jacobi,
                        conn.grad_f is not None)(conn)


def _dop853(conn: ChartConnection, kernel: _Kernel, z: list, f: list,
            t: float, h_abs: float, rtol: float, atol: float
            ) -> tuple[list, int, int]:
    """Integrate z' = rhs(z) from time 0 to t, starting from the derivative
    f = rhs(z) and a first step of h_abs; returns the state at t and the
    numbers of accepted and rejected steps.  The states and derivatives are
    lists of Python floats, from the caller's state to the one returned.
    A step attempt evaluates the derivative at its 11 later stages; an
    accepted step short of t also evaluates it at its end, the next step's
    first stage, which the error estimates weigh by 0, so the last step
    does not.

    The steps are scipy's DOP853 steps: the same stages, the same error norm
    and the same step-size control, without the solver object around them.
    A step attempt is the kernel's straight-line code, which
    ``_kernel_code`` generates once per shape from the tableau's reprs and
    the stage indices alone: one Python-float expression per component and
    stage, summing the earlier stages whose coefficients are not zero left
    to right, as Hairer's dop853.f writes them out.  On a conformal chart
    the attempt also writes out each stage's derivative, so it calls no
    right-hand side.  The generated expressions keep the operands and
    order of the hand-written loop and right-hand sides in
    ``tests/loop_reference.py``, which a test holds them to bit for bit, so
    every state and step count keeps its bits; the
    sums round otherwise than scipy's products, so the endpoint can differ
    from scipy's in its last bits.  Only the kernel's first ``controlled``
    components enter the error norm.  A stage, or the derivative at the end
    of a step that passed the error test, that raises DomainEscape, or
    NonFinite at a non-finite state, makes the step's error NaN, and the
    step is rejected.  Every accepted state must be finite, inside the
    chart's box and, when the connection has one, pass its interior test;
    the DomainEscape raised otherwise names the test that failed.  An
    accepted step short of t that leaves the state unchanged raises
    DomainEscape: the solution has run into the edge of the connection's
    domain, where stages beyond it are rejected and the steps that stay
    before it no longer move the state.  Each error the loop raises
    carries the time it had reached and its step counts.
    """
    attempt, d = kernel.attempt, conn.dim
    # map() stops at the corners' d coordinates, the state's position
    lo, hi = conn._box if conn.chart_bounds is not None else ((), ())
    s, accepted, rejected = 0.0, 0, 0
    while s < t:
        min_step = 10.0 * math.ulp(s)
        if h_abs < min_step:
            h_abs = min_step
        step_rejected = False
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
            # the derivative at the step's start is its first stage
            z_new, error_norm, f = attempt(z, f, h, rtol, atol, s_new < t)
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
        if not (all(map(le, lo, z_new)) and all(map(le, z_new, hi))):
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
    return z, accepted, rejected


def _integrate(conn: ChartConnection, kernel: _Kernel, z: list, t: float,
               rtol: float, atol: float) -> list:
    # the Dormand-Prince 8(5,3) pair with local error control at the
    # relative and absolute tolerances rtol and atol; at the tight
    # ToleranceConfig defaults it takes fewer, longer steps than a 4(5)
    # pair.  The geodesic, transport and Jacobi equations are autonomous,
    # so rhs takes the state alone, a list of Python floats.  The caller
    # has entered _quiet()
    if not 0.0 <= t < math.inf:
        raise ValueError(
            f"integration time must be finite and non-negative, got {t}")
    x0 = z[:conn.dim]
    if not conn.in_bounds(x0):
        raise DomainEscape("initial point outside the chart bounds")
    # this evaluation, at the initial state, raises where the connection
    # cannot be evaluated; the interior test, which every accepted state
    # passes too, follows it so that such a point reports the connection's
    # own reason, and both apply to a flow of no time
    f0 = kernel.rhs(z)
    if conn.interior is not None and not conn.interior(np.array(x0)):
        raise DomainEscape("initial point outside the chart's interior")
    if t == 0.0:
        return z
    # first step: the time over which the initial derivative moves the
    # state by its own size, capped at the whole interval; scipy's default
    # sizes it from the tolerance alone, which costs a short flow three
    # steps instead of one, while the bound keeps a fast flow's first
    # stages finite.  The ratio is min()'s first argument, which it keeps
    # unless the second is smaller: where both norms overflow the ratio is
    # NaN, and it fails the check below as a derivative that overflows
    # against a finite state does, where min(t, nan) would return t
    fnorm = _norm(f0)
    h0 = min(_norm(z) / fnorm, t) if fnorm else t
    if not h0 > 0.0:
        raise DomainEscape(
            f"initial derivative of norm {fnorm:.3g} overflows the state")
    return _dop853(conn, kernel, z, f0, t, h0, rtol, atol)[0]


def _quiet():
    """The numpy error state of a public engine call: stages that overflow
    give an infinite or NaN error estimate, and the step is rejected, so the
    warnings numpy raises on the way, in a connection's own arithmetic, are
    not errors."""
    return np.errstate(over="ignore", invalid="ignore")


def geodesic_flow(conn: ChartConnection, x, v, t: float = 1.0,
                  tolerances: ToleranceConfig | None = None):
    """Integrate the geodesic equation x'' + G(x)(x', x') = 0.

    Returns the (position, velocity) pair at time t.
    """
    d, tol = conn.dim, tolerances or _DEFAULT_TOLERANCES
    with _quiet():
        z = _integrate(conn, conn._geodesic, _chart_state(d, x, v), t,
                       tol.ode_rel_tol, tol.ode_abs_tol)
    return np.array(z[:d]), np.array(z[d:])


def _chart_state(d: int, *vectors) -> list:
    """The vectors, each of shape (d,), as one list of Python floats; the
    right-hand sides slice the state by d and would not notice a wrong
    length."""
    z = []
    for a in vectors:
        a = np.asarray(a, dtype=float)
        if a.shape != (d,):
            raise ValueError(
                f"expected a chart vector of shape ({d},), got {a.shape}")
        z += a.tolist()
    return z


def _jacobi_flow(conn: ChartConnection, x, v, rtol: float, atol: float):
    """Endpoint of the geodesic from x with velocity v at t = 1, and the
    Jacobian of that endpoint in v, on a 2-d conformal connection with
    ``hess_f``: a list of Python floats and the Jacobian's rows as lists of
    them.

    On a surface the Jacobi field with J(0) = 0, J'(0) = v is t x'(t),
    and with J'(0) = Rv, R the rotation by 90 degrees (a conformal metric's
    own), it is b(t) R x'(t), where b'' + K |x'|_g^2 b = 0, b(0) = 0,
    b'(0) = 1 (do Carmo, Riemannian Geometry, ch. 5).  For g = exp(2 f)
    euclidean, K |x'|_g^2 = -(f_00 + f_11) |v|^2, so one flow carries the
    state (x, v, b, b'), and with v_1 = x'(1) the Jacobian is
    (v_1 v^T + b(1) R v_1 (R v)^T) / |v|^2, the identity at v = 0.  Only
    the geodesic is error-controlled, at the relative and absolute
    tolerances rtol and atol, by a plain flow's error norm, so the flow
    takes about a plain flow's steps, though not the same ones: its start
    rule sees the whole state.  The Jacobian comes out accurate to a few
    1e-12 at the default tolerances; log_shooting runs the flow at a looser
    relative tolerance, 1e-9 at the default 1e-12.
    """
    # the geodesic's rows are a plain flow's, bit for bit
    z0 = [*map(float, x), *map(float, v), 0.0, 1.0]
    z = _integrate(conn, conn._jacobi, z0, 1.0, rtol, atol)
    # over u = v / |v| and w = v_1 / |v|, so that a tiny v neither underflows
    # nor divides by zero: w u^T + b(1) Rw (Ru)^T, with R(a, c) = (-c, a)
    n = math.hypot(z0[2], z0[3])
    if n == 0.0:
        return z[:2], [[1.0, 0.0], [0.0, 1.0]]
    a, c, p, q, b = z0[2] / n, z0[3] / n, z[2] / n, z[3] / n, z[4]
    return z[:2], [[p * a + b * q * c, p * c - b * q * a],
                   [q * a - b * p * c, q * c + b * p * a]]


def _shooting_start(conn: ChartConnection, x, d):
    """First shooting velocity toward x + d: the third-order inverse of the
    geodesic's Taylor series x + v - G(v, v)/2 + ..., which is
    d + G(x + d/3)(d, d)/2 + G(x)(d, G(x)(d, d))/6, or d itself where that
    moves d by more than a quarter of its length and the series is not to
    be trusted.  x and d are lists of Python floats, and so is the
    velocity."""
    # each term is read off the flow's right-hand side at (x, v, w..), which
    # carries -G(x)(v, w) for each w, -G(x)(v, v) first
    geodesic, carried, n = conn._geodesic.rhs, conn._transport.rhs, conn.dim
    try:
        gdd = [-c for c in geodesic([*x, *d])[n:]]
        g_third = [-c for c in geodesic(
            [*(a + b / 3.0 for a, b in zip(x, d)), *d])[n:]]
        g_gdd = [-c for c in carried([*x, *d, *gdd])[2 * n:]]
        v = [a + 0.5 * b + c / 6.0 for a, b, c in zip(d, g_third, g_gdd)]
    except (DomainEscape, NonFinite):
        # x + d/3 lies outside the connection's domain
        return d
    # written so that a NaN start falls back too
    return (v if _norm([a - b for a, b in zip(v, d)]) <= 0.25 * _norm(d)
            else d)


def log_shooting(conn: ChartConnection, x, y,
                 tolerances: ToleranceConfig | None = None):
    """Solve exp_x(v) = y for v by a quasi-Newton solve on the endpoint residual.

    On a 2-d conformal connection with ``hess_f`` the initial guess is the
    third-order inverse of the geodesic's Taylor series at x, or the chart
    difference y - x where that series is far off, and the first trial
    integrates the surface's scalar Jacobi equation with the geodesic
    (``_jacobi_flow``), which gives the Jacobian of the endpoint map at the
    guess.  That trial only seeds the solve, so it runs at a relative
    tolerance of ode_rel_tol ** 0.75, 1e-9 at the default 1e-12, never
    tighter than ode_rel_tol; every later trial, and the flow that confirms
    a guess, is the plain flow ``exp`` integrates at ``ode_rel_tol``, so a
    returned v meets the target on ``exp``'s map.  On every other chart, one
    with only symbols, without ``hess_f`` or of another dimension, the guess
    is the chart difference, the first trial a plain geodesic integration,
    and the Jacobian starts from its first-order model I - G(x)(v, .).
    Either guess converges inside convex normal neighborhoods.  Every later
    trial is one geodesic integration, after which the Jacobian takes a
    rank-one "good Broyden" update; the line search retries (up to four times) to make the
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

    The solve holds v, the residuals and the Jacobian with its updates in
    Python floats, each operation that of the numpy expression it stands
    for; only the linear solve is numpy's, LAPACK's LU.  Every trial is a
    call of the module's ``geodesic_flow``.
    """
    tolerances = tolerances or _DEFAULT_TOLERANCES
    d = conn.dim
    z = _chart_state(d, x, y)
    x, y = z[:d], z[d:]
    if not _inside(conn, x):
        # no trial can start there, so this is not a failed solve
        raise DomainEscape("base point of the log outside the chart's domain")
    if not _inside(conn, y):
        # no trial can end there, since every accepted state is inside
        raise DomainEscape(
            f"target {np.array(y)} of the log outside the chart's domain")
    with _quiet():
        return _shoot(conn, x, y, tolerances)


def _shoot(conn: ChartConnection, x: list, y: list,
           tolerances: ToleranceConfig):
    """log_shooting's solve from x to y, both inside the chart's domain."""
    max_iters, rtol = tolerances.max_shooting_iters, tolerances.ode_rel_tol
    # the endpoint carries integration error of order ode_rel_tol, so the
    # residual target sits a decade above it, and never below 1e-11
    residual_tol = max(10.0 * rtol, 1e-11)

    def failed(rnorm, err):
        # a trial velocity that stalls the integrator or escapes the chart is
        # a shooting failure, not silent garbage
        return NoConvergence(
            f"shooting trial failed at residual {rnorm:.3e}: {err}",
            residual=rnorm)

    def residual(vel, rnorm, escapes=()):
        # end - y at the endpoint of the trial vel, unless the caller takes
        # an escape (None) as a rejected trial
        try:
            end = geodesic_flow(conn, x, vel, 1.0, tolerances)[0].tolist()
        except escapes:
            return None
        except (MaxStepsExceeded, DomainEscape) as err:
            raise failed(rnorm, err) from err
        return [a - b for a, b in zip(end, y)]

    # before the first trial the solve holds v = 0, whose endpoint is x
    v = [b - a for a, b in zip(x, y)]
    rnorm = _norm(v)
    jac = None
    if conn._jacobi is None:
        res = residual(v, rnorm)
    else:
        v = _shooting_start(conn, x, v)
        try:
            # the seed's endpoint and Jacobian only start the quasi-Newton
            # iteration, which decides convergence on the flows exp
            # integrates at rtol, so a seed more accurate than its first
            # step buys nothing (inexact Newton: Dembo, Eisenstat &
            # Steihaug, 1982): rtol ** 0.75, 1e-9 at the default 1e-12
            end, jac = _jacobi_flow(conn, x, v, max(rtol, rtol ** 0.75),
                                    tolerances.ode_abs_tol)
        except (MaxStepsExceeded, DomainEscape) as err:
            raise failed(rnorm, err) from err
        res = [a - b for a, b in zip(end, y)]
        if _norm(res) <= residual_tol:
            # a guess is returned only on the endpoint exp gives it, and the
            # augmented flow's steps are not exp's
            res = residual(v, rnorm)
    rnorm = _norm(res)
    if rnorm <= residual_tol:
        return np.array(v), 0
    if jac is None:
        # derivative in v of the first-order model x + v - G(x)(v, v) / 2
        jac = (np.eye(conn.dim)
               - np.array(v) @ conn.gamma(np.array(x))).tolist()
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
                step = np.linalg.solve(jac, res).tolist()
            except np.linalg.LinAlgError:
                raise NoConvergence("singular shooting Jacobian",
                                    residual=rnorm)
            dv = [-alpha * c for c in step]
            v_try = [a + b for a, b in zip(v, dv)]
            res_try = residual(v_try, rnorm, DomainEscape)
            if res_try is None:
                # the trial left the chart: no endpoint to update jac with,
                # but a shorter step may stay inside
                alpha *= 0.5
                continue
            r_try = _norm(res_try)
            # the least change to jac that maps dv to the observed residual
            # change; a rejected trial informs jac too, so the next trial
            # solves again instead of halving a step along a poor direction;
            # its products in Python floats, which round alike on every CPU
            dd = _dot(dv, dv)
            change = [a - b - _dot(row, dv)
                      for a, b, row in zip(res_try, res, jac)]
            jac = [[j + c * b / dd for j, b in zip(row, dv)]
                   for row, c in zip(jac, change)]
            if r_try < rnorm:
                break
            alpha *= 0.5
        else:
            raise NoConvergence(
                f"shooting line search found no decrease at iteration {it} "
                f"(residual {rnorm:.3e})",
                residual=rnorm,
            )
        v, res, rnorm = v_try, res_try, r_try
    # Broyden converges superlinearly, not quadratically, so it stops a few
    # digits short of Newton's last step; one more step recovers them,
    # unless the residual is already at the round-off of y's coordinates
    if rnorm > _ROUND_OFF * max(1.0, *map(abs, y)) and it < max_iters:
        it += 1
        try:
            v_try = [a - b for a, b in zip(
                v, np.linalg.solve(jac, res).tolist())]
            r_try = _norm(residual(v_try, rnorm))
        except (np.linalg.LinAlgError, NoConvergence):
            r_try = math.inf
        if r_try < rnorm:
            v = v_try
    return np.array(v), it


def transport_ode(conn: ChartConnection, u, x, v, t: float = 1.0,
                  tolerances: ToleranceConfig | None = None):
    """Transport u along the geodesic from x with initial velocity v:
    u' + G(x)(x', u) = 0.

    The transport is integrated jointly with the geodesic so the curve and
    the vector stay consistent.  Returns (u_t, position_t, velocity_t).
    """
    d, tol = conn.dim, tolerances or _DEFAULT_TOLERANCES
    with _quiet():
        z = _integrate(conn, conn._transport, _chart_state(d, x, v, u), t,
                       tol.ode_rel_tol, tol.ode_abs_tol)
    return np.array(z[2 * d:]), np.array(z[:d]), np.array(z[d:2 * d])


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
    symmetry holds to the last bit.  x and every point of its stencil must
    lie in the chart's box and pass its interior test, as the states of an
    integration do; DomainEscape otherwise.
    """
    x = np.asarray(x, dtype=float)
    h = _FD_STEP * max(1.0, float(np.max(np.abs(x))))
    steps = h * np.eye(conn.dim)
    if not all(_inside(conn, y) for y in (x, *(x + steps), *(x - steps))):
        raise DomainEscape(
            f"finite-difference stencil at {x} left the chart's domain")
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
    inner stencil.  Each R it differences holds its stencil to the chart's
    domain, so a point of the outer stencil outside it raises DomainEscape.
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
    sets them after construction.  The anchor, the origin when not given,
    must be a finite point of the connection's domain (ValueError).
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
        # every op of a sweep starts there, and would fail there instead
        if (self.anchor.shape != (self.dim,)
                or not np.isfinite(self.anchor).all()
                or not _inside(connection, self.anchor)):
            raise ValueError(f"anchor {self.anchor} is not a finite point "
                             f"of the {self.dim}-d chart's domain")

    # -- kernels --------------------------------------------------------------

    def _exp(self, x, v):
        return geodesic_flow(self.conn, x, v, 1.0, self.tolerances)[0]

    def _log(self, x, y):
        return log_shooting(self.conn, x, y, self.tolerances)[0]

    def _exp_transport(self, x, u, v):
        # one transport ODE carries the geodesic and the vector together
        u_t, y, _ = transport_ode(self.conn, u, x, v, 1.0, self.tolerances)
        return y, u_t

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
        # uniform on the box [-0.5, 0.5]^d, redrawn until inside the domain
        for _ in range(1000):
            chart = rng.uniform(-0.5, 0.5, self.dim)
            if _inside(self.conn, chart):
                return Point(chart, self.name)
        raise Unsupported(f"{self.name}: 1000 draws from [-0.5, 0.5]^"
                          f"{self.dim} all fell outside the chart's domain")

    def anchor_point(self) -> Point:
        return Point(self.anchor.copy(), self.name)
