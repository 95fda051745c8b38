"""The chart engine's step loop and right-hand sides written out by hand,
as loops and comprehensions over lists of Python floats, and on a chart
with only symbols as numpy's contraction: the reference that the
straight-line kernels ``chart`` generates per shape must match bit for bit
(``test_chart_kernels.py``): the step attempts, whose stages on a
conformal chart write the derivative out, and the right-hand sides.
``dop853`` takes the arguments of ``chart._dop853``, so a test can patch it
in, and runs on the kernel's right-hand side; ``symbol_rhs`` and
``conformal_rhs`` are the right-hand sides a test binds into that kernel in
place of the generated ones."""

import math
from operator import mul

import numpy as np

from geoladders import DomainEscape, MaxStepsExceeded, NonFinite, chart
from geoladders.chart import (
    _B,
    _E3,
    _E5,
    _ERROR_EXPONENT,
    _MAX_FACTOR,
    _MIN_FACTOR,
    _SAFETY,
    _STAGE_ROWS,
)


def dop853(conn, kernel, z, f, t, h_abs, rtol, atol):
    """chart._dop853 as a loop whose stages are comprehensions over the
    state's components, each evaluating the kernel's right-hand side, and
    whose error norm is a loop over the controlled ones."""
    rhs, controlled = kernel.rhs, kernel.controlled
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
    # read when called, so that a test can lower the budget
    max_steps = chart._MAX_STEPS
    d = conn.dim
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
            if accepted + rejected == max_steps:
                raise MaxStepsExceeded(
                    f"adaptive integrator exceeded its budget of {max_steps} "
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
    return z, accepted, rejected


def _gradient(conn, x):
    """grad_f(x) at the chart point x, a list of Python floats, checked."""
    f = conn.grad_f(x)
    if len(f) != conn.dim:
        raise ValueError(
            f"grad_f returned {len(f)} numbers, expected {conn.dim}")
    if not all(map(math.isfinite, f)):
        raise NonFinite(f"conformal factor gradient is not finite at {x}")
    return f


def _conformal_acceleration(f, vs, fv, vv):
    """-G(v, v) = -((f.v) v + (f.v) v - (v.v) f)."""
    return [-(fv * vi + fv * vi - vv * fi) for vi, fi in zip(vs, f)]


def symbol_rhs(conn):
    """The right-hand side on a chart with only symbols, for a state
    carrying any number of vectors, (x, v, w_1 .. w_k) mapping to (v,
    -G(x)(v, v), -G(x)(v, w_1) ..): one connection evaluation for the
    velocity and every vector, gv[k, i] = G^k_ij v^j, the symbols being
    symmetric, times each row in a stacked product, which rounds each as
    gv @ row does."""
    d = conn.dim

    def rhs(z):
        z = np.array(z)
        vel = z[d:2 * d]
        gv = conn.gamma(z[:d]) @ vel
        acc = gv @ z[d:].reshape(-1, d, 1)
        return np.concatenate([vel, -acc.ravel()]).tolist()
    return rhs


def conformal_rhs(conn, jacobi=False):
    """The right-hand side on a conformal chart with dot products summed by
    sum(), for a state carrying any number of vectors or, with ``jacobi``,
    the Jacobi seed's state."""
    d = conn.dim

    def flow_rhs(z):
        f = _gradient(conn, z[:d])
        vs = z[d:2 * d]
        fv, vv = sum(map(mul, f, vs)), sum(map(mul, vs, vs))
        out = vs + _conformal_acceleration(f, vs, fv, vv)
        for j in range(2 * d, len(z), d):
            w = z[j:j + d]
            fw, vw = sum(map(mul, f, w)), sum(map(mul, vs, w))
            out += [-(fv * wi + fw * vi - vw * fi)
                    for wi, vi, fi in zip(w, vs, f)]
        return out

    def jacobi_rhs(z):
        pos, vs = z[:2], z[2:4]
        f, hf = _gradient(conn, pos), conn._hessian(pos)
        fv, vv = sum(map(mul, f, vs)), sum(map(mul, vs, vs))
        return (vs + _conformal_acceleration(f, vs, fv, vv)
                + [z[5], (hf[0][0] + hf[1][1]) * vv * z[4]])

    return jacobi_rhs if jacobi else flow_rhs
