"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v`; the per-criterion lines also
appear in the terminal summary.
"""

import time

import numpy as np

from geoladders import (
    convergence_order,
    generic_directions,
    ladder_step,
    make_space,
    one_step_error_sweep,
    pole_error_measured,
    pole_error_predicted,
)
from geoladders.analysis import (POLE_SCHEMES, bch_residual_sweep,
                                 exactness_sweep)

from conftest import ACCEPTANCE_LINES, FLEET_NAMES
from helpers import (
    bianchi_residual,
    curvature_skew_residual,
    midpoint_residual,
    round_trip_residual,
    symmetry_composition_residual,
    symmetry_involution_residual,
    transport_isometry_residual,
    transport_linearity_residual,
)


def _record(ok, label, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_1_symmetric_space_exactness(fleet):
    start = time.perf_counter()
    worst_overall, excluded = 0.0, 0
    details = []
    for name in ("sphere-2", "hyperbolic-2", "spd-3", "so3"):
        worst, skipped = exactness_sweep(fleet[name], POLE_SCHEMES, 100,
                                         np.random.default_rng(1001))
        peak = max(worst.values())
        worst_overall = max(worst_overall, peak)
        excluded += skipped
        details.append(f"{name}={peak:.2e}")
    elapsed = time.perf_counter() - start
    _record(worst_overall <= 1e-10 and excluded == 0 and elapsed < 30.0,
            "criterion 1 (symmetric-space exactness)",
            f"max rel error {worst_overall:.2e} <= 1e-10 over 100 trials x 4 "
            f"variants [{', '.join(details)}] in {elapsed:.1f}s")


def test_criterion_2_third_order_one_step(bump):
    start = time.perf_counter()
    m = bump.anchor_point()
    rng = np.random.default_rng(12345)
    u_dir, v_dir = generic_directions(bump, m, rng)
    scales = np.geomspace(0.2, 0.02, 7)
    errors = one_step_error_sweep(bump, m, u_dir, v_dir, scales, "pole_v2")
    report = convergence_order(scales, errors)
    elapsed = time.perf_counter() - start
    ok = 3.7 <= report.fitted_slope <= 4.3 and report.r_squared >= 0.999 \
        and elapsed < 60.0
    _record(ok, "criterion 2 (third-order one-step accuracy)",
            f"pole_v2 slope {report.fitted_slope:.3f} in [3.7, 4.3], "
            f"r^2 {report.r_squared:.6f} >= 0.999, h in [0.02, 0.2], "
            f"{elapsed:.1f}s")


def test_criterion_3_leading_term_predictor(bump):
    start = time.perf_counter()
    m = bump.anchor_point()
    rng = np.random.default_rng(12345)
    u_dir, v_dir = generic_directions(bump, m, rng)
    ratios = []
    for h in (0.05, 0.025, 0.0125):
        u = h * u_dir
        v = h * v_dir
        meas = pole_error_measured(bump, m, u, v, "pole_v2")
        pred = pole_error_predicted(bump, m, u, v)
        ratios.append((meas - pred).component_norm / pred.component_norm)
    elapsed = time.perf_counter() - start
    ok = ratios[0] <= 0.15 and ratios[0] > ratios[1] > ratios[2] \
        and elapsed < 60.0
    _record(ok, "criterion 3 (leading-term predictor match)",
            f"relative defect {ratios[0]:.4f} <= 0.15 at h=0.05, decreasing "
            f"({ratios[0]:.4f} > {ratios[1]:.4f} > {ratios[2]:.4f}), "
            f"{elapsed:.1f}s")


def test_criterion_4_alternative_variant(bump):
    m = bump.anchor_point()
    rng = np.random.default_rng(12345)
    u_dir, v_dir = generic_directions(bump, m, rng)
    u = 0.05 * u_dir
    v = 0.05 * v_dir
    meas = pole_error_measured(bump, m, u, v, "pole_alt")
    pred = -pole_error_predicted(bump, m, u, -v)
    alt_defect = (meas - pred).component_norm / pred.component_norm
    scales = np.geomspace(0.2, 0.02, 7)
    errors = one_step_error_sweep(bump, m, u_dir, v_dir, scales, "pole_avg")
    report = convergence_order(scales, errors)
    ok = alt_defect <= 0.15 and report.fitted_slope < 4.5
    _record(ok, "criterion 4 (alternative variant and averaging)",
            f"pole_alt predictor defect {alt_defect:.4f} <= 0.15 at h=0.05; "
            f"pole_avg slope {report.fitted_slope:.3f} < 4.5 (no order gain)")


def test_criterion_5_series_expansion(bump):
    m = bump.anchor_point()
    rng = np.random.default_rng(5)
    u_dir, v_dir = generic_directions(bump, m, rng)
    scales = np.geomspace(0.2, 0.02, 7)
    slopes = {order: convergence_order(scales, residuals).fitted_slope
              for order, residuals in bch_residual_sweep(
                  bump, m, u_dir, v_dir, scales).items()}
    sp = make_space("sphere-2")
    rng = np.random.default_rng(6)
    ms = sp.random_point(rng)
    us, vs = generic_directions(sp, ms, rng)
    sphere_scales = np.geomspace(0.5, 0.05, 7)
    res3 = bch_residual_sweep(sp, ms, us, vs, sphere_scales)[3]
    sphere_slope = convergence_order(sphere_scales, res3).fitted_slope
    ok = all(slopes[k] >= k + 0.8 for k in (1, 3, 4)) and sphere_slope >= 4.8
    _record(ok, "criterion 5 (series expansion residual decay)",
            f"bump2d slopes order1={slopes[1]:.2f}>=1.8, "
            f"order3={slopes[3]:.2f}>=3.8, order4={slopes[4]:.2f}>=4.8; "
            f"sphere-2 order3={sphere_slope:.2f}>=4.8")


def test_criterion_6_schild_baseline(bump):
    m = bump.anchor_point()
    rng = np.random.default_rng(12345)
    u_dir, v_dir = generic_directions(bump, m, rng)
    scales = np.geomspace(0.2, 0.02, 7)
    schild_errors = one_step_error_sweep(bump, m, u_dir, v_dir, scales,
                                         "schild")
    pole_errors = one_step_error_sweep(bump, m, u_dir, v_dir, scales,
                                       "pole_v2")
    dominated = bool(np.all(schild_errors > pole_errors))
    schild_slope = convergence_order(scales, schild_errors).fitted_slope
    pole_slope = convergence_order(scales, pole_errors).fitted_slope
    ok = dominated and schild_slope < pole_slope
    _record(ok, "criterion 6 (first-order baseline dominated)",
            f"schild error exceeds pole_v2 at every h <= 0.2; slopes "
            f"schild={schild_slope:.3f} < pole_v2={pole_slope:.3f}")


def test_criterion_7_structural_invariants(fleet):
    checks = []
    for name in FLEET_NAMES:
        space = fleet[name]
        rng = np.random.default_rng(2002)
        checks.extend([
            (f"{name} round-trip", round_trip_residual(space, rng), 1e-9),
            (f"{name} midpoint", midpoint_residual(space, rng), 1e-9),
            (f"{name} involution",
             symmetry_involution_residual(space, rng), 1e-9),
            (f"{name} composition",
             symmetry_composition_residual(space, rng), 1e-12),
            (f"{name} linearity",
             transport_linearity_residual(space, rng), 1e-10),
            (f"{name} isometry",
             transport_isometry_residual(space, rng), 1e-10),
            (f"{name} curvature-skew",
             curvature_skew_residual(space, rng), 0.0),
            (f"{name} bianchi", bianchi_residual(space, rng), 1e-8),
        ])
    failures = [label for label, value, bound in checks if value > bound]
    _record(not failures, "criterion 7 (structural invariants)",
            f"{len(checks)} checks across the five-manifold fleet, "
            f"failures: {failures or 'none'}")


def test_criterion_8_v1_v2_equivalence(fleet, bump):
    worst = 0.0
    for name in FLEET_NAMES:
        space = fleet[name]
        rng = np.random.default_rng(3003)
        cap = 0.5 * min(space.injectivity_radius, 2.0)
        for _ in range(100):
            p = space.random_point(rng)
            q = space.exp(p, (rng.uniform(0.2, 1.0) * cap) *
                          space.random_direction(rng, p))
            u = (rng.uniform(0.2, 1.0) * 0.5 * cap) * \
                space.random_direction(rng, p)
            gap = (ladder_step(space, p, q, u, "pole_v1")
                   - ladder_step(space, p, q, u, "pole_v2")).component_norm
            worst = max(worst, gap)
    rng = np.random.default_rng(3003)
    for _ in range(10):
        p = bump.random_point(rng)
        q = bump.exp(p, (0.35 * rng.uniform(0.3, 1.0)) *
                     bump.random_direction(rng, p))
        u = (0.3 * rng.uniform(0.3, 1.0)) * bump.random_direction(rng, p)
        gap = (ladder_step(bump, p, q, u, "pole_v1")
               - ladder_step(bump, p, q, u, "pole_v2")).component_norm
        worst = max(worst, gap)
    _record(worst <= 1e-9, "criterion 8 (formulation equivalence)",
            f"max |pole_v1 - pole_v2| = {worst:.2e} <= 1e-9 over 100 seeded "
            f"trials per closed-form space plus 10 on bump2d")
