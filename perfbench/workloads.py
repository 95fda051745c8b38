"""The benchmark workloads: seeded inputs, one op at a time, output checks.

Each workload hands out *units*: a list of zero-argument ops that belong
together (one bump2d sweep, or one op for the fleet workloads).  An op
returns True when its output passes its own check and raises
``GeometryError`` when the program gives up; ``close_unit`` handles what
needs the whole unit (the slope fit of a sweep).  Inputs come
only from the seed, so two workloads built from the same seed run the same
ops in the same order.

Only the public API of ``geoladders`` is called.  ``wrap(name, fn, tag)``
is the hook the tracer uses to put spans around the calls the benchmark
makes itself; untraced runs pass the identity.
"""

from __future__ import annotations

import math

import numpy as np

import geoladders as gl
from geoladders import cli

# one-step sweep of the paper's main experiment (criteria 2 and 3)
SCALES = np.geomspace(0.2, 0.02, 7)
# Criterion 2 is recorded per sweep, not checked per op: on a few direction
# pairs the higher-order terms are still large at h = 0.2, so the fit over
# [0.2, 0.02] reads below 3.7 although the measured error matches the
# leading-term predictor and its local slope tends to 4 (NOTES.md, Findings).
SLOPE_RANGE = (3.7, 4.3)
R_SQUARED_MIN = 0.999
# Criterion 3 bounds the predictor's relative defect at h = 0.05.  The
# defect shrinks like h^2, so it is checked on the scales h <= 0.05 only: at
# h = 0.2 it reaches 0.42 on some direction pairs whose defect at h = 0.043
# is 0.02, well inside the criterion.
DEFECT_MAX = 0.15
DEFECT_H_MAX = 0.05
N_RUNGS = 8


def _identity(name, fn, tag=None):
    return fn


class BumpSweep:
    """One-step pole_v2 error sweeps on bump2d at the anchor point.

    A unit is one sweep: a seeded direction pair and the 7 scales in
    [0.2, 0.02]; an op is the measured and the predicted error at one scale,
    what ``geoladders convergence --manifold bump2d`` computes per CSV row.
    """

    name = "bump-sweep"

    def __init__(self, seed: int, wrap=_identity, space=None):
        self.space = space if space is not None else gl.BumpMetric2D(1.0)
        self.m = self.space.anchor_point()
        self.rng = np.random.default_rng(seed)
        self.measured = wrap("analysis.pole_error_measured", gl.pole_error_measured)
        self.predicted = wrap("analysis.pole_error_predicted", gl.pole_error_predicted)
        self.errors = []
        self.slopes = []
        self.r_squared = []
        self.defects = []
        self.defect_all_max = 0.0
        self.slope_misses = 0

    def spaces(self):
        return {self.space.name: self.space}

    def unit(self):
        u_dir, v_dir = gl.generic_directions(self.space, self.m, self.rng)
        self.errors = []
        return [lambda h=float(h): self._op(h, h * u_dir, h * v_dir)
                for h in SCALES]

    def _op(self, h, u, v):
        measured = self.measured(self.space, self.m, u, v, "pole_v2")
        predicted = self.predicted(self.space, self.m, u, v)
        err = measured.component_norm
        pred = predicted.component_norm
        self.errors.append(err)
        if not (math.isfinite(err) and math.isfinite(pred) and pred > 0.0):
            return False
        defect = (measured - predicted).component_norm / pred
        self.defect_all_max = max(self.defect_all_max, defect)
        if h > DEFECT_H_MAX:
            return math.isfinite(defect)
        self.defects.append(defect)
        return defect <= DEFECT_MAX

    def close_unit(self, oks):
        if len(self.errors) != len(SCALES) or not all(oks):
            return oks
        try:
            report = gl.convergence_order(SCALES, self.errors)
        except (gl.InsufficientData, ValueError):
            return [False] * len(oks)
        self.slopes.append(report.fitted_slope)
        self.r_squared.append(report.r_squared)
        if not (SLOPE_RANGE[0] <= report.fitted_slope <= SLOPE_RANGE[1]
                and report.r_squared >= R_SQUARED_MIN):
            self.slope_misses += 1
        return oks

    def accuracy(self):
        return {
            "analysis.slope_min": min(self.slopes, default=0.0),
            "analysis.slope_max": max(self.slopes, default=0.0),
            "analysis.r_squared_min": min(self.r_squared, default=0.0),
            "analysis.predictor_defect_max": max(self.defects, default=0.0),
            "predictor_defect_max_all_scales": self.defect_all_max,
            "criterion_2_sweeps_outside": self.slope_misses,
        }


class _Fleet:
    """Seeded trials on the closed-form symmetric fleet.

    An op is one trial on each of the four manifolds in turn.  Single trials
    form four well separated latency clusters (about 1.2 to 3.3 ms), and the
    median of such a mix sits on a cluster edge, where one slow outlier moves
    it by a whole cluster; a round of four gives one cluster.
    """

    def __init__(self, seed: int, wrap=_identity):
        self.fleet = {name: gl.make_space(name) for name in cli.SYMMETRIC_FLEET}
        self.rngs = {name: np.random.default_rng([seed, i])
                     for i, name in enumerate(self.fleet)}
        self.trials = {name: wrap("manifolds.trial",
                                  lambda name=name: self._trial(name), tag=name)
                       for name in self.fleet}
        self.max_rel_error = 0.0
        self.excluded = 0

    def spaces(self):
        return dict(self.fleet)

    def unit(self):
        return [self._op]

    def _op(self):
        # a list, not a generator: the trials after a failed check still run,
        # so each manifold's input stream stays the same from run to run
        return all([self.trials[name]() for name in self.fleet])

    def _record(self, rel, tol):
        self.max_rel_error = max(self.max_rel_error, rel)
        return rel <= tol

    def close_unit(self, oks):
        return oks

    def accuracy(self):
        return {"analysis.max_rel_error": self.max_rel_error}


class FleetExactness(_Fleet):
    """One trial of ``cli.exactness_sweep`` per manifold: four pole variants
    against the closed-form oracle, relative error within exactness_tol."""

    name = "fleet-exactness"

    def __init__(self, seed: int, wrap=_identity):
        super().__init__(seed, wrap)
        self.sweep = wrap("cli.exactness_sweep", cli.exactness_sweep)

    def _trial(self, name):
        space = self.fleet[name]
        worst, excluded = self.sweep(space, cli.POLE_SCHEMES, 1, self.rngs[name])
        self.excluded += excluded
        return self._record(max(worst.values()), space.tolerances.exactness_tol)


class FleetRungs(_Fleet):
    """One ``cli.sample_trial`` per manifold carried by
    ``transport_along_geodesic`` over 8 rungs of pole_v2, relative error
    against the closed-form transport."""

    name = "fleet-rungs"

    def __init__(self, seed: int, wrap=_identity):
        super().__init__(seed, wrap)
        self.sample = wrap("cli.sample_trial", cli.sample_trial)
        self.transport = wrap("ladders.transport_along_geodesic",
                              gl.transport_along_geodesic)

    def _trial(self, name):
        space = self.fleet[name]
        p, q, u = self.sample(space, self.rngs[name])
        result = self.transport(space, p, q, u, N_RUNGS, "pole_v2")
        oracle = space.transport(u, q)
        rel = space.norm(result.vector - oracle) / space.norm(u)
        return self._record(rel, space.tolerances.exactness_tol)


_CLASSES = {cls.name: cls for cls in (BumpSweep, FleetExactness, FleetRungs)}


def make(name: str, seed: int, wrap=_identity):
    """Build the named workload from its seed."""
    return _CLASSES[name](seed, wrap)
