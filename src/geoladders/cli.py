"""Experiment harness: single transports, convergence sweeps, series checks
and symmetric-space exactness certification, with deterministic seeding and
CSV output.

Subcommands: transport | convergence | bch-check | exactness.
Exit codes: 0 ok, 1 config error, 2 numerical error, 3 insufficient data,
4 exactness failure, 5 series slope below its order threshold (bch-check).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from typing import get_args, get_type_hints

import numpy as np

from .analysis import (
    bch_numeric,
    bch_series,
    convergence_order,
    default_noise_floor,
    generic_directions,
    pole_error_measured,
    pole_error_predicted,
)
from .chart import ChartSpace
from .core import (
    ConfigError,
    ConnectionSpace,
    GeometryError,
    InsufficientData,
    InvalidBase,
    NonFinite,
    ToleranceConfig,
    _unit_direction,
)
# ladder_step is not called here; perfbench's tracer wraps cli.ladder_step
from .ladders import (LADDER_KINDS, _TAKES_MIDPOINT, _Rung,
                      ladder_step,  # noqa: F401
                      transport_along_geodesic)
from .manifolds import make_space, registry_names

__all__ = ["ExperimentConfig", "main", "cmd_transport", "cmd_convergence",
           "cmd_bch_check", "cmd_exactness", "sample_trial", "exactness_sweep"]

SYMMETRIC_FLEET = ("sphere-2", "hyperbolic-2", "spd-3", "so3")
POLE_SCHEMES = _TAKES_MIDPOINT
# the most an explicit p, q or u may miss its space's constraint by
_OVERRIDE_TOL = 1e-8


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run; the seed fully determines all random draws."""

    command: str = "transport"
    manifold: str | None = None
    scheme: str | None = None  # None = command default (pole_v2 / all variants)
    h_min: float = 0.02
    h_max: float = 0.2
    num_scales: int = 7
    n_rungs: int = 1
    seed: int = 0
    trials: int = 100
    output: str | None = None
    noise_floor: float | None = None
    dist_cap: float | None = None
    u_cap: float | None = None
    # explicit trial overrides (comma-separated coordinates), config-file only
    p: str | None = None
    q: str | None = None
    u: str | None = None
    # ToleranceConfig overrides
    exactness_tol: float | None = None
    ode_rel_tol: float | None = None
    ode_abs_tol: float | None = None
    max_shooting_iters: int | None = None

    def config_hash(self) -> str:
        # the output path does not influence the numbers, so two runs of the
        # same experiment into different files hash identically
        text = "\n".join(
            f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)
            if f.name != "output"
        )
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    def tolerances(self) -> ToleranceConfig:
        overrides = {f.name: getattr(self, f.name)
                     for f in fields(ToleranceConfig)
                     if getattr(self, f.name) is not None}
        return ToleranceConfig(**overrides)

    def build_space(self) -> ConnectionSpace:
        if self.manifold is None:
            raise ConfigError("a manifold name is required (--manifold)")
        try:
            return make_space(self.manifold, self.tolerances())
        except ValueError as err:
            raise ConfigError(str(err)) from err

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


# ---------------------------------------------------------------------------
# config file / flag merging
# ---------------------------------------------------------------------------

# field name -> declared type, with the None of an optional field dropped
_FIELD_TYPES = {
    name: next(t for t in get_args(hint) or (hint,) if t is not type(None))
    for name, hint in get_type_hints(ExperimentConfig).items()
}


def _parse_value(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    raw = raw.strip()
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"bad {kind.__name__} for {name}: {raw!r}")


def load_config_file(path: str) -> dict:
    """Parse a key=value config file; '#' starts a comment."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}")
    known = set(_FIELD_TYPES)
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, raw = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, raw)
    return values


def _make_config(args: argparse.Namespace) -> ExperimentConfig:
    values = {"command": args.command}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for name in _FIELD_TYPES:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            values[name] = flag_value
    cfg = ExperimentConfig(**values)
    if cfg.scheme is not None and cfg.scheme not in LADDER_KINDS:
        raise ConfigError(
            f"unknown scheme {cfg.scheme!r}; choose from {LADDER_KINDS}")
    for name in ("h_min", "h_max", "dist_cap", "u_cap", "noise_floor"):
        value = getattr(cfg, name)
        # a noise floor of 0 counts only exact zeros as noise
        zero_ok = name == "noise_floor"
        if value is not None and not (
                math.isfinite(value) and (value > 0.0 or zero_ok and value == 0.0)):
            raise ConfigError(f"{name} must be finite and "
                              f"{'>= 0' if zero_ok else '> 0'}, got {value!r}")
    if cfg.h_min >= cfg.h_max:
        raise ConfigError("h_min must be smaller than h_max")
    if cfg.n_rungs < 1:
        raise ConfigError("n_rungs must be at least 1")
    if cfg.trials < 1:
        raise ConfigError("trials must be at least 1")
    if cfg.seed < 0:
        # numpy's generators take only non-negative seeds
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    given = [name for name in ("p", "q", "u")
             if getattr(cfg, name) is not None]
    if given and (cfg.p is None or cfg.q is None):
        raise ConfigError(f"a trial override needs both p and q, "
                          f"got only {', '.join(given)}")
    return cfg


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


class _CsvSink:
    """The run's CSV rows, each ending with the config hash, written once
    to --output or stdout when the command returns.  Entering checks that
    --output can be written before any work, creating a missing file that
    a failing run removes again; an existing file keeps its bytes until
    the rows are written."""

    def __init__(self, cfg: ExperimentConfig):
        self.path = cfg.output
        self.chash = cfg.config_hash()
        self.lines: list[str] = []
        self.created = False

    def __enter__(self):
        if self.path is not None:
            self.created = not os.path.lexists(self.path)
            try:
                # append mode creates a missing file and changes no existing one
                open(self.path, "a", encoding="utf-8").close()
            except OSError as err:
                raise ConfigError(f"cannot write {self.path}: {err}") from None
        return self

    def __exit__(self, kind, err, tb):
        if kind is None:
            with (contextlib.nullcontext(sys.stdout) if self.path is None else
                  open(self.path, "w", encoding="utf-8", newline="\n")) as out:
                out.write("\n".join(self.lines) + "\n")
        elif self.created:
            with contextlib.suppress(OSError):
                os.remove(self.path)

    def header(self, *names):
        self.lines.append(",".join(names + ("config_hash",)))

    def row(self, *cells):
        self.lines.append(",".join(_fmt(c) for c in cells + (self.chash,)))

    def comment(self, text: str):
        self.lines.append(f"# {text}")


# ---------------------------------------------------------------------------
# trial sampling
# ---------------------------------------------------------------------------

def sample_trial(space: ConnectionSpace, rng: np.random.Generator,
                 dist_cap: float | None = None, u_cap: float | None = None):
    """One seeded (p, q, u) triple with caps keeping the ladder constructions
    inside the injectivity radius (dist <= 0.9 inj, |u| <= 0.45 inj by
    default).
    """
    inj = space.injectivity_radius
    finite = math.isfinite(inj)  # False for inf and for unknown (NaN)
    dcap = dist_cap if dist_cap is not None else (
        min(0.9 * inj, 2.0) if finite else 2.0)
    ucap = u_cap if u_cap is not None else (
        min(0.45 * inj, 1.0) if finite else 1.0)
    p = space.random_point(rng)
    # both directions are drawn from one tangent basis at p, in the order
    # of two random_direction calls
    basis = space.tangent_basis(p)
    d = rng.uniform(0.1, 1.0) * dcap
    q = space.exp(p, d * _unit_direction(rng, p, basis))
    r = rng.uniform(0.1, 1.0) * ucap
    u = r * _unit_direction(rng, p, basis)
    return p, q, u


def _trial_within_conditions(space, w, u_norm: float) -> bool:
    """Exactness requires dist(p, q) = |w| < inj, for w = log_p(q), and
    |u| < inj (metric spaces)."""
    inj = space.injectivity_radius
    if not math.isfinite(inj):
        return True
    return space.norm(w) < inj and u_norm < inj


def _explicit_trial(space, cfg: ExperimentConfig):
    """The config's p, q and u: ConfigError unless each parses and p, q lie
    on the space and u on its tangent space at p, within _OVERRIDE_TOL."""
    def coords(text):
        return [float(t) for t in text.split(",")]

    try:
        p, q = space.point(coords(cfg.p)), space.point(coords(cfg.q))
        u = None if cfg.u is None else space.tangent(p, coords(cfg.u))
    except (ValueError, InvalidBase) as err:
        raise ConfigError(f"bad p/q/u override: {err}") from None
    offsets = [("p", space.membership_residual(p)),
               ("q", space.membership_residual(q))]
    if u is not None:
        offsets.append(("u", space.tangency_residual(u)))
    for name, off in offsets:
        # written so that a NaN residual passes on to the numerical error
        if off > _OVERRIDE_TOL:
            raise ConfigError(f"override {name} is off {space.name} by "
                              f"{off:.3g}, more than {_OVERRIDE_TOL:g}")
    if u is None:
        u = 0.5 * space.random_direction(cfg.rng(), p)
    return p, q, u


def _sweep_setup(cfg: ExperimentConfig, command: str):
    """Space, base point m, direction pair, scales and noise floor of a
    scaling sweep (convergence and bch-check)."""
    if cfg.num_scales < 5:
        raise ConfigError(f"{command} runs need at least 5 scales")
    space = cfg.build_space()
    if space.dim < 2:
        raise ConfigError(f"{command} needs two non-parallel directions, and "
                          f"{cfg.manifold} has dimension {space.dim}")
    rng = cfg.rng()
    # chart spaces carry a canonical interior anchor for sweeps; closed-form
    # spaces use a seeded random point
    m = (space.anchor_point() if isinstance(space, ChartSpace)
         else space.random_point(rng))
    u_dir, v_dir = generic_directions(space, m, rng)
    scales = np.geomspace(cfg.h_max, cfg.h_min, cfg.num_scales)
    floor = cfg.noise_floor if cfg.noise_floor is not None \
        else default_noise_floor(1.0 + float(np.max(np.abs(m.coords))))
    return space, m, u_dir, v_dir, scales, floor


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_transport(cfg: ExperimentConfig, sink: _CsvSink) -> int:
    """One ladder transport; CSV row with the result and the oracle error."""
    space = cfg.build_space()
    rng = cfg.rng()
    scheme = cfg.scheme or "pole_v2"
    if cfg.p is not None:
        p, q, u = _explicit_trial(space, cfg)
    else:
        p, q, u = sample_trial(space, rng, cfg.dist_cap, cfg.u_cap)
    result = transport_along_geodesic(space, p, q, u, cfg.n_rungs, scheme)
    oracle = space.transport(u, q)
    err = space.norm(result.vector - oracle)
    sink.header("manifold", "scheme", "n_rungs", "u_norm", "dist_pq",
                "result", "oracle_error")
    sink.row(cfg.manifold, scheme, cfg.n_rungs, space.norm(u),
             space.dist(p, q),
             ";".join(_fmt(c) for c in result.vector.components), err)
    return 0


def _predicted_error_norm(space, scheme, m, u, v) -> float:
    if scheme in ("pole_v1", "pole_v2"):
        return pole_error_predicted(space, m, u, v).component_norm
    # the reversed variant's term is the main one's at -v, negated
    if scheme == "pole_alt":
        return (-pole_error_predicted(space, m, u, -v)).component_norm
    if scheme == "pole_avg":
        avg = 0.5 * (pole_error_predicted(space, m, u, v)
                     - pole_error_predicted(space, m, u, -v))
        return avg.component_norm
    return math.nan


def _fit_unless_exact(scales, values, floor):
    """convergence_order's fit, or None if every value is at the noise floor."""
    values = np.asarray(values)
    if np.all(values <= floor):
        return None
    return convergence_order(scales, values, noise_floor=floor)


def cmd_convergence(cfg: ExperimentConfig, sink: _CsvSink) -> int:
    """One-step error sweep under joint scaling, with a log-log slope fit."""
    space, m, u_dir, v_dir, scales, floor = _sweep_setup(cfg, "convergence")
    scheme = cfg.scheme or "pole_v2"
    sink.header("manifold", "scheme", "h", "n_rungs", "error",
                "predicted_error", "slope_running")
    errors = []
    for i, h in enumerate(scales):
        u = float(h) * u_dir
        v = float(h) * v_dir
        err = pole_error_measured(space, m, u, v, scheme,
                                  n_rungs=cfg.n_rungs).component_norm
        errors.append(err)
        predicted = (_predicted_error_norm(space, scheme, m, u, v)
                     if cfg.n_rungs == 1 else math.nan)
        if i >= 2 and min(errors) > 0.0:
            running = float(np.polyfit(np.log(scales[: i + 1]),
                                       np.log(errors), 1)[0])
        else:
            running = math.nan
        sink.row(cfg.manifold, scheme, float(h), cfg.n_rungs, err,
                 predicted, running)
    report = _fit_unless_exact(scales, errors, floor)
    if report is None:
        sink.comment("exact within tolerance (all errors at the noise floor)")
    else:
        sink.comment(f"fitted_slope={report.fitted_slope:.6f} "
                     f"r_squared={report.r_squared:.8f} n_used={report.n_used}")
    return 0


def cmd_bch_check(cfg: ExperimentConfig, sink: _CsvSink) -> int:
    """Residuals of the double-exponential series at orders 1, 3 and 4."""
    space, m, u_dir, v_dir, scales, floor = _sweep_setup(cfg, "bch-check")
    sink.header("manifold", "order", "h", "residual")
    ok = True
    summaries = []
    for order in (1, 3, 4):
        residuals = []
        for h in scales:
            u = float(h) * u_dir
            v = float(h) * v_dir
            res = (bch_numeric(space, m, v, u)
                   - bch_series(space, m, v, u, order)).component_norm
            residuals.append(res)
            sink.row(cfg.manifold, order, float(h), res)
        report = _fit_unless_exact(scales, residuals, floor)
        if report is None:
            summaries.append(f"order_{order}=exact_within_tolerance")
            continue
        summaries.append(f"order_{order}_slope={report.fitted_slope:.4f}")
        if report.fitted_slope < order + 0.8:
            ok = False
    for line in summaries:
        sink.comment(line)
    if not ok:
        print("bch-check: a residual slope fell below its order threshold",
              file=sys.stderr)
        return 5
    return 0


def exactness_sweep(space: ConnectionSpace, schemes, trials: int,
                    rng: np.random.Generator,
                    dist_cap: float | None = None,
                    u_cap: float | None = None):
    """Max relative transport error per pole kind over seeded trials.

    Trials violating the exactness conditions (distances under the
    injectivity radius) are excluded and counted, not failed.  Each trial
    takes one log w of [p, q], which gives both the distance the conditions
    test and the midpoint exp_p(w / 2), and builds one rung record, from
    which every kind reads its step: the kinds share the midpoint, exp_p(u),
    exp_p(-u) and the two reflected logs at q, and each is computed once.
    A log of [p, q] or a relative error that is not finite raises
    NonFinite, which the conditions and max would otherwise drop.
    """
    worst = {kind: 0.0 for kind in schemes}
    excluded = 0
    for trial in range(trials):
        p, q, u = sample_trial(space, rng, dist_cap, u_cap)
        w = space.log(p, q)
        if not all(map(math.isfinite, w.components.tolist())):
            raise NonFinite(f"{space.name}: log_p(q) is not finite at trial "
                            f"{trial}")
        u_norm = space.norm(u)
        if not _trial_within_conditions(space, w, u_norm):
            excluded += 1
            continue
        oracle = space.transport(u, q)
        # space.midpoint(p, q), from the log already taken
        m = space.geodesic(p, w, (0.5,))[0]
        rung = _Rung(space, p, q, u, m)
        for kind in schemes:
            diff = rung.step(kind) - oracle
            try:
                rel = space.norm(diff) / u_norm
            except NonFinite:
                # the vector check names neither the kind nor the trial
                rel = math.nan
            if not math.isfinite(rel):
                raise NonFinite(f"{space.name}/{kind}: relative error {rel} "
                                f"at trial {trial}")
            worst[kind] = max(worst[kind], rel)
    return worst, excluded


def cmd_exactness(cfg: ExperimentConfig, sink: _CsvSink) -> int:
    """Certify pole-ladder exactness on the locally symmetric fleet."""
    manifolds = (cfg.manifold,) if cfg.manifold else SYMMETRIC_FLEET
    if cfg.scheme is not None and cfg.scheme not in POLE_SCHEMES:
        raise ConfigError(
            f"exactness applies to pole variants only, not {cfg.scheme!r}")
    schemes = (cfg.scheme,) if cfg.scheme else POLE_SCHEMES
    sink.header("manifold", "scheme", "trials", "excluded", "max_rel_error")
    failures = []
    for name in manifolds:
        space = replace(cfg, manifold=name).build_space()
        if not space.locally_symmetric:
            raise ConfigError(f"{name} is not flagged locally symmetric")
        tol = space.tolerances.exactness_tol
        rng = cfg.rng()
        worst, excluded = exactness_sweep(space, schemes, cfg.trials, rng,
                                          cfg.dist_cap, cfg.u_cap)
        if excluded == cfg.trials:
            raise InsufficientData(f"{name}: all {excluded} trials excluded "
                                   "(condition violated), none certified")
        if excluded:
            sink.comment(f"{name}: {excluded} trials excluded "
                         "(condition violated)")
        for kind in schemes:
            sink.row(name, kind, cfg.trials - excluded, excluded, worst[kind])
            if worst[kind] > tol:
                failures.append(f"{name}/{kind}: {worst[kind]:.3e} > {tol:.1e}")
    if failures:
        for failure in failures:
            print(f"exactness failure: {failure}", file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# subcommand -> (handler, help text)
_COMMANDS = {
    "transport": (cmd_transport, "one ladder transport against the oracle"),
    "convergence": (cmd_convergence,
                    "one-step error sweep with a log-log slope fit"),
    "bch-check": (cmd_bch_check,
                  "double-exponential series residuals at orders 1, 3, 4"),
    "exactness": (cmd_exactness, "symmetric-space exactness certification"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="geoladders",
        description="Parallel-transport experiments with geodesic ladders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--manifold", help=f"one of {registry_names()}")
        p.add_argument("--scheme", choices=LADDER_KINDS)
        p.add_argument("--h-min", dest="h_min", type=float)
        p.add_argument("--h-max", dest="h_max", type=float)
        p.add_argument("--num-scales", dest="num_scales", type=int)
        p.add_argument("--n-rungs", dest="n_rungs", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--trials", type=int)
        p.add_argument("--tol-exactness", dest="exactness_tol", type=float)
        p.add_argument("--output", help="CSV output path (default: stdout)")
        p.add_argument("--config", help="key=value config file; flags override")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _make_config(args)
        with _CsvSink(cfg) as sink:
            return _COMMANDS[args.command][0](cfg, sink)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except InsufficientData as err:
        print(f"insufficient data: {err}", file=sys.stderr)
        return 3
    except GeometryError as err:
        print(f"numerical error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
