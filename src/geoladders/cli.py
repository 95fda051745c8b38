"""Experiment harness: single transports, convergence sweeps, series checks
and symmetric-space exactness certification, with deterministic seeding and
CSV output.  The module parses flags and config files, runs the kernels of
``analysis`` and writes their CSV; it computes no experiment of its own.

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
    POLE_SCHEMES,
    _log_fit,
    bch_residual_sweep,
    convergence_order,
    default_noise_floor,
    exactness_sweep,
    generic_directions,
    one_step_error_sweep,
    pole_error_predicted,
    sample_trial,
)
from .chart import ChartSpace
from .core import (
    ConfigError,
    ConnectionSpace,
    GeometryError,
    InsufficientData,
    InvalidBase,
    TangentVector,
    ToleranceConfig,
)
# ladder_step is not called here; perfbench's tracer wraps cli.ladder_step
from .ladders import (LADDER_KINDS, ladder_step,  # noqa: F401
                      transport_along_geodesic)
from .manifolds import make_space, registry_names

__all__ = ["ExperimentConfig", "main", "cmd_transport", "cmd_convergence",
           "cmd_bch_check", "cmd_exactness"]

SYMMETRIC_FLEET = ("sphere-2", "hyperbolic-2", "spd-3", "so3")
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


def _sweep_setup(cfg: ExperimentConfig):
    """Space, base point m, direction pair, scales and noise floor of a
    scaling sweep (convergence and bch-check)."""
    if cfg.num_scales < 5:
        raise ConfigError(f"{cfg.command} runs need at least 5 scales")
    space = cfg.build_space()
    if space.dim < 2:
        raise ConfigError(f"{cfg.command} needs two non-parallel directions, "
                          f"and {cfg.manifold} has dimension {space.dim}")
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
    # space.transport(u, q) and space.dist(p, q), from one log of [p, q]
    w = space.log(p, q)
    oracle = TangentVector(q, space.exp_transport(u, w).components)
    err = space.norm(result.vector - oracle)
    sink.header("manifold", "scheme", "n_rungs", "u_norm", "dist_pq",
                "result", "oracle_error")
    sink.row(cfg.manifold, scheme, cfg.n_rungs, space.norm(u), space.norm(w),
             ";".join(_fmt(c) for c in result.vector.components), err)
    return 0


def _fit_unless_exact(scales, values, floor):
    """convergence_order's fit, or None if every value is at the noise floor."""
    values = np.asarray(values)
    if np.all(values <= floor):
        return None
    return convergence_order(scales, values, noise_floor=floor)


def cmd_convergence(cfg: ExperimentConfig, sink: _CsvSink) -> int:
    """One-step error sweep under joint scaling, with a log-log slope fit."""
    space, m, u_dir, v_dir, scales, floor = _sweep_setup(cfg)
    scheme = cfg.scheme or "pole_v2"
    sink.header("manifold", "scheme", "h", "n_rungs", "error",
                "predicted_error", "slope_running")
    errors = one_step_error_sweep(space, m, u_dir, v_dir, scales, scheme,
                                  n_rungs=cfg.n_rungs).tolist()
    # the predictor is a one-step term, and Schild's ladder has none yet
    predicts = cfg.n_rungs == 1 and scheme in POLE_SCHEMES
    hs = scales.tolist()
    for i, (h, err) in enumerate(zip(hs, errors)):
        predicted = (pole_error_predicted(space, m, h * u_dir, h * v_dir,
                                          scheme).component_norm
                     if predicts else math.nan)
        # convergence_order's fit of the rows so far, with its noise floor
        fit = _log_fit(hs[: i + 1], errors[: i + 1], floor)
        running = math.nan if fit is None else fit[0]
        sink.row(cfg.manifold, scheme, h, cfg.n_rungs, err, predicted,
                 running)
    report = _fit_unless_exact(scales, errors, floor)
    if report is None:
        sink.comment("exact within tolerance (all errors at the noise floor)")
    else:
        sink.comment(f"fitted_slope={report.fitted_slope:.6f} "
                     f"r_squared={report.r_squared:.8f} n_used={report.n_used}")
    return 0


def cmd_bch_check(cfg: ExperimentConfig, sink: _CsvSink) -> int:
    """Residuals of the double-exponential series at orders 1, 3 and 4."""
    space, m, u_dir, v_dir, scales, floor = _sweep_setup(cfg)
    sink.header("manifold", "order", "h", "residual")
    ok = True
    summaries = []
    sweep = bch_residual_sweep(space, m, u_dir, v_dir, scales)
    for order, residuals in sweep.items():
        for h, res in zip(scales.tolist(), residuals):
            sink.row(cfg.manifold, order, h, res)
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
