import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace
from typing import get_args, get_type_hints

import numpy as np
import pytest

from geoladders import cli, ladder_step, make_space
from geoladders.cli import (
    ExperimentConfig,
    build_parser,
    exactness_sweep,
    load_config_file,
    main,
    sample_trial,
)


def read_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if ln]
    comments = [ln for ln in lines if ln.startswith("#")]
    rows = [ln.split(",") for ln in lines if not ln.startswith("#")]
    return rows[0], rows[1:], comments


# -- transport -----------------------------------------------------------------

def test_transport_sphere_pole_is_exact(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(["transport", "--manifold", "sphere-2", "--seed", "7",
               "--output", str(out)])
    assert rc == 0
    header, rows, _ = read_rows(out)
    assert header == ["manifold", "scheme", "n_rungs", "u_norm", "dist_pq",
                      "result", "oracle_error", "config_hash"]
    assert rows[0][0] == "sphere-2"
    assert float(rows[0][6]) <= 1e-10
    assert len(rows[0][7]) == 12


def test_transport_euclidean_any_scheme(tmp_path):
    for scheme in ("schild", "pole_v1", "pole_avg"):
        out = tmp_path / f"{scheme}.csv"
        rc = main(["transport", "--manifold", "euclidean-3",
                   "--scheme", scheme, "--seed", "3", "--output", str(out)])
        assert rc == 0
        _, rows, _ = read_rows(out)
        assert float(rows[0][6]) <= 1e-14


def test_transport_antipodal_exits_2(tmp_path, capsys):
    cfg = tmp_path / "anti.cfg"
    cfg.write_text("p = 1,0,0\nq = -1,0,0\nu = 0,0.3,0\n")
    rc = main(["transport", "--manifold", "sphere-2", "--config", str(cfg)])
    assert rc == 2
    assert "CutLocus" in capsys.readouterr().err


@pytest.mark.parametrize("manifold, p, q, u", [
    ("sphere-2", "1,0,0", "0,1,0", "0,nan,0"),
    ("bump2d", "0.1,0.1", "0.2,0.1", "0.1,nan"),
])
def test_transport_non_finite_input_exits_2(tmp_path, capsys, manifold,
                                            p, q, u):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(f"p = {p}\nq = {q}\nu = {u}\n")
    rc = main(["transport", "--manifold", manifold, "--config", str(cfg)])
    assert rc == 2
    assert "NonFinite" in capsys.readouterr().err


def test_unknown_manifold_exits_1(capsys):
    assert main(["transport", "--manifold", "nosuch"]) == 1
    assert "config error" in capsys.readouterr().err


def test_bad_flag_exits_1():
    assert main(["transport", "--manifold", "sphere-2", "--seed", "x"]) == 1


@pytest.mark.parametrize("command", ["transport", "convergence", "bch-check",
                                     "exactness"])
def test_unregistered_manifold_is_a_config_error(command, capsys):
    assert main([command, "--manifold", "torus-2", "--trials", "1"]) == 1
    assert capsys.readouterr().err.startswith("config error: unknown manifold")


# -- convergence -----------------------------------------------------------------

def test_convergence_sphere_flags_exactness(tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["convergence", "--manifold", "sphere-2", "--seed", "2",
               "--num-scales", "5", "--output", str(out)])
    assert rc == 0
    header, rows, comments = read_rows(out)
    assert header == ["manifold", "scheme", "h", "n_rungs", "error",
                      "predicted_error", "slope_running", "config_hash"]
    assert len(rows) == 5
    assert any("exact within tolerance" in c for c in comments)


def test_convergence_bump_fits_fourth_order(tmp_path):
    out = tmp_path / "b.csv"
    rc = main(["convergence", "--manifold", "bump2d", "--scheme", "pole_v2",
               "--h-min", "0.02", "--h-max", "0.2", "--num-scales", "7",
               "--seed", "11", "--output", str(out)])
    assert rc == 0
    _, rows, comments = read_rows(out)
    assert len(rows) == 7
    fit = [c for c in comments if "fitted_slope" in c][0]
    slope = float(fit.split("fitted_slope=")[1].split()[0])
    assert 3.7 <= slope <= 4.3
    # each row carries a finite predicted error close to the measured one
    for row in rows:
        assert abs(float(row[4]) / float(row[5]) - 1.0) <= 0.2


def test_convergence_narrow_span_exits_3(capsys):
    rc = main(["convergence", "--manifold", "bump2d", "--h-min", "0.1",
               "--h-max", "0.2", "--num-scales", "5", "--seed", "1"])
    assert rc == 3
    assert "insufficient data" in capsys.readouterr().err


def test_convergence_too_few_scales_exits_1():
    assert main(["convergence", "--manifold", "sphere-2",
                 "--num-scales", "4"]) == 1


def test_convergence_is_bit_deterministic(tmp_path):
    args = ["convergence", "--manifold", "bump2d", "--scheme", "pole_v2",
            "--h-min", "0.05", "--h-max", "0.5", "--num-scales", "5",
            "--seed", "4"]
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("command", ["convergence", "bch-check"])
@pytest.mark.parametrize("manifold", ["euclidean-1", "sphere-1"])
def test_sweep_on_one_dimensional_manifold_exits_1(command, manifold, capsys):
    assert main([command, "--manifold", manifold]) == 1
    assert "dimension 1" in capsys.readouterr().err


# -- bch-check -------------------------------------------------------------------

def test_bch_check_euclidean_exact(tmp_path):
    out = tmp_path / "e.csv"
    rc = main(["bch-check", "--manifold", "euclidean-3", "--seed", "5",
               "--output", str(out)])
    assert rc == 0
    _, rows, comments = read_rows(out)
    assert all(float(r[3]) <= 1e-14 for r in rows)
    assert sum("exact_within_tolerance" in c for c in comments) == 3


def test_bch_check_sphere_order_three_slope(tmp_path):
    # the curvature tensor is covariantly constant, so the next correction
    # beyond order 3 is fifth order
    out = tmp_path / "s.csv"
    rc = main(["bch-check", "--manifold", "sphere-2", "--seed", "6",
               "--h-min", "0.05", "--h-max", "0.5", "--output", str(out)])
    assert rc == 0
    _, _, comments = read_rows(out)
    slope3 = [float(c.split("slope=")[1]) for c in comments
              if "order_3" in c][0]
    assert slope3 >= 4.8


def test_bch_check_slope_failure_exits_5(monkeypatch, capsys):
    monkeypatch.setattr(cli, "convergence_order",
                        lambda *args, **kwargs: SimpleNamespace(fitted_slope=1.0))
    rc = main(["bch-check", "--manifold", "sphere-2", "--seed", "6",
               "--h-min", "0.05", "--h-max", "0.5", "--num-scales", "5"])
    assert rc == 5
    assert "order threshold" in capsys.readouterr().err


def test_bch_check_bump_slopes(tmp_path):
    out = tmp_path / "b.csv"
    rc = main(["bch-check", "--manifold", "bump2d", "--seed", "5",
               "--h-min", "0.02", "--h-max", "0.2", "--output", str(out)])
    assert rc == 0
    _, rows, comments = read_rows(out)
    assert {r[1] for r in rows} == {"1", "3", "4"}
    slopes = {}
    for c in comments:
        if "_slope=" in c:
            key = c.split("order_")[1].split("_")[0]
            slopes[int(key)] = float(c.split("slope=")[1])
    assert slopes[1] >= 1.8 and slopes[3] >= 3.8 and slopes[4] >= 4.8


# -- exactness -------------------------------------------------------------------

def test_exactness_default_fleet(tmp_path):
    out = tmp_path / "x.csv"
    rc = main(["exactness", "--trials", "10", "--seed", "3",
               "--output", str(out)])
    assert rc == 0
    _, rows, _ = read_rows(out)
    manifolds = {r[0] for r in rows}
    assert manifolds == {"sphere-2", "hyperbolic-2", "spd-3", "so3"}
    schemes = {r[1] for r in rows}
    assert schemes == {"pole_v1", "pole_v2", "pole_alt", "pole_avg"}
    assert all(float(r[4]) <= 1e-10 for r in rows)


def test_exactness_unreachable_tolerance_exits_4(tmp_path, capsys):
    rc = main(["exactness", "--manifold", "sphere-2", "--trials", "5",
               "--seed", "3", "--tol-exactness", "1e-18",
               "--output", str(tmp_path / "x.csv")])
    assert rc == 4
    assert "exactness failure" in capsys.readouterr().err


def test_tol_exactness_flag_overrides_the_config_file(tmp_path):
    cfg = tmp_path / "loose.cfg"
    cfg.write_text("exactness_tol = 1e-3\n")
    args = ["exactness", "--manifold", "sphere-2", "--trials", "5",
            "--seed", "3", "--config", str(cfg),
            "--output", str(tmp_path / "x.csv")]
    assert main(args) == 0
    assert main(args + ["--tol-exactness", "1e-18"]) == 4


def test_tol_exactness_is_not_a_config_key(tmp_path, capsys):
    cfg = tmp_path / "old.cfg"
    cfg.write_text("tol_exactness = 1e-3\n")
    assert main(["exactness", "--config", str(cfg)]) == 1
    assert "unknown key 'tol_exactness'" in capsys.readouterr().err


def test_exactness_rejects_schild(capsys):
    assert main(["exactness", "--scheme", "schild", "--trials", "2"]) == 1


def test_exactness_excludes_condition_violations(tmp_path):
    # a u-cap beyond the injectivity radius produces trials whose transported
    # segment is longer than pi; those are excluded and reported, not failed
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("u_cap = 4.5\n")
    out = tmp_path / "x.csv"
    rc = main(["exactness", "--manifold", "sphere-2", "--trials", "40",
               "--seed", "9", "--config", str(cfg), "--output", str(out)])
    assert rc == 0
    _, rows, comments = read_rows(out)
    excluded = int(rows[0][3])
    assert excluded > 0
    assert any("condition violated" in c for c in comments)
    assert all(float(r[4]) <= 1e-10 for r in rows)


def test_exactness_sweep_counts_trials(rng):
    space = make_space("sphere-2")
    worst, excluded = exactness_sweep(space, ("pole_v2",), 10, rng)
    assert excluded == 0
    assert worst["pole_v2"] <= 1e-10


@pytest.mark.parametrize("name", cli.SYMMETRIC_FLEET)
def test_exactness_sweep_shares_one_midpoint_bit_for_bit(name):
    # the sweep builds one rung record per trial, so the four pole kinds
    # share its midpoint and the maps they have in common; separate steps,
    # each making its own, give the same bits
    space = make_space(name)
    worst, excluded = exactness_sweep(space, cli.POLE_SCHEMES, 20,
                                      np.random.default_rng(31))
    rng = np.random.default_rng(31)
    want, skipped = {kind: 0.0 for kind in cli.POLE_SCHEMES}, 0
    for _ in range(20):
        p, q, u = sample_trial(space, rng)
        if not cli._trial_within_conditions(space, space.log(p, q),
                                            space.norm(u)):
            skipped += 1
            continue
        oracle = space.transport(u, q)
        for kind in cli.POLE_SCHEMES:
            err = space.norm(ladder_step(space, p, q, u, kind) - oracle)
            want[kind] = max(want[kind], err / space.norm(u))
    assert (worst, excluded) == (want, skipped)
    assert skipped < 20


# -- config machinery -------------------------------------------------------------

def test_config_file_parsing_and_flag_override(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# sweep setup\nmanifold = bump2d\nseed = 12\nnum-scales = 6\n")
    values = load_config_file(str(cfg))
    assert values == {"manifold": "bump2d", "seed": 12, "num_scales": 6}
    out = tmp_path / "t.csv"
    rc = main(["transport", "--config", str(cfg), "--manifold", "euclidean-2",
               "--output", str(out)])
    assert rc == 0
    _, rows, _ = read_rows(out)
    assert rows[0][0] == "euclidean-2"  # flag wins over config file


def test_every_config_field_round_trips_with_its_declared_type(tmp_path):
    samples = {str: "text", int: 7, float: 0.25}
    expected = {}
    for name, hint in get_type_hints(ExperimentConfig).items():
        kind = next(t for t in get_args(hint) or (hint,) if t is not type(None))
        expected[name] = samples[kind]
    assert set(expected) == {f.name for f in fields(ExperimentConfig)}
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in expected.items()))
    values = load_config_file(str(cfg))
    assert values == expected
    assert {k: type(v) for k, v in values.items()} == \
        {k: type(v) for k, v in expected.items()}
    assert ExperimentConfig(**values).exactness_tol == 0.25


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("manifld = sphere-2\n")
    assert main(["transport", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("name, value", [
    ("h_min", "0"), ("h_min", "-0.1"), ("h_min", "nan"), ("h_max", "inf"),
    ("dist_cap", "nan"), ("u_cap", "0"), ("noise_floor", "-1"),
])
def test_out_of_range_setting_is_a_config_error(tmp_path, capsys, name, value):
    # h_min and h_max have flags; the other three are config-file keys
    args = ["exactness" if name.endswith("cap") else "convergence",
            "--manifold", "sphere-2"]
    if name.startswith("h_"):
        args += [f"--{name.replace('_', '-')}", value]
    else:
        cfg = tmp_path / "range.cfg"
        cfg.write_text(f"{name} = {value}\n")
        args += ["--config", str(cfg)]
    assert main(args) == 1
    assert f"config error: {name} must be finite" in capsys.readouterr().err


def test_negative_seed_is_a_config_error(capsys):
    assert main(["transport", "--manifold", "sphere-2", "--seed", "-1"]) == 1
    assert "config error: seed must be >= 0" in capsys.readouterr().err


def test_config_hash_ignores_output_path():
    a = ExperimentConfig(manifold="sphere-2", seed=1, output="a.csv")
    b = ExperimentConfig(manifold="sphere-2", seed=1, output="b.csv")
    c = ExperimentConfig(manifold="sphere-2", seed=2, output="a.csv")
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_sample_trial_respects_caps(rng):
    space = make_space("sphere-2")
    for _ in range(20):
        p, q, u = sample_trial(space, rng)
        assert space.dist(p, q) <= 0.9 * space.injectivity_radius + 1e-12
        assert space.norm(u) <= 0.45 * space.injectivity_radius + 1e-12


def test_console_entry_point_runs():
    # the child process imports the package from where this one does, also
    # when pytest's pythonpath setting put src/ on the path
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "geoladders.cli", "transport",
         "--manifold", "euclidean-2", "--seed", "1"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("manifold,")


def test_package_runs_as_a_module_from_a_source_tree():
    # python -m geoladders, with the source tree on the path and no install
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "geoladders", "exactness", "--trials", "2"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("manifold,scheme,")


def test_readme_flag_list_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = re.search(r"^Flags: `([^`]*)`", readme, re.M).group(1).split()
    subparsers = build_parser()._subparsers._group_actions[0].choices
    for name, sub in subparsers.items():
        flags = [opt for action in sub._actions for opt in action.option_strings
                 if opt != "--help" and opt.startswith("--")]
        assert flags == documented, name
