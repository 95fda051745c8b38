import math
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

from geoladders import (NonFinite, Sphere, cli, ladder_step, make_space,
                         pole_error_predicted)
from geoladders.analysis import exactness_sweep, sample_trial
from geoladders.cli import (
    ExperimentConfig,
    build_parser,
    load_config_file,
    main,
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


@pytest.mark.parametrize("manifold, text, message", [
    ("sphere-2", "p = 1,0,0\nq = 0,1,0\nu = 0,abc,0\n", "could not convert"),
    ("sphere-2", "p = 1,0,0\nq = 0,1,0\nu = 0,1\n", "components of length 2"),
    ("sphere-2", "p = 1,0,0\nq = 0,2,0\nu = 0,0,0.3\n", "override q is off"),
    ("sphere-2", "p = 1,0,0\nq = 0,1,0\nu = 1,0,0\n", "override u is off"),
    ("spd-3", "p = 1,0.1,0,0,1,0,0,0,1\nq = 1,0,0,0,1,0,0,0,1\n",
     "override p is off"),
], ids=["unparsed-u", "short-u", "q-off-sphere", "u-not-tangent",
        "asymmetric-p"])
def test_transport_bad_override_is_a_config_error(tmp_path, capsys, manifold,
                                                  text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    rc = main(["transport", "--manifold", manifold, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("config error:")
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("args, text", [
    (["convergence", "--manifold", "{name}", "--h-max", "1e300",
      "--h-min", "1e299"], None),
    (["transport", "--manifold", "{name}", "--config", "{cfg}"],
     "u_cap = 1e300\n"),
], ids=["convergence-scales", "transport-u-cap"])
@pytest.mark.parametrize("name", ["sphere-2", "so3", "euclidean-3",
                                  "hyperbolic-2", "spd-3", "bump2d"])
def test_overflowing_tangent_norm_exits_2(tmp_path, capsys, args, text, name):
    # the contract's vector check raises on every space, before a kernel
    # can warn, return inf or fail to integrate
    cfg = tmp_path / "run.cfg"
    if text is not None:
        cfg.write_text(text)
    assert main([a.format(name=name, cfg=cfg) for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert "NonFinite" in captured.err and "float range" in captured.err
    assert captured.out == ""


def test_unknown_manifold_exits_1(capsys):
    assert main(["transport", "--manifold", "nosuch"]) == 1
    assert "config error" in capsys.readouterr().err


def test_second_spelling_of_a_manifold_exits_1(tmp_path, capsys):
    # sphere-02 would run sphere-2 while the CSV and its config hash named
    # it sphere-02
    out = tmp_path / "t.csv"
    assert main(["transport", "--manifold", "sphere-02", "--output",
                 str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: unknown manifold")
    assert not out.exists()


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


def test_running_slope_is_the_fit_of_the_errors_above_the_floor(capsys):
    # euclidean errors are round-off at or below the noise floor, which
    # the summary's fit masks; the running slope masks them too instead of
    # fitting a slope to noise
    assert main(["convergence", "--manifold", "euclidean-2"]) == 0
    *rows, summary = capsys.readouterr().out.splitlines()[1:]
    assert summary == "# exact within tolerance (all errors at the noise floor)"
    assert len(rows) == 7 and [r.split(",")[6] for r in rows] == ["nan"] * 7
    # over all the scales it is the summary's fit
    assert main(["convergence", "--manifold", "bump2d", "--seed", "4",
                 "--h-min", "0.05", "--h-max", "0.5", "--num-scales", "5"]) == 0
    *rows, summary = capsys.readouterr().out.splitlines()[1:]
    running = float(rows[-1].split(",")[6])
    assert summary.startswith(f"# fitted_slope={running:.6f} ")


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


_BUMP_SWEEP = ["convergence", "--manifold", "bump2d", "--seed", "4",
               "--h-min", "0.05", "--h-max", "0.5", "--num-scales", "5"]


def test_convergence_over_two_rungs_predicts_nothing(tmp_path):
    # the predictor is a one-step term, so a multi-rung sweep leaves it nan
    out = tmp_path / "r.csv"
    assert main(_BUMP_SWEEP + ["--n-rungs", "2", "--output", str(out)]) == 0
    _, rows, comments = read_rows(out)
    assert [r[3] for r in rows] == ["2"] * 5
    assert all(math.isnan(float(r[5])) for r in rows)
    errors = [float(r[4]) for r in rows]
    assert all(math.isfinite(e) for e in errors)
    assert errors == sorted(errors, reverse=True)  # h falls down the rows
    fit = [c for c in comments if "fitted_slope" in c][0]
    # 3.826 on the machine it was written on
    assert 3.82 <= float(fit.split("fitted_slope=")[1].split()[0]) <= 3.83


@pytest.mark.parametrize("scheme", ["pole_alt", "pole_avg", "schild"])
def test_convergence_predicts_each_scheme_by_its_own_term(tmp_path, scheme):
    out = tmp_path / "p.csv"
    assert main(_BUMP_SWEEP + ["--scheme", scheme, "--output", str(out)]) == 0
    _, rows, _ = read_rows(out)
    cfg = ExperimentConfig(command="convergence", manifold="bump2d",
                           scheme=scheme, seed=4, h_min=0.05, h_max=0.5,
                           num_scales=5)
    space, m, u_dir, v_dir, scales, _ = cli._sweep_setup(cfg)
    assert len(rows) == len(scales)
    for row, h in zip(rows, scales):
        if scheme == "schild":
            assert math.isnan(float(row[5]))
            continue
        u, v = float(h) * u_dir, float(h) * v_dir
        # the reversed variant's term is the main one's at -v, negated
        want = -pole_error_predicted(space, m, u, -v)
        if scheme == "pole_avg":
            want = 0.5 * (pole_error_predicted(space, m, u, v) + want)
        assert float(row[5]) == want.component_norm


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
    captured = capsys.readouterr()
    assert "order threshold" in captured.err
    # the failing check still writes every row
    lines = captured.out.splitlines()
    assert lines[0] == "manifold,order,h,residual,config_hash"
    rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
    scales = np.geomspace(0.5, 0.05, 5)
    assert [(r[1], float(r[2])) for r in rows] == [
        (str(order), float(h)) for order in (1, 3, 4) for h in scales]


def test_bch_check_with_a_nan_curvature_exits_2(monkeypatch, capsys):
    # a NaN residual fits a NaN slope, and nan < order + 0.8 is False, so
    # the check would pass; the fit raises NonFinite instead
    monkeypatch.setattr(Sphere, "_curvature",
                        lambda self, x, u, v, w: np.full_like(u, np.nan))
    rc = main(["bch-check", "--manifold", "sphere-2", "--seed", "6",
               "--h-min", "0.05", "--h-max", "0.5", "--num-scales", "5"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "NonFinite: errors are not finite" in captured.err
    assert captured.out == ""


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
    out = tmp_path / "x.csv"
    rc = main(["exactness", "--manifold", "sphere-2", "--trials", "5",
               "--seed", "3", "--tol-exactness", "1e-18",
               "--output", str(out)])
    assert rc == 4
    assert "exactness failure" in capsys.readouterr().err
    # the failing certification still writes every row
    header, rows, _ = read_rows(out)
    assert header == ["manifold", "scheme", "trials", "excluded",
                      "max_rel_error", "config_hash"]
    assert [(r[0], r[1]) for r in rows] == [
        ("sphere-2", kind) for kind in cli.POLE_SCHEMES]
    assert all(float(r[4]) > 1e-18 for r in rows)


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


def test_exactness_with_every_trial_excluded_exits_3(tmp_path, capsys):
    # caps far past the injectivity radius exclude all three trials, and a
    # manifold with no trial left is not certified
    cfg = tmp_path / "cap.cfg"
    cfg.write_text("dist_cap = 50\nu_cap = 50\n")
    rc = main(["exactness", "--manifold", "sphere-2", "--trials", "3",
               "--seed", "1", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 3
    assert "sphere-2: all 3 trials excluded" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("kernel, message", [
    # max(worst, nan) keeps worst: a NaN oracle would certify the run
    ("_exp_transport", "sphere-2/pole_v1: relative error nan at trial 0"),
    # a NaN distance fails the conditions: the trial would be excluded
    ("_log", "sphere-2: log_p(q) is not finite at trial 0"),
])
def test_exactness_sweep_raises_on_a_nan(monkeypatch, rng, kernel, message):
    space = make_space("sphere-2")
    nan = np.full(space.ambient_dim, np.nan)
    # the transport kernel returns the endpoint and the vector
    monkeypatch.setattr(space, kernel, lambda x, *args: (
        (x, nan) if kernel == "_exp_transport" else nan))
    with pytest.raises(NonFinite, match=re.escape(message)):
        exactness_sweep(space, cli.POLE_SCHEMES, 5, rng)


def test_exactness_with_a_nan_transport_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(Sphere, "_exp_transport",
                        lambda self, x, u, v: (x, np.full_like(u, np.nan)))
    rc = main(["exactness", "--manifold", "sphere-2", "--trials", "5",
               "--seed", "3"])
    captured = capsys.readouterr()
    assert rc == 2
    assert ("NonFinite: sphere-2/pole_v1: relative error nan at trial 0"
            in captured.err)
    assert captured.out == ""


def test_exactness_sweep_excludes_trials_past_the_radius():
    # with u_cap = 4, some draws of |u| pass the injectivity radius pi:
    # the sweep counts those trials as excluded and takes its maximum over
    # the others, which the same draws replayed through the public step
    # and the transport oracle give bit for bit
    space = make_space("sphere-2")
    worst, excluded = exactness_sweep(space, ("pole_v2",), 40,
                                      np.random.default_rng(17), u_cap=4.0)
    rng = np.random.default_rng(17)
    kept = []
    for _ in range(40):
        p, q, u = sample_trial(space, rng, u_cap=4.0)
        if space.norm(u) >= math.pi:
            continue
        err = space.norm(ladder_step(space, p, q, u, "pole_v2")
                         - space.transport(u, q))
        kept.append(err / space.norm(u))
    assert 0 < excluded == 40 - len(kept)
    assert worst == {"pole_v2": max(kept)}
    assert max(kept) <= 1e-10


@pytest.mark.parametrize("name", cli.SYMMETRIC_FLEET)
def test_exactness_sweep_shares_one_midpoint_bit_for_bit(name):
    # the sweep builds one rung record per trial, so the four pole kinds
    # share its midpoint and the maps they have in common; separate steps,
    # each making its own, give the same bits, and each public step is
    # exact against the transport oracle
    space = make_space(name)
    worst, excluded = exactness_sweep(space, cli.POLE_SCHEMES, 20,
                                      np.random.default_rng(31))
    rng = np.random.default_rng(31)
    want, skipped = {kind: 0.0 for kind in cli.POLE_SCHEMES}, 0
    inj = space.injectivity_radius
    for _ in range(20):
        p, q, u = sample_trial(space, rng)
        # the exactness conditions; an infinite radius passes every trial
        if not (space.dist(p, q) < inj and space.norm(u) < inj):
            skipped += 1
            continue
        oracle = space.transport(u, q)
        for kind in cli.POLE_SCHEMES:
            err = space.norm(ladder_step(space, p, q, u, kind) - oracle)
            assert err <= 1e-10 * space.norm(u), (name, kind, err)
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


@pytest.mark.parametrize("text", [
    "p = 1,0,0\n", "q = 1,0,0\n", "u = 0,0.3,0\n",
    "p = 1,0,0\nu = 0,0.3,0\n"], ids=["p", "q", "u", "p-and-u"])
def test_partial_trial_override_is_a_config_error(tmp_path, capsys, text):
    # a trial override is p and q, with or without u; a part of it alone is
    # refused, not dropped for a sampled trial
    cfg = tmp_path / "part.cfg"
    cfg.write_text(text)
    assert main(["transport", "--manifold", "sphere-2",
                 "--config", str(cfg)]) == 1
    assert "needs both p and q" in capsys.readouterr().err


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


# {cfg} is a config file holding the case's text, or no file when the text
# is None; {tmp} is an empty directory
@pytest.mark.parametrize("args, text, message", [
    (["transport"], None, "a manifold name is required"),
    (["transport", "--manifold", "sphere-2", "--config", "{cfg}"],
     "seed = abc\n", "bad int for seed: 'abc'"),
    (["transport", "--manifold", "sphere-2", "--config", "{cfg}"],
     None, "cannot read config file"),
    (["transport", "--manifold", "sphere-2", "--config", "{cfg}"],
     "seed 3\n", ":1: expected key=value"),
    (["transport", "--manifold", "sphere-2", "--config", "{cfg}"],
     "scheme = ladder\n", "unknown scheme 'ladder'"),
    (["convergence", "--manifold", "sphere-2", "--h-min", "0.5",
      "--h-max", "0.5"], None, "h_min must be smaller than h_max"),
    (["transport", "--manifold", "sphere-2", "--n-rungs", "0"], None,
     "n_rungs must be at least 1"),
    (["exactness", "--trials", "0"], None, "trials must be at least 1"),
    (["exactness", "--manifold", "bump2d"], None,
     "bump2d is not flagged locally symmetric"),
    (["exactness", "--trials", "2", "--output", "{tmp}/missing/x.csv"], None,
     "cannot write"),
    (["exactness", "--trials", "2", "--output", "{tmp}"], None,
     "cannot write"),
    (["exactness", "--manifold", "euclidean-0", "--trials", "2"], None,
     "euclidean dimension must be at least 1"),
], ids=["no-manifold", "bad-typed-value", "unreadable-config", "no-equals",
        "unknown-scheme", "h-min-not-below-h-max", "no-rungs", "no-trials",
        "not-symmetric", "output-in-missing-dir", "output-is-a-dir",
        "euclidean-0"])
def test_config_errors_exit_1_with_their_message(tmp_path, capsys, args, text,
                                                 message):
    cfg = tmp_path / "run.cfg"
    if text is not None:
        cfg.write_text(text)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = [a.format(cfg=cfg, tmp=out_dir) for a in args]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    assert message in captured.err
    assert captured.out == ""


def test_unwritable_output_is_reported_before_any_work(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "exactness_sweep",
                        lambda *args: calls.append(args))
    assert main(["exactness", "--trials", "2",
                 "--output", "/nonexistent/x.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: cannot write "
                                   "/nonexistent/x.csv")
    assert captured.out == ""
    assert calls == []


@pytest.mark.parametrize("existing", [True, False],
                         ids=["existing-file", "new-file"])
def test_failed_run_leaves_the_output_as_it_was(tmp_path, monkeypatch, capsys,
                                                existing):
    # the output is checked before the run and written after it: a run that
    # fails in between leaves an existing file untouched and removes the one
    # it created
    def failing_sweep(*args):
        raise NonFinite("injected")

    monkeypatch.setattr(cli, "exactness_sweep", failing_sweep)
    out = tmp_path / "x.csv"
    if existing:
        out.write_text("old rows\n")
    assert main(["exactness", "--trials", "2", "--output", str(out)]) == 2
    assert "NonFinite: injected" in capsys.readouterr().err
    if existing:
        assert out.read_text() == "old rows\n"
    else:
        assert not out.exists()


def test_override_without_u_draws_it_from_the_seed(tmp_path, capsys):
    cfg = tmp_path / "pq.cfg"
    cfg.write_text("p = 1,0,0\nq = 0,1,0\n")
    runs = []
    for _ in range(2):
        assert main(["transport", "--manifold", "sphere-2",
                     "--config", str(cfg)]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1] and runs[0].startswith("manifold,")


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


@pytest.mark.parametrize("name", [
    "euclidean-3", "sphere-2", "hyperbolic-2", "spd-3", "so3", "bump2d"])
def test_sample_trial_builds_one_tangent_basis(name, monkeypatch):
    # the two directions of a trial come from one tangent basis at p, and
    # every triple, and the stream after it, is the one two
    # random_direction calls draw
    space = make_space(name)
    mine, ref = np.random.default_rng(41), np.random.default_rng(41)
    inj = space.injectivity_radius
    dcap = min(0.9 * inj, 2.0) if math.isfinite(inj) else 2.0
    ucap = min(0.45 * inj, 1.0) if math.isfinite(inj) else 1.0
    bases = []
    tangent_basis = space.tangent_basis
    monkeypatch.setattr(space, "tangent_basis",
                        lambda p: bases.append(p) or tangent_basis(p))
    for _ in range(5):
        del bases[:]
        p, q, u = sample_trial(space, mine)
        assert len(bases) == 1
        p_ref = space.random_point(ref)
        d = ref.uniform(0.1, 1.0) * dcap
        q_ref = space.exp(p_ref, d * space.random_direction(ref, p_ref))
        r = ref.uniform(0.1, 1.0) * ucap
        u_ref = r * space.random_direction(ref, p_ref)
        assert p.coords.tobytes() == p_ref.coords.tobytes()
        assert q.coords.tobytes() == q_ref.coords.tobytes()
        assert u.components.tobytes() == u_ref.components.tobytes()
    assert mine.random() == ref.random()


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


def test_readme_python_blocks_run():
    # the fenced python blocks of the README run in order in one namespace
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["sphere"].norm(
        namespace["approx"] - namespace["exact"]) <= 1e-12
