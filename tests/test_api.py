"""The public names of the package, the public methods and class attributes
of the ``ConnectionSpace`` contract, the surface of ``ChartConnection``, the
parameters of the engine and registry entry points and the experiment config
fields, pinned so that API growth or shrinkage shows up as a reviewed diff of
these lists."""

import ast
import inspect
import json
import os
import subprocess
import sys
import types
from dataclasses import fields

import pytest
import scipy.integrate

import geoladders
from geoladders import (ChartConnection, ConnectionSpace, analysis, chart,
                         core, ladders, manifolds)
from geoladders.cli import ExperimentConfig, main

PUBLIC_NAMES = [
    "BumpMetric2D",
    "ChartConnection",
    "ChartSpace",
    "ConfigError",
    "ConnectionSpace",
    "ConvergenceReport",
    "CutLocus",
    "DomainEscape",
    "Euclidean",
    "GeometryError",
    "Hyperbolic",
    "InsufficientData",
    "InvalidBase",
    "LADDER_KINDS",
    "LadderTransportResult",
    "MaxStepsExceeded",
    "NoConvergence",
    "NonFinite",
    "NotSPD",
    "Point",
    "RotationGroup",
    "SPD",
    "Sphere",
    "TangentVector",
    "ToleranceConfig",
    "Unsupported",
    "bch_numeric",
    "bch_series",
    "christoffels_from_metric",
    "convergence_order",
    "curvature_components",
    "generic_directions",
    "geodesic_flow",
    "ladder_step",
    "log_shooting",
    "make_chart",
    "make_space",
    "nabla_curvature_components",
    "one_step_error_sweep",
    "pole_error_measured",
    "pole_error_predicted",
    "registry_names",
    "transport_along_geodesic",
    "transport_ode",
]


def test_public_names_are_pinned():
    # submodules become package attributes once imported, so they are not
    # counted: which of them are present depends on test order
    names = sorted(
        name for name, value in vars(geoladders).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
    assert len(names) == 44


def test_public_names_are_the_modules_all():
    # each module's __all__ is its public list, and the package exports
    # exactly their union
    modules = (analysis, chart, core, ladders, manifolds)
    assert sorted(set().union(*(m.__all__ for m in modules))) == PUBLIC_NAMES


def test_cli_imports_no_private_kernel_names():
    # the CLI parses, configures and writes CSV over the package's kernels;
    # the experiments it runs live in analysis, which may use private names
    tree = ast.parse(inspect.getsource(geoladders.cli))
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and node.module in ("ladders", "core", "geoladders.ladders",
                                   "geoladders.core")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def _is_map_abs(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "map" and len(node.args) == 2
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == "abs")


def test_builtin_sum_only_bounds_absolute_values():
    # sum() compensates its rounding from Python 3.12 on, so a kernel that
    # summed products with it would round differently across the supported
    # versions; it may add up |entries| for a range bound, which no result
    # carries, and the kernels' sums run left to right
    package = os.path.dirname(geoladders.__file__)
    misuses = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        misuses += [(name, node.lineno) for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "sum"
                    and not (len(node.args) == 1 and not node.keywords
                             and _is_map_abs(node.args[0]))]
    assert misuses == []


CONTRACT_METHODS = [
    "curvature",
    "dist",
    "exp",
    "exp_transport",
    "geodesic",
    "geodesic_symmetry",
    "inner",
    "log",
    "log_stats",
    "membership_residual",
    "midpoint",
    "nabla_curvature",
    "norm",
    "point",
    "random_direction",
    "random_point",
    "tangency_residual",
    "tangent",
    "tangent_basis",
    "transport",
]


def test_contract_methods_are_pinned():
    names = sorted(
        name for name, _ in inspect.getmembers(ConnectionSpace, inspect.isfunction)
        if not name.startswith("_")
    )
    assert names == CONTRACT_METHODS


@pytest.mark.parametrize("cls", [manifolds.Euclidean, manifolds.Sphere,
                                 manifolds.Hyperbolic, manifolds.SPD,
                                 manifolds.RotationGroup, chart.ChartSpace,
                                 manifolds.BumpMetric2D])
def test_spaces_override_only_the_constraint_and_sampling_methods(cls):
    # a space supplies kernels; the public methods, which check the points
    # and wrap the results, are the contract's own
    assert set(vars(cls)) & set(CONTRACT_METHODS) <= {
        "membership_residual", "random_point", "tangency_residual"}


# one radius: a second one, or any other flag on the contract, shows up here
CONTRACT_ATTRIBUTES = [
    "ambient_dim",
    "dim",
    "has_metric",
    "injectivity_radius",
    "locally_symmetric",
    "name",
]


def test_contract_attributes_are_pinned():
    names = sorted(
        name for name, value in vars(ConnectionSpace).items()
        if not name.startswith("_") and not inspect.isfunction(value)
    )
    assert names == CONTRACT_ATTRIBUTES


# the connection holds a chart's data and their checks, and the engine holds
# the one contraction of it: a second contraction shows up here
CHART_CONNECTION_FIELDS = [
    "dim", "christoffel", "chart_bounds", "grad_f", "hess_f", "interior",
]
CHART_CONNECTION_METHODS = ["conformal", "gamma", "in_bounds"]


def test_chart_connection_surface_is_pinned():
    names = [f.name for f in fields(ChartConnection)]
    assert names == CHART_CONNECTION_FIELDS
    methods = sorted(name for name in dir(ChartConnection)
                     if not name.startswith("_") and name not in names)
    assert methods == CHART_CONNECTION_METHODS


# one integrator and no per-space options: a knob added to any of these
# entry points shows up here
ENTRY_POINT_PARAMETERS = {
    "ChartSpace": ["name", "connection", "metric", "tolerances", "anchor"],
    "BumpMetric2D": ["beta", "tolerances"],
    "make_space": ["name", "tolerances"],
    "geodesic_flow": ["conn", "x", "v", "t", "tolerances"],
    "log_shooting": ["conn", "x", "y", "tolerances"],
    "transport_ode": ["conn", "u", "x", "v", "t", "tolerances"],
    "ladder_step": ["space", "p", "q", "u", "scheme", "midpoint"],
    "transport_along_geodesic": ["space", "p", "q", "u", "n_rungs", "scheme"],
    "generic_directions": ["space", "m", "rng"],
    "convergence_order": ["scales", "errors", "noise_floor"],
    "pole_error_predicted": ["space", "m", "u", "v", "scheme"],
    "one_step_error_sweep": ["space", "m", "u_dir", "v_dir", "scales", "scheme",
                             "n_rungs"],
}


def test_entry_point_parameters_are_pinned():
    # the signature of a class is that of its __init__ without self
    params = {name: list(inspect.signature(getattr(geoladders, name)).parameters)
              for name in ENTRY_POINT_PARAMETERS}
    assert params == ENTRY_POINT_PARAMETERS


CONFIG_FIELDS = [
    "command", "manifold", "scheme", "h_min", "h_max", "num_scales",
    "n_rungs", "seed", "trials", "output", "noise_floor", "dist_cap",
    "u_cap", "p", "q", "u", "exactness_tol", "ode_rel_tol", "ode_abs_tol",
    "max_shooting_iters",
]


def test_config_fields_are_pinned(tmp_path, capsys):
    assert [f.name for f in fields(ExperimentConfig)] == CONFIG_FIELDS
    # the removed fixed-step integrator is neither a flag nor a config key
    assert main(["convergence", "--manifold", "bump2d", "--fixed-step"]) == 1
    assert "unrecognized arguments: --fixed-step" in capsys.readouterr().err
    cfg = tmp_path / "old.cfg"
    cfg.write_text("fixed_step = true\n")
    assert main(["convergence", "--manifold", "bump2d",
                 "--config", str(cfg)]) == 1
    assert "unknown key 'fixed_step'" in capsys.readouterr().err


# a child process that runs the package, then prints its exit code and the
# scipy modules it loaded; argv None only imports the package
_FOOTPRINT_CHILD = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
import geoladders
from geoladders import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = 0 if argv is None else cli.main(argv)
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.partition(".")[0] == "scipy")]))
"""


def test_package_runs_without_loading_scipy():
    # the engine holds scipy's DOP853 tableau and the sphere computes
    # scipy's null space with numpy, so neither an import nor the paper's
    # short runs load scipy, which took most of the import time
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for argv in (None, ["exactness", "--trials", "1"],
                 ["convergence", "--manifold", "bump2d", "--h-min", "0.02",
                  "--h-max", "0.2", "--num-scales", "5", "--seed", "1"]):
        proc = subprocess.run(
            [sys.executable, "-c", _FOOTPRINT_CHILD, json.dumps(argv)],
            capture_output=True, text=True, env=env, check=True)
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, []], argv
    # scipy's solve_ivp is loaded only when the name is looked up; the
    # benchmark's tracer patches it there
    assert chart.solve_ivp is scipy.integrate.solve_ivp
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(chart, "no_such_name")
    assert not hasattr(chart, "DOP853")
