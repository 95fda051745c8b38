"""The public names of the package, the public methods of the
``ConnectionSpace`` contract, the surface of ``ChartConnection``, the
parameters of the engine and registry entry points and the experiment config
fields, pinned so that API growth or shrinkage shows up as a reviewed diff of
these lists."""

import inspect
import types
from dataclasses import fields

import geoladders
from geoladders import ChartConnection, ConnectionSpace
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
    "LogBranch",
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
    "alt_error_predicted",
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
    "pole_step_alt",
    "pole_step_averaged",
    "pole_step_v1",
    "pole_step_v2",
    "registry_names",
    "schild_step",
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
    assert len(names) == 51


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
