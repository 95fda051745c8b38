"""The public names of the package and the public methods of the
``ConnectionSpace`` contract, pinned so that API growth or shrinkage shows up
as a reviewed diff of these lists."""

import inspect
import types

import geoladders
from geoladders import ConnectionSpace

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
    "conformal_christoffel",
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
    assert len(names) == 52


CONTRACT_METHODS = [
    "curvature",
    "dist",
    "exp",
    "exp_transport",
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
