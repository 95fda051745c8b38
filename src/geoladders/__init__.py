"""Parallel transport on affine connection spaces via geodesic ladders.

Closed-form model manifolds and a Christoffel-driven numerical engine share
one connection-space contract; on top sit Schild's ladder and the pole
ladder variants, series/error analysis tools, and an experiment CLI.
"""

from .analysis import (
    ConvergenceReport,
    alt_error_predicted,
    bch_numeric,
    bch_series,
    convergence_order,
    generic_directions,
    one_step_error_sweep,
    pole_error_measured,
    pole_error_predicted,
)
from .chart import (
    ChartConnection,
    ChartSpace,
    christoffels_from_metric,
    curvature_components,
    geodesic_flow,
    log_shooting,
    nabla_curvature_components,
    transport_ode,
)
from .core import (
    ConfigError,
    ConnectionSpace,
    CutLocus,
    DomainEscape,
    GeometryError,
    InsufficientData,
    InvalidBase,
    LogBranch,
    MaxStepsExceeded,
    NoConvergence,
    NonFinite,
    NotSPD,
    Point,
    TangentVector,
    ToleranceConfig,
    Unsupported,
)
from .ladders import (
    LADDER_KINDS,
    LadderTransportResult,
    ladder_step,
    pole_step_alt,
    pole_step_averaged,
    pole_step_v1,
    pole_step_v2,
    schild_step,
    transport_along_geodesic,
)
from .manifolds import (
    BumpMetric2D,
    Euclidean,
    Hyperbolic,
    RotationGroup,
    SPD,
    Sphere,
    make_chart,
    make_space,
    registry_names,
)

__version__ = "0.1.0"
