"""Geodesic ladder schemes for parallel transport.

One-step constructions (Schild's ladder and the pole ladder in its two
equivalent formulations, plus the reversed-symmetry and averaged variants)
and a multi-rung driver that folds a chosen step along a subdivided geodesic.

All steps take the transported vector u based at p and return the transported
approximation based at q.  Pole ladder bakes the sign flip of the final log
into the step, so callers always receive +u_q.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ConnectionSpace, GeometryError, Point, TangentVector

__all__ = [
    "LADDER_KINDS",
    "LadderScheme",
    "LadderTransportResult",
    "schild_step",
    "pole_step_v1",
    "pole_step_v2",
    "pole_step_alt",
    "pole_step_averaged",
    "ladder_step",
    "transport_along_geodesic",
]

@dataclass(frozen=True)
class LadderScheme:
    """Scheme selection plus the vector rescaling applied around the fold.

    ``vector_scaling`` shrinks u before the ladder runs and is inverted on
    the result (transport is linear, so this is exact in the limit).  ``None``
    means the driver default: 1 for a single rung, 1/n_rungs otherwise.
    """

    kind: str = "pole_v2"
    vector_scaling: float | None = None

    def __post_init__(self):
        if self.kind not in LADDER_KINDS:
            raise ValueError(f"unknown ladder kind {self.kind!r}")
        if self.vector_scaling is not None and not 0.0 < self.vector_scaling <= 1.0:
            raise ValueError("vector_scaling must lie in (0, 1]")


@dataclass(frozen=True)
class LadderTransportResult:
    vector: TangentVector


def schild_step(space: ConnectionSpace, p: Point, q: Point,
                u: TangentVector) -> TangentVector:
    """One geodesic parallelogram: first-order transport of u from p to q.

    Builds x0 = exp_p(u), takes the midpoint m of [x0, q], extends the
    geodesic from p through m to twice its length, and reads the result off
    at q.
    """
    x0 = space.exp(p, u)
    m = space.midpoint(x0, q)
    x1 = space.exp(p, 2.0 * space.log(p, m))
    return space.log(q, x1)


def pole_step_v1(space: ConnectionSpace, p: Point, q: Point,
                 u: TangentVector) -> TangentVector:
    """Pole ladder by double geodesic shooting through the midpoint.

    m = exp_p(log_p(q)/2); p' = exp_p(u); q' = exp_{p'}(2 log_{p'}(m));
    returns -log_q(q').
    """
    m = space.exp(p, 0.5 * space.log(p, q))
    p1 = space.exp(p, u)
    q1 = space.exp(p1, 2.0 * space.log(p1, m))
    return -space.log(q, q1)


def pole_step_v2(space: ConnectionSpace, p: Point, q: Point,
                 u: TangentVector) -> TangentVector:
    """Pole ladder by midpoint symmetries (numerically the more stable form).

    Reflects p' = exp_p(u) through the midpoint of [p, q], then through q;
    the two constructions agree with pole_step_v1 up to solver tolerances.
    """
    m = space.midpoint(p, q)
    p1 = space.exp(p, u)
    q1 = space.geodesic_symmetry(m, p1)
    q2 = space.geodesic_symmetry(q, q1)
    return space.log(q, q2)


def pole_step_alt(space: ConnectionSpace, p: Point, q: Point,
                  u: TangentVector) -> TangentVector:
    """Pole ladder with the symmetry order reversed: at p first, then at m.

    On locally symmetric spaces this agrees with pole_step_v2 exactly; on
    generic spaces the two differ in their fourth-order error terms.
    """
    m = space.midpoint(p, q)
    p1 = space.exp(p, -u)  # = s_p(exp_p(u))
    q1 = space.geodesic_symmetry(m, p1)
    return space.log(q, q1)


def pole_step_averaged(space: ConnectionSpace, p: Point, q: Point,
                       u: TangentVector) -> TangentVector:
    """Tangent-space average at q of the two symmetry orders.

    Averaging does not cancel the leading error, so the step stays third
    order like its parents.
    """
    a = pole_step_v2(space, p, q, u)
    b = pole_step_alt(space, p, q, u)
    return TangentVector(a.base, 0.5 * (a.components + b.components))


_STEPS = {
    "schild": schild_step,
    "pole_v1": pole_step_v1,
    "pole_v2": pole_step_v2,
    "pole_alt": pole_step_alt,
    "pole_avg": pole_step_averaged,
}

LADDER_KINDS = tuple(_STEPS)


def ladder_step(space: ConnectionSpace, p: Point, q: Point, u: TangentVector,
                scheme) -> TangentVector:
    """Run one step of the scheme given by kind string or LadderScheme."""
    kind = scheme.kind if isinstance(scheme, LadderScheme) else scheme
    try:
        step = _STEPS[kind]
    except KeyError:
        raise ValueError(f"unknown ladder kind {kind!r}")
    return step(space, p, q, u)


def transport_along_geodesic(space: ConnectionSpace, p: Point, q: Point,
                             u: TangentVector, n_rungs: int = 1,
                             scheme: LadderScheme | str = "pole_v2",
                             ) -> LadderTransportResult:
    """Fold a one-step scheme over n_rungs equal-parameter segments of [p, q].

    The vector is multiplied by the scheme's vector_scaling before the fold
    and by its inverse after; a rung failure re-raises the underlying error
    object, with its attributes intact and the failing rung index prefixed to
    its message.
    """
    if isinstance(scheme, str):
        scheme = LadderScheme(scheme)
    if n_rungs < 1:
        raise ValueError("n_rungs must be at least 1")
    step = _STEPS[scheme.kind]
    w = space.log(p, q)
    rail = [p]
    for i in range(1, n_rungs):
        rail.append(space.exp(p, (i / n_rungs) * w))
    rail.append(q)
    scaling = scheme.vector_scaling if scheme.vector_scaling is not None \
        else 1.0 / n_rungs
    current = scaling * u
    for i in range(n_rungs):
        try:
            current = step(space, rail[i], rail[i + 1], current)
        except GeometryError as err:
            err.args = (f"rung {i + 1}/{n_rungs}: {err}",)
            raise
    return LadderTransportResult((1.0 / scaling) * current)
