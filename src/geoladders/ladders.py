"""Geodesic ladder schemes for parallel transport.

One entry point, ``ladder_step``, runs one step of a kind in LADDER_KINDS
(Schild's ladder and the pole ladder in its two equivalent formulations,
plus the reversed-symmetry and averaged variants), and a multi-rung driver
folds a chosen kind along a subdivided geodesic.

All steps take the transported vector u based at p and return the transported
approximation based at q.  Pole ladder bakes the sign flip of the final log
into the step, u_q = -log_q(s_m(exp_p(u))), so callers always receive +u_q.

Every step reads its kind from a rung record, which holds the step's inputs
and makes on first use the maps the pole kinds share, so several kinds read
from one record make each map once.  The pole steps reflect through the
midpoint m of [p, q].  As in the paper's analysis, where p = exp_m(-v) and
q = exp_m(v), m is an input: a caller that built p and q from m, or a rail
that holds it, passes it, and the record skips the log and exp of
``space.midpoint``.  Without it the record computes m itself.  Schild's
ladder reflects through the midpoint of another segment, [exp_p(u), q], and
takes none.  The multi-rung driver builds its whole rail, midpoints
included, with one ``space.geodesic`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

from .core import ConnectionSpace, GeometryError, Point, TangentVector

__all__ = [
    "LADDER_KINDS",
    "LadderTransportResult",
    "ladder_step",
    "transport_along_geodesic",
]


@dataclass(frozen=True)
class LadderTransportResult:
    vector: TangentVector


class _Rung:
    """One step's inputs (space, p, q, u and the midpoint m of [p, q]) and,
    made on first use, the maps the pole kinds share: m, exp_p(u),
    exp_p(-u), v2 = -log_q(s_m(exp_p(u))) and alt = log_q(s_m(exp_p(-u))).

    A given midpoint is the caller's contract and is not verified; without
    it the record computes space.midpoint(p, q) when a kind first reads m.
    """

    def __init__(self, space: ConnectionSpace, p: Point, q: Point,
                 u: TangentVector, m: Point | None = None):
        self.space, self.p, self.q, self.u = space, p, q, u
        if m is not None:
            self.m = m

    @cached_property
    def m(self) -> Point:
        return self.space.midpoint(self.p, self.q)

    @cached_property
    def exp_u(self) -> Point:
        return self.space.exp(self.p, self.u)

    @cached_property
    def exp_minus_u(self) -> Point:
        # = s_p(exp_p(u))
        return self.space.exp(self.p, -self.u)

    def _reflect_log(self, x: Point) -> TangentVector:
        """log_q(s_m(x)): reflect x through m and read it off at q."""
        return self.space.log(self.q, self.space.geodesic_symmetry(self.m, x))

    @cached_property
    def v2(self) -> TangentVector:
        return -self._reflect_log(self.exp_u)

    @cached_property
    def alt(self) -> TangentVector:
        return self._reflect_log(self.exp_minus_u)

    def step(self, scheme: str) -> TangentVector:
        """The step of the kind named by scheme, one of LADDER_KINDS."""
        return _kind(scheme)(self)


def _schild(r: _Rung) -> TangentVector:
    """Extend [p, midpoint of [exp_p(u), q]] to twice its length and read the
    end off at q: one geodesic parallelogram, first order."""
    space = r.space
    m = space.midpoint(r.exp_u, r.q)
    x1 = space.exp(r.p, 2.0 * space.log(r.p, m))
    return space.log(r.q, x1)


def _pole_v1(r: _Rung) -> TangentVector:
    """Double shooting: -log_q(exp_p'(2 log_p'(m))) for p' = exp_p(u)."""
    space, p1 = r.space, r.exp_u
    q1 = space.exp(p1, 2.0 * space.log(p1, r.m))
    return -space.log(r.q, q1)


def _pole_avg(r: _Rung) -> TangentVector:
    """Mean of pole_v2 and pole_alt; it does not cancel their leading error,
    so it stays third order."""
    a, b = r.v2, r.alt
    return TangentVector(a.base, 0.5 * (a.components + b.components))


_KINDS = {
    "schild": _schild,
    "pole_v1": _pole_v1,
    "pole_v2": attrgetter("v2"),
    "pole_alt": attrgetter("alt"),
    "pole_avg": _pole_avg,
}

LADDER_KINDS = tuple(_KINDS)
# the pole kinds, which reflect through the midpoint of [p, q] and take it;
# Schild's ladder reflects through the midpoint of [exp_p(u), q]
_TAKES_MIDPOINT = tuple(kind for kind in LADDER_KINDS if kind != "schild")


def _kind(scheme: str):
    try:
        return _KINDS[scheme]
    except KeyError:
        raise ValueError(f"unknown ladder kind {scheme!r}") from None


def ladder_step(space: ConnectionSpace, p: Point, q: Point, u: TangentVector,
                scheme: str, midpoint: Point | None = None) -> TangentVector:
    """Run one step of the scheme named by its kind, one of LADDER_KINDS.

    ``pole_v2`` is -log_q(s_m(exp_p(u))); its sign flip stands in for the
    symmetry through q, and it agrees with ``pole_v1`` up to solver
    tolerances.  ``pole_alt``, log_q(s_m(exp_p(-u))), reflects at p first:
    exact like ``pole_v2`` on locally symmetric spaces, it differs from it
    in the fourth-order error terms elsewhere.  A pole step is handed
    ``midpoint``, the midpoint m of [p, q], when the caller holds it, and
    does not verify it; Schild's step ignores it.
    """
    return _Rung(space, p, q, u, midpoint).step(scheme)


def transport_along_geodesic(space: ConnectionSpace, p: Point, q: Point,
                             u: TangentVector, n_rungs: int = 1,
                             scheme: str = "pole_v2") -> LadderTransportResult:
    """Fold a one-step scheme over n_rungs equal-parameter segments of [p, q].

    The vector is scaled by 1/n_rungs before the fold and by n_rungs after,
    so each rung carries a vector as short as its segment; a rung failure
    re-raises the underlying error object, with its attributes intact and
    the failing rung index prefixed to its message.  The rail comes from
    one ``space.geodesic`` call along the one log of [p, q]; for the pole
    kinds it runs at half steps, and each rung is handed its midpoint from
    it, so a rung shoots no log to find it.
    """
    _kind(scheme)
    if n_rungs < 1:
        raise ValueError("n_rungs must be at least 1")
    w = space.log(p, q)
    if scheme in _TAKES_MIDPOINT:
        # k / (2 n) rounds the same real number as (i + 1/2) / n or i / n
        pts = space.geodesic(p, w, [k / (2 * n_rungs)
                                    for k in range(1, 2 * n_rungs)])
        mids, inner = pts[0::2], pts[1::2]
    else:
        mids = [None] * n_rungs
        inner = space.geodesic(p, w, [i / n_rungs for i in range(1, n_rungs)])
    rail = [p, *inner, q]
    # (1 / scaling) * current, not n_rungs * current: the two differ in the
    # last bit for some n_rungs
    scaling = 1.0 / n_rungs
    current = scaling * u
    for i in range(n_rungs):
        try:
            current = ladder_step(space, rail[i], rail[i + 1], current, scheme,
                                  mids[i])
        except GeometryError as err:
            err.args = (f"rung {i + 1}/{n_rungs}: {err}",)
            raise
    return LadderTransportResult((1.0 / scaling) * current)
