"""Geodesic ladder schemes for parallel transport.

One entry point, ``ladder_step``, runs one step of a kind in LADDER_KINDS
(Schild's ladder and the pole ladder in its two equivalent formulations,
plus the reversed-symmetry and averaged variants), and a multi-rung driver
folds a chosen kind along a subdivided geodesic.

All steps take the transported vector u based at p and return the transported
approximation based at q.  Pole ladder bakes the sign flip of the final log
into the step, u_q = -log_q(s_m(exp_p(u))), so callers always receive +u_q.

A pole kind is one row of ``_POLES``: the sign σ of the point exp_p(σu) it
opens at, and the rule that reflects that point through the midpoint m of
[p, q]; its step is -σ log_q(z) of the reflected point z.  Every step reads
its kind from a rung record, ``_Rung``, which makes each map once for all
the kinds read from it.  As in the paper's analysis, where p = exp_m(-v)
and q = exp_m(v), m is an input: a caller or a rail that holds it hands it
on, and the record skips the log and exp of ``space.midpoint``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


def _double_shoot(space: ConnectionSpace, m: Point, x: Point) -> Point:
    """x reflected through m by double shooting: exp_x(2 log_x(m))."""
    return space.exp(x, 2.0 * space.log(x, m))


def _symmetry(space: ConnectionSpace, m: Point, x: Point) -> Point:
    """x reflected through m by the space's geodesic symmetry s_m."""
    return space.geodesic_symmetry(m, x)


# kind: (σ, the rule reflecting exp_p(σu) through m)
_POLES = {
    "pole_v1": (1, _double_shoot),
    "pole_v2": (1, _symmetry),
    "pole_alt": (-1, _symmetry),
}


def _sign(kind: str) -> int:
    """σ of a kind in _POLES, 0 for any other kind."""
    return _POLES[kind][0] if kind in _POLES else 0


class _Openings(dict):
    """The points exp_p(σu) a rung opens at, by sign σ, each made on first
    use; a rail files the one point it hands on in a plain dict instead."""

    def __init__(self, space: ConnectionSpace, p: Point, u: TangentVector):
        super().__init__()
        self.space, self.p, self.u = space, p, u

    def __missing__(self, sign: int) -> Point:
        point = self[sign] = self.space.exp(
            self.p, self.u if sign == 1 else -self.u)
        return point


class _Rung:
    """One step's inputs (space, p, q, the openings exp_p(σu) by sign σ and
    the midpoint m of [p, q], given and not verified, or else computed on
    first read) and, made on first use and kept, the points the pole kinds
    reflect to and the steps, one per kind."""

    def __init__(self, space: ConnectionSpace, p: Point, q: Point,
                 opened: dict, m: Point | None = None):
        self.space, self.p, self.q, self.opened = space, p, q, opened
        if m is not None:
            self.m = m
        self._reflected, self._steps = {}, {}

    @cached_property
    def m(self) -> Point:
        return self.space.midpoint(self.p, self.q)

    def reflected(self, kind: str) -> Point:
        """The point z a pole kind in _POLES reflects its opening to."""
        if kind not in self._reflected:
            sign, reflect = _POLES[kind]
            self._reflected[kind] = reflect(self.space, self.m,
                                            self.opened[sign])
        return self._reflected[kind]

    def step(self, kind: str) -> TangentVector:
        """The step of the kind, one of LADDER_KINDS."""
        if kind not in self._steps:
            if _sign(kind):
                log = self.space.log(self.q, self.reflected(kind))
                self._steps[kind] = -log if _sign(kind) == 1 else log
            else:
                self._steps[kind] = _OTHERS[_kind(kind)](self)
        return self._steps[kind]


def _rung(space: ConnectionSpace, p: Point, q: Point, u: TangentVector,
          m: Point | None = None) -> _Rung:
    """The record of one step of u from p to q, opening at exp_p(±u)."""
    return _Rung(space, p, q, _Openings(space, p, u), m)


def _schild(r: _Rung) -> TangentVector:
    """Extend [p, midpoint of [exp_p(u), q]] to twice its length and read the
    end off at q: one geodesic parallelogram, first order."""
    m = r.space.midpoint(r.opened[1], r.q)
    return r.space.log(r.q, _double_shoot(r.space, m, r.p))


def _pole_avg(r: _Rung) -> TangentVector:
    """Mean of pole_v2 and pole_alt; it does not cancel their leading error,
    so it stays third order."""
    a, b = r.step("pole_v2"), r.step("pole_alt")
    return TangentVector(a.base, 0.5 * (a.components + b.components))


_OTHERS = {"schild": _schild, "pole_avg": _pole_avg}
# the pole kinds, which reflect through the midpoint of [p, q] and take it;
# Schild's ladder reflects through the midpoint of [exp_p(u), q]
_TAKES_MIDPOINT = (*_POLES, "pole_avg")
LADDER_KINDS = ("schild", *_TAKES_MIDPOINT)


def _kind(scheme: str) -> str:
    """scheme itself, when it names one of LADDER_KINDS."""
    if scheme not in LADDER_KINDS:
        raise ValueError(f"unknown ladder kind {scheme!r}")
    return scheme


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
    return _rung(space, p, q, u, midpoint).step(scheme)


def transport_along_geodesic(space: ConnectionSpace, p: Point, q: Point,
                             u: TangentVector, n_rungs: int = 1,
                             scheme: str = "pole_v2") -> LadderTransportResult:
    """Fold a one-step scheme over n_rungs equal-parameter segments of [p, q].

    The vector is scaled by 1/n_rungs before the fold and by n_rungs after,
    so each rung carries a vector as short as its segment; a rung failure
    re-raises the underlying error object, with its attributes intact and
    the failing rung index prefixed to its message.  The rail, midpoints
    included for the pole kinds, comes from one ``space.geodesic`` call
    along the one log of [p, q], so a rung shoots no log to find them.

    A rung of a kind in _POLES would close with the step u' = -σ log_q(z),
    and the next rung would open at exp_q(σu'), which is the symmetry
    s_q(z); the rail opens that rung at s_q(z), filed under σ, and takes
    the one closing log on the last rung: n rungs of pole_v2 make 1 exp,
    2 logs, 1 geodesic call and 2n - 1 symmetries.  A failing hand-off
    carries the index of the rung it starts.
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
    sign = _sign(scheme)
    current, z = scaling * u, None
    for i in range(n_rungs):
        try:
            opened = (_Openings(space, rail[i], current) if z is None
                      else {sign: space.geodesic_symmetry(rail[i], z)})
            rung = _Rung(space, rail[i], rail[i + 1], opened, mids[i])
            if sign and i + 1 < n_rungs:
                z = rung.reflected(scheme)
            else:
                current = rung.step(scheme)
        except GeometryError as err:
            err.args = (f"rung {i + 1}/{n_rungs}: {err}",)
            raise
    return LadderTransportResult((1.0 / scaling) * current)
