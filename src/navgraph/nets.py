"""Greedy r-nets and the hierarchy of nets underlying the graph construction.

An r-net of P is a subset Y that is r-separated (distinct net points lie at
distance >= r) and r-covering (every point of P lies within r of some net
point).  The hierarchy stacks nets at radii 2^0, 2^1, ..., 2^top_level over a
point set normalized so its minimum inter-point distance is 2, which makes
level 0 the whole set.

``greedy_r_net`` sweeps coordinate inputs through a grid of cell side r at
these power-of-two radii, testing each point only against the accepted
points in the 3^d cells around its own; the linear sweep stays for other
radii and abstract metrics, and as the grid's oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._grid import cell_keys, fits, neighbour_pairs
from ._util import DomainError, ceil_log2
from .metrics import (
    EuclideanSpace,
    ExtremeEstimate,
    MetricSpace,
    PointSet,
    estimate_extremes,
)

__all__ = [
    "Net",
    "NetHierarchy",
    "NetViolation",
    "greedy_r_net",
    "verify_r_net",
    "build_net_hierarchy",
]

#: Relative slack when validating that a normalized input has min distance 2.
MIN_DISTANCE_RTOL = 1e-9


@dataclass(frozen=True)
class Net:
    """An r-net given by the indices of its members within the point set."""

    radius: float
    members: np.ndarray  # sorted int64 indices into the point set


@dataclass(frozen=True)
class NetViolation:
    """Witness that a candidate net fails separation or covering."""

    kind: str  # "separation" or "covering"
    index_a: int
    index_b: int  # for covering: the uncovered point; for separation: second member
    distance: float


def greedy_r_net(space: MetricSpace, pts: PointSet, radius: float) -> np.ndarray:
    """Indices of the net produced by the index-order greedy sweep.

    Walk points in index order; accept a point iff it lies at distance >= r
    from every point accepted so far.  The result is r-separated by
    construction and r-covering because every rejected point saw an accepted
    point within r.  Deterministic: no RNG, ties resolved by index order.

    Coordinate inputs at a power-of-two radius, the radii the hierarchy
    uses, take the grid sweep when their cell indices fit in int64 and the
    3^d cells a point looks up are fewer than a third of the points: on
    uniform input at d = 4 to 7 the grid overtakes the linear sweep between
    1.5 and 3 times 3^d points.  Other inputs take the linear sweep, which
    is also the grid's oracle.
    """
    if radius <= 0:
        raise DomainError(f"net radius must be positive, got {radius}")
    grid = (
        not pts.is_abstract
        and isinstance(space, EuclideanSpace)
        and math.frexp(radius)[0] == 0.5  # a power of two
        and 3 ** (pts.dim + 1) < pts.n
        and fits(pts.points, radius)
    )
    if grid:
        return _greedy_r_net_grid(space, pts, radius)
    return _greedy_r_net_linear(space, pts, radius)


def _greedy_r_net_linear(space: MetricSpace, pts: PointSet, radius: float) -> np.ndarray:
    """The definitional sweep: one distance row per point against the accepted."""
    accepted: list[int] = []
    for i in range(pts.n):
        if not accepted:
            accepted.append(i)
            continue
        row = space.distances(pts.points[np.asarray(accepted)], pts.points[i])
        if (row >= radius).all():
            accepted.append(i)
    return np.asarray(accepted, dtype=np.int64)


#: Points decided per step of the grid sweep.
NET_BLOCK = 256


def _greedy_r_net_grid(space: EuclideanSpace, pts: PointSet, radius: float) -> np.ndarray:
    """The linear sweep's net, with accepted points bucketed in cells of side r.

    Points go in index order, ``NET_BLOCK`` at a time.  A point is rejected
    when an earlier accepted point lies closer than r; its candidates are
    the accepted points in the 3^d cells around its own, earlier blocks'
    found in one gather and its own block's resolved in index order.  The
    distances come from ``space._pair_distances``, the arithmetic of
    ``space.distances``, and the accept rule is the sweep's, so the net is
    the same, provided no point closer than r is missed:

    * r = 2^i, so x / r is exact unless it underflows; an underflowing x
      lies within 2^-1022 * r of 0, and every float within r of it lies in
      [-r, r], in the cells -1, 0 or 1.
    * A computed distance below r has a computed sum of squares below r^2
      (sqrt is correctly rounded and r^2 is exact), so every computed
      dx_k^2, and with it every computed |dx_k|, is below r; a true
      |dx_k| >= r would round to at least r.  For L-infinity the computed
      |dx_k| are themselves below r.
    * Hence every true |dx_k| is below r, and the two cell indices differ
      by at most one on every axis.
    """
    points = pts.points
    keys, shifts = cell_keys(points, radius)
    acc_keys = np.empty(0, dtype=np.int64)  # accepted points' cells, ascending
    acc_rows = np.empty(0, dtype=np.int64)
    for start in range(0, pts.n, NET_BLOCK):
        block = np.arange(start, min(start + NET_BLOCK, pts.n))
        rejected = np.zeros(len(block), dtype=bool)
        for q, pos in neighbour_pairs(acc_keys, keys[block], shifts):
            close = space._pair_distances(points[block[q]], points[acc_rows[pos]]) < radius
            rejected[q[close]] = True
        block = block[~rejected]
        if len(block) == 0:
            continue
        bkeys = keys[block]
        order = np.argsort(bkeys, kind="stable")
        later, earlier = [], []
        for q, pos in neighbour_pairs(bkeys[order], bkeys, shifts):
            c = order[pos]
            q, c = q[c < q], c[c < q]
            close = space._pair_distances(points[block[q]], points[block[c]]) < radius
            later.append(q[close])
            earlier.append(c[close])
        keep = [True] * len(block)
        # the pairs come in ascending order of their later point, so each
        # earlier point is decided before any pair reads it
        for i, j in zip(np.concatenate(later).tolist(), np.concatenate(earlier).tolist()):
            if keep[j]:
                keep[i] = False
        new = block[np.array(keep, dtype=bool)]
        new = new[np.argsort(keys[new], kind="stable")]
        at = np.searchsorted(acc_keys, keys[new])
        acc_keys = np.insert(acc_keys, at, keys[new])
        acc_rows = np.insert(acc_rows, at, new)
    return np.sort(acc_rows)


def verify_r_net(
    space: MetricSpace, pts: PointSet, radius: float, members: np.ndarray
) -> Optional[NetViolation]:
    """Check separation and covering; return the first violation or None.

    The definitional check: the tests' oracle for the net premises that
    ``verify_net_pg_properties`` reads off the edge rule.
    """
    members = np.asarray(members, dtype=np.int64)
    if len(members) == 0:
        return NetViolation(kind="covering", index_a=-1, index_b=0, distance=np.inf)
    net_pts = pts.points[members]
    for k in range(len(members)):
        row = space.distances(net_pts, net_pts[k])
        row[k] = np.inf
        j = int(np.argmin(row))
        if row[j] < radius:
            return NetViolation(
                kind="separation",
                index_a=int(members[k]),
                index_b=int(members[j]),
                distance=float(row[j]),
            )
    member_set = set(int(m) for m in members)
    for i in range(pts.n):
        if i in member_set:
            continue
        row = space.distances(net_pts, pts.points[i])
        j = int(np.argmin(row))
        if row[j] > radius:
            return NetViolation(
                kind="covering",
                index_a=int(members[j]),
                index_b=i,
                distance=float(row[j]),
            )
    return None


@dataclass(frozen=True)
class NetHierarchy:
    """Nets at radii 2^0 .. 2^top_level over a normalized point set.

    Level 0 is always the full index set: with minimum distance 2, every
    point is 1-separated and covers itself.
    """

    top_level: int
    levels: tuple[Net, ...]
    extremes: ExtremeEstimate

    def members(self, level: int) -> np.ndarray:
        return self.levels[level].members


def build_net_hierarchy(
    space: MetricSpace,
    pts: PointSet,
    extremes: Optional[ExtremeEstimate] = None,
) -> NetHierarchy:
    """Build the full stack of greedy nets for a normalized point set.

    Requires minimum inter-point distance 2 (within relative tolerance); use
    :func:`navgraph.netpg.normalize` to bring raw inputs into that form.  The
    top level is ceil(log2(estimated max distance)), so the coarsest net has
    radius at least the true diameter and is a single point.
    """
    if pts.n < 2:
        raise DomainError("a net hierarchy needs at least two points")
    if extremes is None:
        extremes = estimate_extremes(space, pts)
    observed_min = 2.0 * extremes.min_distance  # the estimate halves it
    if abs(observed_min - 2.0) > MIN_DISTANCE_RTOL * 2.0:
        raise DomainError(
            f"point set is not normalized: min distance {observed_min}, expected 2"
        )
    top = ceil_log2(extremes.max_distance)
    levels = []
    all_indices = np.arange(pts.n, dtype=np.int64)
    for i in range(top + 1):
        radius = float(2.0 ** i)
        if i == 0:
            members = all_indices
        else:
            members = greedy_r_net(space, pts, radius)
        levels.append(Net(radius=radius, members=members))
    return NetHierarchy(top_level=top, levels=tuple(levels), extremes=extremes)
