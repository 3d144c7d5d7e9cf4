"""Greedy r-nets and the hierarchy of nets underlying the graph construction.

An r-net of P is a subset Y that is r-separated (distinct net points lie at
distance >= r) and r-covering (every point of P lies within r of some net
point).  The hierarchy stacks nets at radii 2^0, 2^1, ..., 2^top_level over a
point set normalized so its minimum inter-point distance is 2, which makes
level 0 the whole set.  It owns the distance extremes: one anchor row sets
the top level, the exact minimum checks the normalisation, and the two give
the aspect ratio that sizes the merge's sampling.

Coordinate inputs decide every level the grid takes in one sweep, a point
tested at radius r only against the points accepted at r in the 3^d cells
of side r around its own.  Every other level, which on abstract metrics is
every level, is decided by one linear sweep over all radii at once: one
distance row per point.  ``greedy_r_net`` is that sweep at one radius, the
definitional oracle of both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._grid import cell_keys, fits, neighbour_pairs
from ._util import DomainError, ceil_log2
from .metrics import EuclideanSpace, MetricSpace, PointSet, pairwise_min_distance

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

    The definitional linear sweep at one radius, one distance row per
    point: the oracle of the hierarchy's grid and all-radii sweeps.
    """
    if radius <= 0:
        raise DomainError(f"net radius must be positive, got {radius}")
    return _greedy_sweep(space, pts, [radius])[0][0]


def _on_grid(space: MetricSpace, pts: PointSet, radius: float) -> bool:
    """Whether the hierarchy's net at ``radius``, a power of two, takes the grid sweep.

    Coordinate inputs whose cell indices fit in int64, and whose 3^d cells
    a point looks up are fewer than a third of the points: on uniform input
    at d = 4 to 7 the grid overtakes the linear sweep between 1.5 and 3
    times 3^d points.
    """
    return (
        not pts.is_abstract
        and isinstance(space, EuclideanSpace)
        and 3 ** (pts.dim + 1) < pts.n
        and fits(pts.points, radius)
    )


def _greedy_sweep(space: MetricSpace, pts: PointSet, radii) -> tuple[list[np.ndarray], float]:
    """The linear sweep's net at each of ``radii``, and the least distance measured.

    Points go in index order.  Point i takes one distance row against the
    points accepted at some radius so far (``seen``, ascending) and joins
    the net at radius r iff ``row >= r`` for every seen member of that net:
    the sweep's rule, NaN included, as a net's members are all seen.  At one
    radius the seen points are the net: that is ``greedy_r_net``.  When
    some net keeps every point, every pair is measured exactly once and the
    least distance is the exact minimum.
    """
    if len(radii) == 0:
        return [], np.inf
    points = pts.points
    radii = np.asarray(radii, dtype=np.float64)[:, None]
    seen = np.empty(pts.n, dtype=np.int64)
    seen[0] = 0
    outside = np.zeros((len(radii), pts.n), dtype=bool)  # [k, s]: seen[s] not in net k
    count, least = 1, np.inf
    for i in range(1, pts.n):
        row = space.distances(points.take(seen[:count], axis=0), points[i])
        low = row.min()
        if low < least:
            least = low
        far = row >= radii
        far |= outside[:, :count]
        joins = far.all(axis=1)
        if joins.any():
            outside[:, count] = ~joins
            seen[count] = i
            count += 1
    seen = seen[:count]
    return [seen[~out[:count]] for out in outside], float(least)


#: Points in the grid sweep's first block, doubling up to ``NET_BLOCK``: a
#: small one settles the coarse radii, where all points are near each other.
FIRST_BLOCK = 16
NET_BLOCK = 256


def _grid_sweep(space: EuclideanSpace, pts: PointSet, radii) -> list[np.ndarray]:
    """The linear sweep's net at each of ``radii``, with points bucketed in cells of side r.

    Points go in index order, a block at a time.  A point is rejected at r
    when an earlier point accepted at r lies closer than r; its candidates
    are those in the 3^d cells around its own.  A block's (radius, point)
    pairs take one lookup into the accepted points of every radius, keeping
    the candidates tagged with their own radius, and the pairs left open
    then meet their block's open pairs, resolved in index order.  The
    distances come from ``space._pair_distances``, the arithmetic of
    ``space.distances``, and the accept rule is the sweep's, so each net is
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
    points, n = pts.points, pts.n
    radii = np.asarray(radii, dtype=np.float64)
    keys, shifts = cell_keys(points, *radii)

    def close_pairs(sorted_keys, sorted_codes, query_keys, query_codes):
        """(query, candidate) codes, radius index * n + point, of the pairs at
        one radius whose candidate is the earlier point and closer than it."""
        for q, pos in neighbour_pairs(sorted_keys, query_keys, shifts):
            a, b = query_codes.take(q), sorted_codes.take(pos)
            same = (b < a) & (b // n == a // n)
            a, b = a[same], b[same]
            d = space._pair_distances(points.take(a % n, axis=0), points.take(b % n, axis=0))
            near = d < radii.take(a // n)
            yield a[near], b[near]

    acc_keys = acc_codes = np.empty(0, dtype=np.int64)  # accepted, by ascending cell
    start, size = 0, FIRST_BLOCK
    while start < n:
        block = np.arange(start, min(start + size, n))
        start, size, width = start + size, min(2 * size, NET_BLOCK), len(block)
        pair_keys = keys[:, block].ravel()
        pair_codes = (np.arange(len(radii))[:, None] * n + block).ravel()
        rows = np.ones((len(radii), width), dtype=bool)  # [radius, point - block[0]]
        for a, _ in close_pairs(acc_keys, acc_codes, pair_keys, pair_codes):
            rows[a // n, a % n - block[0]] = False
        live = np.flatnonzero(rows)
        live_keys, live_codes = pair_keys[live], pair_codes[live]
        order = np.argsort(live_keys, kind="stable")
        pairs = [(live_codes[:0], live_codes[:0])]
        pairs += close_pairs(live_keys[order], live_codes[order], live_keys, live_codes)
        later, earlier = (np.concatenate(side) for side in zip(*pairs))
        # the pairs come in ascending order of their later point, so each
        # earlier point is decided before any pair reads it
        cuts = np.searchsorted(later, np.arange(len(radii) + 1) * n).tolist()
        later, earlier = (later % n - block[0]).tolist(), (earlier % n - block[0]).tolist()
        rows = rows.tolist()
        for keep, lo, hi in zip(rows, cuts, cuts[1:]):
            for i, j in zip(later[lo:hi], earlier[lo:hi]):
                if keep[j]:
                    keep[i] = False
        new = np.flatnonzero(rows)
        order = np.argsort(pair_keys[new], kind="stable")
        at = np.searchsorted(acc_keys, pair_keys[new[order]])
        acc_keys = np.insert(acc_keys, at, pair_keys[new[order]])
        acc_codes = np.insert(acc_codes, at, pair_codes[new[order]])
    acc_codes.sort()
    bounds = np.searchsorted(acc_codes, np.arange(len(radii) + 1) * n)
    return [acc_codes[lo:hi] - k * n for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]


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
    point is 1-separated and covers itself.  ``aspect_ratio`` is twice the
    anchor's (point 0's) farthest distance, which lies in [d_max, 2 d_max]
    by the triangle inequality, over half the exact minimum d_min: it lies
    in [2, 4] times the true aspect ratio d_max / d_min.
    """

    top_level: int
    levels: tuple[Net, ...]
    aspect_ratio: float

    def members(self, level: int) -> np.ndarray:
        return self.levels[level].members


def build_net_hierarchy(space: MetricSpace, pts: PointSet) -> NetHierarchy:
    """Build the full stack of greedy nets for a normalized point set, and its aspect ratio.

    Requires minimum inter-point distance 2 (within relative tolerance); use
    :func:`navgraph.netpg.normalize` to bring raw inputs into that form.  The
    top level is ceil(log2(twice the anchor's farthest distance)), so its
    radius is at least the diameter and twice every point's distance to
    point 0: the coarsest net is {0}.  The levels the grid takes go through
    one ``_grid_sweep``, and the others through one ``_greedy_sweep``.

    Coordinate inputs take the minimum from ``pairwise_min_distance``, which
    also enforces the range window (``normalize``'s minimum, scaled, misses
    the scaled points' in the last bits, and the aspect ratio reads theirs).
    Abstract inputs take it from the sweep: on a normalised input the
    radius-2 net keeps every point, so the sweep has measured every pair
    once and its least distance is ``pairwise_min_distance``'s, bit for bit.
    Where that net lost a point, ``pairwise_min_distance`` runs after all,
    and the input is rejected with its own message or one of the two below.
    """
    if pts.n < 2:
        raise DomainError("a net hierarchy needs at least two points")
    dmax = 2.0 * float(space.distances(pts.points, pts.points[0]).max())
    least = None if pts.is_abstract else pairwise_min_distance(space, pts)
    top = ceil_log2(dmax) if dmax > 0 else 0  # 0 if degenerate: rejected below
    radii = [float(2.0**i) for i in range(top + 1)]
    linear = [r for r in radii[1:] if not _on_grid(space, pts, r)]
    swept, swept_least = _greedy_sweep(space, pts, linear)
    if least is None:
        kept_all = linear[:1] == [2.0] and len(swept[0]) == pts.n
        least = swept_least if kept_all else pairwise_min_distance(space, pts)
    if least <= 0:
        raise DomainError("degenerate point set: zero minimum distance")
    if abs(least - 2.0) > MIN_DISTANCE_RTOL * 2.0:
        raise DomainError(f"point set is not normalized: min distance {least}, expected 2")
    nets = dict(zip(linear, swept))
    nets[1.0] = np.arange(pts.n, dtype=np.int64)
    grid = [r for r in radii[1:] if r not in nets]
    if grid:
        nets.update(zip(grid, _grid_sweep(space, pts, grid)))
    levels = [Net(radius=r, members=nets[r]) for r in radii]
    return NetHierarchy(top, tuple(levels), aspect_ratio=dmax / (least / 2.0))
