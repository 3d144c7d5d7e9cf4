"""The net-hierarchy proximity graph: definitional and accelerated builders.

The edge rule: after normalizing the point set so its minimum inter-point
distance is 2, build nets Y_0..Y_h at radii 2^0..2^h and connect each point p
to every net point y in Y_i with D(p, y) <= reach_factor * 2^i, at every
level.  The reach grows with i, so the union is one test per pair:
D(p, y) <= reach_factor * 2^top(y), top(y) being the highest level holding y
(a point in no level gets no in-edges).  The reach factor grows as
Theta(1/epsilon) and the graph is (1+epsilon)-navigable for every query.

Two builders produce byte-identical adjacency, deciding each pair once:

* ``build_net_pg_naive`` takes one distance row per point.  It is the
  oracle, and on abstract metrics, where no coordinates exist to bucket, it
  is also the production path.
* ``build_net_pg_fast`` files, for coordinate inputs, each target in a grid
  cell of side its own reach, every reach sharing one cell numbering, so one
  lookup scans only the 3^d cells around each point at each side; abstract
  inputs go to the naive rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._grid import cell_keys, fits, neighbour_pairs
from ._util import DomainError, ceil_log2
from .graph import ProximityGraph, sorted_distinct
from .metrics import (
    EuclideanSpace,
    MetricSpace,
    PointSet,
    ScaledSpace,
    pairwise_min_distance,
)
from .nets import NetHierarchy, build_net_hierarchy

__all__ = [
    "PGParams",
    "pg_params",
    "NormalizedInput",
    "normalize",
    "build_net_pg_naive",
    "build_net_pg_fast",
    "build_net_pg",
    "NetPGViolation",
    "verify_net_pg_properties",
]


@dataclass(frozen=True)
class PGParams:
    """Construction constants fixed by epsilon in (0, 1] alone (``pg_params``).

    ``gap_exponent`` is ceil(log2(1 + 2/epsilon)) and is at least 2;
    ``reach_factor`` is 1 + 2**(gap_exponent+1) and is at least 9.  Edges at
    level i reach out to reach_factor * 2^i.
    """

    epsilon: float
    gap_exponent: int
    reach_factor: float


def pg_params(epsilon: float) -> PGParams:
    """Compute the construction constants for a given epsilon."""
    if not (0.0 < epsilon <= 1.0):
        raise DomainError(f"epsilon must be in (0, 1], got {epsilon}")
    eta = ceil_log2(1.0 + 2.0 / epsilon)
    phi = float(1 + (1 << (eta + 1)))
    return PGParams(epsilon=float(epsilon), gap_exponent=eta, reach_factor=phi)


@dataclass(frozen=True)
class NormalizedInput:
    """A point set rescaled so its minimum inter-point distance is 2.

    Euclidean inputs scale coordinates; abstract inputs wrap the space in a
    distance multiplier instead.  ``scale`` maps original distances to
    normalized ones (d_normalized = scale * d_original).
    """

    space: MetricSpace
    points: PointSet
    scale: float


def normalize(space: MetricSpace, pts: PointSet) -> NormalizedInput:
    """Uniformly rescale so the minimum inter-point distance becomes 2.

    Normalised coordinates feed the grid builders, whose cells have side 2
    and up; inputs whose cell indices there would overflow int64 (a
    coordinate of about 2^60 minimum distances) are outside the range
    window and rejected.
    """
    if pts.n < 2:
        raise DomainError("normalization needs at least two points")
    dmin = pairwise_min_distance(space, pts)
    if dmin <= 0:
        raise DomainError("duplicate points: minimum inter-point distance is 0")
    scale = 2.0 / dmin
    if pts.is_abstract:
        return NormalizedInput(
            space=ScaledSpace(space, scale), points=pts, scale=scale
        )
    points = pts.points * scale
    if not fits(points, 2.0):
        raise DomainError(
            "outside the range window: coordinates are too far apart for the "
            f"minimum distance {dmin:.3g}, so normalised grid cell indices "
            "would overflow int64"
        )
    return NormalizedInput(space=space, points=PointSet(points), scale=scale)


def _level_threshold(phi: float, level):
    # phi * 2^level: ldexp only moves phi's exponent, so the threshold is
    # exact in float64.
    return np.ldexp(phi, level)


def _reach(hierarchy: NetHierarchy, n: int, phi: float) -> np.ndarray:
    """Each point's reach as a target: phi * 2^top(p), or -inf in no level."""
    reach = np.full(n, -np.inf)
    for level in range(hierarchy.top_level + 1):
        reach[hierarchy.members(level)] = _level_threshold(phi, level)
    return reach


def build_net_pg_naive(
    space: MetricSpace,
    pts: PointSet,
    epsilon: float,
    hierarchy: Optional[NetHierarchy] = None,
) -> ProximityGraph:
    """Evaluate the per-pair edge rule, one distance row per point.

    Point p gets every y != p with D(p, y) <= reach_factor * 2^top(y).  Each
    pair is measured once and the rows come out ascending, so nothing is
    sorted or deduplicated.  Requires a normalized point set (minimum
    inter-point distance 2); raises a domain error otherwise.  The returned
    graph carries the hierarchy and parameters in ``meta`` for downstream
    structure checks.
    """
    if hierarchy is None:
        hierarchy = build_net_hierarchy(space, pts)
    params = pg_params(epsilon)
    n = pts.n
    reach = _reach(hierarchy, n, params.reach_factor)
    codes = []
    for p in range(n):
        hits = np.flatnonzero(space.distances(pts.points, pts.points[p]) <= reach)
        codes.append(p * n + hits[hits != p])
    g = ProximityGraph.from_codes(n, np.concatenate(codes))
    g.meta = {"hierarchy": hierarchy, "params": params}
    return g


def build_net_pg_fast(
    space: MetricSpace,
    pts: PointSet,
    epsilon: float,
    hierarchy: Optional[NetHierarchy] = None,
) -> ProximityGraph:
    """Production builder; byte-identical adjacency to the naive builder.

    Coordinate inputs take one grid pass: each target y is filed in a cell
    of side reach(y), all reaches sharing one cell numbering, and each point
    looks up the 3^d cells around its own at every side, which hold every y
    within reach(y).  Candidate pairs are measured in chunks through
    ``space._pair_distances``, the per-row path's arithmetic, and kept by
    the edge rule itself.  Abstract metrics have no coordinates to bucket,
    and the definitional rule is the fastest correct path there, so they get
    ``build_net_pg_naive``.
    """
    if pts.is_abstract or not isinstance(space, EuclideanSpace):
        return build_net_pg_naive(space, pts, epsilon, hierarchy)
    if hierarchy is None:
        hierarchy = build_net_hierarchy(space, pts)
    params = pg_params(epsilon)
    points, n = pts.points, pts.n
    reach = _reach(hierarchy, n, params.reach_factor)
    targets = np.flatnonzero(reach > -np.inf)
    codes = [np.empty(0, dtype=np.int64)]
    if len(targets):  # a hand-made hierarchy may hold no point at all
        sides, side = np.unique(reach[targets], return_inverse=True)
        keys, shifts = cell_keys(points, *sides)
        tkeys = keys[side, targets]
        order = np.argsort(tkeys, kind="stable")
        targets = targets[order]
        for q, pos in neighbour_pairs(tkeys[order], keys.ravel(), shifts):
            p, y = q % n, targets[pos]
            dist = space._pair_distances(points.take(y, axis=0), points.take(p, axis=0))
            keep = (p != y) & (dist <= reach[y])
            codes.append(p[keep] * n + y[keep])
    # wrapped cell numbers (see ``_grid``) can yield a pair twice
    g = ProximityGraph.from_codes(n, sorted_distinct(np.concatenate(codes)))
    g.meta = {"hierarchy": hierarchy, "params": params}
    return g


#: Default construction path used by higher-level builders.
build_net_pg = build_net_pg_fast


@dataclass(frozen=True)
class NetPGViolation:
    """First point where the levels are not nets or the graph breaks the edge rule."""

    kind: str
    vertex: int
    level: int
    details: str


def verify_net_pg_properties(
    space: MetricSpace,
    pts: PointSet,
    graph: ProximityGraph,
    hierarchy: Optional[NetHierarchy] = None,
    epsilon: Optional[float] = None,
) -> Optional[NetPGViolation]:
    """Check that each level is a net and that the graph obeys the edge rule.

    In order: each level Y_i, ascending, is 2^i-separated (else
    ``level-separation`` at the smallest member with a co-member closer than
    2^i or listed twice) and 2^i-covering (else ``level-covering`` at the
    smallest point with no member within 2^i); the top level is one point
    (else ``level-top`` at its second-smallest member); then, vertex by
    vertex, p has an out-edge (``isolated-vertex``) and
    ``build_net_pg_naive``'s out-neighbors at this epsilon
    (``edge-set-mismatch``).  Returns the first violation or None.  All
    exact: a member y of Y_i reaches reach_factor * 2^top(y) >= 9 * 2^i, so
    every point within 2^i of y has an oracle edge to it, each edge is
    measured once, and each level's verdict is ``verify_r_net``'s.

    The hierarchy defaults to the graph's build metadata, else it is built
    from the points; epsilon defaults to the one the graph was built with.
    A graph read from a file carries neither, so it is checked by passing
    epsilon alone.
    """
    if epsilon is None:
        if "params" not in graph.meta:
            raise DomainError("no epsilon: pass epsilon or a graph with build meta")
        epsilon = graph.meta["params"].epsilon
    if graph.n != pts.n:
        raise DomainError(f"graph has {graph.n} vertices for {pts.n} points")
    if hierarchy is None:
        hierarchy = graph.meta.get("hierarchy") or build_net_hierarchy(space, pts)
    n = pts.n
    oracle = build_net_pg_naive(space, pts, epsilon, hierarchy=hierarchy)
    want = oracle.out_edges
    src = np.repeat(np.arange(n), np.diff(oracle.offsets))
    points = pts.points
    length = np.concatenate(
        [space.distances(points.take(row, axis=0), points[p]) for p, row in enumerate(want)]
    )
    for level in range(hierarchy.top_level + 1):
        radius = float(2.0 ** level)
        count = np.bincount(hierarchy.members(level), minlength=n)
        covered = count > 0  # a member covers itself
        into = covered[oracle.flat]
        close = src[into & covered[src] & (length < radius)]
        bad = np.concatenate([close, np.flatnonzero(count > 1)])
        if len(bad):
            return NetPGViolation(
                kind="level-separation",
                vertex=int(bad.min()),
                level=level,
                details=f"a co-member closer than {radius}, or listed twice",
            )
        covered[src[into & (length <= radius)]] = True
        if not covered.all():
            return NetPGViolation(
                kind="level-covering",
                vertex=int(np.argmin(covered)),
                level=level,
                details=f"no member within {radius}",
            )
    top = np.sort(hierarchy.members(hierarchy.top_level))
    if len(top) > 1:
        return NetPGViolation(
            kind="level-top",
            vertex=int(top[1]),
            level=hierarchy.top_level,
            details=f"{len(top)} members, not one",
        )
    for p in range(n):
        got = graph.out_edges[p]
        if len(got) == 0:
            return NetPGViolation(
                kind="isolated-vertex", vertex=p, level=-1, details="out-degree 0"
            )
        if not np.array_equal(want[p], got):
            missing = np.setdiff1d(want[p], got)
            extra = np.setdiff1d(got, want[p])
            return NetPGViolation(
                kind="edge-set-mismatch",
                vertex=p,
                level=-1,
                details=f"missing {missing.tolist()}, unjustified {extra.tolist()}",
            )
    return None
