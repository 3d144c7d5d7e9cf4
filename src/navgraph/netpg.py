"""The net-hierarchy proximity graph: definitional and accelerated builders.

The edge rule: after normalizing the point set so its minimum inter-point
distance is 2, build nets Y_0..Y_h at radii 2^0..2^h and connect each point p
to every net point y in Y_i with D(p, y) <= reach_factor * 2^i, at every
level, deduplicated.  The reach factor grows as Theta(1/epsilon) and the
resulting graph is (1+epsilon)-navigable for every query in the metric space.

Two builders produce byte-identical adjacency:

* ``build_net_pg_naive`` evaluates the edge rule literally with one distance
  row per (point, level).  It is the oracle, and on abstract metrics, where
  no coordinates exist to bucket, it is also the production path.
* ``build_net_pg_fast`` collects each level's balls for coordinate inputs
  through one static grid of cell side reach_factor * 2^i, so only the 3^d
  cells around a point are scanned; abstract inputs go to the naive rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from typing import Optional

import numpy as np

from ._util import DomainError, ceil_log2
from .graph import ProximityGraph, sorted_distinct
from .metrics import (
    EuclideanSpace,
    MetricSpace,
    PointSet,
    ScaledSpace,
    cross_distances,
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
    """Construction constants derived from epsilon and the hierarchy height.

    ``gap_exponent`` is ceil(log2(1 + 2/epsilon)) and is at least 2;
    ``reach_factor`` is 1 + 2**(gap_exponent+1) and is at least 9.  Edges at
    level i reach out to reach_factor * 2^i.
    """

    epsilon: float
    gap_exponent: int
    reach_factor: float
    top_level: int

    def __post_init__(self):
        if not (0.0 < self.epsilon <= 1.0):
            raise DomainError(f"epsilon must be in (0, 1], got {self.epsilon}")
        assert self.gap_exponent >= 2
        assert self.reach_factor >= 9.0


def pg_params(epsilon: float, hierarchy: NetHierarchy) -> PGParams:
    """Compute the construction constants for a given epsilon and hierarchy."""
    if not (0.0 < epsilon <= 1.0):
        raise DomainError(f"epsilon must be in (0, 1], got {epsilon}")
    eta = ceil_log2(1.0 + 2.0 / epsilon)
    phi = float(1 + (1 << (eta + 1)))
    return PGParams(
        epsilon=float(epsilon),
        gap_exponent=eta,
        reach_factor=phi,
        top_level=hierarchy.top_level,
    )


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
    """Uniformly rescale so the minimum inter-point distance becomes 2."""
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
    return NormalizedInput(
        space=space, points=PointSet(pts.points * scale), scale=scale
    )


def _level_threshold(phi: float, level: int) -> float:
    # phi = 1 + 2^(eta+1), so phi * 2^level = 2^level + 2^(eta+1+level):
    # a sum of two exact powers of two, hence exact in float64.
    return phi * float(2.0 ** level)


def build_net_pg_naive(
    space: MetricSpace,
    pts: PointSet,
    epsilon: float,
    hierarchy: Optional[NetHierarchy] = None,
) -> ProximityGraph:
    """Evaluate the edge rule literally, one distance row per (point, level).

    Requires a normalized point set (minimum inter-point distance 2); raises
    a domain error otherwise.  The returned graph carries the hierarchy and
    parameters in ``meta`` for downstream structure checks.
    """
    if hierarchy is None:
        hierarchy = build_net_hierarchy(space, pts)
    params = pg_params(epsilon, hierarchy)
    n = pts.n
    codes = []
    for level in range(hierarchy.top_level + 1):
        members = hierarchy.members(level)
        member_pts = pts.points[members]
        thr = _level_threshold(params.reach_factor, level)
        for p in range(n):
            row = space.distances(member_pts, pts.points[p])
            hits = members[row <= thr]
            codes.append(p * n + hits[hits != p])
    g = ProximityGraph.from_codes(n, sorted_distinct(np.concatenate(codes)), "net")
    g.meta = {"hierarchy": hierarchy, "params": params}
    return g


def _level_balls_grid(
    space: EuclideanSpace, pts: PointSet, members: np.ndarray, thr: float
) -> np.ndarray:
    """All radius-thr balls around every point, via one static grid per level.

    Net members are bucketed into cells of side thr; any point within
    distance thr of p lies in a cell adjacent to p's (coordinate-wise index
    difference at most 1), so the 3^d surrounding cells are a certified
    candidate superset.  Queries sharing a cell share the gather and one
    batched distance matrix.  The distance arithmetic (difference, square,
    sum over the axis of length d, square root) matches the per-row path
    operation for operation, so the balls are bitwise identical to a linear
    scan's.  Returns the ascending codes p * n + y of every point p and
    every member y in its ball, p's own code included.
    """
    points = pts.points
    n = len(points)
    mpts = points[members]
    dim = points.shape[1]
    mcells = np.floor(mpts / thr).astype(np.int64)
    buckets: dict[tuple, list] = {}
    for row, key in enumerate(map(tuple, mcells.tolist())):
        buckets.setdefault(key, []).append(row)
    packed = {k: np.array(v, dtype=np.int64) for k, v in buckets.items()}
    qcells = np.floor(points / thr).astype(np.int64)
    groups: dict[tuple, list] = {}
    for p, key in enumerate(map(tuple, qcells.tolist())):
        groups.setdefault(key, []).append(p)
    offsets = list(iter_product((-1, 0, 1), repeat=dim))
    codes = [np.empty(0, dtype=np.int64)]
    for key, plist in groups.items():
        parts = []
        for off in offsets:
            hit = packed.get(tuple(k + o for k, o in zip(key, off)))
            if hit is not None:
                parts.append(hit)
        if not parts:
            continue
        cand = np.concatenate(parts)
        plist = np.array(plist)
        diff = points[plist][:, None, :] - mpts[cand][None, :, :]
        if space.norm == "l2":
            dist = np.sqrt(np.sum(diff * diff, axis=2))
        else:
            dist = np.abs(diff).max(axis=2)
        row, col = np.nonzero(dist <= thr)
        codes.append(plist[row] * n + members[cand[col]])
    return np.sort(np.concatenate(codes))


def build_net_pg_fast(
    space: MetricSpace,
    pts: PointSet,
    epsilon: float,
    hierarchy: Optional[NetHierarchy] = None,
) -> ProximityGraph:
    """Production builder; byte-identical adjacency to the naive builder.

    Coordinate inputs collect each level's balls through a static grid in
    per-cell batches, one distance matrix per occupied cell, which amortizes
    the per-point overhead that dominates the row-per-point rule at desk
    scale.  Abstract metrics have no coordinates to bucket, and the
    definitional rule is the fastest correct path there, so they get
    ``build_net_pg_naive``.
    """
    if pts.is_abstract or not isinstance(space, EuclideanSpace):
        return build_net_pg_naive(space, pts, epsilon, hierarchy)
    if hierarchy is None:
        hierarchy = build_net_hierarchy(space, pts)
    params = pg_params(epsilon, hierarchy)
    n = pts.n
    codes = []
    for level in range(hierarchy.top_level + 1):
        members = hierarchy.members(level)
        thr = _level_threshold(params.reach_factor, level)
        balls = _level_balls_grid(space, pts, members, thr)
        codes.append(balls[balls // n != balls % n])
    g = ProximityGraph.from_codes(n, sorted_distinct(np.concatenate(codes)), "net")
    g.meta = {"hierarchy": hierarchy, "params": params}
    return g


#: Default construction path used by higher-level builders.
build_net_pg = build_net_pg_fast


@dataclass(frozen=True)
class NetPGViolation:
    """First point where a graph deviates from the level edge rule."""

    kind: str
    vertex: int
    level: int
    details: str


def verify_net_pg_properties(
    space: MetricSpace,
    pts: PointSet,
    graph: ProximityGraph,
    hierarchy: Optional[NetHierarchy] = None,
    params: Optional[PGParams] = None,
) -> Optional[NetPGViolation]:
    """Check the level edge groups and that the graph matches the edge rule.

    For every vertex p and level i the group is the net members within
    reach_factor * 2^i of p (p excluded).  Checks: group members pairwise at
    least 2^i apart, p's out-neighbors equal those of ``build_net_pg_naive``
    exactly, and every vertex keeps out-degree >= 1.  Returns the first
    violation or None.  Hierarchy and parameters default to the graph's
    build metadata; parameters must be the ones their epsilon gives.
    """
    if hierarchy is None:
        hierarchy = graph.meta.get("hierarchy")
        if hierarchy is None:
            hierarchy = build_net_hierarchy(space, pts)
    if params is None:
        params = graph.meta.get("params")
        if params is None:
            raise DomainError("no parameters: pass params or a graph with build meta")
    if graph.n != pts.n:
        raise DomainError(f"graph has {graph.n} vertices for {pts.n} points")
    expected_phi = pg_params(params.epsilon, hierarchy).reach_factor
    if params.reach_factor != expected_phi:
        raise DomainError(
            f"reach factor {params.reach_factor} does not match epsilon "
            f"{params.epsilon}, which gives {expected_phi}"
        )
    n = pts.n
    for level in range(hierarchy.top_level + 1):
        members = hierarchy.members(level)
        member_pts = pts.points[members]
        sep = float(2.0 ** level)
        pairs = [
            (j, k)
            for j in range(len(members))
            for k in np.flatnonzero(space.distances(member_pts, member_pts[j]) < sep)
            if k != j
        ]
        if not pairs:
            continue
        # a close pair violates the level at the first vertex whose group
        # holds both of its points
        involved, local = np.unique(np.array(pairs), return_inverse=True)
        local = local.reshape(-1, 2)
        thr = _level_threshold(params.reach_factor, level)
        in_group = cross_distances(space, pts.points, member_pts[involved]) <= thr
        in_group[members[involved], np.arange(len(involved))] = False
        for p in range(n):
            if (in_group[p, local[:, 0]] & in_group[p, local[:, 1]]).any():
                return NetPGViolation(
                    kind="level-separation",
                    vertex=p,
                    level=level,
                    details=f"group members closer than {sep}",
                )
    want = build_net_pg_naive(space, pts, params.epsilon, hierarchy=hierarchy).out_edges
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
