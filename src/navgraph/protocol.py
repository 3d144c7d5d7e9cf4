"""Batch greedy-routing protocol: many queries, many starts, trace laws.

``greedy_search`` visits one vertex at a time; running it for thousands of
(query, start) pairs is dominated by per-hop distance calls.  This module
computes, per query, a single distance row and a next-hop table (the greedy
successor of every vertex at once), after which each start costs one pointer
chase.  The table agrees with ``greedy_search`` exactly: same improvement
rule, same smallest-index tie-break; the equivalence is property-tested.

On top of the walks it checks the trace laws of the net-hierarchy graph: the
first hop that is a (1+eps)-approximate nearest neighbor appears within the
hierarchy height plus one, and between consecutive non-ANN hops the value
ceil(log2(distance to the true nearest neighbor)) strictly drops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._util import DomainError, ceil_log2
from .graph import ProximityGraph, segment_min
from .metrics import MetricSpace, PointSet

__all__ = [
    "standard_query_set",
    "next_hop_table",
    "walk",
    "ProtocolReport",
    "run_query_protocol",
]


def standard_query_set(
    pts: PointSet,
    epsilon: float,
    n_random: int = 1000,
    n_perturbed: int = 500,
    seed: int = 0,
    min_distance: float = 2.0,
) -> np.ndarray:
    """Euclidean query battery: the points themselves, uniform box samples,
    and data points jittered by Gaussian noise at scale epsilon * min_distance.
    """
    if pts.is_abstract:
        raise DomainError("standard_query_set needs coordinate points")
    rng = np.random.default_rng(seed)
    p = pts.points
    lo, hi = p.min(axis=0), p.max(axis=0)
    random_qs = rng.uniform(lo, hi, size=(n_random, p.shape[1]))
    picks = rng.integers(0, pts.n, size=n_perturbed)
    noise = rng.normal(0.0, epsilon * min_distance, size=(n_perturbed, p.shape[1]))
    return np.vstack([p, random_qs, p[picks] + noise])


def next_hop_table(graph: ProximityGraph, row: np.ndarray) -> np.ndarray:
    """Greedy successor of every vertex for the query behind ``row``.

    ``row[v]`` is the distance from point v to the query.  The successor is
    the out-neighbor minimizing the distance (ties to the smallest index, as
    adjacency is sorted) when that minimum strictly improves, else v itself.
    """
    flat, offsets = graph.flat, graph.offsets
    degrees = np.diff(offsets)
    n = graph.n
    nxt = np.arange(n, dtype=np.int64)
    if len(flat) == 0:
        return nxt
    gathered = row[flat]
    segmin = segment_min(gathered, offsets)
    seg_of = np.repeat(np.arange(n, dtype=np.int64), degrees)
    sentinel = len(flat)
    cand = np.where(gathered == segmin[seg_of], np.arange(sentinel), sentinel)
    nonempty = degrees > 0
    firsts = np.full(n, sentinel, dtype=np.int64)
    firsts[nonempty] = np.minimum.reduceat(cand, offsets[:-1][nonempty])
    move = segmin < row
    nxt[move] = flat[firsts[move]]
    return nxt


def walk(next_table: np.ndarray, start: int) -> list[int]:
    """Chase greedy successors from ``start`` until a fixed point."""
    path = [int(start)]
    v = int(start)
    for _ in range(len(next_table)):
        w = int(next_table[v])
        if w == v:
            return path
        path.append(w)
        v = w
    raise RuntimeError("next-hop walk did not terminate; table admits a cycle")


@dataclass
class ProtocolReport:
    """Aggregated outcome of the multi-start routing protocol."""

    n_queries: int
    n_walks: int
    #: (query index, start vertex, final vertex, final distance, threshold)
    ann_failures: list = field(default_factory=list)
    #: largest 1-based position of the first ANN hop across all walks
    max_first_ann_position: int = 0
    first_ann_limit: Optional[int] = None
    #: walks whose first ANN hop appears after the limit
    hop_bound_violations: list = field(default_factory=list)
    #: (query index, start vertex, hop position) with a non-drop between
    #: consecutive non-ANN hops
    log_drop_violations: list = field(default_factory=list)
    max_hops: int = 0

    @property
    def all_ann(self) -> bool:
        return not self.ann_failures

    @property
    def trace_laws_hold(self) -> bool:
        return not self.hop_bound_violations and not self.log_drop_violations


def run_query_protocol(
    graph: ProximityGraph,
    space: MetricSpace,
    pts: PointSet,
    epsilon: float,
    queries,
    starts_per_query: int = 10,
    seed: int = 0,
    first_ann_limit: Optional[int] = None,
    check_log_drop: bool = False,
) -> ProtocolReport:
    """Route every query from several random starts and check the outcomes.

    Every walk must end at a (1+eps)-approximate nearest neighbor of its
    query; failures are collected, never raised.  With ``first_ann_limit``
    and ``check_log_drop`` the net-graph trace laws are verified per walk
    against the brute-force nearest neighbor.
    """
    if epsilon <= 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    if graph.n != pts.n:
        raise DomainError(f"graph has {graph.n} vertices for {pts.n} points")
    queries = list(queries)
    rng = np.random.default_rng(seed)
    report = ProtocolReport(
        n_queries=len(queries),
        n_walks=len(queries) * starts_per_query,
        first_ann_limit=first_ann_limit,
    )
    for qi, q in enumerate(queries):
        row = space.distances(pts.points, q)
        p_star = int(np.argmin(row))
        threshold = (1.0 + epsilon) * float(row[p_star])
        nxt = next_hop_table(graph, row)
        starts = rng.integers(0, graph.n, size=starts_per_query)
        paths = [walk(nxt, int(s)) for s in starts]
        need_pstar_rows = check_log_drop
        if need_pstar_rows:
            touched = np.unique(np.concatenate([np.asarray(p) for p in paths]))
            d_pstar = dict(
                zip(
                    touched.tolist(),
                    space.distances(pts.points[touched], pts.points[p_star]).tolist(),
                )
            )
        for s, path in zip(starts, paths):
            report.max_hops = max(report.max_hops, len(path))
            end = path[-1]
            if not row[end] <= threshold:
                report.ann_failures.append(
                    (qi, int(s), end, float(row[end]), threshold)
                )
            is_ann = [bool(row[v] <= threshold) for v in path]
            if any(is_ann):
                first_pos = is_ann.index(True) + 1  # 1-based hop position
                report.max_first_ann_position = max(
                    report.max_first_ann_position, first_pos
                )
                if first_ann_limit is not None and first_pos > first_ann_limit:
                    report.hop_bound_violations.append((qi, int(s), first_pos))
            elif first_ann_limit is not None:
                report.hop_bound_violations.append((qi, int(s), len(path) + 1))
            if check_log_drop:
                for k in range(len(path) - 1):
                    if is_ann[k] or is_ann[k + 1]:
                        continue
                    before = ceil_log2(d_pstar[path[k]])
                    after = ceil_log2(d_pstar[path[k + 1]])
                    if not after < before:
                        report.log_drop_violations.append((qi, int(s), k + 1))
    return report
