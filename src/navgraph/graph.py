"""Directed proximity graphs, greedy routing, and the navigability oracle.

The greedy procedure is the single search primitive: from the current vertex,
compute the distance of every out-neighbor to the query, move to the closest
one (ties to the smallest index), and stop when none is strictly closer.  The
budgeted variant stops as soon as a fixed number of distance computations has
been spent; the jackpot-capped variant (used by the sampled Euclidean
construction) stops upon visiting its k-th marked vertex without scanning it.
The batch protocol and the jackpot condition walk through the same engine,
fed a precomputed distance row.  Every routing entry checks its query once:
it must have the shape of one point and a finite distance to the points,
else ``DomainError``.

``check_navigable`` is the verification side of the same contract: a graph is
(1+eps)-navigable for a query iff every vertex either already is a
(1+eps)-approximate nearest neighbor or has an out-neighbor strictly closer.

A ``ProximityGraph`` stores its adjacency once, as CSR (``flat``,
``offsets``).  Builders hand it their edges as sorted codes v * n + t
(``from_codes``); rows from tests and the hard instances go through the
validating constructor, and graph files through the same check on their CSR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from ._util import DomainError
from .metrics import MetricSpace, PointSet

__all__ = [
    "ProximityGraph",
    "SearchTrace",
    "GraphStats",
    "NavigabilityWitness",
    "greedy_search",
    "budgeted_query",
    "merge_graphs",
    "graph_stats",
    "check_navigable",
    "segment_min",
]

PROVENANCE_TAGS = ("net", "theta", "sampled-net", "merged", "custom")


class ProximityGraph:
    """A simple directed graph over point-set indices, stored as one CSR.

    Vertex v's out-neighbors are ``flat[offsets[v]:offsets[v+1]]``: int64,
    strictly ascending, in [0, n), never v.  ``flat`` and ``offsets``
    (length n+1) are read-only and the only copy of the adjacency;
    ``out_edges`` lists read-only views of the rows, built on first use.

    The constructor validates a sequence of rows, and ``_from_csr`` (the
    graph-file loader's entry) an int64 CSR, by the same check.
    ``from_codes`` takes the ascending, distinct edge codes v * n + t and
    checks nothing, since a target >= n would alias into the next row's
    codes: only builders, whose codes are correct by construction, call it.
    Graphs are immutable.
    """

    def __init__(self, n: int, out_edges: Sequence, provenance: str = "custom"):
        if n < 1:
            raise DomainError(f"graph needs at least one vertex, got n={n}")
        if len(out_edges) != n:
            raise DomainError(
                f"adjacency has {len(out_edges)} rows for {n} vertices"
            )
        rows = [np.asarray(row, dtype=np.int64) for row in out_edges]
        ndim = np.array([r.ndim for r in rows])
        if (ndim != 1).any():
            raise DomainError(f"adjacency row {np.argmax(ndim != 1)} is not 1-D")
        offsets = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
        flat = np.concatenate(rows)
        _check_csr(n, flat, offsets)
        self._store(n, flat, offsets, provenance)

    @classmethod
    def _from_csr(
        cls, n: int, flat: np.ndarray, offsets: np.ndarray, provenance: str
    ) -> ProximityGraph:
        """The graph of an int64 CSR adjacency, checked as the constructor checks rows."""
        _check_csr(n, flat, offsets)
        g = cls.__new__(cls)
        g._store(n, flat, offsets, provenance)
        return g

    @classmethod
    def from_codes(cls, n: int, codes: np.ndarray, provenance: str) -> ProximityGraph:
        """The graph of the ascending, distinct edge codes v * n + t, unchecked."""
        g = cls.__new__(cls)
        offsets = np.searchsorted(codes, np.arange(n + 1, dtype=np.int64) * n)
        g._store(n, (codes % n).astype(np.int64, copy=False), offsets, provenance)
        return g

    def _store(self, n, flat, offsets, provenance) -> None:
        if provenance not in PROVENANCE_TAGS:
            raise DomainError(f"unknown provenance {provenance!r}")
        flat.setflags(write=False)
        offsets.setflags(write=False)
        self.n = int(n)
        self.flat = flat
        self.offsets = offsets
        self.provenance = provenance
        self.meta: dict = {}  # builder-attached context; not part of equality

    @cached_property
    def out_edges(self) -> list[np.ndarray]:
        """Vertex v's out-neighbors as a read-only view into ``flat``."""
        bounds = self.offsets.tolist()
        return [self.flat[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    @property
    def edge_count(self) -> int:
        return int(self.offsets[-1])

    def out_degree(self, v: int) -> int:
        return int(self.offsets[v + 1] - self.offsets[v])

    def edge_keys(self) -> np.ndarray:
        """Each edge (v, t) coded as v * n + t, ascending.

        The codes are int32 while n * n fits, which halves the memory of
        the sorts and set operations done on them.
        """
        n = self.n
        dtype = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
        keys = np.repeat(np.arange(0, n * n, n, dtype=dtype), np.diff(self.offsets))
        keys += self.flat.astype(dtype)
        return keys

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProximityGraph):
            return NotImplemented
        same_rows = self.n == other.n and np.array_equal(self.offsets, other.offsets)
        return same_rows and np.array_equal(self.flat, other.flat)


def _check_csr(n: int, flat: np.ndarray, offsets: np.ndarray) -> None:
    """Every row strictly ascending, in [0, n) and without its own vertex.

    One vectorised pass over all rows; the first faulty row is reported.
    """
    row_of = np.repeat(np.arange(n), np.diff(offsets))
    unsorted = np.zeros(len(flat), dtype=bool)
    unsorted[1:] = (flat[1:] <= flat[:-1]) & (row_of[1:] == row_of[:-1])
    faults = (
        ((flat < 0) | (flat >= n), f"has targets outside [0, {n})"),
        (unsorted, "is not strictly sorted"),
        (flat == row_of, "contains a self-loop"),
    )
    first = [row_of[bad].min(initial=n) for bad, _ in faults]
    if min(first) < n:
        v = min(first)
        raise DomainError(f"row {v} {faults[first.index(v)][1]}")


@dataclass(frozen=True)
class SearchTrace:
    """Record of one greedy run: visited hops and the cost spent.

    ``hops`` lists (vertex, distance to query) in visit order, start first.
    ``distance_computations`` charges 1 for evaluating the start plus the
    full out-degree of every scanned hop (partial scans charge what they
    actually computed before the budget cut them off).  ``terminated`` is
    "self" (no strictly closer out-neighbor), "budget", or "jackpot".
    """

    hops: tuple[tuple[int, float], ...]
    distance_computations: int
    terminated: str
    #: set by jackpot-capped searches: per-hop membership in the jackpot set
    jackpot_flags: Optional[tuple[bool, ...]] = None
    #: set by jackpot-capped searches: [start, end] hop positions (inclusive)
    #: of the stretches separated by jackpot hops
    subsequences: Optional[tuple[tuple[int, int], ...]] = None

    @property
    def final(self) -> int:
        return self.hops[-1][0]

    @property
    def vertices(self) -> list[int]:
        return [v for v, _ in self.hops]


def _check_query_shape(pts: PointSet, q) -> None:
    """A query must have the shape of one element of the point set."""
    if isinstance(q, np.ndarray):
        shape = q.shape
    else:  # np.shape takes 2 us on an int, a tenth of a tree-metric query
        shape = () if isinstance(q, (int, float, np.generic)) else np.shape(q)
    if shape != pts.points.shape[1:]:
        raise DomainError(
            f"query has shape {shape}, points have shape {pts.points.shape[1:]}"
        )


def _check_query_distance(d: float) -> None:
    """A non-finite query makes every distance to it non-finite."""
    if not math.isfinite(d):
        raise DomainError(
            f"query distance is {d}: the query has a non-finite coordinate "
            "or its distances overflow"
        )


def _greedy_engine(
    graph: ProximityGraph,
    space: MetricSpace,
    pts: PointSet,
    start: int,
    q,
    budget: Optional[int] = None,
    jackpot_mask: Optional[np.ndarray] = None,
    jackpot_cap: Optional[int] = None,
    row: Optional[np.ndarray] = None,
) -> SearchTrace:
    """The greedy step rule, the only one in the package.

    Without ``row`` the engine validates q and computes each hop's distances.
    A caller routing q from many starts validates it once and passes ``row``,
    every point's distance to q as ``space.distances`` gives it; each hop then
    reads ``row[nbrs]``, and the trace, cost included, is the same.
    """
    if not (0 <= start < graph.n):
        raise DomainError(f"start {start} outside [0, {graph.n})")
    if budget is not None and budget < 1:
        raise DomainError(f"distance budget must be >= 1, got {budget}")
    current = int(start)
    if row is None:
        _check_query_shape(pts, q)
        d_current = float(space.distances(pts.points[current : current + 1], q)[0])
        _check_query_distance(d_current)
    else:
        d_current = float(row[current])
    computed = 1
    hops = [(current, d_current)]
    jackpots_seen = 0
    out_edges = graph.out_edges
    while True:
        if jackpot_mask is not None and jackpot_mask[current]:
            jackpots_seen += 1
            if jackpot_cap is not None and jackpots_seen >= jackpot_cap:
                return SearchTrace(tuple(hops), computed, "jackpot")
        if budget is not None and computed >= budget:
            return SearchTrace(tuple(hops), computed, "budget")
        nbrs = out_edges[current]
        if budget is not None and computed + len(nbrs) >= budget:
            # The scan hits the budget at or before its last neighbor; a move
            # would require the complete scan plus spare budget, so stop here.
            computed = budget
            return SearchTrace(tuple(hops), computed, "budget")
        if len(nbrs) == 0:
            return SearchTrace(tuple(hops), computed, "self")
        if row is None:
            dists = space.distances(pts.points[nbrs], q)
        else:
            dists = row[nbrs]
        computed += len(nbrs)
        k = int(np.argmin(dists))  # first min = smallest index (nbrs sorted)
        if dists[k] < d_current:
            current = int(nbrs[k])
            d_current = float(dists[k])
            hops.append((current, d_current))
        else:
            return SearchTrace(tuple(hops), computed, "self")


def greedy_search(
    graph: ProximityGraph,
    space: MetricSpace,
    pts: PointSet,
    start: int,
    q,
    budget: Optional[int] = None,
) -> SearchTrace:
    """Greedy descent from ``start`` toward ``q``, optionally budget-capped."""
    return _greedy_engine(graph, space, pts, start, q, budget=budget)


def budgeted_query(
    graph: ProximityGraph, space: MetricSpace, pts: PointSet, start: int, q, budget: int
) -> int:
    """Greedy descent cut off after ``budget`` distance computations.

    Returns the last vertex visited.  The start evaluation costs 1, so
    budget=1 returns the start itself.
    """
    return _greedy_engine(graph, space, pts, start, q, budget=budget).final


def merge_graphs(g1: ProximityGraph, g2: ProximityGraph) -> ProximityGraph:
    """Per-vertex union of out-edge sets; the order of arguments is immaterial."""
    if g1.n != g2.n:
        raise DomainError(f"cannot merge graphs with n={g1.n} and n={g2.n}")
    keys = sorted_distinct(np.concatenate([g1.edge_keys(), g2.edge_keys()]))
    return ProximityGraph.from_codes(g1.n, keys, "merged")


def sorted_distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct values of ``codes``, ascending; sorts ``codes`` in place.

    Faster than ``np.unique``, which hashes integers first on numpy >= 2.3.
    """
    codes.sort()
    first = np.ones(len(codes), dtype=bool)
    first[1:] = codes[1:] != codes[:-1]
    return codes[first]


@dataclass(frozen=True)
class GraphStats:
    edges: int
    min_out_degree: int
    max_out_degree: int
    mean_out_degree: float
    isolated: int


def graph_stats(graph: ProximityGraph) -> GraphStats:
    degrees = np.diff(graph.offsets)
    return GraphStats(
        edges=int(degrees.sum()),
        min_out_degree=int(degrees.min()),
        max_out_degree=int(degrees.max()),
        mean_out_degree=float(degrees.mean()),
        isolated=int((degrees == 0).sum()),
    )


def segment_min(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment minimum of a flat value array; empty segments give +inf.

    ``values`` is the flat CSR payload and ``offsets`` (length n+1) its
    segment boundaries.  Uses one reduceat over the nonempty segments.
    """
    n = len(offsets) - 1
    out = np.full(n, np.inf)
    degrees = np.diff(offsets)
    nonempty = degrees > 0
    if nonempty.any():
        starts = offsets[:-1][nonempty]
        out[nonempty] = np.minimum.reduceat(values, starts)
    return out


@dataclass(frozen=True)
class NavigabilityWitness:
    """A (vertex, query) pair violating the navigability disjunction."""

    query_index: int
    query: object
    vertex: int
    vertex_distance: float
    ann_threshold: float
    best_neighbor_distance: float


def _check_one_query(
    graph: ProximityGraph,
    space: MetricSpace,
    pts: PointSet,
    epsilon: float,
    q,
    qi: int,
) -> Optional[NavigabilityWitness]:
    flat, offsets = graph.flat, graph.offsets
    _check_query_shape(pts, q)
    row = space.distances(pts.points, q)
    nn_dist = float(row.min())
    _check_query_distance(nn_dist)
    threshold = (1.0 + epsilon) * nn_dist
    best_nbr = segment_min(row[flat], offsets) if len(flat) else np.full(graph.n, np.inf)
    ok = (row <= threshold) | (best_nbr < row)
    if ok.all():
        return None
    v = int(np.argmax(~ok))
    return NavigabilityWitness(
        query_index=qi,
        query=q,
        vertex=v,
        vertex_distance=float(row[v]),
        ann_threshold=threshold,
        best_neighbor_distance=float(best_nbr[v]),
    )


def check_navigable(
    graph: ProximityGraph,
    space: MetricSpace,
    pts: PointSet,
    epsilon: float,
    queries,
    threads: int = 1,
) -> Optional[NavigabilityWitness]:
    """Verify the navigability disjunction for every (vertex, query) pair.

    For each query q and vertex p, either D(p, q) <= (1+eps) * D(p*, q) with
    p* the exact nearest neighbor of q, or some out-neighbor of p is strictly
    closer to q.  Returns None on a full pass, otherwise the first witness in
    (query, vertex) scan order.  Queries must come from the space's universe;
    they need not belong to the point set, but a query of the wrong shape or
    at a non-finite distance raises ``DomainError``.  Safe for concurrent
    use; with threads > 1 the per-query work is spread over a thread pool.
    """
    if epsilon <= 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    if graph.n != pts.n:
        raise DomainError(f"graph has {graph.n} vertices for {pts.n} points")
    queries = list(queries)
    if threads <= 1 or len(queries) < 2:
        for qi, q in enumerate(queries):
            w = _check_one_query(graph, space, pts, epsilon, q, qi)
            if w is not None:
                return w
        return None
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = pool.map(
            lambda item: _check_one_query(graph, space, pts, epsilon, item[1], item[0]),
            enumerate(queries),
        )
        for w in results:
            if w is not None:
                return w
    return None
