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
It takes queries in blocks, one distance matrix each, and clears most
(query, vertex) pairs by a few probe reads; only the rest read the whole row.
On coordinate inputs a vertex's probes are its nearest sampled out-neighbour
in each orthant of the first few axes, so whatever side of the vertex the
query lies on, one probe usually points its way; abstract inputs probe
``PROBES`` index-spaced out-neighbours.

A ``ProximityGraph`` stores its adjacency once, as CSR (``flat``,
``offsets``).  Builders hand it their edges as sorted codes v * n + t
(``from_codes``); rows from tests go through the validating constructor,
graph files through the same check on their CSR, and the forced-edge
certificates through ``_star``, one vertex's row and nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Optional, Sequence

import numpy as np

from ._grid import _ranges
from ._util import DomainError
from .metrics import MetricSpace, PointSet, cross_distances

__all__ = [
    "ProximityGraph",
    "SearchTrace",
    "GraphStats",
    "NavigabilityWitness",
    "greedy_search",
    "merge_graphs",
    "graph_stats",
    "check_navigable",
    "segment_min",
]

#: ``check_navigable``'s blocks hold about this many (query, point) distances.
BLOCK_CELLS = 1 << 13
#: Abstract inputs: out-neighbours read per (query, vertex) pair before its
#: whole row is.
PROBES = 16
#: Coordinate inputs: index-spaced out-neighbours each vertex ranks for its
#: probes, and the axes whose signs name an orthant (2^ORTHANT_AXES probes).
SAMPLE = 32
ORTHANT_AXES = 4


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

    def __init__(self, n: int, out_edges: Sequence):
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
        self._store(n, flat, offsets)

    @classmethod
    def _from_csr(cls, n: int, flat: np.ndarray, offsets: np.ndarray) -> ProximityGraph:
        """The graph of an int64 CSR adjacency, checked as the constructor checks rows."""
        _check_csr(n, flat, offsets)
        g = cls.__new__(cls)
        g._store(n, flat, offsets)
        return g

    @classmethod
    def from_codes(cls, n: int, codes: np.ndarray) -> ProximityGraph:
        """The graph of the ascending, distinct edge codes v * n + t, unchecked."""
        g = cls.__new__(cls)
        offsets = np.searchsorted(codes, np.arange(n + 1, dtype=np.int64) * n)
        g._store(n, (codes % n).astype(np.int64, copy=False), offsets)
        return g

    @classmethod
    def _star(cls, n: int, v: int, row: np.ndarray) -> ProximityGraph:
        """The graph whose only out-edges are vertex v's ``row``, unchecked.

        No Python loop over n: the other rows share one empty view.
        """
        offsets = np.zeros(n + 1, dtype=np.int64)
        offsets[v + 1 :] = len(row)
        g = cls.__new__(cls)
        g._store(n, row, offsets)
        g.out_edges = [row[:0]] * n
        g.out_edges[v] = row
        return g

    def _store(self, n, flat, offsets) -> None:
        flat.setflags(write=False)
        offsets.setflags(write=False)
        self.n = int(n)
        self.flat = flat
        self.offsets = offsets
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


def _check_epsilon(epsilon: float) -> None:
    """The verifiers' epsilon must be positive and finite."""
    if not 0 < epsilon < math.inf:
        raise DomainError(f"epsilon must be positive and finite, got {epsilon}")


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
    points = pts.points
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
        # ``take`` gathers the same rows as ``points[nbrs]`` in about a
        # fifth of the time (numpy 2.4, 216 rows of 2 floats: 1.2 against
        # 6.2 us), which was a fifth of a hop's whole cost.
        if row is None:
            dists = space.distances(points.take(nbrs, axis=0), q)
        else:
            dists = row.take(nbrs)
        computed += len(nbrs)
        k = dists.argmin()  # first min = smallest index (nbrs sorted)
        d_next = float(dists[k])
        if d_next < d_current:
            current = int(nbrs[k])
            d_current = d_next
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


def merge_graphs(g1: ProximityGraph, g2: ProximityGraph) -> ProximityGraph:
    """Per-vertex union of out-edge sets; the order of arguments is immaterial."""
    if g1.n != g2.n:
        raise DomainError(f"cannot merge graphs with n={g1.n} and n={g2.n}")
    keys = sorted_distinct(np.concatenate([g1.edge_keys(), g2.edge_keys()]))
    return ProximityGraph.from_codes(g1.n, keys)


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


def _spaced(graph, count):
    """(n, count): out-neighbour k of v is flat[off[v] + k*deg[v]//count], or
    v itself if deg[v] = 0, which is never strictly closer to any query."""
    deg = np.diff(graph.offsets)
    has = deg > 0
    pos = graph.offsets[:-1][has, None] + np.arange(count) * deg[has, None] // count
    picks = np.repeat(np.arange(graph.n)[:, None], count, axis=1)
    picks[has] = graph.flat[pos]
    return picks


def _probes(graph, pts):
    """Probe-major (probes, n) table of vertices each v is compared with.

    Every probe of v is v or an out-neighbour of v, so a probe strictly
    closer to a query is a real exit and v itself never clears a pair.
    Abstract inputs take ``PROBES`` index-spaced out-neighbours.  Coordinate
    inputs rank ``SAMPLE`` index-spaced ones by squared coordinate offset (no
    metric call) and take, for each orthant of the first min(d,
    ``ORTHANT_AXES``) axes (offset >= 0 per axis), the nearest sampled
    neighbour in it, ties to the earlier sample, else v.
    """
    if pts.is_abstract:
        return np.ascontiguousarray(_spaced(graph, PROBES).T)
    sample = _spaced(graph, SAMPLE)
    sq = np.zeros(sample.shape)
    orthant = np.zeros(sample.shape, dtype=np.int64)
    for a, col in enumerate(pts.points.T):
        off = col.take(sample) - col[:, None]
        sq += off * off
        if a < ORTHANT_AXES:
            orthant += (off >= 0) << a
    order = np.lexsort((sq, orthant))  # per row: by orthant, nearest first
    ranked = np.take_along_axis(orthant, order, axis=1)
    first = np.ones(sample.shape, dtype=bool)
    first[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    v, j = np.nonzero(first)
    probes = np.tile(np.arange(graph.n), (1 << min(pts.dim, ORTHANT_AXES), 1))
    probes[ranked[v, j], v] = sample[v, order[v, j]]
    return probes


def _block_witness(graph, space, pts, epsilon, probes, block, b0):
    """The first witness among the queries ``block``, numbered from ``b0``.

    A non-ANN pair is cleared when one of its vertex's ``probes`` is
    strictly closer; only the others take the minimum over their whole row.
    Raises ``DomainError`` if any query of the block is out of the domain.
    """
    for q in block:
        _check_query_shape(pts, q)
    rows = cross_distances(space, block, pts.points)
    nn = rows.min(axis=1)
    _check_query_distance(float(nn.max()))  # NaN propagates through max
    thr = (1.0 + epsilon) * nn
    closer = (np.take(rows, probes, axis=1) < rows[:, None, :]).any(axis=1)
    qi, vi = np.nonzero(~(rows <= thr[:, None]) & ~closer)
    dist = rows[qi, vi]
    starts, lengths = graph.offsets[vi], np.diff(graph.offsets)[vi]
    cells = np.repeat(qi * graph.n, lengths) + graph.flat[_ranges(starts, lengths)]
    best = segment_min(rows.ravel()[cells], np.concatenate([[0], np.cumsum(lengths)]))
    fails = np.flatnonzero(~(best < dist))
    if len(fails) == 0:
        return None
    j, q = fails[0], qi[fails[0]]
    return NavigabilityWitness(
        b0 + int(q), block[q], int(vi[j]), float(dist[j]), float(thr[q]), float(best[j])
    )


def check_navigable(
    graph: ProximityGraph,
    space: MetricSpace,
    pts: PointSet,
    epsilon: float,
    queries,
) -> Optional[NavigabilityWitness]:
    """Verify the navigability disjunction for every (vertex, query) pair.

    For each query q and vertex p, either D(p, q) <= (1+eps) * D(p*, q) with
    p* the exact nearest neighbor of q, or some out-neighbor of p is strictly
    closer to q.  Returns None on a full pass, otherwise the first witness in
    (query, vertex) scan order.  Queries must come from the space's universe;
    they need not belong to the point set, but a query of the wrong shape or
    at a non-finite distance raises ``DomainError`` once every query before
    it has been checked.  Safe for concurrent use.  A query costs n distance
    evaluations; the answer is the per-query full scan's.
    """
    _check_epsilon(epsilon)
    if graph.n != pts.n:
        raise DomainError(f"graph has {graph.n} vertices for {pts.n} points")
    queries = list(queries)
    check = partial(_block_witness, graph, space, pts, epsilon, _probes(graph, pts))
    step = max(1, BLOCK_CELLS // graph.n)
    for b0 in range(0, len(queries), step):
        block = queries[b0 : b0 + step]
        try:
            witness = check(block, b0)
        except DomainError:  # redo query by query: those before the bad one go first
            singles = (check([q], k) for k, q in enumerate(block, b0))
            witness = next(filter(None, singles), None)
        if witness is not None:
            return witness
    return None
