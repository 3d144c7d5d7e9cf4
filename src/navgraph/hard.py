"""Executable lower-bound instances and their verifiers.

Two families.  The power-of-two tree metric forces specific directed edges
into any graph that wants greedy routing to work from every start: drop one
such edge from the complete graph and greedy gets stuck at its tail.  The
block family does the same with an adversarial query distance per target
point, forcing every ordered intra-block pair.  Both families also come with
doubling witnesses: sampled balls are covered by few half-radius balls, with
the cover exhibited explicitly and checked exhaustively.

A forced edge (s, t) is certified two ways that must agree: directly (no
point other than s and t is strictly closer to the query than s) and by a
literal ``greedy_search`` from s.  The literal run walks a star graph that
holds s's row of the complete graph minus the edge and no other row.  Its
first step reads only that row, so a stuck run is stuck in both graphs;
a run that moves leaves s in both, so it is "not stuck" in both.  Each
certificate is O(m) array work for m points, not an O(m^2) graph.

The tree itself is never materialized (leaf ids run up to 2**63 - 1); all
structure lives in the id arithmetic of the xor metric.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._util import DomainError, floor_log2
from .graph import ProximityGraph, greedy_search
from .metrics import BlockMetricSpace, PointSet, TreeMetricSpace

__all__ = [
    "TreeInstance",
    "BlockInstance",
    "ForcedEdgeReport",
    "DoublingReport",
    "gen_tree_instance",
    "gen_block_instance",
    "verify_forced_edges_tree",
    "verify_forced_edges_blocks",
    "check_tree_doubling",
    "check_block_doubling",
    "tree_ball_cover",
    "block_ball_cover",
    "cover_with_half_balls",
]

BLOCK_SIZE_CAP = 4096


@dataclass(frozen=True)
class TreeInstance:
    """Point set over the leaves of a complete binary tree of the given height.

    ``subtree_leaves`` are the leaves 0..n-1 (the subtree hanging below the
    leftmost path at depth log2 n); ``path_leaves`` pick one leaf from each of
    the floor(h/2) largest sibling subtrees along the leftmost path, namely
    the leftmost leaf 2**(i-1) of the sibling at height i.
    """

    n: int
    delta: int
    height: int
    space: TreeMetricSpace
    points: PointSet
    subtree_leaves: np.ndarray
    path_leaves: np.ndarray


@dataclass(frozen=True)
class BlockInstance:
    """t translated copies of the integer grid {0..s-1}^d, spaced 2s apart in x.

    Points are ordered lexicographically inside each block, blocks in offset
    order, so ids i*s**d .. (i+1)*s**d - 1 form block i.  The companion query
    distance for a target point lives in ``space_for``; epsilon = 1/(2s) is
    the approximation slack the family defeats.
    """

    side: int
    copies: int
    dim: int
    epsilon: float
    coords: np.ndarray
    points: PointSet
    block_origins: np.ndarray

    @property
    def n(self) -> int:
        return self.side**self.dim * self.copies

    @property
    def block_size(self) -> int:
        return self.side**self.dim

    def block_of(self, index: int) -> int:
        return index // self.block_size

    def space_for(self, p_star: int) -> BlockMetricSpace:
        return BlockMetricSpace(self.coords, self.side, p_star)


@dataclass(frozen=True)
class ForcedEdgeReport:
    expected: int
    certified: int
    failures: tuple = ()

    @property
    def passed(self) -> bool:
        return self.certified == self.expected and not self.failures


@dataclass(frozen=True)
class DoublingReport:
    trials: int
    successes: int
    budget: int
    max_centers: int
    failures: tuple = ()

    @property
    def passed(self) -> bool:
        return self.successes == self.trials and not self.failures


def _require_samples(samples: int) -> None:
    # zero trials would report every sampled ball covered, vacuously
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")


def _require_power_of_two(value: int, name: str) -> None:
    if value < 1 or value & (value - 1):
        raise DomainError(f"{name} must be a power of two, got {value}")


def gen_tree_instance(n: int, delta: int) -> TreeInstance:
    """Tree-metric hard instance with n subtree leaves and aspect ratio delta.

    Requires n >= 2, n and delta powers of two, n**2 <= 2*delta (the forced
    pairs need enough tree height) and 2*delta <= 2**n (the height must not
    dwarf the point count).  Error messages name the violated constraint.
    """
    if n < 2:
        raise DomainError(f"constraint n >= 2 violated: n={n}")
    _require_power_of_two(n, "n")
    _require_power_of_two(delta, "delta")
    if n * n > 2 * delta:
        raise DomainError(f"constraint n**2 <= 2*delta violated: n={n}, delta={delta}")
    height = (2 * delta).bit_length() - 1
    if height > n:
        raise DomainError(f"constraint 2*delta <= 2**n violated: n={n}, delta={delta}")
    subtree = np.arange(n, dtype=np.int64)
    path = np.array(
        [1 << (i - 1) for i in range(height - height // 2 + 1, height + 1)],
        dtype=np.int64,
    )
    ids = np.concatenate([subtree, path])
    if len(np.unique(ids)) != len(ids):
        raise AssertionError("leaf groups overlap; constraints should prevent this")
    return TreeInstance(
        n=n,
        delta=delta,
        height=height,
        space=TreeMetricSpace(height),
        points=PointSet(ids),
        subtree_leaves=subtree,
        path_leaves=path,
    )


def gen_block_instance(side: int, copies: int, dim: int) -> BlockInstance:
    """Block hard instance with t=copies grids of side s in dimension d."""
    if side < 2:
        raise DomainError(f"constraint side >= 2 violated: side={side}")
    if copies < 1:
        raise DomainError(f"constraint copies >= 1 violated: copies={copies}")
    if dim < 1:
        raise DomainError(f"constraint dim >= 1 violated: dim={dim}")
    total = side**dim * copies
    if total > BLOCK_SIZE_CAP:
        raise DomainError(
            f"constraint side**dim * copies <= {BLOCK_SIZE_CAP} violated: got {total}"
        )
    offsets = np.array(
        list(itertools.product(range(side), repeat=dim)), dtype=np.int64
    )
    origins = np.arange(copies, dtype=np.int64) * (2 * side)
    parts = []
    for x0 in origins:
        block = offsets.copy()
        block[:, 0] += x0
        parts.append(block)
    coords = np.vstack(parts)
    return BlockInstance(
        side=side,
        copies=copies,
        dim=dim,
        epsilon=1.0 / (2 * side),
        coords=coords,
        points=PointSet(np.arange(total, dtype=np.int64)),
        block_origins=origins,
    )


def _forced_edge_failure(
    space, pts: PointSet, row: np.ndarray, start: int, target: int, q
) -> Optional[str]:
    """Why the edge (start, target) is not certified forced for q, or None.

    ``row`` holds every point's distance to q.  Without the edge, greedy from
    ``start`` must be stuck, by direct quantification and by a literal run
    over start's row alone (see the module docstring); the two must agree.
    """
    others = np.delete(np.arange(len(row)), [start, target])
    direct = bool((row[others] >= row[start]).all())
    trace = greedy_search(ProximityGraph._star(len(row), start, others), space, pts, start, q)
    literal = trace.terminated == "self" and len(trace.hops) == 1
    if literal != direct:
        return "routes disagree"
    return None if literal else "not stuck"


def verify_forced_edges_tree(instance: TreeInstance) -> ForcedEdgeReport:
    """Certify that every (subtree leaf, path leaf) directed edge is forced.

    For each pair, greedy from the subtree leaf toward the path leaf must be
    stuck once that one edge is dropped from the complete graph: no other
    point strictly closer, checked by direct quantification and by a literal
    greedy run over the subtree leaf's row alone (see
    ``_forced_edge_failure``).  Both routes must agree; the pair is
    certified only when both report stuck, which makes the dropped edge
    mandatory for any graph claiming greedy reachability.  Each certificate
    costs O(m) array work for m points.
    """
    ids = instance.points.points
    index_of = {int(v): i for i, v in enumerate(ids)}
    space, pts = instance.space, instance.points
    expected = len(instance.subtree_leaves) * len(instance.path_leaves)
    certified = 0
    failures = []
    for v2 in instance.path_leaves:
        row = space.distances(ids, int(v2))
        for v1 in instance.subtree_leaves:
            failure = _forced_edge_failure(
                space, pts, row, index_of[int(v1)], index_of[int(v2)], int(v2)
            )
            if failure is None:
                certified += 1
            else:
                failures.append((int(v1), int(v2), failure))
    return ForcedEdgeReport(expected, certified, tuple(failures))


def verify_forced_edges_blocks(instance: BlockInstance) -> ForcedEdgeReport:
    """Certify every ordered intra-block pair (p1, p2) as a forced edge.

    Under the query distance targeting p2, two facts are asserted: p1 is not
    a (1+epsilon)-approximate answer for the query (side > (1+epsilon) *
    (side-1)), and in the complete graph minus the edge (p1, p2) greedy from
    p1 is stuck, checked by direct quantification and by a literal run over
    p1's row alone (see ``_forced_edge_failure``).  Inter-block edges are
    never claimed.
    """
    n = instance.n
    bs = instance.block_size
    eps = instance.epsilon
    pts = instance.points
    ids = np.arange(n, dtype=np.int64)
    expected = instance.copies * bs * (bs - 1)
    certified = 0
    failures = []
    for p2 in range(n):
        space = instance.space_for(p2)
        q = space.query_id
        row = space.distances(ids, q)
        block_lo = (p2 // bs) * bs
        for p1 in range(block_lo, block_lo + bs):
            if p1 == p2:
                continue
            if not row[p1] > (1.0 + eps) * row[p2]:
                failure = "start is an approximate answer"
            else:
                failure = _forced_edge_failure(space, pts, row, p1, p2, q)
            if failure is None:
                certified += 1
            else:
                failures.append((p1, p2, failure))
    return ForcedEdgeReport(expected, certified, tuple(failures))


def tree_ball_cover(
    instance: TreeInstance, p: int, r: float
) -> tuple[int, list[int]]:
    """Half-radius cover of the tree ball B(p, r): level used and <= 2 centers.

    For r < 2 the ball is the singleton {p}.  Otherwise with l =
    min(floor(log2 r), height) the ball equals the leaf interval of p's
    ancestor at height l, and the leftmost leaves of that ancestor's two
    child intervals are centers of radius-2**(l-1) balls covering it,
    2**(l-1) <= r/2 by the choice of l.  Centers are leaves of the tree, not
    necessarily sample points.
    """
    if r < 2.0:
        return -1, [p]
    level = min(floor_log2(r), instance.height)
    base = (p >> level) << level
    if level == 0:
        return 0, [p]
    return level, [base, base + (1 << (level - 1))]


def check_tree_doubling(
    instance: TreeInstance, samples: int = 1000, seed: int = 0
) -> DoublingReport:
    """Sampled doubling witnesses for the tree metric: <= 2 half-radius balls.

    The universe is the sample points plus extra random leaves (the full leaf
    set can be astronomically large).  Each trial draws a center from the
    universe and a radius, builds the ball over the universe, asserts the
    structural interval identity of the ball, and verifies exhaustively that
    the recipe's centers cover it at half radius.
    """
    _require_samples(samples)
    rng = np.random.default_rng(seed)
    two_delta = 2 * instance.delta
    extra = rng.integers(0, two_delta, size=512, dtype=np.int64)
    universe = np.unique(np.concatenate([instance.points.points, extra]))
    space = instance.space
    successes = 0
    max_centers = 0
    failures = []
    for _ in range(samples):
        p = int(universe[rng.integers(0, len(universe))])
        if rng.random() < 0.3:
            r = float(1 << int(rng.integers(1, instance.height + 1)))
        else:
            r = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0 * two_delta))))
        row = space.distances(universe, p)
        ball = universe[row <= r]
        level, centers = tree_ball_cover(instance, p, r)
        if level >= 0:
            interval = universe[(universe >> level) == (p >> level)]
            if not np.array_equal(ball, interval):
                failures.append((p, r, "ball is not the ancestor interval"))
                continue
        else:
            if not np.array_equal(ball, np.array([p], dtype=np.int64)):
                failures.append((p, r, "sub-minimum radius ball not a singleton"))
                continue
        cover = np.full(len(ball), False)
        for c in centers:
            cover |= space.distances(ball, int(c)) <= r / 2.0
        if cover.all() and len(centers) <= 2:
            successes += 1
            max_centers = max(max_centers, len(centers))
        else:
            failures.append((p, r, "half-radius cover failed"))
    return DoublingReport(samples, successes, 2, max_centers, tuple(failures))


def cover_with_half_balls(
    dist: np.ndarray, center: int, radius: float, budget: int
) -> Optional[list[int]]:
    """Cover the ball around ``center`` by <= budget half-radius balls, or None.

    ``dist`` is the full symmetric distance matrix of the finite universe;
    every universe element is a candidate center.  Greedy max-coverage is
    tried first; when it overshoots the budget an exact depth-limited search
    settles the question.  The returned centers are verified to cover.
    """
    ball = np.flatnonzero(dist[center] <= radius)
    if len(ball) == 0:
        return []
    half = radius / 2.0
    covers = {}
    for u in range(dist.shape[0]):
        got = frozenset(ball[dist[u, ball] <= half].tolist())
        if got:
            covers.setdefault(got, u)
    candidates = {u: s for s, u in covers.items()}
    target = frozenset(ball.tolist())

    chosen = []
    uncovered = set(target)
    while uncovered and len(chosen) < budget:
        best = min(candidates, key=lambda u: (-len(candidates[u] & uncovered), u))
        gain = candidates[best] & uncovered
        if not gain:
            break
        chosen.append(best)
        uncovered -= candidates[best]
    if not uncovered:
        return sorted(chosen)

    by_elt = {e: [u for u, s in candidates.items() if e in s] for e in target}

    def search(uncov: frozenset, depth: int) -> Optional[list[int]]:
        if not uncov:
            return []
        if depth == 0:
            return None
        elt = min(uncov, key=lambda e: len(by_elt[e]))
        opts = sorted(by_elt[elt], key=lambda u: (-len(candidates[u] & uncov), u))
        for u in opts:
            rest = search(uncov - candidates[u], depth - 1)
            if rest is not None:
                return [u] + rest
        return None

    exact = search(target, budget)
    if exact is None:
        return None
    check = set()
    for u in exact:
        check |= candidates[u]
    assert target <= check
    return sorted(exact)


def block_ball_cover(
    instance: BlockInstance, p_star: int, c: int, r: float, dist: np.ndarray
) -> list:
    """Half-radius cover of the ball around universe element c, by recipe.

    Query-centered balls fall into three regimes (singleton below side-1,
    the pair {q, target} up to side, the target block's origin ball above).
    Point-centered balls take the 2**d orthant sub-cubes of the L-infinity
    cube around the center, each an ambient ball of radius r/2 at the orthant
    midpoint (the grid's own points are too coarse: a radius-1 ball can hold
    3**d points while half-radius balls around grid points are singletons),
    plus the query ball when the query lies inside.  Descriptors are
    ("elem", id) for a metric ball around a universe element and
    ("orthant", base, sigma) for the ambient ball at base + (r/2) * sigma;
    both get radius r/2.  A point x lies in an orthant ball exactly when
    sigma * (x - base) stays in [0, r] coordinatewise, which tests exactly
    in floats because base and x are integer vectors.
    """
    n = instance.n
    s = instance.side
    dim = instance.dim

    def orthants(base: np.ndarray) -> list:
        out = []
        for sigma in itertools.product((-1.0, 1.0), repeat=dim):
            out.append(("orthant", base, np.array(sigma)))
        return out

    if c == n:
        if r < s - 1:
            return [("elem", n)]
        if r < s:
            return [("elem", n), ("elem", p_star)]
        w_star = np.zeros(dim, dtype=np.float64)
        w_star[0] = float(instance.block_origins[instance.block_of(p_star)])
        return [("elem", n)] + orthants(w_star)
    covers = orthants(instance.coords[c].astype(np.float64))
    if dist[c, n] <= r:
        covers.append(("elem", n))
    return covers


def check_block_doubling(
    instance: BlockInstance, p_star: int, samples: int = 1000, seed: int = 0
) -> DoublingReport:
    """Sampled doubling witnesses for a block query distance: <= 1 + 2**d balls.

    The universe is the n points plus the query element.  Radii mix the
    structural thresholds (just under and at side-1, between side-1 and side)
    with log-uniform draws up to past the diameter, so singleton balls, the
    two-point query ball and full cross-block balls all occur.  Each trial
    builds the cover from ``block_ball_cover`` and verifies exhaustively that
    every universe element of the ball lands in some cover ball.
    """
    _require_samples(samples)
    n = instance.n
    space = instance.space_for(p_star)
    elements = np.arange(n + 1, dtype=np.int64)
    dist = np.empty((n + 1, n + 1), dtype=np.float64)
    for u in range(n + 1):
        dist[u] = space.distances(elements, int(u))
    coords_f = instance.coords.astype(np.float64)
    budget = 1 + 2**instance.dim
    rng = np.random.default_rng(seed)
    s = instance.side
    diameter = float(dist.max())
    successes = 0
    max_centers = 0
    failures = []
    for _ in range(samples):
        c = int(rng.integers(0, n + 1))
        u = rng.random()
        if u < 0.15:
            r = float(rng.uniform(0.1, 0.9))
        elif u < 0.3:
            r = float(s - 1)
        elif u < 0.45:
            r = float(s) - 0.5
        else:
            r = float(np.exp(rng.uniform(np.log(1.0), np.log(2.0 * diameter))))
        ball = np.flatnonzero(dist[c] <= r)
        covers = block_ball_cover(instance, p_star, c, r, dist)
        covered = np.zeros(len(ball), dtype=bool)
        used = 0
        for cover in covers:
            if cover[0] == "elem":
                hit = dist[cover[1], ball] <= r / 2.0
            else:
                _, base, sigma = cover
                hit = np.zeros(len(ball), dtype=bool)
                is_point = ball < n
                delta = (coords_f[ball[is_point]] - base) * sigma
                hit[is_point] = ((delta >= 0.0) & (delta <= r)).all(axis=1)
            if hit.any():
                used += 1
            covered |= hit
        if covered.all() and used <= budget:
            successes += 1
            max_centers = max(max_centers, used)
        else:
            failures.append((c, r, "recipe cover failed"))
    return DoublingReport(samples, successes, budget, max_centers, tuple(failures))
