"""Sampled-merge construction for Euclidean inputs.

The net-hierarchy graph is sparsified by keeping the out-edges of a random
vertex sample (the jackpot vertices, kept with probability tau) and merged
with a theta-graph at angle epsilon/32.  The theta-graph alone already makes
the merge (1+epsilon)-navigable; the surviving net edges exist to shortcut
long theta-graph walks, which the jackpot-capped query procedure exploits by
stopping after a fixed number of jackpot visits.

Randomness contract: jackpots are drawn as ``default_rng(seed).random(n) <
tau`` (numpy PCG64), so every sampled artifact is reproducible from (seed,
tau, n) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._util import DomainError, ceil_log2
from .graph import (
    ProximityGraph,
    SearchTrace,
    _greedy_engine,
    merge_graphs,
)
from .metrics import EuclideanSpace, MetricSpace, PointSet
from .netpg import build_net_pg_fast, normalize
from .nets import build_net_hierarchy
from .protocol import next_hop_table, walk
from .theta import build_theta_graph

__all__ = [
    "SampleConfig",
    "derive_sample_config",
    "sample_jackpots",
    "sparsify",
    "build_euclid_pg",
    "merged_from_components",
    "expected_merged_edges",
    "jackpot_query",
    "jackpot_condition_check",
    "best_of_runs",
]


@dataclass(frozen=True)
class SampleConfig:
    """Knobs of the sampled merge.

    ``rate_constant`` scales the keep probability (tau = min(1,
    rate_constant / log2(aspect ratio))); ``repeats`` is how many
    independently-seeded runs a best-of-runs sweep performs.
    """

    rate_constant: float
    keep_probability: float
    seed: int
    repeats: int

    def __post_init__(self):
        if self.rate_constant <= 0:
            raise DomainError(f"rate constant must be positive, got {self.rate_constant}")
        if not (0.0 < self.keep_probability <= 1.0):
            raise DomainError(
                f"keep probability must be in (0, 1], got {self.keep_probability}"
            )
        if self.repeats < 1:
            raise DomainError(f"repeats must be >= 1, got {self.repeats}")


def derive_sample_config(
    n: int,
    aspect_ratio: float,
    rate_constant: float = 4.0,
    seed: int = 0,
    repeats: Optional[int] = None,
) -> SampleConfig:
    """Default knobs: tau = min(1, z / log2(aspect)), repeats = ceil(4 log2 n).

    Degenerate aspect ratios (log2 <= 0) clamp tau to 1 rather than fail.
    """
    log_aspect = math.log2(aspect_ratio) if aspect_ratio > 1.0 else 0.0
    tau = 1.0 if log_aspect <= rate_constant else rate_constant / log_aspect
    if repeats is None:
        repeats = max(1, math.ceil(4.0 * math.log2(max(n, 2))))
    return SampleConfig(
        rate_constant=float(rate_constant),
        keep_probability=tau,
        seed=int(seed),
        repeats=int(repeats),
    )


def sample_jackpots(n: int, config: SampleConfig) -> np.ndarray:
    """Vertex sample: independent Bernoulli(keep_probability) per index."""
    rng = np.random.default_rng(config.seed)
    return np.flatnonzero(rng.random(n) < config.keep_probability).astype(np.int64)


def sparsify(g_net: ProximityGraph, jackpots: np.ndarray) -> ProximityGraph:
    """Keep the out-edges of the jackpot vertices verbatim, drop the rest."""
    jackpots = np.asarray(jackpots, dtype=np.int64)
    if len(jackpots) and (jackpots.min() < 0 or jackpots.max() >= g_net.n):
        raise DomainError("jackpot indices outside the vertex range")
    keep = np.zeros(g_net.n, dtype=bool)
    keep[jackpots] = True
    keys = g_net.edge_keys()
    keys = keys[keep[keys // g_net.n]]
    return ProximityGraph.from_codes(g_net.n, keys, "sampled-net")


def merged_from_components(
    g_net: ProximityGraph, g_geo: ProximityGraph, jackpots: np.ndarray
) -> ProximityGraph:
    """Sparsify the net graph by the given sample and union with the geometric one."""
    return merge_graphs(sparsify(g_net, jackpots), g_geo)


def _extra_edge_counts(g_net: ProximityGraph, g_geo: ProximityGraph) -> np.ndarray:
    """Per vertex v, |net_v minus geo_v|: the edges a jackpot at v adds."""
    net = g_net.edge_keys()
    extra = net[~np.isin(net, g_geo.edge_keys(), assume_unique=True)]
    return np.bincount(extra // g_net.n, minlength=g_net.n)


def expected_merged_edges(
    g_net: ProximityGraph, g_geo: ProximityGraph, tau: float
) -> tuple[float, float]:
    """Exact mean and variance of the merged edge count over the sampling.

    Per vertex v the merge contributes |geo_v| edges always and the extra
    |net_v minus geo_v| edges with probability tau, independently; the total
    is geo edges plus a weighted Bernoulli sum.
    """
    extra = _extra_edge_counts(g_net, g_geo).astype(np.float64)
    mean = g_geo.edge_count + tau * float(extra.sum())
    var = tau * (1.0 - tau) * float((extra * extra).sum())
    return mean, var


def build_euclid_pg(
    pts: PointSet,
    epsilon: float,
    config: Optional[SampleConfig] = None,
    space: Optional[MetricSpace] = None,
    rate_constant: float = 4.0,
    seed: int = 0,
    repeats: Optional[int] = None,
) -> ProximityGraph:
    """Merged proximity graph for Euclidean points in d in {2, 3}.

    Input is normalized internally (edge choices are scale-covariant, so the
    output graph is valid for the raw coordinates).  ``meta`` records the
    normalized points and space, both components, the jackpot set, and the
    measured aspect-ratio estimate that sized the sampling.  When no explicit
    config is given one is derived from the measured aspect ratio and the
    ``rate_constant``/``seed``/``repeats`` knobs.
    """
    if pts.is_abstract:
        raise DomainError("the merged construction needs coordinate points")
    if pts.dim not in (2, 3):
        raise DomainError(f"cone families support d in {{2, 3}}, got d={pts.dim}")
    if not (0.0 < epsilon <= 1.0):
        raise DomainError(f"epsilon must be in (0, 1], got {epsilon}")
    if space is None:
        space = EuclideanSpace(pts.dim)
    norm = normalize(space, pts)
    hierarchy = build_net_hierarchy(norm.space, norm.points)
    aspect = hierarchy.extremes.aspect_ratio
    if config is None:
        config = derive_sample_config(
            pts.n, aspect, rate_constant=rate_constant, seed=seed, repeats=repeats
        )
    g_net = build_net_pg_fast(norm.space, norm.points, epsilon, hierarchy=hierarchy)
    g_geo = build_theta_graph(norm.points, epsilon / 32.0)
    jackpots = sample_jackpots(pts.n, config)
    merged = merged_from_components(g_net, g_geo, jackpots)
    merged.meta = {
        "space": norm.space,
        "points": norm.points,
        "scale": norm.scale,
        "epsilon": float(epsilon),
        "config": config,
        "jackpots": jackpots,
        "aspect_ratio": aspect,
        "g_net": g_net,
        "g_geo": g_geo,
    }
    return merged


def jackpot_query(
    graph: ProximityGraph,
    space: MetricSpace,
    pts: PointSet,
    start: int,
    q,
    jackpots: np.ndarray,
    aspect_ratio: float,
) -> tuple[int, SearchTrace]:
    """Greedy search that stops upon visiting its k-th jackpot vertex.

    k = 1 + ceil(log2(2 * aspect_ratio)).  The capping hop itself is not
    scanned.  The returned trace carries per-hop jackpot flags and the
    inclusive hop-position ranges of the stretches each ending at a jackpot
    visit (the last stretch may instead end at self-termination).
    """
    if aspect_ratio <= 0:
        raise DomainError(f"aspect ratio must be positive, got {aspect_ratio}")
    cap = 1 + ceil_log2(2.0 * aspect_ratio)
    mask = np.zeros(graph.n, dtype=bool)
    mask[np.asarray(jackpots, dtype=np.int64)] = True
    trace = _greedy_engine(
        graph, space, pts, start, q, jackpot_mask=mask, jackpot_cap=cap
    )
    flags = tuple(bool(mask[v]) for v, _ in trace.hops)
    bounds = []
    seg_start = 0
    for pos, flag in enumerate(flags):
        if flag:
            bounds.append((seg_start, pos))
            seg_start = pos + 1
    if seg_start < len(flags):
        bounds.append((seg_start, len(flags) - 1))
    annotated = replace(trace, jackpot_flags=flags, subsequences=tuple(bounds))
    return annotated.final, annotated


def jackpot_condition_check(
    g_geo: ProximityGraph,
    space: MetricSpace,
    pts: PointSet,
    q,
    jackpots: np.ndarray,
    aspect_ratio: float,
) -> bool:
    """Does every long geometric greedy walk toward q hit a jackpot early?

    A walk is long when it visits at least L = ceil(ln(n) * log2(aspect))
    vertices; the condition demands a jackpot among its first L vertices.
    Checked for the walks started at every data point.
    """
    n = pts.n
    length = max(1, math.ceil(math.log(n) * math.log2(max(aspect_ratio, 2.0))))
    mask = np.zeros(n, dtype=bool)
    mask[np.asarray(jackpots, dtype=np.int64)] = True
    row = space.distances(pts.points, q)
    nxt = next_hop_table(g_geo, row)
    for p in range(n):
        path = walk(nxt, p)
        if len(path) >= length and not mask[np.asarray(path[:length])].any():
            return False
    return True


def best_of_runs(
    pts: PointSet,
    epsilon: float,
    config: Optional[SampleConfig] = None,
    space: Optional[MetricSpace] = None,
    rate_constant: float = 4.0,
    seed: int = 0,
    repeats: Optional[int] = None,
) -> ProximityGraph:
    """Smallest merged graph over ``config.repeats`` consecutively-seeded runs.

    The deterministic components are built once; per run only the jackpot
    sample varies, and the run's edge count follows exactly from which
    vertices hit the jackpot, so only the winning graph is materialized.
    Every candidate is individually navigable, hence so is the winner.
    ``meta["run_sizes"]`` lists (seed, edge count) for all runs.
    """
    base = build_euclid_pg(
        pts,
        epsilon,
        config=config,
        space=space,
        rate_constant=rate_constant,
        seed=seed,
        repeats=repeats,
    )
    config = base.meta["config"]
    g_net, g_geo = base.meta["g_net"], base.meta["g_geo"]
    extra = _extra_edge_counts(g_net, g_geo)
    geo_edges = g_geo.edge_count
    sizes = []
    for r in range(config.repeats):
        run_config = replace(config, seed=config.seed + r)
        jackpots = sample_jackpots(pts.n, run_config)
        sizes.append((run_config.seed, geo_edges + int(extra[jackpots].sum())))
    best_seed, best_size = min(sizes, key=lambda sv: (sv[1], sv[0]))
    if best_seed == config.seed:
        winner = base
    else:
        jackpots = sample_jackpots(pts.n, replace(config, seed=best_seed))
        winner = merged_from_components(g_net, g_geo, jackpots)
        winner.meta = dict(base.meta)
        winner.meta["config"] = replace(config, seed=best_seed)
        winner.meta["jackpots"] = jackpots
    assert winner.edge_count == best_size
    winner.meta["run_sizes"] = sizes
    return winner
