"""Three Euclidean builders, one gate.

The net-hierarchy graph works in any metric; the cone graph needs
coordinates but caps out-degree by the cone count; the sampled merge unions
the cone graph with the full net rows of a random vertex subset.  At a few
hundred points their sizes are comparable and every one passes the same
navigability protocol; the size gap only opens at scales where the aspect
ratio dwarfs the cone count.

Run: python demos/compare_builders.py
"""

import numpy as np

from navgraph import (
    EuclideanSpace,
    build_euclid_pg,
    build_net_pg,
    build_theta_graph,
    check_navigable,
    normalize,
    run_query_protocol,
    standard_query_set,
)
from navgraph.metrics import PointSet

N, EPS, SEED = 400, 1.0, 42


def describe(name, graph, space, pts, queries):
    degs = np.diff(graph.offsets)
    witness = check_navigable(graph, space, pts, EPS, queries)
    report = run_query_protocol(
        graph, space, pts, EPS, queries, starts_per_query=5, seed=SEED
    )
    print(
        f"{name:10s} {graph.edge_count:7d} edges, out-degree "
        f"mean {np.mean(degs):6.1f} max {max(degs):4d}, "
        f"navigable: {witness is None}, "
        f"walks all ANN: {report.all_ann}, max hops {report.max_hops}"
    )


def main():
    rng = np.random.default_rng(SEED)
    norm = normalize(EuclideanSpace(2), PointSet(rng.random((N, 2))))
    pts, space = norm.points, norm.space
    queries = standard_query_set(pts, EPS, n_random=200, n_perturbed=100, seed=SEED)
    print(f"{N} points in the plane, eps={EPS}, {len(queries)} queries\n")

    g_net = build_net_pg(space, pts, EPS)
    describe("net", g_net, space, pts, queries)

    g_theta = build_theta_graph(pts, EPS / 32.0)
    describe("cone", g_theta, space, pts, queries)

    merged = build_euclid_pg(PointSet(rng.random((N, 2))), EPS, seed=SEED)
    # the merged graph ships its own normalized frame in meta
    mpts, mspace = merged.meta["points"], merged.meta["space"]
    mqueries = standard_query_set(mpts, EPS, n_random=200, n_perturbed=100, seed=SEED)
    describe("merged", merged, mspace, mpts, mqueries)

    cfg = merged.meta["config"]
    print(
        f"\nmerged sampling: keep probability {cfg.keep_probability:.3f}, "
        f"{len(merged.meta['jackpots'])} of {merged.n} vertices kept their "
        f"full net out-edges"
    )


if __name__ == "__main__":
    main()
