"""Build a net graph over random points and watch greedy routing work.

Run: python demos/route_quickstart.py [seed]
"""

import sys

import numpy as np

from navgraph import (
    EuclideanSpace,
    PointSet,
    build_net_pg,
    greedy_search,
    normalize,
)


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    rng = np.random.default_rng(seed)
    raw = PointSet(rng.random((300, 2)))
    norm = normalize(EuclideanSpace(2), raw)
    eps = 0.5

    graph = build_net_pg(norm.space, norm.points, eps)
    hierarchy = graph.meta["hierarchy"]
    print(f"{raw.n} points, eps={eps}")
    print(
        f"hierarchy height {hierarchy.top_level}, "
        f"graph has {graph.edge_count} edges, "
        f"max out-degree {np.diff(graph.offsets).max()}"
    )

    for trial in range(3):
        q = rng.uniform(norm.points.points.min(), norm.points.points.max(), size=2)
        start = int(rng.integers(0, raw.n))
        res = greedy_search(graph, norm.space, norm.points, start, q)
        dists = " -> ".join(f"{d:.2f}" for _, d in res.hops)
        print(f"\nquery {trial}: start {start}, {len(res.hops) - 1} hops")
        print(f"  path      {res.vertices}")
        print(f"  distances {dists}")
        print(
            f"  answer {res.final} at distance {res.hops[-1][1]:.3f} "
            f"({res.distance_computations} distance computations, "
            f"terminated: {res.terminated})"
        )

    # a tight budget stops the walk early but still reports where it stood
    q = rng.uniform(norm.points.points.min(), norm.points.points.max(), size=2)
    for budget in (25, 200, 600):
        res = greedy_search(graph, norm.space, norm.points, 0, q, budget=budget)
        print(
            f"\nbudget {budget}: reached {res.final} after {len(res.hops) - 1} "
            f"hops, {res.distance_computations} computations, "
            f"terminated: {res.terminated}"
        )


if __name__ == "__main__":
    main()
