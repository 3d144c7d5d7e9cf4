"""The four benchmark workloads: inputs from a seed, one timed cycle, checks.

Every workload uses eps = 1 and drives navgraph through its public API from
one thread.  ``setup`` writes the inputs, ``cycle`` runs the work that is
timed (repeated for the run's measuring time), ``check`` counts failed
operations over the cycles run, and ``reference`` rebuilds a small pinned
instance whose sha256 digests are recorded in ``reference.json``.  A cycle
takes a ``spaces`` factory, so a traced cycle can hand the builders counting
metric spaces without changing what they compute.

Why these four (also in BENCHMARK.json):

* ``net-d2``: the ``navgraph build net`` path.  The Euclidean net hierarchy,
  its grid level balls and the O(n^2) normalisation do the work; theta none.
* ``merged-d2``: the ``navgraph build merged --repeats`` path.  The cone
  graph dominates; it is the only workload where ``theta`` and the sampling
  in ``euclid`` show.
* ``route-d2``: the read side.  The merged graph is built in set-up; the
  cycle routes the standard query battery and runs the verifiers, so a
  storage change that slows per-hop neighbour access shows here.
* ``tree-hard``: abstract metrics.  The tree net build takes the helper
  path and the per-element ``distances`` loops, and ``hard`` certifies the
  forced edges; no Euclidean grid or cone code runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from pathlib import Path

import numpy as np

import navgraph as ng

EPS = 1.0
#: Seed of the pinned reference instances in reference.json.
REFERENCE_SEED = 0


def _uniform_points(rng, n: int) -> np.ndarray:
    """Seeded uniform points in the unit square, with a planted closest pair.

    Point 0 sits at the origin and point 1 at distance 2**-14 from it.  At
    n = 1000 another pair falls that close with probability about 0.006, so
    the aspect ratio, hence the height of the net hierarchy, is the same for
    every seed; left free, the height moves by a level or two between seeds
    and the build time with it.
    """
    pts = rng.random((n, 2))
    pts[0] = (0.0, 0.0)
    pts[1] = (2.0**-14, 0.0)
    return pts


def _route(graph, space, pts, queries, starts) -> dict:
    """Closed-loop greedy routing, one caller: each query waits for the last."""
    count = len(queries)
    latencies = np.empty(count)
    evals = np.empty(count, dtype=np.int64)
    finals = np.empty(count, dtype=np.int64)
    final_dist = np.empty(count)
    loop_start = time.perf_counter()
    for i in range(count):
        t0 = time.perf_counter()
        trace = ng.greedy_search(graph, space, pts, int(starts[i]), queries[i])
        latencies[i] = time.perf_counter() - t0
        evals[i] = trace.distance_computations
        finals[i], final_dist[i] = trace.hops[-1]
    loop_s = time.perf_counter() - loop_start
    return {
        "latencies": latencies,
        "qps": count / loop_s,
        "dist_evals": evals,
        "finals": finals,
        "final_dist": final_dist,
    }


def _ann_thresholds(space, pts, queries) -> np.ndarray:
    return np.array(
        [(1.0 + EPS) * ng.brute_force_nn(space, pts, q)[1] for q in queries]
    )


class Workload:
    """Shared parts: file locations, the timed build and the checks.

    A subclass sets ``name``, sizes its inputs in ``__init__`` and defines
    ``setup``, ``cycle`` and ``reference``.  ``verdicts`` in a cycle result
    lists one boolean per verifier call (True when it returned what the
    instance guarantees).
    """

    name = ""

    def __init__(self, seed: int, work_dir: Path):
        self.seed = int(seed)
        self.points_path = work_dir / f"{self.name}.points.txt"
        self.graph_path = work_dir / f"{self.name}.graph.txt"
        self.check_target = None  # (space, points, queries) the routes ran on
        self.setup_build_s = None  # set by a workload whose set-up builds its graph

    def _build(self, make_graph) -> tuple:
        """Raw points file to a saved, digested graph, timed as one step."""
        t0 = time.perf_counter()
        pts = ng.load_points(self.points_path)
        graph, space, norm_pts = make_graph(pts)
        ng.save_graph(self.graph_path, graph)
        digest = ng.file_digest(self.graph_path)
        return time.perf_counter() - t0, graph, space, norm_pts, digest

    def check(self, cycles: list[dict]) -> tuple[int, int]:
        """(attempted, failed) over every build, query and verifier call run.

        A build fails when its digest differs from the first cycle's (same
        input, so the bytes must repeat); a query fails when it does not end
        at a (1+eps)-ANN by ``brute_force_nn``.
        """
        space, pts, queries = self.check_target
        thresholds = _ann_thresholds(space, pts, queries)
        attempted = failed = 0
        for c in cycles:
            if c.get("digest") is not None:
                attempted += 1
                failed += c["digest"] != cycles[0]["digest"]
            attempted += len(c["final_dist"]) + len(c["verdicts"])
            failed += int((c["final_dist"] > thresholds).sum())
            failed += sum(not ok for ok in c["verdicts"])
        return attempted, failed


class NetD2(Workload):
    """``navgraph build net`` on uniform points in the unit square."""

    name = "net-d2"

    def __init__(self, seed, work_dir, n=1000, queries=1000, checks=128):
        super().__init__(seed, work_dir)
        self.n, self.n_queries, self.n_checks = n, queries, checks

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        ng.save_points(self.points_path, ng.PointSet(_uniform_points(rng, self.n)))
        self.queries = rng.random((self.n_queries, 2))
        self.starts = rng.integers(0, self.n, size=self.n_queries)
        self.checks = rng.random((self.n_checks, 2))

    def _make(self, spaces):
        def make(pts):
            norm = ng.normalize(spaces.euclidean(2), pts)
            graph = ng.build_net_pg(norm.space, norm.points, EPS)
            graph.meta["scale"] = norm.scale
            return graph, norm.space, norm.points

        return make

    def _verify_and_route(self, graph, space, pts, scale) -> dict:
        t0 = time.perf_counter()
        witness = ng.check_navigable(graph, space, pts, EPS, self.checks * scale)
        verify_s = time.perf_counter() - t0
        queries = self.queries * scale
        self.check_target = (space, pts, queries)
        route = _route(graph, space, pts, queries, self.starts)
        return dict(route, verify_s=verify_s, verdicts=[witness is None])

    def cycle(self, spaces) -> dict:
        build_s, graph, space, pts, digest = self._build(self._make(spaces))
        out = self._verify_and_route(graph, space, pts, graph.meta["scale"])
        return dict(out, build_s=build_s, digest=digest, edges=graph.edge_count)

    def reference(self, spaces) -> dict[str, str]:
        self.setup()
        return {"graph": self._build(self._make(spaces))[4]}


class MergedD2(NetD2):
    """``navgraph build merged --repeats`` with repeats derived from n."""

    name = "merged-d2"

    def __init__(self, seed, work_dir, n=600, queries=1000, checks=128):
        super().__init__(seed, work_dir, n, queries, checks)

    def _make(self, spaces):
        def make(pts):
            graph = ng.best_of_runs(pts, EPS, space=spaces.euclidean(2), seed=self.seed)
            return graph, graph.meta["space"], graph.meta["points"]

        return make


class RouteD2(Workload):
    """Greedy and jackpot routing plus the verifiers on a merged graph.

    The graph is built in set-up.  A cycle routes the whole standard query
    battery with ``greedy_search`` and ``jackpot_query`` and checks it with
    ``check_navigable``; ``run_query_protocol`` walks a seeded sample of
    ``protocol`` battery queries (a like mix of data points, box samples and
    jittered points) from ``starts_per_query`` starts each.
    """

    name = "route-d2"

    def __init__(self, seed, work_dir, n=600, protocol=100, starts_per_query=10):
        super().__init__(seed, work_dir)
        self.n, self.n_protocol, self.starts_per_query = n, protocol, starts_per_query

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        ng.save_points(self.points_path, ng.PointSet(_uniform_points(rng, self.n)))

        def make(pts):
            graph = ng.build_euclid_pg(pts, EPS, seed=self.seed)
            return graph, graph.meta["space"], graph.meta["points"]

        self.setup_build_s, self.graph, space, self.pts, self.digest = self._build(make)
        self.queries = ng.standard_query_set(self.pts, EPS, seed=self.seed)
        self.starts = rng.integers(0, self.n, size=len(self.queries))
        self.protocol_queries = rng.permutation(len(self.queries))[: self.n_protocol]
        self.check_target = (space, self.pts, self.queries)

    def cycle(self, spaces) -> dict:
        graph, pts, queries = self.graph, self.pts, self.queries
        space = spaces.euclidean(2)
        route = _route(graph, space, pts, queries, self.starts)
        jackpots, aspect = graph.meta["jackpots"], graph.meta["aspect_ratio"]
        jackpot_dist = np.empty(len(queries))
        for i, q in enumerate(queries):
            _, trace = ng.jackpot_query(
                graph, space, pts, int(self.starts[i]), q, jackpots, aspect
            )
            jackpot_dist[i] = trace.hops[-1][1]
        t0 = time.perf_counter()
        witness = ng.check_navigable(graph, space, pts, EPS, queries)
        report = ng.run_query_protocol(
            graph,
            space,
            pts,
            EPS,
            queries[self.protocol_queries],
            starts_per_query=self.starts_per_query,
            seed=self.seed,
        )
        verify_s = time.perf_counter() - t0
        return dict(
            route,
            jackpot_dist=jackpot_dist,
            verify_s=verify_s,
            verdicts=[witness is None, report.all_ann],
            edges=graph.edge_count,
        )

    def check(self, cycles: list[dict]) -> tuple[int, int]:
        """Adds one operation per jackpot query: it too must end at an ANN."""
        attempted, failed = super().check(cycles)
        space, pts, queries = self.check_target
        thresholds = _ann_thresholds(space, pts, queries)
        for c in cycles:
            attempted += len(c["jackpot_dist"])
            failed += int((c["jackpot_dist"] > thresholds).sum())
        return attempted, failed

    def reference(self, spaces) -> dict[str, str]:
        self.setup()
        route = _route(self.graph, spaces.euclidean(2), self.pts, self.queries, self.starts)
        lines = [
            f"{v} {e} {d!r}"
            for v, e, d in zip(route["finals"], route["dist_evals"], route["final_dist"])
        ]
        routes = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        return {"graph": self.digest, "routes": routes}


class TreeHard(Workload):
    """Tree-metric net build, its structure check and forced-edge certification.

    Leaves are seeded draws from a height-20 tree, one per subtree of
    2**20 / n leaves.  The forced-edge instances have no seed: ``gen_tree_instance(32,
    512)`` certifies 32 * floor(10 / 2) = 160 edges and
    ``gen_block_instance(3, 1, 3)`` certifies 27 * 26 = 702.
    """

    name = "tree-hard"
    HEIGHT = 20

    def __init__(self, seed, work_dir, leaves=128, queries=2000, tree=(32, 512), blocks=(3, 1, 3)):
        super().__init__(seed, work_dir)
        self.n, self.n_queries = leaves, queries
        self.tree_args, self.block_args = tree, blocks

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        # One leaf in each of n equal subtrees: leaves in different subtrees
        # differ in the subtree's bits, so every pairwise distance, and with
        # it the build's and the verifier's work, is the same for every
        # seed; the seed moves the leaf ids and the queries.
        block = (1 << self.HEIGHT) // self.n
        leaves = np.arange(self.n) * block + rng.integers(0, block, size=self.n)
        ng.save_points(self.points_path, ng.PointSet(leaves))
        self.queries = rng.integers(0, 1 << self.HEIGHT, size=self.n_queries)
        self.starts = rng.integers(0, self.n, size=self.n_queries)
        self.tree_instance = ng.gen_tree_instance(*self.tree_args)
        self.block_instance = ng.gen_block_instance(*self.block_args)

    def _make(self, spaces):
        def make(pts):
            norm = ng.normalize(spaces.tree(self.HEIGHT), pts)
            return ng.build_net_pg(norm.space, norm.points, EPS), norm.space, norm.points

        return make

    def cycle(self, spaces) -> dict:
        build_s, graph, space, pts, digest = self._build(self._make(spaces))
        tree = dataclasses.replace(
            self.tree_instance, space=spaces.tree(self.tree_instance.height)
        )
        t0 = time.perf_counter()
        violation = ng.verify_net_pg_properties(space, pts, graph)
        tree_report = ng.verify_forced_edges_tree(tree)
        block_report = ng.verify_forced_edges_blocks(self.block_instance)
        verify_s = time.perf_counter() - t0
        queries = [int(q) for q in self.queries]
        self.check_target = (space, pts, queries)
        route = _route(graph, space, pts, queries, self.starts)
        return dict(
            route,
            build_s=build_s,
            verify_s=verify_s,
            digest=digest,
            edges=graph.edge_count,
            verdicts=[violation is None, tree_report.passed, block_report.passed],
        )

    def reference(self, spaces) -> dict[str, str]:
        self.setup()
        return {"graph": self._build(self._make(spaces))[4]}


WORKLOADS = {cls.name: cls for cls in (NetD2, MergedD2, RouteD2, TreeHard)}

#: Sizes of the pinned instances whose digests reference.json records.
REFERENCE_SIZES = {
    "net-d2": {"n": 500},
    "merged-d2": {"n": 400},
    "route-d2": {"n": 300},
    "tree-hard": {"leaves": 64},
}
