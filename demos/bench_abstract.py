"""Abstract-metric timings (tree and block metrics), written into a BENCH JSON file.

Three parts:

* ``tree_hard``: the stages of navbench's ``tree-hard`` cycle on its seed-3
  input (128 leaves of a height-20 tree, eps = 1): the net build
  (normalize + build_net_pg), verify_net_pg_properties, forced-edge
  certification of gen_tree_instance(32, 512) and gen_block_instance(3, 1, 3),
  and 2000 greedy queries; best of 15 runs each.
* ``forced_tree``: verify_forced_edges_tree(gen_tree_instance(n, n*n/2)) for
  n up to --max-forced (best of 3 runs below n = 2048, one run at it).
* ``tree_net``: one net build (normalize + build_net_pg) on n leaves of a
  height-20 tree, one per subtree of 2**20 / n leaves, for n up to
  --max-net, with its distance evaluations (rows given to the space's batch
  ``distances`` plus scalar ``distance`` calls) and the sha256 of the saved
  graph.

Runs against the navgraph source tree given by --src, so one harness
measures two checkouts:

    python demos/bench_abstract.py --src /path/to/old/src --label before --max-forced 256 --max-net 2048 --out BENCH_abstract.json
    python demos/bench_abstract.py --src src --label after --out BENCH_abstract.json

Each call adds or replaces its label's entry in the output file.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HEIGHT = 20
EPS = 1.0
FORCED = (32, 256, 2048)
NETS = (2048, 8192)


def tree_leaves(rng, n: int) -> np.ndarray:
    """One seeded leaf in each of n equal subtrees of the height-20 tree."""
    block = (1 << HEIGHT) // n
    return np.arange(n) * block + rng.integers(0, block, size=n)


def best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return round(best, 4)


def tree_hard(ng, repeats: int = 15) -> dict:
    rng = np.random.default_rng(3)
    pts = ng.PointSet(tree_leaves(rng, 128))
    queries = [int(q) for q in rng.integers(0, 1 << HEIGHT, size=2000)]
    starts = rng.integers(0, 128, size=2000)
    tree = ng.gen_tree_instance(32, 512)
    blocks = ng.gen_block_instance(3, 1, 3)
    built = {}

    def build():
        norm = ng.normalize(ng.TreeMetricSpace(HEIGHT), pts)
        built["net"] = (ng.build_net_pg(norm.space, norm.points, EPS), norm)

    def route():
        graph, norm = built["net"]
        for q, s in zip(queries, starts):
            ng.greedy_search(graph, norm.space, norm.points, int(s), q)

    seconds = {"build": best_of(repeats, build)}
    graph, norm = built["net"]
    seconds["verify_net_pg_properties"] = best_of(
        repeats, lambda: ng.verify_net_pg_properties(norm.space, norm.points, graph)
    )
    seconds["forced_tree"] = best_of(repeats, lambda: ng.verify_forced_edges_tree(tree))
    seconds["forced_blocks"] = best_of(repeats, lambda: ng.verify_forced_edges_blocks(blocks))
    seconds["route_2000"] = best_of(repeats, route)
    return {"edges": graph.edge_count, "seconds": seconds}


def forced_tree(ng, n: int) -> dict:
    inst = ng.gen_tree_instance(n, n * n // 2)
    reports = []
    seconds = best_of(3 if n < 2048 else 1, lambda: reports.append(ng.verify_forced_edges_tree(inst)))
    return {
        "n": n,
        "expected": reports[-1].expected,
        "certified": reports[-1].certified,
        "seconds": seconds,
    }


def tree_net(ng, n: int) -> dict:
    class CountingTree(ng.TreeMetricSpace):
        rows = 0

        def distance(self, a, b):
            CountingTree.rows += 1
            return super().distance(a, b)

        def distances(self, elements, x):
            CountingTree.rows += len(elements)
            return super().distances(elements, x)

    pts = ng.PointSet(tree_leaves(np.random.default_rng(1), n))
    t0 = time.perf_counter()
    norm = ng.normalize(CountingTree(HEIGHT), pts)
    graph = ng.build_net_pg(norm.space, norm.points, EPS)
    seconds = time.perf_counter() - t0
    with tempfile.TemporaryDirectory() as tmp:
        ng.save_graph(Path(tmp) / "g.txt", graph)
        digest = ng.file_digest(Path(tmp) / "g.txt")
    return {
        "n": n,
        "edges": graph.edge_count,
        "graph_sha256": digest,
        "seconds": round(seconds, 3),
        "dist_evals": CountingTree.rows,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="navgraph source tree to import")
    ap.add_argument("--label", required=True, help="entry name, e.g. before or after")
    ap.add_argument("--out", required=True, help="BENCH JSON file to update")
    ap.add_argument("--max-forced", type=int, default=FORCED[-1])
    ap.add_argument("--max-net", type=int, default=NETS[-1])
    args = ap.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    import navgraph as ng

    entry = {
        "host": f"{platform.machine()}, python {platform.python_version()}, numpy {np.__version__}",
        "tree_hard": tree_hard(ng),
    }
    print(json.dumps(entry), flush=True)
    entry["forced_tree"] = []
    for n in FORCED:
        if n <= args.max_forced:
            entry["forced_tree"].append(forced_tree(ng, n))
            print(json.dumps(entry["forced_tree"][-1]), flush=True)
    entry["tree_net"] = []
    for n in NETS:
        if n <= args.max_net:
            entry["tree_net"].append(tree_net(ng, n))
            print(json.dumps(entry["tree_net"][-1]), flush=True)
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["about"] = (
        "Abstract-metric seconds: the stages of navbench's tree-hard cycle on its "
        "seed-3 input (best of 15), verify_forced_edges_tree on "
        "gen_tree_instance(n, n*n/2) (best of 3 below n=2048, one run at it), and one "
        "tree net build (normalize + build_net_pg, eps=1) on n leaves of a height-20 "
        "tree with its distance evaluations (batch rows plus scalar calls) and graph "
        "sha256. Written by demos/bench_abstract.py."
    )
    doc[args.label] = entry
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
