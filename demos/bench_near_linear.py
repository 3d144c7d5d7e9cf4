"""Stage timings of the Euclidean net build, written into a BENCH JSON file.

Times normalize, estimate_extremes, the net hierarchy, the net edges,
save_graph and load_graph on seeded 2D inputs (eps = 1) and counts the
distance evaluations each stage makes through the metric space.  The load
runs in a fresh interpreter, which reports its seconds and how far it
raises the peak RSS of a process that has only imported navgraph; so a
loader's peak never inflates this process.  Runs against the navgraph
source tree given by --src, so one harness measures two checkouts:

    python demos/bench_near_linear.py --src /path/to/old/src --label before --out BENCH_near_linear.json
    python demos/bench_near_linear.py --src src --label after --out BENCH_near_linear.json

Each call adds or replaces its label's entry in the output file.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

INPUTS = (("uniform", 1000), ("uniform", 4000), ("uniform", 16000), ("clustered", 4000))
STAGES = ("normalize", "extremes", "hierarchy", "net_edges", "save")

#: Run as ``python -c LOAD_CHILD src graph_file``: prints the seconds of one
#: load_graph and how many MB it raised the process's peak RSS.  The peak is
#: Linux's VmHWM: a child's ru_maxrss starts from its parent's RSS at the fork.
LOAD_CHILD = """
import re, sys, time
sys.path.insert(0, sys.argv[1])
import navgraph as ng

def peak_mb():
    with open("/proc/self/status") as fh:
        return int(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1)) / 1024

base = peak_mb()
t0 = time.perf_counter()
ng.load_graph(sys.argv[2])
print(time.perf_counter() - t0, peak_mb() - base)
"""


def make_points(kind: str, n: int) -> np.ndarray:
    """Uniform points in [0,1]^2, or 16 tight Gaussian clusters in it."""
    rng = np.random.default_rng(1)
    if kind == "uniform":
        return rng.random((n, 2))
    centres = rng.random((16, 2))
    return centres[rng.integers(0, 16, n)] + rng.normal(scale=1e-3, size=(n, 2))


def load_stage(src: str, graph_file: Path) -> tuple[float, float]:
    """Seconds and added peak RSS (MB) of one load_graph in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", LOAD_CHILD, src, str(graph_file)],
        check=True,
        capture_output=True,
        text=True,
    ).stdout.split()
    return float(out[0]), float(out[1])


def run_input(ng, src: str, kind: str, n: int, repeats: int) -> dict:
    base = ng.EuclideanSpace
    # where _pair_distances exists, every distance goes through it; before
    # it, the grid level balls measured pairs inline, unseen by the space
    shared = hasattr(base, "_pair_distances")

    class CountingSpace(base):
        """Counts the rows of every distance evaluation made through the space."""

        rows = 0

        def distances(self, elements, x):
            out = super().distances(elements, x)
            if not shared:
                CountingSpace.rows += len(out)
            return out

        def _pair_distances(self, a, b):
            out = super()._pair_distances(a, b)
            CountingSpace.rows += out.size
            return out

    pts = ng.PointSet(make_points(kind, n))
    best = {s: float("inf") for s in STAGES}
    evals = {}
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(repeats):
            space = CountingSpace(2)
            marks = [time.perf_counter()]
            counts = [CountingSpace.rows]

            def mark():
                marks.append(time.perf_counter())
                counts.append(CountingSpace.rows)

            norm = ng.normalize(space, pts)
            mark()
            extremes = ng.estimate_extremes(norm.space, norm.points)
            mark()
            hierarchy = ng.build_net_hierarchy(norm.space, norm.points, extremes)
            mark()
            graph = ng.build_net_pg(norm.space, norm.points, 1.0, hierarchy=hierarchy)
            mark()
            ng.save_graph(Path(tmp) / "g.txt", graph)
            mark()
            for k, stage in enumerate(STAGES):
                best[stage] = min(best[stage], marks[k + 1] - marks[k])
                evals[stage] = counts[k + 1] - counts[k]
        digest = ng.file_digest(Path(tmp) / "g.txt")
        loads = [load_stage(src, Path(tmp) / "g.txt") for _ in range(repeats)]
    return {
        "input": kind,
        "n": n,
        "levels": hierarchy.top_level + 1,
        "edges": graph.edge_count,
        "graph_sha256": digest,
        "seconds": dict(
            {s: round(best[s], 4) for s in STAGES}, load=round(min(s for s, _ in loads), 4)
        ),
        "load_added_peak_rss_mb": round(min(mb for _, mb in loads), 1),
        "dist_evals": dict(evals, net_edges=evals["net_edges"] if shared else None),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="navgraph source tree to import")
    ap.add_argument("--label", required=True, help="entry name, e.g. before or after")
    ap.add_argument("--out", required=True, help="BENCH JSON file to update")
    ap.add_argument("--max-n", type=int, default=16000)
    args = ap.parse_args()
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import navgraph as ng

    results = []
    for kind, n in INPUTS:
        if n <= args.max_n:
            repeats = 3 if n <= 4000 else 1
            results.append(run_input(ng, str(src), kind, n, repeats))
            print(json.dumps(results[-1]), flush=True)
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["about"] = (
        "Stage seconds (best of 3 runs for n <= 4000, one run above) and distance "
        "evaluations (rows measured through the metric space; null where a stage "
        "measured pairs inline) of normalize, estimate_extremes, "
        "build_net_hierarchy, build_net_pg given the hierarchy, save_graph and "
        "load_graph (timed in a fresh interpreter; no distance evaluations); "
        "load_added_peak_rss_mb is how far load_graph raises the peak RSS (VmHWM) "
        "of a process that has only imported navgraph, least over the runs; "
        "d=2, eps=1, inputs from default_rng(1). Written by demos/bench_near_linear.py."
    )
    doc[args.label] = {
        "host": f"{platform.machine()}, python {platform.python_version()}, numpy {np.__version__}",
        "results": results,
    }
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
