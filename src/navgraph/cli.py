"""Command-line surface: generate, build, query, verify, benchmark.

Exit codes: 0 success or verification pass, 1 verification failure, 2 usage
or input errors.  File-producing commands other than bench, whose output is
timings, write ``<out>.manifest.json`` recording the command, parameters,
seeds, input/output digests, timing and a result summary; re-running with
the manifest's parameters reproduces the output files byte for byte (timing
aside, manifests are deterministic too).
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

from ._util import DomainError
from .euclid import build_euclid_pg
from .fileio import (
    file_digest,
    load_graph,
    load_points,
    save_graph,
    save_points,
    save_trace,
)
from .graph import check_navigable, graph_stats, greedy_search
from .hard import (
    check_block_doubling,
    check_tree_doubling,
    gen_block_instance,
    gen_tree_instance,
    verify_forced_edges_blocks,
    verify_forced_edges_tree,
)
from .metrics import (
    EuclideanSpace,
    PointSet,
    TreeMetricSpace,
    pairwise_min_distance,
    verify_triangle,
)
from .netpg import (
    build_net_pg,
    normalize,
    verify_net_pg_properties,
)
from .nets import build_net_hierarchy
from .protocol import standard_query_set
from .theta import (
    build_theta_graph,
    check_fact_chord_tan,
    check_fact_reach_margin,
    check_fact_tan_linear,
)

__all__ = ["main"]


def _write_manifest(out, command, parameters, seeds, inputs, outputs, t0, summary):
    data = {
        "command": command,
        "parameters": parameters,
        "seeds": seeds,
        "inputs": {str(p): file_digest(p) for p in inputs},
        "outputs": {str(p): file_digest(p) for p in outputs},
        "timing_ms": round((time.perf_counter() - t0) * 1000.0, 3),
        "summary": summary,
    }
    path = str(out) + ".manifest.json"
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True, default=str) + "\n")


def _space_for(pts: PointSet, metric: str, tree_height=None):
    if pts.is_abstract:
        if metric != "tree":
            raise DomainError("abstract point files need --metric tree")
        if tree_height is None:
            raise DomainError("--metric tree needs --tree-height")
        return TreeMetricSpace(int(tree_height))
    if metric == "tree":
        raise DomainError("--metric tree applies to abstract point files only")
    return EuclideanSpace(pts.dim, norm=metric)


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    t0 = time.perf_counter()
    seeds = {}
    if args.kind == "tree":
        inst = gen_tree_instance(args.n, args.delta)
        save_points(args.out, inst.points)
        summary = {
            "points": inst.points.n,
            "height": inst.height,
            "subtree_leaves": len(inst.subtree_leaves),
            "path_leaves": len(inst.path_leaves),
        }
        parameters = {"kind": "tree", "n": args.n, "delta": args.delta}
    elif args.kind == "blocks":
        inst = gen_block_instance(args.s, args.t, args.d)
        save_points(args.out, PointSet(inst.coords.astype(np.float64)))
        summary = {"points": inst.n, "epsilon": inst.epsilon}
        parameters = {"kind": "blocks", "s": args.s, "t": args.t, "d": args.d}
    else:
        for name, count in (("--n", args.n), ("--d", args.d)):
            if count < 1:
                raise DomainError(f"{name} must be >= 1, got {count}")
        rng = np.random.default_rng(args.seed)
        pts = PointSet(rng.random((args.n, args.d)))
        save_points(args.out, pts)
        summary = {"points": pts.n}
        parameters = {"kind": "uniform", "n": args.n, "d": args.d}
        seeds = {"seed": args.seed}
    _write_manifest(args.out, "gen", parameters, seeds, [], [args.out], t0, summary)
    print(f"wrote {args.out} ({summary['points']} points)")
    return 0


# ---------------------------------------------------------------------------
# build


def _build_graph(algo, pts, space, eps, z, seed, repeats):
    """The graph cmd_build writes and its manifest summary."""
    if algo == "net":
        norm = normalize(space, pts)
        g = build_net_pg(norm.space, norm.points, eps)
        params = g.meta["params"]
        summary = {
            "edges": g.edge_count,
            "scale": norm.scale,
            "top_level": g.meta["hierarchy"].top_level,
            "gap_exponent": params.gap_exponent,
            "reach_factor": params.reach_factor,
        }
        return g, summary
    if pts.is_abstract:
        raise DomainError(f"algo {algo} needs coordinate points")
    if algo == "theta":
        g = build_theta_graph(pts, eps / 32.0)
        summary = {
            "edges": g.edge_count,
            "theta": eps / 32.0,
            "cones": len(g.meta["family"]),
        }
        return g, summary
    g = build_euclid_pg(pts, eps, space=space, rate_constant=z, seed=seed, repeats=repeats)
    summary = {
        "edges": g.edge_count,
        "tau": g.meta["config"].keep_probability,
        "jackpots": len(g.meta["jackpots"]),
        "aspect_ratio": g.meta["aspect_ratio"],
        "net_edges": g.meta["g_net"].edge_count,
        "geo_edges": g.meta["g_geo"].edge_count,
        "run_sizes": [[s, e] for s, e in g.meta["run_sizes"]],
        "chosen_seed": g.meta["config"].seed,
    }
    return g, summary


def cmd_build(args) -> int:
    t0 = time.perf_counter()
    pts = load_points(args.points)
    space = _space_for(pts, args.metric, args.tree_height)
    g, summary = _build_graph(
        args.algo, pts, space, args.eps, args.z, args.seed, args.repeats
    )
    stats = graph_stats(g)
    summary["min_out_degree"] = stats.min_out_degree
    summary["build_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    save_graph(args.out, g)
    parameters = {
        "algo": args.algo,
        "eps": args.eps,
        "metric": args.metric,
        "z": args.z,
        "repeats": args.repeats,
    }
    _write_manifest(
        args.out,
        "build",
        parameters,
        {"seed": args.seed},
        [args.points],
        [args.out],
        t0,
        summary,
    )
    print(f"built {args.algo} graph: {g.n} vertices, {g.edge_count} edges")
    return 0


# ---------------------------------------------------------------------------
# query


def _parse_query(raw: str, pts: PointSet):
    """``--q`` in the point-file grammar: d decimal floats, or one integer id."""
    tokens = raw.replace(",", " ").split()
    want = 1 if pts.is_abstract else pts.dim
    if len(tokens) != want:
        raise DomainError(f"query has {len(tokens)} values, points need {want}")
    dtype = np.int64 if pts.is_abstract else np.float64
    try:
        vals = np.loadtxt([" ".join(tokens)], dtype=dtype, comments=None, ndmin=1)
    except ValueError as exc:
        raise DomainError(f"--q: {exc}") from exc
    return int(vals[0]) if pts.is_abstract else vals


def cmd_query(args) -> int:
    t0 = time.perf_counter()
    graph = load_graph(args.graph)
    pts = load_points(args.points)
    if graph.n != pts.n:
        raise DomainError(
            f"graph has {graph.n} vertices but point file has {pts.n} points"
        )
    space = _space_for(pts, args.metric, args.tree_height)
    if args.q is None and args.query_file is None:
        raise DomainError("provide --q or --query-file")
    if args.q is not None:
        queries = [_parse_query(args.q, pts)]
    else:
        qpts = load_points(args.query_file)
        if qpts.is_abstract != pts.is_abstract or (
            not pts.is_abstract and qpts.dim != pts.dim
        ):
            raise DomainError("query file does not match the point file layout")
        queries = list(qpts.points)
    last = None
    for i, q in enumerate(queries):
        trace = greedy_search(graph, space, pts, args.start, q, budget=args.budget)
        v, dist = trace.hops[-1]
        print(
            f"query {i}: answer {v} distance {dist:.12g} hops {len(trace.hops) - 1} "
            f"computations {trace.distance_computations} terminated {trace.terminated}"
        )
        last = trace
    if args.trace is not None:
        save_trace(args.trace, last)
        summary = {
            "answer": last.final,
            "distance": last.hops[-1][1],
            "hops": len(last.hops) - 1,
            "computations": last.distance_computations,
            "terminated": last.terminated,
        }
        parameters = {
            "start": args.start,
            "budget": args.budget,
            "metric": args.metric,
        }
        _write_manifest(
            args.trace,
            "query",
            parameters,
            {},
            [args.graph, args.points],
            [args.trace],
            t0,
            summary,
        )
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify_navigable(args) -> int:
    graph = load_graph(args.graph)
    pts = load_points(args.points)
    if graph.n != pts.n:
        raise DomainError(
            f"graph has {graph.n} vertices but point file has {pts.n} points"
        )
    space = _space_for(pts, args.metric, args.tree_height)
    if pts.is_abstract:
        queries = pts.points
    else:
        dmin = pairwise_min_distance(space, pts)
        queries = standard_query_set(
            pts,
            args.eps,
            n_random=args.n_random,
            n_perturbed=args.n_perturbed,
            seed=args.seed,
            min_distance=dmin,
        )
    witness = check_navigable(graph, space, pts, args.eps, queries)
    if witness is None:
        print(f"navigable: pass ({len(queries)} queries, eps={args.eps})")
        return 0
    print(
        "navigable: FAIL "
        f"query {witness.query_index} vertex {witness.vertex}: "
        f"distance {witness.vertex_distance:.12g} > threshold "
        f"{witness.ann_threshold:.12g}, best out-neighbor "
        f"{witness.best_neighbor_distance:.12g}"
    )
    return 1


def cmd_verify_net_props(args) -> int:
    pts = load_points(args.points)
    space = _space_for(pts, args.metric, args.tree_height)
    norm = normalize(space, pts)
    g = build_net_pg(norm.space, norm.points, args.eps)
    violation = verify_net_pg_properties(norm.space, norm.points, g)
    if violation is None:
        print(f"net-props: pass ({g.n} vertices, {g.edge_count} edges)")
        return 0
    print(
        f"net-props: FAIL {violation.kind} at vertex {violation.vertex} "
        f"level {violation.level}: {violation.details}"
    )
    return 1


def cmd_verify_forced_tree(args) -> int:
    report = verify_forced_edges_tree(gen_tree_instance(args.n, args.delta))
    print(
        f"{report.certified} forced edges certified "
        f"(expected {report.expected}, failures {len(report.failures)})"
    )
    return 0 if report.passed else 1


def cmd_verify_forced_blocks(args) -> int:
    report = verify_forced_edges_blocks(gen_block_instance(args.s, args.t, args.d))
    print(
        f"{report.certified} forced edges certified "
        f"(expected {report.expected}, failures {len(report.failures)})"
    )
    return 0 if report.passed else 1


def cmd_verify_triangle(args) -> int:
    if args.points is not None:
        pts = load_points(args.points)
        space = _space_for(pts, args.metric, args.tree_height)
        witness = verify_triangle(space, pts)
        if witness is None:
            print(f"triangle: pass ({pts.n} points)")
            return 0
        print(f"triangle: FAIL {witness}")
        return 1
    inst = gen_block_instance(args.s, args.t, args.d)
    for p_star in range(inst.n):
        space = inst.space_for(p_star)
        witness = verify_triangle(space, inst.points, extra=space.query_id)
        if witness is not None:
            print(f"triangle: FAIL at p_star={p_star}: {witness}")
            return 1
    print(f"triangle: pass ({inst.n} adversarial distance functions, exhaustive)")
    return 0


def cmd_verify_doubling(args) -> int:
    if args.family == "tree":
        inst = gen_tree_instance(args.n, args.delta)
        report = check_tree_doubling(inst, samples=args.samples, seed=args.seed)
    else:
        binst = gen_block_instance(args.s, args.t, args.d)
        report = check_block_doubling(
            binst, args.p_star, samples=args.samples, seed=args.seed
        )
    print(
        f"doubling: {report.successes}/{report.trials} balls covered "
        f"(budget {report.budget}, max centers used {report.max_centers})"
    )
    return 0 if report.passed else 1


def cmd_verify_facts(args) -> int:
    checks = [
        ("tangent-linear-bound", check_fact_tan_linear),
        ("chord-tangent-bound", check_fact_chord_tan),
        ("reach-margin-bound", check_fact_reach_margin),
    ]
    ok = True
    for name, fn in checks:
        witness = fn()
        if witness is None:
            print(f"{name}: pass")
        else:
            print(f"{name}: FAIL at {witness}")
            ok = False
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# bench


#: Rows as (input, n): net builds on 2D Euclidean inputs and on leaves of a
#: height-20 tree, then forced-edge certificates of gen_tree_instance(n, n*n/2).
BENCH_ROWS = (
    ("uniform", 1000),
    ("uniform", 4000),
    ("uniform", 16000),
    ("clustered", 4000),
    ("tree", 2048),
    ("tree", 8192),
    ("forced-tree", 32),
    ("forced-tree", 256),
    ("forced-tree", 2048),
)
BENCH_TREE_HEIGHT = 20
BENCH_QUERIES = 1000
BENCH_ABOUT = (
    "Rows of navgraph bench. Net rows (eps=1; 2D inputs from default_rng(1), or "
    "one leaf per subtree of a height-20 tree) time normalize, build_net_hierarchy "
    "(estimate_extremes included), build_net_pg given the hierarchy, save_graph, "
    "load_graph (in a fresh interpreter; load_added_peak_rss_mb is how far it "
    "raises the peak RSS, VmHWM, of a process that has only imported navgraph), "
    "build_theta_graph at eps/32 (2D only), route: 1000 greedy queries from "
    "default_rng(2) with their per-query distance computations at p50 and p99, "
    "navigable: "
    "check_navigable of the net graph on those queries, scaled to the normalised "
    "points (its verdict is the row's navigable field), and net_props: "
    "verify_net_pg_properties of the net graph (its verdict is the row's net_props "
    "field). dist_evals are the rows given to the space's _pair_distances where it "
    "has one, else batch rows plus scalar calls; null for theta, which reads no "
    "metric space. Forced-tree rows time verify_forced_edges_tree. Seconds are the "
    "best of 3 runs for n <= 4000 and one run above."
)

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


def _bench_points(kind: str, n: int) -> np.ndarray:
    """Uniform points in [0,1]^2, 16 tight Gaussian clusters in it, or tree leaves."""
    rng = np.random.default_rng(1)
    if kind == "uniform":
        return rng.random((n, 2))
    if kind == "clustered":
        centres = rng.random((16, 2))
        return centres[rng.integers(0, 16, n)] + rng.normal(scale=1e-3, size=(n, 2))
    block = (1 << BENCH_TREE_HEIGHT) // n
    return np.arange(n) * block + rng.integers(0, block, size=n)


def _counting(base):
    """A subclass of the space class ``base`` that tallies distances in ``evals``.

    Where the space has ``_pair_distances`` every distance goes through it, so
    its rows are counted; otherwise batch rows plus scalar calls are.
    """

    class Counting(base):
        evals = 0
        if hasattr(base, "_pair_distances"):

            def _pair_distances(self, a, b):
                out = super()._pair_distances(a, b)
                self.evals += out.size
                return out

        else:

            def distance(self, a, b):
                self.evals += 1
                return super().distance(a, b)

            def distances(self, elements, x):
                out = super().distances(elements, x)
                self.evals += out.size
                return out

    return Counting


def _load_stage(graph_file: Path) -> tuple[float, float]:
    """Seconds and added peak RSS (MB) of one load_graph in a fresh interpreter.

    The child imports navgraph from the source tree this module came from.
    """
    src = str(Path(__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", LOAD_CHILD, src, str(graph_file)],
        check=True,
        capture_output=True,
        text=True,
    ).stdout.split()
    return float(out[0]), float(out[1])


def _bench_net(kind: str, n: int, repeats: int) -> dict:
    tree = kind == "tree"
    pts = PointSet(_bench_points(kind, n))
    qrng = np.random.default_rng(2)
    starts = qrng.integers(0, n, size=BENCH_QUERIES).tolist()
    if tree:
        space_class, arg = _counting(TreeMetricSpace), BENCH_TREE_HEIGHT
        queries = qrng.integers(0, 1 << BENCH_TREE_HEIGHT, size=BENCH_QUERIES).tolist()
    else:
        space_class, arg = _counting(EuclideanSpace), 2
        queries = qrng.random((BENCH_QUERIES, 2))
    best, evals = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        graph_file = Path(tmp) / "g.txt"
        for _ in range(repeats):
            space = space_class(arg)
            marks = [(time.perf_counter(), space.evals)]

            def mark(stage):
                marks.append((time.perf_counter(), space.evals))
                (t0, e0), (t1, e1) = marks[-2:]
                best[stage] = min(best.get(stage, float("inf")), t1 - t0)
                evals[stage] = e1 - e0

            norm = normalize(space, pts)
            mark("normalize")
            hierarchy = build_net_hierarchy(norm.space, norm.points)
            mark("hierarchy")
            graph = build_net_pg(norm.space, norm.points, 1.0, hierarchy=hierarchy)
            mark("net_edges")
            save_graph(graph_file, graph)
            mark("save")
            if not tree:
                theta = build_theta_graph(norm.points, 1.0 / 32.0)
                mark("theta")
                evals["theta"] = None
            # the graph routes on the raw points: net edges are scale-covariant
            costs = [
                greedy_search(graph, space, pts, s, q).distance_computations
                for s, q in zip(starts, queries)
            ]
            mark("route")
            scaled = queries if tree else queries * norm.scale
            witness = check_navigable(graph, norm.space, norm.points, 1.0, scaled)
            mark("navigable")
            violation = verify_net_pg_properties(norm.space, norm.points, graph)
            mark("net_props")
        digest = file_digest(graph_file)
        loads = [_load_stage(graph_file) for _ in range(repeats)]
    row = {
        "input": kind,
        "n": n,
        "levels": hierarchy.top_level + 1,
        "edges": graph.edge_count,
        "graph_sha256": digest,
        "seconds": dict(
            {s: round(t, 4) for s, t in best.items()},
            load=round(min(t for t, _ in loads), 4),
        ),
        "load_added_peak_rss_mb": round(min(mb for _, mb in loads), 1),
        "navigable": witness is None,
        "net_props": violation is None,
        "dist_evals": evals,
        "query_dist_evals": {
            f"p{q}": int(np.percentile(costs, q, method="nearest")) for q in (50, 99)
        },
    }
    if not tree:
        row["theta_edges"] = theta.edge_count
    return row


def _bench_forced(n: int, repeats: int) -> dict:
    inst = gen_tree_instance(n, n * n // 2)
    seconds = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        report = verify_forced_edges_tree(inst)
        seconds = min(seconds, time.perf_counter() - t0)
    return {
        "input": "forced-tree",
        "n": n,
        "expected": report.expected,
        "certified": report.certified,
        "seconds": round(seconds, 4),
    }


def cmd_bench(args) -> int:
    out = Path(args.out)
    try:
        doc = json.loads(out.read_text()) if out.exists() else {}
    except ValueError as exc:
        raise DomainError(f"{out}: not a JSON file: {exc}") from exc
    if not isinstance(doc, dict):
        raise DomainError(f"{out}: not a BENCH JSON object")
    results = []
    for kind, n in BENCH_ROWS:
        if args.max_n is not None and n > args.max_n:
            continue
        repeats = 3 if n <= 4000 else 1
        if kind == "forced-tree":
            results.append(_bench_forced(n, repeats))
        else:
            results.append(_bench_net(kind, n, repeats))
        print(json.dumps(results[-1]), flush=True)
    doc["about"] = BENCH_ABOUT
    doc[args.label] = {
        "host": f"{platform.machine()}, python {platform.python_version()}, "
        f"numpy {np.__version__}",
        "results": results,
    }
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_metric_flags(p) -> None:
    p.add_argument("--metric", default="l2", choices=["l2", "linf", "tree"])
    p.add_argument("--tree-height", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="navgraph",
        description="Build, query and verify navigable proximity graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate point sets")
    gsub = gen.add_subparsers(dest="kind", required=True)
    g_tree = gsub.add_parser("tree", help="tree-metric hard instance")
    g_tree.add_argument("--n", type=int, required=True)
    g_tree.add_argument("--delta", type=int, required=True)
    g_blocks = gsub.add_parser("blocks", help="block hard instance")
    g_blocks.add_argument("--s", type=int, required=True)
    g_blocks.add_argument("--t", type=int, required=True)
    g_blocks.add_argument("--d", type=int, required=True)
    g_uniform = gsub.add_parser("uniform", help="uniform random points")
    g_uniform.add_argument("--n", type=int, required=True)
    g_uniform.add_argument("--d", type=int, required=True)
    g_uniform.add_argument("--seed", type=int, default=0)
    for p in (g_tree, g_blocks, g_uniform):
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_gen)
    g_tree.set_defaults(kind="tree")
    g_blocks.set_defaults(kind="blocks")
    g_uniform.set_defaults(kind="uniform")

    build = sub.add_parser("build", help="build a proximity graph")
    build.add_argument("algo", choices=["net", "theta", "merged"])
    build.add_argument("--eps", type=float, required=True)
    build.add_argument("--in", dest="points", required=True)
    build.add_argument("--out", required=True)
    build.add_argument("--z", type=float, default=4.0)
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--repeats", type=int, default=1)
    _add_metric_flags(build)
    build.set_defaults(func=cmd_build)

    query = sub.add_parser("query", help="greedy search on a built graph")
    query.add_argument("--graph", required=True)
    query.add_argument("--points", required=True)
    query.add_argument("--q", default=None)
    query.add_argument("--query-file", default=None)
    query.add_argument("--start", type=int, default=0)
    query.add_argument("--budget", type=int, default=None)
    query.add_argument("--trace", default=None)
    _add_metric_flags(query)
    query.set_defaults(func=cmd_query)

    verify = sub.add_parser("verify", help="run a verifier")
    vsub = verify.add_subparsers(dest="task", required=True)

    v_nav = vsub.add_parser("navigable")
    v_nav.add_argument("--graph", required=True)
    v_nav.add_argument("--points", required=True)
    v_nav.add_argument("--eps", type=float, required=True)
    v_nav.add_argument("--seed", type=int, default=0)
    v_nav.add_argument("--n-random", type=int, default=1000)
    v_nav.add_argument("--n-perturbed", type=int, default=500)
    _add_metric_flags(v_nav)
    v_nav.set_defaults(func=cmd_verify_navigable)

    v_props = vsub.add_parser("net-props")
    v_props.add_argument("--points", required=True)
    v_props.add_argument("--eps", type=float, required=True)
    _add_metric_flags(v_props)
    v_props.set_defaults(func=cmd_verify_net_props)

    v_ftree = vsub.add_parser("forced-tree")
    v_ftree.add_argument("--n", type=int, required=True)
    v_ftree.add_argument("--delta", type=int, required=True)
    v_ftree.set_defaults(func=cmd_verify_forced_tree)

    v_fblocks = vsub.add_parser("forced-blocks")
    v_fblocks.add_argument("--s", type=int, required=True)
    v_fblocks.add_argument("--t", type=int, required=True)
    v_fblocks.add_argument("--d", type=int, required=True)
    v_fblocks.set_defaults(func=cmd_verify_forced_blocks)

    v_tri = vsub.add_parser("triangle")
    v_tri.add_argument("--points", default=None)
    v_tri.add_argument("--s", type=int, default=2)
    v_tri.add_argument("--t", type=int, default=1)
    v_tri.add_argument("--d", type=int, default=1)
    _add_metric_flags(v_tri)
    v_tri.set_defaults(func=cmd_verify_triangle)

    v_dbl = vsub.add_parser("doubling")
    v_dbl.add_argument("--family", choices=["tree", "blocks"], required=True)
    v_dbl.add_argument("--n", type=int, default=16)
    v_dbl.add_argument("--delta", type=int, default=256)
    v_dbl.add_argument("--s", type=int, default=2)
    v_dbl.add_argument("--t", type=int, default=1)
    v_dbl.add_argument("--d", type=int, default=1)
    v_dbl.add_argument("--p-star", type=int, default=0)
    v_dbl.add_argument("--samples", type=int, default=1000)
    v_dbl.add_argument("--seed", type=int, default=0)
    v_dbl.set_defaults(func=cmd_verify_doubling)

    v_facts = vsub.add_parser("facts")
    v_facts.set_defaults(func=cmd_verify_facts)

    bench = sub.add_parser("bench", help="stage timings into a BENCH JSON file")
    bench.add_argument("--out", required=True, help="BENCH JSON file to update")
    bench.add_argument("--label", required=True, help="entry to add or replace")
    bench.add_argument("--max-n", type=int, default=None, help="skip rows above this n")
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
