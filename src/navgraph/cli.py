"""Command-line surface: generate, build, query, verify, benchmark.

Exit codes: 0 success or verification pass, 1 verification failure, 2 usage
or input errors.  File-producing commands write ``<out>.manifest.json``
recording the command, parameters, seeds, input/output digests, timing and a
result summary; re-running with the manifest's parameters reproduces the
output files byte for byte (timing aside, manifests are deterministic too).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from ._util import DomainError
from .euclid import best_of_runs, build_euclid_pg
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
    build_net_pg_fast,
    build_net_pg_naive,
    normalize,
    verify_net_pg_properties,
)
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
    """Shared by cmd_build and cmd_bench; returns (graph, summary dict)."""
    if algo in ("net", "net-naive"):
        norm = normalize(space, pts)
        builder = build_net_pg_fast if algo == "net" else build_net_pg_naive
        g = builder(norm.space, norm.points, eps)
        params = g.meta["params"]
        summary = {
            "edges": g.edge_count,
            "scale": norm.scale,
            "top_level": params.top_level,
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
    if algo == "merged":
        if repeats is not None and repeats > 1:
            g = best_of_runs(pts, eps, rate_constant=z, seed=seed, repeats=repeats)
        else:
            g = build_euclid_pg(pts, eps, rate_constant=z, seed=seed, repeats=repeats)
        summary = {
            "edges": g.edge_count,
            "tau": g.meta["config"].keep_probability,
            "jackpots": len(g.meta["jackpots"]),
            "aspect_ratio": g.meta["aspect_ratio"],
            "net_edges": g.meta["g_net"].edge_count,
            "geo_edges": g.meta["g_geo"].edge_count,
        }
        if "run_sizes" in g.meta:
            summary["run_sizes"] = [[s, e] for s, e in g.meta["run_sizes"]]
            summary["chosen_seed"] = g.meta["config"].seed
        return g, summary
    raise DomainError(f"unknown algorithm {algo!r}")


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
    if pts.is_abstract:
        return int(raw)
    vals = [float(tok) for tok in raw.replace(",", " ").split()]
    if len(vals) != pts.dim:
        raise DomainError(f"query has {len(vals)} coordinates, points have {pts.dim}")
    return np.array(vals, dtype=np.float64)


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
    witness = check_navigable(graph, space, pts, args.eps, queries, threads=args.threads)
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
    g = build_net_pg_fast(norm.space, norm.points, args.eps)
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


def cmd_bench(args) -> int:
    t0 = time.perf_counter()
    sizes = [int(tok) for tok in args.sizes.split(",") if tok]
    algos = [tok.strip() for tok in args.algos.split(",") if tok.strip()]
    fieldnames = [
        "n",
        "eps",
        "d",
        "algo",
        "edges",
        "build_ms",
        "mean_hops",
        "mean_dist_computations",
        "p99_dist_computations",
    ]
    rows = []
    for n in sizes:
        rng = np.random.default_rng(args.seed)
        pts = PointSet(rng.random((n, args.d)))
        space = EuclideanSpace(args.d)
        qrng = np.random.default_rng(args.seed + 1)
        queries = qrng.random((args.queries, args.d))
        starts = qrng.integers(0, n, size=args.queries)
        for algo in algos:
            b0 = time.perf_counter()
            g, _ = _build_graph(algo, pts, space, args.eps, args.z, args.seed, None)
            build_ms = (time.perf_counter() - b0) * 1000.0
            hops = np.empty(args.queries, dtype=np.int64)
            comps = np.empty(args.queries, dtype=np.int64)
            for i in range(args.queries):
                trace = greedy_search(g, space, pts, int(starts[i]), queries[i])
                hops[i] = len(trace.hops) - 1
                comps[i] = trace.distance_computations
            rows.append(
                {
                    "n": n,
                    "eps": args.eps,
                    "d": args.d,
                    "algo": algo,
                    "edges": g.edge_count,
                    "build_ms": round(build_ms, 3),
                    "mean_hops": round(float(hops.mean()), 4),
                    "mean_dist_computations": round(float(comps.mean()), 2),
                    "p99_dist_computations": int(np.percentile(comps, 99)),
                }
            )
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    parameters = {
        "sizes": sizes,
        "algos": algos,
        "eps": args.eps,
        "d": args.d,
        "queries": args.queries,
    }
    _write_manifest(
        args.out,
        "bench",
        parameters,
        {"seed": args.seed},
        [],
        [args.out],
        t0,
        {"rows": len(rows)},
    )
    print(f"wrote {args.out} ({len(rows)} rows)")
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
    build.add_argument("algo", choices=["net", "net-naive", "theta", "merged"])
    build.add_argument("--eps", type=float, required=True)
    build.add_argument("--in", dest="points", required=True)
    build.add_argument("--out", required=True)
    build.add_argument("--z", type=float, default=4.0)
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--repeats", type=int, default=None)
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
    v_nav.add_argument("--threads", type=int, default=1)
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

    bench = sub.add_parser("bench", help="size and query-cost benchmark CSV")
    bench.add_argument("--sizes", default="250,500,1000,2000")
    bench.add_argument("--algos", default="net,net-naive,theta,merged")
    bench.add_argument("--eps", type=float, default=1.0)
    bench.add_argument("--d", type=int, default=2)
    bench.add_argument("--z", type=float, default=4.0)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--queries", type=int, default=100)
    bench.add_argument("--out", required=True)
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
