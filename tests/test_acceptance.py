"""Acceptance suite: the eleven contract criteria, one test and one line each.

Each test prints a single PASS/FAIL line (shown with -s or -rA; the -v test
status carries the same verdict) and then asserts.  Heavy artifacts are built
once in module-scoped fixtures and shared: the navigability runs of criterion
1 also feed the trace laws of criterion 2 and the structure checks of
criterion 4.  All randomness is pinned.
"""

import math
import time
from dataclasses import dataclass, replace

import numpy as np
import pytest

from conftest import uniform_points
from navgraph import (
    EuclideanSpace,
    PointSet,
    best_of_runs,
    build_cone_family,
    build_euclid_pg,
    build_net_hierarchy,
    build_net_pg_fast,
    build_net_pg_naive,
    build_theta_graph,
    check_block_doubling,
    check_fact_chord_tan,
    check_fact_reach_margin,
    check_fact_tan_linear,
    check_navigable,
    check_tree_doubling,
    gen_block_instance,
    gen_tree_instance,
    merged_from_components,
    normalize,
    run_query_protocol,
    sample_jackpots,
    standard_query_set,
    verify_forced_edges_blocks,
    verify_forced_edges_tree,
    verify_net_pg_properties,
    verify_triangle,
)

POINT_SEEDS = (101, 202, 303)
EPSILONS = (1.0, 0.5, 0.25)


def _verdict(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@dataclass
class NetRun:
    d: int
    point_seed: int
    epsilon: float
    space: object
    points: object
    graph: object
    hierarchy: object
    witness: object
    report: object


@pytest.fixture(scope="module")
def net_runs():
    """Criterion-1 battery: 18 configs, navigability plus multi-start walks."""
    t0 = time.perf_counter()
    runs = []
    for d in (2, 3):
        for point_seed in POINT_SEEDS:
            norm = normalize(EuclideanSpace(d), uniform_points(500, d, point_seed))
            hierarchy = build_net_hierarchy(norm.space, norm.points)
            for eps in EPSILONS:
                graph = build_net_pg_fast(
                    norm.space, norm.points, eps, hierarchy=hierarchy
                )
                queries = standard_query_set(
                    norm.points, eps, seed=point_seed * 10 + int(eps * 4)
                )
                witness = check_navigable(
                    graph, norm.space, norm.points, eps, queries
                )
                report = run_query_protocol(
                    graph,
                    norm.space,
                    norm.points,
                    eps,
                    queries,
                    starts_per_query=10,
                    seed=point_seed + 1,
                    first_ann_limit=hierarchy.top_level + 1,
                    check_log_drop=True,
                )
                runs.append(
                    NetRun(
                        d, point_seed, eps, norm.space, norm.points,
                        graph, hierarchy, witness, report,
                    )
                )
    return runs, time.perf_counter() - t0


def test_criterion_01_navigability_suite(net_runs):
    runs, elapsed = net_runs
    bad = [
        (r.d, r.point_seed, r.epsilon)
        for r in runs
        if r.witness is not None or not r.report.all_ann
    ]
    queries = sum(r.report.n_queries for r in runs)
    walks = sum(r.report.n_walks for r in runs)
    _verdict(
        1,
        not bad and elapsed < 300.0,
        f"{len(runs)} configs, {queries} queries navigable, {walks} walks all "
        f"(1+eps)-ANN, {elapsed:.1f}s < 300s; failures: {bad}",
    )


def test_criterion_02_trace_laws(net_runs):
    runs, _ = net_runs
    bad = [
        (r.d, r.point_seed, r.epsilon)
        for r in runs
        if not r.report.trace_laws_hold
    ]
    worst = max(
        (r.report.max_first_ann_position, r.report.first_ann_limit) for r in runs
    )
    _verdict(
        2,
        not bad,
        f"first ANN hop within h+1 and log-drop exact on all walks "
        f"(worst first-hop {worst[0]} of limit {worst[1]}); failures: {bad}",
    )


def test_criterion_03_fast_equals_naive():
    schedule = [
        (2000, 2, "l2", 1.0),
        (2000, 2, "linf", 1.0),
        (1500, 2, "l2", 1.0),
        (1200, 3, "l2", 1.0),
        (1000, 2, "l2", 0.5),
    ]
    rng = np.random.default_rng(77)
    while len(schedule) < 30:
        schedule.append(
            (
                int(rng.integers(40, 801)),
                int(rng.choice((2, 3))),
                str(rng.choice(("l2", "linf"))),
                float(rng.choice(EPSILONS)),
            )
        )
    mismatches = []
    for i, (n, d, norm_kind, eps) in enumerate(schedule):
        norm = normalize(
            EuclideanSpace(d, norm=norm_kind), uniform_points(n, d, 1000 + i)
        )
        hierarchy = build_net_hierarchy(norm.space, norm.points)
        fast = build_net_pg_fast(norm.space, norm.points, eps, hierarchy=hierarchy)
        naive = build_net_pg_naive(norm.space, norm.points, eps, hierarchy=hierarchy)
        same_bytes = all(
            f.tobytes() == g.tobytes()
            for f, g in zip(fast.out_edges, naive.out_edges)
        )
        if not (same_bytes and fast == naive):
            mismatches.append((n, d, norm_kind, eps))
    _verdict(
        3,
        not mismatches,
        f"fast and naive builders byte-equal on {len(schedule)} instances "
        f"(n up to 2000, d in {{2,3}}, l2 and linf); mismatches: {mismatches}",
    )


def test_criterion_04_edge_structure(net_runs):
    runs, _ = net_runs
    violations = []
    for r in runs:
        v = verify_net_pg_properties(r.space, r.points, r.graph)
        if v is not None:
            violations.append((r.d, r.point_seed, r.epsilon, v))
    _verdict(
        4,
        not violations,
        f"per-level separation, reach and min out-degree exact on all "
        f"{len(runs)} built graphs; violations: {violations}",
    )


def test_criterion_05_theta_protocol():
    failures = []
    for eps in (1.0, 0.5):
        family = build_cone_family(2, eps / 32.0)
        for point_seed in POINT_SEEDS:
            norm = normalize(EuclideanSpace(2), uniform_points(500, 2, point_seed))
            graph = build_theta_graph(norm.points, eps / 32.0, family=family)
            max_deg = max(len(row) for row in graph.out_edges)
            queries = standard_query_set(norm.points, eps, seed=point_seed * 7)
            witness = check_navigable(graph, norm.space, norm.points, eps, queries)
            report = run_query_protocol(
                graph, norm.space, norm.points, eps, queries,
                starts_per_query=10, seed=point_seed + 2,
            )
            ok = (
                witness is None
                and report.all_ann
                and max_deg <= len(family)
            )
            if not ok:
                failures.append((eps, point_seed, max_deg, len(family)))
    _verdict(
        5,
        not failures,
        "cone graphs at eps/32 pass the criterion-1 protocol with out-degree "
        f"<= cone count for eps in (1.0, 0.5) and 3 seeds; failures: {failures}",
    )


def test_criterion_06_merged_protocol():
    pts = uniform_points(500, 2, seed=404)
    # the components do not depend on the seed: build them once and redraw
    # only the jackpot sample, as build_euclid_pg(pts, 1.0, seed=s) does
    base = build_euclid_pg(pts, 1.0)
    config = base.meta["config"]
    g_net, g_geo = base.meta["g_net"], base.meta["g_geo"]
    npts, nspace = base.meta["points"], base.meta["space"]
    tau = config.keep_probability
    protocol_failures = []
    counts = []
    for s in range(20):
        jackpots = sample_jackpots(500, replace(config, seed=s))
        g = merged_from_components(g_net, g_geo, jackpots)
        counts.append(len(jackpots))
        queries = standard_query_set(npts, 1.0, seed=900 + s)
        witness = check_navigable(g, nspace, npts, 1.0, queries)
        report = run_query_protocol(
            g, nspace, npts, 1.0, queries, starts_per_query=10, seed=901 + s
        )
        if witness is not None or not report.all_ann:
            protocol_failures.append(s)
    mean_count = float(np.mean(counts))
    # standard error of the mean of 20 binomial(n, tau) draws
    sigma = math.sqrt(500 * tau * (1.0 - tau) / 20.0)
    jackpot_ok = abs(mean_count - tau * 500) <= 3.0 * sigma

    # 50 best-of-16 meta-trials: trial t takes seeds 5000 + 16t .. 5000 + 16t + 15
    sweep = best_of_runs(pts, 1.0, seed=5000, repeats=50 * 16)
    run_sizes = [size for _, size in sweep.meta["run_sizes"]]
    best_sizes = [min(run_sizes[16 * t : 16 * (t + 1)]) for t in range(50)]
    empirical_mean = float(np.mean(run_sizes))
    wins = sum(1 for b in best_sizes if b <= 2.0 * empirical_mean)

    _verdict(
        6,
        not protocol_failures and jackpot_ok and wins >= 45,
        f"20 seeds pass the protocol (failures: {protocol_failures}); mean "
        f"jackpot count {mean_count:.1f} within 3 sigma ({3 * sigma:.2f}) of "
        f"{tau * 500:.1f}; best-of-16 below twice the mean edge count in "
        f"{wins}/50 meta-trials",
    )


def test_criterion_07_tree_forced_edges():
    t0 = time.perf_counter()
    results = []
    for n, delta, expected in ((4, 8, 8), (16, 256, 64), (32, 1024, 160)):
        rep = verify_forced_edges_tree(gen_tree_instance(n, delta))
        results.append(
            rep.passed and rep.expected == expected and rep.certified == expected
        )
    elapsed = time.perf_counter() - t0
    _verdict(
        7,
        all(results) and elapsed < 60.0,
        f"forced tree edges certified exactly (8, 64, 160) in {elapsed:.1f}s "
        f"< 60s; per-size pass: {results}",
    )


def test_criterion_08_block_forced_edges():
    results = []
    triangle_failures = []
    for s, t, d, expected in ((2, 1, 1, 2), (4, 3, 2, 720), (3, 2, 3, 1404)):
        inst = gen_block_instance(s, t, d)
        rep = verify_forced_edges_blocks(inst)
        results.append(
            rep.passed and rep.expected == expected and rep.certified == expected
        )
        elements = PointSet(np.arange(inst.n + 1, dtype=np.int64))
        for p_star in range(inst.n):
            w = verify_triangle(inst.space_for(p_star), elements)
            if w is not None:
                triangle_failures.append((s, t, d, p_star, w))
    _verdict(
        8,
        all(results) and not triangle_failures,
        f"forced ordered pairs certified exactly (2, 720, 1404), per-size "
        f"pass: {results}; all adversarial distance functions pass exhaustive "
        f"triangle checks (failures: {triangle_failures})",
    )


def test_criterion_09_doubling_witnesses():
    tree_rep = check_tree_doubling(gen_tree_instance(16, 256), samples=1000, seed=13)
    block_rep = check_block_doubling(
        gen_block_instance(4, 3, 2), p_star=0, samples=1000, seed=13
    )
    ok = (
        tree_rep.passed
        and tree_rep.trials == 1000
        and tree_rep.budget == 2
        and block_rep.passed
        and block_rep.trials == 1000
        and block_rep.budget == 1 + 2 ** 2
    )
    _verdict(
        9,
        ok,
        f"tree balls {tree_rep.successes}/1000 covered by <= 2 half-radius "
        f"balls; block balls {block_rep.successes}/1000 covered by <= "
        f"{block_rep.budget} (max used {block_rep.max_centers})",
    )


def test_criterion_10_closed_form_facts():
    checks = {
        "tangent-linear": check_fact_tan_linear(),
        "chord-tangent": check_fact_chord_tan(),
        "reach-margin": check_fact_reach_margin(),
    }
    bad = {name: v for name, v in checks.items() if v is not None}
    _verdict(
        10,
        not bad,
        f"three inequalities strict at every grid point (10^5 samples each); "
        f"violations: {bad}",
    )


def test_criterion_11_scaling_bands():
    net_ratios = []
    merged_ratios = []
    for n in (250, 500, 1000, 2000):
        g = build_euclid_pg(uniform_points(n, 2, seed=777), 1.0, seed=5)
        log_aspect = math.log2(g.meta["aspect_ratio"])
        net_ratios.append(g.meta["g_net"].edge_count / (n * log_aspect))
        merged_ratios.append(g.edge_count / n)
    net_spread = max(net_ratios) / min(net_ratios)
    merged_spread = max(merged_ratios) / min(merged_ratios)
    _verdict(
        11,
        net_spread < 2.0 and merged_spread < 2.0,
        f"edges/(n log aspect) spread {net_spread:.2f}x and merged edges/n "
        f"spread {merged_spread:.2f}x across n in (250, 500, 1000, 2000), "
        f"both < 2x",
    )
