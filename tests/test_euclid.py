"""Sampled merge: tau law, jackpot stream, edge-count algebra, capped query."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navgraph import (
    DomainError,
    EuclideanSpace,
    PointSet,
    ProximityGraph,
    SampleConfig,
    best_of_runs,
    build_euclid_pg,
    check_navigable,
    derive_sample_config,
    expected_merged_edges,
    jackpot_condition_check,
    jackpot_query,
    merged_from_components,
    sample_jackpots,
    sparsify,
    standard_query_set,
)
from navgraph._util import ceil_log2
from conftest import uniform_points


def test_sample_config_validation():
    with pytest.raises(DomainError):
        SampleConfig(rate_constant=0.0, keep_probability=0.5, seed=0, repeats=1)
    with pytest.raises(DomainError):
        SampleConfig(rate_constant=4.0, keep_probability=0.0, seed=0, repeats=1)
    with pytest.raises(DomainError):
        SampleConfig(rate_constant=4.0, keep_probability=1.1, seed=0, repeats=1)
    with pytest.raises(DomainError):
        SampleConfig(rate_constant=4.0, keep_probability=0.5, seed=0, repeats=0)


def test_tau_clamps_to_one_for_small_aspect():
    # z at or above log2(aspect) keeps every vertex
    cfg = derive_sample_config(100, aspect_ratio=8.0, rate_constant=4.0)
    assert cfg.keep_probability == 1.0
    cfg = derive_sample_config(100, aspect_ratio=2.0**10, rate_constant=4.0)
    assert cfg.keep_probability == 4.0 / 10.0
    # degenerate aspect ratios clamp instead of failing
    assert derive_sample_config(5, aspect_ratio=0.5).keep_probability == 1.0
    # default repeats = ceil(4 log2 n)
    assert derive_sample_config(256, 4.0).repeats == 32


def test_jackpot_stream_is_pinned_to_the_generator():
    cfg = derive_sample_config(50, 2.0**16, rate_constant=4.0, seed=123)
    got = sample_jackpots(50, cfg)
    want = np.flatnonzero(
        np.random.default_rng(123).random(50) < cfg.keep_probability
    )
    assert np.array_equal(got, want)
    assert got.dtype == np.int64
    # same (seed, tau, n) -> same sample, later draw order never matters
    assert np.array_equal(got, sample_jackpots(50, cfg))


@given(st.integers(0, 2**31 - 1), st.floats(0.05, 1.0))
@settings(max_examples=30, deadline=None)
def test_jackpot_counts_binomial_envelope(seed, tau):
    n = 400
    cfg = SampleConfig(rate_constant=4.0, keep_probability=tau, seed=seed, repeats=1)
    count = len(sample_jackpots(n, cfg))
    sigma = math.sqrt(n * tau * (1.0 - tau))
    assert abs(count - tau * n) <= 6.0 * sigma + 1.0


def test_sparsify_keeps_jackpot_rows_verbatim():
    g = ProximityGraph(4, [[1, 2], [0], [3], [0, 1, 2]])
    s = sparsify(g, np.array([1, 3]))
    assert s.out_edges[0].tolist() == []
    assert s.out_edges[1].tolist() == [0]
    assert s.out_edges[2].tolist() == []
    assert s.out_edges[3].tolist() == [0, 1, 2]
    assert s.edge_count == g.out_degree(1) + g.out_degree(3)
    with pytest.raises(DomainError):
        sparsify(g, np.array([4]))


def test_merged_edge_count_identity():
    g_net = ProximityGraph(3, [[1, 2], [2], [0]])
    g_geo = ProximityGraph(3, [[1], [0], [1]])
    jackpots = np.array([0])
    merged = merged_from_components(g_net, g_geo, jackpots)
    # vertex 0 contributes the union of its rows, others geometric only
    assert merged.out_edges[0].tolist() == [1, 2]
    assert merged.out_edges[1].tolist() == [0]
    assert merged.out_edges[2].tolist() == [1]


def test_expected_merged_edges_formula_by_enumeration():
    # tiny instance: enumerate all jackpot patterns and compare moments
    g_net = ProximityGraph(3, [[1, 2], [2], [0, 1]])
    g_geo = ProximityGraph(3, [[2], [2], [1]])
    tau = 0.3
    mean, var = expected_merged_edges(g_net, g_geo, tau)
    sizes = []
    weights = []
    for pattern in range(8):
        jp = np.flatnonzero([(pattern >> v) & 1 for v in range(3)])
        w = tau ** len(jp) * (1 - tau) ** (3 - len(jp))
        sizes.append(merged_from_components(g_net, g_geo, jp).edge_count)
        weights.append(w)
    sizes = np.array(sizes, dtype=np.float64)
    weights = np.array(weights)
    true_mean = float((sizes * weights).sum())
    true_var = float(((sizes - true_mean) ** 2 * weights).sum())
    assert math.isclose(mean, true_mean, rel_tol=1e-12)
    assert math.isclose(var, true_var, rel_tol=1e-12)


def test_build_euclid_pg_structure_and_navigability():
    pts = uniform_points(80, 2, 6)
    g = build_euclid_pg(pts, 1.0, seed=3)
    meta = g.meta
    # merged adjacency is exactly the union of its recorded components
    jp = meta["jackpots"]
    again = merged_from_components(meta["g_net"], meta["g_geo"], jp)
    assert g == again
    # navigable out of the box on normalized points
    qs = standard_query_set(meta["points"], 1.0, n_random=40, n_perturbed=20, seed=1)
    assert check_navigable(g, meta["space"], meta["points"], 1.0, qs) is None


def test_build_euclid_pg_validation():
    with pytest.raises(DomainError):
        build_euclid_pg(PointSet(np.arange(6)), 1.0)
    with pytest.raises(DomainError):
        build_euclid_pg(uniform_points(10, 4, 0), 1.0)
    with pytest.raises(DomainError):
        build_euclid_pg(uniform_points(10, 2, 0), 0.0)


def test_jackpot_query_cap_and_subsequences():
    # a straight chain where every vertex is a jackpot: the cap must fire
    # after k visits without scanning the capping hop
    n = 40
    xs = np.arange(n, dtype=np.float64) * 2.0
    pts = PointSet(xs[:, None])
    rows = [[v + 1] if v + 1 < n else [] for v in range(n)]
    g = ProximityGraph(n, rows)
    space = EuclideanSpace(1)
    aspect = 4.0  # k = 1 + ceil(log2(8)) = 4
    jackpots = np.arange(n)
    final, trace = jackpot_query(
        g, space, pts, 0, np.array([1000.0]), jackpots, aspect
    )
    k = 1 + ceil_log2(2.0 * aspect)
    assert trace.terminated == "jackpot"
    assert len(trace.hops) == k
    assert final == trace.hops[-1][0]
    # the capping hop is not scanned: its out-degree charge is absent
    assert trace.distance_computations == 1 + (k - 1)
    assert trace.jackpot_flags == tuple([True] * k)
    # every stretch between jackpots is a single hop
    assert trace.subsequences == tuple((i, i) for i in range(k))


def test_jackpot_query_without_jackpots_matches_plain_greedy():
    pts = uniform_points(30, 2, 8)
    space = EuclideanSpace(2)
    rng = np.random.default_rng(0)
    rows = [np.unique(rng.integers(0, 30, size=4)) for _ in range(30)]
    rows = [r[r != v] for v, r in enumerate(rows)]
    g = ProximityGraph(30, rows)
    q = rng.random(2)
    from navgraph import greedy_search

    plain = greedy_search(g, space, pts, 3, q)
    final, capped = jackpot_query(g, space, pts, 3, q, np.array([], dtype=np.int64), 16.0)
    assert capped.hops == plain.hops
    assert capped.terminated == "self"
    assert final == plain.final
    # one stretch covering the whole walk
    assert capped.subsequences == ((0, len(plain.hops) - 1),)


def test_jackpot_condition_check_detects_uncovered_long_walk():
    # chain graph, query beyond the far end: walks are long; with no
    # jackpots the condition fails, with all vertices jackpots it holds
    n = 120
    xs = np.arange(n, dtype=np.float64) * 2.0
    pts = PointSet(xs[:, None])
    rows = [[v + 1] if v + 1 < n else [] for v in range(n)]
    g = ProximityGraph(n, rows)
    space = EuclideanSpace(1)
    q = np.array([xs[-1] + 1.0])
    aspect = float(xs[-1] / 2.0)
    assert jackpot_condition_check(g, space, pts, q, np.arange(n), aspect)
    assert not jackpot_condition_check(
        g, space, pts, q, np.array([], dtype=np.int64), aspect
    )


@pytest.mark.parametrize("bad", [-1, 6, 0.5])
@pytest.mark.parametrize("call", ["sparsify", "jackpot_query", "condition_check"])
def test_jackpot_ids_outside_the_vertices_are_refused(call, bad):
    # -1 would mark vertex n - 1 and 0.5 vertex 0; each is named instead
    n = 6
    pts = PointSet(np.arange(n, dtype=np.float64)[:, None] * 2.0)
    g = ProximityGraph(n, [[v + 1] if v + 1 < n else [] for v in range(n)])
    space, q = EuclideanSpace(1), np.array([20.0])
    run = {
        "sparsify": lambda ids: sparsify(g, ids),
        "jackpot_query": lambda ids: jackpot_query(g, space, pts, 0, q, ids, 4.0),
        "condition_check": lambda ids: jackpot_condition_check(g, space, pts, q, ids, 4.0),
    }[call]
    run([0, n - 1])
    with pytest.raises(DomainError, match=f"jackpot id {bad} "):
        run([0, bad])


def test_best_of_runs_materializes_the_minimum():
    pts = uniform_points(70, 2, 12)
    winner = best_of_runs(pts, 1.0, seed=5, repeats=6)
    sizes = winner.meta["run_sizes"]
    assert len(sizes) == 6
    assert winner.edge_count == min(size for _, size in sizes)
    # winner's recorded seed actually reproduces its jackpot set
    cfg = winner.meta["config"]
    assert np.array_equal(winner.meta["jackpots"], sample_jackpots(pts.n, cfg))
    # spot-check one non-winning size by rebuilding that run directly
    other_seed, other_size = next(
        sv for sv in sizes if sv[0] != cfg.seed
    )
    rebuilt = build_euclid_pg(pts, 1.0, seed=other_seed)
    assert rebuilt.edge_count == other_size


@pytest.mark.parametrize("seed,repeats", [(5, 6), (0, None)])
def test_best_of_runs_is_the_merged_build_over_its_draws(seed, repeats):
    pts = uniform_points(70, 2, 12)
    best = best_of_runs(pts, 1.0, seed=seed, repeats=repeats)
    if repeats is None:
        repeats = math.ceil(4.0 * math.log2(pts.n))
    built = build_euclid_pg(pts, 1.0, seed=seed, repeats=repeats)
    assert built == best
    assert np.array_equal(built.meta["jackpots"], best.meta["jackpots"])
    assert built.meta["config"] == best.meta["config"]
    assert built.meta["run_sizes"] == best.meta["run_sizes"]
    assert [s for s, _ in built.meta["run_sizes"]] == list(range(seed, seed + repeats))


def test_one_draw_build_records_its_own_size():
    pts = uniform_points(70, 2, 12)
    g = build_euclid_pg(pts, 1.0, seed=9)
    assert g.meta["run_sizes"] == [(9, g.edge_count)]
    assert g.meta["config"].seed == 9
    assert np.array_equal(g.meta["jackpots"], sample_jackpots(pts.n, g.meta["config"]))


def test_best_of_runs_keeps_its_draws():
    # the aspect ratio sets tau, and with it every draw: pinned bit for bit
    g = best_of_runs(uniform_points(300, 2, 7), 1.0, seed=5, repeats=6)
    assert g.meta["aspect_ratio"].hex() == "0x1.7dbecd3f32795p+9"
    assert g.meta["config"].keep_probability.hex() == "0x1.abb714f09ecd3p-2"
    assert g.meta["run_sizes"] == [
        (5, 39868), (6, 39283), (7, 39458), (8, 39540), (9, 39046), (10, 39653)
    ]


@pytest.mark.parametrize("kwargs", [{"repeats": 0}, {"rate_constant": 0.0}])
def test_merged_arguments_rejected_before_normalize(monkeypatch, kwargs):
    import navgraph.euclid as euclid

    def normalize_must_not_run(*args):
        raise AssertionError("normalize ran before the arguments were checked")

    monkeypatch.setattr(euclid, "normalize", normalize_must_not_run)
    with pytest.raises(DomainError):
        build_euclid_pg(uniform_points(20, 2, 0), 1.0, **kwargs)
