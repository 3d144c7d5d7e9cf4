"""Greedy routing, budgets, graph algebra, and the navigability checker."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navgraph import (
    BlockMetricSpace,
    DomainError,
    EuclideanSpace,
    NavigabilityWitness,
    PointSet,
    ProximityGraph,
    SearchTrace,
    TreeMetricSpace,
    build_euclid_pg,
    build_net_pg_fast,
    check_navigable,
    graph_stats,
    greedy_search,
    jackpot_condition_check,
    jackpot_query,
    merge_graphs,
    run_query_protocol,
    segment_min,
    standard_query_set,
)
from navgraph.graph import (
    BLOCK_CELLS,
    ORTHANT_AXES,
    PROBES,
    SAMPLE,
    _check_query_distance,
    _check_query_shape,
    _greedy_engine,
    _probes,
)
from conftest import uniform_points

SPACE1 = EuclideanSpace(1)


def line_instance():
    # 0 at x=0, 1 at x=10, 2 at x=20, 3 at x=21; ring edges move left
    pts = PointSet(np.array([[0.0], [10.0], [20.0], [21.0]]))
    g = ProximityGraph(4, [[1], [2], [3], [0, 2]])
    return g, pts


def test_graph_validation():
    with pytest.raises(DomainError, match="2 rows for 3 vertices"):
        ProximityGraph(3, [[1], []])
    with pytest.raises(DomainError, match="row 2 contains a self-loop"):
        ProximityGraph(3, [[1], [], [2]])
    with pytest.raises(DomainError, match="row 1 is not strictly sorted"):
        ProximityGraph(3, [[1], [0, 0], []])  # duplicate
    with pytest.raises(DomainError, match="row 0 is not strictly sorted"):
        ProximityGraph(3, [[2, 1], [], []])
    with pytest.raises(DomainError, match=r"row 1 has targets outside \[0, 3\)"):
        ProximityGraph(3, [[1], [3], []])
    with pytest.raises(DomainError, match=r"row 2 has targets outside \[0, 3\)"):
        ProximityGraph(3, [[], [], [-1]])
    with pytest.raises(DomainError, match="adjacency row 1 is not 1-D"):
        ProximityGraph(3, [[1], [[0, 2]], []])
    with pytest.raises(DomainError, match="adjacency row 0 is not 1-D"):
        ProximityGraph(3, [1, [], []])
    # the first faulty row is named, whatever its fault
    with pytest.raises(DomainError, match="row 0 contains a self-loop"):
        ProximityGraph(3, [[0], [5], []])


@given(st.integers(1, 12), st.data())
@settings(max_examples=60, deadline=None)
def test_rows_and_edge_codes_build_the_same_graph(n, data):
    rows = [
        sorted(data.draw(st.sets(st.integers(0, n - 1).filter(lambda t, v=v: t != v))))
        for v in range(n)
    ]
    g = ProximityGraph(n, rows)
    codes = np.array([v * n + t for v, row in enumerate(rows) for t in row], dtype=np.int64)
    assert g == ProximityGraph.from_codes(n, codes)
    assert [r.tolist() for r in g.out_edges] == rows
    assert g.edge_count == len(codes)
    keys = g.edge_keys()
    assert (np.diff(keys) > 0).all()
    assert np.array_equal(keys, codes)
    assert not g.flat.flags.writeable and not g.out_edges[0].flags.writeable


@pytest.mark.parametrize("n, v", [(1, 0), (2, 1), (6, 0), (6, 3), (6, 5)])
def test_star_graph_equals_its_rows(n, v):
    row = np.array([t for t in range(n) if t not in (v, (v + 1) % n)], dtype=np.int64)
    rows = [row.tolist() if u == v else [] for u in range(n)]
    star = ProximityGraph._star(n, v, row)
    assert star == ProximityGraph(n, rows)
    assert [r.tolist() for r in star.out_edges] == rows
    assert [star.out_degree(u) for u in range(n)] == [len(r) for r in rows]
    assert not star.flat.flags.writeable and not star.out_edges[v].flags.writeable


def test_graph_equality_ignores_meta():
    a = ProximityGraph(3, [[1], [2], []])
    b = ProximityGraph(3, [[1], [2], []])
    b.meta["anything"] = 42
    assert a == b
    c = ProximityGraph(3, [[2], [2], []])
    assert a != c


def test_greedy_moves_to_closest_neighbor_smallest_index_on_tie():
    # vertex 0 sees 1 and 2 at the same distance to q; must pick 1
    pts = PointSet(np.array([[0.0, 0.0], [2.0, 1.0], [2.0, -1.0], [4.0, 0.0]]))
    g = ProximityGraph(4, [[1, 2], [3], [3], []])
    q = np.array([4.0, 0.0])
    trace = greedy_search(g, EuclideanSpace(2), pts, 0, q)
    assert trace.vertices == [0, 1, 3]
    assert trace.terminated == "self"


def test_greedy_requires_strict_improvement():
    # neighbor at the same distance as the current vertex: stop
    pts = PointSet(np.array([[-1.0], [1.0]]))
    g = ProximityGraph(2, [[1], [0]])
    trace = greedy_search(g, SPACE1, pts, 0, np.array([0.0]))
    assert trace.vertices == [0]
    assert trace.terminated == "self"


def test_trace_cost_accounting():
    g, pts = line_instance()
    q = np.array([-5.0])
    trace = greedy_search(g, SPACE1, pts, 3, q)
    # start eval 1, scan of 3's two neighbors, move to 0, scan of 0's one
    assert trace.vertices == [3, 0]
    assert trace.distance_computations == 1 + 2 + 1
    assert trace.final == 0
    assert trace.terminated == "self"


def test_budget_one_returns_start():
    g, pts = line_instance()
    trace = greedy_search(g, SPACE1, pts, 1, np.array([0.0]), budget=1)
    assert trace.final == 1
    assert trace.terminated == "budget"
    assert trace.distance_computations == 1


def test_budget_blocks_move_that_would_exceed():
    g, pts = line_instance()
    q = np.array([-5.0])
    # from 3: start costs 1; a move needs the full 2-neighbor scan plus
    # spare budget, so budgets 2 and 3 both stop before scanning
    for budget in (2, 3):
        trace = greedy_search(g, SPACE1, pts, 3, q, budget=budget)
        assert trace.vertices == [3]
        assert trace.terminated == "budget"
        assert trace.distance_computations == budget
    # budget 4 pays for the scan (3 total) and the move, then stops at 0
    trace = greedy_search(g, SPACE1, pts, 3, q, budget=4)
    assert trace.vertices == [3, 0]
    assert trace.distance_computations == 4
    assert trace.terminated == "budget"


def test_budget_rejects_nonpositive():
    g, pts = line_instance()
    with pytest.raises(DomainError):
        greedy_search(g, SPACE1, pts, 0, np.array([0.0]), budget=0)


def test_huge_budget_equals_unbudgeted():
    g, pts = line_instance()
    q = np.array([-5.0])
    free = greedy_search(g, SPACE1, pts, 2, q)
    capped = greedy_search(g, SPACE1, pts, 2, q, budget=10**9)
    assert free.hops == capped.hops
    assert free.distance_computations == capped.distance_computations
    assert capped.terminated == "self"


def test_merge_graphs_identities():
    a = ProximityGraph(3, [[1], [2], [0]])
    b = ProximityGraph(3, [[2], [], [1]])
    m = merge_graphs(a, b)
    assert [r.tolist() for r in m.out_edges] == [[1, 2], [2], [0, 1]]
    assert merge_graphs(a, a) == a
    assert merge_graphs(a, b) == merge_graphs(b, a)
    with pytest.raises(DomainError):
        merge_graphs(a, ProximityGraph(2, [[1], []]))


def test_graph_stats():
    g = ProximityGraph(4, [[1, 2], [], [3], [0]])
    s = graph_stats(g)
    assert (s.edges, s.min_out_degree, s.max_out_degree, s.isolated) == (4, 0, 2, 1)
    assert s.mean_out_degree == 1.0


@given(
    st.lists(st.integers(0, 6), min_size=0, max_size=30),
    st.lists(st.floats(-10, 10, allow_nan=False), min_size=30, max_size=30),
)
def test_segment_min_matches_loop(cuts, values):
    offsets = np.zeros(len(cuts) + 1, dtype=np.int64)
    np.cumsum(np.asarray(cuts, dtype=np.int64), out=offsets[1:])
    values = np.asarray(values[: offsets[-1]] if offsets[-1] else [], dtype=np.float64)
    if offsets[-1] > len(values):
        offsets = np.minimum(offsets, len(values))
    got = segment_min(values, offsets)
    for k in range(len(offsets) - 1):
        seg = values[offsets[k] : offsets[k + 1]]
        want = seg.min() if len(seg) else np.inf
        assert got[k] == want


def test_check_navigable_accepts_and_witnesses():
    pts = PointSet(np.array([[0.0], [4.0], [8.0]]))
    good = ProximityGraph(3, [[1], [0, 2], [1]])
    assert check_navigable(good, SPACE1, pts, 1.0, [np.array([8.0])]) is None
    # cut 0 -> 1: from vertex 0 the query 8 is 8 away, threshold 0, no exit
    bad = ProximityGraph(3, [[], [0, 2], [1]])
    w = check_navigable(bad, SPACE1, pts, 1.0, [np.array([8.0])])
    assert w is not None
    assert (w.vertex, w.query_index) == (0, 0)
    assert w.vertex_distance == 8.0
    assert w.best_neighbor_distance == np.inf


def navigability_oracle(graph, space, pts, epsilon, queries):
    """The definitional check: per query, one distance row and a pass over every edge."""
    for qi, q in enumerate(queries):
        _check_query_shape(pts, q)
        row = space.distances(pts.points, q)
        nn_dist = float(row.min())
        _check_query_distance(nn_dist)
        threshold = (1.0 + epsilon) * nn_dist
        best_nbr = segment_min(row[graph.flat], graph.offsets)
        ok = (row <= threshold) | (best_nbr < row)
        if not ok.all():
            v = int(np.argmax(~ok))
            return NavigabilityWitness(
                qi, q, v, float(row[v]), threshold, float(best_nbr[v])
            )
    return None


def outcome(check, graph, space, pts, epsilon, queries):
    """A check's witness as a tuple (its query by identity), or its error message."""
    try:
        w = check(graph, space, pts, epsilon, queries)
    except DomainError as exc:
        return str(exc)
    if w is None:
        return None
    assert w.query is queries[w.query_index]
    return (
        w.query_index, w.vertex, w.vertex_distance, w.ann_threshold,
        w.best_neighbor_distance,
    )


def assert_matches_oracle(graph, space, pts, epsilon, queries):
    want = outcome(navigability_oracle, graph, space, pts, epsilon, queries)
    assert outcome(check_navigable, graph, space, pts, epsilon, queries) == want
    return want


TREE6 = TreeMetricSpace(6)  # points are leaves 0..31; leaf 63 is far from all


def layout_points(layout, n, d, rng):
    """n distinct points in [0, 1)^d: uniform, on a line along axis 0 (every
    other offset is zero), or on a lattice (rows share coordinates)."""
    if layout == "uniform":
        return rng.random((n, d))
    if layout == "line":
        points = np.zeros((n, d))
        points[:, 0] = rng.permutation(n) / n
        return points
    side = 2
    while side**d < n:
        side += 1
    cells = rng.choice(side**d, size=n, replace=False)
    return np.stack(np.unravel_index(cells, (side,) * d), axis=1) / side


def random_graph(n, k, empty, rng):
    """Out-degree k from random targets, a share ``empty`` of rows emptied."""
    src = np.repeat(np.arange(n), k)
    tgt = rng.integers(0, n, size=n * k)
    keep = (tgt != src) & (rng.random(n) >= empty)[src]
    return ProximityGraph.from_codes(n, np.unique(src[keep] * n + tgt[keep]))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_check_navigable_equals_the_per_query_oracle(data):
    kind = data.draw(st.sampled_from(["l2", "linf", "tree"]))
    n = data.draw(st.sampled_from([2, 7, 30] + ([] if kind == "tree" else [700, 3000])))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if kind == "tree":
        space, pts = TREE6, PointSet(rng.choice(32, size=n, replace=False))
        far, near, bad = 63, lambda: int(rng.integers(32)), [[1, 2], 2.5, 64]
    else:
        d = data.draw(st.sampled_from([1, 2, 3]))
        layout = data.draw(st.sampled_from(["uniform", "line", "lattice"]))
        space = EuclideanSpace(d, kind)
        pts = PointSet(layout_points(layout, n, d, rng))
        far = np.full(d, 1e6)  # every vertex is an ANN: passes on any graph
        # a box sample, or a data point: zero offsets to it on every axis
        near = lambda: rng.random(d) * 1.4 - 0.2 if rng.random() < 0.5 else pts[rng.integers(n)]
        bad = [np.full(2 if d == 1 else 1, 0.5)] + [
            np.array([x] + [0.5] * (d - 1)) for x in (np.nan, np.inf)
        ]
    # k = 0 is edgeless; k = 40 exceeds the probe sample
    k = data.draw(st.sampled_from([0, 1, 4, 20, 40]))
    graph = random_graph(n, k, data.draw(st.sampled_from([0.0, 0.3])), rng)
    block = max(1, BLOCK_CELLS // n)
    count = data.draw(st.sampled_from([1, block - 1, block, block + 1, 2 * block + 1]))
    queries = [far] * max(1, count)
    ends = [p for p in (block - 1, block, len(queries) - 1) if 0 <= p < len(queries)]
    position = st.sampled_from(ends) | st.integers(0, len(queries) - 1)
    for _ in range(data.draw(st.integers(0, 2))):
        queries[data.draw(position)] = near()
    if data.draw(st.booleans()):
        queries[data.draw(position)] = data.draw(st.sampled_from(bad))
    epsilon = data.draw(st.sampled_from([0.1, 0.5, 1.0, 3.0]))
    assert_matches_oracle(graph, space, pts, epsilon, queries)


def mixed_degree_graph(n, rng):
    """Rows empty, shorter than the probe sample, as long, and longer."""
    rows = []
    for v in range(n):
        degree = min(n - 1, rng.choice([0, 1, 5, 31, 32, 33, 80]))
        t = rng.choice(n - 1, size=degree, replace=False)
        rows.append(np.sort(t + (t >= v)))
    return ProximityGraph(n, rows)


def probes_by_definition(graph, pts, v):
    """Vertex v's probes, one scalar at a time; on coordinates, for rows no
    longer than the sample."""
    row = [int(t) for t in graph.out_edges[v]]
    if pts.is_abstract:
        return [row[k * len(row) // PROBES] if row else v for k in range(PROBES)]
    axes = min(pts.dim, ORTHANT_AXES)
    want = [v] * 2**axes
    offsets = {t: pts.points[t] - pts.points[v] for t in row}
    for k in range(2**axes):
        signs = [bool(k >> a & 1) for a in range(axes)]
        inside = [t for t in row if [x >= 0 for x in offsets[t][:axes]] == signs]
        if inside:  # sum of squares in axis order, ties to the smaller index
            want[k] = min(inside, key=lambda t: (sum(x * x for x in offsets[t]), t))
    return want


@pytest.mark.parametrize(
    "space",
    [EuclideanSpace(d, norm) for norm in ("l2", "linf") for d in range(1, 6)] + [TREE6],
    ids=[f"{norm}-d{d}" for norm in ("l2", "linf") for d in range(1, 6)] + ["tree"],
)
def test_every_probe_is_the_vertex_or_an_out_neighbour(space):
    """The exactness hinge: a probe clears a pair only as a real exit.

    Covers an edgeless graph and rows shorter than, as long as and longer
    than the coordinate sample; d = 5 checks the cap on orthant axes.
    """
    rng = np.random.default_rng(7)
    if space is TREE6:
        pts = PointSet(rng.choice(32, size=30, replace=False))
        queries = [int(x) for x in rng.integers(64, size=10)]
    else:
        pts = PointSet(layout_points("lattice", 150, space.dim, rng))
        queries = [pts[i] for i in range(10)] + list(rng.random((10, space.dim)))
    count = PROBES if pts.is_abstract else 2 ** min(space.dim, ORTHANT_AXES)
    edgeless = ProximityGraph.from_codes(pts.n, np.array([], dtype=np.int64))
    for graph in (edgeless, mixed_degree_graph(pts.n, rng)):
        probes = _probes(graph, pts)
        assert probes.shape == (count, pts.n)
        for v, row in enumerate(graph.out_edges):
            assert set(probes[:, v].tolist()) <= {v, *row.tolist()}
            if pts.is_abstract or len(row) <= SAMPLE:  # the sample is the whole row
                assert probes[:, v].tolist() == probes_by_definition(graph, pts, v)
        for epsilon in (0.5, 1e6):  # a witness early, or a full pass
            assert_matches_oracle(graph, space, pts, epsilon, queries)


@pytest.mark.parametrize(
    "layout, want",
    [
        ("FFFNFFX", 3),  # a bad query after a witness in its block: the witness
        ("FFXN", "non-finite"),  # before one: it raises
        ("F" * 12 + "NF", 12),  # a witness in a later block
        ("FFFFFN" + "F" * 10 + "X", 5),  # a bad query in a later block
        ("F" * 15 + "XN", "non-finite"),
        ("F" * 11, None),
    ],
    ids=[
        "bad-after-witness", "bad-before-witness", "witness-in-later-block",
        "bad-in-later-block", "bad-before-witness-in-later-block", "one-full-block",
    ],
)
def test_check_navigable_orders_witnesses_and_errors(layout, want):
    n = 700  # blocks of 11 queries
    pts = uniform_points(n, 2, 5)
    far, bad = np.array([1e6, 1e6]), np.array([np.nan, 0.0])
    queries = [{"F": far, "N": pts.points[0], "X": bad}[c] for c in layout]
    graph = ProximityGraph.from_codes(n, np.array([], dtype=np.int64))
    got = assert_matches_oracle(graph, EuclideanSpace(2), pts, 1.0, queries)
    if isinstance(want, str):
        assert want in got
    else:
        assert (got and got[0]) == want


def test_check_navigable_equals_the_oracle_on_a_merged_graph():
    """Criterion 6's n=500 merged graph and three copies with edges dropped."""
    base = build_euclid_pg(uniform_points(500, 2, seed=404), 1.0)
    npts, nspace = base.meta["points"], base.meta["space"]
    queries = list(standard_query_set(npts, 1.0, seed=900))
    rng = np.random.default_rng(0)
    keys = base.edge_keys().astype(np.int64)
    graphs = [base] + [
        ProximityGraph.from_codes(500, keys[rng.random(len(keys)) >= frac])
        for frac in (0.001, 0.01, 0.1)
    ]
    outcomes = [assert_matches_oracle(g, nspace, npts, 1.0, queries) for g in graphs]
    assert outcomes[0] is None and all(isinstance(o, tuple) for o in outcomes[1:])


@pytest.mark.parametrize("epsilon", [np.inf, np.nan, 0.0, -1.0])
def test_verifiers_reject_epsilon_outside_the_domain(small_instance, epsilon):
    space, pts = small_instance
    edgeless = ProximityGraph.from_codes(pts.n, np.array([], dtype=np.int64))
    entries = [
        lambda: check_navigable(edgeless, space, pts, epsilon, [pts.points[0]]),
        lambda: run_query_protocol(edgeless, space, pts, epsilon, [pts.points[0]]),
        lambda: standard_query_set(pts, epsilon),
    ]
    for entry in entries:
        with pytest.raises(DomainError, match="epsilon must be positive and finite"):
            entry()


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_greedy_distance_strictly_decreases(seed):
    rng = np.random.default_rng(seed)
    n = 25
    pts = uniform_points(n, 2, seed)
    rows = [np.unique(rng.integers(0, n, size=4)) for _ in range(n)]
    rows = [r[r != v] for v, r in enumerate(rows)]
    g = ProximityGraph(n, rows)
    q = rng.random(2)
    trace = greedy_search(g, EuclideanSpace(2), pts, int(rng.integers(n)), q)
    dists = [d for _, d in trace.hops]
    assert all(a > b for a, b in zip(dists, dists[1:]))


@pytest.mark.parametrize(
    "q, problem",
    [
        ([1.0], "shape"),  # used to broadcast silently; the check passed
        ([1.0, 2.0, 3.0], "shape"),  # used to raise numpy's broadcast error
        ([np.nan, 1.0], "non-finite"),  # used to answer the start / a NaN witness
        ([np.inf, 0.0], "non-finite"),  # used to pass the check and the protocol
    ],
    ids=["one-coordinate", "three-coordinates", "nan", "inf"],
)
def test_routing_entries_reject_out_of_domain_query(small_instance, q, problem):
    space, pts = small_instance
    g = build_net_pg_fast(space, pts, 1.0)
    entries = [
        lambda: greedy_search(g, space, pts, 0, q),
        lambda: greedy_search(g, space, pts, 0, q, budget=5).final,
        lambda: jackpot_query(g, space, pts, 0, q, [1, 2], 8.0),
        lambda: check_navigable(g, space, pts, 1.0, [q]),
        lambda: check_navigable(g, space, pts, 1.0, [pts.points[0], q]),
        lambda: run_query_protocol(g, space, pts, 1.0, [q], starts_per_query=2),
        lambda: jackpot_condition_check(g, space, pts, q, [1, 2], 8.0),
    ]
    for entry in entries:
        with pytest.raises(DomainError, match=problem):
            entry()


def _literal_trace(graph, space, pts, start, q, budget=None, mask=None, cap=None):
    """The greedy rule one scalar ``distance`` at a time, charged as it is spent.

    A scan that reaches the budget stops there: a move needs the whole scan
    plus spare budget.  The first strictly smaller distance wins, so ties go
    to the smallest index (rows are ascending).
    """
    current, computed = start, 1
    d_current = space.distance(pts.points[start], q)
    hops = [(current, d_current)]
    seen = 0
    while True:
        if mask is not None and mask[current]:
            seen += 1
            if cap is not None and seen >= cap:
                return SearchTrace(tuple(hops), computed, "jackpot")
        if budget is not None and computed >= budget:
            return SearchTrace(tuple(hops), computed, "budget")
        best, d_best = None, None
        for t in graph.out_edges[current].tolist():
            d = space.distance(pts.points[t], q)
            computed += 1
            if budget is not None and computed >= budget:
                return SearchTrace(tuple(hops), computed, "budget")
            if d_best is None or d < d_best:
                best, d_best = t, d
        if best is None or not d_best < d_current:
            return SearchTrace(tuple(hops), computed, "self")
        current, d_current = best, d_best
        hops.append((current, d_current))


def _hop_instance(kind, d, seed):
    """(space, points, query) with many distance ties: lattice, tree or blocks."""
    rng = np.random.default_rng(seed)
    if kind == "tree":
        leaves = rng.choice(1 << 8, size=30, replace=False)
        return TreeMetricSpace(8), PointSet(leaves), int(rng.integers(1 << 8))
    if kind == "block":
        coords = np.array([(b * 6 + x, y) for b in range(3) for x in range(3) for y in range(3)])
        space = BlockMetricSpace(coords, 3, int(rng.integers(len(coords))))
        return space, PointSet(np.arange(len(coords))), space.query_id
    lattice = np.unique(rng.integers(-3, 4, size=(30, d)).astype(np.float64), axis=0)
    query = rng.integers(-4, 5, size=d) / 2.0
    return EuclideanSpace(d, kind), PointSet(rng.permutation(lattice)), query


@given(
    st.sampled_from(["l2", "linf", "tree", "block"]),
    st.integers(1, 4),
    st.integers(0, 2**31 - 1),
    st.sampled_from([1, 2, 3, 5, 8, 13, 40, None]),
)
@settings(max_examples=80, deadline=None)
def test_engine_equals_the_literal_hop_oracle(kind, d, seed, budget):
    space, pts, q = _hop_instance(kind, d, seed)
    rng = np.random.default_rng(seed + 1)
    n = pts.n
    rows = [np.unique(rng.integers(0, n, size=rng.integers(0, 9))) for _ in range(n)]
    g = ProximityGraph(n, [r[r != v] for v, r in enumerate(rows)])
    jackpots = rng.choice(n, size=n // 4, replace=False)
    mask = np.zeros(n, dtype=bool)
    mask[jackpots] = True
    row = space.distances(pts.points, q)
    for start in range(0, n, 4):
        want = _literal_trace(g, space, pts, start, q, budget=budget)
        assert greedy_search(g, space, pts, start, q, budget=budget) == want
        assert _greedy_engine(g, space, pts, start, q, budget=budget, row=row) == want
        for cap in (1, 2, 3):
            want = _literal_trace(g, space, pts, start, q, mask=mask, cap=cap)
            got = _greedy_engine(g, space, pts, start, q, jackpot_mask=mask, jackpot_cap=cap)
            assert got == want
        # jackpot_query's cap for aspect ratio 1 is 1 + ceil(log2 2) = 2
        _, trace = jackpot_query(g, space, pts, start, q, jackpots, 1.0)
        want = _literal_trace(g, space, pts, start, q, mask=mask, cap=2)
        got = (trace.hops, trace.distance_computations, trace.terminated)
        assert got == (want.hops, want.distance_computations, want.terminated)
