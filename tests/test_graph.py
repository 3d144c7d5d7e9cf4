"""Greedy routing, budgets, graph algebra, and the navigability checker."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navgraph import (
    DomainError,
    EuclideanSpace,
    PointSet,
    ProximityGraph,
    budgeted_query,
    check_navigable,
    graph_stats,
    greedy_search,
    merge_graphs,
    segment_min,
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
    with pytest.raises(DomainError, match="unknown provenance"):
        ProximityGraph(2, [[1], []], provenance="mystery")
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
    assert g == ProximityGraph.from_codes(n, codes, "custom")
    assert [r.tolist() for r in g.out_edges] == rows
    assert g.edge_count == len(codes)
    keys = g.edge_keys()
    assert (np.diff(keys) > 0).all()
    assert np.array_equal(keys, codes)
    assert not g.flat.flags.writeable and not g.out_edges[0].flags.writeable


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
    assert budgeted_query(g, SPACE1, pts, 1, np.array([0.0]), budget=1) == 1
    trace = greedy_search(g, SPACE1, pts, 1, np.array([0.0]), budget=1)
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
    assert m.provenance == "merged"
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


def test_check_navigable_threads_agree(small_instance):
    space, pts = small_instance
    rng = np.random.default_rng(0)
    queries = list(rng.random((8, 2)) * 100.0)
    g = ProximityGraph(pts.n, [[] for _ in range(pts.n)])
    w1 = check_navigable(g, space, pts, 0.5, queries, threads=1)
    w4 = check_navigable(g, space, pts, 0.5, queries, threads=4)
    assert w1 == w4  # same first witness in scan order
    assert w1 is not None


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
