"""Batch routing protocol: its row-fed walks against ``greedy_search``, and the
trace-law and failure reports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navgraph import (
    DomainError,
    EuclideanSpace,
    PointSet,
    ProximityGraph,
    build_net_pg_fast,
    greedy_search,
    run_query_protocol,
    standard_query_set,
)
from navgraph.graph import _greedy_engine
from conftest import normalized_instance, uniform_points


def test_standard_query_set_composition():
    _, pts = normalized_instance(50, 2, 1)
    qs = standard_query_set(pts, 0.5, n_random=100, n_perturbed=30, seed=9)
    assert qs.shape == (50 + 100 + 30, 2)
    assert (qs[:50] == pts.points).all()
    lo, hi = pts.points.min(axis=0), pts.points.max(axis=0)
    assert (qs[50:150] >= lo).all() and (qs[50:150] <= hi).all()
    # deterministic per seed
    again = standard_query_set(pts, 0.5, n_random=100, n_perturbed=30, seed=9)
    assert (qs == again).all()
    with pytest.raises(DomainError):
        standard_query_set(PointSet(np.arange(5)), 0.5)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_row_fed_engine_matches_greedy_search(seed):
    # dual route: the engine fed the query's distance row must reproduce
    # greedy_search's whole trace, hops, cost and termination included
    rng = np.random.default_rng(seed)
    n = 30
    space = EuclideanSpace(2)
    pts = uniform_points(n, 2, seed)
    rows = [np.unique(rng.integers(0, n, size=5)) for _ in range(n)]
    rows = [r[r != v] for v, r in enumerate(rows)]
    g = ProximityGraph(n, rows)
    q = rng.random(2)
    row = space.distances(pts.points, q)
    for start in range(0, n, 7):
        trace = greedy_search(g, space, pts, start, q)
        assert _greedy_engine(g, space, pts, start, q, row=row) == trace


def test_protocol_passes_on_net_graph():
    space, pts = normalized_instance(60, 2, 3)
    g = build_net_pg_fast(space, pts, 1.0)
    queries = standard_query_set(pts, 1.0, n_random=40, n_perturbed=20, seed=0)
    rep = run_query_protocol(
        g,
        space,
        pts,
        1.0,
        queries,
        starts_per_query=5,
        seed=0,
        first_ann_limit=g.meta["hierarchy"].top_level + 1,
        check_log_drop=True,
    )
    assert rep.all_ann and rep.trace_laws_hold
    assert rep.n_walks == len(queries) * 5
    assert 1 <= rep.max_first_ann_position <= g.meta["hierarchy"].top_level + 1


def test_protocol_collects_planted_failure():
    # an empty graph strands every start at itself
    space, pts = normalized_instance(20, 2, 4)
    g = ProximityGraph(pts.n, [[] for _ in range(pts.n)])
    far = pts.points.max(axis=0) + np.array([50.0, 50.0])
    rep = run_query_protocol(g, space, pts, 0.5, [far], starts_per_query=4, seed=1)
    assert not rep.all_ann
    assert len(rep.ann_failures) > 0
    qi, start, final, final_dist, threshold = rep.ann_failures[0]
    assert qi == 0 and final == start and final_dist > threshold


def test_protocol_flags_log_drop_violation_on_foreign_graph():
    # a long one-way path makes hops that improve by tiny amounts, which
    # breaks the ceil(log2) strict-drop law that net graphs satisfy
    xs = np.arange(12, dtype=np.float64) * 2.0
    pts = PointSet(xs[:, None])
    rows = [[v + 1] if v + 1 < 12 else [] for v in range(12)]
    g = ProximityGraph(12, rows)
    space = EuclideanSpace(1)
    rep = run_query_protocol(
        g,
        space,
        pts,
        0.25,
        [np.array([22.5])],
        starts_per_query=3,
        seed=0,
        first_ann_limit=3,
        check_log_drop=True,
    )
    assert rep.hop_bound_violations or rep.log_drop_violations
