"""Net-graph builders: constants, dual-route equality, and the verifier."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navgraph import (
    DomainError,
    EuclideanSpace,
    Net,
    NetPGViolation,
    PointSet,
    ProximityGraph,
    TreeMetricSpace,
    build_net_hierarchy,
    build_net_pg_fast,
    build_net_pg_naive,
    normalize,
    pg_params,
    verify_net_pg_properties,
)
from navgraph.netpg import _level_balls_grid, _level_threshold
from conftest import normalized_instance, uniform_points


def hierarchy_for(n, d, seed, norm="l2"):
    space, pts = normalized_instance(n, d, seed, norm=norm)
    return space, pts, build_net_hierarchy(space, pts)


def test_construction_constants_frozen_table():
    space, pts, h = hierarchy_for(30, 2, 0)
    # eta = ceil(log2(1 + 2/eps)), phi = 1 + 2^(eta+1)
    for eps, eta, phi in [(1.0, 2, 9.0), (0.5, 3, 17.0), (0.25, 4, 33.0)]:
        params = pg_params(eps, h)
        assert params.gap_exponent == eta
        assert params.reach_factor == phi
    with pytest.raises(DomainError):
        pg_params(0.0, h)
    with pytest.raises(DomainError):
        pg_params(1.5, h)


def test_level_threshold_exact_in_floats():
    # phi * 2^i is a sum of two powers of two, exact at any level
    from fractions import Fraction

    for eta in (2, 3, 4):
        phi = 1 + 2 ** (eta + 1)
        for level in range(0, 40):
            got = Fraction(_level_threshold(float(phi), level))
            assert got == Fraction(phi) * Fraction(2) ** level


def test_normalize_sets_min_distance_two():
    space = EuclideanSpace(2)
    pts = uniform_points(40, 2, 3)
    norm = normalize(space, pts)
    from navgraph import pairwise_min_distance

    assert np.isclose(pairwise_min_distance(norm.space, norm.points), 2.0, rtol=1e-12)
    # abstract inputs keep their ids and scale the space instead
    tree = TreeMetricSpace(5)
    ids = PointSet(np.arange(12))
    norm_t = normalize(tree, ids)
    assert norm_t.points is ids
    assert norm_t.space.distance(0, 1) == norm_t.scale * tree.distance(0, 1)


@given(st.integers(0, 2**31 - 1), st.integers(10, 80), st.sampled_from([1.0, 0.5, 0.25]))
@settings(max_examples=12, deadline=None)
def test_fast_equals_naive_euclidean(seed, n, eps):
    space, pts = normalized_instance(n, 2, seed)
    fast = build_net_pg_fast(space, pts, eps)
    naive = build_net_pg_naive(space, pts, eps)
    assert fast == naive


def test_fast_equals_naive_linf_and_3d():
    space, pts = normalized_instance(50, 3, 7)
    assert build_net_pg_fast(space, pts, 0.5) == build_net_pg_naive(space, pts, 0.5)
    space, pts = normalized_instance(50, 2, 8, norm="linf")
    assert build_net_pg_fast(space, pts, 1.0) == build_net_pg_naive(space, pts, 1.0)


def test_fast_equals_naive_abstract_tree_metric():
    # abstract inputs take the definitional rule, not the grid
    tree = TreeMetricSpace(7)
    rng = np.random.default_rng(2)
    ids = PointSet(np.sort(rng.choice(2**7, size=40, replace=False)))
    norm = normalize(tree, ids)
    fast = build_net_pg_fast(norm.space, norm.points, 1.0)
    naive = build_net_pg_naive(norm.space, norm.points, 1.0)
    assert fast == naive


def test_batched_collector_matches_linear_scan():
    # the grid on a member subset that is not a net of the points
    space, pts = normalized_instance(70, 2, 9)
    members = np.arange(0, 70, 3, dtype=np.int64)
    thr = 9.0
    codes = _level_balls_grid(space, pts, members, thr)
    assert (np.diff(codes) > 0).all()
    for p in range(pts.n):
        row = space.distances(pts.points[members], pts.points[p])
        ball = codes[codes // pts.n == p] % pts.n
        assert np.array_equal(ball, members[row <= thr]), p


def test_edge_rule_direct_quantifier_check():
    # independent oracle for the builder: evaluate the definition verbatim
    space, pts = normalized_instance(45, 2, 13)
    h = build_net_hierarchy(space, pts)
    params = pg_params(0.5, h)
    g = build_net_pg_fast(space, pts, 0.5, hierarchy=h)
    expected = [set() for _ in range(pts.n)]
    for level in range(h.top_level + 1):
        members = h.members(level)
        thr = _level_threshold(params.reach_factor, level)
        for p in range(pts.n):
            for y in members:
                if y != p and space.distance(pts.points[p], pts.points[y]) <= thr:
                    expected[p].add(int(y))
    for p in range(pts.n):
        assert sorted(expected[p]) == g.out_edges[p].tolist()


def test_builder_requires_normalized_input():
    space = EuclideanSpace(2)
    with pytest.raises(DomainError):
        build_net_pg_fast(space, uniform_points(30, 2, 1), 1.0)


def test_verifier_passes_built_graphs_and_flags_mutations():
    space, pts = normalized_instance(40, 2, 21)
    g = build_net_pg_fast(space, pts, 1.0)
    assert verify_net_pg_properties(space, pts, g) is None

    # adding a spurious edge must surface as an edge-set mismatch
    rows = [r.copy() for r in g.out_edges]
    rows_plus = [r for r in rows]
    victim_row = set(rows[0].tolist())
    outsider = next(v for v in range(pts.n) if v != 0 and v not in victim_row)
    rows_plus[0] = np.array(sorted(victim_row | {outsider}), dtype=np.int64)
    g_plus = ProximityGraph(pts.n, rows_plus, provenance="net")
    g_plus.meta = dict(g.meta)
    v = verify_net_pg_properties(space, pts, g_plus)
    assert v is not None and v.kind == "edge-set-mismatch" and v.vertex == 0

    # removing an edge must surface too
    rows_minus = [r for r in rows]
    rows_minus[5] = rows[5][1:]
    g_minus = ProximityGraph(pts.n, rows_minus, provenance="net")
    g_minus.meta = dict(g.meta)
    v = verify_net_pg_properties(space, pts, g_minus)
    assert v is not None and v.kind == "edge-set-mismatch" and v.vertex == 5


def test_verifier_flags_isolated_vertex():
    space, pts = normalized_instance(30, 2, 22)
    g = build_net_pg_fast(space, pts, 1.0)
    rows = [r.copy() for r in g.out_edges]
    rows[3] = np.empty(0, dtype=np.int64)
    bad = ProximityGraph(pts.n, rows, provenance="net")
    bad.meta = dict(g.meta)
    v = verify_net_pg_properties(space, pts, bad)
    assert v is not None
    assert v.vertex == 3
    assert v.kind in ("edge-set-mismatch", "isolated-vertex")


def test_verifier_needs_params():
    space, pts = normalized_instance(20, 2, 23)
    g = build_net_pg_fast(space, pts, 1.0)
    bare = ProximityGraph(pts.n, list(g.out_edges), provenance="net")
    with pytest.raises(DomainError):
        verify_net_pg_properties(space, pts, bare)
    # the edge rule comes from epsilon, so the reach factor must match it
    wrong = dataclasses.replace(g.meta["params"], reach_factor=17.0)
    with pytest.raises(DomainError, match="reach factor"):
        verify_net_pg_properties(space, pts, g, params=wrong)


def test_verifier_reports_level_separation_witness():
    # level 1's members are only 2-separated, so as level 2 some group
    # holds two of them closer than 4
    space, pts = normalized_instance(60, 2, 0)
    h = build_net_hierarchy(space, pts)
    levels = list(h.levels)
    levels[2] = Net(radius=levels[2].radius, members=levels[1].members)
    bad = dataclasses.replace(h, levels=tuple(levels))
    g = build_net_pg_naive(space, pts, 1.0, hierarchy=bad)
    assert verify_net_pg_properties(space, pts, g) == NetPGViolation(
        kind="level-separation",
        vertex=0,
        level=2,
        details="group members closer than 4.0",
    )
    # a vertex is not in its own group: the close pair {0, 1} is reported
    # at vertex 2, the first vertex that reaches both
    line, pts = EuclideanSpace(1), PointSet(np.array([[0.0], [2.0], [30.0]]))
    h = build_net_hierarchy(line, pts)
    levels = list(h.levels)
    levels[2] = Net(radius=4.0, members=np.arange(3, dtype=np.int64))
    bad = dataclasses.replace(h, levels=tuple(levels))
    g = build_net_pg_naive(line, pts, 1.0, hierarchy=bad)
    v = verify_net_pg_properties(line, pts, g)
    assert (v.kind, v.vertex, v.level) == ("level-separation", 2, 2)


def test_min_out_degree_and_separation_law():
    # acceptance-style law, checked directly on one instance
    space, pts = normalized_instance(60, 2, 24)
    h = build_net_hierarchy(space, pts)
    for eps in (1.0, 0.5):
        params = pg_params(eps, h)
        g = build_net_pg_fast(space, pts, eps, hierarchy=h)
        assert min(len(r) for r in g.out_edges) >= 1
        for level in range(h.top_level + 1):
            members = h.members(level)
            thr = _level_threshold(params.reach_factor, level)
            mpts = pts.points[members]
            for p in range(pts.n):
                row = space.distances(mpts, pts.points[p])
                group = members[(row <= thr) & (members != p)]
                if len(group) < 2:
                    continue
                gp = pts.points[group]
                for k in range(len(group)):
                    d = space.distances(gp, gp[k])
                    d[k] = np.inf
                    assert d.min() >= 2.0**level
