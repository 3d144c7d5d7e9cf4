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
    check_navigable,
    load_graph,
    normalize,
    pg_params,
    save_graph,
    standard_query_set,
    verify_net_pg_properties,
    verify_r_net,
)
from navgraph.graph import sorted_distinct
from navgraph.netpg import _level_balls_grid, _level_threshold
from conftest import normalized_instance, uniform_points


def hierarchy_for(n, d, seed, norm="l2"):
    space, pts = normalized_instance(n, d, seed, norm=norm)
    return space, pts, build_net_hierarchy(space, pts)


def per_level_oracle(space, pts, epsilon, hierarchy):
    """The edge rule as the paper states it: every level, then deduplicated.

    One distance row per (point, level) against that level's members within
    reach_factor * 2^level; the builders decide each pair once instead.
    """
    params = pg_params(epsilon)
    n = pts.n
    codes = []
    for level in range(hierarchy.top_level + 1):
        members = hierarchy.members(level)
        member_pts = pts.points[members]
        thr = _level_threshold(params.reach_factor, level)
        for p in range(n):
            row = space.distances(member_pts, pts.points[p])
            hits = members[row <= thr]
            codes.append(p * n + hits[hits != p])
    return ProximityGraph.from_codes(n, sorted_distinct(np.concatenate(codes)))


def test_construction_constants_frozen_table():
    # eta = ceil(log2(1 + 2/eps)), phi = 1 + 2^(eta+1)
    for eps, eta, phi in [(1.0, 2, 9.0), (0.5, 3, 17.0), (0.25, 4, 33.0)]:
        params = pg_params(eps)
        assert params.gap_exponent == eta
        assert params.reach_factor == phi
    with pytest.raises(DomainError):
        pg_params(0.0)
    with pytest.raises(DomainError):
        pg_params(1.5)


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


def test_normalize_rejects_cells_beyond_int64():
    space = EuclideanSpace(2)
    wide = PointSet(np.array([[1e10, 0.0], [1e10, 1e-10], [0.0, 1.0]]))
    with pytest.raises(DomainError, match="range window"):
        normalize(space, wide)
    # 2^58 minimum distances normalise to 2^59, whose cells fit
    edge = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [2.0**58, 0.0]]))
    assert normalize(space, edge).scale == 2.0


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


def _corrupt(h, data):
    """``h`` unchanged, or with one level's members thinned, copied from the
    level below, duplicated, or joined by points promoted from the level
    below; levels keep their radii and stay sorted."""
    kind = data.draw(st.sampled_from(["none", "drop", "below", "duplicate", "promote"]))
    level = data.draw(st.integers(int(kind in ("below", "promote")), h.top_level))
    members = h.members(level)
    if kind == "drop":
        keep = st.lists(st.booleans(), min_size=len(members), max_size=len(members))
        members = members[np.array(data.draw(keep), dtype=bool)]
    elif kind == "below":
        members = h.members(level - 1)
    elif kind == "duplicate":
        repeats = members[: data.draw(st.integers(1, 5))]
        members = np.sort(np.concatenate([members, repeats]))
    elif kind == "promote":
        below = np.setdiff1d(h.members(level - 1), members).tolist()
        pick = data.draw(st.lists(st.sampled_from(below), max_size=3)) if below else []
        members = np.union1d(members, np.array(pick, dtype=np.int64))
    levels = list(h.levels)
    levels[level] = Net(radius=levels[level].radius, members=members)
    return dataclasses.replace(h, levels=tuple(levels))


@given(
    st.sampled_from(["l2-1", "l2-2", "l2-3", "linf-1", "linf-2", "linf-3", "tree"]),
    st.booleans(),
    st.integers(0, 2**31 - 1),
    st.integers(10, 60),
    st.sampled_from([1.0, 0.5, 0.25]),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_builders_equal_per_level_oracle(metric, lattice, seed, n, eps, data):
    # the per-pair rule, D(p, y) <= phi * 2^top(y), is the union over levels
    # on any hierarchy, including ones a verifier may be handed
    rng = np.random.default_rng(seed)
    if metric == "tree":
        ids = rng.choice(2**7, size=n, replace=False)
        norm = normalize(TreeMetricSpace(7), PointSet(ids))
        space, pts = norm.space, norm.points
    elif lattice:
        # even integer coordinates with a pair at distance 2: distances equal
        # to a reach phi * 2^i occur, so the <= of the rule is exercised
        norm_name, d = metric.split("-")
        d = int(d)
        side = {1: 64, 2: 10, 3: 5}[d]
        cells = np.vstack([np.zeros((1, d)), np.eye(1, d), rng.integers(0, side, (n, d))])
        space = EuclideanSpace(d, norm=norm_name)
        pts = PointSet(2.0 * np.unique(cells, axis=0))
    else:
        norm_name, d = metric.split("-")
        space, pts = normalized_instance(n, int(d), seed, norm=norm_name)
    h = _corrupt(build_net_hierarchy(space, pts), data)
    want = per_level_oracle(space, pts, eps, h)
    assert build_net_pg_naive(space, pts, eps, hierarchy=h) == want
    assert build_net_pg_fast(space, pts, eps, hierarchy=h) == want


def test_point_in_no_level_gets_no_in_edges():
    space, pts, h = hierarchy_for(40, 2, 3)
    levels = [Net(radius=net.radius, members=net.members[net.members != 7]) for net in h.levels]
    bad = dataclasses.replace(h, levels=tuple(levels))
    for build in (build_net_pg_naive, build_net_pg_fast):
        g = build(space, pts, 1.0, hierarchy=bad)
        assert g == per_level_oracle(space, pts, 1.0, bad)
        assert not any(7 in row for row in g.out_edges)
        assert len(g.out_edges[7]) > 0


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
    params = pg_params(0.5)
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
    g_plus = ProximityGraph(pts.n, rows_plus)
    g_plus.meta = dict(g.meta)
    v = verify_net_pg_properties(space, pts, g_plus)
    assert v is not None and v.kind == "edge-set-mismatch" and v.vertex == 0

    # removing an edge must surface too
    rows_minus = [r for r in rows]
    rows_minus[5] = rows[5][1:]
    g_minus = ProximityGraph(pts.n, rows_minus)
    g_minus.meta = dict(g.meta)
    v = verify_net_pg_properties(space, pts, g_minus)
    assert v is not None and v.kind == "edge-set-mismatch" and v.vertex == 5


def test_verifier_flags_isolated_vertex():
    space, pts = normalized_instance(30, 2, 22)
    g = build_net_pg_fast(space, pts, 1.0)
    rows = [r.copy() for r in g.out_edges]
    rows[3] = np.empty(0, dtype=np.int64)
    bad = ProximityGraph(pts.n, rows)
    bad.meta = dict(g.meta)
    v = verify_net_pg_properties(space, pts, bad)
    assert v is not None
    assert v.vertex == 3
    assert v.kind in ("edge-set-mismatch", "isolated-vertex")


def test_verifier_needs_params():
    space, pts = normalized_instance(20, 2, 23)
    g = build_net_pg_fast(space, pts, 1.0)
    bare = ProximityGraph(pts.n, list(g.out_edges))
    with pytest.raises(DomainError, match="no epsilon"):
        verify_net_pg_properties(space, pts, bare)


def test_verifier_checks_a_loaded_graph_at_the_epsilon_given(tmp_path):
    # a graph read from a file has no build meta: epsilon alone decides the
    # edge rule, and the hierarchy is built from the points
    norm = normalize(EuclideanSpace(2), PointSet(np.random.default_rng(5).random((200, 2))))
    path = tmp_path / "g.txt"
    save_graph(path, build_net_pg_fast(norm.space, norm.points, 1.0))
    g = load_graph(path)
    assert verify_net_pg_properties(norm.space, norm.points, g, epsilon=1.0) is None
    v = verify_net_pg_properties(norm.space, norm.points, g, epsilon=0.5)
    assert (v.kind, v.vertex) == ("edge-set-mismatch", 0)
    with pytest.raises(DomainError, match="no epsilon"):
        verify_net_pg_properties(norm.space, norm.points, g)


def test_verifier_reports_level_separation_witness():
    # level 1's members are only 2-separated, so as level 2 two of them are
    # closer than 4; the witness is the smallest such member
    space, pts = normalized_instance(60, 2, 0)
    h = build_net_hierarchy(space, pts)
    levels = list(h.levels)
    levels[2] = Net(radius=levels[2].radius, members=levels[1].members)
    bad = dataclasses.replace(h, levels=tuple(levels))
    g = build_net_pg_naive(space, pts, 1.0, hierarchy=bad)
    assert verify_net_pg_properties(space, pts, g) == NetPGViolation(
        kind="level-separation",
        vertex=2,
        level=2,
        details="a co-member closer than 4.0, or listed twice",
    )
    # the close pair {0, 1} is reported at its smaller member
    line, pts = EuclideanSpace(1), PointSet(np.array([[0.0], [2.0], [30.0]]))
    h = build_net_hierarchy(line, pts)
    levels = list(h.levels)
    levels[2] = Net(radius=4.0, members=np.arange(3, dtype=np.int64))
    bad = dataclasses.replace(h, levels=tuple(levels))
    g = build_net_pg_naive(line, pts, 1.0, hierarchy=bad)
    v = verify_net_pg_properties(line, pts, g)
    assert (v.kind, v.vertex, v.level) == ("level-separation", 0, 2)


def test_uncovered_level_is_caught_though_the_graph_obeys_its_edge_rule():
    # without point 1, level 2 leaves point 2 (6 normalised units from point
    # 0) uncovered; the graph built on that hierarchy obeys its own edge rule
    # and still fails navigability, so covering must be checked
    line = EuclideanSpace(1)
    raw = PointSet(np.array([[1.0], [19.0], [28.0], [101.0], [172.0], [181.0]]))
    norm = normalize(line, raw)
    h = build_net_hierarchy(norm.space, norm.points)
    levels = list(h.levels)
    members = levels[2].members
    levels[2] = Net(radius=4.0, members=members[members != 1])
    bad = dataclasses.replace(h, levels=tuple(levels))
    g = build_net_pg_naive(norm.space, norm.points, 1.0, hierarchy=bad)
    v = verify_net_pg_properties(norm.space, norm.points, g)
    assert (v.kind, v.vertex, v.level) == ("level-covering", 2, 2)
    query = np.array([[52.0]]) * norm.scale
    w = check_navigable(g, norm.space, norm.points, 1.0, query)
    assert w is not None and w.vertex == 3


def test_hierarchy_stopping_short_of_one_point_is_caught():
    # levels 0 to 4 are valid nets and the graph obeys their edge rule, but
    # the top level keeps 279 members, and greedy routing gets stuck
    norm = normalize(EuclideanSpace(2), PointSet(np.random.default_rng(3).random((300, 2))))
    h = build_net_hierarchy(norm.space, norm.points)
    short = dataclasses.replace(h, top_level=4, levels=h.levels[:5])
    g = build_net_pg_fast(norm.space, norm.points, 1.0, hierarchy=short)
    v = verify_net_pg_properties(norm.space, norm.points, g)
    assert (v.kind, v.vertex, v.level) == ("level-top", 1, 4)
    queries = standard_query_set(norm.points, 1.0, seed=0)
    w = check_navigable(g, norm.space, norm.points, 1.0, queries)
    assert (w.query_index, w.vertex) == (217, 138)


@given(
    st.sampled_from(["l2-1", "l2-2", "l2-3", "linf-1", "linf-2", "linf-3", "tree"]),
    st.integers(0, 2**31 - 1),
    st.integers(10, 60),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_level_witness_is_verify_r_nets_first_failure(metric, seed, n, data):
    # the definitional net check, level by level, is the oracle for the
    # verifier's separation and covering passes
    if metric == "tree":
        ids = np.random.default_rng(seed).choice(2**7, size=n, replace=False)
        norm = normalize(TreeMetricSpace(7), PointSet(ids))
        space, pts = norm.space, norm.points
    else:
        norm_name, d = metric.split("-")
        space, pts = normalized_instance(n, int(d), seed, norm=norm_name)
    h = _corrupt(build_net_hierarchy(space, pts), data)
    g = build_net_pg_naive(space, pts, 1.0, hierarchy=h)
    want = None
    for level, net in enumerate(h.levels):
        bad = verify_r_net(space, pts, net.radius, net.members)
        if bad is not None:
            vertex = bad.index_a if bad.kind == "separation" else bad.index_b
            want = (f"level-{bad.kind}", vertex, level)
            break
    v = verify_net_pg_properties(space, pts, g)
    assert (None if v is None else (v.kind, v.vertex, v.level)) == want


def test_min_out_degree_and_separation_law():
    # acceptance-style law, checked directly on one instance
    space, pts = normalized_instance(60, 2, 24)
    h = build_net_hierarchy(space, pts)
    for eps in (1.0, 0.5):
        params = pg_params(eps)
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
