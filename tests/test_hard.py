"""Hard instances: generators, forced-edge certification, doubling covers."""

import dataclasses

import numpy as np
import pytest

from navgraph import (
    DomainError,
    ProximityGraph,
    block_ball_cover,
    check_block_doubling,
    check_tree_doubling,
    cover_with_half_balls,
    gen_block_instance,
    gen_tree_instance,
    greedy_search,
    tree_ball_cover,
    verify_forced_edges_blocks,
    verify_forced_edges_tree,
)


# -- tree instance ------------------------------------------------------------


def test_tree_instance_frozen_small():
    inst = gen_tree_instance(4, 8)
    assert inst.height == 4
    assert inst.subtree_leaves.tolist() == [0, 1, 2, 3]
    # one leaf per level 3 and 4: leftmost leaves of the sibling subtrees
    assert inst.path_leaves.tolist() == [4, 8]
    assert inst.points.n == 4 + 2
    assert inst.space.distance(0, 4) == 8.0
    assert inst.space.distance(0, 8) == 16.0


def test_tree_instance_point_counts():
    # |P| = n + floor(h/2) with h = log2(2*delta)
    for n, delta, h in [(4, 8, 4), (16, 256, 9), (32, 2**10, 11)]:
        inst = gen_tree_instance(n, delta)
        assert inst.height == h
        assert inst.points.n == n + h // 2
        assert len(inst.path_leaves) == h // 2
        # path leaves sit in distinct sibling subtrees above the n-subtree
        assert (inst.path_leaves >= n).all()


def test_tree_instance_constraint_errors():
    with pytest.raises(DomainError, match="n >= 2"):
        gen_tree_instance(1, 8)
    with pytest.raises(DomainError, match="power of two"):
        gen_tree_instance(6, 64)
    with pytest.raises(DomainError, match="power of two"):
        gen_tree_instance(4, 7)
    with pytest.raises(DomainError, match="n\\*\\*2 <= 2\\*delta"):
        gen_tree_instance(8, 16)
    with pytest.raises(DomainError, match="2\\*delta <= 2\\*\\*n"):
        gen_tree_instance(2, 4)


def test_tree_forced_edges_exact_count():
    inst = gen_tree_instance(4, 8)
    report = verify_forced_edges_tree(inst)
    assert report.passed
    assert report.certified == report.expected == 4 * (4 // 2)


def test_tree_forced_edges_at_256_leaves():
    # 256 * floor(16 / 2) certificates, each O(m) for m = 264 points
    report = verify_forced_edges_tree(gen_tree_instance(256, 2**15))
    assert report.passed
    assert report.certified == report.expected == 2048


def _complete_graph_verdict(inst, start, target, q):
    """Stuck or not, by a greedy run over the complete graph minus (start, target)."""
    m = inst.points.n
    rows = [[j for j in range(m) if j != i and (i, j) != (start, target)] for i in range(m)]
    trace = greedy_search(ProximityGraph(m, rows), inst.space, inst.points, start, q)
    return trace.terminated == "self" and len(trace.hops) == 1


def test_tree_certificates_match_the_complete_graph_oracle():
    # both orientations: subtree leaf toward path leaf is stuck, the reverse
    # moves at once (a nearer subtree leaf is always left), and the star run
    # reports what the run over the complete graph minus the edge reports
    inst = gen_tree_instance(8, 32)
    index_of = {int(v): i for i, v in enumerate(inst.points.points)}
    reverse = dataclasses.replace(
        inst, subtree_leaves=inst.path_leaves, path_leaves=inst.subtree_leaves
    )
    forward_report = verify_forced_edges_tree(inst)
    reverse_report = verify_forced_edges_tree(reverse)
    assert forward_report.passed and forward_report.certified == 8 * 3
    assert reverse_report.certified == 0
    assert reverse_report.expected == 8 * 3
    assert {f[2] for f in reverse_report.failures} == {"not stuck"}
    for case, report in ((inst, forward_report), (reverse, reverse_report)):
        failed = {(v1, v2) for v1, v2, _ in report.failures}
        for v2 in case.path_leaves.tolist():
            for v1 in case.subtree_leaves.tolist():
                stuck = _complete_graph_verdict(case, index_of[v1], index_of[v2], v2)
                assert stuck == ((v1, v2) not in failed)


def test_tree_forced_orientation_is_the_certifying_one():
    # from subtree leaf 0 toward path leaf 4 every remaining neighbor is at
    # distance >= 8 = D(0, 4): stuck; the reverse direction walks away freely
    inst = gen_tree_instance(4, 8)
    ids = inst.points.points
    index_of = {int(v): i for i, v in enumerate(ids)}
    m = inst.points.n
    rows = []
    cut = (index_of[0], index_of[4])
    for i in range(m):
        row = [j for j in range(m) if j != i and (i, j) != cut]
        rows.append(row)
    g = ProximityGraph(m, rows)
    idpts = inst.points
    fwd = greedy_search(g, inst.space, idpts, index_of[0], 4)
    assert fwd.terminated == "self" and fwd.final == index_of[0]
    # reversed orientation: path leaf toward subtree query moves immediately
    cut_rev = (index_of[4], index_of[0])
    rows_rev = []
    for i in range(m):
        rows_rev.append([j for j in range(m) if j != i and (i, j) != cut_rev])
    g_rev = ProximityGraph(m, rows_rev)
    back = greedy_search(g_rev, inst.space, idpts, index_of[4], 0)
    assert back.final != index_of[4]


# -- block instance -----------------------------------------------------------


def test_block_instance_frozen_small():
    inst = gen_block_instance(2, 1, 1)
    assert inst.coords.tolist() == [[0], [1]]
    assert inst.epsilon == 0.25
    inst = gen_block_instance(4, 3, 2)
    assert inst.n == 48
    assert inst.block_origins.tolist() == [0, 8, 16]
    # lexicographic order within a block
    assert inst.coords[:4].tolist() == [[0, 0], [0, 1], [0, 2], [0, 3]]
    assert inst.coords[16].tolist() == [8, 0]


def test_block_instance_validation():
    with pytest.raises(DomainError):
        gen_block_instance(1, 1, 1)
    with pytest.raises(DomainError):
        gen_block_instance(2, 0, 1)
    with pytest.raises(DomainError):
        gen_block_instance(2, 1, 0)
    with pytest.raises(DomainError):
        gen_block_instance(64, 1, 3)  # past the size cap


def test_block_forced_edges_exact_counts():
    for s, t, d, count in [(2, 1, 1, 2), (4, 3, 2, 720)]:
        inst = gen_block_instance(s, t, d)
        report = verify_forced_edges_blocks(inst)
        assert report.passed, report.failures[:3]
        assert report.certified == report.expected == count
        assert count == t * s**d * (s**d - 1)


def test_block_start_is_never_an_approximate_answer():
    # the certification leans on side > (1+eps) * (side-1)
    inst = gen_block_instance(4, 1, 2)
    s, eps = inst.side, inst.epsilon
    assert s > (1.0 + eps) * (s - 1)


# -- tree doubling ------------------------------------------------------------


def test_tree_ball_cover_structure():
    inst = gen_tree_instance(16, 256)
    # tiny radius: singleton
    level, centers = tree_ball_cover(inst, 5, 1.5)
    assert level == -1 and centers == [5]
    # radius 8 = 2^3: ancestor interval at level 3, two child centers
    level, centers = tree_ball_cover(inst, 5, 8.0)
    assert level == 3
    base = (5 >> 3) << 3
    assert centers == [base, base + 4]
    # radius past the diameter clamps to the root
    level, centers = tree_ball_cover(inst, 5, 10.0**9)
    assert level == inst.height
    assert centers == [0, 1 << (inst.height - 1)]


def test_tree_doubling_thousand_samples():
    inst = gen_tree_instance(16, 256)
    report = check_tree_doubling(inst, samples=1000, seed=0)
    assert report.passed
    assert report.budget == 2
    assert report.max_centers <= 2


# -- block doubling -----------------------------------------------------------


def test_block_cover_query_cases():
    inst = gen_block_instance(4, 3, 2)
    p_star = 0
    space = inst.space_for(p_star)
    ids = np.arange(inst.n + 1)
    dist = np.array([space.distances(ids, int(u)) for u in ids])
    q = inst.n
    # r < side - 1: the ball is {q}, one ball suffices
    covers = block_ball_cover(inst, p_star, q, 2.0, dist)
    assert covers == [("elem", q)]
    assert np.array_equal(np.flatnonzero(dist[q] <= 2.0), [q])
    # r = side - 1: ball {q, p_star}, two element balls
    covers = block_ball_cover(inst, p_star, q, 3.0, dist)
    assert covers == [("elem", q), ("elem", p_star)]
    assert np.array_equal(np.flatnonzero(dist[q] <= 3.0), sorted([p_star, q]))
    # r >= side: q ball plus the 2^d orthants of the target block origin
    covers = block_ball_cover(inst, p_star, q, 4.5, dist)
    assert covers[0] == ("elem", q)
    assert len(covers) == 1 + 2**inst.dim


def test_block_cover_point_case_includes_q_ball_only_when_inside():
    inst = gen_block_instance(4, 3, 2)
    space = inst.space_for(0)
    ids = np.arange(inst.n + 1)
    dist = np.array([space.distances(ids, int(u)) for u in ids])
    # small ball around a point: no q
    covers = block_ball_cover(inst, 0, 5, 1.5, dist)
    assert all(kind == "orthant" for kind, *_ in covers)
    assert len(covers) == 2**inst.dim
    # radius big enough to reach q (D(5, q) = side = 4)
    covers = block_ball_cover(inst, 0, 5, 4.0, dist)
    assert ("elem", inst.n) in [(c[0], c[1]) for c in covers if c[0] == "elem"]


def test_block_doubling_thousand_samples_all_instances():
    for s, t, d in [(2, 1, 1), (4, 3, 2), (3, 2, 3)]:
        inst = gen_block_instance(s, t, d)
        report = check_block_doubling(inst, p_star=0, samples=1000, seed=5)
        assert report.passed, (s, t, d, report.failures[:2])
        assert report.budget == 1 + 2**d
        assert report.max_centers <= report.budget


def test_grid_points_alone_cannot_cover_unit_radius_balls():
    # why the cover recipe uses ambient orthant midpoints: at radius just
    # above 1 an interior point's ball has up to 3^d members while every
    # half-radius ball around a data point is a singleton, so no within-
    # budget cover exists with data-point centers
    inst = gen_block_instance(4, 3, 2)
    space = inst.space_for(0)
    ids = np.arange(inst.n + 1)
    dist = np.array([space.distances(ids, int(u)) for u in ids])
    center = 5  # interior coordinates (1, 1): 3^2 = 9 points at L-inf <= 1
    r = 1.25
    ball = np.flatnonzero(dist[center] <= r)
    assert len(ball) == 9
    assert cover_with_half_balls(dist, center, r, budget=1 + 2**2) is None
    # the recipe's ambient cover handles the same ball within budget
    covers = block_ball_cover(inst, 0, center, r, dist)
    assert len(covers) <= 1 + 2**2


def test_cover_with_half_balls_small_cases():
    # 1-D block pair: radius-1 balls have 2 points, each half-ball is a
    # singleton; budget 3 = 1 + 2^1 suffices with set centers in d = 1
    inst = gen_block_instance(2, 1, 1)
    space = inst.space_for(0)
    ids = np.arange(inst.n + 1)
    dist = np.array([space.distances(ids, int(u)) for u in ids])
    centers = cover_with_half_balls(dist, 0, 1.0, budget=3)
    assert centers is not None and len(centers) <= 3
    # impossible budgets return None rather than lying
    assert cover_with_half_balls(dist, 0, 1.0, budget=1) is None
