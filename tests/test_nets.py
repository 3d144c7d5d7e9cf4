"""Greedy r-nets and the level hierarchy: invariants plus a hand-checked set."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navgraph import (
    BlockMetricSpace,
    DomainError,
    EuclideanSpace,
    PointSet,
    ScaledSpace,
    TreeMetricSpace,
    build_net_hierarchy,
    cross_distances,
    greedy_r_net,
    normalize,
    pairwise_min_distance,
    verify_r_net,
)
from navgraph._util import ceil_log2
from conftest import uniform_points


@given(st.integers(0, 2**31 - 1), st.integers(2, 40), st.floats(0.05, 1.5))
@settings(max_examples=40, deadline=None)
def test_greedy_net_is_verified_net(seed, n, radius):
    space = EuclideanSpace(2)
    pts = uniform_points(n, 2, seed)
    members = greedy_r_net(space, pts, radius)
    assert verify_r_net(space, pts, radius, members) is None
    # index-order greediness: point 0 always enters
    assert members[0] == 0


@given(st.integers(0, 2**31 - 1), st.integers(2, 30), st.floats(0.05, 1.5))
@settings(max_examples=30, deadline=None)
def test_net_invariants_by_direct_loop(seed, n, radius):
    # independent oracle: quantifier evaluation straight from the definition
    space = EuclideanSpace(2)
    pts = uniform_points(n, 2, seed)
    members = set(int(m) for m in greedy_r_net(space, pts, radius))
    for a in members:
        for b in members:
            if a != b:
                assert space.distance(pts.points[a], pts.points[b]) >= radius
    for i in range(n):
        assert any(
            space.distance(pts.points[i], pts.points[m]) <= radius for m in members
        )


def _literal_net(space, pts, radius):
    """The sweep's rule with a scalar distance per (point, accepted) pair."""
    accepted = []
    for i in range(pts.n):
        if all(space.distance(pts.points[j], pts.points[i]) >= radius for j in accepted):
            accepted.append(i)
    return accepted


@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 30),
    st.sampled_from(["l2", "linf", "tree"]),
    st.integers(1, 3),
    st.lists(
        st.one_of(
            st.sampled_from([0.5, 1.0, 2.0, 4.0, 8.0]),
            st.floats(0.05, 10.0, allow_nan=False),
        ),
        min_size=1,
        max_size=5,
    ),
)
@settings(max_examples=60, deadline=None)
def test_linear_sweep_equals_the_literal_double_loop(seed, n, kind, d, radii):
    # every radius of one sweep gets the net the literal loop gives it alone
    from navgraph.nets import _greedy_sweep

    rng = np.random.default_rng(seed)
    if kind == "tree":
        space = TreeMetricSpace(6)
        pts = PointSet(rng.choice(64, size=min(n, 64), replace=False))
    else:
        space = EuclideanSpace(d, norm=kind)
        pts = PointSet(np.unique(rng.integers(-4, 5, size=(n, d)) / 2.0, axis=0))
    nets, _ = _greedy_sweep(space, pts, radii)
    assert len(nets) == len(radii)
    for radius, got in zip(radii, nets):
        assert got.dtype == np.int64
        assert got.tolist() == _literal_net(space, pts, radius), radius
    single = greedy_r_net(space, pts, radii[0])
    assert single.dtype == np.int64 and np.array_equal(single, nets[0])


def _abstract_inputs():
    rng = np.random.default_rng(5)
    for seed in range(6):
        height = 4 + seed
        leaves = rng.choice(2**height, size=min(3 + 5 * seed, 2**height), replace=False)
        yield TreeMetricSpace(height), PointSet(leaves)
        coords = np.unique(rng.integers(0, 12, size=(4 + 4 * seed, 2)), axis=0)
        yield BlockMetricSpace(coords, 3, 0), PointSet(np.arange(len(coords)))
    for d, kind in [(1, "l2"), (2, "linf"), (2, "l2"), (3, "linf")]:
        # at most 3^(d+1) points: every level skips the grid
        yield EuclideanSpace(d, kind), uniform_points(3 ** (d + 1), d, seed=d)


def _anchor_bound(space, pts):
    """Twice the farthest distance from point 0: in [d_max, 2 d_max]."""
    return 2.0 * float(space.distances(pts.points, pts.points[0]).max())


@pytest.mark.parametrize("case", range(16))
def test_swept_hierarchy_matches_its_definition(case):
    space, pts = list(_abstract_inputs())[case]
    norm = normalize(space, pts)
    h = build_net_hierarchy(norm.space, norm.points)
    dmax = _anchor_bound(norm.space, norm.points)
    least = pairwise_min_distance(norm.space, norm.points)
    assert h.aspect_ratio == dmax / (least / 2.0)
    assert h.top_level == ceil_log2(dmax)
    assert h.members(0).tolist() == list(range(pts.n))
    for level in range(1, h.top_level + 1):
        got = h.members(level)
        assert got.dtype == np.int64
        assert got.tolist() == _literal_net(norm.space, norm.points, 2.0**level), level


@pytest.mark.parametrize(
    "case",
    [
        ([0, 2, 4], 1.0, None),  # minimum 4
        ([0, 4, 8, 16], 1.0, None),  # minimum 8
        ([0, 1, 2, 4, 7], 0.5, None),  # minimum 1
        ([[0, 0], [0, 0]], 1.0, "degenerate point set: zero minimum distance"),
        ([[0, 0], [5, 0], [5, 0]], 1.0, "degenerate point set: zero minimum distance"),
    ],
)
def test_swept_hierarchy_rejects_unnormalised_input(case):
    # trees whose minimum is not 2, and blocks sharing a coordinate row
    ids, factor, message = case
    if message is None:
        space, pts = ScaledSpace(TreeMetricSpace(5), factor), PointSet(np.array(ids))
        least = pairwise_min_distance(space, pts)
        message = f"point set is not normalized: min distance {least}, expected 2"
    else:
        space, pts = BlockMetricSpace(np.array(ids), 3, 0), PointSet(np.arange(len(ids)))
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        build_net_hierarchy(space, pts)


class _CountingTree(TreeMetricSpace):
    calls = rows = 0

    def distances(self, elements, x):
        out = super().distances(elements, x)
        self.calls += 1
        self.rows += len(out)
        return out


def test_hierarchy_distance_counts_by_hand():
    # leaves 0, 1, 2, 4, 7 of a height-3 tree: pairs at 2 (0-1), 4 (0-2,
    # 1-2, 4-7) and 8 (the other six); the anchor row peaks at 8, so the
    # levels run to ceil(log2(16)) = 4
    space = _CountingTree(3)
    norm = normalize(space, PointSet(np.array([0, 1, 2, 4, 7])))
    assert (space.calls, space.rows) == (5, 25)  # the pairwise minimum
    h = build_net_hierarchy(norm.space, norm.points)
    # the anchor row, then points 1..4 each against every earlier point:
    # the radius-2 net keeps all five
    assert (space.calls, space.rows) == (5 + 1 + 4, 25 + 5 + 10)
    assert [len(net.members) for net in h.levels] == [5, 5, 4, 2, 1]


def test_hierarchy_measures_each_pair_once():
    n = 256
    rng = np.random.default_rng(1)
    leaves = np.arange(n) * 64 + rng.integers(0, 64, size=n)  # one per subtree
    space = _CountingTree(14)
    norm = normalize(space, PointSet(leaves))
    before = space.rows
    build_net_hierarchy(norm.space, norm.points)
    assert space.rows - before == n + n * (n - 1) // 2


def test_verify_r_net_flags_planted_violations():
    space = EuclideanSpace(1)
    pts = PointSet(np.array([[0.0], [1.0], [5.0]]))
    sep = verify_r_net(space, pts, 2.0, np.array([0, 1]))
    assert sep is not None and sep.kind == "separation"
    cov = verify_r_net(space, pts, 2.0, np.array([0]))
    assert cov is not None and cov.kind == "covering" and cov.index_b == 2


def test_net_rejects_nonpositive_radius():
    with pytest.raises(DomainError):
        greedy_r_net(EuclideanSpace(1), PointSet(np.array([[0.0], [2.0]])), 0.0)


def test_hierarchy_on_hand_checked_line(line_points):
    # points 0, 2, 4, 8 on a line: min distance 2, diameter 8
    space = EuclideanSpace(1)
    h = build_net_hierarchy(space, line_points)
    # level 0 keeps everything
    assert h.members(0).tolist() == [0, 1, 2, 3]
    # radius 2: point 1 (=2.0) is at distance 2 from 0, so it stays;
    # the greedy sweep keeps all four (gaps are exactly 2, 2, 4)
    assert h.members(1).tolist() == [0, 1, 2, 3]
    # radius 4: 2.0 dropped (distance 2 < 4), 4.0 kept, 8.0 kept
    assert h.members(2).tolist() == [0, 2, 3]
    for level in range(h.top_level + 1):
        radius = 2.0**level
        assert verify_r_net(space, line_points, radius, h.members(level)) is None
    # the coarsest net is a single point
    assert len(h.members(h.top_level)) == 1


def test_hierarchy_measures_the_normalised_minimum_itself():
    # normalize's minimum, scaled, is not the scaled points' minimum in the
    # last bits, and the aspect ratio (tau, the jackpot draws) reads the
    # latter, so the hierarchy cannot take the former instead
    space, pts = EuclideanSpace(2), uniform_points(200, 2, 0)
    norm = normalize(space, pts)
    scaled = norm.scale * pairwise_min_distance(space, pts)
    least = pairwise_min_distance(norm.space, norm.points)
    assert least != scaled and least != 2.0
    h = build_net_hierarchy(norm.space, norm.points)
    assert h.aspect_ratio == _anchor_bound(norm.space, norm.points) / (least / 2.0)


@pytest.mark.parametrize(
    "space,pts",
    [
        (EuclideanSpace(2), uniform_points(80, 2, 4)),
        (EuclideanSpace(3, "linf"), uniform_points(60, 3, 9)),
        (TreeMetricSpace(8), PointSet(np.random.default_rng(2).choice(256, 40, replace=False))),
    ],
    ids=["l2", "linf", "tree"],
)
def test_hierarchy_aspect_ratio_brackets_truth(space, pts):
    # twice the anchor's farthest distance over half the exact minimum lies
    # in [2, 4] times the true d_max / d_min
    norm = normalize(space, pts)
    h = build_net_hierarchy(norm.space, norm.points)
    d = cross_distances(norm.space, norm.points.points, norm.points.points)
    true_max = float(d.max())
    np.fill_diagonal(d, np.inf)
    true_aspect = true_max / float(d.min())
    assert 2.0 * true_aspect <= h.aspect_ratio <= 4.0 * true_aspect


def test_hierarchy_requires_normalized_min_distance():
    window = (
        f"outside the range window: coordinate magnitude {2.0**501:.3g} exceeds "
        "2^500, where squared distances overflow"
    )
    cases = [
        ([0.0, 1.0], "point set is not normalized: min distance 1.0, expected 2"),
        ([0.0, 4.0, 12.0], "point set is not normalized: min distance 4.0, expected 2"),
        ([0.0, 1.0, 2.0**501], window),  # the window comes before the minimum
    ]
    for coords, message in cases:
        pts = PointSet(np.array(coords)[:, None])
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            build_net_hierarchy(EuclideanSpace(1), pts)


@given(st.integers(0, 2**31 - 1), st.integers(2, 50))
@settings(max_examples=25, deadline=None)
def test_hierarchy_levels_nest_and_shrink(seed, n):
    space = EuclideanSpace(2)
    norm = normalize(space, uniform_points(n, 2, seed))
    h = build_net_hierarchy(norm.space, norm.points)
    assert h.members(0).tolist() == list(range(n))
    sizes = [len(h.members(i)) for i in range(h.top_level + 1)]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] == 1
    for level in range(h.top_level + 1):
        v = verify_r_net(norm.space, norm.points, 2.0**level, h.members(level))
        assert v is None, (level, v)


def _lattice(d, side, seed):
    """Shuffled integer lattice [-side, side]^d: exact distances, boundary points."""
    axes = [np.arange(-side, side + 1, dtype=np.float64)] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    return PointSet(grid[np.random.default_rng(seed).permutation(len(grid))])


def _planted_pair(n, seed):
    pts = np.random.default_rng(seed).random((n, 2))
    pts[0], pts[1] = (0.0, 0.0), (2.0**-14, 0.0)
    return PointSet(pts)


@pytest.mark.parametrize("norm", ["l2", "linf"])
@pytest.mark.parametrize("d,side", [(1, 40), (2, 9), (3, 4), (4, 3)])
def test_grid_net_equals_linear_sweep_on_lattices(norm, d, side):
    from navgraph.nets import _grid_sweep

    space = EuclideanSpace(d, norm=norm)
    pts = _lattice(d, side, seed=d)
    radii = (0.5, 1.0, 2.0, 4.0, 8.0, 64.0)
    for radius, got in zip(radii, _grid_sweep(space, pts, radii)):
        assert np.array_equal(got, greedy_r_net(space, pts, radius)), radius


@pytest.mark.parametrize("norm", ["l2", "linf"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_grid_hierarchy_equals_linear_sweep(norm, d):
    space = EuclideanSpace(d, norm=norm)
    raw = uniform_points(600, d, seed=10 + d).points - 0.5  # negative coordinates
    inputs = [PointSet(raw)] + ([_planted_pair(1000, 311)] if d == 2 else [])
    for pts in inputs:
        norm_in = normalize(space, pts)
        h = build_net_hierarchy(norm_in.space, norm_in.points)
        for level in range(1, h.top_level + 1):
            want = greedy_r_net(norm_in.space, norm_in.points, 2.0**level)
            assert np.array_equal(h.members(level), want), level


def _sweep_inputs(d):
    """A sorted line, a shuffled lattice with points on cell boundaries, and clusters."""
    rng = np.random.default_rng(40 + d)
    line = np.zeros((300, d))
    line[:, 0] = np.arange(300.0) * 2.0
    lattice = _lattice(d, {1: 150, 2: 8, 3: 3, 4: 2}[d], seed=d).points * 2.0
    centres = rng.random((5, d)) * 200.0
    clusters = centres[rng.integers(0, 5, 300)] + rng.normal(scale=3.0, size=(300, d))
    return {"line": line, "lattice": lattice, "clusters": clusters}


@pytest.mark.parametrize("kind", ["line", "lattice", "clusters"])
@pytest.mark.parametrize("norm", ["l2", "linf"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_grid_sweep_equals_linear_sweep_per_level(d, norm, kind):
    # the all-level sweep on normalised input, every level against the
    # single-radius linear sweep
    from navgraph.nets import _grid_sweep

    space = EuclideanSpace(d, norm=norm)
    norm_in = normalize(space, PointSet(_sweep_inputs(d)[kind]))
    h = build_net_hierarchy(norm_in.space, norm_in.points)
    radii = [2.0**level for level in range(1, h.top_level + 1)]
    swept = _grid_sweep(norm_in.space, norm_in.points, radii)
    for level, (radius, got) in enumerate(zip(radii, swept), start=1):
        want = greedy_r_net(norm_in.space, norm_in.points, radius)
        assert np.array_equal(got, want), level
        assert np.array_equal(h.members(level), want), level


def test_grid_net_block_and_chunk_boundaries(monkeypatch):
    # several growing blocks per sweep and several chunks per neighbour lookup
    from navgraph import _grid, nets

    monkeypatch.setattr(nets, "FIRST_BLOCK", 3)
    monkeypatch.setattr(nets, "NET_BLOCK", 7)
    monkeypatch.setattr(_grid, "CHUNK_PAIRS", 5)
    space = EuclideanSpace(2)
    pts = _lattice(2, 6, seed=4)
    radii = (1.0, 2.0, 4.0)
    for radius, got in zip(radii, nets._grid_sweep(space, pts, radii)):
        assert np.array_equal(got, nets.greedy_r_net(space, pts, radius)), radius


@given(
    st.integers(0, 2**31 - 1),
    st.integers(2, 120),
    st.integers(1, 4),
    st.sampled_from(["l2", "linf"]),
    st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True),
)
@settings(max_examples=40, deadline=None)
def test_grid_net_equals_linear_sweep_property(seed, n, d, norm, exponents):
    from navgraph.nets import _grid_sweep

    rng = np.random.default_rng(seed)
    # coarse integer coordinates put many points on cell boundaries and at
    # distance exactly r; the scale keeps them exact
    pts = np.unique(rng.integers(-6, 7, size=(n, d)), axis=0) * 0.5
    pts = PointSet(pts[rng.permutation(len(pts))])
    space = EuclideanSpace(d, norm=norm)
    radii = [2.0**e for e in exponents]
    for radius, got in zip(radii, _grid_sweep(space, pts, radii)):
        assert np.array_equal(got, greedy_r_net(space, pts, radius)), radius


def test_grid_net_falls_back_where_cells_overflow():
    # 2^70 / r fits the grid's cell indices only above r = 2^9, so the
    # hierarchy sweeps radii 2^1 .. 2^9 linearly and the rest on the grid
    from navgraph.nets import _on_grid

    space = EuclideanSpace(1)
    pts = PointSet(np.array([[2.0 * i] for i in range(10)] + [[2.0**70]]))
    h = build_net_hierarchy(space, pts)
    assert h.top_level == 71
    grid = [level for level in range(1, 72) if _on_grid(space, pts, 2.0**level)]
    assert grid == list(range(10, 72))
    for level in range(h.top_level + 1):
        want = greedy_r_net(space, pts, 2.0**level)
        assert np.array_equal(h.members(level), want), level
