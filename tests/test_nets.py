"""Greedy r-nets and the level hierarchy: invariants plus a hand-checked set."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navgraph import (
    DomainError,
    EuclideanSpace,
    PointSet,
    TreeMetricSpace,
    build_net_hierarchy,
    greedy_r_net,
    normalize,
    verify_r_net,
)
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


@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 30),
    st.sampled_from(["l2", "linf", "tree"]),
    st.integers(1, 3),
    st.sampled_from([0.5, 1.0, 2.0, 3.0, 8.0, 0.3]),
)
@settings(max_examples=60, deadline=None)
def test_linear_sweep_equals_the_literal_double_loop(seed, n, kind, d, radius):
    # the sweep's rule with a scalar distance per (point, accepted) pair
    from navgraph.nets import _greedy_r_net_linear

    rng = np.random.default_rng(seed)
    if kind == "tree":
        space = TreeMetricSpace(6)
        pts = PointSet(rng.choice(64, size=min(n, 64), replace=False))
    else:
        space = EuclideanSpace(d, norm=kind)
        pts = PointSet(np.unique(rng.integers(-4, 5, size=(n, d)) / 2.0, axis=0))
    accepted = []
    for i in range(pts.n):
        if all(space.distance(pts.points[j], pts.points[i]) >= radius for j in accepted):
            accepted.append(i)
    got = _greedy_r_net_linear(space, pts, radius)
    assert got.dtype == np.int64
    assert got.tolist() == accepted


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


def test_hierarchy_requires_normalized_min_distance():
    space = EuclideanSpace(1)
    with pytest.raises(DomainError):
        build_net_hierarchy(space, PointSet(np.array([[0.0], [1.0]])))


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
    from navgraph.nets import _greedy_r_net_grid, _greedy_r_net_linear

    space = EuclideanSpace(d, norm=norm)
    pts = _lattice(d, side, seed=d)
    for radius in (0.5, 1.0, 2.0, 4.0, 8.0, 64.0):
        got = _greedy_r_net_grid(space, pts, radius)
        assert np.array_equal(got, _greedy_r_net_linear(space, pts, radius)), radius


@pytest.mark.parametrize("norm", ["l2", "linf"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_grid_hierarchy_equals_linear_sweep(norm, d):
    from navgraph.nets import _greedy_r_net_linear

    space = EuclideanSpace(d, norm=norm)
    raw = uniform_points(600, d, seed=10 + d).points - 0.5  # negative coordinates
    inputs = [PointSet(raw)] + ([_planted_pair(1000, 311)] if d == 2 else [])
    for pts in inputs:
        norm_in = normalize(space, pts)
        h = build_net_hierarchy(norm_in.space, norm_in.points)
        for level in range(1, h.top_level + 1):
            want = _greedy_r_net_linear(norm_in.space, norm_in.points, 2.0**level)
            assert np.array_equal(h.members(level), want), level


def test_grid_net_block_and_chunk_boundaries(monkeypatch):
    # several blocks per sweep and several chunks per neighbour lookup
    from navgraph import _grid, nets

    monkeypatch.setattr(nets, "NET_BLOCK", 7)
    monkeypatch.setattr(_grid, "CHUNK_PAIRS", 5)
    space = EuclideanSpace(2)
    pts = _lattice(2, 6, seed=4)
    for radius in (1.0, 2.0, 4.0):
        want = nets._greedy_r_net_linear(space, pts, radius)
        assert np.array_equal(nets._greedy_r_net_grid(space, pts, radius), want)


@given(
    st.integers(0, 2**31 - 1),
    st.integers(2, 120),
    st.integers(1, 4),
    st.sampled_from(["l2", "linf"]),
    st.integers(-3, 3),
)
@settings(max_examples=40, deadline=None)
def test_grid_net_equals_linear_sweep_property(seed, n, d, norm, exponent):
    from navgraph.nets import _greedy_r_net_grid, _greedy_r_net_linear

    rng = np.random.default_rng(seed)
    # coarse integer coordinates put many points on cell boundaries and at
    # distance exactly r; the scale keeps them exact
    pts = np.unique(rng.integers(-6, 7, size=(n, d)), axis=0) * 0.5
    pts = PointSet(pts[rng.permutation(len(pts))])
    space = EuclideanSpace(d, norm=norm)
    radius = 2.0**exponent
    assert np.array_equal(
        _greedy_r_net_grid(space, pts, radius), _greedy_r_net_linear(space, pts, radius)
    )


def test_grid_net_falls_back_where_cells_overflow():
    # cell indices of 2^70 at radius 1 do not fit in int64: the linear sweep runs
    from navgraph.nets import _greedy_r_net_linear

    space = EuclideanSpace(1)
    pts = PointSet(np.array([[0.0], [2.0**70], [2.0**70 + 2.0**18], [1.0]]))
    assert greedy_r_net(space, pts, 1.0).tolist() == [0, 1, 2, 3]
    assert np.array_equal(greedy_r_net(space, pts, 4.0), _greedy_r_net_linear(space, pts, 4.0))
