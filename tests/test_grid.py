"""The shared cell index: run lookups, and cell numbers that wrap modulo 2^64."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from navgraph import (
    EuclideanSpace,
    PointSet,
    build_net_hierarchy,
    build_net_pg_fast,
    build_net_pg_naive,
    greedy_r_net,
    normalize,
    pairwise_min_distance,
    pg_params,
)
from navgraph._grid import cell_keys, neighbour_pairs
from navgraph.metrics import _min_distance_blocked
from navgraph.netpg import _reach
from navgraph.nets import _greedy_sweep, _grid_sweep

INT64_MIN = np.iinfo(np.int64).min


@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 60),
    st.integers(1, 3),
    st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0]), min_size=1, max_size=3, unique=True),
)
@settings(max_examples=40, deadline=None)
def test_runs_find_the_cells_around_each_query(seed, n, d, sides):
    # every side's rows against every side's: a pair iff the same side and
    # cell indices at most one apart on every axis
    rng = np.random.default_rng(seed)
    coords = rng.integers(-5, 6, size=(n, d)) * 0.5
    keys, shifts = cell_keys(coords, *sides)
    flat = keys.ravel()
    order = np.argsort(flat, kind="stable")
    got = sorted(
        (int(q), int(order[p]))
        for qs, ps in neighbour_pairs(flat[order], flat, shifts)
        for q, p in zip(qs, ps)
    )
    cells = np.concatenate([np.floor(coords / side) for side in sides])
    side = np.repeat(np.arange(len(sides)), n)
    near = (np.abs(cells[:, None] - cells[None]) <= 1).all(axis=2) & (side[:, None] == side)
    assert got == [tuple(pair) for pair in np.argwhere(near).tolist()]


def _straddling_pair(side, gap, width):
    """Points q, p at distance ``gap`` in neighbouring cells of ``side``, p's
    cell numbered 2^63, which wraps to -2^63, when the cells' box starts at
    cell (0, 0) and its last column holds x = ``width``.  So q's cell is
    2^63 - 1, and each one's run of three cells straddles the wrap."""
    span = int(width // side) + 3  # cells -1 .. width // side + 1
    iy, ix = divmod(2**63, span)
    assert 2 <= ix <= span - 2
    x, y = (ix - 1) * side + gap / 2, (iy - 0.5) * side
    return [(x - gap, y), (x, y)]


def _wrapping_points():
    """2D, two clusters 2^40 minimum distances apart, whose cell numbers wrap.

    A 6 x 6 lattice of spacing 3 at the origin, and far off a corner point
    and two straddling pairs: one at distance 2, the minimum, in cells of
    side 4 (the minimum's grid and the radius-4 net's), one at distance 3
    in cells of side 18, the net graph's ball radius at level 1 for
    eps = 1, where that pair's second point has its top level.
    """
    width, height = 2.0**41, 2.0**31
    axes = np.arange(6) * 3.0
    lattice = np.stack(np.meshgrid(axes, axes, indexing="ij"), axis=-1).reshape(-1, 2)
    far = _straddling_pair(4.0, 2.0, width) + _straddling_pair(18.0, 3.0, width)
    return np.array(list(lattice) + far + [(width, height)])


def test_wrapped_cell_numbers_lose_no_candidates():
    space = EuclideanSpace(2)
    pts = PointSet(_wrapping_points())
    for side in (4.0, 18.0):
        (keys,), _ = cell_keys(pts.points, side)
        assert INT64_MIN in keys  # a run straddles the wrap at this side
    # and in the edge build's numbering: one side per distinct reach
    h = build_net_hierarchy(space, pts)
    reach = _reach(h, pts.n, pg_params(1.0).reach_factor)
    keys, shifts = cell_keys(pts.points, *np.unique(reach[np.isfinite(reach)]))
    centres = keys.ravel()[:, None] + shifts
    assert (centres - 1 > centres + 1).any()  # the run's ends wrap apart
    assert pairwise_min_distance(space, pts) == _min_distance_blocked(space, pts) == 2.0
    norm = normalize(space, pts)
    assert norm.scale == 1.0
    assert np.array_equal(_grid_sweep(space, pts, [4.0])[0], greedy_r_net(space, pts, 4.0))
    radii = [2.0**level for level in range(1, h.top_level + 1)]
    for level, want in enumerate(_greedy_sweep(space, pts, radii)[0], start=1):
        assert np.array_equal(h.members(level), want), level
    assert build_net_pg_fast(space, pts, 1.0, hierarchy=h) == build_net_pg_naive(
        space, pts, 1.0, hierarchy=h
    )


def test_sides_sharing_one_box_decide_each_pair_once():
    # cells of the smallest reach, 18, span 2^32 on both axes, so each box
    # holds 2^64 numbers and every side's box starts at 0: a point's number
    # near the origin is the same at every side, so a pair there meets at
    # every side and is kept once
    axes = np.arange(6) * 2.0
    lattice = np.stack(np.meshgrid(axes, axes, indexing="ij"), axis=-1).reshape(-1, 2)
    far = 18.0 * (2**32 - 3) + 2
    pts = PointSet(np.vstack([lattice, [[far, 0.0], [0.0, far]]]))
    space = EuclideanSpace(2)
    h = build_net_hierarchy(space, pts)
    reach = _reach(h, pts.n, pg_params(1.0).reach_factor)
    sides = np.unique(reach[np.isfinite(reach)])
    keys, _ = cell_keys(pts.points, *sides)
    assert sides[0] == 18.0 and len(sides) > 2
    assert (keys[:, 0] == 1 + 2**32).all()  # the origin, cell (1, 1) in every box
    assert build_net_pg_fast(space, pts, 1.0, hierarchy=h) == build_net_pg_naive(
        space, pts, 1.0, hierarchy=h
    )
