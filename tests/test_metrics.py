"""Metric spaces: scalar/batch agreement, axioms, frozen distance tables."""

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
    brute_force_nn,
    cross_distances,
    estimate_extremes,
    gen_block_instance,
    pairwise_min_distance,
    verify_triangle,
)

coord = st.floats(-100.0, 100.0, allow_nan=False, width=64)


@given(st.lists(st.tuples(coord, coord), min_size=1, max_size=20), st.tuples(coord, coord))
def test_euclidean_batch_matches_scalar(rows, q):
    space = EuclideanSpace(2)
    pts = np.array(rows, dtype=np.float64)
    batch = space.distances(pts, np.array(q))
    for i, row in enumerate(pts):
        assert batch[i] == space.distance(row, np.array(q))


@given(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=20))
def test_linf_batch_matches_scalar(rows):
    space = EuclideanSpace(3, norm="linf")
    pts = np.array(rows, dtype=np.float64)
    q = pts[0]
    batch = space.distances(pts, q)
    for i, row in enumerate(pts):
        assert batch[i] == space.distance(row, q)
        assert batch[i] == np.abs(row - q).max()


def test_euclidean_rejects_bad_norm_and_dim():
    with pytest.raises(DomainError):
        EuclideanSpace(2, norm="l1")
    with pytest.raises(DomainError):
        EuclideanSpace(0)


# -- tree metric ------------------------------------------------------------


@given(st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1))
def test_tree_distance_is_two_to_lca_height(a, b):
    space = TreeMetricSpace(10)
    d = space.distance(a, b)
    if a == b:
        assert d == 0.0
    else:
        assert d == float(2 ** (a ^ b).bit_length())


@given(st.integers(0, 2**8 - 1), st.integers(0, 2**8 - 1))
def test_tree_distance_matches_path_weight_oracle(a, b):
    # independent route: sum of edge weights 2^(l-1) up to the meet level
    space = TreeMetricSpace(8)
    assert space.distance(a, b) == space.path_weight_distance(a, b)


def test_tree_distance_table_small():
    space = TreeMetricSpace(3)
    leaves = np.arange(8)
    row0 = space.distances(leaves, 0)
    assert row0.tolist() == [0.0, 2.0, 4.0, 4.0, 8.0, 8.0, 8.0, 8.0]


def test_tree_metric_is_ultrametric():
    space = TreeMetricSpace(5)
    leaves = np.arange(32)
    d = np.array([space.distances(leaves, int(a)) for a in leaves])
    lhs = d[:, :, None]
    rhs = np.maximum(d[:, None, :], d[None, :, :])
    assert (lhs <= rhs).all()


def test_tree_rejects_out_of_range_leaf():
    space = TreeMetricSpace(4)
    with pytest.raises(DomainError):
        space.distance(0, 16)
    with pytest.raises(DomainError):
        space.distance(-1, 0)
    # the batch path checks every element, not only the query leaf
    with pytest.raises(DomainError, match="leaf id 99"):
        space.distances([0, 99], 1)
    with pytest.raises(DomainError, match="leaf id -1"):
        space.distances(np.array([-1, 2]), 1)


def test_tree_distances_reject_non_integer_leaf():
    # the batch path must not truncate 2.5 to leaf 2, which the scalar
    # path rejects
    space = TreeMetricSpace(3)
    with pytest.raises(DomainError):
        space.distance(2.5, 1)
    for bad in ([2.5], np.array([0.0, 2.5]), [float("nan")], [float("inf")]):
        with pytest.raises(DomainError):
            space.distances(bad, 1)
    # integral floats name leaves, as in the scalar path
    assert space.distances(np.array([2.0, 1.0]), 1).tolist() == [
        space.distance(2, 1),
        space.distance(1, 1),
    ]


# -- block metric -----------------------------------------------------------


def test_block_distance_five_cases():
    inst = gen_block_instance(4, 3, 2)
    space = inst.space_for(5)  # p_star = 5, first block
    q = inst.n
    # within the point set: plain L-infinity
    assert space.distance(0, 5) == np.abs(inst.coords[0] - inst.coords[5]).max()
    # query to p_star is side - 1
    assert space.distance(q, 5) == 3.0
    # query to another point of p_star's block is side
    assert space.distance(q, 0) == 4.0
    # query to a point w outside p_star's block: L-infinity from w to the
    # origin of p_star's own block
    w = 17  # lives in block 1
    w_star_coord = np.array([inst.block_origins[0], 0])
    assert space.distance(q, w) == np.abs(inst.coords[w] - w_star_coord).max()
    assert space.distance(q, q) == 0.0


def test_block_distance_symmetric_and_batch():
    inst = gen_block_instance(3, 2, 2)
    space = inst.space_for(7)
    ids = np.arange(inst.n + 1)
    d = np.array([space.distances(ids, int(a)) for a in ids])
    assert (d == d.T).all()
    assert (np.diag(d) == 0.0).all()
    for a in (0, 7, inst.n):
        assert d[a, 3] == space.distance(a, 3)


def test_block_triangle_exhaustive_all_pstars():
    inst = gen_block_instance(2, 2, 2)
    ids = PointSet(np.arange(inst.n))
    for p_star in range(inst.n):
        space = inst.space_for(p_star)
        witness = verify_triangle(space, ids, extra=inst.n)
        assert witness is None, (p_star, witness)


def test_block_space_rejects_bad_ids():
    inst = gen_block_instance(2, 1, 2)
    space = inst.space_for(0)
    with pytest.raises(DomainError):
        space.distance(0, inst.n + 1)


# -- scaled space -----------------------------------------------------------


def test_scaled_space_scales_everything():
    base = EuclideanSpace(2)
    scaled = ScaledSpace(base, 3.0)
    a = np.array([0.0, 0.0])
    b = np.array([1.0, 1.0])
    assert scaled.distance(a, b) == 3.0 * base.distance(a, b)
    rows = np.array([a, b])
    assert (scaled.distances(rows, a) == 3.0 * base.distances(rows, a)).all()


# -- point sets and helpers ---------------------------------------------------


def test_pointset_rejects_duplicates_and_locks():
    with pytest.raises(DomainError):
        PointSet(np.array([[0.0], [0.0]]))
    pts = PointSet(np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError):
        pts.points[0, 0] = 5.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pointset_rejects_non_finite_coordinates(bad):
    coords = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]])
    coords[1, 1] = bad
    with pytest.raises(DomainError, match="point 1 has a non-finite coordinate"):
        PointSet(coords)


def test_pointset_abstract_flag():
    # 2-D arrays are coordinates, 1-D arrays are element ids
    assert PointSet(np.arange(4)[:, None]).is_abstract is False
    assert PointSet(np.arange(4)).is_abstract is True
    assert PointSet(np.arange(4)).dim == 0


def test_brute_force_nn_returns_first_minimum():
    space = EuclideanSpace(1)
    pts = PointSet(np.array([[0.0], [2.0], [-2.0]]))
    idx, dist = brute_force_nn(space, pts, np.array([1.0]))
    assert (idx, dist) == (0, 1.0)
    idx, dist = brute_force_nn(space, pts, np.array([1.0 + 1e-12]))
    assert idx == 1


@given(st.integers(0, 2**31 - 1), st.integers(3, 24))
@settings(max_examples=25, deadline=None)
def test_pairwise_min_distance_matches_loop(seed, n):
    rng = np.random.default_rng(seed)
    pts = PointSet(rng.random((n, 2)))
    space = EuclideanSpace(2)
    best = min(
        space.distance(pts.points[i], pts.points[j])
        for i in range(n)
        for j in range(i + 1, n)
    )
    assert pairwise_min_distance(space, pts) == best


def test_cross_distances_shape_and_values():
    space = EuclideanSpace(2)
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[0.0, 1.0], [3.0, 4.0], [1.0, 1.0]])
    d = cross_distances(space, a, b)
    assert d.shape == (2, 3)
    assert d[0, 1] == 5.0
    assert d[1, 2] == 1.0


def test_estimate_extremes_brackets_truth():
    rng = np.random.default_rng(4)
    pts = PointSet(rng.random((80, 2)))
    space = EuclideanSpace(2)
    est = estimate_extremes(space, pts)
    true_min = pairwise_min_distance(space, pts)
    d = cross_distances(space, pts.points, pts.points)
    true_max = float(d.max())
    # documented 2-approximation intervals: never above the true min, never
    # below the true max
    assert true_min / 2 <= est.min_distance <= true_min
    assert true_max <= est.max_distance <= 2 * true_max
    assert est.aspect_ratio == est.max_distance / est.min_distance


def test_verify_triangle_flags_planted_violation():
    class Broken(EuclideanSpace):
        def distance(self, a, b):
            d = super().distance(a, b)
            return d * 10.0 if d > 1.4 else d

        def distances(self, elements, x):
            d = super().distances(elements, x)
            return np.where(d > 1.4, d * 10.0, d)

    pts = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    witness = verify_triangle(Broken(2), pts)
    assert witness is not None
    assert witness.d_ab > witness.d_a_via + witness.d_via_b
