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


@settings(max_examples=200)
@given(st.data())
def test_tree_batch_scalar_and_path_weight_agree_bitwise(data):
    height = data.draw(st.integers(1, 63))
    leaf = st.integers(0, 2**height - 1)
    ids = data.draw(st.lists(leaf, max_size=40))
    x = data.draw(leaf)
    space = TreeMetricSpace(height)
    batch = space.distances(np.array(ids, dtype=np.int64), x)
    scalar = np.array([space.distance(a, x) for a in ids], dtype=np.float64)
    oracle = np.array([space.path_weight_distance(a, x) for a in ids], dtype=np.float64)
    assert batch.dtype == np.float64
    assert batch.tobytes() == scalar.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("height", [52, 53, 62, 63])
def test_tree_batch_is_exact_past_float_precision(height):
    # xors at or above 2**53 round to floats that can carry them up to the
    # next power of two; the bit length must still be exact
    top = 2**height - 1
    ids = {0, 1, top - 1, top, 2 ** (height - 1) - 1, 2 ** (height - 1)}
    ids |= {v for v in (2**53 - 1, 2**53, 2**53 + 1, 2**54 - 1) if v <= top}
    ids = np.array(sorted(ids), dtype=np.int64)
    space = TreeMetricSpace(height)
    for x in ids.tolist():
        batch = space.distances(ids, x)
        assert batch.tolist() == [space.distance(a, x) for a in ids.tolist()]
    assert space.distances(np.array([top]), 0)[0] == 2.0**height
    if height > 54:
        assert space.distances(np.array([2**54 - 1]), 0)[0] == 2.0**54


def test_tree_height_is_capped_at_int64_ids():
    assert TreeMetricSpace(63).num_leaves == 2**63
    with pytest.raises(DomainError, match="tree height must be <= 63"):
        TreeMetricSpace(64)
    with pytest.raises(DomainError, match="tree height must be >= 1"):
        TreeMetricSpace(0)


@pytest.mark.parametrize(
    "ids, message",
    [
        ([0, -1], "leaf id -1 outside [0, 16)"),
        (np.array([3, 16]), "leaf id 16 outside [0, 16)"),
        (np.array([3, 2**40], dtype=np.int64), "leaf id 1099511627776 outside [0, 16)"),
        ([2.5], "leaf id 2.5 outside [0, 16)"),
        (np.array([99.0, 0.5]), "leaf id 0.5 outside [0, 16)"),
        (np.array([0.0, float("nan")]), "leaf id nan outside [0, 16)"),
        ([float("inf")], "leaf id inf outside [0, 16)"),
        ([float("-inf")], "leaf id -inf outside [0, 16)"),
        (np.array([16.0]), "leaf id 16 outside [0, 16)"),
        (np.array([-3.0]), "leaf id -3 outside [0, 16)"),
        (np.array([1, 2**64 - 1], dtype=np.uint64), "leaf id 18446744073709551615 outside [0, 16)"),
        (np.array([1, -2], dtype=np.int8), "leaf id -2 outside [0, 16)"),
    ],
)
def test_tree_batch_error_messages(ids, message):
    space = TreeMetricSpace(4)
    with pytest.raises(DomainError) as err:
        space.distances(ids, 1)
    assert str(err.value) == message


def test_tree_batch_accepts_any_integer_dtype():
    space = TreeMetricSpace(4)
    want = space.distances(np.array([0, 5, 15]), 3)
    for dtype in (np.uint8, np.int16, np.int32, np.uint64, np.float32, object):
        assert space.distances(np.array([0, 5, 15], dtype=dtype), 3).tobytes() == want.tobytes()
    assert space.distances([], 3).shape == (0,)


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


@pytest.mark.parametrize("args", [(3, 2, 2), (2, 1, 1)])
def test_block_batch_equals_scalar_for_every_pair(args):
    inst = gen_block_instance(*args)
    ids = np.arange(inst.n + 1)
    for p_star in range(inst.n):
        space = inst.space_for(p_star)
        for x in ids.tolist():
            batch = space.distances(ids, x)
            scalar = np.array([space.distance(a, x) for a in ids.tolist()])
            assert batch.tobytes() == scalar.tobytes(), (p_star, x)
            # any order, repeats and the query id mixed in
            picks = ids[::-1][[0, 2, 2, 1]]
            assert space.distances(picks, x).tolist() == scalar[picks].tolist()


@pytest.mark.parametrize("bad, shown", [("n+1", "5"), (-1, "-1"), (1.5, "1.5")])
def test_block_batch_rejects_bad_ids_with_the_scalar_message(bad, shown):
    inst = gen_block_instance(2, 1, 2)
    bad = inst.n + 1 if bad == "n+1" else bad
    space = inst.space_for(0)
    message = f"element id {shown} outside [0, {inst.n}]"
    for call in (
        lambda: space.distance(bad, 0),
        lambda: space.distances([0, bad], 0),
        lambda: space.distances(np.array([0, bad]), inst.n),
    ):
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == message


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


def _min_inputs():
    rng = np.random.default_rng(7)
    centres = rng.random((5, 2)) * 100.0
    clustered = centres[rng.integers(0, 5, 600)] + rng.normal(scale=1e-4, size=(600, 2))
    column = np.column_stack([np.full(500, 3.0), rng.random(500)])
    axes = np.arange(-8.0, 9.0)
    lattice = np.stack(np.meshgrid(axes, axes, indexing="ij"), axis=-1).reshape(-1, 2)
    return {
        "uniform": rng.random((800, 2)) - 0.5,
        "clustered": clustered,
        "same-x-column": column,
        "lattice": lattice[rng.permutation(len(lattice))],
        "uniform-3d": rng.random((500, 3)),
    }


@pytest.mark.parametrize("norm", ["l2", "linf"])
@pytest.mark.parametrize("kind", list(_min_inputs()))
def test_grid_min_distance_equals_blocked_scan(kind, norm):
    from navgraph.metrics import _min_distance_blocked

    pts = PointSet(_min_inputs()[kind])
    space = EuclideanSpace(pts.dim, norm=norm)
    assert pairwise_min_distance(space, pts) == _min_distance_blocked(space, pts)


def test_grid_min_distance_in_small_chunks(monkeypatch):
    # a loose bound on clustered input goes through many bounded chunks
    from navgraph import _grid
    from navgraph.metrics import _min_distance_blocked

    monkeypatch.setattr(_grid, "CHUNK_PAIRS", 64)
    space = EuclideanSpace(2)
    for kind in ("clustered", "same-x-column"):
        pts = PointSet(_min_inputs()[kind])
        assert pairwise_min_distance(space, pts) == _min_distance_blocked(space, pts)


@given(
    st.integers(0, 2**31 - 1),
    st.integers(2, 150),
    st.integers(1, 3),
    st.sampled_from(["l2", "linf"]),
    st.floats(-30, 30),
)
@settings(max_examples=40, deadline=None)
def test_grid_min_distance_property(seed, n, d, norm, log_scale):
    from navgraph.metrics import _min_distance_blocked

    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, d)) * 2.0**log_scale
    raw[: n // 3] = np.round(raw[: n // 3])  # ties and exact lattice gaps
    pts = PointSet(np.unique(raw, axis=0))
    if pts.n < 2:
        return
    space = EuclideanSpace(d, norm=norm)
    assert pairwise_min_distance(space, pts) == _min_distance_blocked(space, pts)


@pytest.mark.parametrize(
    "coords,problem",
    [
        ([[1e300, 0.0], [0.0, 1e300], [1e300, 1e300]], "exceeds 2^500"),
        ([[1e200, 2e200], [3e200, 1e200], [0.0, 0.0]], "exceeds 2^500"),
        ([[0.0, 0.0], [1e-300, 0.0], [1.0, 1.0]], "below 2^-500"),
    ],
    ids=["coords-1e300", "coords-1e200", "gap-1e-300"],
)
def test_range_window_rejects_with_named_error(coords, problem):
    space = EuclideanSpace(2)
    with pytest.raises(DomainError, match="range window") as err:
        pairwise_min_distance(space, PointSet(np.array(coords)))
    assert problem in str(err.value)


def test_range_window_admits_its_edges():
    space = EuclideanSpace(2)
    big = PointSet(np.array([[2.0**500, 0.0], [0.0, 2.0**500]]))
    assert pairwise_min_distance(space, big) == space.distance(*big.points)
    tiny = PointSet(np.array([[0.0, 0.0], [2.0**-500, 0.0]]))
    assert pairwise_min_distance(space, tiny) == 2.0**-500


def test_wide_spread_min_distance_falls_back_to_the_scan():
    """Cells of twice the minimum would overflow int64: the blocked scan answers."""
    from navgraph.metrics import _min_distance_blocked

    space = EuclideanSpace(2)
    pts = PointSet(np.array([[1e10, 0.0], [1e10, 1e-10], [0.0, 1.0], [-3e9, 2.0]]))
    assert pairwise_min_distance(space, pts) == _min_distance_blocked(space, pts)


def test_cross_distances_shape_and_values():
    space = EuclideanSpace(2)
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[0.0, 1.0], [3.0, 4.0], [1.0, 1.0]])
    d = cross_distances(space, a, b)
    assert d.shape == (2, 3)
    assert d[0, 1] == 5.0
    assert d[1, 2] == 1.0


#: Coordinates across the range window: magnitudes from 2^-500 to 2^500.
window_coord = st.builds(np.ldexp, st.floats(-1.999, 1.999), st.integers(-500, 499))


@given(st.integers(1, 7), st.sampled_from(["l2", "linf"]), st.data())
@settings(max_examples=60, deadline=None)
def test_cross_distances_broadcast_equals_the_rows(d, norm, data):
    space = EuclideanSpace(d, norm)
    point_lists = st.lists(st.lists(window_coord, min_size=d, max_size=d), min_size=1, max_size=6)
    a = np.array(data.draw(point_lists), dtype=np.float64)
    b = np.array(data.draw(point_lists), dtype=np.float64)
    rows = np.array([space.distances(b, x) for x in a])
    assert cross_distances(space, a, b).tobytes() == rows.tobytes()  # bit for bit


@given(st.integers(1, 7), st.sampled_from(["l2", "linf"]), st.data())
@settings(max_examples=100, deadline=None)
def test_norm_kernel_equals_the_reduction_formula(d, norm, data):
    # the per-axis fold against numpy's reductions over the last axis, bit
    # for bit below 8 lanes, on a row against rows, pairs of rows and the
    # (b, a, d) broadcast that cross_distances takes; coordinates of one
    # scale make squares of like size, whose sum the order of addition moves
    space = EuclideanSpace(d, norm)
    coord = window_coord | st.floats(-1.0, 1.0)
    point_lists = st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=9)
    a = np.array(data.draw(point_lists), dtype=np.float64)
    b = np.array(data.draw(point_lists), dtype=np.float64)

    def reduction(x, y):
        diff = x - y
        return np.sqrt((diff * diff).sum(-1)) if norm == "l2" else np.abs(diff).max(-1)

    pairs = [(a, b[0]), (b[None], a[:, None]), (a[: len(b)], b[: len(a)])]
    for x, y in pairs:
        want = reduction(x, y)
        got = space._pair_distances(x, y)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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
