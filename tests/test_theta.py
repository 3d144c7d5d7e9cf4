"""Cone families, theta-graph construction, and the closed-form inequalities."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navgraph import (
    DomainError,
    EuclideanSpace,
    PointSet,
    build_cone_family,
    build_theta_graph,
    build_theta_graph_brute,
    check_fact_chord_tan,
    check_fact_reach_margin,
    check_fact_tan_linear,
    check_navigable,
    cone_contains,
    nearest_point_on_ray,
    standard_query_set,
)
from navgraph.theta import _containing_cones
from conftest import normalized_instance, uniform_points


def test_sector_count_and_rays():
    fam = build_cone_family(2, 1.0 / 32.0)
    assert len(fam) == math.ceil(2.0 * math.pi * 32.0)  # 202 sectors
    assert len(fam) == 202
    # designated rays are unit and inside their own sector
    assert np.allclose(np.linalg.norm(fam.rays, axis=1), 1.0)
    for normals, ray in zip(fam.normals, fam.rays):
        assert (normals @ ray >= 0).all()


def test_every_direction_lands_in_some_cone_2d():
    fam = build_cone_family(2, 0.3)
    rng = np.random.default_rng(0)
    angles = rng.uniform(0, 2 * math.pi, size=500)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    # boundary directions too: exactly along each shared boundary ray
    k = len(fam)
    bd = 2.0 * math.pi * np.arange(k) / k
    dirs = np.vstack([dirs, np.stack([np.cos(bd), np.sin(bd)], axis=1)])
    pair, _ = _containing_cones(fam, dirs)
    assert np.bincount(pair, minlength=len(dirs)).all()


def test_every_direction_lands_in_some_cone_3d():
    fam = build_cone_family(3, 0.5)
    rng = np.random.default_rng(1)
    dirs = rng.normal(size=(800, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    pair, _ = _containing_cones(fam, np.vstack([dirs, poles]))
    assert np.bincount(pair, minlength=len(dirs) + 2).all()
    # angular diameter within theta: designated rays are inside, corners close
    for normals, ray in zip(fam.normals, fam.rays):
        assert (normals @ ray >= 0).all()


def test_cone_family_rejects_bad_arguments():
    with pytest.raises(DomainError):
        build_cone_family(4, 0.5)
    with pytest.raises(DomainError):
        build_cone_family(2, 0.0)
    with pytest.raises(DomainError):
        build_cone_family(2, 4.0)


@given(st.integers(0, 2**31 - 1), st.sampled_from([0.8, 0.4]))
@settings(max_examples=10, deadline=None)
def test_theta_graph_matches_brute_2d(seed, theta):
    pts = uniform_points(30, 2, seed)
    fast = build_theta_graph(pts, theta)
    brute = build_theta_graph_brute(pts, theta)
    assert fast == brute
    for a, b in zip(fast.meta["edge_cones"], brute.meta["edge_cones"]):
        assert np.array_equal(a, b)


def test_theta_graph_matches_brute_3d():
    pts = uniform_points(25, 3, 4)
    theta = 0.6
    assert build_theta_graph(pts, theta) == build_theta_graph_brute(pts, theta)


def lattice(side, d, scale=1.0):
    grid = itertools.product(range(side), repeat=d)
    return PointSet(np.array(list(grid), dtype=np.float64) * scale)


def assert_same_theta_graph(fast, brute):
    assert fast == brute
    for a, b in zip(fast.meta["edge_cones"], brute.meta["edge_cones"]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("scale", [1.0, 0.1])
@pytest.mark.parametrize("theta", [0.8, 0.4, math.pi / 8, 1.0 / 32.0])
def test_theta_graph_matches_brute_on_boundary_lattice_2d(theta, scale):
    # lattice directions along the axes, and at 8 or 16 sectors along the
    # diagonals, lie on sector boundaries and so in both neighbouring
    # sectors; at scale 0.1 the boundary dot products round to within an ulp
    # of zero, and the builder's closed tests must round as cone_contains
    pts = lattice(6, 2, scale)
    assert_same_theta_graph(
        build_theta_graph(pts, theta), build_theta_graph_brute(pts, theta)
    )


@pytest.mark.parametrize("z_stretch", [1.0, 4.0])
def test_theta_graph_matches_brute_on_boundary_lattice_3d(z_stretch):
    # x = y = 0 relative vectors sit on the pole, a corner of every cone of
    # the pole band; (x, 0, z) ones lie on the zero meridian.  Stretched
    # along z, pole-band cones also hold off-axis targets that the on-axis
    # one must beat in every cone of the band
    pts = lattice(3, 3, np.array([1.0, 1.0, z_stretch]))
    assert_same_theta_graph(
        build_theta_graph(pts, 0.6), build_theta_graph_brute(pts, 0.6)
    )


def test_theta_graph_out_degree_bounded_by_cone_count():
    pts = uniform_points(200, 2, 9)
    g = build_theta_graph(pts, 1.0 / 32.0)
    assert max(len(r) for r in g.out_edges) <= len(g.meta["family"])


def test_theta_graph_rejects_abstract_points():
    with pytest.raises(DomainError):
        build_theta_graph(PointSet(np.arange(5)), 0.5)


def wedge_family():
    # hand-rolled single cone spanning [0, 60] degrees with the +x axis as
    # its designated ray, for pinning down the projection rule by hand
    from navgraph import ConeFamily

    normals = np.array([[0.0, 1.0], [math.sin(math.pi / 3), -math.cos(math.pi / 3)]])
    ray = np.array([1.0, 0.0])
    return ConeFamily(dimension=2, theta=2.0, normals=normals[None], rays=ray[None])


def test_projection_tie_breaks_to_smallest_index():
    # the wedge's ray is exactly +x, so projections are exact x-coordinates;
    # (2.0, 1.0) and (2.0, 0.5) tie and the smaller index must win
    fam = wedge_family()
    pts = PointSet(np.array([[0.0, 0.0], [2.0, 1.0], [2.0, 0.5]]))
    assert cone_contains(fam, 0, pts.points[0], pts.points[1])
    assert cone_contains(fam, 0, pts.points[0], pts.points[2])
    assert nearest_point_on_ray(pts, 0, fam, 0) == 1
    # swapping indices flips the answer with it
    pts2 = PointSet(np.array([[0.0, 0.0], [2.0, 0.5], [2.0, 1.0]]))
    assert nearest_point_on_ray(pts2, 0, fam, 0) == 1


def test_projection_winner_hand_checked():
    fam = wedge_family()
    apex = np.array([0.0, 0.0])
    pts = PointSet(np.array([apex, [1.0, 0.9], [1.4, 0.0]]))
    assert cone_contains(fam, 0, apex, pts.points[1])
    assert cone_contains(fam, 0, apex, pts.points[2])
    # projections onto +x are 1.0 vs 1.4, so index 1 wins
    assert nearest_point_on_ray(pts, 0, fam, 0) == 1


def test_projection_beats_l2_on_crafted_pair():
    # the chosen edge minimizes projection length, not Euclidean distance:
    # p1 is Euclidean-farther from the apex yet still wins on projection
    fam = wedge_family()
    apex = np.array([0.0, 0.0])
    p1 = np.array([1.0, 0.995])
    p2 = np.array([1.4, 0.0])
    assert np.linalg.norm(p1) > np.linalg.norm(p2)
    pts = PointSet(np.array([apex, p1, p2]))
    assert cone_contains(fam, 0, apex, p1)
    assert cone_contains(fam, 0, apex, p2)
    assert nearest_point_on_ray(pts, 0, fam, 0) == 1


def test_theta_graph_navigable_at_stated_angle():
    # the working angle for (1+eps)-navigability is eps/32
    space, pts = normalized_instance(120, 2, 5)
    eps = 1.0
    g = build_theta_graph(pts, eps / 32.0)
    queries = standard_query_set(pts, eps, n_random=60, n_perturbed=30, seed=2)
    assert check_navigable(g, space, pts, eps, queries) is None


def test_closed_form_inequalities_hold_on_dense_grids():
    assert check_fact_tan_linear() is None
    assert check_fact_chord_tan() is None
    assert check_fact_reach_margin() is None


def test_closed_form_checks_are_not_vacuous():
    # the inequalities genuinely fail outside their stated domains
    x = np.linspace(0.0, 1.4, 100)  # tan(x) > 2x near pi/2
    assert (np.tan(x) > 2.0 * x).any()
    g = 1.2  # far past eps/32
    assert (2.0 + 1.0) * (2.0 * math.tan(g) + 1.0 - math.cos(g)) >= 1.0
