"""Cone families and theta-graphs for Euclidean point sets (d in {2, 3}).

A cone family partitions direction space into closed cones of angular
diameter at most theta, each carrying a designated interior ray; it stores
its k cones as two arrays, the halfspace normals (k, m, d) and the rays
(k, d).  The theta-graph connects every point p, per non-empty cone
translated to apex p, to the point whose projection onto the designated ray
lands closest to p.  At theta = epsilon/32 the theta-graph is
(1+epsilon)-navigable.

Float exactness of the covering: adjacent cones share their boundary
constraints through exact negation (IEEE fl(a-b) = -fl(b-a)), so a direction
on a shared boundary satisfies at least one side's closed test and no
direction can fall into a crack between cones.

* d=2: ceil(2*pi/theta) equal sectors; shared boundary rays indexed modulo
  the sector count; designated ray = bisector.
* d=3: a latitude/longitude grid with one longitude grid shared by all bands,
  each grid quad split into two spherical triangles along its diagonal, each
  triangle the intersection of three halfspaces whose normals are corner
  cross products; poles pinned to exact (0, 0, +-1); designated ray = the
  normalized corner centroid.

The builder never tests a vector against every cone.  The angles of a
relative vector name its grid cell: the sector from atan2 (d=2), or the
polar band from atan2(hypot(x, y), z) and the azimuth column from
atan2(y, x) (d=3).  A vector clear of its cell's faces lies in that cell's
cone alone; the others are tested with the closed halfspace tests on the
cones of their cell and the neighbouring cells, and a vector on the z axis
(x = y = 0) on every cone of its pole band, of which the pole is a corner.
Per (apex, cone) the winner comes from one sort and a grouped minimum, so a
build costs O(n^2 log n) whatever the cone count.

The module also houses three closed-form scalar inequalities that the
navigability argument for theta-graphs leans on; they are checked on dense
grids rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._util import DomainError
from .graph import ProximityGraph
from .metrics import PointSet

__all__ = [
    "ConeFamily",
    "build_cone_family",
    "cone_contains",
    "nearest_point_on_ray",
    "build_theta_graph",
    "build_theta_graph_brute",
    "check_fact_tan_linear",
    "check_fact_chord_tan",
    "check_fact_reach_margin",
]


@dataclass(frozen=True)
class ConeFamily:
    """A covering collection of closed polyhedral cones at the origin with
    angular diameter <= theta, each with a designated interior unit ray.

    Cone j is ``normals[j]`` and ``rays[j]``: x is inside iff
    ``normals[j] @ x >= 0`` holds row-wise.
    """

    dimension: int
    theta: float
    normals: np.ndarray  # (k, m, d) inward halfspace normals per cone
    rays: np.ndarray  # (k, d) designated rays

    def __len__(self) -> int:
        return len(self.rays)


def _build_sectors(theta: float) -> ConeFamily:
    k = math.ceil(2.0 * math.pi / theta)
    angles = 2.0 * math.pi * np.arange(k) / k
    # inward normal of the boundary ray at angle a is (-sin a, cos a): points
    # on the counterclockwise side of the ray get a nonnegative dot product
    boundary = np.stack([-np.sin(angles), np.cos(angles)], axis=1)
    mid = angles + math.pi / k  # sector bisectors
    rays = np.stack([np.cos(mid), np.sin(mid)], axis=1)
    normals = np.stack([boundary, -np.roll(boundary, -1, axis=0)], axis=1)
    assert (np.einsum("kmd,kd->km", normals, rays) >= 0).all(), (
        "bisector fell outside its sector"
    )
    return ConeFamily(
        dimension=2,
        theta=float(theta),
        normals=normals,
        rays=rays,
    )


def _sphere_grid(theta: float) -> tuple[int, int]:
    """(polar bands, azimuth columns) of the d=3 grid at angle theta."""
    # bands of height <= theta/2, azimuth steps of width <= theta/2
    return math.ceil(2.0 * math.pi / theta), math.ceil(4.0 * math.pi / theta)


def _sphere_slots(n_lat: int, n_lon: int) -> np.ndarray:
    """Which (band, column, triangle) slots of the d=3 grid are cones.

    Triangle 0 of quad (i, j) is (a, b, c), triangle 1 is (a, c, d); the pole
    bands keep only the triangle that does not collapse onto the pole.  Cone
    ids number the true slots in row-major order.
    """
    valid = np.ones((n_lat, n_lon, 2), dtype=bool)
    valid[n_lat - 1, :, 0] = False  # b = c = south pole
    valid[0, :, 1] = False  # a = d = north pole
    return valid


def _build_sphere_cells(theta: float) -> ConeFamily:
    n_lat, n_lon = _sphere_grid(theta)
    polar = math.pi * np.arange(n_lat + 1) / n_lat
    azim = 2.0 * math.pi * np.arange(n_lon) / n_lon
    # grid vertices, poles pinned exactly so all pole-band cells share them
    verts = np.empty((n_lat + 1, n_lon, 3))
    sp, cp = np.sin(polar), np.cos(polar)
    verts[:, :, 0] = sp[:, None] * np.cos(azim)[None, :]
    verts[:, :, 1] = sp[:, None] * np.sin(azim)[None, :]
    verts[:, :, 2] = cp[:, None]
    verts[0, :] = (0.0, 0.0, 1.0)
    verts[n_lat, :] = (0.0, 0.0, -1.0)
    # quad (i, j) has corners a = v[i, j], b = v[i+1, j], c = v[i+1, j+1] and
    # d = v[i, j+1], counterclockwise seen from outside; it splits along the
    # a-c diagonal
    a, b = verts[:-1], verts[1:]
    c, d = np.roll(b, -1, axis=1), np.roll(a, -1, axis=1)
    quads = np.stack([np.stack([a, b, c], axis=2), np.stack([a, c, d], axis=2)], axis=2)
    corners = quads[_sphere_slots(n_lat, n_lon)]  # (k, 3 corners p q r, 3)
    following = np.roll(corners, -1, axis=1)  # q r p
    normals = np.cross(corners, following)  # p x q, q x r, r x p
    rays = corners.sum(axis=1)
    rays = rays / np.sqrt((rays * rays).sum(axis=1))[:, None]
    edge_dots = np.einsum("kcd,kcd->kc", corners, following)
    assert np.arccos(np.clip(edge_dots, -1.0, 1.0)).max() <= theta * (1 + 1e-12)
    inside = np.einsum("kmd,kd->km", normals, rays) > 0
    assert inside.all(), "centroid ray left its cone"
    # orientation sanity: each face normal keeps the third corner
    assert (np.einsum("kcd,kcd->kc", normals, np.roll(corners, -2, axis=1)) >= 0).all()
    return ConeFamily(
        dimension=3,
        theta=float(theta),
        normals=normals,
        rays=rays,
    )


def build_cone_family(dim: int, theta: float) -> ConeFamily:
    """Covering cone family with angular diameter <= theta per cone."""
    if not (0.0 < theta < math.pi):
        raise DomainError(f"theta must be in (0, pi), got {theta}")
    if dim == 2:
        return _build_sectors(theta)
    if dim == 3:
        return _build_sphere_cells(theta)
    raise DomainError(f"cone families support d in {{2, 3}}, got d={dim}")


def cone_contains(family: ConeFamily, cone_id: int, apex, x) -> bool:
    """Closed membership of x in the cone translated to ``apex``."""
    v = np.asarray(x, dtype=np.float64) - np.asarray(apex, dtype=np.float64)
    return bool((family.normals[cone_id] @ v >= 0.0).all())


def nearest_point_on_ray(
    pts: PointSet, p: int, family: ConeFamily, cone_id: int
) -> Optional[int]:
    """Among points in the cone at apex p, the one projecting closest to p.

    The score of a candidate x is |(x - p) . ray|, the distance from p to
    the projection of x onto the designated ray.  Ties break to the smallest
    index.  Returns None for an empty cone.  This is the scalar reference
    route; the builder vectorizes the same arithmetic.
    """
    ray = family.rays[cone_id]
    apex = pts.points[p]
    best: Optional[int] = None
    best_score = np.inf
    for x in range(pts.n):
        if x == p:
            continue
        if not cone_contains(family, cone_id, apex, pts.points[x]):
            continue
        score = abs(float((pts.points[x] - apex) @ ray))
        if score < best_score:
            best, best_score = x, score
    return best


#: (apex, target) pairs per block of apexes.  It bounds the builder's
#: temporaries whatever n and the cone count, and keeps each int64 one at
#: 64 KB: with 128 KB ones the process kept about 1 MB more resident on the
#: same build, at no gain in speed
_PAIR_BUDGET = 1 << 13

#: a vector this far inside its grid cell (a fraction of the cell in d=2,
#: of |rel|_1 on every face dot in d=3) lies in that cell's cone alone,
#: however the closed tests round
_CLEAR_MARGIN = 1e-9


def _sector_turns(rel: np.ndarray, k: int) -> np.ndarray:
    """Angle of each d=2 vector in units of the k sectors' width."""
    return np.arctan2(rel[:, 1], rel[:, 0]) * (k / (2.0 * math.pi))


def _sphere_cells(family: ConeFamily, rel: np.ndarray):
    """(band, column) of each d=3 vector, and the (band, column, triangle)
    table of cone ids (-1 where the pole collapses a triangle)."""
    n_lat, n_lon = _sphere_grid(family.theta)
    slot = np.full((n_lat, n_lon, 2), -1, dtype=np.int64)
    slot[_sphere_slots(n_lat, n_lon)] = np.arange(len(family))
    x, y, z = rel[:, 0], rel[:, 1], rel[:, 2]
    band = np.floor(np.arctan2(np.hypot(x, y), z) * (n_lat / math.pi)).astype(np.int64)
    column = np.floor(np.arctan2(y, x) * (n_lon / (2.0 * math.pi))).astype(np.int64)
    return np.minimum(band, n_lat - 1), column % n_lon, slot


def _sole_cones(
    family: ConeFamily, rel: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(pair, cone) for the vectors that lie in exactly one cone, clear of
    its faces by ``_CLEAR_MARGIN``; found from the angles alone in d=2."""
    if family.dimension == 2:
        k = len(family)
        turn = _sector_turns(rel, k)
        sector = np.floor(turn)
        frac = turn - sector
        pair = np.flatnonzero((frac > _CLEAR_MARGIN) & (frac < 1.0 - _CLEAR_MARGIN))
        return pair, sector[pair].astype(np.int64) % k
    band, column, slot = _sphere_cells(family, rel)
    cand = slot[band, column]  # the cell's two triangles
    pair = np.repeat(np.arange(len(rel)), 2)[cand.ravel() >= 0]
    cone = cand[cand >= 0]
    dots = np.einsum("emd,ed->em", family.normals[cone], rel[pair])
    slack = _CLEAR_MARGIN * np.abs(rel[pair]).sum(axis=1)
    clear = (dots > slack[:, None]).all(axis=1)
    return pair[clear], cone[clear]


def _candidate_cones(
    family: ConeFamily, rel: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(pair, cone) lists that hold every cone containing rel[pair].

    The angles name the grid cell a vector falls in: its sector (d=2), or
    its polar band and azimuth column, whose two triangles are its cones
    (d=3).  The cones of that cell and of its neighbours are candidates:
    rounding moves a vector at most one cell, and the triangles'
    great-circle edges stray less than one band from the latitude lines.  A
    d=3 vector on the z axis is a corner of every cone of its pole band, so
    it takes that whole band instead.
    """
    pair = np.arange(len(rel))
    offsets = np.arange(-1, 2)
    if family.dimension == 2:
        k = len(family)
        sector = np.floor(_sector_turns(rel, k))
        cand = (sector.astype(np.int64)[:, None] + offsets) % k
        return np.repeat(pair, 3), cand.ravel()
    band, column, slot = _sphere_cells(family, rel)
    n_lat, n_lon = slot.shape[:2]
    band = band[:, None, None] + offsets[:, None]
    column = (column[:, None, None] + offsets) % n_lon
    inside = (band >= 0) & (band < n_lat)
    cand = np.where(inside[..., None], slot[np.clip(band, 0, n_lat - 1), column], -1)
    cand = cand.reshape(len(rel), 18)  # 3 bands x 3 columns x 2 triangles
    pole = ~rel[:, :2].any(axis=1)  # x = y = 0
    cand[pole] = -1
    pair, cone = np.repeat(pair, cand.shape[1]), cand.ravel()
    listed = cone >= 0
    pole_pair = np.flatnonzero(pole)
    pole_band = np.where(rel[pole_pair, 2] > 0.0, 0, n_lat - 1)
    pole_cone = slot[pole_band].max(axis=2)  # the one cone of each pole-band cell
    return (
        np.concatenate([pair[listed], np.repeat(pole_pair, n_lon)]),
        np.concatenate([cone[listed], pole_cone.ravel()]),
    )


def _containing_cones(
    family: ConeFamily, rel: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(pair, cone) lists of every cone whose closed test nonzero rel[pair] passes.

    Vectors clear of their cell's faces lie in one cone
    (``_sole_cones``).  The rest are tested on all their candidate cones
    with the same closed test ``normals @ rel >= 0`` as ``cone_contains``,
    so a vector on a shared boundary stays in both cones.
    """
    pair, cone = _sole_cones(family, rel)
    near = rel.any(axis=1)  # the zero vector is the apex paired with itself
    near[pair] = False
    near = np.flatnonzero(near)
    near_pair, near_cone = _candidate_cones(family, rel[near])
    near_pair = near[near_pair]
    inside = np.empty(len(near_pair), dtype=bool)
    for s in range(0, len(near_pair), _PAIR_BUDGET):
        part = slice(s, s + _PAIR_BUDGET)
        normals = family.normals[near_cone[part]]
        dots = np.matmul(normals, rel[near_pair[part], :, None])
        inside[part] = (dots >= 0.0).all(axis=(1, 2))
    return (
        np.concatenate([pair, near_pair[inside]]),
        np.concatenate([cone, near_cone[inside]]),
    )


def build_theta_graph(pts: PointSet, theta: float) -> ProximityGraph:
    """One edge per vertex per non-empty translated cone.

    The cones are ``build_cone_family(pts.dim, theta)``'s.  ``meta`` carries
    that family and, in ``edge_cones``, the smallest cone id that produced
    each edge, aligned with the graph's ``flat``.

    Apexes go in blocks of about ``_PAIR_BUDGET`` (apex, target) pairs.  The
    cones holding each pair's relative vector are found from its angles:
    the vector's grid cell, confirmed where it lies near a face by the
    closed halfspace tests on the cell's and its neighbours' cones; a d=3
    vector with x = y = 0 is tested on every cone of its pole band
    (``_containing_cones``).  Per (apex, cone) the smallest |rel . ray|
    wins, ties to the smallest target, through one sort of the (apex, cone,
    target) keys and a grouped minimum.  The cost is O(n^2 log n) whatever
    the cone count; nothing of size (block x cones) is allocated.
    """
    if pts.is_abstract:
        raise DomainError("theta-graphs need coordinate points")
    family = build_cone_family(pts.dim, theta)
    n, k = pts.n, len(family)
    p_all = pts.points
    block = max(1, _PAIR_BUDGET // n)
    codes = []
    cones = []
    for lo in range(0, n, block):
        n_apex = min(block, n - lo)
        rel = p_all[None, :, :] - p_all[lo : lo + n_apex, None, :]
        rel = rel.reshape(-1, pts.dim)
        # pair = apex offset * n + target; rel is 0 only at the apex itself
        pair, cone = _containing_cones(family, rel)
        # through matmul, as nearest_point_on_ray's rel @ ray, so that ties
        # between targets are the same float ties
        score = np.matmul(rel[pair, None, :], family.rays[cone, :, None])
        score = np.abs(score[:, 0, 0])
        # group by (apex, cone), targets ascending within a group, so the
        # first entry at the group minimum is the smallest-index winner
        key = ((pair // n) * k + cone) * n + pair % n
        order = np.argsort(key)
        key, score = key[order], score[order]
        group = key // n
        start = np.flatnonzero(np.diff(group, prepend=-1))
        best = np.minimum.reduceat(score, start)
        sizes = np.diff(start, append=len(score))
        hit = np.flatnonzero(score == np.repeat(best, sizes))
        first = hit[np.diff(group[hit], prepend=-1) != 0]
        won = group[first]  # apex offset * k + cone, ascending
        # an edge won in several cones keeps the smallest cone id
        edge, at = np.unique((won // k) * n + key[first] % n, return_index=True)
        codes.append(lo * n + edge)
        cones.append(won[at] % k)
    g = ProximityGraph.from_codes(n, np.concatenate(codes))
    edge_cones = np.concatenate(cones)
    g.meta = {"family": family, "theta": float(theta), "edge_cones": edge_cones}
    return g


def build_theta_graph_brute(pts: PointSet, theta: float) -> ProximityGraph:
    """Definitional construction via per-cone scalar argmin; test oracle."""
    family = build_cone_family(pts.dim, theta)
    rows = []
    edge_cones = []
    for p in range(pts.n):
        chosen: dict[int, int] = {}
        for cone_id in range(len(family)):
            t = nearest_point_on_ray(pts, p, family, cone_id)
            if t is not None and t not in chosen:
                chosen[t] = cone_id
        order = sorted(chosen)
        rows.append(np.array(order, dtype=np.int64))
        edge_cones.extend(chosen[t] for t in order)
    g = ProximityGraph(pts.n, rows)
    edge_cones = np.array(edge_cones, dtype=np.int64)
    g.meta = {"family": family, "theta": float(theta), "edge_cones": edge_cones}
    return g


# ---------------------------------------------------------------------------
# Closed-form inequalities behind the theta-graph navigability argument


def check_fact_tan_linear(samples: int = 100000) -> Optional[float]:
    """tan(x) <= 2x on [0, 1/2]; returns the first violating x, if any."""
    x = np.linspace(0.0, 0.5, samples)
    bad = np.tan(x) > 2.0 * x
    if bad.any():
        return float(x[np.argmax(bad)])
    return None


def check_fact_chord_tan(samples: int = 100000) -> Optional[float]:
    """2 sin(g/2) < tan(g) strictly on the open interval (0, pi/2).

    Geometrically: the chord between two points at equal distance l from an
    apex with angle g between them is shorter than l * tan(g).  Checked on
    interior grid points.
    """
    g = np.linspace(0.0, math.pi / 2.0, samples + 2)[1:-1]
    bad = 2.0 * np.sin(g / 2.0) >= np.tan(g)
    if bad.any():
        return float(g[np.argmax(bad)])
    return None


def check_fact_reach_margin(
    eps_samples: int = 317, gamma_samples: int = 317
) -> Optional[tuple[float, float]]:
    """(2+eps) * (2 tan(g) + 1 - cos(g)) < eps for g in [0, eps/32], eps in (0, 1].

    The slack that lets a theta-graph hop beat the (1+eps) threshold.
    Checked on a dense (eps, gamma) grid; returns a violating pair, if any.
    """
    eps = np.linspace(0.0, 1.0, eps_samples + 1)[1:]
    unit = np.linspace(0.0, 1.0, gamma_samples)
    g = (eps[:, None] / 32.0) * unit[None, :]
    lhs = (2.0 + eps)[:, None] * (2.0 * np.tan(g) + 1.0 - np.cos(g))
    bad = lhs >= eps[:, None]
    if bad.any():
        i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        return float(eps[i]), float(g[i, j])
    return None
