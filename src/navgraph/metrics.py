"""Metric spaces, point sets, and the brute-force distance oracles.

Four metric kinds are supported:

* ``euclidean-L2`` and ``euclidean-Linf``: points are coordinate rows in R^d.
* ``tree-metric``: points are leaf ids of a complete binary tree whose edge
  weights double per level; the distance between two leaves is a power of two
  determined by their lowest common ancestor.
* ``adversarial-block``: points are integer ids into a finite universe of
  grid blocks plus one reserved query element whose distances are set
  adversarially around a designated target point.

Every space exposes a scalar ``distance`` and a batch ``distances`` that share
one code path, so all callers (builders, searchers, verifiers) see bitwise
identical values for the same pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._util import DomainError

__all__ = [
    "DomainError",
    "MetricSpace",
    "EuclideanSpace",
    "TreeMetricSpace",
    "BlockMetricSpace",
    "ScaledSpace",
    "PointSet",
    "ExtremeEstimate",
    "TriangleWitness",
    "brute_force_nn",
    "estimate_extremes",
    "verify_triangle",
    "pairwise_min_distance",
    "cross_distances",
]


class MetricSpace:
    """Base class for metric spaces over a fixed element universe."""

    kind: str = "abstract"
    #: Doubling dimension promised by the construction, if any. Declared, not
    #: computed; the doubling checkers verify it constructively on samples.
    declared_doubling_dim: Optional[float] = None

    def distance(self, a, b) -> float:
        raise NotImplementedError

    def distances(self, elements, x) -> np.ndarray:
        """Distances from each row/id in ``elements`` to the single element ``x``."""
        raise NotImplementedError

    def contains(self, x) -> bool:
        raise NotImplementedError


class EuclideanSpace(MetricSpace):
    """R^d under the L2 or L-infinity norm."""

    def __init__(self, dim: int, norm: str = "l2"):
        if dim < 1:
            raise DomainError(f"dimension must be >= 1, got {dim}")
        if norm not in ("l2", "linf"):
            raise DomainError(f"norm must be 'l2' or 'linf', got {norm!r}")
        self.dim = int(dim)
        self.norm = norm
        self.kind = "euclidean-L2" if norm == "l2" else "euclidean-Linf"

    def distances(self, elements, x) -> np.ndarray:
        pts = np.asarray(elements, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[None, :]
        q = np.asarray(x, dtype=np.float64)
        diff = pts - q
        if self.norm == "l2":
            return np.sqrt((diff * diff).sum(axis=1))
        return np.abs(diff).max(axis=1)

    def distance(self, a, b) -> float:
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.shape != (self.dim,) or b.shape != (self.dim,):
            raise DomainError(
                f"expected points of dimension {self.dim}, got shapes {a.shape} and {b.shape}"
            )
        return float(self.distances(a[None, :], b)[0])

    def contains(self, x) -> bool:
        arr = np.asarray(x)
        return arr.shape == (self.dim,) and np.issubdtype(arr.dtype, np.number)


class TreeMetricSpace(MetricSpace):
    """Leaves of a complete binary tree with level-doubling edge weights.

    The tree has ``2**height`` leaves at level 0 and its root at level
    ``height``.  An edge into a node at level v weighs 1 when v = 0 (a leaf)
    and 2**(v-1) otherwise, which makes the leaf-to-leaf distance exactly
    2**(level of the lowest common ancestor).  Leaf ids encode root-to-leaf
    paths, so the LCA level is the bit length of ``a XOR b`` and distances
    never require materializing the tree.
    """

    kind = "tree-metric"
    declared_doubling_dim = 1.0

    def __init__(self, height: int):
        if height < 1:
            raise DomainError(f"tree height must be >= 1, got {height}")
        self.height = int(height)
        self.num_leaves = 1 << self.height

    def _check_leaf(self, a) -> int:
        v = int(a)
        if v != a or not (0 <= v < self.num_leaves):
            raise DomainError(f"leaf id {a!r} outside [0, {self.num_leaves})")
        return v

    def distance(self, a, b) -> float:
        va, vb = self._check_leaf(a), self._check_leaf(b)
        if va == vb:
            return 0.0
        return float(1 << (va ^ vb).bit_length())

    def distances(self, elements, x) -> np.ndarray:
        vx = self._check_leaf(x)
        ids = np.asarray(elements)
        if ids.dtype.kind not in "iu":
            # non-integer dtype: reject fractional, nan and inf ids up front,
            # so that int() below cannot truncate one into a valid leaf
            f = ids.astype(np.float64)
            whole = np.isfinite(f) & (np.floor(f) == f)
            if not whole.all():
                raise DomainError(
                    f"leaf id {ids[~whole][0].item()!r} outside [0, {self.num_leaves})"
                )
        num_leaves = self.num_leaves
        out = np.empty(len(elements), dtype=np.float64)
        for i, e in enumerate(elements):
            ve = int(e)
            if not 0 <= ve < num_leaves:
                raise DomainError(f"leaf id {ve} outside [0, {num_leaves})")
            out[i] = 0.0 if ve == vx else float(1 << (ve ^ vx).bit_length())
        return out

    def contains(self, x) -> bool:
        try:
            self._check_leaf(x)
            return True
        except (DomainError, TypeError):
            return False

    def path_weight_distance(self, a, b) -> float:
        """Independent oracle: sum edge weights along the leaf-to-leaf path."""
        va, vb = self._check_leaf(a), self._check_leaf(b)
        if va == vb:
            return 0.0
        total = 0
        level = 0
        while va != vb:
            w = 1 if level == 0 else 1 << (level - 1)
            total += 2 * w  # one edge on each side of the path
            va >>= 1
            vb >>= 1
            level += 1
        return float(total)


class BlockMetricSpace(MetricSpace):
    """Adversarial metric over grid blocks plus one reserved query element.

    Elements are integer ids.  Ids ``0..n-1`` index the coordinate rows of the
    block point set; id ``n`` (``query_id``) is the adversarial query q.
    Distances among data points are plain L-infinity.  Distances to q depend
    on the designated target ``p_star``: q sits at ``side - 1`` from p_star,
    at ``side`` from the rest of p_star's block, and at the L-infinity
    distance to the block origin ``w_star`` from everything else.
    """

    kind = "adversarial-block"

    def __init__(self, coords: np.ndarray, side: int, p_star: int):
        coords = np.asarray(coords, dtype=np.int64)
        if coords.ndim != 2 or len(coords) < 1:
            raise DomainError("block coordinates must be a nonempty (n, d) array")
        if side < 2:
            raise DomainError(f"block side must be >= 2, got {side}")
        n = len(coords)
        if not (0 <= p_star < n):
            raise DomainError(f"p_star {p_star} outside [0, {n})")
        self.coords = coords
        self.side = int(side)
        self.n = n
        self.dim = coords.shape[1]
        self.p_star = int(p_star)
        self.query_id = n
        pitch = 2 * self.side
        self._blocks = coords[:, 0] // pitch
        self.w_star = np.zeros(self.dim, dtype=np.int64)
        self.w_star[0] = self._blocks[self.p_star] * pitch
        self.declared_doubling_dim = math.log2(1 + 2 ** self.dim)

    def _check_id(self, a) -> int:
        v = int(a)
        if v != a or not (0 <= v <= self.n):
            raise DomainError(f"element id {a!r} outside [0, {self.n}]")
        return v

    def distance(self, a, b) -> float:
        va, vb = self._check_id(a), self._check_id(b)
        if va == vb:
            return 0.0
        if va == self.query_id or vb == self.query_id:
            p = vb if va == self.query_id else va
            if self._blocks[p] == self._blocks[self.p_star]:
                return float(self.side - 1 if p == self.p_star else self.side)
            return float(np.abs(self.coords[p] - self.w_star).max())
        return float(np.abs(self.coords[va] - self.coords[vb]).max())

    def distances(self, elements, x) -> np.ndarray:
        vx = self._check_id(x)
        return np.array([self.distance(int(e), vx) for e in elements], dtype=np.float64)

    def contains(self, x) -> bool:
        try:
            self._check_id(x)
            return True
        except (DomainError, TypeError):
            return False


class ScaledSpace(MetricSpace):
    """A metric space with all distances multiplied by a positive factor.

    Used to normalize abstract metrics, where points cannot be rescaled.
    """

    def __init__(self, base: MetricSpace, factor: float):
        if factor <= 0:
            raise DomainError(f"scale factor must be positive, got {factor}")
        self.base = base
        self.factor = float(factor)
        self.kind = base.kind
        self.declared_doubling_dim = base.declared_doubling_dim

    def distance(self, a, b) -> float:
        return self.factor * self.base.distance(a, b)

    def distances(self, elements, x) -> np.ndarray:
        return self.factor * self.base.distances(elements, x)

    def contains(self, x) -> bool:
        return self.base.contains(x)


class PointSet:
    """An indexed sequence of distinct elements of one metric space.

    Euclidean point sets hold a float64 ``(n, d)`` array of finite
    coordinates; abstract point sets (tree leaves, block element ids) hold an
    int64 ``(n,)`` array.
    """

    def __init__(self, points):
        arr = np.asarray(points)
        if arr.ndim == 2:
            arr = arr.astype(np.float64, copy=False)
            finite = np.isfinite(arr).all(axis=1)
            if not finite.all():
                bad = np.argmin(finite)
                raise DomainError(f"point {bad} has a non-finite coordinate")
        elif arr.ndim == 1:
            arr = arr.astype(np.int64, copy=False)
        else:
            raise DomainError(f"points must be a 1-D id array or (n, d) coordinate array")
        if len(arr) < 1:
            raise DomainError("point set must not be empty")
        uniq = np.unique(arr, axis=0) if arr.ndim == 2 else np.unique(arr)
        if len(uniq) != len(arr):
            raise DomainError("point set contains duplicate points")
        self.points = arr
        self.points.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        """Coordinate dimension; 0 marks an abstract (id-based) point set."""
        return self.points.shape[1] if self.points.ndim == 2 else 0

    @property
    def is_abstract(self) -> bool:
        return self.points.ndim == 1

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i):
        return self.points[i]


@dataclass(frozen=True)
class ExtremeEstimate:
    """Constant-factor distance extremes recoverable from O(n) + NN queries.

    ``max_distance`` lies in [d_max, 2 d_max] (twice the farthest distance
    from an anchor point); ``min_distance`` lies in [d_min/2, d_min] (half
    the smallest recorded near-neighbor distance); ``aspect_ratio`` is their
    quotient and lies in [true aspect ratio, 4x true aspect ratio].
    """

    min_distance: float
    max_distance: float

    @property
    def aspect_ratio(self) -> float:
        return self.max_distance / self.min_distance


@dataclass(frozen=True)
class TriangleWitness:
    """A triple violating the triangle inequality: d(a, b) > d(a, c) + d(c, b)."""

    a: object
    b: object
    via: object
    d_ab: float
    d_a_via: float
    d_via_b: float


def brute_force_nn(space: MetricSpace, pts: PointSet, q) -> tuple[int, float]:
    """Exact nearest neighbor of ``q`` in ``pts`` by linear scan.

    Ties break to the smallest index. Serves as the ground-truth oracle for
    every approximate-search check.
    """
    if pts.n < 1:
        raise DomainError("brute_force_nn requires a nonempty point set")
    row = space.distances(pts.points, q)
    idx = int(np.argmin(row))  # first occurrence = smallest index on ties
    return idx, float(row[idx])


def pairwise_min_distance(space: MetricSpace, pts: PointSet) -> float:
    """Smallest inter-point distance (exact, O(n^2)), in blocks of 256 rows."""
    n = pts.n
    if n < 2:
        raise DomainError("need at least two points for a minimum distance")
    best = np.inf
    for start in range(0, n, 256):
        rows = np.empty((min(256, n - start), n), dtype=np.float64)
        for k in range(rows.shape[0]):
            rows[k] = space.distances(pts.points, pts.points[start + k])
            rows[k, start + k] = np.inf  # mask self
        m = rows.min()
        if m < best:
            best = float(m)
    return best


def cross_distances(space: MetricSpace, a_elements, b_elements) -> np.ndarray:
    """Dense |A| x |B| distance matrix, one batch row per element of A."""
    out = np.empty((len(a_elements), len(b_elements)), dtype=np.float64)
    for i in range(len(a_elements)):
        out[i] = space.distances(b_elements, a_elements[i])
    return out


def estimate_extremes(space: MetricSpace, pts: PointSet) -> ExtremeEstimate:
    """Estimate d_max within 2x and d_min within 2x without full knowledge.

    The max estimate doubles the farthest distance from the anchor point
    (index 0).  The min estimate halves the smallest distance recorded by a
    near-neighbor pass; brute-force exact NN stands in for the 2-approximate
    near neighbor the estimate is defined against, which keeps the stated
    interval valid.
    """
    if pts.n < 2:
        raise DomainError("extreme estimates require at least two points")
    anchor_row = space.distances(pts.points, pts.points[0])
    dmax_hat = 2.0 * float(anchor_row.max())
    dmin_hat = pairwise_min_distance(space, pts) / 2.0
    if dmin_hat <= 0:
        raise DomainError("degenerate point set: zero minimum distance")
    return ExtremeEstimate(min_distance=dmin_hat, max_distance=dmax_hat)


def verify_triangle(
    space: MetricSpace, pts: PointSet, extra=None
) -> Optional[TriangleWitness]:
    """Exhaustively check the triangle inequality over ``pts`` (plus ``extra``).

    Returns the first violating triple in (via, a, b) scan order, or None.
    Intended for small point sets (O(n^3) work, vectorized per via-point).
    """
    elements = list(pts.points)
    if extra is not None:
        elements.append(extra)
    m = len(elements)
    dmat = np.empty((m, m), dtype=np.float64)
    for i in range(m):
        for j in range(m):
            dmat[i, j] = space.distance(elements[i], elements[j])
    for via in range(m):
        # d(a, b) <= d(a, via) + d(via, b), checked for all (a, b) at once
        bound = dmat[:, via][:, None] + dmat[via, :][None, :]
        bad = np.argwhere(dmat > bound + 1e-12)
        if len(bad):
            a, b = (int(v) for v in bad[0])
            return TriangleWitness(
                a=elements[a],
                b=elements[b],
                via=elements[via],
                d_ab=float(dmat[a, b]),
                d_a_via=float(dmat[a, via]),
                d_via_b=float(dmat[via, b]),
            )
    return None
