"""Metric spaces, point sets, and the brute-force distance oracles.

Four metric kinds are supported:

* ``euclidean-L2`` and ``euclidean-Linf``: points are coordinate rows in R^d.
* ``tree-metric``: points are leaf ids of a complete binary tree whose edge
  weights double per level; the distance between two leaves is a power of two
  determined by their lowest common ancestor.
* ``adversarial-block``: points are integer ids into a finite universe of
  grid blocks plus one reserved query element whose distances are set
  adversarially around a designated target point.

Every space exposes a scalar ``distance`` and a batch ``distances`` that
agree bit for bit, so all callers (builders, searchers, verifiers) see
identical values for the same pair.  The batch is one array pass, ids
checked included; the scalar stays as its oracle.

``pairwise_min_distance`` is the one pass that reads a raw coordinate set
before anything else does, so it enforces the range window (``WINDOW_*``):
coordinates no larger than 2^500 and a minimum distance of at least 2^-500.
Outside it squared distances overflow or underflow, and the input is
rejected with a ``DomainError`` that says which.  ``netpg.normalize`` adds
the grid builders' part of the window: normalised cell indices fit in int64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._grid import cell_keys, fits, neighbour_pairs
from ._util import DomainError, ceil_log2

__all__ = [
    "DomainError",
    "MetricSpace",
    "EuclideanSpace",
    "TreeMetricSpace",
    "BlockMetricSpace",
    "ScaledSpace",
    "PointSet",
    "TriangleWitness",
    "brute_force_nn",
    "verify_triangle",
    "pairwise_min_distance",
    "cross_distances",
]


class MetricSpace:
    """Base class for metric spaces over a fixed element universe."""

    kind: str = "abstract"

    def distance(self, a, b) -> float:
        raise NotImplementedError

    def distances(self, elements, x) -> np.ndarray:
        """Distances from each row/id in ``elements`` to the single element ``x``."""
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
        return self._pair_distances(pts, np.asarray(x, dtype=np.float64))

    def _pair_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Distances between the rows of ``a`` and ``b`` (broadcast), row by row.

        The one place the norm is evaluated: the grid paths call it on
        gathered row pairs, so they compute every distance with the same
        operations, in the same order, as ``distances``.

        ``diff = a - b`` is squared (L2) or made absolute (L-inf) in place,
        then folded axis by axis, in axis order, into one output: squares
        summed left to right and the root taken in place, or a running
        maximum.  One ufunc call per axis replaces numpy's reduction over a
        last axis of length d, which costs several times more on the short
        rows of a greedy hop.  Below 8 lanes numpy's ``sum(axis=-1)`` adds
        left to right too, so for d <= 7 the distances equal
        ``np.sqrt((diff * diff).sum(-1))`` bit for bit on row and broadcast
        shapes; at d >= 8 numpy splits the sum over 8 accumulators, and an
        L2 distance may differ from that formula in the last place.
        """
        diff = a - b
        if self.norm == "l2":
            np.multiply(diff, diff, out=diff)
            fold = np.add
        else:
            np.abs(diff, out=diff)
            fold = np.maximum
        out = diff[..., 0].copy()
        for k in range(1, diff.shape[-1]):
            fold(out, diff[..., k], out=out)
        return np.sqrt(out, out=out) if self.norm == "l2" else out

    def distance(self, a, b) -> float:
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.shape != (self.dim,) or b.shape != (self.dim,):
            raise DomainError(
                f"expected points of dimension {self.dim}, got shapes {a.shape} and {b.shape}"
            )
        return float(self.distances(a[None, :], b)[0])


def _id_array(elements, stop: int, message: str) -> np.ndarray:
    """``elements`` as int64 ids in [0, stop), checked in one vectorised pass.

    Fractional, nan and inf ids are rejected before any could be truncated
    into a valid one, then the first id outside the range;
    ``message.format(id)`` is the ``DomainError`` text.  An int64 array is
    cleared by one maximum: viewed unsigned, a negative id lands past
    2**63 >= stop.  The mask that finds the first bad id is built only when
    that test fails.
    """
    ids = np.asarray(elements)
    if ids.dtype == np.int64:
        if ids.view(np.uint64).max(initial=0) < stop:
            return ids
        bad = ids.view(np.uint64) >= stop
    else:
        if ids.dtype.kind not in "iu":
            f = ids.astype(np.float64)
            whole = np.isfinite(f) & (np.floor(f) == f)
            if not whole.all():
                raise DomainError(message.format(ids[~whole][0].item()))
        bad = (ids < 0) | (ids >= stop)
    if bad.any():
        raise DomainError(message.format(int(ids[bad.argmax()])))
    return ids.astype(np.int64, copy=False)


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

    def __init__(self, height: int):
        if height < 1:
            raise DomainError(f"tree height must be >= 1, got {height}")
        if height > 63:
            raise DomainError(f"tree height must be <= 63 (leaf ids are int64), got {height}")
        self.height = int(height)
        self.num_leaves = 1 << self.height
        self._outside = f"leaf id {{!r}} outside [0, {self.num_leaves})"

    def _check_leaf(self, a) -> int:
        v = int(a)
        if v != a or not (0 <= v < self.num_leaves):
            raise DomainError(self._outside.format(a))
        return v

    def distance(self, a, b) -> float:
        va, vb = self._check_leaf(a), self._check_leaf(b)
        if va == vb:
            return 0.0
        return float(1 << (va ^ vb).bit_length())

    def distances(self, elements, x) -> np.ndarray:
        """2**bit_length(id ^ x) per id, 0 where they are equal.

        frexp gives the bit length of the xor as the exponent of its float,
        exactly while the xor is below 2**53.  Above that the float can round
        up to the next power of two, which the shift test undoes.
        """
        vx = self._check_leaf(x)
        ids = _id_array(elements, self.num_leaves, self._outside)
        v = ids ^ vx
        mantissa, exponent = np.frexp(v.astype(np.float64))
        if self.height > 53:
            exponent -= (v >> np.maximum(exponent - 1, 0)) == 0
        return np.ldexp(np.ceil(mantissa), exponent)  # the mantissa is 0 only at v = 0

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
        self._outside = f"element id {{!r}} outside [0, {n}]"
        # every element's distance to q, as the scalar distance's three cases
        q_row = np.abs(coords - self.w_star).max(axis=1).astype(np.float64)
        q_row[self._blocks == self._blocks[self.p_star]] = float(self.side)
        q_row[self.p_star] = float(self.side - 1)
        self._q_row = np.append(q_row, 0.0)

    def _check_id(self, a) -> int:
        v = int(a)
        if v != a or not (0 <= v <= self.n):
            raise DomainError(self._outside.format(a))
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
        """q's precomputed row, or one L-infinity reduction over the gathered rows."""
        vx = self._check_id(x)
        ids = _id_array(elements, self.n + 1, self._outside)
        if vx == self.query_id:
            return self._q_row[ids]
        rows = self.coords.take(ids, axis=0, mode="clip")  # q's slot is set below
        out = np.abs(rows - self.coords[vx]).max(axis=1).astype(np.float64)
        out[ids == self.query_id] = self._q_row[vx]
        return out


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

    def distance(self, a, b) -> float:
        return self.factor * self.base.distance(a, b)

    def distances(self, elements, x) -> np.ndarray:
        return self.factor * self.base.distances(elements, x)


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


#: Range window of coordinate inputs: every |coordinate| is at most
#: WINDOW_MAX_COORD, so squared differences cannot overflow, and the minimum
#: distance is at least WINDOW_MIN_DISTANCE, so squared distances cannot
#: underflow.
WINDOW_MAX_COORD = 2.0**500
WINDOW_MIN_DISTANCE = 2.0**-500


def _check_min_distance(dist: float, exact: bool) -> None:
    """Reject a minimum distance, or an upper bound on it, below the window."""
    if not dist >= WINDOW_MIN_DISTANCE:
        shown = f"{'' if exact else 'at most '}{dist:.3g}"
        raise DomainError(
            f"outside the range window: minimum distance {shown} is below 2^-500, "
            "where squared distances underflow"
        )


def _min_distance_blocked(space: MetricSpace, pts: PointSet) -> float:
    """Exact minimum by the O(n^2) scan in blocks of 256 rows (the oracle)."""
    n = pts.n
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


def _sorted_neighbour_bound(space: EuclideanSpace, points: np.ndarray) -> float:
    """Smallest distance between neighbours of a stable sort along any axis."""
    best = np.inf
    for axis in range(points.shape[1]):
        s = points.take(np.argsort(points[:, axis], kind="stable"), axis=0)
        best = min(best, float(space._pair_distances(s[1:], s[:-1]).min()))
    return best


def _min_distance_grid(space: EuclideanSpace, points: np.ndarray, side: float) -> float:
    """Exact minimum by a grid scan in cells of ``side`` >= 2 * a computed distance.

    Each pair of rows in neighbouring cells is measured once.  The closest
    pair's computed distance m is at most side / 2, and each of its |dx_k|
    is at most m up to rounding (a sum of non-negative squares rounds no
    lower than any one of them), hence below ``side``: its cell indices
    differ by at most one on every axis.  Pair distances come from
    ``space._pair_distances``, the arithmetic of ``space.distances``, so the
    minimum is bit-identical to the scan's.
    """
    (keys,), shifts = cell_keys(points, side)
    order = np.argsort(keys, kind="stable")
    best = np.inf
    for q, pos in neighbour_pairs(keys[order], keys, shifts):
        c = order[pos]
        q, c = q[c > q], c[c > q]  # each pair once
        if len(q):
            d = space._pair_distances(points.take(q, axis=0), points.take(c, axis=0))
            best = min(best, float(d.min()))
    return best


def pairwise_min_distance(space: MetricSpace, pts: PointSet) -> float:
    """Smallest inter-point distance, exact.

    Coordinate inputs in a Euclidean space are first checked against the
    range window (``WINDOW_*``), then scanned through a grid whose cell side
    is the power of two at or above twice the sorted-neighbour bound:
    subquadratic on spread-out input, and chunked, so never one n x n block.
    Abstract metrics, and coordinates too large for that grid's cell
    indices (``_grid.fits``), take the blocked O(n^2) scan, which is also
    the grid's oracle.
    """
    if pts.n < 2:
        raise DomainError("need at least two points for a minimum distance")
    if pts.is_abstract or not isinstance(space, EuclideanSpace):
        return _min_distance_blocked(space, pts)
    points = pts.points
    largest = float(np.abs(points).max())
    if largest > WINDOW_MAX_COORD:
        raise DomainError(
            f"outside the range window: coordinate magnitude {largest:.3g} exceeds "
            "2^500, where squared distances overflow"
        )
    bound = _sorted_neighbour_bound(space, points)
    _check_min_distance(bound, exact=False)  # the minimum is at most bound
    side = 2.0 ** ceil_log2(2.0 * bound)
    if fits(points, side):
        best = _min_distance_grid(space, points, side)
    else:
        best = _min_distance_blocked(space, pts)
    _check_min_distance(best, exact=True)
    return best


def cross_distances(space: MetricSpace, a_elements, b_elements) -> np.ndarray:
    """Dense |A| x |B| distance matrix: row i is ``space.distances(B, A[i])``, bit for bit.

    One ``_pair_distances`` broadcast where ``distances`` is EuclideanSpace's.
    """
    if type(space).distances is EuclideanSpace.distances and len(a_elements):
        a = np.asarray(a_elements, dtype=np.float64)
        b = np.asarray(b_elements, dtype=np.float64)
        return space._pair_distances(b[None], a[:, None])
    out = np.empty((len(a_elements), len(b_elements)), dtype=np.float64)
    for i in range(len(a_elements)):
        out[i] = space.distances(b_elements, a_elements[i])
    return out


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
