"""Plain-text interchange formats for point sets, graphs and traces.

Point files start with a ``d n`` header; d >= 1 is followed by n coordinate
lines of d floats each, d = 0 marks abstract points and is followed by n
integer id lines.  Floats are written with 17 significant digits so a
write/read round trip reproduces the exact float64 bits.

Graph files start with ``n m`` followed by m ``src dst`` lines sorted by
(src, dst); ``save_graph`` formats them a chunk of rows at a time, so its
memory does not grow with m.  Trace files hold one ``vertex distance`` line
per hop.  Lines beginning with ``#`` are ignored on input; writers never
emit them.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from ._util import DomainError
from .graph import ProximityGraph, SearchTrace
from .metrics import PointSet

__all__ = [
    "save_points",
    "load_points",
    "save_graph",
    "load_graph",
    "save_trace",
    "load_trace",
    "file_digest",
]


def _data_lines(path) -> list[list[str]]:
    lines = []
    for raw in Path(path).read_text().splitlines():
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append(stripped.split())
    return lines


def save_points(path, pts: PointSet) -> None:
    out = []
    if pts.is_abstract:
        out.append(f"0 {pts.n}")
        out.extend(str(int(v)) for v in pts.points)
    else:
        out.append(f"{pts.dim} {pts.n}")
        out.extend(" ".join("%.17g" % x for x in row) for row in pts.points)
    Path(path).write_text("\n".join(out) + "\n")


def load_points(path) -> PointSet:
    lines = _data_lines(path)
    if not lines or len(lines[0]) != 2:
        raise DomainError(f"{path}: expected a 'd n' header line")
    try:
        dim, n = int(lines[0][0]), int(lines[0][1])
    except ValueError as exc:
        raise DomainError(f"{path}: malformed header: {exc}") from exc
    body = lines[1:]
    if len(body) != n:
        raise DomainError(f"{path}: header promises {n} points, found {len(body)}")
    if dim > 0 and any(len(row) != dim for row in body):
        raise DomainError(f"{path}: expected {n} rows of {dim} coordinates")
    try:
        if dim == 0:
            return PointSet(np.array([int(row[0]) for row in body], dtype=np.int64))
        coords = np.array(
            [[float(tok) for tok in row] for row in body], dtype=np.float64
        )
    except ValueError as exc:
        if isinstance(exc, DomainError):
            raise
        raise DomainError(f"{path}: malformed value: {exc}") from exc
    return PointSet(coords)


#: Rows of the adjacency formatted per write by ``save_graph``.
SAVE_CHUNK_ROWS = 128


def save_graph(path, graph: ProximityGraph) -> None:
    """Write the ``n m`` header and the sorted edge lines, a chunk of rows at a time.

    Each chunk turns its sources and targets into Python ints in two
    ``tolist`` calls, so memory stays bounded by one chunk's lines.
    """
    offsets = graph.offsets.tolist()
    with open(path, "w") as fh:
        fh.write(f"{graph.n} {graph.edge_count}\n")
        for a in range(0, graph.n, SAVE_CHUNK_ROWS):
            b = min(a + SAVE_CHUNK_ROWS, graph.n)
            src = np.repeat(np.arange(a, b), np.diff(graph.offsets[a : b + 1])).tolist()
            dst = graph.flat[offsets[a] : offsets[b]].tolist()
            fh.write("".join([f"{s} {t}\n" for s, t in zip(src, dst)]))


def load_graph(path, provenance: str = "custom") -> ProximityGraph:
    lines = _data_lines(path)
    if not lines or len(lines[0]) != 2:
        raise DomainError(f"{path}: expected an 'n m' header line")
    try:
        n, m = int(lines[0][0]), int(lines[0][1])
    except ValueError as exc:
        raise DomainError(f"{path}: malformed header: {exc}") from exc
    body = lines[1:]
    if len(body) != m:
        raise DomainError(f"{path}: header promises {m} edges, found {len(body)}")
    rows = [[] for _ in range(n)]
    for row in body:
        try:
            src, dst = int(row[0]), int(row[1])
        except (IndexError, ValueError) as exc:
            raise DomainError(f"{path}: malformed edge line: {exc}") from exc
        if not (0 <= src < n):
            raise DomainError(f"{path}: edge source {src} outside [0, {n})")
        rows[src].append(dst)
    return ProximityGraph(n, [sorted(r) for r in rows], provenance=provenance)


def save_trace(path, trace: SearchTrace) -> None:
    out = [f"{v} %.17g" % d for v, d in trace.hops]
    Path(path).write_text("\n".join(out) + "\n")


def load_trace(path) -> list[tuple[int, float]]:
    return [(int(row[0]), float(row[1])) for row in _data_lines(path)]


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
