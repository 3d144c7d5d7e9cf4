"""Plain-text interchange formats for point sets, graphs and traces.

Point files start with a ``d n`` header; d >= 1 is followed by n coordinate
lines of d floats each, d = 0 marks abstract points and is followed by n
integer id lines.  Floats are written with 17 significant digits so a
write/read round trip reproduces the exact float64 bits.

Graph files start with ``n m`` followed by m ``src dst`` lines sorted by
(src, dst); ``save_graph`` fills them from a table of decimal digits a chunk
of rows at a time, so its memory does not grow with m.  Trace files have no
header and hold one ``vertex distance`` line per hop.  Writers emit no
comments and no blank lines.

Input grammar, the same for all three.  ``#`` starts a comment that runs to
the end of its line; blank lines are skipped.  The header is the first line
that holds more than a comment: two unsigned decimal ASCII integers.  Every
other line holds exactly the values its file promises, separated by spaces
or tabs: two integers per edge line, d floats or one integer per point line,
an integer and a float per trace line.  Integers are decimal ASCII with an
optional sign; floats are decimal, with an optional exponent.  A missing or
extra value, or a spelling such as ``1_0``, ``0x10`` or ``1.0`` where an
integer belongs, raises ``DomainError`` naming the file.  Lines end in LF or
CRLF.  The body after the header is parsed in one ``np.loadtxt`` call.
"""

from __future__ import annotations

import hashlib
import warnings
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


def _header(path, fields: str) -> tuple[int, int, int]:
    """The header's two integers and the number of lines up to and including it.

    The header is the first line that holds more than a comment.
    """
    tokens = []
    try:
        with open(path) as fh:
            for lines, line in enumerate(fh, 1):
                tokens = line.split("#", 1)[0].split()
                if tokens:
                    break
    except ValueError as exc:  # undecodable bytes
        raise DomainError(f"{path}: {exc}") from exc
    if len(tokens) != 2 or not all(t.isascii() and t.isdigit() for t in tokens):
        raise DomainError(
            f"{path}: expected a '{fields}' header of two decimal integers"
        )
    return int(tokens[0]), int(tokens[1]), lines


def _body(path, dtype, columns: int, skip: int = 0) -> np.ndarray:
    """The file after its first skip lines as a (lines, columns) array of dtype.

    numpy parses a file it opens itself about twice as fast as lines handed
    over from an open Python file.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty body is checked below
            body = np.loadtxt(path, dtype=dtype, comments="#", ndmin=2, skiprows=skip)
    except ValueError as exc:
        raise DomainError(f"{path}: malformed line: {exc}") from exc
    if len(body) == 0:
        return body.reshape(0, columns)
    if body.shape[1] != columns:
        raise DomainError(
            f"{path}: expected {columns} values per line, found {body.shape[1]}"
        )
    return body


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
    dim, n, lines = _header(path, "d n")
    body = _body(path, np.float64 if dim else np.int64, max(dim, 1), lines)
    if len(body) != n:
        raise DomainError(f"{path}: header promises {n} points, found {len(body)}")
    return PointSet(body if dim else body[:, 0])


#: Rows of the adjacency formatted per write by ``save_graph``.
SAVE_CHUNK_ROWS = 128


def _decimal_table(n: int) -> np.ndarray:
    """Row v holds the ASCII digits of v, right-aligned, padded with 0 bytes."""
    values = np.arange(n)
    width = len(str(n - 1))
    table = np.zeros((n, width), dtype=np.uint8)
    for k in range(width):
        power = 10**k
        digit = (values // power % 10 + ord("0")).astype(np.uint8)
        table[:, width - 1 - k] = np.where((values >= power) | (k == 0), digit, 0)
    return table


def save_graph(path, graph: ProximityGraph) -> None:
    """Write the ``n m`` header and the sorted edge lines, a chunk of rows at a time.

    Each chunk fills one byte row per edge from a table of decimal digits:
    source digits, a space, target digits, a newline.  Dropping the 0 pad
    bytes leaves exactly the text ``f"{src} {dst}\\n"`` of every line, so
    memory stays bounded by one chunk's edges and no line passes through
    Python strings.
    """
    n, offsets = graph.n, graph.offsets
    digits = _decimal_table(n)
    width = digits.shape[1]
    with open(path, "wb") as fh:
        fh.write(f"{n} {graph.edge_count}\n".encode())
        for a in range(0, n, SAVE_CHUNK_ROWS):
            b = min(a + SAVE_CHUNK_ROWS, n)
            lines = np.empty((offsets[b] - offsets[a], 2 * width + 2), dtype=np.uint8)
            lines[:, :width] = np.repeat(digits[a:b], np.diff(offsets[a : b + 1]), axis=0)
            lines[:, width] = ord(" ")
            lines[:, width + 1 : -1] = digits[graph.flat[offsets[a] : offsets[b]]]
            lines[:, -1] = ord("\n")
            fh.write(lines[lines != 0].tobytes())


def load_graph(path) -> ProximityGraph:
    """Read a graph file; edge lines may come in any order."""
    n, m, lines = _header(path, "n m")
    edges = _body(path, np.int64, 2, lines)
    if n < 1:
        raise DomainError(f"{path}: graph needs at least one vertex, got n={n}")
    if len(edges) != m:
        raise DomainError(f"{path}: header promises {m} edges, found {len(edges)}")
    src, dst = edges[:, 0], edges[:, 1]
    outside = (src < 0) | (src >= n)
    if outside.any():
        first = src[outside.argmax()]
        raise DomainError(f"{path}: edge source {first} outside [0, {n})")
    offsets = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
    # Sort the keys src * (n + 2) + dst + 1, built in place of the edges.
    # Clipping dst to [-1, n] keeps the keys of different rows apart and each
    # row's order exact, unless the row holds a target outside [0, n): that
    # stays outside after the clip, and the check reports the row whatever
    # its order.  The stable sort is linear on already sorted lines, the
    # order save_graph writes.
    np.clip(dst, -1, n, out=dst)
    dst += 1
    src *= n + 2
    src += dst
    flat = np.sort(src, kind="stable")
    del edges, src, dst  # the sorted keys are all the graph keeps
    flat %= n + 2
    flat -= 1
    return ProximityGraph._from_csr(n, flat, offsets)


def save_trace(path, trace: SearchTrace) -> None:
    out = [f"{v} %.17g" % d for v, d in trace.hops]
    Path(path).write_text("\n".join(out) + "\n")


#: One trace line: a vertex and its distance to the query.
_TRACE_LINE = np.dtype([("vertex", np.int64), ("distance", np.float64)])


def load_trace(path) -> list[tuple[int, float]]:
    hops = _body(path, _TRACE_LINE, 1)[:, 0]  # one record per line
    return list(zip(hops["vertex"].tolist(), hops["distance"].tolist()))


#: Bytes hashed per read by ``file_digest``.
DIGEST_BLOCK = 1 << 20


def file_digest(path) -> str:
    """sha256 of the file, read one block at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(DIGEST_BLOCK), b""):
            digest.update(block)
    return digest.hexdigest()
