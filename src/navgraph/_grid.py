"""The cell index shared by the grid paths over coordinate inputs.

A row x lies in the cell floor(x / side), axis by axis.  Cells are numbered
as mixed-radix integers over the padded bounding box of the rows' cells, so
the 3^d cells around a cell are its number plus one fixed shift each.  The
numbers are int64 and wrap modulo 2^64 when the box holds more than 2^63
cells; distinct cells may then share a number, which only adds candidates
that the caller's exact distance test rejects.  The per-axis cell indices
themselves must stay below 2^61 so that spans of them fit in int64:
``fits`` is the one test of that, and each caller either falls back to its
linear path when it fails or, in ``netpg.normalize``, rejects the input.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from ._util import DomainError

#: About this many (query, candidate) pairs are yielded per chunk: small
#: enough that a chunk's gathered coordinates stay in cache and add little to
#: a build's peak memory, large enough to amortise the per-chunk calls.
CHUNK_PAIRS = 1 << 14


def fits(coords: np.ndarray, side: float) -> bool:
    """Whether the cell indices are below 2^61, so spans of them fit in int64."""
    return float(np.abs(coords).max()) < 2.0**61 * side


def cell_keys(coords: np.ndarray, side: float) -> tuple[np.ndarray, np.ndarray]:
    """Cell numbers of the rows of ``coords`` and the shifts to the 3^d cells around one."""
    if not fits(coords, side):
        raise DomainError(f"cell indices at side {side} would overflow int64")
    cells = np.floor(coords / side).astype(np.int64)
    lo = cells.min(axis=0) - 1
    strides, size = [], 1
    for span in (cells.max(axis=0) - lo + 2).tolist():
        strides.append((size + 2**63) % 2**64 - 2**63)  # size modulo 2^64, as int64
        size *= span
    strides = np.array(strides, dtype=np.int64)
    offsets = np.array(list(product((-1, 0, 1), repeat=coords.shape[1])), dtype=np.int64)
    return (cells - lo) @ strides, offsets @ strides


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenated integer ranges [starts[k], starts[k] + lengths[k])."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - ends + lengths, lengths)


def neighbour_pairs(sorted_keys: np.ndarray, query_keys: np.ndarray, shifts: np.ndarray):
    """Yield (query, position) arrays: every row of ``sorted_keys`` near each query.

    A position indexes ``sorted_keys`` (ascending cell numbers); it is paired
    with query k when its cell is one of the 3^d cells around query k's.
    Queries come in ascending order.  Pairs come in chunks of whole queries
    holding about ``CHUNK_PAIRS`` pairs (a query with more candidates is a
    chunk of its own), so clustered input never builds one quadratic block.
    """
    if len(sorted_keys) == 0:
        return
    step = max(1, CHUNK_PAIRS // len(shifts))
    for q0 in range(0, len(query_keys), step):
        targets = query_keys[q0 : q0 + step, None] + shifts
        lo = np.searchsorted(sorted_keys, targets, "left")
        lengths = np.searchsorted(sorted_keys, targets, "right") - lo
        per_query = lengths.sum(axis=1)
        base = np.concatenate([[0], np.cumsum(per_query)])
        a = 0
        while a < len(per_query):
            b = int(np.searchsorted(base, base[a] + CHUNK_PAIRS, "right")) - 1
            b = max(a + 1, b)
            yield (
                q0 + np.repeat(np.arange(a, b), per_query[a:b]),
                _ranges(lo[a:b].ravel(), lengths[a:b].ravel()),
            )
            a = b
