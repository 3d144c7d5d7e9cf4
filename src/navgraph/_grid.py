"""The cell index shared by the grid paths over coordinate inputs.

A row x lies in the cell floor(x / side), axis by axis.  Cells are numbered
as mixed-radix integers over the padded bounding box of the rows' cells,
axis 0 with stride 1, so the 3^d cells around a cell are 3^(d-1) runs of
three consecutive numbers; several sides can share one numbering, side k's
numbers k boxes up.  The numbers are int64 and wrap modulo 2^64 when the
boxes hold more than 2^63 cells; distinct cells may then share a number,
which only adds candidates for the caller's distance test or side tag to
decide, and a run may straddle the wrap, which the lookup follows.  The
per-axis cell indices must stay below 2^61 so that spans of them fit in
int64: ``fits`` is the one test of that, and each caller either falls back
to its linear path when it fails or, in ``netpg.normalize``, rejects the
input.
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


def cell_keys(coords: np.ndarray, *sides: float) -> tuple[np.ndarray, np.ndarray]:
    """Cell numbers of the rows at each of ``sides`` (one row of keys per
    side, in one numbering), and the shifts of the runs around a cell."""
    if not fits(coords, min(sides)):
        raise DomainError(f"cell indices at side {min(sides)} would overflow int64")
    cells = [np.floor(coords / side).astype(np.int64) for side in sides]
    lows = [c.min(axis=0) - 1 for c in cells]
    spans = np.max([c.max(axis=0) - lo + 2 for c, lo in zip(cells, lows)], axis=0)
    strides, size = [], 1
    for span in [*spans.tolist(), 1]:  # the last stride is one box, between sides
        strides.append((size + 2**63) % 2**64 - 2**63)  # size modulo 2^64, as int64
        size *= span
    *strides, box = strides
    strides = np.array(strides, dtype=np.int64)
    keys = np.stack([(c - lo) @ strides for c, lo in zip(cells, lows)])
    keys += np.arange(len(sides), dtype=np.int64)[:, None] * box
    runs = np.array(list(product((-1, 0, 1), repeat=coords.shape[1] - 1)), dtype=np.int64)
    return keys, runs @ strides[1:]


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenated integer ranges [starts[k], starts[k] + lengths[k])."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - ends + lengths, lengths)


def neighbour_pairs(sorted_keys: np.ndarray, query_keys: np.ndarray, shifts: np.ndarray):
    """Yield (query, position) arrays: every row of ``sorted_keys`` near each query.

    A position indexes ``sorted_keys`` (ascending cell numbers); it is paired
    with query k when its number lies in a run [key + s - 1, key + s + 1]
    around query k's, s in ``shifts``: the 3^d cells around query k's.  The
    run ends are searched in ascending order, several times faster than as
    they come.  Queries come in ascending order, in chunks of whole queries
    holding about ``CHUNK_PAIRS`` pairs (a query with more candidates is a
    chunk of its own), so clustered input never builds one quadratic block.
    """
    n = len(sorted_keys)
    if n == 0:
        return
    step = max(1, CHUNK_PAIRS // len(shifts))
    for q0 in range(0, len(query_keys), step):
        centres = (query_keys[q0 : q0 + step, None] + shifts).ravel()
        order = np.argsort(centres)
        low, high = centres - 1, centres + 1
        first, past = np.empty_like(order), np.empty_like(order)
        first[order] = np.searchsorted(sorted_keys, low[order], "left")
        past[order] = np.searchsorted(sorted_keys, high[order], "right")
        straddle = low > high  # a run that wraps from 2^63 - 1 to -2^63 goes round
        lengths, wraps = past - first + n * straddle, straddle.any()
        per_query = lengths.reshape(-1, len(shifts)).sum(axis=1)
        base = np.concatenate([[0], np.cumsum(per_query)])
        a = 0
        while a < len(per_query):
            b = max(a + 1, int(np.searchsorted(base, base[a] + CHUNK_PAIRS, "right")) - 1)
            runs = slice(a * len(shifts), b * len(shifts))
            pos = _ranges(first[runs], lengths[runs])
            if wraps:
                pos %= n
            yield q0 + np.repeat(np.arange(a, b), per_query[a:b]), pos
            a = b
