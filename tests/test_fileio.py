"""Interchange formats: bit-exact round trips and malformed-input rejection."""

import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navgraph import (
    DomainError,
    PointSet,
    ProximityGraph,
    file_digest,
    greedy_search,
    load_graph,
    load_points,
    load_trace,
    save_graph,
    save_points,
    save_trace,
)
from navgraph import EuclideanSpace
from navgraph.fileio import DIGEST_BLOCK
from conftest import uniform_points


def test_points_round_trip_bit_exact(tmp_path):
    pts = uniform_points(40, 3, 0)
    path = tmp_path / "p.txt"
    save_points(path, pts)
    back = load_points(path)
    assert back.points.dtype == np.float64
    assert (back.points == pts.points).all()


def test_points_round_trip_adversarial_floats(tmp_path):
    vals = np.array(
        [[np.nextafter(0.1, 1.0)], [1.0 / 3.0], [2.0**-40], [12345.678901234567]]
    )
    path = tmp_path / "p.txt"
    save_points(path, PointSet(vals))
    assert (load_points(path).points == vals).all()


def test_abstract_points_round_trip(tmp_path):
    ids = PointSet(np.array([0, 3, 9, 17], dtype=np.int64))
    path = tmp_path / "ids.txt"
    save_points(path, ids)
    back = load_points(path)
    assert back.is_abstract
    assert (back.points == ids.points).all()


def test_graph_round_trip(tmp_path):
    g = ProximityGraph(4, [[1, 3], [], [0], [0, 1, 2]])
    path = tmp_path / "g.txt"
    save_graph(path, g)
    back = load_graph(path)
    assert back == g
    assert back.edge_count == 6


def test_graph_file_is_sorted_and_digest_stable(tmp_path):
    g = ProximityGraph(3, [[1, 2], [2], []])
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_graph(p1, g)
    save_graph(p2, g)
    assert file_digest(p1) == file_digest(p2)
    lines = p1.read_text().splitlines()
    assert lines[0] == "3 3"
    pairs = [tuple(int(t) for t in l.split()) for l in lines[1:]]
    assert pairs == sorted(pairs)


def test_trace_round_trip(tmp_path):
    pts = uniform_points(20, 2, 5)
    space = EuclideanSpace(2)
    g = ProximityGraph(20, [[(v + 1) % 20] if (v + 1) % 20 != v else [] for v in range(20)])
    trace = greedy_search(g, space, pts, 0, np.array([0.5, 0.5]))
    path = tmp_path / "t.txt"
    save_trace(path, trace)
    back = load_trace(path)
    assert back == [(v, d) for v, d in trace.hops]


def test_load_points_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 3\n0.0 0.0\n1.0\n2.0 2.0\n")  # short row
    with pytest.raises(DomainError):
        load_points(bad)
    bad.write_text("x y\n")
    with pytest.raises(DomainError):
        load_points(bad)
    bad.write_text("2 2\n0.0 0.0\n")  # missing row
    with pytest.raises(DomainError):
        load_points(bad)


def test_load_graph_rejects_out_of_range(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 5\n")
    with pytest.raises(DomainError):
        load_graph(bad)
    bad.write_text("2 2\n0 1\n")  # fewer edges than declared
    with pytest.raises(DomainError):
        load_graph(bad)
    bad.write_text("3 3\n0 1\n1 2\n1 2\n")  # a duplicated edge line
    with pytest.raises(DomainError, match="row 1 is not strictly sorted"):
        load_graph(bad)
    bad.write_text("3 2\n0 1\n2 2\n")  # a self-loop
    with pytest.raises(DomainError, match="row 2 contains a self-loop"):
        load_graph(bad)


def test_comments_and_blanks_ignored(tmp_path):
    f = tmp_path / "c.txt"
    f.write_text("# comment\n\n1 2\n0.5\n\n# another\n1.5\n")
    pts = load_points(f)
    assert pts.points.tolist() == [[0.5], [1.5]]


def _save_graph_rowwise(path, graph):
    """The one-list writer save_graph replaced: the byte-equality oracle."""
    out = [f"{graph.n} {graph.edge_count}"]
    for src in range(graph.n):
        out.extend(f"{src} {dst}" for dst in graph.out_edges[src])
    path.write_text("\n".join(out) + "\n")


@pytest.mark.parametrize("n", [1, 5, 128, 129, 300])
def test_chunked_save_graph_matches_rowwise_writer(tmp_path, n):
    rng = np.random.default_rng(n)
    rows = []
    for v in range(n):
        # about a third of the rows are empty, the last one always
        k = 0 if v == n - 1 or rng.random() < 0.35 else int(rng.integers(1, min(n, 9)))
        targets = rng.choice(np.delete(np.arange(n), v), size=min(k, n - 1), replace=False)
        rows.append(np.sort(targets))
    g = ProximityGraph(n, rows)
    save_graph(tmp_path / "chunked.txt", g)
    _save_graph_rowwise(tmp_path / "rowwise.txt", g)
    assert (tmp_path / "chunked.txt").read_bytes() == (tmp_path / "rowwise.txt").read_bytes()


def _random_rows(n, seed, empty_share=0.35):
    """Rows of up to 8 distinct targets; empty_share of them (and the last) empty."""
    rng = np.random.default_rng(seed)
    rows = []
    for v in range(n):
        k = 0 if v == n - 1 or rng.random() < empty_share else int(rng.integers(1, min(n, 9)))
        targets = rng.choice(np.delete(np.arange(n), v), size=min(k, n - 1), replace=False)
        rows.append(np.sort(targets))
    return rows


@pytest.mark.parametrize("edges", ["some", "none"])
@pytest.mark.parametrize("n", [1, 2, 9, 10, 11, 99, 100, 101, 127, 128, 129, 1000, 1001])
def test_save_graph_matches_rowwise_writer_at_width_and_chunk_edges(tmp_path, n, edges):
    rows = _random_rows(n, seed=n) if edges == "some" else [[] for _ in range(n)]
    if edges == "some" and n > 1:
        rows[0] = np.array([n - 1])  # the widest target in the first chunk
    g = ProximityGraph(n, rows)
    save_graph(tmp_path / "table.txt", g)
    _save_graph_rowwise(tmp_path / "rowwise.txt", g)
    assert (tmp_path / "table.txt").read_bytes() == (tmp_path / "rowwise.txt").read_bytes()


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 40))
    rows = [
        sorted(draw(st.sets(st.integers(0, n - 1).filter(lambda t, v=v: t != v), max_size=6)))
        for v in range(n)
    ]
    return ProximityGraph(n, rows)


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_graph_round_trip_property(g):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        save_graph(path, g)
        assert load_graph(path) == g


@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
        min_size=1,
        max_size=30,
        unique=True,
    )
)
@settings(max_examples=60, deadline=None)
def test_points_round_trip_bit_exact_property(values):
    vals = np.array(values).reshape(-1, 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.txt"
        save_points(path, PointSet(vals))
        back = load_points(path).points
    assert back.tobytes() == vals.tobytes()


def _data_lines(path):
    lines = []
    for raw in Path(path).read_text().splitlines():
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append(stripped.split())
    return lines


def _load_graph_linewise(path):
    """The per-line parser load_graph replaced: the oracle on well-formed files."""
    lines = _data_lines(path)
    n, m = int(lines[0][0]), int(lines[0][1])
    assert len(lines) - 1 == m
    rows = [[] for _ in range(n)]
    for row in lines[1:]:
        rows[int(row[0])].append(int(row[1]))
    return ProximityGraph(n, [sorted(r) for r in rows])


def _load_points_linewise(path):
    """The per-line parser load_points replaced: the oracle on well-formed files."""
    lines = _data_lines(path)
    dim, n = int(lines[0][0]), int(lines[0][1])
    assert len(lines) - 1 == n
    if dim == 0:
        return PointSet(np.array([int(row[0]) for row in lines[1:]], dtype=np.int64))
    return PointSet(np.array([[float(t) for t in row] for row in lines[1:]]))


LAYOUT_GRAPHS = {
    "comments": "# made by hand\n4 5\n# row 0\n0 1\n0 3\n#\n2 0\n3 2\n3 1\n",
    "blank lines": "\n\n4 3\n\n0 1\n   \n1 2\n\t\n\n2 3\n\n",
    "crlf": "3 3\r\n0 1\r\n1 2\r\n\r\n2 0\r\n",
    "tabs": "3\t2\n0\t2\n2\t\t1\n",
    "leading spaces": "   3 2\n  0 1\n\t 1 0  \n",
    "unsorted lines": "5 7\n4 0\n0 3\n2 1\n0 1\n4 3\n1 4\n0 2\n",
}


@pytest.mark.parametrize("layout", sorted(LAYOUT_GRAPHS))
def test_load_graph_agrees_with_linewise_parser(tmp_path, layout):
    path = tmp_path / "g.txt"
    path.write_bytes(LAYOUT_GRAPHS[layout].encode())
    assert load_graph(path) == _load_graph_linewise(path)


LAYOUT_POINTS = {
    "comments": "# points\n2 3\n0.5 1.5\n# mid\n2.5 -3e-5\n1e300 0.1\n",
    "blank lines": "\n1 2\n\n0.25\n \n0.75\n\n",
    "crlf": "2 2\r\n0.1 0.2\r\n0.3 0.4\r\n",
    "tabs": "2\t2\n0.1\t0.2\n\t0.3 \t0.4\n",
    "leading spaces": "  0 3\n 7\n   3\n\t9\n",
}


@pytest.mark.parametrize("layout", sorted(LAYOUT_POINTS))
def test_load_points_agrees_with_linewise_parser(tmp_path, layout):
    path = tmp_path / "p.txt"
    path.write_bytes(LAYOUT_POINTS[layout].encode())
    got, want = load_points(path).points, _load_points_linewise(path).points
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "text", ["2 1\n0 1 7\n", "11 1\n1_0 1\n", "2 1\n0 1.0\n", "2 1\n0\n"]
)
def test_load_graph_rejects_other_spellings_and_extra_tokens(tmp_path, text):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    with pytest.raises(DomainError, match="bad.txt"):
        load_graph(bad)


@pytest.mark.parametrize("text", ["0 0.5 7\n", "1_0 0.5\n", "1 0.5\n2\n"])
def test_load_trace_rejects_other_spellings_and_extra_tokens(tmp_path, text):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    with pytest.raises(DomainError, match="bad.txt"):
        load_trace(bad)


def test_load_graph_keeps_its_messages_on_unsorted_lines(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 2\n1 0\n7 1\n")
    with pytest.raises(DomainError, match=r"edge source 7 outside \[0, 3\)"):
        load_graph(bad)
    bad.write_text("3 3\n1 0\n0 1\n")
    with pytest.raises(DomainError, match="header promises 3 edges, found 2"):
        load_graph(bad)
    bad.write_text("3 4\n2 0\n1 2\n0 1\n1 2\n")
    with pytest.raises(DomainError, match="row 1 is not strictly sorted"):
        load_graph(bad)
    bad.write_text("3 3\n2 2\n1 5\n2 9\n")  # row 2 also has a self-loop
    with pytest.raises(DomainError, match=r"row 1 has targets outside \[0, 3\)"):
        load_graph(bad)
    bad.write_text("3 2\n1 -4\n0 0\n")
    with pytest.raises(DomainError, match="row 0 contains a self-loop"):
        load_graph(bad)


def test_file_digest_reads_in_blocks(tmp_path):
    path = tmp_path / "big.bin"
    path.write_bytes(np.random.default_rng(0).bytes(2 * DIGEST_BLOCK + 123))
    assert file_digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()
