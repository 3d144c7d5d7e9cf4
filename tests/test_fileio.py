"""Interchange formats: bit-exact round trips and malformed-input rejection."""

import numpy as np
import pytest

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


def test_graph_round_trip_and_provenance(tmp_path):
    g = ProximityGraph(4, [[1, 3], [], [0], [0, 1, 2]], provenance="net")
    path = tmp_path / "g.txt"
    save_graph(path, g)
    back = load_graph(path)
    assert back == g
    assert back.provenance == "custom"  # files don't carry provenance
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
