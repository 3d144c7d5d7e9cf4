"""Command-line surface: exit codes, manifests, reproducibility."""

import json

import numpy as np
import pytest

from navgraph import file_digest, load_graph, load_points
from navgraph.cli import main


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def workspace(tmp_path):
    pts = tmp_path / "pts.txt"
    assert run(["gen", "uniform", "--n", 80, "--d", 2, "--seed", 3, "--out", pts]) == 0
    return tmp_path, pts


def test_gen_uniform_writes_points_and_manifest(workspace):
    tmp, pts = workspace
    loaded = load_points(pts)
    assert loaded.n == 80 and loaded.dim == 2
    manifest = json.loads((tmp / "pts.txt.manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["outputs"][str(pts)] == file_digest(pts)
    assert manifest["seeds"] == {"seed": 3}


def test_gen_is_deterministic(workspace, tmp_path):
    tmp, pts = workspace
    again = tmp_path / "again.txt"
    assert run(["gen", "uniform", "--n", 80, "--d", 2, "--seed", 3, "--out", again]) == 0
    assert file_digest(pts) == file_digest(again)


def test_gen_tree_and_blocks(tmp_path):
    tree = tmp_path / "tree.txt"
    assert run(["gen", "tree", "--n", 4, "--delta", 8, "--out", tree]) == 0
    ids = load_points(tree)
    assert ids.is_abstract and ids.n == 6
    blocks = tmp_path / "blocks.txt"
    assert run(["gen", "blocks", "--s", 2, "--t", 2, "--d", 2, "--out", blocks]) == 0
    assert load_points(blocks).n == 8


def test_build_query_verify_pipeline(workspace):
    tmp, pts = workspace
    graph = tmp / "g.txt"
    assert run(["build", "net", "--eps", 1.0, "--in", pts, "--out", graph]) == 0
    g = load_graph(graph)
    assert g.n == 80
    manifest = json.loads((tmp / "g.txt.manifest.json").read_text())
    assert manifest["parameters"]["algo"] == "net"
    assert manifest["summary"]["edges"] == g.edge_count
    assert manifest["inputs"][str(pts)] == file_digest(pts)
    # query runs and exits cleanly
    assert (
        run(["query", "--graph", graph, "--points", pts, "--q", "0.3,0.6", "--start", 2])
        == 0
    )
    # verifier passes on the real graph
    assert (
        run(["verify", "navigable", "--graph", graph, "--points", pts, "--eps", 1.0])
        == 0
    )


def test_build_rerun_is_byte_identical(workspace):
    tmp, pts = workspace
    g1, g2 = tmp / "g1.txt", tmp / "g2.txt"
    for out in (g1, g2):
        assert run(["build", "net", "--eps", 0.5, "--in", pts, "--out", out]) == 0
    assert file_digest(g1) == file_digest(g2)


def test_fast_and_naive_builds_agree_via_cli(workspace):
    tmp, pts = workspace
    gf, gn = tmp / "gf.txt", tmp / "gn.txt"
    assert run(["build", "net", "--eps", 1.0, "--in", pts, "--out", gf]) == 0
    assert run(["build", "net-naive", "--eps", 1.0, "--in", pts, "--out", gn]) == 0
    assert file_digest(gf) == file_digest(gn)


def test_verify_navigable_fails_with_exit_one(workspace):
    tmp, pts = workspace
    graph = tmp / "g.txt"
    assert run(["build", "net", "--eps", 1.0, "--in", pts, "--out", graph]) == 0
    text = graph.read_text().splitlines()
    n, m = text[0].split()
    kept = [l for l in text[1:] if not l.startswith("7 ")]
    bad = tmp / "bad.txt"
    bad.write_text(f"{n} {len(kept)}\n" + "\n".join(kept) + "\n")
    assert (
        run(["verify", "navigable", "--graph", bad, "--points", pts, "--eps", 1.0]) == 1
    )


def test_usage_errors_exit_two(workspace, capsys):
    tmp, pts = workspace
    graph = tmp / "g.txt"
    assert run(["build", "net", "--eps", 1.0, "--in", pts, "--out", graph]) == 0
    # nonpositive budget is a domain error
    assert (
        run(
            ["query", "--graph", graph, "--points", pts, "--q", "0.1,0.1", "--budget", 0]
        )
        == 2
    )
    # missing file is an IO error
    assert run(["build", "net", "--eps", 1.0, "--in", tmp / "nope.txt", "--out", graph]) == 2


def test_non_finite_points_exit_two(tmp_path, capsys):
    pts = tmp_path / "nan.txt"
    pts.write_text("2 3\n0 0\n1 nan\n3 1\n")
    graph = tmp_path / "g.txt"
    assert run(["build", "net", "--eps", 1.0, "--in", pts, "--out", graph]) == 2
    assert "point 1 has a non-finite coordinate" in capsys.readouterr().err
    assert not graph.exists()


def test_theta_and_merged_builds(workspace):
    tmp, pts = workspace
    gt = tmp / "gt.txt"
    assert run(["build", "theta", "--eps", 1.0, "--in", pts, "--out", gt]) == 0
    manifest = json.loads((tmp / "gt.txt.manifest.json").read_text())
    assert manifest["summary"]["cones"] == 202
    gm = tmp / "gm.txt"
    assert run(
        ["build", "merged", "--eps", 1.0, "--in", pts, "--out", gm, "--seed", 7]
    ) == 0
    manifest = json.loads((tmp / "gm.txt.manifest.json").read_text())
    assert 0.0 < manifest["summary"]["tau"] <= 1.0
    best = tmp / "best.txt"
    assert run(
        [
            "build", "merged", "--eps", 1.0, "--in", pts, "--out", best,
            "--seed", 7, "--repeats", 4,
        ]
    ) == 0
    manifest = json.loads((tmp / "best.txt.manifest.json").read_text())
    sizes = manifest["summary"]["run_sizes"]
    assert len(sizes) == 4
    assert load_graph(best).edge_count == min(s for _, s in sizes)


def test_theta_build_in_3d_at_the_papers_angle(tmp_path):
    pts = tmp_path / "pts3.txt"
    assert run(["gen", "uniform", "--n", 40, "--d", 3, "--seed", 5, "--out", pts]) == 0
    gt = tmp_path / "gt3.txt"
    assert run(["build", "theta", "--eps", 1.0, "--in", pts, "--out", gt]) == 0
    manifest = json.loads((tmp_path / "gt3.txt.manifest.json").read_text())
    assert manifest["summary"]["cones"] == 162006  # theta = eps/32
    assert load_graph(gt).n == 40
    assert (
        run(["verify", "navigable", "--graph", gt, "--points", pts, "--eps", 1.0])
        == 0
    )


def test_verify_family_subcommands(tmp_path):
    assert run(["verify", "forced-tree", "--n", 4, "--delta", 8]) == 0
    assert run(["verify", "forced-blocks", "--s", 2, "--t", 1, "--d", 1]) == 0
    assert run(
        ["verify", "doubling", "--family", "tree", "--n", 4, "--delta", 8,
         "--samples", 200, "--seed", 1]
    ) == 0
    assert run(
        ["verify", "doubling", "--family", "blocks", "--s", 2, "--t", 1, "--d", 1,
         "--p-star", 0, "--samples", 200, "--seed", 1]
    ) == 0
    assert run(["verify", "triangle", "--s", 2, "--t", 1, "--d", 2]) == 0
    assert run(["verify", "facts"]) == 0
    # constraint violations surface as usage errors
    assert run(["verify", "forced-tree", "--n", 3, "--delta", 8]) == 2


def test_verify_net_props_via_cli(workspace):
    tmp, pts = workspace
    assert run(["verify", "net-props", "--points", pts, "--eps", 1.0]) == 0


def test_tree_metric_build_and_verify_via_cli(tmp_path, capsys):
    leaves = tmp_path / "tree.txt"
    assert run(["gen", "tree", "--n", 8, "--delta", 64, "--out", leaves]) == 0
    assert load_points(leaves).n == 11
    graph = tmp_path / "g.txt"
    tree = ["--metric", "tree", "--tree-height", 12]
    assert run(["build", "net", "--eps", 1.0, "--in", leaves, "--out", graph, *tree]) == 0
    assert load_graph(graph).edge_count == 93
    assert run(["verify", "net-props", "--points", leaves, "--eps", 1.0, *tree]) == 0
    assert "93 edges" in capsys.readouterr().out
    # leaf 64 does not exist in a height-6 tree
    short = ["--metric", "tree", "--tree-height", 6]
    assert run(["build", "net", "--eps", 1.0, "--in", leaves, "--out", graph, *short]) == 2
    assert run(["verify", "net-props", "--points", leaves, "--eps", 1.0, *short]) == 2


def test_bench_csv_shape(workspace):
    tmp, pts = workspace
    out = tmp / "bench.csv"
    assert run(
        ["bench", "--sizes", "60,90", "--algos", "net,theta", "--eps", 1.0,
         "--d", 2, "--queries", 10, "--out", out]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",") == [
        "n", "eps", "d", "algo", "edges", "build_ms", "mean_hops",
        "mean_dist_computations", "p99_dist_computations",
    ]
    assert len(lines) == 1 + 4
    rows = [l.split(",") for l in lines[1:]]
    assert [r[0] for r in rows] == ["60", "60", "90", "90"]


def test_query_trace_file(workspace):
    tmp, pts = workspace
    graph = tmp / "g.txt"
    assert run(["build", "net", "--eps", 1.0, "--in", pts, "--out", graph]) == 0
    trace = tmp / "trace.txt"
    assert run(
        ["query", "--graph", graph, "--points", pts, "--q", "0.4,0.4",
         "--start", 1, "--trace", trace]
    ) == 0
    from navgraph import load_trace

    hops = load_trace(trace)
    assert len(hops) >= 1
    dists = [d for _, d in hops]
    assert all(a > b for a, b in zip(dists, dists[1:]))
