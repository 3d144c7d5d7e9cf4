"""Command-line surface: exit codes, manifests, reproducibility."""

import json

import numpy as np
import pytest

from navgraph import (
    EuclideanSpace,
    ProximityGraph,
    build_euclid_pg,
    file_digest,
    load_graph,
    load_points,
    save_graph,
)
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
    # a merged build needs at least one draw
    merged = ["build", "merged", "--eps", 1.0, "--in", pts, "--out", tmp / "m.txt"]
    assert run(merged + ["--repeats", 0]) == 2
    # --q takes the point-file grammar: decimal floats, or one integer id
    query = ["query", "--graph", graph, "--points", pts]
    for q, named in (("0.3,abc", "'abc'"), ("1_0 0.5", "'1_0'"), ("0.5", "1 values")):
        assert run(query + ["--q", q]) == 2
        assert named in capsys.readouterr().err
    leaves = tmp / "tree.txt"
    assert run(["gen", "tree", "--n", 4, "--delta", 8, "--out", leaves]) == 0
    tree = ["--metric", "tree", "--tree-height", 4]
    tree_graph = tmp / "tg.txt"
    assert run(["build", "net", "--eps", 1.0, "--in", leaves, "--out", tree_graph, *tree]) == 0
    query = ["query", "--graph", tree_graph, "--points", leaves, *tree]
    for q, named in (("1.5", "'1.5'"), ("1_0", "'1_0'"), ("1 2", "2 values")):
        assert run(query + ["--q", q]) == 2
        assert named in capsys.readouterr().err
    # a non-finite epsilon is a usage error, not a verification failure
    for eps in ("inf", "nan"):
        for verify in (
            ["--graph", graph, "--points", pts],
            ["--graph", tree_graph, "--points", leaves, *tree],
        ):
            assert run(["verify", "navigable", *verify, "--eps", eps]) == 2
            assert "epsilon must be positive and finite" in capsys.readouterr().err
    # negative or empty counts are usage errors that name the argument
    out = ["--out", tmp / "u.txt"]
    verify = ["verify", "navigable", "--graph", graph, "--points", pts, "--eps", 1.0]
    doubling = ["verify", "doubling", "--samples", 0, "--family"]
    for argv, named in (
        (["gen", "uniform", "--n", -1, "--d", 2, *out], "--n must be >= 1, got -1"),
        (["gen", "uniform", "--n", 5, "--d", -1, *out], "--d must be >= 1, got -1"),
        (["gen", "uniform", "--n", 5, "--d", 0, *out], "--d must be >= 1, got 0"),
        ([*verify, "--n-random", -1], "n_random must be >= 0, got -1"),
        ([*verify, "--n-perturbed", -1], "n_perturbed must be >= 0, got -1"),
        ([*doubling, "tree"], "samples must be >= 1, got 0"),
        ([*doubling, "blocks"], "samples must be >= 1, got 0"),
    ):
        assert run(argv) == 2, argv
        assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "body",
    ["1e300 0\n0 1e300\n1e300 1e300\n", "1e200 2e200\n3e200 1e200\n0 0\n", "0 0\n1e-300 0\n1 1\n"],
    ids=["coords-1e300", "coords-1e200", "gap-1e-300"],
)
def test_range_window_probes_exit_two(tmp_path, capsys, body):
    pts = tmp_path / "p.txt"
    pts.write_text("2 3\n" + body)
    for algo in ("net", "merged"):
        assert run(["build", algo, "--eps", 1.0, "--in", pts, "--out", tmp_path / "g.txt"]) == 2
        assert "range window" in capsys.readouterr().err


def test_wide_spread_points_verify_but_do_not_build(tmp_path, capsys):
    """Normalised cells would overflow int64: builds exit 2, verification runs."""
    pts = tmp_path / "p.txt"
    pts.write_text("2 3\n1e10 0\n1e10 1e-10\n0 1\n")
    graph = tmp_path / "g.txt"
    graph.write_text("3 6\n0 1\n0 2\n1 0\n1 2\n2 0\n2 1\n")
    assert run(["verify", "navigable", "--graph", graph, "--points", pts, "--eps", 1.0]) == 0
    assert "navigable: pass" in capsys.readouterr().out
    for algo in ("net", "merged"):
        assert run(["build", algo, "--eps", 1.0, "--in", pts, "--out", tmp_path / "b.txt"]) == 2
        assert "range window" in capsys.readouterr().err


def test_non_finite_points_exit_two(tmp_path, capsys):
    pts = tmp_path / "nan.txt"
    pts.write_text("2 3\n0 0\n1 nan\n3 1\n")
    graph = tmp_path / "g.txt"
    assert run(["build", "net", "--eps", 1.0, "--in", pts, "--out", graph]) == 2
    assert "point 1 has a non-finite coordinate" in capsys.readouterr().err
    assert not graph.exists()


def test_non_finite_query_exits_two(workspace, capsys):
    tmp, pts = workspace
    graph = tmp / "g.txt"
    assert run(["build", "net", "--eps", 1.0, "--in", pts, "--out", graph]) == 0
    assert run(["query", "--graph", graph, "--points", pts, "--q", "nan 0.5"]) == 2
    assert "non-finite" in capsys.readouterr().err


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


def test_builds_refuse_a_theta_below_the_floor(workspace, capsys):
    tmp, pts = workspace
    out = tmp / "g.txt"
    for algo in ("theta", "merged"):
        # eps / 32 = 1e-5 is the finest cone family the builder accepts
        assert run(["build", algo, "--eps", 3.2e-4, "--in", pts, "--out", out]) == 0
        capsys.readouterr()
        assert run(["build", algo, "--eps", 3.1e-4, "--in", pts, "--out", out]) == 2
        assert "[1e-05, pi)" in capsys.readouterr().err


def test_merged_build_honours_the_metric(workspace):
    tmp, pts = workspace
    built = {}
    for metric in ("l2", "linf"):
        built[metric] = tmp / f"gm-{metric}.txt"
        argv = ["build", "merged", "--eps", 1.0, "--in", pts, "--out", built[metric]]
        assert run(argv + ["--metric", metric]) == 0
    library = tmp / "library-linf.txt"
    points = load_points(pts)
    save_graph(library, build_euclid_pg(points, 1.0, space=EuclideanSpace(2, "linf")))
    assert file_digest(built["linf"]) == file_digest(library)
    assert file_digest(built["linf"]) != file_digest(built["l2"])


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


def test_verify_net_props_via_cli(workspace, capsys):
    tmp, pts = workspace
    graph = tmp / "g.txt"
    assert run(["build", "net", "--eps", 1.0, "--in", pts, "--out", graph]) == 0
    props = ["verify", "net-props", "--graph", graph, "--points", pts, "--eps", 1.0]
    assert run(props) == 0
    # the file is what is checked: drop one edge and it fails
    g = load_graph(graph)
    rows = list(g.out_edges)
    rows[3] = rows[3][1:]
    save_graph(graph, ProximityGraph(g.n, rows))
    capsys.readouterr()
    assert run(props) == 1
    assert "FAIL edge-set-mismatch at vertex 3" in capsys.readouterr().out
    # a graph over another point count is an input error
    other = tmp / "pts60.txt"
    assert run(["gen", "uniform", "--n", 60, "--d", 2, "--seed", 3, "--out", other]) == 0
    assert run(["verify", "net-props", "--graph", graph, "--points", other, "--eps", 1.0]) == 2


def test_tree_metric_build_and_verify_via_cli(tmp_path, capsys):
    leaves = tmp_path / "tree.txt"
    assert run(["gen", "tree", "--n", 8, "--delta", 64, "--out", leaves]) == 0
    assert load_points(leaves).n == 11
    graph = tmp_path / "g.txt"
    tree = ["--metric", "tree", "--tree-height", 12]
    assert run(["build", "net", "--eps", 1.0, "--in", leaves, "--out", graph, *tree]) == 0
    assert load_graph(graph).edge_count == 93
    props = ["verify", "net-props", "--graph", graph, "--points", leaves, "--eps", 1.0]
    assert run([*props, *tree]) == 0
    assert "93 edges" in capsys.readouterr().out
    # leaf 64 does not exist in a height-6 tree
    short = ["--metric", "tree", "--tree-height", 6]
    assert run(["build", "net", "--eps", 1.0, "--in", leaves, "--out", graph, *short]) == 2
    assert run([*props, *short]) == 2


def test_bench_pins_machine_independent_outputs(tmp_path):
    out = tmp_path / "BENCH_x.json"
    out.write_text(json.dumps({"before": {"results": []}}))
    assert run(["bench", "--out", out, "--label", "after", "--max-n", 1000]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"about", "before", "after"}
    rows = doc["after"]["results"]
    assert [(r["input"], r["n"]) for r in rows] == [
        ("uniform", 1000), ("forced-tree", 32), ("forced-tree", 256),
    ]
    net, *forced = rows
    assert net["graph_sha256"] == (
        "2af81a1e972b6f2648eee957563d34a71cc66adeffca4323d2116bad458f588a"
    )
    assert (net["edges"], net["levels"], net["theta_edges"]) == (179489, 15, 148863)
    # the theta graph's edge codes and edge_cones, as the sort-based builder
    # gave them
    assert net["theta_sha256"] == (
        "f172c54003cfbf9f2dc3b91fb45379897174e8eb76a4aa7367e48fbadd801538"
    )
    assert net["dist_evals"]["theta"] is None
    stages = ("normalize", "hierarchy", "net_edges")
    # the hierarchy: its anchor row (1000) and pairwise_min_distance (2007),
    # then the one grid sweep over every level (138407 pairs when each level
    # had a sweep of its own)
    assert [net["dist_evals"][s] for s in stages] == [2006, 3007 + 21410, 323546]
    assert net["query_dist_evals"] == {"p50": 521, "p99": 779}
    assert net["dist_evals"]["navigable"] == 1000 * 1000 and net["navigable"]
    assert net["dist_evals"]["net_props"] == 1000 * 1000 + 179489 and net["net_props"]
    assert set(net["seconds"]) == {
        *stages, "save", "load", "theta", "route", "navigable", "net_props"
    }
    assert [(r["certified"], r["expected"]) for r in forced] == [(160, 160), (2048, 2048)]


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
