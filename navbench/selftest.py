"""Self-test of the benchmark's tracing, on instances small enough to check by hand.

Run from the root of a navgraph checkout:

    python3 navbench/selftest.py
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import navgraph as ng  # noqa: E402
import tracing  # noqa: E402
from workloads import NetD2, MergedD2, RouteD2, TreeHard  # noqa: E402

#: Each workload at a size that runs in about a second.
TINY = {
    NetD2: {"n": 60, "queries": 20, "checks": 8},
    MergedD2: {"n": 60, "queries": 20, "checks": 8},
    RouteD2: {"n": 60, "protocol": 40, "starts_per_query": 2},
    TreeHard: {"leaves": 16, "queries": 10, "tree": (4, 8), "blocks": (2, 2, 2)},
}


def traced(tracer, fn):
    patches = tracing.install(tracer)
    try:
        return fn()
    finally:
        tracing.uninstall(patches)


class FivePointTree(unittest.TestCase):
    """Leaves 0, 1, 2, 4, 7 of a height-3 tree metric.

    d(a, b) = 2 ** bit_length(a ^ b): the pairs are at 2 (0-1), 4 (0-2, 1-2,
    4-7) and 8 (the other six).  The minimum is 2, so ``normalize`` keeps
    scale 1, and the anchor row from leaf 0 peaks at 8, so the hierarchy tops
    out at level ceil(log2(2 * 8)) = 4.
    """

    def run_traced(self):
        tracer = tracing.Tracer()
        space = tracing.CountingTreeMetricSpace(3, tracer)
        pts = ng.PointSet(np.array([0, 1, 2, 4, 7]))

        def work():
            norm = ng.normalize(space, pts)
            return ng.build_net_hierarchy(norm.space, norm.points)

        hierarchy = traced(tracer, work)
        return tracer, hierarchy

    def test_distance_counts_match_hand_count(self):
        tracer, hierarchy = self.run_traced()
        self.assertEqual(hierarchy.top_level, 4)
        # normalize: one 5-row call per point (pairwise minimum).
        # estimate_extremes: the anchor row plus one 5-row call per point.
        # greedy_r_net scans points 1..4 against the members accepted so
        # far; accepted sets at radius 2, 4, 8, 16 end as 5, 4, 2, 1 members
        # and the scans cost 1+2+3+4, 1+1+2+3, 1+1+1+2 and 1+1+1+1 rows.
        calls = 5 + 6 + 4 * 4
        rows = 25 + 30 + (10 + 7 + 5 + 4)
        m = tracer.cycle_metrics()
        self.assertEqual(m["metrics.distances.calls"], calls)
        self.assertEqual(m["metrics.distances.rows"], rows)
        self.assertEqual(m["nets.greedy_r_net.calls"], 4)
        self.assertEqual(m["nets.net_members"], 5 + 4 + 2 + 1)
        self.assertEqual([len(net.members) for net in hierarchy.levels], [5, 5, 4, 2, 1])

    def test_self_times_sum_to_parent_span(self):
        tracer, _ = self.run_traced()
        spans = {s[0]: s for s in tracer.spans}
        names = {s[2] for s in tracer.spans}
        self.assertLessEqual(
            {"netpg.normalize", "metrics.pairwise_min_distance",
             "nets.build_net_hierarchy", "metrics.estimate_extremes",
             "nets.greedy_r_net"},
            names,
        )
        roots = [s for s in tracer.spans if s[1] == -1]
        self.assertEqual([s[2] for s in roots], ["netpg.normalize", "nets.build_net_hierarchy"])
        for root in roots:
            below = [s for s in tracer.spans if self.descends(spans, s, root[0])]
            self.assertAlmostEqual(sum(s[5] for s in below), root[4] - root[3], delta=1e-9)
        for span_id, parent, name, start, end, self_s in tracer.spans:
            self.assertGreaterEqual(self_s, 0.0)
            if parent >= 0:
                self.assertLessEqual(spans[parent][3], start)
                self.assertLessEqual(end, spans[parent][4])
        parents = {spans[s[1]][2] for s in tracer.spans if s[2] == "nets.greedy_r_net"}
        self.assertEqual(parents, {"nets.build_net_hierarchy"})

    @staticmethod
    def descends(spans, span, root_id):
        while True:
            if span[0] == root_id:
                return True
            if span[1] < 0:
                return False
            span = spans[span[1]]

    def test_uninstall_restores_every_binding(self):
        before = ng.euclid.build_theta_graph, ng.build_net_pg, ng.netpg.build_net_pg_fast
        init = ng.ProximityGraph.__init__
        patches = tracing.install(tracing.Tracer())
        self.assertIsNot(ng.euclid.build_theta_graph, before[0])
        self.assertIs(ng.netpg.build_net_pg, ng.netpg.build_net_pg_fast)
        tracing.uninstall(patches)
        self.assertEqual(
            (ng.euclid.build_theta_graph, ng.build_net_pg, ng.netpg.build_net_pg_fast),
            before,
        )
        self.assertIs(ng.ProximityGraph.__init__, init)


class TinyWorkloads(unittest.TestCase):
    """One traced and one untraced cycle of every workload at a tiny size."""

    @classmethod
    def setUpClass(cls):
        cls.metrics = {}
        cls.outputs = {}
        for wl_cls, sizes in TINY.items():
            with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
                wl = wl_cls(3, Path(tmp), **sizes)
                wl.setup()
                plain = wl.cycle(tracing.PlainSpaces())
                tracer = tracing.Tracer()
                counted = traced(tracer, lambda: wl.cycle(tracing.CountingSpaces(tracer)))
                cls.metrics[wl.name] = tracer.cycle_metrics()
                cls.outputs[wl.name] = (plain, counted, wl.check([plain, counted]))

    def test_traced_and_untraced_outputs_match(self):
        for name, (plain, counted, (attempted, failed)) in self.outputs.items():
            with self.subTest(workload=name):
                self.assertEqual(plain.get("digest"), counted.get("digest"))
                np.testing.assert_array_equal(plain["finals"], counted["finals"])
                np.testing.assert_array_equal(plain["dist_evals"], counted["dist_evals"])
                self.assertEqual(failed, 0)
                self.assertGreater(attempted, 0)

    def test_every_per_layer_metric_is_produced(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        produced = set()
        for m in self.metrics.values():
            produced |= {k for k, v in m.items() if v}
        # the overhead comes from comparing cycles, not from one cycle's spans
        wanted = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_pct"}
        self.assertEqual(wanted - produced, set())

    def test_layers_stay_on_their_workloads(self):
        for name in ("net-d2", "tree-hard", "route-d2"):
            self.assertEqual(self.metrics[name].get("theta.build_theta_graph.s", 0.0), 0.0)
        self.assertGreater(self.metrics["merged-d2"]["theta.build_theta_graph.s"], 0.0)
        self.assertEqual(self.metrics["route-d2"].get("netpg.build_net_pg.s", 0.0), 0.0)
        self.assertEqual(self.metrics["tree-hard"]["hard.certified"], 4 * 2 + 2 * 4 * 3)


if __name__ == "__main__":
    unittest.main()
