"""Per-layer tracing for the benchmark, installed around navgraph from outside.

``install`` rebinds every public function of the traced navgraph modules, at
every name a navgraph module binds it under (``navgraph.euclid`` calls
``build_theta_graph`` through its own module global, the package exposes it
again), to a wrapper that records a span.  ``ProximityGraph.__init__`` is
wrapped on the class, so ``isinstance`` checks still see the real class.
``uninstall`` restores the originals; an untraced run never calls
``install``.

Spans nest through a stack, so each span's self time is its duration minus
the time its direct children cover.  Distance work is counted by subclasses of
the metric spaces rather than by wrappers: they keep ``isinstance`` dispatch,
so the builders still take the Euclidean grid path.  That path and the cone
path compute distances inline and do not show in ``metrics.distances.*``.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

import numpy as np

import navgraph
from navgraph.metrics import EuclideanSpace, TreeMetricSpace

TRACED_MODULES = (
    "metrics",
    "nets",
    "netpg",
    "theta",
    "euclid",
    "graph",
    "protocol",
    "hard",
    "fileio",
)

# build_net_pg is the name production callers use for build_net_pg_fast.
ALIASES = {"netpg.build_net_pg_fast": "netpg.build_net_pg"}


def _edges(name):
    return lambda tracer, args, result: tracer.add(name, result.edge_count)


def _length(name):
    return lambda tracer, args, result: tracer.add(name, len(result))


def _certified(tracer, args, result):
    tracer.add("hard.certified", result.certified)


def _hops(tracer, args, result):
    tracer.hops.append(len(result.hops) - 1)


def _graph_bytes(tracer, args, result):
    tracer.add("fileio.graph_bytes", os.path.getsize(args[0]))


#: Counts read off a traced call's arguments and result, by span name.
RESULT_COUNTERS = {
    "nets.greedy_r_net": _length("nets.net_members"),
    "netpg.build_net_pg": _edges("netpg.edges"),
    "theta.build_cone_family": _length("theta.cones"),
    "theta.build_theta_graph": _edges("theta.edges"),
    "euclid.sample_jackpots": _length("euclid.jackpots"),
    "hard.verify_forced_edges_tree": _certified,
    "hard.verify_forced_edges_blocks": _certified,
    "graph.greedy_search": _hops,
    "fileio.save_graph": _graph_bytes,
}


class Tracer:
    """Spans and counts of one traced cycle; ``reset`` starts the next one.

    ``spans`` holds every finished span as (id, parent id, name, start, end,
    self seconds); a root span has parent id -1.
    """

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []  # open spans: [id, name, start, child seconds]
        self.opened = 0
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self.hops: list[int] = []  # per greedy_search call

    def enter(self, name: str) -> None:
        self.stack.append([self.opened, name, time.perf_counter(), 0.0])
        self.opened += 1

    def exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child = self.stack.pop()
        duration = end - start
        parent = -1
        if self.stack:
            self.stack[-1][3] += duration
            parent = self.stack[-1][0]
        self.spans.append((span_id, parent, name, start, end, duration - child))

    def add(self, name: str, amount) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def count_distances(self, rows: int) -> None:
        self.add("metrics.distances.calls", 1)
        self.add("metrics.distances.rows", rows)

    def cycle_metrics(self) -> dict[str, float]:
        """Per-layer values of the cycle: inclusive and self seconds, calls, counts.

        Inclusive time counts only the outermost span of a name, so a
        function reached again beneath itself is not counted twice.
        """
        parent_of = {span[0]: span[1] for span in self.spans}
        name_of = {span[0]: span[2] for span in self.spans}
        out: dict[str, float] = dict(self.counts)
        for span_id, parent, name, start, end, self_s in self.spans:
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + self_s
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            while parent >= 0 and name_of[parent] != name:
                parent = parent_of[parent]
            if parent < 0:
                out[name + ".s"] = out.get(name + ".s", 0.0) + (end - start)
        if self.hops:
            for q in (50, 99):
                out[f"graph.greedy_search.hops_p{q}"] = float(
                    np.percentile(self.hops, q, method="nearest")
                )
        return out


def _wrap(tracer: Tracer, name: str, fn):
    counter = RESULT_COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if counter is not None:
            counter(tracer, args, result)
        return result

    return traced


def install(tracer: Tracer) -> list[tuple]:
    """Wrap the traced modules' public functions; returns what ``uninstall`` needs."""
    wrappers = {}
    for short in TRACED_MODULES:
        module = sys.modules["navgraph." + short]
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                name = f"{short}.{fn.__name__}"
                wrappers[id(fn)] = (fn, _wrap(tracer, ALIASES.get(name, name), fn))
    patches = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "navgraph" and not mod_name.startswith("navgraph."):
            continue
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                patches.append((module, attr, value))
    cls = navgraph.graph.ProximityGraph
    patches.append((cls, "__init__", cls.__init__))
    cls.__init__ = _wrap(tracer, "graph.ProximityGraph", cls.__init__)
    return patches


def uninstall(patches: list[tuple]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


class CountingEuclideanSpace(EuclideanSpace):
    """EuclideanSpace that counts batch distance calls and rows."""

    def __init__(self, dim: int, tracer: Tracer):
        super().__init__(dim)
        self._tracer = tracer

    def distances(self, elements, x):
        self._tracer.count_distances(1 if np.ndim(elements) == 1 else len(elements))
        return super().distances(elements, x)


class CountingTreeMetricSpace(TreeMetricSpace):
    """TreeMetricSpace that counts batch distance calls and rows."""

    def __init__(self, height: int, tracer: Tracer):
        super().__init__(height)
        self._tracer = tracer

    def distances(self, elements, x):
        self._tracer.count_distances(len(elements))
        return super().distances(elements, x)


class PlainSpaces:
    """The spaces an untraced cycle uses: navgraph's own classes."""

    def euclidean(self, dim: int):
        return EuclideanSpace(dim)

    def tree(self, height: int):
        return TreeMetricSpace(height)


class CountingSpaces:
    """The spaces a traced cycle uses: counting subclasses of navgraph's."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def euclidean(self, dim: int):
        return CountingEuclideanSpace(dim, self.tracer)

    def tree(self, height: int):
        return CountingTreeMetricSpace(height, self.tracer)
