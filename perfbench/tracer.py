"""Outside-in layer tracer: wraps the package's layer functions at their call sites.

``from .x import y`` binds ``y`` into the importing module, so a layer is
patched where it is called (``incknap.bounded.enumerate_family``, not
``incknap.statespace.enumerate_family``).  Each wrapped call records a span
(name, start, end, parent span, solve id) in memory; observers add work
counters taken from the arguments and return values.  Nothing under
``incknap`` is edited, and ``uninstall`` restores every patched name.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

from incknap import bounded, cli, general, oracle, statespace

# Layers: name -> the spans whose self time it sums.  Every span name is
# listed once, so the layers' self times add up to the traced solve time.
SELF_TIMES = {
    "cli.io": ("cli.main",),
    "classes.build": ("classes.build", "classes.intervals"),
    "statespace.enumerate": ("statespace.enumerate",),
    "bounded.dp_solve": ("bounded.dp_solve",),
    "bounded.frontier_build": ("bounded.frontier_build",),
    "bounded.frontier_query": ("bounded.frontier_query",),
    "bounded.solve_self": ("bounded.solve",),
    "general.cluster_dp_self": ("general.glue", "general.cluster_dp"),
    "general.solve_self": ("general.solve", "general.build_plan", "general.build_grid"),
    "oracle.exact": ("oracle.exact",),
}

# Counters kept as the maximum over a pass rather than the sum.
MAXIMA = ("statespace.family_max", "general.clusters_max")


class Tracer:
    """Spans and counters of one traced phase; install, run, uninstall."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, solve id)
        self.counts: dict[int, Counter] = defaultdict(Counter)  # solve id -> counters
        self.solve = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        self.counts[self.solve][name] += amount

    def _max(self, name: str, value: int) -> None:
        counters = self.counts[self.solve]
        counters[name] = max(counters[name], value)

    def _wrap(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.solve)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _counting_generator(self, fn, counter: str):
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self._count(counter)
                yield item

        return counted

    # -- observers -------------------------------------------------------

    def _on_enumerate(self, args, family) -> None:
        self._count("statespace.enumerate_calls")
        self._count("statespace.family_sum", len(family))
        self._max("statespace.family_max", len(family))

    def _on_dp(self, args, table) -> None:
        family, capacities = args[2], args[3]
        self._count("bounded.dp_states", len(family) * len(capacities))

    def _on_glue(self, args, result) -> None:
        self._count("general.plans")
        self._max("general.clusters_max", args[0].num_clusters)

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        frontier_cls = bounded.InverseFrontier
        wrap, count = self._wrap, self._count
        frontier = wrap(
            "bounded.frontier_build", frontier_cls, lambda a, r: count("bounded.frontier_builds")
        )
        patches = [
            (cli, "main", wrap("cli.main", cli.main)),
            (bounded, "build_classes", wrap("classes.build", bounded.build_classes)),
            (general, "build_classes", wrap("classes.build", general.build_classes)),
            (
                bounded,
                "candidate_intervals",
                wrap(
                    "classes.intervals",
                    bounded.candidate_intervals,
                    lambda a, r: count("classes.intervals", len(r)),
                ),
            ),
            (
                bounded,
                "enumerate_family",
                wrap("statespace.enumerate", bounded.enumerate_family, self._on_enumerate),
            ),
            (
                statespace,
                "heavy_configurations",
                self._counting_generator(statespace.heavy_configurations, "statespace.heavy_configs"),
            ),
            (bounded, "dp_solve", wrap("bounded.dp_solve", bounded.dp_solve, self._on_dp)),
            (bounded, "InverseFrontier", frontier),
            (general, "InverseFrontier", frontier),
            (
                frontier_cls,
                "query",
                wrap(
                    "bounded.frontier_query",
                    frontier_cls.query,
                    lambda a, r: count("bounded.frontier_queries"),
                ),
            ),
            (bounded, "solve_bounded", wrap("bounded.solve", bounded.solve_bounded)),
            (
                general,
                "build_plan",
                wrap("general.build_plan", general.build_plan, lambda a, r: count("general.offsets")),
            ),
            (
                general,
                "build_grid",
                wrap(
                    "general.build_grid",
                    general.build_grid,
                    lambda a, r: count("general.grid_points", len(r.values)),
                ),
            ),
            (general, "cluster_dp", wrap("general.cluster_dp", general.cluster_dp)),
            (general, "glue", wrap("general.glue", general.glue, self._on_glue)),
            (general, "solve_detailed", wrap("general.solve", general.solve_detailed)),
            (
                oracle,
                "exact_opt",
                wrap("oracle.exact", oracle.exact_opt, lambda a, r: count("oracle.calls")),
            ),
        ]
        for owner, attr, replacement in patches:
            self._patch(owner, attr, replacement)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reporting -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[idx]
        return dict(totals)

    def totals(self, solves=None) -> Counter:
        """Counters summed over solves (maxima kept as maxima)."""
        out: Counter = Counter()
        for solve, counters in self.counts.items():
            if solves is not None and solve not in solves:
                continue
            for name, value in counters.items():
                out[name] = max(out[name], value) if name in MAXIMA else out[name] + value
        return out

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent index, solve id."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            handle.write(json.dumps({"counters": {str(k): v for k, v in self.counts.items()}}) + "\n")
