#!/usr/bin/env python3
"""incknap benchmark: seeded workloads solved through the CLI, checked exactly.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one caller, closed loop: each ``incknap.cli.main
(["solve", ...])`` call starts when the previous one has returned.  After
the timed phase every answer is checked exactly (see ``workloads``).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat the
metrics for a reader, with the tail percentile and sample counts.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` repeats the
workload's traced pass (its first few instances), alternately without and
with the layer tracer installed, and reports the per-layer metrics plus the
tracing overhead; the spans are written to
``.perfbench/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_ROUNDS = 5
NO_OPT = 1.0  # profit_opt_ratio.min on workloads with no exact optimum
PROBE_LOOPS = 20_000  # one reference unit: this many pure-Python additions


def import_package() -> float:
    """Import the checkout's package and the benchmark modules; return seconds."""
    src = ROOT / "src"
    if not (src / "incknap" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no incknap sources under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import incknap.cli  # noqa: F401
    import tracer  # noqa: F401
    import workloads  # noqa: F401

    elapsed = time.perf_counter() - start
    if not Path(incknap.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: imported incknap from {incknap.cli.__file__}, not {src}")
    return elapsed


@dataclass
class Prepared:
    instances: list
    paths: list[str]
    bounds: list[Fraction]


def setup(workload, seed: int, workdir: Path) -> Prepared:
    """Generate and write the pool, run the regime guard, compute the bounds."""
    from incknap import cli
    from workloads import upper_bound

    instances = [workload.make(seed, i) for i in range(workload.pool)]
    paths = []
    for i, instance in enumerate(instances):
        path = workdir / f"inst-{i}.json"
        path.write_text(cli.instance_to_json(instance))
        paths.append(str(path))
    workload.guard(workload, instances)
    return Prepared(instances, paths, [upper_bound(inst) for inst in instances])


def probe() -> float:
    """Seconds taken by the fixed reference loop at this moment."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i
    return time.perf_counter() - start


@dataclass
class Phase:
    """Outcome of one timed phase: per-solve records in solve order."""

    jobs: list[tuple[int, str]] = field(default_factory=list)  # (instance, mode)
    seconds: list[float] = field(default_factory=list)
    outputs: list = field(default_factory=list)  # output text, or None
    errors: list[str] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)  # reference loop time around each solve
    wall: float = 0.0
    passes: int = 0


def run_phase(workload, prep: Prepared, jobs, workdir: Path, deadline=None, tracer=None, phase=None) -> Phase:
    """One closed-loop pass over ``jobs``, appended to ``phase`` if given.

    With a ``deadline`` (a ``time.perf_counter`` value) the pass stops at
    the first job (an instance in all the workload's modes) that would
    start after it.
    """
    from incknap import cli

    phase = phase if phase is not None else Phase()
    clock = time.perf_counter
    start = clock()
    for idx, mode in jobs:
        if deadline is not None and phase.seconds and mode == workload.modes[0] and clock() >= deadline:
            break
        out = workdir / f"out-{idx}-{mode}.json"
        out.unlink(missing_ok=True)
        argv = ["solve", prep.paths[idx], "--mode", mode, "--eps", workload.eps, "--out", str(out)]
        if tracer is not None:
            tracer.solve = len(phase.seconds)
        error = ""
        before = probe()
        t0 = clock()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is one failed solve
            code, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = clock() - t0
        phase.probes.append((before + probe()) / 2)
        text = out.read_text() if code == 0 and out.is_file() else None
        if not error and code != 0:
            error = f"exit code {code}"
        phase.jobs.append((idx, mode))
        phase.seconds.append(elapsed)
        phase.outputs.append(text)
        phase.errors.append(error)
    else:
        phase.passes += 1
    phase.wall += clock() - start
    return phase


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    reasons: dict = field(default_factory=dict)
    ub_ratio_min: Fraction | None = None
    opt_ratio_min: Fraction | None = None


def verify(workload, prep: Prepared, phases: list[Phase]) -> Verdict:
    """Check every answer exactly; see ``workloads.check_answer``.

    On workloads that also solve in exact mode, the exact answer of the
    same instance is the optimum: the others must not exceed it and must
    reach (1 - eps) of it.  Repeated solves must give byte-identical output.
    """
    from workloads import check_answer

    eps = Fraction(workload.eps)
    verdict = Verdict()
    checked: dict = {}
    first_text: dict = {}
    opt: dict = {}

    def fail(reason: str) -> None:
        verdict.failed += 1
        verdict.reasons[reason] = verdict.reasons.get(reason, 0) + 1

    for phase in phases:
        for (idx, mode), text, error in zip(phase.jobs, phase.outputs, phase.errors):
            verdict.attempted += 1
            if error or text is None:
                fail(error or "no output")
                continue
            if first_text.setdefault((idx, mode), text) != text:
                fail("output differs between repeated solves")
                continue
            if (idx, mode) not in checked:
                checked[(idx, mode)] = check_answer(prep.instances[idx], text, prep.bounds[idx])
            profit, reason = checked[(idx, mode)]
            if reason:
                fail(reason)
                continue
            if mode == "exact":
                opt[idx] = profit
            elif "exact" in workload.modes:
                if idx not in opt:
                    fail("no exact optimum for the instance")
                    continue
                ratio = profit / opt[idx] if opt[idx] else Fraction(1)
                if ratio > 1:
                    fail("profit above the exact optimum")
                    continue
                if ratio < 1 - eps:
                    fail("profit below (1 - eps) of the exact optimum")
                    continue
                if verdict.opt_ratio_min is None or ratio < verdict.opt_ratio_min:
                    verdict.opt_ratio_min = ratio
            ub = prep.bounds[idx]
            ratio = profit / ub if ub else Fraction(1)
            if verdict.ub_ratio_min is None or ratio < verdict.ub_ratio_min:
                verdict.ub_ratio_min = ratio
    return verdict


def tail(samples: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank ``pct``-th percentile and the number of samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(workload, prep, phase: Phase, verdict: Verdict, setup_s: float) -> tuple[dict, list[str]]:
    """Timings in reference units: each solve's wall time over the reference
    loop's time measured around it.  A shared 2-core machine's speed drifts
    by a quarter from minute to minute, and the ratio cancels that; raw
    seconds are printed beside it.  Throughput is printed but not reported: with one
    caller in a closed loop it is 1 / mean solve time, and on verify-small
    a single oracle instance can take a tenth of the whole pass."""
    # A job is one instance solved in each of the workload's modes; its time
    # is the sum of those solve calls.
    jobs: dict = {}
    for (idx, _), seconds, ref in zip(phase.jobs, phase.seconds, phase.probes):
        units, raw = jobs.get(idx, (0.0, 0.0))
        jobs[idx] = (units + seconds / ref, raw + seconds)
    units = [u for u, _ in jobs.values()]
    raws = [r for _, r in jobs.values()]
    value, beyond = tail(units, workload.tail_pct)
    n = len(phase.seconds)
    opt_min = float(verdict.opt_ratio_min) if verdict.opt_ratio_min is not None else NO_OPT
    metrics = {
        "solve_ref.p50": (statistics.median(units), "ref"),
        "solve_ref.tail": (value, "ref"),
        "profit_ub_ratio.min": (float(verdict.ub_ratio_min or 0), "ratio"),
        "profit_opt_ratio.min": (opt_min, "ratio"),
        "success_rate": ((verdict.attempted - verdict.failed) / verdict.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    notes = [
        f"{workload.name}: {n} solves, {len(units)} jobs (instance x modes {'+'.join(workload.modes)}) "
        f"in {phase.wall:.3f} s, one pass, closed loop, 1 caller",
        f"reference unit: {PROBE_LOOPS} loop additions, median {statistics.median(phase.probes) * 1000:.4f} ms "
        f"in this run",
        f"solve_ref.tail is p{workload.tail_pct}: {beyond} of {len(units)} jobs beyond it",
        f"raw wall time: solve_s.p50 {statistics.median(raws):.6f} s, "
        f"solve_s.p{workload.tail_pct} {tail(raws, workload.tail_pct)[0]:.6f} s, "
        f"solves_per_s {n / phase.wall:.4f} 1/s",
        f"fail_rate {verdict.failed}/{verdict.attempted}" + "".join(
            f"; {count} x {reason}" for reason, count in verdict.reasons.items()
        ),
    ]
    if verdict.opt_ratio_min is None:
        notes.append("profit_opt_ratio.min: no exact optimum on this workload, reported as 1")
    else:
        notes.append(f"profit_opt_ratio.min exact: {verdict.opt_ratio_min}")
    if verdict.ub_ratio_min is not None:
        notes.append(f"profit_ub_ratio.min exact: {verdict.ub_ratio_min}")
    return metrics, notes


COUNTERS = (
    "classes.intervals",
    "statespace.enumerate_calls",
    "statespace.family_sum",
    "statespace.heavy_configs",
    "bounded.dp_states",
    "bounded.frontier_builds",
    "bounded.frontier_queries",
    "general.offsets",
    "general.plans",
    "general.grid_points",
    "oracle.calls",
)


def per_layer(workload, jobs, untraced: Phase, traced: Phase, tr) -> tuple[dict, list[str]]:
    """Self-time shares, counters per traced pass, tracing overhead.

    A layer's share is its self time over the whole traced solve time, so
    a layer a workload never enters reads 0 as a ratio; the absolute self
    times per solve are printed beside it.
    """
    from tracer import MAXIMA, SELF_TIMES
    from workloads import HEAVY_SHARE_MIN, RegimeError

    spans = tr.self_times()
    self_s = {name: sum(spans.get(s, 0.0) for s in span_names) for name, span_names in SELF_TIMES.items()}
    busy = sum(self_s.values())
    metrics = {f"{name}_share": (seconds / busy, "ratio") for name, seconds in self_s.items()}
    totals = tr.totals()
    first_pass = tr.totals(solves=range(len(jobs)))
    for name in COUNTERS + MAXIMA:
        if name not in MAXIMA and totals[name] != first_pass[name] * traced.passes:
            raise RegimeError(f"counter {name} differs between traced passes")
        metrics[name] = (first_pass[name], "count")
    family_sum = first_pass["statespace.family_sum"]
    configs_per_vector = first_pass["statespace.heavy_configs"] / family_sum if family_sum else 0.0
    metrics["statespace.configs_per_vector"] = (configs_per_vector, "ratio")
    traced_p50 = statistics.median(traced.seconds)
    untraced_p50 = statistics.median(untraced.seconds)
    metrics["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")

    by_instance: dict[int, list] = {}
    for solve, (idx, _) in enumerate(jobs):
        by_instance.setdefault(idx, []).append(tr.counts.get(solve, {}))
    if workload.name == "bounded-heavy":
        engaged = sum(1 for cs in by_instance.values() if any(c.get("statespace.heavy_configs", 0) for c in cs))
        if Fraction(engaged, len(by_instance)) < HEAVY_SHARE_MIN:
            raise RegimeError(f"heavy branch reached on only {engaged}/{len(by_instance)} traced instances")
    if workload.name == "general-multicluster":
        for idx, cs in by_instance.items():
            plans = sum(c.get("general.plans", 0) for c in cs)
            clusters = max(c.get("general.clusters_max", 0) for c in cs)
            if plans < 2 or clusters < 2:
                raise RegimeError(f"traced instance {idx}: {plans} plans, at most {clusters} clusters")

    solves = len(traced.seconds)
    notes = [
        f"{workload.name} traced pass: {len(by_instance)} instances, {len(jobs)} solves; "
        f"counters per pass, self times per solve over {solves} traced solves",
        f"untraced p50 {untraced_p50:.6f} s over {len(untraced.seconds)} solves, "
        f"traced p50 {traced_p50:.6f} s over {solves} solves",
        f"statespace.configs_per_vector = {first_pass['statespace.heavy_configs']} heavy configs "
        f"/ {family_sum} family vectors",
    ] + [f"{name} {seconds / solves:.6f} s per solve" for name, seconds in self_s.items()]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_package()
    from tracer import Tracer
    from workloads import WORKLOADS, RegimeError

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        rounds = []
        for _ in range(SETUP_ROUNDS):
            start = time.perf_counter()
            prep = setup(workload, args.seed, workdir)
            rounds.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(rounds)

        all_jobs = [(i, mode) for i in range(workload.pool) for mode in workload.modes]
        run_phase(workload, prep, all_jobs[:1], workdir)  # warm-up
        if args.trace == 0:
            phase = run_phase(workload, prep, all_jobs, workdir, deadline=time.perf_counter() + args.seconds)
            verdict = verify(workload, prep, [phase])
            metrics, notes = end_to_end(workload, prep, phase, verdict, setup_s)
        else:
            # Untraced and traced passes alternate, so drift in the machine's
            # speed falls on both sides of the overhead estimate alike.
            jobs = all_jobs[: workload.traced * len(workload.modes)]
            untraced, traced, tr = Phase(), Phase(), Tracer()
            # A pair of passes starts only if one more of the same length ends
            # before the deadline.
            start = time.perf_counter()
            deadline = start + args.seconds
            while True:
                run_phase(workload, prep, jobs, workdir, phase=untraced)
                with tr:
                    run_phase(workload, prep, jobs, workdir, tracer=tr, phase=traced)
                now = time.perf_counter()
                if now + (now - start) / traced.passes > deadline:
                    break
            verdict = verify(workload, prep, [untraced, traced])
            metrics, notes = per_layer(workload, jobs, untraced, traced, tr)
            tr.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl")
    except RegimeError as exc:
        print(f"perfbench: {args.workload} left its regime: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    result = {
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
