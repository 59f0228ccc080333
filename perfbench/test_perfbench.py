"""Checks of the benchmark's own reference code and tracer.

Run with the package on the path, e.g. ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

import run
import tracer
import workloads
from incknap import bounded, cli, general, oracle, statespace
from incknap.model import Instance


def _small_instances():
    for seed in range(12):
        for profile in cli.PROFILES:
            yield cli.generate_instance(seed, 6, 3, profile)
    yield Instance.build(
        items=[(Fraction(3, 2), Fraction(1, 3)), (Fraction(2), Fraction(5, 7)), (Fraction(1), Fraction(1, 2))],
        capacities=[Fraction(1, 2), Fraction(6, 7), Fraction(3, 2)],
        lambdas=[Fraction(1, 3), 0, Fraction(2)],
    )


@pytest.mark.parametrize("instance", list(_small_instances()))
def test_upper_bound_dominates_exact_optimum(instance):
    opt, _ = oracle.exact_opt(instance)
    assert workloads.upper_bound(instance) >= opt


def test_check_answer_rejects_tampered_output():
    instance = cli.generate_instance(3, 6, 3, "uniform")
    profit, solution = oracle.exact_opt(instance)
    text = cli.solution_to_json(instance, solution, profit)
    ub = workloads.upper_bound(instance)
    assert workloads.check_answer(instance, text, ub) == (profit, "")

    doc = json.loads(text)
    doc["profit"] = cli.format_rational(profit + 1)
    assert workloads.check_answer(instance, json.dumps(doc), ub)[0] is None

    doc = json.loads(text)
    doc["intro"] = [1] * instance.n  # everything at once overflows period 1
    assert "capacity" in workloads.check_answer(instance, json.dumps(doc), ub)[1]

    assert workloads.check_answer(instance, "not json", ub)[0] is None


def test_tracer_restores_patched_names():
    names = [
        (cli, "main"),
        (bounded, "enumerate_family"),
        (bounded, "InverseFrontier"),
        (general, "InverseFrontier"),
        (general, "glue"),
        (statespace, "heavy_configurations"),
        (oracle, "exact_opt"),
    ]
    before = [getattr(owner, attr) for owner, attr in names]
    query = bounded.InverseFrontier.query
    with tracer.Tracer():
        assert getattr(general, "glue") is not before[4]
    assert [getattr(owner, attr) for owner, attr in names] == before
    assert bounded.InverseFrontier.query is query


def _traced_pass(workload, prep, jobs, workdir):
    tr = tracer.Tracer()
    with tr:
        phase = run.run_phase(workload, prep, jobs, workdir, tracer=tr)
    assert all(not error for error in phase.errors)
    return {solve: dict(counters) for solve, counters in tr.counts.items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counters_repeat_exactly(name, tmp_path):
    """Two traced passes over the same seeded instances count the same work."""
    workload = workloads.WORKLOADS[name]
    prep = run.setup(workload, 7, tmp_path)
    jobs = [(i, mode) for i in range(2) for mode in workload.modes]
    first = _traced_pass(workload, prep, jobs, tmp_path)
    second = _traced_pass(workload, prep, jobs, tmp_path)
    assert first == second
    assert any(counters.get("bounded.frontier_builds") for counters in first.values())
