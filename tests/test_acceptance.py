"""Acceptance suite: every criterion is oracle- or property-based and exact.

Each test prints one PASS line with its headline statistics; a failure
raises before the line is printed.  Criteria 1 and 7 share one batch of
solver runs through a module-scoped fixture.
"""

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from helpers import (
    certified_floor,
    dp_value,
    lattice_weights,
    members,
    random_class_structure,
    random_feasible_solution,
    random_instance,
    random_vector_pair,
    reference_partials,
    uncut,
    window_bracket,
)
from incknap.bounded import dp_solve, solve_inverse
from incknap.classes import build_classes, make_interval
from incknap.cli import generate_instance, instance_from_json, instance_to_json
from incknap.general import GeneralResult, build_plan, solve_detailed
from incknap.model import Instance, check_feasible, objective, preprocess
from incknap.oracle import exact_inverse, exact_opt
from reference import (
    audit_uncrossing,
    classify,
    drop_bad_periods,
    exact_restricted_dp,
    heavy_excess,
    heavy_tuples,
    make_vector,
    objective_by_contributions,
    prune_image,
    star_graph_edges,
    truncate,
    up_round,
)
from incknap.statespace import enumerate_family

EPS_PUBLIC = (Fraction(1, 2), Fraction(4, 5))
EPS_INT = Fraction(1, 5)


def seeded_uniform_instance(seed: int) -> Instance:
    """Uniform instance with n in [1,7] and T in [1,3] derived from the seed."""
    rng = random.Random(10_000 + seed)
    return generate_instance(rng.randint(0, 2**30), rng.randint(1, 7), rng.randint(1, 3), "uniform")


@dataclass
class SolverRun:
    instance: Instance
    eps_public: Fraction
    opt: Fraction
    result: GeneralResult


@pytest.fixture(scope="module")
def general_runs():
    runs = []
    start = time.perf_counter()
    for seed in range(200):
        instance = seeded_uniform_instance(seed)
        opt, _ = exact_opt(instance)
        for eps in EPS_PUBLIC:
            runs.append(SolverRun(instance, eps, opt, solve_detailed(instance, eps)))
    elapsed = time.perf_counter() - start
    print(f"\n[general solver batch: 200 instances x {len(EPS_PUBLIC)} eps in {elapsed:.1f}s]")
    return runs


def test_criterion_1_end_to_end_guarantee(general_runs):
    passed = 0
    for run in general_runs:
        solution_profit = objective(run.instance, run.result.solution)
        assert solution_profit == run.result.profit
        assert solution_profit >= (1 - run.eps_public) * run.opt
        # internal accounting is strictly tighter than the public factor
        assert solution_profit >= (1 - 7 * run.result.eps_int) * run.opt
        passed += 1
    print(f"ACCEPTANCE 1 [end-to-end guarantee]: PASS ({passed}/{passed} runs exact)")


def test_criterion_2_inverse_super_optimality():
    checked = feasible = 0
    for seed in range(100):
        instance = seeded_uniform_instance(1_000_000 + seed)
        pre, _ = preprocess(instance)
        opt, _ = exact_opt(pre)
        for quarter in (1, 2, 3, 4):
            phi = opt * quarter / 4
            oracle_res = exact_inverse(pre, phi)
            approx = solve_inverse(pre, phi, EPS_INT)
            checked += 1
            if oracle_res is not None:
                feasible += 1
                assert approx is not None
                assert approx.weight <= oracle_res[0]
            if approx is not None:
                assert approx.true_profit >= (1 - 3 * EPS_INT) * phi
                assert check_feasible(pre, approx.solution) is None
    print(
        f"ACCEPTANCE 2 [inverse super-optimality]: PASS "
        f"({checked} phi queries, {feasible} oracle-feasible, eps={EPS_INT})"
    )


@pytest.mark.parametrize("eps", [Fraction(1, 5), Fraction(1, 8)])
def test_criterion_3_rounding_operations(eps):
    rng = random.Random(int(1 / eps) * 97)
    threshold = int(1 / eps)
    for _ in range(1000):
        _, classes, interval = random_class_structure(rng, eps, max_classes=4, max_items=12)
        small, big = random_vector_pair(rng, classes, interval)
        r_small, p_small = up_round(small, classes, interval, eps)
        r_big, p_big = up_round(big, classes, interval, eps)
        assert all(a <= b for a, b in zip(r_small.counts, r_big.counts))
        assert heavy_excess(r_small.counts, classes, interval, eps) <= (
            1 + 2 * eps
        ) * heavy_excess(small, classes, interval, eps)
        t_small = truncate(r_small.counts, classes, interval, p_small.heavy, eps)
        t_big = truncate(r_big.counts, classes, interval, p_big.heavy, eps)
        assert all(a <= b for a, b in zip(t_small.counts, t_big.counts))
        assert t_small.weight <= make_vector(classes, interval, small).weight
        for pos, level in enumerate(interval.active):
            if level in p_small.heavy:
                assert t_small.counts[pos] >= (1 - 2 * eps) * small[pos]
                assert t_small.counts[pos] > threshold - 1  # carried label stays heavy-ish
            else:
                assert t_small.counts[pos] == small[pos] <= threshold
        # carried labels match the source classification
        assert (p_small.light, p_small.heavy) == classify(small, interval, eps)
    print(f"ACCEPTANCE 3 [rounding suite eps={eps}]: PASS (1000 ordered pairs)")


def test_criterion_4_family_correctness():
    rng = random.Random(77)
    instances = 0
    vectors_checked = 0
    for _ in range(25):
        _, classes, interval = random_class_structure(rng, EPS_INT, max_classes=3, max_items=8)
        wrange, n = window_bracket(classes, interval)
        family = {counts for counts, _ in members(enumerate_family(classes, interval, EPS_INT, uncut(classes, interval)))}
        sizes = [classes.size(l) for l in interval.active]
        for counts in itertools.product(*(range(s + 1) for s in sizes)):
            assert prune_image(counts, classes, interval, EPS_INT).counts in family
            vectors_checked += 1
        configs = heavy_tuples(classes, interval, EPS_INT, wrange, n)
        assert all(any(c is not None for c in partial) for partial in configs)
        assert configs == reference_partials(classes, interval, EPS_INT, wrange, n)
        instances += 1
    print(
        f"ACCEPTANCE 4 [family coverage]: PASS "
        f"({instances} structures, {vectors_checked} brute-force images contained)"
    )


def test_criterion_5_restriction_loss():
    rng = random.Random(55)
    done = 0
    while done < 50:
        instance = random_instance(rng, n_max=6, t_max=3)
        opt, _ = exact_opt(instance)
        if opt == 0:
            continue
        phi = opt / 2
        oracle_res = exact_inverse(instance, phi)
        assert oracle_res is not None
        w_star = oracle_res[0]
        classes = build_classes(instance, EPS_INT)
        interval = make_interval(classes, 0, max(classes.indices))
        exact_table = exact_restricted_dp(instance, classes, interval, budget=500_000)
        family = enumerate_family(classes, interval, EPS_INT, instance.capacities)
        table = dp_solve(classes, interval, family, instance.capacities, instance.suffix_lambdas)
        horizon = instance.horizon
        cell_weights = lattice_weights(classes, interval, table.family)
        opt_full = max(
            (
                v
                for (t, counts), v in exact_table.items()
                if t == horizon
                and v is not None
                and sum(
                    (classes.prefix[l][c] for l, c in zip(interval.active, counts)),
                    Fraction(0),
                )
                <= w_star
            ),
            default=Fraction(0),
        )
        opt_pruned = max(
            (
                dp_value(table, horizon, cell)
                for cell in table.family.cells
                if dp_value(table, horizon, cell) is not None and cell_weights[cell] <= w_star
            ),
            default=Fraction(0),
        )
        assert opt_pruned >= (1 - 2 * EPS_INT) * opt_full
        done += 1
    print(f"ACCEPTANCE 5 [restriction loss]: PASS (50 instances, factor 1-2*{EPS_INT})")


def test_criterion_6_derandomized_deletion():
    rng = random.Random(66)
    done = 0
    while done < 50:
        instance = random_instance(rng, n_max=6, t_max=3)
        pre, _ = preprocess(instance)
        opt, solution = exact_opt(pre)
        total = Fraction(0)
        for xi in range(int(1 / EPS_INT)):
            plan = build_plan(pre, EPS_INT, xi)
            total += objective(pre, drop_bad_periods(plan, solution))
        assert EPS_INT * total == (1 - EPS_INT) * opt
        done += 1
    print("ACCEPTANCE 6 [derandomized deletion identity]: PASS (50 exact identities)")


def test_criterion_7_structural_audits(general_runs):
    audited = accounting = 0
    for run in general_runs:
        assert check_feasible(run.instance, run.result.solution) is None
        audited += 1
        result = run.result
        if result.plan is None:
            continue
        assert check_feasible(result.core_instance, result.core_solution) is None
        edges = star_graph_edges(result.classes, result.plan, result.core_solution)
        assert audit_uncrossing(edges)
        core_profit = objective(result.core_instance, result.core_solution)
        floor = certified_floor(result)
        assert core_profit >= floor
        accounting += 1
    print(
        f"ACCEPTANCE 7 [structural audits]: PASS "
        f"({audited} feasibility + uncrossing audits, {accounting} profit-accounting checks)"
    )


def test_criterion_8_objective_identity():
    rng = random.Random(88)
    for _ in range(1000):
        instance = random_instance(rng, n_max=7, t_max=3, positive_lambdas=False)
        solution = random_feasible_solution(rng, instance)
        assert objective(instance, solution) == objective_by_contributions(instance, solution)
    print("ACCEPTANCE 8 [objective identity]: PASS (1000 solutions, both forms equal)")


def test_criterion_9_cli_round_trip():
    rng = random.Random(99)
    for k in range(100):
        seed = rng.randint(0, 2**20)
        n = rng.randint(1, 7)
        t = rng.randint(1, 3)
        profile = ("uniform", "geometric-lambda", "subset-sum")[k % 3]
        first = instance_to_json(generate_instance(seed, n, t, profile))
        second = instance_to_json(generate_instance(seed, n, t, profile))
        assert first == second
        parsed = instance_from_json(first)
        assert instance_to_json(parsed) == first
        assert parsed == generate_instance(seed, n, t, profile)
    print("ACCEPTANCE 9 [CLI determinism and round-trip]: PASS (100 files byte-stable)")
