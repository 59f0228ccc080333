"""Benchmark workloads: seeded instance pools, regime guards, exact checks.

Every workload is a pool of instances drawn from the run seed.  The
program only ever sees them as instance files; the in-memory copies here
are the reference the answers are checked against.  The checks are exact
(``Fraction`` throughout): feasibility and the profit identity through the
library's own ``model`` functions, and an independent upper bound: each
period's 0/1 knapsack optimum at its capacity, weighted by that period's
lambda and summed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from incknap import cli, general, model, oracle
from incknap.classes import build_classes
from incknap.model import Instance, Solution

# The CLI maps bounded mode at public eps 0.5 to internal accuracy 1/10; a
# class is heavy once it holds more than 10 items.
BOUNDED_EPS_INT = Fraction(1, 10)
# Share of bounded-heavy instances that must reach the heavy branch.
HEAVY_SHARE_MIN = Fraction(9, 10)
# Three profits a factor 1.1 apart: one profit class each at eps_int 1/10.
HEAVY_PROFITS = (100, 110, 121)


class RegimeError(RuntimeError):
    """A workload's instances left the regime the workload exists to measure."""


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int, int], Instance]  # (seed, index) -> instance
    pool: int  # instances per run seed
    traced: int  # instances in one traced pass; the counters are per pass
    modes: tuple[str, ...]  # solved in this order for every instance
    eps: str
    tail_pct: int  # solve_s.tail percentile: at least 10 jobs of a full pool lie beyond it
    guard: Callable[["Workload", list[Instance]], None]


def _sub_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def _capacities(rng: random.Random, horizon: int, least: int = 1) -> list[int]:
    """Partial sums of increments drawn from [least, 10]."""
    caps, acc = [], 0
    for _ in range(horizon):
        acc += rng.randint(least, 10)
        caps.append(acc)
    return caps


def make_general_uniform(seed: int, index: int) -> Instance:
    return cli.generate_instance(_sub_seed(seed, index), 11, 4, "uniform")


def multicluster_lambdas(n: int, horizon: int, eps: str) -> list[int]:
    """Lambdas decaying by 2*n*k per period, k = 1/internal_eps(eps).

    The band threshold of ``general.build_plan`` is internal_eps/n, so each
    period lands in its own suffix-lambda band and offsets that drop
    different bands yield different plans.
    """
    k = int(1 / general.internal_eps(Fraction(eps)))
    factor = 2 * n * k
    return [factor ** (horizon - t) for t in range(1, horizon + 1)]


def make_general_multicluster(seed: int, index: int) -> Instance:
    """Uniform-profile items; capacities grow by 4-10 per period, so every
    item fits by the last period and the plans never lose all their items."""
    rng = random.Random(_sub_seed(seed, index))
    n, horizon = 4, 3
    items = [(rng.randint(1, 10), rng.randint(1, 10)) for _ in range(n)]
    return Instance.build(
        items=items,
        capacities=_capacities(rng, horizon, 4),
        lambdas=multicluster_lambdas(n, horizon, "0.8"),
    )


def make_bounded_heavy(seed: int, index: int) -> Instance:
    rng = random.Random(_sub_seed(seed, index))
    n, horizon = 32, 4
    items = [(rng.choice(HEAVY_PROFITS), rng.randint(1, 10)) for _ in range(n)]
    return Instance.build(
        items=items,
        capacities=_capacities(rng, horizon),
        lambdas=[rng.randint(1, 5) for _ in range(horizon)],
    )


def make_verify_small(seed: int, index: int) -> Instance:
    profile = "uniform" if index % 2 == 0 else "subset-sum"
    return cli.generate_instance(_sub_seed(seed, index), 9, 4, profile)


def _core(instance: Instance) -> Instance:
    """The instance ``general.solve_detailed`` plans on: zero-lambda periods
    dropped and items heavier than the last capacity removed."""
    pre, _ = model.preprocess(instance)
    items = tuple(it for it in pre.items if it[1] <= pre.capacities[-1])
    return Instance(items=items, capacities=pre.capacities, lambdas=pre.lambdas)


def guard_none(workload: Workload, instances: list[Instance]) -> None:
    return None


def guard_multicluster(workload: Workload, instances: list[Instance]) -> None:
    """Every instance has two distinct plans, one of them with two clusters."""
    eps_int = general.internal_eps(Fraction(workload.eps))
    for idx, instance in enumerate(instances):
        core = _core(instance)
        plans = {general.build_plan(core, eps_int, xi).clusters for xi in range(int(1 / eps_int))}
        if len(plans) < 2 or max(len(p) for p in plans) < 2:
            raise RegimeError(f"{workload.name} instance {idx}: plans {sorted(plans)}")


def heavy_class_count(instance: Instance) -> int:
    """Profit classes with more than 1/eps_int items at bounded accuracy.

    ``statespace.heavy_configurations`` yields at least one configuration
    exactly when a candidate interval holds such a class, and every class
    tops one candidate interval.
    """
    pre, _ = model.preprocess(instance)
    classes = build_classes(pre, BOUNDED_EPS_INT)
    return sum(1 for level in classes.indices if classes.size(level) > 1 / BOUNDED_EPS_INT)


def guard_bounded_heavy(workload: Workload, instances: list[Instance]) -> None:
    engaged = sum(1 for inst in instances if heavy_class_count(inst) > 0)
    if Fraction(engaged, len(instances)) < HEAVY_SHARE_MIN:
        raise RegimeError(
            f"{workload.name}: only {engaged}/{len(instances)} instances have a heavy class"
        )


def guard_verify_small(workload: Workload, instances: list[Instance]) -> None:
    for idx, instance in enumerate(instances):
        states = (instance.horizon + 1) ** instance.n
        if states > oracle.DEFAULT_BUDGET:
            raise RegimeError(
                f"{workload.name} instance {idx}: {states} states exceed the oracle budget"
            )


# Pools are sized so one pass fits in a 30 s run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("general-uniform", make_general_uniform, 200, 12, ("general",), "0.5", 90, guard_none),
        Workload("general-multicluster", make_general_multicluster, 54, 5, ("general",), "0.8", 80, guard_multicluster),
        Workload("bounded-heavy", make_bounded_heavy, 300, 16, ("bounded",), "0.5", 90, guard_bounded_heavy),
        Workload("verify-small", make_verify_small, 120, 12, ("exact", "general", "bounded"), "0.5", 75, guard_verify_small),
    )
}


def upper_bound(instance: Instance) -> Fraction:
    """Sum over periods of lambda_t times the 0/1 knapsack optimum at W_t.

    Any feasible S_t is a knapsack packing at capacity W_t, so dropping the
    nesting S_1 <= ... <= S_T only loosens the problem and this bounds the
    optimum from above.  The knapsack optima come from one exact DP over
    integer-scaled weights and profits, which holds every capacity at once.
    """
    w_scale = math.lcm(*(w.denominator for _, w in instance.items), *(c.denominator for c in instance.capacities))
    p_scale = math.lcm(*(p.denominator for p, _ in instance.items))
    top = int(instance.capacities[-1] * w_scale)
    best = [0] * (top + 1)  # best[c]: max scaled profit of a packing of weight <= c
    for p, w in instance.items:
        wi, pi = int(w * w_scale), int(p * p_scale)
        for c in range(top, wi - 1, -1):
            if best[c - wi] + pi > best[c]:
                best[c] = best[c - wi] + pi
    return sum(
        (lam * Fraction(best[int(cap * w_scale)], p_scale) for lam, cap in zip(instance.lambdas, instance.capacities)),
        Fraction(0),
    )


def check_answer(instance: Instance, text: str, ub: Fraction) -> tuple[Optional[Fraction], str]:
    """Parse one ``solve`` output and check it exactly.

    Returns the reported profit and an empty string when it passes, else
    None and the reason it failed.
    """
    try:
        doc = json.loads(text)
        intro = doc["intro"]
        profit = Fraction(doc["profit"])
        weights = [Fraction(w) for w in doc["weights_by_period"]]
    except (ValueError, KeyError, TypeError) as exc:
        return None, f"unparsable output: {exc}"
    if len(intro) != instance.n or any(
        t is not None and (type(t) is not int or not 1 <= t <= instance.horizon) for t in intro
    ):
        return None, "malformed intro"
    solution = Solution(tuple(intro))
    bad = model.check_feasible(instance, solution)
    if bad is not None:
        return None, f"capacity exceeded at period {bad}"
    if model.objective(instance, solution) != profit:
        return None, "reported profit differs from model.objective"
    if tuple(weights) != solution.weights_by_period(instance):
        return None, "reported weights differ from the solution"
    if profit > ub:
        return None, "profit above the knapsack upper bound"
    return profit, ""
