import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import brute_inverse, brute_opt, dfs_exact_inverse, dfs_exact_opt, e1, random_instance
from incknap import oracle
from incknap.classes import build_classes, make_interval
from incknap.model import EmptyHorizon, Instance, integer_units, objective
from incknap.oracle import DEFAULT_BUDGET, BudgetExceeded, _Bound, _residuals, exact_inverse, exact_opt
from reference import exact_restricted_dp


def test_exact_opt_e1():
    profit, solution = exact_opt(e1())
    assert profit == 8
    assert solution.intro == (2, 1)


def test_exact_opt_no_items():
    profit, solution = exact_opt(Instance.build(items=[], capacities=[1], lambdas=[1]))
    assert profit == 0
    assert solution.intro == ()


def test_exact_opt_zero_capacity():
    instance = Instance.build(items=[(5, 1)], capacities=[0, 0], lambdas=[1, 1])
    profit, solution = exact_opt(instance)
    assert profit == 0
    assert solution.intro == (None,)


def test_exact_oracles_refuse_an_empty_horizon():
    instance = Instance.build(items=[(1, 1)], capacities=[], lambdas=[])
    for solve in (lambda: exact_opt(instance), lambda: exact_inverse(instance, Fraction(0))):
        with pytest.raises(EmptyHorizon):
            solve()


def test_exact_opt_budget():
    instance = Instance.build(items=[(1, 1)] * 10, capacities=[5], lambdas=[1])
    with pytest.raises(BudgetExceeded):
        exact_opt(instance, budget=100)


def test_budget_counts_the_whole_assignment_space():
    instance = Instance.build(items=[(1, 1)] * 6, capacities=[2, 3], lambdas=[1, 1])
    exact_opt(instance, budget=3**6)
    exact_inverse(instance, Fraction(1), budget=3**6)
    for solver in (exact_opt, lambda inst, budget: exact_inverse(inst, Fraction(1), budget)):
        with pytest.raises(BudgetExceeded) as info:
            solver(instance, budget=3**6 - 1)
        assert info.value.required == 3**6
    assert DEFAULT_BUDGET == 2_000_000


def test_exact_opt_matches_definition_on_random_instances():
    rng = random.Random(21)
    for _ in range(40):
        instance = random_instance(rng, n_max=5, t_max=3)
        profit, solution = exact_opt(instance)
        assert profit == brute_opt(instance)
        assert objective(instance, solution) == profit


def test_exact_inverse_e1():
    result = exact_inverse(e1(), Fraction(8))
    assert result is not None
    weight, solution = result
    assert weight == 3
    assert objective(e1(), solution) >= 8


def test_exact_inverse_zero_requirement():
    weight, solution = exact_inverse(e1(), Fraction(0))
    assert weight == 0
    assert solution.intro == (None, None)


def test_exact_inverse_infeasible():
    assert exact_inverse(e1(), Fraction(9)) is None


def test_exact_inverse_monotone_in_phi():
    rng = random.Random(5)
    for _ in range(25):
        instance = random_instance(rng, n_max=5, t_max=2)
        opt, _ = exact_opt(instance)
        if opt == 0:
            continue
        previous = Fraction(0)
        for quarter in (1, 2, 3, 4):
            res = exact_inverse(instance, opt * quarter / 4)
            assert res is not None
            assert res[0] >= previous
            previous = res[0]


def test_exact_inverse_matches_definition():
    rng = random.Random(17)
    for _ in range(25):
        instance = random_instance(rng, n_max=5, t_max=2)
        opt, _ = exact_opt(instance)
        phi = opt / 2
        res = exact_inverse(instance, phi)
        expected = brute_inverse(instance, phi)
        assert (res is None) == (expected is None)
        if res is not None:
            assert res[0] == expected


def test_restricted_dp_tiny_table():
    instance = Instance.build(items=[(1, 1), (1, 2)], capacities=[1, 3], lambdas=[1, 1])
    classes = build_classes(instance, Fraction(1, 5))
    interval = make_interval(classes, 0, 0)
    table = exact_restricted_dp(instance, classes, interval)
    assert table[(0, (0,))] == 0
    assert table[(0, (1,))] is None
    assert table[(1, (1,))] == 2
    assert table[(2, (2,))] == 3  # introduce lighter at t=1, heavier at t=2
    assert table[(1, (2,))] is None  # weight 3 exceeds W_1


def test_restricted_dp_budget():
    instance = Instance.build(items=[(1, 1)] * 30, capacities=[30], lambdas=[1])
    classes = build_classes(instance, Fraction(1, 5))
    interval = make_interval(classes, 0, 0)
    with pytest.raises(BudgetExceeded):
        exact_restricted_dp(instance, classes, interval, budget=10)


def test_restricted_dp_agrees_with_exact_opt_on_distinct_weights():
    # with rounded profits equal to true profits (single class, all profit 1)
    # and distinct weights, the best prefix-like value equals the optimum
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 5)
        weights = rng.sample(range(1, 12), n)
        caps = []
        acc = 0
        t = rng.randint(1, 3)
        for _ in range(t):
            acc += rng.randint(1, 8)
            caps.append(acc)
        lambdas = [rng.randint(1, 4) for _ in range(t)]
        instance = Instance.build(
            items=[(1, w) for w in weights], capacities=caps, lambdas=lambdas
        )
        classes = build_classes(instance, Fraction(1, 5))
        interval = make_interval(classes, 0, 0)
        table = exact_restricted_dp(instance, classes, interval)
        best = max(
            (v for (t_, _), v in table.items() if t_ == instance.horizon and v is not None),
            default=Fraction(0),
        )
        opt, _ = exact_opt(instance)
        assert best == opt


def test_exact_opt_dominates_any_feasible_solution():
    rng = random.Random(33)
    for _ in range(20):
        instance = random_instance(rng, n_max=5, t_max=3)
        opt, _ = exact_opt(instance)
        from helpers import random_feasible_solution

        solution = random_feasible_solution(rng, instance)
        assert objective(instance, solution) <= opt


def tie_rich_instance(rng: random.Random, kind: str) -> Instance:
    """A small instance of one kind whose optima and floors tend to tie."""
    n = 0 if kind == "empty" else rng.randint(1, 6)
    horizon = rng.randint(1, 3)
    weights = [rng.randint(1, 6) for _ in range(n)]
    if kind == "subset-sum":
        profits = list(weights)
    elif kind == "equal-profit":
        profits = [rng.randint(1, 3)] * n
    else:
        profits = [rng.randint(1, 8) for _ in range(n)]
    caps, acc = [], 0
    for t in range(horizon):
        acc += 0 if kind == "zero-capacity" and t < 2 else rng.randint(1, 8)
        caps.append(acc)
    lambdas = [rng.randint(0 if kind == "zero-lambda" else 1, 3) for _ in range(horizon)]
    if kind == "fraction":
        return Instance.build(
            items=[(Fraction(p, rng.choice((1, 3))), Fraction(w, rng.choice((1, 7)))) for p, w in zip(profits, weights)],
            capacities=[Fraction(3 * c, 7) for c in caps],
            lambdas=[Fraction(v, rng.choice((3, 7))) for v in lambdas],
        )
    if kind == "large-weight":
        # weights near multiples of 10^6: past KNAPSACK_CELLS, so the
        # searches floor their knapsack rows by a common divisor
        weights = [w * 10**6 + rng.randint(-999, 999) for w in weights]
        caps = [c * 10**6 for c in caps]
    return Instance.build(items=list(zip(profits, weights)), capacities=caps, lambdas=lambdas)


KINDS = ("uniform", "subset-sum", "equal-profit", "zero-lambda", "fraction", "zero-capacity", "empty", "large-weight")


def test_branch_and_bound_matches_plain_search(monkeypatch):
    # same value and the same solution as the plain enumeration, ties
    # included, whether a search's knapsack rows are exact or floored
    bounds = []

    class Recorded(oracle._Bound):
        def __init__(self, *args):
            super().__init__(*args)
            bounds.append(self)

    monkeypatch.setattr(oracle, "_Bound", Recorded)
    rng = random.Random(10)
    for k in range(280):
        instance = tie_rich_instance(rng, KINDS[k % len(KINDS)])
        opt = exact_opt(instance)
        assert opt == dfs_exact_opt(instance)
        for phi in (Fraction(0), opt[0] / 2, opt[0] * rng.randint(1, 4) / 5, opt[0], opt[0] + 1):
            assert exact_inverse(instance, phi) == dfs_exact_inverse(instance, phi)
    floored = Counter(bound.g > 1 for bound in bounds)
    assert floored[True] >= 20 and floored[False] >= 20


def knapsack(items, capacity) -> int:
    """0/1 knapsack optimum over every subset of the items."""
    return max(
        sum(p for p, _ in subset)
        for size in range(len(items) + 1)
        for subset in itertools.combinations(items, size)
        if sum(w for _, w in subset) <= capacity
    )


def sampled_nodes(seed: int, count: int):
    """(kind, scaled instance, i, residual, best completion) at random feasible nodes.

    ``residual[t-1]`` is the least slack of periods t..T after a random prefix
    of i assignments, and the best completion is the most the remaining items
    can add, by enumerating every tail of assignments.
    """
    rng = random.Random(seed)
    for k in range(count):
        instance = tie_rich_instance(rng, KINDS[k % len(KINDS)])
        scaled, _, _ = integer_units(instance)
        horizon = scaled.horizon
        choices = list(range(1, horizon + 1)) + [None]
        i = rng.randint(0, scaled.n)
        prefix = [rng.choice(choices) for _ in range(i)]
        cum = [0] * (horizon + 1)
        for (_, w), t in zip(scaled.items, prefix):
            for tau in range(t or horizon + 1, horizon + 1):
                cum[tau] += w
        if any(cum[t] > scaled.capacities[t - 1] for t in range(1, horizon + 1)):
            continue
        residual = _residuals(scaled.capacities, cum)
        assert residual == [
            min(scaled.capacities[tau - 1] - cum[tau] for tau in range(t, horizon + 1)) for t in range(1, horizon + 1)
        ]
        rest = scaled.items[i:]
        suffix = scaled.suffix_lambdas.values
        best = 0
        for tail in itertools.product(choices, repeat=len(rest)):
            added = [0] * (horizon + 1)
            for (_, w), t in zip(rest, tail):
                for tau in range(t or horizon + 1, horizon + 1):
                    added[tau] += w
            if all(cum[t] + added[t] <= scaled.capacities[t - 1] for t in range(1, horizon + 1)):
                best = max(best, sum(p * suffix[t - 1] for (p, _), t in zip(rest, tail) if t is not None))
        yield KINDS[k % len(KINDS)], scaled, i, residual, best


def test_knapsack_rows_give_the_exact_knapsack_bound(monkeypatch):
    # the bound at a node is sum_t lambda_t * rows[i][r_t // g]: the 0/1
    # knapsack of the remaining items at each r_t when g = 1, at least it
    # when the rows are floored (large weights, or a cap of 4 cells), and
    # at least best either way
    nodes = list(sampled_nodes(6, 180))
    bounds = [_Bound(scaled) for _, scaled, *_ in nodes]
    monkeypatch.setattr(oracle, "KNAPSACK_CELLS", 4)
    checked = Counter()
    for (kind, scaled, i, residual, best), bound in zip(nodes, bounds):
        rest = scaled.items[i:]
        kp = [knapsack(rest, r) for r in residual]
        assert (bound.g > 1) == (kind == "large-weight")
        if bound.g == 1:
            assert [bound.rows[i][r] for r in residual] == kp
        for b in (bound, _Bound(scaled)):
            read = [b.rows[i][r // b.g] for r in residual]
            assert all(v >= k for v, k in zip(read, kp))
            assert b.at(i, residual) == sum(lam * v for lam, v in zip(scaled.lambdas, read))
            assert best <= b.at(i, residual)
            checked[kind == "large-weight", b.g > 1] += 1
    assert checked[False, False] >= 100 and checked[False, True] >= 80 and checked[True, True] >= 15


def test_knapsack_rows_over_groups_bound_every_suffix(monkeypatch):
    # rows[j] over groups of several items is the 0/1 knapsack of groups j..
    # with weights floored by g (exact at g = 1), read at c // g no smaller
    # than the true knapsack at c; rows[len(groups)] is all zeros and g is
    # the least divisor that fits the cell cap
    rng = random.Random(8)
    floored = Counter()
    default = oracle.KNAPSACK_CELLS
    for k in range(60):
        cells = default if k % 2 else rng.choice((4, 7))
        monkeypatch.setattr(oracle, "KNAPSACK_CELLS", cells)
        groups = [
            [(rng.randint(1, 9), rng.randint(1, 12)) for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(0, 4))
        ]
        capacity = rng.randint(0, 30)
        g, rows = oracle.knapsack_rows(groups, capacity)
        width = capacity // g + 1
        assert width <= cells and (g == 1 or capacity // (g - 1) + 1 > cells)
        assert len(rows) == len(groups) + 1 and rows[-1] == [0] * width
        for j in range(len(groups) + 1):
            items = [item for group in groups[j:] for item in group]
            floors = [(p, w // g) for p, w in items]
            assert rows[j] == [knapsack(floors, c) for c in range(width)]
            assert all(rows[j][c // g] >= knapsack(items, c) for c in range(capacity + 1))
        floored[g > 1] += 1
    assert floored[True] >= 20 and floored[False] >= 20
