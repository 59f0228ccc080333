import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from helpers import brute_inverse, brute_opt, dfs_exact_inverse, dfs_exact_opt, e1, random_instance
from incknap import general
from incknap.classes import build_classes, make_interval
from incknap.model import BudgetExceeded, EmptyHorizon, Instance, Solution, check_feasible, integer_units, objective
from incknap.oracle import DEFAULT_BUDGET, exact_inverse, exact_opt
from reference import exact_opt_by_profits, exact_restricted_dp


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
        exact_opt(instance, budget=5)


def test_budget_counts_lattice_cells_times_periods():
    # one profit: counts 0..3 fit the last capacity, 4 cells times T = 2
    instance = Instance.build(items=[(1, 1)] * 6, capacities=[2, 3], lambdas=[1, 1])
    exact_opt(instance, budget=8)
    exact_inverse(instance, Fraction(1), budget=8)
    for solver in (exact_opt, lambda inst, budget: exact_inverse(inst, Fraction(1), budget)):
        with pytest.raises(BudgetExceeded) as info:
            solver(instance, budget=7)
        assert info.value.required == 8
    assert DEFAULT_BUDGET == 2_000_000


def test_default_budget_admits_every_assignment_space_it_bounded():
    # a lattice has at most 2^n cells, and T*2^n <= (T+1)^n once n >= 2, so
    # every instance of two or more items with (T+1)^n <= DEFAULT_BUDGET is
    # admitted; a single item is refused only past a million periods
    checked = 0
    for n in range(2, 21):
        for horizon in range(1, DEFAULT_BUDGET):
            if (horizon + 1) ** n > DEFAULT_BUDGET:
                break
            assert horizon * 2**n <= (horizon + 1) ** n <= DEFAULT_BUDGET
            checked += 1
    assert checked > 1000 and 2**21 > DEFAULT_BUDGET
    # one item makes at most 2 cells, so T up to 10^6 is admitted
    assert DEFAULT_BUDGET // 2 == 10**6


def distinct_profit_instance(n: int, horizon: int, seed: int, full: bool = True) -> Instance:
    """n distinct profits over equal capacities at the total weight (every
    count vector fits) or at half of it."""
    rng = random.Random(seed)
    items = [(p, rng.randint(1, 10)) for p in rng.sample(range(1, 1000), n)]
    total = sum(w for _, w in items)
    return Instance.build(items=items, capacities=[total if full else total // 2] * horizon, lambdas=[1] * horizon)


def test_a_lattice_past_the_budget_is_refused_before_its_last_axis():
    # 2^19 cells times T = 4 pass the budget; the walk counts them from the
    # 2^18 cells before the last axis, and builds none of them
    instance = distinct_profit_instance(19, 4, 3)
    start = time.perf_counter()
    for solve in (lambda: exact_opt(instance), lambda: exact_inverse(instance, Fraction(1))):
        with pytest.raises(BudgetExceeded) as info:
            solve()
        assert info.value.required == 4 * 2**19
    assert time.perf_counter() - start < 2


def test_many_distinct_profits_at_one_period_match_the_plain_search():
    for seed, full in ((1, True), (2, False)):
        instance = distinct_profit_instance(14, 1, seed, full)
        profit, solution = exact_opt(instance)
        assert profit == dfs_exact_opt(instance)[0]
        assert check_feasible(instance, solution) is None and objective(instance, solution) == profit


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
        # weights near multiples of 10^6: past KNAPSACK_CELLS, so knapsack
        # rows over them are floored by a common divisor
        weights = [w * 10**6 + rng.randint(-999, 999) for w in weights]
        caps = [c * 10**6 for c in caps]
    return Instance.build(items=list(zip(profits, weights)), capacities=caps, lambdas=lambdas)


KINDS = ("uniform", "subset-sum", "equal-profit", "zero-lambda", "fraction", "zero-capacity", "empty", "large-weight")


def test_exact_opt_matches_every_reference():
    # profits against the exhaustive search, the plain depth-first search and
    # the count-vector reference; each solution is feasible and scores its
    # reported profit
    rng = random.Random(10)
    for k in range(280):
        instance = tie_rich_instance(rng, KINDS[k % len(KINDS)])
        profit, solution = exact_opt(instance)
        assert check_feasible(instance, solution) is None and objective(instance, solution) == profit
        assert profit == dfs_exact_opt(instance)[0] == exact_opt_by_profits(instance)
        if k < 120:
            assert profit == brute_opt(instance)


def test_exact_inverse_matches_every_reference():
    # the least weight of S_T meeting phi, as the exhaustive and the plain
    # depth-first searches find it; the solution meets phi at that weight
    rng = random.Random(12)
    for k in range(160):
        instance = tie_rich_instance(rng, KINDS[k % len(KINDS)])
        opt = exact_opt(instance)[0]
        for phi in (Fraction(0), opt / 2, opt * rng.randint(1, 4) / 5, opt, opt + 1):
            res = exact_inverse(instance, phi)
            plain = dfs_exact_inverse(instance, phi)
            assert (res is None) == (plain is None) == (phi > opt)
            if res is not None:
                weight, solution = res
                assert weight == plain[0] == solution.weights_by_period(instance)[-1]
                assert check_feasible(instance, solution) is None and objective(instance, solution) >= phi
                if k < 60:
                    assert weight == brute_inverse(instance, phi)


def test_ties_follow_the_documented_rule():
    # equal profit and weight: the item of lower index enters
    assert exact_opt(Instance.build(items=[(3, 2), (3, 2)], capacities=[2], lambdas=[1]))[1].intro == (1, None)
    # two profit-1 items or one profit-2 item: count vector (0, 1) comes
    # before (2, 0) in lattice order
    instance = Instance.build(items=[(1, 1), (1, 1), (2, 2)], capacities=[2], lambdas=[1])
    assert exact_opt(instance) == (2, Solution((None, None, 1)))
    # period 1 earns nothing, so every chain into both items ties, and its
    # best at or below is the zero vector, first in lattice order
    instance = Instance.build(items=[(1, 1), (2, 1)], capacities=[1, 2], lambdas=[0, 1])
    assert exact_opt(instance) == (3, Solution((2, 2)))
    # the inverse takes the first of the lightest cells meeting phi: (0, 1)
    # before (1, 0), though (1, 0) also meets phi = 1 at weight 1
    instance = Instance.build(items=[(1, 1), (2, 1)], capacities=[1], lambdas=[1])
    assert exact_inverse(instance, Fraction(1)) == (1, Solution((None, 1)))


def knapsack(items, capacity) -> int:
    """0/1 knapsack optimum over every subset of the items."""
    return max(
        sum(p for p, _ in subset)
        for size in range(len(items) + 1)
        for subset in itertools.combinations(items, size)
        if sum(w for _, w in subset) <= capacity
    )


def test_knapsack_rows_give_the_exact_knapsack_bound(monkeypatch):
    # rows over the item suffixes, read at any capacity r up to the last: the
    # 0/1 knapsack of the remaining items when g = 1, at least it when the
    # rows are floored (large weights, or a cap of 4 cells)
    rng = random.Random(6)
    checked = Counter()
    default = general.KNAPSACK_CELLS
    for k in range(180):
        kind = KINDS[k % len(KINDS)]
        scaled, _, _ = integer_units(tie_rich_instance(rng, kind))
        if scaled.horizon == 0:
            continue
        cap = scaled.capacities[-1]
        groups = [[item] for item in scaled.items]
        for cells in (default, 4):
            monkeypatch.setattr(general, "KNAPSACK_CELLS", cells)
            g, rows = general.knapsack_rows(groups, cap)
            if cells == default:
                assert (g > 1) == (kind == "large-weight")
            i = rng.randint(0, scaled.n)
            rest = scaled.items[i:]
            for r in {0, cap, rng.randint(0, cap)}:
                kp = knapsack(rest, r)
                assert rows[i][r // g] >= kp
                if g == 1:
                    assert rows[i][r] == kp
                checked[kind == "large-weight", g > 1] += 1
    assert checked[False, False] >= 100 and checked[False, True] >= 80 and checked[True, True] >= 15


def test_knapsack_rows_over_groups_bound_every_suffix(monkeypatch):
    # rows[j] over groups of several items is the 0/1 knapsack of groups j..
    # with weights floored by g (exact at g = 1), read at c // g no smaller
    # than the true knapsack at c; rows[len(groups)] is all zeros and g is
    # the least divisor that fits the cell cap
    rng = random.Random(8)
    floored = Counter()
    default = general.KNAPSACK_CELLS
    for k in range(60):
        cells = default if k % 2 else rng.choice((4, 7))
        monkeypatch.setattr(general, "KNAPSACK_CELLS", cells)
        groups = [
            [(rng.randint(1, 9), rng.randint(1, 12)) for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(0, 4))
        ]
        capacity = rng.randint(0, 30)
        g, rows = general.knapsack_rows(groups, capacity)
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
