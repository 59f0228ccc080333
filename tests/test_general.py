import itertools
import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from operator import itemgetter
from pathlib import Path

import pytest

from helpers import (
    FullRowTable,
    PullClusterTable,
    certified_floor,
    climb,
    cluster_link,
    cluster_value,
    e1,
    random_instance,
    wide_instance,
)
from incknap import general, statespace
from incknap.bounded import InverseFrontier, accuracy_budget, solve_bounded
from incknap.classes import build_classes
from incknap.general import (
    build_grid,
    build_plan,
    class_rows,
    cluster_dp,
    glue,
    internal_eps,
    single_cluster_instance,
    solve,
    solve_detailed,
)
from incknap.model import BudgetExceeded, Instance, Solution, check_feasible, integer_units, objective, preprocess
from incknap.oracle import exact_opt
from reference import (
    audit_uncrossing,
    band_runs,
    drop_bad_periods,
    exact_opt_by_weights,
    star_graph_edges,
    table_class_rows,
)

EPS = Fraction(1, 5)


def lambda_from_suffix(suffix):
    """Recover per-period lambdas from target suffix values."""
    out = []
    for i, v in enumerate(suffix):
        nxt = suffix[i + 1] if i + 1 < len(suffix) else Fraction(0)
        out.append(Fraction(v) - Fraction(nxt))
    return out


def five_item_instance(suffix):
    lambdas = lambda_from_suffix(suffix)
    return Instance.build(
        items=[(1, 1)] * 5,
        capacities=list(range(1, len(suffix) + 1)),
        lambdas=lambdas,
    )


def two_cluster_instance(seed, k=9):
    """Three small items and one worth 10^5 or more, lambdas (2nk)^(T-t).

    With n = 4 and k = 1/internal_eps (9 at public eps 4/5, 14 at 1/2) the
    decay can split period 1 from period 3, and the big item's profit lets
    the later cluster clear a grid step, so winners can place items in both.
    """
    rng = random.Random(seed)
    items = [(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(3)]
    items.append((rng.randint(10**5, 2 * 10**5), 10))
    caps = [rng.randint(3, 6), rng.randint(6, 9), rng.randint(16, 20)]
    return Instance.build(items=items, capacities=caps, lambdas=[(8 * k) ** 2, 8 * k, 1])


def forced_instance(seed, n, horizon):
    """Profits in {1, 3, 9, 27}, weights 1-10, capacity steps 4-10, lambdas
    (2nk)^(T-t) with k = 1/internal_eps(4/5): at eps 4/5 each period holds
    its own band, so every offset drops one and T=10 gives 2-cluster plans."""
    rng = random.Random(seed)
    k = int(1 / internal_eps(Fraction(4, 5)))
    items = [(rng.choice((1, 3, 9, 27)), rng.randint(1, 10)) for _ in range(n)]
    caps = list(itertools.accumulate(rng.randint(4, 10) for _ in range(horizon)))
    return Instance.build(items=items, capacities=caps, lambdas=[(2 * n * k) ** (horizon - t) for t in range(1, horizon + 1)])


def test_build_plan_thresholds():
    # suffix values (1, 1/2, 1/50) with eps/n = 1/25: bands {1,2} and {3}
    instance = five_item_instance([1, Fraction(1, 2), Fraction(1, 50)])
    plan = build_plan(instance, EPS, xi=0)
    assert plan.clusters == ((1, 2, 3),)


def test_build_plan_bad_interval_drops_periods():
    instance = five_item_instance([1, Fraction(1, 2), Fraction(1, 50)])
    plan = build_plan(instance, EPS, xi=2)
    assert plan.clusters == ((1, 2),)


def test_build_plan_takes_offsets_below_one_over_eps():
    instance = five_item_instance([1, Fraction(1, 2), Fraction(1, 50)])
    assert build_plan(instance, EPS, xi=4).clusters == ((1, 2, 3),)  # bands 1 and 2 both kept
    for xi in (5, -1):
        with pytest.raises(ValueError, match=r"xi must lie in \[0, 4\]"):
            build_plan(instance, EPS, xi)


def test_build_plan_uniform_lambda():
    instance = Instance.build(items=[(1, 1)] * 3, capacities=[1, 2], lambdas=[1, 1])
    for xi in range(5):
        plan = build_plan(instance, EPS, xi)
        if xi == 1:
            assert plan.clusters == ()
        else:
            assert plan.clusters == ((1, 2),)


def test_single_cluster_instance_capacity_adjustment():
    instance = five_item_instance([1, Fraction(1, 2), Fraction(1, 50)])
    classes = build_classes(instance, EPS)
    plan = build_plan(instance, EPS, xi=0)
    sub = single_cluster_instance(instance, classes, plan, 1, 0, 0, Fraction(0))
    assert sub.instance.capacities == (1, 2, 3)
    assert sub.item_ids == (0, 1, 2, 3, 4)
    clamped = single_cluster_instance(instance, classes, plan, 1, 0, 0, Fraction(99))
    assert all(c == 0 for c in clamped.instance.capacities)
    empty_range = single_cluster_instance(instance, classes, plan, 1, 1, 0, Fraction(0))
    assert empty_range.instance.n == 0


def test_single_cluster_lambdas_preserve_suffix_values():
    # local suffix sums must equal the parent's at the cluster's periods, so
    # profits glue together exactly across clusters
    instance = five_item_instance([1, Fraction(1, 2), Fraction(1, 1000)])
    classes = build_classes(instance, EPS)
    plan = build_plan(instance, EPS, xi=2)  # band 2 empty and bad: two clusters
    assert plan.clusters == ((1, 2), (3,))
    for m, periods in enumerate(plan.clusters, start=1):
        sub = single_cluster_instance(instance, classes, plan, m, 0, 0, Fraction(0))
        local_suffix = sub.instance.suffix_lambdas
        for local_t, t in enumerate(periods, start=1):
            assert local_suffix[local_t - 1] == instance.suffix_lambdas[t - 1]


def test_build_grid_structure():
    grid = build_grid(EPS, 2, Fraction(1), Fraction(10), Fraction(100))
    step = 1 + EPS / 2
    last = len(grid.values) - 1
    assert grid.delta == 1
    assert grid.point(0) == 0
    assert grid.point(1) == grid.delta
    assert {grid.point(k + 1) / grid.point(k) for k in range(1, last)} == {step}
    assert grid.point(last) >= 100 > grid.point(last - 1)


def test_build_grid_stops_on_a_point_equal_to_the_cap():
    step = 1 + EPS / 2
    grid = build_grid(EPS, 2, Fraction(1), Fraction(10), step**5)
    assert [grid.point(k) for k in range(len(grid.values))] == [0] + [step**j for j in range(6)]


@pytest.mark.parametrize("budget", [6, 7])
def test_build_grid_budget_boundary(monkeypatch, budget):
    # the grid up to step**5 has 7 points, 0 included
    step = 1 + EPS / 2
    monkeypatch.setattr(general, "GRID_BUDGET", budget)
    if budget == 7:
        assert len(build_grid(EPS, 2, Fraction(1), Fraction(10), step**5).values) == 7
    else:
        with pytest.raises(BudgetExceeded, match="profit grid of at least 7 points exceeds budget 6"):
            build_grid(EPS, 2, Fraction(1), Fraction(10), step**5)


def test_build_grid_refuses_a_grid_past_the_budget_before_building_it():
    # step 2 from delta 1 to 2**40000 needs 40002 points
    assert general.GRID_BUDGET == 2**15
    with pytest.raises(BudgetExceeded) as info:
        build_grid(Fraction(1), 1, Fraction(1), Fraction(1), Fraction(2**40000))
    assert (info.value.required, info.value.budget) == (2**15 + 1, 2**15)
    # the same test without the grid, as a plan of one cluster runs it
    with pytest.raises(BudgetExceeded) as alone:
        general.grid_budget(Fraction(1), 1, Fraction(1), Fraction(1), Fraction(2**40000))
    assert str(alone.value) == str(info.value)


def test_solve_refuses_the_grid_before_building_classes(monkeypatch):
    # at eps 1/10000 the first plan's grid is past the budget, and classes,
    # whose ladder alone would take seconds, are never built
    def no_classes(*args):
        raise AssertionError("build_classes called before the grid was accepted")

    monkeypatch.setattr(general, "build_classes", no_classes)
    instance = Instance.build(items=[(3, 2), (5, 4), (7, 1)], capacities=[4, 7], lambdas=[2, 1])
    with pytest.raises(BudgetExceeded, match="profit grid"):
        solve_detailed(instance, Fraction(1, 10000))


def fraction_bands(instance, eps):
    """Band per period, climbing a Fraction bound by eps/n from each period's band 1."""
    shrink = eps / instance.n
    first = instance.suffix_lambdas[0]
    bands = []
    for s in instance.suffix_lambdas:
        m, bound = 1, shrink * first
        while s <= bound:
            bound *= shrink
            m += 1
        bands.append(m)
    return bands


def test_build_plan_bands_match_a_fraction_ladder():
    # suffixes on, just above and just below first*(eps/n)**m, and free ones;
    # each instance also in integer units, where the ladder runs on ints.
    # Every offset's clusters are the runs of the ladder's surviving bands
    rng = random.Random(83)
    on_a_bound = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        eps = Fraction(1, rng.choice([5, 7, 14]))
        shrink = eps / n
        first = Fraction(rng.randint(1, 10**6), rng.choice([1, 1, 3, 7]))
        suffix = [first]
        for _ in range(rng.randint(0, 6)):
            on = first * shrink ** rng.randint(1, 3)
            kind = rng.choice(["on", "above", "below", "free"])
            if kind == "free":
                value = suffix[-1] * Fraction(rng.randint(1, 100), 100)
            else:
                value = on * {"on": 1, "above": 1 + Fraction(1, 10**9), "below": 1 - Fraction(1, 10**9)}[kind]
            suffix.append(min(value, suffix[-1]))
            on_a_bound += suffix[-1] == on
        instance = Instance.build(items=[(1, 1)] * n, capacities=[1] * len(suffix), lambdas=lambda_from_suffix(suffix))
        bands = fraction_bands(instance, eps)
        for xi in range(eps.denominator):
            want = band_runs(bands, eps.denominator, xi)
            for inst in (instance, integer_units(instance)[0]):
                assert build_plan(inst, eps, xi).clusters == want
    assert on_a_bound > 50


def counted_grid_points(eps, clusters, lam_last, p_max, psi_cap, budget):
    """Points of the grid, counted one step at a time on ints, or None where
    the count passes the budget before reaching the cap."""
    delta = eps / clusters * lam_last * p_max
    step = 1 + eps / clusters
    reach = delta.numerator * psi_cap.denominator
    need = psi_cap.numerator * delta.denominator
    top = 1
    while reach < need:
        if top + 2 > budget:
            return None
        reach, need, top = reach * step.numerator, need * step.denominator, top + 1
    return top + 1


@pytest.mark.parametrize("budget", [2, 3, 5, 8, 13, 40])
def test_build_grid_refuses_where_counting_would(monkeypatch, budget):
    # small budgets, where the exact power test decides nearly every grid,
    # caps on, just past, just short of and far past a point, and eps of
    # 41-digit denominators, whose steps the cheap bounds decide
    monkeypatch.setattr(general, "GRID_BUDGET", budget)
    rng = random.Random(budget)
    refused = kept = 0
    for _ in range(150):
        eps = Fraction(1, rng.choice([1, 2, 5, 14, 100, 10**40 + 7]))
        clusters = rng.randint(1, 3)
        lam_last = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        p_max = Fraction(rng.randint(1, 50), rng.randint(1, 4))
        delta = eps / clusters * lam_last * p_max
        step = 1 + eps / clusters
        tweak = rng.choice([1, 1 + Fraction(1, 10**12), 1 - Fraction(1, 10**12), Fraction(1, 3), 2**40])
        psi_cap = delta * step ** rng.randint(0, budget + 2) * tweak
        want = counted_grid_points(eps, clusters, lam_last, p_max, psi_cap, budget)
        if want is None:
            refused += 1
            with pytest.raises(BudgetExceeded, match=f"profit grid of at least {budget + 1} points exceeds budget {budget}$"):
                build_grid(eps, clusters, lam_last, p_max, psi_cap)
        else:
            kept += 1
            assert len(build_grid(eps, clusters, lam_last, p_max, psi_cap).values) == want
    assert refused and kept


def grid_points(delta, step, psi_cap):
    """Points of the grid up to the first at or above psi_cap, 0 included,
    counted one Fraction power at a time."""
    top = 1
    while delta * step ** (top - 1) < psi_cap:
        top += 1
    return top + 1


def test_build_grid_refuses_exactly_the_grids_past_the_budget(monkeypatch):
    # steps from 2 down to 1 + 1/60, where the bit-length acceptance bound
    # log2(1+x) >= x is loose, and caps on both sides of the budget
    monkeypatch.setattr(general, "GRID_BUDGET", 40)
    refused = kept = 0
    for eps, clusters in ((Fraction(1), 1), (Fraction(1, 5), 2), (Fraction(1, 20), 3)):
        step = 1 + eps / clusters
        delta = eps / clusters * 3 * 7
        for k in range(30, 45):
            for factor in (1, Fraction(101, 100), step - Fraction(1, 10**6)):
                psi_cap = delta * step**k * factor
                points = grid_points(delta, step, psi_cap)
                if points > 40:
                    refused += 1
                    with pytest.raises(BudgetExceeded, match="profit grid of at least 41 points exceeds budget 40"):
                        build_grid(eps, clusters, Fraction(3), Fraction(7), psi_cap)
                else:
                    kept += 1
                    assert len(build_grid(eps, clusters, Fraction(3), Fraction(7), psi_cap).values) == points
    assert refused and kept
    # a far overrun at the real budget, decided before any counting
    monkeypatch.setattr(general, "GRID_BUDGET", 2**15)
    with pytest.raises(BudgetExceeded) as info:
        build_grid(Fraction(1, 1000), 1, Fraction(1), Fraction(1), Fraction(2**100000))
    assert (info.value.required, info.value.budget) == (2**15 + 1, 2**15)


@pytest.mark.parametrize("psi_cap", [Fraction(1), Fraction(1, 2)])
def test_build_grid_cap_at_or_below_delta(psi_cap):
    grid = build_grid(EPS, 2, Fraction(1), Fraction(10), psi_cap)
    assert [grid.point(k) for k in range(len(grid.values))] == [0, 1]
    assert Fraction(grid.offsets[0], grid.unit) == 1
    assert Fraction(grid.offsets[1], grid.unit) == 1 + EPS / 2 + 1


def test_cluster_dp_grid_units_match_fractions():
    # the grid's ints, which the cluster DP bisects on, are built by a
    # recurrence in one unit; check every point and every offset
    # step*grid[k] + delta, k = 0 and the last included, against Fractions
    # on a long grid (step 201/200)
    eps = Fraction(1, 100)
    grid = build_grid(eps, 2, Fraction(4, 3), Fraction(10), Fraction(10**4))
    step = 1 + eps / 2
    assert len(grid.values) >= 2000
    phis = [Fraction(0)] + [grid.delta * step ** (k - 1) for k in range(1, len(grid.values))]
    assert phis[-1] >= 10**4 > phis[-2]
    # a/unit == b as a cross product: Fraction(a, unit) would take a gcd per point
    for k, phi in enumerate(phis):
        assert grid.values[k] * phi.denominator == phi.numerator * grid.unit
        offset = step * phi + grid.delta
        assert grid.offsets[k] * offset.denominator == offset.numerator * grid.unit
    assert grid.point(len(phis) - 1) == phis[-1]


@pytest.mark.parametrize("num_clusters", [1, 2, 3])
@pytest.mark.parametrize(
    "eps, lam_last, p_max, psi_cap",
    [
        (EPS, Fraction(1), Fraction(10), Fraction(1)),  # one point past 0 at M = 1
        (Fraction(1, 7), Fraction(4, 3), Fraction(10), Fraction(10**3)),
        (Fraction(1, 14), Fraction(5, 9), Fraction(7, 2), Fraction(12345, 7)),
    ],
)
def test_grid_offsets_are_the_floored_step_past_each_point(num_clusters, eps, lam_last, p_max, psi_cap):
    # offsets[k] = floor((step*point(k) + delta) * unit) by Fractions at
    # every k, 0 and the top included, though build_grid adds delta to the
    # next point; so they rise strictly
    grid = build_grid(eps, num_clusters, lam_last, p_max, psi_cap)
    step = 1 + eps / num_clusters
    assert len(grid.offsets) == len(grid.values)
    for k in range(len(grid.values)):
        assert grid.offsets[k] == math.floor((step * grid.point(k) + grid.delta) * grid.unit)
    assert all(a < b for a, b in zip(grid.offsets, grid.offsets[1:]))


def test_small_eps_guarantee_on_long_grids(monkeypatch):
    # public eps 1/50 on random draws, whose plans all have one cluster and
    # build no grid; and public eps 1/10 on two_cluster_instance, whose
    # 2-cluster plans build grids of a few thousand points and glue on them
    # meets its certified floor
    built, glued = [], []
    monkeypatch.setattr(general, "build_grid", lambda *args: built.append(build_grid(*args)) or built[-1])
    monkeypatch.setattr(general, "glue", lambda plan, table: glued.append((plan, table, glue(plan, table))) or glued[-1][2])
    rng = random.Random(50)
    cases = [(random_instance(rng, n_max=4, t_max=3), Fraction(1, 50)) for _ in range(6)]
    k = internal_eps(Fraction(1, 10)).denominator
    cases += [(two_cluster_instance(seed, k), Fraction(1, 10)) for seed in range(6)]
    long_grids = 0
    for instance, eps in cases:
        built.clear()
        glued.clear()
        result = solve_detailed(instance, eps)
        assert check_feasible(instance, result.solution) is None
        opt, _ = exact_opt(instance)
        assert result.profit >= (1 - eps) * opt
        assert objective(result.core_instance, result.core_solution) >= certified_floor(result)
        for plan, table, (solution, phi_target) in glued:
            if plan.num_clusters > 1:
                floor = (1 - 2 * result.eps_int) * phi_target - plan.num_clusters * table.grid.delta
                assert objective(result.core_instance, solution) >= floor
        long_grids += any(len(grid.values) >= 2000 for grid in built)
    assert long_grids == 6


def test_cluster_dp_terminal_rules():
    instance, _, _ = integer_units(preprocess(e1())[0])
    classes = build_classes(instance, EPS)
    plan = build_plan(instance, EPS, xi=0)
    grid = build_grid(EPS, 1, instance.lambdas[-1], Fraction(3), Fraction(100))
    table = FullRowTable(instance, classes, plan, grid, EPS, class_rows(instance, classes))
    top = max(classes.indices)
    assert cluster_value(table, 1, top, 0) == 0  # phi = 0 is free
    assert cluster_value(table, 0, top, 1) is None
    assert cluster_value(table, 1, -1, 1) is None


def test_cluster_dp_and_glue_on_e1():
    instance, _, _ = integer_units(preprocess(e1())[0])
    classes = build_classes(instance, EPS)
    plan = build_plan(instance, EPS, xi=0)
    profits = [p for p, _ in instance.items]
    grid = build_grid(
        EPS, 1, instance.lambdas[-1], max(profits), instance.suffix_lambdas[0] * sum(profits)
    )
    table = cluster_dp(instance, classes, plan, grid, EPS, class_rows(instance, classes))
    solution, phi_target = glue(plan, table)
    assert check_feasible(instance, solution) is None
    assert phi_target > 0
    profit = objective(instance, solution)
    assert profit >= (1 - 2 * EPS) * phi_target - plan.num_clusters * grid.delta


def test_glue_two_clusters_disjoint_class_ranges():
    # steep lambda decay with a bad middle band splits periods 1 and 3; glue
    # on that plan places items in both clusters, on disjoint class ranges,
    # and the solve's answer earns at least as much
    instance = two_cluster_instance(7, k=14)
    result = solve_detailed(instance, Fraction(1, 2))
    opt, _ = exact_opt(instance)
    cases = solve_tables(instance, Fraction(1, 2))
    core, classes, plan, grid, eps = next(case for case in cases if case[2].num_clusters > 1)
    assert plan.clusters == ((1,), (3,))
    solution, _ = glue(plan, cluster_dp(core, classes, plan, grid, eps, class_rows(core, classes)))
    # every item fits and no lambda is zero, so core items and periods are the instance's
    assert check_feasible(instance, solution) is None
    assert result.profit >= objective(instance, solution) >= (1 - Fraction(1, 2)) * opt
    edges = star_graph_edges(classes, plan, solution)
    assert {m for m, _ in edges} == {1, 2}
    assert audit_uncrossing(edges)


def test_uncrossing_audit_on_two_cluster_winners():
    # on the forced shape two-cluster plans win, and each answer meets its
    # bound against the package oracle's optimum and passes the audit; there
    # the first cluster's periods carry nearly all the value, so glue on the
    # two-cluster plans of two_cluster_instance, whose big item fits only in
    # period 3, checks answers that place items in both clusters
    eps = Fraction(4, 5)
    two_cluster_winners = 0
    for seed in range(8):
        instance = forced_instance(seed, 8, 10)
        result = solve_detailed(instance, eps)
        opt, _ = exact_opt(instance)
        assert result.profit >= (1 - eps) * opt
        edges = star_graph_edges(result.classes, result.plan, result.core_solution)
        assert audit_uncrossing(edges)
        floor = (1 - 2 * result.eps_int) * result.phi_target
        floor -= result.plan.num_clusters * result.grid.delta
        assert objective(result.core_instance, result.core_solution) >= floor
        two_cluster_winners += result.plan.num_clusters == 2
    assert two_cluster_winners >= 3
    both_clusters = 0
    for seed in range(8):
        for core, classes, plan, grid, eps_int in solve_tables(two_cluster_instance(seed), eps):
            if plan.num_clusters == 2:
                table = cluster_dp(core, classes, plan, grid, eps_int, class_rows(core, classes))
                solution, phi_target = glue(plan, table)
                edges = star_graph_edges(classes, plan, solution)
                assert audit_uncrossing(edges)
                assert objective(core, solution) >= (1 - 2 * eps_int) * phi_target - 2 * grid.delta
                both_clusters += len({m for m, _ in edges}) == 2
    assert both_clusters >= 3


def test_cluster_dp_two_clusters_with_weight_offset():
    # the top certified profit needs both clusters, so cluster 2's subproblem
    # must see its capacity reduced by omega = 1 (item 0's weight); the final
    # weight telescopes as the sum of the per-cluster sub-solution weights;
    # the DP runs on the integer-units copy (lambdas times 10^6), where the
    # certified floor is checked too
    x = Fraction(1, 1_000_000)
    instance = Instance.build(
        items=[(3, 1), (10**7, 2)], capacities=[1, 3], lambdas=[1 - x, x]
    )
    core, _, _ = integer_units(instance)
    classes = build_classes(core, EPS)
    plan = build_plan(core, EPS, xi=3)
    assert plan.clusters == ((1,), (2,))
    profits = [p for p, _ in core.items]
    grid = build_grid(
        EPS,
        plan.num_clusters,
        core.lambdas[-1],
        max(profits),
        core.suffix_lambdas[0] * sum(profits),
    )
    table = cluster_dp(core, classes, plan, grid, EPS, class_rows(core, classes))
    solution, phi_target = glue(plan, table)
    assert solution.intro == (1, 2)
    assert objective(instance, solution) == 13
    top = max(classes.indices)
    target_idx = grid.values.index(phi_target * grid.unit)
    assert cluster_value(table, 2, top, target_idx) == solution.weights_by_period(instance)[-1]
    back = cluster_link(table, 2, top, target_idx)
    assert cluster_value(table, 1, back[0], back[1]) == 1  # omega passed down to cluster 2
    floor = (1 - 2 * EPS) * phi_target - plan.num_clusters * grid.delta
    assert objective(core, solution) >= floor


def test_solve_e1_guarantee():
    instance = e1()
    solution = solve(instance, Fraction(1, 2))
    assert objective(instance, solution) >= 4


def test_solve_single_item_only_fits_last():
    # capacity opens at the final period only
    instance = Instance.build(items=[(3, 2)], capacities=[0, 2], lambdas=[1, 1])
    solution = solve(instance, Fraction(1, 2))
    assert solution.intro == (2,)
    assert objective(instance, solution) == 3


def test_solve_detailed_keeps_the_first_offset_on_equal_profit():
    # the one item fits period 2 only, so offsets 0 (clusters ((1, 2),)) and
    # 1 (period 1 dropped) both pack it for profit 1: the tie goes to offset 0
    instance = Instance.build(items=[(1, 5)], capacities=[1, 10], lambdas=[100, 1])
    result = solve_detailed(instance, Fraction(1, 2))
    assert result.profit == 1
    assert result.xi == 0
    assert result.plan.clusters == ((1, 2),)


def first_of_most_plan(instance, eps_public):
    """(profit, xi, plan) of the first plan of most objective on the
    preprocessed instance, over every distinct plan of one cluster or more,
    each glued and mapped back to the preprocessed items here; and the
    number of plans that tied an earlier best."""
    pre, _ = preprocess(instance)
    fit = [i for i, (_, w) in enumerate(pre.items) if w <= pre.capacities[-1]]
    core, _, _ = integer_units(Instance(tuple(pre.items[i] for i in fit), pre.capacities, pre.lambdas))
    eps = internal_eps(eps_public)
    classes = build_classes(core, eps)
    profits = [p for p, _ in core.items]
    best, ties, seen = None, 0, set()
    for xi in range(eps.denominator):
        plan = build_plan(core, eps, xi)
        if plan.num_clusters == 0 or plan.clusters in seen:
            continue
        seen.add(plan.clusters)
        grid, rows = None, None
        if plan.num_clusters > 1:
            psi_cap = core.suffix_lambdas[0] * sum(profits)
            grid = build_grid(eps, plan.num_clusters, core.lambdas[-1], max(profits), psi_cap)
            rows = class_rows(core, classes)
        core_solution, _ = glue(plan, cluster_dp(core, classes, plan, grid, eps, rows))
        intro = [None] * pre.n
        for j, t in core_solution.introduced():
            intro[fit[j]] = t
        profit = objective(pre, Solution(tuple(intro)))
        ties += best is not None and profit == best[0]
        if best is None or profit > best[0]:
            best = profit, xi, plan
    return best, ties


def test_solve_detailed_ranks_plans_as_the_preprocessed_objective_does():
    # solve_detailed ranks plans by their objective in integer units; with
    # fractional profits, weights and lambdas the value unit exceeds 1, and
    # the winner is still the first plan of most objective on the
    # preprocessed instance.  About half the draws scale lambda_t by
    # (2nk)^(T-t), which puts each period in a band of its own, so their
    # horizons past 1/eps give plans of several clusters
    rng = random.Random(7)
    seen = Counter()
    for _ in range(40):

        def frac(lo, hi):
            return Fraction(rng.randint(lo * 6, hi * 6), rng.choice([2, 3, 5, 7]))

        horizon = rng.choice([2, 3, 4, 10, 11])
        items = [(frac(1, 9), frac(1, 5)) for _ in range(rng.randint(2, 6))]
        caps = list(itertools.accumulate(frac(1, 6) for _ in range(horizon)))
        eps = rng.choice([Fraction(1, 2), Fraction(4, 5)])
        base = rng.choice([1, 2 * len(items) * internal_eps(eps).denominator])
        lambdas = [frac(1, 3) * base ** (horizon - t) for t in range(1, horizon + 1)]
        instance = Instance.build(items, caps, lambdas)
        (profit, xi, plan), ties = first_of_most_plan(instance, eps)
        result = solve_detailed(instance, eps)
        assert (result.xi, result.plan, result.profit) == (xi, plan, profit)
        seen["unit"] += integer_units(preprocess(instance)[0])[1] > 1
        seen["ties"] += ties > 0
        seen["later"] += xi > 0
        seen["clusters"] += plan.num_clusters > 1
    assert seen["unit"] == 40 and min(seen.values()) > 0


def test_glue_stops_at_the_zero_state_before_the_first_cluster():
    # the one item fits period 3 only; plans such as ((1,), (3,)) pack it in
    # their last cluster, so the trace back reaches grid index 0 with a
    # cluster left, whose zero state has no backpointer
    instance = Instance.build(items=[(1, 5)], capacities=[1, 1, 10], lambdas=[10000, 100, 1])
    eps = internal_eps(Fraction(1, 2))
    assert ((1,), (3,)) in {build_plan(instance, eps, xi).clusters for xi in range(eps.denominator)}
    result = solve_detailed(instance, Fraction(1, 2))
    assert result.solution.intro == (3,)
    assert result.profit == 1


def test_solve_zero_items():
    instance = Instance.build(items=[], capacities=[1], lambdas=[1])
    assert solve(instance, Fraction(1, 2)).intro == ()


def test_solve_all_lambdas_zero():
    instance = Instance.build(items=[(1, 1)], capacities=[1], lambdas=[0])
    assert solve(instance, Fraction(1, 2)).intro == (None,)


def test_solve_drops_unfittable_items():
    instance = Instance.build(items=[(100, 50), (1, 1)], capacities=[1], lambdas=[1])
    solution = solve(instance, Fraction(1, 2))
    assert solution.intro == (None, 1)


def test_solve_flat_instance_matches_bounded_guarantee():
    from incknap.bounded import solve_bounded

    rng = random.Random(19)
    for _ in range(10):
        n = rng.randint(1, 6)
        items = [(rng.randint(1, 10), rng.randint(1, 10)) for _ in range(n)]
        w = rng.randint(2, 15)
        t = rng.randint(1, 3)
        instance = Instance.build(items=items, capacities=[w] * t, lambdas=[1] * t)
        opt, _ = exact_opt(instance)
        general_sol = solve(instance, Fraction(1, 2))
        bounded_sol = solve_bounded(instance, Fraction(1, 10))
        assert objective(instance, general_sol) >= Fraction(1, 2) * opt
        assert objective(instance, bounded_sol) >= Fraction(1, 2) * opt


def test_solve_with_heavy_subcall_classes():
    # a coarse public accuracy keeps the internal one at 1/5, so the 18-item
    # class crosses the subcall's light threshold and the cluster subproblems
    # run on genuinely pruned vector families
    rng = random.Random(5)
    items = [(4, rng.randint(1, 6)) for _ in range(18)] + [(9, 3)]
    instance = Instance.build(items=items, capacities=[20, 45], lambdas=[2, 1])
    result = solve_detailed(instance, Fraction(7, 5))
    assert result.eps_int == Fraction(1, 5)
    classes = build_classes(result.core_instance, result.eps_int)
    assert any(classes.size(l) > 15 for l in classes.indices)  # heavy at sub eps 1/15
    assert check_feasible(instance, result.solution) is None
    assert result.profit == 147
    edges = star_graph_edges(result.classes, result.plan, result.core_solution)
    assert audit_uncrossing(edges)
    assert result.profit >= certified_floor(result)


def test_solve_meets_its_bound_where_heavy_classes_engage(monkeypatch):
    # profits 100/101/102 fall in one class at the frontiers' accuracy (1/42
    # at eps 1/2), which n = 44 to 60 items pass, so every solve's families
    # come from heavy_configurations; each answer is held to (1-eps)*OPT
    # against the package oracle's optimum
    eps = Fraction(1, 2)
    yielded = Counter()
    configurations = statespace.heavy_configurations

    def recording(*args):
        for options in configurations(*args):
            yielded["bases"] += 1
            yield options

    monkeypatch.setattr(statespace, "heavy_configurations", recording)
    for n, seed in itertools.product((44, 52, 60), range(2)):
        rng = random.Random(seed)
        items = [(rng.choice((100, 101, 102)), rng.randint(1, 10)) for _ in range(n)]
        caps = list(itertools.accumulate(rng.randint(10, 40) for _ in range(4)))
        instance = Instance.build(items=items, capacities=caps, lambdas=[rng.randint(1, 5) for _ in range(4)])
        before = yielded["bases"]
        assert solve_detailed(instance, eps).profit >= (1 - eps) * exact_opt(instance)[0]
        assert yielded["bases"] > before


def test_both_modes_meet_their_bound_against_the_oracle_where_rounding_engages():
    # profits 100/101/102 at n = 44 to 64: at eps 1/2 both modes merge them
    # into one heavy class, so rounding engages and answers fall short of
    # the optimum, which the package oracle supplies; each answer is held to
    # (1-eps)*OPT and never above it
    eps = Fraction(1, 2)
    short = Counter()
    for n, seed in itertools.product((44, 49, 54, 59, 64), range(4)):
        rng = random.Random(seed)
        items = [(rng.choice((100, 101, 102)), rng.randint(1, 10)) for _ in range(n)]
        caps = list(itertools.accumulate(rng.randint(10, 40) for _ in range(4)))
        instance = Instance.build(items=items, capacities=caps, lambdas=[rng.randint(1, 5) for _ in range(4)])
        opt, _ = exact_opt(instance)
        answers = {
            "general": solve_detailed(instance, eps).solution,
            "bounded": solve_bounded(instance, accuracy_budget(eps, 5)),
        }
        for mode, solution in answers.items():
            profit = objective(instance, solution)
            assert (1 - eps) * opt <= profit <= opt
            short[mode] += profit < opt
    assert short["general"] >= 18 and short["bounded"] >= 18


# Most weight states an instance of the wide sweep below may need: 10 of
# its 30 instances fit, each DP in 0.1 s or less on a 2-core box, and the
# solves take most of the sweep's time (5-8 s)
SWEEP_STATES = 2**12


def test_both_modes_meet_their_bound_on_wide_profits_against_the_weight_dp():
    # profits in [1, 1000] at n = 24 to 32, T = 4: at bounded mode's
    # accuracy for eps 1/2 (1/10) the classes are fewer than the distinct
    # profits, so rounding engages, and the optimum comes from the DP over per-period weights on the instances
    # whose states fit SWEEP_STATES; each answer is held to (1-eps)*OPT and
    # never above it, in bounded mode and in general mode wherever it answers
    eps = Fraction(1, 2)
    ratios = {"bounded": [], "general": []}
    for n, seed in itertools.product((24, 28, 32), range(10)):
        instance = wide_instance(seed, n, 4)
        try:
            opt = exact_opt_by_weights(instance, SWEEP_STATES)
        except BudgetExceeded:
            continue
        scaled = integer_units(instance)[0]
        assert len(build_classes(scaled, accuracy_budget(eps, 5)).indices) < len({p for p, _ in scaled.items})
        answers = {"bounded": objective(instance, solve_bounded(instance, accuracy_budget(eps, 5)))}
        try:
            answers["general"] = solve_detailed(instance, eps).profit
        except BudgetExceeded:
            pass
        for mode, profit in answers.items():
            assert (1 - eps) * opt <= profit <= opt
            ratios[mode].append(profit / opt)
    assert len(ratios["bounded"]) >= 8 and len(ratios["general"]) >= 8
    assert min(ratios["bounded"] + ratios["general"]) < 1


def test_solve_meets_its_bound_on_multi_cluster_winners():
    # the forced shape at T=10: every winning plan has two or more clusters,
    # and each answer is held to (1-eps)*OPT against the package oracle's
    # optimum
    eps = Fraction(4, 5)
    for n, seed in itertools.product((8, 16, 24, 32), range(3)):
        instance = forced_instance(seed, n, 10)
        result = solve_detailed(instance, eps)
        assert result.plan.num_clusters >= 2
        assert result.profit >= (1 - eps) * exact_opt(instance)[0]


@pytest.mark.parametrize("n, horizon, clusters", [(32, 10, 2), (16, 20, 3)], ids=["T=10", "T=20"])
def test_multi_cluster_winners_earn_what_their_chain_certifies(n, horizon, clusters):
    # the winners of CI's forced multicluster rows: phi_target is the last
    # row's grid point, and the chain below it certifies, step by
    # step, a rounded profit of at least (1-3*eps_sub) times the step's
    # requirement grid[i] - offsets[i'], which the step's true profit
    # reaches; the answer earns the sum of its steps' profits
    result = solve_detailed(forced_instance(1, n, horizon), Fraction(4, 5))
    plan, grid, classes, core = result.plan, result.grid, result.classes, result.core_instance
    assert plan.num_clusters == clusters
    table = cluster_dp(core, classes, plan, grid, result.eps_int, class_rows(core, classes))
    assert glue(plan, table) == (result.core_solution, result.phi_target)
    m, ell = plan.num_clusters, classes.indices[-1]
    idx = next(reversed(table._row(m, ell)))
    assert result.phi_target == grid.point(idx)
    keep = 1 - 3 * accuracy_budget(result.eps_int, 3)
    certified, earned = 0, 0
    while m >= 1 and idx > 0:
        ell_prev, idx_prev, prev = cluster_link(table, m, ell, idx)
        frontier, sub, pushes = table._frontier(m, ell_prev + 1, ell, prev)
        requirement = grid.point(idx) - Fraction(grid.offsets[idx_prev], grid.unit)
        entry = bisect_left(pushes, grid.values[idx] - grid.offsets[idx_prev], key=itemgetter(0))
        _, _, step, _ = table.transition(m, ell, idx)
        assert step == frontier.solution(entry)
        assert objective(sub.instance, step) >= frontier.rounded_profit(entry) >= keep * requirement
        certified += keep * requirement
        earned += objective(sub.instance, step)
        m, ell, idx = m - 1, ell_prev, idx_prev
    assert objective(core, result.core_solution) == earned >= certified
    # and the grid point is no lower bound on that profit: here it exceeds it
    assert result.phi_target > earned


def test_internal_eps_rescaling():
    assert internal_eps(Fraction(1, 2)) == Fraction(1, 14)
    assert internal_eps(Fraction(4, 5)) == Fraction(1, 9)
    assert internal_eps(Fraction(2)) == Fraction(1, 5)


def test_longer_horizons_with_fractional_scalars():
    # T beyond the small-suite range plus non-unit denominators everywhere,
    # exercising the integer-rescaling paths in both oracle and solver
    rng = random.Random(123)
    for _ in range(12):
        n = rng.randint(1, 5)
        t = rng.randint(4, 6)

        def frac(lo, hi):
            return Fraction(rng.randint(lo * 4, hi * 4), rng.choice([2, 4, 5]))

        items = [(frac(1, 8), frac(1, 8)) for _ in range(n)]
        caps = []
        acc = Fraction(0)
        for _ in range(t):
            acc += frac(0, 6)
            caps.append(acc)
        lambdas = [frac(0, 3) for _ in range(t)]
        if all(v == 0 for v in lambdas):
            lambdas[-1] = Fraction(1)
        instance = Instance.build(items=items, capacities=caps, lambdas=lambdas)
        opt, _ = exact_opt(instance)
        for eps in (Fraction(1, 2), Fraction(4, 5)):
            result = solve_detailed(instance, eps)
            assert check_feasible(instance, result.solution) is None
            assert result.profit >= (1 - eps) * opt


def test_derandomized_deletion_identity():
    # eps * sum over offsets of the xi-filtered profit = (1-eps) * optimum
    rng = random.Random(23)
    for _ in range(12):
        instance = random_instance(rng, n_max=5, t_max=3)
        pre, _ = preprocess(instance)
        opt, solution = exact_opt(pre)
        total = Fraction(0)
        for xi in range(int(1 / EPS)):
            plan = build_plan(pre, EPS, xi)
            total += objective(pre, drop_bad_periods(plan, solution))
        assert EPS * total == (1 - EPS) * opt


def stars_solutions(pre, classes, plan):
    """Exhaustive uncrossing-stars solutions restricted to cluster periods.

    Returns (max cluster used, max class used, profit, final weight) per
    solution, from which the exact min-weight value of any DP state follows.
    """
    import itertools

    periods = sorted(t for c in plan.clusters for t in c)
    cluster_of = {t: m for m, c in enumerate(plan.clusters, start=1) for t in c}
    item_class = {i: l for l, ids in classes.members.items() for i in ids}
    out = []
    for intro in itertools.product(*([*periods, None] for _ in range(pre.n))):
        solution = Solution(tuple(intro))
        if check_feasible(pre, solution) is not None:
            continue
        placed = {}
        for i, t in solution.introduced():
            placed.setdefault(item_class[i], set()).add(cluster_of[t])
        if any(len(ms) > 1 for ms in placed.values()):
            continue
        ordered = sorted((l, next(iter(ms))) for l, ms in placed.items())
        if any(a[1] > b[1] for a, b in zip(ordered, ordered[1:])):
            continue
        m_used = max((cluster_of[t] for _, t in solution.introduced()), default=0)
        l_used = max((item_class[i] for i, _ in solution.introduced()), default=-1)
        out.append(
            (m_used, l_used, objective(pre, solution), solution.weights_by_period(pre)[-1])
        )
    return out


def stars_cases():
    """(instance, classes, plan, grid) for six small random instances at EPS."""
    rng = random.Random(61)
    for _ in range(6):
        instance = random_instance(rng, n_max=4, t_max=2)
        pre, _, _ = integer_units(preprocess(instance)[0])
        classes = build_classes(pre, EPS)
        profits = [p for p, _ in pre.items]
        for xi in range(int(1 / EPS)):
            plan = build_plan(pre, EPS, xi)
            if plan.num_clusters == 0:
                continue
            grid = build_grid(
                EPS,
                plan.num_clusters,
                pre.lambdas[-1],
                max(profits),
                pre.suffix_lambdas[0] * sum(profits),
            )
            yield pre, classes, plan, grid


def test_cluster_dp_lower_bounds_exact_stars_value():
    # the discretized DP never exceeds the exhaustive uncrossing-stars value
    checked = 0
    for pre, classes, plan, grid in stars_cases():
        table = FullRowTable(pre, classes, plan, grid, EPS, class_rows(pre, classes))
        sols = stars_solutions(pre, classes, plan)
        for m in range(1, plan.num_clusters + 1):
            for level in classes.indices:
                for idx in range(len(grid.values)):
                    phi = grid.point(idx)
                    exact = [
                        w
                        for mu, lu, p, w in sols
                        if mu <= m and lu <= level and p >= phi
                    ]
                    if not exact:
                        continue
                    approx = cluster_value(table, m, level, idx)
                    assert approx is not None
                    assert approx <= min(exact)
                    checked += 1
    assert checked > 500


def last_target(table):
    """The highest feasible index of the table's last row (M, top class)."""
    return max(table._row(table.plan.num_clusters, max(table.classes.indices)))


def step_weight(table, m, ell, idx):
    """The weight of cluster m's step into state (m, ell, idx): its solution's last-period weight."""
    _, _, solution, sub = table.transition(m, ell, idx)
    return solution.weights_by_period(sub.instance)[-1]


def glue_chain(plan, table):
    """(m, ell, idx, (ell_prev, idx_prev), step weight) of each state ``glue`` traverses."""
    m, ell, idx = plan.num_clusters, max(table.classes.indices), last_target(table)
    chain = []
    while m >= 1 and idx > 0:
        link = cluster_link(table, m, ell, idx)
        chain.append((m, ell, idx, link[:2], step_weight(table, m, ell, idx)))
        m, ell, idx = m - 1, link[0], link[1]
    return chain


def glue_from_pull(plan, pull, n_items):
    """``glue`` over the pull reference: (solution, certified profit, chain as in ``glue_chain``)."""
    m, ell = plan.num_clusters, max(pull.classes.indices)
    target = next(idx for idx in range(len(pull.grid.values) - 1, -1, -1) if pull.value(m, ell, idx) is not None)
    intro = [None] * n_items
    chain = []
    idx = target
    while m >= 1 and idx > 0:
        ell_prev, idx_prev, res, sub = pull.backpointer(m, ell, idx)
        chain.append((m, ell, idx, (ell_prev, idx_prev), res.weight))
        for local_item, local_t in res.solution.introduced():
            intro[sub.item_ids[local_item]] = sub.periods[local_t - 1]
        m, ell, idx = m - 1, ell_prev, idx_prev
    return Solution(tuple(intro)), pull.grid.point(target), chain


def assert_state_matches_pull(table, pull, m, level, idx):
    """State (m, level, idx) holds the reference's value, backpointer and step."""
    value = pull.value(m, level, idx)
    assert cluster_value(table, m, level, idx) == value
    want = pull.backpointer(m, level, idx)
    if want is None:
        assert cluster_link(table, m, level, idx) is None
        return
    got, weight = table.transition(m, level, idx), step_weight(table, m, level, idx)
    assert got[:2] == want[:2]
    assert (weight, got[2]) == (want[2].weight, want[2].solution)
    assert cluster_link(table, m, level, idx)[2] + weight == value


def assert_push_matches_pull(instance, classes, plan, grid, eps, read_all):
    """Compare the row-filling table with the pull reference; return
    whether its last row's answer built strictly fewer frontiers than the
    reference.  On plans of two or more clusters that answer is ``glue``'s;
    a one-cluster plan's row (1, top) and its chain are compared directly.

    With ``read_all`` every (m, class, idx) state is read from both tables;
    otherwise the reference reads each as the last row's answer reads it
    from full rows: the top class at the last cluster, from the top grid
    index down to the first feasible one.  The full-row table
    (``FullRowTable``) matches every state the reference reads, and builds
    the reference's frontiers.  The pruned table gives the reference's
    solution, certified profit and chain, and the last row's target and backpointer,
    and builds only frontiers the reference builds.  Its earlier rows hold
    the states with F >= L (``climb``, ``_least_target``), matching the
    reference's, and no other.
    """
    rows = class_rows(instance, classes)
    push = cluster_dp(instance, classes, plan, grid, eps, rows)
    full = FullRowTable(instance, classes, plan, grid, eps, rows)
    pull = PullClusterTable(instance, classes, plan, grid, eps)
    solution, profit = last_row_answer(plan, push, instance.n)
    if plan.num_clusters > 1:
        assert glue(plan, push) == (solution, profit)
    chain = glue_chain(plan, push)
    built = set(push._frontiers)
    if read_all:
        for m in range(1, plan.num_clusters + 1):
            for level in classes.indices:
                for idx in range(len(grid.values)):
                    pull.value(m, level, idx)
    assert (solution, profit, chain) == glue_from_pull(plan, pull, instance.n)
    assert built <= set(pull._frontiers)
    target = last_target(push)
    assert_state_matches_pull(push, pull, plan.num_clusters, max(classes.indices), target)
    assert pull._values
    for m, level, idx in list(pull._values):
        assert_state_matches_pull(full, pull, m, level, idx)
        if m == plan.num_clusters:
            # the last row keeps its target alone exact
            continue
        if climb(push, m, level, idx) < push._least_target:
            # earlier rows drop the states that cannot reach the target
            assert cluster_value(push, m, level, idx) is None
            continue
        assert_state_matches_pull(push, pull, m, level, idx)
    assert set(full._frontiers) == set(pull._frontiers)
    return built < set(pull._frontiers)


def test_cluster_dp_matches_pull_reference():
    # the stars cases read every state; two_cluster_instance seeds 0-7 and
    # a hand-built three-cluster plan read the states glue reads; every
    # case past one cluster builds strictly fewer frontiers than the reference
    clusters = Counter()
    fewer = Counter()
    for pre, classes, plan, grid in stars_cases():
        fewer[plan.num_clusters] += assert_push_matches_pull(pre, classes, plan, grid, EPS, read_all=True)
        clusters[plan.num_clusters] += 1
    eps = internal_eps(Fraction(4, 5))
    for seed in range(8):
        core, _, _ = integer_units(two_cluster_instance(seed))
        classes = build_classes(core, eps)
        profits = [p for p, _ in core.items]
        psi_cap = core.suffix_lambdas[0] * sum(profits)
        seen = set()
        for xi in range(int(1 / eps)):
            plan = build_plan(core, eps, xi)
            if plan.num_clusters == 0 or plan.clusters in seen:
                continue
            seen.add(plan.clusters)
            grid = build_grid(eps, plan.num_clusters, core.lambdas[-1], max(profits), psi_cap)
            fewer[plan.num_clusters] += assert_push_matches_pull(core, classes, plan, grid, eps, read_all=False)
            clusters[plan.num_clusters] += 1
    instance = Instance.build(items=[(3, 4), (1, 10), (8, 3), (2, 6), (2, 4)], capacities=[6, 8, 15], lambdas=[5, 2, 5])
    core, _, _ = integer_units(instance)
    profits = [p for p, _ in core.items]
    plan = general.ClusterPlan(clusters=((1,), (2,), (3,)))
    grid = build_grid(EPS, 3, core.lambdas[-1], max(profits), core.suffix_lambdas[0] * sum(profits))
    fewer[3] += assert_push_matches_pull(core, build_classes(core, EPS), plan, grid, EPS, read_all=False)
    # a two-cluster plan read whole: cluster 1's rows get states wrong if
    # they, like the last row, skip what cannot write above its reach
    core = Instance.build(items=[(3, 1), (5, 1), (6, 7), (1, 9)], capacities=[7, 13], lambdas=[4, 5])
    profits = [p for p, _ in core.items]
    plan = general.ClusterPlan(clusters=((1,), (2,)))
    grid = build_grid(EPS, 2, core.lambdas[-1], max(profits), core.suffix_lambdas[0] * sum(profits))
    fewer[2] += assert_push_matches_pull(core, build_classes(core, EPS), plan, grid, EPS, read_all=True)
    clusters[2] += 1
    assert clusters[1] > 40 and clusters[2] >= 9
    assert fewer[2] == clusters[2] and fewer[3] == 1


def test_cluster_dp_push_range_ends_on_a_point_equal_to_the_requirement():
    # a hand-built grid with points exactly at cutoff + offset, and one unit
    # past it, for every entry of the one-cluster frontier: the first point
    # is served by that entry, the second only by a heavier one
    instance, _, _ = integer_units(Instance.build(items=[(5, 1), (5, 2), (5, 4)], capacities=[3, 7], lambdas=[1, 1]))
    classes = build_classes(instance, EPS)
    plan = build_plan(instance, EPS, xi=0)
    assert plan.num_clusters == 1
    top = max(classes.indices)
    unit, delta = 1000, 7  # offsets[0] = delta over the unit

    def grid_of(points):
        offsets = tuple(math.floor(p * (1 + EPS)) + delta for p in points)
        return general.ProfitGrid(Fraction(delta, unit), unit, tuple(points), offsets)

    rows = class_rows(instance, classes)
    pushes = cluster_dp(instance, classes, plan, grid_of((0, delta)), EPS, rows)._frontier(1, 0, top, 0)[2]
    assert len(pushes) == 4
    points = sorted({0, delta} | {cutoff + delta + j for cutoff, _ in pushes for j in (0, 1)})
    grid = grid_of(points)
    assert_push_matches_pull(instance, classes, plan, grid, EPS, read_all=True)
    table = FullRowTable(instance, classes, plan, grid, EPS, rows)
    for cutoff, weight in pushes:
        assert cluster_value(table, 1, top, points.index(cutoff + delta)) == weight
        past = cluster_value(table, 1, top, points.index(cutoff + delta + 1))
        assert past is None or past > weight


def test_audit_uncrossing_detector():
    assert audit_uncrossing({(1, 0), (2, 3)})
    assert audit_uncrossing(set())
    assert not audit_uncrossing({(1, 3), (2, 0)})  # crossing pair
    assert not audit_uncrossing({(1, 2), (2, 2)})  # class degree two


def test_solve_detailed_diagnostics_support_audits():
    rng = random.Random(41)
    for _ in range(8):
        instance = random_instance(rng, n_max=6, t_max=3)
        result = solve_detailed(instance, Fraction(1, 2))
        assert check_feasible(instance, result.solution) is None
        if result.plan is None:
            continue
        edges = star_graph_edges(result.classes, result.plan, result.core_solution)
        assert audit_uncrossing(edges)
        assert objective(result.core_instance, result.core_solution) >= certified_floor(result)


def test_drop_bad_periods_keeps_good_intros():
    instance = five_item_instance([1, Fraction(1, 2), Fraction(1, 50)])
    plan = build_plan(instance, EPS, xi=2)  # band 2 (period 3) is bad
    filtered = drop_bad_periods(plan, Solution((1, 3, None, 2, 3)))
    assert filtered.intro == (1, None, None, 2, None)


def solve_tables(instance, eps_public):
    """(core, classes, plan, grid, eps) per distinct plan, set up as ``solve_detailed`` sets them up."""
    pre, _ = preprocess(instance)
    fit = tuple(item for item in pre.items if item[1] <= pre.capacities[-1])
    if not fit:
        return
    core, _, _ = integer_units(Instance(fit, pre.capacities, pre.lambdas))
    eps = internal_eps(eps_public)
    classes = build_classes(core, eps)
    profits = [p for p, _ in core.items]
    seen = set()
    for xi in range(eps.denominator):
        plan = build_plan(core, eps, xi)
        if plan.num_clusters == 0 or plan.clusters in seen:
            continue
        seen.add(plan.clusters)
        psi_cap = core.suffix_lambdas[0] * sum(profits)
        grid = build_grid(eps, plan.num_clusters, core.lambdas[-1], max(profits), psi_cap)
        yield core, classes, plan, grid, eps


def last_row_answer(plan, table, n_items):
    """The answer of the last row (M, top class): its highest feasible index,
    then its backpointers.  ``glue`` returns it on plans of two or more
    clusters; on one-cluster plans row (1, top) is read through it."""
    m, ell = plan.num_clusters, max(table.classes.indices)
    target = last_target(table)
    intro = [None] * n_items
    idx = target
    while m >= 1 and idx > 0:
        ell_prev, idx_prev, step, sub = table.transition(m, ell, idx)
        for local_item, local_t in step.introduced():
            intro[sub.item_ids[local_item]] = sub.periods[local_t - 1]
        m, ell, idx = m - 1, ell_prev, idx_prev
    return Solution(tuple(intro)), table.grid.point(target)


def last_row_cases():
    """Uniform, heavy-profit, scaled two-cluster and fractional instances, with a public eps."""
    rng = random.Random(20)
    for _ in range(6):
        yield random_instance(rng, n_max=9, t_max=4), Fraction(1, 2)
    for _ in range(4):
        items = [(rng.choice((100, 110, 121)), rng.randint(1, 10)) for _ in range(rng.randint(6, 10))]
        caps = list(itertools.accumulate(rng.randint(3, 12) for _ in range(rng.randint(2, 4))))
        yield Instance.build(items, caps, [rng.randint(1, 5) for _ in caps]), Fraction(1, 2)
    for seed in range(4):
        # weights past KNAPSACK_CELLS, so the bound floors them
        base = two_cluster_instance(seed)
        items = [(p, w * 1000 + rng.randint(0, 99)) for p, w in base.items]
        yield Instance.build(items, [c * 1000 for c in base.capacities], base.lambdas), Fraction(4, 5)
    for _ in range(3):

        def frac(lo, hi):
            return Fraction(rng.randint(lo * 4, hi * 4), rng.choice([2, 3, 5]))

        caps = list(itertools.accumulate(frac(1, 6) for _ in range(3)))
        items = [(frac(1, 8), frac(1, 4)) for _ in range(rng.randint(3, 7))]
        yield Instance.build(items, caps, [frac(1, 3) for _ in caps]), Fraction(1, 2)
    for seed in (1, 2):
        yield forced_instance(seed, 8, 10), Fraction(4, 5)


def assert_rows_ascend(table):
    """Every filled row, the shared zero row included, holds its indices ascending."""
    for row in (table._zero, *table._rows.values()):
        assert list(row) == sorted(row)


def test_glue_answers_from_the_full_last_row():
    # the pruned rows give the full rows' target, backpointer and weight,
    # while building fewer frontiers, and glue answers from them on plans of
    # two or more clusters; some cases floor their weights, and the
    # forced-shape cases have two clusters in every plan, unfloored.  Both
    # tables' rows hold their indices in ascending order
    built = {"pruned": 0, "full": 0}
    kinds = Counter()
    for instance, eps_public in last_row_cases():
        for core, classes, plan, grid, eps in solve_tables(instance, eps_public):
            rows = class_rows(core, classes)
            pruned = cluster_dp(core, classes, plan, grid, eps, rows)
            got = last_row_answer(plan, pruned, core.n)
            if plan.num_clusters > 1:
                assert glue(plan, pruned) == got
            built["pruned"] += len(pruned._frontiers)
            full = FullRowTable(core, classes, plan, grid, eps, rows)
            assert got == last_row_answer(plan, full, core.n)
            built["full"] += len(full._frontiers)
            assert_rows_ascend(pruned)
            assert_rows_ascend(full)
            m, top, target = plan.num_clusters, max(classes.indices), last_target(pruned)
            link = cluster_link(pruned, m, top, target)
            assert link == cluster_link(full, m, top, target)
            if link is not None:
                assert link[2] + step_weight(pruned, m, top, target) == cluster_value(full, m, top, target)
            kinds[plan.num_clusters, pruned._bounds[-1].g > 1] += 1
    assert built["pruned"] < built["full"]
    assert kinds[2, True] and kinds[2, False] and kinds[1, False]


def test_glue_answers_a_one_cluster_plan_by_the_best_endpoint_of_one_frontier():
    # glue returns the first endpoint, in frontier order, of the most true
    # profit of frontier (1, 0, top, 0), found here by decoding every
    # endpoint; it fills no row and builds no other frontier, and certifies
    # the endpoint's rounded profit, read off its threshold, at most the
    # answer's profit.  A one-cluster winner of the solve carries that value.
    # The last case's frontier ends in item 0 alone (weight 4) and items 1
    # and 2 (weight 5), both of profit 31: the first is the answer
    tie = Instance.build(items=[(31, 4), (15, 2), (16, 3)], capacities=[5], lambdas=[1])
    checked, ties = 0, 0
    for instance, eps_public in [*last_row_cases(), (tie, Fraction(1, 2))]:
        for core, classes, plan, grid, eps in solve_tables(instance, eps_public):
            if plan.num_clusters > 1:
                continue
            table = cluster_dp(core, classes, plan, grid, eps, class_rows(core, classes))
            solution, value = glue(plan, table)
            top = max(classes.indices)
            assert table._rows == {} and set(table._frontiers) == {(1, 0, top, 0)}
            sub = single_cluster_instance(core, classes, plan, 1, 0, top, 0)
            frontier = InverseFrontier(sub.instance, accuracy_budget(eps, 3))
            answers = []
            for i in range(len(frontier.weights)):
                intro = [None] * core.n
                for local_item, local_t in frontier.solution(i).introduced():
                    intro[sub.item_ids[local_item]] = sub.periods[local_t - 1]
                answers.append(Solution(tuple(intro)))
            profits = [objective(core, answer) for answer in answers]
            first = profits.index(max(profits))
            ties += profits.count(max(profits)) > 1
            assert solution == answers[first]
            q = frontier.eps.denominator
            assert value == Fraction(frontier.thresholds[first], frontier.den) * (q - 3) / q
            assert value <= objective(core, solution)
            checked += 1
        result = solve_detailed(instance, eps_public)
        if result.plan is not None and result.plan.num_clusters == 1:
            assert result.phi_target <= objective(result.core_instance, result.core_solution)
    assert checked > 20 and ties


class RandomSkips:
    """A cluster bound that caps no index and skips each predecessor at random."""

    def __init__(self, rng):
        self.rng = rng

    def most(self, *args):
        return 0

    def skips(self, *args):
        return self.rng.random() < 0.5


def test_rows_list_the_indices_they_hold_on_hand_built_plans():
    # every row of three tables on plans of two and three clusters: the
    # pruned one read by glue, where rows of need > 0 hold no index 0 and
    # some hold nothing; the full one read whole; and one whose bound skips
    # predecessors at random, so later predecessors fill gaps and a row's
    # indices need not be written in ascending order
    rng = random.Random(4)
    shapes = Counter()
    for core, classes, plan, grid in itertools.islice(hand_built_plans(9), 30):
        rows = class_rows(core, classes)
        table = cluster_dp(core, classes, plan, grid, EPS, rows)
        glue(plan, table)
        assert_rows_ascend(table)
        for row in table._rows.values():
            shapes[plan.num_clusters, 0 in row] += 1
        full = FullRowTable(core, classes, plan, grid, EPS, rows)
        skipping = cluster_dp(core, classes, plan, grid, EPS, rows)
        skipping._least_target, skipping._bounds = 0, (RandomSkips(rng),) * plan.num_clusters
        for other in (full, skipping):
            for m in range(plan.num_clusters + 1):
                for ell in other._ell_states:
                    other._row(m, ell)
            assert_rows_ascend(other)
    assert min(shapes[key] for key in itertools.product((2, 3), (False, True))) > 5


def solve_recording_tables(monkeypatch, instance, eps_public):
    """``solve_detailed``'s result, with the cluster DP tables it built in order."""
    tables = []

    def recorded(*args):
        tables.append(cluster_dp(*args))
        return tables[-1]

    monkeypatch.setattr(general, "cluster_dp", recorded)
    return solve_detailed(instance, eps_public), tables


@pytest.mark.parametrize("horizon, n, grids", [(10, 32, 1), (20, 16, 2)], ids=["T=10", "T=20"])
def test_plans_of_one_cluster_count_share_one_grid(monkeypatch, horizon, n, grids):
    # the instances of CI's forced multicluster rows: every T=10 plan has two
    # clusters, T=20 plans three or four, and each count's grid is built
    # once and read by every plan of that count
    built = []
    monkeypatch.setattr(general, "build_grid", lambda *args: built.append(args) or build_grid(*args))
    _, tables = solve_recording_tables(monkeypatch, forced_instance(1, n, horizon), Fraction(4, 5))
    assert len(built) == grids
    by_count = {}
    for table in tables:
        assert by_count.setdefault(table.plan.num_clusters, table.grid) is table.grid
    assert len(by_count) == grids < len(tables)


@pytest.mark.parametrize("cells", [general.KNAPSACK_CELLS, 4])
def test_every_table_of_a_solve_reads_its_class_rows(monkeypatch, cells):
    # one set of class rows per solve, the very rows each table of two or
    # more clusters would have built for itself (``reference.table_class_rows``),
    # also when a cell budget of 4 floors them; a table of one cluster reads
    # neither rows nor a grid, and gets none
    monkeypatch.setattr(general, "KNAPSACK_CELLS", cells)
    shared = Counter()
    for instance, eps_public in last_row_cases():
        _, tables = solve_recording_tables(monkeypatch, instance, eps_public)
        multi = [table for table in tables if table.plan.num_clusters > 1]
        for table in tables:
            if table.plan.num_clusters == 1:
                assert table.class_rows is None and table.grid is None
                continue
            assert table.class_rows is multi[0].class_rows
            assert table.class_rows == table_class_rows(table)
            shared[len(multi) > 1, table.class_rows[0] > 1] += 1
    assert shared[True, cells == 4] > 0


def assignment_weights(sub):
    """(packed weight per period, objective) of every assignment of sub, feasible or not."""
    suffix = sub.suffix_lambdas
    for intro in itertools.product(range(sub.horizon + 1), repeat=sub.n):  # 0: never
        weights = [sum(w for (_, w), t in zip(sub.items, intro) if 0 < t <= period) for period in range(1, sub.horizon + 1)]
        yield weights, sum(p * suffix[t - 1] for (p, _), t in zip(sub.items, intro) if t)


@pytest.mark.parametrize("cells", [general.KNAPSACK_CELLS, 4])
def test_last_row_bound_is_admissible(monkeypatch, cells):
    # every feasible assignment of the last cluster's subinstance profits at
    # most U(its weight), at every committed weight omega it fits, also when
    # a cell budget of 4 floors the knapsack rows
    monkeypatch.setattr(general, "KNAPSACK_CELLS", cells)
    rng = random.Random(cells)
    checked = 0
    for _ in range(15):
        instance = random_instance(rng, n_max=7, t_max=3)
        for core, classes, plan, grid, eps in solve_tables(instance, Fraction(1, 2)):
            bound = cluster_dp(core, classes, plan, grid, eps, class_rows(core, classes))._bounds[-1]
            assert (bound.g > 1) == (cells == 4 and core.capacities[-1] >= 4)
            top = max(classes.indices)
            for ell_prev in (-1,) + classes.indices:
                sub = single_cluster_instance(core, classes, plan, plan.num_clusters, ell_prev + 1, top, 0).instance
                for weights, profit in assignment_weights(sub):
                    # feasible at omega iff every nonzero weight fits W_t - omega
                    slack = [c - w for c, w in zip(sub.capacities, weights) if w]
                    if slack and min(slack) < 0:
                        continue
                    most = min(slack, default=core.capacities[-1])
                    for omega in {0, rng.randint(0, most), most}:
                        assert profit <= bound.profit(ell_prev, top, omega, weights[-1])
                        checked += 1
    assert checked > 1000


def test_last_row_skips_exactly_what_a_linear_scan_rules_out():
    # skips(...) is True iff no entry of any weight writes above reach and
    # the least weight writing at reach, by a scan of every weight, gives
    # no total lighter than values[reach]; an entry of weight x writes idx
    # iff floor(U(x) * q/(q-3) in grid units) + offset >= grid[idx].  Each
    # state is drawn at random, then with the offset or values[reach] moved
    # onto the boundaries of both tests
    rng = random.Random(3)
    cases = Counter()
    for instance, eps_public in last_row_cases():
        for core, classes, plan, grid, eps in solve_tables(instance, eps_public):
            bound = cluster_dp(core, classes, plan, grid, eps, class_rows(core, classes))._bounds[-1]
            top, top_weight = max(classes.indices), core.capacities[-1]
            if top_weight > 100:
                continue
            q = accuracy_budget(eps, 3).denominator
            points = grid.values
            for _ in range(10):
                ell_prev = rng.choice((-1,) + classes.indices)
                omega = rng.randint(0, top_weight)
                reach = rng.randrange(len(points))

                def cutoff(x):
                    return math.floor(Fraction(bound.profit(ell_prev, top, omega, x) * q, q - 3) * grid.unit)

                most = cutoff(top_weight)
                offsets = {rng.choice(grid.offsets), points[reach] - most, points[reach] - most - 1}
                if reach + 1 < len(points):
                    offsets |= {points[reach + 1] - most, points[reach + 1] - most - 1}
                for offset in offsets:
                    least = next((x for x in range(top_weight + 1) if cutoff(x) + offset >= points[reach]), None)
                    above = any(most + offset >= points[idx] for idx in range(reach + 1, len(points)))
                    heaviest = {rng.randint(0, 2 * top_weight)}
                    if least is not None:
                        heaviest |= {omega + least, omega + least + 1}
                    # nothing held at reach: skipped iff no entry writes at or above it
                    assert bound.skips(ell_prev, top, omega, offset, reach, None) == (least is None)
                    for value in heaviest:
                        lighter = least is not None and omega + least < value
                        assert bound.skips(ell_prev, top, omega, offset, reach, value) == (not above and not lighter)
                        cases[above, lighter] += 1
    assert min(cases[key] for key in itertools.product((False, True), repeat=2)) > 50


def test_glue_builds_few_frontiers_on_the_benchmark(monkeypatch):
    # the first 12 seed-1 general-uniform instances, as the benchmark builds
    # them: a full last row builds 92 frontiers, the pruned one 23, and the
    # best endpoint of frontier (1, 0, top, 0) one per solve, 12
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    built = []

    class Counted(InverseFrontier):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(general, "InverseFrontier", Counted)
    workload = workloads.WORKLOADS["general-uniform"]
    for index in range(12):
        solve_detailed(workload.make(1, index), Fraction(workload.eps))
    assert 0 < len(built) <= 12


@pytest.mark.parametrize(
    "name, most, grids, rows",
    [("general-uniform", 200, 0, 0), ("general-multicluster", 337, 54, 108), ("verify-small", 120, 0, 0)],
    ids=["general-uniform", "general-multicluster", "verify-small"],
)
def test_glue_builds_few_frontiers_on_the_full_benchmark_pools(monkeypatch, name, most, grids, rows):
    # each full seed-1 pool, as the benchmark builds it, counting the
    # general solves' frontiers; on general-multicluster, rows of earlier
    # clusters filled in full build 1,030; keeping only their states of
    # F >= L, 441; also skipping every predecessor that writes nothing
    # above need nor lighter at it, 395; taking L from cluster 1's chain
    # alone, never building frontier (m, 0, top, 0) for m >= 2, 348;
    # answering one-cluster plans by frontier (1, 0, top, 0)'s best endpoint,
    # with no row filled, 337.  The other pools solve one plan each, of one
    # cluster, and build that one frontier per solve (428 and 249 when their
    # rows were filled).  Grids and class knapsack rows (two
    # ``knapsack_rows`` calls) in the same pass, counted exactly: one of each
    # per plan built 216 grids and 432 row sets on general-multicluster; one
    # grid per cluster count and one set of rows per solve, 108 and 108; and
    # none for plans of one cluster, which read neither, 54 grids (one per
    # solve, all of two clusters) and 108, and none at all on the other pools
    # (200 and 400 on general-uniform, 120 and 240 on verify-small before)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    built = Counter()

    class Counted(InverseFrontier):
        def __init__(self, *args):
            built["frontiers"] += 1
            super().__init__(*args)

    def counted(name, fn):
        def call(*args):
            built[name] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(general, "InverseFrontier", Counted)
    monkeypatch.setattr(general, "build_grid", counted("grids", general.build_grid))
    monkeypatch.setattr(general, "knapsack_rows", counted("rows", general.knapsack_rows))
    workload = workloads.WORKLOADS[name]
    for index in range(workload.pool):
        solve_detailed(workload.make(1, index), Fraction(workload.eps))
    assert 0 < built["frontiers"] <= most
    assert built["grids"] == grids
    assert built["rows"] == rows


def hand_built_plans(cells):
    """(core, classes, plan, grid) at EPS: random instances of n <= 7 and T
    of 2 or 3 under every plan of two or three clusters over their periods."""
    rng = random.Random(cells)
    plans = {
        2: [((1,), (2,))],
        3: [((1,), (2, 3)), ((1, 2), (3,)), ((1,), (3,)), ((1,), (2,), (3,))],
    }
    while True:
        instance = random_instance(rng, n_max=7, t_max=3)
        if instance.horizon == 1:
            continue
        core, _, _ = integer_units(preprocess(instance)[0])
        if core.horizon == 1:
            continue
        classes = build_classes(core, EPS)
        profits = [p for p, _ in core.items]
        for clusters in plans[core.horizon]:
            plan = general.ClusterPlan(clusters=clusters)
            psi_cap = core.suffix_lambdas[0] * sum(profits)
            yield core, classes, plan, build_grid(EPS, len(clusters), core.lambdas[-1], max(profits), psi_cap)


def highest_reach(table, m, ell, idx, omega, memo):
    """The highest last-row index any chain of pushes from state (m, ell,
    idx) at weight omega writes, each entry taken at any weight it serves."""
    key = (m, ell, idx, omega)
    if m == table.plan.num_clusters:
        return idx
    if key not in memo:
        points, offset = table.grid.values, table.grid.offsets[idx]
        best = idx
        for nxt in table._ell_states:
            if nxt < ell:
                continue
            for cutoff, weight in table._frontier(m + 1, ell + 1, nxt, omega)[2]:
                reached = bisect_right(points, cutoff + offset) - 1
                best = max(best, highest_reach(table, m + 1, nxt, reached, weight, memo))
        memo[key] = best
    return memo[key]


@pytest.mark.parametrize("cells", [general.KNAPSACK_CELLS, 4])
def test_reach_bound_caps_every_chain_and_the_target_floor(monkeypatch, cells):
    # by brute force over every state of the full rows: no chain of pushes
    # from a state ends above F_m(ell, idx) (``climb``), and the full last
    # row writes L (``_least_target``), so its target is at least L; also
    # when a cell budget of 4 floors the knapsack rows
    monkeypatch.setattr(general, "KNAPSACK_CELLS", cells)
    states = Counter()
    floored = 0
    for core, classes, plan, grid in itertools.islice(hand_built_plans(cells), 20):
        rows = class_rows(core, classes)
        full = FullRowTable(core, classes, plan, grid, EPS, rows)
        table = cluster_dp(core, classes, plan, grid, EPS, rows)
        clusters, top = plan.num_clusters, max(classes.indices)
        assert table._least_target in full._row(clusters, top)
        floored += table._bounds[0].g > 1
        memo = {}
        for m in range(clusters):
            for ell in table._ell_states:
                for idx, (omega, _, _) in full._row(m, ell).items():
                    bound = climb(table, m, ell, idx)
                    assert highest_reach(full, m, ell, idx, omega, memo) <= bound
                    states[clusters, bound < table._least_target] += 1
    assert min(states[key] for key in itertools.product((2, 3), (False, True))) > 20
    assert (floored > 0) == (cells == 4)


@pytest.mark.parametrize("cells", [general.KNAPSACK_CELLS, 4])
def test_cluster_bounds_are_admissible_on_every_class_range(monkeypatch, cells):
    # every feasible assignment of cluster m's subinstance on classes
    # ell_prev+1..ell profits at most U(its weight) of cluster m's bound,
    # at every committed weight omega it fits
    monkeypatch.setattr(general, "KNAPSACK_CELLS", cells)
    rng = random.Random(cells + 1)
    checked = Counter()
    for core, classes, plan, grid in itertools.islice(hand_built_plans(cells + 1), 12):
        table = cluster_dp(core, classes, plan, grid, EPS, class_rows(core, classes))
        for m, bound in enumerate(table._bounds, start=1):
            for ell_prev, ell in itertools.combinations(table._ell_states, 2):
                sub = single_cluster_instance(core, classes, plan, m, ell_prev + 1, ell, 0).instance
                for weights, profit in assignment_weights(sub):
                    slack = [c - w for c, w in zip(sub.capacities, weights) if w]
                    if slack and min(slack) < 0:
                        continue
                    most = min(slack, default=core.capacities[-1])
                    for omega in {0, rng.randint(0, most), most}:
                        assert profit <= bound.profit(ell_prev, ell, omega, weights[-1])
                        checked[ell < max(classes.indices)] += 1
    assert checked[True] > 1000 and checked[False] > 1000


def reference_need(table, m, ell):
    """The least index whose forward climb (``climb``) reaches L; the top index's climb does."""
    return next(idx for idx in range(len(table.grid.values)) if climb(table, m, ell, idx) >= table._least_target)


def test_earlier_rows_skip_exactly_the_predecessors_that_cannot_reach_the_floor():
    # a row (m, ell) with m < M skips a predecessor (ell_prev, omega) at an
    # offset iff F_m(ell, idx1) < L, idx1 being the highest index its most
    # serving entry may write by cluster m's bound, when ``skips`` is asked
    # at reach need, the least index of F >= L, with no weight there yet.
    # Offsets drawn at random and on both sides of every grid point
    rng = random.Random(7)
    cases = Counter()
    for core, classes, plan, grid in itertools.islice(hand_built_plans(7), 12):
        table = cluster_dp(core, classes, plan, grid, EPS, class_rows(core, classes))
        glue(plan, table)
        points, least = grid.values, table._least_target
        for m, ell in list(table._rows):
            if not 0 < m < plan.num_clusters or ell < 0:
                continue
            need = reference_need(table, m, ell)
            bound = table._bounds[m - 1]
            for ell_prev in table._ell_states:
                if ell_prev > ell:
                    break
                for omega in {0, rng.randint(0, core.capacities[-1])}:
                    most = bound.most(ell_prev, ell, omega)
                    offsets = {rng.choice(grid.offsets)}
                    offsets |= {point - most + d for point in points for d in (-1, 0)}
                    for offset in offsets:
                        if offset < 0:
                            continue
                        idx1 = bisect_right(points, most + offset) - 1
                        want = climb(table, m, ell, idx1) < least
                        assert bound.skips(ell_prev, ell, omega, offset, need, None) == want
                        cases[want] += 1
    assert cases[True] > 1000 and cases[False] > 1000


def test_each_row_needs_the_least_index_the_climb_lifts_to_the_floor(monkeypatch):
    # ``_need`` bisects the offsets back from L, one later cluster at a
    # time; it is ``reference_need``, never above L.  Hand-built plans of
    # two and three clusters, and two multicluster benchmark instances;
    # earlier rows of both sizes need index 0 and a later one
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    workload = workloads.WORKLOADS["general-multicluster"]
    cases = [(*case, EPS) for seed in (5, 6) for case in itertools.islice(hand_built_plans(seed), 40)]
    for index in (0, 1):
        cases += solve_tables(workload.make(1, index), Fraction(workload.eps))
    rows = Counter()
    for core, classes, plan, grid, eps in cases:
        table = cluster_dp(core, classes, plan, grid, eps, class_rows(core, classes))
        for m in range(1, plan.num_clusters + 1):
            for ell in classes.indices:
                need = table._need(m, ell)
                assert need == reference_need(table, m, ell) <= table._least_target
                if m < plan.num_clusters:
                    rows[plan.num_clusters, need > 0] += 1
    assert min(rows[key] for key in itertools.product((2, 3), (False, True))) > 20
    # and with every later cluster's most set on a boundary, points[j] -
    # offsets[i] or one below it, where bisect_left and bisect_right part;
    # ties counts the cases where some offset plus a most is a point
    rng = random.Random(5)
    ties = 0
    for core, classes, plan, grid in itertools.islice(hand_built_plans(5), 40):
        points, offsets = grid.values, grid.offsets
        for _ in range(5):
            table = cluster_dp(core, classes, plan, grid, EPS, class_rows(core, classes))
            table._least_target = rng.randrange(len(points))
            table._bounds = tuple(
                FixedMost(max(points[j] - rng.choice(offsets[:j]) - rng.randint(0, 1), 0))
                for j in (rng.randrange(1, len(points)) for _ in range(plan.num_clusters))
            )
            top = max(classes.indices)
            for m in range(1, plan.num_clusters):
                assert table._need(m, top) == reference_need(table, m, top)
                ties += any(bound.most() + offset in points for bound in table._bounds[m:] for offset in offsets)
    assert ties > 100


class FixedMost:
    """A cluster bound whose ``most`` is one fixed value."""

    def __init__(self, value):
        self.value = value

    def most(self, *args):
        return self.value
