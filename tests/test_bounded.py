import itertools
import random
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import helpers
from helpers import (
    AllWindowsFrontier,
    PairScanDP,
    cell_chain,
    dp_value,
    e1,
    family_of,
    fraction_merge_frontier,
    lattice_rows,
    lattice_size,
    lattice_weights,
    member_cells,
    members,
    period_rows,
    random_class_structure,
    random_instance,
    sparse_heavy_structures,
    served,
    suffix_ratio,
    two_heavy_structures,
    uncut,
    window_bracket,
)
from incknap import bounded, statespace
from incknap.bounded import (
    ChainNotMonotone,
    InverseFrontier,
    accuracy_budget,
    check_internal_eps,
    dp_solve,
    prefix_to_solution,
    solve_bounded,
    solve_inverse,
)
from incknap.classes import build_classes, make_interval, candidate_intervals
from incknap.cli import generate_instance
from incknap.general import internal_eps, solve_detailed
from incknap.model import (
    BudgetExceeded,
    InfeasibleSolution,
    Instance,
    Solution,
    ValidationError,
    check_feasible,
    integer_units,
    objective,
    preprocess,
)
from incknap.oracle import exact_inverse, exact_opt
from incknap.statespace import enumerate_family, heavy_configurations
from reference import (
    absorbers,
    all_entries_merge,
    base_tables,
    exact_opt_by_profits,
    exact_restricted_dp,
    full_sweep_dp,
    tuple_family,
)

EPS = Fraction(1, 5)


def test_check_internal_eps():
    assert check_internal_eps(Fraction(1, 8)) == Fraction(1, 8)
    for bad in (Fraction(1, 4), Fraction(2, 7), Fraction(0)):
        with pytest.raises(ValueError):
            check_internal_eps(bad)


def test_accuracy_budget_of_three_losses():
    assert accuracy_budget(Fraction(1, 5), 3) == Fraction(1, 15)
    assert accuracy_budget(Fraction(1, 14), 3) == Fraction(1, 42)
    assert accuracy_budget(Fraction(1), 3) == Fraction(1, 5)
    for bad in (Fraction(0), Fraction(-1)):
        with pytest.raises(ValueError):
            accuracy_budget(bad, 3)


def test_dp_solve_hand_rollout():
    # single class, weights [1,2], W=(1,3), unit lambdas: F(2,(2)) = 2 + 1 = 3
    instance = Instance.build(items=[(1, 1), (1, 2)], capacities=[1, 3], lambdas=[1, 1])
    classes = build_classes(instance, EPS)
    interval = make_interval(classes, 0, 0)
    family = enumerate_family(classes, interval, EPS, instance.capacities)
    table = dp_solve(classes, interval, family, instance.capacities, instance.suffix_lambdas)
    by_counts = {table.family.counts(cell): cell for cell in table.family.cells}
    assert dp_value(table, 2, by_counts[(2,)]) == 3
    assert dp_value(table, 1, by_counts[(2,)]) is None  # weight 3 over W_1
    assert dp_value(table, 2, by_counts[(0,)]) == 0
    assert cell_chain(table, by_counts[(2,)]) == [(1,), (2,)]


def test_dp_solve_refuses_a_table_past_the_family_budget(monkeypatch):
    # a table of exactly FAMILY_BUDGET entries (fitting cells times T+1
    # rows) is built; one entry more is refused, by the family's walk before
    # any row, with the count it needs
    instance = Instance.build(items=[(1, 1), (1, 2), (3, 2)], capacities=[2, 4], lambdas=[1, 1])
    classes = build_classes(instance, EPS)
    interval = make_interval(classes, classes.indices[0], classes.indices[-1])
    entries = len(enumerate_family(classes, interval, EPS, instance.capacities).cells) * 3
    monkeypatch.setattr(statespace, "FAMILY_BUDGET", entries)
    family = enumerate_family(classes, interval, EPS, instance.capacities)
    dp_solve(classes, interval, family, instance.capacities, instance.suffix_lambdas)
    monkeypatch.setattr(statespace, "FAMILY_BUDGET", entries - 1)
    with pytest.raises(BudgetExceeded) as info:
        enumerate_family(classes, interval, EPS, instance.capacities)
    assert (info.value.required, info.value.budget) == (entries, entries - 1)


def test_dp_zero_vector_reachable_every_period():
    rng = random.Random(2)
    for _ in range(10):
        instance = random_instance(rng, n_max=5, t_max=3)
        classes = build_classes(instance, EPS)
        for interval in candidate_intervals(classes, EPS, suffix_ratio(instance)):
            family = enumerate_family(classes, interval, EPS, instance.capacities)
            table = dp_solve(classes, interval, family, instance.capacities, instance.suffix_lambdas)
            zero = next(cell for cell in table.family.cells if all(c == 0 for c in table.family.counts(cell)))
            for t in range(instance.horizon + 1):
                assert dp_value(table, t, zero) == 0


def test_dp_restricted_below_exact():
    # family-restricted values never exceed the full-family DP values
    rng = random.Random(8)
    for _ in range(15):
        instance = random_instance(rng, n_max=5, t_max=3)
        classes = build_classes(instance, EPS)
        top = max(classes.indices)
        interval = make_interval(classes, 0, top)
        family = enumerate_family(classes, interval, EPS, instance.capacities)
        table = dp_solve(classes, interval, family, instance.capacities, instance.suffix_lambdas)
        exact = exact_restricted_dp(instance, classes, interval, budget=200_000)
        for cell in table.family.cells:
            approx = dp_value(table, instance.horizon, cell)
            full = exact[(instance.horizon, table.family.counts(cell))]
            if approx is not None:
                assert full is not None
                assert approx <= full


def random_horizon(rng, total_weight):
    """Fraction capacities up to the total weight and positive Fraction lambdas."""
    horizon = rng.randint(1, 4)
    caps = sorted(Fraction(rng.randint(0, 3 * int(total_weight) + 3), 3) for _ in range(horizon))
    lambdas = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(horizon)]
    return caps, tuple(itertools.accumulate(reversed(lambdas)))[::-1]


def rational(v, den):
    """A table value over its denominator, or None for an empty entry."""
    return None if v is None else Fraction(v, den)


def assert_dp_matches_pair_scan(classes, interval, family, capacities, suffix):
    """Value and predecessor counts equal per (period, member); every other
    lattice cell stays empty."""
    got = dp_solve(classes, interval, family, capacities, suffix)
    want = PairScanDP(classes, interval, family, capacities, suffix)
    assert got.family is family
    # the table's values are over the top class's denominator on every
    # window, the pair scan's over its window's: compare them as rationals
    assert got.family.value_den == classes.eps.denominator ** max(classes.indices)
    cells = set(member_cells(family))
    assert sorted(map(family.counts, cells)) == sorted(want.members)
    for t in range(len(capacities) + 1):
        raw, back = lattice_rows(got, t)
        assert len(raw) == len(back) == lattice_size(family)
        assert all(raw[c] is None and back[c] is None for c in range(lattice_size(family)) if c not in cells)
        rows = {
            family.counts(c): (rational(raw[c], got.family.value_den), None if back[c] is None else family.counts(back[c]))
            for c in cells
        }
        assert rows == {
            counts: (
                rational(want.raw[t][j], want.value_den),
                None if want.back[t][j] is None else want.members[want.back[t][j]],
            )
            for j, counts in enumerate(want.members)
        }


def test_dp_solve_matches_pair_scan():
    rng = random.Random(53)
    # class structures on weight grids 1/2 and 1/3, Fraction capacities and lambdas
    for eps, den in itertools.product((Fraction(1, 5), Fraction(1, 8)), (2, 3)):
        for _ in range(12):
            instance, classes, interval = random_class_structure(rng, eps, max_classes=3, max_items=9, den=den)
            caps, suffix = random_horizon(rng, instance.capacities[0])
            family = enumerate_family(classes, interval, eps, caps)
            assert_dp_matches_pair_scan(classes, interval, family, caps, suffix)
    # sub-families (zero plus a random subset of a product): lattices with empty cells
    sparse = 0
    for _ in range(40):
        instance, classes, interval = random_class_structure(rng, EPS, max_classes=3, max_items=4, den=2)
        product = list(itertools.product(*(range(classes.size(l) + 1) for l in interval.active)))
        picked = {product[0], *rng.sample(product, rng.randint(1, len(product)))}
        caps, suffix = random_horizon(rng, instance.capacities[0])
        family = family_of(classes, interval, picked, caps)
        sparse += len(family.cells) > len(family)
        assert_dp_matches_pair_scan(classes, interval, family, caps, suffix)
    assert sparse >= 10
    # two heavy classes at once, where the counting cap cuts combinations
    cases = list(two_heavy_structures())
    assert len(cases) >= 3
    for args in cases:
        classes, interval = args[:2]
        caps, suffix = random_horizon(rng, 60)
        family = enumerate_family(*args, caps)
        assert_dp_matches_pair_scan(classes, interval, family, caps, suffix)
    # windows below the top class, whose families are lifted by the top
    # class of all classes all the same, enumerated and sub-families alike
    below = 0
    for _ in range(30):
        instance, classes, interval = random_class_structure(rng, EPS, max_classes=4, max_items=4, den=2)
        if interval.hi == 0:
            continue
        hi = rng.randrange(interval.hi)
        window = make_interval(classes, rng.randint(0, hi), hi)
        below += 1
        product = list(itertools.product(*(range(classes.size(l) + 1) for l in window.active)))
        picked = {product[0], *rng.sample(product, rng.randint(1, len(product)))}
        caps, suffix = random_horizon(rng, instance.capacities[0])
        for family in (enumerate_family(classes, window, EPS, caps), family_of(classes, window, picked, caps)):
            assert_dp_matches_pair_scan(classes, window, family, caps, suffix)
    assert below >= 15


def tight_capacities(rng, weights, horizon):
    """Nondecreasing capacities drawn from the lattice cells' weights up to
    their median, so about half the cells or more never fit and some cells
    sit exactly on a capacity."""
    low = sorted(weights)[: len(weights) // 2 + 1]
    return sorted(rng.choice(low) for _ in range(horizon))


def assert_fits_closed_downwards(family, weights, cap):
    """Every cell within cap has each axis predecessor (one count rank lower)
    within cap too."""
    for cell, w in enumerate(weights):
        if w <= cap:
            for stride, values in zip(family.strides, family.values):
                if cell // stride % len(values):
                    assert weights[cell - stride] <= cap


def test_dp_solve_matches_pair_scan_under_tight_capacities():
    # capacities below most lattice cells: all-light windows on weight grids
    # 1/2 and 1/3, then windows with two heavy classes, bench-shaped and
    # weights 1-40, some of whose families miss lattice cells
    rng = random.Random(97)
    families = []
    for eps, den in itertools.product((Fraction(1, 5), Fraction(1, 8)), (2, 3)):
        for _ in range(10):
            instance, classes, interval = random_class_structure(rng, eps, max_classes=3, max_items=9, den=den)
            families.append((classes, interval, eps))
    heavy = [*two_heavy_structures(), *sparse_heavy_structures()]
    cut = sparse = 0
    for args in families + heavy:
        classes, interval = args[:2]
        whole = enumerate_family(*args, uncut(classes, interval))
        sparse += lattice_size(whole) > len(whole)
        weights = lattice_weights(classes, interval, whole)
        caps, suffix = random_horizon(rng, 1)
        caps = tight_capacities(rng, weights, len(caps))
        family = enumerate_family(*args, caps)
        assert_fits_closed_downwards(family, weights, caps[-1])
        cut += 2 * sum(w > caps[-1] for w in weights) >= len(weights)
        assert_dp_matches_pair_scan(classes, interval, family, caps, suffix)
    assert sparse >= 2
    assert cut >= len(families + heavy) // 2


def test_dp_solve_breaks_predecessor_ties_by_count_sum_first():
    # classes of profit 5 (one item, weight 1) and 6 (two items, weight 2),
    # lambdas 7, 5, 1: at period 3, (0,2) and (1,0) tie as predecessors of
    # (1,2) (72 - 12 = 65 - 5), and (1,0) comes first by count-sum although
    # (0,2) comes first by counts alone; (1,1), which would beat both, is
    # left out of the family
    instance = Instance.build(items=[(5, 1), (6, 2), (6, 2)], capacities=[1, 4, 5], lambdas=[7, 5, 1])
    classes = build_classes(instance, EPS)
    interval = make_interval(classes, 0, 1)
    family = family_of(classes, interval, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 2)], instance.capacities)
    assert lattice_size(family) == 6 and len(family) == 5
    table = dp_solve(classes, interval, family, instance.capacities, instance.suffix_lambdas)
    assert cell_chain(table, lattice_size(family) - 1) == [(1, 0), (1, 0), (1, 2)]
    assert_dp_matches_pair_scan(classes, interval, family, instance.capacities, instance.suffix_lambdas)


def heavy_profit_families():
    # profits 100/110/121 are one class each at eps 1/10; 14 items of profit
    # 100 make that class heavy
    eps = Fraction(1, 10)
    rng = random.Random(5)
    profits = [100] * 14 + [110] * 4 + [121] * 3
    instance = Instance.build(items=[(p, rng.randint(1, 10)) for p in profits], capacities=[60], lambdas=[1])
    classes = build_classes(instance, eps)
    for interval in candidate_intervals(classes, eps, Fraction(1)):
        yield classes, interval, eps


def test_dp_rows_are_the_cells_that_fit():
    # the walk's index set is the whole-lattice filter on the largest
    # capacity, in cell order, and only members within a period's capacity
    # hold a value: on random, heavy-profit, two-heavy and sparse families,
    # under loose and tight capacities
    rng = random.Random(31)
    families = []
    for _ in range(20):
        instance, classes, interval = random_class_structure(rng, EPS, max_classes=3, max_items=9, den=2)
        families.append((classes, interval, EPS))
    families += heavy_profit_families()
    families += [*two_heavy_structures(), *sparse_heavy_structures()]
    cut = sparse = 0
    for args in families:
        classes, interval = args[:2]
        whole = enumerate_family(*args, uncut(classes, interval))
        sparse += lattice_size(whole) > len(whole)
        inside = set(member_cells(whole))
        weights = lattice_weights(classes, interval, whole)
        for tight in (False, True):
            caps, suffix = random_horizon(rng, max(weights))
            if tight:
                caps = tight_capacities(rng, weights, len(caps))
            family = enumerate_family(*args, caps)
            table = dp_solve(classes, interval, family, caps, suffix)
            fits = [cell for cell, w in enumerate(weights) if w <= max(caps)]
            assert list(family.cells) == fits
            assert list(family.weights) == [weights[cell] for cell in fits]
            cut += len(fits) < lattice_size(family)
            raw, _ = period_rows(table)
            assert [v is None for v in raw[0]] == [cell != 0 for cell in fits]
            for t in range(1, len(caps) + 1):
                held = [family.cells[pos] for pos, v in enumerate(raw[t]) if v is not None]
                assert all(cell in inside and weights[cell] <= caps[t - 1] for cell in held)
    assert sparse >= 2
    assert cut >= len(families)


def bench_pool(monkeypatch, name):
    """The seed-1 pool of a benchmark workload and its public eps, as the benchmark builds them."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    workload = workloads.WORKLOADS[name]
    return [workload.make(1, index) for index in range(workload.pool)], Fraction(workload.eps)


def test_per_base_family_equals_the_tuple_product_cell_for_cell(monkeypatch):
    # enumerate_family's per-base multiplier sums give the family of the
    # tuple product (reference.tuple_family), cell for cell, on every window
    # of the seed-1 bounded-heavy pool, on the window holding every class of
    # the bounded n=64 and n=100 CI rows, and on random heavy classes whose
    # capacities let counts past 1/eps fit, which the first two almost never do
    eps = Fraction(1, 10)  # bounded mode's accuracy at public 1/2
    cases = []
    instances, _ = bench_pool(monkeypatch, "bounded-heavy")
    for instance in instances:
        instance, _, _ = integer_units(preprocess(instance)[0])
        classes = build_classes(instance, eps)
        for interval in candidate_intervals(classes, eps, suffix_ratio(instance)):
            cases.append((classes, interval, eps, instance.capacities))
    for n in (64, 100):
        instance, _, _ = integer_units(preprocess(generate_instance(1, n, 4, "uniform"))[0])
        classes = build_classes(instance, eps)
        widest = candidate_intervals(classes, eps, suffix_ratio(instance))[-1]
        assert widest.active == classes.indices
        cases.append((classes, widest, eps, instance.capacities))
    assert len(cases) == 902
    rng = random.Random(43)
    fitting = []
    for args in (*two_heavy_structures(), *sparse_heavy_structures()):
        weights = sorted(args[0].prefix[l][-1] for l in args[1].active)
        fitting += [(*args, [weights[-1]]), (*args, uncut(*args[:2])), (*args, [rng.randint(1, sum(weights))])]
    for _ in range(40):
        eps_r = Fraction(1, rng.choice((5, 6, 8)))
        _, classes, interval = random_class_structure(rng, eps_r, max_classes=3, max_items=int(1 / eps_r) + 6)
        fitting.append((classes, interval, eps_r, uncut(classes, interval)))
    for args in cases:
        assert enumerate_family(*args) == spec_family(*args)
    past = 0
    for args in fitting:
        family = enumerate_family(*args)
        assert family == spec_family(*args)
        past += any(c > args[2].denominator for counts, _ in members(family) for c in counts)
    assert past >= 60


def spec_family(classes, interval, eps, capacities):
    """``reference.tuple_family`` on the bracket of the window's items."""
    return tuple_family(classes, interval, eps, *window_bracket(classes, interval), capacities)


def test_heavy_configurations_read_the_spec_bracket_off_the_classes(monkeypatch):
    # heavy_configurations reads the window's lightest item, heaviest item
    # and item count off the class prefix sums; its bases and tables equal
    # the spec's (reference.base_tables) on the bracket of the window's
    # items one by one (helpers.window_bracket), and so do its families cut
    # at the whole lattice: on random classes of int and Fraction weights,
    # the two-heavy and sparse-heavy windows, and every window of the seed-1
    # bounded-heavy pool (whose families the test above compares)
    rng = random.Random(44)
    windows = [*two_heavy_structures(), *sparse_heavy_structures()]
    for den in [1] * 40 + [2, 3, 7] * 20:
        eps = Fraction(1, rng.choice((5, 6, 8)))
        _, classes, interval = random_class_structure(rng, eps, max_classes=3, max_items=int(1 / eps) + 8, den=den)
        windows.append((classes, interval, eps))
    pool = []
    instances, _ = bench_pool(monkeypatch, "bounded-heavy")
    for instance in instances:
        instance, _, _ = integer_units(preprocess(instance)[0])
        classes = build_classes(instance, Fraction(1, 10))
        for interval in candidate_intervals(classes, Fraction(1, 10), suffix_ratio(instance)):
            pool.append((classes, interval, Fraction(1, 10)))
    heavy = Counter()
    for name, cases in (("windows", windows), ("pool", pool)):
        for args in cases:
            tables = list(heavy_configurations(*args))
            assert tables == base_tables(*args, *window_bracket(*args[:2]))
            heavy[name] += bool(tables)
    for args in windows:
        whole = uncut(*args[:2])
        assert enumerate_family(*args, whole) == spec_family(*args, whole)
    assert heavy["windows"] >= 80 and heavy["pool"] == 703


def test_dp_solve_matches_the_full_sweep_on_bench_families(monkeypatch):
    # every dp_solve call of the seed-1 general-uniform (general mode) and
    # bounded-heavy (bounded mode) pools gives the rows of the sweep over
    # every fitting cell in every period, entry for entry; bounded-heavy's
    # 300 solves build 300 tables, every other window absorbed (heavy ones
    # on their classes alone where no count past 1/eps fits)
    calls = []

    def checked(*args):
        table = dp_solve(*args)
        assert period_rows(table) == full_sweep_dp(*args)
        calls.append(len(args[2].cells))
        return table

    monkeypatch.setattr(bounded, "dp_solve", checked)
    instances, eps = bench_pool(monkeypatch, "general-uniform")
    for instance in instances:
        solve_detailed(instance, eps)
    assert len(calls) == 200
    instances, eps = bench_pool(monkeypatch, "bounded-heavy")
    for instance in instances:
        solve_bounded(instance, accuracy_budget(eps, 5))
    assert len(calls) == 200 + 300 and max(calls) > 1000


def random_horizon_args(rng):
    """``dp_solve``'s arguments on random horizons: random, sparse (lattice
    cells outside the family), two-heavy and sparse-heavy families, under
    loose and tight capacities."""
    for _ in range(30):
        instance, classes, interval = random_class_structure(rng, EPS, max_classes=3, max_items=9, den=2)
        caps, suffix = random_horizon(rng, instance.capacities[0])
        yield classes, interval, enumerate_family(classes, interval, EPS, caps), caps, suffix
    for _ in range(40):
        instance, classes, interval = random_class_structure(rng, EPS, max_classes=3, max_items=4, den=2)
        product = list(itertools.product(*(range(classes.size(l) + 1) for l in interval.active)))
        picked = {product[0], *rng.sample(product, rng.randint(1, len(product)))}
        caps, suffix = random_horizon(rng, instance.capacities[0])
        yield classes, interval, family_of(classes, interval, picked, caps), caps, suffix
    for args in [*two_heavy_structures(), *sparse_heavy_structures()]:
        classes, interval = args[:2]
        weights = lattice_weights(classes, interval, enumerate_family(*args, uncut(classes, interval)))
        for tight in (False, True):
            caps, suffix = random_horizon(rng, 60)
            if tight:
                caps = tight_capacities(rng, weights, len(caps))
            yield classes, interval, enumerate_family(*args, caps), caps, suffix


def test_dp_solve_matches_the_full_sweep_on_random_horizons():
    # non-member cells are swept in every period, and each chain walks the
    # sweep's predecessors back from the last row
    rng = random.Random(35)
    sparse = entered = 0
    for args in random_horizon_args(rng):
        table = dp_solve(*args)
        raw, back = full_sweep_dp(*args)
        assert period_rows(table) == (raw, back)
        sparse += len(args[2]) < len(args[2].cells)
        family, caps = args[2], args[3]
        for pos, v in enumerate(raw[-1]):
            if v is not None:
                path = [pos]
                for t in range(len(caps), 1, -1):
                    path.append(back[t][path[-1]])
                assert table.chain(pos) == [family.counts(family.cells[p]) for p in reversed(path)]
                # a member weighing exactly an earlier capacity is carried from the next period
                entered += family.weights[pos] in caps[:-1]
    assert sparse >= 20 and entered >= 20


def with_a_zero_lambda(rng, suffix):
    """The suffix with one lambda before the last set to zero, or None at T=1."""
    lambdas = [a - b for a, b in zip(suffix, (*suffix[1:], 0))]
    if len(lambdas) < 2:
        return None
    lambdas[rng.randrange(len(lambdas) - 1)] = 0
    return tuple(itertools.accumulate(reversed(lambdas)))[::-1]


def test_dp_carries_every_reached_member_after_a_positive_lambda():
    # in the full sweep (tests/reference.py), with every lambda positive a
    # member reached at t-1 keeps its value and points to itself at t, so the
    # rows nest: each is the last row restricted to the members within its
    # capacity; after a zero lambda keys tie and some point below themselves
    rng = random.Random(36)
    carried = below = 0
    for classes, interval, family, caps, suffix in random_horizon_args(rng):
        zeroed = with_a_zero_lambda(rng, suffix)
        for lams in (suffix, zeroed) if zeroed else (suffix,):
            raw, back = full_sweep_dp(classes, interval, family, caps, lams)
            for t in range(2, len(caps) + 1):
                for pos, v in enumerate(raw[t - 1]):
                    if v is None:
                        continue
                    if lams is suffix:
                        assert (raw[t][pos], back[t][pos]) == (v, pos)
                        carried += 1
                    else:
                        below += back[t][pos] != pos
    assert carried > 1000 and below > 0


def counts_by_class(interval, counts):
    return {l: c for l, c in zip(interval.active, counts) if c}


def test_inverse_frontier_matches_fraction_merge():
    rng = random.Random(61)
    instances = [random_instance(rng, n_max=8, t_max=3) for _ in range(20)]
    for _ in range(8):  # Fraction profits, six of them equal: a class past 1/eps items
        items = [(Fraction(rng.choice([3, 4, 9]), rng.randint(1, 3)), rng.randint(1, 6)) for _ in range(4)]
        items += [(Fraction(7, 2), rng.randint(1, 6)) for _ in range(6)]
        instances.append(Instance.build(items=items, capacities=[10, 25], lambdas=[2, Fraction(1, 3)]))
    tops = set()
    for instance in instances:
        instance, _, _ = integer_units(instance)
        frontier = InverseFrontier(instance, EPS)
        want = fraction_merge_frontier(instance, EPS)
        # a skipped window's vector comes from a window holding its copy, so
        # compare counts per class rather than per window; entries keep ints,
        # so read each value back from the rational it serves
        got = [
            (weight, s * (1 - 3 * EPS), table and counts_by_class(table.interval, table.family.counts(table.family.cells[pos])))
            for (weight, _, table, pos), s in zip(frontier._frontier, served(frontier))
        ]
        assert got == [(w, v, i and counts_by_class(i, c)) for w, v, i, c in want]
        assert frontier.weights == [e[0] for e in want]
        assert served(frontier) == [e[1] / (1 - 3 * EPS) for e in want]
        tops.add(len({e[2].hi for e in want if e[2] is not None}))
    assert max(tops) >= 3  # entries from tables of different top classes compete


def recorded_frontier(monkeypatch, instance, eps):
    """``InverseFrontier(instance, eps)``, its candidate windows, and the
    (window index, table) of each DP table it built, in order."""
    seen, tables = [], []
    monkeypatch.setattr(bounded, "candidate_intervals", lambda *args: seen.append(candidate_intervals(*args)) or seen[-1])
    monkeypatch.setattr(bounded, "dp_solve", lambda *args: tables.append(dp_solve(*args)) or tables[-1])
    frontier = InverseFrontier(instance, eps)
    (intervals,) = seen
    indexed = [(next(i for i, w in enumerate(intervals) if w is table.interval), table) for table in tables]
    return frontier, intervals, indexed


def test_pareto_scan_matches_the_all_entries_merge(monkeypatch):
    # the tables are the windows no window absorbs, and per-table Pareto
    # scans, then the merge, give the entries, weights, thresholds and
    # solutions of merging every final-row entry of every table: random
    # instances, heavy windows that stay several tables (they overlap, or a
    # window's members differ from a wider window's restricted ones; only heavy
    # windows give a frontier more than one table), where equal (weight,
    # value) entries of different tables tie, and the first seed-1 instances
    # of bounded-heavy and general-uniform at their frontiers' accuracies
    # (1/10, and 1/42 for general mode's clusters)
    rng = random.Random(62)
    cases = [(random_instance(rng, n_max=8, t_max=3), EPS) for _ in range(20)]
    for _ in range(8):
        items = [(Fraction(rng.choice([3, 4, 9]), rng.randint(1, 3)), rng.randint(1, 6)) for _ in range(4)]
        items += [(Fraction(7, 2), rng.randint(1, 6)) for _ in range(6)]
        cases.append((Instance.build(items=items, capacities=[10, 25], lambdas=[2, Fraction(1, 3)]), EPS))
    profits = [100] * 14 + [110] * 4 + [121] * 3
    for _ in range(4):
        items = [(p, rng.randint(1, 10)) for p in profits]
        cases.append((Instance.build(items=items, capacities=[30, 60], lambdas=[2, 1]), Fraction(1, 10)))
    for _ in range(12):  # profits 48 levels apart at 1/10, past the window width: heavy windows overlap
        items = [(p, rng.randint(1, 10)) for p in (1, 100, 10**4) for _ in range(rng.randint(8, 14))]
        cases.append((Instance.build(items=items, capacities=[30, 60], lambdas=[2, 1]), Fraction(1, 10)))
    cases.append(nested_heavy_instance())
    instances, _ = bench_pool(monkeypatch, "bounded-heavy")
    cases += [(instance, Fraction(1, 10)) for instance in instances[:12]]
    instances, eps = bench_pool(monkeypatch, "general-uniform")
    cases += [(instance, accuracy_budget(internal_eps(eps), 3)) for instance in instances[:12]]
    shapes = Counter()
    for instance, eps in cases:
        instance, _, _ = integer_units(preprocess(instance)[0])
        frontier, intervals, tables = recorded_frontier(monkeypatch, instance, eps)
        classes = frontier.classes
        families = [enumerate_family(classes, w, eps, instance.capacities) for w in intervals]
        absorbed_by = absorbers(intervals, families)
        assert [index for index, _ in tables] == [index for index, by in enumerate(absorbed_by) if not by]
        want, ties = all_entries_merge(tables, intervals, absorbed_by, classes)
        assert [(w, v, table, pos) for w, v, table, pos in frontier._frontier] == want
        assert all(got[2] is entry[2] for got, entry in zip(frontier._frontier, want))
        assert frontier.weights == [w for w, _, _, _ in want]
        q = frontier.eps.denominator
        assert frontier.thresholds == [frontier.classes.scale * q * v for _, v, _, _ in want]
        for i, (_, _, table, pos) in enumerate(want):
            if table is None:
                assert frontier.solution(i) == Solution.empty(instance.n)
            else:
                chain = table.chain(pos)
                assert frontier.solution(i) == prefix_to_solution(frontier.classes, table.interval, chain, instance.n)
        heavy = any(frontier.classes.size(l) > q for _, table in tables for l in table.interval.active)
        shapes[len(tables) > 1, heavy] += 1
        shapes["ties"] += ties
    assert shapes[True, True] >= 10 and shapes["ties"] >= 20


def test_query_on_int_thresholds_matches_a_fraction_bisect():
    # requirements at, just below and just above every served value, the gap
    # a large-denominator rational, so the query's one ceiling must be exact;
    # Fraction profits and weights, in integer units, give large units
    rng = random.Random(71)
    instances = [random_instance(rng, n_max=8, t_max=3) for _ in range(12)]
    for _ in range(6):
        items = [(Fraction(rng.choice([3, 4, 9]), rng.randint(1, 3)), Fraction(rng.randint(1, 6), 2)) for _ in range(4)]
        items += [(Fraction(7, 2), rng.randint(1, 6)) for _ in range(6)]
        instances.append(Instance.build(items=items, capacities=[10, 25], lambdas=[2, Fraction(1, 3)]))
    gap = Fraction(1, 10**40 + 3)
    probes = 0
    for instance in instances:
        instance, _, _ = integer_units(instance)
        frontier = InverseFrontier(instance, EPS)
        want = fraction_merge_frontier(instance, EPS)
        want_served = [value / (1 - 3 * EPS) for _, value, _, _ in want]
        assert served(frontier) == want_served
        phis = {Fraction(0), want_served[-1] * 2} | {s + d for s in want_served for d in (-gap, 0, gap) if s + d >= 0}
        for phi in sorted(phis):
            idx = bisect_left(want_served, phi)
            res = frontier.query(phi)
            if idx == len(want):
                assert res is None
            else:
                assert (res.weight, res.rounded_profit) == want[idx][:2]
            probes += 1
    assert probes > 300


def frontier_answers(frontier, served):
    """weights, served, and the full answer of every query that reaches an entry."""
    answers = [frontier.query(s) for s in served]
    return frontier.weights, served, [(r.solution, r.rounded_profit, r.true_profit, r.weight) for r in answers]


def power_profit_instance(rng, eps, levels, sizes, weights, horizon):
    """Profits exactly (1+eps)**level, so every class is fixed by construction."""
    items = [((1 + eps) ** level, rng.choice(weights)) for level in levels for _ in range(rng.choice(sizes))]
    caps = list(itertools.accumulate(rng.randint(1, 8) for _ in range(horizon)))
    return Instance.build(items=items, capacities=caps, lambdas=[rng.randint(1, 5) for _ in range(horizon)])


def frontier_equivalence_instances():
    rng = random.Random(71)
    for _ in range(40):  # all-light: at most 1/eps items per class
        levels = rng.sample(range(6), rng.randint(1, 4))
        yield power_profit_instance(rng, EPS, levels, range(1, 6), range(1, 11), rng.randint(1, 3)), EPS
    for _ in range(60):  # tie-prone: weights 1-2, half of them already in integer units
        levels = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
        instance = power_profit_instance(rng, EPS, levels, range(1, 7), (1, 2), rng.randint(1, 3))
        yield (integer_units(instance)[0] if rng.random() < 0.5 else instance), EPS
    for _ in range(6):  # bench profits 100/110/121 at eps 1/10, classes past 10 items
        sizes = [rng.randint(2, 13) for _ in range(3)]
        items = [(p, rng.randint(1, 10)) for p, k in zip((100, 110, 121), sizes) for _ in range(k)]
        caps = list(itertools.accumulate(rng.randint(10, 40) for _ in range(2)))
        lambdas = [rng.randint(1, 5) for _ in range(2)]
        yield Instance.build(items=items, capacities=caps, lambdas=lambdas), Fraction(1, 10)


def members_within(interval, family, active):
    """Counts on the classes ``active`` of the members that count 0 on every other class of ``interval``."""
    inside = [l in active for l in interval.active]
    return {
        tuple(c for c, i in zip(counts, inside) if i)
        for counts, _ in members(family)
        if all(i or c == 0 for c, i in zip(counts, inside))
    }


def test_inverse_frontier_matches_all_windows(monkeypatch):
    # answers equal the all-windows frontier's; every heavy window gets a
    # table or is absorbed, and an absorbed window's family, enumerated
    # here, is the members of a table whose classes include its own that
    # count 0 outside them
    built = []
    monkeypatch.setattr(bounded, "dp_solve", lambda *args: built.append(args[1:3]) or dp_solve(*args))
    skipped = heavy = 0
    for instance, eps in frontier_equivalence_instances():
        instance, _, _ = integer_units(instance)
        built.clear()
        frontier = InverseFrontier(instance, eps)
        reference = AllWindowsFrontier(instance, eps)
        assert frontier_answers(frontier, served(frontier)) == frontier_answers(reference, reference.served)
        classes = frontier.classes
        for window in candidate_intervals(classes, eps, suffix_ratio(instance)):
            if any(window == interval for interval, _ in built):
                continue
            own = {counts for counts, _ in members(enumerate_family(classes, window, eps, instance.capacities))}
            assert any(
                set(window.active) <= set(interval.active) and members_within(interval, family, window.active) == own
                for interval, family in built
            )
            skipped += 1
            heavy += any(classes.size(l) > eps.denominator for l in window.active)
    assert skipped > 0 and heavy > 0


def random_heavy_shape(rng):
    """An instance whose classes may pass 1/eps items, and its eps (1/5 to
    1/10): profits {100, 110, 121}, {100, 101, 102}, {1000, 1500} or a short
    geometric ladder, weights 1-10, zero lambdas among them."""
    eps = Fraction(1, rng.choice((5, 6, 8, 10)))
    q = eps.denominator
    ratio = rng.choice((Fraction(5, 4), Fraction(3, 2), Fraction(2)))
    ladder = tuple(int(100 * ratio**i) for i in range(rng.randint(2, 4)))
    profits = rng.choice(((100, 110, 121), (100, 101, 102), (1000, 1500), ladder))
    items = [(p, rng.randint(1, 10)) for p in profits for _ in range(rng.choice((rng.randint(1, q), rng.randint(q + 1, q + 6))))]
    rng.shuffle(items)
    horizon = rng.randint(1, 4)
    caps = list(itertools.accumulate(rng.randint(3, 25) for _ in range(horizon)))
    lambdas = [rng.randint(0, 5) for _ in range(horizon - 1)] + [rng.randint(1, 5)]
    return Instance.build(items=items, capacities=caps, lambdas=lambdas), eps


def nested_heavy_shape(rng):
    """An instance where 100 and 110 share class 0 and 121 is class 1, at
    eps 1/5 or 1/6, each profit drawn on q-2 to q+6 items of weights 1-10,
    and capacity steps of 10-25 that often let a heavy count fit."""
    eps = Fraction(1, rng.choice((5, 6)))
    q = eps.denominator
    items = [(p, rng.randint(1, 10)) for p in (100, 110, 121) for _ in range(rng.randint(q - 2, q + 6))]
    rng.shuffle(items)
    horizon = rng.randint(1, 4)
    caps = list(itertools.accumulate(rng.randint(10, 25) for _ in range(horizon)))
    lambdas = [rng.randint(0, 5) for _ in range(horizon - 1)] + [rng.randint(1, 5)]
    return Instance.build(items=items, capacities=caps, lambdas=lambdas), eps


def test_inverse_frontier_matches_all_windows_on_random_heavy_shapes(monkeypatch):
    # many heavy windows are absorbed, and a heavy window whose classes
    # another window's include, but whose fitting members differ from that
    # window's restricted ones, keeps its table; answers equal the
    # all-windows frontier's either way.  Where no heavy count fits, the
    # members agree, so the nested shapes add windows that keep a table
    built = []
    monkeypatch.setattr(bounded, "dp_solve", lambda *args: built.append(args[1]) or dp_solve(*args))
    rng = random.Random(1)
    absorbed = kept = 0
    for draw in [random_heavy_shape] * 200 + [nested_heavy_shape] * 200:
        instance, eps = draw(rng)
        instance, _, _ = integer_units(preprocess(instance)[0])
        built.clear()
        frontier = InverseFrontier(instance, eps)
        reference = AllWindowsFrontier(instance, eps)
        assert frontier_answers(frontier, served(frontier)) == frontier_answers(reference, reference.served)
        intervals = candidate_intervals(frontier.classes, eps, suffix_ratio(instance))
        windows = [set(interval.active) for interval in intervals]
        for index, (window, interval) in enumerate(zip(windows, intervals)):
            if all(frontier.classes.size(l) <= eps.denominator for l in window):
                continue
            inside = any(window < w or window == w and j < index for j, w in enumerate(windows))
            absorbed += interval not in built
            kept += inside and interval in built
    assert absorbed >= 100 and kept >= 3


def nested_heavy_instance():
    """Classes 0 and 2 at eps 1/5, both heavy; window {0} lies inside {0, 2}."""
    items = [
        (1000, 4), (1500, 5), (1500, 5), (1000, 4), (1000, 9), (1000, 1), (1000, 2), (1000, 4),
        (1500, 5), (1500, 3), (1000, 2), (1000, 10), (1500, 1), (1000, 8), (1500, 1), (1000, 6),
        (1500, 2), (1000, 9), (1000, 10), (1500, 2), (1000, 8), (1000, 6), (1500, 7), (1000, 8),
    ]
    return Instance.build(items=items, capacities=[4, 7, 37, 48], lambdas=[4, 5, 4, 3]), Fraction(1, 5)


def test_a_heavy_window_whose_family_is_smaller_keeps_its_table(monkeypatch):
    # {0}'s family is a strict subset of {0, 2}'s members counting 0 on
    # class 2, so containment alone does not absorb it: both get tables
    instance, eps = nested_heavy_instance()
    instance, _, _ = integer_units(instance)
    built = []
    monkeypatch.setattr(bounded, "dp_solve", lambda *args: built.append(args[1:3]) or dp_solve(*args))
    frontier = InverseFrontier(instance, eps)
    assert [interval.active for interval, _ in built] == [(0,), (0, 2)]
    (small, own), (big, family) = built
    assert {counts for counts, _ in members(own)} < members_within(big, family, small.active)
    reference = AllWindowsFrontier(instance, eps)
    assert frontier_answers(frontier, served(frontier)) == frontier_answers(reference, reference.served)


def tie_instance():
    """Six items of class 1 (weight 1) tie five of class 2 (weights 1,1,1,1,2):
    6 * 6/5 = 5 * 36/25, both at weight 6.  Classes 0 and 3 hold one item too
    heavy to fit, so a window may contain class 1 or 2 without mixing them."""
    eps = Fraction(1, 5)
    step = 1 + eps
    items = [(1, 100), *[(step, 1)] * 7, *[(step**2, w) for w in (1, 1, 1, 1, 2)], (step**3, 100)]
    return Instance.build(items=items, capacities=[6, 10], lambdas=[1, 1]), eps


@pytest.mark.parametrize(
    "spans, winner",
    [
        # {2} is dominated by {2, 3}; its copy there must keep rank 0 and beat {1}
        ([(2, 2), (1, 1), (2, 3)], 2),
        # {2} repeats later; the first of the two keeps rank 0
        ([(2, 2), (1, 1), (2, 2)], 2),
        # the heavy {1} lies inside {0, 1}, which absorbs it; the winner's
        # copy there must keep rank 0, although it counts 6 > 1/eps items
        ([(1, 1), (2, 2), (0, 1)], 1),
    ],
)
def test_inverse_frontier_tie_goes_to_first_holding_window(monkeypatch, spans, winner):
    instance, eps = tie_instance()
    instance, _, _ = integer_units(instance)
    classes = build_classes(instance, eps)
    windows = [make_interval(classes, lo, hi) for lo, hi in spans]
    for module in (bounded, helpers):
        monkeypatch.setattr(module, "candidate_intervals", lambda classes, eps, rho: windows)
    frontier = InverseFrontier(instance, eps)
    reference = AllWindowsFrontier(instance, eps)
    assert frontier_answers(frontier, served(frontier)) == frontier_answers(reference, reference.served)
    tie = frontier.query(served(frontier)[frontier.weights.index(6)])
    assert {l for l in classes.indices for i in classes.members[l] if tie.solution.intro[i] is not None} == {winner}


def test_prefix_to_solution_unfolds_counts():
    instance = Instance.build(items=[(1, 1), (1, 2)], capacities=[3, 3, 3], lambdas=[1, 1, 1])
    classes = build_classes(instance, EPS)
    interval = make_interval(classes, 0, 0)
    solution = prefix_to_solution(classes, interval, [(0,), (1,), (2,)], 2)
    assert solution.intro == (2, 3)
    solution = prefix_to_solution(classes, interval, [(2,), (2,), (2,)], 2)
    assert solution.intro == (1, 1)
    with pytest.raises(ChainNotMonotone):
        prefix_to_solution(classes, interval, [(2,), (1,)], 2)


def test_solve_inverse_phi_zero():
    pre, _ = preprocess(e1())
    result = solve_inverse(pre, Fraction(0), EPS)
    assert result.weight == 0
    assert result.solution.intro == (None, None)


def test_solve_inverse_e1_super_optimal():
    pre, _ = preprocess(e1())
    result = solve_inverse(pre, Fraction(8), EPS)
    assert result is not None
    assert result.weight <= 3  # exact inverse optimum weighs 3
    assert result.true_profit >= (1 - 3 * EPS) * 8


def test_solve_inverse_infeasible():
    pre, _ = preprocess(e1())
    assert solve_inverse(pre, Fraction(100), EPS) is None


def test_solve_inverse_drops_zero_lambda_periods():
    # a trailing zero lambda used to reach InverseFrontier's precondition
    instance = Instance.build(items=[(2, 1), (3, 2)], capacities=[2, 3], lambdas=[1, 0])
    result = solve_inverse(instance, Fraction(1), EPS)
    assert result is not None
    assert len(result.solution.intro) == 2
    assert check_feasible(instance, result.solution) is None
    assert result.true_profit == objective(instance, result.solution)
    assert result.true_profit >= (1 - 3 * EPS) * 1
    zero = Instance.build(items=[(2, 1)], capacities=[2, 3], lambdas=[0, 0])
    assert solve_inverse(zero, Fraction(0), EPS).solution.intro == (None,)
    assert solve_inverse(zero, Fraction(1), EPS) is None


@pytest.mark.parametrize("lambdas", [[1, 1], [0, 0]], ids=["frontier", "all-zero-lambdas"])
def test_solve_inverse_answers_in_fractions(lambdas):
    # every lambda zero returns before any frontier is built, and must
    # still answer in the frontier path's types
    instance = Instance.build(items=[(2, 1), (3, 2)], capacities=[2, 3], lambdas=lambdas)
    result = solve_inverse(instance, Fraction(0), EPS)
    assert result.solution.intro == (None, None)
    assert [type(v) for v in (result.rounded_profit, result.true_profit, result.weight)] == [Fraction] * 3


def test_solve_inverse_super_optimality_sweep():
    rng = random.Random(14)
    for _ in range(30):
        instance = random_instance(rng, n_max=6, t_max=3)
        opt, _ = exact_opt(instance)
        if opt == 0:
            continue
        frontier = InverseFrontier(integer_units(instance)[0], EPS)  # units 1: int profits and weights
        for quarter in (1, 2, 3, 4):
            phi = opt * quarter / 4
            oracle_res = exact_inverse(instance, phi)
            approx = frontier.query(phi)
            if oracle_res is not None:
                assert approx is not None
                assert approx.weight <= oracle_res[0]
            if approx is not None:
                assert approx.true_profit >= (1 - 3 * EPS) * phi
                assert check_feasible(instance, approx.solution) is None
                assert approx.weight == approx.solution.weights_by_period(instance)[-1]


def test_backpointer_chains_monotone_and_feasible():
    rng = random.Random(27)
    for _ in range(15):
        instance = random_instance(rng, n_max=5, t_max=3)
        classes = build_classes(instance, EPS)
        for interval in candidate_intervals(classes, EPS, suffix_ratio(instance)):
            family = enumerate_family(classes, interval, EPS, instance.capacities)
            table = dp_solve(classes, interval, family, instance.capacities, instance.suffix_lambdas)
            by_counts = dict(members(table.family))
            for cell in table.family.cells:
                if dp_value(table, instance.horizon, cell) is None:
                    continue
                chain = cell_chain(table, cell)
                for t, (prev, cur) in enumerate(zip([(0,) * len(interval.active)] + chain, chain)):
                    assert all(a <= b for a, b in zip(prev, cur))
                    assert by_counts[cur] <= instance.capacities[t]


def test_solve_inverse_result_metrics_consistent():
    rng = random.Random(4)
    for _ in range(10):
        instance = random_instance(rng, n_max=5, t_max=2)
        opt, _ = exact_opt(instance)
        res = solve_inverse(instance, opt, EPS)
        if res is None:
            continue
        assert res.true_profit == objective(instance, res.solution)
        assert res.rounded_profit <= res.true_profit


def test_solve_bounded_e1():
    pre, _ = preprocess(e1())
    solution = solve_bounded(pre, EPS)
    assert objective(pre, solution) >= (1 - 5 * EPS) * 8


def test_solve_bounded_no_items():
    instance = Instance.build(items=[], capacities=[1], lambdas=[1])
    assert solve_bounded(instance, EPS).intro == ()


def test_solve_bounded_single_item():
    instance = Instance.build(items=[(1, 1)], capacities=[1], lambdas=[1])
    solution = solve_bounded(instance, EPS)
    assert solution.intro == (1,)
    assert objective(instance, solution) == 1


@pytest.mark.parametrize(
    "items, lambdas",
    [
        ([(0, 1), (3, 2)], [1]),  # profit 0: the class ladder's scale would be 0
        ([(2, -1), (3, 2)], [1]),  # weight -1: an answer would weigh -1
        ([(2, 1), (3, 2)], [-5]),  # lambda -5: preprocessing would drop it
    ],
)
def test_bounded_entries_validate_like_solve_detailed(items, lambdas):
    instance = Instance.build(items=items, capacities=[4], lambdas=lambdas)
    with pytest.raises(ValueError) as general_error:
        solve_detailed(instance, Fraction(1, 2))
    assert isinstance(general_error.value, ValidationError)
    entries = (
        lambda: solve_bounded(instance, EPS),
        lambda: solve_inverse(instance, Fraction(1), EPS),
        lambda: exact_opt(instance),
        lambda: exact_inverse(instance, Fraction(1)),
    )
    for solve in entries:
        with pytest.raises(ValueError) as error:
            solve()
        assert type(error.value) is type(general_error.value)
        assert str(error.value) == str(general_error.value)


@pytest.mark.parametrize("seed,n", [(0, 20), (0, 24), (1, 20), (1, 24)])
def test_solve_bounded_guarantee_where_classes_are_heavy(seed, n):
    # profits 1.1 apart give one class each at internal eps 1/7, so at n >= 20
    # some class holds more than 7 items and the heavy branch runs; the exact
    # optimum comes from the package oracle
    eps_int = accuracy_budget(Fraction(4, 5), 5)
    assert eps_int == Fraction(1, 7)
    rng = random.Random(seed * 100 + n)
    items = [(rng.choice((100, 110, 121)), rng.randint(1, 10)) for _ in range(n)]
    caps, acc = [], 0
    for _ in range(4):
        acc += rng.randint(1, 10)
        caps.append(acc)
    instance = Instance.build(items=items, capacities=caps, lambdas=[rng.randint(1, 5) for _ in range(4)])
    classes = build_classes(preprocess(instance)[0], eps_int)
    assert max(classes.size(l) for l in classes.indices) > 7
    opt, _ = exact_opt(instance)
    assert objective(instance, solve_bounded(instance, eps_int)) >= (1 - 5 * eps_int) * opt


def test_solve_inverse_heavy_classes_super_optimal():
    # many equal-profit items force classes past the 1/eps threshold, so the
    # inverse DP runs on genuinely pruned (up-rounded, truncated) vectors
    rng = random.Random(71)
    heavy_runs = 0
    for _ in range(12):
        n = rng.randint(8, 10)
        t = rng.randint(1, 2)
        profit = rng.randint(1, 10)
        items = [(profit, rng.randint(1, 6)) for _ in range(n)]
        if rng.random() < 0.5:
            items += [(profit * 3, rng.randint(1, 6)) for _ in range(rng.randint(1, 2))]
        caps = []
        acc = 0
        for _ in range(t):
            acc += rng.randint(6, 30)
            caps.append(acc)
        instance = Instance.build(
            items=items, capacities=caps, lambdas=[rng.randint(1, 5) for _ in range(t)]
        )
        classes = build_classes(instance, EPS)
        assert any(classes.size(l) > int(1 / EPS) for l in classes.indices)
        frontier = InverseFrontier(integer_units(instance)[0], EPS)  # units 1: int profits and weights
        if any(
            any(c > int(1 / EPS) for c in counts)
            for entry in frontier._frontier
            if entry[2] is not None
            for counts, _ in members(entry[2].family)
        ):
            heavy_runs += 1
        opt, _ = exact_opt(instance)
        for quarter in (1, 2, 3, 4):
            phi = opt * quarter / 4
            oracle_res = exact_inverse(instance, phi)
            approx = frontier.query(phi)
            if oracle_res is not None:
                assert approx is not None
                assert approx.weight <= oracle_res[0]
            if approx is not None:
                assert approx.true_profit >= (1 - 3 * EPS) * phi
                assert check_feasible(instance, approx.solution) is None
    assert heavy_runs >= 8  # the pruned vectors really appeared in the DP


def test_inverse_frontier_is_sharp_where_heavy_classes_are_pruned():
    # profits 100-102 fall into one class at 1/10, and light weights let a
    # frontier member pack more than 1/eps items of that class, so heavy
    # counts are up-rounded and truncated; against the exact inverse optimum
    # at phi = k/20 of the optimum, every answer weighs no more and earns at
    # least (1-3*eps)*phi
    eps = Fraction(1, 10)
    heavy = 0
    for n in (44, 54, 64):
        for seed in range(4):
            rng = random.Random(100 * n + seed)  # one stream per instance, not shared item prefixes
            items = [(rng.choice((100, 101, 102)), rng.randint(1, 10)) for _ in range(n)]
            capacities = list(itertools.accumulate(rng.randint(1, 10) for _ in range(4)))
            instance = Instance.build(items=items, capacities=capacities, lambdas=[rng.randint(1, 5) for _ in range(4)])
            frontier = InverseFrontier(instance, eps)
            level = {i: l for l, members in frontier.classes.members.items() for i in members}
            counts = (Counter(level[i] for i, _ in frontier.solution(k).introduced()) for k in range(len(frontier.weights)))
            heavy += any(c > 1 / eps for count in counts for c in count.values())
            opt, _ = exact_opt(instance)
            for k in range(1, 21):
                phi = opt * Fraction(k, 20)
                exact_weight, _ = exact_inverse(instance, phi)
                answer = frontier.query(phi)
                assert answer.weight <= exact_weight
                assert answer.true_profit >= (1 - 3 * eps) * phi
                assert check_feasible(instance, answer.solution) is None
    assert heavy >= 6  # the pruning engages on at least half of the 12 instances


def test_solve_bounded_tolerates_zero_middle_lambda():
    # the zero middle period is dropped before the frontier is built
    instance = Instance.build(items=[(2, 1), (3, 2)], capacities=[2, 3, 3], lambdas=[1, 0, 1])
    solution = solve_bounded(instance, EPS)
    assert check_feasible(instance, solution) is None
    assert objective(instance, solution) >= (1 - 5 * EPS) * exact_opt(instance)[0]


def test_solve_bounded_drops_zero_lambda_periods():
    # trailing and all-zero lambdas need no preprocessing by the caller; the
    # answer comes back on the original periods
    eps = Fraction(1, 10)
    rng = random.Random(47)
    cases = [
        Instance.build(items=[(2, 1), (3, 2), (4, 3)], capacities=[2, 3, 6], lambdas=[1, 1, 0]),
        Instance.build(items=[(2, 1), (3, 2)], capacities=[1, 2, 3], lambdas=[0, 0, 0]),
    ]
    for _ in range(10):
        base = random_instance(rng, n_max=6, t_max=3)
        caps = base.capacities + (base.capacities[-1] + 5,)
        cases.append(Instance.build(base.items, caps, base.lambdas + (0,)))
    for instance in cases:
        opt, _ = exact_opt(instance)
        solution = solve_bounded(instance, eps)
        assert len(solution.intro) == instance.n
        assert check_feasible(instance, solution) is None
        assert all(instance.lambdas[t - 1] > 0 for _, t in solution.introduced())
        assert objective(instance, solution) >= (1 - 5 * eps) * opt
    assert solve_bounded(cases[1], eps) == Solution.empty(2)


def test_solve_bounded_guarantee_sweep():
    rng = random.Random(31)
    for _ in range(25):
        instance = random_instance(rng, n_max=6, t_max=3)
        opt, _ = exact_opt(instance)
        solution = solve_bounded(instance, EPS)
        assert check_feasible(instance, solution) is None
        assert objective(instance, solution) >= (1 - 5 * EPS) * opt


def test_solve_bounded_takes_most_profitable_frontier_entry():
    rng = random.Random(53)
    for _ in range(40):
        instance = random_instance(rng, n_max=7, t_max=3)
        eps = rng.choice([EPS, Fraction(1, 6), Fraction(1, 10)])
        pre, _ = preprocess(instance)
        scaled, _, _ = integer_units(pre)
        frontier = InverseFrontier(scaled, eps)
        best = max(frontier.query(s).true_profit for s in served(frontier))
        assert objective(scaled, solve_bounded(scaled, eps)) == best


def test_solve_bounded_returns_the_first_most_profitable_query():
    # the whole answer, not just its profit: the endpoint the forward solver
    # decodes and scores is the one a query per endpoint would pick, equal true
    # profits going to the first endpoint in frontier order.  Random and
    # heavy-profit instances (one class per profit at eps 1/10), then one
    # where two endpoints tie: at eps 1/5 profit 2 rounds to 216/125, so
    # {item 2} (weight 3) and {items 0, 1} (weight 4) both pack profit 2
    rng = random.Random(59)
    cases = []
    for _ in range(24):
        n, t = rng.randint(8, 32), rng.randint(1, 4)
        items = [(rng.choice((100, 110, 121)), rng.randint(1, 10)) for _ in range(n)]
        caps = list(itertools.accumulate(rng.randint(1, 10) for _ in range(t)))
        lambdas = [rng.randint(1, 5) for _ in range(t)]
        cases.append((Instance.build(items=items, capacities=caps, lambdas=lambdas), Fraction(1, 10)))
        cases.append((random_instance(rng, n_max=9, t_max=4), rng.choice([EPS, Fraction(1, 6), Fraction(1, 10)])))
    tie = Instance.build(items=[(1, 2), (1, 2), (2, 3)], capacities=[4], lambdas=[1])
    for instance, eps in [*cases, (tie, EPS)]:
        scaled, _, _ = integer_units(preprocess(instance)[0])
        frontier = InverseFrontier(scaled, eps)
        want = max((frontier.query(s) for s in served(frontier)), key=lambda res: res.true_profit)
        assert solve_bounded(scaled, eps) == want.solution
    profits = [frontier.query(s).true_profit for s in served(frontier)]
    assert profits == [0, 1, 2, 2]
    assert solve_bounded(tie, EPS) == Solution((None, None, 1))


def test_best_decodes_only_the_entries_that_may_earn_the_most(monkeypatch):
    # every entry earns at least its rounded profit r and at most spread*r,
    # spread the classes' largest profit over its rounded profit (below
    # 1+eps), the empty one 0, so best() scans from the last entry down and
    # stops once spread*r is below the most profit found; it decodes each
    # entry it reaches once and still returns the first entry of most true
    # profit, found here by decoding them all.  Heavy-profit instances (one
    # class per profit at eps 1/10) and random ones
    rng = random.Random(61)
    decode = InverseFrontier.solution
    decoded = []
    monkeypatch.setattr(InverseFrontier, "solution", lambda self, i: decoded.append(i) or decode(self, i))
    stopped = earlier = 0
    for case in range(40):
        if case % 2:
            instance, eps = random_instance(rng, n_max=9, t_max=4), rng.choice([EPS, Fraction(1, 6), Fraction(1, 10)])
        else:
            n, t = rng.randint(8, 32), rng.randint(1, 4)
            items = [(rng.choice((100, 110, 121)), rng.randint(1, 10)) for _ in range(n)]
            caps = list(itertools.accumulate(rng.randint(1, 10) for _ in range(t)))
            instance = Instance.build(items=items, capacities=caps, lambdas=[rng.randint(1, 5) for _ in range(t)])
            eps = Fraction(1, 10)
        scaled, _, _ = integer_units(preprocess(instance)[0])
        frontier = InverseFrontier(scaled, eps)
        spread = Fraction(*frontier.classes.spread)
        profits, rounds, bounds = [], [], []
        for i in range(len(frontier.weights)):
            profit, rounded = objective(scaled, decode(frontier, i)), frontier.rounded_profit(i)
            assert rounded <= profit <= spread * rounded < (1 + eps) * rounded or profit == rounded == 0
            profits.append(profit)
            bounds.append(spread * rounded)
            rounds.append(rounded)
        decoded.clear()
        i, solution = frontier.best()
        assert i == profits.index(max(profits)) and solution == decode(frontier, i)
        last = len(profits) - 1
        stop = next((j for j in range(last - 1, -1, -1) if bounds[j] < max(profits[j + 1 :])), -1)
        assert decoded == list(range(last, stop, -1))
        stopped += stop >= 0
        # stopping on (1+eps)*r <= most instead: never earlier, here often later
        wide = next((j for j in range(last - 1, -1, -1) if (1 + eps) * rounds[j] <= max(profits[j + 1 :])), -1)
        assert wide <= stop
        earlier += wide < stop
    assert stopped > 30 and earlier > 5


@pytest.mark.parametrize("shape, error", [("full then empty", ChainNotMonotone), ("full", InfeasibleSolution)])
def test_solve_bounded_checks_every_scored_chain(monkeypatch, shape, error):
    # every scored endpoint passes the checks a query makes: a chain that
    # packs every item and then drops them is not monotone, and one that
    # packs every item (weight 9) from period 1 exceeds capacity 4 there
    def chain(table, pos):
        full = tuple(values[-1] for values in table.family.values)
        return [full, tuple(0 for _ in full)] if shape == "full then empty" else [full, full]

    instance = Instance.build(items=[(3, 2), (4, 3), (5, 4)], capacities=[4, 6], lambdas=[1, 1])
    monkeypatch.setattr(bounded.BoundedDPTable, "chain", chain)
    with pytest.raises(error) as raised:
        solve_bounded(instance, EPS)
    assert error is ChainNotMonotone or raised.value.period == 1


def test_exact_opt_by_profits_matches_the_oracle():
    # zero lambdas and Fraction profits included, and profits repeat often
    rng = random.Random(41)
    for _ in range(60):
        instance = random_instance(rng, n_max=7, t_max=3, positive_lambdas=False)
        if rng.random() < 0.5:
            items = [(Fraction(rng.choice((2, 3, 7)), 2), w) for _, w in instance.items]
            instance = Instance.build(items=items, capacities=instance.capacities, lambdas=instance.lambdas)
        assert exact_opt_by_profits(instance) == exact_opt(instance)[0]


def test_solve_bounded_meets_its_bound_where_two_heavy_classes_engage(monkeypatch):
    # profits 100/110/121 are one class each at eps 1/10, and at n = 32 to 48
    # two classes often pass 10 items at once, so heavy_configurations yields
    # bases where two classes offer counts whose least multipliers fit the
    # cap together: tuples fixing two heavy counts; the answer is held to
    # (1-5*eps)*OPT against the package oracle's optimum
    eps = Fraction(1, 10)
    two_heavy = []
    configurations = statespace.heavy_configurations

    def recording(*args):
        cap = statespace.mu_sum_cap(args[1], args[2])
        for options in configurations(*args):
            least = sorted(min(option.values()) for option in options if option)
            two_heavy.append(len(least) >= 2 and least[0] + least[1] <= cap)
            yield options

    monkeypatch.setattr(statespace, "heavy_configurations", recording)
    for n, seed in itertools.product((32, 40, 48), range(3)):
        rng = random.Random(seed)
        items = [(rng.choice((100, 110, 121)), rng.randint(1, 10)) for _ in range(n)]
        caps = list(itertools.accumulate(rng.randint(10, 40) for _ in range(4)))
        instance = Instance.build(items=items, capacities=caps, lambdas=[rng.randint(1, 5) for _ in range(4)])
        opt, _ = exact_opt(instance)
        assert objective(instance, solve_bounded(instance, eps)) >= (1 - 5 * eps) * opt
    assert any(two_heavy)
