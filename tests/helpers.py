"""Shared builders for the test suite.

The brute-force helpers here are deliberately written from the raw instance
numbers (plain loops over periods and items) so they stay independent of
the library code they check.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from dataclasses import dataclass
from typing import Optional, Sequence

from incknap.bounded import (
    BoundedDPTable,
    InverseFrontier,
    InverseResult,
    accuracy_budget,
    check_internal_eps,
    dp_solve,
    prefix_to_solution,
)
from incknap.classes import ClassInterval, ProfitClasses, build_classes, candidate_intervals
from incknap.general import ClusterDPTable, ClusterPlan, ProfitGrid, SingleClusterInstance, single_cluster_instance
from incknap.model import BudgetExceeded, Instance, Solution, integer_units, objective
from incknap.oracle import DEFAULT_BUDGET
from incknap.statespace import Family, enumerate_family


def _dominates(small: tuple[int, ...], big: tuple[int, ...]) -> bool:
    """Whether every count of small is at most big's."""
    return all(a <= b for a, b in zip(small, big))


def suffix_ratio(instance: Instance) -> Fraction:
    """The boundedness ratio rho: the first suffix lambda over the last."""
    suffix = instance.suffix_lambdas
    return Fraction(suffix[0], suffix[-1])


def e1() -> Instance:
    """Two items (p=2,w=1),(p=3,w=2), capacities (2,3), unit lambdas."""
    return Instance.build(items=[(2, 1), (3, 2)], capacities=[2, 3], lambdas=[1, 1])


def brute_profit(instance: Instance, intro: tuple[Optional[int], ...]) -> Optional[Fraction]:
    """Objective by direct definition, or None when infeasible."""
    total = Fraction(0)
    for t in range(1, instance.horizon + 1):
        weight = Fraction(0)
        profit = Fraction(0)
        for i, ti in enumerate(intro):
            if ti is not None and ti <= t:
                profit += instance.items[i][0]
                weight += instance.items[i][1]
        if weight > instance.capacities[t - 1]:
            return None
        total += instance.lambdas[t - 1] * profit
    return total


def brute_all_assignments(instance: Instance):
    """Yield every intro tuple over periods 1..T plus NEVER."""
    choices = list(range(1, instance.horizon + 1)) + [None]
    yield from itertools.product(choices, repeat=instance.n)


def brute_opt(instance: Instance) -> Fraction:
    """Exhaustive maximum objective, straight from the definition."""
    best = Fraction(0)
    for intro in brute_all_assignments(instance):
        value = brute_profit(instance, intro)
        if value is not None and value > best:
            best = value
    return best


def brute_inverse(instance: Instance, phi: Fraction) -> Optional[Fraction]:
    """Exhaustive minimum weight meeting the profit floor, or None."""
    best = None
    for intro in brute_all_assignments(instance):
        value = brute_profit(instance, intro)
        if value is None or value < phi:
            continue
        weight = sum(
            (instance.items[i][1] for i, t in enumerate(intro) if t is not None),
            Fraction(0),
        )
        if best is None or weight < best:
            best = weight
    return best


def random_instance(
    rng: random.Random,
    n_max: int = 7,
    t_max: int = 3,
    positive_lambdas: bool = True,
) -> Instance:
    n = rng.randint(1, n_max)
    t = rng.randint(1, t_max)
    items = [(rng.randint(1, 10), rng.randint(1, 10)) for _ in range(n)]
    caps = []
    acc = 0
    for _ in range(t):
        acc += rng.randint(1, 10)
        caps.append(acc)
    low = 1 if positive_lambdas else 0
    lambdas = [rng.randint(low, 5) for _ in range(t)]
    if not positive_lambdas and all(v == 0 for v in lambdas):
        lambdas[-1] = 1
    return Instance.build(items=items, capacities=caps, lambdas=lambdas)


def wide_instance(seed: int, n: int, horizon: int) -> Instance:
    """``gen``'s uniform instance with profits in [1, 1000], drawn from one
    ``random.Random(seed)``: weights, then profits, capacity steps and lambdas."""
    rng = random.Random(seed)
    weights = [rng.randint(1, 10) for _ in range(n)]
    profits = [rng.randint(1, 1000) for _ in range(n)]
    caps = list(itertools.accumulate(rng.randint(1, 10) for _ in range(horizon)))
    lambdas = [rng.randint(1, 5) for _ in range(horizon)]
    return Instance.build(items=list(zip(profits, weights)), capacities=caps, lambdas=lambdas)


def class_structure(*weight_lists, eps=Fraction(1, 5)):
    """Instance whose profits land exactly on consecutive powers of 1+eps,
    so class membership is fixed by construction."""
    from incknap.classes import make_interval

    items = []
    for level, weights in enumerate(weight_lists):
        for w in weights:
            items.append(((1 + eps) ** level, w))
    cap = sum(Fraction(w) for _, w in items) if items else Fraction(1)
    instance = Instance.build(items=items, capacities=[cap], lambdas=[1])
    classes = build_classes(instance, eps)
    interval = make_interval(classes, 0, len(weight_lists) - 1)
    return instance, classes, interval


def random_class_structure(rng: random.Random, eps: Fraction, max_classes=4, max_items=12, den=1):
    """Random classes with weights in [1/den, 10] on the grid 1/den."""
    weight_lists = [
        [Fraction(rng.randint(1, 10 * den), den) for _ in range(rng.randint(1, max_items))]
        for _ in range(rng.randint(1, max_classes))
    ]
    return class_structure(*weight_lists, eps=eps)


def two_heavy_structures():
    """Bench-shaped classes: profits 100/110/121 are one class each at eps
    1/10, and two of them hold more than 10 items at once.  Yields the
    (classes, interval, eps) of every such interval."""
    eps = Fraction(1, 10)
    for seed in range(3):
        rng = random.Random(seed)
        profits = [100] * 13 + [110] * 12 + [121] * 4
        instance = Instance.build(
            items=[(p, rng.randint(1, 10)) for p in profits], capacities=[60], lambdas=[1]
        )
        classes = build_classes(instance, eps)
        for interval in candidate_intervals(classes, eps, Fraction(1)):
            if sum(classes.size(l) > 10 for l in interval.active) == 2:
                yield classes, interval, eps


def sparse_heavy_structures():
    """Two heavy classes of weights 1 to 40: some heavy count tuple is cut by
    the counting cap at every base while each of its counts is reached alone,
    so the family misses part of the lattice for some seeds.  Yields the
    (classes, interval, eps) of the one window holding both."""
    for seed in range(12):
        rng = random.Random(seed)
        eps = rng.choice((Fraction(1, 5), Fraction(1, 6), Fraction(1, 8)))
        sizes = [rng.randint(int(1 / eps) + 1, int(1 / eps) + 8) for _ in range(2)]
        weights = [[rng.choice((1, 1, 2, 3, 5, 10, 20, 40)) for _ in range(k)] for k in sizes]
        _, classes, interval = class_structure(*weights, eps=eps)
        yield classes, interval, eps


def window_bracket(classes, interval) -> tuple[tuple, int]:
    """The paper's explicit bracket of a window: ((lightest, heaviest) item
    weight, item count), over its items one by one, each item's weight read
    as a step of its class's prefix sums.  The spec (``reference_family``,
    ``reference.tuple_family``) takes it; ``statespace`` reads it off the
    classes itself."""
    weights = [b - a for l in interval.active for a, b in zip(classes.prefix[l], classes.prefix[l][1:])]
    return (min(weights), max(weights)), len(weights)


def random_vector_pair(rng: random.Random, classes, interval):
    """Coordinatewise-ordered random count pair over the interval."""
    hi = [classes.size(l) for l in interval.active]
    big = tuple(rng.randint(0, h) for h in hi)
    small = tuple(rng.randint(0, b) for b in big)
    return small, big


def random_feasible_solution(rng: random.Random, instance: Instance) -> Solution:
    """Random intro map kept feasible by greedy acceptance."""
    intro: list[Optional[int]] = [None] * instance.n
    for i in rng.sample(range(instance.n), instance.n):
        t = rng.randint(1, instance.horizon + 1)
        if t > instance.horizon:
            continue
        intro[i] = t
        if brute_profit(instance, tuple(intro)) is None:
            intro[i] = None
    return Solution(tuple(intro))


def reference_partials(classes, interval, eps, weight_range, n, cap=None):
    """Truncated heavy counts of every heavy configuration, None for light classes.

    The counting argument written out one configuration at a time: every
    non-empty set of classes holding more than 1/eps items, every power-of-two
    base in the bracket, and every multiplier vector with 1 <= mu <=
    ceil(class excess / base) and sum at most ``cap`` (the counting cap when
    None; tests pass a larger one to see the cap bind).  Each heavy count is
    the largest one whose excess fits mu * base, found by a linear scan, and
    is then truncated; a configuration where none fits brackets no vector.
    """
    from incknap.statespace import mu_sum_cap
    from reference import power_range

    threshold = int(1 / eps)
    cap = mu_sum_cap(interval, eps) if cap is None else cap
    eligible = [l for l in interval.active if classes.size(l) > threshold]
    w_min, w_max = weight_range
    lo = eps / interval.length * w_min
    hi = 2 * eps / interval.length * n * w_max

    def excess(l, k):
        return classes.prefix[l][k] - classes.prefix[l][threshold]

    rounded = {}

    def round_up(l, estimate):
        if (l, estimate) not in rounded:
            fits = [k for k in range(threshold + 1, classes.size(l) + 1) if excess(l, k) <= estimate]
            rounded[l, estimate] = max(fits, default=0)
        return rounded[l, estimate]

    partials = set()
    for size in range(1, len(eligible) + 1):
        for heavy in itertools.combinations(eligible, size):
            for base in power_range(lo, hi):
                limits = [min(math.ceil(excess(l, classes.size(l)) / base), cap) for l in heavy]
                for mus in itertools.product(*(range(1, limit + 1) for limit in limits)):
                    if sum(mus) > cap:
                        continue
                    counts = {l: round_up(l, mu * base) for l, mu in zip(heavy, mus)}
                    if 0 in counts.values():
                        continue
                    partials.add(
                        tuple(
                            counts[l] - math.ceil(2 * eps * (counts[l] - threshold)) if l in counts else None
                            for l in interval.active
                        )
                    )
    return partials


def reference_family(classes, interval, eps, weight_range, n):
    """The pruned family: every light-count vector, plus each reference
    partial crossed with every light count of its open coordinates.

    This is the plain statement ``statespace.enumerate_family`` must match
    exactly: its members in cell order, decoded, with their weights.
    """
    from reference import make_vector

    threshold = int(1 / eps)
    light = [range(min(threshold, classes.size(l)) + 1) for l in interval.active]
    seen = set(itertools.product(*light))
    for partial in reference_partials(classes, interval, eps, weight_range, n):
        for combo in itertools.product(*light):
            seen.add(tuple(k if c is None else c for c, k in zip(partial, combo)))
    return [make_vector(classes, interval, counts) for counts in sorted(seen)]


@dataclass
class PullClusterTable:
    """Cluster DP in pull form: each state scans every predecessor pair.

    The reference that the row-filling ``general.ClusterDPTable`` must match
    on every state it keeps exact, backpointers included; it builds every
    frontier the table builds.
    """

    instance: Instance
    classes: ProfitClasses
    plan: ClusterPlan
    grid: ProfitGrid
    eps: Fraction

    def __post_init__(self):
        self._values: dict[tuple[int, int, int], Optional[Fraction]] = {}
        self._back: dict[tuple[int, int, int], tuple[int, int, InverseResult, SingleClusterInstance]] = {}
        self._frontiers: dict[
            tuple[int, int, int, Fraction], tuple[InverseFrontier, SingleClusterInstance]
        ] = {}
        self._sub_eps = accuracy_budget(self.eps, 3)
        self._ell_states = (-1,) + self.classes.indices
        self._step = 1 + self.eps / self.plan.num_clusters

    def _frontier(self, m: int, lo: int, hi: int, omega: Fraction) -> tuple[InverseFrontier, SingleClusterInstance]:
        key = (m, lo, hi, omega)
        if key not in self._frontiers:
            sub = single_cluster_instance(self.instance, self.classes, self.plan, m, lo, hi, omega)
            self._frontiers[key] = (InverseFrontier(sub.instance, self._sub_eps), sub)
        return self._frontiers[key]

    def value(self, m: int, ell: int, phi_idx: int) -> Optional[Fraction]:
        """Minimum achievable weight, or None when the state is infeasible."""
        if phi_idx == 0:  # build_grid puts 0 at index 0 only
            return 0
        if m == 0 or ell == -1:
            return None
        key = (m, ell, phi_idx)
        if key in self._values:
            return self._values[key]
        phi = self.grid.point(phi_idx)
        best: Optional[Fraction] = None
        best_back = None
        for ell_prev in (l for l in self._ell_states if l <= ell):
            for idx_prev in range(phi_idx + 1):
                prev = self.value(m - 1, ell_prev, idx_prev)
                if prev is None:
                    continue
                phi_prev = self.grid.point(idx_prev)
                phi_req = phi - self._step * phi_prev - self.grid.delta
                if phi_req < 0:
                    phi_req = Fraction(0)
                frontier, sub = self._frontier(m, ell_prev + 1, ell, prev)
                res = frontier.query(phi_req)
                if res is None:
                    continue
                cand = prev + res.weight
                if best is None or cand < best:
                    best = cand
                    best_back = (ell_prev, idx_prev, res, sub)
        self._values[key] = best
        if best_back is not None:
            self._back[key] = best_back
        return best

    def backpointer(self, m: int, ell: int, phi_idx: int):
        return self._back.get((m, ell, phi_idx))


def family_of(classes: ProfitClasses, interval: ClassInterval, vectors, capacities) -> Family:
    """A ``Family`` holding exactly the given count vectors, cut at
    max(capacities): each axis takes the counts the vectors use, the cells
    are the lattice's mixed-radix numbers (last class fastest) whose vectors
    weigh at most the cut, with their weights, rounded profits lifted by
    the top class of all classes (as ``enumerate_family`` lifts them) and
    count sums, and the members are the given vectors among them."""
    vectors = set(vectors)
    values = tuple(tuple(sorted({c[pos] for c in vectors})) for pos in range(len(interval.active)))
    q = int(1 / classes.eps)
    ltop = max(classes.indices)
    columns = []
    for cell, counts in enumerate(itertools.product(*values)):
        weight = sum(classes.prefix[l][c] for l, c in zip(interval.active, counts))
        if weight <= max(capacities):
            profit = sum((q + 1) ** l * q ** (ltop - l) * c for l, c in zip(interval.active, counts))
            columns.append((cell, weight, profit, sum(counts), counts in vectors))
    cells, weights, profits, sums, member = zip(*columns)
    return Family(values, cells, weights, profits, sums, [pos for pos, m in enumerate(member) if m], q**ltop)


def uncut(classes: ProfitClasses, interval: ClassInterval) -> list:
    """One capacity every lattice cell fits: the interval's full class weights."""
    return [sum(classes.prefix[l][-1] for l in interval.active)]


def member_cells(family: Family) -> list[int]:
    """The member cells, ascending."""
    return [family.cells[pos] for pos in family.members]


def lattice_size(family: Family) -> int:
    """The number of lattice cells, fitting or not, members or not."""
    return math.prod(map(len, family.values))


def lattice_weights(classes: ProfitClasses, interval: ClassInterval, family: Family) -> list:
    """The weight of every lattice cell, in cell order."""
    weights = [0]
    for level, values in zip(interval.active, family.values):
        weights = [w + classes.prefix[level][v] for w in weights for v in values]
    return weights


def position(table: BoundedDPTable, cell: int) -> Optional[int]:
    """A lattice cell's position in the table's rows, None when it does not fit."""
    cells = table.family.cells
    pos = bisect_left(cells, cell)
    return pos if pos < len(cells) and cells[pos] == cell else None


def period_rows(table: BoundedDPTable) -> tuple[list, list]:
    """(raw, back): the table's value and predecessor rows for periods 0..T,
    rebuilt from its two rows by nesting.  Row 0 holds the zero cell alone;
    row t holds each member within capacity t at its last-row value, and
    its predecessor is ``pred`` in its entry period and itself after."""
    weights, caps, size = table.family.weights, table.capacities, len(table.values)
    raw, back = [[None] * size], [[None] * size]
    raw[0][0] = 0
    for t, cap in enumerate(caps, start=1):
        raw.append([v if v is not None and weights[pos] <= cap else None for pos, v in enumerate(table.values)])
        back.append(
            [
                None if v is None else table.pred[pos] if t == 1 or weights[pos] > caps[t - 2] else pos
                for pos, v in enumerate(raw[t])
            ]
        )
    return raw, back


def dp_value(table: BoundedDPTable, t: int, cell: int) -> Optional[Fraction]:
    """The rounded-profit value of a lattice cell at period t, or None."""
    pos = position(table, cell)
    v = None if pos is None else period_rows(table)[0][t][pos]
    return None if v is None else Fraction(v, table.family.value_den)


def cluster_value(table: ClusterDPTable, m: int, ell: int, phi_idx: int) -> Optional[int]:
    """The cluster DP's least weight at state (m, ell, phi_idx), read off its
    row, or None when the state is infeasible."""
    state = table._row(m, ell).get(phi_idx)
    return None if state is None else state[0]


def cluster_link(table: ClusterDPTable, m: int, ell: int, phi_idx: int) -> Optional[tuple[int, int, int]]:
    """The (ell_prev, idx_prev, weight) of the first lightest predecessor
    of state (m, ell, phi_idx), read off its row: None when the state is
    infeasible or a zero state, which has none."""
    state = table._row(m, ell).get(phi_idx)
    return None if state is None else state[1]


def climb(table: ClusterDPTable, m: int, ell: int, idx: int) -> int:
    """F_m(ell, idx) by the forward climb: cluster k > m takes index i to
    the last index at or below most + offsets[i], most being what its
    bound lets the classes above ell serve at weight 0.  No chain through
    state (m, ell, idx) ends above it."""
    points, offsets, top = table.grid.values, table.grid.offsets, table._ell_states[-1]
    for bound in table._bounds[m:]:
        idx = bisect_right(points, bound.most(ell, top, 0) + offsets[idx]) - 1
    return idx


class _NoBound:
    """A cluster bound that rules nothing out: it caps no index above a
    state's offset, and skips no predecessor."""

    def most(self, ell_prev: int, ell: int, omega: int) -> int:
        return 0

    def skips(self, *args) -> bool:
        return False


class FullRowTable(ClusterDPTable):
    """The cluster DP with every row filled in full: with L = 0 every state
    has F >= L, and no row skips a predecessor."""

    _least_target = 0

    @property
    def _bounds(self) -> tuple[_NoBound, ...]:
        return (_NoBound(),) * self.plan.num_clusters


def certified_floor(result) -> Fraction:
    """The least profit a ``solve_detailed`` winner's certificate promises on
    its core instance: (1-2*eps_int)*phi_target, less M*delta when its plan
    of M >= 2 clusters read a grid.  A winner of one cluster builds no grid,
    and its phi_target, its endpoint's rounded profit, is no grid point."""
    floor = (1 - 2 * result.eps_int) * result.phi_target
    if result.plan.num_clusters == 1:
        assert result.grid is None
        return floor
    return floor - result.plan.num_clusters * result.grid.delta


def lattice_rows(table: BoundedDPTable, t: int) -> tuple[list, list]:
    """Period t's values and predecessor cells, one entry per lattice cell:
    a cell that does not fit reads None in both."""
    raw: list = [None] * lattice_size(table.family)
    back: list = [None] * lattice_size(table.family)
    cells = table.family.cells
    rows, backs = period_rows(table)
    for pos, cell in enumerate(cells):
        raw[cell] = rows[t][pos]
        if backs[t][pos] is not None:
            back[cell] = cells[backs[t][pos]]
    return raw, back


def served(frontier: InverseFrontier) -> list[Fraction]:
    """The largest requirement each frontier entry serves, as exact rationals."""
    return [Fraction(t, frontier.den) for t in frontier.thresholds]


def cell_chain(table: BoundedDPTable, cell: int) -> list[tuple[int, ...]]:
    """Counts per period of the optimal path ending at a lattice cell."""
    return table.chain(position(table, cell))


def members(family: Family) -> list[tuple[tuple[int, ...], Fraction]]:
    """(counts, weight) of every member, in cell order."""
    return [(family.counts(family.cells[pos]), family.weights[pos]) for pos in family.members]


def family_order(family: Family) -> list[int]:
    """Member cells in (count-sum, counts) order: the DP's tie order."""
    return sorted(member_cells(family), key=lambda cell: (sum(family.counts(cell)), family.counts(cell)))


@dataclass
class PairScanTable:
    """Pair-scan DP rows indexed by member position in ``members`` order."""

    members: list[tuple[int, ...]]
    weights: list[Fraction]
    raw: list[list[Optional[int]]]
    back: list[list[Optional[int]]]
    value_den: int


def PairScanDP(
    classes: ProfitClasses,
    interval: ClassInterval,
    family: Family,
    capacities: Sequence[Fraction],
    suffix: Sequence,
) -> PairScanTable:
    """The family-restricted DP with a pairwise predecessor scan.

    The reference that the lattice transition of ``bounded.dp_solve`` must
    match in value and predecessor per (period, vector): a vector extends
    the best coordinatewise-smaller reachable vector, scanned in (count-sum,
    counts) order so the scan stops once predecessors outgrow the current
    vector and a strict ``>`` keeps the first of equal predecessors.  It
    reads only the members' counts from ``family`` and weighs them from the
    class prefix sums itself.
    """
    q = int(1 / classes.eps)
    active = interval.active
    ltop = max(active) if active else 0
    rp_int = [(q + 1) ** l * q ** (ltop - l) for l in active]
    value_den = q**ltop

    counts = sorted(map(family.counts, member_cells(family)), key=lambda c: (sum(c), c))
    sums = [sum(c) for c in counts]
    profits = [sum(r * k for r, k in zip(rp_int, c)) for c in counts]
    weights = [sum(classes.prefix[l][k] for l, k in zip(active, c)) for c in counts]

    zero = counts.index((0,) * len(active))
    horizon = len(capacities)
    raw: list[list[Optional[int]]] = [[None] * len(counts) for _ in range(horizon + 1)]
    back: list[list[Optional[int]]] = [[None] * len(counts) for _ in range(horizon + 1)]
    raw[0][zero] = 0

    for t in range(1, horizon + 1):
        lam = suffix[t - 1]
        cap = capacities[t - 1]
        prev_row = raw[t - 1]
        # G value of each reachable predecessor, in family order (sums ascending)
        preds: list[tuple[int, int]] = []  # (member index, prev - lam*profit)
        for j, v in enumerate(prev_row):
            if v is not None:
                preds.append((j, v - lam * profits[j]))
        cur_row = raw[t]
        back_row = back[t]
        for j in range(len(counts)):
            if weights[j] > cap:
                continue
            s = sums[j]
            c = counts[j]
            best = None
            best_j = None
            for pj, g in preds:
                if sums[pj] > s:
                    break
                if _dominates(counts[pj], c) and (best is None or g > best):
                    best = g
                    best_j = pj
            if best is not None:
                cur_row[j] = lam * profits[j] + best
                back_row[j] = best_j
    return PairScanTable(members=counts, weights=weights, raw=raw, back=back, value_den=value_den)


def fraction_merge_frontier(instance: Instance, eps: Fraction):
    """(weight, rounded profit, interval, counts) per Pareto entry, merged on Fractions.

    The reference for ``bounded.InverseFrontier``'s integer merge: every
    final DP value becomes its rounded-profit Fraction before the sort on
    (weight, -value), and the empty solution comes first.
    """
    entries = [(0, 0, None, None)]
    if instance.n > 0:
        classes = build_classes(instance, eps)
        for interval in candidate_intervals(classes, eps, suffix_ratio(instance)):
            family = enumerate_family(classes, interval, eps, instance.capacities)
            table = PairScanDP(classes, interval, family, instance.capacities, instance.suffix_lambdas)
            for j, v in enumerate(table.raw[instance.horizon]):
                if v is not None:
                    value = classes.scale * Fraction(v, table.value_den)
                    entries.append((table.weights[j], value, interval, table.members[j]))
    entries.sort(key=lambda e: (e[0], -e[1]))
    frontier = []
    for e in entries:
        if not frontier or e[1] > frontier[-1][1]:
            frontier.append(e)
    return frontier


class AllWindowsFrontier:
    """The inverse frontier built from one DP table per candidate window.

    The reference that ``bounded.InverseFrontier``, which builds no table
    for a window another window absorbs, must match in ``weights``,
    ``served`` and every query answer: equal (weight, value) entries go to
    the earliest table in candidate order, then the first vector in
    (count-sum, counts) order.
    """

    def __init__(self, instance: Instance, eps: Fraction):
        if not all(instance.lambdas):
            raise ValueError("instance must be preprocessed: every lambda positive")
        self.instance = instance
        self.eps = check_internal_eps(eps)
        tables: list[BoundedDPTable] = []
        if instance.n > 0:
            classes = build_classes(instance, self.eps)
            for interval in candidate_intervals(classes, self.eps, suffix_ratio(instance)):
                family = enumerate_family(classes, interval, self.eps, instance.capacities)
                tables.append(dp_solve(classes, interval, family, instance.capacities, instance.suffix_lambdas))
            self.classes = classes
        else:
            self.classes = None
        # every family lifts by the top class of all classes, so the tables
        # share one value_den and the merge compares plain ints
        value_den = tables[0].family.value_den if tables else 1
        assert all(table.family.value_den == value_den for table in tables)
        entries: list[tuple[Fraction, int, Optional[BoundedDPTable], Optional[int]]] = [(0, 0, None, None)]
        for table in tables:
            for cell in family_order(table.family):
                pos = position(table, cell)
                if pos is not None and table.values[pos] is not None:
                    entries.append((table.family.weights[pos], table.values[pos], table, pos))
        entries.sort(key=lambda e: (e[0], -e[1]))
        frontier = []
        best = -1
        for weight, v, table, j in entries:
            if v > best:
                value = 0 if table is None else self.classes.scale * Fraction(v, value_den)
                frontier.append((weight, value, table, j))
                best = v
        self._frontier = frontier
        # entry i is the lightest endpoint for requirements in (served[i-1], served[i]]
        self.weights = [e[0] for e in frontier]
        self.served = [e[1] / (1 - 3 * self.eps) for e in frontier]

    def query(self, phi: Fraction) -> Optional[InverseResult]:
        """Lightest endpoint whose rounded profit clears (1-3*eps)*phi."""
        if phi < 0:
            raise ValueError("profit requirement must be nonnegative")
        idx = bisect_left(self.served, phi)
        if idx == len(self._frontier):
            return None
        weight, value, table, j = self._frontier[idx]
        if table is None:
            solution = Solution.empty(self.instance.n)
        else:
            solution = prefix_to_solution(self.classes, table.interval, table.chain(j), self.instance.n)
        return InverseResult(
            solution=solution,
            rounded_profit=value,
            true_profit=objective(self.instance, solution),
            weight=weight,
        )


# The plain depth-first enumeration that the count-vector DP of
# ``oracle.exact_opt`` and ``oracle.exact_inverse`` must match in value (the
# two break ties differently): it prunes on capacity only (and, in the
# inverse, on weight), over the (T+1)^n assignments a budget bounds.


def dfs_exact_opt(instance: Instance, budget: int = DEFAULT_BUDGET) -> tuple[Fraction, Solution]:
    """Maximum objective over all feasible assignments, ties lexicographic.

    NEVER sorts after every period when comparing assignment vectors, so the
    reported optimum is deterministic for golden tests.
    """
    states = (instance.horizon + 1) ** instance.n
    if states > budget:
        raise BudgetExceeded(states, budget)
    horizon = instance.horizon
    scaled, value_unit, _ = integer_units(instance)
    contrib = [[p * s for s in scaled.suffix_lambdas] for p, _ in scaled.items]
    caps = scaled.capacities
    best_profit: Optional[int] = None
    best_intro: tuple[Optional[int], ...] = (None,) * instance.n
    cur: list[Optional[int]] = [None] * instance.n
    cum = [0] * (horizon + 1)  # cum[t] = packed weight at period t

    def rec(i: int, profit: int) -> None:
        nonlocal best_profit, best_intro
        if i == instance.n:
            if best_profit is None or profit > best_profit:
                best_profit = profit
                best_intro = tuple(cur)
            return
        w = scaled.items[i][1]
        for t in range(1, horizon + 1):
            ok = True
            for tau in range(t, horizon + 1):
                if cum[tau] + w > caps[tau - 1]:
                    ok = False
                    break
            if ok:
                for tau in range(t, horizon + 1):
                    cum[tau] += w
                cur[i] = t
                rec(i + 1, profit + contrib[i][t - 1])
                cur[i] = None
                for tau in range(t, horizon + 1):
                    cum[tau] -= w
        rec(i + 1, profit)

    rec(0, 0)
    return Fraction(best_profit or 0, value_unit), Solution(best_intro)


def dfs_exact_inverse(
    instance: Instance, phi: Fraction, budget: int = DEFAULT_BUDGET
) -> Optional[tuple[Fraction, Solution]]:
    """Minimum total weight achieving objective >= phi, or None if impossible."""
    states = (instance.horizon + 1) ** instance.n
    if states > budget:
        raise BudgetExceeded(states, budget)
    horizon = instance.horizon
    scaled, value_unit, weight_unit = integer_units(instance)
    contrib = [[p * s for s in scaled.suffix_lambdas] for p, _ in scaled.items]
    caps = scaled.capacities
    phi_scaled = Fraction(phi) * value_unit
    best_weight: Optional[int] = None
    best_intro: tuple[Optional[int], ...] = (None,) * instance.n
    cur: list[Optional[int]] = [None] * instance.n
    cum = [0] * (horizon + 1)

    def rec(i: int, profit: int) -> None:
        nonlocal best_weight, best_intro
        if best_weight is not None and cum[horizon] >= best_weight:
            return
        if i == instance.n:
            if profit >= phi_scaled:
                best_weight = cum[horizon]
                best_intro = tuple(cur)
            return
        w = scaled.items[i][1]
        for t in range(1, horizon + 1):
            ok = True
            for tau in range(t, horizon + 1):
                if cum[tau] + w > caps[tau - 1]:
                    ok = False
                    break
            if ok:
                for tau in range(t, horizon + 1):
                    cum[tau] += w
                cur[i] = t
                rec(i + 1, profit + contrib[i][t - 1])
                cur[i] = None
                for tau in range(t, horizon + 1):
                    cum[tau] -= w
        rec(i + 1, profit)

    rec(0, 0)
    if best_weight is None:
        return None
    return Fraction(best_weight, weight_unit), Solution(best_intro)
