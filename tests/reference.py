"""Specification code: the statements the solver is checked against.

It lives beside the tests, outside the package, so no solver module can
import it.  It holds the paper's maps
and identities in their direct, unoptimized form: range-checked class
prefix weights and the vectors weighed by them, one object per vector, the
power-of-two bases climbed one Fraction doubling at a time across a
window's explicit weight bracket, the
up-rounding and truncation maps whose image the pruned family must cover,
the unpruned restricted DP the family DP must not beat, the contribution
form of the objective, exact optima over per-profit count vectors and over
per-period weights, the
runs of surviving bands that form the clusters and the deletion of
dropped-band periods behind the derandomized offset,
the class knapsack rows as each cluster DP table once built them for
itself, the star-uncrossing audit, the pruned family by the tuple product
(one mask bit per heavy tuple in every cell), the family DP swept over
every fitting cell in every period, the windows whose tables hold another
window's family, and the inverse frontier merged from every entry of every
table.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from incknap.classes import ClassInterval, ProfitClasses
from incknap.general import ClusterPlan, knapsack_rows
from incknap.model import BudgetExceeded, InfeasibleSolution, Instance, Solution, check_feasible, integer_units
from incknap.oracle import DEFAULT_BUDGET
from incknap.statespace import Family, mu_sum_cap


def pow2_up(x: Fraction) -> Fraction:
    """Smallest integer power of 2 that is >= x; zero maps to zero."""
    if x < 0:
        raise ValueError("pow2_up expects a nonnegative argument")
    if x == 0:
        return Fraction(0)
    power = Fraction(1)
    while power < x:
        power *= 2
    while power / 2 >= x:
        power /= 2
    return power


def power_range(lo: Fraction, hi: Fraction) -> list[Fraction]:
    """Integer powers of 2 inside [lo, hi], climbed one doubling at a time."""
    if lo <= 0 or hi < lo:
        return []
    power = pow2_up(lo)
    out = []
    while power <= hi:
        out.append(power)
        power *= 2
    return out


@dataclass(frozen=True)
class UtilizationVector:
    """Per-class counts over an interval's active classes, weight cached."""

    counts: tuple[int, ...]
    weight: Fraction


class ClassIndexOutOfRange(ValueError):
    pass


class CountOutOfRange(ValueError):
    pass


def prefix_weight(classes: ProfitClasses, index: int, k1: int, k2: int) -> Fraction:
    """Weight of the k1-th through k2-th lightest items of a class (exact)."""
    if index < 0:
        raise ClassIndexOutOfRange(f"class {index}")
    if k1 > k2:
        return Fraction(0)
    sums = classes.prefix.get(index)
    size = len(sums) - 1 if sums else 0
    if k1 < 1 or k2 > size:
        raise CountOutOfRange(f"range [{k1},{k2}] outside class of {size} items")
    return sums[k2] - sums[k1 - 1]


def make_vector(classes: ProfitClasses, interval: ClassInterval, counts: tuple[int, ...]) -> UtilizationVector:
    """Wrap counts with their exact total weight."""
    weight = 0
    for pos, level in enumerate(interval.active):
        if counts[pos] > 0:
            weight += prefix_weight(classes, level, 1, counts[pos])
    return UtilizationVector(counts=counts, weight=weight)


@dataclass(frozen=True)
class HeavyProfile:
    """Rounding data attached to an up-rounded vector."""

    light: tuple[int, ...]
    heavy: tuple[int, ...]
    excess_weight: Fraction
    base: Fraction
    multipliers: dict[int, int]


def classify(counts: tuple[int, ...], interval: ClassInterval, eps: Fraction) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split active classes into light (count <= 1/eps) and heavy."""
    threshold = int(1 / eps)
    light, heavy = [], []
    for pos, level in enumerate(interval.active):
        (light if counts[pos] <= threshold else heavy).append(level)
    return tuple(light), tuple(heavy)


def heavy_excess(counts: tuple[int, ...], classes: ProfitClasses, interval: ClassInterval, eps: Fraction) -> Fraction:
    """Weight packed from heavy classes beyond their 1/eps lightest items."""
    threshold = int(1 / eps)
    total = Fraction(0)
    for pos, level in enumerate(interval.active):
        if counts[pos] > threshold:
            total += prefix_weight(classes, level, threshold + 1, counts[pos])
    return total


def up_round(
    counts: tuple[int, ...],
    classes: ProfitClasses,
    interval: ClassInterval,
    eps: Fraction,
) -> tuple[UtilizationVector, HeavyProfile]:
    """Round heavy-class counts up to the estimate boundary.

    Light coordinates are copied.  For each heavy class, the excess weight is
    over-estimated by mu * base where base = pow2_up(eps/|interval| * W_H)
    and mu is the unique integer bracketing the true excess; the coordinate
    then grows to the largest count whose excess weight still fits the
    estimate.  Light/heavy labels are preserved.
    """
    threshold = int(1 / eps)
    light, heavy = classify(counts, interval, eps)
    excess = heavy_excess(counts, classes, interval, eps)
    base = pow2_up(eps / interval.length * excess)
    multipliers: dict[int, int] = {}
    new_counts = list(counts)
    for pos, level in enumerate(interval.active):
        if level not in heavy:
            continue
        w_exc = prefix_weight(classes, level, threshold + 1, counts[pos])
        mu = math.ceil(w_exc / base)
        multipliers[level] = mu
        prefix = classes.prefix[level]
        new_counts[pos] = bisect.bisect_right(prefix, prefix[threshold] + mu * base) - 1
    profile = HeavyProfile(light=light, heavy=heavy, excess_weight=excess, base=base, multipliers=multipliers)
    return make_vector(classes, interval, tuple(new_counts)), profile


def truncate(
    counts: tuple[int, ...],
    classes: ProfitClasses,
    interval: ClassInterval,
    heavy: tuple[int, ...],
    eps: Fraction,
) -> UtilizationVector:
    """Drop the last ceil(2*eps*Delta) items of each heavy class.

    ``heavy`` carries the labels of the up-rounded source vector; they are
    not recomputed here, matching the counting argument that keys the family
    on carried labels.
    """
    threshold = int(1 / eps)
    new_counts = tuple(
        k - math.ceil(2 * eps * (k - threshold)) if level in heavy else k
        for k, level in zip(counts, interval.active)
    )
    return make_vector(classes, interval, new_counts)


def prune_image(
    counts: tuple[int, ...],
    classes: ProfitClasses,
    interval: ClassInterval,
    eps: Fraction,
) -> UtilizationVector:
    """Truncated up-rounding of a vector: the composed pruning map."""
    rounded, profile = up_round(counts, classes, interval, eps)
    return truncate(rounded.counts, classes, interval, profile.heavy, eps)


def exact_restricted_dp(
    instance: Instance,
    classes: ProfitClasses,
    interval: ClassInterval,
    budget: int = DEFAULT_BUDGET,
) -> dict[tuple[int, tuple[int, ...]], Optional[Fraction]]:
    """Exact DP over ALL prefix-like count vectors of the interval's classes.

    Value of (t, counts) is the maximum rounded-profit contribution of a
    feasible t-period chain ending at that vector, or None when unreachable.
    This is the unpruned reference the family-restricted DP is compared to.
    """
    sizes = [classes.size(l) for l in interval.active]
    required = 1
    for s in sizes:
        required *= s + 1
    if required > budget:
        raise BudgetExceeded(required, budget)

    vectors = list(itertools.product(*(range(s + 1) for s in sizes)))

    def weight(counts: tuple[int, ...]) -> Fraction:
        return sum(
            (prefix_weight(classes, l, 1, c) for l, c in zip(interval.active, counts) if c),
            Fraction(0),
        )

    def rounded(counts: tuple[int, ...]) -> Fraction:
        return sum(
            ((1 + classes.eps) ** l * c for l, c in zip(interval.active, counts) if c),
            Fraction(0),
        )

    weights = {v: weight(v) for v in vectors}
    profits = {v: rounded(v) for v in vectors}
    suffix = instance.suffix_lambdas

    table: dict[tuple[int, tuple[int, ...]], Optional[Fraction]] = {}
    for v in vectors:
        table[(0, v)] = Fraction(0) if all(c == 0 for c in v) else None
    for t in range(1, instance.horizon + 1):
        lam = suffix[t - 1]
        cap = instance.capacities[t - 1]
        for v in vectors:
            if weights[v] > cap:
                table[(t, v)] = None
                continue
            best: Optional[Fraction] = None
            for u in vectors:
                if table[(t - 1, u)] is None:
                    continue
                if all(a <= b for a, b in zip(u, v)):
                    cand = table[(t - 1, u)] + lam * (profits[v] - profits[u])
                    if best is None or cand > best:
                        best = cand
            table[(t, v)] = best
    return table


def exact_opt_by_profits(instance: Instance) -> Fraction:
    """Optimum objective by a DP over per-profit count vectors; profits only.

    Among items of equal profit a lighter one can enter no later than a
    heavier one: swapping two such items' periods keeps every period's
    profit and never raises its weight.  So some optimum packs, per
    distinct profit, the k lightest items in each period, and is a chain of
    count vectors k, nondecreasing over the periods, each within its
    period's capacity.  Period t's value at k is lambda_t times k's profit
    plus the best value of period t-1 at or below k; the zero vector starts.
    """
    by_profit: dict = {}
    for p, w in instance.items:
        by_profit.setdefault(p, []).append(w)
    profits = sorted(by_profit)
    prefixes = [list(itertools.accumulate(sorted(by_profit[p]), initial=0)) for p in profits]
    vectors = list(itertools.product(*(range(len(prefix)) for prefix in prefixes)))
    weight = {k: sum(prefix[c] for prefix, c in zip(prefixes, k)) for k in vectors}
    profit = {k: sum(p * c for p, c in zip(profits, k)) for k in vectors}
    value: dict = {k: None if any(k) else 0 for k in vectors}
    for lam, cap in zip(instance.lambdas, instance.capacities):
        # best value at or below k, built in lexicographic order, so every
        # vector one count below k is done before k
        below: dict = {}
        for k in vectors:
            lower = [below[k[:i] + (c - 1,) + k[i + 1 :]] for i, c in enumerate(k) if c]
            below[k] = max((v for v in (value[k], *lower) if v is not None), default=None)
        value = {k: None if below[k] is None or weight[k] > cap else below[k] + lam * profit[k] for k in vectors}
    return max(v for v in value.values() if v is not None)


# Most per-period weight states ``exact_opt_by_weights`` may hold at once.
WEIGHT_STATES = 2**15


def exact_opt_by_weights(instance: Instance, budget: int = WEIGHT_STATES) -> Fraction:
    """Optimum objective by Bellman's 0/1 knapsack DP over per-period weights.

    A state is (w_1, ..., w_T), the packed weight of each period, with w_t
    at most W_t and nondecreasing in t.  Items are taken one at a time: an
    item either stays out or enters at some period s, adding its weight to
    w_s, ..., w_T and p * (lambda_s + ... + lambda_T) to the value; a state
    keeps the most value reaching it.  The state count depends on the
    capacities and not on the profits, so this DP reaches instances whose
    distinct profits are too many for a count-vector DP.  It runs on ints
    alone, in ``model.integer_units``, and raises BudgetExceeded once the
    states pass ``budget``.
    """
    scaled, value_unit, _ = integer_units(instance)
    caps, horizon = scaled.capacities, scaled.horizon
    rates = list(itertools.accumulate(reversed(scaled.lambdas)))[::-1]
    states = {(0,) * horizon: 0}
    for p, w in scaled.items:
        grown = dict(states)
        for state, value in states.items():
            # entering at s adds w to w_s..w_T: from s = T down, each step adds
            # one period, and once one overflows every earlier entry does too
            entered = list(state)
            for s in reversed(range(horizon)):
                entered[s] += w
                if entered[s] > caps[s]:
                    break
                key, gain = tuple(entered), value + p * rates[s]
                if grown.get(key, -1) < gain:
                    grown[key] = gain
        if len(grown) > budget:
            raise BudgetExceeded(len(grown), budget, "{} weight states")
        states = grown
    return Fraction(max(states.values()), value_unit)


def objective_by_contributions(instance: Instance, solution: Solution) -> Fraction:
    """Equivalent objective form: sum of p_i times the lambda suffix at intro.

    Kept as an independent computation; the two forms must agree exactly.
    """
    bad = check_feasible(instance, solution)
    if bad is not None:
        raise InfeasibleSolution(bad)
    suffix = instance.suffix_lambdas
    return sum(
        (instance.items[i][0] * suffix[t - 1] for i, t in solution.introduced()),
        Fraction(0),
    )


def band_runs(bands: list[int], inv_eps: int, xi: int) -> tuple[tuple[int, ...], ...]:
    """Clusters from the 1-based band of each period: band by band from 1
    to the highest, every band m with m % inv_eps == xi ends a run (possibly
    an empty one), and the non-empty runs of the other bands' periods are
    the clusters."""
    clusters, run = [], []
    for m in range(1, max(bands, default=0) + 1):
        if m % inv_eps == xi:
            clusters.append(tuple(run))
            run = []
        else:
            run.extend(t for t, band in enumerate(bands, start=1) if band == m)
    clusters.append(tuple(run))
    return tuple(run for run in clusters if run)


def drop_bad_periods(plan: ClusterPlan, solution: Solution) -> Solution:
    """Delete every item introduced in a period of a dropped band.

    Every surviving band's periods land in some cluster, so the dropped-band
    periods are exactly those outside every cluster.
    """
    kept = {t for periods in plan.clusters for t in periods}
    return Solution(tuple(t if t in kept else None for t in solution.intro))


def table_class_rows(table) -> tuple[int, dict, dict]:
    """(g, suffix, prefix) built from one cluster DP table's own instance
    and classes: class-suffix rows, and class-prefix rows keyed backward."""
    instance, cap = table.instance, table.instance.capacities[-1]
    states = (-1,) + table.classes.indices
    groups = [[instance.items[i] for i in table.classes.members[level]] for level in table.classes.indices]
    g, rows = knapsack_rows(groups, cap)
    suffix = dict(zip(states, rows))
    prefix = dict(zip(reversed(states), knapsack_rows(groups[::-1], cap)[1]))
    return g, suffix, prefix


def star_graph_edges(
    classes: ProfitClasses, plan: ClusterPlan, solution: Solution
) -> set[tuple[int, int]]:
    """Bipartite (cluster, class) edges induced by a solution's introductions."""
    item_class = {i: l for l, ids in classes.members.items() for i in ids}
    cluster_of = {t: m for m, periods in enumerate(plan.clusters, start=1) for t in periods}
    edges = set()
    for i, t in solution.introduced():
        m = cluster_of.get(t)
        if m is None:
            raise ValueError(f"item {i} introduced outside every cluster (period {t})")
        edges.add((m, item_class[i]))
    return edges


def audit_uncrossing(edges: set[tuple[int, int]]) -> bool:
    """Class degrees at most one and no crossing pair across clusters."""
    by_class: dict[int, set[int]] = {}
    for m, level in edges:
        by_class.setdefault(level, set()).add(m)
    if any(len(ms) > 1 for ms in by_class.values()):
        return False
    ordered = sorted((level, next(iter(ms))) for level, ms in by_class.items())
    return all(a[1] <= b[1] for a, b in zip(ordered, ordered[1:]))


def full_sweep_dp(classes: ProfitClasses, interval: ClassInterval, family, capacities, suffix) -> tuple[list, list]:
    """(raw, back) of the family-restricted DP with every fitting cell swept in every period.

    The reference ``bounded.dp_solve``'s carry-forward must match entry for
    entry: each period fills a key (G, -rank) for every cell the last row
    reached, G = prev - lam*profit and rank = count_sum*N + position, then
    runs the max along each axis over all fitting cells, and gives every
    member within the period's capacity the best key below it.
    """
    cells, weights, profits = family.cells, family.weights, family.profits
    size = len(cells)
    ranks = [-(total * size + pos) for pos, total in enumerate(family.sums)]
    at = {cell: pos for pos, cell in enumerate(cells)}
    sweeps = [
        [(pos, at[cell - stride]) for pos, cell in enumerate(cells) if cell // stride % len(values)]
        for stride, values in zip(family.strides, family.values)
    ]
    raw = [[None] * size for _ in range(len(capacities) + 1)]
    back = [[None] * size for _ in range(len(capacities) + 1)]
    raw[0][0] = 0
    for t in range(1, len(capacities) + 1):
        lam = suffix[t - 1]
        keys = [()] * size
        for pos, v in enumerate(raw[t - 1]):
            if v is not None:
                keys[pos] = (v - lam * profits[pos], ranks[pos])
        for pairs in sweeps:
            for pos, below in pairs:
                if keys[below] > keys[pos]:
                    keys[pos] = keys[below]
        for pos in family.members:
            if keys[pos] and weights[pos] <= capacities[t - 1]:
                raw[t][pos] = lam * profits[pos] + keys[pos][0]
                back[t][pos] = -keys[pos][1] % size
    return raw, back


def absorbers(intervals, classes: ProfitClasses, capacities) -> list[list[int]]:
    """Per candidate window, the windows whose DP table holds its family padded with zeros.

    Window b absorbs window a when no class of a fits more than 1/eps of its
    items within the largest capacity (it holds at most 1/eps items, or its
    1/eps+1 lightest weigh more), and b's classes strictly contain a's, or
    equal them with b earlier in candidate order.  A window where a heavy
    count fits is absorbed by none.
    """
    q, cut = classes.eps.denominator, max(capacities)
    boxed = [all(classes.size(l) <= q or classes.prefix[l][q + 1] > cut for l in w.active) for w in intervals]
    out = []
    for a, small in enumerate(intervals):
        inner = set(small.active)
        out.append([])
        for b, big in enumerate(intervals):
            outer = set(big.active)
            if boxed[a] and (inner < outer or inner == outer and b < a):
                out[-1].append(b)
    return out


def base_tables(classes: ProfitClasses, interval: ClassInterval, eps: Fraction, weight_range, n: int) -> list:
    """Per power-of-two base of the paper's bracket, every class's {truncated count: least mu} table.

    The bases are the powers of two from eps/|interval| times the lightest
    item weight up to 2*eps/|interval| times n items of the heaviest
    (``weight_range`` and ``n`` describe the window's items), climbed by
    ``power_range``.  At base b, each mu from 1 to ``mu_sum_cap`` rounds a
    class holding more than 1/eps items up to the largest count whose
    excess past its 1/eps lightest items fits mu*b; when that count passes
    1/eps, its truncation is offered at the first mu reaching it.  A light
    class offers nothing.  A base where no class offers a count, or whose
    tables equal the last kept base's, is left out.
    ``statespace.heavy_configurations`` must yield exactly these.
    """
    threshold = int(1 / eps)
    if all(classes.size(l) <= threshold for l in interval.active):
        return []
    cap = mu_sum_cap(interval, eps)
    w_min, w_max = weight_range
    kept = []
    for base in power_range(eps / interval.length * w_min, 2 * eps / interval.length * n * w_max):
        options = []
        for level in interval.active:
            offered, prefix = {}, classes.prefix[level]
            # each count's excess weight past the 1/eps lightest, times the
            # base's denominator, so that int weights compare as ints
            excess = [(w - prefix[threshold]) * base.denominator for w in prefix] if len(prefix) > threshold + 1 else [0]
            # past the class's whole excess, a larger mu reaches no further count
            for mu in range(1, min(-(-excess[-1] // base.numerator), cap) + 1):
                k = bisect.bisect_right(excess, mu * base.numerator) - 1
                if k > threshold:
                    offered.setdefault(k - math.ceil(2 * eps * (k - threshold)), mu)
            options.append(offered)
        if any(options) and (not kept or options != kept[-1]):
            kept.append(options)
    return kept


def heavy_tuples(classes: ProfitClasses, interval: ClassInterval, eps: Fraction, weight_range, n: int) -> set:
    """The tuple product: every reachable truncated heavy-count tuple, None for light classes.

    At each base of ``base_tables``, every class is light (None,
    multiplier 0) or takes one of the counts it offers there at its least
    multiplier; the product over the classes is kept where the multipliers
    sum to at most ``mu_sum_cap`` and at least one count is fixed.
    """
    cap = mu_sum_cap(interval, eps)
    tuples = set()
    for options in base_tables(classes, interval, eps, weight_range, n):
        combos = [((), 0)]  # (counts so far, multiplier sum)
        for option in options:
            combos = [
                (partial + (count,), total + mu)
                for partial, total in combos
                for count, mu in [(None, 0), *option.items()]
                if total + mu <= cap
            ]
        tuples.update(partial for partial, total in combos if total)
    return tuples


def tuple_family(classes: ProfitClasses, interval: ClassInterval, eps: Fraction, weight_range, n: int, capacities) -> Family:
    """The pruned family by the tuple rule, cut at max(capacities).

    The members are the all-light tuple and ``heavy_tuples``, each crossed
    with the light counts [0, min(1/eps, |P_l|)] of its open classes.
    Profits are lifted to one denominator, (1/eps)**L with L the top class
    of all the classes, as every window's are.  One walk lists the lattice
    cells that fit, axis by axis, each carrying one mask bit per tuple it
    agrees with: the tuple fixes that count, or leaves the class open and
    the count is light.  A cell is a member when its counts' masks share a
    bit.  ``statespace.enumerate_family`` must equal this cell for cell.
    """
    q = eps.denominator
    ltop = max(classes.indices, default=0)
    top = max(capacities)
    light = [min(q, classes.size(l)) for l in interval.active]
    tuples = [(None,) * len(light), *sorted(heavy_tuples(classes, interval, eps, weight_range, n), key=repr)]
    values = [sorted({*range(r + 1), *(t[pos] for t in tuples if t[pos] is not None)}) for pos, r in enumerate(light)]
    walk = [(0, 0, 0, 0, (1 << len(tuples)) - 1)]  # (cell, weight, lifted profit, count sum, mask)
    for pos, (level, vals) in enumerate(zip(interval.active, values)):
        agree = [
            sum(1 << i for i, t in enumerate(tuples) if t[pos] == v or t[pos] is None and v <= light[pos]) for v in vals
        ]
        lift = (q + 1) ** level * q ** (ltop - level)
        walk = [
            (cell * len(vals) + k, weight + classes.prefix[level][v], profit + lift * v, total + v, mask & agree[k])
            for cell, weight, profit, total, mask in walk
            for k, v in enumerate(vals)
            if weight + classes.prefix[level][v] <= top
        ]
    cells, weights, profits, sums, masks = zip(*walk)
    members = [pos for pos, mask in enumerate(masks) if mask]
    return Family(tuple(map(tuple, values)), cells, weights, profits, sums, members, q**ltop)


def all_entries_merge(tables, intervals, absorbed_by, classes: ProfitClasses) -> tuple[list, int]:
    """(frontier, ties): ``InverseFrontier``'s merge over every final-row entry of every table.

    The reference its per-table Pareto scan must match.  ``tables`` holds
    (window index, table) in candidate order, ``intervals`` the candidate
    windows and ``absorbed_by`` each window's absorbers (``absorbers``).
    Every live final-row entry of every table becomes a (weight, value,
    window, table, position) tuple beside the empty one, and all of them are
    sorted on (weight, -value); each run of equal (weight, value) whose value
    beats every lighter one gives its entry of least rank, as (weight, value,
    table, position).  An entry ranks by the first window including its
    nonzero classes: among every window when each count is at most 1/eps,
    and otherwise among its table's window and the windows that window
    absorbs.  ``ties`` counts the runs of more than one entry that the rank
    decided.
    """
    q = classes.eps.denominator
    windows = [frozenset(interval.active) for interval in intervals]

    def rank(entry) -> tuple:
        _, _, index, table, pos = entry
        if table is None:
            return (-1,)
        counts = dict(zip(table.interval.active, table.family.counts(table.family.cells[pos])))
        used = {l for l, c in counts.items() if c}
        if all(c <= q for c in counts.values()):
            among = range(len(windows))
        else:
            among = sorted([index, *(a for a, by in enumerate(absorbed_by) if index in by)])
        first = next(i for i in among if used <= windows[i])
        return (first, sum(counts.values()), tuple(counts.get(l, 0) for l in classes.indices))

    # every family lifts by the top class of all classes, so the tables
    # share one value_den and the merge compares plain ints
    assert len({table.family.value_den for _, table in tables}) <= 1
    entries = [(0, 0, -1, None, None)]
    for index, table in tables:
        for pos, v in enumerate(table.values):
            if v is not None:
                entries.append((table.family.weights[pos], v, index, table, pos))
    entries.sort(key=lambda e: (e[0], -e[1]))
    frontier, best, ties = [], -1, 0
    for (weight, v), run in itertools.groupby(entries, key=lambda e: e[:2]):
        if v > best:
            run = list(run)
            ties += len(run) > 1
            _, _, _, table, pos = min(run, key=rank)
            frontier.append((weight, v, table, pos))
            best = v
    return frontier, ties
