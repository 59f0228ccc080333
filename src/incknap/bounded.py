"""Inverse solver over the pruned family, plus the forward bounded solver.

The inverse problem asks for the minimum total weight achieving a profit
floor phi.  The restricted DP walks utilization vectors of the enumerated
family period by period; among final vectors clearing (1-3*eps)*phi in the
rounded-profit metric it keeps the lightest, which is super-optimal against
the exact inverse optimum while violating the floor by at most that factor.
The forward solver scores every endpoint of the frontier of those answers
on ints and keeps the most profitable, instead of sweeping floors.

The inverse frontier builds no table for a candidate window where no class
fits more than 1/eps items within the largest capacity, if a window whose
classes include its own gets a table: its vectors, all light counts, recur
there padded with zeros, with the same weights, values and chains.  A
window where a heavy count fits keeps its own table.

Both public entries convert to integer units (``model.integer_units``) once
and ``InverseFrontier`` takes no other scalar; the DP holds rounded profits
times (1/eps)**L, L the instance's top class, so it runs on ints over one
denominator for every window, and Fractions appear only in answers.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, filterfalse, groupby
from operator import itemgetter
from typing import Optional, Sequence

from .classes import ClassInterval, ProfitClasses, build_classes, candidate_intervals
from .model import (
    AllLambdasZero,
    Instance,
    Solution,
    integer_units,
    objective,
    preprocess,
    remap_solution,
    validate,
)
from .statespace import Family, enumerate_family


class ChainNotMonotone(ValueError):
    pass


def check_internal_eps(eps: Fraction) -> Fraction:
    """Internal accuracy must be a unit fraction at most 1/5."""
    eps = Fraction(eps)
    if eps.numerator != 1 or eps.denominator < 5:
        raise ValueError(f"internal eps must be 1/k with k >= 5, got {eps}")
    return eps


def accuracy_budget(eps, losses: int) -> Fraction:
    """Internal accuracy 1/max(5, ceil(losses/eps)) for an outer accuracy eps.

    A stage whose end bound loses ``losses`` times its internal accuracy then
    meets the outer (1-eps) factor; 1/5 is the coarsest internal accuracy the
    solvers accept.  Raises ValueError unless eps > 0.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    return Fraction(1, max(5, math.ceil(losses / eps)))


@dataclass
class BoundedDPTable:
    """Restricted DP values of the last period per fitting cell, with predecessors.

    Rows are indexed by position in ``family.cells``, the lattice cells
    weighing at most the largest capacity.  ``values[i]`` holds the last
    period's rounded-profit value times ``family.value_den``, an int (None =
    not a family member), and ``pred[i]``, a machine int, the position of a
    member's predecessor in its entry period, the first whose capacity
    admits it (-1 = not a member).  Every lambda is positive, so these two
    rows hold the whole table (``dp_solve``): period t's row is ``values``
    restricted to the members within ``capacities[t-1]``, and after its
    entry period a member is its own predecessor.
    """

    interval: ClassInterval
    family: Family
    values: list[Optional[int]]
    pred: array
    capacities: Sequence

    def chain(self, pos: int) -> list[tuple[int, ...]]:
        """Counts per period of the optimal path ending at a position, which
        stays at a member back to its entry period and then moves to ``pred``."""
        weights, capacities = self.family.weights, self.capacities
        out: list[tuple[int, ...]] = []
        for t in range(len(capacities), 0, -1):
            out.append(self.family.counts(self.family.cells[pos]))
            if t == 1 or weights[pos] > capacities[t - 2]:
                pos = self.pred[pos]
        out.reverse()
        return out


def dp_solve(
    classes: ProfitClasses,
    interval: ClassInterval,
    family: Family,
    capacities: Sequence[Fraction],
    suffix: Sequence[int],
) -> BoundedDPTable:
    """Run the family-restricted DP over the horizon, one row per fitting cell.

    ``family`` was cut at max(capacities), so its cells, the lattice cells
    weighing at most that, are the only ones that can hold a value, and
    they are the DP's index set.  That set is closed downwards: a cell's
    axis predecessors (one count lower) fit too.  ``suffix`` is the
    instance's ``suffix_lambdas``.  ``classes`` is unused; it stays only
    because perfbench's tracer reads ``family`` and ``capacities`` by position.

    Transition: a vector extends the best coordinatewise-smaller reachable
    vector, paying the marginal count difference at the period's
    suffix-lambda rate.  A reached cell's key is (G, -rank), G = prev -
    lam*profit and rank = count_sum*N + position, so equal G goes to the
    first predecessor in (count-sum, counts) order.  The best key at or
    below a cell is the max of its own and its axis predecessors' best (the
    max form of Yates' zeta transform), found in position order, where a
    cell's axis predecessors come first (weight order would do too, but
    scatters the reads of a large table); only members within the period's
    capacity get a value.  The zero cell, a member of weight 0, is
    reached in row 0, so row t holds exactly the members within capacity t.

    Every lambda is positive, unchecked here as the input's integer units
    are, so the rows hold ints over ``family.value_den`` = (1/eps)**L, L the
    top class.  Then lam' = suffix[t-2] > lam = suffix[t-1], and a member p
    reached at t-1 keeps its value and points to itself: its value there is
    lam'*profit(p) plus the best G at or below it, at least that of any q
    below p, so at rate lam its G beats q's by at least
    (lam' - lam)*(profit(p) - profit(q)) > 0, as lifted profits rise along
    every axis.  So row t is the last row restricted to the members within
    capacity t, and a member's predecessor changes only in its entry period:
    the table keeps those two rows.  Period t visits only the cells within
    its capacity that row t-1 left empty, the members its capacity newly
    admits and the non-members: a reached predecessor gives its own key, an
    empty one its best found earlier in the pass, and the new members'
    values are written after it, so it reads row t-1.
    """
    cells, weights, profits = family.cells, family.weights, family.profits
    horizon, size = len(capacities), len(cells)
    ranks = [-(total * size + pos) for pos, total in enumerate(family.sums)]
    at = {cell: pos for pos, cell in enumerate(cells)}
    axes = list(zip(family.strides, map(len, family.values)))
    member = bytearray(size)
    for pos in family.members:
        member[pos] = 1
    # positions by weight; row t admits the first ends[t], row 0 the zero cell
    order = sorted(range(size), key=weights.__getitem__)
    ends = [1, *(bisect_right(order, cap, key=weights.__getitem__) for cap in capacities)]

    values: list[Optional[int]] = [None] * size
    pred = array("l", [-1]) * size  # only members' are read; a list held an int object per member too
    values[0] = pred[0] = 0
    keys: list[tuple] = [()] * size  # () sorts below every key
    waiting: list[int] = []  # the non-members admitted so far
    for t in range(1, horizon + 1):
        lam = suffix[t - 1]
        fresh = order[ends[t - 1] : ends[t]]
        for pos in sorted(waiting + fresh):
            best = ()
            cell = cells[pos]
            for stride, k in axes:
                if cell // stride % k:
                    b = at[cell - stride]
                    v = values[b]
                    key = keys[b] if v is None else (v - lam * profits[b], ranks[b])
                    if key > best:
                        best = key
            keys[pos] = best
        waiting += filterfalse(member.__getitem__, fresh)
        for pos in filter(member.__getitem__, fresh):
            values[pos] = lam * profits[pos] + keys[pos][0]
            pred[pos] = -keys[pos][1] % size
    return BoundedDPTable(interval, family, values, pred, capacities)


def prefix_to_solution(
    classes: ProfitClasses,
    interval: ClassInterval,
    chain: Sequence[tuple[int, ...]],
    n_items: int,
) -> Solution:
    """Turn a nondecreasing count chain into introduction times.

    The k-th lightest item of a class enters at the first period whose count
    reaches k; items outside the chain's interval stay out.
    """
    for prev, cur in zip(chain, chain[1:]):
        if any(a > b for a, b in zip(prev, cur)):
            raise ChainNotMonotone(f"{prev} -> {cur}")
    intro: list[Optional[int]] = [None] * n_items
    # latest period first, so each item keeps the first period that packs it
    for pos, level in enumerate(interval.active):
        for t in range(len(chain), 0, -1):
            for i in classes.members[level][: chain[t - 1][pos]]:
                intro[i] = t
    return Solution(tuple(intro))


@dataclass(frozen=True)
class InverseResult:
    """Inverse-solver outcome: a feasible solution plus its exact metrics."""

    solution: Solution
    rounded_profit: Fraction  # rounded-class metric, scaled back to true units
    true_profit: Fraction
    weight: Fraction


class InverseFrontier:
    """All Pareto-optimal (weight, rounded profit) endpoints of one instance.

    Built once per instance and accuracy; a profit requirement is then a
    binary search.  The frontier always contains the empty solution, so a
    query fails only when even the best value misses the threshold.

    The instance must be preprocessed, every lambda positive
    (``model.preprocess``), and in integer units (``model.integer_units``);
    a zero lambda, or a scalar that is no int, raises ValueError.  Entry
    values are then ints v over every table's one denominator, value_den =
    q**L for eps = 1/q and L the top class.  With class scale s (the least
    profit, an int), entry i serves requirements up to its value over
    (1-3*eps) = (q-3)/q, which is ``thresholds[i]`` = s*q*v over ``den`` =
    value_den*(q-3);
    so construction makes no Fraction per entry, a query ceils phi*den once
    and bisects the ints, and only the entry it returns gets a rational
    rounded profit.  ``solution`` decodes entry i directly.

    Only windows that no other window absorbs get a DP table.  Window B
    absorbs window A when none of A's classes fits more than 1/eps items
    within the largest capacity, and B's classes strictly contain A's, or
    equal them with B earlier in candidate order.  A's family then holds
    every light count that fits, all members, and so do B's members that
    count 0 on every class outside A, restricted to A's classes.  Both
    families are cut at the largest capacity and share the class prefix
    sums, so that sub-lattice of B is closed downwards, lifted profits are
    equal on every cell, and zero coordinates keep the (count-sum, counts)
    order; so each vector of A gets the same value, predecessors and chain
    in B's table.  The relation is transitive and has no cycles, so a
    window is absorbed by some window exactly when it is absorbed by a
    window that gets a table; windows are decided with the most classes
    first, then in candidate order, so every possible absorber is decided
    before them.  A window where some class fits more than 1/eps items
    keeps its own table: B's restriction may hold extra vectors, which can
    raise A's values or move its ties, and telling when it does not means
    decoding both families, which costs more than the table it saves.
    Each table's family is built as its window is decided, before the
    first DP runs, so a family past its budget refuses before any DP.

    The merge keeps the all-windows tie rule (equal (weight, value) goes to
    the earliest window in candidate order, then the first vector in its
    family order) by ranking each entry by the first window including its
    nonzero classes among its table's own window and the windows that table
    absorbs; that window's own table would hold the vector at that value
    with that chain, so each rank here is the rank of an entry of the
    all-windows merge.  Each window of that merge gets a table or is
    absorbed by one, so each of its entries has a copy here ranked no later
    than it; and vectors of one rank all lie in that window's family, where
    (count-sum, counts over all classes) is their family order.  So the
    least-ranked built entry is the entry the all-windows merge picks, or a
    copy of it.

    Each table first gives only its own Pareto entries: its live final-row
    positions sorted by weight (and by value, descending, within a weight),
    keeping the best-valued entries of a weight whose value beats the
    table's best at lower weights, all of them when several tie.  A dropped
    entry is worth no more than a lighter entry of its own table, or less
    than one of equal weight, so the merge over all entries drops it too;
    and every entry of a run that merge keeps passes its table's scan.  So
    merging the kept entries on (weight, -value) ranks the same candidates.
    """

    def __init__(self, instance: Instance, eps: Fraction):
        if not all(instance.lambdas):
            raise ValueError("instance must be preprocessed: every lambda positive")
        if not all(isinstance(x, int) for x in (*chain(*instance.items), *instance.capacities, *instance.lambdas)):
            raise ValueError("instance must be in integer units: every scalar an int")
        self.instance = instance
        self.eps = check_internal_eps(eps)
        q = self.eps.denominator
        self.classes = classes = build_classes(instance, self.eps)
        indices = classes.indices
        suffix = instance.suffix_lambdas
        intervals = candidate_intervals(classes, self.eps, Fraction(suffix[0], suffix[-1]))
        windows = [frozenset(interval.active) for interval in intervals]
        cut = max(instance.capacities)
        families: dict[int, Family] = {}  # per window with a table, its family
        holds: dict[int, list[int]] = {}  # per window with a table: the windows its table holds
        for a in sorted(range(len(windows)), key=lambda i: (-len(windows[i]), i)):
            small = windows[a]
            by = []
            if all(classes.size(l) <= q or classes.prefix[l][q + 1] > cut for l in small):
                by = [b for b in holds if small < windows[b] or small == windows[b] and b < a]
            for b in by:
                holds[b].append(a)
            if not by:
                holds[a] = [a]
                families[a] = enumerate_family(classes, intervals[a], self.eps, instance.capacities)
        tables: list[tuple[list[int], BoundedDPTable]] = []  # (windows the table holds, table)
        for index in sorted(holds):
            table = dp_solve(classes, intervals[index], families[index], instance.capacities, suffix)
            tables.append((sorted(holds[index]), table))

        def rank(entry) -> tuple:
            _, _, held, table, pos = entry
            if table is None:
                return (-1,)
            counts = dict(zip(table.interval.active, table.family.counts(table.family.cells[pos])))
            used = {l for l, c in counts.items() if c}
            index = next(i for i in held if used <= windows[i])
            return (index, sum(counts.values()), tuple(counts.get(l, 0) for l in indices))

        # every table's values share one value_den, so the merge compares plain ints
        value_den = next((table.family.value_den for _, table in tables), 1)
        entries: list[tuple] = [(0, 0, None, None, None)]  # (weight, value, held windows, table, position)
        for held, table in tables:
            row, weights = table.values, table.family.weights
            # by weight, then value descending, then position: both sorts are stable
            live = sorted((pos for pos, v in enumerate(row) if v is not None), key=row.__getitem__, reverse=True)
            live.sort(key=weights.__getitem__)
            most = at = -1  # the table's best value so far, and the weight that holds it
            for pos in live:
                v = row[pos]
                if v > most or v == most and weights[pos] == at:
                    most, at = v, weights[pos]
                    entries.append((at, v, held, table, pos))
        entries.sort(key=lambda e: (e[0], -e[1]))
        frontier = []
        best = -1
        for (weight, v), run in groupby(entries, key=itemgetter(0, 1)):
            if v > best:
                run = list(run)
                _, _, _, table, pos = min(run, key=rank) if len(run) > 1 else run[0]
                frontier.append((weight, v, table, pos))
                best = v
        self._frontier = frontier
        self._value_den = value_den
        # a value v is scale*v/value_den in true units, and it serves
        # requirements up to that over 1 - 3*eps = (q-3)/q
        self.den = value_den * (q - 3)
        # entry i is the lightest endpoint for requirements in
        # (thresholds[i-1]/den, thresholds[i]/den]
        self.weights = [e[0] for e in frontier]
        self.thresholds = [classes.scale * q * e[1] for e in frontier]

    def solution(self, i: int) -> Solution:
        """Entry i's solution; the first entry is the empty one."""
        _, _, table, pos = self._frontier[i]
        if table is None:
            return Solution.empty(self.instance.n)
        return prefix_to_solution(self.classes, table.interval, table.chain(pos), self.instance.n)

    def rounded_profit(self, i: int) -> Fraction:
        """Entry i's rounded profit in true units, scale*v/value_den; 0 for the empty entry."""
        return self.classes.scale * Fraction(self._frontier[i][1], self._value_den)

    def best(self) -> tuple[int, Solution]:
        """The first entry, in frontier order, of the most true profit, with its solution.

        Each profit is rounded down to a power of 1+eps times the least, so
        an entry of rounded profit r earns at least r and at most
        spread*r (``ProfitClasses.spread``, below 1+eps), or 0 if it is the
        empty one.  Rounded profits rise along the frontier, so a scan from
        the last entry down stops at the first entry whose spread*r is
        below the most profit found: neither it nor any entry before it
        earns as much.  Each entry the scan reaches is decoded and scored
        once, on ints, and ties go to the earlier."""
        high, low = self.classes.spread
        earns, most_den = high * self.classes.scale, low * self._value_den  # spread*r = earns*v/most_den
        most, found = -1, None  # below every profit; the empty entry is always there
        for i in reversed(range(len(self._frontier))):
            if earns * self._frontier[i][1] < most * most_den:
                break
            solution = self.solution(i)
            profit = objective(self.instance, solution)
            if profit >= most:
                most, found = profit, (i, solution)
        return found

    def query(self, phi: Fraction) -> Optional[InverseResult]:
        """Lightest endpoint whose rounded profit clears (1-3*eps)*phi.

        Entry i serves phi iff thresholds[i] >= phi*den iff thresholds[i] >=
        ceil(phi*den), as thresholds are ints: one ceiling, then a bisection."""
        if phi < 0:
            raise ValueError("profit requirement must be nonnegative")
        idx = bisect_left(self.thresholds, -(-phi.numerator * self.den // phi.denominator))
        if idx == len(self._frontier):
            return None
        solution = self.solution(idx)
        return InverseResult(
            solution=solution,
            rounded_profit=self.rounded_profit(idx),
            true_profit=objective(self.instance, solution),
            weight=self.weights[idx],
        )


def solve_inverse(instance: Instance, phi: Fraction, eps: Fraction) -> Optional[InverseResult]:
    """Super-optimal inverse solve: weight never above the exact optimum's,
    true profit at least (1-3*eps)*phi.  None signals an infeasible floor.
    Validates, drops zero-lambda periods, solves in integer units and maps
    the answer back to the original periods and units."""
    validate(instance)
    try:
        pre, remap = preprocess(instance)
    except AllLambdasZero:
        return InverseResult(Solution.empty(instance.n), Fraction(0), Fraction(0), Fraction(0)) if phi <= 0 else None
    scaled, value_unit, weight_unit = integer_units(pre)
    res = InverseFrontier(scaled, eps).query(Fraction(phi) * value_unit)
    if res is None:
        return None
    rounded, true = Fraction(res.rounded_profit, value_unit), Fraction(res.true_profit, value_unit)
    return InverseResult(remap_solution(res.solution, remap), rounded, true, Fraction(res.weight, weight_unit))


def solve_bounded(instance: Instance, eps: Fraction) -> Solution:
    """Forward solver: the first inverse-frontier endpoint, in frontier
    order, with the most true profit.

    Validates, drops zero-lambda periods (all zero: the empty solution),
    solves in integer units and maps the answer back to the original
    periods.  The paper's wrapper sweeps a geometric grid of profit floors
    through a black-box inverse solver; every answer such a sweep can
    return is a frontier endpoint, so the best endpoint meets its (1-5*eps)
    bound a fortiori.  ``InverseFrontier.best`` scores the endpoints, with
    no query.
    """
    validate(instance)
    eps = check_internal_eps(eps)
    try:
        pre, remap = preprocess(instance)
    except AllLambdasZero:
        return Solution.empty(instance.n)
    instance, _, _ = integer_units(pre)
    _, solution = InverseFrontier(instance, eps).best()
    return remap_solution(solution, remap)
