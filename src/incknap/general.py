"""Full approximation scheme: clustering, cluster DP, and solution gluing.

Periods are grouped into geometric bands of the suffix-lambda value; under a
derandomized offset xi, every 1/eps-th band is discarded and the remaining
maximal runs form clusters whose internal suffix ratio is small enough for
the bounded inverse solver.  A near-optimal solution then assigns disjoint,
order-aligned profit-class ranges to clusters (uncrossing stars), which a
minimum-weight DP over (cluster, top class, accumulated profit) recovers on
a discretized profit grid, held once as ints over one unit, filling one row
per (cluster, top class) by pushing each inverse frontier entry over the
grid range it serves, found by bisecting those ints.  Each row maps the
indices it holds, ascending, to their weight, backpointer and the entry
that wrote them, so the next row visits only those predecessors.  The
per-cluster subproblems are inverse solves with capacities reduced by the
weight already committed below.  A grid depends on its plan only through
the cluster count, so a solve builds one grid per count; the class
knapsack rows behind the bound below depend on no plan, and a solve builds
them once.  Both serve plans of two or more clusters only.

Gluing answers a plan of one cluster by the first endpoint of most true
profit of one frontier, cluster 1's on every class, with no grid, class
rows or pushes.  For more clusters it reads the most profitable feasible
state of the last row and the chain of backpointers below it; every row
is filled as a branch and bound for that chain (``ClusterDPTable``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .bounded import InverseFrontier, accuracy_budget
from .classes import ProfitClasses, build_classes, power_order
from .model import (
    AllLambdasZero,
    BudgetExceeded,
    Instance,
    Solution,
    integer_units,
    objective,
    preprocess,
    remap_solution,
    validate,
)

# Most profit-grid points (0 included) a solve may build: point k is an int
# of O(k) digits, so a grid's time and memory grow with its length squared.
GRID_BUDGET = 2**15
# Most cells in one knapsack row (``knapsack_rows``); past it, weights and
# capacities are floored by a common divisor.
KNAPSACK_CELLS = 2**10


@dataclass(frozen=True)
class ClusterPlan:
    """The clusters surviving offset xi, each a run of periods in order."""

    clusters: tuple[tuple[int, ...], ...]

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)


def build_plan(instance: Instance, eps: Fraction, xi: int) -> ClusterPlan:
    """Assign periods to geometric suffix-lambda bands and form clusters.

    Band m collects periods whose suffix value lies in
    ((eps/n)^m, (eps/n)^(m-1)] times the first suffix value.  Bands with
    index xi modulo 1/eps are dropped; maximal runs of surviving bands whose
    periods are non-empty become the clusters, in period order.

    With a/b = eps.numerator/(eps.denominator*n), unreduced, s_t lies at or
    below first*(a/b)**m iff s_t * b**m <= first * a**m, exact for ints
    (integer units) and Fractions alike, on a ladder of ints.
    Suffix values never increase, so bands never fall: each period's climb
    resumes at the band of the period before it.  A kept period joins the
    last cluster unless its run key (m - xi) // (1/eps) differs, which opens
    a new cluster; the key changes exactly across a dropped band.
    """
    inv_eps = eps.denominator
    if not 0 <= xi < inv_eps:
        raise ValueError(f"xi must lie in [0, {inv_eps - 1}]")
    if instance.n == 0:
        return ClusterPlan(clusters=())
    suffix = instance.suffix_lambdas
    a, b = eps.numerator, inv_eps * instance.n  # eps/n
    first = suffix[0]
    m, up, down = 1, a, b  # (eps/n)**m = up/down
    clusters: list[list[int]] = []
    last = None  # run key of the last cluster
    for t, s in enumerate(suffix, start=1):
        while s * down <= first * up:
            m, up, down = m + 1, up * a, down * b
        if m % inv_eps != xi:
            key = (m - xi) // inv_eps
            if key != last:
                clusters.append([])
                last = key
            clusters[-1].append(t)
    return ClusterPlan(clusters=tuple(map(tuple, clusters)))


@dataclass(frozen=True)
class ProfitGrid:
    """Profit points 0, delta, delta*step, ..., step = 1 + eps/M, as ints over ``unit``.

    ``unit`` = den(delta) * den(step)**top, top = len(values) - 1, makes
    delta*step**k integral for every k <= top.  ``offsets[k]`` =
    step*point(k) + delta, what state k takes off the next cluster's
    requirement, is delta at k = 0 and point k+1 + delta past it."""

    delta: Fraction
    unit: int
    values: tuple[int, ...]
    offsets: tuple[int, ...]

    def point(self, k: int) -> Fraction:
        """Grid point k as a Fraction."""
        return Fraction(self.values[k], self.unit)


def grid_budget(
    eps: Fraction, num_clusters: int, lam_last: Fraction, p_max: Fraction, psi_cap: Fraction
) -> tuple[Fraction, Fraction, int, int]:
    """(delta, step, reach, need) of the grid ``build_grid`` builds, reach/need
    = delta/psi_cap on ints, after its budget test: a grid of more than
    ``GRID_BUDGET`` points raises BudgetExceeded before any point is counted.

    With step = num/den, point k >= 1 is delta*step**(k-1), so the grid has
    top+1 points for the least top with reach*num**(top-1) >= need*den**(top-1).
    It overruns the budget B iff top >= B, that is iff point B-1 still misses
    the cap: step**(B-2) < need/reach, which ``classes.power_order`` decides.
    """
    delta = eps / num_clusters * lam_last * p_max
    step = 1 + eps / num_clusters
    reach = delta.numerator * psi_cap.denominator
    need = psi_cap.numerator * delta.denominator
    if power_order(step.numerator, step.denominator, GRID_BUDGET - 2, need, reach) < 0:
        raise BudgetExceeded(GRID_BUDGET + 1, GRID_BUDGET, "profit grid of at least {} points")
    return delta, step, reach, need


def build_grid(eps: Fraction, num_clusters: int, lam_last: Fraction, p_max: Fraction, psi_cap: Fraction) -> ProfitGrid:
    """Grid from delta = eps/M * lambda_T * p_max up to the profit ceiling.

    The last point is the first at or above psi_cap (suffix-lambda of period
    1 times the total profit mass), so the grid covers every achievable
    profit; a cap short of that would silently truncate the DP's reachable
    states.  ``grid_budget`` refuses a grid past ``GRID_BUDGET`` points
    before they are counted, and they are counted, on ints, before any is
    built.
    """
    delta, step, reach, need = grid_budget(eps, num_clusters, lam_last, p_max, psi_cap)
    num, den = step.numerator, step.denominator
    top = 1
    while reach < need:
        reach, need, top = reach * num, need * den, top + 1
    points = [delta.numerator * den**top]  # delta*step**(k-1) over the unit, k = 1..top+1
    for _ in range(top):
        points.append(points[-1] * num // den)
    offsets = (points[0], *(p + points[0] for p in points[1:]))
    return ProfitGrid(delta=delta, unit=delta.denominator * den**top, values=(0, *points[:-1]), offsets=offsets)


@dataclass(frozen=True)
class SingleClusterInstance:
    """One cluster's inverse subproblem, with maps back to the parent."""

    instance: Instance
    item_ids: tuple[int, ...]  # local item -> parent item
    periods: tuple[int, ...]  # local period -> parent period


def single_cluster_instance(
    parent: Instance,
    classes: ProfitClasses,
    plan: ClusterPlan,
    m: int,
    class_lo: int,
    class_hi: int,
    omega: int,
) -> SingleClusterInstance:
    """Restrict to cluster m's periods and classes [class_lo, class_hi].

    Capacities shrink by the weight omega committed in earlier clusters.
    The local lambda of a cluster period covers the stretch up to the next
    cluster period (the last one takes the whole tail), so local suffix
    values equal the parent's and profit accounting stays exact across the
    final gluing.
    """
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    periods = plan.clusters[m - 1]
    item_ids = tuple(
        sorted(i for level, members in classes.members.items() if class_lo <= level <= class_hi for i in members)
    )
    ends = [parent.suffix_lambdas[t - 1] for t in periods] + [0]
    sub = Instance(
        items=tuple(parent.items[i] for i in item_ids),
        capacities=tuple(max(parent.capacities[t - 1] - omega, 0) for t in periods),
        lambdas=tuple(a - b for a, b in zip(ends, ends[1:])),
    )
    return SingleClusterInstance(instance=sub, item_ids=item_ids, periods=periods)


@dataclass
class ClusterDPTable:
    """Min-weight table over (cluster, class, grid profit), one row per (m, ell).

    A row maps each index it holds, ascending, to (weight, backpointer,
    entry).  It is filled on first read by pushing each feasible state (m-1,
    ell_prev, idx_prev) through cluster m's frontier on classes
    ell_prev+1..ell, at capacities reduced by that state's weight: each
    frontier entry serves the contiguous range of indices idx whose
    requirement grid[idx] - offsets[idx_prev] it covers.  Both terms are
    ints over ``grid.unit``, so flooring served requirements in it is exact:
    a threshold t over the frontier's ``den`` has cutoff t * unit // den.
    A state keeps the entry whose push wrote it, which ``transition`` reads.

    Rows hold only the states that may lie on ``glue``'s chain.  By its
    knapsack bound (``_ClusterBound``), cluster k serves the classes above
    ell at most most = ``most(ell, top, 0)`` past a state's offset, taking
    index i to g(i) or below, the last index at or below most + offsets[i];
    F_m(ell, idx), the g of clusters m+1..M composed, bounds the last-row
    index of every chain through state (m, ell, idx).  L (``_least_target``)
    ends a chain of the full rows, cluster 1 taking every class from the
    zero state and the rest none, so the full last row's target is at least L.
    Points and offsets rise, so g(i) >= j iff offsets[i] >= points[j] -
    most: need, the least index of F >= L, is one ``bisect_left`` on the
    offsets per later cluster, back from L (``_need``).  Every row keeps its
    states from need on, and skips, never building its frontier, each
    predecessor that ``_ClusterBound.skips`` shows writes nothing above
    reach nor strictly lighter than the weight at reach.  Reach is need; in
    the last row, read by ``glue`` for its last key (the target) and that
    key's backpointer alone, it rises to the highest index written, never
    past the full row's target.  So a skipped predecessor writes nothing at
    a kept state of rows m < M, or at the target, lighter than a kept push
    before it, and the kept pushes keep their order.  By induction over m,
    the kept states of rows m < M hold the full table's weights and
    backpointers (a predecessor that pushes into one has F >= L, so it is
    kept, with its full weight), and the target and its first lightest push
    are the full row's; each state of its chain has F at least the target,
    hence at least L.  Rows with no cluster or no class share one zero row:
    a zero state of F < L writes only below need, so ``skips`` drops it.

    A plan of one cluster gets no ``grid`` nor ``class_rows`` (None); its
    table only builds frontier (1, 0, top, 0), without pushes, for ``glue``.
    """

    instance: Instance
    classes: ProfitClasses
    plan: ClusterPlan
    grid: Optional[ProfitGrid]  # None for a plan of one cluster
    eps: Fraction
    class_rows: Optional[tuple[int, dict, dict]]  # ``class_rows(instance, classes)``; None for one cluster

    def __post_init__(self):
        self._rows: dict[tuple[int, int], dict] = {}
        self._frontiers: dict[tuple, tuple[InverseFrontier, SingleClusterInstance, list[tuple[int, int]]]] = {}
        self._sub_eps = accuracy_budget(self.eps, 3)
        self._ell_states = (-1,) + self.classes.indices
        self._zero = {0: (0, None, None)}  # build_grid puts 0 at index 0 only

    def _frontier(self, m: int, lo: int, hi: int, omega: int):
        key = (m, lo, hi, omega)
        if key not in self._frontiers:
            sub = single_cluster_instance(self.instance, self.classes, self.plan, m, lo, hi, omega)
            frontier = InverseFrontier(sub.instance, self._sub_eps)
            pushes = None  # a plan of one cluster pushes nothing
            if self.grid is not None:
                unit, den = self.grid.unit, frontier.den
                # each entry's cutoff, with the total weight it gives a state of weight omega
                pushes = [(t * unit // den, omega + w) for t, w in zip(frontier.thresholds, frontier.weights)]
            self._frontiers[key] = (frontier, sub, pushes)
        return self._frontiers[key]

    def _row(self, m: int, ell: int) -> dict:
        """Row (m, ell), filled and kept on first read: its states from index
        ``_need`` on, each index mapped to (weight, link, entry), link the
        (ell_prev, idx_prev, weight) of its first lightest predecessor and
        entry the frontier entry whose push wrote it, in ascending index order.
        A predecessor is pushed unless cluster m's ``_ClusterBound.skips``
        rules it out at reach and the weight held there; reach starts at need
        and, in the last row alone, rises to the highest index written.  Rows
        with no cluster or no class are one shared zero row."""
        if m == 0 or ell == -1:
            return self._zero
        if (m, ell) in self._rows:
            return self._rows[m, ell]
        points, offsets = self.grid.values, self.grid.offsets
        need = self._need(m, ell)
        row = {0: (0, None, None)} if need == 0 else {}
        last, reach, skips = m == self.plan.num_clusters, need, self._bounds[m - 1].skips
        # the (ell_prev, idx_prev) order and a strict < keep the first lightest move
        for ell_prev in self._ell_states:
            if ell_prev > ell:
                break
            for idx_prev, (prev, _, _) in self._row(m - 1, ell_prev).items():
                offset, held = offsets[idx_prev], row.get(reach)
                if skips(ell_prev, ell, prev, offset, reach, None if held is None else held[0]):
                    continue
                lo, link = max(idx_prev, need, 1), (ell_prev, idx_prev, prev)
                for entry, (cutoff, cand) in enumerate(self._frontier(m, ell_prev + 1, ell, prev)[2]):
                    hi = bisect_right(points, cutoff + offset, lo)
                    for idx in range(lo, hi):
                        old = row.get(idx)
                        if old is None or cand < old[0]:
                            row[idx] = cand, link, entry
                    lo = hi
                # the empty entry serves offset > points[idx_prev], so every
                # index from the first pushed up to lo - 1 now holds a value
                if last:
                    reach = max(reach, lo - 1)
        self._rows[m, ell] = row = dict(sorted(row.items()))
        return row

    def _need(self, m: int, ell: int) -> int:
        """The least idx of F_m(ell, idx) >= L; at most L, as offsets[i] >= points[i + 1]."""
        points, offsets, top = self.grid.values, self.grid.offsets, self._ell_states[-1]
        idx = self._least_target
        for bound in reversed(self._bounds[m:]):
            idx = bisect_left(offsets, points[idx] - bound.most(ell, top, 0))
        return idx

    @cached_property
    def _least_target(self) -> int:
        """L, where a chain of the full rows ends: cluster 1 takes every
        class from the zero state (the reach of frontier (1, 0, top, 0)),
        then clusters 2..M take none (index i goes to the last index at or
        below offsets[i])."""
        points, offsets = self.grid.values, self.grid.offsets
        idx = bisect_right(points, self._frontier(1, 0, self.classes.indices[-1], 0)[2][-1][0] + offsets[0]) - 1
        for _ in range(1, self.plan.num_clusters):
            idx = bisect_right(points, offsets[idx]) - 1
        return idx

    @cached_property
    def _bounds(self) -> tuple[_ClusterBound, ...]:
        """Cluster m's bound at position m - 1, all reading the solve's class rows."""
        return tuple(_ClusterBound(self, m, *self.class_rows) for m in range(1, self.plan.num_clusters + 1))

    def transition(self, m: int, ell: int, phi_idx: int) -> tuple[int, int, Solution, SingleClusterInstance]:
        """(ell_prev, idx_prev, solution, SingleClusterInstance) of cluster m's
        step into a state: the entry its row kept, the first whose cutoff
        covers the state's requirement."""
        _, (ell_prev, idx_prev, prev), entry = self._row(m, ell)[phi_idx]
        frontier, sub, _ = self._frontier(m, ell_prev + 1, ell, prev)
        return ell_prev, idx_prev, frontier.solution(entry), sub


class _ClusterBound:
    """What cluster m's frontiers can serve, by a 0/1 knapsack bound.

    Cluster m's frontier for a predecessor (ell_prev, weight omega) of row
    (m, ell) holds feasible solutions of its subinstance on classes
    ell_prev+1..ell.  An entry of weight x has rounded profit at most its
    true profit, at most U(x) = sum_t lambda_t * KP(min(W_t - omega, x))
    over the cluster's local lambdas and capacities, KP being the 0/1
    knapsack optimum over those classes' items.  It serves requirements up
    to its rounded profit times q/(q-3), so it writes grid index idx only
    if U(x) * q/(q-3) >= grid[idx] - offset, offset being the predecessor's.

    KP is at most both ``suffix[ell_prev]`` (the classes above ell_prev)
    and ``prefix[ell]`` (the classes up to ell), read at c // g: the rows
    of ``class_rows``, built once per solve.  Each bounds the knapsack of a
    superset of the items, so their least is admissible.  ``skips`` asks
    these bounds whether a predecessor's frontier may change a row.
    """

    def __init__(self, table: ClusterDPTable, m: int, g: int, suffix: dict, prefix: dict):
        instance, classes, indices = table.instance, table.classes, table.classes.indices
        local = single_cluster_instance(instance, classes, table.plan, m, indices[0], indices[-1], 0).instance
        self.lambdas, self.caps = local.lambdas, local.capacities
        self.g, self.suffix, self.prefix = g, suffix, prefix
        self.points = table.grid.values
        q = table._sub_eps.denominator
        self.scale, self.loss = q * table.grid.unit, q - 3
        self._most: dict[tuple[int, int, int], int] = {}

    def profit(self, ell_prev: int, ell: int, omega: int, x: int) -> int:
        """U(x) for the frontier of predecessor (ell_prev, omega) in row (m, ell)."""
        low, high, g = self.suffix[ell_prev], self.prefix[ell], self.g
        total = 0
        for lam, c in zip(self.lambdas, self.caps):
            r = min(max(c - omega, 0), x) // g
            total += lam * min(low[r], high[r])
        return total

    def cutoff(self, ell_prev: int, ell: int, omega: int, x: int) -> int:
        """The largest requirement, in grid units, an entry of weight at most x may serve."""
        return self.profit(ell_prev, ell, omega, x) * self.scale // self.loss

    def most(self, ell_prev: int, ell: int, omega: int) -> int:
        """The cutoff at the largest capacity, which no entry passes; kept per key."""
        key = (ell_prev, ell, omega)
        most = self._most.get(key)
        if most is None:
            most = self._most[key] = self.cutoff(ell_prev, ell, omega, self.caps[-1])
        return most

    def skips(self, ell_prev: int, ell: int, omega: int, offset: int, reach: int, weight: Optional[int]) -> bool:
        """True unless predecessor (ell_prev, omega) at ``offset`` may write
        at or above index ``reach`` of row (m, ell) and, given the ``weight``
        held at reach, above reach or strictly lighter than weight at it;
        None (nothing yet at reach) asks the first alone.
        ``most`` tests the first two, and the cutoff at weight - omega - 1
        the last, as U never falls as x grows."""
        points = self.points
        most = self.most(ell_prev, ell, omega) + offset
        if most < points[reach]:
            return True
        if weight is None or reach + 1 < len(points) and most >= points[reach + 1]:
            return False
        lighter = weight - omega - 1
        return lighter < 0 or self.cutoff(ell_prev, ell, omega, lighter) + offset < points[reach]


def add_item(row: list[int], profit: int, weight: int) -> list[int]:
    """The 0/1 knapsack row of ``row``'s items and one more item: entry c
    is the most profit packing at most c of weight."""
    return row[:weight] + [max(keep, take + profit) for keep, take in zip(row[weight:], row)]


def knapsack_rows(groups: list[list[tuple[int, int]]], capacity: int) -> tuple[int, list[list[int]]]:
    """(g, rows): ``rows[k][c // g]`` bounds from above the 0/1 knapsack
    optimum of the items of ``groups[k:]`` at weight c, 0 <= c <= capacity.

    Rows are built back to front, one item at a time (``add_item``), so
    ``rows[len(groups)]`` is all zeros.  g is the least divisor that keeps a
    row within ``KNAPSACK_CELLS`` cells; every weight is floored by it, and a
    set of weight at most c floors to at most c // g, so a row is never below
    the true optimum, and it is exact when g = 1.
    """
    g = capacity // KNAPSACK_CELLS + 1
    row = [0] * (capacity // g + 1)
    rows = [row]
    for group in reversed(groups):
        for p, w in group:
            row = add_item(row, p, w // g)
        rows.append(row)
    return g, rows[::-1]


def class_rows(instance: Instance, classes: ProfitClasses) -> tuple[int, dict, dict]:
    """(g, suffix, prefix): ``knapsack_rows`` over the profit classes at the
    last capacity, floored by g past ``KNAPSACK_CELLS`` cells.
    ``suffix[ell]`` bounds the classes above ell and ``prefix[ell]`` those up
    to ell; no plan enters them, so a solve builds them once."""
    cap, states = instance.capacities[-1], (-1,) + classes.indices
    groups = [[instance.items[i] for i in classes.members[level]] for level in classes.indices]
    g, rows = knapsack_rows(groups, cap)
    prefix = knapsack_rows(groups[::-1], cap)[1]
    return g, dict(zip(states, rows)), dict(zip(reversed(states), prefix))


def cluster_dp(
    instance: Instance,
    classes: ProfitClasses,
    plan: ClusterPlan,
    grid: ProfitGrid,
    eps: Fraction,
    class_rows: tuple[int, dict, dict],
) -> ClusterDPTable:
    """Build the cluster DP table on the solve's class rows; each row is filled when first read."""
    if plan.num_clusters < 1:
        raise ValueError("plan must contain at least one cluster")
    return ClusterDPTable(instance=instance, classes=classes, plan=plan, grid=grid, eps=eps, class_rows=class_rows)


def glue(plan: ClusterPlan, table: ClusterDPTable) -> tuple[Solution, Fraction]:
    """The plan's answer over the table's instance, with its certified value.

    One cluster: the first endpoint of most true profit of frontier (1, 0,
    top, 0), certified by its rounded profit, a lower bound on its true
    profit; no row is filled and no other frontier is built.  This keeps
    the scheme's guarantee.  The plan's analysis needs an entry serving the
    rounded profit phi* of the near-optimal solution S* in the cluster.  S*
    uses classes 0..top only, and the inverse solver on all classes is
    super-optimal against the exact inverse optimum over all items, whose
    weight is at most w(S*); so the frontier holds an entry of true profit
    at least (1-3*eps_sub)*phi*, and its most profitable endpoint earns at
    least that entry's profit.  The sub-instance's suffix values are the
    parent's, so its true profit is the answer's.

    More clusters: the highest feasible index of the last row (M, top
    class), which the table fills as a branch and bound for it: that index,
    its weight and every backpointer on its chain are the full rows'.  Each
    traversed state contributes the solution of the entry it kept, and the
    value returned is the index's grid point, no lower bound on the profit.
    The chain certifies one: its step from index i' to i kept the first
    entry whose cutoff covers the requirement r = grid[i] - offsets[i'] (i'
    = 0 below cluster 1), so that entry's rounded profit, at most its true
    profit, is at least (1-3*eps_sub)*r.  The steps' items are disjoint and
    their suffix values the parent's, so the answer earns at least
    (1-3*eps_sub) times the sum of its chain's requirements.

    The union of the clusters' solutions, re-indexed to parent periods and
    items, is the glued solution.
    """
    m, ell = plan.num_clusters, table.classes.indices[-1]
    if m == 1:
        frontier, sub, _ = table._frontier(1, 0, ell, 0)
        i, step = frontier.best()
        steps, value = [(step, sub)], frontier.rounded_profit(i)
    else:
        idx = next(reversed(table._row(m, ell)))
        steps, value = [], table.grid.point(idx)
        # a feasible state past index 0 got its backpointer with its value
        while m >= 1 and idx > 0:
            ell, idx, step, sub = table.transition(m, ell, idx)
            steps.append((step, sub))
            m -= 1
    intro: list[Optional[int]] = [None] * table.instance.n
    for step, sub in steps:
        for local_item, local_t in step.introduced():
            intro[sub.item_ids[local_item]] = sub.periods[local_t - 1]
    return Solution(tuple(intro)), value


@dataclass(frozen=True)
class GeneralResult:
    """Winning solution plus the diagnostics of the offset that produced it.

    ``phi_target`` is the winning plan's value from ``glue``: with one
    cluster, its endpoint's rounded profit, at most the answer's profit on
    ``core_instance``; with more, its last-row state's grid point, which
    may exceed that profit (``glue`` derives what its chain certifies).  It,
    ``grid`` (ints over ``grid.unit``) and ``classes`` are in
    ``core_instance``'s integer units; the diagnostics are None when no
    plan ran, and ``grid`` also when the winner has one cluster, as no
    cluster DP ran."""

    solution: Solution  # over the original instance
    profit: Fraction  # its objective, scored on the instance without zero-lambda periods, which is equal
    eps_int: Fraction
    xi: Optional[int] = None
    plan: Optional[ClusterPlan] = None
    grid: Optional[ProfitGrid] = None
    phi_target: Optional[Fraction] = None
    classes: Optional[ProfitClasses] = None
    core_instance: Optional[Instance] = None  # preprocessed, unfittable items removed
    core_solution: Optional[Solution] = None


def internal_eps(eps_public: Fraction) -> Fraction:
    """Rescale a public accuracy so the (1-7*eps) end bound meets it."""
    return accuracy_budget(eps_public, 7)


def solve_detailed(instance: Instance, eps_public: Fraction) -> GeneralResult:
    """Run every offset xi, solve each distinct plan once, keep the first of
    most profit on ``core``, whose integer units scale every profit by one
    positive constant, ties included; skip plans with no cluster, which earn
    0 after xi = 0's (it keeps period 1).  Only the winner is scored."""
    validate(instance)
    eps = internal_eps(eps_public)
    empty = GeneralResult(solution=Solution.empty(instance.n), profit=Fraction(0), eps_int=eps)
    try:
        pre, remap = preprocess(instance)
    except AllLambdasZero:
        return empty

    # Items heavier than the final capacity can never be introduced; dropping
    # them keeps delta = eps/M * lambda_T * p_max below eps/M times the optimum.
    fit_ids = tuple(i for i, (_, w) in enumerate(pre.items) if w <= pre.capacities[-1])
    if not fit_ids:
        return empty
    core, _, _ = integer_units(Instance(tuple(pre.items[i] for i in fit_ids), pre.capacities, pre.lambdas))
    classes: Optional[ProfitClasses] = None  # built after the first grid budget test, which may refuse
    rows: Optional[tuple[int, dict, dict]] = None  # built for the first plan of two or more clusters
    # by cluster count, the grid's only plan-dependent argument; None for one cluster, which reads none
    grids: dict[int, Optional[ProfitGrid]] = {}
    profits = [p for p, _ in core.items]
    p_max = max(profits)
    psi_cap = core.suffix_lambdas[0] * sum(profits)

    best = None  # (core profit, xi, plan, grid, phi_target, core_solution) of the first plan of most profit
    seen_plans: set[tuple[tuple[int, ...], ...]] = set()
    for xi in range(eps.denominator):
        plan = build_plan(core, eps, xi)
        if plan.num_clusters == 0 or plan.clusters in seen_plans:
            continue
        seen_plans.add(plan.clusters)
        count = plan.num_clusters
        if count not in grids:
            bounds = (eps, count, core.lambdas[-1], p_max, psi_cap)
            if count > 1:
                grids[count] = build_grid(*bounds)
            else:  # one cluster reads no grid, but its budget holds all the same, and bounds this loop:
                # psi_cap/delta >= 1/eps = q, so passing it, (1+1/q)**(B-2) >= q, needs q*ln(q) < B-2,
                # q below about 3,960 at B = 2**15 (more clusters need more); xi = 0 keeps period 1,
                # so the first offset tests it, and range(eps.denominator) runs at most that many
                grid_budget(*bounds)
                grids[count] = None
        if classes is None:
            classes = build_classes(core, eps)
        if count > 1 and rows is None:
            rows = class_rows(core, classes)
        grid = grids[count]
        core_solution, phi_target = glue(plan, cluster_dp(core, classes, plan, grid, eps, rows if count > 1 else None))
        profit = objective(core, core_solution)
        if best is None or profit > best[0]:
            best = profit, xi, plan, grid, phi_target, core_solution
    _, xi, plan, grid, phi_target, core_solution = best  # xi = 0's plan keeps period 1, so one plan ran
    intro_pre = dict(zip(fit_ids, core_solution.intro))
    pre_solution = Solution(tuple(map(intro_pre.get, range(pre.n))))
    return GeneralResult(
        solution=remap_solution(pre_solution, remap),
        profit=objective(pre, pre_solution),
        eps_int=eps,
        xi=xi,
        plan=plan,
        grid=grid,
        phi_target=phi_target,
        classes=classes,
        core_instance=core,
        core_solution=core_solution,
    )


def solve(instance: Instance, eps_public: Fraction) -> Solution:
    """Approximate the optimum within factor (1 - eps_public)."""
    return solve_detailed(instance, eps_public).solution
