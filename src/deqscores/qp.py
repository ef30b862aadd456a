"""Strictly convex QP solver for box and pairwise-gap constraints.

Solves

    minimize    0.5 * y' Q y + c' y
    subject to  lo_i <= y_i <= hi_i          (boxes)
                y_i - y_j >= gap             (pair constraints)

with a first-order operator-splitting iteration (over-relaxed ADMM) plus an
active-set polish step that solves the KKT equality system on the detected
active constraints, bringing the iterate to near machine precision.
Feasibility is pre-checked by longest-path propagation of the pairwise gaps
through the constraint graph, each round over the rows out of bounds that
rose, raising ``InfeasibleProblem`` on an empty set (gaps that overflow a
box, or a positive-gap cycle), so infeasible inputs fail fast instead of
iterating. The solver returns the minimizer, never the objective's value.

The ADMM x-update solves (Q + sigma I + rho A'A) x = b. It is never
formed or factored: each iteration runs a Jacobi-preconditioned conjugate
gradient, warm-started from the previous iteration's solution, that applies
it as Qv + sigma v + rho A'(Av). The box rows make the matrix at least
rho*I, and for the score-merging QP it is well conditioned, so a few CG
steps suffice; a sparse LU of it would fill in heavily, because consensus
and ranking couplings make its graph an expander.

One polish (``_polish``) solves the KKT system on an active set, and it
factors nothing. A, A' and the forest read the stacked rows as one graph:
a pair row joins its two variables, a box row its variable to a ground
node. On a spanning forest of the active rows, x = offset + Z t: the bounds
carried along the tree edges, and one value of t per component the ground
does not fix; t solves the reduced system H t = -Z'(Q offset + c), H =
Z'QZ, by conjugate gradient (the null-space method: Nocedal and Wright,
Numerical Optimization, 2006, section 16.2). H is never formed: each
product scatters t onto the variables, multiplies by Q and sums back per
component. The preconditioner is D^-1 = (Z'Z)^-1, one over each
component's size: for the score-merging QP, 2 lambda D <= scale H <=
(2 + 2 lambda) D, so the preconditioned H has condition number at most
1 + 1/lambda, and on the weight grid (lambda >= 1) a few steps reach 1e-15
(Saad, Iterative Methods for Sparse Linear Systems, 2003, section 6.11).
The multipliers are the gradient's sums over the forest's subtrees, taken
a level at a time from the deepest; rows that close a cycle take the
minimum-norm combination of their fundamental cycles, s = (I + B'B)^-1
B'w with B the cycles held as their nonzeros, again by conjugate gradient.
So one solver, ``_pcg``, serves all three linear systems: the x-update,
the reduced system and the cycle step. The polish declines a set it cannot
take: closing rows whose bounds disagree, a pair row held at its upper
bound (+inf), or a conjugate gradient that does not converge. No
correction follows a declined set, and the solve goes on iterating.

One rule accepts a polished point (``_corrected_polish``). The solver
polishes on a proposed active set; when that point fails, the failed
polish's own primal and dual values propose a corrected set (a primal-dual
active-set step, Hintermueller, Ito and Kunisch, SIAM J. Optim. 13(3),
2002), at most ``PDAS_CORRECTIONS`` times and never twice on one set. A
point is accepted only when it passes the certificate: multiplier signs,
primal residual within ``FEASTOL`` and scaled stationarity within
``OPTIMALITY_TOLERANCE``. One loop proposes every set: the caller's
``active`` at iteration 0, before the x-update system is built, and the
ADMM iterate's multipliers at iteration ``FIRST_CHECK`` (5) and then every
25 iterations: the active set is identified before the iterates converge
(Burke and More, SIAM J. Numer. Anal. 25(5), 1988). The ADMM always
iterates from the same point, so a proposal changes a solve's cost, never
its answer. The unpolished iterate is the last resort: at a check every 25
iterations where no polished point passes, it is returned when it meets the
same tolerances.

Along a path of related problems (one dataset solved at increasing fit
weights) neighbouring minimizers almost always hold the same constraints at
their bounds, so a ``Solution`` records the active set it was polished on,
and passing it as the next solve's ``active`` proposes that set first (the
parametric active-set warm start of qpOASES). A path's first problem is
given the empty set. A solve given no set runs ADMM from the cold start: on
large problems with total rankings, corrections from the empty set can
cycle and cost more than the iteration they would save.

The constraints live in a ``Constraints`` object that problems may share:
everything the solver derives from the constraints alone (the tightened
lower bounds and the stacked rows) is computed on first use and reused by
every problem built on the same object. It also keeps the forest of its
last polish, which depends on the active set alone, so a polish on the same
active set (the next weight of a path) reuses it whatever its Q (OSQP-style
reuse of what does not change, Stellato et al., Math. Prog. Comp. 2020).

What a warm step of a path builds. No matrix is formed: Q is an operator
its problem supplies, the rows' edge list and the forest's levels and
cycles are index arrays, and nothing shared is written after it is built,
so threads may share a ``Constraints``. A step that its first polish
certifies builds no forest: it finds it in the memo by its rows at each
bound, then takes one product with Q for the reduced right-hand side, one
per conjugate-gradient step and one for the multipliers, which the
certificate reuses with one product with A and one with A'.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np


def __getattr__(name):
    # kept only for the bench tracer's ``spla.splu`` binding, and goes with it
    # (ROADMAP item 1): nothing here factors, and scipy is imported only when
    # that binding is asked for
    if name == "spla":
        import scipy.sparse.linalg

        return scipy.sparse.linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SolverError(Exception):
    pass


class InfeasibleProblem(SolverError):
    """The constraint set is empty; ``chain`` is the variable chain proving it."""

    def __init__(self, message: str, chain: list[int] | None = None):
        super().__init__(message)
        self.chain = chain or []


class MaxIterationsExceeded(SolverError):
    def __init__(self, iterations: int, residuals: tuple[float, float]):
        super().__init__(
            f"no solution at requested tolerances after {iterations} iterations "
            f"(primal {residuals[0]:.2e}, stationarity {residuals[1]:.2e})"
        )
        self.iterations = iterations
        self.residuals = residuals


class StackedRows(NamedTuple):
    """Boxes (identity rows) stacked over pair rows as l <= A y <= u, held
    as one edge list: row e is y[head] - y[tail] on the variables and a
    ground node n of value 0, which every box row has as its tail. A'w adds
    each pair row's w at its head and takes it from its tail."""

    n: int
    head: np.ndarray
    tail: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def times(self, y: np.ndarray) -> np.ndarray:
        """A y."""
        return np.concatenate([y, y[self.head[self.n :]] - y[self.tail[self.n :]]])

    def transpose_times(self, w: np.ndarray) -> np.ndarray:
        """A'w."""
        n = self.n
        at_head = np.bincount(self.head[n:], w[n:], n)
        return w[:n] + at_head - np.bincount(self.tail[n:], w[n:], n)


# the record of one pair constraint y_i - y_j >= gap; unpacks as (i, j, gap)
PAIR_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("gap", np.float64)])


def pair_rows(i, j, gap) -> np.ndarray:
    """The pair constraints y_i - y_j >= gap as ``PAIR_ROW`` records, from
    index arrays of one length and a gap per row or one for all."""
    rows = np.empty(len(i), PAIR_ROW)
    rows["i"], rows["j"], rows["gap"] = i, j, gap
    return rows


@dataclass(frozen=True, eq=False)
class Constraints:
    """Boxes and pair constraints of a QP, independent of its objective.

    ``pair_constraints`` is a length-m array of ``PAIR_ROW`` records. The
    tightened lower bounds (``check_feasibility``, which raises
    ``InfeasibleProblem`` when the set is empty) and the stacked rows are
    computed on first use and cached, so problems sharing one
    ``Constraints`` (a dataset solved along a fit-weight grid) pay for them
    once. The forest of the last polish is kept too; each forest is
    immutable and replacing it is one assignment, so threads sharing the
    object at worst build a forest again.
    """

    box_lower: np.ndarray
    box_upper: np.ndarray
    pair_constraints: np.ndarray

    @property
    def n(self) -> int:
        return self.box_lower.shape[0]

    @cached_property
    def tightened_lower(self) -> np.ndarray:
        return check_feasibility(self)

    @cached_property
    def rows(self) -> StackedRows:
        """The boxes over the pair rows, as ``StackedRows``: box row v is
        the edge (v, n), pair row (i, j, gap) the edge (i, j)."""
        n = self.n
        pairs = self.pair_constraints
        head = np.concatenate([np.arange(n), pairs["i"]])
        tail = np.concatenate([np.full(n, n), pairs["j"]])
        lower = np.concatenate([self.box_lower, pairs["gap"]])
        upper = np.concatenate([self.box_upper, np.full(pairs.shape[0], np.inf)])
        return StackedRows(n, head, tail, lower, upper)

    @cached_property
    def last_forest(self) -> dict:
        """One slot, ``"forest"``, for the forest of the last polish
        on these constraints (see ``qp._memoized_forest``)."""
        return {}


@dataclass(frozen=True, eq=False)
class QPProblem:
    """Data of one QP instance, the objective 0.5*y'Qy + c'y (whoever
    assembles Q keeps the factor-of-2 bookkeeping; a constant term does not
    move the minimizer and is left out). ``quadratic`` is Q as an operator:
    ``Q @ y``, ``Q.diagonal()`` and ``Q.scaled(f)`` (the operator f*Q) are
    all the solver uses of it."""

    quadratic: object
    linear: np.ndarray
    constraints: Constraints

    @property
    def n(self) -> int:
        return self.constraints.n

    @property
    def pair_constraints(self) -> np.ndarray:
        return self.constraints.pair_constraints


# ``solve`` accepts a point when its scaled stationarity residual
# ||Qy + c + A'w||_inf / max(1, ||Qy||_inf, ||c||_inf, ||A'w||_inf) is within
# OPTIMALITY_TOLERANCE, w being the constraint multipliers; the scaling keeps
# the criterion meaningful when the fit weight (and hence Q) spans several
# orders of magnitude.
OPTIMALITY_TOLERANCE = 1e-8
FEASTOL = 1e-6  # the largest primal residual ``solve`` accepts
MAX_ITERATIONS = 50_000


@dataclass(frozen=True, eq=False)
class Solution:
    """A minimizer within the solver's tolerances: a certified polished
    point, or as the last resort an unpolished ADMM iterate. ``active``
    marks, per stacked constraint row (the boxes, then the pair rows),
    whether the point was polished holding it at its lower bound (-1), its
    upper bound (+1) or neither (0), for an iterate the rows its multipliers
    hold; None when unknown. It is what ``solve`` takes as ``active``."""

    values: np.ndarray
    iterations: int
    residuals: tuple[float, float]  # (primal infeasibility, scaled stationarity)
    cg_iterations: int  # conjugate-gradient steps over all ADMM x-updates
    active: np.ndarray | None = None


def _slices(first: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index in ``nodes``, position) of each entry of the groups of
    ``nodes`` in an array grouped by node, group v at first[v]:first[v + 1]."""
    count = first[nodes + 1] - first[nodes]
    source = np.repeat(np.arange(nodes.size), count)
    return source, np.arange(source.size) + (first[nodes] + count - np.cumsum(count))[source]


def check_feasibility(constraints: Constraints) -> np.ndarray:
    """The lower bounds tightened along the pair rows; raises
    ``InfeasibleProblem`` when the constraint set is empty.

    Lower bounds travel upward along each constraint y_i >= y_j + gap
    (longest-path relaxation) until a round changes nothing: on acyclic
    rows, after as many rounds as the longest chain has rows. After the
    first, a round takes only the rows whose tail's bound rose in the round
    before (by a by-tail layout); the others offer what they offered then.
    The set is nonempty iff every tightened lower bound stays below its box
    upper bound; the bounds are then a point of it. Bounds still rising
    after n + 1 rounds mean a positive-gap cycle: ``InfeasibleProblem``
    with no chain. An overflowing box raises with the chain walked back
    from the first such variable, each step along the first row, in row
    order, that holds its variable's bound (lo_j + gap == lo_i): its gaps,
    added up from its last variable's box, overflow its first variable's
    box.
    """
    pairs = constraints.pair_constraints
    i, j, gap = pairs["i"], pairs["j"], pairs["gap"]
    lo = constraints.box_lower.copy()
    n = constraints.n
    by_tail = np.argsort(j, kind="stable")
    first = np.concatenate([[0], np.cumsum(np.bincount(j, minlength=n))])
    row = slice(None)  # the first round takes every row
    for _ in range(n + 1):
        candidate, raised = lo[j[row]] + gap[row], i[row]
        up = candidate > lo[raised]
        if not np.any(up):
            break
        np.maximum.at(lo, raised[up], candidate[up])
        rose = np.zeros(n, dtype=bool)
        rose[raised[up]] = True
        row = by_tail[_slices(first, np.flatnonzero(rose))[1]]
    else:
        raise InfeasibleProblem("pair constraints form a positive-gap cycle")

    bad = np.flatnonzero(lo > constraints.box_upper + 1e-12)
    if not bad.size:
        return lo
    tight = np.flatnonzero(lo[j] + gap == lo[i])
    held, first = np.unique(i[tight], return_index=True)  # first tight row per variable
    step = dict(zip(held.tolist(), j[tight[first]].tolist()))
    chain = [int(bad[0])]
    while len(chain) <= n and chain[-1] in step:
        chain.append(step[chain[-1]])
    raise InfeasibleProblem(f"pair-constraint gaps overflow the boxes along chain {chain}", chain)


class _Forest(NamedTuple):
    """What the polish takes from an active set alone (see ``_forest``).
    ``tree`` and ``closing`` are the active rows on the spanning forest, a
    level at a time, and those closing a cycle. ``offset`` is x with every
    free component at 0, and ``slot`` holds each variable's free component,
    or their number k where the ground fixes it: x = offset + Z t scatters t
    through it, and Z' sums back by it. ``inverse_size`` is D^-1 =
    (Z'Z)^-1, the reduced system's preconditioner. ``start`` is the
    conjugate gradient's start. ``levels`` holds, for each level below the
    roots, its nodes, each one's parent as an index into the level above,
    and each one's sign in its tree row. ``cycles`` is B, the closing rows'
    cycles on the tree rows, as its nonzeros: their positions in ``tree``
    and in ``closing`` and their signs; None without closing rows."""

    tree: np.ndarray
    closing: np.ndarray
    offset: np.ndarray
    slot: np.ndarray
    inverse_size: np.ndarray
    start: np.ndarray
    levels: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    cycles: tuple[np.ndarray, np.ndarray, np.ndarray] | None

    def tree_multipliers(self, gradient: np.ndarray) -> np.ndarray:
        """The tree rows' multipliers as if no row closed a cycle: each
        row's sign at its child times the gradient summed over the child's
        subtree, the sums taken from the deepest level up, one ``bincount``
        onto the parents per level."""
        if not self.levels:
            return np.zeros(0)
        sums, parts = gradient[self.levels[-1][0]], []
        for (_, up, sign), (above, _, _) in zip(self.levels[:0:-1], self.levels[-2::-1]):
            parts.append(sign * sums)
            sums = gradient[above] + np.bincount(up, sums, above.size)
        parts.append(self.levels[0][2] * sums)
        return np.concatenate(parts[::-1])


def _forest(constraints: Constraints, lower: np.ndarray, upper: np.ndarray) -> _Forest | None:
    """The spanning forest of the rows ``lower`` and ``upper`` hold at a
    bound; None when the polish cannot take the set: a pair row held at its
    upper bound (+inf) or any infinite bound, or closing rows whose bounds
    disagree with the forest's.

    The active rows are the stacked rows' edges, row e holding x[head] -
    x[tail] = bound (see ``StackedRows``). Min-label propagation with pointer
    jumping finds the components (Shiloach and Vishkin, J. Algorithms 3,
    1982); the ground roots its own, the head of its first row each other
    one. One breadth-first search from all roots at once then takes a level
    per round (Buluc and Madduri, SC 2011): a node reached first takes the
    first frontier row that reaches it as its tree row, and the bound
    carried from its parent; the rows left over close a cycle. So x =
    offset + Z t with one value of t per free component (Z their 0/1
    membership) and the ground's component fixed. Stationarity on the
    active rows then gives each tree row's multiplier as the gradient
    summed over the subtree below it, less what the closing rows'
    multipliers send through it; the cycle-space step picks the
    minimum-norm multipliers."""
    n, rows = constraints.n, constraints.rows
    active = np.concatenate([lower, upper])
    bound = np.concatenate([rows.lower[lower], rows.upper[upper]])
    if np.any(upper >= n) or not np.all(np.isfinite(bound)):
        return None
    head, tail = rows.head[active], rows.tail[active]

    # each round hooks the two roots of every row onto the smaller, then
    # jumps every node's pointer to its root
    label = np.arange(n + 1)
    while not np.array_equal(at_head := label[head], at_tail := label[tail]):
        smaller = np.minimum(at_head, at_tail)
        np.minimum.at(label, at_head, smaller)
        np.minimum.at(label, at_tail, smaller)
        while not np.array_equal(jumped := label[label], label):
            label = jumped
    # the ground roots its component, the head of its first row each other
    # one: a ranking's better end, from which fewer tight free rows round
    # infeasible (and reach the PDAS corrections) than from its least node
    lead, first_row = np.unique(label[head], return_index=True)
    head_of = np.arange(n + 1)
    head_of[lead] = head[first_row]
    root = np.where(label == label[n], n, head_of[label])

    # the rows at each node, by one sort of their ends (CSR layout)
    ends = np.concatenate([head, tail])
    by_end = np.argsort(ends, kind="stable")
    edge, other = by_end % active.size, np.concatenate([tail, head])[by_end]
    first = np.concatenate([[0], np.cumsum(np.bincount(ends, minlength=n + 1))])

    offset = np.zeros(n + 1)  # each node's value at t = 0
    levels, tree = [], []
    reached = np.zeros(n + 1, dtype=bool)
    reached[root[head]] = True
    frontier = np.flatnonzero(reached)
    while True:
        source, at = _slices(first, frontier)
        new = ~reached[other[at]]
        nodes, pick = np.unique(other[at][new], return_index=True)
        if not nodes.size:
            break
        e, up = edge[at][new][pick], source[new][pick]
        sign = np.where(head[e] == nodes, 1.0, -1.0)
        offset[nodes] = offset[frontier[up]] + sign * bound[e]
        reached[nodes] = True
        levels.append((nodes, up, sign))
        tree.append(e)
        frontier = nodes
    tree = np.concatenate([np.zeros(0, np.int64), *tree])

    on_tree = np.zeros(active.size, dtype=bool)
    on_tree[tree] = True
    closing = np.flatnonzero(~on_tree)
    h, t = head[closing], tail[closing]
    misfit = offset[h] - offset[t] - bound[closing]
    if np.any(np.abs(misfit) > 1e-12 * (1.0 + np.abs(bound[closing]) + np.abs(offset[h]))):
        return None

    x0 = offset[:n]
    # every component but the ground's is free; they are numbered in their
    # roots' order, and the ground's variables take slot k
    free = np.flatnonzero(root[:n] == np.arange(n))
    k = free.size
    number = np.full(n + 1, k)
    number[free] = np.arange(k)
    slot = number[root[:n]]
    size = np.bincount(slot, minlength=k + 1)[:k]

    box_mid = 0.5 * (constraints.box_lower + constraints.box_upper)
    box_mid[~np.isfinite(box_mid)] = 0.0
    start = np.bincount(slot, box_mid - x0, k + 1)[:k] / size

    cycles = None
    if closing.size:
        # column c of B is the tree rows on the path up from the closing
        # row's head less those on the path up from its tail, each with its
        # sign at its child; the rows both paths share cancel
        m = closing.size
        child = np.concatenate([nodes for nodes, _, _ in levels])
        position = np.full(n + 1, -1)
        position[child] = np.arange(child.size)
        parent = np.full(n + 1, n)
        parent[child] = head[tree] + tail[tree] - child
        paths, at, end = [], np.concatenate([h, t]), np.arange(2 * m)
        while at.size:  # the tree rows up from the 2m ends, a level at a time
            keep = position[at] >= 0
            at, end = at[keep], end[keep]
            paths.append((position[at], end))
            at = parent[at]
        on_path, end = (np.concatenate(part) for part in zip(*paths))
        at_child = np.where(head[tree] == child, 1.0, -1.0)[on_path]
        entry, at_entry = np.unique(on_path * m + end % m, return_inverse=True)
        sign = np.bincount(at_entry, np.where(end < m, at_child, -at_child), entry.size)
        entry, sign = entry[sign != 0.0], sign[sign != 0.0]
        cycles = (entry // m, entry % m, sign)
    return _Forest(
        active[tree], active[closing], x0, slot, 1.0 / size, start, tuple(levels), cycles
    )


class _ForestMemo(NamedTuple):
    """The forest of the last polish on a ``Constraints`` (None when it
    declined the set) with the rows at each bound it was built for."""

    lower: np.ndarray
    upper: np.ndarray
    forest: _Forest | None


def _memoized_forest(constraints: Constraints, lower, upper) -> _Forest | None:
    """The forest of the last polish on ``constraints`` when it had the
    same rows at each bound, else a new one, which replaces it in one
    assignment."""
    last = constraints.last_forest.get("forest")
    if not (
        last is not None
        and np.array_equal(last.lower, lower)
        and np.array_equal(last.upper, upper)
    ):
        last = _ForestMemo(lower, upper, _forest(constraints, lower, upper))
        constraints.last_forest["forest"] = last
    return last.forest


# the polish's conjugate gradient runs to this relative residual
_FOREST_CG_TOLERANCE = 1e-15


def _polish(Q, c, constraints: Constraints, signs: np.ndarray):
    """Solve the KKT equality system on the active set ``signs`` marks (rows
    at -1 held at their lower bound, at +1 at their upper bound; it may be
    empty: the system is then Q x = -c alone), on the spanning forest of
    its rows. Returns (x, w_full, Qx), or None when the forest cannot take
    the set (see ``_forest``) or a conjugate gradient, the reduced system's
    or the cycle space's, does not converge. Verification against the full
    problem is the caller's job; Qx, formed for the multipliers, is
    returned for it.

    x = offset + Z t, where t solves H t = -Z'(Q offset + c), H = Z'QZ, by
    ``_pcg``. H is never formed: H t scatters t onto the variables, takes
    one product with Q and sums it back per component. Q = (C + 2 lam I) /
    scale with 0 <= C <= 2I for the score-merging QP, so 2 lam D <= scale H
    <= (2 + 2 lam) D with D = Z'Z, the component sizes, and the
    D-preconditioned H has condition number at most 1 + 1/lam. The
    multipliers sum the gradient -(Qx + c) over each tree row's subtree, a
    level at a time. Rows closing a cycle take s, the solution of (I + B'B)
    s = B'w_tree by ``_pcg`` preconditioned by its diagonal, 1 plus each
    cycle's length, and the tree rows w_tree - B s: stationary for any s,
    so the tolerance decides only how near the split is to minimum-norm."""
    lower = np.nonzero(signs < 0)[0]
    upper = np.nonzero(signs > 0)[0]
    forest = _memoized_forest(constraints, lower, upper)
    if forest is None:
        return None
    slot, k = forest.slot, forest.start.size
    scattered = np.zeros(k + 1)  # t, then the ground's 0: Z t is scattered[slot]

    def reduced(t):  # Z'(Q(Z t))
        scattered[:k] = t
        return np.bincount(slot, Q @ scattered[slot], k + 1)[:k]

    b = -np.bincount(slot, Q @ forest.offset + c, k + 1)[:k]
    t, steps = _pcg(reduced, forest.inverse_size, b, forest.start, _FOREST_CG_TOLERANCE)
    if steps == _CG_MAX_STEPS:
        return None
    scattered[:k] = t
    x = forest.offset + scattered[slot]
    Qx = Q @ x
    w_tree = forest.tree_multipliers(-(Qx + c))
    w_full = np.zeros(constraints.rows.lower.shape[0])
    if forest.cycles is not None:
        row, column, sign = forest.cycles
        m = forest.closing.size

        def B(s):
            return np.bincount(row, sign * s[column], w_tree.size)

        def Bt(v):
            return np.bincount(column, sign * v[row], m)

        inverse_diagonal = 1.0 / (1.0 + np.bincount(column, minlength=m))
        s, steps = _pcg(lambda s: s + Bt(B(s)), inverse_diagonal, Bt(w_tree), np.zeros(m))
        if steps == _CG_MAX_STEPS:
            return None
        w_tree -= B(s)
        w_full[forest.closing] = s
    w_full[forest.tree] = w_tree
    return x, w_full, Qx


def _x_update_system(Q, sigma: float, rho: float, rows: StackedRows):
    """The ADMM x-update matrix K = Q + sigma I + rho A'A as an operator,
    Kv = Qv + sigma v + rho A'(Av), never formed, with the inverse of its
    diagonal (the Jacobi preconditioner), A'A's being 1 + pair-row ends."""

    def K(v):
        return Q @ v + sigma * v + rho * rows.transpose_times(rows.times(v))

    n = rows.n
    pair_ends = np.bincount(rows.head[n:], minlength=n) + np.bincount(rows.tail[n:], minlength=n)
    return K, 1.0 / (Q.diagonal() + sigma + rho * (1.0 + pair_ends))


_CG_TOLERANCE = 1e-10
_CG_MAX_STEPS = 1000


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a'b of two 1-D float vectors, summed by numpy's own loop. A 1-D ``@``
    goes to BLAS ``ddot``, which splits long vectors over its worker threads
    and so rounds differently with their number; this sum's bits depend on
    the inputs alone."""
    return float(np.einsum("i,i->", a, b))


def _pcg(K, inv_diag, b, x0, tolerance=_CG_TOLERANCE):
    """Conjugate gradient for K x = b from ``x0``, with K applied by the
    operator ``K`` and preconditioned by the diagonal ``inv_diag``: the
    package's one linear solver, for the x-update, the polish's reduced
    system and its cycle-space step.

    Stops once ||b - K x||_inf <= tolerance * max(1, ||b||_inf), or after a
    fixed number of steps. Returns (x, steps taken).
    """
    tol = tolerance * max(1.0, float(np.abs(b).max(initial=0.0)))
    x = x0.copy()
    r = b - K(x)
    if np.abs(r).max(initial=0.0) <= tol:
        return x, 0
    d = inv_diag * r
    p = d
    rd = _dot(r, d)
    for step in range(1, _CG_MAX_STEPS + 1):
        Kp = K(p)
        a = rd / _dot(p, Kp)
        x += a * p
        r -= a * Kp
        if np.abs(r).max() <= tol:
            return x, step
        d = inv_diag * r
        rd, rd_old = _dot(r, d), rd
        p = d + (rd / rd_old) * p
    return x, _CG_MAX_STEPS


def _residuals(Qx, Ax, c, rows: StackedRows, w, z=None):
    """(primal infeasibility, scaled stationarity) of (x, w), from Qx and Ax.

    When ``z`` (the projected constraint copy) is given, the primal residual
    also counts the splitting gap ||Ax - z||; w is complementary to z by
    construction, so small residuals then certify optimality. Without ``z``
    (polished candidates, where w is nonzero only on rows pinned to their
    bound) the true constraint violation alone is the right measure.
    """
    primal = float(np.maximum(rows.lower - Ax, Ax - rows.upper).max(initial=0.0))
    if z is not None:
        primal = max(primal, float(np.abs(Ax - z).max()))
    Atw = rows.transpose_times(w)
    stat_num = float(np.abs(Qx + c + Atw).max())
    stat_den = max(1.0, *(float(np.abs(v).max()) for v in (Qx, c, Atw)))
    return primal, stat_num / stat_den


def _held(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """The rows held at their upper bound (+1) where ``upper`` exceeds
    1e-12, at their lower bound (-1) where ``lower`` is below -1e-12, else
    free (0): the one rule; multipliers w hold the rows ``_held(w, w)``."""
    return (upper > 1e-12).astype(np.int8) - (lower < -1e-12).astype(np.int8)


# An active set whose polish fails the certificate gets at most this many
# primal-dual active-set corrections before the solve iterates.
PDAS_CORRECTIONS = 3

# The iteration's first check, before the checks every 25 iterations. At
# the weights selected in 20-trial P=60 synthetic cells (seeds 0-4, sigma
# 0.1, 0.5 and 1.0: 300 final solves) the iterate's set certified here in
# every solve, with the bits of a first check at 25; a first check at 3 sent
# 34 of them on to 25. It only polishes: the last resort waits for 25.
FIRST_CHECK = 5


def _corrected_polish(Q, c, constraints: Constraints, active: np.ndarray):
    """Polish on ``active``, then on up to ``PDAS_CORRECTIONS`` primal-dual
    active-set corrections of it; return (x, residuals, active set) of the
    first certified point, else None, also when ``_polish`` declines a set.
    This is the one place a polished point is accepted.

    The certificate: every polished multiplier has the sign of the bound it
    holds, the primal residual is within ``FEASTOL`` and the scaled
    stationarity within ``OPTIMALITY_TOLERANCE``. Each correction is the
    semismooth Newton step of Hintermueller, Ito and Kunisch (SIAM J. Optim.
    13(3), 2002) from the failed polish's own (x, w): a row is held at its
    lower bound iff w + (Ax - l) < 0 and at its upper bound iff
    w + (Ax - u) > 0, beyond rounding by ``_held``. The corrections
    stop early when an active set repeats.
    """
    rows = constraints.rows
    tried: list[np.ndarray] = []
    for _ in range(1 + PDAS_CORRECTIONS):
        polished = _polish(Q, c, constraints, active)
        if polished is None:
            return None
        x, w, Qx = polished
        good_signs = np.all(w[active < 0] <= 1e-9) and np.all(w[active > 0] >= -1e-9)
        Ax = rows.times(x)
        primal, stat = residuals = _residuals(Qx, Ax, c, rows, w)
        if good_signs and primal <= FEASTOL and stat <= OPTIMALITY_TOLERANCE:
            return x, residuals, active
        tried.append(active)
        active = _held(w + (Ax - rows.upper), w + (Ax - rows.lower))
        if any(np.array_equal(active, seen) for seen in tried):
            return None
    return None


def solve(problem: QPProblem, active: np.ndarray | None = None) -> Solution:
    """Return the unique minimizer of a strictly convex instance.

    The result's primal infeasibility is at most ``FEASTOL`` and its scaled
    stationarity at most ``OPTIMALITY_TOLERANCE``.

    ``active`` is a proposed active set, marked per stacked row as in
    ``Solution.active`` (of another length: ``ValueError``), typically the
    set of a previous solution of a problem with the same constraints. The
    result is the same minimizer with or without it; a good proposal only
    saves work. One loop proposes every set to the one acceptance rule (see
    the module docstring): ``active`` at iteration 0, when given, and the
    set the iterate's multipliers mark at iteration ``FIRST_CHECK`` and
    every 25 iterations. A certified point is returned with the set it was
    polished on as ``active``, and with ``iterations`` 0 when ``active`` was
    certified. Every set is polished on the spanning forest of its rows,
    without a factorization. The iteration always starts from the same
    point, so a failed proposal costs only its polishes. At a check every 25
    iterations where no polished point passes, the unpolished iterate is the
    last resort, returned when it meets the tolerances. The result minimizes
    the problem's 0.5*y'Qy + c'y; its value is not computed.
    ``InfeasibleProblem`` from ``check_feasibility`` passes through when the
    constraint set is empty (gaps that overflow a box, or a positive-gap
    cycle); raises ``MaxIterationsExceeded`` when the tolerances are not met
    within ``MAX_ITERATIONS`` iterations.
    """
    start = problem.constraints.tightened_lower  # raises on an empty set

    rows = problem.constraints.rows
    l, u = rows.lower, rows.upper
    if active is not None and active.shape != l.shape:
        raise ValueError(
            f"the proposed active set covers {active.shape[0]} rows, the problem has {l.shape[0]}"
        )

    # normalize the objective so rho has a consistent meaning across fit weights
    scale = max(1.0, float(problem.quadratic.diagonal().max()) / 2.0)
    Q = problem.quadratic.scaled(1.0 / scale)
    c = problem.linear / scale

    sigma = 1e-6
    alpha = 1.6
    rho = 1.0
    K = None  # the x-update system, built when the solve first iterates

    x = start.copy()
    x_tilde = x
    z = w = None  # the projected constraint copy and multipliers, once it iterates

    check_every = 25

    it = 0
    cg_steps = 0
    while True:
        if it % check_every == 0 or it == FIRST_CHECK:  # the check schedule
            # the proposed set: the caller's at iteration 0, then the iterate's
            proposal = w if it else active
            if proposal is not None:
                certified = _corrected_polish(Q, c, problem.constraints, _held(proposal, proposal))
                if certified is not None:
                    xp, residuals, polished_on = certified
                    return Solution(xp, it, residuals, cg_steps, polished_on)
            if it and it % check_every == 0:
                # the last resort: the iterate itself, when it meets the tolerances
                primal, stat = _residuals(Q @ x, rows.times(x), c, rows, w, z)
                if primal <= FEASTOL and stat <= OPTIMALITY_TOLERANCE:
                    return Solution(x.copy(), it, (primal, stat), cg_steps, _held(w, w))
                if it % 2000 == 0:
                    # slow progress: re-balance the penalty between primal and dual work
                    ratio = (primal + 1e-16) / (stat + 1e-16)
                    if ratio > 100.0 or ratio < 0.01:
                        rho = float(np.clip(rho * np.sqrt(ratio), 1e-4, 1e4))
                        K = None
        if z is None:
            z = np.clip(rows.times(x), l, u)
            w = np.zeros_like(z)
        if it == MAX_ITERATIONS:  # a cap between checks raises without polishing
            raise MaxIterationsExceeded(it, _residuals(Q @ x, rows.times(x), c, rows, w, z))
        if K is None:
            K, inv_diag = _x_update_system(Q, sigma, rho, rows)
        it += 1
        rhs = sigma * x - c + rows.transpose_times(rho * z - w)
        x_tilde, steps = _pcg(K, inv_diag, rhs, x_tilde)
        cg_steps += steps
        z_tilde = rows.times(x_tilde)
        x = alpha * x_tilde + (1.0 - alpha) * x
        v = alpha * z_tilde + (1.0 - alpha) * z + w / rho
        z_new = np.clip(v, l, u)
        w = w + rho * (alpha * z_tilde + (1.0 - alpha) * z - z_new)
        z = z_new
