"""Strictly convex QP solver for box and pairwise-gap constraints.

Solves

    minimize    0.5 * y' Q y + c' y
    subject to  lo_i <= y_i <= hi_i          (boxes)
                y_i - y_j >= gap             (pair constraints)

with a first-order operator-splitting iteration (over-relaxed ADMM) plus an
active-set polish step that solves the KKT equality system on the detected
active constraints, bringing the iterate to near machine precision.
Feasibility is pre-checked by longest-path propagation of the pairwise gaps
through the constraint graph, all pair rows at once per round, which raises
``InfeasibleProblem`` on an empty constraint set (gaps that overflow a box,
or a positive-gap cycle), so infeasible inputs fail fast instead of
iterating. The solver returns the minimizer, never the objective's value.

The ADMM x-update solves (Q + sigma I + rho A'A) x = b. It is never
factored: each iteration runs a Jacobi-preconditioned conjugate gradient,
warm-started from the previous iteration's solution. The box rows make the
matrix at least rho*I, and for the score-merging QP it is well conditioned,
so a few CG steps suffice; a sparse LU of it would fill in heavily, because
consensus and ranking couplings make its graph an expander.

One polish (``_polish``) solves the KKT system on an active set, and it
factors nothing. The stacked rows are the incidence matrix of a graph: a
pair row joins its two variables, a box row joins its variable to a ground
node. On a spanning forest of the active rows, x = offset + Z t: the bounds
carried along the tree edges, and one value of t per component the ground
does not fix; t solves the reduced system H t = -Z'(Q offset + c), H =
Z'QZ, by Jacobi-preconditioned conjugate gradient (the null-space method:
Nocedal and Wright, Numerical Optimization, 2006, section 16.2). For the
score-merging QP the preconditioned H has condition number at most
1 + 1/lambda, so on the weight grid (lambda >= 1) a few steps reach 1e-15
(Saad, Iterative Methods for Sparse Linear Systems, 2003, section 6.11).
The multipliers come from one pass over the forest's subtrees; rows that
close a cycle take the minimum-norm combination of their fundamental
cycles. The polish declines a set it cannot take: closing rows whose bounds
disagree, a pair row held at its upper bound (+inf), more closing rows than
``_MAX_CLOSING_ROWS``, or a conjugate gradient that does not converge. No
correction follows a declined set, and the solve goes on iterating. The
scaled Q keeps the problem's pattern.

One rule accepts a polished point (``_corrected_polish``). The solver
polishes on a proposed active set; when that point fails, the failed
polish's own primal and dual values propose a corrected set (a primal-dual
active-set step, Hintermueller, Ito and Kunisch, SIAM J. Optim. 13(3),
2002), at most ``PDAS_CORRECTIONS`` times and never twice on one set. A
point is accepted only when it passes the certificate: multiplier signs,
primal residual within ``FEASTOL`` and scaled stationarity within
``OPTIMALITY_TOLERANCE``. One loop proposes every set: the caller's
``active`` at iteration 0, before the x-update system is built, and the
ADMM iterate's multipliers every 25 iterations. The ADMM always iterates
from the same point, so a proposal changes a solve's cost, never its
answer. The unpolished iterate is the last resort: at a check where no
polished point passes, it is returned when it meets the same tolerances.

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
lower bounds, the stacked constraint matrix, its transpose and A'A) is
computed on first use and reused by every problem built on the same object.
It also keeps the forest of its last polish, so a polish on the same
active set and the same pattern of Q (the next weight of a path) only sums
Q's values into H (OSQP-style reuse of what does not change, Stellato et
al., Math. Prog. Comp. 2020).

What a warm step of a path builds. The problems of one compiled dataset
share their ``Constraints`` and the very arrays of Q's pattern, and a
problem's arrays are never written after it is built. A matrix whose values
change and whose pattern does not is a shallow copy holding new values
(``with_data``: no scipy constructor, and nothing shared is written, so
threads may share a ``Constraints``). A step that its first polish certifies
therefore constructs no scipy matrix: it writes Q's values (the problem's
and the scaled Q, both copies of the dataset's pattern), finds the forest
in the memo by the identity of Q's pattern arrays and by its rows at each
bound, sums Q's values into H and the reduced right-hand side, runs the
conjugate gradient (a few sparse products), takes the multipliers (two
more), then the certificate's residuals (three). Each product goes straight to scipy's kernel
(``_matvec``). Only a new active set builds a forest.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp


def __getattr__(name):
    # ``qp.spla`` exists only for the LU binding that ``perfbench/tracer.py``
    # wraps; nothing here factors, so scipy's sparse linear algebra is
    # imported only when that binding is asked for
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
    """Boxes (identity rows) stacked over pair rows as l <= A y <= u, with
    A' (A's CSC transpose, which shares its arrays) and A'A."""

    A: sp.csr_matrix
    At: sp.csc_matrix
    AtA: sp.csc_matrix
    lower: np.ndarray
    upper: np.ndarray


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
        n = self.n
        pairs = self.pair_constraints
        m = pairs.shape[0]
        cols = np.column_stack([pairs["i"], pairs["j"]]).ravel()
        vals = np.tile([1.0, -1.0], m)
        pair_block = sp.csr_matrix((vals, (np.repeat(np.arange(m), 2), cols)), shape=(m, n))
        A = sp.vstack([sp.identity(n, format="csr"), pair_block], format="csr")
        At = A.T
        lower = np.concatenate([self.box_lower, pairs["gap"]])
        upper = np.concatenate([self.box_upper, np.full(m, np.inf)])
        return StackedRows(A, At, (At @ A).tocsc(), lower, upper)

    @cached_property
    def last_forest(self) -> dict:
        """One slot, ``"forest"``, for the forest of the last polish
        on these constraints (see ``qp._memoized_forest``)."""
        return {}


@dataclass(frozen=True, eq=False)
class QPProblem:
    """Data of one QP instance. ``quadratic`` is the Hessian of the objective,
    i.e. the objective is 0.5*y'Qy + c'y (the factor-of-2 bookkeeping lives
    with whoever assembles Q, not here; a constant term does not move the
    minimizer and is left out)."""

    quadratic: sp.csc_matrix
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


def check_feasibility(constraints: Constraints) -> np.ndarray:
    """The lower bounds tightened along the pair rows; raises
    ``InfeasibleProblem`` when the constraint set is empty.

    Lower bounds travel upward along each constraint y_i >= y_j + gap
    (longest-path relaxation), all pair rows at once per round, until a
    round changes nothing: on acyclic rows, after as many rounds as the
    longest chain has rows. The set is nonempty iff every tightened lower
    bound stays below its box upper bound; the bounds are then a point of
    it. Bounds still rising after n + 1 rounds mean a positive-gap cycle:
    ``InfeasibleProblem`` with no chain. An overflowing box raises with the
    chain walked back from the first such variable, each step along the
    first row, in row order, that holds its variable's bound (lo_j + gap ==
    lo_i): its gaps, added up from its last variable's box, overflow its
    first variable's box.
    """
    pairs = constraints.pair_constraints
    i, j, gap = pairs["i"], pairs["j"], pairs["gap"]
    lo = constraints.box_lower.copy()
    n = constraints.n
    for _ in range(n + 1):
        candidate = lo[j] + gap
        if not np.any(candidate > lo[i]):
            break
        np.maximum.at(lo, i, candidate)
    else:
        raise InfeasibleProblem("pair constraints form a positive-gap cycle")

    bad = np.flatnonzero(lo > constraints.box_upper + 1e-12)
    if not bad.size:
        return lo
    tight = np.flatnonzero(lo[j] + gap == lo[i])
    chain = [int(bad[0])]
    while len(chain) <= n:
        step = tight[i[tight] == chain[-1]]
        if not step.size:
            break
        chain.append(int(j[step[0]]))
    raise InfeasibleProblem(f"pair-constraint gaps overflow the boxes along chain {chain}", chain)


def with_data(matrix, data: np.ndarray):
    """A shallow copy of the CSC ``matrix`` holding ``data`` in place of its
    values: it shares the pattern arrays, constructs no matrix and leaves
    ``matrix`` as it was."""
    copied = copy.copy(matrix)
    copied.data = data
    return copied


class _Sparse(NamedTuple):
    """A compressed sparse matrix held as its arrays, with the attributes
    ``_matvec`` reads of a scipy matrix; building one constructs none."""

    format: str  # "csr" or "csc"
    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def _matvec(matrix, x: np.ndarray) -> np.ndarray:
    """``matrix @ x`` for a CSR or CSC matrix (scipy's or a ``_Sparse``) of
    float values and a float vector, by the kernel that scipy's ``@`` calls
    itself (``scipy.sparse._sparsetools``): the same sums bit for bit,
    without the dispatch, which at the solver's sizes costs more than the
    product."""
    y = np.zeros(matrix.shape[0])
    kernel = sp._sparsetools.csr_matvec if matrix.format == "csr" else sp._sparsetools.csc_matvec
    kernel(*matrix.shape, matrix.indptr, matrix.indices, matrix.data, x, y)
    return y


class _Forest(NamedTuple):
    """What the polish takes from an active set and Q's sparsity pattern
    alone (see ``_forest``). ``tree`` and ``closing`` are the active rows on
    the spanning forest and those closing a cycle. ``offset`` is x
    with every free component at 0, ``free`` the variables the ground does
    not fix and ``component`` their component, which indexes H. ``h`` is
    H = Z'QZ with zeros for values: Q's entries ``h_source`` sum into its
    values at ``h_dest``, and ``h_diagonal`` are its diagonal's positions.
    The reduced right-hand side sums, at ``shift_index``, Q's entries
    ``shift_source`` (in a free row, their column's offset ``shift_offset``
    nonzero) times that offset, then c on the free variables. ``start`` is
    the conjugate gradient's start, ``subtree`` maps a gradient to the tree
    rows' multipliers, and ``cycles`` (B), its transpose ``cycles_t`` and
    ``cycle_inverse`` ((I + B'B)^-1) are the cycle-space step, None without
    closing rows."""

    tree: np.ndarray
    closing: np.ndarray
    offset: np.ndarray
    free: np.ndarray
    component: np.ndarray
    h: _Sparse
    h_source: np.ndarray
    h_dest: np.ndarray
    h_diagonal: np.ndarray
    shift_source: np.ndarray
    shift_offset: np.ndarray
    shift_index: np.ndarray
    start: np.ndarray
    subtree: _Sparse
    cycles: sp.csr_matrix | None
    cycles_t: sp.csc_matrix | None
    cycle_inverse: np.ndarray | None


# the largest cycle space the polish takes; it declines a set closing more
_MAX_CLOSING_ROWS = 256


def _forest(Q, constraints: Constraints, lower: np.ndarray, upper: np.ndarray) -> _Forest | None:
    """The spanning forest of the rows ``lower`` and ``upper`` hold at a
    bound, with the reduced system it gives; None when the polish cannot
    take the set: a pair row held at its upper bound (+inf) or any
    infinite bound, closing rows whose bounds disagree with the forest's,
    more than ``_MAX_CLOSING_ROWS`` of them, or a free component without a
    diagonal entry of Q.

    The rows are graph edges: row e holds x[head] - x[tail] = bound, a pair
    row between its two variables, a box row from its variable to the
    ground, a node n whose value is 0. A union-find over the rows in order
    puts each on the forest or, when its ends are already joined, among the
    closing rows. A breadth-first pass from each tree's root (the ground
    first) carries the bounds down the tree, so x = offset + Z t with one
    value of t per free component (Z their 0/1 membership) and the ground's
    component fixed. Stationarity on the active rows then gives each tree
    row's multiplier as the gradient summed over the subtree below it, less
    what the closing rows' multipliers send through it; the cycle-space step
    picks the minimum-norm multipliers."""
    n = constraints.n
    rows = constraints.rows
    active = np.concatenate([lower, upper])
    bound = np.concatenate([rows.lower[lower], rows.upper[upper]])
    if np.any(upper >= n) or not np.all(np.isfinite(bound)):
        return None
    pairs = constraints.pair_constraints
    on_pair = active >= n
    head = active.copy()
    tail = np.full(active.size, n)
    head[on_pair] = pairs["i"][active[on_pair] - n]
    tail[on_pair] = pairs["j"][active[on_pair] - n]
    heads, tails, bounds = head.tolist(), tail.tolist(), bound.tolist()

    link: dict[int, int] = {}  # union-find parents; a node absent is a root

    def find(v):
        root = v
        while root in link:
            root = link[root]
        while v != root:
            link[v], v = root, link[v]
        return root

    neighbours: dict[int, list] = {}
    closing = []
    for e, (u, v) in enumerate(zip(heads, tails)):
        ru, rv = find(u), find(v)
        if ru == rv:
            closing.append(e)
            continue
        if ru == n:  # the ground stays a root
            ru, rv = rv, ru
        link[ru] = rv
        neighbours.setdefault(u, []).append((e, v))
        neighbours.setdefault(v, []).append((e, u))
    if len(closing) > _MAX_CLOSING_ROWS:
        return None

    offset = {}  # each node's value at t = 0
    root_of = {}
    up_row = {}  # each non-root node's tree row towards its root
    for root in ([n] if n in neighbours else []) + list(neighbours):
        if root in offset:
            continue
        offset[root], root_of[root] = 0.0, root
        queue = [root]
        for u in queue:
            for e, v in neighbours[u]:
                if v not in offset:
                    offset[v] = offset[u] + (bounds[e] if v == heads[e] else -bounds[e])
                    root_of[v], up_row[v] = root, e
                    queue.append(v)
    for e in closing:
        misfit = offset[heads[e]] - offset.get(tails[e], 0.0) - bounds[e]
        if abs(misfit) > 1e-12 * (1.0 + abs(bounds[e]) + abs(offset[heads[e]])):
            return None

    nodes = np.fromiter(offset, np.int64, len(offset))
    x0 = np.zeros(n + 1)
    x0[nodes] = np.fromiter(offset.values(), float, nodes.size)
    x0 = x0[:n]
    comp_root = np.arange(n + 1)
    comp_root[nodes] = np.fromiter(root_of.values(), np.int64, nodes.size)
    # every component but the ground's is free; they are numbered in their
    # roots' order
    free = np.flatnonzero(comp_root[:n] != n)
    roots = np.flatnonzero(comp_root[:n] == np.arange(n))
    k = roots.size
    comp_of = np.full(n + 1, -1)
    comp_of[roots] = np.arange(k)
    component = comp_of[comp_root[free]]
    comp_of[free] = component

    # H = Z'QZ: Q's entries inside free components, summed per pair of them.
    # Q is symmetric, so H's rows are taken from Q's columns, whose entries
    # come nearly in order: a stable sort of the keys is almost a pass
    cols = np.repeat(np.arange(n), np.diff(Q.indptr))
    comp_row, comp_col = comp_of[Q.indices], comp_of[cols]
    h_source = np.flatnonzero((comp_row >= 0) & (comp_col >= 0))
    keys = comp_col[h_source] * k + comp_row[h_source]
    order = np.argsort(keys, kind="stable")
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[order[1:]] != keys[order[:-1]]
    h_dest = np.empty(keys.size, dtype=np.int64)
    h_dest[order] = np.cumsum(first) - 1
    h_rows, h_cols = np.divmod(keys[order[first]], k)
    h_indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(h_rows, minlength=k), out=h_indptr[1:])
    h = _Sparse("csr", (k, k), h_indptr, h_cols, np.zeros(h_cols.size))
    h_diagonal = np.flatnonzero(h_rows == h_cols)
    if h_diagonal.size != k:
        return None
    shift_source = np.flatnonzero((comp_row >= 0) & (x0[cols] != 0.0))

    box_mid = 0.5 * (constraints.box_lower + constraints.box_upper)
    box_mid[~np.isfinite(box_mid)] = 0.0
    start = np.bincount(component, box_mid[free] - x0[free], k) / np.bincount(component, minlength=k)

    # the subtree below each tree row, by walking every node up to its root:
    # the row's sign at its child, the lower end, on each node under it
    child = np.fromiter(up_row, np.int64, len(up_row))
    up = np.fromiter(up_row.values(), np.int64, child.size)
    sign = np.where(head[up] == child, 1.0, -1.0)
    position = np.full(n + 1, -1)
    position[child] = np.arange(child.size)
    parent = np.full(n + 1, n)
    parent[child] = head[up] + tail[up] - child
    entry_rows, entry_cols = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    below, at = child, child
    while at.size:
        entry_rows.append(position[at])
        entry_cols.append(below)
        at = parent[at]
        keep = position[at] >= 0
        below, at = below[keep], at[keep]
    entry_rows = np.concatenate(entry_rows)
    by_row = np.argsort(entry_rows, kind="stable")
    subtree_indptr = np.zeros(child.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(entry_rows, minlength=child.size), out=subtree_indptr[1:])
    subtree = _Sparse(
        "csr", (child.size, n), subtree_indptr, np.concatenate(entry_cols)[by_row],
        sign[entry_rows[by_row]],
    )

    cycles = cycles_t = cycle_inverse = None
    closing = np.array(closing, dtype=np.int64)
    if closing.size:
        # column c of A_C' is the closing row's normal, +1 at its head and -1
        # at its tail (the ground's column, n, multiplies nothing)
        normals = sp.csc_matrix(
            (
                np.tile([1.0, -1.0], closing.size),
                (np.column_stack([head[closing], tail[closing]]).ravel(),
                 np.repeat(np.arange(closing.size), 2)),
            ),
            shape=(n + 1, closing.size),
        )
        subtree_matrix = sp.csr_matrix(
            (subtree.data, subtree.indices, subtree.indptr), shape=(child.size, n + 1)
        )
        cycles = (subtree_matrix @ normals).tocsr()
        cycles_t = cycles.T
        cycle_inverse = _spd_inverse((cycles_t @ cycles).toarray() + np.eye(closing.size))
    return _Forest(
        active[up], active[closing], x0, free, component, h, h_source, h_dest, h_diagonal,
        shift_source, x0[cols[shift_source]], np.concatenate([comp_row[shift_source], component]),
        start, subtree, cycles, cycles_t, cycle_inverse,
    )


def _spd_inverse(matrix: np.ndarray) -> np.ndarray:
    """The inverse of a small symmetric positive definite matrix by
    Gauss-Jordan elimination without pivoting, in numpy's own loops: no
    LAPACK, so its bits do not depend on a thread count."""
    size = matrix.shape[0]
    work = np.hstack([matrix, np.eye(size)])
    for k in range(size):
        work[k] /= work[k, k]
        column = work[:, k].copy()
        column[k] = 0.0
        work -= np.multiply.outer(column, work[k])
    return work[:, size:]


class _ForestMemo(NamedTuple):
    """The forest of the last polish on a ``Constraints`` (None when it
    declined the set) with the key it was built for: the rows at each bound
    and Q's pattern arrays, which are never written."""

    lower: np.ndarray
    upper: np.ndarray
    q_indptr: np.ndarray
    q_indices: np.ndarray
    forest: _Forest | None


def _memoized_forest(Q, constraints: Constraints, lower, upper) -> _Forest | None:
    """The forest of the last polish on ``constraints`` when it had the
    same rows at each bound and the very same pattern arrays of Q, else a
    new one, which replaces it in one assignment."""
    last = constraints.last_forest.get("forest")
    if not (
        last is not None
        and last.q_indptr is Q.indptr
        and last.q_indices is Q.indices
        and np.array_equal(last.lower, lower)
        and np.array_equal(last.upper, upper)
    ):
        last = _ForestMemo(lower, upper, Q.indptr, Q.indices, _forest(Q, constraints, lower, upper))
        constraints.last_forest["forest"] = last
    return last.forest


# the polish's conjugate gradient runs to this relative residual
_FOREST_CG_TOLERANCE = 1e-15


def _polish(Q, c, constraints: Constraints, signs: np.ndarray):
    """Solve the KKT equality system on the active set ``signs`` marks (rows
    below -1e-12 held at their lower bound, above 1e-12 at their upper
    bound; it may be empty: the system is then Q x = -c alone), on the
    spanning forest of its rows. Returns (x, w_full), or None when the
    forest cannot take the set (see ``_forest``) or its conjugate gradient
    does not converge. Verification against the full problem is the
    caller's job.

    x = offset + Z t, where t solves H t = -Z'(Q offset + c) by ``_pcg``
    (Q = (C + 2 lam I) / scale with 0 <= C <= 2I for the score-merging QP,
    so the Jacobi-preconditioned H has condition number at most
    1 + 1/lam). The multipliers sum the gradient -(Qx + c) over each tree
    row's subtree, then take the cycle-space step when rows close a cycle."""
    lower = np.nonzero(signs < -1e-12)[0]
    upper = np.nonzero(signs > 1e-12)[0]
    forest = _memoized_forest(Q, constraints, lower, upper)
    if forest is None:
        return None
    data = Q.data
    h_data = np.bincount(forest.h_dest, weights=data[forest.h_source], minlength=forest.h.data.size)
    shift = np.concatenate([data[forest.shift_source] * forest.shift_offset, c[forest.free]])
    b = -np.bincount(forest.shift_index, weights=shift, minlength=forest.start.size)
    t, steps = _pcg(
        forest.h._replace(data=h_data), 1.0 / h_data[forest.h_diagonal], b, forest.start,
        _FOREST_CG_TOLERANCE,
    )
    if steps == _CG_MAX_STEPS:
        return None
    x = forest.offset.copy()
    x[forest.free] += t[forest.component]
    w_tree = _matvec(forest.subtree, -(_matvec(Q, x) + c))
    w_full = np.zeros(constraints.rows.lower.shape[0])
    if forest.cycles is not None:
        w_cycle = np.einsum("ij,j->i", forest.cycle_inverse, _matvec(forest.cycles_t, w_tree))
        w_tree -= _matvec(forest.cycles, w_cycle)
        w_full[forest.closing] = w_cycle
    w_full[forest.tree] = w_tree
    return x, w_full


def _x_update_system(Q, sigma: float, rho: float, AtA):
    """The ADMM x-update matrix Q + sigma I + rho A'A as CSR, with the
    inverse of its diagonal (the Jacobi preconditioner)."""
    K = (Q + sigma * sp.identity(Q.shape[0], format="csc") + rho * AtA).tocsr()
    return K, 1.0 / K.diagonal()


_CG_TOLERANCE = 1e-10
_CG_MAX_STEPS = 1000


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a'b of two 1-D float vectors, summed by numpy's own loop. A 1-D ``@``
    goes to BLAS ``ddot``, which splits long vectors over its worker threads
    and so rounds differently with their number; this sum's bits depend on
    the inputs alone."""
    return float(np.einsum("i,i->", a, b))


def _pcg(K, inv_diag, b, x0, tolerance=_CG_TOLERANCE):
    """Jacobi-preconditioned conjugate gradient for K x = b from ``x0``.

    Stops once ||b - K x||_inf <= tolerance * max(1, ||b||_inf), or after a
    fixed number of steps. Returns (x, steps taken).
    """
    tol = tolerance * max(1.0, float(np.abs(b).max(initial=0.0)))
    x = x0.copy()
    r = b - _matvec(K, x)
    if np.abs(r).max(initial=0.0) <= tol:
        return x, 0
    d = inv_diag * r
    p = d
    rd = _dot(r, d)
    for step in range(1, _CG_MAX_STEPS + 1):
        Kp = _matvec(K, p)
        a = rd / _dot(p, Kp)
        x += a * p
        r -= a * Kp
        if np.abs(r).max() <= tol:
            return x, step
        d = inv_diag * r
        rd, rd_old = _dot(r, d), rd
        p = d + (rd / rd_old) * p
    return x, _CG_MAX_STEPS


def _residuals(Q, c, rows: StackedRows, x, w, z=None):
    """(primal infeasibility, scaled stationarity) of a primal-dual pair.

    When ``z`` (the projected constraint copy) is given, the primal residual
    also counts the splitting gap ||Ax - z||; w is complementary to z by
    construction, so small residuals then certify optimality. Without ``z``
    (polished candidates, where w is nonzero only on rows pinned to their
    bound) the true constraint violation alone is the right measure.
    """
    Ax = _matvec(rows.A, x)
    primal = max(
        float((rows.lower - Ax).max(initial=0.0)),
        float((Ax - rows.upper).max(initial=0.0)),
        0.0,
    )
    if z is not None:
        primal = max(primal, float(np.abs(Ax - z).max()))
    Qx = _matvec(Q, x)
    Atw = _matvec(rows.At, w)
    stat_num = float(np.abs(Qx + c + Atw).max())
    stat_den = max(
        1.0,
        float(np.abs(Qx).max()),
        float(np.abs(c).max()),
        float(np.abs(Atw).max()),
    )
    return primal, stat_num / stat_den


def _active_rows(w: np.ndarray) -> np.ndarray:
    """Rows a multiplier vector holds at a bound: -1 lower, +1 upper, 0 free."""
    return (w > 1e-12).astype(np.int8) - (w < -1e-12).astype(np.int8)


# An active set whose polish fails the certificate gets at most this many
# primal-dual active-set corrections before the solve iterates.
PDAS_CORRECTIONS = 3


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
    lower bound iff -w + (l - Ax) > 0 and at its upper bound iff
    w + (Ax - u) > 0. The corrections stop early when an active set repeats.
    """
    rows = constraints.rows
    tried: list[np.ndarray] = []
    for _ in range(1 + PDAS_CORRECTIONS):
        polished = _polish(Q, c, constraints, active)
        if polished is None:
            return None
        x, w = polished
        good_signs = np.all(w[active < 0] <= 1e-9) and np.all(w[active > 0] >= -1e-9)
        primal, stat = residuals = _residuals(Q, c, rows, x, w)
        if good_signs and primal <= FEASTOL and stat <= OPTIMALITY_TOLERANCE:
            return x, residuals, active
        tried.append(active)
        Ax = _matvec(rows.A, x)
        active = (w + (Ax - rows.upper) > 0).astype(np.int8) - (
            -w + (rows.lower - Ax) > 0
        ).astype(np.int8)
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
    set the iterate's multipliers mark every 25 iterations. A certified
    point is returned with the set it was polished on as ``active``, and
    with ``iterations`` 0 when ``active`` was certified. Every set is
    polished on the spanning forest of its rows, without a factorization.
    The iteration always starts from the same point, so a failed proposal
    costs only its polishes. At a check where no polished point passes, the
    unpolished iterate is the last resort, returned when it meets the
    tolerances. The result minimizes the problem's 0.5*y'Qy + c'y; its value
    is not computed.
    ``InfeasibleProblem`` from ``check_feasibility`` passes through when the
    constraint set is empty (gaps that overflow a box, or a positive-gap
    cycle); raises ``MaxIterationsExceeded`` when the tolerances are not met
    within ``MAX_ITERATIONS`` iterations.
    """
    start = problem.constraints.tightened_lower  # raises on an empty set

    rows = problem.constraints.rows
    A, At, AtA, l, u = rows
    if active is not None and active.shape != l.shape:
        raise ValueError(
            f"the proposed active set covers {active.shape[0]} rows, the problem has {l.shape[0]}"
        )

    # normalize the objective so rho has a consistent meaning across fit weights;
    # the scaled Q keeps the problem's pattern (data * (1/scale) is what
    # scipy's division by a scalar computes)
    quadratic = problem.quadratic.tocsc()
    scale = max(1.0, float(quadratic.diagonal().max()) / 2.0)
    Q = with_data(quadratic, quadratic.data * (1.0 / scale))
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
        if it % check_every == 0:  # the check schedule
            # the proposed set: the caller's at iteration 0, then the iterate's
            proposal = w if it else active
            if proposal is not None:
                certified = _corrected_polish(Q, c, problem.constraints, _active_rows(proposal))
                if certified is not None:
                    xp, residuals, polished_on = certified
                    return Solution(xp, it, residuals, cg_steps, polished_on)
            if it:
                # the last resort: the iterate itself, when it meets the tolerances
                primal, stat = _residuals(Q, c, rows, x, w, z)
                if primal <= FEASTOL and stat <= OPTIMALITY_TOLERANCE:
                    return Solution(x.copy(), it, (primal, stat), cg_steps, _active_rows(w))
                if it % 2000 == 0:
                    # slow progress: re-balance the penalty between primal and dual work
                    ratio = (primal + 1e-16) / (stat + 1e-16)
                    if ratio > 100.0 or ratio < 0.01:
                        rho = float(np.clip(rho * np.sqrt(ratio), 1e-4, 1e4))
                        K = None
        if z is None:
            z = np.clip(_matvec(A, x), l, u)
            w = np.zeros_like(z)
        if it == MAX_ITERATIONS:  # a cap between checks raises without polishing
            raise MaxIterationsExceeded(it, _residuals(Q, c, rows, x, w, z))
        if K is None:
            K, inv_diag = _x_update_system(Q, sigma, rho, AtA)
        it += 1
        rhs = sigma * x - c + _matvec(At, rho * z - w)
        x_tilde, steps = _pcg(K, inv_diag, rhs, x_tilde)
        cg_steps += steps
        z_tilde = _matvec(A, x_tilde)
        x = alpha * x_tilde + (1.0 - alpha) * x
        v = alpha * z_tilde + (1.0 - alpha) * z + w / rho
        z_new = np.clip(v, l, u)
        w = w + rho * (alpha * z_tilde + (1.0 - alpha) * z - z_new)
        z = z_new
