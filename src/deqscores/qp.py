"""Strictly convex QP solver for box and pairwise-gap constraints.

Solves

    minimize    0.5 * y' Q y + c' y + constant
    subject to  lo_i <= y_i <= hi_i          (boxes)
                y_i - y_j >= gap             (pair constraints)

with a first-order operator-splitting iteration (over-relaxed ADMM) plus an
active-set polish step that solves the KKT equality system on the detected
active constraints, bringing the iterate to near machine precision.
Feasibility is pre-checked by longest-path propagation of the pairwise gaps
through the constraint graph, so infeasible inputs fail fast instead of
iterating.

The ADMM x-update solves (Q + sigma I + rho A'A) x = b. It is never
factored: each iteration runs a Jacobi-preconditioned conjugate gradient,
warm-started from the previous iteration's solution. The box rows make the
matrix at least rho*I, and for the score-merging QP it is well conditioned,
so a few CG steps suffice; a sparse LU of it would fill in heavily, because
consensus and ranking couplings make its graph an expander. The only
factorization left is the polish's sparse LU of the much smaller active-set
KKT system, tried at every residual check.

Along a path of related problems (one dataset solved at increasing fit
weights) neighbouring minimizers almost always hold the same constraints at
their bounds. A ``Solution`` therefore records its active set, and passing
it as the ``start`` of the next solve makes the solver try one polish on that
active set before it builds the x-update system or iterates at all (the
parametric active-set warm start of qpOASES). The polished point is accepted
only through the same certificate as every other polish: multiplier signs,
primal residual within the caller's ``feastol`` and scaled stationarity
within ``OPTIMALITY_TOLERANCE``. Otherwise the solve falls back to the ADMM
iteration, started from the previous solution's values.

The constraints live in a ``Constraints`` object that problems may share:
everything the solver derives from the constraints alone (the feasibility
check, the stacked constraint matrix, its transpose and A'A) is computed on
first use and reused by every problem built on the same object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SolverError(Exception):
    pass


class InfeasibleProblem(SolverError):
    """The constraint set is empty; ``chain`` is the variable chain proving it."""

    def __init__(self, message: str, chain: list[int] | None = None):
        super().__init__(message)
        self.chain = chain or []


class ConstraintCycle(SolverError):
    """Pair constraints with positive total gap form a cycle."""

    def __init__(self, cycle: list[int]):
        super().__init__(f"pair constraints form a positive-gap cycle through variables {cycle}")
        self.cycle = cycle


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
    A' and A'A."""

    A: sp.csc_matrix
    At: sp.csr_matrix
    AtA: sp.csc_matrix
    lower: np.ndarray
    upper: np.ndarray


@dataclass(frozen=True)
class Constraints:
    """Boxes and pair constraints of a QP, independent of its objective.

    The feasibility check and the stacked rows are computed on first use and
    cached, so problems sharing one ``Constraints`` (a dataset solved along a
    fit-weight grid) pay for them once.
    """

    box_lower: np.ndarray
    box_upper: np.ndarray
    pair_constraints: tuple[tuple[int, int, float], ...]

    @property
    def n(self) -> int:
        return self.box_lower.shape[0]

    @cached_property
    def feasibility(self) -> FeasibilityResult:
        return check_feasibility(self)

    @cached_property
    def rows(self) -> StackedRows:
        n = self.n
        m = len(self.pair_constraints)
        blocks = [sp.identity(n, format="csc")]
        lower = [self.box_lower]
        upper = [self.box_upper]
        if m:
            i, j, gaps = (np.array(col) for col in zip(*self.pair_constraints))
            cols = np.column_stack([i, j]).ravel()
            vals = np.tile([1.0, -1.0], m)
            blocks.append(sp.csc_matrix((vals, (np.repeat(np.arange(m), 2), cols)), shape=(m, n)))
            lower.append(gaps)
            upper.append(np.full(m, np.inf))
        A = sp.vstack(blocks, format="csc")
        At = A.T
        return StackedRows(A, At, (At @ A).tocsc(), np.concatenate(lower), np.concatenate(upper))


@dataclass(frozen=True)
class QPProblem:
    """Data of one QP instance. ``quadratic`` is the Hessian of the objective,
    i.e. the objective is 0.5*y'Qy + c'y + constant (the factor-of-2 bookkeeping
    lives with whoever assembles Q, not here)."""

    quadratic: sp.csc_matrix
    linear: np.ndarray
    constraints: Constraints
    constant: float = 0.0

    @property
    def n(self) -> int:
        return self.constraints.n

    @property
    def pair_constraints(self) -> tuple[tuple[int, int, float], ...]:
        return self.constraints.pair_constraints

    @property
    def box_lower(self) -> np.ndarray:
        return self.constraints.box_lower

    @property
    def box_upper(self) -> np.ndarray:
        return self.constraints.box_upper

    @classmethod
    def build(cls, quadratic, linear, pair_constraints, box_lower, box_upper, constant=0.0):
        quadratic = sp.csc_matrix(quadratic)
        linear = np.asarray(linear, dtype=float)
        box_lower = np.asarray(box_lower, dtype=float)
        box_upper = np.asarray(box_upper, dtype=float)
        n = linear.shape[0]
        if quadratic.shape != (n, n):
            raise ValueError(f"quadratic is {quadratic.shape}, expected {(n, n)}")
        asym = abs(quadratic - quadratic.T)
        if asym.nnz and asym.max() > 1e-10 * max(1.0, abs(quadratic).max()):
            raise ValueError("quadratic matrix must be symmetric")
        if box_lower.shape != (n,) or box_upper.shape != (n,):
            raise ValueError("box bounds must have one entry per variable")
        if np.any(box_lower > box_upper):
            bad = int(np.argmax(box_lower > box_upper))
            raise ValueError(f"empty box for variable {bad}")
        pairs = []
        for i, j, gap in pair_constraints:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"bad pair constraint indices ({i}, {j}) for n={n}")
            pairs.append((int(i), int(j), float(gap)))
        return cls(
            quadratic=quadratic,
            linear=linear,
            constraints=Constraints(box_lower, box_upper, tuple(pairs)),
            constant=float(constant),
        )

    def objective(self, y: np.ndarray) -> float:
        y = np.asarray(y, dtype=float)
        return float(0.5 * y @ (self.quadratic @ y) + self.linear @ y + self.constant)


# ``solve`` accepts a point when its scaled stationarity residual
# ||Qy + c + A'w||_inf / max(1, ||Qy||_inf, ||c||_inf, ||A'w||_inf) is within
# OPTIMALITY_TOLERANCE, w being the constraint multipliers; the scaling keeps
# the criterion meaningful when the fit weight (and hence Q) spans several
# orders of magnitude.
OPTIMALITY_TOLERANCE = 1e-8
MAX_ITERATIONS = 50_000
DEFAULT_FEASTOL = 1e-6  # the primal residual ``solve`` accepts unless told otherwise


@dataclass(frozen=True)
class Solution:
    """A certified minimizer. ``active`` marks, per stacked constraint row
    (the boxes, then the pair rows), whether the solution holds it at its
    lower bound (-1), its upper bound (+1) or neither (0); None when unknown."""

    values: np.ndarray
    objective_value: float
    iterations: int
    residuals: tuple[float, float]  # (primal infeasibility, scaled stationarity)
    cg_iterations: int  # conjugate-gradient steps over all ADMM x-updates
    active: np.ndarray | None = None


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: tuple[int, ...] | None
    tightened_lower: np.ndarray = field(repr=False)


def check_feasibility(problem: QPProblem | Constraints) -> FeasibilityResult:
    """Propagate pairwise gaps through the constraint graph and test the boxes.

    Lower bounds travel upward along each constraint y_i >= y_j + gap
    (longest-path relaxation); the system is feasible iff every tightened
    lower bound stays below its box upper bound. A positive-gap cycle raises
    ``ConstraintCycle``; an empty interval yields the chain of variables
    whose accumulated gaps overflow the box as witness. Only the constraints
    are read, so a problem's ``Constraints`` can be checked directly.
    """
    n = problem.n
    lo = problem.box_lower.copy()
    pred: list[int | None] = [None] * n

    changed = True
    rounds = 0
    last_changed: int | None = None
    while changed:
        changed = False
        for i, j, gap in problem.pair_constraints:
            cand = lo[j] + gap
            if cand > lo[i] + 1e-15:
                lo[i] = cand
                pred[i] = j
                changed = True
                last_changed = i
        rounds += 1
        if changed and rounds > n:
            cycle = _walk_cycle(pred, last_changed, n)
            raise ConstraintCycle(cycle)

    bad = np.nonzero(lo > problem.box_upper + 1e-12)[0]
    if bad.size:
        start = int(bad[0])
        chain = [start]
        node = start
        while pred[node] is not None and len(chain) <= n:
            node = pred[node]
            chain.append(node)
        return FeasibilityResult(False, tuple(chain), lo)
    return FeasibilityResult(True, None, lo)


def _walk_cycle(pred: list[int | None], start: int, n: int) -> list[int]:
    seen: dict[int, int] = {}
    path: list[int] = []
    node: int | None = start
    while node is not None and node not in seen:
        seen[node] = len(path)
        path.append(node)
        node = pred[node]
    if node is None:
        return path
    cycle = path[seen[node]:]
    cycle.reverse()
    return cycle


def _polish(Q, c, A, l, u, act_lower, act_upper):
    """Solve the KKT equality system on the guessed active set (which may be
    empty: the system is then Q x = -c alone).

    Returns (x, w_full) or None when the regularized system cannot be solved.
    Verification against the full problem is the caller's job.
    """
    n = Q.shape[0]
    rows = np.concatenate([np.nonzero(act_lower)[0], np.nonzero(act_upper)[0]])
    b = np.concatenate([l[np.nonzero(act_lower)[0]], u[np.nonzero(act_upper)[0]]])
    A_act = A[rows]
    k = rows.size
    delta = 1e-9
    kkt0 = sp.bmat([[Q, A_act.T], [A_act, None]], format="csc")
    regularization = sp.diags(np.concatenate([np.full(n, delta), np.full(k, -delta)]))
    rhs = np.concatenate([-c, b])
    try:
        lu = spla.splu((kkt0 + regularization).tocsc())
    except RuntimeError:
        return None
    sol = lu.solve(rhs)
    # a couple of refinement sweeps against the unregularized system
    for _ in range(2):
        resid = rhs - kkt0 @ sol
        if np.max(np.abs(resid)) < 1e-14:
            break
        sol = sol + lu.solve(resid)
    x = sol[:n]
    w_full = np.zeros(A.shape[0])
    w_full[rows] = sol[n:]
    return x, w_full


def _x_update_system(Q, sigma: float, rho: float, AtA):
    """The ADMM x-update matrix Q + sigma I + rho A'A as CSR, with the
    inverse of its diagonal (the Jacobi preconditioner)."""
    K = (Q + sigma * sp.identity(Q.shape[0], format="csc") + rho * AtA).tocsr()
    return K, 1.0 / K.diagonal()


_CG_TOLERANCE = 1e-10
_CG_MAX_STEPS = 1000


def _pcg(K, inv_diag, b, x0):
    """Jacobi-preconditioned conjugate gradient for K x = b from ``x0``.

    Stops once ||b - K x||_inf <= 1e-10 * max(1, ||b||_inf), or after a fixed
    number of steps. Returns (x, steps taken).
    """
    tol = _CG_TOLERANCE * max(1.0, float(np.max(np.abs(b))))
    x = x0.copy()
    r = b - K @ x
    if np.max(np.abs(r)) <= tol:
        return x, 0
    d = inv_diag * r
    p = d
    rd = float(r @ d)
    for step in range(1, _CG_MAX_STEPS + 1):
        Kp = K @ p
        a = rd / float(p @ Kp)
        x += a * p
        r -= a * Kp
        if np.max(np.abs(r)) <= tol:
            return x, step
        d = inv_diag * r
        rd, rd_old = float(r @ d), rd
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
    Ax = rows.A @ x
    primal = max(
        float(np.max(rows.lower - Ax, initial=0.0)),
        float(np.max(Ax - rows.upper, initial=0.0)),
        0.0,
    )
    if z is not None:
        primal = max(primal, float(np.max(np.abs(Ax - z))))
    Qx = Q @ x
    Atw = rows.At @ w
    stat_num = float(np.max(np.abs(Qx + c + Atw)))
    stat_den = max(
        1.0,
        float(np.max(np.abs(Qx))),
        float(np.max(np.abs(c))),
        float(np.max(np.abs(Atw))),
    )
    return primal, stat_num / stat_den


def _active_rows(w: np.ndarray) -> np.ndarray:
    """Rows a multiplier vector holds at a bound: -1 lower, +1 upper, 0 free."""
    return (w > 1e-12).astype(np.int8) - (w < -1e-12).astype(np.int8)


def _certified_polish(Q, c, rows: StackedRows, signs: np.ndarray, feastol: float):
    """Polish on a guessed active set; return (x, residuals) when the polished
    point is certified optimal, else None.

    ``signs`` is a multiplier vector or a stored active set: rows below
    -1e-12 are held at their lower bound, rows above 1e-12 at their upper
    bound. The certificate: every polished multiplier has the sign of the
    bound it holds, the primal residual is within ``feastol`` and the scaled
    stationarity within ``OPTIMALITY_TOLERANCE``.
    """
    act_lower = signs < -1e-12
    act_upper = signs > 1e-12
    polished = _polish(Q, c, rows.A, rows.lower, rows.upper, act_lower, act_upper)
    if polished is None:
        return None
    xp, wp = polished
    good_signs = np.all(wp[act_lower] <= 1e-9) and np.all(wp[act_upper] >= -1e-9)
    pp, ps = _residuals(Q, c, rows, xp, wp)
    if good_signs and pp <= feastol and ps <= OPTIMALITY_TOLERANCE:
        return xp, (pp, ps)
    return None


def solve(
    problem: QPProblem,
    feastol: float = DEFAULT_FEASTOL,
    start: np.ndarray | Solution | None = None,
) -> Solution:
    """Return the unique minimizer of a strictly convex instance.

    The result's primal infeasibility is at most ``feastol`` (a positive
    finite number, else ``ValueError``) and its scaled stationarity at most
    ``OPTIMALITY_TOLERANCE``.

    ``start`` is a starting point or a previous ``Solution`` of a problem
    with the same constraints; the result is the same minimizer either way,
    a good start only saves work. A previous solution's values start the
    splitting iteration, and before that its active set is tried with one
    polish: if the polished point passes the certificate every polish must
    pass, it is returned with ``iterations`` 0, otherwise the solve iterates
    as without it. Raises ``InfeasibleProblem``/``ConstraintCycle`` when the
    constraint set is empty and ``MaxIterationsExceeded`` when the
    tolerances are not met within ``MAX_ITERATIONS`` iterations.
    """
    if not (math.isfinite(feastol) and feastol > 0):
        raise ValueError(f"feastol must be a positive finite number, got {feastol!r}")
    feas = problem.constraints.feasibility
    if not feas.feasible:
        raise InfeasibleProblem(
            "pair-constraint gaps overflow the boxes along chain "
            f"{list(feas.witness)}", list(feas.witness),
        )

    rows = problem.constraints.rows
    A, At, AtA, l, u = rows

    # normalize the objective so rho has a consistent meaning across fit weights
    scale = max(1.0, float(problem.quadratic.diagonal().max()) / 2.0)
    Q = (problem.quadratic / scale).tocsc()
    c = problem.linear / scale

    if isinstance(start, Solution):
        active = start.active
        if active is not None:
            if active.shape != l.shape:
                raise ValueError(
                    f"start's active set covers {active.shape[0]} rows, the problem has {l.shape[0]}"
                )
            certified = _certified_polish(Q, c, rows, active, feastol)
            if certified is not None:
                xp, residuals = certified
                return Solution(xp, problem.objective(xp), 0, residuals, 0, active)
        start = start.values

    sigma = 1e-6
    alpha = 1.6
    rho = 1.0
    K, inv_diag = _x_update_system(Q, sigma, rho, AtA)

    x = np.asarray(start, dtype=float).copy() if start is not None else feas.tightened_lower.copy()
    x_tilde = x
    z = np.clip(A @ x, l, u)
    w = np.zeros_like(z)

    check_every = 25

    it = 0
    cg_steps = 0
    while it < MAX_ITERATIONS:
        it += 1
        rhs = sigma * x - c + At @ (rho * z - w)
        x_tilde, steps = _pcg(K, inv_diag, rhs, x_tilde)
        cg_steps += steps
        z_tilde = A @ x_tilde
        x = alpha * x_tilde + (1.0 - alpha) * x
        v = alpha * z_tilde + (1.0 - alpha) * z + w / rho
        z_new = np.clip(v, l, u)
        w = w + rho * (alpha * z_tilde + (1.0 - alpha) * z - z_new)
        z = z_new

        if it % check_every:
            continue
        primal, stat = _residuals(Q, c, rows, x, w, z)
        certified = _certified_polish(Q, c, rows, w, feastol)
        if certified is not None:
            xp, residuals = certified
            return Solution(xp, problem.objective(xp), it, residuals, cg_steps, _active_rows(w))
        if primal <= feastol and stat <= OPTIMALITY_TOLERANCE:
            return Solution(x.copy(), problem.objective(x), it, (primal, stat), cg_steps, _active_rows(w))
        if it % 2000 == 0:
            # slow progress: re-balance the penalty between primal and dual work
            ratio = (primal + 1e-16) / (stat + 1e-16)
            if ratio > 100.0 or ratio < 0.01:
                rho = float(np.clip(rho * np.sqrt(ratio), 1e-4, 1e4))
                K, inv_diag = _x_update_system(Q, sigma, rho, AtA)

    primal, stat = _residuals(Q, c, rows, x, w, z)
    if primal <= feastol and stat <= OPTIMALITY_TOLERANCE:
        return Solution(x.copy(), problem.objective(x), it, (primal, stat), cg_steps, _active_rows(w))
    raise MaxIterationsExceeded(it, (primal, stat))
