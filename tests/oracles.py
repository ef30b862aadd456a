"""Independent oracles for the tests: they share no iteration machinery
with the package's solver and exist only to cross-check it.

``brute_force_minimize`` solves small QPs by grid search over the feasible
box lattice followed by projected-gradient refinement (projections computed
by Dykstra's alternating method). ``thurstone_joint_loglikelihood`` and
``profiled_paper_qualities`` state the Thurstone model whose box-constrained
maximizer the consensus-only solution should be. ``constraint_violation``
measures how far a point lies outside a problem's constraints.
``pairwise_kendall_tau_error`` and ``pairwise_tie_fraction`` decide every
pair of a vector directly, O(n^2), as the reference for the sort-based
metrics. ``pairwise_ranked_groups`` checks a grouping against every pair of
papers, the reference for the tie groups of
``baselines.partial_rankings_adjusted_scores``;
``partial_rankings_reference`` is that group-wise rule written reviewer by
reviewer over dicts, and ``rank_adjusted_reference`` is the rank-wise tie
breaking written directly, the reference for
``baselines.bre_adjusted_scores``.
``ranking_cycles_reference`` names ranking cycles from a transitive closure,
the reference for the RANK_CYCLE cycles of ``model.validate``, and
``validate_reference`` walks a dataset's records pair by pair, the reference
for all of ``model.validate``. ``derive_rankings_reference`` compares every
two reviews of a reviewer, the reference for
``model.derive_rankings_from_raw_scores``. ``layout_reference`` sorts a
dataset's records as tuples, the reference for the sorted id tables and
columns that ``ReviewDataset.from_columns`` builds.
``build_problem`` makes a ``QPProblem`` from small hand-written data with
acyclic pair rows, its Q a general matrix wrapped as the solver's operator
(``MatrixOperator``); ``objective`` evaluates a problem's 0.5*y'Qy + c'y
and ``dense_quadratic`` forms its Q by products with the identity's
columns.
``feasibility_reference`` is the row-by-row Bellman-Ford feasibility pass,
the reference for ``qp.check_feasibility``.
``score_only_closed_form`` is the exact minimizer of the dequantization
objective when no rankings are reported, solved per paper.
``certify`` checks a point's optimality from the KKT conditions alone, with
multipliers from nonnegative least squares; ``kkt_check`` checks a point
with given multipliers, in O(nnz) and with no slack threshold. ``load_scores`` reads an output
file's dequantized values back.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize
import scipy.sparse as sp
from scipy.sparse import csgraph

from deqscores.baselines import GroupsInconsistent
from deqscores.metrics import TIE_TOLERANCE, AllTiedError
from deqscores.model import (
    OUT_OF_RANGE,
    RANK_CYCLE,
    RANK_SCORE_INCONSISTENT,
    UNASSIGNED_PAIR,
    ReviewDataset,
)
from deqscores.qp import (
    PAIR_ROW,
    Constraints,
    InfeasibleProblem,
    QPProblem,
    Solution,
    SolverError,
    check_feasibility,
)


class DimensionTooLarge(SolverError):
    pass


_BLOCK = 512


def pairwise_kendall_tau_error(truth, estimate) -> float:
    """Kendall-tau error by direct comparison of every pair (i, j), i < j:
    a pair is truth-ordered when ``t_i != t_j``, tied when
    ``abs(e_i - e_j) < TIE_TOLERANCE or e_i == e_j``, and discordant when not
    tied and ``sign(t_i - t_j) * (e_i - e_j) < 0``. In row blocks to bound
    memory."""
    t = np.asarray(truth, dtype=float)
    e = np.asarray(estimate, dtype=float)
    n = t.shape[0]
    ordered = 0
    penalty = 0.0
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        dt = t[start:stop, None] - t[None, :]
        de = e[start:stop, None] - e[None, :]
        upper = np.arange(n)[None, :] > np.arange(start, stop)[:, None]
        is_ordered = upper & (dt != 0.0)
        ordered += int(is_ordered.sum())
        oriented = np.sign(dt) * de
        tied = (np.abs(de) < TIE_TOLERANCE) | (de == 0.0)
        penalty += float((is_ordered & tied).sum()) * 0.5
        penalty += float((is_ordered & ~tied & (oriented < 0)).sum())
    if ordered == 0:
        raise AllTiedError("no strictly ordered truth pair")
    return penalty / ordered


def pairwise_tie_fraction(values) -> float:
    """Fraction of pairs (i, j), i < j, with ``abs(v_i - v_j) < TIE_TOLERANCE``,
    by direct comparison of every pair."""
    v = np.asarray(values, dtype=float)
    n = v.shape[0]
    total = n * (n - 1) // 2
    if total == 0:
        return 0.0
    tied = 0
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        diff = np.abs(v[start:stop, None] - v[None, :])
        upper = np.arange(n)[None, :] > np.arange(start, stop)[:, None]
        tied += int((upper & (diff < TIE_TOLERANCE)).sum())
    return tied / total


def pairwise_ranked_groups(papers, ordered_pairs) -> list[tuple[str, ...]] | None:
    """Tie groups of a group-total ranking, worst first, or None when the
    pairs admit none. Papers are grouped by how many papers they beat, then
    every pair of papers is checked directly: tied papers must be unranked,
    others reported exactly in the direction of their groups."""
    beats = {p: 0 for p in papers}
    for better, _worse in ordered_pairs:
        beats[better] += 1
    levels = sorted(set(beats.values()))
    groups = [tuple(sorted(p for p in papers if beats[p] == k)) for k in levels]
    level = {p: levels.index(beats[p]) for p in papers}
    listed = [p for g in groups for p in g]
    for i, p in enumerate(listed):
        for q in listed[i + 1 :]:
            reported = ((p, q) in ordered_pairs, (q, p) in ordered_pairs)
            if level[p] == level[q]:
                if any(reported):
                    return None
            elif reported != (level[p] > level[q], level[q] > level[p]):
                return None
    return groups


def rank_adjusted_reference(dataset: ReviewDataset, epsilon: float) -> np.ndarray:
    """Rank-wise tie breaking over total rankings: inside each of a
    reviewer's score bins, the paper beating the fewest others gets the
    score, the next one epsilon more, and so on; the bin is then recentered
    onto its score, summed in that rank order. One value per review, in
    review order."""
    scores = dict(zip(dataset.pairs(), dataset.scores.tolist()))
    beats = {pair: 0 for pair in scores}
    for r, better, worse in zip(
        dataset.reviewer_ids[dataset.ranked_by],
        dataset.paper_ids[dataset.better],
        dataset.paper_ids[dataset.worse],
    ):
        beats[(r, better)] += 1
    bins: dict[tuple[str, int], list[tuple[str, str]]] = {}
    for pair, score in scores.items():
        bins.setdefault((pair[0], score), []).append(pair)
    values = {}
    for (_reviewer, score), members in bins.items():
        members.sort(key=beats.get)
        raw = [score + rank * epsilon for rank in range(len(members))]
        excess = sum(raw) / len(members) - score
        for pair, value in zip(members, raw):
            values[pair] = value - excess
    return np.array([values[pair] for pair in dataset.pairs()])


def ranked_groups_reference(dataset: ReviewDataset, reviewer_id: str) -> dict[str, int]:
    """Level of each paper a reviewer scored in the group-total order of
    their rows: how many rows with two scored papers name it as the better
    one. Raises ``GroupsInconsistent`` naming the least pair reported or
    implied but not both when the rows are not every paper over every paper
    of a lower level."""
    reviews = [pair for pair in dataset.pairs() if pair[0] == reviewer_id]
    papers = [p for _, p in reviews]
    reported = {
        (b, w) for r, b, w in zip(
            dataset.reviewer_ids[dataset.ranked_by],
            dataset.paper_ids[dataset.better],
            dataset.paper_ids[dataset.worse],
        ) if r == reviewer_id
    }
    beats = {p: 0 for p in papers}
    for better, worse in reported:
        if better in beats and worse in beats:
            beats[better] += 1
    implied = {(p, q) for p in papers for q in papers if beats[p] > beats[q]}
    if reported != implied:
        raise GroupsInconsistent(
            f"reviewer {reviewer_id!r}: the reported pairs are no total order over "
            f"tie groups; first mismatch {min(reported ^ implied)!r}"
        )
    return beats


def partial_rankings_reference(dataset: ReviewDataset, epsilon: float) -> np.ndarray:
    """Group-wise tie breaking written reviewer by reviewer and bin by bin:
    within each of a reviewer's score bins, the t-th lowest level of
    ``ranked_groups_reference`` present gets offset t*epsilon, and the bin
    is recentered onto its score, summed in (level, paper) order. One value
    per review, in review order."""
    scores = dict(zip(dataset.pairs(), dataset.scores.tolist()))
    values = {}
    for reviewer in sorted({r for r, _ in scores}):
        level = ranked_groups_reference(dataset, reviewer)
        bins: dict[int, list[str]] = {}
        for (r, p), score in scores.items():
            if r == reviewer:
                bins.setdefault(score, []).append(p)
        for score, papers in sorted(bins.items()):
            members = sorted(papers, key=level.get)
            present = sorted({level[p] for p in members})
            raw = {p: score + present.index(level[p]) * epsilon for p in members}
            excess = sum(raw.values()) / len(members) - score
            for p in members:
                values[(reviewer, p)] = raw[p] - excess
    return np.array([values[pair] for pair in dataset.pairs()])


def ranking_cycles_reference(scores: dict, rows) -> list[tuple[str, str]]:
    """(reviewer_id, detail) of every ranking cycle of a dataset given as
    records, ``scores`` {(reviewer, paper): score} and ranking ``rows``
    (reviewer, better, worse): reviewers in id order, each reviewer's cycles
    ordered by their sorted member lists. Two papers share a cycle when each
    reaches the other in the transitive closure (Warshall's algorithm) of
    the reviewer's usable pairs: no self pair, both papers scored by the
    reviewer."""
    cycles = []
    for r in sorted({row[0] for row in rows}):
        reach = {
            (better, worse)
            for reviewer, better, worse in rows
            if reviewer == r and better != worse
            and (r, better) in scores and (r, worse) in scores
        }
        papers = sorted({p for pair in reach for p in pair})
        for k in papers:
            for i in papers:
                for j in papers:
                    if (i, k) in reach and (k, j) in reach:
                        reach.add((i, j))
        groups = {
            tuple(q for q in papers if q == p or {(p, q), (q, p)} <= reach) for p in papers
        }
        for group in sorted(g for g in groups if len(g) > 1):
            cycles.append((r, "cycle through " + " > ".join(map(repr, group))))
    return cycles


def validate_reference(scale: tuple[int, int], scores: dict, rows) -> list[tuple[str, str, str]]:
    """(code, reviewer_id, detail) of every violation of a dataset given as
    records: ``scale`` (lower, upper), ``scores`` {(reviewer, paper): score}
    and ranking ``rows`` (reviewer, better, worse), repeats counting once.
    Out-of-range scores come first, in (reviewer, paper) order; then each
    reviewer's sorted ranking pairs, checked one at a time against the score
    dict, followed by that reviewer's cycles from
    ``ranking_cycles_reference``."""
    lower, upper = scale
    violations = [
        (OUT_OF_RANGE, r, f"score {z} for paper {p!r} outside [{lower}, {upper}]")
        for (r, p), z in sorted(scores.items())
        if not lower <= z <= upper
    ]
    by_reviewer: dict[str, list[tuple[str, str, str]]] = {}
    for r, better, worse in sorted(set(rows)):
        found = by_reviewer.setdefault(r, [])
        if better == worse:
            found.append((RANK_CYCLE, r, f"self-pair ({better!r}, {worse!r})"))
            continue
        unscored = [p for p in (better, worse) if (r, p) not in scores]
        for paper in unscored:
            found.append((UNASSIGNED_PAIR, r, f"ranking references unscored paper {paper!r}"))
        if not unscored and scores[(r, better)] < scores[(r, worse)]:
            detail = f"({better!r}, {worse!r}) but scores are {scores[(r, better)]} < {scores[(r, worse)]}"
            found.append((RANK_SCORE_INCONSISTENT, r, detail))
    for r, detail in ranking_cycles_reference(scores, rows):
        by_reviewer[r].append((RANK_CYCLE, r, detail))
    return violations + [v for found in by_reviewer.values() for v in found]


def derive_rankings_reference(raw: dict) -> list[tuple[str, str, str]]:
    """Sorted ranking rows (reviewer, better, worse) from real values
    ``raw`` {(reviewer, paper): value}: every two papers of one reviewer
    with strictly different values, the higher one better."""
    by_reviewer: dict[str, list[tuple[str, float]]] = {}
    for (r, p), value in raw.items():
        by_reviewer.setdefault(r, []).append((p, value))
    rows = set()
    for r, entries in by_reviewer.items():
        for i, (p, vp) in enumerate(entries):
            for q, vq in entries[i + 1 :]:
                if vp > vq:
                    rows.add((r, p, q))
                elif vq > vp:
                    rows.add((r, q, p))
    return sorted(rows)


def layout_reference(scores: dict, rows) -> dict[str, list]:
    """The sorted id tables and the columns, as lists, of the dataset of
    ``{(reviewer_id, paper_id): score}`` and ranking rows, repeats counted
    once: reviews in (reviewer_id, paper_id) order, rows in (reviewer,
    better, worse) order."""
    rows = set(rows)
    reviewer_ids = sorted({r for r, _ in scores} | {r for r, _, _ in rows})
    paper_ids = sorted({p for _, p in scores} | {p for _, b, w in rows for p in (b, w)})
    r_index = {r: i for i, r in enumerate(reviewer_ids)}
    p_index = {p: i for i, p in enumerate(paper_ids)}
    reviews = sorted((r_index[r], p_index[p], z) for (r, p), z in scores.items())
    ranked = sorted((r_index[r], p_index[b], p_index[w]) for r, b, w in rows)
    names = ("reviewer", "paper", "scores", "ranked_by", "better", "worse")
    columns = [list(c) for c in zip(*reviews)] or [[], [], []]
    columns += [list(c) for c in zip(*ranked)] or [[], [], []]
    return {"reviewer_ids": reviewer_ids, "paper_ids": paper_ids, **dict(zip(names, columns))}


@dataclass(frozen=True, eq=False)
class MatrixOperator:
    """A general Q, a numpy array or a scipy sparse matrix, as the operator
    ``qp.QPProblem`` takes: its product, its diagonal and a scaled copy."""

    matrix: object

    def __matmul__(self, y):
        return self.matrix @ y

    def diagonal(self):
        return self.matrix.diagonal()

    def scaled(self, factor):
        return MatrixOperator(self.matrix * factor)


def dense_quadratic(problem: QPProblem) -> np.ndarray:
    """The problem's Q as a dense matrix, column by column of the identity."""
    return np.column_stack([problem.quadratic @ column for column in np.eye(problem.n)])


def build_problem(quadratic, linear, pair_constraints, box_lower, box_upper) -> QPProblem:
    """The QP 0.5*y'Qy + c'y over the boxes and the pair rows
    ``pair_constraints``, (i, j, gap) each, which must form no cycle: the
    package's own problems come from ``compile_dataset``, whose rankings
    ``validate`` has checked for cycles."""
    linear = np.asarray(linear, dtype=float)
    n = linear.shape[0]
    pairs = np.array([tuple(row) for row in pair_constraints], dtype=PAIR_ROW)
    graph = sp.csr_matrix((np.ones(pairs.shape[0]), (pairs["i"], pairs["j"])), shape=(n, n))
    components, _ = csgraph.connected_components(graph, connection="strong")
    assert components == n and not np.any(pairs["i"] == pairs["j"]), "pair rows form a cycle"
    box_lower = np.asarray(box_lower, dtype=float)
    box_upper = np.asarray(box_upper, dtype=float)
    return QPProblem(
        MatrixOperator(sp.csc_matrix(quadratic)), linear, Constraints(box_lower, box_upper, pairs)
    )


def objective(problem: QPProblem, y) -> float:
    """The problem's objective 0.5*y'Qy + c'y at ``y``."""
    y = np.asarray(y, dtype=float)
    return float(0.5 * y @ (problem.quadratic @ y) + problem.linear @ y)


def feasibility_reference(constraints: Constraints) -> np.ndarray:
    """The feasibility pass relaxing one pair row at a time: rounds over the
    rows in row order, each row raising lo_i to lo_j + gap when that is
    more than 1e-15 higher and recording j as i's predecessor, until a round
    changes nothing. Returns the tightened lower bounds, or raises
    ``InfeasibleProblem`` with the chain that follows the predecessors back
    from the first variable whose bound overflows its box. For acyclic
    rows."""
    n = constraints.n
    lo = constraints.box_lower.copy()
    pred: list[int | None] = [None] * n
    changed = True
    rounds = 0
    while changed:
        assert rounds <= n, "pair rows form a positive-gap cycle"
        changed = False
        for i, j, gap in constraints.pair_constraints.tolist():
            cand = lo[j] + gap
            if cand > lo[i] + 1e-15:
                lo[i] = cand
                pred[i] = j
                changed = True
        rounds += 1
    bad = np.nonzero(lo > constraints.box_upper + 1e-12)[0]
    if not bad.size:
        return lo
    chain = [int(bad[0])]
    while pred[chain[-1]] is not None and len(chain) <= n:
        chain.append(pred[chain[-1]])
    raise InfeasibleProblem(f"the chain {chain} overflows its boxes", chain)


def constraint_violation(problem: QPProblem, y: np.ndarray) -> float:
    """Largest violation over boxes and pair constraints (0 if feasible)."""
    constraints = problem.constraints
    viol = max(
        float(np.max(constraints.box_lower - y, initial=0.0)),
        float(np.max(y - constraints.box_upper, initial=0.0)),
    )
    for i, j, gap in problem.pair_constraints:
        viol = max(viol, gap - (y[i] - y[j]))
    return max(viol, 0.0)


def load_scores(path) -> dict[tuple[str, str], float]:
    """(reviewer, paper) -> dequantized value of a file ``io.write_scores``
    wrote."""
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    assert header == [
        "reviewer_id", "paper_id", "quantized_score", "dequantized_score", "percentile"
    ]
    return {(row[0], row[1]): float(row[3]) for row in rows}


@dataclass(frozen=True)
class Certificate:
    """KKT residuals of a point: ``primal`` the largest constraint violation,
    ``active`` the number of rows within the tolerance of their bound,
    ``stationarity`` ||Qy + c - N mu||_inf / max(1, ||Qy||_inf, ||c||_inf)
    for the best multipliers mu >= 0 on the active normals N, and
    ``complementarity`` max_a mu_a * slack_a over those rows."""

    primal: float
    active: int
    stationarity: float
    complementarity: float


def certify(problem: QPProblem, y, tolerance: float = 1e-9) -> Certificate:
    """Optimality certificate of ``y`` from the KKT conditions alone.

    A row is active when its slack (y_i - lo_i, hi_i - y_i, or
    y_i - y_j - gap) is at most ``tolerance``. Its inward normal (e_i, -e_i
    or e_i - e_j) is a column of N, and the multipliers are the nonnegative
    least-squares solution of N mu = Qy + c (``scipy.optimize.nnls``); the
    gradient of a minimizer lies in the cone of its active normals.
    """
    y = np.asarray(y, dtype=float)
    n = problem.n
    lo, hi = problem.constraints.box_lower, problem.constraints.box_upper
    normals, slacks = [], []
    for i in range(n):
        for sign, slack in ((1.0, y[i] - lo[i]), (-1.0, hi[i] - y[i])):
            if slack <= tolerance:
                column = np.zeros(n)
                column[i] = sign
                normals.append(column)
                slacks.append(slack)
    for i, j, gap in problem.pair_constraints:
        slack = y[i] - y[j] - gap
        if slack <= tolerance:
            column = np.zeros(n)
            column[i], column[j] = 1.0, -1.0
            normals.append(column)
            slacks.append(slack)
    Qy = problem.quadratic @ y
    gradient = Qy + problem.linear
    if normals:
        N = np.column_stack(normals)
        mu, _ = scipy.optimize.nnls(N, gradient, maxiter=50 * N.shape[1])
        residual = gradient - N @ mu
        complementarity = float(np.max(np.abs(mu * np.array(slacks))))
    else:
        residual, complementarity = gradient, 0.0
    scale = max(1.0, float(np.max(np.abs(Qy))), float(np.max(np.abs(problem.linear))))
    return Certificate(
        primal=constraint_violation(problem, y),
        active=len(normals),
        stationarity=float(np.max(np.abs(residual))) / scale,
        complementarity=complementarity,
    )


@dataclass(frozen=True)
class KKTCheck:
    """KKT residuals of a point x with given multipliers w, one per stacked
    row (the boxes, then the pair rows; stationarity is Qx + c + A'w = 0, so
    a row held at its lower bound has w <= 0 and at its upper bound w >= 0):
    ``primal`` the largest constraint violation, ``sign`` the largest
    multiplier pushing towards an infinite bound, ``complementarity``
    max_r |w_r| * slack_r, the slack measured to the bound w_r's sign holds,
    and ``stationarity`` ||Qx + c + A'w||_inf / max(1, ||Qx||_inf,
    ||c||_inf, ||A'w||_inf), the solver's scaling."""

    primal: float
    sign: float
    complementarity: float
    stationarity: float

    def certifies(self, tolerance: float = 1e-9) -> bool:
        """A feasible point whose multipliers have the right signs, are
        complementary and make it stationary: optimal for a convex QP
        (Nocedal and Wright 2006, Thm. 16.4), whatever found w."""
        return (
            self.sign <= 0.0
            and max(self.primal, self.complementarity, self.stationarity) <= tolerance
        )


def kkt_check(problem: QPProblem, x, w) -> KKTCheck:
    """The KKT residuals of (x, w), in O(nnz) and without a slack threshold.

    A is built here from the box bounds and the ``PAIR_ROW`` records (row
    n + r is e_i - e_j), by array operations only; nothing of the solver's
    stacked rows is used."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    constraints = problem.constraints
    n = problem.n
    pairs = constraints.pair_constraints
    i, j = pairs["i"], pairs["j"]
    Ax = np.concatenate([x, x[i] - x[j]])
    lower = np.concatenate([constraints.box_lower, pairs["gap"]])
    upper = np.concatenate([constraints.box_upper, np.full(len(pairs), np.inf)])
    primal = float(np.max(np.concatenate([lower - Ax, Ax - upper, [0.0]])))

    held_low, held_up = w < 0, w > 0
    sign = float(np.max(np.concatenate([
        np.abs(w[held_low & ~np.isfinite(lower)]), np.abs(w[held_up & ~np.isfinite(upper)]), [0.0],
    ])))
    slack = np.zeros_like(w)
    slack[held_low] = (Ax - lower)[held_low]
    slack[held_up] = (upper - Ax)[held_up]
    finite = np.isfinite(slack)
    complementarity = float(np.max(np.abs(w[finite] * slack[finite]), initial=0.0))

    w_box, w_pair = w[:n], w[n:]
    Atw = w_box + np.bincount(i, w_pair, n) - np.bincount(j, w_pair, n)
    Qx = problem.quadratic @ x
    c = np.asarray(problem.linear, dtype=float)
    scale = max(1.0, float(np.max(np.abs(Qx))), float(np.max(np.abs(c))), float(np.max(np.abs(Atw))))
    return KKTCheck(
        primal=primal,
        sign=sign,
        complementarity=complementarity,
        stationarity=float(np.max(np.abs(Qx + c + Atw))) / scale,
    )


def _tightened_upper(problem: QPProblem, tightened_lower: np.ndarray) -> np.ndarray:
    """Upper bounds pushed down along each pair constraint y_i >= y_j + gap
    (the mirror of ``check_feasibility``'s lower-bound pass), never below the
    tightened lower bounds."""
    hi = problem.constraints.box_upper.copy()
    changed = True
    rounds = 0
    while changed and rounds <= problem.n:
        changed = False
        for i, j, gap in problem.pair_constraints:
            cand = hi[i] - gap
            if cand < hi[j] - 1e-15:
                hi[j] = cand
                changed = True
        rounds += 1
    return np.maximum(hi, tightened_lower)


def _dykstra_project(y, lo, hi, pairs, max_cycles=400):
    """Euclidean projection onto {box} intersect {pair halfspaces}."""
    if not pairs:
        return np.clip(y, lo, hi)
    x = y.copy()
    corrections = np.zeros((len(pairs) + 1, y.shape[0]))
    for _ in range(max_cycles):
        delta = 0.0
        v = x + corrections[0]
        px = np.clip(v, lo, hi)
        corrections[0] = v - px
        delta = max(delta, float(np.max(np.abs(px - x))))
        x = px
        for k, (i, j, gap) in enumerate(pairs, start=1):
            v = x + corrections[k]
            shortfall = gap - (v[i] - v[j])
            px = v.copy()
            if shortfall > 0:
                px[i] += shortfall / 2.0
                px[j] -= shortfall / 2.0
            corrections[k] = v - px
            delta = max(delta, float(np.max(np.abs(px - x))))
            x = px
        if delta < 1e-14:
            break
    return x


def brute_force_minimize(problem: QPProblem, grid_step: float = 1e-3) -> Solution:
    """Oracle minimization for tiny instances (n <= 6).

    Enumerates the feasible box lattice (coarsening the step when the full
    lattice would exceed a fixed evaluation budget, then zooming back in
    around the incumbent until the requested step is reached) and finishes
    with projected-gradient refinement from the best lattice point.
    """
    if problem.n > 6:
        raise DimensionTooLarge(f"brute force limited to n <= 6, got n={problem.n}")
    n = problem.n
    lo = check_feasibility(problem.constraints)
    hi = _tightened_upper(problem, lo)
    box_lower, box_upper = problem.constraints.box_lower, problem.constraints.box_upper
    pairs = problem.pair_constraints.tolist()
    Q = dense_quadratic(problem)
    c = problem.linear
    budget = 300_000

    def lattice_axes(center_lo, center_hi, step):
        axes = []
        for d in range(n):
            pts = np.arange(center_lo[d], center_hi[d] + 1e-12, step)
            if pts.size == 0:
                pts = np.array([center_lo[d]])
            if pts[-1] < center_hi[d] - 1e-12:
                pts = np.append(pts, center_hi[d])
            axes.append(pts)
        return axes

    def evaluate(points):
        vals = 0.5 * np.einsum("kd,dj,kj->k", points, Q, points) + points @ c
        return vals

    def feasible_mask(points):
        mask = np.ones(points.shape[0], dtype=bool)
        for i, j, gap in pairs:
            mask &= points[:, i] - points[:, j] >= gap - 1e-9
        return mask

    widths = np.maximum(hi - lo, 1e-12)
    step = float(max(widths.max(), grid_step))
    while True:
        count = 1.0
        for d in range(n):
            count *= np.floor(widths[d] / step) + 2
        if count > budget or step <= grid_step:
            break
        step /= 2.0
    step = max(step, grid_step)

    incumbent = lo.copy()
    incumbent_val = objective(problem, incumbent)
    window_lo, window_hi = lo.copy(), hi.copy()
    while True:
        axes = lattice_axes(window_lo, window_hi, step)
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=1)
        mask = feasible_mask(points)
        if mask.any():
            pts = points[mask]
            vals = evaluate(pts)
            k = int(np.argmin(vals))
            if vals[k] < incumbent_val:
                incumbent = pts[k]
                incumbent_val = float(vals[k])
        if step <= grid_step:
            break
        new_step = max(step / 4.0, grid_step)
        window_lo = np.maximum(lo, incumbent - 2.0 * step)
        window_hi = np.minimum(hi, incumbent + 2.0 * step)
        step = new_step

    # projected-gradient refinement; the objective is strongly convex so a
    # fixed 1/L step converges linearly from the lattice incumbent
    L = float(np.linalg.eigvalsh(Q).max())
    t = 1.0 / max(L, 1e-12)
    y = _dykstra_project(incumbent, box_lower, box_upper, pairs)
    for iteration in range(20_000):
        g = Q @ y + c
        y_new = _dykstra_project(y - t * g, box_lower, box_upper, pairs)
        if float(np.max(np.abs(y_new - y))) < 1e-13:
            y = y_new
            break
        y = y_new
    if objective(problem, y) > incumbent_val:
        y = incumbent
    return Solution(y, iteration + 1, (constraint_violation(problem, y), float("nan")), 0)


class UnequalReviewCounts(ValueError):
    """The closed form requires every paper to have the same review count."""


def score_only_closed_form(dataset: ReviewDataset, lam: float) -> np.ndarray:
    """Analytic scores-only solution: the exact minimizer of the consensus+fit
    objective when no rankings are reported.

    Per paper, each output is a convex combination of the reviewer's own
    score and the paper's output mean m, clipped into the half-unit box:
    y_r = clip((m + lam*z_r) / (1 + lam), z_r - 1/2, z_r + 1/2). These are the
    objective's KKT conditions, so for lam > 0 the result is its unique
    minimizer. m is the fixed point of m = mean_r(y_r), found exactly by
    ``_output_mean``. When no clip is one-sided, m is the mean score and the
    form reduces to the published weights: (1 + mu*lam) / (mu*(1 + lam)) on
    the reviewer's own score and 1 / (mu*(1 + lam)) on each other score of
    the paper. Requires every paper to have the same review count mu;
    rankings are ignored.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    counts = set(np.unique(dataset.paper, return_counts=True)[1].tolist())
    if len(counts) != 1:
        raise UnequalReviewCounts(f"papers have differing review counts {sorted(counts)}")
    values = np.empty(dataset.num_reviews)
    # one row per paper, its reviews in reviewer order
    by_paper = np.lexsort((dataset.reviewer, dataset.paper)).reshape(-1, counts.pop())
    for reviews in by_paper.tolist():
        z = [float(dataset.scores[i]) for i in reviews]
        m = _output_mean(z, lam)
        values[reviews] = [_boxed_pull(m, zr, lam) for zr in z]
    return values


def _boxed_pull(m: float, z: float, lam: float) -> float:
    """The minimizer's value for score z when its paper's output mean is m."""
    return min(max((m + lam * z) / (1.0 + lam), z - 0.5), z + 0.5)


def _output_mean(z: list[float], lam: float) -> float:
    """The unique root of g(m) = m, g(m) = mean_r _boxed_pull(m, z_r, lam).

    g is piecewise linear with slope at most 1/(1 + lam) < 1, bending at the
    breakpoints z_r -/+ (1 + lam)/2 where a clip starts or stops, so g(m) - m
    is strictly decreasing: positive at the lowest breakpoint, negative at
    the highest. The root is solved exactly on the one linear piece whose
    breakpoints bracket it.
    """
    half = 0.5 * (1.0 + lam)
    breaks = sorted({zr + side for zr in z for side in (-half, half)})
    j = next(
        i for i, b in enumerate(breaks)
        if sum(_boxed_pull(b, zr, lam) for zr in z) <= len(z) * b
    )
    mid = 0.5 * (breaks[j - 1] + breaks[j])
    clipped = [_boxed_pull(mid, zr, lam) for zr in z if abs(mid - zr) > half]
    free = [zr for zr in z if abs(mid - zr) <= half]
    # m * mu = sum(clipped) + sum_free (m + lam*z_r)/(1 + lam), times (1 + lam)
    return ((1.0 + lam) * sum(clipped) + lam * sum(free)) / (
        len(clipped) + len(z) * lam
    )


def thurstone_joint_loglikelihood(
    dataset: ReviewDataset,
    values,
    x_star: dict[str, float],
    sigma: float,
) -> float:
    """Joint log-density of latent review values ``values``, aligned with the
    dataset's reviews, and their quantization.

    The quantization factor is an indicator: any value outside its score's
    half-unit box gives -inf. Otherwise the value is Gaussian around the
    paper quality ``x_star[p]``, so the result is
    sum [-(y_rp - x*_p)^2 / (2 sigma^2) - log(sigma sqrt(2 pi))].
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    total = 0.0
    norm = -math.log(sigma * math.sqrt(2.0 * math.pi))
    for pair, z, value in zip(dataset.pairs(), dataset.scores.tolist(), values):
        if value < z - 0.5 - 1e-9 or value > z + 0.5 + 1e-9:
            return -math.inf
        resid = value - x_star[pair[1]]
        total += -(resid * resid) / (2.0 * sigma * sigma) + norm
    return total


def profiled_paper_qualities(dataset: ReviewDataset, values) -> dict[str, float]:
    """Per-paper quality maximizing the joint log-likelihood: the mean of the
    paper's review values ``values``, aligned with the dataset's reviews."""
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for (r, p), value in zip(dataset.pairs(), values):
        sums[p] = sums.get(p, 0.0) + value
        counts[p] = counts.get(p, 0) + 1
    return {p: sums[p] / counts[p] for p in sums}
