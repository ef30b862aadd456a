
import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from deqscores import qp
from deqscores.dequantize import compile_dataset, consistency_report
from deqscores.qp import (
    PAIR_ROW,
    Constraints,
    InfeasibleProblem,
    MaxIterationsExceeded,
    check_feasibility,
    solve,
)
from deqscores.qv import LAMBDA_GRID, coarsen, lambda_path
from deqscores.synth import SynthConfig, generate

from conftest import make_dataset, score_records
from oracles import (
    DimensionTooLarge,
    brute_force_minimize,
    build_problem,
    certify,
    constraint_violation,
    feasibility_reference,
    objective,
    score_only_closed_form,
)


def single_variable_problem():
    # fit-only objective (y - 7)^2 - 49 with box [6.5, 7.5]
    return build_problem([[2.0]], [-14.0], [], [6.5], [7.5])


def two_variable_pair_problem():
    # (y1-5)^2 + (y2-5)^2 - 50 with y1 - y2 >= 0.05 and boxes [4.5, 5.5]
    return build_problem(2.0 * np.eye(2), [-10.0, -10.0], [(0, 1, 0.05)], [4.5, 4.5], [5.5, 5.5])


def feasible(problem) -> bool:
    try:
        check_feasibility(problem.constraints)
    except InfeasibleProblem:
        return False
    return True


def random_problem(rng, n, with_pairs=True):
    while True:
        m = rng.normal(size=(n, n))
        quadratic = m @ m.T + 0.3 * np.eye(n)
        linear = rng.normal(size=n)
        lo = rng.uniform(-1.0, 0.0, n)
        hi = lo + rng.uniform(0.5, 2.0, n)
        pairs = []
        if with_pairs and n >= 2 and rng.random() < 0.8:
            pairs.append((0, 1, float(rng.uniform(0.0, 0.2))))
        if with_pairs and n >= 3 and rng.random() < 0.5:
            pairs.append((1, 2, float(rng.uniform(0.0, 0.2))))
        problem = build_problem(quadratic, linear, pairs, lo, hi)
        if feasible(problem):
            return problem


def every_row_at(problem, sign):
    """The proposed active set holding every stacked row at its lower bound
    (-1), its upper bound (+1) or none of them (0)."""
    return np.full(problem.constraints.rows.lower.shape, sign, dtype=np.int8)


class TestSolve:
    def test_unconstrained_interior_minimum(self):
        problem = single_variable_problem()
        solution = solve(problem)
        assert solution.values == pytest.approx([7.0], abs=1e-8)
        assert objective(problem, solution.values) + 49.0 == pytest.approx(0.0, abs=1e-10)

    def test_symmetric_pair_split(self):
        solution = solve(two_variable_pair_problem())
        assert solution.values == pytest.approx([5.025, 4.975], abs=1e-7)

    def test_residuals_meet_settings(self):
        solution = solve(two_variable_pair_problem())
        primal, stationarity = solution.residuals
        assert primal <= 1e-6
        assert stationarity <= qp.OPTIMALITY_TOLERANCE

    def test_uniqueness_across_starting_points(self):
        rng = np.random.default_rng(3)
        problem = random_problem(rng, 4)
        a = solve(problem, active=every_row_at(problem, -1))
        b = solve(problem, active=every_row_at(problem, 1))
        assert np.max(np.abs(a.values - b.values)) <= 10 * qp.OPTIMALITY_TOLERANCE

    def test_kkt_gradient_in_active_cone(self):
        # with every constraint written a.y >= b, stationarity makes the
        # gradient a nonnegative combination of the active normals a
        problem = two_variable_pair_problem()
        solution = solve(problem)
        y = solution.values
        gradient = problem.quadratic @ y + problem.linear
        constraints = problem.constraints
        columns = []
        for i in range(problem.n):
            if y[i] <= constraints.box_lower[i] + 1e-6:
                col = np.zeros(problem.n)
                col[i] = 1.0
                columns.append(col)
            if y[i] >= constraints.box_upper[i] - 1e-6:
                col = np.zeros(problem.n)
                col[i] = -1.0
                columns.append(col)
        for i, j, gap in problem.pair_constraints:
            if y[i] - y[j] <= gap + 1e-6:
                col = np.zeros(problem.n)
                col[i] = 1.0
                col[j] = -1.0
                columns.append(col)
        basis = np.column_stack(columns) if columns else np.zeros((problem.n, 0))
        _, residual = scipy.optimize.nnls(basis, gradient)
        assert residual <= 1e-6

    def test_monotone_box_tightening(self):
        problem = two_variable_pair_problem()
        before = solve(problem).values
        shrunk = build_problem(
            problem.quadratic, problem.linear, problem.pair_constraints, before - 0.1, before + 0.1
        )
        after = solve(shrunk).values
        assert np.max(np.abs(after - before)) <= 1e-7

    def test_max_iterations_raises(self, monkeypatch):
        rng = np.random.default_rng(5)
        problem = random_problem(rng, 4)
        monkeypatch.setattr(qp, "MAX_ITERATIONS", 20)
        monkeypatch.setattr(qp, "OPTIMALITY_TOLERANCE", 1e-16)
        with pytest.raises(MaxIterationsExceeded):
            solve(problem)

    def test_a_correction_certifies_where_the_first_polish_fails(self, monkeypatch):
        # found by search: at the first check, the polish on the iterate's own
        # active set fails the certificate and its first correction passes it
        problem = compile_dataset(
            generate(SynthConfig(num_papers=60, seed=0)).dataset, 0.05
        ).problem(0.1)
        polished_on = []
        polish = qp._polish

        def recorded(Q, c, constraints, signs):
            polished_on.append(np.array(signs))
            return polish(Q, c, constraints, signs)

        monkeypatch.setattr(qp, "_polish", recorded)
        solution = solve(problem)
        assert solution.iterations == 25
        assert len(polished_on) == 2 and np.array_equal(solution.active, polished_on[1])
        certificate = certify(problem, solution.values)
        assert certificate.primal <= 1e-9
        assert certificate.stationarity <= 1e-9
        assert certificate.complementarity <= 1e-9

    def test_infeasible_raises_before_iterating(self):
        problem = build_problem(
            2.0 * np.eye(2), [0.0, 0.0], [(0, 1, 3.0)], [0.0, 0.0], [1.0, 1.0]
        )
        with pytest.raises(InfeasibleProblem):
            solve(problem)

    def test_large_fit_weight_stays_accurate(self):
        lam = 1e6
        quadratic = 2.0 * lam * np.eye(2) + np.array([[1.0, -1.0], [-1.0, 1.0]])
        z = np.array([5.0, 5.0])
        problem = build_problem(quadratic, -2.0 * lam * z, [(0, 1, 0.05)], z - 0.5, z + 0.5)
        solution = solve(problem)
        assert solution.values == pytest.approx([5.025, 4.975], abs=1e-6)

    def test_slow_progress_rebalances_rho(self, monkeypatch):
        # found by search: at a tiny fit weight no check before iteration
        # 2000 certifies a point, the residuals are out of balance there, and
        # the x-update system is built again with a new rho
        problem = compile_dataset(
            generate(SynthConfig(num_papers=120, seed=4, sigma=0.0)).dataset, 0.05
        ).problem(1e-6)
        rhos = []
        build = qp._x_update_system

        def recorded(Q, sigma, rho, AtA):
            rhos.append(rho)
            return build(Q, sigma, rho, AtA)

        monkeypatch.setattr(qp, "_x_update_system", recorded)
        solution = solve(problem)
        assert solution.iterations > 2000
        assert len(rhos) == 2 and rhos[1] != rhos[0]
        certificate = certify(problem, solution.values)
        assert certificate.primal <= 1e-9
        assert certificate.stationarity <= 1e-9
        assert certificate.complementarity <= 1e-9


class TestWarmStart:
    """A previous solution's active set is tried first, never trusted."""

    @pytest.fixture(scope="class")
    def problem(self):
        dataset = generate(SynthConfig(num_papers=60, seed=0)).dataset
        return compile_dataset(dataset, 0.05).problem(1.0)

    def test_own_active_set_is_certified_without_iterating(self, problem):
        cold = solve(problem)
        warm = solve(problem, active=cold.active)
        assert (warm.iterations, warm.cg_iterations) == (0, 0)
        assert np.max(np.abs(warm.values - cold.values)) <= 1e-9

    @pytest.mark.parametrize("guess", [-1, 1, 0], ids=["all-lower", "all-upper", "none"])
    def test_wrong_active_set_falls_back_to_iterating(self, problem, guess, monkeypatch):
        # a wrong set falls back first to at most PDAS_CORRECTIONS corrected
        # polishes, then to the ADMM loop, which runs as in a solve given no set
        cold = solve(problem)
        calls = {"polish": 0, "before_iterating": None}
        polish, x_update_system = qp._polish, qp._x_update_system

        def counted_polish(*args):
            calls["polish"] += 1
            return polish(*args)

        def iterating(*args):  # the solve builds this system before its first iteration
            if calls["before_iterating"] is None:
                calls["before_iterating"] = calls["polish"]
            return x_update_system(*args)

        monkeypatch.setattr(qp, "_polish", counted_polish)
        monkeypatch.setattr(qp, "_x_update_system", iterating)
        warm = solve(problem, active=every_row_at(problem, guess))
        polishes_first = calls["polish"] if warm.iterations == 0 else calls["before_iterating"]
        assert 1 <= polishes_first <= 1 + qp.PDAS_CORRECTIONS
        if guess != 0:  # these wrong sets are not corrected in time: the ADMM loop finds the point
            assert warm.iterations > 0
        if warm.iterations > 0:  # a failed proposal costs only its polishes
            assert np.array_equal(warm.values, cold.values)
            assert warm.cg_iterations == cold.cg_iterations
        assert np.max(np.abs(warm.values - cold.values)) <= 1e-9
        primal, stationarity = warm.residuals
        assert primal <= 1e-6
        assert stationarity <= qp.OPTIMALITY_TOLERANCE

    def test_active_set_of_other_constraints_rejected(self, problem):
        other = solve(two_variable_pair_problem())
        with pytest.raises(ValueError, match="active set"):
            solve(problem, active=other.active)


@pytest.fixture(scope="module")
def large_dataset():
    """A default synthetic instance at P=1500: n = 6 000 reviews."""
    return generate(SynthConfig(num_papers=1500, seed=11)).dataset


class TestLargeScale:
    """The x-update at a scale where a sparse LU of it fills in heavily."""

    def test_ranking_free_matches_closed_form(self, large_dataset):
        # an independent certificate at n = 6 000: without rankings the
        # minimizer has an exact per-paper form
        dataset = make_dataset(score_records(large_dataset))
        lam = 1.0
        solution = solve(compile_dataset(dataset, 0.05).problem(lam))
        expected = score_only_closed_form(dataset, lam)
        assert np.max(np.abs(solution.values - expected)) <= 1e-7

    def test_ranked_solve_is_start_independent_and_consistent(self, large_dataset):
        problem = compile_dataset(large_dataset, 0.05).problem(1.0)
        a = solve(problem, active=every_row_at(problem, -1))
        b = solve(problem, active=every_row_at(problem, 1))
        assert np.max(np.abs(a.values - b.values)) <= 1e-9
        box_violation, margin = consistency_report(large_dataset, a.values)
        assert box_violation <= 1e-6
        assert margin >= 0.05 - 1e-6

    @pytest.mark.parametrize("num_papers", [60, 1500])
    def test_few_cg_steps_per_iteration(self, num_papers):
        dataset = generate(SynthConfig(num_papers=num_papers, seed=11)).dataset
        solution = solve(compile_dataset(dataset, 0.05).problem(1.0))
        assert solution.cg_iterations <= 20 * solution.iterations


class TestCheckFeasibility:
    def test_short_chain_fits_in_shared_box(self):
        problem = build_problem(
            2.0 * np.eye(4),
            np.zeros(4),
            [(0, 1, 0.05), (1, 2, 0.05), (2, 3, 0.05)],
            np.zeros(4),
            np.ones(4),
        )
        assert check_feasibility(problem.constraints) == pytest.approx([0.15, 0.1, 0.05, 0.0])

    def test_long_tied_chain_overflows_box(self):
        n = 22
        pairs = [(i, i + 1, 0.05) for i in range(n - 1)]
        problem = build_problem(2.0 * np.eye(n), np.zeros(n), pairs, np.zeros(n), np.ones(n))
        with pytest.raises(InfeasibleProblem, match="overflow the boxes") as info:
            check_feasibility(problem.constraints)
        assert info.value.chain == list(range(n))  # the whole chain is named

    def test_two_cycle_raises(self):
        # rows y_0 >= y_1 + 0.05 and y_1 >= y_0 + 0.05 admit no point; the
        # rounds stop after n + 1, however far the bounds could still rise
        n = 5_000
        pairs = np.array([(0, 1, 0.05), (1, 0, 0.05)], dtype=PAIR_ROW)
        constraints = Constraints(np.zeros(n), np.full(n, 1e9), pairs)
        with pytest.raises(InfeasibleProblem, match="positive-gap cycle") as info:
            check_feasibility(constraints)
        assert info.value.chain == []

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_row_by_row_reference(self, data):
        # small acyclic sets over mixed scores, with one gap for every row or
        # a gap per row. Gaps are multiples of 1/64, so chain sums are exact
        # and equal sums tie exactly. Inexact gaps can leave two chains' sums
        # one rounding apart; the reference ignores rises of 1e-15 or less
        # and may keep the smaller, where the array pass keeps the larger
        n = data.draw(st.integers(2, 7))
        order = data.draw(st.permutations(range(n)))  # best first
        z = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), float)
        positions = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        edges = data.draw(st.lists(positions.map(sorted), max_size=3 * n))
        sixty_fourths = st.integers(3, 26)
        if data.draw(st.booleans()):
            gaps = [data.draw(sixty_fourths)] * len(edges)
        else:
            gaps = data.draw(st.lists(sixty_fourths, min_size=len(edges), max_size=len(edges)))
        rows = [(order[a], order[b], k / 64) for (a, b), k in zip(edges, gaps)]
        constraints = Constraints(z - 0.5, z + 0.5, np.array(rows, dtype=PAIR_ROW))

        try:
            reference = feasibility_reference(constraints)
        except InfeasibleProblem:
            reference = None
        if reference is not None:
            assert np.array_equal(check_feasibility(constraints), reference)
            return
        with pytest.raises(InfeasibleProblem) as info:
            check_feasibility(constraints)
        # the chain proves the set empty: its rows' gaps, added up from its
        # last variable's box, overflow its first variable's box
        gap = {}
        for i, j, g in rows:
            gap[(i, j)] = max(g, gap.get((i, j), g))
        chain = info.value.chain
        total = constraints.box_lower[chain[-1]]
        for i, j in reversed(list(zip(chain, chain[1:]))):
            assert (i, j) in gap
            total += gap[(i, j)]
        assert total > constraints.box_upper[chain[0]] + 1e-12

    def test_tied_chains_witness_takes_the_first_tight_row(self):
        # y_0 reaches 1.5 along 0 > 1 > 3 and along 0 > 2; the row-by-row
        # reference names the chain it raised y_0 with last, the array pass
        # the first tight row's
        pairs = np.array([(0, 1, 0.75), (1, 3, 0.75), (0, 2, 1.5)], dtype=PAIR_ROW)
        constraints = Constraints(np.zeros(4), np.ones(4), pairs)
        for check, chain in ((check_feasibility, [0, 1, 3]), (feasibility_reference, [0, 2])):
            with pytest.raises(InfeasibleProblem) as info:
                check(constraints)
            assert info.value.chain == chain

    def test_tightened_lower_point_is_feasible(self):
        problem = build_problem(
            2.0 * np.eye(3),
            np.zeros(3),
            [(0, 1, 0.3), (1, 2, 0.3)],
            np.zeros(3),
            np.ones(3),
        )
        assert constraint_violation(problem, check_feasibility(problem.constraints)) == 0.0


class TestBruteForce:
    def test_matches_analytic_single_variable(self):
        solution = brute_force_minimize(single_variable_problem(), 1e-3)
        assert solution.values == pytest.approx([7.0], abs=1e-3)

    def test_matches_solve_on_pair_example(self):
        problem = two_variable_pair_problem()
        oracle = brute_force_minimize(problem, 1e-3)
        exact = solve(problem)
        assert abs(objective(problem, oracle.values) - objective(problem, exact.values)) <= 1e-5

    def test_oracle_agreement_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            problem = random_problem(rng, 3)
            exact = objective(problem, solve(problem).values)
            oracle = objective(problem, brute_force_minimize(problem, 1e-3).values)
            assert exact <= oracle + 1e-5
            assert abs(exact - oracle) <= 1e-5

    def test_rejects_large_dimensions(self):
        problem = build_problem(
            2.0 * np.eye(7), np.zeros(7), [], np.zeros(7), np.ones(7)
        )
        with pytest.raises(DimensionTooLarge):
            brute_force_minimize(problem)


@st.composite
def small_problems(draw):
    """A strictly convex QP on 2-7 variables whose data are multiples of
    1/64, so that its degenerate cases are exact. Every box and pair row
    holds a reference point p; the unconstrained minimizer is p itself or
    another point. Pair rows run from higher to lower p (no cycle) and are
    tight at p, slack at p, or weakly active: their gap is the unconstrained
    minimizer's difference. A chain may be pinned at both ends: its members
    share one box and its gaps sum exactly to that box's width."""
    n = draw(st.integers(2, 7))
    sixty_fourths = st.lists(st.integers(-64, 64), min_size=n, max_size=n)
    p = np.array(draw(sixty_fourths)) / 64
    order = np.argsort(-p, kind="stable")
    off = np.zeros((n, n))
    above = np.triu_indices(n, 1)
    off[above] = draw(st.lists(st.integers(-2, 2), min_size=len(above[0]), max_size=len(above[0])))
    off += off.T
    margin = np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    quadratic = off + np.diag(np.abs(off).sum(axis=1) + margin)  # strictly diagonally dominant
    target = p if draw(st.booleans()) else np.array(draw(sixty_fourths)) / 64
    width = np.array(draw(st.lists(st.integers(1, 64), min_size=n, max_size=n)))
    below = np.array([draw(st.integers(0, w)) for w in width])  # 0 or w: p on a bound
    lower, upper = p - below / 64, p + (width - below) / 64

    rows = []
    chain = order[draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n).map(sorted))]
    if len(chain) >= 2 and p[chain[0]] > p[chain[-1]]:
        lower[chain], upper[chain] = p[chain[-1]], p[chain[0]]
        rows += [(i, j, p[i] - p[j]) for i, j in zip(chain, chain[1:])]
    positions = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True).map(sorted)
    for a, b in draw(st.lists(positions, max_size=2 * n)):
        i, j = order[a], order[b]
        kind = draw(st.sampled_from(["tight", "slack", "weak"]))
        if kind == "weak":
            rows.append((i, j, target[i] - target[j]))
        else:
            rows.append((i, j, p[i] - p[j] - (kind == "slack") * draw(st.integers(1, 16)) / 64))
    problem = build_problem(quadratic, -quadratic @ target, rows, lower, upper)
    assume(feasible(problem))  # only weak rows can empty the set
    return problem


def exactly_certified(problem, y) -> bool:
    certificate = certify(problem, y)
    return max(certificate.primal, certificate.stationarity, certificate.complementarity) <= 1e-9


def within_solver_tolerances(problem, y) -> bool:
    """Primal violation within ``qp.FEASTOL`` and stationarity within
    ``OPTIMALITY_TOLERANCE``, with every row within ``qp.FEASTOL`` of its
    bound counted active: what ``solve`` promises of any point it returns."""
    certificate = certify(problem, y, tolerance=qp.FEASTOL)
    return certificate.primal <= qp.FEASTOL and certificate.stationarity <= qp.OPTIMALITY_TOLERANCE


def active_rows_dependent(problem, y) -> bool:
    """Whether the rows within ``qp.FEASTOL`` of their bound at ``y`` are
    linearly dependent, so that their multipliers are not unique."""
    rows = problem.constraints.rows
    Ay = rows.A @ y
    normals = rows.A[(Ay - rows.lower <= qp.FEASTOL) | (rows.upper - Ay <= qp.FEASTOL)]
    return np.linalg.matrix_rank(normals.toarray()) < normals.shape[0]


class TestSmallProblemSweep:
    """Small generic problems, degenerate ones included, solved cold and from
    the empty active set: both certified by the KKT oracle, and equal.

    One class of draws is known to fall short: when the minimizer's active
    rows are linearly dependent (a chain pinned at both ends, a repeated
    row), the polish's multipliers are the minimum-norm ones, which can have
    wrong signs although sign-correct ones exist. No polish then passes the
    certificate, and the solve returns its ADMM iterate, which is within the
    solver's tolerances only. The two examples are such draws."""

    @settings(max_examples=200, deadline=None)
    @given(problem=small_problems())
    @example(problem=build_problem(
        [[3, 0, 0, -2], [0, 2, 0, 0], [0, 0, 4, 0], [-2, 0, 0, 4]],
        [3.53125, 1.0, 1.4375, -3.0625],
        [(0, 3, 0.328125), (3, 1, 0.609375), (1, 2, 0.21875), (3, 1, 0.46875),
         (0, 2, 1.15625), (0, 2, 1.15625)],
        [-0.4375] * 4, [0.71875] * 4,
    ))
    @example(problem=build_problem(
        [[2, 0], [0, 3]], [-2.0, 0.375],
        [(1, 0, 0.5625), (1, 0, -1.125), (1, 0, 0.3125), (1, 0, -1.125), (1, 0, -1.125)],
        [-0.46875] * 2, [0.09375] * 2,
    ))
    def test_cold_and_empty_set_starts_are_certified_and_agree(self, problem):
        solutions = [solve(problem), solve(problem, active=every_row_at(problem, 0))]
        if all(exactly_certified(problem, solution.values) for solution in solutions):
            assert np.max(np.abs(solutions[0].values - solutions[1].values)) <= 1e-9
            return
        for solution in solutions:
            assert within_solver_tolerances(problem, solution.values)
            assert active_rows_dependent(problem, solution.values)


class TestProblemConstruction:
    def test_problems_and_solutions_compare_by_identity(self):
        # they hold arrays, whose == is elementwise: equality is identity
        problem = two_variable_pair_problem()
        first, second = solve(problem), solve(problem)
        assert first == first and first != second
        assert problem.constraints != two_variable_pair_problem().constraints
        assert len({problem, problem, problem.constraints, two_variable_pair_problem()}) == 3
