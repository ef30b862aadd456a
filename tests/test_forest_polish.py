"""The polish: an active set polished on the spanning forest of its rows,
with conjugate gradient on the reduced system, checked against the KKT
conditions (``kkt_check``) and against ``certify``."""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

from deqscores import qp
from deqscores.dequantize import compile_dataset
from deqscores.model import ReviewDataset, ScoreScale
from deqscores.qp import QPProblem, solve
from deqscores.qv import LAMBDA_GRID, coarsen, lambda_path
from deqscores.synth import SynthConfig, generate, trial_seed

from oracles import MatrixOperator, build_problem, certify, dense_quadratic, kkt_check


def scaled(problem):
    """(Q, c) as ``qp.solve`` polishes them: divided by max(1, max diag(Q) / 2)."""
    scale = max(1.0, float(problem.quadratic.diagonal().max()) / 2.0)
    return problem.quadratic.scaled(1.0 / scale), problem.linear / scale


def certified(problem, y) -> bool:
    """``certify``'s verdict: residuals within 1e-9, rows within 1e-9 of a
    bound counted active."""
    certificate = certify(problem, y)
    return max(certificate.primal, certificate.stationarity, certificate.complementarity) <= 1e-9


def counted(monkeypatch, name):
    """Replace ``qp.<name>`` by a wrapper that records its arguments and result."""
    calls = []
    original = getattr(qp, name)

    def recorded(Q, c, constraints, signs):
        result = original(Q, c, constraints, signs)
        calls.append((Q, c, constraints, np.array(signs), result))
        return result

    monkeypatch.setattr(qp, name, recorded)
    return calls


def tie_block(a):
    """One reviewer, r0, scores papers A0..A{a-1} 6 and C0..C{a-1} 5 on a
    ten-level scale, so on the coarse scale all tie at 3 and the original
    scores rank every A over every C: the a^2 pair rows of a K_{a,a}. One
    other review per paper pulls the A papers down to 4 and the C papers up
    to 5 or 8, alternately."""
    raw = {}
    for p in range(a):
        raw.update({("r0", f"A{p}"): 6, ("r0", f"C{p}"): 5})
        raw.update({(f"r{1 + p}", f"A{p}"): 4, (f"r{1 + a + p}", f"C{p}"): (5, 8)[p % 2]})
    return coarsen(ReviewDataset.from_records(ScoreScale(1, 10), raw))


def reduced_system():
    """(problem, signs): variables 0-2 form one free component through three
    pair rows, one of them closing a cycle; 3 and 4 are fixed through 3's
    box row; 5 is free alone. Q couples them all, so the fixed component's
    offset enters the free components' right-hand side."""
    rng = np.random.default_rng(7)
    m = rng.normal(size=(6, 6))
    problem = build_problem(
        m @ m.T + 6.0 * np.eye(6), rng.normal(size=6),
        [(0, 1, 0.1), (1, 2, 0.2), (0, 2, 0.3), (3, 4, 0.5)], np.zeros(6), np.full(6, 10.0),
    )
    return problem, np.array([0, 0, 0, -1, 0, 0, -1, -1, -1, -1], dtype=np.int8)


def relabelled(problem, variable, pair_order):
    """The same QP with variable v renamed ``variable[v]`` and its pair rows
    taken in the order ``pair_order``, Q as a dense matrix."""
    inverse = np.argsort(variable)
    constraints = problem.constraints
    pairs = constraints.pair_constraints[pair_order]
    return QPProblem(
        MatrixOperator(dense_quadratic(problem)[np.ix_(inverse, inverse)]),
        problem.linear[inverse],
        qp.Constraints(
            constraints.box_lower[inverse],
            constraints.box_upper[inverse],
            qp.pair_rows(variable[pairs["i"]], variable[pairs["j"]], pairs["gap"]),
        ),
    )


class TestEachSetIsSolvedOrDeclined:
    """``kkt_check`` (and ``certify`` on small problems) decides: every
    polish solves the KKT system of its set, and a set the polish declines
    returns None, after which the solve still returns a certified
    minimizer."""

    def test_every_set_of_the_sweep_cell_paths(self, monkeypatch):
        # the 20 trial datasets of one seed-0 sweep cell (sigma 0.5, P=60),
        # coarsened as quantization validation solves them
        seen = counted(monkeypatch, "_polish")
        for trial in range(20):
            dataset = generate(SynthConfig(seed=trial_seed(0, trial))).dataset
            lambda_path(compile_dataset(coarsen(dataset), 0.05), LAMBDA_GRID)
        assert len(seen) > 20 * len(LAMBDA_GRID)  # proposals and their corrections
        verdicts = set()
        for Q, c, constraints, signs, polished in seen:
            assert polished is not None  # the polish takes every set of these paths
            check = kkt_check(QPProblem(Q, c, constraints), *polished[:2])
            # the KKT system of the set is solved, whether or not its
            # point is the minimizer
            assert check.stationarity <= 1e-12, check
            verdicts.add(check.certifies())
        assert verdicts == {True, False}  # some proposals needed a correction

    def test_closing_rows_whose_bounds_disagree_are_declined(self, monkeypatch):
        # y0 - y1 = 0.1 and y0 - y1 = 0.2 close a cycle no point satisfies:
        # the polish declines the set and the solve iterates
        problem = build_problem(
            2.0 * np.eye(2), [-10.0, -10.0], [(0, 1, 0.1), (0, 1, 0.2)], [4.5, 4.5], [5.5, 5.5]
        )
        signs = np.array([0, 0, -1, -1], dtype=np.int8)
        assert qp._polish(*scaled(problem), problem.constraints, signs) is None
        polished = counted(monkeypatch, "_polish")
        solution = solve(problem, active=signs)
        assert polished[0][3].tolist() == signs.tolist() and polished[0][4] is None
        assert solution.iterations > 0 and certified(problem, solution.values)

    def test_a_declined_set_leaves_the_solve_to_iterate(self, monkeypatch):
        # a conjugate gradient that stops at the step cap, the reduced
        # system's or the cycle space's: the polish declines the set, and
        # the solve iterates to the minimizer it certifies unpatched
        compiled = compile_dataset(tie_block(2), 0.05)
        n = compiled.constraints.n
        signs = np.zeros(n + 4, dtype=np.int8)
        signs[n:] = -1
        problem = compiled.problem(1.0)
        Q, c = scaled(problem)
        assert qp._polish(Q, c, compiled.constraints, signs) is not None
        expected = solve(problem, active=signs)
        assert expected.iterations == 0 and certified(problem, expected.values)
        pcg = qp._pcg

        def stalled(system):
            # the conjugate gradient on ``system`` reports the step cap
            def cg(K, inv_diag, b, x0, tolerance=qp._CG_TOLERANCE):
                x, steps = pcg(K, inv_diag, b, x0, tolerance)
                return x, qp._CG_MAX_STEPS if system(b, tolerance) else steps

            return cg

        for name, system in (
            ("reduced", lambda b, tolerance: tolerance == qp._FOREST_CG_TOLERANCE),
            # the one closing row's: the x-update has 8 unknowns, the reduced system 5
            ("cycle space", lambda b, tolerance: b.size == 1),
        ):
            with monkeypatch.context() as patch:
                patch.setattr(qp, "_pcg", stalled(system))
                compiled.constraints.last_forest.clear()
                assert qp._polish(Q, c, compiled.constraints, signs) is None, name
                solution = solve(problem, active=signs)
                assert solution.iterations > 0, name
                assert np.max(np.abs(solution.values - expected.values)) <= 1e-9, name
                assert certified(problem, solution.values), name

    def test_a_repeated_row_with_the_same_bound_is_the_forests(self):
        # the second row closes a cycle that agrees: its multiplier shares the load
        problem = build_problem(
            2.0 * np.eye(2), [-10.0, -10.0], [(0, 1, 0.1), (0, 1, 0.1)], [4.5, 4.5], [5.5, 5.5]
        )
        signs = np.array([0, 0, -1, -1], dtype=np.int8)
        Q, c = scaled(problem)
        x, w, _ = qp._polish(Q, c, problem.constraints, signs)
        assert np.allclose(x, [5.05, 4.95], rtol=0, atol=1e-12)
        assert w[2] == w[3] < 0  # the minimum-norm split
        assert kkt_check(QPProblem(Q, c, problem.constraints), x, w).certifies()
        solution = solve(problem, active=signs)
        assert solution.iterations == 0 and np.array_equal(solution.values, x)


class TestCycleSpaceStep:
    def test_a_k22_tie_block_is_certified_with_sign_correct_multipliers(self):
        dataset = tie_block(2)
        compiled = compile_dataset(dataset, 0.05)
        constraints = compiled.constraints
        n = constraints.n
        assert [tuple(row)[:2] for row in constraints.pair_constraints] == [
            (0, 2), (0, 3), (1, 2), (1, 3)
        ]  # A0 > C0, A0 > C1, A1 > C0, A1 > C1
        problem = compiled.problem(1.0)
        signs = np.zeros(n + 4, dtype=np.int8)
        signs[n:] = -1  # all four pair rows tight
        Q, c = scaled(problem)
        x, w, _ = qp._polish(Q, c, constraints, signs)
        lower = np.flatnonzero(signs < 0)
        forest = qp._forest(constraints, lower, np.zeros(0, dtype=np.int64))
        assert forest.closing.tolist() == [n + 3]  # A1 > C1 closes the cycle
        # the tree rows alone would carry a multiplier of the wrong sign
        assert np.max(forest.tree_multipliers(-(Q @ x + c))) > 0.1
        assert np.all(w[n:] < -0.05)
        assert kkt_check(QPProblem(Q, c, constraints), x, w).certifies()
        solution = solve(problem, active=signs)
        assert solution.iterations == 0 and np.array_equal(solution.active, signs)
        assert np.array_equal(solution.values, x)
        assert certified(problem, x)

    @pytest.mark.parametrize("a", [20, 150])
    def test_a_tie_block_of_any_size_is_certified(self, a):
        # a K_{a,a} closes (a - 1)^2 rows, 361 and 22 201: B holds about
        # three nonzeros per closing row, where a dense I + B'B alone would
        # be 8 (a - 1)^4 bytes, 3.9 GB at a = 150
        compiled = compile_dataset(tie_block(a), 0.05)
        constraints = compiled.constraints
        n = constraints.n
        signs = np.zeros(n + a * a, dtype=np.int8)
        signs[n:] = -1  # all a^2 pair rows tight
        problem = compiled.problem(1.0)
        tracemalloc.start()
        try:
            proposed = solve(problem, active=signs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert proposed.iterations == 0 and np.array_equal(proposed.active, signs)
        assert peak <= 32 * 2**20, peak
        assert constraints.last_forest["forest"].forest.closing.size == (a - 1) ** 2
        Q, c = scaled(problem)
        x, w, _ = qp._polish(Q, c, constraints, signs)
        assert np.array_equal(x, proposed.values)
        assert kkt_check(QPProblem(Q, c, constraints), x, w).certifies()
        # a cold solve returns a polished point, not the unpolished iterate,
        # whose primal residual is of the iteration's size (about 1e-11)
        constraints.last_forest.clear()
        cold = solve(problem)
        assert cold.residuals[0] <= 1e-14
        assert np.array_equal(qp._polish(Q, c, constraints, cold.active)[0], cold.values)
        assert np.max(np.abs(cold.values - x)) <= 1e-12


class TestReducedSystem:
    def test_the_polish_is_the_dense_null_space_solve(self):
        problem, signs = reduced_system()
        quadratic, c = dense_quadratic(problem), problem.linear
        forest = qp._forest(problem.constraints, np.flatnonzero(signs < 0), np.zeros(0, np.int64))
        assert forest.slot.tolist() == [0, 0, 0, 2, 2, 1]
        assert forest.closing.size == 1 and 6 <= forest.closing[0] <= 8
        x, w, _ = qp._polish(problem.quadratic, c, problem.constraints, signs)

        # the held rows: 3's box at its lower bound 0, then the four pair rows
        held = np.flatnonzero(signs < 0)
        a_held = np.zeros((5, 6))
        a_held[0, 3] = 1.0
        for row, (i, j) in enumerate([(0, 1), (1, 2), (0, 2), (3, 4)], start=1):
            a_held[row, i], a_held[row, j] = 1.0, -1.0
        bound = np.array([0.0, 0.1, 0.2, 0.3, 0.5])
        particular = np.linalg.lstsq(a_held, bound, rcond=None)[0]
        _, singular, vt = np.linalg.svd(a_held)
        z = vt[np.sum(singular > 1e-10):].T  # an orthonormal null-space basis
        t = np.linalg.solve(z.T @ quadratic @ z, -z.T @ (quadratic @ particular + c))
        expected = particular + z @ t
        assert np.max(np.abs(x - expected)) <= 1e-12
        # the cycle-space step gives the minimum-norm multipliers
        w_expected = np.linalg.lstsq(a_held.T, -(quadratic @ expected + c), rcond=None)[0]
        assert np.max(np.abs(w[held] - w_expected)) <= 1e-12
        assert not np.any(np.delete(w, held))

    def test_the_polish_does_not_depend_on_the_spanning_tree(self):
        # renaming the variables and reordering the pair rows changes which
        # rows the forest takes, never the polished x or the minimum-norm w
        rng = np.random.default_rng(0)
        k22 = compile_dataset(tie_block(2), 0.05)
        k22_signs = np.zeros(k22.constraints.n + 4, dtype=np.int8)
        k22_signs[k22.constraints.n:] = -1
        k22_problem = QPProblem(*scaled(k22.problem(1.0)), k22.constraints)
        for problem, signs in (reduced_system(), (k22_problem, k22_signs)):
            n, m = problem.n, problem.pair_constraints.size
            x, w, _ = qp._polish(problem.quadratic, problem.linear, problem.constraints, signs)
            closing = set()
            for _ in range(8):
                variable, pair_order = rng.permutation(n), rng.permutation(m)
                moved = relabelled(problem, variable, pair_order)
                moved_signs = np.concatenate([signs[np.argsort(variable)], signs[n + pair_order]])
                moved_x, moved_w, _ = qp._polish(
                    moved.quadratic, moved.linear, moved.constraints, moved_signs
                )
                assert np.max(np.abs(moved_x[variable] - x)) <= 1e-12
                back = np.concatenate([moved_w[variable], np.zeros(m)])
                back[n + pair_order] = moved_w[n:]
                assert np.max(np.abs(back - w)) <= 1e-12
                (row,) = moved.constraints.last_forest["forest"].forest.closing
                closing.add(int(pair_order[row - n]))
            assert len(closing) > 1  # the renamings gave other spanning trees


class TestDeepForest:
    def test_an_all_binding_chain_is_polished_in_linear_memory(self):
        # one ranking of 4 000 variables with every pair row binding: the
        # forest is one path, 3 999 levels deep. The middle multipliers are
        # about n^2 eps / 4, and kkt_check's complementarity is |w| times a
        # slack of rounding size, so eps = 0.01 keeps it within 1e-9
        n, eps = 4000, 0.01
        problem = build_problem(
            2.0 * sp.identity(n), np.zeros(n), [(k, k + 1, eps) for k in range(n - 1)],
            np.full(n, -1e3), np.full(n, 1e3),
        )
        tracemalloc.start()
        try:
            solution = solve(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expected = ((n - 1) / 2 - np.arange(n)) * eps
        assert np.max(np.abs(solution.values - expected)) <= 1e-9
        assert peak <= 16 * 2**20, peak
        Q, c = scaled(problem)
        x, w, _ = qp._polish(Q, c, problem.constraints, solution.active)
        assert kkt_check(QPProblem(Q, c, problem.constraints), x, w).certifies()


class TestKKTCheck:
    @pytest.mark.parametrize(
        "num_papers, seed", [(60, 0), (60, 1), (60, 2), (600, 0), (3000, 0)]
    )
    def test_every_forest_polished_path_step(self, num_papers, seed):
        # w comes from re-polishing the step's set, which gives its values again
        dataset = generate(SynthConfig(num_papers=num_papers, seed=seed)).dataset
        compiled = compile_dataset(coarsen(dataset), 0.05)
        for lam, solution in zip(LAMBDA_GRID, lambda_path(compiled, LAMBDA_GRID)):
            problem = compiled.problem(lam)
            Q, c = scaled(problem)
            polished = qp._polish(Q, c, compiled.constraints, solution.active)
            # no step falls back to the unpolished iterate
            assert polished is not None and np.array_equal(polished[0], solution.values), lam
            check = kkt_check(QPProblem(Q, c, compiled.constraints), *polished[:2])
            assert check.certifies(), (lam, check)
            if num_papers == 60:  # where certify's dense NNLS is affordable
                assert certified(problem, solution.values), lam

    @pytest.mark.parametrize("num_papers, lam", [(600, np.exp(3.0)), (1500, 1.0)])
    def test_a_cold_solve_is_forest_polished(self, num_papers, lam):
        # a cold solve's check polishes on the forest as a path step does,
        # re-polishing the returned set gives the returned values again, and
        # ``kkt_check`` certifies them
        problem = compile_dataset(
            generate(SynthConfig(num_papers=num_papers, seed=0)).dataset, 0.05
        ).problem(lam)
        solution = solve(problem)
        assert solution.iterations > 0
        Q, c = scaled(problem)
        x, w, _ = qp._polish(Q, c, problem.constraints, solution.active)
        assert np.array_equal(x, solution.values)
        check = kkt_check(QPProblem(Q, c, problem.constraints), x, w)
        assert check.certifies(), check

    def test_a_moved_point_fails_it_as_certify_does(self):
        dataset = generate(SynthConfig(num_papers=60, seed=0)).dataset
        compiled = compile_dataset(coarsen(dataset), 0.05)
        solution = lambda_path(compiled, LAMBDA_GRID[:1])[0]
        problem = compiled.problem(LAMBDA_GRID[0])
        Q, c = scaled(problem)
        x, w, _ = qp._polish(Q, c, compiled.constraints, solution.active)
        moved = x.copy()
        moved[0] += 1e-3
        assert not kkt_check(QPProblem(Q, c, compiled.constraints), moved, w).certifies()
        assert not certified(problem, moved)

    def test_a_wrong_sign_or_a_slack_row_with_a_multiplier_fails(self):
        problem = build_problem(2.0 * np.eye(2), [-10.0, -10.0], [(0, 1, 0.1)], [4.5, 4.5], [5.5, 5.5])
        Q, c = scaled(problem)
        x, w, _ = qp._polish(Q, c, problem.constraints, np.array([0, 0, -1], dtype=np.int8))
        scaled_problem = QPProblem(Q, c, problem.constraints)
        assert kkt_check(scaled_problem, x, w).certifies()
        assert kkt_check(scaled_problem, x, -w).sign > 0  # a pair row pushed towards +inf
        assert not kkt_check(scaled_problem, x + np.array([0.01, 0.0]), w).certifies()


class TestForestMemo:
    """A polish on the same constraints and rows at each bound as the polish
    before it reuses that polish's forest, whatever its Q."""

    def test_a_repeated_set_builds_its_forest_once(self, monkeypatch):
        compiled = compile_dataset(generate(SynthConfig(num_papers=60, seed=0)).dataset, 0.05)
        signs = solve(compiled.problem(1.0)).active
        compiled.constraints.last_forest.clear()  # the solve's own polish left its forest
        built = []
        forest = qp._forest
        monkeypatch.setattr(qp, "_forest", lambda *args: built.append(1) or forest(*args))
        polished = [
            qp._polish(*scaled(compiled.problem(lam)), compiled.constraints, signs)
            for lam in LAMBDA_GRID[:5]
        ]
        assert len(built) == 1
        # reused or built afresh, the forest gives the same polish
        for lam, (x, w, _) in zip(LAMBDA_GRID[:5], polished):
            compiled.constraints.last_forest.clear()
            fresh_x, fresh_w, _ = qp._polish(
                *scaled(compiled.problem(lam)), compiled.constraints, signs
            )
            assert np.array_equal(x, fresh_x) and np.array_equal(w, fresh_w)

    def test_problems_of_other_patterns_share_the_forest_of_their_set(self, monkeypatch):
        # the forest depends on the constraints and the active set alone: a
        # diagonal Q and a coupled one on the same constraints and set build
        # one forest, and both polishes are certified
        constraints = build_problem(
            np.eye(2), [0.0, 0.0], [(0, 1, 0.1)], [4.5, 4.5], [5.5, 5.5]
        ).constraints
        signs = np.array([0, 0, -1], dtype=np.int8)
        built = []
        forest = qp._forest
        monkeypatch.setattr(qp, "_forest", lambda *args: built.append(1) or forest(*args))
        for quadratic in (2.0 * np.eye(2), np.array([[2.0, -0.5], [-0.5, 2.0]])):
            problem = QPProblem(MatrixOperator(quadratic), -quadratic @ [5.0, 5.0], constraints)
            polished = qp._polish(problem.quadratic, problem.linear, constraints, signs)
            assert kkt_check(problem, *polished[:2]).certifies()
        assert len(built) == 1

    def test_threads_sharing_constraints_get_the_serial_polishes(self):
        # the memo is shared state: threads that keep replacing each other's
        # forest must still polish exactly as one thread does
        compiled = compile_dataset(generate(SynthConfig(num_papers=60, seed=0)).dataset, 0.05)
        sets = [solve(compiled.problem(lam)).active for lam in (LAMBDA_GRID[0], LAMBDA_GRID[-1])]
        assert not np.array_equal(*sets)
        jobs = [(lam, signs) for lam in LAMBDA_GRID[::4] for signs in sets]

        def polish(job):
            lam, signs = job
            return qp._polish(*scaled(compiled.problem(lam)), compiled.constraints, signs)

        expected = [polish(job) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                for _ in range(5):
                    for (x, w, _), (ex, ew, _) in zip(pool.map(polish, jobs, timeout=60), expected):
                        assert np.array_equal(x, ex) and np.array_equal(w, ew)
        finally:
            sys.setswitchinterval(interval)
