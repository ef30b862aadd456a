"""The forest polish: a proposed active set polished on the spanning forest
of its rows, with conjugate gradient on the reduced system, checked against
the LU polish, against the KKT conditions and against ``certify``."""

import importlib
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from deqscores import qp
from deqscores.dequantize import compile_dataset, dequantize
from deqscores.model import ReviewDataset, ScoreScale
from deqscores.qp import QPProblem, solve
from deqscores.qv import LAMBDA_GRID, coarsen, lambda_path
from deqscores.synth import SynthConfig, generate, trial_seed

from oracles import build_problem, certify, kkt_check

# the module; the package's ``dequantize`` is its function
dequantize_module = importlib.import_module("deqscores.dequantize")


def scaled(problem):
    """(Q, c) as ``qp.solve`` polishes them: divided by max(1, max diag(Q) / 2)."""
    Q = problem.quadratic.tocsc()
    scale = max(1.0, float(Q.diagonal().max()) / 2.0)
    return qp.with_data(Q, Q.data * (1.0 / scale)), problem.linear / scale


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


def k22_tie_block():
    """One reviewer scores papers A-D 6, 6, 5, 5 on a ten-level scale, so on
    the coarse scale all four tie at 3 and the original scores rank A and B
    over C and D: the four pair rows of a K_{2,2}. One other review per
    paper pulls A and B down and C and D up, B and D the hardest."""
    raw = {("r0", "A"): 6, ("r0", "B"): 6, ("r0", "C"): 5, ("r0", "D"): 5}
    raw.update({("r1", "A"): 4, ("r2", "B"): 4, ("r3", "C"): 5, ("r4", "D"): 8})
    return coarsen(ReviewDataset.from_records(ScoreScale(1, 10), raw))


class TestAgainstTheLUPolish:
    def test_every_set_of_the_sweep_cell_paths(self, monkeypatch):
        # the 20 trial datasets of one seed-0 sweep cell (sigma 0.5, P=60),
        # coarsened as quantization validation solves them
        seen = counted(monkeypatch, "_forest_polish")
        for trial in range(20):
            dataset = generate(SynthConfig(seed=trial_seed(0, trial))).dataset
            lambda_path(compile_dataset(coarsen(dataset), 0.05), LAMBDA_GRID)
        assert len(seen) > 20 * len(LAMBDA_GRID)  # proposals and their corrections
        verdicts = set()
        for Q, c, constraints, signs, forest in seen:
            assert forest is not None  # no set of these paths goes to the LU
            lu = qp._polish(Q, c, constraints, signs)
            assert np.max(np.abs(forest[0] - lu[0])) <= 1e-12
            problem = QPProblem(Q, c, constraints)
            verdict = kkt_check(problem, *forest).certifies()
            assert verdict == kkt_check(problem, *lu).certifies()
            verdicts.add(verdict)
        assert verdicts == {True, False}  # the corrected proposals failed both

    def test_closing_rows_whose_bounds_disagree_go_to_the_lu_polish(self, monkeypatch):
        # y0 - y1 = 0.1 and y0 - y1 = 0.2 close a cycle no point satisfies
        problem = build_problem(
            2.0 * np.eye(2), [-10.0, -10.0], [(0, 1, 0.1), (0, 1, 0.2)], [4.5, 4.5], [5.5, 5.5]
        )
        signs = np.array([0, 0, -1, -1], dtype=np.int8)
        assert qp._forest_polish(*scaled(problem), problem.constraints, signs) is None
        lu = counted(monkeypatch, "_polish")
        forest = counted(monkeypatch, "_forest_polish")
        solve(problem, active=signs)
        assert forest[0][3].tolist() == signs.tolist() and forest[0][4] is None
        assert lu[0][3].tolist() == signs.tolist()

    def test_a_set_it_declines_goes_to_the_lu_polish(self, monkeypatch):
        # more closing rows than it takes, or a reduced system whose
        # conjugate gradient stops at the step cap
        compiled = compile_dataset(k22_tie_block(), 0.05)
        n = compiled.constraints.n
        signs = np.zeros(n + 4, dtype=np.int8)
        signs[n:] = -1
        Q, c = scaled(compiled.problem(1.0))
        assert qp._forest_polish(Q, c, compiled.constraints, signs) is not None
        for name in ("_MAX_CLOSING_ROWS", "_CG_MAX_STEPS"):
            with monkeypatch.context() as patch:
                patch.setattr(qp, name, 0)
                compiled.constraints.last_forest.clear()
                assert qp._forest_polish(Q, c, compiled.constraints, signs) is None, name
                lu = counted(patch, "_polish")
                solution = solve(compiled.problem(1.0), active=signs)
                assert solution.iterations == 0 and lu, name

    def test_a_repeated_row_with_the_same_bound_is_the_forests(self):
        # the second row closes a cycle that agrees: its multiplier shares the load
        problem = build_problem(
            2.0 * np.eye(2), [-10.0, -10.0], [(0, 1, 0.1), (0, 1, 0.1)], [4.5, 4.5], [5.5, 5.5]
        )
        signs = np.array([0, 0, -1, -1], dtype=np.int8)
        Q, c = scaled(problem)
        x, w = qp._forest_polish(Q, c, problem.constraints, signs)
        assert np.allclose(x, [5.05, 4.95], rtol=0, atol=1e-12)
        assert w[2] == w[3] < 0  # the minimum-norm split
        assert kkt_check(QPProblem(Q, c, problem.constraints), x, w).certifies()
        solution = solve(problem, active=signs)
        assert solution.iterations == 0 and np.array_equal(solution.values, x)


class TestCycleSpaceStep:
    def test_a_k22_tie_block_is_certified_with_sign_correct_multipliers(self):
        dataset = k22_tie_block()
        compiled = compile_dataset(dataset, 0.05)
        constraints = compiled.constraints
        n = constraints.n
        assert [tuple(row)[:2] for row in constraints.pair_constraints] == [
            (0, 2), (0, 3), (1, 2), (1, 3)
        ]  # A > C, A > D, B > C, B > D
        problem = compiled.problem(1.0)
        signs = np.zeros(n + 4, dtype=np.int8)
        signs[n:] = -1  # all four pair rows tight
        Q, c = scaled(problem)
        x, w = qp._forest_polish(Q, c, constraints, signs)
        lower = np.flatnonzero(signs < 0)
        forest = qp._forest(Q, constraints, lower, np.zeros(0, dtype=np.int64))
        assert forest.closing.tolist() == [n + 3]  # B > D closes the cycle
        # the tree rows alone would carry a multiplier of the wrong sign
        assert np.max(qp._matvec(forest.subtree, -(Q @ x + c))) > 0.1
        assert np.all(w[n:] < -0.05)
        assert kkt_check(QPProblem(Q, c, constraints), x, w).certifies()
        solution = solve(problem, active=signs)
        assert solution.iterations == 0 and np.array_equal(solution.active, signs)
        assert np.array_equal(solution.values, x)
        assert certified(problem, x)


class TestKKTCheck:
    @pytest.mark.parametrize(
        "num_papers, seed", [(60, 0), (60, 1), (60, 2), (600, 0), (3000, 0)]
    )
    def test_every_forest_polished_path_step(self, num_papers, seed):
        # w comes from re-polishing the step's set, which gives its values again
        dataset = generate(SynthConfig(num_papers=num_papers, seed=seed)).dataset
        compiled = compile_dataset(coarsen(dataset), 0.05)
        forest_steps = 0
        for lam, solution in zip(LAMBDA_GRID, lambda_path(compiled, LAMBDA_GRID)):
            problem = compiled.problem(lam)
            Q, c = scaled(problem)
            polished = qp._forest_polish(Q, c, compiled.constraints, solution.active)
            if polished is None or not np.array_equal(polished[0], solution.values):
                continue  # an LU polish
            forest_steps += 1
            check = kkt_check(QPProblem(Q, c, compiled.constraints), *polished)
            assert check.certifies(), (lam, check)
            if num_papers == 60:  # where certify's dense NNLS is affordable
                assert certified(problem, solution.values), lam
        assert forest_steps == len(LAMBDA_GRID)

    @pytest.mark.parametrize("num_papers, lam", [(600, np.exp(3.0)), (1500, 1.0)])
    def test_the_lu_polish_of_a_cold_solve(self, num_papers, lam):
        # re-polishing the returned set gives the returned values again
        problem = compile_dataset(
            generate(SynthConfig(num_papers=num_papers, seed=0)).dataset, 0.05
        ).problem(lam)
        solution = solve(problem)
        Q, c = scaled(problem)
        x, w = qp._polish(Q, c, problem.constraints, solution.active)
        assert np.array_equal(x, solution.values)
        check = kkt_check(QPProblem(Q, c, problem.constraints), x, w)
        assert check.certifies(), check

    def test_a_moved_point_fails_it_as_certify_does(self):
        dataset = generate(SynthConfig(num_papers=60, seed=0)).dataset
        compiled = compile_dataset(coarsen(dataset), 0.05)
        solution = lambda_path(compiled, LAMBDA_GRID[:1])[0]
        problem = compiled.problem(LAMBDA_GRID[0])
        Q, c = scaled(problem)
        x, w = qp._forest_polish(Q, c, compiled.constraints, solution.active)
        moved = x.copy()
        moved[0] += 1e-3
        assert not kkt_check(QPProblem(Q, c, compiled.constraints), moved, w).certifies()
        assert not certified(problem, moved)

    def test_a_wrong_sign_or_a_slack_row_with_a_multiplier_fails(self):
        problem = build_problem(2.0 * np.eye(2), [-10.0, -10.0], [(0, 1, 0.1)], [4.5, 4.5], [5.5, 5.5])
        Q, c = scaled(problem)
        x, w = qp._forest_polish(Q, c, problem.constraints, np.array([0, 0, -1], dtype=np.int8))
        scaled_problem = QPProblem(Q, c, problem.constraints)
        assert kkt_check(scaled_problem, x, w).certifies()
        assert kkt_check(scaled_problem, x, -w).sign > 0  # a pair row pushed towards +inf
        assert not kkt_check(scaled_problem, x + np.array([0.01, 0.0]), w).certifies()


class TestWhoUsesIt:
    """The forest polishes a solve's proposal and its corrections; the
    ADMM's checks, and so every solve given no proposal, polish with the LU."""

    def test_a_solve_given_no_proposal_never_calls_the_forest_polish(self, monkeypatch):
        # what keeps every written byte: the solves whose values are written
        # polish with the LU alone
        dataset = generate(SynthConfig(num_papers=60, seed=0)).dataset
        compiled = compile_dataset(dataset, 0.05)
        forest = counted(monkeypatch, "_forest_polish")
        cold = solve(compiled.problem(1.0))
        assert cold.iterations > 0 and not forest
        dequantize(dataset, 1.0)
        assert not forest

        final = []
        solve_in_dequantize = dequantize_module.solve

        def final_solve(problem, active=None):
            before = len(forest)
            solution = solve_in_dequantize(problem, active)
            final.append(len(forest) - before)
            return solution

        monkeypatch.setattr(dequantize_module, "solve", final_solve)
        dequantize(dataset)  # lam=auto: the path proposes, the final solve does not
        assert forest and final == [0]

        forest.clear()
        solve(compiled.problem(1.0), active=cold.active)
        assert len(forest) == 1

    def test_the_lu_polishes_only_cold_solves(self, monkeypatch):
        # why the LU's cost stays off the path: a path's proposals all go to
        # the forest, and only a solve that iterates factors
        compiled = compile_dataset(coarsen(generate(SynthConfig()).dataset), 0.05)
        lu = counted(monkeypatch, "_polish")
        lambda_path(compiled, LAMBDA_GRID)
        assert not lu
        solve(compiled.problem(1.0))
        assert lu



class TestForestMemo:
    """A forest polish on the same constraints, rows and pattern of Q as the
    forest polish before it reuses that polish's forest."""

    def test_a_repeated_set_builds_its_forest_once(self, monkeypatch):
        compiled = compile_dataset(generate(SynthConfig(num_papers=60, seed=0)).dataset, 0.05)
        signs = solve(compiled.problem(1.0)).active
        built = []
        forest = qp._forest
        monkeypatch.setattr(qp, "_forest", lambda *args: built.append(1) or forest(*args))
        polished = [
            qp._forest_polish(*scaled(compiled.problem(lam)), compiled.constraints, signs)
            for lam in LAMBDA_GRID[:5]
        ]
        assert len(built) == 1
        # reused or built afresh, the forest gives the same polish
        for lam, (x, w) in zip(LAMBDA_GRID[:5], polished):
            compiled.constraints.last_forest.clear()
            fresh_x, fresh_w = qp._forest_polish(
                *scaled(compiled.problem(lam)), compiled.constraints, signs
            )
            assert np.array_equal(x, fresh_x) and np.array_equal(w, fresh_w)

    def test_threads_sharing_constraints_get_the_serial_polishes(self):
        # the memo is shared state: threads that keep replacing each other's
        # forest must still polish exactly as one thread does
        compiled = compile_dataset(generate(SynthConfig(num_papers=60, seed=0)).dataset, 0.05)
        sets = [solve(compiled.problem(lam)).active for lam in (LAMBDA_GRID[0], LAMBDA_GRID[-1])]
        assert not np.array_equal(*sets)
        jobs = [(lam, signs) for lam in LAMBDA_GRID[::4] for signs in sets]

        def polish(job):
            lam, signs = job
            return qp._forest_polish(*scaled(compiled.problem(lam)), compiled.constraints, signs)

        expected = [polish(job) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                for _ in range(5):
                    for (x, w), (ex, ew) in zip(pool.map(polish, jobs, timeout=60), expected):
                        assert np.array_equal(x, ex) and np.array_equal(w, ew)
        finally:
            sys.setswitchinterval(interval)
