import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

from deqscores import qv
from deqscores.dequantize import compile_dataset, require_epsilon
from deqscores.metrics import kendall_tau_error
from deqscores.qp import solve
from deqscores.qv import (
    LAMBDA_GRID,
    DegenerateValidation,
    coarsen,
    halve_score,
    lambda_path,
    select_lambda,
)
from deqscores.synth import SynthConfig, generate

from conftest import make_dataset, ranking_records, score_records
from oracles import certify


class TestCoarsen:
    def test_halving_map_values(self):
        assert halve_score(7) == 4
        assert halve_score(8) == 4
        assert halve_score(1) == 1
        assert halve_score(10) == 5
        assert halve_score(-3) == -1
        assert halve_score(np.array([-3, 7, 2**62 + 1])).tolist() == [-1, 4, 2**61 + 1]

    def test_scores_mapped_and_scale_shrunk(self):
        ds = make_dataset({("r1", "A"): 7, ("r1", "B"): 8}, scale=(0, 10))
        coarse = coarsen(ds)
        assert score_records(coarse) == {("r1", "A"): 4, ("r1", "B"): 4}
        assert (coarse.scale.lower_bound, coarse.scale.upper_bound) == (0, 5)

    def test_rankings_come_from_original_scores(self):
        # 7 and 8 land in the same coarse bin, yet the pair survives
        ds = make_dataset({("r1", "A"): 7, ("r1", "B"): 8}, scale=(0, 10))
        coarse = coarsen(ds)
        assert ranking_records(coarse) == [("r1", "B", "A")]

    def test_tied_original_scores_give_no_pair(self):
        ds = make_dataset({("r1", "A"): 7, ("r1", "B"): 7}, scale=(0, 10))
        coarse = coarsen(ds)
        assert ranking_records(coarse) == []

    def test_halving_keeps_strict_rankings_of_original_scores(self):
        # 5 and 6 share a coarse bin, yet only the exact tie gives no pair
        ds = make_dataset(
            {("r1", "A"): 6, ("r1", "B"): 5, ("r1", "C"): 5}, scale=(0, 10)
        )
        coarse = coarsen(ds)
        assert score_records(coarse) == {("r1", "A"): 3, ("r1", "B"): 3, ("r1", "C"): 3}
        assert ranking_records(coarse) == [("r1", "A", "B"), ("r1", "A", "C")]

    def test_collapsing_quantizer_is_degenerate(self):
        ds = make_dataset({("r1", "A"): 1, ("r1", "B"): 2}, scale=(1, 2))
        with pytest.raises(DegenerateValidation):
            coarsen(ds)


class TestSelectLambda:
    def test_default_grid_shape(self):
        grid = LAMBDA_GRID
        assert len(grid) == 40
        assert grid[0] == 1.0
        assert grid[-1] == pytest.approx(math.exp(39 / 4))
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_ties_break_to_smallest(self):
        # scores already unanimous per paper: every weight recovers them
        # perfectly, so all errors tie and the smallest wins
        ds = make_dataset(
            {("r1", "A"): 8, ("r2", "A"): 8, ("r1", "B"): 3, ("r2", "B"): 3},
            scale=(0, 10),
        )
        report = select_lambda(ds)
        assert report.lambdas == LAMBDA_GRID
        assert len(set(report.errors)) == 1
        assert report.selected_lambda == LAMBDA_GRID[0] == 1.0

    def test_selected_value_is_in_grid(self):
        instance = generate(SynthConfig(num_papers=8, seed=2))
        report = select_lambda(instance.dataset)
        assert report.selected_lambda in report.lambdas
        assert report.errors[report.selected_index] == min(report.errors)

    def test_deterministic(self):
        instance = generate(SynthConfig(num_papers=8, seed=3))
        a = select_lambda(instance.dataset)
        b = select_lambda(instance.dataset)
        assert a == b

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, float("nan")])
    def test_epsilon_outside_unit_interval_rejected_before_any_solve(self, monkeypatch, epsilon):
        def no_solve(*args, **kwargs):
            raise AssertionError("a problem was solved")

        monkeypatch.setattr(qv, "solve", no_solve)
        instance = generate(SynthConfig(num_papers=8, seed=2))
        with pytest.raises(ValueError) as error:
            select_lambda(instance.dataset, epsilon)
        with pytest.raises(ValueError) as rule_error:
            require_epsilon(epsilon)
        assert str(error.value) == str(rule_error.value)

    def test_all_tied_scores_degenerate(self):
        ds = make_dataset({("r1", "A"): 5, ("r2", "A"): 5}, scale=(0, 10))
        with pytest.raises(DegenerateValidation):
            select_lambda(ds)

    def test_selection_tracks_noise_level(self):
        # more reviewer noise should shift the chosen weight away from
        # consensus (larger lambda), compared with a low-noise draw
        quiet = generate(SynthConfig(sigma=0.1, seed=6))
        noisy = generate(SynthConfig(sigma=1.0, seed=6))
        lam_quiet = select_lambda(quiet.dataset).selected_lambda
        lam_noisy = select_lambda(noisy.dataset).selected_lambda
        assert lam_noisy >= lam_quiet


    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_errors_equal_one_kendall_call_per_step(self, seed):
        # the batched Kendall kernel scores the path as one call per grid
        # step would, bit for bit
        dataset = generate(SynthConfig(num_papers=60, seed=seed)).dataset
        path = lambda_path(compile_dataset(coarsen(dataset), 0.05), LAMBDA_GRID)
        truth = dataset.scores.astype(float)
        errors = tuple(kendall_tau_error(truth, solution.values) for solution in path)
        assert select_lambda(dataset).errors == errors


class TestLambdaPath:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_warm_path_matches_cold_solves(self, seed):
        # the selection a cold solve at every weight would make, computed
        # independently of select_lambda's warm path
        dataset = generate(SynthConfig(num_papers=60, seed=seed)).dataset
        coarse = coarsen(dataset)
        compiled = compile_dataset(coarse, 0.05)
        grid = LAMBDA_GRID
        warm = lambda_path(compiled, grid)
        cold = [solve(compiled.problem(lam)) for lam in grid]
        assert max(np.max(np.abs(w.values - c.values)) for w, c in zip(warm, cold)) <= 1e-9

        scores = score_records(dataset)
        truth = np.array([scores[pair] for pair in coarse.pairs()], dtype=float)
        errors = tuple(kendall_tau_error(truth, c.values) for c in cold)
        report = select_lambda(dataset)
        assert report.errors == errors
        assert report.selected_lambda == grid[min(range(len(grid)), key=lambda i: (errors[i], grid[i]))]

    def test_most_grid_solves_skip_the_iteration(self):
        # every grid step after the first is certified without iterating
        dataset = generate(SynthConfig(num_papers=60, seed=0)).dataset
        path = lambda_path(compile_dataset(coarsen(dataset), 0.05), LAMBDA_GRID)
        assert [solution.iterations for solution in path[1:]] == [0] * (len(path) - 1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_grid_step_iterates(self, seed):
        # the first step starts from the empty active set and is certified
        # after active-set corrections, like every later step
        dataset = generate(SynthConfig(num_papers=60, seed=seed)).dataset
        path = lambda_path(compile_dataset(coarsen(dataset), 0.05), LAMBDA_GRID)
        assert [solution.iterations for solution in path] == [0] * len(path)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_step_passes_an_independent_certificate(self, seed):
        # the KKT conditions checked from scratch, with no solver code, at
        # every step, including those a corrected active set was accepted on
        dataset = generate(SynthConfig(num_papers=60, seed=seed)).dataset
        compiled = compile_dataset(coarsen(dataset), 0.05)
        path = lambda_path(compiled, LAMBDA_GRID)
        corrected = 0
        for lam, previous, solution in zip(LAMBDA_GRID, [None, *path], path):
            certificate = certify(compiled.problem(lam), solution.values)
            assert certificate.primal <= 1e-9
            assert certificate.active > 0
            assert certificate.stationarity <= 1e-9
            assert certificate.complementarity <= 1e-9
            if previous is not None and not np.array_equal(solution.active, previous.active):
                corrected += solution.iterations == 0
        assert corrected > 0
        # a point off the minimizer fails it
        assert certify(compiled.problem(LAMBDA_GRID[1]), path[0].values).stationarity > 1e-6


def assert_fixed_point(problem, solution):
    """Re-solved on the set it records, a polished solution is polished
    again on that set, bit for bit; an unpolished ADMM iterate would move."""
    again = solve(problem, active=solution.active)
    assert again.iterations == 0
    assert np.array_equal(again.values, solution.values)


class TestEveryReturnIsPolished:
    @pytest.mark.parametrize("num_papers", [60, 600])
    def test_every_path_step_is_a_fixed_point(self, num_papers):
        dataset = generate(SynthConfig(num_papers=num_papers, seed=0)).dataset
        compiled = compile_dataset(coarsen(dataset), 0.05)
        for lam, solution in zip(LAMBDA_GRID, lambda_path(compiled, LAMBDA_GRID)):
            assert_fixed_point(compiled.problem(lam), solution)

    def test_the_cold_final_solve_is_a_fixed_point(self):
        # the solve of an auto run at its selected weight, which has no start
        # and is polished at one of the iteration's checks
        dataset = generate(SynthConfig(num_papers=60, seed=0)).dataset
        problem = compile_dataset(dataset, 0.05).problem(select_lambda(dataset).selected_lambda)
        solution = solve(problem)
        assert solution.iterations > 0
        assert_fixed_point(problem, solution)


class TestLambdaPathStep:
    """What one warm step of the path builds, and that steps sharing a
    compiled dataset across threads stay exact."""

    def test_a_certified_warm_step_constructs_at_most_one_matrix(self, monkeypatch):
        dataset = generate(SynthConfig(num_papers=60, seed=0)).dataset
        compiled = compile_dataset(coarsen(dataset), 0.05)
        previous = lambda_path(compiled, LAMBDA_GRID[:1])[0]
        constructed = []
        init = sp.csc_matrix.__init__

        def counted(self, *args, **kwargs):
            constructed.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(sp.csc_matrix, "__init__", counted)
        warm = 0
        for lam in LAMBDA_GRID[1:]:
            constructed.clear()
            solution = solve(compiled.problem(lam), active=previous.active)
            # polished on the set it started from: no correction was needed
            if solution.iterations == 0 and np.array_equal(solution.active, previous.active):
                warm += 1
                assert len(constructed) <= 1, lam
            previous = solution
        assert warm >= len(LAMBDA_GRID) // 2

    def test_threads_sharing_a_compiled_dataset_get_the_serial_path(self):
        dataset = generate(SynthConfig(num_papers=60, seed=1)).dataset
        compiled = compile_dataset(coarsen(dataset), 0.05)
        serial = lambda_path(compiled, LAMBDA_GRID)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                jobs = [pool.submit(lambda_path, compiled, LAMBDA_GRID) for _ in range(2)]
                paths = [job.result(timeout=120) for job in jobs]
        finally:
            sys.setswitchinterval(interval)
        for path in paths:
            for step, expected in zip(path, serial):
                assert np.array_equal(step.values, expected.values)
                assert np.array_equal(step.active, expected.active)
                assert step.iterations == expected.iterations
                assert step.residuals == expected.residuals
