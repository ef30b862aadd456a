"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line with the measured numbers (run with ``pytest -s`` to see them inline).

The two eighty-second sweep fixtures are shared by the criteria that read
them; everything else builds its own instances from fixed seeds.
"""

import math
import sys
import time

import numpy as np
import pytest

import test_io
from deqscores.baselines import bre_adjusted_scores
from deqscores.dequantize import assemble, consistency_report, dequantize
from deqscores.experiment import ExperimentSpec, run_experiment
from deqscores.io import prepare_half_scale
from deqscores.metrics import (
    kendall_tau_error,
    l2_error,
    project_to_original_scale,
    trial_statistics,
)
from deqscores.qp import InfeasibleProblem, check_feasibility, solve
from deqscores.qv import LAMBDA_GRID, select_lambda
from deqscores.synth import SynthConfig, generate, trial_seed

from conftest import (
    by_pair,
    likelihood_lattice_maximizer,
    make_dataset,
    papers_by_reviewer,
    ranking_records,
    rankings_are_total,
    reviewers_by_paper,
    score_records,
)
from oracles import (
    brute_force_minimize,
    build_problem,
    derive_rankings_reference,
    objective,
    score_only_closed_form,
)

EPSILON = 0.05
FEASTOL = 1e-6
GRID = LAMBDA_GRID


def report(number: int, ok: bool, detail: str) -> None:
    # bypass pytest's capture so the line shows once, whatever -s/-v says
    print(
        f"\n[criterion {number:02d}] {'PASS' if ok else 'FAIL'} — {detail}",
        file=sys.__stdout__,
        flush=True,
    )
    assert ok, f"criterion {number:02d}: {detail}"


@pytest.fixture(scope="module")
def sigma_sweep():
    start = time.time()
    spec = ExperimentSpec(
        methods=("proposed", "quantized", "bre_adjusted"),
        sweep_parameter="sigma",
        sweep_values=(0.1, 0.5, 1.0),
        trials=20,
        base=SynthConfig(),
        metrics=("kendall", "l2", "ties"),
        seed=0,
    )
    return run_experiment(spec), time.time() - start


@pytest.fixture(scope="module")
def load_sweep():
    spec = ExperimentSpec(
        methods=("proposed", "quantized", "bre_adjusted"),
        sweep_parameter="papers_per_reviewer",
        sweep_values=(2, 4, 6),
        trials=20,
        base=SynthConfig(),
        metrics=("kendall", "l2", "ties"),
        seed=0,
    )
    return run_experiment(spec)


def test_criterion_01_constraint_consistency():
    start = time.time()
    worst_box = 0.0
    worst_margin = math.inf
    for i in range(200):
        papers = 10 if i % 2 else 60
        sigma = (0.1, 0.5, 1.0)[i % 3]
        lam = GRID[i % 40]
        instance = generate(
            SynthConfig(num_papers=papers, sigma=sigma, seed=trial_seed(1001, i))
        )
        scores = dequantize(instance.dataset, lam=lam, epsilon=EPSILON)
        box, margin = consistency_report(instance.dataset, scores.values)
        worst_box = max(worst_box, box)
        if margin < worst_margin:
            worst_margin = margin
    elapsed = time.time() - start
    ok = worst_box <= FEASTOL and worst_margin >= EPSILON - FEASTOL and elapsed < 300
    report(
        1,
        ok,
        f"200 instances: worst box violation {worst_box:.2e} (<= 1e-6), "
        f"worst pair margin {worst_margin:.6f} (>= {EPSILON - FEASTOL:.6f}), "
        f"{elapsed:.0f}s (< 300s)",
    )


def test_criterion_02_closed_form_equivalence():
    worst = 0.0
    failures = 0
    for i in range(100):
        mu = (2, 3, 4, 6)[i % 4]
        lam = GRID[i % 40]
        instance = generate(
            SynthConfig(
                num_papers=8, reviews_per_paper=mu, papers_per_reviewer=mu,
                seed=trial_seed(11, i),
            )
        )
        ds = make_dataset(score_records(instance.dataset))
        deq = dequantize(ds, lam=lam, epsilon=EPSILON)
        closed = score_only_closed_form(ds, lam)
        diff = float(np.max(np.abs(deq.values - closed)))
        worst = max(worst, diff)
        failures += diff > 1e-4
    report(
        2,
        worst <= 1e-4,
        f"scores-only QP vs analytic form on 100 instances: max component "
        f"diff {worst:.2e} (<= 1e-4), {failures} instance(s) over tolerance",
    )


def test_criterion_03_limit_equivalence():
    collected = 0
    bump = 0
    worst = 0.0
    order_mismatches = 0
    while collected < 50:
        instance = generate(
            SynthConfig(num_papers=12, reviews_per_paper=3, papers_per_reviewer=3,
                        seed=trial_seed(23, bump))
        )
        bump += 1
        ds = instance.dataset
        if not rankings_are_total(ds):
            continue
        collected += 1
        bre = bre_adjusted_scores(ds, epsilon=EPSILON)
        deq = dequantize(ds, lam=1e6, epsilon=EPSILON)
        worst = max(worst, float(np.max(np.abs(deq.values - bre))))
        deq, bre = by_pair(ds, deq.values), by_pair(ds, bre)
        for reviewer, papers in papers_by_reviewer(ds).items():
            by_deq = sorted(papers, key=lambda p: deq[(reviewer, p)])
            by_bre = sorted(papers, key=lambda p: bre[(reviewer, p)])
            order_mismatches += by_deq != by_bre
    report(
        3,
        worst <= 1e-3 and order_mismatches == 0,
        f"huge-fit-weight output vs rank-adjusted baseline on 50 instances: "
        f"max |diff| {worst:.2e} (<= 1e-3), {order_mismatches} per-reviewer "
        "order mismatches (= 0)",
    )


def test_criterion_04_thurstone_equivalence():
    collected = 0
    bump = 0
    worst = 0.0
    shapes = [(1, 2, 1), (1, 3, 1), (1, 4, 1), (2, 2, 2), (2, 2, 1)]
    while collected < 30:
        papers, mu, kappa = shapes[collected % len(shapes)]
        instance = generate(
            SynthConfig(num_papers=papers, reviews_per_paper=mu,
                        papers_per_reviewer=kappa, sigma=1.0,
                        seed=trial_seed(31, bump))
        )
        bump += 1
        ds = make_dataset(score_records(instance.dataset))
        scores = score_records(ds)
        degenerate = any(
            len({scores[(r, p)] for r in reviewers}) == 1
            for p, reviewers in reviewers_by_paper(ds).items()
        )
        if degenerate:  # a flat direction would make the argmax non-unique
            continue
        collected += 1
        deq = dequantize(ds, lam=1e-6)  # consensus only
        oracle = likelihood_lattice_maximizer(ds)
        deq = by_pair(ds, deq.values)
        worst = max(worst, max(abs(deq[k] - oracle[k]) for k in deq))
    report(
        4,
        worst <= 1e-3,
        f"consensus-only solution vs box-constrained likelihood maximizer on "
        f"30 small instances: max |diff| {worst:.2e} (<= 1e-3)",
    )


def test_criterion_05_solver_vs_oracle():
    rng = np.random.default_rng(51)
    worst = 0.0
    for i in range(100):
        if i % 2:
            n = int(rng.integers(1, 5))
            while True:
                m = rng.normal(size=(n, n))
                quadratic = m @ m.T + 0.3 * np.eye(n)
                linear = rng.normal(size=n)
                lo = rng.uniform(-1.0, 0.0, n)
                hi = lo + rng.uniform(0.5, 2.0, n)
                pairs = []
                if n >= 2 and rng.random() < 0.7:
                    pairs.append((0, 1, float(rng.uniform(0.0, 0.2))))
                problem = build_problem(quadratic, linear, pairs, lo, hi)
                try:
                    check_feasibility(problem.constraints)
                except InfeasibleProblem:
                    continue
                break
        else:
            mu = (2, 3, 4)[i % 3]
            instance = generate(
                SynthConfig(num_papers=1, reviews_per_paper=mu, papers_per_reviewer=1,
                            sigma=1.0, seed=trial_seed(53, i))
            )
            problem = assemble(instance.dataset, lam=GRID[i % 40], epsilon=EPSILON)
        exact = objective(problem, solve(problem).values)
        oracle = objective(problem, brute_force_minimize(problem, 1e-3).values)
        worst = max(worst, abs(exact - oracle))
    report(
        5,
        worst <= 1e-5,
        f"solver vs grid+refinement oracle on 100 instances (n <= 4): "
        f"max |objective diff| {worst:.2e} (<= 1e-5)",
    )


def test_criterion_06_noise_sweep(sigma_sweep):
    rep, elapsed = sigma_sweep
    margins = []
    for sigma in (0.1, 0.5, 1.0):
        proposed = rep.cell("proposed", sigma, "kendall")["mean"]
        others = [
            rep.cell(m, sigma, "kendall")["mean"] for m in ("quantized", "bre_adjusted")
        ]
        margins.append(min(others) - proposed)
    tie_means = {
        sigma: rep.cell("proposed", sigma, "ties")["mean"] for sigma in (0.1, 0.5, 1.0)
    }
    pooled_ties = float(np.mean(list(tie_means.values())))
    quantized_hi = rep.cell("quantized", 1.0, "ties")["mean"]
    quantized_lo = rep.cell("quantized", 0.1, "ties")["mean"]
    ok = (
        all(m > 0 for m in margins)
        and pooled_ties < 0.015
        and abs(quantized_hi - 0.111) <= 0.02
        and abs(quantized_lo - 0.124) <= 0.02
        and elapsed < 900
    )
    report(
        6,
        ok,
        "noise sweep (20 trials/sigma): proposed beats both baselines by "
        f"{['%.4f' % m for m in margins]} at sigma=(0.1,0.5,1.0); proposed tie "
        f"fraction {pooled_ties:.4f} pooled (< 0.015, per-sigma "
        f"{ {k: round(v, 4) for k, v in tie_means.items()} }); quantized ties "
        f"{quantized_hi:.4f}@1.0 vs 0.111, {quantized_lo:.4f}@0.1 vs 0.124 "
        f"(both within 0.02); {elapsed:.0f}s (< 900s)",
    )


def test_criterion_07_load_sweep(load_sweep):
    rep = load_sweep
    bre = [rep.cell("bre_adjusted", k, "kendall")["mean"] for k in (2, 4, 6)]
    lowest = all(
        rep.cell("proposed", k, "kendall")["mean"]
        < min(
            rep.cell(m, k, "kendall")["mean"] for m in ("quantized", "bre_adjusted")
        )
        for k in (2, 4, 6)
    )
    decreasing = bre[0] > bre[1] > bre[2]
    report(
        7,
        decreasing and lowest,
        f"load sweep (20 trials/load): rank-adjusted error {['%.4f' % b for b in bre]} "
        f"strictly decreasing in load; proposed lowest at every load: {lowest}",
    )


def test_criterion_08_validation_quality():
    gaps = []
    for trial in range(20):
        instance = generate(SynthConfig(seed=trial_seed(7, trial)))
        truth = instance.truth_y
        errors = []
        active = None
        for lam in GRID:
            problem = assemble(instance.dataset, lam=lam, epsilon=EPSILON)
            solution = solve(problem, active=active)
            active = solution.active
            errors.append(kendall_tau_error(truth, solution.values))
        oracle_index = min(range(len(GRID)), key=lambda i: (errors[i], GRID[i]))
        selected = select_lambda(instance.dataset, EPSILON)
        gaps.append(errors[selected.selected_index] - errors[oracle_index])
    mean_gap, _ = trial_statistics(gaps)
    report(
        8,
        mean_gap <= 0.02,
        f"validation-selected weight vs grid oracle over 20 trials: mean extra "
        f"ranking error {mean_gap:.4f} (<= 0.02), max {max(gaps):.4f}",
    )


def test_criterion_09_l2_non_inferiority(sigma_sweep, load_sweep):
    rep_sigma, _ = sigma_sweep
    rep_load = load_sweep
    worst_excess = -math.inf
    for rep, values in ((rep_sigma, (0.1, 0.5, 1.0)), (rep_load, (2, 4, 6))):
        for value in values:
            proposed = rep.cell("proposed", value, "l2")["mean"]
            for method in ("quantized", "bre_adjusted"):
                cell = rep.cell(method, value, "l2")
                worst_excess = max(worst_excess, proposed - (cell["mean"] + cell["sem"]))
    report(
        9,
        worst_excess <= 0,
        "proposed l2 error vs each baseline mean+1SEM over both default "
        f"sweeps: worst excess {worst_excess:.4f} (<= 0)",
    )


def test_criterion_10_preprocessing_golden():
    dataset, truth = prepare_half_scale(
        test_io.DATA / "raw_ten_level.csv", reviews_per_paper=3,
        papers_per_reviewer=3, seed=0,
    )
    truth, scores = by_pair(dataset, truth), score_records(dataset)
    golden = {k: (truth[k], scores[k]) for k in truth} == test_io.GOLDEN_PREPARED
    halving = all(scores[k] == math.ceil(y / 2.0) for k, y in truth.items())
    retention = all(len(rs) == 3 for rs in reviewers_by_paper(dataset).values())
    rankings = ranking_records(dataset) == derive_rankings_reference(truth)
    report(
        10,
        golden and halving and retention and rankings,
        f"ten-level fixture preprocessing: frozen output match {golden}, ceil(y/2) "
        f"map {halving}, 3-review retention {retention}, raw-derived rankings "
        f"{rankings} (the headline error-reduction number needs the external "
        "dataset and is out of scope by design)",
    )


def test_criterion_11_metric_units():
    checks = [
        kendall_tau_error([1, 2, 3], [1, 2, 3]) == 0.0,
        kendall_tau_error([1, 2, 3], [-1, -2, -3]) == 1.0,
        abs(kendall_tau_error([1, 2, 3], [1, 3, 2]) - 1 / 3) < 1e-15,
        l2_error([0, 0], [3, 4]) == 5.0,
        project_to_original_scale(1.2) == 2,
        project_to_original_scale(1.5) == 3,
        project_to_original_scale(1.0) == 2,
    ]
    report(
        11,
        all(checks),
        f"metric unit values (0, 1, 1/3, 5, and projections 2/3/2): {checks}",
    )


def test_criterion_12_epsilon_robustness():
    means = {}
    for epsilon in (0.01, 0.05, 0.1):
        errors = []
        for trial in range(20):
            instance = generate(SynthConfig(seed=trial_seed(121, trial)))
            selected = select_lambda(instance.dataset, epsilon)
            scores = dequantize(
                instance.dataset, lam=selected.selected_lambda, epsilon=epsilon
            )
            errors.append(kendall_tau_error(instance.truth_y, scores.values))
        means[epsilon] = float(np.mean(errors))
    spread = max(means.values()) - min(means.values())
    report(
        12,
        spread < 0.01,
        f"mean ranking error across separation settings { {k: round(v, 4) for k, v in means.items()} }: "
        f"spread {spread:.4f} (< 0.01)",
    )
