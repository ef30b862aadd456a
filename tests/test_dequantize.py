import importlib
import math

import numpy as np
import pytest
import scipy.sparse as sp

from deqscores import cli, model, qp, qv
from deqscores.baselines import bre_adjusted_scores
from deqscores.dequantize import (
    AUTO,
    assemble,
    compile_dataset,
    consistency_report,
    dequantize,
    require_lambda,
)
from deqscores.experiment import ExperimentSpec
from deqscores.model import DEFAULT_EPSILON, ValidationError
from deqscores.qp import PAIR_ROW, InfeasibleProblem, solve
from deqscores.qv import LAMBDA_GRID, coarsen, select_lambda
from deqscores.synth import SynthConfig, generate, trial_seed

from conftest import (
    by_pair,
    likelihood_lattice_maximizer,
    make_dataset,
    papers_by_reviewer,
    rankings_are_total,
    reviewers_by_paper,
    score_records,
)
from oracles import (
    dense_quadratic,
    objective,
    profiled_paper_qualities,
    score_only_closed_form,
    thurstone_joint_loglikelihood,
)

# the module, whose name the package's ``dequantize`` function shadows
DEQUANTIZE = importlib.import_module("deqscores.dequantize")


def literal_objective(dataset, values, lam):
    """The consensus + fit objective computed straight from its definition."""
    total = 0.0
    for paper, reviewers in reviewers_by_paper(dataset).items():
        mean = sum(values[(r, paper)] for r in reviewers) / len(reviewers)
        total += sum((values[(r, paper)] - mean) ** 2 for r in reviewers)
    total += lam * sum(
        (values[pair] - z) ** 2 for pair, z in score_records(dataset).items()
    )
    return total


class TestAssemble:
    def test_one_paper_two_reviewers(self):
        ds = make_dataset({("r1", "A"): 5, ("r2", "A"): 5})
        problem = assemble(ds, lam=1.0, epsilon=DEFAULT_EPSILON)
        np.testing.assert_allclose(
            dense_quadratic(problem), [[3.0, -1.0], [-1.0, 3.0]], atol=1e-12
        )
        assert problem.linear == pytest.approx([-10.0, -10.0])
        assert solve(problem).values == pytest.approx([5.0, 5.0], abs=1e-8)

    def test_single_review_has_no_consensus_term(self):
        ds = make_dataset({("r1", "A"): 7})
        problem = assemble(ds, lam=2.5, epsilon=DEFAULT_EPSILON)
        np.testing.assert_allclose(dense_quadratic(problem), [[5.0]], atol=1e-12)

    def test_ranking_pair_becomes_one_constraint(self):
        ds = make_dataset({("r1", "A"): 5, ("r1", "B"): 5}, {"r1": [("A", "B")]})
        problem = assemble(ds, lam=1.0, epsilon=0.05)
        i, j = ds.pairs().index(("r1", "A")), ds.pairs().index(("r1", "B"))
        assert np.array_equal(problem.pair_constraints, np.array([(i, j, 0.05)], dtype=PAIR_ROW))

    def test_boxes_are_half_unit_around_scores(self):
        ds = make_dataset({("r1", "A"): 5, ("r1", "B"): 3})
        problem = assemble(ds, lam=1.0, epsilon=DEFAULT_EPSILON)
        assert problem.constraints.box_lower == pytest.approx([4.5, 2.5])
        assert problem.constraints.box_upper == pytest.approx([5.5, 3.5])

    def test_objective_value_matches_literal_expression(self):
        instance = generate(SynthConfig(num_papers=10, seed=5))
        lam = 3.7
        problem = assemble(instance.dataset, lam=lam, epsilon=DEFAULT_EPSILON)
        solution = solve(problem)
        values = dict(zip(instance.dataset.pairs(), solution.values.tolist()))
        z = instance.dataset.scores.astype(float)
        # the problem leaves out the objective's constant lam*||z||^2
        assert objective(problem, solution.values) + lam * float(z @ z) == pytest.approx(
            literal_objective(instance.dataset, values, lam), rel=1e-9, abs=1e-9
        )

    def test_invalid_dataset_rejected(self):
        ds = make_dataset({("r1", "A"): 99})
        with pytest.raises(ValidationError):
            assemble(ds, lam=1.0, epsilon=DEFAULT_EPSILON)

    def test_auto_lam_needs_resolution(self):
        # dequantize resolves AUTO; assemble takes only a weight
        ds = make_dataset({("r1", "A"): 5})
        with pytest.raises(ValueError, match="positive finite number"):
            assemble(ds, lam=AUTO, epsilon=DEFAULT_EPSILON)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_lam_rejected(self, lam):
        ds = make_dataset({("r1", "A"): 5})
        with pytest.raises(ValueError, match="finite"):
            dequantize(ds, lam=lam)
        with pytest.raises(ValueError, match="finite"):
            assemble(ds, lam=lam, epsilon=DEFAULT_EPSILON)


def consensus_plus_fit(dataset, lam):
    """Q = C + 2*lam*I built as scipy sums it: C from the paper-mean
    projection with its zeros eliminated, plus a scaled identity."""
    index = dataset.pairs()
    n = len(index)
    papers: dict = {}
    paper_of = np.array([papers.setdefault(p, len(papers)) for _, p in index])
    membership = sp.csr_matrix((np.ones(n), (np.arange(n), paper_of)), shape=(n, len(papers)))
    paper_mean = membership @ sp.diags(1.0 / np.bincount(paper_of)) @ membership.T
    consensus = (2.0 * (sp.identity(n) - paper_mean)).tocsc()
    consensus.eliminate_zeros()
    return (consensus + sp.identity(n, format="csc") * (2.0 * lam)).tocsc()


SINGLE_REVIEW_PAPER = make_dataset(
    {("r1", "A"): 5, ("r1", "B"): 3, ("r2", "A"): 4, ("r2", "C"): 4, ("r3", "B"): 2,
     ("r3", "A"): 5, ("r3", "D"): 1},
    {"r1": [("A", "B")], "r2": [("C", "A")], "r3": [("A", "B")]},
)


class TestCompiledStructure:
    """Each weight's Q is an operator over the compiled dataset's papers:
    column by column of the identity, it is the matrix scipy sums, to
    within one rounding of its largest entry."""

    @staticmethod
    def _assert_equal(operator, reference):
        columns = np.column_stack([operator @ column for column in np.eye(reference.shape[0])])
        reference = reference.toarray()
        assert columns.shape == reference.shape
        bound = np.finfo(float).eps * np.max(np.abs(reference))
        assert np.max(np.abs(columns - reference)) <= bound

    @pytest.mark.parametrize("source", ["single-review paper", "coarsened P=60"])
    def test_problem_equals_consensus_plus_fit_on_every_grid_weight(self, source):
        if source == "single-review paper":
            dataset = SINGLE_REVIEW_PAPER
        else:
            dataset = coarsen(generate(SynthConfig(num_papers=60, seed=0)).dataset)
        compiled = compile_dataset(dataset, 0.05)
        for lam in LAMBDA_GRID:
            self._assert_equal(compiled.problem(lam).quadratic, consensus_plus_fit(dataset, lam))

    def test_solver_scales_q_as_scipy_divides(self, monkeypatch):
        compiled = compile_dataset(SINGLE_REVIEW_PAPER, 0.05)
        seen = []
        polish = qp._polish

        def recorded(Q, c, constraints, signs):
            seen.append(Q)
            return polish(Q, c, constraints, signs)

        monkeypatch.setattr(qp, "_polish", recorded)
        for lam in LAMBDA_GRID[::7]:
            problem = compiled.problem(lam)
            scale = max(1.0, float(problem.quadratic.diagonal().max()) / 2.0)
            assert scale > 1.0
            seen.clear()
            solve(problem)
            assert seen
            for Q in seen:
                self._assert_equal(Q, consensus_plus_fit(SINGLE_REVIEW_PAPER, lam) / scale)


class TestDequantize:
    def test_unanimous_scores_stay_put(self):
        ds = make_dataset(
            {("r1", "A"): 6, ("r2", "A"): 6, ("r1", "B"): 3, ("r2", "B"): 3}
        )
        scores = by_pair(ds, dequantize(ds, lam=2.0).values)
        for pair, z in score_records(ds).items():
            assert scores[pair] == pytest.approx(z, abs=1e-7)

    def test_scores_only_two_reviewers(self):
        ds = make_dataset({("r1", "A"): 7, ("r2", "A"): 4})
        scores = by_pair(ds, dequantize(ds, lam=1.0).values)
        assert scores[("r1", "A")] == pytest.approx(6.5, abs=1e-7)
        assert scores[("r2", "A")] == pytest.approx(4.5, abs=1e-7)

    def test_output_is_consistent_with_inputs(self):
        instance = generate(SynthConfig(num_papers=12, sigma=1.0, seed=9))
        scores = dequantize(instance.dataset, lam=2.0)
        box_violation, margin = consistency_report(instance.dataset, scores.values)
        assert box_violation <= qp.FEASTOL
        assert margin >= DEFAULT_EPSILON - qp.FEASTOL

    def test_single_review_returns_score(self):
        ds = make_dataset({("r1", "A"): 7})
        scores = dequantize(ds, lam=1.0)
        assert scores.values.tolist() == pytest.approx([7.0], abs=1e-8)

    def test_overlong_tied_chain_is_infeasible(self):
        scores = {("r1", f"p{i:02d}"): 5 for i in range(22)}
        order = sorted(p for _, p in scores)
        pairs = [(order[i], order[i + 1]) for i in range(21)]
        ds = make_dataset(scores, {"r1": pairs})
        with pytest.raises(InfeasibleProblem) as info:
            dequantize(ds, lam=1.0, epsilon=0.05)
        # the chain is named by (reviewer, paper) ids, best first
        message = str(info.value)
        assert "('r1', 'p00') > ('r1', 'p01') > " in message
        assert message.endswith("('r1', 'p20') > ('r1', 'p21')")

    def test_infeasible_chain_names_reviews_by_their_repr(self):
        papers = ["A > B", "C", "D\nE"]
        ds = make_dataset(
            {("r 1", p): 5 for p in papers},
            {"r 1": [(papers[0], papers[1]), (papers[1], papers[2])]},
        )
        with pytest.raises(InfeasibleProblem) as info:
            dequantize(ds, lam=1.0, epsilon=0.6)
        assert str(info.value).endswith("('r 1', 'A > B') > ('r 1', 'C') > ('r 1', 'D\\nE')")

    def test_auto_matches_explicit_selection(self):
        instance = generate(SynthConfig(num_papers=12, seed=21))
        report = select_lambda(instance.dataset)
        auto = dequantize(instance.dataset, lam=AUTO)
        manual = dequantize(instance.dataset, lam=report.selected_lambda)
        assert auto.values == pytest.approx(manual.values, abs=1e-9)

    def test_auto_compiles_each_dataset_once(self, monkeypatch):
        calls = {"validate": 0, "check_feasibility": 0}

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        monkeypatch.setattr(model, "validate", counting("validate", model.validate))
        monkeypatch.setattr(qp, "check_feasibility", counting("check_feasibility", qp.check_feasibility))
        instance = generate(SynthConfig(num_papers=12, seed=21))
        auto = dequantize(instance.dataset, lam=AUTO)
        # one feasibility check for the coarsened copy's whole grid, one for
        # the final solve on the dataset itself
        assert calls["validate"] <= 3
        assert calls["check_feasibility"] == 2
        assert auto.validation.selected_lambda == auto.lam
        assert len(auto.validation.errors) == 40
        manual = dequantize(instance.dataset, lam=auto.lam)
        assert np.array_equal(manual.values, auto.values)
        assert manual.lam == auto.lam and manual.validation is None

    def test_few_output_ties_on_default_instance(self):
        from deqscores.metrics import tie_fraction

        instance = generate(SynthConfig(seed=42))
        scores = dequantize(instance.dataset, lam=AUTO)
        assert tie_fraction(scores.values) < 0.015

    @pytest.mark.parametrize("lam", [2.0, AUTO])
    def test_one_assemble_per_call(self, monkeypatch, lam):
        # the bench's dequantize.assemble_calls counts one per dequantize
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return assemble(*args, **kwargs)

        monkeypatch.setattr(DEQUANTIZE, "assemble", counted)
        dequantize(generate(SynthConfig(num_papers=12, seed=21)).dataset, lam=lam)
        assert len(calls) == 1


@pytest.mark.parametrize("lam", [0, -3, float("nan"), float("inf"), "fast"])
def test_bad_fit_weight_rejected_everywhere_with_one_message(
    monkeypatch, capsys, tmp_path, lam
):
    def no_solve(*args, **kwargs):
        raise AssertionError("a problem was solved")

    for module in (qp, qv, DEQUANTIZE):
        monkeypatch.setattr(module, "solve", no_solve)
    with pytest.raises(ValueError) as rule:
        require_lambda(lam)
    message = str(rule.value)
    ds = make_dataset({("r1", "A"): 5, ("r2", "A"): 4})
    entries = [
        lambda: dequantize(ds, lam=lam),
        lambda: assemble(ds, lam=lam, epsilon=DEFAULT_EPSILON),
        lambda: ExperimentSpec(lam=lam),
        lambda: ExperimentSpec(sweep_parameter="lambda", sweep_values=(lam,)),
    ]
    for entry in entries:
        with pytest.raises(ValueError) as error:
            entry()
        assert str(error.value) == message

    reviews = tmp_path / "reviews.csv"
    reviews.write_text("reviewer_id,paper_id,score\nr1,A,5\n")
    text = str(lam)
    argv = ["dequantize", "--reviews", str(reviews), f"--lambda={text}",
            "--output", str(tmp_path / "out.csv")]
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == cli.EXIT_USAGE
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"deqscores dequantize: error: argument --lambda: --{message}, got {text!r}"
    )


class TestLimitBehavior:
    """With total rankings the output approaches the rank-wise adjusted
    baseline as the fit weight grows."""

    @staticmethod
    def _total_ranking_instance(seed):
        for bump in range(20):
            instance = generate(
                SynthConfig(num_papers=12, reviews_per_paper=3, papers_per_reviewer=3,
                            seed=trial_seed(seed, bump))
            )
            if rankings_are_total(instance.dataset):
                return instance
        raise AssertionError("could not draw an instance with total rankings")

    def test_gap_to_adjusted_baseline_shrinks(self):
        instance = self._total_ranking_instance(13)
        bre = bre_adjusted_scores(instance.dataset, epsilon=0.05)
        gaps = []
        for lam in (1e2, 1e4, 1e6):
            deq = dequantize(instance.dataset, lam=lam)
            gaps.append(float(np.max(np.abs(deq.values - bre))))
        assert gaps[0] >= gaps[1] >= gaps[2]
        assert gaps[2] <= 1e-3

    def test_per_reviewer_ordering_matches_at_large_weight(self):
        instance = self._total_ranking_instance(29)
        bre = bre_adjusted_scores(instance.dataset, epsilon=0.05)
        deq = dequantize(instance.dataset, lam=1e6)
        deq, bre = by_pair(instance.dataset, deq.values), by_pair(instance.dataset, bre)
        for reviewer, papers in papers_by_reviewer(instance.dataset).items():
            by_deq = sorted(papers, key=lambda p: deq[(reviewer, p)])
            by_bre = sorted(papers, key=lambda p: bre[(reviewer, p)])
            assert by_deq == by_bre


class TestClosedFormAgreement:
    """Scores-only outputs against the exact analytic form: each value is a
    clipped convex combination of its own score and the paper's output mean,
    which reduces to the published weights when no clip is one-sided."""

    def test_two_reviews_per_paper_agree_everywhere(self):
        # with two reviews the clipped adjustments always cancel pairwise,
        # making the closed form exact
        grid = [math.exp(t / 4.0) for t in range(0, 40, 7)]
        for i, lam in enumerate(grid):
            instance = generate(
                SynthConfig(num_papers=8, reviews_per_paper=2, papers_per_reviewer=2,
                            sigma=1.0, seed=trial_seed(3, i))
            )
            ds = make_dataset(score_records(instance.dataset))
            deq = dequantize(ds, lam=lam)
            closed = score_only_closed_form(ds, lam)
            assert deq.values == pytest.approx(closed, abs=1e-4)

    def test_unclipped_instances_agree_exactly(self):
        lam = 4.0  # large enough that no score strays past (1+lam)/2 from its mean
        for i in range(5):
            instance = generate(
                SynthConfig(num_papers=6, reviews_per_paper=4, papers_per_reviewer=4,
                            seed=trial_seed(17, i))
            )
            ds = make_dataset(score_records(instance.dataset))
            closed = score_only_closed_form(ds, lam)
            if np.any(np.abs(closed - ds.scores) >= 0.5 - 1e-12):  # clipped
                continue
            deq = dequantize(ds, lam=lam)
            assert deq.values == pytest.approx(closed, abs=1e-6)

    def test_one_sided_clipping_divergence_instance(self):
        # scores (7, 5, 5) at lam=1: only the 7 clips, which lowers the
        # paper's output mean, so the other coordinates must shift with it;
        # the published weights around the input mean would give 16/3 for
        # them. The exact solution (6.5, 5.375, 5.375) satisfies the KKT
        # conditions and is reached by both the solver and the analytic form
        ds = make_dataset({("r1", "A"): 7, ("r2", "A"): 5, ("r3", "A"): 5})
        lam = 1.0
        deq = dequantize(ds, lam=lam).values
        closed = score_only_closed_form(ds, lam)
        # the reviews in review order: r1, r2, r3
        assert deq[:2] == pytest.approx([6.5, 5.375], abs=1e-7)
        assert closed == pytest.approx([6.5, 5.375, 5.375], abs=1e-7)
        problem = assemble(ds, lam=lam, epsilon=DEFAULT_EPSILON)
        assert objective(problem, closed) <= objective(problem, deq) + 1e-9


class TestThurstoneConnection:
    def test_zero_residual_is_maximal(self):
        ds = make_dataset({("r1", "A"): 5, ("r2", "A"): 5})
        x_star = {"A": 5.0}
        perfect = [5.0, 5.0]
        shifted = [5.3, 5.0]
        best = thurstone_joint_loglikelihood(ds, perfect, x_star, sigma=1.0)
        assert best > thurstone_joint_loglikelihood(ds, shifted, x_star, sigma=1.0)

    def test_outside_box_is_minus_infinity(self):
        ds = make_dataset({("r1", "A"): 5})
        outside = [5.6]
        assert thurstone_joint_loglikelihood(ds, outside, {"A": 5.0}, 1.0) == -math.inf

    def test_profiled_quality_is_the_mean(self):
        ds = make_dataset({("r1", "A"): 5, ("r2", "A"): 6})
        scores = [5.4, 5.6]  # r1, r2
        profile = profiled_paper_qualities(ds, scores)
        assert profile["A"] == pytest.approx(5.5)
        base = thurstone_joint_loglikelihood(ds, scores, profile, 1.0)
        for delta in (-0.05, 0.05):
            worse = thurstone_joint_loglikelihood(ds, scores, {"A": 5.5 + delta}, 1.0)
            assert worse < base

    def test_consensus_only_solution_maximizes_likelihood(self):
        cases = [
            {("r1", "A"): 5, ("r2", "A"): 6},
            {("r1", "A"): 5, ("r2", "A"): 6, ("r3", "A"): 7},
            {("r1", "A"): 4, ("r2", "A"): 4, ("r3", "A"): 6},
            {("r1", "A"): 5, ("r2", "A"): 6, ("r1", "B"): 3, ("r2", "B"): 4},
        ]
        for scores in cases:
            ds = make_dataset(scores)
            deq = dequantize(ds, lam=1e-6)  # consensus only
            oracle = likelihood_lattice_maximizer(ds)
            assert by_pair(ds, deq.values) == pytest.approx(oracle, abs=1e-3)
