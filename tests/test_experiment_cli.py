import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import deqscores
from deqscores import experiment, qv
from deqscores.cli import build_parser, main
from deqscores.experiment import ExperimentSpec, FileSource, run_experiment
from deqscores.io import ParseError
from deqscores.metrics import kendall_tau_error
from deqscores.qp import MaxIterationsExceeded
from deqscores.synth import SynthConfig, generate, trial_seed

DATA = Path(__file__).parent / "data"

TINY = SynthConfig(num_papers=8, reviews_per_paper=2, papers_per_reviewer=2)


def tiny_spec(**overrides):
    defaults = dict(
        methods=("proposed", "quantized", "bre_adjusted", "partial_rankings_adjusted"),
        sweep_parameter="sigma",
        sweep_values=(0.3, 0.8),
        trials=2,
        base=TINY,
        metrics=("kendall", "l2", "ties"),
        lam=2.0,
        seed=5,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestRunExperiment:
    def test_report_shape_and_aggregation(self):
        report = run_experiment(tiny_spec())
        assert len(report.results) == 2 * 4  # sweep values x methods
        cell = report.cell("proposed", 0.3, "kendall")
        assert set(cell) == {"mean", "sem", "trials"}
        assert len(cell["trials"]) == 2
        assert cell["mean"] == pytest.approx(sum(cell["trials"]) / 2)

    def test_reruns_are_identical(self):
        a = run_experiment(tiny_spec()).to_json()
        b = run_experiment(tiny_spec()).to_json()
        assert a == b

    def test_workers_do_not_change_results(self):
        serial = run_experiment(tiny_spec()).to_json()
        parallel = run_experiment(tiny_spec(jobs=2)).to_json()
        serial["parameters"].pop("jobs", None)
        parallel["parameters"].pop("jobs", None)
        assert serial == parallel

    def test_workers_do_not_change_auto_lambda_results(self, monkeypatch):
        # nine P=60 trials are two selection paths, of 8 trials and of 1:
        # one or two workers, and trials grouped or alone, give one report
        spec = tiny_spec(base=SynthConfig(), lam="auto", sweep_values=(0.5,), trials=9)
        assert experiment._groups(spec, 0.5) == [range(0, 8), range(8, 9)]
        serial = run_experiment(spec).to_json()
        assert serial == run_experiment(dataclasses.replace(spec, jobs=2)).to_json()
        monkeypatch.setattr(experiment, "_UNION_REVIEWS", 0)
        assert experiment._groups(spec, 0.5) == [range(trial, trial + 1) for trial in range(9)]
        assert serial == run_experiment(spec).to_json()

    def test_a_group_selects_its_weights_on_one_path(self, monkeypatch):
        # nine P=60 trials make two paths, over the 1 920 reviews of trials
        # 0-7 and over the 240 of trial 8, and one final solve per trial:
        # 2 x 40 + 9 solves, where trials alone make 9 x 41
        paths, solves = [], {"path": 0, "final": 0}
        path = qv.lambda_path

        def recorded(compiled, lambdas):
            paths.append(compiled.z.size)
            return path(compiled, lambdas)

        def counted(module, name):
            solve = module.solve

            def wrapped(problem, active=None):
                solves[name] += 1
                return solve(problem, active)

            monkeypatch.setattr(module, "solve", wrapped)

        monkeypatch.setattr(qv, "lambda_path", recorded)
        counted(qv, "path")
        counted(sys.modules["deqscores.dequantize"], "final")
        run_experiment(tiny_spec(base=SynthConfig(), lam="auto", sweep_values=(0.5,), trials=9))
        assert paths == [8 * 240, 240]
        assert solves == {"path": 2 * 40, "final": 9}

    def test_auto_lambda_records_selection(self):
        report = run_experiment(tiny_spec(lam="auto", trials=1, sweep_values=(0.5,)))
        rows = [r for r in report.results if r["method"] == "proposed"]
        assert rows and all(
            s is not None and s > 0 for r in rows for s in r["selected_lambdas"]
        )

    def test_lambda_sweep_controls_fit_weight(self):
        report = run_experiment(
            tiny_spec(sweep_parameter="lambda", sweep_values=(1.0, 1e6), lam="auto",
                      methods=("proposed", "quantized"), trials=1)
        )
        # at huge weight the output hugs the scores, so the kendall error of
        # the proposed method approaches the quantized baseline's
        near = abs(
            report.cell("proposed", 1e6, "kendall")["mean"]
            - report.cell("quantized", 1e6, "kendall")["mean"]
        )
        far = abs(
            report.cell("proposed", 1.0, "kendall")["mean"]
            - report.cell("quantized", 1.0, "kendall")["mean"]
        )
        assert near <= far

    def test_file_source_uses_projected_l2(self):
        spec = tiny_spec(
            base=FileSource(str(DATA / "raw_ten_level.csv")),
            sweep_parameter="papers_per_reviewer",
            sweep_values=(3,),
            methods=("quantized",),
            trials=1,
        )
        report = run_experiment(spec)
        # coarse score 1..5 projected back lands on 1..10, truth is 1..10,
        # so the l2 error stays finite and is computed on integers
        cell = report.cell("quantized", 3, "l2")
        assert cell["mean"] > 0

    def test_file_source_rejects_sigma_sweep(self):
        # the file fixes the review values, so sigma would only relabel rows
        with pytest.raises(ValueError, match="cannot sweep sigma") as info:
            tiny_spec(base=FileSource(str(DATA / "raw_ten_level.csv")))
        assert "papers_per_reviewer, reviews_per_paper, lambda" in str(info.value)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown methods"):
            tiny_spec(methods=("nonsense",))

    @pytest.mark.parametrize(
        "metrics", [("kendall", "l2", "ties"), ("ties",)], ids=["all-metrics", "ties-only"]
    )
    def test_estimate_of_other_length_rejected(self, metrics):
        truth = np.array([1.0, 2.0])
        estimates = [np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0])]
        with pytest.raises(ValueError, match="aligned vectors of one length"):
            experiment._evaluate(truth, estimates, metrics, False)

    def test_one_kendall_call_per_trial(self, monkeypatch):
        calls = []
        kernel = experiment.kendall_tau_errors

        def recorded(truth, estimates):
            calls.append((truth, estimates))
            return kernel(truth, estimates)

        monkeypatch.setattr(experiment, "kendall_tau_errors", recorded)
        spec = tiny_spec(sweep_values=(0.5,))
        report = run_experiment(spec)
        assert [len(estimates) for _, estimates in calls] == [4, 4]
        # each trial's errors are the single-vector kernel's, bit for bit
        for i, method in enumerate(spec.methods):
            singles = [kendall_tau_error(truth, estimates[i]) for truth, estimates in calls]
            assert report.cell(method, 0.5, "kendall")["trials"] == singles


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_simulate_validate_dequantize_round_trip(self, tmp_path, capsys):
        prefix = tmp_path / "demo"
        assert self.run(
            "simulate", "--papers", "8", "--reviews-per-paper", "2",
            "--papers-per-reviewer", "2", "--seed", "3",
            "--output-prefix", str(prefix),
        ) == 0
        reviews = f"{prefix}_reviews.csv"
        rankings = f"{prefix}_rankings.csv"
        assert self.run("validate", "--reviews", reviews, "--rankings", rankings) == 0
        out = tmp_path / "out.csv"
        assert self.run(
            "dequantize", "--reviews", reviews, "--rankings", rankings,
            "--lambda", "2", "--output", str(out),
        ) == 0
        assert out.exists()
        capsys.readouterr()

    def test_report_without_ranked_pairs_is_strict_json(self, tmp_path, capsys):
        reviews = tmp_path / "reviews.csv"
        reviews.write_text("reviewer_id,paper_id,score\nr1,A,3\nr1,B,4\nr2,A,5\nr2,B,2\n")
        report = tmp_path / "report.json"
        assert self.run(
            "dequantize", "--reviews", str(reviews), "--lambda", "1",
            "--output", str(tmp_path / "out.csv"), "--report", str(report),
        ) == 0
        assert "min ranked-pair margin: inf" in capsys.readouterr().out

        def reject(name):
            raise AssertionError(f"report holds {name}, which is not JSON")

        payload = json.loads(report.read_text(), parse_constant=reject)
        assert payload["min_pair_margin"] is None
        assert payload["report_version"] == 2
        assert set(payload["parameters"]) == {"epsilon", "lambda"}

    def test_validation_failure_exits_two(self, tmp_path, capsys):
        reviews = tmp_path / "reviews.csv"
        rankings = tmp_path / "rankings.csv"
        reviews.write_text("reviewer_id,paper_id,score\nr1,A,5\nr1,B,3\n")
        rankings.write_text("reviewer_id,better_paper_id,worse_paper_id\nr1,B,A\n")
        assert self.run("validate", "--reviews", str(reviews), "--rankings", str(rankings)) == 2
        assert "RANK_SCORE_INCONSISTENT" in capsys.readouterr().out

    def test_solver_failure_exits_three(self, tmp_path, capsys):
        lines = ["reviewer_id,paper_id,score"]
        rank_lines = ["reviewer_id,better_paper_id,worse_paper_id"]
        papers = [f"p{i:02d}" for i in range(22)]
        for p in papers:
            lines.append(f"r1,{p},5")
        for a, b in zip(papers, papers[1:]):
            rank_lines.append(f"r1,{a},{b}")
        reviews = tmp_path / "reviews.csv"
        rankings = tmp_path / "rankings.csv"
        reviews.write_text("\n".join(lines) + "\n")
        rankings.write_text("\n".join(rank_lines) + "\n")
        rc = self.run(
            "dequantize", "--reviews", str(reviews), "--rankings", str(rankings),
            "--lambda", "2", "--output", str(tmp_path / "out.csv"),
        )
        assert rc == 3
        capsys.readouterr()

    @pytest.mark.parametrize("epsilon, code", [(None, 2), ("0.04", 0)])
    def test_validate_checks_ranked_chains_fit_their_boxes(self, tmp_path, capsys, epsilon, code):
        # one reviewer scores 25 papers 5 and ranks them in one chain: 24 gaps
        # of 0.05 need 1.2 units inside a box 1 unit wide, 24 of 0.04 fit
        papers = [f"p{i:02d}" for i in range(25)]
        reviews = tmp_path / "reviews.csv"
        rankings = tmp_path / "rankings.csv"
        reviews.write_text("reviewer_id,paper_id,score\n" + "".join(f"r1,{p},5\n" for p in papers))
        rankings.write_text(
            "reviewer_id,better_paper_id,worse_paper_id\n"
            + "".join(f"r1,{a},{b}\n" for a, b in zip(papers, papers[1:]))
        )
        argv = ["validate", "--reviews", str(reviews), "--rankings", str(rankings)]
        if epsilon is not None:
            argv += ["--epsilon", epsilon]
        assert self.run(*argv) == code
        out = capsys.readouterr().out
        if code:
            assert "ranked chain of 25 reviews" in out
            assert "('r1', 'p00')" in out and "('r1', 'p24')" in out
        else:
            assert out == "ok\n"

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            self.run("dequantize")  # missing required flags
        assert exit_info.value.code == 1
        capsys.readouterr()

    def test_bad_lambda_value_exits_one(self, tmp_path, capsys):
        reviews = tmp_path / "reviews.csv"
        reviews.write_text("reviewer_id,paper_id,score\nr1,A,5\n")
        with pytest.raises(SystemExit) as exit_info:
            self.run(
                "dequantize", "--reviews", str(reviews),
                "--lambda", "-3", "--output", str(tmp_path / "o.csv"),
            )
        assert exit_info.value.code == 1
        capsys.readouterr()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_lambda_exits_one(self, tmp_path, capsys, value):
        reviews = tmp_path / "reviews.csv"
        reviews.write_text("reviewer_id,paper_id,score\nr1,A,5\nr2,A,4\n")
        with pytest.raises(SystemExit) as exit_info:
            self.run(
                "dequantize", "--reviews", str(reviews),
                f"--lambda={value}", "--output", str(tmp_path / "o.csv"),
            )
        assert exit_info.value.code == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("dequantize", "--seed"),
            ("dequantize", "--feastol"),
            ("qv", "--seed"),
            ("qv", "--lambda"),
            ("qv", "--feastol"),
            ("experiment", "--feastol"),
        ],
    )
    def test_flag_that_changes_nothing_is_unknown(
        self, tmp_path, capsys, monkeypatch, command, flag
    ):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiment, "_run_trial", no_trial)
        out = tmp_path / "out"
        argv = [command, flag, "1", "--output", str(out)]
        if command != "experiment":
            reviews = tmp_path / "reviews.csv"
            reviews.write_text("reviewer_id,paper_id,score\nr1,A,5\nr2,A,4\n")
            argv += ["--reviews", str(reviews)]
        with pytest.raises(SystemExit) as exit_info:
            self.run(*argv)
        assert exit_info.value.code == 1
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "given", [["--papers", "999"], ["--sigma", "7"], ["--papers", "999", "--sigma", "7"]],
        ids=["papers", "sigma", "both"],
    )
    def test_synthetic_option_with_raw_scores_exits_one(self, tmp_path, capsys, monkeypatch, given):
        # the file replaces the synthetic data, so these options would change nothing
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiment, "_run_trial", no_trial)
        out = tmp_path / "report.json"
        rc = self.run(
            "experiment", "--raw-scores", str(DATA / "raw_ten_level.csv"),
            "--reviews-per-paper", "3", "--papers-per-reviewer", "3", "--sweep", "lambda",
            "--values", "1", "--trials", "1", "--methods", "quantized", "--output", str(out),
            *given,
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert all(flag in err for flag in given if flag.startswith("--"))
        assert not out.exists()

    def test_synthetic_defaults_come_from_synth_config(self):
        parser = build_parser()
        simulate = parser.parse_args(["simulate", "--output-prefix", "x"])
        assert (simulate.papers, simulate.sigma) == (SynthConfig.num_papers, SynthConfig.sigma)

    def test_seed_parses_where_it_draws_data(self):
        parser = build_parser()
        assert parser.parse_args(["simulate", "--seed", "3", "--output-prefix", "x"]).seed == 3
        assert parser.parse_args(["experiment", "--seed", "3", "--output", "x"]).seed == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["--sigma", "nan"],
            ["--papers-per-reviewer", "0"],
            ["--papers", "3", "--papers-per-reviewer", "4"],
        ],
        ids=["nan-sigma", "zero-load", "load-above-papers"],
    )
    def test_bad_synthetic_config_exits_one(self, tmp_path, capsys, argv):
        rc = self.run("simulate", *argv, "--output-prefix", str(tmp_path / "demo"))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_impossible_assignment_in_trial_exits_one(self, tmp_path, capsys, jobs):
        rc = self.run(
            "experiment", "--values", "0.5", "--trials", "1", "--papers", "3",
            "--papers-per-reviewer", "4", "--jobs", jobs,
            "--output", str(tmp_path / "report.json"),
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: trial 0 at sigma=0.5 failed: cannot assign 4 distinct papers")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--sweep", "papers_per_reviewer", "--values", "2.5"], "whole numbers"),
            (["--values", "0.5,0.5"], "distinct"),
            (["--jobs", "0"], "jobs"),
            (["--jobs", "-3"], "jobs"),
            (["--values", "0.5,nan"], "sigma must be"),
            (["--sweep", "reviews_per_paper", "--values", "2,0"], "at least 1"),
            (["--raw-scores", str(DATA / "raw_ten_level.csv")], "cannot sweep sigma"),
            (
                ["--raw-scores", str(DATA / "raw_ten_level.csv"),
                 "--sweep", "reviews_per_paper", "--values", "3,0"],
                "reviews_per_paper must be at least 1, got 0",
            ),
            (
                ["--raw-scores", str(DATA / "raw_ten_level.csv"),
                 "--sweep", "papers_per_reviewer", "--values", "3,-1"],
                "papers_per_reviewer must be at least 1, got -1",
            ),
            (["--sweep", "lambda", "--values", "1,2"], "lam must stay 'auto', got 2.0"),
        ],
        ids=[
            "fractional-load", "repeated-value", "zero-jobs", "negative-jobs",
            "nan-sigma", "zero-load", "file-sigma", "file-zero-load", "file-negative-load",
            "lambda-sweep-with-weight",
        ],
    )
    def test_mislabelled_sweep_rejected_before_any_trial(
        self, tmp_path, capsys, monkeypatch, argv, message
    ):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiment, "_run_trial", no_trial)
        report = tmp_path / "report.json"
        rc = self.run(
            "experiment", *argv, "--trials", "1", "--papers", "8",
            "--reviews-per-paper", "2", "--papers-per-reviewer", "2", "--lambda", "2",
            "--output", str(report),
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1
        assert not report.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--methods", "proposed,proposed"], "methods must be distinct"),
            (["--metrics", "kendall,kendall"], "metrics must be distinct"),
        ],
        ids=["repeated-method", "repeated-metric"],
    )
    def test_repeated_method_or_metric_rejected_before_any_trial(
        self, tmp_path, capsys, monkeypatch, argv, message
    ):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiment, "_run_trial", no_trial)
        report = tmp_path / "report.json"
        rc = self.run(
            "experiment", *argv, "--values", "0.5", "--trials", "1", "--papers", "8",
            "--reviews-per-paper", "2", "--papers-per-reviewer", "2",
            "--output", str(report),
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1
        assert not report.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate"],
            ["dequantize", "--lambda", "1"],
            ["dequantize"],
            ["qv"],
            ["baseline", "--method", "quantized"],
        ],
        ids=["validate", "dequantize-fixed", "dequantize-auto", "qv", "baseline"],
    )
    def test_empty_reviews_rejected_with_explicit_scale(self, tmp_path, capsys, argv):
        reviews = tmp_path / "reviews.csv"
        reviews.write_text("reviewer_id,paper_id,score\n")
        out = tmp_path / "out.csv"
        if argv[0] in ("dequantize", "baseline"):
            argv = [*argv, "--output", str(out)]
        rc = self.run(*argv, "--reviews", str(reviews), "--scale", "0", "10")
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {reviews}:2: no reviews\n"
        assert "ok" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("epsilon", ["nan", "-3", "1.5"])
    def test_baseline_bad_epsilon_exits_one(self, tmp_path, capsys, epsilon):
        reviews = tmp_path / "reviews.csv"
        rankings = tmp_path / "rankings.csv"
        reviews.write_text("reviewer_id,paper_id,score\nr1,A,5\nr1,B,5\n")
        rankings.write_text("reviewer_id,better_paper_id,worse_paper_id\nr1,A,B\n")
        out = tmp_path / "base.csv"
        rc = self.run(
            "baseline", "--method", "partial_rankings_adjusted", "--reviews", str(reviews),
            "--rankings", str(rankings), f"--epsilon={epsilon}", "--output", str(out),
        )
        assert rc == 1
        assert "epsilon" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate"],
            ["dequantize"],
            ["qv"],
            ["baseline", "--method", "quantized"],
            ["experiment", "--trials", "1", "--values", "0.5"],
        ],
        ids=["validate", "dequantize", "qv", "baseline", "experiment"],
    )
    def test_bad_epsilon_is_rejected_before_any_input_is_read(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        trials = []
        monkeypatch.setattr(experiment, "_run_trial", lambda *args: trials.append(args))
        out = tmp_path / "out"
        argv = [*argv, "--epsilon", "2"]
        if argv[0] != "validate":
            argv += ["--output", str(out)]
        if argv[0] != "experiment":
            reviews = tmp_path / "reviews.csv"
            reviews.write_text("reviewer_id,paper_id,score\nr1,A,five\n")  # a parse error
            argv += ["--reviews", str(reviews)]
        assert self.run(*argv) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == ["error: --epsilon must lie strictly between 0 and 1, got 2"]
        assert not trials and not out.exists()

    def test_qv_command_reports_selection(self, tmp_path, capsys):
        prefix = tmp_path / "demo"
        self.run(
            "simulate", "--papers", "8", "--reviews-per-paper", "2",
            "--papers-per-reviewer", "2", "--seed", "3", "--output-prefix", str(prefix),
        )
        out = tmp_path / "qv.json"
        rc = self.run(
            "qv", "--reviews", f"{prefix}_reviews.csv",
            "--rankings", f"{prefix}_rankings.csv", "--output", str(out),
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["selected_lambda"] in payload["lambdas"]
        assert payload["report_version"] == 2
        assert set(payload["parameters"]) == {"epsilon"}
        assert "<- selected" in capsys.readouterr().out

    def test_baseline_command(self, tmp_path, capsys):
        prefix = tmp_path / "demo"
        self.run(
            "simulate", "--papers", "8", "--reviews-per-paper", "2",
            "--papers-per-reviewer", "2", "--seed", "3", "--output-prefix", str(prefix),
        )
        out = tmp_path / "base.csv"
        rc = self.run(
            "baseline", "--method", "quantized",
            "--reviews", f"{prefix}_reviews.csv", "--output", str(out),
        )
        assert rc == 0 and out.exists()
        capsys.readouterr()

    def test_experiment_command_writes_report_and_table(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        table_path = tmp_path / "table.csv"
        rc = self.run(
            "experiment", "--sweep", "sigma", "--values", "0.5",
            "--trials", "1", "--papers", "8", "--reviews-per-paper", "2",
            "--papers-per-reviewer", "2", "--lambda", "2",
            "--methods", "proposed,quantized", "--metrics", "kendall,ties",
            "--seed", "1", "--output", str(report_path), "--table", str(table_path),
        )
        assert rc == 0
        payload = json.loads(report_path.read_text())
        assert payload["report_version"] == 2
        assert payload["parameters"]["epsilon"] == 0.05
        assert "feasibility_tolerance" not in payload["parameters"]
        assert not [key for key in payload["parameters"]["base"] if key.endswith("_range")]
        header = table_path.read_text().splitlines()[0]
        assert header == "method,sweep_value,metric,mean,sem"
        capsys.readouterr()

    def test_experiment_reruns_byte_identical(self, tmp_path, capsys):
        paths = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            rc = self.run(
                "experiment", "--sweep", "sigma", "--values", "0.5",
                "--trials", "1", "--papers", "8", "--reviews-per-paper", "2",
                "--papers-per-reviewer", "2", "--lambda", "2",
                "--methods", "quantized", "--metrics", "kendall",
                "--seed", "1", "--output", str(path),
            )
            assert rc == 0
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        capsys.readouterr()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "contents, code",
        [(None, 1), (b"paper_id,score\npaper01,x\n", 2), (b"\xff\xfe", 2)],
        ids=["missing-file", "unparsable-file", "undecodable-file"],
    )
    def test_failing_trial_exits_with_documented_code(self, tmp_path, capsys, jobs, contents, code):
        raw = tmp_path / "raw.csv"
        if contents is not None:
            raw.write_bytes(contents)
        rc = self.run(
            "experiment", "--raw-scores", str(raw), "--sweep", "papers_per_reviewer",
            "--values", "3", "--trials", "1", "--jobs", jobs,
            "--output", str(tmp_path / "report.json"),
        )
        assert rc == code
        err = capsys.readouterr().err
        prefix = "error: trial 0 at papers_per_reviewer=3.0 failed: "
        assert err.startswith(prefix)
        # one line, and the cause's own text follows the context
        assert len(err.splitlines()) == 1 and err[len(prefix):].strip()

    def test_failing_trial_solver_error_exits_three(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise MaxIterationsExceeded(7, (1e-3, 2e-3))

        monkeypatch.setattr(experiment, "dequantize", fail)
        rc = self.run(
            "experiment", "--values", "0.5", "--trials", "1", "--papers", "8",
            "--reviews-per-paper", "2", "--papers-per-reviewer", "2", "--lambda", "2",
            "--output", str(tmp_path / "report.json"),
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: trial 0 at sigma=0.5 failed: no solution")


class TestFailureInAGroup:
    """A group of trials selects its weights on one path; a failure anywhere
    in it is reported as the first failing trial, run alone, would be."""

    ARGV = ("experiment", "--values", "0.5", "--trials", "6")

    @staticmethod
    def run(tmp_path, jobs, capsys):
        rc = main([*TestFailureInAGroup.ARGV, "--jobs", jobs, "--output", str(tmp_path / "r.json")])
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_an_all_tied_trial_is_named_as_alone(self, tmp_path, capsys, monkeypatch, jobs):
        draw = experiment._instance_for

        def tie_trial_3(spec, sweep_value, trial):
            dataset, truth, project_l2 = draw(spec, sweep_value, trial)
            if trial == 3:
                dataset = dataclasses.replace(dataset, scores=np.full_like(dataset.scores, 5))
            return dataset, truth, project_l2

        monkeypatch.setattr(experiment, "_instance_for", tie_trial_3)
        assert experiment._groups(experiment.ExperimentSpec(trials=6), 0.5) == [range(6)]
        rc, err = self.run(tmp_path, jobs, capsys)
        assert rc == 1
        assert err == (
            "error: trial 3 at sigma=0.5 failed: all original scores are tied; "
            "loss is undefined\n"
        )

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_solver_failure_of_one_trial_is_named_as_alone(
        self, tmp_path, capsys, monkeypatch, jobs
    ):
        trial_3 = generate(SynthConfig(seed=trial_seed(0, 3))).dataset
        solve = experiment.dequantize

        def fail_trial_3(dataset, lam, epsilon):
            if np.array_equal(dataset.scores, trial_3.scores):
                raise MaxIterationsExceeded(7, (1e-3, 2e-3))
            return solve(dataset, lam, epsilon)

        monkeypatch.setattr(experiment, "dequantize", fail_trial_3)
        rc, err = self.run(tmp_path, jobs, capsys)
        assert rc == 3
        assert err == (
            "solver error: trial 3 at sigma=0.5 failed: no solution at requested tolerances "
            "after 7 iterations (primal 1.00e-03, stationarity 2.00e-03)\n"
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_failing_union_path_runs_the_trials_alone(self, monkeypatch, jobs):
        spec = ExperimentSpec(trials=3, sweep_values=(0.5,), jobs=jobs)
        assert experiment._groups(spec, 0.5) == [range(3)]
        grouped = run_experiment(dataclasses.replace(spec, jobs=1)).to_json()
        path = qv.lambda_path

        def fail_unions(compiled, lambdas):
            if compiled.z.size > 240:
                raise MaxIterationsExceeded(7, (1e-3, 2e-3))
            return path(compiled, lambdas)

        monkeypatch.setattr(qv, "lambda_path", fail_unions)
        assert run_experiment(spec).to_json() == grouped


    def test_an_error_no_trial_raises_is_not_retried(self, monkeypatch):
        # a fault in the grouping itself propagates as it is: the trials
        # are not run again one at a time, which would hide it
        def broken(datasets, epsilon):
            raise TypeError("broken grouping")

        monkeypatch.setattr(qv, "select_lambdas", broken)
        monkeypatch.setattr(experiment, "_run_trial", None)  # never reached
        with pytest.raises(TypeError, match="^broken grouping$"):
            run_experiment(ExperimentSpec(trials=3, sweep_values=(0.5,)))

def test_worker_failure_keeps_class_and_attributes(tmp_path):
    # ParseError's constructor takes (path, line, message), so it only
    # survives the trip back from a worker process if rebuilt from its state
    raw = tmp_path / "raw.csv"
    raw.write_text("paper_id,score\npaper01,x\n")
    spec = ExperimentSpec(
        methods=("quantized",), sweep_parameter="papers_per_reviewer", sweep_values=(3,),
        trials=2, base=FileSource(raw_path=str(raw)), jobs=2,
    )
    with pytest.raises(ParseError, match=r"^trial 0 at papers_per_reviewer=3 failed: ") as info:
        run_experiment(spec)
    assert info.value.line == 2


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone costs most of a second of every command's start-up
    src = str(Path(deqscores.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import deqscores.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_a_serial_experiment_loads_no_process_pool():
    # the pool module is imported only for jobs > 1: it costs every serial
    # run memory and start-up time
    src = str(Path(deqscores.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "from deqscores.experiment import ExperimentSpec, run_experiment\n"
        "from deqscores.synth import SynthConfig\n"
        "config = SynthConfig(num_papers=8, reviews_per_paper=2, papers_per_reviewer=2)\n"
        "run_experiment(ExperimentSpec(sweep_values=(0.5,), trials=2, base=config))\n"
        "print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
