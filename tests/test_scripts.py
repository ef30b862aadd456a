"""Smoke tests of the scripts in ``scripts/``: each runs as its own process on
a small input and must exit 0 with its documented outputs."""

import csv
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *argv):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        capture_output=True, text=True, timeout=300,
    )


def test_qv_curve_writes_csv(tmp_path):
    path = tmp_path / "curve.csv"
    result = run_script("run_qv_curve.py", "--papers", "12", "--seed", "7", "--csv", str(path))
    assert result.returncode == 0, result.stderr
    rows = list(csv.reader(path.open(newline="")))
    assert rows[0] == ["lambda", "validation_error", "true_error", "selected", "oracle_best"]
    assert len(rows) == 1 + 40
    assert sum(int(row[3]) for row in rows[1:]) == 1
    assert "selected lambda" in result.stdout


def test_synthetic_sweeps_write_report(tmp_path):
    result = run_script(
        "run_synthetic_sweeps.py", "--sweeps", "sigma", "--trials", "1", "--out", str(tmp_path)
    )
    assert result.returncode == 0, result.stderr
    report = json.loads((tmp_path / "sweep_sigma.json").read_text())
    assert report["report_version"] == 2
    assert report["parameters"]["sweep_parameter"] == "sigma"
    assert report["parameters"]["sweep_values"] == [0.1, 0.5, 1.0]
    assert len(report["results"]) == 3 * 3  # sweep values x methods


def test_synthetic_sweeps_reject_an_unknown_name_before_any_sweep(tmp_path):
    result = run_script(
        "run_synthetic_sweeps.py", "--sweeps", "sigma,foo", "--trials", "1", "--out", str(tmp_path)
    )
    assert result.returncode == 2
    assert result.stdout == "" and not list(tmp_path.iterdir())
    errors = [line for line in result.stderr.splitlines() if "error:" in line]
    assert errors == [
        "run_synthetic_sweeps.py: error: argument --sweeps: unknown sweeps foo; "
        "known: sigma, papers_per_reviewer, reviews_per_paper"
    ]


def test_compare_outputs_finds_a_tree_identical_to_itself():
    result = run_script("compare_outputs.py", "--against", str(SCRIPTS.parent), "12:0")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "P=12 seed=0 lambda=auto: identical",
        "P=12 seed=0 lambda=1: identical",
        "0 different",
    ]


def test_compare_outputs_verdict_shows_what_moved_and_by_how_much():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPTS / "compare_outputs.py")
    compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare)

    def run(value, report):
        header = b"reviewer_id,paper_id,quantized_score,dequantized_score,percentile\n"
        rows = b"r0,p0,5,5.05,50\n" + b"r1,p0,4,%s,25\n" % value.encode()
        return [0, header + rows, json.dumps(report, sort_keys=True).encode()]

    report = {"max_box_violation": 0.0, "min_pair_margin": 0.05, "selected_lambda": None}
    assert compare.verdict(run("4.5", report), run("4.5", report)) == "identical"
    assert compare.verdict(run("4.5", report), run("4.25", report)) == (
        "different: largest value move 0.25; report fields moved: none"
    )
    moved = dict(report, max_box_violation=4.440892098500626e-16)
    assert compare.verdict(run("4.5", moved), run("4.5", report)) == (
        "different: largest value move 0; "
        "report fields moved: max_box_violation 4.440892098500626e-16 here, 0.0 there"
    )
