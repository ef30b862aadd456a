"""Golden output digests: the SHA-256 of every byte the CLI writes for a
fixed set of seeded runs, compared with ``tests/data/golden.json``.

The outputs are produced in process from synthetic inputs written by the
package's own ``simulate`` path, plus two small hand-written datasets that
``validate`` rejects:

- P=60 ``dequantize --lambda auto`` CSV, ``--report`` and stdout at seeds 0-2;
- the P=60 seed-0 ``qv --output`` report;
- the P=60 seed-0 ``baseline`` CSV of every method;
- ``validate`` stdout on the P=60 seed-0 files, on a dataset with model
  violations and on one whose ranked chain ``--epsilon 0.4`` cannot separate;
- the P=600 seed-0 ``dequantize --lambda auto`` CSV and ``--report``, a
  size at which the lambda path's active set moves from step to step;
- the P=1500 seed-0 ``dequantize --lambda 1`` CSV;
- the JSON, ``--table`` CSV and stdout of a ``--trials 3`` experiment;
- the JSON of a ``--trials 3`` experiment of the three baselines on
  ``tests/data/raw_ten_level.csv``, whose tied rankings put several tie
  groups in one quantization bin;
- the ``scripts/run_qv_curve.py --seed 7`` CSV.

Printed paths, and the raw-score path the raw-score report names, are
replaced by ``<tmp>`` before hashing. A change that alters
an output on purpose regenerates the file with
``PYTHONPATH=src python tests/test_golden.py --regenerate``, which prints
the names of the digests that changed, were added or were removed, and says
why; any other invocation of the script prints its usage and writes nothing.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io as text_io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from deqscores import cli, io
from deqscores.synth import SynthConfig, generate

GOLDEN = Path(__file__).resolve().parent / "data" / "golden.json"
RAW_SCORES = Path(__file__).resolve().parent / "data" / "raw_ten_level.csv"
QV_CURVE = Path(__file__).resolve().parent.parent / "scripts" / "run_qv_curve.py"
BASELINES = ("quantized", "bre_adjusted", "partial_rankings_adjusted")

# reviews and rankings CSVs that ``validate`` rejects
INVALID = (
    "reviewer_id,paper_id,score\nr1,A,5\nr1,B,3\nr1,C,9\nr2,A,4\nr2,B,4\nr2,C,2\n",
    "reviewer_id,better_paper_id,worse_paper_id\n"
    "r1,B,A\nr2,A,B\nr2,B,C\nr2,C,A\nr2,A,D\n",
)
UNSEPARABLE = (
    "reviewer_id,paper_id,score\nr1,A,3\nr1,B,3\nr1,C,3\nr1,D,3\nr2,A,2\n",
    "reviewer_id,better_paper_id,worse_paper_id\nr1,A,B\nr1,B,C\nr1,C,D\n",
)


def _simulate(directory: Path, papers: int, seed: int) -> list[str]:
    prefix = directory / f"p{papers}_s{seed}"
    reviews, rankings, _truth = io.write_synthetic(
        generate(SynthConfig(num_papers=papers, seed=seed)), prefix
    )
    return ["--reviews", str(reviews), "--rankings", str(rankings)]


def _files(directory: Path, name: str, texts: tuple[str, str]) -> list[str]:
    reviews = directory / f"{name}_reviews.csv"
    rankings = directory / f"{name}_rankings.csv"
    reviews.write_text(texts[0])
    rankings.write_text(texts[1])
    return ["--reviews", str(reviews), "--rankings", str(rankings)]


def _run(directory: Path, argv: list[str], status: int = cli.EXIT_OK) -> bytes:
    """Run one CLI command and return its stdout, printed paths replaced."""
    stdout = text_io.StringIO()
    with contextlib.redirect_stdout(stdout):
        actual = cli.main(argv)
    if actual != status:
        raise RuntimeError(f"{argv[0]} exited {actual}, expected {status}")
    return stdout.getvalue().replace(str(directory), "<tmp>").encode()


def _qv_curve(directory: Path, seed: int) -> Path:
    """Run ``scripts/run_qv_curve.py --seed <seed> --csv ...`` in process."""
    spec = importlib.util.spec_from_file_location("run_qv_curve", QV_CURVE)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    path = directory / f"qv_curve_s{seed}.csv"
    argv = sys.argv
    sys.argv = [str(QV_CURVE), "--seed", str(seed), "--csv", str(path)]
    try:
        with contextlib.redirect_stdout(text_io.StringIO()):
            if script.main() != 0:
                raise RuntimeError("run_qv_curve.py failed")
    finally:
        sys.argv = argv
    return path


def golden_outputs(directory: Path) -> dict[str, bytes]:
    """Name -> bytes of every pinned output, written under ``directory``."""
    outputs: dict[str, Path] = {}
    printed: dict[str, bytes] = {}
    for seed in range(3):
        data = _simulate(directory, 60, seed)
        csv_path = directory / f"auto_p60_s{seed}.csv"
        report_path = directory / f"auto_p60_s{seed}.json"
        printed[f"dequantize_auto_p60_s{seed}.stdout"] = _run(
            directory,
            ["dequantize", *data, "--lambda", "auto",
             "--output", str(csv_path), "--report", str(report_path)],
        )
        outputs[f"dequantize_auto_p60_s{seed}.csv"] = csv_path
        outputs[f"dequantize_auto_p60_s{seed}.report.json"] = report_path
    data = _simulate(directory, 60, 0)
    qv_path = directory / "qv_p60_s0.json"
    _run(directory, ["qv", *data, "--output", str(qv_path)])
    outputs["qv_p60_s0.json"] = qv_path
    for method in BASELINES:
        baseline_path = directory / f"baseline_{method}.csv"
        _run(directory, ["baseline", "--method", method, *data, "--output", str(baseline_path)])
        outputs[f"baseline_{method}_p60_s0.csv"] = baseline_path
    printed["validate_p60_s0.stdout"] = _run(directory, ["validate", *data])
    printed["validate_invalid.stdout"] = _run(
        directory, ["validate", *_files(directory, "invalid", INVALID)], cli.EXIT_VALIDATION
    )
    printed["validate_unseparable.stdout"] = _run(
        directory,
        ["validate", *_files(directory, "unseparable", UNSEPARABLE), "--epsilon", "0.4"],
        cli.EXIT_VALIDATION,
    )
    medium_csv = directory / "auto_p600_s0.csv"
    medium_report = directory / "auto_p600_s0.json"
    _run(directory, ["dequantize", *_simulate(directory, 600, 0), "--lambda", "auto",
                     "--output", str(medium_csv), "--report", str(medium_report)])
    outputs["dequantize_auto_p600_s0.csv"] = medium_csv
    outputs["dequantize_auto_p600_s0.report.json"] = medium_report
    large_path = directory / "fixed_p1500_s0.csv"
    _run(directory, ["dequantize", *_simulate(directory, 1500, 0), "--lambda", "1",
                     "--output", str(large_path)])
    outputs["dequantize_lambda1_p1500_s0.csv"] = large_path
    experiment_path = directory / "experiment.json"
    table_path = directory / "experiment_table.csv"
    printed["experiment_trials3.stdout"] = _run(
        directory,
        ["experiment", "--trials", "3", "--output", str(experiment_path),
         "--table", str(table_path)],
    )
    outputs["experiment_trials3.json"] = experiment_path
    outputs["experiment_trials3.table.csv"] = table_path
    raw_scores = directory / RAW_SCORES.name  # the report names it: under <tmp>
    raw_scores.write_bytes(RAW_SCORES.read_bytes())
    raw_path = directory / "experiment_raw.json"
    _run(
        directory,
        ["experiment", "--raw-scores", str(raw_scores), "--reviews-per-paper", "3",
         "--papers-per-reviewer", "3", "--sweep", "lambda", "--values", "1",
         "--trials", "3", "--methods", ",".join(BASELINES),
         "--metrics", "kendall,l2,ties", "--output", str(raw_path)],
    )
    printed["experiment_raw_baselines_trials3.json"] = (
        raw_path.read_text().replace(str(directory), "<tmp>").encode()
    )
    outputs["qv_curve_p60_s7.csv"] = _qv_curve(directory, 7)
    return {**{name: path.read_bytes() for name, path in outputs.items()}, **printed}


def digests(directory: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256(data).hexdigest()
        for name, data in sorted(golden_outputs(directory).items())
    }


def test_outputs_match_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    actual = digests(tmp_path)
    changed = sorted(name for name in expected if actual.get(name) != expected[name])
    assert sorted(actual) == sorted(expected)
    assert not changed, f"outputs differ from tests/data/golden.json: {changed}"


def test_script_regenerates_only_when_asked(tmp_path):
    # a mistyped invocation must not replace the pins this file compares against
    before = GOLDEN.read_bytes()
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for argv in ([], ["--help"], ["--regenerate", "extra"]):
        run = subprocess.run(
            [sys.executable, __file__, *argv], capture_output=True, text=True, env=env, cwd=tmp_path
        )
        assert run.returncode != 0 and run.stderr.startswith("usage:"), argv
        assert GOLDEN.read_bytes() == before, argv


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: PYTHONPATH=src python tests/test_golden.py --regenerate\n"
                 f"rewrites {GOLDEN} from the current outputs")
    pinned = json.loads(GOLDEN.read_text())
    with tempfile.TemporaryDirectory() as scratch:
        table = digests(Path(scratch))
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(table)} digests)", file=sys.stderr)
    for kind, names in (
        ("changed", [name for name in table.keys() & pinned.keys() if table[name] != pinned[name]]),
        ("added", table.keys() - pinned.keys()),
        ("removed", pinned.keys() - table.keys()),
    ):
        for name in sorted(names):
            print(f"{kind}: {name}", file=sys.stderr)
