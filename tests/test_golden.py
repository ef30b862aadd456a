"""Golden output digests: the SHA-256 of every byte the CLI writes for a
fixed set of seeded runs, compared with ``tests/data/golden.json``.

The outputs are produced in process from synthetic inputs written by the
package's own ``simulate`` path:

- P=60 ``dequantize --lambda auto`` CSV and ``--report`` at seeds 0-2;
- the P=60 seed-0 ``qv --output`` report;
- the P=1500 seed-0 ``dequantize --lambda 1`` CSV;
- the JSON of a ``--trials 3`` experiment.

A change that alters an output on purpose regenerates the file with
``PYTHONPATH=src python tests/test_golden.py`` and says why.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from deqscores import cli, io
from deqscores.synth import SynthConfig, generate

GOLDEN = Path(__file__).resolve().parent / "data" / "golden.json"


def _simulate(directory: Path, papers: int, seed: int) -> list[str]:
    prefix = directory / f"p{papers}_s{seed}"
    reviews, rankings, _truth = io.write_synthetic(
        generate(SynthConfig(num_papers=papers, seed=seed)), prefix
    )
    return ["--reviews", str(reviews), "--rankings", str(rankings)]


def _run(argv: list[str]) -> None:
    status = cli.main(argv)
    if status != cli.EXIT_OK:
        raise RuntimeError(f"{argv[0]} exited {status}")


def golden_outputs(directory: Path) -> dict[str, bytes]:
    """Name -> bytes of every pinned output, written under ``directory``."""
    outputs: dict[str, Path] = {}
    for seed in range(3):
        data = _simulate(directory, 60, seed)
        csv_path = directory / f"auto_p60_s{seed}.csv"
        report_path = directory / f"auto_p60_s{seed}.json"
        _run(["dequantize", *data, "--lambda", "auto",
              "--output", str(csv_path), "--report", str(report_path)])
        outputs[f"dequantize_auto_p60_s{seed}.csv"] = csv_path
        outputs[f"dequantize_auto_p60_s{seed}.report.json"] = report_path
    qv_path = directory / "qv_p60_s0.json"
    _run(["qv", *_simulate(directory, 60, 0), "--output", str(qv_path)])
    outputs["qv_p60_s0.json"] = qv_path
    large_path = directory / "fixed_p1500_s0.csv"
    _run(["dequantize", *_simulate(directory, 1500, 0), "--lambda", "1",
          "--output", str(large_path)])
    outputs["dequantize_lambda1_p1500_s0.csv"] = large_path
    experiment_path = directory / "experiment.json"
    _run(["experiment", "--trials", "3", "--output", str(experiment_path)])
    outputs["experiment_trials3.json"] = experiment_path
    return {name: path.read_bytes() for name, path in outputs.items()}


def digests(directory: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256(data).hexdigest()
        for name, data in sorted(golden_outputs(directory).items())
    }


def test_outputs_match_golden_digests(tmp_path, capsys):
    expected = json.loads(GOLDEN.read_text())
    actual = digests(tmp_path)
    capsys.readouterr()  # the commands' stdout is not pinned here
    changed = sorted(name for name in expected if actual.get(name) != expected[name])
    assert sorted(actual) == sorted(expected)
    assert not changed, f"outputs differ from tests/data/golden.json: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        table = digests(Path(scratch))
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(table)} digests)", file=sys.stderr)
