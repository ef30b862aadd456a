"""OpenBLAS threads: ``import deqscores`` pins one thread unless the user set
a count or numpy loaded first, and neither the CLI's output bytes nor
``metrics.l2_error`` depend on the count. Each case runs in a fresh
interpreter, because OpenBLAS reads the variable once, when numpy loads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import deqscores
from deqscores import io
from deqscores.synth import SynthConfig, generate

SRC = str(Path(deqscores.__file__).resolve().parent.parent)
VARIABLE = "OPENBLAS_NUM_THREADS"


def run(argv, threads=None):
    """Run ``python argv`` with ``src`` on the path and the variable set to
    ``threads`` (unset for None)."""
    env = {k: v for k, v in os.environ.items() if k != VARIABLE}
    env["PYTHONPATH"] = SRC
    if threads is not None:
        env[VARIABLE] = threads
    result = subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    return result


@pytest.mark.parametrize(
    "imports, threads, expected",
    [
        ("import deqscores", None, "1"),
        ("import deqscores", "2", "2"),
        ("import numpy; import deqscores", None, None),
    ],
    ids=["unset", "kept", "numpy-first"],
)
def test_import_pins_one_thread_unless_told_otherwise(imports, threads, expected):
    code = f"{imports}; import os; print(os.environ.get({VARIABLE!r}))"
    assert run(["-c", code], threads).stdout.strip() == str(expected)


def test_csv_bytes_do_not_depend_on_the_thread_count(tmp_path):
    # n = 12 000 reviews, above the 10 000 elements from which OpenBLAS
    # splits a dot product over its threads
    reviews, rankings, _truth = io.write_synthetic(
        generate(SynthConfig(num_papers=3000, seed=0)), tmp_path / "p3000"
    )
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        run(
            ["-m", "deqscores.cli", "dequantize", "--reviews", str(reviews),
             "--rankings", str(rankings), "--lambda", "1", "--output", str(out)],
            threads,
        )
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_l2_error_does_not_depend_on_the_thread_count():
    # numpy loads first, so the variable sets OpenBLAS's count; 60 000
    # elements are split over its threads
    code = (
        "import numpy as np; from deqscores.metrics import l2_error\n"
        "for seed in range(5):\n"
        "    rng = np.random.default_rng(seed)\n"
        "    truth = rng.uniform(1.0, 10.0, 60_000)\n"
        "    print(repr(l2_error(truth, truth + rng.normal(0.0, 1.5, 60_000))))\n"
    )
    one, two = (run(["-c", code], threads).stdout for threads in ("1", "2"))
    assert one == two
