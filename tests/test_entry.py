"""The process entry: ``python -m deqscores.cli`` and the ``deqscores``
script run ``cli.run``, which freezes the imported objects before ``main``.
A command run as its own process prints, writes and exits as ``cli.main``
does in process, and ``main`` leaves the caller's collector alone."""

import ast
import gc
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from deqscores import cli
from deqscores.io import write_synthetic
from deqscores.synth import SynthConfig, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=300)


def run_entry(argv):
    return run_python("-m", "deqscores.cli", *argv)


def run_in_process(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse exits on a usage error
        code = exc.code
    out, err = capsys.readouterr()
    return code, out.encode(), err.encode()


@pytest.fixture(scope="module")
def p60(tmp_path_factory):
    """The seed-0 P=60 synthetic reviews and rankings files."""
    prefix = tmp_path_factory.mktemp("p60") / "input"
    reviews, rankings, _ = write_synthetic(generate(SynthConfig(num_papers=60, seed=0)), prefix)
    return ["--reviews", str(reviews), "--rankings", str(rankings)]


def test_dequantize_as_a_process_matches_main(p60, tmp_path, capsys):
    out, report = tmp_path / "out.csv", tmp_path / "report.json"
    argv = ["dequantize", *p60, "--output", str(out), "--report", str(report)]
    proc = run_entry(argv)
    assert (proc.returncode, proc.stderr) == (0, b"")
    entry = out.read_bytes(), report.read_bytes(), proc.stdout
    code, stdout, stderr = run_in_process(argv, capsys)
    assert (code, stderr) == (0, b"")
    assert entry == (out.read_bytes(), report.read_bytes(), stdout)
    assert b"selected lambda: " in stdout


@pytest.mark.parametrize(
    "reviews, extra, code, error",
    [
        ("reviewer_id,paper_id,score\nr1,A,5\n", ["--lambda", "-3"], 1,
         "deqscores dequantize: error: argument --lambda: --lambda must be a positive "
         "finite number, got '-3'"),
        ("reviewer_id,paper_id,score\nr1,A,5\nr1,B,3\n", [], 2,
         "error: invalid review dataset: RANK_SCORE_INCONSISTENT[r1]: ('B', 'A') but scores "
         "are 3 < 5"),
    ],
    ids=["bad-lambda", "validate-rejected"],
)
def test_failures_as_a_process_match_main(tmp_path, capsys, reviews, extra, code, error):
    (tmp_path / "reviews.csv").write_text(reviews)
    (tmp_path / "rankings.csv").write_text("reviewer_id,better_paper_id,worse_paper_id\nr1,B,A\n")
    argv = [
        "dequantize", "--reviews", str(tmp_path / "reviews.csv"),
        "--rankings", str(tmp_path / "rankings.csv"), *extra,
        "--output", str(tmp_path / "out.csv"),
    ]
    proc = run_entry(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == run_in_process(argv, capsys)
    assert proc.returncode == code
    errors = [line for line in proc.stderr.decode().splitlines() if "error:" in line]
    assert errors == [error]
    assert not (tmp_path / "out.csv").exists()


def test_run_freezes_then_exits_with_main(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or cli.EXIT_SOLVER)
    with pytest.raises(SystemExit) as exit_info:
        cli.run()
    assert (calls, exit_info.value.code) == (["freeze", "main"], cli.EXIT_SOLVER)


def test_main_freezes_nothing(p60, tmp_path, capsys):
    before = gc.get_freeze_count()
    assert cli.main(["dequantize", *p60, "--lambda", "1", "--output", str(tmp_path / "o.csv")]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def test_script_and_module_share_one_entry():
    # pyproject.toml is read as text: tomllib is not in Python 3.10
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]", 1)[1]
    script = re.search(r'^deqscores = "deqscores\.cli:(\w+)"$', scripts, re.MULTILINE)
    assert script is not None
    tree = ast.parse(Path(cli.__file__).read_text())
    (block,) = [
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    (call,) = block.body
    assert ast.unparse(call) == f"{script[1]}()"
    assert callable(getattr(cli, script[1]))


# scipy modules a command has no use for: the solver factors nothing and
# ``validate`` finds rank cycles by itself
UNUSED_SCIPY = ("scipy.sparse.linalg", "scipy.linalg", "scipy.sparse.csgraph")


def test_no_command_loads_scipy_linear_algebra(p60, tmp_path):
    # the CLI's import, an auto run and the validate of a dataset with a rank
    # cycle, in one process
    reviews, rankings = tmp_path / "reviews.csv", tmp_path / "rankings.csv"
    reviews.write_text("reviewer_id,paper_id,score\nr1,A,5\nr1,B,5\nr1,C,5\n")
    rankings.write_text("reviewer_id,better_paper_id,worse_paper_id\nr1,A,B\nr1,B,C\nr1,C,A\n")
    commands = [
        ["dequantize", *p60, "--lambda", "auto", "--output", str(tmp_path / "out.csv")],
        ["validate", "--reviews", str(reviews), "--rankings", str(rankings)],
    ]
    code = (
        "import sys\n"
        "import deqscores.cli as cli\n"
        f"unused = set({UNUSED_SCIPY!r})\n"
        "loaded = [sorted(unused & set(sys.modules))]\n"
        f"for argv in {commands!r}:\n"
        "    loaded.append((cli.main(argv), sorted(unused & set(sys.modules))))\n"
        "print(loaded)\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert b"cycle through 'A' > 'B' > 'C'" in proc.stdout + proc.stderr
    expected = [[], (cli.EXIT_OK, []), (cli.EXIT_VALIDATION, [])]
    assert proc.stdout.decode().splitlines()[-1] == repr(expected)
