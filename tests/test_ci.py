"""The CI workflow checks itself: it parses, its shell and Python are valid, and
every pytest selection it names collects tests.

These checks read `.github/workflows/tests.yml` only; they cannot run
GitHub's runner, its actions or its matrix.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


@pytest.fixture(scope="module")
def steps():
    yaml = pytest.importorskip("yaml")
    document = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    return [step for job in document["jobs"].values() for step in job["steps"]]


@pytest.fixture(scope="module")
def runs(steps):
    return [step["run"] for step in steps if "run" in step]


def test_every_step_name_is_a_string(steps):
    # an unquoted ": " in a name makes YAML read a mapping, or fail to parse
    names = [step["name"] for step in steps if "name" in step]
    assert names and all(isinstance(name, str) for name in names), names


def test_every_run_block_parses_in_bash(runs):
    for run in runs:
        result = subprocess.run(["bash", "-n"], input=run, capture_output=True, text=True)
        assert result.returncode == 0, (run, result.stderr)


def python_programs(run):
    """The program of each `python ... -c PROGRAM` in a run block."""
    words = shlex.split(run)
    return [
        words[j + 1]
        for i, word in enumerate(words) if re.fullmatch(r"python3?", word)
        for j in range(i + 1, min(i + 4, len(words) - 1)) if words[j] == "-c"
    ]


def test_every_inline_python_program_compiles(runs):
    programs = [program for run in runs for program in python_programs(run)]
    assert len(programs) >= 3, programs
    for program in programs:
        compile(program, "<python -c>", "exec")


def pytest_selections(runs):
    """(node ids, -k expression or None, the arguments after `pytest`) of each pytest run
    that names node ids."""
    selections = []
    for run in runs:
        words = shlex.split(run)
        if "pytest" not in words:
            continue
        args = words[words.index("pytest") + 1:]
        valued = {"-k", "--hypothesis-profile"}
        ids = [a for i, a in enumerate(args) if not a.startswith("-") and args[i - 1] not in valued]
        if ids:
            selections.append((ids, args[args.index("-k") + 1] if "-k" in args else None, args))
    return selections


def test_every_pytest_selection_collects_tests(runs):
    selections = pytest_selections(runs)
    assert len(selections) >= 4, selections
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for ids, keyword, args in selections:
        args = [a for a in args if a != "-q"]  # -qq would list files, not tests
        result = subprocess.run(
            [sys.executable, "-m", "pytest", *args, "--collect-only", "-q", "-p", "no:cacheprovider"],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, (args, result.stdout[-2000:], result.stderr[-2000:])
        collected = [line for line in result.stdout.splitlines() if "::" in line]
        for node in ids:
            assert any(c == node or c.startswith(node + "::") or c.startswith(node + "[")
                       for c in collected), f"{node} selects no test under -k {keyword!r}"
