"""Byte-exact CLI snapshot: argv, exit code, stdout and stderr of every command.

``tests/data/cli_golden.json`` holds the input files and, for each
invocation, what ``cli.main`` printed and returned.  Input files live in a
temporary directory written as ``{dir}`` in the snapshot.  Regenerate it,
only when an output change is intended, with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from prwtest import cli

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
DIR = "{dir}"

FILES = {
    "losses.csv": "loss\n0\n0.25\n0\n0.1\n0\n0\n0.05\n0\n0\n0\n",
    "losses_bad.csv": "loss\n0.5\n1.5\n",
    "pvalues.csv": "pvalue\n0.001\n0.02\n0.3\n0.004\n0.01\n",
    "pvalues_bad.csv": "pvalue\n0.1\nabc\n",
}

RHAT = ["--n", "100", "--alpha", "0.1"]


def _cases():
    """(argv, env) pairs: every command in csv and json, plus usage and data errors."""
    cases = []
    for method, rhat in (("prw", "0.05"), ("bentkus", "0.03"),
                         ("hoeffding-tight", "0.07"), ("all", "0.09")):
        for extra in ([], ["--unclamped"]):
            for fmt in ("csv", "json"):
                cases.append(["pvalue", "--rhat", rhat, *RHAT, "--method", method,
                              *extra, "--format", fmt])
    losses = ["pvalue", "--losses", f"{DIR}/losses.csv", "--alpha", "0.2"]
    cases += [
        losses,
        [*losses, "--format", "json"],
        [*losses, "--method", "prw", "--unclamped"],
        [*losses, "--method", "bentkus", "--digits", "12", "--format", "json"],
        ["pvalue", "--rhat", "0.05", *RHAT, "--digits", "0"],
        ["pvalue", "--rhat", "0.05", *RHAT, "--digits", "20", "--format", "json"],
        # the p-values are computed before --digits is resolved
        ["pvalue", "--rhat", "0.1", "--n", str(10**19), "--alpha", "0.1", "--digits", "99"],
        ["pvalue", "--rhat", "0.1", *RHAT, "--digits", "99"],
        ["pvalue", "--losses", f"{DIR}/losses.csv", "--rhat", "0.1", "--alpha", "0.1"],
        ["pvalue", "--alpha", "0.1"],
        ["pvalue", "--rhat", "1.5", *RHAT],
        ["pvalue", "--rhat", "0.1", "--n", "10", "--alpha", "1.5"],
        ["pvalue", "--losses", f"{DIR}/losses_bad.csv", "--alpha", "0.1"],
        ["pvalue", "--losses", f"{DIR}/missing.csv", "--alpha", "0.1"],
        ["pvalue", "--rhat", "0.1", "--n", "0", "--alpha", "0.1"],
        ["pvalue", "--rhat", "0.1", "--n", "10"],
        ["compare"],
        ["compare", "--format", "json"],
        ["compare", "--n", "50", "--alpha", "0.2", "--grid", "0:0.02:0.3"],
        ["compare", "--n", "50", "--alpha", "0.2", "--grid", "0:0.02:0.3", "--format", "json"],
        ["compare", "--grid", "0.05:0.01:0.1", "--digits", "8", "--format", "json"],
        ["compare", "--grid", "0:0.1:2"],
        # exact ties at 4 decimals: 0.03125 rounds away from zero to 0.0313
        ["compare", "--grid", "0:0.03125:0.25", "--digits", "4"],
        ["compare", "--grid", "0:0.03125:0.25", "--digits", "4", "--format", "json"],
        ["pvalue", "--rhat", "0.03125", *RHAT, "--digits", "4"],
        ["plotdata", "--n", "20", "--alpha", "0.3", "--grid", "0:0.05:1"],
        ["plotdata", "--n", "20", "--alpha", "0.3", "--grid", "0:0.05:1", "--format", "json"],
        ["plotdata", "--grid", "0.05:0.01:0.2"],
        ["plotdata", "--grid", "0.05:0.01:0.2", "--format", "json"],
        ["plotdata", "--n", str(10**20)],
    ]
    pvalues = ["fwer", f"{DIR}/pvalues.csv", "--delta", "0.05"]
    for procedure in ("fixed-sequence", "fallback", "bonferroni"):
        weights = ["--weights", "0.4,0.3,0.1,0.1,0.1"] if procedure == "fallback" else []
        for fmt in ("csv", "json"):
            cases.append([*pvalues, "--procedure", procedure, *weights, "--format", fmt])
    cases += [
        [*pvalues, "--procedure", "fallback"],
        ["fwer", f"{DIR}/pvalues_bad.csv", "--procedure", "bonferroni", "--delta", "0.05"],
    ]
    for method, dist in (("prw", "bernoulli:0.11"), ("bentkus", "beta:1.1:9"),
                         ("hoeffding-tight", "discrete:0,0.5,1:0.84,0.1,0.06")):
        cases.append(["validate", "--dist", dist, *RHAT, "--method", method,
                      "--reps", "2000", "--seed", "3"])
    cases += [
        ["validate", "--dist", "bernoulli:0.11", *RHAT, "--reps", "2000", "--seed", "5",
         "--delta", "0.05,0.1", "--format", "json"],
        # one rep at n = 1 whose p-value equals delta: the check fails, exit 1
        *(["validate", "--dist", "bernoulli:0.51", "--n", "1", "--alpha", "0.5",
           "--method", "hoeffding-tight", "--reps", "1", "--delta", "0.5", "--format", fmt]
          for fmt in ("csv", "json")),
        ["validate", "--dist", "bernoulli:0.05", *RHAT],
        ["validate", "--dist", "gauss:0:1", *RHAT],
        # help and usage errors, which only argparse prints
        ["--help"],
        *([command, "--help"] for command in ("pvalue", "compare", "plotdata", "fwer", "validate")),
        [],
        ["frobnicate"],
        ["compare", "--bogus"],
        ["validate", "--dist", "bernoulli:0.11", *RHAT, "--method", "nope"],
        ["fwer", "--procedure", "bonferroni", "--delta", "0.05"],
        # accepted forms beyond plain `--flag value` tokens
        ["pvalue", "--rhat=0.05", *RHAT],
        ["pvalue", "--rhat", "0.05", "--n", "100", "--alp", "0.1"],
        ["pvalue", "--rhat", "-0", *RHAT],
        ["fwer", "--procedure", "bonferroni", "--delta", "0.05", "--", f"{DIR}/pvalues.csv"],
    ]
    runs = [(argv, {}) for argv in cases]
    runs.append((["pvalue", "--rhat", "0.05", *RHAT], {"PRWTEST_DIGITS": "6"}))
    runs.append((["compare", "--grid", "0:0.05:0.1"], {"PRWTEST_DIGITS": "x"}))
    return runs


def _invoke(argv, env, directory):
    """Run cli.main on argv with {dir} bound; return (code, stdout, stderr) with {dir} put back."""
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage line to COLUMNS
    with mock.patch.dict(os.environ, COLUMNS="80"), redirect_stdout(out), redirect_stderr(err):
        os.environ.pop(cli.DIGITS_ENV_VAR, None)
        os.environ.update(env)
        try:
            code = cli.main([a.replace(DIR, directory) for a in argv])
        except SystemExit as exc:  # usage errors
            code = exc.code
    return code, out.getvalue().replace(directory, DIR), err.getvalue().replace(directory, DIR)


def _write_files(files, directory):
    for name, text in files.items():
        Path(directory, name).write_text(text, encoding="utf-8")


def test_cli_output_matches_the_snapshot(tmp_path):
    snapshot = json.loads(GOLDEN.read_text(encoding="utf-8"))
    _write_files(snapshot["files"], tmp_path)
    mismatched = [
        case["argv"] for case in snapshot["cases"]
        if _invoke(case["argv"], case["env"], str(tmp_path))
        != (case["code"], case["stdout"], case["stderr"])
    ]
    assert mismatched == []


def _write_snapshot():
    cases = []
    with tempfile.TemporaryDirectory() as directory:
        _write_files(FILES, directory)
        for argv, env in _cases():
            code, out, err = _invoke(argv, env, directory)
            cases.append({"argv": argv, "env": env, "code": code, "stdout": out, "stderr": err})
    GOLDEN.write_text(json.dumps({"files": FILES, "cases": cases}, indent=1) + "\n",
                      encoding="utf-8")
    print(f"{len(cases)} invocations written to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _write_snapshot()
