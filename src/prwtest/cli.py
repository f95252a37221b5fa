"""Command-line front end.

Subcommands: ``pvalue`` (one report from losses or an explicit empirical
risk), ``compare`` (rounded p-value table over an empirical-risk grid),
``plotdata`` (dense unrounded curves for external plotting), ``fwer``
(multiple-testing procedures over a p-value file), and ``validate``
(seeded Monte Carlo check of super-uniformity, usable as a CI gate).

Exit codes: 0 success / validation pass, 1 validation fail (``validate``
only), 2 usage or data error or a failed write to stdout, 141 stdout closed
by its reader (``| head``).
"""

from __future__ import annotations

import argparse
import codecs
import io
import math
import operator
import os
import sys
from typing import BinaryIO, Callable, Iterable, Optional, Sequence, TextIO

from .baselines import compare  # noqa: F401  perfbench's tracer test reads cli.compare
from .binomial import _check_closed_unit
from .fwer import FwerPlan, bonferroni, fallback, fixed_sequence
from .mc import PVALUE_METHODS, LossDistribution, simulate_superuniformity
from .prw import TestSpec, prw_pvalue  # noqa: F401  perfbench's tracer test reads cli.prw_pvalue

__all__ = ["read_loss_csv", "main", "entrypoint", "DEFAULT_COMPARE_GRID"]

# Default grid for `compare`: 45 evenly spaced empirical risks from 0.  The
# step reproduces the published reference table for (n=100, alpha=0.1); in
# particular the 34th value sits just above the 0.05 step breakpoint, which is
# where that table's generator placed it.  The golden tests pin these doubles.
DEFAULT_COMPARE_GRID: tuple[float, ...] = tuple(i * 0.0015151516 for i in range(45))

DEFAULT_PLOT_POINTS = 1000
# Most values a --grid may hold in [0, 1], so a tiny step fails fast
# instead of filling memory.
MAX_GRID_POINTS = 10**6
DIGITS_ENV_VAR = "PRWTEST_DIGITS"
# Most decimals --digits may ask for.  A double holds 17 significant digits,
# so 27 decimals already show every value above 1e-10 in full.
MAX_DIGITS = 27


class DataError(Exception):
    """Malformed input data or flags; maps to exit code 2."""


def _read_column(path: str, header: str, label: str) -> tuple[float, ...]:
    """Read the values of a single-column CSV with a required header.

    UTF-8 (BOM tolerated), LF or CRLF line endings.  Any malformed or
    out-of-range value raises DataError naming the offending data row.
    The file is opened once.  A plain file is parsed in one bulk pass; every
    other file, and every error, goes through the csv row scan, which gives
    the same values.  The scan rereads a seekable file from its start, and
    a pipe from the bytes the bulk pass kept of it.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        kept: Optional[list[bytes]] = None if fh.seekable() else []
        values = _read_plain_column(fh, header, kept)
        if values is not None:
            return values
        if kept is None:
            # A fresh buffer over the rewound file, so the text layer reads
            # it in the same chunks, and reports a decode error at the same
            # position, as over a file it opened itself
            fh.raw.seek(0)
            source = io.BufferedReader(fh.raw)
        else:
            source = io.BytesIO(b"".join(kept) + fh.read())
        with io.TextIOWrapper(source, encoding="utf-8-sig", newline="") as text:
            return _scan_rows(text, path, header, label)


# Bytes of whole lines the bulk pass parses at a time, so that what it holds
# besides the values stays bounded whatever the size of the file.
_BULK_BATCH_BYTES = 1 << 18


def _read_plain_column(
    fh: BinaryIO, header: str, kept: Optional[list[bytes]]
) -> Optional[tuple[float, ...]]:
    """The column's values in one bulk pass, or None to leave the file to the row scan.

    Reads ``fh`` in batches of whole lines and, when ``kept`` is a list,
    appends each batch's bytes to it.  Only a file with no lone CR, no line
    at the csv field limit, the header on its first line and one in-range
    number or nothing but ASCII whitespace on every other line qualifies.
    float() rejects quotes, commas and every non-ASCII byte, so each line it
    takes decodes to itself and is one unquoted csv field, and it strips
    the same whitespace as the row scan's str.strip().  The row scan skips
    the whitespace-only lines that bytes.strip() empties here.
    """
    import csv  # loaded by the first read; the limit is read anew, so a changed one holds
    limit = csv.field_size_limit()
    values: list[float] = []
    at_header = True
    while lines := fh.readlines(_BULK_BATCH_BYTES):
        chunk = b"".join(lines)
        if kept is not None:
            kept.append(chunk)
        if chunk.count(b"\r") != chunk.count(b"\r\n"):  # the row scan splits at a lone CR
            return None
        if len(chunk) >= limit and max(map(len, lines)) >= limit:
            return None
        if at_header:
            if lines.pop(0).removeprefix(codecs.BOM_UTF8).strip() != header.encode():
                return None
            at_header = False
        batch: list[float] = []
        rest = iter(lines)
        skipped = 0
        while True:
            try:
                batch.extend(map(float, rest))
                break
            except ValueError:  # a whitespace-only line, or a value only the row scan reports
                failed = len(lines) - operator.length_hint(rest) - 1
                # extend keeps what it appended before the error; were that
                # ever not so, the count would differ and the row scan decide
                if lines[failed].strip() or len(batch) != failed - skipped:
                    return None
                skipped += 1
        # a NaN makes the sum NaN; min and max alone can miss it
        if batch and (min(batch) < 0.0 or max(batch) > 1.0 or math.isnan(sum(batch))):
            return None
        values += batch
    return tuple(values) if values else None


def _scan_rows(fh: TextIO, path: str, header: str, label: str) -> tuple[float, ...]:
    """The csv row scan behind ``_read_column``: the source of every read error."""
    import csv
    values: list[float] = []
    row_number = -1  # the header is row 0, data rows count from 1
    reader = csv.reader(fh)
    try:
        first = next(reader, None)
        if first is None:
            raise DataError(f"{path}: empty file; expected a `{header}` header")
        if [h.strip() for h in first] != [header]:
            raise DataError(
                f"{path}: expected a single `{header}` column header, got {first!r}"
            )
        row_number = 0
        for row_number, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 1:
                raise DataError(f"{path}: row {row_number}: expected 1 column, got {len(row)}")
            text = row[0].strip()
            try:
                value = float(text)
            except ValueError:
                raise DataError(f"{path}: row {row_number}: not a number: {text!r}") from None
            if math.isnan(value) or not 0.0 <= value <= 1.0:
                raise DataError(f"{path}: row {row_number}: {label} {text} outside [0, 1]")
            values.append(value)
    except csv.Error as exc:
        raise DataError(f"{path}: row {row_number + 1}: {exc}") from None
    if not values:
        raise DataError(f"{path}: no {label} rows found")
    return tuple(values)


def read_loss_csv(path: str) -> tuple[float, ...]:
    """Read losses from a single-column CSV with a required `loss` header."""
    return _read_column(path, "loss", "loss")


def read_pvalue_csv(path: str) -> tuple[float, ...]:
    """Read ordered p-values from a single-column CSV with a `pvalue` header."""
    return _read_column(path, "pvalue", "p-value")


def round_half_away(value: float, digits: int) -> str:
    """``value`` to ``digits`` decimals in fixed point, with ties going away from zero.

    The double's exact ratio is rounded in integers, so unclamped bound values
    far above 1 round as exactly as p-values do.  A zero result keeps the sign.
    """
    num, den = abs(value).as_integer_ratio()
    q, r = divmod(num * 10**digits, den)
    whole, frac = divmod(q + (2 * r >= den), 10**digits)
    sign = "-" if math.copysign(1.0, value) < 0.0 else ""
    return f"{sign}{whole}.{frac:0{digits}d}" if digits else f"{sign}{whole}"


def _resolve_digits(value: Optional[int]) -> int:
    """Explicit --digits, else the env override, else 4; within [0, MAX_DIGITS]."""
    if value is not None:
        if not 0 <= value <= MAX_DIGITS:
            raise DataError(f"--digits must lie in [0, {MAX_DIGITS}], got {value}")
        return value
    raw = os.environ.get(DIGITS_ENV_VAR)
    if raw is None:
        return 4
    try:
        digits = int(raw)
    except ValueError:
        raise DataError(f"{DIGITS_ENV_VAR} must be an integer, got {raw!r}") from None
    if not 0 <= digits <= MAX_DIGITS:
        raise DataError(f"{DIGITS_ENV_VAR} must lie in [0, {MAX_DIGITS}], got {raw!r}")
    return digits


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse a start:step:stop grid spec into an inclusive tuple of values."""
    parts = text.split(":")
    if len(parts) != 3:
        raise DataError(f"grid must look like start:step:stop, got {text!r}")
    try:
        start, step, stop = (float(p) for p in parts)
    except ValueError:
        raise DataError(f"grid must contain numbers, got {text!r}") from None
    if math.isnan(start) or math.isnan(step) or math.isnan(stop):
        raise DataError(f"grid values must be numbers, got {text!r}")
    if math.isinf(start) or math.isinf(step) or math.isinf(stop):
        raise DataError(f"grid values must be finite, got {text!r}")
    if step <= 0.0:
        raise DataError(f"grid step must be positive, got {step!r}")
    if stop < start:
        raise DataError(f"grid stop must be >= start, got {text!r}")
    if (min(stop, 1.0) - start) / step >= MAX_GRID_POINTS:
        raise DataError(f"grid must hold at most {MAX_GRID_POINTS} points, got {text!r}")
    # Not range(count): a huge stop overflows the count; the loop ends above 1
    limit = (stop - start) / step + 1e-9
    values = []
    i = 0
    while i <= limit:
        v = start + i * step
        if not 0.0 <= v <= 1.0:
            raise DataError(f"grid value {v!r} outside [0, 1]")
        values.append(v)
        i += 1
    return tuple(values)


def parse_dist(text: str) -> LossDistribution:
    """Parse a distribution spec: bernoulli:P, beta:A:B, or discrete:X1,..:Q1,.."""
    parts = text.split(":")
    kind = parts[0].strip().lower()
    try:
        if kind == "bernoulli" and len(parts) == 2:
            return LossDistribution.bernoulli(float(parts[1]))
        if kind == "beta" and len(parts) == 3:
            return LossDistribution.beta(float(parts[1]), float(parts[2]))
        if kind in ("discrete", "scaled-discrete") and len(parts) == 3:
            support = [float(x) for x in parts[1].split(",")]
            probs = [float(x) for x in parts[2].split(",")]
            return LossDistribution.scaled_discrete(support, probs)
    except ValueError as exc:
        raise DataError(f"invalid distribution spec {text!r}: {exc}") from exc
    raise DataError(
        f"invalid distribution spec {text!r}; expected bernoulli:P, beta:A:B, "
        f"or discrete:X1,..,Xk:Q1,..,Qk"
    )


def _parse_float_list(text: str, name: str) -> tuple[float, ...]:
    try:
        values = tuple(float(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise DataError(f"{name} must be a comma-separated list of numbers, got {text!r}") from None
    if not values:
        raise DataError(f"{name} must contain at least one number, got {text!r}")
    return values


# ---------------------------------------------------------------------------
# Subcommands: each computes its table once and hands it to _emit
# ---------------------------------------------------------------------------

_CURVE_COLUMNS = ("rhat", *(method.replace("-", "_") for method in PVALUE_METHODS))


def _curve_row(rhat: float, spec: TestSpec) -> tuple[float, ...]:
    return (rhat, *(pvalue(rhat, spec) for pvalue in PVALUE_METHODS.values()))


def _repr_or_flag(value: object) -> str:
    return str(value).lower() if isinstance(value, bool) else repr(value)


def _emit(
    args: argparse.Namespace,
    columns: Sequence[str],
    rows: Iterable[Sequence[object]],
    cell: Callable[[object], str],
    payload: Callable[[], dict],
) -> None:
    """Write a command's output: one JSON document, or a CSV table.

    ``payload()`` is called, and ``json`` imported, only for ``--format
    json``.  CSV rows are written one at a time, each value through ``cell``.
    """
    if args.format == "json":
        import json
        print(json.dumps(payload()))
        return
    out = sys.stdout
    out.write(",".join(columns) + "\n")
    out.writelines(",".join(map(cell, row)) + "\n" for row in rows)


def cmd_pvalue(args: argparse.Namespace) -> int:
    for flag in ("rhat", "n"):
        if args.losses is not None and getattr(args, flag) is not None:
            raise DataError(f"pass either --losses or --{flag}, not both")
    if args.losses is not None:
        losses = read_loss_csv(args.losses)
        n = len(losses)
        rhat = math.fsum(losses) / n
    else:
        if args.rhat is None or args.n is None:
            raise DataError("pass --losses FILE, or both --rhat and --n")
        n = args.n
        rhat = args.rhat
    spec = TestSpec(n=n, alpha=args.alpha)
    _check_closed_unit(rhat, "--rhat")

    methods = PVALUE_METHODS if args.method == "all" else (args.method,)
    values: dict[str, float] = {}
    for method in methods:
        # exp(-n*KL) never exceeds 1, so tight Hoeffding has no raw form
        unclamped = args.unclamped and method != "hoeffding-tight"
        kwargs = {"clamp": False} if unclamped else {}
        values[method.replace("-", "_")] = PVALUE_METHODS[method](rhat, spec, **kwargs)

    digits = _resolve_digits(args.digits)
    row = [round_half_away(v, digits) for v in (rhat, *values.values())]
    _emit(args, ("rhat", *values), [row], str, lambda: {
        "command": "pvalue", "n": spec.n, "alpha": spec.alpha, "rhat": rhat,
        "digits": digits, "unclamped": bool(args.unclamped),
        "pvalues": dict(zip(values, map(float, row[1:]))),
    })
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    spec = TestSpec(n=args.n, alpha=args.alpha)
    grid = DEFAULT_COMPARE_GRID if args.grid is None else parse_grid(args.grid)
    digits = _resolve_digits(args.digits)
    rows = [[round_half_away(v, digits) for v in _curve_row(r, spec)] for r in grid]
    _emit(args, _CURVE_COLUMNS, rows, str, lambda: {
        "command": "compare", "n": spec.n, "alpha": spec.alpha, "digits": digits,
        "rows": [dict(zip(_CURVE_COLUMNS, map(float, row))) for row in rows],
    })
    return 0


def cmd_plotdata(args: argparse.Namespace) -> int:
    spec = TestSpec(n=args.n, alpha=args.alpha)
    if args.grid is None:
        grid = tuple(i / (DEFAULT_PLOT_POINTS - 1) for i in range(DEFAULT_PLOT_POINTS))
    else:
        grid = parse_grid(args.grid)
    rows = [(*_curve_row(rhat, spec), int(rhat > spec.t_max)) for rhat in grid]
    # capped is 0/1 in CSV and true/false in JSON
    _emit(args, (*_CURVE_COLUMNS, "capped"), rows, repr, lambda: {
        "command": "plotdata", "n": spec.n, "alpha": spec.alpha, "cap": spec.t_max,
        "rows": [{**dict(zip(_CURVE_COLUMNS, row)), "capped": row[-1] == 1} for row in rows],
    })
    return 0


_PROCEDURES = {
    "fixed-sequence": fixed_sequence,
    "fallback": fallback,
    "bonferroni": bonferroni,
}


def cmd_fwer(args: argparse.Namespace) -> int:
    pvalues = read_pvalue_csv(args.pvalues)
    weights = None if args.weights is None else _parse_float_list(args.weights, "--weights")
    if args.procedure == "fallback" and weights is None:
        raise DataError("fallback requires --weights")
    plan = FwerPlan(pvalues=pvalues, delta=args.delta, weights=weights)
    outcome = _PROCEDURES[args.procedure](plan)
    rows = zip(range(len(plan.pvalues)), plan.pvalues, outcome.local_levels, outcome.rejected)
    _emit(args, ("index", "pvalue", "local_level", "rejected"), rows, _repr_or_flag, lambda: {
        "command": "fwer", "procedure": args.procedure, "delta": plan.delta,
        "pvalues": plan.pvalues, "rejected": outcome.rejected,
        "local_levels": outcome.local_levels,
    })
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    dist = parse_dist(args.dist)
    spec = TestSpec(n=args.n, alpha=args.alpha)
    deltas = _parse_float_list(args.delta, "--delta")
    report = simulate_superuniformity(
        dist, spec, args.method, deltas, reps=args.reps, seed=args.seed
    )
    columns = ("delta", "exceedance", "stderr", "pass")
    rows = [
        (d, e, se, e <= d + 3.0 * se)
        for d, e, se in zip(report.delta_grid, report.exceedance, report.stderr)
    ]
    all_ok = all(row[3] for row in rows)
    _emit(args, columns, rows, _repr_or_flag, lambda: {
        "command": "validate", "dist": args.dist, "n": spec.n, "alpha": spec.alpha,
        "method": args.method, "reps": report.reps, "seed": report.seed,
        "results": [dict(zip(columns, row)) for row in rows], "pass": all_ok,
    })
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prwtest",
        description="Distribution-free p-values for the mean of [0,1]-bounded losses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pvalue", help="p-value(s) for one sample or empirical risk")
    p.add_argument("--rhat", type=float, help="observed empirical risk in [0, 1]")
    p.add_argument("--n", type=_positive_int, help="sample size (with --rhat)")
    p.add_argument("--losses", help="CSV file with a single `loss` column")
    p.add_argument("--alpha", type=float, required=True, help="risk threshold in (0, 1)")
    p.add_argument("--method", choices=(*PVALUE_METHODS, "all"), default="all")
    p.add_argument("--digits", type=int, default=None)
    p.add_argument("--unclamped", action="store_true",
                   help="report raw bound values, which may exceed 1")
    p.set_defaults(func=cmd_pvalue)

    p = sub.add_parser("compare", help="table of all three p-values over a risk grid")
    p.add_argument("--n", type=_positive_int, default=100)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--grid", help="start:step:stop (inclusive); default: built-in 45-point grid")
    p.add_argument("--digits", type=int, default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("plotdata", help="dense unrounded p-value curves for plotting")
    p.add_argument("--n", type=_positive_int, default=100)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--grid", help="start:step:stop (inclusive); default: 1000 points over [0, 1]")
    p.set_defaults(func=cmd_plotdata)

    p = sub.add_parser("fwer", help="run an FWER procedure over a p-value file")
    p.add_argument("pvalues", help="CSV file with a single `pvalue` column, in test order")
    p.add_argument("--procedure", choices=tuple(_PROCEDURES), required=True)
    p.add_argument("--delta", type=float, required=True, help="global FWER level in (0, 1)")
    p.add_argument("--weights", help="comma-separated fallback weights summing to 1")
    p.set_defaults(func=cmd_fwer)

    p = sub.add_parser("validate", help="Monte Carlo super-uniformity check (CI gate)")
    p.add_argument("--dist", required=True,
                   help="bernoulli:P, beta:A:B, or discrete:X1,..:Q1,..")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--method", choices=tuple(PVALUE_METHODS), default="prw")
    p.add_argument("--reps", type=_positive_int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", default="0.01,0.05,0.1,0.2",
                   help="comma-separated levels to check")
    p.set_defaults(func=cmd_validate)

    for p in sub.choices.values():
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


# Built by the first main() call, not at import, and shared by later calls;
# parse_args leaves a parser unchanged, so one call cannot affect the next.
_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, ValueError, MemoryError, OverflowError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            # The reader closed stdout early, as `| head` does
            code = 141  # 128 + SIGPIPE, as a shell reports a process the signal killed
        else:  # such as stdout on a full disk
            print(f"error: {exc}", file=sys.stderr)
            code = 2
        # devnull on the descriptor keeps the flush at exit from failing a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
