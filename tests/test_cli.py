"""CLI contract tests: golden table, flag handling, exit codes, JSON schema."""

import csv
import json
import math
import os
import subprocess
import sys
import threading
from decimal import ROUND_HALF_UP, Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from prwtest import cli
from prwtest.cli import (
    DEFAULT_COMPARE_GRID,
    MAX_DIGITS,
    DataError,
    main,
    parse_dist,
    parse_grid,
    read_loss_csv,
    read_pvalue_csv,
    round_half_away,
)
from prwtest.mc import PVALUE_METHODS
from prwtest.prw import TestSpec, prw_pvalue

DATA_DIR = Path(__file__).parent / "data"
GOLDEN = DATA_DIR / "compare_default.csv"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_losses(tmp_path, rows, header="loss", name="losses.csv", newline="\n"):
    path = tmp_path / name
    text = header + newline + newline.join(rows) + newline
    path.write_text(text, encoding="utf-8")
    return str(path)


def write_pvalues(tmp_path, values, name="pvalues.csv"):
    path = tmp_path / name
    path.write_text("pvalue\n" + "\n".join(str(v) for v in values) + "\n", encoding="utf-8")
    return str(path)


def decimal_half_up(value, digits):
    """``value`` rounded to ``digits`` decimals by Decimal's ROUND_HALF_UP: the reference.

    The context is widened to hold every digit of the result, so values far
    above 1 are quantized exactly too.
    """
    exact = Decimal(value)
    with localcontext() as context:
        context.prec = max(context.prec, exact.adjusted() + digits + 2)
        return exact.quantize(Decimal(1).scaleb(-digits), rounding=ROUND_HALF_UP)


# (reader, header, label): both single-column readers share one format and
# the same messages, up to the column's names.
READERS = (
    (read_loss_csv, "loss", "loss"),
    (read_pvalue_csv, "pvalue", "p-value"),
)


def read_error(read, path):
    with pytest.raises(DataError) as info:
        read(path)
    return str(info.value)


class TestLossCsv:
    """Every case runs through both readers, `read_loss_csv` and `read_pvalue_csv`."""

    def test_reads_lf(self, tmp_path):
        for read, header, _ in READERS:
            path = write_losses(tmp_path, ["0", "0.25", "1"], header=header)
            assert read(path) == (0.0, 0.25, 1.0)

    def test_reads_crlf_and_bom(self, tmp_path):
        path = tmp_path / "crlf.csv"
        for read, header, _ in READERS:
            path.write_bytes(b"\xef\xbb\xbf" + header.encode() + b"\r\n0.5\r\n0.25\r\n")
            assert read(str(path)) == (0.5, 0.25)

    def test_row_precise_error(self, tmp_path):
        for read, header, label in READERS:
            path = write_losses(tmp_path, ["0.5", "1.5", "0.25"], header=header)
            assert read_error(read, path) == f"{path}: row 2: {label} 1.5 outside [0, 1]"

    def test_header_required(self, tmp_path):
        for read, header, _ in READERS:
            path = write_losses(tmp_path, ["0.5"], header="value")
            assert read_error(read, path) == (
                f"{path}: expected a single `{header}` column header, got ['value']"
            )

    def test_non_numeric(self, tmp_path):
        for read, header, _ in READERS:
            path = write_losses(tmp_path, ["0.5", "oops"], header=header)
            assert read_error(read, path) == f"{path}: row 2: not a number: 'oops'"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        for read, header, _ in READERS:
            assert read_error(read, str(path)) == (
                f"{path}: empty file; expected a `{header}` header"
            )

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        for read, header, label in READERS:
            path.write_text(header + "\n\n", encoding="utf-8")
            assert read_error(read, str(path)) == f"{path}: no {label} rows found"

    def test_extra_column(self, tmp_path):
        for read, header, _ in READERS:
            path = write_losses(tmp_path, ["0.5", "0.1,0.2"], header=header)
            assert read_error(read, path) == f"{path}: row 2: expected 1 column, got 2"

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.csv"
        for read, _, _ in READERS:
            assert read_error(read, str(path)).startswith(f"cannot read {path}: ")


# Lines of a generated single-column file: values the bulk path can take,
# and lines it must leave to the csv row scan.
PLAIN_ROWS = ("0", "1", "0.5", "0.125", " 0.25 ", "1e-3", "-0.0", "1.0", "0.1\t")
ODD_ROWS = (
    "", "   ", '"0.5"', '"0,5"', "0.1,0.2", "\x1c0.5", "\u30000.5\u3000", "\x1c", "1_0",
    "0_5", "nan", "-nan", "inf", "-inf", "1.5", "-0.1", "oops", "0.5\x00", "\x00", '0.5"',
)
# csv.field_size_limit() is 131072; the row scan takes a field of exactly that size
LONG_ROWS = tuple("0." + "0" * (size - 2) for size in (131_071, 131_072, 131_073))
HEADERS = ("loss", " loss ", "\x1closs", "\rloss", "value", "loss,x", '"loss"', "", "loss\x00")


@st.composite
def column_files(draw):
    """Bytes of a loss file that mixes line endings, odd rows and decode errors."""
    sometimes = st.sampled_from((True, False, False, False))
    plain = st.sampled_from(PLAIN_ROWS) | st.floats(0, 1).map(repr)
    rows = draw(st.lists(plain, max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(ODD_ROWS)))
    header = draw(st.sampled_from(HEADERS)) if draw(sometimes) else "loss"
    if draw(sometimes):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(LONG_ROWS)))
    ending = st.sampled_from(("\n", "\r\n", "\r"))
    endings = draw(st.lists(ending, min_size=len(rows) + 1, max_size=len(rows) + 1))
    if not draw(sometimes):  # one style throughout, as most real files have
        endings = [endings[0]] * len(endings)
    if not draw(st.booleans()):
        endings[-1] = ""  # no newline at the end of the file
    data = b"".join(
        (line + end).encode() for line, end in zip([header] + rows, endings)
    )
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(sometimes):
        # invalid UTF-8 past the text reader's first 8192-byte chunk, so the
        # row scan has already read some rows when decoding fails
        data += b"0.5\n" * 2100 + draw(st.sampled_from((b"\xff", b"\xe3\x80", b"0.\xc3(")))
        data += b"\n0.5\n"
    return data


def read_outcome(read, path, *args):
    try:
        return tuple(v.hex() for v in read(path, *args))
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc).replace(path, "<path>")


def row_scan(path, header, label):
    """The csv row scan alone, over the file opened in text mode."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        return cli._scan_rows(fh, path, header, label)


def through_pipe(data, *args):
    """Outcome of ``_read_column`` on `data` written to a pipe, as `<(...)` passes it."""
    rfd, wfd = os.pipe()

    def feed():
        try:
            with os.fdopen(wfd, "wb") as writer:
                writer.write(data)
        except BrokenPipeError:  # the reader stopped early
            pass

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        outcome = read_outcome(cli._read_column, f"/dev/fd/{rfd}", *args)
    finally:
        os.close(rfd)
        feeder.join(timeout=10)
    assert not feeder.is_alive()
    return outcome


# Batch sizes for the bulk pass: a few lines, one line or less, and the default
BATCH_BYTES = st.sampled_from((1, 16, 64, cli._BULK_BATCH_BYTES))


class TestBulkRead:
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=column_files(), pvalues=st.booleans(), batch=BATCH_BYTES)
    def test_matches_the_row_scan(self, tmp_path, monkeypatch, data, pvalues, batch):
        monkeypatch.setattr(cli, "_BULK_BATCH_BYTES", batch)
        header, label = ("pvalue", "p-value") if pvalues else ("loss", "loss")
        data = data.replace(b"loss", header.encode())
        path = tmp_path / "column.csv"
        path.write_bytes(data)
        assert read_outcome(cli._read_column, str(path), header, label) == (
            read_outcome(row_scan, str(path), header, label)
        )

    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=column_files(), batch=BATCH_BYTES)
    def test_pipe_matches_a_regular_file(self, tmp_path, monkeypatch, data, batch):
        # a pipe cannot be read twice, so the row scan reads what the bulk pass kept
        monkeypatch.setattr(cli, "_BULK_BATCH_BYTES", batch)
        path = tmp_path / "column.csv"
        path.write_bytes(data)
        assert through_pipe(data, "loss", "loss") == (
            read_outcome(row_scan, str(path), "loss", "loss")
        )

    def test_a_field_limit_lowered_in_process_holds(self, capsys, tmp_path):
        path = write_losses(tmp_path, ["0.5", "0." + "0" * 118])  # a 120-byte line
        old = csv.field_size_limit(100)
        try:
            code, out, err = run(capsys, "pvalue", "--losses", path, "--alpha", "0.1")
        finally:
            csv.field_size_limit(old)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: row 2: field larger than field limit (100)\n"

    @pytest.mark.parametrize("data, expected", [
        (b'loss\n"0.5"\n0.25\n', (0.5, 0.25)),
        (b"loss\n0.5\n\n0.25\n\n", (0.5, 0.25)),
        (b"\xef\xbb\xbfloss\r\n0.5\r\n \r\n0.25\r\n", (0.5, 0.25)),
        (b"loss\n0.5\n0.25\n", (0.5, 0.25)),
        (b"loss\n0.5\noops\n", (DataError, "<path>: row 2: not a number: 'oops'")),
        (b"loss\n", (DataError, "<path>: no loss rows found")),
        (b"", (DataError, "<path>: empty file; expected a `loss` header")),
    ])
    def test_reads_every_form_through_a_pipe(self, data, expected):
        if expected[0] is not DataError:
            expected = tuple(v.hex() for v in expected)
        assert through_pipe(data, "loss", "loss") == expected

    def test_each_odd_line_matches_the_row_scan(self, tmp_path):
        path = tmp_path / "column.csv"
        for ending in ("\n", "\r\n", "\r"):
            files = [[header, "0.5"] for header in HEADERS]
            files += [["loss", "0.5", row, "0.25"] for row in ODD_ROWS + LONG_ROWS]
            for lines in files:
                path.write_bytes(b"\xef\xbb\xbf" + ending.join(lines).encode())
                assert read_outcome(cli._read_column, str(path), "loss", "loss") == (
                    read_outcome(row_scan, str(path), "loss", "loss")
                ), lines

    @pytest.mark.parametrize("batch", [1, cli._BULK_BATCH_BYTES])
    @pytest.mark.parametrize("head", [b"loss\n\n", b"\x1closs\n"])
    def test_decode_error_matches_the_row_scan(self, tmp_path, monkeypatch, batch, head):
        # the bulk pass reads the start of the file and declines it at its
        # head; the row scan must still meet the bad byte in the same chunk
        monkeypatch.setattr(cli, "_BULK_BATCH_BYTES", batch)
        data = head + b"0.5\n" * 2100 + b"\xff\n"
        path = tmp_path / "column.csv"
        path.write_bytes(data)
        outcome = read_outcome(cli._read_column, str(path), "loss", "loss")
        assert outcome[0] is UnicodeDecodeError
        assert outcome == read_outcome(row_scan, str(path), "loss", "loss")

    @pytest.mark.parametrize("batch", [1, cli._BULK_BATCH_BYTES])
    @pytest.mark.parametrize("data", [
        b"loss\n0\n0.25\n1\n",
        b"\xef\xbb\xbfloss\r\n0\r\n0.25\r\n1",
        b" loss \n 0 \n0.25\t\n1.0e0\n",
        b"loss\n0\n\n0.25\n \t\r\n1\n\n",
    ])
    def test_plain_file_takes_the_bulk_path(self, tmp_path, monkeypatch, data, batch):
        def no_scan(*args):
            raise AssertionError("the row scan ran")

        monkeypatch.setattr(cli, "_scan_rows", no_scan)
        monkeypatch.setattr(cli, "_BULK_BATCH_BYTES", batch)
        path = tmp_path / "plain.csv"
        path.write_bytes(data)
        assert read_loss_csv(str(path)) == (0.0, 0.25, 1.0)

    @pytest.mark.parametrize("batch", [1, 64, cli._BULK_BATCH_BYTES])
    @pytest.mark.parametrize("blanks", [
        {5000: "\n"},
        {5000: "\n\n \n"},
        {0: "\n", 1: " \t\n", 2500: "\r\n", 4999: "\n\n"},
        {i: "\n" for i in range(0, 5000, 2)},
    ])
    def test_blank_lines_stay_on_the_bulk_path(self, tmp_path, monkeypatch, blanks, batch):
        # each line is parsed once: a blank line resumes the batch after itself
        rows = [f"{(i * 0.6180339887) % 1.0!r}\n" for i in range(5000)]
        path = tmp_path / "plain.csv"
        path.write_text("loss\n" + "".join(rows))
        want = read_loss_csv(str(path))

        def no_scan(*args):
            raise AssertionError("the row scan ran")

        parsed = []

        def counting_float(line):
            parsed.append(line)
            return float(line)

        monkeypatch.setattr(cli, "_scan_rows", no_scan)
        monkeypatch.setattr(cli, "_BULK_BATCH_BYTES", batch)
        monkeypatch.setattr(cli, "float", counting_float, raising=False)
        for at, blank in sorted(blanks.items(), reverse=True):
            rows.insert(at, blank)
        path.write_text("loss\n" + "".join(rows))
        assert read_loss_csv(str(path)) == want
        assert len(parsed) == 5000 + sum(blank.count("\n") for blank in blanks.values())


class TestParsers:
    def test_grid_inclusive(self):
        assert parse_grid("0:0.001:0.002") == pytest.approx((0.0, 0.001, 0.002))

    def test_grid_rejects_bad_step(self):
        for text in ("0:-0.1:1", "0:inf:1", "0:1e-10:1", "0:1e-320:1e10"):
            with pytest.raises(DataError):
                parse_grid(text)

    def test_grid_rejects_outside_unit(self):
        for text in ("0.5:0.5:1.5", "0:0.1:inf", "-inf:0.1:1"):
            with pytest.raises(DataError):
                parse_grid(text)
        # a huge stop names the first value past 1, not the grid's size
        with pytest.raises(DataError, match=r"^grid value 1\.1 outside \[0, 1\]$"):
            parse_grid("0:0.1:1e300")

    def test_dist_specs(self):
        assert parse_dist("bernoulli:0.2").mean == 0.2
        assert parse_dist("beta:2:38").mean == pytest.approx(0.05)
        d = parse_dist("discrete:0,0.5,1:0.2,0.3,0.5")
        assert d.mean == pytest.approx(0.65)

    def test_dist_rejects_garbage(self):
        with pytest.raises(Exception):
            parse_dist("cauchy:0:1")


class TestCompare:
    def test_default_matches_golden_file(self, capsys):
        code, out, _ = run(capsys, "compare")
        assert code == 0
        assert out == GOLDEN.read_text(encoding="utf-8")

    def test_grid_flag(self, capsys):
        code, out, _ = run(capsys, "compare", "--grid", "0:0.001:0.002",
                           "--n", "10", "--alpha", "0.5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rhat,prw,hoeffding_tight,bentkus"
        # pinned from the exact oracle at (n=10, alpha=0.5)
        assert lines[1] == "0.0000,0.0010,0.0010,0.0027"
        assert lines[2] == "0.0010,0.0121,0.0011,0.0292"
        assert lines[3] == "0.0020,0.0121,0.0011,0.0292"

    def test_digits_zero(self, capsys):
        code, out, _ = run(capsys, "compare", "--digits", "0")
        assert code == 0
        cells = {
            cell
            for line in out.strip().splitlines()[1:]
            for cell in line.split(",")
        }
        assert cells <= {"0", "1"}

    def test_digits_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("PRWTEST_DIGITS", "2")
        code, out, _ = run(capsys, "compare", "--grid", "0:0.01:0.01")
        assert code == 0
        assert out.strip().splitlines()[1].startswith("0.00,")

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "compare", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "compare"
        assert (payload["n"], payload["alpha"]) == (100, 0.1)
        assert len(payload["rows"]) == 45
        golden_rows = GOLDEN.read_text(encoding="utf-8").strip().splitlines()[1:]
        for row, line in zip(payload["rows"], golden_rows):
            r, p, h, b = (float(x) for x in line.split(","))
            assert (row["rhat"], row["prw"], row["hoeffding_tight"], row["bentkus"]) == (r, p, h, b)

    def test_default_grid_shape(self):
        assert DEFAULT_COMPARE_GRID == tuple(i * 0.0015151516 for i in range(45))
        # the doubles the reference table was generated at; point 33 is 0.0500000028,
        # just above the 0.05 step breakpoint
        pinned = {1: "0x1.8d301a482c73ep-10", 3: "0x1.29e413b62156ep-8",
                  33: "0x1.99999b1a6dd78p-5", 44: "0x1.111112119e8fbp-4"}
        assert {i: DEFAULT_COMPARE_GRID[i].hex() for i in pinned} == pinned


class TestPvalue:
    def test_explicit_rhat_all_methods(self, capsys):
        code, out, _ = run(capsys, "pvalue", "--rhat", "0.05", "--n", "100", "--alpha", "0.1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rhat,prw,hoeffding_tight,bentkus"
        # 100 * 0.05 sits exactly on the k=5 grid point
        assert lines[1] == "0.0500,0.1094,0.1881,0.1565"

    def test_losses_file_all_zero(self, capsys, tmp_path):
        path = write_losses(tmp_path, ["0"] * 100)
        code, out, _ = run(capsys, "pvalue", "--losses", path, "--alpha", "0.1",
                           "--method", "prw")
        assert code == 0
        assert out.strip().splitlines()[1] == "0.0000,0.0000"

    def test_losses_file_matches_rhat_and_n(self, capsys, tmp_path):
        # n is the row count and rhat the exact mean of the rows
        path = write_losses(tmp_path, ["0", "0.5", "1"])
        flags = ("--alpha", "0.6", "--digits", "20")
        _, from_file, _ = run(capsys, "pvalue", "--losses", path, *flags)
        _, from_flags, _ = run(capsys, "pvalue", "--rhat", "0.5", "--n", "3", *flags)
        assert from_file == from_flags

    def test_single_method_column(self, capsys):
        code, out, _ = run(capsys, "pvalue", "--rhat", "0.0", "--n", "100",
                           "--alpha", "0.1", "--method", "bentkus")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rhat,bentkus"
        assert lines[1] == "0.0000,0.0001"

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "pvalue", "--rhat", "0.05", "--n", "100",
                           "--alpha", "0.1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "pvalue"
        assert payload["pvalues"] == {"prw": 0.1094, "hoeffding_tight": 0.1881,
                                      "bentkus": 0.1565}
        assert payload["unclamped"] is False

    def test_unclamped_reports_raw_bound(self, capsys):
        code, out, _ = run(capsys, "pvalue", "--rhat", "0.09", "--n", "100",
                           "--alpha", "0.1", "--method", "prw", "--unclamped",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["pvalues"]["prw"] == pytest.approx(4.1067, abs=1e-4)

    def test_loss_outside_unit_exits_2(self, capsys, tmp_path):
        path = write_losses(tmp_path, ["0.5", "1.5"])
        code, _, err = run(capsys, "pvalue", "--losses", path, "--alpha", "0.1")
        assert code == 2
        assert "row 2" in err

    def test_bad_alpha_exits_2(self, capsys):
        code, _, err = run(capsys, "pvalue", "--rhat", "0.1", "--n", "10", "--alpha", "1.5")
        assert code == 2
        assert "alpha" in err

    def test_missing_inputs_exits_2(self, capsys):
        code, _, err = run(capsys, "pvalue", "--alpha", "0.1")
        assert code == 2
        assert "rhat" in err

    def test_both_inputs_exits_2(self, capsys, tmp_path):
        path = write_losses(tmp_path, ["0.5"])
        code, _, err = run(capsys, "pvalue", "--losses", path, "--rhat", "0.2",
                           "--alpha", "0.1")
        assert code == 2

    def test_losses_with_n_exits_2(self, capsys, tmp_path):
        # n is the row count of the file; a second n is not silently dropped
        path = write_losses(tmp_path, ["0.5"])
        code, out, err = run(capsys, "pvalue", "--losses", path, "--n", "999", "--alpha", "0.3")
        assert (code, out, err) == (2, "", "error: pass either --losses or --n, not both\n")


class TestPlotdata:
    def test_curves_monotone_and_capped_flagged(self, capsys):
        code, out, _ = run(capsys, "plotdata", "--grid", "0:0.002:0.2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rhat,prw,hoeffding_tight,bentkus,capped"
        rows = [line.split(",") for line in lines[1:]]
        for col in (1, 2, 3):
            values = [float(r[col]) for r in rows]
            assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
        for r in rows:
            rhat, capped = float(r[0]), r[4]
            assert capped == ("1" if rhat > 0.09 else "0")

    def test_default_grid_size(self, capsys):
        code, out, _ = run(capsys, "plotdata")
        assert code == 0
        assert len(out.strip().splitlines()) == 1001

    def test_unrounded_output(self, capsys):
        code, out, _ = run(capsys, "plotdata", "--grid", "0:0.01:0.02")
        line = out.strip().splitlines()[1]
        assert "2.656139888758746e-05" in line

    def test_smallest_sample(self, capsys):
        code, out, _ = run(capsys, "plotdata", "--n", "1", "--alpha", "0.5",
                           "--grid", "0:0.25:1")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        prw = [float(r[1]) for r in rows]
        assert prw == [1.0] * 5  # n*alpha <= 1: the bound's domain is one point


class TestFwer:
    def test_fixed_sequence(self, capsys, tmp_path):
        path = write_pvalues(tmp_path, [0.01, 0.9, 0.01])
        code, out, _ = run(capsys, "fwer", path, "--procedure", "fixed-sequence",
                           "--delta", "0.05")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,pvalue,local_level,rejected"
        flags = [line.split(",")[3] for line in lines[1:]]
        assert flags == ["true", "false", "false"]

    def test_fallback(self, capsys, tmp_path):
        path = write_pvalues(tmp_path, [0.01, 0.04])
        code, out, _ = run(capsys, "fwer", path, "--procedure", "fallback",
                           "--delta", "0.05", "--weights", "0.5,0.5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rejected"] == [True, True]
        assert payload["local_levels"] == [0.025, 0.05]

    def test_bonferroni(self, capsys, tmp_path):
        path = write_pvalues(tmp_path, [0.004] * 10)
        code, out, _ = run(capsys, "fwer", path, "--procedure", "bonferroni",
                           "--delta", "0.05")
        assert code == 0
        flags = [line.split(",")[3] for line in out.strip().splitlines()[1:]]
        assert flags == ["true"] * 10

    def test_fallback_without_weights_exits_2(self, capsys, tmp_path):
        path = write_pvalues(tmp_path, [0.01])
        code, _, err = run(capsys, "fwer", path, "--procedure", "fallback",
                           "--delta", "0.05")
        assert code == 2
        assert "weights" in err

    def test_weights_summing_past_the_largest_double_exit_2(self, capsys, tmp_path):
        path = write_pvalues(tmp_path, [0.01, 0.2])
        code, out, err = run(capsys, "fwer", path, "--procedure", "fallback",
                             "--delta", "0.1", "--weights", "1e308,1e308")
        assert (code, out, err) == (2, "", "error: weights must sum to 1, got inf\n")

    def test_pvalue_file_errors(self, capsys, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("pvalue\n0.5\n1.5\n", encoding="utf-8")
        code, _, err = run(capsys, "fwer", str(path), "--procedure", "bonferroni",
                           "--delta", "0.05")
        assert code == 2
        assert "row 2" in err


@pytest.mark.parametrize("header,argv", [
    ("pvalue", ("fwer", "{path}", "--procedure", "bonferroni", "--delta", "0.05")),
    ("loss", ("pvalue", "--losses", "{path}", "--alpha", "0.1")),
])
def test_field_over_csv_limit_exits_2(capsys, tmp_path, header, argv):
    path = tmp_path / "long.csv"
    path.write_text(f"{header}\n0.1\n{'0' * 200_000}\n", encoding="utf-8")
    code, out, err = run(capsys, *(a.format(path=path) for a in argv))
    assert code == 2
    assert out == ""
    assert err == (
        f"error: {path}: row 2: field larger than field limit ({csv.field_size_limit()})\n"
    )


class TestValidate:
    def test_passes_under_true_null(self, capsys):
        code, out, _ = run(capsys, "validate", "--dist", "bernoulli:0.2", "--n", "20",
                           "--alpha", "0.1", "--reps", "2000", "--seed", "42")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "delta,exceedance,stderr,pass"
        assert all(line.endswith("true") for line in lines[1:])

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "validate", "--dist", "beta:4:16", "--n", "20",
                           "--alpha", "0.1", "--reps", "500", "--seed", "1",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "validate"
        assert payload["pass"] is True
        assert len(payload["results"]) == 4

    def test_fail_exits_1(self, capsys):
        # n=1, alpha=0.5, one rep drawing loss 0: the tight-Hoeffding p-value
        # is exactly 0.5 = delta, so the empirical exceedance is 1 > 0.5
        code, out, _ = run(capsys, "validate", "--dist", "bernoulli:0.51", "--n", "1",
                           "--alpha", "0.5", "--method", "hoeffding-tight",
                           "--reps", "1", "--seed", "0", "--delta", "0.5")
        assert code == 1
        assert out.strip().splitlines()[1].endswith("false")

    def test_power_configuration_exits_2(self, capsys):
        code, _, err = run(capsys, "validate", "--dist", "bernoulli:0.05", "--n", "50",
                           "--alpha", "0.1")
        assert code == 2
        assert "mean" in err

    def test_zero_reps_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--dist", "bernoulli:0.2", "--n", "10",
                  "--alpha", "0.1", "--reps", "0"])
        assert exc.value.code == 2

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run(capsys, "validate", "--dist", "bernoulli:0.2", "--n", "10",
                             "--alpha", "0.1", "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == "error: seed must be a non-negative integer, got -1\n"

    def test_bad_dist_exits_2(self, capsys):
        code, _, err = run(capsys, "validate", "--dist", "bernoulli:2", "--n", "10",
                           "--alpha", "0.1")
        assert code == 2

    @pytest.mark.parametrize("dist", ["beta:inf:1", "beta:1:inf", "beta:1e308:1e308"])
    def test_beta_shapes_that_break_the_mean_exit_2(self, capsys, dist):
        # inf gave mean nan, and 1e308 + 1e308 overflows to a mean of 0.0
        code, out, err = run(capsys, "validate", "--dist", dist, "--n", "10",
                             "--alpha", "0.1", "--reps", "1")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: invalid distribution spec {dist!r}: ")
        assert err.count("\n") == 1

    def test_probabilities_summing_past_the_largest_double_exit_2(self, capsys):
        dist = "discrete:0,1:1e308,1e308"
        code, out, err = run(capsys, "validate", "--dist", dist, "--n", "10",
                             "--alpha", "0.1", "--reps", "10")
        assert (code, out) == (2, "")
        assert err == (f"error: invalid distribution spec {dist!r}: "
                       "probabilities must sum to 1, got inf\n")

    def test_refused_allocation_exits_2(self, capsys):
        # 10**15 float64 losses (7.1 PiB) exceed any 48-bit address space, so
        # numpy refuses the request up front, before allocating anything
        code, out, err = run(capsys, "validate", "--dist", "bernoulli:0.5",
                             "--n", str(10**15), "--alpha", "0.1", "--reps", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: Unable to allocate ")
        assert err.count("\n") == 1


class TestOverflow:
    @pytest.mark.parametrize("command", [["pvalue", "--rhat", "0.1"], ["compare"], ["plotdata"],
                                         ["validate", "--dist", "bernoulli:0.2"]])
    def test_n_too_large_for_the_binomial_anchor_exits_2(self, capsys, command):
        # the binomial law refuses an n above sys.maxsize, which math.comb
        # cannot take, and so does the Monte Carlo sampler, which numpy cannot
        code, out, err = run(capsys, *command, "--n", str(10**20), "--alpha", "0.1")
        assert (code, out) == (2, "")
        assert err == f"error: n must be at most {sys.maxsize}, got {10**20}\n"

    def test_hoeffding_tight_needs_no_binomial_anchor(self, capsys):
        code, out, err = run(capsys, "pvalue", "--rhat", "0.1", "--n", str(10**20),
                             "--alpha", "0.1", "--method", "hoeffding-tight")
        assert (code, out, err) == (0, "rhat,hoeffding_tight\n0.1000,1.0000\n", "")


class TestUsage:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["pvalue"])  # --alpha is required
        assert exc.value.code == 2


def test_main_builds_the_parser_once(capsys, monkeypatch, tmp_path):
    losses = write_losses(tmp_path, ["0.01", "0.02", "0"])
    pvalues = write_pvalues(tmp_path, [0.01, 0.2])
    calls = (
        ["pvalue", "--losses", losses, "--alpha", "0.1"],
        ["fwer", pvalues, "--procedure", "bonferroni", "--delta", "0.05"],
        ["pvalue", "--alpha", "0.1", "--method", "nope"],
        ["--help"],
        ["pvalue", "--rhat", "0.03", "--n", "100", "--alpha", "0.1", "--format", "json"],
    )
    builds = []
    build_parser = cli.build_parser

    def counted_build():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted_build)

    def run_calls(fresh):
        monkeypatch.setattr(cli, "_parser", None)
        results = []
        for argv in calls:
            if fresh:
                monkeypatch.setattr(cli, "_parser", None)
            try:
                code = main(argv)
            except SystemExit as exc:  # usage errors and --help
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    fresh = run_calls(fresh=True)
    assert len(builds) == len(calls)
    builds.clear()
    assert run_calls(fresh=False) == fresh
    assert len(builds) == 1
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 0]


class TestDigits:
    @pytest.mark.parametrize("digits", ["28", "29", "40", "-1"])
    @pytest.mark.parametrize("command", ["pvalue", "compare"])
    def test_out_of_range_flag_exits_2_without_output(self, capsys, command, digits):
        argv = [command, "--digits", digits]
        if command == "pvalue":
            argv += ["--rhat", "0.05", "--n", "100", "--alpha", "0.1"]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --digits must lie in [0, 27]")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("digits", ["28", "29"])
    def test_out_of_range_env_exits_2_without_output(self, capsys, monkeypatch, digits):
        monkeypatch.setenv("PRWTEST_DIGITS", digits)
        code, out, err = run(capsys, "pvalue", "--rhat", "0.05", "--n", "100", "--alpha", "0.1")
        assert code == 2
        assert out == ""
        assert err == f"error: PRWTEST_DIGITS must lie in [0, 27], got '{digits}'\n"

    def test_largest_count_prints_one(self, capsys):
        code, out, _ = run(capsys, "pvalue", "--rhat", "0.5", "--n", "100", "--alpha", "0.1",
                           "--digits", "27")
        assert code == 0
        one = "1." + "0" * 27
        assert out.splitlines()[1] == ",".join(["0.5" + "0" * 26, one, one, one])

    def test_unclamped_value_above_ten_rounds(self, capsys):
        # n*alpha sits just past the snap tolerance above 5, so the leading
        # factor of the raw bound at k = 5 is of order 1e9
        code, out, _ = run(capsys, "pvalue", "--rhat", "0.05", "--n", "100",
                           "--alpha", "0.05000000006", "--method", "prw", "--unclamped",
                           "--digits", "27", "--format", "json")
        assert code == 0
        raw = prw_pvalue(0.05, TestSpec(100, 0.05000000006), clamp=False)
        assert raw > 1e8
        assert json.loads(out)["pvalues"]["prw"] == raw

    @pytest.mark.parametrize("digits", range(7, 28))
    def test_cells_are_fixed_point_with_every_decimal(self, capsys, digits):
        def rows(grid, spec):
            return [[r, *(f(r, spec) for f in PVALUE_METHODS.values())] for r in grid]

        far = TestSpec(100, 0.05000000006)  # the unclamped PRW value at 0.05 is of order 1e9
        cases = {  # 0 and 1e-320, p-values down to 1e-46 and 1e-8, and one far above 1
            ("pvalue", "--rhat", "1e-320", "--n", "1000", "--alpha", "0.1"):
                rows([1e-320], TestSpec(1000, 0.1)),
            ("compare", "--grid", "0:0.01:0.02"):
                rows(parse_grid("0:0.01:0.02"), TestSpec(100, 0.1)),
            ("compare", "--n", "1000", "--grid", "0.05:0.01:0.07"):
                rows(parse_grid("0.05:0.01:0.07"), TestSpec(1000, 0.1)),
            ("pvalue", "--rhat", "0.05", "--n", "100", "--alpha", "0.05000000006",
             "--method", "prw", "--unclamped"): [[0.05, prw_pvalue(0.05, far, clamp=False)]],
        }
        for argv, expected in cases.items():
            code, out, _ = run(capsys, *argv, "--digits", str(digits))
            assert code == 0
            cells = [line.split(",") for line in out.splitlines()[1:]]
            assert len(cells) == len(expected)
            for row, values in zip(cells, expected):
                assert row == [format(decimal_half_up(v, digits), "f") for v in values]
                assert all("e" not in c.lower() for c in row)
                assert all(len(c.partition(".")[2]) == digits for c in row)

    @pytest.mark.parametrize("value, digits, text", [
        (0.125, 2, "0.13"), (2.5, 0, "3"), (-0.0, 4, "-0.0000"), (-2.5, 0, "-3"),
        (-1e-9, 4, "-0.0000"), (0.0, 0, "0"), (5e-324, 27, "0." + "0" * 27),
    ])
    def test_round_half_away_ties_and_signs(self, value, digits, text):
        assert round_half_away(value, digits) == text

    @given(value=st.floats(allow_nan=False, allow_infinity=False),
           digits=st.integers(0, MAX_DIGITS))
    @example(value=0.125, digits=2)
    @example(value=-0.0, digits=4)
    @example(value=5e-324, digits=27)
    @example(value=1.7976931348623157e308, digits=27)
    @example(value=999999999.9999999, digits=7)
    def test_round_half_away_matches_decimal(self, value, digits):
        # the string is Decimal's fixed-point form, and float() of it is the
        # float of the quantized Decimal, sign included
        text = round_half_away(value, digits)
        want = decimal_half_up(value, digits)
        assert text == format(want, "f")
        assert math.copysign(1.0, float(text)) == math.copysign(1.0, float(want))
        assert float(text) == float(want)


def checkout_env():
    """The environment of a fresh interpreter that imports prwtest from this checkout."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_python(*args):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=checkout_env(), check=False
    )


def test_python_dash_m_runs_the_cli():
    result = run_python("-W", "error::RuntimeWarning", "-m", "prwtest", "compare")
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout == GOLDEN.read_text(encoding="utf-8")


@pytest.mark.parametrize("command", [["plotdata", "--grid", "0:0.0001:1"],
                                     ["fwer", "{pvalues}", "--procedure", "bonferroni",
                                      "--delta", "0.05"]])
def test_closed_stdout_exits_141_without_a_traceback(tmp_path, command):
    # Either output is hundreds of kB, more than the pipe holds, so the
    # command is still writing when the reader goes away, as under `| head -1`
    pvalues = write_pvalues(tmp_path, [0.001] * 20000)
    argv = [a.replace("{pvalues}", pvalues) for a in command]
    with subprocess.Popen([sys.executable, "-m", "prwtest", *argv], env=checkout_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline()  # the header
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert (code, err) == (141, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_failed_write_to_stdout_exits_2_with_one_error_line():
    with open("/dev/full", "wb") as full:
        result = subprocess.run([sys.executable, "-m", "prwtest", "compare"], stdout=full,
                                stderr=subprocess.PIPE, text=True, env=checkout_env(),
                                timeout=120, check=False)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr


def test_importing_the_library_leaves_the_cli_unloaded():
    result = run_python("-c", "import sys, prwtest; print('prwtest.cli' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_cold_start_loads_no_dataclasses_or_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize: 8-15 ms of every
    # process's import, against a p-value that takes about a millisecond
    result = run_python("-c", """
import contextlib, io, sys
import prwtest
import prwtest.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = prwtest.cli.main(["pvalue", "--rhat", "0.05", "--n", "100", "--alpha", "0.1"])
print(code, sorted({"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(sys.modules)))
""")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0 []\n"


COLD_START_SCRIPT = """
import contextlib, io, sys
import prwtest.cli
WATCHED = ("decimal", "numbers", "json", "csv")
def loaded():
    return [m for m in WATCHED if m in sys.modules]
seen = [loaded()]
for argv in (["compare"], ["plotdata", "--n", "50"], ["compare", "--format", "json"],
             ["pvalue", "--rhat", "0.0999", "--n", "100000", "--alpha", "0.1",
              "--digits", "27", "--unclamped"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert prwtest.cli.main(argv) == 0, argv
    seen.append(loaded())
print(seen)
print(out.getvalue(), end="")
"""


def test_cold_start_loads_decimal_json_and_csv_only_where_used():
    # each is a millisecond or so of an import that is most of a pvalue process:
    # json serves --format json, decimal the Stirling anchor (min(m, n - m) > 600)
    result = run_python("-c", COLD_START_SCRIPT)
    assert result.returncode == 0, result.stderr
    seen, header, row = result.stdout.splitlines()
    assert seen == str([[], [], [], ["json"], ["decimal", "numbers", "json"]])
    assert header == "rhat,prw,hoeffding_tight,bentkus"
    assert row == ",".join([  # the same cells as before decimal was deferred
        "0.099900000000000002686739720", "414.648636239574329920287709683",
        "0.994458210204651193997449354", "1.252229589029465683935882225",
    ])


def test_package_exports_keep_their_names_and_order():
    import prwtest

    assert prwtest.__all__ == [
        "BinomialParams", "cdf", "sf",
        "TestSpec", "GBoundContext", "gamma_r", "ceil_scaled", "upper_tail_bound",
        "lower_tail_bound", "g", "g_inverse", "prw_pvalue",
        "PValueReport", "bentkus_pvalue", "kl_bernoulli", "hoeffding_tight_pvalue", "compare",
        "FwerPlan", "FwerOutcome", "fixed_sequence", "fallback", "bonferroni",
        "LossDistribution", "McReport", "PVALUE_METHODS", "simulate_superuniformity",
        "simulate_power",
        "__version__",
    ]
    assert all(hasattr(prwtest, name) for name in prwtest.__all__)


# Runs every command that draws no random number, recording after each
# whether numpy is loaded, then one validate run, which must load it.
NUMPY_ON_DEMAND_SCRIPT = """
import contextlib, io, sys
import prwtest
loaded = ["numpy" in sys.modules]
import prwtest.cli
loaded.append("numpy" in sys.modules)
losses, pvalues = sys.argv[1:]
for argv in (
    ["pvalue", "--rhat", "0.05", "--n", "100", "--alpha", "0.1"],
    ["pvalue", "--losses", losses, "--alpha", "0.1"],
    ["compare"],
    ["plotdata", "--n", "50"],
    ["fwer", pvalues, "--procedure", "bonferroni", "--delta", "0.1"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert prwtest.cli.main(argv) == 0, argv
    loaded.append("numpy" in sys.modules)
print(loaded)
code = prwtest.cli.main(["validate", "--dist", "bernoulli:0.11", "--n", "100",
                         "--alpha", "0.1", "--reps", "3000", "--seed", "7"])
print(code, "numpy" in sys.modules)
"""


def test_only_monte_carlo_loads_numpy(tmp_path):
    losses = write_losses(tmp_path, ["0", "1", "0", "0.25"])
    pvalues = write_pvalues(tmp_path, [0.01, 0.5])
    result = run_python("-c", NUMPY_ON_DEMAND_SCRIPT, losses, pvalues)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        str([False] * 7),
        # the pinned exceedances of this seeded run
        "delta,exceedance,stderr,pass",
        "0.01,0.0013333333333333333,0.0006662220739752263,true",
        "0.05,0.011666666666666667,0.0019604893569000878,true",
        "0.1,0.011666666666666667,0.0019604893569000878,true",
        "0.2,0.033,0.0032614413991362778,true",
        "0 True",
    ]


# Runs the CLI, then prints its exit code and the process's own peak RSS
# (VmHWM, kB) to stderr.  getrusage's ru_maxrss is no use here: a child
# keeps its parent's peak across exec.
PEAK_RSS_SCRIPT = """
import re, sys
from prwtest.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    peak_kb = int(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1))
print(code, peak_kb, file=sys.stderr)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_validate_peak_memory_does_not_grow_with_reps():
    # One (reps, n) float64 block would be 160 MB here; row chunks hold
    # 2 MiB of losses at a time, whatever reps is.
    result = run_python("-c", PEAK_RSS_SCRIPT, "validate", "--dist", "bernoulli:0.11",
                        "--n", "1000", "--alpha", "0.1", "--reps", "20000", "--seed", "1")
    code, peak_kb = map(int, result.stderr.split()[-2:])
    assert code == 0, result.stderr
    assert peak_kb < 100 * 1024
