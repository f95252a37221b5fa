"""CLI contract tests: golden table, flag handling, exit codes, JSON schema."""

import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import unittest.mock
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
from prwtest.baselines import _bentkus_cap, bentkus_pvalue, hoeffding_tight_pvalue
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


@st.composite
def exact_ties(draw):
    """(value, digits) with value = ±N / 2**(digits + 1), N odd and below 2**52: an exact
    tie at ``digits`` decimals, since value * 10**digits is then N * 5**digits / 2."""
    digits = draw(st.integers(0, MAX_DIGITS))
    odd = 2 * draw(st.integers(0, 2**51 - 1)) + 1
    return draw(st.sampled_from((1, -1))) * odd / 2 ** (digits + 1), digits


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
            for bad in ("1.5", "nan"):
                path = write_losses(tmp_path, ["0.5", bad, "0.25"], header=header)
                assert read_error(read, path) == f"{path}: row 2: {label} {bad} outside [0, 1]"

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
    "1e308", "NaN", "INF",
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
    """The values of the csv row scan alone, over the file opened in text mode."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        return tuple(itertools.chain.from_iterable(cli._scan_rows(fh, path, header, label)))


@contextlib.contextmanager
def pipe_path(data):
    """A `/dev/fd/N` path to a pipe that a thread fills with `data`, as `<(...)` passes it."""
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
        yield f"/dev/fd/{rfd}"
    finally:
        os.close(rfd)
        feeder.join(timeout=10)
    assert not feeder.is_alive()


def through_pipe(data, *args):
    """Outcome of ``_read_column`` on `data` written to a pipe."""
    with pipe_path(data) as path:
        return read_outcome(cli._read_column, path, *args)


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
        # a pipe is read whole first, so the row scan rereads it as it would a file
        monkeypatch.setattr(cli, "_BULK_BATCH_BYTES", batch)
        path = tmp_path / "column.csv"
        path.write_bytes(data)
        assert through_pipe(data, "loss", "loss") == (
            read_outcome(row_scan, str(path), "loss", "loss")
        )

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=column_files(), batch=BATCH_BYTES)
    @pytest.mark.parametrize("pipe", [False, True], ids=["file", "pipe"])
    def test_count_and_sum_match_the_tuple(self, tmp_path, monkeypatch, pipe, data, batch):
        # pvalue --losses reduces the column as it reads it, one batch at a
        # time: the count and the exact sum of the tuple, or the same error
        monkeypatch.setattr(cli, "_BULK_BATCH_BYTES", batch)
        file = tmp_path / "column.csv"
        file.write_bytes(data)

        def outcome(reduce):
            with pipe_path(data) if pipe else contextlib.nullcontext(str(file)) as path:
                try:
                    n, total = reduce(path)
                except DataError as exc:
                    return str(exc).replace(path, "<path>")
                return n, total.hex()

        def from_tuple(path):
            losses = read_loss_csv(path)
            return len(losses), math.fsum(losses)

        streamed = outcome(lambda path: read_loss_csv(path, reduce=cli._count_and_sum))
        assert streamed == outcome(from_tuple)

    def test_a_pipe_is_held_once_and_a_file_never_whole(self, tmp_path):
        # about 4 MB of padded rows whose last row is quoted, so the bulk pass
        # reads them all before it declines and the row scan reads them again
        rows = "".join(f"{i / 20_000!r}{' ' * 200}\n" for i in range(20_000))
        data = f'loss\n{rows}"0.5"\n'.encode()
        path = tmp_path / "padded.csv"
        path.write_bytes(data)

        def peak(source):
            tracemalloc.start()
            try:
                values = cli._read_column(source, "loss", "loss")
                return values, tracemalloc.get_traced_memory()[1] / len(data)
            finally:
                tracemalloc.stop()

        values, file_peak = peak(str(path))
        assert len(values) == 20_001 and file_peak <= 0.6
        with pipe_path(data) as source:
            pipe_values, pipe_peak = peak(source)
        assert pipe_values == values and pipe_peak <= 1.75

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
        assert outcome[0] is DataError
        assert outcome[1].startswith("<path>: 'utf-8' codec can't decode byte 0xff")
        assert outcome == read_outcome(row_scan, str(path), "loss", "loss")

    @pytest.mark.parametrize("pipe", [False, True], ids=["file", "pipe"])
    @pytest.mark.parametrize("argv, header", [
        (("pvalue", "--alpha", "0.1", "--losses", "{}"), b"loss"),
        (("fwer", "{}", "--procedure", "bonferroni", "--delta", "0.05"), b"pvalue"),
    ], ids=["pvalue", "fwer"])
    def test_a_file_not_in_utf8_is_named_on_one_line(self, capsys, tmp_path, pipe, argv, header):
        data = header + b"\n0.5\n\xff\n"
        file = tmp_path / "column.csv"
        file.write_bytes(data)
        with pipe_path(data) if pipe else contextlib.nullcontext(str(file)) as path:
            code, out, err = run(capsys, *(arg.format(path) for arg in argv))
        assert (code, out) == (2, "")
        assert err == (
            f"error: {path}: 'utf-8' codec can't decode byte 0xff in position "
            f"{len(data) - 2}: invalid start byte\n"
        )

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

    def test_a_file_of_many_real_batches_takes_the_bulk_path(self, tmp_path, monkeypatch):
        # Five batches of CRLF lines at the real batch size, none of whose reads
        # ends at a line's end: the first ends inside a value, each later one
        # between a CR and its LF, and the rest of that line finishes the batch.
        batch = cli._BULK_BATCH_BYTES

        def rows(size, tenths):
            """CRLF rows of 5 and 6 bytes, `size` bytes in all, ending in a 5-byte row."""
            six = size % 5  # 5 * five + 6 * six == size
            return [f"0.{tenths}5\r\n"] * six + [f"0.{tenths}\r\n"] * ((size - 6 * six) // 5)

        # the first read stops after the "0." of a 5-byte row; each later segment
        # holds its read and the LF after it
        segments = [rows(batch - len(b"loss\r\n") + 3, 0)]
        segments += [rows(batch + 1, tenths) for tenths in range(1, 5)]
        path = tmp_path / "crlf.csv"
        path.write_bytes(("loss\r\n" + "".join(itertools.chain(*segments))).encode())
        with open(path, "rb") as fh:
            ends = []
            while chunk := fh.read(batch):
                ends.append(chunk[-1:])
                fh.readline()
        assert ends == [b"."] + [b"\r"] * 4
        want = read_outcome(row_scan, str(path), "loss", "loss")

        def no_scan(*args):
            raise AssertionError("the row scan ran")

        monkeypatch.setattr(cli, "_scan_rows", no_scan)
        assert len(want) == sum(map(len, segments))
        assert read_outcome(cli._read_column, str(path), "loss", "loss") == want

    def test_a_lone_cr_in_a_later_batch_goes_to_the_row_scan(self, tmp_path, monkeypatch):
        # The first batch, 16 bytes and the rest of their last line, holds no CR,
        # so only the later batch's CR check can decline the file: float()
        # takes b" \r0.75\n" as 0.75.  The bulk pass returns how many values it
        # gave, for the row scan to go on from.
        monkeypatch.setattr(cli, "_BULK_BATCH_BYTES", 16)
        path = tmp_path / "late_cr.csv"
        path.write_bytes(b"loss\n0.5\n0.25\n0.125\n \r0.75\n")
        with open(path, "rb") as fh:
            first = fh.read(16) + fh.readline()
            assert b"\r" not in first and fh.read() == b" \r0.75\n"
            fh.seek(0)
            batches = cli._read_plain_column(fh, "loss")
            assert next(batches) == [0.5, 0.25, 0.125]
            with pytest.raises(StopIteration) as declined:
                next(batches)
            assert declined.value.value == 3
        assert read_outcome(cli._read_column, str(path), "loss", "loss") == (
            read_outcome(row_scan, str(path), "loss", "loss")
        )

    @pytest.mark.parametrize("pipe", [False, True], ids=["file", "pipe"])
    def test_the_reduction_runs_once_over_each_value(self, tmp_path, pipe):
        # Two real-size batches of plain rows, then a third that a quoted value
        # declines: the bulk pass gives the first two, the row scan the rest.
        rows = [f"{i / 25_000!r}\n" for i in range(22_000)]
        data = ("loss\n" + "".join(rows) + '"0.5"\n0.25\n').encode()
        assert 2 * cli._BULK_BATCH_BYTES < data.index(b'"') < 3 * cli._BULK_BATCH_BYTES
        file = tmp_path / "late_quote.csv"
        file.write_bytes(data)
        calls = []

        def record(batches):
            calls.append([])
            for batch in batches:
                calls[-1].append(list(batch))
            return len(calls)

        with pipe_path(data) if pipe else contextlib.nullcontext(str(file)) as path:
            assert read_loss_csv(path, reduce=record) == 1
        (seen,) = calls
        assert list(itertools.chain(*seen)) == [i / 25_000 for i in range(22_000)] + [0.5, 0.25]
        assert [len(batch) > 1 for batch in seen] == [True, True] + [False] * (len(seen) - 2)


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
        message = ("invalid distribution spec 'cauchy:0:1'; expected bernoulli:P, beta:A:B, "
                   "or discrete:X1,..,Xk:Q1,..,Qk")
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
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

    @pytest.mark.parametrize("rows", [
        ["nan", "2"], ["nan", "inf", "-inf"], ["nan", "1e308", "1e308"],
    ], ids=["nan-2", "nan-inf", "nan-overflow"])
    def test_a_nan_ahead_of_other_bad_losses_is_the_one_error(self, capsys, tmp_path, rows):
        # a NaN hides later values from min and max, and in a sum the later
        # ones can give inf - inf or an overflow; the first bad row is reported
        path = write_losses(tmp_path, rows)
        code, out, err = run(capsys, "pvalue", "--losses", path, "--alpha", "0.1")
        assert (code, out, err) == (2, "", f"error: {path}: row 1: loss nan outside [0, 1]\n")

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


def first_test_holds(name: str, rhat: float, spec: TestSpec) -> bool:
    """The scalar's first test: its clamped p-value at rhat is 1 by construction."""
    if name == "prw":
        return rhat >= spec.t_max
    if name == "hoeffding-tight":
        return rhat >= spec.alpha
    return spec.n * rhat >= _bentkus_cap(spec)


@pytest.mark.parametrize("argv, grid, counts", [
    (("plotdata", "--n", "1000", "--alpha", "0.1"),
     [i / (cli.DEFAULT_PLOT_POINTS - 1) for i in range(cli.DEFAULT_PLOT_POINTS)],
     {"prw": 99, "hoeffding-tight": 100, "bentkus": 97}),
    (("compare",), list(DEFAULT_COMPARE_GRID), dict.fromkeys(PVALUE_METHODS, 45)),
], ids=["plotdata", "compare"])
def test_curves_call_each_method_once_per_grid_point_below_its_flat_point(
    capsys, monkeypatch, argv, grid, counts
):
    # perfbench's tracer counts these calls per layer, so each one must be a real one; from a
    # method's flat point on, its cells are 1.0 by the scalar's first test, and no call is made
    calls = {name: [] for name in PVALUE_METHODS}
    for name, pvalue in list(PVALUE_METHODS.items()):
        def counting(rhat, spec, *, _name=name, _pvalue=pvalue, **kwargs):
            calls[_name].append(rhat)
            return _pvalue(rhat, spec, **kwargs)

        monkeypatch.setitem(PVALUE_METHODS, name, counting)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and len(out.splitlines()) == len(grid) + 1
    assert calls == {name: grid[:count] for name, count in counts.items()}
    spec = TestSpec(*(100, 0.1) if len(argv) == 1 else (int(argv[2]), float(argv[4])))
    for name, count in counts.items():
        assert not any(first_test_holds(name, r, spec) for r in grid[:count])
        assert all(first_test_holds(name, r, spec) for r in grid[count:])


# Where a method's clamped p-value turns 1 by construction: t_max, alpha and the
# Bentkus cap over n; a grid recipe picks a point as (which, ulps off it)
FLAT_POINTS = ("t_max", "alpha", "cap")
near_flat_point = st.tuples(st.sampled_from(FLAT_POINTS), st.integers(-1, 1))
unit_floats = st.floats(0.0, 1.0)
grid_recipes = st.one_of(
    st.just(("default",)),
    # any points, sorted, fed to the command in place of a parsed --grid (which turns a
    # -0 start into 0.0)
    st.tuples(st.just("points"), st.lists(
        st.one_of(near_flat_point, unit_floats, st.just(-0.0)), max_size=40)),
    # a start:step:stop --grid; no steps gives the one-point grid x:1:x
    st.tuples(st.just("text"), st.one_of(near_flat_point, unit_floats, st.just("-0")),
              st.floats(1e-9, 1.0), st.integers(0, 60)),
    # a --grid wholly below, or wholly above, every flat point
    st.tuples(st.sampled_from(["below", "above"]), st.integers(0, 60)),
)


def flat_point(spec: TestSpec, which: str, ulps: int) -> float:
    x = {"t_max": spec.t_max, "alpha": spec.alpha, "cap": _bentkus_cap(spec) / spec.n}[which]
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return min(max(x, 0.0), 1.0)


def grid_argv(recipe: tuple, spec: TestSpec) -> tuple[list[str], object]:
    """The --grid=... argv of a recipe, and None, or the sorted points that stand in for what
    parse_grid returns; a point or a start is a float or (which flat point, ulps off it)."""
    def point(x):
        return x if isinstance(x, float) else flat_point(spec, *x)

    kind, *rest = recipe
    if kind == "default":
        return [], None
    if kind == "points":
        return ["--grid=points"], sorted(map(point, rest[0]))
    if kind == "text":
        start, step, count = rest
        low = 0.0 if start == "-0" else point(start)
        text = "-0" if start == "-0" else repr(low)
        stop = min(low + count * step, 1.0) if count else low
        return [f"--grid={text}:{step!r}:{stop!r}"], None
    count = rest[0]
    points = sorted(flat_point(spec, which, 0) for which in FLAT_POINTS)
    if kind == "below":
        low, high = 0.0, math.nextafter(points[0], 0.0)
    else:
        low, high = min(math.nextafter(points[-1], 1.0), 1.0), 1.0
    step = (high - low) / count if count and high > low else 1.0
    return [f"--grid={low!r}:{step!r}:{high!r}"], None


def reference_output(command: str, spec: TestSpec, grid, fmt: str, digits: int) -> str:
    """The command's stdout built the plain way: one scalar call per method per grid point,
    each unrounded cell through %r and each rounded cell through round_half_away."""
    pvalues = [[pvalue(r, spec) for r in grid]
               for pvalue in (prw_pvalue, hoeffding_tight_pvalue, bentkus_pvalue)]
    columns = ["rhat", "prw", "hoeffding_tight", "bentkus"]
    if command == "plotdata":
        rows = list(zip(grid, *pvalues, [int(r > spec.t_max) for r in grid]))
        if fmt == "json":
            return json.dumps({
                "command": "plotdata", "n": spec.n, "alpha": spec.alpha, "cap": spec.t_max,
                "rows": [{**dict(zip(columns, row)), "capped": row[-1] == 1} for row in rows],
            }) + "\n"
        return "rhat,prw,hoeffding_tight,bentkus,capped\n" + "".join(
            "%r,%r,%r,%r,%d\n" % row for row in rows)
    rows = list(zip(*([round_half_away(v, digits) for v in c] for c in (grid, *pvalues))))
    if fmt == "json":
        return json.dumps({
            "command": "compare", "n": spec.n, "alpha": spec.alpha, "digits": digits,
            "rows": [dict(zip(columns, map(float, row))) for row in rows],
        }) + "\n"
    return "rhat,prw,hoeffding_tight,bentkus\n" + "".join("%s,%s,%s,%s\n" % row for row in rows)


class TestCurveParity:
    @given(n=st.integers(1, 3000),
           alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           recipe=grid_recipes, digits=st.integers(0, MAX_DIGITS))
    @example(n=2, alpha=0.7, recipe=("points", [("t_max", -1), ("t_max", 0), ("t_max", 1)]),
             digits=4)
    @example(n=1, alpha=0.5, recipe=("text", ("cap", 0), 0.25, 4), digits=4)
    @example(n=10, alpha=5e-324, recipe=("text", "-0", 0.1, 10), digits=27)
    @example(n=1000, alpha=0.1, recipe=("default",), digits=4)
    @example(n=400, alpha=0.3, recipe=("default",), digits=4)
    def test_stdout_matches_one_scalar_call_per_point(self, n, alpha, recipe, digits):
        spec = TestSpec(n, alpha)
        grid_flags, points = grid_argv(recipe, spec)
        for command, fmt in itertools.product(("plotdata", "compare"), ("csv", "json")):
            argv = [command, "--n", str(n), "--alpha", repr(alpha), *grid_flags, "--format", fmt]
            argv += ["--digits", str(digits)] if command == "compare" else []
            if points is not None:
                grid = tuple(points)
            elif grid_flags:
                try:
                    grid = parse_grid(grid_flags[0].partition("=")[2])
                except DataError as exc:  # a stop rounded past 1: the same one error line
                    expected = "", f"error: {exc}\n"
                    grid = None
            else:
                grid = DEFAULT_COMPARE_GRID if command == "compare" else tuple(
                    i / (cli.DEFAULT_PLOT_POINTS - 1) for i in range(cli.DEFAULT_PLOT_POINTS))
            if grid is not None:
                expected = reference_output(command, spec, grid, fmt, digits), ""
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    contextlib.nullcontext() if points is None else \
                    unittest.mock.patch.object(cli, "parse_grid", lambda text: grid):
                code = main(argv)
            assert (out.getvalue(), err.getvalue()) == expected, argv
            assert code == (2 if err.getvalue() else 0)


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


_VALIDATE = ["validate", "--n", "10", "--alpha", "0.1"]
_FALLBACK = ["fwer", "{pvalues}", "--procedure", "fallback", "--delta", "0.05"]


@pytest.mark.parametrize("argv, message", [
    (["compare", "--grid", "0:1"], "grid must look like start:step:stop, got '0:1'"),
    (["compare", "--grid", "a:0.1:1"], "grid must contain numbers, got 'a:0.1:1'"),
    (["plotdata", "--grid", "nan:0.1:1"], "grid values must be numbers, got 'nan:0.1:1'"),
    (["compare", "--grid", "0.5:0.1:0.2"], "grid stop must be >= start, got '0.5:0.1:0.2'"),
    ([*_VALIDATE, "--dist", "bernoulli:0.2", "--delta", "0.1,x"],
     "--delta must be a comma-separated list of numbers, got '0.1,x'"),
    ([*_VALIDATE, "--dist", "bernoulli:0.2", "--delta", ","],
     "--delta must contain at least one number, got ','"),
    ([*_FALLBACK, "--weights", "0.5,y"],
     "--weights must be a comma-separated list of numbers, got '0.5,y'"),
    ([*_FALLBACK, "--weights", ",,"], "--weights must contain at least one number, got ',,'"),
    ([*_VALIDATE, "--dist", "discrete:0,1:1"], "invalid distribution spec 'discrete:0,1:1': "
     "support and probs must be non-empty and equal length"),
])
def test_a_rejected_input_exits_2_with_its_one_error_line(capsys, tmp_path, argv, message):
    pvalues = write_pvalues(tmp_path, [0.01, 0.2])
    code, out, err = run(capsys, *(arg.format(pvalues=pvalues) for arg in argv))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_main_builds_a_parser_only_beyond_plain_argv_and_keeps_no_state(
        capsys, monkeypatch, tmp_path):
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

    def outcome(argv):
        """(code, stdout, stderr) of main(argv), and how many parsers it built."""
        builds.clear()
        try:
            code = main(argv)
        except SystemExit as exc:  # usage errors and --help
            code = exc.code
        captured = capsys.readouterr()
        return (code, captured.out, captured.err), len(builds)

    forward = [outcome(argv) for argv in calls]
    # the three plain argv build no parser; the usage error and --help build one each
    assert [built for _, built in forward] == [0, 0, 1, 1, 0]
    assert [code for (code, _, _), _ in forward] == [0, 0, 2, 0, 0]
    # each call's outcome is the same whatever ran before it
    assert [outcome(argv) for argv in reversed(calls)][::-1] == forward


# Values drawn for an option, by its type: (valid, invalid or negative-number forms).
_VALUES_BY_TYPE = {
    float: (["0.05", "0.1", "1", "1e-3", "nan", "inf"], ["abc", "", "-1", "-0", "-1e3", "-inf"]),
    int: (["4", "27", "0"], ["x", "1.5", "-1", "-0"]),
    cli._positive_int: (["100", "1", "007"], ["0", "1e3", "x", "-1", "-0"]),
    None: (["f.csv", "0:0.1:1", "bernoulli:0.1", ""], ["-1", "-x", "-"]),
}
_STRAY_TOKENS = ["--", "-h", "--help", "-", "", "stray", "-1", "--bogus"]


@st.composite
def _argvs(draw):
    """An argv drawn from the command table, each option given 0, 1 or 2 times, in any order.

    A third of them hold only exact flags, valid values and no stray token,
    so that a good share is accepted; a third take one odd form at one
    pick, so that each odd form is met alone; in the rest any pick may be odd.
    """
    mode = draw(st.sampled_from(["plain", "one odd", "many odd"]))
    odd_at = draw(st.integers(0, 24)) if mode == "one odd" else None
    picks = itertools.count()

    def pick(plain, other):
        odd = next(picks) == odd_at or mode == "many odd" and draw(st.integers(0, 3)) == 0
        return draw(st.sampled_from(other if odd else plain))

    command = pick([*cli._COMMANDS], ["frobnicate", "--help", ""])
    _, _, options = cli._COMMANDS.get(command, (None, None, {}))
    chunks = []
    for option, kwargs in options.items():
        if "choices" in kwargs:
            values = (kwargs["choices"], ["nope", kwargs["choices"][0].upper()])
        else:
            values = _VALUES_BY_TYPE[kwargs.get("type")]
        for _ in range(draw(st.sampled_from([1, 1, 1, 1, 0, 2]))):
            flag = pick([option], [option[:3], option[:-1]])  # an abbreviation, or "--" for --n
            if not option.startswith("-"):
                chunks.append([pick(*values)])
            elif kwargs.get("action") == "store_true":
                chunks.append([flag])
            elif pick([True], [False]):  # else the --flag=value form
                chunks.append([flag, pick(*values)])
            else:
                chunks.append([f"{flag}={pick(*values)}"])
    chunks += [[pick(_STRAY_TOKENS, _STRAY_TOKENS)] for _ in range(pick([0], [1, 2]))]
    return [command, *(token for chunk in draw(st.permutations(chunks)) for token in chunk)]


def _fields(namespace):
    """vars(namespace), with each float as its repr: a NaN is not equal to itself."""
    return {k: repr(v) if isinstance(v, float) else v for k, v in vars(namespace).items()}


def _parsed(argv):
    """_fields of what argparse gives for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return _fields(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


class TestPlainArgs:
    @given(argv=_argvs())
    @example(argv=["fwer", "a.csv", "b.csv", "--procedure", "bonferroni", "--delta", "0.05"])
    @example(argv=["pvalue", "--alpha", "0.1", "--method", "nope"])
    @example(argv=["compare", "--n", "0"])
    @example(argv=["pvalue", "--alpha", "0.1", "--losses", "-x"])
    # 300 examples, or the loaded profile's count where it is larger (1000 under ci)
    @settings(max_examples=max(300, settings.default.max_examples))
    def test_an_accepted_argv_parses_as_argparse_parses_it(self, argv):
        plain = cli._plain_args(argv)
        if plain is not None:
            assert _fields(plain) == _parsed(argv)

    def test_accepts_every_golden_argv_argparse_accepts_but_the_forms_beyond_flag_value(self):
        cases = json.loads((DATA_DIR / "cli_golden.json").read_text(encoding="utf-8"))["cases"]
        declined = [case["argv"] for case in cases
                    if _parsed(case["argv"]) is not None and cli._plain_args(case["argv"]) is None]
        assert declined == [
            ["pvalue", "--rhat=0.05", "--n", "100", "--alpha", "0.1"],
            ["pvalue", "--rhat", "0.05", "--n", "100", "--alp", "0.1"],
            ["pvalue", "--rhat", "-0", "--n", "100", "--alpha", "0.1"],
            ["fwer", "--procedure", "bonferroni", "--delta", "0.05", "--", "{dir}/pvalues.csv"],
        ]

    @pytest.mark.parametrize("argv", [
        ["plotdata", "--n", "1000", "--alpha", "0.1"],
        ["plotdata", "--n", "200", "--alpha", "0.1", "--grid", "0:0.05:1"],
        ["compare"],
        ["compare", "--n", "3000", "--alpha", "0.1"],
        ["pvalue", "--losses", "losses_000.csv", "--alpha", "0.1", "--format", "json",
         "--digits", "27"],
        ["fwer", "pvalues.csv", "--procedure", "fallback", "--delta", "0.1", "--format", "json",
         "--weights", "0.5,0.5"],
        ["validate", "--dist", "bernoulli:0.11", "--n", "100", "--alpha", "0.1", "--reps",
         "100000", "--method", "prw", "--seed", "123456789", "--format", "json"],
    ])
    def test_accepts_the_benchmark_argv(self, argv):
        assert _fields(cli._plain_args(argv)) == _parsed(argv)


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

    @given(tie=exact_ties())
    @example(tie=(0.0008885599672794342, 27))  # the next double shows in the 27th decimal
    @example(tie=(3.3181800842285156, 17))  # and in the 17th
    @example(tie=(0.03125, 4))
    def test_exact_ties_round_away_from_zero(self, tie):
        # %f rounds a tie to even, so every tie takes the integer path
        value, digits = tie
        scaled = abs(value) * 2 ** (digits + 1)
        assert scaled == int(scaled) and int(scaled) % 2 == 1
        assert round_half_away(value, digits) == format(decimal_half_up(value, digits), "f")

    @pytest.mark.parametrize("value, error", [
        (math.inf, OverflowError), (-math.inf, OverflowError), (math.nan, ValueError),
    ])
    @pytest.mark.parametrize("digits", [0, 4, MAX_DIGITS])
    def test_non_finite_values_raise(self, value, error, digits):
        with pytest.raises(error):
            round_half_away(value, digits)


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
    assert row == ",".join([  # PRW and Bentkus within 4e-16 of a 300-bit mpmath sum
        "0.099900000000000002686739720", "414.648636239572567774303024635",
        "0.994458210204651193997449354", "1.252229589029460354865364025",
    ])


ARGPARSE_ON_DEMAND_SCRIPT = """
import contextlib, io, sys
import prwtest.cli
for argv in (["compare"], ["plotdata", "--n", "1000", "--alpha", "0.1"],
             ["compare", "--n", "3000", "--alpha", "0.1"],
             ["pvalue", "--rhat", "0.05", "--n", "100", "--alpha", "0.1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert prwtest.cli.main(argv) == 0, argv
print(sorted({"argparse", "gettext", "locale"} & set(sys.modules)))
"""


def test_plain_argv_loads_no_argparse_and_help_still_prints():
    # argparse with gettext and locale is about 2 ms of the import, and building
    # the parser about 4 ms more, in a process whose argv needs neither
    result = run_python("-c", ARGPARSE_ON_DEMAND_SCRIPT)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")
    result = run_python("-m", "prwtest", "--help")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: prwtest")


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


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_pvalue_losses_peak_memory_does_not_grow_with_the_file(tmp_path):
    # 2e6 0/1 losses in a 4 MB file: a tuple of them would take 64 MB; the
    # count and the sum are taken a batch at a time
    path = tmp_path / "losses.csv"
    path.write_text("loss\n" + "1\n0\n0\n0\n0\n0\n0\n0\n0\n0\n" * 200_000)
    result = run_python("-c", PEAK_RSS_SCRIPT, "pvalue", "--losses", str(path), "--alpha", "0.1")
    code, peak_kb = map(int, result.stderr.split()[-2:])
    assert code == 0, result.stderr
    assert result.stdout.splitlines()[1].startswith("0.1000,")
    assert peak_kb < 24 * 1024


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_plotdata_peak_memory_holds_no_table_of_rows():
    # 2e5 rows: a list of them, and of every cell, would take about 48 MB; the rows are
    # written as they are zipped, and each column is computed only up to its flat point
    result = run_python("-c", PEAK_RSS_SCRIPT, "plotdata", "--n", "1000", "--alpha", "0.1",
                        "--grid", "0:0.000005:1")
    code, peak_kb = map(int, result.stderr.split()[-2:])
    assert code == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 200_002 and lines[-1] == "1.0,1.0,1.0,1.0,1"
    assert peak_kb < 35 * 1024
