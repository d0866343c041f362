"""CSV formats for job bitstreams, calibration series, and test results.

Three file kinds, all UTF-8 CSV with a fixed header:

* job file        ``job_id,timestamp,qubit_id,bits``: one row per
                  (job, qubit), ``bits`` an ASCII string over {0,1}; every
                  row in a file carries the same declared bit count.
* calibration     ``timestamp,qubit_id,t1_us``
* results         ``job_id,qubit_id,n,lag,bias,statistic,normalized,p_value,verdict``

Parsers are strict: every rejection raises ParseError, carrying the
offending line number where there is one. A file's rules have its parser
as their one owner; records and writers trust what they are given.

All three parsers take a file opened ``"rb"`` and read rows through one
reader, ``_rows``. It reads the file in pieces of bounded size, splits
them into lines at CR, LF and CRLF, as newline="" would, so a file whose
lines end in a lone CR, or a line longer than any row, is read in bounded
memory too, and decodes each line as UTF-8 when csv.reader reads it: a
byte that is not UTF-8 is refused at its own line, after the faults of
the lines before it. csv.reader parses every row, and ``_rows`` owns the
header check, strict quoting, the field count, blank-row skipping, and
turning csv module errors (bad quoting, a field over its 131072-character
limit) into ParseError.

A job row's bit text is most of the file, so csv.reader sees only the rest
of it. A line that opens a record is cut at its last comma when the text
before that comma holds no quote, and the text after it (line end aside)
is 1 to 131072 characters of 0 and 1, which one numpy test on the line's
bytes checks. csv.reader parses the text up to the comma, and the 0/1
array is the row's bits. Every other line goes to csv.reader whole, so a
quoted field, a stray quote, a bad or over-limit bit field meets the same
check, message and line as when every row was parsed whole.
``parse_jobs`` checks each row's fields (each distinct timestamp text is
parsed once), the bit text of a row csv.reader parsed whole, the one bit
count and the grid, and counts each row's 0/1 bytes as it reads them: it
returns the file's p-value matrix, keeping no bits.

Job and result rows may come in any order: each parser places them on their
grid with one gather. A results row must be one a ``test`` run can write,
its normalized statistic and p-value the ones its statistic and bias give,
and ``read_results`` returns the file as the p-value matrix it describes.

Serializers emit a canonical form (job and result rows in the order
given; timestamps UTC with a trailing Z and a four-digit year, to the
second, or to the microsecond when they carry a fraction; floats in
shortest round-trip notation), which each parser reads as the matrix of the
streams or of the results written. ``serialize_jobs`` writes to a file
opened ``"wb"``; the other two writers, to text files.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import math
from array import array
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import BinaryIO, Iterable, Iterator, TextIO

import numpy as np

from .autocorr import PValueMatrix, TestParams, Verdict, cell_outcomes, check_lag, stream_counts

JOB_HEADER = ["job_id", "timestamp", "qubit_id", "bits"]
CALIBRATION_HEADER = ["timestamp", "qubit_id", "t1_us"]
RESULT_HEADER = [
    "job_id", "qubit_id", "n", "lag", "bias",
    "statistic", "normalized", "p_value", "verdict",
]
# The longest text, with room to spare, of a field that is a number, a timestamp or a verdict.
_SHORT_FIELD = 64
# The unit of every bounded read and write: ``_lines`` reads at most four of
# it at once, ``write_results`` formats about this many bytes of rows at a
# time, and ``test`` reads the job file through a buffer of it.
BLOCK_BYTES = 1 << 16


class ParseError(ValueError):
    """Malformed input; ``line`` is the 1-based physical line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def _grid_order(
    cells: dict[tuple[str, int], None], job_ids: tuple[str, ...]
) -> tuple[tuple[int, ...], np.ndarray]:
    """Place rows, given as their distinct (job, qubit) cells in row order,
    on the (job_ids x ascending qubits) grid: returns the qubit ids and the
    row order that fills the grid row by row. Every cell must be covered."""
    qubit_ids = tuple(sorted({qubit for _, qubit in cells}))
    row_start = {job: i * len(qubit_ids) for i, job in enumerate(job_ids)}
    column = {qubit: i for i, qubit in enumerate(qubit_ids)}
    cell = np.fromiter((row_start[job] + column[q] for job, q in cells), np.int64, len(cells))
    if cell.size != len(job_ids) * len(qubit_ids):
        filled = np.zeros(len(job_ids) * len(qubit_ids), dtype=bool)
        filled[cell] = True
        job, column = divmod(int(np.argmin(filled)), len(qubit_ids))
        raise ParseError(f"job {job_ids[job]!r} has no row for qubit {qubit_ids[column]}")
    return qubit_ids, np.argsort(cell)


@dataclass(frozen=True)
class CalibrationRecord:
    timestamp: datetime
    qubit_id: int
    t1_us: float


def _parse_timestamp(text: str, line: int) -> datetime:
    raw = text.strip()
    candidate = raw[:-1] + "+00:00" if raw.endswith("Z") else raw
    try:
        ts = datetime.fromisoformat(candidate)
    except ValueError:
        raise ParseError(f"malformed timestamp {raw!r}", line) from None
    if ts.tzinfo is None:
        raise ParseError(f"timestamp {raw!r} must carry a UTC offset", line)
    try:
        return ts.astimezone(timezone.utc)
    except OverflowError:
        raise ParseError(f"timestamp {raw!r} is out of range in UTC", line) from None


def format_timestamp(ts: datetime) -> str:
    """UTC with a trailing Z and a four-digit year; microseconds only when
    there are any, so a whole-second stamp keeps its second-precision form."""
    return ts.astimezone(timezone.utc).replace(tzinfo=None).isoformat() + "Z"


def _check_job_id(job_id: str, line: int) -> None:
    """Refuse, at its line, a job_id no file can hold."""
    if not job_id:
        raise ParseError("empty job_id", line)
    # csv.writer quotes a newline but not a carriage return, so a job_id
    # holding one could not be written back in a readable file.
    if "\r" in job_id:
        raise ParseError(f"job_id {job_id!r} contains a carriage return", line)


def _parse_qubit_id(text: str, line: int) -> int:
    try:
        qubit = int(text)
    except ValueError:
        raise ParseError(f"qubit_id {text!r} is not an integer", line) from None
    if qubit < 0:
        raise ParseError(f"qubit_id must be non-negative, got {qubit}", line)
    return qubit


def _decode(raw: bytes, line: int, final: bool = True) -> str:
    """``raw``, file line ``line``, as UTF-8 text; unless ``final``, less a
    character cut at its end."""
    try:
        return codecs.utf_8_decode(raw, "strict", final)[0]
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte {raw[exc.start]:#04x} is not UTF-8 ({exc.reason})",
                         line) from None


def _bit_tail(raw: bytes, limit: int) -> tuple[bytes, np.ndarray] | None:
    """A line cut after its last comma, as (the bytes up to the cut, the
    bits after it as a uint8 array of 0s and 1s): only when the bytes before
    the comma hold no quote, and those after it, line end aside, are 1 to
    ``limit`` bytes of '0' and '1'."""
    comma = raw.rfind(b",")
    end = len(raw) - raw.endswith((b"\r", b"\n")) - raw.endswith(b"\r\n")
    prefix = raw[:comma + 1]
    if comma < 0 or not 0 < end - comma - 1 <= limit or b'"' in prefix:
        return None
    # '0' and '1' become 0 and 1, and any other byte a value above 1.
    bits = np.frombuffer(raw, np.uint8, end - comma - 1, comma + 1) ^ ord("0")
    return (prefix, bits) if bits.max() <= 1 else None


def _lines(stream: BinaryIO, longest: int) -> Iterator[bytes]:
    """The file's lines, each with its end, split at CR, LF and CRLF as
    newline="" splits them. Each read takes at most ``4 * BLOCK_BYTES``
    bytes (256 KiB, twice a bit field at the csv field limit), so a file
    whose lines end in a lone CR is held a read at a time, not whole; a
    longer line is joined once from its reads, or, past ``longest`` bytes,
    cut after the read that passes them, as the last line."""
    held: list[bytes] = []
    while piece := stream.readline(4 * BLOCK_BYTES):
        if isinstance(piece, str):
            raise TypeError('CSV lines must be bytes: open the file "rb", not as text')
        if not held and piece.endswith(b"\n") and piece.find(b"\r", 0, len(piece) - 2) < 0:
            yield piece
        elif piece.endswith(b"\n") or b"\r" in piece or held and held[-1].endswith(b"\r"):
            ended = b"".join([*held, piece]).splitlines(keepends=True)
            # A line that has not ended, or ended at a CR an LF may follow, waits for the next read.
            held = [] if ended[-1].endswith(b"\n") else [ended.pop()]
            yield from ended
        else:  # no line ends in this read or the held ones
            held.append(piece)
            if sum(map(len, held)) > longest:
                held = [b"".join(held)]
                break
    yield from b"".join(held).splitlines(keepends=True)


def _rows(stream: BinaryIO, header: list[str],
          bits_last: bool = False) -> Iterator[tuple[int, list]]:
    """Yield (line, fields) for each non-blank data row of a CSV whose first
    row is ``header`` and whose rows all carry as many fields.

    ``stream`` is the file opened ``"rb"``, or anything with its
    ``readline`` (a text file raises TypeError), and ``_lines`` splits it
    at CR, LF and CRLF, as newline="" does. Each line is decoded as UTF-8
    when csv.reader reads it, a byte that is not UTF-8 refused at the
    line's own number. Quoting is strict; any csv.Error (bad quoting, a
    field over the csv module's size limit) becomes a ParseError at the
    line the reader stopped on. A line longer than any row can take is
    read no further and refused at its line: with the csv.Error its start
    meets, if any, else as too long.

    With ``bits_last``, a line that opens a record (a row has just been
    read) is cut where ``_bit_tail`` allows, with the csv module's field
    limit as its limit: csv.reader parses only the text before the cut, and
    the row's last field is its bits as a uint8 array of 0s and 1s. On
    every other row the last field is text."""
    limit = csv.field_size_limit()
    # A row's longest line: each field quoted, in 4-byte characters, and CRLF. Only a job_id
    # and a job row's bits may reach the field limit; every other field is a number, a
    # timestamp or a verdict, of at most _SHORT_FIELD characters.
    longest = sum(4 * (limit if name in ("job_id", "bits") else min(limit, _SHORT_FIELD)) + 3
                  for name in header) + 1
    opens_record = False
    cut: np.ndarray | None = None
    over_long: ParseError | None = None

    def lines() -> Iterator[str]:
        nonlocal opens_record, cut, over_long
        for raw in _lines(stream, longest):
            if len(raw) > longest:  # no row's line; perhaps cut short by _lines
                over_long = ParseError(f"line longer than the {longest} bytes a row can take",
                                       reader.line_num + 1)
                yield _decode(raw, over_long.line, final=False)
                raise over_long  # csv.reader reads on inside a quoted field
            tail = _bit_tail(raw, limit) if opens_record else None
            opens_record = False
            if tail is not None:
                prefix, cut = tail
                raw = prefix + b"\n"
            yield _decode(raw, reader.line_num + 1)

    reader = csv.reader(lines(), strict=True)
    try:
        first = next(reader, None)
        if over_long or first != header:
            raise over_long or ParseError(
                f"expected header {','.join(header)!r}, got "
                f"{','.join(first) if first else '<empty file>'!r}",
                line=1,
            )
        opens_record = bits_last
        for fields in reader:
            opens_record = bits_last
            if cut is not None:
                fields[-1], cut = cut, None
            if not fields:
                continue
            if over_long or len(fields) != len(header):
                raise over_long or ParseError(
                    f"expected {len(header)} fields, got {len(fields)}", reader.line_num
                )
            yield reader.line_num, fields
    except csv.Error as exc:
        raise ParseError(f"unreadable CSV: {exc}", reader.line_num) from None


def parse_jobs(stream: BinaryIO, params: TestParams) -> PValueMatrix:
    """The p-value matrix of the grid of a job CSV, given as ``_rows``
    takes it; the first data row declares the bit count. Each row's bits
    are counted (``stream_counts``) as read and dropped; once the file is
    read, ``from_counts`` gathers the counts, rows in any order, onto the
    grid. Parse and grid errors come first, then an empty grid, then a lag
    the streams are too short for."""
    declared: int | None = None
    times: dict[str, datetime] = {}
    stamps: dict[str, datetime] = {}
    streams: dict[tuple[str, int], None] = {}
    statistic, ones = array("q"), array("q")
    for line, (job_id, ts_text, qubit_text, bits) in _rows(stream, JOB_HEADER, bits_last=True):
        timestamp = times.get(ts_text)
        if timestamp is None:
            timestamp = times[ts_text] = _parse_timestamp(ts_text, line)
        qubit = _parse_qubit_id(qubit_text, line)
        _check_job_id(job_id, line)
        if (job_id, qubit) in streams:
            raise ParseError(f"duplicate stream for job {job_id!r} qubit {qubit}", line)
        streams[job_id, qubit] = None
        if stamps.setdefault(job_id, timestamp) != timestamp:
            raise ParseError(f"job {job_id!r} has conflicting timestamps", line)
        if isinstance(bits, str):  # a row csv.reader parsed whole
            text = bits
            if not text:
                raise ParseError("empty bit string", line)
            bits = np.frombuffer(text.encode(), dtype=np.uint8) ^ ord("0")
            if bits.max() > 1:
                bad = min(set(text) - {"0", "1"})
                raise ParseError(f"bit string contains non-bit character {bad!r}", line)
        if declared is None:
            declared = len(bits)
        elif len(bits) != declared:
            raise ParseError(
                f"bit string length {len(bits)} does not match declared {declared}", line
            )
        # A lag the streams are too short for is refused once the file has parsed.
        counts = stream_counts(bits, params.lag)
        statistic.append(counts[0])
        ones.append(counts[1])

    job_ids = tuple(sorted(stamps, key=lambda job: (stamps[job], job)))
    qubit_ids, order = _grid_order(streams, job_ids)
    if not streams:
        raise ParseError("no streams to analyze")
    check_lag(declared, params.lag)
    return PValueMatrix.from_counts(job_ids, qubit_ids, declared, statistic, ones, params, order)


def check_stream_length(n: int) -> None:
    """Refuse streams longer than the csv module's field limit: no parser reads them."""
    if n > (limit := csv.field_size_limit()):
        raise ValueError(f"{n}-bit streams exceed the job CSV field limit of {limit} characters")


def serialize_jobs(rows: Iterable[tuple[str, datetime, int, np.ndarray]],
                   stream: BinaryIO) -> None:
    """Write streams, each (job_id, timestamp, qubit_id, bits) with ``bits``
    a 1-D bool or uint8 array of 0s and 1s, as job CSV to a file opened
    ``"wb"``: the header, then a row per stream in the order given.

    Bit text never needs quoting, so only the three short fields go through
    csv.writer, and a job's ``job_id,timestamp,`` is quoted once per run of
    its rows. Each row's bits are written as their '0'/'1' bytes."""
    stream.write(",".join(JOB_HEADER).encode() + b"\n")
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    job = prefix = None
    for job_id, timestamp, qubit, bits in rows:
        if (job_id, timestamp) != job:
            job = job_id, timestamp
            text.seek(0)
            text.truncate()
            # An empty last field leaves the row's text as its prefix plus "\n".
            writer.writerow((job_id, format_timestamp(timestamp), ""))
            prefix = text.getvalue()[:-1].encode()
        stream.write(b"%s%d," % (prefix, qubit))
        stream.write(bits.view(np.uint8) | ord("0"))
        stream.write(b"\n")


def parse_calibration(stream: BinaryIO) -> tuple[list[CalibrationRecord], int]:
    """Parse a calibration CSV; returns (records, duplicate_count).

    Repeated (timestamp, qubit_id) keys keep the last value seen.
    """
    by_key: dict[tuple[datetime, int], CalibrationRecord] = {}
    duplicates = 0
    for line, (ts_text, qubit_text, t1_text) in _rows(stream, CALIBRATION_HEADER):
        ts = _parse_timestamp(ts_text, line)
        qubit = _parse_qubit_id(qubit_text, line)
        try:
            t1 = float(t1_text)
        except ValueError:
            raise ParseError(f"t1_us {t1_text!r} is not a number", line) from None
        if not 0.0 < t1 < float("inf"):
            raise ParseError(f"t1_us must be a positive finite value, got {t1_text}", line)
        if (ts, qubit) in by_key:
            duplicates += 1
        by_key[(ts, qubit)] = CalibrationRecord(timestamp=ts, qubit_id=qubit, t1_us=t1)
    return list(by_key.values()), duplicates


def serialize_calibration(records: Iterable[CalibrationRecord], stream: TextIO) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CALIBRATION_HEADER)
    for rec in sorted(records, key=lambda r: (r.timestamp, r.qubit_id)):
        writer.writerow([format_timestamp(rec.timestamp), rec.qubit_id, repr(rec.t1_us)])


def write_results(matrix: PValueMatrix, stream: TextIO) -> None:
    """Write every cell of the matrix as one results-CSV row, in row order.
    Its ids are those of a file ``parse_jobs`` or ``read_results`` read, or
    of a run ``stream_run`` drew, so each is one ``read_results`` reads."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(RESULT_HEADER)
    qubits, failed, degenerate = matrix.qubit_ids, matrix.failed(), matrix.degenerate
    # A cell's verdict is the name at 2 where it is degenerate, else at 1 where it failed.
    names = np.array([str(v) for v in (Verdict.PASS, Verdict.FAIL, Verdict.DEGENERATE)])
    # A block of jobs at a time: the Python objects of every cell at once
    # would take about 150 bytes a cell. A NaN is written as an empty field.
    step = max(1, BLOCK_BYTES // 64 // len(qubits))
    for start in range(0, len(matrix.job_ids), step):
        jobs = slice(start, start + step)
        cells = [a[jobs].ravel().tolist() for a in (
            matrix.bias, matrix.statistic, matrix.normalized, matrix.p_value)]
        cells.append(names[np.where(degenerate[jobs], 2, failed[jobs])].ravel().tolist())
        for values, text in zip((matrix.normalized[jobs], matrix.p_value[jobs]), cells[2:4]):
            for cell in np.flatnonzero(np.isnan(values)).tolist():
                text[cell] = ""
        job_ids = [job_id for job_id in matrix.job_ids[jobs] for _ in qubits]
        writer.writerows(zip(job_ids, itertools.cycle(qubits), itertools.repeat(matrix.n),
                             itertools.repeat(matrix.lag), *cells))


def read_results(stream: BinaryIO, alpha: float = TestParams.alpha) -> PValueMatrix:
    """Read a results CSV as the matrix it describes, pass/fail read at
    ``alpha``: jobs in order of first appearance, qubits ascending, and each
    (job, qubit) cell once. An ``alpha`` outside (0, 1) is refused first,
    with ``TestParams``' message.

    Only rows a ``test`` run can write are accepted: a non-empty job_id
    without a carriage return, 1 <= lag < n, n within the job CSV field
    limit (``check_stream_length``'s rule), statistic in [0, n - lag],
    bias in [0, 1], and one n and one lag per file. A row is degenerate
    exactly when its normalized and p_value fields are empty, and every
    fail p_value lies below every pass p_value, as both sides of the alpha
    they were read at. Once the file is read, each row's normalized and
    p_value must be those ``cell_outcomes`` gives for its statistic and
    bias, bit for bit; the first row whose numbers differ is refused at its line."""
    TestParams(alpha=alpha)
    n_lag: tuple[int, int] | None = None
    max_fail, min_pass = -math.inf, math.inf
    cells: dict[tuple[str, int], None] = {}
    # line, degenerate, then the matrix's statistic, bias, normalized, p_value
    columns = tuple(map(array, "qbqddd"))
    for line, row in _rows(stream, RESULT_HEADER):
        job_id, qubit_text, n_text, lag_text, bias_text = row[:5]
        stat_text, z_text, p_text, v_text = row[5:]
        _check_job_id(job_id, line)
        try:
            verdict = Verdict(v_text)
        except ValueError:
            raise ParseError(f"unknown verdict {v_text!r}", line) from None
        try:
            n, lag, statistic = int(n_text), int(lag_text), int(stat_text)
            bias = float(bias_text)
            normalized = float(z_text) if z_text else math.nan
            p = float(p_text) if p_text else math.nan
        except ValueError as exc:
            raise ParseError(f"malformed result row: {exc}", line) from None
        if not 1 <= lag < n:
            raise ParseError(f"lag must satisfy 1 <= lag < n, got lag={lag}, n={n}", line)
        if n > csv.field_size_limit():  # check_stream_length's rule: no job file holds it
            raise ParseError(f"n = {n} exceeds the job CSV field limit of "
                             f"{csv.field_size_limit()} characters", line)
        if not 0 <= statistic <= n - lag:
            raise ParseError(f"statistic {statistic} outside [0, n - lag = {n - lag}]", line)
        if not 0.0 <= bias <= 1.0:
            raise ParseError(f"bias must be in [0, 1], got {bias_text!r}", line)
        n_lag = n_lag or (n, lag)
        if (n, lag) != n_lag:
            raise ParseError(f"(n, lag) = {(n, lag)} differs from {n_lag} of earlier rows", line)
        degenerate = verdict is Verdict.DEGENERATE
        if degenerate != (not z_text) or degenerate != (not p_text):
            raise ParseError("normalized and p_value must be empty exactly on degenerate rows", line)
        if verdict is Verdict.FAIL:
            if p >= min_pass:
                raise ParseError(f"fail p_value {p_text} is not below the pass p_value "
                                 f"{min_pass!r} of an earlier row", line)
            max_fail = max(max_fail, p)
        elif verdict is Verdict.PASS:
            if p <= max_fail:
                raise ParseError(f"pass p_value {p_text} is not above the fail p_value "
                                 f"{max_fail!r} of an earlier row", line)
            min_pass = min(min_pass, p)
        qubit = _parse_qubit_id(qubit_text, line)
        if (job_id, qubit) in cells:
            raise ParseError(f"duplicate cell for job {job_id!r} qubit {qubit}", line)
        cells[job_id, qubit] = None
        for column, value in zip(columns, (line, degenerate, statistic, bias, normalized, p)):
            column.append(value)
    if n_lag is None:
        raise ParseError("no result rows to aggregate")
    lines, degenerate, *values = (np.array(column) for column in columns)
    degenerate = degenerate.astype(bool)
    statistic, bias, normalized, p = values
    z_test, p_test = cell_outcomes(statistic, bias, *n_lag)
    # A degenerate row's fields are empty; every other row's are the test's own numbers.
    bad = (np.isnan(p_test) != degenerate) | ~degenerate & ((normalized != z_test) | (p != p_test))
    if bad.any():
        row = int(np.argmax(bad))
        z, p, z_test, p_test, bias = (a[row].item() for a in (normalized, p, z_test, p_test, bias))
        raise ParseError(f"normalized {z!r} and p_value {p!r} are not {z_test!r} and {p_test!r}, "
                         f"the test's at statistic {statistic[row]} and bias {bias!r}",
                         int(lines[row]))
    job_ids = tuple(dict.fromkeys(job for job, _ in cells))
    qubit_ids, order = _grid_order(cells, job_ids)
    shape = (len(job_ids), len(qubit_ids))
    return PValueMatrix(job_ids, qubit_ids, *n_lag, alpha,
                        *(v[order].reshape(shape) for v in values))
