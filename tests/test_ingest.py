"""CSV parsing and serialization: round trips, line-numbered rejections, fuzz."""

import csv
import io
import itertools
import math
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qrng_audit import cli, ingest
from qrng_audit.autocorr import PValueMatrix, TestParams
from qrng_audit.ingest import (
    JOB_HEADER,
    CalibrationRecord,
    ParseError,
    format_timestamp,
    parse_calibration,
    parse_jobs,
    read_results,
    serialize_calibration,
    write_results,
)
from reference import (bits_of, grid_matrix, matrix_fields, rows_from_bits, serialize_jobs_str,
                       whole_row_parse_jobs)

TS = datetime(2019, 5, 9, 11, 24, 27, tzinfo=timezone.utc)
PARAMS = TestParams()


def job_file(*rows, header="job_id,timestamp,qubit_id,bits"):
    return io.BytesIO(("\n".join([header, *rows]) + "\n").encode())


def job_rows(*cells):
    """JobRows from (job_id, timestamp, qubit_id, bit string) cells in grid
    order: jobs in time order, each with its qubits ascending."""
    jobs = dict.fromkeys((c[0], c[1]) for c in cells)
    return rows_from_bits(
        job_ids=tuple(job_id for job_id, _ in jobs), timestamps=tuple(ts for _, ts in jobs),
        qubit_ids=tuple(dict.fromkeys(c[2] for c in cells)),
        bits=np.array([[int(b) for b in c[3]] for c in cells], dtype=np.uint8),
    )


# -------------------------------------------------------------------- jobs

def test_parse_single_row():
    rows = whole_row_parse_jobs(job_file("j1,2019-05-09T11:24:27Z,0,0110"))
    assert (rows.job_ids, rows.timestamps, rows.qubit_ids) == (("j1",), (TS,), (0,))
    assert rows.bits.dtype == np.uint8
    assert bits_of(rows).tolist() == [[0, 1, 1, 0]]


def test_parse_groups_rows_into_jobs():
    def grouped():
        return job_file(
            "j1,2019-05-09T11:24:27Z,1,01",
            "j1,2019-05-09T11:24:27Z,0,11",
            "j2,2019-05-09T11:33:10Z,0,10",
            "j2,2019-05-09T11:33:10Z,1,00",
        )

    rows = whole_row_parse_jobs(grouped())
    assert (rows.job_ids, rows.qubit_ids) == (("j1", "j2"), (0, 1))
    # row j * 2 + k holds job j's stream on qubit k, whatever the file order
    assert bits_of(rows).tolist() == [[1, 1], [0, 1], [1, 0], [0, 0]]
    matrix = parse_jobs(grouped(), TestParams(lag=1))
    assert (matrix.job_ids, matrix.qubit_ids) == (("j1", "j2"), (0, 1))
    assert matrix.statistic.tolist() == [[0, 1], [1, 0]]


def test_parse_empty_file_has_no_rows():
    rows = whole_row_parse_jobs(job_file())
    assert rows.job_ids == () and rows.bits.shape == (0, 0)
    with pytest.raises(ParseError, match="^no streams to analyze$"):
        parse_jobs(job_file(), PARAMS)


@pytest.mark.parametrize("parse", [lambda stream: parse_jobs(stream, PARAMS), parse_calibration,
                                   read_results],
                         ids=["parse_jobs", "parse_calibration", "read_results"])
def test_parsers_refuse_a_file_opened_as_text(parse):
    text = io.StringIO("job_id,timestamp,qubit_id,bits\nj1,2019-05-09T11:24:27Z,0,0110\n")
    with pytest.raises(TypeError, match='open the file "rb"'):
        parse(text)


def test_parse_bad_bit_names_line():
    with pytest.raises(ParseError) as err:
        parse_jobs(job_file("j1,2019-05-09T11:24:27Z,0,01a0"), PARAMS)
    assert err.value.line == 2
    assert "non-bit" in str(err.value)


def test_parse_length_mismatch():
    with pytest.raises(ParseError) as err:
        parse_jobs(job_file(
            "j1,2019-05-09T11:24:27Z,0,0110",
            "j1,2019-05-09T11:24:27Z,1,011",
        ), PARAMS)
    assert err.value.line == 3


def test_parse_refuses_an_over_limit_stream_on_a_later_row():
    limit = csv.field_size_limit()
    with pytest.raises(ParseError, match="unreadable CSV") as err:
        parse_jobs(job_file(
            f"j1,2019-05-09T11:24:27Z,0,{'1' * limit}",
            f"j1,2019-05-09T11:24:27Z,1,{'1' * (limit + 1)}",
        ), PARAMS)
    assert err.value.line == 3


def test_parse_duplicate_stream():
    with pytest.raises(ParseError) as err:
        parse_jobs(job_file(
            "j1,2019-05-09T11:24:27Z,0,01",
            "j1,2019-05-09T11:24:27Z,0,10",
        ), PARAMS)
    assert "duplicate" in str(err.value)


def test_parse_conflicting_job_timestamps():
    with pytest.raises(ParseError):
        parse_jobs(job_file(
            "j1,2019-05-09T11:24:27Z,0,01",
            "j1,2019-05-09T12:00:00Z,1,10",
        ), PARAMS)


def test_parse_rejects_wrong_header():
    with pytest.raises(ParseError) as err:
        parse_jobs(io.BytesIO("a,b,c\nj1,2019-05-09T11:24:27Z,0,01\n".encode()), PARAMS)
    assert err.value.line == 1


@pytest.mark.parametrize(
    "row",
    [
        "j1,not-a-time,0,01",
        "j1,2019-05-09T11:24:27,0,01",  # naive timestamp
        "j1,2019-05-09T11:24:27Z,x,01",
        "j1,2019-05-09T11:24:27Z,-1,01",
        "j1,2019-05-09T11:24:27Z,0,",
        ",2019-05-09T11:24:27Z,0,01",
        "j1,2019-05-09T11:24:27Z,0",
        "j1,0001-01-01T00:00:00+01:00,0,01",  # before year 1 in UTC
        'j1,2019-05-09T11:24:27Z,0,"01',  # unterminated quote
    ],
)
def test_parse_structured_rejections(row):
    with pytest.raises(ParseError) as err:
        parse_jobs(job_file(row), PARAMS)
    assert err.value.line == 2


def test_serialize_canonical_order():
    rows = job_rows(("j1", TS, 0, "11"), ("j1", TS, 1, "01"))
    text = serialize_jobs_str(rows)
    assert text.splitlines() == [
        "job_id,timestamp,qubit_id,bits",
        "j1,2019-05-09T11:24:27Z,0,11",
        "j1,2019-05-09T11:24:27Z,1,01",
    ]


def test_serialize_empty_is_header_only():
    assert serialize_jobs_str(whole_row_parse_jobs(job_file())) == (
        "job_id,timestamp,qubit_id,bits\n")


def test_serialize_twenty_qubits_twenty_rows():
    rows = job_rows(*(("j1", TS, q, "0101") for q in range(20)))
    assert len(serialize_jobs_str(rows).splitlines()) == 21


job_ids = st.text(alphabet="abcdefghij0123456789-", min_size=1, max_size=8)
timestamps = st.integers(0, 2**31 - 1).map(
    lambda s: datetime.fromtimestamp(s, tz=timezone.utc)
)


@st.composite
def job_corpora(draw):
    """Grids a job file holds: distinct jobs in (timestamp, job_id) order,
    each with a stream on every one of qubits 0..k-1."""
    bits_len = draw(st.integers(1, 16))
    jobs = sorted(draw(st.lists(st.tuples(timestamps, job_ids), max_size=5,
                                unique_by=lambda job: job[1])))
    qubits = draw(st.integers(1, 4)) if jobs else 0
    seed = draw(st.integers(0, 2**32 - 1))
    bits = np.random.default_rng(seed).integers(
        0, 2, (len(jobs) * qubits, bits_len), dtype=np.uint8)
    return rows_from_bits(tuple(job_id for _, job_id in jobs), tuple(ts for ts, _ in jobs),
                          tuple(range(qubits)), bits)


@given(job_corpora())
@settings(max_examples=60, deadline=None)
def test_job_round_trip_identity(rows):
    """serialize(parse(F)) is byte-identical to canonical F."""
    text = serialize_jobs_str(rows)
    parsed = whole_row_parse_jobs(io.BytesIO(text.encode()))
    assert (parsed.job_ids, parsed.timestamps, parsed.qubit_ids) == (
        rows.job_ids, rows.timestamps, rows.qubit_ids)
    assert bits_of(parsed).tolist() == bits_of(rows).tolist()
    assert serialize_jobs_str(parsed) == text


@given(job_corpora(), st.data())
@settings(max_examples=60, deadline=None)
def test_parse_places_rows_of_any_order(rows, data):
    """Any row order of a job file tests to the matrix of the canonical file,
    or is refused alike."""
    text = serialize_jobs_str(rows)
    header, *lines = text.splitlines(True)
    shuffled = io.BytesIO((header + "".join(data.draw(st.permutations(lines)))).encode())
    params = TestParams(lag=data.draw(st.integers(1, 17)))
    assert matrix_outcome(parse_jobs, shuffled, params) == matrix_outcome(
        parse_jobs, io.BytesIO(text.encode()), params)


def matrix_outcome(test, stream, params):
    """``matrix_fields`` of what ``test(stream, params)`` returns, or the
    type and message of its refusal."""
    try:
        return matrix_fields(test(stream, params))
    except ValueError as exc:
        return type(exc), str(exc)


def reference_test(stream, params):
    return grid_matrix(whole_row_parse_jobs(stream), params)


def whole_row_serialize_jobs(rows):
    """The job CSV as one csv.writer wrote it, bit field included: the
    reference the block-wise writer must match byte for byte."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["job_id", "timestamp", "qubit_id", "bits"])
    cells = [(job_id, format_timestamp(ts), qubit)
             for job_id, ts in zip(rows.job_ids, rows.timestamps) for qubit in rows.qubit_ids]
    writer.writerows(
        [*cell, (bits + ord("0")).tobytes().decode("ascii")]
        for cell, bits in zip(cells, bits_of(rows))
    )
    return buf.getvalue()


@st.composite
def bit_matrices(draw):
    """(rows, n) bits; at n >= 2731 a 64 KiB block holds at most 23 rows, so
    up to 24 rows span several blocks, the last one partial."""
    n = draw(st.sampled_from([1, 2, 2730, 2731, 8191, 8192, 8193, 65535, 65536, 65537])
             | st.integers(1, 64))
    count = draw(st.integers(0, 24))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).integers(0, 2, (count, n), dtype=np.uint8)


@given(bit_matrices(), st.data())
@settings(max_examples=80, deadline=None)
def test_serialize_jobs_matches_whole_row_csv_writer(bits, data):
    # The rows as a (jobs x qubits) grid of any shape with that many cells.
    count = len(bits)
    qubits = data.draw(st.sampled_from([q for q in range(1, count + 1) if count % q == 0]
                                       or [0]))
    jobs = count // qubits if qubits else 0
    names = data.draw(st.lists(st.text(alphabet='ab7,"\n é', min_size=1, max_size=6),
                               min_size=jobs, max_size=jobs, unique=True))
    stamps = data.draw(st.lists(timestamps, min_size=jobs, max_size=jobs))
    order = sorted(zip(stamps, names))
    qubit_ids = data.draw(st.lists(st.integers(0, 10**6), min_size=qubits, max_size=qubits,
                                   unique=True))
    rows = rows_from_bits(tuple(name for _, name in order), tuple(ts for ts, _ in order),
                          tuple(sorted(qubit_ids)), bits)
    assert serialize_jobs_str(rows) == whole_row_serialize_jobs(rows)


@pytest.mark.parametrize("bits", [
    np.zeros((0, 5), dtype=np.uint8),
    np.random.default_rng(1).integers(0, 2, (2 * 32768 + 4, 1), dtype=np.uint8),
], ids=["empty-2d", "n1-three-blocks"])
def test_serialize_jobs_matches_whole_row_csv_writer_at_edge_shapes(bits):
    qubits = min(len(bits), 20)
    jobs = len(bits) // 20
    rows = rows_from_bits(tuple(f"j,{j:05d}" for j in range(jobs)), (TS,) * jobs,
                          tuple(range(qubits)), bits)
    assert serialize_jobs_str(rows) == whole_row_serialize_jobs(rows)


def test_parse_rejects_carriage_return_in_job_id():
    with pytest.raises(ParseError) as err:
        parse_jobs(job_file('"cr\rid",2020-01-01T00:00:00Z,0,0110'), PARAMS)
    # The CR ends line 2, as in a file opened with newline="": the row ends on line 3.
    assert err.value.line == 3
    assert "carriage return" in str(err.value)


def test_write_results_writes_each_block_of_jobs_as_one_row_per_cell():
    """Results are formatted a block of jobs at a time (1024 cells: 341 jobs
    of 3 qubits, so 700 jobs end in a partial third block); the text is one
    row per cell in row order, an empty field for each NaN."""
    rng = np.random.default_rng(3)
    jobs, n = 700, 64
    ones = rng.integers(0, n + 1, jobs * 3)
    ones[::7], ones[::11] = 0, n  # degenerate cells
    statistic = rng.integers(0, n, jobs * 3)
    matrix = PValueMatrix.from_counts(tuple(f"j{j}" for j in range(jobs)), (0, 1, 2), n,
                                      [(statistic, ones)], TestParams(lag=1))
    buf = io.StringIO()
    write_results(matrix, buf)
    verdicts, lines = matrix.verdicts(), [",".join(ingest.RESULT_HEADER)]
    for (j, job_id), (k, qubit) in itertools.product(enumerate(matrix.job_ids),
                                                     enumerate(matrix.qubit_ids)):
        z, p = (float(a[j, k]) for a in (matrix.normalized, matrix.p_value))
        lines.append(",".join([job_id, str(qubit), str(n), "1", repr(float(matrix.bias[j, k])),
                               str(int(matrix.statistic[j, k])), "" if math.isnan(z) else repr(z),
                               "" if math.isnan(p) else repr(p), verdicts[j, k].value]))
    assert 0 < int(matrix.degenerate.sum()) < jobs * 3
    assert buf.getvalue() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [1, 7, 8, 9, 13, 16, 8193])
def test_parse_jobs_holds_each_row_in_ceil_n_over_8_bytes(n):
    stream = ("10" * n)[:n]
    text = "".join(f"j{j},2019-05-09T11:2{j}:27Z,{q},{stream}\n"
                   for j in range(3) for q in (0, 1))
    parsed = whole_row_parse_jobs(job_file(text.rstrip("\n")))
    assert parsed.n == n
    assert parsed.bits.nbytes == 6 * -(-n // 8)
    assert bits_of(parsed).tolist() == [[int(b) for b in stream]] * 6
    if n > 1:  # every pair of neighbours differs
        assert parse_jobs(job_file(text.rstrip("\n")), PARAMS).statistic.tolist() == (
            [[n - 1] * 2] * 3)


def test_sub_second_timestamps_round_trip():
    """Stamps with microseconds are written with them: at second precision
    these two jobs would share a stamp and read back reordered."""
    noon = datetime(2020, 1, 1, 12, tzinfo=timezone.utc)
    half = noon.replace(microsecond=500000)
    rows = job_rows(("b", noon, 0, "0110"), ("a", half, 0, "1001"))
    text = serialize_jobs_str(rows)
    assert text.splitlines()[1:] == ["b,2020-01-01T12:00:00Z,0,0110",
                                     "a,2020-01-01T12:00:00.500000Z,0,1001"]
    parsed = whole_row_parse_jobs(io.BytesIO(text.encode()))
    assert (parsed.job_ids, parsed.timestamps) == (("b", "a"), (noon, half))
    assert serialize_jobs_str(parsed) == text
    records = [CalibrationRecord(half, 0, 50.0), CalibrationRecord(noon, 0, 60.0)]
    buf = io.StringIO()
    serialize_calibration(records, buf)
    assert parse_calibration(io.BytesIO(buf.getvalue().encode())) == (records[::-1], 0)


@pytest.mark.parametrize("fraction", ["", ".250000"], ids=["whole-second", "fraction"])
@pytest.mark.parametrize("year", [1, 50, 999])
def test_early_year_timestamps_round_trip(year, fraction):
    """Years below 1000 are written with four digits, the form the parsers read."""
    stamp = f"{year:04d}-01-01T00:00:00{fraction}Z"
    jobs = f"job_id,timestamp,qubit_id,bits\nj1,{stamp},0,0101\n"
    written = serialize_jobs_str(whole_row_parse_jobs(io.BytesIO(jobs.encode())))
    assert written == jobs
    assert serialize_jobs_str(whole_row_parse_jobs(io.BytesIO(written.encode()))) == written
    calibration = f"timestamp,qubit_id,t1_us\n{stamp},0,50.0\n"
    for _ in range(2):
        buf = io.StringIO()
        serialize_calibration(parse_calibration(io.BytesIO(calibration.encode()))[0], buf)
        assert buf.getvalue() == calibration


def test_serialize_jobs_refuses_streams_over_the_csv_field_limit():
    """A stream at the limit reads back. One over it is refused by the CLI
    before a run is drawn (``test_bits_above_csv_field_limit_exit_2_before_generating``)."""
    limit = csv.field_size_limit()
    rows = rows_from_bits(("j1",), (TS,), (0,), np.ones((1, limit), np.uint8))
    parsed = whole_row_parse_jobs(io.BytesIO(serialize_jobs_str(rows).encode()))
    assert np.array_equal(parsed.bits, rows.bits)
    tested = parse_jobs(io.BytesIO(serialize_jobs_str(rows).encode()), PARAMS)
    assert (tested.n, tested.statistic.tolist(), tested.bias.tolist()) == (limit, [[0]], [[1.0]])


# ------------------------------------------------------------- calibration

def test_parse_calibration_row():
    records, dups = parse_calibration(io.BytesIO((
        "timestamp,qubit_id,t1_us\n2019-05-09T12:00:00Z,0,71.5\n"
    ).encode()))
    assert dups == 0
    assert records == [
        CalibrationRecord(
            timestamp=datetime(2019, 5, 9, 12, tzinfo=timezone.utc),
            qubit_id=0, t1_us=71.5,
        )
    ]


def test_parse_calibration_rejects_nonpositive_t1():
    for bad in ("-3", "0", "nan", "inf"):
        with pytest.raises(ParseError):
            parse_calibration(io.BytesIO((
                f"timestamp,qubit_id,t1_us\n2019-05-09T12:00:00Z,0,{bad}\n"
            ).encode()))


def test_parse_calibration_duplicate_last_wins():
    records, dups = parse_calibration(io.BytesIO((
        "timestamp,qubit_id,t1_us\n"
        "2019-05-09T12:00:00Z,0,71.5\n"
        "2019-05-09T12:00:00Z,1,60.0\n"
        "2019-05-09T12:00:00Z,0,72.5\n"
    ).encode()))
    assert dups == 1
    assert [r.t1_us for r in records if r.qubit_id == 0] == [72.5]


def test_calibration_round_trip():
    records = [
        CalibrationRecord(timestamp=TS, qubit_id=q, t1_us=50.0 + q) for q in range(3)
    ]
    buf = io.StringIO()
    serialize_calibration(records, buf)
    parsed, dups = parse_calibration(io.BytesIO(buf.getvalue().encode()))
    assert dups == 0
    assert parsed == records


# ----------------------------------------------------------------- results

def test_results_round_trip():
    matrix = PValueMatrix(
        job_ids=("j1",), qubit_ids=(0, 1), n=8, lag=1, alpha=0.01,
        statistic=np.array([[3, 0]]), bias=np.array([[0.5, 1.0]]),
        normalized=np.array([[-0.3779644730092272, np.nan]]),
        p_value=np.array([[0.7054569861112734, np.nan]]),
    )
    buf = io.StringIO()
    write_results(matrix, buf)
    assert buf.getvalue().splitlines() == [
        "job_id,qubit_id,n,lag,bias,statistic,normalized,p_value,verdict",
        "j1,0,8,1,0.5,3,-0.3779644730092272,0.7054569861112734,pass",
        "j1,1,8,1,1.0,0,,,degenerate",
    ]
    parsed = read_results(io.BytesIO(buf.getvalue().encode()), alpha=0.25)
    assert (parsed.job_ids, parsed.qubit_ids, parsed.n, parsed.lag, parsed.alpha) == (
        ("j1",), (0, 1), 8, 1, 0.25)
    for field in ("statistic", "bias", "normalized", "p_value"):
        assert np.array_equal(getattr(parsed, field), getattr(matrix, field),
                              equal_nan=True), field


@given(st.integers(2, 64), st.data())
@settings(max_examples=100, deadline=None)
def test_read_results_reads_back_every_matrix_from_counts_gives(n, data):
    """Counts at any n, lag and bias, tested by ``from_counts`` and written by
    ``write_results``: each row's numbers recompute to themselves bit for
    bit, and the file reads back as the matrix, field for field."""
    jobs, qubits = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    params = TestParams(lag=data.draw(st.integers(1, n - 1)), fixed_bias=data.draw(
        st.none() | st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    cells = jobs * qubits
    counts = (rng.integers(0, n - params.lag + 1, cells), rng.integers(0, n + 1, cells))
    matrix = PValueMatrix.from_counts(tuple(f"j{j}" for j in range(jobs)), tuple(range(qubits)),
                                      n, [counts], params)
    buf = io.StringIO()
    write_results(matrix, buf)
    read = read_results(io.BytesIO(buf.getvalue().encode()), alpha=params.alpha)
    assert matrix_fields(read) == matrix_fields(matrix)


RESULTS_HEADER = "job_id,qubit_id,n,lag,bias,statistic,normalized,p_value,verdict\n"


@pytest.mark.parametrize("rows", [
    # a fail p-value not below an earlier pass p-value
    "j1,0,8,1,0.5,2,-1.1338934190276817,0.25683925795785667,pass\n"
    "j1,1,8,1,0.5,3,-0.3779644730092272,0.7054569861112734,fail\n",
    "j1,0,8,1,0.5,2,-1.1338934190276817,0.25683925795785667,pass\n"
    "j1,1,8,1,0.5,5,1.1338934190276817,0.25683925795785667,fail\n",
    # a pass p-value not above an earlier fail p-value
    "j1,0,8,1,0.5,3,-0.3779644730092272,0.7054569861112734,fail\n"
    "j1,1,8,1,0.5,2,-1.1338934190276817,0.25683925795785667,pass\n",
    "j1,0,8,1,0.5,3,-0.3779644730092272,0.7054569861112734,fail\n"
    "j1,1,8,1,0.5,4,0.3779644730092272,0.7054569861112734,pass\n",
])
def test_read_results_rejects_verdicts_out_of_p_value_order(rows):
    with pytest.raises(ParseError) as err:
        read_results(io.BytesIO(
            (RESULTS_HEADER + "j0,0,8,1,1.0,0,,,degenerate\n" + rows).encode()))
    assert err.value.line == 4
    assert "of an earlier row" in str(err.value)


FOUND_ROW = "j1,0,8,1,0.5,3,2.6,0.0001,fail\n"  # its counts give p = 0.705, a pass
GOOD_ROW = "j1,1,8,1,0.5,3,-0.3779644730092272,0.7054569861112734,pass\n"


@pytest.mark.parametrize("rows, line, message", [
    # read as written, its fail would give qubit 0 a failure ratio of 1.0
    (FOUND_ROW, 2, "^line 2: normalized 2.6 and p_value 0.0001 are not -0.3779644730092272 and "
                   "0.7054569861112734, the test's at statistic 3 and bias 0.5$"),
    (FOUND_ROW + "j1,1,8,1,0.5,3,0.1,0.9,maybe\n", 3, "unknown verdict 'maybe'"),
    (GOOD_ROW.replace("j1", "j0") + FOUND_ROW + FOUND_ROW.replace("j1,0", "j1,1"), 3,
     "normalized 2.6 and p_value 0.0001 are not -0.3779644730092272 and 0.7054569861112734"),
    (GOOD_ROW + FOUND_ROW.replace("j1", "j2"), 3, "normalized 2.6 and p_value 0.0001 are not"),
], ids=["fail-of-a-pass", "read-fault-first", "first-mismatch", "mismatch-before-missing-cell"])
def test_read_results_refuses_numbers_not_the_tests_own_after_reading(rows, line, message):
    """Each row's numbers are recomputed once the file is read: a fault found
    while reading comes first, then the first row whose numbers its statistic
    and bias do not give, at its line, then a fault of the grid."""
    with pytest.raises(ParseError, match=message) as err:
        read_results(io.BytesIO((RESULTS_HEADER + rows).encode()))
    assert err.value.line == line


def test_read_results_rejects_bad_verdict():
    with pytest.raises(ParseError):
        read_results(io.BytesIO((RESULTS_HEADER + "j1,0,8,1,0.5,3,0.1,0.9,maybe\n").encode()))


@pytest.mark.parametrize("lag", [0, 8, 9])
def test_read_results_rejects_lag_outside_range_on_first_row(lag):
    with pytest.raises(ParseError) as err:
        row = f"j1,0,8,{lag},0.5,3,-0.3779644730092272,0.7054569861112734,pass\n"
        read_results(io.BytesIO((RESULTS_HEADER + row).encode()))
    assert err.value.line == 2
    assert "lag" in str(err.value)


@pytest.mark.parametrize("n", [131072, 131073, 10**30])
def test_read_results_refuses_n_above_the_job_csv_field_limit(n, tmp_path, capsys):
    """No job file holds streams longer than the csv field limit, so no
    ``test`` run writes such a row: it is refused at its line (exit 1), and
    the statistic of every row read stays int64."""
    # normalized and p_value are the test's own at n = 131072
    text = RESULTS_HEADER + (f"j1,0,{n},1,0.5,{n // 2},0.002762146400782371,"
                             "0.9977961288345274,pass\n")
    results = tmp_path / "results.csv"
    results.write_text(text)
    code = cli.main(["aggregate", "--in", str(results), "--report", str(tmp_path / "r.csv")])
    if n <= 131072:
        assert code == 0
        assert read_results(io.BytesIO(text.encode())).statistic.dtype == np.int64
        return
    assert code == 1
    assert capsys.readouterr().err == (f"error: line 2: n = {n} exceeds the job CSV field "
                                       "limit of 131072 characters\n")
    assert not (tmp_path / "r.csv").exists()


def test_read_results_rejects_carriage_return_in_job_id():
    with pytest.raises(ParseError) as err:
        read_results(io.BytesIO((RESULTS_HEADER + GOOD_ROW.replace("j1", '"cr\rid"')).encode()))
    # The CR ends line 2, as in a file opened with newline="": the row ends on line 3.
    assert err.value.line == 3
    assert "carriage return" in str(err.value)


def test_read_results_rejects_duplicate_cell_at_its_second_row():
    with pytest.raises(ParseError) as err:
        read_results(io.BytesIO((RESULTS_HEADER + GOOD_ROW + GOOD_ROW).encode()))
    assert err.value.line == 3
    assert "duplicate cell for job 'j1' qubit 1" in str(err.value)


# -------------------------------------------------------------------- fuzz

@given(st.data())
@settings(max_examples=200, deadline=None)
def test_fuzzed_job_files_never_crash(data):
    """Arbitrary mutations either parse or raise ParseError, never crash."""
    base = serialize_jobs_str(job_rows(
        ("j1", TS, 0, "0110"), ("j1", TS, 1, "1001"),
        ("j2", TS, 0, "0000"), ("j2", TS, 1, "1111"),
    ))
    text = list(base)
    for _ in range(data.draw(st.integers(1, 4))):
        kind = data.draw(st.sampled_from(["replace", "insert", "delete"]))
        pos = data.draw(st.integers(0, max(len(text) - 1, 0)))
        char = data.draw(st.sampled_from("01,\n\rjZ:T-\"'x\x00"))
        if kind == "replace" and text:
            text[pos] = char
        elif kind == "insert":
            text.insert(pos, char)
        elif text:
            del text[pos]
    try:
        parse_jobs(io.BytesIO("".join(text).encode()), PARAMS)
    except ParseError:
        pass


# ------------------------------------------------- the whole-row reference

LIMIT = csv.field_size_limit()
STAMPS = ("2019-05-09T11:24:27Z", "2019-05-09T12:00:00+00:00")
# Each bad value stands in for one field of a row.
BAD_FIELDS = {
    "job_id": ['"j,1"', '"j\n1"', '"j\r\n1"', '"j\n0,1\n1"', '"j""1"', 'j"1', '"j1"x', '"j1',
               "", "jé"],
    "timestamp": ["not-a-time", '"2019-05-09T11:24:27Z"', "2019-05-09T11:24:27"],
    "qubit_id": ["x", "-1", '"0"', "7"],
    "bits": ["", "01a0", "0é10", "0 1", '"0110"', '"01"10', "1" * LIMIT, "1" * (LIMIT + 1),
             "0" * (LIMIT + 2), "011", "01101"],
}


@st.composite
def job_file_bytes(draw):
    """A job file as bytes: a (jobs x qubits) grid of 4-bit rows, quoted or
    not, in any order, with CR, LF or CRLF line ends, blank lines, perhaps
    no final newline, perhaps a bad header, and a few fields swapped for bad
    ones, a field dropped or one added."""
    jobs = draw(st.integers(1, 3))
    qubits = draw(st.integers(1, 3))
    rows = [[f"j{j}", STAMPS[j % 2], str(q), "".join(draw(st.sampled_from("01"))
                                                     for _ in range(4))]
            for j in range(jobs) for q in range(qubits)]
    rows = draw(st.permutations(rows))
    for row in rows:
        if draw(st.booleans()):
            row[0] = f'"{row[0]}"'
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        column = min(draw(st.sampled_from([0, 1, 2, 3, 3, 3])), len(row) - 1)
        change = draw(st.sampled_from(["bad", "bad", "bad", "drop", "add"]))
        if change == "bad":
            row[column] = draw(st.sampled_from(BAD_FIELDS[JOB_HEADER[min(column, 3)]]))
        elif change == "drop":
            del row[column]
        else:
            row.insert(column, "0")
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    header = draw(st.sampled_from([JOB_HEADER] * 3 + [[*JOB_HEADER[:3], "0110"]]))
    lines = [",".join(header) + draw(ends)]
    for row in rows:
        lines += [draw(ends)] * draw(st.sampled_from([0, 0, 0, 1]))
        lines.append(",".join(row) + draw(ends))
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines).encode()


def file_example(data, block_bytes=ingest.BLOCK_BYTES):
    return example(data, 1, None, block_bytes)


@given(job_file_bytes(), st.sampled_from([1, 1, 2, 3, 9, 20, 21]),
       st.sampled_from([None, None, 0.5, 0.3, 0.0]), st.integers(1, 12))
@file_example(b"job_id,timestamp,qubit_id,bits\nj\"1,2019-05-09T11:24:27Z,0,0110\n")
@file_example(b'job_id,timestamp,qubit_id,bits\n"j1,2019-05-09T11:24:27Z,0,0110\n'
              b'j1",2019-05-09T11:24:27Z,0,0110\n')
@file_example(b'job_id,timestamp,qubit_id,bits\nj1,2019-05-09T11:24:27Z,0,0110\r"j\n'
              b'0,1\n2",2019-05-09T11:24:27Z,0,0110\n')
@file_example(b"job_id,timestamp,qubit_id,bits\rj1,2019-05-09T11:24:27Z,0,0110\r"
              b"j1,2019-05-09T11:24:27Z,1,0110")
@file_example(f"job_id,timestamp,qubit_id,bits\nj1,{STAMPS[0]},0,{'1' * LIMIT}\n"
              f"j1,{STAMPS[0]},1,{'1' * (LIMIT + 1)}\n".encode())
# Reads of 16 bytes: one ends at the CR of the first row's CRLF, the next
# starts at its LF.
@file_example(b"job_id,timestamp,qubit_id,bits\r\nj1,2019-05-09T11:24:27Z,0,01101\r\n"
              b"j1,2019-05-09T11:24:27Z,1,0110x\r\n", block_bytes=4)
# Reads of 16 bytes: one ends at the lone CR after the first row, the next
# starts at the second row's 'j'.
@file_example(b"job_id,timestamp,qubit_id,bits\rj1,2019-05-09T11:24:27Z,0,011010\r"
              b"j1,2019-05-09T11:24:27Z,1,01101x\r", block_bytes=4)
# Rows longer than one read: a job_id and a bit field each at the field limit.
@file_example("job_id,timestamp,qubit_id,bits\n".encode() + b"".join(
    f"{'j' * LIMIT},{STAMPS[0]},{q},{'1' * LIMIT}\n".encode() for q in range(2)))
@settings(max_examples=300, deadline=None)
def test_parse_jobs_matches_the_whole_row_parse(data, lag, fixed_bias, block_bytes):
    """The byte-line parser, counting blocks of ``block_bytes`` of packed
    rows, gives the matrix ``grid_matrix`` gives for the grid of the
    whole-row parse, field for field, or refuses the file alike."""
    params = TestParams(lag=lag, fixed_bias=fixed_bias)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "BLOCK_BYTES", block_bytes)
        tested = matrix_outcome(parse_jobs, io.BytesIO(data), params)
    assert tested == matrix_outcome(reference_test, io.BytesIO(data), params)


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_csv_reader_sees_only_the_text_before_a_plain_bit_field(monkeypatch, end):
    rows = job_rows(*((f"j{j}", TS.replace(minute=j), q, "0110" * 3)
                      for j in range(2) for q in range(3)))
    text = serialize_jobs_str(rows).replace("\n", end)
    seen = []
    real_reader = csv.reader

    def reader(lines, **kwargs):
        seen.clear()
        return real_reader((seen.append(line) or line for line in lines), **kwargs)

    monkeypatch.setattr(csv, "reader", reader)
    matrix = parse_jobs(io.BytesIO(text.encode()), PARAMS)
    assert seen == [text.splitlines(True)[0]] + [
        line[:line.rindex(",") + 1] + "\n" for line in text.splitlines(True)[1:]]
    assert matrix_fields(matrix) == matrix_fields(grid_matrix(rows, PARAMS))


# --------------------------------------------------------------- line ends

def written_lines(write, value):
    """The lines ``write`` writes for ``value``, as bytes without their ends."""
    buf = io.StringIO()
    write(value, buf)
    return buf.getvalue().encode().splitlines()


LINE_ENDS = {"lf": b"\n", "crlf": b"\r\n", "cr": b"\r"}
JOB_LINES = serialize_jobs_str(job_rows(
    ("j1", TS, 0, "01101001"), ("j1", TS, 1, "10010000"),
    ("j2", TS, 0, "00000000"), ("j2", TS, 1, "11110111"),
)).encode().splitlines()
RESULT_LINES = written_lines(write_results, parse_jobs(
    io.BytesIO(b"\n".join(JOB_LINES) + b"\n"), PARAMS))
CALIBRATION_LINES = written_lines(serialize_calibration, [
    CalibrationRecord(timestamp=TS, qubit_id=q, t1_us=50.25 + q) for q in range(3)])


@st.composite
def mutated_lines(draw, lines):
    """``lines`` (bytes, without their ends) with a few bytes replaced,
    inserted or dropped: bytes that are not UTF-8, quotes, commas, or
    plain characters, never a line end."""
    lines = [bytearray(line) for line in lines]
    for _ in range(draw(st.integers(1, 4))):
        line = draw(st.sampled_from(lines))
        pos = draw(st.integers(0, len(line)))
        byte = draw(st.sampled_from(b'\xff\x80\xc3"",,x0'))
        kind = draw(st.sampled_from(["replace", "insert", "drop"]))
        if kind == "insert" or pos == len(line):
            line.insert(pos, byte)
        elif kind == "replace":
            line[pos] = byte
        else:
            del line[pos]
    return [bytes(line) for line in lines]


def spans_a_line_end(lines):
    """Whether csv.reader, reading the LF form of the file up to its first
    error, meets a quoted field that holds a line end. Such a field holds a
    different character under each line end, so the readers may rightly
    treat it differently."""
    text = (b"\n".join(lines) + b"\n").decode(errors="surrogateescape")
    try:
        return any("\n" in field for row in csv.reader(io.StringIO(text, newline=""),
                                                        strict=True) for field in row)
    except csv.Error:
        return False


def read_outcome(reader, data):
    """What ``reader`` makes of the file, or the type, message and line of
    its refusal."""
    try:
        result = reader(io.BytesIO(data))
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return matrix_fields(result) if isinstance(result, PValueMatrix) else result


def assert_same_at_every_line_end(reader, lines):
    assume(not spans_a_line_end(lines))
    outcomes = {name: read_outcome(reader, b"".join(line + end for line in lines))
                for name, end in LINE_ENDS.items()}
    assert outcomes["crlf"] == outcomes["lf"]
    assert outcomes["cr"] == outcomes["lf"]


@given(mutated_lines(JOB_LINES))
@example([JOB_LINES[0], b"j1,notatime,0,01101001", b"j2,2019-05-09T11:24:27Z,0,01\xff01001"])
@settings(max_examples=300, deadline=None)
def test_parse_jobs_reads_every_line_end_alike(lines):
    """A job file gives the same matrix, or the same refusal at the same
    line, whether its lines end in LF, CRLF or a lone CR: a lone-CR file
    reports its faults in line order too."""
    assert_same_at_every_line_end(lambda stream: parse_jobs(stream, PARAMS), lines)


@pytest.mark.parametrize("reader, lines", [(read_results, RESULT_LINES),
                                           (parse_calibration, CALIBRATION_LINES)],
                         ids=["results", "calibration"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_results_and_calibration_read_every_line_end_alike(reader, lines, data):
    assert_same_at_every_line_end(reader, data.draw(mutated_lines(lines)))


# --------------------------------------------------------- over-long lines

def test_lines_cuts_a_line_not_ended_within_longest(monkeypatch):
    """A line not ended within ``longest`` bytes is cut after the read that
    passes them, and the file is read no further. A line that ended at a
    lone CR before it counts none of its bytes."""
    monkeypatch.setattr(ingest, "BLOCK_BYTES", 1)  # reads of 4 bytes
    stream = io.BytesIO(b"abc\r" + b"defg" * 4 + b"\nhij\n")
    assert list(ingest._lines(stream, 9)) == [b"abc\r", b"defg" * 3]
    assert stream.tell() == 16
    stream = io.BytesIO(b"abc\r" + b"defg" * 2 + b"\nhij\n")
    assert list(ingest._lines(stream, 9)) == [b"abc\r", b"defgdefg\n", b"hij\n"]


@pytest.fixture
def field_limit_32():
    old = csv.field_size_limit(32)
    yield
    csv.field_size_limit(old)


JOB_HEADER_LINE = b"job_id,timestamp,qubit_id,bits\n"
# A job row's longest line at a field limit of 32: 4 * (4 * 32 + 3) + 1 bytes.
TOO_LONG = "line 2: line longer than the 525 bytes a row can take"
FIELD_OVER_LIMIT = "line 2: unreadable CSV: field larger than field limit (32)"


@pytest.mark.parametrize("line, message", [
    (b"j1,2019-05-09T11:24:27Z,0," + b"0" * 10_000, FIELD_OVER_LIMIT),
    # The cut splits a 2-byte character, which is dropped.
    (("j" + "é" * 10_000).encode(), FIELD_OVER_LIMIT),
    (b"\xff" + b"0" * 10_000, "line 2: byte 0xff is not UTF-8 (invalid start byte)"),
    (b"," * 10_000, TOO_LONG),
    # The cut falls inside a quoted field, so csv.reader asks for the next line.
    (b"," * 520 + b'"' + b"x" * 10_000 + b'"', TOO_LONG),
    # Ended one byte past the longest line, in the read that passes it.
    (b"," * 525, TOO_LONG),
], ids=["field-over-limit", "cut-character", "not-utf8", "many-fields", "quoted", "ended"])
def test_a_line_longer_than_any_row_is_refused_at_its_line(monkeypatch, field_limit_32,
                                                           line, message):
    """A line longer than any job row can take is read no further than the
    read that passes that length, and refused at its line: with the fault
    csv.reader or the UTF-8 check finds in its start, else as too long."""
    monkeypatch.setattr(ingest, "BLOCK_BYTES", 4)  # reads of 16 bytes
    stream = io.BytesIO(JOB_HEADER_LINE + line + b"\nj2,2019-05-09T11:24:27Z,0,0110\n")
    with pytest.raises(ParseError) as err:
        parse_jobs(stream, PARAMS)
    assert (str(err.value), err.value.line) == (message, 2)
    assert stream.tell() <= len(JOB_HEADER_LINE) + 525 + 16


def test_a_header_longer_than_any_row_is_refused_as_too_long(field_limit_32):
    with pytest.raises(ParseError, match="^line 1: line longer than the 525 bytes a row can take$"):
        parse_jobs(io.BytesIO(b"," * 10_000), PARAMS)


@pytest.fixture
def field_limit_1024():
    old = csv.field_size_limit(1024)
    yield
    csv.field_size_limit(old)


@pytest.mark.parametrize("parse, header, longest", [
    # job_id and bits at the field limit, timestamp and qubit_id at 64
    # characters: 2 * (4 * 1024 + 3) + 2 * (4 * 64 + 3) + 1 bytes.
    (lambda stream: parse_jobs(stream, PARAMS), ingest.JOB_HEADER, 8717),
    # Only job_id at the limit: 4 * 1024 + 3 + 8 * (4 * 64 + 3) + 1.
    (read_results, ingest.RESULT_HEADER, 6172),
    # No field at the limit: 3 * (4 * 64 + 3) + 1.
    (parse_calibration, ingest.CALIBRATION_HEADER, 778),
], ids=["jobs", "results", "calibration"])
def test_the_longest_line_comes_from_the_header_fields(monkeypatch, field_limit_1024,
                                                       parse, header, longest):
    """Only a job_id and a job row's bits may reach the csv field limit;
    every other field is allowed 64 characters. A line past the longest row
    is read no further than the read that passes it, and refused at its line."""
    monkeypatch.setattr(ingest, "BLOCK_BYTES", 64)  # reads of 256 bytes
    head = (",".join(header) + "\n").encode()
    stream = io.BytesIO(head + b"," * 100_000 + b"\n")
    with pytest.raises(ParseError) as err:
        parse(stream)
    assert (str(err.value), err.value.line) == (
        f"line 2: line longer than the {longest} bytes a row can take", 2)
    assert stream.tell() <= len(head) + longest + 256
