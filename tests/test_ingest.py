"""CSV parsing and serialization: round trips, line-numbered rejections, fuzz."""

import io
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrng_audit.autocorr import BitSequence, PValueMatrix
from qrng_audit.ingest import (
    CalibrationRecord,
    JobRecord,
    ParseError,
    parse_calibration,
    parse_jobs,
    read_results,
    serialize_calibration,
    serialize_jobs_str,
    write_results,
)

TS = datetime(2019, 5, 9, 11, 24, 27, tzinfo=timezone.utc)


def job_file(*rows, header="job_id,timestamp,qubit_id,bits"):
    return io.StringIO("\n".join([header, *rows]) + "\n")


# -------------------------------------------------------------------- jobs

def test_parse_single_row():
    records = parse_jobs(job_file("j1,2019-05-09T11:24:27Z,0,0110"))
    assert len(records) == 1
    job = records[0]
    assert job.job_id == "j1"
    assert job.timestamp == TS
    assert job.qubit_ids == (0,)
    assert job.stream(0) == BitSequence.from_string("0110")


def test_parse_groups_rows_into_jobs():
    records = parse_jobs(job_file(
        "j1,2019-05-09T11:24:27Z,1,01",
        "j1,2019-05-09T11:24:27Z,0,11",
        "j2,2019-05-09T11:33:10Z,0,10",
        "j2,2019-05-09T11:33:10Z,1,00",
    ))
    assert [r.job_id for r in records] == ["j1", "j2"]
    assert records[0].qubit_ids == (0, 1)  # sorted ascending within the job


def test_parse_bad_bit_names_line():
    with pytest.raises(ParseError) as err:
        parse_jobs(job_file("j1,2019-05-09T11:24:27Z,0,01a0"))
    assert err.value.line == 2
    assert "non-bit" in str(err.value)


def test_parse_length_mismatch():
    with pytest.raises(ParseError) as err:
        parse_jobs(job_file(
            "j1,2019-05-09T11:24:27Z,0,0110",
            "j1,2019-05-09T11:24:27Z,1,011",
        ))
    assert err.value.line == 3


def test_parse_expected_bits_override():
    with pytest.raises(ParseError):
        parse_jobs(job_file("j1,2019-05-09T11:24:27Z,0,0110"), expected_bits=8)


def test_parse_duplicate_stream():
    with pytest.raises(ParseError) as err:
        parse_jobs(job_file(
            "j1,2019-05-09T11:24:27Z,0,01",
            "j1,2019-05-09T11:24:27Z,0,10",
        ))
    assert "duplicate" in str(err.value)


def test_parse_conflicting_job_timestamps():
    with pytest.raises(ParseError):
        parse_jobs(job_file(
            "j1,2019-05-09T11:24:27Z,0,01",
            "j1,2019-05-09T12:00:00Z,1,10",
        ))


def test_parse_rejects_wrong_header():
    with pytest.raises(ParseError) as err:
        parse_jobs(io.StringIO("a,b,c\nj1,2019-05-09T11:24:27Z,0,01\n"))
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
    ],
)
def test_parse_structured_rejections(row):
    with pytest.raises(ParseError) as err:
        parse_jobs(job_file(row))
    assert err.value.line == 2


def test_serialize_canonical_order():
    record = JobRecord(
        job_id="j1", timestamp=TS,
        streams=((1, BitSequence.from_string("01")), (0, BitSequence.from_string("11"))),
    )
    text = serialize_jobs_str([record])
    assert text.splitlines() == [
        "job_id,timestamp,qubit_id,bits",
        "j1,2019-05-09T11:24:27Z,0,11",
        "j1,2019-05-09T11:24:27Z,1,01",
    ]


def test_serialize_empty_is_header_only():
    assert serialize_jobs_str([]) == "job_id,timestamp,qubit_id,bits\n"


def test_serialize_twenty_qubits_twenty_rows():
    record = JobRecord(
        job_id="j1", timestamp=TS,
        streams=tuple((q, BitSequence.from_string("0101")) for q in range(20)),
    )
    assert len(serialize_jobs_str([record]).splitlines()) == 21


job_ids = st.text(alphabet="abcdefghij0123456789-", min_size=1, max_size=8)
timestamps = st.integers(0, 2**31 - 1).map(
    lambda s: datetime.fromtimestamp(s, tz=timezone.utc)
)


@st.composite
def job_records(draw, bits_len):
    n_qubits = draw(st.integers(1, 4))
    return JobRecord(
        job_id=draw(job_ids),
        timestamp=draw(timestamps),
        streams=tuple(
            (q, BitSequence(draw(st.lists(st.integers(0, 1),
                                          min_size=bits_len, max_size=bits_len))))
            for q in range(n_qubits)
        ),
    )


@st.composite
def job_corpora(draw):
    bits_len = draw(st.integers(1, 16))
    n_jobs = draw(st.integers(0, 5))
    records = []
    seen = set()
    for _ in range(n_jobs):
        record = draw(job_records(bits_len))
        if record.job_id in seen:
            continue
        seen.add(record.job_id)
        records.append(record)
    return records


@given(job_corpora())
@settings(max_examples=60, deadline=None)
def test_job_round_trip_identity(records):
    """serialize(parse(F)) is byte-identical to canonical F."""
    text = serialize_jobs_str(records)
    parsed = parse_jobs(io.StringIO(text)) if records else []
    assert parsed == records or not records
    assert serialize_jobs_str(parsed) == text


# ------------------------------------------------------------- calibration

def test_parse_calibration_row():
    records, dups = parse_calibration(io.StringIO(
        "timestamp,qubit_id,t1_us\n2019-05-09T12:00:00Z,0,71.5\n"
    ))
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
            parse_calibration(io.StringIO(
                f"timestamp,qubit_id,t1_us\n2019-05-09T12:00:00Z,0,{bad}\n"
            ))


def test_parse_calibration_duplicate_last_wins():
    records, dups = parse_calibration(io.StringIO(
        "timestamp,qubit_id,t1_us\n"
        "2019-05-09T12:00:00Z,0,71.5\n"
        "2019-05-09T12:00:00Z,1,60.0\n"
        "2019-05-09T12:00:00Z,0,72.5\n"
    ))
    assert dups == 1
    assert [r.t1_us for r in records if r.qubit_id == 0] == [72.5]


def test_calibration_round_trip():
    records = [
        CalibrationRecord(timestamp=TS, qubit_id=q, t1_us=50.0 + q) for q in range(3)
    ]
    buf = io.StringIO()
    serialize_calibration(records, buf)
    parsed, dups = parse_calibration(io.StringIO(buf.getvalue()))
    assert dups == 0
    assert parsed == records


# ----------------------------------------------------------------- results

def test_results_round_trip():
    matrix = PValueMatrix(
        job_ids=("j1",), qubit_ids=(0, 1), n=8, lag=1, alpha=0.01,
        statistic=np.array([[3, 0]]), bias=np.array([[0.5, 1.0]]),
        normalized=np.array([[-0.3779644730092272, np.nan]]),
        p_value=np.array([[0.705456536697442, np.nan]]),
    )
    buf = io.StringIO()
    write_results(matrix, buf)
    assert buf.getvalue().splitlines() == [
        "job_id,qubit_id,n,lag,bias,statistic,normalized,p_value,verdict",
        "j1,0,8,1,0.5,3,-0.3779644730092272,0.705456536697442,pass",
        "j1,1,8,1,1.0,0,,,degenerate",
    ]
    parsed = read_results(io.StringIO(buf.getvalue()))
    assert (parsed.job_id, parsed.qubit_id, parsed.n, parsed.lag) == (
        ["j1", "j1"], [0, 1], 8, 1)
    for field in ("statistic", "bias", "normalized", "p_value"):
        assert np.array_equal(getattr(parsed, field), getattr(matrix, field).ravel(),
                              equal_nan=True), field


def test_read_results_rejects_bad_verdict():
    with pytest.raises(ParseError):
        read_results(io.StringIO(
            "job_id,qubit_id,n,lag,bias,statistic,normalized,p_value,verdict\n"
            "j1,0,8,1,0.5,3,0.1,0.9,maybe\n"
        ))


# ------------------------------------------------------------------ packed

def test_pack_bits_layout():
    from qrng_audit.ingest import pack_bits, unpack_bits

    data = pack_bits(BitSequence.from_string("10000000"))
    assert data == (8).to_bytes(8, "big") + b"\x80"  # MSB first
    seq, rest = unpack_bits(data)
    assert seq == BitSequence.from_string("10000000")
    assert rest == b""


def test_pack_bits_concatenated_streams():
    from qrng_audit.ingest import pack_bits, unpack_bits

    first = BitSequence.from_string("101")
    second = BitSequence.from_string("0110011")
    blob = pack_bits(first) + pack_bits(second)
    got_first, rest = unpack_bits(blob)
    got_second, tail = unpack_bits(rest)
    assert (got_first, got_second, tail) == (first, second, b"")


@given(st.lists(st.integers(0, 1), min_size=1, max_size=100))
def test_pack_bits_round_trip(bits):
    from qrng_audit.ingest import pack_bits, unpack_bits

    seq = BitSequence(bits)
    got, rest = unpack_bits(pack_bits(seq))
    assert got == seq and rest == b""


def test_unpack_bits_truncation_errors():
    from qrng_audit.ingest import pack_bits, unpack_bits

    blob = pack_bits(BitSequence.from_string("10101010101"))
    with pytest.raises(ParseError):
        unpack_bits(blob[:4])
    with pytest.raises(ParseError):
        unpack_bits(blob[:-1])


# -------------------------------------------------------------------- fuzz

@given(st.data())
@settings(max_examples=200, deadline=None)
def test_fuzzed_job_files_never_crash(data):
    """Arbitrary mutations either parse or raise ParseError, never crash."""
    base = serialize_jobs_str([
        JobRecord(job_id="j1", timestamp=TS,
                  streams=((0, BitSequence.from_string("0110")),
                           (1, BitSequence.from_string("1001")))),
        JobRecord(job_id="j2", timestamp=TS,
                  streams=((0, BitSequence.from_string("0000")),
                           (1, BitSequence.from_string("1111")))),
    ])
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
        parse_jobs(io.StringIO("".join(text)))
    except ParseError:
        pass
