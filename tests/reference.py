"""Independent references and helpers the tests check the program against.

Not collected by pytest: test modules import these by name. Nothing here is
part of the program; ``tests/test_surface.py`` keeps such code out of
``src/``.
"""

import csv
import io

import numpy as np

from qrng_audit.autocorr import (BitSequence, PValueMatrix, check_lag, packed_counts,
                                 pair_mismatch_rate)
from qrng_audit.ingest import (
    JOB_HEADER,
    JobRows,
    ParseError,
    _check_job_id,
    _grid_order,
    _parse_qubit_id,
    _parse_timestamp,
    serialize_jobs,
)
from qrng_audit.simulate import DeviceRunConfig, _chain_bits, device_run_blocks


# ------------------------------------------------------------ exact oracle

def as_dict(dist):
    """The pmf of an ExactDistribution as {statistic: mass}."""
    return dict(enumerate(dist.pmf))


def variance(dist):
    """Variance of an ExactDistribution, summed over its pmf."""
    d = np.arange(len(dist.pmf)) - dist.mean()
    return float(np.dot(d * d, dist.pmf))


def exact_two_sided_p(dist, observed):
    """Total pmf mass at least as far from the exact mean as ``observed``:
    one point at a time, the check on the vectorized tail sums of
    ``ExactDistribution.two_sided_p``."""
    m = dist.n - dist.lag
    if not 0 <= observed <= m:
        raise ValueError(f"observed must be in [0, {m}], got {observed}")
    pmf = np.array(dist.pmf)
    distances = np.abs(np.arange(pmf.size) - dist.mean())
    # Tiny slack so the mirror point k = 2*mean - observed is kept when the
    # mean itself carries float rounding (bias != 1/2).
    mask = distances >= distances[observed] - 1e-9
    return float(np.sum(pmf[mask]))


def joined_table(blocks):
    """The statistic, exact_p, approx_p and difference columns of an
    ``approximation_error`` table, each joined from its blocks."""
    return tuple(np.concatenate(column) for column in zip(*blocks))


def enumerate_joint_counts(n, lag):
    """Exact int64 counts of the length-n sequences by (statistic, ones),
    from every one of the 2^n sequences as a uint32, 16384 at a time: the
    brute-force check on ``oracle._joint_counts``."""
    check_lag(n, lag)
    m = n - lag
    pair_mask = np.uint32((1 << m) - 1)
    joint = np.zeros((m + 1) * (n + 1), dtype=np.int64)
    step = 1 << 14
    for lo in range(0, 1 << n, step):
        block = np.arange(lo, min(lo + step, 1 << n), dtype=np.uint32)
        ones = np.bitwise_count(block)
        stat = np.bitwise_count((block ^ (block >> np.uint32(lag))) & pair_mask)
        joint += np.bincount(
            stat.astype(np.int64) * (n + 1) + ones, minlength=joint.size
        )
    return joint.reshape(m + 1, n + 1)


def xor_count_mean(n, lag, bias):
    """Exact mean q(n-lag) of the statistic, q = 2p(1-p); holds for every lag."""
    return pair_mismatch_rate(bias) * (n - lag)


def xor_count_variance_lag1(n, bias):
    """Exact lag-1 variance (n-1)q(1-q) + 2(n-2)(p(1-p) - q^2).

    The covariance term comes from adjacent XOR pairs sharing a bit; it
    vanishes at p = 1/2, where the plug-in variance (n-1)q(1-q) is exact.
    """
    q = pair_mismatch_rate(bias)
    return (n - 1) * q * (1.0 - q) + 2.0 * (n - 2) * (bias * (1.0 - bias) - q * q)


# ------------------------------------------------------------ test kernel

def autocorr_counts(bits: np.ndarray, lag: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row XOR count (as ``autocorr_statistic``) and ones count of a
    (rows, n) block of bits, both int64."""
    check_lag(bits.shape[1], lag)
    statistic = (bits[:, :-lag] ^ bits[:, lag:]).sum(axis=1, dtype=np.int64)
    return statistic, bits.sum(axis=1, dtype=np.int64)


# ---------------------------------------------------------- single streams

def _mix64(z):
    """SplitMix64 finalizer on a Python int."""
    mask = (1 << 64) - 1
    z = (z + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def derive_substream_seed(master_seed, *indices):
    """The 64-bit seed of substream (master, indices...), one index at a
    time in Python ints: the scalar check on ``simulate._seed_grid``."""
    h = _mix64(master_seed & ((1 << 64) - 1))
    for index in indices:
        h = _mix64(h ^ (index & ((1 << 64) - 1)))
    return h


def stream_seed(master_seed, job_index, qubit_id):
    """The seed of a run's (job, qubit) stream: the stream is
    ``np.random.default_rng(stream_seed(master_seed, job, qubit))``'s draws."""
    return derive_substream_seed(master_seed, 0, job_index, qubit_id)


def markov_source(bias, rho, n, seed):
    """One stream of the two-state chain, as the simulator draws each of a
    run's streams (see ``simulate._chain_bits``), from numpy's own seeding
    of ``seed``."""
    DeviceRunConfig(bias=bias, rho=rho)  # refuses what the simulator refuses
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return BitSequence(_chain_bits(bias, rho, n, np.random.default_rng(seed)))


def ideal_source(bias, n, seed):
    """n i.i.d. Bernoulli(bias) bits from a deterministic seeded generator."""
    return markov_source(bias, 0.0, n, seed)


# -------------------------------------------------------------- job files

def serialize_jobs_str(rows):
    """``serialize_jobs`` into a string."""
    buf = io.BytesIO()
    serialize_jobs(rows, buf)
    return buf.getvalue().decode()


def rows_from_bits(job_ids, timestamps, qubit_ids, bits):
    """``JobRows`` from its streams as a (rows, n) uint8 matrix of 0/1 bits,
    packed as ``JobRows`` holds them."""
    bits = np.asarray(bits, dtype=np.uint8)
    return JobRows(job_ids, timestamps, qubit_ids, np.packbits(bits, axis=-1), bits.shape[-1])


def whole_run(config):
    """The whole run as one ``JobRows`` grid: the blocks of
    ``device_run_blocks``, each copied out of the reused buffer, joined."""
    blocks = [(b.job_ids, b.timestamps, b.bits.copy()) for b in device_run_blocks(config)]
    job_ids, stamps, bits = zip(*blocks)
    return JobRows(sum(job_ids, ()), sum(stamps, ()), tuple(range(config.qubit_count)),
                   np.concatenate(bits), config.bits_per_job)


def grid_matrix(rows, params):
    """The p-value matrix of a ``JobRows`` grid: the counts of all its rows
    at once, already in grid order, placed by ``PValueMatrix.from_counts``."""
    counts = [packed_counts(rows.bits, rows.n, params.lag)]
    return PValueMatrix.from_counts(rows.job_ids, rows.qubit_ids, rows.n, counts, params)


def matrix_fields(matrix):
    """Every field of a p-value matrix, the arrays as dtype, shape and bytes."""
    arrays = (matrix.statistic, matrix.bias, matrix.normalized, matrix.p_value)
    return (matrix.job_ids, matrix.qubit_ids, matrix.n, matrix.lag, matrix.alpha,
            *((a.dtype, a.shape, a.tobytes()) for a in arrays))


def bits_of(rows):
    """The streams of a ``JobRows`` as a (rows, n) matrix of 0/1 bits."""
    return np.unpackbits(rows.bits, axis=1, count=rows.n)


def whole_row_parse_jobs(stream):
    """A job CSV, given as ``parse_jobs`` takes it (bytes, a line at a
    time), as its ``JobRows`` grid: csv.reader reads every row of the text
    whole, bit field included, as from the file opened with newline="".
    ``parse_jobs(stream, params)`` must equal ``grid_matrix`` of this grid,
    field for field and error for error."""
    declared = None
    stamps = {}
    streams = {}
    buffer = bytearray()
    text = io.StringIO(b"".join(stream).decode(), newline="")
    for line, (job_id, ts_text, qubit_text, bits_text) in _whole_rows(text, JOB_HEADER):
        timestamp = _parse_timestamp(ts_text, line)
        qubit = _parse_qubit_id(qubit_text, line)
        _check_job_id(job_id, line)
        if (job_id, qubit) in streams:
            raise ParseError(f"duplicate stream for job {job_id!r} qubit {qubit}", line)
        streams[job_id, qubit] = None
        if stamps.setdefault(job_id, timestamp) != timestamp:
            raise ParseError(f"job {job_id!r} has conflicting timestamps", line)
        if not bits_text:
            raise ParseError("empty bit string", line)
        row = np.frombuffer(bits_text.encode(), dtype=np.uint8) ^ ord("0")
        if row.max() > 1:
            bad = min(set(bits_text) - {"0", "1"})
            raise ParseError(f"bit string contains non-bit character {bad!r}", line)
        if declared is None:
            declared = len(bits_text)
        elif len(bits_text) != declared:
            raise ParseError(
                f"bit string length {len(bits_text)} does not match declared {declared}",
                line,
            )
        buffer += np.packbits(row).tobytes()

    n = declared or 0
    job_ids = tuple(sorted(stamps, key=lambda job: (stamps[job], job)))
    qubit_ids, order = _grid_order(streams, job_ids)
    bits = np.frombuffer(buffer, dtype=np.uint8).reshape(len(streams), -(-n // 8))
    return JobRows(job_ids, tuple(stamps[job] for job in job_ids), qubit_ids, bits[order], n)


def _whole_rows(stream, header):
    """(line, fields) of each non-blank data row of a text stream, with the
    header, field count and csv.Error handling of ``ingest._rows``."""
    reader = csv.reader(stream, strict=True)
    try:
        first = next(reader, None)
        if first != header:
            raise ParseError(
                f"expected header {','.join(header)!r}, got "
                f"{','.join(first) if first else '<empty file>'!r}",
                line=1,
            )
        for fields in reader:
            if not fields:
                continue
            if len(fields) != len(header):
                raise ParseError(
                    f"expected {len(header)} fields, got {len(fields)}", reader.line_num
                )
            yield reader.line_num, fields
    except csv.Error as exc:
        raise ParseError(f"unreadable CSV: {exc}", reader.line_num) from None
