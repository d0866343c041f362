"""Independent references and helpers the tests check the program against.

Not collected by pytest: test modules import these by name. Nothing here is
part of the program; ``tests/test_surface.py`` keeps such code out of
``src/``.
"""

import io

import numpy as np

from qrng_audit.autocorr import BitSequence, check_lag, pair_mismatch_rate
from qrng_audit.ingest import JobRows, serialize_jobs
from qrng_audit.simulate import DeviceRunConfig, _chain_bits


# ------------------------------------------------------------ exact oracle

def as_dict(dist):
    """The pmf of an ExactDistribution as {statistic: mass}."""
    return {int(k): float(p) for k, p in zip(dist.support, dist.pmf)}


def variance(dist):
    """Variance of an ExactDistribution, summed over its pmf."""
    d = dist.support - dist.mean()
    return float(np.dot(d * d, dist.pmf))


def exact_two_sided_p(dist, observed):
    """Total pmf mass at least as far from the exact mean as ``observed``:
    one point at a time, the check on the vectorized tail sums of
    ``ExactDistribution.two_sided_p``."""
    m = dist.n - dist.lag
    if not 0 <= observed <= m:
        raise ValueError(f"observed must be in [0, {m}], got {observed}")
    distances = np.abs(dist.support - dist.mean())
    # Tiny slack so the mirror point k = 2*mean - observed is kept when the
    # mean itself carries float rounding (bias != 1/2).
    mask = distances >= distances[observed] - 1e-9
    return float(np.sum(dist.pmf[mask]))


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

def markov_source(bias, rho, n, seed):
    """One stream of the two-state chain, as the simulator draws each of a
    run's streams (see ``simulate._chain_bits``)."""
    DeviceRunConfig(bias=bias, rho=rho)  # refuses what the simulator refuses
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return BitSequence(_chain_bits(bias, rho, n, seed))


def ideal_source(bias, n, seed):
    """n i.i.d. Bernoulli(bias) bits from a deterministic seeded generator."""
    return markov_source(bias, 0.0, n, seed)


# -------------------------------------------------------------- job files

def serialize_jobs_str(rows):
    """``serialize_jobs`` into a string."""
    buf = io.StringIO()
    serialize_jobs(rows, buf)
    return buf.getvalue()


def rows_from_bits(job_ids, timestamps, qubit_ids, bits):
    """``JobRows`` from its streams as a (rows, n) matrix of 0/1 bits, packed
    as ``JobRows`` holds them. An array of any dtype but uint8 is passed on
    as given, for the constructor to refuse."""
    bits = np.asarray(bits)
    packed = np.packbits(bits, axis=-1) if bits.dtype == np.uint8 else bits
    return JobRows(job_ids, timestamps, qubit_ids, packed, bits.shape[-1])


def bits_of(rows):
    """The streams of a ``JobRows`` as a (rows, n) matrix of 0/1 bits."""
    return np.unpackbits(rows.bits, axis=1, count=rows.n)
