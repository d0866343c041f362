"""Independent references and helpers the tests check the program against.

Not collected by pytest: test modules import these by name. Nothing here is
part of the program; ``tests/test_surface.py`` keeps such code out of
``src/``.
"""

import io

import numpy as np

from qrng_audit.autocorr import BitSequence, pair_mismatch_rate
from qrng_audit.ingest import serialize_jobs
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
    ``approximation_error``."""
    m = dist.n - dist.lag
    if not 0 <= observed <= m:
        raise ValueError(f"observed must be in [0, {m}], got {observed}")
    distances = np.abs(dist.support - dist.mean())
    # Tiny slack so the mirror point k = 2*mean - observed is kept when the
    # mean itself carries float rounding (bias != 1/2).
    mask = distances >= distances[observed] - 1e-9
    return float(np.sum(dist.pmf[mask]))


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
