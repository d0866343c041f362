"""The test's scalar standardization, in plain Python floats, and the
longest stream a job file holds, which bounds every command's n.

``autocorr`` re-exports the names the test uses, so the test and its
callers read them from there. The ``oracle`` command imports this module
and ``oracle`` alone: it loads no numpy.
"""

from __future__ import annotations

import csv
import math

# Smallest positive double; p-values are clamped here so they stay in (0, 1]
# even when erfc underflows for astronomically extreme statistics.
_TINY = 5e-324
_SQRT2 = math.sqrt(2.0)


def check_lag(n: int, lag: int) -> None:
    """Refuse a lag that leaves no bit pair in a stream of n bits."""
    if not 1 <= lag < n:
        raise ValueError(f"lag must satisfy 1 <= lag < n={n}, got {lag}")


def check_stream_length(n: int) -> None:
    """Refuse streams longer than the csv module's field limit: no parser reads them."""
    if n > (limit := csv.field_size_limit()):
        raise ValueError(f"{n}-bit streams exceed the job CSV field limit of {limit} characters")


def pair_mismatch_rate(bias: float) -> float:
    """Probability 2p(1-p) that two independent bits with ones-probability p differ."""
    return 2.0 * bias * (1.0 - bias)


def standardization(n: int, lag: int, bias: float) -> tuple[float, float]:
    """The XOR count's center q(n-lag) and scale sqrt((n-lag) q (1-q)): its
    standardized value is (A - center) / scale."""
    if not 0.0 <= bias <= 1.0:
        raise ValueError(f"bias must be in [0, 1], got {bias}")
    check_lag(n, lag)
    m = n - lag
    q = pair_mismatch_rate(bias)
    variance = m * q * (1.0 - q)
    if variance <= 0.0:
        raise ValueError(f"zero variance at bias {bias}")
    return q * m, math.sqrt(variance)


def normalize_statistic(
    statistic: float | np.ndarray, n: int, lag: int, bias: float
) -> float | np.ndarray:
    """Standardize the XOR count: (A - q(n-lag)) / sqrt((n-lag) q (1-q)).

    ``statistic`` may be an array of XOR counts, standardized elementwise
    with the same operations."""
    center, scale = standardization(n, lag, bias)
    return (statistic - center) / scale


def p_value(normalized: float) -> float:
    """Two-sided p-value erfc(|A'| / sqrt(2)) of a standardized statistic."""
    normalized = float(normalized)
    if not math.isfinite(normalized):
        raise ValueError(f"normalized statistic must be finite, got {normalized!r}")
    return max(math.erfc(abs(normalized) / _SQRT2), _TINY)
