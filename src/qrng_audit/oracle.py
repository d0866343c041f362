"""Exact null distributions of the XOR-count statistic.

Ground truth for the normal approximation used by the main test. Two routes:

* the exact count of length-n sequences in each (statistic, ones) cell
  (n <= 53), each cell weighted by ``p^ones * (1-p)^(n-ones)``, valid for
  any bias;
* the closed-form Binomial(n-lag, 1/2) that the statistic follows exactly at
  p = 1/2 (the lag-differenced fair i.i.d. sequence is itself i.i.d. fair).

The counts come from one walk over the bits, each residue class i mod lag
in turn, since the classes are independent lag-1 chains (at lag 1 these
are the runs counts of Wald & Wolfowitz, 1940). The walk keeps the counts
of the prefixes so far by (mismatched pairs, ones, last bit): n steps of
O(n^2) integer additions instead of 2^n sequences. Float weights are applied
only to the <= (n+1)^2 exact integer cells, and every count is below 2^53,
so at p = 1/2 the pmf is exact to the last bit.

The binomial route walks out from the mode k = m // 2 in fixed point:
C(m, k) / 2^m is held as an integer scaled by 2^1200 and rounded down, and
the count of floors taken bounds how far below the exact value it lies. When
both ends of that bracket round to the same double, that double is the
correctly rounded value; otherwise the entry
falls back to the exact big-integer quotient. Each value is stored at k and
at its mirror m - k. C(m, k) falls monotonically away from the mode, so the
walk stops at the first value that rounds to 0.0 and every entry beyond it
stays 0.0. The pmf is bit for bit the full exact recurrence from k = 0. Each
support entry costs a few operations on 1200-bit integers whatever m is,
and only the non-zero support is visited (about 13900 of the 131073 entries
at m = 131072).

``ExactDistribution.two_sided_p`` sums every exact two-sided tail in one
array pass, whichever route built the pmf, over the pmf's non-zero window
only: beyond it every tail is 0.0. ``approximation_error`` sets those tails
against the normal-approximation p-values, standardized and ``erfc``'d one
block of rows at a time as the table is read. The ``oracle`` command's
working memory is thus the non-zero window (about 77 sd wide: 13906 of the
131072 entries at n = 131072) plus one block, and its peak RSS is about
2.1 MiB above ``--help`` (31.6 against 29.5 MiB) at n = 131072.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .autocorr import BLOCK_BYTES, check_lag, normalize_statistic, p_values

# Each (statistic, ones) count is below 2^n. Up to n = 53, the doubles'
# significand width, every count converts to a double exactly, so at p = 1/2
# each int(count) * 2^-n is exact and fsum rounds each pmf entry once.
ENUMERATION_MAX_N = sys.float_info.mant_dig
# Fraction bits of the binomial walk: above the 1075 bits that reach the
# smallest subnormal, with ample room for the floors' slack.
_FIXED_POINT_BITS = 1200
# Mode factors multiplied together per floor division.
_MODE_CHUNK = 64


class EnumerationLimitError(ValueError):
    """Sequence length too large for exhaustive enumeration."""


@dataclass(frozen=True)
class ExactDistribution:
    """Exact pmf of the XOR-count statistic on its support 0..n-lag."""

    n: int
    lag: int
    bias: float
    pmf: np.ndarray = field(repr=False)
    # First and last statistic value of non-zero mass.
    _nonzero: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = self.n - self.lag
        if self.pmf.shape != (m + 1,):
            raise ValueError(f"pmf must cover 0..{m}, got shape {self.pmf.shape}")
        if not np.all(np.isfinite(self.pmf)):
            raise ValueError("pmf has non-finite mass")
        if np.any(self.pmf < 0.0):
            raise ValueError("pmf has negative mass")
        # Zeros, most of a long pmf, add nothing to the correctly rounded sum.
        nonzero = np.flatnonzero(self.pmf)
        total = math.fsum(self.pmf[nonzero].tolist())
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"pmf mass {total!r} deviates from 1 by more than 1e-12")
        object.__setattr__(self, "_nonzero", (int(nonzero[0]), int(nonzero[-1])))
        # Read-only through this distribution; the caller's array stays writable.
        pmf = self.pmf.view()
        pmf.setflags(write=False)
        object.__setattr__(self, "pmf", pmf)

    @property
    def support(self) -> np.ndarray:
        return np.arange(self.n - self.lag + 1)

    def mean(self) -> float:
        first, last = self._nonzero
        return float(np.dot(np.arange(first, last + 1), self.pmf[first:last + 1]))

    def two_sided_p(self) -> np.ndarray:
        """Exact two-sided p-value of every statistic value, from one cumsum in
        order of falling distance from the mean (small tails summed first).

        Only the window of statistic values no farther from the mean than
        the farthest non-zero entry plus one is summed. Every value outside
        it is farther from the mean than every non-zero entry, so its tail is
        exactly 0.0; the margin of one keeps inside the window each value
        that ties with a non-zero entry at its edge."""
        m = self.n - self.lag
        first, last = self._nonzero
        mean = self.mean()
        reach = max(mean - first, last - mean) + 1.0
        lo, hi = max(0, math.ceil(mean - reach)), min(m, math.floor(mean + reach))
        distances = np.abs(np.arange(lo, hi + 1) - mean)
        order = np.argsort(-distances, kind="stable")
        tail = np.cumsum(self.pmf[lo:hi + 1][order])
        # k and its mirror about the mean share the pair's tail. Distances on
        # one side of the mean are 1 apart, so a tie is at most a pair.
        sorted_d = distances[order]
        tied = sorted_d[1:] >= sorted_d[:-1] - 1e-9
        tail[:-1][tied] = tail[1:][tied]
        # Pages of the zeros outside the window are never written.
        p = np.zeros(m + 1)
        p[lo:hi + 1][order] = tail
        return p


def _joint_counts(n: int, lag: int) -> np.ndarray:
    """Exact int64 counts of the length-n sequences by (statistic, ones).

    The bits are walked class by class (positions c, c + lag, c + 2 lag, ...),
    so each bit pairs with the one before it in the walk unless it opens its
    class. ``zero[s, k]`` and ``one[s, k]`` count the prefixes so far with s
    mismatched pairs and k ones, split by their last bit. No prefix reaches
    s = n - lag or k = n before the last bit, so what ``np.roll`` wraps
    round is always zero.
    """
    zero = np.zeros((n - lag + 1, n + 1), dtype=np.int64)
    one = np.zeros_like(zero)
    zero[0, 0] = 1
    for c in range(lag):
        zero, one = zero + one, np.roll(zero + one, 1, axis=1)
        for _ in range(c + lag, n, lag):
            zero, one = (zero + np.roll(one, 1, axis=0),
                         np.roll(one + np.roll(zero, 1, axis=0), 1, axis=1))
    return zero + one


def exact_distribution_enumerate(n: int, lag: int, bias: float) -> ExactDistribution:
    """Exact pmf from the (statistic, ones) counts of all 2^n sequences
    (n <= ENUMERATION_MAX_N), any bias."""
    check_lag(n, lag)
    if n > ENUMERATION_MAX_N:
        raise EnumerationLimitError(
            f"enumeration is limited to n <= {ENUMERATION_MAX_N}, got {n}"
        )
    if not 0.0 <= bias <= 1.0:
        raise ValueError(f"bias must be in [0, 1], got {bias}")

    m = n - lag
    counts = _joint_counts(n, lag)

    weight_by_ones = [bias**c * (1.0 - bias) ** (n - c) for c in range(n + 1)]
    pmf = np.array(
        [
            math.fsum(int(counts[a, c]) * weight_by_ones[c] for c in range(n + 1))
            for a in range(m + 1)
        ]
    )
    return ExactDistribution(n=n, lag=lag, bias=bias, pmf=pmf)


def exact_distribution_binomial(n: int, lag: int) -> ExactDistribution:
    """Binomial(n-lag, 1/2) pmf; the exact law of the statistic at bias 1/2."""
    check_lag(n, lag)
    m = n - lag
    pmf = np.zeros(m + 1)
    # f is C(m, k) / 2^m scaled by 2^_FIXED_POINT_BITS and rounded down, and
    # slack counts the floors taken. Every factor is at most 1, so each floor
    # lowers f by less than one unit: the exact value lies in
    # [f, f + slack] / scale.
    scale = 1 << _FIXED_POINT_BITS
    f, slack = scale, 0
    h = m // 2
    # Mode: C(2h, h) / 4^h = prod (2i - 1) / (2i), times m / (m + 1) if m is odd.
    for lo in range(1, h + 1, _MODE_CHUNK):
        hi = min(lo + _MODE_CHUNK, h + 1)
        odd = math.prod(range(2 * lo - 1, 2 * hi - 1, 2))
        f, slack = f * odd // math.prod(range(2 * lo, 2 * hi, 2)), slack + 1
    if m % 2:
        f, slack = f * m // (m + 1), slack + 1
    for k in range(h, -1, -1):
        # Int/int true division rounds correctly and monotonically, so when
        # both ends of the bracket round alike that double is exact.
        value = f / scale
        if value != (f + slack) / scale:
            value = math.comb(m, k) / (1 << m)
        if value == 0.0:
            break
        pmf[k] = pmf[m - k] = value
        # C(m, k-1) = C(m, k) k / (m-k+1)
        f, slack = f * k // (m - k + 1), slack + 1
    return ExactDistribution(n=n, lag=lag, bias=0.5, pmf=pmf)


@dataclass(frozen=True)
class ApproximationRow:
    statistic: int
    exact_p: float
    approx_p: float
    difference: float


_TABLE_ROWS = BLOCK_BYTES // 24  # three float64 columns per row


@dataclass(frozen=True, eq=False)
class ApproximationTable:
    """Exact vs normal-approximation two-sided p-values, one row per
    statistic value in ``k_range`` (both ends included).

    ``columns(lo, hi)`` gives the ``exact_p`` and ``approx_p`` (float64) of
    the statistic values lo..hi-1. The table has two views: ``blocks``
    yields it a block of rows at a time as (statistic values, exact_p,
    approx_p, difference), with ``difference`` = exact_p - approx_p, and
    ``rows`` holds those same blocks as one ``ApproximationRow`` of Python
    scalars per row."""

    n: int
    lag: int
    bias: float
    k_range: tuple[int, int]
    columns: Callable[[int, int], tuple[np.ndarray, np.ndarray]] = field(repr=False)

    def blocks(self) -> Iterator[tuple[range, np.ndarray, np.ndarray, np.ndarray]]:
        k_lo, k_hi = self.k_range
        for lo in range(k_lo, k_hi + 1, _TABLE_ROWS):
            hi = min(lo + _TABLE_ROWS, k_hi + 1)
            exact, approx = self.columns(lo, hi)
            yield range(lo, hi), exact, approx, exact - approx

    @property
    def rows(self) -> tuple[ApproximationRow, ...]:
        return tuple(ApproximationRow(*row) for statistic, *block in self.blocks()
                     for row in zip(statistic, *(c.tolist() for c in block)))


def _pick_distribution(n: int, lag: int, bias: float) -> ExactDistribution:
    if n <= ENUMERATION_MAX_N:
        return exact_distribution_enumerate(n, lag, bias)
    if bias == 0.5:
        return exact_distribution_binomial(n, lag)
    raise EnumerationLimitError(
        f"no exact distribution available for n={n} with bias {bias}; "
        f"enumeration stops at n={ENUMERATION_MAX_N} and the closed form "
        "requires bias 0.5"
    )


def approximation_error(
    n: int,
    lag: int,
    bias: float,
    k_range: tuple[int, int] | None = None,
) -> ApproximationTable:
    """Tabulate exact vs normal-approximation two-sided p-values per statistic
    value. The exact tails are summed here; each block of the table is
    standardized and its p-values taken as it is read."""
    check_lag(n, lag)
    m = n - lag
    k_lo, k_hi = k_range if k_range is not None else (0, m)
    if not 0 <= k_lo <= k_hi <= m:
        raise ValueError(f"k_range must lie within [0, {m}], got {k_range}")
    # The table is read later: refuse a bias or variance it cannot use now,
    # before an exact law is picked or built.
    normalize_statistic(k_lo, n, lag, bias)
    tails = _pick_distribution(n, lag, bias).two_sided_p()

    def columns(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        approx = p_values(normalize_statistic(np.arange(lo, hi), n, lag, bias))
        return np.minimum(tails[lo:hi], 1.0), approx

    return ApproximationTable(n=n, lag=lag, bias=bias, k_range=(k_lo, k_hi),
                              columns=columns)
