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
sorted pass, whichever route built the pmf, over the pmf's non-zero window
only: beyond it every tail is 0.0. ``approximation_error`` sums those tails
and yields them against the normal-approximation p-values one block of rows
at a time, each standardized and ``erfc``'d as it is read.

Counts are Python ints and masses Python floats, with the test's scalar
standardization from ``standardize``: the module loads no numpy. The
``oracle`` command's working memory is thus the pmf and its tails (a
pointer per entry, with a float object only in the non-zero window: 13906
of the 131072 entries at n = 131072) plus one block, and at n = 131072 its
peak RSS is 18.4 MiB, 10.8 MiB below that of a process with every module
of the package imported (29.1 MiB), where it was 30.7 MiB with numpy.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Iterable, Iterator
from itertools import compress, count

from .standardize import check_lag, check_stream_length, p_value, standardization

# Each (statistic, ones) count is below 2^n. Up to n = 53, the doubles'
# significand width, every count converts to a double exactly, so at p = 1/2
# each count * 2^-n is exact and fsum rounds each pmf entry once.
ENUMERATION_MAX_N = sys.float_info.mant_dig
# Fraction bits of the binomial walk: above the 1075 bits that reach the
# smallest subnormal, with ample room for the floors' slack.
_FIXED_POINT_BITS = 1200
# Mode factors multiplied together per floor division.
_MODE_CHUNK = 64


class ExactDistribution:
    """Exact pmf of the XOR-count statistic on its support 0..n-lag, held
    as a tuple of floats (a copy of the caller's sequence). A plain class:
    importing ``dataclasses`` would cost the ``oracle`` command about 8 ms,
    a seventh of its run at n = 24."""

    __slots__ = ("n", "lag", "bias", "pmf", "_nonzero")

    def __init__(self, n: int, lag: int, bias: float, pmf: Iterable[float]) -> None:
        m = n - lag
        pmf = tuple(map(float, pmf))
        if len(pmf) != m + 1:
            raise ValueError(f"pmf must cover 0..{m}, got shape ({len(pmf)},)")
        if not all(map(math.isfinite, pmf)):
            raise ValueError("pmf has non-finite mass")
        if min(pmf, default=0.0) < 0.0:
            raise ValueError("pmf has negative mass")
        total = math.fsum(pmf)
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"pmf mass {total!r} deviates from 1 by more than 1e-12")
        self.n, self.lag, self.bias, self.pmf = n, lag, bias, pmf
        # First and last statistic value of non-zero mass.
        nonzero = list(compress(count(), pmf))
        self._nonzero = (nonzero[0], nonzero[-1])

    def mean(self) -> float:
        first, last = self._nonzero
        return math.fsum(map(operator.mul, range(first, last + 1), self.pmf[first:last + 1]))

    def two_sided_p(self) -> list[float]:
        """Exact two-sided p-value of every statistic value, from one running
        sum in order of falling distance from the mean (small tails summed
        first).

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
        p = [0.0] * (m + 1)
        tail, previous, previous_distance = 0.0, lo, math.inf
        # A stable sort, so equal distances keep their order of k.
        for k in sorted(range(lo, hi + 1), key=lambda k: -abs(k - mean)):
            distance = abs(k - mean)
            tail += self.pmf[k]
            p[k] = tail
            # k and its mirror about the mean share the pair's tail. Distances
            # on one side of the mean are 1 apart, so a tie is at most a pair.
            if distance >= previous_distance - 1e-9:
                p[previous] = tail
            previous, previous_distance = k, distance
        return p


def _joint_counts(n: int, lag: int) -> list[list[int]]:
    """Exact counts of the length-n sequences by (statistic, ones), as
    ``counts[statistic][ones]``.

    The bits are walked class by class (positions c, c + lag, c + 2 lag, ...),
    so each bit pairs with the one before it in the walk unless it opens its
    class. ``zero[s][k]`` and ``one[s][k]`` count the prefixes so far with s
    mismatched pairs and k ones, split by their last bit. No prefix reaches
    s = n - lag or k = n before the last bit, so what a shift drops off the
    end of a table is always zero.
    """
    def add(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
        return [list(map(operator.add, x, y)) for x, y in zip(a, b)]

    def one_more_one(a: list[list[int]]) -> list[list[int]]:
        return [[0, *row[:-1]] for row in a]

    def one_more_mismatch(a: list[list[int]]) -> list[list[int]]:
        return [[0] * (n + 1), *a[:-1]]

    zero, one = ([[0] * (n + 1) for _ in range(n - lag + 1)] for _ in range(2))
    zero[0][0] = 1
    for c in range(lag):
        zero = add(zero, one)
        one = one_more_one(zero)
        for _ in range(c + lag, n, lag):
            zero, one = (add(zero, one_more_mismatch(one)),
                         one_more_one(add(one, one_more_mismatch(zero))))
    return add(zero, one)


def exact_distribution_enumerate(n: int, lag: int, bias: float) -> ExactDistribution:
    """Exact pmf from the (statistic, ones) counts of all 2^n sequences
    (n <= ENUMERATION_MAX_N), any bias."""
    check_lag(n, lag)
    if n > ENUMERATION_MAX_N:
        raise ValueError(f"enumeration is limited to n <= {ENUMERATION_MAX_N}, got {n}")
    if not 0.0 <= bias <= 1.0:
        raise ValueError(f"bias must be in [0, 1], got {bias}")

    weight_by_ones = [bias**c * (1.0 - bias) ** (n - c) for c in range(n + 1)]
    pmf = [math.fsum(map(operator.mul, row, weight_by_ones)) for row in _joint_counts(n, lag)]
    return ExactDistribution(n=n, lag=lag, bias=bias, pmf=pmf)


def exact_distribution_binomial(n: int, lag: int) -> ExactDistribution:
    """Binomial(n-lag, 1/2) pmf; the exact law of the statistic at bias 1/2."""
    check_lag(n, lag)
    m = n - lag
    pmf = [0.0] * (m + 1)
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


# Rows of the table built at a time: about 260 KiB of Python floats, three
# to a row with their list slots.
_TABLE_ROWS = 2730


def approximation_error(
    n: int,
    lag: int,
    bias: float,
    k_range: tuple[int, int] | None = None,
) -> Iterator[tuple[range, list[float], list[float], list[float]]]:
    """Exact vs normal-approximation two-sided p-values, one row per
    statistic value in ``k_range`` (both ends included; default the whole
    support), yielded a block of rows at a time as (statistic values,
    exact_p, approx_p, difference), with ``difference`` = exact_p - approx_p.

    Every check is made and the exact tails are summed before this returns;
    each block is standardized and its p-values taken as it is read."""
    check_lag(n, lag)
    m = n - lag
    k_lo, k_hi = k_range if k_range is not None else (0, m)
    if not 0 <= k_lo <= k_hi <= m:
        raise ValueError(f"k_range must lie within [0, {m}], got {k_range}")
    # The table is read later: refuse now a bias or variance it cannot use, or
    # an n longer than any stream the test reads, before an exact law is built.
    center, scale = standardization(n, lag, bias)
    check_stream_length(n)
    if n <= ENUMERATION_MAX_N:
        dist = exact_distribution_enumerate(n, lag, bias)
    elif bias == 0.5:
        dist = exact_distribution_binomial(n, lag)
    else:
        raise ValueError(
            f"no exact distribution available for n={n} with bias {bias}; "
            f"enumeration stops at n={ENUMERATION_MAX_N} and the closed form "
            "requires bias 0.5"
        )
    tails = dist.two_sided_p()

    def blocks() -> Iterator[tuple[range, list[float], list[float], list[float]]]:
        for lo in range(k_lo, k_hi + 1, _TABLE_ROWS):
            hi = min(lo + _TABLE_ROWS, k_hi + 1)
            exact = tails[lo:hi]
            # Only the tails near the mean, sums of nearly all the mass, can
            # round above 1.0: most blocks need no cap.
            if max(exact) > 1.0:
                exact = [min(tail, 1.0) for tail in exact]
            # normalize_statistic's operations, without its checks per row.
            approx = [p_value((k - center) / scale) for k in range(lo, hi)]
            yield range(lo, hi), exact, approx, list(map(operator.sub, exact, approx))

    return blocks()
