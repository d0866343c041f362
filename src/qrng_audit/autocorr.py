"""Lag-l autocorrelation test for binary sequences.

The statistic is the XOR count ``A = sum_i x_i ^ x_{i+l}`` over the n-l pairs
l positions apart. Under independence with ones-probability p, a pair differs
with probability ``q = 2p(1-p)``, so A is centered at ``q(n-l)`` and is
standardized with variance ``(n-l) q (1-q)``; the two-sided p-value is
``erfc(|A'| / sqrt(2))``. A sequence fails at level alpha when p-value < alpha
(p-value == alpha passes). All-zero / all-one sequences have zero variance and
get the separate Degenerate verdict instead of a p-value.

That variance is exact only at p = 1/2: pairs (i, i+l) and (i+l, i+2l)
share a bit, so elsewhere their mismatches are correlated and the size
drifts from alpha. At n = 8192, lag 1 and alpha 0.01, with the bias pinned
(estimated), it is 0.00972 (0.00994) at p = 0.5 and 0.02264 (0.00247) at
p = 0.3; README's "The test" gives the table.

``run_test`` is the readable one-sequence reference. ``packed_counts`` takes
the XOR counts and ones counts of a whole block of streams at once, each
stream packed eight bits to a byte in ``np.packbits`` order: ones counts
with ``np.bitwise_count`` on the bytes, XOR counts on the bytes XORed with
the same row shifted ``lag`` bits (``lag // 8`` bytes and then ``lag % 8``
bits). ``PValueMatrix.from_counts`` places those counts on a (jobs x
qubits) grid, where ``cell_outcomes`` runs ``run_test``'s arithmetic in its order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

# The scalar standardization, re-exported: the test reads it from here.
from .standardize import check_lag, normalize_statistic, p_value, pair_mismatch_rate

# Below this value of (n-l) * q * (1-q) the normal approximation is dubious;
# results are still computed but flagged.
LOW_SAMPLE_VARIANCE = 25.0

# Bytes handled at once by every blocked loop over streams: packed bit rows
# counted by ``packed_counts``, drawn by ``simulate.device_run_blocks`` or
# parsed by ``ingest``, and their '0'/'1' bytes unpacked by
# ``ingest.serialize_jobs``.
# Small enough that each block's temporaries stay in cache and add nothing
# to peak memory.
BLOCK_BYTES = 1 << 16


class Verdict(Enum):
    PASS = "pass"
    FAIL = "fail"
    DEGENERATE = "degenerate"

    def __str__(self) -> str:
        return self.value


class BitSequence:
    """Immutable finite sequence of {0,1} symbols."""

    __slots__ = ("bits",)

    def __init__(self, bits: Iterable[int] | np.ndarray):
        arr = np.asarray(bits)
        if arr.ndim != 1:
            raise ValueError(f"bits must be one-dimensional, got shape {arr.shape}")
        if arr.size < 1:
            raise ValueError("a bit sequence must contain at least one bit")
        # Checked before the cast, which would truncate floats and wrap integers.
        bad = (arr != 0) & (arr != 1)
        if bad.any():
            raise ValueError(f"bit at position {int(np.argmax(bad))} is not 0 or 1")
        # A view, so the caller's own uint8 array stays writable.
        arr = arr.astype(np.uint8, copy=False).view()
        arr.setflags(write=False)
        self.bits = arr

    @classmethod
    def from_string(cls, text: str) -> "BitSequence":
        try:
            return cls(np.frombuffer(text.encode(), dtype=np.uint8) - ord("0"))
        except ValueError:
            raise ValueError(f"not a bit string: {text!r}") from None

    def to_string(self) -> str:
        return (self.bits + ord("0")).tobytes().decode("ascii")

    def ones_count(self) -> int:
        return int(self.bits.sum(dtype=np.int64))

    def __len__(self) -> int:
        return int(self.bits.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitSequence):
            return NotImplemented
        return self.bits.shape == other.bits.shape and bool(np.all(self.bits == other.bits))

    def __repr__(self) -> str:
        if len(self) <= 32:
            return f"BitSequence({self.to_string()!r})"
        return f"BitSequence(<{len(self)} bits>)"


@dataclass(frozen=True)
class TestParams:
    """Test configuration: lag, significance level, and bias handling.

    ``fixed_bias=None`` means the ones-probability is estimated from the
    sequence under test (its ones-frequency); a float pins it.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    lag: int = 1
    alpha: float = 0.01
    fixed_bias: float | None = None

    def __post_init__(self) -> None:
        if self.lag < 1:
            raise ValueError(f"lag must be >= 1, got {self.lag}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.fixed_bias is not None and not 0.0 <= self.fixed_bias <= 1.0:
            raise ValueError(f"fixed bias must be in [0, 1], got {self.fixed_bias}")


@dataclass(frozen=True)
class AutocorrResult:
    """Full outcome of one autocorrelation test.

    ``normalized`` keeps its sign (negative means fewer mismatches than an
    independent source would produce); the p-value is two-sided, computed
    from |normalized|. For Degenerate verdicts normalized and p_value are
    None. ``low_sample`` flags (n-lag)*q*(1-q) < 25.
    """

    n: int
    lag: int
    statistic: int
    bias: float
    normalized: float | None
    p_value: float | None
    verdict: Verdict
    low_sample: bool = False


def autocorr_statistic(seq: BitSequence, lag: int) -> int:
    """XOR count of the ``len(seq) - lag`` bit pairs ``lag`` apart."""
    check_lag(len(seq), lag)
    return int((seq.bits[:-lag] ^ seq.bits[lag:]).sum(dtype=np.int64))


def packed_counts(bits: np.ndarray, n: int, lag: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row XOR count (as ``autocorr_statistic``) and ones count, both
    int64, of a (rows, ceil(n / 8)) matrix of n-bit streams packed in
    ``np.packbits`` order, whose pad bits are zero, counted a block of about
    ``BLOCK_BYTES`` of rows at a time, so its temporaries stay that small.

    Byte k of the shifted row holds bits 8k + lag .. 8k + lag + 7: byte
    k + lag // 8 moved up ``lag % 8`` bits, with the top of the next byte
    below it. XORed with the row's first ceil((n - lag) / 8) bytes, its set
    bits are the mismatched pairs, once the bits of the last byte past the
    n - lag pairs are masked."""
    check_lag(n, lag)
    if len(bits) > (step := max(1, BLOCK_BYTES // bits.shape[1])):
        counts = [packed_counts(bits[i:i + step], n, lag) for i in range(0, len(bits), step)]
        return np.concatenate([c[0] for c in counts]), np.concatenate([c[1] for c in counts])
    pairs = n - lag
    width = -(-pairs // 8)
    skip, shift = divmod(lag, 8)
    xor = bits[:, :width] ^ (bits[:, skip:skip + width] << shift)
    if shift:
        # The byte after the last one may lie past the row: its bits would
        # only reach masked pairs.
        carry = bits[:, skip + 1:skip + 1 + width] >> (8 - shift)
        xor[:, :carry.shape[1]] ^= carry
    if pairs % 8:
        xor[:, -1] &= (0xFF00 >> pairs % 8) & 0xFF
    statistic = np.bitwise_count(xor).sum(axis=1, dtype=np.int64)
    return statistic, np.bitwise_count(bits).sum(axis=1, dtype=np.int64)


def estimate_bias(seq: BitSequence) -> float:
    """Ones-frequency of the sequence."""
    return seq.ones_count() / len(seq)


def p_values(normalized: np.ndarray) -> np.ndarray:
    """``p_value`` of every element of an array, equal to it bit for bit."""
    z = np.asarray(normalized, dtype=float)
    return np.fromiter(map(p_value, z.ravel()), float, z.size).reshape(z.shape)


def cell_outcomes(statistic: np.ndarray, bias: np.ndarray, n: int,
                  lag: int) -> tuple[np.ndarray, np.ndarray]:
    """``run_test``'s normalized statistic and p-value, equal to it cell for
    cell, of arrays of XOR counts and biases of n-bit streams at ``lag``:
    both NaN exactly where the bias gives the test zero variance."""
    m = n - lag
    q = pair_mismatch_rate(bias)
    degenerate = q * (1.0 - q) <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = (statistic - q * m) / np.sqrt(m * q * (1.0 - q))
    normalized[degenerate] = np.nan
    p = np.full(statistic.shape, np.nan)
    p[~degenerate] = p_values(normalized[~degenerate])
    return normalized, p


@dataclass(frozen=True, eq=False)
class PValueMatrix:
    """Test outcomes on a (jobs x qubits) grid, rows in job-time order.

    Every cell shares one stream length ``n`` and one ``lag``. The per-cell
    fields are (jobs, qubits) arrays: ``statistic`` (int64), ``bias``,
    ``normalized`` and ``p_value`` (float64); ``normalized`` and ``p_value``
    are NaN exactly on degenerate cells. ``alpha`` is the level pass/fail
    are read at, which ``TestParams`` or ``read_results`` has checked.
    """

    job_ids: tuple[str, ...]
    qubit_ids: tuple[int, ...]
    n: int
    lag: int
    alpha: float
    statistic: np.ndarray
    bias: np.ndarray
    normalized: np.ndarray
    p_value: np.ndarray

    @classmethod
    def from_counts(
        cls,
        job_ids: tuple[str, ...],
        qubit_ids: tuple[int, ...],
        n: int,
        counts: Iterable[tuple[np.ndarray, np.ndarray]],
        params: TestParams,
        order: np.ndarray | slice = slice(None),
    ) -> "PValueMatrix":
        """``run_test`` on every cell at once, equal to it cell for cell, given
        ``packed_counts`` of each block of streams in row order and ``order``,
        the gather of those rows that fills the grid row by row."""
        statistic, ones = (np.concatenate(column)[order].reshape(len(job_ids), len(qubit_ids))
                           for column in zip(*counts))
        bias = (ones / n if params.fixed_bias is None
                else np.full(statistic.shape, params.fixed_bias, dtype=float))
        return cls(job_ids, qubit_ids, n, params.lag, params.alpha, statistic, bias,
                   *cell_outcomes(statistic, bias, n, params.lag))

    @property
    def degenerate(self) -> np.ndarray:
        return np.isnan(self.p_value)

    @property
    def low_sample(self) -> np.ndarray:
        """Non-degenerate cells with (n-lag) q (1-q) < LOW_SAMPLE_VARIANCE."""
        q = pair_mismatch_rate(self.bias)
        spread = (self.n - self.lag) * q * (1.0 - q)
        return ~self.degenerate & (spread < LOW_SAMPLE_VARIANCE)

    def failed(self) -> np.ndarray:
        """Cells with p-value < alpha."""
        return self.p_value < self.alpha

    def verdicts(self) -> np.ndarray:
        """Per-cell Verdict at level alpha, as an object array."""
        out = np.where(self.failed(), Verdict.FAIL, Verdict.PASS)
        out[self.degenerate] = Verdict.DEGENERATE
        return out


def run_test(seq: BitSequence, params: TestParams = TestParams()) -> AutocorrResult:
    """Run the full test: statistic, bias, normalization, p-value, verdict."""
    n = len(seq)
    statistic = autocorr_statistic(seq, params.lag)
    bias = params.fixed_bias if params.fixed_bias is not None else estimate_bias(seq)
    q = pair_mismatch_rate(bias)
    normalized = p = None
    verdict = Verdict.DEGENERATE
    if q * (1.0 - q) > 0.0:
        normalized = normalize_statistic(statistic, n, params.lag, bias)
        p = p_value(normalized)
        verdict = Verdict.FAIL if p < params.alpha else Verdict.PASS
    return AutocorrResult(
        n=n, lag=params.lag, statistic=statistic, bias=bias,
        normalized=normalized, p_value=p, verdict=verdict,
        low_sample=p is not None and (n - params.lag) * q * (1.0 - q) < LOW_SAMPLE_VARIANCE,
    )
