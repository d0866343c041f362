"""Core autocorrelation test: statistic, normalization, p-value, verdicts."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qrng_audit import autocorr
from qrng_audit.autocorr import (
    BitSequence,
    TestParams,
    Verdict,
    autocorr_statistic,
    estimate_bias,
    normalize_statistic,
    p_value,
    p_values,
    packed_counts,
    run_test,
)
from reference import autocorr_counts

# mpmath oracle values, frozen up front
P_VALUE_AT_2 = 0.0455002638963584144  # erfc(2/sqrt(2))
Z_TWO_SIDED_001 = 2.5758293  # normal quantile at two-sided 0.01


def brute_force_statistic(bits, lag):
    """Independent double-loop XOR oracle."""
    total = 0
    for i in range(len(bits) - lag):
        total += bits[i] ^ bits[i + lag]
    return total


bit_lists = st.lists(st.integers(0, 1), min_size=2, max_size=64)


@st.composite
def sequence_and_lag(draw):
    bits = draw(bit_lists)
    lag = draw(st.integers(1, len(bits) - 1))
    return bits, lag


# ----------------------------------------------------------------- statistic

def test_statistic_examples():
    assert autocorr_statistic(BitSequence.from_string("0000000000"), 1) == 0
    assert autocorr_statistic(BitSequence.from_string("0101010101"), 1) == 9
    assert autocorr_statistic(BitSequence.from_string("0101010101"), 2) == 0
    assert autocorr_statistic(BitSequence.from_string("1101"), 1) == 2


@pytest.mark.parametrize("lag", [0, -1, 10, 11])
def test_statistic_invalid_lag(lag):
    with pytest.raises(ValueError, match="^lag must"):
        autocorr_statistic(BitSequence.from_string("0101010101"), lag)


@given(sequence_and_lag())
def test_statistic_matches_brute_force(case):
    bits, lag = case
    assert autocorr_statistic(BitSequence(bits), lag) == brute_force_statistic(bits, lag)


@given(sequence_and_lag())
def test_statistic_range(case):
    bits, lag = case
    assert 0 <= autocorr_statistic(BitSequence(bits), lag) <= len(bits) - lag


@given(sequence_and_lag())
def test_statistic_complement_invariant(case):
    bits, lag = case
    flipped = [1 - b for b in bits]
    assert autocorr_statistic(BitSequence(bits), lag) == autocorr_statistic(
        BitSequence(flipped), lag
    )


@given(sequence_and_lag())
def test_statistic_reversal_invariant(case):
    bits, lag = case
    assert autocorr_statistic(BitSequence(bits), lag) == autocorr_statistic(
        BitSequence(bits[::-1]), lag
    )


# ---------------------------------------------------------------- sequences

@given(st.integers(2, 40).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=1, max_size=5),
    st.integers(1, n - 1),
)))
def test_counts_kernel_matches_scalar_reference(case):
    rows, lag = case
    statistic, ones = autocorr_counts(np.array(rows, dtype=np.uint8), lag)
    assert statistic.dtype == ones.dtype == np.int64
    assert statistic.tolist() == [autocorr_statistic(BitSequence(r), lag) for r in rows]
    assert ones.tolist() == [BitSequence(r).ones_count() for r in rows]


@pytest.mark.parametrize("lag", [0, -1, 10, 11])
def test_counts_kernel_invalid_lag(lag):
    with pytest.raises(ValueError, match="^lag must"):
        packed_counts(np.zeros((3, 2), dtype=np.uint8), 10, lag)


@st.composite
def bit_blocks(draw):
    """(rows, n) bits and a lag drawn from 1 <= lag < n (lag = 1 at n = 1,
    where no lag is valid); each row has its own bias, 0 and 1 included."""
    n = draw(st.integers(1, 300) | st.sampled_from([8191, 8193]))
    biases = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                           min_size=1, max_size=4))
    seed = draw(st.integers(0, 2**32 - 1))
    draws = np.random.default_rng(seed).random((len(biases), n))
    lag = draw(st.integers(1, max(n - 1, 1)))
    return (draws < np.array(biases)[:, None]).astype(np.uint8), lag


@given(bit_blocks())
@settings(max_examples=300, deadline=None)
@example((np.ones((2, 9), np.uint8), 8))
@example((np.eye(2, 8193, 8192, dtype=np.uint8), 8192))
def test_packed_counts_equals_reference_and_run_test(case):
    """The packed kernel equals the uint8 reference kernel, and run_test cell
    by cell; it refuses exactly the lags the reference refuses."""
    bits, lag = case
    n = bits.shape[1]
    packed = np.packbits(bits, axis=1)
    try:
        expected = autocorr_counts(bits, lag)
    except ValueError as exc:
        assert str(exc).startswith("lag must")
        with pytest.raises(ValueError, match="^lag must"):
            packed_counts(packed, n, lag)
        return
    statistic, ones = packed_counts(packed, n, lag)
    assert statistic.dtype == ones.dtype == np.int64
    assert statistic.tolist() == expected[0].tolist()
    assert ones.tolist() == expected[1].tolist()
    for row, count, ones_count in zip(bits, statistic.tolist(), ones.tolist()):
        result = run_test(BitSequence(row), TestParams(lag=lag))
        assert (count, ones_count / n) == (result.statistic, result.bias)


def test_packed_counts_equals_reference_at_every_lag():
    """Every lag of every n up to 70, and the lags at both ends of n around
    8192, on rows of every bias: all zero, all one, sparse, dense, fair."""
    rng = np.random.default_rng(20190509)
    for n in [*range(2, 71), 8191, 8192, 8193]:
        bits = (rng.random((5, n)) < np.array([[0.0], [1.0], [0.1], [0.9], [0.5]]))
        bits = bits.astype(np.uint8)
        packed = np.packbits(bits, axis=1)
        lags = range(1, n) if n <= 70 else [*range(1, 18), *range(n - 17, n)]
        for lag in lags:
            statistic, ones = packed_counts(packed, n, lag)
            expected = autocorr_counts(bits, lag)
            assert statistic.tolist() == expected[0].tolist(), (n, lag)
            assert ones.tolist() == expected[1].tolist(), (n, lag)


@pytest.mark.parametrize("block_bytes", [1, 4, 64], ids=["row", "row-again", "sixteen-rows"])
def test_packed_counts_of_many_rows_counts_a_block_at_a_time(monkeypatch, block_bytes):
    """Rows past one block of ``BLOCK_BYTES`` are counted a block at a time
    (here 4-byte rows, 1, 1 and 16 to a block, the last block partial) and
    joined in row order."""
    rng = np.random.default_rng(7)
    bits = (rng.random((37, 29)) < rng.random((37, 1))).astype(np.uint8)
    monkeypatch.setattr(autocorr, "BLOCK_BYTES", block_bytes)
    for lag in (1, 9, 28):
        statistic, ones = packed_counts(np.packbits(bits, axis=1), 29, lag)
        expected = autocorr_counts(bits, lag)
        assert statistic.tolist() == expected[0].tolist(), lag
        assert ones.tolist() == expected[1].tolist(), lag


def test_bitsequence_validation():
    with pytest.raises(ValueError):
        BitSequence([])
    # Fractions and integers a uint8 cast would wrap are refused, not cast.
    for bits in ([0, 2, 1], [0.9, 0.2, 1.7], np.array([256, 257, 256]), [-255, 1, 0]):
        with pytest.raises(ValueError, match="is not 0 or 1"):
            BitSequence(bits)
    for text in ("01a0", "", "01,0", "01\u00e90"):
        with pytest.raises(ValueError):
            BitSequence.from_string(text)
    with pytest.raises(ValueError):
        BitSequence(np.zeros((2, 2), dtype=np.uint8))


def test_bitsequence_round_trip_and_equality():
    seq = BitSequence.from_string("100110")
    assert seq.to_string() == "100110"
    assert len(seq) == 6
    assert seq.ones_count() == 3
    assert seq == BitSequence([1, 0, 0, 1, 1, 0])
    assert seq == BitSequence([True, False, False, True, True, False])
    assert seq != BitSequence([1, 0, 0, 1, 1, 1])


def test_bitsequence_immutable():
    seq = BitSequence.from_string("10")
    with pytest.raises(ValueError):
        seq.bits[0] = 0


def test_bitsequence_leaves_the_callers_array_writable():
    bits = np.array([1, 0, 1], dtype=np.uint8)
    seq = BitSequence(bits)
    bits[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        seq.bits[0] = 1


# --------------------------------------------------------------------- bias

@pytest.mark.parametrize(
    "text, expected",
    [("1100", 0.5), ("1110", 0.75), ("1111", 1.0), ("0000", 0.0)],
)
def test_estimate_bias(text, expected):
    assert estimate_bias(BitSequence.from_string(text)) == expected


# ------------------------------------------------------------ normalization

def test_normalize_spot_values():
    assert normalize_statistic(50, 101, 1, 0.5) == 0.0
    assert normalize_statistic(60, 101, 1, 0.5) == 2.0


def test_normalize_degenerate_bias():
    for bias in (0.0, 1.0):
        with pytest.raises(ValueError):
            normalize_statistic(10, 101, 1, bias)


def test_normalize_rejects_bad_bias():
    with pytest.raises(ValueError):
        normalize_statistic(10, 101, 1, 1.5)


@given(
    st.integers(0, 100),
    # dyadic biases so that 1-p is its own exact float complement
    st.integers(1, 1023).map(lambda k: k / 1024.0),
    st.integers(2, 200),
    st.integers(1, 5),
)
def test_normalize_bias_symmetry(statistic, bias, n, lag):
    """q = 2p(1-p) is symmetric under p <-> 1-p, exactly."""
    if lag >= n:
        lag = n - 1
    left = normalize_statistic(statistic, n, lag, bias)
    right = normalize_statistic(statistic, n, lag, 1.0 - bias)
    assert left == right


@given(st.integers(0, 100), st.integers(0, 100))
def test_normalize_monotone_in_statistic(a, b):
    n, lag, bias = 101, 1, 0.4
    za = normalize_statistic(a, n, lag, bias)
    zb = normalize_statistic(b, n, lag, bias)
    assert (a < b) == (za < zb) or a == b


# ------------------------------------------------------------------ p-value

def test_p_value_spot_values():
    assert p_value(0.0) == 1.0
    assert p_value(2.0) == pytest.approx(P_VALUE_AT_2, abs=1e-9)
    assert p_value(Z_TWO_SIDED_001) == pytest.approx(0.01, abs=1e-6)
    assert p_value(-Z_TWO_SIDED_001) == pytest.approx(0.01, abs=1e-6)


def test_p_value_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            p_value(bad)


@given(st.floats(0.0, 50.0), st.floats(0.0, 50.0))
def test_p_value_monotone_in_magnitude(a, b):
    if a > b:
        a, b = b, a
    assert p_value(b) <= p_value(a)


def test_p_value_never_zero():
    assert 0.0 < p_value(200.0) <= 1.0


# 0 gives p = 1; near |z| = 38 erfc(|z|/sqrt(2)) is subnormal, and from about
# |z| = 38.6 it underflows to 0 and the p-value is clamped to 5e-324.
SUBNORMAL_Z = (37.6, -38.0, 38.4)
EDGE_Z = (0.0, -0.0, *SUBNORMAL_Z, 39.0, -40.0, 1e300, -1e300)


@given(st.lists(st.one_of(st.sampled_from(EDGE_Z), st.floats(-45.0, 45.0)), max_size=40))
@example(list(EDGE_Z))
def test_p_values_equal_scalar_p_value_bit_for_bit(zs):
    got = p_values(np.array(zs, dtype=float))
    assert got.tobytes() == np.array([p_value(z) for z in zs], dtype=float).tobytes()


def test_p_values_edges_and_shape():
    p = p_values(np.array(EDGE_Z).reshape(3, 3))
    assert p.shape == (3, 3)
    p = p.ravel()
    assert p[0] == p[1] == 1.0
    assert all(0.0 < v < sys.float_info.min for v in p[2:5])
    assert p[2] > 5e-324
    assert np.all(p[5:] == 5e-324)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_p_values_reject_non_finite(bad):
    with pytest.raises(ValueError, match="must be finite"):
        p_values(np.array([0.5, bad]))


# ----------------------------------------------------------------- run_test

def test_run_test_alternating_fails():
    seq = BitSequence(np.tile([0, 1], 4096))
    res = run_test(seq, TestParams(lag=1, alpha=0.01))
    assert res.statistic == 8191
    assert res.verdict is Verdict.FAIL
    assert res.p_value < 1e-12


def test_run_test_degenerate():
    res = run_test(BitSequence([1] * 64), TestParams(lag=1))
    assert res.verdict is Verdict.DEGENERATE
    assert res.statistic == 0
    assert res.bias == 1.0
    assert res.normalized is None and res.p_value is None


def test_run_test_fixed_bias():
    seq = BitSequence.from_string("0110")
    res = run_test(seq, TestParams(lag=1, fixed_bias=0.5))
    assert res.bias == 0.5
    assert res.statistic == 2
    # A = 2, mean q*(n-l) = 1.5, sd = sqrt(3*0.25)
    assert res.normalized == pytest.approx((2 - 1.5) / math.sqrt(0.75))


def test_run_test_p_equal_alpha_passes():
    """The verdict boundary: p-value == alpha counts as a pass."""
    seq = BitSequence(np.tile([0, 1, 1, 0, 1, 0, 0, 1, 1, 1], 20))
    first = run_test(seq, TestParams(lag=1))
    again = run_test(seq, TestParams(lag=1, alpha=first.p_value))
    assert again.verdict is Verdict.PASS


def test_run_test_low_sample_flag():
    short = run_test(BitSequence.from_string("0110100110"), TestParams(lag=1))
    assert short.low_sample
    long = run_test(BitSequence(np.tile([0, 1, 1, 0], 256)), TestParams(lag=1))
    assert not long.low_sample


@given(sequence_and_lag())
def test_run_test_verdict_consistent_with_p(case):
    bits, lag = case
    res = run_test(BitSequence(bits), TestParams(lag=lag, alpha=0.05))
    if res.verdict is Verdict.DEGENERATE:
        assert res.bias in (0.0, 1.0)
    else:
        assert (res.verdict is Verdict.FAIL) == (res.p_value < 0.05)
        assert 0.0 < res.p_value <= 1.0


def test_params_validation():
    with pytest.raises(ValueError, match="^lag must"):
        TestParams(lag=0)
    with pytest.raises(ValueError):
        TestParams(alpha=0.0)
    with pytest.raises(ValueError):
        TestParams(alpha=1.0)
    with pytest.raises(ValueError):
        TestParams(fixed_bias=-0.1)
