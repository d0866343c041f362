"""Exact-distribution oracles and the normal-approximation error table."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qrng_audit import oracle
from qrng_audit.autocorr import normalize_statistic, p_value, p_values
from qrng_audit.oracle import (
    ENUMERATION_MAX_N,
    ExactDistribution,
    approximation_error,
    exact_distribution_binomial,
    exact_distribution_enumerate,
)
from reference import (
    as_dict,
    enumerate_joint_counts,
    exact_two_sided_p,
    joined_table,
    variance,
    xor_count_mean,
    xor_count_variance_lag1,
)


def test_enumerate_examples():
    assert as_dict(exact_distribution_enumerate(2, 1, 0.5)) == {0: 0.5, 1: 0.5}
    assert as_dict(exact_distribution_enumerate(3, 1, 0.5)) == {0: 0.25, 1: 0.5, 2: 0.25}
    degenerate = exact_distribution_enumerate(3, 1, 1.0)
    assert degenerate.pmf[0] == 1.0 and sum(degenerate.pmf[1:]) == 0.0


def test_enumerate_size_limit():
    with pytest.raises(ValueError):
        exact_distribution_enumerate(ENUMERATION_MAX_N + 1, 1, 0.5)


@given(st.integers(2, 20))
@example(20)
@settings(max_examples=20, deadline=None)
def test_joint_counts_equal_enumeration(n):
    for lag in range(1, n):
        assert np.array_equal(oracle._joint_counts(n, lag), enumerate_joint_counts(n, lag)), lag


@pytest.mark.parametrize("lag", [1, 3, 12, 23])
def test_joint_counts_equal_enumeration_at_24(lag):
    assert np.array_equal(oracle._joint_counts(24, lag), enumerate_joint_counts(24, lag))


def test_enumerate_past_the_old_limit_weights_exact_counts():
    """n = 25 was beyond brute force; the pmf is the enumerated counts
    weighted by ones, as exact_distribution_enumerate weights them."""
    n, bias = 25, 0.3
    counts = enumerate_joint_counts(n, 1)
    weights = [bias**c * (1.0 - bias) ** (n - c) for c in range(n + 1)]
    expected = [math.fsum(int(count) * w for count, w in zip(row, weights)) for row in counts]
    assert np.array_equal(exact_distribution_enumerate(n, 1, bias).pmf, expected)


@pytest.mark.parametrize("n", range(25, ENUMERATION_MAX_N + 1))
def test_counts_route_equals_binomial_at_half_to_the_limit(n):
    """Every count is below 2^53, so at p = 1/2 each weighted count is exact
    and the pmf is the binomial's bit for bit."""
    for lag in range(1, n):
        assert np.array_equal(exact_distribution_enumerate(n, lag, 0.5).pmf,
                              exact_distribution_binomial(n, lag).pmf), lag


def test_binomial_examples():
    assert as_dict(exact_distribution_binomial(3, 1)) == {0: 0.25, 1: 0.5, 2: 0.25}
    assert as_dict(exact_distribution_binomial(2, 1)) == {0: 0.5, 1: 0.5}
    assert exact_distribution_binomial(8192, 1).mean() == pytest.approx(4095.5, abs=1e-9)


def full_recurrence_pmf(m):
    """Binomial(m, 1/2) pmf by the exact recurrence over every k from 0: the
    reference the mode-out walk must match bit for bit."""
    denominator = 1 << m
    pmf = np.empty(m + 1)
    coeff = 1
    for k in range(m + 1):
        pmf[k] = coeff / denominator
        coeff = coeff * (m - k) // (k + 1)
    return pmf


@pytest.mark.parametrize("n", range(2, 65))
def test_binomial_pmf_equals_full_recurrence_every_lag(n):
    for lag in range(1, n):
        assert np.array_equal(exact_distribution_binomial(n, lag).pmf,
                              full_recurrence_pmf(n - lag))


@given(st.integers(2, 5000).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))))
@example((2, 1))
@example((1001, 1))
@example((1002, 1))
@settings(max_examples=40, deadline=None)
def test_binomial_pmf_equals_full_recurrence(n_lag):
    """Examples: m = 1, then m even and odd; drawn cases past m of about 2100
    also cover tails that underflow to 0.0."""
    n, lag = n_lag
    assert np.array_equal(exact_distribution_binomial(n, lag).pmf,
                          full_recurrence_pmf(n - lag))


def test_binomial_pmf_underflow_edge_is_correctly_rounded():
    """At n = 100000 the walk stops where C(m, k) / 2^m first rounds to 0.0;
    both sides of that edge match the exact rational, rounded once."""
    m = 100_000 - 1
    pmf = exact_distribution_binomial(100_000, 1).pmf
    last = int(np.flatnonzero(pmf)[0])
    assert 0 < last < m // 2
    for k in (last, last - 1):
        assert pmf[k] == float(Fraction(math.comb(m, k), 2**m))
        assert pmf[m - k] == pmf[k]
    assert pmf[last] > 0.0 and pmf[last - 1] == 0.0
    assert not any(pmf[:last]) and not any(pmf[m - last + 1:])


def counting(comb, calls):
    """``comb`` that records each call's arguments in ``calls``."""
    def counted(*args):
        calls.append(args)
        return comb(*args)
    return counted


@given(st.integers(2101, 4999).flatmap(lambda m: st.tuples(
    st.just(m), st.integers(1, 5000 - m))), st.integers(1, 1000))
@settings(max_examples=25, deadline=None)
def test_binomial_fixed_point_fallback_is_exact(m_lag, bits):
    """With too few fraction bits the walk's bracket straddles a rounding
    edge (at the latest once the scaled value floors to 0 while the exact
    one is still a subnormal), and each such entry comes from the exact
    C(m, k) / 2^m; the pmf stays bit-identical to the full recurrence."""
    m, lag = m_lag
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_FIXED_POINT_BITS", bits)
        patch.setattr(oracle.math, "comb", counting(math.comb, calls))
        pmf = exact_distribution_binomial(m + lag, lag).pmf
    assert calls
    assert np.array_equal(pmf, full_recurrence_pmf(m))


def test_binomial_pmf_at_benchmark_shape(monkeypatch):
    """n = 131072, lag 1: no entry needs the exact fallback, and the mode, a
    normal tail entry, the last non-zero (subnormal) entry and the first zero
    each equal the exact rational rounded once."""
    m = 131072 - 1
    calls = []
    monkeypatch.setattr(oracle.math, "comb", counting(math.comb, calls))
    pmf = exact_distribution_binomial(131072, 1).pmf
    monkeypatch.undo()
    assert calls == []
    last = int(np.flatnonzero(pmf)[0])
    assert 0.0 < pmf[last] < sys.float_info.min and pmf[last - 1] == 0.0
    for k in (m // 2, m // 2 - 1500, last, last - 1):
        assert pmf[k] == pmf[m - k] == float(Fraction(math.comb(m, k), 2**m))
    assert pmf[m // 2 - 1500] > sys.float_info.min


@pytest.mark.parametrize("pmf", [
    [0.25, np.nan, 0.75],
    [np.nan, np.nan, np.nan],
    [0.0, np.inf, 0.0],
    [0.5, 1.5, -np.inf],
])
def test_exact_distribution_rejects_non_finite_pmf(pmf):
    with pytest.raises(ValueError, match="non-finite"):
        ExactDistribution(3, 1, 0.5, np.array(pmf))


@pytest.mark.parametrize("pmf, message", [
    ([0.5, 0.5], "pmf must cover 0..2, got shape (2,)"),
    ([0.25, 0.5, 0.25, 0.0], "pmf must cover 0..2, got shape (4,)"),
    ([0.75, 0.5, -0.25], "pmf has negative mass"),
    ([0.25, 0.5, 0.25 + 2e-12], "pmf mass 1.000000000002 deviates from 1 by more than 1e-12"),
    ([0.0, 0.0, 0.0], "pmf mass 0.0 deviates from 1 by more than 1e-12"),
])
def test_exact_distribution_rejects_a_pmf_that_is_not_one_law(pmf, message):
    with pytest.raises(ValueError) as refusal:
        ExactDistribution(3, 1, 0.5, pmf)
    assert str(refusal.value) == message


def test_exact_distribution_leaves_the_callers_pmf_writable():
    pmf = np.array([0.25, 0.5, 0.25])
    dist = ExactDistribution(3, 1, 0.5, pmf)
    pmf[0] = 0.3
    assert dist.pmf == (0.25, 0.5, 0.25)
    with pytest.raises(TypeError, match="does not support item assignment"):
        dist.pmf[0] = 0.3


@pytest.mark.parametrize("n", [2, 5, 9, 14, 17])
def test_enumerate_matches_binomial_at_half(n):
    """At p=1/2 the statistic is exactly Binomial(n-lag, 1/2) for every lag."""
    for lag in range(1, n):
        enum = exact_distribution_enumerate(n, lag, 0.5)
        closed = exact_distribution_binomial(n, lag)
        assert np.max(np.abs(np.subtract(enum.pmf, closed.pmf))) <= 1e-12


@pytest.mark.parametrize("bias", [0.1, 0.3, 0.5, 0.73])
@pytest.mark.parametrize("n", [4, 11, 16])
def test_enumerate_moments_match_formulas(n, bias):
    dist = exact_distribution_enumerate(n, 1, bias)
    assert dist.mean() == pytest.approx(xor_count_mean(n, 1, bias), abs=1e-9)
    assert variance(dist) == pytest.approx(xor_count_variance_lag1(n, bias), abs=1e-9)


@given(st.integers(3, 12), st.floats(0.0, 1.0))
@settings(max_examples=30, deadline=None)
def test_enumerate_mean_any_lag(n, bias):
    """The mean q(n-lag) is exact for every lag even under XOR dependence."""
    for lag in (1, n - 1):
        dist = exact_distribution_enumerate(n, lag, bias)
        assert dist.mean() == pytest.approx(xor_count_mean(n, lag, bias), abs=1e-9)


def test_variance_formula_collapses_at_half():
    n = 1000
    q = 0.5
    assert xor_count_variance_lag1(n, 0.5) == pytest.approx((n - 1) * q * (1 - q))


def test_pmf_is_normalized():
    for dist in (
        exact_distribution_enumerate(12, 2, 0.27),
        exact_distribution_binomial(100_000, 1),
    ):
        assert abs(math.fsum(dist.pmf) - 1.0) <= 1e-12
        assert min(dist.pmf) >= 0.0


def test_two_sided_p_examples():
    dist = exact_distribution_enumerate(3, 1, 0.5)
    assert exact_two_sided_p(dist, 1) == 1.0
    assert exact_two_sided_p(dist, 0) == 0.5
    assert exact_two_sided_p(dist, 2) == 0.5


def test_two_sided_p_extreme_point_is_tail_mass():
    dist = exact_distribution_binomial(11, 1)
    # Both extreme cells, each 2^-10
    assert exact_two_sided_p(dist, 0) == pytest.approx(2.0 / 1024.0)


def test_two_sided_p_rejects_out_of_range():
    dist = exact_distribution_binomial(3, 1)
    for observed in (-1, 3):
        with pytest.raises(ValueError):
            exact_two_sided_p(dist, observed)


@pytest.mark.parametrize("bias", [1e-300, 1.0])
@pytest.mark.parametrize("n, lag", [(2, 1), (12, 1), (12, 5), (31, 30), (53, 1), (53, 2)])
def test_two_sided_p_of_an_off_centre_window(n, lag, bias):
    """At these biases the non-zero pmf sits at the low end of the support
    (statistic 0 alone at bias 1, 0..2 at bias 1e-300): every statistic is
    still checked point by point, the zero tails beyond the window included."""
    dist = exact_distribution_enumerate(n, lag, bias)
    assert np.flatnonzero(dist.pmf).max() <= 2
    assert dist.two_sided_p() == [exact_two_sided_p(dist, k) for k in range(n - lag + 1)]


@pytest.mark.parametrize("dist", [
    *(exact_distribution_enumerate(n, lag, bias)
      for bias in (1e-300, 1.0, 0.1, 0.73) for n, lag in ((2, 1), (12, 1), (12, 5), (31, 30))),
    *(exact_distribution_binomial(n, lag) for n, lag in ((131072, 1), (20000, 7), (8193, 24))),
], ids=lambda d: f"n{d.n}-lag{d.lag}-bias{d.bias!r}")
def test_mean_equals_the_full_support_sum(dist):
    """``mean`` sums only the non-zero window; the correctly rounded sum of
    k * pmf[k] over the whole support is within one ulp of it."""
    expected = math.fsum(k * p for k, p in enumerate(dist.pmf))
    assert abs(dist.mean() - expected) <= math.ulp(expected)


def loop_approximation_error(n, lag, bias):
    """The table row by row: tie runs found by a loop and one scalar
    standardization and p-value per statistic value."""
    dist = (exact_distribution_enumerate(n, lag, bias) if n <= ENUMERATION_MAX_N
            else exact_distribution_binomial(n, lag))
    m = n - lag
    pmf = np.array(dist.pmf)
    distances = np.abs(np.arange(pmf.size) - dist.mean())
    order = np.argsort(-distances, kind="stable")
    tail = np.empty(m + 1)
    tail[order] = np.cumsum(pmf[order])
    exact_by_k = np.empty(m + 1)
    sorted_d = distances[order]
    run_start = 0
    for i in range(1, m + 2):
        if i == m + 1 or sorted_d[i] < sorted_d[run_start] - 1e-9:
            exact_by_k[order[run_start:i]] = tail[order[i - 1]]
            run_start = i
    rows = []
    for k in range(m + 1):
        approx = p_value(normalize_statistic(k, n, lag, bias))
        exact = float(min(exact_by_k[k], 1.0))
        rows.append((k, exact, approx, exact - approx))
    return rows


ENUMERATED = [(n, lag, bias) for n in (2, 7, 12, 15)
              for lag in sorted({1, 2, n - 1}) if lag < n
              for bias in (0.1, 0.3, 0.5, 0.73, 0.9)]
BINOMIAL = [(n, lag, 0.5) for n in (25, 101, 1000, 8193, 20000)
            for lag in (1, 2, 7, 24)] + [(131072, 1, 0.5)]


@pytest.mark.parametrize("n, lag, bias", ENUMERATED + BINOMIAL)
def test_approximation_table_equals_row_loop(n, lag, bias):
    columns = joined_table(approximation_error(n, lag, bias))
    reference = zip(*loop_approximation_error(n, lag, bias))
    for name, column, expected in zip(("statistic", "exact_p", "approx_p", "difference"),
                                      columns, reference):
        assert np.array_equal(column, expected), name


def test_approximation_error_center_is_exact():
    statistic, exact_p, approx_p, difference = joined_table(approximation_error(3, 1, 0.5))
    assert statistic[1] == 1
    assert exact_p[1] == 1.0
    assert approx_p[1] == 1.0
    assert difference[1] == 0.0


def test_approximation_error_consistent_with_single_queries():
    dist = exact_distribution_enumerate(14, 1, 0.3)
    statistic, exact_p, _, _ = joined_table(approximation_error(14, 1, 0.3))
    for k, exact in zip(statistic.tolist(), exact_p.tolist()):
        assert exact == pytest.approx(exact_two_sided_p(dist, k), abs=1e-12)


def test_approximation_error_large_n_critical_region():
    _, _, approx_p, difference = joined_table(approximation_error(8192, 1, 0.5))
    region = (0.005 <= approx_p) & (approx_p <= 0.05)
    assert region.any(), "critical region not covered"
    assert np.abs(difference[region]).max() <= 0.002


def test_approximation_error_biased_small_n_nonzero():
    """At p != 1/2 the plug-in variance is off; the gap must show up."""
    _, _, _, difference = joined_table(approximation_error(20, 1, 0.3))
    assert np.abs(difference).max() > 0.0


@pytest.mark.parametrize("bias, pinned, estimated", [
    (0.5, 0.0077874, 0.0077776),
    (0.3, 0.0182624, 0.0024395),
])
def test_exact_size_drifts_from_alpha_away_from_fair_bias(bias, pinned, estimated):
    """The standardization's variance (n-l) q (1-q) is exact only at p = 1/2.
    Exact sizes at n = 53, lag 1, alpha 0.01, pinned as a known defect: with
    the bias pinned at 0.3 the test fails 1.8 times alpha under the null, and
    with it estimated a quarter of alpha.

    Pinned: the pmf mass of the statistic values whose approximate p-value
    is below alpha. Estimated: given k ones, the statistic's law is column k
    of the (statistic, ones) counts over C(n, k), tested at bias k / n, and
    k is Binomial(n, p), so the C(n, k) cancel; at k = 0 or n the stream is
    degenerate, never failed."""
    n, lag, alpha = 53, 1, 0.01
    statistic = np.arange(n - lag + 1)

    def failed(p):
        return p_values(normalize_statistic(statistic, n, lag, p)) < alpha

    pmf = np.array(exact_distribution_enumerate(n, lag, bias).pmf)
    assert math.fsum(pmf[failed(bias)].tolist()) == pytest.approx(pinned, abs=5e-8)
    counts = np.array(oracle._joint_counts(n, lag))
    size = math.fsum(
        bias**k * (1 - bias) ** (n - k) * math.fsum(counts[failed(k / n), k].tolist())
        for k in range(1, n)
    )
    assert size == pytest.approx(estimated, abs=5e-8)


def test_approximation_error_needs_an_oracle():
    with pytest.raises(ValueError):
        approximation_error(ENUMERATION_MAX_N + 1, 1, 0.3)


def test_approximation_error_k_range():
    statistic, *_ = joined_table(approximation_error(10, 1, 0.5, k_range=(2, 4)))
    assert statistic.tolist() == [2, 3, 4]
    with pytest.raises(ValueError):
        approximation_error(10, 1, 0.5, k_range=(0, 99))


def test_run_test_p_value_tracks_exact_binomial():
    """On a fair seeded stream the reported p-value matches the oracle
    module's normal-approximation route exactly and stays near the exact
    two-sided binomial value."""
    from qrng_audit.autocorr import TestParams, run_test
    from reference import ideal_source

    seq = ideal_source(0.5, 8192, seed=424242)
    fixed = run_test(seq, TestParams(lag=1, alpha=0.01, fixed_bias=0.5))
    k = fixed.statistic
    _, _, approx_p, _ = joined_table(approximation_error(8192, 1, 0.5, k_range=(k, k)))
    assert fixed.p_value == approx_p.item()

    # estimated-bias mode lands near the exact law too; the gap left is
    # boundary-cell discreteness (inclusive two-sided convention) plus the
    # plug-in bias estimate
    estimated = run_test(seq, TestParams(lag=1, alpha=0.01))
    exact = exact_two_sided_p(exact_distribution_binomial(8192, 1), k)
    assert estimated.p_value == pytest.approx(exact, abs=0.03)
