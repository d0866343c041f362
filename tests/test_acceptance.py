"""Acceptance suite: one test per release criterion, one printed line each.

Every expected value here was computed from an independent oracle before the
implementation existed (high-precision erfc table, brute-force XOR loops,
exact enumeration) or is an analytic surrogate with its tolerance pinned in
the test. Seeds are frozen; every criterion is deterministic.
"""

import csv
import io
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from qrng_audit.aggregate import build_matrix, failure_ratio_per_qubit, spearman
from qrng_audit.autocorr import (
    BitSequence,
    TestParams,
    Verdict,
    autocorr_statistic,
    normalize_statistic,
    p_value,
    run_test,
)
from qrng_audit.cli import main
from qrng_audit.ingest import ParseError, parse_jobs
from qrng_audit.oracle import (
    approximation_error,
    exact_distribution_binomial,
    exact_distribution_enumerate,
)
from qrng_audit.simulate import (
    DeviceRunConfig,
    drifting_bias,
    generate_calibration_series,
    generate_device_run,
)
from reference import (
    derive_substream_seed,
    ideal_source,
    joined_table,
    markov_source,
    serialize_jobs_str,
    variance,
    whole_row_parse_jobs,
    xor_count_mean,
    xor_count_variance_lag1,
)

TABLE = Path(__file__).parent / "data" / "erfc_reference_200.csv"
MASTER = 20190509
PARAMS = TestParams(lag=1, alpha=0.01)


def report(line):
    print(f"\n[acceptance] {line}")


def test_criterion_01_statistic_exactness():
    """1000 random sequences, all lags, against a double-loop XOR oracle."""
    rng = random.Random(1)
    start = time.perf_counter()
    checked = 0
    for _ in range(1000):
        n = rng.randint(2, 64)
        bits = [rng.randint(0, 1) for _ in range(n)]
        seq = BitSequence(bits)
        for lag in range(1, n):
            oracle = sum(bits[i] ^ bits[i + lag] for i in range(n - lag))
            assert autocorr_statistic(seq, lag) == oracle
            checked += 1
    elapsed = time.perf_counter() - start
    report(f"criterion 1 PASS: {checked} (sequence, lag) pairs exact in {elapsed:.1f}s")
    assert elapsed < 5.0


def test_criterion_02_normalization_spot_value():
    normalized = normalize_statistic(60, 101, 1, 0.5)
    assert normalized == 2.0
    p = p_value(2.0)
    assert p == pytest.approx(0.04550026, abs=1e-6)
    report(f"criterion 2 PASS: A'=2.0 exact, p(2.0)={p:.8f}")


def test_criterion_03_erfc_accuracy():
    with TABLE.open() as fh:
        rows = [(float(r["x"]), float(r["erfc"])) for r in csv.DictReader(fh)]
    assert len(rows) == 200
    worst = max(abs(math.erfc(x) - ref) for x, ref in rows)
    assert worst <= 1e-12
    assert abs(math.erfc(1.0) - 0.157299207050285130658779364917) <= 1e-12
    report(f"criterion 3 PASS: max |err| {worst:.2e} over 200 points, erfc(1) pinned")


def test_criterion_04_oracle_agreement():
    start = time.perf_counter()
    worst_pmf = 0.0
    for n in range(2, 21):
        for lag in range(1, n):
            enum = exact_distribution_enumerate(n, lag, 0.5)
            closed = exact_distribution_binomial(n, lag)
            worst_pmf = max(worst_pmf, float(np.max(np.abs(enum.pmf - closed.pmf))))
    assert worst_pmf <= 1e-12

    worst_mean = worst_var = 0.0
    for bias in (0.1, 0.3, 0.5):
        for n in range(2, 21):
            for lag in range(1, n):
                dist = exact_distribution_enumerate(n, lag, bias)
                worst_mean = max(
                    worst_mean, abs(dist.mean() - xor_count_mean(n, lag, bias))
                )
                if lag == 1:
                    worst_var = max(
                        worst_var,
                        abs(variance(dist) - xor_count_variance_lag1(n, bias)),
                    )
    elapsed = time.perf_counter() - start
    assert worst_mean <= 1e-9
    assert worst_var <= 1e-9
    report(
        f"criterion 4 PASS: pmf gap {worst_pmf:.1e}, mean gap {worst_mean:.1e}, "
        f"variance gap {worst_var:.1e} in {elapsed:.1f}s"
    )
    assert elapsed < 120.0


def test_criterion_05_normal_approximation_gap():
    _, exact_p, approx_p, difference = joined_table(approximation_error(8192, 1, 0.5))
    region = (((0.005 <= approx_p) & (approx_p <= 0.05))
              | ((0.005 <= exact_p) & (exact_p <= 0.05)))
    points = np.count_nonzero(region)
    assert points > 50
    worst = float(np.abs(difference[region]).max())
    assert worst <= 0.002
    report(f"criterion 5 PASS: max |exact-approx| {worst:.5f} over {points} points")


def test_criterion_06_false_positive_calibration():
    start = time.perf_counter()
    fails = 0
    for i in range(2000):
        seq = ideal_source(0.5, 8192, derive_substream_seed(MASTER, 6, i))
        fails += run_test(seq, PARAMS).verdict is Verdict.FAIL
    elapsed = time.perf_counter() - start
    proportion = fails / 2000
    assert 0.002 <= proportion <= 0.025
    report(f"criterion 6 PASS: fail proportion {proportion:.4f} in {elapsed:.1f}s")
    assert elapsed < 60.0


def _markov_battery():
    sequences = [
        markov_source(0.5, 0.05, 8192, derive_substream_seed(MASTER, 78, i))
        for i in range(200)
    ]
    return sequences


def test_criterion_07_detection_power():
    fails = sum(
        run_test(seq, PARAMS).verdict is Verdict.FAIL for seq in _markov_battery()
    )
    power = fails / 200
    assert power >= 0.90
    report(f"criterion 7 PASS: detection power {power:.3f}")


def test_criterion_08_markov_mean_law():
    stats = np.array([autocorr_statistic(seq, 1) for seq in _markov_battery()])
    expected = 8191 * 0.475
    standard_error = stats.std(ddof=1) / math.sqrt(stats.size)
    deviation = abs(stats.mean() - expected)
    assert deviation <= 3.0 * standard_error
    report(
        f"criterion 8 PASS: mean A_1 {stats.mean():.1f} vs {expected:.1f} "
        f"({deviation / standard_error:.2f} SE)"
    )


def test_criterion_09_full_scale_fleet_surrogate(tmp_path):
    """Default pipeline: 579 jobs x 20 qubits x 8192 bits, Ideal(0.5)."""
    workdir = tmp_path / "fleet"
    start = time.perf_counter()
    assert main(["pipeline", "--workdir", str(workdir)]) == 0
    elapsed = time.perf_counter() - start
    footer = {}
    for line in (workdir / "report.csv").read_text().splitlines():
        if line.startswith("# ") and "=" in line:
            key, value = line[2:].split("=", 1)
            footer[key] = value
    proportion = float(footer["simultaneous_pass_proportion"])
    assert abs(proportion - 0.818) <= 0.05
    report(
        f"criterion 9 PASS: simultaneous-pass {proportion:.4f} "
        f"(analytic 0.99^20 = 0.8179) in {elapsed:.1f}s"
    )
    assert elapsed < 300.0
    (workdir / "jobs.csv").unlink()  # free ~95 MB in the tmp retention dirs


def test_criterion_10_t1_relationship():
    # null side: ideal sources, drifting calibration, no T1-failure relation
    config = DeviceRunConfig(
        qubit_count=20, jobs=120, bits_per_job=8192,
        bias=0.5, master_seed=MASTER,
    )
    matrix = build_matrix(generate_device_run(config), PARAMS)
    ratios = failure_ratio_per_qubit(matrix)
    t1_sum: dict[int, list[float]] = {}
    for rec in generate_calibration_series(config):
        t1_sum.setdefault(rec.qubit_id, []).append(rec.t1_us)
    means = [float(np.mean(t1_sum[q])) for q in range(20)]
    null_rho = spearman(means, [ratios[q] for q in range(20)])
    assert abs(null_rho) < 0.55

    # detection side: lag-1 correlation ramped over qubit index, constant T1
    rhos = [0.05 * (q + 1) / 20 for q in range(20)]
    ramp_config = DeviceRunConfig(
        qubit_count=20, jobs=120, bits_per_job=8192,
        bias=0.5, rho=rhos, master_seed=MASTER,
    )
    ramp_matrix = build_matrix(generate_device_run(ramp_config), PARAMS)
    ramp_ratios = failure_ratio_per_qubit(ramp_matrix)
    ramp_rho = spearman(rhos, [ramp_ratios[q] for q in range(20)])
    assert ramp_rho >= 0.8
    report(
        f"criterion 10 PASS: null spearman {null_rho:+.3f} (<0.55), "
        f"ramp spearman {ramp_rho:+.3f} (>=0.8)"
    )


def test_criterion_11_round_trip_and_fuzz():
    # round trip on generated corpora covering all three source families
    corpora = [
        DeviceRunConfig(qubit_count=3, jobs=4, bits_per_job=32,
                        bias=0.42, master_seed=2),
        DeviceRunConfig(qubit_count=2, jobs=6, bits_per_job=16,
                        bias=0.5, rho=0.2, master_seed=3),
        DeviceRunConfig(qubit_count=2, jobs=4, bits_per_job=16,
                        bias=drifting_bias(((0.3, 2), (0.7, 2))),
                        master_seed=4),
    ]
    for config in corpora:
        jobs = generate_device_run(config)
        text = serialize_jobs_str(jobs)
        lines = text.encode().splitlines(True)
        assert serialize_jobs_str(whole_row_parse_jobs(iter(lines))) == text
        # ``test`` of the written file gives the matrix of the generated grid
        tested, expected = parse_jobs(io.BytesIO(text.encode()), PARAMS), build_matrix(jobs, PARAMS)
        assert (tested.job_ids, tested.qubit_ids, tested.n) == (
            expected.job_ids, expected.qubit_ids, expected.n)
        for field in ("statistic", "bias", "normalized", "p_value"):
            np.testing.assert_array_equal(getattr(tested, field), getattr(expected, field))

    # 10^4 mutated files: structured errors only, zero crashes
    base = serialize_jobs_str(generate_device_run(corpora[0]))
    rng = random.Random(11)
    alphabet = "01,\n\rjZT:-x\"'\x00 9"
    parsed_ok = rejected = 0
    start = time.perf_counter()
    for _ in range(10_000):
        text = list(base)
        for _ in range(rng.randint(1, 6)):
            kind = rng.randrange(3)
            pos = rng.randrange(len(text))
            if kind == 0:
                text[pos] = rng.choice(alphabet)
            elif kind == 1:
                text.insert(pos, rng.choice(alphabet))
            else:
                del text[pos]
        try:
            parse_jobs(io.BytesIO("".join(text).encode()), PARAMS)
            parsed_ok += 1
        except ParseError:
            rejected += 1
        # anything else propagates and fails the test
    elapsed = time.perf_counter() - start
    report(
        f"criterion 11 PASS: 3 corpora round-trip, 10000 mutants "
        f"({rejected} rejected, {parsed_ok} parsed) in {elapsed:.1f}s, 0 crashes"
    )
