"""Fleet aggregation: matrix, ratios, pass proportions, rank correlation."""

import io
import math
from array import array
from datetime import datetime, timedelta, timezone
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrng_audit.aggregate import (
    _rank_with_ties,
    build_report,
    degenerate_count_per_qubit,
    failure_ratio_per_qubit,
    mean_t1_per_qubit,
    pass_proportion_overall,
    simultaneous_pass_proportion,
    spearman,
    write_report_csv,
    write_scatter_csv,
)
from qrng_audit.autocorr import (BitSequence, PValueMatrix, TestParams, Verdict, run_test,
                                 stream_counts)
from qrng_audit.ingest import (
    CalibrationRecord,
    ParseError,
    format_timestamp,
    read_results,
    write_results,
)
from qrng_audit.simulate import DeviceRunConfig, stream_run
from reference import grid_matrix, whole_row_parse_jobs

TS = datetime(2019, 5, 9, 11, 24, 27, tzinfo=timezone.utc)


def make_rows(jobs):
    """The grid parsed from a job file of (job_id, minute, [(qubit, bits),
    ...]) job specs: one row per (job, qubit), in spec order."""
    lines = [f"{job_id},{format_timestamp(TS + timedelta(minutes=minute))},{q},{bits}\n"
             for job_id, minute, streams in jobs for q, bits in streams]
    return whole_row_parse_jobs(
        io.BytesIO(("job_id,timestamp,qubit_id,bits\n" + "".join(lines)).encode()))


def alternating(n):
    return "01" * (n // 2)


# ------------------------------------------------------------------ matrix

def test_from_counts_all_zero_cells_degenerate():
    jobs = [
        ("j1", 0, [(0, "0" * 16), (1, "0" * 16)]),
        ("j2", 1, [(0, "0" * 16), (1, "0" * 16)]),
    ]
    matrix = grid_matrix(make_rows(jobs), TestParams(lag=1))
    assert matrix.degenerate.all() and not matrix.failed().any()
    assert np.isnan(matrix.normalized).all() and np.isnan(matrix.p_value).all()
    assert degenerate_count_per_qubit(matrix) == {0: 2, 1: 2}


def test_from_counts_alternating_cells_fail():
    jobs = [("j1", 0, [(0, alternating(512)), (1, alternating(512))])]
    matrix = grid_matrix(make_rows(jobs), TestParams(lag=1))
    assert matrix.failed().all() and not matrix.degenerate.any()


def test_grid_orders_rows_by_timestamp():
    jobs = [
        ("late", 30, [(0, "0110")]),
        ("early", 0, [(0, "1001")]),
    ]
    matrix = grid_matrix(make_rows(jobs), TestParams(lag=1))
    assert matrix.job_ids == ("early", "late")


def test_grid_rejects_ragged_qubits():
    jobs = [
        ("j1", 0, [(0, "0110")]),
        ("j2", 1, [(0, "0110"), (1, "0110")]),
    ]
    with pytest.raises(ParseError, match="job 'j1' has no row for qubit 1") as err:
        make_rows(jobs)
    assert isinstance(err.value, ParseError)


def test_stream_run_ideal_fleet_false_positive_band():
    """Seeded fair fleet: fail-cell fraction stays in the alpha=0.01 band."""
    config = DeviceRunConfig(qubit_count=20, jobs=100, bits_per_job=8192,
                             bias=0.5, master_seed=12)
    matrix = stream_run(config, TestParams(lag=1))
    fails = int(matrix.failed().sum())
    assert 0.002 <= fails / 2000 <= 0.025


@st.composite
def stream_grids(draw):
    """A small job set: random n, lag < n, bias mode, and streams that may be
    all zeros or all ones."""
    n = draw(st.integers(2, 80))
    lag = draw(st.integers(1, n - 1))
    fixed_bias = draw(st.one_of(
        st.none(), st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0)))
    stream = st.one_of(
        st.lists(st.integers(0, 1), min_size=n, max_size=n).map(
            lambda bits: "".join(map(str, bits))),
        st.sampled_from(["0" * n, "1" * n]),
    )
    n_qubits = draw(st.integers(1, 3))
    jobs = [
        (f"j{r}", r, [(q, draw(stream)) for q in range(n_qubits)])
        for r in range(draw(st.integers(1, 3)))
    ]
    return jobs, TestParams(lag=lag, fixed_bias=fixed_bias)


@given(stream_grids())
@settings(max_examples=150, deadline=None)
def test_from_counts_equals_run_test_cell_for_cell(case):
    jobs, params = case
    matrix = grid_matrix(make_rows(jobs), params)
    failed, degenerate = matrix.failed(), matrix.degenerate
    for r, (_, _, streams) in enumerate(jobs):
        for c, (_, bits) in enumerate(streams):
            ref = run_test(BitSequence.from_string(bits), params)
            assert matrix.statistic[r, c] == ref.statistic
            assert matrix.bias[r, c] == ref.bias
            if ref.normalized is None:
                assert math.isnan(matrix.normalized[r, c])
                assert math.isnan(matrix.p_value[r, c])
            else:
                assert matrix.normalized[r, c] == ref.normalized
                assert matrix.p_value[r, c] == ref.p_value
            assert failed[r, c] == (ref.verdict is Verdict.FAIL)
            assert degenerate[r, c] == (ref.verdict is Verdict.DEGENERATE)
            assert matrix.low_sample[r, c] == ref.low_sample


@pytest.mark.parametrize("column", [tuple, partial(array, "q"), np.array],
                         ids=["tuple", "array", "ndarray"])
def test_from_counts_placement_matches_run_test(column):
    """Each row's counts in file order, as any flat sequence of ints (the
    callers append to ``array("q")``s), the rows filed in reverse time order
    with qubits descending, and ``order`` the gather that fills the grid row
    by row."""
    n = 8191
    bits = np.random.default_rng(5).integers(0, 2, (9, n), dtype=np.uint8)
    params = TestParams(lag=3)
    statistic, ones = map(column, zip(*(stream_counts(row, params.lag) for row in bits)))
    # File row 3 * r + i holds job j{r} on qubit 2 - i; the grid's job k is j{2 - k}.
    order = np.array([3 * (2 - k) + 2 - q for k in range(3) for q in range(3)])
    matrix = PValueMatrix.from_counts(("j2", "j1", "j0"), (0, 1, 2), n, statistic, ones, params,
                                      order)
    for cell, row in zip(np.ndindex(3, 3), order):
        ref = run_test(BitSequence(bits[row]), params)
        assert (matrix.statistic[cell], matrix.bias[cell]) == (ref.statistic, ref.bias)
        assert matrix.p_value[cell] == ref.p_value


# ---------------------------------------------------------- ratios, passes

def build_verdict_matrix(columns):
    """columns: per-qubit verdict strings, 'F'/'P'/'D'."""
    n_rows = len(columns[0])
    jobs = []
    for r in range(n_rows):
        streams = []
        for q, column in enumerate(columns):
            kind = column[r]
            bits = {"F": alternating(512), "P": None, "D": "1" * 512}[kind]
            if bits is None:
                # seeded balanced stream that passes comfortably
                bits = "0110" * 128
            streams.append((q, bits))
        jobs.append((f"j{r}", r, streams))
    return grid_matrix(make_rows(jobs), TestParams(lag=1))


def test_failure_ratio_examples():
    matrix = build_verdict_matrix(["FPPP"])
    assert failure_ratio_per_qubit(matrix) == {0: 0.25}
    matrix = build_verdict_matrix(["PPPP"])
    assert failure_ratio_per_qubit(matrix) == {0: 0.0}
    matrix = build_verdict_matrix(["FPDP"])
    assert failure_ratio_per_qubit(matrix)[0] == pytest.approx(1 / 3)


def test_failure_ratio_all_degenerate_is_nan():
    matrix = build_verdict_matrix(["DD"])
    assert math.isnan(failure_ratio_per_qubit(matrix)[0])


def test_simultaneous_pass_examples():
    assert simultaneous_pass_proportion(build_verdict_matrix(["PP", "PP"])) == 1.0
    assert simultaneous_pass_proportion(build_verdict_matrix(["FP", "PF"])) == 0.0
    assert simultaneous_pass_proportion(build_verdict_matrix(["PP", "PF"])) == 0.5
    # a degenerate cell keeps its row from counting as simultaneous pass
    assert simultaneous_pass_proportion(build_verdict_matrix(["PP", "PD"])) == 0.5


def test_counting_identity_per_column():
    matrix = build_verdict_matrix(["FPD", "PPP"])
    ratios = failure_ratio_per_qubit(matrix)
    degenerates = degenerate_count_per_qubit(matrix)
    failed, degenerate = matrix.failed(), matrix.degenerate
    for col, qubit in enumerate(matrix.qubit_ids):
        fails = int(failed[:, col].sum())
        passes = int((~failed & ~degenerate)[:, col].sum())
        assert fails + passes + degenerates[qubit] == len(matrix.job_ids)
        assert ratios[qubit] == fails / (fails + passes)


def test_simultaneous_pass_bounded_by_min_column_pass():
    matrix = build_verdict_matrix(["FPPP", "PPFP"])
    bound = min(1.0 - r for r in failure_ratio_per_qubit(matrix).values())
    assert simultaneous_pass_proportion(matrix) <= bound


def test_pass_proportion_overall_excludes_degenerate():
    matrix = build_verdict_matrix(["FPDP"])
    assert pass_proportion_overall(matrix) == pytest.approx(2 / 3)


def test_permuting_jobs_leaves_report_fields_unchanged():
    columns = ["FPPPF", "PPFPP"]
    matrix = build_verdict_matrix(columns)
    jobs = [
        (f"j{r}", 10 - r, [  # reversed timestamps
            (q, alternating(512) if columns[q][r] == "F" else "0110" * 128)
            for q in range(2)
        ])
        for r in range(5)
    ]
    permuted = grid_matrix(make_rows(jobs), TestParams(lag=1))
    assert failure_ratio_per_qubit(matrix) == failure_ratio_per_qubit(permuted)
    assert simultaneous_pass_proportion(matrix) == simultaneous_pass_proportion(permuted)


# ---------------------------------------------------------------------- t1

def test_mean_t1_examples():
    assert mean_t1_per_qubit([CalibrationRecord(TS, 0, 70.0)], [0]) == {0: 70.0}
    records = [CalibrationRecord(TS, 0, 60.0), CalibrationRecord(TS, 0, 80.0)]
    assert mean_t1_per_qubit(records, [0]) == {0: 70.0}


def test_mean_t1_missing_qubit_flagged_nan():
    means = mean_t1_per_qubit([CalibrationRecord(TS, 0, 70.0)], qubit_ids=[0, 1])
    assert means[0] == 70.0
    assert math.isnan(means[1])


def test_mean_t1_of_simulated_drifting_series():
    from qrng_audit.simulate import generate_calibration_series

    config = DeviceRunConfig(qubit_count=3, jobs=661, bits_per_job=8, master_seed=6)
    records = generate_calibration_series(config)
    assert len(records) == 3 * 25
    means = mean_t1_per_qubit(records, range(3))
    for q in range(3):
        series = [r.t1_us for r in records if r.qubit_id == q]
        assert means[q] == pytest.approx(sum(series) / len(series), abs=1e-9)


# ---------------------------------------------------------------- spearman

def test_spearman_examples():
    assert spearman([1, 2, 3], [10, 20, 30]) == 1.0
    assert spearman([1, 2, 3], [30, 20, 10]) == -1.0
    assert spearman([1, 2, 3], [3, 1, 2]) == pytest.approx(-0.5)


def test_spearman_needs_three_pairs():
    assert spearman([1, 2], [3, 4]) is None
    assert spearman([1, 2, math.nan], [3, 4, 5]) is None
    assert spearman([1, 2, 3], [5, 5, 5]) is None
    with pytest.raises(ValueError, match="length mismatch"):
        spearman([1, 2, 3], [3, 4])


def test_spearman_drops_nan_pairwise():
    assert spearman([1, 2, 3, math.nan], [10, 20, 30, 40]) == 1.0


def test_spearman_handles_ties_with_average_ranks():
    # against scipy's tie handling
    from scipy import stats as sp_stats

    xs = [1.0, 2.0, 2.0, 3.0, 5.0, 5.0, 5.0]
    ys = [3.0, 1.0, 4.0, 4.0, 2.0, 6.0, 5.0]
    expected = sp_stats.spearmanr(xs, ys).statistic
    assert spearman(xs, ys) == pytest.approx(expected, abs=1e-12)


@given(st.lists(st.floats(allow_nan=False) | st.sampled_from([-0.0, 0.0, 1.0]), min_size=1,
                max_size=40))
@settings(max_examples=200, deadline=None)
def test_ranks_are_average_ranks(values):
    """Ties (-0.0 and 0.0 among them) share their average rank, to the bit."""
    from scipy import stats as sp_stats

    x = np.array(values)
    assert _rank_with_ties(x).tolist() == sp_stats.rankdata(x, method="average").tolist()


def test_spearman_scale_invariant():
    xs = [3.0, 1.0, 4.0, 1.5, 9.0]
    ys = [0.1, 0.0, 0.3, 0.05, 0.2]
    assert spearman([x * 7.3 for x in xs], ys) == pytest.approx(spearman(xs, ys))


# ------------------------------------------------------------------ report

def test_build_report_fields_and_csv():
    matrix = build_verdict_matrix(["FPPP", "PPPP", "PPDP"])
    calib = [CalibrationRecord(TS, q, 50.0 + q) for q in range(3)]
    report = build_report(matrix, calib)
    assert report.qubit_ids == (0, 1, 2)
    assert report.degenerate_count == 1
    assert report.simultaneous_pass_proportion == 0.5
    assert report.spearman_t1_failure is not None
    buf = io.StringIO()
    write_report_csv(report, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "qubit_id,failure_ratio,mean_t1_us,degenerate_count"
    assert len([l for l in lines if not l.startswith("#")]) == 4
    assert any(l.startswith("# simultaneous_pass_proportion=") for l in lines)
    buf = io.StringIO()
    write_scatter_csv(report, buf)
    assert len(buf.getvalue().splitlines()) == 4


def test_build_report_with_tied_failure_ratios():
    """Every cell passing leaves every failure ratio 0: the ranks of that
    side are tied, the coefficient is undefined, and the footer omits it."""
    matrix = build_verdict_matrix(["PP", "PP", "PP"])
    calib = [CalibrationRecord(TS, q, 50.0 + q) for q in range(3)]
    report = build_report(matrix, calib)
    assert report.spearman_t1_failure is None
    buf = io.StringIO()
    write_report_csv(report, buf)
    footer = [l for l in buf.getvalue().splitlines() if l.startswith("#")]
    assert not any(l.startswith(("# spearman_t1_failure=", "# note=")) for l in footer)


def test_build_report_without_calibration():
    report = build_report(build_verdict_matrix(["PP"]))
    assert report.mean_t1_us is None
    assert report.spearman_t1_failure is None
    buf = io.StringIO()
    write_report_csv(report, buf)
    assert "mean_t1_us" in buf.getvalue().splitlines()[0]


def results_text(matrix):
    buf = io.StringIO()
    write_results(matrix, buf)
    return buf.getvalue()


def test_matrix_from_results_round_trip():
    matrix = build_verdict_matrix(["FPD", "PPP"])
    rebuilt = read_results(io.BytesIO(results_text(matrix).encode()))
    assert (rebuilt.job_ids, rebuilt.qubit_ids) == (matrix.job_ids, matrix.qubit_ids)
    assert (rebuilt.n, rebuilt.lag, rebuilt.alpha) == (matrix.n, matrix.lag, matrix.alpha)
    for field in ("statistic", "bias", "normalized", "p_value"):
        assert np.array_equal(getattr(rebuilt, field), getattr(matrix, field),
                              equal_nan=True), field


def test_matrix_from_results_places_shuffled_rows():
    matrix = build_verdict_matrix(["FPD", "PPF"])
    header, *rows = results_text(matrix).splitlines()
    shuffled = [header, rows[4], rows[1], rows[0], rows[5], rows[3], rows[2]]
    rebuilt = read_results(io.BytesIO("\n".join(shuffled).encode()))
    assert rebuilt.job_ids == ("j2", "j0", "j1")  # order of first appearance
    assert np.array_equal(rebuilt.statistic, matrix.statistic[[2, 0, 1]])
    assert failure_ratio_per_qubit(rebuilt) == failure_ratio_per_qubit(matrix)


def test_matrix_from_results_rejects_ragged():
    matrix = build_verdict_matrix(["FP", "PP"])
    lines = results_text(matrix).splitlines()
    with pytest.raises(ParseError):
        read_results(io.BytesIO("\n".join(lines[:-1]).encode()))
    with pytest.raises(ParseError):
        read_results(io.BytesIO("\n".join(lines + lines[-1:]).encode()))
    with pytest.raises(ParseError, match="^no result rows to aggregate$"):
        read_results(io.BytesIO(lines[0].encode()))


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5, math.nan])
def test_matrix_refuses_alpha_outside_unit_interval(alpha):
    """A level outside (0, 1) would read every decided cell as failed (or
    every one as passed): ``read_results`` refuses it as ``TestParams`` does."""
    matrix = build_verdict_matrix(["FPD", "PPP"])
    with pytest.raises(ValueError) as params_error:
        TestParams(alpha=alpha)
    with pytest.raises(ValueError) as read_error:
        read_results(io.BytesIO(results_text(matrix).encode()), alpha=alpha)
    assert str(read_error.value) == str(params_error.value)
