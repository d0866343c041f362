"""Bit-stream sources: determinism, parameter laws, and the device-run shape."""

import math
import tracemalloc
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import stats as sp_stats

from qrng_audit.autocorr import BLOCK_BYTES, BitSequence, autocorr_statistic
from qrng_audit.simulate import (
    JOB_INTERVAL_S,
    RUN_START,
    DeviceRunConfig,
    _chain_bits,
    _generators,
    _seed_grid,
    _seed_sequence_words,
    device_run_blocks,
    drifting_bias,
    generate_calibration_series,
    generate_device_run,
)
from reference import bits_of, derive_substream_seed, ideal_source, markov_source, stream_seed


# ------------------------------------------------------------------- ideal

def test_ideal_extreme_biases():
    assert ideal_source(0.0, 8, seed=1).to_string() == "00000000"
    assert ideal_source(1.0, 8, seed=1).to_string() == "11111111"


def test_ideal_fair_fraction():
    seq = ideal_source(0.5, 100_000, seed=42)
    assert abs(seq.ones_count() / 100_000 - 0.5) < 0.01


def test_ideal_deterministic():
    a = ideal_source(0.3, 4096, seed=99)
    b = ideal_source(0.3, 4096, seed=99)
    c = ideal_source(0.3, 4096, seed=100)
    assert a == b
    assert a != c


def test_ideal_rejects_bad_params():
    with pytest.raises(ValueError):
        ideal_source(1.5, 8, seed=0)
    with pytest.raises(ValueError):
        ideal_source(0.5, 0, seed=0)


# ------------------------------------------------------------------ markov

def test_markov_rho_zero_equals_ideal():
    """Same seed, rho=0: identical uniform consumption, identical bits."""
    for seed in (3, 17, 2**40):
        assert markov_source(0.37, 0.0, 2048, seed) == ideal_source(0.37, 2048, seed)


def test_markov_rejects_out_of_range_rho():
    with pytest.raises(ValueError):
        markov_source(0.5, 1.0, 16, seed=0)
    with pytest.raises(ValueError):
        markov_source(0.5, 1.5, 16, seed=0)
    with pytest.raises(ValueError):
        markov_source(0.2, -0.3, 16, seed=0)  # below -min(p/(1-p), (1-p)/p)
    markov_source(0.2, -0.2, 16, seed=0)  # inside the valid range


def loop_markov_bits(bias, rho, n, seed):
    """The Markov chain one draw at a time: the reference the vectorized
    markov_source must match bit for bit."""
    u = np.random.Generator(np.random.PCG64(seed)).random(n)
    stay = bias + rho * (1.0 - bias)
    move = bias * (1.0 - rho)
    bits = np.empty(n, dtype=np.uint8)
    previous = u[0] < bias
    bits[0] = previous
    for i, draw in enumerate(u[1:].tolist(), start=1):
        previous = draw < (stay if previous else move)
        bits[i] = previous
    return bits


@st.composite
def markov_parameters(draw):
    """(bias, rho) anywhere in the valid region, its negative limit included."""
    bias = draw(st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0))
    limit = -min(bias / (1 - bias), (1 - bias) / bias) if 0.0 < bias < 1.0 else 0.0
    share = draw(st.sampled_from([0.0]) | st.floats(0.0, 1.0, exclude_max=True))
    rho = draw(st.sampled_from([limit, 0.0]) | st.just(limit + share * (1.0 - limit)))
    try:
        DeviceRunConfig(bias=bias, rho=rho)
    except ValueError:
        assume(False)
    return bias, rho


@given(markov_parameters(), st.sampled_from([1, 2]) | st.integers(1, 2000),
       st.integers(0, 2**64 - 1))
# rho below float resolution: stay == move == 0.5, so every draw is forced
@example((0.5, 1e-17), 4096, 21)
# draws 0 and 1 both fall between the thresholds: bit 0 is still forced to
# u[0] < bias, and the first free run follows it
@example((0.5, 0.05), 16, 227)
# the last three draws are free: a run that reaches the last bit
@example((0.3, -0.3), 64, 22)
# bias 0.5 at rho's negative limit: stay = 0, move = 1, every draw after
# bit 0 free, so the stream alternates from bit 0
@example((0.5, -1.0), 2000, 5)
# one stream of the reset-markov benchmark's length and rho
@example((0.5, 0.005), 131072, 7)
@settings(max_examples=300, deadline=None)
def test_markov_matches_one_draw_at_a_time_loop(params, n, seed):
    bias, rho = params
    np.testing.assert_array_equal(markov_source(bias, rho, n, seed).bits,
                                  loop_markov_bits(bias, rho, n, seed))


def test_markov_stream_holds_little_beside_its_draws():
    """Past its uniform draws a stream's fill works on the free draws alone,
    about 0.5% of them at rho = 0.005, and builds no full-length index
    array: the traced peak of one 131072-bit stream stays below twice the
    1 MiB (8 bytes a bit) of the draws."""
    n = 131072
    rng = np.random.default_rng(3)
    _chain_bits(0.5, 0.005, n, rng)  # any lazy set-up happens untraced
    tracemalloc.start()
    try:
        _chain_bits(0.5, 0.005, n, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * n


def test_markov_near_one_holds_first_bit():
    seq = markov_source(0.5, 0.999, 100, seed=5)
    assert autocorr_statistic(seq, 1) <= 2


def test_markov_stationary_fraction():
    p, rho, n = 0.4, 0.3, 1_000_000
    seq = markov_source(p, rho, n, seed=8)
    tolerance = 4.0 * math.sqrt(p * (1 - p) * (1 + rho) / ((1 - rho) * n))
    assert abs(seq.ones_count() / n - p) < tolerance


def test_markov_adjacent_differ_law():
    """Adjacent bits differ with probability 2p(1-p)(1-rho)."""
    p, rho, n = 0.5, 0.2, 1_000_000
    seq = markov_source(p, rho, n, seed=11)
    q = 2 * p * (1 - p) * (1 - rho)
    observed = autocorr_statistic(seq, 1) / (n - 1)
    tolerance = 4.0 * math.sqrt(q * (1 - q) / (n - 1))
    assert abs(observed - q) < tolerance


def test_markov_negative_rho_raises_differ_rate():
    p, rho, n = 0.5, -0.2, 200_000
    seq = markov_source(p, rho, n, seed=13)
    q = 2 * p * (1 - p) * (1 - rho)
    observed = autocorr_statistic(seq, 1) / (n - 1)
    assert abs(observed - q) < 4.0 * math.sqrt(q * (1 - q) / (n - 1))


def test_markov_rho_zero_collapse_chi_square():
    """A_1 histograms of rho=0 markov and ideal streams are one population."""
    n, count = 1024, 1000
    ideal_stats = [
        autocorr_statistic(ideal_source(0.5, n, seed=derive_substream_seed(1, i)), 1)
        for i in range(count)
    ]
    markov_stats = [
        autocorr_statistic(
            markov_source(0.5, 0.0, n, seed=derive_substream_seed(2, i)), 1
        )
        for i in range(count)
    ]
    edges = np.quantile(ideal_stats + markov_stats, np.linspace(0, 1, 11))
    edges[0], edges[-1] = -np.inf, np.inf
    o1, _ = np.histogram(ideal_stats, bins=edges)
    o2, _ = np.histogram(markov_stats, bins=edges)
    expected1 = (o1 + o2) * o1.sum() / (o1.sum() + o2.sum())
    expected2 = (o1 + o2) * o2.sum() / (o1.sum() + o2.sum())
    chi2 = float(np.sum((o1 - expected1) ** 2 / expected1)
                 + np.sum((o2 - expected2) ** 2 / expected2))
    p = float(sp_stats.chi2.sf(chi2, len(o1) - 1))
    assert p > 0.001, f"chi2={chi2:.1f}, p={p:.5f}"


# ---------------------------------------------------------------- seeds

def test_substream_seeds_are_deterministic_and_distinct():
    seen = {
        stream_seed(42, job, qubit) for job in range(50) for qubit in range(20)
    }
    assert len(seen) == 1000
    assert stream_seed(42, 3, 7) == stream_seed(42, 3, 7)
    assert stream_seed(42, 3, 7) != stream_seed(43, 3, 7)
    assert derive_substream_seed(42, 0, 3) != derive_substream_seed(42, 3, 0)


@given(st.integers(0, 2**64 - 1))
@example(0)
@example(1)
@example(2**32 - 1)
@example(2**32)
@example(2**64 - 1)
@settings(max_examples=500, deadline=None)
def test_vector_seeding_sets_numpys_own_pcg64_state(seed):
    """The one-pass seeding equals ``np.random.PCG64(seed)`` itself, so a
    numpy release that seeds differently fails here, not in a digest."""
    seeds = np.array([seed], dtype=np.uint64)
    np.testing.assert_array_equal(_seed_sequence_words(seeds)[0],
                                  np.random.SeedSequence(seed).generate_state(4, np.uint64))
    assert next(_generators(seeds)).bit_generator.state == np.random.PCG64(seed).state


def test_vector_seeding_sets_each_seed_of_an_array_in_turn():
    seeds = _seed_grid(20190509, 0, 30, 20)
    states = [rng.bit_generator.state for rng in _generators(seeds)]
    assert states == [np.random.PCG64(seed).state for seed in seeds.ravel().tolist()]


@given(st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1),
       st.sampled_from([(1, 1), (1, 7), (6, 1)]) | st.tuples(st.integers(1, 5), st.integers(1, 5)))
@settings(max_examples=100, deadline=None)
def test_seed_grid_equals_the_scalar_splitmix_seeds(master, shape):
    jobs, qubits = shape
    grid = _seed_grid(master, 0, jobs, qubits)
    assert grid.dtype == np.uint64 and grid.shape == shape
    assert grid.tolist() == [[stream_seed(master, j, q) for q in range(qubits)]
                             for j in range(jobs)]
    assert _seed_grid(master, 1, qubits).tolist() == [derive_substream_seed(master, 1, q)
                                                      for q in range(qubits)]


# ------------------------------------------------------------- device runs

def test_device_run_shape_and_subset_regeneration():
    config = DeviceRunConfig(
        qubit_count=3, jobs=2, bits_per_job=16, bias=0.5, master_seed=7
    )
    rows = generate_device_run(config)
    assert (rows.job_ids, rows.qubit_ids) == (("j0001", "j0002"), (0, 1, 2))
    assert bits_of(rows).shape == (6, 16) and rows.bits.dtype == np.uint8
    cells = [(j, q) for j in range(2) for q in range(3)]
    # any (job, qubit) stream regenerates independently, bit for bit
    for row, (j, q) in enumerate(cells):
        assert BitSequence(bits_of(rows)[row]) == ideal_source(0.5, 16, stream_seed(7, j, q))
    # and so does every other model's: markov at either sign of rho, and
    # drifting at the bias of the job's phase
    for rho in (0.3, -0.3):
        markov = generate_device_run(replace(config, bias=0.5, rho=rho))
        for row, (j, q) in enumerate(cells):
            seed = stream_seed(7, j, q)
            assert BitSequence(bits_of(markov)[row]) == markov_source(0.5, rho, 16, seed)
    phases = drifting_bias(((0.2, 1), (0.9, 1)))
    drifting = generate_device_run(replace(config, bias=phases))
    for row, (j, q) in enumerate(cells):
        seed = stream_seed(7, j, q)
        assert BitSequence(bits_of(drifting)[row]) == ideal_source((0.2, 0.9)[j], 16, seed)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 13, 8193])
def test_device_run_holds_each_row_in_ceil_n_over_8_bytes(n):
    rows = generate_device_run(DeviceRunConfig(qubit_count=3, jobs=2, bits_per_job=n))
    assert rows.n == n
    assert rows.bits.nbytes == 6 * -(-n // 8)


def test_device_run_deterministic():
    config = DeviceRunConfig(qubit_count=2, jobs=3, bits_per_job=32, master_seed=5)
    a = generate_device_run(config)
    b = generate_device_run(config)
    assert (a.job_ids, a.timestamps, a.qubit_ids) == (b.job_ids, b.timestamps, b.qubit_ids)
    assert np.array_equal(a.bits, b.bits)


def test_device_run_timestamps_advance():
    config = DeviceRunConfig(qubit_count=1, jobs=3, bits_per_job=8)
    stamps = generate_device_run(config).timestamps
    deltas = [(b - a).total_seconds() for a, b in zip(stamps, stamps[1:])]
    assert deltas == [523.0, 523.0]


def test_device_run_per_qubit_models():
    config = DeviceRunConfig(qubit_count=2, jobs=1, bits_per_job=4096, bias=0.5, rho=[0.0, 0.3],
                             master_seed=9)
    ideal, markov = bits_of(generate_device_run(config))
    ideal_stat = autocorr_statistic(BitSequence(ideal), 1)
    markov_stat = autocorr_statistic(BitSequence(markov), 1)
    assert markov_stat < ideal_stat  # rho=0.3 suppresses adjacent flips hard


def test_device_run_drifting_schedule_must_cover_jobs():
    bias = drifting_bias(((0.4, 1), (0.6, 1)))
    with pytest.raises(ValueError, match="schedule covers 2 jobs but the run has 3"):
        DeviceRunConfig(qubit_count=1, jobs=3, bits_per_job=8, bias=bias)


@st.composite
def chain_grid_forms(draw):
    """A run shape and its (bias, rho), each a float, a (qubits,) array, a
    (jobs, 1) column or a (jobs, qubits) grid. Every cell is a valid chain:
    rho >= -0.3 is inside the region (rho > -1/3) for any bias in [1/4, 3/4]."""
    jobs, qubits = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    shapes = {"scalar": None, "qubit": (qubits,), "job": (jobs, 1), "grid": (jobs, qubits)}

    def values(elements):
        shape = shapes[draw(st.sampled_from(sorted(shapes)))]
        if shape is None:
            return draw(elements)
        return np.array(draw(st.lists(elements, min_size=math.prod(shape),
                                      max_size=math.prod(shape)))).reshape(shape)

    bias = values(st.sampled_from([0.5]) | st.floats(0.25, 0.75))
    rho = values(st.sampled_from([0.0]) | st.floats(-0.3, 0.99))
    return jobs, qubits, bias, rho


@given(chain_grid_forms(), st.integers(1, 64), st.integers(0, 2**64 - 1))
@settings(max_examples=150, deadline=None)
def test_device_run_draws_each_cell_from_its_chain(form, n, seed):
    jobs, qubits, bias, rho = form
    config = DeviceRunConfig(qubit_count=qubits, jobs=jobs, bits_per_job=n, bias=bias, rho=rho,
                             master_seed=seed)
    rows = generate_device_run(config)
    cell_bias = np.broadcast_to(bias, (jobs, qubits))
    cell_rho = np.broadcast_to(rho, (jobs, qubits))
    for row, (j, q) in enumerate(np.ndindex(jobs, qubits)):
        expected = markov_source(float(cell_bias[j, q]), float(cell_rho[j, q]), n,
                                 stream_seed(seed, j, q))
        assert BitSequence(bits_of(rows)[row]) == expected


# A job of 20 qubits x 8192 bits packs into 20 KiB, so a block holds 3.
PAPER_BLOCK_JOBS = BLOCK_BYTES // (20 * 8192 // 8)
BLOCK_MODELS = {
    "ideal": lambda jobs: (0.5, 0.0),
    "markov-positive": lambda jobs: (0.5, 0.05),
    "markov-negative": lambda jobs: (0.4, -0.2),
    # A bias of each job's own, so a block that takes the wrong jobs' chains shows.
    "drifting": lambda jobs: (drifting_bias([(0.3 + 0.1 * j, 1) for j in range(jobs)]), 0.0),
}


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("model", sorted(BLOCK_MODELS))
@pytest.mark.parametrize("jobs, bits", [
    (1, 8192), (PAPER_BLOCK_JOBS - 1, 8192), (PAPER_BLOCK_JOBS, 8192),
    (PAPER_BLOCK_JOBS + 1, 8192), (2, 131072)],
    ids=["one-job", "block-less-one", "one-block", "block-plus-one", "job-wider-than-block"])
def test_device_run_blocks_join_to_each_stream_drawn_alone(jobs, bits, model, seed):
    """The blocks hold whole jobs, as many as fit in BLOCK_BYTES (at least
    one), in one reused buffer; joined, they are the run each stream drawn
    alone from numpy's own seeding gives, and ``generate_device_run``."""
    assert PAPER_BLOCK_JOBS == 3
    bias, rho = BLOCK_MODELS[model](jobs)
    config = DeviceRunConfig(qubit_count=20, jobs=jobs, bits_per_job=bits, bias=bias, rho=rho,
                             master_seed=seed)
    cell_bias, cell_rho = config.chain_grid()
    per_block = max(1, BLOCK_BYTES // (20 * bits // 8))
    whole = generate_device_run(config)
    first_bits, job = None, 0
    for block in device_run_blocks(config):
        assert len(block.job_ids) == min(per_block, jobs - job)
        assert block.qubit_ids == tuple(range(20)) and block.n == bits
        first_bits = block.bits if first_bits is None else first_bits
        assert np.shares_memory(block.bits, first_bits)
        streams = bits_of(block)
        for row, (j, q) in enumerate(np.ndindex(len(block.job_ids), 20)):
            j += job  # the job's index in the run
            expected = markov_source(float(cell_bias[j, q]), float(cell_rho[j, q]), bits,
                                     stream_seed(seed, j, q))
            assert BitSequence(streams[row]) == expected
            assert np.array_equal(block.bits[row], whole.bits[j * 20 + q])
        span = range(job, job + len(block.job_ids))
        assert block.job_ids == tuple(f"j{j + 1:04d}" for j in span)
        assert block.timestamps == tuple(RUN_START + timedelta(seconds=j * JOB_INTERVAL_S)
                                         for j in span)
        job += len(block.job_ids)
    assert job == jobs == len(whole.job_ids)


@pytest.mark.parametrize("bias, rho, message", [
    (np.array([[0.5, 0.5], [0.5, 1.5]]), 0.0, r"bias must be in \[0, 1\], got 1.5"),
    (0.5, [0.1, 1.0], "rho must be < 1, got 1.0"),
    ([0.2, 0.5], np.array([[0.0], [-0.9]]), r"rho=-0.9 with bias=0.2 gives transition"),
    (np.array([[0.5], [np.nan]]), 0.0, r"bias must be in \[0, 1\], got nan"),
    # the first invalid cell in row order is named: (0, 1) before (1, 0)
    (np.array([[0.5], [2.0]]), [0.0, 1.2], "rho must be < 1, got 1.2"),
    ([0.5, -0.1], np.array([[0.0], [-0.9]]), r"bias must be in \[0, 1\], got -0.1"),
], ids=["grid-bias", "qubit-rho", "job-rho-with-qubit-bias", "nan-bias", "first-cell",
        "bias-before-rho"])
def test_device_run_config_names_an_invalid_cell_anywhere_in_the_grid(bias, rho, message):
    with pytest.raises(ValueError, match=message):
        DeviceRunConfig(qubit_count=2, jobs=2, bits_per_job=8, bias=bias, rho=rho)


def test_device_run_config_checks_chain_values_before_shape_and_seed():
    for shape in (dict(jobs=0), dict(master_seed=-1), dict(qubit_count=3)):
        with pytest.raises(ValueError, match="rho=-0.9 with bias=0.2"):
            DeviceRunConfig(bias=[0.5, 0.2], rho=-0.9, **shape)


def test_device_run_config_refuses_arrays_that_do_not_fit_the_grid():
    with pytest.raises(ValueError, match="schedule covers 3 jobs but the run has 2"):
        DeviceRunConfig(qubit_count=2, jobs=2, rho=np.zeros((3, 2)))
    for bias in ([0.5] * 3, np.full((2, 3), 0.5), np.full((2, 2, 1), 0.5)):
        with pytest.raises(ValueError, match="do not fit"):
            DeviceRunConfig(qubit_count=2, jobs=2, bias=bias)


def test_drifting_bias_is_a_job_column_checked_phase_by_phase():
    np.testing.assert_array_equal(drifting_bias([(0.3, 2), (0.7, 1)]), [[0.3], [0.3], [0.7]])
    with pytest.raises(ValueError, match="got 1.5"):
        drifting_bias([(1.5, 0)])
    with pytest.raises(ValueError, match="phase job count must be >= 1, got 0"):
        drifting_bias([(0.5, 0), (1.5, 1)])
    with pytest.raises(ValueError, match="schedule covers 0 jobs but the run has 2"):
        DeviceRunConfig(jobs=2, bias=drifting_bias([]))


def test_device_run_config_validation():
    with pytest.raises(ValueError):
        DeviceRunConfig(qubit_count=0)
    with pytest.raises(ValueError):
        DeviceRunConfig(qubit_count=2, bias=(0.5, 0.5, 0.5))
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            DeviceRunConfig(master_seed=seed)
    assert DeviceRunConfig(master_seed=2**64 - 1).master_seed == 2**64 - 1


def test_calibration_series():
    # 276 jobs 523 s apart span 40 h: ticks at 0, 4, ..., 40 h.
    config = DeviceRunConfig(qubit_count=2, jobs=276, bits_per_job=8, master_seed=3)
    records = generate_calibration_series(config)
    assert records == generate_calibration_series(config)
    per_qubit = {q: [r for r in records if r.qubit_id == q] for q in (0, 1)}
    assert len(per_qubit[0]) == len(per_qubit[1]) == 11
    assert all(r.t1_us > 0 for r in records)


def test_calibration_series_covers_every_qubit():
    config = DeviceRunConfig(qubit_count=2, jobs=2, bits_per_job=8)
    calibration = generate_calibration_series(config)
    assert {r.qubit_id for r in calibration} == {0, 1}


def test_ten_t1_reset_fleet_indistinguishable_from_ideal():
    """rho = exp(-10) is ~4.5e-5: far below detectability at n=8192."""
    from qrng_audit.aggregate import build_matrix
    from qrng_audit.autocorr import TestParams, Verdict

    shape = dict(qubit_count=5, jobs=40, bits_per_job=8192, master_seed=15)

    def fail_fraction(rho):
        config = DeviceRunConfig(bias=0.5, rho=rho, **shape)
        matrix = build_matrix(generate_device_run(config), TestParams(lag=1))
        return int((matrix.verdicts() == Verdict.FAIL).sum()) / 200

    assert abs(fail_fraction(math.exp(-10.0)) - fail_fraction(0.0)) <= 0.02
