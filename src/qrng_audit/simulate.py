"""Synthetic per-qubit bitstream generation.

Every (job, qubit) stream is a two-state chain with stationary
ones-probability ``bias`` and lag-1 autocorrelation ``rho``, and a run holds
the two as a (jobs x qubits) grid. rho = 0 gives the i.i.d. bits of an ideal
generator; rho != 0 models residual state leaking through an imperfect
wait-based reset; a per-job bias column, ``drifting_bias``, models slow drift.

A chain stream costs its uniform draws plus work on its free draws only,
the share |rho| whose bit depends on the previous one: each run of them is
filled from the forced bit before it, with no full-length index arrays.

Every (job, qubit) stream draws from its own generator seeded by a SplitMix64
mix of (master_seed, job, qubit), so any subset of a run can be regenerated
independently and results never depend on generation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from .ingest import CalibrationRecord, JobRows

# Experiment-shaped defaults: 20 qubits, 579 jobs of 8192 bits, which at
# JOB_INTERVAL_S apart from RUN_START span roughly three and a half days.
DEFAULT_QUBIT_COUNT = 20
DEFAULT_JOBS = 579
DEFAULT_BITS_PER_JOB = 8192
DEFAULT_MASTER_SEED = 20190509
RUN_START = datetime(2019, 5, 9, 11, 24, 27, tzinfo=timezone.utc)
JOB_INTERVAL_S = 523.0

# The calibration series: a T1 per qubit drawn uniformly from T1_RANGE_US,
# then a multiplicative random walk with log-steps of sd T1_RELATIVE_STEP,
# clamped to a factor of 3 around its start and sampled every
# CALIBRATION_INTERVAL_S.
CALIBRATION_INTERVAL_S = 4 * 3600.0
T1_RANGE_US = (40.0, 110.0)
T1_RELATIVE_STEP = 0.05


class InvalidParameterError(ValueError):
    """Chain parameters outside their valid region."""


class InvalidScheduleError(ValueError):
    """Bias schedule does not cover the requested indices."""


def _mix64(z: int) -> int:
    """SplitMix64 finalizer: avalanching 64-bit mix."""
    mask = (1 << 64) - 1
    z = (z + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def derive_substream_seed(master_seed: int, *indices: int) -> int:
    """Deterministic 64-bit child seed for a (master, indices...) substream."""
    h = _mix64(master_seed & ((1 << 64) - 1))
    for index in indices:
        h = _mix64(h ^ (index & ((1 << 64) - 1)))
    return h


def stream_seed(master_seed: int, job_index: int, qubit_id: int) -> int:
    return derive_substream_seed(master_seed, 0, job_index, qubit_id)


def _calibration_seed(master_seed: int, qubit_id: int) -> int:
    return derive_substream_seed(master_seed, 1, qubit_id)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _check_chain(bias: ArrayLike, rho: ArrayLike) -> None:
    """Refuse the first cell, in row order, of the broadcast (bias, rho)
    grid whose chain does not exist."""
    bias, rho = np.broadcast_arrays(np.asarray(bias, dtype=float), np.asarray(rho, dtype=float))
    with np.errstate(all="ignore"):
        stay, move = bias + rho * (1.0 - bias), bias * (1.0 - rho)  # P(1 | previous 1 or 0)
        bad_bias, bad_rho = ~((0.0 <= bias) & (bias <= 1.0)), ~(rho < 1.0)
        steps = (np.minimum(stay, move) >= 0.0) & (np.maximum(stay, move) <= 1.0)
        bad = bad_bias | bad_rho | ~steps
    if bad.any():
        cell = np.unravel_index(np.argmax(bad), bad.shape)
        b, r = float(bias[cell]), float(rho[cell])
        if bad_bias[cell]:
            raise InvalidParameterError(f"bias must be in [0, 1], got {b}")
        if bad_rho[cell]:
            raise InvalidParameterError(f"rho must be < 1, got {r}")
        raise InvalidParameterError(f"rho={r} with bias={b} gives transition probabilities "
                                    f"outside [0, 1] (need rho > -min(p/(1-p), (1-p)/p))")


def drifting_bias(phases: Sequence[tuple[float, int]]) -> np.ndarray:
    """The (jobs, 1) bias column of a drift over the job index: phases of
    (bias, job_count) in job order, checked phase by phase."""
    for bias, count in phases:
        _check_chain(bias, 0.0)
        if count < 1:
            raise InvalidScheduleError(f"phase job count must be >= 1, got {count}")
    return np.repeat([float(b) for b, _ in phases], [c for _, c in phases])[:, None]


def _chain_bits(bias: float, rho: float, n: int, seed: int) -> np.ndarray:
    """n bits of the two-state chain with stationary ones-probability
    ``bias`` and lag-1 autocorrelation ``rho``, as a bool array; one uniform
    draw per bit.

    Bit i is ``u[i] < (stay if bit i-1 else move)``, computed without a loop:
    a draw below both thresholds forces a 1 and one at or above both forces
    a 0, whatever came before. Any other draw is free: it copies the
    previous bit when stay >= move (rho >= 0) and flips it otherwise. Bit 0
    is forced to ``u[0] < bias``, so every run of consecutive free draws
    follows a forced bit: the j-th draw of the run is that bit, flipped j
    times when rho < 0. Past the two threshold comparisons and one scan for
    the free draws, the work is on those draws alone: since stay - move =
    rho, a share |rho| of the n.

    When stay == move (rho = 0, or a rho too small to move either threshold
    in floats) both equal ``bias`` and every draw is forced."""
    u = _rng(seed).random(n)
    stay = bias + rho * (1.0 - bias)   # P(1 | previous 1)
    move = bias * (1.0 - rho)          # P(1 | previous 0)
    if stay == move:
        return u < bias
    bits = u < min(stay, move)
    free = u < max(stay, move)
    free ^= bits                     # the draws between the thresholds
    bits[0] = u[0] < bias
    free[0] = False
    free = np.flatnonzero(free)
    runs = np.ones(free.size + 1, dtype=bool)
    np.not_equal(free[1:], free[:-1] + 1, out=runs[1:-1])
    runs = np.flatnonzero(runs)      # where each run of free draws opens, then free.size
    before = free[runs[:-1]] - 1     # the forced bit each run follows
    held = bits[before]
    flips = stay < move
    if flips:  # draw i of a run is held flipped i - before times: before's parity here, i's below
        held ^= (before & 1).astype(bool)
    fill = np.repeat(held, runs[1:] - runs[:-1])
    if flips:
        fill ^= (free & 1).astype(bool)
    bits[free] = fill
    return bits


@dataclass(frozen=True, eq=False)
class DeviceRunConfig:
    """Shape and chain parameters of one synthetic device run. ``bias`` and
    ``rho`` are each a float or an array that broadcasts to the (jobs,
    qubits) grid: (qubits,) per qubit, (jobs, 1) per job, or the full grid."""

    qubit_count: int = DEFAULT_QUBIT_COUNT
    jobs: int = DEFAULT_JOBS
    bits_per_job: int = DEFAULT_BITS_PER_JOB
    bias: ArrayLike = 0.5
    rho: ArrayLike = 0.0
    master_seed: int = DEFAULT_MASTER_SEED

    def __post_init__(self) -> None:
        _check_chain(self.bias, self.rho)
        if min(self.qubit_count, self.jobs, self.bits_per_job) < 1:
            raise ValueError("qubit_count, jobs, and bits_per_job must all be >= 1")
        if not 0 <= self.master_seed < 1 << 64:
            raise ValueError(f"master seed must be in [0, 2**64), got {self.master_seed}")
        self.chain_grid()

    def chain_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """(bias, rho), each broadcast to the (jobs, qubits) grid."""
        grid = (self.jobs, self.qubit_count)
        bias, rho = (np.asarray(v, dtype=float) for v in (self.bias, self.rho))
        for values in (bias, rho):
            if values.ndim == 2 and len(values) not in (1, self.jobs):
                raise InvalidScheduleError(
                    f"schedule covers {len(values)} jobs but the run has {self.jobs}")
            if values.ndim > 2 or values.ndim and values.shape[-1] not in (1, self.qubit_count):
                raise ValueError(f"chain parameters of shape {values.shape} do not fit {grid}")
        return np.broadcast_to(bias, grid), np.broadcast_to(rho, grid)


def generate_device_run(config: DeviceRunConfig) -> JobRows:
    """Generate the run's jobs x qubits streams, each drawn from its cell of
    the (bias, rho) grid and packed straight into its row of the bit matrix.
    Each stream is independently derivable from its seed, so any subset
    regenerates bit-for-bit. The calibration series is
    ``generate_calibration_series(config)``."""
    bias, rho = (grid.ravel().tolist() for grid in config.chain_grid())
    n, seed = config.bits_per_job, config.master_seed
    bits = np.empty((config.jobs * config.qubit_count, -(-n // 8)), dtype=np.uint8)
    for row, (j, q) in enumerate(np.ndindex(config.jobs, config.qubit_count)):
        bits[row] = np.packbits(_chain_bits(bias[row], rho[row], n, stream_seed(seed, j, q)))
    job_ids = tuple(f"j{j + 1:04d}" for j in range(config.jobs))
    stamps = tuple(RUN_START + timedelta(seconds=j * JOB_INTERVAL_S) for j in range(config.jobs))
    return JobRows(job_ids, stamps, tuple(range(config.qubit_count)), bits, n)


def generate_calibration_series(config: DeviceRunConfig) -> list[CalibrationRecord]:
    """Per-qubit relaxation-time series drifting as a bounded multiplicative
    random walk, sampled every ``CALIBRATION_INTERVAL_S`` over the run's span."""
    ticks = int(config.jobs * JOB_INTERVAL_S // CALIBRATION_INTERVAL_S) + 1
    records = []
    for q in range(config.qubit_count):
        rng = _rng(_calibration_seed(config.master_seed, q))
        base = float(rng.uniform(*T1_RANGE_US))
        t1 = base
        for tick in range(ticks):
            records.append(
                CalibrationRecord(
                    timestamp=RUN_START + timedelta(seconds=tick * CALIBRATION_INTERVAL_S),
                    qubit_id=q,
                    t1_us=t1,
                )
            )
            t1 = float(np.clip(t1 * math.exp(rng.normal(0.0, T1_RELATIVE_STEP)),
                               base / 3.0, base * 3.0))
    records.sort(key=lambda r: (r.timestamp, r.qubit_id))
    return records
