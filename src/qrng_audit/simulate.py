"""Synthetic per-qubit bitstream generation.

Every (job, qubit) stream is a two-state chain with stationary
ones-probability ``bias`` and lag-1 autocorrelation ``rho``, and a run holds
the two as a (jobs x qubits) grid. rho = 0 gives the i.i.d. bits of an ideal
generator; rho != 0 models residual state leaking through an imperfect
wait-based reset; a per-job bias column, ``drifting_bias``, models slow drift.

A chain stream costs its uniform draws plus work on its free draws only,
the share |rho| whose bit depends on the previous one: each run of them is
filled from the forced bit before it, with no full-length index arrays.

Every (job, qubit) stream draws from ``np.random.default_rng(seed)`` for a
SplitMix64 mix of (master_seed, job, qubit), so any subset of a run can be
regenerated independently and results never depend on generation order. A
run seeds its streams over uint64 arrays (the SplitMix64 grid in one pass,
then numpy's own SeedSequence hash and PCG64 seeding 4096 streams at a
time) and sets one reused generator to each stream's state in turn: the
same draws as a generator per stream, without numpy's per-generator set-up.

A run is drawn a block of whole jobs at a time (``device_run_blocks``), as
many as fit in ``BLOCK_BYTES`` of packed bits, into one reused buffer;
``stream_run`` writes each block to a binary job file and counts it as it
passes, and never holds the run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import BinaryIO, Iterator, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .autocorr import BLOCK_BYTES, PValueMatrix, TestParams, packed_counts
from .ingest import CalibrationRecord, JobRows, serialize_jobs

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

# PCG64's 128-bit LCG multiplier (O'Neill 2014).
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
# Streams seeded per pass of ``_seed_sequence_words``: its temporaries cost
# about 128 bytes per stream, so a pass holds about 0.5 MiB however many
# jobs the run has.
_SEED_CHUNK = 4096


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array (array arithmetic wraps silently)."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _seed_grid(master_seed: int, branch: int, *shape: int) -> np.ndarray:
    """The uint64 seed of substream (branch, *index) for every index of the
    grid ``shape``: h = mix(master), then h = mix(h ^ i) for the branch and
    each index in turn. Branch 0 seeds the (job, qubit) streams, branch 1
    the calibration walks."""
    h = _mix64(_mix64(np.array([master_seed], dtype=np.uint64)) ^ np.uint64(branch))
    for size in shape:
        h = _mix64(h[..., None] ^ np.arange(size, dtype=np.uint64))
    return h[0]


def _seed_sequence_words(seeds: np.ndarray) -> np.ndarray:
    """The four uint64 words ``np.random.SeedSequence(seed).generate_state(4,
    np.uint64)`` for each seed of a uint64 array, as a (seeds, 4) array,
    computed for every seed at once: the SeedSequence hash (NEP 19) of the
    seed's two 32-bit words into a pool of four, then eight words drawn from
    the pool. A missing high word hashes as 0, so seeds below 2**32 take the
    same route."""
    const = 0x43B0D7E5

    def hashmix(value: np.ndarray, multiplier: int = 0x931E8875) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * multiplier & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    zero = np.zeros(seeds.size, dtype=np.uint32)
    pool = [hashmix(w) for w in (seeds.ravel().astype(np.uint32),
                                 (seeds.ravel() >> np.uint64(32)).astype(np.uint32), zero, zero)]
    for src, dst in itertools.permutations(range(4), 2):
        mixed = np.uint32(0xCA01F9DD) * pool[dst] - np.uint32(0x4973F715) * hashmix(pool[src])
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    const = 0x8B51F9DD  # generate_state: the same step from its own constants
    out = [hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]
    return np.stack([out[i] | out[i + 1].astype(np.uint64) << np.uint64(32)
                     for i in range(0, 8, 2)], axis=-1)


def _generators(seeds: np.ndarray) -> Iterator[np.random.Generator]:
    """``np.random.default_rng(seed)`` for each seed of a uint64 array in
    turn, as one reused Generator: each yield sets its PCG64 state, so a
    yielded generator is valid until the next is asked for. PCG64 seeds its
    128-bit LCG from a seed's SeedSequence words as (state, increment) with
    two LCG steps. The words are computed ``_SEED_CHUNK`` seeds at a time."""
    rng, mask = np.random.default_rng(0), (1 << 128) - 1
    seeds = seeds.ravel()
    words = (_seed_sequence_words(seeds[i:i + _SEED_CHUNK])
             for i in range(0, seeds.size, _SEED_CHUNK))
    for row in itertools.chain.from_iterable(words):
        seed_hi, seed_lo, inc_hi, inc_lo = row.tolist()
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & mask
        state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULTIPLIER + inc) & mask
        rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        yield rng


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
            raise ValueError(f"bias must be in [0, 1], got {b}")
        if bad_rho[cell]:
            raise ValueError(f"rho must be < 1, got {r}")
        raise ValueError(f"rho={r} with bias={b} gives transition probabilities "
                         f"outside [0, 1] (need rho > -min(p/(1-p), (1-p)/p))")


def drifting_bias(phases: Sequence[tuple[float, int]]) -> np.ndarray:
    """The (jobs, 1) bias column of a drift over the job index: phases of
    (bias, job_count) in job order, checked phase by phase."""
    for bias, count in phases:
        _check_chain(bias, 0.0)
        if count < 1:
            raise ValueError(f"phase job count must be >= 1, got {count}")
    return np.repeat([float(b) for b, _ in phases], [c for _, c in phases])[:, None]


def _chain_bits(bias: float, rho: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n bits of the two-state chain with stationary ones-probability
    ``bias`` and lag-1 autocorrelation ``rho``, as a bool array; one uniform
    draw of ``rng`` per bit.

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
    u = rng.random(n)
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
    qubits) grid: (qubits,) per qubit, or (jobs, 1) per job or the full
    grid, a 2-D array naming every job (else ``ValueError``)."""

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
            if values.ndim == 2 and len(values) != self.jobs:
                raise ValueError(f"schedule covers {len(values)} jobs but the run has {self.jobs}")
            if values.ndim > 2 or values.ndim and values.shape[-1] not in (1, self.qubit_count):
                raise ValueError(f"chain parameters of shape {values.shape} do not fit {grid}")
        return np.broadcast_to(bias, grid), np.broadcast_to(rho, grid)


def device_run_blocks(config: DeviceRunConfig) -> Iterator[JobRows]:
    """The run as ``JobRows`` blocks of as many whole jobs as fit in
    ``BLOCK_BYTES`` of packed bits (at least one). Every stream's seed is
    computed when this is called; a block's streams are drawn from their
    cells of the (bias, rho) grid when it is asked for, into one reused
    buffer, so its bits hold until the next block is asked for."""
    bias, rho = config.chain_grid()
    n, qubits = config.bits_per_job, config.qubit_count
    step = max(1, BLOCK_BYTES // (qubits * -(-n // 8)))
    buffer = np.empty((step * qubits, -(-n // 8)), dtype=np.uint8)
    rngs = _generators(_seed_grid(config.master_seed, 0, config.jobs, qubits))

    def block(jobs: range) -> JobRows:
        bits = buffer[:len(jobs) * qubits]
        chains = zip(bias[jobs].ravel().tolist(), rho[jobs].ravel().tolist())
        for row, (b, r), rng in zip(bits, chains, rngs):  # rngs last: zip takes no extra one
            row[:] = np.packbits(_chain_bits(b, r, n, rng))
        return JobRows(tuple(f"j{j + 1:04d}" for j in jobs),
                       tuple(RUN_START + timedelta(seconds=j * JOB_INTERVAL_S) for j in jobs),
                       tuple(range(qubits)), bits, n)

    return map(block, (range(j, min(j + step, config.jobs)) for j in range(0, config.jobs, step)))


def stream_run(config: DeviceRunConfig, params: TestParams | None = None,
               jobs: BinaryIO | None = None) -> PValueMatrix | None:
    """Draw the run a block of jobs at a time (``device_run_blocks``), write
    each block to the job file ``jobs``, if given, opened ``"wb"``, and count
    it, given test parameters: the run's p-value matrix, or None without
    them."""
    job_ids, counts = [], []
    for block in device_run_blocks(config):
        if jobs is not None:
            serialize_jobs(block, jobs, header=not job_ids)
        job_ids += block.job_ids
        if params is not None:
            counts.append(packed_counts(block.bits, block.n, params.lag))
    return None if params is None else PValueMatrix.from_counts(
        tuple(job_ids), tuple(range(config.qubit_count)), config.bits_per_job, counts, params)


def generate_calibration_series(config: DeviceRunConfig) -> list[CalibrationRecord]:
    """Per-qubit relaxation-time series drifting as a bounded multiplicative
    random walk, sampled every ``CALIBRATION_INTERVAL_S`` over the run's
    span: qubit by qubit, each qubit's records in tick order."""
    ticks = int(config.jobs * JOB_INTERVAL_S // CALIBRATION_INTERVAL_S) + 1
    records = []
    seeds = _seed_grid(config.master_seed, 1, config.qubit_count)
    for q, rng in enumerate(_generators(seeds)):
        base = float(rng.uniform(*T1_RANGE_US))
        t1 = base
        for tick in range(ticks):
            records.append(CalibrationRecord(
                RUN_START + timedelta(seconds=tick * CALIBRATION_INTERVAL_S), q, t1))
            t1 = float(np.clip(t1 * math.exp(rng.normal(0.0, T1_RELATIVE_STEP)),
                               base / 3.0, base * 3.0))
    return records
