"""Fleet-level analysis of a p-value matrix: failure ratios, pass
proportions, and the relaxation-time-vs-failure relationship.

Degenerate cells (all-zero / all-one streams) carry no evidence about
correlation, so they are excluded from failure ratios and pass proportions
and reported separately as counts. The relaxation-time
comparison uses Spearman rank correlation (with average ranks for ties): the
relationship claim is monotone, not linear, and the raw scatter is emitted
alongside so any other coefficient can be recomputed externally. Where the
coefficient is undefined (fewer than 3 complete pairs, or a side constant
after ranking) ``spearman`` returns None, as the other statistics give NaN
or None for what they cannot define.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from .autocorr import PValueMatrix
from .ingest import CalibrationRecord


def failure_ratio_per_qubit(matrix: PValueMatrix) -> dict[int, float]:
    """Per-qubit #Fail / (#Fail + #Pass); NaN for an all-degenerate column."""
    fails = matrix.failed().sum(axis=0).tolist()
    decided = (~matrix.degenerate).sum(axis=0).tolist()
    return {
        q: f / d if d else math.nan
        for q, f, d in zip(matrix.qubit_ids, fails, decided)
    }


def degenerate_count_per_qubit(matrix: PValueMatrix) -> dict[int, int]:
    return dict(zip(matrix.qubit_ids, matrix.degenerate.sum(axis=0).tolist()))


def simultaneous_pass_proportion(matrix: PValueMatrix) -> float:
    """Fraction of jobs whose streams pass on every qubit at once."""
    passed = ~(matrix.failed() | matrix.degenerate)
    return int(passed.all(axis=1).sum()) / len(matrix.job_ids)


def pass_proportion_overall(matrix: PValueMatrix) -> float:
    """Fraction of non-degenerate cells with p-value >= alpha."""
    decided = int((~matrix.degenerate).sum())
    passed = decided - int(matrix.failed().sum())
    return passed / decided if decided else math.nan


def mean_t1_per_qubit(
    records: Iterable[CalibrationRecord], qubit_ids: Sequence[int]
) -> dict[int, float]:
    """Arithmetic mean relaxation time of each of ``qubit_ids``; NaN flags a
    qubit with no records."""
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for rec in records:
        sums[rec.qubit_id] = sums.get(rec.qubit_id, 0.0) + rec.t1_us
        counts[rec.qubit_id] = counts.get(rec.qubit_id, 0) + 1
    return {q: sums[q] / counts[q] if q in counts else math.nan for q in qubit_ids}


def _rank_with_ties(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing their average rank: a run of equal values
    at sorted positions first..last gets (first + last) / 2 + 1."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts) - 1
    first = last - counts + 1
    return (0.5 * (first + last) + 1.0)[inverse]


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    """Spearman rank correlation with average ranks for ties; pairs with a
    NaN on either side are dropped. None where the coefficient is undefined:
    fewer than 3 complete pairs, or a side constant after ranking."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    keep = ~(np.isnan(x) | np.isnan(y))
    x, y = x[keep], y[keep]
    if x.size < 3:
        return None
    rx = _rank_with_ties(x)
    ry = _rank_with_ties(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float(np.dot(rx, rx)) * float(np.dot(ry, ry)))
    return float(np.dot(rx, ry) / denom) if denom else None


@dataclass(frozen=True)
class AggregateReport:
    qubit_ids: tuple[int, ...]
    failure_ratio: dict[int, float]
    degenerate_per_qubit: dict[int, int]
    mean_t1_us: dict[int, float] | None
    simultaneous_pass_proportion: float
    pass_proportion_overall: float
    spearman_t1_failure: float | None
    degenerate_count: int
    alpha: float
    lag: int


def build_report(
    matrix: PValueMatrix,
    calibration: Iterable[CalibrationRecord] | None = None,
) -> AggregateReport:
    """Assemble the full fleet report at the matrix's alpha; T1 fields are
    None when no calibration data is supplied, and the Spearman coefficient
    is None where it is undefined."""
    ratios = failure_ratio_per_qubit(matrix)
    degenerates = degenerate_count_per_qubit(matrix)
    mean_t1 = rho_s = None
    if calibration is not None:
        mean_t1 = mean_t1_per_qubit(calibration, matrix.qubit_ids)
        rho_s = spearman([mean_t1[q] for q in matrix.qubit_ids],
                         [ratios[q] for q in matrix.qubit_ids])
    return AggregateReport(
        qubit_ids=matrix.qubit_ids,
        failure_ratio=ratios,
        degenerate_per_qubit=degenerates,
        mean_t1_us=mean_t1,
        simultaneous_pass_proportion=simultaneous_pass_proportion(matrix),
        pass_proportion_overall=pass_proportion_overall(matrix),
        spearman_t1_failure=rho_s,
        degenerate_count=sum(degenerates.values()),
        alpha=matrix.alpha,
        lag=matrix.lag,
    )


def write_report_csv(report: AggregateReport, stream: TextIO) -> None:
    """Per-qubit rows followed by a commented footer of scalar fields."""
    stream.write("qubit_id,failure_ratio,mean_t1_us,degenerate_count\n")
    for q in report.qubit_ids:
        t1 = "" if report.mean_t1_us is None else repr(report.mean_t1_us[q])
        stream.write(
            f"{q},{report.failure_ratio[q]!r},{t1},{report.degenerate_per_qubit[q]}\n"
        )
    stream.write(f"# alpha={report.alpha!r}\n")
    stream.write(f"# lag={report.lag}\n")
    stream.write(
        f"# simultaneous_pass_proportion={report.simultaneous_pass_proportion!r}\n"
    )
    stream.write(f"# pass_proportion_overall={report.pass_proportion_overall!r}\n")
    stream.write(f"# degenerate_count={report.degenerate_count}\n")
    if report.spearman_t1_failure is not None:
        stream.write(f"# spearman_t1_failure={report.spearman_t1_failure!r}\n")
        stream.write(
            "# note=spearman is a rank-based reading of the T1-vs-failure scatter;"
            " see the scatter file to recompute other coefficients\n"
        )


def write_scatter_csv(report: AggregateReport, stream: TextIO) -> None:
    if report.mean_t1_us is None:
        raise ValueError("no relaxation-time data to emit")
    stream.write("qubit_id,mean_t1_us,failure_ratio\n")
    for q in report.qubit_ids:
        stream.write(f"{q},{report.mean_t1_us[q]!r},{report.failure_ratio[q]!r}\n")
