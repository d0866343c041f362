#!/usr/bin/env python3
"""How good is the normal approximation behind the test's p-values?

Sweeps exact null distributions (exact (statistic, ones) counts for
n <= 53 at any bias, the closed binomial form at p=1/2 for large n) against
the erfc-based p-values and prints the worst absolute gap per setting,
overall and inside the critical region p in [0.005, 0.05] where verdicts
are decided.

The small-n biased settings also expose the plug-in variance mismatch: the
standardization variance assumes independent XOR terms, which only holds at
p = 1/2.
"""

from __future__ import annotations

import argparse

import numpy as np

from qrng_audit.oracle import approximation_error


def joined(n: int, lag: int, bias: float) -> tuple[np.ndarray, ...]:
    """The table's statistic, exact_p, approx_p and difference columns,
    each joined from its blocks."""
    return tuple(np.concatenate(column) for column in zip(*approximation_error(n, lag, bias)))


def critical_region(exact_p: np.ndarray, approx_p: np.ndarray) -> np.ndarray:
    """Rows where either p-value lies in [0.005, 0.05]."""
    return (((0.005 <= approx_p) & (approx_p <= 0.05))
            | ((0.005 <= exact_p) & (exact_p <= 0.05)))


def gap_line(n: int, lag: int, bias: float, columns: tuple[np.ndarray, ...]) -> str:
    _, exact_p, approx_p, difference = columns
    gap = np.abs(difference)
    region = gap[critical_region(exact_p, approx_p)]
    region_gap = float(region.max()) if region.size else float("nan")
    return (
        f"n={n:>5} lag={lag} bias={bias:<4}  "
        f"max|gap| {gap.max():.5f}   "
        f"critical-region max|gap| {region_gap:.5f}"
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--big-n", type=int, default=8192,
                        help="closed-form binomial setting (bias 0.5)")
    args = parser.parse_args(argv)

    print("exact enumeration, small n:")
    for n in (16, 24, 53):
        for bias in (0.5, 0.3, 0.1):
            print("  " + gap_line(n, 1, bias, joined(n, 1, bias)))

    print("closed-form binomial, large n:")
    big = joined(args.big_n, 1, 0.5)
    print("  " + gap_line(1024, 1, 0.5, joined(1024, 1, 0.5)))
    print("  " + gap_line(args.big_n, 1, 0.5, big))

    print()
    print("worst critical-region rows at the large-n setting:")
    statistic, exact_p, approx_p, difference = big
    rows = np.flatnonzero(critical_region(exact_p, approx_p))
    rows = rows[np.argsort(-np.abs(difference[rows]), kind="stable")]
    print("  statistic     exact_p    approx_p  difference")
    for i in rows[:8]:
        print(f"  {statistic[i]:9d}  {exact_p[i]:.6f}  {approx_p[i]:.6f}  "
              f"{difference[i]:+.6f}")


if __name__ == "__main__":
    main()
