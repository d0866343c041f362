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

from qrng_audit.oracle import ApproximationTable, approximation_error


def critical_region(table: ApproximationTable) -> np.ndarray:
    """Rows where either p-value lies in [0.005, 0.05]."""
    return (((0.005 <= table.approx_p) & (table.approx_p <= 0.05))
            | ((0.005 <= table.exact_p) & (table.exact_p <= 0.05)))


def gap_line(table: ApproximationTable) -> str:
    region = np.abs(table.difference[critical_region(table)])
    region_gap = float(region.max()) if region.size else float("nan")
    return (
        f"n={table.n:>5} lag={table.lag} bias={table.bias:<4}  "
        f"max|gap| {table.max_abs_difference:.5f}   "
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
            print("  " + gap_line(approximation_error(n, 1, bias)))

    print("closed-form binomial, large n:")
    big = approximation_error(args.big_n, 1, 0.5)
    print("  " + gap_line(approximation_error(1024, 1, 0.5)))
    print("  " + gap_line(big))

    print()
    print("worst critical-region rows at the large-n setting:")
    rows = np.flatnonzero(critical_region(big))
    rows = rows[np.argsort(-np.abs(big.difference[rows]), kind="stable")]
    print("  statistic     exact_p    approx_p  difference")
    for i in rows[:8]:
        print(f"  {big.statistic[i]:9d}  {big.exact_p[i]:.6f}  {big.approx_p[i]:.6f}  "
              f"{big.difference[i]:+.6f}")


if __name__ == "__main__":
    main()
