#!/usr/bin/env python3
"""Fleet study: ideal generators vs reset-correlated ones, side by side.

Runs two synthetic device fleets through the autocorrelation test:

* a null fleet of ideal fair generators with a drifting relaxation-time
  series, where failure ratios should sit near alpha and show no relation
  to T1;
* a correlated fleet whose lag-1 autocorrelation ramps up with the qubit
  index, where failure ratios should climb accordingly.

Prints per-qubit tables and the headline numbers (simultaneous-pass
proportion vs the analytic (1-alpha)^qubits, Spearman coefficients).
"""

from __future__ import annotations

import argparse

from qrng_audit.aggregate import build_report, spearman
from qrng_audit.autocorr import TestParams
from qrng_audit.simulate import DeviceRunConfig, generate_calibration_series, stream_run


def fleet_table(report, rho_by_qubit=None):
    lines = ["qubit  failure_ratio  mean_T1_us" + ("  rho" if rho_by_qubit else "")]
    for q in report.qubit_ids:
        t1 = f"{report.mean_t1_us[q]:10.1f}" if report.mean_t1_us else "         -"
        extra = f"  {rho_by_qubit[q]:.4f}" if rho_by_qubit else ""
        lines.append(f"{q:5d}  {report.failure_ratio[q]:13.4f}  {t1}{extra}")
    return "\n".join(lines)


def signed(rho):
    """A Spearman coefficient, or "undefined" where it has none."""
    return "undefined" if rho is None else f"{rho:+.4f}"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=120)
    parser.add_argument("--qubits", type=int, default=20)
    parser.add_argument("--bits", type=int, default=8192)
    parser.add_argument("--alpha", type=float, default=0.01)
    parser.add_argument("--max-rho", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=20190509)
    args = parser.parse_args(argv)

    params = TestParams(lag=1, alpha=args.alpha)

    print("=== null fleet: ideal fair generators ===")
    config = DeviceRunConfig(
        qubit_count=args.qubits, jobs=args.jobs, bits_per_job=args.bits,
        bias=0.5, master_seed=args.seed,
    )
    matrix = stream_run(config, params)
    report = build_report(matrix, generate_calibration_series(config))
    print(fleet_table(report))
    analytic = (1.0 - args.alpha) ** args.qubits
    print(f"simultaneous-pass proportion: {report.simultaneous_pass_proportion:.4f}"
          f"  (analytic (1-alpha)^q = {analytic:.4f})")
    print(f"overall pass proportion:      {report.pass_proportion_overall:.4f}")
    print(f"spearman(T1, failure ratio):  {signed(report.spearman_t1_failure)}")

    print()
    print("=== correlated fleet: lag-1 autocorrelation ramped over qubits ===")
    rhos = [args.max_rho * (q + 1) / args.qubits for q in range(args.qubits)]
    ramp_config = DeviceRunConfig(
        qubit_count=args.qubits, jobs=args.jobs, bits_per_job=args.bits,
        bias=0.5, rho=rhos, master_seed=args.seed,
    )
    ramp_matrix = stream_run(ramp_config, params)
    ramp_report = build_report(ramp_matrix)
    print(fleet_table(ramp_report, rho_by_qubit=rhos))
    rho_s = spearman(rhos, [ramp_report.failure_ratio[q] for q in range(args.qubits)])
    print(f"simultaneous-pass proportion: {ramp_report.simultaneous_pass_proportion:.4f}")
    print(f"spearman(rho, failure ratio): {signed(rho_s)}")
    print(f"mean statistic over the fleet: {ramp_matrix.statistic.mean():.1f}")


if __name__ == "__main__":
    main()
