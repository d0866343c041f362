"""Command-line pipeline: simulate -> test -> aggregate (-> oracle checks).

Subcommands:

* ``simulate``  write a synthetic job file (and optionally a calibration file)
* ``test``      run the lag-l autocorrelation test on every stream of a job file
* ``aggregate`` fleet report + scatter from a results file
* ``oracle``    exact-vs-normal-approximation error table
* ``pipeline``  the three stages end to end in one working directory

Exit codes, which ``main`` alone decides from the error's class: 0 success;
1 for ``ParseError`` (a file's data), ``OSError`` and ``MemoryError``; 2 for
any other ``ValueError`` (a flag's value, a flag pair, or a ``--lag`` the
file's streams are too short for). Data goes to files and status lines to
stderr. Every subcommand is deterministic given its flags; repeated runs
produce byte-identical files.

The parse path loads no numpy: ``--help`` and a missing or unknown flag
import only ``argparse``, and each subcommand, when called, imports only
the layers it runs (``oracle``: autocorr and oracle; ``test``: autocorr
and ingest; ``aggregate``: those two and aggregate). The annotations name
those layers' types, as text that is never evaluated.
"""

from __future__ import annotations

import argparse
import os
import sys


def _status(line: str) -> None:
    print(line, file=sys.stderr)


def _parse_bias_flag(text: str) -> float | None:
    if text == "estimated":
        return None
    if text.startswith("fixed:"):
        try:
            return float(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad fixed bias in {text!r}") from None
    raise ValueError(f"--bias must be 'estimated' or 'fixed:<p>', got {text!r}")


def _given(**flags) -> dict:
    """The flags the user gave: a flag not given takes its config's default."""
    return {name: value for name, value in flags.items() if value is not None}


def _chain_parameters(args: argparse.Namespace) -> dict:
    """The model flags as the run's ``bias`` and ``rho``. A flag the model
    would ignore is refused first."""
    for flag, value, models in (("--rho", args.rho, ("markov",)),
                                ("--schedule", args.schedule, ("drifting",)),
                                ("--p", args.p, ("ideal", "markov"))):
        if value is not None and args.model not in models:
            raise ValueError(f"{flag} does not apply to --model {args.model}")
    if args.model != "drifting":
        return _given(bias=args.p, rho=args.rho)
    if args.schedule is None:
        raise ValueError("--model drifting requires --schedule")
    phases = []
    for chunk in args.schedule.split(","):
        try:
            bias_text, count_text = chunk.split(":")
            phases.append((float(bias_text), int(count_text)))
        except ValueError:
            raise ValueError(f"bad schedule phase {chunk!r}, expected <bias>:<jobs>") from None
    from .simulate import drifting_bias
    return {"bias": drifting_bias(phases)}


def _run_config(args: argparse.Namespace) -> DeviceRunConfig:
    """The run the flags describe, whose job file ``test`` can read."""
    from .ingest import check_stream_length
    from .simulate import DeviceRunConfig

    config = DeviceRunConfig(**_given(qubit_count=args.qubits, jobs=args.jobs,
                                      bits_per_job=args.bits, master_seed=args.seed),
                             **_chain_parameters(args))
    check_stream_length(config.bits_per_job)
    return config


def _simulate(config: DeviceRunConfig, model: str, out: str, calibration_out: str | None,
              params: TestParams | None = None,
              ) -> tuple[PValueMatrix | None, list[CalibrationRecord] | None]:
    """Write the job file by ``stream_run``, under a temporary name renamed
    onto ``out`` once whole (a run that fails part way changes nothing at
    ``out``), and the calibration file, if asked for. Returns the run's
    p-value matrix (given test parameters) and the calibration records."""
    from .ingest import serialize_calibration
    from .simulate import generate_calibration_series, stream_run

    partial = f"{out}.{os.getpid()}.partial"
    fh = open(partial, "x", newline="", encoding="utf-8")
    try:
        with fh:
            matrix = stream_run(config, params, fh)
        os.replace(partial, out)
    except BaseException:
        os.remove(partial)
        raise
    calibration = None
    if calibration_out is not None:
        calibration = generate_calibration_series(config)
        with open(calibration_out, "w", newline="", encoding="utf-8") as fh:
            serialize_calibration(calibration, fh)
    _status(
        f"simulated {config.jobs} jobs x {config.qubit_count} qubits x "
        f"{config.bits_per_job} bits (model {model}, seed {config.master_seed}) "
        f"-> {out}"
    )
    return matrix, calibration


def cmd_simulate(args: argparse.Namespace) -> int:
    _simulate(_run_config(args), args.model, args.out, args.calibration_out)
    return 0


def _test_params(args: argparse.Namespace) -> TestParams:
    from .autocorr import TestParams
    return TestParams(**_given(lag=args.lag, alpha=args.alpha),
                      fixed_bias=_parse_bias_flag(args.bias))


def _write_results(matrix: PValueMatrix, out: str) -> None:
    from .ingest import write_results
    with open(out, "w", newline="", encoding="utf-8") as fh:
        write_results(matrix, fh)
    fail, degenerate, low = (int(a.sum()) for a in (
        matrix.failed(), matrix.degenerate, matrix.low_sample))
    # Low-sample cells pass or fail like any other, on a dubious normal approximation.
    _status(
        f"tested {len(matrix.job_ids)} jobs x {len(matrix.qubit_ids)} qubits "
        f"(lag {matrix.lag}, alpha {matrix.alpha}): {matrix.p_value.size - fail - degenerate} "
        f"pass, {fail} fail, {degenerate} degenerate, {low} low-sample -> {out}"
    )


def cmd_test(args: argparse.Namespace) -> int:
    from .autocorr import BLOCK_BYTES
    from .ingest import parse_jobs

    params = _test_params(args)
    # A job file's lines run to kilobytes: a buffer of many lines reads them
    # in a quarter of the time the default 8 KiB buffer takes.
    with open(args.infile, "rb", buffering=BLOCK_BYTES) as fh:
        matrix = parse_jobs(fh, params)
    _write_results(matrix, args.out)
    return 0


def _aggregate(matrix: PValueMatrix, calibration: list[CalibrationRecord] | None,
               report_path: str, scatter_path: str | None) -> None:
    """Write the fleet report (and the scatter, given a path, which needs
    calibration) and print its headline numbers."""
    from .aggregate import build_report, write_report_csv, write_scatter_csv

    report = build_report(matrix, calibration)
    with open(report_path, "w", newline="", encoding="utf-8") as fh:
        write_report_csv(report, fh)
    if scatter_path is not None:
        with open(scatter_path, "w", newline="", encoding="utf-8") as fh:
            write_scatter_csv(report, fh)
    _status(f"simultaneous-pass proportion: {report.simultaneous_pass_proportion:.4f}")
    if report.spearman_t1_failure is not None:
        _status(f"spearman(T1, failure ratio): {report.spearman_t1_failure:.4f}")
    elif calibration is None:
        _status("no calibration data: T1 fields omitted from the report")
    else:
        _status("spearman undefined: fewer than 3 complete pairs or constant ranks")


def cmd_aggregate(args: argparse.Namespace) -> int:
    from .autocorr import TestParams
    from .ingest import parse_calibration, read_results

    if args.scatter is not None and args.calibration is None:
        raise ValueError("--scatter needs --calibration")
    # Checked by its one owner before the results file is read.
    params = TestParams(**_given(alpha=args.alpha))
    with open(args.infile, "rb") as fh:
        matrix = read_results(fh, alpha=params.alpha)
    calibration = None
    if args.calibration is not None:
        with open(args.calibration, "rb") as fh:
            calibration, duplicates = parse_calibration(fh)
        if duplicates:
            _status(f"notice: {duplicates} duplicate calibration rows (last kept)")
    _aggregate(matrix, calibration, args.report, args.scatter)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    import numpy as np

    from .oracle import approximation_error

    k_range = None
    if args.k_min is not None or args.k_max is not None:
        if args.k_min is None or args.k_max is None:
            raise ValueError("--k-min and --k-max must be given together")
        k_range = (args.k_min, args.k_max)
    # Every input of the table is a flag, each checked before the file is opened.
    blocks = approximation_error(args.n, args.lag, args.p, k_range)
    worst = np.float64(0.0)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        fh.write("statistic,exact_p,approx_p,difference\n")
        # A block of rows at a time: Python scalars for every row of a long
        # table would cost 32 bytes per cell of peak memory. Within a block
        # the float text is formatted once per run of rows whose three bit
        # patterns repeat (the underflowed tails are most of a long table)
        # and the run's rows are joined in one call; bit patterns keep -0.0
        # apart from 0.0.
        for statistic, *block in blocks:
            bits = np.stack(block, axis=1).view(np.uint64)
            new_run = np.ones(len(bits), dtype=bool)
            new_run[1:] = np.any(bits[1:] != bits[:-1], axis=1)
            starts = np.flatnonzero(new_run)
            texts = [
                f",{exact!r},{approx!r},{difference!r}\n"
                for exact, approx, difference in zip(*(c[starts].tolist() for c in block))
            ]
            bounds = [*starts.tolist(), len(bits)]
            fh.writelines(text.join(map(str, statistic[start:end])) + text
                          for start, end, text in zip(bounds, bounds[1:], texts))
            # np.maximum, as np.max over the whole column, carries a NaN.
            worst = np.maximum(worst, np.max(np.abs(block[2]), initial=0.0))
    _status(f"max |exact - approx|: {float(worst):.6g}")
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    """Simulate, test and aggregate into one directory. Each stage takes
    what the one before returned, not the file just written: ``test`` of
    ``jobs.csv`` gives the same ``results.csv``, and the results and
    calibration files round-trip floats through ``repr`` in the order held."""
    from pathlib import Path

    from .autocorr import check_lag

    config, params = _run_config(args), _test_params(args)
    check_lag(config.bits_per_job, params.lag)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    matrix, calibration = _simulate(config, args.model, str(workdir / "jobs.csv"),
                                    str(workdir / "calibration.csv"), params)
    _write_results(matrix, str(workdir / "results.csv"))
    _aggregate(matrix, calibration, str(workdir / "report.csv"), str(workdir / "scatter.csv"))
    return 0


def _add_test_flags(parser: argparse.ArgumentParser) -> None:
    # --lag and --alpha default to None: TestParams' defaults are the test's.
    parser.add_argument("--lag", type=int, help="bit separation l (default 1)")
    parser.add_argument("--alpha", type=float, help="significance level (default 0.01)")
    parser.add_argument("--bias", default="estimated",
                        help="'estimated' (per-stream ones-frequency) or 'fixed:<p>'")


def _add_simulate_flags(parser: argparse.ArgumentParser) -> None:
    # The shape flags default to None: DeviceRunConfig's defaults are the run's.
    parser.add_argument("--qubits", type=int)
    parser.add_argument("--jobs", type=int)
    parser.add_argument("--bits", type=int)
    parser.add_argument("--model", choices=["ideal", "markov", "drifting"],
                        default="ideal")
    parser.add_argument("--p", type=float, help="ones-probability (default 0.5)")
    parser.add_argument("--rho", type=float, help="lag-1 autocorrelation (markov; default 0)")
    parser.add_argument("--schedule",
                        help="drifting bias phases '<bias>:<jobs>,...' covering the run")
    parser.add_argument("--seed", type=int, help="64-bit master seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrng-audit",
        description="Detect temporal correlation in QRNG bitstreams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="write a synthetic job file")
    _add_simulate_flags(p_sim)
    p_sim.add_argument("--out", required=True, help="job CSV path")
    p_sim.add_argument("--calibration-out", help="also write a drifting T1 series")
    p_sim.set_defaults(func=cmd_simulate)

    p_test = sub.add_parser("test", help="test every stream of a job file")
    p_test.add_argument("--in", dest="infile", required=True, help="job CSV path")
    p_test.add_argument("--out", required=True, help="results CSV path")
    _add_test_flags(p_test)
    p_test.set_defaults(func=cmd_test)

    p_aggr = sub.add_parser("aggregate", help="fleet report from a results file")
    p_aggr.add_argument("--in", dest="infile", required=True, help="results CSV path")
    p_aggr.add_argument("--calibration", help="calibration CSV path (optional)")
    p_aggr.add_argument("--report", required=True, help="report CSV path")
    p_aggr.add_argument("--scatter", help="T1-vs-failure scatter CSV path (needs --calibration)")
    p_aggr.add_argument("--alpha", type=float, help="significance level (default 0.01)")
    p_aggr.set_defaults(func=cmd_aggregate)

    p_oracle = sub.add_parser("oracle", help="exact vs normal-approximation table")
    p_oracle.add_argument("--n", type=int, required=True, help="sequence length")
    p_oracle.add_argument("--lag", type=int, default=1)
    p_oracle.add_argument("--p", type=float, default=0.5, help="ones-probability")
    p_oracle.add_argument("--k-min", type=int)
    p_oracle.add_argument("--k-max", type=int)
    p_oracle.add_argument("--out", required=True, help="table CSV path")
    p_oracle.set_defaults(func=cmd_oracle)

    p_pipe = sub.add_parser(
        "pipeline", help="simulate, test, and aggregate into one directory"
    )
    _add_simulate_flags(p_pipe)
    _add_test_flags(p_pipe)
    p_pipe.add_argument("--workdir", default="qrng-audit-run",
                        help="output directory (default ./qrng-audit-run)")
    p_pipe.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 1
    except ValueError as exc:
        # A ParseError is a file's data (its message carries the line) and
        # only ingest raises one, so then ingest is loaded already. Any other
        # is a flag's value, a flag pair, or a --lag the streams are too short for.
        from .ingest import ParseError
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ParseError) else 2


def entrypoint() -> None:
    sys.exit(main())
