"""Fleet-audit benchmark for the qrng-audit CLI.

    python3 perfbench/run.py --workload paper-ideal --seed 20190509 --seconds 60 --trace 0

Run from anywhere inside a source checkout; the program is run from the
checkout's ``src/`` (``python -m qrng_audit``), never from an installed copy.

``--trace 0`` measures the end-to-end metrics. One driver process starts
every CLI call as a child, one at a time: wall time comes from the driver,
peak RSS from each child's own rusage (``os.wait4``). An iteration is

* ``--help`` twice (``setup_s``: interpreter start, imports, parser),
* ``pipeline`` into the run's work directory (``pipeline_s``),
* ``test`` + ``aggregate`` over that directory's jobs.csv and
  calibration.csv (``audit_s``: auditing device files, no simulator),
* the workload's ``oracle`` calls (``oracle_s``), whenever they have so far
  taken no longer than the pipeline and audit calls, so that one long
  oracle call does not starve the other metrics of samples,

and another iteration starts while one as long as the last would still end
within ``--seconds``. Each metric is the median over the run's samples.
The outputs are then checked with the benchmark's own code (see
checks.py), and every iteration's outputs must be byte-identical to the
first's.

``--trace 1`` measures the per-layer metrics. Each iteration runs the CLI
iteration above, then the same pipeline and oracle calls in-process through
``qrng_audit.cli.main`` with a span around every call into a traced public
function (see spans.py). The traced outputs must be byte-identical to the
CLI's. Per-layer metrics are medians over the traced iterations:

* ``<layer>.<function>.s``: time inside that function's spans; calls on the
  program's worker threads are summed over threads.
* ``<layer>.self_s``: span time minus the union of child spans, per layer.
  These, plus ``trace.untraced_s`` (root self time) and minus
  ``trace.thread_overlap_s``, add up to ``trace.wall_s``.
* ``cli.<stage>.s``: the CLI wall time of that command minus the layer time
  inside the same in-process stage (interpreter start, imports, argument
  parsing, file handles); ``cli.overhead_s`` is the same over the pipeline
  and oracle calls.
* ``trace.overhead_s``: traced wall time minus the CLI wall time of the same
  calls less one ``setup_s`` per call, since the in-process run pays no
  interpreter start.
* counts, which repeat exactly: cells, bits, file bytes, verdicts, erfc
  calls, oracle rows, and ``autocorr.kernel_mb_computed``, the bytes the
  uint8 XOR kernel touches as computed from array sizes, not measured.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. A fuller record (samples, percentiles, provenance, check results)
is written to perfbench/out/<workload>-seed<seed>-trace<t>.json; spans of
the last traced iteration go next to it as a CSV.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
DEFAULT_SEED = 20190509
ALPHA = 0.01
SETUP_PROBES = 2
# A run must end within 180 s: no iteration starts that would finish after
# ITERATION_BUDGET_S, and every child is killed at CHILD_DEADLINE_S.
ITERATION_BUDGET_S = 140.0
CHILD_DEADLINE_S = 165.0
MIB = 1024.0  # ru_maxrss is in KiB on Linux
# Cleared for every run, so the program uses its default thread count.
THREADS_ENV_VAR = "QRNG_AUDIT_THREADS"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: int
    qubits: int
    bits: int
    model: tuple[str, ...]
    lag: int
    bias: str
    oracle: tuple[tuple[int, int, float], ...]  # (n, lag, p) per oracle call

    @property
    def fixed_bias(self) -> float | None:
        return float(self.bias.split(":", 1)[1]) if self.bias.startswith("fixed:") else None

    @property
    def stream_bits(self) -> int:
        return self.jobs * self.qubits * self.bits

    def shape(self) -> dict:
        return {"jobs": self.jobs, "qubits": self.qubits, "bits": self.bits,
                "model": list(self.model), "lag": self.lag, "bias": self.bias,
                "alpha": ALPHA, "oracle": [list(o) for o in self.oracle]}

    def pipeline_argv(self, seed: int, workdir: Path) -> list[str]:
        return ["pipeline", "--qubits", str(self.qubits), "--jobs", str(self.jobs),
                "--bits", str(self.bits), *self.model, "--seed", str(seed),
                "--lag", str(self.lag), "--alpha", repr(ALPHA), "--bias", self.bias,
                "--workdir", str(workdir)]

    def test_argv(self, jobs_csv: Path, results_csv: Path) -> list[str]:
        return ["test", "--in", str(jobs_csv), "--out", str(results_csv),
                "--lag", str(self.lag), "--alpha", repr(ALPHA), "--bias", self.bias]

    @staticmethod
    def aggregate_argv(results_csv: Path, calibration_csv: Path, outdir: Path) -> list[str]:
        return ["aggregate", "--in", str(results_csv), "--calibration", str(calibration_csv),
                "--report", str(outdir / "report.csv"), "--scatter", str(outdir / "scatter.csv"),
                "--alpha", repr(ALPHA)]

    def oracle_argvs(self, outdir: Path) -> list[list[str]]:
        return [["oracle", "--n", str(n), "--lag", str(lag), "--p", repr(p),
                 "--out", str(outdir / f"oracle-n{n}-lag{lag}-p{p}.csv")]
                for n, lag, p in self.oracle]


# Each workload also runs the exact-oracle gap table at its own stream length
# (binomial route, p = 1/2) and one enumeration-route table at p != 1/2, so
# every layer runs on every workload. Job counts are scaled down from the
# paper's 579 so that a 60 s run holds enough samples for steady medians.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="paper-ideal",
            why="the paper's job shape, 20 qubits x 8192 ideal bits with estimated "
                "bias, for 145 of its 579 jobs; many short cells, so per-cell costs "
                "and CSV text dominate",
            jobs=145, qubits=20, bits=8192, model=("--model", "ideal", "--p", "0.5"),
            lag=1, bias="estimated", oracle=((8192, 1, 0.5), (24, 1, 0.3)),
        ),
        Workload(
            name="reset-markov",
            why="imperfect-reset Markov model: 2 jobs x 20 qubits x 131072 bits, "
                "fixed bias; few long cells, so per-bit costs dominate",
            jobs=2, qubits=20, bits=131072,
            model=("--model", "markov", "--p", "0.5", "--rho", "0.005"),
            lag=1, bias="fixed:0.5", oracle=((131072, 1, 0.5), (24, 3, 0.1)),
        ),
    )
}

END_TO_END = {  # name -> unit
    "setup_s": "s", "pipeline_s": "s", "pipeline_rss_mb": "MiB",
    "audit_s": "s", "audit_rss_mb": "MiB", "audit_mbit_per_s": "Mbit/s",
    "oracle_s": "s", "oracle_rss_mb": "MiB",
}

PER_LAYER = {
    "simulate.generate_device_run.s": "s", "simulate.mbit_per_s": "Mbit/s",
    "ingest.serialize_jobs.s": "s", "ingest.serialize_jobs.mb_per_s": "MB/s",
    "ingest.parse_jobs.s": "s", "ingest.parse_jobs.mb_per_s": "MB/s",
    "ingest.write_results.s": "s", "ingest.read_results.s": "s",
    "ingest.parse_calibration.s": "s",
    "autocorr.run_test.s": "s", "autocorr.run_test.us_per_cell": "us/cell",
    "autocorr.autocorr_statistic.s": "s", "autocorr.kernel_mb_computed": "MB",
    "autocorr.p_value.s": "s",
    "special.erfc.s": "s", "special.erfc.calls": "count",
    "aggregate.build_matrix.s": "s", "aggregate.build_matrix.overhead_s": "s",
    "aggregate.matrix_from_results.s": "s", "aggregate.build_report.s": "s",
    "aggregate.write_report_csv.s": "s",
    "oracle.exact_distribution_binomial.s": "s",
    "oracle.exact_distribution_enumerate.s": "s",
    "oracle.approximation_error.s": "s", "oracle.rows": "count",
    "cli.test.s": "s", "cli.aggregate.s": "s", "cli.oracle.s": "s",
    "cli.overhead_s": "s",
    "cells": "count", "bits": "count", "jobs_csv_bytes": "B", "results_csv_bytes": "B",
    "verdict.pass": "count", "verdict.fail": "count", "verdict.degenerate": "count",
    "verdict.low_sample": "count", "aggregate.decided_share": "share",
    **{f"{layer}.self_s": "s" for layer in spans.LAYERS},
    "trace.wall_s": "s", "trace.untraced_s": "s", "trace.thread_overlap_s": "s",
    "trace.overhead_s": "s",
}


class Tally:
    """Operations attempted and failed: one per CLI call, one per check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


@dataclass
class Call:
    wall_s: float
    rss_mb: float
    returncode: int


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV_VAR}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(argv: list[str], cwd: Path, deadline: float) -> Call:
    """Run ``python -m qrng_audit argv`` to completion; wall time from here,
    peak RSS from the child's own rusage."""
    err_path = cwd / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "qrng_audit", *argv], cwd=cwd,
                                env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = err_path.read_text(errors="replace")[-400:]
        print(f"qrng-audit {' '.join(argv)} exited {proc.returncode}: {tail}",
              file=sys.stderr)
    return Call(wall, usage.ru_maxrss / MIB, proc.returncode)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digests(paths: list[Path]) -> dict[str, str]:
    return {p.name: sha256(p) for p in paths}


PIPELINE_FILES = ("jobs.csv", "calibration.csv", "results.csv", "report.csv", "scatter.csv")
AUDIT_FILES = ("results.csv", "report.csv", "scatter.csv")


class Run:
    """One benchmark run of one workload: its directories, samples and tally."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.w = workload
        self.seed = seed
        self.pipe = work / "pipeline"
        self.audit = work / "audit"
        self.oracle = work / "oracle"
        self.traced = work / "traced"
        for d in (self.pipe, self.audit, self.oracle, self.traced):
            d.mkdir(parents=True)
        self.tally = Tally()
        self.samples: dict[str, list[float]] = {k: [] for k in (
            "setup_s", "pipeline_s", "pipeline_rss_mb", "test_s", "aggregate_s",
            "audit_s", "audit_rss_mb", "audit_mbit_per_s", "oracle_s", "oracle_rss_mb")}
        self.first_digests: dict[str, dict[str, str]] | None = None
        self.argv: dict[str, list] = {}

    def call(self, argv: list[str], t0: float) -> Call | None:
        call = run_cli(argv, self.pipe.parent, t0 + CHILD_DEADLINE_S)
        ok = self.tally.record(call.returncode == 0, f"qrng-audit {argv[0]} rc={call.returncode}")
        return call if ok else None

    def cli_iteration(self, t0: float) -> bool:
        w = self.w
        for _ in range(SETUP_PROBES):
            call = self.call(["--help"], t0)
            if call:
                self.samples["setup_s"].append(call.wall_s)
        pipe_argv = w.pipeline_argv(self.seed, self.pipe)
        test_argv = w.test_argv(self.pipe / "jobs.csv", self.audit / "results.csv")
        agg_argv = w.aggregate_argv(self.audit / "results.csv", self.pipe / "calibration.csv",
                                    self.audit)
        oracle_argvs = w.oracle_argvs(self.oracle)
        self.argv = {"pipeline": pipe_argv, "test": test_argv, "aggregate": agg_argv,
                     "oracle": oracle_argvs}
        pipe = self.call(pipe_argv, t0)
        if pipe is None:
            return False
        s = self.samples
        test = self.call(test_argv, t0)
        agg = self.call(agg_argv, t0) if test else None
        if test is None or agg is None:
            return False
        if sum(s["oracle_s"]) <= sum(s["pipeline_s"]) + sum(s["audit_s"]):
            oracles = [self.call(a, t0) for a in oracle_argvs]
            if None in oracles:
                return False
            s["oracle_s"].append(sum(c.wall_s for c in oracles))
            s["oracle_rss_mb"].append(max(c.rss_mb for c in oracles))
        s["pipeline_s"].append(pipe.wall_s)
        s["pipeline_rss_mb"].append(pipe.rss_mb)
        s["test_s"].append(test.wall_s)
        s["aggregate_s"].append(agg.wall_s)
        s["audit_s"].append(test.wall_s + agg.wall_s)
        s["audit_rss_mb"].append(max(test.rss_mb, agg.rss_mb))
        s["audit_mbit_per_s"].append(w.stream_bits / 1e6 / (test.wall_s + agg.wall_s))

        found = self.output_digests(self.pipe, self.oracle)
        audit = digests([self.audit / f for f in AUDIT_FILES])
        self.tally.record(all(audit[f] == found["pipeline"][f] for f in AUDIT_FILES),
                          "test + aggregate outputs differ from the pipeline's")
        if self.first_digests is None:
            self.first_digests = found
        else:
            self.tally.record(found == self.first_digests,
                              "outputs differ from the first iteration's")
        return True

    def output_digests(self, pipe_dir: Path, oracle_dir: Path) -> dict[str, dict[str, str]]:
        return {"pipeline": digests([pipe_dir / f for f in PIPELINE_FILES]),
                "oracle": digests([Path(a[-1]) for a in self.w.oracle_argvs(oracle_dir)])}

    def check_outputs(self, t0: float) -> dict[str, object]:
        """The independent checks, once per run, on the last iteration's
        outputs (every iteration's outputs are byte-identical). They run in a
        child process so that this process never imports numpy: a child's
        peak RSS counts its parent's RSS at the moment it was started."""
        w = self.w
        spec = {"pipeline": str(self.pipe), "lag": w.lag, "alpha": ALPHA,
                "fixed_bias": w.fixed_bias,
                "oracle": [[n, lag, p, argv[-1]] for (n, lag, p), argv
                           in zip(w.oracle, w.oracle_argvs(self.oracle))]}
        try:
            done = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("checks.py")), json.dumps(spec)],
                capture_output=True, text=True, env=child_env(),
                timeout=max(1.0, t0 + CHILD_DEADLINE_S - time.monotonic()))
            report = json.loads(done.stdout.splitlines()[-1])
        except (subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
            self.tally.record(False, f"output checks did not complete: {exc!r}")
            return {}
        for name, problems in report["problems"].items():
            self.tally.record(not problems, f"check {name}: {problems[:3]}")
        return report


def median_summary(values: list[float], higher_is_better: bool = False) -> dict:
    """Median, sample count, and the highest percentile with at least ten
    samples beyond it, towards the worse end (None below eleven samples)."""
    ordered = sorted(values, reverse=higher_is_better)
    out = {"median": statistics.median(ordered), "n": len(ordered), "percentile": None}
    if len(ordered) >= 11:
        i = len(ordered) - 11
        out["percentile"] = {"p": int(100 * (i + 1) / len(ordered)), "value": ordered[i]}
    return out


# --- traced run --------------------------------------------------------------

def _observe_run_test(counts, args, result) -> None:
    counts["cells"] += 1
    counts[f"verdict.{result.verdict.value}"] += 1
    counts["verdict.low_sample"] += bool(result.low_sample)


def _observe_statistic(counts, args, result) -> None:
    seq, lag = args[0], args[1]
    # uint8 kernel: two shifted reads, one XOR write, one read for the sum.
    counts["kernel_bytes"] += 4 * (len(seq) - lag)


def _observe_approximation(counts, args, result) -> None:
    counts["oracle.rows"] += len(result.rows)


def _safe(observe):
    def guarded(counts, args, result):
        try:
            observe(counts, args, result)
        except Exception:  # a changed return type must not break the traced run
            counts["observe_errors"] += 1
    return guarded


OBSERVERS = {
    "autocorr.run_test": _safe(_observe_run_test),
    "autocorr.autocorr_statistic": _safe(_observe_statistic),
    "oracle.approximation_error": _safe(_observe_approximation),
}


def import_program():
    sys.path.insert(0, str(SRC))
    import qrng_audit.cli as cli  # noqa: E402  (the checkout's own copy)

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported qrng_audit from {cli.__file__}, not {SRC}")
    return cli


def traced_iteration(run: Run, cli, trace_id: str) -> tuple[spans.Recorder, list[str]]:
    """The pipeline and oracle calls of one iteration, in-process, with spans."""
    recorder = spans.Recorder(trace_id)
    argvs = [run.w.pipeline_argv(run.seed, run.traced)] + run.w.oracle_argvs(run.traced)
    with spans.Patched(recorder, OBSERVERS) as patched, \
            contextlib.redirect_stdout(io.StringIO()):
        root = recorder.open("run")
        try:
            for argv in argvs:
                span = recorder.open("cli.main")
                try:
                    rc = cli.main(argv)
                finally:
                    recorder.close(span)
                if rc != 0:
                    raise RuntimeError(f"in-process {argv[0]} returned {rc}")
        finally:
            recorder.close(root)
    return recorder, patched.missing


def layer_values(recorder: spans.Recorder) -> dict[str, float]:
    """Per-iteration layer numbers from one traced iteration's spans."""
    all_spans = recorder.spans
    selfs = spans.self_times(all_spans)
    out = {name: spans.outermost_time(all_spans, name) for _, _, name in spans.TRACED}
    out["aggregate.build_matrix.overhead_s"] = sum(
        selfs[s.span_id] for s in all_spans if s.name == "aggregate.build_matrix")
    for stage in ("cli.test", "cli.aggregate", "cli.oracle"):
        out[f"{stage}.covered"] = sum(s.duration - selfs[s.span_id]
                                      for s in all_spans if s.name == stage)
    layer_self = spans.layer_self_times(all_spans)
    for layer in spans.LAYERS:
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    root = next(s for s in all_spans if s.name == "run")
    out["trace.wall_s"] = root.duration
    out["trace.untraced_s"] = selfs[root.span_id]
    # Worker-thread spans overlap, so layer self times can sum past the wall.
    out["trace.thread_overlap_s"] = (sum(layer_self.get(layer, 0.0) for layer in spans.LAYERS)
                                     - (root.duration - selfs[root.span_id]))
    out["special.erfc.calls"] = float(sum(s.name == "special.erfc" for s in all_spans))
    return out


# Layer metrics that are not named after the span they come from.
DERIVED_FROM = {
    "simulate.mbit_per_s": "simulate.generate_device_run",
    "autocorr.kernel_mb_computed": "autocorr.autocorr_statistic",
    "oracle.rows": "oracle.approximation_error",
    **{name: "autocorr.run_test" for name in (
        "cells", "bits", "verdict.pass", "verdict.fail", "verdict.degenerate",
        "verdict.low_sample", "aggregate.decided_share")},
}
COUNTED = ("autocorr.kernel_mb_computed", "oracle.rows", "cells", "bits", "verdict.pass",
           "verdict.fail", "verdict.degenerate", "verdict.low_sample",
           "aggregate.decided_share")


def missing_metrics(missing_spans: list[str], observe_errors: bool) -> list[str]:
    """Per-layer metrics that a renamed or removed function leaves unmeasured."""
    out = []
    for name in PER_LAYER:
        source = DERIVED_FROM.get(name)
        if any(name.startswith(span + ".") or source == span for span in missing_spans) \
                or (observe_errors and name in COUNTED):
            out.append(name)
    return out


def per_layer_metrics(run: Run, traced: list[dict[str, float]], counts) -> dict[str, float]:
    """Medians over the traced iterations, combined with the same run's CLI
    medians where a metric compares the two."""
    med = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
    cli_med = {k: statistics.median(v) for k, v in run.samples.items() if v}
    cells = counts.get("cells", 0)
    bits = cells * run.w.bits
    jobs_bytes = (run.pipe / "jobs.csv").stat().st_size
    layer_time = med["trace.wall_s"] - med["trace.untraced_s"] - med["cli.self_s"]

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    m = {name: med[name[:-2]] for name in PER_LAYER
         if name.endswith(".s") and name[:-2] in med}
    m.update({name: med[name] for name in PER_LAYER if name in med})
    m.update({
        "simulate.mbit_per_s": rate(bits / 1e6, med["simulate.generate_device_run"]),
        "ingest.serialize_jobs.mb_per_s": rate(jobs_bytes / 1e6, med["ingest.serialize_jobs"]),
        "ingest.parse_jobs.mb_per_s": rate(jobs_bytes / 1e6, med["ingest.parse_jobs"]),
        "autocorr.run_test.us_per_cell": rate(1e6 * med["autocorr.run_test"], cells),
        "autocorr.kernel_mb_computed": counts.get("kernel_bytes", 0) / 1e6,
        "oracle.rows": counts.get("oracle.rows", 0),
        "cli.test.s": cli_med["test_s"] - med["cli.test.covered"],
        "cli.aggregate.s": cli_med["aggregate_s"] - med["cli.aggregate.covered"],
        "cli.oracle.s": cli_med["oracle_s"] - med["cli.oracle.covered"],
        "cli.overhead_s": cli_med["pipeline_s"] + cli_med["oracle_s"] - layer_time,
        "cells": cells, "bits": bits, "jobs_csv_bytes": jobs_bytes,
        "results_csv_bytes": (run.pipe / "results.csv").stat().st_size,
        "aggregate.decided_share": rate(
            counts.get("verdict.pass", 0) + counts.get("verdict.fail", 0), cells),
        # The CLI calls pay an interpreter start each, which the in-process
        # traced run does not; setup_s measures one.
        "trace.overhead_s": med["trace.wall_s"] - (
            cli_med["pipeline_s"] + cli_med["oracle_s"]
            - (1 + len(run.w.oracle)) * cli_med["setup_s"]),
    })
    for key in ("verdict.pass", "verdict.fail", "verdict.degenerate", "verdict.low_sample"):
        m[key] = counts.get(key, 0)
    return {name: float(m[name]) for name in PER_LAYER}


# --- provenance --------------------------------------------------------------

def provenance() -> dict:
    git = {"commit": None, "dirty": None}
    if (ROOT / ".git").exists():
        try:
            git["commit"] = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                           capture_output=True, text=True).stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                                    check=True, capture_output=True, text=True).stdout
            git["dirty"] = bool(status.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    env = {k: v for k, v in child_env().items()
           if k.startswith(("PYTHON", "QRNG", "OMP_", "OPENBLAS", "MKL_", "NUMEXPR"))}
    return {
        "git": git, "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(), "child_env": env,
        "child_env_note": "QRNG_AUDIT_THREADS removed, so the program uses its default",
    }


# --- main --------------------------------------------------------------------

def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def preflight() -> str | None:
    if not (SRC / "qrng_audit" / "__main__.py").is_file():
        return f"no program source at {SRC / 'qrng_audit'}: run from a qrng-audit checkout"
    return None


def measure(workload: Workload, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    """One run; returns the full record (the caller prints the summary)."""
    t0 = time.monotonic()
    os.environ.pop(THREADS_ENV_VAR, None)  # the in-process traced run reads it too
    work = out / f"work-{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    run = Run(workload, seed, work)
    trace_id = f"{workload.name}-{seed}-{os.getpid()}-{time.time_ns()}"
    cli = import_program() if trace else None
    traced: list[dict[str, float]] = []
    recorder = None
    missing: list[str] = []
    try:
        # Warm-up: byte-compile the package once; users pay that once per install.
        run.call(["--help"], t0)
        start = time.monotonic()
        while True:
            began = time.monotonic()
            if not run.cli_iteration(t0):
                break
            if trace:
                try:
                    recorder, missing = traced_iteration(run, cli, trace_id)
                except Exception as exc:  # the traced run never fails the CLI metrics
                    run.tally.record(False, f"traced run raised {exc!r}")
                    break
                if not run.tally.record(
                        run.output_digests(run.traced, run.traced) == run.first_digests,
                        "traced outputs differ from the CLI run's"):
                    break
                traced.append(layer_values(recorder))
            # Start another iteration only if one as long as the last still
            # ends within the measuring time.
            now = time.monotonic()
            if (now - start) + (now - began) > seconds or \
                    (now - t0) + (now - began) > ITERATION_BUDGET_S:
                break
        check_report = run.check_outputs(t0) if run.first_digests else {}
        identity = {
            "workload": workload.name, "seed": seed, "shape": workload.shape(),
            "argv": run.argv,
            "jobs_csv_sha256": (run.first_digests or {}).get("pipeline", {}).get("jobs.csv"),
        }
        record = {
            "identity": identity,
            "identity_sha256": hashlib.sha256(
                json.dumps(identity, sort_keys=True).encode()).hexdigest(),
            "provenance": provenance(), "trace": int(trace), "seconds": seconds,
            "samples": run.samples,
            "summary": {k: median_summary(v, k.endswith("_per_s"))
                        for k, v in run.samples.items() if v},
            "checks": check_report, "attempted": run.tally.attempted,
            "failed": len(run.tally.failures), "failures": run.tally.failures,
        }
        if trace and traced:
            record["per_layer"] = per_layer_metrics(run, traced, recorder.counts)
            record["missing"] = missing_metrics(missing,
                                                bool(recorder.counts.get("observe_errors")))
            record["traced_iterations"] = traced
            spans_path = out / f"{workload.name}-seed{seed}-spans.csv"
            spans.write_spans(spans_path, trace_id, recorder.spans)
            record["spans_file"] = spans_path.name
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_report(record: dict, trace: bool) -> dict[str, dict]:
    """Print every metric by name and unit; return the driver's metrics."""
    ident = record["identity"]
    print(f"workload {ident['workload']} seed {ident['seed']} shape {ident['shape']}")
    print(f"jobs.csv sha256 {ident['jobs_csv_sha256']}  identity {record['identity_sha256'][:16]}")
    failed_share = record["failed"] / max(1, record["attempted"])
    print(f"failed_share {failed_share:.4f} ({record['failed']}/{record['attempted']} operations)")
    checked = record["checks"]
    if checked:
        print(f"numpy {checked['numpy']}; cells within 1e-12 of alpha, skipped: "
              f"{checked['cells_near_alpha_skipped']}")
        for name, problems in checked["problems"].items():
            print(f"check {name}: {'ok' if not problems else problems[:3]}")
    metrics: dict[str, dict] = {}
    if not trace:
        summary = record["summary"]
        for name, unit in END_TO_END.items():
            if name not in summary:
                continue
            s = summary[name]
            pct = (f"p{s['percentile']['p']}={s['percentile']['value']:.6g}"
                   if s["percentile"] else "no percentile with 10 samples beyond")
            print(f"{name:<20} {s['median']:>14.6g} {unit:<8} median of n={s['n']}; {pct}")
            metrics[name] = {"value": s["median"], "unit": unit}
    elif "per_layer" in record:
        missing = set(record["missing"])
        for name, unit in PER_LAYER.items():
            value = record["per_layer"][name]
            shown = "missing" if name in missing else f"{value:.6g}"
            print(f"{name:<40} {shown:>14} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    problem = preflight()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]
    record = measure(workload, args.seed, args.seconds, bool(args.trace), OUT)
    metrics = print_report(record, bool(args.trace))
    expected = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(expected):
        print(f"error: no measurement for {sorted(set(expected) - set(metrics))}",
              file=sys.stderr)
        return 1
    result_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"full record: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
