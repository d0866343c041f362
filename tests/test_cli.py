"""Command-line interface: subcommands, exit codes, determinism, pipeline."""

import collections
import contextlib
import csv
import hashlib
import importlib
import io
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import tomllib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrng_audit import ingest, oracle, simulate
from qrng_audit.cli import main
from qrng_audit.ingest import ParseError
from qrng_audit.oracle import ENUMERATION_MAX_N, approximation_error
from reference import joined_table


SRC = Path(__file__).resolve().parent.parent / "src"
# A locale whose default encoding is ASCII: no coercion to C.UTF-8, no UTF-8 mode.
ASCII_LOCALE = {"LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def run(args):
    return main([str(a) for a in args])


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_simulate_writes_expected_rows(tmp_path, capsys):
    out = tmp_path / "jobs.csv"
    assert run(["simulate", "--qubits", 3, "--jobs", 4, "--bits", 32,
                "--seed", 42, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 3 * 4
    assert "seed 42" in capsys.readouterr().err


def test_simulate_deterministic_by_seed(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    run(["simulate", "--qubits", 2, "--jobs", 3, "--bits", 64, "--seed", 1, "--out", a])
    run(["simulate", "--qubits", 2, "--jobs", 3, "--bits", 64, "--seed", 1, "--out", b])
    run(["simulate", "--qubits", 2, "--jobs", 3, "--bits", 64, "--seed", 2, "--out", c])
    assert sha256(a) == sha256(b)
    assert sha256(a) != sha256(c)


def test_simulate_markov_rho_out_of_range_exits_2(tmp_path, capsys):
    code = run(["simulate", "--model", "markov", "--rho", 1.5,
                "--out", tmp_path / "x.csv"])
    assert code == 2
    assert "rho" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_simulate_seed_outside_64_bits_exits_2(tmp_path, capsys, seed):
    out = tmp_path / "x.csv"
    assert run(["simulate", "--qubits", 1, "--jobs", 1, "--bits", 8,
                "--seed", seed, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "seed" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_simulate_drifting_needs_schedule(tmp_path):
    assert run(["simulate", "--model", "drifting", "--out", tmp_path / "x.csv"]) == 2
    assert run(["simulate", "--model", "drifting", "--schedule", "0.4:2,0.6:2",
                "--jobs", 4, "--qubits", 1, "--bits", 16,
                "--out", tmp_path / "x.csv"]) == 0


NEGATIVE_RHO = ("rho=-0.9 with bias=0.2 gives transition probabilities outside [0, 1] "
                "(need rho > -min(p/(1-p), (1-p)/p))")


@pytest.mark.parametrize("flags, message", [
    (["--model", "drifting", "--schedule", "0.4:2,0.6:1"],
     "schedule covers 3 jobs but the run has 4"),
    (["--model", "drifting", "--schedule", "0.4:2,0.6:3"],
     "schedule covers 5 jobs but the run has 4"),
    (["--model", "drifting", "--schedule", "0.5:1"],
     "schedule covers 1 jobs but the run has 4"),
    (["--model", "drifting", "--schedule", "0.4:4,0.6:0"],
     "phase job count must be >= 1, got 0"),
    (["--model", "drifting", "--schedule", "1.4:4"], "bias must be in [0, 1], got 1.4"),
    (["--model", "markov", "--rho", 1.5], "rho must be < 1, got 1.5"),
    (["--p", 1.5], "bias must be in [0, 1], got 1.5"),
    (["--bias", "fixed:7"], "fixed bias must be in [0, 1], got 7.0"),
    (["--bias", "fixed:nan"], "fixed bias must be in [0, 1], got nan"),
    (["--bias", "fixed:-0.1"], "fixed bias must be in [0, 1], got -0.1"),
    (["--lag", 16], "lag must satisfy 1 <= lag < n=16, got 16"),
    # chain parameters are checked before the run's shape and seed, and a
    # phase's bias before its job count
    (["--jobs", 0, "--model", "markov", "--p", 0.2, "--rho", -0.9], NEGATIVE_RHO),
    (["--seed", -1, "--model", "markov", "--p", 0.2, "--rho", -0.9], NEGATIVE_RHO),
    (["--model", "drifting", "--schedule", "1.5:0"], "bias must be in [0, 1], got 1.5"),
], ids=["short-schedule", "long-schedule", "one-job-schedule", "zero-job-phase",
        "phase-bias", "rho", "p", "fixed-7", "fixed-nan", "fixed-negative", "lag",
        "chain-before-jobs", "chain-before-seed", "phase-bias-before-count"])
def test_pipeline_model_and_bias_errors_exit_2(tmp_path, capsys, flags, message):
    code = run(["pipeline", "--jobs", 4, "--qubits", 1, "--bits", 16, *flags,
                "--workdir", tmp_path / "run"])
    assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["simulate", "pipeline"])
@pytest.mark.parametrize("flags, message", [
    (["--rho", 0.0], "--rho does not apply to --model ideal"),
    (["--model", "ideal", "--rho", 0.3], "--rho does not apply to --model ideal"),
    (["--model", "drifting", "--schedule", "0.4:2,0.6:2", "--rho", 0.3],
     "--rho does not apply to --model drifting"),
    (["--model", "markov", "--schedule", "0.4:2,0.6:2"],
     "--schedule does not apply to --model markov"),
    (["--schedule", "0.4:4"], "--schedule does not apply to --model ideal"),
    (["--model", "drifting", "--schedule", "0.4:2,0.6:2", "--p", 0.9],
     "--p does not apply to --model drifting"),
    # refused before any other chain check
    (["--model", "drifting", "--p", 0.9], "--p does not apply to --model drifting"),
    (["--model", "ideal", "--rho", 0.3, "--p", 1.5], "--rho does not apply to --model ideal"),
], ids=["rho-default-ideal", "rho-ideal", "rho-drifting", "schedule-markov",
        "schedule-ideal", "p-drifting", "p-before-missing-schedule", "rho-before-bias"])
def test_flags_the_model_ignores_exit_2(tmp_path, capsys, command, flags, message):
    shape = ["--jobs", 4, "--qubits", 1, "--bits", 16]
    out = ["--out", tmp_path / "x.csv"] if command == "simulate" else [
        "--workdir", tmp_path / "x"]
    assert run([command, *shape, *flags, *out]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_unknown_flag_exits_2(tmp_path):
    assert run(["simulate", "--frobnicate", "--out", tmp_path / "x.csv"]) == 2


def test_test_alternating_fixture_all_fail(tmp_path):
    jobs = tmp_path / "jobs.csv"
    jobs.write_text(
        "job_id,timestamp,qubit_id,bits\n"
        + "".join(
            f"j{j},2019-05-09T1{j}:00:00Z,{q},{'01' * 256}\n"
            for j in range(2) for q in range(2)
        )
    )
    out = tmp_path / "results.csv"
    assert run(["test", "--in", jobs, "--out", out]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 4
    assert all(row.endswith(",fail") for row in rows)


def test_test_all_ones_fixture_degenerate(tmp_path):
    jobs = tmp_path / "jobs.csv"
    jobs.write_text(
        "job_id,timestamp,qubit_id,bits\nj1,2019-05-09T11:00:00Z,0,11111111\n"
    )
    out = tmp_path / "results.csv"
    assert run(["test", "--in", jobs, "--out", out]) == 0
    assert out.read_text().splitlines()[1].endswith(",degenerate")


# The first data row is at the csv module's field size limit, the second past it.
OVER_LIMIT_JOBS = ("job_id,timestamp,qubit_id,bits\n"
                   f"j1,2019-05-09T11:00:00Z,0,{'01' * 65536}\n"
                   f"j1,2019-05-09T11:00:00Z,1,{'01' * 65536}0\n")


def test_test_parse_error_exits_1_with_line(tmp_path, capsys):
    jobs = tmp_path / "jobs.csv"
    jobs.write_text(
        "job_id,timestamp,qubit_id,bits\nj1,2019-05-09T11:00:00Z,0,01a0\n"
    )
    assert run(["test", "--in", jobs, "--out", tmp_path / "r.csv"]) == 1
    assert "line 2" in capsys.readouterr().err


def test_test_refuses_an_over_limit_stream_on_a_later_row(tmp_path, capsys):
    jobs = tmp_path / "jobs.csv"
    jobs.write_text(OVER_LIMIT_JOBS)
    assert run(["test", "--in", jobs, "--out", tmp_path / "r.csv"]) == 1
    err = capsys.readouterr().err
    assert "line 3: unreadable CSV" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r.csv").exists()


def job_file_forms(text):
    """Four forms of one job file, each of which reads as the same grid."""
    header, *rows = text.splitlines(True)
    shuffled = rows[:]
    random.Random(7).shuffle(shuffled)
    return {
        "lf": text,
        "crlf": text.replace("\n", "\r\n"),
        "shuffled": header + "".join(shuffled),
        "quoted": header + "".join(re.sub(r"^([^,]*),", r'"\1",', row) for row in rows),
    }


@pytest.mark.parametrize("form", ["lf", "crlf", "shuffled", "quoted"])
def test_test_writes_the_pipeline_results_from_every_form_of_its_job_file(tmp_path, form):
    """80 rows of 8192 bits: more than one 64 KiB block of packed rows."""
    workdir = tmp_path / "run"
    assert run(["pipeline", "--qubits", 20, "--jobs", 4, "--bits", 8192, "--seed", 5,
                "--model", "markov", "--rho", 0.1, "--workdir", workdir]) == 0
    jobs = tmp_path / f"{form}.csv"
    jobs.write_bytes(job_file_forms((workdir / "jobs.csv").read_bytes().decode())[form].encode())
    assert run(["test", "--in", jobs, "--out", tmp_path / "results.csv"]) == 0
    assert sha256(tmp_path / "results.csv") == sha256(workdir / "results.csv")


def test_test_missing_input_exits_1(tmp_path):
    assert run(["test", "--in", tmp_path / "nope.csv", "--out", tmp_path / "r.csv"]) == 1


def test_test_bad_lag_exits_2(tmp_path):
    jobs = tmp_path / "jobs.csv"
    jobs.write_text(
        "job_id,timestamp,qubit_id,bits\nj1,2019-05-09T11:00:00Z,0,0110\n"
    )
    assert run(["test", "--in", jobs, "--out", tmp_path / "r.csv", "--lag", 0]) == 2
    assert run(["test", "--in", jobs, "--out", tmp_path / "r.csv", "--lag", 99]) == 2


@pytest.mark.parametrize("error, code", [
    (ParseError("bits past the declared count", 2), 1),
    (OSError("No space left on device"), 1),
    (MemoryError("Unable to allocate 4.21 TiB for an array"), 1),
    (ValueError("lag must satisfy 1 <= lag < n=4, got 9"), 2),
], ids=["ParseError", "OSError", "MemoryError", "ValueError"])
def test_exit_code_follows_the_error_class(tmp_path, capsys, monkeypatch, error, code):
    """``main`` alone turns an error into an exit code, by its class: a
    file's data, IO and allocation exit 1, and any other ValueError, which
    only a flag can cause, exits 2."""
    def fail(*_args, **_kwargs):
        raise error

    monkeypatch.setattr(ingest, "parse_jobs", fail)
    jobs, out = tmp_path / "jobs.csv", tmp_path / "results.csv"
    jobs.write_text("job_id,timestamp,qubit_id,bits\nj1,2019-05-09T11:00:00Z,0,0110\n")
    assert run(["test", "--in", jobs, "--out", out]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_tested_line_gives_the_verdict_counts_of_the_results_file(tmp_path, capsys):
    """``pipeline`` and ``test`` both report how many cells pass, fail and
    are degenerate, as results.csv's verdict column counts them, and how
    many of the decided cells are low-sample: (n - lag) q (1 - q) < 25 at
    the row's bias, q = 2 bias (1 - bias)."""
    workdir, results = tmp_path / "run", tmp_path / "results.csv"
    flags = ["--lag", 1, "--alpha", 0.3]
    assert run(["pipeline", "--qubits", 5, "--jobs", 6, "--bits", 200, "--model", "drifting",
                "--schedule", "0:1,0.05:2,0.5:3", *flags, "--workdir", workdir]) == 0
    piped = capsys.readouterr().err
    assert run(["test", "--in", workdir / "jobs.csv", "--out", results, *flags]) == 0
    tested = capsys.readouterr().err
    assert sha256(results) == sha256(workdir / "results.csv")
    with open(results, newline="") as fh:
        rows = list(csv.DictReader(fh))
    verdicts = collections.Counter(row["verdict"] for row in rows)
    low = 0
    for row in rows:
        q = 2 * float(row["bias"]) * (1 - float(row["bias"]))
        low += row["verdict"] != "degenerate" and 199 * q * (1 - q) < 25
    assert min(verdicts["pass"], verdicts["fail"], verdicts["degenerate"]) > 0
    assert 0 < low < verdicts["pass"] + verdicts["fail"]
    counts = (f"tested 6 jobs x 5 qubits (lag 1, alpha 0.3): {verdicts['pass']} pass, "
              f"{verdicts['fail']} fail, {verdicts['degenerate']} degenerate, {low} low-sample")
    assert f"{counts} -> {workdir / 'results.csv'}\n" in piped
    assert tested == f"{counts} -> {results}\n"


def multi_block_job_rows():
    """The data rows of a 5 x 20 job file of 8192-bit streams in grid order:
    100 rows, more than one 64 KiB block of packed rows."""
    rng = np.random.default_rng(21)
    return [f"j{j},2019-05-09T1{j}:00:00Z,{q},"
            f"{''.join('01'[b] for b in rng.integers(0, 2, 8192).tolist())}\n"
            for j in range(5) for q in range(20)]


def with_row(rows, index, row):
    return rows[:index] + [row] + rows[index + 1:]


BAD_ROW_90 = "j4,2019-05-09T14:00:00Z,9," + "01a0" * 2048 + "\n"


@pytest.mark.parametrize("edit, flags, code, message", [
    # a parse error at any row wins over a lag the streams are too short for
    (lambda rows: with_row(rows, 89, BAD_ROW_90), ["--lag", 8192], 1,
     "line 91: bit string contains non-bit character 'a'"),
    (lambda rows: with_row(rows, 89, BAD_ROW_90), ["--lag", 9000], 1,
     "line 91: bit string contains non-bit character 'a'"),
    (lambda rows: [], [], 1, "no streams to analyze"),
    (lambda rows: [], ["--lag", 8192], 1, "no streams to analyze"),
    (lambda rows: rows, ["--lag", 8192], 2, "lag must satisfy 1 <= lag < n=8192, got 8192"),
    (lambda rows: rows[:-1], [], 1, "job 'j4' has no row for qubit 19"),
    (lambda rows: rows[:-1], ["--lag", 8192], 1, "job 'j4' has no row for qubit 19"),
    (lambda rows: rows + rows[70:71], [], 1, "line 102: duplicate stream for job 'j3' qubit 10"),
    (lambda rows: rows + rows[70:71], ["--lag", 8192], 1,
     "line 102: duplicate stream for job 'j3' qubit 10"),
    (lambda rows: with_row(rows, 89, rows[89][2:]), ["--lag", 8192], 1, "line 91: empty job_id"),
    # the CR ends line 91, so the row ends on line 92
    (lambda rows: with_row(rows, 89, '"j\r4"' + rows[89][2:]), ["--lag", 8192], 1,
     "line 92: job_id 'j\\r4' contains a carriage return"),
    (lambda rows: with_row(rows, 89, rows[89].replace(",9,", ",-9,", 1)), ["--lag", 8192], 1,
     "line 91: qubit_id must be non-negative, got -9"),
], ids=["bad-row-lag-n", "bad-row-lag-above-n", "header-only", "header-only-lag-n",
        "lag-n", "missing-cell", "missing-cell-lag-n", "duplicate-cell",
        "duplicate-cell-lag-n", "empty-job-id-lag-n", "cr-job-id-lag-n",
        "negative-qubit-lag-n"])
def test_test_error_precedence(tmp_path, capsys, edit, flags, code, message):
    """A file's parse and grid errors come before the emptiness check, and
    that before the lag check, whatever block of rows holds the fault."""
    jobs = tmp_path / "jobs.csv"
    jobs.write_text("job_id,timestamp,qubit_id,bits\n" + "".join(edit(multi_block_job_rows())))
    out = tmp_path / "r.csv"
    assert (run(["test", "--in", jobs, "--out", out, *flags]), capsys.readouterr().err) == (
        code, f"error: {message}\n")
    assert not out.exists()


def test_test_refuses_a_line_longer_than_any_row(tmp_path, capsys):
    """A 3 MiB bit field with no line end runs past the longest line a job
    row can take: it is refused at its line, by the csv field limit."""
    jobs = tmp_path / "jobs.csv"
    jobs.write_bytes(b"job_id,timestamp,qubit_id,bits\nj1,2019-05-09T11:24:27Z,0,"
                     + b"0" * (3 << 20))
    out = tmp_path / "r.csv"
    assert (run(["test", "--in", jobs, "--out", out]), capsys.readouterr().err) == (
        1, "error: line 2: unreadable CSV: field larger than field limit (131072)\n")
    assert not out.exists()


def test_aggregate_refuses_a_line_longer_than_any_results_row(tmp_path, capsys):
    """Only a results row's job_id may reach the csv field limit, so a 3 MiB
    line is read no further than about one field past it and refused at its
    line, by the csv field limit."""
    results = tmp_path / "results.csv"
    results.write_bytes(b"job_id,qubit_id,n,lag,bias,statistic,normalized,p_value,verdict\n"
                        b"j1,0," + b"0" * (3 << 20))
    report = tmp_path / "report.csv"
    assert (run(["aggregate", "--in", results, "--report", report]),
            capsys.readouterr().err) == (
        1, "error: line 2: unreadable CSV: field larger than field limit (131072)\n")
    assert not report.exists()


def test_test_fixed_bias_flag(tmp_path):
    jobs = tmp_path / "jobs.csv"
    jobs.write_text(
        "job_id,timestamp,qubit_id,bits\nj1,2019-05-09T11:00:00Z,0,01100110\n"
    )
    out = tmp_path / "r.csv"
    assert run(["test", "--in", jobs, "--out", out, "--bias", "fixed:0.25"]) == 0
    assert ",0.25," in out.read_text().splitlines()[1]
    assert run(["test", "--in", jobs, "--out", out, "--bias", "fixed:7"]) == 2
    assert run(["test", "--in", jobs, "--out", out, "--bias", "sometimes"]) == 2


def test_cross_check_p_values_against_stdlib(tmp_path):
    """Independent recomputation of every p-value from the raw bits."""
    jobs = tmp_path / "jobs.csv"
    run(["simulate", "--qubits", 2, "--jobs", 5, "--bits", 512,
         "--seed", 77, "--out", jobs])
    results = tmp_path / "results.csv"
    run(["test", "--in", jobs, "--out", results])

    bits_by_key = {}
    for line in jobs.read_text().splitlines()[1:]:
        job_id, _, qubit, bits = line.split(",")
        bits_by_key[(job_id, int(qubit))] = [int(b) for b in bits]
    checked = 0
    for line in results.read_text().splitlines()[1:]:
        job_id, qubit, n, lag, bias, stat, normalized, p, verdict = line.split(",")
        bits = bits_by_key[(job_id, int(qubit))]
        a = sum(x ^ y for x, y in zip(bits, bits[1:]))
        p_hat = sum(bits) / len(bits)
        q = 2 * p_hat * (1 - p_hat)
        m = len(bits) - 1
        z = (a - q * m) / math.sqrt(m * q * (1 - q))
        assert int(stat) == a
        assert float(bias) == p_hat
        assert float(p) == pytest.approx(math.erfc(abs(z) / math.sqrt(2)), abs=1e-9)
        checked += 1
    assert checked == 10


def test_aggregate_without_calibration(tmp_path, capsys):
    jobs = tmp_path / "jobs.csv"
    run(["simulate", "--qubits", 2, "--jobs", 3, "--bits", 128,
         "--seed", 5, "--out", jobs])
    results = tmp_path / "results.csv"
    run(["test", "--in", jobs, "--out", results])
    report = tmp_path / "report.csv"
    assert run(["aggregate", "--in", results, "--report", report]) == 0
    assert report.exists()
    err = capsys.readouterr().err
    assert "simultaneous-pass proportion" in err
    assert "no calibration" in err


def test_aggregate_scatter_without_calibration_exits_2_before_reading(tmp_path, capsys):
    # The results file does not exist: reading it first would exit 1.
    assert run(["aggregate", "--in", tmp_path / "missing.csv", "--report", tmp_path / "r.csv",
                "--scatter", tmp_path / "s.csv"]) == 2
    assert capsys.readouterr().err == "error: --scatter needs --calibration\n"
    assert not list(tmp_path.iterdir())


def test_aggregate_single_job_proportions_are_binary(tmp_path):
    jobs = tmp_path / "jobs.csv"
    run(["simulate", "--qubits", 2, "--jobs", 1, "--bits", 128,
         "--seed", 5, "--out", jobs])
    results = tmp_path / "results.csv"
    run(["test", "--in", jobs, "--out", results])
    report = tmp_path / "report.csv"
    run(["aggregate", "--in", results, "--report", report])
    footer = [l for l in report.read_text().splitlines()
              if l.startswith("# simultaneous_pass_proportion=")]
    assert footer[0].split("=")[1] in ("0.0", "1.0")


RESULTS_HEADER = "job_id,qubit_id,n,lag,bias,statistic,normalized,p_value,verdict\n"
GOOD_ROW = "j1,0,8,1,0.5,3,-0.3779644730092272,0.7054569861112734,pass\n"


@pytest.mark.parametrize(
    "bad_row",
    [
        "j1,1,8,1,0.5,3,-0.3779644730092272,,pass\n",  # empty p_value, not degenerate
        "j1,1,8,1,0.5,3,-0.3779644730092272,nan,pass\n",
        "j1,1,8,1,0.5,3,-0.3779644730092272,7,fail\n",
        "j1,1,8,2,0.5,3,-0.3779644730092272,0.7054569861112734,pass\n",  # second lag
        "j1,1,9,1,0.5,3,-0.3779644730092272,0.7054569861112734,pass\n",  # second n
        "j1,1,8,1,1.0,0,,,pass\n",  # empty fields need the degenerate verdict
        "j1,1,8,1,0.5,3,0.1,0.9,degenerate\n",
        ",1,8,1,0.5,3,-0.3779644730092272,0.7054569861112734,pass\n",
        "j1,1,8,9,0.5,3,-0.3779644730092272,0.7054569861112734,pass\n",
        "j1,1,8,1,0.5,-1,-0.3779644730092272,0.7054569861112734,pass\n",
        "j1,1,8,1,0.5,8,-0.3779644730092272,0.7054569861112734,pass\n",
        "j1,1,8,1,nan,3,-0.3779644730092272,0.7054569861112734,pass\n",
        "j1,1,8,1,1.5,3,-0.3779644730092272,0.7054569861112734,pass\n",
        "j1,1,8,1,-0.5,3,-0.3779644730092272,0.7054569861112734,pass\n",
        "j1,1,8,1,0.0,0,0.5,0.6,pass\n",  # zero variance needs the degenerate verdict
        "j1,1,8,1,0.5,7,,,degenerate\n",  # bias 0.5 gives variance
        "j1,1,8,1,0.5,3,-0.3779644730092272,0.7054569861112735,pass\n",  # p one ulp off
        "j1,1,8,1,0.5,3,-0.3779644730092273,0.7054569861112734,pass\n",
        "j1,1,8,1,0.5,4,-0.3779644730092272,0.7054569861112734,pass\n",  # statistic 3's numbers
        "j1,1,8,1,1.0,0,nan,nan,pass\n",  # zero variance needs empty fields
        "j1,1,8,1,0.5,3,2.6,0.0001,fail\n",  # its counts give p = 0.705, a pass
        "j1,-1,8,1,0.5,3,-0.3779644730092272,0.7054569861112734,pass\n",
    ],
    ids=["empty-p", "nan-p", "p-above-one", "mixed-lag", "mixed-n",
         "pass-without-p", "degenerate-with-p", "empty-job-id", "lag-above-n",
         "negative-statistic",
         "statistic-above-n-minus-lag", "nan-bias", "bias-above-one",
         "negative-bias", "pass-at-zero-variance", "degenerate-at-half-bias",
         "p-one-ulp-off", "normalized-off", "another-statistic", "nan-at-zero-variance",
         "fail-of-a-pass", "negative-qubit"],
)
def test_aggregate_rejects_bad_results_row(tmp_path, capsys, bad_row):
    results = tmp_path / "results.csv"
    results.write_text(RESULTS_HEADER + GOOD_ROW + bad_row)
    code = run(["aggregate", "--in", results, "--report", tmp_path / "report.csv"])
    err = capsys.readouterr().err
    assert code == 1
    assert "line 3" in err
    assert "Traceback" not in err
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("rows, message", [
    ("", "no result rows to aggregate"),
    (GOOD_ROW, "line 3: duplicate cell for job 'j1' qubit 0"),
    (GOOD_ROW.replace("j1,0", "j2,1"), "job 'j1' has no row for qubit 1"),
    # the CR ends line 3, so the row ends on line 4
    (GOOD_ROW.replace("j1,0", '"j\r1",1'), "line 4: job_id 'j\\r1' contains a carriage return"),
], ids=["empty", "repeated-cell", "missing-cell", "cr-job-id"])
def test_aggregate_grid_errors_exit_1(tmp_path, capsys, rows, message):
    results = tmp_path / "results.csv"
    results.write_text(RESULTS_HEADER + (GOOD_ROW if rows else "") + rows)
    code = run(["aggregate", "--in", results, "--report", tmp_path / "report.csv"])
    assert (code, capsys.readouterr().err) == (1, f"error: {message}\n")
    assert not (tmp_path / "report.csv").exists()


CALIBRATION_HEADER = "timestamp,qubit_id,t1_us\n"
CALIBRATION_ROW = "2019-05-09T12:00:00Z,0,71.5\n"
OVER_FIELD_LIMIT = "5" * (131072 + 1)  # the csv module's default field size limit


@pytest.mark.parametrize(
    "results_text, calibration_text",
    [
        (RESULTS_HEADER + GOOD_ROW + f"j{OVER_FIELD_LIMIT},1,8,1,0.5,3,0.1,0.9,pass\n", None),
        (RESULTS_HEADER + GOOD_ROW + '"j1"x,1,8,1,0.5,3,0.1,0.9,pass\n', None),
        (RESULTS_HEADER + GOOD_ROW,
         CALIBRATION_HEADER + CALIBRATION_ROW + f"2019-05-09T12:00:00Z,0,{OVER_FIELD_LIMIT}\n"),
        (RESULTS_HEADER + GOOD_ROW,
         CALIBRATION_HEADER + CALIBRATION_ROW + '2019-05-09T12:00:00Z,0,"5'),
    ],
    ids=["results-over-field-limit", "results-text-after-quote",
         "calibration-over-field-limit", "calibration-unterminated-quote"],
)
def test_aggregate_rejects_unreadable_csv(tmp_path, capsys, results_text, calibration_text):
    results = tmp_path / "results.csv"
    results.write_text(results_text)
    args = ["aggregate", "--in", results, "--report", tmp_path / "report.csv"]
    if calibration_text is not None:
        calibration = tmp_path / "calibration.csv"
        calibration.write_text(calibration_text)
        args += ["--calibration", calibration, "--scatter", tmp_path / "scatter.csv"]
    code = run(args)
    err = capsys.readouterr().err
    assert code == 1
    assert "line 3: unreadable CSV" in err
    assert "Traceback" not in err
    assert not (tmp_path / "report.csv").exists()
    assert not (tmp_path / "scatter.csv").exists()


@pytest.mark.parametrize("row, message", [
    ("2019-05-09T12:00:00,1,60.0\n", "timestamp '2019-05-09T12:00:00' must carry a UTC offset"),
    ("2019-05-09T12:00:00Z,-1,60.0\n", "qubit_id must be non-negative, got -1"),
    ("2019-05-09T12:00:00Z,1,0\n", "t1_us must be a positive finite value, got 0"),
    ("2019-05-09T12:00:00Z,1,inf\n", "t1_us must be a positive finite value, got inf"),
    ("2019-05-09T12:00:00Z,1,nan\n", "t1_us must be a positive finite value, got nan"),
], ids=["naive-timestamp", "negative-qubit", "zero-t1", "infinite-t1", "nan-t1"])
def test_aggregate_rejects_bad_calibration_row(tmp_path, capsys, row, message):
    results, calibration = tmp_path / "results.csv", tmp_path / "calibration.csv"
    results.write_text(RESULTS_HEADER + GOOD_ROW)
    calibration.write_text(CALIBRATION_HEADER + CALIBRATION_ROW + row)
    report, scatter = tmp_path / "report.csv", tmp_path / "scatter.csv"
    code = run(["aggregate", "--in", results, "--calibration", calibration,
                "--report", report, "--scatter", scatter])
    assert (code, capsys.readouterr().err) == (1, f"error: line 3: {message}\n")
    assert not report.exists() and not scatter.exists()


@pytest.mark.parametrize("kind, text", [
    ("jobs", "job_id,timestamp,qubit_id,bits\nj1,2019-05-09T11:00:00Z,0,0110\n"
             "j\xff,2019-05-09T11:00:00Z,1,0110\n"),
    ("jobs", "job_id,timestamp,qubit_id,bits\nj1,2019-05-09T11:00:00Z,0,0110\n"
             "j1,2019-05-09T11:00:00Z,1,01\xff0\n"),
    ("results", RESULTS_HEADER + GOOD_ROW + "j1,1,8,1,0.5,3,\xff,0.7054569861112734,pass\n"),
    ("calibration", CALIBRATION_HEADER + CALIBRATION_ROW + "2019-05-09T12:00:00Z,\xff,71.5\n"),
], ids=["jobs-job-id", "jobs-bits", "results", "calibration"])
def test_bytes_that_are_not_utf8_exit_1_at_their_line(tmp_path, capsys, kind, text):
    path = tmp_path / f"{kind}.csv"
    # latin-1 writes each character below 256 as that one byte: \xff stays 0xff.
    path.write_bytes(text.encode("latin-1"))
    results, calibration = tmp_path / "good.csv", tmp_path / "cal.csv"
    results.write_text(RESULTS_HEADER + GOOD_ROW)
    calibration.write_text(CALIBRATION_HEADER + CALIBRATION_ROW)
    out = tmp_path / "out.csv"
    argv = {
        "jobs": ["test", "--in", path, "--out", out],
        "results": ["aggregate", "--in", path, "--report", out],
        "calibration": ["aggregate", "--in", results, "--calibration", path, "--report", out],
    }[kind]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: line 3: byte 0xff is not UTF-8 (invalid start byte)\n"
    assert not out.exists()


def mutate(data, text, alphabet):
    """Apply 1-4 random single-character edits drawn from ``alphabet``."""
    chars = list(text)
    for _ in range(data.draw(st.integers(1, 4))):
        kind = data.draw(st.sampled_from(["replace", "insert", "delete"]))
        pos = data.draw(st.integers(0, max(len(chars) - 1, 0)))
        char = data.draw(st.sampled_from(alphabet))
        if kind == "replace" and chars:
            chars[pos] = char
        elif kind == "insert":
            chars.insert(pos, char)
        elif chars:
            del chars[pos]
    return "".join(chars)


def aggregate_quietly(results_text, calibration_text):
    """Run ``aggregate`` through ``main`` on the given files; returns the exit
    code, stderr, and whether a report was written."""
    with tempfile.TemporaryDirectory() as tmp:
        results, calibration, report = (
            Path(tmp, name) for name in ("results.csv", "calibration.csv", "report.csv"))
        results.write_text(results_text)
        calibration.write_text(calibration_text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(["aggregate", "--in", results, "--calibration", calibration,
                        "--report", report, "--scatter", Path(tmp, "scatter.csv")])
        return code, err.getvalue(), report.exists()


FUZZ_RESULTS = RESULTS_HEADER + (
    "j1,0,8,1,0.5,3,-0.3779644730092272,0.7054569861112734,pass\n"
    "j1,1,8,1,1.0,0,,,degenerate\n"
    "j2,0,8,1,0.25,1,-1.2686700948330931,0.20455875272055268,pass\n"
    "j2,1,8,1,0.5,7,2.6457513110645903,0.008150971593502709,fail\n"
)
FUZZ_CALIBRATION = CALIBRATION_HEADER + (
    "2019-05-09T12:00:00Z,0,71.5\n"
    "2019-05-09T12:00:00Z,1,60.25\n"
    "2019-05-09T13:00:00Z,0,70.0\n"
)
# A results file can also fail as a whole grid, which has no line to name.
GRID_ERROR = re.compile(r"error: (duplicate cell for job |job .* has no row for qubit )")


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_fuzzed_results_files_never_crash(data):
    """Mutated results files either aggregate or exit 1 with a located message."""
    code, err, wrote_report = aggregate_quietly(
        mutate(data, FUZZ_RESULTS, "0189.,-e\n\r\"jnapsfdg"), FUZZ_CALIBRATION)
    assert code in (0, 1), err
    assert "Traceback" not in err
    assert wrote_report == (code == 0)
    if code == 1:
        assert err.startswith("error: line ") or GRID_ERROR.match(err), err


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_fuzzed_calibration_files_never_crash(data):
    """Mutated calibration files either aggregate or exit 1 naming a line."""
    code, err, wrote_report = aggregate_quietly(
        FUZZ_RESULTS, mutate(data, FUZZ_CALIBRATION, "0129.,-+:TZe\n\r\"nix"))
    assert code in (0, 1), err
    assert "Traceback" not in err
    assert wrote_report == (code == 0)
    if code == 1:
        assert err.startswith("error: line "), err


@pytest.mark.parametrize("alpha", [0, 1, -0.5, 2, "nan"])
def test_aggregate_alpha_outside_unit_interval_exits_2(tmp_path, capsys, alpha):
    """The refusal is the library's own alpha message, and it comes before
    the results file is read: the file named does not exist."""
    code = run(["aggregate", "--in", tmp_path / "missing.csv",
                "--report", tmp_path / "report.csv", "--alpha", alpha])
    assert code == 2
    assert capsys.readouterr().err == f"error: alpha must be in (0, 1), got {float(alpha)}\n"
    assert not list(tmp_path.iterdir())


def test_oracle_small_table(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert run(["oracle", "--n", 3, "--lag", 1, "--p", 0.5, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "statistic,exact_p,approx_p,difference"
    exact = [float(l.split(",")[1]) for l in lines[1:]]
    assert exact == [0.5, 1.0, 0.5]
    assert "max |exact - approx|" in capsys.readouterr().err


def test_oracle_size_limit_exits_2(tmp_path):
    assert run(["oracle", "--n", ENUMERATION_MAX_N + 1, "--p", 0.3,
                "--out", tmp_path / "t.csv"]) == 2


def test_oracle_reaches_n_53_at_any_bias(tmp_path):
    out = tmp_path / "t.csv"
    assert run(["oracle", "--n", 53, "--p", 0.3, "--out", out]) == 0
    assert len(out.read_text().splitlines()) == 1 + 53


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--n", 24, "--lag", 0], "lag must satisfy"),
        (["--n", 8192, "--lag", 0], "lag must satisfy"),
        (["--n", 1], "lag must satisfy"),
        (["--n", 12, "--p", "nan"], "bias must be in [0, 1]"),
        (["--n", 12, "--p", -0.1], "bias must be in [0, 1]"),
        (["--n", 12, "--p", 0], "zero variance"),
        (["--n", 12, "--p", 1], "zero variance"),
        (["--n", 12, "--k-min", 3, "--k-max", 12], "k_range must lie within"),
        (["--n", 12, "--k-min", 5, "--k-max", 4], "k_range must lie within"),
    ],
)
def test_oracle_flag_errors_exit_2(tmp_path, capsys, flags, message):
    out = tmp_path / "t.csv"
    assert run(["oracle", *flags, "--out", out]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("n", [20, 100])
@pytest.mark.parametrize("p, message", [
    ("nan", "bias must be in [0, 1], got nan"),
    (-0.1, "bias must be in [0, 1], got -0.1"),
    (1.5, "bias must be in [0, 1], got 1.5"),
    (0, "zero variance at bias 0.0"),
    (1, "zero variance at bias 1.0"),
], ids=["nan", "negative", "above-one", "zero", "one"])
def test_oracle_refuses_a_bad_p_before_picking_an_exact_route(tmp_path, capsys, monkeypatch,
                                                               n, p, message):
    """The refusal names the bias whatever n is, and no exact law is built
    for a table that cannot be written."""
    def refuse(*_args):
        raise AssertionError("built a distribution for a table that cannot be written")

    monkeypatch.setattr(oracle, "exact_distribution_enumerate", refuse)
    monkeypatch.setattr(oracle, "exact_distribution_binomial", refuse)
    out = tmp_path / "t.csv"
    assert run(["oracle", "--n", n, "--p", p, "--out", out]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_oracle_valid_bias_without_an_exact_route_exits_2(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert run(["oracle", "--n", 100, "--p", 0.3, "--out", out]) == 2
    assert capsys.readouterr().err.startswith(
        "error: no exact distribution available for n=100 with bias 0.3;")
    assert not out.exists()


def test_oracle_big_n_fair_bias_allowed(tmp_path):
    out = tmp_path / "t.csv"
    assert run(["oracle", "--n", 1024, "--lag", 1, "--p", 0.5,
                "--k-min", 400, "--k-max", 620, "--out", out]) == 0
    assert len(out.read_text().splitlines()) == 222


def per_row_oracle_csv(blocks):
    """The oracle table's lines, one f-string per row of its joined blocks:
    the reference for the CLI writer, which formats each run of repeated
    float rows once."""
    return ["statistic,exact_p,approx_p,difference\n"] + [
        f"{k},{exact!r},{approx!r},{difference!r}\n"
        for k, exact, approx, difference in zip(*(c.tolist() for c in joined_table(blocks)))
    ]


def oracle_csv(tmp_path, n, lag, p, k_range=None):
    """Lines of the ``oracle`` CSV (a list, so a mismatch reports its index)."""
    out = tmp_path / "t.csv"
    flags = [] if k_range is None else ["--k-min", k_range[0], "--k-max", k_range[1]]
    assert run(["oracle", "--n", n, "--lag", lag, "--p", repr(p), *flags, "--out", out]) == 0
    return out.read_text().splitlines(True)


@pytest.mark.parametrize("n, lag, p, k_range", [
    (20000, 1, 0.5, (100, 200)),          # inside the low underflowed run
    (20000, 1, 0.5, (100, 19999 - 100)),  # low run to high run
    (8192, 1, 0.5, (4095, 4095)),         # one row
    (2, 1, 0.5, (0, 0)),
    (24, 3, 0.1, None),                   # enumeration tables
    (24, 1, 0.3, None),
    (24, 23, 0.5, None),
    (40000, 1, 0.5, None),                # three blocks
])
def test_oracle_csv_equals_per_row_writer(tmp_path, n, lag, p, k_range):
    expected = per_row_oracle_csv(approximation_error(n, lag, p, k_range))
    if k_range is not None and k_range[1] - k_range[0] >= 1:
        # Both ends of the slice sit inside a run of identical float text.
        for a, b in ((expected[1], expected[2]), (expected[-2], expected[-1])):
            assert a.split(",", 1)[1] == b.split(",", 1)[1]
    assert oracle_csv(tmp_path, n, lag, p, k_range) == expected


def test_oracle_csv_runs_cross_block_edges(tmp_path):
    blocks = list(approximation_error(20000, 7, 0.5))
    assert len(blocks) == 8
    expected = per_row_oracle_csv(blocks)
    assert oracle_csv(tmp_path, 20000, 7, 0.5) == expected


@pytest.mark.parametrize("rows", [1, 3, 1000])
def test_oracle_csv_at_any_table_block_size(tmp_path, capsys, monkeypatch, rows):
    """Runs of identical float text are cut at every block edge of the table,
    and the max line folds every block, whatever the block size."""
    blocks = list(approximation_error(2000, 7, 0.5))
    expected = per_row_oracle_csv(blocks)
    worst = np.abs(joined_table(blocks)[3]).max()
    capsys.readouterr()
    monkeypatch.setattr(oracle, "_TABLE_ROWS", rows)
    assert oracle_csv(tmp_path, 2000, 7, 0.5) == expected
    assert capsys.readouterr().err.endswith(f"max |exact - approx|: {worst:.6g}\n")


def test_oracle_csv_keeps_signed_zero_and_nan_text_apart(tmp_path, monkeypatch):
    """Runs are keyed on bit patterns: -0.0 == 0.0 and nan != nan as floats,
    but the text of each row must still be its own repr."""
    exact = np.array([0.0, -0.0, -0.0, 0.0, np.nan, np.nan, 1.0, -np.nan])
    approx = np.array([0.0, 0.0, 0.0, -0.0, 0.5, 0.5, 1.0, 0.5])
    block = (range(exact.size), exact, approx, exact - approx)
    monkeypatch.setattr(oracle, "approximation_error", lambda *args: iter([block]))
    assert oracle_csv(tmp_path, 10, 1, 0.5) == per_row_oracle_csv([block])


@pytest.mark.parametrize("k_min, k_max", [(5, 3), (0, 2000000), (-1, 4)])
def test_oracle_k_range_exits_2_before_building_the_distribution(tmp_path, capsys, monkeypatch,
                                                                 k_min, k_max):
    def refuse(*_args):
        raise AssertionError("built a distribution for a table that cannot be written")

    monkeypatch.setattr(oracle, "exact_distribution_enumerate", refuse)
    monkeypatch.setattr(oracle, "exact_distribution_binomial", refuse)
    out = tmp_path / "t.csv"
    assert run(["oracle", "--n", 2000000, "--k-min", k_min, "--k-max", k_max,
                "--out", out]) == 2
    assert capsys.readouterr().err == (
        f"error: k_range must lie within [0, 1999999], got ({k_min}, {k_max})\n")
    assert not out.exists()


def test_pipeline_matches_manual_stages(tmp_path):
    workdir = tmp_path / "run"
    assert run(["pipeline", "--qubits", 3, "--jobs", 5, "--bits", 256,
                "--seed", 9, "--workdir", workdir]) == 0
    jobs = tmp_path / "jobs.csv"
    cal = tmp_path / "cal.csv"
    results = tmp_path / "results.csv"
    report = tmp_path / "report.csv"
    scatter = tmp_path / "scatter.csv"
    run(["simulate", "--qubits", 3, "--jobs", 5, "--bits", 256, "--seed", 9,
         "--out", jobs, "--calibration-out", cal])
    run(["test", "--in", jobs, "--out", results])
    run(["aggregate", "--in", results, "--calibration", cal,
         "--report", report, "--scatter", scatter])
    for manual, staged in [
        (jobs, workdir / "jobs.csv"),
        (cal, workdir / "calibration.csv"),
        (results, workdir / "results.csv"),
        (report, workdir / "report.csv"),
        (scatter, workdir / "scatter.csv"),
    ]:
        assert sha256(manual) == sha256(staged), staged.name


@pytest.mark.parametrize("shape", [
    ["--jobs", 7, "--qubits", 20, "--bits", 8192],
    ["--jobs", 2, "--qubits", 20, "--bits", 131072, "--model", "markov", "--rho", -0.1],
], ids=["three-blocks", "job-wider-than-block"])
def test_pipeline_of_job_blocks_matches_simulate_and_test(tmp_path, shape):
    """The pipeline writes and counts its run a block of jobs at a time
    (3 jobs at 20 x 8192, so 7 jobs end in a partial block; 1 job at
    20 x 131072): ``simulate`` gives its job file and ``test`` of that file
    its results file, byte for byte."""
    workdir = tmp_path / "run"
    assert run(["pipeline", *shape, "--seed", 2**64 - 1, "--workdir", workdir]) == 0
    jobs, results = tmp_path / "jobs.csv", tmp_path / "results.csv"
    assert run(["simulate", *shape, "--seed", 2**64 - 1, "--out", jobs]) == 0
    assert run(["test", "--in", jobs, "--out", results]) == 0
    assert sha256(jobs) == sha256(workdir / "jobs.csv")
    assert sha256(results) == sha256(workdir / "results.csv")


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("model", [
    [], ["--model", "markov", "--rho", 0.005], ["--model", "markov", "--rho", -0.3],
    ["--model", "drifting", "--schedule", "0.4:7,0.6:6"],
], ids=["ideal", "markov-positive", "markov-negative", "drifting"])
def test_aggregate_reads_back_every_results_file_test_writes(tmp_path, model, seed):
    """``aggregate`` recomputes every row's normalized statistic and p-value
    from its statistic and bias: each model's results file, as ``test``
    writes it, reads back bit for bit, to the pipeline's report and scatter."""
    workdir = tmp_path / "run"
    assert run(["pipeline", "--jobs", 13, "--qubits", 20, "--bits", 8192, *model,
                "--seed", seed, "--workdir", workdir]) == 0
    report, scatter = tmp_path / "report.csv", tmp_path / "scatter.csv"
    assert run(["aggregate", "--in", workdir / "results.csv", "--calibration",
                workdir / "calibration.csv", "--report", report, "--scatter", scatter]) == 0
    assert sha256(report) == sha256(workdir / "report.csv")
    assert sha256(scatter) == sha256(workdir / "scatter.csv")


def test_pipeline_tests_the_simulated_rows_without_parsing(tmp_path, monkeypatch):
    flags = ["--qubits", 3, "--jobs", 5, "--bits", 256, "--seed", 9,
             "--model", "markov", "--rho", -0.2, "--lag", 2, "--bias", "fixed:0.5"]
    simulate_flags, test_flags = flags[:-4], flags[-4:]

    def refuse(_):
        raise AssertionError("pipeline parsed a file it wrote")

    workdir = tmp_path / "run"
    with monkeypatch.context() as patched:
        for reader in ("parse_jobs", "read_results", "parse_calibration"):
            patched.setattr(ingest, reader, refuse)
        assert run(["pipeline", *flags, "--workdir", workdir]) == 0
    jobs, cal, results, report, scatter = (
        tmp_path / name for name in ("jobs.csv", "cal.csv", "results.csv",
                                     "report.csv", "scatter.csv"))
    assert run(["simulate", *simulate_flags, "--out", jobs, "--calibration-out", cal]) == 0
    assert run(["test", "--in", jobs, "--out", results, *test_flags]) == 0
    assert run(["aggregate", "--in", results, "--calibration", cal,
                "--report", report, "--scatter", scatter]) == 0
    for manual in (jobs, results, report, scatter):
        assert sha256(manual) == sha256(workdir / manual.name), manual.name
    assert sha256(cal) == sha256(workdir / "calibration.csv")


@pytest.mark.parametrize("command", ["simulate", "pipeline"])
def test_bits_above_csv_field_limit_exit_2_before_generating(tmp_path, capsys, monkeypatch,
                                                             command):
    def refuse(*_args, **_kwargs):
        raise AssertionError("generated a run that no job file can hold")

    monkeypatch.setattr(simulate, "device_run_blocks", refuse)
    where = ["--out", tmp_path / "jobs.csv"] if command == "simulate" else [
        "--workdir", tmp_path / "run"]
    assert run([command, "--jobs", 1, "--qubits", 2, "--bits", 131072 + 1, *where]) == 2
    err = capsys.readouterr().err
    assert "field limit of 131072" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["simulate", "oracle"])
def test_failed_allocation_exits_1_without_traceback(tmp_path, capsys, monkeypatch, command):
    # The allocation fails by a stub: a real one too large for memory can
    # succeed under overcommit and then exhaust it.
    def fail(*_args, **_kwargs):
        raise MemoryError("Unable to allocate 4.21 TiB for an array")

    monkeypatch.setattr(simulate, "device_run_blocks", fail)
    monkeypatch.setattr(oracle, "approximation_error", fail)
    argv = (["simulate", "--jobs", 579, "--qubits", 1000000000, "--bits", 8]
            if command == "simulate" else ["oracle", "--n", 10**12])
    assert run([*argv, "--out", tmp_path / "out.csv"]) == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 4.21 TiB for an array\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["simulate", "pipeline"])
def test_a_run_that_fails_part_way_leaves_no_job_file(tmp_path, capsys, monkeypatch, command):
    """A failed allocation for the second of three blocks of jobs, after the
    first is written: exit 1, and the half-written job file is removed. A
    job file already at the target keeps its bytes."""
    draw = simulate.device_run_blocks

    def second_block_fails(config):
        yield next(draw(config))
        raise MemoryError("Unable to allocate 480. KiB for an array")

    monkeypatch.setattr(simulate, "device_run_blocks", second_block_fails)
    where = ["--out", tmp_path / "jobs.csv"] if command == "simulate" else [
        "--workdir", tmp_path / "run"]
    argv = [command, "--jobs", 7, "--qubits", 20, "--bits", 8192, *where]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 480. KiB for an array\n"
    assert list(tmp_path.rglob("*.csv")) == []

    target = tmp_path / "jobs.csv" if command == "simulate" else tmp_path / "run" / "jobs.csv"
    target.write_bytes(b"job_id,timestamp,qubit_id,bits\nj1,2019-05-09T11:00:00Z,0,0110\n")
    kept = target.read_bytes()
    assert run(argv) == 1
    assert target.read_bytes() == kept
    assert [path for path in tmp_path.rglob("*") if path.is_file()] == [target]


def test_bits_at_csv_field_limit_round_trip(tmp_path):
    jobs = tmp_path / "jobs.csv"
    assert run(["simulate", "--jobs", 1, "--qubits", 1, "--bits", 131072, "--out", jobs]) == 0
    assert run(["test", "--in", jobs, "--out", tmp_path / "results.csv"]) == 0


def test_test_rejects_carriage_return_in_job_id(tmp_path, capsys):
    jobs = tmp_path / "jobs.csv"
    jobs.write_bytes(b'job_id,timestamp,qubit_id,bits\n'
                     b'"cr\rid",2020-01-01T00:00:00Z,0,0110\n'
                     b'"cr\rid",2020-01-01T00:00:00Z,1,0110\n')
    assert run(["test", "--in", jobs, "--out", tmp_path / "results.csv"]) == 1
    err = capsys.readouterr().err
    assert re.match(r"error: line \d+: job_id 'cr\\rid' contains a carriage return", err), err
    assert not (tmp_path / "results.csv").exists()


def test_pipeline_writes_nothing_to_stdout(tmp_path, capsys):
    assert run(["pipeline", "--qubits", 2, "--jobs", 3, "--bits", 128,
                "--seed", 4, "--workdir", tmp_path]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "simulated 3 jobs" in captured.err
    assert "simultaneous-pass proportion" in captured.err


def test_pipeline_repeated_runs_identical(tmp_path):
    first = tmp_path / "r1"
    second = tmp_path / "r2"
    for workdir in (first, second):
        run(["pipeline", "--qubits", 2, "--jobs", 3, "--bits", 128,
             "--seed", 4, "--workdir", workdir])
    for name in ("jobs.csv", "calibration.csv", "results.csv", "report.csv", "scatter.csv"):
        assert sha256(first / name) == sha256(second / name)


def test_files_are_utf8_in_any_locale(tmp_path):
    """Job and results files are UTF-8 whatever the locale's encoding: a
    child in an ASCII locale reads a non-ASCII job_id and writes the same
    results bytes as one in the default locale."""
    jobs = tmp_path / "jobs.csv"
    jobs.write_bytes("job_id,timestamp,qubit_id,bits\n"
                     "jé,2019-05-09T11:24:27Z,0,0110100110\n".encode())
    written = []
    for i, locale_env in enumerate(({}, ASCII_LOCALE)):
        out = tmp_path / f"results{i}.csv"
        child = subprocess.run(
            [sys.executable, "-m", "qrng_audit", "test", "--in", jobs, "--out", out],
            env={**os.environ, "PYTHONPATH": str(SRC), **locale_env},
            capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        written.append(out.read_bytes())
    assert written[0] == written[1]
    assert written[0].splitlines()[1].startswith("jé,0,10,1,".encode())


def test_console_script_entry_runs_the_cli(tmp_path):
    """``qrng-audit``, the command of every README example, is the
    ``[project.scripts]`` entry of pyproject.toml: a child process calls it
    as an installed console script does, exiting with what it returns."""
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["qrng-audit"]
    module, function = target.split(":")
    assert callable(getattr(importlib.import_module(module), function))
    launcher = f"import sys; from {module} import {function}; sys.exit({function}())"

    def script(*argv):
        return subprocess.run([sys.executable, "-c", launcher, *map(str, argv)],
                              cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=120)

    helped = script("--help")
    assert (helped.returncode, helped.stderr) == (0, "")
    assert helped.stdout.startswith("usage: qrng-audit ")
    refused = script("aggregate", "--in", "results.csv", "--report", "report.csv",
                     "--scatter", "scatter.csv")
    assert (refused.returncode, refused.stderr) == (2, "error: --scatter needs --calibration\n")
    assert not list(tmp_path.iterdir())
