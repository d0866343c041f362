"""Peak memory of the CLI, each bound above the startup reference: the
peak of a process that imports every module of the package, numpy with
them, and exits (about 29.1 MiB). That is what ``--help`` loaded until its
parse path stopped importing numpy; ``--help`` now peaks at about 14.5 MiB,
at least 10 MiB below the reference.

* The pipeline at 145 jobs x 20 qubits x 8192 bits (the benchmark's paper
  shape) generates, writes and counts one block of 3 jobs (60 KiB of packed
  bits) at a time and keeps only each stream's two counts: about 7.8 MiB
  above the reference, against about 11 MiB holding the run's 2.9 MB of packed
  bits and about 30 MiB at one byte per bit. ``pipeline`` and ``simulate``
  peak about 1.5 MiB higher at 1158 jobs than at 579 (the run's seeds are
  computed in one pass), against 14 and 12 MiB higher holding the grid.
* ``test`` on a 579 x 20 x 8192 job file holds none of its 11.9 MB of
  packed bits, only each stream's two counts, in grid order, shuffled, or
  with its lines ending in a lone CR: about 4 MiB above the reference, against
  about 16 MiB holding the packed matrix, about 26 MiB with one gather of
  it for a shuffled file, and about 185 MiB reading a lone-CR file as one
  line.
* ``test`` on a job file whose second line is 24 MiB of bits with no line
  end reads that line only until it passes the longest line a job row can
  take (about 1 MiB: only job_id and bits may reach the csv field limit),
  and refuses it, exit 1: about 4 MiB above the reference, against about
  72 MiB holding the whole line. ``aggregate`` of a results file whose
  second line is such a line stops at about 0.5 MiB (only job_id may reach
  the limit): about 3 MiB above the reference, against about 10 MiB when
  every field's share of the bound was the field limit.
* The exact oracle at n = 24 and at n = 53, the enumeration route's limit,
  walks the bits class by class, holding two (statistic, ones) tables of
  counts: about 0.6 MiB above the reference at either length.
* The exact oracle at n = 131072 (the closed form at p = 1/2) sums its
  tails over the pmf's non-zero window (13906 of 131072 entries) and writes
  its table one block of rows at a time: about 1.6 MiB above the reference,
  against about 8.5 MiB with full-length tail-sum temporaries and columns.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
# Peaks above the startup reference, in MiB.
PEAK_ABOVE_STARTUP_MIB = 11
TEST_PEAK_ABOVE_STARTUP_MIB = 8
# Growth of a peak from 579 to 1158 jobs.
PEAK_GROWTH_MIB = 3
CHILD_TIMEOUT_S = 120.0
LAYERS = ("aggregate", "autocorr", "cli", "ingest", "oracle", "simulate")
# The parse path imports no numpy: --help peaks at least this far below the
# package loaded.
HELP_BELOW_STARTUP_MIB = 10


# A child's peak RSS starts from the size of the process that forked it, and
# by the time these tests run the pytest process can be several times the
# size of the CLI. So a small launcher process starts each CLI call and
# prints the call's exit code and its own peak RSS from ``os.wait4``.
LAUNCHER = """
import os, subprocess, sys, threading
child = subprocess.Popen(sys.argv[2:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
timer = threading.Timer(float(sys.argv[1]), child.kill)
timer.start()
_, status, usage = os.wait4(child.pid, 0)
timer.cancel()
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_mib(argv, cwd, exit_code=0, program=("-m", "qrng_audit")):
    """Run ``python -m qrng_audit argv`` (or other ``program`` arguments) as
    a grandchild, through the launcher, check its exit code, and return its
    own peak RSS."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    launched = subprocess.run(
        [sys.executable, "-c", LAUNCHER, str(CHILD_TIMEOUT_S),
         sys.executable, *program, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, check=True,
        timeout=CHILD_TIMEOUT_S + 30.0)
    returncode, max_rss = map(int, launched.stdout.split())
    assert returncode == exit_code
    # ru_maxrss is in KiB on Linux, in bytes on macOS.
    return max_rss / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def startup_rss_mib(cwd):
    """The peak of a process that imports every module of the package, numpy
    with them, and exits: the reference of every bound here."""
    return peak_rss_mib([], cwd, program=("-c", "import " + ", ".join(
        f"qrng_audit.{layer}" for layer in LAYERS)))


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_help_peaks_well_below_the_loaded_package(tmp_path):
    startup, help_peak = startup_rss_mib(tmp_path), peak_rss_mib(["--help"], tmp_path)
    assert startup - help_peak >= HELP_BELOW_STARTUP_MIB, (startup, help_peak)


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_pipeline_peak_rss_stays_near_startup(tmp_path):
    startup = startup_rss_mib(tmp_path)
    pipeline = peak_rss_mib(["pipeline", "--jobs", "145", "--qubits", "20", "--bits", "8192",
                             "--workdir", "run"], tmp_path)
    assert pipeline - startup < PEAK_ABOVE_STARTUP_MIB, (pipeline, startup)


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
@pytest.mark.parametrize("command", ["pipeline", "simulate"])
def test_peak_rss_does_not_grow_with_the_job_count(tmp_path, command):
    where = ["--workdir", "run"] if command == "pipeline" else ["--out", "jobs.csv"]
    paper, double = (peak_rss_mib([command, "--jobs", jobs, "--qubits", "20", "--bits", "8192",
                                   *where], tmp_path) for jobs in ("579", "1158"))
    assert double - paper < PEAK_GROWTH_MIB, (paper, double)


@pytest.fixture(scope="module")
def paper_shape_jobs(tmp_path_factory):
    """A 579 x 20 x 8192 job file in grid order, ``jobs.csv``, its rows
    shuffled, ``shuffled.csv``, written a row at a time, and its lines
    ending in a lone CR, ``cr.csv``."""
    workdir = tmp_path_factory.mktemp("paper-shape")
    peak_rss_mib(["simulate", "--jobs", "579", "--qubits", "20", "--bits", "8192",
                  "--out", "jobs.csv"], workdir)
    with open(workdir / "jobs.csv", "rb") as source:
        header = source.readline()
        starts = []
        while line := source.readline():
            starts.append(source.tell() - len(line))
        random.Random(5).shuffle(starts)
        with open(workdir / "shuffled.csv", "wb") as shuffled:
            shuffled.write(header)
            for start in starts:
                source.seek(start)
                shuffled.write(source.readline())
        source.seek(0)
        with open(workdir / "cr.csv", "wb") as lone_cr:
            while block := source.read(1 << 16):
                lone_cr.write(block.replace(b"\n", b"\r"))
    return workdir


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
@pytest.mark.parametrize("name", ["jobs.csv", "shuffled.csv", "cr.csv"])
def test_test_of_a_job_file_holds_no_bits(paper_shape_jobs, name):
    startup = startup_rss_mib(paper_shape_jobs)
    test = peak_rss_mib(["test", "--in", name, "--out", "results.csv"], paper_shape_jobs)
    assert test - startup < TEST_PEAK_ABOVE_STARTUP_MIB, (test, startup)


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_test_of_an_over_long_line_holds_no_more_than_a_row(tmp_path):
    with open(tmp_path / "long.csv", "wb") as fh:
        fh.write(b"job_id,timestamp,qubit_id,bits\nj1,2019-05-09T11:24:27Z,0,")
        for _ in range(24):
            fh.write(b"0" * (1 << 20))
    startup = startup_rss_mib(tmp_path)
    test = peak_rss_mib(["test", "--in", "long.csv", "--out", "results.csv"], tmp_path,
                        exit_code=1)
    assert test - startup < TEST_PEAK_ABOVE_STARTUP_MIB, (test, startup)


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_aggregate_of_an_over_long_line_holds_no_more_than_a_row(tmp_path):
    with open(tmp_path / "long.csv", "wb") as fh:
        fh.write(b"job_id,qubit_id,n,lag,bias,statistic,normalized,p_value,verdict\nj1,0,")
        for _ in range(24):
            fh.write(b"0" * (1 << 20))
    startup = startup_rss_mib(tmp_path)
    aggregate = peak_rss_mib(["aggregate", "--in", "long.csv", "--report", "report.csv"],
                             tmp_path, exit_code=1)
    assert aggregate - startup < TEST_PEAK_ABOVE_STARTUP_MIB, (aggregate, startup)


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
@pytest.mark.parametrize("n, p, bound_mib", [("24", "0.3", 3), ("53", "0.3", 3),
                                              ("131072", "0.5", 5)],
                         ids=["enumerate-n24", "enumerate-n53", "binomial-n131072"])
def test_exact_oracle_peak_rss_stays_near_startup(tmp_path, n, p, bound_mib):
    startup = startup_rss_mib(tmp_path)
    oracle = peak_rss_mib(["oracle", "--n", n, "--lag", "1", "--p", p,
                           "--out", "gap.csv"], tmp_path)
    assert oracle - startup < bound_mib, (oracle, startup)
