"""Peak memory of the CLI, each bound above the peak of ``--help``
(interpreter, numpy and the package imported).

* The pipeline at 145 jobs x 20 qubits x 8192 bits (the benchmark's paper
  shape) holds 2.9 MB of packed bits. One byte per bit would be 23.8 MB, and
  its peak would exceed ``--help``'s by about 30 MiB instead of about 10 MiB.
* ``test`` on a 579 x 20 x 8192 job file in grid order copies none of its
  11.9 MB of packed bits: about 16 MiB above ``--help``, against about
  25 MiB with one gather of the whole matrix.
* The exact oracle at n = 24 enumerates 2^24 sequences a block at a time:
  about 1 MiB above ``--help``, against about 22 MiB at 2^20 sequences a
  block.
* The exact oracle at n = 131072 (the closed form at p = 1/2) sums its
  tails over the pmf's non-zero window (13906 of 131072 entries) and writes
  its table one block of rows at a time: about 2.1 MiB above ``--help``,
  against about 8.5 MiB with full-length tail-sum temporaries and columns.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
# Peaks above the --help peak, in MiB.
PEAK_ABOVE_STARTUP_MIB = 16
TEST_PEAK_ABOVE_STARTUP_MIB = 20.5
CHILD_TIMEOUT_S = 120.0


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


def peak_rss_mib(argv, cwd):
    """Run ``python -m qrng_audit argv`` as a grandchild, through the
    launcher, and return its own peak RSS."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    launched = subprocess.run(
        [sys.executable, "-c", LAUNCHER, str(CHILD_TIMEOUT_S),
         sys.executable, "-m", "qrng_audit", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, check=True,
        timeout=CHILD_TIMEOUT_S + 30.0)
    returncode, max_rss = map(int, launched.stdout.split())
    assert returncode == 0
    # ru_maxrss is in KiB on Linux, in bytes on macOS.
    return max_rss / (1 << 20 if sys.platform == "darwin" else 1 << 10)


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_pipeline_peak_rss_stays_near_startup(tmp_path):
    startup = peak_rss_mib(["--help"], tmp_path)
    pipeline = peak_rss_mib(["pipeline", "--jobs", "145", "--qubits", "20", "--bits", "8192",
                             "--workdir", "run"], tmp_path)
    assert pipeline - startup < PEAK_ABOVE_STARTUP_MIB, (pipeline, startup)


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_test_of_a_file_in_grid_order_copies_no_bits(tmp_path):
    startup = peak_rss_mib(["--help"], tmp_path)
    peak_rss_mib(["simulate", "--jobs", "579", "--qubits", "20", "--bits", "8192",
                  "--out", "jobs.csv"], tmp_path)
    test = peak_rss_mib(["test", "--in", "jobs.csv", "--out", "results.csv"], tmp_path)
    assert test - startup < TEST_PEAK_ABOVE_STARTUP_MIB, (test, startup)


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
@pytest.mark.parametrize("n, p, bound_mib", [("24", "0.3", 8), ("131072", "0.5", 5)],
                         ids=["enumerate-n24", "binomial-n131072"])
def test_exact_oracle_peak_rss_stays_near_startup(tmp_path, n, p, bound_mib):
    startup = peak_rss_mib(["--help"], tmp_path)
    oracle = peak_rss_mib(["oracle", "--n", n, "--lag", "1", "--p", p,
                           "--out", "gap.csv"], tmp_path)
    assert oracle - startup < bound_mib, (oracle, startup)
