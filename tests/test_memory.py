"""Peak memory of the CLI: the bit matrix is held packed, eight bits a byte.

The pipeline at 145 jobs x 20 qubits x 8192 bits (the benchmark's paper
shape) holds 2.9 MB of packed bits. One byte per bit would be 23.8 MB, and
the pipeline's peak would then exceed that of ``--help`` (interpreter,
numpy and the package imported) by about 30 MiB instead of about 10 MiB.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
# Pipeline peak above the --help peak, in MiB.
PEAK_ABOVE_STARTUP_MIB = 16
CHILD_TIMEOUT_S = 120.0


def peak_rss_mib(argv, cwd):
    """Run ``python -m qrng_audit argv`` as a child and return its own peak
    RSS from ``os.wait4``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    child = subprocess.Popen([sys.executable, "-m", "qrng_audit", *argv], cwd=cwd, env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    timer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        timer.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)
    assert child.returncode == 0
    # ru_maxrss is in KiB on Linux, in bytes on macOS.
    return usage.ru_maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10)


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_pipeline_peak_rss_stays_near_startup(tmp_path):
    startup = peak_rss_mib(["--help"], tmp_path)
    pipeline = peak_rss_mib(["pipeline", "--jobs", "145", "--qubits", "20", "--bits", "8192",
                             "--workdir", "run"], tmp_path)
    assert pipeline - startup < PEAK_ABOVE_STARTUP_MIB, (pipeline, startup)
