"""What each command path loads: the parse path (``--help``, a subcommand's
``--help``, a usage error) loads no numpy, and each subcommand imports only
the layers it runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
LAYERS = {"aggregate", "autocorr", "cli", "ingest", "oracle", "simulate"}

# Runs ``cli.main`` on its arguments and prints, as its last stdout line, the
# exit code and every loaded module of the package and numpy's top level.
CHILD = """
import sys
from qrng_audit import cli
code = cli.main(sys.argv[1:])
print(code, *sorted(name for name in sys.modules
                    if name == "numpy" or name.startswith("qrng_audit.")))
"""


def loaded(argv, cwd):
    """The exit code of ``qrng-audit argv`` in a fresh interpreter, and the
    names it loaded: ``numpy`` and each package module without its prefix."""
    child = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=cwd,
                           env={**os.environ, "PYTHONPATH": str(SRC)},
                           capture_output=True, text=True, check=True, timeout=120)
    code, *names = child.stdout.splitlines()[-1].split()
    return int(code), {name.removeprefix("qrng_audit.") for name in names}


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    *(([command, "--help"], 0)
      for command in ("simulate", "test", "aggregate", "oracle", "pipeline")),
    (["test"], 2),
], ids=["help", "simulate-help", "test-help", "aggregate-help", "oracle-help",
        "pipeline-help", "test-without-in"])
def test_the_parse_path_loads_no_numpy(tmp_path, argv, code):
    assert loaded(argv, tmp_path) == (code, {"cli"})


@pytest.fixture(scope="module")
def results_dir(tmp_path_factory):
    """A directory with a two-job file, ``jobs.csv``, and its results file,
    ``results.csv``."""
    workdir = tmp_path_factory.mktemp("load-set")
    (workdir / "jobs.csv").write_text(
        "job_id,timestamp,qubit_id,bits\n"
        "j1,2019-05-09T11:00:00Z,0,0110100111010010\n"
        "j2,2019-05-09T11:30:00Z,0,1100101001011100\n")
    assert loaded(["test", "--in", "jobs.csv", "--out", "results.csv"], workdir)[0] == 0
    return workdir


@pytest.mark.parametrize("argv, unloaded", [
    (["oracle", "--n", "24", "--p", "0.3", "--out", "gap.csv"],
     {"simulate", "ingest", "aggregate"}),
    (["test", "--in", "jobs.csv", "--out", "again.csv"], {"simulate", "oracle", "aggregate"}),
    (["aggregate", "--in", "results.csv", "--report", "report.csv"], {"simulate", "oracle"}),
], ids=["oracle", "test", "aggregate"])
def test_each_command_loads_only_its_layers(results_dir, argv, unloaded):
    code, names = loaded(argv, results_dir)
    assert code == 0
    assert names == {"numpy", *(LAYERS - unloaded)}
