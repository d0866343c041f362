"""What each command path loads: the parse path (``--help``, a subcommand's
``--help``, a usage error) loads no numpy, each subcommand imports only
the layers it runs, and ``oracle`` loads no numpy either. The console
script and ``python -m qrng_audit`` pin OpenBLAS to one thread."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
LAYERS = {"aggregate", "autocorr", "cli", "ingest", "oracle", "simulate", "standardize"}

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
    (["test", "--in", "jobs.csv", "--out", "again.csv"], {"simulate", "oracle", "aggregate"}),
    (["aggregate", "--in", "results.csv", "--report", "report.csv"], {"simulate", "oracle"}),
], ids=["test", "aggregate"])
def test_each_command_loads_only_its_layers(results_dir, argv, unloaded):
    code, names = loaded(argv, results_dir)
    assert code == 0
    assert names == {"numpy", *(LAYERS - unloaded)}


@pytest.mark.parametrize("argv, code", [
    (["--n", "24", "--p", "0.3"], 0),
    (["--n", "131072"], 0),
    (["--n", "1"], 2),
    (["--n", "100", "--p", "0.3"], 2),
], ids=["enumerate", "binomial", "bad-lag", "no-exact-route"])
def test_oracle_loads_no_numpy(tmp_path, argv, code):
    """The oracle's exact laws and tails are plain Python numbers, with the
    test's standardization from ``standardize``: neither numpy nor
    ``autocorr`` is loaded, also on the way to exit 2."""
    assert loaded(["oracle", *argv, "--out", "gap.csv"], tmp_path) == (
        code, {"cli", "oracle", "standardize"})


# Runs ``python -m qrng_audit`` on its arguments, as ``-m`` does, and prints
# its exit code and the OPENBLAS_NUM_THREADS it ran under.
MODULE_CHILD = """
import os, runpy, sys
try:
    runpy.run_module("qrng_audit", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(exc.code, os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.parametrize("given, seen", [(None, "1"), ("2", "2")], ids=["unset", "user-set"])
def test_the_command_pins_openblas_to_one_thread(tmp_path, given, seen):
    env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    child = subprocess.run([sys.executable, "-c", MODULE_CHILD, "--help"], cwd=tmp_path,
                           env={**env, "PYTHONPATH": str(SRC)},
                           capture_output=True, text=True, check=True, timeout=120)
    assert child.stdout.splitlines()[-1] == f"0 {seen}"


def test_main_leaves_the_environment_alone(tmp_path, monkeypatch):
    from qrng_audit import cli

    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert cli.main(["oracle", "--n", "24", "--p", "0.3", "--out", str(tmp_path / "gap.csv")]) == 0
    assert "OPENBLAS_NUM_THREADS" not in os.environ
