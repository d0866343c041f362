"""Smoke tests for the study scripts under ``scripts/`` and the README's
Python examples."""

import hashlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qrng_audit.simulate import DeviceRunConfig, stream_run

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
README_PYTHON = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.MULTILINE | re.DOTALL)


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fleet_study_runs_at_a_tiny_shape(capsys):
    """At 3 qubits of 64 bits every failure ratio can tie, which leaves a
    Spearman coefficient undefined; the study prints that instead of failing."""
    study = load_script("run_fleet_study")
    study.main(["--jobs", "2", "--qubits", "3", "--bits", "64"])
    out = capsys.readouterr().out
    assert "spearman(T1, failure ratio):" in out
    assert "spearman(rho, failure ratio): undefined" in out
    assert study.signed(None) == "undefined"
    assert study.signed(0.25) == "+0.2500"


def test_approximation_gap_study_runs_at_a_small_big_n(capsys):
    study = load_script("approximation_gap_study")
    study.main(["--big-n", "1024"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "exact enumeration, small n:"
    assert sum("critical-region max|gap|" in line for line in lines) == 11
    assert lines[-9] == "  statistic     exact_p    approx_p  difference"
    assert lines[-8].split()[0] in {"480", "543"}


def test_approximation_gap_study_default_output_is_pinned(capsys):
    """The study's default output, as SHA-256 of its stdout, held fixed
    across changes to the table it reads."""
    load_script("approximation_gap_study").main([])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "b246959fe4dde5072425a299d8bb805c95d66f47e0a038709958e710fc1d81f0"


def test_fleet_study_small_output_is_pinned(capsys):
    """The fleet study's output at 30 jobs x 6 qubits x 2048 bits, as SHA-256
    of its stdout, held fixed across changes to how the run is drawn and
    tested."""
    load_script("run_fleet_study").main(["--jobs", "30", "--qubits", "6", "--bits", "2048"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "730db3c784ae742e273e8157114a307ba031136ea5ffff22270b0c458120a121"


@pytest.mark.parametrize("name, argv", [
    ("approximation_gap_study", ["--big-n", "1024"]),
    ("run_fleet_study", ["--jobs", "2", "--qubits", "3", "--bits", "64"]),
], ids=["approximation_gap_study", "run_fleet_study"])
def test_script_runs_as_a_file(tmp_path, capsys, name, argv):
    """Each study script run as ``python scripts/<name>.py``, from another
    directory: its ``__main__`` guard passes the command line to ``main``,
    which prints what it prints in process."""
    child = subprocess.run([sys.executable, str(SCRIPTS / f"{name}.py"), *argv], cwd=tmp_path,
                           env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                           capture_output=True, text=True, timeout=300)
    assert (child.returncode, child.stderr) == (0, "")
    load_script(name).main(argv)
    assert child.stdout == capsys.readouterr().out != ""
    assert list(tmp_path.iterdir()) == []


def test_readme_has_python_examples():
    assert len(README_PYTHON) >= 3


@pytest.mark.parametrize("code", README_PYTHON,
                         ids=[f"block-{i}" for i in range(len(README_PYTHON))])
def test_readme_python_example_runs(code, tmp_path, monkeypatch, capsys):
    """Each example runs as written, beside a small simulated jobs.csv."""
    with open(tmp_path / "jobs.csv", "wb") as fh:
        stream_run(DeviceRunConfig(qubit_count=3, jobs=4, bits_per_job=256), jobs=fh)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {"__name__": "__readme__"})
