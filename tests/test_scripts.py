"""Smoke tests for the study scripts under ``scripts/``."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
