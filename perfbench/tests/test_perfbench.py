"""Tests of the benchmark itself: tiny-shape smoke runs of every workload,
the output checks rejecting corrupted files, and span-tree arithmetic.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def tiny(workload: run.Workload) -> run.Workload:
    """Same model, bias and lags as the workload, at a shape that runs in
    about a second."""
    return dataclasses.replace(
        workload, jobs=4, qubits=3, bits=512,
        oracle=tuple((512 if p == 0.5 else 12, lag, p) for _, lag, p in workload.oracle))


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_clean(name, trace, tmp_path):
    record = run.measure(tiny(run.WORKLOADS[name]), seed=7, seconds=0.0, trace=trace,
                         out=tmp_path)
    assert record["failed"] == 0, record["failures"]
    assert all(not p for p in record["checks"]["problems"].values())
    assert record["identity"]["jobs_csv_sha256"]
    if trace:
        assert set(record["per_layer"]) == set(run.PER_LAYER)
        assert record["missing"] == []
        layer = record["per_layer"]
        assert layer["cells"] == 4 * 3
        assert layer["verdict.pass"] + layer["verdict.fail"] + layer["verdict.degenerate"] == 12
        assert layer["oracle.rows"] == sum(n - lag + 1 for n, lag, _ in
                                           tiny(run.WORKLOADS[name]).oracle)
        # The spans account for the traced wall time.
        selfs = sum(layer[f"{name}.self_s"] for name in spans.LAYERS)
        accounted = selfs - layer["trace.thread_overlap_s"] + layer["trace.untraced_s"]
        assert accounted == pytest.approx(layer["trace.wall_s"], rel=1e-9)
    else:
        assert set(record["summary"]) >= set(run.END_TO_END)
    assert not list(tmp_path.glob("work-*")), "the run leaves its work directory behind"


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("pipe")
    subprocess.run([sys.executable, "-m", "qrng_audit", "pipeline", "--jobs", "5",
                    "--qubits", "4", "--bits", "300", "--model", "markov", "--rho", "0.2",
                    "--seed", "3", "--workdir", str(out)],
                   env=run.child_env(), check=True, capture_output=True)
    return out


def test_checks_accept_the_program_output(pipeline_dir):
    problems, _ = checks.check_results(pipeline_dir / "jobs.csv",
                                       pipeline_dir / "results.csv", 1, 0.01, None)
    assert problems == []
    assert checks.check_report(pipeline_dir / "results.csv", pipeline_dir / "calibration.csv",
                               pipeline_dir / "report.csv", pipeline_dir / "scatter.csv",
                               0.01) == []


def _corrupt(src: Path, dst: Path, column: str, edit) -> None:
    lines = src.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[3].split(",")
    row[header.index(column)] = edit(row[header.index(column)])
    lines[3] = ",".join(row)
    dst.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("column,edit", [
    ("statistic", lambda v: str(int(v) + 1)),
    ("p_value", lambda v: repr(float(v) * (1 + 1e-9) + 1e-11)),
    ("verdict", lambda v: "fail" if v == "pass" else "pass"),
    ("bias", lambda v: repr(float(v) + 1e-3)),
])
def test_checks_reject_a_corrupted_results_file(pipeline_dir, tmp_path, column, edit):
    bad = tmp_path / "results.csv"
    _corrupt(pipeline_dir / "results.csv", bad, column, edit)
    problems, _ = checks.check_results(pipeline_dir / "jobs.csv", bad, 1, 0.01, None)
    assert problems


def test_checks_reject_a_corrupted_report(pipeline_dir, tmp_path):
    text = (pipeline_dir / "report.csv").read_text()
    bad = tmp_path / "report.csv"
    bad.write_text(text.replace("# degenerate_count=0", "# degenerate_count=1"))
    assert bad.read_text() != text
    assert checks.check_report(pipeline_dir / "results.csv", pipeline_dir / "calibration.csv",
                               bad, pipeline_dir / "scatter.csv", 0.01)


@pytest.mark.parametrize("n,lag,p", [(40, 1, 0.5), (10, 2, 0.3)])
def test_oracle_check_rejects_a_wrong_exact_p(tmp_path, n, lag, p):
    table = tmp_path / "gap.csv"
    subprocess.run([sys.executable, "-m", "qrng_audit", "oracle", "--n", str(n), "--lag",
                    str(lag), "--p", str(p), "--out", str(table)],
                   env=run.child_env(), check=True, capture_output=True)
    assert checks.check_oracle_table(table, n, lag, p) == []
    lines = table.read_text().splitlines()
    k, exact, approx, diff = lines[2].split(",")
    wrong = float(exact) + 1e-6
    lines[2] = f"{k},{wrong!r},{approx},{wrong - float(approx)!r}"
    table.write_text("\n".join(lines) + "\n")
    assert checks.check_oracle_table(table, n, lag, p)


def test_transfer_matrix_matches_brute_force():
    n, lag, p = 9, 2, 0.3
    pmf = [0.0] * (n - lag + 1)
    for x in range(1 << n):
        bits = [(x >> i) & 1 for i in range(n)]
        a = sum(bits[i] ^ bits[i + lag] for i in range(n - lag))
        pmf[a] += p ** sum(bits) * (1 - p) ** (n - sum(bits))
    assert checks.transfer_matrix_pmf(n, lag, p) == pytest.approx(pmf, abs=1e-15)


def _span(i, parent, name, start, end):
    return spans.Span(i, parent, name, start, end)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(1, None, "run", 0.0, 10.0),
        _span(2, 1, "ingest.parse_jobs", 1.0, 4.0),
        _span(3, 1, "aggregate.build_matrix", 3.0, 6.0),  # overlaps span 2
        _span(4, 2, "autocorr.run_test", 2.0, 3.0),
        _span(5, 3, "autocorr.run_test", 2.5, 5.0),  # starts before its parent
    ]
    selfs = spans.self_times(tree)
    assert selfs == {1: 5.0, 2: 2.0, 3: 1.0, 4: 1.0, 5: 2.5}
    assert spans.layer_self_times(tree) == {"run": 5.0, "ingest": 2.0, "aggregate": 1.0,
                                            "autocorr": 3.5}
    assert spans.covered_length([(0, 1), (0.5, 2), (3, 4)]) == 3.0


def test_outermost_time_counts_nested_same_name_once():
    tree = [_span(1, None, "special.erfc", 0.0, 2.0), _span(2, 1, "special.erfc", 0.5, 1.0),
            _span(3, None, "special.erfc", 5.0, 6.0)]
    assert spans.outermost_time(tree, "special.erfc") == 3.0


def test_recorder_links_parents_and_reports_missing_functions():
    run.import_program()
    import qrng_audit.autocorr as autocorr

    recorder = spans.Recorder("t")
    traced = (("autocorr", "run_test", "autocorr.run_test"),
              ("autocorr", "autocorr_statistic", "autocorr.autocorr_statistic"),
              ("autocorr", "no_such_function", "autocorr.no_such_function"))
    original = autocorr.autocorr_statistic
    with spans.Patched(recorder, traced=traced) as patched:
        autocorr.run_test(autocorr.BitSequence.from_string("0110100110"))
    assert autocorr.autocorr_statistic is original
    assert patched.missing == ["autocorr.no_such_function"]
    by_name = {s.name: s for s in recorder.spans}
    assert by_name["autocorr.autocorr_statistic"].parent_id == by_name["autocorr.run_test"].span_id
    assert run.missing_metrics(["autocorr.run_test"], False) == [
        "autocorr.run_test.s", "autocorr.run_test.us_per_cell", "cells", "bits",
        "verdict.pass", "verdict.fail", "verdict.degenerate", "verdict.low_sample",
        "aggregate.decided_share"]


def test_compare_refuses_a_different_workload():
    record = {"identity": {"workload": "w", "seed": 1, "shape": {}}, "trace": 0,
              "summary": {"setup_s": {"median": 1.0}}}
    other = json.loads(json.dumps(record))
    assert compare.compare(record, other)
    other["identity"]["seed"] = 2
    with pytest.raises(compare.NotComparable, match="seed"):
        compare.compare(record, other)


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper-ideal",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
