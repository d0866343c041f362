"""Output checks that do not rely on the program under test.

Every check reads the files the CLI wrote and recomputes them with this
module's own numpy / stdlib code. A check returns a list of problems; an
empty list means the output is correct.

    python3 perfbench/checks.py '<json spec>'

runs every check on one iteration's outputs and prints one JSON line; the
spec names the pipeline directory, lag, alpha, fixed bias (or null) and the
oracle tables as [n, lag, p, path].
"""

from __future__ import annotations

import csv
import json
import math
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

# A cell whose reference p-value lies this close to alpha can flip verdict on
# the last ulp of the statistic; such cells are skipped and counted.
ALPHA_MARGIN = 1e-12
P_TOLERANCE = 1e-12
_ROW_BLOCK = 512


def _ref_p(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


def _standardize(statistic: int, m: int, bias: float) -> float | None:
    q = 2.0 * bias * (1.0 - bias)
    var = m * q * (1.0 - q)
    if var <= 0.0:
        return None
    return (statistic - q * m) / math.sqrt(var)


def _job_cells(path: Path, lag: int):
    """Yield ((job_id, qubit), n, ones, statistic) per stream of a job CSV,
    computing ones and the lag-``lag`` XOR count in row blocks."""
    with open(path, "rb") as fh:
        header = fh.readline().rstrip(b"\n")
        if header != b"job_id,timestamp,qubit_id,bits":
            raise ValueError(f"{path.name}: unexpected header {header!r}")
        while True:
            keys, bits = [], []
            for line in fh:
                line = line.rstrip(b"\n")
                if not line:
                    continue
                job_id, _ts, qubit, stream = line.split(b",")
                keys.append((job_id.decode(), int(qubit)))
                bits.append(stream)
                if len(keys) == _ROW_BLOCK:
                    break
            if not keys:
                return
            n = len(bits[0])
            if any(len(b) != n for b in bits):
                raise ValueError(f"{path.name}: streams of unequal length")
            x = np.frombuffer(b"".join(bits), dtype=np.uint8).reshape(len(bits), n) - 48
            if x.max() > 1:
                raise ValueError(f"{path.name}: non-bit character in a stream")
            ones = x.sum(axis=1, dtype=np.int64)
            stats = (x[:, :-lag] ^ x[:, lag:]).sum(axis=1, dtype=np.int64)
            for key, o, a in zip(keys, ones.tolist(), stats.tolist()):
                yield key, n, o, a


def read_results(path: Path) -> dict[tuple[str, int], dict]:
    out = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            key = (row["job_id"], int(row["qubit_id"]))
            if key in out:
                raise ValueError(f"{path.name}: duplicate cell {key}")
            out[key] = row
    return out


def check_results(jobs_csv: Path, results_csv: Path, lag: int, alpha: float,
                  fixed_bias: float | None) -> tuple[list[str], int]:
    """Recompute every cell from the bits; returns (problems, cells skipped
    for lying within ALPHA_MARGIN of alpha)."""
    problems: list[str] = []
    skipped = 0
    results = read_results(results_csv)
    seen = set()
    for key, n, ones, statistic in _job_cells(jobs_csv, lag):
        seen.add(key)
        row = results.get(key)
        if row is None:
            problems.append(f"cell {key} missing from results")
            continue
        bias = fixed_bias if fixed_bias is not None else ones / n
        z = _standardize(statistic, n - lag, bias)
        where = f"cell {key}"
        if int(row["n"]) != n or int(row["lag"]) != lag:
            problems.append(f"{where}: n/lag {row['n']}/{row['lag']} != {n}/{lag}")
        if int(row["statistic"]) != statistic:
            problems.append(f"{where}: statistic {row['statistic']} != {statistic}")
        if float(row["bias"]) != bias:
            problems.append(f"{where}: bias {row['bias']} != {bias!r}")
        if z is None:
            if row["verdict"] != "degenerate" or row["p_value"]:
                problems.append(f"{where}: expected a degenerate verdict")
            continue
        if not row["p_value"]:
            problems.append(f"{where}: missing p-value")
            continue
        p_ref = _ref_p(z)
        p_file = float(row["p_value"])
        if not abs(p_file - p_ref) <= P_TOLERANCE:
            problems.append(f"{where}: p {p_file!r} vs erfc reference {p_ref!r}")
        if not abs(float(row["normalized"]) - z) <= 1e-9 * max(1.0, abs(z)):
            problems.append(f"{where}: normalized {row['normalized']} vs {z!r}")
        if abs(p_ref - alpha) <= ALPHA_MARGIN:
            skipped += 1
            continue
        verdict = "fail" if p_ref < alpha else "pass"
        if row["verdict"] != verdict:
            problems.append(f"{where}: verdict {row['verdict']} != {verdict}")
    extra = set(results) - seen
    if extra:
        problems.append(f"{len(extra)} result rows have no stream in the job file")
    return problems[:20], skipped


def _average_ranks(values: list[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _spearman(xs: list[float], ys: list[float]) -> float | None:
    pairs = [(x, y) for x, y in zip(xs, ys) if not (math.isnan(x) or math.isnan(y))]
    if len(pairs) < 3:
        return None
    rx = _average_ranks([p[0] for p in pairs])
    ry = _average_ranks([p[1] for p in pairs])
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    sxy = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    sxx = sum((a - mx) ** 2 for a in rx)
    syy = sum((b - my) ** 2 for b in ry)
    if sxx == 0.0 or syy == 0.0:
        return None
    return sxy / math.sqrt(sxx * syy)


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_report(results_csv: Path, calibration_csv: Path, report_csv: Path,
                 scatter_csv: Path, alpha: float) -> list[str]:
    """Recompute failure ratios, pass proportions, degenerate counts, mean
    T1 and the rank correlation from results.csv and calibration.csv."""
    problems: list[str] = []
    per_job: dict[str, dict[int, str]] = defaultdict(dict)
    fails: dict[int, int] = defaultdict(int)
    decided: dict[int, int] = defaultdict(int)
    degenerate: dict[int, int] = defaultdict(int)
    for (job_id, qubit), row in read_results(results_csv).items():
        if row["verdict"] == "degenerate":
            degenerate[qubit] += 1
            per_job[job_id][qubit] = "degenerate"
            continue
        failed = float(row["p_value"]) < alpha
        fails[qubit] += failed
        decided[qubit] += 1
        per_job[job_id][qubit] = "fail" if failed else "pass"
    qubits = sorted({q for cells in per_job.values() for q in cells})
    ratio = {q: fails[q] / decided[q] if decided[q] else math.nan for q in qubits}
    simultaneous = sum(all(v == "pass" for v in cells.values())
                       for cells in per_job.values()) / len(per_job)
    total_decided = sum(decided.values())
    overall = (total_decided - sum(fails.values())) / total_decided if total_decided else math.nan

    t1_sum: dict[int, float] = defaultdict(float)
    t1_count: dict[int, int] = defaultdict(int)
    with open(calibration_csv, newline="") as fh:
        last: dict[tuple[str, int], float] = {}
        for row in csv.DictReader(fh):
            last[(row["timestamp"], int(row["qubit_id"]))] = float(row["t1_us"])
    for (_ts, q), t1 in last.items():
        t1_sum[q] += t1
        t1_count[q] += 1
    mean_t1 = {q: t1_sum[q] / t1_count[q] if t1_count[q] else math.nan for q in qubits}
    rho = _spearman([mean_t1[q] for q in qubits], [ratio[q] for q in qubits])

    rows, footer = [], {}
    with open(report_csv) as fh:
        header = fh.readline().strip()
        if header != "qubit_id,failure_ratio,mean_t1_us,degenerate_count":
            problems.append(f"report header {header!r}")
        for line in fh:
            line = line.strip()
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                footer[key] = value
            elif line:
                rows.append(line.split(","))
    if [int(r[0]) for r in rows] != qubits:
        problems.append("report qubit rows differ from the results' qubit set")
        return problems
    for q_text, fr, t1, deg in rows:
        q = int(q_text)
        if not _close(float(fr), ratio[q], 1e-12):
            problems.append(f"qubit {q}: failure ratio {fr} vs {ratio[q]!r}")
        if not _close(float(t1), mean_t1[q]):
            problems.append(f"qubit {q}: mean T1 {t1} vs {mean_t1[q]!r}")
        if int(deg) != degenerate[q]:
            problems.append(f"qubit {q}: degenerate {deg} vs {degenerate[q]}")
    expected = {
        "simultaneous_pass_proportion": simultaneous,
        "pass_proportion_overall": overall,
        "degenerate_count": float(sum(degenerate.values())),
        "alpha": alpha,
    }
    for key, value in expected.items():
        if key not in footer or not _close(float(footer[key]), value, 1e-12):
            problems.append(f"report {key}={footer.get(key)} vs {value!r}")
    if rho is None:
        if "spearman_t1_failure" in footer:
            problems.append("report has a rank correlation where none is defined")
    elif not _close(float(footer.get("spearman_t1_failure", "nan")), rho):
        problems.append(f"report spearman {footer.get('spearman_t1_failure')} vs {rho!r}")

    with open(scatter_csv) as fh:
        lines = fh.read().splitlines()
    if lines[0] != "qubit_id,mean_t1_us,failure_ratio" or len(lines) != len(qubits) + 1:
        problems.append("scatter file shape")
    else:
        for line, q in zip(lines[1:], qubits):
            q_text, t1, fr = line.split(",")
            if int(q_text) != q or not _close(float(t1), mean_t1[q]) \
                    or not _close(float(fr), ratio[q], 1e-12):
                problems.append(f"scatter row {line!r}")
    return problems[:20]


def _read_table(path: Path) -> list[tuple[int, float, float, float]]:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "statistic,exact_p,approx_p,difference":
            raise ValueError(f"{path.name}: unexpected header {header!r}")
        out = []
        for line in fh:
            k, exact, approx, diff = line.strip().split(",")
            out.append((int(k), float(exact), float(approx), float(diff)))
    return out


def _two_sided(pmf: list[float]) -> list[float]:
    """Mass at least as far from the mean as each support point; the same
    1e-9 tie slack as a float mean needs anywhere."""
    mean = math.fsum(k * p for k, p in enumerate(pmf))
    dist = [abs(k - mean) for k in range(len(pmf))]
    return [min(1.0, math.fsum(p for p, d in zip(pmf, dist) if d >= dist[k] - 1e-9))
            for k in range(len(pmf))]


def transfer_matrix_pmf(n: int, lag: int, bias: float) -> list[float]:
    """Exact pmf of the lag-``lag`` XOR count by dynamic programming over
    the last ``lag`` bits (state) and the running count."""
    m = n - lag
    states = 1 << lag
    dp = np.zeros((states, m + 1))
    # After the first `lag` bits the state is those bits, no pairs counted.
    for s in range(states):
        ones = bin(s).count("1")
        dp[s, 0] = bias**ones * (1.0 - bias) ** (lag - ones)
    for _ in range(m):
        nxt = np.zeros_like(dp)
        for s in range(states):
            oldest = (s >> (lag - 1)) & 1
            for bit, weight in ((0, 1.0 - bias), (1, bias)):
                t = ((s << 1) | bit) & (states - 1)
                if bit ^ oldest:
                    nxt[t, 1:] += weight * dp[s, :-1]
                else:
                    nxt[t, :] += weight * dp[s, :]
        dp = nxt
    return dp.sum(axis=0).tolist()


def binomial_half_tails(m: int) -> list[float]:
    """Two-sided Binomial(m, 1/2) tail at each k: 2 * P(X <= min(k, m-k)),
    capped at 1, from scipy's incomplete-beta binomial cdf."""
    from scipy.stats import binom

    k = np.arange(m + 1)
    return np.minimum(1.0, 2.0 * binom.cdf(np.minimum(k, m - k), m, 0.5)).tolist()


def check_oracle_table(path: Path, n: int, lag: int, bias: float) -> list[str]:
    problems: list[str] = []
    rows = _read_table(path)
    m = n - lag
    if [r[0] for r in rows] != list(range(m + 1)):
        return [f"{path.name}: statistic column is not 0..{m}"]
    if bias == 0.5:
        exact_ref = binomial_half_tails(m)
    elif n <= 24:
        exact_ref = _two_sided(transfer_matrix_pmf(n, lag, bias))
    else:
        return [f"{path.name}: no independent reference for n={n}, p={bias}"]
    for k, exact, approx, diff in rows:
        if diff != exact - approx:
            problems.append(f"k={k}: difference {diff!r} != exact - approx")
        if not abs(exact - exact_ref[k]) <= P_TOLERANCE:
            problems.append(f"k={k}: exact {exact!r} vs reference {exact_ref[k]!r}")
        z = _standardize(k, m, bias)
        if z is None or not abs(approx - _ref_p(z)) <= P_TOLERANCE:
            problems.append(f"k={k}: approx {approx!r} vs erfc reference")
        if len(problems) >= 20:
            break
    return problems


def check_all(spec: dict) -> dict:
    pipe = Path(spec["pipeline"])
    problems: dict[str, list[str]] = {}
    problems["results"], skipped = check_results(
        pipe / "jobs.csv", pipe / "results.csv", spec["lag"], spec["alpha"],
        spec["fixed_bias"])
    problems["report"] = check_report(pipe / "results.csv", pipe / "calibration.csv",
                                      pipe / "report.csv", pipe / "scatter.csv", spec["alpha"])
    for n, lag, p, path in spec["oracle"]:
        problems[f"oracle n={n} lag={lag} p={p}"] = check_oracle_table(Path(path), n, lag, p)
    return {"problems": problems, "cells_near_alpha_skipped": skipped,
            "numpy": np.__version__}


if __name__ == "__main__":
    print(json.dumps(check_all(json.loads(sys.argv[1]))))
