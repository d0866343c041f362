"""Golden outputs: small ``pipeline`` runs and ``oracle`` tables pinned by SHA-256.

The pipeline digests were recorded before the bit side of the pipeline moved
to one (rows x bits) matrix (the markov-negative and multi-block cases before
the job-CSV writer moved to row blocks and the Markov source to arrays), and
the oracle digests before the binomial pmf moved to a walk out from the mode
and the table to columns (the n = 131072 digest before the walk moved to
fixed point and the CSV writer to runs of repeated rows); they pin that
every output file stays byte-identical. ``results.csv`` is pinned without its
``p_value`` column and the oracle tables without ``approx_p`` and
``difference``, the fields that rest on the platform's ``erfc``; those two
are checked instead against the scalar ``p_value`` route, byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random

import numpy as np
import pytest

from qrng_audit import cli
from qrng_audit.autocorr import TestParams, normalize_statistic, p_value
from qrng_audit.ingest import parse_jobs, serialize_jobs
from qrng_audit.simulate import DeviceRunConfig, drifting_bias, generate_device_run

SHAPE = ["--jobs", "6", "--qubits", "4", "--bits", "256", "--seed", "7"]

CALIBRATION = "a94da6ce7e0eff0ced9b31e80bee330e7d9e72132fb921a129ca28d432dba161"
GOLDEN = {
    "ideal": ([], {
        "jobs.csv": "839edbe43e1fe49228ef3bc85f0cd90e86833acbfe9d08e265ce8e19f25fc33e",
        "calibration.csv": CALIBRATION,
        "report.csv": "bfc980b173913795e1bfbf443175ddc75f6ed7fb429fbb6dc3a74f660fbd395b",
        "scatter.csv": "c6b671655aaa63291ac8946c0e586b92c9eb9b307634e6bf6e8d1f25c434fb58",
        "results.csv": "7fc638ef8b9f659e7b574e499a4c27b3071875a5f85e31cfe8377cc69af6c65d",
    }),
    "markov": (["--model", "markov", "--rho", "0.05"], {
        "jobs.csv": "fa2011d94a972e3688440cfd09d82df8c7c165229a5669f7b8bff38928530dea",
        "calibration.csv": CALIBRATION,
        "report.csv": "9b222ecb948ef957b5693236cbb282adb553c9fa950caa16afd05338da9b2932",
        "scatter.csv": "ffe03f4292de09536a278e429c353b1f3be4ee7022c7d75b96e35af1db9c10f4",
        "results.csv": "b8c8bb42bc3bf76b552f22f1af2680860c1522c89bf3a80a3272e3475faa9f9e",
    }),
    "drifting": (["--model", "drifting", "--schedule", "0.5:3,0.6:3", "--lag", "2"], {
        "jobs.csv": "7d1ac7e40f7a96acb5b3022e6ed1113c85bb7804f0c8d3c056f605234b606f8c",
        "calibration.csv": CALIBRATION,
        "report.csv": "5aee3a5b09d1abed0d3c0d9c24012d0022f71027c6cbe76bd6838c1c4a92327d",
        "scatter.csv": "c6b671655aaa63291ac8946c0e586b92c9eb9b307634e6bf6e8d1f25c434fb58",
        "results.csv": "c964f44eafdb0bec0ba08fc3d8f63e02ddb91c519652024582370492cb766132",
    }),
    "fixed-bias": (["--bias", "fixed:0.3"], {
        "jobs.csv": "839edbe43e1fe49228ef3bc85f0cd90e86833acbfe9d08e265ce8e19f25fc33e",
        "calibration.csv": CALIBRATION,
        "report.csv": "d948755ae584335fb979f300e1360b8f4ac09cdaee9f4f3348f02522bbbf2ddd",
        "scatter.csv": "f8026c8781b38c03e52bc39c19d20a675e6243dbb75f11f6f099361ac5d2ab73",
        "results.csv": "3a201706454ecbf8ae8324d308410d1c438a8d628cb88934136680dcd1824cb1",
    }),
    "markov-negative": (["--model", "markov", "--rho", "-0.3"], {
        "jobs.csv": "24f688ec345d0b43554489f084b564188da05cabe9ca0915c2afd7e5260515ae",
        "calibration.csv": CALIBRATION,
        "report.csv": "9034184335bd20fd05095ebb9fa43c217f8ec6689a92d1be83c331b7dcf4a026",
        "scatter.csv": "7e8caa090d6badb75f05566278ed1d6d184d812895e19b5e60cdb9f6ccc4d005",
        "results.csv": "38f0efe1a455cb9649fb9f7e89df7e846d457d81ce39eec32c0047be6ba48223",
    }),
    # 200 rows of 8193 bytes of bit text: the job file crosses many 64 KiB
    # blocks of the serializer, the last one partial.
    "multi-block": (["--jobs", "10", "--qubits", "20", "--bits", "8192"], {
        "jobs.csv": "2da03ec21a1d51bfa1d3452210dc1ed2299e9051d0ca23f9175ee42f536558dd",
        "calibration.csv": "efcdb2273907e81e5b84510fb050a6474c818e3b6d10617e9506a1663a8b64b6",
        "report.csv": "3decc7a731872c317cf434739eeccba543250a44a6be3bdb0e85d1a84c06a2da",
        "scatter.csv": "ca5c2f38f08a0b8b6d60e2e4dd4717afc2382bd063332f3a26a5a177d0225377",
        "results.csv": "743ef31a1e2faf4bd8e837ea1d03268f3dd58566a88dc387fd841cdc57e101dd",
    }),
}

# The standalone ``aggregate`` over the markov case's results.csv and
# calibration.csv, recorded before the results file was read straight into
# the p-value matrix: at --alpha 0.05, and with the results rows shuffled
# (jobs then appear out of time order), which leaves the pipeline's report.
AGGREGATE_GOLDEN = {
    "alpha-0.05": (["--alpha", "0.05"], False, {
        "report.csv": "812681cb2068c691bdad5c04d7d03e51d589f86b8937dd8ae215ad7b1331b552",
        "scatter.csv": "3926ae3187a33ae9ccead5516fc5aa7871377ba05917d7d5250bdae2a6c0c832",
    }),
    "shuffled-rows": ([], True, {
        "report.csv": "9b222ecb948ef957b5693236cbb282adb553c9fa950caa16afd05338da9b2932",
        "scatter.csv": "ffe03f4292de09536a278e429c353b1f3be4ee7022c7d75b96e35af1db9c10f4",
    }),
}

# Job files of runs whose chain parameters vary by qubit and job, which no
# set of flags expresses, recorded while each qubit's stream still came from
# its own source object: a rho ramp over qubits, and qubits mixing ideal,
# Markov of either sign, and a drifting bias column.
DRIFT = drifting_bias([(0.3, 2), (0.7, 3)])
RUN_GOLDEN = {
    "rho-ramp": (dict(qubit_count=6, jobs=4, bits_per_job=2048, master_seed=11,
                      rho=[0.05 * (q + 1) / 6 for q in range(6)]),
                 "a15a715a85fe7f1817ab506a45bde185bdfe7c855e5f0eb270236352e9d3bf70"),
    "mixed": (dict(qubit_count=4, jobs=5, bits_per_job=1000, master_seed=11,
                   bias=np.hstack([np.full((5, 1), 0.5), np.full((5, 1), 0.3), DRIFT,
                                   np.full((5, 1), 0.42)]),
                   rho=[0.0, -0.2, 0.0, 0.3]),
              "e2782f28e8573ffa07a281598c5499652b1e323e877a9e8c57b1cdf69a7a73a1"),
}

# (n, lag, p, k range or None) -> digest of the statistic and exact_p columns
ORACLE_GOLDEN = {
    (8192, 1, 0.5, None): "487bf753562b34b61a5bee7ef3f32e980ef0b39626b0ecd0288fbd2273cb4392",
    (131072, 1, 0.5, None): "33be5c12ffe16106eac88a2c5219f0765f72d583620171b9d6e0b89cc6c6664a",
    (24, 3, 0.1, None): "7f47e286db20dacd089ac5d9c9a4582ebc3b46bf2f3bf617898794204677405a",
    (24, 1, 0.3, None): "d8e3e4816701eadc0b4d8a25cf1a32ced4a614ebd61a40d7478792e1b44db617",
    (20000, 7, 0.5, None): "ed92971592a10aecae7dcbd0bddbe9a0ac8ad8a3120db9b5c13357709b8b1327",
    (20000, 1, 0.5, (9700, 10300)):
        "b30b1462d2f8ace612aaf880aecb88f745cb88d6c0b474774ab4898ab2a860fa",
    (20, 2, 0.3, (3, 9)): "ceb35469cf9d6ada09e88827a45f73c5db62b5c0a0b1e84bd4468f2d1e83872a",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _without_p_value(text: str) -> bytes:
    rows = list(csv.reader(io.StringIO(text)))
    drop = rows[0].index("p_value")
    return "".join(",".join(r[:drop] + r[drop + 1:]) + "\n" for r in rows).encode()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_pipeline_outputs_match_golden_digests(case, tmp_path):
    extra, expected = GOLDEN[case]
    assert cli.main(["pipeline", *SHAPE, *extra, "--workdir", str(tmp_path)]) == 0
    got = {name: _sha256((tmp_path / name).read_bytes()) for name in expected}
    got["results.csv"] = _sha256(_without_p_value((tmp_path / "results.csv").read_text()))
    assert got == expected


@pytest.mark.parametrize("case", sorted(RUN_GOLDEN))
def test_per_qubit_and_per_job_runs_match_golden_digests(case):
    fields, expected = RUN_GOLDEN[case]
    buf = io.StringIO()
    serialize_jobs(generate_device_run(DeviceRunConfig(**fields)), buf)
    assert _sha256(buf.getvalue().encode()) == expected


@pytest.mark.parametrize("case", sorted(AGGREGATE_GOLDEN))
def test_standalone_aggregate_matches_golden_digests(case, tmp_path):
    flags, shuffle, expected = AGGREGATE_GOLDEN[case]
    assert cli.main(["pipeline", *SHAPE, *GOLDEN["markov"][0], "--workdir", str(tmp_path)]) == 0
    results = tmp_path / "results.csv"
    if shuffle:
        header, *rows = results.read_text().splitlines(True)
        random.Random(3).shuffle(rows)
        results.write_text(header + "".join(rows))
    out = tmp_path / "aggregate"
    out.mkdir()
    assert cli.main(["aggregate", "--in", str(results),
                     "--calibration", str(tmp_path / "calibration.csv"),
                     "--report", str(out / "report.csv"),
                     "--scatter", str(out / "scatter.csv"), *flags]) == 0
    assert {name: _sha256((out / name).read_bytes()) for name in expected} == expected


def test_row_shuffled_job_file_gives_the_same_matrix(tmp_path):
    assert cli.main(["pipeline", *SHAPE, *GOLDEN["markov"][0], "--workdir", str(tmp_path)]) == 0
    text = (tmp_path / "jobs.csv").read_text()
    header, *rows = text.splitlines(True)
    random.Random(3).shuffle(rows)
    params = TestParams(lag=1)
    canonical = parse_jobs(io.BytesIO(text.encode()), params)
    shuffled = parse_jobs(io.BytesIO((header + "".join(rows)).encode()), params)
    assert (shuffled.job_ids, shuffled.qubit_ids) == (canonical.job_ids, canonical.qubit_ids)
    for field in ("statistic", "bias", "normalized", "p_value"):
        np.testing.assert_array_equal(getattr(shuffled, field), getattr(canonical, field))
    # ``test`` writes the pipeline's results.csv from a row-shuffled file and
    # from one ordered qubit by qubit.
    qubits = len(canonical.qubit_ids)
    canonical_rows = text.splitlines(True)[1:]
    qubit_major = sorted(range(len(canonical_rows)), key=lambda i: (i % qubits, i // qubits))
    copies = {"shuffled": rows, "qubit-major": [canonical_rows[i] for i in qubit_major]}
    for name, copy in copies.items():
        (tmp_path / f"{name}.csv").write_text(header + "".join(copy))
        assert cli.main(["test", "--in", str(tmp_path / f"{name}.csv"),
                         "--out", str(tmp_path / f"{name}-results.csv")]) == 0
        assert ((tmp_path / f"{name}-results.csv").read_bytes()
                == (tmp_path / "results.csv").read_bytes()), name


@pytest.mark.parametrize("case", list(ORACLE_GOLDEN), ids=str)
def test_oracle_tables_match_golden_digests(case, tmp_path):
    n, lag, p, k_range = case
    out = tmp_path / "oracle.csv"
    flags = [] if k_range is None else ["--k-min", str(k_range[0]), "--k-max", str(k_range[1])]
    assert cli.main(["oracle", "--n", str(n), "--lag", str(lag), "--p", repr(p),
                     *flags, "--out", str(out)]) == 0
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    assert header == ["statistic", "exact_p", "approx_p", "difference"]
    exact_columns = "".join(f"{r[0]},{r[1]}\n" for r in [header, *rows])
    assert _sha256(exact_columns.encode()) == ORACLE_GOLDEN[case]
    for k, exact, approx, difference in rows:
        scalar = p_value(normalize_statistic(int(k), n, lag, p))
        assert (approx, difference) == (repr(scalar), repr(float(exact) - scalar))
