"""Accuracy of ``math.erfc``, the function both p-value routes call, against
the committed high-precision table."""

import csv
from math import erfc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

TABLE = Path(__file__).parent / "data" / "erfc_reference_200.csv"

# mpmath at 40 digits, frozen before the implementation was written
ERFC_1 = 0.157299207050285130658779364917


def load_table():
    with TABLE.open() as fh:
        return [(float(r["x"]), float(r["erfc"])) for r in csv.DictReader(fh)]


def test_reference_table_shape():
    rows = load_table()
    assert len(rows) == 200
    assert rows[0][0] == -10.0 and rows[-1][0] == 10.0
    assert any(x == 1.0 for x, _ in rows)


def test_against_reference_table():
    """Absolute error stays under 1e-12 on the whole table."""
    worst = max(abs(erfc(x) - ref) for x, ref in load_table())
    assert worst <= 1e-12, f"max abs error {worst:.3e}"


def test_spot_values():
    assert erfc(0.0) == 1.0
    assert abs(erfc(1.0) - ERFC_1) <= 1e-12


@given(st.floats(-10.0, 10.0))
def test_reflection_identity(x):
    assert erfc(-x) == pytest.approx(2.0 - erfc(x), abs=1e-12)


@given(st.floats(-10.0, 10.0), st.floats(1e-9, 5.0))
def test_monotone_decreasing(x, step):
    assert erfc(x + step) <= erfc(x)


def test_large_argument_underflows_to_zero():
    assert erfc(30.0) == 0.0
    assert erfc(-30.0) == 2.0
