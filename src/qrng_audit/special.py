"""Complementary error function: the standard library's ``math.erfc`` behind a
guard that rejects non-finite arguments. Accuracy is pinned by tests against
a committed 200-point high-precision table.
"""

from __future__ import annotations

import math


def erfc(x: float) -> float:
    """Complementary error function (2/sqrt(pi)) * integral_x^inf exp(-t^2) dt.

    Raises ValueError on non-finite input. Absolute error <= 1e-12 on
    [-10, 10] (in practice a few ulps); monotone decreasing.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"erfc requires a finite argument, got {x!r}")
    return math.erfc(x)
