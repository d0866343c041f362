"""Temporal-correlation auditing for quantum random number generator bitstreams."""

from .autocorr import (
    AutocorrResult,
    BitSequence,
    TestParams,
    Verdict,
    autocorr_statistic,
    estimate_bias,
    normalize_statistic,
    p_value,
    run_test,
)

__version__ = "0.1.0"

__all__ = [
    "AutocorrResult",
    "BitSequence",
    "TestParams",
    "Verdict",
    "autocorr_statistic",
    "estimate_bias",
    "normalize_statistic",
    "p_value",
    "run_test",
    "__version__",
]
