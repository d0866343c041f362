"""Temporal-correlation auditing for quantum random number generator bitstreams."""

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


def __getattr__(name: str):
    """The API's names, imported from ``autocorr`` on first use (PEP 562),
    so that the command line's parse path loads no numpy."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
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
    return locals()[name]
