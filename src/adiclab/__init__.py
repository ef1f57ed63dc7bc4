"""adiclab: exact base-s digit expansions, digit statistics, constructive
digit streams with prescribed limiting behavior, and entropy-based fractal
dimension bounds.

The public names below are loaded on first access (PEP 562), each from its
submodule, so importing the package, or one submodule such as the CLI,
loads no other module and no numpy.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_SOURCES = {
    **dict.fromkeys(
        ("BASE4", "Base", "DigitPrefix", "DigitStream", "expand", "prefix_value", "stream_value",
         "dual_representation", "has_two_representations"),
        "digits",
    ),
    **dict.fromkeys(
        ("FreqReport", "ConvergenceTrace", "NormalityVerdict", "digit_counts", "freq_report",
         "convergence_trace", "weak_normality_verdict"),
        "stats",
    ),
    **dict.fromkeys(
        ("ProbabilityVector", "ScheduleSpec", "ColumnSchedule", "DistinguishResult", "greedy_increments",
         "greedy_stream", "validate_schedule", "block_stream", "block_boundaries", "mean_target_stream",
         "prefix_distinguish"),
        "construct",
    ),
    **dict.fromkeys(
        ("EntropyResult", "xlogx", "be_dimension", "exp_family_vector", "neg_entropy_minima",
         "neg_entropy_minimum", "neg_entropy_minimum_grid"),
        "entropy",
    ),
}

__all__ = ["__version__", *_SOURCES]


def __getattr__(name: str):
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCES})
