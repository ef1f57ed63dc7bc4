"""adiclab: exact base-s digit expansions, digit statistics, constructive
digit streams with prescribed limiting behavior, and entropy-based fractal
dimension bounds."""

from .construct import (
    ColumnSchedule,
    DistinguishResult,
    ProbabilityVector,
    ScheduleSpec,
    block_boundaries,
    block_stream,
    greedy_increments,
    greedy_stream,
    mean_target_stream,
    prefix_distinguish,
    validate_schedule,
)
from .digits import (
    BASE4,
    Base,
    DigitPrefix,
    DigitStream,
    dual_representation,
    expand,
    has_two_representations,
    prefix_value,
    stream_value,
)
from .entropy import (
    EntropyResult,
    be_dimension,
    exp_family_vector,
    neg_entropy_minima,
    neg_entropy_minimum,
    neg_entropy_minimum_grid,
    xlogx,
)
from .stats import (
    ConvergenceTrace,
    FreqReport,
    NormalityVerdict,
    convergence_trace,
    digit_counts,
    freq_report,
    weak_normality_verdict,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BASE4",
    "Base",
    "DigitPrefix",
    "DigitStream",
    "expand",
    "prefix_value",
    "stream_value",
    "dual_representation",
    "has_two_representations",
    "FreqReport",
    "ConvergenceTrace",
    "NormalityVerdict",
    "digit_counts",
    "freq_report",
    "convergence_trace",
    "weak_normality_verdict",
    "ProbabilityVector",
    "ScheduleSpec",
    "ColumnSchedule",
    "DistinguishResult",
    "greedy_increments",
    "greedy_stream",
    "validate_schedule",
    "block_stream",
    "block_boundaries",
    "mean_target_stream",
    "prefix_distinguish",
    "EntropyResult",
    "xlogx",
    "be_dimension",
    "exp_family_vector",
    "neg_entropy_minima",
    "neg_entropy_minimum",
    "neg_entropy_minimum_grid",
]
