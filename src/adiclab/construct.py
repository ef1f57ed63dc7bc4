"""Constructive digit streams with prescribed limiting statistics.

Two constructions are implemented, both floor-based and fully exact:

* the greedy construction: at step k append, in increasing digit order,
  the increments floor(tau_i * (k+1)) - floor(tau_i * k). At every
  boundary n the prefix of length sum_i floor(tau_i * n) then holds
  exactly floor(tau_i * n) copies of digit i, which forces limiting
  frequency tau_i for every digit;

* the block construction: block k holds floor(tau_ik * s_k) copies of
  digit i, where tau_.k is the k-th column of a stochastic column rule and
  (s_k) is a growing block-length schedule. Columns with a constant exact
  mean force that limiting digit mean; columns converging in coordinate j
  force that coordinate's limiting frequency.

Column vectors and schedule parameters are exact rationals and every floor
is exact: the constructions are floor-sensitive, and the exact-count
claims are only checkable in integer arithmetic.

Both streams produce whole chunks (see `digits`). A greedy stream of
tau = (n_i / L), the vector's own integers, is purely periodic with
period L. When L is at most CHUNK_DIGITS it is a `periodic_stream` of
one period, built in exact Python ints without numpy, so its value is
exact and `digit_at` is O(1). Otherwise the first 2**14 steps are
computed in exact Python ints as well, and numpy is used only past them,
by an array kernel that gives the same digits. While L is at most 10**7
(`digits._MAX_PERIOD_DIGITS`) the stream carries a finder, which reads
its first L digits as the period only when the period is first needed; a
longer L leaves the stream without one.

The greedy kernel computes a block of steps at once with numpy. Up to
the chunk's last step N, floor(n * tau_i) equals a floor of n * p'/q'
for the last continued-fraction convergent p'/q' of tau_i with q' <= N
(Khinchin, Continued Fractions, ch. I). From it the greedy chunk takes
each column's copies of its digit and the step of each copy, and merges
the columns by one stable sort, so a chunk costs a few passes over the
columns plus its digits. A column of any denominator runs in int64
while N**2 < 2**63 (about 3.04e9 steps), and in exact Python ints only
past that. The block stream emits each block as runs of one repeated
digit.

Schedules come from a closed set of named families because the growth
conditions they must satisfy are limit statements, not verifiable from
finite data; `validate_schedule` settles each condition analytically per
family. Stream inequality can only be falsified on a finite prefix, never
proven, so `prefix_distinguish` reports either a differing index or
"undetermined at the horizon".
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property, partial
from operator import mul
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from .digits import (
    _MAX_PERIOD_DIGITS, BASE4, CHUNK_DIGITS, Base, Chunk, DigitStream, Frozen, _read_period, chunk_from_array,
    constant_stream, periodic_stream, to_chunk,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ProbabilityVector",
    "greedy_increments",
    "floor_counts",
    "greedy_stream",
    "ScheduleSpec",
    "ConditionStatus",
    "ScheduleValidation",
    "ScheduleRejectedError",
    "validate_schedule",
    "ColumnSchedule",
    "ColumnConstraintError",
    "block_stream",
    "block_boundaries",
    "mean_target_stream",
    "DistinguishResult",
    "prefix_distinguish",
    "schedule_from_config",
    "columns_from_config",
]


class ProbabilityVector(Frozen):
    """Exact probability vector over the digit alphabet (tau_i >= 0, sum 1).

    It is held as integers tau_i = n_i / D (`numerators`, `denominator`)
    in lowest terms, so D is the lcm of the entries' denominators; the
    Fraction `entries` are built when first read.

    A vector the library computes is built by `from_numerators` and checked
    once, in its own integers. Only outside input takes the plain
    constructor, which converts each entry and finds their lcm first:
    `parse`, config vectors, and a column rule that returns a tuple.
    """

    _fields = ("numerators", "denominator")

    def __init__(self, entries: Iterable) -> None:
        fractions = [Fraction(e) for e in entries]
        # The lcm of reduced denominators is already in lowest terms.
        den = math.lcm(*(f.denominator for f in fractions))
        self._set(tuple(f.numerator * (den // f.denominator) for f in fractions), den)

    @classmethod
    def from_numerators(cls, numerators: Sequence[int], denominator: int) -> "ProbabilityVector":
        """The vector (n_i / denominator) for integers n_i, checked in those
        integers; it skips the plain constructor's common-denominator search.
        The integers are divided by their gcd with the denominator once."""
        if denominator < 1:
            raise ValueError(f"denominator must be >= 1, got {denominator}")
        g = math.gcd(denominator, *numerators)
        vec = object.__new__(cls)
        vec._set(tuple(numerators) if g == 1 else tuple(n // g for n in numerators), denominator // g)
        return vec

    def _set(self, numerators: tuple[int, ...], denominator: int) -> None:
        """Store the integers, then check the simplex conditions on them
        exactly: at least two entries, each n_i >= 0, sum n_i = D."""
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "denominator", denominator)
        if len(numerators) < 2:
            raise ValueError("a probability vector needs at least two entries")
        if min(numerators) < 0:
            raise ValueError(f"negative entry in {self.entries}")
        if sum(numerators) != denominator:
            raise ValueError(
                f"entries must sum to 1 exactly, got sum {Fraction(sum(numerators), denominator)}"
            )

    @property
    def s(self) -> int:
        return len(self.numerators)

    @cached_property
    def entries(self) -> tuple[Fraction, ...]:
        """The entries tau_i = n_i / D as Fractions."""
        return tuple(Fraction(n, self.denominator) for n in self.numerators)

    def mean(self) -> Fraction:
        return self._mean

    @cached_property
    def _support(self) -> tuple[tuple[int, int], ...]:
        """(i, n_i) for each nonzero n_i. A wide base with few of them, as
        `_mean_vector` makes, then costs an exact chunk O(their number)."""
        return tuple((i, n) for i, n in enumerate(self.numerators) if n)

    @cached_property
    def _mean(self) -> Fraction:
        # The vector is frozen, so its mean is computed once.
        return Fraction(sum(map(mul, range(self.s), self.numerators)), self.denominator)

    def as_strings(self) -> list[str]:
        return [str(e) for e in self.entries]

    @classmethod
    def parse(cls, spec: str | Sequence) -> "ProbabilityVector":
        """From "1/4,1/4,1/4,1/4" or a sequence of rational-like values."""
        parts = [p.strip() for p in spec.split(",")] if isinstance(spec, str) else list(spec)
        return cls(tuple(Fraction(p) for p in parts))


def greedy_increments(tau: ProbabilityVector, n: int) -> tuple[int, ...]:
    """Per-digit increments floor(tau_i*(n+1)) - floor(tau_i*n); each 0 or 1."""
    if n < 1:
        raise ValueError(f"step index must be >= 1, got {n}")
    d = tau.denominator
    return tuple(a * (n + 1) // d - a * n // d for a in tau.numerators)


def floor_counts(tau: ProbabilityVector, n: int) -> tuple[int, ...]:
    """Target digit counts floor(tau_i * n) at boundary n."""
    if n < 0:
        raise ValueError(f"boundary must be >= 0, got {n}")
    return tuple(a * n // tau.denominator for a in tau.numerators)


# Greedy steps in a stream's first chunk; each later chunk doubles them up
# to CHUNK_DIGITS steps (about that many digits, since the increments of
# one step sum to 1 on average).
_FIRST_STEPS = 256

# A long-period greedy stream computes the chunks that end by this step in
# exact Python ints (`_greedy_steps`): 256 doubling to 8192 steps, 16128 in
# all. Only a tau with at most _PURE_COLUMNS nonzero entries does.
_PURE_STEPS = 1 << 14
_PURE_COLUMNS = 256


# Up to this chunk end N the greedy kernel's arithmetic is int64: its values
# stay under N**2 (see `_greedy_digits`).
_INT64_STEPS = math.isqrt(2**63 - 1)

# `until` of a convergent that serves every chunk end: the largest int64. A
# clip of the next denominator to it only refreshes a column earlier.
_NEVER = 2**63 - 1


def _convergent(p: int, q: int, n: int) -> tuple[int, int, int | float]:
    """(p', q', q'') for n >= 1: the last continued-fraction convergent
    p'/q' of the fraction p/q >= 0 (q >= 1, not necessarily reduced) with
    q' <= n, and the next denominator q'' > n, or infinity when p'/q' is
    p/q itself, which it then gives in lowest terms."""
    h0, k0, h1, k1 = 0, 1, 1, 0
    while q:  # the remainder reaches 0 at the last convergent, p/q reduced
        a, (p, q) = p // q, (q, p % q)
        h0, k0, h1, k1 = h1, k1, a * h1 + h0, a * k1 + k0
        if k1 > n:
            return h0, k0, k1
    return h1, k1, math.inf


def _greedy_digits(p: np.ndarray, q: np.ndarray, c: np.ndarray, k: int, end: int) -> np.ndarray:
    """The digits of greedy steps k, ..., end-1 (k >= 1), in stream order.

    p'/q' = p[i]/q[i] is the last convergent of tau_i with q' <= N = end,
    and c[i] = [tau_i < p'/q']. With q'' > N the next denominator,
    |tau_i - p'/q'| <= 1/(q'q''), so for 1 <= n <= N, n*p'/q' is within
    1/q' of n*tau_i, and it is an integer only when q' divides n, where
    subtracting c, and nothing else, moves the floor (Khinchin, Continued
    Fractions, ch. I): F(n) = (n*p' - c) // q' is floor(n*tau_i). Once
    tau_i's own denominator is at most N, p'/q' is tau_i and c = 0.

    Column i emits the copies m = F(k)+1, ..., F(end) of digit i, copy m
    at the step n with F(n) < m <= F(n+1), that is n = (m*q' + c - 1) // p'.
    A stable sort by step merges the columns: ties keep digit order, the
    order of one step's increments. The work is a few passes over the s
    columns plus O(digits).

    Every value lies within N**2 of 0 (m*q' <= N*p' and p' <= q' <= N), so
    the arithmetic is int64 up to N = _INT64_STEPS (about 3.04e9 steps) and
    exact Python ints past it.
    """
    import numpy as np

    if end > _INT64_STEPS:
        p, q, c = p.astype(object), q.astype(object), c.astype(object)
    low = (k * p - c) // q
    # np.repeat refuses object counts; each is at most end - k.
    counts = ((end * p - c) // q - low).astype(np.int64)
    column = np.repeat(np.arange(len(p), dtype=np.min_scalar_type(len(p) - 1)), counts)
    # Copy numbers m, then the step of each copy less k, in place.
    steps = np.repeat(low + 1 - (np.cumsum(counts) - counts), counts) + np.arange(len(column))
    steps *= np.repeat(q, counts)
    steps += np.repeat(c - 1 - k * p, counts)
    steps //= np.repeat(p, counts)
    return column[np.argsort(steps, kind="stable")]


def _greedy_steps(tau: ProbabilityVector, k: int, end: int, base: Base) -> Chunk:
    """The digits of greedy steps k, ..., end-1 (1 <= k < end), in stream
    order, in exact Python ints without numpy.

    With tau_i = p/D and F(n) = floor(n*p/D), step n emits the copies
    F(n)+1, ..., F(n+1) of digit i, so copy m falls on the step n with
    F(n) < m <= F(n+1), that is n = (m*D - 1) // p, and the steps emit
    the copies m = F(k)+1, ..., F(end). One sort of the keys n*s + i
    merges the columns: by step, and within a step in increasing digit
    order. Only the nonzero columns are visited, so the work is O(their
    number + digits log digits).
    """
    s, d = base.s, tau.denominator
    keys: list[int] = []
    for i, p in tau._support:
        keys += [x // p * s + i for x in range((k * p // d + 1) * d - 1, end * p // d * d, d)]
    keys.sort()
    return to_chunk([key % s for key in keys], base)


def _greedy_chunks(
    tau: ProbabilityVector, base: Base, k: int = 1, steps: int = _FIRST_STEPS
) -> Iterator[Chunk]:
    """The greedy stream's chunks from the array kernel, from step k on: the
    first chunk covers `steps` steps, and each later one twice as many, up
    to CHUNK_DIGITS. Each chunk covers the steps K..N-1 at once
    (`_greedy_digits`). Each column's copies and the steps they fall on
    come from one continued-fraction convergent of tau_i, the one for the
    chunk end N. The state is four arrays over the columns: p', q', c and
    `until`, the chunk end at which the convergent expires, and only the
    columns with until <= N are refreshed. A zero column starts settled, as
    0/1 until _NEVER, so the first chunk refreshes only the nonzero ones. A
    column of any denominator is computed in int64 while N**2 < 2**63,
    that is for about the first 3.04e9 steps, and in exact Python ints only
    past that."""
    import numpy as np

    p, c = np.zeros(tau.s, dtype=np.int64), np.zeros(tau.s, dtype=np.int64)
    q = np.ones(tau.s, dtype=np.int64)
    nums, den = tau.numerators, tau.denominator
    until = np.array([0 if n else _NEVER for n in nums], dtype=np.int64)
    while True:
        end = k + steps
        for i in np.flatnonzero(until <= end).tolist():
            num = nums[i]
            pi, qi, qnext = _convergent(num, den, end)
            p[i], q[i], c[i], until[i] = pi, qi, num * qi < pi * den, min(qnext, _NEVER)
        yield chunk_from_array(_greedy_digits(p, q, c, k, end), base)
        k = end
        steps = min(2 * steps, CHUNK_DIGITS)


def _pure_then_kernel(tau: ProbabilityVector, base: Base) -> Iterator[Chunk]:
    """The chunks of a long-period greedy stream: those that end by step
    _PURE_STEPS from `_greedy_steps`, without numpy, and the rest from the
    array kernel, which takes up the same chunk lengths where they stop."""
    k, steps = 1, _FIRST_STEPS
    while k + steps <= _PURE_STEPS:
        yield _greedy_steps(tau, k, k + steps, base)
        k, steps = k + steps, 2 * steps
    yield from _greedy_chunks(tau, base, k, steps)


def greedy_stream(tau: ProbabilityVector, base: Base | None = None) -> DigitStream:
    """Digit stream whose limiting frequencies equal tau exactly.

    Step k emits the increments of `greedy_increments(tau, k)` in
    increasing digit order, so for every n the prefix of length
    sum(floor_counts(tau, n)) contains exactly floor(tau_i * n) copies of
    digit i. Pure integer arithmetic throughout.

    With tau = (n_i / L), the vector's own `numerators` over its
    `denominator` L, the increments of step k depend only on k mod L, so
    the stream is purely periodic: one period is steps 1..L, L digits with
    n_i copies of digit i, copy m on step (m*L - 1) // n_i. When L is at
    most CHUNK_DIGITS the stream is `periodic_stream((), period)`, the
    period built in exact ints without numpy (`_greedy_steps`), so
    `stream_value` is exact and `digit_at` is O(1). Otherwise the first
    2**14 steps (`_PURE_STEPS`; its chunks hold 16128 steps) are computed
    in exact ints without numpy too, and numpy is used only past them, by
    the array kernel (`_greedy_chunks`), so a short prefix loads no numpy.
    A tau with more than 256 nonzero entries (`_PURE_COLUMNS`) runs the
    kernel from step 1, so that an exact chunk costs O(its steps). Up to
    L = _MAX_PERIOD_DIGITS the stream's finder (see `DigitStream`) reads
    its period, the first L digits, when it is first needed. A longer period is never built, and the stream has none.
    Every path gives the same digits.
    """
    if base is None:
        base = Base(tau.s)
    elif base.s != tau.s:
        raise ValueError(f"vector has {tau.s} entries but base is {base.s}")
    period = tau.denominator
    if period <= CHUNK_DIGITS:
        return periodic_stream((), _greedy_steps(tau, 1, period + 1, base), base)
    # The count of nonzero entries stops at the first one past _PURE_COLUMNS.
    few = next(itertools.islice(filter(None, tau.numerators), _PURE_COLUMNS, None), None) is None
    make = partial(_pure_then_kernel if few else _greedy_chunks, tau, base)
    finder = partial(_read_period, make, base, 0, period) if period <= _MAX_PERIOD_DIGITS else None
    return DigitStream(base, make, _period=finder)


# ---------------------------------------------------------------------------
# Block-length schedules
# ---------------------------------------------------------------------------

CONDITION_DIVERGES = "terms_diverge"
CONDITION_NEXT_TERM = "next_term_over_partial_sum"
CONDITION_INDEX = "index_over_partial_sum"

_CONDITION_FORMULAS = {
    CONDITION_DIVERGES: "s_k -> inf",
    CONDITION_NEXT_TERM: "s_{k+1} / sum_{i<=k} s_i -> 0",
    CONDITION_INDEX: "k / sum_{i<=k} s_i -> 0",
}


class ScheduleSpec(Frozen):
    """A named block-length family s_k.

    Only named families are allowed (rather than arbitrary callables)
    because the growth conditions are limit statements: a validator can
    settle them analytically for a known family but never from finitely
    many terms of a black box. Construction enforces positivity and
    monotonicity only; the limit conditions are the validator's job, so
    rejectable candidates (geometric growth) are still constructible.
    """

    _fields = ("family", "degree", "a", "b", "ratio")

    def __init__(
        self,
        family: str,  # "polynomial" | "affine" | "geometric"
        degree: int | None = None,  # polynomial: s_k = k**degree
        a: Fraction | None = None,  # affine: s_k = a*k + b
        b: Fraction | None = None,
        ratio: Fraction | None = None,  # geometric: s_k = ratio**k
    ) -> None:
        if family == "polynomial":
            if not isinstance(degree, int) or degree < 1:
                raise ValueError("polynomial schedule needs an integer degree >= 1")
        elif family == "affine":
            a = Fraction(a)
            b = Fraction(b if b is not None else 0)
            if a < 1:
                raise ValueError(f"affine schedule needs slope >= 1, got {a}")
            if a + b <= 0:
                raise ValueError("affine schedule must be positive from k = 1")
        elif family == "geometric":
            ratio = Fraction(ratio)
            if ratio < 1:
                raise ValueError(f"geometric schedule needs ratio >= 1, got {ratio}")
        else:
            raise ValueError(f"unknown schedule family {family!r}")
        for name, value in zip(self._fields, (family, degree, a, b, ratio)):
            object.__setattr__(self, name, value)

    @classmethod
    def polynomial(cls, degree: int) -> "ScheduleSpec":
        return cls(family="polynomial", degree=degree)

    @classmethod
    def affine(cls, a, b=0) -> "ScheduleSpec":
        return cls(family="affine", a=Fraction(a), b=Fraction(b))

    @classmethod
    def geometric(cls, ratio) -> "ScheduleSpec":
        return cls(family="geometric", ratio=Fraction(ratio))

    def term(self, k: int) -> Fraction:
        if k < 1:
            raise ValueError(f"schedule index must be >= 1, got {k}")
        if self.family == "polynomial":
            return Fraction(k**self.degree)
        if self.family == "affine":
            return self.a * k + self.b
        return self.ratio**k

    def label(self) -> str:
        if self.family == "polynomial":
            return "k" if self.degree == 1 else f"k^{self.degree}"
        if self.family == "affine":
            return f"{self.a}*k+{self.b}" if self.b else f"{self.a}*k"
        return f"{self.ratio}^k"


class ConditionStatus(NamedTuple):
    name: str
    formula: str
    holds: bool
    detail: str


class ScheduleValidation(NamedTuple):
    spec: ScheduleSpec
    accepted: bool
    conditions: tuple[ConditionStatus, ...]

    def failed(self) -> tuple[ConditionStatus, ...]:
        return tuple(c for c in self.conditions if not c.holds)


class ScheduleRejectedError(ValueError):
    def __init__(self, validation: ScheduleValidation):
        names = ", ".join(c.name for c in validation.failed())
        super().__init__(
            f"schedule s_k = {validation.spec.label()} rejected; failed condition(s): {names}"
        )
        self.validation = validation


def validate_schedule(spec: ScheduleSpec) -> ScheduleValidation:
    """Analytic verdicts for the three growth conditions on (s_k).

    Polynomial families have partial sums ~ k**(d+1)/(d+1), which dominate
    both s_{k+1} and k; affine families likewise with sums ~ a*k**2/2. So
    both satisfy all three conditions. Geometric growth with ratio > 1
    keeps s_{k+1} comparable to the whole partial sum (the quotient tends
    to ratio - 1, not 0), and ratio = 1 is a constant schedule, which
    fails divergence and the index condition.
    """

    def status(name: str, holds: bool, detail: str) -> ConditionStatus:
        return ConditionStatus(name, _CONDITION_FORMULAS[name], holds, detail)

    if spec.family == "polynomial":
        d = spec.degree
        conditions = (
            status(CONDITION_DIVERGES, True, f"s_k = k^{d} -> inf"),
            status(CONDITION_NEXT_TERM, True, f"quotient ~ {d + 1}/k -> 0"),
            status(CONDITION_INDEX, True, f"quotient ~ {d + 1}/k^{d} -> 0"),
        )
    elif spec.family == "affine":
        conditions = (
            status(CONDITION_DIVERGES, True, f"s_k = {spec.label()} -> inf"),
            status(CONDITION_NEXT_TERM, True, "quotient ~ 2/k -> 0"),
            status(CONDITION_INDEX, True, f"quotient -> 2/{spec.a}/k -> 0"),
        )
    elif spec.ratio > 1:
        limit = spec.ratio - 1
        conditions = (
            status(CONDITION_DIVERGES, True, f"s_k = {spec.label()} -> inf"),
            status(CONDITION_NEXT_TERM, False, f"quotient -> ratio - 1 = {limit} != 0"),
            status(CONDITION_INDEX, True, "geometric sum dominates k"),
        )
    else:  # ratio == 1: constant schedule
        conditions = (
            status(CONDITION_DIVERGES, False, "s_k = 1 is constant"),
            status(CONDITION_NEXT_TERM, True, "quotient = 1/k -> 0"),
            status(CONDITION_INDEX, False, "quotient = k/k = 1 != 0"),
        )
    return ScheduleValidation(spec=spec, accepted=all(c.holds for c in conditions), conditions=conditions)


# ---------------------------------------------------------------------------
# Column rules and the block construction
# ---------------------------------------------------------------------------


class ColumnConstraintError(ValueError):
    pass


class ColumnSchedule(Frozen):
    """Column rule n -> probability vector for the block construction.

    The rule must be a pure function of the column index. A declared mean
    is re-checked exactly on every produced column and violations are hard
    errors (the mean theorem's hypothesis is per-column exact). A vector
    computes its mean once, so a rule that returns the same vector pays for
    it once.
    """

    _fields = ("rule", "mean")

    def __init__(self, rule: Callable[[int], ProbabilityVector], mean: Fraction | None = None) -> None:
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "mean", mean)

    def column(self, n: int) -> ProbabilityVector:
        if n < 1:
            raise ValueError(f"column indices are 1-based, got {n}")
        col = self.rule(n)
        if not isinstance(col, ProbabilityVector):
            col = ProbabilityVector(tuple(col))
        if self.mean is not None and col.mean() != self.mean:
            raise ColumnConstraintError(
                f"column {n} has mean {col.mean()}, declared mean is {self.mean}"
            )
        return col

    @classmethod
    def constant(cls, tau: ProbabilityVector, mean: Fraction | None = None) -> "ColumnSchedule":
        declared = tau.mean() if mean is None else Fraction(mean)
        return cls(rule=lambda n: tau, mean=declared)

    @classmethod
    def converging(
        cls, limit: ProbabilityVector, mix_digit: int, rate: str = "harmonic"
    ) -> "ColumnSchedule":
        """Columns (1 - eps_n) * limit + eps_n * e_mix with eps_n -> 0.

        rate "harmonic" uses eps_n = 1/(n+1), "quadratic" eps_n = 1/(n+1)**2.
        Every column is stochastic by construction and converges to `limit`
        in every coordinate.
        """
        if not 0 <= mix_digit < limit.s:
            raise ValueError(f"mix digit {mix_digit} out of range for {limit.s} entries")
        if rate == "harmonic":
            inverse_eps = lambda n: n + 1
        elif rate == "quadratic":
            inverse_eps = lambda n: (n + 1) ** 2
        else:
            raise ValueError(f"unknown rate {rate!r}; use 'harmonic' or 'quadratic'")
        # With limit = (a_i / D) and eps_n = 1/E, column n is
        # (a_i * (E - 1) + D * [i == mix]) / (D * E): integer numerators over
        # one denominator, checked in integers.
        scaled, den = limit.numerators, limit.denominator

        def rule(n: int) -> ProbabilityVector:
            e = inverse_eps(n)
            nums = [a * (e - 1) for a in scaled]
            nums[mix_digit] += den
            return ProbabilityVector.from_numerators(nums, den * e)

        return cls(rule=rule)

    @classmethod
    def explicit(
        cls,
        columns: Sequence[ProbabilityVector],
        tail: ProbabilityVector,
        mean: Fraction | None = None,
    ) -> "ColumnSchedule":
        """Finitely many explicit columns, then a constant tail column. Every
        column must have as many entries as the tail."""
        head = tuple(columns)
        for n, col in enumerate(head, start=1):
            if col.s != tail.s:
                raise ValueError(f"column {n} has {col.s} entries, the tail has {tail.s}")

        def rule(n: int) -> ProbabilityVector:
            return head[n - 1] if n <= len(head) else tail

        return cls(rule=rule, mean=Fraction(mean) if mean is not None else None)


def _block_counts(col: ProbabilityVector, sk: Fraction) -> list[int]:
    """floor(tau_i * s_k) for each entry of the column, in integers."""
    a, b = sk.numerator, col.denominator * sk.denominator
    return [n * a // b for n in col.numerators]


def _base_column(columns: ColumnSchedule, n: int, base: Base) -> ProbabilityVector:
    """Column n of the rule, refused unless it has one entry per digit."""
    col = columns.column(n)
    if col.s != base.s:
        raise ValueError(f"column {n} has {col.s} entries, base is {base.s}")
    return col


def block_stream(columns: ColumnSchedule, spec: ScheduleSpec, base: Base = BASE4) -> DigitStream:
    """Digits laid out block by block: block k holds floor(tau_ik * s_k)
    copies of digit i, in increasing digit order.

    The schedule must pass `validate_schedule`. Early blocks may be empty;
    block k has length between s_k - s and s_k (floor loss under 1 per
    digit), so the stream is unbounded for every accepted schedule. Every
    column must have one entry per digit: column 1 is checked here, and
    each later column when the stream reaches it.
    """
    validation = validate_schedule(spec)
    if not validation.accepted:
        raise ScheduleRejectedError(validation)
    _base_column(columns, 1, base)
    units = [to_chunk((i,), base) for i in range(base.s)]

    def make() -> Iterator[Chunk]:
        k = 1
        while True:
            for i, reps in enumerate(_block_counts(_base_column(columns, k, base), spec.term(k))):
                # A long run goes out in pieces, so a huge block is never held at once.
                while reps > 0:
                    piece = min(reps, CHUNK_DIGITS)
                    yield units[i] * piece
                    reps -= piece
            k += 1

    return DigitStream(base=base, make_chunks=make)


def block_boundaries(columns: ColumnSchedule, spec: ScheduleSpec, max_digits: int) -> list[int]:
    """Cumulative stream lengths at whole-block boundaries, up to max_digits."""
    out: list[int] = []
    total = 0
    k = 1
    while True:
        length = sum(_block_counts(columns.column(k), spec.term(k)))
        if total + length > max_digits:
            return out
        total += length
        out.append(total)
        k += 1


# Largest dimension deficit that `mean_target_stream` allows its vector:
# the entropy bound at theta less the vector's dimension.
MEAN_DEFICIT = 2.0**-25
# Doublings of the denominator D that `mean_target_stream` may make before
# it refuses theta.
_MAX_DOUBLINGS = 64


def _integer_window(weights: Sequence[float]) -> tuple[list[int], int, int]:
    """(w, sum w_i, sum i*w_i): the float `weights`, not all 0, as integers
    w_i over one power of two. `_mean_vector` reads them once per theta
    and gives them to `_mean_numerators` for every D it tries."""
    # A nonzero float is m * 2**e with 2**53 * m an integer, and e is least
    # at the least weight, so the weights are the integers w_i over 2**k.
    k = 53 - math.frexp(min(filter(None, weights)))[1]
    ws = [p << (k + 1 - q.bit_length()) for p, q in map(float.as_integer_ratio, weights)]
    return ws, sum(ws), sum(map(mul, range(len(ws)), ws))


def _mean_numerators(window: tuple[list[int], int, int], first: int, th: Fraction, d: int) -> list[int]:
    """Integers n_i >= 0 for the digits i = first, first+1, ..., with sum d
    and sum i*n_i = th*d exactly, each within one unit of tau_i*d for the
    vector tau below. `window` is `_integer_window` of the weights, d is a
    multiple of th's denominator, and first <= th < the last digit. The
    rule cannot fail; it takes O(len(weights)) int operations.

    1. tau is the weights moved to mean th. As the integers w_i of
       `window`, they have the exact mean mu. The pivot c is the first
       digit if mu > th and the last one otherwise, and tau mixes w/sum(w)
       with the point mass at c: tau = (1-t) w/sum(w) + t e_c, with t =
       (mu-th)/(mu-c) in [0, 1]. In the pivot's frame j = |i - c|, tau_j =
       |th-c| w_j / sum_k k w_k for j >= 1, and tau_0 takes the rest.
    2. n_j starts as floor(tau_j*d). The R = d - sum n_j entries that round
       up must have frame indices summing to M = |th-c|*d - sum j n_j.
       Since tau sums to 1 and has mean th exactly, R and M are the sums of
       the fractional parts of the tau_j*d and of j times them. So R is
       below the number of digits, and M lies between the index sums of the
       R lowest and of the R highest frame indices.
    3. The R round-ups are a run of R+1 consecutive frame indices with one
       left out, placed so that their sum is M. The fractional parts are
       not consulted.
    """
    ws, total, moment = window
    n = len(ws)
    # |th - c| * d and sum_j j*w_j in the pivot's frame; first the lower pivot.
    gap = th.numerator * (d // th.denominator) - first * d
    upper = moment * d <= gap * total
    if upper:
        ws = ws[::-1]
        gap, moment = (n - 1) * d - gap, (n - 1) * total - moment
    nums = [gap * w // moment for w in ws]
    # floor(tau_0*d) = d - ceil(gap * (sum of w_j, j >= 1) / moment).
    nums[0] = d + -gap * (total - ws[0]) // moment
    up = d - sum(nums)
    if up:
        target = gap - sum(map(mul, range(n), nums))
        start = min((target - up * (up - 1) // 2) // up, n - 1 - up)
        skip = (up + 1) * (2 * start + up) // 2 - target
        for j in range(start, start + up + 1):
            nums[j] += j != skip
    return nums[::-1] if upper else nums


def _mean_vector(th: Fraction, base: Base) -> tuple[ProbabilityVector, float]:
    """The vector behind `mean_target_stream` at an interior theta, and its
    dimension deficit (see there). `_mean_numerators` gives a vector of
    mean theta at every D it is given, so D grows only for the deficit."""
    from .entropy import neg_entropy_minimum

    s = base.s
    # A theta within half an ulp of an end is that end as a float; the
    # nearest float inside (0, s-1) stands for it.
    optimum = neg_entropy_minimum(min(max(float(th), math.ulp(0.0)), math.nextafter(s - 1.0, 0.0)), base)
    # The argmin is 0.0 outside one window of digits (where its weights
    # underflow); only the window, widened to hold floor(th) and the digit
    # after it, is rounded.
    weights = optimum.argmin
    a = min(th.numerator // th.denominator, s - 2)
    first = min(a, next(i for i, t in enumerate(weights) if t))
    last = max(a + 2, s - next(i for i, t in enumerate(reversed(weights)) if t))
    window = _integer_window(weights[first:last])
    den = th.denominator
    d = d0 = den * max(1, CHUNK_DIGITS // den)
    doublings = 0
    while doublings <= _MAX_DOUBLINGS:
        nums = _mean_numerators(window, first, th, d)
        entropy = -math.fsum(x * math.log(x) for x in (n / d for n in nums) if x)
        deficit = optimum.dimension_bound - entropy / math.log(s)
        if deficit <= MEAN_DEFICIT:
            vector = ProbabilityVector.from_numerators([0] * first + nums + [0] * (s - last), d)
            return vector, deficit
        # The deficit falls about as 1/D**2.
        grow = max(1, math.ceil(math.log2(deficit / MEAN_DEFICIT) / 2))
        d <<= grow
        doublings += grow
    raise ValueError(f"no vector over D = {d0} * 2**k, k <= {_MAX_DOUBLINGS}, has mean exactly {th} in base {s}")


def mean_target_stream(theta: Fraction | int | float | str, base: Base = BASE4) -> DigitStream:
    """A stream whose asymptotic digit mean is exactly theta.

    theta = 0 and theta = s-1 are degenerate: every digit frequency is then
    forced, so the streams are the all-zeros and all-maximal-digit
    constants. Interior theta runs the greedy construction on a vector
    tau = (n_i / D) of mean exactly theta, near the entropy-optimal vector
    that `neg_entropy_minimum` finds, so the limit frequencies all exist
    and the stream witnesses the dimension bound of the mean level set up
    to the dimension deficit: that bound less the dimension of tau.

    D is a multiple of theta's denominator. The first D tried is the
    largest such multiple up to CHUNK_DIGITS = 2**16, or the denominator
    itself if it is larger. `_mean_numerators` moves the optimum to mean
    theta exactly, by mixing it with the point mass at one end of its
    support, takes floors over D, and rounds up one run of entries. So at
    every D the sum is 1 and the mean theta exactly, and every n_i lies
    within one unit of D times the moved optimum. D grows by 2**k only
    while the deficit d is over MEAN_DEFICIT = 2**-25 (about 3.0e-8), with
    k the least positive integer such that 4**k >= d / MEAN_DEFICIT, since
    d falls about as 1/D**2. Once D has doubled more than 64 times in all,
    theta is refused with a ValueError. The deficit is computed in floats
    against the solver's bound, so it can be a little below 0, where the
    solver's argmin misses theta by up to 1e-10.

    A D of at most 2**16 makes the greedy stream a tiled period of at
    most D digits, built without numpy. In base 4 that holds for every
    theta in [1/4, 11/4] with denominator up to 1000; their deficits stay
    below 2.0e-8. A larger D runs the array kernel. It is needed near
    theta = 0 and theta = s-1, in large bases, and for a denominator over
    2**16. Setting up costs O(s) integer operations per D tried, and takes
    no lcm.
    """
    s = base.s
    th = Fraction(theta)
    if not 0 <= th <= s - 1:
        raise ValueError(f"theta must lie in [0, {s - 1}], got {theta}")
    if th == 0:
        return constant_stream(0, base)
    if th == s - 1:
        return constant_stream(s - 1, base)
    return greedy_stream(_mean_vector(th, base)[0], base)


class DistinguishResult(NamedTuple):
    """Outcome of a finite-prefix comparison of two streams."""

    differs: bool
    index: int | None  # first differing position, 1-based
    horizon: int


def prefix_distinguish(a: DigitStream, b: DigitStream, horizon: int) -> DistinguishResult:
    """First position where the streams differ, scanned up to `horizon`.

    "Undetermined" is evidence of agreement on the prefix only; equality of
    streams is never claimed. Symmetric in the two streams, and a "differs"
    verdict is stable under enlarging the horizon. A stream that ends before
    the horizon, with no difference found by then, is a ValueError: its
    missing digits are neither agreement nor difference.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    # Each stream is followed by one None, which marks where it ended.
    pairs = zip(
        itertools.islice(itertools.chain(a.iter_digits(), (None,)), horizon),
        itertools.islice(itertools.chain(b.iter_digits(), (None,)), horizon),
    )
    for k, (da, db) in enumerate(pairs, start=1):
        if da is None or db is None:
            raise ValueError(f"stream ended after {k - 1} digits, before horizon {horizon}")
        if da != db:
            return DistinguishResult(differs=True, index=k, horizon=horizon)
    return DistinguishResult(differs=False, index=None, horizon=horizon)


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------


_REQUIRED = object()


def _json_int(value) -> int:
    # bool is a subclass of int, but true is not a JSON integer.
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"not a JSON integer: {value!r}")
    return value


def _json_rational(value) -> Fraction:
    """A rational given as a JSON string or integer; a float or a boolean
    is a TypeError."""
    return Fraction(value if isinstance(value, str) else _json_int(value))


def _json_list(value, convert) -> list:
    """convert of each entry of a JSON list; anything else is a TypeError."""
    if not isinstance(value, list):
        raise TypeError(f"not a JSON list: {value!r}")
    return [convert(v) for v in value]


def _json_vector(value) -> ProbabilityVector:
    """A vector given as a comma string or a JSON list of rationals."""
    return ProbabilityVector.parse(value if isinstance(value, str) else _json_list(value, _json_rational))


def _only(obj: dict, owner: str, *keys: str) -> None:
    """Refuse a key of `obj` other than `keys`, the keys that `owner` reads."""
    for key in obj:
        if key not in keys:
            raise ValueError(f"{owner} does not read {key!r}")


def _field(obj: dict, key: str, owner: str, convert, default=_REQUIRED):
    """convert(obj[key]), or `default` when the key is absent. A missing
    required key, or a value of the wrong JSON type, is a ValueError that
    names the key and `owner`."""
    if key not in obj:
        if default is _REQUIRED:
            raise ValueError(f"{owner} needs the key {key!r}")
        return default
    try:
        return convert(obj[key])
    except TypeError:
        raise ValueError(f"{owner}: {key!r} has the wrong type, got {obj[key]!r}") from None


def schedule_from_config(obj: dict) -> ScheduleSpec:
    """Build a ScheduleSpec from its JSON form, e.g.
    {"family": "polynomial", "degree": 2}. A key that the family does not
    read is refused."""
    if not isinstance(obj, dict) or "family" not in obj:
        raise ValueError(f"schedule config must be an object with a 'family' key, got {obj!r}")
    family = obj["family"]
    owner = f"schedule family {family!r}"
    if family == "polynomial":
        _only(obj, owner, "family", "degree")
        return ScheduleSpec.polynomial(_field(obj, "degree", owner, _json_int, 1))
    if family == "affine":
        _only(obj, owner, "family", "a", "b")
        a = _field(obj, "a", owner, _json_rational, Fraction(1))
        return ScheduleSpec.affine(a, _field(obj, "b", owner, _json_rational, Fraction(0)))
    if family == "geometric":
        _only(obj, owner, "family", "ratio")
        return ScheduleSpec.geometric(_field(obj, "ratio", owner, _json_rational))
    raise ValueError(f"unknown schedule family {family!r}")


def columns_from_config(obj: dict) -> ColumnSchedule:
    """Build a ColumnSchedule from its JSON form.

    Kinds: {"kind": "constant", "tau": [...], "theta"?: "p/q"},
    {"kind": "converging", "limit": [...], "mix_digit": j, "rate"?: ...},
    {"kind": "explicit", "columns": [[...], ...], "tail": [...],
     "theta"?: "p/q"}. Vector entries and theta are rational strings or
    integers. A key that the kind does not read is refused.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"columns config must be an object with a 'kind' key, got {obj!r}")
    kind = obj["kind"]
    owner = f"columns kind {kind!r}"
    if kind == "constant":
        _only(obj, owner, "kind", "tau", "theta")
        tau = _field(obj, "tau", owner, _json_vector)
        return ColumnSchedule.constant(tau, _field(obj, "theta", owner, _json_rational, None))
    if kind == "converging":
        _only(obj, owner, "kind", "limit", "mix_digit", "rate")
        limit = _field(obj, "limit", owner, _json_vector)
        mix = _field(obj, "mix_digit", owner, _json_int)
        return ColumnSchedule.converging(limit, mix, obj.get("rate", "harmonic"))
    if kind == "explicit":
        _only(obj, owner, "kind", "columns", "tail", "theta")
        cols = _field(obj, "columns", owner, lambda vs: _json_list(vs, _json_vector))
        tail = _field(obj, "tail", owner, _json_vector)
        return ColumnSchedule.explicit(cols, tail, _field(obj, "theta", owner, _json_rational, None))
    raise ValueError(f"unknown columns kind {kind!r}")
