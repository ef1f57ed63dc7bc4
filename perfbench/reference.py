"""The benchmark's own reference implementations and output checks.

Nothing here imports adiclab: every digit, count and bound an adiclab
output is compared against is recomputed from the definitions, so a fast
path in the program that changes an output is caught even when the
program's own tests share its mistake.

Digit data travels as ASCII bytes (b"0".."9"), the format `construct`
writes, and as numpy uint8 arrays of digit values for counting.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

# Slack on |realized mean - theta| for mean-target streams: the entropy
# optimum is found by bisection to |mean - theta| <= 1e-10 and then
# rationalized, so the stream's exact limiting mean is only near theta.
MEAN_TARGET_SLACK = 1e-10


# ---------------------------------------------------------------------------
# number theory for drawing rationals with a known period
# ---------------------------------------------------------------------------


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def multiplicative_order(s: int, q: int) -> int:
    """Order of s modulo the prime q: the period length of 1/q in base s."""
    order = q - 1
    for f in _prime_factors(q - 1):
        while order % f == 0 and pow(s, order // f, q) == 1:
            order //= f
    return order


def prime_with_period(rng, s: int, lo: int, hi: int, accept: Callable[[int, int], bool]) -> int:
    """A prime q in [lo, hi], coprime to s, for which accept(q, period of
    1/q in base s) holds. Scans upward from a seeded start, wrapping."""
    width = hi - lo + 1
    start = rng.randrange(width)
    for k in range(width):
        q = lo + (start + k) % width
        if math.gcd(q, s) == 1 and is_prime(q) and accept(q, multiplicative_order(s, q)):
            return q
    raise ValueError(f"no prime in [{lo}, {hi}] with an accepted base-{s} period")


def coprime_numerator(rng, q: int) -> int:
    while True:
        p = rng.randrange(1, q)
        if math.gcd(p, q) == 1:
            return p


# ---------------------------------------------------------------------------
# reference digit sequences
# ---------------------------------------------------------------------------


def ascii_digits(values: np.ndarray) -> bytes:
    return (values.astype(np.uint8) + 48).tobytes()


def greedy_reference(tau: Sequence[Fraction], n: int) -> bytes:
    """First n digits of the greedy construction for tau, as ASCII.

    Step k (k >= 1) emits, in increasing digit order, each i with
    floor(tau_i*(k+1)) > floor(tau_i*k). That depends on k only modulo the
    denominator of tau_i, so the steps repeat with period L = lcm of the
    denominators, and one period of steps emits exactly L digits. The
    prefix after step m-1 then holds floor(tau_i*m) copies of digit i
    (every tau_i < 1), which is the exact-count invariant at boundaries.
    """
    s = len(tau)
    period = math.lcm(*(t.denominator for t in tau))
    k = np.arange(1, period + 1, dtype=np.int64)
    steps = np.stack(
        [(t.numerator * (k + 1)) // t.denominator - (t.numerator * k) // t.denominator for t in tau],
        axis=1,
    )
    digits = np.nonzero(steps.ravel())[0] % s
    if len(digits) != period:
        raise AssertionError(f"one period of steps emitted {len(digits)} digits, expected {period}")
    reps = -(-n // period)
    return ascii_digits(np.tile(digits, reps)[:n])


def block_columns(columns: dict, k: int) -> list[Fraction]:
    """Column k of a block config, from the config's documented semantics."""
    kind = columns["kind"]
    if kind == "constant":
        return [Fraction(t) for t in columns["tau"]]
    if kind == "converging":
        eps = Fraction(1, k + 1) if columns.get("rate", "harmonic") == "harmonic" else Fraction(1, (k + 1) ** 2)
        col = [Fraction(t) * (1 - eps) for t in columns["limit"]]
        col[columns["mix_digit"]] += eps
        return col
    raise ValueError(f"reference has no rule for column kind {kind!r}")


def block_reference(config: dict, n: int) -> bytes:
    """First n digits of the block construction: block k holds
    floor(tau_ik * k**degree) copies of digit i, in increasing digit order."""
    degree = config["schedule"]["degree"]
    parts: list[bytes] = []
    total, k = 0, 1
    while total < n:
        sk = k**degree
        for i, t in enumerate(block_columns(config["columns"], k)):
            reps = (t.numerator * sk) // t.denominator
            if reps:
                parts.append(bytes([48 + i]) * reps)
                total += reps
        k += 1
    return b"".join(parts)[:n]


def rational_reference(p: int, q: int, s: int, n: int) -> bytes:
    """First n base-s digits of p/q (0 <= p < q) by long division."""
    out = bytearray(n)
    rem = p
    for j in range(n):
        d, rem = divmod(rem * s, q)
        out[j] = 48 + d
    return bytes(out)


def period_counts(p: int, q: int, s: int) -> tuple[list[int], int]:
    """Digit counts over one period of p/q, q coprime to s (purely periodic)."""
    counts = [0] * s
    rem, length = p, 0
    while True:
        d, rem = divmod(rem * s, q)
        counts[d] += 1
        length += 1
        if rem == p:
            return counts, length


def value_of_digits(text: bytes, s: int) -> int:
    """The integer whose base-s numeral is `text`, without CPython's
    length limit on string conversion (restored afterwards)."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return int(text, s)
    finally:
        sys.set_int_max_str_digits(old)


# ---------------------------------------------------------------------------
# output checks; each returns None on success or a one-line reason
# ---------------------------------------------------------------------------


def read_digit_artifact(path: Path) -> bytes:
    """Digits of a `construct --out` file: one '#' provenance line, then the
    digits and a newline."""
    data = path.read_bytes()
    if not data.startswith(b"# adiclab "):
        raise ValueError("artifact lacks the '# adiclab' provenance line")
    header_end = data.index(b"\n")
    body = data[header_end + 1 :]
    if not body.endswith(b"\n"):
        raise ValueError("artifact does not end with a newline")
    return body[:-1]


def check_artifact(path: Path, expected: bytes) -> str | None:
    try:
        body = read_digit_artifact(path)
    except (OSError, ValueError) as exc:
        return f"{path.name}: {exc}"
    if body == expected:
        return None
    if len(body) != len(expected):
        return f"{path.name}: {len(body)} digits, expected {len(expected)}"
    first = next(i for i, (a, b) in enumerate(zip(body, expected)) if a != b)
    return f"{path.name}: digit {first + 1} is {chr(body[first])}, expected {chr(expected[first])}"


def digit_values(body: bytes, s: int) -> np.ndarray:
    d = np.frombuffer(body, dtype=np.uint8).astype(np.int64) - 48
    if len(d) and (d.min() < 0 or d.max() >= s):
        raise ValueError(f"digit outside 0..{s - 1}")
    return d


def check_mean_target(path: Path, theta: Fraction, s: int, n: int) -> str | None:
    """Invariant check for a greedy stream on a vector with mean theta':
    |r_m - theta'| <= s(s-1)/(m-s) for every prefix length m > s, and
    |theta' - theta| is within the rationalization slack. Byte equality is
    deliberately not required, so the program may change the vector."""
    try:
        d = digit_values(read_digit_artifact(path), s)
    except (OSError, ValueError) as exc:
        return f"{path.name}: {exc}"
    if len(d) != n:
        return f"{path.name}: {len(d)} digits, expected {n}"
    m = np.arange(1, n + 1, dtype=np.float64)
    gap = np.abs(np.cumsum(d) / m - float(theta))[s:]
    bound = s * (s - 1) / (m[s:] - s) + MEAN_TARGET_SLACK
    bad = np.nonzero(gap > bound)[0]
    if len(bad):
        j = int(bad[0]) + s
        return f"{path.name}: |r_m - theta| = {gap[j - s]:.3g} exceeds {bound[j - s]:.3g} at m = {j + 1}"
    return None


def counts_at(digits: np.ndarray, checkpoints: Sequence[int], s: int) -> list[list[int]]:
    return [np.bincount(digits[:c], minlength=s).tolist() for c in checkpoints]


def check_analyze(path: Path, digits: np.ndarray, checkpoints: Sequence[int], s: int) -> str | None:
    """`analyze --format json` must report, at each checkpoint, exactly the
    digit counts of the analyzed prefix."""
    try:
        doc = json.loads(path.read_text())
        reported = [(r["n"], r["counts"]) for r in doc["reports"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"{path.name}: unreadable analyze report ({exc})"
    if doc.get("checkpoints") != list(checkpoints):
        return f"{path.name}: checkpoints {doc.get('checkpoints')}, expected {list(checkpoints)}"
    expected = counts_at(digits, checkpoints, s)
    for (n, got), c, want in zip(reported, checkpoints, expected):
        if n != c or got != want:
            return f"{path.name}: counts at n={c} are {got}, expected {want}"
    return None


def file_checkpoints(length: int) -> list[int]:
    """Checkpoints `analyze --in` uses for a file of `length` digits."""
    return [10**k for k in range(1, 7) if 10**k < length] + [length]


def dimension_of(tau: Sequence[Fraction], s: int) -> float:
    return -sum(float(t) * math.log(float(t)) for t in tau if t) / math.log(s)


def check_dimension_tau(path: Path, tau: Sequence[Fraction], s: int) -> str | None:
    try:
        value = json.loads(path.read_text())["dimension"]
    except (OSError, ValueError, KeyError) as exc:
        return f"{path.name}: unreadable dimension report ({exc})"
    want = dimension_of(tau, s)
    if abs(value - want) > 1e-12:
        return f"{path.name}: dimension {value}, expected {want}"
    return None


def check_oracle(path: Path, s: int, max_gap: float) -> str | None:
    """`dimension --theta --oracle`: the bound is -m/ln s, and the grid
    minimum is never below the closed-form m and at most max_gap above it."""
    try:
        doc = json.loads(path.read_text())
        m, bound, grid = doc["m"], doc["dimension_bound"], doc["oracle"]["m"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"{path.name}: unreadable oracle report ({exc})"
    if abs(bound + m / math.log(s)) > 1e-12:
        return f"{path.name}: bound {bound} != -m/ln s = {-m / math.log(s)}"
    if not -1e-9 <= grid - m <= max_gap:
        return f"{path.name}: grid m - closed-form m = {grid - m:.3g}, outside [-1e-9, {max_gap}]"
    return None


def check_sweep(path: Path, s: int, count: int, theta: Fraction, oracle_path: Path) -> str | None:
    """Sweep CSV: every bound equals -m/ln s, and at theta the sweep's m
    matches the grid oracle's within 1e-4."""
    try:
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        rows = [tuple(float(c) for c in l.split(",")) for l in lines[1:]]
        oracle_m = json.loads(oracle_path.read_text())["oracle"]["m"]
    except (OSError, ValueError, KeyError) as exc:
        return f"{path.name}: unreadable sweep ({exc})"
    if lines[0] != "theta,m,dimension_bound" or len(rows) != count:
        return f"{path.name}: {len(rows)} rows, expected {count}"
    for th, m, bound in rows:
        if abs(bound + m / math.log(s)) > 1e-11 * max(1.0, abs(bound)):
            return f"{path.name}: at theta={th} bound {bound} != -m/ln s"
    at = [m for th, m, _ in rows if abs(th - float(theta)) < 1e-12]
    if len(at) != 1:
        return f"{path.name}: no row for theta={theta}"
    if abs(at[0] - oracle_m) > 1e-4:
        return f"{path.name}: m={at[0]} at theta={theta} is {abs(at[0] - oracle_m):.3g} from the oracle"
    return None


def check_verify(path: Path, modules: Sequence[str] | None) -> str | None:
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return f"{path.name}: unreadable verify report ({exc})"
    if doc.get("failed") != 0 or not doc.get("passed"):
        return f"{path.name}: passed={doc.get('passed')} failed={doc.get('failed')}"
    if modules is not None and doc.get("modules") != list(modules):
        return f"{path.name}: ran modules {doc.get('modules')}, expected {list(modules)}"
    return None
