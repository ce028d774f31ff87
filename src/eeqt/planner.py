"""Statistical planning of quantum-state transmissions.

Given the signal weight on the code projector, the detector efficiency
factor, the measuring accuracy and a confidence target, this module answers
two questions: how many states the confirmation detector needs to see the
transmission at all, and how many states the decoding detector needs so that
the registered count falls in the decoding interval with the target
confidence.  Counts are evaluated with exact binomial sums; the normal
approximation is deliberately avoided at these sample sizes.

One kernel makes every plan: for an array of m, one vectorized pass forms the
interval ends, the advantageous bounds lo..hi and the confidences.  Each term
is log C(m, i) + i log p + (m-i) log(1-p) over a shared table of log k!, with
p = 0 and p = 1 apart.  Sums run in padded blocks of about len(ms) terms and
equal a single plan's up to rounding, and exact rational sums to about 1e-12,
so ``detect_nonmonotonicity`` reports only drops above ``DESCENT_TOL`` = 1e-10.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from . import _Frozen

# Smallest confidence drop reported as a descent; a smaller one, such as
# 1.0 -> 1 - 1e-16 on a set holding every count, is rounding.
DESCENT_TOL = 1e-10
# Largest m planned.  A scan to m sums about margin * m^2 binomial terms and
# builds a log-factorial table of the next power of two above m; one to 10^5
# at margin 0.03 takes seconds and about 85 MB, and one to 10^9 would
# exhaust memory, so a larger m is refused before anything is allocated.
MAX_M = 10 ** 5


class TransmissionScenario(_Frozen):
    """Decoding scenario for the receiving detector.

    ``margin`` is the half-width applied to expected counts per state; it
    defaults to ``eta_det * accuracy`` but is an explicit field because the
    reference worked examples are only jointly reproducible when it can be
    held fixed while the efficiency changes.
    """

    __slots__ = ("rho1", "eta_det", "accuracy", "confidence_target", "margin")

    def __init__(self, rho1: float, eta_det: float, accuracy: float,
                 confidence_target: float, margin: float | None = None):
        if not 0 <= rho1 <= 1:
            raise ValueError("rho1 must lie in [0, 1]")
        if not 0 <= eta_det <= 1:
            raise ValueError("eta_det must lie in [0, 1]")
        if not 0 < accuracy < math.inf:
            raise ValueError(f"accuracy must be positive and finite, not {accuracy}")
        if rho1 - accuracy < -1e-12 or rho1 + accuracy > 1 + 1e-12:
            raise ValueError("decoding interval (rho1 - a, rho1 + a) leaves [0, 1]")
        if not 0 < confidence_target < 1:
            raise ValueError("confidence_target must lie in (0, 1)")
        if margin is None:
            margin = eta_det * accuracy
        if not 0 < margin < math.inf:
            raise ValueError(f"margin must be positive and finite, not {margin}")
        if 1.0 / (2.0 * margin) == math.inf:
            raise ValueError(f"margin {margin:g} is too small for a finite minimal m")
        if margin > accuracy + 1e-12:
            raise ValueError("margin must not exceed accuracy")
        self._set(rho1=rho1, eta_det=eta_det, accuracy=accuracy,
                  confidence_target=confidence_target, margin=margin)

    @property
    def success_probability(self) -> float:
        """Per-state registration probability eta_det * rho1."""
        return self.eta_det * self.rho1

    def with_margin(self, margin: float) -> "TransmissionScenario":
        return TransmissionScenario(self.rho1, self.eta_det, self.accuracy,
                                    self.confidence_target, margin)


class PlanResult(_Frozen):
    """Outcome of the plan for a fixed number of generated states m."""

    __slots__ = ("m", "i_minus", "i_plus", "advantageous", "confidence")

    def __init__(self, m: int, i_minus: float, i_plus: float, advantageous: range,
                 confidence: float):
        self._set(m=m, i_minus=i_minus, i_plus=i_plus, advantageous=advantageous,
                  confidence=confidence)


def di_confirmation_count(p_reg: float, confidence_target: float) -> int:
    """Smallest n with (1 - p_reg)^n <= 1 - confidence_target.

    ``p_reg`` is the per-state registration probability of the confirmation
    detector; n states guarantee at least one registration at the target
    confidence.
    """
    if not 0 < p_reg < 1:
        raise ValueError("p_reg must lie strictly between 0 and 1")
    if not 0 < confidence_target < 1:
        raise ValueError("confidence_target must lie in (0, 1)")
    miss = 1.0 - p_reg
    allowed = 1.0 - confidence_target
    n = max(1, math.ceil(math.log(allowed) / math.log(miss)))
    # guard against log rounding at exact thresholds
    while miss ** n > allowed:
        n += 1
    while n > 1 and miss ** (n - 1) <= allowed:
        n -= 1
    return n


def minimal_m(scenario: TransmissionScenario) -> int:
    """Smallest m whose expected-count interval is at least one unit wide."""
    return max(1, math.ceil(1.0 / (2.0 * scenario.margin) - 1e-12))


def confidence(m: int, p: float, counts) -> float:
    """Binomial probability of registering a count inside ``counts``.

    Sum over i of C(m, i) p^i (1-p)^(m-i), one ``_terms`` expression over
    all counts.  ``counts`` is any iterable of ints in [0, m].
    """
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    i = np.fromiter(counts, dtype=np.int64)
    outside = (i < 0) | (i > m)
    if outside.any():
        raise ValueError(f"count {i[outside][0]} outside [0, {m}]")
    return min(float(_terms(m, i, p).sum()), 1.0)


def _terms(m, i, p: float) -> np.ndarray:
    """Terms C(m, i) p^i (1-p)^(m-i), elementwise over integer arrays m and i."""
    if p in (0.0, 1.0):  # log 0 is not finite: the whole mass sits on count m * p
        return (i == m * p).astype(float)
    lf = _log_factorials(1 << int(np.max(m)).bit_length())
    return np.exp(lf[m] - lf[i] - lf[m - i] + i * math.log(p) + (m - i) * math.log1p(-p))


@functools.cache
def _log_factorials(size: int) -> np.ndarray:
    """Read-only table of log k! for k < size; sizes are powers of two."""
    table = np.array([math.lgamma(k + 1) for k in range(size)])
    table.flags.writeable = False
    return table


def _checked_m(m) -> int:
    """`m` as an int in 1..MAX_M; TypeError unless it is an integer."""
    m = operator.index(m)
    if m < 1:
        raise ValueError("m must be at least 1")
    if m > MAX_M:
        raise ValueError(f"m = {m} exceeds the limit of {MAX_M} (MAX_M)")
    return m


def _plans(ms: np.ndarray, scenario: TransmissionScenario) -> np.ndarray:
    """Plans for the int64 array ``ms`` (each in 1..MAX_M) in one vectorized pass.

    Returns one float row per m: m, i_minus, i_plus, the advantageous bounds
    lo and hi (hi = lo - 1 when the set is empty) and the confidence.
    Confidences are summed in blocks of len(ms) // widest rows, each padded to
    its widest set, so a block holds about len(ms) terms (one set if wider):
    memory follows the output and the block size needs no constant.
    """
    p = scenario.success_probability
    center, half = ms * p, scenario.margin * ms
    lo = np.maximum(0, np.ceil(center - half - 1e-9)).astype(np.int64)
    hi = np.minimum(ms, np.floor(center + half + 1e-9)).astype(np.int64)
    rows = max(1, ms.size // max(1, (hi - lo + 1).max(initial=0)))
    conf = np.empty(ms.size)
    for b in range(0, ms.size, rows):
        m, low, top = ms[b:b + rows, None], lo[b:b + rows, None], hi[b:b + rows, None]
        i = low + np.arange((top - low).max() + 1)
        conf[b:b + rows] = np.where(i <= top, _terms(m, np.minimum(i, top), p), 0.0).sum(axis=1)
    return np.column_stack((ms, center - half, center + half, lo, hi, np.minimum(conf, 1.0)))


def _results(plans: np.ndarray) -> list:
    """PlanResults of the rows of ``_plans``; the sets are range(lo, hi + 1)."""
    m, lo, end = (plans[:, [0, 3, 4]].astype(np.int64) + [0, 0, 1]).T.tolist()
    i_minus, i_plus, conf = plans[:, [1, 2, 5]].T.tolist()
    return list(map(PlanResult, m, i_minus, i_plus, map(range, lo, end), conf))


def plan_for_m(m: int, scenario: TransmissionScenario) -> PlanResult:
    """Interval, advantageous set and confidence for a fixed m."""
    return _results(_plans(np.array([_checked_m(m)]), scenario))[0]


def scan_rows(scenario: TransmissionScenario, m_max: int):
    """Plans for every m from minimal_m to m_max, as rows of one float array.

    The columns are m, i_minus, i_plus, the advantageous bounds lo..hi and
    the confidence.  Returns (rows, first): `first` is the row of the first
    m that reaches the confidence target, or None.
    """
    m_lo = minimal_m(scenario)
    if m_max < m_lo:
        raise ValueError(f"m_max = {m_max} below minimal m = {m_lo}")
    rows = _plans(np.arange(m_lo, _checked_m(m_max) + 1), scenario)
    passing = np.flatnonzero(rows[:, 5] >= scenario.confidence_target)
    return rows, (rows[passing[0]] if passing.size else None)


def scan_plan(scenario: TransmissionScenario, m_max: int):
    """Plans for every m from minimal_m to m_max.

    Returns (results, first_passing_m); the second element is None when no m
    in the range reaches the confidence target.
    """
    rows, first = scan_rows(scenario, m_max)
    return _results(rows), (None if first is None else int(first[0]))


def detect_nonmonotonicity(scenario: TransmissionScenario, m_range) -> list:
    """Values of m in the range where the confidence drops at m + 1.

    Adding states does not always help: a larger m can move the advantageous
    set unfavourably.  Returns every m (except the last of the range) whose
    successor's confidence is lower by more than ``DESCENT_TOL``.  Each m is
    checked as it is read, so a range past ``MAX_M`` is refused at its first
    m above the limit.
    """
    ms = np.array(sorted({_checked_m(m) for m in m_range}), dtype=np.int64)
    m, conf = _plans(ms, scenario)[:, [0, 5]].T
    return [int(x) for x in m[:-1][conf[:-1] - conf[1:] > DESCENT_TOL]]


def transmission_speed(bits: int, seconds: float) -> float:
    """Transmission speed in bits per unit time."""
    if seconds <= 0:
        raise ValueError("duration must be positive")
    return bits / seconds


def intelligibility(input_bits, output_bits) -> float:
    """Fraction of bits that differ between sent and decoded messages."""
    input_bits = list(input_bits)
    output_bits = list(output_bits)
    if len(input_bits) != len(output_bits):
        raise ValueError("bit sequences must have equal length")
    if not input_bits:
        raise ValueError("bit sequences must be non-empty")
    mismatches = sum(1 for a, b in zip(input_bits, output_bits) if a != b)
    return mismatches / len(input_bits)
