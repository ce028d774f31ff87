"""Statistical planning of quantum-state transmissions.

Given the signal weight on the code projector, the detector efficiency
factor, the measuring accuracy and a confidence target, this module answers
two questions: how many states the confirmation detector needs to see the
transmission at all, and how many states the decoding detector needs so that
the registered count falls in the decoding interval with the target
confidence.  Counts are evaluated with exact binomial sums; the normal
approximation is deliberately avoided at these sample sizes.

Every plan comes from one window slid over the binomial terms from
b(0, 0) = 1 (``_sums``): O(1) steps per m, no table and no numpy, and a plan
equals its scan row bit for bit.  The confidences agree with exact binomial
sums of the same float p to about 1e-14 up to m = 5000, so
``detect_nonmonotonicity`` reports only drops above ``DESCENT_TOL`` = 1e-10.
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array

from . import _Frozen

# Smallest confidence drop reported as a descent; a smaller one, such as
# 1.0 -> 1 - 1e-16 on a set holding every count, is rounding.
DESCENT_TOL = 1e-10
# Largest m planned.  A plan or a confidence at m takes O(m) steps and a scan
# keeps 48 bytes a row: one to 10^5 takes about half a second, one to 10^9
# would take hours, so a larger m is refused before any work.
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

    The sum of b(m, i) = C(m, i) p^i (1-p)^(m-i) over the distinct counts (ints
    in [0, m]) for an int m in 0..MAX_M: the term nearest the mode from a
    one-count window of ``_sums``, the others from it by the ratio of neighbours.
    """
    m = _checked_m(m, least=0)
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    wanted = {operator.index(i) for i in counts}
    first, last = min(wanted, default=0), max(wanted, default=0)
    if not 0 <= first <= last <= m:
        raise ValueError(f"count {first if first < 0 else last} outside [0, {m}]")
    if p in (0.0, 1.0) or not wanted:  # a point mass at count m p, or no count
        return float(m * p in wanted)
    k, term = min(max(math.floor((m + 1) * p), first), last), 1.0
    for _, _, term in _sums(p, ((k * n // m,) * 2 for n in range(1, m + 1))):
        pass
    r, terms = p / (1.0 - p), {k: term}
    for i in range(k, last):
        terms[i + 1] = terms[i] * r * (m - i) / (i + 1)
    for i in range(k, first, -1):
        terms[i - 1] = terms[i] / r * i / (m - i + 1)
    return min(math.fsum(terms[i] for i in wanted), 1.0)


def _sums(p: float, windows):
    """Slide one window of counts lo..hi over the terms b(m, i), q = 1 - p.

    ``windows`` gives (..., lo, hi) for m = 1, 2, ..., with lo, hi in 0..m,
    hi >= lo - 1 and hi never falling; each comes back with the sum S over
    lo..hi and the end term b(m, hi).  From b(0, 0) = 1, S <- S - p b(m-1, hi)
    + q b(m-1, lo) lo / (m - lo) (Pascal's rule); an end keeps its count k by
    b(m, k) = q b(m-1, k) m / (m - k) or moves up one by p b(m-1, k) m / (k+1),
    and further (by rounding in the bounds only) by (p/q) (m-k) / (k+1) a count.
    Below p = 1/2, q v is v - p v, as a rounded 1 - p would bias S by m ulps.
    """
    q, c = (1.0 - p, 0.0) if p >= 0.5 else (1.0, p)  # q v = v q - v c
    lo, hi, w, x, s = 0, 0, 1.0, 1.0, 1.0
    for m, window in enumerate(windows, 1):
        new_lo, new_hi = window[-2:]
        qw = w * q - w * c
        s = s - p * x + qw * lo / (m - lo) if hi >= lo else 0.0
        if new_hi > hi:
            hi, x = hi + 1, x * p * m / (hi + 1)
            s += x
        else:
            x = (x * q - x * c) * m / (m - hi)
        if new_lo > lo:
            s -= qw * m / (m - lo)
            lo, w = lo + 1, w * p * m / (lo + 1)
        else:
            w = qw * m / (m - lo)
        while hi < new_hi:
            hi, x = hi + 1, x * p / (1.0 - p) * (m - hi) / (hi + 1)
            s += x
        while lo < new_lo:
            s -= w
            lo, w = lo + 1, w * p / (1.0 - p) * (m - lo) / (lo + 1)
        while lo > new_lo:
            lo, w = lo - 1, w * (1.0 - p) / p * lo / (m - lo + 1)
            s += w
        yield window, (s if hi >= lo else 0.0), x


def _checked_m(m, least: int = 1) -> int:
    """`m` as an int in least..MAX_M; TypeError unless it is an integer."""
    m = operator.index(m)
    if m < least:
        raise ValueError(f"m must be at least {least}")
    if m > MAX_M:
        raise ValueError(f"m = {m} exceeds the limit of {MAX_M} (MAX_M)")
    return m


def _plans(scenario: TransmissionScenario, m_stop: int):
    """Rows (m, i_minus, i_plus, lo, hi, confidence) for m = 1..m_stop; no counts if hi < lo."""
    p, margin = scenario.success_probability, scenario.margin
    ends = ((m, m * p - margin * m, m * p + margin * m) for m in range(1, m_stop + 1))
    windows = ((m, i_minus, i_plus, max(0, math.ceil(i_minus - 1e-9)),
                min(m, math.floor(i_plus + 1e-9))) for m, i_minus, i_plus in ends)
    return ((*window, min(s, 1.0)) for window, s, _ in _sums(p, windows))


def plan_for_m(m: int, scenario: TransmissionScenario) -> PlanResult:
    """Interval, advantageous set and confidence for a fixed m: the scan's row at m."""
    for m, i_minus, i_plus, lo, hi, conf in _plans(scenario, _checked_m(m)):
        pass
    return PlanResult(m, i_minus, i_plus, range(lo, hi + 1), conf)


def scan_rows(scenario: TransmissionScenario, m_max: int):
    """Plans for every m from minimal_m to m_max, as six ``array('d')`` columns.

    The columns are m, i_minus, i_plus, lo, hi and the confidence.  Returns
    (columns, first), `first` the row of the first m reaching the target or None.
    """
    m_lo = minimal_m(scenario)
    if m_max < m_lo:
        raise ValueError(f"m_max = {m_max} below minimal m = {m_lo}")
    rows = itertools.islice(_plans(scenario, _checked_m(m_max)), m_lo - 1, None)
    flat = array("d", itertools.chain.from_iterable(rows))
    columns = tuple(flat[j::6] for j in range(6))
    return columns, next((r for r in zip(*columns) if r[5] >= scenario.confidence_target), None)


def scan_plan(scenario: TransmissionScenario, m_max: int):
    """Plans for every m from minimal_m to m_max, and the first m reaching the target or None."""
    columns, first = scan_rows(scenario, m_max)
    return ([PlanResult(int(m), i_minus, i_plus, range(int(lo), int(hi) + 1), conf)
             for m, i_minus, i_plus, lo, hi, conf in zip(*columns)],
            None if first is None else int(first[0]))


def detect_nonmonotonicity(scenario: TransmissionScenario, m_range) -> list:
    """Values of m in the range where the confidence drops at m + 1.

    A larger m can move the advantageous set unfavourably.  Returns every m
    (but the range's last) whose successor in the range is lower by more than
    ``DESCENT_TOL``; each m is checked as it is read, so a range past ``MAX_M``
    is refused at its first m above the limit.
    """
    wanted = {_checked_m(m) for m in m_range}
    conf = [row[5] for row in _plans(scenario, max(wanted, default=0)) if row[0] in wanted]
    return [m for m, c0, c1 in zip(sorted(wanted), conf, conf[1:]) if c0 - c1 > DESCENT_TOL]


def transmission_speed(bits: int, seconds: float) -> float:
    """Transmission speed in bits per unit time."""
    if seconds <= 0:
        raise ValueError("duration must be positive")
    return bits / seconds


def intelligibility(input_bits, output_bits) -> float:
    """Fraction of bits that differ between sent and decoded messages."""
    input_bits, output_bits = list(input_bits), list(output_bits)
    if len(input_bits) != len(output_bits):
        raise ValueError("bit sequences must have equal length")
    if not input_bits:
        raise ValueError("bit sequences must be non-empty")
    return sum(a != b for a, b in zip(input_bits, output_bits)) / len(input_bits)
