import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from eeqt.planner import (
    DESCENT_TOL,
    MAX_M,
    TransmissionScenario,
    _sums,
    confidence,
    detect_nonmonotonicity,
    di_confirmation_count,
    intelligibility,
    minimal_m,
    plan_for_m,
    scan_plan,
    scan_rows,
    transmission_speed,
)

# the reference decoding scenario: signal weight 0.8, efficiency 0.9,
# accuracy 0.05, margin held at 0.045 for every worked value
SCENARIO = TransmissionScenario(rho1=0.8, eta_det=0.9, accuracy=0.05,
                                confidence_target=0.6, margin=0.045)
LOW_EFF = TransmissionScenario(rho1=0.8, eta_det=0.45, accuracy=0.05,
                               confidence_target=0.6, margin=0.045)


def brute_force_confidence(m, p, counts):
    """Exhaustive enumeration over all 2^m Bernoulli outcome strings."""
    target = set(counts)
    pw_hit = [p ** i for i in range(m + 1)]
    pw_miss = [(1.0 - p) ** i for i in range(m + 1)]
    total = 0.0
    for outcome in range(2 ** m):
        hits = outcome.bit_count()
        if hits in target:
            total += pw_hit[hits] * pw_miss[m - hits]
    return total


def exact_confidence(m, p, counts):
    """The binomial sum of the float p = a / d in integers, rounded once.

    C(m, i) a^i (d - a)^(m - i) is an integer, and successive terms differ by
    the factor (m - i) a / ((i + 1) (d - a)), so each is one exact division
    of the one before; the sum is divided by d^m at the end.
    """
    counts = sorted(set(counts))
    if not counts:
        return 0.0
    a, d = p.as_integer_ratio()
    lo = counts[0]
    term = math.comb(m, lo) * a ** lo * (d - a) ** (m - lo)
    total = 0
    wanted = set(counts)
    for i in range(lo, counts[-1] + 1):
        if i in wanted:
            total += term
        if i < m:
            term = term * (m - i) * a // ((i + 1) * (d - a)) if d > a else 0
    return min(total / d ** m, 1.0)


# The plan-scan margins (0.045 and 0.03), the three scan-equality scenarios
# and a scan at p = 5e-10, for the oracle checks.
ORACLE_SCENARIOS = {
    "margin-0.045": SCENARIO,
    "margin-0.03": TransmissionScenario(rho1=0.6, eta_det=0.7, accuracy=0.05,
                                        confidence_target=0.6, margin=0.03),
    "p=0": TransmissionScenario(rho1=0.5, eta_det=0.0, accuracy=0.1,
                                confidence_target=0.6, margin=0.05),
    "full-range": TransmissionScenario(rho1=0.5, eta_det=1.0, accuracy=0.5,
                                       confidence_target=0.6, margin=0.5),
    "narrow": TransmissionScenario(rho1=1.0 / math.pi, eta_det=1.0, accuracy=0.05,
                                   confidence_target=0.5, margin=0.004),
    "p=5e-10": TransmissionScenario(rho1=0.5, eta_det=1e-9, accuracy=0.05,
                                    confidence_target=0.6, margin=0.045),
}
# Bounds against the exact sums: m up to 300, and m in LARGE_M.
SMALL_M_TOL, LARGE_M_TOL, LARGE_M = 5e-14, 1e-13, (1000, 5000)


class TestConfirmationCount:
    def test_reference_value_four_states(self):
        assert di_confirmation_count(0.45, 0.9) == 4

    def test_single_state_suffices_at_equality(self):
        assert di_confirmation_count(0.9, 0.9) == 1

    def test_weaker_detector_needs_six(self):
        # 0.64^5 = 0.107 > 0.1 >= 0.64^6
        assert di_confirmation_count(0.36, 0.9) == 6

    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    def test_is_the_literal_argmin(self, p_reg, target):
        n = di_confirmation_count(p_reg, target)
        scan = next(k for k in range(1, 10_000)
                    if (1.0 - p_reg) ** k <= 1.0 - target)
        assert n == scan

    def test_degenerate_probabilities_rejected(self):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                di_confirmation_count(bad, 0.9)


class TestIntervals:
    def test_reference_interval_m12(self):
        plan = plan_for_m(12, SCENARIO)
        assert plan.i_minus == pytest.approx(8.1, abs=1e-9)
        assert plan.i_plus == pytest.approx(9.18, abs=1e-9)

    def test_interval_m62_covers_the_reference_set(self):
        plan = plan_for_m(62, SCENARIO)
        assert (plan.i_minus, plan.i_plus) == pytest.approx((41.85, 47.43))
        assert list(plan.advantageous) == list(range(42, 48))

    def test_minimal_m_reference_and_derived_margin(self):
        assert minimal_m(SCENARIO) == 12
        derived = TransmissionScenario(rho1=0.8, eta_det=0.45, accuracy=0.05,
                                       confidence_target=0.6)
        assert derived.margin == pytest.approx(0.0225)
        assert minimal_m(derived) == 23

    def test_wide_margin_needs_one_state(self):
        wide = TransmissionScenario(rho1=0.5, eta_det=1.0, accuracy=0.5,
                                    confidence_target=0.6)
        assert minimal_m(wide) == 1

    @given(st.floats(0.002, 0.5))
    def test_minimal_m_is_exact(self, margin):
        scenario = TransmissionScenario(rho1=0.5, eta_det=1.0, accuracy=0.5,
                                        confidence_target=0.6, margin=margin)
        m = minimal_m(scenario)
        assert 2.0 * margin * m >= 1.0 - 1e-9
        if m > 1:
            assert 2.0 * margin * (m - 1) < 1.0 + 1e-9

    def test_advantageous_set_reference_values(self):
        assert list(plan_for_m(12, SCENARIO).advantageous) == [9]
        assert list(plan_for_m(66, LOW_EFF).advantageous) == list(range(21, 27))

    def test_advantageous_set_can_be_empty(self):
        narrow = TransmissionScenario(rho1=1.0 / math.pi, eta_det=1.0,
                                      accuracy=0.05, confidence_target=0.5,
                                      margin=1e-4)
        counts = plan_for_m(1, narrow).advantageous
        assert len(counts) == 0
        assert confidence(1, narrow.success_probability, counts) == 0.0


class TestConfidence:
    def test_reference_confidences(self):
        assert plan_for_m(12, SCENARIO).confidence == pytest.approx(0.25, abs=0.005)
        assert plan_for_m(62, SCENARIO).confidence == pytest.approx(0.603, abs=0.005)
        assert plan_for_m(66, LOW_EFF).confidence == pytest.approx(0.56, abs=0.01)

    def test_full_set_is_certain(self):
        for m in (1, 7, 40, 90):
            assert confidence(m, 0.72, range(0, m + 1)) == pytest.approx(1.0,
                                                                         abs=1e-12)

    def test_matches_brute_force_enumeration(self):
        for m in (5, 11, 18, 20):
            counts = plan_for_m(m, SCENARIO).advantageous
            exact = brute_force_confidence(m, SCENARIO.success_probability, counts)
            assert confidence(m, SCENARIO.success_probability, counts) == \
                pytest.approx(exact, abs=1e-10)

    def test_matches_direct_evaluation(self):
        # direct binomial formula, exact coefficients, for m up to 100
        for m in (10, 63, 64, 65, 100):
            p = 0.72
            direct = sum(math.comb(m, i) * p ** i * (1.0 - p) ** (m - i)
                         for i in plan_for_m(m, SCENARIO).advantageous)
            assert confidence(m, p, plan_for_m(m, SCENARIO).advantageous) == \
                pytest.approx(direct, abs=1e-10)

    @pytest.mark.parametrize("scenario", [SCENARIO, LOW_EFF], ids=["p=0.72", "p=0.36"])
    @pytest.mark.parametrize("m", [64, 65, 1000])
    def test_matches_exact_rational_sum_at_large_m(self, m, scenario):
        # the same float p = num / den, summed in exact rational arithmetic
        p = scenario.success_probability
        counts = plan_for_m(m, scenario).advantageous
        num, den = p.as_integer_ratio()
        exact = Fraction(sum(math.comb(m, i) * num ** i * (den - num) ** (m - i)
                             for i in counts), den ** m)
        assert confidence(m, p, counts) == pytest.approx(float(exact), rel=0, abs=1e-10)

    @given(st.integers(1, 30), st.floats(0.05, 0.95),
           st.integers(0, 30), st.integers(0, 30))
    @settings(max_examples=60)
    def test_monotone_in_the_set(self, m, p, a, b):
        lo, hi = sorted((min(a, m), min(b, m)))
        partial = confidence(m, p, range(lo, hi + 1))
        assert partial <= confidence(m, p, range(0, m + 1)) + 1e-12
        if hi < m:
            assert partial <= confidence(m, p, range(lo, hi + 2)) + 1e-12
        assert 0.0 <= partial <= 1.0

    def test_edge_probabilities(self):
        assert confidence(5, 0.0, range(0, 1)) == 1.0
        assert confidence(5, 1.0, range(5, 6)) == 1.0
        assert confidence(5, 1.0, range(0, 3)) == 0.0
        with pytest.raises(ValueError):
            confidence(5, 0.5, [6])

    def test_m_is_checked_like_a_plan(self):
        with pytest.raises(TypeError):
            confidence(12.5, 0.5, [3])
        with pytest.raises(ValueError, match="at least 0"):
            confidence(-1, 0.5, [])
        for m in (MAX_M + 1, 10 ** 9):  # refused before any work
            with pytest.raises(ValueError, match="MAX_M"):
                confidence(m, 0.5, [3])
        assert confidence(0, 0.3, [0]) == 1.0
        assert confidence(0, 0.3, []) == 0.0
        assert confidence(MAX_M, 0.5, [MAX_M // 2]) == pytest.approx(
            math.sqrt(2.0 / (math.pi * MAX_M)), rel=1e-5)

    def test_counts_form_a_set(self):
        p = 0.3
        assert confidence(20, p, [4, 6, 6, 4]) == confidence(20, p, [4, 6])
        assert confidence(20, p, [4, 6]) == pytest.approx(exact_confidence(20, p, [4, 6]),
                                                          rel=0, abs=SMALL_M_TOL)

    @pytest.mark.parametrize("m", [1, 2, 10, 57, 300, 1000, 5000])
    def test_near_one_matches_the_exact_sum(self, m):
        # no valid scenario reaches this p: the interval check bounds
        # rho1 + accuracy, so only confidence() sees it
        p = 1.0 - 2.0 ** -50
        tol = SMALL_M_TOL if m <= 300 else LARGE_M_TOL
        for counts in (range(max(0, m - 3), m + 1), range(0, m + 1), [m],
                       range(0, m // 2 + 1), [0, m // 2, m]):
            assert confidence(m, p, counts) == pytest.approx(
                exact_confidence(m, p, counts), rel=0, abs=tol)


class TestScan:
    def test_first_passing_m_is_59_not_62(self):
        # the scan legitimately crosses the 0.6 target at m = 59; the
        # reference narrative jumps straight to 62, which also passes
        results, first = scan_plan(SCENARIO, 80)
        assert first == 59
        r59 = next(r for r in results if r.m == 59)
        assert r59.confidence == pytest.approx(0.61574, abs=1e-4)
        assert list(r59.advantageous) == list(range(40, 46))
        passing = [r.m for r in results if r.m <= 62
                   and r.confidence >= SCENARIO.confidence_target]
        assert passing == [59, 62]

    def test_reported_absence_below_target(self):
        _, first = scan_plan(SCENARIO, 40)
        assert first is None

    def test_scan_respects_minimal_m(self):
        results, _ = scan_plan(SCENARIO, 20)
        assert results[0].m == 12
        with pytest.raises(ValueError):
            scan_plan(SCENARIO, 5)

    @pytest.mark.parametrize("scenario", [
        # eta_det = 0: p = 0 takes the one-hot branch inside padded blocks
        TransmissionScenario(rho1=0.5, eta_det=0.0, accuracy=0.1,
                             confidence_target=0.6, margin=0.05),
        # margin 0.5: every set is the full range 0..m, the widest padding
        TransmissionScenario(rho1=0.5, eta_det=1.0, accuracy=0.5,
                             confidence_target=0.6, margin=0.5),
        # below minimal m = 125 the interval is narrower than one count, so
        # the descent scan over 1..299 pads blocks that hold empty sets
        TransmissionScenario(rho1=1.0 / math.pi, eta_det=1.0, accuracy=0.05,
                             confidence_target=0.5, margin=0.004),
    ], ids=["p=0", "full-range", "narrow"])
    def test_scan_rows_equal_single_plans(self, scenario):
        p = scenario.success_probability
        for r in scan_plan(scenario, 300)[0]:
            single = plan_for_m(r.m, scenario)
            # one window makes both, so they are equal bit for bit
            assert (r.m, r.i_minus, r.i_plus, r.advantageous, r.confidence) == \
                (single.m, single.i_minus, single.i_plus, single.advantageous,
                 single.confidence)
            exact = exact_confidence(r.m, p, r.advantageous)
            assert r.confidence == pytest.approx(exact, rel=0, abs=SMALL_M_TOL)
            assert confidence(r.m, p, r.advantageous) == pytest.approx(
                exact, rel=0, abs=SMALL_M_TOL)
        ms = range(1, 300)
        confs = [confidence(m, p, plan_for_m(m, scenario).advantageous) for m in ms]
        expected = [m for m, c0, c1 in zip(ms, confs, confs[1:]) if c0 - c1 > DESCENT_TOL]
        assert detect_nonmonotonicity(scenario, ms) == expected

    # Scans start at minimal_m, where the interval m (p +- margin) is at least
    # one count wide, so every scanned set holds a count.  The ends 0 and 1
    # of the position and efficiency draws give p = 0 and p = 1 - accuracy.
    # The examples put both ends of a one-count-wide interval on integers
    # (p = margin = 1 / (2 minimal_m)), where only the bounds' slack keeps
    # the two counts in the set.
    @given(st.sampled_from([0.5, 0.25, 0.1, 0.05]) | st.floats(0.005, 0.5),
           st.sampled_from([0.0, 1.0]) | st.floats(0, 1),
           st.sampled_from([0.0, 1.0]) | st.floats(0, 1),
           st.sampled_from([0.0, 1.0]) | st.floats(0, 1), st.integers(0, 200))
    @example(0.25, 0.0, 0.0, 1.0, 0)
    @example(0.1, 0.0, 0.0, 1.0, 3)
    @settings(max_examples=150, deadline=None)
    def test_every_scanned_set_is_non_empty(self, margin, widen, position, eff, extra):
        accuracy = margin + widen * (0.5 - margin)
        scenario = TransmissionScenario(rho1=accuracy + position * (1.0 - 2.0 * accuracy),
                                        eta_det=eff, accuracy=accuracy,
                                        confidence_target=0.5, margin=margin)
        results, _ = scan_plan(scenario, minimal_m(scenario) + extra)
        assert all(len(r.advantageous) > 0 for r in results)

    def test_m_above_max_m_is_refused(self):
        assert plan_for_m(MAX_M, SCENARIO).m == MAX_M
        with pytest.raises(ValueError, match="MAX_M"):
            plan_for_m(MAX_M + 1, SCENARIO)
        with pytest.raises(ValueError, match="MAX_M"):
            scan_plan(SCENARIO, 10 ** 9)
        with pytest.raises(ValueError, match="MAX_M"):
            detect_nonmonotonicity(SCENARIO, [12, MAX_M + 1])

    def test_descent_scan_checks_max_m_while_reading(self):
        # the range is refused at its first m above MAX_M, not after it has
        # been read whole (a set of 10^9 ints would exhaust memory)
        read = 0

        def bounded():
            nonlocal read
            for m in range(1, 10 ** 9):
                read += 1
                assert read <= MAX_M + 1, "read past the first m above MAX_M"
                yield m

        with pytest.raises(ValueError, match="MAX_M"):
            detect_nonmonotonicity(SCENARIO, bounded())
        assert read == MAX_M + 1
        with pytest.raises(ValueError, match="MAX_M"):
            detect_nonmonotonicity(SCENARIO, range(1, 10 ** 9))
        with pytest.raises(ValueError, match="at least 1"):
            detect_nonmonotonicity(SCENARIO, range(-10 ** 9, 10))

    @pytest.mark.parametrize("m_max", [40, 80, 1000])
    def test_scan_rows_are_the_scan_plan_results(self, m_max):
        columns, first = scan_rows(SCENARIO, m_max)
        results, first_m = scan_plan(SCENARIO, m_max)
        assert [len(column) for column in columns] == [len(results)] * 6
        rows = list(zip(*columns))
        assert rows == [(r.m, r.i_minus, r.i_plus, r.advantageous.start,
                         r.advantageous[-1], r.confidence) for r in results]
        if first_m is None:
            assert first is None
        else:
            assert first == rows[first_m - results[0].m]
            assert max(conf for m, *_, conf in rows if m < first_m) < \
                SCENARIO.confidence_target

    def test_non_integer_m_rejected(self):
        with pytest.raises(TypeError):
            plan_for_m(12.5, SCENARIO)
        with pytest.raises(TypeError):
            detect_nonmonotonicity(SCENARIO, [12.5, 13])

    def test_plan_results_are_self_consistent(self):
        p = SCENARIO.success_probability
        for r in scan_plan(SCENARIO, 30)[0]:
            assert set(r.advantageous) <= set(range(0, r.m + 1))
            exact = exact_confidence(r.m, p, r.advantageous)
            assert r.confidence == pytest.approx(exact, rel=0, abs=SMALL_M_TOL)
            assert confidence(r.m, p, r.advantageous) == pytest.approx(
                exact, rel=0, abs=SMALL_M_TOL)

    @pytest.mark.parametrize("name", list(ORACLE_SCENARIOS))
    def test_plans_match_the_exact_sums(self, name):
        scenario = ORACLE_SCENARIOS[name]
        p = scenario.success_probability
        results, _ = scan_plan(scenario, LARGE_M[-1])
        rows = {r.m: r for r in results}
        for m in [*range(minimal_m(scenario), 301), *LARGE_M]:
            r, tol = rows[m], (SMALL_M_TOL if m <= 300 else LARGE_M_TOL)
            exact = exact_confidence(m, p, r.advantageous)
            assert r.confidence == pytest.approx(exact, rel=0, abs=tol), m
            assert confidence(m, p, r.advantageous) == pytest.approx(exact, rel=0, abs=tol), m
        for m in (1, 2, 150, 300, *LARGE_M):  # below minimal m too
            single = plan_for_m(m, scenario)
            assert single.confidence == pytest.approx(
                exact_confidence(m, p, single.advantageous), rel=0,
                abs=SMALL_M_TOL if m <= 300 else LARGE_M_TOL)

    def test_rounding_of_one_minus_p_does_not_build_up(self):
        # below p = 1/2 the float 1 - p is rounded; multiplying by it at each
        # of 5000 steps would put about 5e-14 into the narrow scan at m = 5000
        scenario = ORACLE_SCENARIOS["narrow"]
        p = scenario.success_probability
        assert 1.0 - p != 1 - Fraction(p)
        results, _ = scan_plan(scenario, 5000)
        for r in results[999::500]:
            assert r.confidence == pytest.approx(
                exact_confidence(r.m, p, r.advantageous), rel=0, abs=1e-14), r.m

    @pytest.mark.parametrize("p", [0.3, 0.8])
    def test_window_ends_may_jump_and_the_lower_end_fall(self, p):
        # Rounding in m p -/+ margin m can move an end by more than one count
        # in a step, or the lower end back by one; the window walks such moves
        # count by count.  Ends (lo, hi) for m = 1, 2, ...
        ends = [(0, 1), (0, 2), (2, 3), (1, 4), (1, 4), (3, 6), (2, 6), (2, 8), (5, 8),
                (4, 8), (9, 8), (9, 10), (7, 11)]
        sums = list(_sums(p, ends))
        assert [window for window, _, _ in sums] == ends
        for m, ((lo, hi), s, end) in enumerate(sums, 1):
            assert s == pytest.approx(exact_confidence(m, p, range(lo, hi + 1)),
                                      rel=0, abs=1e-15), m
            assert end == pytest.approx(exact_confidence(m, p, [hi]), rel=1e-15), m


class TestNonmonotonicity:
    def test_reference_descent_between_12_and_15(self):
        descents = detect_nonmonotonicity(SCENARIO, range(12, 16))
        assert 12 in descents
        assert plan_for_m(15, SCENARIO).confidence < plan_for_m(12, SCENARIO).confidence

    def test_constant_certainty_has_no_descents(self):
        wide = TransmissionScenario(rho1=0.5, eta_det=1.0, accuracy=0.5,
                                    confidence_target=0.6, margin=0.5)
        # margin 0.5 makes the advantageous set the full range for every m;
        # the confidence is 1 up to rounding, which is not a descent
        for m in range(1, 65):
            assert len(plan_for_m(m, wide).advantageous) == m + 1
        assert detect_nonmonotonicity(wide, range(1, 65)) == []

    def test_empty_single_and_unsorted_ranges(self):
        assert detect_nonmonotonicity(SCENARIO, range(0)) == []
        assert detect_nonmonotonicity(SCENARIO, [15]) == []
        ms = [400, 3, 77, 78, 5, 200, 201, 202]
        order = sorted(ms)
        confs = [confidence(m, SCENARIO.success_probability,
                            plan_for_m(m, SCENARIO).advantageous) for m in order]
        expected = [m for m, c0, c1 in zip(order, confs, confs[1:]) if c0 - c1 > DESCENT_TOL]
        assert expected
        assert detect_nonmonotonicity(SCENARIO, ms) == expected

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25)
    def test_descents_match_independent_recomputation(self, seed):
        import numpy as np
        rng = np.random.default_rng(seed)
        scenario = TransmissionScenario(rho1=float(rng.uniform(0.3, 0.7)),
                                        eta_det=float(rng.uniform(0.5, 1.0)),
                                        accuracy=0.1,
                                        confidence_target=0.6,
                                        margin=float(rng.uniform(0.02, 0.1)))
        ms = range(10, 25)
        confs = [confidence(m, scenario.success_probability,
                            plan_for_m(m, scenario).advantageous) for m in ms]
        expected = [m for m, c0, c1 in zip(ms, confs, confs[1:]) if c0 - c1 > DESCENT_TOL]
        assert detect_nonmonotonicity(scenario, ms) == expected


class TestScenarioValidation:
    def test_interval_must_stay_in_unit_range(self):
        with pytest.raises(ValueError):
            TransmissionScenario(rho1=0.98, eta_det=0.9, accuracy=0.05,
                                 confidence_target=0.6)
        with pytest.raises(ValueError):
            TransmissionScenario(rho1=0.03, eta_det=0.9, accuracy=0.05,
                                 confidence_target=0.6)

    def test_margin_bounded_by_accuracy(self):
        with pytest.raises(ValueError):
            TransmissionScenario(rho1=0.8, eta_det=0.9, accuracy=0.05,
                                 confidence_target=0.6, margin=0.06)

    @pytest.mark.parametrize("field, value", [
        ("accuracy", math.nan), ("accuracy", math.inf),
        ("margin", math.nan), ("margin", 5e-324),
    ])
    def test_non_finite_accuracy_and_margin_rejected(self, field, value):
        kwargs = dict(rho1=0.8, eta_det=0.9, accuracy=0.05, confidence_target=0.6)
        with pytest.raises(ValueError, match=field):
            TransmissionScenario(**{**kwargs, field: value})

    def test_with_margin_returns_new_scenario(self):
        widened = LOW_EFF.with_margin(0.02)
        assert widened.margin == 0.02
        assert LOW_EFF.margin == 0.045


def test_transmission_speed():
    assert transmission_speed(100, 10.0) == 10.0
    with pytest.raises(ValueError):
        transmission_speed(100, 0.0)


def test_intelligibility():
    assert intelligibility([1, 0, 1, 0], [1, 0, 1, 0]) == 0.0
    assert intelligibility([1, 0, 1, 0], [1, 0, 0, 0]) == 0.25
    with pytest.raises(ValueError):
        intelligibility([1, 0], [1])
