import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from eeqt.planner import (
    DESCENT_TOL,
    MAX_M,
    TransmissionScenario,
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

    def test_log_domain_matches_direct_evaluation(self):
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
            assert (r.m, r.i_minus, r.i_plus, r.advantageous) == \
                (single.m, single.i_minus, single.i_plus, single.advantageous)
            # padding regroups numpy's pairwise sum: rounding differences only
            assert r.confidence == pytest.approx(single.confidence, rel=0, abs=1e-15)
            assert r.confidence == pytest.approx(confidence(r.m, p, r.advantageous),
                                                 rel=0, abs=1e-15)
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
        rows, first = scan_rows(SCENARIO, m_max)
        results, first_m = scan_plan(SCENARIO, m_max)
        assert rows.shape == (len(results), 6)
        assert rows.tolist() == [[r.m, r.i_minus, r.i_plus, r.advantageous.start,
                                  r.advantageous[-1], r.confidence] for r in results]
        if first_m is None:
            assert first is None
        else:
            assert first.tolist() == rows[first_m - results[0].m].tolist()
            assert rows[:, 5][rows[:, 0] < first_m].max() < SCENARIO.confidence_target

    def test_non_integer_m_rejected(self):
        with pytest.raises(TypeError):
            plan_for_m(12.5, SCENARIO)
        with pytest.raises(TypeError):
            detect_nonmonotonicity(SCENARIO, [12.5, 13])

    def test_plan_results_are_self_consistent(self):
        for r in scan_plan(SCENARIO, 30)[0]:
            assert set(r.advantageous) <= set(range(0, r.m + 1))
            assert r.confidence == pytest.approx(
                confidence(r.m, SCENARIO.success_probability, r.advantageous),
                abs=1e-15)


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
