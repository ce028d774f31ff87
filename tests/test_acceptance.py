"""Acceptance suite.

One test per criterion, each printing a single pass/fail line.  Two
sub-claims of criterion 5 are reproduced faithfully but cannot pass: the
reference table truncates P(15) = 0.22616 to 0.22 (outside its own +/-0.005
band) and names m = 62 as the first count reaching confidence 0.6 although
m = 59 already reaches 0.6157.  Both are marked as strict expected failures
and the recomputed values are asserted alongside.
"""

import math
import time

import numpy as np
import pytest

from eeqt.detectors import (
    BinaryDetectorSpec,
    FilterSpec,
    NStateDetectorSpec,
    SignalDecomposition,
    TwoStateDetectorSpec,
    binary_trajectory,
    filter_classical_output,
    filter_quantum_marginal,
    n_state_trajectory,
    two_state_trajectory,
)
from eeqt.evolution import EvolutionConfig, check_cp_conditions, evolve
from eeqt.planner import (
    TransmissionScenario,
    confidence,
    detect_nonmonotonicity,
    di_confirmation_count,
    minimal_m,
    plan_for_m,
    scan_plan,
)
from eeqt.shapes import enumerate_admissible_patterns
from eeqt.states import basis_projector, product_state, quantum_marginal

SCENARIO = TransmissionScenario(rho1=0.8, eta_det=0.9, accuracy=0.05,
                                confidence_target=0.6, margin=0.045)


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def binary_trajectories():
    """Criterion 1 integrations, reused by the conservation suite."""
    e = basis_projector(2, 0)
    state = product_state(e, [1.0, 0.0])
    start = time.perf_counter()
    out = {}
    for label, k2 in (("one_way", 0.0), ("balanced", 1.0)):
        spec = BinaryDetectorSpec(1.0, k2, e)
        out[label] = evolve(state, couplings=[spec.coupling()],
                            config=EvolutionConfig(step=0.01, duration=10.0,
                                                   record_every=50))
    out["elapsed"] = time.perf_counter() - start
    return out


@pytest.fixture(scope="module")
def n_state_trajectories():
    """Criterion 3 integrations for 1, 2 and 5 channels, quantum dim 5."""
    out = {}
    for n in (1, 2, 5):
        spec = NStateDetectorSpec(1.0, tuple(basis_projector(5, i)
                                             for i in range(n)))
        state = product_state(basis_projector(5, 0), [1.0] + [0.0] * n)
        out[n] = evolve(state, couplings=spec.couplings(),
                        config=EvolutionConfig(step=0.01, duration=10.0,
                                               record_every=100))
    return out


def test_criterion_1_binary_asymptotics(binary_trajectories):
    p1_oneway = binary_trajectories["one_way"].probabilities()[-1, 1]
    p1_balanced = binary_trajectories["balanced"].probabilities()[-1, 1]
    elapsed = binary_trajectories["elapsed"]
    ok = (p1_oneway >= 0.999 and abs(p1_balanced - 0.5) <= 1e-4
          and elapsed < 1.0)
    report(1, ok,
           f"binary p1(10) one-way {p1_oneway:.6f} (>= 0.999), balanced "
           f"{p1_balanced:.6f} (0.5 +/- 1e-4), runtime {elapsed:.2f}s (< 1s)")


def test_criterion_2_closed_form_vs_integrator():
    rng = np.random.default_rng(7)
    e0, e1 = basis_projector(3, 0), basis_projector(3, 1)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(25):
        k1, k2 = rng.uniform(0.2, 1.2, size=2)
        a0 = rng.uniform(0.2, 0.8)
        spec = BinaryDetectorSpec(k1, k2, basis_projector(2, 0))
        sig = SignalDecomposition(a0, 1.0 - a0)
        rho_q = a0 * basis_projector(2, 0) + (1.0 - a0) * basis_projector(2, 1)
        traj = evolve(product_state(rho_q, [1.0, 0.0]),
                      couplings=[spec.coupling()],
                      config=EvolutionConfig(step=0.02, duration=3.0,
                                             record_every=15))
        for t, row in list(zip(traj.times, traj.probabilities()))[1:11]:
            worst = max(worst, np.max(np.abs(
                np.asarray(binary_trajectory(spec, sig, t)) - row)))
    for _ in range(25):
        k1, k2, n1, n2 = rng.uniform(0.2, 1.2, size=4)
        a0 = rng.uniform(0.1, 0.6)
        b0 = rng.uniform(0.0, 1.0 - a0 - 0.05)
        spec = TwoStateDetectorSpec(k1, k2, n1, n2, e0, e1)
        rho_q = a0 * e0 + b0 * e1 + (1.0 - a0 - b0) * basis_projector(3, 2)
        traj = evolve(product_state(rho_q, [1.0, 0.0, 0.0]),
                      couplings=spec.couplings(),
                      config=EvolutionConfig(step=0.02, duration=3.0,
                                             record_every=15))
        for t, row in list(zip(traj.times, traj.probabilities()))[1:11]:
            worst = max(worst, np.max(np.abs(
                np.asarray(two_state_trajectory(spec, a0, b0, t)) - row)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    report(2, ok,
           f"50 random draws, worst closed-form deviation {worst:.2e} "
           f"(<= 1e-6), runtime {elapsed:.2f}s (< 10s)")


def test_criterion_3_n_independence(n_state_trajectories):
    reference = n_state_trajectories[1].probabilities()[:, [0, 1]]
    worst = 0.0
    for n in (2, 5):
        curve = n_state_trajectories[n].probabilities()[:, [0, 1]]
        worst = max(worst, float(np.max(np.abs(curve - reference))))
    closed = [n_state_trajectory(
        NStateDetectorSpec(1.0, tuple(basis_projector(5, i) for i in range(n))),
        0, 10.0)[1] for n in (1, 2, 5)]
    final = min(min(closed),
                min(n_state_trajectories[n].probabilities()[-1, 1]
                    for n in (1, 2, 5)))
    ok = worst <= 1e-10 and final >= 0.9999
    report(3, ok,
           f"n-state curves for n in {{1,2,5}} deviate by {worst:.2e} "
           f"(<= 1e-10), p_j(10) = {final:.6f} (>= 0.9999)")


def test_criterion_4_shape_catalogues():
    counts = {}
    cp_all = True
    for dim in (2, 3):
        patterns = enumerate_admissible_patterns(dim)
        counts[dim] = len(patterns)
        for pattern in patterns:
            # distinct basis projectors per entry keep the row ranges
            # orthogonal, which the structural check requires
            d = max(len(pattern.support), 2)
            entries = {pos: basis_projector(d, k)
                       for k, pos in enumerate(sorted(pattern.support))}
            coupling = pattern.instantiate(entries)
            cp_all &= check_cp_conditions([coupling]).ok
    duplicates = [p.label for p in enumerate_admissible_patterns(3)
                  if p.duplicate_of]
    ok = counts == {2: 6, 3: 11} and duplicates == ["W11"] and cp_all
    report(4, ok,
           f"catalogue sizes {counts[2]}/{counts[3]} (expected 6/11), "
           f"duplicate flags {duplicates}, all CP checks "
           f"{'pass' if cp_all else 'fail'}")


def test_criterion_5_planner_reproduction():
    start = time.perf_counter()
    r12 = plan_for_m(12, SCENARIO)
    r62 = plan_for_m(62, SCENARIO)
    low = TransmissionScenario(rho1=0.8, eta_det=0.45, accuracy=0.05,
                               confidence_target=0.6, margin=0.045)
    r66 = plan_for_m(66, low)
    checks = [
        minimal_m(SCENARIO) == 12,
        abs(r12.i_minus - 8.1) <= 1e-9 and abs(r12.i_plus - 9.18) <= 1e-9,
        list(r12.advantageous) == [9],
        abs(r12.confidence - 0.25) <= 0.005,
        list(r62.advantageous) == list(range(42, 48)),
        abs(r62.confidence - 0.603) <= 0.005,
        r62.confidence >= 0.6,
        list(r66.advantageous) == list(range(21, 27)),
        abs(r66.confidence - 0.56) <= 0.01,
    ]
    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 1.0
    report(5, ok,
           f"minimal_m=12, interval (8.1, 9.18), set {{9}}, "
           f"P(12)={r12.confidence:.4f}, P(62)={r62.confidence:.4f} on "
           f"{{42..47}}, P(66)={r66.confidence:.4f} on {{21..26}}, "
           f"runtime {elapsed:.2f}s (< 1s); see 5b/5c for the two "
           f"non-reproducible reference values")


@pytest.mark.xfail(strict=True,
                   reason="reference value 0.22 is a truncation of the exact "
                          "0.226163, outside its own 0.005 band")
def test_criterion_5b_p15_reference_value():
    p15 = plan_for_m(15, SCENARIO).confidence
    ok = abs(p15 - 0.22) <= 0.005
    report("5b", ok, f"P(15) = {p15:.6f} vs reference 0.22 +/- 0.005")


@pytest.mark.xfail(strict=True,
                   reason="m = 59 already reaches confidence 0.6157, so 62 "
                          "is not the first passing count")
def test_criterion_5c_first_passing_m_reference_value():
    _, first = scan_plan(SCENARIO, 80)
    report("5c", first == 62, f"first m with confidence >= 0.6 is {first}, "
                              f"reference says 62")


def test_criterion_5_recomputed_corrections():
    # companion pins for the two expected failures above
    assert plan_for_m(15, SCENARIO).confidence == pytest.approx(0.226163,
                                                                abs=1e-6)
    results, first = scan_plan(SCENARIO, 80)
    assert first == 59
    assert [r.m for r in results
            if r.m <= 62 and r.confidence >= 0.6] == [59, 62]


def test_criterion_6_nonmonotonicity():
    descents = detect_nonmonotonicity(SCENARIO, range(12, 16))
    p12 = plan_for_m(12, SCENARIO).confidence
    p15 = plan_for_m(15, SCENARIO).confidence
    ok = 12 in descents and p15 < p12
    report(6, ok,
           f"descents at m={descents} within [12,15], P(15)={p15:.4f} < "
           f"P(12)={p12:.4f}")


def test_criterion_7_brute_force_oracle():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        rho1 = float(rng.uniform(0.3, 0.7))
        scenario = TransmissionScenario(rho1=rho1,
                                        eta_det=float(rng.uniform(0.4, 1.0)),
                                        accuracy=0.1,
                                        confidence_target=0.6,
                                        margin=float(rng.uniform(0.02, 0.1)))
        p = scenario.success_probability
        for m in range(1, 17):
            counts = set(plan_for_m(m, scenario).advantageous)
            pw_hit = [p ** i for i in range(m + 1)]
            pw_miss = [(1.0 - p) ** i for i in range(m + 1)]
            brute = 0.0
            for outcome in range(2 ** m):
                hits = outcome.bit_count()
                if hits in counts:
                    brute += pw_hit[hits] * pw_miss[m - hits]
            worst = max(worst, abs(confidence(m, p, counts) - brute))
    ok = worst <= 1e-10
    report(7, ok,
           f"binomial vs exhaustive enumeration, m <= 16, 20 scenarios, "
           f"worst deviation {worst:.2e} (<= 1e-10)")


def test_criterion_8_conservation(binary_trajectories, n_state_trajectories):
    trajectories = [binary_trajectories["one_way"],
                    binary_trajectories["balanced"],
                    *(n_state_trajectories[n] for n in (1, 2, 5))]
    drift = max(float(t.trace_drift().max()) for t in trajectories)
    min_eig = min(float(t.min_eigenvalues().min()) for t in trajectories)
    ok = drift <= 1e-8 and min_eig >= -1e-7
    report(8, ok,
           f"trace drift {drift:.2e} (<= 1e-8), min block eigenvalue "
           f"{min_eig:.2e} (>= -1e-7) over all criterion 1-3 integrations")


def test_criterion_9_filter_behavior():
    k = 0.8
    spec = FilterSpec(k, basis_projector(3, 0))
    cfg = EvolutionConfig(step=0.005, duration=5.0, record_every=200)

    # case (a): signal aligned with the filter projector passes unchanged
    aligned = product_state(basis_projector(3, 0), [1.0, 0.0])
    traj_a = evolve(aligned, couplings=[spec.coupling()], config=cfg)
    dev_a = float(np.max(np.abs(quantum_marginal(traj_a.state(-1))
                                - basis_projector(3, 0))))

    # case (c): coherences touching the filter channel decay as e^{-kt/2}
    rho_q = np.array([[0.5, 0.2, 0.0],
                      [0.2, 0.3, 0.1],
                      [0.0, 0.1, 0.2]], dtype=complex)
    traj_c = evolve(product_state(rho_q, [1.0, 0.0]),
                    couplings=[spec.coupling()], config=cfg)
    dev_c, dev_p = 0.0, 0.0
    for idx in range(len(traj_c)):
        t = traj_c.times[idx]
        marg = quantum_marginal(traj_c.state(idx))
        decay = math.exp(-0.5 * k * t)
        dev_c = max(dev_c, abs(marg[0, 1] - 0.2 * decay),
                    abs(marg[0, 2]), abs(marg[1, 2] - 0.1))
        dev_c = max(dev_c, float(np.max(np.abs(
            marg - filter_quantum_marginal(rho_q, spec, t)))))
        expected_p = filter_classical_output(1.0, 0.0, 0.5, k, t)
        dev_p = max(dev_p, float(np.max(np.abs(
            traj_c.probabilities()[idx] - expected_p))))
    ok = dev_a <= 1e-8 and dev_c <= 1e-6 and dev_p <= 1e-8
    report(9, ok,
           f"aligned marginal deviation {dev_a:.2e} (<= 1e-8), coherence "
           f"decay deviation {dev_c:.2e} (<= 1e-6), classical output "
           f"deviation {dev_p:.2e} (<= 1e-8)")


def test_criterion_10_confirmation_count():
    n = di_confirmation_count(0.45, 0.9)
    residual = 0.55 ** 4
    ok = n == 4 and residual == pytest.approx(0.0915, abs=5e-5) and residual <= 0.1
    report(10, ok,
           f"di_confirmation_count(0.45, 0.9) = {n} (expected 4), "
           f"0.55^4 = {residual:.4f} <= 0.1")
