"""The reference worked-example values that ``eeqt reproduce`` recomputes, without numpy."""

from .detectors import NStateConstants, n_state_trajectory
from .limits import EvolutionConfig
from .planner import TransmissionScenario, di_confirmation_count, minimal_m, plan_for_m
from .sectors import sector_columns


def reproduction_rows():
    """Recompute the reference worked-example values.

    Yields (name, computed, expected, tolerance) tuples.  Tolerances of zero
    mean exact (integer or closed-form) agreement.
    """
    scenario = TransmissionScenario(rho1=0.8, eta_det=0.9, accuracy=0.05,
                                    confidence_target=0.6, margin=0.045)
    yield ("minimal_m", minimal_m(scenario), 12, 0)
    r12 = plan_for_m(12, scenario)
    yield ("i_minus(12)", r12.i_minus, 8.1, 1e-9)
    yield ("i_plus(12)", r12.i_plus, 9.18, 1e-9)
    yield ("set(12)", list(r12.advantageous), [9], 0)
    yield ("P(12)", r12.confidence, 0.25, 0.005)
    # exact value 0.22616; the reference table truncates it to 0.22, so this
    # row cannot pass at the stated tolerance and is reported as-is
    yield ("P(15)", plan_for_m(15, scenario).confidence, 0.22, 0.005)
    r62 = plan_for_m(62, scenario)
    yield ("set(62)", list(r62.advantageous), list(range(42, 48)), 0)
    yield ("P(62)", r62.confidence, 0.603, 0.005)
    low = TransmissionScenario(rho1=0.8, eta_det=0.45, accuracy=0.05,
                               confidence_target=0.6, margin=0.045)
    r66 = plan_for_m(66, low)
    yield ("set(66) at eff 0.45", list(r66.advantageous), list(range(21, 27)), 0)
    yield ("P(66) at eff 0.45", r66.confidence, 0.56, 0.01)
    yield ("confirmation count n(p=0.45, 90%)", di_confirmation_count(0.45, 0.9), 4, 0)

    # balanced binary detector reaches 1/2 under numeric evolution
    columns = sector_columns(((((0, 1), {0: 1.0}), ((1, 0), {0: 1.0})),), {(0, 0): 1.0},
                             (2, 2), EvolutionConfig(step=0.005, duration=12.0,
                                                     record_every=200))
    yield ("binary k1=k2 registered probability", columns[2][-1], 0.5, 1e-4)

    # n-state detector: unit asymptotic efficiency regardless of channel count
    for channels in (1, 2, 5):
        yield (f"n-state p_j(10), {channels} channels",
               n_state_trajectory(NStateConstants(1.0, channels), 0, 10.0)[1], 1.0, 1e-4)
