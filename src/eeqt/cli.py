"""Command-line entry point.

Subcommands
-----------
simulate    integrate a configured detector system, write a trajectory CSV
efficiency  evaluate the closed-form detector solutions on a time grid
validate    enumerate coupling shapes, check them structurally, write a CSV
plan        transmission planning scan over the number of generated states
reproduce   recompute the reference worked-example values and report pass/fail

All CSV output starts with '#'-prefixed metadata lines (tool version, config
hash, random seed) so identical inputs produce byte-identical files.

``simulate`` and ``efficiency`` read an INI config whose ``[detector] family``
names an entry of ``FAMILIES``.  That entry is the only code that reads the
family's keys; it builds the couplings, the quantum signal, the classical
dimension and a lazily evaluated closed form.  Every ValueError raised while
serving a config, from a missing key to a signal that is not a density matrix
or a duration the step does not divide, is a config error.

Exit codes: 0 success, 1 usage error (including a bad ``plan`` flag, NaN
among them, and an ``--output`` that cannot be written), 2 config error, 3
numerical-guard or reproduction failure (including arithmetic that overflows
or a closed form that is not finite).
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .detectors import (
    BinaryDetectorSpec,
    FilterSpec,
    NStateDetectorSpec,
    SignalDecomposition,
    TwoStateDetectorSpec,
    binary_asymptotic,
    binary_trajectory,
    filter_classical_output,
    n_state_trajectory,
    two_state_asymptotic,
    two_state_trajectory,
)
from .evolution import EvolutionConfig, TraceDriftError, check_cp_conditions, evolve, trajectory_rows
from .planner import (
    TransmissionScenario,
    di_confirmation_count,
    minimal_m,
    plan_for_m,
    scan_plan,
)
from .shapes import TOPOLOGY_BY_TAG, admissible_2x2, admissible_3x3, enumerate_admissible_patterns
from .states import basis_projector, offdiagonal_element, product_state, validate_state

DEFAULT_SEED = 0

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _fmt(x) -> str:
    return f"{float(x):.12g}"


class OutputError(Exception):
    """The ``--output`` file cannot be written; a usage error."""


def _write_csv(path, header, rows, meta):
    lines = [f"# {key}: {value}" for key, value in meta]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, (int, float, np.floating)) else str(v)
                              for v in row))
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


class _Config(configparser.ConfigParser):
    """A parsed config file whose values are read with a cast and a default."""

    def value(self, section, key, cast=float, default=None):
        if not self.has_option(section, key):
            if default is None:
                raise ValueError(f"missing key '{key}' in section [{section}]")
            return default
        try:
            return cast(self.get(section, key))
        except (ValueError, configparser.Error) as exc:
            raise ValueError(f"bad value for [{section}] {key}: {exc}") from exc


class System(NamedTuple):
    """What a detector family builds from a config.

    ``closed_form()`` returns the asymptotic metadata (or None) and t -> p_0..p_n.
    It is None without a closed form, and lazy: it may reject a config that
    integrates fine.
    """

    couplings: list
    rho_q: np.ndarray
    classical_dim: int
    closed_form: Callable | None


def _binary(config, dim):
    get = config.value
    idx = get("detector", "projector", int, 0)
    spec = BinaryDetectorSpec(get("detector", "k1"), get("detector", "k2"),
                              basis_projector(dim, idx))
    a0 = get("signal", "aligned", default=1.0)
    b0 = get("signal", "orthogonal", default=0.0)
    if b0 > 0 and dim < 2:
        raise ValueError("orthogonal weight needs quantum dim >= 2")
    if 1.0 - a0 - b0 > 1e-12:
        raise ValueError("binary signal weights must sum to 1")
    rho_q = a0 * spec.e
    if b0 > 0:
        rho_q = rho_q + b0 * basis_projector(dim, (idx + 1) % dim)

    def closed_form():
        sig = SignalDecomposition(a0, b0)
        p0_inf, p1_inf = binary_asymptotic(spec, sig)
        return (f"p_0={_fmt(p0_inf)} p_1={_fmt(p1_inf)}",
                lambda t: binary_trajectory(spec, sig, t))

    return System([spec.coupling()], rho_q, 2, closed_form)


def _two_state(config, dim):
    get = config.value
    constants = [get("detector", key) for key in ("k1", "k2", "n1", "n2")]
    i2 = get("detector", "projector2", int, 0)
    i3 = get("detector", "projector3", int, 1)
    spec = TwoStateDetectorSpec(*constants, basis_projector(dim, i2), basis_projector(dim, i3))
    a0 = get("signal", "aligned", default=1.0)
    b0 = get("signal", "orthogonal", default=0.0)
    rho_q = a0 * spec.e2 + b0 * spec.e3
    rest = 1.0 - a0 - b0
    if rest > 1e-12:
        # the inert weight goes on the highest basis index neither projector uses
        free = [i for i in range(dim) if i not in (i2, i3)]
        if not free:
            raise ValueError("inert weight needs quantum dim >= 3")
        rho_q = rho_q + rest * basis_projector(dim, free[-1])

    def closed_form():
        p1_inf, p2_inf, eff = two_state_asymptotic(spec, a0, b0)
        return (f"p_1={_fmt(p1_inf)} p_2={_fmt(p2_inf)} efficiency={_fmt(eff)}",
                lambda t: two_state_trajectory(spec, a0, b0, t))

    return System(spec.couplings(), rho_q, 3, closed_form)


def _n_state(config, dim):
    get = config.value
    channels = get("detector", "channels", int)
    if not 1 <= channels <= dim:
        raise ValueError(f"channels = {channels} must lie in 1..{dim}, the quantum dim")
    spec = NStateDetectorSpec(get("detector", "k"),
                              tuple(basis_projector(dim, i) for i in range(channels)))
    aligned = get("detector", "aligned_channel", int, 0)
    if not 0 <= aligned < channels:
        raise ValueError("aligned_channel out of range")
    return System(spec.couplings(), basis_projector(dim, aligned), channels + 1,
                  lambda: (f"p_{aligned + 1}=1", lambda t: n_state_trajectory(spec, aligned, t)))


def _weighted_signal(config, dim, default_weights=None):
    """Diagonal ``weights`` plus named coherences ``offdiag_i_j``, as a matrix."""
    weights = config.value("signal", "weights", lambda raw: [float(v) for v in raw.split(",")],
                           default_weights)
    if len(weights) > dim:
        raise ValueError(f"{len(weights)} signal weights for quantum dim {dim}")
    rho_q = np.zeros((dim, dim), dtype=complex)
    for i, w in enumerate(weights):
        rho_q += w * basis_projector(dim, i)
    for key in config.options("signal") if config.has_section("signal") else ():
        if key.startswith("offdiag_"):
            try:
                _, i, j = key.split("_")
                unit = offdiagonal_element(dim, int(i), int(j))
            except ValueError as exc:
                raise ValueError(f"bad off-diagonal key '{key}': {exc}") from exc
            rho_q += config.value("signal", key) * unit
    return rho_q


def _filter(config, dim):
    spec = FilterSpec(config.value("detector", "k"),
                      basis_projector(dim, config.value("detector", "projector", int, 0)))
    rho_q = _weighted_signal(config, dim)
    q1 = float(np.trace(spec.e1 @ rho_q).real)  # the weight on the detector projector
    return System([spec.coupling()], rho_q, 2,
                  lambda: (None, lambda t: filter_classical_output(1.0, 0.0, q1, spec.k, t)))


def _none(config, dim):
    classical_dim = config.value("detector", "classical_dim", int, 2)
    if classical_dim < 1:
        raise ValueError("classical_dim must be at least 1")
    return System([], _weighted_signal(config, dim, [1.0]), classical_dim, None)


# Detector family -> builder(config, quantum dim) -> System.  A family's
# config keys are read in its builder and nowhere else.
FAMILIES = {
    "binary": _binary,
    "two_state": _two_state,
    "n_state": _n_state,
    "filter": _filter,
    "none": _none,
}


def _build_system(config):
    """Detector family, its System and the initial hybrid state of a config."""
    family = config.value("detector", "family", str)
    if family not in FAMILIES:
        raise ValueError(f"unknown detector family '{family}'")
    system = FAMILIES[family](config, config.value("detector", "dim", int, 2))
    state = product_state(system.rho_q, np.eye(system.classical_dim)[0])  # p = (1, 0, ...)
    report = validate_state(state)
    if not report.ok:
        raise ValueError(f"signal is not a density matrix: Hermiticity deviation "
                         f"{report.hermiticity_deviation:.3g}, min eigenvalue "
                         f"{report.min_eigenvalue:.3g}")
    return family, system, state


def _load_system(path):
    """Config hash, family, System, initial state and EvolutionConfig of a file."""
    config = _Config()
    try:
        with open(path) as fh:
            raw = fh.read()
        config.read_string(raw, source=path)
    except (OSError, configparser.Error) as exc:
        raise ValueError(f"cannot read config: {exc}") from exc
    family, system, state = _build_system(config)
    evolution = EvolutionConfig(
        step=config.value("evolution", "step", default=0.005),
        duration=config.value("evolution", "duration", default=10.0),
        record_every=config.value("evolution", "record_every", int, 10),
    )
    digest = hashlib.sha256(raw.encode()).hexdigest()[:16]
    return digest, family, system, state, evolution


def _write_system_csv(args, digest, family, system, rows, columns=(), meta=()):
    """CSV of t, p_0..p_n and `columns`, with the metadata of simulate and efficiency."""
    header = ["t"] + [f"p_{i}" for i in range(system.classical_dim)] + list(columns)
    _write_csv(args.output, header, rows,
               [("tool", f"eeqt {__version__}"), ("command", args.command),
                ("config_sha256", digest), ("seed", args.seed), ("family", family), *meta])


def _cmd_simulate(args):
    digest, family, system, state, cfg = _load_system(args.config)
    traj = evolve(state, couplings=system.couplings, config=cfg)
    _write_system_csv(args, digest, family, system, trajectory_rows(traj),
                      ["trace_drift", "min_eigenvalue"])
    return EXIT_OK


def _cmd_efficiency(args):
    digest, family, system, _, cfg = _load_system(args.config)
    if system.closed_form is None:
        raise ValueError(f"family '{family}' has no closed form")
    asymptotic, probabilities = system.closed_form()
    times = [step * cfg.step for step in cfg.record_steps()]  # the grid evolve records
    rows = [(t, *probabilities(t)) for t in times]
    if not np.isfinite(rows).all():
        raise FloatingPointError("closed form is not finite; a constant is too large "
                                 "or too small to represent")
    _write_system_csv(args, digest, family, system, rows,
                      meta=[("asymptotic", asymptotic)] if asymptotic is not None else [])
    return EXIT_OK


def _orthogonal_entries(pattern, rng):
    """Instantiate a catalogue pattern with orthogonal random projectors."""
    dim = 4
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(mat)
    positions = sorted(pattern.support)
    return {
        pos: np.outer(q[:, k], q[:, k].conj()) for k, pos in enumerate(positions)
    }


def _cmd_validate(args):
    rng = np.random.default_rng(args.seed)
    rows = []
    report_lines = []
    for dim in (2, 3):
        for pattern in enumerate_admissible_patterns(dim):
            coupling = pattern.instantiate(_orthogonal_entries(pattern, rng))
            cp = check_cp_conditions([coupling])
            cls = (admissible_2x2 if dim == 2 else admissible_3x3)(coupling)
            topology = TOPOLOGY_BY_TAG[cls.tag].value if cls.tag in TOPOLOGY_BY_TAG else ""
            support = ";".join(f"{a}{b}" for a, b in sorted(pattern.support))
            rows.append((dim, pattern.label, support,
                         cls.tag.name if cls.tag else "REJECTED",
                         topology, "yes" if cp.ok else "no",
                         pattern.duplicate_of or ""))
            report_lines.append(
                f"dim {dim} pattern {pattern.label:<20} tag={rows[-1][3]:<12} "
                f"topology={topology or '-':<24} cp={'pass' if cp.ok else 'FAIL'}"
                + (f" duplicate of {pattern.duplicate_of}" if pattern.duplicate_of else "")
            )
    meta = [("tool", f"eeqt {__version__}"), ("command", "validate"),
            ("seed", args.seed)]
    header = ["classical_dim", "pattern", "support", "tag", "topology", "cp_pass",
              "duplicate_of"]
    _write_csv(args.output, header, rows, meta)
    print("\n".join(report_lines))
    return EXIT_OK


def _scenario_from_args(args):
    return TransmissionScenario(
        rho1=args.rho1,
        eta_det=args.eff,
        accuracy=args.accuracy,
        confidence_target=args.confidence,
        margin=args.margin,
    )


def _cmd_plan(args):
    scenario = _scenario_from_args(args)
    results, first = scan_plan(scenario, args.m_max)
    rows = []
    for r in results:
        lo = r.advantageous.start if len(r.advantageous) else ""
        hi = r.advantageous[-1] if len(r.advantageous) else ""
        rows.append((r.m, r.i_minus, r.i_plus, lo, hi, r.confidence))
    flag_string = (f"rho1={_fmt(scenario.rho1)} eff={_fmt(scenario.eta_det)} "
                   f"accuracy={_fmt(scenario.accuracy)} margin={_fmt(scenario.margin)} "
                   f"confidence={_fmt(scenario.confidence_target)} m_max={args.m_max}")
    digest = hashlib.sha256(flag_string.encode()).hexdigest()[:16]
    meta = [("tool", f"eeqt {__version__}"), ("command", "plan"),
            ("config_sha256", digest), ("seed", args.seed), ("scenario", flag_string)]
    header = ["m", "i_minus", "i_plus", "set_lo", "set_hi", "confidence"]
    _write_csv(args.output, header, rows, meta)
    if first is None:
        print(f"no m <= {args.m_max} reaches confidence "
              f"{scenario.confidence_target:g} (minimal m = {minimal_m(scenario)})")
    else:
        r = next(r for r in results if r.m == first)
        print(f"minimal m = {minimal_m(scenario)}; first m with confidence >= "
              f"{scenario.confidence_target:g} is {first} "
              f"(confidence {r.confidence:.4f}, counts "
              f"{{{r.advantageous.start}..{r.advantageous[-1]}}})")
    return EXIT_OK


def _reproduction_rows():
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
    e = basis_projector(2, 0)
    spec = BinaryDetectorSpec(1.0, 1.0, e)
    state = product_state(e, [1.0, 0.0])
    traj = evolve(state, couplings=[spec.coupling()],
                  config=EvolutionConfig(step=0.005, duration=12.0, record_every=200))
    yield ("binary k1=k2 registered probability", float(traj.probabilities()[-1, 1]),
           0.5, 1e-4)

    # n-state detector: unit asymptotic efficiency regardless of channel count
    for channels in (1, 2, 5):
        spec_n = NStateDetectorSpec(1.0, tuple(basis_projector(5, i)
                                               for i in range(channels)))
        yield (f"n-state p_j(10), {channels} channels",
               float(n_state_trajectory(spec_n, 0, 10.0)[1]), 1.0, 1e-4)


def _cmd_reproduce(args):
    failures = 0
    print(f"{'quantity':<40} {'computed':>22} {'expected':>18}  result")
    for name, computed, expected, tol in _reproduction_rows():
        if isinstance(expected, list):
            ok = list(computed) == expected
            shown = "{" + ",".join(str(v) for v in computed) + "}"
            shown_exp = "{" + ",".join(str(v) for v in expected) + "}"
        elif tol == 0:
            ok = computed == expected
            shown, shown_exp = str(computed), str(expected)
        else:
            ok = abs(computed - expected) <= tol
            shown, shown_exp = f"{computed:.6g}", f"{expected:g} +/- {tol:g}"
        failures += not ok
        print(f"{name:<40} {shown:>22} {shown_exp:>18}  {'pass' if ok else 'FAIL'}")
    if failures:
        print(f"{failures} row(s) failed")
        return EXIT_NUMERIC
    print("all rows pass")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eeqt",
        description="Discrete quantum-classical detector simulation and "
                    "transmission planning.",
    )
    parser.add_argument("--version", action="version", version=f"eeqt {__version__}")
    sub = parser.add_subparsers(dest="command")

    for name, func, text in (("simulate", _cmd_simulate, "integrate a configured system"),
                             ("efficiency", _cmd_efficiency, "closed-form detector solutions")):
        p_sys = sub.add_parser(name, help=text)
        p_sys.add_argument("--config", required=True)
        p_sys.add_argument("--output", default="-")
        p_sys.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p_sys.set_defaults(func=func)

    p_val = sub.add_parser("validate", help="coupling shape catalogue report")
    p_val.add_argument("--output", default="-")
    p_val.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_val.set_defaults(func=_cmd_validate)

    p_plan = sub.add_parser("plan", help="transmission planning scan")
    p_plan.add_argument("--rho1", type=float, required=True)
    p_plan.add_argument("--eff", type=float, required=True)
    p_plan.add_argument("--accuracy", type=float, required=True)
    p_plan.add_argument("--margin", type=float, default=None)
    p_plan.add_argument("--confidence", type=float, required=True)
    p_plan.add_argument("--m-max", type=int, default=100)
    p_plan.add_argument("--output", default="-")
    p_plan.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_plan.set_defaults(func=_cmd_plan)

    p_rep = sub.add_parser("reproduce", help="recompute reference values")
    p_rep.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        if not hasattr(args, "config"):  # plan rejects a flag value
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"config error: {args.config}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TraceDriftError, ArithmeticError) as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
