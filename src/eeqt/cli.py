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

Exit codes: 0 success, 1 usage error, 2 config error, 3 numerical-guard or
reproduction failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import sys

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
from .shapes import (
    ShapeTag3x3,
    admissible_2x2,
    admissible_3x3,
    classify_topology,
    enumerate_admissible_patterns,
)
from .states import basis_projector, offdiagonal_element, product_state

DEFAULT_SEED = 0

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(Exception):
    pass


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _write_csv(path, header, rows, meta):
    lines = [f"# {key}: {value}" for key, value in meta]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, (int, float, np.floating)) else str(v)
                              for v in row))
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_config(path):
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            raw = fh.read()
        parser.read_string(raw, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    digest = hashlib.sha256(raw.encode()).hexdigest()[:16]
    return parser, digest


def _get(parser, section, key, cast=float, default=None, path="config"):
    if not parser.has_section(section):
        if default is not None:
            return default
        raise ConfigError(f"{path}: missing section [{section}]")
    if not parser.has_option(section, key):
        if default is not None:
            return default
        raise ConfigError(f"{path}: missing key '{key}' in section [{section}]")
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"{path}: bad value for [{section}] {key} = {raw!r}") from exc


def _signal_weights(parser, dim, path):
    raw = _get(parser, "signal", "weights", cast=str, default="", path=path)
    if raw:
        weights = [float(v) for v in raw.split(",")]
    else:
        weights = []
    if len(weights) > dim:
        raise ConfigError(f"{path}: {len(weights)} signal weights for quantum dim {dim}")
    offdiag = {}
    if parser.has_section("signal"):
        for key, value in parser.items("signal"):
            if key.startswith("offdiag_"):
                try:
                    _, i, j = key.split("_")
                    i, j = int(i), int(j)
                except ValueError as exc:
                    raise ConfigError(f"{path}: bad off-diagonal key '{key}'") from exc
                if not (0 <= i < dim and 0 <= j < dim) or i == j:
                    raise ConfigError(f"{path}: off-diagonal indices {key} out of range")
                offdiag[(i, j)] = float(value)
    return weights, offdiag


def _build_system(parser, path):
    """Detector couplings plus the initial quantum state from a config."""
    family = _get(parser, "detector", "family", cast=str, path=path)
    dim = _get(parser, "detector", "dim", cast=int, default=2, path=path)
    if family == "binary":
        k1 = _get(parser, "detector", "k1", path=path)
        k2 = _get(parser, "detector", "k2", path=path)
        idx = _get(parser, "detector", "projector", cast=int, default=0, path=path)
        spec = BinaryDetectorSpec(k1, k2, basis_projector(dim, idx))
        a0 = _get(parser, "signal", "aligned", default=1.0, path=path)
        b0 = _get(parser, "signal", "orthogonal", default=0.0, path=path)
        if b0 > 0 and dim < 2:
            raise ConfigError(f"{path}: orthogonal weight needs quantum dim >= 2")
        rho_q = a0 * basis_projector(dim, idx)
        if b0 > 0:
            rho_q = rho_q + b0 * basis_projector(dim, (idx + 1) % dim)
        rest = 1.0 - a0 - b0
        if rest > 1e-12:
            raise ConfigError(f"{path}: binary signal weights must sum to 1")
        couplings = [spec.coupling()]
        n_class = 2
    elif family == "two_state":
        spec = TwoStateDetectorSpec(
            _get(parser, "detector", "k1", path=path),
            _get(parser, "detector", "k2", path=path),
            _get(parser, "detector", "n1", path=path),
            _get(parser, "detector", "n2", path=path),
            basis_projector(dim, _get(parser, "detector", "projector2", cast=int,
                                      default=0, path=path)),
            basis_projector(dim, _get(parser, "detector", "projector3", cast=int,
                                      default=1, path=path)),
        )
        a0 = _get(parser, "signal", "aligned", default=1.0, path=path)
        b0 = _get(parser, "signal", "orthogonal", default=0.0, path=path)
        rho_q = a0 * spec.e2 + b0 * spec.e3
        rest = 1.0 - a0 - b0
        if rest > 1e-12:
            if dim < 3:
                raise ConfigError(f"{path}: inert weight needs quantum dim >= 3")
            rho_q = rho_q + rest * basis_projector(dim, dim - 1)
        couplings = spec.couplings()
        n_class = 3
    elif family == "n_state":
        channels = _get(parser, "detector", "channels", cast=int, path=path)
        if channels > dim:
            raise ConfigError(f"{path}: {channels} channels need quantum dim >= {channels}")
        spec = NStateDetectorSpec(
            _get(parser, "detector", "k", path=path),
            tuple(basis_projector(dim, i) for i in range(channels)),
        )
        aligned = _get(parser, "detector", "aligned_channel", cast=int, default=0,
                       path=path)
        if not 0 <= aligned < channels:
            raise ConfigError(f"{path}: aligned_channel out of range")
        rho_q = basis_projector(dim, aligned)
        couplings = spec.couplings()
        n_class = channels + 1
    elif family == "filter":
        idx = _get(parser, "detector", "projector", cast=int, default=0, path=path)
        spec = FilterSpec(_get(parser, "detector", "k", path=path),
                          basis_projector(dim, idx))
        weights, offdiag = _signal_weights(parser, dim, path)
        if not weights:
            raise ConfigError(f"{path}: filter signal needs a 'weights' list")
        rho_q = np.zeros((dim, dim), dtype=complex)
        for i, w in enumerate(weights):
            rho_q += w * basis_projector(dim, i)
        for (i, j), w in offdiag.items():
            rho_q += w * offdiagonal_element(dim, i, j)
        couplings = [spec.coupling()]
        n_class = 2
    elif family == "none":
        weights, offdiag = _signal_weights(parser, dim, path)
        rho_q = np.zeros((dim, dim), dtype=complex)
        for i, w in enumerate(weights or [1.0]):
            rho_q += w * basis_projector(dim, i)
        for (i, j), w in offdiag.items():
            rho_q += w * offdiagonal_element(dim, i, j)
        spec = None
        couplings = []
        n_class = _get(parser, "detector", "classical_dim", cast=int, default=2,
                       path=path)
    else:
        raise ConfigError(f"{path}: unknown detector family '{family}'")
    tr = np.trace(rho_q).real
    if abs(tr - 1.0) > 1e-9:
        raise ConfigError(f"{path}: signal weights give trace {tr:.6g}, expected 1")
    p = np.zeros(n_class)
    p[0] = 1.0
    state = product_state(rho_q, p)
    return family, spec, couplings, state


def _evolution_config(parser, path):
    return EvolutionConfig(
        step=_get(parser, "evolution", "step", default=0.005, path=path),
        duration=_get(parser, "evolution", "duration", default=10.0, path=path),
        record_every=_get(parser, "evolution", "record_every", cast=int, default=10,
                          path=path),
    )


def _cmd_simulate(args):
    parser, digest = _load_config(args.config)
    family, _, couplings, state = _build_system(parser, args.config)
    cfg = _evolution_config(parser, args.config)
    traj = evolve(state, couplings=couplings, config=cfg)
    n = state.classical_dim
    header = ["t"] + [f"p_{i}" for i in range(n)] + ["trace_drift", "min_eigenvalue"]
    meta = [("tool", f"eeqt {__version__}"), ("command", "simulate"),
            ("config_sha256", digest), ("seed", args.seed), ("family", family)]
    _write_csv(args.output, header, trajectory_rows(traj), meta)
    return EXIT_OK


def _cmd_efficiency(args):
    parser, digest = _load_config(args.config)
    family, spec, _, state = _build_system(parser, args.config)
    cfg = _evolution_config(parser, args.config)
    times = np.arange(0.0, cfg.duration + 0.5 * cfg.step * cfg.record_every,
                      cfg.step * cfg.record_every)
    meta = [("tool", f"eeqt {__version__}"), ("command", "efficiency"),
            ("config_sha256", digest), ("seed", args.seed), ("family", family)]
    path = args.config
    if family == "binary":
        sig = SignalDecomposition(
            _get(parser, "signal", "aligned", default=1.0, path=path),
            _get(parser, "signal", "orthogonal", default=0.0, path=path),
        )
        p0_inf, p1_inf = binary_asymptotic(spec, sig)
        meta.append(("asymptotic", f"p_0={_fmt(p0_inf)} p_1={_fmt(p1_inf)}"))
        rows = [(t, *binary_trajectory(spec, sig, t)) for t in times]
        header = ["t", "p_0", "p_1"]
    elif family == "two_state":
        a0 = _get(parser, "signal", "aligned", default=1.0, path=path)
        b0 = _get(parser, "signal", "orthogonal", default=0.0, path=path)
        p1_inf, p2_inf, eff = two_state_asymptotic(spec, a0, b0)
        meta.append(("asymptotic",
                     f"p_1={_fmt(p1_inf)} p_2={_fmt(p2_inf)} efficiency={_fmt(eff)}"))
        rows = [(t, *two_state_trajectory(spec, a0, b0, t)) for t in times]
        header = ["t", "p_0", "p_1", "p_2"]
    elif family == "n_state":
        aligned = _get(parser, "detector", "aligned_channel", cast=int, default=0,
                       path=path)
        meta.append(("asymptotic", f"p_{aligned + 1}=1"))
        rows = [(t, *n_state_trajectory(spec, aligned, t)) for t in times]
        header = ["t"] + [f"p_{i}" for i in range(spec.n_channels + 1)]
    elif family == "filter":
        # weight on the detector projector; the initial state is p = (1, 0, ...)
        q1 = float(np.trace(spec.e1 @ state.blocks[0]).real)
        rows = [(t, *filter_classical_output(1.0, 0.0, q1, spec.k, t)) for t in times]
        header = ["t", "p_0", "p_1"]
    else:
        raise ConfigError(f"{path}: family '{family}' has no closed form")
    _write_csv(args.output, header, rows, meta)
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
            if dim == 2:
                cls = admissible_2x2(coupling)
                topology = ""
            else:
                cls = admissible_3x3(coupling)
                topology = (classify_topology(cls.tag).value
                            if cls.tag in ShapeTag3x3.__members__.values()
                            and cls.tag not in (ShapeTag3x3.DIAGONAL,
                                                ShapeTag3x3.INADMISSIBLE)
                            else "")
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

    p_sim = sub.add_parser("simulate", help="integrate a configured system")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--output", default="-")
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sim.set_defaults(func=_cmd_simulate)

    p_eff = sub.add_parser("efficiency", help="closed-form detector solutions")
    p_eff.add_argument("--config", required=True)
    p_eff.add_argument("--output", default="-")
    p_eff.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_eff.set_defaults(func=_cmd_efficiency)

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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TraceDriftError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
