"""Command-line entry point.

Subcommands
-----------
simulate    integrate a configured detector system, write a trajectory CSV
efficiency  evaluate the closed-form detector solutions on a time grid
validate    enumerate coupling shapes, check them structurally, write a CSV
plan        transmission planning scan over the number of generated states
reproduce   recompute the reference worked-example values and report pass/fail

All CSV output starts with '#'-prefixed metadata lines (tool version, config
hash, random seed) so identical inputs produce byte-identical files.  The
body goes through one %-template per file, ``%.12g`` for numeric columns and
``%s`` for text ones (only ``validate`` has any); every command hands over
an iterable of rows, formatted a block of rows at a time.  The bytes are
those of formatting each value with ``_fmt``.

``simulate`` and ``efficiency`` read an INI config whose ``[detector] family``
names an entry of ``FAMILIES``.  That entry is the only code that reads the
family's keys.  It checks them without numpy and returns a ``Family``: the
classical dimension, the quantum signal and the coupling table as numbers, a
lazily evaluated closed form and the format of its t = inf metadata.  Both
commands refuse a config with the same message.  Every ValueError raised
while serving a config, from a missing key to a signal that is not a density
matrix or a duration the step does not divide, is a config error.

With the default ``--output -`` the CSV goes to stdout and the summaries of
``plan`` and ``validate`` go to stderr, so stdout holds nothing but the CSV;
with an output file they go to stdout.

No command loads numpy below ``limits.JACOBI_PRICE``; argparse answers
``--version``, ``--help`` and usage errors without any eeqt module.
``efficiency`` evaluates the closed forms on ``math``, ``simulate`` (and
``reproduce``'s binary row) propagates sector by sector with ``sectors``.
Both check the signal with ``limits.check_signal``, whose smallest
eigenvalue is the one ``simulate`` computes for every record.  Either loads
numpy only for eigenvalues whose Jacobi sweeps would cost more than the
import: in the signal, a coherence component of 45 or more indices; in
``simulate``'s records besides, a component of 3 or more on a long run.
No command loads OpenSSL (through ``hashlib``) or ``numpy.random``.  A
process runs ``console_main``, which is ``main`` with the cyclic garbage
collector off.

Exit codes: 0 success, 1 usage error (including a bad ``plan`` flag, NaN
among them, an ``--output`` that cannot be written and a stdout that cannot
be written, even by ``--help`` or ``--version``, or that a reader closed
early), 2 config error (including a config whose arrays do not fit in
memory), 3 numerical-guard or reproduction failure (including arithmetic
that overflows, a generator or closed form that is not finite and a record
that is not positive).
"""

from __future__ import annotations

import argparse
import configparser
import functools
import gc
import importlib
import itertools
import math
import os
import sys
from typing import Callable, NamedTuple

from . import __version__

# Library names the commands use, by module.  Each command imports only the
# modules it runs and binds their names here with ``_library``, so ``eeqt
# plan`` never loads the integrator and ``--version`` loads no eeqt module.
_LIBRARY = {
    "limits": ("EvolutionConfig", "check_basis_index", "check_offdiagonal_index",
               "check_record_memory", "check_signal", "signal_entries"),
    "evolution": ("evolve", "trajectory_rows"),
    "detectors": ("BinaryConstants", "FilterConstants", "NStateConstants",
                  "SignalDecomposition", "TwoStateConstants", "binary_trajectory",
                  "check_basis_orthogonal", "filter_classical_output", "n_state_trajectory",
                  "two_state_trajectory"),
    "sectors": ("sector_columns",),
    "shapes": ("TOPOLOGY_BY_TAG", "classify_2x2", "classify_3x3",
               "enumerate_admissible_patterns"),
    "planner": ("TransmissionScenario", "di_confirmation_count", "minimal_m", "plan_for_m",
                "scan_rows"),
}


def _library(*modules):
    """Import `modules` and bind their ``_LIBRARY`` names in this module.

    A name that is already bound keeps its value, so a wrapper set on this
    module from outside (``cli.evolve = traced``) is what the commands call.
    """
    for module in modules:
        source = importlib.import_module(f".{module}", __package__)
        for name in _LIBRARY[module]:
            globals().setdefault(name, getattr(source, name))


def __getattr__(name):
    """A library name read from outside before a command has bound it."""
    for module, names in _LIBRARY.items():
        if name in names:
            _library(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


DEFAULT_SEED = 0

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


# A block of rows is formatted, then written at once.  One write much longer
# than a 64 KiB pipe can end without BrokenPipeError after the reader closed,
# so a block holds at most this many fields: 64 KiB at 20 bytes a field, the
# widest %.12g number (19 characters) and its comma.
CSV_BLOCK_FIELDS = 2 ** 16 // 20


def _digest(text: str) -> str:
    """The 16-hex-digit SHA-256 prefix that names a config or a flag set in the metadata.

    The hash comes from CPython's builtin SHA-256 module (``_sha2`` from 3.12,
    ``_sha256`` before), which does not load OpenSSL as ``hashlib`` does;
    ``hashlib`` serves only where neither exists.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(text.encode()).hexdigest()[:16]


def _fmt(x) -> str:
    """A metadata number; ``"%.12g" % x`` gives the same text for every float and int."""
    return f"{float(x):.12g}"


class OutputError(Exception):
    """The ``--output`` file cannot be written; a usage error."""


def _summary(args, text):
    """Print a command's summary: on stdout, or on stderr when the CSV goes to stdout."""
    print(text, file=sys.stderr if args.output == "-" else sys.stdout)


def _write_csv(args, header, rows, digest=None, meta=(), text=()):
    """CSV to ``args.output`` after the metadata: tool, command, digest (if any), seed, `meta`.

    Each row goes through one template: ``%s`` in the columns named in `text`,
    ``%.12g`` in the others.  `rows` is any iterable of rows, formatted
    CSV_BLOCK_FIELDS // len(header) rows at a time (at least one).  The whole
    text is formatted before the file is opened.
    """
    meta = [("tool", f"eeqt {__version__}"), ("command", args.command),
            *([] if digest is None else [("config_sha256", digest)]),
            ("seed", args.seed), *meta]
    parts = [f"# {key}: {value}\n" for key, value in meta] + [",".join(header) + "\n"]
    template = ",".join("%s" if name in text else "%.12g" for name in header) + "\n"
    size = max(1, CSV_BLOCK_FIELDS // len(header))
    rows = iter(rows)
    blocks = iter(lambda: list(itertools.islice(rows, size)), [])
    parts += ["".join([template % tuple(row) for row in block]) for block in blocks]
    if args.output == "-":
        sys.stdout.writelines(parts)
        return
    try:
        with open(args.output, "w") as fh:
            fh.writelines(parts)
    except OSError as exc:
        raise OutputError(f"cannot write {args.output}: {exc.strerror or exc}") from exc


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


class Family(NamedTuple):
    """What a detector family reads and checks in a config, without numpy.

    The quantum signal is ``weights`` on the diagonal (basis index ->
    weight) plus ``coherences``, the ``offdiag_i_j`` entries as ((i, j),
    value) pairs in config order.  ``couplings`` is the coupling table that
    ``sectors.sector_columns`` reads: one tuple of ((gamma, alpha), {m: v})
    block entries per coupling, each block the diagonal matrix with entries
    v at basis indices m.  ``closed_form`` returns the map from a time t to
    (p_0, ..., p_n) on the family's constants; only ``efficiency`` calls
    it, after every check ``simulate`` makes, so its own checks may reject a
    config that integrates fine.
    ``asymptotic`` formats those values at t = inf for the metadata.  Either
    is None when the family has none.
    """

    classical_dim: int
    weights: dict
    coherences: tuple
    couplings: tuple
    closed_form: Callable | None = None
    asymptotic: Callable | None = None


def _binary(config, dim):
    get = config.value
    idx = get("detector", "projector", int, 0)
    k1, k2 = get("detector", "k1"), get("detector", "k2")
    check_basis_index(dim, idx)
    constants = BinaryConstants(k1, k2)
    a0 = get("signal", "aligned", default=1.0)
    b0 = get("signal", "orthogonal", default=0.0)
    if b0 > 0 and dim < 2:
        raise ValueError("orthogonal weight needs quantum dim >= 2")
    if 1.0 - a0 - b0 > 1e-12:
        raise ValueError("binary signal weights must sum to 1")
    weights = {idx: a0, **({(idx + 1) % dim: b0} if b0 > 0 else {})}
    return Family(2, weights, (), ((((0, 1), {idx: k1}), ((1, 0), {idx: k2})),),
                  lambda: functools.partial(binary_trajectory, constants,
                                            SignalDecomposition(a0, b0)),
                  lambda p: f"p_0={_fmt(p[0])} p_1={_fmt(p[1])}")


def _two_state(config, dim):
    get = config.value
    k = [get("detector", key) for key in ("k1", "k2", "n1", "n2")]
    i2 = get("detector", "projector2", int, 0)
    i3 = get("detector", "projector3", int, 1)
    check_basis_index(dim, i2)
    check_basis_index(dim, i3)
    constants = TwoStateConstants(*k)
    check_basis_orthogonal({"e2": i2, "e3": i3})
    a0 = get("signal", "aligned", default=1.0)
    b0 = get("signal", "orthogonal", default=0.0)
    weights = {i2: a0, i3: b0}
    rest = 1.0 - a0 - b0
    if rest > 1e-12:
        # the inert weight goes on the highest basis index neither projector uses
        free = [i for i in range(dim) if i not in (i2, i3)]
        if not free:
            raise ValueError("inert weight needs quantum dim >= 3")
        weights[free[-1]] = rest
    couplings = ((((0, 1), {i2: k[0]}), ((1, 0), {i2: k[1]})),
                 (((0, 2), {i3: k[2]}), ((2, 0), {i3: k[3]})))
    return Family(3, weights, (), couplings,
                  lambda: functools.partial(two_state_trajectory, constants, a0, b0),
                  lambda p: f"p_1={_fmt(p[1])} p_2={_fmt(p[2])} efficiency={_fmt(p[1] + p[2])}")


def _n_state(config, dim):
    get = config.value
    channels = get("detector", "channels", int)
    if not 1 <= channels <= dim:
        raise ValueError(f"channels = {channels} must lie in 1..{dim}, the quantum dim")
    constants = NStateConstants(get("detector", "k"), channels)
    aligned = get("detector", "aligned_channel", int, 0)
    if not 0 <= aligned < channels:
        raise ValueError("aligned_channel out of range")
    root_k = math.sqrt(constants.k)
    return Family(channels + 1, {aligned: 1.0}, (),
                  tuple((((0, i + 1), {i: root_k}),) for i in range(channels)),
                  lambda: functools.partial(n_state_trajectory, constants, aligned),
                  lambda p: f"p_{aligned + 1}={_fmt(p[aligned + 1])}")


def _weighted_signal(config, dim, default_weights=None):
    """Diagonal ``weights``, by basis index, and the ``offdiag_i_j`` coherences of [signal]."""
    weights = config.value("signal", "weights", lambda raw: [float(v) for v in raw.split(",")],
                           default_weights)
    if len(weights) > dim:
        raise ValueError(f"{len(weights)} signal weights for quantum dim {dim}")
    coherences = []
    for key in config.options("signal") if config.has_section("signal") else ():
        if key.startswith("offdiag_"):
            try:
                _, i, j = key.split("_")
                i, j = int(i), int(j)
                check_offdiagonal_index(dim, i, j)
            except ValueError as exc:
                raise ValueError(f"bad off-diagonal key '{key}': {exc}") from exc
            coherences.append(((i, j), config.value("signal", key)))
    return dict(enumerate(weights)), tuple(coherences)


def _filter(config, dim):
    k = config.value("detector", "k")
    projector = config.value("detector", "projector", int, 0)
    check_basis_index(dim, projector)
    FilterConstants(k)  # the checks of the rate
    weights, coherences = _weighted_signal(config, dim)
    q1 = weights.get(projector, 0.0)  # tr(e1 rho_q), the weight on the detector projector
    root_k = math.sqrt(k)
    return Family(2, weights, coherences,
                  ((((0, 1), {projector: root_k}), ((1, 0), {projector: root_k})),),
                  lambda: functools.partial(filter_classical_output, 1.0, 0.0, q1, k))


def _none(config, dim):
    classical_dim = config.value("detector", "classical_dim", int, 2)
    if classical_dim < 1:
        raise ValueError("classical_dim must be at least 1")
    return Family(classical_dim, *_weighted_signal(config, dim, [1.0]), ())


# Detector family -> reader(config, quantum dim) -> Family.  A family's
# config keys are read in its reader and nowhere else.
FAMILIES = {
    "binary": _binary,
    "two_state": _two_state,
    "n_state": _n_state,
    "filter": _filter,
    "none": _none,
}


def _read_config(path):
    """Config hash and parsed config of a file."""
    config = _Config()
    try:
        with open(path) as fh:
            raw = fh.read()
        config.read_string(raw, source=path)
    except (OSError, configparser.Error) as exc:
        raise ValueError(f"cannot read config: {exc}") from exc
    return _digest(raw), config


def _read_family(config):
    """Detector family name, quantum dim and Family of a config, without numpy."""
    family = config.value("detector", "family", str)
    if family not in FAMILIES:
        raise ValueError(f"unknown detector family '{family}'")
    dim = config.value("detector", "dim", int, 2)
    if dim < 1:
        raise ValueError("dim must be at least 1")
    return family, dim, FAMILIES[family](config, dim)


def _evolution_config(config):
    return EvolutionConfig(
        step=config.value("evolution", "step", default=0.005),
        duration=config.value("evolution", "duration", default=10.0),
        record_every=config.value("evolution", "record_every", int, 10),
    )


def _read_system(path):
    """Config hash, family name, quantum dim, Family and EvolutionConfig of a file, with the
    checks that simulate and efficiency both make, in the same order."""
    digest, config = _read_config(path)
    family, dim, spec = _read_family(config)
    check_signal(dim, spec.classical_dim, spec.weights, spec.coherences)
    return digest, family, dim, spec, _evolution_config(config)


def _write_system_csv(args, digest, family, classical_dim, rows, columns=(), meta=()):
    """CSV of t, p_0..p_n and `columns`, with the metadata of simulate and efficiency."""
    header = ["t"] + [f"p_{i}" for i in range(classical_dim)] + list(columns)
    _write_csv(args, header, rows, digest, [("family", family), *meta])


def _cmd_simulate(args):
    """The records of the coupling table, propagated sector by sector without numpy."""
    _library("limits", "detectors", "sectors")
    digest, family, dim, spec, cfg = _read_system(args.config)
    columns = sector_columns(spec.couplings, signal_entries(spec.weights, spec.coherences),
                            (spec.classical_dim, dim), cfg)
    _write_system_csv(args, digest, family, spec.classical_dim, zip(*columns),
                      ["trace_drift", "min_eigenvalue"])
    return EXIT_OK


def _cmd_efficiency(args):
    """The closed form on simulate's record grid, after simulate's checks, without numpy."""
    _library("limits", "detectors")
    digest, family, dim, spec, cfg = _read_system(args.config)
    if spec.closed_form is None:
        raise ValueError(f"family '{family}' has no closed form")
    check_record_memory(cfg, (spec.classical_dim, dim, dim))  # refuse what simulate refuses
    unrepresentable = FloatingPointError("closed form is not finite; a constant is too "
                                         "large or too small to represent")
    closed_form = spec.closed_form()
    try:  # Python float arithmetic on a rate raises instead of returning inf
        rows = [(t, *closed_form(t)) for t in cfg.record_times()]
    except (OverflowError, ZeroDivisionError) as exc:
        raise unrepresentable from exc
    if not all(map(math.isfinite, itertools.chain.from_iterable(rows))):
        raise unrepresentable
    meta = [] if spec.asymptotic is None else [
        ("asymptotic", spec.asymptotic(closed_form(math.inf)))]
    _write_system_csv(args, digest, family, spec.classical_dim, rows, meta=meta)
    return EXIT_OK


def _cmd_validate(args):
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    _library("shapes")
    rows = []
    report_lines = []
    for dim in (2, 3):
        for pattern in enumerate_admissible_patterns(dim):
            cls = (classify_2x2 if dim == 2 else classify_3x3)(pattern.support)
            # with distinct orthogonal rank-1 projectors only blocks sharing a row fail CP
            cp_pass = len({g for g, _ in pattern.support}) == len(pattern.support)
            topology = TOPOLOGY_BY_TAG[cls.tag].value if cls.tag in TOPOLOGY_BY_TAG else ""
            support = ";".join(f"{a}{b}" for a, b in sorted(pattern.support))
            rows.append((dim, pattern.label, support,
                         cls.tag.name if cls.tag else "REJECTED",
                         topology, "yes" if cp_pass else "no",
                         pattern.duplicate_of or ""))
            report_lines.append(
                f"dim {dim} pattern {pattern.label:<20} tag={rows[-1][3]:<12} "
                f"topology={topology or '-':<24} cp={'pass' if cp_pass else 'FAIL'}"
                + (f" duplicate of {pattern.duplicate_of}" if pattern.duplicate_of else "")
            )
    header = ["classical_dim", "pattern", "support", "tag", "topology", "cp_pass",
              "duplicate_of"]
    _write_csv(args, header, rows, text=header[1:])
    _summary(args, "\n".join(report_lines))
    return EXIT_OK


def _cmd_plan(args):
    _library("planner")
    scenario = TransmissionScenario(args.rho1, args.eff, args.accuracy, args.confidence,
                                    args.margin)
    columns, first = scan_rows(scenario, args.m_max)  # as in the header below
    flag_string = (f"rho1={_fmt(scenario.rho1)} eff={_fmt(scenario.eta_det)} "
                   f"accuracy={_fmt(scenario.accuracy)} margin={_fmt(scenario.margin)} "
                   f"confidence={_fmt(scenario.confidence_target)} m_max={args.m_max}")
    header = ["m", "i_minus", "i_plus", "set_lo", "set_hi", "confidence"]
    _write_csv(args, header, zip(*columns), _digest(flag_string), [("scenario", flag_string)])
    if first is None:
        _summary(args, f"no m <= {args.m_max} reaches confidence "
                       f"{scenario.confidence_target:g} (minimal m = {minimal_m(scenario)})")
    else:
        m, _, _, lo, hi, conf = first
        _summary(args, f"minimal m = {minimal_m(scenario)}; first m with confidence >= "
                       f"{scenario.confidence_target:g} is {m:.0f} "
                       f"(confidence {conf:.4f}, counts {{{lo:.0f}..{hi:.0f}}})")
    return EXIT_OK


def _reproduction_rows():
    """Recompute the reference worked-example values.

    Yields (name, computed, expected, tolerance) tuples.  Tolerances of zero
    mean exact (integer or closed-form) agreement.
    """
    _library("planner", "limits", "detectors", "sectors")
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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose writes raise OSError instead of swallowing it.

    argparse prints help, version and usage through ``_print_message``, which
    ignores a failed write; here the failure reaches ``main``, which reports
    it like any other failed write to stdout.
    """

    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def _discard_stdout():
    """Point stdout's file descriptor at the null device after a failed write.

    What is still buffered then goes nowhere, so the flush at interpreter exit
    cannot fail a second time.  A stdout that is not a file, such as an
    in-process capture, is left alone.
    """
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a reader that closed stdout early fails here, not at exit
        return code
    except OSError as exc:  # writing stdout; _run reports file and config errors itself
        _discard_stdout()
        print(f"error: cannot write -: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE


def _run(argv) -> int:
    """Parse `argv` and run its command; the exit code of everything but a failed stdout write."""
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
    except (ValueError, MemoryError) as exc:  # MemoryError: arrays too large for memory
        if not hasattr(args, "config"):  # plan rejects a flag value
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"config error: {args.config}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:  # limits.TraceDriftError and PositivityError among them
        print(f"numerical guard: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def console_main() -> int:
    """The process entry of ``eeqt`` and ``python -m eeqt.cli``: ``main()`` without the cyclic GC.

    Reference counting frees what a short process allocates, so the cyclic
    collector only walks its rows and configs, and all once more at exit;
    disabling it skips the first, freezing skips the last.  In-process,
    detector-mix's seed-1 invocations run about 7% faster so (2 vCPUs).
    ``main`` itself leaves the collector alone for in-process callers.
    """
    gc.disable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(console_main())
