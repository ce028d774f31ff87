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

This module is the dispatcher: each handler imports the names it calls at
the top of its body, so a command loads only its own modules and
``--version`` no eeqt module.  ``simulate`` and ``efficiency`` read their
config with ``detectors.read_system``, ``validate`` writes
``shapes.catalogue_report`` and ``reproduce`` the rows of ``reproduction``,
so ``--version``, ``plan`` and ``validate`` import no ``configparser``.
No eeqt module imports ``eeqt.cli``: under ``python -m eeqt.cli`` it would
compile twice.  Both config commands refuse a config with the same message;
every ValueError raised while serving one, from a missing key to a signal
that is not a density matrix or a duration the step does not divide, is a
config error.

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
numpy is the package's ``library`` extra, so every command runs on the
standard library alone, and where numpy is not installed those eigenvalues
make a config error that names the extra.
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
import gc
import itertools
import math
import os
import sys

from . import __version__


def __getattr__(name):
    """``evolve`` and ``trajectory_rows`` of ``eeqt.evolution``, and no other name.

    No command calls either; ``perfbench/tracing.py`` reads, rebinds and
    restores both here.  ROADMAP item 2 deletes this with the tracer rewrite.
    """
    if name not in ("evolve", "trajectory_rows"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import evolution

    return getattr(evolution, name)


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


def _write_system_csv(args, digest, family, classical_dim, rows, columns=(), meta=()):
    """CSV of t, p_0..p_n and `columns`, with the metadata of simulate and efficiency."""
    header = ["t"] + [f"p_{i}" for i in range(classical_dim)] + list(columns)
    _write_csv(args, header, rows, digest, [("family", family), *meta])


def _cmd_simulate(args):
    """The records of the coupling table, propagated sector by sector without numpy."""
    from .detectors import read_system
    from .limits import signal_entries
    from .sectors import sector_columns

    raw, family, dim, spec, cfg = read_system(args.config)
    columns = sector_columns(spec.couplings(), signal_entries(spec.weights, spec.coherences),
                            (spec.classical_dim, dim), cfg)
    _write_system_csv(args, _digest(raw), family, spec.classical_dim, zip(*columns),
                      ["trace_drift", "min_eigenvalue"])
    return EXIT_OK


def _cmd_efficiency(args):
    """The closed form on simulate's record grid, after simulate's checks, without numpy."""
    from .detectors import read_system
    from .limits import FLOAT_BYTES, TUPLE_BYTES, check_record_memory

    raw, family, dim, spec, cfg = read_system(args.config)
    if spec.closed_form is None:
        raise ValueError(f"family '{family}' has no closed form")
    held = spec.classical_dim + 2  # a record's time and its row tuple of t, p_0..p_n
    check_record_memory(cfg, FLOAT_BYTES * held + TUPLE_BYTES)
    unrepresentable = FloatingPointError("closed form is not finite; a constant is too "
                                         "large or too small to represent")
    closed_form = spec.closed_form()
    try:  # Python float arithmetic on a rate raises instead of returning inf
        rows = [(t, *closed_form(t)) for t in cfg.record_times()]
    except OverflowError as exc:
        raise unrepresentable from exc
    if not all(map(math.isfinite, itertools.chain.from_iterable(rows))):
        raise unrepresentable
    meta = [] if spec.asymptotic is None else [
        ("asymptotic", spec.asymptotic(closed_form(math.inf)))]
    _write_system_csv(args, _digest(raw), family, spec.classical_dim, rows, meta=meta)
    return EXIT_OK


def _cmd_validate(args):
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    from .shapes import catalogue_report

    header, rows, report_lines = catalogue_report()
    _write_csv(args, header, rows, text=header[1:])
    _summary(args, "\n".join(report_lines))
    return EXIT_OK


def _cmd_plan(args):
    from .planner import TransmissionScenario, minimal_m, scan_rows

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


def _cmd_reproduce(args):
    from .reproduction import reproduction_rows

    failures = 0
    print(f"{'quantity':<40} {'computed':>22} {'expected':>18}  result")
    for name, computed, expected, tol in reproduction_rows():
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
        reason = str(exc) or type(exc).__name__  # a MemoryError of the interpreter has no text
        if not hasattr(args, "config"):  # plan rejects a flag value
            print(f"error: {reason}", file=sys.stderr)
            return EXIT_USAGE
        print(f"config error: {args.config}: {reason}", file=sys.stderr)
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
