"""The import boundary: which modules each entry point loads.

``import eeqt`` resolves its names lazily, each CLI command imports only
the eeqt modules it runs, and no command imports numpy below the Jacobi
price: ``simulate`` and ``efficiency`` load it only for eigenvalues past
it, which no signal of fewer than 45 coherent indices reaches.
These tests pin all of it, in fresh interpreters.  The value classes are
plain classes, so no command imports ``dataclasses`` either, and each of
them refuses an assignment to its attributes.
"""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import eeqt
from eeqt import cli, limits

ROOT = pathlib.Path(__file__).parents[1]
SRC = pathlib.Path(eeqt.__file__).parents[1]
BINARY = str(ROOT / "configs" / "binary.ini")
PLAN = ["plan", "--rho1", "0.8", "--eff", "0.9", "--accuracy", "0.05", "--confidence", "0.6"]

# The public names of eeqt, submodules included: those the eager package listed,
# less the two asymptotic functions that the closed forms at t = inf replace,
# plus ``specs``, the module that gives the detector specs.
PUBLIC = [
    "BinaryDetectorSpec", "CouplingOperator", "EvolutionConfig", "FilterSpec", "HybridState",
    "NStateDetectorSpec", "PlanResult", "ShapeTag2x2", "ShapeTag3x3", "SignalDecomposition",
    "TopologyTag", "Trajectory", "TransmissionScenario", "TwoStateDetectorSpec",
    "admissible_2x2", "admissible_3x3", "balance_residual", "basis_projector",
    "binary_trajectory", "check_cp_conditions", "check_projector",
    "classical_marginal", "classical_rate_equations", "classify_topology", "confidence",
    "detect_nonmonotonicity", "detectors", "di_confirmation_count",
    "enumerate_admissible_patterns", "evolution", "evolve", "filter_classical_output",
    "filter_quantum_marginal", "filter_quantum_output", "intelligibility", "liouville_rhs",
    "minimal_m", "n_state_trajectory", "plan_for_m", "planner", "product_state",
    "quantum_marginal", "scan_plan", "shapes", "specs", "states", "transmission_speed",
    "two_state_trajectory", "validate_state",
]


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this tree's eeqt."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))


def run_fresh(code: str, *flags: str) -> str:
    """Stdout of `code` run by a fresh interpreter, with `flags`, that imports this tree's eeqt."""
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True,
                          env=fresh_env(), cwd=ROOT, check=True)
    return proc.stdout


def all_loaded_modules(code: str, *flags: str) -> set:
    """Every module a fresh interpreter holds after running `code`."""
    return set(run_fresh(f"import sys\n{code}\nprint(' '.join(sys.modules))", *flags).split())


def main_code(argv) -> str:
    """Code that runs ``main(argv)`` with its output discarded."""
    return ("import contextlib, io\nfrom eeqt.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            f"    try:\n        main({argv!r})\n    except SystemExit:\n        pass")


def eeqt_modules(loaded: set) -> set:
    """The eeqt submodules among the module names `loaded`."""
    return {name.removeprefix("eeqt.") for name in loaded if name.startswith("eeqt.")}


def test_import_eeqt_loads_no_submodule():
    assert eeqt_modules(all_loaded_modules("import eeqt; eeqt.__version__")) == set()


def test_import_shapes_loads_no_numpy():
    loaded = all_loaded_modules("import eeqt.shapes")
    assert eeqt_modules(loaded) == {"shapes"}
    assert "numpy" not in loaded


def test_import_detectors_loads_no_numpy():
    loaded = all_loaded_modules("import eeqt.detectors")
    assert eeqt_modules(loaded) == {"detectors"}
    assert "numpy" not in loaded


# argparse alone answers --version, --help and usage errors.  No command loads
# OpenSSL's ``_hashlib`` (the config and flag digests come from CPython's
# builtin SHA-256) or ``numpy.random``, whose ``secrets`` import would load
# ``hashlib``; validate classifies supports alone, efficiency evaluates the
# closed forms on ``math``, simulate propagates sectors on the standard
# library and reproduce takes its detector rows from both, so none of them
# loads numpy.
@pytest.mark.parametrize("argv, modules, numpy", [
    (["--version"], set(), False),
    ([], set(), False),                                # usage error
    (["--help"], set(), False),
    (["plan", "--help"], set(), False),
    (["plan", "--rho1", "abc"], set(), False),         # argparse rejects the value
    (PLAN, {"planner"}, False),
    (["simulate", "--config", BINARY], {"limits", "detectors", "sectors"}, False),
    (["efficiency", "--config", BINARY], {"limits", "detectors"}, False),
    (["validate"], {"shapes"}, False),
    (["reproduce"], {"reproduction", "planner", "limits", "detectors", "sectors"}, False),
], ids=["version", "usage", "help", "plan-help", "plan-bad-flag", "plan", "simulate",
        "efficiency", "validate", "reproduce"])
def test_each_command_loads_only_its_modules(argv, modules, numpy):
    loaded = all_loaded_modules(main_code(argv))
    assert eeqt_modules(loaded) == {"cli"} | modules
    assert ("numpy" in loaded) == numpy
    assert not {"_hashlib", "numpy.random"} & loaded


# The numpy names of ``specs``, which the package gives and ``detectors`` does not.
SPECS = ("BinaryDetectorSpec", "FilterSpec", "NStateDetectorSpec", "TwoStateDetectorSpec",
         "balance_residual", "filter_quantum_marginal")


@pytest.mark.parametrize("command", ["simulate", "efficiency"])
def test_config_commands_never_load_the_numpy_specs(command):
    # the specs are compiled only where they are used, so a command that
    # reads a config pays nothing for them
    code = (main_code([command, "--config", BINARY]) + "\nfrom eeqt import detectors\n"
            f"print('eeqt.specs' in sys.modules, sorted(set({SPECS!r}) & set(vars(detectors))))")
    assert run_fresh(f"import sys\n{code}").strip() == "False []"


def test_the_specs_resolve_through_detectors_and_the_package():
    from eeqt import detectors, specs

    for name in SPECS:
        assert getattr(eeqt, name) is getattr(specs, name)
        assert not hasattr(detectors, name)
    with pytest.raises(ImportError):
        from eeqt.detectors import BinaryDetectorSpec  # noqa: F401


def test_validate_loads_no_random():
    # -S skips the site hooks, which may load tempfile, and with it random, at start-up
    assert "random" not in all_loaded_modules(main_code(["validate"]), "-S")


def efficiency_loads(configs, *flags, output=None, command="efficiency") -> set:
    """Every module a fresh interpreter with `flags` holds after `command` on each config.

    Each run must exit 0; the last writes its CSV to `output` when one is given.
    """
    argvs = [[command, "--config", str(c), "--output", "-"] for c in configs]
    if output is not None:
        argvs[-1][-1] = str(output)
    code = ("import contextlib, io\nfrom eeqt.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [main(argv) for argv in {argvs!r}]\n"
            "assert codes == [0] * len(codes), codes")
    return all_loaded_modules(code, *flags)


def test_efficiency_loads_no_numpy_or_random(tmp_path, monkeypatch):
    # every shipped config, and every efficiency input of detector-mix at seeds 1-3
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    configs = sorted((ROOT / "configs").glob("*.ini"))
    for seed in (1, 2, 3):
        calls = [inv for inv in workloads.generate("detector-mix", seed)
                 if inv.command == "efficiency"]
        directory = tmp_path / f"seed-{seed}"
        directory.mkdir()
        workloads.write_inputs(calls, directory)
        configs += [directory / inv.config_name for inv in calls]
    assert len(configs) == 4 + 3 * 4
    # -S skips the site hooks, which may load tempfile, and with it random, at start-up
    loaded = efficiency_loads(configs, "-S")
    assert eeqt_modules(loaded) == {"cli", "limits", "detectors"}
    assert not {"numpy", "random"} & loaded


FILTER_SIGNAL = """\
[detector]
family = filter
dim = 2
k = 1.0

[signal]
weights = {}
offdiag_0_1 = {}
offdiag_1_0 = {}

[evolution]
step = 0.01
duration = 1.0
record_every = 10
"""


def csv_body(path) -> list:
    return [line for line in pathlib.Path(path).read_text().splitlines()
            if not line.startswith("#")]


# Two pure states: one whose Gershgorin discs both end at 0, and one whose
# first disc reaches -0.12, so that no disc test could accept it.
PURE_SIGNALS = [("0.5,0.5", "0.5"), ("0.36,0.64", "0.48")]


@pytest.mark.parametrize("weights, coherence", PURE_SIGNALS,
                         ids=["disc-edge", "outside-the-discs"])
def test_no_signal_below_the_price_loads_numpy_in_efficiency(tmp_path, weights, coherence):
    config = tmp_path / "signal.ini"
    config.write_text(FILTER_SIGNAL.format(weights, coherence, coherence))
    diagonal = tmp_path / "diagonal.ini"  # the same closed form: q1 is the weight on e1
    diagonal.write_text(FILTER_SIGNAL.format(weights, 0, 0))
    loaded = efficiency_loads([config], output=tmp_path / "signal.csv")
    assert eeqt_modules(loaded) == {"cli", "limits", "detectors"}
    assert "numpy" not in loaded
    efficiency_loads([diagonal], output=tmp_path / "diagonal.csv")
    assert csv_body(tmp_path / "signal.csv") == csv_body(tmp_path / "diagonal.csv")


# Signals that both commands refuse, each with its own message.
REFUSED_SIGNALS = {
    "cohbad": ("0.5,0.5", "0.6", "0.6"),            # eigenvalues 1.1 and -0.1
    "non-hermitian": ("0.7,0.3", "0.1", "0"),
    "trace-not-1": ("0.7,0.2", "0", "0"),
    "nan-weight": ("0.7,nan", "0", "0"),
    "trace-overflow": ("1e308,1e308", "0", "0"),    # the trace sums to inf
}


@pytest.mark.parametrize("command", ["simulate", "efficiency"])
@pytest.mark.parametrize("signal", REFUSED_SIGNALS.values(), ids=REFUSED_SIGNALS)
def test_a_refused_signal_loads_no_numpy(tmp_path, signal, command):
    config = tmp_path / "signal.ini"
    config.write_text(FILTER_SIGNAL.format(*signal))
    code = ("import contextlib, io\nfrom eeqt.cli import main\n"
            "with contextlib.redirect_stderr(io.StringIO()):\n"
            f"    code = main([{command!r}, '--config', {str(config)!r}])\n"
            "assert code == 2, code")
    loaded = all_loaded_modules(code)
    assert eeqt_modules(loaded) == {"cli", "limits", "detectors"} | (
        {"sectors"} if command == "simulate" else set())
    assert "numpy" not in loaded


# Every command, one after another in one interpreter.
COMMANDS = [PLAN, ["simulate", "--config", BINARY], ["efficiency", "--config", BINARY],
            ["validate"], ["reproduce"]]
EVERY_COMMAND = ("import contextlib, io\nfrom eeqt.cli import main\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    codes = [main(argv) for argv in {COMMANDS!r}]\n"
                 "assert codes == [0, 0, 0, 0, 3], codes")  # reproduce fails on P(15) alone


def test_no_command_loads_dataclasses():
    # a frozen dataclass generates its methods with exec when its module loads
    loaded = all_loaded_modules(EVERY_COMMAND)
    assert eeqt_modules(loaded) == {"cli", "limits", "detectors", "sectors", "shapes",
                                    "planner", "reproduction"}
    assert "dataclasses" not in loaded


def test_no_command_loads_typing():
    # -S skips the site hooks, which may import typing at start-up
    assert "typing" not in all_loaded_modules(EVERY_COMMAND, "-S")


# The INI parser and the family readers live in ``detectors``, which only
# simulate, efficiency and reproduce load.
@pytest.mark.parametrize("argv", [["--version"], ["--help"], PLAN, ["validate"]],
                         ids=["version", "help", "plan", "validate"])
def test_commands_without_a_config_load_no_configparser(argv):
    assert "configparser" not in all_loaded_modules(main_code(argv), "-S")


def test_a_module_run_never_imports_eeqt_cli():
    # under ``python -m eeqt.cli`` the running module is __main__: an import of
    # eeqt.cli by a module that a command loads would compile cli.py a second time
    proc = subprocess.run([sys.executable, "-v", "-m", "eeqt.cli", "simulate",
                           "--config", BINARY, "--output", os.devnull],
                          capture_output=True, text=True, env=fresh_env(), cwd=ROOT, check=True)
    # -v reports each module the import system loads as "import 'name' # loader"
    imported = {line.split("'")[1] for line in proc.stderr.splitlines()
                if line.startswith("import '")}
    assert {"eeqt", "eeqt.limits", "eeqt.detectors", "eeqt.sectors"} <= imported
    assert "eeqt.cli" not in imported


def frozen_instances():
    """One instance of each eeqt value class, by name, with an attribute to assign."""
    from eeqt import detectors, evolution, planner, shapes, specs, states

    e0, e1 = states.basis_projector(2, 0), states.basis_projector(2, 1)
    state = states.product_state(e0, [1.0, 0.0])
    coupling = evolution.CouplingOperator.from_entries(2, {(0, 1): e0, (1, 0): e0})
    scenario = planner.TransmissionScenario(0.8, 0.9, 0.05, 0.6, 0.045)
    config = evolution.EvolutionConfig(0.1, 0.2)
    return {
        "HybridState": (state, "blocks"),
        "StateReport": (states.validate_state(state), "trace_ok"),
        "CouplingOperator": (coupling, "entries"),
        "EvolutionConfig": (config, "step"),
        "Generator": (evolution.Generator.prepare([coupling]), "k"),
        "Trajectory": (evolution.evolve(state, couplings=[coupling], config=config), "times"),
        "CPReport": (evolution.check_cp_conditions([coupling]), "violations"),
        "BinaryDetectorSpec": (specs.BinaryDetectorSpec(1.0, 0.5, e0), "k1"),
        "TwoStateDetectorSpec": (specs.TwoStateDetectorSpec(1.0, 0.0, 1.0, 0.0, e0, e1), "e3"),
        "NStateDetectorSpec": (specs.NStateDetectorSpec(1.0, (e0, e1)), "projectors"),
        "FilterSpec": (specs.FilterSpec(1.0, e0), "k"),
        "SignalDecomposition": (detectors.SignalDecomposition(0.5, 0.5), "a0"),
        "Family": (detectors.Family(2, {0: 1.0}, (), lambda: ()), "weights"),
        "TransmissionScenario": (scenario, "margin"),
        "PlanResult": (planner.plan_for_m(12, scenario), "confidence"),
        "Classification2x2": (shapes.admissible_2x2(coupling), "tag"),
        "Classification3x3": (shapes.admissible_3x3(
            shapes.enumerate_admissible_patterns(3)[0].instantiate([e0, e0, e0])), "support"),
        "CataloguePattern": (shapes.enumerate_admissible_patterns(2)[0], "label"),
    }


@pytest.mark.parametrize("name", list(frozen_instances()))
def test_value_classes_refuse_assignment(name):
    instance, attribute = frozen_instances()[name]
    assert type(instance).__name__ == name
    before = getattr(instance, attribute)
    with pytest.raises(AttributeError):
        setattr(instance, attribute, None)
    with pytest.raises(AttributeError):
        instance.no_such_attribute = None
    assert getattr(instance, attribute) is before


def test_writer_works_before_any_command_has_run():
    # _write_csv is the first and only cli function this interpreter calls
    code = ("import argparse, numpy\nfrom eeqt import cli\n"
            "args = argparse.Namespace(output='-', command='t', seed=0)\n"
            "cli._write_csv(args, ['x', 'y'], numpy.array([[0.5, 1e-300], [2.0, -3.0]]))")
    assert run_fresh(code).splitlines()[3:] == ["x,y", "0.5,1e-300", "2,-3"]


def test_public_names_are_unchanged_and_resolve():
    assert eeqt.__all__ == PUBLIC
    for name in PUBLIC:
        value = getattr(eeqt, name)
        if name in ("states", "evolution", "shapes", "detectors", "planner", "specs"):
            assert value is sys.modules[f"eeqt.{name}"]
        else:
            assert value is getattr(sys.modules[value.__module__], name)
    assert set(PUBLIC) <= set(dir(eeqt))
    with pytest.raises(AttributeError):
        eeqt.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from eeqt import no_such_name  # noqa: F401


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from eeqt import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert namespace["evolve"] is eeqt.evolution.evolve


def test_cli_serves_evolve_and_trajectory_rows_alone():
    # perfbench/tracing.py reads both names here, rebinds them and restores
    # them; each handler imports its own names, so no other one resolves
    from eeqt import evolution

    assert cli.evolve is evolution.evolve
    assert cli.trajectory_rows is evolution.trajectory_rows
    saved = cli.evolve, cli.trajectory_rows
    cli.evolve, cli.trajectory_rows = len, repr
    try:
        assert (cli.evolve, cli.trajectory_rows) == (len, repr)
    finally:
        cli.evolve, cli.trajectory_rows = saved
    assert cli.evolve is evolution.evolve
    assert cli.trajectory_rows is evolution.trajectory_rows
    for name in ("no_such_name", "read_system", "sector_columns", "_LIBRARY", "_library"):
        with pytest.raises(AttributeError):
            getattr(cli, name)


def test_simulate_loads_no_numpy(tmp_path, monkeypatch):
    # every shipped config, and every simulate input of every workload at seeds 1-3
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    configs = sorted((ROOT / "configs").glob("*.ini"))
    for workload in sorted(workloads.WORKLOADS):
        for seed in (1, 2, 3):
            calls = [inv for inv in workloads.generate(workload, seed)
                     if inv.command == "simulate"]
            directory = tmp_path / f"{workload}-{seed}"
            directory.mkdir()
            workloads.write_inputs(calls, directory)
            configs += [directory / inv.config_name for inv in calls]
    assert len(configs) == 4 + 3 * (4 + 4 + 3 + 2)
    loaded = efficiency_loads(configs, "-S", command="simulate")
    assert eeqt_modules(loaded) == {"cli", "limits", "detectors", "sectors"}
    assert "numpy" not in loaded


@pytest.mark.parametrize("weights, coherence", PURE_SIGNALS,
                         ids=["disc-edge", "outside-the-discs"])
def test_no_signal_below_the_price_loads_numpy_in_simulate(tmp_path, weights, coherence):
    config = tmp_path / "signal.ini"
    config.write_text(FILTER_SIGNAL.format(weights, coherence, coherence))
    loaded = efficiency_loads([config], command="simulate")
    assert eeqt_modules(loaded) == {"cli", "limits", "detectors", "sectors"}
    assert "numpy" not in loaded


# A filter whose three basis indices form one coherence component in block 0.
COMPONENT = """\
[detector]
family = filter
dim = 3
k = 1.0

[signal]
weights = 0.5,0.3,0.2
offdiag_0_1 = 0.1
offdiag_1_0 = 0.1
offdiag_1_2 = 0.1
offdiag_2_1 = 0.1

[evolution]
step = 0.001
duration = {}
record_every = 1
"""


@pytest.mark.parametrize("beyond", [False, True], ids=["at-the-price", "past-the-price"])
def test_simulate_loads_numpy_only_past_the_jacobi_price(tmp_path, beyond):
    # records * 3^3 against the price: the last record count at it, and one more
    records = limits.JACOBI_PRICE // 27 + beyond
    config = tmp_path / "component.ini"
    config.write_text(COMPONENT.format(repr((records - 1) * 0.001)))
    loaded = efficiency_loads([config], command="simulate")
    assert ("numpy" in loaded) == beyond
    assert eeqt_modules(loaded) == {"cli", "limits", "detectors", "sectors"} | (
        {"states"} if beyond else set())
