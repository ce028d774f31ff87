import argparse
import ast
import configparser
import contextlib
import csv
import gc
import io
import math
import os
import pathlib
import re
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eeqt import cli, detectors, evolution, limits, sectors, states
from eeqt.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from eeqt.detectors import FAMILIES, n_state_trajectory
from eeqt.evolution import PositivityError, TraceDriftError, evolve

from conftest import load_system

SHIPPED_CONFIGS = sorted((pathlib.Path(__file__).parents[1] / "configs").glob("*.ini"))

BINARY_CONFIG = """\
[detector]
family = binary
dim = 2
k1 = 1.0
k2 = 0.0

[signal]
aligned = 1.0

[evolution]
step = 0.01
duration = 2.0
record_every = 50
"""

FREE_CONFIG = """\
[detector]
family = none
classical_dim = 2
dim = 2

[signal]
weights = 0.6,0.4

[evolution]
step = 0.1
duration = 1.0
record_every = 2
"""

FILTER_CONFIG = """\
[detector]
family = filter
dim = 2
k = 1.0

[signal]
weights = 0.7,0.3

[evolution]
step = 0.01
duration = 2.0
record_every = 100
"""


TWO_STATE_CONFIG = """\
[detector]
family = two_state
dim = 3
k1 = 1.0
k2 = 0.0
n1 = 1.0
n2 = 0.0
projector2 = 0
projector3 = 1

[signal]
aligned = 0.5
orthogonal = 0.5

[evolution]
step = 0.01
duration = 2.0
record_every = 50
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    meta, header, rows = {}, None, []
    for line in open(path):
        line = line.strip()
        if line.startswith("#"):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def test_simulate_writes_trajectory_csv(tmp_path):
    config = write(tmp_path, "binary.ini", BINARY_CONFIG)
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", config, "--output", str(out)]) == EXIT_OK
    meta, header, rows = read_csv(out)
    assert header == ["t", "p_0", "p_1", "trace_drift", "min_eigenvalue"]
    assert meta["command"] == "simulate"
    assert "config_sha256" in meta and meta["seed"] == "0"
    last = [float(v) for v in rows[-1]]
    assert last[0] == pytest.approx(2.0)
    assert last[2] == pytest.approx(1.0 - math.exp(-2.0), abs=1e-6)


# A filter at dim 36 has N = 2592: evolve takes the matrix-free path there
# and the precomputed propagator on the other configs.
LARGE_FILTER_CONFIG = FILTER_CONFIG.replace("dim = 2", "dim = 36").replace(
    "duration = 2.0", "duration = 0.1").replace("record_every = 100", "record_every = 5")


def test_simulate_is_deterministic(tmp_path):
    texts = [BINARY_CONFIG, LARGE_FILTER_CONFIG] + [path.read_text() for path in SHIPPED_CONFIGS]
    for n, text in enumerate(texts):
        config = write(tmp_path, f"case{n}.ini", text)
        out1, out2 = tmp_path / f"a{n}.csv", tmp_path / f"b{n}.csv"
        assert main(["simulate", "--config", config, "--output", str(out1)]) == EXIT_OK
        assert main(["simulate", "--config", config, "--output", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()


def test_simulate_without_couplings_is_constant(tmp_path):
    config = write(tmp_path, "free.ini", FREE_CONFIG)
    out = tmp_path / "free.csv"
    assert main(["simulate", "--config", config, "--output", str(out)]) == EXIT_OK
    _, _, rows = read_csv(out)
    probs = np.array([[float(v) for v in row[1:3]] for row in rows])
    np.testing.assert_allclose(probs, [[1.0, 0.0]] * len(rows), atol=1e-12)


def test_efficiency_closed_form_binary(tmp_path):
    config = write(tmp_path, "binary.ini", BINARY_CONFIG)
    out = tmp_path / "eff.csv"
    assert main(["efficiency", "--config", config, "--output", str(out)]) == EXIT_OK
    meta, header, rows = read_csv(out)
    assert header == ["t", "p_0", "p_1"]
    assert meta["asymptotic"] == "p_0=0 p_1=1"
    t, _, p1 = (float(v) for v in rows[-1])
    assert p1 == pytest.approx(1.0 - math.exp(-t), abs=1e-12)


def test_efficiency_filter_family(tmp_path):
    config = write(tmp_path, "filter.ini", FILTER_CONFIG)
    out = tmp_path / "filter.csv"
    assert main(["efficiency", "--config", config, "--output", str(out)]) == EXIT_OK
    _, _, rows = read_csv(out)
    t, _, p1 = (float(v) for v in rows[-1])
    assert p1 == pytest.approx(0.5 * (1.0 - math.exp(-2.0 * t)) * 0.7, abs=1e-12)


# Every family with a closed form, with the signal placed where a mix-up of
# basis indices would show: the closed form must track the integration.
CLOSED_FORM_CASES = {
    **{f"shipped-{path.stem}": path.read_text() for path in SHIPPED_CONFIGS},
    # the inert weight must avoid both projectors, not sit on index dim-1
    "two_state-inert-beside-projectors": TWO_STATE_CONFIG
    .replace("projector2 = 0", "projector2 = 2").replace("projector3 = 1", "projector3 = 0")
    .replace("aligned = 0.5", "aligned = 0.3").replace("orthogonal = 0.5", "orthogonal = 0.3"),
    "binary-orthogonal": BINARY_CONFIG.replace("k2 = 0.0", "k2 = 0.5")
    .replace("aligned = 1.0", "aligned = 0.6\northogonal = 0.4"),
    # q1 = tr(e1 rho_q) is the weight on the configured projector
    "filter-projector-1": FILTER_CONFIG.replace("k = 1.0", "k = 1.0\nprojector = 1"),
    # 100 steps recorded every 30: both grids end with the final step at t = 1
    "binary-record-grid-ends-at-duration": BINARY_CONFIG
    .replace("duration = 2.0", "duration = 1.0").replace("record_every = 50", "record_every = 30"),
}


@pytest.mark.parametrize("text", CLOSED_FORM_CASES.values(), ids=CLOSED_FORM_CASES)
def test_closed_form_matches_simulation(tmp_path, text):
    config = write(tmp_path, "case.ini", text)
    sim, eff = tmp_path / "sim.csv", tmp_path / "eff.csv"
    assert main(["simulate", "--config", config, "--output", str(sim)]) == EXIT_OK
    assert main(["efficiency", "--config", config, "--output", str(eff)]) == EXIT_OK
    _, sim_header, sim_rows = read_csv(sim)
    _, eff_header, eff_rows = read_csv(eff)
    assert sim_header == eff_header + ["trace_drift", "min_eigenvalue"]
    simulated = np.array([row[:len(eff_header)] for row in sim_rows], dtype=float)
    np.testing.assert_allclose(np.array(eff_rows, dtype=float), simulated, rtol=0, atol=1e-6)


def test_closed_form_cases_cover_every_family(tmp_path, capsys):
    covered = set()
    for text in CLOSED_FORM_CASES.values():
        parser = configparser.ConfigParser()
        parser.read_string(text)
        covered.add(parser.get("detector", "family"))
    assert covered == set(FAMILIES) - {"none"}
    free = write(tmp_path, "free.ini", FREE_CONFIG)
    assert main(["efficiency", "--config", free, "--output", "-"]) == EXIT_CONFIG
    assert "no closed form" in capsys.readouterr().err


def test_validate_reports_both_catalogues(tmp_path, capsys):
    out = tmp_path / "shapes.csv"
    assert main(["validate", "--output", str(out)]) == EXIT_OK
    _, header, rows = read_csv(out)
    assert header[:4] == ["classical_dim", "pattern", "support", "tag"]
    assert len(rows) == 6 + 11
    assert all(row[5] == "yes" for row in rows)  # every pattern passes CP
    w11 = next(row for row in rows if row[1] == "W11")
    assert w11[6] == "W10"
    w2 = next(row for row in rows if row[1] == "W2")
    assert w2[4] == "cascade"
    report = capsys.readouterr().out
    assert "duplicate of W10" in report


def test_validate_body_is_the_same_at_every_seed(tmp_path):
    # the seed only labels the metadata: validate reads each pattern's support alone
    bodies = set()
    for seed in (0, 7, 123):
        out = tmp_path / f"shapes{seed}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["validate", "--seed", str(seed), "--output", str(out)]) == EXIT_OK
        text = out.read_text()
        assert f"# seed: {seed}\n" in text
        bodies.add(text.split("# seed: ")[1].split("\n", 1)[1])
    assert len(bodies) == 1


def test_validate_refuses_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "shapes.csv"
    assert main(["validate", "--seed", "-1", "--output", str(out)]) == EXIT_USAGE
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.splitlines() == ["error: --seed must be a non-negative integer, got -1"]
    assert not out.exists()


def test_plan_scan_and_summary(tmp_path, capsys):
    out = tmp_path / "plan.csv"
    code = main(["plan", "--rho1", "0.8", "--eff", "0.9", "--accuracy", "0.05",
                 "--margin", "0.045", "--confidence", "0.6",
                 "--m-max", "80", "--output", str(out)])
    assert code == EXIT_OK
    meta, header, rows = read_csv(out)
    assert header == ["m", "i_minus", "i_plus", "set_lo", "set_hi", "confidence"]
    assert rows[0][0] == "12"
    first_row = [float(v) for v in rows[0]]
    assert first_row[1:5] == [8.1, 9.18, 9, 9]
    summary = capsys.readouterr().out
    assert "minimal m = 12" in summary
    assert "first m with confidence >= 0.6 is 59" in summary


def test_plan_reports_absence(tmp_path, capsys):
    code = main(["plan", "--rho1", "0.8", "--eff", "0.9", "--accuracy", "0.05",
                 "--margin", "0.045", "--confidence", "0.99",
                 "--m-max", "40", "--output", str(tmp_path / "p.csv")])
    assert code == EXIT_OK
    assert "no m <= 40 reaches confidence 0.99" in capsys.readouterr().out


PLAN_FLAGS = ["--rho1", "0.8", "--eff", "0.9", "--accuracy", "0.05", "--confidence", "0.6"]


@pytest.mark.parametrize("flag, value, message", [
    ("--margin", "nan", "margin must be positive and finite"),
    ("--accuracy", "nan", "accuracy must be positive and finite"),
    ("--margin", "1e-310", "too small"),  # 1 / (2 margin) overflows
])
def test_non_finite_plan_flags_exit_1(capsys, flag, value, message):
    assert main(["plan", *PLAN_FLAGS, f"{flag}={value}", "--output", "-"]) == EXIT_USAGE
    assert message in capsys.readouterr().err


# Plan flag fuzz: a scenario drawn mostly valid (the decoding interval inside
# [0, 1], the margin at most the accuracy), with up to two flags replaced by
# a zero, negative, non-finite, tiny or garbage value.
BAD_PLAN_VALUES = ["0", "-1", "2", "nan", "inf", "-inf", "1e-300", "5e-324", "abc", ""]


@st.composite
def plan_flags(draw):
    rho1 = draw(st.floats(0.1, 0.9))
    accuracy = draw(st.floats(0.01, min(rho1, 1 - rho1)))
    flags = {"rho1": rho1, "eff": draw(st.floats(0.1, 1)), "accuracy": accuracy,
             "confidence": draw(st.floats(0.01, 0.99)), "margin": draw(st.floats(0.005, accuracy))}
    if draw(st.booleans()):
        del flags["margin"]  # eff * accuracy
    flags = {name: repr(value) for name, value in flags.items()}
    for _ in range(draw(st.integers(0, 2))):
        flags[draw(st.sampled_from(sorted(flags)))] = draw(st.sampled_from(BAD_PLAN_VALUES))
    return [f"--{name}={value}" for name, value in flags.items()]


@given(flags=plan_flags(), m_max=st.integers(100, 1000) | st.integers(-5, 99))
@settings(max_examples=100, deadline=None)
def test_any_plan_flags_exit_0_or_1(tmp_path_factory, flags, m_max):
    out = tmp_path_factory.mktemp("plan") / "plan.csv"
    code = main(["plan", *flags, f"--m-max={m_max}", "--output", str(out)])
    assert code in (EXIT_OK, EXIT_USAGE)
    if code == EXIT_OK:
        _, _, rows = read_csv(out)
        # every scanned advantageous set is non-empty, so no cell is blank
        assert np.isfinite(np.array(rows, dtype=float)).all()


def test_plan_beyond_max_m_exits_1(tmp_path, capsys):
    out = tmp_path / "plan.csv"
    code = main(["plan", "--rho1", "0.5", "--eff", "0.8", "--accuracy", "0.05",
                 "--confidence", "0.9", "--m-max", "1000000000", "--output", str(out)])
    assert code == EXIT_USAGE
    assert "error: m = 1000000000 exceeds the limit" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "efficiency", "validate", "plan"])
def test_unwritable_output_exits_1(tmp_path, capsys, command):
    config = ["--config", write(tmp_path, "binary.ini", BINARY_CONFIG)]
    flags = {"simulate": config, "efficiency": config, "validate": [], "plan": PLAN_FLAGS}
    target = tmp_path / "missing" / "out.csv"
    assert main([command, *flags[command], "--output", str(target)]) == EXIT_USAGE
    assert f"error: cannot write {target}: " in capsys.readouterr().err


@pytest.mark.parametrize("argv, summary", [
    (["plan", *PLAN_FLAGS], "minimal m = 12"),
    (["validate"], "duplicate of W10"),
], ids=["plan", "validate"])
def test_stdout_holds_only_the_csv(capsys, argv, summary):
    assert main([*argv, "--output", "-"]) == EXIT_OK
    out, err = capsys.readouterr()
    body = [line for line in out.splitlines() if not line.startswith("#")]
    rows = list(csv.reader(body))
    assert len(rows) > 1 and {len(row) for row in rows} == {len(rows[0])}
    assert summary not in out and summary in err


def cli_env(**extra):
    """The environment of a ``python -m eeqt.cli`` child that imports eeqt from this tree."""
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        p for p in (str(pathlib.Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH"))
        if p))


def test_closed_stdout_exits_1_without_a_traceback():
    # more CSV than a pipe holds, so the writer is still writing when the
    # reader closes its end
    proc = subprocess.Popen([sys.executable, "-m", "eeqt.cli", "plan", *PLAN_FLAGS,
                             "--m-max", "5000"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=cli_env())
    assert proc.stdout.readline().startswith(b"# tool: eeqt")
    proc.stdout.close()
    err = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode == EXIT_USAGE
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.splitlines() == ["error: cannot write -: Broken pipe"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that refuses writes")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_report_a_failed_write(flag, unbuffered):
    # argparse's own printing ignores a failed write, and a buffered stdout
    # fails only at exit, after argparse is done
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "eeqt.cli", flag], stdout=full,
                              stderr=subprocess.PIPE, text=True, timeout=60,
                              env=cli_env(PYTHONUNBUFFERED=unbuffered))
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.splitlines() == ["error: cannot write -: No space left on device"]


def test_main_leaves_the_garbage_collector_as_it_found_it(tmp_path):
    config = write(tmp_path, "binary.ini", BINARY_CONFIG)
    before = gc.isenabled(), gc.get_freeze_count()
    assert main(["simulate", "--config", config, "--output", str(tmp_path / "s.csv")]) == EXIT_OK
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_process_entry_writes_what_main_writes(tmp_path):
    config = write(tmp_path, "binary.ini", BINARY_CONFIG)
    assert main(["simulate", "--config", config, "--output", str(tmp_path / "in.csv")]) == EXIT_OK
    proc = subprocess.run([sys.executable, "-m", "eeqt.cli", "simulate", "--config", config,
                           "--output", str(tmp_path / "child.csv")], capture_output=True,
                          timeout=60, env=cli_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, b"", b"")
    assert (tmp_path / "child.csv").read_bytes() == (tmp_path / "in.csv").read_bytes()


def test_console_script_is_the_process_entry():
    # an installed `eeqt` runs what `python -m eeqt.cli` runs
    tomllib = pytest.importorskip("tomllib")
    root = pathlib.Path(cli.__file__).parents[2]
    script = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]["eeqt"]
    module, _, function = script.partition(":")
    assert module == "eeqt.cli" and getattr(cli, function) is cli.console_main
    entry = ast.parse(pathlib.Path(cli.__file__).read_text()).body[-1]
    assert ast.unparse(entry) == f"if __name__ == '__main__':\n    sys.exit({function}())"


REPRODUCE_TABLE = """\
quantity                                               computed           expected  result
minimal_m                                                    12                 12  pass
i_minus(12)                                                 8.1      8.1 +/- 1e-09  pass
i_plus(12)                                                 9.18     9.18 +/- 1e-09  pass
set(12)                                                     {9}                {9}  pass
P(12)                                                  0.251125     0.25 +/- 0.005  pass
P(15)                                                  0.226163     0.22 +/- 0.005  FAIL
set(62)                                     {42,43,44,45,46,47} {42,43,44,45,46,47}  pass
P(62)                                                  0.602554    0.603 +/- 0.005  pass
set(66) at eff 0.45                         {21,22,23,24,25,26} {21,22,23,24,25,26}  pass
P(66) at eff 0.45                                      0.557946      0.56 +/- 0.01  pass
confirmation count n(p=0.45, 90%)                             4                  4  pass
binary k1=k2 registered probability                         0.5     0.5 +/- 0.0001  pass
n-state p_j(10), 1 channels                            0.999955       1 +/- 0.0001  pass
n-state p_j(10), 2 channels                            0.999955       1 +/- 0.0001  pass
n-state p_j(10), 5 channels                            0.999955       1 +/- 0.0001  pass
1 row(s) failed
"""


def test_reproduce_reports_known_truncated_row(capsys):
    # one reference row cannot pass: the table's P(15) = 0.22 truncates the
    # exact 0.226163, which falls outside the 0.005 band
    code = main(["reproduce"])
    out = capsys.readouterr().out
    assert code == EXIT_NUMERIC
    failing = [line for line in out.splitlines() if line.endswith("FAIL")]
    assert len(failing) == 1 and failing[0].startswith("P(15)")
    assert out == REPRODUCE_TABLE  # every digit of every row


def test_config_errors_exit_2(tmp_path, capsys):
    missing = write(tmp_path, "bad.ini", "[detector]\nfamily = binary\n")
    assert main(["simulate", "--config", missing, "--output", "-"]) == EXIT_CONFIG
    assert "missing key" in capsys.readouterr().err

    unparsable = write(tmp_path, "broken.ini", "not an ini file\n")
    assert main(["simulate", "--config", unparsable, "--output", "-"]) == EXIT_CONFIG

    absent = str(tmp_path / "nope.ini")
    assert main(["simulate", "--config", absent, "--output", "-"]) == EXIT_CONFIG

    unknown = write(tmp_path, "fam.ini",
                    "[detector]\nfamily = sundial\n\n[signal]\nweights = 1\n")
    assert main(["simulate", "--config", unknown, "--output", "-"]) == EXIT_CONFIG


BAD_CONFIGS = [
    pytest.param("simulate", BINARY_CONFIG.replace("k1 = 1.0", "k1 = -1"), id="negative-k1"),
    pytest.param("simulate", TWO_STATE_CONFIG.replace("projector3 = 1", "projector3 = 0"),
                 id="shared-projector"),
    pytest.param("simulate", BINARY_CONFIG.replace("step = 0.01", "step = 0"), id="zero-step"),
    pytest.param("simulate", FILTER_CONFIG.replace("0.7,0.3", "0.5,abc"), id="garbage-weight"),
    pytest.param("efficiency", TWO_STATE_CONFIG.replace("k1 = 1.0", "k1 = 0"),
                 id="weighted-channel-without-constants"),
    pytest.param("simulate", FREE_CONFIG.replace("classical_dim = 2", "classical_dim = 0"),
                 id="no-classical-events"),
    pytest.param("simulate", BINARY_CONFIG.replace("duration = 2.0", "duration = inf"),
                 id="infinite-duration"),
    pytest.param("simulate", BINARY_CONFIG.replace("duration = 2.0", "duration = nan"),
                 id="nan-duration"),
    pytest.param("efficiency", BINARY_CONFIG.replace("step = 0.01", "step = nan"),
                 id="nan-step"),
    pytest.param("simulate", BINARY_CONFIG.replace("step = 0.01", "step = 0.7")
                 .replace("duration = 2.0", "duration = 1.0"), id="simulate-partial-step"),
    pytest.param("efficiency", BINARY_CONFIG.replace("step = 0.01", "step = 0.7")
                 .replace("duration = 2.0", "duration = 1.0"), id="efficiency-partial-step"),
    pytest.param("simulate", FREE_CONFIG.replace("0.6,0.4", "0.6,0.4\noffdiag_0_1 = 0.3"),
                 id="non-hermitian-signal"),
    pytest.param("simulate", FILTER_CONFIG.replace("0.7,0.3", "1.5,-0.5"),
                 id="non-positive-signal"),
    # about 1e202 steps: beyond MAX_STEPS, so refused instead of run without end
    pytest.param("simulate", BINARY_CONFIG.replace("duration = 2.0", "duration = 1e200"),
                 id="endless-duration"),
    pytest.param("simulate", BINARY_CONFIG.replace("step = 0.01", "step = 1e-200"),
                 id="vanishing-step"),
    # 10^7 steps, each recorded: about 386 GiB of records, refused before any step
    pytest.param("simulate", LARGE_FILTER_CONFIG.replace("step = 0.01", "step = 1e-6")
                 .replace("duration = 0.1", "duration = 10.0")
                 .replace("record_every = 5", "record_every = 1"), id="records-beyond-memory"),
    # the same grid: 10^7 closed-form rows are refused by the same bound
    pytest.param("efficiency", LARGE_FILTER_CONFIG.replace("step = 0.01", "step = 1e-6")
                 .replace("duration = 0.1", "duration = 10.0")
                 .replace("record_every = 5", "record_every = 1"),
                 id="efficiency-records-beyond-memory"),
    # an infinite constant must be refused before inf * 0 fills its coupling with NaN
    pytest.param("simulate", TWO_STATE_CONFIG.replace("n1 = 1.0", "n1 = inf"),
                 id="infinite-two-state-constant"),
    pytest.param("simulate", (SHIPPED_CONFIGS[0].parent / "n_state.ini").read_text()
                 .replace("k = 1.0", "k = inf"), id="infinite-n-state-constant"),
    pytest.param("efficiency", FILTER_CONFIG.replace("k = 1.0", "k = inf"),
                 id="infinite-filter-constant"),
    pytest.param("simulate", BINARY_CONFIG.replace("k2 = 0.0", "k2 = nan"), id="nan-k2"),
]


@pytest.mark.parametrize("command, text", BAD_CONFIGS)
def test_bad_config_values_exit_2(tmp_path, capsys, command, text):
    config = write(tmp_path, "bad.ini", text)
    out = tmp_path / "out.csv"
    assert main([command, "--config", config, "--output", str(out)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


# The pure state 0.5 (1, 1; 1, 1) with 0.6 in place of 0.5 off the diagonal:
# eigenvalues 1.1 and -0.1.
COHBAD_CONFIG = FILTER_CONFIG.replace("0.7,0.3", "0.5,0.5\noffdiag_0_1 = 0.6\noffdiag_1_0 = 0.6")

# Config errors that simulate and efficiency both meet before either runs.
# Only efficiency evaluates the closed form, so it alone refuses family none
# and a weighted two_state channel whose constants are zero.
SHARED_CONFIG_ERRORS = {
    **{param.id: param.values[1] for param in BAD_CONFIGS
       if param.id != "weighted-channel-without-constants"},
    "missing-key": "[detector]\nfamily = binary\n",
    "unparsable": "not an ini file\n",
    "unknown-family": "[detector]\nfamily = sundial\n\n[signal]\nweights = 1\n",
    "binary-dim-0": BINARY_CONFIG.replace("dim = 2", "dim = 0"),
    "channels-beyond-dim": (SHIPPED_CONFIGS[0].parent / "n_state.ini").read_text()
    .replace("channels = 5", "channels = 6"),
    "aligned-channel-out-of-range": (SHIPPED_CONFIGS[0].parent / "n_state.ini").read_text()
    .replace("aligned_channel = 0", "aligned_channel = 5"),
    "binary-projector-out-of-range": BINARY_CONFIG.replace("k2 = 0.0", "k2 = 0.0\nprojector = 2"),
    "two_state-projector-out-of-range": TWO_STATE_CONFIG.replace("projector3 = 1",
                                                                 "projector3 = 3"),
    "filter-projector-out-of-range": FILTER_CONFIG.replace("k = 1.0", "k = 1.0\nprojector = -1"),
    "orthogonal-weight-in-dim-1": BINARY_CONFIG.replace("dim = 2", "dim = 1")
    .replace("aligned = 1.0", "aligned = 0.5\northogonal = 0.5"),
    "inert-weight-in-dim-2": TWO_STATE_CONFIG.replace("dim = 3", "dim = 2")
    .replace("orthogonal = 0.5", "orthogonal = 0.25"),
    "nan-weight": FILTER_CONFIG.replace("0.7,0.3", "0.7,nan"),
    "non-hermitian-coherence": FILTER_CONFIG.replace("0.7,0.3", "0.7,0.3\noffdiag_0_1 = 0.1"),
    "cohbad": COHBAD_CONFIG,
    "trace-not-1": FILTER_CONFIG.replace("0.7,0.3", "0.7,0.2"),
    "diagonal-offdiag-key": FILTER_CONFIG.replace("0.7,0.3", "0.7,0.3\noffdiag_1_1 = 0.1"),
    "offdiag-key-out-of-range": FILTER_CONFIG.replace("0.7,0.3", "0.7,0.3\noffdiag_0_2 = 0.1"),
    "too-many-weights": FILTER_CONFIG.replace("0.7,0.3", "0.5,0.3,0.2"),
}


def both_commands(tmp_path, capsys, text):
    """[(exit code, stderr)] of simulate and then efficiency on a config of `text`."""
    config = write(tmp_path, "case.ini", text)
    out = tmp_path / "out.csv"
    return [(main([command, "--config", config, "--output", str(out)]), capsys.readouterr().err)
            for command in ("simulate", "efficiency")]


@pytest.mark.parametrize("text", SHARED_CONFIG_ERRORS.values(), ids=SHARED_CONFIG_ERRORS)
def test_config_errors_are_the_same_under_both_commands(tmp_path, capsys, text):
    simulated, closed_form = both_commands(tmp_path, capsys, text)
    assert simulated == closed_form
    assert simulated[0] == EXIT_CONFIG and simulated[1].startswith("config error: ")


def test_each_command_bounds_what_it_holds(tmp_path, capsys, monkeypatch):
    # simulate holds 32 B a float for the 3 states of the filter's two
    # sectors and its 5 columns (2.38 GiB), efficiency a 48 B tuple of t, p_0,
    # p_1 and the time (1.64 GiB); evolve's records, 16 B a complex entry of
    # (2, 36, 36), would need 386 GiB.  Both refuse with one message.
    beyond = {param.id: param.values[1] for param in BAD_CONFIGS}["records-beyond-memory"]
    assert both_commands(tmp_path, capsys, beyond) == 2 * [
        (EXIT_CONFIG, f"config error: {tmp_path / 'case.ini'}: 10000001 records need more "
                      "than the 1 GiB limit (MAX_RECORD_BYTES); raise record_every\n")]
    # efficiency's price at its byte boundary: 201 records of 4 floats and a tuple
    grid = BINARY_CONFIG.replace("record_every = 50", "record_every = 1")
    monkeypatch.setattr(limits, "MAX_RECORD_BYTES", 201 * (4 * 32 + 48))
    assert main(["efficiency", "--config", write(tmp_path, "rows.ini", grid),
                 "--output", str(tmp_path / "out.csv")]) == EXIT_OK
    monkeypatch.setattr(limits, "MAX_RECORD_BYTES", 201 * (4 * 32 + 48) - 1)
    assert main(["efficiency", "--config", write(tmp_path, "rows.ini", grid),
                 "--output", str(tmp_path / "out.csv")]) == EXIT_CONFIG
    assert capsys.readouterr().err.endswith(": 201 records need more than the 3.29455e-05 GiB "
                                            "limit (MAX_RECORD_BYTES); raise record_every\n")
    monkeypatch.undo()
    # n_state at 100 channels and dim 100: 1001 records of 2 sector states and
    # 104 columns take 3.4 MB as floats, where complex (101, 100, 100) records
    # would take 15.1 GiB
    codes = both_commands(tmp_path, capsys, WIDE_N_STATE_CONFIG.replace(
        "duration = 0.05", "duration = 10.0").replace("record_every = 10", "record_every = 1"))
    assert codes == [(EXIT_OK, ""), (EXIT_OK, "")]
    _, _, rows = read_csv(tmp_path / "out.csv")
    assert len(rows) == 1001


def test_signal_refusals_keep_their_numpy_message(tmp_path, capsys):
    for text, message in ((COHBAD_CONFIG, "signal is not a density matrix: Hermiticity "
                                          "deviation 0, min eigenvalue -0.1"),
                          (FILTER_CONFIG.replace("0.7,0.3", "0.7,0.2"),
                           "quantum state has trace 0.9, expected 1"),
                          # fsum overflows; the plain sum, like numpy's trace, is inf
                          (FILTER_CONFIG.replace("0.7,0.3", "1e308,1e308"),
                           "quantum state has trace inf, expected 1")):
        for code, err in both_commands(tmp_path, capsys, text):
            assert (code, err) == (EXIT_CONFIG,
                                   f"config error: {tmp_path / 'case.ini'}: {message}\n")


@pytest.mark.parametrize("weight, code", [
    ("0.5000000009999999", EXIT_OK),      # trace 1 + 9.99999861e-10: inside TRACE_TOL
    ("0.500000001", EXIT_CONFIG),         # trace 1 + 1.00000008e-09: beyond it
], ids=["inside", "beyond"])
def test_a_trace_at_the_tolerance_gets_one_verdict(tmp_path, capsys, weight, code):
    text = FILTER_CONFIG.replace("0.7,0.3", f"0.5,{weight}")
    simulated, closed_form = both_commands(tmp_path, capsys, text)
    assert simulated == closed_form and simulated[0] == code


# One config of each family; each sets the quantum dim on a line "dim = <n>".
FAMILY_CONFIGS = {
    "binary": BINARY_CONFIG,
    "two_state": TWO_STATE_CONFIG,
    "n_state": (SHIPPED_CONFIGS[0].parent / "n_state.ini").read_text(),
    "filter": FILTER_CONFIG,
    "none": FREE_CONFIG,
}


@pytest.mark.parametrize("command", ["simulate", "efficiency"])
@pytest.mark.parametrize("dim", ["0", "-3"])
@pytest.mark.parametrize("family", sorted(FAMILY_CONFIGS))
def test_a_quantum_dim_below_1_names_the_dim_key(tmp_path, capsys, family, dim, command):
    assert set(FAMILY_CONFIGS) == set(FAMILIES)
    text = FAMILY_CONFIGS[family]
    assert text.count("\ndim = ") == 1
    config = write(tmp_path, "dim.ini", re.sub(r"\ndim = \d+", f"\ndim = {dim}", text))
    out = tmp_path / "out.csv"
    assert main([command, "--config", config, "--output", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {config}: dim must be at least 1"]
    assert not out.exists()


@pytest.mark.parametrize("k1, code, message", [
    ("1e200", EXIT_NUMERIC, "numerical guard: K = -iH - G/2 is not finite"),
    ("inf", EXIT_CONFIG, "coupling constants must be finite"),
], ids=["square-overflows", "infinite"])
def test_non_finite_coupling_is_refused_on_one_line(tmp_path, k1, code, message):
    # a child process shows numpy's RuntimeWarnings on stderr, as a user sees them
    config = write(tmp_path, "extreme.ini", BINARY_CONFIG.replace("k1 = 1.0", f"k1 = {k1}"))
    proc = subprocess.run([sys.executable, "-m", "eeqt.cli", "simulate", "--config", config],
                          capture_output=True, text=True, timeout=60, env=cli_env())
    assert proc.returncode == code
    assert len(proc.stderr.splitlines()) == 1 and message in proc.stderr


@pytest.mark.parametrize("command", ["simulate", "efficiency"])
@pytest.mark.parametrize("signal", ["weights = inf,0.3", "weights = 0.7,0.3\noffdiag_0_1 = inf"])
def test_non_finite_signal_is_refused_on_one_line(tmp_path, command, signal):
    # inf * 0 makes NaN while the signal matrix is built, without a numpy warning
    config = write(tmp_path, "inf.ini", FILTER_CONFIG.replace("weights = 0.7,0.3", signal))
    proc = subprocess.run([sys.executable, "-m", "eeqt.cli", command, "--config", config],
                          capture_output=True, text=True, timeout=60, env=cli_env())
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr == f"config error: {config}: quantum state contains non-finite entries\n"


@pytest.mark.parametrize("command", ["simulate", "efficiency"])
def test_system_beyond_memory_is_a_config_error(tmp_path, capsys, monkeypatch, command):
    # numpy raises MemoryError for an array it cannot allocate, such as the
    # 14.6 TiB projector of an n_state detector with dim 10^6; the message
    # below is that of a dense 200-channel coupling, which is no longer built
    def too_large(config, dim):
        raise MemoryError("Unable to allocate 24.1 GiB for an array with shape "
                          "(201, 201, 200, 200) and data type complex128")

    monkeypatch.setitem(FAMILIES, "binary", too_large)
    config = write(tmp_path, "huge.ini", BINARY_CONFIG)
    assert main([command, "--config", config, "--output", str(tmp_path / "out.csv")]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {config}: Unable to allocate 24.1 GiB for an array with shape "
        "(201, 201, 200, 200) and data type complex128"]


WIDE_N_STATE_CONFIG = """\
[detector]
family = n_state
dim = 100
channels = 100
k = 1.0

[evolution]
step = 0.01
duration = 0.05
record_every = 10
"""


def address_space_limit(limit: int):
    """A ``preexec_fn`` that caps a child's address space at `limit` bytes."""
    resource = pytest.importorskip("resource")

    def bound_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))

    return bound_memory


def test_n_state_runs_at_a_hundred_channels_in_bounded_memory(tmp_path):
    # a dense coupling of 101 x 101 blocks of 100 x 100 would take 1.52 GiB;
    # the child alone runs under a 1.5 GiB address-space limit
    config = write(tmp_path, "wide.ini", WIDE_N_STATE_CONFIG)
    out = tmp_path / "wide.csv"
    proc = subprocess.run([sys.executable, "-m", "eeqt.cli", "simulate", "--config", config,
                           "--output", str(out)], capture_output=True, text=True, timeout=120,
                          env=cli_env(), preexec_fn=address_space_limit(3 * 2 ** 29))
    assert proc.returncode == EXIT_OK, proc.stderr
    _, header, rows = read_csv(out)
    rows = np.array(rows, dtype=float)
    assert header[-2:] == ["trace_drift", "min_eigenvalue"] and rows.shape == (2, 104)
    # the closed form reads only k and the channel count
    constants = types.SimpleNamespace(k=1.0, n_channels=100)
    expected = [n_state_trajectory(constants, 0, t) for t in rows[:, 0]]
    np.testing.assert_allclose(rows[:, 1:102], expected, rtol=0, atol=1e-12)


HUGE_CLASSICAL_DIM_CONFIG = """\
[detector]
family = none
dim = 2
classical_dim = 100000000

[evolution]
step = 1
duration = 1
"""


@pytest.mark.parametrize("command, message", [
    ("simulate", "2 records need more than the 1 GiB limit (MAX_RECORD_BYTES); "
                 "raise record_every"),
    ("efficiency", "family 'none' has no closed form"),
], ids=["simulate", "efficiency"])
def test_a_huge_classical_dim_is_refused_at_once(tmp_path, command, message):
    # 10^8 classical states and one signal entry: the signal check and the
    # coupling table visit only the blocks that hold an entry, so nothing
    # grows with the classical dim before the record bound or the missing
    # closed form refuses the run, in a child capped at 1 GiB
    config = write(tmp_path, "huge.ini", HUGE_CLASSICAL_DIM_CONFIG)
    proc = subprocess.run([sys.executable, "-m", "eeqt.cli", command, "--config", config],
                          capture_output=True, text=True, timeout=20, env=cli_env(),
                          preexec_fn=address_space_limit(2 ** 30))
    assert (proc.returncode, proc.stderr) == (EXIT_CONFIG, f"config error: {config}: {message}\n")


@pytest.mark.parametrize("command", ["simulate", "efficiency"])
def test_a_memory_error_without_text_is_named(tmp_path, capsys, monkeypatch, command):
    # n_state at dim = channels = 10^7 passes the record bound, but its table
    # of 10^7 couplings does not fit under a 1.5 GB cap, and the interpreter's
    # MemoryError carries no text
    def out_of_memory(path):
        raise MemoryError()

    monkeypatch.setattr(detectors, "read_system", out_of_memory)
    config = write(tmp_path, "h.ini", BINARY_CONFIG)
    assert main([command, "--config", config]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {config}: MemoryError\n"


def test_simulate_does_not_evaluate_the_closed_form(tmp_path):
    # the closed form rejects a weighted channel whose constants are zero,
    # but the system integrates fine: efficiency exits 2 and simulate 0
    config = write(tmp_path, "lazy.ini", TWO_STATE_CONFIG.replace("k1 = 1.0", "k1 = 0"))
    assert main(["simulate", "--config", config, "--output", str(tmp_path / "s.csv")]) == EXIT_OK


def test_usage_errors_exit_1(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main(["simulate"]) == EXIT_USAGE  # --config is required
    capsys.readouterr()


def identity_rows(rows, scale):
    """`scale` times the identity, in the row lists of a sector matrix like `rows`."""
    return [[scale * (i == j) for j in range(len(rows))] for i in range(len(rows))]


def test_trace_drift_guard_exits_3(tmp_path, capsys, monkeypatch):
    # main catches ArithmeticError alone; the drift guard is one.  An injected
    # record propagator adds half of each record to it, so the trace drifts,
    # in the sector kernel that simulate runs and in evolve alike.
    monkeypatch.setattr(sectors, "_propagator", lambda rows, tau: identity_rows(rows, 0.5))
    monkeypatch.setattr(evolution, "_propagator", lambda lv, tau: 0.5 * np.eye(len(lv)))
    config = write(tmp_path, "drift.ini", BINARY_CONFIG)
    couplings, state, cfg = load_system(config)
    with pytest.raises(TraceDriftError) as raised:
        evolve(state, couplings=couplings, config=cfg)
    assert isinstance(raised.value, ArithmeticError)
    assert main(["simulate", "--config", config, "--output", "-"]) == EXIT_NUMERIC
    assert capsys.readouterr() == ("", f"numerical guard: {raised.value}\n")


# k1 = 4 gives L the eigenvalue -16, and every step is recorded.
COARSE_BINARY_CONFIG = BINARY_CONFIG.replace("k1 = 1.0", "k1 = 4.0").replace(
    "record_every = 50", "record_every = 1")


def test_negative_record_exits_3(tmp_path, capsys, monkeypatch):
    # An injected record propagator doubles the exact change of each record,
    # in the sector kernel that simulate runs and in evolve alike: the trace
    # stays 1, but at t = 0.4 the unregistered weight becomes 2 exp(-6.4) - 1,
    # about -0.997.
    exact, sector_exact = evolution._propagator, sectors._propagator
    monkeypatch.setattr(evolution, "_propagator", lambda lv, tau: 2 * exact(lv, tau))
    monkeypatch.setattr(sectors, "_propagator",
                        lambda rows, tau: [[2 * x for x in row] for row in sector_exact(rows, tau)])
    config = write(tmp_path, "coarse.ini", COARSE_BINARY_CONFIG.replace("step = 0.01", "step = 0.4"))
    couplings, state, cfg = load_system(config)
    with pytest.raises(PositivityError, match=r"record 1 at t=0\.4 ") as raised:
        evolve(state, couplings=couplings, config=cfg)
    assert isinstance(raised.value, ArithmeticError)
    out = tmp_path / "coarse.csv"
    assert main(["simulate", "--config", config, "--output", str(out)]) == EXIT_NUMERIC
    assert capsys.readouterr() == ("", f"numerical guard: {raised.value}\n")
    assert not out.exists()


def simulated_and_closed_form(tmp_path, config):
    """The t, p_0, p_1 columns of `simulate` and the rows of `efficiency`, both exit 0."""
    sim, eff = tmp_path / "sim.csv", tmp_path / "eff.csv"
    assert main(["simulate", "--config", config, "--output", str(sim)]) == EXIT_OK
    assert main(["efficiency", "--config", config, "--output", str(eff)]) == EXIT_OK
    return (np.array([row[:3] for row in read_csv(sim)[2]], dtype=float),
            np.array(read_csv(eff)[2], dtype=float))


def test_coarse_stable_step_matches_the_closed_form(tmp_path):
    # h k1^2 = 1.6: a coarse grid on which a fixed-step method stays stable but
    # inaccurate (RK4 gave p_1(0.1) = 0.7296 against 0.7981)
    config = write(tmp_path, "coarse.ini", COARSE_BINARY_CONFIG.replace("step = 0.01", "step = 0.1"))
    simulated, closed_form = simulated_and_closed_form(tmp_path, config)
    np.testing.assert_allclose(simulated, closed_form, rtol=0, atol=1e-12)


@pytest.mark.parametrize("k1, k2, step, duration", [
    (3.0, 0.0, 0.3, 3.0),       # h k1^2 = 2.7: stable but inaccurate for RK4
    (1.0, 1.0, 1e5, 1e6),       # a step far outside any explicit method's stability
    (1.0, 1e3, 0.1, 2.0),
    (1.0, 1e6, 0.1, 2.0),
    (1.0, 1e10, 0.1, 2.0),      # the rates k1^2 and k2^2 are 20 decades apart
], ids=["k1-3-step-0.3", "balanced-step-1e5", "stiff-1e3", "stiff-1e6", "stiff-1e10"])
def test_every_record_matches_the_closed_form(tmp_path, k1, k2, step, duration):
    config = write(tmp_path, "binary.ini", BINARY_CONFIG.replace("k1 = 1.0", f"k1 = {k1!r}")
                   .replace("k2 = 0.0", f"k2 = {k2!r}").replace("step = 0.01", f"step = {step!r}")
                   .replace("duration = 2.0", f"duration = {duration!r}")
                   .replace("record_every = 50", "record_every = 1"))
    simulated, closed_form = simulated_and_closed_form(tmp_path, config)
    assert len(simulated) == round(duration / step) + 1
    np.testing.assert_allclose(simulated, closed_form, rtol=0, atol=1e-12)


def test_stiff_filter_beyond_max_steps_substeps_matches_the_closed_form(tmp_path):
    # N = 2 * 24^2 = 1152 and k = 1e8: evolve's matrix-free path would need
    # 2e8 series substeps, beyond MAX_STEPS, and refuses the run.  No sector
    # has more than 2 states, and the one that decays at rate 2k is squared
    # 28 times in the I + A form.
    config = write(tmp_path, "stiff.ini", FILTER_CONFIG.replace("dim = 2", "dim = 24")
                   .replace("k = 1.0", "k = 1e8").replace("step = 0.01", "step = 1.0")
                   .replace("duration = 2.0", "duration = 1.0"))
    simulated, closed_form = simulated_and_closed_form(tmp_path, config)
    assert len(simulated) == 2
    np.testing.assert_allclose(simulated, closed_form, rtol=0, atol=1e-12)


def count_eigenvalue_calls(monkeypatch):
    """The shapes passed to block_eigenvalues and to eigvalsh, in call order, as two lists."""
    blocks, lapack = [], []
    block_eigenvalues, eigvalsh = states.block_eigenvalues, np.linalg.eigvalsh

    def counted_blocks(a):
        blocks.append(np.shape(a))
        return block_eigenvalues(a)

    def counted_lapack(a, *args, **kwargs):
        lapack.append(np.array(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(states, "block_eigenvalues", counted_blocks)
    monkeypatch.setattr(evolution, "block_eigenvalues", counted_blocks)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_lapack)
    return blocks, lapack


def test_simulate_computes_the_record_eigenvalues_once(tmp_path, monkeypatch):
    # one pass over every record serves both the positivity guard and the
    # min_eigenvalue column; a binary detector keeps its diagonal signal
    # diagonal, so numpy never runs
    passes = []
    min_eigenvalues = sectors.min_eigenvalues

    def counted(values, n1, d, n_records):
        passes.append((n1, d, n_records))
        return min_eigenvalues(values, n1, d, n_records)

    monkeypatch.setattr(sectors, "min_eigenvalues", counted)
    blocks, lapack = count_eigenvalue_calls(monkeypatch)
    config = write(tmp_path, "binary.ini", BINARY_CONFIG)
    assert main(["simulate", "--config", config, "--output", str(tmp_path / "s.csv")]) == EXIT_OK
    assert passes == [(2, 2, 5)]  # 2 blocks of dim 2, 5 records
    assert blocks == [] and lapack == []


def test_only_the_blocks_with_a_coherence_reach_eigvalsh(tmp_path, monkeypatch):
    # the filter leaves block 0's coherences in place and moves only the
    # diagonal e1 rho e1 into block 1.  Block 0's three indices form one
    # coherence component, and at 4001 records its Jacobi sweeps are priced
    # above a numpy import, so that component of each record is the only
    # matrix that goes to LAPACK; a 2-index component never does.
    blocks, lapack = count_eigenvalue_calls(monkeypatch)
    text = (FILTER_CONFIG.replace("dim = 2", "dim = 3").replace("step = 0.01", "step = 0.001")
            .replace("duration = 2.0", "duration = 4.0").replace("record_every = 100",
                                                                  "record_every = 1")
            .replace("0.7,0.3", "0.5,0.3,0.2\noffdiag_0_1 = 0.1\noffdiag_1_0 = 0.1\n"
                     "offdiag_1_2 = 0.1\noffdiag_2_1 = 0.1"))
    assert 4001 * 3 ** 3 > limits.JACOBI_PRICE
    config = write(tmp_path, "coherent.ini", text)
    assert main(["simulate", "--config", config, "--output", str(tmp_path / "s.csv")]) == EXIT_OK
    assert blocks == [(4001, 3, 3)]
    assert [a.shape for a in lapack] == [(4001, 3, 3)]
    assert (lapack[0][:, 0, 1] != 0).all() and (lapack[0][:, 1, 2] != 0).all()
    blocks.clear()
    pair = FILTER_CONFIG.replace("0.7,0.3", "0.7,0.3\noffdiag_0_1 = 0.2\noffdiag_1_0 = 0.2")
    config = write(tmp_path, "pair.ini", pair.replace("step = 0.01", "step = 0.0005")
                   .replace("record_every = 100", "record_every = 1"))
    assert main(["simulate", "--config", config, "--output", str(tmp_path / "p.csv")]) == EXIT_OK
    assert blocks == [] and len(lapack) == 1


def test_nan_trace_drift_exits_3(tmp_path, capsys, monkeypatch):
    # an injected infinite record propagator in the sector kernel drives the
    # records to NaN (inf * 0); NaN drift must still trip the guard instead of
    # producing an exit-0 CSV of NaN rows, with no warning on the way
    monkeypatch.setattr(sectors, "_propagator", lambda rows, tau: [[math.inf] * len(rows)
                                                                   for _ in rows])
    config = write(tmp_path, "unstable.ini", BINARY_CONFIG)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", config, "--output", "-"]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numerical guard: trace drift nan at t=0.5 ")
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("text", [
    BINARY_CONFIG.replace("k1 = 1.0", "k1 = 1e200"),     # k1 ** 2 overflows
    FILTER_CONFIG.replace("k = 1.0", "k = 1e308"),       # 2 k t is inf * 0 at t = 0
], ids=["overflow", "nan"])
def test_unrepresentable_closed_form_exits_3(tmp_path, capsys, text):
    config = write(tmp_path, "extreme.ini", text)
    out = tmp_path / "eff.csv"
    assert main(["efficiency", "--config", config, "--output", str(out)]) == EXIT_NUMERIC
    assert capsys.readouterr().err.splitlines() == [
        "numerical guard: closed form is not finite; a constant is too large or too small "
        "to represent"]
    assert not out.exists()


# Channels whose squared constants underflow, so that k1 ** 2 + k2 ** 2 is 0:
# simulate's generator is zero on them, and the closed form gives the r -> 0
# limit a0 k1^2 t, which is 0 too.  The true rate is still positive, so the
# t = inf metadata holds a0 k1^2 / (k1^2 + k2^2), taken on scaled constants.
ZERO_RATE_CONFIGS = {
    "binary-k1-1e-200": (BINARY_CONFIG.replace("k1 = 1.0", "k1 = 1e-200"), "p_0=0 p_1=1"),
    "binary-k1-1e-300": (BINARY_CONFIG.replace("k1 = 1.0", "k1 = 1e-300"), "p_0=0 p_1=1"),
    "binary-k1-1e-300-k2-3e-300": (
        BINARY_CONFIG.replace("k1 = 1.0", "k1 = 1e-300").replace("k2 = 0.0", "k2 = 3e-300"),
        "p_0=0.9 p_1=0.1"),
    "two_state-k1-1e-300": (TWO_STATE_CONFIG.replace("k1 = 1.0", "k1 = 1e-300"),
                            "p_1=0.5 p_2=0.5 efficiency=1"),
    "two_state-k1-k2-1e-300": (
        TWO_STATE_CONFIG.replace("k1 = 1.0", "k1 = 1e-300").replace("k2 = 0.0", "k2 = 1e-300"),
        "p_1=0.25 p_2=0.5 efficiency=0.75"),
}


@pytest.mark.parametrize("text, asymptotic", ZERO_RATE_CONFIGS.values(), ids=ZERO_RATE_CONFIGS)
def test_a_zero_rate_channel_registers_nothing_at_a_finite_time(tmp_path, capsys, text,
                                                                 asymptotic):
    config = write(tmp_path, "zero-rate.ini", text)
    sim, eff = tmp_path / "sim.csv", tmp_path / "eff.csv"
    assert main(["simulate", "--config", config, "--output", str(sim)]) == EXIT_OK
    assert main(["efficiency", "--config", config, "--output", str(eff)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    _, sim_header, sim_rows = read_csv(sim)
    meta, header, rows = read_csv(eff)
    assert sim_header[:len(header)] == header
    assert len(rows) == len(sim_rows) == 5
    np.testing.assert_allclose(np.array(rows, float), np.array(sim_rows, float)[:, :len(header)],
                               rtol=0, atol=1e-12)
    assert {row[header.index("p_1")] for row in rows} == {"0"}
    assert meta["asymptotic"] == asymptotic


def csv_body(header, rows, text=()):
    """The CSV after its metadata, as ``cli._write_csv`` writes it to stdout."""
    args = argparse.Namespace(output="-", command="test", seed=0)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write_csv(args, header, rows, text=text)
    return out.getvalue().split("\n", 3)[3]  # after tool, command and seed


def per_value_body(header, rows):
    """The CSV body formatted value by value, with ``cli._fmt`` on every number."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cli._fmt(v) if isinstance(v, (int, float, np.floating)) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


SPECIAL_FLOATS = st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, 1e12,
                                  0.1, 1.0 / 3.0])
FLOATS = SPECIAL_FLOATS | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@given(cols=st.integers(1, 5), cells=st.lists(FLOATS, max_size=60))
@settings(max_examples=200, deadline=None)
def test_writer_matches_per_value_formatting_on_float_arrays(cols, cells):
    array = np.array(cells[:len(cells) // cols * cols], dtype=float).reshape(-1, cols)
    header = [f"c{j}" for j in range(cols)]
    assert csv_body(header, array) == per_value_body(header, array)
    # the traced CLI hands over a generator of 1-D arrays instead
    assert csv_body(header, (row for row in array)) == per_value_body(header, array)


@given(st.lists(st.tuples(st.integers(-2 ** 60, 2 ** 60), st.integers(0, 10 ** 13)), max_size=20))
@settings(max_examples=100, deadline=None)
def test_writer_matches_per_value_formatting_on_integers(rows):
    header = ["a", "b"]
    expected = per_value_body(header, rows)
    assert csv_body(header, rows) == expected
    assert csv_body(header, np.array(rows, dtype=np.int64).reshape(-1, 2)) == expected


@given(st.lists(st.tuples(FLOATS, st.text(alphabet="abcXYZ;_- 0123456789"), st.integers(0, 9)),
                max_size=20))
@settings(max_examples=100, deadline=None)
def test_writer_formats_text_columns_with_str(rows):
    header = ["x", "label", "n"]
    assert csv_body(header, rows, text=["label"]) == per_value_body(header, rows)


def test_writer_reads_arrays_in_blocks(monkeypatch):
    header = ["a", "b", "c", "d"]
    rows = cli.CSV_BLOCK_FIELDS // len(header)
    array = np.random.default_rng(3).normal(size=(2 * rows + 3, 4)) ** 9
    expected = per_value_body(header, array)
    assert csv_body(header, array) == expected
    monkeypatch.setattr(cli, "CSV_BLOCK_FIELDS", 7 * len(header))
    assert csv_body(header, array) == expected


class WritelinesRecorder(io.StringIO):
    """A stdout that keeps each part handed to ``writelines``."""

    def __init__(self):
        super().__init__()
        self.parts = []

    def writelines(self, parts):
        parts = list(parts)
        self.parts += parts
        super().writelines(parts)


@pytest.mark.parametrize("rows", [list, np.array], ids=["iterable", "array"])
def test_writer_never_hands_writelines_more_than_a_pipe_holds(rows):
    # 104 columns, as simulate writes for 100 channels, each at the widest
    # %.12g text: 19 characters and a comma make 2080 bytes a row
    header = [f"c{i}" for i in range(104)]
    value = -1.2345678901234e-300
    assert len(cli._fmt(value)) == 19
    table = [[value] * len(header)] * 500
    out = WritelinesRecorder()
    args = argparse.Namespace(output="-", command="test", seed=0)
    with contextlib.redirect_stdout(out):
        cli._write_csv(args, header, rows(table))
    assert 2 ** 15 < max(map(len, out.parts)) <= 2 ** 16  # full blocks, not a row each
    assert out.getvalue().split("\n", 3)[3] == per_value_body(header, table)


# Config fuzz: a valid config of a random family, with up to two values
# replaced by a negative, zero, extreme, non-finite or garbage one, or
# removed.  At most 50 steps keep each example cheap.
BAD_VALUES = ["-1", "0", "1e200", "1e-200", "inf", "nan", "abc", "", None]
# The step grid never draws a missing value: the defaults take up to 2000
# steps.  A step count above MAX_STEPS, such as 1e202, is a config error.
BAD_GRID_VALUES = ["-1", "0", "1e200", "1e-200", "inf", "nan", "abc", "", "0.123"]
CONSTANTS = st.floats(0.1, 2.0).map(repr)


@st.composite
def config_sections(draw):
    family = draw(st.sampled_from(["binary", "two_state", "n_state", "filter", "none"]))
    dim = draw(st.integers(1, 4))
    index = st.integers(0, dim - 1).map(str)
    detector = {"family": family, "dim": str(dim)}
    signal = {}
    if family in ("binary", "two_state"):
        a0 = draw(st.floats(0.0, 1.0)) if dim > 1 else 1.0
        b0 = draw(st.one_of(st.just(1.0 - a0), st.floats(0.0, 1.0 - a0)))
        signal = {"aligned": repr(a0), "orthogonal": repr(b0)}
    if family == "binary":
        detector.update(k1=draw(CONSTANTS), k2=draw(CONSTANTS), projector=draw(index))
    elif family == "two_state":
        for key in ("k1", "k2", "n1", "n2"):
            detector[key] = draw(CONSTANTS)
        order = draw(st.permutations(range(max(dim, 2))))
        detector.update(projector2=str(order[0]), projector3=str(order[1]))
    elif family == "n_state":
        channels = draw(st.integers(1, dim))
        detector.update(channels=str(channels), k=draw(CONSTANTS),
                        aligned_channel=str(draw(st.integers(0, channels - 1))))
    else:
        detector.update(k=draw(CONSTANTS), projector=draw(index),
                        classical_dim=str(draw(st.integers(1, 3))))
        units = draw(st.lists(st.integers(1, 9), min_size=1, max_size=dim))
        weights = [u / sum(units) for u in units]
        signal["weights"] = ",".join(repr(w) for w in weights)
        if len(weights) > 1:
            # one Hermitian pair of coherences, small enough to stay positive
            c = repr(draw(st.floats(-0.99, 0.99)) * min(weights[0], weights[1]))
            signal.update(offdiag_0_1=c, offdiag_1_0=c)
    step = draw(st.sampled_from([0.01, 0.05, 0.1]))
    evolution = {"step": repr(step), "duration": repr(step * draw(st.integers(1, 50))),
                 "record_every": str(draw(st.integers(1, 60)))}
    return {"detector": detector, "signal": signal, "evolution": evolution}


@st.composite
def config_texts(draw):
    sections = draw(config_sections())
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(sorted(name for name in sections if sections[name])))
        key = draw(st.sampled_from(sorted(sections[name])))
        bad = BAD_GRID_VALUES if key in ("step", "duration") else BAD_VALUES
        sections[name][key] = draw(st.sampled_from(bad))
    lines = []
    for name, section in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in section.items() if value is not None]
    return "\n".join(lines) + "\n"


@given(text=config_texts())
@settings(max_examples=200, deadline=None)
def test_any_config_exits_with_a_documented_code(tmp_path_factory, text):
    directory = tmp_path_factory.mktemp("fuzz")
    config = write(directory, "fuzz.ini", text)
    for command in ("simulate", "efficiency"):
        out = directory / f"{command}.csv"
        with np.errstate(all="ignore"):
            code = main([command, "--config", config, "--output", str(out)])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC)
        if code == EXIT_OK:
            _, _, rows = read_csv(out)
            assert np.isfinite(np.array(rows, dtype=float)).all()
