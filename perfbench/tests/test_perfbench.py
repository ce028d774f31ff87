"""Tests of the benchmark itself: generator, checker and metric names."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    assert workloads.generate(workload, 3) == workloads.generate(workload, 3)
    a, b = workloads.generate(workload, 3), workloads.generate(workload, 4)
    assert [(i.argv, i.config_text) for i in a] != [(i.argv, i.config_text) for i in b]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_sizes_do_not_depend_on_the_seed(workload):
    def sizes(seed):
        return sorted((inv.command, inv.system and (inv.system["family"], inv.system["dim"],
                                                    inv.system["steps"],
                                                    inv.system["record_every"]),
                       inv.scenario and (inv.scenario["margin"], inv.scenario["m_max"]))
                      for inv in workloads.generate(workload, seed))
    assert sizes(1) == sizes(2) == sizes(99)


def simulate_csv(system, rows=None):
    """A CSV as `eeqt simulate` writes it, with exact closed-form values."""
    steps = range(0, system["steps"] + 1, system["record_every"])
    times = [k * system["step"] for k in steps]
    probs = check.closed_form(system, times)
    lines = ["# tool: eeqt 0.1.0", "# command: simulate",
             "t," + ",".join(f"p_{i}" for i in range(probs.shape[1]))
             + ",trace_drift,min_eigenvalue"]
    for t, p in zip(times, probs):
        lines.append(",".join(f"{v:.12g}" for v in (t, *p, 1e-16, 0.0)))
    if rows is not None:
        lines[3:] = rows(lines[3:])
    return "\n".join(lines) + "\n"


@pytest.fixture
def system():
    return workloads.generate("detector-mix", 5)[0].system


def test_checker_accepts_exact_closed_form(system):
    rows = check.check_simulate(system, simulate_csv(system))
    assert rows == system["steps"] // system["record_every"] + 1


@pytest.mark.parametrize("corrupt", [
    pytest.param(lambda rows: rows[:-1], id="truncated-body"),
    pytest.param(lambda rows: rows[:2] + [",".join(["nan"] * len(rows[2].split(",")))]
                 + rows[3:], id="nan-row"),
    pytest.param(lambda rows: rows[:-1] + [_shift_last_probability(rows[-1], 1e-5)],
                 id="wrong-final-probability"),
    pytest.param(lambda rows: rows[:-1] + [_set_field(rows[-1], -2, "1e-6")],
                 id="trace-drift"),
    pytest.param(lambda rows: rows[:-1] + [_set_field(rows[-1], -1, "-1e-6")],
                 id="negative-eigenvalue"),
])
def test_checker_rejects_bad_simulate_output(system, corrupt):
    with pytest.raises(check.CheckError):
        check.check_simulate(system, simulate_csv(system, corrupt))


def _set_field(row, index, value):
    fields = row.split(",")
    fields[index] = value
    return ",".join(fields)


def _shift_last_probability(row, delta):
    fields = row.split(",")
    fields[-3] = f"{float(fields[-3]) + delta:.12g}"
    return ",".join(fields)


def test_binomial_matches_brute_force_enumeration():
    from itertools import product

    m, p = 12, 0.72
    exact = sum(p ** sum(bits) * (1 - p) ** (m - sum(bits))
                for bits in product((0, 1), repeat=m) if 8 <= sum(bits) <= 10)
    assert check.Binomial(m).confidence(m, p, 8, 10) == pytest.approx(exact, abs=1e-14)


def _cli(argv, tmp_path):
    from eeqt import cli

    code, stdout = tracing._main_call(
        cli, workloads.Invocation("x/y", argv[0], tuple(argv)), tmp_path)
    assert code == 0
    return (tmp_path / "x_y.csv").read_text(), stdout


def test_program_passes_checker_on_cheap_invocations(tmp_path):
    invs = workloads.generate("detector-mix", 7) + workloads.generate("plan-scan", 7)
    workloads.write_inputs(invs, tmp_path)
    cheap = [inv for inv in invs
             if inv.command in ("efficiency", "validate")
             or inv.command == "plan" and inv.scenario["m_max"] == 100
             or inv.command == "simulate" and inv.system["dim"] <= 3
             and inv.system["steps"] <= 1000]
    assert {inv.command for inv in cheap} == {"simulate", "efficiency", "validate", "plan"}
    binomial = check.Binomial(100)
    for inv in cheap:
        argv = [str(tmp_path / a) if a == inv.config_name else a for a in inv.argv]
        csv, stdout = _cli(argv, tmp_path)
        assert check.check_invocation(inv, csv, stdout, binomial) > 0


@pytest.mark.xfail(raises=check.CheckError, reason="eeqt efficiency takes the filter's aligned weight from "
                          "weights[0] rather than weights[projector]")
def test_filter_efficiency_with_nonzero_projector(tmp_path):
    inv = next(inv for inv in workloads.generate("large-dim", 1)
               if inv.system["family"] == "filter" and inv.system["projector"] != 0)
    system = dict(inv.system, steps=10, record_every=5)
    system["duration"] = 10 * system["step"]
    (tmp_path / "f.ini").write_text(workloads.config_text(system))
    csv, _ = _cli(["efficiency", "--config", str(tmp_path / "f.ini")], tmp_path)
    check.check_efficiency(system, csv)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WORKLOADS
    fake = {"correct": True, "attempted": 1, "failed": 0, "units": run.END_TO_END,
            "metrics": {name: 1.0 for name in run.END_TO_END}}
    printed = json.loads(run.final_line(fake))
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in printed["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "plan-scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
