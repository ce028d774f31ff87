"""Benchmark of the `eeqt` command line, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from ./src.
With ``--trace 0`` the run drives the CLI as a user would: one
``python -m eeqt.cli`` subprocess at a time, in a closed loop from a single
client, repeating the workload's seeded invocation list until ``--seconds``
have passed (at least twice).  Every output is checked.  With ``--trace 1``
the same inputs go through the public functions of each module in-process
(see tracing.py) and the run reports per-layer figures instead.

``--workload all`` runs every workload in turn and prints one table.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Generated inputs,
outputs and a results file go to ``.perfbench-out/`` under the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402
from child import Child, cli_env  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# name -> (unit, better); the same names and units as BENCHMARK.json.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "steps_per_s": ("1/s", "higher"),
    "rows_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "setup_s": ("s", "lower"),
}

# Cold starts timed for setup_s in each cycle.  Spreading them over the whole
# run rather than timing them in one burst keeps a short slow spell of the
# machine from setting the median.
SETUP_PER_CYCLE = 2


def machine() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    threads = {k: os.environ.get(k, "unset")
               for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "blas_threads_note": "left at the library default (unset means one per CPU for OpenBLAS)",
        "rss_method": "ru_maxrss of each CLI child from os.wait4, KiB on Linux",
        "limits": ["no hardware counters", "no system-wide tracing",
                   "operation counts (steps, records, binomial terms, generator size) "
                   "are computed from the inputs, not measured"],
        "load": "closed loop, one client, one CLI process at a time",
    }


def cold_start(run_dir: Path, env: dict) -> Child:
    """One `eeqt --version` in a fresh interpreter."""
    child = Child(["-m", "eeqt.cli", "--version"], run_dir, env, "version")
    if child.exit_code != 0 or not child.stdout.startswith("eeqt "):
        raise RuntimeError(f"`eeqt --version` failed (exit {child.exit_code}): "
                           f"{child.stdout.strip()} {child.stderr.strip()[-500:]}")
    return child


def run_end_to_end(workload: str, seed: int, seconds: float, run_dir: Path) -> dict:
    invocations = workloads.generate(workload, seed)
    workloads.write_inputs(invocations, run_dir)
    env = cli_env(SRC)
    binomial = check.binomial_for(invocations)
    peak_rss = cold_start(run_dir, env).max_rss_mb  # untimed: writes the bytecode cache
    setup = []

    walls = {inv.key: [] for inv in invocations}
    rows = {inv.key: [] for inv in invocations}
    digests, failures, cycle_times = {}, [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for _ in range(SETUP_PER_CYCLE):
            child = cold_start(run_dir, env)
            setup.append(child.wall_s)
            peak_rss = max(peak_rss, child.max_rss_mb)
        for inv in invocations:
            out = run_dir / inv.output_name
            out.unlink(missing_ok=True)
            child = Child(["-m", "eeqt.cli", *inv.argv, "--output", out.name],
                          run_dir, env, "child")
            attempted += 1
            walls[inv.key].append(child.wall_s)
            peak_rss = max(peak_rss, child.max_rss_mb)
            verified = 0
            try:
                if child.exit_code != 0:
                    raise check.CheckError(f"exit code {child.exit_code}: "
                                           f"{child.stderr.strip()[-300:]}")
                data = out.read_bytes()
                digest = hashlib.sha256(data).hexdigest()
                if digests.setdefault(inv.key, digest) != digest:
                    raise check.CheckError("CSV differs from the same invocation's "
                                           "first output in this run")
                verified = check.check_invocation(inv, data.decode(), child.stdout, binomial)
            except (check.CheckError, OSError, UnicodeDecodeError) as exc:
                failed += 1
                failures.append(f"{inv.key}: {exc}")
            rows[inv.key].append(verified)
        cycle_times.append(time.perf_counter() - cycle_start)
        elapsed = time.perf_counter() - start
        if len(cycle_times) >= 2 and elapsed + statistics.median(cycle_times) > seconds:
            break

    med = {key: statistics.median(v) for key, v in walls.items()}
    sims = [inv for inv in invocations if inv.command == "simulate"]
    metrics = {
        "wall_s": sum(med.values()),
        "steps_per_s": (sum(inv.system["steps"] for inv in sims)
                        / sum(med[inv.key] for inv in sims)),
        "rows_per_s": sum(statistics.median(v) for v in rows.values()) / sum(med.values()),
        "peak_rss_mb": peak_rss,
        "ok_ratio": 1.0 - failed / attempted,
        "setup_s": statistics.median(setup),
    }
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics, "units": END_TO_END,
        "cycles": len(cycle_times), "invocations_per_cycle": len(invocations),
        "cycle_s": cycle_times, "fail_ratio": failed / attempted,
        "failures": failures[:20], "setup_samples_s": setup,
        "per_invocation": {inv.key: {"argv": list(inv.argv), "wall_s": walls[inv.key],
                                     "rows": rows[inv.key]} for inv in invocations},
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = OUT / f"{workload}-s{seed}-t{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if trace:
            import tracing

            result = tracing.run_traced(workload, seed, seconds, run_dir, SRC)
        else:
            result = run_end_to_end(workload, seed, seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace),
                  machine=machine())
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{workload}-s{seed}-t{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1, default=str))
    result["results_file"] = str(path.relative_to(ROOT))
    return result


def summary_lines(result: dict) -> list:
    lines = [f"workload {result['workload']} seed {result['seed']} "
             f"trace {result['trace']}: {result['cycles']} cycle(s) of "
             f"{result['invocations_per_cycle']} invocations; closed loop, one client"]
    for name, value in result["metrics"].items():
        unit = result["units"][name][0]
        lines.append(f"  {name:<34} {value:>14.6g} {unit}")
    lines.append(f"  {'fail_ratio':<34} {result['fail_ratio']:>14.6g} "
                 f"({result['failed']} of {result['attempted']})")
    for extra in result.get("notes", []):
        lines.append(f"  {extra}")
    for failure in result["failures"]:
        lines.append(f"  FAILED {failure}")
    lines.append(f"  results: {result['results_file']}")
    return lines


def final_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": result["units"][name][0]}
                    for name, value in result["metrics"].items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eeqt" / "cli.py").is_file():
        print(f"error: no eeqt sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            result = run_one(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(summary_lines(result)), flush=True)
            results.append(result)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("machine: " + json.dumps(results[0]["machine"]))
    if len(results) == 1:
        print(final_line(results[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['workload']}/{name}": {"value": value,
                                                    "unit": r["units"][name][0]}
                        for r in results for name, value in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
