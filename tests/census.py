"""The census: what the CLI writes on the benchmark's inputs and on the shipped configs.

Its 146 runs are every invocation and companion of the four workloads of
``perfbench/workloads.py`` at seeds 1-3, the shipped configs under
``simulate`` and ``efficiency``, ``validate`` at seeds 0 and 7, and
``reproduce``.  Each run calls ``eeqt.cli.main`` in-process, with
``--output`` a file where the command takes one, and gives its exit code and
the SHA-256 of its stdout, a NUL, its stderr, a NUL and the CSV.  Nothing in
a digest names a path, so the table does not depend on where it runs.

    PYTHONPATH=src python tests/census.py --record > tests/census.json

prints the table that ``test_census.py`` pins.  A change that moves bytes
on purpose regenerates it and says which entries moved.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

from eeqt.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "perfbench"))

import workloads  # noqa: E402

SEEDS = (1, 2, 3)


def runs(directory: pathlib.Path) -> dict:
    """{name: argv} of every census run, with the generated configs written into `directory`."""
    out = {}
    for workload in sorted(workloads.WORKLOADS):
        for seed in SEEDS:
            invocations = workloads.generate(workload, seed)
            invocations += workloads.companions(workload, seed, invocations)
            inputs = directory / f"{workload}-{seed}"
            inputs.mkdir()
            workloads.write_inputs(invocations, inputs)
            for inv in invocations:
                out[f"{workload}/{seed}/{inv.key}"] = [
                    str(inputs / arg) if arg == inv.config_name else arg for arg in inv.argv]
    for config in sorted((ROOT / "configs").glob("*.ini")):
        for command in ("simulate", "efficiency"):
            out[f"shipped/{command}/{config.stem}"] = [command, "--config", str(config)]
    for seed in (0, 7):
        out[f"validate/seed{seed}"] = ["validate", "--seed", str(seed)]
    out["reproduce"] = ["reproduce"]
    return out


def run(argv: list, csv: pathlib.Path) -> list:
    """[exit code, SHA-256 of stdout NUL stderr NUL CSV] of ``main(argv)``."""
    if argv[0] != "reproduce":
        argv = [*argv, "--output", str(csv)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    body = csv.read_bytes() if csv.exists() else b""
    csv.unlink(missing_ok=True)
    text = f"{out.getvalue()}\0{err.getvalue()}\0".encode() + body
    return [code, hashlib.sha256(text).hexdigest()]


def table(directory: pathlib.Path) -> dict:
    """{name: [exit code, digest]} of every census run, its files under `directory`."""
    return {name: run(argv, directory / "out.csv") for name, argv in runs(directory).items()}


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record  (prints the table as JSON)")
    with tempfile.TemporaryDirectory() as scratch:
        print(json.dumps(table(pathlib.Path(scratch)), indent=1, sort_keys=True))
