"""The byte-identical promise: each pinned invocation writes the bytes it always wrote.

Each case runs ``main`` in-process and hashes its stdout, a NUL and its
stderr with SHA-256.  The constants were recorded with eeqt 0.1.0 on
Python 3.11.7; a change that moves any of them changes a CSV or a summary,
and must say so.  Python 3.12 compensates float ``sum``, which moves the
last digits of ``sectors._matmul`` and ``_squares``, so other versions skip.
"""

import hashlib
import pathlib
import sys

import pytest

from eeqt.cli import EXIT_OK, main

CONFIGS = pathlib.Path(__file__).parents[1] / "configs"
PLAN = ["plan", "--rho1", "0.8", "--eff", "0.9", "--accuracy", "0.05", "--confidence", "0.6"]

DIGESTS = {
    "simulate-binary": "cb1f9b2c2ddd31e2827b75c92dacfbc3d558a6e6c819143350368a8f49b023e6",
    "efficiency-binary": "a0bbaab358df26a4784ffd4d1a6bac3cb78d822482e93a177ed2f9818cd08b67",
    "simulate-filter": "213fbbb535180db6b49cf3e512f9c9a885f724e7aa1c1d084f9f59dca960ebeb",
    "efficiency-filter": "a6a3137f1c019d3984b477a855353e702868ed6ea6d8e5b9d90bb8b6905cb8d1",
    "simulate-n_state": "b076ded9d5b031dd798499a3585b9be36b2065a63da655d919fa631540cc4f75",
    "efficiency-n_state": "3817a583988ba74372b61c1b0780d34b838b23f578478ddf7f23fd32d5c660b7",
    "simulate-two_state": "c6ed6ea9c21419edc0d7397127c2dab00cea71e7ea293bb4083f14ee5e73ea81",
    "efficiency-two_state": "60db23f7ae67937161391b9931bad4eb0e95e796f2220c50b78a74582593e1ed",
    "validate": "4b1275c05b9a0511ee1141c8e7b8f958106128ecae55fd895745a1d22a589fd3",
    "plan": "e3ff806275128658642b5a4c798bca6456b27928cfba598a99bc8f3923e6d852",
}


def argv_of(case: str) -> list:
    """The arguments of a case: ``command-config`` for a shipped config, else the command."""
    if case == "plan":
        return PLAN
    command, _, config = case.partition("-")
    return [command, "--config", str(CONFIGS / f"{config}.ini")] if config else [command]


def test_every_shipped_config_is_pinned():
    assert sorted(p.stem for p in CONFIGS.glob("*.ini")) == sorted(
        case.partition("-")[2] for case in DIGESTS if case.startswith("simulate-"))


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="recorded on Python 3.11; 3.12 compensates float sum")
@pytest.mark.parametrize("case", DIGESTS)
def test_output_bytes_are_unchanged(capsys, case):
    assert main(argv_of(case)) == EXIT_OK
    out, err = capsys.readouterr()
    assert hashlib.sha256(f"{out}\0{err}".encode()).hexdigest() == DIGESTS[case]
