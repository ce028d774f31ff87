"""The census pinned: each run writes the bytes it always wrote, with numpy and without.

``census.json`` holds the exit code and SHA-256 of every run of ``census.py``,
recorded with eeqt 0.1.0 on Python 3.11.7, x86-64 Linux and glibc; a change
that moves any of them changes a CSV, a summary or an exit code, and must
say so.  The pinned bytes are those of that interpreter: Python 3.12
compensates float ``sum``, and ``math.exp`` and ``%.12g`` come from the
platform's C library, so other versions skip the pins.  The twin runs the
same census in one ``python -S`` child, with no site-packages and so no
numpy, and needs its bytes to equal the in-process ones on any version.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import census
import eeqt

HERE = pathlib.Path(__file__).parent
PINS = json.loads((HERE / "census.json").read_text())


@pytest.fixture(scope="module")
def bare():
    """The census in a ``python -S`` child, started first so that it runs beside the in-process
    one; its stdout is the JSON of [table, whether numpy was loaded]."""
    code = ("import json, pathlib, sys, tempfile\nimport census\n"
            "with tempfile.TemporaryDirectory() as scratch:\n"
            "    table = census.table(pathlib.Path(scratch))\n"
            "print(json.dumps([table, 'numpy' in sys.modules]))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(pathlib.Path(eeqt.__file__).parents[1]), str(HERE),
                    os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen([sys.executable, "-S", "-c", code], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env)
    yield proc
    proc.kill()
    proc.communicate()


@pytest.fixture(scope="module")
def table(bare, tmp_path_factory):
    return census.table(tmp_path_factory.mktemp("census"))


def test_the_census_holds_its_runs(table):
    assert len(table) == 146 and table.keys() == PINS.keys()
    assert [name for name, (code, _) in table.items() if code] == ["reproduce"]
    assert table["reproduce"][0] == 3  # P(15) fails, as the reference table truncates it


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="recorded on Python 3.11; 3.12 compensates float sum")
def test_every_census_run_gives_its_pinned_bytes(table):
    assert {name: run for name, run in table.items() if run != PINS[name]} == {}


def test_the_census_gives_the_same_bytes_without_numpy(bare, table):
    out, err = bare.communicate(timeout=120)
    assert bare.returncode == 0, err
    runs, numpy = json.loads(out)
    assert not numpy
    assert {name: run for name, run in runs.items() if run != table[name]} == {}
    assert runs.keys() == table.keys()
