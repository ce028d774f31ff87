import math

import numpy as np
import pytest

from eeqt.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main

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


def test_simulate_is_deterministic(tmp_path):
    config = write(tmp_path, "binary.ini", BINARY_CONFIG)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["simulate", "--config", config, "--output", str(out1)])
    main(["simulate", "--config", config, "--output", str(out2)])
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


def test_efficiency_filter_uses_projector_weight(tmp_path):
    # the closed form takes q1 = tr(e1 rho_q), the weight on the detector
    # projector, so it must track the integrated system for any projector
    config = write(tmp_path, "filter.ini",
                   FILTER_CONFIG.replace("k = 1.0", "k = 1.0\nprojector = 1"))
    sim, eff = tmp_path / "sim.csv", tmp_path / "eff.csv"
    assert main(["simulate", "--config", config, "--output", str(sim)]) == EXIT_OK
    assert main(["efficiency", "--config", config, "--output", str(eff)]) == EXIT_OK
    simulated = [float(v) for v in read_csv(sim)[2][-1][:3]]
    closed = [float(v) for v in read_csv(eff)[2][-1]]
    assert closed == pytest.approx(simulated, abs=1e-6)


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


def test_reproduce_reports_known_truncated_row(capsys):
    # one reference row cannot pass: the table's P(15) = 0.22 truncates the
    # exact 0.226163, which falls outside the 0.005 band
    code = main(["reproduce"])
    out = capsys.readouterr().out
    assert code == EXIT_NUMERIC
    failing = [line for line in out.splitlines() if line.endswith("FAIL")]
    assert len(failing) == 1
    assert failing[0].startswith("P(15)")
    assert out.count("pass") >= 14
    assert "1 row(s) failed" in out


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


def test_usage_errors_exit_1(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main(["simulate"]) == EXIT_USAGE  # --config is required
    capsys.readouterr()


def test_trace_drift_guard_exits_3(tmp_path, capsys):
    config = write(tmp_path, "coarse.ini", BINARY_CONFIG.replace(
        "step = 0.01", "step = 2.0").replace("duration = 2.0", "duration = 20.0")
        .replace("k1 = 1.0", "k1 = 4.0"))
    assert main(["simulate", "--config", config, "--output", "-"]) == EXIT_NUMERIC
    assert "numerical guard" in capsys.readouterr().err


def test_nan_trace_drift_exits_3(tmp_path, capsys):
    # an unstable step drives the records to NaN; NaN drift must still trip
    # the guard instead of producing an exit-0 CSV of NaN rows
    config = write(tmp_path, "unstable.ini", BINARY_CONFIG.replace(
        "step = 0.01", "step = 0.5").replace("duration = 2.0", "duration = 400.0")
        .replace("k1 = 1.0", "k1 = 30.0"))
    assert main(["simulate", "--config", config, "--output", "-"]) == EXIT_NUMERIC
    assert "numerical guard" in capsys.readouterr().err
