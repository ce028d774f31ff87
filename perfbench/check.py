"""Output checks for every benchmark invocation.

The checker does not import `eeqt`.  It rebuilds the detector closed forms
and the binomial confidences on its own, so a defect in the program's
versions of them shows as a failed check rather than cancelling out.

Each ``check_*`` function returns the number of CSV data rows it verified
and raises CheckError on the first problem.
"""

from __future__ import annotations

import math
import re

import numpy as np

SIM_TOL = 1e-6           # simulated probabilities against the closed forms
TRACE_TOL = 1e-8         # EvolutionConfig.trace_tol, which the CLI leaves at its default
MIN_EIG_TOL = -1e-9
PRINT_TOL = 1e-9         # values printed with 12 significant digits
CONF_TOL = 1e-9
VALIDATE_ROWS = 17       # 6 two-event and 11 three-event catalogue patterns


class CheckError(ValueError):
    """An invocation's output failed a check."""


def parse_csv(text: str):
    """Split CLI CSV output into (metadata dict, header list, rows of strings)."""
    meta, lines = {}, text.splitlines()
    k = 0
    while k < len(lines) and lines[k].startswith("#"):
        key, _, value = lines[k][1:].partition(":")
        meta[key.strip()] = value.strip()
        k += 1
    if k == len(lines):
        raise CheckError("no header line")
    header = lines[k].split(",")
    rows = [line.split(",") for line in lines[k + 1:]]
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise CheckError(f"row {r} has {len(row)} fields, header has {len(header)}")
    return meta, header, rows


def _floats(rows, header) -> np.ndarray:
    try:
        data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    except ValueError as exc:
        raise CheckError(f"non-numeric field: {exc}") from None
    if not np.all(np.isfinite(data)):
        bad = int(np.argwhere(~np.isfinite(data))[0, 0])
        raise CheckError(f"non-finite value in row {bad}")
    return data


def classical_dim(system: dict) -> int:
    return {"binary": 2, "two_state": 3, "filter": 2}.get(system["family"],
                                                        system.get("channels", 0) + 1)


def _rise(weight, gain, loss, t):
    rate = gain ** 2 + loss ** 2
    return weight * gain ** 2 / rate * -np.expm1(-rate * t)


def closed_form(system: dict, t) -> np.ndarray:
    """Event probabilities of a generated system at times t, shape (len(t), n+1)."""
    t = np.asarray(t, dtype=float)
    fam = system["family"]
    p = np.zeros((t.size, classical_dim(system)))
    if fam == "binary":
        p[:, 1] = _rise(system["aligned"], system["k1"], system["k2"], t)
        p[:, 0] = system["aligned"] + system["orthogonal"] - p[:, 1]
    elif fam == "two_state":
        p[:, 1] = _rise(system["aligned"], system["k1"], system["k2"], t)
        p[:, 2] = _rise(system["orthogonal"], system["n1"], system["n2"], t)
        p[:, 0] = 1.0 - p[:, 1] - p[:, 2]
    elif fam == "n_state":
        p[:, 0] = np.exp(-system["k"] * t)
        p[:, system["aligned_channel"] + 1] = -np.expm1(-system["k"] * t)
    elif fam == "filter":
        # The aligned weight q1 relaxes to an even split at rate 2k.
        half = 0.5 * system["weights"][system["projector"]]
        p[:, 1] = -half * np.expm1(-2.0 * system["k"] * t)
        p[:, 0] = 1.0 - p[:, 1]
    else:
        raise ValueError(f"no closed form for family {fam!r}")
    return p


def _expect_meta(meta, command):
    if not meta.get("tool", "").startswith("eeqt "):
        raise CheckError("missing '# tool: eeqt ...' metadata")
    if meta.get("command") != command:
        raise CheckError(f"metadata command {meta.get('command')!r}, expected {command!r}")


def check_simulate(system: dict, text: str) -> int:
    meta, header, rows = parse_csv(text)
    _expect_meta(meta, "simulate")
    n = classical_dim(system)
    want = ["t"] + [f"p_{i}" for i in range(n)] + ["trace_drift", "min_eigenvalue"]
    if header != want:
        raise CheckError(f"header {header}, expected {want}")
    steps, every = system["steps"], system["record_every"]
    record_steps = list(range(0, steps + 1, every))
    if record_steps[-1] != steps:
        record_steps.append(steps)
    if len(rows) != len(record_steps):
        raise CheckError(f"{len(rows)} records, expected {len(record_steps)}")
    data = _floats(rows, header)
    times = np.array([k * system["step"] for k in record_steps])
    if np.max(np.abs(data[:, 0] - times)) > PRINT_TOL * max(1.0, times[-1]):
        raise CheckError("record times do not match the step grid")
    err = np.abs(data[:, 1:n + 1] - closed_form(system, times))
    if err.max() > SIM_TOL:
        r = int(np.argmax(err.max(axis=1)))
        raise CheckError(f"probabilities at t={times[r]:g} differ from the closed form "
                         f"by {err.max():.3g}")
    if data[:, n + 1].max() > TRACE_TOL:
        raise CheckError(f"trace drift {data[:, n + 1].max():.3g} exceeds {TRACE_TOL:g}")
    if data[:, n + 2].min() < MIN_EIG_TOL:
        raise CheckError(f"min eigenvalue {data[:, n + 2].min():.3g} below {MIN_EIG_TOL:g}")
    return len(rows)


def efficiency_grid(system: dict) -> np.ndarray:
    """Time grid of `eeqt efficiency`: every record interval up to the duration."""
    dt = system["step"] * system["record_every"]
    return np.arange(0.0, system["duration"] + 0.5 * dt, dt)


def check_efficiency(system: dict, text: str) -> int:
    meta, header, rows = parse_csv(text)
    _expect_meta(meta, "efficiency")
    n = classical_dim(system)
    want = ["t"] + [f"p_{i}" for i in range(n)]
    if header != want:
        raise CheckError(f"header {header}, expected {want}")
    times = efficiency_grid(system)
    if len(rows) != times.size:
        raise CheckError(f"{len(rows)} grid points, expected {times.size}")
    data = _floats(rows, header)
    if np.max(np.abs(data[:, 0] - times)) > PRINT_TOL * max(1.0, times[-1]):
        raise CheckError("grid times do not match")
    err = np.max(np.abs(data[:, 1:] - closed_form(system, times)))
    if err > PRINT_TOL:
        raise CheckError(f"efficiency grid differs from the closed form by {err:.3g}")
    return len(rows)


def check_validate(text: str) -> int:
    meta, header, rows = parse_csv(text)
    _expect_meta(meta, "validate")
    if "cp_pass" not in header:
        raise CheckError("no cp_pass column")
    if len(rows) != VALIDATE_ROWS:
        raise CheckError(f"{len(rows)} catalogue rows, expected {VALIDATE_ROWS}")
    col = header.index("cp_pass")
    failing = [row[header.index("pattern")] for row in rows if row[col] != "yes"]
    if failing:
        raise CheckError(f"cp_pass is not 'yes' for {failing}")
    return len(rows)


class Binomial:
    """Binomial probabilities from a table of exact log-factorials.

    log(m!) is taken from the exact integer m!, so each table entry is
    correct to one rounding; the program sums log-gamma or math.comb terms.
    """

    def __init__(self, m_max: int):
        table, fact = [0.0], 1
        for k in range(1, m_max + 1):
            fact *= k
            table.append(math.log(fact))
        self.log_fact = np.array(table)

    def confidence(self, m: int, p: float, lo: int, hi: int) -> float:
        if hi < lo:
            return 0.0
        i = np.arange(lo, hi + 1)
        lf = self.log_fact
        logs = lf[m] - lf[i] - lf[m - i] + i * math.log(p) + (m - i) * math.log1p(-p)
        return float(np.exp(logs).sum())


_FIRST = re.compile(r"first m with confidence >= \S+ is (\d+)")
_NONE = re.compile(r"no m <= (\d+) reaches confidence")


def check_plan(scenario: dict, text: str, stdout: str, binomial: Binomial) -> int:
    """Every row's interval, advantageous set and confidence, and the first passing m."""
    meta, header, rows = parse_csv(text)
    _expect_meta(meta, "plan")
    want = ["m", "i_minus", "i_plus", "set_lo", "set_hi", "confidence"]
    if header != want:
        raise CheckError(f"header {header}, expected {want}")
    margin, m_max = scenario["margin"], scenario["m_max"]
    p = scenario["eff"] * scenario["rho1"]
    target = scenario["confidence"]
    m_lo = max(1, math.ceil(1.0 / (2.0 * margin) - 1e-12))
    if [int(r[0]) for r in rows] != list(range(m_lo, m_max + 1)):
        raise CheckError(f"rows do not cover m = {m_lo}..{m_max}")
    want_confs = []
    for row in rows:
        m = int(row[0])
        i_minus, i_plus = m * p - margin * m, m * p + margin * m
        if (abs(float(row[1]) - i_minus) > PRINT_TOL * m
                or abs(float(row[2]) - i_plus) > PRINT_TOL * m):
            raise CheckError(f"interval at m={m} is ({row[1]}, {row[2]})")
        lo = max(0, math.ceil(i_minus - 1e-9))
        hi = min(m, math.floor(i_plus + 1e-9))
        got_set = (int(row[3]), int(row[4])) if row[3] else None
        if got_set != ((lo, hi) if lo <= hi else None):
            raise CheckError(f"advantageous set at m={m} is {row[3]}..{row[4]}, "
                             f"expected {lo}..{hi}")
        conf = float(row[5])
        want_conf = binomial.confidence(m, p, lo, hi)
        if not math.isfinite(conf) or abs(conf - want_conf) > CONF_TOL:
            raise CheckError(f"confidence at m={m} is {conf!r}, expected {want_conf:.12g}")
        want_confs.append(want_conf)
    # The reported first passing m must pass, and no earlier m may pass by more
    # than the tolerance (a confidence within it of the target may go either way).
    found, none = _FIRST.search(stdout), _NONE.search(stdout)
    if found:
        k = int(found.group(1)) - m_lo
        if not 0 <= k < len(rows) or want_confs[k] < target - CONF_TOL:
            raise CheckError(f"reported first passing m={found.group(1)} does not pass")
        earlier = want_confs[:k]
    elif none:
        earlier = want_confs
    else:
        raise CheckError("no first-passing-m summary on stdout")
    passing = [m_lo + j for j, c in enumerate(earlier) if c >= target + CONF_TOL]
    if passing:
        raise CheckError(f"m={passing[0]} reaches confidence {target} before the reported m")
    return len(rows)


def check_invocation(inv, csv_text: str, stdout: str, binomial) -> int:
    """Verified data rows of one invocation's CSV; raises CheckError."""
    if inv.command == "simulate":
        return check_simulate(inv.system, csv_text)
    if inv.command == "efficiency":
        return check_efficiency(inv.system, csv_text)
    if inv.command == "validate":
        return check_validate(csv_text)
    return check_plan(inv.scenario, csv_text, stdout, binomial)


def binomial_for(invocations) -> Binomial:
    """A Binomial table large enough for every plan in the list."""
    m_max = max((inv.scenario["m_max"] for inv in invocations if inv.scenario), default=0)
    return Binomial(m_max)
