"""Seeded inputs for the benchmark workloads.

Each workload is a fixed schedule of problem sizes: quantum dimension,
channel count, step count and recording interval per slot, and the plan
margins and ``--m-max`` values.  The seed draws everything that does not set
the amount of work: coupling constants, step sizes (the step count stays
fixed, so the duration follows), signal weights and coherences, projector
indices, aligned channels, planning scenarios and the order of the list.
Keeping the sizes fixed makes runs on different seeds measure the same work,
so their figures can be compared.

Only valid inputs are drawn: durations are whole multiples of the step, and
every rate times the step stays below 0.05, well inside RK4 stability and
accurate to better than 1e-6 against the closed forms.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# Sentences recorded in BENCHMARK.json as each workload's "why".
WORKLOADS = {
    "detector-mix": (
        "Reference scale: all four detector families at shipped sizes through "
        "simulate and efficiency, plus validate; the n-state RK4 loop dominates."
    ),
    "large-dim": (
        "Large systems, few steps and records: the unordered einsum RHS and the "
        "probe CP check dominate; N=(n+1)d^2 spans about 250 to 2600."
    ),
    "dense-record": (
        "Small systems recording every step: same evolve layer but output-heavy, "
        "so per-record cost (eigvalsh, row formatting, CSV) shows here."
    ),
    "plan-scan": (
        "Planner scans at m-max 100, 1000 and 5000; only the planner and CLI start "
        "work, so engine changes should show no change here."
    ),
}

# Candidate step sizes; the largest rate drawn below is 3.25, so every
# rate*step stays at or below 0.0325.
STEPS = (0.002, 0.0025, 0.004, 0.005, 0.008, 0.01)

# (family, quantum dim, channels, steps, record_every) per simulate slot.
DETECTOR_MIX = (
    ("binary", 2, 1, 2000, 100),
    ("two_state", 3, 2, 1000, 50),
    ("n_state", 5, 5, 500, 50),
    ("filter", 3, 1, 1000, 50),
)
LARGE_DIM = (
    ("n_state", 8, 3, 60, 30),
    ("n_state", 12, 4, 20, 10),
    ("filter", 24, 1, 30, 15),
    ("filter", 36, 1, 10, 5),
)
DENSE_RECORD = (
    ("binary", 2, 1, 10000, 1),
    ("two_state", 3, 2, 6000, 1),
    ("binary", 3, 1, 5000, 1),
)
# Plan margins fix the size of every advantageous set, hence the scan cost.
PLAN_MARGINS = (0.045, 0.03)
PLAN_M_MAX = (100, 1000, 5000)


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a workload list, plus what the checker needs to know."""

    key: str
    command: str
    argv: tuple
    system: dict | None = None
    scenario: dict | None = None
    config_name: str | None = None
    config_text: str | None = field(default=None, repr=False)

    @property
    def output_name(self) -> str:
        return self.key.replace("/", "_") + ".csv"


def _round(x: float) -> float:
    return round(x, 6)


def _draw_system(rng: random.Random, family: str, dim: int, channels: int,
                 steps: int, record_every: int, filter_any_projector: bool) -> dict:
    system = {"family": family, "dim": dim, "steps": steps, "record_every": record_every}
    if family == "binary":
        a0 = _round(rng.uniform(0.3, 1.0))
        system.update(k1=_round(rng.uniform(0.5, 1.5)), k2=_round(rng.uniform(0.0, 1.0)),
                      projector=rng.randrange(dim), aligned=a0, orthogonal=_round(1.0 - a0))
    elif family == "two_state":
        p2, p3 = rng.sample(range(dim - 1), 2)  # basis dim-1 holds the inert weight
        a0 = _round(rng.uniform(0.2, 0.6))
        b0 = _round(1.0 - a0) if rng.random() < 0.5 else _round(rng.uniform(0.2, 0.95 - a0))
        system.update(k1=_round(rng.uniform(0.5, 1.5)), k2=_round(rng.uniform(0.0, 1.0)),
                      n1=_round(rng.uniform(0.5, 1.5)), n2=_round(rng.uniform(0.0, 1.0)),
                      projector2=p2, projector3=p3, aligned=a0, orthogonal=b0)
    elif family == "n_state":
        system.update(channels=channels, k=_round(rng.uniform(0.5, 2.0)),
                      aligned_channel=rng.randrange(channels))
    elif family == "filter":
        units = [rng.randint(1, 9) for _ in range(dim)]
        weights = [u / sum(units) for u in units]
        # Real symmetric coherences, each at most min(w_i, w_j) / (2 (d-1)):
        # every row stays diagonally dominant, so the signal is positive.
        coherences = {}
        for i, j in rng.sample([(i, j) for i in range(dim) for j in range(i + 1, dim)],
                               min(3, dim * (dim - 1) // 2)):
            bound = 0.5 * min(weights[i], weights[j]) / (dim - 1)
            coherences[(i, j)] = _round(rng.uniform(-bound, bound) * 0.99)
        # `eeqt efficiency` reads the filter's aligned weight from weights[0]
        # whatever the projector index, so lists that run `efficiency` keep
        # projector 0, as the shipped config does.
        system.update(k=_round(rng.uniform(0.5, 1.5)),
                      projector=rng.randrange(dim) if filter_any_projector else 0,
                      weights=weights, coherences=coherences)
    else:
        raise ValueError(f"unknown family {family!r}")
    system["step"] = rng.choice(STEPS)
    system["duration"] = steps * system["step"]
    return system


def config_text(system: dict) -> str:
    """INI text of a generated system, in the format of configs/*.ini."""
    fam = system["family"]
    det = {"family": fam, "dim": system["dim"]}
    sig = {}
    if fam == "binary":
        det.update(k1=system["k1"], k2=system["k2"], projector=system["projector"])
        sig.update(aligned=system["aligned"], orthogonal=system["orthogonal"])
    elif fam == "two_state":
        for key in ("k1", "k2", "n1", "n2", "projector2", "projector3"):
            det[key] = system[key]
        sig.update(aligned=system["aligned"], orthogonal=system["orthogonal"])
    elif fam == "n_state":
        for key in ("channels", "k", "aligned_channel"):
            det[key] = system[key]
    else:
        det.update(k=system["k"], projector=system["projector"])
        sig["weights"] = ",".join(repr(w) for w in system["weights"])
        for (i, j), c in system["coherences"].items():
            sig[f"offdiag_{i}_{j}"] = c
            sig[f"offdiag_{j}_{i}"] = c
    evo = {"step": system["step"], "duration": system["duration"],
           "record_every": system["record_every"]}
    lines = []
    for name, section in (("detector", det), ("signal", sig), ("evolution", evo)):
        if section:
            lines.append(f"[{name}]")
            lines += [f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}"
                      for k, v in section.items()]
            lines.append("")
    return "\n".join(lines)


def _simulations(rng, slots, prefix, commands, filter_any_projector):
    out = []
    for n, slot in enumerate(slots):
        system = _draw_system(rng, *slot, filter_any_projector=filter_any_projector)
        name = f"{prefix}{n}-{system['family']}-d{system['dim']}"
        text = config_text(system)
        for command in commands:
            out.append(Invocation(f"{command}/{name}", command,
                                  (command, "--config", f"{name}.ini"),
                                  system=system, config_name=f"{name}.ini",
                                  config_text=text))
    return out


def _scenario(rng: random.Random, margin: float) -> dict:
    # p = eff * rho1 stays in [0.15, 0.95 - accuracy], so the expected-count
    # interval m (p -/+ margin) is never clipped at 0 or m and every
    # advantageous set has about 2 margin m counts, whatever the seed.
    accuracy = round(rng.uniform(margin, 2 * margin), 4)
    return {
        "rho1": round(rng.uniform(0.3, 0.95 - accuracy), 4),
        "eff": round(rng.uniform(0.5, 1.0), 4),
        "accuracy": accuracy,
        "margin": margin,
        "confidence": round(rng.uniform(0.5, 0.95), 3),
    }


def _plans(scenarios):
    out = []
    for n, sc in enumerate(scenarios):
        for m_max in PLAN_M_MAX:
            argv = ("plan", "--rho1", repr(sc["rho1"]), "--eff", repr(sc["eff"]),
                    "--accuracy", repr(sc["accuracy"]), "--margin", repr(sc["margin"]),
                    "--confidence", repr(sc["confidence"]), "--m-max", str(m_max))
            out.append(Invocation(f"plan/s{n}-m{m_max}", "plan", argv,
                                  scenario=dict(sc, m_max=m_max)))
    return out


def plan_scenarios(seed: int) -> list:
    """The plan-scan scenarios for a seed (also reused by the traced run)."""
    rng = random.Random(f"plan-scan/{seed}")
    return [_scenario(rng, margin) for margin in PLAN_MARGINS]


def generate(workload: str, seed: int) -> list:
    """The ordered invocation list of one cycle of `workload` for `seed`."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "detector-mix":
        sims = _simulations(rng, DETECTOR_MIX, "mix", ("simulate", "efficiency"), False)
        pairs = [sims[i:i + 2] for i in range(0, len(sims), 2)]
        rng.shuffle(pairs)
        validate = Invocation("validate/catalogue", "validate", ("validate",))
        return [inv for pair in pairs for inv in pair] + [validate]
    if workload == "large-dim":
        invs = _simulations(rng, LARGE_DIM, "big", ("simulate",), True)
    elif workload == "dense-record":
        invs = _simulations(rng, DENSE_RECORD, "dense", ("simulate",), True)
    elif workload == "plan-scan":
        scenarios = plan_scenarios(seed)
        invs = _plans(scenarios)
        rng.shuffle(invs)
        # Short runs of the binary detectors the scenarios plan for: k2 is set
        # so that the asymptotic efficiency k1^2/(k1^2+k2^2) equals eff.
        for n, sc in enumerate(scenarios):
            system = {"family": "binary", "dim": 2, "steps": 1000, "record_every": 50,
                      "k1": 1.0, "k2": _round(math.sqrt(1.0 / sc["eff"] - 1.0)),
                      "projector": 0, "aligned": 1.0, "orthogonal": 0.0,
                      "step": 0.01, "duration": 10.0}
            name = f"plan-detector{n}"
            invs.append(Invocation(f"simulate/{name}", "simulate",
                                   ("simulate", "--config", f"{name}.ini"),
                                   system=system, config_name=f"{name}.ini",
                                   config_text=config_text(system)))
        return invs
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
    rng.shuffle(invs)
    return invs


def companions(workload: str, seed: int, invocations: list) -> list:
    """Extra calls that let a traced run of `workload` cover every layer.

    A workload that never runs `efficiency`, `validate` or `plan` borrows
    them: `efficiency` on its own simulate configs, one `validate`, and the
    first plan-scan scenario of the same seed.
    """
    commands = {inv.command for inv in invocations}
    extra = []
    if "efficiency" not in commands:
        for inv in invocations:
            if inv.command == "simulate":
                extra.append(Invocation(inv.key.replace("simulate/", "efficiency/", 1),
                                        "efficiency",
                                        ("efficiency",) + inv.argv[1:],
                                        system=inv.system, config_name=inv.config_name,
                                        config_text=inv.config_text))
    if "validate" not in commands:
        extra.append(Invocation("validate/catalogue", "validate", ("validate",)))
    if "plan" not in commands:
        extra += _plans(plan_scenarios(seed)[:1])
    return extra


def write_inputs(invocations, directory) -> None:
    """Write each invocation's generated config file into `directory`."""
    for inv in invocations:
        if inv.config_text is not None:
            (directory / inv.config_name).write_text(inv.config_text)
