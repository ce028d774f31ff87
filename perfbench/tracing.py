"""Traced run: per-layer figures from in-process calls on the workload's inputs.

Each cycle makes three passes over the traced list (the workload's own
invocations plus the companions that cover the layers it does not call):

U  ``eeqt.cli.main(argv)`` for every invocation, with no spans;
T  the same calls, each inside an ``invocation`` span and a ``cli.<command>``
   span, with spans around the evolve and row calls main() makes.  T minus U
   is the tracing overhead that the run reports, next to the measured cost of
   one span times the number of spans;
D  the public library calls that the command makes, each inside a span named
   after its module: ``detectors.build``, ``evolution.cp_check``,
   ``evolution.evolve`` and so on.

Spans are kept in memory (name, start, end, parent, invocation id and the
number of calls a span covers) and written to the results file at the end,
with each span name's median self time.  The run is single-threaded and
makes one call at a time, so no layer ever waits for another: every wait
time is zero by construction and is reported as such.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import sys
import time
from dataclasses import asdict, dataclass

import check
import workloads
from child import Child, cli_env

# name -> (unit, better); the same names and units as BENCHMARK.json.  Times
# are medians per call; the comments name the end-to-end metric and workload
# each one should move.
PER_LAYER = {
    "cli.python_start_s": ("s", "lower"),   # setup_s everywhere; wall_s on plan-scan
    "cli.import_s": ("s", "lower"),         # (import eeqt.cli minus the bare start)
    "cli.simulate_s": ("s", "lower"),       # main(argv) per subcommand, in-process
    "cli.efficiency_s": ("s", "lower"),
    "cli.validate_s": ("s", "lower"),
    "cli.plan_s": ("s", "lower"),
    "cli.residual_s": ("s", "lower"),       # rows_per_s on dense-record
    "cli.csv_bytes": ("bytes", "lower"),    # (count, per cycle)
    "states.validate_state_s": ("s", "lower"),
    "evolution.cp_check_s": ("s", "lower"),         # wall_s on large-dim
    "evolution.rhs_s": ("s", "lower"),              # steps_per_s on detector-mix
    "evolution.evolve_s": ("s", "lower"),           # and large-dim
    "evolution.per_step_s": ("s", "lower"),
    "evolution.min_eigenvalues_s": ("s", "lower"),  # rows_per_s on dense-record
    "evolution.trajectory_rows_s": ("s", "lower"),
    "evolution.steps": ("count", "lower"),          # counts, computed from the inputs
    "evolution.records": ("count", "lower"),
    "evolution.generator_dim_max": ("count", "lower"),
    "detectors.build_s": ("s", "lower"),            # wall_s on detector-mix
    "detectors.closed_form_s": ("s", "lower"),
    "detectors.max_abs_err": ("prob", "lower"),     # diagnostic, against the checker
    "shapes.enumerate_s": ("s", "lower"),           # wall_s on detector-mix
    "shapes.classify_s": ("s", "lower"),
    "planner.confidence_term_s": ("s", "lower"),    # rows_per_s and wall_s on plan-scan
    "planner.plan_for_m_s": ("s", "lower"),
    "planner.scan_plan_100_s": ("s", "lower"),
    "planner.scan_plan_1000_s": ("s", "lower"),
    "planner.scan_plan_5000_s": ("s", "lower"),
    "planner.binomial_terms": ("count", "lower"),   # sum of advantageous-set sizes
}

START_REPEATS = 5     # interpreter starts timed for cli.python_start_s and cli.import_s
RHS_CALLS = 3         # liouville_rhs calls per span
TERM_CALLS = 200      # one-count confidence calls per span


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    invocation: str
    calls: int = 1

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans; a span opened inside another records it as parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, invocation: str, calls: int = 1):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, invocation, calls))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def per_call(self, name: str) -> list:
        return [s.duration / s.calls for s in self.spans if s.name == name]


class Library:
    """The public eeqt calls that each CLI command makes, run one by one."""

    def __init__(self, tracer: Tracer):
        import eeqt
        from eeqt import cli

        self.eeqt, self.cli, self.tracer = eeqt, cli, tracer
        self.max_abs_err = 0.0
        self.binomial_terms = 0
        self.traj_records = {}

    def build(self, system: dict):
        """Spec, couplings and initial product state of a generated system."""
        e = self.eeqt
        fam, d = system["family"], system["dim"]
        proj = e.basis_projector
        n_class = check.classical_dim(system)
        if fam == "binary":
            idx = system["projector"]
            spec = e.BinaryDetectorSpec(system["k1"], system["k2"], proj(d, idx))
            rho = system["aligned"] * proj(d, idx)
            if system["orthogonal"] > 0:
                rho = rho + system["orthogonal"] * proj(d, (idx + 1) % d)
            couplings = [spec.coupling()]
        elif fam == "two_state":
            spec = e.TwoStateDetectorSpec(system["k1"], system["k2"], system["n1"],
                                          system["n2"], proj(d, system["projector2"]),
                                          proj(d, system["projector3"]))
            rest = 1.0 - system["aligned"] - system["orthogonal"]
            rho = system["aligned"] * spec.e2 + system["orthogonal"] * spec.e3
            if rest > 1e-12:
                rho = rho + rest * proj(d, d - 1)
            couplings = spec.couplings()
        elif fam == "n_state":
            spec = e.NStateDetectorSpec(system["k"], tuple(proj(d, i)
                                                           for i in range(system["channels"])))
            rho = proj(d, system["aligned_channel"])
            couplings = spec.couplings()
        else:
            from eeqt.states import offdiagonal_element

            spec = e.FilterSpec(system["k"], proj(d, system["projector"]))
            rho = sum(w * proj(d, i) for i, w in enumerate(system["weights"]))
            for (i, j), c in system["coherences"].items():
                rho = rho + c * (offdiagonal_element(d, i, j) + offdiagonal_element(d, j, i))
            couplings = [spec.coupling()]
        state = e.product_state(rho, [1.0] + [0.0] * (n_class - 1))
        return spec, couplings, state

    def closed_form(self, system: dict, spec, times) -> list:
        e, fam = self.eeqt, system["family"]
        if fam == "binary":
            sig = e.SignalDecomposition(system["aligned"], system["orthogonal"])
            return [e.binary_trajectory(spec, sig, t) for t in times]
        if fam == "two_state":
            return [e.two_state_trajectory(spec, system["aligned"], system["orthogonal"], t)
                    for t in times]
        if fam == "n_state":
            return [e.n_state_trajectory(spec, system["aligned_channel"], t) for t in times]
        q1 = system["weights"][system["projector"]]
        return [e.filter_classical_output(1.0, 0.0, q1, spec.k, t) for t in times]

    def simulate(self, inv, iid: str) -> None:
        e, span = self.eeqt, self.tracer.span
        system = inv.system
        with span("detectors.build", iid):
            _, couplings, state = self.build(system)
        with span("evolution.cp_check", iid):
            e.check_cp_conditions(couplings, probes=[state])
        with span("evolution.rhs", iid, calls=RHS_CALLS):
            for _ in range(RHS_CALLS):
                e.liouville_rhs(state, couplings=couplings)
        config = e.EvolutionConfig(step=system["step"], duration=system["duration"],
                                   record_every=system["record_every"])
        with span("evolution.evolve", iid):
            traj = e.evolve(state, couplings=couplings, config=config, check_cp=False)
        with span("evolution.min_eigenvalues", iid):
            traj.min_eigenvalues()
        with span("evolution.trajectory_rows", iid):
            list(e.evolution.trajectory_rows(traj))
        with span("states.validate_state", iid):
            e.validate_state(traj.state(len(traj) - 1))
        self.traj_records[inv.key] = len(traj)
        err = abs(traj.probabilities() - check.closed_form(system, traj.times)).max()
        self.max_abs_err = max(self.max_abs_err, float(err))

    def efficiency(self, inv, iid: str) -> None:
        span = self.tracer.span
        with span("detectors.build", iid):
            spec, _, _ = self.build(inv.system)
        times = check.efficiency_grid(inv.system)
        with span("detectors.closed_form", iid):
            self.closed_form(inv.system, spec, times)

    def validate(self, inv, iid: str) -> None:
        e, span = self.eeqt, self.tracer.span
        with span("shapes.enumerate", iid):
            patterns = e.enumerate_admissible_patterns(2) + e.enumerate_admissible_patterns(3)
        catalogued = set(e.shapes.TOPOLOGY_BY_TAG)
        with span("shapes.classify", iid):
            for pattern in patterns:
                entries = {pos: e.basis_projector(4, k)
                           for k, pos in enumerate(sorted(pattern.support))}
                coupling = pattern.instantiate(entries)
                if pattern.classical_dim == 2:
                    e.admissible_2x2(coupling)
                else:
                    cls = e.admissible_3x3(coupling)
                    if cls.tag in catalogued:
                        e.classify_topology(cls.tag)

    def plan(self, inv, iid: str) -> None:
        e, span = self.eeqt, self.tracer.span
        sc, m_max = inv.scenario, inv.scenario["m_max"]
        scenario = e.TransmissionScenario(rho1=sc["rho1"], eta_det=sc["eff"],
                                          accuracy=sc["accuracy"],
                                          confidence_target=sc["confidence"],
                                          margin=sc["margin"])
        with span(f"planner.scan_plan_{m_max}", iid):
            results, _ = e.scan_plan(scenario, m_max)
        self.binomial_terms += sum(len(r.advantageous) for r in results)
        with span("planner.plan_for_m", iid):
            last = e.plan_for_m(m_max, scenario)
        p = scenario.success_probability
        count = last.advantageous.start if len(last.advantageous) else round(m_max * p)
        with span("planner.confidence_term", iid, calls=TERM_CALLS):
            for _ in range(TERM_CALLS):
                e.confidence(m_max, p, range(count, count + 1))


def _span_cost(n: int = 2000) -> float:
    """Wall time of opening and closing one empty span."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(n):
        with tracer.span("empty", "empty"):
            pass
    return (time.perf_counter() - start) / n


def _interpreter_starts(env: dict, cwd) -> tuple:
    """Median wall time of a bare interpreter start and of `import eeqt.cli`."""
    bare, loaded = [], []
    for _ in range(START_REPEATS):
        bare.append(Child(["-c", "pass"], cwd, env, "start").wall_s)
        child = Child(["-c", "import eeqt.cli"], cwd, env, "start")
        if child.exit_code != 0:
            raise RuntimeError(f"`import eeqt.cli` failed: {child.stderr.strip()[-500:]}")
        loaded.append(child.wall_s)
    start = statistics.median(bare)
    return start, statistics.median(loaded) - start


@contextlib.contextmanager
def _spans_inside_main(cli, tracer: Tracer, iid: str):
    """Record spans around the two library calls `simulate` makes from main().

    The self time of the enclosing ``cli.simulate`` span is then what main()
    does besides integrating and computing rows: config parsing, system
    build, row formatting and the CSV write (cli.residual_s).
    """
    evolve, trajectory_rows = cli.evolve, cli.trajectory_rows

    def traced_evolve(*args, **kwargs):
        with tracer.span("main.evolve", iid):
            return evolve(*args, **kwargs)

    def traced_rows(traj):
        # The CLI consumes this generator while formatting; the span covers
        # computing the rows only, not formatting them.
        with tracer.span("main.trajectory_rows", iid):
            rows = list(trajectory_rows(traj))
        yield from rows

    cli.evolve, cli.trajectory_rows = traced_evolve, traced_rows
    try:
        yield
    finally:
        cli.evolve, cli.trajectory_rows = evolve, trajectory_rows


def _main_call(cli, inv, run_dir) -> tuple:
    """In-process `main(argv)`; returns (exit code, stdout text)."""
    argv = [*inv.argv, "--output", str(run_dir / inv.output_name)]
    argv = [str(run_dir / a) if a == inv.config_name else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def run_traced(workload: str, seed: int, seconds: float, run_dir, src) -> dict:
    own = workloads.generate(workload, seed)
    extra = workloads.companions(workload, seed, own)
    traced = own + extra
    workloads.write_inputs(traced, run_dir)
    python_start, import_s = _interpreter_starts(cli_env(src), run_dir)

    sys.path.insert(0, str(src))
    tracer = Tracer()
    lib = Library(tracer)
    binomial = check.binomial_for(own)
    untraced_walls, traced_walls, traced_spans, cycle_times, failures = [], [], [], [], []
    attempted = failed = 0
    csv_bytes = 0
    start = time.perf_counter()
    while True:
        cycle = len(cycle_times)
        cycle_start = time.perf_counter()
        outputs = {}
        t0 = time.perf_counter()
        for inv in traced:
            outputs[inv.key] = _main_call(lib.cli, inv, run_dir)
            outputs[inv.key] += ((run_dir / inv.output_name).read_bytes(),)
        untraced_walls.append(time.perf_counter() - t0)
        csv_bytes = sum(len(out[2]) for out in outputs.values())
        for inv in own:
            code, stdout, data = outputs[inv.key]
            attempted += 1
            try:
                if code != 0:
                    raise check.CheckError(f"exit code {code}")
                check.check_invocation(inv, data.decode(), stdout, binomial)
            except check.CheckError as exc:
                failed += 1
                failures.append(f"{inv.key}: {exc}")

        first_span, t0 = len(tracer.spans), time.perf_counter()
        for inv in traced:
            iid = f"c{cycle}:{inv.key}"
            with tracer.span("invocation", iid), tracer.span(f"cli.{inv.command}", iid), \
                    _spans_inside_main(lib.cli, tracer, iid):
                _main_call(lib.cli, inv, run_dir)
        traced_walls.append(time.perf_counter() - t0)
        traced_spans.append(len(tracer.spans) - first_span)
        for inv in own:
            attempted += 1
            if (run_dir / inv.output_name).read_bytes() != outputs[inv.key][2]:
                failed += 1
                failures.append(f"{inv.key}: CSV differs between two calls in one run")

        for inv in traced:
            iid = f"c{cycle}:{inv.key}"
            with tracer.span("invocation", iid):
                getattr(lib, inv.command)(inv, iid)
        cycle_times.append(time.perf_counter() - cycle_start)
        if time.perf_counter() - start + statistics.median(cycle_times) > seconds:
            break

    sims = [inv for inv in traced if inv.command == "simulate"]
    metrics = _layer_metrics(tracer, sims)
    metrics.update({
        "cli.python_start_s": python_start,
        "cli.import_s": import_s,
        "cli.csv_bytes": float(csv_bytes),
        "evolution.steps": float(sum(inv.system["steps"] for inv in sims)),
        "evolution.records": float(sum(lib.traj_records[inv.key] for inv in sims)),
        "evolution.generator_dim_max": float(max(
            check.classical_dim(inv.system) * inv.system["dim"] ** 2 for inv in sims)),
        "detectors.max_abs_err": lib.max_abs_err,
        "planner.binomial_terms": float(lib.binomial_terms),
    })
    metrics = {name: metrics[name] for name in PER_LAYER}

    overhead = statistics.median(traced_walls) - statistics.median(untraced_walls)
    span_cost = _span_cost() * statistics.median(traced_spans)
    own_times = tracer.self_times()
    self_by_name = {}
    for s, t in zip(tracer.spans, own_times):
        self_by_name.setdefault(s.name, []).append(t)
    layers = sorted({name.split(".")[0] for name in PER_LAYER})
    notes = [
        f"tracing overhead: traced pass {statistics.median(traced_walls):.6g} s minus "
        f"untraced pass {statistics.median(untraced_walls):.6g} s = {overhead:.6g} s; "
        f"spans in the traced pass times the cost of one empty span = {span_cost:.3g} s",
        "wait time: 0 s in every layer (" + ", ".join(layers) + "): one client, one call "
        "at a time, nothing queues",
        "companion invocations (traced, not part of the workload list): "
        + (", ".join(inv.key for inv in extra) or "none"),
    ]
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics, "units": PER_LAYER,
        "cycles": len(cycle_times), "invocations_per_cycle": len(traced),
        "cycle_s": cycle_times, "fail_ratio": failed / attempted,
        "failures": failures[:20], "notes": notes,
        "tracing_overhead_s": overhead, "span_cost_s": span_cost,
        "untraced_pass_s": untraced_walls, "traced_pass_s": traced_walls,
        "wait_s": {layer: {"value": 0.0, "why": "closed loop with one client: "
                           "no call ever queues behind another"} for layer in layers},
        "self_time_median_s": {name: statistics.median(v)
                               for name, v in sorted(self_by_name.items())},
        "companions": [inv.key for inv in extra],
        "spans": [asdict(s) for s in tracer.spans],
    }


def _layer_metrics(tracer: Tracer, sims) -> dict:
    computed = {"cli.python_start_s", "cli.import_s", "cli.residual_s", "evolution.per_step_s"}
    med = {metric: statistics.median(tracer.per_call(metric[:-len("_s")]))
           for metric in PER_LAYER if metric.endswith("_s") and metric not in computed}

    # cli.simulate spans enclose main.evolve and main.trajectory_rows spans of
    # the same call; their self time is main() minus those library calls.
    own = tracer.self_times()
    residual = [t for s, t in zip(tracer.spans, own) if s.name == "cli.simulate"]
    steps = {inv.key: inv.system["steps"] for inv in sims}
    per_step = [s.duration / steps[s.invocation.split(":", 1)[1]]
                for s in tracer.spans if s.name == "evolution.evolve"]
    med["cli.residual_s"] = statistics.median(residual)
    med["evolution.per_step_s"] = statistics.median(per_step)
    return med
