"""Tolerances, limits and the record grid: the checks that need no arrays.

A configured detector is read, checked and sized against these before any
array exists, so ``eeqt efficiency`` and ``eeqt simulate`` run without
numpy; ``states``, ``evolution`` and ``sectors`` import them from here, with
the guard errors, the CP report and the messages that both propagators
raise.  ``min_eigenvalues`` decides the positivity of the records of
``sectors`` and, through ``check_signal``, of the quantum signal itself.  It
loads numpy only when the sum of c^3 over the coherence components of c >= 3
indices, times the records, exceeds JACOBI_PRICE: for the signal alone, one
record, a component of c >= 45 indices.  numpy is the ``library`` extra of
the package; where it is not installed, that one path raises ValueError,
which both commands report as a config error.
"""

from __future__ import annotations

import itertools
import math
import operator
from itertools import repeat
from operator import add, mul, sub

from . import _Frozen

# Numerical tolerances (double precision with integrator headroom).
HERMITICITY_TOL = 1e-10
IDEMPOTENCY_TOL = 1e-10
POSITIVITY_TOL = 1e-9
TRACE_TOL = 1e-9
# The structural CP check reports an off-diagonal block only above this magnitude.
BLOCK_ZERO_TOL = 1e-10
# A truncated Taylor sum of a propagator adds at most this many terms; at
# h ||L|| <= 1 the 19th is already below 2^-53 of the first.
TAYLOR_TERMS = 30

# EvolutionConfig refuses more steps than this, so a record grid never holds
# more than 10^7 records; evolve refuses a matrix-free run of more series
# substeps than this.
MAX_STEPS = 10 ** 7
# check_record_memory refuses a run whose records would need more bytes than
# this; MAX_STEPS alone still allows 10^7 records.  Each caller sizes what it
# holds: evolve complex (n+1, d, d) arrays, sectors the records of every
# sector state and its n+4 output columns, and the CLI's efficiency command a
# row tuple of t, p_0..p_n and the time grid.
MAX_RECORD_BYTES = 2 ** 30
# Bytes a held value costs: a complex128 array entry; a Python float in a list
# or tuple, its 24-byte object and the 8-byte slot that points to it; a
# tuple's 40-byte header and its slot in a list.
COMPLEX_BYTES = 16
FLOAT_BYTES = 32
TUPLE_BYTES = 48
# Records times the sum of c^3 over the coherence components of c >= 3
# indices, above which min_eigenvalues hands them to numpy.  Cyclic Jacobi
# takes 1.3-1.9 us per c^3 per record in CPython 3.11 on 2 vCPUs (35 us for a
# 3 x 3 block, 1.4 ms for 9 x 9), and importing numpy and eeqt.states adds
# 0.1-0.2 s to a process: the price is 90 000 x 1.5 us, about 0.13 s of Jacobi.
JACOBI_PRICE = 90_000
# Cyclic Jacobi stops after this many sweeps; a symmetric matrix of the
# sizes it prices converges in under 10.
JACOBI_SWEEPS = 50

# What both propagators raise when K = -iH - G/2 overflows.
K_NOT_FINITE = "K = -iH - G/2 is not finite: a coupling entry is too large"


class TraceDriftError(ArithmeticError):
    """Raised when a record's total trace is not finite or drifts beyond tolerance."""

    def __init__(self, drift: float, t: float, tol: float):
        super().__init__(drift, t, tol)

    def __str__(self) -> str:
        drift, t, tol = self.args
        return (f"trace drift {drift:.3g} at t={t:g} exceeds {tol:.3g}; the propagation lost "
                "accuracy at these rates")


class PositivityError(ArithmeticError):
    """Raised when a record has a block eigenvalue below -POSITIVITY_TOL."""

    def __init__(self, record: int, t: float, eigenvalue: float):
        super().__init__(record, t, eigenvalue)

    def __str__(self) -> str:
        record, t, eigenvalue = self.args
        return (f"record {record} at t={t:g} has block eigenvalue {eigenvalue:.3g}, below "
                f"-{POSITIVITY_TOL:g}; the propagation lost accuracy at these rates")


class CPReport(_Frozen):
    """Result of the structural complete-positivity checks.

    ``gain_offdiag``: largest off-diagonal block magnitude of sum_i Vi Vi*.
    ``sandwich_offdiag``: largest bound, over i and alpha != beta, on the
    (alpha, beta) block of Vi* A Vi for block-diagonal A with unit-norm
    blocks.  ``violations`` lists (check, i, alpha, beta, value).
    """

    __slots__ = ("gain_offdiag", "sandwich_offdiag", "violations")

    def __init__(self, gain_offdiag: float, sandwich_offdiag: float, violations: tuple):
        self._set(gain_offdiag=gain_offdiag, sandwich_offdiag=sandwich_offdiag,
                  violations=violations)

    @classmethod
    def from_magnitudes(cls, gain: dict, leak: dict) -> "CPReport":
        """The report on the off-diagonal block magnitudes, `gain` of sum Vi Vi* by
        (alpha, beta) and `leak` of the sandwich by (i, alpha, beta); a violation is
        one above BLOCK_ZERO_TOL, listed in that order and sorted."""
        violations = [("gain", None, *at, mag) for at, mag in sorted(gain.items())]
        violations += [("sandwich", *at, mag) for at, mag in sorted(leak.items())]
        return cls(max(gain.values(), default=0.0), max(leak.values(), default=0.0),
                   tuple(v for v in violations if v[-1] > BLOCK_ZERO_TOL))

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return "pass"
        worst = max(self.violations, key=lambda v: v[-1])
        return (
            f"{len(self.violations)} violating blocks; worst {worst[0]} "
            f"block ({worst[2]}, {worst[3]}) magnitude {worst[4]:.3g}"
        )

    def check(self) -> None:
        """Raise ValueError with the summary unless the couplings pass."""
        if not self.ok:
            raise ValueError(f"coupling operators fail CP conditions: {self.summary()}")


def check_basis_index(dim: int, index: int) -> None:
    """Raise ValueError unless `index` names a basis vector of a `dim`-dimensional space."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dim {dim}")


def check_offdiagonal_index(dim: int, i: int, j: int) -> None:
    """Raise ValueError unless (i, j), i != j, is an off-diagonal position in dimension `dim`."""
    if i == j:
        raise ValueError("off-diagonal element requires i != j")
    if not (0 <= i < dim and 0 <= j < dim):
        raise ValueError(f"indices ({i}, {j}) out of range for dim {dim}")


def signal_entries(weights: dict, coherences) -> dict:
    """{(m, w): value} of the nonzero entries of a signal, the d x d matrix with diagonal
    `weights` (basis index -> weight) plus its ((i, j), value) `coherences`, summed in order."""
    entries = {(i, i): 0.0 + w for i, w in weights.items()}
    for pos, value in coherences:
        entries[pos] = entries.get(pos, 0.0) + value
    return {pos: value for pos, value in entries.items() if value != 0}


def check_signal(dim: int, classical_dim: int, weights: dict, coherences) -> None:
    """Raise ValueError unless the real signal of ``signal_entries`` is a density matrix.

    The checks and messages, in order, of ``states.product_state`` and
    ``validate_state`` on the product of the d x d signal with p = (1, 0,
    ...) on `classical_dim` events: every entry finite, the trace (by
    ``math.fsum``) within TRACE_TOL of 1, and then the Hermiticity deviation
    and the smallest block eigenvalue, which ``min_eigenvalues`` takes as
    record 0 of a run.
    """
    entries = signal_entries(weights, coherences)
    if not all(map(math.isfinite, entries.values())):
        raise ValueError("quantum state contains non-finite entries")
    diagonal = [value for (m, w), value in entries.items() if m == w]
    try:
        trace = math.fsum(diagonal)
    except OverflowError:  # a partial sum left the float range: numpy's plain sum
        trace = sum(diagonal)
    if abs(trace - 1.0) > TRACE_TOL:
        raise ValueError(f"quantum state has trace {trace:.12g}, expected 1")
    herm = max((abs(value - entries.get((w, m), 0.0)) for (m, w), value in entries.items()),
               default=0.0)
    low = min_eigenvalues({pos: {0: [value]} for pos, value in entries.items()},
                          classical_dim, dim, 1)[0]
    if not (herm <= HERMITICITY_TOL and low >= -POSITIVITY_TOL):
        raise ValueError(f"signal is not a density matrix: Hermiticity deviation {herm:.3g}, "
                         f"min eigenvalue {low:.3g}")


def _components(indices, edges) -> list:
    """The connected components of the graph on `indices` with `edges`, as sorted lists."""
    parent = {i: i for i in indices}

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for m, w in edges:
        parent[root(m)] = root(w)
    groups = {}
    for i in sorted(indices):
        groups.setdefault(root(i), []).append(i)
    return list(groups.values())


def min_eigenvalues(values, n1: int, d: int, n_records: int) -> list:
    """The smallest eigenvalue of the Hermitian part of any block, per record.

    `values` maps the positions (m, w) of the entries that are ever nonzero
    to {alpha: the entry in block alpha, a list over the records}, for
    `n1` blocks of dimension `d`.  The coherences of a block fall into
    components of basis indices that stay fixed over the run.  A component
    of one index is its own entry, one of two takes the 2 x 2 closed form, a
    larger one cyclic Jacobi, or ``states.block_eigenvalues`` when Jacobi
    would cost more than JACOBI_PRICE.  An index with no entry in a block
    gives it the eigenvalue 0, a column of zeros added once, where the first
    such block comes; the blocks without any entry stand for all of them, so
    the work grows with the entries and not with `n1`.  The columns of the
    components meet in one C-level ``map(min, *columns)``; ``min`` of one
    float raises, so a lone column is the result itself.
    """
    zeros = [0.0] * n_records
    blocks = {}  # alpha -> {(m, w): records}, in the order of `values`
    for pos, by_state in values.items():
        for alpha, records in by_state.items():
            blocks.setdefault(alpha, {})[pos] = records
    empty = next(alpha for alpha in itertools.count() if alpha not in blocks)
    if empty < n1:
        blocks[empty] = {}
    columns, large, zeroed = [], [], False
    for alpha in sorted(blocks):
        at = blocks[alpha]
        indices = {i for pos in at for i in pos}
        if len(indices) < d and not zeroed:
            columns.append(zeros)
            zeroed = True
        for comp in _components(indices, [pos for pos in at if pos[0] != pos[1]]):
            if len(comp) == 1:
                columns.append(at[comp[0], comp[0]])
            elif len(comp) == 2:
                # 0.5 (x + z) - hypot(0.5 (x - z), y) with y = 0.5 (b_mw + b_wm)
                m, w = comp
                x, z = at.get((m, m), zeros), at.get((w, w), zeros)
                y = map(mul, repeat(0.5), map(add, at.get((m, w), zeros), at.get((w, m), zeros)))
                half = map(mul, repeat(0.5), map(sub, x, z))
                columns.append(list(map(sub, map(mul, repeat(0.5), map(add, x, z)),
                                        map(math.hypot, half, y))))
            else:
                large.append([[at.get((m, w), zeros) for w in comp] for m in comp])
    if n_records * sum(len(comp) ** 3 for comp in large) > JACOBI_PRICE:
        columns += _lapack_minima(large)
    else:
        for comp in large:
            columns.append([_jacobi_min([[0.5 * (comp[i][j][r] + comp[j][i][r])
                                          for j in range(len(comp))] for i in range(len(comp))])
                            for r in range(n_records)])
    return list(map(min, *columns)) if len(columns) > 1 else columns[0]


def _lapack_minima(large) -> list:
    """The smallest eigenvalue per record of each component, by ``states.block_eigenvalues``.

    Without numpy, a ValueError names the largest component and the extra that
    installs numpy.  Jacobi does not stand in: it rounds an eigenvalue near 0
    otherwise than LAPACK, and the bytes of a run must not depend on what is
    installed.
    """
    try:
        import numpy as np
    except ImportError:
        raise ValueError(f"a coherence component of {max(map(len, large))} indices needs numpy "
                         "for its eigenvalues; install eeqt[library]") from None
    from .states import block_eigenvalues

    return [block_eigenvalues(np.array(comp).transpose(2, 0, 1))[:, 0].tolist()
            for comp in large]


def _jacobi_min(a) -> float:
    """The smallest eigenvalue of the real symmetric matrix `a` (changed in place), by cyclic
    Jacobi rotations until the off-diagonal part is below 2^-53 of the whole.

    A matrix whose largest entry lies outside 2^+-500 is scaled by a power of
    two first, so that no square in the stopping test overflows or underflows.
    """
    c = len(a)
    top = max(abs(x) for row in a for x in row)
    scale = 0 if top == 0 or 2.0 ** -500 < top < 2.0 ** 500 else math.frexp(top)[1]
    if scale:
        a[:] = [[math.ldexp(x, -scale) for x in row] for row in a]
    pairs = list(itertools.combinations(range(c), 2))
    for _ in range(JACOBI_SWEEPS):
        if not (sum(a[p][q] * a[p][q] for p, q in pairs)
                > 2.0 ** -106 * sum(x * x for row in a for x in row)):
            break
        for p, q in pairs:
            if a[p][q] == 0:
                continue
            theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q])
            t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
            cos = 1.0 / math.sqrt(t * t + 1.0)
            sin = t * cos
            for row in a:
                row[p], row[q] = cos * row[p] - sin * row[q], sin * row[p] + cos * row[q]
            a[p], a[q] = ([cos * x - sin * y for x, y in zip(a[p], a[q])],
                          [sin * x + cos * y for x, y in zip(a[p], a[q])])
    return math.ldexp(min(a[i][i] for i in range(c)), scale)


def check_record_memory(config: "EvolutionConfig", record_bytes: int) -> None:
    """Raise ValueError when config's records, `record_bytes` each, need more than
    MAX_RECORD_BYTES.  The message names only the record count and the limit, so
    a grid that both simulate and efficiency refuse reads the same under both."""
    if config.n_records * record_bytes > MAX_RECORD_BYTES:
        raise ValueError(f"{config.n_records} records need more than the "
                         f"{MAX_RECORD_BYTES / 2 ** 30:g} GiB limit (MAX_RECORD_BYTES); "
                         "raise record_every")


class EvolutionConfig(_Frozen):
    """The record grid and the trace tolerance.

    Records fall on every ``record_every``-th multiple of ``step`` and at
    ``duration``, a whole number of steps.  Propagation is exact to rounding,
    so ``step`` sets where records fall, not how accurate they are.  A
    ``record_every`` that is not an integer raises TypeError, and a
    ``trace_tol`` that is negative or NaN raises ValueError.  The grid is
    checked and read without numpy.
    """

    __slots__ = ("step", "duration", "record_every", "trace_tol")

    def __init__(self, step: float, duration: float, record_every: int = 1,
                 trace_tol: float = 1e-8):
        if not 0 < step <= duration < math.inf:
            raise ValueError("step and duration must satisfy 0 < step <= duration < inf")
        if duration / step > MAX_STEPS + 0.5:
            raise ValueError(f"{duration / step:.3g} steps exceed the limit "
                             f"of {MAX_STEPS} (MAX_STEPS)")
        # relative tolerance: 0.12 / 0.002 is 59.99999999999999
        if abs(math.remainder(duration, step)) > 1e-9 * duration:
            raise ValueError(f"duration {duration:g} is not a whole multiple of step {step:g}")
        record_every = operator.index(record_every)
        if record_every < 1:
            raise ValueError("record_every must be a positive integer")
        if not trace_tol >= 0:  # also refuses NaN
            raise ValueError(f"trace_tol must be a non-negative number, got {trace_tol}")
        self._set(step=step, duration=duration, record_every=record_every, trace_tol=trace_tol)

    @property
    def n_steps(self) -> int:
        return round(self.duration / self.step)

    @property
    def n_records(self) -> int:
        return len(range(0, self.n_steps, self.record_every)) + 1

    def intervals(self) -> list:
        """[(steps per record interval, at most the run; records on the grid)].

        A last record off the grid adds (leftover steps, 1).
        """
        every = min(self.record_every, self.n_steps)
        grid, left = divmod(self.n_steps, every)
        return [(every, grid), (left, 1)] if left else [(every, grid)]

    def record_times(self) -> list:
        """The record times as floats, k * step over the recorded step numbers k: 0, every
        ``record_every``-th and the last.  Bit for bit numpy's int64 k times ``step``."""
        n = self.n_steps
        return list(map(mul, itertools.chain(range(0, n, self.record_every), (n,)),
                        repeat(self.step)))
