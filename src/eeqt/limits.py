"""Tolerances, limits and the record grid: the checks that need no arrays.

A configured detector is read, checked and sized against these before any
array exists, so ``eeqt efficiency`` and ``eeqt simulate`` run without
numpy; ``states``, ``evolution`` and ``sectors`` import them from here, with
the two guard errors that both propagators raise.  This module loads no
numpy.
"""

from __future__ import annotations

import math
import operator
import sys

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
# check_record_memory refuses a run whose records, kept as complex (n+1, d, d)
# arrays, would need more bytes than this; MAX_STEPS alone still allows 10^7
# records.  evolve applies it, and so does the CLI's efficiency command.
MAX_RECORD_BYTES = 2 ** 30


class TraceDriftError(ArithmeticError):
    """Raised when a record's total trace is not finite or drifts beyond tolerance."""


class PositivityError(ArithmeticError):
    """Raised when a record has a block eigenvalue below -POSITIVITY_TOL."""


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


def certainly_density_matrix(dim: int, weights: dict, coherences) -> bool:
    """Whether a real signal passes ``states.validate_state`` for certain, decided without numpy.

    The signal is the d x d matrix with diagonal ``weights`` (basis index ->
    entry, zero elsewhere) plus the sum of its ``coherences``, ((i, j),
    value) pairs.  True when every value is finite, the matrix is exactly
    symmetric, its trace is within TRACE_TOL of 1 and every Gershgorin disc
    lies in [-POSITIVITY_TOL, inf), the last two by a margin that the
    rounding of numpy's trace and of ``eigvalsh`` cannot cross.  A disc test
    is sufficient, not necessary: False means only that numpy must decide.
    """
    entries = {}
    for pos, value in coherences:
        entries[pos] = entries.get(pos, 0.0) + value
    values = [*weights.values(), *entries.values()]
    if not all(map(math.isfinite, values)):
        return False
    if any(entries.get((j, i), 0.0) != value for (i, j), value in entries.items()):
        return False
    eps = sys.float_info.epsilon
    # numpy sums the diagonal within (d - 1) u sum|w|, u = eps / 2
    diagonal = weights.values()
    if abs(math.fsum(diagonal) - 1.0) > TRACE_TOL - dim * eps * math.fsum(map(abs, diagonal)):
        return False
    radius = dict.fromkeys(weights, 0.0)
    for (i, _), value in entries.items():
        radius[i] = radius.get(i, 0.0) + abs(value)
    norm = max((abs(weights.get(i, 0.0)) + r for i, r in radius.items()), default=0.0)
    # eigvalsh is backward stable: its eigenvalues are exact for A + E, |E| <= p(d) eps |A|
    floor = -POSITIVITY_TOL + dim * dim * eps * norm
    return all(weights.get(i, 0.0) - r >= floor for i, r in radius.items())


def check_record_memory(config: "EvolutionConfig", shape: tuple) -> None:
    """Raise ValueError when recording complex arrays of `shape` on config's grid needs
    more than MAX_RECORD_BYTES."""
    need = config.n_records * 16 * math.prod(shape)  # 16 bytes a complex128 entry
    if need > MAX_RECORD_BYTES:
        raise ValueError(f"{config.n_records} records of shape {shape} need "
                         f"{need / 2 ** 30:.3g} GiB, above the {MAX_RECORD_BYTES / 2 ** 30:g} "
                         f"GiB limit (MAX_RECORD_BYTES); raise record_every")


class EvolutionConfig(_Frozen):
    """The record grid and the trace tolerance.

    Records fall on every ``record_every``-th multiple of ``step`` and at
    ``duration``, a whole number of steps.  Propagation is exact to rounding,
    so ``step`` sets where records fall, not how accurate they are.  A
    ``record_every`` that is not an integer raises TypeError, and a
    ``trace_tol`` that is negative or NaN raises ValueError.  The grid is
    checked and read without numpy; only ``record_steps`` imports it.
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

    def record_steps(self):
        """The recorded step numbers as int64: 0, every ``record_every``-th, and the last."""
        import numpy as np

        return np.append(np.arange(0, self.n_steps, self.record_every, dtype=np.int64),
                         np.int64(self.n_steps))

    def intervals(self) -> list:
        """[(steps per record interval, at most the run; records on the grid)].

        A last record off the grid adds (leftover steps, 1).
        """
        every = min(self.record_every, self.n_steps)
        grid, left = divmod(self.n_steps, every)
        return [(every, grid), (left, 1)] if left else [(every, grid)]

    def record_times(self) -> list:
        """The record times as floats, k * step over ``record_steps()``: bit for bit its
        product with ``step``, without numpy."""
        n = self.n_steps
        return [k * self.step for k in (*range(0, n, self.record_every), n)]
