"""Dissipative evolution of hybrid states.

Integrates the Liouville equation

    drho/dt = -i[H, rho] + sum_i Vi* rho Vi - 1/2 {sum_i Vi Vi*, rho}
            = K rho + rho K^dagger + sum_i Vi* rho Vi,   K = -iH - G/2,

blockwise for block-diagonal states, with a fixed-step classical RK4
integrator; G holds the diagonal blocks of sum_i Vi Vi*.  Coupling operators
are block matrices over classical index pairs whose entries are quantum
operators.  A ``Generator`` validates a Hamiltonian and couplings once and
keeps the blocks of K and one stack of the coupling blocks with a nonzero
entry; the right-hand side, the dense Liouvillian, the integrator, the rate
equations and the structural complete-positivity check all work from it.
The CP check is exact: it reads the block pattern of each coupling instead
of sampling probe operators.

The generator L is linear and constant in time, so one RK4 step of size h is
exactly the matrix polynomial P = T4(hL) = I + hL + (hL)^2/2 + (hL)^3/6 +
(hL)^4/24.  ``evolve`` applies RK4 in one of two ways, chosen by operation
count (with a memory ceiling): it forms P once from the dense N x N
Liouvillian, N = (n+1) d^2, powers it into the record propagators
P^(j r) - I, r = ``record_every``, and writes each chunk of records with one
matrix-vector product; or, for large generators and short runs, it makes the
four right-hand-side calls per step matrix-free.  Both agree with the RK4
loop to rounding.  Every recorded state is checked as it is recorded: a
non-finite entry or a total trace more than ``trace_tol`` from 1 stops the
run with TraceDriftError, and one with a block eigenvalue below
-POSITIVITY_TOL with PositivityError.
"""

from __future__ import annotations

import math

import numpy as np

from . import _Frozen
from .states import (HERMITICITY_TOL, POSITIVITY_TOL, HybridState, block_eigenvalues,
                     operator_array)

BLOCK_ZERO_TOL = 1e-10
PATTERN_ZERO_TOL = 1e-12
# EvolutionConfig refuses more steps than this: even the smallest system
# takes about a microsecond per step, and a step count near 1e200 would never
# end while its records fill memory.
MAX_STEPS = 10 ** 7
# The dense path holds at most four N x N complex arrays at once (the RK4
# update, a scratch product and two record propagators while powering), and
# its stack adds at most STACK_BYTES beyond them; it is never taken when the
# four would need more bytes than this.
DENSE_MEMORY_CEILING = 64 * 2 ** 20
# The dense path's stack of record propagators P^(jr) - I, j = 1..b, takes at
# most this many bytes, or one N x N array when that is larger: on long runs
# b = 256 at N = 8 and b = 22 at N = 27.  Each chunk of b records is one
# matrix-vector product.
STACK_BYTES = 256 * 2 ** 10
# check_record_memory refuses a run whose records, kept as complex (n+1, d, d)
# arrays, would need more bytes than this; MAX_STEPS alone still allows 10^7
# records.  evolve applies it, and so does the CLI's efficiency command.
MAX_RECORD_BYTES = 2 ** 30
# Trajectory computes the smallest block eigenvalue this many records at a
# time: one batched eigvalsh over every record would hold temporaries about
# twice the size of the records.
EIG_BLOCK_RECORDS = 1024
# _dense_pays prices numpy's fixed cost of one ``rhs`` call in an RK4 step, about
# 16 us, at the 10^4 complex multiply-adds per us of N x N products (2 vCPUs).
RHS_CALL_FLOOR = 160_000


class CouplingOperator(_Frozen):
    """Block matrix V with quantum-operator entries V[alpha, beta].

    Attributes
    ----------
    blocks : np.ndarray
        Complex array of shape (n+1, n+1, d, d); entry (alpha, beta) is the
        quantum operator in classical block row alpha, column beta.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        self._set(blocks=operator_array(blocks, "coupling blocks", 4))

    @property
    def classical_dim(self) -> int:
        return self.blocks.shape[0]

    @property
    def quantum_dim(self) -> int:
        return self.blocks.shape[2]

    @classmethod
    def from_entries(cls, classical_dim: int, entries,
                     quantum_dim: int | None = None) -> "CouplingOperator":
        """Build from a mapping {(alpha, beta): d x d operator}; unlisted blocks are zero.

        Raises ValueError for a position outside [0, classical_dim) and for an
        entry that is not d x d.  An all-zero coupling needs `quantum_dim`.
        """
        entries = {pos: operator_array(op, f"coupling entry {pos}", 2)
                   for pos, op in entries.items()}
        if quantum_dim is None:
            if not entries:
                raise ValueError("an all-zero coupling needs an explicit quantum_dim")
            quantum_dim = len(next(iter(entries.values())))
        n, d = classical_dim, quantum_dim
        blocks = np.zeros((n, n, d, d), dtype=complex)
        for (a, b), op in entries.items():
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"block position {(a, b)} outside [0, {n})")
            if op.shape != (d, d):
                raise ValueError(f"coupling entry {(a, b)} has shape {op.shape}, "
                                 f"expected {(d, d)}")
            blocks[a, b] = op
        return cls(blocks)

    @classmethod
    def from_grid(cls, grid, quantum_dim: int | None = None) -> "CouplingOperator":
        """Build from a nested sequence of matrices, with None meaning zero."""
        if any(len(row) != len(grid) for row in grid):
            raise ValueError("coupling grid must be square")
        entries = {(a, b): entry for a, row in enumerate(grid)
                   for b, entry in enumerate(row) if entry is not None}
        return cls.from_entries(len(grid), entries, quantum_dim)

    def support(self) -> frozenset:
        """Set of (alpha, beta) classical index pairs with an entry above PATTERN_ZERO_TOL."""
        mags = np.max(np.abs(self.blocks), axis=(2, 3))
        return frozenset(
            (a, b)
            for a in range(self.classical_dim)
            for b in range(self.classical_dim)
            if mags[a, b] > PATTERN_ZERO_TOL
        )


class EvolutionConfig(_Frozen):
    """Fixed-step integration parameters; `duration` is a whole number of steps."""

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
        if record_every < 1:
            raise ValueError("record_every must be a positive integer")
        self._set(step=step, duration=duration, record_every=record_every, trace_tol=trace_tol)

    @property
    def n_steps(self) -> int:
        return round(self.duration / self.step)

    @property
    def n_records(self) -> int:
        return len(range(0, self.n_steps, self.record_every)) + 1

    def record_steps(self):
        """Yield the recorded step numbers: 0, every ``record_every``-th, and the last."""
        yield from range(0, self.n_steps, self.record_every)
        yield self.n_steps


class Generator(_Frozen):
    """Validated Hamiltonian and couplings, prepared once for repeated use.

    The Liouville equation is stored in the form of Blanchard and Jadczyk,

        drho/dt = K rho + rho K^dagger + sum_i Vi* rho Vi,  K = -iH - G/2,

    where G holds the diagonal blocks of sum_i Vi Vi*.

    Attributes
    ----------
    k : np.ndarray
        Read-only blocks of K, shape (n+1, d, d); zero when there is neither
        a Hamiltonian nor a coupling.
    v, index : np.ndarray
        Read-only stack (nnz, d, d) of the coupling blocks V[i, gamma, alpha]
        with a nonzero entry, at most n+1 per coupling under the CP rule,
        ordered by alpha; and their (i, gamma, alpha), shape (3, nnz).
    """

    __slots__ = ("k", "v", "index", "_kh", "_vh", "_scatter")

    def __init__(self, k: np.ndarray, v: np.ndarray, index: np.ndarray):
        kh, vh = k.conj().swapaxes(-1, -2), np.ascontiguousarray(v.conj().swapaxes(-1, -2))
        scatter = (index[2] == np.arange(len(k))[:, None]).astype(complex)  # sums by alpha
        for a in (k, v, index, kh, vh, scatter):
            a.setflags(write=False)
        self._set(k=k, v=v, index=index, _kh=kh, _vh=vh, _scatter=scatter)

    @classmethod
    def prepare(cls, couplings=(), hamiltonian=None,
                state: HybridState | None = None) -> "Generator":
        """Gather and validate.

        The couplings, the Hamiltonian and the state must agree on (n+1, d),
        which is taken from whichever of them is given.  Raises ValueError
        when they disagree or none is given, and OverflowError when K is not
        finite.
        """
        couplings = list(couplings)
        shapes = {f"coupling {i}": v.blocks.shape[1:3] for i, v in enumerate(couplings)}
        if hamiltonian is not None:
            h = operator_array(hamiltonian, "Hamiltonian blocks", 3)
            dev = np.max(np.abs(h - h.conj().transpose(0, 2, 1)))
            if dev > HERMITICITY_TOL:
                raise ValueError(f"Hamiltonian block not Hermitian: max dev {dev:.3g}")
            shapes["Hamiltonian"] = h.shape[:2]
        if state is not None:
            shapes["state"] = state.blocks.shape[:2]
        if len(set(shapes.values())) != 1:
            raise ValueError("couplings, Hamiltonian and state disagree on (n+1, d): "
                             + (", ".join(f"{name} {s}" for name, s in shapes.items())
                                or "none of them is given"))
        n1, d = next(iter(shapes.values()))
        index = sorted(((i, g, a) for i, c in enumerate(couplings)
                        for g, a in zip(*np.nonzero(c.blocks.any(axis=(2, 3))))),
                       key=lambda entry: entry[2])
        v = np.array([couplings[i].blocks[g, a] for i, g, a in index], complex).reshape(-1, d, d)
        k = np.zeros((n1, d, d), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            for (_, g, _), gain in zip(index, v @ v.conj().swapaxes(-1, -2)):
                k[g] -= 0.5 * gain  # G[gamma] sums V V^dagger over row gamma
            if hamiltonian is not None:
                k -= 1j * h
        if not np.isfinite(k).all():
            raise OverflowError("K = -iH - G/2 is not finite: a coupling entry is too large")
        return cls(k, v, np.array(index, dtype=np.intp).reshape(-1, 3).T.copy())

    def rhs(self, rho: np.ndarray) -> np.ndarray:
        """Time derivative of the (n+1, d, d) block array `rho`."""
        sandwich = (self._vh @ rho[self.index[1]] @ self.v).reshape(len(self.v), rho[0].size)
        return self.k @ rho + rho @ self._kh + (self._scatter @ sandwich).reshape(rho.shape)

    def liouvillian(self) -> np.ndarray:
        """Dense N x N generator L on (n+1, d, d) blocks, N = (n+1) d^2.

        L @ rho.ravel() == rhs(rho).ravel() for every rho of that shape.

        Rows and columns run over (alpha, m, w) in the C order of the block
        array.  A gathered block V at (gamma, alpha) adds kron(V^dagger, V^T)
        to block (alpha, gamma); each diagonal block adds kron(K, 1) +
        kron(1, conj(K)), the matrix of rho -> K rho + rho K^dagger.
        """
        n1, d = self.k.shape[:2]
        out = np.zeros((n1 * d * d,) * 2, dtype=complex)
        blocks = out.reshape(n1, d * d, n1, d * d)  # a view of out
        for g, a, v, vh in zip(*self.index[1:], self.v, self._vh):
            blocks[a, :, g] += np.kron(vh, v.T)
        eye = np.eye(d)
        for a, k in enumerate(self.k):
            blocks[a, :, a] += np.kron(k, eye) + np.kron(eye, k.conj())
        return out

    def cp_report(self) -> "CPReport":
        """Exact structural complete-positivity check of the couplings.

        (i) sum_i Vi Vi* must be block-diagonal; pairs of blocks of one Vi in
        one column give its off-diagonal blocks.  (ii) Vi* A Vi must be
        block-diagonal for every block-diagonal A.  Since
        (Vi* A Vi)[alpha, beta] = sum_gamma Vi[gamma, alpha]^dag A[gamma] Vi[gamma, beta]
        with every A[gamma] free, (ii) holds exactly when no two gathered
        blocks of one Vi share a row gamma.  The reported sandwich magnitude
        sum_gamma |Vi[gamma, alpha]|_F |Vi[gamma, beta]|_F bounds the
        off-diagonal block for every A whose blocks have unit norm.
        """
        i, row, col = self.index
        same = i[:, None] == i
        norms = np.linalg.norm(self.v, axis=(1, 2))
        gain, leak = {}, {}
        for e, f in zip(*np.nonzero(same & (col[:, None] == col) & (row[:, None] != row))):
            at = (int(row[e]), int(row[f]))
            gain[at] = gain.get(at, 0.0) + self.v[e] @ self._vh[f]
        gain = {at: float(np.abs(block).max()) for at, block in gain.items()}
        for e, f in zip(*np.nonzero(same & (row[:, None] == row) & (col[:, None] != col))):
            at = (int(i[e]), int(col[e]), int(col[f]))
            leak[at] = leak.get(at, 0.0) + float(norms[e] * norms[f])
        violations = [("gain", None, *at, mag) for at, mag in sorted(gain.items())]
        violations += [("sandwich", *at, mag) for at, mag in sorted(leak.items())]
        return CPReport(
            gain_offdiag=max(gain.values(), default=0.0),
            sandwich_offdiag=max(leak.values(), default=0.0),
            violations=tuple(v for v in violations if v[-1] > BLOCK_ZERO_TOL),
        )


def liouville_rhs(state: HybridState, hamiltonian=None, couplings=()) -> np.ndarray:
    """Time derivative of the hybrid state, blockwise.

    Returns an (n+1, d, d) array; the traces of the returned blocks sum to
    zero (probability conservation).
    """
    return Generator.prepare(couplings, hamiltonian, state).rhs(state.blocks)


class Trajectory(_Frozen):
    """Recorded states of a fixed-step integration."""

    __slots__ = ("times", "blocks", "_min_eig")

    def __init__(self, times: np.ndarray, blocks: np.ndarray):
        # blocks has shape (n_records, n+1, d, d); the smallest block
        # eigenvalue of each record is computed once
        min_eig = np.empty(len(blocks))
        for b in range(0, len(min_eig), EIG_BLOCK_RECORDS):
            block = blocks[b:b + EIG_BLOCK_RECORDS]
            min_eig[b:b + EIG_BLOCK_RECORDS] = block_eigenvalues(block).min(axis=(1, 2))
        self._set(times=times, blocks=blocks, _min_eig=min_eig)

    def __len__(self) -> int:
        return self.times.size

    def state(self, index: int) -> HybridState:
        return HybridState(self.blocks[index])

    def probabilities(self) -> np.ndarray:
        """Classical marginals, shape (n_records, n+1)."""
        return np.trace(self.blocks, axis1=2, axis2=3).real

    def trace_drift(self) -> np.ndarray:
        return np.abs(self.probabilities().sum(axis=1) - 1.0)

    def min_eigenvalues(self) -> np.ndarray:
        return self._min_eig


class TraceDriftError(ArithmeticError):
    """Raised when the integrator loses probability beyond tolerance.

    A numerical guard like an overflow, hence an ArithmeticError.
    """


class PositivityError(ArithmeticError):
    """Raised when a record has a block eigenvalue below -POSITIVITY_TOL."""


def evolve(
    state: HybridState,
    hamiltonian=None,
    couplings=(),
    *,
    config: EvolutionConfig,
    check_cp: bool = True,
) -> Trajectory:
    """Integrate the Liouville equation with fixed-step RK4.

    The first recorded entry is the initial state.  RK4 is applied through
    powers of the precomputed propagator T4(hL) or matrix-free, whichever
    costs fewer operations (``_dense_pays``).  Raises TraceDriftError at the
    first record whose total trace drifts beyond ``config.trace_tol`` or
    that is not finite (step too large), PositivityError at the first record
    with a block eigenvalue below -POSITIVITY_TOL, OverflowError if K is not
    finite, and ValueError if the couplings fail the structural CP check or
    the records would need more than ``MAX_RECORD_BYTES``.
    """
    check_record_memory(state, config)
    gen = Generator.prepare(couplings, hamiltonian, state)
    if check_cp:
        report = gen.cp_report()
        if not report.ok:
            raise ValueError(f"coupling operators fail CP conditions: {report.summary()}")
    # an unstable step overflows to inf and NaN; the record check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        if _dense_pays(gen, config):
            traj = _record_dense(gen, state.blocks, config)
        else:
            traj = _integrate(_matrix_free_step(gen, config.step), state.blocks, config)
    min_eig = traj.min_eigenvalues()
    k = np.argmax(min_eig < -POSITIVITY_TOL)  # the first record below, else 0
    if min_eig[k] < -POSITIVITY_TOL:
        raise PositivityError(f"record {k} at t={traj.times[k]:g} has block eigenvalue "
                              f"{min_eig[k]:.3g}, below -{POSITIVITY_TOL:g}; reduce step")
    return traj


def check_record_memory(state: HybridState, config: EvolutionConfig) -> None:
    """Raise ValueError when recording `state` on config's grid needs more than MAX_RECORD_BYTES."""
    need = config.n_records * state.blocks.nbytes
    if need > MAX_RECORD_BYTES:
        raise ValueError(f"{config.n_records} records of shape {state.blocks.shape} need "
                         f"{need / 2 ** 30:.3g} GiB, above the {MAX_RECORD_BYTES / 2 ** 30:g} "
                         f"GiB limit (MAX_RECORD_BYTES); raise record_every")


def _dense_pays(gen: Generator, config: EvolutionConfig) -> bool:
    """Whether the dense recorder costs fewer complex multiply-adds than RK4 on ``rhs``.

    Dense: d^4 per gathered block to build L, N^3 for each product of T4's
    Horner form, of the record propagators' powering and of the stack's
    doubling, and N^2 per record.  Matrix-free: four ``rhs`` calls per step,
    each two d x d products per gathered block and one K product pair per
    classical block, plus RHS_CALL_FLOOR.  The dense path is never taken
    when its N x N arrays would need more than ``DENSE_MEMORY_CEILING``.
    """
    nnz, (n1, d) = len(gen.v), gen.k.shape[:2]
    size = n1 * d * d
    if 4 * 16 * size ** 2 > DENSE_MEMORY_CEILING:
        return False
    counts = _propagator_counts(config)
    products = 3 + _power_products(counts) + _stack_depth(size, config.n_steps // counts[0]) - 1
    dense = nnz * d ** 4 + products * size ** 3 + config.n_records * size ** 2
    return dense < config.n_steps * 4 * ((nnz + n1) * 2 * d ** 3 + RHS_CALL_FLOOR)


def _propagator_counts(config: EvolutionConfig) -> tuple:
    """Steps per record interval and, when the last record is off that grid, the leftover steps.

    An interval longer than the run records what one as long as the run does.
    """
    every = min(config.record_every, config.n_steps)
    left = config.n_steps % every
    return (every, left) if left else (every,)


def _power_products(counts) -> int:
    """N x N products ``_powers`` makes: squarings up to the largest count, one per further bit."""
    return max(counts).bit_length() - 1 + sum(q.bit_count() - 1 for q in counts)


def _stack_depth(size: int, n_grid: int) -> int:
    """Record propagators in the stack, for `n_grid` records of `size` entries.

    As many as STACK_BYTES holds, and at least 1.  At most n_grid / N, so
    that building the stack, N^3 for each, never costs more operations than
    the N^2 for each record it serves.
    """
    return max(1, min(n_grid // size, STACK_BYTES // (16 * size ** 2)))


def _rk4_update(gen: Generator, dt: float) -> np.ndarray:
    """T = T4(dt L) - I, the change one RK4 step makes, as an N x N matrix.

    T = A (I + A/2 (I + A/3 (I + A/4))) with A = dt L is the RK4 update for
    a linear right-hand side.  The products go through one scratch array,
    so three N x N arrays are alive at once; L is freed on return.
    """
    a = gen.liouvillian()
    a *= dt
    t = a / 4
    w = np.empty_like(a)
    for k in (3, 2, 1):
        t.flat[::len(t) + 1] += 1  # t = I + t
        np.matmul(a, t, out=w)
        w /= k
        t, w = w, t
    return t


def _powers(t: np.ndarray, counts) -> list:
    """P^q - I for each q in `counts`, where P = I + t; overwrites `t`.

    Binary powering in the I + A form, (I + A)(I + B) - I = A + B + AB, so
    the identity is never added and taken away again: as with RK4's own
    rho + dt/6 (...), rounding does not build up over many steps.  Each
    product is written into one scratch array.
    """
    out = [None] * len(counts)
    w = np.empty_like(t)
    bit = 1
    while True:
        for i, q in enumerate(counts):
            if q & bit:
                if out[i] is None:
                    out[i] = t.copy()
                else:
                    np.matmul(out[i], t, out=w)
                    w += out[i]
                    w += t
                    out[i], w = w, out[i]
        bit <<= 1
        if bit > max(counts):
            return out
        np.matmul(t, t, out=w)
        w += t
        w += t
        t, w = w, t


def _stack(d: np.ndarray, depth: int) -> np.ndarray:
    """Rows j N .. (j+1) N - 1 hold S_(j+1) = (I + d)^(j+1) - I, j < depth, built by doubling."""
    size = len(d)
    if depth == 1:
        return d
    s = np.empty((depth, size, size), dtype=complex)
    s[0] = d
    j = 1
    while j < depth:
        c = min(j, depth - j)
        # S_(j+i) = S_j + S_i + S_j S_i for i = 1..c
        np.matmul(s[j - 1], s[:c], out=s[j:j + c])
        s[j:j + c] += s[:c]
        s[j:j + c] += s[j - 1]
        j += c
    return s.reshape(-1, size)


def _record_dense(gen: Generator, rho: np.ndarray, config: EvolutionConfig) -> Trajectory:
    """Records on ``config.record_steps()`` from powers of the RK4 propagator P = T4(hL).

    With r = ``record_every``, D = P^r - I is the record propagator and a
    stack holds S_j = P^(jr) - I for j = 1..b.  A chunk of up to b records
    after record k is then records[k] + S records[k], one matrix-vector
    product, checked as a whole.  A last record off the r-grid takes the
    leftover steps' propagator from the same powering.
    """
    n1, d = rho.shape[:2]
    steps = np.fromiter(config.record_steps(), dtype=int)
    counts = _propagator_counts(config)
    n_grid = config.n_steps // counts[0]  # records on the r-grid after the first
    size = rho.size
    grid, *left = _powers(_rk4_update(gen, config.step), counts)
    depth = _stack_depth(size, n_grid)
    stack = _stack(grid, depth)
    del grid  # the stack holds it, or a copy
    records = np.empty((len(steps), size), dtype=complex)
    records[0] = rho.ravel()
    trace = _trace_weights(n1, d)
    for k in range(0, n_grid, depth):
        c = min(depth, n_grid - k)
        chunk = records[k + 1:k + 1 + c]
        np.dot(stack[:c * size], records[k], out=chunk.reshape(-1))
        chunk += records[k]
        _check_trace(chunk, steps[k + 1:], trace, config)
    if left:  # the last record, off the r-grid
        records[-1] = records[-2] + left[0] @ records[-2]
        _check_trace(records[-1:], steps[-1:], trace, config)
    return Trajectory(times=steps * config.step, blocks=records.reshape(-1, n1, d, d))


def _matrix_free_step(gen: Generator, dt: float):
    """One classical RK4 step of the flat state, four ``rhs`` calls."""
    def advance(v):
        rho = v.reshape(gen.k.shape)
        k1 = gen.rhs(rho)
        k2 = gen.rhs(rho + 0.5 * dt * k1)
        k3 = gen.rhs(rho + 0.5 * dt * k2)
        k4 = gen.rhs(rho + dt * k3)
        return (rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)).reshape(-1)

    return advance


def _integrate(advance, rho: np.ndarray, config: EvolutionConfig) -> Trajectory:
    """Apply `advance` to the flattened `rho` and record on ``config.record_steps()``.

    Each record is checked as it is stored, so the run stops at the first
    whose total trace is more than ``trace_tol`` from 1, or not finite.
    """
    n1, d = rho.shape[:2]
    steps = np.fromiter(config.record_steps(), dtype=int)
    records = np.empty((len(steps), rho.size), dtype=complex)
    trace = _trace_weights(n1, d)
    v = rho.ravel().copy()
    done = 0
    for k, step in enumerate(steps):
        for _ in range(step - done):
            v = advance(v)
        records[k] = v
        _check_trace(records[k:k + 1], steps[k:], trace, config)
        done = step
    return Trajectory(times=steps * config.step, blocks=records.reshape(-1, n1, d, d))


def _trace_weights(n1: int, d: int) -> np.ndarray:
    """The total trace of a flat record as one dot product with this vector.

    Its zero weights on off-diagonal entries make the product NaN when any
    entry is inf or NaN (0 * inf is NaN).
    """
    return np.tile(np.eye(d, dtype=complex).ravel(), n1)


def _check_trace(records: np.ndarray, steps: np.ndarray, trace: np.ndarray,
                 config: EvolutionConfig) -> None:
    """Raise TraceDriftError at the first of the flat `records`, taken at `steps`, that drifts."""
    drift = np.abs((records @ trace).real - 1.0)
    bad = ~(drift <= config.trace_tol)  # also catches NaN
    if bad.any():
        i = bad.argmax()
        raise TraceDriftError(f"trace drift {drift[i]:.3g} at t={steps[i] * config.step:g} "
                              f"exceeds {config.trace_tol:.3g}; reduce step")


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


def check_cp_conditions(couplings, probes=()) -> CPReport:
    """Verify that the couplings map block-diagonal operators to block-diagonal.

    The check is exact; see ``Generator.cp_report``.  ``probes`` is accepted
    for compatibility and ignored: no probe operator can reveal more than the
    block-row test already decides.
    """
    couplings = list(couplings)
    if not couplings:
        return CPReport(0.0, 0.0, ())
    return Generator.prepare(couplings).cp_report()


def classical_rate_equations(state: HybridState, couplings) -> np.ndarray:
    """Derivatives of the classical event probabilities.

    Equals the block traces of the Liouville right-hand side; the Hamiltonian
    commutator is traceless so only the couplings contribute.  The returned
    derivatives sum to zero.
    """
    return np.trace(liouville_rhs(state, couplings=couplings), axis1=1, axis2=2).real


def trajectory_rows(traj: Trajectory) -> np.ndarray:
    """Rows (t, p_0..p_n, trace_drift, min_eigenvalue) for CSV export, one per record.

    One (len(traj), n+4) float array; the probabilities are computed once.
    """
    probs = traj.probabilities()
    drift = np.abs(probs.sum(axis=1) - 1.0)  # traj.trace_drift() without a second trace
    return np.column_stack((traj.times, probs, drift, traj.min_eigenvalues()))
