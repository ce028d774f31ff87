"""Dissipative evolution of hybrid states.

Propagates the Liouville equation

    drho/dt = -i[H, rho] + sum_i Vi* rho Vi - 1/2 {sum_i Vi Vi*, rho}
            = K rho + rho K^dagger + sum_i Vi* rho Vi,   K = -iH - G/2,

blockwise for block-diagonal states; G holds the diagonal blocks of
sum_i Vi Vi*.  A coupling operator is a block matrix over classical index
pairs, kept as its listed quantum-operator entries and never as a dense
array.  A ``Generator`` validates a Hamiltonian and couplings once and keeps
the blocks of K and one stack of the listed entries that are nonzero; the
right-hand side, the dense Liouvillian, the propagation, the rate equations
and the structural complete-positivity check all work from it.  The CP check
is exact: it reads the block pattern of each coupling instead of sampling
probe operators.

L is linear and constant in time, so the record at time t is exactly
e^{tL} rho0.  Both of ``evolve``'s paths sum one truncated Taylor series,
``_taylor`` (after Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 2011), at
h ||L|| <= 1, in one record loop; the path is the one with fewer priced
operations that fits a memory ceiling.  The dense path forms the record
propagator e^{tau L} - I, tau = ``record_every`` * ``step``, from the N x N
Liouvillian, N = (n+1) d^2, by scaling and squaring, and writes each chunk
of records with one matrix-vector product.  The matrix-free path sums the
series of e^{tau L} rho from right-hand-side calls alone.  Every record is
checked as it is recorded: a non-finite entry or a total trace more than
``trace_tol`` from 1 stops the run with TraceDriftError.  Once the run has
finished, the first record with a block eigenvalue below -POSITIVITY_TOL
stops it with PositivityError.

The record grid ``EvolutionConfig``, the limits MAX_STEPS and
MAX_RECORD_BYTES, ``check_record_memory``, TAYLOR_TERMS, BLOCK_ZERO_TOL,
``CPReport`` and the two guard errors need no arrays; they live in
``limits`` and are re-exported here.  ``sectors`` propagates the CLI's
projector generators without numpy; ``evolve`` is the general integrator
it is tested against.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from . import _Frozen
from .limits import (BLOCK_ZERO_TOL, COMPLEX_BYTES, K_NOT_FINITE,  # noqa: F401
                     MAX_RECORD_BYTES, MAX_STEPS, TAYLOR_TERMS, CPReport, EvolutionConfig,
                     PositivityError, TraceDriftError, check_record_memory)
from .states import (HERMITICITY_TOL, POSITIVITY_TOL, HybridState, block_eigenvalues,
                     operator_array)

PATTERN_ZERO_TOL = 1e-12
# The figures of the three constants below were measured while ``eeqt
# simulate`` still ran ``evolve`` (``BENCH_16.json`` and the later single
# cost rule of ``_dense_pays``); they set the library integrator's path alone.
# The dense path holds at most four N x N complex arrays at once (L and three
# while it sums or squares a record propagator), and its stack adds at most
# STACK_BYTES beyond them.  It is never taken when the four need more bytes
# than the ceiling; below it, _dense_pays compares operation counts alone.
DENSE_MEMORY_CEILING = 64 * 2 ** 20
# The dense path's stack of record propagators e^{j tau L} - I, j = 1..b, takes at
# most this many bytes, or one N x N array when that is larger: on long runs
# b = 256 at N = 8 and b = 22 at N = 27.  Each chunk of b records is one
# matrix-vector product.
STACK_BYTES = 256 * 2 ** 10
# Trajectory computes the smallest block eigenvalue this many records at a
# time: one batched eigvalsh over every record would hold temporaries about
# twice the size of the records.
EIG_BLOCK_RECORDS = 1024
# _dense_pays prices numpy's fixed cost of one ``rhs`` call in a series term,
# about 16 us, at the 10^4 complex multiply-adds per us of N x N products (2 vCPUs).
RHS_CALL_FLOOR = 160_000


class CouplingOperator(_Frozen):
    """Block matrix V over classical index pairs, kept as its listed quantum-operator entries.

    Attributes
    ----------
    classical_dim : int
        n+1, the number of block rows and columns.
    positions, entries : np.ndarray
        Read-only: the (k, 2) int array of the listed (gamma, alpha) block
        positions in row-major order, and the complex (k, d, d) stack of
        their operators, (0, d, d) when none is listed.  Every other block is
        zero, and no (n+1, n+1, d, d) array is formed.  Built by ``from_entries``.
    """

    __slots__ = ("classical_dim", "positions", "entries")

    def __init__(self, classical_dim: int, positions: np.ndarray, entries: np.ndarray):
        for a in (positions, entries):
            a.setflags(write=False)
        self._set(classical_dim=classical_dim, positions=positions, entries=entries)

    @property
    def quantum_dim(self) -> int:
        return self.entries.shape[1]

    @classmethod
    def from_entries(cls, classical_dim: int, entries,
                     quantum_dim: int | None = None) -> "CouplingOperator":
        """Build from a mapping {(gamma, alpha): d x d operator}; unlisted blocks are zero.

        Raises ValueError for a dimension below 1, a position outside
        [0, classical_dim) or an entry that is not d x d, and TypeError for a
        dimension or position that is not an integer.  An all-zero coupling
        needs `quantum_dim`.
        """
        entries = {pos: operator_array(op, f"coupling entry {pos}", 2)
                   for pos, op in entries.items()}
        if quantum_dim is None:
            if not entries:
                raise ValueError("an all-zero coupling needs an explicit quantum_dim")
            quantum_dim = len(next(iter(entries.values())))
        n, d = operator.index(classical_dim), operator.index(quantum_dim)
        if min(n, d) < 1:
            raise ValueError(f"coupling dimensions ({n}, {d}) must be positive")
        for (a, b), op in entries.items():
            if not (0 <= operator.index(a) < n and 0 <= operator.index(b) < n):
                raise ValueError(f"block position {(a, b)} outside [0, {n})")
            if op.shape != (d, d):
                raise ValueError(f"coupling entry {(a, b)} has shape {op.shape}, "
                                 f"expected {(d, d)}")
        order = sorted(entries)
        return cls(n, np.array(order, dtype=np.intp).reshape(-1, 2),
                   np.array([entries[pos] for pos in order], dtype=complex).reshape(-1, d, d))

    def support(self) -> frozenset:
        """Set of (gamma, alpha) block positions with an entry above PATTERN_ZERO_TOL."""
        above = np.abs(self.entries).max(axis=(1, 2)) > PATTERN_ZERO_TOL
        return frozenset(map(tuple, self.positions[above].tolist()))


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
        shapes = {f"coupling {i}": (v.classical_dim, v.quantum_dim)
                  for i, v in enumerate(couplings)}
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
        gathered = sorted(((i, g, a, e) for i, c in enumerate(couplings)
                           for (g, a), e in zip(c.positions.tolist(), c.entries) if e.any()),
                          key=lambda entry: entry[2])  # each entry != 0, stably by alpha
        index = np.array([entry[:3] for entry in gathered], dtype=np.intp).reshape(-1, 3).T.copy()
        v = np.array([entry[3] for entry in gathered], complex).reshape(-1, d, d)
        k = np.zeros((n1, d, d), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            for g, gain in zip(index[1], v @ v.conj().swapaxes(-1, -2)):
                k[g] -= 0.5 * gain  # G[gamma] sums V V^dagger over row gamma
            if hamiltonian is not None:
                k -= 1j * h
        if not np.isfinite(k).all():
            raise OverflowError(K_NOT_FINITE)
        return cls(k, v, index)

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
        return CPReport.from_magnitudes(gain, leak)


def liouville_rhs(state: HybridState, hamiltonian=None, couplings=()) -> np.ndarray:
    """Time derivative of the hybrid state, blockwise.

    Returns an (n+1, d, d) array; the traces of the returned blocks sum to
    zero (probability conservation).
    """
    return Generator.prepare(couplings, hamiltonian, state).rhs(state.blocks)


class Trajectory(_Frozen):
    """Recorded states on a record grid."""

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


def evolve(state: HybridState, hamiltonian=None, couplings=(), *, config: EvolutionConfig,
           check_cp: bool = True) -> Trajectory:
    """Propagate the Liouville equation onto the record grid of `config`.

    The first record is the initial state and each later one e^{tL} rho0 to
    rounding, by the dense record propagator or matrix-free, as
    ``_dense_pays`` chooses.  Raises TraceDriftError at the first
    record whose total trace drifts beyond ``config.trace_tol`` or is not
    finite, PositivityError at the first record with a block eigenvalue below
    -POSITIVITY_TOL, OverflowError if K is not finite, and ValueError if the
    couplings fail the structural CP check, the records would need more than
    ``MAX_RECORD_BYTES`` or a matrix-free run more than MAX_STEPS substeps.
    """
    check_record_memory(config, COMPLEX_BYTES * math.prod(state.blocks.shape))
    gen = Generator.prepare(couplings, hamiltonian, state)
    if check_cp:
        gen.cp_report().check()
    # rounding in a run too stiff for double precision can overflow to inf
    # and NaN; the record check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        traj = _record(gen, state.blocks, config, _dense_pays(gen, config))
    min_eig = traj.min_eigenvalues()
    k = np.argmax(min_eig < -POSITIVITY_TOL)  # the first record below, else 0
    if min_eig[k] < -POSITIVITY_TOL:
        raise PositivityError(k, traj.times[k], min_eig[k])
    return traj


def _dense_pays(gen: Generator, config: EvolutionConfig) -> bool:
    """Whether the dense propagator takes fewer priced operations than the series on ``rhs``.

    Never when its N x N arrays would need more than DENSE_MEMORY_CEILING.
    Counted in complex multiply-adds, each Taylor sum at TAYLOR_TERMS terms.
    Dense: d^4 per block for L; N^3 per term, per log2(tau beta) squaring
    (``_substeps``) and per stack doubling; N^2 per record.  Series: per term
    an ``rhs`` call, two d x d products per block and per K, plus RHS_CALL_FLOOR.
    """
    nnz, (n1, d) = len(gen.v), gen.k.shape[:2]
    size = n1 * d * d
    if 4 * 16 * size ** 2 > DENSE_MEMORY_CEILING:
        return False
    beta, total = _substeps(gen, config)
    intervals = config.intervals()
    products = (_stack_depth(size, intervals[0][1]) - 1
                + sum(TAYLOR_TERMS + max(0, math.frexp(q * config.step * beta)[1])
                      for q, _ in intervals))
    dense = nnz * d ** 4 + products * size ** 3 + config.n_records * size ** 2
    return dense < total * TAYLOR_TERMS * ((nnz + n1) * 2 * d ** 3 + RHS_CALL_FLOOR)


def _stack_depth(size: int, records: int) -> int:
    """Record propagators in the stack, for `records` records of `size` entries.

    As many as STACK_BYTES holds, and at least 1.  At most records / N, so
    that building the stack, N^3 for each, never costs more operations than
    the N^2 for each record it serves.
    """
    return max(1, min(records // size, STACK_BYTES // (16 * size ** 2)))


def _taylor(apply, x, h: float):
    """sum_{k >= 1} (hL)^k x / k!, given ``apply(y) = L y`` as a new array and h ||L|| <= 1.

    The sum stops at its first term whose Frobenius norm is below 2^-53 of
    the sum's, or is not finite, and after TAYLOR_TERMS terms at most.
    """
    term, out = x, 0.0
    for k in range(1, TAYLOR_TERMS + 1):
        term = apply(term)
        term *= h / k
        out = out + term
        # squared norms, by vdot; NaN and inf stop the sum too
        if not np.vdot(term, term).real > 2.0 ** -106 * np.vdot(out, out).real:
            break
    return out


def _propagator(lv: np.ndarray, tau: float) -> np.ndarray:
    """e^{tau L} - I: ``_taylor`` at tau / 2^s, where ||tau L / 2^s||_1 < 1, squared s times.

    The squarings keep the I + A form, (I + A)^2 - I = 2A + A A, so the
    identity is never added and taken away again.
    """
    s = max(0, math.frexp(tau * np.linalg.norm(lv, 1))[1])
    a = _taylor(lv.dot, 1.0, math.ldexp(tau, -s))  # L 1 = L: no identity is formed
    for _ in range(s):
        a += a @ a + a
    return a


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


def _record(gen: Generator, rho: np.ndarray, config: EvolutionConfig, dense: bool) -> Trajectory:
    """Records on ``config.record_steps()``, by ``_dense`` movers or by ``_series`` ones.

    Each of ``config.intervals()`` gets one mover, (move, depth): ``move(v, out)``
    writes the len(out) <= depth records after the flat record `v` into the
    flat records `out`.  Each chunk is checked as a whole as it is written,
    so the run stops at the first record whose total trace is more than
    ``trace_tol`` from 1, or not finite.  One mover is dropped before the
    next is formed, so a dense run never holds two stacks.
    """
    n1, d = rho.shape[:2]
    steps = config.record_steps()
    records = np.empty((len(steps), rho.size), dtype=complex)
    records[0] = rho.ravel()
    # the total trace of a flat record is its dot product with these weights;
    # their zeros off the diagonal make it NaN when any entry is not finite
    trace = np.tile(np.eye(d, dtype=complex).ravel(), n1)
    k = 0  # the last record taken
    for q, count in config.intervals():
        move, depth = (_dense if dense else _series)(gen, config, q, count)
        for j in range(k, k + count, depth):
            chunk = records[j + 1:min(j + depth, k + count) + 1]
            move(records[j], chunk)
            _check_trace(chunk, steps[j + 1:], trace, config)
        k += count
        del move
    return Trajectory(times=steps * config.step, blocks=records.reshape(-1, n1, d, d))


def _dense(gen: Generator, config: EvolutionConfig, q: int, count: int) -> tuple:
    """(move, b) over `count` intervals of `q` steps, from the stack S_j = e^{j tau L} - I, j <= b.

    tau = q * step; a chunk of c <= b records after v is S_1..c v + v, one
    matrix-vector product.  L is not kept once the stack is formed.
    """
    size = gen.k.size
    depth = _stack_depth(size, count)
    stack = _stack(_propagator(gen.liouvillian(), q * config.step), depth)

    def move(v, out):
        np.dot(stack[:len(out) * size], v, out=out.reshape(-1))
        out += v

    return move, depth


def _substeps(gen: Generator, config: EvolutionConfig) -> tuple:
    """beta, and the run's total of max(1, ceil(tau beta)) series substeps per record interval tau.

    beta = 2 max ||K_gamma||_F + the largest sum of ||V||_F^2 over a column alpha bounds
    the norm of L induced by max_alpha ||rho_alpha||_F, since block alpha of L rho is
    K rho_alpha + rho_alpha K^dagger + sum V^dagger rho_gamma V over the blocks V at
    (gamma, alpha).  The total is a float, so that one too large to represent is inf.
    """
    columns = np.bincount(gen.index[2], np.linalg.norm(gen.v, axis=(1, 2)) ** 2,
                          minlength=len(gen.k))
    beta = 2 * np.linalg.norm(gen.k, axis=(1, 2)).max() + columns.max()
    return beta, sum(count * max(1.0, np.ceil(q * config.step * beta))
                     for q, count in config.intervals())


def _series(gen: Generator, config: EvolutionConfig, q: int, count: int) -> tuple:
    """(move, 1): one record from ceil(tau beta) ``_taylor`` substeps on ``rhs``, tau = q * step.

    Each substep has h ||L|| <= 1 (``_substeps``).  Raises ValueError,
    before any ``rhs`` call, when the run would take more than MAX_STEPS.
    """
    beta, total = _substeps(gen, config)
    if total > MAX_STEPS:
        raise ValueError(f"{total:.3g} series substeps exceed the limit of {MAX_STEPS} "
                         "(MAX_STEPS); shorten the duration")
    n = max(1, math.ceil(q * config.step * beta))

    def move(v, out):
        rho = v.reshape(gen.k.shape)
        for _ in range(n):
            rho = rho + _taylor(gen.rhs, rho, q * config.step / n)
        out[0] = rho.reshape(-1)

    return move, 1


def _check_trace(records: np.ndarray, steps: np.ndarray, trace: np.ndarray,
                 config: EvolutionConfig) -> None:
    """Raise TraceDriftError at the first of the flat `records`, taken at `steps`, that drifts."""
    drift = np.abs((records @ trace).real - 1.0)
    bad = ~(drift <= config.trace_tol)  # also catches NaN
    if bad.any():
        i = bad.argmax()
        raise TraceDriftError(drift[i], steps[i] * config.step, config.trace_tol)


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
