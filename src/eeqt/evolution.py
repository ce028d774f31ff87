"""Dissipative evolution of hybrid states.

Integrates the Liouville equation

    drho/dt = -i[H, rho] + sum_i Vi* rho Vi - 1/2 {sum_i Vi Vi*, rho}

blockwise for block-diagonal states, with a fixed-step classical RK4
integrator.  Coupling operators are block matrices over classical index
pairs whose entries are quantum operators.  A ``Generator`` validates and
stacks a Hamiltonian and couplings once; the right-hand side, the dense
Liouvillian, the integrator, the rate equations and the structural
complete-positivity check all work from it.  The CP check is exact: it reads
the block pattern of each coupling instead of sampling probe operators.

The generator L is linear and constant in time, so one RK4 step of size h is
exactly the matrix polynomial T4(hL) = I + hL + (hL)^2/2 + (hL)^3/6 +
(hL)^4/24.  ``evolve`` applies RK4 in one of two ways, chosen by operation
count (with a memory ceiling): it forms T4(hL) once from the dense N x N
Liouvillian, N = (n+1) d^2, and makes one matrix-vector product per step; or,
for large generators and short runs, it makes the four right-hand-side calls
per step matrix-free.  Both agree with the RK4 loop to rounding.  Every
recorded state is checked as it is recorded: a non-finite entry or a total
trace more than ``trace_tol`` from 1 stops the run with TraceDriftError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .states import HERMITICITY_TOL, HybridState, block_eigenvalues, operator_array

BLOCK_ZERO_TOL = 1e-10
# EvolutionConfig refuses more steps than this: even the smallest system
# takes about a microsecond per step, and a step count near 1e200 would never
# end while its records fill memory.
MAX_STEPS = 10 ** 7
# The dense path holds three N x N complex arrays at once (L, T4 and a
# product); it is never taken when they would need more bytes than this.
DENSE_MEMORY_CEILING = 64 * 2 ** 20
# evolve refuses a run whose records, kept as complex (n+1, d, d) arrays,
# would need more bytes than this; MAX_STEPS alone still allows 10^7 records.
MAX_RECORD_BYTES = 2 ** 30


@dataclass(frozen=True)
class CouplingOperator:
    """Block matrix V with quantum-operator entries V[alpha, beta].

    Attributes
    ----------
    blocks : np.ndarray
        Complex array of shape (n+1, n+1, d, d); entry (alpha, beta) is the
        quantum operator in classical block row alpha, column beta.
    """

    blocks: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "blocks", operator_array(self.blocks, "coupling blocks", 4))

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

    def support(self, tol: float = 1e-12) -> frozenset:
        """Set of (alpha, beta) classical index pairs with an entry above `tol`."""
        mags = np.max(np.abs(self.blocks), axis=(2, 3))
        return frozenset(
            (a, b)
            for a in range(self.classical_dim)
            for b in range(self.classical_dim)
            if mags[a, b] > tol
        )


@dataclass(frozen=True)
class EvolutionConfig:
    """Fixed-step integration parameters; `duration` is a whole number of steps."""

    step: float
    duration: float
    record_every: int = 1
    trace_tol: float = 1e-8

    def __post_init__(self):
        if not 0 < self.step <= self.duration < math.inf:
            raise ValueError("step and duration must satisfy 0 < step <= duration < inf")
        if self.duration / self.step > MAX_STEPS + 0.5:
            raise ValueError(f"{self.duration / self.step:.3g} steps exceed the limit "
                             f"of {MAX_STEPS} (MAX_STEPS)")
        # relative tolerance: 0.12 / 0.002 is 59.99999999999999
        if abs(math.remainder(self.duration, self.step)) > 1e-9 * self.duration:
            raise ValueError(
                f"duration {self.duration:g} is not a whole multiple of step {self.step:g}"
            )
        if self.record_every < 1:
            raise ValueError("record_every must be a positive integer")

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


@dataclass(frozen=True)
class Generator:
    """Validated Hamiltonian and couplings, prepared once for repeated use.

    Attributes
    ----------
    h : np.ndarray | None
        Read-only copy of the Hermitian Hamiltonian blocks, shape (n+1, d, d).
    vs : np.ndarray | None
        Coupling operators stacked to shape (m, n+1, n+1, d, d).
    gain : np.ndarray | None
        Diagonal blocks of sum_i Vi Vi*, shape (n+1, d, d).
    """

    h: np.ndarray | None = field(repr=False)
    vs: np.ndarray | None = field(repr=False)
    gain: np.ndarray | None = field(repr=False)

    @classmethod
    def prepare(cls, couplings=(), hamiltonian=None,
                state: HybridState | None = None) -> "Generator":
        """Stack and validate; with `state`, also check its (n+1, d)."""
        couplings = list(couplings)
        vs = None
        if couplings:
            if len({v.blocks.shape for v in couplings}) != 1:
                raise ValueError("coupling operators have mismatched shapes")
            vs = np.stack([v.blocks for v in couplings])
        h = None
        if hamiltonian is not None:
            h = operator_array(hamiltonian, "Hamiltonian blocks", 3)
            dev = np.max(np.abs(h - h.conj().transpose(0, 2, 1)))
            if dev > HERMITICITY_TOL:
                raise ValueError(f"Hamiltonian block not Hermitian: max dev {dev:.3g}")
        if state is not None:
            n, d = state.classical_dim, state.quantum_dim
            if h is not None and h.shape != (n, d, d):
                raise ValueError(
                    f"Hamiltonian shape {h.shape} does not match state ({n}, {d}, {d})"
                )
            if vs is not None and vs.shape[1:] != (n, n, d, d):
                raise ValueError(
                    f"coupling shape {vs.shape[1:]} does not match state ({n}, {n}, {d}, {d})"
                )
        # G[alpha] = sum_{i, gamma} V[i, alpha, gamma] V[i, alpha, gamma]^dagger
        gain = None if vs is None else np.einsum("iagxz,iagwz->axw", vs, vs.conj())
        return cls(h, vs, gain)

    def rhs(self, rho: np.ndarray) -> np.ndarray:
        """Time derivative of the (n+1, d, d) block array `rho`."""
        h, vs, gain = self.h, self.vs, self.gain
        out = np.zeros_like(rho)
        if h is not None:
            out += -1j * (h @ rho - rho @ h)
        if vs is not None:
            out += _sandwich(vs, rho)
            out -= 0.5 * (gain @ rho + rho @ gain)
        return out

    def liouvillian(self, shape: tuple) -> np.ndarray:
        """Dense N x N generator L on (n+1, d, d) blocks `shape`, N = (n+1) d^2.

        L @ rho.ravel() == rhs(rho).ravel() for every rho of that shape.

        Rows and columns run over (alpha, m, w) in the C order of the block
        array.  The couplings give
        L[(a, m, w), (g, x, z)] = sum_i conj(V[i, g, a, x, m]) V[i, g, a, z, w];
        each diagonal block adds kron(K, 1) + kron(1, conj(K)) with
        K = -iH - G/2, since -i[H, rho] - {G, rho}/2 = K rho + rho K^dagger.
        """
        n1, d = shape[:2]
        size = n1 * d * d
        if self.vs is None:
            out = np.zeros((size, size), dtype=complex)
        else:
            out = np.einsum("igaxm,igazw->amwgxz", self.vs.conj(), self.vs).reshape(size, size)
        k = np.zeros((n1, d, d), dtype=complex)
        if self.h is not None:
            k -= 1j * self.h
        if self.gain is not None:
            k -= 0.5 * self.gain
        eye = np.eye(d)
        blocks = out.reshape(n1, d * d, n1, d * d)  # a view of out
        for a in range(n1):
            blocks[a, :, a] += np.kron(k[a], eye) + np.kron(eye, k[a].conj())
        return out

    def cp_report(self, tol: float = BLOCK_ZERO_TOL) -> "CPReport":
        """Exact structural complete-positivity check of the couplings.

        (i) sum_i Vi Vi* must be block-diagonal.  (ii) Vi* A Vi must be
        block-diagonal for every block-diagonal A.  Since
        (Vi* A Vi)[alpha, beta] = sum_gamma Vi[gamma, alpha]^dag A[gamma] Vi[gamma, beta]
        with every A[gamma] free, (ii) holds exactly when no block row gamma of
        any Vi has two nonzero blocks.  The reported sandwich magnitude
        sum_gamma |Vi[gamma, alpha]|_F |Vi[gamma, beta]|_F bounds the
        off-diagonal block for every A whose blocks have unit norm.
        """
        if self.vs is None:
            return CPReport(0.0, 0.0, (), tol)
        vs = self.vs
        n = vs.shape[1]
        offdiag = ~np.eye(n, dtype=bool)
        violations = []

        # war1: off-diagonal blocks of sum_i Vi Vi*
        gain_full = np.einsum("iagxz,ibgwz->abxw", vs, vs.conj())
        gain_mags = np.max(np.abs(gain_full), axis=(2, 3))
        gain_worst = float(gain_mags[offdiag].max()) if n > 1 else 0.0
        for a, b in zip(*np.nonzero((gain_mags > tol) & offdiag)):
            violations.append(("gain", None, int(a), int(b), float(gain_mags[a, b])))

        # war2: two nonzero blocks in one block row of some Vi
        norms = np.linalg.norm(vs, axis=(3, 4))
        leak = np.einsum("iga,igb->iab", norms, norms)
        sandwich_worst = float(leak[:, offdiag].max()) if n > 1 else 0.0
        for i, a, b in zip(*np.nonzero((leak > tol) & offdiag)):
            violations.append(("sandwich", int(i), int(a), int(b), float(leak[i, a, b])))
        return CPReport(
            gain_offdiag=gain_worst,
            sandwich_offdiag=sandwich_worst,
            violations=tuple(violations),
            tol=tol,
        )


def _sandwich(vs: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_{i, gamma} V[i, gamma, alpha]^dagger rho[gamma] V[i, gamma, alpha], per alpha.

    Two batched d x d products per coupling block, instead of the d^4 cost
    of one unordered three-operand einsum.
    """
    return (vs.conj().swapaxes(-1, -2) @ rho[None, :, None] @ vs).sum(axis=(0, 1))


def liouville_rhs(state: HybridState, hamiltonian=None, couplings=()) -> np.ndarray:
    """Time derivative of the hybrid state, blockwise.

    Returns an (n+1, d, d) array; the traces of the returned blocks sum to
    zero (probability conservation).
    """
    return Generator.prepare(couplings, hamiltonian, state).rhs(state.blocks)


@dataclass(frozen=True)
class Trajectory:
    """Recorded states of a fixed-step integration."""

    times: np.ndarray
    blocks: np.ndarray  # shape (n_records, n+1, d, d)

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
        return block_eigenvalues(self.blocks).min(axis=(1, 2))


class TraceDriftError(RuntimeError):
    """Raised when the integrator loses probability beyond tolerance."""


def evolve(
    state: HybridState,
    hamiltonian=None,
    couplings=(),
    config: EvolutionConfig | None = None,
    check_cp: bool = True,
) -> Trajectory:
    """Integrate the Liouville equation with fixed-step RK4.

    The first recorded entry is the initial state.  RK4 is applied as the
    precomputed propagator T4(hL) or matrix-free, whichever costs fewer
    operations (``_dense_pays``).  Raises TraceDriftError at the first record
    whose total trace drifts beyond ``config.trace_tol`` or that is not
    finite (step too large), and ValueError if the couplings fail the
    structural CP check or the records would need more than
    ``MAX_RECORD_BYTES``.
    """
    if config is None:
        raise ValueError("an EvolutionConfig is required")
    shape = state.blocks.shape
    need = config.n_records * state.blocks.nbytes
    if need > MAX_RECORD_BYTES:
        raise ValueError(f"{config.n_records} records of shape {shape} need "
                         f"{need / 2 ** 30:.3g} GiB, above the {MAX_RECORD_BYTES / 2 ** 30:g} "
                         f"GiB limit (MAX_RECORD_BYTES); raise record_every")
    gen = Generator.prepare(couplings, hamiltonian, state)
    if check_cp:
        report = gen.cp_report()
        if not report.ok:
            raise ValueError(f"coupling operators fail CP conditions: {report.summary()}")
    # an unstable step overflows to inf and NaN; the record check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        stepper = _dense_step if _dense_pays(gen, shape, config.n_steps) else _matrix_free_step
        return _integrate(stepper(gen, shape, config.step), state.blocks, config)


def _dense_pays(gen: Generator, shape: tuple, n_steps: int) -> bool:
    """Whether T4(hL) costs fewer complex multiply-adds than RK4 on ``rhs``.

    `shape` is the (n+1, d, d) shape of the state's blocks.  Dense: m N^2 to
    build L, 3 N^3 for the three products of T4's Horner form and N^2 per
    step.  Matrix-free: four ``rhs`` calls per step, each two d x d products
    per coupling block (m (n+1)^2 of them) and per classical block for the
    gain and for the Hamiltonian.  The dense path is never taken above
    ``DENSE_MEMORY_CEILING``.
    """
    n1, d = shape[:2]
    size = n1 * d * d
    if 3 * 16 * size ** 2 > DENSE_MEMORY_CEILING:
        return False
    m = 0 if gen.vs is None else len(gen.vs)
    blocks = m * n1 ** 2 + n1 * ((gen.gain is not None) + (gen.h is not None))
    dense = m * size ** 2 + 3 * size ** 3 + n_steps * size ** 2
    return dense < n_steps * 4 * blocks * 2 * d ** 3


def _dense_step(gen: Generator, shape: tuple, dt: float):
    """One RK4 step of the flat state as v + (T4(dt L) - I) @ v.

    T4 - I = A (I + A/2 (I + A/3 (I + A/4))) with A = dt L is the RK4 update
    for a linear right-hand side.  Adding v back keeps the identity part
    exact, as RK4's own rho + dt/6 (...) does, so rounding does not build up
    over many steps.  Three N x N arrays are alive at once.
    """
    a = gen.liouvillian(shape)
    a *= dt
    t = a / 4
    for k in (3, 2, 1):
        t.flat[::len(t) + 1] += 1  # t = I + t
        t = a @ t
        t /= k
    return lambda v: v + t.dot(v)


def _matrix_free_step(gen: Generator, shape: tuple, dt: float):
    """One classical RK4 step of the flat state, four ``rhs`` calls."""
    def advance(v):
        rho = v.reshape(shape)
        k1 = gen.rhs(rho)
        k2 = gen.rhs(rho + 0.5 * dt * k1)
        k3 = gen.rhs(rho + 0.5 * dt * k2)
        k4 = gen.rhs(rho + dt * k3)
        return (rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)).reshape(-1)

    return advance


def _integrate(advance, rho: np.ndarray, config: EvolutionConfig) -> Trajectory:
    """Apply `advance` to the flattened `rho` and record on ``config.record_steps()``.

    Each record is checked before it is stored; the first whose total trace
    is more than ``trace_tol`` from 1, or not finite, raises TraceDriftError.
    """
    n1, d = rho.shape[:2]
    steps = np.fromiter(config.record_steps(), dtype=int)
    records = np.empty((len(steps), rho.size), dtype=complex)
    # The total trace as one dot product.  Its zero weights on off-diagonal
    # entries make it NaN when any entry is inf or NaN (0 * inf is NaN).
    trace = np.tile(np.eye(d, dtype=complex).ravel(), n1)
    v = rho.ravel().copy()
    done = 0
    for k, step in enumerate(steps):
        for _ in range(step - done):
            v = advance(v)
        drift = abs((trace @ v).real - 1.0)
        if not drift <= config.trace_tol:  # also catches NaN
            raise TraceDriftError(f"trace drift {drift:.3g} at t={step * config.step:g} "
                                  f"exceeds {config.trace_tol:.3g}; reduce step")
        records[k] = v
        done = step
    return Trajectory(times=steps * config.step, blocks=records.reshape(-1, n1, d, d))


@dataclass(frozen=True)
class CPReport:
    """Result of the structural complete-positivity checks.

    ``gain_offdiag``: largest off-diagonal block magnitude of sum_i Vi Vi*.
    ``sandwich_offdiag``: largest bound, over i and alpha != beta, on the
    (alpha, beta) block of Vi* A Vi for block-diagonal A with unit-norm
    blocks.  ``violations`` lists (check, i, alpha, beta, value).
    """

    gain_offdiag: float
    sandwich_offdiag: float
    violations: tuple
    tol: float

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


def check_cp_conditions(couplings, probes=(), tol: float = BLOCK_ZERO_TOL) -> CPReport:
    """Verify that the couplings map block-diagonal operators to block-diagonal.

    The check is exact; see ``Generator.cp_report``.  ``probes`` is accepted
    for compatibility and ignored: no probe operator can reveal more than the
    block-row test already decides.
    """
    return Generator.prepare(couplings).cp_report(tol)


def classical_rate_equations(state: HybridState, couplings) -> np.ndarray:
    """Derivatives of the classical event probabilities.

    Equals the block traces of the Liouville right-hand side; the Hamiltonian
    commutator is traceless so only the couplings contribute.  The returned
    derivatives sum to zero.
    """
    gen = Generator.prepare(couplings, state=state)
    if gen.vs is None:
        return np.zeros(state.classical_dim)
    rho = state.blocks
    # gain into alpha from gamma minus loss out of alpha
    rates = np.trace(_sandwich(gen.vs, rho), axis1=1, axis2=2).real
    rates -= np.einsum("axz,azx->a", gen.gain, rho).real
    return rates


def trajectory_rows(traj: Trajectory):
    """Rows (t, p_0..p_n, trace_drift, min_eigenvalue) for CSV export."""
    probs = traj.probabilities()
    drift = traj.trace_drift()
    mins = traj.min_eigenvalues()
    for k in range(len(traj)):
        yield (traj.times[k], *probs[k], drift[k], mins[k])

