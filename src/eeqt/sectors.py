"""Projector generators propagated sector by sector, on the standard library.

Every detector family of the CLI couples through basis projectors and has no
Hamiltonian, so each block of K and of every coupling is a real diagonal
matrix.  Entry (m, w) of block alpha of L rho is then

    (kappa_alpha[m] + kappa_alpha[w]) rho_alpha[m, w]
        + sum over the blocks v at (gamma, alpha) of v[m] v[w] rho_gamma[m, w],

with kappa_gamma = -1/2 sum v^2 over the blocks in row gamma, so L splits
into one small system per entry (m, w): a sector.  Only the entries where
the signal is nonzero ever leave zero, each on the classical states
reachable from 0, the initial one, through blocks with v[m] v[w] != 0.
These are the classical rate equations that the closed forms of
``detectors`` solve by hand; for symmetry reductions of Lindblad generators
in general see Buca and Prosen, New J. Phys. 14, 073007 (2012).

``sector_columns`` propagates each sector as ``evolution`` propagates a whole
generator: the record propagator e^{tau M} - I is a truncated Taylor sum at
tau / 2^s squared s times in the I + A form, and each chunk of records is
read off a stack S_j = e^{j tau M} - I built by doubling, so rounding does
not build up over the records.  It makes the checks that ``evolve`` makes,
with the same errors and messages.  A coupling table is a sequence of
couplings, each a sequence of ((gamma, alpha), {m: v}) block entries, the
diagonal v of the block at (gamma, alpha) by basis index.

Only a block with a coherence component of 3 or more indices, on a run long
enough for the component's Jacobi sweeps to cost more than importing numpy,
loads numpy, for ``states.block_eigenvalues``.
"""

from __future__ import annotations

import itertools
import math
from array import array
from operator import mul

from .limits import (BLOCK_ZERO_TOL, POSITIVITY_TOL, TAYLOR_TERMS, PositivityError,
                     TraceDriftError, check_record_memory)

# A sector of c states holds a stack of at most this many c x c record
# propagators, the depth of ``evolution``'s dense stack at N = 8, and at most
# one per c records of the interval, so that building it (c^3 each) never
# costs more than the c^2 per record it serves.
STACK_DEPTH = 256
# Records times the sum of c^3 over the coherence components of c >= 3
# indices, above which their eigenvalues go to numpy.  Cyclic Jacobi takes
# 1.3-1.9 us per c^3 per record in CPython 3.11 on 2 vCPUs (35 us for a 3 x 3
# block, 1.4 ms for 9 x 9), and importing numpy and eeqt.states adds 0.1-0.2 s
# to a process: the price is 90 000 x 1.5 us, about 0.13 s of Jacobi.
JACOBI_PRICE = 90_000
# Cyclic Jacobi stops after this many sweeps; a symmetric matrix of the
# sizes it prices converges in under 10.
JACOBI_SWEEPS = 50


def _gather(couplings, n1: int) -> tuple:
    """([(gamma, alpha, {m: v})] of the nonzero entries, [{m: kappa_gamma[m]}] by gamma).

    Raises OverflowError when a kappa is not finite.
    """
    blocks = [(g, a, {m: v for m, v in entries.items() if v})
              for coupling in couplings for (g, a), entries in coupling]
    blocks = [block for block in blocks if block[2]]
    kappa = [{} for _ in range(n1)]
    for g, _, entries in blocks:
        for m, v in entries.items():
            kappa[g][m] = kappa[g].get(m, 0.0) - 0.5 * (v * v)
    if not all(math.isfinite(k) for row in kappa for k in row.values()):
        raise OverflowError("K = -iH - G/2 is not finite: a coupling entry is too large")
    return blocks, kappa


def _check_cp(couplings) -> None:
    """``evolution.Generator.cp_report`` for diagonal blocks; ValueError with its summary.

    Two blocks of one coupling in one column and different rows give sum V V*
    an off-diagonal block, the sum of their elementwise products; two in one
    row and different columns leak into the sandwich, by the product of their
    Frobenius norms.
    """
    gain, leak = {}, {}
    for i, coupling in enumerate(couplings):
        listed = [(g, a, e) for (g, a), e in coupling if any(e.values())]
        for (g, a, e), (h, b, f) in itertools.product(listed, repeat=2):
            if a == b and g != h:
                block = gain.setdefault((g, h), {})
                for m in e.keys() & f.keys():
                    block[m] = block.get(m, 0.0) + e[m] * f[m]
            elif g == h and a != b:
                at = (i, a, b)
                leak[at] = leak.get(at, 0.0) + math.hypot(*e.values()) * math.hypot(*f.values())
    violations = [("gain", None, *at, max(map(abs, block.values()), default=0.0))
                  for at, block in sorted(gain.items())]
    violations += [("sandwich", *at, mag) for at, mag in sorted(leak.items())]
    violations = [v for v in violations if v[-1] > BLOCK_ZERO_TOL]
    if violations:
        worst = max(violations, key=lambda v: v[-1])
        raise ValueError(f"coupling operators fail CP conditions: {len(violations)} violating "
                         f"blocks; worst {worst[0]} block ({worst[2]}, {worst[3]}) magnitude "
                         f"{worst[4]:.3g}")


def _sector(m: int, w: int, blocks, kappa) -> tuple:
    """(states, rows): the classical states that sector (m, w) reaches from 0, and its matrix.

    Raises OverflowError when an entry of the matrix is not finite.
    """
    edges = [(g, a, e.get(m, 0.0) * e.get(w, 0.0)) for g, a, e in blocks]
    edges = [edge for edge in edges if edge[2]]
    states = [0]
    for g in states:  # grows while it is walked
        for h, a, _ in edges:
            if h == g and a not in states:
                states.append(a)
    at = {a: i for i, a in enumerate(states)}
    rows = [[0.0] * len(states) for _ in states]
    for i, a in enumerate(states):
        rows[i][i] = kappa[a].get(m, 0.0) + kappa[a].get(w, 0.0)
    for g, a, x in edges:
        if g in at:
            rows[at[a]][at[g]] += x
    if not all(map(math.isfinite, itertools.chain.from_iterable(rows))):
        raise OverflowError(f"sector ({m}, {w}) of L is not finite: a coupling entry is too large")
    return tuple(states), tuple(map(tuple, rows))


def _matmul(x, y) -> list:
    columns = list(zip(*y))
    return [[sum(map(mul, row, col)) for col in columns] for row in x]


def _propagator(rows, tau: float) -> list:
    """e^{tau M} - I: a Taylor sum at tau / 2^s, where ||tau M / 2^s||_1 < 1, squared s times.

    The sum stops at its first term whose squared Frobenius norm is below
    2^-106 of the sum's, or is not finite, and after TAYLOR_TERMS terms at
    most.  The squarings keep the I + A form, (I + A)^2 - I = 2A + A A.
    """
    norm = max(sum(abs(row[j]) for row in rows) for j in range(len(rows)))
    s = max(0, math.frexp(tau * norm)[1])
    h = math.ldexp(tau, -s)
    term = [[float(i == j) for j in range(len(rows))] for i in range(len(rows))]
    out = [[0.0] * len(rows) for _ in rows]
    for k in range(1, TAYLOR_TERMS + 1):
        term = [[x * (h / k) for x in row] for row in _matmul(rows, term)]
        out = [[x + y for x, y in zip(a, b)] for a, b in zip(out, term)]
        if not _squares(term) > 2.0 ** -106 * _squares(out):
            break
    for _ in range(s):
        out = [[x + (y + x) for x, y in zip(a, b)] for a, b in zip(out, _matmul(out, out))]
    return out


def _squares(x) -> float:
    return sum(v * v for row in x for v in row)


def _stack(p, depth: int) -> list:
    """S_j = (I + p)^j - I, j = 1..depth, by doubling, as columns: [a][b] lists S_j[a, b]."""
    c = len(p)
    cols = [[[x] for x in row] for row in p]
    j = 1
    while j < depth:
        k = min(j, depth - j)
        last = [[col[j - 1] for col in row] for row in cols]
        heads = [[col[:k] for col in row] for row in cols]
        for a, b in itertools.product(range(c), repeat=2):
            # S_(j+i) = S_j S_i + S_i + S_j for i = 1..k
            products = zip(*(heads[t][b] for t in range(c)))
            cols[a][b] += [sum(map(mul, last[a], ts)) + s + last[a][b]
                           for ts, s in zip(products, heads[a][b])]
        j += k
    return cols


def _advance(stack, v, n: int) -> list:
    """The n records S_j v + v, j = 1..n, after the record v, as one list per state."""
    out = []
    for row, va in zip(stack, v):
        terms = [[s * x for s in col[:n]] for col, x in zip(row, v)]
        out.append([sum(t) + va for t in zip(*terms)])
    return out


def _propagate(states, rows, starts, config) -> list:
    """For each start value at state 0, its records on every state: [[list over records]]."""
    c = len(states)
    records = [[[x0]] + [[0.0] for _ in range(c - 1)] for x0 in starts]
    for q, count in config.intervals():
        depth = max(1, min(count // c, STACK_DEPTH))
        stack = _stack(_propagator(rows, q * config.step), depth)
        for columns in records:
            for j in range(0, count, depth):
                chunk = _advance(stack, [col[-1] for col in columns], min(depth, count - j))
                for col, new in zip(columns, chunk):
                    col += new
    return records


def sector_columns(couplings, signal: dict, shape: tuple, config) -> list:
    """Columns t, p_0..p_n, trace_drift, min_eigenvalue of the records, as ``array('d')``.

    `couplings` is a real diagonal coupling table, `signal` the nonzero
    entries {(m, w): value} of a checked quantum signal
    (``limits.signal_entries``), the initial state its product with
    p = (1, 0, ...), and `shape` (n+1, d).  Raises what
    ``evolve`` raises: ValueError when the records would need more than
    MAX_RECORD_BYTES or the couplings fail the structural CP check,
    OverflowError when K or a sector is not finite, TraceDriftError at the
    first record whose total trace drifts beyond ``config.trace_tol`` or that
    has an entry that is not finite, and PositivityError at the first record
    with a block eigenvalue below -POSITIVITY_TOL.
    """
    n1, d = shape
    check_record_memory(config, (n1, d, d))
    blocks, kappa = _gather(couplings, n1)
    _check_cp(couplings)
    sectors = {}
    for (m, w), x0 in signal.items():
        sectors.setdefault(_sector(m, w, blocks, kappa), []).append(((m, w), x0))
    values = {}  # (m, w) -> {alpha: records}
    for (states, rows), members in sectors.items():
        for (pos, _), records in zip(members, _propagate(states, rows, [x for _, x in members],
                                                         config)):
            values[pos] = dict(zip(states, records))
    times = config.record_times()
    zeros = [0.0] * len(times)
    diagonal = sorted(pos for pos in values if pos[0] == pos[1])
    probs = []
    for alpha in range(n1):
        cols = [values[pos][alpha] for pos in diagonal if alpha in values[pos]]
        probs.append([sum(t) for t in zip(*cols)] if cols else zeros)
    traces = [sum(t) for t in zip(*probs)]
    drift = [abs(x - 1.0) for x in traces]
    _check_trace(values, traces, drift, times, config)
    min_eig = _min_eigenvalues(values, n1, d, len(times))
    k = next((r for r, x in enumerate(min_eig) if x < -POSITIVITY_TOL), None)
    if k is not None:
        raise PositivityError(f"record {k} at t={times[k]:g} has block eigenvalue "
                              f"{min_eig[k]:.3g}, below -{POSITIVITY_TOL:g}; the propagation "
                              "lost accuracy at these rates")
    return [array("d", col) for col in (times, *probs, drift, min_eig)]


def _check_trace(values, traces, drift, times, config) -> None:
    """Raise TraceDriftError at the first record after the first that drifts or is not finite.

    A coherence that is not finite makes the guarded trace NaN by adding it
    times 0, as ``evolution`` weights every entry of a record.
    """
    off = [cols for pos, by_state in values.items() if pos[0] != pos[1]
           for cols in by_state.values()]
    guard = drift
    if off:
        guard = [abs(x + 0.0 * sum(t) - 1.0) for x, *t in zip(traces, *off)]
    r = next((r for r in range(1, len(guard)) if not guard[r] <= config.trace_tol), None)
    if r is not None:
        raise TraceDriftError(f"trace drift {guard[r]:.3g} at t={times[r]:g} exceeds "
                              f"{config.trace_tol:.3g}; the propagation lost accuracy at "
                              "these rates")


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


def _min_eigenvalues(values, n1: int, d: int, n_records: int) -> list:
    """The smallest eigenvalue of the Hermitian part of any block, per record.

    The coherences of a block fall into components of basis indices that
    stay fixed over the run.  A component of one index is its own entry, one
    of two takes the 2 x 2 closed form, a larger one cyclic Jacobi, or
    ``states.block_eigenvalues`` when Jacobi would cost more than JACOBI_PRICE.
    An index with no entry in a block gives it the eigenvalue 0.
    """
    zeros = [0.0] * n_records
    columns, large = [], []
    for alpha in range(n1):
        at = {pos: by_state[alpha] for pos, by_state in values.items() if alpha in by_state}
        indices = {i for pos in at for i in pos}
        if len(indices) < d:
            columns.append(zeros)
        for comp in _components(indices, [pos for pos in at if pos[0] != pos[1]]):
            if len(comp) == 1:
                columns.append(at[comp[0], comp[0]])
            elif len(comp) == 2:
                m, w = comp
                a, c = at.get((m, m), zeros), at.get((w, w), zeros)
                b = map(lambda x, y: 0.5 * (x + y), at.get((m, w), zeros), at.get((w, m), zeros))
                columns.append([0.5 * (x + z) - math.hypot(0.5 * (x - z), y)
                                for x, y, z in zip(a, b, c)])
            else:
                large.append([[at.get((m, w), zeros) for w in comp] for m in comp])
    if n_records * sum(len(comp) ** 3 for comp in large) > JACOBI_PRICE:
        columns += _lapack_minima(large)
    else:
        for comp in large:
            columns.append([_jacobi_min([[0.5 * (comp[i][j][r] + comp[j][i][r])
                                          for j in range(len(comp))] for i in range(len(comp))])
                            for r in range(n_records)])
    return [min(t) for t in zip(*columns)]


def _lapack_minima(large) -> list:
    """The smallest eigenvalue per record of each component, by ``states.block_eigenvalues``."""
    import numpy as np

    from .states import block_eigenvalues

    return [block_eigenvalues(np.array(comp).transpose(2, 0, 1))[:, 0].tolist()
            for comp in large]


def _jacobi_min(a) -> float:
    """The smallest eigenvalue of the real symmetric matrix `a` (changed in place), by cyclic
    Jacobi rotations until the off-diagonal part is below 2^-53 of the whole."""
    c = len(a)
    pairs = list(itertools.combinations(range(c), 2))
    for _ in range(JACOBI_SWEEPS):
        if not sum(a[p][q] * a[p][q] for p, q in pairs) > 2.0 ** -106 * _squares(a):
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
    return min(a[i][i] for i in range(c))
