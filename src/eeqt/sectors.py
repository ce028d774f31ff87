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
with the same errors and messages.  Every per-record step, the chunks, the
columns and the guards, is a chain of ``map`` and ``itertools`` over plain
lists, so no record costs a Python frame; each chain adds in plain left to
right order, as ``sum`` does on Python 3.11 (3.12 compensates).  A coupling
table is a sequence of couplings, each a sequence of ((gamma, alpha), {m: v})
block entries, the diagonal v of the block at (gamma, alpha) by basis index.

The record eigenvalues come from ``limits.min_eigenvalues``, which checks
the signal too.  Only a block with a coherence component of 3 or more
indices, on a run long enough for the component's Jacobi sweeps to cost
more than importing numpy (``limits.JACOBI_PRICE``), loads numpy, for
``states.block_eigenvalues``; where numpy is not installed, that run is
refused with a ValueError that names the component and the extra.
"""

from __future__ import annotations

import collections
import itertools
import math
from itertools import repeat
from operator import add, ge, mul, sub

from .limits import (FLOAT_BYTES, K_NOT_FINITE, POSITIVITY_TOL, TAYLOR_TERMS, CPReport,
                     PositivityError, TraceDriftError, check_record_memory, min_eigenvalues)

# A sector of c states holds a stack of at most this many c x c record
# propagators, the depth of ``evolution``'s dense stack at N = 8, and at most
# one per c records of the interval, so that building it (c^3 each) never
# costs more than the c^2 per record it serves.
STACK_DEPTH = 256


def _gather(couplings) -> tuple:
    """([(gamma, alpha, {m: v})] of the nonzero entries, {gamma: {m: kappa_gamma[m]}}).

    The kappas are a ``defaultdict`` that lists only the rows gamma holding a
    block.  Raises OverflowError when a kappa is not finite.
    """
    blocks = [(g, a, {m: v for m, v in entries.items() if v})
              for coupling in couplings for (g, a), entries in coupling]
    blocks = [block for block in blocks if block[2]]
    kappa = collections.defaultdict(dict)
    for g, _, entries in blocks:
        for m, v in entries.items():
            kappa[g][m] = kappa[g].get(m, 0.0) - 0.5 * (v * v)
    if not all(math.isfinite(k) for row in kappa.values() for k in row.values()):
        raise OverflowError(K_NOT_FINITE)
    return blocks, kappa


def _check_cp(couplings) -> None:
    """``evolution.Generator.cp_report`` for diagonal blocks; ValueError unless it passes.

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
    gain = {at: max(map(abs, block.values()), default=0.0) for at, block in gain.items()}
    CPReport.from_magnitudes(gain, leak).check()


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
    norm = max(sum(map(abs, col)) for col in zip(*rows))
    s = max(0, math.frexp(tau * norm)[1])
    h = math.ldexp(tau, -s)
    term = [[float(i == j) for j in range(len(rows))] for i in range(len(rows))]
    out = [[0.0] * len(rows) for _ in rows]
    for k in range(1, TAYLOR_TERMS + 1):
        term = [list(map(mul, row, repeat(h / k))) for row in _matmul(rows, term)]
        out = [list(map(add, a, b)) for a, b in zip(out, term)]
        if not _squares(term) > 2.0 ** -106 * _squares(out):
            break
    for _ in range(s):
        out = [list(map(add, a, map(add, b, a))) for a, b in zip(out, _matmul(out, out))]
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
            terms = map(mul, repeat(last[a][0]), heads[0][b])
            for t in range(1, c):
                terms = map(add, terms, map(mul, repeat(last[a][t]), heads[t][b]))
            cols[a][b] += map(add, map(add, terms, heads[a][b]), repeat(last[a][b]))
        j += k
    return cols


def _advance(stack, columns, n: int) -> None:
    """Append to each state's column the n records S_j v + v, j = 1..n, after its last v.

    State a's records are ((S[a][0] v_0 + S[a][1] v_1) + ...) + v_a, one
    C-level ``map`` chain over the stack's columns.  No chain here or in the
    columns starts at 0.0, as ``sum`` does, because 0.0 + x differs from x
    only at x = -0.0, and no record is -0.0: a sum is -0.0 only when every
    term is, each record adds the one before it, and a run starts from the
    nonzero signal entries and 0.0.
    """
    v = [col[-1] for col in columns]
    for row, col, va in zip(stack, columns, v):
        terms = map(mul, row[0], repeat(v[0]))
        for s, x in zip(row[1:], v[1:]):
            terms = map(add, terms, map(mul, s, repeat(x)))
        col += map(add, terms, repeat(va, n))


def _propagate(states, rows, starts, config) -> list:
    """For each start value at state 0, its records on every state: [[list over records]]."""
    c = len(states)
    records = [[[x0]] + [[0.0] for _ in range(c - 1)] for x0 in starts]
    for q, count in config.intervals():
        depth = max(1, min(count // c, STACK_DEPTH))
        stack = _stack(_propagator(rows, q * config.step), depth)
        for columns in records:
            for j in range(0, count, depth):
                _advance(stack, columns, min(depth, count - j))
    return records


def _total(columns) -> list:
    """The record-by-record sum of `columns`, left to right; a lone column is returned itself."""
    total = columns[0]
    for col in columns[1:]:
        total = list(map(add, total, col))
    return total


def sector_columns(couplings, signal: dict, shape: tuple, config) -> list:
    """Columns t, p_0..p_n, trace_drift, min_eigenvalue of the records, as lists.

    `couplings` is a real diagonal coupling table, `signal` the nonzero
    entries {(m, w): value} of a checked quantum signal
    (``limits.signal_entries``), the initial state its product with
    p = (1, 0, ...), and `shape` (n+1, d).  Columns may share one list.
    Raises what ``evolve`` raises: OverflowError when K or a sector is not
    finite, ValueError when the couplings fail the structural CP check or the
    records would need more than MAX_RECORD_BYTES, TraceDriftError at the
    first record whose total trace drifts beyond ``config.trace_tol`` or that
    has an entry that is not finite, and PositivityError at the first record
    with a block eigenvalue below -POSITIVITY_TOL.  A record holds the states
    of every sector and the n+4 columns, FLOAT_BYTES each.
    """
    n1, d = shape
    blocks, kappa = _gather(couplings)
    _check_cp(couplings)
    sectors = {}
    for (m, w), x0 in signal.items():
        sectors.setdefault(_sector(m, w, blocks, kappa), []).append(((m, w), x0))
    held = sum(len(states) * len(members) for (states, _), members in sectors.items()) + n1 + 3
    check_record_memory(config, FLOAT_BYTES * held)
    values = {}  # (m, w) -> {alpha: records}
    for (states, rows), members in sectors.items():
        for (pos, _), records in zip(members, _propagate(states, rows, [x for _, x in members],
                                                         config)):
            values[pos] = dict(zip(states, records))
    times = config.record_times()
    zeros = [0.0] * len(times)
    diagonal = sorted(pos for pos in values if pos[0] == pos[1])
    probs = [_total([values[pos][a] for pos in diagonal if a in values[pos]] or [zeros])
             for a in range(n1)]
    traces = _total(probs)
    drift = list(map(abs, map(sub, traces, repeat(1.0))))
    _check_trace(values, traces, drift, times, config)
    min_eig = min_eigenvalues(values, n1, d, len(times))
    if not min(min_eig) >= -POSITIVITY_TOL:  # also when a NaN comes first and hides the rest
        for k, x in enumerate(min_eig):
            if x < -POSITIVITY_TOL:
                raise PositivityError(k, times[k], x)
    return [times, *probs, drift, min_eig]


def _check_trace(values, traces, drift, times, config) -> None:
    """Raise TraceDriftError at the first record after the first that drifts or is not finite.

    A coherence that is not finite makes the guarded trace NaN by adding it
    times 0, as ``evolution`` weights every entry of a record.  One C-level
    scan passes every record; only a failed one looks for the first.
    """
    off = [cols for pos, by_state in values.items() if pos[0] != pos[1]
           for cols in by_state.values()]
    guard = drift
    if off:
        guard = list(map(abs, map(sub, map(add, traces, map(mul, repeat(0.0), _total(off))),
                                  repeat(1.0))))
    tol = config.trace_tol
    if not all(map(ge, repeat(tol), itertools.islice(guard, 1, None))):  # and not NaN
        r = next(r for r in range(1, len(guard)) if not guard[r] <= tol)
        raise TraceDriftError(guard[r], times[r], tol)
