"""Closed-form detector families: binary, two-state, n-state and filter.

These evaluators solve the classical rate equations of the four detector
families analytically.  They serve both as fast replacements for numeric
integration and as independent oracles against it.

Each family's coupling constants, with their checks, form a value class that
holds no array: ``BinaryConstants``, ``TwoStateConstants``, ``NStateConstants``
and ``FilterConstants``.  Its detector spec, in ``specs``, is a subclass
that adds numpy projectors.  The classical solutions read only the
constants: they take one time t and return their n+1 channel values as
Python floats from ``math.exp``, and their long-time limits are the same
functions at t = inf.
A constant whose square overflows raises OverflowError.  A channel whose
squared constants underflow to a zero rate registers nothing at a finite t:
its r -> 0 limit, weight * gain^2 * t, is 0 when gain^2 is.  At t = inf it
registers weight * gain^2 / (gain^2 + loss^2), taken on the constants scaled
by the larger one, because the true rate is positive.

``import eeqt.detectors`` loads no numpy and compiles no numpy code: the
specs, ``balance_residual`` and ``filter_quantum_marginal`` live in
``specs``, which no command loads, and are read from there on first access
(PEP 562, ``__getattr__``).

It also reads the configs of ``simulate`` and ``efficiency``: each entry of
``FAMILIES`` is the one reader of a family's keys and returns a ``Family``,
and ``read_system`` parses the INI file and makes the checks both share.

Two printed solutions required correction to be consistent with their own
asymptotics and with numeric integration of the unambiguous rate equations:
the registered-probability prefactor of the binary time solution uses the
gain constant squared (k1^2, not k2^2), and the filter quantum output is
rebuilt from the decay structure of its listed special cases.
"""

from __future__ import annotations

import configparser
import functools
import itertools
import math

from . import _Frozen

# The numpy names of ``specs``, given by ``__getattr__`` without being bound here.
_SPECS = ("BinaryDetectorSpec", "FilterSpec", "NStateDetectorSpec", "TwoStateDetectorSpec",
          "balance_residual", "filter_quantum_marginal")


def __getattr__(name):
    """A name of ``specs``, imported on first access and left unbound in this module."""
    if name not in _SPECS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import specs

    return getattr(specs, name)


def _check_finite(*constants) -> None:
    """Raise ValueError unless every coupling constant is finite.

    An infinite constant would turn the zero entries of its coupling block
    into NaN (inf * 0) before the block itself is checked.
    """
    if not all(map(math.isfinite, constants)):
        raise ValueError("coupling constants must be finite")


def _check_rate(k: float) -> None:
    """Raise ValueError unless the common rate k of an n-state detector or filter is usable."""
    if k <= 0:
        raise ValueError("coupling constant k must be positive")
    _check_finite(k)


def _not_orthogonal(a: str, b: str, overlap: float) -> ValueError:
    return ValueError(f"projectors {a} and {b} are not orthogonal: "
                      f"|tr({a} {b})| = {overlap:.3g}")


def check_basis_orthogonal(indices: dict) -> None:
    """``specs._check_orthogonal`` for basis projectors, named -> basis index, without numpy.

    tr(ei ej) is 1 for two projectors on one basis vector and 0 otherwise.
    """
    for (a, i), (b, j) in itertools.combinations(indices.items(), 2):
        if i == j:
            raise _not_orthogonal(a, b, 1.0)


class BinaryConstants(_Frozen):
    """Gain and loss constants k1, k2 of the binary detector."""

    __slots__ = ("k1", "k2")

    def __init__(self, k1: float, k2: float):
        if k1 < 0 or k2 < 0:
            raise ValueError("coupling constants must be non-negative")
        if k1 + k2 == 0:
            raise ValueError("at least one coupling constant must be positive")
        _check_finite(k1, k2)
        self._set(k1=k1, k2=k2)


def _check_weights(a0: float, b0: float) -> None:
    """Raise ValueError unless a0 and b0 are non-negative signal weights of sum at most 1."""
    if a0 < 0 or b0 < 0:
        raise ValueError("signal weights must be non-negative")
    if a0 + b0 > 1 + 1e-12:
        raise ValueError(f"a0 + b0 = {a0 + b0:.12g} exceeds 1")


class SignalDecomposition(_Frozen):
    """Initial signal weights: aligned with the detector projector or not."""

    __slots__ = ("a0", "b0")

    def __init__(self, a0: float, b0: float):
        _check_weights(a0, b0)
        self._set(a0=a0, b0=b0)


def _decay(rate: float, t: float) -> float:
    """exp(-rate t); ValueError if the time is negative.

    An exponent that is inf * 0 gives NaN.
    """
    if t < 0:
        raise ValueError("time must be non-negative")
    return math.exp(-rate * t)


def _underflowed_share(weight: float, gain: float, loss: float, t: float) -> float:
    """weight * gain^2/r * (1 - exp(-r t)) where r = gain^2 + loss^2 underflows to 0.

    At a finite t this is the r -> 0 limit weight * gain^2 * t, which is 0
    because gain^2 is.  At t = inf the true rate is positive, so the share
    gain^2 / r is taken on the constants scaled by the larger one.
    """
    if weight == 0 or t != math.inf:
        return 0.0
    top = max(gain, loss)
    gain, loss = gain / top, loss / top
    return weight * gain * gain / (gain * gain + loss * loss)


def _channel(weight: float, gain: float, loss: float, t: float, name: str) -> float:
    rate = gain ** 2 + loss ** 2
    decay = _decay(rate, t)
    if rate == 0:
        if weight > 0 and gain == loss == 0:
            raise ValueError(f"channel {name} has weight but zero coupling constants")
        return _underflowed_share(weight, gain, loss, t)
    return weight * gain ** 2 / rate * (1.0 - decay)


def binary_trajectory(spec: BinaryConstants, sig: SignalDecomposition, t: float) -> tuple:
    """Probabilities (p0(t), p1(t)) of the binary detector.

    p1(t) = a0 * k1^2/(k1^2 + k2^2) * (1 - exp(-(k1^2 + k2^2) t)) and
    p0(t) = a0 + b0 - p1(t); the orthogonal weight b0 is inert.  At
    t = inf the registered probability is a0 k1^2 / (k1^2 + k2^2).
    A rate that underflows to zero registers nothing at a finite t.
    """
    p1 = _channel(sig.a0, spec.k1, spec.k2, t, "e1")  # BinaryConstants refuses k1 = k2 = 0
    return sig.a0 + sig.b0 - p1, p1


class TwoStateConstants(_Frozen):
    """Constants (k1, k2) of the e2 channel and (n1, n2) of the e3 channel."""

    __slots__ = ("k1", "k2", "n1", "n2")

    def __init__(self, k1: float, k2: float, n1: float, n2: float):
        for k in (k1, k2, n1, n2):
            if k < 0:
                raise ValueError("coupling constants must be non-negative")
        if k1 + k2 == 0 and n1 + n2 == 0:
            raise ValueError("at least one channel must have a positive constant")
        _check_finite(k1, k2, n1, n2)
        self._set(k1=k1, k2=k2, n1=n1, n2=n2)


def two_state_trajectory(spec: TwoStateConstants, a0: float, b0: float, t: float) -> tuple:
    """Probabilities (p0(t), p1(t), p2(t)) of the two-state detector.

    a0 is the initial weight on e2, b0 on e3; remaining weight is inert.  At
    t = inf the total efficiency p1 + p2 is one exactly when k2 = n2 = 0 and
    a0 + b0 = 1.
    """
    _check_weights(a0, b0)
    p1 = _channel(a0, spec.k1, spec.k2, t, "e2")
    p2 = _channel(b0, spec.n1, spec.n2, t, "e3")
    return 1.0 - p1 - p2, p1, p2


class NStateConstants(_Frozen):
    """Common rate k and number of channels of the n-state detector."""

    __slots__ = ("k", "n_channels")

    def __init__(self, k: float, n_channels: int):
        _check_rate(k)
        self._set(k=k, n_channels=n_channels)


def n_state_trajectory(spec: NStateConstants, j: int, t: float) -> tuple:
    """Probabilities (p0(t), ..., pn(t)) for a signal aligned with channel j.

    p0 = exp(-k t), p_j = 1 - exp(-k t), all other channels stay at zero;
    the registered probability does not depend on the number of channels.
    """
    if not 0 <= j < spec.n_channels:
        raise ValueError(f"channel index {j} out of range")
    decay = _decay(spec.k, t)
    p = [0.0] * (spec.n_channels + 1)
    p[0] = decay
    p[j + 1] = 1.0 - decay
    return tuple(p)


class FilterConstants(_Frozen):
    """Rate k of the nondemolition filter."""

    __slots__ = ("k",)

    def __init__(self, k: float):
        _check_rate(k)
        self._set(k=k)


def filter_quantum_output(diagonal_weights, offdiagonal_weights, spec: FilterConstants,
                          t: float):
    """Quantum output of the filter in the projector-basis description.

    ``diagonal_weights`` maps channel index i (0 is the filter channel) to
    the weight on e_i; ``offdiagonal_weights`` maps pairs (i, j), i != j, to
    coherence weights.  Diagonal weights pass through unchanged; a coherence
    touching the filter channel is scaled by exp(-k t / 2), all others pass.
    """
    decay = _decay(0.5 * spec.k, t)
    out_off = {}
    for (i, j), w in dict(offdiagonal_weights).items():
        if i == j:
            raise ValueError("off-diagonal weights require i != j")
        out_off[(i, j)] = w * (decay if 0 in (i, j) else 1.0)
    return dict(diagonal_weights), out_off


def filter_classical_output(p0: float, p1: float, q1: float, k: float, t: float) -> tuple:
    """Classical output (p0(t), p1(t)) of the filter.

    q1 = tr(e1 rho_q) is the aligned weight of the quantum input; the
    imbalance (p0 - p1) q1 relaxes at rate 2k and the sum is conserved.
    """
    decay = _decay(2.0 * k, t)
    if not (0 <= q1 <= 1 + 1e-12):
        raise ValueError(f"q1 = {q1:.12g} outside [0, 1]")
    if p0 < -1e-12 or p1 < -1e-12 or abs(p0 + p1 - 1.0) > 1e-9:
        raise ValueError("p0, p1 must be a probability pair summing to 1")
    out0 = 0.5 * (p1 - p0) * q1 + p0 + 0.5 * (p0 - p1) * q1 * decay
    out1 = 0.5 * (p0 - p1) * q1 + p1 + 0.5 * (p1 - p0) * q1 * decay
    return out0, out1


class _Config(configparser.ConfigParser):
    """A parsed config file whose values are read with a cast and a default."""

    def value(self, section, key, cast=float, default=None):
        if not self.has_option(section, key):
            if default is None:
                raise ValueError(f"missing key '{key}' in section [{section}]")
            return default
        try:
            return cast(self.get(section, key))
        except (ValueError, configparser.Error) as exc:
            raise ValueError(f"bad value for [{section}] {key}: {exc}") from exc


class Family(_Frozen):
    """What a detector family reads and checks in a config, without numpy.

    The quantum signal is ``weights`` on the diagonal (basis index ->
    weight) plus ``coherences``, the ``offdiag_i_j`` entries as ((i, j),
    value) pairs in config order.  ``couplings`` is the coupling table that
    ``sectors.sector_columns`` reads: one tuple of ((gamma, alpha), {m: v})
    block entries per coupling, each block the diagonal matrix with entries
    v at basis indices m.  ``closed_form`` returns the map from a time t to
    (p_0, ..., p_n) on the family's constants; only ``efficiency`` calls
    it, after every check ``simulate`` makes, so its own checks may reject a
    config that integrates fine.
    ``asymptotic`` formats those values at t = inf for the metadata.  Either
    is None when the family has none.
    """

    __slots__ = ("classical_dim", "weights", "coherences", "couplings", "closed_form",
                 "asymptotic")

    def __init__(self, classical_dim: int, weights: dict, coherences: tuple, couplings: tuple,
                 closed_form=None, asymptotic=None):
        self._set(classical_dim=classical_dim, weights=weights, coherences=coherences,
                  couplings=couplings, closed_form=closed_form, asymptotic=asymptotic)


def _binary(config, dim):
    from .limits import check_basis_index

    get = config.value
    idx = get("detector", "projector", int, 0)
    k1, k2 = get("detector", "k1"), get("detector", "k2")
    check_basis_index(dim, idx)
    constants = BinaryConstants(k1, k2)
    a0 = get("signal", "aligned", default=1.0)
    b0 = get("signal", "orthogonal", default=0.0)
    if b0 > 0 and dim < 2:
        raise ValueError("orthogonal weight needs quantum dim >= 2")
    if 1.0 - a0 - b0 > 1e-12:
        raise ValueError("binary signal weights must sum to 1")
    weights = {idx: a0, **({(idx + 1) % dim: b0} if b0 > 0 else {})}
    return Family(2, weights, (), ((((0, 1), {idx: k1}), ((1, 0), {idx: k2})),),
                  lambda: functools.partial(binary_trajectory, constants,
                                            SignalDecomposition(a0, b0)),
                  lambda p: f"p_0={p[0]:.12g} p_1={p[1]:.12g}")


def _two_state(config, dim):
    from .limits import check_basis_index

    get = config.value
    k = [get("detector", key) for key in ("k1", "k2", "n1", "n2")]
    i2 = get("detector", "projector2", int, 0)
    i3 = get("detector", "projector3", int, 1)
    check_basis_index(dim, i2)
    check_basis_index(dim, i3)
    constants = TwoStateConstants(*k)
    check_basis_orthogonal({"e2": i2, "e3": i3})
    a0 = get("signal", "aligned", default=1.0)
    b0 = get("signal", "orthogonal", default=0.0)
    weights = {i2: a0, i3: b0}
    rest = 1.0 - a0 - b0
    if rest > 1e-12:
        # the inert weight goes on the highest basis index neither projector uses
        free = [i for i in range(dim) if i not in (i2, i3)]
        if not free:
            raise ValueError("inert weight needs quantum dim >= 3")
        weights[free[-1]] = rest
    couplings = ((((0, 1), {i2: k[0]}), ((1, 0), {i2: k[1]})),
                 (((0, 2), {i3: k[2]}), ((2, 0), {i3: k[3]})))
    return Family(3, weights, (), couplings,
                  lambda: functools.partial(two_state_trajectory, constants, a0, b0),
                  lambda p: f"p_1={p[1]:.12g} p_2={p[2]:.12g} efficiency={p[1] + p[2]:.12g}")


def _n_state(config, dim):
    get = config.value
    channels = get("detector", "channels", int)
    if not 1 <= channels <= dim:
        raise ValueError(f"channels = {channels} must lie in 1..{dim}, the quantum dim")
    constants = NStateConstants(get("detector", "k"), channels)
    aligned = get("detector", "aligned_channel", int, 0)
    if not 0 <= aligned < channels:
        raise ValueError("aligned_channel out of range")
    root_k = math.sqrt(constants.k)
    return Family(channels + 1, {aligned: 1.0}, (),
                  tuple((((0, i + 1), {i: root_k}),) for i in range(channels)),
                  lambda: functools.partial(n_state_trajectory, constants, aligned),
                  lambda p: f"p_{aligned + 1}={p[aligned + 1]:.12g}")


def _weighted_signal(config, dim, default_weights=None):
    """Diagonal ``weights``, by basis index, and the ``offdiag_i_j`` coherences of [signal]."""
    from .limits import check_offdiagonal_index

    weights = config.value("signal", "weights", lambda raw: [float(v) for v in raw.split(",")],
                           default_weights)
    if len(weights) > dim:
        raise ValueError(f"{len(weights)} signal weights for quantum dim {dim}")
    coherences = []
    for key in config.options("signal") if config.has_section("signal") else ():
        if key.startswith("offdiag_"):
            try:
                _, i, j = key.split("_")
                i, j = int(i), int(j)
                check_offdiagonal_index(dim, i, j)
            except ValueError as exc:
                raise ValueError(f"bad off-diagonal key '{key}': {exc}") from exc
            coherences.append(((i, j), config.value("signal", key)))
    return dict(enumerate(weights)), tuple(coherences)


def _filter(config, dim):
    from .limits import check_basis_index

    k = config.value("detector", "k")
    projector = config.value("detector", "projector", int, 0)
    check_basis_index(dim, projector)
    FilterConstants(k)  # the checks of the rate
    weights, coherences = _weighted_signal(config, dim)
    q1 = weights.get(projector, 0.0)  # tr(e1 rho_q), the weight on the detector projector
    root_k = math.sqrt(k)
    return Family(2, weights, coherences,
                  ((((0, 1), {projector: root_k}), ((1, 0), {projector: root_k})),),
                  lambda: functools.partial(filter_classical_output, 1.0, 0.0, q1, k))


def _none(config, dim):
    classical_dim = config.value("detector", "classical_dim", int, 2)
    if classical_dim < 1:
        raise ValueError("classical_dim must be at least 1")
    return Family(classical_dim, *_weighted_signal(config, dim, [1.0]), ())


# Detector family -> reader(config, quantum dim) -> Family.  A family's
# config keys are read in its reader and nowhere else.
FAMILIES = {
    "binary": _binary,
    "two_state": _two_state,
    "n_state": _n_state,
    "filter": _filter,
    "none": _none,
}


def _read_family(config):
    """Detector family name, quantum dim and Family of a config, without numpy."""
    family = config.value("detector", "family", str)
    if family not in FAMILIES:
        raise ValueError(f"unknown detector family '{family}'")
    dim = config.value("detector", "dim", int, 2)
    if dim < 1:
        raise ValueError("dim must be at least 1")
    return family, dim, FAMILIES[family](config, dim)


def _evolution_config(config):
    from .limits import EvolutionConfig

    return EvolutionConfig(
        step=config.value("evolution", "step", default=0.005),
        duration=config.value("evolution", "duration", default=10.0),
        record_every=config.value("evolution", "record_every", int, 10),
    )


def read_system(path):
    """Raw text, family name, quantum dim, Family and EvolutionConfig of a config file.

    It makes the checks that ``simulate`` and ``efficiency`` both make, in
    the same order; the caller digests the raw text for the metadata.
    """
    from .limits import check_signal

    config = _Config()
    try:
        with open(path) as fh:
            raw = fh.read()
        config.read_string(raw, source=path)
    except (OSError, configparser.Error) as exc:
        raise ValueError(f"cannot read config: {exc}") from exc
    family, dim, spec = _read_family(config)
    check_signal(dim, spec.classical_dim, spec.weights, spec.coherences)
    return raw, family, dim, spec, _evolution_config(config)
