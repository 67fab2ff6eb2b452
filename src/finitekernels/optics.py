"""Two-photon linear-optical circuit that evaluates cosine-power kernels.

Each photon lives in a 4-dimensional space spanned by polarization (H, V)
and rail (T, B), ordered ``(HT, HB, VB, VT)``.  A photon entering as H in
the bottom rail is routed through a splitter plate, a beam divider that lifts
V light to the top rail, and one wave plate per rail, producing the cubic
binomial feature state

    c^3 |HT> + sqrt(3) s c^2 |HB> + sqrt(3) c s^2 |VB> + s^3 |VT>,

with c = cos(x), s = sin(x).  Every element is an exact rotation, so the
composed circuit is unitary and the post-selected two-photon amplitude gives
the kernel cos^6 per input dimension.

Shot noise is modeled by binomial coincidence counting.  Every measurement
draws from its own counter-based Philox4x64 stream (Salmon et al., SC 2011):
a key of up to 6 entries k0..k5 in [0, 2**32 - 1] selects Philox key
(seed, len(key)) and counter (0, k0 | k1 << 32, k2 | k3 << 32, k4 | k5 << 32),
missing entries 0, so sampled Gram matrices do not depend on evaluation
order.  ``sample_kernel`` measures one value; ``sample_kernels`` a batch bit
for bit equal to it, moving one generator from counter to counter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import DataPoint, _is_int

_HT, _HB, _VB, _VT = range(4)

UNITARY_TOL = 1e-12


def is_unitary(matrix: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    m = np.asarray(matrix)
    eye = np.eye(m.shape[0])
    return bool(np.max(np.abs(m.conj().T @ m - eye)) < tol)


def plate_element(mu: float, nu: float, target: str) -> np.ndarray:
    """Wave-plate rotation on one rail's polarization subspace, identity elsewhere.

    ``target="T"`` rotates V in the top rail onto (mu |HT> + nu |VT>) / h;
    ``target="B"`` rotates H in the bottom rail onto (mu |HB> + nu |VB>) / h,
    with h = sqrt(mu^2 + nu^2).  The stated plate parameters may carry
    prefactors up to sqrt(2) in norm (mu^2 + nu^2 <= 2); the internal
    normalization by h makes each plate an exact rotation, so composed maps
    stay trace-preserving on the post-selected subspace.
    """
    h_sq = mu * mu + nu * nu
    if not math.isfinite(h_sq) or h_sq <= 0.0:
        raise ValueError("plate parameters must not both vanish")
    if h_sq > 2.0 + 1e-9:
        raise ValueError("plate parameters must satisfy mu^2 + nu^2 <= 2")
    h = math.sqrt(h_sq)
    m, n = mu / h, nu / h
    u = np.eye(4)
    if target == "T":
        # columns: image of HT, image of VT
        u[_HT, _HT] = n
        u[_HT, _VT] = m
        u[_VT, _HT] = -m
        u[_VT, _VT] = n
    elif target == "B":
        u[_HB, _HB] = m
        u[_VB, _HB] = n
        u[_HB, _VB] = -n
        u[_VB, _VB] = m
    else:
        raise ValueError("target must be 'T' or 'B'")
    return u


def beam_divider() -> np.ndarray:
    """Routes V polarization from the bottom rail to the top rail (VB <-> VT)."""
    u = np.eye(4)
    u[[_VB, _VT]] = u[[_VT, _VB]]
    return u


def feature_plate_settings(coord: float) -> tuple[float, float, float, float]:
    """Plate parameters (mu_T, nu_T, mu_B, nu_B) realizing the cubic feature state.

    mu_T = sqrt(2) c^3, nu_T = sqrt(2) s^3, mu_B = sqrt(6) c^2 s,
    nu_B = sqrt(6) c s^2; the four squares always sum to exactly 2.
    """
    c, s = math.cos(coord), math.sin(coord)
    return (
        math.sqrt(2.0) * c**3,
        math.sqrt(2.0) * s**3,
        math.sqrt(6.0) * c**2 * s,
        math.sqrt(6.0) * c * s**2,
    )


def _single_photon_unitary(coord: float, power: int) -> np.ndarray:
    if power == 1:
        # single-rail reduction: polarization rotation |H> -> c|H> + s|V>
        c, s = math.cos(coord), math.sin(coord)
        return np.array([[c, -s], [s, c]])
    mu_t, nu_t, mu_b, nu_b = feature_plate_settings(coord)
    h_b = math.hypot(mu_b, nu_b)
    h_t = math.hypot(mu_t, nu_t)
    # the splitter feeds each rail the weight its plate would post-select,
    # folding the stated sqrt(2)/sqrt(6) prefactors into one exact rotation
    u = plate_element(h_b, h_t, "B")
    u = beam_divider() @ u
    if h_t > 1e-15:
        u = plate_element(mu_t, nu_t, "T") @ u
    if h_b > 1e-15:
        u = plate_element(mu_b, nu_b, "B") @ u
    return u


def input_state(dimension: int, power: int = 3) -> np.ndarray:
    """Canonical circuit input: each photon H-polarized in the bottom rail."""
    if not _is_int(dimension) or dimension < 1:
        raise ValueError("dimension must be a positive integer")
    if not _is_int(power) or power not in (1, 3):
        raise ValueError("the optical circuit realizes powers 1 and 3 only")
    single = np.zeros(2 if power == 1 else 4)
    single[0 if power == 1 else _HB] = 1.0
    state = np.ones(1)
    for _ in range(dimension):
        state = np.kron(state, single)
    return state


def build_feature_unitary(x, power: int = 3) -> np.ndarray:
    """Composed circuit unitary for a point with up to two coordinates.

    One photon per coordinate; the full matrix is the tensor product of the
    per-photon circuits (4^D-dimensional for the cubic encoding, 2^D for the
    power-1 reduction).  Applied to :func:`input_state` it produces the
    binomial feature state of each photon exactly.
    """
    if not _is_int(power) or power not in (1, 3):
        raise ValueError("the optical circuit realizes powers 1 and 3 only")
    coords = np.atleast_1d(np.asarray(x, dtype=float))
    if coords.ndim != 1 or not 1 <= coords.size <= 2:
        raise ValueError("the circuit hosts one or two photons")
    full = np.ones((1, 1))
    for coord in coords:
        full = np.kron(full, _single_photon_unitary(float(coord), power))
    return full


def _circuit_amplitude(x, xp, power: int) -> complex:
    """Post-selected two-photon amplitude <in| U(x')^T U(x) |in>."""
    ua = build_feature_unitary(x, power)
    ub = build_feature_unitary(xp, power)
    vin = input_state(np.atleast_1d(np.asarray(x, dtype=float)).size, power)
    return complex(vin @ (ub.conj().T @ ua @ vin))


def kernel_circuit(x, xp, power: int = 3) -> float:
    """Post-selected two-photon kernel |<in| U(x')^T U(x) |in>|^2.

    Equals the closed-form cos^(2*power) product over coordinates.
    """
    return min(1.0, abs(_circuit_amplitude(x, xp, power)) ** 2)


def phase_interference_amplitude(y: float, yp: float) -> complex:
    """Diagonal-basis interference of the two post-selected H photons.

    The pre-selection phase e^{2iy} and post-selection phase e^{-2iy'} leave
    a relative phase between the upper and lower photons; comparing them in
    the diagonal polarization basis yields the amplitude (1 + e^{2i(y-y')})/2,
    whose squared modulus is cos^2(y - y').
    """
    return 0.5 * (1.0 + np.exp(2.0j * (y - yp)))


def kernel_circuit_phase(x, xp, power: int = 3) -> float:
    """Circuit kernel with encoding-phase stages on every photon after the first.

    Accepts DataPoints carrying phases (reference phase fixed at 0); returns
    kernel_circuit(x, xp) times cos^2 of each phase difference.
    """
    if not isinstance(x, DataPoint) or not isinstance(xp, DataPoint):
        raise ValueError("kernel_circuit_phase needs DataPoint arguments")
    if x.phases is None or xp.phases is None:
        raise ValueError("kernel_circuit_phase needs phases on both points")
    if x.phases.shape != xp.phases.shape:
        raise ValueError("points must have the same dimension")
    base_amp = _circuit_amplitude(x.coords, xp.coords, power)
    for y, yp_val in zip(x.phases[1:], xp.phases[1:]):
        base_amp *= phase_interference_amplitude(float(y), float(yp_val))
    return min(1.0, abs(base_amp) ** 2)


# ---------- shot noise ----------


@dataclass(frozen=True)
class ShotNoiseConfig:
    """Coincidence-counting noise model of one kernel measurement.

    ``fidelity`` blends the true kernel with a flat background: the success
    probability per event is f * kappa + (1 - f) * background.
    """

    events_per_point: int = 2500
    fidelity: float = 0.98
    seed: int = 0
    background: float = 0.5

    def __post_init__(self) -> None:
        if not _is_int(self.events_per_point) or self.events_per_point < 1:
            raise ValueError("events_per_point must be a positive integer")
        if not (0.0 < self.fidelity <= 1.0):
            raise ValueError("fidelity must lie in (0, 1]")
        # Philox would take a 64-bit seed; the 32-bit bound keeps the accepted CLI and INI seeds
        if not _is_int(self.seed) or not 0 <= self.seed <= _MASK32:
            raise ValueError("seed must be an integer in [0, 2**32 - 1]")
        if not (0.0 <= self.background <= 1.0):
            raise ValueError("background must lie in [0, 1]")
        for name, kind in (("events_per_point", int), ("fidelity", float), ("seed", int),
                           ("background", float)):
            object.__setattr__(self, name, kind(getattr(self, name)))


_MASK32 = (1 << 32) - 1
# three 64-bit Philox counter words, two 32-bit key entries each
_KEY_WIDTH = 6
# keys turned into Python counters per pass; bounds the Python ints alive at once
_SAMPLE_BLOCK = 1024


def _check_stream_keys(keys: np.ndarray) -> None:
    if keys.shape[-1] > _KEY_WIDTH:
        raise ValueError(f"a stream key holds at most {_KEY_WIDTH} entries")
    # a wider entry would spill into its neighbour's half of a counter word
    if keys.size and (keys.dtype.kind not in "iu" or keys.min() < 0 or keys.max() > _MASK32):
        raise ValueError("stream key entries must be integers in [0, 2**32 - 1]")


def _counters(keys: np.ndarray) -> np.ndarray:
    """Philox counters of key rows; word 0 is the running block counter."""
    packed = np.zeros((keys.shape[0], _KEY_WIDTH), dtype=np.uint64)
    packed[:, : keys.shape[1]] = keys
    counters = np.zeros((keys.shape[0], 4), dtype=np.uint64)
    counters[:, 1:] = packed[:, 0::2] | packed[:, 1::2] << np.uint64(32)
    return counters


def sample_kernel(
    true_kappa: float, config: ShotNoiseConfig, key: tuple[int, ...] = ()
) -> tuple[float, int]:
    """Binomial estimate of one kernel value and its raw signal count.

    ``key`` (at most 6 entries in [0, 2**32 - 1], e.g. the Gram indices of the
    entry) selects the stream: Philox4x64 with key ``(seed, len(key))`` and
    counter ``(0, k0 | k1 << 32, k2 | k3 << 32, k4 | k5 << 32)``, missing
    entries 0.  The signal count is one ``binomial(events, p)`` draw from it;
    the estimate, count / events, is unbiased at fidelity 1 with standard
    deviation sqrt(kappa (1 - kappa) / events).
    """
    if not (0.0 <= true_kappa <= 1.0):
        raise ValueError("true_kappa must lie in [0, 1]")
    keys = np.asarray(key)[None]
    if keys.ndim != 2:
        raise ValueError("stream key must be a flat sequence of integers")
    _check_stream_keys(keys)
    p = config.fidelity * true_kappa + (1.0 - config.fidelity) * config.background
    bit_generator = np.random.Philox(counter=_counters(keys)[0], key=[config.seed, keys.shape[1]])
    signal = int(np.random.Generator(bit_generator).binomial(config.events_per_point, p))
    return signal / config.events_per_point, signal


def sample_kernels(true_kappas, config: ShotNoiseConfig, keys) -> np.ndarray:
    """Estimates of many kernel values, each from its own keyed stream.

    Entry k equals ``sample_kernel(true_kappas[k], config, key=keys[k])[0]``
    bit for bit.  ``keys`` holds one row of at most 6 stream-key entries per
    kappa, each in [0, 2**32 - 1].  One generator is reused: each entry
    writes its Philox counter into the generator state, then draws.
    """
    kappas = np.asarray(true_kappas, dtype=float)
    keys = np.asarray(keys)
    if kappas.ndim != 1 or keys.ndim != 2 or keys.shape[0] != kappas.size:
        raise ValueError("need one row of stream-key entries per kappa")
    if not np.all((kappas >= 0.0) & (kappas <= 1.0)):
        raise ValueError("true_kappa must lie in [0, 1]")
    _check_stream_keys(keys)
    p = config.fidelity * kappas + (1.0 - config.fidelity) * config.background
    key = [config.seed, keys.shape[1]]
    generator = np.random.Generator(np.random.Philox(key=key))
    stream = {"counter": [0, 0, 0, 0], "key": key}
    # an empty buffer makes every draw start from the entry's own counter
    state = {"bit_generator": "Philox", "state": stream, "buffer": [0, 0, 0, 0],
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    bit_generator, binomial, events = generator.bit_generator, generator.binomial, config.events_per_point
    counts = np.empty(kappas.size, dtype=np.int64)
    for start in range(0, kappas.size, _SAMPLE_BLOCK):
        block = slice(start, start + _SAMPLE_BLOCK)
        draws = zip(_counters(keys[block]).tolist(), p[block].tolist())
        for k, (stream["counter"], p_k) in enumerate(draws, start):
            bit_generator.state = state
            counts[k] = binomial(events, p_k)
    return counts / events


def coincidence_rate_budget(
    pairs: int, rate_cps: float, events_needed: int
) -> float:
    """Seconds of wall time to collect the requested events for every pair."""
    if not _is_int(pairs) or pairs < 0:
        raise ValueError("pairs must be a non-negative integer")
    if not math.isfinite(rate_cps) or rate_cps <= 0.0:
        raise ValueError("rate_cps must be a finite positive rate")
    if not _is_int(events_needed) or events_needed < 0:
        raise ValueError("events_needed must be a non-negative integer")
    return pairs * events_needed / rate_cps
