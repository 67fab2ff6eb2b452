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
draws from its own stream, ``default_rng([seed, *key])``, so sampled Gram
matrices are reproducible regardless of evaluation order.  ``sample_kernel``
measures one value; ``sample_kernels`` measures a batch bit for bit equal to
it, hashing the stream keys together instead of building one generator per
entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .states import DataPoint

MODE_BASIS = ("HT", "HB", "VB", "VT")
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
    if power not in (1, 3):
        raise ValueError("the optical circuit realizes powers 1 and 3 only")
    coords = np.atleast_1d(np.asarray(x, dtype=float))
    if coords.ndim != 1 or not 1 <= coords.size <= 2:
        raise ValueError("the circuit hosts one or two photons")
    full = np.ones((1, 1))
    for coord in coords:
        full = np.kron(full, _single_photon_unitary(float(coord), power))
    return full


def kernel_circuit(x, xp, power: int = 3) -> float:
    """Post-selected two-photon kernel |<in| U(x')^T U(x) |in>|^2.

    Equals the closed-form cos^(2*power) product over coordinates.
    """
    ua = build_feature_unitary(x, power)
    ub = build_feature_unitary(xp, power)
    coords = np.atleast_1d(np.asarray(x, dtype=float))
    vin = input_state(coords.size, power)
    amp = complex(vin @ (ub.conj().T @ ua @ vin))
    return min(1.0, abs(amp) ** 2)


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
    ua = build_feature_unitary(x.coords, power)
    ub = build_feature_unitary(xp.coords, power)
    vin = input_state(x.coords.size, power)
    base_amp = complex(vin @ (ub.conj().T @ ua @ vin))
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
        if not isinstance(self.events_per_point, Integral) or self.events_per_point < 1:
            raise ValueError("events_per_point must be a positive integer")
        if not (0.0 < self.fidelity <= 1.0):
            raise ValueError("fidelity must lie in (0, 1]")
        # numpy splits a larger seed into uint32 words: (2**32, key 7) would draw (0, key (1, 7))
        if not isinstance(self.seed, Integral) or not 0 <= self.seed <= _MASK32:
            raise ValueError("seed must be an integer in [0, 2**32 - 1]")
        if not (0.0 <= self.background <= 1.0):
            raise ValueError("background must lie in [0, 1]")
        for name, kind in (("events_per_point", int), ("fidelity", float), ("seed", int),
                           ("background", float)):
            object.__setattr__(self, name, kind(getattr(self, name)))


@dataclass(frozen=True)
class CoincidenceRecord:
    """Raw counts of one sampled kernel value.

    ``counts["signal"]`` aggregates the coincidence-pair combination entering
    the kernel numerator; ``counts["rest"]`` is every other detection event.
    """

    counts: dict
    total: int
    seed: int

    def __post_init__(self) -> None:
        if self.total < 1:
            raise ValueError("total must be positive")
        if any(v < 0 for v in self.counts.values()):
            raise ValueError("counts must be nonnegative")
        if sum(self.counts.values()) != self.total:
            raise ValueError("counts must sum to the total")


def _check_stream_keys(keys: np.ndarray) -> None:
    # numpy splits a larger entry into several uint32 words, so (2**32,) would draw (0, 1)'s stream
    if keys.size and (keys.dtype.kind not in "iu" or keys.min() < 0 or keys.max() > _MASK32):
        raise ValueError("stream key entries must be integers in [0, 2**32 - 1]")


def sample_kernel(
    true_kappa: float, config: ShotNoiseConfig, key: tuple[int, ...] = ()
) -> tuple[float, CoincidenceRecord]:
    """Binomial estimate of one kernel value from coincidence counting.

    ``key`` extends the seed into a per-call stream (e.g. the Gram indices of
    the entry being measured), so batches of measurements are reproducible
    independent of evaluation order; its entries lie in [0, 2**32 - 1].  The
    estimate is unbiased at fidelity 1 with standard deviation
    sqrt(kappa (1 - kappa) / events).
    """
    if not (0.0 <= true_kappa <= 1.0):
        raise ValueError("true_kappa must lie in [0, 1]")
    _check_stream_keys(np.asarray(key))
    p = config.fidelity * true_kappa + (1.0 - config.fidelity) * config.background
    rng = np.random.default_rng([config.seed, *[int(k) for k in key]])
    signal = int(rng.binomial(config.events_per_point, p))
    estimate = signal / config.events_per_point
    record = CoincidenceRecord(
        counts={"signal": signal, "rest": config.events_per_point - signal},
        total=config.events_per_point,
        seed=config.seed,
    )
    return estimate, record


# numpy's SeedSequence and PCG64 seeding constants (numpy.random.bit_generator, pcg64.h)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
# keys hashed per numpy pass; bounds the Python ints alive at once
_SAMPLE_BLOCK = 1024


def _hashmixer(const: int, mult: int):
    """SeedSequence's running hash; its multiplier advances on every call."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> _XSHIFT)


def _pcg64_seeds(words: np.ndarray):
    """Yield the PCG64 (state, inc) that ``default_rng(list(row))`` starts from.

    ``words`` is an (n, L) uint32 array of entropy words.  This is numpy's
    SeedSequence pool mix, ``generate_state(4, np.uint64)`` and
    ``pcg64_set_seed`` run on every row at once: the hash constants evolve
    independently of the data, so each step is one array operation.
    """
    n, width = words.shape
    hashmix = _hashmixer(_INIT_A, _MULT_A)
    zeros = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(words[:, i] if i < width else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, width):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(words[:, src]))
    output = _hashmixer(_INIT_B, _MULT_B)
    state = [output(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    # little-endian word pairs: seed = (s0 << 64) | s1, increment = (s2 << 64) | s3
    s0, s1, s2, s3 = ((state[2 * k] | state[2 * k + 1] << np.uint64(32)).tolist() for k in range(4))
    for seed_hi, seed_lo, inc_hi, inc_lo in zip(s0, s1, s2, s3):
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        yield ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK128, inc


def sample_kernels(true_kappas, config: ShotNoiseConfig, keys) -> np.ndarray:
    """Estimates of many kernel values, each from its own keyed stream.

    Entry k equals ``sample_kernel(true_kappas[k], config, key=keys[k])[0]``
    bit for bit.  ``keys`` holds one row of stream-key entries per kappa,
    each in [0, 2**32 - 1].  The per-key seeding hash runs on blocks of keys
    at once, and one generator is re-seeded per entry, so an entry costs
    its binomial draw instead of a fresh ``default_rng``.
    """
    kappas = np.asarray(true_kappas, dtype=float)
    keys = np.asarray(keys)
    if kappas.ndim != 1 or keys.ndim != 2 or keys.shape[0] != kappas.size:
        raise ValueError("need one row of stream-key entries per kappa")
    if not np.all((kappas >= 0.0) & (kappas <= 1.0)):
        raise ValueError("true_kappa must lie in [0, 1]")
    _check_stream_keys(keys)
    p = config.fidelity * kappas + (1.0 - config.fidelity) * config.background
    generator = np.random.Generator(np.random.PCG64(0))
    stream = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": stream, "has_uint32": 0, "uinteger": 0}
    bit_generator, binomial, events = generator.bit_generator, generator.binomial, config.events_per_point
    counts = np.empty(kappas.size, dtype=np.int64)
    for start in range(0, kappas.size, _SAMPLE_BLOCK):
        block = keys[start : start + _SAMPLE_BLOCK]
        words = np.empty((block.shape[0], 1 + block.shape[1]), dtype=np.uint32)
        words[:, 0] = config.seed
        words[:, 1:] = block
        draws = zip(_pcg64_seeds(words), p[start : start + _SAMPLE_BLOCK].tolist())
        # each entry's (state, inc) lands in the reused state dict
        for k, ((stream["state"], stream["inc"]), p_k) in enumerate(draws, start):
            bit_generator.state = state
            counts[k] = binomial(events, p_k)
    return counts / events


def coincidence_rate_budget(
    pairs: int, rate_cps: float, events_needed: int
) -> float:
    """Seconds of wall time to collect the requested events for every pair."""
    if pairs < 0:
        raise ValueError("pairs must be nonnegative")
    if not math.isfinite(rate_cps) or rate_cps <= 0.0:
        raise ValueError("rate_cps must be a finite positive rate")
    if events_needed < 0:
        raise ValueError("events_needed must be nonnegative")
    return pairs * events_needed / rate_cps
