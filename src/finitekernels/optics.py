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
order.  ``sample_kernel`` measures one value with numpy's generator.
``sample_kernels`` measures a batch bit for bit equal to it, in arrays: it
computes the first Philox block of every stream and on it repeats numpy's
binomial draw, by inversion or by BTPE (Kachitvichyanukul & Schmeiser,
CACM 31, 1988), with libm's log and exp.  numpy's generator itself draws
the few entries that need more than that block's four uniforms, and every
entry of a batch too small to repay the arrays' fixed cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import DataPoint, _as_int, _as_positive, _is_int

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
    dimension = _as_int(dimension, "dimension", 1)
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
        # above 2**53 a count is no longer exact as a double, and numpy's estimates divide by one
        if not _is_int(self.events_per_point) or not 1 <= self.events_per_point <= _MAX_EVENTS:
            raise ValueError("events_per_point must be an integer in [1, 2**53]")
        if isinstance(self.fidelity, bool) or not (0.0 < self.fidelity <= 1.0):
            raise ValueError("fidelity must lie in (0, 1]")
        # Philox would take a 64-bit seed; the 32-bit bound keeps the accepted CLI and INI seeds
        if not _is_int(self.seed) or not 0 <= self.seed <= _MASK32:
            raise ValueError("seed must be an integer in [0, 2**32 - 1]")
        if isinstance(self.background, bool) or not (0.0 <= self.background <= 1.0):
            raise ValueError("background must lie in [0, 1]")
        for name, kind in (("events_per_point", int), ("fidelity", float), ("seed", int),
                           ("background", float)):
            object.__setattr__(self, name, kind(getattr(self, name)))


_MASK32 = (1 << 32) - 1
_MAX_EVENTS = 1 << 53
# three 64-bit Philox counter words, two 32-bit key entries each
_KEY_WIDTH = 6
# below this batch size numpy's draw per entry beats the fixed cost of the array code
_ARRAY_BATCH = 1024
# entries drawn per pass of the array code; bounds its temporaries whatever the batch size
_SAMPLE_BLOCK = 4096
# Philox4x64-10 (Random123): the multipliers of counter words 0 and 2, the key's Weyl increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_MASK64 = (1 << 64) - 1
_LOW32, _SHIFT32 = np.uint64(_MASK32), np.uint64(32)
# step 50 forms f(y) / f(m) for counts within 20 of the mode: one table of factors holds most
_RATIO_STEPS = 20
# BTPE tries made in arrays: two spend exactly the four uniforms of a stream's first block
_BTPE_TRIES = 2


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


def _mulhilo(multiplier: int, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of ``multiplier * words``, built from 32-bit halves."""
    m_low, m_high = np.uint64(multiplier & _MASK32), np.uint64(multiplier >> 32)
    low, high = words & _LOW32, words >> _SHIFT32
    middle = m_low * high + (m_low * low >> _SHIFT32)
    cross = m_high * low + (middle & _LOW32)
    return m_high * high + (middle >> _SHIFT32) + (cross >> _SHIFT32), words * np.uint64(multiplier)


def _philox_block(counters: np.ndarray, key) -> np.ndarray:
    """Philox4x64-10 of each counter row under one two-word key, as a (4, rows) array.

    numpy's Philox draws this block first from counter (c0 - 1, c1, c2, c3).
    """
    c0, c1, c2, c3 = (np.ascontiguousarray(word) for word in counters.T)
    k0, k1 = (int(word) for word in key)
    for _ in range(_PHILOX_ROUNDS):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
        k0, k1 = (k0 + _PHILOX_WEYL[0]) & _MASK64, (k1 + _PHILOX_WEYL[1]) & _MASK64
    return np.stack([c0, c1, c2, c3])


def _log(values: np.ndarray) -> np.ndarray:
    """C's log of each value, through ``math``: numpy's SIMD log can differ in the last bit.

    As in C, log(0) is -inf and the log of a negative value is NaN.
    """
    return np.array(
        [math.log(x) if x > 0.0 else -math.inf if x == 0.0 else math.nan for x in values.tolist()],
        dtype=float,
    )


def _inversion(n: int, p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """numpy's binomial inversion (p <= 0.5, n p <= 30) of one uniform per entry.

    The search ``U -= px`` steps every entry at once; -1 marks an entry whose
    search passes its bound, where numpy starts again with a new uniform.
    """
    q = 1.0 - p
    px = np.array([math.exp(n * math.log(x)) for x in q.tolist()], dtype=float)
    mean = n * p
    bound = np.minimum(n, mean + 10.0 * np.sqrt(mean * q + 1)).astype(np.int64)
    counts = np.zeros(p.size, dtype=np.int64)
    live = u > px
    # an entry's u and px are not read again once it stops; past its bound it only has to stop
    for x in range(1, int(bound.max(initial=0)) + 2):
        if not live.any():
            break
        counts += live
        u = u - px
        px = (n - x + 1) * p * px / (x * q)
        live &= u > px
    counts[counts > bound] = -1
    return counts


def _stirling(z: np.ndarray) -> np.ndarray:
    """Step 52's Stirling correction term of one factorial argument."""
    z2 = z * z
    return (13680. - (462. - (132. - (99. - 140. / z2) / z2) / z2) / z2) / z / 166320.


def _btpe(n: int, r: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One BTPE try (Kachitvichyanukul & Schmeiser, CACM 31, 1988) per entry, as numpy makes it.

    Takes r <= 0.5 with n r > 30 and the try's two uniforms; -1 marks a
    rejected try.  Every step keeps the operation order of numpy's C code.
    """
    q = 1.0 - r
    fm = n * r + r
    m = np.floor(fm).astype(np.int64)
    nrq = n * r * q
    p1 = np.floor(2.195 * np.sqrt(nrq) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl, xr = xm - p1, xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * r)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    # steps 10 to 40: the triangle, the parallelogram and the left and right exponential tails
    u = u * p4
    region = (u > p1).astype(np.intp) + (u > p2) + (u > p3)
    tail = region >= 2
    log_v = np.zeros_like(v)
    log_v[tail] = _log(v[tail])
    x = xl + (u - p1) / c
    y = np.choose(region, [np.floor(xm - p1 * v + u), np.floor(x),
                           np.floor(xl + log_v / laml), np.floor(xr - log_v / lamr)]).astype(np.int64)
    reject = tail & (v == 0.0)
    v = np.choose(region, [v, v * c + 1.0 - np.abs(m - x + 0.5) / p1,
                           v * (u - p2) * laml, v * (u - p3) * lamr])
    reject |= np.choose(region, [False, v > 1.0, y < 0, y > n])
    # step 50 for counts near the mode or narrow hats, step 52 for the rest
    accept = region == 0
    test = np.flatnonzero(~accept & ~reject)
    k = np.abs(y[test] - m[test])
    squeeze = (k > 20) & (k < nrq[test] / 2.0 - 1)
    near, far = test[~squeeze], test[squeeze]
    accept[near] = ~(v[near] > _mass_ratio(n, r[near], q[near], m[near], y[near]))
    k = k[squeeze]
    rho = (k / nrq[far]) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq[far] + 0.5)
    t = -k * k / (2 * nrq[far])
    log_v = _log(v[far])
    accept[far] = log_v < t - rho
    bounded = ~accept[far] & ~(log_v > t + rho)
    i, log_v = far[bounded], log_v[bounded]
    x1, f1 = (y[i] + 1).astype(float), (m[i] + 1).astype(float)
    z, w = (n + 1 - m[i]).astype(float), (n - y[i] + 1).astype(float)
    bound = (xm[i] * _log(f1 / x1) + (n - m[i] + 0.5) * _log(z / w)
             + (y[i] - m[i]) * _log(w * r[i] / (x1 * q[i]))
             + _stirling(f1) + _stirling(z) + _stirling(x1) + _stirling(w))
    accept[i] = ~(log_v > bound)
    return np.where(accept, y, -1)


def _mass_ratio(n: int, r: np.ndarray, q: np.ndarray, m: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Step 50's f(y) / f(m), numpy's running product over the counts between m and y.

    Count i contributes a / i - s, multiplied in for y > m and divided out for
    y < m, in ascending i.  The product runs over tables of _RATIO_STEPS
    factors per entry, each an ``accumulate`` from the product so far.
    """
    k = np.abs(y - m)
    order = np.argsort(-k, kind="stable")  # longest products first: the running ones form a prefix
    k, r, q, m, y = k[order], r[order], q[order], m[order], y[order]
    s = (r / q)[:, None]
    a = s * (n + 1)
    start, up = np.minimum(m, y)[:, None], m < y
    ratio = np.ones(y.size)
    for first in range(1, int(k.max(initial=0)) + 1, _RATIO_STEPS):
        live = int(np.count_nonzero(k >= first))
        steps = np.arange(first, first + _RATIO_STEPS)
        # a factor of 1 past the end of a product leaves it as it is
        factors = np.where(steps <= k[:live, None], a[:live] / (start[:live] + steps) - s[:live], 1.0)
        table = np.hstack([ratio[:live, None], factors])
        for running, lanes in ((np.multiply, up[:live]), (np.divide, ~up[:live])):
            ratio[:live][lanes] = running.accumulate(table[lanes], axis=1)[:, -1]
    ratio[order] = ratio.copy()
    return ratio


def _first_uniforms(keys: np.ndarray, key) -> np.ndarray:
    """The four uniforms numpy's Philox draws first from each key row's stream, as (4, rows)."""
    counters = _counters(keys)
    counters[:, 0] = 1  # numpy's Philox steps word 0 before it makes a block
    return (_philox_block(counters, key) >> np.uint64(11)) * 2.0**-53


def _btpe_tries(n: int, r: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """BTPE on each entry's first four uniforms; -1 where every try rejects."""
    counts = np.full(r.size, -1, dtype=np.int64)
    pending = np.arange(r.size)
    for t in range(_BTPE_TRIES):
        if pending.size:
            counts[pending] = _btpe(n, r[pending], uniforms[2 * t, pending], uniforms[2 * t + 1, pending])
            pending = pending[counts[pending] < 0]
    return counts


def _array_counts(events: int, p: np.ndarray, keys: np.ndarray, key) -> np.ndarray:
    """numpy's ``binomial(events, p)`` of each key row's stream, drawn in arrays; -1 where
    a draw needs more than the four uniforms of the stream's first block."""
    # numpy draws with r = min(p, 1 - p), flipping the count where p > 0.5, by inversion if r * events <= 30
    flip, r = p > 0.5, np.minimum(p, 1.0 - p)
    inversion = r * events <= 30.0
    counts = np.empty(p.size, dtype=np.int64)
    first = np.empty(p.size)
    for start in range(0, p.size, _SAMPLE_BLOCK):
        uniforms = _first_uniforms(keys[start : start + _SAMPLE_BLOCK], key)
        first[start : start + uniforms.shape[1]] = uniforms[0]
        btpe = np.flatnonzero(~inversion[start : start + _SAMPLE_BLOCK])
        counts[start + btpe] = _btpe_tries(events, r[start + btpe], uniforms[:, btpe])
    # inversion steps every entry at once, so it runs over whole blocks of inversion entries
    inverted = np.flatnonzero(inversion)
    for start in range(0, inverted.size, _SAMPLE_BLOCK):
        i = inverted[start : start + _SAMPLE_BLOCK]
        counts[i] = _inversion(events, r[i], first[i])
    flip &= counts >= 0
    counts[flip] = events - counts[flip]
    return counts


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
    kappa, each in [0, 2**32 - 1].  A batch of 1,024 entries or more is
    drawn in arrays, at most 4,096 entries at a time: Philox4x64-10 gives
    each stream's first four uniforms, and numpy's binomial algorithm runs on
    them, inversion where min(p, 1 - p) * events <= 30 and otherwise two BTPE
    tries.  numpy's generator, set to each entry's own counter, draws the
    entries that need a fifth uniform (about 3% at 2,500 events) and every
    entry of a smaller batch.
    """
    kappas = np.asarray(true_kappas, dtype=float)
    keys = np.asarray(keys)
    if kappas.ndim != 1 or keys.ndim != 2 or keys.shape[0] != kappas.size:
        raise ValueError("need one row of stream-key entries per kappa")
    if not np.all((kappas >= 0.0) & (kappas <= 1.0)):
        raise ValueError("true_kappa must lie in [0, 1]")
    _check_stream_keys(keys)
    p = config.fidelity * kappas + (1.0 - config.fidelity) * config.background
    events, key = config.events_per_point, [config.seed, keys.shape[1]]
    if kappas.size >= _ARRAY_BATCH:
        counts = _array_counts(events, p, keys, key)
    else:
        counts = np.full(kappas.size, -1, dtype=np.int64)
    # numpy's generator draws the rest from each entry's own counter: neither
    # algorithm carries anything past a rejected try, so it ends where the arrays would
    generator = np.random.Generator(np.random.Philox(key=key))
    stream = {"counter": [0, 0, 0, 0], "key": key}
    state = {"bit_generator": "Philox", "state": stream, "buffer": [0, 0, 0, 0],
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    undecided = np.flatnonzero(counts < 0)
    for k, stream["counter"] in zip(undecided.tolist(), _counters(keys[undecided]).tolist()):
        generator.bit_generator.state = state
        counts[k] = generator.binomial(events, p[k])
    return counts / events


def coincidence_rate_budget(
    pairs: int, rate_cps: float, events_needed: int
) -> float:
    """Seconds of wall time to collect the requested events for every pair."""
    pairs = _as_int(pairs, "pairs", 0)
    rate_cps = _as_positive(rate_cps, "rate_cps")
    return pairs * _as_int(events_needed, "events_needed", 0) / rate_cps
