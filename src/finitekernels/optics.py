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
order.  A count is drawn on the stream's uniforms, with r = min(p, 1 - p):
by inversion of the first where r * events <= 30, and elsewhere by
transformed rejection with squeeze on successive pairs (BTRS; Hörmann,
J. Stat. Comput. Simul. 46, 1993).  ``sample_kernel`` draws one value on
the uniforms of numpy's Philox generator; ``sample_kernels`` draws a batch
in arrays, computing the Philox blocks itself, bit for bit equal to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import _BOOLS, _as_int, _as_positive, _check_choice, _check_phased, _is_int
from .states import _paired_diffs

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
    _check_choice(target, ("T", "B"), "target")
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
    else:
        u[_HB, _HB] = m
        u[_VB, _HB] = n
        u[_HB, _VB] = -n
        u[_VB, _VB] = m
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
    # the splitter feeds each rail the weight its plate would post-select,
    # folding the stated sqrt(2)/sqrt(6) prefactors into one exact rotation;
    # the top rail's weight sqrt(2 (c^6 + s^6)) is at least sqrt(2) / 2; h_b is 0 at x = 0
    u = plate_element(h_b, math.hypot(mu_t, nu_t), "B")
    u = beam_divider() @ u
    u = plate_element(mu_t, nu_t, "T") @ u
    if h_b > 1e-15:
        u = plate_element(mu_b, nu_b, "B") @ u
    return u


def _check_circuit_power(power) -> None:
    if not _is_int(power) or power not in (1, 3):
        raise ValueError("the optical circuit realizes powers 1 and 3 only")


def input_state(dimension: int, power: int = 3) -> np.ndarray:
    """Canonical circuit input: each photon H-polarized in the bottom rail."""
    dimension = _as_int(dimension, "dimension", 1)
    _check_circuit_power(power)
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
    _check_circuit_power(power)
    coords = np.atleast_1d(np.asarray(x, dtype=float))
    if coords.ndim != 1 or not 1 <= coords.size <= 2:
        raise ValueError("the circuit hosts one or two photons")
    full = np.ones((1, 1))
    for coord in coords:
        full = np.kron(full, _single_photon_unitary(float(coord), power))
    return full


def _circuit_amplitude(x, xp, power: int) -> complex:
    """Post-selected two-photon amplitude <in| U(x')^T U(x) |in>."""
    vin = input_state(_paired_diffs(x, xp).size, power)
    ua = build_feature_unitary(x, power)
    ub = build_feature_unitary(xp, power)
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
    _check_phased("kernel_circuit_phase", x, xp)
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
        object.__setattr__(self, "events_per_point",
                           _as_int(self.events_per_point, "events_per_point", 1, _MAX_EVENTS))
        if isinstance(self.fidelity, _BOOLS) or not (0.0 < self.fidelity <= 1.0):
            raise ValueError("fidelity must lie in (0, 1]")
        # Philox would take a 64-bit seed; the 32-bit bound keeps the accepted CLI and INI seeds
        object.__setattr__(self, "seed", _as_int(self.seed, "seed", 0, _MASK32))
        if isinstance(self.background, _BOOLS) or not (0.0 <= self.background <= 1.0):
            raise ValueError("background must lie in [0, 1]")
        for name in ("fidelity", "background"):
            object.__setattr__(self, name, float(getattr(self, name)))


_MASK32 = (1 << 32) - 1
_MAX_EVENTS = 1 << 53
# three 64-bit Philox counter words, two 32-bit key entries each
_KEY_WIDTH = 6
# entries drawn per pass of the array code: bounds its temporaries whatever the batch size,
# yet leaves a pass's fixed cost small beside its work
_SAMPLE_BLOCK = 16384
# blocks drawn in one Philox pass for the streams that reject both BTRS pairs of their first
# block: about 2% of streams, and about 2% of those again reject each later block, so a
# 16,384-entry pass needs a second tail pass about once in 20,000
_TAIL_BLOCKS = 4
# Philox4x64-10 (Random123): the multipliers of counter words 0 and 2, the key's Weyl increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_MASK64 = (1 << 64) - 1
_LOW32, _SHIFT32 = np.uint64(_MASK32), np.uint64(32)
# a count with min(p, 1 - p) * events at most this is drawn by inversion, a larger one by BTRS
_INVERSION_MEAN = 30.0


def _success_probability(kappas, config: ShotNoiseConfig):
    """f * kappa + (1 - f) * background of a kernel value or an array of them, each in [0, 1]."""
    if not np.all((kappas >= 0.0) & (kappas <= 1.0)):  # so NaN fails too
        raise ValueError("true_kappa must lie in [0, 1]")
    return config.fidelity * kappas + (1.0 - config.fidelity) * config.background


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


def _mulhilo(multiplier, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of ``multiplier * words``, built from 32-bit halves.

    ``multiplier`` is an int in [0, 2**64) or a uint64 array that broadcasts with ``words``.
    """
    multiplier = np.uint64(multiplier)
    m_low, m_high = multiplier & _LOW32, multiplier >> _SHIFT32
    low, high = words & _LOW32, words >> _SHIFT32
    middle = m_low * high + (m_low * low >> _SHIFT32)
    cross = m_high * low + (middle & _LOW32)
    return m_high * high + (middle >> _SHIFT32) + (cross >> _SHIFT32), words * multiplier


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


def _uniforms(counters: np.ndarray, key) -> np.ndarray:
    """The four uniforms numpy's ``random()`` makes of each counter row's block, as (4, rows)."""
    return (_philox_block(counters, key) >> np.uint64(11)) * 2.0**-53


def _stirling(z):
    """Stirling's series for lgamma(z) - (z - 1/2) log z + z - log(2 pi) / 2, z >= 1."""
    z2 = z * z
    return (13860. - (462. - (132. - (99. - 140. / z2) / z2) / z2) / z2) / z / 166320.


def _btrs_setup(n: int, r):
    """BTRS's a, b, c, alpha and v_r for binomial(n, r), r <= 1/2; of a scalar or elementwise."""
    spq = np.sqrt(n * r * (1.0 - r))
    b = 1.15 + 2.53 * spq
    return -0.0873 + 0.0248 * b + 0.01 * r, b, n * r + 0.5, (2.83 + 5.1 / b) * spq, 0.92 - 4.2 / b


def _log_mass_ratio(n: int, r, k):
    """log(f(k) / f(m)) of binomial(n, r) at its mode m, of a scalar or elementwise.

    Stirling's formula for the four factorials, written in d = k - m: no term
    is much larger than the result, which keeps it accurate up to 2**53
    events, where log k! alone has an ulp of 64.
    """
    m = np.floor((n + 1.0) * r)
    d = k - m
    return (-(k + 0.5) * np.log1p(d / (m + 1.0)) - (n - k + 0.5) * np.log1p(-d / (n - m + 1.0))
            + d * (np.log(n - m + 1.0) - np.log(m + 1.0) + np.log(r / (1.0 - r)))
            + _stirling(m + 1.0) + _stirling(n - m + 1.0) - _stirling(k + 1.0) - _stirling(n - k + 1.0))


def _binomial(n: int, p: float, uniform) -> int:
    """One binomial(n, p) count from the uniforms ``uniform()`` returns in turn.

    The scalar copy of ``_block_counts``: with r = min(p, 1 - p), inversion of
    the first uniform where n r <= 30, BTRS tries on successive pairs elsewhere,
    and n minus the count where p > 1/2.
    """
    r = min(p, 1.0 - p)
    if n * r <= _INVERSION_MEAN:
        count, pmf, s, u = 0, np.exp(n * np.log1p(-r)), r / (1.0 - r), uniform()
        while u > pmf:
            u -= pmf
            pmf = pmf * (n - count) / (count + 1) * s
            if not pmf > 0.0:
                break
            count += 1
    else:
        a, b, c, alpha, v_r = _btrs_setup(n, r)
        while True:
            u, v = uniform() - 0.5, uniform()
            us = 0.5 - abs(u)
            k = np.floor((2.0 * a / us + b) * u + c)
            if 0.0 <= k <= n and (us >= 0.07 and v <= v_r or np.log(v * alpha / (a / (us * us) + b))
                                  <= _log_mass_ratio(n, r, k)):
                break
        count = int(k)
    return n - count if p > 0.5 else count


def _inversion(n: int, r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Counts by inversion of one uniform each: a search up from 0 that stops where
    the uniform is spent, or where the pmf underflows to 0.

    Every entry still searching at step k has count k, so each step scales the
    pmf by the scalars n - k and k + 1, on arrays of the searching entries alone.
    """
    pmf, s = np.exp(n * np.log1p(-r)), r / (1.0 - r)
    counts = np.zeros(r.size)
    i = np.flatnonzero(u > pmf)
    u, pmf, s = u[i], pmf[i], s[i]
    k = 0
    while i.size:
        u -= pmf
        pmf *= float(n - k)
        pmf /= float(k + 1)
        pmf *= s
        k += 1
        more = u > pmf
        counts[i[~more]] = k
        live = pmf > 0.0
        if not live.all():  # a pmf that underflowed ends the search at count k - 1
            counts[i[~live]] = k - 1
            more &= live
        more = np.flatnonzero(more)
        i, u, pmf, s = i[more], u[more], pmf[more], s[more]
    return counts


def _tail_uniforms(counters: np.ndarray, first: int, key) -> np.ndarray:
    """Blocks ``first`` to ``first + _TAIL_BLOCKS - 1`` of each counter row's stream in one
    Philox pass, as (4 * _TAIL_BLOCKS, rows): block first + t in rows 4t to 4t + 3."""
    tail = np.repeat(counters[None], _TAIL_BLOCKS, axis=0)
    tail[..., 0] = np.arange(first, first + _TAIL_BLOCKS, dtype=np.uint64)[:, None]
    uniforms = _uniforms(tail.reshape(-1, 4), key).reshape(4, _TAIL_BLOCKS, -1)
    return uniforms.transpose(1, 0, 2).reshape(4 * _TAIL_BLOCKS, -1)


def _block_counts(n: int, p: np.ndarray, keys: np.ndarray, key) -> np.ndarray:
    """binomial(n, p) of each key row's stream, drawn as ``_binomial`` draws it, in arrays.

    BTRS tries the pairs of each stream's first block.  The streams still
    drawing then get their next ``_TAIL_BLOCKS`` blocks in one Philox pass and
    try those pairs in turn, as many passes as some stream still draws.
    """
    r = np.minimum(p, 1.0 - p)
    counters = _counters(keys)
    counters[:, 0] = 1  # numpy's Philox steps word 0 before it makes a block
    uniforms = _uniforms(counters, key)
    counts = np.empty(p.size)
    small = r * n <= _INVERSION_MEAN
    counts[small] = _inversion(n, r[small], uniforms[0, small])
    pending = np.flatnonzero(~small)
    r, uniforms = r[pending], uniforms[:, pending]
    a, b, c, alpha, v_r = _btrs_setup(n, r)
    blocks = 1  # blocks drawn so far, the same for every stream still drawing
    while pending.size:
        for pair in range(0, len(uniforms), 2):
            u, v = uniforms[pair] - 0.5, uniforms[pair + 1]
            us = 0.5 - np.abs(u)
            k = np.floor((2.0 * a / us + b) * u + c)
            fits = (k >= 0.0) & (k <= n)
            done = fits & (us >= 0.07) & (v <= v_r)
            i = np.flatnonzero(fits & ~done)
            done[i] = (np.log(v[i] * alpha[i] / (a[i] / (us[i] * us[i]) + b[i]))
                       <= _log_mass_ratio(n, r[i], k[i]))
            counts[pending[done]] = k[done]
            pending, r, uniforms, a, b, c, alpha, v_r = (
                x[..., ~done] for x in (pending, r, uniforms, a, b, c, alpha, v_r))
            if not pending.size:
                break
        else:
            uniforms = _tail_uniforms(counters[pending], blocks + 1, key)
            blocks += _TAIL_BLOCKS
    return np.where(p > 0.5, n - counts, counts)


def sample_kernel(
    true_kappa: float, config: ShotNoiseConfig, key: tuple[int, ...] = ()
) -> tuple[float, int]:
    """Binomial estimate of one kernel value and its raw signal count.

    ``key`` (at most 6 entries in [0, 2**32 - 1], e.g. the Gram indices of the
    entry) selects the stream: Philox4x64 with key ``(seed, len(key))`` and
    counter ``(0, k0 | k1 << 32, k2 | k3 << 32, k4 | k5 << 32)``, missing
    entries 0.  The signal count is one binomial(events, p) draw on the
    uniforms numpy's generator takes from it: with r = min(p, 1 - p),
    inversion of the first where r * events <= 30, BTRS tries on successive
    pairs elsewhere.  The estimate, count / events, is unbiased at fidelity 1
    with standard deviation sqrt(kappa (1 - kappa) / events).
    """
    p = _success_probability(true_kappa, config)
    keys = np.asarray(key)[None]
    if keys.ndim != 2:
        raise ValueError("stream key must be a flat sequence of integers")
    _check_stream_keys(keys)
    bit_generator = np.random.Philox(counter=_counters(keys)[0], key=[config.seed, keys.shape[1]])
    signal = _binomial(config.events_per_point, p, np.random.Generator(bit_generator).random)
    return signal / config.events_per_point, signal


def sample_kernels(true_kappas, config: ShotNoiseConfig, keys) -> np.ndarray:
    """Estimates of many kernel values, each from its own keyed stream.

    Entry k equals ``sample_kernel(true_kappas[k], config, key=keys[k])[0]``
    bit for bit, whatever else the batch holds.  ``keys`` holds one row of at
    most 6 stream-key entries per kappa, each in [0, 2**32 - 1].  The batch is
    drawn in arrays, 16,384 entries at a time: Philox4x64-10 gives each
    stream's blocks of four uniforms, and the counts are drawn on them by
    inversion or BTRS, with numpy's ``log``, ``log1p``, ``exp`` and ``sqrt``
    as the scalar draw calls them.
    """
    kappas = np.asarray(true_kappas, dtype=float)
    keys = np.asarray(keys)
    if kappas.ndim != 1 or keys.ndim != 2 or keys.shape[0] != kappas.size:
        raise ValueError("need one row of stream-key entries per kappa")
    p = _success_probability(kappas, config)
    _check_stream_keys(keys)
    events, key = config.events_per_point, [config.seed, keys.shape[1]]
    counts = np.empty(p.size)
    for start in range(0, p.size, _SAMPLE_BLOCK):
        block = slice(start, start + _SAMPLE_BLOCK)
        counts[block] = _block_counts(events, p[block], keys[block], key)
    return counts / events


def coincidence_rate_budget(
    pairs: int, rate_cps: float, events_needed: int
) -> float:
    """Seconds of wall time to collect the requested events for every pair."""
    pairs = _as_int(pairs, "pairs", 0)
    rate_cps = _as_positive(rate_cps, "rate_cps")
    return pairs * _as_int(events_needed, "events_needed", 0) / rate_cps
