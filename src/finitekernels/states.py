"""Amplitude profiles and embeddings of scalar data into finite feature Hilbert spaces.

Two input conventions coexist and are never converted implicitly:

* ``"interference"`` -- scalar inputs live on [-1/2, 1/2) and are encoded as
  relative phases of a fixed amplitude profile.
* ``"cosine"`` -- inputs live on [-pi/2, pi/2) per coordinate and are encoded
  through binomial sin/cos amplitudes.

All value types are immutable; every function here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

NORM_TOL = 1e-12

INTERFERENCE_DOMAIN = (-0.5, 0.5)
COSINE_DOMAIN = (-math.pi / 2.0, math.pi / 2.0)

DOMAINS = {
    "interference": INTERFERENCE_DOMAIN,
    "cosine": COSINE_DOMAIN,
}


# Python's bool and numpy's: a number check refuses both, or True would run as 1
_BOOLS = (bool, np.bool_)


def _is_int(value) -> bool:
    """An integer that is not a bool: ``True`` would read as 1."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _as_int(value, what: str, minimum: int, maximum: int | None = None) -> int:
    """``value`` as an int, if it is an integer of at least ``minimum`` and at most ``maximum``."""
    if not _is_int(value) or value < minimum or (maximum is not None and value > maximum):
        rule = {0: "a non-negative integer", 1: "a positive integer"}.get(
            minimum, f"an integer >= {minimum}")
        if maximum is not None:
            rule = f"an integer in [{minimum}, {maximum}]"
        raise ValueError(f"{what} must be {rule}, got {value!r}")
    return int(value)


def _as_positive(value, what: str) -> float:
    """``value`` as a float, if it is a finite positive real and not a bool."""
    if isinstance(value, _BOOLS) or not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{what} must be a finite positive real")
    return float(value)


def _as_nonnegative(value, what: str) -> float:
    """``value`` as a float, if it is a finite non-negative real and not a bool."""
    if isinstance(value, _BOOLS) or not 0.0 <= value < math.inf:  # NaN fails too
        raise ValueError(f"{what} must be a finite non-negative real, got {value!r}")
    return float(value)


def _check_choice(value, choices, what: str) -> None:
    """Refuse ``value`` unless it is one of ``choices``; ``what`` names the setting."""
    if value not in choices:
        raise ValueError(f"unknown {what} {value!r}; choose from {tuple(choices)}")


def _check_type(value, types: tuple, what: str) -> None:
    """Refuse ``value`` unless it is an instance of one of ``types``; ``what`` names the field."""
    if not isinstance(value, types):
        names = " or ".join("None" if t is type(None) else t.__name__ for t in types)
        raise ValueError(f"{what} must be of type {names}, got {type(value).__name__}")


def _frozen_array(values, dtype, what: str | None = None, ndim: int | None = None) -> np.ndarray:
    """A read-only copy of ``values``, refused unless finite when ``what`` names it, and
    with ``ndim`` unless it has that many dimensions and at least one row (or entry)."""
    arr = np.array(values, dtype=dtype)
    if what is not None and not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite")
    if ndim is not None and (arr.ndim != ndim or len(arr) == 0):
        raise ValueError(f"{what} must form a nonempty {ndim}-D array")
    arr.flags.writeable = False
    return arr


def _check_labels(labels, size: int) -> np.ndarray:
    """A read-only float copy of ``labels``, if it holds one +1 or -1 per point of ``size``."""
    y = _frozen_array(labels, float)
    if y.shape != (size,):
        raise ValueError(f"need one label per point: {size} points, labels of shape {y.shape}")
    if not ((y == 1.0) | (y == -1.0)).all():
        raise ValueError("labels must be +1 or -1")
    return y


@dataclass(frozen=True)
class AmplitudeProfile:
    """Nonnegative weights r_0..r_{L-1} of an interference feature map.

    The weights are the squared amplitudes of the encoded state and must sum
    to 1 within 1e-12.  Use :meth:`from_unnormalized` to build one from raw
    nonnegative values.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = _frozen_array(self.weights, float, "profile weights", 1)
        if np.any(w < 0.0):
            raise ValueError("profile weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > NORM_TOL:
            raise ValueError("profile weights must sum to 1 within 1e-12")
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_unnormalized(cls, weights) -> "AmplitudeProfile":
        w = np.asarray(weights, dtype=float)
        total = float(w.sum())
        if not math.isfinite(total) or total <= 0.0:
            raise ValueError("profile weights must have a positive finite sum")
        return cls(w / total)

    def __eq__(self, other) -> bool:
        return isinstance(other, AmplitudeProfile) and np.array_equal(self.weights, other.weights)

    def __hash__(self) -> int:
        return hash((self.weights + 0.0).tobytes())  # + 0.0: -0.0 equals 0.0, so hashes alike

    def __len__(self) -> int:
        return int(self.weights.size)

    @property
    def amplitudes(self) -> np.ndarray:
        """Square roots of the weights."""
        return np.sqrt(self.weights)


@dataclass(frozen=True)
class FeatureState:
    """Unit-norm complex amplitude vector of an embedded data point."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        a = _frozen_array(self.amplitudes, complex, "state amplitudes", 1)
        if abs(float(np.linalg.norm(a)) - 1.0) > NORM_TOL:
            raise ValueError("state amplitudes must have unit norm within 1e-12")
        object.__setattr__(self, "amplitudes", a)

    @property
    def dim(self) -> int:
        return int(self.amplitudes.size)


@dataclass(frozen=True)
class DataPoint:
    """A D-dimensional input, optionally carrying one encoding phase per coordinate.

    When ``phases`` is present its first entry is the fixed reference and must
    be 0; the remaining entries are free parameters of the phase-augmented
    embedding.
    """

    coords: np.ndarray
    phases: np.ndarray | None = None

    def __post_init__(self) -> None:
        # a scalar is a one-coordinate point
        c = _frozen_array([self.coords] if np.ndim(self.coords) == 0 else self.coords, float,
                          "coords", 1)
        object.__setattr__(self, "coords", c)
        if self.phases is not None:
            p = np.atleast_1d(_frozen_array(self.phases, float, "phases"))
            if p.shape != c.shape:
                raise ValueError("phases must have one entry per coordinate")
            if p[0] != 0.0:
                raise ValueError("the first phase is the reference and must be 0")
            object.__setattr__(self, "phases", p)


def as_coords(x) -> np.ndarray:
    """Coordinate vector of a DataPoint or any array-like input."""
    if isinstance(x, DataPoint):
        return x.coords
    return np.atleast_1d(np.asarray(x, dtype=float))


def _paired_diffs(x, xp) -> np.ndarray:
    """Separations |x' - x| per coordinate of two points of one dimension, refused unless finite."""
    a, b = as_coords(x), as_coords(xp)
    if a.shape != b.shape:
        raise ValueError("kernel arguments must have the same dimension")
    return _frozen_array(np.abs(b - a), float, "kernel arguments")


def _check_phased(what: str, *points) -> None:
    """Refuse unless every point is a DataPoint carrying phases; ``what`` names the caller."""
    if not all(isinstance(x, DataPoint) and x.phases is not None for x in points):
        raise ValueError(f"{what} needs a DataPoint carrying phases")


def _check_domain(values: np.ndarray, convention: str) -> None:
    lo, hi = DOMAINS[convention]
    if not np.all((values >= lo) & (values < hi)):  # so NaN fails too
        raise ValueError(
            f"input outside the {convention} domain [{lo:.6g}, {hi:.6g})"
        )


# ---------- profile constructors ----------


def msi_profile(n_terms: int) -> AmplitudeProfile:
    """Equal weights 1/L over L consecutive modes (multi-slit interference)."""
    n_terms = _as_int(n_terms, "n_terms", 2)
    return AmplitudeProfile(np.full(n_terms, 1.0 / n_terms))


def tsq_profile(n_terms: int, squeezing: float) -> AmplitudeProfile:
    """Truncated squeezed-vacuum weights, renormalized to sum 1.

    The n-th weight is proportional to (2n)! tanh^(2n)(z) / (4^n (n!)^2),
    n = 0..L-1.  Factorials are evaluated in log space; the ratio of
    consecutive weights is ((2n+1)/(2n+2)) tanh^2(z) < 1, so the weights
    decrease strictly for any positive squeezing.  Each log-weight depends
    on n alone, so the profile of length L is exp of the first L entries of
    any longer table over their sum, as ``resolution_sweep`` takes it.
    """
    n_terms = _as_int(n_terms, "n_terms", 1)
    squeezing = _as_positive(squeezing, "squeezing")
    return AmplitudeProfile.from_unnormalized(np.exp(_tsq_log_weights(n_terms, squeezing)))


def _tsq_log_weights(n_terms: int, squeezing: float) -> np.ndarray:
    """``tsq_profile``'s log-weights on checked arguments: exactly 0.0 at n = 0, then negative."""
    n = np.arange(n_terms, dtype=float)
    # lgamma(2n+1) - 2 lgamma(n+1) - n log 4 + 2n log tanh(z); cosh cancels on renormalization
    return (
        np.array([math.lgamma(2 * k + 1) - 2 * math.lgamma(k + 1) for k in range(n_terms)])
        - n * math.log(4.0)
        + 2.0 * n * math.log(math.tanh(squeezing))
    )


# ---------- embeddings ----------


def _interference_amplitudes(x: float, profile: AmplitudeProfile) -> np.ndarray:
    n = np.arange(len(profile))
    return profile.amplitudes * np.exp(2.0j * math.pi * n * x)


def embed_interference(x: float, profile: AmplitudeProfile) -> FeatureState:
    """Encode a scalar on [-1/2, 1/2) as phases over the profile's modes."""
    x = float(x)
    _check_domain(np.asarray([x]), "interference")
    return FeatureState(_interference_amplitudes(x, profile))


def _binomial_factor(coord: float, power: int) -> np.ndarray:
    c, s = math.cos(coord), math.sin(coord)
    k = np.arange(power + 1)
    comb = np.array([math.comb(power, int(j)) for j in k], dtype=float)
    return np.sqrt(comb) * (s ** k) * (c ** (power - k))


def embed_cosine(x, power: int = 1) -> FeatureState:
    """Binomial sin/cos embedding of a point on [-pi/2, pi/2)^D.

    Each coordinate contributes an (N+1)-dimensional factor with amplitudes
    sqrt(C(N,k)) sin^k cos^(N-k); the full state is their tensor product.
    """
    power = _as_int(power, "power", 1)
    coords = as_coords(x)
    _check_domain(coords, "cosine")
    state = np.ones(1, dtype=complex)
    for coord in coords:
        state = np.kron(state, _binomial_factor(float(coord), power))
    return FeatureState(state)


def embed_phase_augmented(x: DataPoint, power: int = 1) -> FeatureState:
    """Cosine embedding with one relative-phase qubit per added dimension.

    Coordinates n = 2..D each carry a factor (|0> + e^{2i y_{n-1}} |1>)/sqrt(2),
    so overlaps pick up cos(y_{n-1} - y'_{n-1}) per extra dimension.  The first
    coordinate's phase is the fixed reference y_0 = 0 and contributes nothing.
    Total dimension: (N+1)^D * 2^(D-1).
    """
    _check_phased("embed_phase_augmented", x)
    base = embed_cosine(x.coords, power).amplitudes
    state = np.asarray(base, dtype=complex)
    for y in x.phases[1:]:
        qubit = np.array([1.0, np.exp(2.0j * y)], dtype=complex) / math.sqrt(2.0)
        state = np.kron(state, qubit)
    return FeatureState(state)


# ---------- dataset normalization ----------


def rescale_dataset(points, convention: str) -> np.ndarray:
    """Affinely map each coordinate onto the convention's half-open domain.

    The raw minimum lands on the lower bound; the raw maximum lands at
    (upper bound - 1e-9 * range) so rescaled values stay strictly inside the
    half-open interval.
    """
    _check_choice(convention, DOMAINS, "convention")
    pts = _frozen_array(points, float, "points to rescale")
    squeeze = pts.ndim == 1
    pts = np.atleast_2d(pts.T).T if squeeze else pts
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("need at least two points to rescale")
    lo, hi = DOMAINS[convention]
    hi_eff = hi - 1e-9 * (hi - lo)
    mn = pts.min(axis=0)
    mx = pts.max(axis=0)
    if np.any(mx - mn <= 0.0):
        raise ValueError("each coordinate needs at least two distinct values")
    out = lo + (pts - mn) / (mx - mn) * (hi_eff - lo)
    return out[:, 0] if squeeze else out
