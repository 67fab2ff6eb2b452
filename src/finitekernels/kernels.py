"""Closed-form kernels of the finite feature maps, plus overlap and sizing helpers.

Every kernel returns a value in [0, 1], equals 1 at zero separation, and is
symmetric in its two arguments.  Differences are reduced to their absolute
value before trigonometric evaluation so symmetry holds bit-exactly.

Only the finite kinds are positive definite.  Per coordinate they are finite
Fourier series with nonnegative coefficients:

    cos^(2N) d = 4^-N [C(2N, N) + 2 sum_{k=1..N} C(2N, N-k) cos 2kd],
    profile:  k(d) = c_0 + 2 sum_{k=1..L-1} c_k cos 2 pi k d,
              c_k = sum_n r_n r_{n+k} >= 0,

so each has an exact real feature map of width w = 2N + 1 or 2L - 1 per
coordinate (``KernelSpec.coordinate_features``), and w^D in D coordinates.
|cos d|^(2p) with non-integer p is an infinite series whose coefficients
alternate in sign for k > p + 1; at p = 1/2 the coefficient of cos 2kd is
(-1)^(k+1) 4 / (pi (4k^2 - 1)).  Exact Gram matrices of the fractional kind
are therefore indefinite, and ``svm.condition_gram`` repairs them before
training, as it does sampled ones; an exact Gram of a finite kind it leaves
as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import AmplitudeProfile, DataPoint, FeatureState, _as_int, _as_positive
from .states import _check_choice, _check_phased, _frozen_array, _paired_diffs


def _clip_unit(value):
    return np.clip(value, 0.0, 1.0)


def kernel_profile(dx, profile: AmplitudeProfile):
    """|sum_n r_n e^{2 pi i n dx}|^2 -- 1-periodic in the separation dx.

    Accepts a scalar or an array of separations.  Zero separation gives
    exactly 1, which (sum_n r_n)^2 only meets within roundoff.
    """
    dx_arr = np.abs(np.atleast_1d(np.asarray(dx, dtype=float)))
    n = np.arange(len(profile))
    # a stack of 1 x L dots, so a scalar rounds exactly like an array entry
    phases = np.exp(2.0j * math.pi * np.multiply.outer(dx_arr, n))
    z = (phases[..., None, :] @ profile.weights)[..., 0]
    val = np.where(dx_arr == 0.0, 1.0, _clip_unit(np.abs(z) ** 2))
    return float(val[0]) if np.ndim(dx) == 0 else val


def kernel_cosine(x, xp, power: int = 1) -> float:
    """Product over coordinates of cos^(2N) of the separation."""
    power = _as_int(power, "power", 1)
    d = _paired_diffs(x, xp)
    return float(_clip_unit(np.prod(np.cos(d) ** (2 * power))))


def kernel_fractional(x, xp, exponent: float) -> float:
    """Product over coordinates of |cos|^(2p) of the separation, p > 0 real.

    The absolute value keeps fractional powers real and in [0, 1].
    """
    exponent = _as_positive(exponent, "exponent")
    d = _paired_diffs(x, xp)
    return float(_clip_unit(np.prod(np.abs(np.cos(d)) ** (2.0 * exponent))))


def kernel_phase_augmented(x: DataPoint, xp: DataPoint, power: int = 1) -> float:
    """Cosine-power kernel times cos^2 of each added dimension's phase difference.

    The first dimension's phase is the fixed reference, so its factor is
    identically 1.
    """
    _check_phased("kernel_phase_augmented", x, xp)
    # kernel_cosine refuses points of two dimensions: a DataPoint has one phase per coordinate
    base = kernel_cosine(x, xp, power)
    dy = np.abs(xp.phases[1:] - x.phases[1:])
    return float(_clip_unit(base * np.prod(np.cos(dy) ** 2)))


def overlap_kernel(a: FeatureState, b: FeatureState) -> float:
    """Squared modulus of the inner product of two feature states."""
    if a.dim != b.dim:
        raise ValueError("states must live in the same space")
    return float(_clip_unit(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2))


def qubit_count(power: int, scheme: str = "compact") -> int:
    """Qubits per input dimension for the cosine embedding.

    ``"compact"`` packs the N+1 levels into ceil(log2(N+1)) qubits;
    ``"product"`` uses the N-qubit symmetric product form.
    """
    power = _as_int(power, "power", 1)
    _check_choice(scheme, ("compact", "product"), "scheme")
    return max(1, power.bit_length()) if scheme == "compact" else power


# the one parameter each kind takes, and must be the only one set
_KIND_PARAMETER = {"profile": "profile", "cosine_power": "power", "fractional_cosine": "exponent"}

# Cap on the separations (times profile modes) one block of KernelSpec.matrix
# holds at once: about 1 MB of temporaries per block.
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family pinned to concrete parameters and an input dimension.

    Exactly the parameters required by ``kind`` may be set:

    * ``profile``            -- ``profile`` (an :class:`AmplitudeProfile`)
    * ``cosine_power``       -- ``power`` (positive integer)
    * ``fractional_cosine``  -- ``exponent`` (positive real)

    A non-integer ``exponent`` gives an indefinite kernel (see the module
    docstring), so its exact Gram matrices need ``svm.condition_gram``.
    """

    kind: str
    dimension: int = 1
    profile: AmplitudeProfile | None = None
    power: int | None = None
    exponent: float | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        _check_choice(self.kind, _KIND_PARAMETER, "kernel kind")
        object.__setattr__(self, "dimension", _as_int(self.dimension, "dimension", 1))
        for kind, parameter in _KIND_PARAMETER.items():
            if (self.kind == kind) != (getattr(self, parameter) is not None):
                raise ValueError(f"{parameter} must be set exactly for kind={kind!r}")
        if self.power is not None:
            object.__setattr__(self, "power", _as_int(self.power, "power", 1))
        if self.exponent is not None:
            object.__setattr__(self, "exponent", _as_positive(self.exponent, "exponent"))

    @property
    def convention(self) -> str:
        """Input convention this kernel expects its data in."""
        return "interference" if self.kind == "profile" else "cosine"

    @property
    def feature_dimension(self) -> int | None:
        """Width w^D of the ``coordinate_features`` map, ``None`` for ``fractional_cosine``."""
        if self.kind == "fractional_cosine":
            return None
        width = 2 * self.power + 1 if self.kind == "cosine_power" else 2 * len(self.profile) - 1
        return width**self.dimension

    def kernel_id(self) -> str:
        if self.label:
            return self.label
        if self.kind == "profile":
            return f"profile:L={len(self.profile)}:D={self.dimension}"
        if self.kind == "fractional_cosine":
            return f"fractional:p={self.exponent:g}:D={self.dimension}"
        return f"cosine:N={self.power}:D={self.dimension}"

    def evaluate(self, x, xp) -> float:
        """Kernel value between two points in this kernel spec's convention."""
        return float(self._closed_form(self._coord_rows(_paired_diffs(x, xp)[None]))[0])

    def matrix(self, A, B=None) -> np.ndarray:
        """Kernel values ``K[i, j] == evaluate(A[i], B[j])``, bit for bit.

        ``A`` and ``B`` are (n, dimension) coordinate arrays.  The separations
        |B[j] - A[i]| are broadcast over blocks of rows of ``A`` and passed
        through the same closed form as :meth:`evaluate`.  With ``B`` omitted
        the result is ``matrix(A, A)``: each block evaluates only its pairs
        i <= j and mirrors them, which is exact since |a - b| == |b - a| in
        IEEE arithmetic.
        """
        a = self._coord_rows(A)
        b = a if B is None else self._coord_rows(B)
        width = len(self.profile) if self.kind == "profile" else 1
        step = max(1, _BLOCK_ELEMENTS // max(1, b.shape[0] * self.dimension * width))
        out = np.empty((a.shape[0], b.shape[0]))
        for start in range(0, a.shape[0], step):
            rows = a[start : start + step]
            if B is None:
                i, j = np.triu_indices(rows.shape[0], start, b.shape[0])
                out[i + start, j] = out[j, i + start] = self._closed_form(np.abs(b[j] - rows[i]))
            else:
                out[start : start + step] = self._closed_form(np.abs(b[None] - rows[:, None]))
        return out

    def _closed_form(self, d) -> np.ndarray:
        """Kernel values of separations ``d``, whose last axis holds the coordinates."""
        if self.kind == "profile":
            factors = kernel_profile(d, self.profile)
        elif self.kind == "cosine_power":
            factors = np.cos(d) ** (2 * self.power)
        else:
            factors = np.abs(np.cos(d)) ** (2.0 * self.exponent)
        return _clip_unit(np.prod(factors, axis=-1))

    def coordinate_features(self, x) -> np.ndarray | None:
        """Real features of n values of one coordinate, an (n, w) array.

        The per-coordinate kernel is their inner product, so ``matrix(A, B)``
        equals the product over d of ``F(A[:, d]) @ F(B[:, d]).T`` up to
        roundoff, with F this map: sqrt(c_0), then sqrt(2 c_k) cos(f k x)
        and sqrt(2 c_k) sin(f k x) for k = 1..w//2, from the Fourier series
        in the module docstring (f = 2 for cosine powers, 2 pi for
        profiles).  ``None`` for ``fractional_cosine``, which is no finite
        series.
        """
        if self.kind == "fractional_cosine":
            return None
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ValueError("coordinate_features takes a 1-D array of coordinate values")
        if self.kind == "cosine_power":
            n = self.power
            coeffs = np.array([math.comb(2 * n, n - k) / 4**n for k in range(n + 1)])
            frequency = 2.0
        else:
            r = self.profile.weights
            coeffs = np.array([r[: r.size - k] @ r[k:] for k in range(r.size)])
            frequency = 2.0 * math.pi
        scale = np.sqrt(2.0 * coeffs[1:])
        phase = np.multiply.outer(x, frequency * np.arange(1, coeffs.size))
        constant = np.full((x.size, 1), math.sqrt(coeffs[0]))
        return np.hstack([constant, scale * np.cos(phase), scale * np.sin(phase)])

    def _coord_rows(self, points) -> np.ndarray:
        p = _frozen_array(points, float, "kernel coordinates")
        if p.ndim != 2 or p.shape[1] != self.dimension:
            raise ValueError("point dimension does not match this kernel spec")
        return p
