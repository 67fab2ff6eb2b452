"""Closed-form kernels of the finite feature maps, plus overlap and sizing helpers.

Every kernel returns a value in [0, 1], equals 1 at zero separation, and is
symmetric in its two arguments.  Differences are reduced to their absolute
value before trigonometric evaluation so symmetry holds bit-exactly.

Only the finite kinds are positive definite.  cos^(2N) d and the profile
kernels are finite Fourier series with nonnegative coefficients, but
|cos d|^(2p) with non-integer p is an infinite series whose coefficients
alternate in sign for k > p + 1; at p = 1/2 the coefficient of cos 2kd is
(-1)^(k+1) 4 / (pi (4k^2 - 1)).  Exact Gram matrices of the fractional kind
are therefore indefinite, and ``svm.condition_gram`` repairs them before
training, as it does sampled ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .states import AmplitudeProfile, DataPoint, FeatureState, as_coords


def _clip_unit(value):
    return np.clip(value, 0.0, 1.0)


def kernel_profile(dx, profile: AmplitudeProfile):
    """|sum_n r_n e^{2 pi i n dx}|^2 -- 1-periodic in the separation dx.

    Accepts a scalar or an array of separations.
    """
    dx_arr = np.abs(np.atleast_1d(np.asarray(dx, dtype=float)))
    n = np.arange(len(profile))
    # a stack of 1 x L dots, so a scalar rounds exactly like an array entry
    phases = np.exp(2.0j * math.pi * np.multiply.outer(dx_arr, n))
    z = (phases[..., None, :] @ profile.weights)[..., 0]
    val = _clip_unit(np.abs(z) ** 2)
    return float(val[0]) if np.ndim(dx) == 0 else val


def _paired_diffs(x, xp) -> np.ndarray:
    a, b = as_coords(x), as_coords(xp)
    if a.shape != b.shape:
        raise ValueError("kernel arguments must have the same dimension")
    return np.abs(b - a)


def kernel_cosine(x, xp, power: int = 1) -> float:
    """Product over coordinates of cos^(2N) of the separation."""
    if power < 1:
        raise ValueError("power must be a positive integer")
    d = _paired_diffs(x, xp)
    return float(_clip_unit(np.prod(np.cos(d) ** (2 * power))))


def kernel_fractional(x, xp, exponent: float) -> float:
    """Product over coordinates of |cos|^(2p) of the separation, p > 0 real.

    The absolute value keeps fractional powers real and in [0, 1].
    """
    if not math.isfinite(exponent) or exponent <= 0.0:
        raise ValueError("exponent must be a finite positive real")
    d = _paired_diffs(x, xp)
    return float(_clip_unit(np.prod(np.abs(np.cos(d)) ** (2.0 * exponent))))


def kernel_phase_augmented(x: DataPoint, xp: DataPoint, power: int = 1) -> float:
    """Cosine-power kernel times cos^2 of each added dimension's phase difference.

    The first dimension's phase is the fixed reference, so its factor is
    identically 1.
    """
    if not isinstance(x, DataPoint) or not isinstance(xp, DataPoint):
        raise ValueError("kernel_phase_augmented needs DataPoint arguments")
    if x.phases is None or xp.phases is None:
        raise ValueError("kernel_phase_augmented needs phases on both points")
    if x.phases.shape != xp.phases.shape:
        raise ValueError("kernel arguments must have the same dimension")
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
    if power < 1:
        raise ValueError("power must be a positive integer")
    if scheme == "compact":
        return max(1, (power).bit_length())
    if scheme == "product":
        return power
    raise ValueError(f"unknown scheme {scheme!r}")


_KINDS = ("profile", "cosine_power", "fractional_cosine")

# Cap on the separations (times profile modes) one block of KernelSpec.matrix
# holds at once: about 1 MB of temporaries per block.
_BLOCK_ELEMENTS = 1 << 16


def _is_int(value) -> bool:
    """An integer that is not a bool: ``True`` would read as 1."""
    return isinstance(value, Integral) and not isinstance(value, bool)


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
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not _is_int(self.dimension) or self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        object.__setattr__(self, "dimension", int(self.dimension))
        needs_profile = self.kind == "profile"
        needs_power = self.kind == "cosine_power"
        needs_exponent = self.kind == "fractional_cosine"
        if needs_profile != (self.profile is not None):
            raise ValueError("profile must be set exactly for kind='profile'")
        if needs_power != (self.power is not None):
            raise ValueError("power must be set exactly for kind='cosine_power'")
        if needs_exponent != (self.exponent is not None):
            raise ValueError("exponent must be set exactly for kind='fractional_cosine'")
        if self.power is not None:
            if not _is_int(self.power) or self.power < 1:
                raise ValueError("power must be a positive integer")
            object.__setattr__(self, "power", int(self.power))
        if self.exponent is not None and (
            not math.isfinite(self.exponent) or self.exponent <= 0.0
        ):
            raise ValueError("exponent must be a finite positive real")

    @property
    def convention(self) -> str:
        """Input convention this kernel expects its data in."""
        return "interference" if self.kind == "profile" else "cosine"

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
        if self.kind == "profile":
            d = _paired_diffs(x, xp)
            if d.size != self.dimension:
                raise ValueError("point dimension does not match this kernel spec")
            out = 1.0
            for dd in d:
                out *= kernel_profile(float(dd), self.profile)
            return float(_clip_unit(out))
        a, b = as_coords(x), as_coords(xp)
        if a.size != self.dimension or b.size != self.dimension:
            raise ValueError("point dimension does not match this kernel spec")
        if self.kind == "cosine_power":
            return kernel_cosine(a, b, self.power)
        return kernel_fractional(a, b, self.exponent)

    def matrix(self, A, B) -> np.ndarray:
        """Kernel values ``K[i, j] == evaluate(A[i], B[j])``, bit for bit.

        ``A`` and ``B`` are (n, dimension) coordinate arrays.  The separations
        |B[j] - A[i]| are broadcast over blocks of rows of ``A`` and passed
        through the same closed form as :meth:`evaluate`.
        """
        a, b = self._coord_rows(A), self._coord_rows(B)
        width = len(self.profile) if self.kind == "profile" else 1
        step = max(1, _BLOCK_ELEMENTS // max(1, b.shape[0] * self.dimension * width))
        out = np.empty((a.shape[0], b.shape[0]))
        for start in range(0, a.shape[0], step):
            d = np.abs(b[None, :, :] - a[start : start + step, None, :])
            if self.kind == "profile":
                factors = kernel_profile(d, self.profile)
            elif self.kind == "cosine_power":
                factors = np.cos(d) ** (2 * self.power)
            else:
                factors = np.abs(np.cos(d)) ** (2.0 * self.exponent)
            out[start : start + step] = _clip_unit(np.prod(factors, axis=-1))
        return out

    def _coord_rows(self, points) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        if p.ndim != 2 or p.shape[1] != self.dimension:
            raise ValueError("point dimension does not match this kernel spec")
        return p
