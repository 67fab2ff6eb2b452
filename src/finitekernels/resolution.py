"""Kernel resolution: the variance functional, its closed forms, and profile optimization.

The resolution of a profile kernel is the standard deviation of the
renormalized kernel density on one period,

    variance = int x^2 k(x) dx / int k(x) dx,   x in [-1/2, 1/2],

which reduces to the Rayleigh quotient r^T K r / r^T r of the mode-space
matrix K with entries 1/12 on the diagonal and (-1)^|n-m| / (2 (n-m)^2 pi^2)
off it.  Smaller variance means a sharper kernel.  The sharpest profile of
a given length is the ground eigenvector of K, which is entrywise positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import AmplitudeProfile, msi_profile, tsq_profile

RESOLUTION_DIAGONAL = 1.0 / 12.0


def build_resolution_matrix(size: int) -> np.ndarray:
    """Mode-space matrix of the variance quadratic form."""
    if size < 1:
        raise ValueError("matrix size must be a positive integer")
    n = np.arange(size)
    d = n[:, None] - n[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        matrix = ((-1.0) ** np.abs(d)) / (2.0 * math.pi**2 * d.astype(float) ** 2)
    np.fill_diagonal(matrix, RESOLUTION_DIAGONAL)
    return matrix


def rayleigh_quotient(weights, matrix: np.ndarray | None = None) -> float:
    """Raw quotient w K w / w w on any finite nonzero weight vector.

    Scale-invariant: rescaling the weights by any positive constant leaves
    the value unchanged, so it can be evaluated before renormalization.
    """
    w = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    denom = float(w @ w)
    if denom <= 0.0:
        raise ValueError("weights must be a nonzero vector")
    if matrix is None:
        matrix = build_resolution_matrix(w.size)
    return float(w @ matrix @ w) / denom


@dataclass(frozen=True)
class ResolutionReport:
    """Variance and derived quantities of one profile's kernel."""

    variance: float
    resolution: float
    renorm: float
    profile: AmplitudeProfile

    def __post_init__(self) -> None:
        if self.variance < 0.0:
            raise ValueError("variance must be nonnegative")
        expected = float(self.profile.weights @ self.profile.weights)
        if abs(self.renorm - expected) > 1e-12:
            raise ValueError("renorm must equal the sum of squared weights")


def resolution_quadratic(profile: AmplitudeProfile) -> ResolutionReport:
    """Variance via the mode-space quadratic form."""
    w = profile.weights
    variance = rayleigh_quotient(w)
    return ResolutionReport(
        variance=variance,
        resolution=math.sqrt(variance),
        renorm=float(w @ w),
        profile=profile,
    )


def resolution_numeric(profile: AmplitudeProfile, panels: int = 65536) -> float:
    """Variance via composite Simpson quadrature of the kernel density.

    Independent of the quadratic form: evaluates the kernel pointwise on
    [-1/2, 1/2] and integrates x^2 k(x) against k(x).  ``panels`` is rounded
    up to the next even count.  The default keeps the quadrature error below
    1e-11 even for profiles with ~64 modes, whose integrand oscillates at
    frequencies up to 2 pi (L-1).
    """
    if panels < 64:
        raise ValueError("need at least 64 quadrature panels")
    panels += panels % 2
    x = np.linspace(-0.5, 0.5, panels + 1)
    z = np.exp(2.0j * math.pi * x)
    # Horner evaluation of sum_n r_n z^n
    s = np.zeros_like(z)
    for w in profile.weights[::-1]:
        s = s * z + w
    kappa = np.abs(s) ** 2
    h = 1.0 / panels
    simpson = np.ones(panels + 1)
    simpson[1:-1:2] = 4.0
    simpson[2:-1:2] = 2.0
    simpson *= h / 3.0
    denom = float(simpson @ kappa)
    num = float(simpson @ (x**2 * kappa))
    return num / denom


def msi_variance_closed_form(n_terms: int) -> float:
    """Closed-form variance of the equal-weight profile with L >= 2 terms.

    Equals (1/12) (1 - S1) with
    S1 = -(12 / pi^2) sum_{j=1}^{L-1} (-1)^j (L - j) / (L j^2).
    """
    if n_terms < 2:
        raise ValueError("closed form needs at least 2 terms")
    j = np.arange(1, n_terms)
    s1 = -(12.0 / math.pi**2) * float(
        np.sum(((-1.0) ** j) * (n_terms - j) / (n_terms * j.astype(float) ** 2))
    )
    return (1.0 - s1) / 12.0


# ---------- profile optimization ----------


def optimize_profile(length: int) -> AmplitudeProfile:
    """Minimize the variance quotient over nonnegative profiles of a given length.

    The minimizer of r^T K r / r^T r over all nonzero r is the ground
    eigenvector of K, as for the minimum-bias tapers of Riedel & Sidorenko
    (IEEE Trans. Signal Process. 43, 1995).  It is entrywise positive, so the
    nonnegativity constraint does not bind.  That positivity is what makes it
    the constrained optimum, so it is checked, not assumed: a failure raises
    ``RuntimeError`` instead of returning a profile that is not the optimum.
    K commutes with index reversal, so the mean of the eigenvector and its
    reverse is a ground eigenvector too, and is returned: exactly palindromic.
    """
    if length < 2:
        raise ValueError("optimization needs at least 2 weights")
    r = np.linalg.eigh(build_resolution_matrix(length))[1][:, 0]
    if r.sum() < 0.0:
        r = -r
    if not np.all(r > 0.0):
        raise RuntimeError(
            f"ground eigenvector of the {length}-mode resolution matrix is not positive"
        )
    return AmplitudeProfile.from_unnormalized(0.5 * (r + r[::-1]))


# ---------- family sweep ----------

SWEEP_FAMILIES = ("msi", "tsq", "optimized")


@dataclass(frozen=True)
class SweepPoint:
    """One (family, length) entry of a resolution sweep."""

    family: str
    length: int
    variance: float
    resolution: float


def resolution_sweep(
    lengths,
    families=SWEEP_FAMILIES,
    tsq_squeezing: float = 3.0,
) -> list[SweepPoint]:
    """Variance and resolution of each profile family at each length.

    Rows are emitted family-major in the given order; ``len(lengths) *
    len(families)`` rows total.
    """
    lens = [int(v) for v in lengths]
    if not lens:
        raise ValueError("lengths must be nonempty")
    if any(v < 2 for v in lens):
        raise ValueError("sweep lengths must be >= 2")
    fams = list(families)
    if not fams:
        raise ValueError("families must be nonempty")
    unknown = set(fams) - set(SWEEP_FAMILIES)
    if unknown:
        raise ValueError(f"unknown families: {sorted(unknown)}")

    rows: list[SweepPoint] = []
    for family in fams:
        for length in lens:
            if family == "msi":
                profile = msi_profile(length)
            elif family == "tsq":
                profile = tsq_profile(length, tsq_squeezing)
            else:
                profile = optimize_profile(length)
            report = resolution_quadratic(profile)
            rows.append(
                SweepPoint(
                    family=family,
                    length=length,
                    variance=report.variance,
                    resolution=report.resolution,
                )
            )
    return rows
