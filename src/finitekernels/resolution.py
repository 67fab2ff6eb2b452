"""Kernel resolution: the variance functional, its closed forms, and profile optimization.

The resolution of a profile kernel is the standard deviation of the
renormalized kernel density on one period,

    variance = int x^2 k(x) dx / int k(x) dx,   x in [-1/2, 1/2],

which reduces to the Rayleigh quotient r^T K r / r^T r of the mode-space
matrix K with entries 1/12 on the diagonal and (-1)^|n-m| / (2 (n-m)^2 pi^2)
off it.  Smaller variance means a sharper kernel.  The sharpest profile of
a given length is the ground eigenvector of K, which is entrywise positive.

K is symmetric Toeplitz, so the matrix of length L is the leading L x L
block of any larger one, and the tsq log-weights of length L are the first
L entries of any longer table.  A family sweep therefore builds one K and
one tsq table, both at its longest length, and evaluates and optimizes
every length on its leading block and prefix.
K also commutes with index reversal, so its ground eigenvector is
palindromic (Cantoni & Butler, Linear Algebra Appl. 13, 1976).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import (AmplitudeProfile, _as_int, _as_nonnegative, _as_positive, _check_choice,
                     _frozen_array, _tsq_log_weights)

RESOLUTION_DIAGONAL = 1.0 / 12.0


def build_resolution_matrix(size: int) -> np.ndarray:
    """Mode-space matrix of the variance quadratic form."""
    n = np.arange(_as_int(size, "matrix size", 1))
    d = n[:, None] - n[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        matrix = ((-1.0) ** np.abs(d)) / (2.0 * math.pi**2 * d.astype(float) ** 2)
    np.fill_diagonal(matrix, RESOLUTION_DIAGONAL)
    return matrix


def rayleigh_quotient(weights) -> float:
    """Raw quotient w K w / w w on any finite nonzero weight vector.

    Scale-invariant: rescaling the weights by any positive constant leaves
    the value unchanged, so it can be evaluated before renormalization.
    """
    w = _frozen_array(weights, float, "weights")
    if float(w @ w) <= 0.0:
        raise ValueError("weights must be a nonzero vector")
    return _quotient(w, build_resolution_matrix(w.size))


def _quotient(w: np.ndarray, matrix: np.ndarray) -> float:
    """``rayleigh_quotient`` on unchecked weights, in the one operation order."""
    return float(w @ matrix @ w) / float(w @ w)


@dataclass(frozen=True)
class ResolutionReport:
    """Variance of one profile's kernel; its ``resolution`` (the square root of the variance)
    and ``renorm`` (the sum of the squared weights) are derived, so they always agree."""

    variance: float
    profile: AmplitudeProfile

    def __post_init__(self) -> None:
        object.__setattr__(self, "variance", _as_nonnegative(self.variance, "variance"))

    @property
    def resolution(self) -> float:
        return math.sqrt(self.variance)

    @property
    def renorm(self) -> float:
        return float(self.profile.weights @ self.profile.weights)


def resolution_quadratic(profile: AmplitudeProfile) -> ResolutionReport:
    """Variance via the mode-space quadratic form."""
    return ResolutionReport(rayleigh_quotient(profile.weights), profile)


def msi_variance_closed_form(n_terms: int) -> float:
    """Closed-form variance of the equal-weight profile with L >= 2 terms.

    Equals (1/12) (1 - S1) with
    S1 = -(12 / pi^2) sum_{j=1}^{L-1} (-1)^j (L - j) / (L j^2).
    """
    n_terms = _as_int(n_terms, "n_terms", 2)
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
    K commutes with index reversal, so the ground eigenvector is palindromic
    and is solved for on its first h = ceil(L/2) entries alone: one h x h
    ``eigh``.  The returned profile is palindromic by construction.
    """
    length = _as_int(length, "optimization length", 2)
    return AmplitudeProfile(_ground_profile(build_resolution_matrix(length)))


def _ground_profile(matrix: np.ndarray) -> np.ndarray:
    """``optimize_profile``'s normalized weights on a given resolution matrix.

    A palindrome r = (u, reversed u), its middle entry shared for odd L,
    has r^T K r = 2 u^T D^2 S D^2 u and r^T r = 2 u^T D^2 u, with
    S = K[:h, :h] + K[:h, L-h:] reversed along its columns, and D the
    identity but for sqrt(1/2) at the shared entry.  So the quotient of r is
    that of v = D u under D S D, and the ground vector v gives u = v / D.
    """
    length = matrix.shape[0]
    h = (length + 1) // 2
    s = matrix[:h, :h] + matrix[:h, length - h:][:, ::-1]
    d = np.where(np.arange(h) < length // 2, 1.0, math.sqrt(0.5))
    u = np.linalg.eigh(d[:, None] * s * d)[1][:, 0] / d
    r = np.concatenate([u, u[::-1][length % 2:]])
    if r.sum() < 0.0:
        r = -r
    if not np.all(r > 0.0):
        raise RuntimeError(
            f"ground eigenvector of the {r.size}-mode resolution matrix is not positive"
        )
    return r / float(r.sum())


# ---------- family sweep ----------

SWEEP_FAMILIES = ("msi", "tsq", "optimized")


@dataclass(frozen=True)
class SweepPoint:
    """One (family, length) entry of a resolution sweep; ``resolution`` is sqrt(variance)."""

    family: str
    length: int
    variance: float

    def __post_init__(self) -> None:
        _check_choice(self.family, SWEEP_FAMILIES, "family")
        object.__setattr__(self, "length", _as_int(self.length, "sweep length", 2))
        object.__setattr__(self, "variance", _as_nonnegative(self.variance, "sweep variance"))

    @property
    def resolution(self) -> float:
        return math.sqrt(self.variance)


def resolution_sweep(
    lengths,
    families=SWEEP_FAMILIES,
    tsq_squeezing: float = 3.0,
) -> list[SweepPoint]:
    """Variance and resolution of each profile family at each length.

    Rows are emitted family-major in the given order; ``len(lengths) *
    len(families)`` rows total.  The resolution matrix is built once, at the
    longest length; each row's variance, and the optimized family's ground
    eigenvector, come from its leading block, which equals the matrix
    ``resolution_quadratic`` and ``optimize_profile`` build at that length.
    The tsq weights, likewise, are a prefix of one table, renormalized, so
    each row equals ``resolution_quadratic`` of its own profile bit for bit.
    """
    tsq_squeezing = _as_positive(tsq_squeezing, "tsq squeezing")
    lens = [_as_int(v, "sweep length", 2) for v in lengths]
    if not lens:
        raise ValueError("lengths must be nonempty")
    fams = list(families)
    if not fams:
        raise ValueError("families must be nonempty")
    for family in fams:
        _check_choice(family, SWEEP_FAMILIES, "family")

    longest = max(lens)
    full = build_resolution_matrix(longest)
    tsq = np.exp(_tsq_log_weights(longest, tsq_squeezing)) if "tsq" in fams else None
    rows: list[SweepPoint] = []
    for family in fams:
        for length in lens:
            block = full[:length, :length]
            if family == "msi":
                w = np.full(length, 1.0 / length)
            elif family == "tsq":
                w = tsq[:length] / float(tsq[:length].sum())
            else:
                w = _ground_profile(block)
            rows.append(SweepPoint(family, length, _quotient(w, block)))
    return rows
