"""Kernel SVM on precomputed Gram matrices, matching the slack-variable program

    minimize    sum_m a_m^2 + gamma * sum_m u_m
    subject to  y_i * sum_m a_m G_im >= 1 - u_i,   u_i >= 0,

with no bias term.  The regularizer is the plain squared norm of the
coefficients, so the program stays convex for any symmetric Gram matrix,
indefinite sampled ones included.  The solver maximizes the box-constrained
dual with a primal active-set method, solving each face of the box exactly
through an eigendecomposition, and terminates on the KKT residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

import numpy as np

SYMMETRY_TOL = 1e-12
KKT_TOL = 1e-8
# eigenvalues of Q_FF below this fraction of the largest count as its null space
_RCOND = 1e-12
# train's default budget of active-set iterations, and a cold refit's in train_path
_MAX_ITERATIONS = 200_000

CONDITION_POLICIES = ("clip", "shift", "none")


@dataclass(frozen=True)
class GramMatrix:
    """Square kernel matrix with measurement provenance.

    ``provenance`` is ``"exact"`` for closed-form evaluation or ``"sampled"``
    for shot-noise estimates; ``n_evaluations`` counts the kernel
    determinations that produced it.
    """

    values: np.ndarray
    provenance: str = "exact"
    seed: int | None = None
    n_evaluations: int = 0

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] == 0:
            raise ValueError("Gram values must form a nonempty square matrix")
        if not np.all(np.isfinite(v)):
            raise ValueError("Gram values must be finite")
        if np.max(np.abs(v - v.T)) > SYMMETRY_TOL:
            raise ValueError("Gram matrix must be symmetric")
        if self.provenance not in ("exact", "sampled"):
            raise ValueError("provenance must be 'exact' or 'sampled'")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True)
class TrainDiagnostics:
    """Solver byproducts: dual variables, slacks, residual, objective.

    ``sweeps`` counts the active-set iterations the solve took (from its warm
    start, for a warm fit of ``train_path``); ``train``'s ``max_sweeps`` is
    their budget.
    """

    dual: np.ndarray
    slack: np.ndarray
    kkt_residual: float
    objective: float
    sweeps: int


@dataclass(frozen=True)
class TrainedModel:
    """Decision-function coefficients over the training kernel rows."""

    coefficients: np.ndarray
    gamma: float
    train_id: str = ""
    diagnostics: TrainDiagnostics | None = None

    def __post_init__(self) -> None:
        a = np.asarray(self.coefficients, dtype=float)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("coefficients must form a nonempty vector")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "coefficients", a)


def _as_gram(gram) -> GramMatrix:
    return gram if isinstance(gram, GramMatrix) else GramMatrix(gram)


def _check_labels(labels, size: int) -> np.ndarray:
    y = np.asarray(labels, dtype=float)
    if y.shape != (size,):
        raise ValueError("labels must match the Gram size")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be +1 or -1")
    return y


def training_objective(gram, labels, gamma: float, coefficients) -> float:
    """Primal objective sum a^2 + gamma * sum hinge(1 - y f) at given coefficients."""
    g = _as_gram(gram).values
    y = _check_labels(labels, g.shape[0])
    a = np.asarray(coefficients, dtype=float)
    scores = g @ a
    slack = np.maximum(0.0, 1.0 - y * scores)
    return float(a @ a + gamma * slack.sum())


def _kkt_residual(y, gamma: float, alpha, scores, stationarity: float = 0.0) -> float:
    """KKT residual from the scores G a; stationarity is checked by the caller.

    ``train`` recovers a = G (y * alpha) / 2, so there its stationarity term
    2a - G (y * alpha) is 0 by construction and is not recomputed.
    """
    margin = y * scores
    slack = np.maximum(0.0, 1.0 - margin)
    # ndarray methods, not np.max: this runs once per solver iteration
    dual_box = float(max(0.0, -alpha.min(), alpha.max() - gamma))
    comp_margin = float(np.abs(alpha * (1.0 - slack - margin)).max())
    comp_slack = float(np.abs((gamma - alpha) * slack).max())
    return max(stationarity, dual_box, comp_margin, comp_slack)


def kkt_residual(gram, labels, gamma: float, coefficients, dual) -> float:
    """Max violation of stationarity, feasibility, and complementary slackness."""
    g = _as_gram(gram).values
    y = _check_labels(labels, g.shape[0])
    a = np.asarray(coefficients, dtype=float)
    alpha = np.asarray(dual, dtype=float)
    stationarity = float(np.max(np.abs(2.0 * a - g @ (y * alpha))))
    return _kkt_residual(y, gamma, alpha, g @ a, stationarity)


def _check_gamma(gamma: float) -> float:
    if not math.isfinite(gamma) or gamma <= 0.0:
        raise ValueError("gamma must be a finite positive real")
    return gamma


def _dual_quadratic(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Q = (1/4) diag(y) G^2 diag(y), the dual's quadratic form."""
    return (g @ g) * np.outer(y, y) / 4.0


class _Solution(NamedTuple):
    alpha: np.ndarray
    coefficients: np.ndarray
    scores: np.ndarray
    residual: float
    iterations: int


def _solve(g, q, y, gamma: float, alpha: np.ndarray, budget: int) -> _Solution:
    """Active-set iterations from a start ``alpha`` in the box [0, gamma].

    Coordinates strictly inside the box start free, the rest pinned at
    their bound; from alpha = 0 nothing is free, which is the cold start.
    ``alpha`` is updated in place.  Stops on the KKT tolerance, on a solved
    face with no violating bound coordinate, or after ``budget`` iterations.
    """
    free = (alpha > 0.0) & (alpha < gamma)
    face_solved = not free.any()
    for iterations in range(budget + 1):
        a = 0.5 * (g @ (y * alpha))
        scores = g @ a
        residual = _kkt_residual(y, gamma, alpha, scores)
        if residual < KKT_TOL or iterations == budget:
            break
        grad = 1.0 - 2.0 * (q @ alpha)
        if face_solved:  # free the bound coordinate that violates the KKT conditions most
            violation = np.where(alpha > 0.0, -grad, grad)
            violation[free] = -np.inf
            worst = int(violation.argmax())
            if violation[worst] <= 0.0:
                break
            free[worst] = True
        idx = free.nonzero()[0]
        q_ff, alpha_f, grad_f = q[idx[:, None], idx], alpha[idx], grad[idx]
        w, v = np.linalg.eigh(q_ff)
        keep = w > _RCOND * w[-1]
        basis = v[:, keep]
        coef = basis.T @ grad_f
        null = grad_f - basis @ coef
        # on a full-rank face the null part is roundoff, which at large gamma
        # can exceed any absolute bar; otherwise a null part this small cannot
        # lift the KKT residual to KKT_TOL
        newton = keep.all() or gamma * np.abs(null).max() <= 0.1 * KKT_TOL
        if newton:
            step, limit = basis @ (coef / (2.0 * w[keep])), 1.0
        else:
            # the dual is linear along the null part: follow it to a bound,
            # or to the line optimum if roundoff left it some curvature
            step = null
            curvature = step @ q_ff @ step
            limit = (step @ step) / (2.0 * curvature) if curvature > 0.0 else math.inf
        # step length at which each coordinate reaches its bound; one that stays never does
        room = np.where(step > 0.0, gamma - alpha_f, alpha_f)
        reach = np.divide(room, np.abs(step), out=np.full(idx.size, math.inf), where=step != 0.0)
        t = min(limit, float(reach.min()))
        hit = reach <= t
        alpha_f = np.minimum(np.maximum(alpha_f + t * step, 0.0), gamma)
        alpha_f[hit] = np.where(step[hit] > 0.0, gamma, 0.0)
        alpha[idx] = alpha_f
        free[idx[hit]] = False
        face_solved = (newton and not hit.any()) or not free.any()
    return _Solution(alpha, a, scores, residual, iterations)


def _cold_model(g, q, y, gamma: float, train_id: str, budget: int) -> TrainedModel:
    """The fit from alpha = 0, or ``RuntimeError`` if it stalls."""
    solution = _solve(g, q, y, gamma, np.zeros(y.size), budget)
    if solution.residual > 1e-6:
        raise RuntimeError(
            f"QP solver stalled at KKT residual {solution.residual:.3e} after "
            f"{solution.iterations} iterations"
        )
    return _model(y, gamma, train_id, solution)


def _model(y, gamma: float, train_id: str, solution: _Solution) -> TrainedModel:
    alpha, a, scores, residual, iterations = solution
    slack = np.maximum(0.0, 1.0 - y * scores)
    diagnostics = TrainDiagnostics(
        dual=alpha.copy(),
        slack=slack,
        kkt_residual=residual,
        objective=float(a @ a + gamma * slack.sum()),
        sweeps=iterations,
    )
    return TrainedModel(
        coefficients=a, gamma=float(gamma), train_id=train_id, diagnostics=diagnostics
    )


def train(
    gram,
    labels,
    gamma: float,
    train_id: str = "",
    max_sweeps: int = _MAX_ITERATIONS,
) -> TrainedModel:
    """Fit the margin program on a precomputed Gram matrix.

    Parameters
    ----------
    gram : GramMatrix or square symmetric finite array
        Kernel values between all training pairs.  Indefinite matrices are
        accepted; convexity comes from the coefficient regularizer.
    labels : array of +1/-1
    gamma : float
        Positive slack penalty.  Larger values buy training accuracy at the
        price of larger coefficients; as gamma -> 0 the coefficients vanish.
    train_id : str
        Identifier stored with the model (propagated into serialization).
    max_sweeps : int
        Budget of active-set iterations, a non-negative integer.

    Returns
    -------
    TrainedModel with diagnostics attached (dual variables, slacks, KKT
    residual, primal objective, active-set iteration count).

    Notes
    -----
    The dual is  max_{0 <= alpha <= gamma} 1'alpha - alpha' Q alpha  with
    Q = (1/4) diag(y) G^2 diag(y), always positive semidefinite.  A primal
    active-set method keeps every coordinate either free or pinned at a
    bound.  Each iteration solves the free face exactly through the
    eigendecomposition of Q_FF; where the face gradient has a part in the
    null space of Q_FF the dual is linear along it, and the step follows
    that part instead.  A step that reaches a bound pins the coordinate; on
    a solved face the bound coordinate with the largest KKT violation is
    freed.  Primal recovery is a = G (y * alpha) / 2.
    """
    g = _as_gram(gram).values
    y = _check_labels(labels, g.shape[0])
    _check_gamma(gamma)
    if isinstance(max_sweeps, bool) or not isinstance(max_sweeps, Integral) or max_sweeps < 0:
        raise ValueError("max_sweeps must be a non-negative integer")
    return _cold_model(g, _dual_quadratic(g, y), y, gamma, train_id, int(max_sweeps))


def train_path(gram, labels, gammas, train_id: str = "") -> list[TrainedModel]:
    """One model per gamma, in input order, each ``train`` at that gamma up to roundoff.

    The gammas are fitted in descending order along the regularization path
    (Hastie, Rosset, Tibshirani & Zhu, JMLR 5, 2004).  The largest is fitted
    cold, as ``train`` fits it; each smaller one starts from the previous
    dual clipped into its box, so coordinates at or above the new gamma
    start pinned there, interior ones start free and zeros stay pinned.  A
    warm start gets as many active-set iterations as there are training
    points and is kept only below ``KKT_TOL``; otherwise that gamma is
    refitted cold.  A start can cost time but cannot change the optimum:
    the coefficients are unique, so warm and cold fits agree to roundoff.
    """
    g = _as_gram(gram).values
    y = _check_labels(labels, g.shape[0])
    gammas = [_check_gamma(gamma) for gamma in gammas]
    q = _dual_quadratic(g, y)
    models: list[TrainedModel | None] = [None] * len(gammas)
    previous = None
    for k in sorted(range(len(gammas)), key=lambda k: -gammas[k]):
        gamma = gammas[k]
        if previous is not None:
            warm = _solve(g, q, y, gamma, np.clip(previous, 0.0, gamma), y.size)
            if warm.residual < KKT_TOL:
                models[k] = _model(y, gamma, train_id, warm)
        if models[k] is None:
            models[k] = _cold_model(g, q, y, gamma, train_id, _MAX_ITERATIONS)
        previous = models[k].diagnostics.dual
    return models


def accuracy(model: TrainedModel, kernel_rows, labels) -> float:
    """Fraction of points whose label matches the sign of the decision score.

    A score of exactly 0 counts as misclassified.
    """
    rows = np.asarray(kernel_rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError("kernel_rows must be a nonempty matrix")
    if rows.shape[1] != model.coefficients.size:
        raise ValueError("kernel row length must match the coefficient count")
    y = _check_labels(labels, rows.shape[0])
    scores = rows @ model.coefficients
    return float(np.mean(y * scores > 0.0))


def condition_gram(gram: GramMatrix, policy: str = "clip") -> GramMatrix:
    """Repair an indefinite sampled Gram matrix ahead of training.

    ``"clip"`` floors negative eigenvalues at zero, ``"shift"`` adds
    |lambda_min| to the diagonal when the smallest eigenvalue is negative,
    ``"none"`` returns the input unchanged.  The result is exactly
    resymmetrized.
    """
    if policy not in CONDITION_POLICIES:
        raise ValueError(f"policy must be one of {CONDITION_POLICIES}")
    if policy == "none":
        return gram
    v = np.asarray(gram.values, dtype=float)
    if policy == "clip":
        evals, evecs = np.linalg.eigh(v)
        repaired = (evecs * np.maximum(evals, 0.0)) @ evecs.T
    else:
        lam_min = float(np.linalg.eigvalsh(v)[0])
        repaired = v.copy()
        if lam_min < 0.0:
            repaired[np.diag_indices_from(repaired)] -= lam_min
    repaired = 0.5 * (repaired + repaired.T)
    return GramMatrix(
        values=repaired,
        provenance=gram.provenance,
        seed=gram.seed,
        n_evaluations=gram.n_evaluations,
    )
