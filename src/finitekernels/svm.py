"""Kernel SVM on precomputed Gram matrices, matching the slack-variable program

    minimize    sum_m a_m^2 + gamma * sum_m u_m
    subject to  y_i * sum_m a_m G_im >= 1 - u_i,   u_i >= 0,

with no bias term.  The regularizer is the plain squared norm of the
coefficients, so the program stays convex for any symmetric Gram matrix,
indefinite sampled ones included.  The solver maximizes the box-constrained
dual with a primal active-set method, solving each face of the box exactly
through an eigendecomposition, and terminates on the KKT residual.  The
dual's m x m quadratic form Q = (1/4) diag(y) G^2 diag(y) is never formed:
the solver reads its factor Z = diag(y / 2) G, Q = Z Z', formed once per
``train_path``.  Each iteration takes the coefficients a = Z' alpha, the
gradient 1 - 2 Q alpha = 1 - 2 Z a and a face block Q_FF = Z_F Z_F' from
the free rows of Z.  A face step calls LAPACK's eigh gufunc directly, as
``np.linalg.eigh``'s wrapper costs as much on a few coordinates, and takes
the rest in Python floats, bit for bit the array form.

The KKT residual is complementary slackness read off that gradient: where
it is positive the point has that slack and gamma - alpha must vanish,
elsewhere alpha must.  Stationarity 2a = G (y * alpha) holds by
construction and the box by the step rule, so the solver checks neither;
``kkt_residual`` adds both for an arbitrary (coefficients, dual) pair.  The
solver forms the residual only where it can end the fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .states import _as_int, _as_positive, _check_choice, _check_labels, _frozen_array

SYMMETRY_TOL = 1e-12
KKT_TOL = 1e-8
# eigenvalues of Q_FF below this fraction of the largest count as its null space
_RCOND = 1e-12
# budget of active-set iterations of a cold fit
_MAX_ITERATIONS = 200_000

CONDITION_POLICIES = ("clip", "shift", "none")
_eigh_lo = np.linalg._umath_linalg.eigh_lo  # np.linalg.eigh's gufunc, resolved at import


@dataclass(frozen=True)
class GramMatrix:
    """Square kernel matrix with measurement provenance.

    ``provenance`` is ``"exact"`` for closed-form evaluation or ``"sampled"``
    for shot-noise estimates; ``n_evaluations`` counts the kernel
    determinations that produced it, an integer >= 0 and not a bool.
    ``rank_bound`` is set only on an exact Gram of a finite kind: it is then
    Phi Phi^T for that kind's feature map Phi of width ``rank_bound``
    (``KernelSpec.feature_dimension``), positive semidefinite by
    construction, and ``condition_gram`` returns it unchanged.  ``None``, as
    on sampled, fractional and loaded Grams, claims nothing.
    """

    values: np.ndarray
    provenance: str = "exact"
    n_evaluations: int = 0
    rank_bound: int | None = None

    def __post_init__(self) -> None:
        v = _frozen_array(self.values, float, "Gram values", 2)
        if v.shape[0] != v.shape[1]:
            raise ValueError("Gram values must form a square matrix")
        if np.max(np.abs(v - v.T)) > SYMMETRY_TOL:
            raise ValueError("Gram matrix must be symmetric")
        _check_choice(self.provenance, ("exact", "sampled"), "provenance")
        if self.rank_bound is not None and self.provenance != "exact":
            raise ValueError("only an exact Gram carries a rank bound")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "n_evaluations", _as_int(self.n_evaluations, "n_evaluations", 0))
        if self.rank_bound is not None:
            object.__setattr__(self, "rank_bound", _as_int(self.rank_bound, "rank_bound", 1))

    @property
    def size(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True)
class TrainDiagnostics:
    """Solver byproducts: dual variables, slacks, residual, objective.

    ``sweeps`` counts the active-set iterations the solve took (from its warm
    start, for a warm fit of ``train_path``).  ``kkt_residual`` is measured
    as ``svm.kkt_residual`` measures it: complementary slackness relative to
    gamma for gamma > 1.
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
        a = _frozen_array(self.coefficients, float, "coefficients", 1)
        object.__setattr__(self, "coefficients", a)
        object.__setattr__(self, "gamma", _as_positive(self.gamma, "gamma"))


def _as_gram(gram) -> GramMatrix:
    return gram if isinstance(gram, GramMatrix) else GramMatrix(gram)


def _check_size(model: TrainedModel, size: int) -> None:
    """Refuse a model unless it holds one coefficient per point of a ``size``-point training set."""
    if model.coefficients.size != size:
        raise ValueError(f"model has {model.coefficients.size} coefficients "
                         f"but the training set has {size} points")


def _check_vector(values, size: int, what: str) -> np.ndarray:
    """``values`` as a float array, if it is a finite vector of length ``size``."""
    v = _frozen_array(values, float, what)
    if v.shape != (size,):
        raise ValueError(f"{what} must be a vector of length {size}, got shape {v.shape}")
    return v


def _fit_arguments(gram, labels, gamma, coefficients) -> tuple:
    """The Gram values, labels, gamma and coefficients of a fit, each checked."""
    g = _as_gram(gram).values
    return (g, _check_labels(labels, g.shape[0]), _as_positive(gamma, "gamma"),
            _check_vector(coefficients, g.shape[0], "coefficients"))


def training_objective(gram, labels, gamma: float, coefficients) -> float:
    """Primal objective sum a^2 + gamma * sum hinge(1 - y f) at given coefficients."""
    g, y, gamma, a = _fit_arguments(gram, labels, gamma, coefficients)
    scores = g @ a
    slack = np.maximum(0.0, 1.0 - y * scores)
    return float(a @ a + gamma * slack.sum())


def _slackness(grad, alpha, gamma: float) -> float:
    """Complementary slackness at the dual gradient ``grad`` = 1 - y * (G a) = 1 - 2 Q alpha.

    A point with grad > 0 has slack grad, so gamma - alpha must vanish
    there; elsewhere alpha must.  Each term carries a factor up to gamma,
    so it is divided by max(1, gamma): at large gamma the absolute products
    of roundoff slacks would otherwise sit above any bar.
    """
    violation = np.where(grad > 0.0, gamma - alpha, alpha) * grad
    return float(np.abs(violation).max()) / max(1.0, gamma)


def kkt_residual(gram, labels, gamma: float, coefficients, dual) -> float:
    """Max violation of stationarity, feasibility, and complementary slackness.

    For gamma > 1 the complementary-slackness terms are relative: divided
    by gamma, the largest value alpha and gamma - alpha can take.  The
    stationarity term 2a - G (y * alpha) stays absolute.
    """
    g, y, gamma, a = _fit_arguments(gram, labels, gamma, coefficients)
    alpha = _check_vector(dual, g.shape[0], "dual")
    stationarity = float(np.max(np.abs(2.0 * a - g @ (y * alpha))))
    dual_box = float(max(0.0, -alpha.min(), alpha.max() - gamma))
    return max(stationarity, dual_box, _slackness(1.0 - y * (g @ a), alpha, gamma))


def _face_step(q_ff, grad_f, alpha_f, gamma: float):
    """Step on the face ``q_ff``: new duals (floats), mask of those pinned at a bound, face solved.

    A one-coordinate face with q > 0 steps g / (2q), the Newton step's bits:
    ``eigh([[q]])`` is exactly (q, [[1.0]]).  A NaN eigenvalue from ``_eigh_lo``,
    LAPACK's failure, raises ``LinAlgError`` as ``eigh`` does.  Reach, clip
    and pins are taken in Python floats with the operations of the array form.
    """
    limit, newton = 1.0, True
    if q_ff.shape[0] == 1 and q_ff[0, 0] > 0.0:
        step = [float(grad_f[0]) / (2.0 * float(q_ff[0, 0]))]
    else:
        w, v = _eigh_lo(q_ff, signature="d->dd")
        if math.isnan(w[-1]):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        # on a full-rank face the null part is roundoff, which at large gamma
        # can exceed any absolute bar, so it is not formed; otherwise a null
        # part this small cannot lift the KKT residual to KKT_TOL.  eigh sorts
        # w ascending, so the face is full rank when w[0] is kept.
        if w[0] > _RCOND * w[-1]:
            step = v @ ((v.T @ grad_f) / (2.0 * w))
        else:
            keep = w > _RCOND * w[-1]
            basis = v[:, keep]
            coef = basis.T @ grad_f
            null = grad_f - basis @ coef
            newton = gamma * np.abs(null).max() <= 0.1 * KKT_TOL
            if newton:
                step = basis @ (coef / (2.0 * w[keep]))
            else:
                # the dual is linear along the null part: follow it to a bound,
                # or to the line optimum if roundoff left it some curvature
                step = null
                curvature = step @ q_ff @ step
                limit = (step @ step) / (2.0 * curvature) if curvature > 0.0 else math.inf
        step = step.tolist()
    alpha_f = alpha_f.tolist()
    # step length at which each coordinate reaches its bound; one that stays never does
    reach = [(gamma - a if s > 0.0 else a) / abs(s) if s != 0.0 else math.inf
             for s, a in zip(step, alpha_f)]
    first = min(reach)
    t = min(limit, first)
    # a coordinate that reaches its bound within t is pinned there, none when first > limit;
    # max(0.0, -0.0) is +0.0, as np.maximum(-0.0, 0.0) is
    new = [(gamma if s > 0.0 else 0.0) if r <= t else min(max(0.0, a + t * s), gamma)
           for s, a, r in zip(step, alpha_f, reach)]
    return new, np.array([r <= t for r in reach]), newton and first > limit


def _solve(z, gamma: float, alpha: np.ndarray, budget: int,
           solved_start: bool = False) -> tuple[np.ndarray, TrainDiagnostics]:
    """Active-set iterations from a start ``alpha`` in the box [0, gamma].

    ``z`` is Z = diag(y / 2) G of the Gram G and labels y, the dual's
    quadratic form being Q = Z Z'.  Coordinates strictly inside the box
    start free, the rest pinned at their bound; from alpha = 0 nothing is
    free, which is the cold start.  ``solved_start`` says the start is
    already optimal on its face, as a previous fit's dual is when clipping it
    into this box moved nothing.  ``alpha`` is updated in place and returned
    as the dual of the fit's ``TrainDiagnostics``, after the coefficients
    a = Z' alpha.  Stops on the KKT tolerance, on a solved face with no
    violating bound coordinate, or after ``budget`` iterations.
    The residual is formed only where it can end the fit: at the budget, and
    on a solved face (a solved start at the optimum stops at iteration 0)
    unless the worst bound violator's own term |gamma v| / max(1, gamma),
    which ``_slackness`` forms with the same operations from its alpha of 0
    or gamma, already reaches ``KKT_TOL``.  A start with free coordinates on
    an unsolved face solves that face first, since a small residual there
    need not mean a small error.
    """
    # +1 at 0, -1 at gamma, 0 if free: bound * grad is a bound coordinate's KKT violation,
    # and a free coordinate's 0 cannot outrank a positive one
    bound = np.where(alpha > 0.0, np.where(alpha < gamma, 0.0, -1.0), 1.0)
    face_solved = solved_start or bound.all()
    zt, scale = z.T, max(1.0, gamma)
    for iterations in range(budget + 1):
        a = zt @ alpha
        grad = z @ a  # 1 - 2 Q alpha in place, the bits of 1.0 - 2.0 * (z @ a)
        grad *= -2.0
        grad += 1.0
        stop = iterations == budget
        if face_solved:  # find the bound coordinate that violates the KKT conditions most
            violation = bound * grad
            worst = int(violation.argmax())
            v = float(violation[worst])
            stop = stop or v <= 0.0
        if stop or face_solved and abs(gamma * v) / scale < KKT_TOL:
            residual = _slackness(grad, alpha, gamma)
            if stop or residual < KKT_TOL:
                break
        if face_solved:  # and free it
            bound[worst] = 0.0
        idx = (bound == 0.0).nonzero()[0]
        rows = z[idx]  # Q_FF = Z_F Z_F'
        alpha_f, hit, face_solved = _face_step(rows @ rows.T, grad[idx], alpha[idx], gamma)
        alpha[idx] = alpha_f
        if not face_solved:  # a solved face pinned nothing
            for i in idx[hit].tolist():
                bound[i] = -1.0 if alpha[i] > 0.0 else 1.0
            face_solved = hit.all()
    slack = np.maximum(0.0, grad)
    objective = float(a @ a + gamma * slack.sum())
    return a, TrainDiagnostics(alpha, slack, residual, objective, iterations)


def train(gram, labels, gamma: float, train_id: str = "") -> TrainedModel:
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
    freed.  Primal recovery is a = G (y * alpha) / 2.  Q itself is never
    formed: it is Z Z' for Z = diag(y / 2) G, formed once per
    ``train_path``, so a = Z' alpha, the gradient 1 - 2 Q alpha is
    1 - 2 Z a, and Q_FF is Z_F Z_F' for the free rows of Z.  Each step's
    reach, clip and pins run in Python floats, a one-coordinate face steps
    g / (2q) with ``eigh``'s bits, and any other calls ``eigh``'s LAPACK
    gufunc directly.  The KKT residual is skipped where the worst bound
    violator alone keeps it above the tolerance.  A fit ending above a KKT
    residual of 1e-6 raises ``RuntimeError``, a LAPACK failure ``LinAlgError``.
    """
    return train_path(gram, labels, [gamma], train_id)[0]


def train_path(gram, labels, gammas, train_id: str = "") -> list[TrainedModel]:
    """One model per gamma, in input order, each ``train`` at that gamma up to roundoff.

    The gammas are fitted in descending order along the regularization path
    (Hastie, Rosset, Tibshirani & Zhu, JMLR 5, 2004).  The largest is fitted
    cold, as ``train`` fits it; each smaller one starts from the previous
    dual clipped into its box, so coordinates at or above the new gamma
    start pinned there, interior ones start free and zeros stay pinned.  A
    warm start gets as many active-set iterations as there are training
    points and is kept only below ``KKT_TOL``; otherwise that gamma is
    refitted cold.  It may stop at iteration 0 only when the clip moved no
    coordinate, so that its face is the previous fit's solved face.  A start
    can cost time but cannot change the optimum: the coefficients are
    unique, so warm and cold fits agree to roundoff.
    """
    g = _as_gram(gram).values
    y = _check_labels(labels, g.shape[0])
    gammas = [_as_positive(gamma, "gamma") for gamma in gammas]
    z = (0.5 * y)[:, None] * g  # Z = diag(y / 2) G, Q = Z Z', shared by every solve
    models: list[TrainedModel | None] = [None] * len(gammas)
    fit = None
    for k in sorted(range(len(gammas)), key=lambda k: -gammas[k]):
        gamma = gammas[k]
        if fit is not None:
            start = np.clip(fit.dual, 0.0, gamma)
            a, fit = _solve(z, gamma, start, y.size, np.array_equal(start, fit.dual))
        if fit is None or fit.kkt_residual >= KKT_TOL:
            a, fit = _solve(z, gamma, np.zeros(y.size), _MAX_ITERATIONS)
            if fit.kkt_residual > 1e-6:
                raise RuntimeError(f"QP solver stalled at KKT residual {fit.kkt_residual:.3e} "
                                   f"after {fit.sweeps} iterations")
        models[k] = TrainedModel(a, gamma, train_id, fit)
    return models


def accuracy(model: TrainedModel, kernel_rows, labels) -> float:
    """Fraction of points whose label matches the sign of the decision score.

    A score of exactly 0 counts as misclassified.
    """
    rows = _frozen_array(kernel_rows, float, "kernel_rows", 2)
    _check_size(model, rows.shape[1])
    return _accuracy(rows @ model.coefficients, _check_labels(labels, rows.shape[0]))


def _accuracy(scores, y) -> float:
    """``accuracy`` from decision scores already checked: finite, one per +1/-1 label."""
    return float(np.mean(y * scores > 0.0))


def condition_gram(gram, policy: str = "clip") -> GramMatrix:
    """Repair a Gram matrix that may be indefinite ahead of training.

    ``gram`` is a ``GramMatrix`` or a square symmetric finite array.
    ``"clip"`` floors negative eigenvalues at zero, ``"shift"`` adds
    |lambda_min| to the diagonal when the smallest eigenvalue is negative,
    ``"none"`` returns the input unchanged as a ``GramMatrix``.  A repaired
    Gram is exactly resymmetrized and keeps the input's other fields.  A
    Gram with a ``rank_bound`` (an exact Gram of a finite kind, positive
    semidefinite by construction) is returned unchanged under every policy:
    repairing it would only add roundoff, whose bits depend on the BLAS
    thread count through ``eigh``.  Sampled, fractional and loaded Grams
    carry no bound and are repaired.
    """
    _check_choice(policy, CONDITION_POLICIES, "condition policy")
    gram = _as_gram(gram)
    if policy == "none" or gram.rank_bound is not None:
        return gram
    v = gram.values
    if policy == "clip":
        evals, evecs = np.linalg.eigh(v)
        repaired = (evecs * np.maximum(evals, 0.0)) @ evecs.T
    else:
        lam_min = float(np.linalg.eigvalsh(v)[0])
        repaired = v.copy()
        if lam_min < 0.0:
            repaired[np.diag_indices_from(repaired)] -= lam_min
    return replace(gram, values=0.5 * (repaired + repaired.T))
