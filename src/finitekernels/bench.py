"""End-to-end benchmark harness: data, Gram, training, accuracy, decision grid.

Kernel measurements are instrumented (each Gram build counts its kernel
determinations) and shot-noise streams are keyed per entry by
``(stream, i, j)``, so a sampled pipeline is reproducible no matter how its
evaluations are ordered, batched or parallelized.

Test points and grid nodes share one scorer, ``_scorer``.  An exact run of
a finite kind (one with a ``KernelSpec.feature_dimension``) evaluates each
of its M(M-1)/2 Gram pairs once and no other kernel value: it scores points
in the kind's finite feature space.  Noisy and fractional runs need every
kernel value and score through ``kernel_rows``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from .datasets import DATASET_NAMES, LabeledSet, generate_dataset
from .kernels import KernelSpec
from .optics import ShotNoiseConfig, sample_kernels
from .states import DOMAINS, _as_int, _as_positive, _check_choice, _check_type, _frozen_array
from .svm import (
    CONDITION_POLICIES,
    GramMatrix,
    TrainedModel,
    _accuracy,
    _check_size,
    condition_gram,
    train,
    train_path,
)

# stream namespaces: one per measurement context, so index pairs never collide
STREAM_GRAM = 0
STREAM_ROWS = 1
STREAM_GRID = 2


def _coords(points) -> np.ndarray:
    return points.points if isinstance(points, LabeledSet) else np.asarray(points, float)


def _stream_keys(stream: int, i, j) -> np.ndarray:
    """``(stream, i, j)`` sampling keys as uint32 rows, ``i`` and ``j`` broadcast together."""
    keys = np.empty(np.broadcast_shapes(np.shape(i), np.shape(j)) + (3,), dtype=np.uint32)
    keys[..., 0], keys[..., 1], keys[..., 2] = stream, i, j
    return keys.reshape(-1, 3)


def compute_gram(
    points,
    kernel: KernelSpec,
    noise: ShotNoiseConfig | None = None,
    pin_diagonal: bool = False,
) -> GramMatrix:
    """Kernel matrix over one point set, bitwise symmetric with a unit diagonal.

    Both paths start from ``KernelSpec.matrix(points)``, which evaluates each
    pair i <= j once.  Exact path: that matrix, symmetric and 1 on the
    diagonal by construction, counted as its M(M-1)/2 off-diagonal kernel
    evaluations.  For a finite kind it is Phi Phi^T up to roundoff, with Phi
    of width ``kernel.feature_dimension``, and the Gram records that width
    as its ``rank_bound``.
    Sampled path: each upper-triangle entry is measured once with a stream
    keyed by its indices (i, j), i < j, and written to both halves; the
    diagonal is measured too unless ``pin_diagonal`` pins it to 1.
    """
    pts = _coords(points)
    m = pts.shape[0]
    values = kernel.matrix(pts)
    evaluations = m * (m - 1) // 2
    if noise is not None:
        i, j = np.triu_indices(m, 1 if pin_diagonal else 0)
        keys = _stream_keys(STREAM_GRAM, i, j)
        values[i, j] = values[j, i] = sample_kernels(values[i, j], noise, keys)
        evaluations = i.size
    return GramMatrix(
        values=values,
        provenance="exact" if noise is None else "sampled",
        n_evaluations=evaluations,
        rank_bound=kernel.feature_dimension if noise is None else None,
    )


def kernel_rows(
    points,
    train_points,
    kernel: KernelSpec,
    noise: ShotNoiseConfig | None = None,
    stream: int = STREAM_ROWS,
) -> np.ndarray:
    """Kernel values of each query point against every training point."""
    rows = kernel.matrix(_coords(points), _coords(train_points))
    if noise is not None:
        keys = _stream_keys(stream, np.arange(rows.shape[0])[:, None], np.arange(rows.shape[1]))
        rows = sample_kernels(rows.ravel(), noise, keys).reshape(rows.shape)
    return rows


def _plane_features(points, kernel: KernelSpec) -> tuple[np.ndarray, np.ndarray]:
    """``F(x_1)`` and ``F(x_2)`` of 2-D points, F the kernel's ``coordinate_features``."""
    pts = kernel._coord_rows(_coords(points))
    if kernel.dimension != 2:
        raise ValueError("feature-space scores need points of dimension 2")
    return kernel.coordinate_features(pts[:, 0]), kernel.coordinate_features(pts[:, 1])


def _dots(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``rows[k] @ cols[k]`` for each k (``cols`` 2-D) or ``rows[k] @ cols`` (``cols`` 1-D).

    A stack of 1 x n dots: one formula for every point set, each entry equal
    to the scalar oracle ``float(row @ a)`` bit for bit, where a single
    matrix-vector product rounds differently.
    """
    return (rows[:, None, :] @ cols[..., None])[:, 0, 0]


def _scorer(points, train_points, kernel: KernelSpec, noise: ShotNoiseConfig | None,
            stream: int = STREAM_ROWS) -> Callable[[TrainedModel], np.ndarray]:
    """The decision scores of ``points`` as a function of a model over ``train_points``.

    What the scores need is built once.  An exact run of a finite kind is
    scored in feature space and evaluates no kernel value: from the
    ``_plane_features`` of both point sets, a model with coefficients a
    scores F(x_1) W . F(x_2), W = (F(t_1) * a)^T F(t_2) its w x w weights,
    equal to its closed-form row times a up to roundoff.  A noisy run or a
    fractional kind builds the points' ``kernel_rows`` in ``stream``, and a
    model scores row . a.  Both score through ``_dots``.
    """
    if noise is None and kernel.feature_dimension is not None:
        train_first, train_second = _plane_features(train_points, kernel)
        first, second = _plane_features(points, kernel)

        def scores(model: TrainedModel) -> np.ndarray:
            _check_size(model, len(train_first))
            weights = (train_first * model.coefficients[:, None]).T @ train_second
            return _dots(first @ weights, second)
    else:
        rows = kernel_rows(points, train_points, kernel, noise=noise, stream=stream)

        def scores(model: TrainedModel) -> np.ndarray:
            _check_size(model, rows.shape[1])
            return _dots(rows, model.coefficients)
    return scores


@dataclass(frozen=True)
class BoundaryGrid:
    """Decision scores on a regular grid spanning the kernel's input domain.

    Each axis is 1-D, finite and strictly increasing with at least 2 nodes;
    the scores are finite.  All three are stored as read-only float copies.
    """

    xs: np.ndarray
    ys: np.ndarray
    scores: np.ndarray  # scores[i, j] = f(xs[i], ys[j])

    def __post_init__(self) -> None:
        xs, ys = (_frozen_array(a, float, "each grid axis") for a in (self.xs, self.ys))
        for axis in (xs, ys):
            if axis.ndim != 1 or axis.size < 2:
                raise ValueError("each grid axis must be 1-D with at least 2 nodes")
            if not np.all(np.diff(axis) > 0.0):
                raise ValueError("each grid axis must be strictly increasing")
        scores = _frozen_array(self.scores, float, "grid scores")
        if scores.shape != (xs.size, ys.size):
            raise ValueError("scores shape must match the axes")
        for name, value in (("xs", xs), ("ys", ys), ("scores", scores)):
            object.__setattr__(self, name, value)

    def to_rows(self) -> np.ndarray:
        """Flat (x1, x2, score) rows, x-major."""
        xg, yg = np.meshgrid(self.xs, self.ys, indexing="ij")
        return np.column_stack([xg.ravel(), yg.ravel(), self.scores.ravel()])


def boundary_grid(
    model: TrainedModel,
    train_set,
    kernel: KernelSpec,
    side: int = 35,
    noise: ShotNoiseConfig | None = None,
) -> BoundaryGrid:
    """Decision scores on a side x side grid over the full convention domain.

    Grid nodes sample the half-open domain uniformly (endpoint excluded) and
    are scored by ``_scorer`` in stream ``STREAM_GRID``, as test points are:
    in feature space on an exact run of a finite kind, else from each node's
    kernel row, side^2 rows total.
    """
    side = _as_int(side, "grid side", 2)
    lo, hi = DOMAINS[kernel.convention]
    axis = np.linspace(lo, hi, side, endpoint=False)
    nodes = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    scores = _scorer(nodes, train_set, kernel, noise, STREAM_GRID)(model)
    return BoundaryGrid(xs=axis, ys=axis, scores=scores.reshape(side, side))


@dataclass(frozen=True)
class BenchmarkConfig:
    """Everything one benchmark run depends on."""

    dataset: str
    seed: int
    kernel: KernelSpec
    gamma: float = 1.0
    train_size: int = 40
    test_size: int = 60
    noise: ShotNoiseConfig | None = None
    grid_side: int = 35
    condition_policy: str = "clip"
    pin_noisy_diagonal: bool = False

    def __post_init__(self) -> None:
        _check_choice(self.dataset, DATASET_NAMES, "dataset")
        _check_type(self.kernel, (KernelSpec,), "kernel")
        _check_type(self.noise, (ShotNoiseConfig, type(None)), "noise")
        for name, minimum in (("seed", 0), ("train_size", 2), ("test_size", 2), ("grid_side", 2)):
            object.__setattr__(self, name, _as_int(getattr(self, name), name, minimum))
        object.__setattr__(self, "gamma", _as_positive(self.gamma, "gamma"))
        _check_choice(self.condition_policy, CONDITION_POLICIES, "condition policy")


@dataclass(frozen=True)
class BenchReport:
    """All artifacts of one benchmark run."""

    config: BenchmarkConfig
    train_set: LabeledSet
    test_set: LabeledSet
    gram: GramMatrix
    gram_conditioned: GramMatrix
    model: TrainedModel
    train_accuracy: float
    test_accuracy: float
    grid: BoundaryGrid

    def summary(self) -> dict:
        """Scalar facts of the run, JSON-ready."""
        cfg = self.config
        noise = cfg.noise
        return {
            "dataset": cfg.dataset,
            "seed": cfg.seed,
            "train_size": cfg.train_size,
            "test_size": cfg.test_size,
            "kernel": cfg.kernel.kernel_id(),
            "gamma": cfg.gamma,
            "grid_side": cfg.grid_side,
            "condition_policy": cfg.condition_policy,
            "noise": None if noise is None else asdict(noise),
            "gram_provenance": self.gram.provenance,
            "gram_evaluations": self.gram.n_evaluations,
            "train_accuracy": self.train_accuracy,
            "test_accuracy": self.test_accuracy,
            "train_id": self.model.train_id,
        }


class _Prepared(NamedTuple):
    """What a run computes before training, in ``BenchReport`` field order, plus the
    ``_scorer`` of its test points."""

    train_set: LabeledSet
    test_set: LabeledSet
    gram: GramMatrix
    gram_conditioned: GramMatrix
    test_scores: Callable[[TrainedModel], np.ndarray]


def _split(config: BenchmarkConfig) -> tuple[LabeledSet, LabeledSet]:
    """The train and test sets of a run of ``config``."""
    return generate_dataset(config.dataset, config.seed, train_size=config.train_size,
                            test_size=config.test_size, convention=config.kernel.convention)


def _prepare(config: BenchmarkConfig, split=None) -> _Prepared:
    """Everything before training; ``split`` is ``_split(config)`` when given."""
    train_set, test_set = _split(config) if split is None else split
    gram = compute_gram(
        train_set, config.kernel, noise=config.noise, pin_diagonal=config.pin_noisy_diagonal
    )
    conditioned = condition_gram(gram, config.condition_policy)
    test_scores = _scorer(test_set, train_set, config.kernel, config.noise)
    return _Prepared(train_set, test_set, gram, conditioned, test_scores)


def _train_id(config: BenchmarkConfig) -> str:
    return f"{config.dataset}-seed{config.seed}-m{config.train_size}"


def _accuracies(prepared: _Prepared, model: TrainedModel) -> tuple[float, float]:
    """The train and test accuracies of ``model``, from arrays the run built and checked."""
    train_set, test_set, _, conditioned, test_scores = prepared
    return (_accuracy(conditioned.values @ model.coefficients, train_set.labels),
            _accuracy(test_scores(model), test_set.labels))


def run_benchmark(config: BenchmarkConfig) -> BenchReport:
    """Generate data, build the Gram, train, score, and map the decision boundary."""
    prepared = _prepare(config)
    labels = prepared.train_set.labels
    model = train(prepared.gram_conditioned, labels, config.gamma, train_id=_train_id(config))
    grid = boundary_grid(model, prepared.train_set, config.kernel, config.grid_side, config.noise)
    accuracies = _accuracies(prepared, model)
    return BenchReport(config, *prepared[:4], model, *accuracies, grid)


def gamma_sweep(config: BenchmarkConfig, gammas) -> list[tuple[float, float]]:
    """The (train, test) accuracies of ``run_benchmark(replace(config, gamma=g))``, each g.

    Only training depends on gamma, so the data, Gram, conditioning and the
    test points' ``_scorer`` are built once, after every gamma is validated;
    no grid is mapped.  The models come from one ``svm.train_path``, which
    fits the gammas in descending order, each warm-started from the last.
    Its coefficients equal ``train``'s up to roundoff, so the accuracies
    equal ``run_benchmark``'s unless a score lies within roundoff of 0.
    """
    return _gamma_sweep(config, gammas)


def _gamma_sweep(config: BenchmarkConfig, gammas, split=None) -> list[tuple[float, float]]:
    """``gamma_sweep`` on ``split``, a ``_split(config)`` built once for several kernels."""
    gammas = [_as_positive(gamma, "gamma") for gamma in gammas]
    prepared = _prepare(config, split)
    labels = prepared.train_set.labels
    models = train_path(prepared.gram_conditioned, labels, gammas, train_id=_train_id(config))
    return [_accuracies(prepared, model) for model in models]
