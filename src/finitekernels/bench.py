"""End-to-end benchmark harness: data, Gram, training, accuracy, decision grid.

Kernel measurements are instrumented (each Gram build counts its kernel
determinations) and shot-noise streams are keyed per entry by
``(stream, i, j)``, so a sampled pipeline is reproducible no matter how its
evaluations are ordered, batched or parallelized.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .datasets import DATASET_NAMES, LabeledSet, generate_dataset
from .kernels import KernelSpec
from .optics import ShotNoiseConfig, sample_kernels
from .states import DOMAINS
from .svm import (
    CONDITION_POLICIES,
    GramMatrix,
    TrainedModel,
    accuracy,
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
    """Kernel matrix over one point set; upper triangle evaluated, then mirrored.

    Exact path: M(M-1)/2 kernel evaluations, unit diagonal by construction.
    Sampled path: each off-diagonal entry is measured once with a stream keyed
    by its indices; the diagonal is measured too unless ``pin_diagonal`` pins
    it to 1.
    """
    pts = _coords(points)
    m = pts.shape[0]
    upper = np.triu(kernel.matrix(pts, pts), 1)
    np.fill_diagonal(upper, 1.0)  # pinned, or measured at kappa = 1 below
    evaluations = m * (m - 1) // 2
    if noise is not None:
        i, j = np.triu_indices(m, 1 if pin_diagonal else 0)
        upper[i, j] = sample_kernels(upper[i, j], noise, _stream_keys(STREAM_GRAM, i, j))
        evaluations = i.size
    values = upper + np.triu(upper, 1).T
    return GramMatrix(
        values=values,
        provenance="exact" if noise is None else "sampled",
        seed=None if noise is None else noise.seed,
        n_evaluations=evaluations,
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


@dataclass(frozen=True)
class BoundaryGrid:
    """Decision scores on a regular grid spanning the kernel's input domain."""

    xs: np.ndarray
    ys: np.ndarray
    scores: np.ndarray  # scores[i, j] = f(xs[i], ys[j])

    def __post_init__(self) -> None:
        if self.scores.shape != (self.xs.size, self.ys.size):
            raise ValueError("scores shape must match the axes")

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

    Grid nodes sample the half-open domain uniformly (endpoint excluded);
    every node's kernel row is evaluated directly, side^2 rows total.
    """
    if side < 2:
        raise ValueError("grid side must be at least 2")
    lo, hi = DOMAINS[kernel.convention]
    axis = np.linspace(lo, hi, side, endpoint=False)
    nodes = np.array([[x, y] for x in axis for y in axis])
    rows = kernel_rows(nodes, train_set, kernel, noise=noise, stream=STREAM_GRID)
    # one dot per node: a single matrix-vector product rounds differently
    scores = np.array([row @ model.coefficients for row in rows])
    return BoundaryGrid(
        xs=axis, ys=axis.copy(), scores=scores.reshape(side, side)
    )


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
        if self.dataset not in DATASET_NAMES:
            raise ValueError(f"unknown dataset {self.dataset!r}")
        for name in ("seed", "train_size", "test_size", "grid_side"):
            if not isinstance(getattr(self, name), Integral):
                raise ValueError(f"{name} must be an integer")
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for name in ("train_size", "test_size", "grid_side"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be at least 2")
        if not math.isfinite(self.gamma) or self.gamma <= 0.0:
            raise ValueError("gamma must be a finite positive real")
        object.__setattr__(self, "gamma", float(self.gamma))
        if self.condition_policy not in CONDITION_POLICIES:
            raise ValueError(f"unknown condition policy {self.condition_policy!r}")


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
    """What a run computes before training, in ``BenchReport`` field order, plus the test rows."""

    train_set: LabeledSet
    test_set: LabeledSet
    gram: GramMatrix
    gram_conditioned: GramMatrix
    test_rows: np.ndarray


def _prepare(config: BenchmarkConfig) -> _Prepared:
    train_set, test_set = generate_dataset(
        config.dataset,
        config.seed,
        train_size=config.train_size,
        test_size=config.test_size,
        convention=config.kernel.convention,
    )
    gram = compute_gram(
        train_set, config.kernel, noise=config.noise, pin_diagonal=config.pin_noisy_diagonal
    )
    conditioned = condition_gram(gram, config.condition_policy)
    test_rows = kernel_rows(test_set, train_set, config.kernel, noise=config.noise)
    return _Prepared(train_set, test_set, gram, conditioned, test_rows)


def _train_id(config: BenchmarkConfig) -> str:
    return f"{config.dataset}-seed{config.seed}-m{config.train_size}"


def _accuracies(prepared: _Prepared, model: TrainedModel) -> tuple[float, float]:
    """The train and test accuracies of ``model``."""
    train_set, test_set, _, conditioned, test_rows = prepared
    train_acc = accuracy(model, conditioned.values, train_set.labels)
    return train_acc, accuracy(model, test_rows, test_set.labels)


def run_benchmark(config: BenchmarkConfig) -> BenchReport:
    """Generate data, build the Gram, train, score, and map the decision boundary."""
    prepared = _prepare(config)
    labels = prepared.train_set.labels
    model = train(prepared.gram_conditioned, labels, config.gamma, train_id=_train_id(config))
    grid = boundary_grid(model, prepared.train_set, config.kernel, config.grid_side, config.noise)
    return BenchReport(config, *prepared[:4], model, *_accuracies(prepared, model), grid)


def gamma_sweep(config: BenchmarkConfig, gammas) -> list[tuple[float, float]]:
    """The (train, test) accuracies of ``run_benchmark(replace(config, gamma=g))``, each g.

    Only training depends on gamma, so the data, Gram, conditioning and test
    rows are built once, after every gamma is validated; no grid is mapped.
    The models come from one ``svm.train_path``, which fits the gammas in
    descending order, each warm-started from the last.  Its coefficients
    equal ``train``'s up to roundoff, so the accuracies equal
    ``run_benchmark``'s unless a score lies within roundoff of 0.
    """
    gammas = [replace(config, gamma=gamma).gamma for gamma in gammas]
    prepared = _prepare(config)
    labels = prepared.train_set.labels
    models = train_path(prepared.gram_conditioned, labels, gammas, train_id=_train_id(config))
    return [_accuracies(prepared, model) for model in models]
