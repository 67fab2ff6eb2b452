"""Synthetic 2-D benchmark datasets, pre-scaled to a kernel convention.

Three generators, all deterministic in the seed: concentric rings, two
interleaved moon arcs, and an XOR-style four-blob layout.  Train and test
splits are drawn together and rescaled jointly, so both land in the same
affine frame; each split lists its +1 points first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import _as_int, _check_choice, _check_labels, _frozen_array, rescale_dataset

DATASET_NAMES = ("concentric", "moons", "xor")


def _check_points(points, labels) -> tuple[np.ndarray, np.ndarray]:
    """Read-only float copies of a finite nonempty 2-D point array and its +1/-1 labels."""
    pts = _frozen_array(points, float, "points", 2)
    return pts, _check_labels(labels, pts.shape[0])


@dataclass(frozen=True)
class LabeledSet:
    """Finite points with +1/-1 labels; the +1 block precedes the -1 block."""

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        pts, y = _check_points(self.points, self.labels)
        if not (np.any(y > 0) and np.any(y < 0)):
            raise ValueError("both classes must be nonempty")
        if np.any(np.diff(y) > 0):
            raise ValueError("the +1 block must precede the -1 block")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", y)

    @property
    def size(self) -> int:
        return int(self.points.shape[0])


def _concentric(rng: np.random.Generator, n_pos: int, n_neg: int) -> tuple[np.ndarray, np.ndarray]:
    # uniform-in-area disk vs annulus, light jitter
    theta = rng.uniform(0.0, 2.0 * np.pi, n_pos)
    radius = 0.40 * np.sqrt(rng.uniform(0.0, 1.0, n_pos))
    pos = np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])
    theta = rng.uniform(0.0, 2.0 * np.pi, n_neg)
    radius = np.sqrt(rng.uniform(0.70**2, 1.0, n_neg))
    neg = np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])
    jitter = rng.normal(0.0, 0.03, (n_pos + n_neg, 2))
    return pos + jitter[:n_pos], neg + jitter[n_pos:]


def _moons(rng: np.random.Generator, n_pos: int, n_neg: int) -> tuple[np.ndarray, np.ndarray]:
    t = rng.uniform(0.0, np.pi, n_pos)
    pos = np.column_stack([np.cos(t), np.sin(t)])
    t = rng.uniform(0.0, np.pi, n_neg)
    neg = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
    jitter = rng.normal(0.0, 0.12, (n_pos + n_neg, 2))
    return pos + jitter[:n_pos], neg + jitter[n_pos:]


def _xor(rng: np.random.Generator, n_pos: int, n_neg: int) -> tuple[np.ndarray, np.ndarray]:
    def blobs(n: int, signs) -> np.ndarray:
        centers = np.asarray(signs, dtype=float)
        picks = centers[np.arange(n) % len(centers)]
        return picks + rng.normal(0.0, 0.35, (n, 2))

    pos = blobs(n_pos, [(1.0, 1.0), (-1.0, -1.0)])
    neg = blobs(n_neg, [(1.0, -1.0), (-1.0, 1.0)])
    return pos, neg


_GENERATORS = {"concentric": _concentric, "moons": _moons, "xor": _xor}


def generate_dataset(
    name: str,
    seed: int,
    train_size: int = 40,
    test_size: int = 60,
    convention: str = "cosine",
) -> tuple[LabeledSet, LabeledSet]:
    """Deterministic train/test split of a named benchmark dataset.

    Both splits are rescaled with one shared affine map onto the requested
    convention's domain, so kernel separations are comparable across splits.
    """
    _check_choice(name, DATASET_NAMES, "dataset")
    seed = _as_int(seed, "seed", 0)
    train_size = _as_int(train_size, "train_size", 2)
    test_size = _as_int(test_size, "test_size", 2)
    rng = np.random.default_rng(seed)
    n_train_pos = train_size // 2
    n_test_pos = test_size // 2
    n_pos = n_train_pos + n_test_pos
    n_neg = (train_size - n_train_pos) + (test_size - n_test_pos)
    pos, neg = _GENERATORS[name](rng, n_pos, n_neg)

    raw = np.vstack([pos, neg])
    scaled = rescale_dataset(raw, convention)
    pos, neg = scaled[:n_pos], scaled[n_pos:]

    train_points = np.vstack([pos[:n_train_pos], neg[: train_size - n_train_pos]])
    test_points = np.vstack([pos[n_train_pos:], neg[train_size - n_train_pos :]])
    train_labels = np.concatenate(
        [np.ones(n_train_pos), -np.ones(train_size - n_train_pos)]
    )
    test_labels = np.concatenate(
        [np.ones(n_test_pos), -np.ones(test_size - n_test_pos)]
    )
    return (
        LabeledSet(train_points, train_labels),
        LabeledSet(test_points, test_labels),
    )


def best_random_linear_accuracy(
    points, labels, trials: int = 1000, seed: int = 0
) -> float:
    """Best accuracy over random affine classifiers (each taken with its flip).

    A Monte Carlo lower bound on the best linear separator, used to certify
    that a dataset is not linearly separable to a given level.  The points
    must form a finite nonempty 2-D array, with one +1/-1 label each.
    """
    pts, y = _check_points(points, labels)
    trials = _as_int(trials, "trials", 1)
    rng = np.random.default_rng(_as_int(seed, "seed", 0))
    normals = rng.normal(size=(trials, pts.shape[1]))
    span = np.abs(pts).max()
    offsets = rng.uniform(-span, span, trials)
    scores = pts @ normals.T - offsets  # (n_points, trials)
    acc = np.mean((scores > 0.0) == (y[:, None] > 0.0), axis=0)
    return float(np.maximum(acc, 1.0 - acc).max())
