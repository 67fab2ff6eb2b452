import math

import numpy as np
import pytest

from finitekernels import (
    LabeledSet,
    best_random_linear_accuracy,
    generate_dataset,
)
from finitekernels.datasets import DATASET_NAMES


class TestLabeledSet:
    def test_basic_construction(self):
        ls = LabeledSet(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, -1.0]))
        assert ls.size == 2

    def test_labels_must_be_sign_values(self):
        with pytest.raises(ValueError):
            LabeledSet(np.array([[0.0, 1.0]]), np.array([0.5]))

    def test_positive_block_must_come_first(self):
        with pytest.raises(ValueError):
            LabeledSet(
                np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]),
                np.array([-1.0, 1.0, -1.0]),
            )

    def test_both_classes_required(self):
        with pytest.raises(ValueError):
            LabeledSet(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        with pytest.raises(ValueError, match="points must be finite"):
            LabeledSet(np.array([[0.0, 1.0], [bad, 0.0]]), np.array([1.0, -1.0]))

    def test_points_read_only(self):
        ls = LabeledSet(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            ls.points[0, 0] = 9.0


class TestGenerators:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_sizes_and_balance(self, name):
        train, test = generate_dataset(name, seed=0)
        assert train.size == 40
        assert test.size == 60
        assert int((train.labels == 1).sum()) == 20
        assert int((test.labels == 1).sum()) == 30

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_deterministic(self, name):
        a_train, a_test = generate_dataset(name, seed=5)
        b_train, b_test = generate_dataset(name, seed=5)
        np.testing.assert_array_equal(a_train.points, b_train.points)
        np.testing.assert_array_equal(a_test.points, b_test.points)
        np.testing.assert_array_equal(a_train.labels, b_train.labels)

    def test_seed_changes_points(self):
        a, _ = generate_dataset("moons", seed=1)
        b, _ = generate_dataset("moons", seed=2)
        assert not np.array_equal(a.points, b.points)

    @pytest.mark.parametrize("convention,lo,hi", [
        ("cosine", -math.pi / 2, math.pi / 2),
        ("interference", -0.5, 0.5),
    ])
    def test_joint_rescale_covers_half_open_box(self, convention, lo, hi):
        train, test = generate_dataset("xor", seed=3, convention=convention)
        pts = np.vstack([train.points, test.points])
        assert pts.min() >= lo
        assert pts.max() < hi
        # the joint min and max touch the bounds in each coordinate
        assert pts.min(axis=0) == pytest.approx([lo, lo], abs=1e-9)
        assert pts.max(axis=0) == pytest.approx([hi, hi], rel=0, abs=1e-6)

    def test_custom_sizes(self):
        train, test = generate_dataset("concentric", seed=0, train_size=10, test_size=14)
        assert train.size == 10
        assert test.size == 14

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            generate_dataset("spirals", seed=0)


class TestLinearBaseline:
    def test_separable_data_reaches_unity(self):
        pts = np.vstack([np.full((10, 2), 2.0), np.full((10, 2), -2.0)])
        pts += np.random.default_rng(0).normal(scale=0.05, size=pts.shape)
        labels = np.array([1.0] * 10 + [-1.0] * 10)
        assert best_random_linear_accuracy(pts, labels) == 1.0

    def test_concentric_stays_linearly_inseparable(self):
        # frozen: best of 1000 random linear cuts on the seed-7 test split
        _, test = generate_dataset("concentric", seed=7)
        acc = best_random_linear_accuracy(test.points, test.labels)
        assert acc == 0.75
        assert acc < 1.0

    def test_deterministic(self):
        _, test = generate_dataset("moons", seed=1)
        a = best_random_linear_accuracy(test.points, test.labels)
        b = best_random_linear_accuracy(test.points, test.labels)
        assert a == b

    def test_at_least_half_by_symmetry(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(30, 2))
        labels = np.array([1.0] * 15 + [-1.0] * 15)
        assert best_random_linear_accuracy(pts, labels) >= 0.5

    @pytest.mark.parametrize("points, labels, message", [
        ([[0.0, 0.0], [1.0, 1.0]], [5.0, -1.0], r"labels must be \+1 or -1"),
        ([[np.nan, 0.0], [1.0, 1.0]], [1.0, -1.0], "points must be finite"),
        ([[0.0, 0.0], [1.0, 1.0]], [1.0, -1.0, 1.0], "one label per point"),
        ([0.0, 1.0], [1.0, -1.0], "nonempty 2-D array"),
    ])
    def test_bad_input_refused(self, points, labels, message):
        with pytest.raises(ValueError, match=message):
            best_random_linear_accuracy(points, labels)
