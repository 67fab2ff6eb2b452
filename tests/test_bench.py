import math
from dataclasses import replace

import numpy as np
import pytest

from finitekernels import (
    BenchmarkConfig,
    BoundaryGrid,
    KernelSpec,
    ShotNoiseConfig,
    TrainedModel,
    boundary_grid,
    compute_gram,
    gamma_sweep,
    generate_dataset,
    kernel_rows,
    run_benchmark,
    sample_kernel,
)
from finitekernels.bench import STREAM_GRAM, STREAM_GRID, STREAM_ROWS
from finitekernels.cli import parse_kernel
from finitekernels.states import DOMAINS, msi_profile, tsq_profile

KERNEL_N1 = KernelSpec(kind="cosine_power", dimension=2, power=1)

ORACLE_KERNELS = [
    KERNEL_N1,
    KernelSpec(kind="cosine_power", dimension=2, power=3),
    KernelSpec(kind="fractional_cosine", dimension=2, exponent=0.5),
    KernelSpec(kind="profile", dimension=2, profile=msi_profile(4)),
    KernelSpec(kind="profile", dimension=2, profile=tsq_profile(8, 3.0)),
]
ORACLE_NOISE = [None, ShotNoiseConfig(events_per_point=300, fidelity=0.98, seed=4)]


# Scalar-loop references: one KernelSpec.evaluate (and, with noise, one
# sample_kernel) call per entry, in the (stream, i, j) key order.


def measure(kappa, noise, key):
    return kappa if noise is None else sample_kernel(kappa, noise, key=key)[0]


def reference_gram(pts, kernel, noise=None, pin_diagonal=False):
    m = len(pts)
    values = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            kappa = measure(kernel.evaluate(pts[i], pts[j]), noise, (STREAM_GRAM, i, j))
            values[i, j] = values[j, i] = kappa
    for i in range(m):
        sampled = noise is not None and not pin_diagonal
        values[i, i] = measure(1.0, noise, (STREAM_GRAM, i, i)) if sampled else 1.0
    return values


def reference_rows(qpts, tpts, kernel, noise=None, stream=STREAM_ROWS):
    return np.array(
        [
            [measure(kernel.evaluate(q, t), noise, (stream, i, j)) for j, t in enumerate(tpts)]
            for i, q in enumerate(qpts)
        ]
    )


def reference_grid(model, tpts, kernel, side, noise=None):
    lo, hi = DOMAINS[kernel.convention]
    axis = np.linspace(lo, hi, side, endpoint=False)
    nodes = [np.array([x, y]) for x in axis for y in axis]
    rows = reference_rows(nodes, tpts, kernel, noise, stream=STREAM_GRID)
    return np.array([float(row @ model.coefficients) for row in rows]).reshape(side, side)


@pytest.mark.parametrize("noise", ORACLE_NOISE, ids=["exact", "sampled"])
@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=lambda k: k.kernel_id())
class TestScalarLoopOracle:
    def data(self, kernel):
        return generate_dataset(
            "moons", seed=1, train_size=9, test_size=5, convention=kernel.convention
        )

    def test_gram(self, kernel, noise):
        train, _ = self.data(kernel)
        for pin in (False, True):
            gram = compute_gram(train, kernel, noise=noise, pin_diagonal=pin)
            want = reference_gram(train.points, kernel, noise, pin_diagonal=pin)
            assert np.array_equal(gram.values, want)

    def test_rows(self, kernel, noise):
        train, test = self.data(kernel)
        rows = kernel_rows(test, train, kernel, noise=noise)
        assert np.array_equal(rows, reference_rows(test.points, train.points, kernel, noise))

    def test_grid(self, kernel, noise):
        train, _ = self.data(kernel)
        model = TrainedModel(coefficients=np.random.default_rng(2).normal(size=9), gamma=1.0)
        grid = boundary_grid(model, train, kernel, side=4, noise=noise)
        assert np.array_equal(grid.scores, reference_grid(model, train.points, kernel, 4, noise))


class TestComputeGram:
    def test_exact_counts_upper_triangle(self):
        train, _ = generate_dataset("concentric", seed=7)
        gram = compute_gram(train, KERNEL_N1)
        assert gram.n_evaluations == 780  # 40 * 39 / 2
        assert gram.provenance == "exact"
        np.testing.assert_array_equal(np.diag(gram.values), np.ones(40))
        np.testing.assert_array_equal(gram.values, gram.values.T)

    def test_exact_entries_match_kernel(self):
        train, _ = generate_dataset("moons", seed=1, train_size=6, test_size=4)
        gram = compute_gram(train, KERNEL_N1)
        for i in range(6):
            for j in range(6):
                expected = 1.0 if i == j else KERNEL_N1.evaluate(train.points[i], train.points[j])
                assert gram.values[i, j] == pytest.approx(expected, abs=1e-14)

    def test_noisy_adds_diagonal_measurements(self):
        train, _ = generate_dataset("concentric", seed=7)
        noise = ShotNoiseConfig(events_per_point=100, seed=2)
        gram = compute_gram(train, KERNEL_N1, noise=noise)
        assert gram.n_evaluations == 820  # off-diagonals plus sampled diagonal
        assert gram.provenance == "sampled"
        assert gram.seed == 2

    def test_pinned_diagonal(self):
        train, _ = generate_dataset("concentric", seed=7, train_size=8, test_size=4)
        noise = ShotNoiseConfig(events_per_point=100, seed=2)
        gram = compute_gram(train, KERNEL_N1, noise=noise, pin_diagonal=True)
        assert gram.n_evaluations == 28
        np.testing.assert_array_equal(np.diag(gram.values), np.ones(8))

    def test_noisy_deterministic(self):
        train, _ = generate_dataset("xor", seed=0, train_size=10, test_size=4)
        noise = ShotNoiseConfig(events_per_point=500, seed=5)
        a = compute_gram(train, KERNEL_N1, noise=noise)
        b = compute_gram(train, KERNEL_N1, noise=noise)
        np.testing.assert_array_equal(a.values, b.values)

    def test_noisy_entries_use_indexed_streams(self):
        # entry (i, j) must equal a direct sample with the same stream key,
        # which is what makes the Gram independent of evaluation order
        train, _ = generate_dataset("moons", seed=3, train_size=5, test_size=4)
        noise = ShotNoiseConfig(events_per_point=400, seed=11)
        gram = compute_gram(train, KERNEL_N1, noise=noise)
        for i in range(5):
            for j in range(i + 1, 5):
                kappa = KERNEL_N1.evaluate(train.points[i], train.points[j])
                direct, _ = sample_kernel(kappa, noise, key=(STREAM_GRAM, i, j))
                assert gram.values[i, j] == direct


class TestKernelRows:
    def test_exact_rows(self):
        train, test = generate_dataset("moons", seed=1, train_size=6, test_size=5)
        rows = kernel_rows(test, train, KERNEL_N1)
        assert rows.shape == (5, 6)
        assert rows[2, 3] == pytest.approx(
            KERNEL_N1.evaluate(test.points[2], train.points[3]), abs=1e-14
        )

    def test_noisy_rows_streamed_separately_from_gram(self):
        train, test = generate_dataset("moons", seed=1, train_size=4, test_size=3)
        noise = ShotNoiseConfig(events_per_point=300, seed=6)
        rows = kernel_rows(test, train, KERNEL_N1, noise=noise)
        kappa = KERNEL_N1.evaluate(test.points[0], train.points[1])
        direct, _ = sample_kernel(kappa, noise, key=(STREAM_ROWS, 0, 1))
        assert rows[0, 1] == direct
        other, _ = sample_kernel(kappa, noise, key=(STREAM_GRAM, 0, 1))
        assert STREAM_ROWS != STREAM_GRAM
        # the row stream is its own namespace
        assert rows[0, 1] == direct and (direct != other or kappa in (0.0, 1.0))


class TestBoundaryGrid:
    def test_node_count_at_default_side(self):
        train, _ = generate_dataset("concentric", seed=7, train_size=6, test_size=4)
        model = TrainedModel(coefficients=np.zeros(6), gamma=1.0)
        grid = boundary_grid(model, train, KERNEL_N1, side=35)
        assert grid.scores.shape == (35, 35)
        np.testing.assert_array_equal(grid.scores, np.zeros((35, 35)))

    def test_axes_sample_half_open_domain(self):
        train, _ = generate_dataset("concentric", seed=7, train_size=4, test_size=4)
        model = TrainedModel(coefficients=np.zeros(4), gamma=1.0)
        grid = boundary_grid(model, train, KERNEL_N1, side=10)
        assert grid.xs[0] == pytest.approx(-math.pi / 2, abs=1e-15)
        assert grid.xs[-1] < math.pi / 2
        assert np.allclose(np.diff(grid.xs), math.pi / 10)

    def test_scores_match_decision_function(self):
        train, _ = generate_dataset("moons", seed=1, train_size=5, test_size=4)
        rng = np.random.default_rng(0)
        model = TrainedModel(coefficients=rng.normal(size=5), gamma=1.0)
        grid = boundary_grid(model, train, KERNEL_N1, side=4)
        for i, x in enumerate(grid.xs):
            for j, y in enumerate(grid.ys):
                row = np.array(
                    [KERNEL_N1.evaluate(np.array([x, y]), p) for p in train.points]
                )
                assert grid.scores[i, j] == pytest.approx(
                    float(row @ model.coefficients), abs=1e-12
                )

    def test_noisy_grid_streams_keyed_by_flat_index(self):
        train, _ = generate_dataset("moons", seed=1, train_size=3, test_size=4)
        model = TrainedModel(coefficients=np.array([1.0, 0.0, 0.0]), gamma=1.0)
        noise = ShotNoiseConfig(events_per_point=200, seed=9)
        grid = boundary_grid(model, train, KERNEL_N1, side=3, noise=noise)
        # node (1, 2) has flat index 5; only the first train point contributes
        node = np.array([grid.xs[1], grid.ys[2]])
        kappa = KERNEL_N1.evaluate(node, train.points[0])
        direct, _ = sample_kernel(kappa, noise, key=(STREAM_GRID, 5, 0))
        assert grid.scores[1, 2] == pytest.approx(direct, abs=1e-15)

    def test_side_floor(self):
        train, _ = generate_dataset("moons", seed=1, train_size=3, test_size=4)
        model = TrainedModel(coefficients=np.zeros(3), gamma=1.0)
        with pytest.raises(ValueError):
            boundary_grid(model, train, KERNEL_N1, side=1)

    def test_row_output_is_x_major(self):
        xs = np.array([0.0, 1.0])
        ys = np.array([10.0, 20.0])
        grid = BoundaryGrid(xs=xs, ys=ys, scores=np.array([[1.0, 2.0], [3.0, 4.0]]))
        rows = grid.to_rows()
        np.testing.assert_allclose(
            rows,
            [[0.0, 10.0, 1.0], [0.0, 20.0, 2.0], [1.0, 10.0, 3.0], [1.0, 20.0, 4.0]],
        )


class TestRunBenchmark:
    def test_reference_run_is_clean(self):
        config = BenchmarkConfig(
            dataset="concentric", seed=7, kernel=KERNEL_N1, gamma=1.0, grid_side=5
        )
        report = run_benchmark(config)
        assert report.train_accuracy == 1.0
        assert report.test_accuracy == 1.0
        assert report.gram.n_evaluations == 780
        summary = report.summary()
        assert summary["kernel"] == "cosine:N=1:D=2"
        assert summary["train_id"] == "concentric-seed7-m40"
        assert summary["noise"] is None

    def test_repeat_runs_identical(self):
        config = BenchmarkConfig(
            dataset="moons", seed=1, kernel=KERNEL_N1, gamma=1.0, grid_side=4
        )
        a = run_benchmark(config)
        b = run_benchmark(config)
        assert a.summary() == b.summary()
        np.testing.assert_array_equal(a.grid.scores, b.grid.scores)
        np.testing.assert_array_equal(a.model.coefficients, b.model.coefficients)

    def test_train_accuracy_non_decreasing_with_sharper_kernels(self):
        # the pinned benchmark trio orders train accuracy with kernel power
        for name, seed in (("concentric", 7), ("moons", 1), ("xor", 0)):
            accs = []
            for kernel in (
                KernelSpec(kind="fractional_cosine", dimension=2, exponent=0.5),
                KernelSpec(kind="cosine_power", dimension=2, power=1),
                KernelSpec(kind="cosine_power", dimension=2, power=2),
            ):
                config = BenchmarkConfig(
                    dataset=name, seed=seed, kernel=kernel, gamma=1.0, grid_side=2
                )
                accs.append(run_benchmark(config).train_accuracy)
            assert accs[0] <= accs[1] <= accs[2]

    def test_sharpest_kernel_overfits_somewhere(self):
        # at least one pinned benchmark shows the power-2 kernel giving up
        # test accuracy relative to power 1
        drops = []
        for name, seed in (("concentric", 7), ("moons", 1), ("xor", 0)):
            accs = {}
            for power in (1, 2):
                config = BenchmarkConfig(
                    dataset=name,
                    seed=seed,
                    kernel=KernelSpec(kind="cosine_power", dimension=2, power=power),
                    gamma=1.0,
                    grid_side=2,
                )
                accs[power] = run_benchmark(config).test_accuracy
            drops.append(accs[2] <= accs[1])
        assert any(drops)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_non_finite_gamma_rejected(self, gamma):
        # nan <= 0 is false, so a bare sign check lets NaN through
        with pytest.raises(ValueError, match="finite"):
            BenchmarkConfig(dataset="moons", seed=0, kernel=KERNEL_N1, gamma=gamma)

    @pytest.mark.parametrize(
        "field, value", [("seed", None), ("seed", 1.0), ("train_size", 8.0), ("test_size", "4"),
                         ("grid_side", 2.5)]
    )
    def test_non_integer_counts_and_seed_rejected(self, field, value):
        # seed=None would draw the dataset from fresh OS entropy
        with pytest.raises(ValueError, match=field):
            BenchmarkConfig(**{"dataset": "moons", "seed": 0, "kernel": KERNEL_N1, field: value})

    @pytest.mark.parametrize(
        "field, value", [("seed", -1), ("train_size", 1), ("train_size", -5), ("test_size", 0),
                         ("grid_side", 1)]
    )
    def test_out_of_range_counts_and_seed_rejected(self, field, value):
        # generate_dataset would reject them only once the run had started
        with pytest.raises(ValueError, match=field):
            BenchmarkConfig(**{"dataset": "moons", "seed": 0, "kernel": KERNEL_N1, field: value})

    def test_numbers_stored_as_python_scalars(self):
        config = BenchmarkConfig("moons", np.int64(1), KERNEL_N1, gamma=np.int32(2),
                                 train_size=np.int32(8), test_size=np.uint8(4),
                                 grid_side=np.int16(3))
        fields = ("seed", "train_size", "test_size", "grid_side", "gamma")
        assert [type(getattr(config, f)) for f in fields] == [int, int, int, int, float]
        assert (config.seed, config.gamma) == (1, 2.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BenchmarkConfig(dataset="spirals", seed=0, kernel=KERNEL_N1)
        with pytest.raises(ValueError):
            BenchmarkConfig(dataset="moons", seed=0, kernel=KERNEL_N1, gamma=0.0)
        with pytest.raises(ValueError):
            BenchmarkConfig(dataset="moons", seed=0, kernel=KERNEL_N1, grid_side=1)
        with pytest.raises(ValueError):
            BenchmarkConfig(
                dataset="moons", seed=0, kernel=KERNEL_N1, condition_policy="drop"
            )


class TestGammaSweep:
    @pytest.mark.parametrize("noise", [None, ShotNoiseConfig(events_per_point=1000)],
                             ids=["exact", "sampled"])
    @pytest.mark.parametrize("kernel", [ORACLE_KERNELS[0], ORACLE_KERNELS[3], ORACLE_KERNELS[2]],
                             ids=lambda k: k.kernel_id())
    def test_equals_one_benchmark_per_gamma(self, kernel, noise):
        config = BenchmarkConfig("moons", 1, kernel, noise=noise, grid_side=2)
        for gammas in ([0.01, 0.3, 3, 300], [3, 0.01, 300, 3, 0.3]):
            want = []
            for gamma in gammas:
                report = run_benchmark(replace(config, gamma=gamma))
                want.append((report.train_accuracy, report.test_accuracy))
            assert gamma_sweep(config, gammas) == want

    @pytest.mark.parametrize("gamma", [math.nan, 0.0])
    def test_bad_gamma_rejected_before_any_gram(self, gamma, monkeypatch):
        def no_gram(*args, **kwargs):
            raise AssertionError("compute_gram called")

        monkeypatch.setattr("finitekernels.bench.compute_gram", no_gram)
        config = BenchmarkConfig("moons", 1, KERNEL_N1)
        with pytest.raises(ValueError, match="gamma must be a finite positive real"):
            gamma_sweep(config, [1.0, gamma])


@pytest.mark.parametrize("text", ["msi:4", "tsq:8:3"])
def test_profile_kernels_compare_and_hash_by_weights(text):
    a, b = parse_kernel(text), parse_kernel(text)
    assert a.profile.weights is not b.profile.weights
    assert a == b and hash(a) == hash(b)
    config_a, config_b = BenchmarkConfig("xor", 0, a), BenchmarkConfig("xor", 0, b)
    assert config_a == config_b and hash(config_a) == hash(config_b)
    assert a != parse_kernel("msi:5")
