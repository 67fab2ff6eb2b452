import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from finitekernels import (
    GramMatrix,
    KernelSpec,
    ShotNoiseConfig,
    TrainedModel,
    accuracy,
    compute_gram,
    condition_gram,
    generate_dataset,
    kernel_rows,
    kkt_residual,
    train,
    train_path,
    training_objective,
)
from finitekernels import svm
from finitekernels.bench import BenchmarkConfig, _prepare
from finitekernels.cli import parse_kernel
from finitekernels.reports import load_gram_csv, write_gram_csv


def brute_force_dual(gram, labels, gamma):
    """Exact maximum of 1'a - a'Qa over the box [0, gamma]^M.

    Enumerates every complementarity pattern (each coordinate at 0, interior,
    or at gamma), solves the interior stationarity system, keeps feasible
    candidates, and returns the best value with its argument.  Exhaustive,
    so it is an oracle independent of the iterative solver.
    """
    m = len(labels)
    q = 0.25 * np.outer(labels, labels) * (gram @ gram)
    best_val, best_alpha = -np.inf, None
    for pattern in itertools.product((0, 1, 2), repeat=m):
        alpha = np.zeros(m)
        interior = [i for i, p in enumerate(pattern) if p == 1]
        capped = [i for i, p in enumerate(pattern) if p == 2]
        alpha[capped] = gamma
        if interior:
            rhs = 0.5 * np.ones(len(interior))
            if capped:
                rhs = rhs - gamma * q[np.ix_(interior, capped)].sum(axis=1)
            qii = q[np.ix_(interior, interior)]
            sol, *_ = np.linalg.lstsq(qii, rhs, rcond=None)
            if np.linalg.norm(qii @ sol - rhs) > 1e-9 * max(1.0, np.linalg.norm(rhs)):
                continue
            if sol.min() < -1e-9 or sol.max() > gamma + 1e-9:
                continue
            alpha[interior] = np.clip(sol, 0.0, gamma)
        val = alpha.sum() - alpha @ q @ alpha
        if val > best_val:
            best_val, best_alpha = val, alpha.copy()
    return best_val, best_alpha


def small_instances():
    """Deterministic corpus of all-size-M <= 4 training problems."""
    rng = np.random.default_rng(20)
    corpus = []
    for m in (2, 3, 4):
        for _ in range(6):
            pts = rng.normal(size=(m, 2))
            gram = np.exp(-((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1) / 2.0)
            labels = rng.choice([-1.0, 1.0], size=m)
            if np.all(labels == labels[0]):
                labels[0] = -labels[0]
            labels = np.sort(labels)[::-1]
            corpus.append((gram, labels))
    # duplicated point with conflicting labels: singular Gram
    corpus.append((np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, -1.0])))
    return corpus


class TestAgainstBruteForce:
    @pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
    def test_objective_matches_oracle(self, gamma):
        for gram, labels in small_instances():
            dual_val, alpha_star = brute_force_dual(gram, labels, gamma)
            oracle_a = 0.5 * gram @ (labels * alpha_star)
            oracle_obj = training_objective(gram, labels, gamma, oracle_a)
            model = train(GramMatrix(gram), labels, gamma)
            solver_obj = training_objective(gram, labels, gamma, model.coefficients)
            rel = abs(solver_obj - oracle_obj) / max(1.0, abs(oracle_obj))
            assert rel < 1e-4
            # strong duality: primal optimum equals the dual optimum
            assert abs(oracle_obj - dual_val) / max(1.0, abs(dual_val)) < 1e-8

    def test_kkt_residuals_below_tolerance(self):
        for gram, labels in small_instances():
            for gamma in (0.1, 1.0, 10.0):
                model = train(GramMatrix(gram), labels, gamma)
                assert model.diagnostics.kkt_residual < 1e-8


class TestTrainBasics:
    def test_orthogonal_two_point_solution(self):
        model = train(GramMatrix(np.eye(2)), np.array([1.0, -1.0]), gamma=100.0)
        np.testing.assert_allclose(model.coefficients, [1.0, -1.0], atol=1e-10)
        np.testing.assert_allclose(model.diagnostics.dual, [2.0, 2.0], atol=1e-8)
        assert model.diagnostics.kkt_residual < 1e-8

    def test_label_flip_equivariance_bitwise(self):
        rng = np.random.default_rng(33)
        pts = rng.normal(size=(8, 2))
        gram = np.exp(-((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        labels = np.array([1.0] * 4 + [-1.0] * 4)
        m_pos = train(GramMatrix(gram), labels, gamma=2.0)
        m_neg = train(GramMatrix(gram), -labels, gamma=2.0)
        assert np.array_equal(m_neg.coefficients, -m_pos.coefficients)
        assert np.array_equal(m_neg.diagnostics.dual, m_pos.diagnostics.dual)

    def test_vanishing_budget_gives_vanishing_coefficients(self):
        gram = np.array([[1.0, 0.3], [0.3, 1.0]])
        labels = np.array([1.0, -1.0])
        model = train(GramMatrix(gram), labels, gamma=1e-8)
        assert np.abs(model.coefficients).max() < 1e-7

    def test_conflicting_duplicates_force_slack(self):
        gram = np.array([[1.0, 1.0], [1.0, 1.0]])
        labels = np.array([1.0, -1.0])
        model = train(GramMatrix(gram), labels, gamma=5.0)
        assert model.diagnostics.slack.max() > 0.5

    def test_optimal_objective_monotone_in_gamma(self):
        rng = np.random.default_rng(14)
        pts = rng.normal(size=(6, 2))
        gram = np.exp(-((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        labels = np.array([1.0] * 3 + [-1.0] * 3)
        values = []
        for gamma in (0.1, 0.5, 2.0, 8.0):
            model = train(GramMatrix(gram), labels, gamma)
            values.append(training_objective(gram, labels, gamma, model.coefficients))
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_labels_validated(self):
        gram = GramMatrix(np.eye(3))
        with pytest.raises(ValueError):
            train(gram, np.array([1.0, -1.0]), 1.0)  # wrong length
        with pytest.raises(ValueError):
            train(gram, np.array([1.0, 0.0, -1.0]), 1.0)  # not +-1

    def test_gamma_validated(self):
        with pytest.raises(ValueError):
            train(GramMatrix(np.eye(2)), np.array([1.0, -1.0]), 0.0)

    def test_sweep_budget_exhaustion_raises(self, monkeypatch):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(20, 2))
        gram = np.exp(-((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1) / 4.0)
        labels = np.array([1.0] * 10 + [-1.0] * 10)
        monkeypatch.setattr(svm, "_MAX_ITERATIONS", 1)
        with pytest.raises(RuntimeError, match="stalled"):
            train(GramMatrix(gram), labels, gamma=50.0)

    def test_accepts_plain_symmetric_array(self):
        model = train(np.eye(2), np.array([1.0, -1.0]), gamma=10.0)
        np.testing.assert_allclose(model.coefficients, [1.0, -1.0], atol=1e-8)


class TestObjectiveAndResidual:
    def test_objective_hand_computed(self):
        gram = np.eye(2)
        labels = np.array([1.0, -1.0])
        a = np.array([1.0, -1.0])
        # margins both exactly 1: no hinge, objective is the squared norm
        assert training_objective(gram, labels, 5.0, a) == pytest.approx(2.0, abs=1e-15)
        # shrink the coefficients: hinge turns on
        a_half = 0.5 * a
        expected = 0.5 + 5.0 * (0.5 + 0.5)
        assert training_objective(gram, labels, 5.0, a_half) == pytest.approx(expected, abs=1e-12)

    def test_residual_of_optimum_small_of_garbage_large(self):
        gram = np.eye(2)
        labels = np.array([1.0, -1.0])
        model = train(GramMatrix(gram), labels, gamma=100.0)
        good = kkt_residual(gram, labels, 100.0, model.coefficients, model.diagnostics.dual)
        assert good < 1e-8
        bad = kkt_residual(gram, labels, 100.0, np.array([5.0, 5.0]), np.array([0.0, 0.0]))
        assert bad > 1.0

    @pytest.mark.parametrize("gamma", [-1.0, 0.0, float("nan"), float("inf")])
    def test_gamma_validated(self, gamma):
        gram, labels = np.eye(2), np.array([1.0, -1.0])
        with pytest.raises(ValueError, match="gamma must be a finite positive real"):
            training_objective(gram, labels, gamma, np.zeros(2))
        with pytest.raises(ValueError, match="gamma must be a finite positive real"):
            kkt_residual(gram, labels, gamma, np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize("coefficients, dual, what", [
        ([0.0, 0.0, 0.0], [0.5], "dual"),
        ([0.0, 0.0, 0.0], [[0.0], [0.0], [0.0]], "dual"),
        ([0.5], [0.0, 0.0, 0.0], "coefficients"),
        ([0.0, np.nan, 0.0], [0.0, 0.0, 0.0], "coefficients"),
        ([0.0, 0.0, 0.0], [0.0, np.inf, 0.0], "dual"),
    ])
    def test_residual_refuses_malformed_vectors(self, coefficients, dual, what):
        with pytest.raises(ValueError, match=f"^{what} must be"):
            kkt_residual(np.eye(3), [1.0, 1.0, -1.0], 1.0, coefficients, dual)

    @pytest.mark.parametrize("coefficients", [[0.5], [[0.0], [0.0], [0.0]], [0.0, np.nan, 0.0]])
    def test_objective_refuses_malformed_coefficients(self, coefficients):
        with pytest.raises(ValueError, match="^coefficients must be"):
            training_objective(np.eye(3), [1.0, 1.0, -1.0], 1.0, coefficients)


class TestDecide:
    def test_accuracy_counts_strict_side(self):
        model = TrainedModel(coefficients=np.array([1.0]), gamma=1.0)
        rows = np.array([[1.0], [-1.0], [0.0]])
        labels = np.array([1.0, -1.0, 1.0])
        # zero score never counts as correct
        assert accuracy(model, rows, labels) == pytest.approx(2.0 / 3.0)


class TestTrainedModel:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficients_rejected(self, bad):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            TrainedModel(coefficients=np.array([0.5, bad]), gamma=1.0)

    @pytest.mark.parametrize("gamma", [-1.0, 0.0, float("nan"), float("inf")])
    def test_gamma_validated(self, gamma):
        with pytest.raises(ValueError, match="gamma must be a finite positive real"):
            TrainedModel(coefficients=np.ones(2), gamma=gamma)


class TestGramMatrix:
    def test_requires_square_symmetric(self):
        with pytest.raises(ValueError):
            GramMatrix(np.ones((2, 3)))
        with pytest.raises(ValueError):
            GramMatrix(np.array([[1.0, 0.2], [0.3, 1.0]]))

    def test_provenance_validated(self):
        with pytest.raises(ValueError):
            GramMatrix(np.eye(2), provenance="guessed")

    def test_values_read_only(self):
        gram = GramMatrix(np.eye(2))
        with pytest.raises(ValueError):
            gram.values[0, 0] = 5.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # a NaN never compares greater than the symmetry tolerance
        values = np.array([[1.0, bad], [bad, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            GramMatrix(values)

    def test_evaluation_count_validated(self):
        for bad in (-3.5, -1, 2.0, False, "many", None):
            with pytest.raises(ValueError, match="n_evaluations must be a non-negative integer"):
                GramMatrix(np.eye(2), n_evaluations=bad)
        gram = GramMatrix(np.eye(2), n_evaluations=np.uint16(1))
        assert (type(gram.n_evaluations), gram.n_evaluations) == (int, 1)

    def test_train_rejects_nan_array(self):
        # a raw array goes through the same validation as a GramMatrix
        values = np.array([[1.0, np.nan], [np.nan, 1.0]])
        labels = np.array([1.0, -1.0])
        with pytest.raises(ValueError, match="finite"):
            train(values, labels, gamma=1.0)
        with pytest.raises(ValueError, match="finite"):
            training_objective(values, labels, 1.0, np.zeros(2))
        with pytest.raises(ValueError, match="finite"):
            kkt_residual(values, labels, 1.0, np.zeros(2), np.zeros(2))
        # a score from a NaN row is no silent misclassification
        model = TrainedModel(coefficients=np.ones(2), gamma=1.0)
        for row in ([np.nan, 0.0], [np.inf, 0.0]):
            with pytest.raises(ValueError, match="kernel_rows must be finite"):
                accuracy(model, [row], [1.0])


class TestConditioning:
    def test_clip_floors_negative_eigenvalues(self):
        # eigenvalues (1, -0.01)
        gram = GramMatrix(np.array([[0.495, 0.505], [0.505, 0.495]]))
        fixed = condition_gram(gram, "clip")
        evals = np.linalg.eigvalsh(fixed.values)
        np.testing.assert_allclose(evals, [0.0, 1.0], atol=1e-12)

    def test_shift_raises_the_diagonal(self):
        gram = GramMatrix(np.array([[0.495, 0.505], [0.505, 0.495]]))
        fixed = condition_gram(gram, "shift")
        evals = np.linalg.eigvalsh(fixed.values)
        np.testing.assert_allclose(evals, [0.0, 1.01], atol=1e-12)
        np.testing.assert_allclose(np.diag(fixed.values), [0.505, 0.505], atol=1e-12)

    def test_none_passthrough(self):
        values = np.array([[0.495, 0.505], [0.505, 0.495]])
        fixed = condition_gram(GramMatrix(values), "none")
        np.testing.assert_array_equal(fixed.values, values)

    def test_psd_input_unchanged_up_to_roundoff(self):
        rng = np.random.default_rng(8)
        mat = rng.normal(size=(5, 5))
        psd = mat @ mat.T
        psd = 0.5 * (psd + psd.T)
        fixed = condition_gram(GramMatrix(psd), "clip")
        np.testing.assert_allclose(fixed.values, psd, atol=1e-10)

    def test_metadata_preserved(self):
        gram = GramMatrix(np.eye(2), provenance="sampled", n_evaluations=3)
        fixed = condition_gram(gram, "clip")
        assert fixed is not gram
        assert (fixed.provenance, fixed.n_evaluations, fixed.rank_bound) == ("sampled", 3, None)

    @pytest.mark.parametrize("policy", svm.CONDITION_POLICIES)
    def test_plain_array_accepted_and_gram_returned(self, policy):
        fixed = condition_gram(np.eye(3), policy)
        assert isinstance(fixed, GramMatrix)
        np.testing.assert_allclose(fixed.values, np.eye(3), atol=1e-12)
        with pytest.raises(ValueError, match="finite"):
            condition_gram(np.array([[1.0, np.nan], [np.nan, 1.0]]), policy)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            condition_gram(GramMatrix(np.eye(2)), "prune")


def moons_gram(kernel_text, noise=None):
    train_set, _ = generate_dataset("moons", 1, train_size=40, test_size=10,
                                    convention=parse_kernel(kernel_text).convention)
    return compute_gram(train_set, parse_kernel(kernel_text), noise=noise)


@pytest.fixture
def eigen_calls(monkeypatch):
    """The matrices handed to ``np.linalg.eigh`` and ``eigvalsh`` while a test runs."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda v, solver=solver: calls.append(v) or solver(v))
    return calls


class TestConditioningSkip:
    @pytest.mark.parametrize("kernel_text, width", [
        ("cosine:1", 3), ("cosine:3", 7), ("msi:4", 7), ("tsq:8:3", 15), ("opt:4", 7),
    ])
    def test_exact_finite_gram_records_its_rank_bound(self, kernel_text, width):
        assert moons_gram(kernel_text).rank_bound == width**2

    @pytest.mark.parametrize("policy", svm.CONDITION_POLICIES)
    def test_exact_finite_gram_returned_untouched(self, policy, eigen_calls):
        gram = moons_gram("cosine:1")
        assert condition_gram(gram, policy) is gram
        assert eigen_calls == []

    @pytest.mark.parametrize("policy", ["clip", "shift"])
    @pytest.mark.parametrize("kernel_text, noise", [
        ("cosine:0.5", None), ("cosine:1", ShotNoiseConfig(500)),
    ], ids=["fractional", "sampled"])
    def test_indefinite_kinds_still_repaired(self, kernel_text, noise, policy, eigen_calls):
        gram = moons_gram(kernel_text, noise)
        assert gram.rank_bound is None
        assert np.linalg.eigvalsh(gram.values)[0] < -1e-6
        eigen_calls.clear()
        fixed = condition_gram(gram, policy)
        assert len(eigen_calls) == 1
        assert np.linalg.eigvalsh(fixed.values)[0] >= -1e-12

    @pytest.mark.parametrize("policy", ["clip", "shift"])
    def test_gram_loaded_from_csv_still_repaired(self, policy, eigen_calls, tmp_path):
        write_gram_csv(tmp_path / "gram.csv", moons_gram("cosine:1"))
        loaded = load_gram_csv(tmp_path / "gram.csv")
        assert loaded.rank_bound is None
        condition_gram(loaded, policy)
        assert len(eigen_calls) == 1

    def test_rank_bound_validated(self):
        with pytest.raises(ValueError, match="only an exact Gram carries a rank bound"):
            GramMatrix(np.eye(2), provenance="sampled", rank_bound=2)
        for bad in (0, True, 2.0):
            with pytest.raises(ValueError, match="rank_bound must be a positive integer"):
                GramMatrix(np.eye(2), rank_bound=bad)
        assert GramMatrix(np.eye(2), rank_bound=np.int64(2)).rank_bound == 2


def cyclic_reference(gram, labels, gamma, max_sweeps=200_000, tol=1e-8):
    """Cyclic coordinate ascent on the same dual, with a cached gradient Q alpha.

    The solver ``train`` used before the active-set method, kept as a
    reference.  Returns (coefficients, dual, sweeps) after convergence or
    once the sweep budget is spent; any coefficients are primal feasible, so
    their objective bounds the optimum from above.
    """
    g = np.asarray(gram, dtype=float)
    y = np.asarray(labels, dtype=float)
    m = g.shape[0]
    q = (g @ g) * np.outer(y, y) / 4.0
    alpha = np.zeros(m)
    grad_cache = np.zeros(m)
    for sweeps in range(1, max_sweeps + 1):
        moved = 0.0
        for i in range(m):
            slope = 1.0 - 2.0 * grad_cache[i]
            if q[i, i] > 1e-30:
                new = min(gamma, max(0.0, alpha[i] + slope / (2.0 * q[i, i])))
            else:
                new = gamma if slope > 0.0 else 0.0  # linear in this coordinate
            delta = new - alpha[i]
            if delta != 0.0:
                alpha[i] = new
                grad_cache += delta * q[:, i]
                moved = max(moved, abs(delta))
        if moved == 0.0:
            break
        if sweeps % 8 == 0:
            a = 0.5 * (g @ (y * alpha))
            # an absolute bar: kkt_residual divides complementary slackness by gamma > 1
            if kkt_residual(g, y, gamma, a, alpha) < tol / max(1.0, gamma):
                break
    return 0.5 * (g @ (y * alpha)), alpha, sweeps


PINNED = (("concentric", 7), ("moons", 1), ("xor", 0))
NOISE = ShotNoiseConfig(events_per_point=2500, fidelity=0.98, seed=0)


@functools.lru_cache(maxsize=None)
def benchmark_problem(dataset, seed, kernel_text, m, noisy):
    """Conditioned Gram and labels of one benchmark fit, built as ``bench`` builds them."""
    kernel = parse_kernel(kernel_text)
    train_set, _ = generate_dataset(
        dataset, seed, train_size=m, test_size=60 if m == 40 else 50, convention=kernel.convention
    )
    gram = compute_gram(train_set, kernel, noise=NOISE if noisy else None)
    return condition_gram(gram, "clip"), train_set.labels


# The reference needs more than 9,000 sweeps (about 15 s) on these five; they
# were compared once outside the suite, with the gaps recorded in CHANGES.md.
SLOW_REFERENCE = {
    ("moons", "cosine:0.5", 10.0),
    ("moons", "cosine:0.5", 100.0),
    ("moons", "cosine:1", 100.0),
    ("moons", "cosine:2", 100.0),
    ("xor", "cosine:0.5", 100.0),
}
# gamma-sweep: m = 40, 4 kernels x 4 gammas; pipelines: m = 100, gamma = 1
BENCHMARK_FITS = [
    (ds, seed, kernel, 40, False, gamma)
    for ds, seed in PINNED
    for kernel in ("cosine:0.5", "cosine:1", "cosine:2", "msi:4")
    for gamma in (0.1, 1.0, 10.0, 100.0)
    if (ds, kernel, gamma) not in SLOW_REFERENCE
]
BENCHMARK_FITS += [
    (ds, seed, kernel, 100, False, 1.0)
    for (ds, seed), kernel in zip(PINNED, ("cosine:1", "cosine:3", "msi:4"))
]
BENCHMARK_FITS += [(ds, seed, "cosine:1", 100, True, 1.0) for ds, seed in PINNED]


@pytest.mark.parametrize(
    "dataset, seed, kernel, m, noisy, gamma",
    BENCHMARK_FITS,
    ids=[f"{d}-{k}-m{m}-{'noisy-' if n else ''}g{g:g}" for d, _, k, m, n, g in BENCHMARK_FITS],
)
def test_benchmark_fit_matches_cyclic_reference(dataset, seed, kernel, m, noisy, gamma):
    gram, labels = benchmark_problem(dataset, seed, kernel, m, noisy)
    # guards only the reference's own convergence: the noisy moons/1 fit takes 4,336 sweeps
    ref_a, _, sweeps = cyclic_reference(gram.values, labels, gamma, max_sweeps=6000)
    assert sweeps < 6000
    model = train(gram, labels, gamma)
    assert model.diagnostics.kkt_residual < 1e-8
    ref = training_objective(gram, labels, gamma, ref_a)
    new = training_objective(gram, labels, gamma, model.coefficients)
    # never above the reference beyond roundoff, and close to it
    assert new <= ref + 4 * np.finfo(float).eps * max(1.0, abs(ref))
    assert abs(new - ref) <= 1e-7 * max(1.0, abs(ref))


class TestRelativeKktResidual:
    def test_complementary_slackness_is_relative_above_gamma_one(self):
        g, y = np.eye(1), np.ones(1)
        # alpha = gamma / 2 leaves (gamma - alpha) * slack as the only violation
        for gamma, want in ((0.5, 0.25 * 0.875), (1.0, 0.5 * 0.75), (2.0, 0.5 / 2.0)):
            alpha = np.array([gamma / 2.0])
            assert kkt_residual(g, y, gamma, 0.5 * alpha, alpha) == want

    def test_stationarity_stays_absolute(self):
        # alpha = 0 with a = 1: only 2a - G (y * alpha) = 2 is violated
        assert kkt_residual(np.eye(1), np.ones(1), 100.0, np.ones(1), np.zeros(1)) == 2.0

    @pytest.mark.parametrize("seed", range(10))
    def test_cold_fit_at_large_gamma_does_not_stall(self, seed):
        # with absolute bars seeds 0, 2 and 5-9 raised "stalled": a roundoff
        # slack of about 2e-10 on free coordinates, times gamma = 1e4
        config = BenchmarkConfig(
            "moons", seed, parse_kernel("cosine:0.5"), gamma=1e4, train_size=100, test_size=60
        )
        prepared = _prepare(config)
        model = train(prepared.gram_conditioned, prepared.train_set.labels, config.gamma)
        assert model.diagnostics.kkt_residual < svm.KKT_TOL


class TestActiveSetRegressions:
    def test_low_rank_gram_converges_within_small_budget(self):
        # cyclic coordinate ascent is still at a KKT residual near 10 after 2,000 sweeps
        gram, labels = benchmark_problem("moons", 9, "cosine:0.5", 40, False)
        model = train(gram, labels, 100.0)
        assert model.diagnostics.sweeps <= 2000
        assert model.diagnostics.kkt_residual < 1e-8

    def test_large_gamma_on_rank_nine_gram_does_not_stall(self):
        # cyclic coordinate ascent is still at a KKT residual near 36 after 200,000 sweeps
        gram, labels = benchmark_problem("moons", 0, "cosine:1", 100, False)
        model = train(gram, labels, 1000.0)
        assert model.diagnostics.kkt_residual < 1e-6


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
COSINE_1 = KernelSpec(kind="cosine_power", dimension=2, power=1)


def random_problem(kind, m, seed):
    """Gram and labels of one random training problem of the named kind."""
    rng = np.random.default_rng(seed)
    labels = rng.choice([-1.0, 1.0], size=m)
    if kind == "psd":
        pts = rng.normal(size=(m, 2))
        width = rng.uniform(0.2, 4.0)
        return np.exp(-((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1) / width), labels
    if kind == "clipped":
        noise = rng.normal(scale=0.3, size=(m, m))
        values = np.clip(np.eye(m) + 0.5 * (noise + noise.T) * (1 - np.eye(m)), -1.0, 1.0)
        return condition_gram(GramMatrix(values), "clip").values, labels
    # rank-deficient: cosine:1 (rank <= 9) over points drawn with repetition
    distinct = rng.uniform(-np.pi / 2, np.pi / 2, size=(max(1, m // 2), 2))
    pts = distinct[rng.integers(0, len(distinct), size=m)]
    return COSINE_1.matrix(pts, pts), labels


problems = st.tuples(
    st.sampled_from(["psd", "clipped", "duplicated"]),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([0.01, 0.1, 1.0, 10.0, 100.0]),
)


class TestActiveSetProperties:
    @PROPERTY
    @given(problems)
    def test_kkt_residual_below_tolerance(self, problem):
        kind, m, seed, gamma = problem
        gram, labels = random_problem(kind, m, seed)
        assert train(gram, labels, gamma).diagnostics.kkt_residual < 1e-8

    @PROPERTY
    @given(problems)
    def test_label_flip_equivariance_bitwise(self, problem):
        kind, m, seed, gamma = problem
        gram, labels = random_problem(kind, m, seed)
        straight = train(gram, labels, gamma)
        flipped = train(gram, -labels, gamma)
        assert np.array_equal(flipped.coefficients, -straight.coefficients)
        assert np.array_equal(flipped.diagnostics.dual, straight.diagnostics.dual)

    @PROPERTY
    @given(problems)
    def test_objective_not_above_cyclic_reference(self, problem):
        kind, m, seed, gamma = problem
        gram, labels = random_problem(kind, m, seed)
        ref_a, _, _ = cyclic_reference(gram, labels, gamma, max_sweeps=400)
        ref = training_objective(gram, labels, gamma, ref_a)
        new = training_objective(gram, labels, gamma, train(gram, labels, gamma).coefficients)
        assert new <= ref + 1e-10 * max(1.0, abs(new))


def reference_face_step(q_ff, grad_f, alpha_f, gamma):
    """The face step in array form, as ``svm._face_step`` took it before its reach, clip
    and pins moved to Python floats: the oracle that step is held to bit for bit."""
    w, v = np.linalg.eigh(q_ff)
    limit = 1.0
    if w[0] > svm._RCOND * w[-1]:
        newton = True
        step = v @ ((v.T @ grad_f) / (2.0 * w))
    else:
        keep = w > svm._RCOND * w[-1]
        basis = v[:, keep]
        coef = basis.T @ grad_f
        null = grad_f - basis @ coef
        newton = gamma * np.abs(null).max() <= 0.1 * svm.KKT_TOL
        if newton:
            step = basis @ (coef / (2.0 * w[keep]))
        else:
            step = null
            curvature = step @ q_ff @ step
            limit = (step @ step) / (2.0 * curvature) if curvature > 0.0 else np.inf
    room = np.where(step > 0.0, gamma - alpha_f, alpha_f)
    reach = np.divide(room, np.abs(step), out=np.full(step.size, np.inf), where=step != 0.0)
    first = float(reach.min())
    t = min(limit, first)
    hit = reach <= t
    alpha_f = np.minimum(np.maximum(alpha_f + t * step, 0.0), gamma)
    if first <= limit:
        alpha_f[hit] = np.where(step[hit] > 0.0, gamma, 0.0)
    return alpha_f, hit, newton and first > limit


def reference_solve(z, gamma, alpha, budget, solved_start=False):
    """The active-set loop in array form, the oracle ``svm._solve`` is held to bit for bit:
    every face, one coordinate included, goes through ``reference_face_step``, and the
    residual is formed on every solved face before the worst violator is sought.  It
    reads the dual's factor Z = diag(y / 2) G, Q = Z Z', through the solver's products."""
    free = (alpha > 0.0) & (alpha < gamma)
    face_solved = solved_start or not free.any()
    for iterations in range(budget + 1):
        a = z.T @ alpha
        grad = 1.0 - 2.0 * (z @ a)
        if face_solved or iterations == budget:
            residual = svm._slackness(grad, alpha, gamma)
            if residual < svm.KKT_TOL or iterations == budget:
                break
        if face_solved:
            violation = np.where(alpha > 0.0, -grad, grad)
            violation[free] = -np.inf
            worst = int(violation.argmax())
            if violation[worst] <= 0.0:
                break
            free[worst] = True
        idx = free.nonzero()[0]
        rows = z[idx]
        alpha_f, hit, solved = reference_face_step(rows @ rows.T, grad[idx], alpha[idx], gamma)
        alpha[idx] = alpha_f
        if not solved:
            free[idx[hit]] = False
        face_solved = solved or not free.any()
    slack = np.maximum(0.0, grad)
    return a, svm.TrainDiagnostics(alpha, slack, residual, float(a @ a + gamma * slack.sum()),
                                   iterations)


def one_coordinate(q, g, alpha, gamma):
    return np.array([[q]]), np.array([g]), np.array([alpha]), gamma


@st.composite
def scalar_faces(draw):
    """A one-coordinate face with q > 0: Q_FF, the face gradient, the dual in [0, gamma], gamma."""
    gamma = draw(st.floats(-3.0, 5.0).map(lambda e: 10.0**e))
    q = draw(st.floats(-12.0, 6.0).map(lambda e: 10.0**e))
    # a dual gradient 1 - y * score is exactly 0 or at least about 1e-16 in size
    size = st.floats(-17.0, 3.0).map(lambda e: 10.0**e)
    g = draw(st.one_of(st.just(0.0), size, size.map(lambda x: -x)))
    alpha = draw(st.one_of(st.sampled_from([0.0, gamma]), st.floats(0.0, 1.0).map(lambda u: u * gamma)))
    return one_coordinate(q, g, alpha, gamma)


@st.composite
def block_faces(draw):
    """A face of 1 to 20 coordinates: Q_FF = B'B, the face gradient, the duals, gamma.

    Q_FF is full rank, rank deficient (down to 0) with a gradient in its range or not, or
    diagonal with powers of two, where the Newton step g / (2q) is exact and a dual of
    gamma - step or -step reaches its bound at exactly t = 1.  Duals sit at 0.0, -0.0,
    gamma or inside the box; a few gradient entries are exactly 0.
    """
    n = draw(st.integers(1, 20))
    gamma = draw(st.sampled_from([1e-3, 0.5, 1.0, 4.0, 100.0, 1e4]))
    kind = draw(st.sampled_from(["full", "deficient", "diagonal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "diagonal":
        q = 2.0 ** rng.integers(-3, 4, size=n)
        q_ff, grad = np.diag(q), rng.integers(-8, 9, size=n) * 2.0 ** rng.integers(-4, 2)
        step = grad / (2.0 * q)
    else:
        rank = n if kind == "full" else int(rng.integers(0, n))
        columns = rng.normal(size=(n + 3, rank)) @ rng.normal(size=(rank, n))
        q_ff = columns.T @ columns
        if kind == "deficient" and draw(st.booleans()):
            grad = q_ff @ rng.normal(size=n)
        else:
            grad = rng.normal(size=n) * 10.0 ** rng.uniform(-6.0, 2.0)
        grad[rng.random(n) < 0.1] = 0.0
        step = np.full(n, np.nan)  # not known ahead: no tie is planted
    ties = np.where(step > 0.0, gamma - step, -step)
    alpha = np.select(
        [rng.random(n) < 0.4, (step != 0.0) & (ties >= 0.0) & (ties <= gamma)],
        [rng.choice([0.0, -0.0, gamma], size=n), ties],
        rng.random(n) * gamma,
    )
    return q_ff, grad, alpha, gamma


def dual_factor(g, y):
    """Z = diag(y / 2) G, the factor ``train_path`` hands to every solve."""
    return (0.5 * y)[:, None] * g


def solutions_equal(new, ref):
    """Whether two (coefficients, ``TrainDiagnostics``) pairs agree bit for bit: coefficients,
    dual, slack, KKT residual, objective and iteration count.  The slack is the gradient's
    positive part, and the whole gradient is 1 - 2 Z a of the compared coefficients."""
    (a, fit), (ref_a, ref_fit) = new, ref
    floats = [(a, ref_a), (fit.dual, ref_fit.dual), (fit.slack, ref_fit.slack),
              (fit.kkt_residual, ref_fit.kkt_residual), (fit.objective, ref_fit.objective)]
    return (all(np.asarray(x, float).tobytes() == np.asarray(r, float).tobytes() for x, r in floats)
            and fit.sweeps == ref_fit.sweeps)


def check_loops_agree(g, y, gammas):
    """``svm._solve`` against ``reference_solve`` along ``gammas``, largest first: cold,
    with half the cold fit's iterations, from the solved optimum, and warm from the
    previous gamma's dual clipped as ``train_path`` clips it."""
    z = dual_factor(g, y)

    def both(gamma, start, budget, solved_start=False):
        new = svm._solve(z, gamma, start.copy(), budget, solved_start)
        ref = reference_solve(z, gamma, start.copy(), budget, solved_start)
        assert solutions_equal(new, ref), (gamma, budget, solved_start)
        return new[1]

    previous = None
    for gamma in sorted(gammas, reverse=True):
        cold = both(gamma, np.zeros(y.size), svm._MAX_ITERATIONS)
        both(gamma, np.zeros(y.size), cold.sweeps // 2)
        assert both(gamma, cold.dual, y.size, True).sweeps == 0
        if previous is not None:
            start = np.clip(previous.dual, 0.0, gamma)
            both(gamma, start, y.size, np.array_equal(start, previous.dual))
        previous = cold


class TestAgainstArrayForm:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(scalar_faces(), block_faces()))
    @example(one_coordinate(2.0, 0.0, 0.0, 1.0))  # step 0 at a bound
    @example(one_coordinate(2.0, 0.0, 0.5, 1.0))  # step 0 inside the box
    @example(one_coordinate(2.0, 3.0, 1.0, 1.0))  # pushing against gamma
    @example(one_coordinate(2.0, -3.0, 0.0, 1.0))  # pushing against 0
    # reaches gamma at exactly the full step, where alpha + step rounds below gamma
    @example(one_coordinate(0.5, 2.5987218143688304, 1.1688623898400625, 3.767584204208893))
    # the first coordinate reaches gamma at exactly t = limit = 1: pinned, face unsolved
    @example((np.diag([0.5, 2.0]), np.array([1.0, 2.0]), np.array([3.0, 1.0]), 4.0))
    # t = -0.0 from a dual of -0.0 pinned at 0, and x = -0.0 + t * step clipped to +0.0
    @example((np.eye(3), np.array([0.0, 2.0, -2.0]), np.array([-0.0, -0.0, -0.0]), 1.0))
    @example(one_coordinate(0.0, 1.0, 0.5, 1.0))  # q = 0: the linear step, through eigh
    def test_face_step_equals_array_form_bitwise(self, face):
        q_ff, grad, alpha, gamma = face
        new, hit, solved = svm._face_step(q_ff, grad, alpha.copy(), gamma)
        ref, ref_hit, ref_solved = reference_face_step(q_ff, grad, alpha.copy(), gamma)
        assert np.array(new, dtype=float).tobytes() == ref.tobytes()  # the sign of 0.0 too
        assert hit.dtype == bool and np.array_equal(hit, ref_hit)
        assert solved == ref_solved

    @pytest.mark.parametrize("dataset, seed", PINNED)
    @pytest.mark.parametrize("kernel", ["cosine:0.5", "cosine:1", "cosine:2", "msi:4"])
    def test_loop_equals_array_form_on_the_gamma_sweep(self, dataset, seed, kernel):
        gram, labels = benchmark_problem(dataset, seed, kernel, 40, False)
        check_loops_agree(gram.values, labels, [0.1, 1.0, 10.0, 100.0])

    @PROPERTY
    @given(problems)
    def test_loop_equals_array_form_on_small_problems(self, problem):
        kind, m, seed, gamma = problem
        gram, labels = random_problem(kind, m, seed)
        check_loops_agree(gram, labels, [gamma, 10.0 * gamma])

    @pytest.mark.parametrize("gamma, x", [(100.0, [1.0, 1.0 - 5e-9]), (0.1, [10.0, 10.0 - 5e-7])])
    def test_residual_ends_a_fit_that_leaves_a_violator_below_the_tolerance(self, gamma, x):
        # two points on one ray, both labelled +1: the second stays at 0 with the violation
        # 1 - x2 / x1 (5e-9, 5e-8), whose term gamma v / max(1, gamma) is below KKT_TOL
        g, y = np.outer(x, x), np.ones(2)
        check_loops_agree(g, y, [gamma])
        _, fit = svm._solve(dual_factor(g, y), gamma, np.zeros(2), svm._MAX_ITERATIONS)
        assert fit.sweeps == 1 and fit.dual[1] == 0.0
        assert fit.slack[1] > 0.0 and fit.kkt_residual < svm.KKT_TOL


def test_rank_deficient_face_takes_the_newton_step_when_its_gradient_lies_in_the_range():
    # Q_FF has rank 1 and the gradient spans its range: the step solves Q_FF step = grad / 2
    # in that range, reaching no bound, and the face ends solved
    q_ff, grad, alpha = np.ones((2, 2)), np.ones(2), np.full(2, 0.1)
    alpha_f, hit, solved = svm._face_step(q_ff, grad, alpha.copy(), 10.0)
    np.testing.assert_allclose(alpha_f, [0.35, 0.35], rtol=0.0, atol=1e-15)
    assert not hit.any() and solved
    np.testing.assert_allclose(q_ff @ (alpha_f - alpha), grad / 2.0, rtol=0.0, atol=1e-15)


SWEEP_GRAMS = [(ds, seed, kernel) for ds, seed in PINNED
               for kernel in ("cosine:0.5", "cosine:1", "cosine:2", "msi:4")]


@st.composite
def eigh_faces(draw):
    """A symmetric n x n face, n in 1..24: Q_FF = Z_F Z_F' from rows of a random Z, from
    rows of Z with repeats (rank deficient), from rows of a gamma-sweep problem's Z, or a
    diagonal with some zeros."""
    n = draw(st.integers(1, 24))
    kind = draw(st.sampled_from(["random", "repeated", "sweep", "diagonal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "diagonal":
        return np.diag(rng.normal(size=n) * (rng.random(n) < 0.8))
    if kind == "sweep":
        gram, labels = benchmark_problem(*draw(st.sampled_from(SWEEP_GRAMS)), 40, False)
        rows = dual_factor(gram.values, labels)[rng.choice(40, size=n, replace=False)]
    else:
        rows = rng.normal(size=(n, int(rng.integers(1, 2 * n + 2))))
        if kind == "repeated":
            rows = rows[rng.integers(0, max(1, n // 2), size=n)]
    return rows @ rows.T


class TestEighHandle:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(eigh_faces())
    @example(np.array([[0.0]]))
    @example(np.array([[2.5]]))
    @example(np.ones((3, 3)))
    @example(np.zeros((2, 2)))
    def test_handle_gives_the_bits_of_eigh(self, q_ff):
        w, v = svm._eigh_lo(q_ff, signature="d->dd")
        ref_w, ref_v = np.linalg.eigh(q_ff)
        assert w.dtype == ref_w.dtype and v.dtype == ref_v.dtype and v.shape == ref_v.shape
        assert w.tobytes() == ref_w.tobytes() and v.tobytes() == ref_v.tobytes()

    def test_fit_fails_loudly_when_lapack_returns_nan(self, monkeypatch):
        # LAPACK's failure reaches the handle as NaN outputs, which np.linalg.eigh's wrapper
        # turned into LinAlgError; the face step must raise it in turn, not fit on
        def failed(q_ff, signature):
            n = q_ff.shape[0]
            return np.full(n, np.nan), np.full((n, n), np.nan)

        gram, labels = benchmark_problem("moons", 1, "cosine:1", 40, False)
        monkeypatch.setattr(svm, "_eigh_lo", failed)
        model = None
        with pytest.raises(np.linalg.LinAlgError):
            model = train(gram, labels, 1.0)
        assert model is None


@functools.lru_cache(maxsize=None)
def path_problem(dataset, seed, kernel_text, m, noisy):
    """Conditioned Gram and labels of one sweep fit, as ``bench`` prepares them, and the
    closed-form test rows, which ``bench`` builds only for noisy and fractional runs."""
    config = BenchmarkConfig(
        dataset, seed, parse_kernel(kernel_text), train_size=m, test_size=30,
        noise=NOISE if noisy else None,
    )
    prepared = _prepare(config)
    rows = kernel_rows(prepared.test_set, prepared.train_set, config.kernel, noise=config.noise)
    return (*prepared[:4], rows)


@st.composite
def gamma_lists(draw):
    """Unsorted gammas in [1e-2, 1e3], at least one of them repeated."""
    values = draw(st.lists(st.floats(-2.0, 3.0).map(lambda e: 10.0**e), min_size=1, max_size=4))
    repeats = draw(st.lists(st.sampled_from(values), min_size=1, max_size=2))
    return draw(st.permutations(values + repeats))


path_problems = st.tuples(
    st.sampled_from(PINNED),
    st.sampled_from(["cosine:0.5", "cosine:1", "msi:4"]),
    st.integers(min_value=4, max_value=40),
    st.booleans(),
    gamma_lists(),
)


class TestTrainPath:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(path_problems)
    # the gamma = 1.0 warm start once stopped at iteration 0 on an unsolved
    # face: KKT residual 1.2e-9, coefficients 6.9e-10 from the cold fit
    @example((("xor", 0), "cosine:0.5", 5, False, [1.0, 10.0**1e-9, 1.0]))
    def test_equals_one_train_per_gamma(self, problem):
        (dataset, seed), kernel_text, m, noisy, gammas = problem
        train_set, test_set, _, gram, test_rows = path_problem(dataset, seed, kernel_text, m, noisy)
        path = train_path(gram, train_set.labels, gammas)
        for gamma, model in zip(gammas, path):
            cold = train(gram, train_set.labels, gamma)
            assert model.gamma == gamma
            scale = np.abs(cold.coefficients).max()
            assert np.abs(model.coefficients - cold.coefficients).max() <= 1e-9 * scale
            for rows, labels in ((gram.values, train_set.labels), (test_rows, test_set.labels)):
                assert accuracy(model, rows, labels) == accuracy(cold, rows, labels)
            if gamma == max(gammas):  # fitted cold, exactly as train fits it
                assert np.array_equal(model.coefficients, cold.coefficients)

    def test_repeated_gamma_stops_at_iteration_zero(self):
        # the warm start is the optimum, with free coordinates: no face is solved yet
        train_set, _, _, gram, _ = path_problem("moons", 1, "cosine:1", 40, False)
        first, again = train_path(gram, train_set.labels, [1.0, 1.0])
        assert ((first.diagnostics.dual > 0.0) & (first.diagnostics.dual < 1.0)).any()
        assert again.diagnostics.sweeps == 0
        assert np.array_equal(again.coefficients, first.coefficients)

    def test_models_share_no_dual_or_slack_buffer(self):
        # every warm start is a fresh clip of the previous dual, so no later solve of the
        # path writes into a dual handed back with a model, the iteration-0 refit included
        train_set, _, _, gram, _ = path_problem("moons", 1, "cosine:1", 40, False)
        path = train_path(gram, train_set.labels, [100.0, 10.0, 1.0, 0.1, 0.1])
        buffers = [x for model in path for x in (model.diagnostics.dual, model.diagnostics.slack)]
        for x, other in itertools.combinations(buffers, 2):
            assert not np.shares_memory(x, other)

    def test_warm_miss_falls_back_to_cold(self, monkeypatch):
        train_set, _, _, gram, _ = path_problem("moons", 1, "cosine:1", 40, False)
        solve, warm_residuals = svm._solve, []

        def starved(z, gamma, alpha, budget, solved_start=False):
            if not alpha.any():
                return solve(z, gamma, alpha, budget, solved_start)
            a, fit = solve(z, gamma, alpha, 0, solved_start)  # a warm start with no iterations
            warm_residuals.append(fit.kkt_residual)
            return a, fit

        monkeypatch.setattr(svm, "_solve", starved)
        gammas = [1.0, 100.0, 0.1]
        path = train_path(gram, train_set.labels, gammas)
        assert len(warm_residuals) == 2 and min(warm_residuals) >= svm.KKT_TOL
        for gamma, model in zip(gammas, path):
            cold = train(gram, train_set.labels, gamma)
            assert np.array_equal(model.coefficients, cold.coefficients)
            assert np.array_equal(model.diagnostics.dual, cold.diagnostics.dual)

    def test_gammas_validated_and_empty_list_allowed(self):
        with pytest.raises(ValueError, match="gamma must be a finite positive real"):
            train_path(np.eye(2), np.array([1.0, -1.0]), [1.0, float("nan")])
        assert train_path(np.eye(2), np.array([1.0, -1.0]), []) == []

    def test_full_rank_face_takes_newton_steps_at_large_gamma(self):
        # The gamma = 1e3 fit from the gamma = 1e4 dual.  An absolute bar on
        # the null part of a full-rank face (pure roundoff) once sent this into
        # null steps of about 1e-12, the residual stuck at 1.838e6 for 2,000
        # iterations; cold, the fit takes 31.
        kernel = parse_kernel("cosine:1")
        train_set, _ = generate_dataset("moons", 1, train_size=40, test_size=60,
                                        convention=kernel.convention)
        gram = condition_gram(compute_gram(train_set, kernel, noise=ShotNoiseConfig(500)), "clip")
        g, y = gram.values, train_set.labels
        start = train(gram, y, 1e4).diagnostics.dual
        a, fit = svm._solve(dual_factor(g, y), 1e3, np.clip(start, 0.0, 1e3), y.size)
        assert fit.kkt_residual < svm.KKT_TOL
        cold = train(gram, y, 1e3).coefficients
        assert np.abs(a - cold).max() <= 1e-9 * np.abs(cold).max()
