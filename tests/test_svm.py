import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finitekernels import (
    GramMatrix,
    KernelSpec,
    ShotNoiseConfig,
    TrainedModel,
    accuracy,
    compute_gram,
    condition_gram,
    generate_dataset,
    kkt_residual,
    train,
    train_path,
    training_objective,
)
from finitekernels import svm
from finitekernels.bench import BenchmarkConfig, _prepare
from finitekernels.cli import parse_kernel


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

    def test_sweep_budget_exhaustion_raises(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(20, 2))
        gram = np.exp(-((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1) / 4.0)
        labels = np.array([1.0] * 10 + [-1.0] * 10)
        with pytest.raises(RuntimeError):
            train(GramMatrix(gram), labels, gamma=50.0, max_sweeps=1)

    @pytest.mark.parametrize("budget", [-1, 2.5, True])
    def test_sweep_budget_validated(self, budget):
        with pytest.raises(ValueError, match="max_sweeps must be a non-negative integer"):
            train(np.eye(2), np.array([1.0, -1.0]), 1.0, max_sweeps=budget)

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


class TestDecide:
    def test_accuracy_counts_strict_side(self):
        model = TrainedModel(coefficients=np.array([1.0]), gamma=1.0)
        rows = np.array([[1.0], [-1.0], [0.0]])
        labels = np.array([1.0, -1.0, 1.0])
        # zero score never counts as correct
        assert accuracy(model, rows, labels) == pytest.approx(2.0 / 3.0)


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
        gram = GramMatrix(np.eye(2), provenance="sampled", seed=4, n_evaluations=3)
        fixed = condition_gram(gram, "clip")
        assert fixed.provenance == "sampled"
        assert fixed.seed == 4
        assert fixed.n_evaluations == 3

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            condition_gram(GramMatrix(np.eye(2)), "prune")


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
            if kkt_residual(g, y, gamma, a, alpha) < tol:
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
    # guards only the reference's own convergence: the noisy moons/1 fit takes 3,392 sweeps
    ref_a, _, sweeps = cyclic_reference(gram.values, labels, gamma, max_sweeps=4000)
    assert sweeps < 4000
    model = train(gram, labels, gamma)
    assert model.diagnostics.kkt_residual < 1e-8
    ref = training_objective(gram, labels, gamma, ref_a)
    new = training_objective(gram, labels, gamma, model.coefficients)
    # never above the reference beyond roundoff, and close to it
    assert new <= ref + 4 * np.finfo(float).eps * max(1.0, abs(ref))
    assert abs(new - ref) <= 1e-7 * max(1.0, abs(ref))


class TestActiveSetRegressions:
    def test_low_rank_gram_converges_within_small_budget(self):
        # cyclic coordinate ascent is still at a KKT residual near 10 after 2,000 sweeps
        gram, labels = benchmark_problem("moons", 9, "cosine:0.5", 40, False)
        model = train(gram, labels, 100.0, max_sweeps=2000)
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


@functools.lru_cache(maxsize=None)
def path_problem(dataset, seed, kernel_text, m, noisy):
    """Conditioned Gram, test rows and labels of one sweep fit, as ``bench`` prepares them."""
    config = BenchmarkConfig(
        dataset, seed, parse_kernel(kernel_text), train_size=m, test_size=30,
        noise=NOISE if noisy else None,
    )
    return _prepare(config)


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

    def test_warm_miss_falls_back_to_cold(self, monkeypatch):
        train_set, _, _, gram, _ = path_problem("moons", 1, "cosine:1", 40, False)
        solve, warm_residuals = svm._solve, []

        def starved(g, q, y, gamma, alpha, budget):
            if not alpha.any():
                return solve(g, q, y, gamma, alpha, budget)
            solution = solve(g, q, y, gamma, alpha, 0)  # a warm start with no iterations
            warm_residuals.append(solution.residual)
            return solution

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
        q = svm._dual_quadratic(g, y)
        solution = svm._solve(g, q, y, 1e3, np.clip(start, 0.0, 1e3), y.size)
        assert solution.residual < svm.KKT_TOL
        cold = train(gram, y, 1e3).coefficients
        assert np.abs(solution.coefficients - cold).max() <= 1e-9 * np.abs(cold).max()
