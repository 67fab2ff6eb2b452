"""Acceptance gate: eleven protocol-level criteria, one pass/fail line each.

Every test prints ``[criterion NN] <name>: PASS`` (or FAIL) so the suite
reads as a checklist under ``pytest -v -s`` or in captured output.
"""

import itertools
import math
import time

import numpy as np

from finitekernels import (
    AmplitudeProfile,
    BenchmarkConfig,
    GramMatrix,
    KernelSpec,
    ShotNoiseConfig,
    TrainedModel,
    boundary_grid,
    build_feature_unitary,
    build_resolution_matrix,
    compute_gram,
    embed_cosine,
    embed_interference,
    embed_phase_augmented,
    generate_dataset,
    kernel_circuit,
    kernel_cosine,
    kernel_phase_augmented,
    kernel_profile,
    msi_profile,
    msi_variance_closed_form,
    optimize_profile,
    overlap_kernel,
    resolution_quadratic,
    run_benchmark,
    sample_kernel,
    train,
    training_objective,
    tsq_profile,
)
from finitekernels.cli import main as cli_main
from finitekernels.states import DataPoint

from test_resolution import resolution_numeric  # the quadrature oracle of the variance

PINNED_BENCHMARKS = (("concentric", 7), ("moons", 1), ("xor", 0))
PINNED_GAMMA = 1.0


def _report(num, name, ok, elapsed, limit):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status} ({elapsed:.2f}s / limit {limit:.0f}s)")
    assert ok, f"criterion {num} failed"
    assert elapsed < limit, f"criterion {num} overran its {limit}s budget ({elapsed:.2f}s)"


def test_criterion_01_kernel_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True

    for _ in range(200):  # profile family
        profile = AmplitudeProfile.from_unnormalized(rng.uniform(0.05, 1.0, int(rng.integers(2, 7))))
        x, xp = rng.uniform(-0.5, 0.5, 2)
        closed = kernel_profile(x - xp, profile)
        ov = overlap_kernel(embed_interference(x, profile), embed_interference(xp, profile))
        ok = ok and abs(closed - ov) < 1e-12

    for power in (1, 2, 3):  # cosine family
        for _ in range(200):
            dim = int(rng.integers(1, 3))
            x = rng.uniform(-math.pi / 2, math.pi / 2, dim)
            xp = rng.uniform(-math.pi / 2, math.pi / 2, dim)
            closed = kernel_cosine(x, xp, power=power)
            ov = overlap_kernel(embed_cosine(x, power), embed_cosine(xp, power))
            ok = ok and abs(closed - ov) < 1e-12

    for _ in range(200):  # phase-augmented family
        a = DataPoint(
            rng.uniform(-math.pi / 2, math.pi / 2, 2),
            phases=np.array([0.0, rng.uniform(-math.pi, math.pi)]),
        )
        b = DataPoint(
            rng.uniform(-math.pi / 2, math.pi / 2, 2),
            phases=np.array([0.0, rng.uniform(-math.pi, math.pi)]),
        )
        closed = kernel_phase_augmented(a, b, power=3)
        ov = overlap_kernel(embed_phase_augmented(a, power=3), embed_phase_augmented(b, power=3))
        ok = ok and abs(closed - ov) < 1e-12

    _report(1, "kernel oracle equivalence", ok, time.perf_counter() - start, 1.0)


def test_criterion_02_circuit_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(200):
        dim = int(rng.integers(1, 3))
        x = rng.uniform(-math.pi / 2, math.pi / 2, dim)
        xp = rng.uniform(-math.pi / 2, math.pi / 2, dim)
        ok = ok and abs(kernel_circuit(x, xp, power=3) - kernel_cosine(x, xp, power=3)) < 1e-10
    for _ in range(50):
        dim = int(rng.integers(1, 3))
        u = build_feature_unitary(rng.uniform(-math.pi / 2, math.pi / 2, dim), power=3)
        ok = ok and np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() < 1e-12
    _report(2, "two-photon circuit correctness", ok, time.perf_counter() - start, 1.0)


def test_criterion_03_msi_resolution_closed_form():
    start = time.perf_counter()
    ok = True
    previous = np.inf
    for n in range(2, 65):
        closed = msi_variance_closed_form(n)
        quad = resolution_quadratic(msi_profile(n)).variance
        numeric = resolution_numeric(msi_profile(n))
        ok = ok and abs(closed - quad) < 1e-10
        ok = ok and abs(closed - numeric) < 1e-10
        ok = ok and closed < previous
        previous = closed
    _report(3, "equal-weight variance closed form", ok, time.perf_counter() - start, 5.0)


def test_criterion_04_resolution_matrix_spot_values():
    start = time.perf_counter()
    k = build_resolution_matrix(6)
    ok = (
        all(k[i, i] == 1.0 / 12.0 for i in range(6))
        and k[0, 1] == -1.0 / (2.0 * math.pi**2 * 1.0)
        and k[2, 1] == -1.0 / (2.0 * math.pi**2 * 1.0)
        and k[0, 2] == 1.0 / (2.0 * math.pi**2 * 4.0)
        and k[5, 3] == 1.0 / (2.0 * math.pi**2 * 4.0)
    )
    _report(4, "resolution matrix spot values", ok, time.perf_counter() - start, 1.0)


def test_criterion_05_optimizer_dominance():
    start = time.perf_counter()
    ok = True

    for length in range(4, 33):
        v_opt = resolution_quadratic(optimize_profile(length)).variance
        ok = ok and v_opt < msi_variance_closed_form(length)

    v_opt14 = resolution_quadratic(optimize_profile(14)).variance
    v_tsq14 = resolution_quadratic(tsq_profile(14, 3.0)).variance
    ok = ok and v_opt14 < v_tsq14

    # two-mode brute force: scan (t, 1 - t) at step 1e-4
    k2 = build_resolution_matrix(2)
    t = np.linspace(0.0, 1.0, 10_001)
    w2 = np.column_stack([t, 1.0 - t])
    q2 = np.einsum("ni,ij,nj->n", w2, k2, w2) / np.einsum("ni,ni->n", w2, w2)
    best2 = w2[int(np.argmin(q2))]
    ok = ok and np.abs(optimize_profile(2).weights - best2).max() < 1e-3

    # three-mode brute force: full simplex grid at step 1e-3
    k3 = build_resolution_matrix(3)
    step = 1000
    ij = np.array([(i, j) for i in range(step + 1) for j in range(step + 1 - i)], dtype=float)
    w3 = np.column_stack([ij[:, 0], ij[:, 1], step - ij[:, 0] - ij[:, 1]]) / step
    q3 = np.einsum("ni,ij,nj->n", w3, k3, w3) / np.einsum("ni,ni->n", w3, w3)
    best3 = w3[int(np.argmin(q3))]
    ok = ok and np.abs(optimize_profile(3).weights - best3).max() < 1e-3

    _report(5, "profile optimizer dominance", ok, time.perf_counter() - start, 60.0)


def test_criterion_06_shot_noise_estimator():
    start = time.perf_counter()
    config = ShotNoiseConfig(events_per_point=2500, fidelity=1.0, seed=123)
    estimates = np.array([sample_kernel(0.5, config, key=(i,))[0] for i in range(10_000)])
    sd = float(estimates.std(ddof=1))
    mean = float(estimates.mean())
    se = sd / math.sqrt(estimates.size)
    ok = abs(sd - 0.01) < 0.001 and abs(mean - 0.5) < 3 * se
    _report(6, "shot-noise estimator statistics", ok, time.perf_counter() - start, 30.0)


def _brute_force_dual(gram, labels, gamma):
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


def test_criterion_07_qp_solver_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20)
    corpus = []
    for m in (2, 3, 4):
        for _ in range(6):
            pts = rng.normal(size=(m, 2))
            gram = np.exp(-((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1) / 2.0)
            labels = rng.choice([-1.0, 1.0], size=m)
            if np.all(labels == labels[0]):
                labels[0] = -labels[0]
            corpus.append((gram, np.sort(labels)[::-1]))
    corpus.append((np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, -1.0])))

    ok = True
    for gram, labels in corpus:
        for gamma in (0.1, 1.0, 10.0):
            _, alpha_star = _brute_force_dual(gram, labels, gamma)
            oracle_obj = training_objective(gram, labels, gamma, 0.5 * gram @ (labels * alpha_star))
            model = train(GramMatrix(gram), labels, gamma)
            solver_obj = training_objective(gram, labels, gamma, model.coefficients)
            ok = ok and abs(solver_obj - oracle_obj) / max(1.0, abs(oracle_obj)) < 1e-4
            ok = ok and model.diagnostics.kkt_residual < 1e-8
        flipped = train(GramMatrix(gram), -labels, 1.0)
        straight = train(GramMatrix(gram), labels, 1.0)
        ok = ok and np.array_equal(flipped.coefficients, -straight.coefficients)
    _report(7, "training solver vs brute force", ok, time.perf_counter() - start, 30.0)


def test_criterion_08_protocol_constants():
    start = time.perf_counter()
    kernel = KernelSpec(kind="cosine_power", dimension=2, power=1)
    train_set, _ = generate_dataset("concentric", seed=7)
    gram = compute_gram(train_set, kernel)
    ok = gram.n_evaluations == 780

    model = TrainedModel(coefficients=np.zeros(train_set.size), gamma=1.0)
    grid = boundary_grid(model, train_set, kernel, side=35)
    ok = ok and grid.scores.size == 1225
    _report(8, "protocol constants 780 and 1225", ok, time.perf_counter() - start, 30.0)


def _benchmark_accuracies(kernel):
    out = {}
    for name, seed in PINNED_BENCHMARKS:
        config = BenchmarkConfig(
            dataset=name, seed=seed, kernel=kernel, gamma=PINNED_GAMMA, grid_side=2
        )
        report = run_benchmark(config)
        out[name] = (report.train_accuracy, report.test_accuracy)
    return out


def test_criterion_09_benchmark_kernel_ordering():
    start = time.perf_counter()
    half = _benchmark_accuracies(KernelSpec(kind="fractional_cosine", dimension=2, exponent=0.5))
    one = _benchmark_accuracies(KernelSpec(kind="cosine_power", dimension=2, power=1))
    two = _benchmark_accuracies(KernelSpec(kind="cosine_power", dimension=2, power=2))

    beats_half = any(one[n][1] > half[n][1] for n, _ in PINNED_BENCHMARKS)
    beats_two = any(one[n][1] > two[n][1] for n, _ in PINNED_BENCHMARKS)
    train_ordered = all(two[n][0] >= one[n][0] for n, _ in PINNED_BENCHMARKS)
    ok = beats_half and beats_two and train_ordered
    _report(9, "benchmark kernel-power ordering", ok, time.perf_counter() - start, 60.0)


def test_criterion_10_noise_robustness():
    start = time.perf_counter()
    kernel = KernelSpec(kind="cosine_power", dimension=2, power=1)
    noise = ShotNoiseConfig(events_per_point=2500, fidelity=0.98, seed=0)
    ok = True
    for name, seed in PINNED_BENCHMARKS:
        exact = run_benchmark(
            BenchmarkConfig(dataset=name, seed=seed, kernel=kernel, gamma=PINNED_GAMMA, grid_side=2)
        )
        noisy = run_benchmark(
            BenchmarkConfig(
                dataset=name, seed=seed, kernel=kernel, gamma=PINNED_GAMMA, grid_side=2, noise=noise
            )
        )
        ok = ok and abs(exact.test_accuracy - noisy.test_accuracy) <= 0.1
    _report(10, "shot-noise robustness of accuracy", ok, time.perf_counter() - start, 120.0)


def test_criterion_11_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    args = [
        "bench",
        "--dataset",
        "concentric",
        "--seed",
        "7",
        "--kernel",
        "cosine:1",
        "--gamma",
        "1.0",
        "--side",
        "12",
    ]
    first, second = tmp_path / "first", tmp_path / "second"
    ok = cli_main(args + ["--out", str(first)]) == 0
    ok = ok and cli_main(args + ["--out", str(second)]) == 0
    artifacts = (
        "train.csv", "test.csv", "gram.csv", "grid.csv",
        "model.json", "report.json", "boundary.svg",
    )
    for name in artifacts:
        ok = ok and (first / name).read_bytes() == (second / name).read_bytes()
    _report(11, "byte-identical repeat runs", ok, time.perf_counter() - start, 60.0)
