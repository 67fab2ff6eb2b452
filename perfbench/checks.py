"""Output checks of one op, made with the library's own oracles.

Each check reads the artifacts an op wrote and raises ``CheckFailed`` on the
first disagreement.  The checks recompute a few values per op (spot checks
drawn from a seeded generator), never compare against pinned bytes, and stay
cheap next to the op they check.  The traced run compares every value.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from finitekernels import reports
from finitekernels.bench import STREAM_GRAM, STREAM_GRID, BenchmarkConfig, run_benchmark
from finitekernels.cli import parse_kernel
from finitekernels.datasets import generate_dataset
from finitekernels.optics import ShotNoiseConfig, sample_kernel
from finitekernels.resolution import msi_variance_closed_form, resolution_quadratic
from finitekernels.states import DOMAINS, tsq_profile
from finitekernels.svm import accuracy, condition_gram

SPOT_TOL = 1e-12
# A profile optimized from the msi start can only tie msi up to roundoff.
DOMINANCE_RTOL = 1e-12
SPOT_ENTRIES = 8


class CheckFailed(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def noise_config(op: dict) -> ShotNoiseConfig | None:
    noise = op.get("noise")
    if noise is None:
        return None
    return ShotNoiseConfig(
        events_per_point=noise["events"], fidelity=noise["fidelity"], seed=noise["noise_seed"]
    )


def read_rows(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_grid_scores(path, side: int) -> np.ndarray:
    header, rows = read_rows(path)
    expect(header == ["x1", "x2", "score"], f"{path}: bad header {header}")
    expect(len(rows) == side * side, f"{path}: {len(rows)} rows, expected {side * side}")
    return np.array([float(r[2]) for r in rows])


def gram_evaluations(op: dict) -> int:
    """Kernel determinations the Gram stage makes: the sampled path measures the diagonal."""
    m = op["train_size"]
    return m * (m - 1) // 2 + (0 if op["noise"] is None else m)


def measured(kappa: float, noise, key) -> float:
    return kappa if noise is None else sample_kernel(kappa, noise, key=key)[0]


def check_bench(op: dict, out: Path, rng: np.random.Generator) -> None:
    kernel = parse_kernel(op["kernel"])
    noise = noise_config(op)
    m, side = op["train_size"], op["side"]
    train_set, _ = generate_dataset(
        op["dataset"], op["seed"], op["train_size"], op["test_size"], convention=kernel.convention
    )
    written_train = reports.load_dataset_csv(out / "train.csv")
    expect(
        np.array_equal(written_train.points, train_set.points)
        and np.array_equal(written_train.labels, train_set.labels),
        "train.csv differs from generate_dataset",
    )
    report = reports.load_report_json(out / "report.json")
    expect(
        report["gram_evaluations"] == gram_evaluations(op),
        f"gram_evaluations {report['gram_evaluations']}, expected {gram_evaluations(op)}",
    )
    expect(report["train_size"] == m and report["test_size"] == op["test_size"], "sizes differ")

    gram = reports.load_gram_csv(out / "gram.csv").values
    expect(gram.shape == (m, m), f"gram.csv shape {gram.shape}")
    pts = train_set.points
    for i, j in np.sort(rng.integers(0, m, size=(SPOT_ENTRIES, 2)), axis=1):
        if i == j:
            want = 1.0 if noise is None else measured(1.0, noise, (STREAM_GRAM, i, i))
        else:
            want = measured(kernel.evaluate(pts[i], pts[j]), noise, (STREAM_GRAM, i, j))
        expect(
            abs(gram[i, j] - want) <= SPOT_TOL,
            f"gram[{i},{j}] = {gram[i, j]!r}, oracle {want!r}",
        )

    model = reports.load_model_json(out / "model.json")
    conditioned = condition_gram(reports.load_gram_csv(out / "gram.csv"), op["condition"])
    train_acc = accuracy(model, conditioned.values, train_set.labels)
    expect(
        train_acc == report["train_accuracy"],
        f"train accuracy {report['train_accuracy']}, recomputed {train_acc}",
    )
    expect(0.0 <= report["test_accuracy"] <= 1.0, "test accuracy outside [0, 1]")

    scores = read_grid_scores(out / "grid.csv", side)
    lo, hi = DOMAINS[kernel.convention]
    axis = np.linspace(lo, hi, side, endpoint=False)
    for idx in rng.integers(0, side * side, size=2):
        node = np.array([axis[idx // side], axis[idx % side]])
        row = np.array(
            [measured(kernel.evaluate(node, pts[j]), noise, (STREAM_GRID, idx, j)) for j in range(m)]
        )
        want = float(row @ model.coefficients)
        expect(
            abs(scores[idx] - want) <= SPOT_TOL * max(1.0, abs(want)),
            f"grid score {idx} = {scores[idx]!r}, oracle {want!r}",
        )


def read_sweep(out: Path) -> list[tuple[str, float, float, float]]:
    header, rows = read_rows(out / "sweep.csv")
    expect(
        header == ["kernel", "gamma", "train_accuracy", "test_accuracy"],
        f"sweep.csv: bad header {header}",
    )
    return [(r[0], float(r[1]), float(r[2]), float(r[3])) for r in rows]


def check_sweep(op: dict, out: Path, rng: np.random.Generator) -> None:
    """Row layout for every row; the smallest-gamma rows recomputed (they train fast)."""
    del rng
    rows = read_sweep(out)
    expected = [(k, g) for k in op["kernels"] for g in op["gammas"]]
    expect([(r[0], r[1]) for r in rows] == expected, "sweep.csv rows out of order")
    low = min(op["gammas"])
    for kernel_text, gamma, train_acc, test_acc in rows:
        expect(0.0 <= train_acc <= 1.0 and 0.0 <= test_acc <= 1.0, "accuracy outside [0, 1]")
        if gamma != low:
            continue
        report = run_benchmark(
            BenchmarkConfig(
                dataset=op["dataset"],
                seed=op["seed"],
                kernel=parse_kernel(kernel_text),
                gamma=gamma,
                grid_side=2,
            )
        )
        expect(
            (train_acc, test_acc) == (report.train_accuracy, report.test_accuracy),
            f"sweep row {kernel_text} gamma={gamma}: {(train_acc, test_acc)}, "
            f"recomputed {(report.train_accuracy, report.test_accuracy)}",
        )


def read_resolution(out: Path) -> list[tuple[str, int, float, float]]:
    header, rows = read_rows(out / "resolution.csv")
    expect(header == ["family", "L", "variance", "resolution"], f"resolution.csv: bad header {header}")
    return [(r[0], int(r[1]), float(r[2]), float(r[3])) for r in rows]


def check_resolve(op: dict, out: Path, rng: np.random.Generator) -> None:
    del rng
    rows = read_resolution(out)
    lengths = list(range(op["lo"], op["hi"] + 1))
    expected = [(f, n) for f in op["families"] for n in lengths]
    expect([(r[0], r[1]) for r in rows] == expected, "resolution.csv rows out of order")
    variance = {(r[0], r[1]): r[2] for r in rows}
    for n in lengths:
        msi = variance[("msi", n)]
        closed = msi_variance_closed_form(n)
        expect(abs(msi - closed) <= SPOT_TOL, f"msi variance at L={n}: {msi!r}, closed form {closed!r}")
        tsq = resolution_quadratic(tsq_profile(n, op["zeta"])).variance
        expect(variance[("tsq", n)] == tsq, f"tsq variance at L={n}: {variance[('tsq', n)]!r}, oracle {tsq!r}")
        opt = variance[("optimized", n)]
        expect(
            opt <= min(msi, tsq) * (1.0 + DOMINANCE_RTOL),
            f"optimized variance {opt!r} above msi {msi!r} or tsq {tsq!r} at L={n}",
        )


CHECKS = {"bench": check_bench, "sweep": check_sweep, "resolve": check_resolve}


def check_op(op: dict, out: Path, rng: np.random.Generator) -> None:
    CHECKS[op["kind"]](op, Path(out), rng)
