"""Traced passes: the CLI's work, redone stage by stage through the library.

Each function below calls the package's public functions in the order the
CLI path uses them, timing every call from outside with a ``StageClock``.
It then compares its stage outputs with the artifacts the untraced run wrote
for the same op, so both runs measure one program.

Two layers are also timed apart from the pipeline, on the same inputs:
``optics.sample_kernel`` over every (kappa, key) pair the noisy pipeline
sampled, and ``resolution.optimize_profile`` at every length of a resolve
op.  Those stages are re-measurements and stay out of ``PIPELINE_STAGES``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from finitekernels import reports
from finitekernels.bench import (
    STREAM_GRAM,
    STREAM_GRID,
    STREAM_ROWS,
    BenchmarkConfig,
    BenchReport,
    boundary_grid,
    compute_gram,
    kernel_rows,
)
from finitekernels.cli import parse_kernel
from finitekernels.datasets import generate_dataset
from finitekernels.optics import sample_kernel
from finitekernels.reports import emit_report, write_resolution_csv
from finitekernels.resolution import optimize_profile, resolution_quadratic, resolution_sweep
from finitekernels.svm import accuracy, condition_gram, train

from checks import expect, noise_config, read_grid_scores, read_resolution, read_sweep

PIPELINE_STAGES = (
    "datasets.generate_dataset",
    "bench.compute_gram",
    "svm.condition_gram",
    "svm.train",
    "svm.accuracy",
    "bench.kernel_rows",
    "bench.boundary_grid",
    "reports.emit_report",
    "resolution.resolution_sweep",
    "reports.write_resolution_csv",
)


class StageClock:
    """Wall seconds and counts per named stage, summed over one pass."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    @contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - start

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n


def _benchmark(clock: StageClock, config: BenchmarkConfig, out_dir=None) -> BenchReport:
    """``bench.run_benchmark``, one span per library call."""
    with clock.stage("datasets.generate_dataset"):
        train_set, test_set = generate_dataset(
            config.dataset,
            config.seed,
            train_size=config.train_size,
            test_size=config.test_size,
            convention=config.kernel.convention,
        )
    m = train_set.size
    with clock.stage("bench.compute_gram"):
        gram = compute_gram(
            train_set, config.kernel, noise=config.noise, pin_diagonal=config.pin_noisy_diagonal
        )
    clock.count("bench.compute_gram.evals", gram.n_evaluations)
    with clock.stage("svm.condition_gram"):
        conditioned = condition_gram(gram, config.condition_policy)
    train_id = f"{config.dataset}-seed{config.seed}-m{config.train_size}"
    with clock.stage("svm.train"):
        model = train(conditioned, train_set.labels, config.gamma, train_id=train_id)
    sweeps = model.diagnostics.sweeps
    clock.count("svm.train.calls")
    clock.count("svm.train.sweeps", sweeps)
    clock.count("svm.train.updates", sweeps * m)
    clock.counts["svm.train.sweeps_max"] = max(clock.counts["svm.train.sweeps_max"], sweeps)
    with clock.stage("svm.accuracy"):
        train_acc = accuracy(model, conditioned.values, train_set.labels)
    with clock.stage("bench.kernel_rows"):
        test_rows = kernel_rows(
            test_set, train_set, config.kernel, noise=config.noise, stream=STREAM_ROWS
        )
    clock.count("bench.kernel_rows.evals", test_rows.size)
    with clock.stage("svm.accuracy"):
        test_acc = accuracy(model, test_rows, test_set.labels)
    with clock.stage("bench.boundary_grid"):
        grid = boundary_grid(
            model, train_set, config.kernel, side=config.grid_side, noise=config.noise
        )
    clock.count("bench.boundary_grid.evals", grid.scores.size * m)
    report = BenchReport(
        config=config,
        train_set=train_set,
        test_set=test_set,
        gram=gram,
        gram_conditioned=conditioned,
        model=model,
        train_accuracy=train_acc,
        test_accuracy=test_acc,
        grid=grid,
    )
    if out_dir is not None:
        with clock.stage("reports.emit_report"):
            written = emit_report(report, out_dir)
        clock.count("reports.bytes", sum(p.stat().st_size for p in written))
    return report


def _time_optics(clock: StageClock, report: BenchReport) -> None:
    """Time ``sample_kernel`` alone over every (kappa, key) the pipeline sampled.

    The exact kappas come from the exact path of the same stages; the
    sampled Gram must equal the estimates drawn here, entry by entry.
    """
    cfg = report.config
    kernel, noise, train_set = cfg.kernel, cfg.noise, report.train_set
    m = train_set.size
    exact = compute_gram(train_set, kernel).values
    jobs = [(exact[i, j], (STREAM_GRAM, i, j)) for i in range(m) for j in range(i, m)]
    rows = kernel_rows(report.test_set, train_set, kernel)
    jobs += [(rows[i, j], (STREAM_ROWS, i, j)) for i in range(rows.shape[0]) for j in range(m)]
    nodes = np.array([[x, y] for x in report.grid.xs for y in report.grid.ys])
    grid = kernel_rows(nodes, train_set, kernel)
    jobs += [(grid[i, j], (STREAM_GRID, i, j)) for i in range(grid.shape[0]) for j in range(m)]
    with clock.stage("optics.sample_kernel"):
        estimates = [sample_kernel(kappa, noise, key=key)[0] for kappa, key in jobs]
    clock.count("optics.sample_kernel.calls", len(jobs))
    n_gram = m * (m + 1) // 2
    sampled = report.gram.values[np.triu_indices(m)]
    expect(
        np.array_equal(sampled, np.array(estimates[:n_gram])),
        "sampled Gram differs from sample_kernel over the same keys",
    )


def trace_bench(clock: StageClock, op: dict, out: Path, untraced: Path) -> None:
    config = BenchmarkConfig(
        dataset=op["dataset"],
        seed=op["seed"],
        kernel=parse_kernel(op["kernel"]),
        gamma=op["gamma"],
        train_size=op["train_size"],
        test_size=op["test_size"],
        noise=noise_config(op),
        grid_side=op["side"],
        condition_policy=op["condition"],
    )
    report = _benchmark(clock, config, out_dir=out)
    if config.noise is not None:
        _time_optics(clock, report)
    written = reports.load_report_json(untraced / "report.json")
    expect(
        (written["train_accuracy"], written["test_accuracy"])
        == (report.train_accuracy, report.test_accuracy),
        "traced accuracies differ from the untraced report.json",
    )
    expect(
        written["gram_evaluations"] == report.gram.n_evaluations,
        "traced Gram evaluation count differs from report.json",
    )
    gram = reports.load_gram_csv(untraced / "gram.csv").values
    expect(np.array_equal(gram, report.gram.values), "traced Gram differs from gram.csv")
    scores = read_grid_scores(untraced / "grid.csv", op["side"])
    expect(np.array_equal(scores, report.grid.scores.ravel()), "traced grid differs from grid.csv")


def trace_sweep(clock: StageClock, op: dict, out: Path, untraced: Path) -> None:
    """``cli._cmd_sweep``: one full benchmark per (kernel, gamma), grid side 2."""
    del out
    rows = []
    for kernel_text in op["kernels"]:
        for gamma in op["gammas"]:
            config = BenchmarkConfig(
                dataset=op["dataset"],
                seed=op["seed"],
                kernel=parse_kernel(kernel_text),
                gamma=gamma,
                grid_side=2,
            )
            report = _benchmark(clock, config)
            rows.append((kernel_text, gamma, report.train_accuracy, report.test_accuracy))
    written = read_sweep(untraced)
    for got, want in zip(written, rows, strict=True):
        expect(got == want, f"sweep.csv row {got} differs from the traced {want}")


def trace_resolve(clock: StageClock, op: dict, out: Path, untraced: Path) -> None:
    lengths = range(op["lo"], op["hi"] + 1)
    with clock.stage("resolution.resolution_sweep"):
        rows = resolution_sweep(lengths, op["families"], tsq_squeezing=op["zeta"])
    out.mkdir(parents=True, exist_ok=True)
    path = out / "resolution.csv"
    with clock.stage("reports.write_resolution_csv"):
        write_resolution_csv(path, rows)
    clock.count("reports.bytes", path.stat().st_size)
    for point in rows:
        if point.family != "optimized":
            continue
        with clock.stage("resolution.optimize_profile"):
            profile = optimize_profile(point.length)
        clock.count("resolution.optimize_profile.calls")
        expect(
            resolution_quadratic(profile).variance == point.variance,
            f"optimize_profile({point.length}) differs from the sweep's optimized row",
        )
    expect(
        [(p.family, p.length, p.variance, p.resolution) for p in rows] == read_resolution(untraced),
        "traced resolution rows differ from resolution.csv",
    )


TRACERS = {"bench": trace_bench, "sweep": trace_sweep, "resolve": trace_resolve}


def trace_op(clock: StageClock, op: dict, out: Path, untraced: Path) -> None:
    TRACERS[op["kind"]](clock, op, Path(out), Path(untraced))
