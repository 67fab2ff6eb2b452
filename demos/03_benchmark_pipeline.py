"""End-to-end classification benchmark with rendered artifacts.

Generates a dataset, trains on an exact Gram matrix and on a shot-noise
corrupted one, compares accuracies, and writes the full artifact set
(CSV tables, model and report JSON, decision-boundary SVG) to
``demo_output/``.

Run with ``python3 demos/03_benchmark_pipeline.py``.
"""

from pathlib import Path

from finitekernels import (
    BenchmarkConfig,
    KernelSpec,
    ShotNoiseConfig,
    best_random_linear_accuracy,
    generate_dataset,
    run_benchmark,
)
from finitekernels.reports import emit_report

OUT = Path(__file__).resolve().parent.parent / "demo_output"


def main() -> None:
    kernel = KernelSpec(kind="cosine_power", dimension=2, power=1)

    print("== exact-kernel benchmark: concentric rings, seed 7 ==")
    config = BenchmarkConfig(dataset="concentric", seed=7, kernel=kernel, gamma=1.0)
    report = run_benchmark(config)
    emit_report(report, OUT / "exact")
    print(f"  train accuracy {report.train_accuracy:.3f}")
    print(f"  test accuracy  {report.test_accuracy:.3f}")

    _, test_set = generate_dataset("concentric", seed=7)
    linear = best_random_linear_accuracy(test_set.points, test_set.labels, trials=200, seed=0)
    print(f"  best random linear cut on the same test split: {linear:.3f}")
    print()

    print("== same benchmark under finite coincidence counts ==")
    noisy = BenchmarkConfig(
        dataset="concentric",
        seed=7,
        kernel=kernel,
        gamma=1.0,
        noise=ShotNoiseConfig(events_per_point=2_500, fidelity=0.98, seed=0),
    )
    noisy_report = run_benchmark(noisy)
    emit_report(noisy_report, OUT / "noisy")
    print(f"  train accuracy {noisy_report.train_accuracy:.3f}")
    print(f"  test accuracy  {noisy_report.test_accuracy:.3f}")
    print(f"  gram provenance: {noisy_report.gram.provenance},"
          f" {noisy_report.gram.n_evaluations} kernel evaluations")
    print()

    print("== kernel-power sweep on the xor quadrants, seed 0 ==")
    for spec, label in (
        (KernelSpec(kind="fractional_cosine", dimension=2, exponent=0.5), "power 1/2"),
        (KernelSpec(kind="cosine_power", dimension=2, power=1), "power 1"),
        (KernelSpec(kind="cosine_power", dimension=2, power=2), "power 2"),
    ):
        r = run_benchmark(
            BenchmarkConfig(dataset="xor", seed=0, kernel=spec, gamma=1.0, grid_side=2)
        )
        print(f"  {label:<9} train {r.train_accuracy:.3f}  test {r.test_accuracy:.3f}")
    print()

    written = sorted(p.relative_to(OUT) for p in OUT.rglob("*") if p.is_file())
    print(f"artifacts under {OUT}:")
    for path in written:
        print(f"  {path}")


if __name__ == "__main__":
    main()
