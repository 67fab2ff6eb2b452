"""Tests of the benchmark itself.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from finitekernels import cli  # noqa: E402


def run_bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def last_json(stdout: str, back: int = 1) -> dict:
    return json.loads(stdout.strip().splitlines()[-back])


def test_smoke_runs_every_workload_and_prints_every_metric():
    done = run_bench(["--workload", "all", "--smoke", "--seconds", "1"])
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
    names = {*bench.END_TO_END, *bench.PER_LAYER}
    assert set(result["metrics"]) == {f"{w}/{n}" for w in workloads.WORKLOADS for n in names}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == {**bench.END_TO_END, **bench.PER_LAYER}[name.split("/")[1]]
    env = last_json(done.stdout, back=2)["env"]
    assert {"python", "numpy", "scipy", "blas", "blas_threads", "nproc", "source_sha256"} <= set(env)
    assert env["blas_threads"] <= env["nproc"]


@pytest.mark.parametrize("trace, names", [("0", bench.END_TO_END), ("1", bench.PER_LAYER)])
def test_one_workload_prints_exactly_its_metric_set(trace, names):
    args = ["--workload", "resolve-sweep", "--seed", "3", "--seconds", "1", "--trace", trace]
    done = run_bench([*args, "--smoke"])
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == set(names)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench(["--workload", "gamma-sweep", "--seed", "0", "--seconds", "1", "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_seeds_pin_the_configs_and_vary_only_zeta():
    for seed in (0, workloads.CHECK_SEED):
        for name in ("pipeline-exact", "pipeline-noisy", "gamma-sweep"):
            assert [(op["dataset"], op["seed"]) for op in workloads.ops(name, seed)] == list(
                workloads.PINNED
            )
        assert all(op["noise"]["noise_seed"] == 0 for op in workloads.ops("pipeline-noisy", seed))
    assert {op["zeta"] for op in workloads.ops("resolve-sweep", 0)} == {3.0}
    assert {op["zeta"] for op in workloads.ops("resolve-sweep", 5)} == {4.25}


def test_sampler_samples_during_the_span_and_takes_out_its_own_time():
    previous = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    with hostspeed.Sampler() as span:
        while time.perf_counter() - start < 0.3:
            sum(range(1000))
    measured = time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(span.samples) >= 0.3 / hostspeed.INTERVAL_S / 2
    assert span.wall_s + span.overhead_s == pytest.approx(measured, abs=1e-3)
    assert 0 < span.wall_s < measured and 0 < span.cpu_s
    assert span.speed == pytest.approx(hostspeed.speed(span.samples))


def run_op(op, out: Path) -> None:
    assert cli.main(workloads.cli_argv(op, out)) == 0


def test_bench_check_catches_a_wrong_gram(tmp_path):
    op = workloads.ops("pipeline-noisy", 0, smoke=True)[0]
    run_op(op, tmp_path)
    checks.check_op(op, tmp_path, np.random.default_rng(0))
    gram = tmp_path / "gram.csv"
    header, *rows = gram.read_text().splitlines()
    bumped = [",".join(repr(float(v) * 0.999) for v in row.split(",")) for row in rows]
    gram.write_text("\n".join([header, *bumped]) + "\n")
    with pytest.raises(checks.CheckFailed, match="gram"):
        checks.check_op(op, tmp_path, np.random.default_rng(0))


def test_resolve_check_catches_a_wrong_variance(tmp_path):
    op = workloads.ops("resolve-sweep", 0, smoke=True)[0]
    run_op(op, tmp_path)
    checks.check_op(op, tmp_path, np.random.default_rng(0))
    path = tmp_path / "resolution.csv"
    lines = path.read_text().splitlines()
    family, length, variance, resolution = lines[1].split(",")
    lines[1] = ",".join([family, length, repr(float(variance) * (1 + 1e-9)), resolution])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed, match="msi variance"):
        checks.check_op(op, tmp_path, np.random.default_rng(0))
