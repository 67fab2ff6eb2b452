"""Benchmark of the finitekernels pipelines, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--smoke]

Single client, closed loop: each op is one in-process ``finitekernels.cli``
call, started when the previous one has finished, in a worker process of its
own (``worker.py``, ``PYTHONPATH=src``, one BLAS thread).

``--trace 0`` reports the end-to-end metrics (set-up, wall and CPU seconds
per pass, peak memory); its times are in reference seconds, the seconds a
calm host would have taken (see ``hostspeed.py``).  ``--trace 1`` runs the untraced worker for part of
the time and then a traced worker on the same inputs, and reports the
per-layer metrics.  ``--workload all`` does both for every workload and
prints every metric; ``--smoke`` shrinks every workload to a few seconds.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it records the
environment.  See ``LAYERS.md`` for what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SOURCE = ROOT / "src" / "finitekernels"
RUNS = ROOT / ".perfbench_runs"
SETUP_SAMPLES = 5
RUN_BUDGET_S = 170.0
# Share of --seconds the untraced worker gets in a traced run.
UNTRACED_SHARE = 0.4
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "setup.import_s": "s",
    "setup.warmup_s": "s",
    "datasets.generate_dataset.s": "s",
    "bench.compute_gram.s": "s",
    "bench.compute_gram.evals": "count",
    "bench.kernel_rows.s": "s",
    "bench.kernel_rows.evals": "count",
    "bench.boundary_grid.s": "s",
    "bench.boundary_grid.evals": "count",
    "kernels.us_per_eval": "us",
    "optics.sample_kernel.s": "s",
    "optics.sample_kernel.calls": "count",
    "optics.us_per_sample": "us",
    "svm.condition_gram.s": "s",
    "svm.condition_gram.first_s": "s",
    "svm.train.s": "s",
    "svm.train.calls": "count",
    "svm.train.sweeps": "count",
    "svm.train.sweeps_max": "count",
    "svm.train.us_per_update": "us",
    "svm.accuracy.s": "s",
    "reports.emit_report.s": "s",
    "reports.bytes": "bytes",
    "resolution.resolution_sweep.s": "s",
    "resolution.optimize_profile.s": "s",
    "resolution.optimize_profile.calls": "count",
    "reports.write_resolution_csv.s": "s",
    "trace.stage_sum_s": "s",
    "trace.gap_s": "s",
    "error_rate": "ratio",
}
BENCH_STAGES = ("bench.compute_gram", "bench.kernel_rows", "bench.boundary_grid")


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    return env


def run_worker(mode, workload, seed, seconds, out: Path, deadline, smoke, untraced=None):
    """Start one worker, wait for it; returns (seconds from start to ready, result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed), repr(seconds), str(out)]
    if smoke:
        cmd.append("--smoke")
    if untraced is not None:
        cmd += ["--untraced", str(untraced)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - start), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise WorkerFailed(f"{mode} worker for {workload} exited {code}")
    return ready_s, json.loads(rest.strip().splitlines()[-1])


def fastest(passes, get) -> float:
    """The least value over passes: a pass only gets slower when the host is busy."""
    return min(get(p) for p in passes)


def fastest_ops(passes, key: str) -> float:
    """One pass with every op at its fastest: the sum over ops of their least time."""
    return sum(min(times) for times in zip(*(p[key] for p in passes)))


def op_reference_s(p: dict, key: str) -> list[float]:
    """Each op's ``key`` time of pass ``p`` in reference seconds (see ``hostspeed.py``)."""
    return [t * speed for t, speed in zip(p[key], p["speed"])]


def median_ops(passes, key: str) -> float:
    """One typical pass: the sum over ops of their median time in reference seconds."""
    return sum(statistics.median(times) for times in zip(*(op_reference_s(p, key) for p in passes)))


def timing_note(values) -> str:
    """Fastest, median, and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    note = f"min {min(values):.4f} s, median {statistics.median(values):.4f} s over {n} passes"
    if n >= 20:
        q = int(100 * (1 - 10 / n))
        note += f", p{q} {statistics.quantiles(values, n=100)[q - 1]:.4f} s"
    return note


def pass_notes(passes) -> list[str]:
    raw = [sum(p["op_wall_s"]) for p in passes]
    scaled = [sum(op_reference_s(p, "op_wall_s")) for p in passes]
    speeds = [v for p in passes for v in p["speed"]]
    return [
        f"pass wall, measured: {timing_note(raw)}",
        f"pass wall, reference seconds: {timing_note(scaled)}",
        f"host speed over ops: median {statistics.median(speeds):.3f}, "
        f"range {min(speeds):.3f} to {max(speeds):.3f} (1 on a calm host)",
    ]


def setup_s(ready_s: float, result: dict) -> float:
    """Set-up seconds in reference seconds, without the sampling's own time."""
    return (ready_s - result["setup_overhead_s"]) * result["setup_speed"]


def measure_untraced(workload, seed, seconds, out: Path, deadline, smoke):
    samples = 1 if smoke else SETUP_SAMPLES
    setup = [
        setup_s(*run_worker("setup", workload, seed, seconds, out / f"setup{k}", deadline, smoke))
        for k in range(samples - 1)
    ]
    ready_s, result = run_worker("untraced", workload, seed, seconds, out / "untraced", deadline, smoke)
    setup.append(setup_s(ready_s, result))
    passes = result["passes"]
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": median_ops(passes, "op_wall_s"),
        "cpu_s": median_ops(passes, "op_cpu_s"),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    notes = [
        *pass_notes(passes),
        f"setup_s: median of {len(setup)} set-ups in reference seconds {[round(s, 4) for s in setup]}",
    ]
    return metrics, result, notes


def ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(untraced: dict, traced: dict) -> dict:
    passes = traced["passes"]

    def secs(name):
        return fastest(passes, lambda p: p["seconds"].get(name, 0.0))

    def count(name):
        return fastest(passes, lambda p: p["counts"].get(name, 0.0))

    def kernel_us(p):
        s, n = p["seconds"], p["counts"]
        busy = sum(s.get(k, 0.0) for k in BENCH_STAGES) - s.get("optics.sample_kernel", 0.0)
        return ratio(busy, sum(n.get(f"{k}.evals", 0.0) for k in BENCH_STAGES), 1e6)

    metrics = {
        "setup.import_s": traced["import_s"],
        "setup.warmup_s": traced["warmup_s"],
        "svm.condition_gram.first_s": traced["first_condition_s"],
        "kernels.us_per_eval": fastest(passes, kernel_us),
        "optics.us_per_sample": fastest(
            passes,
            lambda p: ratio(
                p["seconds"].get("optics.sample_kernel", 0.0),
                p["counts"].get("optics.sample_kernel.calls", 0.0),
                1e6,
            ),
        ),
        "svm.train.us_per_update": fastest(
            passes,
            lambda p: ratio(
                p["seconds"].get("svm.train", 0.0), p["counts"].get("svm.train.updates", 0.0), 1e6
            ),
        ),
        "trace.stage_sum_s": fastest(passes, lambda p: p["pipeline_s"]),
    }
    metrics["trace.gap_s"] = (
        fastest_ops(untraced["passes"], "op_wall_s") - metrics["trace.stage_sum_s"]
    )
    attempted = untraced["attempted"] + traced["attempted"]
    metrics["error_rate"] = ratio(untraced["failed"] + traced["failed"], attempted)
    for name in PER_LAYER:
        if name in metrics:
            continue
        if name.endswith(".s"):
            metrics[name] = secs(name[: -len(".s")])
        else:
            metrics[name] = count(name)
    return {name: metrics[name] for name in PER_LAYER}


def measure_traced(workload, seed, seconds, out: Path, deadline, smoke):
    untraced_s = UNTRACED_SHARE * seconds
    _, untraced = run_worker("untraced", workload, seed, untraced_s, out / "untraced", deadline, smoke)
    _, traced = run_worker(
        "traced", workload, seed, seconds - untraced_s, out / "traced", deadline, smoke,
        untraced=out / "untraced",
    )
    result = {
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "failures": untraced["failures"] + traced["failures"],
    }
    notes = [
        f"untraced pass wall: {timing_note([sum(p['op_wall_s']) for p in untraced['passes']])}",
        f"traced passes: {len(traced['passes'])}",
    ]
    return layer_metrics(untraced, traced), result, notes


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SOURCE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument(
        "--seed", type=int, default=0,
        help=f"workload seed; 0 gives the pinned configs, {workloads.CHECK_SEED} is kept for checking claims",
    )
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up sample")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SOURCE / "cli.py").is_file():
        print(f"perfbench: no finitekernels source under {SOURCE}; run from a checkout root", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (0, 1) if args.workload == "all" else (args.trace,)
    units = {**END_TO_END, **PER_LAYER}
    out_root = RUNS / str(os.getpid())
    metrics, attempted, failed, failures = {}, 0, 0, []
    try:
        for name in names:
            for trace in modes:
                deadline = time.perf_counter() + RUN_BUDGET_S
                measure = measure_traced if trace else measure_untraced
                out = out_root / f"{name}-trace{trace}"
                values, result, notes = measure(name, args.seed, args.seconds, out, deadline, args.smoke)
                attempted += result["attempted"]
                failed += result["failed"]
                failures += result["failures"]
                for note in notes:
                    print(f"{name}: {note}")
                for metric, value in values.items():
                    print(f"{name}  {metric:<36} {value:>16.6g} {units[metric]}")
                    key = metric if len(names) == 1 else f"{name}/{metric}"
                    metrics[key] = {"value": value, "unit": units[metric]}
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        if RUNS.is_dir() and not any(RUNS.iterdir()):
            RUNS.rmdir()
    for failure in failures:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({"env": environment(args)}, sort_keys=True))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
