"""One benchmark process: set up, say ``ready``, then time passes over a workload.

Run from the checkout root with ``PYTHONPATH=src``:

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS OUT [--smoke] [--untraced DIR]

MODE is ``setup`` (set up and exit), ``untraced`` (each op is one in-process
``finitekernels.cli.main`` call, timed as a whole and then checked) or
``traced`` (each op redone stage by stage, see ``traced.py``).  Set-up is the
import of ``finitekernels.cli``, building the op list and the warm-up ops.
After ``ready`` the process prints one JSON line with what it measured.
The set-up and every op of an untraced pass run under a
``hostspeed.Sampler``, which samples the host's speed while they run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """One CLI call with its output captured; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, err.getvalue().strip()


def first_condition_s() -> float:
    """Seconds of the process's first ``condition_gram`` call, on a default-size Gram."""
    from finitekernels.bench import compute_gram
    from finitekernels.datasets import generate_dataset
    from finitekernels.kernels import KernelSpec
    from finitekernels.svm import condition_gram

    train_set, _ = generate_dataset("concentric", 7)
    gram = compute_gram(train_set, KernelSpec(kind="cosine_power", dimension=2, power=1))
    start = time.perf_counter()
    condition_gram(gram, "clip")
    return time.perf_counter() - start


def keep_going(args, started: float, last_pass: float) -> bool:
    """Start another pass if it should end within the run's seconds; the first always runs."""
    return time.perf_counter() - started + last_pass <= args.seconds


def untraced_passes(cli, ops, args) -> dict:
    import numpy as np

    import checks
    import hostspeed
    import workloads

    passes, failures = [], []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        wall, cpu, speed = [], [], []
        for k, op in enumerate(ops):
            op_out = args.out / f"op{k}"
            with hostspeed.Sampler() as span:
                code, err = run_cli(cli, workloads.cli_argv(op, op_out))
            wall.append(span.wall_s)
            cpu.append(span.cpu_s)
            speed.append(span.speed)
            attempted += 1
            problem = f"exit {code}: {err}" if code != 0 else None
            if problem is None:
                rng = np.random.default_rng([args.seed, len(passes), k])
                try:
                    checks.check_op(op, op_out, rng)
                except Exception as exc:  # a failed check counts against the op, not the run
                    problem = f"{type(exc).__name__}: {exc}"
            if problem is not None:
                failed += 1
                failures.append(f"op{k} ({op['kind']}): {problem}")
        passes.append({"op_wall_s": wall, "op_cpu_s": cpu, "speed": speed})
        if not keep_going(args, started, time.perf_counter() - pass_start):
            break
    return {"passes": passes, "attempted": attempted, "failed": failed, "failures": failures[:5]}


def traced_passes(ops, args) -> dict:
    import traced

    passes, failures = [], []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        clock = traced.StageClock()
        for k, op in enumerate(ops):
            attempted += 1
            try:
                traced.trace_op(clock, op, args.out / f"op{k}", args.untraced / f"op{k}")
            except Exception as exc:  # a failed stage or comparison counts against the op
                failed += 1
                failures.append(f"op{k} ({op['kind']}): {type(exc).__name__}: {exc}")
        pipeline_s = sum(clock.seconds.get(name, 0.0) for name in traced.PIPELINE_STAGES)
        passes.append(
            {"seconds": dict(clock.seconds), "counts": dict(clock.counts), "pipeline_s": pipeline_s}
        )
        if not keep_going(args, started, time.perf_counter() - pass_start):
            break
    return {"passes": passes, "attempted": attempted, "failed": failed, "failures": failures[:5]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "untraced", "traced"))
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("out", type=Path)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--untraced", type=Path, help="artifacts of the untraced run (traced mode)")
    args = parser.parse_args(argv)

    import hostspeed

    with hostspeed.Sampler() as setup:
        start = time.perf_counter()
        from finitekernels import cli

        import_s = time.perf_counter() - start
        import workloads

        ops = workloads.ops(args.workload, args.seed, smoke=args.smoke)
        first_s = first_condition_s() if args.mode == "traced" else None
        start = time.perf_counter()
        for k, op in enumerate(workloads.warmup_ops(args.workload)):
            code, err = run_cli(cli, workloads.cli_argv(op, args.out / f"warmup{k}"))
            if code != 0:
                print(f"warm-up op {k} failed: {err}", file=sys.stderr)
                return 1
        warmup_s = time.perf_counter() - start
    print("ready", flush=True)
    sampled = {"setup_speed": setup.speed, "setup_overhead_s": setup.overhead_s}
    if args.mode == "setup":
        print(json.dumps(sampled), flush=True)
        return 0

    result = untraced_passes(cli, ops, args) if args.mode == "untraced" else traced_passes(ops, args)
    result.update(
        sampled,
        import_s=import_s,
        warmup_s=warmup_s,
        first_condition_s=first_s,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
