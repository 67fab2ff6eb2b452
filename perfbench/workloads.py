"""The benchmark's workloads: each is a list of ops, one CLI call per op.

An op is a plain dict.  ``kind`` names the ``finitekernels`` subcommand
(``bench``, ``sweep`` or ``resolve``); the other keys are its inputs.  The
same dict drives the untraced run (through ``cli_argv``), the output checks
and the traced run, so all three see one set of inputs.

Every workload runs the pinned configs (concentric/7, moons/1, xor/0, noise
seed 0).  The seed sets the tsq zeta of ``resolve-sweep`` (3 at seed 0);
the other workloads' cost hangs on the SVM solver's sweep count, which
depends too much on the draw to shift their inputs (see below).
"""

from __future__ import annotations

PINNED = (("concentric", 7), ("moons", 1), ("xor", 0))

WORKLOADS = ("pipeline-exact", "pipeline-noisy", "gamma-sweep", "resolve-sweep")

# A seed kept out of tuning, for checking a claim on inputs it was not
# written against (it changes only the resolve-sweep inputs).
CHECK_SEED = 1009


def _bench(dataset, seed, kernel, m, test, side, noise=None):
    return {
        "kind": "bench",
        "dataset": dataset,
        "seed": seed,
        "kernel": kernel,
        "train_size": m,
        "test_size": test,
        "side": side,
        "gamma": 1.0,
        "condition": "clip",
        "noise": noise,
    }


# The pipelines keep their inputs pinned whatever the seed: the solver's sweep
# count per pass depends on the draw (exact: 360 to 5,584 over seeds 100..109;
# sampled: 640 to 44,448 over seeds 0..9, 2,000 to 16,192 with the noise seed
# alone), which would drown the kernel and optics timings in the spread
# between seeds.


def _pipeline_exact(seed, smoke):
    del seed
    m, test, side = (12, 6, 3) if smoke else (100, 50, 18)
    kernels = ("cosine:1", "cosine:3", "msi:4")
    return [_bench(ds, base, kernel, m, test, side) for (ds, base), kernel in zip(PINNED, kernels)]


def _pipeline_noisy(seed, smoke):
    del seed
    m, test, side, events = (10, 5, 3, 200) if smoke else (100, 50, 12, 2500)
    noise = {"events": events, "fidelity": 0.98, "noise_seed": 0}
    return [_bench(ds, base, "cosine:1", m, test, side, noise) for ds, base in PINNED]


def _gamma_sweep(seed, smoke):
    # One moons sweep op takes 1.9 s to 17 s over moons seeds 0..11.  moons/1
    # holds the slowest fit measured (cosine:1, gamma=100: 145,992 sweeps).
    del seed
    kernels = ["cosine:1"] if smoke else ["cosine:0.5", "cosine:1", "cosine:2", "msi:4"]
    gammas = [0.1, 1.0] if smoke else [0.1, 1.0, 10.0, 100.0]
    return [
        {"kind": "sweep", "dataset": ds, "seed": base, "kernels": kernels, "gammas": gammas}
        for ds, base in PINNED
    ]


def _resolve_sweep(seed, smoke):
    highs = (4, 6) if smoke else (32, 64, 96)
    zeta = 3.0 + 0.25 * (seed % 8)
    return [
        {"kind": "resolve", "lo": 2, "hi": hi, "families": ["msi", "tsq", "optimized"], "zeta": zeta}
        for hi in highs
    ]


_BUILDERS = {
    "pipeline-exact": _pipeline_exact,
    "pipeline-noisy": _pipeline_noisy,
    "gamma-sweep": _gamma_sweep,
    "resolve-sweep": _resolve_sweep,
}


def ops(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """The timed ops of one pass over ``workload``."""
    return _BUILDERS[workload](seed, smoke)


def warmup_ops(workload: str) -> list[dict]:
    """Tiny untimed ops that load every code path the workload times.

    Each list holds at least one op that calls ``condition_gram``.
    """
    tiny = _bench("concentric", 7, "cosine:1", 20, 10, 3)
    if workload == "pipeline-noisy":
        tiny["noise"] = {"events": 100, "fidelity": 0.98, "noise_seed": 0}
    if workload == "gamma-sweep":
        return [{"kind": "sweep", "dataset": "concentric", "seed": 7, "kernels": ["cosine:1"], "gammas": [1.0]}]
    if workload == "resolve-sweep":
        return [tiny, {"kind": "resolve", "lo": 2, "hi": 8, "families": ["msi", "tsq", "optimized"], "zeta": 3.0}]
    return [tiny]


def _noise_argv(noise):
    if noise is None:
        return []
    return [
        "--events", str(noise["events"]),
        "--fidelity", repr(noise["fidelity"]),
        "--noise-seed", str(noise["noise_seed"]),
    ]


def cli_argv(op: dict, out_dir) -> list[str]:
    """Arguments of ``finitekernels.cli.main`` for one op."""
    if op["kind"] == "bench":
        return [
            "bench",
            "--dataset", op["dataset"],
            "--seed", str(op["seed"]),
            "--kernel", op["kernel"],
            "--train-size", str(op["train_size"]),
            "--test-size", str(op["test_size"]),
            "--side", str(op["side"]),
            "--gamma", repr(op["gamma"]),
            "--condition", op["condition"],
            *_noise_argv(op["noise"]),
            "--out", str(out_dir),
        ]
    if op["kind"] == "sweep":
        return [
            "sweep",
            "--dataset", op["dataset"],
            "--seed", str(op["seed"]),
            "--kernels", ",".join(op["kernels"]),
            "--gammas", ",".join(repr(g) for g in op["gammas"]),
            "--out", str(out_dir),
        ]
    return [
        "resolve",
        "--lengths", f"{op['lo']}:{op['hi']}",
        "--families", ",".join(op["families"]),
        "--tsq-zeta", repr(op["zeta"]),
        "--out", str(out_dir),
    ]
