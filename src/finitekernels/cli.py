"""Command-line pipeline around the library.

Subcommands: gen, gram, train, eval, boundary, bench, sweep, resolve.
``bench`` accepts an INI config file (flat key = value lines under sections;
see the README); command-line flags override file values.  Every failure
exits nonzero with a stage-tagged message on stderr.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from pathlib import Path

from .bench import (
    BenchmarkConfig,
    boundary_grid,
    compute_gram,
    kernel_rows,
    run_benchmark,
)
from .datasets import generate_dataset
from .kernels import KernelSpec
from .optics import ShotNoiseConfig
from .resolution import resolution_sweep
from .states import msi_profile, tsq_profile
from .svm import condition_gram, accuracy as model_accuracy, train as train_model
from . import reports


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"error in stage '{stage}': {cause}")
        self.stage = stage


def _stage(stage: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, exc) from exc


def parse_kernel(text: str, dimension: int = 2) -> KernelSpec:
    """Kernel strings: cosine:N (fractional N allowed), fractional:p, msi:L, tsq:L:zeta."""
    parts = text.split(":")
    name = parts[0]
    try:
        if name == "cosine" and len(parts) == 2:
            value = float(parts[1])
            if value.is_integer() and value >= 1:
                return KernelSpec(
                    kind="cosine_power", dimension=dimension, power=int(value), label=text
                )
            return KernelSpec(
                kind="fractional_cosine", dimension=dimension, exponent=value, label=text
            )
        if name == "fractional" and len(parts) == 2:
            return KernelSpec(
                kind="fractional_cosine",
                dimension=dimension,
                exponent=float(parts[1]),
                label=text,
            )
        if name == "msi" and len(parts) == 2:
            return KernelSpec(
                kind="profile",
                dimension=dimension,
                profile=msi_profile(int(parts[1])),
                label=text,
            )
        if name == "tsq" and len(parts) == 3:
            return KernelSpec(
                kind="profile",
                dimension=dimension,
                profile=tsq_profile(int(parts[1]), float(parts[2])),
                label=text,
            )
    except ValueError as exc:
        raise ValueError(f"bad kernel string {text!r}: {exc}") from exc
    raise ValueError(
        f"bad kernel string {text!r}; expected cosine:N, fractional:p, msi:L, or tsq:L:zeta"
    )


def _noise_from(events, fidelity, noise_seed) -> ShotNoiseConfig | None:
    if events is None:
        return None
    return ShotNoiseConfig(
        events_per_point=events,
        fidelity=0.98 if fidelity is None else fidelity,
        seed=0 if noise_seed is None else noise_seed,
    )


# every section and key a bench config file may hold
_CONFIG_KEYS = {
    "dataset": ("name", "seed", "train_size", "test_size"),
    "kernel": ("spec",),
    "svm": ("gamma", "condition"),
    "grid": ("side",),
    "noise": ("enabled", "events", "fidelity", "seed"),
}


def _load_bench_config(path: str | None, args) -> BenchmarkConfig:
    """INI file values first, then command-line overrides."""
    values: dict = {}
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise FileNotFoundError(f"config file {path!r} not found")
        section = {}
        for name in parser.sections():
            if name not in _CONFIG_KEYS:
                raise ValueError(f"unknown config section [{name}]")
            for key, val in parser.items(name):
                if key not in _CONFIG_KEYS[name]:
                    raise ValueError(f"unknown config key {key!r} in section [{name}]")
                section[f"{name}.{key}"] = val
        values = section

    def pick(flag, key, cast, default=None):
        if flag is not None:
            return flag
        if key in values:
            return cast(values[key])
        return default

    dataset = pick(args.dataset, "dataset.name", str, "concentric")
    seed = pick(args.seed, "dataset.seed", int, 7)
    train_size = pick(args.train_size, "dataset.train_size", int, 40)
    test_size = pick(args.test_size, "dataset.test_size", int, 60)
    kernel_text = pick(args.kernel, "kernel.spec", str, "cosine:1")
    gamma = pick(args.gamma, "svm.gamma", float, 1.0)
    policy = pick(args.condition, "svm.condition", str, "clip")
    side = pick(args.side, "grid.side", int, 35)

    events = args.events
    fidelity = args.fidelity
    noise_seed = args.noise_seed
    if events is None and values.get("noise.enabled", "false").lower() in ("1", "true", "yes"):
        events = int(values.get("noise.events", 2500))
    if fidelity is None and "noise.fidelity" in values:
        fidelity = float(values["noise.fidelity"])
    if noise_seed is None and "noise.seed" in values:
        noise_seed = int(values["noise.seed"])

    return BenchmarkConfig(
        dataset=dataset,
        seed=seed,
        kernel=parse_kernel(kernel_text),
        gamma=gamma,
        train_size=train_size,
        test_size=test_size,
        noise=_noise_from(events, fidelity, noise_seed),
        grid_side=side,
        condition_policy=policy,
    )


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_gen(args) -> int:
    out = _out_dir(args)
    kernel = _stage("gen", parse_kernel, args.kernel)
    train_set, test_set = _stage(
        "gen",
        generate_dataset,
        args.dataset,
        args.seed,
        train_size=args.train_size,
        test_size=args.test_size,
        convention=kernel.convention,
    )
    _stage("emit", reports.write_dataset_csv, out / "train.csv", train_set)
    _stage("emit", reports.write_dataset_csv, out / "test.csv", test_set)
    print(f"wrote {out / 'train.csv'} and {out / 'test.csv'}")
    return 0


def _cmd_gram(args) -> int:
    out = _out_dir(args)
    dataset = _stage("gram", reports.load_dataset_csv, args.train)
    kernel = _stage("gram", parse_kernel, args.kernel)
    noise = _noise_from(args.events, args.fidelity, args.noise_seed)
    gram = _stage("gram", compute_gram, dataset, kernel, noise=noise)
    _stage("emit", reports.write_gram_csv, out / "gram.csv", gram)
    meta = {
        "provenance": gram.provenance,
        "seed": gram.seed,
        "n_evaluations": gram.n_evaluations,
        "kernel": kernel.kernel_id(),
        "size": gram.size,
    }
    (out / "gram.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    print(f"wrote {out / 'gram.csv'} ({gram.n_evaluations} evaluations)")
    return 0


def _cmd_train(args) -> int:
    out = _out_dir(args)
    dataset = _stage("train", reports.load_dataset_csv, args.dataset)
    gram = _stage("train", reports.load_gram_csv, args.gram)
    conditioned = _stage("train", condition_gram, gram, args.condition)
    model = _stage(
        "train",
        train_model,
        conditioned,
        dataset.labels,
        args.gamma,
        train_id=Path(args.dataset).stem,
    )
    _stage("emit", reports.write_model_json, out / "model.json", model)
    train_acc = model_accuracy(model, conditioned.values, dataset.labels)
    print(f"wrote {out / 'model.json'} (train accuracy {train_acc:.3f})")
    return 0


def _cmd_eval(args) -> int:
    out = _out_dir(args)
    model = _stage("eval", reports.load_model_json, args.model)
    train_set = _stage("eval", reports.load_dataset_csv, args.train)
    test_set = _stage("eval", reports.load_dataset_csv, args.test)
    kernel = _stage("eval", parse_kernel, args.kernel)
    noise = _noise_from(args.events, args.fidelity, args.noise_seed)
    rows = _stage("eval", kernel_rows, test_set, train_set, kernel, noise=noise)
    acc = _stage("eval", model_accuracy, model, rows, test_set.labels)
    (out / "eval.json").write_text(
        json.dumps({"accuracy": acc, "kernel": kernel.kernel_id()}, sort_keys=True, indent=2)
        + "\n"
    )
    print(f"test accuracy {acc:.4f}")
    return 0


def _cmd_boundary(args) -> int:
    out = _out_dir(args)
    model = _stage("boundary", reports.load_model_json, args.model)
    train_set = _stage("boundary", reports.load_dataset_csv, args.train)
    kernel = _stage("boundary", parse_kernel, args.kernel)
    noise = _noise_from(args.events, args.fidelity, args.noise_seed)
    grid = _stage(
        "boundary", boundary_grid, model, train_set, kernel, side=args.side, noise=noise
    )
    _stage("emit", reports.write_grid_csv, out / "grid.csv", grid)
    svg = reports.render_boundary_svg(grid, train_set=train_set)
    (out / "boundary.svg").write_text(svg)
    print(f"wrote {out / 'grid.csv'} and {out / 'boundary.svg'}")
    return 0


def _cmd_bench(args) -> int:
    out = _out_dir(args)
    config = _stage("config", _load_bench_config, args.config, args)
    report = _stage("bench", run_benchmark, config, out_dir=out)
    print(
        f"{config.dataset} seed {config.seed} kernel {config.kernel.kernel_id()}: "
        f"train {report.train_accuracy:.3f}, test {report.test_accuracy:.3f}"
    )
    return 0


def _cmd_sweep(args) -> int:
    out = _out_dir(args)
    kernels = [k for k in args.kernels.split(",") if k]
    gammas = [float(v) for v in args.gammas.split(",") if v]
    if not kernels or not gammas:
        raise StageError("sweep", ValueError("need at least one kernel and one gamma"))
    rows = []
    for kernel_text in kernels:
        for gamma in gammas:
            config = BenchmarkConfig(
                dataset=args.dataset,
                seed=args.seed,
                kernel=_stage("sweep", parse_kernel, kernel_text),
                gamma=gamma,
                noise=_noise_from(args.events, args.fidelity, args.noise_seed),
                grid_side=2,  # sweep skips boundary mapping detail
            )
            report = _stage("sweep", run_benchmark, config)
            rows.append(
                (kernel_text, gamma, report.train_accuracy, report.test_accuracy)
            )
    path = out / "sweep.csv"
    _stage("emit", reports.write_sweep_csv, path, rows)
    for kernel_text, gamma, train_acc, test_acc in rows:
        print(f"{kernel_text} gamma={gamma:g}: train {train_acc:.3f}, test {test_acc:.3f}")
    print(f"wrote {path}")
    return 0


def _cmd_resolve(args) -> int:
    out = _out_dir(args)
    families = [f for f in args.families.split(",") if f]
    rows = _stage(
        "resolve", resolution_sweep, args.lengths, families, tsq_squeezing=args.tsq_zeta
    )
    _stage("emit", reports.write_resolution_csv, out / "resolution.csv", rows)
    print(f"wrote {out / 'resolution.csv'} ({len(rows)} rows)")
    return 0


def _length_range(text: str) -> range:
    """Inclusive integer range from ``lo:hi``; an argparse type, so bad text is a usage error."""
    lo, _, hi = text.partition(":")
    try:
        lengths = range(int(lo), int(hi) + 1)
    except ValueError:
        lengths = range(0)
    if not lengths:
        raise argparse.ArgumentTypeError(f"expected lo:hi with integers lo <= hi, got {text!r}")
    return lengths


def _add_noise_flags(sub) -> None:
    sub.add_argument("--events", type=int, default=None, help="shot-noise events per kernel value")
    sub.add_argument("--fidelity", type=float, default=None, help="measurement fidelity in (0, 1]")
    sub.add_argument("--noise-seed", type=int, default=None, help="shot-noise stream seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finitekernels",
        description="Kernel pipelines over finite feature maps: data, Gram, SVM, boundaries.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a benchmark dataset")
    gen.add_argument("--dataset", default="concentric")
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--train-size", type=int, default=40)
    gen.add_argument("--test-size", type=int, default=60)
    gen.add_argument("--kernel", default="cosine:1", help="fixes the input convention")
    gen.add_argument("--out", required=True)
    gen.set_defaults(fn=_cmd_gen)

    gram = subs.add_parser("gram", help="compute a Gram matrix from a dataset CSV")
    gram.add_argument("--train", required=True, help="dataset CSV")
    gram.add_argument("--kernel", default="cosine:1")
    _add_noise_flags(gram)
    gram.add_argument("--out", required=True)
    gram.set_defaults(fn=_cmd_gram)

    train_p = subs.add_parser("train", help="train on a Gram CSV plus labels")
    train_p.add_argument("--gram", required=True)
    train_p.add_argument("--dataset", required=True, help="dataset CSV carrying the labels")
    train_p.add_argument("--gamma", type=float, default=1.0)
    train_p.add_argument("--condition", default="clip", choices=("clip", "shift", "none"))
    train_p.add_argument("--out", required=True)
    train_p.set_defaults(fn=_cmd_train)

    eval_p = subs.add_parser("eval", help="evaluate a model on a test CSV")
    eval_p.add_argument("--model", required=True)
    eval_p.add_argument("--train", required=True)
    eval_p.add_argument("--test", required=True)
    eval_p.add_argument("--kernel", default="cosine:1")
    _add_noise_flags(eval_p)
    eval_p.add_argument("--out", required=True)
    eval_p.set_defaults(fn=_cmd_eval)

    boundary = subs.add_parser("boundary", help="decision scores on a grid")
    boundary.add_argument("--model", required=True)
    boundary.add_argument("--train", required=True)
    boundary.add_argument("--kernel", default="cosine:1")
    boundary.add_argument("--side", type=int, default=35)
    _add_noise_flags(boundary)
    boundary.add_argument("--out", required=True)
    boundary.set_defaults(fn=_cmd_boundary)

    bench = subs.add_parser("bench", help="full pipeline, optionally from a config file")
    bench.add_argument("--config", default=None, help="INI config file")
    bench.add_argument("--dataset", default=None)
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--train-size", type=int, default=None)
    bench.add_argument("--test-size", type=int, default=None)
    bench.add_argument("--kernel", default=None)
    bench.add_argument("--gamma", type=float, default=None)
    bench.add_argument("--condition", default=None, choices=("clip", "shift", "none"))
    bench.add_argument("--side", type=int, default=None)
    _add_noise_flags(bench)
    bench.add_argument("--out", required=True)
    bench.set_defaults(fn=_cmd_bench)

    sweep = subs.add_parser("sweep", help="kernel x gamma accuracy table")
    sweep.add_argument("--dataset", default="concentric")
    sweep.add_argument("--seed", type=int, default=7)
    sweep.add_argument("--kernels", default="cosine:0.5,cosine:1,cosine:2")
    sweep.add_argument("--gammas", default="0.1,1,10")
    _add_noise_flags(sweep)
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(fn=_cmd_sweep)

    resolve = subs.add_parser("resolve", help="resolution sweep over profile families")
    resolve.add_argument(
        "--lengths", type=_length_range, default="2:32", help="inclusive range lo:hi"
    )
    resolve.add_argument("--families", default="msi,tsq,optimized")
    resolve.add_argument("--tsq-zeta", type=float, default=3.0)
    resolve.add_argument("--out", required=True)
    resolve.set_defaults(fn=_cmd_resolve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except StageError as exc:
        print(f"finitekernels: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # stray failures still get a stage tag
        print(f"finitekernels: error in stage '{args.command}': {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
