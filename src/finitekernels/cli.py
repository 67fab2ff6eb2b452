"""Command-line pipeline around the library.

Subcommands: gen, gram, train, eval, boundary, bench, sweep, resolve.
``bench`` accepts an INI config file (flat key = value lines under sections;
see the README).  Each setting comes from its command-line flag, else from
the config file, else from the library's default.  Every failure exits
nonzero with a stage-tagged message on stderr.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import sys
from contextlib import contextmanager
from pathlib import Path

from .bench import BenchmarkConfig, boundary_grid, compute_gram, gamma_sweep, kernel_rows
from .bench import run_benchmark
from .datasets import generate_dataset
from .kernels import KernelSpec
from .optics import ShotNoiseConfig
from .resolution import optimize_profile, resolution_sweep
from .states import msi_profile, tsq_profile
from .svm import CONDITION_POLICIES, TrainedModel, accuracy as model_accuracy, condition_gram
from .svm import train as train_model
from . import reports

# the settings the library has no default for
_DEFAULTS = {"dataset": "concentric", "seed": 7, "kernel": "cosine:1"}

# every key a bench config file may hold: (section, key) -> (flag it fills, ConfigParser getter)
_CONFIG_KEYS = {
    ("dataset", "name"): ("dataset", "get"),
    ("dataset", "seed"): ("seed", "getint"),
    ("dataset", "train_size"): ("train_size", "getint"),
    ("dataset", "test_size"): ("test_size", "getint"),
    ("kernel", "spec"): ("kernel", "get"),
    ("svm", "gamma"): ("gamma", "getfloat"),
    ("svm", "condition"): ("condition", "get"),
    ("grid", "side"): ("side", "getint"),
    ("noise", "enabled"): (None, "getboolean"),  # fills no flag: switches the noise keys
    ("noise", "events"): ("events", "getint"),
    ("noise", "fidelity"): ("fidelity", "getfloat"),
    ("noise", "seed"): ("noise_seed", "getint"),
}


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"error in stage '{stage}': {cause}")
        self.stage = stage


@contextmanager
def _stage(stage: str):
    """Tag failures with ``stage``; ``main`` tags the rest with the subcommand."""
    try:
        yield
    except Exception as exc:
        raise StageError(stage, exc) from exc


def parse_kernel(text: str, dimension: int = 2) -> KernelSpec:
    """Kernel strings: cosine:N (fractional N allowed), fractional:p, msi:L, opt:L, tsq:L:zeta.

    ``opt:L`` is the variance-optimal profile of length L (``optimize_profile``).
    Whitespace is refused: ``int`` and ``float`` would strip it, while
    ``sweep.csv`` and ``report.json`` would carry it as it is.
    """
    if any(ch.isspace() for ch in text):
        raise ValueError(f"bad kernel string {text!r}: it must not hold whitespace")
    name, *args = text.split(":")
    spec = functools.partial(KernelSpec, dimension=dimension, label=text)
    try:
        if name in ("cosine", "fractional") and len(args) == 1:
            value = float(args[0])
            if name == "cosine" and value.is_integer() and value >= 1:
                return spec(kind="cosine_power", power=int(value))
            return spec(kind="fractional_cosine", exponent=value)
        if name in ("msi", "opt") and len(args) == 1:
            build = msi_profile if name == "msi" else optimize_profile
            return spec(kind="profile", profile=build(int(args[0])))
        if name == "tsq" and len(args) == 2:
            return spec(kind="profile", profile=tsq_profile(int(args[0]), float(args[1])))
    except ValueError as exc:
        raise ValueError(f"bad kernel string {text!r}: {exc}") from exc
    raise ValueError(
        f"bad kernel string {text!r}; expected cosine:N, fractional:p, msi:L, opt:L, or tsq:L:zeta"
    )


def _given(**settings) -> dict:
    """The settings the user gave; the rest are left to the library's defaults."""
    return {name: value for name, value in settings.items() if value is not None}


def _noise(args) -> ShotNoiseConfig | None:
    """Shot noise is on when --events is given; with it off, a qualifier is an error."""
    if args.events is not None:
        return ShotNoiseConfig(args.events, **_given(fidelity=args.fidelity, seed=args.noise_seed))
    for flag, value in (("--fidelity", args.fidelity), ("--noise-seed", args.noise_seed)):
        if value is not None:
            raise ValueError(f"{flag} qualifies shot noise, which is off without --events")
    return None


def _get(parser, getter: str, section: str, key: str):
    """``parser.<getter>(section, key)``, None if unset; a bad value's message names the key."""
    try:
        return getattr(parser, getter)(section, key, fallback=None)
    except ValueError as exc:
        raise ValueError(f"[{section}] {key}: {exc}") from exc


def _read_config(path: str, args) -> None:
    """Fill the flags left unset from a bench config file.

    ``[noise] enabled = true`` turns shot noise on.  Without that line the
    other noise keys are an error; under ``enabled = false`` they are ignored.
    """
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise FileNotFoundError(f"config file {path!r} not found")
    for section in parser.sections():
        if not any(section == known for known, _ in _CONFIG_KEYS):
            raise ValueError(f"unknown config section [{section}]")
        for key in parser[section]:
            if (section, key) not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r} in section [{section}]")
    enabled = _get(parser, "getboolean", "noise", "enabled")
    if enabled is False:
        parser.remove_section("noise")
    for (section, key), (flag, getter) in _CONFIG_KEYS.items():
        if flag is None or not parser.has_option(section, key) or getattr(args, flag) is not None:
            continue
        if section == "noise" and not enabled and args.events is None:
            raise ValueError(f"[noise] {key} is set but noise is off; add enabled = true")
        setattr(args, flag, _get(parser, getter, section, key))
    if enabled and args.events is None:
        args.events = ShotNoiseConfig.events_per_point


def _fill_unset(args) -> None:
    """Each setting takes one path: flag, then config file, then default."""
    if getattr(args, "config", None) is not None:
        with _stage("config"):
            _read_config(args.config, args)
    for name, value in _DEFAULTS.items():
        if getattr(args, name, value) is None:  # skips subcommands without the flag
            setattr(args, name, value)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_gen(args) -> int:
    out = _out_dir(args)
    convention = parse_kernel(args.kernel).convention
    sizes = _given(train_size=args.train_size, test_size=args.test_size)
    train_set, test_set = generate_dataset(args.dataset, args.seed, convention=convention, **sizes)
    with _stage("emit"):
        reports.write_dataset_csv(out / "train.csv", train_set)
        reports.write_dataset_csv(out / "test.csv", test_set)
    print(f"wrote {out / 'train.csv'} and {out / 'test.csv'}")
    return 0


def _cmd_gram(args) -> int:
    out = _out_dir(args)
    dataset = reports.load_dataset_csv(args.train)
    kernel = parse_kernel(args.kernel)
    gram = compute_gram(dataset, kernel, noise=_noise(args))
    meta = {"provenance": gram.provenance, "seed": gram.seed, "size": gram.size,
            "n_evaluations": gram.n_evaluations, "kernel": kernel.kernel_id()}
    with _stage("emit"):
        reports.write_gram_csv(out / "gram.csv", gram)
        reports.write_json(out / "gram.json", meta)
    print(f"wrote {out / 'gram.csv'} ({gram.n_evaluations} evaluations)")
    return 0


def _cmd_train(args) -> int:
    out = _out_dir(args)
    dataset = reports.load_dataset_csv(args.dataset)
    conditioned = condition_gram(reports.load_gram_csv(args.gram), **_given(policy=args.condition))
    model = train_model(conditioned, dataset.labels, args.gamma, train_id=Path(args.dataset).stem)
    with _stage("emit"):
        reports.write_model_json(out / "model.json", model)
    train_acc = model_accuracy(model, conditioned.values, dataset.labels)
    print(f"wrote {out / 'model.json'} (train accuracy {train_acc:.3f})")
    return 0


def _load_model(path, train_set) -> TrainedModel:
    """The model at ``path``, which must hold one coefficient per training point."""
    model = reports.load_model_json(path)
    if model.coefficients.size != train_set.size:
        raise ValueError(f"model {path} has {model.coefficients.size} coefficients "
                         f"but the training set has {train_set.size} points")
    return model


def _cmd_eval(args) -> int:
    out = _out_dir(args)
    train_set = reports.load_dataset_csv(args.train)
    model = _load_model(args.model, train_set)
    test_set = reports.load_dataset_csv(args.test)
    kernel = parse_kernel(args.kernel)
    rows = kernel_rows(test_set, train_set, kernel, noise=_noise(args))
    acc = model_accuracy(model, rows, test_set.labels)
    with _stage("emit"):
        reports.write_json(out / "eval.json", {"accuracy": acc, "kernel": kernel.kernel_id()})
    print(f"test accuracy {acc:.4f}")
    return 0


def _cmd_boundary(args) -> int:
    out = _out_dir(args)
    train_set = reports.load_dataset_csv(args.train)
    model = _load_model(args.model, train_set)
    kernel = parse_kernel(args.kernel)
    grid = boundary_grid(model, train_set, kernel, noise=_noise(args), **_given(side=args.side))
    with _stage("emit"):
        reports.write_grid_csv(out / "grid.csv", grid)
        reports.write_boundary_svg(out / "boundary.svg", grid, train_set)
    print(f"wrote {out / 'grid.csv'} and {out / 'boundary.svg'}")
    return 0


def _cmd_bench(args) -> int:
    out = _out_dir(args)
    with _stage("config"):
        settings = _given(gamma=args.gamma, train_size=args.train_size, test_size=args.test_size,
                          grid_side=args.side, condition_policy=args.condition)
        kernel = parse_kernel(args.kernel)
        config = BenchmarkConfig(args.dataset, args.seed, kernel, noise=_noise(args), **settings)
    report = run_benchmark(config)
    with _stage("emit"):
        reports.emit_report(report, out)
    print(
        f"{config.dataset} seed {config.seed} kernel {config.kernel.kernel_id()}: "
        f"train {report.train_accuracy:.3f}, test {report.test_accuracy:.3f}"
    )
    return 0


def _cmd_sweep(args) -> int:
    out = _out_dir(args)
    gammas = [float(v) for v in args.gammas.split(",") if v]
    if not args.kernels or not gammas:
        raise ValueError("need at least one kernel and one gamma")
    noise = _noise(args)
    rows = []
    for kernel_text in args.kernels:
        config = BenchmarkConfig(args.dataset, args.seed, parse_kernel(kernel_text), noise=noise)
        for gamma, accuracies in zip(gammas, gamma_sweep(config, gammas)):
            rows.append((kernel_text, gamma, *accuracies))
    path = out / "sweep.csv"
    with _stage("emit"):
        reports.write_sweep_csv(path, rows)
    for kernel_text, gamma, train_acc, test_acc in rows:
        print(f"{kernel_text} gamma={gamma:g}: train {train_acc:.3f}, test {test_acc:.3f}")
    print(f"wrote {path}")
    return 0


def _cmd_resolve(args) -> int:
    out = _out_dir(args)
    settings = _given(families=args.families, tsq_squeezing=args.tsq_zeta)
    rows = resolution_sweep(args.lengths, **settings)
    with _stage("emit"):
        reports.write_resolution_csv(out / "resolution.csv", rows)
    print(f"wrote {out / 'resolution.csv'} ({len(rows)} rows)")
    return 0


def _names(text: str) -> list[str]:
    """Comma-separated names, empty entries dropped."""
    return [name for name in text.split(",") if name]


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
    sub.add_argument("--events", type=int, help="shot-noise events per kernel value")
    sub.add_argument("--fidelity", type=float, help="measurement fidelity in (0, 1]")
    sub.add_argument("--noise-seed", type=int, help="shot-noise stream seed")


def _add_subcommand(subs, fn, summary: str) -> argparse.ArgumentParser:
    """Subcommand ``<name>``, run by ``_cmd_<name>``; every subcommand writes into --out."""
    sub = subs.add_parser(fn.__name__.removeprefix("_cmd_"), help=summary)
    sub.add_argument("--out", required=True)
    sub.set_defaults(fn=fn)
    return sub


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finitekernels",
        description="Kernel pipelines over finite feature maps: data, Gram, SVM, boundaries.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = _add_subcommand(subs, _cmd_gen, "generate a benchmark dataset")
    gen.add_argument("--dataset")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--train-size", type=int)
    gen.add_argument("--test-size", type=int)
    gen.add_argument("--kernel", help="fixes the input convention")

    gram = _add_subcommand(subs, _cmd_gram, "compute a Gram matrix from a dataset CSV")
    gram.add_argument("--train", required=True, help="dataset CSV")
    gram.add_argument("--kernel")
    _add_noise_flags(gram)

    train_p = _add_subcommand(subs, _cmd_train, "train on a Gram CSV plus labels")
    train_p.add_argument("--gram", required=True)
    train_p.add_argument("--dataset", required=True, help="dataset CSV carrying the labels")
    train_p.add_argument("--gamma", type=float, default=BenchmarkConfig.gamma)
    train_p.add_argument("--condition", choices=CONDITION_POLICIES)

    eval_p = _add_subcommand(subs, _cmd_eval, "evaluate a model on a test CSV")
    eval_p.add_argument("--model", required=True)
    eval_p.add_argument("--train", required=True)
    eval_p.add_argument("--test", required=True)
    eval_p.add_argument("--kernel")
    _add_noise_flags(eval_p)

    boundary = _add_subcommand(subs, _cmd_boundary, "decision scores on a grid")
    boundary.add_argument("--model", required=True)
    boundary.add_argument("--train", required=True)
    boundary.add_argument("--kernel")
    boundary.add_argument("--side", type=int)
    _add_noise_flags(boundary)

    bench = _add_subcommand(subs, _cmd_bench, "full pipeline, optionally from a config file")
    bench.add_argument("--config", help="INI config file")
    bench.add_argument("--dataset")
    bench.add_argument("--seed", type=int)
    bench.add_argument("--train-size", type=int)
    bench.add_argument("--test-size", type=int)
    bench.add_argument("--kernel")
    bench.add_argument("--gamma", type=float)
    bench.add_argument("--condition", choices=CONDITION_POLICIES)
    bench.add_argument("--side", type=int)
    _add_noise_flags(bench)

    sweep = _add_subcommand(subs, _cmd_sweep, "kernel x gamma accuracy table")
    sweep.add_argument("--dataset")
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--kernels", type=_names, default="cosine:0.5,cosine:1,cosine:2")
    sweep.add_argument("--gammas", default="0.1,1,10")
    _add_noise_flags(sweep)

    resolve = _add_subcommand(subs, _cmd_resolve, "resolution sweep over profile families")
    resolve.add_argument("--lengths", type=_length_range, default="2:32", help="inclusive lo:hi")
    resolve.add_argument("--families", type=_names)
    resolve.add_argument("--tsq-zeta", type=float)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _fill_unset(args)
        return args.fn(args)
    except Exception as exc:
        tagged = exc if isinstance(exc, StageError) else StageError(args.command, exc)
        print(f"finitekernels: {tagged}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
