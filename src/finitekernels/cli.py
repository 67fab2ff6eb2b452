"""Command-line pipeline around the library.

Subcommands: gen, gram, train, eval, boundary, bench, sweep, resolve.
``bench`` accepts an INI config file (flat key = value lines under sections;
see the README).  Each setting comes from its command-line flag, else from
the config file, else from the library's default.  A flag shared by several
subcommands (dataset and seed, sizes, kernel, shot noise, model and training
set) is declared once and behaves the same in each.  ``train`` takes a Gram's
provenance from the ``gram.json`` that ``gram`` writes beside it, and derives
its rank bound from the kernel recorded there.  ``eval`` scores its test
points as ``bench`` does.  ``eval`` and ``boundary`` require ``--kernel``,
which ``model.json`` does not record, and refuse a model whose coefficient
count differs from the training set's size, a rule ``svm`` owns.
Every failure exits nonzero with a stage-tagged message on stderr.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import sys
from contextlib import contextmanager
from pathlib import Path

from .bench import BenchmarkConfig, _gamma_sweep, _scorer, _split, boundary_grid, compute_gram
from .bench import run_benchmark
from .datasets import generate_dataset
from .kernels import KernelSpec
from .optics import ShotNoiseConfig
from .resolution import optimize_profile, resolution_sweep
from .states import _check_choice, msi_profile, tsq_profile
from .svm import CONDITION_POLICIES, GramMatrix, _accuracy, accuracy as model_accuracy
from .svm import condition_gram, train as train_model
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
    ``[DEFAULT]`` is refused like any unknown section; ``%(key)s`` is read as it stands.
    """
    parser = configparser.ConfigParser(default_section="", interpolation=None)  # no header names ""
    if not parser.read(path):
        raise FileNotFoundError(f"config file {path!r} not found")
    for section in parser.sections():
        _check_choice(section, tuple(dict.fromkeys(known for known, _ in _CONFIG_KEYS)),
                      "config section")
        for key in parser[section]:
            _check_choice(key, tuple(k for known, k in _CONFIG_KEYS if known == section),
                          f"[{section}] key")
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


def _cmd_gen(args, out: Path) -> None:
    convention = parse_kernel(args.kernel).convention
    sizes = _given(train_size=args.train_size, test_size=args.test_size)
    train_set, test_set = generate_dataset(args.dataset, args.seed, convention=convention, **sizes)
    with _stage("emit"):
        reports.write_dataset_csv(out / "train.csv", train_set)
        reports.write_dataset_csv(out / "test.csv", test_set)
    print(f"wrote {out / 'train.csv'} and {out / 'test.csv'}")


def _cmd_gram(args, out: Path) -> None:
    dataset = reports.load_dataset_csv(args.train)
    kernel, noise = parse_kernel(args.kernel), _noise(args)
    gram = compute_gram(dataset, kernel, noise=noise)
    meta = {"provenance": gram.provenance, "seed": None if noise is None else noise.seed,
            "size": gram.size, "n_evaluations": gram.n_evaluations, "kernel": kernel.kernel_id()}
    with _stage("emit"):
        reports.write_gram_csv(out / "gram.csv", gram)
        reports.write_json(out / "gram.json", meta)
    print(f"wrote {out / 'gram.csv'} ({gram.n_evaluations} evaluations)")


def _load_gram(path) -> GramMatrix:
    """A ``gram.csv`` with the provenance recorded in the ``gram.json`` beside it, if there is one.

    Without that file the Gram claims nothing, so ``condition_gram`` repairs it.
    The rank bound is not read but derived: the recorded kernel's
    ``feature_dimension`` on an exact Gram, else none.
    """
    gram = reports.load_gram_csv(path)
    meta_path = Path(path).with_name("gram.json")
    if not meta_path.exists():
        return gram
    meta = reports.load_report_json(meta_path)
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path} must hold a JSON object, got {type(meta).__name__}")
    if meta.get("size") != gram.size:
        raise ValueError(f"{meta_path} records a Gram of size {meta.get('size')}, "
                         f"but {path} holds {gram.size} rows")
    kernel = meta.get("kernel") if meta.get("provenance") == "exact" else None
    if kernel is not None and not isinstance(kernel, str):
        raise ValueError(f"{meta_path} must record its kernel as a string, got {kernel!r}")
    return GramMatrix(gram.values, provenance=meta.get("provenance"),
                      n_evaluations=meta.get("n_evaluations", 0),
                      rank_bound=None if kernel is None else parse_kernel(kernel).feature_dimension)


def _cmd_train(args, out: Path) -> None:
    dataset = reports.load_dataset_csv(args.dataset)
    conditioned = condition_gram(_load_gram(args.gram), **_given(policy=args.condition))
    model = train_model(conditioned, dataset.labels, args.gamma, train_id=Path(args.dataset).stem)
    with _stage("emit"):
        reports.write_model_json(out / "model.json", model)
    train_acc = model_accuracy(model, conditioned.values, dataset.labels)
    print(f"wrote {out / 'model.json'} (train accuracy {train_acc:.3f})")


def _cmd_eval(args, out: Path) -> None:
    train_set = reports.load_dataset_csv(args.train)
    model = reports.load_model_json(args.model)
    test_set = reports.load_dataset_csv(args.test)
    kernel = parse_kernel(args.kernel)
    acc = _accuracy(_scorer(test_set, train_set, kernel, _noise(args))(model), test_set.labels)
    with _stage("emit"):
        reports.write_json(out / "eval.json", {"accuracy": acc, "kernel": kernel.kernel_id()})
    print(f"test accuracy {acc:.4f}")


def _cmd_boundary(args, out: Path) -> None:
    train_set = reports.load_dataset_csv(args.train)
    model = reports.load_model_json(args.model)
    kernel = parse_kernel(args.kernel)
    grid = boundary_grid(model, train_set, kernel, noise=_noise(args), **_given(side=args.side))
    with _stage("emit"):
        reports.write_grid_csv(out / "grid.csv", grid)
        reports.write_boundary_svg(out / "boundary.svg", grid, train_set)
    print(f"wrote {out / 'grid.csv'} and {out / 'boundary.svg'}")


def _cmd_bench(args, out: Path) -> None:
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


def _cmd_sweep(args, out: Path) -> None:
    noise = _noise(args)
    rows, splits = [], {}  # the kernels of one input convention share one split
    for kernel_text in args.kernels:
        config = BenchmarkConfig(args.dataset, args.seed, parse_kernel(kernel_text), noise=noise)
        if config.kernel.convention not in splits:
            splits[config.kernel.convention] = _split(config)
        split = splits[config.kernel.convention]
        for gamma, accuracies in zip(args.gammas, _gamma_sweep(config, args.gammas, split)):
            rows.append((kernel_text, gamma, *accuracies))
    path = out / "sweep.csv"
    with _stage("emit"):
        reports.write_sweep_csv(path, rows)
    for kernel_text, gamma, train_acc, test_acc in rows:
        print(f"{kernel_text} gamma={gamma:g}: train {train_acc:.3f}, test {test_acc:.3f}")
    print(f"wrote {path}")


def _cmd_resolve(args, out: Path) -> None:
    settings = _given(families=args.families, tsq_squeezing=args.tsq_zeta)
    rows = resolution_sweep(args.lengths, **settings)
    with _stage("emit"):
        reports.write_resolution_csv(out / "resolution.csv", rows)
    print(f"wrote {out / 'resolution.csv'} ({len(rows)} rows)")


def _names(text: str) -> list[str]:
    """Comma-separated names, empty entries dropped; an argparse type, so none is a usage error."""
    names = [name for name in text.split(",") if name]
    if not names:
        raise argparse.ArgumentTypeError(f"expected comma-separated names, got {text!r}")
    return names


def _reals(text: str) -> list[float]:
    """Comma-separated reals; an argparse type, so bad or no numbers are a usage error."""
    try:
        return [float(value) for value in _names(text)]
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


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


def _family(*flags) -> argparse.ArgumentParser:
    """A parent parser: flags shared by several subcommands, declared once for all of them."""
    family = argparse.ArgumentParser(add_help=False)
    for flag, options in flags:
        family.add_argument(flag, **options)
    return family


def _add_subcommand(subs, fn, summary: str, *families) -> argparse.ArgumentParser:
    """Subcommand ``<name>``, run as ``_cmd_<name>(args, out)``: each writes into --out."""
    sub = subs.add_parser(fn.__name__.removeprefix("_cmd_"), help=summary, parents=families)
    sub.add_argument("--out", type=Path, required=True)
    sub.set_defaults(fn=fn)
    return sub


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finitekernels",
        description="Kernel pipelines over finite feature maps: data, Gram, SVM, boundaries.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    data = _family(("--dataset", {}), ("--seed", {"type": int}))
    sizes = _family(("--train-size", {"type": int}), ("--test-size", {"type": int}))
    kernel = _family(("--kernel", {}))
    noise = _family(("--events", {"type": int, "help": "shot-noise events per kernel value"}),
                    ("--fidelity", {"type": float, "help": "measurement fidelity in (0, 1]"}),
                    ("--noise-seed", {"type": int, "help": "shot-noise stream seed"}))
    model = _family(("--model", {"required": True}), ("--train", {"required": True}),
                    ("--kernel", {"required": True, "help": "the model's training kernel"}))

    gen = _add_subcommand(subs, _cmd_gen, "generate a benchmark dataset", data, sizes)
    gen.add_argument("--kernel", help="fixes the input convention")

    gram = _add_subcommand(subs, _cmd_gram, "compute a Gram matrix from a dataset CSV",
                           kernel, noise)
    gram.add_argument("--train", required=True, help="dataset CSV")

    train_p = _add_subcommand(subs, _cmd_train, "train on a Gram CSV plus labels")
    train_p.add_argument("--gram", required=True)
    train_p.add_argument("--dataset", required=True, help="dataset CSV carrying the labels")
    train_p.add_argument("--gamma", type=float, default=BenchmarkConfig.gamma)
    train_p.add_argument("--condition", choices=CONDITION_POLICIES)

    eval_p = _add_subcommand(subs, _cmd_eval, "evaluate a model on a test CSV", model, noise)
    eval_p.add_argument("--test", required=True)

    boundary = _add_subcommand(subs, _cmd_boundary, "decision scores on a grid", model, noise)
    boundary.add_argument("--side", type=int)

    bench = _add_subcommand(subs, _cmd_bench, "full pipeline, optionally from a config file",
                            data, sizes, kernel, noise)
    bench.add_argument("--config", help="INI config file")
    bench.add_argument("--gamma", type=float)
    bench.add_argument("--condition", choices=CONDITION_POLICIES)
    bench.add_argument("--side", type=int)

    sweep = _add_subcommand(subs, _cmd_sweep, "kernel x gamma accuracy table", data, noise)
    sweep.add_argument("--kernels", type=_names, default="cosine:0.5,cosine:1,cosine:2")
    sweep.add_argument("--gammas", type=_reals, default="0.1,1,10")

    resolve = _add_subcommand(subs, _cmd_resolve, "resolution sweep over profile families")
    resolve.add_argument("--lengths", type=_length_range, default="2:32", help="inclusive lo:hi")
    resolve.add_argument("--families", type=_names)
    resolve.add_argument("--tsq-zeta", type=float)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _fill_unset(args)
        args.out.mkdir(parents=True, exist_ok=True)
        args.fn(args, args.out)
    except Exception as exc:
        tagged = exc if isinstance(exc, StageError) else StageError(args.command, exc)
        print(f"finitekernels: {tagged}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
