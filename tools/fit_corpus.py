"""Iteration totals and one hash over a fixed corpus of SVM fits, run from the root of a
checkout with one BLAS thread.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/fit_corpus.py
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/fit_corpus.py --save FILE
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/fit_corpus.py --against FILE

The corpus crosses 6 datasets (concentric/7, moons/1, xor/0, concentric/3, moons/4,
xor/5), 7 kernels (cosine:0.5, cosine:1, cosine:2, cosine:3, fractional:0.7, msi:4,
tsq:5:3), 3 Grams (m = 40 exact, m = 40 at 2,500 events, m = 100 exact; 60 test points
drawn with them) and 3 condition policies (clip, none, shift).  Each conditioned Gram is
fitted by one ``train`` per gamma in 0.1, 1, 10, 100 and by one ``train_path`` over the
four: 1,512 fits, each a ``train`` model and a ``train_path`` model.

Every mode prints one line: the fit count, the active-set iterations (``sweeps``) summed
over the ``train`` models and over the ``train_path`` models, and a sha256 (first 16 hex
digits) over each model's coefficients, dual, slack, KKT residual and objective as float64
bytes and its sweeps as int64, in corpus order.  Two checkouts that print the same line
fitted the same bits.  The hash is defined under ``OPENBLAS_NUM_THREADS=1``: under two
threads the m = 100 ``clip`` fits of cosine:0.5 and fractional:0.7 take other bits from
the ``eigh`` repair of their Gram, while the iteration totals stay the same.

``--save FILE`` also stores those fields (``numpy.savez``).  ``--against FILE`` compares
this checkout's fits with a stored run instead, for changes that move bits: per field, the
worst relative difference max|new - old| / max|old| over the models, and every model whose
sweep count differs.  It uses only public names, so it runs on any checkout that has them.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import sys

import numpy as np

from finitekernels import (ShotNoiseConfig, compute_gram, condition_gram, generate_dataset, train,
                           train_path)
from finitekernels.cli import parse_kernel

DATASETS = (("concentric", 7), ("moons", 1), ("xor", 0), ("concentric", 3), ("moons", 4),
            ("xor", 5))
KERNELS = ("cosine:0.5", "cosine:1", "cosine:2", "cosine:3", "fractional:0.7", "msi:4", "tsq:5:3")
GRAMS = ((40, None), (40, 2500), (100, None))  # (training size, events per entry or exact)
POLICIES = ("clip", "none", "shift")
GAMMAS = (0.1, 1.0, 10.0, 100.0)
CELLS = tuple(itertools.product(DATASETS, KERNELS, GRAMS, POLICIES))
ARRAYS = ("coefficients", "dual", "slack")
SCALARS = ("kkt_residual", "objective", "sweeps")


def models(cells):
    """(name, model) of each fit of ``cells``: per cell, ``train`` at each gamma, then the path."""
    for (dataset, seed), text, (m, events), policy in cells:
        kernel = parse_kernel(text)
        train_set, _ = generate_dataset(dataset, seed, train_size=m, test_size=60,
                                        convention=kernel.convention)
        noise = None if events is None else ShotNoiseConfig(events)
        gram = condition_gram(compute_gram(train_set, kernel, noise=noise), policy)
        cell = f"{dataset}/{seed} {text} m={m} {'exact' if events is None else events} {policy}"
        for gamma in GAMMAS:
            yield f"{cell} gamma={gamma:g} train", train(gram, train_set.labels, gamma)
        path = train_path(gram, train_set.labels, GAMMAS)
        for gamma, model in zip(GAMMAS, path):
            yield f"{cell} gamma={gamma:g} train_path", model


def record(cells=CELLS) -> dict[str, np.ndarray]:
    """The fields of every model, arrays concatenated in model order with their ``sizes``."""
    names, fields = [], {name: [] for name in ARRAYS + SCALARS}
    for name, model in models(cells):
        names.append(name)
        fields["coefficients"].append(model.coefficients)
        for field in ARRAYS[1:] + SCALARS:
            fields[field].append(getattr(model.diagnostics, field))
    rec = {"names": np.array(names), "sizes": np.array([a.size for a in fields["coefficients"]])}
    rec.update({field: np.concatenate(fields[field]) for field in ARRAYS})
    rec.update({field: np.array(fields[field], dtype=float) for field in SCALARS[:2]})
    rec["sweeps"] = np.array(fields["sweeps"], dtype=np.int64)
    return rec


def _split(rec, field):
    return np.split(rec[field], np.cumsum(rec["sizes"])[:-1])


def summary(rec) -> str:
    """The fit count, the iteration totals of ``train`` and ``train_path`` and the hash."""
    h = hashlib.sha256()
    per_model = zip(*(_split(rec, field) for field in ARRAYS), *(rec[field] for field in SCALARS))
    for *arrays, residual, objective, sweeps in per_model:
        for values in arrays:
            h.update(np.asarray(values, dtype=float).tobytes())
        h.update(np.array([residual, objective]).tobytes() + np.int64(sweeps).tobytes())
    is_path = np.char.endswith(rec["names"], "train_path")
    return (f"fits {int((~is_path).sum())}: train {int(rec['sweeps'][~is_path].sum())} "
            f"iterations, train_path {int(rec['sweeps'][is_path].sum())} iterations, "
            f"sha256 {h.hexdigest()[:16]}")


def compare(old, new) -> list[str]:
    """Per field, the worst relative difference of ``new`` from ``old``; every sweep mismatch."""
    lines = []
    for field in ARRAYS + SCALARS[:2]:
        if field in ARRAYS:
            pairs = zip(_split(old, field), _split(new, field))
        else:
            pairs = zip(old[field][:, None], new[field][:, None])
        worst, where = 0.0, ""
        for name, (o, n) in zip(new["names"], pairs):
            diff, scale = np.abs(n - o).max(), np.abs(o).max()
            rel = diff / scale if scale > 0.0 else (0.0 if diff == 0.0 else np.inf)
            if rel > worst:
                worst, where = rel, f" ({name})"
        lines.append(f"{field} worst relative difference {worst:.3g}{where}")
    moved = (old["sweeps"] != new["sweeps"]).nonzero()[0]
    lines.append(f"sweeps {len(moved)} mismatches")
    lines += [f"  {new['names'][i]}: {old['sweeps'][i]} -> {new['sweeps'][i]}" for i in moved]
    return lines


def main(argv=None, cells=CELLS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--save", metavar="FILE", help="store every model's fields in FILE")
    mode.add_argument("--against", metavar="FILE", help="compare with the fields stored in FILE")
    args = parser.parse_args(argv)
    rec = record(cells)
    print(summary(rec))
    if args.save:
        with open(args.save, "wb") as fh:
            np.savez(fh, **rec)
    if args.against:
        with np.load(args.against) as stored:
            old = dict(stored)
        if not np.array_equal(old["names"], rec["names"]):
            print(f"{args.against} holds another corpus", file=sys.stderr)
            return 1
        print("\n".join(compare(old, rec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
