"""Hashes of the 18 pinned ``bench`` artifact sets, of two staged chains and of two large
``bench`` sets, run from the root of a checkout.

    PYTHONPATH=src python3 tools/pinned_hashes.py

Runs ``finitekernels bench`` at its defaults on concentric/7, moons/1 and
xor/0, each with cosine:0.5, cosine:1, cosine:1 at 2,500 events, cosine:3,
msi:4 and tsq:8:3, into a temporary directory.  Then runs the staged chain
gen -> gram -> train -> boundary on moons/1 with cosine:1, exact and at
2,500 events, so the files only the staged commands write (``gram.json``
and ``train``'s ``model.json``) are hashed too.  Last, runs ``bench`` on
moons/1 with cosine:1 at ``--train-size 1000``, exact and at 2,500 events,
where nearly every Gram value is distinct (exact) or few are (sampled).
For each set it prints one line: the dataset, the kernel (a staged chain's
line starts ``staged``, a large set's carries ``--train-size 1000``),
and the set's hash (sha256 over each file's name, a NUL byte and the
file's bytes, in name order; first 16 hex digits).  An indented line per
file follows with the sha256 of its bytes (first 16 hex digits).  Two
checkouts whose lines match wrote the same bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from finitekernels.cli import main

DATASETS = (("concentric", 7), ("moons", 1), ("xor", 0))
KERNELS = (("cosine:0.5",), ("cosine:1",), ("cosine:1", "--events", "2500"), ("cosine:3",),
           ("msi:4",), ("tsq:8:3",))
STAGED = (("cosine:1",), ("cosine:1", "--events", "2500"))
LARGE = (("cosine:1", "--train-size", "1000"), ("cosine:1", "--train-size", "1000", "--events", "2500"))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def set_hash(files: dict[str, bytes]) -> str:
    """sha256 over each file's name, NUL and bytes, in name order; first 16 hex digits."""
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name])
    return h.hexdigest()[:16]


def ran(argv: list[str]) -> bool:
    """Whether one CLI call exits 0; its output is dropped, a failure is named on stderr."""
    with contextlib.redirect_stdout(io.StringIO()):
        if main(argv) == 0:
            return True
    print(f"{argv[0]} failed: {' '.join(argv)}", file=sys.stderr)
    return False


def staged_chain(out: Path, kernel: str, extra: list[str]) -> list[list[str]]:
    """gen -> gram -> train -> boundary on moons/1, each stage writing into its own folder."""
    gen, gram, train, boundary = (out / stage for stage in ("gen", "gram", "train", "boundary"))
    data = str(gen / "train.csv")
    return [
        ["gen", "--dataset", "moons", "--seed", "1", "--kernel", kernel, "--out", str(gen)],
        ["gram", "--train", data, "--kernel", kernel, *extra, "--out", str(gram)],
        ["train", "--gram", str(gram / "gram.csv"), "--dataset", data, "--out", str(train)],
        ["boundary", "--model", str(train / "model.json"), "--train", data, "--kernel", kernel,
         *extra, "--out", str(boundary)],
    ]


def report(label: str, out: Path) -> None:
    """The set line and the per-file lines of every file under ``out`` (names are unique)."""
    files = {p.name: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    print(f"{label} {set_hash(files)}")
    for name in sorted(files):
        print(f"  {name} {digest(files[name])}")


def run() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for dataset, seed in DATASETS:
            for kernel, *extra in KERNELS:
                out = Path(tmp, f"{dataset}-{seed}-{kernel}-{len(extra)}")
                if not ran(["bench", "--dataset", dataset, "--seed", str(seed), "--kernel", kernel,
                            *extra, "--out", str(out)]):
                    return 1
                report(f"{dataset}/{seed} {' '.join([kernel, *extra])}", out)
        for kernel, *extra in STAGED:
            out = Path(tmp, f"staged-{kernel}-{len(extra)}")
            if not all(ran(argv) for argv in staged_chain(out, kernel, extra)):
                return 1
            report(f"staged moons/1 {' '.join([kernel, *extra])}", out)
        for kernel, *extra in LARGE:
            out = Path(tmp, f"large-{kernel}-{len(extra)}")
            if not ran(["bench", "--dataset", "moons", "--seed", "1", "--kernel", kernel, *extra,
                        "--out", str(out)]):
                return 1
            report(f"moons/1 {' '.join([kernel, *extra])}", out)
    return 0


if __name__ == "__main__":
    sys.exit(run())
