"""Hashes of the 18 pinned ``bench`` artifact sets, run from the root of a checkout.

    PYTHONPATH=src python3 tools/pinned_hashes.py

Runs ``finitekernels bench`` at its defaults on concentric/7, moons/1 and
xor/0, each with cosine:0.5, cosine:1, cosine:1 at 2,500 events, cosine:3,
msi:4 and tsq:8:3, into a temporary directory.  For each set it prints one
line: the dataset, the kernel, and the set's hash (sha256 over each file's
name, a NUL byte and the file's bytes, in name order; first 16 hex digits).
An indented line per file follows with the sha256 of its bytes (first 16
hex digits).  Two checkouts whose lines match wrote the same bytes.
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


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def set_hash(files: dict[str, bytes]) -> str:
    """sha256 over each file's name, NUL and bytes, in name order; first 16 hex digits."""
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name])
    return h.hexdigest()[:16]


def run() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for dataset, seed in DATASETS:
            for kernel, *extra in KERNELS:
                out = Path(tmp, f"{dataset}-{seed}-{kernel}-{len(extra)}")
                argv = ["bench", "--dataset", dataset, "--seed", str(seed), "--kernel", kernel,
                        *extra, "--out", str(out)]
                with contextlib.redirect_stdout(io.StringIO()):
                    if main(argv) != 0:
                        print(f"bench failed: {' '.join(argv)}", file=sys.stderr)
                        return 1
                files = {p.name: p.read_bytes() for p in out.iterdir()}
                print(f"{dataset}/{seed} {' '.join([kernel, *extra])} {set_hash(files)}")
                for name in sorted(files):
                    print(f"  {name} {digest(files[name])}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
