"""``tools/fit_corpus.py`` on one cell of its grid: a stored run compared against itself
reports no difference, and a perturbed coefficient or sweep count is reported."""

import importlib.util
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fit_corpus.py"
spec = importlib.util.spec_from_file_location("fit_corpus", TOOL)
fit_corpus = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fit_corpus)

# the noisy m = 40 Gram of moons/1 cosine:1, repaired by clip
CELL = [(("moons", 1), "cosine:1", (40, 2500), "clip")]


def test_stored_cell_compares_equal_to_itself_and_reports_a_perturbation(tmp_path, capsys):
    stored = tmp_path / "cell.npz"
    assert fit_corpus.main(["--save", str(stored)], CELL) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("fits 4: train ") and "sha256 " in line
    assert fit_corpus.main(["--against", str(stored)], CELL) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == line
    assert out[1:] == [f"{field} worst relative difference 0"
                       for field in ("coefficients", "dual", "slack", "kkt_residual", "objective")
                       ] + ["sweeps 0 mismatches"]

    with np.load(stored) as data:
        old = dict(data)
    new = fit_corpus.record(CELL)
    i = int(np.abs(old["coefficients"]).argmax())
    old["coefficients"][i] *= 1.0 + 2.0**-20
    old["sweeps"][5] += 1
    report = fit_corpus.compare(old, new)
    name = new["names"][np.searchsorted(np.cumsum(new["sizes"]), i, side="right")]
    rel = 2.0**-20 / (1.0 + 2.0**-20)
    assert report[0] == f"coefficients worst relative difference {rel:.3g} ({name})"
    assert report[1:5] == [f"{field} worst relative difference 0"
                           for field in ("dual", "slack", "kkt_residual", "objective")]
    assert report[5:] == ["sweeps 1 mismatches",
                          f"  {new['names'][5]}: {new['sweeps'][5] + 1} -> {new['sweeps'][5]}"]


def test_another_corpus_is_refused(tmp_path, capsys):
    stored = tmp_path / "cell.npz"
    fit_corpus.main(["--save", str(stored)], CELL)
    other = [(("xor", 0), "msi:4", (40, None), "none")]
    assert fit_corpus.main(["--against", str(stored)], other) == 1
    assert "holds another corpus" in capsys.readouterr().err
