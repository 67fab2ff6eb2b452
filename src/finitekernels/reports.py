"""Deterministic artifact emission: CSV tables, JSON reports, SVG boundary plots.

This is the only module that serializes or writes an artifact; the rest of
the package computes values and leaves their formats to it.

All floats in CSV output carry 17 significant digits (lossless for float64),
JSON keys are sorted, and the SVG contains no clock or environment data, so a
repeated run with the same configuration reproduces every byte.

Each artifact is formatted in one pass: its numbers are computed as arrays,
and each kind of element is written by one ``%`` over a repeated template.
Every CSV table is written by ``_csv`` (``\r\n`` line ends, ``\n`` for
``sweep.csv``), its fields never quoted, and read back by ``_read_table``.
A float table formats each distinct bit pattern once and joins each row
from those strings; a table that is symmetric bit for bit (the Gram matrices
the pipelines build) takes the patterns of its upper triangle alone.  A
sampled Gram repeats few values: at most events + 1 of them.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .bench import BenchReport, BoundaryGrid
from .datasets import LabeledSet
from .resolution import SweepPoint
from .svm import GramMatrix, TrainedModel


SVG_SIZE = 480  # width and height of the boundary figure, in px


# ---------- CSV ----------


def _strings(values: np.ndarray, spec: str) -> np.ndarray:
    """``spec % v`` for every value, as a 1-D object array; one ``%`` pass."""
    flat = np.ravel(values).tolist()
    return np.array(((spec + "\n") * len(flat) % tuple(flat)).split("\n")[:-1], dtype=object)


def _csv(header: list[str], spec: str, count: int, values: tuple, end: str = "\r\n") -> str:
    """The header, then ``count`` lines of ``spec``, all filled from ``values`` by one ``%``."""
    return ",".join(header) + end + (spec + end) * count % values


def _table(header: list[str], rows: np.ndarray) -> str:
    """CSV text of a float table (CRLF ends), every value ``%.17g``.

    Each distinct bit pattern is formatted once, so ``0.0`` and ``-0.0`` keep
    their own strings, and each row is joined from those.  A square table
    that is symmetric bit for bit takes its patterns from the upper triangle
    alone, each cell's mirror reading the same string.
    """
    values = np.ascontiguousarray(rows, dtype=float)
    bits = values.view(np.uint64)
    # np.unique gets 1-D input: numpy 2 would shape the inverse of a 2-D one like its input
    if values.shape[0] == values.shape[1] and np.array_equal(bits, bits.T):
        upper = np.triu_indices(len(values))
        distinct, inverse = np.unique(bits[upper], return_inverse=True)
        cells = np.empty(values.shape, dtype=np.intp)  # each cell's index into ``distinct``
        cells[upper] = cells.T[upper] = inverse
    else:
        distinct, cells = np.unique(bits.ravel(), return_inverse=True)
    table = _strings(distinct.view(float), "%.17g")[cells.reshape(values.shape)].tolist()
    return _csv(header, "%s", len(values), tuple(",".join(row) for row in table))


def _read_table(path) -> tuple[list[str], np.ndarray]:
    """Header and float rows of a CSV table, read line by line; lines may end in CRLF or LF."""
    with open(path) as fh:
        lines = (line.rstrip("\n").split(",") for line in fh)
        header = next(lines, None)
        if header is None:
            raise ValueError(f"CSV file {path} is empty; expected a header row")
        rows = []
        for number, row in enumerate(lines, 2):
            if len(row) != len(header):
                raise ValueError(f"CSV file {path}, line {number}: field count differs from header")
            rows.append([float(v) for v in row])
    return header, np.array(rows).reshape(len(rows), len(header))


def _dataset_csv(dataset: LabeledSet) -> str:
    header = [f"x{i + 1}" for i in range(dataset.points.shape[1])] + ["label"]
    return _table(header, np.column_stack([dataset.points, dataset.labels]))  # labels: 1, -1


def _gram_csv(gram: GramMatrix) -> str:
    return _table([f"c{i + 1}" for i in range(gram.size)], gram.values)


def _grid_csv(grid: BoundaryGrid) -> str:
    return _table(["x1", "x2", "score"], grid.to_rows())


def write_dataset_csv(path, dataset: LabeledSet) -> None:
    """Columns x1..xD,label; one row per point."""
    Path(path).write_text(_dataset_csv(dataset), newline="")


def load_dataset_csv(path) -> LabeledSet:
    header, values = _read_table(path)
    if header[-1] != "label":
        raise ValueError(f"dataset CSV {path} must end with a 'label' column")
    return LabeledSet(values[:, :-1], values[:, -1])


def write_gram_csv(path, gram: GramMatrix) -> None:
    """Dense square matrix with a c1..cM header row."""
    Path(path).write_text(_gram_csv(gram), newline="")


def load_gram_csv(path) -> GramMatrix:
    header, values = _read_table(path)
    if header != [f"c{i + 1}" for i in range(len(header))]:
        raise ValueError(f"Gram CSV {path} must have the header c1..cM")
    return GramMatrix(values)


def write_grid_csv(path, grid: BoundaryGrid) -> None:
    """Columns x1,x2,score; side^2 rows, x-major."""
    Path(path).write_text(_grid_csv(grid), newline="")


def write_resolution_csv(path, rows) -> None:
    """Columns family,L,variance,resolution, one row per sweep point (CRLF ends)."""
    rows = list(rows)
    if not all(isinstance(point, SweepPoint) for point in rows):
        raise ValueError("rows must be SweepPoint instances")
    values = tuple(v for p in rows for v in (p.family, p.length, p.variance, p.resolution))
    text = _csv(["family", "L", "variance", "resolution"], "%s,%s,%.17g,%.17g", len(rows), values)
    Path(path).write_text(text, newline="")


def write_sweep_csv(path, rows) -> None:
    """Columns kernel,gamma,train_accuracy,test_accuracy, one row per sweep run (LF ends)."""
    rows = list(rows)
    if any(ch in ',"' or ch.isspace() for row in rows for ch in row[0]):
        raise ValueError("a kernel string in sweep.csv must hold no comma, quote or whitespace")
    values = tuple(v for kernel, gamma, train, test in rows for v in (kernel, gamma, train, test))
    text = _csv(["kernel", "gamma", "train_accuracy", "test_accuracy"], "%s,%.17g,%.17g,%.17g",
                len(rows), values, end="\n")
    Path(path).write_text(text, newline="")


# ---------- JSON ----------


def _model_json(model: TrainedModel) -> str:
    payload = {"a": [float(v) for v in model.coefficients], "gamma": model.gamma,
               "train_id": model.train_id}
    return json.dumps(payload, sort_keys=True) + "\n"


def _json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_model_json(path, model: TrainedModel) -> None:
    """Keys sorted, one line: coefficients ``a``, ``gamma`` and ``train_id``."""
    Path(path).write_text(_model_json(model), newline="")


def load_model_json(path) -> TrainedModel:
    """A model as ``write_model_json`` writes it; no bool or string is taken for a number,
    and no other value for the ``train_id`` string."""
    data = json.loads(Path(path).read_text())
    for key, kind in (("a", "a list of numbers"), ("gamma", "a number")):
        if not isinstance(data, dict) or key not in data:
            raise ValueError(f"model JSON {path} has no {key!r} key")
        values = data[key] if key == "a" else [data[key]]
        if not isinstance(values, list) or not all(type(v) in (int, float) for v in values):
            raise ValueError(f"model JSON {path}: {key!r} must be {kind}, got {data[key]!r}")
    train_id = data.get("train_id", "")
    if not isinstance(train_id, str):
        raise ValueError(f"model JSON {path}: 'train_id' must be a string, got {train_id!r}")
    return TrainedModel(np.asarray(data["a"], dtype=float), data["gamma"], train_id)


def write_json(path, payload: dict) -> None:
    """Keys sorted, two-space indent, trailing newline."""
    Path(path).write_text(_json(payload), newline="")


def load_report_json(path) -> dict:
    return json.loads(Path(path).read_text())


# ---------- SVG boundary plot ----------

_MARGIN = 6.0  # px between the plot area and the figure's edge


def _zero_contour_segments(grid: BoundaryGrid) -> np.ndarray:
    """Marching-squares segments of the score's zero level, in data coordinates.

    Rows (ax, ay, bx, by), cells i-major then j-minor.  Corners k = 0..3 of
    cell (i, j) run counter-clockwise from (xs[i], ys[j]); edge k joins
    corner k to corner k + 1 and crosses zero at t = v0 / (v0 - v1).  A cell
    with two crossings gives one segment; a saddle cell (four) pairs its
    edges by the sign of its center average, as (0, 1), (2, 3) when that
    sign matches corner 0 and as (0, 3), (1, 2) otherwise.
    """
    xs, ys, z = grid.xs, grid.ys, grid.scores
    cx = (xs[:-1, None], xs[1:, None], xs[1:, None], xs[:-1, None])
    cy = (ys[None, :-1], ys[None, :-1], ys[None, 1:], ys[None, 1:])
    v = (z[:-1, :-1], z[1:, :-1], z[1:, 1:], z[:-1, 1:])
    shape = v[0].shape
    crossing = np.empty((4,) + shape, dtype=bool)
    at_x, at_y = np.empty((4,) + shape), np.empty((4,) + shape)
    for k in range(4):
        n = (k + 1) % 4
        crossing[k] = (v[k] > 0.0) != (v[n] > 0.0)
        t = np.divide(v[k], v[k] - v[n], out=np.zeros(shape), where=crossing[k])
        at_x[k] = cx[k] + t * (cx[n] - cx[k])
        at_y[k] = cy[k] + t * (cy[n] - cy[k])
    count = crossing.sum(axis=0)
    saddle = count == 4
    center = (((v[0] + v[1]) + v[2]) + v[3]) / 4.0
    paired = (v[0] > 0.0) == (center > 0.0)
    first = crossing.argmax(axis=0)  # 0 on a saddle
    last = 3 - crossing[::-1].argmax(axis=0)  # 3 on a saddle
    # the edges of each cell's two segment slots: start and end of slot 0, then of slot 1
    edges = np.stack([first, np.where(saddle & paired, 1, last),
                      np.where(paired, 2, 1), np.where(paired, 3, 2)])
    ends = np.stack([np.take_along_axis(at, edges, axis=0) for at in (at_x, at_y)], axis=-1)
    slots = ends.reshape(2, 2, -1, 2).transpose(2, 0, 1, 3).reshape(-1, 2, 4)
    return slots[np.stack([count > 0, saddle], axis=-1).reshape(-1, 2)]


def render_boundary_svg(
    grid: BoundaryGrid,
    train_set: LabeledSet | None = None,
    test_set: LabeledSet | None = None,
    test_accuracy: float | None = None,
) -> str:
    """Decision-boundary figure: sign heatmap, zero contour, triangle markers.

    Training points draw as up (+1) / down (-1) triangles, test points as
    right (+1) / left (-1) triangles; the test accuracy prints in the bottom
    right corner.
    """
    xs, ys, z = grid.xs, grid.ys, grid.scores
    plot = SVG_SIZE - 2 * _MARGIN
    # half-open grids carry one trailing cell of the same pitch
    pitch_x = xs[1] - xs[0]
    pitch_y = ys[1] - ys[0]
    span_x = xs[-1] - xs[0]
    span_y = ys[-1] - ys[0]

    def px(x):
        return _MARGIN + (x - xs[0]) / (span_x + pitch_x) * plot

    def py(y):
        return _MARGIN + (ys[-1] + pitch_y - y) / (span_y + pitch_y) * plot

    zmax = float(np.abs(z).max()) or 1.0
    cells = np.empty(z.shape + (4,), dtype=object)
    cells[..., 0] = _strings(px(xs), "%.2f")[:, None]
    cells[..., 1] = _strings(py(ys + pitch_y), "%.2f")
    cells[..., 2] = np.where(z > 0.0, "#2166ac", "#b2182b")
    cells[..., 3] = 0.08 + 0.5 * (np.abs(z) / zmax)  # |z| <= zmax: the ratio stays in [0, 1]
    rect = (f'<rect x="%s" y="%s" width="{plot / len(xs):.2f}" height="{plot / len(ys):.2f}" '
            f'fill="%s" opacity="%.3f"/>\n')

    segments = _zero_contour_segments(grid)
    lines = np.column_stack([px(segments[:, 0]), py(segments[:, 1]),
                             px(segments[:, 2]), py(segments[:, 3])])
    line = '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="black" stroke-width="1.4"/>\n'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" height="{SVG_SIZE}" '
        f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">\n',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>\n',
        rect * z.size % tuple(cells.ravel().tolist()),
        line * len(lines) % tuple(lines.ravel().tolist()),
    ]
    r = 5.0
    for subset, vertical in ((train_set, True), (test_set, False)):
        if subset is None:
            continue
        x, y = px(subset.points[:, 0]), py(subset.points[:, 1])
        up = subset.labels > 0
        if vertical:  # up for +1, down for -1
            tip, base = np.where(up, y - r, y + r), np.where(up, y + r, y - r)
            vertices = (x, tip, x - r, base, x + r, base)
        else:  # right for +1, left for -1
            tip, base = np.where(up, x + r, x - r), np.where(up, x - r, x + r)
            vertices = (tip, y, base, y - r, base, y + r)
        markers = np.empty((subset.size, 7), dtype=object)
        markers[:, :6] = np.column_stack(vertices)
        markers[:, 6] = np.where(up, "#4393c3", "#d6604d")
        parts.append(
            '<polygon points="%.2f,%.2f %.2f,%.2f %.2f,%.2f" fill="%s" stroke="black" '
            'stroke-width="0.8"/>\n' * subset.size % tuple(markers.ravel().tolist())
        )
    if test_accuracy is not None:
        parts.append(
            f'<text x="{SVG_SIZE - _MARGIN - 4:.0f}" y="{SVG_SIZE - _MARGIN - 6:.0f}" '
            f'text-anchor="end" font-family="sans-serif" font-size="16">'
            f"test {test_accuracy:.2f}</text>\n"
        )
    parts.append("</svg>\n")
    return "".join(parts)


def write_boundary_svg(path, grid: BoundaryGrid, train_set: LabeledSet) -> None:
    """The decision-boundary figure over the training points alone."""
    Path(path).write_text(render_boundary_svg(grid, train_set), newline="")


def emit_report(report: BenchReport, out_dir) -> list[Path]:
    """Write the artifact set of one benchmark run; returns the paths written.

    All or nothing: every artifact is rendered before the first write, and a
    failed write removes the files this call had opened.
    """
    out = Path(out_dir)
    texts = {
        "train.csv": _dataset_csv(report.train_set),
        "test.csv": _dataset_csv(report.test_set),
        "gram.csv": _gram_csv(report.gram),
        "grid.csv": _grid_csv(report.grid),
        "model.json": _model_json(report.model),
        "report.json": _json(report.summary()),
        "boundary.svg": render_boundary_svg(
            report.grid, report.train_set, report.test_set, report.test_accuracy
        ),
    }
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        for name, text in texts.items():
            with open(out / name, "w", newline="") as fh:
                written.append(out / name)
                fh.write(text)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return written
