"""Deterministic artifact emission: CSV tables, JSON reports, SVG boundary plots.

This is the only module that serializes or writes an artifact; the rest of
the package computes values and leaves their formats to it.

All floats in CSV output carry 17 significant digits (lossless for float64),
JSON keys are sorted, and the SVG contains no clock or environment data, so a
repeated run with the same configuration reproduces every byte.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .bench import BenchReport, BoundaryGrid
from .datasets import LabeledSet
from .resolution import SweepPoint
from .svm import GramMatrix, TrainedModel


SVG_SIZE = 480  # width and height of the boundary figure, in px


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


# ---------- CSV ----------


def _table(header: list[str], rows: np.ndarray) -> str:
    """CSV text as ``csv.writer`` writes it (CRLF ends), every value ``%.17g``."""
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    return ",".join(header) + "\r\n" + (line * len(rows)) % tuple(rows.ravel().tolist())


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
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[-1] != "label":
            raise ValueError("dataset CSV must end with a 'label' column")
        points, labels = [], []
        for row in reader:
            points.append([float(v) for v in row[:-1]])
            labels.append(float(row[-1]))
    return LabeledSet(np.asarray(points), np.asarray(labels))


def write_gram_csv(path, gram: GramMatrix) -> None:
    """Dense square matrix with a c1..cM header row."""
    Path(path).write_text(_gram_csv(gram), newline="")


def load_gram_csv(path) -> GramMatrix:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        values = np.asarray([[float(v) for v in row] for row in reader])
    return GramMatrix(values)


def write_grid_csv(path, grid: BoundaryGrid) -> None:
    """Columns x1,x2,score; side^2 rows, x-major."""
    Path(path).write_text(_grid_csv(grid), newline="")


def write_resolution_csv(path, rows) -> None:
    """Columns family,L,variance,resolution, one row per sweep point."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "L", "variance", "resolution"])
        for point in rows:
            if not isinstance(point, SweepPoint):
                raise ValueError("rows must be SweepPoint instances")
            writer.writerow(
                [point.family, str(point.length), _fmt(point.variance), _fmt(point.resolution)]
            )


def write_sweep_csv(path, rows) -> None:
    """Columns kernel,gamma,train_accuracy,test_accuracy, one row per sweep run."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["kernel", "gamma", "train_accuracy", "test_accuracy"])
        for kernel_text, gamma, train_acc, test_acc in rows:
            writer.writerow([kernel_text, _fmt(gamma), _fmt(train_acc), _fmt(test_acc)])


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
    data = json.loads(Path(path).read_text())
    return TrainedModel(np.asarray(data["a"], dtype=float), float(data["gamma"]),
                        str(data.get("train_id", "")))


def write_json(path, payload: dict) -> None:
    """Keys sorted, two-space indent, trailing newline."""
    Path(path).write_text(_json(payload), newline="")


def load_report_json(path) -> dict:
    return json.loads(Path(path).read_text())


# ---------- SVG boundary plot ----------


def _zero_contour_segments(grid: BoundaryGrid) -> list[tuple[float, float, float, float]]:
    """Marching-squares segments of the score's zero level, in data coordinates."""
    xs, ys, z = grid.xs, grid.ys, grid.scores
    segments: list[tuple[float, float, float, float]] = []

    def cross(v0, v1):
        return (v0 > 0.0) != (v1 > 0.0)

    def lerp(p0, p1, v0, v1):
        t = 0.5 if v0 == v1 else v0 / (v0 - v1)
        return (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))

    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            corners = [
                ((xs[i], ys[j]), z[i, j]),
                ((xs[i + 1], ys[j]), z[i + 1, j]),
                ((xs[i + 1], ys[j + 1]), z[i + 1, j + 1]),
                ((xs[i], ys[j + 1]), z[i, j + 1]),
            ]
            crossings = []
            for k in range(4):
                (p0, v0), (p1, v1) = corners[k], corners[(k + 1) % 4]
                if cross(v0, v1):
                    crossings.append(lerp(p0, p1, v0, v1))
            if len(crossings) == 2:
                (ax, ay), (bx, by) = crossings
                segments.append((ax, ay, bx, by))
            elif len(crossings) == 4:
                # saddle cell: pair edges by the sign of the center average
                center = sum(v for _, v in corners) / 4.0
                first = (z[i, j] > 0.0) == (center > 0.0)
                order = [(0, 1), (2, 3)] if first else [(0, 3), (1, 2)]
                for a, b in order:
                    (ax, ay), (bx, by) = crossings[a], crossings[b]
                    segments.append((ax, ay, bx, by))
    return segments


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
    margin = 6.0
    span_x = xs[-1] - xs[0]
    span_y = ys[-1] - ys[0]
    # half-open grids carry one trailing cell of the same pitch
    pitch_x = xs[1] - xs[0]
    pitch_y = ys[1] - ys[0]

    def to_px(x, y):
        px = margin + (x - xs[0]) / (span_x + pitch_x) * (SVG_SIZE - 2 * margin)
        py = margin + (ys[-1] + pitch_y - y) / (span_y + pitch_y) * (SVG_SIZE - 2 * margin)
        return px, py

    cell_w = (SVG_SIZE - 2 * margin) / len(xs)
    cell_h = (SVG_SIZE - 2 * margin) / len(ys)
    zmax = float(np.abs(z).max()) or 1.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" height="{SVG_SIZE}" '
        f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
    ]
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            value = z[i, j]
            color = "#2166ac" if value > 0.0 else "#b2182b"
            opacity = 0.08 + 0.5 * min(1.0, abs(value) / zmax)
            px, py = to_px(x, y + pitch_y)
            parts.append(
                f'<rect x="{px:.2f}" y="{py:.2f}" width="{cell_w:.2f}" '
                f'height="{cell_h:.2f}" fill="{color}" opacity="{opacity:.3f}"/>'
            )
    for ax, ay, bx, by in _zero_contour_segments(grid):
        (pax, pay), (pbx, pby) = to_px(ax, ay), to_px(bx, by)
        parts.append(
            f'<line x1="{pax:.2f}" y1="{pay:.2f}" x2="{pbx:.2f}" y2="{pby:.2f}" '
            f'stroke="black" stroke-width="1.4"/>'
        )

    def triangle(px, py, orientation, fill):
        r = 5.0
        if orientation == "up":
            pts = [(px, py - r), (px - r, py + r), (px + r, py + r)]
        elif orientation == "down":
            pts = [(px, py + r), (px - r, py - r), (px + r, py - r)]
        elif orientation == "right":
            pts = [(px + r, py), (px - r, py - r), (px - r, py + r)]
        else:
            pts = [(px - r, py), (px + r, py - r), (px + r, py + r)]
        coords = " ".join(f"{a:.2f},{b:.2f}" for a, b in pts)
        return (
            f'<polygon points="{coords}" fill="{fill}" stroke="black" '
            f'stroke-width="0.8"/>'
        )

    for subset, orientations in (
        (train_set, ("up", "down")),
        (test_set, ("right", "left")),
    ):
        if subset is None:
            continue
        for point, label in zip(subset.points, subset.labels):
            px, py = to_px(point[0], point[1])
            orientation = orientations[0] if label > 0 else orientations[1]
            fill = "#4393c3" if label > 0 else "#d6604d"
            parts.append(triangle(px, py, orientation, fill))
    if test_accuracy is not None:
        parts.append(
            f'<text x="{SVG_SIZE - margin - 4:.0f}" y="{SVG_SIZE - margin - 6:.0f}" '
            f'text-anchor="end" font-family="sans-serif" font-size="16">'
            f"test {test_accuracy:.2f}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


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
