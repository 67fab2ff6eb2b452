"""Deterministic artifact emission: CSV tables, JSON reports, SVG boundary plots.

This is the only module that serializes or writes an artifact; the rest of
the package computes values and leaves their formats to it.

All floats in CSV output carry 17 significant digits (lossless for float64),
JSON keys are sorted, and the SVG contains no clock or environment data, so a
repeated run with the same configuration reproduces every byte.

Each artifact is formatted in one pass: its numbers are computed as arrays,
and each kind of element is written by one ``%`` over a repeated template,
or, in a float table, by ``_format17``, which writes the bytes of ``%.17g``
with numpy arithmetic.  CSV fields are never quoted, lines end in ``\r\n``
(``\n`` in ``sweep.csv``), and ``_read_table`` reads every table back.

A float table (``train.csv``, ``test.csv``, ``gram.csv``, ``grid.csv``)
formats each distinct bit pattern once and assembles its rows as bytes from
those texts, a block of rows at a time, so the assembly's temporaries stay
small whatever the table's size; a table that is symmetric bit for bit (the
Gram matrices the pipelines build) takes the patterns of its upper triangle
alone.  ``emit_report`` formats the distinct patterns of its four float
tables in one call, since each call has a fixed cost that a small table
would not pay back.  A sampled Gram repeats few values: at most events + 1
of them.  ``sweep.csv`` and ``resolution.csv`` are written by ``_csv``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .bench import BenchReport, BoundaryGrid
from .datasets import LabeledSet
from .optics import _mulhilo
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


# The longest ``%.17g`` of a float64 takes 24 bytes ('-2.2250738585072014e-308'); a text row
# holds it and a cell's separator (',' or CRLF) in 7 uint32 words
_LONGEST, _ROW = 24, 28
_POW5 = np.array([5**k for k in range(28)], dtype=np.uint64)  # 5**27 < 2**63
# the four ASCII digits of each of 0..9999 as one uint32, bytes in memory order
_QUADS = (np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
          % np.uint16(10) + np.uint16(48)).astype(np.uint8).view(np.uint32).ravel()
# row L keeps the first L bytes of a text row and clears the rest
_KEEP = np.where(np.arange(_ROW) < np.arange(_ROW)[:, None], 255, 0).astype(np.uint8)
_FRACTION, _IMPLICIT = np.uint64((1 << 52) - 1), np.uint64(1 << 52)
_ONE, _BITS, _E8, _E16, _E17 = (np.uint64(v) for v in (1, 64, 10**8, 10**16, 10**17))
_E8_32, _E4_32 = np.uint32(10**8), np.uint32(10**4)
# values formatted, and table cells joined, per pass: bounds the temporaries of a pass
# whatever the table's size, yet leaves its fixed cost small beside its work
_FORMAT_BLOCK = 8192
_JOIN_BLOCK = 32768


def _format_exact(values: np.ndarray, text: np.ndarray, length: np.ndarray) -> None:
    """Write ``"%.17g" % v`` of each float64 into the rows of ``text``, left aligned, and
    its byte count into ``length``; a row's bytes after its text are left undefined.

    A normal v = M * 2**E with 1e-11 <= |v| < 1e16 takes its 17 digits exactly: with
    X = floor(log10 |v|) and k = 16 - X (at most 27), they are the integer
    D = round-half-even(M * 5**k * 2**(E + k)), one 128-bit product and one right shift by
    t = -(E + k).  log10 can put X one off near a power of ten; then the truncated D leaves
    [1e16, 1e17), or the rounded one reaches 1e17, and the value falls back to ``%`` itself,
    as do 0, -0, subnormals, non-finite values and values outside the range (or with t < 1).
    """
    magnitude = np.abs(values)
    fast = (magnitude >= 1e-11) & (magnitude < 1e16)  # NaN fails too
    magnitude[~fast] = 1.0  # keeps the arithmetic below defined on the values that fall back
    bits = magnitude.view(np.uint64)
    power = np.clip(np.floor(np.log10(magnitude)), -11, 15).astype(np.intp)
    shift = 1075 - (bits >> np.uint64(52)).astype(np.intp) - (16 - power)
    t = np.clip(shift, 1, 63).astype(np.uint64)
    high, low = _mulhilo(_POW5[16 - power], (bits & _FRACTION) | _IMPLICIT)
    digits = (high << (_BITS - t)) | (low >> t)
    exact = fast & (shift >= 1) & (digits >= _E16)
    rest, half = low & ((_ONE << t) - _ONE), _ONE << (t - _ONE)
    digits += (rest > half) | ((rest == half) & (digits & _ONE == _ONE))
    exact &= digits < _E17
    # D's digits: a leading one, then four groups of four, at bytes 3 to 19 of a row of chars
    quotient = digits // _E8
    upper, lower = quotient.astype(np.uint32), (digits - quotient * _E8).astype(np.uint32)
    middle = upper % _E8_32
    groups = (middle // _E4_32, middle % _E4_32, lower // _E4_32, lower % _E4_32)
    words = np.zeros((len(values), _ROW // 4), dtype=np.uint32)
    for column, group in enumerate((upper // _E8_32, *groups)):
        words[:, column] = _QUADS[group]
    chars = words.view(np.uint8)
    # the digits left once trailing zeros go, counted where the last digit is a zero
    kept, few = np.full(len(values), 17), np.flatnonzero(chars[:, 19] == 48)
    kept[few] = 17 - np.argmax(chars[few, 19:2:-1] != 48, axis=1)
    negative = np.signbit(values)
    key = np.where(exact, 2 * power + negative, 99)  # 99: values that fall back
    bounds = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), len(values)]
    for a, b in zip(bounds[:-1], bounds[1:]):
        if exact[a]:
            length[a:b] = _lay_out(text[a:b], chars[a:b], kept[a:b], int(power[a]),
                                   int(negative[a]))
    slow = np.flatnonzero(~exact)
    if slow.size:
        strings = _strings(values[slow], "%.17g").tolist()
        padded = np.array(strings, dtype=f"S{_LONGEST}").view(np.uint8)
        text[slow, :_LONGEST] = padded.reshape(-1, _LONGEST)
        length[slow] = [len(s) for s in strings]


def _lay_out(text, chars, kept, power: int, sign: int) -> np.ndarray:
    """Lay out 17 digits (bytes 3 to 19 of each row of ``chars``) as %g does, into ``text``,
    for values of one decimal exponent ``power`` and one sign (``sign`` bytes of '-' first);
    returns the text lengths, ``kept`` digits being left once trailing zeros go.

    Fixed notation for -4 <= power, d.ddde-XX below; trailing zeros and a bare '.' are
    stripped.  The digits go in by one copy along the rows' flat bytes, to their places after
    the '.'; the few bytes before them are set column by column.
    """
    first = sign + 1 - power if -4 <= power < 0 else sign + 1  # where digit 0 would go
    flat, source, by = text.ravel(), chars.ravel(), first - 3
    if by >= 0:
        flat[by:] = source[:len(source) - by]
    else:
        flat[:by] = source[-by:]
    if sign:
        text[:, 0] = 45
    if power >= 0:  # ddd.ddd
        for j in range(power + 1):
            text[:, sign + j] = chars[:, 3 + j]
        text[:, sign + power + 1] = 46
        return sign + np.maximum(kept + (kept > power + 1), power + 1)
    if power >= -4:  # 0.000ddd
        text[:, sign] = 48
        text[:, sign + 1] = 46
        for j in range(sign + 2, first):
            text[:, j] = 48
        return first + kept
    text[:, sign] = chars[:, 3]  # d.ddde-XX
    text[:, sign + 1] = 46
    end = sign + kept + (kept > 1)
    at = np.arange(0, flat.size, _ROW) + end
    for j, byte in enumerate(b"e-%02d" % -power):
        flat[at + j] = byte
    return end + 4


def _format17(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``"%.17g" % v`` of each float64, left aligned in the rows of an (n, _ROW) uint8 array,
    with their lengths; ``_FORMAT_BLOCK`` values per pass.

    ``values`` must come sorted by bit pattern, as ``_tables`` passes ``np.unique``'s
    output: any order gives the same text, but the layout takes one pass per run of one
    (decimal exponent, sign), so unsorted values run a pass for nearly every value.
    """
    text = np.empty((len(values), _ROW), dtype=np.uint8)
    length = np.empty(len(values), dtype=np.uint8)
    for a in range(0, len(values), _FORMAT_BLOCK):
        _format_exact(values[a:a + _FORMAT_BLOCK], text[a:a + _FORMAT_BLOCK],
                      length[a:a + _FORMAT_BLOCK])
    return text, length


def _table_bytes(header: list[str], text: np.ndarray, length: np.ndarray,
                 cells: np.ndarray) -> bytes:
    """CSV bytes of a table whose cell (i, j) reads text row ``cells[i, j]``, CRLF ends.

    Each row of ``text`` holds its cell's bytes and ',' and then NULs alone, so a block of
    rows is its cells' rows side by side with the NULs dropped, once each row's last ',' is
    made CRLF; about ``_JOIN_BLOCK`` cells per pass.
    """
    rows, cols = cells.shape
    step = max(1, _JOIN_BLOCK // cols)
    parts = [(",".join(header) + "\r\n").encode()]
    for a in range(0, rows, step):
        block = cells[a:a + step]
        chars = np.take(text, block, axis=0)  # (r, cols, width)
        last, r, end = chars[:, -1], np.arange(len(block)), length[block[:, -1]]
        last[r, end] = 13
        last[r, end + np.uint8(1)] = 10
        parts.append(chars[chars != 0])
    return b"".join(parts)


def _tables(tables: list[tuple[list[str], np.ndarray]]) -> list[bytes]:
    """CSV bytes of each (header, rows) float table (CRLF ends), every value ``%.17g``.

    The distinct bit patterns of all the tables are formatted in one pass, so ``0.0`` and
    ``-0.0`` keep their own texts, and each row is assembled from those as bytes.  A square
    table that is symmetric bit for bit takes its patterns from the upper triangle alone,
    each cell's mirror reading the same text.
    """
    arrays = [np.ascontiguousarray(rows, dtype=float) for _, rows in tables]
    keys, uppers = [], []
    for values in arrays:
        bits = values.view(np.uint64)
        upper = None
        if values.shape[0] == values.shape[1] and np.array_equal(bits, bits.T):
            upper = np.arange(len(values))[:, None] <= np.arange(len(values))
        uppers.append(upper)
        keys.append(bits.ravel() if upper is None else bits[upper])
    # np.unique gets 1-D input: numpy 2 would shape the inverse of a 2-D one like its input
    distinct, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    text, length = _format17(distinct.view(float))
    width = int(length.max()) + 2  # room for CRLF after the longest text
    text = np.bitwise_and(np.take(_KEEP[:, :width], length, axis=0), text[:, :width])
    text[np.arange(len(text)), length] = 44  # ',' after each text, NULs after that
    texts, offset = [], 0
    for (header, _), values, key, upper in zip(tables, arrays, keys, uppers):
        part = inverse[offset:offset + len(key)]
        offset += len(key)
        if upper is None:
            cells = part.reshape(values.shape)
        else:
            cells = np.empty(values.shape, dtype=inverse.dtype)  # each cell's row of ``text``
            cells[upper] = part
            cells.T[upper] = part
        texts.append(_table_bytes(header, text, length, cells))
    return texts


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


def _dataset_table(dataset: LabeledSet) -> tuple[list[str], np.ndarray]:
    header = [f"x{i + 1}" for i in range(dataset.points.shape[1])] + ["label"]
    return header, np.column_stack([dataset.points, dataset.labels])  # labels: 1, -1


def _gram_table(gram: GramMatrix) -> tuple[list[str], np.ndarray]:
    return [f"c{i + 1}" for i in range(gram.size)], gram.values


def _grid_table(grid: BoundaryGrid) -> tuple[list[str], np.ndarray]:
    return ["x1", "x2", "score"], grid.to_rows()


def write_dataset_csv(path, dataset: LabeledSet) -> None:
    """Columns x1..xD,label; one row per point."""
    Path(path).write_bytes(_tables([_dataset_table(dataset)])[0])


def load_dataset_csv(path) -> LabeledSet:
    header, values = _read_table(path)
    if header[-1] != "label":
        raise ValueError(f"dataset CSV {path} must end with a 'label' column")
    return LabeledSet(values[:, :-1], values[:, -1])


def write_gram_csv(path, gram: GramMatrix) -> None:
    """Dense square matrix with a c1..cM header row."""
    Path(path).write_bytes(_tables([_gram_table(gram)])[0])


def load_gram_csv(path) -> GramMatrix:
    header, values = _read_table(path)
    if header != [f"c{i + 1}" for i in range(len(header))]:
        raise ValueError(f"Gram CSV {path} must have the header c1..cM")
    return GramMatrix(values)


def write_grid_csv(path, grid: BoundaryGrid) -> None:
    """Columns x1,x2,score; side^2 rows, x-major."""
    Path(path).write_bytes(_tables([_grid_table(grid)])[0])


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
    tables = _tables([_dataset_table(report.train_set), _dataset_table(report.test_set),
                      _gram_table(report.gram), _grid_table(report.grid)])
    texts = dict(zip(["train.csv", "test.csv", "gram.csv", "grid.csv"], tables))
    texts["model.json"] = _model_json(report.model).encode()
    texts["report.json"] = _json(report.summary()).encode()
    texts["boundary.svg"] = render_boundary_svg(
        report.grid, report.train_set, report.test_set, report.test_accuracy).encode()
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        for name, text in texts.items():
            with open(out / name, "wb") as fh:
                written.append(out / name)
                fh.write(text)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return written
