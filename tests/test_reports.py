import csv
import hashlib
import io
import json
import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from finitekernels import (
    BenchReport,
    BenchmarkConfig,
    BoundaryGrid,
    KernelSpec,
    LabeledSet,
    ShotNoiseConfig,
    SweepPoint,
    TrainedModel,
    resolution_sweep,
    run_benchmark,
)
from finitekernels import reports
from finitekernels.cli import main, parse_kernel
from finitekernels.resolution import SWEEP_FAMILIES
from finitekernels.reports import (
    SVG_SIZE,
    _format17,
    _tables,
    _zero_contour_segments,
    emit_report,
    load_dataset_csv,
    load_gram_csv,
    load_model_json,
    load_report_json,
    render_boundary_svg,
    write_dataset_csv,
    write_grid_csv,
    write_gram_csv,
    write_model_json,
    write_json,
    write_resolution_csv,
    write_sweep_csv,
)
from finitekernels.svm import GramMatrix

KERNEL_N1 = KernelSpec(kind="cosine_power", dimension=2, power=1)


def toy_set():
    return LabeledSet(
        np.array([[1.0 / 3.0, -0.25], [0.5, 0.125], [-0.7, 0.9]]),
        np.array([1.0, 1.0, -1.0]),
    )


class TestCsvRoundTrips:
    def test_dataset_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "data.csv"
        original = toy_set()
        write_dataset_csv(path, original)
        back = load_dataset_csv(path)
        np.testing.assert_array_equal(back.points, original.points)
        np.testing.assert_array_equal(back.labels, original.labels)

    def test_seventeen_digit_floats(self, tmp_path):
        path = tmp_path / "data.csv"
        write_dataset_csv(path, toy_set())
        text = path.read_text()
        assert "0.33333333333333331" in text
        assert text.splitlines()[0] == "x1,x2,label"

    def test_labels_written_as_integers(self, tmp_path):
        path = tmp_path / "data.csv"
        write_dataset_csv(path, toy_set())
        assert text_last_field_set(path) == {"1", "-1", "label"}

    def test_gram_round_trip(self, tmp_path):
        path = tmp_path / "gram.csv"
        values = np.array([[1.0, 1.0 / 7.0], [1.0 / 7.0, 1.0]])
        write_gram_csv(path, GramMatrix(values))
        back = load_gram_csv(path)
        np.testing.assert_array_equal(back.values, values)
        assert path.read_text().splitlines()[0] == "c1,c2"

    def test_grid_rows(self, tmp_path):
        path = tmp_path / "grid.csv"
        xs = np.array([0.0, 1.0])
        grid = BoundaryGrid(xs=xs, ys=xs.copy(), scores=np.array([[1.0, 2.0], [3.0, 4.0]]))
        write_grid_csv(path, grid)
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,score"
        assert len(lines) == 5

    def test_resolution_csv(self, tmp_path):
        path = tmp_path / "res.csv"
        rows = resolution_sweep([2, 3], families=("msi",))
        write_resolution_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "family,L,variance,resolution"
        assert len(lines) == 3
        assert lines[1].startswith("msi,2,")

    def test_resolution_csv_refuses_rows_that_are_not_sweep_points(self, tmp_path):
        rows = [*resolution_sweep([2], families=("msi",)), ("msi", 3, 0.1, 0.3)]
        with pytest.raises(ValueError, match="rows must be SweepPoint instances"):
            write_resolution_csv(tmp_path / "res.csv", rows)
        assert not (tmp_path / "res.csv").exists()

    def test_sweep_csv_bytes(self, tmp_path):
        # plain newlines and 17 significant digits, as the sweep command always wrote
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, [("cosine:1", 0.1, 1.0, 2.0 / 3.0), ("msi:4", 10.0, 0.5, 0.25)])
        assert path.read_bytes() == (
            b"kernel,gamma,train_accuracy,test_accuracy\n"
            b"cosine:1,0.10000000000000001,1,0.66666666666666663\n"
            b"msi:4,10,0.5,0.25\n"
        )

    @pytest.mark.parametrize("kernel", ["cosine,1", 'msi:"4"', "cosine:1\r", "msi:\n4", "msi: 4"])
    def test_sweep_csv_refuses_a_field_it_would_have_to_quote(self, kernel, tmp_path):
        rows = [("cosine:1", 1.0, 1.0, 1.0), (kernel, 1.0, 1.0, 1.0)]
        with pytest.raises(ValueError, match="no comma, quote or whitespace"):
            write_sweep_csv(tmp_path / "sweep.csv", rows)
        assert not (tmp_path / "sweep.csv").exists()


class TestCsvReader:
    """The one reader refuses what no writer produces, naming the file."""

    @pytest.mark.parametrize("load", [load_dataset_csv, load_gram_csv])
    def test_zero_byte_file(self, load, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match=re.escape(f"{path} is empty")):
            load(path)

    @pytest.mark.parametrize("line", ["0.5,0.25,1,7", "0.5,1", ""], ids=["extra", "missing", "blank"])
    def test_dataset_row_with_another_field_count(self, line, tmp_path):
        path = tmp_path / "train.csv"
        path.write_bytes(f"x1,x2,label\r\n0.1,0.2,1\r\n{line}\r\n-0.3,0.4,-1\r\n".encode())
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: field count")):
            load_dataset_csv(path)

    def test_dataset_without_a_label_column(self, tmp_path):
        path = tmp_path / "train.csv"
        path.write_bytes(b"x1,x2,y\r\n0.1,0.2,1\r\n-0.3,0.4,-1\r\n")
        message = f"dataset CSV {path} must end with a 'label' column"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_dataset_csv(path)

    def test_gram_row_with_an_extra_field(self, tmp_path):
        # four values in all: a reshape of the flat values would re-wrap them into 2 x 2
        path = tmp_path / "gram.csv"
        path.write_bytes(b"c1,c2\r\n1,0.5,0.5\r\n1\r\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 2: field count")):
            load_gram_csv(path)

    @pytest.mark.parametrize("header", ["c1,c3", "c2,c1", "x1,x2", "c1, c2", "C1,C2"])
    def test_gram_header_must_be_c1_to_cm(self, header, tmp_path):
        path = tmp_path / "gram.csv"
        path.write_bytes(f"{header}\r\n1,0.5\r\n0.5,1\r\n".encode())
        with pytest.raises(ValueError, match=re.escape(f"{path} must have the header c1..cM")):
            load_gram_csv(path)

    def test_header_only_dataset(self, tmp_path):
        path = tmp_path / "train.csv"
        path.write_bytes(b"x1,x2,label\r\n")
        with pytest.raises(ValueError, match="points must form a nonempty 2-D array"):
            load_dataset_csv(path)

    def test_plain_newlines_read(self, tmp_path):
        path = tmp_path / "gram.csv"
        path.write_bytes(b"c1,c2\n1,0.5\n0.5,1\n")
        assert load_gram_csv(path).values.tolist() == [[1.0, 0.5], [0.5, 1.0]]

    def test_train_on_an_empty_gram_names_the_file(self, tmp_path, capsys):
        assert main(["gen", "--dataset", "xor", "--seed", "0", "--out", str(tmp_path)]) == 0
        gram = tmp_path / "gram.csv"
        gram.write_bytes(b"")
        argv = ["train", "--gram", str(gram), "--dataset", str(tmp_path / "train.csv"),
                "--out", str(tmp_path / "m")]
        assert main(argv) == 1
        assert f"error in stage 'train': CSV file {gram} is empty" in capsys.readouterr().err


ROUND_TRIP = settings(max_examples=60, deadline=None, derandomize=True)
# -0.0, subnormals, values that need all 17 digits, and the extremes of float64
EXACT = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1.0 / 3.0, np.nextafter(0.1, 1.0),
                     -1.7976931348623157e308, 2.2250738585072014e-308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def labeled_sets(draw):
    n_pos, n_neg, dim = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    n = n_pos + n_neg
    points = np.array(draw(st.lists(EXACT, min_size=n * dim, max_size=n * dim))).reshape(n, dim)
    return LabeledSet(points, np.array([1.0] * n_pos + [-1.0] * n_neg))


@st.composite
def gram_matrices(draw):
    """Symmetric bit for bit, or with one mirrored 0.0 / -0.0 pair."""
    n = draw(st.integers(1, 6))
    values = np.array(draw(st.lists(EXACT, min_size=n * n, max_size=n * n))).reshape(n, n)
    i, j = np.tril_indices(n, -1)
    values[i, j] = values[j, i]
    if n > 1 and draw(st.booleans()):
        values[0, 1], values[1, 0] = 0.0, -0.0
    return GramMatrix(values)


class TestRoundTripProperties:
    """load(write(x)) == x bit for bit, for every writer/loader pair."""

    @ROUND_TRIP
    @given(labeled_sets())
    def test_dataset(self, tmp_path_factory, dataset):
        path = tmp_path_factory.mktemp("data") / "train.csv"
        write_dataset_csv(path, dataset)
        back = load_dataset_csv(path)
        assert same_bits(back.points, dataset.points) and same_bits(back.labels, dataset.labels)

    @ROUND_TRIP
    @given(gram_matrices())
    def test_gram(self, tmp_path_factory, gram):
        path = tmp_path_factory.mktemp("gram") / "gram.csv"
        write_gram_csv(path, gram)
        assert same_bits(load_gram_csv(path).values, gram.values)

    @ROUND_TRIP
    @given(st.lists(EXACT, min_size=1, max_size=8),
           EXACT.filter(lambda g: g > 0.0) | st.sampled_from([5e-324, 1e4]), st.text(max_size=8))
    def test_model(self, tmp_path_factory, coefficients, gamma, train_id):
        path = tmp_path_factory.mktemp("model") / "model.json"
        model = TrainedModel(np.array(coefficients), gamma, train_id)
        write_model_json(path, model)
        back = load_model_json(path)
        assert same_bits(back.coefficients, model.coefficients)
        assert same_bits(back.gamma, gamma) and back.train_id == train_id


def text_last_field_set(path):
    return {line.rsplit(",", 1)[-1] for line in path.read_text().splitlines()}


class TestJson:
    def test_model_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        model = TrainedModel(coefficients=np.array([0.1, -2.0 / 3.0]), gamma=1.5, train_id="t")
        write_model_json(path, model)
        back = load_model_json(path)
        np.testing.assert_array_equal(back.coefficients, model.coefficients)
        assert back.gamma == 1.5
        assert back.train_id == "t"

    @pytest.mark.parametrize(
        "payload, message",
        [
            pytest.param('{"a": [true, false, 1.0], "gamma": 1.0}', "'a' must be a list of numbers",
                         id="bool-coefficient"),
            pytest.param('{"a": [1.0, 2.0], "gamma": true}', "'gamma' must be a number",
                         id="bool-gamma"),
            pytest.param('{"a": ["1", "2"], "gamma": 2.0}', "'a' must be a list of numbers",
                         id="string-coefficient"),
            pytest.param('{"a": [1.0, 2.0], "gamma": "2"}', "'gamma' must be a number",
                         id="string-gamma"),
            pytest.param('{"gamma": 1.0}', "has no 'a' key", id="missing-a"),
            pytest.param('{"a": [1.0, 2.0]}', "has no 'gamma' key", id="missing-gamma"),
            pytest.param('{"a": [1.0, 2.0], "gamma": 1.0, "train_id": null}',
                         "'train_id' must be a string, got None", id="null-train-id"),
        ],
    )
    def test_model_refused_unless_write_model_json_could_write_it(self, tmp_path, payload, message):
        path = tmp_path / "model.json"
        path.write_text(payload + "\n")
        with pytest.raises(ValueError, match=message):
            load_model_json(path)

    def test_report_json_sorted_and_loadable(self, tmp_path):
        config = BenchmarkConfig(
            dataset="concentric", seed=7, kernel=KERNEL_N1, gamma=1.0, grid_side=3
        )
        report = run_benchmark(config)
        path = tmp_path / "report.json"
        write_json(path, report.summary())
        payload = load_report_json(path)
        assert payload["train_accuracy"] == 1.0
        keys = list(json.loads(path.read_text()))
        assert keys == sorted(keys)

    def test_no_timestamps_anywhere(self, tmp_path):
        config = BenchmarkConfig(
            dataset="moons", seed=1, kernel=KERNEL_N1, gamma=1.0, grid_side=3
        )
        report = run_benchmark(config)
        paths = emit_report(report, tmp_path)
        for p in paths:
            lowered = p.read_text().lower()
            assert "timestamp" not in lowered
            assert "date" not in lowered


class TestSvg:
    def grid_with_sign_change(self):
        xs = np.linspace(-1.0, 1.0, 9)
        scores = np.subtract.outer(xs, np.zeros(9)) + 0.001
        return BoundaryGrid(xs=xs, ys=xs.copy(), scores=scores)

    def test_well_formed_xml(self):
        svg = render_boundary_svg(self.grid_with_sign_change())
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_contour_present_only_when_sign_changes(self):
        with_contour = render_boundary_svg(self.grid_with_sign_change())
        assert "<line" in with_contour

        xs = np.linspace(-1.0, 1.0, 5)
        flat = BoundaryGrid(xs=xs, ys=xs.copy(), scores=np.ones((5, 5)))
        without = render_boundary_svg(flat)
        assert "<line" not in without

    def test_markers_and_caption(self):
        train = toy_set()
        test = LabeledSet(np.array([[0.2, 0.2], [-0.1, -0.3]]), np.array([1.0, -1.0]))
        svg = render_boundary_svg(
            self.grid_with_sign_change(), train_set=train, test_set=test, test_accuracy=0.875
        )
        assert "test 0.88" in svg
        assert "<polygon" in svg  # triangle markers
        ET.fromstring(svg)


class TestEmitReport:
    def make_report(self):
        config = BenchmarkConfig(
            dataset="xor", seed=0, kernel=KERNEL_N1, gamma=1.0, grid_side=4
        )
        return run_benchmark(config)

    def test_full_artifact_set(self, tmp_path):
        paths = emit_report(self.make_report(), tmp_path)
        names = sorted(p.name for p in paths)
        assert names == [
            "boundary.svg",
            "gram.csv",
            "grid.csv",
            "model.json",
            "report.json",
            "test.csv",
            "train.csv",
        ]
        for p in paths:
            assert p.exists() and p.stat().st_size > 0

    @pytest.mark.parametrize("seed, events", [(0, np.int64(100)), (np.int64(0), 100)])
    def test_numpy_scalars_in_the_config_emit_every_artifact(self, seed, events, tmp_path):
        config = BenchmarkConfig("xor", seed, KERNEL_N1, train_size=8, test_size=4, grid_side=2,
                                 noise=ShotNoiseConfig(events))
        assert len(emit_report(run_benchmark(config), tmp_path)) == 7
        payload = load_report_json(tmp_path / "report.json")
        assert payload["seed"] == 0 and payload["noise"]["events_per_point"] == 100

    def test_serialization_error_writes_nothing(self, tmp_path, monkeypatch):
        report = self.make_report()
        monkeypatch.setattr(BenchReport, "summary", lambda self: {"unserializable": object()})
        with pytest.raises(TypeError):
            emit_report(report, tmp_path / "o")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("noise", [None, ShotNoiseConfig(100)], ids=["exact", "sampled"])
    def test_tables_equal_the_standalone_writers(self, noise, tmp_path):
        # emit_report formats the four tables in one pass; each writer formats its own
        config = BenchmarkConfig("moons", 1, KERNEL_N1, train_size=12, test_size=8, grid_side=5,
                                 noise=noise)
        report = run_benchmark(config)
        emit_report(report, tmp_path / "set")
        alone = tmp_path / "alone"
        alone.mkdir()
        write_dataset_csv(alone / "train.csv", report.train_set)
        write_dataset_csv(alone / "test.csv", report.test_set)
        write_gram_csv(alone / "gram.csv", report.gram)
        write_grid_csv(alone / "grid.csv", report.grid)
        for name in ("train.csv", "test.csv", "gram.csv", "grid.csv"):
            assert (tmp_path / "set" / name).read_bytes() == (alone / name).read_bytes()

    def test_deterministic_bytes(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        emit_report(self.make_report(), a_dir)
        emit_report(self.make_report(), b_dir)
        for name in ("train.csv", "gram.csv", "grid.csv", "model.json", "report.json", "boundary.svg"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


# ---------- byte oracle: the renderers written value by value ----------


def loop_table(header, rows):
    """CSV text with every value formatted on its own, CRLF line ends."""
    lines = [",".join(header)] + [",".join("%.17g" % float(v) for v in row) for row in rows]
    return "\r\n".join(lines) + "\r\n"


def loop_resolution_csv(rows):
    """resolution.csv as one csv.writer row per sweep point."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["family", "L", "variance", "resolution"])
    for point in rows:
        writer.writerow([point.family, str(point.length), format(float(point.variance), ".17g"),
                         format(float(point.resolution), ".17g")])
    return fh.getvalue()


def loop_sweep_csv(rows):
    """sweep.csv as one csv.writer row per run, LF line ends."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["kernel", "gamma", "train_accuracy", "test_accuracy"])
    for kernel_text, gamma, train_acc, test_acc in rows:
        writer.writerow([kernel_text] + [format(float(v), ".17g") for v in (gamma, train_acc, test_acc)])
    return fh.getvalue()


def loop_zero_contour_segments(grid):
    xs, ys, z = grid.xs, grid.ys, grid.scores
    segments = []

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


def loop_render_boundary_svg(grid, train_set=None, test_set=None, test_accuracy=None):
    xs, ys, z = grid.xs, grid.ys, grid.scores
    margin = 6.0
    span_x = xs[-1] - xs[0]
    span_y = ys[-1] - ys[0]
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
    for ax, ay, bx, by in loop_zero_contour_segments(grid):
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
        return f'<polygon points="{coords}" fill="{fill}" stroke="black" stroke-width="0.8"/>'

    for subset, orientations in ((train_set, ("up", "down")), (test_set, ("right", "left"))):
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


ORACLE_PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)
SCORE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25]), st.floats(-3.0, 3.0))
CELL = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 1.0 / 3.0, 5e-324, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def signs(nx, ny):
    """+1/-1 checkerboard: every cell with a sign change on all four edges is a saddle."""
    return np.where(np.add.outer(np.arange(nx), np.arange(ny)) % 2 == 0, 1.0, -1.0)


@st.composite
def grids(draw):
    """Axes of 2-12 nodes (uneven pitch allowed), free, checkerboard or constant scores."""

    def axis():
        n = draw(st.integers(2, 12))
        gaps = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        return draw(st.floats(-2.0, 2.0)) + draw(st.floats(0.01, 1.0)) * np.cumsum(gaps)

    xs, ys = axis(), axis()
    kind = draw(st.sampled_from(["free", "checkerboard", "constant"]))
    if kind == "constant":
        return BoundaryGrid(xs, ys, np.full((xs.size, ys.size), draw(SCORE)))
    values = np.array(draw(st.lists(SCORE, min_size=xs.size * ys.size, max_size=xs.size * ys.size)))
    scores = values.reshape(xs.size, ys.size)
    if kind == "checkerboard":
        scores = np.abs(scores) * signs(xs.size, ys.size)
    return BoundaryGrid(xs, ys, scores)


@st.composite
def marker_sets(draw):
    n_pos, n_neg = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    coordinate = st.floats(-3.0, 3.0)
    points = draw(st.lists(st.tuples(coordinate, coordinate), min_size=n_pos + n_neg,
                           max_size=n_pos + n_neg))
    return LabeledSet(np.array(points), np.array([1.0] * n_pos + [-1.0] * n_neg))


@st.composite
def tables(draw):
    """(header, rows): free shapes, symmetric squares, one ulp off, a mirrored 0.0 / -0.0, and
    pooled tables of either shape whose cells repeat at most 4 values, 0.0 and -0.0 among them."""
    kind = draw(st.sampled_from(["free", "symmetric", "ulp", "zero-pair", "pooled"]))
    square = kind != "free" and (kind != "pooled" or draw(st.booleans()))
    n = draw(st.integers(1 if kind in ("free", "symmetric", "pooled") else 2, 8))
    k = n if square else draw(st.integers(1, 8))
    cell = CELL
    if kind == "pooled":
        cell = st.sampled_from([0.0, -0.0] + draw(st.lists(CELL, min_size=0, max_size=2)))
    rows = np.array(draw(st.lists(cell, min_size=n * k, max_size=n * k))).reshape(n, k)
    if square:
        i, j = np.tril_indices(n, -1)
        rows[i, j] = rows[j, i]
    if kind in ("ulp", "zero-pair"):
        a, b = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        if kind == "ulp":
            rows[b, a] = np.nextafter(rows[a, b], np.inf)
        else:
            rows[a, b], rows[b, a] = 0.0, -0.0
    return [f"c{c + 1}" for c in range(k)], rows


ACCEPTED_KERNELS = st.one_of(
    st.sampled_from(["cosine:0.5", "cosine:1", "cosine:3", "msi:4", "tsq:8:3", "opt:4",
                     "fractional:1.5", "cosine:1e0", "msi:1_0", "cosine:2"]),
    st.floats(0.05, 8.0).map(lambda p: f"cosine:{p!r}"),
    st.integers(2, 16).map(lambda n: f"msi:{n}"),
    st.tuples(st.integers(2, 12), st.floats(0.1, 5.0)).map(lambda t: f"tsq:{t[0]}:{t[1]!r}"),
)
SWEEP_NUMBER = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324])
XS3 = np.array([0.0, 0.5, 1.0])
MARKERS = LabeledSet(np.array([[0.1, 0.2], [0.9, 0.4], [0.3, 0.8]]), np.array([1.0, -1.0, -1.0]))


class TestByteOracle:
    """The array renderers write the bytes the per-value loops above write."""

    @ORACLE_PROPERTY
    @given(grids(), st.none() | marker_sets(), st.none() | marker_sets(),
           st.none() | st.floats(0.0, 1.0))
    @example(BoundaryGrid(XS3, XS3, np.zeros((3, 3))), MARKERS, MARKERS, 0.5)  # zmax falls back to 1
    @example(BoundaryGrid(XS3, XS3, np.full((3, 3), -2.0)), None, MARKERS, None)
    @example(BoundaryGrid(XS3[:2], XS3, signs(2, 3)), MARKERS, None, 1.0)
    @example(BoundaryGrid(XS3, XS3[:2], np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 1.0]])), None, None, None)
    def test_svg_equals_loop(self, grid, train_set, test_set, test_accuracy):
        expected = loop_render_boundary_svg(grid, train_set, test_set, test_accuracy)
        assert render_boundary_svg(grid, train_set, test_set, test_accuracy) == expected
        segments = np.array(loop_zero_contour_segments(grid)).reshape(-1, 4)
        assert np.array_equal(_zero_contour_segments(grid), segments)

    @ORACLE_PROPERTY
    @given(tables())
    @example((["c1"], np.array([[-0.0]])))
    @example((["x1"], np.array([[0.5], [-0.0], [1e-300]])))
    @example((["x1", "x2", "label"], np.array([[1.0 / 3.0, -0.25, 1.0]])))
    @example((["c1", "c2"], np.array([[1.0, 0.0], [-0.0, 1.0]])))
    @example((["c1", "c2"], np.array([[1.0, 0.1], [np.nextafter(0.1, 1.0), 1.0]])))
    # a repeated value, 0.0 and -0.0 each formatted once and read back by many cells
    @example((["c1", "c2", "c3"], np.array([[0.0, -0.0, 0.5], [-0.0, 0.0, -0.0], [0.5, -0.0, 0.0]])))
    @example((["x1", "x2", "label"], np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0]])))
    def test_table_equals_loop(self, table):
        header, rows = table
        assert _tables([(header, rows)])[0] == loop_table(header, rows).encode()

    @ORACLE_PROPERTY
    @given(st.lists(tables(), min_size=1, max_size=4))
    def test_tables_formatted_together_equal_loop(self, batch):
        assert _tables(batch) == [loop_table(header, rows).encode() for header, rows in batch]

    @ORACLE_PROPERTY
    @given(st.lists(st.builds(
        SweepPoint,
        family=st.sampled_from(SWEEP_FAMILIES),
        length=st.integers(2, 10**6) | st.sampled_from([np.int64(7), np.int32(96)]),
        # SweepPoint refuses a value that is not a finite non-negative real
        variance=st.floats(min_value=0.0, allow_infinity=False) | st.sampled_from([-0.0, 5e-324]),
    ), max_size=12))
    @example(resolution_sweep(range(2, 40)))
    def test_resolution_csv_equals_loop(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("res") / "resolution.csv"
        write_resolution_csv(path, rows)
        assert path.read_bytes() == loop_resolution_csv(rows).encode()


    @ORACLE_PROPERTY
    @given(st.lists(st.tuples(ACCEPTED_KERNELS, SWEEP_NUMBER, SWEEP_NUMBER, SWEEP_NUMBER),
                    max_size=12))
    @example([("cosine:1", 0.1, 1.0, 2.0 / 3.0), ("msi:4", math.inf, math.nan, -0.0)])
    def test_sweep_csv_equals_loop(self, tmp_path_factory, rows):
        for kernel_text, *_ in rows:
            parse_kernel(kernel_text)  # only strings the sweep command accepts
        path = tmp_path_factory.mktemp("sweep") / "sweep.csv"
        write_sweep_csv(path, rows)
        assert path.read_bytes() == loop_sweep_csv(rows).encode()


# the edges of the formatter's exact range and of float64, their neighbours, and ties
EDGE_VALUES = [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
               1.7976931348623157e308, math.inf, math.nan, 1.0 - 2.0**-53,
               100000000000000.125, 100000000000000.375, 1234567890123456.75] + [
    v for p in (1e-11, 1e-7, 1e-6, 1e-5, 1e-4, 1e16)
    for v in (np.nextafter(p, 0.0), p, np.nextafter(p, math.inf))]
EDGE_BITS = [int(np.float64(sign * v).view(np.uint64)) for v in EDGE_VALUES for sign in (1, -1)]
# raw patterns, and patterns whose exponent lies in or next to the range formatted exactly
FLOAT_BITS = st.integers(0, 2**64 - 1) | st.builds(
    lambda sign, exponent, fraction: sign << 63 | exponent << 52 | fraction,
    st.integers(0, 1), st.integers(980, 1080), st.integers(0, 2**52 - 1))


def formatted(values):
    text, length = _format17(np.asarray(values, dtype=np.float64))
    return [row[:n].tobytes().decode() for row, n in zip(text, length)]


class TestFormatter:
    """The vectorized formatter writes the bytes of ``"%.17g" % v``."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(FLOAT_BITS, min_size=1, max_size=40))
    @example(EDGE_BITS)
    @example(sorted(EDGE_BITS))
    def test_equals_percent_format(self, patterns):
        values = np.array(patterns, dtype=np.uint64).view(np.float64)
        assert formatted(values) == ["%.17g" % v for v in values.tolist()]

    def test_sorted_patterns_across_passes(self, monkeypatch):
        # np.unique hands the formatter sorted patterns, many more than one pass takes
        rng = np.random.default_rng(3)
        scale = 10.0 ** rng.integers(-11, 15, 12000)
        values = np.concatenate([(1.0 + 9.0 * rng.random(12000)) * scale,
                                 rng.integers(-10**6, 10**6, 6000) / 64.0])
        values = np.unique(values.view(np.uint64)).view(np.float64)
        fallen_back, strings = [], reports._strings
        monkeypatch.setattr(reports, "_strings", lambda v, spec: fallen_back.extend(v) or
                            strings(v, spec))
        assert formatted(values) == ["%.17g" % v for v in values.tolist()]
        # all are in [1e-11, 1e16) but 0.0, so nearly all take the exact digits
        assert len(fallen_back) < 0.001 * len(values)

    @pytest.mark.parametrize("off", [-1.0, 1.0])
    def test_a_misjudged_decimal_exponent_falls_back(self, off, monkeypatch):
        # D then leaves [1e16, 1e17) unless the clip to [-11, 15] undoes the error; the
        # value must then go through %
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x: log10(x) + off)
        values = np.array(EDGE_VALUES + [0.1, 0.5, 1.0 / 3.0, 2.0 / 3.0, 9.5, 123.25, 1e15 - 1])
        assert formatted(values) == ["%.17g" % v for v in values.tolist()]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenBytes:
    """Pinned bytes of fixed, hand-built inputs; elementwise arithmetic only, so no BLAS."""

    XS = np.array([-1.0, -0.625, -0.25, 0.125, 0.5, 0.875])
    YS = np.array([-0.5, 0.0, 0.375, 0.75])
    SCORES = np.array([  # nine saddle cells, both pairings, one center exactly 0
        [0.9, 0.4, -0.1, -0.7],
        [0.5, -0.3, 0.2, -0.4],
        [0.0, 0.35, -0.25, 0.15],
        [-0.0, -0.5, 0.45, -0.05],
        [-0.6, 0.3, -0.8, 0.65],
        [-1.2, -0.2, 0.1, 1.5],
    ])
    TRAIN = LabeledSet(np.array([[-0.9, -0.4], [0.3, 0.6], [0.7, -0.1], [-0.2, 0.2]]),
                       np.array([1.0, 1.0, -1.0, -1.0]))
    TEST = LabeledSet(np.array([[0.1, 0.1], [-0.5, 0.7], [0.85, 0.8]]), np.array([1.0, -1.0, -1.0]))

    def test_svg(self):
        grid = BoundaryGrid(self.XS, self.YS, self.SCORES)
        assert len(_zero_contour_segments(grid)) == 24
        assert sha256(render_boundary_svg(grid, self.TRAIN, self.TEST, 0.8125)) == (
            "5b37cefc62efecb131c3879e56ab2012b247ca3e3ed9fd60bac0b6f1df2081f9"
        )
        assert sha256(render_boundary_svg(grid)) == (
            "c8ac6b22f15df8f6e5382519fd56ac43073a1e49ee1905cc8bdd57cec5920cae"
        )

    def test_tables(self):
        symmetric = np.array([
            [1.0, 1.0 / 3.0, -0.0, 1e-300],
            [1.0 / 3.0, 2.0 / 3.0, 5e-324, 0.1],
            [-0.0, 5e-324, 0.0, -1e20],
            [1e-300, 0.1, -1e20, 1.0 / 7.0],
        ])
        assert sha256(_tables([(["c1", "c2", "c3", "c4"], symmetric)])[0].decode()) == (
            "0d0911ff9c6b875066a91ede8b4b8609565848619b023ccb0cde1325b9d50575"
        )
        dataset = np.array([[1.0 / 3.0, -0.25, 1.0], [0.1, 2.5e-17, -1.0]])
        assert sha256(_tables([(["x1", "x2", "label"], dataset)])[0].decode()) == (
            "f639e38c35d0bc3fca2665178513c2a8fbec4fdf4445eb9ce3b0f096f0f188d1"
        )
        signed_zeros = np.array([[1.0, 0.0], [-0.0, 1.0]])
        assert sha256(_tables([(["c1", "c2"], signed_zeros)])[0].decode()) == (
            "e13b772a82fe2be6cd9fe1a141804a6f1bcebbb0d5866fc0305185865d7e7ff5"
        )
