import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from finitekernels import (
    BenchReport,
    BenchmarkConfig,
    BoundaryGrid,
    KernelSpec,
    LabeledSet,
    ShotNoiseConfig,
    TrainedModel,
    resolution_sweep,
    run_benchmark,
)
from finitekernels.reports import (
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

    def test_sweep_csv_bytes(self, tmp_path):
        # plain newlines and 17 significant digits, as the sweep command always wrote
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, [("cosine:1", 0.1, 1.0, 2.0 / 3.0), ("msi:4", 10.0, 0.5, 0.25)])
        assert path.read_bytes() == (
            b"kernel,gamma,train_accuracy,test_accuracy\n"
            b"cosine:1,0.10000000000000001,1,0.66666666666666663\n"
            b"msi:4,10,0.5,0.25\n"
        )


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

    def test_deterministic_bytes(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        emit_report(self.make_report(), a_dir)
        emit_report(self.make_report(), b_dir)
        for name in ("train.csv", "gram.csv", "grid.csv", "model.json", "report.json", "boundary.svg"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()
