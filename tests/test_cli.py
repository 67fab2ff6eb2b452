import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finitekernels import BenchmarkConfig, TrainedModel, bench, cli, run_benchmark
from finitekernels.cli import main, parse_kernel
from finitekernels.kernels import KernelSpec
from finitekernels.optics import ShotNoiseConfig
from finitekernels.reports import load_model_json, write_model_json
from finitekernels.resolution import optimize_profile

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"


class TestParseKernel:
    def test_integer_cosine(self):
        spec = parse_kernel("cosine:2")
        assert spec.kind == "cosine_power"
        assert spec.power == 2

    def test_fractional_cosine_via_decimal(self):
        spec = parse_kernel("cosine:0.5")
        assert spec.kind == "fractional_cosine"
        assert spec.exponent == 0.5

    def test_fractional_explicit(self):
        spec = parse_kernel("fractional:1.5")
        assert spec.kind == "fractional_cosine"
        assert spec.exponent == 1.5

    def test_profile_families(self):
        msi = parse_kernel("msi:8")
        assert msi.kind == "profile"
        assert len(msi.profile) == 8
        tsq = parse_kernel("tsq:6:2.0")
        assert tsq.kind == "profile"
        assert len(tsq.profile) == 6

    def test_optimized_profile(self):
        spec = parse_kernel("opt:4")
        assert spec.kind == "profile"
        assert spec.profile == optimize_profile(4)
        assert spec.kernel_id() == "opt:4"

    def test_label_preserved(self):
        assert parse_kernel("cosine:1").kernel_id() == "cosine:1"

    @pytest.mark.parametrize(
        "text", ["bogus:1", "cosine", "cosine:a", "tsq:4", "msi:1:2", "opt:1", "opt:x", "opt:2.5"]
    )
    def test_bad_strings_rejected(self, text):
        with pytest.raises(ValueError, match="bad kernel string"):
            parse_kernel(text)

    def test_fractional_keeps_an_integer_exponent(self):
        spec = parse_kernel("fractional:3")
        assert spec.kind == "fractional_cosine" and spec.exponent == 3.0 and spec.power is None

    @pytest.mark.parametrize("space", ["\n", "\r", "\t", " "])
    @pytest.mark.parametrize("text", ["cosine:1", "msi:4", "tsq:8:3"])
    def test_whitespace_rejected(self, text, space):
        # int() and float() strip whitespace, which sweep.csv and report.json would carry
        for padded in (text + space, space + text, text.replace(":", ":" + space, 1)):
            with pytest.raises(ValueError, match="whitespace"):
                parse_kernel(padded)

    @pytest.mark.parametrize("space", ["\n", "\r", "\t", " "])
    def test_whitespace_rejected_by_bench_and_sweep(self, space, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["bench", "--kernel", "cosine:1" + space, "--side", "2", "--out", str(out)]) == 1
        assert "error in stage 'config'" in capsys.readouterr().err
        argv = ["sweep", "--kernels", f"msi:4{space},cosine:1", "--gammas", "1", "--out", str(out)]
        assert main(argv) == 1
        assert "whitespace" in capsys.readouterr().err
        assert not list(out.glob("*"))


class TestPipelineSubcommands:
    def test_gen_gram_train_eval_boundary_chain(self, tmp_path):
        d = tmp_path / "data"
        assert main(["gen", "--dataset", "xor", "--seed", "0", "--out", str(d)]) == 0
        assert (d / "train.csv").exists() and (d / "test.csv").exists()

        g = tmp_path / "gram"
        assert (
            main(
                [
                    "gram",
                    "--train",
                    str(d / "train.csv"),
                    "--kernel",
                    "cosine:1",
                    "--out",
                    str(g),
                ]
            )
            == 0
        )
        meta = json.loads((g / "gram.json").read_text())
        assert meta["n_evaluations"] == 780
        assert meta["provenance"] == "exact"

        m = tmp_path / "model"
        assert (
            main(
                [
                    "train",
                    "--gram",
                    str(g / "gram.csv"),
                    "--dataset",
                    str(d / "train.csv"),
                    "--gamma",
                    "1.0",
                    "--out",
                    str(m),
                ]
            )
            == 0
        )
        assert (m / "model.json").exists()

        e = tmp_path / "eval"
        assert (
            main(
                [
                    "eval",
                    "--model",
                    str(m / "model.json"),
                    "--train",
                    str(d / "train.csv"),
                    "--test",
                    str(d / "test.csv"),
                    "--kernel",
                    "cosine:1",
                    "--out",
                    str(e),
                ]
            )
            == 0
        )
        payload = json.loads((e / "eval.json").read_text())
        assert payload["accuracy"] == pytest.approx(0.9333333333333333)

        b = tmp_path / "boundary"
        assert (
            main(
                [
                    "boundary",
                    "--model",
                    str(m / "model.json"),
                    "--train",
                    str(d / "train.csv"),
                    "--kernel",
                    "cosine:1",
                    "--side",
                    "6",
                    "--out",
                    str(b),
                ]
            )
            == 0
        )
        assert len((b / "grid.csv").read_text().splitlines()) == 37
        assert (b / "boundary.svg").exists()

    @pytest.mark.parametrize("kernel, noise", [("msi:4", []), ("cosine:3", []),
                                               ("cosine:0.5", []), ("cosine:1", ["--events", "200"])])
    def test_eval_prints_the_bench_test_accuracy(self, kernel, noise, tmp_path, capsys):
        run, e = tmp_path / "run", tmp_path / "eval"
        common = ["--kernel", kernel, *noise]
        assert main(["bench", "--dataset", "moons", "--seed", "1", "--side", "2", *common,
                     "--out", str(run)]) == 0
        assert main(["eval", "--model", str(run / "model.json"), "--train", str(run / "train.csv"),
                     "--test", str(run / "test.csv"), *common, "--out", str(e)]) == 0
        want = json.loads((run / "report.json").read_text())["test_accuracy"]
        assert json.loads((e / "eval.json").read_text())["accuracy"] == want
        assert capsys.readouterr().out.endswith(f"test accuracy {want:.4f}\n")

    def test_bench_repeat_runs_byte_identical(self, tmp_path):
        args = [
            "bench",
            "--dataset",
            "moons",
            "--seed",
            "1",
            "--kernel",
            "cosine:1",
            "--gamma",
            "1.0",
            "--side",
            "6",
        ]
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out", str(r1)]) == 0
        assert main(args + ["--out", str(r2)]) == 0
        for name in ("train.csv", "test.csv", "gram.csv", "grid.csv", "model.json", "report.json", "boundary.svg"):
            assert (r1 / name).read_bytes() == (r2 / name).read_bytes()

    def test_bench_optimized_kernel_smoke(self, tmp_path):
        out = tmp_path / "opt"
        argv = ["bench", "--dataset", "xor", "--seed", "0", "--kernel", "opt:3",
                "--train-size", "8", "--test-size", "4", "--side", "3", "--out", str(out)]
        assert main(argv) == 0
        assert json.loads((out / "report.json").read_text())["kernel"] == "opt:3"

    def test_bench_noisy_smoke(self, tmp_path):
        out = tmp_path / "noisy"
        code = main(
            [
                "bench",
                "--dataset",
                "xor",
                "--seed",
                "0",
                "--kernel",
                "cosine:1",
                "--events",
                "200",
                "--fidelity",
                "0.98",
                "--side",
                "4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["gram_provenance"] == "sampled"
        assert payload["noise"]["events_per_point"] == 200
        assert payload["gram_evaluations"] == 820

    def test_resolve_subcommand(self, tmp_path):
        out = tmp_path / "res"
        assert main(["resolve", "--lengths", "2:5", "--out", str(out)]) == 0
        lines = (out / "resolution.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 * 3  # header, 4 lengths x 3 families

    def test_sweep_subcommand(self, tmp_path):
        out = tmp_path / "sw"
        code = main(
            [
                "sweep",
                "--dataset",
                "xor",
                "--seed",
                "0",
                "--kernels",
                "cosine:0.5,cosine:1",
                "--gammas",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "kernel,gamma,train_accuracy,test_accuracy"
        assert len(lines) == 3

    @staticmethod
    def count_grams(monkeypatch):
        calls, original = [], bench.compute_gram

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(bench, "compute_gram", counted)
        return calls

    def test_sweep_builds_one_gram_per_kernel(self, tmp_path, monkeypatch):
        calls = self.count_grams(monkeypatch)
        argv = ["sweep", "--dataset", "xor", "--seed", "0", "--kernels", "cosine:1,msi:4",
                "--gammas", "0.1,1,10", "--out", str(tmp_path / "sw")]
        assert main(argv) == 0
        assert len(calls) == 2
        assert len((tmp_path / "sw" / "sweep.csv").read_text().splitlines()) == 1 + 2 * 3

    def test_sweep_builds_one_split_per_convention(self, tmp_path, monkeypatch):
        conventions, original = [], bench.generate_dataset

        def counted(*args, **kwargs):
            conventions.append(kwargs["convention"])
            return original(*args, **kwargs)

        monkeypatch.setattr(bench, "generate_dataset", counted)
        kernels = ["cosine:0.5", "msi:4", "cosine:1", "fractional:0.5"]
        argv = ["sweep", "--dataset", "moons", "--seed", "1", "--gammas", "0.1,10"]
        assert main([*argv, "--kernels", ",".join(kernels), "--out", str(tmp_path / "all")]) == 0
        assert conventions == ["cosine", "interference"]
        # the same rows as a sweep of each kernel alone, which builds its own split
        rows = [(tmp_path / "all" / "sweep.csv").read_text().splitlines()[0]]
        for kernel in kernels:
            assert main([*argv, "--kernels", kernel, "--out", str(tmp_path / kernel)]) == 0
            rows += (tmp_path / kernel / "sweep.csv").read_text().splitlines()[1:]
        assert (tmp_path / "all" / "sweep.csv").read_text().splitlines() == rows

    def test_sweep_rejects_a_bad_gamma_before_any_gram(self, tmp_path, monkeypatch, capsys):
        calls = self.count_grams(monkeypatch)
        assert main(["sweep", "--gammas", "1,nan", "--out", str(tmp_path / "sw")]) == 1
        err = capsys.readouterr().err
        assert "error in stage 'sweep'" in err and "gamma must be a finite positive real" in err
        assert calls == []

    def test_repeat_calls_share_no_state(self, tmp_path):
        # main reuses one parser; a flag given to one call must not reach the next
        base = ["bench", "--dataset", "xor", "--seed", "0", "--train-size", "8",
                "--test-size", "4", "--side", "2"]
        assert main(base + ["--gamma", "5", "--out", str(tmp_path / "a")]) == 0
        assert main(base + ["--out", str(tmp_path / "b")]) == 0
        assert json.loads((tmp_path / "a" / "report.json").read_text())["gamma"] == 5.0
        assert json.loads((tmp_path / "b" / "report.json").read_text())["gamma"] == 1.0


STAGED_CASES = st.tuples(
    st.sampled_from(["concentric", "moons", "xor"]),
    st.integers(0, 50),
    st.sampled_from(["cosine:1", "cosine:3", "msi:4", "tsq:5:3", "cosine:0.5", "fractional:1.5"]),
    st.sampled_from(["0.1", "1", "10"]),
    st.booleans(),
)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(STAGED_CASES)
def test_staged_commands_reproduce_bench(tmp_path_factory, case):
    dataset, seed, kernel, gamma, noisy = case
    out = tmp_path_factory.mktemp("staged")
    data = ["--dataset", dataset, "--seed", str(seed), "--train-size", "12", "--test-size", "6"]
    kernel = ["--kernel", kernel]
    noise = ["--events", "400", "--noise-seed", str(seed)] if noisy else []
    train_csv, model = str(out / "gen" / "train.csv"), str(out / "train" / "model.json")
    assert main(["gen", *data, *kernel, "--out", str(out / "gen")]) == 0
    assert main(["gram", "--train", train_csv, *kernel, *noise, "--out", str(out / "gram")]) == 0
    assert main(["train", "--gram", str(out / "gram" / "gram.csv"), "--dataset", train_csv,
                 "--gamma", gamma, "--out", str(out / "train")]) == 0
    assert main(["boundary", "--model", model, "--train", train_csv, *kernel, *noise,
                 "--side", "4", "--out", str(out / "boundary")]) == 0
    assert main(["bench", *data, *kernel, *noise, "--gamma", gamma, "--side", "4",
                 "--out", str(out / "bench")]) == 0
    for stage, name in (("gen", "train.csv"), ("gen", "test.csv"), ("gram", "gram.csv"),
                        ("boundary", "grid.csv")):
        assert (out / stage / name).read_bytes() == (out / "bench" / name).read_bytes(), name
    # train_id differs: "train", the stem of the dataset file, against bench's "<dataset>-seed..."
    staged, bench_model = (json.loads(path.read_text()) for path in (out / "train" / "model.json",
                                                                     out / "bench" / "model.json"))
    assert staged.pop("train_id") == "train" and bench_model.pop("train_id") != "train"
    assert json.dumps(staged) == json.dumps(bench_model)  # a and gamma, -0.0 apart from 0.0


class TestTrainReadsGramJson:
    @staticmethod
    def gram(tmp_path, *flags, dataset=("xor", "0"), kernel="cosine:1"):
        d, g = tmp_path / "data", tmp_path / "gram"
        assert main(["gen", "--dataset", dataset[0], "--seed", dataset[1], "--out", str(d)]) == 0
        assert main(["gram", "--train", str(d / "train.csv"), "--kernel", kernel, *flags,
                     "--out", str(g)]) == 0
        return d, g

    @staticmethod
    def train(d, g, out, monkeypatch):
        """Run ``train``; returns the Gram it passed to ``condition_gram`` and what came back."""
        seen, original = [], cli.condition_gram

        def recorded(gram, *args, **kwargs):
            seen.append((gram, original(gram, *args, **kwargs)))
            return seen[-1][1]

        monkeypatch.setattr(cli, "condition_gram", recorded)
        assert main(["train", "--gram", str(g / "gram.csv"), "--dataset", str(d / "train.csv"),
                     "--out", str(out)]) == 0
        return seen[0]

    def test_exact_finite_gram_trains_unrepaired_as_bench_does(self, tmp_path, monkeypatch):
        d, g = self.gram(tmp_path)
        assert json.loads((g / "gram.json").read_text()) == {
            "kernel": "cosine:1", "n_evaluations": 780, "provenance": "exact", "seed": None,
            "size": 40}
        loaded, conditioned = self.train(d, g, tmp_path / "m", monkeypatch)
        assert (loaded.provenance, loaded.n_evaluations, loaded.rank_bound) == ("exact", 780, 9)
        assert conditioned is loaded
        report = run_benchmark(BenchmarkConfig("xor", 0, parse_kernel("cosine:1")))
        model = load_model_json(tmp_path / "m" / "model.json")
        assert np.array_equal(model.coefficients, report.model.coefficients)

    def test_sampled_gram_keeps_its_provenance_and_is_repaired(self, tmp_path, monkeypatch):
        d, g = self.gram(tmp_path, "--events", "200", "--noise-seed", "3")
        meta = json.loads((g / "gram.json").read_text())
        assert (meta["provenance"], meta["seed"], "rank_bound" in meta) == ("sampled", 3, False)
        loaded, conditioned = self.train(d, g, tmp_path / "m", monkeypatch)
        assert (loaded.provenance, loaded.n_evaluations, loaded.rank_bound) == (
            "sampled", 820, None)
        assert conditioned is not loaded

    def test_without_gram_json_the_gram_claims_nothing(self, tmp_path, monkeypatch):
        d, g = self.gram(tmp_path)
        (g / "gram.json").unlink()
        loaded, conditioned = self.train(d, g, tmp_path / "m", monkeypatch)
        assert (loaded.provenance, loaded.rank_bound) == ("exact", None)
        assert conditioned is not loaded

    def test_size_mismatch_refused(self, tmp_path, capsys):
        d, g = self.gram(tmp_path)
        meta = json.loads((g / "gram.json").read_text())
        (g / "gram.json").write_text(json.dumps({**meta, "size": 39}))
        out = tmp_path / "m"
        assert main(["train", "--gram", str(g / "gram.csv"), "--dataset", str(d / "train.csv"),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error in stage 'train'" in err and "records a Gram of size 39" in err
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("edit, message", [
        ({"n_evaluations": "many"}, "n_evaluations must be a non-negative integer, got 'many'"),
        ({"provenance": "guessed"}, "unknown provenance 'guessed'"),
        (None, "gram.json must hold a JSON object, got list"),
        ({"kernel": 5}, "gram.json must record its kernel as a string, got 5"),
    ])
    def test_bad_metadata_refused(self, tmp_path, capsys, edit, message):
        d, g = self.gram(tmp_path)
        meta = json.loads((g / "gram.json").read_text())
        (g / "gram.json").write_text(json.dumps(list(meta) if edit is None else {**meta, **edit}))
        out = tmp_path / "m"
        assert main(["train", "--gram", str(g / "gram.csv"), "--dataset", str(d / "train.csv"),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error in stage 'train'" in err and message in err
        assert not list(out.glob("*"))

    def test_rank_bound_is_derived_from_the_kernel(self, tmp_path, monkeypatch):
        # fractional:0.5 has no finite feature map, so its exact Gram has no rank bound and is
        # repaired; a rank_bound written into gram.json by hand has no effect
        d, g = self.gram(tmp_path, dataset=("moons", "1"), kernel="fractional:0.5")
        meta = json.loads((g / "gram.json").read_text())
        (g / "gram.json").write_text(json.dumps({**meta, "rank_bound": 3}))
        loaded, conditioned = self.train(d, g, tmp_path / "m", monkeypatch)
        assert (loaded.provenance, loaded.rank_bound) == ("exact", None)
        assert conditioned is not loaded


class TestConfigFile:
    def write_config(self, tmp_path):
        cfg = tmp_path / "bench.ini"
        cfg.write_text(
            "[dataset]\n"
            "name = moons\n"
            "seed = 1\n"
            "\n"
            "[kernel]\n"
            "spec = cosine:1\n"
            "\n"
            "[svm]\n"
            "gamma = 1.0\n"
            "\n"
            "[grid]\n"
            "side = 4\n"
        )
        return cfg

    def test_config_file_drives_the_run(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["dataset"] == "moons"
        assert payload["seed"] == 1
        assert payload["gamma"] == 1.0
        assert payload["grid_side"] == 4

    def test_cli_flags_override_config(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["bench", "--config", str(cfg), "--gamma", "10", "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["gamma"] == 10.0
        # a sharper budget changes the fit on this split
        assert payload["train_accuracy"] == pytest.approx(0.9)

    def test_noise_block(self, tmp_path):
        cfg = tmp_path / "noise.ini"
        cfg.write_text(
            "[dataset]\nname = xor\nseed = 0\n\n"
            "[kernel]\nspec = cosine:1\n\n"
            "[grid]\nside = 3\n\n"
            "[noise]\nenabled = true\nevents = 150\nfidelity = 0.95\nseed = 4\n"
        )
        out = tmp_path / "out"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["noise"] == {
            "events_per_point": 150,
            "fidelity": 0.95,
            "seed": 4,
            "background": 0.5,
        }


    @pytest.mark.parametrize(
        "section, entry",
        [("dataset", "seed = abc"), ("svm", "gamma = 1.o"), ("noise", "enabled = ture")],
    )
    def test_bad_value_names_its_key(self, section, entry, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[{section}]\n{entry}\n")
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        key, _, value = entry.partition(" = ")
        assert f"error in stage 'config': [{section}] {key}: " in err and value in err

    def test_values_are_read_as_they_stand(self, tmp_path, capsys):
        # no %-interpolation: the value reaches the kernel parser unexpanded
        cfg = tmp_path / "percent.ini"
        cfg.write_text("[dataset]\nname = xor\nseed = 0\n\n[kernel]\nspec = cosine:%(n)s\n")
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "error in stage 'config': bad kernel string 'cosine:%(n)s'" in capsys.readouterr().err

    def test_readme_config_block_runs(self, tmp_path):
        block = re.search(r"```ini\n(.*?)```", README.read_text(), re.DOTALL).group(1)
        cfg = tmp_path / "readme.ini"
        cfg.write_text(block)
        out = tmp_path / "out"
        assert main(["bench", "--config", str(cfg), "--side", "3", "--out", str(out)]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["grid_side"] == 3
        assert payload["gram_provenance"] == "sampled"


class TestNoiseRule:
    """Noise is on with --events or [noise] enabled = true; off, a qualifier is an error."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("inputs")
        sizes = ["--train-size", "6", "--test-size", "4"]
        assert main(["gen", "--dataset", "xor", "--seed", "0", *sizes, "--out", str(d)]) == 0
        assert main(["gram", "--train", str(d / "train.csv"), "--out", str(d)]) == 0
        train = ["train", "--gram", str(d / "gram.csv"), "--dataset", str(d / "train.csv")]
        assert main(train + ["--out", str(d)]) == 0
        return d

    def config(self, tmp_path, noise_block):
        cfg = tmp_path / "noise.ini"
        cfg.write_text("[dataset]\nname = xor\nseed = 0\n\n[grid]\nside = 3\n\n[noise]\n" + noise_block)
        return str(cfg)

    def run_bench(self, argv, tmp_path):
        out = tmp_path / "out"
        code = main(["bench", *argv, "--out", str(out)])
        return code, json.loads((out / "report.json").read_text()) if code == 0 else None

    @pytest.mark.parametrize(
        "qualifier", [["--fidelity", "0.5"], ["--noise-seed", "3"]], ids=["fidelity", "noise-seed"]
    )
    @pytest.mark.parametrize("command", ["bench", "gram", "eval", "boundary", "sweep"])
    def test_flag_qualifier_without_events_rejected(self, command, qualifier, inputs, tmp_path, capsys):
        model, train, test = (str(inputs / name) for name in ("model.json", "train.csv", "test.csv"))
        scoring = ["--model", model, "--train", train, "--kernel", "cosine:1"]
        argv = {
            "bench": ["bench"],
            "gram": ["gram", "--train", train],
            "eval": ["eval", *scoring, "--test", test],
            "boundary": ["boundary", *scoring],
            "sweep": ["sweep"],
        }[command]
        assert main(argv + qualifier + ["--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"error in stage '{'config' if command == 'bench' else command}'" in err
        assert qualifier[0] in err

    @pytest.mark.parametrize("events", [2**53 + 1, 2**63, 2**64])
    def test_events_above_two_to_the_53_rejected(self, events, tmp_path, capsys):
        assert main(["bench", "--events", str(events), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "error in stage 'config'" in err and "events_per_point" in err
        assert f"in [1, {2**53}]" in err

    def test_enabled_is_a_strict_boolean(self, tmp_path, capsys):
        code, _ = self.run_bench(["--config", self.config(tmp_path, "enabled = ture\n")], tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert "error in stage 'config'" in err and "ture" in err

    @pytest.mark.parametrize("key", ["events = 150", "fidelity = 0.9", "seed = 4"])
    def test_noise_key_without_enabled_rejected(self, key, tmp_path, capsys):
        code, _ = self.run_bench(["--config", self.config(tmp_path, key + "\n")], tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert "error in stage 'config'" in err and f"[noise] {key.split()[0]}" in err

    def test_enabled_false_ignores_the_file_noise_keys(self, tmp_path):
        block = "enabled = false\nevents = 150\nfidelity = 0.9\nseed = 4\n"
        code, payload = self.run_bench(["--config", self.config(tmp_path, block)], tmp_path)
        assert code == 0
        assert payload["noise"] is None and payload["gram_provenance"] == "exact"

    def test_enabled_false_never_ignores_a_flag(self, tmp_path, capsys):
        cfg = self.config(tmp_path, "enabled = false\n")
        code, _ = self.run_bench(["--config", cfg, "--fidelity", "0.9"], tmp_path)
        assert code == 1
        assert "--fidelity" in capsys.readouterr().err
        code, payload = self.run_bench(["--config", cfg, "--events", "150"], tmp_path)
        assert code == 0 and payload["noise"]["events_per_point"] == 150

    def test_enabled_true_takes_flag_then_file_then_default(self, tmp_path):
        cfg = self.config(tmp_path, "enabled = true\nfidelity = 0.9\nseed = 4\n")
        code, payload = self.run_bench(["--config", cfg, "--noise-seed", "5"], tmp_path)
        assert code == 0
        assert payload["noise"] == {
            "events_per_point": ShotNoiseConfig.events_per_point,
            "fidelity": 0.9,
            "seed": 5,
            "background": 0.5,
        }


class TestFailureModes:
    def test_missing_config_tagged(self, tmp_path, capsys):
        code = main(["bench", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error in stage 'config'" in err

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--seed", "-1", "seed"), ("--train-size", "1", "train_size"), ("--test-size", "-5", "test_size")],
    )
    def test_out_of_range_bench_setting_tagged_config(self, flag, value, field, tmp_path, capsys):
        assert main(["bench", flag, value, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "error in stage 'config'" in err and field in err

    def test_bad_kernel_tagged(self, tmp_path, capsys):
        d = tmp_path / "d"
        assert main(["gen", "--dataset", "moons", "--seed", "1", "--out", str(d)]) == 0
        code = main(
            ["gram", "--train", str(d / "train.csv"), "--kernel", "wat:1", "--out", str(tmp_path / "g")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error in stage 'gram'" in err

    def test_missing_input_file_tagged(self, tmp_path, capsys):
        code = main(
            ["gram", "--train", str(tmp_path / "ghost.csv"), "--kernel", "cosine:1", "--out", str(tmp_path / "g")]
        )
        assert code == 1
        assert "error in stage 'gram'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gram", "boundary"])
    def test_non_finite_training_point_rejected_at_load(self, command, tmp_path, capsys):
        train = tmp_path / "train.csv"
        train.write_text("x1,x2,label\r\n0.2,0.3,1\r\nnan,0.1,1\r\n-0.4,0.5,-1\r\n")
        model = tmp_path / "model.json"
        write_model_json(model, TrainedModel(np.array([0.5, 0.25, -0.75]), 1.0))
        argv = {
            "gram": ["gram"],
            "boundary": ["boundary", "--model", str(model), "--side", "3"],
        }[command]
        out = tmp_path / "o"
        assert main(argv + ["--train", str(train), "--kernel", "cosine:1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error in stage '{command}'" in err and "points must be finite" in err
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("command", ["eval", "boundary"])
    @pytest.mark.parametrize(
        "payload, message",
        [
            pytest.param('{"a": [NaN, 0.25, -0.75], "gamma": 1.0}',
                         "coefficients must be finite", id="nan-coefficient"),
            pytest.param('{"a": [0.5, Infinity, -0.75], "gamma": 1.0}',
                         "coefficients must be finite", id="inf-coefficient"),
            pytest.param('{"a": [0.5, 0.25, -0.75], "gamma": NaN}',
                         "gamma must be a finite positive real", id="nan-gamma"),
            pytest.param('{"a": [0.5, 0.25, -0.75], "gamma": 0}',
                         "gamma must be a finite positive real", id="zero-gamma"),
            pytest.param('{"a": [0.5, 0.25, -0.75, 1.0, 0.0], "gamma": 1.0}',
                         "has 5 coefficients but the training set has 3 points", id="five-coefficients"),
        ],
    )
    def test_bad_model_rejected_at_load(self, command, payload, message, tmp_path, capsys):
        train = tmp_path / "train.csv"
        train.write_text("x1,x2,label\r\n0.2,0.3,1\r\n0.6,0.1,1\r\n-0.4,0.5,-1\r\n")
        model = tmp_path / "model.json"
        model.write_text(payload + "\n")
        argv = {
            "eval": ["eval", "--test", str(train)],
            "boundary": ["boundary", "--side", "3"],
        }[command]
        out = tmp_path / "o"
        argv += ["--model", str(model), "--train", str(train), "--kernel", "cosine:1", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"error in stage '{command}'" in err and message in err
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("command", ["eval", "boundary"])
    @pytest.mark.parametrize(
        "payload, message",
        [
            pytest.param('{"a": [true, false, 1.0], "gamma": 1.0}', "'a' must be a list of numbers",
                         id="bool-coefficient"),
            pytest.param('{"a": [0.5, 0.25, -0.75], "gamma": "2"}', "'gamma' must be a number",
                         id="string-gamma"),
            pytest.param('{"gamma": 1.0}', "has no 'a' key", id="missing-a"),
        ],
    )
    def test_unwritable_model_rejected_at_load(self, command, payload, message, tmp_path, capsys):
        # a model write_model_json cannot write fails at load like a bad one: tagged, nothing written
        self.test_bad_model_rejected_at_load(command, payload, message, tmp_path, capsys)

    def test_bench_write_failure_tagged_emit(self, tmp_path, capsys):
        (tmp_path / "o" / "report.json").mkdir(parents=True)  # a directory where a file goes
        assert main(["bench", "--side", "2", "--out", str(tmp_path / "o")]) == 1
        assert "error in stage 'emit'" in capsys.readouterr().err
        # all or nothing: the artifacts written before the failure are removed again
        assert [p.name for p in (tmp_path / "o").iterdir()] == ["report.json"]

    @pytest.mark.parametrize("families", ["msi", "optimized"])
    def test_bad_tsq_zeta_rejected_whatever_the_families(self, families, tmp_path, capsys):
        out = tmp_path / "r"
        argv = ["resolve", "--lengths", "2:3", "--families", families, "--tsq-zeta", "-1"]
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error in stage 'resolve'" in err
        assert "tsq squeezing must be a finite positive real" in err
        assert not (out / "resolution.csv").exists()

    @pytest.mark.parametrize("lengths", ["5", "5:", "a:b", "6:5"])
    def test_bad_resolve_range_is_usage_error(self, lengths, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["resolve", "--lengths", lengths, "--out", str(tmp_path / "r")])
        assert exc.value.code == 2
        assert "argument --lengths" in capsys.readouterr().err

    @pytest.mark.parametrize("gammas", ["", ",", "a", "1,b", "0x1"])
    def test_bad_sweep_gammas_is_usage_error(self, gammas, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--gammas", gammas, "--out", str(tmp_path / "s")])
        assert exc.value.code == 2
        assert "argument --gammas" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_sweep_needs_a_kernel(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--kernels", ",", "--out", str(tmp_path / "s")])
        assert exc.value.code == 2
        assert "argument --kernels: expected comma-separated names, got ','" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_resolve_needs_a_family(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["resolve", "--families", ",", "--out", str(tmp_path / "r")])
        assert exc.value.code == 2
        assert "argument --families: expected comma-separated names, got ','" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["eval", "boundary"])
    def test_scoring_needs_the_model_kernel(self, command, tmp_path, capsys):
        # model.json records no kernel, so a default kernel could score a model trained on another
        test = ["--test", "test.csv"] if command == "eval" else []
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", "model.json", "--train", "train.csv", *test,
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "the following arguments are required: --kernel" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "text, message",
        [("[svm]\ngama = 10\n", "unknown [svm] key 'gama'; choose from ('gamma', 'condition')"),
         ("[kernal]\nspec = cosine:3\n", "unknown config section 'kernal'; "
          "choose from ('dataset', 'kernel', 'svm', 'grid', 'noise')"),
         # configparser would copy these keys into every section: the noise seed would read 3
         ("[DEFAULT]\nseed = 3\n\n[noise]\nenabled = true\nevents = 100\n",
          "unknown config section 'DEFAULT'; "
          "choose from ('dataset', 'kernel', 'svm', 'grid', 'noise')")],
        ids=["key", "section", "default-section"],
    )
    def test_unknown_config_entries_rejected(self, text, message, tmp_path, capsys):
        cfg = tmp_path / "typo.ini"
        cfg.write_text("[dataset]\nname = xor\nseed = 0\n\n" + text)
        code = main(["bench", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        # the message names the known sections, or the keys of the section it is in
        assert f"error in stage 'config': {message}" in err


def bench_under_blas_threads(tmp_path, argv) -> list[dict]:
    """The files of one ``bench`` run under 1 and under 2 BLAS threads, by name."""
    outputs = []
    for threads in ("1", "2"):
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads))
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "finitekernels", "bench", *argv, "--out", str(out)],
                       env=env, check=True, capture_output=True)
        outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
    return outputs


def test_exact_bench_is_byte_identical_across_blas_thread_counts(tmp_path):
    # an exact finite-kind Gram is trained unrepaired, so no eigh (whose bits
    # depend on the thread count) touches model.json or grid.csv
    argv = ["--dataset", "moons", "--seed", "1", "--kernel", "cosine:1", "--train-size", "400"]
    outputs = bench_under_blas_threads(tmp_path / "exact", argv)
    assert {"gram.csv", "model.json", "grid.csv"} <= outputs[0].keys()
    assert outputs[0] == outputs[1]
    # shot-noise sampling uses no BLAS, so a noisy run's data and sampled Gram match too; its
    # repaired Gram goes through eigh, and model.json and grid.csv can differ already at m = 100
    argv = ["--dataset", "concentric", "--seed", "7", "--kernel", "cosine:1", "--train-size", "100",
            "--test-size", "50", "--side", "12", "--events", "2500"]
    outputs = bench_under_blas_threads(tmp_path / "noisy", argv)
    for name in ("train.csv", "test.csv", "gram.csv"):
        assert outputs[0][name] == outputs[1][name], name
