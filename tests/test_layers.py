"""Module layering: ``reports`` alone serializes and writes files, ``bench`` only
computes, and no module imports scipy, so numpy is the only runtime dependency.
Each argument rule (an integer of at least N, a finite read-only array, +1/-1
labels, a name from a fixed set, a nonempty array of N dimensions, a finite
non-negative real, an instance of a given type) is written once, in ``states``,
and so is each input rule of the paper's layers: the kernels' point dimensions,
finite kernel coordinates, phase-encoded points, the circuit's powers and kernel
values in [0, 1].  Every public entry that applies a rule reaches its one site.
"""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from finitekernels import (
    AmplitudeProfile,
    BenchmarkConfig,
    DataPoint,
    FeatureState,
    GramMatrix,
    KernelSpec,
    LabeledSet,
    ResolutionReport,
    ShotNoiseConfig,
    SweepPoint,
    TrainedModel,
    accuracy,
    best_random_linear_accuracy,
    boundary_grid,
    build_feature_unitary,
    compute_gram,
    condition_gram,
    embed_phase_augmented,
    gamma_sweep,
    generate_dataset,
    input_state,
    kernel_circuit,
    kernel_circuit_phase,
    kernel_cosine,
    kernel_fractional,
    kernel_phase_augmented,
    kernel_rows,
    msi_profile,
    qubit_count,
    rescale_dataset,
    resolution_sweep,
    run_benchmark,
    sample_kernel,
    sample_kernels,
    train,
)
from finitekernels.optics import plate_element

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "finitekernels"


def imported_modules(path: Path) -> set[str]:
    """Every module a file imports, at any depth; relative imports keep their dots."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names.add(base)
            names.update(f"{base.rstrip('.')}.{alias.name}" for alias in node.names)
    return names


def importers(top: str) -> set[str]:
    """Files of the package that import ``top`` or any of its submodules."""
    return {
        path.name
        for path in PACKAGE.glob("*.py")
        if any(name.split(".")[0] == top for name in imported_modules(path))
    }


def writes_files(path: Path) -> bool:
    """Whether a file calls ``open``, ``write_text`` or ``write_bytes``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("open", "write_text", "write_bytes"):
                return True
    return False


def scoped_nodes(path: Path):
    """Every node of a file, with the dotted name of the defs and classes around it."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}".lstrip(".")
            yield inner, child
            yield from visit(child, inner)

    yield from visit(ast.parse(path.read_text()), "")


def sites(predicate) -> list[str]:
    """``file:scope`` of every node of the package that ``predicate`` holds for, once per node."""
    return sorted(
        f"{path.name}:{scope}"
        for path in PACKAGE.glob("*.py")
        for scope, node in scoped_nodes(path)
        if predicate(node)
    )


def test_only_reports_imports_json():
    assert importers("json") == {"reports.py"}


def test_bench_imports_nothing_from_reports():
    names = imported_modules(PACKAGE / "bench.py")
    assert not any(name.split(".")[-1] == "reports" or ".reports." in name for name in names)


def test_runtime_imports_no_scipy():
    assert importers("scipy") == set()


def test_only_reports_opens_or_writes_files():
    assert {path.name for path in PACKAGE.glob("*.py") if writes_files(path)} == {"reports.py"}


def test_only_states_frozen_array_makes_arrays_read_only():
    def freezes(node):
        if isinstance(node, ast.Assign):
            return any(getattr(target, "attr", None) == "writeable" for target in node.targets)
        return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "setflags"

    assert sites(freezes) == ["states.py:_frozen_array"]


def test_integer_rule_is_applied_by_as_int_and_the_bounded_checks_alone():
    def calls_is_int(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_is_int"

    # the circuit's check carries its allowed set in the message
    assert sites(calls_is_int) == ["optics.py:_check_circuit_power", "states.py:_as_int"]


def test_retired_argument_helpers_are_gone():
    for path in PACKAGE.glob("*.py"):
        text = path.read_text()
        assert "_check_gamma" not in text and "_as_length" not in text, path.name


def test_label_rule_is_written_once_in_states():
    def states_the_rule(node):
        return isinstance(node, ast.Constant) and node.value == "labels must be +1 or -1"

    def calls_isin(node):
        return isinstance(node, ast.Attribute) and node.attr == "isin"

    assert sites(states_the_rule) == ["states.py:_check_labels"]
    assert sites(calls_isin) == []


def raises_with(phrase: str):
    """Whether a node is a ``raise`` whose message text holds ``phrase``."""
    def predicate(node):
        if not isinstance(node, ast.Raise) or not isinstance(node.exc, ast.Call):
            return False
        text = "".join(
            part.value
            for arg in node.exc.args
            for part in ast.walk(arg)
            if isinstance(part, ast.Constant) and isinstance(part.value, str)
        )
        return phrase in text

    return predicate


def compares_attribute_to_none(attr: str):
    """Whether a node is ``<expr>.<attr> is None`` or ``<expr>.<attr> is not None``."""
    def predicate(node):
        return (isinstance(node, ast.Compare) and getattr(node.left, "attr", None) == attr
                and isinstance(node.ops[0], (ast.Is, ast.IsNot)))

    return predicate


def checks_membership_in(name: str):
    """Whether a node is ``<expr> in <name>`` or ``<expr> not in <name>``."""
    def predicate(node):
        return (isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.In, ast.NotIn))
                and getattr(node.comparators[0], "id", None) == name)

    return predicate


# each input rule: the text of its one refusal, and the one site that raises it
RULES = {
    "dimension": ("point dimension does not match this kernel spec",
                  "kernels.py:KernelSpec._coord_rows"),
    "pair": ("kernel arguments must have the same dimension", "states.py:_paired_diffs"),
    # KernelSpec._coord_rows and states._paired_diffs refuse through _frozen_array
    "finite": ("must be finite", "states.py:_frozen_array"),
    "phases": ("needs a DataPoint carrying phases", "states.py:_check_phased"),
    "power": ("the optical circuit realizes powers 1 and 3 only",
                      "optics.py:_check_circuit_power"),
    "kappa": ("true_kappa must lie in [0, 1]", "optics.py:_success_probability"),
    "choice": ("; choose from", "states.py:_check_choice"),
    "shape": ("must form a nonempty", "states.py:_frozen_array"),
    "nonnegative": ("must be a finite non-negative real", "states.py:_as_nonnegative"),
    "type": ("must be of type", "states.py:_check_type"),
}


@pytest.mark.parametrize("rule", RULES)
def test_each_input_rule_is_raised_from_one_site(rule):
    message, site = RULES[rule]
    assert sites(raises_with(message)) == [site]


def test_input_rules_leave_no_restated_check():
    # the two texts a mismatched pair was refused with share these words
    assert sites(raises_with("the same dimension")) == ["states.py:_paired_diffs"]
    # DataPoint itself reads its phases only when they are there
    assert sites(compares_attribute_to_none("phases")) == [
        "states.py:DataPoint.__post_init__", "states.py:_check_phased"]
    # each fixed set of names is searched by _check_choice alone
    for choices in ("DOMAINS", "DATASET_NAMES", "_GENERATORS", "CONDITION_POLICIES",
                    "SWEEP_FAMILIES", "_KIND_PARAMETER"):
        assert sites(checks_membership_in(choices)) == [], choices
    assert sites(checks_membership_in("choices")) == ["states.py:_check_choice"]
    assert sites(raises_with("must be finite")) == ["states.py:_frozen_array"]
    # the shape rule's old texts, "nonempty vector" and "nonempty matrix", are gone: what is
    # left refuses an empty class, an empty sweep list, or an array of the wrong shape
    assert sites(raises_with("nonempty")) == [
        "datasets.py:LabeledSet.__post_init__", "resolution.py:resolution_sweep",
        "resolution.py:resolution_sweep", "states.py:_frozen_array"]


def _model(size: int) -> TrainedModel:
    return TrainedModel(coefficients=np.ones(size), gamma=1.0)


_COSINE_1D = KernelSpec(kind="cosine_power", dimension=1, power=1)
_COSINE_2D = KernelSpec(kind="cosine_power", dimension=2, power=1)
_COSINE_3D = KernelSpec(kind="cosine_power", dimension=3, power=1)
_MSI_2D = KernelSpec(kind="profile", dimension=2, profile=msi_profile(3))
_NOISE = ShotNoiseConfig(events_per_point=100)
_TRAIN = LabeledSet(np.full((4, 2), 0.1), [1.0, 1.0, -1.0, -1.0])
_PHASED = DataPoint([0.1, 0.2], phases=[0.0, 0.3])
_PHASED_1D = DataPoint([0.1], phases=[0.0])
_PLAIN = DataPoint([0.1, 0.2])
_SMALL = {"train_size": 4, "test_size": 4, "grid_side": 2}

# every public entry that applies an input rule, with an input that breaks it
ENTRIES = [
    ("dimension", "evaluate", lambda: _COSINE_2D.evaluate([0.1], [0.2])),
    ("dimension", "evaluate-profile", lambda: _MSI_2D.evaluate([0.1], [0.2])),
    ("dimension", "matrix", lambda: _COSINE_2D.matrix(np.zeros((2, 3)))),
    ("dimension", "compute_gram", lambda: compute_gram(np.zeros((3, 1)), _COSINE_2D)),
    ("dimension", "kernel_rows", lambda: kernel_rows(np.zeros((2, 2)), np.zeros((3, 1)), _COSINE_2D)),
    ("dimension", "boundary_grid", lambda: boundary_grid(_model(4), _TRAIN, _COSINE_1D, side=2)),
    ("dimension", "boundary_grid-noisy",
     lambda: boundary_grid(_model(4), _TRAIN, _COSINE_1D, side=2, noise=_NOISE)),
    ("dimension", "run_benchmark",
     lambda: run_benchmark(BenchmarkConfig("moons", 1, _COSINE_1D, **_SMALL))),
    ("dimension", "gamma_sweep",
     lambda: gamma_sweep(BenchmarkConfig("moons", 1, _COSINE_3D, **_SMALL), [1.0])),
    ("pair", "kernel_cosine", lambda: kernel_cosine([0.1], [0.1, 0.2])),
    ("pair", "kernel_fractional", lambda: kernel_fractional([0.1], [0.1, 0.2], 0.5)),
    ("pair", "evaluate", lambda: _MSI_2D.evaluate([0.1], [0.1, 0.2])),
    ("pair", "kernel_phase_augmented", lambda: kernel_phase_augmented(_PHASED_1D, _PHASED)),
    ("pair", "kernel_circuit", lambda: kernel_circuit([0.1], [0.1, 0.2])),
    ("pair", "kernel_circuit_phase", lambda: kernel_circuit_phase(_PHASED, _PHASED_1D)),
    ("finite", "matrix", lambda: _COSINE_2D.matrix([[math.nan, 0.0]], np.zeros((2, 2)))),
    ("finite", "matrix-second", lambda: _COSINE_2D.matrix(np.zeros((2, 2)), [[0.0, math.inf]])),
    ("finite", "matrix-one-argument", lambda: _MSI_2D.matrix([[0.1, 0.2], [math.inf, 0.0]])),
    ("finite", "evaluate", lambda: _COSINE_2D.evaluate([math.nan, 0.0], [0.0, 0.0])),
    ("finite", "evaluate-profile", lambda: _MSI_2D.evaluate([math.inf, 0.0], [0.0, 0.0])),
    ("finite", "compute_gram", lambda: compute_gram([[math.inf, 0.0], [0.0, 0.0]], _COSINE_2D)),
    ("finite", "compute_gram-noisy",
     lambda: compute_gram([[math.nan, 0.0], [0.0, 0.0]], _COSINE_2D, noise=_NOISE)),
    ("finite", "kernel_rows",
     lambda: kernel_rows([[math.nan, 0.0]], np.zeros((3, 2)), _COSINE_2D)),
    ("finite", "kernel_cosine", lambda: kernel_cosine([math.nan], [0.0])),
    ("finite", "kernel_fractional", lambda: kernel_fractional([0.0], [math.inf], 0.5)),
    ("finite", "kernel_circuit", lambda: kernel_circuit([math.nan], [0.0])),
    ("phases", "embed_phase_augmented-array", lambda: embed_phase_augmented(np.zeros(2))),
    ("phases", "embed_phase_augmented", lambda: embed_phase_augmented(_PLAIN)),
    ("phases", "kernel_phase_augmented-array", lambda: kernel_phase_augmented(_PHASED, [0.1, 0.2])),
    ("phases", "kernel_phase_augmented", lambda: kernel_phase_augmented(_PLAIN, _PHASED)),
    ("phases", "kernel_circuit_phase-array", lambda: kernel_circuit_phase([0.1, 0.2], _PHASED)),
    ("phases", "kernel_circuit_phase", lambda: kernel_circuit_phase(_PHASED, _PLAIN)),
    ("power", "input_state", lambda: input_state(1, power=2)),
    ("power", "build_feature_unitary", lambda: build_feature_unitary([0.1], power=True)),
    ("power", "kernel_circuit", lambda: kernel_circuit([0.1], [0.2], power=5)),
    ("power", "kernel_circuit_phase", lambda: kernel_circuit_phase(_PHASED, _PHASED, 2)),
    ("kappa", "sample_kernel", lambda: sample_kernel(1.5, _NOISE)),
    ("kappa", "sample_kernel-nan", lambda: sample_kernel(math.nan, _NOISE)),
    ("kappa", "sample_kernels", lambda: sample_kernels([0.5, -0.1], _NOISE, [[0], [1]])),
    ("kappa", "sample_kernels-nan", lambda: sample_kernels([math.nan], _NOISE, [[0]])),
    ("choice", "BenchmarkConfig-dataset", lambda: BenchmarkConfig("moon", 1, _COSINE_2D)),
    ("choice", "BenchmarkConfig-condition_policy",
     lambda: BenchmarkConfig("moons", 1, _COSINE_2D, condition_policy="Clip")),
    ("type", "BenchmarkConfig-kernel", lambda: BenchmarkConfig("moons", 1, "cosine:1")),
    ("type", "BenchmarkConfig-noise",
     lambda: BenchmarkConfig("moons", 1, _COSINE_2D, noise={"events_per_point": 100})),
    ("choice", "generate_dataset", lambda: generate_dataset("moon", 1)),
    ("choice", "generate_dataset-convention",
     lambda: generate_dataset("moons", 0, convention="phase")),
    ("choice", "condition_gram", lambda: condition_gram(np.eye(2), "clipped")),
    ("choice", "GramMatrix", lambda: GramMatrix(np.eye(2), provenance="measured")),
    ("choice", "SweepPoint", lambda: SweepPoint("gauss", 3, 0.1)),
    ("choice", "resolution_sweep", lambda: resolution_sweep([2, 3], families=("msi", "gauss"))),
    ("choice", "rescale_dataset", lambda: rescale_dataset([[0.0], [1.0]], "Cosine")),
    ("choice", "KernelSpec", lambda: KernelSpec(kind="gaussian")),
    ("choice", "qubit_count", lambda: qubit_count(3, "dense")),
    ("choice", "plate_element", lambda: plate_element(1.0, 0.0, "X")),
    ("shape", "AmplitudeProfile", lambda: AmplitudeProfile([])),
    ("shape", "AmplitudeProfile-matrix", lambda: AmplitudeProfile([[1.0]])),
    ("shape", "FeatureState", lambda: FeatureState(np.zeros(0, dtype=complex))),
    ("shape", "DataPoint", lambda: DataPoint([])),
    ("shape", "DataPoint-matrix", lambda: DataPoint([[0.1, 0.2]])),
    ("shape", "TrainedModel", lambda: TrainedModel(coefficients=[], gamma=1.0)),
    ("shape", "accuracy", lambda: accuracy(_model(2), np.zeros((0, 2)), [])),
    ("shape", "accuracy-vector", lambda: accuracy(_model(2), np.zeros(2), [1.0])),
    ("shape", "LabeledSet", lambda: LabeledSet([0.0, 1.0], [1.0, -1.0])),
    ("shape", "best_random_linear_accuracy",
     lambda: best_random_linear_accuracy(np.zeros((0, 2)), [])),
    ("shape", "GramMatrix", lambda: GramMatrix(np.zeros(3))),
    ("shape", "train", lambda: train(np.zeros((0, 0)), [], 1.0)),
    ("nonnegative", "ResolutionReport-bool", lambda: ResolutionReport(True, msi_profile(3))),
    ("nonnegative", "ResolutionReport-inf", lambda: ResolutionReport(math.inf, msi_profile(3))),
    ("nonnegative", "SweepPoint-bool", lambda: SweepPoint("msi", 3, True)),
    ("nonnegative", "SweepPoint-inf", lambda: SweepPoint("msi", 3, math.inf)),
]


@pytest.mark.parametrize("rule, call", [(rule, call) for rule, _, call in ENTRIES],
                         ids=[f"{rule}-{entry}" for rule, entry, _ in ENTRIES])
def test_every_entry_reaches_its_rule(rule, call):
    with pytest.raises(ValueError, match=re.escape(RULES[rule][0])):
        call()
