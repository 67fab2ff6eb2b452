"""The package's exported names: ``__all__`` is derived from its imports, so this pins the set."""

import finitekernels

EXPORTED = [
    "AmplitudeProfile", "BenchReport", "BenchmarkConfig", "BoundaryGrid", "DataPoint",
    "FeatureState", "GramMatrix", "KernelSpec", "LabeledSet", "ResolutionReport",
    "ShotNoiseConfig", "SweepPoint", "TrainedModel", "accuracy", "best_random_linear_accuracy",
    "boundary_grid", "build_feature_unitary", "build_resolution_matrix",
    "coincidence_rate_budget", "compute_gram", "condition_gram", "embed_cosine",
    "embed_interference", "embed_phase_augmented", "feature_plate_settings", "gamma_sweep",
    "generate_dataset", "input_state", "kernel_circuit", "kernel_circuit_phase",
    "kernel_cosine", "kernel_fractional", "kernel_phase_augmented", "kernel_profile",
    "kernel_rows", "kkt_residual", "msi_profile", "msi_variance_closed_form",
    "optimize_profile", "overlap_kernel", "qubit_count", "rayleigh_quotient",
    "rescale_dataset", "resolution_quadratic", "resolution_sweep", "run_benchmark",
    "sample_kernel", "sample_kernels", "train", "train_path", "training_objective",
    "tsq_profile",
]


def test_all_is_the_pinned_set():
    assert len(EXPORTED) == 52
    assert finitekernels.__all__ == EXPORTED


def test_star_import_binds_the_exported_names_and_no_submodule():
    namespace: dict = {}
    exec("from finitekernels import *", namespace)
    # exactly the exported names: no submodule, such as states or svm, comes along
    assert sorted(name for name in namespace if name != "__builtins__") == EXPORTED
