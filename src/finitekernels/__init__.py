"""Finite-dimensional quantum feature maps, their kernels, and what they buy you.

The package covers four layers that compose into one pipeline:

- amplitude profiles and feature embeddings (``states``), with closed-form
  kernels for each family (``kernels``);
- kernel resolution as a Rayleigh quotient, closed forms, quadrature, and
  the optimal profile as the resolution matrix's ground eigenvector
  (``resolution``);
- a two-photon optical circuit realizing the cosine-power kernel, with
  shot-noise sampling of coincidence rates (``optics``);
- Gram-matrix SVM training (``svm``), benchmark datasets (``datasets``),
  orchestration (``bench``), and artifact emission (``reports``).
"""

from .states import (
    AmplitudeProfile,
    DataPoint,
    FeatureState,
    embed_cosine,
    embed_interference,
    embed_phase_augmented,
    msi_profile,
    rescale_dataset,
    tsq_profile,
)
from .kernels import (
    KernelSpec,
    kernel_cosine,
    kernel_fractional,
    kernel_phase_augmented,
    kernel_profile,
    overlap_kernel,
    qubit_count,
)
from .resolution import (
    ResolutionReport,
    SweepPoint,
    build_resolution_matrix,
    msi_variance_closed_form,
    optimize_profile,
    rayleigh_quotient,
    resolution_numeric,
    resolution_quadratic,
    resolution_sweep,
)
from .optics import (
    CoincidenceRecord,
    ShotNoiseConfig,
    build_feature_unitary,
    coincidence_rate_budget,
    feature_plate_settings,
    input_state,
    kernel_circuit,
    kernel_circuit_phase,
    sample_kernel,
    sample_kernels,
)
from .svm import (
    GramMatrix,
    TrainedModel,
    accuracy,
    condition_gram,
    kkt_residual,
    train,
    train_path,
    training_objective,
)
from .datasets import (
    LabeledSet,
    best_random_linear_accuracy,
    generate_dataset,
)
from .bench import (
    BenchmarkConfig,
    BenchReport,
    BoundaryGrid,
    boundary_grid,
    compute_gram,
    gamma_sweep,
    kernel_rows,
    run_benchmark,
)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeProfile",
    "BenchReport",
    "BenchmarkConfig",
    "BoundaryGrid",
    "CoincidenceRecord",
    "DataPoint",
    "FeatureState",
    "GramMatrix",
    "KernelSpec",
    "LabeledSet",
    "ResolutionReport",
    "ShotNoiseConfig",
    "SweepPoint",
    "TrainedModel",
    "accuracy",
    "best_random_linear_accuracy",
    "boundary_grid",
    "build_feature_unitary",
    "build_resolution_matrix",
    "coincidence_rate_budget",
    "compute_gram",
    "condition_gram",
    "embed_cosine",
    "embed_interference",
    "embed_phase_augmented",
    "feature_plate_settings",
    "gamma_sweep",
    "generate_dataset",
    "input_state",
    "kernel_circuit",
    "kernel_circuit_phase",
    "kernel_cosine",
    "kernel_fractional",
    "kernel_phase_augmented",
    "kernel_profile",
    "kernel_rows",
    "kkt_residual",
    "msi_profile",
    "msi_variance_closed_form",
    "optimize_profile",
    "overlap_kernel",
    "qubit_count",
    "rayleigh_quotient",
    "rescale_dataset",
    "resolution_numeric",
    "resolution_quadratic",
    "resolution_sweep",
    "run_benchmark",
    "sample_kernel",
    "sample_kernels",
    "train",
    "train_path",
    "training_objective",
    "tsq_profile",
]
