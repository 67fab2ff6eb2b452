import math
import pickle

import numpy as np
import pytest

from finitekernels import (
    AmplitudeProfile,
    BenchmarkConfig,
    DataPoint,
    FeatureState,
    KernelSpec,
    SweepPoint,
    TrainedModel,
    best_random_linear_accuracy,
    boundary_grid,
    build_feature_unitary,
    build_resolution_matrix,
    coincidence_rate_budget,
    embed_cosine,
    embed_interference,
    embed_phase_augmented,
    generate_dataset,
    input_state,
    kernel_cosine,
    msi_profile,
    msi_variance_closed_form,
    optimize_profile,
    qubit_count,
    rescale_dataset,
    resolution_sweep,
    tsq_profile,
)
from finitekernels.states import INTERFERENCE_DOMAIN, COSINE_DOMAIN

# 50-digit-arithmetic oracle values for the truncated squeezed progression,
# weights proportional to (2n)! t^(2n) / (4^n (n!)^2) with t = tanh(zeta),
# renormalized over the truncation window.
TSQ_ORACLE = {
    (5, 2.0): [
        0.44575873742688741,
        0.20713275747108633,
        0.14437399297623271,
        0.11181154273759741,
        0.090922969388196142,
    ],
    (8, 3.0): [
        0.32562405858918493,
        0.16120571976259128,
        0.11971144360509901,
        0.09877530504446884,
        0.085575686187138366,
        0.076258253958082211,
        0.069213729924496846,
        0.063635802928938518,
    ],
    (2, 0.5): [0.90352508489884895, 0.096474915101151049],
    (3, 1.0): [0.7061279238777918, 0.20478615697596853, 0.089085919146239668],
}


class TestProfiles:
    def test_msi_is_equal_weights(self):
        for length in (2, 3, 7, 64):
            p = msi_profile(length)
            assert len(p) == length
            np.testing.assert_allclose(p.weights, np.full(length, 1.0 / length), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("raw", [[0.0, 0.0], [-1.0, 1.0], [math.inf, 1.0], [math.nan, 1.0]])
    def test_from_unnormalized_needs_a_positive_finite_sum(self, raw):
        with pytest.raises(ValueError, match="profile weights must have a positive finite sum"):
            AmplitudeProfile.from_unnormalized(raw)

    def test_msi_needs_two_terms(self):
        with pytest.raises(ValueError):
            msi_profile(1)

    @pytest.mark.parametrize("key", sorted(TSQ_ORACLE))
    def test_tsq_matches_high_precision_oracle(self, key):
        length, zeta = key
        p = tsq_profile(length, zeta)
        np.testing.assert_allclose(p.weights, TSQ_ORACLE[key], rtol=0, atol=1e-14)

    def test_tsq_matches_live_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        rng = np.random.default_rng(17)
        for _ in range(10):
            length = int(rng.integers(2, 20))
            zeta = float(rng.uniform(0.2, 4.0))
            t2 = mpmath.tanh(zeta) ** 2
            raw = [
                mpmath.factorial(2 * n) * t2**n / (mpmath.mpf(4) ** n * mpmath.factorial(n) ** 2)
                for n in range(length)
            ]
            total = sum(raw)
            expected = np.array([float(v / total) for v in raw])
            np.testing.assert_allclose(tsq_profile(length, zeta).weights, expected, rtol=0, atol=1e-13)

    def test_tsq_ratio_recursion(self):
        # successive weights obey r_{n+1}/r_n = (2n+1)/(2n+2) tanh^2(zeta) < 1
        zeta = 1.7
        w = tsq_profile(9, zeta).weights
        t2 = math.tanh(zeta) ** 2
        for n in range(8):
            assert w[n + 1] / w[n] == pytest.approx((2 * n + 1) / (2 * n + 2) * t2, rel=1e-12)
        assert np.all(np.diff(w) < 0)

    def test_tsq_invalid_squeezing(self):
        with pytest.raises(ValueError):
            tsq_profile(4, 0.0)
        with pytest.raises(ValueError):
            tsq_profile(4, -1.0)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            AmplitudeProfile(np.array([0.5, -0.1, 0.6]))
        with pytest.raises(ValueError):
            AmplitudeProfile(np.array([0.5, 0.4]))  # does not sum to 1
        with pytest.raises(ValueError):
            AmplitudeProfile(np.array([0.5, np.nan, 0.5]))

    def test_from_unnormalized(self):
        p = AmplitudeProfile.from_unnormalized(np.array([2.0, 1.0, 1.0]))
        np.testing.assert_allclose(p.weights, [0.5, 0.25, 0.25], atol=1e-15)
        assert p.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_weights_read_only(self):
        p = msi_profile(3)
        with pytest.raises(ValueError):
            p.weights[0] = 0.9

    def test_amplitudes_are_square_roots(self):
        p = tsq_profile(4, 1.0)
        np.testing.assert_allclose(p.amplitudes**2, p.weights, atol=1e-15)


class TestFeatureState:
    def test_requires_unit_norm(self):
        with pytest.raises(ValueError):
            FeatureState(np.array([1.0, 1.0]))
        s = FeatureState(np.array([1.0, 1.0]) / math.sqrt(2.0))
        assert s.dim == 2

    def test_dim_counts_amplitudes(self):
        s = FeatureState(np.array([0.0, 0.0, 1.0], dtype=complex))
        assert s.dim == 3

    @pytest.mark.parametrize("amplitudes", [[np.nan], [1.0, complex(0.0, np.nan)], [np.inf]])
    def test_refuses_non_finite_amplitudes(self, amplitudes):
        # abs(nan - 1) > tol is false, so a norm check alone passes NaN
        with pytest.raises(ValueError, match="state amplitudes must be finite"):
            FeatureState(np.array(amplitudes))


class TestDataPoint:
    def test_phase_shape_must_match(self):
        with pytest.raises(ValueError):
            DataPoint(np.array([0.1, 0.2]), phases=np.array([0.0]))

    def test_first_phase_anchored_to_zero(self):
        with pytest.raises(ValueError):
            DataPoint(np.array([0.1, 0.2]), phases=np.array([0.3, 0.0]))
        d = DataPoint(np.array([0.1, 0.2]), phases=np.array([0.0, 0.4]))
        assert d.coords.size == 2

    def test_scalar_is_a_one_coordinate_point(self):
        d = DataPoint(0.3, phases=0.0)
        assert d.coords.tolist() == [0.3] and d.phases.tolist() == [0.0]
        assert not d.coords.flags.writeable


class TestInterferenceEmbedding:
    def test_two_mode_quarter_period(self):
        # equal two-term profile at x = 1/4: amplitudes (1, e^{i pi/2}) / sqrt(2)
        state = embed_interference(0.25, msi_profile(2))
        expected = np.array([1.0, 1.0j]) / math.sqrt(2.0)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_unit_norm_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            length = int(rng.integers(2, 9))
            profile = AmplitudeProfile.from_unnormalized(rng.uniform(0.1, 1.0, length))
            x = float(rng.uniform(-0.5, 0.4999))
            s = embed_interference(x, profile)
            assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_half_open_domain(self):
        embed_interference(-0.5, msi_profile(2))  # left edge included
        with pytest.raises(ValueError):
            embed_interference(0.5, msi_profile(2))  # right edge excluded
        with pytest.raises(ValueError):
            embed_interference(0.75, msi_profile(2))

    def test_nan_is_outside_the_domain(self):
        with pytest.raises(ValueError, match="outside the interference domain"):
            embed_interference(math.nan, msi_profile(3))


class TestCosineEmbedding:
    def test_binomial_amplitudes_at_quarter_pi(self):
        # cos = sin = 1/sqrt(2): amplitudes (1, sqrt3, sqrt3, 1) / (2 sqrt2)
        s = embed_cosine(np.array([math.pi / 4]), power=3)
        expected = np.array([1.0, math.sqrt(3.0), math.sqrt(3.0), 1.0]) / (2.0 * math.sqrt(2.0))
        np.testing.assert_allclose(s.amplitudes, expected, atol=1e-15)

    def test_origin_maps_to_first_basis_vector(self):
        s = embed_cosine(np.array([0.0]), power=3)
        expected = np.zeros(4)
        expected[0] = 1.0
        np.testing.assert_allclose(s.amplitudes, expected, atol=1e-15)

    def test_tensor_dimension(self):
        s = embed_cosine(np.array([0.3, -0.2]), power=2)
        assert s.dim == 9
        assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            embed_cosine(np.array([math.pi / 2]), power=1)
        embed_cosine(np.array([-math.pi / 2]), power=1)

    def test_nan_is_outside_the_domain(self):
        with pytest.raises(ValueError, match="outside the cosine domain"):
            embed_cosine([math.nan, 0.1])

    def test_power_must_be_positive_integer(self):
        with pytest.raises(ValueError):
            embed_cosine(np.array([0.1]), power=0)


class TestPhaseAugmentedEmbedding:
    def test_dimension_counts_auxiliary_qubits(self):
        d = DataPoint(np.array([0.1, 0.2]), phases=np.array([0.0, 0.5]))
        s = embed_phase_augmented(d, power=3)
        assert s.dim == 16 * 2  # (3+1)^2 base modes times one auxiliary qubit

    def test_single_dimension_reduces_to_cosine(self):
        d = DataPoint(np.array([0.37]), phases=np.array([0.0]))
        s = embed_phase_augmented(d, power=2)
        base = embed_cosine(np.array([0.37]), power=2)
        np.testing.assert_allclose(s.amplitudes, base.amplitudes, atol=1e-15)

    def test_requires_phases(self):
        with pytest.raises(ValueError):
            embed_phase_augmented(DataPoint(np.array([0.1, 0.2])), power=1)


class TestRescaleDataset:
    def test_maps_bounds_into_half_open_box(self):
        pts = np.array([[0.0, 10.0], [5.0, 20.0], [2.5, 15.0]])
        out = rescale_dataset(pts, "cosine")
        lo, hi = COSINE_DOMAIN
        assert out.min() == pytest.approx(lo, abs=1e-12)
        assert out.max() < hi
        assert out[:, 0].max() == pytest.approx(hi - 1e-9 * (hi - lo), abs=1e-12)

    def test_interference_convention(self):
        pts = np.array([[1.0], [3.0]])
        out = rescale_dataset(pts, "interference")
        lo, hi = INTERFERENCE_DOMAIN
        assert out.min() == pytest.approx(lo, abs=1e-15)
        assert out.max() < hi

    @pytest.mark.parametrize("points", [[[0.5, 1.0]], [0.5]], ids=["2-d", "1-d"])
    def test_single_point_rejected(self, points):
        with pytest.raises(ValueError, match="need at least two points to rescale"):
            rescale_dataset(points, "cosine")

    def test_degenerate_column_rejected(self):
        with pytest.raises(ValueError):
            rescale_dataset(np.array([[1.0, 2.0], [1.0, 3.0]]), "cosine")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_coordinate_rejected(self, bad):
        with pytest.raises(ValueError, match="points to rescale must be finite"):
            rescale_dataset(np.array([[0.0, 1.0], [bad, 2.0], [1.0, 3.0]]), "cosine")

    def test_preserves_ordering(self):
        pts = np.array([[0.0], [1.0], [4.0]])
        out = rescale_dataset(pts, "cosine")
        assert out[0, 0] < out[1, 0] < out[2, 0]
        # affine: midpoints stay proportional
        frac = (out[1, 0] - out[0, 0]) / (out[2, 0] - out[0, 0])
        assert frac == pytest.approx(0.25, abs=1e-12)


_X, _XP = np.array([0.1, 0.2]), np.array([0.3, -0.4])
_PTS, _LABELS = np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([1.0, -1.0])
# (call, the argument name the error must give): each passes a bool or a
# non-integer where the library takes a count, seed, length or power
INTEGER_ARGUMENTS = {
    "msi_profile-bool": (lambda: msi_profile(True), "n_terms"),
    "msi_profile-float": (lambda: msi_profile(4.0), "n_terms"),
    "tsq_profile-bool": (lambda: tsq_profile(True, 1.0), "n_terms"),
    "tsq_profile-float": (lambda: tsq_profile(2.5, 1.0), "n_terms"),
    "msi_variance_closed_form-float": (lambda: msi_variance_closed_form(4.0), "n_terms"),
    "qubit_count-bool": (lambda: qubit_count(True), "power"),
    "qubit_count-float": (lambda: qubit_count(2.5), "power"),
    "kernel_cosine-bool": (lambda: kernel_cosine(_X, _XP, power=True), "power"),
    "kernel_cosine-float": (lambda: kernel_cosine(_X, _XP, power=2.5), "power"),
    "embed_cosine-bool": (lambda: embed_cosine(_X, power=True), "power"),
    "embed_cosine-float": (lambda: embed_cosine(_X, power=2.0), "power"),
    "build_feature_unitary-bool": (lambda: build_feature_unitary(_X, power=True), "powers"),
    "input_state-dimension": (lambda: input_state(True), "dimension"),
    "input_state-power": (lambda: input_state(1, power=True), "powers"),
    "generate_dataset-seed-bool": (lambda: generate_dataset("moons", True), "seed"),
    "generate_dataset-seed-float": (lambda: generate_dataset("moons", 1.0), "seed"),
    "generate_dataset-train_size": (lambda: generate_dataset("moons", 1, train_size=10.0), "train_size"),
    "generate_dataset-test_size": (lambda: generate_dataset("moons", 1, test_size=10.0), "test_size"),
    "coincidence_rate_budget-pairs": (lambda: coincidence_rate_budget(True, 1.0, 10), "pairs"),
    "coincidence_rate_budget-events": (
        lambda: coincidence_rate_budget(10, 1.0, 2.5), "events_needed"
    ),
    "best_random_linear_accuracy-trials": (
        lambda: best_random_linear_accuracy(_PTS, _LABELS, trials=True), "trials"
    ),
    "best_random_linear_accuracy-seed": (
        lambda: best_random_linear_accuracy(_PTS, _LABELS, seed=True), "seed"
    ),
}


@pytest.mark.parametrize("case", sorted(INTEGER_ARGUMENTS))
def test_bool_or_non_integer_rejected(case):
    call, name = INTEGER_ARGUMENTS[case]
    with pytest.raises(ValueError, match=name):
        call()


# (call, the argument name the error must give): each passes True, Python's or
# numpy's, where the library takes a finite positive real, which would otherwise run as 1.0
POSITIVE_REAL_BOOLS = {
    "BenchmarkConfig-gamma": (lambda: BenchmarkConfig("moons", 1, _SPEC, gamma=True), "gamma"),
    "TrainedModel-gamma": (lambda: TrainedModel([1.0], gamma=True), "gamma"),
    "tsq_profile-squeezing": (lambda: tsq_profile(3, True), "squeezing"),
    "BenchmarkConfig-gamma-numpy": (lambda: BenchmarkConfig("moons", 1, _SPEC, gamma=np.True_), "gamma"),
    "TrainedModel-gamma-numpy": (lambda: TrainedModel([1.0], gamma=np.True_), "gamma"),
    "tsq_profile-squeezing-numpy": (lambda: tsq_profile(3, np.True_), "squeezing"),
}


@pytest.mark.parametrize("case", sorted(POSITIVE_REAL_BOOLS))
def test_bool_rejected_as_positive_real(case):
    call, name = POSITIVE_REAL_BOOLS[case]
    with pytest.raises(ValueError, match=f"^{name} must be a finite positive real$"):
        call()


_SPEC = KernelSpec(kind="cosine_power", dimension=2, power=1)
_MODEL = TrainedModel(coefficients=[0.5, -0.5], gamma=1.0)
# (call of one integer, a valid value): every count, seed, length, power and
# dimension that the library checks as an integer
INTEGER_SITES = {
    "msi_profile": (msi_profile, 3),
    "tsq_profile": (lambda n: tsq_profile(n, 1.0), 3),
    "embed_cosine": (lambda n: embed_cosine(_X, power=n), 2),
    "build_resolution_matrix": (build_resolution_matrix, 3),
    "msi_variance_closed_form": (msi_variance_closed_form, 4),
    "optimize_profile": (optimize_profile, 4),
    "SweepPoint": (lambda n: SweepPoint(family="msi", length=n, variance=0.1), 3),
    "resolution_sweep": (lambda n: resolution_sweep([2, n]), 4),
    "kernel_cosine": (lambda n: kernel_cosine(_X, _XP, power=n), 2),
    "qubit_count": (qubit_count, 3),
    "KernelSpec-dimension": (lambda n: KernelSpec(kind="cosine_power", dimension=n, power=1), 2),
    "KernelSpec-power": (lambda n: KernelSpec(kind="cosine_power", power=n), 2),
    "input_state": (input_state, 2),
    "coincidence_rate_budget-pairs": (lambda n: coincidence_rate_budget(n, 250.0, 10), 7),
    "coincidence_rate_budget-events": (lambda n: coincidence_rate_budget(7, 250.0, n), 10),
    "generate_dataset-seed": (lambda n: generate_dataset("moons", n), 1),
    "generate_dataset-train_size": (lambda n: generate_dataset("moons", 1, train_size=n), 5),
    "generate_dataset-test_size": (lambda n: generate_dataset("moons", 1, test_size=n), 5),
    "best_random_linear_accuracy-trials": (
        lambda n: best_random_linear_accuracy(_PTS, _LABELS, trials=n), 5
    ),
    "best_random_linear_accuracy-seed": (
        lambda n: best_random_linear_accuracy(_PTS, _LABELS, seed=n), 3
    ),
    "boundary_grid-side": (lambda n: boundary_grid(_MODEL, _PTS, _SPEC, side=n), 3),
    "BenchmarkConfig-seed": (lambda n: BenchmarkConfig("moons", n, _SPEC), 1),
    "BenchmarkConfig-train_size": (lambda n: BenchmarkConfig("moons", 1, _SPEC, train_size=n), 8),
    "BenchmarkConfig-test_size": (lambda n: BenchmarkConfig("moons", 1, _SPEC, test_size=n), 8),
    "BenchmarkConfig-grid_side": (lambda n: BenchmarkConfig("moons", 1, _SPEC, grid_side=n), 8),
}


@pytest.mark.parametrize("case", sorted(INTEGER_SITES))
def test_numpy_integer_acts_as_int(case):
    call, value = INTEGER_SITES[case]
    # pickled, a result shows every value bit for bit and every field's type
    assert pickle.dumps(call(np.int64(value))) == pickle.dumps(call(value))


def test_integer_error_names_the_rule_and_the_value():
    with pytest.raises(ValueError, match=r"^pairs must be a non-negative integer, got -1$"):
        coincidence_rate_budget(-1, 250.0, 10)
    with pytest.raises(ValueError, match=r"^power must be a positive integer, got np.int64\(0\)$"):
        qubit_count(np.int64(0))
    with pytest.raises(ValueError, match=r"^n_terms must be an integer >= 2, got 1.0$"):
        msi_profile(1.0)
