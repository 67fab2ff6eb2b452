import math

import numpy as np
import pytest

from finitekernels import kernels
from finitekernels import (
    AmplitudeProfile,
    DataPoint,
    KernelSpec,
    compute_gram,
    embed_cosine,
    embed_interference,
    embed_phase_augmented,
    generate_dataset,
    kernel_cosine,
    kernel_fractional,
    kernel_phase_augmented,
    kernel_profile,
    msi_profile,
    overlap_kernel,
    qubit_count,
    tsq_profile,
)
from finitekernels.cli import parse_kernel


def random_profile(rng, length):
    return AmplitudeProfile.from_unnormalized(rng.uniform(0.05, 1.0, length))


class TestProfileKernel:
    def test_zero_shift_is_one(self):
        for profile in (msi_profile(2), msi_profile(7), tsq_profile(5, 1.5)):
            assert kernel_profile(0.0, profile) == pytest.approx(1.0, abs=1e-14)

    def test_unit_periodicity(self):
        profile = tsq_profile(6, 2.0)
        for dx in (0.03, 0.31, 0.49):
            assert kernel_profile(dx, profile) == pytest.approx(
                kernel_profile(dx + 1.0, profile), abs=1e-13
            )

    def test_equal_weight_null_at_reciprocal_length(self):
        # L equal modes interfere to zero at shift 1/L
        assert kernel_profile(0.25, msi_profile(4)) == pytest.approx(0.0, abs=1e-14)
        assert kernel_profile(0.2, msi_profile(5)) == pytest.approx(0.0, abs=1e-14)

    def test_matches_embedding_overlap(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            profile = random_profile(rng, int(rng.integers(2, 7)))
            x, xp = rng.uniform(-0.5, 0.5, 2)
            closed = kernel_profile(x - xp, profile)
            ov = overlap_kernel(
                embed_interference(x, profile), embed_interference(xp, profile)
            )
            assert closed == pytest.approx(ov, abs=1e-12)

    def test_array_transparency(self):
        profile = msi_profile(3)
        dx = np.array([0.0, 0.1, 0.2])
        vec = kernel_profile(dx, profile)
        assert vec.shape == (3,)
        for i, v in enumerate(dx):
            assert vec[i] == kernel_profile(float(v), profile)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(4)
        profile = random_profile(rng, 8)
        vals = kernel_profile(rng.uniform(-3, 3, 200), profile)
        assert np.all(vals <= 1.0 + 1e-12)
        assert np.all(vals >= 0.0)


class TestCosineKernel:
    def test_known_value(self):
        # cos^6(pi/6) = (sqrt3/2)^6 = 27/64
        val = kernel_cosine(np.array([math.pi / 6]), np.array([0.0]), power=3)
        assert val == pytest.approx(27.0 / 64.0, abs=1e-14)

    def test_product_over_dimensions(self):
        x = np.array([0.3, -0.4])
        xp = np.array([-0.1, 0.2])
        val = kernel_cosine(x, xp, power=2)
        expected = math.cos(0.4) ** 4 * math.cos(0.6) ** 4
        assert val == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("power", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_embedding_overlap(self, power, dim):
        rng = np.random.default_rng(power * 10 + dim)
        for _ in range(40):
            x = rng.uniform(-math.pi / 2, math.pi / 2, dim)
            xp = rng.uniform(-math.pi / 2, math.pi / 2, dim)
            closed = kernel_cosine(x, xp, power=power)
            ov = overlap_kernel(embed_cosine(x, power), embed_cosine(xp, power))
            assert closed == pytest.approx(ov, abs=1e-12)

    def test_symmetry_bitwise(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.uniform(-1.5, 1.5, 2)
            xp = rng.uniform(-1.5, 1.5, 2)
            assert kernel_cosine(x, xp, power=3) == kernel_cosine(xp, x, power=3)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kernel_cosine(np.array([0.1, 0.2]), np.array([0.1]), power=1)


class TestFractionalKernel:
    def test_known_value(self):
        # |cos(pi/3)|^(2 * 1/2) = 0.5
        val = kernel_fractional(np.array([math.pi / 3]), np.array([0.0]), 0.5)
        assert val == pytest.approx(0.5, abs=1e-14)

    def test_reduces_to_cosine_at_integer_exponent(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.uniform(-math.pi / 2, math.pi / 2, 2)
            xp = rng.uniform(-math.pi / 2, math.pi / 2, 2)
            assert kernel_fractional(x, xp, 1.0) == pytest.approx(
                kernel_cosine(x, xp, power=1), abs=1e-14
            )

    def test_coarser_than_integer_kernel(self):
        # smaller exponent decays slower away from zero shift
        dx = np.array([0.8])
        zero = np.array([0.0])
        assert kernel_fractional(dx, zero, 0.5) > kernel_cosine(dx, zero, power=1)

    def test_exponent_must_be_positive(self):
        with pytest.raises(ValueError):
            kernel_fractional(np.array([0.1]), np.array([0.0]), 0.0)


class TestPhaseAugmentedKernel:
    def test_matches_embedding_overlap(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            a = DataPoint(
                rng.uniform(-math.pi / 2, math.pi / 2, 2),
                phases=np.array([0.0, rng.uniform(-math.pi, math.pi)]),
            )
            b = DataPoint(
                rng.uniform(-math.pi / 2, math.pi / 2, 2),
                phases=np.array([0.0, rng.uniform(-math.pi, math.pi)]),
            )
            closed = kernel_phase_augmented(a, b, power=3)
            ov = overlap_kernel(
                embed_phase_augmented(a, power=3), embed_phase_augmented(b, power=3)
            )
            assert closed == pytest.approx(ov, abs=1e-12)

    def test_zero_phase_difference_reduces_to_cosine(self):
        a = DataPoint(np.array([0.4, -0.3]), phases=np.array([0.0, 0.7]))
        b = DataPoint(np.array([-0.2, 0.5]), phases=np.array([0.0, 0.7]))
        assert kernel_phase_augmented(a, b, power=3) == pytest.approx(
            kernel_cosine(a.coords, b.coords, power=3), abs=1e-13
        )

    def test_quarter_turn_phase_annihilates(self):
        a = DataPoint(np.array([0.1, 0.1]), phases=np.array([0.0, math.pi / 2]))
        b = DataPoint(np.array([0.1, 0.1]), phases=np.array([0.0, 0.0]))
        assert kernel_phase_augmented(a, b, power=3) == pytest.approx(0.0, abs=1e-14)


class TestQubitCount:
    @pytest.mark.parametrize(
        "power,compact,product",
        [(1, 1, 1), (2, 2, 2), (3, 2, 3), (7, 3, 7), (15, 4, 15), (16, 5, 16)],
    )
    def test_schemes(self, power, compact, product):
        assert qubit_count(power, "compact") == compact
        assert qubit_count(power, "product") == product

    def test_default_is_compact(self):
        assert qubit_count(3) == 2

    def test_invalid_scheme(self):
        with pytest.raises(ValueError):
            qubit_count(3, "dense")

    def test_invalid_power(self):
        with pytest.raises(ValueError):
            qubit_count(0)


class TestKernelSpec:
    def test_cosine_spec_evaluates(self):
        spec = KernelSpec(kind="cosine_power", dimension=2, power=2)
        x = np.array([0.3, 0.1])
        xp = np.array([-0.2, 0.4])
        assert spec.evaluate(x, xp) == pytest.approx(kernel_cosine(x, xp, power=2), abs=1e-15)
        assert spec.convention == "cosine"

    def test_profile_spec_evaluates_product(self):
        profile = msi_profile(3)
        spec = KernelSpec(kind="profile", dimension=2, profile=profile)
        x = np.array([0.1, -0.2])
        xp = np.array([0.3, 0.2])
        expected = kernel_profile(0.2, profile) * kernel_profile(0.4, profile)
        assert spec.evaluate(x, xp) == pytest.approx(expected, abs=1e-13)
        assert spec.convention == "interference"

    def test_fractional_spec(self):
        spec = KernelSpec(kind="fractional_cosine", dimension=1, exponent=0.5)
        x, xp = np.array([0.6]), np.array([0.1])
        assert spec.evaluate(x, xp) == pytest.approx(kernel_fractional(x, xp, 0.5), abs=1e-15)

    def test_field_combinations_validated(self):
        with pytest.raises(ValueError):
            KernelSpec(kind="cosine_power", dimension=1)  # missing power
        with pytest.raises(ValueError):
            KernelSpec(kind="cosine_power", dimension=1, power=2, exponent=0.5)
        with pytest.raises(ValueError):
            KernelSpec(kind="profile", dimension=1)  # missing profile
        with pytest.raises(ValueError):
            KernelSpec(kind="gaussian", dimension=1)
        # non-integers and bools would leak into kernel_id(): "D=1.5", "N=True"
        for field, value in (("dimension", 1.5), ("dimension", 2.0), ("dimension", True),
                             ("power", True), ("power", 2.0)):
            fields = {"kind": "cosine_power", "dimension": 1, "power": 1, field: value}
            with pytest.raises(ValueError, match=f"{field} must be a positive integer"):
                KernelSpec(**fields)
        spec = KernelSpec(kind="cosine_power", dimension=np.int64(2), power=np.int64(3))
        assert type(spec.dimension) is int and type(spec.power) is int
        assert spec.kernel_id() == "cosine:N=3:D=2"

    @pytest.mark.parametrize("kind", ["cosine_power"])
    def test_non_integer_power_rejected(self, kind):
        # power 2.5 would evaluate cos^5 clipped to 0 past pi/2, a kernel with no embedding
        with pytest.raises(ValueError):
            KernelSpec(kind=kind, dimension=1, power=2.5)

    def test_kernel_id(self):
        spec = KernelSpec(kind="cosine_power", dimension=2, power=1)
        assert "cosine" in spec.kernel_id()
        labeled = KernelSpec(kind="cosine_power", dimension=2, power=1, label="cosine:1")
        assert labeled.kernel_id() == "cosine:1"


def matrix_specs(dimension):
    return [
        KernelSpec(kind="cosine_power", dimension=dimension, power=1),
        KernelSpec(kind="cosine_power", dimension=dimension, power=3),
        KernelSpec(kind="fractional_cosine", dimension=dimension, exponent=0.5),
        KernelSpec(kind="fractional_cosine", dimension=dimension, exponent=2.7),
        KernelSpec(kind="profile", dimension=dimension, profile=msi_profile(4)),
        KernelSpec(kind="profile", dimension=dimension, profile=tsq_profile(9, 3.0)),
    ]


def evaluate_loop(spec, a, b):
    """The scalar oracle: one ``evaluate`` call per pair."""
    out = np.empty((len(a), len(b)))
    for i, x in enumerate(a):
        for j, xp in enumerate(b):
            out[i, j] = spec.evaluate(x, xp)
    return out


def random_points(rng, spec, n, spread=1.0):
    lo, hi = (-math.pi / 2, math.pi / 2) if spec.convention == "cosine" else (-0.5, 0.5)
    return spread * rng.uniform(lo, hi, size=(n, spec.dimension))


class TestKernelMatrix:
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(7, 5), (1, 9), (6, 6)])
    def test_equals_evaluate_loop_bitwise(self, dimension, shape):
        rng = np.random.default_rng(dimension * 100 + shape[0])
        for spec in matrix_specs(dimension):
            # spread 3 also covers separations outside the input domain
            for spread in (1.0, 3.0):
                a = random_points(rng, spec, shape[0], spread)
                b = random_points(rng, spec, shape[1], spread)
                assert np.array_equal(spec.matrix(a, b), evaluate_loop(spec, a, b)), (
                    spec.kernel_id()
                )

    @pytest.mark.parametrize("cap", [1, 24, 40])
    def test_multi_block_equals_evaluate_loop(self, monkeypatch, cap):
        # a small cap splits the rows into many blocks, the last one short
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", cap)
        rng = np.random.default_rng(cap)
        for spec in matrix_specs(2):
            a, b = random_points(rng, spec, 11), random_points(rng, spec, 4)
            assert np.array_equal(spec.matrix(a, b), evaluate_loop(spec, a, b))

    def test_empty_side(self):
        spec = KernelSpec(kind="cosine_power", dimension=2, power=1)
        assert spec.matrix(np.zeros((0, 2)), np.zeros((3, 2))).shape == (0, 3)
        assert spec.matrix(np.zeros((3, 2)), np.zeros((0, 2))).shape == (3, 0)

    @pytest.mark.parametrize("bad", [np.zeros((3, 3)), np.zeros(2), np.zeros((1, 2, 2))])
    def test_dimension_mismatch_rejected(self, bad):
        spec = KernelSpec(kind="cosine_power", dimension=2, power=1)
        with pytest.raises(ValueError, match="dimension"):
            spec.matrix(bad, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="dimension"):
            spec.matrix(np.zeros((2, 2)), bad)


class TestGramPositivity:
    @pytest.mark.parametrize(
        "spec",
        [
            KernelSpec(kind="cosine_power", dimension=2, power=1),
            KernelSpec(kind="cosine_power", dimension=2, power=3),
            KernelSpec(kind="profile", dimension=2, profile=msi_profile(4)),
        ],
        ids=["cosine1", "cosine3", "msi4"],
    )
    def test_embeddable_kernels_give_psd_gram(self, spec):
        rng = np.random.default_rng(9)
        lo, hi = (-math.pi / 2, math.pi / 2) if spec.convention == "cosine" else (-0.5, 0.5)
        pts = rng.uniform(lo, hi, size=(12, 2))
        gram = np.array([[spec.evaluate(a, b) for b in pts] for a in pts])
        np.testing.assert_allclose(gram, gram.T, atol=1e-15)
        assert np.linalg.eigvalsh(gram).min() >= -1e-10

    # the exact m = 40 Gram on each pinned dataset: only the finite kinds are PSD
    PINNED = (("concentric", 7), ("moons", 1), ("xor", 0))

    def spectrum(self, text, dataset, seed):
        spec = parse_kernel(text)
        train, _ = generate_dataset(dataset, seed, train_size=40, convention=spec.convention)
        return np.linalg.eigvalsh(compute_gram(train, spec).values)

    @pytest.mark.parametrize("text", ["cosine:0.25", "cosine:0.5", "cosine:1.5", "cosine:2.5"])
    @pytest.mark.parametrize("dataset, seed", PINNED)
    def test_fractional_gram_is_indefinite(self, text, dataset, seed):
        w = self.spectrum(text, dataset, seed)
        assert w[0] < -1e-6 * w[-1]

    @pytest.mark.parametrize("text", ["cosine:1", "cosine:3", "msi:4", "opt:4", "tsq:8:3"])
    @pytest.mark.parametrize("dataset, seed", PINNED)
    def test_finite_kind_gram_is_psd(self, text, dataset, seed):
        w = self.spectrum(text, dataset, seed)
        assert w[0] >= -1e-12 * w[-1]
