import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from finitekernels import (
    AmplitudeProfile,
    ResolutionReport,
    SweepPoint,
    build_resolution_matrix,
    msi_profile,
    msi_variance_closed_form,
    optimize_profile,
    rayleigh_quotient,
    resolution,
    resolution_quadratic,
    resolution_sweep,
    states,
    tsq_profile,
)

# frozen closed-form variances of the equal-weight family (50-digit arithmetic)
MSI_VARIANCE_ORACLE = {
    2: 0.032672741512164448,
    3: 0.024229309541969633,
    4: 0.017193116233473955,
    8: 0.0087304424285171319,
    16: 0.0043832574180672691,
    64: 0.0010972548575198815,
}

# exact three-mode optimum: variance 1/12 - (sqrt(129) - 1) / (16 pi^2),
# weights (w, 1 - 2w, w) with w = 8 / (17 + sqrt(129))
OPT3_VARIANCE = 0.017741692886875177
OPT3_EDGE_WEIGHT = 0.28210916541997264


# the three conditions perfbench's resolve check enforces on every resolution.csv
SPOT_TOL = 1e-12
DOMINANCE_RTOL = 1e-12
# every tsq squeezing the resolve-sweep workload draws: 3.0 + 0.25 (seed % 8)
WORKLOAD_ZETAS = [3.0 + 0.25 * k for k in range(8)]


# Even, as Simpson's rule needs; keeps the quadrature error below 1e-11 even for
# profiles with ~64 modes, whose integrand oscillates at frequencies up to 2 pi (L-1).
_SIMPSON_PANELS = 65536


def resolution_numeric(profile: AmplitudeProfile) -> float:
    """Variance via composite Simpson quadrature of the kernel density.

    Independent of the quadratic form: evaluates the kernel pointwise on
    [-1/2, 1/2] and integrates x^2 k(x) against k(x) over ``_SIMPSON_PANELS``
    panels.
    """
    x = np.linspace(-0.5, 0.5, _SIMPSON_PANELS + 1)
    z = np.exp(2.0j * math.pi * x)
    # Horner evaluation of sum_n r_n z^n
    s = np.zeros_like(z)
    for w in profile.weights[::-1]:
        s = s * z + w
    kappa = np.abs(s) ** 2
    h = 1.0 / _SIMPSON_PANELS
    simpson = np.ones(_SIMPSON_PANELS + 1)
    simpson[1:-1:2] = 4.0
    simpson[2:-1:2] = 2.0
    simpson *= h / 3.0
    denom = float(simpson @ kappa)
    num = float(simpson @ (x**2 * kappa))
    return num / denom


def full_eigh_profile(length: int) -> np.ndarray:
    """Ground eigenvector of the whole L x L resolution matrix, made positive."""
    r = np.linalg.eigh(build_resolution_matrix(length))[1][:, 0]
    return -r if r.sum() < 0.0 else r


def mpmath_ground_eigenvalue(length: int) -> mpmath.mpf:
    """Smallest eigenvalue of the palindromic half problem D S D, at 30 digits."""
    with mpmath.workdps(30):
        def k(i, j):
            d = i - j
            return mpmath.mpf(1) / 12 if d == 0 else (-1) ** abs(d) / (2 * mpmath.pi**2 * d * d)

        half = (length + 1) // 2
        scale = [mpmath.mpf(1)] * half
        if length % 2:
            scale[-1] = mpmath.sqrt(mpmath.mpf(1) / 2)
        s = mpmath.matrix(half, half)
        for i in range(half):
            for j in range(half):
                s[i, j] = scale[i] * (k(i, j) + k(i, length - 1 - j)) * scale[j]
        return min(mpmath.eigsy(s, eigvals_only=True))


class TestResolutionMatrix:
    def test_spot_values_exact(self):
        k = build_resolution_matrix(5)
        assert k[0, 0] == 1.0 / 12.0
        assert k[3, 3] == 1.0 / 12.0
        assert k[0, 1] == -1.0 / (2.0 * math.pi**2 * 1.0)
        assert k[1, 0] == k[0, 1]
        assert k[0, 2] == 1.0 / (2.0 * math.pi**2 * 4.0)
        assert k[1, 4] == -1.0 / (2.0 * math.pi**2 * 9.0)

    def test_symmetric_and_psd(self):
        k = build_resolution_matrix(12)
        np.testing.assert_array_equal(k, k.T)
        assert np.linalg.eigvalsh(k).min() >= -1e-14

    def test_size_validated(self):
        with pytest.raises(ValueError):
            build_resolution_matrix(0)

    def test_non_integer_size_rejected(self):
        with pytest.raises(ValueError, match=re.escape("2.5")):
            build_resolution_matrix(2.5)
        for flag in (True, False):
            with pytest.raises(ValueError, match=repr(flag)):
                build_resolution_matrix(flag)
        assert build_resolution_matrix(np.int64(3)).shape == (3, 3)

    def test_smaller_matrix_is_leading_block(self):
        matrices = [build_resolution_matrix(size) for size in range(1, 129)]
        for big in matrices:
            for small in matrices[: len(big)]:
                assert np.array_equal(small, big[: len(small), : len(small)])


class TestRayleighQuotient:
    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        w = rng.uniform(0.1, 1.0, 6)
        q1 = rayleigh_quotient(w)
        q2 = rayleigh_quotient(3.7 * w)
        assert q1 == pytest.approx(q2, rel=1e-13)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            rayleigh_quotient(np.zeros(4))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            rayleigh_quotient([bad, 1.0])

    def test_single_mode_is_uniform_density(self):
        # one mode: kernel is flat, variance is that of uniform on a unit period
        assert rayleigh_quotient(np.array([1.0])) == pytest.approx(1.0 / 12.0, abs=1e-15)


class TestResolutionReport:
    @pytest.mark.parametrize("variance", [-1e-3, math.nan, math.inf, True])
    def test_negative_or_nan_variance_rejected(self, variance):
        # nan < 0 is false, so a bare sign check lets NaN through
        profile = msi_profile(3)
        with pytest.raises(ValueError, match="variance must be a finite non-negative real"):
            ResolutionReport(variance=variance, profile=profile)


class TestClosedFormAndQuadrature:
    @pytest.mark.parametrize("length", sorted(MSI_VARIANCE_ORACLE))
    def test_closed_form_frozen_values(self, length):
        assert msi_variance_closed_form(length) == pytest.approx(
            MSI_VARIANCE_ORACLE[length], rel=1e-14
        )

    def test_closed_form_matches_quadratic(self):
        for length in range(2, 65):
            report = resolution_quadratic(msi_profile(length))
            assert abs(report.variance - msi_variance_closed_form(length)) < 1e-12

    @pytest.mark.parametrize("length", [2, 3, 5, 8, 21, 64])
    def test_quadrature_matches_quadratic(self, length):
        profile = msi_profile(length)
        assert abs(resolution_numeric(profile) - resolution_quadratic(profile).variance) < 1e-10

    def test_quadrature_on_uneven_profile(self):
        profile = tsq_profile(7, 2.5)
        assert abs(resolution_numeric(profile) - resolution_quadratic(profile).variance) < 1e-10

    def test_closed_form_needs_two_terms(self):
        with pytest.raises(ValueError):
            msi_variance_closed_form(1)

    def test_report_fields_consistent(self):
        profile = msi_profile(4)
        report = resolution_quadratic(profile)
        assert report.resolution == pytest.approx(math.sqrt(report.variance), rel=1e-15)
        assert report.renorm == pytest.approx(float(profile.weights @ profile.weights), abs=1e-15)

    def test_gapped_profile_exceeds_uniform_variance(self):
        # weights (1/2, 0, 1/2): kernel density cos^2(2 pi x) concentrates mass
        # near both period edges, variance 1/12 + 1/(8 pi^2) > 1/12
        profile = AmplitudeProfile(np.array([0.5, 0.0, 0.5]))
        expected = 1.0 / 12.0 + 1.0 / (8.0 * math.pi**2)
        assert resolution_quadratic(profile).variance == pytest.approx(expected, rel=1e-12)
        assert resolution_quadratic(profile).variance > 1.0 / 12.0


class TestOptimizer:
    def test_two_modes_stay_balanced(self):
        profile = optimize_profile(2)
        np.testing.assert_allclose(profile.weights, [0.5, 0.5], atol=1e-8)

    def test_three_mode_optimum_matches_closed_form(self):
        profile = optimize_profile(3)
        variance = resolution_quadratic(profile).variance
        assert abs(variance - OPT3_VARIANCE) < 1e-9
        assert abs(profile.weights[0] - OPT3_EDGE_WEIGHT) < 1e-4
        assert profile.weights[0] == profile.weights[2]  # symmetrized exactly

    def test_three_mode_matches_brute_force_grid(self):
        # exhaustive simplex scan, step 1e-3
        k = build_resolution_matrix(3)
        step = 1000
        best = (np.inf, None)
        ij = np.array(
            [(i, j) for i in range(step + 1) for j in range(step + 1 - i)], dtype=float
        )
        w = np.column_stack([ij[:, 0], ij[:, 1], step - ij[:, 0] - ij[:, 1]]) / step
        quad = np.einsum("ni,ij,nj->n", w, k, w) / np.einsum("ni,ni->n", w, w)
        idx = int(np.argmin(quad))
        best = (quad[idx], w[idx])
        profile = optimize_profile(3)
        assert np.abs(profile.weights - best[1]).max() < 1e-3
        assert resolution_quadratic(profile).variance <= best[0] + 1e-9

    @pytest.mark.parametrize("length", [4, 8, 14, 24])
    def test_beats_equal_weights(self, length):
        variance = resolution_quadratic(optimize_profile(length)).variance
        assert variance < msi_variance_closed_form(length)

    def test_beats_squeezed_family_at_fourteen(self):
        v_opt = resolution_quadratic(optimize_profile(14)).variance
        v_tsq = resolution_quadratic(tsq_profile(14, 3.0)).variance
        assert v_opt < v_tsq

    def test_length_validated(self):
        with pytest.raises(ValueError):
            optimize_profile(1)

    def test_non_integer_length_rejected(self):
        with pytest.raises(ValueError, match=re.escape("2.5")):
            optimize_profile(2.5)
        for flag in (True, False):
            with pytest.raises(ValueError, match=repr(flag)):
                optimize_profile(flag)
        assert optimize_profile(np.int32(3)) == optimize_profile(3)

    @pytest.mark.parametrize("length", [32, 64, 96])
    def test_reaches_ground_eigenvalue(self, length):
        variance = resolution_quadratic(optimize_profile(length)).variance
        ground = np.linalg.eigvalsh(build_resolution_matrix(length))[0]
        assert variance == pytest.approx(ground, rel=1e-12)

    def test_weights_positive_and_palindromic(self):
        for length in range(2, 129):
            weights = optimize_profile(length).weights
            assert weights.min() > 0.0
            np.testing.assert_array_equal(weights, weights[::-1])
            oracle = rayleigh_quotient(full_eigh_profile(length))
            assert rayleigh_quotient(weights) == pytest.approx(oracle, rel=1e-12)

    def test_ground_vector_that_is_not_positive_raises(self, monkeypatch):
        # an eigensolver that returns a sign-changing ground vector: the optimum is not trusted
        vectors = np.array([[1.0, 0.0], [-1.0, 1.0]])
        monkeypatch.setattr(np.linalg, "eigh", lambda matrix: (np.zeros(2), vectors))
        with pytest.raises(RuntimeError, match="ground eigenvector of the 4-mode resolution matrix "
                                                "is not positive"):
            optimize_profile(4)

    @pytest.mark.parametrize("length", [32, 64, 96])
    def test_reaches_high_precision_ground_eigenvalue(self, length):
        variance = resolution_quadratic(optimize_profile(length)).variance
        ground = float(mpmath_ground_eigenvalue(length))
        assert variance == pytest.approx(ground, rel=1e-12)


class TestSweep:
    def test_family_major_rows(self):
        rows = resolution_sweep([2, 3, 4], families=("msi", "tsq"))
        assert len(rows) == 6
        assert [r.family for r in rows] == ["msi"] * 3 + ["tsq"] * 3
        assert [r.length for r in rows] == [2, 3, 4, 2, 3, 4]
        assert all(isinstance(r, SweepPoint) for r in rows)

    def test_empty_family_list_rejected(self):
        with pytest.raises(ValueError, match="families must be nonempty"):
            resolution_sweep([2, 3], families=[])

    def test_values_match_direct_evaluation(self):
        rows = resolution_sweep([2, 5], families=("msi",))
        for row in rows:
            assert row.variance == pytest.approx(msi_variance_closed_form(row.length), abs=1e-12)
            assert row.resolution == pytest.approx(math.sqrt(row.variance), rel=1e-15)

    def test_optimized_family_included(self):
        rows = resolution_sweep([4], families=("optimized",))
        assert rows[0].variance < msi_variance_closed_form(4)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            resolution_sweep([2, 3], families=("msi", "gauss"))

    def test_point_validated(self):
        with pytest.raises(ValueError, match="unknown family 'a,b'"):
            SweepPoint(family="a,b", length=3, variance=0.1)
        with pytest.raises(ValueError, match="sweep length"):
            SweepPoint(family="msi", length=1.5, variance=0.1)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, -1e-300, math.inf, True])
    @pytest.mark.parametrize("field", ["variance", "resolution"])
    def test_point_refuses_bad_values(self, field, bad):
        if field == "resolution":
            # the resolution is the square root of the variance: no value of it can be given
            with pytest.raises(TypeError, match="resolution"):
                SweepPoint(family="msi", length=3, variance=0.01, resolution=bad)
            return
        with pytest.raises(ValueError, match="sweep variance must be a finite non-negative real"):
            SweepPoint(family="msi", length=3, variance=bad)

    @pytest.mark.parametrize("zeta", [math.nan, -1.0, 0.0, math.inf, True])
    @pytest.mark.parametrize("families", [("msi",), ("optimized",), ("tsq",)])
    def test_bad_tsq_squeezing_rejected_whatever_the_families(self, families, zeta):
        with pytest.raises(ValueError, match="tsq squeezing must be a finite positive real"):
            resolution_sweep([2, 3], families, tsq_squeezing=zeta)

    def test_short_lengths_rejected(self):
        with pytest.raises(ValueError):
            resolution_sweep([1, 2])
        with pytest.raises(ValueError):
            resolution_sweep([])

    @pytest.mark.parametrize("lengths", [[2.5], ["3"], [4, 3.0], [3, True]])
    def test_non_integer_lengths_rejected(self, lengths):
        with pytest.raises(ValueError, match=re.escape(repr(lengths[-1]))):
            resolution_sweep(lengths)

    def test_numpy_integer_lengths_accepted(self):
        rows = resolution_sweep(np.arange(2, 5), families=("msi",))
        assert [r.length for r in rows] == [2, 3, 4]
        assert all(type(r.length) is int for r in rows)

    def test_builds_the_matrix_once(self, monkeypatch):
        sizes = []

        def counting(size):
            sizes.append(size)
            return build_resolution_matrix(size)

        monkeypatch.setattr(resolution, "build_resolution_matrix", counting)
        resolution_sweep([5, 2, 9, 5])
        assert sizes == [9]

    def test_builds_the_tsq_table_once(self, monkeypatch):
        calls = []

        def counting(n_terms, squeezing):
            calls.append((n_terms, squeezing))
            return states._tsq_log_weights(n_terms, squeezing)

        monkeypatch.setattr(resolution, "_tsq_log_weights", counting)
        resolution_sweep([5, 2, 9, 5], tsq_squeezing=2.5)
        assert calls == [(9, 2.5)]
        resolution_sweep([5, 2, 9], families=("msi", "optimized"))
        assert calls == [(9, 2.5)]  # no tsq row, no table


SWEEP_ORACLE = {
    "msi": lambda length, zeta: msi_profile(length),
    "tsq": lambda length, zeta: tsq_profile(length, zeta),
    "optimized": lambda length, zeta: optimize_profile(length),
}


class TestSweepProperties:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        lengths=st.lists(st.integers(min_value=2, max_value=128), min_size=1, max_size=6),
        families=st.permutations(sorted(SWEEP_ORACLE)),
        count=st.integers(min_value=1, max_value=3),
        zeta=st.floats(min_value=0.5, max_value=4.0),
    )
    # tanh(1e-3)^2n underflows to subnormals, then 0, within 128 terms; tanh(20) == 1.0
    @example(lengths=[2, 128, 60, 3], families=["tsq", "optimized", "msi"], count=3, zeta=1e-3)
    @example(lengths=[97, 2, 128], families=["tsq", "msi", "optimized"], count=3, zeta=20.0)
    def test_rows_equal_per_row_oracle(self, lengths, families, count, zeta):
        # lengths come unsorted and may repeat; each row must equal its
        # profile's own resolution_quadratic, bit for bit
        families = families[:count]
        rows = resolution_sweep(lengths, families, tsq_squeezing=zeta)
        assert [(r.family, r.length) for r in rows] == [(f, n) for f in families for n in lengths]
        for row in rows:
            report = resolution_quadratic(SWEEP_ORACLE[row.family](row.length, zeta))
            assert (row.variance, row.resolution) == (report.variance, report.resolution)


class TestResolveWorkloadOracle:
    @pytest.mark.parametrize("zeta", WORKLOAD_ZETAS)
    def test_sweep_passes_the_resolve_check(self, zeta):
        lengths = range(2, 97)
        variance = {
            (r.family, r.length): r.variance
            for r in resolution_sweep(lengths, tsq_squeezing=zeta)
        }
        for n in lengths:
            msi = variance[("msi", n)]
            assert abs(msi - msi_variance_closed_form(n)) <= SPOT_TOL
            tsq = variance[("tsq", n)]
            assert tsq == resolution_quadratic(tsq_profile(n, zeta)).variance
            assert variance[("optimized", n)] <= min(msi, tsq) * (1.0 + DOMINANCE_RTOL)
