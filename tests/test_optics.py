import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from finitekernels import (
    DataPoint,
    ShotNoiseConfig,
    build_feature_unitary,
    coincidence_rate_budget,
    feature_plate_settings,
    input_state,
    kernel_circuit,
    kernel_circuit_phase,
    kernel_cosine,
    kernel_phase_augmented,
    sample_kernel,
    sample_kernels,
)
from finitekernels import optics
from finitekernels.optics import (
    beam_divider,
    is_unitary,
    phase_interference_amplitude,
    plate_element,
)


class TestPlates:
    def test_settings_at_quarter_pi(self):
        mu_t, nu_t, mu_b, nu_b = feature_plate_settings(math.pi / 4)
        root_half = math.sqrt(0.5)
        assert mu_t == pytest.approx(math.sqrt(2.0) * root_half**3, abs=1e-14)
        assert nu_t == pytest.approx(math.sqrt(2.0) * root_half**3, abs=1e-14)
        assert mu_b == pytest.approx(math.sqrt(6.0) * root_half**3, abs=1e-14)
        assert nu_b == pytest.approx(math.sqrt(6.0) * root_half**3, abs=1e-14)

    def test_settings_power_budget(self):
        # total transmitted power sums to 2 for every coordinate
        for coord in np.linspace(-math.pi / 2, math.pi / 2, 13, endpoint=False):
            mu_t, nu_t, mu_b, nu_b = feature_plate_settings(float(coord))
            assert mu_t**2 + nu_t**2 + mu_b**2 + nu_b**2 == pytest.approx(2.0, abs=1e-12)

    def test_plate_element_unitary(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            angle = rng.uniform(0, 2 * math.pi)
            scale = rng.uniform(0.1, math.sqrt(2.0))
            mu, nu = scale * math.cos(angle), scale * math.sin(angle)
            for target in ("T", "B"):
                assert is_unitary(plate_element(mu, nu, target), tol=1e-12)

    def test_plate_element_validation(self):
        with pytest.raises(ValueError):
            plate_element(0.0, 0.0, "T")
        with pytest.raises(ValueError):
            plate_element(2.0, 2.0, "T")  # exceeds the power budget
        with pytest.raises(ValueError):
            plate_element(1.0, 0.0, "X")

    def test_beam_divider_is_involutive_permutation(self):
        bd = beam_divider()
        np.testing.assert_array_equal(bd @ bd, np.eye(4))
        assert is_unitary(bd)
        # swaps the two vertical modes, fixes the horizontal ones
        np.testing.assert_array_equal(bd @ np.array([0.0, 0.0, 1.0, 0.0]), [0, 0, 0, 1])
        np.testing.assert_array_equal(bd @ np.array([1.0, 0.0, 0.0, 0.0]), [1, 0, 0, 0])


class TestFeatureCircuit:
    @pytest.mark.parametrize("power", [1, 3])
    def test_unitarity_random_settings(self, power):
        rng = np.random.default_rng(21)
        for _ in range(50):
            dim = int(rng.integers(1, 3))
            x = rng.uniform(-math.pi / 2, math.pi / 2, dim)
            u = build_feature_unitary(x, power=power)
            dev = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
            assert dev < 1e-12

    def test_origin_prepares_first_mode(self):
        u = build_feature_unitary(np.array([0.0]), power=3)
        state = u @ input_state(1, power=3)
        expected = np.zeros(4)
        expected[0] = 1.0
        np.testing.assert_allclose(state, expected, atol=1e-14)

    def test_prepared_state_matches_binomial_amplitudes(self):
        rng = np.random.default_rng(30)
        for _ in range(30):
            coord = float(rng.uniform(-math.pi / 2, math.pi / 2))
            u = build_feature_unitary(np.array([coord]), power=3)
            state = u @ input_state(1, power=3)
            c, s = math.cos(coord), math.sin(coord)
            expected = np.array(
                [c**3, math.sqrt(3.0) * c**2 * s, math.sqrt(3.0) * c * s**2, s**3]
            )
            np.testing.assert_allclose(state, expected, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_circuit_kernel_matches_closed_form(self, dim):
        rng = np.random.default_rng(40 + dim)
        for _ in range(100):
            x = rng.uniform(-math.pi / 2, math.pi / 2, dim)
            xp = rng.uniform(-math.pi / 2, math.pi / 2, dim)
            assert abs(kernel_circuit(x, xp, power=3) - kernel_cosine(x, xp, power=3)) < 1e-10

    def test_single_power_circuit_matches_closed_form(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            x = rng.uniform(-math.pi / 2, math.pi / 2, 1)
            xp = rng.uniform(-math.pi / 2, math.pi / 2, 1)
            assert abs(kernel_circuit(x, xp, power=1) - kernel_cosine(x, xp, power=1)) < 1e-12

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.sampled_from([1, 3]), st.integers(1, 2).flatmap(lambda dim: st.lists(
        st.floats(-math.pi / 2, math.pi / 2, exclude_max=True), min_size=2 * dim, max_size=2 * dim)))
    def test_circuit_equals_cosine_power_at_random_coordinates(self, power, coords):
        x, xp = np.array(coords).reshape(2, -1)
        closed = math.prod(math.cos(a - b) ** (2 * power) for a, b in zip(x, xp))
        assert kernel_circuit(x, xp, power=power) == pytest.approx(closed, abs=1e-10)

    def test_self_kernel_is_one(self):
        x = np.array([0.37, -1.1])
        assert kernel_circuit(x, x, power=3) == pytest.approx(1.0, abs=1e-12)

    def test_unsupported_power_rejected(self):
        with pytest.raises(ValueError):
            build_feature_unitary(np.array([0.1]), power=2)

    def test_dimension_capped_at_two_photons(self):
        with pytest.raises(ValueError):
            build_feature_unitary(np.array([0.1, 0.2, 0.3]), power=3)


class TestPhaseStage:
    def test_amplitude_endpoints(self):
        assert phase_interference_amplitude(0.3, 0.3) == pytest.approx(1.0, abs=1e-15)
        assert abs(phase_interference_amplitude(math.pi / 2, 0.0)) == pytest.approx(0.0, abs=1e-15)
        assert abs(phase_interference_amplitude(math.pi / 4, 0.0)) ** 2 == pytest.approx(
            0.5, abs=1e-14
        )

    def test_phase_kernel_matches_closed_form(self):
        rng = np.random.default_rng(50)
        for _ in range(40):
            a = DataPoint(
                rng.uniform(-math.pi / 2, math.pi / 2, 2),
                phases=np.array([0.0, rng.uniform(-math.pi, math.pi)]),
            )
            b = DataPoint(
                rng.uniform(-math.pi / 2, math.pi / 2, 2),
                phases=np.array([0.0, rng.uniform(-math.pi, math.pi)]),
            )
            circ = kernel_circuit_phase(a, b, power=3)
            closed = kernel_phase_augmented(a, b, power=3)
            assert abs(circ - closed) < 1e-10

    def test_quarter_turn_extinguishes_coincidences(self):
        a = DataPoint(np.array([0.3, -0.2]), phases=np.array([0.0, math.pi / 2]))
        b = DataPoint(np.array([0.3, -0.2]), phases=np.array([0.0, 0.0]))
        assert kernel_circuit_phase(a, b) == pytest.approx(0.0, abs=1e-14)

    def test_eighth_turn_halves_identical_points(self):
        a = DataPoint(np.array([0.3, -0.2]), phases=np.array([0.0, math.pi / 4]))
        b = DataPoint(np.array([0.3, -0.2]), phases=np.array([0.0, 0.0]))
        assert kernel_circuit_phase(a, b) == pytest.approx(0.5, abs=1e-12)


class TestShotNoise:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ShotNoiseConfig(events_per_point=0)
        with pytest.raises(ValueError):
            ShotNoiseConfig(fidelity=0.0)
        with pytest.raises(ValueError):
            ShotNoiseConfig(fidelity=1.2)
        with pytest.raises(ValueError):
            ShotNoiseConfig(seed=-1)
        with pytest.raises(ValueError):
            ShotNoiseConfig(background=1.5)

    @pytest.mark.parametrize(
        "field, value",
        [("events_per_point", 2.5), ("seed", 1.5), ("seed", 2**32), ("seed", 2**70 + 3),
         ("events_per_point", True), ("events_per_point", False), ("seed", True),
         ("seed", False)],
    )
    def test_non_integer_or_aliasing_values_rejected(self, field, value):
        # a seed of 2**32 or more is split into several uint32 words and aliases other streams
        with pytest.raises(ValueError):
            ShotNoiseConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [("fidelity", True, r"fidelity must lie in \(0, 1\]"),
         ("background", False, r"background must lie in \[0, 1\]"),
         ("fidelity", np.True_, r"fidelity must lie in \(0, 1\]"),
         ("background", np.False_, r"background must lie in \[0, 1\]")],
        ids=["fidelity", "background", "fidelity-numpy", "background-numpy"],
    )
    def test_bool_probability_rejected(self, field, value, message):
        # True, Python's or numpy's, would run as fidelity 1.0 and False as background 0.0
        with pytest.raises(ValueError, match=message):
            ShotNoiseConfig(**{field: value})

    def test_numbers_stored_as_python_scalars(self):
        cfg = ShotNoiseConfig(np.int64(150), np.float32(0.5), np.uint32(4), np.int8(0))
        assert [type(v) for v in vars(cfg).values()] == [int, float, int, float]
        assert vars(cfg) == {"events_per_point": 150, "fidelity": 0.5, "seed": 4,
                             "background": 0.0}

    def test_deterministic_per_key(self):
        cfg = ShotNoiseConfig(events_per_point=500, seed=3)
        e1, s1 = sample_kernel(0.4, cfg, key=(2, 5))
        e2, s2 = sample_kernel(0.4, cfg, key=(2, 5))
        assert e1 == e2
        assert s1 == s2

    def test_key_order_matters(self):
        cfg = ShotNoiseConfig(events_per_point=100_000, seed=3)
        e_ab, _ = sample_kernel(0.4, cfg, key=(2, 5))
        e_ba, _ = sample_kernel(0.4, cfg, key=(5, 2))
        assert e_ab != e_ba

    def test_estimate_within_unit_interval(self):
        cfg = ShotNoiseConfig(events_per_point=50, seed=1)
        for kappa in (0.0, 0.3, 1.0):
            est, signal = sample_kernel(kappa, cfg, key=(int(kappa * 10),))
            assert 0.0 <= est <= 1.0
            assert type(signal) is int and 0 <= signal <= 50 and est == signal / 50

    def test_kappa_domain_enforced(self):
        cfg = ShotNoiseConfig()
        with pytest.raises(ValueError):
            sample_kernel(1.2, cfg)
        with pytest.raises(ValueError):
            sample_kernel(-0.1, cfg)
        with pytest.raises(ValueError):
            sample_kernel(0.5, cfg, key=(-1,))

    def test_key_entries_must_fit_uint32(self):
        # a wider entry is split into uint32 words: (2**32,) would draw the stream of (0, 1)
        with pytest.raises(ValueError):
            sample_kernel(0.5, ShotNoiseConfig(), key=(2**32,))

    @pytest.mark.parametrize("key", [5, ((1, 2),)], ids=["scalar", "nested"])
    def test_key_must_be_one_flat_row(self, key):
        with pytest.raises(ValueError, match="stream key must be a flat sequence of integers"):
            sample_kernel(0.5, ShotNoiseConfig(), key=key)

    def test_unbiased_at_full_fidelity(self):
        cfg = ShotNoiseConfig(events_per_point=2000, fidelity=1.0, seed=7)
        ests = np.array([sample_kernel(0.3, cfg, key=(i,))[0] for i in range(3000)])
        se = math.sqrt(0.3 * 0.7 / 2000) / math.sqrt(3000)
        assert abs(ests.mean() - 0.3) < 4 * se

    def test_background_shifts_the_mean(self):
        # at kappa=0 the detected rate is (1 - f) * background
        cfg = ShotNoiseConfig(events_per_point=2000, fidelity=0.9, background=0.5, seed=11)
        ests = np.array([sample_kernel(0.0, cfg, key=(i,))[0] for i in range(2000)])
        assert ests.mean() == pytest.approx(0.05, abs=0.005)

    def test_variance_scales_inversely_with_events(self):
        rows = []
        for events in (100, 1000, 10_000, 100_000):
            cfg = ShotNoiseConfig(events_per_point=events, fidelity=1.0, seed=9)
            vals = np.array([sample_kernel(0.3, cfg, key=(j,))[0] for j in range(800)])
            rows.append((math.log(events), math.log(vals.var(ddof=1))))
        xs, ys = np.array(rows).T
        slope = np.polyfit(xs, ys, 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)


BATCH_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
KEY_ENTRY = st.integers(min_value=0, max_value=2**32 - 1)
KAPPA = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(min_value=0.0, max_value=1.0))


@st.composite
def sampling_batches(draw):
    """(config, kappas, keys) with runs of repeated kappas and a fixed key width."""
    config = ShotNoiseConfig(
        events_per_point=draw(st.one_of(st.sampled_from([1, 29, 30, 31, 10_000]), st.integers(1, 10_000))),
        fidelity=draw(st.sampled_from([1.0, 0.98, 0.5])),
        seed=draw(st.sampled_from([0, 5, 2**32 - 1])),
    )
    runs = draw(st.lists(st.tuples(KAPPA, st.integers(1, 4)), min_size=1, max_size=6))
    kappas = [kappa for kappa, repeat in runs for _ in range(repeat)]
    width = draw(st.integers(0, 6))
    rows = st.lists(KEY_ENTRY, min_size=width, max_size=width)
    keys = draw(st.lists(rows, min_size=len(kappas), max_size=len(kappas)))
    return config, kappas, keys


philox = optics._philox_block


def scalar_sampling_loop(kappas, config, keys):
    return np.array([sample_kernel(k, config, key=tuple(row))[0] for k, row in zip(kappas, keys)])


class TestSampleKernels:
    @BATCH_PROPERTY
    @given(sampling_batches())
    # inversion where min(p, 1 - p) * events <= 30, BTRS above; repeats reuse the set-up
    @example((ShotNoiseConfig(10, 1.0, 0), [0.3, 0.3, 0.3], [[1], [2], [3]]))
    @example((ShotNoiseConfig(10_000, 0.98, 2**32 - 1), [0.5] * 3 + [0.2] * 2, [[2**32 - 1, 0]] * 5))
    # n r = 29.7, 30 and 30.3 for p below 1/2, then 29.7 and 30.3 for p above it
    @example((ShotNoiseConfig(3000, 1.0, 5), [0.0099, 0.01, 0.0101, 0.9901, 0.9899], [[k] for k in range(5)]))
    @example((ShotNoiseConfig(2**53, 1.0, 2), [0.0, 1e-15, 4e-15, 0.3, 0.5, 1.0], [[k] for k in range(6)]))
    def test_equals_scalar_loop_bitwise(self, batch):
        config, kappas, keys = batch
        keys = np.array(keys, dtype=np.int64)
        batched = sample_kernels(kappas, config, keys)
        assert np.array_equal(batched, scalar_sampling_loop(kappas, config, keys))

    @BATCH_PROPERTY
    @given(sampling_batches(), st.data())
    def test_entry_independent_of_its_batch(self, batch, data):
        config, kappas, keys = batch
        kappas, keys = np.array(kappas), np.array(keys, dtype=np.int64)
        order = data.draw(st.permutations(range(kappas.size)))
        subset = data.draw(st.lists(st.integers(0, kappas.size - 1), min_size=1, max_size=8))
        batched = sample_kernels(kappas, config, keys)
        assert np.array_equal(sample_kernels(kappas[order], config, keys[order]), batched[order])
        assert np.array_equal(sample_kernels(kappas[subset], config, keys[subset]), batched[subset])

    def test_many_blocks_equal_scalar_loop(self):
        config = ShotNoiseConfig(events_per_point=2500, seed=9)
        rng = np.random.default_rng(0)
        kappas = rng.uniform(0.0, 1.0, 2500)
        keys = np.stack([np.full(2500, 2), np.arange(2500) // 50, np.arange(2500) % 50], axis=1)
        batched = sample_kernels(kappas, config, keys)
        assert np.array_equal(batched, scalar_sampling_loop(kappas, config, keys))

    def test_golden_stream_pins(self):
        # signal counts fixed by the Philox stream contract and the draw together
        config = ShotNoiseConfig(2500, 0.98, 0)
        pins = [(0.5, (0, 1, 2), 1246), (1.0, (0, 3, 3), 2483), (0.0, (2, 7, 11), 30)]
        for kappa, key, signal in pins:
            assert sample_kernel(kappa, config, key=key)[1] == signal
        kappas, keys, signals = zip(*pins)
        batched = sample_kernels(kappas, config, np.array(keys))
        assert np.array_equal(batched, np.array(signals) / 2500)

    def test_empty_batch(self):
        batched = sample_kernels(np.empty(0), ShotNoiseConfig(), np.empty((0, 3), dtype=np.int64))
        assert batched.shape == (0,)

    @pytest.mark.parametrize("kappa", [math.nan, -0.1, 1.2])
    def test_kappa_domain_enforced(self, kappa):
        with pytest.raises(ValueError):
            sample_kernels([0.5, kappa], ShotNoiseConfig(), [[0, 1], [0, 2]])

    @pytest.mark.parametrize("entry", [-1, 2**32])
    def test_key_entries_must_fit_uint32(self, entry):
        with pytest.raises(ValueError):
            sample_kernels([0.5, 0.5], ShotNoiseConfig(), [[0, 1], [0, entry]])

    def test_one_key_row_per_kappa(self):
        with pytest.raises(ValueError):
            sample_kernels([0.5, 0.5], ShotNoiseConfig(), [[0, 1]])

    @pytest.mark.parametrize("width", range(8))
    def test_keys_hold_at_most_six_entries(self, width):
        key = tuple(range(1, width + 1))
        if width <= 6:
            sample_kernel(0.5, ShotNoiseConfig(), key=key)
            sample_kernels([0.5], ShotNoiseConfig(), [key])
            return
        with pytest.raises(ValueError, match="at most 6"):
            sample_kernel(0.5, ShotNoiseConfig(), key=key)
        with pytest.raises(ValueError, match="at most 6"):
            sample_kernels([0.5], ShotNoiseConfig(), [key])

    def test_zero_padded_keys_draw_distinct_streams(self):
        # the key width is part of the Philox key, so trailing zeros select another stream
        config = ShotNoiseConfig(events_per_point=100_000, fidelity=1.0, seed=5)
        keys = [(), (0,), (7,), (7, 0), (7, 0, 0)]
        estimates = {sample_kernel(0.4, config, key=key)[0] for key in keys}
        assert len(estimates) == len(keys)


def large_kappa_batch(rng, size):
    """Runs of kappas at 0, at 1, near 0, near 1 and anywhere in between."""
    pool = np.stack([np.zeros(size), np.ones(size), rng.uniform(0.0, 1e-3, size),
                     1.0 - rng.uniform(0.0, 1e-3, size), rng.uniform(0.0, 1.0, size)])
    kinds = np.repeat(rng.integers(0, len(pool), size), rng.integers(1, 9, size))[:size]
    return pool[kinds, np.arange(size)]


def binomial_pmf(n, p):
    """binomial(n, p)'s pmf at 0..n, from math.lgamma."""
    return np.array([math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                              + k * math.log(p) + (n - k) * math.log1p(-p)) for k in range(n + 1)])


def sampled_counts(events, p, draws, seed):
    """``draws`` signal counts at success probability p, one per key (0,), (1), ..."""
    config = ShotNoiseConfig(events_per_point=events, fidelity=1.0, seed=seed)
    return np.rint(sample_kernels(np.full(draws, p), config, np.arange(draws)[:, None]) * events)


class TestArraySampler:
    """The array code behind sample_kernels: its Philox blocks, its counts' law, and 2**53 events."""

    @pytest.mark.parametrize("width", range(7))
    def test_philox_block_equals_numpy(self, width):
        rng = np.random.default_rng(width)
        top = 2**64 - 1
        counters = [[0, 0, 0, 0], [top, 0, 0, 0], [top, top, 5, 0], [top, top, top, 7], [top] * 4]
        counters += rng.integers(0, 2**64 - 1, (20, 4), dtype=np.uint64, endpoint=True).tolist()
        for seed in (0, 5, 2**32 - 1):
            key = [seed, width]
            # numpy steps the 256-bit counter before it makes a block
            stepped = [(sum(w << 64 * i for i, w in enumerate(c)) + 1) % 2**256 for c in counters]
            rows = np.array([[(s >> 64 * i) & top for i in range(4)] for s in stepped], dtype=np.uint64)
            expected = [np.random.Philox(counter=np.array(c, dtype=np.uint64), key=key).random_raw(4)
                        for c in counters]
            assert np.array_equal(optics._philox_block(rows, key).T, np.array(expected))

    @BATCH_PROPERTY
    @given(sampling_batches(), st.integers(1, 4))
    def test_array_path_equals_scalar_loop_bitwise(self, batch, block):
        config, kappas, keys = batch
        keys = np.array(keys, dtype=np.int64)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(optics, "_SAMPLE_BLOCK", block)  # small batches span several passes too
            batched = sample_kernels(kappas, config, keys)
        assert np.array_equal(batched, scalar_sampling_loop(kappas, config, keys))

    @pytest.mark.parametrize("events", [1, 30, 31, 2500, 10_000])
    def test_large_batches_equal_scalar_loop(self, events):
        # wider than one pass of the array code: checked where the passes meet and at random
        rng = np.random.default_rng(events)
        size, edge = optics._SAMPLE_BLOCK + 2000, optics._SAMPLE_BLOCK
        checked = np.concatenate([np.arange(edge - 100, edge + 100), rng.choice(size, 200, replace=False)])
        for fidelity in (1.0, 0.98, 0.5):
            config = ShotNoiseConfig(events_per_point=events, fidelity=fidelity, seed=events % 7)
            kappas = large_kappa_batch(rng, size)
            keys = rng.integers(0, 2**32, (size, 3))
            batched = sample_kernels(kappas, config, keys)[checked]
            assert np.array_equal(batched, scalar_sampling_loop(kappas[checked], config, keys[checked]))

    @pytest.mark.parametrize("events", [2500, 10**6, 2**53])
    def test_streams_past_the_batched_tail_equal_scalar_loop(self, events):
        # one block per tail pass: about 1 in 2,500 BTRS streams rejects the pairs of its
        # first two blocks and so needs a third Philox pass
        rng = np.random.default_rng(events % 1009)
        kappas, keys = rng.uniform(0.05, 0.95, 8000), rng.integers(0, 2**32, (8000, 2))
        config = ShotNoiseConfig(events_per_point=events, fidelity=0.98, seed=3)
        passes = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(optics, "_TAIL_BLOCKS", 1)
            patch.setattr(optics, "_philox_block",
                          lambda counters, key: passes.append(len(counters)) or philox(counters, key))
            batched = sample_kernels(kappas, config, keys)
        assert len(passes) >= 3 and passes[0] == 8000 and 0 not in passes
        assert np.array_equal(batched, scalar_sampling_loop(kappas, config, keys))

    @pytest.mark.parametrize("events, kappas", [(30, [0.0, 0.3, 0.7, 1.0]), (2500, [0.5])])
    def test_batch_done_in_its_first_block_makes_one_philox_pass(self, events, kappas):
        # inversion alone, and one BTRS stream accepted on its first pair (a pinned stream)
        passes = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(optics, "_philox_block",
                          lambda counters, key: passes.append(len(counters)) or philox(counters, key))
            sample_kernels(kappas, ShotNoiseConfig(events, 0.98, 0), [[0, 1, 2]] * len(kappas))
        assert passes == [len(kappas)]

    def test_inversion_that_spends_every_count(self):
        # a uniform just below 1 outlasts the rounded pmf sum, so the search reaches
        # count n, where the pmf becomes 0, and stops there as the scalar draw does
        u = 1.0 - 2.0**-53
        for events in (31, 100, 2500, 2**53):
            r = np.linspace(0.5, 30.0, 60) / events
            r = r[r <= 0.5]
            for uniform in (u, 0.999999, 0.5):
                want = [optics._binomial(events, float(x), lambda: uniform) for x in r]
                assert np.array_equal(optics._inversion(events, r, np.full(r.size, uniform)), want)

    def test_events_up_to_two_to_the_53(self):
        kappas, keys = [0.0, 1e-15, 4e-15, 0.3, 0.5, 1.0 - 4e-15, 1.0], [[k] for k in range(7)]
        for fidelity in (1.0, 0.98):
            config = ShotNoiseConfig(events_per_point=2**53, fidelity=fidelity, seed=2)
            batched = sample_kernels(kappas, config, keys)
            assert np.array_equal(batched, scalar_sampling_loop(kappas, config, np.array(keys)))

    @pytest.mark.parametrize("events, p", [(61, 0.5), (3000, 0.0101), (2500, 0.3), (31, 0.99)])
    def test_counts_follow_the_binomial_pmf(self, events, p):
        # BTRS at n r = 30.5, 30.3 and 750; inversion, then n minus the count, at 0.31
        draws = 50_000
        expected = draws * binomial_pmf(events, p)
        # each tail pooled into the last bin that expects at least 5 draws
        low, high = np.flatnonzero(expected >= 5.0)[[0, -1]]
        counts = np.clip(sampled_counts(events, p, draws, seed=1).astype(int), low, high)
        observed = np.bincount(counts - low, minlength=high - low + 1)
        expected = np.concatenate([[expected[: low + 1].sum()], expected[low + 1 : high],
                                   [expected[high:].sum()]])
        chi2 = np.sum((observed - expected) ** 2 / expected)
        # the chi-square quantile of tail 1e-6 (z = 4.75), by Wilson and Hilferty
        df = observed.size - 1
        assert chi2 < df * (1.0 - 2.0 / (9 * df) + 4.75 * math.sqrt(2.0 / (9 * df))) ** 3

    @pytest.mark.parametrize("p", [4e-15, 0.3])
    def test_moments_at_two_to_the_53(self, p):
        # within 4.5 standard errors of the mean and of the variance: a bound in log k! instead
        # of in k - m loses every digit there and lands outside
        draws, events = 400_000, 2**53
        counts = sampled_counts(events, p, draws, seed=4)
        variance = events * p * (1.0 - p)
        assert abs(counts.mean() - events * p) < 4.5 * math.sqrt(variance / draws)
        assert abs(counts.var(ddof=1) / variance - 1.0) < 4.5 * math.sqrt(2.0 / draws)

    @pytest.mark.parametrize("events", [2**53 + 1, 2**63, 2**64])
    def test_events_above_two_to_the_53_rejected(self, events):
        with pytest.raises(ValueError, match=rf"events_per_point must be an integer in \[1, {2**53}\]"):
            ShotNoiseConfig(events_per_point=events)


class TestRateBudget:
    def test_protocol_scale(self):
        # 780 pairs at 250 cps with 2500 events each: 7800 seconds of beam time
        assert coincidence_rate_budget(780, 250.0, 2500) == pytest.approx(7800.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            coincidence_rate_budget(-1, 250.0, 100)
        with pytest.raises(ValueError):
            coincidence_rate_budget(10, 0.0, 100)
        with pytest.raises(ValueError):
            coincidence_rate_budget(10, 250.0, -5)
