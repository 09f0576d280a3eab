"""Time-correlation models, synthetic histograms, fits."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biphoton import timecorr
from biphoton.csvio import FileFormatError
from biphoton.timecorr import (
    DEFAULT_DELTA,
    FIGURE_PRESETS,
    BeatModelParams,
    CoincidenceHistogram,
    FitConvergenceError,
    FitDegenerateError,
    SinglePathParams,
    _bin_means,
    _model_values,
    _scaled_svd,
    estimate_single_init,
    fit_beats,
    fit_single,
    g2_beats,
    g2_single,
    read_histogram_csv,
    simulate_histogram,
    write_histogram_csv,
)
from conftest import g2_beats_from_amplitudes


def random_beat_params(rng: np.random.Generator) -> BeatModelParams:
    return BeatModelParams(
        g0=rng.uniform(0.1, 3.0),
        tau_x=rng.uniform(1.0, 20.0),
        tau_y=rng.uniform(1.0, 20.0),
        r=rng.uniform(0.0, 3.0),
        phi=rng.uniform(-math.pi, math.pi),
        delta=rng.uniform(0.1, 5.0),
        background=rng.uniform(0.0, 20.0),
    )


class TestSinglePathModel:
    def test_peak_value(self):
        p = SinglePathParams(g0=100.0, tau_rise=3.1, tau_decay=5.6, background=7.0)
        assert g2_single(0.0, p) == pytest.approx(107.0, abs=1e-12)

    def test_rise_and_decay_constants(self):
        p = SinglePathParams(g0=100.0, tau_rise=3.1, tau_decay=5.6)
        assert g2_single(-3.1, p) == pytest.approx(100.0 / math.e, abs=1e-10)
        assert g2_single(5.6, p) == pytest.approx(100.0 / math.e, abs=1e-10)

    def test_continuous_at_zero(self):
        p = SinglePathParams(g0=50.0, tau_rise=2.0, tau_decay=9.0, background=1.0)
        assert g2_single(-1e-12, p) == pytest.approx(g2_single(0.0, p), abs=1e-9)

    def test_vectorized(self):
        p = SinglePathParams(g0=10.0, tau_rise=1.0, tau_decay=2.0)
        t = np.array([-2.0, 0.0, 4.0])
        out = g2_single(t, p)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SinglePathParams(g0=0.0, tau_rise=1.0, tau_decay=1.0)
        with pytest.raises(ValueError):
            SinglePathParams(g0=1.0, tau_rise=-1.0, tau_decay=1.0)

    @pytest.mark.parametrize("field", ["g0", "tau_rise", "tau_decay", "background"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_field_named(self, field, value):
        values = {"g0": 1.0, "tau_rise": 1.0, "tau_decay": 2.0, "background": 0.5, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SinglePathParams(**values)


class TestBeatModel:
    @pytest.mark.parametrize("field", ["g0", "tau_x", "tau_y", "r", "phi", "delta", "background"])
    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_non_finite_field_named(self, field, value):
        values = {"g0": 1.0, "tau_x": 5.6, "tau_y": 13.1, "r": 1.0, "phi": 0.3, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            BeatModelParams(**values)

    def test_single_path_limit(self):
        p = BeatModelParams(g0=5.0, tau_x=5.6, tau_y=13.1, r=0.0, phi=0.0,
                            background=2.0)
        for dt in (0.0, 1.0, 7.3, 20.0):
            expected = 25.0 * math.exp(-dt / 5.6) + 2.0
            assert g2_beats(dt, p) == pytest.approx(expected, rel=1e-12)

    def test_background_only_before_zero(self):
        p = BeatModelParams(g0=5.0, tau_x=5.6, tau_y=13.1, r=1.0, phi=0.3,
                            background=4.5)
        assert g2_beats(-0.001, p) == 4.5
        assert g2_beats(-30.0, p) == 4.5

    def test_minima_spacing_equals_beat_period(self):
        model = FIGURE_PRESETS["fig3"].model
        f = lambda t: g2_beats(t, model)
        t = np.linspace(0.5, 28.0, 28000)
        v = f(t)
        minima = []
        for i in range(1, len(t) - 1):
            if v[i] < v[i - 1] and v[i] < v[i + 1]:
                # vertex of the parabola through the grid minimum and its neighbours
                h = t[i + 1] - t[i]
                curvature = v[i - 1] - 2.0 * v[i] + v[i + 1]
                minima.append(t[i] + 0.5 * h * (v[i - 1] - v[i + 1]) / curvature)
        spacings = np.diff(minima)
        assert len(spacings) >= 4
        assert np.max(np.abs(spacings - 2 * math.pi / model.delta)) < 0.05

    def test_damped_regime_contrast(self):
        # zero-delay modulation depth: the cross term over the two-path envelope
        model = FIGURE_PRESETS["fig4a"].model
        envelope = model.g0**2 * (1 + model.r**2)
        contrast = abs(g2_beats(0.0, model) - model.background - envelope) / envelope
        assert contrast == pytest.approx(2 * model.r / (1 + model.r**2), rel=1e-12)
        assert contrast <= 0.06

    def test_antiphase_regimes(self):
        b = FIGURE_PRESETS["fig4b"].model
        c = FIGURE_PRESETS["fig4c"].model
        assert math.cos(b.phi) > 0 and math.cos(c.phi) < 0
        # cosine terms at dt = 0+ have opposite sign
        cos_b = g2_beats(0.0, b) - b.g0**2 * (1 + b.r**2) - b.background
        cos_c = g2_beats(0.0, c) - c.g0**2 * (1 + c.r**2) - c.background
        assert cos_b > 0 > cos_c


class TestAmplitudeOracle:
    def test_identity_on_random_parameters(self):
        rng = np.random.default_rng(44)
        for _ in range(1000):
            p = random_beat_params(rng)
            dt = rng.uniform(-10.0, 40.0)
            omega = rng.uniform(0.0, 10.0)
            a = g2_beats(dt, p)
            b = g2_beats_from_amplitudes(dt, p, omega_idler=omega)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_background_before_zero(self):
        p = BeatModelParams(g0=2.0, tau_x=3.0, tau_y=7.0, r=0.5, phi=0.1,
                            background=3.3)
        assert g2_beats_from_amplitudes(-5.0, p) == 3.3

    def test_complete_destructive_interference(self):
        p = BeatModelParams(g0=3.0, tau_x=4.0, tau_y=4.0, r=1.0, phi=math.pi,
                            delta=1.0, background=0.7)
        assert g2_beats_from_amplitudes(0.0, p) == pytest.approx(0.7, abs=1e-12)
        assert g2_beats(0.0, p) == pytest.approx(0.7, abs=1e-12)


class TestCoincidenceHistogram:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["bin_width", "t_start", "counts"])
    def test_non_finite_value_names_field(self, field, value):
        # the sign check alone lets NaN through: np.any(counts < 0) is False for it
        kwargs = {"bin_width": 0.25, "t_start": -5.0, "counts": np.full(140, 10.0)}
        if field == "counts":
            kwargs["counts"][70] = value
        else:
            kwargs[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            CoincidenceHistogram(**kwargs)


class TestSimulateHistogram:
    def test_vanishing_amplitude_gives_empty_histogram(self):
        model = SinglePathParams(g0=1e-12, tau_rise=3.0, tau_decay=5.0)
        hist = simulate_histogram(model, 1.0, (-10.0, 20.0), seed=1)
        assert np.all(hist.counts == 0)

    def test_bin_means_match_law_of_large_numbers(self):
        model = SinglePathParams(g0=200.0, tau_rise=3.1, tau_decay=5.6,
                                 background=4.0)
        mu = _bin_means(model, -10.0, 30, 1.0)
        acc = np.zeros_like(mu)
        n_seeds = 100
        for seed in range(n_seeds):
            acc += simulate_histogram(model, 1.0, (-10.0, 20.0), seed=seed).counts
        mean = acc / n_seeds
        tol = 5.0 * np.sqrt(mu / n_seeds) + 1e-9
        assert np.all(np.abs(mean - mu) <= tol)

    def test_seeded_determinism(self):
        model = FIGURE_PRESETS["fig3"].model
        a = simulate_histogram(model, 0.25, (-5.0, 30.0), seed=5)
        b = simulate_histogram(model, 0.25, (-5.0, 30.0), seed=5)
        assert np.array_equal(a.counts, b.counts)

    def test_bin_averaging_differs_from_center_evaluation(self):
        # with 1 ns bins and a 5.6 ns decay, center evaluation is biased
        model = SinglePathParams(g0=1000.0, tau_rise=3.1, tau_decay=5.6)
        mu = _bin_means(model, 0.0, 10, 1.0)
        centers = np.arange(10) + 0.5
        center_vals = g2_single(centers, model)
        assert np.max(np.abs(mu - center_vals) / center_vals) > 1e-3


class TestBinMeans:
    @pytest.mark.parametrize("name", sorted(FIGURE_PRESETS))
    def test_match_fine_midpoint_average(self, name):
        preset = FIGURE_PRESETS[name]
        model, width, t_start = preset.model, preset.bin_width, preset.t_range[0]
        n_bins = int(round((preset.t_range[1] - t_start) / width))
        density = g2_single if isinstance(model, SinglePathParams) else g2_beats
        t = t_start + width * (np.arange(n_bins)[:, None] + (np.arange(4000) + 0.5) / 4000)
        fine = density(t, model).mean(axis=1)
        assert np.allclose(_bin_means(model, t_start, n_bins, width), fine, rtol=1e-7, atol=0.0)

    @pytest.mark.parametrize("model", [
        SinglePathParams(g0=1500.0, tau_rise=3.1, tau_decay=5.6, background=8.0),
        BeatModelParams(g0=20.0, tau_x=5.6, tau_y=13.1, r=0.8, phi=0.7, background=5.0),
    ])
    def test_jacobian_matches_central_differences(self, model):
        means, fields, values = _model_values(model)
        names = list(fields) + ["offset"]
        edges = -5.0 + 0.37 * np.arange(81)
        _, jac = means(edges, 0.37, values, names)
        for j, name in enumerate(names):
            if name == "offset":
                h = 1e-6
                plus, minus = means(edges - h, 0.37, values), means(edges + h, 0.37, values)
            else:
                h = 1e-6 * abs(values[j])
                step = np.eye(len(values))[j] * h
                plus, minus = means(edges, 0.37, values + step), means(edges, 0.37, values - step)
            numeric = (plus - minus) / (2.0 * h)
            assert np.allclose(jac[:, j], numeric, rtol=1e-6, atol=1e-6 * np.abs(numeric).max()), name

    @pytest.mark.parametrize("name", sorted(FIGURE_PRESETS))
    def test_bits_match_reference_arithmetic(self, name):
        # The bin means are the Poisson means of simulate-g2, so a moved bit can
        # move a draw.  The reference fixes the order of every rounding; it is
        # compared instead of a digest because numpy's float64 exp itself
        # differs in the last bit between CPUs (AVX-512 against libm).
        preset = FIGURE_PRESETS[name]
        m, width, t_start = preset.model, preset.bin_width, preset.t_range[0]
        n_bins = int(round((preset.t_range[1] - t_start) / width))
        edges = t_start + width * np.arange(n_bins + 1)
        if isinstance(m, SinglePathParams):
            rise = np.exp(np.minimum(edges, 0.0) / m.tau_rise)
            fall = np.exp(-np.maximum(edges, 0.0) / m.tau_decay)
            reference = m.g0 * ((m.tau_rise * np.diff(rise) - m.tau_decay * np.diff(fall)) / width) + m.background
        else:
            t = np.maximum(edges, 0.0)
            k = 0.5 / m.tau_x + 0.5 / m.tau_y - 1j * m.delta
            cross = cmath.exp(1j * m.phi) * np.diff(np.exp(-k * t)) / -k
            shape = (-m.tau_x * np.diff(np.exp(-t / m.tau_x))
                     - m.r * m.r * m.tau_y * np.diff(np.exp(-t / m.tau_y)) + 2.0 * m.r * cross.real) / width
            reference = (m.g0 * m.g0) * shape + m.background
        assert np.array_equal(_bin_means(m, t_start, n_bins, width), reference)

    @pytest.mark.parametrize("offset", [False, True])
    @pytest.mark.parametrize("model", [
        SinglePathParams(g0=1500.0, tau_rise=3.1, tau_decay=5.6, background=8.0),
        BeatModelParams(g0=20.0, tau_x=5.6, tau_y=13.1, r=0.8, phi=0.7, background=5.0),
    ])
    def test_jacobian_of_any_names_is_columns_of_the_full_one(self, model, offset):
        means, fields, values = _model_values(model)
        names = list(fields) + (["offset"] if offset else [])
        edges = -5.0 + 0.37 * np.arange(81)
        mu, full = means(edges, 0.37, values, names)
        rng = np.random.default_rng(4)
        subsets = [(name,) for name in names] + [("background", "g0")]
        subsets += [tuple(rng.permutation(names)[:size]) for size in range(2, len(names) + 1)]
        if offset:
            subsets.append(("offset", fields[2], "g0"))  # tau_decay or tau_y
        for subset in subsets:
            sub_mu, jac = means(edges, 0.37, values, subset)
            assert np.array_equal(sub_mu, mu)
            assert np.array_equal(jac, full[:, [names.index(name) for name in subset]]), subset


def noiseless_histogram(model, bin_width, t_range) -> CoincidenceHistogram:
    t_lo, t_hi = t_range
    n_bins = int(round((t_hi - t_lo) / bin_width))
    mu = _bin_means(model, t_lo, n_bins, bin_width)
    return CoincidenceHistogram(bin_width, t_lo, mu)


class TestFitSingle:
    def test_noiseless_exact_recovery(self):
        truth = SinglePathParams(g0=1500.0, tau_rise=3.1, tau_decay=5.6,
                                 background=8.0)
        hist = noiseless_histogram(truth, 1.0, (-25.0, 50.0))
        init = SinglePathParams(g0=1000.0, tau_rise=2.0, tau_decay=8.0,
                                background=2.0)
        fit = fit_single(hist, init)
        assert fit.params.g0 == pytest.approx(truth.g0, rel=1e-6)
        assert fit.params.tau_rise == pytest.approx(truth.tau_rise, rel=1e-6)
        assert fit.params.tau_decay == pytest.approx(truth.tau_decay, rel=1e-6)
        assert fit.params.background == pytest.approx(truth.background, rel=1e-6)
        assert fit.chi2_reduced < 1e-12

    @pytest.mark.parametrize(
        "tau_rise,tau_decay,t_max,reported_sigma",
        [(3.1, 5.6, 50.0, 0.1), (3.3, 13.1, 75.0, 0.2)],
    )
    def test_recovers_published_decay_constants(self, tau_rise, tau_decay, t_max,
                                                reported_sigma):
        truth = SinglePathParams(g0=2000.0, tau_rise=tau_rise, tau_decay=tau_decay,
                                 background=10.0)
        hist = simulate_histogram(truth, 1.0, (-25.0, t_max), seed=3)
        fit = fit_single(hist, estimate_single_init(hist))
        assert fit.params.tau_decay == pytest.approx(tau_decay, rel=0.02)
        assert fit.params.tau_rise == pytest.approx(tau_rise, rel=0.15)
        # reported 1-sigma is the same order as the published uncertainty
        assert reported_sigma / 10 <= fit.sigmas["tau_decay"] <= reported_sigma * 10

    @settings(deadline=None, max_examples=300)
    @given(counts=st.lists(st.integers(0, 5000), min_size=2, max_size=300),
           jitter=st.floats(-0.5, 0.5))
    def test_lower_decile_is_numpy_percentile_to_the_bit(self, counts, jitter):
        values = np.asarray(counts, dtype=float) + jitter * (np.arange(len(counts)) % 3)
        expected = float(np.percentile(values, 10))
        assert timecorr._lower_decile(values).hex() == expected.hex()

    def test_histogram_must_cover_zero(self):
        truth = SinglePathParams(g0=100.0, tau_rise=3.0, tau_decay=5.0)
        hist = noiseless_histogram(truth, 1.0, (5.0, 40.0))
        with pytest.raises(ValueError):
            fit_single(hist, truth)

    def test_flat_histogram_is_degenerate(self):
        rng = np.random.default_rng(5)
        flat = CoincidenceHistogram(1.0, -20.0, rng.poisson(50.0, size=50))
        init = SinglePathParams(g0=10.0, tau_rise=2.0, tau_decay=5.0,
                                background=40.0)
        with pytest.raises(FitDegenerateError):
            fit_single(flat, init)

    def test_histogram_without_counts_is_degenerate(self):
        empty = CoincidenceHistogram(1.0, -20.0, np.zeros(140))
        init = SinglePathParams(g0=100.0, tau_rise=3.0, tau_decay=6.0)
        with pytest.raises(FitDegenerateError, match="histogram has no counts"):
            fit_single(empty, init)

    def test_fit_offset_recovers_shift(self):
        truth = SinglePathParams(g0=1500.0, tau_rise=3.1, tau_decay=5.6,
                                 background=8.0)
        shift = 0.7
        hist = noiseless_histogram(truth, 1.0, (-25.0, 50.0))
        shifted = CoincidenceHistogram(1.0, hist.t_start + shift, hist.counts)
        fit = fit_single(shifted, truth, fit_offset=True)
        assert fit.offset == pytest.approx(shift, abs=1e-6)
        assert fit.params.tau_decay == pytest.approx(5.6, rel=1e-6)

    def test_scale_equivariance(self):
        truth = SinglePathParams(g0=500.0, tau_rise=3.1, tau_decay=5.6,
                                 background=10.0)
        hist = simulate_histogram(truth, 1.0, (-25.0, 50.0), seed=21)
        scaled = CoincidenceHistogram(1.0, hist.t_start, hist.counts * 4)
        fit1 = fit_single(hist, truth)
        init4 = SinglePathParams(g0=2000.0, tau_rise=3.1, tau_decay=5.6,
                                 background=40.0)
        fit4 = fit_single(scaled, init4)
        assert fit4.params.g0 == pytest.approx(4 * fit1.params.g0, rel=1e-6)
        assert fit4.params.background == pytest.approx(
            4 * fit1.params.background, rel=1e-5
        )
        assert abs(fit4.params.tau_decay - fit1.params.tau_decay) <= fit1.sigmas[
            "tau_decay"
        ]

    def test_step_cap_raises_with_best_iterate(self, monkeypatch):
        monkeypatch.setattr(timecorr, "_MAX_STEPS", 1)
        hist = simulate_histogram(FIGURE_PRESETS["fig2x"].model, 1.0, (-25.0, 50.0), seed=3)
        with pytest.raises(FitConvergenceError) as err:
            fit_single(hist, estimate_single_init(hist))
        assert "after 1 steps" in str(err.value)
        assert err.value.best.iterations == 1

    def test_fits_zero_background(self):
        # A step that takes the background below zero must not freeze it there.
        truth = SinglePathParams(g0=1000.0, tau_rise=3.1, tau_decay=5.6)
        for seed in range(20):
            hist = simulate_histogram(truth, 1.0, (-20.0, 40.0), seed)
            fit = fit_single(hist, estimate_single_init(hist))
            assert fit.params.background >= 0.0
            assert fit.params.tau_decay == pytest.approx(5.6, rel=0.1)


class TestFitBeats:
    def test_recovers_amplitude_scale(self):
        preset = FIGURE_PRESETS["fig3"]
        hist = simulate_histogram(preset.model, preset.bin_width, preset.t_range,
                                  seed=11)
        fit = fit_beats(hist, preset.model)
        assert fit.params.g0 == pytest.approx(preset.model.g0, rel=0.03)

    def test_histogram_without_counts_is_degenerate(self):
        preset = FIGURE_PRESETS["fig3"]
        hist = simulate_histogram(preset.model, preset.bin_width, preset.t_range, seed=11)
        empty = CoincidenceHistogram(hist.bin_width, hist.t_start, np.zeros(hist.n_bins))
        with pytest.raises(FitDegenerateError, match="histogram has no counts"):
            fit_beats(empty, preset.model)

    def test_unlocked_delta_recovers_beat_frequency(self):
        preset = FIGURE_PRESETS["fig3"]
        hist = simulate_histogram(preset.model, preset.bin_width, preset.t_range,
                                  seed=11)
        fit = fit_beats(hist, preset.model, free=("g0", "background", "delta"))
        assert 2 * math.pi / fit.params.delta == pytest.approx(
            2 * math.pi / preset.model.delta, abs=preset.bin_width
        )

    def test_r_zero_consistent_with_single_path_fit(self):
        truth = SinglePathParams(g0=900.0, tau_rise=3.1, tau_decay=5.6,
                                 background=10.0)
        hist = simulate_histogram(truth, 0.5, (-20.0, 50.0), seed=17)
        single = fit_single(hist, estimate_single_init(hist))
        positive = CoincidenceHistogram(hist.bin_width, 0.0, hist.counts[hist.bin_starts >= 0.0])
        base = BeatModelParams(g0=30.0, tau_x=6.0, tau_y=13.1, r=0.0, phi=0.0,
                               background=5.0)
        beats = fit_beats(positive, base, free=("g0", "background", "tau_x"))
        sigma = math.hypot(single.sigmas["tau_decay"], beats.sigmas["tau_x"])
        assert abs(beats.params.tau_x - single.params.tau_decay) <= sigma

    def test_null_signal_amplitude_consistent_with_zero(self):
        model = BeatModelParams(g0=1e-9, tau_x=5.6, tau_y=13.1, r=1.0, phi=0.0,
                                background=20.0)
        hist = simulate_histogram(model, 0.25, (-5.0, 30.0), seed=9)
        init = BeatModelParams(g0=3.0, tau_x=5.6, tau_y=13.1, r=1.0, phi=0.0,
                               background=15.0)
        fit = fit_beats(hist, init)
        assert fit.params.g0**2 <= 2 * fit.sigmas["g0_squared"]

    def test_requires_three_beat_periods(self):
        model = FIGURE_PRESETS["fig3"].model
        hist = simulate_histogram(model, 0.25, (-2.0, 8.0), seed=2)
        with pytest.raises(ValueError):
            fit_beats(hist, model)

    def test_scale_equivariance(self):
        preset = FIGURE_PRESETS["fig3"]
        hist = simulate_histogram(preset.model, preset.bin_width, preset.t_range,
                                  seed=23)
        scaled = CoincidenceHistogram(preset.bin_width, hist.t_start,
                                      hist.counts * 9)
        fit1 = fit_beats(hist, preset.model)
        from dataclasses import replace

        fit9 = fit_beats(scaled, replace(preset.model, g0=3 * preset.model.g0,
                                         background=9 * preset.model.background))
        assert fit9.params.g0**2 == pytest.approx(9 * fit1.params.g0**2, rel=1e-6)
        assert fit9.params.background == pytest.approx(
            9 * fit1.params.background, rel=1e-5
        )

    def test_fits_zero_background(self):
        preset = FIGURE_PRESETS["fig3"]
        model = replace(preset.model, background=0.0)
        for seed in range(20):
            hist = simulate_histogram(model, preset.bin_width, preset.t_range, seed)
            fit = fit_beats(hist, model)
            assert fit.params.background >= 0.0
            assert fit.params.g0 == pytest.approx(model.g0, rel=0.05)

    def test_unknown_free_parameter_rejected(self):
        model = FIGURE_PRESETS["fig3"].model
        hist = simulate_histogram(model, 0.25, (-5.0, 30.0), seed=2)
        with pytest.raises(ValueError):
            fit_beats(hist, model, free=("g0", "wavelength"))

    def test_repeated_free_parameter_rejected_before_fitting(self, monkeypatch):
        model = FIGURE_PRESETS["fig3"].model
        hist = simulate_histogram(model, 0.25, (-5.0, 30.0), seed=2)

        def no_fit(*args):
            raise AssertionError("the fit started")

        monkeypatch.setattr(timecorr, "_fit", no_fit)
        with pytest.raises(ValueError, match="'g0' is named twice"):
            fit_beats(hist, model, free=("g0", "g0"))
        with pytest.raises(ValueError, match="'background' is named twice"):
            fit_beats(hist, model, free=("g0", "background", "r", "background"))


class TestFitCovariance:
    """The sigmas are those of the Fisher matrix at the returned point, whether
    its SVD is the one the last step made or one of all columns at the end."""

    @staticmethod
    def assert_sigmas_at_returned_point(hist, fit, free):
        means, fields, values = _model_values(fit.params)
        edges = hist.t_start + hist.bin_width * np.arange(hist.n_bins + 1)
        mu, jac = means(edges, hist.bin_width, values, free)
        inv = np.divide(1.0, mu, out=np.zeros_like(mu), where=mu > np.finfo(float).tiny)
        norms, s, vt = _scaled_svd(jac * np.sqrt(inv)[:, None])
        expected = np.sqrt(np.diag((vt.T / s**2) @ vt)) / norms
        key = "g0_squared" if isinstance(fit.params, BeatModelParams) else "g0"
        got = [fit.sigmas[key if name == "g0" else name] for name in free]
        assert np.allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_all_free_beats_fit(self):
        preset = FIGURE_PRESETS["fig3"]
        free = ("g0", "background", "r", "phi", "delta")
        for seed in range(3):
            hist = simulate_histogram(preset.model, preset.bin_width, preset.t_range, seed)
            self.assert_sigmas_at_returned_point(hist, fit_beats(hist, preset.model, free=free), free)

    def test_single_fit(self):
        preset = FIGURE_PRESETS["fig2x"]
        for seed in range(3):
            hist = simulate_histogram(preset.model, preset.bin_width, preset.t_range, seed)
            fit = fit_single(hist, estimate_single_init(hist))
            self.assert_sigmas_at_returned_point(hist, fit, timecorr._SINGLE_FIELDS)

    def test_background_held_at_zero(self):
        # the zero-background cases of TestFitSingle and TestFitBeats
        single = SinglePathParams(g0=1000.0, tau_rise=3.1, tau_decay=5.6)
        hist = simulate_histogram(single, 1.0, (-20.0, 40.0), seed=2)
        fit = fit_single(hist, estimate_single_init(hist))
        assert fit.params.background == 0.0
        self.assert_sigmas_at_returned_point(hist, fit, timecorr._SINGLE_FIELDS)
        preset = FIGURE_PRESETS["fig3"]
        beats = replace(preset.model, background=0.0)
        hist = simulate_histogram(beats, preset.bin_width, preset.t_range, seed=1)
        fit = fit_beats(hist, beats)
        assert fit.params.background == 0.0
        self.assert_sigmas_at_returned_point(hist, fit, ("g0", "background"))


class TestFitCalibration:
    @pytest.mark.parametrize("name", sorted(FIGURE_PRESETS))
    def test_mean_z_scores_near_zero(self, name):
        # 200 histograms drawn from the exact bin means, each preset fitted
        # with its default free set; z = (fitted - true) / reported sigma
        # should have mean 0 and standard deviation 1.
        preset = FIGURE_PRESETS[name]
        model = preset.model
        z = {}
        for seed in range(200):
            hist = simulate_histogram(model, preset.bin_width, preset.t_range, seed)
            if isinstance(model, SinglePathParams):
                fit = fit_single(hist, estimate_single_init(hist))
            else:
                fit = fit_beats(hist, model)
            for param, sigma in fit.sigmas.items():
                if param != "g0_squared":
                    z.setdefault(param, []).append(
                        (getattr(fit.params, param) - getattr(model, param)) / sigma
                    )
        assert "background" in z
        for param, values in z.items():
            values = np.array(values)
            assert abs(values.mean()) <= 0.3, param
            assert 0.85 <= values.std(ddof=1) <= 1.15, param


class TestHistogramCsv:
    def test_round_trip(self, tmp_path):
        hist = simulate_histogram(FIGURE_PRESETS["fig2x"].model, 1.0, (-25.0, 50.0),
                                  seed=4)
        path = tmp_path / "hist.csv"
        write_histogram_csv(hist, path, comments=["seed: 4"])
        back = read_histogram_csv(path)
        assert back.bin_width == hist.bin_width
        assert back.t_start == hist.t_start
        assert np.array_equal(back.counts, hist.counts)

    def test_bad_value_names_line_and_field(self, tmp_path):
        path = tmp_path / "hist.csv"
        path.write_text("bin_start_ns,counts\n0.0,5\n1.0,oops\n")
        with pytest.raises(FileFormatError) as err:
            read_histogram_csv(path)
        assert err.value.line == 3
        assert err.value.fieldname == "counts"

    @pytest.mark.parametrize("row,field", [("1.0,inf", "counts"), ("-inf,6", "bin_start_ns")])
    def test_non_finite_value_names_line_and_field(self, tmp_path, row, field):
        path = tmp_path / "hist.csv"
        path.write_text(f"bin_start_ns,counts\n0.0,5\n{row}\n2.0,7\n")
        with pytest.raises(FileFormatError) as err:
            read_histogram_csv(path)
        assert err.value.line == 3
        assert err.value.fieldname == field

    @pytest.mark.parametrize("row", ["-4.75,3,999", "-4.75"])
    def test_row_with_wrong_field_count_names_line(self, tmp_path, row):
        path = tmp_path / "hist.csv"
        path.write_text(f"# seed: 4\nbin_start_ns,counts\n-5.0,2\n{row}\n-4.5,7\n")
        with pytest.raises(FileFormatError, match="fields where the header has 2") as err:
            read_histogram_csv(path)
        assert err.value.line == 4
        assert err.value.fieldname == "row"

    def test_error_line_counts_comment_lines(self, tmp_path):
        hist = simulate_histogram(FIGURE_PRESETS["fig2x"].model, 1.0, (-25.0, 50.0), seed=4)
        path = tmp_path / "hist.csv"
        write_histogram_csv(hist, path, comments=["seed: 4", "note"])
        lines = path.read_text().splitlines()
        lines[4] = lines[4].split(",")[0] + ",-3"  # the second bin, file line 5
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError) as err:
            read_histogram_csv(path)
        assert err.value.line == 5
        assert err.value.fieldname == "counts"

    def test_nonuniform_bins_rejected(self, tmp_path):
        path = tmp_path / "hist.csv"
        path.write_text("bin_start_ns,counts\n0.0,5\n1.0,6\n3.0,7\n")
        with pytest.raises(FileFormatError):
            read_histogram_csv(path)


class TestPresets:
    def test_all_figures_present(self):
        assert set(FIGURE_PRESETS) == {"fig2x", "fig2y", "fig3", "fig4a", "fig4b",
                                       "fig4c"}

    def test_published_parameters(self):
        assert FIGURE_PRESETS["fig2x"].model.tau_decay == 5.6
        assert FIGURE_PRESETS["fig2x"].model.tau_rise == 3.1
        assert FIGURE_PRESETS["fig2y"].model.tau_decay == 13.1
        assert FIGURE_PRESETS["fig4a"].model.r == 2.86e-2
        assert FIGURE_PRESETS["fig4a"].model.phi == math.pi
        assert FIGURE_PRESETS["fig4b"].model.r == 1.43
        assert FIGURE_PRESETS["fig4b"].model.phi == 0.0
        assert FIGURE_PRESETS["fig4c"].model.r == 0.5
        assert FIGURE_PRESETS["fig4c"].model.phi == math.pi
        for preset in FIGURE_PRESETS.values():
            if isinstance(preset.model, BeatModelParams):
                assert preset.model.delta == DEFAULT_DELTA
                assert preset.model.tau_x == 5.6
                assert preset.model.tau_y == 13.1

    def test_beat_presets_span_three_periods(self):
        for name in ("fig3", "fig4a", "fig4b", "fig4c"):
            preset = FIGURE_PRESETS[name]
            span = preset.t_range[1] - max(preset.t_range[0], 0.0)
            assert span >= 3 * 2 * math.pi / preset.model.delta
