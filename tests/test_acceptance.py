"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion.
"""

import json
import math
import time

import numpy as np
import pytest

import biphoton as bp
from biphoton.cli import main
from biphoton.polstate import (
    CIRCULAR,
    BiphotonKet,
    DensityMatrix4,
    density_from_ket,
)
from biphoton.timecorr import (
    FIGURE_PRESETS,
    BeatModelParams,
    SinglePathParams,
    estimate_single_init,
    fit_beats,
    fit_single,
    g2_beats,
    simulate_histogram,
)
from conftest import g2_beats_from_amplitudes
from biphoton.tomography import (
    CountsRecord,
    expected_probability,
    reconstruct_linear,
    reconstruct_mle,
    resample_uncertainties,
    simulate_counts,
    standard_settings,
)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} failed: {detail}"


def cli_json(capsys, *argv) -> dict:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_criterion_1_state_prediction(capsys):
    start = time.perf_counter()
    x = cli_json(capsys, "predict", "--path", "X")["path_amplitudes"]
    y = cli_json(capsys, "predict", "--path", "Y")["path_amplitudes"]
    elapsed = time.perf_counter() - start
    ok = (
        abs(x["a0"] - 0.55) <= 0.005
        and abs(x["a1"] - 0.83) <= 0.005
        and x["phi0"] == pytest.approx(math.pi)
        and abs(y["a0"] - 0.92) <= 0.005
        and abs(y["a1"] - 0.39) <= 0.005
        and y["phi0"] == pytest.approx(math.pi)
        and elapsed < 1.0
    )
    report(1, "state prediction X/Y with relative sign", ok,
           f"X=({x['a0']:.4f},{x['a1']:.4f}) Y=({y['a0']:.4f},{y['a1']:.4f}) "
           f"{elapsed:.2f}s")


def test_criterion_2_metric_identities():
    s = 1 / math.sqrt(2)
    bell = BiphotonKet(np.array([0, s, s, 0], dtype=complex), CIRCULAR)
    rho_bell = density_from_ket(bell)
    c_bell = bp.concurrence(rho_bell)
    e_bell = bp.entanglement_of_formation(rho_bell)
    ok = abs(c_bell - 1.0) <= 1e-10 and abs(e_bell - 1.0) <= 1e-10

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        a0 = rng.uniform(0.0, 1.0)
        a1 = math.sqrt(1.0 - a0**2)
        phase = np.exp(1j * rng.uniform(-math.pi, math.pi))
        ket = BiphotonKet(np.array([0, a0, phase * a1, 0]), CIRCULAR)
        c = bp.concurrence(density_from_ket(ket))
        worst = max(worst, abs(c - 2 * a0 * a1))
    ok = ok and worst <= 1e-10
    report(2, "concurrence and EoF identities", ok,
           f"Bell C={c_bell:.12f} E={e_bell:.12f} worst oracle dev={worst:.2e}")


def test_criterion_3_tomography_round_trip(ket_x, rho_x):
    settings = standard_settings("overcomplete36")
    start = time.perf_counter()
    fidelities = []
    all_psd = True
    for seed in range(20):
        records = simulate_counts(rho_x, settings, 1e5, seed=seed)
        result = reconstruct_mle(records)
        fidelities.append(bp.fidelity(result.rho, ket_x))
        all_psd = all_psd and np.linalg.eigvalsh(result.rho.matrix)[0] >= 0.0
    elapsed = time.perf_counter() - start
    mean_f, min_f = float(np.mean(fidelities)), float(np.min(fidelities))
    ok = mean_f >= 0.995 and min_f >= 0.99 and all_psd and elapsed < 60.0
    report(3, "MLE round trip over 20 seeds", ok,
           f"mean={mean_f:.5f} min={min_f:.5f} psd={all_psd} {elapsed:.1f}s")


def test_criterion_4_estimator_agreement(ket_x):
    pure = density_from_ket(ket_x)
    truth = DensityMatrix4(0.95 * pure.matrix + 0.05 * np.eye(4) / 4, pure.basis)
    settings = standard_settings("overcomplete36")
    records = [
        CountsRecord(s, 1e8 * expected_probability(truth, s), 1.0) for s in settings
    ]
    mle = reconstruct_mle(records)
    dist = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(reconstruct_linear(records) - mle.rho.matrix))))
    ok = dist <= 1e-5
    report(4, "linear vs MLE on noiseless records", ok, f"trace distance={dist:.2e}")


def test_criterion_5_uncertainty_scaling(rho_x):
    settings = standard_settings("overcomplete36")
    small = simulate_counts(rho_x, settings, 300, seed=10)
    big = [CountsRecord(r.setting, r.counts * 100, r.exposure) for r in small]
    std_small = resample_uncertainties(small, 30, seed=11)["concurrence"].std
    std_big = resample_uncertainties(big, 30, seed=12)["concurrence"].std
    ratio = std_small / std_big
    ok = 10 / 1.5 <= ratio <= 10 * 1.5
    report(5, "bootstrap stddev Poisson scaling", ok,
           f"ratio={ratio:.2f} (expect 10x +- 50%)")


def test_criterion_6_decay_fit_recovery():
    results = []
    for tau_rise, tau_decay, t_max, published_sigma in (
        (3.1, 5.6, 50.0, 0.1),
        (3.3, 13.1, 75.0, 0.2),
    ):
        truth = SinglePathParams(g0=2000.0, tau_rise=tau_rise, tau_decay=tau_decay,
                                 background=10.0)
        hist = simulate_histogram(truth, 1.0, (-25.0, t_max), seed=3)
        fit = fit_single(hist, estimate_single_init(hist))
        rel_err = abs(fit.params.tau_decay - tau_decay) / tau_decay
        sigma = fit.sigmas["tau_decay"]
        results.append((rel_err, sigma, published_sigma))
    ok = all(
        rel <= 0.02 and published / 10 <= sigma <= published * 10
        for rel, sigma, published in results
    )
    detail = "; ".join(
        f"err={rel:.3%} sigma={sigma:.3f} (published {published})"
        for rel, sigma, published in results
    )
    report(6, "decay constant recovery", ok, detail)


def test_criterion_7_beat_model_identity_and_period():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        params = BeatModelParams(
            g0=rng.uniform(0.1, 3.0),
            tau_x=rng.uniform(1.0, 20.0),
            tau_y=rng.uniform(1.0, 20.0),
            r=rng.uniform(0.0, 3.0),
            phi=rng.uniform(-math.pi, math.pi),
            delta=rng.uniform(0.1, 5.0),
            background=rng.uniform(0.0, 20.0),
        )
        dt = rng.uniform(-10.0, 40.0)
        a = g2_beats(dt, params)
        b = g2_beats_from_amplitudes(dt, params, omega_idler=rng.uniform(0, 10))
        worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    identity_ok = worst <= 1e-12

    preset = FIGURE_PRESETS["fig3"]
    hist = simulate_histogram(preset.model, preset.bin_width, preset.t_range, seed=11)
    fit = fit_beats(hist, preset.model, free=("g0", "background", "delta"))
    period = 2 * math.pi / fit.params.delta
    period_ok = abs(period - 3.759) <= preset.bin_width
    ok = identity_ok and period_ok
    report(7, "beat identity and 3.759 ns period", ok,
           f"worst identity dev={worst:.2e}, period={period:.4f} ns "
           f"(bin {preset.bin_width} ns)")


def test_criterion_8_beat_regimes():
    damped = FIGURE_PRESETS["fig4a"].model
    contrast = 2 * damped.r / (1 + damped.r**2)  # zero-delay modulation depth
    contrast_ok = contrast <= 0.06

    b = FIGURE_PRESETS["fig4b"].model
    c = FIGURE_PRESETS["fig4c"].model
    cos_b = 2 * b.r * math.cos(b.phi)
    cos_c = 2 * c.r * math.cos(c.phi)
    antiphase_ok = cos_b * cos_c < 0
    ok = contrast_ok and antiphase_ok
    report(8, "damped and antiphase beat regimes", ok,
           f"contrast={contrast:.4f}, cosine terms {cos_b:+.2f} vs {cos_c:+.2f}")


def test_criterion_9_uncertainty_magnitudes(ket_x, rho_x):
    records = simulate_counts(rho_x, standard_settings("overcomplete36"), 1000,
                              seed=14)
    stats = resample_uncertainties(records, 40, seed=15, target=ket_x)
    stds = {
        name: stats[name].std
        for name in ("purity", "concurrence", "entanglement_of_formation")
    }
    # published band is +-0.01..0.03; allow +-0.05 around it
    ok = all(0.0 < s <= 0.08 for s in stds.values())
    report(9, "bootstrap uncertainty magnitudes", ok,
           " ".join(f"{k}={v:.4f}" for k, v in stds.items()))


def test_criterion_10_determinism(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def run_twice(argv, artifact):
        assert main(list(argv)) == 0
        capsys.readouterr()
        first = (tmp_path / artifact).read_bytes()
        assert main(list(argv)) == 0
        capsys.readouterr()
        return first == (tmp_path / artifact).read_bytes()

    ok = run_twice(
        ["simulate-tomo", "--path", "X", "--n", "1e4", "--seed", "77",
         "--out", "counts.csv"],
        "counts.csv",
    )
    ok = ok and run_twice(
        ["reconstruct", "--counts", "counts.csv", "--resamples", "4",
         "--seed", "5", "--out", "rho.json"],
        "rho.json",
    )
    ok = ok and run_twice(
        ["simulate-g2", "--preset", "fig3", "--seed", "13", "--out", "hist.csv"],
        "hist.csv",
    )
    ok = ok and run_twice(
        ["fit-g2", "--hist", "hist.csv", "--preset", "fig3", "--out", "fit.json"],
        "fit.json",
    )
    report(10, "seeded commands byte-identical", ok)
