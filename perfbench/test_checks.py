"""The benchmark's own tests: each output check rejects a deliberately corrupted output.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

The outputs are made fresh by the program in each test; nothing is compared
with a stored copy.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import biphoton as bp  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracle import CheckFailed  # noqa: E402


# ---------------------------------------------------------------------------
# The oracle itself


def test_oracle_indicators_on_known_states():
    bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
    rho = np.outer(bell, bell)
    assert oracle.concurrence(rho) == pytest.approx(1.0, abs=1e-12)
    assert oracle.entanglement_of_formation(1.0) == pytest.approx(1.0, abs=1e-12)
    assert oracle.purity(np.eye(4) / 4) == pytest.approx(0.25)
    product = np.kron(oracle.ANALYZERS["H"], oracle.ANALYZERS["D"])
    assert oracle.concurrence(np.outer(product, product.conj())) == pytest.approx(0.0, abs=1e-12)
    # Werner state p|Bell><Bell| + (1 - p) I/4 has C = max(0, (3p - 1)/2)
    assert oracle.concurrence(0.6 * rho + 0.4 * np.eye(4) / 4) == pytest.approx(0.4, abs=1e-12)


@pytest.mark.parametrize("preset", sorted(bp.FIGURE_PRESETS))
def test_exact_bin_means_match_fine_quadrature(preset):
    p = bp.FIGURE_PRESETS[preset]
    fn = (lambda t: bp.g2_single(t, p.model)) if hasattr(p.model, "tau_rise") else (lambda t: bp.g2_beats(t, p.model))
    means = workloads.preset_bin_means(p)
    starts = p.t_range[0] + p.bin_width * np.arange(means.size)
    offsets = (np.arange(4096) + 0.5) * p.bin_width / 4096
    numeric = fn(starts[:, None] + offsets[None, :]).mean(axis=1)
    assert np.allclose(means, numeric, rtol=1e-6)


# ---------------------------------------------------------------------------
# tomo_bootstrap


@pytest.fixture(scope="module")
def tomo():
    wl = workloads.TomoBootstrap(bp, seed=7)
    inp = wl.cycle()[0]
    return wl, inp, wl.run(inp)


def test_tomo_output_passes(tomo):
    wl, inp, out = tomo
    wl.check(inp, out)


def _with_matrix(rho, matrix):
    fake = copy.copy(rho)
    object.__setattr__(fake, "matrix", matrix)
    return fake


@pytest.mark.parametrize("corrupt", ["not_hermitian", "trace", "negative", "worse_likelihood"])
def test_tomo_rejects_corrupted_state(tomo, corrupt):
    wl, inp, (rho, values, stats) = tomo
    m = np.array(rho.matrix)
    if corrupt == "not_hermitian":
        m[0, 1] += 1e-6
    elif corrupt == "trace":
        m = m * 1.001
    elif corrupt == "negative":
        w, v = np.linalg.eigh(m)
        w[0], w[-1] = w[0] - 1e-3, w[-1] + 1e-3
        m = (v * w) @ v.conj().T
    else:
        m = 0.98 * m + 0.02 * np.eye(4) / 4
    with pytest.raises(CheckFailed):
        wl.check(inp, (_with_matrix(rho, m), values, stats))


@pytest.mark.parametrize("name", ["purity", "concurrence", "entanglement_of_formation", "fidelity"])
def test_tomo_rejects_wrong_indicator(tomo, name):
    wl, inp, (rho, values, stats) = tomo
    with pytest.raises(CheckFailed):
        wl.check(inp, (rho, {**values, name: values[name] + 1e-7}, stats))


@pytest.mark.parametrize("std", [0.0, float("nan"), float("inf")])
def test_tomo_rejects_bad_bootstrap_std(tomo, std):
    wl, inp, (rho, values, stats) = tomo
    bad = {**stats, "concurrence": replace(stats["concurrence"], std=std)}
    with pytest.raises(CheckFailed):
        wl.check(inp, (rho, values, bad))


def test_tomo_cycle_is_the_whole_pool_in_seeded_order():
    a, b = workloads.TomoBootstrap(bp, seed=7), workloads.TomoBootstrap(bp, seed=8)
    labels = [[inp.label for inp in wl.cycle()] for wl in (a, b)]
    assert len(labels[0]) == 12 * workloads.TomoBootstrap.DATASETS
    assert sorted(labels[0]) == sorted(labels[1]) and labels[0] != labels[1]
    assert [inp.label for inp in workloads.TomoBootstrap(bp, seed=7).cycle()] == labels[0]


def test_refused_operation_counts_as_failed():
    class Refusing:
        in_process = True

        def cycle(self):
            return [1, 2, 3]

        def run(self, inp):
            if inp == 2:
                raise bp.tomography.ConvergenceError("MLE did not converge", best=None)
            return inp

        def check(self, inp, out):
            pass

    loop = run.run_cycles(Refusing(), run.Loop(), max_cycles=2)
    assert (loop.attempted, loop.failed, len(loop.ops)) == (6, 2, 4)
    assert loop.check_failures == []


# ---------------------------------------------------------------------------
# g2_fits


@pytest.fixture(scope="module")
def fits():
    wl = workloads.G2Fits(bp, seed=7)
    cycle = wl.cycle()
    picks = [cycle[0], next(i for i in cycle if i.free)]
    return wl, [(inp, wl.run(inp)) for inp in picks]


def test_fit_outputs_pass(fits):
    wl, pairs = fits
    for inp, fit in pairs:
        wl.check(inp, fit)


def test_fit_check_exempts_background_only(fits):
    wl, pairs = fits
    for inp, fit in pairs:
        shifted = replace(fit, params=replace(fit.params, background=fit.params.background + 50 * fit.sigmas["background"]))
        wl.check(inp, shifted)
        for name in fit.sigmas:
            if name in ("background", "g0_squared"):
                continue
            value = getattr(fit.params, name)
            far = replace(fit, params=replace(fit.params, **{name: value + 20 * fit.sigmas[name]}))
            with pytest.raises(CheckFailed):
                wl.check(inp, far)


def test_fit_rejects_unusable_sigma(fits):
    wl, pairs = fits
    inp, fit = pairs[0]
    with pytest.raises(CheckFailed):
        wl.check(inp, replace(fit, sigmas={**fit.sigmas, "g0": float("nan")}))


# ---------------------------------------------------------------------------
# cli_cold: artifacts made in process through cli.main


@pytest.fixture(scope="module")
def cli_artifacts(tmp_path_factory):
    from biphoton import cli

    wl = workloads.CliCold(bp, seed=7, workdir=tmp_path_factory.mktemp("cli"), env={})
    for inv in wl.inputs:
        assert cli.main(list(inv.argv)) == 0
        data = inv.artifact.read_bytes()
        wl.check(inv, data)
    return wl


def _invocation(wl, kind, nth=0):
    return [inv for inv in wl.inputs if inv.kind == kind][nth]


def test_cli_rejects_changed_bytes(cli_artifacts):
    inv = _invocation(cli_artifacts, "simulate-g2")
    with pytest.raises(CheckFailed):
        cli_artifacts.check(inv, inv.expected + b"\n")


def _recheck(wl, inv, payload):
    fresh = copy.copy(inv)
    fresh.expected = None
    if isinstance(payload, dict):
        payload = json.dumps(payload).encode()
    getattr(wl, "_check_" + inv.kind.replace("-", "_"))(fresh, payload)


@pytest.mark.parametrize("kind,corrupt", [
    ("predict", lambda p: p["ket_circular"]["amplitudes"].reverse()),
    ("predict", lambda p: p["metrics"].update(concurrence=p["metrics"]["concurrence"] - 1e-6)),
    ("reconstruct", lambda p: p["metrics"].update(fidelity=p["metrics"]["fidelity"] - 1e-6)),
    ("reconstruct", lambda p: p["resampled_metrics"]["purity"].update(std=0.0)),
    ("fit-g2", lambda p: p["fit"]["params"].update(g0=p["fit"]["params"]["g0"] * 1.05)),
    ("fit-g2", lambda p: p["fit"]["sigmas"].update(g0=None)),
    ("beat-params", lambda p: p.update(phi=p["phi"] + 1e-6)),
    ("beat-params", lambda p: p.update(r=p["r"] * (1 + 1e-6))),
])
def test_cli_rejects_corrupted_json(cli_artifacts, kind, corrupt):
    inv = _invocation(cli_artifacts, kind)
    payload = json.loads(inv.expected)
    _recheck(cli_artifacts, inv, payload)
    corrupt(payload)
    with pytest.raises(CheckFailed):
        _recheck(cli_artifacts, inv, payload)


def test_cli_rejects_corrupted_counts(cli_artifacts):
    inv = _invocation(cli_artifacts, "simulate-tomo")
    original = inv.artifact.read_text()
    lines = original.splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.startswith("HD,"))
    fields = lines[row].split(",")
    fields[3] = "0.5"
    lines[row] = ",".join(fields)
    try:
        inv.artifact.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckFailed):
            _recheck(cli_artifacts, inv, b"")
    finally:
        inv.artifact.write_text(original)


# ---------------------------------------------------------------------------
# Tracing and the benchmark description


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.per_layer_specs()
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"}


def test_layer_metrics_self_time():
    # op (0..100) -> a (10..60) -> b (20..30); a again (70..80)
    spans = [["op", 0, 100, -1, 1, None], ["tomography.reconstruct_mle", 10, 60, 0, 1, 7],
             ["polstate.DensityMatrix4.__post_init__", 20, 30, 1, 1, None],
             ["tomography.reconstruct_mle", 70, 80, 0, 1, 3]]
    out = tracing.layer_metrics([[n, s * 10**6, e * 10**6, p, o, v] for n, s, e, p, o, v in spans], n_ops=1)
    assert out["tomography.reconstruct_mle.calls"] == 2
    assert out["tomography.reconstruct_mle.total_ms"] == pytest.approx(60.0)
    assert out["tomography.reconstruct_mle.self_ms"] == pytest.approx(50.0)
    assert out["tomography.reconstruct_mle.iterations"] == 10
    assert out["polstate.DensityMatrix4.validations"] == 1


def test_tracer_reports_removed_name_as_absent(monkeypatch):
    monkeypatch.delattr(bp.tomography, "log_likelihood")
    tracer = tracing.Tracer()
    originals = {name: getattr(bp.tomography, name) for name in ("reconstruct_mle", "expected_probability")}
    post_init = bp.DensityMatrix4.__post_init__
    try:
        tracer.install()
        assert tracer.absent == ["tomography.log_likelihood"]
        bp.density_from_ket(bp.ket_from_path(bp.predict_path_state(bp.PATH_X)))
        assert any(s[0] == "polstate.DensityMatrix4.__post_init__" for s in tracer.spans)
    finally:
        for module in [m for n, m in sys.modules.items() if n.startswith("biphoton")]:
            for key, value in list(vars(module).items()):
                original = getattr(value, "__wrapped__", None)
                if original is not None and callable(value):
                    setattr(module, key, original)
        bp.DensityMatrix4.__post_init__ = post_init
    assert bp.tomography.reconstruct_mle is originals["reconstruct_mle"]
