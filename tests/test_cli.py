"""Command-line interface: subcommands, pipelines, determinism, exit codes."""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

import biphoton as bp
from biphoton.cli import main
from biphoton.polstate import ket_from_dict


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv) -> dict:
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestPredict:
    def test_path_x_amplitudes(self, capsys):
        payload = run_json(capsys, "predict", "--path", "X")
        amps = payload["path_amplitudes"]
        assert amps["a0"] == pytest.approx(0.55, abs=0.005)
        assert amps["a1"] == pytest.approx(0.83, abs=0.005)
        assert amps["phi0"] == pytest.approx(math.pi)
        assert payload["metrics"]["concurrence"] == pytest.approx(12 / 13, abs=1e-9)

    def test_path_y_amplitudes(self, capsys):
        payload = run_json(capsys, "predict", "--path", "Y")
        assert payload["path_amplitudes"]["a0"] == pytest.approx(0.92, abs=0.005)
        assert payload["path_amplitudes"]["a1"] == pytest.approx(0.39, abs=0.005)

    def test_levels_alias_equivalence(self, capsys):
        by_path = run_json(capsys, "predict", "--path", "X")
        by_levels = run_json(capsys, "predict", "--levels", "2,2,3,3")
        del by_path["meta"], by_levels["meta"]
        assert by_path == by_levels

    def test_ket_output_loadable(self, capsys, tmp_path):
        out = tmp_path / "state.json"
        code, _, _ = run(capsys, "predict", "--path", "X", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        ket = ket_from_dict(payload["ket_circular"])
        assert abs(ket.amplitudes[1]) == pytest.approx(2 / math.sqrt(13), abs=1e-12)

    def test_bad_levels_exit_code(self, capsys):
        code, _, err = run(capsys, "predict", "--levels", "2,2,3")
        assert code == 1
        assert "error" in err

    def test_triangle_violating_levels_exit_code(self, capsys):
        code, _, err = run(capsys, "predict", "--levels", "2,2,3,1")
        assert code == 1


class TestTomographyPipeline:
    def test_full_round_trip(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(
            capsys, "simulate-tomo", "--path", "X", "--n", "1e5",
            "--seed", "7", "--out", "counts.csv",
        )
        assert code == 0, err
        payload = run_json(
            capsys, "reconstruct", "--counts", "counts.csv",
            "--method", "mle", "--target-path", "X",
        )
        assert payload["metrics"]["fidelity"] >= 0.995
        assert payload["physical"] is True
        assert payload["min_eigenvalue"] >= 0.0

    def test_linear_method(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(capsys, "simulate-tomo", "--path", "Y", "--n", "1e6",
            "--seed", "3", "--out", "counts.csv")
        payload = run_json(
            capsys, "reconstruct", "--counts", "counts.csv", "--method", "linear",
            "--target-path", "Y",
        )
        assert payload["metrics"]["fidelity"] >= 0.99

    @pytest.mark.parametrize("settings", ["minimal16", "overcomplete36"])
    def test_linear_reports_unphysical_estimates(self, capsys, tmp_path, monkeypatch, settings):
        # path X at 1e3 counts per setting: noise pushes the near-zero eigenvalues
        # of the estimate below zero, and the estimate is reported, not refused
        monkeypatch.chdir(tmp_path)
        unphysical = 0
        for seed in range(25):
            run(capsys, "simulate-tomo", "--path", "X", "--settings", settings, "--n", "1e3",
                "--seed", str(seed), "--out", "counts.csv")
            payload = run_json(capsys, "reconstruct", "--counts", "counts.csv", "--method", "linear",
                               "--target-path", "X")
            mat = np.array([[complex(*z) for z in row] for row in payload["rho"]["matrix"]])
            assert payload["min_eigenvalue"] == np.linalg.eigvalsh(mat)[0]
            assert payload["physical"] is (payload["min_eigenvalue"] >= -bp.polstate.PSD_TOL)
            metrics = payload["metrics"]
            undefined = metrics["concurrence"] is None and metrics["entanglement_of_formation"] is None
            assert undefined is not payload["physical"]
            assert 0.0 <= metrics["fidelity"] <= 1.0
            unphysical += not payload["physical"]
        assert unphysical == 25

    def test_resampled_metrics(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(capsys, "simulate-tomo", "--path", "X", "--n", "2000",
            "--seed", "5", "--out", "counts.csv")
        payload = run_json(
            capsys, "reconstruct", "--counts", "counts.csv", "--resamples", "8",
            "--seed", "6", "--target-path", "X",
        )
        stats = payload["resampled_metrics"]
        for name in ("purity", "concurrence", "entanglement_of_formation",
                     "fidelity"):
            assert stats[name]["std"] >= 0.0

    def test_predict_payload_accepted_as_target(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(capsys, "predict", "--path", "X", "--out", "state.json")
        run(capsys, "simulate-tomo", "--ket", "state.json", "--n", "1e4",
            "--seed", "2", "--out", "counts.csv")
        payload = run_json(capsys, "reconstruct", "--counts", "counts.csv",
                           "--target", "state.json")
        assert payload["metrics"]["fidelity"] >= 0.99

    def test_background_subtraction_flag(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(capsys, "simulate-tomo", "--path", "X", "--n", "1e4",
            "--seed", "9", "--out", "counts.csv")
        plain = run_json(capsys, "reconstruct", "--counts", "counts.csv")
        cleaned = run_json(capsys, "reconstruct", "--counts", "counts.csv",
                           "--subtract-background", "5")
        assert plain["rho"] != cleaned["rho"]

    def test_empty_counts_file_fails(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, _, err = run(capsys, "reconstruct", "--counts", str(empty))
        assert code == 1
        assert "line" in err

    def test_corrupt_counts_file_names_line(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(capsys, "simulate-tomo", "--path", "X", "--n", "1e3",
            "--seed", "1", "--out", "counts.csv")
        lines = (tmp_path / "counts.csv").read_text().splitlines()
        lines[5] = lines[5].replace(",", ";", 1)
        (tmp_path / "counts.csv").write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "reconstruct", "--counts", "counts.csv")
        assert code == 1
        assert "line" in err

    def test_error_line_counts_comment_lines(self, capsys, tmp_path, monkeypatch):
        # three comment lines and the header precede HH (line 5) and HV (line 6)
        monkeypatch.chdir(tmp_path)
        run(capsys, "simulate-tomo", "--path", "X", "--n", "1e3",
            "--seed", "1", "--out", "counts.csv")
        lines = (tmp_path / "counts.csv").read_text().splitlines()
        fields = lines[5].split(",")
        assert fields[0] == "HV"
        fields[-2] = "nan"
        lines[5] = ",".join(fields)
        (tmp_path / "counts.csv").write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "reconstruct", "--counts", "counts.csv")
        assert code == 1
        assert err.startswith("error: line 6, field 'counts'")

    @staticmethod
    def _edit_rows(path, edit) -> None:
        """Apply edit to the fields of every data row of a simulate-tomo CSV."""
        lines = path.read_text().splitlines()
        assert lines[3].startswith("label,")
        rows = lines[:4] + [",".join(edit(line.split(","))) for line in lines[4:]]
        path.write_text("\n".join(rows) + "\n")

    @pytest.mark.parametrize("method", ["mle", "linear"])
    def test_projector_scale_does_not_change_state(self, capsys, tmp_path, monkeypatch, method):
        monkeypatch.chdir(tmp_path)
        run(capsys, "simulate-tomo", "--path", "X", "--n", "1e5",
            "--seed", "3", "--out", "counts.csv")
        plain = run_json(capsys, "reconstruct", "--counts", "counts.csv", "--method", method)
        self._edit_rows(tmp_path / "counts.csv",
                        lambda f: [f[0]] + [repr(float(x) * 1e200) for x in f[1:9]] + f[9:])
        resamples = ("--resamples", "2", "--seed", "1") if method == "mle" else ()
        scaled = run_json(capsys, "reconstruct", "--counts", "counts.csv", "--method", method, *resamples)
        rho = np.array(plain["rho"]["matrix"])
        assert np.max(np.abs(np.array(scaled["rho"]["matrix"]) - rho)) <= 1e-12

    def test_overflowing_projector_names_line(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(capsys, "simulate-tomo", "--path", "X", "--n", "1e3",
            "--seed", "1", "--out", "counts.csv")
        self._edit_rows(tmp_path / "counts.csv", lambda f: [f[0]] + ["1e308"] * 8 + f[9:])
        code, _, err = run(capsys, "reconstruct", "--counts", "counts.csv")
        assert code == 1
        assert err.startswith("error: line 5, field 'projector'")

    def test_overflowing_rate_names_line(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(capsys, "simulate-tomo", "--path", "X", "--n", "1e3",
            "--seed", "1", "--out", "counts.csv")
        self._edit_rows(tmp_path / "counts.csv", lambda f: f[:10] + ["1e-320"])
        code, _, err = run(capsys, "reconstruct", "--counts", "counts.csv")
        assert code == 1
        assert err.startswith("error: line 5, field 'exposure'")

    @pytest.mark.parametrize("method", ["mle", "linear"])
    def test_overflowing_count_sum_rejected(self, capsys, tmp_path, monkeypatch, method):
        monkeypatch.chdir(tmp_path)
        run(capsys, "simulate-tomo", "--path", "X", "--n", "1e3",
            "--seed", "1", "--out", "counts.csv")
        self._edit_rows(tmp_path / "counts.csv", lambda f: f[:9] + ["1e308", f[10]])
        code, _, err = run(capsys, "reconstruct", "--counts", "counts.csv", "--method", method)
        assert code == 1
        assert err.startswith("error:") and "not finite" in err

    @pytest.mark.parametrize("content", ["5", '{"amplitudes": 3}', "not json"],
                             ids=["number", "amplitudes-number", "not-json"])
    def test_malformed_ket_file_names_file(self, capsys, tmp_path, content):
        ket = tmp_path / "ket.json"
        ket.write_text(content + "\n")
        out = tmp_path / "counts.csv"
        code, _, err = run(capsys, "simulate-tomo", "--ket", str(ket), "--out", str(out))
        assert code == 1
        assert err.startswith("error:") and str(ket) in err
        assert not out.exists()


    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    @pytest.mark.parametrize("command", ["beat-params", "reconstruct"])
    def test_non_finite_ket_file_names_file(self, capsys, tmp_path, monkeypatch, literal, command):
        monkeypatch.chdir(tmp_path)
        ket = tmp_path / "bad.json"
        ket.write_text(f'{{"basis": "circular", "amplitudes": [[{literal}, 0], [1, 0], [0, 0], [0, 0]]}}\n')
        run(capsys, "simulate-tomo", "--path", "X", "--n", "1e3", "--seed", "1", "--out", "counts.csv")
        argv = {"beat-params": ["--ket-x", str(ket), "--proj-s", "H", "--proj-i", "V"],
                "reconstruct": ["--counts", "counts.csv", "--target", str(ket)]}[command]
        code, out, err = run(capsys, command, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and str(ket) in err and "not normalized" in err

    @pytest.mark.parametrize("command", ["simulate-tomo", "reconstruct", "beat-params"])
    def test_overflowing_ket_file_names_file(self, capsys, tmp_path, monkeypatch, command):
        """|psi|^2 overflows to inf: one error line, no numpy overflow warning before it."""
        monkeypatch.chdir(tmp_path)
        amplitudes = [[1e200, 0], [0, 0], [0, 0], [0, 0]]
        (tmp_path / "big.json").write_text(json.dumps({"basis": "circular", "amplitudes": amplitudes}))
        run(capsys, "simulate-tomo", "--path", "X", "--n", "1e3", "--seed", "1", "--out", "counts.csv")
        argv = {"simulate-tomo": ["--ket", "big.json", "--out", "c2.csv"],
                "reconstruct": ["--counts", "counts.csv", "--target", "big.json"],
                "beat-params": ["--ket-x", "big.json", "--proj-s", "H", "--proj-i", "H"]}[command]
        code, out, err = run(capsys, command, *argv)
        assert (code, out, err) == (1, "", "error: big.json: not a biphoton ket: ket not normalized: |psi|^2 = inf\n")

    def test_bootstrap_names_poisson_limit(self, capsys, tmp_path, monkeypatch):
        """Counts above POISSON_MAX cannot be redrawn; the point estimates still accept them."""
        monkeypatch.chdir(tmp_path)
        run(capsys, "simulate-tomo", "--path", "X", "--n", "1e3", "--seed", "1", "--out", "counts.csv")
        self._edit_rows(tmp_path / "counts.csv", lambda f: f[:9] + [repr(float(f[9]) * 1e300), f[10]])
        code, out, err = run(capsys, "reconstruct", "--counts", "counts.csv", "--resamples", "2")
        assert (code, out) == (1, "")
        assert err == "error: --resamples 2: a count above 9.223e+18, the largest Poisson mean numpy draws, " \
                      "cannot be redrawn\n"
        for method in ("mle", "linear"):
            assert "rho" in run_json(capsys, "reconstruct", "--counts", "counts.csv", "--method", method)

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines[:4], "line 5, field 'label': no data rows"),
        (lambda lines: lines[:4] + [",".join(lines[4].split(",")[:9] + ["-1", "1"])] + lines[5:],
         "line 5, field 'counts': must be non-negative"),
        (lambda lines: lines[:4] + [",".join(lines[4].split(",")[:10] + ["0"])] + lines[5:],
         "line 5, field 'exposure': must be positive"),
    ], ids=["header-only", "count-negative", "exposure-zero"])
    def test_unusable_counts_file_names_line(self, capsys, tmp_path, monkeypatch, edit, message):
        monkeypatch.chdir(tmp_path)
        run(capsys, "simulate-tomo", "--path", "X", "--n", "1e3", "--seed", "1", "--out", "counts.csv")
        lines = (tmp_path / "counts.csv").read_text().splitlines()
        assert lines[3].startswith("label,")  # three comment lines, then the header
        (tmp_path / "counts.csv").write_text("\n".join(edit(lines)) + "\n")
        assert run(capsys, "reconstruct", "--counts", "counts.csv") == (1, "", f"error: {message}\n")


class TestG2Pipeline:
    def test_preset_simulation_and_fit(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "simulate-g2", "--preset", "fig3",
                           "--seed", "11", "--out", "hist.csv")
        assert code == 0, err
        payload = run_json(capsys, "fit-g2", "--hist", "hist.csv",
                           "--preset", "fig3")
        fitted = payload["fit"]["params"]
        assert fitted["g0"] == pytest.approx(20.0, rel=0.03)

    def test_single_model_fit(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(capsys, "simulate-g2", "--preset", "fig2x", "--seed", "3",
            "--out", "hist.csv")
        payload = run_json(capsys, "fit-g2", "--hist", "hist.csv",
                           "--model", "single")
        assert payload["fit"]["params"]["tau_decay"] == pytest.approx(5.6, rel=0.02)

    def test_single_model_fit_at_zero_background(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "simulate-g2", "--model", "single", "--bin-width", "1",
                           "--t-min", "-20", "--t-max", "40", "--seed", "8",
                           "--out", "hist.csv")
        assert code == 0, err
        code, _, err = run(capsys, "fit-g2", "--hist", "hist.csv", "--model", "single")
        assert code == 0, err

    def test_explicit_model_simulation(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(
            capsys, "simulate-g2", "--model", "beats", "--g0", "10",
            "--tau-x", "5.6", "--tau-y", "13.1", "--r", "0.5", "--phi", "0",
            "--background", "2", "--bin-width", "0.5", "--t-min", "-5",
            "--t-max", "25", "--seed", "2", "--out", "hist.csv",
        )
        assert code == 0, err
        hist = (tmp_path / "hist.csv").read_text()
        assert hist.splitlines()[0].startswith("#")
        assert "bin_start_ns,counts" in hist

    def test_fit_offset_flag(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(capsys, "simulate-g2", "--preset", "fig2x", "--seed", "3",
            "--out", "hist.csv")
        payload = run_json(capsys, "fit-g2", "--hist", "hist.csv",
                           "--model", "single", "--fit-offset")
        assert "offset" in payload["fit"]["params"]

    def test_fit_offset_reported_when_fitted_to_zero(self, capsys, tmp_path, monkeypatch):
        # fig3's exact bin means: the fit starts at its optimum, offset 0.0 included
        monkeypatch.chdir(tmp_path)
        preset = bp.timecorr.FIGURE_PRESETS["fig3"]
        t_lo, t_hi = preset.t_range
        n_bins = int(round((t_hi - t_lo) / preset.bin_width))
        means = bp.timecorr._bin_means(preset.model, t_lo, n_bins, preset.bin_width)
        bp.timecorr.write_histogram_csv(bp.CoincidenceHistogram(preset.bin_width, t_lo, means), "exact.csv")
        fit = run_json(capsys, "fit-g2", "--hist", "exact.csv", "--preset", "fig3", "--fit-offset")["fit"]
        assert "offset" in fit["sigmas"]
        assert fit["params"]["offset"] == 0.0

    def test_unlock_flags(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(capsys, "simulate-g2", "--preset", "fig3", "--seed", "11",
            "--out", "hist.csv")
        payload = run_json(capsys, "fit-g2", "--hist", "hist.csv",
                           "--preset", "fig3", "--free", "g0,background,delta")
        assert payload["fit"]["params"]["delta"] == pytest.approx(
            2 * math.pi * 0.266, rel=0.01
        )

    def test_missing_model_fails(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate-g2", "--out",
                           str(tmp_path / "h.csv"))
        assert code == 1

    def test_model_with_preset_rejected(self, capsys, tmp_path):
        out = tmp_path / "h.csv"
        code, _, err = run(capsys, "simulate-g2", "--preset", "fig3", "--model",
                           "single", "--seed", "5", "--out", str(out))
        assert code == 1
        assert err.startswith("error:") and "--model" in err
        assert not out.exists()

    def test_preset_model_flag_replaces_field(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        preset = bp.FIGURE_PRESETS["fig3"]
        m = preset.model
        explicit = ["--model", "beats", "--tau-x", repr(m.tau_x), "--tau-y", repr(m.tau_y),
                    "--r", repr(m.r), "--phi", repr(m.phi), "--delta", repr(m.delta),
                    "--background", repr(m.background), "--bin-width", repr(preset.bin_width),
                    "--t-min", repr(preset.t_range[0]), "--t-max", repr(preset.t_range[1])]
        for name, argv in (("preset", ["--preset", "fig3"]), ("explicit", explicit)):
            code, _, err = run(capsys, "simulate-g2", *argv, "--g0", "5", "--seed", "5",
                               "--out", f"{name}.csv")
            assert code == 0, err
        run(capsys, "simulate-g2", "--preset", "fig3", "--seed", "5", "--out", "plain.csv")

        def bins(name):
            text = (tmp_path / name).read_text()
            return [ln for ln in text.splitlines() if not ln.startswith("#")]

        assert bins("preset.csv") == bins("explicit.csv")
        assert bins("preset.csv") != bins("plain.csv")

    def test_preset_rejects_flag_its_model_lacks(self, capsys, tmp_path):
        out = tmp_path / "h.csv"
        code, _, err = run(capsys, "simulate-g2", "--preset", "fig3", "--tau-rise", "2",
                           "--out", str(out))
        assert code == 1
        assert err.startswith("error:") and "--tau-rise" in err
        assert not out.exists()

    @pytest.mark.parametrize("model", ["--model=single", "--preset=fig3"])
    def test_histogram_without_counts_fails(self, capsys, tmp_path, monkeypatch, model):
        monkeypatch.chdir(tmp_path)
        run(capsys, "simulate-g2", "--preset", "fig3", "--seed", "1", "--out", "hist.csv")
        lines = (tmp_path / "hist.csv").read_text().splitlines()
        assert lines[3] == "bin_start_ns,counts"
        rows = lines[:4] + [line.split(",")[0] + ",0" for line in lines[4:]]
        (tmp_path / "hist.csv").write_text("\n".join(rows) + "\n")
        code, out, err = run(capsys, "fit-g2", "--hist", "hist.csv", model)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "histogram has no counts" in err

    def test_flat_histogram_is_not_identifiable(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(capsys, "simulate-g2", "--preset", "fig3", "--seed", "1", "--out", "hist.csv")
        lines = (tmp_path / "hist.csv").read_text().splitlines()
        rows = lines[:4] + [line.split(",")[0] + ",50" for line in lines[4:]]
        (tmp_path / "hist.csv").write_text("\n".join(rows) + "\n")
        code, out, err = run(capsys, "fit-g2", "--hist", "hist.csv", "--model", "single")
        assert (code, out, err) == (1, "", "error: singular Jacobian: parameters not identifiable\n")

    def test_preset_g0_keeps_preset_starting_point(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(capsys, "simulate-g2", "--preset", "fig2y", "--seed", "6",
            "--out", "hist.csv")
        seen = {}
        fit_single = bp.timecorr.fit_single

        def spy(hist, init, **kwargs):
            seen["init"] = init
            return fit_single(hist, init, **kwargs)

        monkeypatch.setattr(bp.timecorr, "fit_single", spy)
        run_json(capsys, "fit-g2", "--hist", "hist.csv", "--preset", "fig2y",
                 "--g0", "1500")
        init = seen["init"]
        assert init.g0 == 1500.0
        assert (init.tau_rise, init.tau_decay, init.background) == (3.3, 13.1, 10.0)


    def test_fit_single_flag_replaces_estimated_field(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(capsys, "simulate-g2", "--preset", "fig2x", "--seed", "6", "--out", "hist.csv")
        seen = {}
        fit_single = bp.timecorr.fit_single

        def spy(hist, init, **kwargs):
            seen["init"] = init
            return fit_single(hist, init, **kwargs)

        monkeypatch.setattr(bp.timecorr, "fit_single", spy)
        run_json(capsys, "fit-g2", "--hist", "hist.csv", "--model", "single", "--tau-rise", "2.5")
        estimate = bp.timecorr.estimate_single_init(bp.timecorr.read_histogram_csv("hist.csv"))
        assert seen["init"] == replace(estimate, tau_rise=2.5)

    def test_fit_preset_flag_replaces_field(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(capsys, "simulate-g2", "--preset", "fig3", "--seed", "6", "--out", "hist.csv")
        seen = {}
        fit_beats = bp.timecorr.fit_beats

        def spy(hist, params, **kwargs):
            seen["params"] = params
            return fit_beats(hist, params, **kwargs)

        monkeypatch.setattr(bp.timecorr, "fit_beats", spy)
        payload = run_json(capsys, "fit-g2", "--hist", "hist.csv", "--preset", "fig3",
                           "--r", "0.5", "--tau-x", "6")
        assert seen["params"] == replace(bp.FIGURE_PRESETS["fig3"].model, r=0.5, tau_x=6.0)
        assert payload["fit"]["params"]["r"] == 0.5

    @pytest.mark.parametrize("argv, flag", [
        (["--preset", "fig3", "--r", "0", "--tau-rise", "7"], "--tau-rise"),
        (["--model", "single", "--tau-x", "3"], "--tau-x"),
        (["--preset", "fig2x", "--model", "single"], "--model"),
        (["--model", "single", "--free", "g0,tau_x,nonsense"], "--free"),
        (["--preset", "fig2x", "--free", "g0"], "--free"),
    ], ids=["preset-lacks-flag", "model-lacks-flag", "preset-and-model", "single-free", "single-preset-free"])
    def test_fit_rejects_model_flag(self, capsys, tmp_path, monkeypatch, argv, flag):
        monkeypatch.chdir(tmp_path)
        run(capsys, "simulate-g2", "--preset", "fig2x", "--seed", "6", "--out", "hist.csv")
        code, out, err = run(capsys, "fit-g2", "--hist", "hist.csv", *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and flag in err and err.count("\n") == 1

    @pytest.mark.parametrize("starts, line, message", [
        ("3,2,1", 3, "bin starts must increase by a finite width"),
        ("1,1,1", 3, "bin starts must increase by a finite width"),
        ("-1.7e308,1.7e308", 3, "bin starts must increase by a finite width"),
        ("1.2e308,1.7e308", 3, "the last bin ends beyond the float range"),
        ("-1e308,-0.2e308,0.6e308,1.4e308", 5, "the last bin ends beyond the float range"),
    ], ids=["descending", "repeated", "width-overflow", "end-overflow", "end-overflow-4-bins"])
    @pytest.mark.parametrize("model", [["--model", "single"], ["--preset", "fig3"]], ids=["single", "fig3"])
    def test_unusable_bin_grid_names_line(self, capsys, tmp_path, monkeypatch, starts, line, message, model):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.csv").write_text("bin_start_ns,counts\n" + "".join(f"{s},5\n" for s in starts.split(",")))
        code, out, err = run(capsys, "fit-g2", "--hist", "g.csv", *model)
        assert (code, out, err) == (1, "", f"error: line {line}, field 'bin_start_ns': {message}\n")


class TestBeatParamsCommand:
    def test_from_projectors(self, capsys):
        payload = run_json(
            capsys, "beat-params", "--path-x", "X", "--path-y", "Y",
            "--proj-s", "L", "--proj-i", "0.7,0.57,0,0.41",
        )
        assert payload["source"] == "projection"
        assert payload["r"] > 0.0
        # oracle: compute from the library directly
        ket_x = bp.ket_from_path(bp.predict_path_state(bp.PATH_X))
        ket_y = bp.ket_from_path(bp.predict_path_state(bp.PATH_Y))
        proj_s = bp.named_projector("L")
        proj_i = bp.Projector.normalized(0.7 + 0.57j, 0.41j)
        r, phi = bp.beat_params(ket_x, ket_y, proj_s, proj_i)
        assert payload["r"] == pytest.approx(r, abs=1e-12)
        assert payload["phi"] == pytest.approx(phi, abs=1e-12)

    def test_missing_projectors_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["beat-params", "--path-x", "X"])

    def test_paths_default_to_x_and_y(self, capsys):
        projectors = ("--proj-s", "H", "--proj-i", "V")
        default = run_json(capsys, "beat-params", *projectors)
        explicit = run_json(capsys, "beat-params", "--path-x", "X", "--path-y", "Y", *projectors)
        assert (default["r"], default["phi"]) == (explicit["r"], explicit["phi"])

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_ket_file_and_path_of_one_axis_rejected(self, capsys, tmp_path, axis):
        run(capsys, "predict", "--path", "X", "--out", str(tmp_path / "x.json"))
        with pytest.raises(SystemExit) as exc:
            main(["beat-params", f"--ket-{axis}", str(tmp_path / "x.json"), f"--path-{axis}", "Y",
                  "--proj-s", "H", "--proj-i", "V"])
        assert exc.value.code == 2
        assert f"argument --path-{axis}: not allowed with argument --ket-{axis}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["resample", "--counts", "c.csv", "--resamples", "3"],
                                  ["beat-params", "--r", "1", "--phi", "0"]],
                         ids=["resample", "beat-params-r-phi"])
def test_removed_modes_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: biphoton")


@pytest.mark.parametrize("simulate, command, oversize", [
    (["simulate-tomo", "--path", "X", "--n", "1e3", "--seed", "1", "--out", "in.csv"],
     ["reconstruct", "--counts", "in.csv"], "H" * 200_000),
    (["simulate-g2", "--preset", "fig2x", "--seed", "1", "--out", "in.csv"],
     ["fit-g2", "--hist", "in.csv", "--preset", "fig2x"], "1" * 200_000),
], ids=["counts-label", "histogram-bin-start"])
def test_oversize_field_names_line(capsys, tmp_path, monkeypatch, simulate, command, oversize):
    """A first field past the csv module's 131,072-character limit is a format error."""
    monkeypatch.chdir(tmp_path)
    run(capsys, *simulate)
    lines = (tmp_path / "in.csv").read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    lines[header + 1] = ",".join([oversize] + lines[header + 1].split(",")[1:])
    (tmp_path / "in.csv").write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, *command)
    assert code == 1 and out == ""
    assert err.startswith(f"error: line {header + 2}, field 'row': field larger than field limit")
    assert err.count("\n") == 1


def test_quoted_line_break_keeps_line_numbers(capsys, tmp_path, monkeypatch):
    """A quoted field that spans two lines does not shift later rows' line numbers."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "h.csv").write_text('bin_start_ns,counts\n-26,1\n"-25\n",14\n-24,3\n-23,abc\n')
    code, out, err = run(capsys, "fit-g2", "--hist", "h.csv", "--model", "single")
    assert (code, out, err) == (1, "", "error: line 6, field 'counts': not a number: 'abc'\n")


class TestBadFlagValues:
    """Each bad value exits 1 with one error line that names its flag."""

    @pytest.mark.parametrize("argv, flag", [
        (["predict", "--levels", "2,2,3,1/0"], "--levels"),
        (["predict", "--levels", "2,2,3,inf"], "--levels"),
        (["predict", "--levels", "2,2,3,1e400"], "--levels"),
        (["reconstruct", "--counts", "counts.csv", "--subtract-background", "-5"], "--subtract-background"),
        (["reconstruct", "--counts", "counts.csv", "--subtract-background", "nan"], "--subtract-background"),
        (["reconstruct", "--counts", "counts.csv", "--subtract-background", "1e9"], "--subtract-background"),
        (["reconstruct", "--counts", "counts.csv", "--method", "linear", "--subtract-background", "1e9"],
         "--subtract-background"),
        (["simulate-g2", "--preset", "fig3", "--g0", "nan", "--out", "h.csv"], "--g0"),
        (["fit-g2", "--hist", "h.csv", "--model", "single", "--g0", "nan"], "--g0"),
        (["predict", "--levels", "1e300,1e300,1e300,1e300"], "--levels"),
        (["predict", "--levels", "2.3,2,3,3"], "--levels"),
        (["predict", "--levels=-1,2,3,3"], "--levels"),
        (["beat-params", "--proj-s", ",,,", "--proj-i", "H"], "--proj-s"),
        (["beat-params", "--proj-s", "H", "--proj-i", "0,0,0,0"], "--proj-i"),
        (["simulate-g2", "--preset", "fig9", "--out", "h.csv"], "--preset"),
        (["fit-g2", "--hist", "h.csv", "--preset", "fig9"], "--preset"),
        (["simulate-g2", "--preset", "fig3", "--seed", "-1", "--out", "h.csv"], "--seed"),
        (["reconstruct", "--counts", "counts.csv", "--resamples", "1"], "--resamples"),
        (["reconstruct", "--counts", "counts.csv", "--resamples", "-3"], "--resamples"),
        (["reconstruct", "--counts", "one.csv", "--resamples", "20", "--seed", "1"], "--resamples"),
        (["simulate-tomo", "--path", "X", "--n", "0", "--out", "c.csv"], "--n"),
        (["simulate-tomo", "--path", "X", "--n", "1e300", "--out", "c.csv"], "--n"),
        (["simulate-g2", "--preset", "fig3", "--g0", "1e200", "--out", "h2.csv"], "--g0"),
        (["simulate-g2", "--preset", "fig2x", "--g0", "1e300", "--out", "h2.csv"], "--g0"),
        (["simulate-g2", "--preset", "fig3", "--tau-x", "1e-320", "--out", "h2.csv"], "--tau-x"),
        (["fit-g2", "--hist", "h3.csv", "--preset", "fig3", "--g0", "1e200"], "--g0"),
        (["fit-g2", "--hist", "h3.csv", "--preset", "fig3", "--r", "1e200"], "--r"),
        (["fit-g2", "--hist", "h3.csv", "--preset", "fig3", "--tau-x", "1e-320"], "--tau-x"),
        (["fit-g2", "--hist", "h3.csv", "--preset", "fig3", "--free", "g0,background,tau_x", "--tau-x", "1e200"],
         "--tau-x"),
        (["fit-g2", "--hist", "h3.csv", "--preset", "fig3", "--free", "g0,background,tau_y", "--tau-y", "1e200"],
         "--tau-y"),
        (["fit-g2", "--hist", "h.csv", "--preset", "fig2x", "--g0", "1e308"], "--g0"),
        (["simulate-g2", "--preset", "fig3", "--bin-width", "1e-320", "--out", "h2.csv"], "--bin-width"),
        (["simulate-g2", "--preset", "fig3", "--t-min=-1e308", "--t-max", "1e308", "--out", "h2.csv"],
         "--bin-width"),
        (["simulate-g2", "--preset", "fig3", "--bin-width", "1e-300", "--t-min", "0", "--t-max", "1",
          "--out", "h2.csv"], "--bin-width"),
    ], ids=["levels-1/0", "levels-inf", "levels-1e400", "background-negative", "background-nan",
            "background-zeroes-all-mle", "background-zeroes-all-linear",
            "simulate-g0-nan", "fit-g0-nan", "levels-1e300", "levels-not-half-integer", "levels-negative",
            "proj-s-empty",
            "proj-i-zero", "simulate-preset", "fit-preset", "seed-negative", "resamples-one",
            "resamples-negative", "resample-empty", "n-zero", "n-above-poisson-limit", "beats-g0-overflow",
            "single-g0-above-poisson-limit", "simulate-tau-x-underflow", "fit-beats-g0-overflow",
            "fit-r-overflow", "fit-tau-x-underflow", "fit-free-tau-x-overflow", "fit-free-tau-y-overflow",
            "fit-single-g0-sum-overflow",
            "bin-count-infinite", "bin-count-infinite-range", "bin-count-above-max"])
    def test_rejected_with_flag_named(self, capsys, tmp_path, monkeypatch, argv, flag):
        monkeypatch.chdir(tmp_path)
        run(capsys, "simulate-tomo", "--path", "X", "--n", "1e3", "--seed", "1", "--out", "counts.csv")
        # one count in all: a Poisson redraw of it is empty with probability 1/e
        records = bp.tomography.read_counts_csv("counts.csv")
        bp.tomography.write_counts_csv([replace(r, counts=float(k == 0)) for k, r in enumerate(records)], "one.csv")
        run(capsys, "simulate-g2", "--preset", "fig2x", "--seed", "1", "--out", "h.csv")
        run(capsys, "simulate-g2", "--preset", "fig3", "--seed", "1", "--out", "h3.csv")
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and flag in err and err.count("\n") == 1


class TestBadFlagMessages:
    def test_projector_spec_named(self, capsys):
        code, _, err = run(capsys, "beat-params", "--proj-s", ",,,", "--proj-i", "H")
        assert code == 1
        assert "--proj-s" in err and "',,,'" in err and "could not convert" not in err

    @pytest.mark.parametrize("argv", [["simulate-g2", "--preset", "fig9", "--out", "h.csv"],
                                      ["fit-g2", "--hist", "h.csv", "--preset", "fig9"]])
    def test_bad_preset_lists_the_presets(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, *argv)
        assert code == 1 and err.startswith("error: --preset")
        assert all(name in err for name in bp.FIGURE_PRESETS)
        assert not (tmp_path / "h.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["fit-g2", "--hist", "h.csv", "--preset", "fig3", "--r", "-1"], "--r must be non-negative"),
        (["fit-g2", "--hist", "h.csv", "--preset", "fig3", "--background", "-2"],
         "--background must be non-negative"),
        (["fit-g2", "--hist", "h.csv", "--model", "single", "--tau-decay", "-5"], "--tau-decay must be positive"),
        (["fit-g2", "--hist", "h.csv", "--model", "beats", "--tau-x", "-5", "--tau-y", "13.1", "--r", "1",
          "--phi", "0"], "--tau-x must be positive"),
        (["fit-g2", "--hist", "h.csv", "--model", "beats", "--tau-x", "5.6", "--tau-y", "13.1", "--r", "-1",
          "--phi", "0"], "--r must be non-negative"),
        (["simulate-g2", "--preset", "fig2x", "--tau-decay", "-5", "--out", "x.csv"], "--tau-decay must be positive"),
        (["simulate-g2", "--preset", "fig3", "--g0", "0", "--out", "x.csv"], "--g0 must be positive"),
        (["simulate-g2", "--preset", "fig3", "--delta", "-1", "--out", "x.csv"], "--delta must be positive"),
        (["fit-g2", "--hist", "h.csv", "--preset", "fig3", "--free", "g0,g0"],
         "--free 'g0,g0': free parameter 'g0' is named twice"),
        (["fit-g2", "--hist", "h.csv", "--preset", "fig3", "--free", "g0,wavelength"],
         "--free 'g0,wavelength': unknown free parameter 'wavelength'"),
        (["fit-g2", "--hist", "h.csv", "--preset", "fig3", "--free", "background"],
         "--free 'background': the amplitude scale g0 must be free"),
        (["reconstruct", "--counts", "h.csv", "--method", "linear", "--resamples", "1", "--out", "x.csv"],
         "--resamples is the MLE bootstrap and cannot be combined with --method linear"),
        (["reconstruct", "--counts", "h.csv", "--method", "linear", "--resamples", "3", "--out", "x.csv"],
         "--resamples is the MLE bootstrap and cannot be combined with --method linear"),
        (["simulate-g2", "--model", "beats", "--out", "x.csv"],
         "--bin-width, --t-min and --t-max are required without --preset"),
        (["fit-g2", "--hist", "h.csv", "--model", "beats", "--tau-x", "5.6"],
         "beats fit needs --preset or all of --tau-x, --tau-y, --r, --phi"),
    ], ids=["fit-r", "fit-background", "fit-single-tau", "fit-beats-tau", "fit-beats-r", "simulate-tau",
            "simulate-g0", "simulate-delta", "free-repeated", "free-unknown", "free-without-g0",
            "linear-resamples-1", "linear-resamples-3", "simulate-beats-without-grid",
            "fit-beats-without-shape"])
    def test_model_value_named_by_flag(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        run(capsys, "simulate-g2", "--preset", "fig3", "--seed", "1", "--out", "h.csv")
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not (tmp_path / "x.csv").exists()

    def test_huge_levels_rejected_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "predict", "--levels", "1e300,1e300,1e300,1e300")
        assert time.perf_counter() - start < 5.0
        assert code == 1 and out == "" and "--levels" in err


class TestDeterminism:
    def test_simulate_tomo_byte_identical(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ("simulate-tomo", "--path", "X", "--n", "1e4", "--seed", "42",
                "--out", "counts.csv")
        run(capsys, *argv)
        first = (tmp_path / "counts.csv").read_bytes()
        run(capsys, *argv)
        assert (tmp_path / "counts.csv").read_bytes() == first

    def test_reconstruct_byte_identical(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(capsys, "simulate-tomo", "--path", "X", "--n", "1e4", "--seed", "42",
            "--out", "counts.csv")
        argv = ("reconstruct", "--counts", "counts.csv", "--resamples", "4",
                "--seed", "1", "--out", "result.json")
        run(capsys, *argv)
        first = (tmp_path / "result.json").read_bytes()
        run(capsys, *argv)
        assert (tmp_path / "result.json").read_bytes() == first

    def test_meta_block_contents(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(capsys, "simulate-tomo", "--path", "X", "--n", "1e3", "--seed", "8",
            "--out", "counts.csv")
        payload = run_json(capsys, "reconstruct", "--counts", "counts.csv")
        meta = payload["meta"]
        assert meta["tool"] == "biphoton"
        assert meta["version"] == bp.__version__
        assert meta["seed"] == 12345  # default seed recorded
        assert meta["inputs"]["counts.csv"].startswith("sha256:")
        assert "reconstruct" in meta["command"]
