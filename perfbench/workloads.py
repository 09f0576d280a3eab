"""The three workloads: inputs made from the seed, one operation, and its checks.

``cycle()`` returns the inputs of the next cycle, the same mix in every
cycle and every run.  ``run`` performs one operation and returns what the
program produced; an operation the program refuses raises from ``run`` and
counts as failed.  ``check`` compares the output with the reference
computations in ``oracle``.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
from oracle import CheckFailed, check, check_close, check_density, check_within_sigmas

# Key of the inputs on which the program's MLE runs: the tomography datasets,
# their bootstrap seeds and the CLI's tomography chain.  They do not depend
# on --seed, so that a dataset the program refuses is refused in every run
# and the failed share stays the same (README, "Known faults").
TOMO_KEY = 20150520


def _rng_seeds(*key: int, n: int = 1) -> list[int]:
    """n independent 32-bit seeds derived from the integers in key."""
    return [int(s) for s in np.random.SeedSequence(list(key)).generate_state(n)]


def _linear(matrix, basis: str) -> np.ndarray:
    return np.asarray(matrix) if basis == "linear" else oracle.density_to_linear(matrix)


# ---------------------------------------------------------------------------
# tomo_bootstrap


@dataclass
class TomoInput:
    label: str
    settings: list
    counts: np.ndarray
    vectors: np.ndarray
    target: object
    target_linear: np.ndarray
    ll_true: float
    boot_seed: int

    def records(self, bp) -> list:
        return [bp.CountsRecord(s, int(c), 1.0) for s, c in zip(self.settings, self.counts)]


class TomoBootstrap:
    """reconstruct_mle, the four indicators and a fixed-size bootstrap per dataset.

    Twelve kinds: three generating states (path X, path Y, and a mixture of
    both with white noise) times both standard setting sets times a low and
    a high mean count per setting.  A cycle analyses every dataset of a fixed
    pool, DATASETS of each kind, in an order drawn from the seed.  The pool
    is drawn from TOMO_KEY and was not screened.
    """

    name = "tomo_bootstrap"
    in_process = True
    RESAMPLES = 5
    COUNTS = (1e3, 1e5)
    DATASETS = 2

    def __init__(self, bp, seed: int):
        self.bp = bp
        ket_x = bp.ket_from_path(bp.predict_path_state(bp.PATH_X))
        ket_y = bp.ket_from_path(bp.predict_path_state(bp.PATH_Y))
        rho_x = bp.density_from_ket(ket_x).matrix
        rho_y = bp.density_from_ket(ket_y).matrix
        mixed = 0.5 * rho_x + 0.4 * rho_y + 0.1 * np.eye(4) / 4.0
        self.states = {
            "X": (oracle.density_to_linear(rho_x), ket_x),
            "Y": (oracle.density_to_linear(rho_y), ket_y),
            "mixed": (oracle.density_to_linear(mixed), ket_x),
        }
        self.settings = {}
        for kind in ("overcomplete36", "minimal16"):
            settings = bp.standard_settings(kind)
            vectors = oracle.setting_vectors([s.label for s in settings])
            program = np.array([np.kron(s.proj_s.vector("linear"), s.proj_i.vector("linear")) for s in settings])
            check(np.allclose(program, vectors, atol=1e-15, rtol=0.0),
                  f"standard_settings({kind!r}) analyzers differ from their labels")
            self.settings[kind] = (settings, vectors)
        kinds = [(state, kind, n) for state in self.states for kind in self.settings for n in self.COUNTS]
        self.pool = [self._make(k, j, *kinds[k]) for k in range(len(kinds)) for j in range(self.DATASETS)]
        self._order = np.random.default_rng(_rng_seeds(seed, 1))

    def cycle(self) -> list[TomoInput]:
        return [self.pool[i] for i in self._order.permutation(len(self.pool))]

    def _make(self, k, j, state, kind, n) -> TomoInput:
        data_seed, boot_seed = _rng_seeds(TOMO_KEY, 1, k, j, n=2)
        rho, ket = self.states[state]
        settings, vectors = self.settings[kind]
        probs = np.clip(oracle.born_probabilities(rho, vectors), 0.0, None)
        counts = np.random.default_rng(data_seed).poisson(n * probs).astype(float)
        return TomoInput(
            label=f"{state}/{kind}/{n:g}/{j}",
            settings=settings,
            counts=counts,
            vectors=vectors,
            target=ket,
            target_linear=oracle.ket_to_linear(ket.amplitudes),
            ll_true=oracle.profiled_log_likelihood(rho, vectors, counts, np.ones(len(settings))),
            boot_seed=boot_seed,
        )

    def run(self, inp: TomoInput):
        bp = self.bp
        records = inp.records(bp)  # fresh records each time
        rho = bp.reconstruct_mle(records).rho
        values = {
            "purity": bp.purity(rho),
            "concurrence": bp.concurrence(rho),
            "entanglement_of_formation": bp.entanglement_of_formation(rho),
            "fidelity": bp.fidelity(rho, inp.target),
        }
        stats = bp.resample_uncertainties(records, self.RESAMPLES, inp.boot_seed, target=inp.target)
        return rho, values, stats

    # The likelihood must be no lower than that of the generating state; the
    # slack covers the optimizer's stopping tolerance only.
    LL_SLACK = 1e-9
    TOLERANCES = {"purity": 1e-9, "fidelity": 1e-9, "concurrence": 1e-9, "entanglement_of_formation": 1e-9}

    def check(self, inp: TomoInput, out) -> None:
        rho, values, stats = out
        m = _linear(rho.matrix, rho.basis)
        check_density(m)
        ll = oracle.profiled_log_likelihood(m, inp.vectors, inp.counts, np.ones(len(inp.counts)))
        check(ll >= inp.ll_true - self.LL_SLACK * max(1.0, abs(inp.ll_true)),
              f"{inp.label}: MLE log-likelihood {ll!r} below the generating state's {inp.ll_true!r}")
        reference = oracle.indicators(m, inp.target_linear)
        for name, tol in self.TOLERANCES.items():
            check_close(f"{inp.label} {name}", values[name], reference[name], tol)
        for name in self.TOLERANCES:
            s = stats[name]
            check(math.isfinite(s.mean) and math.isfinite(s.std) and s.std > 0.0,
                  f"{inp.label}: bootstrap {name} mean {s.mean!r}, std {s.std!r}")


# ---------------------------------------------------------------------------
# g2_fits


@dataclass
class FitInput:
    label: str
    preset: str
    free: tuple | None
    hist: object


class G2Fits:
    """One Levenberg-Marquardt fit per operation, on a histogram drawn from exact bin averages.

    A cycle holds one fresh histogram for each of nine fit kinds: fit_single
    from estimate_single_init for fig2x and fig2y, fit_beats with the default
    free set for fig3 and fig4a-c, and fit_beats with g0,background,r,phi,delta
    free for fig3, fig4b and fig4c.  fig4a with r, phi and delta free is left
    out: at r = 2.86e-2 those fits take up to 90 model evaluations, and the
    latency tail they set moved by 15-20 % from seed to seed (README).
    """

    name = "g2_fits"
    in_process = True
    FREE_WIDE = ("g0", "background", "r", "phi", "delta")
    # The background is left out of the checks: the Neyman weights of the
    # fits bias it low by several sigma.
    Z_LIMIT = 8.0

    def __init__(self, bp, seed: int):
        self.bp = bp
        self.seed = seed
        self.presets = bp.FIGURE_PRESETS
        self.kinds = [("fig2x", None), ("fig2y", None)]
        self.kinds += [(p, None) for p in ("fig3", "fig4a", "fig4b", "fig4c")]
        self.kinds += [(p, self.FREE_WIDE) for p in ("fig3", "fig4b", "fig4c")]
        self.means = [preset_bin_means(self.presets[p]) for p, _ in self.kinds]
        self._draws = [0] * len(self.kinds)

    def cycle(self) -> list[FitInput]:
        return [self._draw(k) for k in range(len(self.kinds))]

    def _draw(self, k: int) -> FitInput:
        preset, free = self.kinds[k]
        p = self.presets[preset]
        (hist_seed,) = _rng_seeds(self.seed, 2, k, self._draws[k])
        self._draws[k] += 1
        counts = np.random.default_rng(hist_seed).poisson(self.means[k]).astype(float)
        label = preset + ("/" + ",".join(free) if free else "")
        return FitInput(label, preset, free, self.bp.CoincidenceHistogram(p.bin_width, p.t_range[0], counts))

    def run(self, inp: FitInput):
        bp = self.bp
        if isinstance(self.presets[inp.preset].model, bp.SinglePathParams):
            return bp.fit_single(inp.hist, bp.timecorr.estimate_single_init(inp.hist))
        if inp.free is None:
            return bp.fit_beats(inp.hist, self.presets[inp.preset].model)
        return bp.fit_beats(inp.hist, self.presets[inp.preset].model, free=inp.free)

    def check(self, inp: FitInput, fit) -> None:
        params = {name: getattr(fit.params, name) for name in fit.sigmas if hasattr(fit.params, name)}
        check_fit(inp.label, self.presets[inp.preset].model, params, fit.sigmas)


def preset_bin_means(preset) -> np.ndarray:
    """Exact bin averages of a figure preset's model over its window."""
    m = preset.model
    n_bins = int(round((preset.t_range[1] - preset.t_range[0]) / preset.bin_width))
    if hasattr(m, "tau_rise"):
        return oracle.single_bin_means(m.g0, m.tau_rise, m.tau_decay, m.background,
                                       preset.t_range[0], preset.bin_width, n_bins)
    return oracle.beats_bin_means(m.g0, m.tau_x, m.tau_y, m.r, m.phi, m.delta, m.background,
                                  preset.t_range[0], preset.bin_width, n_bins)


def check_fit(label: str, true, params: dict, sigmas: dict) -> None:
    """Every fitted parameter but the background lies within Z_LIMIT sigmas of the true value."""
    got = {name: params[name] for name in sigmas if name in params}
    if "r" in got and got["r"] < 0.0:
        # (r, phi) and (-r, phi + pi) give the same model
        got["r"], got["phi"] = -got["r"], got["phi"] + math.pi
    if "phi" in got:
        got["phi"] = true.phi + math.remainder(got["phi"] - true.phi, 2.0 * math.pi)
    check("g0" in got, f"{label}: fit reports no g0 uncertainty")
    for name, value in got.items():
        if name != "background":
            check_within_sigmas(f"{label} {name}", value, getattr(true, name), sigmas[name], G2Fits.Z_LIMIT)


# ---------------------------------------------------------------------------
# cli_cold


@dataclass
class Invocation:
    argv: list[str]
    expected: bytes | None = field(default=None, repr=False)

    @property
    def kind(self) -> str:
        return self.argv[0]

    @property
    def artifact(self) -> Path:
        return Path(self.argv[self.argv.index("--out") + 1])


class CliCold:
    """One `biphoton` invocation in a fresh interpreter per operation.

    The cycle runs two tomography chains (predict, simulate-tomo,
    reconstruct by MLE with three resamples or by linear inversion), two
    histogram chains (simulate-g2 then fit-g2, for fig3 and for fig2x with
    the initial values estimated) and one beat-params projection.  The
    tomography chains' seeds come from TOMO_KEY, the others from the seed.
    """

    name = "cli_cold"
    in_process = False

    def __init__(self, bp, seed: int, workdir: Path, env: dict):
        self.bp = bp
        self.env = env
        workdir.mkdir(parents=True, exist_ok=True)
        d = lambda name: str(workdir / name)  # noqa: E731
        tomo_sim, tomo_boot = (str(s) for s in _rng_seeds(TOMO_KEY, 3, n=2))
        g2_fig3, g2_fig2x, pick = _rng_seeds(seed, 3, n=3)
        ket_x = oracle.ket_to_linear(bp.ket_from_path(bp.predict_path_state(bp.PATH_X)).amplitudes)
        ket_y = oracle.ket_to_linear(bp.ket_from_path(bp.predict_path_state(bp.PATH_Y)).amplitudes)
        self.path_kets = {"X": ket_x, "Y": ket_y}
        pairs = [(s, i) for s in oracle.ANALYZERS for i in oracle.ANALYZERS
                 if abs(np.kron(oracle.ANALYZERS[s], oracle.ANALYZERS[i]).conj() @ ket_x) > 0.1]
        proj_s, proj_i = pairs[pick % len(pairs)]
        self.inputs = [
            Invocation(["predict", "--path", "X", "--out", d("x.json")]),
            Invocation(["simulate-tomo", "--ket", d("x.json"), "--n", "1e4", "--seed", tomo_sim, "--out", d("cx.csv")]),
            Invocation(["reconstruct", "--counts", d("cx.csv"), "--target", d("x.json"), "--resamples", "3",
                        "--seed", tomo_boot, "--out", d("rx.json")]),
            Invocation(["simulate-tomo", "--path", "Y", "--n", "1e5", "--seed", tomo_sim, "--out", d("cy.csv")]),
            Invocation(["reconstruct", "--counts", d("cy.csv"), "--method", "linear", "--target-path", "Y",
                        "--out", d("ry.json")]),
            Invocation(["simulate-g2", "--preset", "fig3", "--seed", str(g2_fig3), "--out", d("hb.csv")]),
            Invocation(["fit-g2", "--hist", d("hb.csv"), "--preset", "fig3", "--out", d("fb.json")]),
            Invocation(["simulate-g2", "--preset", "fig2x", "--seed", str(g2_fig2x), "--out", d("hs.csv")]),
            Invocation(["fit-g2", "--hist", d("hs.csv"), "--model", "single", "--out", d("fs.json")]),
            Invocation(["beat-params", "--proj-s", proj_s, "--proj-i", proj_i, "--out", d("beat.json")]),
        ]

    def cycle(self) -> list[Invocation]:
        return self.inputs

    def command(self, inv: Invocation) -> list[str]:
        return [sys.executable, "-m", "biphoton.cli", *inv.argv]

    def run(self, inv: Invocation):
        proc = subprocess.run(self.command(inv), env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=170)
        if proc.returncode != 0:
            message = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            raise RuntimeError(f"{inv.kind} exited {proc.returncode}: {message}")
        return inv.artifact.read_bytes()

    def run_in_process(self, inv: Invocation, tracer) -> None:
        """The same invocation through cli.main in this process, for the traced run's cli layer."""
        from biphoton import cli

        with tracer.span(f"cli.{inv.kind}"):
            code = cli.main(list(inv.argv))
        check(code == 0, f"{inv.kind} in process returned {code}")
        check(inv.artifact.read_bytes() == inv.expected, f"{inv.kind}: in-process artifact differs from the child's")

    def check(self, inv: Invocation, data: bytes) -> None:
        if inv.expected is None:
            getattr(self, "_check_" + inv.kind.replace("-", "_"))(inv, data)
            inv.expected = data
        else:
            check(data == inv.expected, f"{inv.kind}: artifact differs from the earlier run with the same seed")

    # -- content checks, made once per artifact --------------------------------

    def _json(self, data: bytes) -> dict:
        try:
            return json.loads(data)
        except ValueError as exc:
            raise CheckFailed(f"artifact is not JSON: {exc}")

    def _check_predict(self, inv, data) -> None:
        payload = self._json(data)
        amps = np.array([complex(*z) for z in payload["ket_circular"]["amplitudes"]])
        # |LR|^2 : |RL|^2 = 4 : 9 with opposite signs for path X
        check_close("predict |LR|^2", abs(amps[1]) ** 2, 4.0 / 13.0, 1e-12)
        check_close("predict |RL|^2", abs(amps[2]) ** 2, 9.0 / 13.0, 1e-12)
        check(abs(amps[0]) + abs(amps[3]) == 0.0 and (amps[1] * amps[2]).real < 0.0,
              "predict: co-rotating amplitudes or relative sign wrong")
        lin = np.array([complex(*z) for z in payload["ket_linear"]["amplitudes"]])
        check(np.allclose(lin, oracle.ket_to_linear(amps), atol=1e-12), "predict: ket_linear is not ket_circular")
        ref = oracle.indicators(np.outer(lin, lin.conj()), lin)
        for name in ("purity", "concurrence", "entanglement_of_formation"):
            check_close(f"predict {name}", payload["metrics"][name], ref[name], 1e-9)

    def _read_counts(self, path: Path):
        labels, counts = [], []
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        for row in lines[1:]:
            fields = row.split(",")
            labels.append(fields[0])
            counts.append(float(fields[9]))
            comps = [float(x) for x in fields[1:9]]
            want = np.concatenate([oracle.ANALYZERS[fields[0][0]], oracle.ANALYZERS[fields[0][1]]])
            got = np.array([complex(comps[0], comps[1]), complex(comps[2], comps[3]),
                            complex(comps[4], comps[5]), complex(comps[6], comps[7])])
            check(np.allclose(got, want, atol=1e-12), f"counts row {fields[0]}: analyzer components wrong")
        return labels, np.array(counts)

    def _source(self, argv) -> np.ndarray:
        return self.path_kets["Y" if "--path" in argv and argv[argv.index("--path") + 1] == "Y" else "X"]

    def _check_simulate_tomo(self, inv, data) -> None:
        labels, counts = self._read_counts(inv.artifact)
        check(len(labels) == 36, f"simulate-tomo wrote {len(labels)} rows, not 36")
        check(bool(np.all(counts >= 0) and np.all(counts == np.round(counts))), "simulate-tomo: counts not whole")
        ket = self._source(inv.argv)
        n = float(inv.argv[inv.argv.index("--n") + 1])
        mean = n * oracle.born_probabilities(np.outer(ket, ket.conj()), oracle.setting_vectors(labels)).sum()
        check_within_sigmas("simulate-tomo total counts", counts.sum(), mean, math.sqrt(mean), 8.0)

    def _check_reconstruct(self, inv, data) -> None:
        payload = self._json(data)
        m = _linear([[complex(*z) for z in row] for row in payload["rho"]["matrix"]], payload["rho"]["basis"])
        counts_path = Path(inv.argv[inv.argv.index("--counts") + 1])
        labels, counts = self._read_counts(counts_path)
        source = next(i for i in self.inputs if i.artifact == counts_path)
        ket = self._source(source.argv)
        if payload["method"] == "mle":
            check_density(m)
            vectors = oracle.setting_vectors(labels)
            ones = np.ones(len(labels))
            ll = oracle.profiled_log_likelihood(m, vectors, counts, ones)
            ll_true = oracle.profiled_log_likelihood(np.outer(ket, ket.conj()), vectors, counts, ones)
            check(ll >= ll_true - TomoBootstrap.LL_SLACK * abs(ll_true), "reconstruct: MLE below the true state")
            for name, s in payload["resampled_metrics"].items():
                check(s["std"] is not None and math.isfinite(s["std"]) and s["std"] > 0.0,
                      f"reconstruct: bootstrap std of {name} is {s['std']!r}")
        else:
            check_density(m, eig_floor=-1e-2)
        ref = oracle.indicators(m, ket)
        if payload["method"] == "linear" and np.linalg.eigvalsh(m)[0] < 0.0:
            # Linear inversion may return negative eigenvalues: concurrence is
            # then undefined, and the program clips fidelity into [0, 1].
            ref = {"purity": ref["purity"], "fidelity": min(1.0, max(0.0, ref["fidelity"]))}
        for name, value in ref.items():
            check_close(f"reconstruct {name}", payload["metrics"][name], value, TomoBootstrap.TOLERANCES[name])

    def _read_hist(self, path: Path) -> np.ndarray:
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        check(lines[0] == "bin_start_ns,counts", "histogram header wrong")
        return np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])

    def _check_simulate_g2(self, inv, data) -> None:
        table = self._read_hist(inv.artifact)
        preset = self.bp.FIGURE_PRESETS[inv.argv[inv.argv.index("--preset") + 1]]
        width = preset.bin_width
        check(np.allclose(np.diff(table[:, 0]), width) and table[0, 0] == preset.t_range[0],
              "simulate-g2: bin edges wrong")
        counts = table[:, 1]
        check(bool(np.all(counts >= 0) and np.all(counts == np.round(counts))), "simulate-g2: counts not whole")
        mean = preset_bin_means(preset).sum()
        check_within_sigmas("simulate-g2 total counts", counts.sum(), mean, math.sqrt(mean), 8.0)

    def _check_fit_g2(self, inv, data) -> None:
        payload = self._json(data)
        hist_path = Path(inv.argv[inv.argv.index("--hist") + 1])
        source = next(i for i in self.inputs if i.artifact == hist_path)
        preset = source.argv[source.argv.index("--preset") + 1]
        fit = payload["fit"]
        sigmas = {k: (math.inf if v is None else v) for k, v in fit["sigmas"].items()}
        check_fit(f"fit-g2 {preset}", self.bp.FIGURE_PRESETS[preset].model, fit["params"], sigmas)

    def _check_beat_params(self, inv, data) -> None:
        payload = self._json(data)
        s, i = inv.argv[inv.argv.index("--proj-s") + 1], inv.argv[inv.argv.index("--proj-i") + 1]
        r, phi = oracle.beat_ratio(self.path_kets["X"], self.path_kets["Y"], oracle.ANALYZERS[s], oracle.ANALYZERS[i])
        check_close("beat-params r", payload["r"], r, 1e-9)
        check_close("beat-params phi", math.remainder(payload["phi"] - phi, 2.0 * math.pi), 0.0, 1e-9)
