"""Time-resolved coincidence models, synthetic histograms, and fits.

The single-path model is a rising/falling exponential around zero delay; the
two-path model adds the interference of two decay amplitudes with different
coherence times and a frequency splitting, which modulates the coincidence
rate ("quantum beats").  Expected bin contents are the model integrated
exactly over each bin, never a bin-center value.  Fits maximize the Poisson
likelihood of the counts by damped Fisher scoring; ``chi2`` is the Poisson
deviance and ``iterations`` counts the scoring steps.

Histogram CSV format: header ``bin_start_ns,counts`` ('#' comment lines may
precede it).  Fit reports serialize as {params, sigmas, chi2_reduced, n_dof,
iterations}; a fit that does not converge raises FitConvergenceError.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .csvio import FileFormatError, format_number, parse_float, read_csv, write_csv

__all__ = [
    "DEFAULT_DELTA",
    "BeatModelParams",
    "CoincidenceHistogram",
    "FIGURE_PRESETS",
    "FitConvergenceError",
    "FitDegenerateError",
    "FitResult",
    "HistogramPreset",
    "SinglePathParams",
    "estimate_single_init",
    "fit_beats",
    "fit_single",
    "g2_beats",
    "g2_single",
    "read_histogram_csv",
    "simulate_histogram",
    "write_histogram_csv",
]

#: Beat angular frequency for a 266 MHz level splitting, in rad/ns.
DEFAULT_DELTA = 2.0 * math.pi * 0.266


class FitDegenerateError(RuntimeError):
    """The fit Jacobian is singular; the requested parameters are not identifiable."""


class FitConvergenceError(RuntimeError):
    """Fit did not converge; carries the best iterate as ``best``."""

    def __init__(self, message: str, best: "FitResult"):
        super().__init__(message)
        self.best = best


def _check_fields(params, positive: tuple[str, ...], non_negative: tuple[str, ...]) -> None:
    """ValueError naming the first field not finite, else the first out of its range."""
    for name, value in vars(params).items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    for name in positive:
        if getattr(params, name) <= 0:
            raise ValueError(f"{name} must be positive")
    for name in non_negative:
        if getattr(params, name) < 0:
            raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class SinglePathParams:
    """Rising/falling exponential coincidence model.

    g0 is the peak coincidence density in counts per bin at zero delay,
    tau_rise and tau_decay the rise and decay constants in ns, background a
    flat accidental level in counts per bin.
    """

    g0: float
    tau_rise: float
    tau_decay: float
    background: float = 0.0

    def __post_init__(self) -> None:
        _check_fields(self, ("g0", "tau_rise", "tau_decay"), ("background",))


@dataclass(frozen=True)
class BeatModelParams:
    """Two-path interference coincidence model.

    g0 sets the amplitude scale (the rate at zero delay is g0^2 times the
    interference factor), tau_x and tau_y are the coherence decay times of
    the two paths in ns, r and phi the relative amplitude and phase of the
    second path, delta the beat angular frequency in rad/ns, and background
    a flat accidental level in counts per bin.
    """

    g0: float
    tau_x: float
    tau_y: float
    r: float
    phi: float
    delta: float = DEFAULT_DELTA
    background: float = 0.0

    def __post_init__(self) -> None:
        _check_fields(self, ("g0", "tau_x", "tau_y", "delta"), ("r", "background"))


def _scalarize(dt, out: np.ndarray):
    return float(out) if np.ndim(dt) == 0 else out


def g2_single(dt, params: SinglePathParams):
    """Coincidence density at delay dt (ns): exponential rise, exponential decay."""
    t = np.asarray(dt, dtype=float)
    rising = np.exp(np.minimum(t, 0.0) / params.tau_rise)
    falling = np.exp(-np.maximum(t, 0.0) / params.tau_decay)
    out = params.g0 * np.where(t < 0.0, rising, falling) + params.background
    return _scalarize(dt, out)


def g2_beats(dt, params: BeatModelParams):
    """Two-path coincidence density: exactly the background for dt < 0."""
    t = np.asarray(dt, dtype=float)
    pos = np.maximum(t, 0.0)
    env_x = np.exp(-pos / params.tau_x)
    env_y = np.exp(-pos / params.tau_y)
    cross = (
        2.0
        * params.r
        * np.exp(-pos * (params.tau_x + params.tau_y) / (2.0 * params.tau_x * params.tau_y))
        * np.cos(params.delta * pos + params.phi)
    )
    shape = params.g0**2 * (env_x + params.r**2 * env_y + cross)
    out = np.where(t >= 0.0, shape, 0.0) + params.background
    return _scalarize(dt, out)


@dataclass(frozen=True)
class CoincidenceHistogram:
    """Binned coincidence counts versus signal-idler detection delay."""

    bin_width: float
    t_start: float
    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=float).reshape(-1)
        object.__setattr__(self, "counts", counts)
        for name, value in (("bin_width", self.bin_width), ("t_start", self.t_start), ("counts", counts)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        if self.bin_width <= 0:
            raise ValueError("bin_width must be positive")
        if counts.size < 2:
            raise ValueError("a histogram needs at least 2 bins")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")

    @property
    def n_bins(self) -> int:
        return self.counts.size

    @property
    def t_stop(self) -> float:
        return self.t_start + self.n_bins * self.bin_width

    @property
    def bin_starts(self) -> np.ndarray:
        return self.t_start + self.bin_width * np.arange(self.n_bins)

    @property
    def bin_centers(self) -> np.ndarray:
        return self.bin_starts + 0.5 * self.bin_width


def _single_means(edges, width, values, names=()):
    """Exact bin means of the single-path model, ``values`` = (g0, tau_rise,
    tau_decay, background), between ``edges``; with ``names`` also the Jacobian
    by those names and ``offset`` (the model shifted to later delays)."""
    g0, tau_rise, tau_decay, background = values.tolist()
    before, after = np.minimum(edges, 0.0), np.maximum(edges, 0.0)
    rise, fall = np.exp(before / tau_rise), np.exp(-after / tau_decay)
    shape = (tau_rise * _diff(rise) - tau_decay * _diff(fall)) / width
    mu = g0 * shape + background
    scale = g0 / width
    return _with_jacobian(mu, names, {
        "g0": lambda: shape,
        "tau_rise": lambda: scale * _diff(rise * (1.0 - before / tau_rise)),
        "tau_decay": lambda: -scale * _diff(fall * (1.0 + after / tau_decay)),
        "background": lambda: 1.0,
        "offset": lambda: -scale * _diff(rise * fall),
    })


def _beats_means(edges, width, values, names=()):
    """As _single_means for the two-path model, ``values`` = _BEAT_FIELDS with g0^2
    for g0 (and column ``g0`` by g0^2).  The cross term integrates as
    Re[e^{i phi} int e^{-k t} dt] with k = 1/(2 tau_x) + 1/(2 tau_y) - i delta."""
    g0_squared, tau_x, tau_y, r, phi, delta, background = values.tolist()
    t = np.maximum(edges, 0.0)
    k = 0.5 / tau_x + 0.5 / tau_y - 1j * delta
    ex, ey, ek = np.exp(-t / tau_x), np.exp(-t / tau_y), np.exp(-k * t)
    turn = cmath.exp(1j * phi)
    cross = turn * _diff(ek) / -k
    dy = _diff(ey)
    shape = (-tau_x * _diff(ex) - r * r * tau_y * dy + 2.0 * r * cross.real) / width
    mu = g0_squared * shape + background
    scale = g0_squared / width
    if not {"delta", "tau_x", "tau_y"}.isdisjoint(names):
        moment = turn * _diff((k * t + 1.0) * ek) / -(k * k)  # e^{i phi} int t e^{-k t} dt
    return _with_jacobian(mu, names, {
        "g0": lambda: shape,
        "background": lambda: 1.0,
        "r": lambda: 2.0 * scale * (cross.real - r * tau_y * dy),
        "phi": lambda: -2.0 * r * scale * cross.imag,
        "delta": lambda: -2.0 * r * scale * moment.imag,
        "tau_x": lambda: scale * (r * moment.real / tau_x**2 - _diff((t / tau_x + 1.0) * ex)),
        "tau_y": lambda: scale * r * (moment.real / tau_y**2 - r * _diff((t / tau_y + 1.0) * ey)),
        "offset": lambda: -scale * _diff(
            np.where(edges >= 0.0, ex + r * r * ey + 2.0 * r * (turn * ek).real, 0.0)),
    })


def _diff(a: np.ndarray) -> np.ndarray:
    return a[1:] - a[:-1]  # np.diff(a) to the bit, without its per-call overhead


def _with_jacobian(mu: np.ndarray, names, columns: dict):
    """``mu``, and with ``names`` also the Jacobian: those columns in order, each by its thunk."""
    if not names:
        return mu
    jac = np.empty((mu.size, len(names)))
    for i, name in enumerate(names):
        jac[:, i] = columns[name]()
    return mu, jac


_BEAT_FIELDS = ("g0", "tau_x", "tau_y", "r", "phi", "delta", "background")


_SINGLE_FIELDS = ("g0", "tau_rise", "tau_decay", "background")


def _model_values(model):
    """The bin-means function, field names and values of a model (g0^2 for beats)."""
    if isinstance(model, SinglePathParams):
        return _single_means, _SINGLE_FIELDS, np.array([getattr(model, f) for f in _SINGLE_FIELDS])
    if isinstance(model, BeatModelParams):
        values = np.array([getattr(model, f) for f in _BEAT_FIELDS])
        values[0] **= 2
        return _beats_means, _BEAT_FIELDS, values
    raise TypeError(f"unsupported model type {type(model).__name__}")


def _bin_means(model, t_start: float, n_bins: int, bin_width: float) -> np.ndarray:
    """Expected counts per bin: the model integrated over each bin, divided by its width."""
    means, _, values = _model_values(model)
    return means(t_start + bin_width * np.arange(n_bins + 1), bin_width, values)


def simulate_histogram(
    model,
    bin_width: float,
    t_range: tuple[float, float],
    seed: int,
) -> CoincidenceHistogram:
    """Poisson-sample a histogram whose bin expectations are the exact bin means."""
    t_lo, t_hi = t_range
    if not t_hi > t_lo:
        raise ValueError("t_range must be ordered")
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    n_bins = int(round((t_hi - t_lo) / bin_width))
    if n_bins < 2:
        raise ValueError("t_range must cover at least 2 bins")
    mu = _bin_means(model, t_lo, n_bins, bin_width)
    counts = np.random.default_rng(seed).poisson(mu)
    return CoincidenceHistogram(bin_width, t_lo, counts.astype(float))


# ---------------------------------------------------------------------------
# Fitting

@dataclass(frozen=True)
class FitResult:
    """Best fit, 1-sigma uncertainties from the inverse Fisher matrix, the Poisson
    deviance 2 sum(mu - n + n ln(n/mu)) as ``chi2``, and the scoring steps tried."""

    params: SinglePathParams | BeatModelParams
    sigmas: dict[str, float]
    chi2: float
    chi2_reduced: float
    n_dof: int
    iterations: int
    offset: float = 0.0

    def to_dict(self) -> dict:
        names = [f.name for f in self.params.__dataclass_fields__.values()]
        params = {name: getattr(self.params, name) for name in names}
        if self.offset:
            params["offset"] = self.offset
        sigmas = {k: (v if math.isfinite(v) else None) for k, v in self.sigmas.items()}
        return {
            "params": params,
            "sigmas": sigmas,
            "chi2_reduced": self.chi2_reduced,
            "n_dof": self.n_dof,
            "iterations": self.iterations,
        }


# A scoring step stops the fit when even undamped it would gain at most this
# many nats; the likelihood's rounding is far below it.
_GAIN_TOL = 1e-10
_MAX_STEPS = 200
_TINY = np.finfo(float).tiny  # a smaller (subnormal) mean counts as 0


def _scaled_svd(weighted: np.ndarray):
    """Column norms, singular values and V^T of the Jacobi-scaled weighted Jacobian."""
    norms = np.sqrt(np.einsum("ij,ij->j", weighted, weighted))
    norms[norms == 0.0] = 1.0  # a zero column gives a zero singular value
    _, s, vt = np.linalg.svd(weighted / norms, full_matrices=False)
    if s.size and s[-1] <= s[0] * 1e-12:
        raise FitDegenerateError("singular Jacobian: parameters not identifiable")
    return norms, s, vt


def _maximize(counts: np.ndarray, x0, lower: np.ndarray, means):
    """Maximize sum(n ln mu - mu) over x >= lower by damped Fisher scoring.

    ``means(x)`` gives the bin means and their Jacobian.  A step costs one
    evaluation, and one SVD of the Jacobi-scaled J/sqrt(mu) per accepted
    point serves every Levenberg damping tried there.  Bins with mean 0 have
    weight 0; a parameter at its bound with the gradient pointing out is held.
    Returns x, its Poisson deviance, the scaled SVD of its weighted Jacobian
    (all columns), the steps tried, and None or why it stopped.
    """
    x = np.maximum(np.asarray(x0, dtype=float), lower)
    mu, jac = means(x)
    seen = counts > 0.0
    counts_seen, mu_seen = counts[seen], mu[seen]
    if np.any(mu_seen <= 0.0):
        raise ValueError("the starting model has a zero mean in a bin with counts")
    damping, accepted = 1e-3, True
    for steps in range(_MAX_STEPS + 1):
        if accepted:
            inv = np.divide(1.0, mu, out=np.zeros_like(mu), where=mu > _TINY)
            weighted = np.multiply(jac, np.sqrt(inv)[:, None], order="F")  # column norms alike in any subset
            grad = jac.T @ (counts * inv - 1.0)
            free = (x > lower) | (grad > 0.0)
            free = slice(None) if free.all() else free  # a view, not a copy
            norms, s, vt = _scaled_svd(weighted[:, free])
            c = vt @ (grad[free] / norms) / s
            converged = 0.5 * (c @ c) <= _GAIN_TOL
        if converged or steps == _MAX_STEPS or damping > 1e16:
            break
        trial = x.copy()
        trial[free] += vt.T @ (c * s / (s * s + damping)) / norms
        np.maximum(trial, lower, out=trial)
        mu_trial, jac_trial = means(trial)
        mu_trial_seen = mu_trial[seen]
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = counts_seen @ np.log(mu_trial_seen / mu_seen) - (mu_trial - mu).sum()
        accepted = gain > 0.0
        if accepted:
            x, mu, jac, mu_seen = trial, mu_trial, jac_trial, mu_trial_seen
        damping *= 0.1 if accepted else 10.0
    deviance = 2.0 * float(np.sum(mu - counts) + counts_seen @ np.log(counts_seen / mu_seen))
    stop = None if converged else f"stopped after {steps} steps at damping {damping:.3g}"
    return x, deviance, (norms, s, vt) if isinstance(free, slice) else _scaled_svd(weighted), steps, stop


def _lower_decile(values: np.ndarray) -> float:
    """``np.percentile(values, 10)`` of 2 or more values to the bit, by numpy's linear rule.

    np.percentile imports numpy.ma (through np.unique) on its first call,
    which a cold process pays for in full.
    """
    ordered = np.sort(values)
    position = (ordered.size - 1) * 0.1
    below = int(position)
    a, b = float(ordered[below]), float(ordered[below + 1])
    t = position - below
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)


def estimate_single_init(hist: CoincidenceHistogram) -> SinglePathParams:
    """Moment-based starting point for the single-path fit."""
    counts = hist.counts
    centers = hist.bin_centers
    background = _lower_decile(counts)
    peak_idx = int(np.argmax(counts))
    g0 = max(float(counts[peak_idx]) - background, 1.0)
    excess = np.clip(counts - background, 0.0, None)
    t_peak = centers[peak_idx]

    def mean_distance(side: np.ndarray, sign: float) -> float:
        weight = excess[side]
        if weight.sum() > 0:
            return float(np.sum(weight * (sign * (centers[side] - t_peak))) / weight.sum())
        return 1.0

    tau_decay = mean_distance(centers > t_peak, 1.0)
    tau_rise = mean_distance(centers < t_peak, -1.0)
    return SinglePathParams(
        g0=g0,
        tau_rise=max(tau_rise, 0.1 * hist.bin_width),
        tau_decay=max(tau_decay, 0.1 * hist.bin_width),
        background=max(background, 0.0),
    )


# Lower bounds of the fitted values; at g0 = 0 the shape is not identifiable.
_LOWER = {"g0": 0.0, "tau_rise": 1e-6, "tau_decay": 1e-6, "tau_x": 1e-6, "tau_y": 1e-6,
          "r": 0.0, "phi": -math.inf, "delta": 1e-6, "background": 0.0, "offset": -math.inf}


def _fit(hist: CoincidenceHistogram, model, free, fit_offset: bool) -> FitResult:
    """Maximize the likelihood of ``hist`` over the ``free`` fields of ``model``
    (and a time offset); the other fields stay fixed."""
    if not np.any(hist.counts > 0.0):
        raise FitDegenerateError("histogram has no counts")
    means, fields, values = _model_values(model)
    if "background" in free:
        # At background 0 a bin the signal leaves empty (before zero delay in
        # the beats model) has mean 0, and a count there likelihood -inf; from
        # a small positive start the first scoring step sizes the background.
        values[-1] = max(values[-1], 1e-6)
    index = [fields.index(name) for name in free]
    names = list(free) + (["offset"] if fit_offset else [])
    grid = hist.bin_width * np.arange(hist.n_bins + 1)
    edges = hist.t_start + grid

    def evaluate(x):
        v = values.copy()
        v[index] = x[:len(index)]
        return means(hist.t_start - x[-1] + grid if fit_offset else edges, hist.bin_width, v, names)

    x0 = list(values[index]) + ([0.0] if fit_offset else [])
    lower = np.array([_LOWER[name] for name in names])
    x, chi2, (norms, s, vt), steps, stop = _maximize(hist.counts, x0, lower, evaluate)
    sigmas = dict(zip(names, (np.sqrt(np.diag((vt.T / s**2) @ vt)) / norms).tolist()))
    fitted = dict(zip(free, x.tolist()))
    if isinstance(model, BeatModelParams):  # the fit ran on g0^2
        fitted["g0"] = g0 = math.sqrt(max(fitted["g0"], 1e-30))
        sigmas["g0_squared"] = sigmas["g0"]
        sigmas["g0"] = sigmas["g0"] / (2.0 * g0) if g0 > 1e-12 else math.inf
    n_dof = hist.n_bins - len(names)
    result = FitResult(
        params=replace(model, **fitted),
        sigmas=sigmas,
        chi2=chi2,
        chi2_reduced=chi2 / max(n_dof, 1),
        n_dof=n_dof,
        iterations=steps,
        offset=float(x[-1]) if fit_offset else 0.0,
    )
    if stop is not None:
        raise FitConvergenceError(f"fit did not converge: {stop}", best=result)
    return result


def fit_single(
    hist: CoincidenceHistogram,
    init: SinglePathParams,
    *,
    fit_offset: bool = False,
) -> FitResult:
    """Poisson maximum-likelihood fit of the single-path model.

    The histogram must cover both sides of zero delay.  With ``fit_offset``
    an additional time-offset parameter is freed (the time axis is otherwise
    taken as exact).
    """
    if not (hist.t_start < 0.0 < hist.t_stop):
        raise ValueError("histogram must cover both sides of zero delay")
    return _fit(hist, init, _SINGLE_FIELDS, fit_offset)


_BEAT_FREE_DEFAULT = ("g0", "background")


def _check_free(free: tuple[str, ...]) -> None:
    """ValueError unless ``free`` names distinct beat-model fields, g0 among them."""
    for i, name in enumerate(free):
        if name not in _BEAT_FIELDS:
            raise ValueError(f"unknown free parameter {name!r}")
        if name in free[:i]:
            raise ValueError(f"free parameter {name!r} is named twice")
    if "g0" not in free:
        raise ValueError("the amplitude scale g0 must be free")


def fit_beats(
    hist: CoincidenceHistogram,
    params: BeatModelParams,
    *,
    free: tuple[str, ...] = _BEAT_FREE_DEFAULT,
    fit_offset: bool = False,
) -> FitResult:
    """Poisson maximum-likelihood fit of the two-path model with fixed shape parameters.

    ``params`` provides the fixed values (coherence times, relative
    amplitude and phase, beat frequency) and the starting values for the
    free parameters; by default only the amplitude scale and the flat
    background are free.  Additional names from {r, phi, delta} may be
    freed for exploratory fits.  ``tau_x`` and ``tau_y`` may also be freed
    jointly with the rest, but the histogram must then constrain them.
    The amplitude is fitted internally as g0^2 (the scale enters the rate
    quadratically), so its reported sigma is for ``g0_squared`` with a
    delta-method ``g0`` entry when the amplitude is nonzero.
    """
    _check_free(free)
    periods = (hist.t_stop - max(hist.t_start, 0.0)) * params.delta / (2.0 * math.pi)
    if periods < 3.0:
        raise ValueError(
            f"histogram spans {periods:.2f} beat periods; at least 3 are required"
        )

    return _fit(hist, params, free, fit_offset)


# ---------------------------------------------------------------------------
# Histogram CSV interchange

_CSV_FIELDS = ["bin_start_ns", "counts"]


def write_histogram_csv(hist: CoincidenceHistogram, path, *, comments: list[str] | None = None) -> None:
    rows = ([repr(float(start)), format_number(count)] for start, count in zip(hist.bin_starts, hist.counts))
    write_csv(path, _CSV_FIELDS, rows, comments)


def read_histogram_csv(path) -> CoincidenceHistogram:
    rows = read_csv(path, _CSV_FIELDS)
    starts, counts = [], []
    for lineno, row in rows:
        starts.append(parse_float(row, "bin_start_ns", lineno))
        counts.append(parse_float(row, "counts", lineno))
        if counts[-1] < 0:
            raise FileFormatError(lineno, "counts", "must be non-negative")
    if len(starts) < 2:
        raise FileFormatError(rows[0][0], "bin_start_ns", "need at least 2 bins")
    widths = np.diff(starts)
    uneven = np.flatnonzero(np.abs(widths - widths[0]) > 1e-9 * abs(widths[0]))
    if uneven.size:
        raise FileFormatError(rows[uneven[0] + 1][0], "bin_start_ns", "bins must be uniformly spaced")
    return CoincidenceHistogram(float(widths[0]), float(starts[0]), np.array(counts))


# ---------------------------------------------------------------------------
# Published-figure presets (decay constants and beat parameters as reported;
# amplitudes, backgrounds and windows chosen to give comparable statistics)

@dataclass(frozen=True)
class HistogramPreset:
    model: SinglePathParams | BeatModelParams
    bin_width: float
    t_range: tuple[float, float]
    description: str


FIGURE_PRESETS: dict[str, HistogramPreset] = {
    "fig2x": HistogramPreset(
        SinglePathParams(g0=2000.0, tau_rise=3.1, tau_decay=5.6, background=10.0),
        1.0,
        (-25.0, 50.0),
        "single decay path through the stronger intermediate level",
    ),
    "fig2y": HistogramPreset(
        SinglePathParams(g0=2000.0, tau_rise=3.3, tau_decay=13.1, background=10.0),
        1.0,
        (-25.0, 75.0),
        "single decay path through the weaker intermediate level",
    ),
    "fig3": HistogramPreset(
        BeatModelParams(g0=20.0, tau_x=5.6, tau_y=13.1, r=1.0, phi=0.0,
                        delta=DEFAULT_DELTA, background=5.0),
        0.25,
        (-5.0, 30.0),
        "high-contrast quantum beats with both decay paths open",
    ),
    "fig4a": HistogramPreset(
        BeatModelParams(g0=30.0, tau_x=5.6, tau_y=13.1, r=2.86e-2, phi=math.pi,
                        delta=DEFAULT_DELTA, background=5.0),
        0.25,
        (-5.0, 30.0),
        "beats damped by suppressing the second path",
    ),
    "fig4b": HistogramPreset(
        BeatModelParams(g0=15.0, tau_x=5.6, tau_y=13.1, r=1.43, phi=0.0,
                        delta=DEFAULT_DELTA, background=5.0),
        0.25,
        (-5.0, 30.0),
        "high-contrast beats, cosine term positive at zero delay",
    ),
    "fig4c": HistogramPreset(
        BeatModelParams(g0=25.0, tau_x=5.6, tau_y=13.1, r=0.5, phi=math.pi,
                        delta=DEFAULT_DELTA, background=5.0),
        0.25,
        (-5.0, 30.0),
        "high-contrast beats in antiphase with the previous setting",
    ),
}
