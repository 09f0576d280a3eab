"""Time-resolved coincidence models, synthetic histograms, and fits.

The single-path model is a rising/falling exponential around zero delay; the
two-path model adds the interference of two decay amplitudes with different
coherence times and a frequency splitting, which modulates the coincidence
rate ("quantum beats").  Expected bin contents are always the model averaged
over the bin with midpoint sub-sampling, never a bin-center evaluation: with
nanosecond bins and few-nanosecond decay times the center-evaluation bias is
measurable.

Histogram CSV format: header ``bin_start_ns,counts`` ('#' comment lines may
precede it).  Fit reports serialize as {params, sigmas, chi2_reduced, n_dof,
converged, iterations}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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
    "beat_contrast",
    "convolve_jitter",
    "estimate_single_init",
    "fit_beats",
    "fit_single",
    "g2_beats",
    "g2_beats_from_amplitudes",
    "g2_single",
    "read_histogram_csv",
    "simulate_histogram",
    "slice_histogram",
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
        if self.g0 <= 0:
            raise ValueError("g0 must be positive")
        if self.tau_rise <= 0 or self.tau_decay <= 0:
            raise ValueError("time constants must be positive")
        if self.background < 0:
            raise ValueError("background must be non-negative")


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
        if self.g0 <= 0:
            raise ValueError("g0 must be positive")
        if self.tau_x <= 0 or self.tau_y <= 0:
            raise ValueError("time constants must be positive")
        if self.r < 0:
            raise ValueError("r must be non-negative")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.background < 0:
            raise ValueError("background must be non-negative")


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


def g2_beats_from_amplitudes(dt, params: BeatModelParams, omega_idler: float = 0.0):
    """|c_x + c_y|^2 + background, from the complex path amplitudes directly.

    The relative phase enters as the factor e^{i phi} on the second path and
    the optical rotation is taken with positive sign, which together produce
    the cos(delta dt + phi) cross term.  The common optical frequency
    ``omega_idler`` cancels in the modulus and may be set to anything; the
    function serves as the independent oracle for :func:`g2_beats`.
    """
    t = np.asarray(dt, dtype=float)
    pos = np.maximum(t, 0.0)
    theta = (t >= 0.0).astype(float)
    c_x = theta * params.g0 * np.exp(-pos / (2.0 * params.tau_x) + 1j * omega_idler * pos)
    c_y = (
        theta
        * params.g0
        * params.r
        * np.exp(
            -pos / (2.0 * params.tau_y)
            + 1j * (omega_idler + params.delta) * pos
            + 1j * params.phi
        )
    )
    out = np.abs(c_x + c_y) ** 2 + params.background
    return _scalarize(dt, out)


def beat_contrast(params: BeatModelParams) -> float:
    """Zero-delay modulation depth 2r / (1 + r^2) of the interference term.

    This is the amplitude of the oscillatory term relative to the two-path
    envelope at zero delay; it distinguishes damped beats (small r) from
    high-contrast beats (r near 1) independent of the envelope decay.
    """
    return 2.0 * params.r / (1.0 + params.r**2)


@dataclass(frozen=True)
class CoincidenceHistogram:
    """Binned coincidence counts versus signal-idler detection delay."""

    bin_width: float
    t_start: float
    counts: np.ndarray
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=float).reshape(-1)
        object.__setattr__(self, "counts", counts)
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


def slice_histogram(hist: CoincidenceHistogram, t_lo: float, t_hi: float) -> CoincidenceHistogram:
    """Restrict to bins fully inside [t_lo, t_hi]."""
    starts = hist.bin_starts
    keep = (starts >= t_lo - 1e-12) & (starts + hist.bin_width <= t_hi + 1e-12)
    if keep.sum() < 2:
        raise ValueError("slice must keep at least 2 bins")
    first = int(np.argmax(keep))
    return CoincidenceHistogram(
        hist.bin_width,
        float(starts[first]),
        hist.counts[keep],
        dict(hist.metadata),
    )


_SUBSAMPLES = 8


def _model_fn(model):
    if isinstance(model, SinglePathParams):
        return lambda t: g2_single(t, model)
    if isinstance(model, BeatModelParams):
        return lambda t: g2_beats(t, model)
    raise TypeError(f"unsupported model type {type(model).__name__}")


def _bin_means(fn, t_start: float, n_bins: int, bin_width: float,
               subsamples: int = _SUBSAMPLES) -> np.ndarray:
    offsets = (np.arange(subsamples) + 0.5) * (bin_width / subsamples)
    starts = t_start + bin_width * np.arange(n_bins)
    return np.asarray(fn(starts[:, None] + offsets[None, :])).mean(axis=1)


def simulate_histogram(
    model,
    bin_width: float,
    t_range: tuple[float, float],
    seed: int,
    *,
    subsamples: int = _SUBSAMPLES,
) -> CoincidenceHistogram:
    """Poisson-sample a histogram whose bin expectations are bin-averaged model values."""
    t_lo, t_hi = t_range
    if not t_hi > t_lo:
        raise ValueError("t_range must be ordered")
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    if subsamples < 8:
        raise ValueError("at least 8 sub-samples per bin are required")
    n_bins = int(round((t_hi - t_lo) / bin_width))
    if n_bins < 2:
        raise ValueError("t_range must cover at least 2 bins")
    mu = _bin_means(_model_fn(model), t_lo, n_bins, bin_width, subsamples)
    counts = np.random.default_rng(seed).poisson(mu)
    metadata = {"seed": seed, "model": type(model).__name__, "subsamples": subsamples}
    return CoincidenceHistogram(bin_width, t_lo, counts.astype(float), metadata)


def convolve_jitter(model_fn, sigma: float, *, n_nodes: int = 601, half_width: float = 6.0):
    """Gaussian-jitter a model curve; returns a new callable.

    The kernel is truncated at ``half_width`` standard deviations and its
    quadrature weights renormalized to unit mass, so the curve integral is
    preserved.  ``sigma = 0`` returns the model unchanged.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0.0:
        return model_fn
    z = np.linspace(-half_width, half_width, n_nodes)
    weights = np.exp(-0.5 * z**2)
    weights /= weights.sum()
    shifts = sigma * z

    def convolved(dt):
        t = np.asarray(dt, dtype=float)
        vals = np.asarray(model_fn(t[..., None] - shifts))
        out = vals @ weights
        return _scalarize(dt, out)

    return convolved


# ---------------------------------------------------------------------------
# Fitting

@dataclass(frozen=True)
class FitResult:
    """Best-fit parameters with 1-sigma uncertainties from the weighted normal matrix."""

    params: SinglePathParams | BeatModelParams
    sigmas: dict[str, float]
    chi2: float
    chi2_reduced: float
    n_dof: int
    converged: bool
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
            "converged": self.converged,
            "iterations": self.iterations,
        }


def _weighted_residuals(hist: CoincidenceHistogram, fn) -> np.ndarray:
    mu = _bin_means(fn, hist.t_start, hist.n_bins, hist.bin_width)
    weights = 1.0 / np.sqrt(np.maximum(hist.counts, 1.0))
    return (mu - hist.counts) * weights


def _covariance(jac: np.ndarray) -> np.ndarray:
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    if s.size == 0 or s[0] == 0.0 or s[-1] <= s[0] * 1e-12:
        raise FitDegenerateError("singular Jacobian: parameters not identifiable")
    return (vt.T / s**2) @ vt


def _run_least_squares(residual_fn, x0: np.ndarray):
    from scipy.optimize import least_squares

    res = least_squares(
        residual_fn, x0, method="lm", xtol=1e-12, ftol=1e-12, gtol=1e-12,
        max_nfev=20_000,
    )
    return res


def estimate_single_init(hist: CoincidenceHistogram) -> SinglePathParams:
    """Moment-based starting point for the single-path fit."""
    counts = hist.counts
    centers = hist.bin_centers
    background = float(np.percentile(counts, 10))
    peak_idx = int(np.argmax(counts))
    g0 = max(float(counts[peak_idx]) - background, 1.0)
    excess = np.clip(counts - background, 0.0, None)
    t_peak = centers[peak_idx]
    after = centers > t_peak
    before = centers < t_peak
    tau_decay = 1.0
    if excess[after].sum() > 0:
        tau_decay = float(
            np.sum(excess[after] * (centers[after] - t_peak)) / excess[after].sum()
        )
    tau_rise = 1.0
    if excess[before].sum() > 0:
        tau_rise = float(
            np.sum(excess[before] * (t_peak - centers[before])) / excess[before].sum()
        )
    return SinglePathParams(
        g0=g0,
        tau_rise=max(tau_rise, 0.1 * hist.bin_width),
        tau_decay=max(tau_decay, 0.1 * hist.bin_width),
        background=max(background, 0.0),
    )


_SINGLE_FREE = ("g0", "tau_rise", "tau_decay", "background")


def fit_single(
    hist: CoincidenceHistogram,
    init: SinglePathParams,
    *,
    fit_offset: bool = False,
) -> FitResult:
    """Poisson-weighted Levenberg-Marquardt fit of the single-path model.

    Weights are 1/max(n, 1) per bin.  The histogram must cover both sides of
    zero delay.  With ``fit_offset`` an additional time-offset parameter is
    freed (the time axis is otherwise taken as exact).
    """
    if not (hist.t_start < 0.0 < hist.t_stop):
        raise ValueError("histogram must cover both sides of zero delay")

    names = list(_SINGLE_FREE) + (["offset"] if fit_offset else [])
    x0 = np.array([init.g0, init.tau_rise, init.tau_decay, init.background]
                  + ([0.0] if fit_offset else []))

    def build(x: np.ndarray):
        params = SinglePathParams(
            g0=max(x[0], 1e-12),
            tau_rise=max(x[1], 1e-6),
            tau_decay=max(x[2], 1e-6),
            # |x| rather than a clamp at 0, whose Jacobian column vanishes below 0
            background=abs(x[3]),
        )
        offset = x[4] if fit_offset else 0.0
        return params, offset

    def residual(x: np.ndarray) -> np.ndarray:
        params, offset = build(x)
        return _weighted_residuals(hist, lambda t: g2_single(t - offset, params))

    res = _run_least_squares(residual, x0)
    params, offset = build(res.x)
    cov = _covariance(res.jac)
    sigmas = {name: float(math.sqrt(cov[i, i])) for i, name in enumerate(names)}
    chi2 = float(np.sum(res.fun**2))
    n_dof = hist.n_bins - len(names)
    result = FitResult(
        params=params,
        sigmas=sigmas,
        chi2=chi2,
        chi2_reduced=chi2 / max(n_dof, 1),
        n_dof=n_dof,
        converged=res.status > 0,
        iterations=int(res.nfev),
        offset=float(offset),
    )
    if res.status <= 0:
        raise FitConvergenceError(f"fit did not converge: {res.message}", best=result)
    return result


_BEAT_FREE_DEFAULT = ("g0", "background")
_BEAT_UNLOCKABLE = ("g0", "background", "r", "phi", "delta")


def fit_beats(
    hist: CoincidenceHistogram,
    params: BeatModelParams,
    *,
    free: tuple[str, ...] = _BEAT_FREE_DEFAULT,
    fit_offset: bool = False,
) -> FitResult:
    """Fit the two-path model with fixed shape parameters.

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
    for name in free:
        if name not in _BEAT_UNLOCKABLE + ("tau_x", "tau_y"):
            raise ValueError(f"unknown free parameter {name!r}")
    if "g0" not in free:
        raise ValueError("the amplitude scale g0 must be free")
    periods = (hist.t_stop - max(hist.t_start, 0.0)) * params.delta / (2.0 * math.pi)
    if periods < 3.0:
        raise ValueError(
            f"histogram spans {periods:.2f} beat periods; at least 3 are required"
        )

    names = list(free) + (["offset"] if fit_offset else [])

    def pack() -> np.ndarray:
        vals = []
        for name in free:
            if name == "g0":
                vals.append(params.g0**2)
            else:
                vals.append(getattr(params, name))
        if fit_offset:
            vals.append(0.0)
        return np.array(vals, dtype=float)

    def build(x: np.ndarray):
        updates = {}
        for name, value in zip(free, x):
            if name == "g0":
                updates["g0"] = math.sqrt(max(float(value), 1e-30))
            elif name == "background":
                updates["background"] = abs(float(value))  # as in fit_single
            elif name in ("tau_x", "tau_y"):
                updates[name] = max(float(value), 1e-6)
            elif name == "delta":
                updates[name] = max(float(value), 1e-6)
            else:
                updates[name] = float(value)
        offset = x[len(free)] if fit_offset else 0.0
        return replace(params, **updates), offset

    def residual(x: np.ndarray) -> np.ndarray:
        p, offset = build(x)
        return _weighted_residuals(hist, lambda t: g2_beats(t - offset, p))

    res = _run_least_squares(residual, pack())
    fitted, offset = build(res.x)
    cov = _covariance(res.jac)
    sigmas = {}
    for i, name in enumerate(names):
        sig = float(math.sqrt(cov[i, i]))
        if name == "g0":
            sigmas["g0_squared"] = sig
            sigmas["g0"] = sig / (2.0 * fitted.g0) if fitted.g0 > 1e-12 else math.inf
        else:
            sigmas[name] = sig
    chi2 = float(np.sum(res.fun**2))
    n_dof = hist.n_bins - len(names)
    result = FitResult(
        params=fitted,
        sigmas=sigmas,
        chi2=chi2,
        chi2_reduced=chi2 / max(n_dof, 1),
        n_dof=n_dof,
        converged=res.status > 0,
        iterations=int(res.nfev),
        offset=float(offset),
    )
    if res.status <= 0:
        raise FitConvergenceError(f"fit did not converge: {res.message}", best=result)
    return result


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
    name: str
    model: SinglePathParams | BeatModelParams
    bin_width: float
    t_range: tuple[float, float]
    description: str


FIGURE_PRESETS: dict[str, HistogramPreset] = {
    "fig2x": HistogramPreset(
        "fig2x",
        SinglePathParams(g0=2000.0, tau_rise=3.1, tau_decay=5.6, background=10.0),
        1.0,
        (-25.0, 50.0),
        "single decay path through the stronger intermediate level",
    ),
    "fig2y": HistogramPreset(
        "fig2y",
        SinglePathParams(g0=2000.0, tau_rise=3.3, tau_decay=13.1, background=10.0),
        1.0,
        (-25.0, 75.0),
        "single decay path through the weaker intermediate level",
    ),
    "fig3": HistogramPreset(
        "fig3",
        BeatModelParams(g0=20.0, tau_x=5.6, tau_y=13.1, r=1.0, phi=0.0,
                        delta=DEFAULT_DELTA, background=5.0),
        0.25,
        (-5.0, 30.0),
        "high-contrast quantum beats with both decay paths open",
    ),
    "fig4a": HistogramPreset(
        "fig4a",
        BeatModelParams(g0=30.0, tau_x=5.6, tau_y=13.1, r=2.86e-2, phi=math.pi,
                        delta=DEFAULT_DELTA, background=5.0),
        0.25,
        (-5.0, 30.0),
        "beats damped by suppressing the second path",
    ),
    "fig4b": HistogramPreset(
        "fig4b",
        BeatModelParams(g0=15.0, tau_x=5.6, tau_y=13.1, r=1.43, phi=0.0,
                        delta=DEFAULT_DELTA, background=5.0),
        0.25,
        (-5.0, 30.0),
        "high-contrast beats, cosine term positive at zero delay",
    ),
    "fig4c": HistogramPreset(
        "fig4c",
        BeatModelParams(g0=25.0, tau_x=5.6, tau_y=13.1, r=0.5, phi=math.pi,
                        delta=DEFAULT_DELTA, background=5.0),
        0.25,
        (-5.0, 30.0),
        "high-contrast beats in antiphase with the previous setting",
    ),
}
