"""Two-qubit polarization tomography: simulated coincidence counts, linear
inversion, maximum-likelihood reconstruction, and bootstrap uncertainties.

Counts are modeled as independent Poisson draws per analyzer setting with an
unknown overall flux; the flux is profiled out of the likelihood, so only the
16 state parameters are optimized.  The counts file format is a CSV with
header ``label,proj_s_h_re,proj_s_h_im,proj_s_v_re,proj_s_v_im,proj_i_h_re,
proj_i_h_im,proj_i_v_re,proj_i_v_im,counts,exposure``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import entanglement
from .csvio import FileFormatError, format_number, parse_float, read_csv, write_csv
from .polstate import (
    LINEAR,
    BiphotonKet,
    DensityMatrix4,
    Projector,
    density_change_basis,
    named_projector,
)

__all__ = [
    "ConvergenceError",
    "CountsRecord",
    "DegenerateCountsError",
    "MeasurementSetting",
    "MetricStats",
    "SpanError",
    "TomographyResult",
    "UnphysicalStateError",
    "expected_probabilities",
    "expected_probability",
    "log_likelihood",
    "read_counts_csv",
    "reconstruct_linear",
    "reconstruct_mle",
    "resample_uncertainties",
    "simulate_counts",
    "standard_settings",
    "write_counts_csv",
]


class SpanError(ValueError):
    """The measurement settings do not span the two-qubit operator space."""


class UnphysicalStateError(ValueError):
    """Linear inversion produced a matrix too far from a physical state."""


class DegenerateCountsError(ValueError):
    """The counts carry no information (e.g. all zero)."""


class ConvergenceError(RuntimeError):
    """Maximum-likelihood ascent did not converge; carries the best iterate."""

    def __init__(self, message: str, best: "TomographyResult"):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class MeasurementSetting:
    """A pair of analyzer settings, one per arm, with a short label."""

    proj_s: Projector
    proj_i: Projector
    label: str


@dataclass(frozen=True)
class CountsRecord:
    """Coincidence counts accumulated for one setting.

    ``counts`` is a non-negative number; Poisson simulation always produces
    integers, but exact-expectation (noiseless) records are admitted as
    floats so estimators can be exercised without sampling noise.
    """

    setting: MeasurementSetting
    counts: float
    exposure: float = 1.0

    def __post_init__(self) -> None:
        if self.counts < 0:
            raise ValueError(f"counts must be non-negative, got {self.counts!r}")
        if self.exposure <= 0:
            raise ValueError(f"exposure must be positive, got {self.exposure!r}")


@dataclass(frozen=True)
class MetricStats:
    """Bootstrap mean and standard deviation of one entanglement indicator."""

    mean: float
    std: float


@dataclass(frozen=True)
class TomographyResult:
    rho: DensityMatrix4
    log_likelihood: float
    iterations: int


_MINIMAL16_LABELS = [
    "HH", "HV", "VV", "VH", "RH", "RV", "DV", "DH",
    "DR", "DD", "RD", "HD", "VD", "VL", "HL", "RL",
]
_SINGLE_NAMES = "HVDALR"


def standard_settings(kind: str = "overcomplete36") -> list[MeasurementSetting]:
    """Standard analyzer sets: the canonical 16 or all 36 pairs of H,V,D,A,L,R."""
    if kind == "minimal16":
        labels = _MINIMAL16_LABELS
    elif kind == "overcomplete36":
        labels = [s + i for s in _SINGLE_NAMES for i in _SINGLE_NAMES]
    else:
        raise ValueError(f"unknown settings kind {kind!r}")
    return [
        MeasurementSetting(named_projector(lbl[0]), named_projector(lbl[1]), lbl)
        for lbl in labels
    ]


def _vectors(settings: list[MeasurementSetting]) -> np.ndarray:
    """Linear-basis analyzer kets, one (n, 4) row per setting: signal (x) idler."""
    sig = np.array([(s.proj_s.c_h, s.proj_s.c_v) for s in settings], dtype=complex).reshape(-1, 2)
    idl = np.array([(s.proj_i.c_h, s.proj_i.c_v) for s in settings], dtype=complex).reshape(-1, 2)
    return (sig[:, :, None] * idl[:, None, :]).reshape(-1, 4)


def _arrays(records: list[CountsRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analyzer kets, counts and exposures of the records."""
    vectors = _vectors([rec.setting for rec in records])
    counts = np.array([rec.counts for rec in records], dtype=float)
    exposures = np.array([rec.exposure for rec in records], dtype=float)
    return vectors, counts, exposures


def _born(matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    # One product per row: a batched contraction rounds differently, and a
    # shift in the last place can move a Poisson draw.
    return np.maximum([(v.conj() @ matrix @ v).real for v in vectors], 0.0)


def expected_probabilities(
    rho: DensityMatrix4, settings: list[MeasurementSetting]
) -> np.ndarray:
    """Born-rule coincidence probability of every setting, clipped at zero."""
    return _born(density_change_basis(rho, LINEAR).matrix, _vectors(settings))


def expected_probability(rho: DensityMatrix4, setting: MeasurementSetting) -> float:
    """Born-rule coincidence probability of one setting (see expected_probabilities)."""
    return float(expected_probabilities(rho, [setting])[0])


def simulate_counts(
    rho: DensityMatrix4,
    settings: list[MeasurementSetting],
    n_per_setting: float,
    seed: int,
) -> list[CountsRecord]:
    """Draw Poisson coincidence counts for every setting.

    Each setting uses an independent child seed derived from (seed, index),
    so results do not depend on evaluation order.
    """
    if n_per_setting <= 0:
        raise ValueError("n_per_setting must be positive")
    mu = n_per_setting * expected_probabilities(rho, settings)
    children = np.random.SeedSequence(seed).spawn(len(settings))
    return [
        CountsRecord(setting, int(np.random.default_rng(child).poisson(m)), 1.0)
        for setting, child, m in zip(settings, children, mu)
    ]


# ---------------------------------------------------------------------------
# Linear inversion

# Operator basis: E_aa for a = 0..3, then E_ab + E_ba and i(E_ba - E_ab) for
# each pair a < b in this order.
_PAIRS = np.triu_indices(4, 1)


def _design(vectors: np.ndarray) -> np.ndarray:
    """<v|B|v> for every analyzer ket v (rows) and basis operator B (columns).

    Raises :class:`SpanError` unless the rows span all 16 operators.
    """
    a, b = _PAIRS
    cross = vectors[:, a].conj() * vectors[:, b]
    design = np.empty((len(vectors), 16))
    design[:, :4] = vectors.real**2 + vectors.imag**2
    design[:, 4::2] = 2.0 * cross.real
    design[:, 5::2] = 2.0 * cross.imag
    if np.linalg.matrix_rank(design) < 16:
        raise SpanError(
            "measurement settings do not span the 16-dimensional operator space"
        )
    return design


def _linear_estimate(design: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Unnormalized least-squares operator estimate (flux times state)."""
    coeffs, *_ = np.linalg.lstsq(design, rates, rcond=None)
    est = np.zeros((4, 4), dtype=complex)
    est[np.diag_indices(4)] = coeffs[:4]
    est[_PAIRS] = coeffs[4::2] - 1j * coeffs[5::2]
    est[_PAIRS[::-1]] = coeffs[4::2] + 1j * coeffs[5::2]
    return 0.5 * (est + est.conj().T)


def reconstruct_linear(records: list[CountsRecord]) -> DensityMatrix4:
    """Least-squares state estimate; Hermitian and unit trace by construction.

    Statistical noise can push eigenvalues slightly negative; values down to
    -1e-2 are tolerated (inspect with :func:`biphoton.polstate.min_eigenvalue`),
    anything lower raises :class:`UnphysicalStateError` and calls for the
    maximum-likelihood estimator instead.
    """
    vectors, counts, exposures = _arrays(records)
    est = _linear_estimate(_design(vectors), counts / exposures)
    trace = float(np.trace(est).real)
    if trace <= 0.0:
        raise UnphysicalStateError("estimated operator has non-positive trace")
    mat = est / trace
    min_eig = float(np.linalg.eigvalsh(mat)[0])
    if min_eig < -1e-2:
        raise UnphysicalStateError(
            f"linear inversion eigenvalue {min_eig:.4g} below -1e-2; use MLE"
        )
    return DensityMatrix4(mat, LINEAR, eig_floor=-1e-2)


# ---------------------------------------------------------------------------
# Maximum likelihood

_P_FLOOR = 1e-12
# Lower-triangular parameter layout: 4 real diagonal entries, then the
# real and imaginary parts of the sub-diagonal entries row by row.
_TRIL = np.tril_indices(4, -1)


def _t_matrix(params: np.ndarray) -> np.ndarray:
    t = np.zeros((4, 4), dtype=complex)
    t[np.diag_indices(4)] = params[:4]
    t[_TRIL] = params[4::2] + 1j * params[5::2]
    return t


def _params_from_t(t: np.ndarray) -> np.ndarray:
    params = np.empty(16)
    params[:4] = np.diagonal(t).real
    params[4::2] = t[_TRIL].real
    params[5::2] = t[_TRIL].imag
    return params


def _lower_t_factor(mat: np.ndarray) -> np.ndarray:
    """Lower-triangular T with T^dagger T = mat, for a positive definite mat."""
    rev = np.arange(3, -1, -1)
    chol = np.linalg.cholesky(mat[np.ix_(rev, rev)])
    upper = chol[np.ix_(rev, rev)]
    return upper.conj().T


def _profiled(
    p: np.ndarray, counts: np.ndarray, exposures: np.ndarray
) -> tuple[float, float, np.ndarray]:
    """Poisson log-likelihood with the flux profiled out; also the flux and the means."""
    p = p + _P_FLOOR
    scale = float(counts.sum()) / float(np.dot(exposures, p))
    mu = scale * exposures * p
    pos = counts > 0
    return float(np.sum(counts[pos] * np.log(mu[pos])) - mu.sum()), scale, mu


def _likelihood_and_grad(
    params: np.ndarray,
    vectors: np.ndarray,
    counts: np.ndarray,
    exposures: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Profiled Poisson log-likelihood and its gradient in the T parameters."""
    t = _t_matrix(params)
    w = t @ vectors.T                      # (4, n) columns are T v_nu
    q = np.sum(np.abs(w) ** 2, axis=0)     # <v| T^dag T |v>
    trace = float(np.sum(np.abs(t) ** 2))
    ll, scale, mu = _profiled(q / trace, counts, exposures)

    # dLL/dp_nu, with the profiled scale fixed (envelope theorem)
    dll_dp = (np.where(mu > 0, counts / np.where(mu > 0, mu, 1.0), 0.0) - 1.0) * (
        scale * exposures
    )
    # p = q / trace: back-propagate through q and through the trace
    coeff = dll_dp / trace
    m_complex = (w.conj() * coeff) @ vectors    # (4, 4): sum_nu c_nu conj(w_nu) v_nu^T
    trace_coeff = float(np.dot(coeff, q)) / trace

    grad = np.empty(16)
    diag = np.diagonal(m_complex)
    z, t_low = m_complex[_TRIL], t[_TRIL]
    grad[:4] = 2.0 * diag.real - 2.0 * trace_coeff * params[:4]
    grad[4::2] = 2.0 * z.real - 2.0 * trace_coeff * t_low.real
    grad[5::2] = -2.0 * z.imag - 2.0 * trace_coeff * t_low.imag
    return ll, grad


def _rho_from_params(params: np.ndarray) -> np.ndarray:
    t = _t_matrix(params)
    mat = t.conj().T @ t
    mat = mat / np.trace(mat).real
    # clamp eigenvalue dust and add a strictly positive floor
    evals, evecs = np.linalg.eigh(mat)
    evals = np.clip(evals, 0.0, None) + 1e-15
    mat = (evecs * evals) @ evecs.conj().T
    mat = 0.5 * (mat + mat.conj().T)
    return mat / np.trace(mat).real


def log_likelihood(rho: DensityMatrix4, records: list[CountsRecord]) -> float:
    """Profiled Poisson log-likelihood of a state given observed counts."""
    vectors, counts, exposures = _arrays(records)
    p = _born(density_change_basis(rho, LINEAR).matrix, vectors)
    return _profiled(p, counts, exposures)[0]


def _mle_seed(design: np.ndarray, rates: np.ndarray) -> np.ndarray:
    est = _linear_estimate(design, rates)
    trace = float(np.trace(est).real)
    if trace <= 0.0:
        mat = np.eye(4, dtype=complex) / 4.0
    else:
        mat = est / trace
    evals, evecs = np.linalg.eigh(mat)
    evals = np.clip(evals, 0.0, None)
    mat = (evecs * evals) @ evecs.conj().T
    mat = 0.99 * mat / max(np.trace(mat).real, 1e-12) + 0.01 * np.eye(4) / 4.0
    mat = 0.5 * (mat + mat.conj().T)
    return _params_from_t(_lower_t_factor(mat))


def _mle(
    vectors: np.ndarray,
    counts: np.ndarray,
    exposures: np.ndarray,
    max_iterations: int = 10_000,
) -> TomographyResult:
    """reconstruct_mle on arrays: analyzer kets (n, 4), counts and exposures (n,)."""
    from scipy.optimize import minimize

    if len(vectors) < 16:
        raise SpanError("at least 16 records are required")
    if counts.sum() <= 0:
        raise DegenerateCountsError("all settings recorded zero counts")
    x0 = _mle_seed(_design(vectors), counts / exposures)

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        ll, grad = _likelihood_and_grad(x, vectors, counts, exposures)
        return -ll, -grad

    res = minimize(
        objective,
        x0,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iterations, "ftol": 1e-15, "gtol": 1e-8},
    )
    rho = DensityMatrix4(_rho_from_params(res.x), LINEAR)
    result = TomographyResult(
        rho=rho,
        log_likelihood=_profiled(_born(rho.matrix, vectors), counts, exposures)[0],
        iterations=int(res.nit),
    )
    grad_max = float(np.max(np.abs(res.jac)))
    step_converged = res.status == 0  # ftol at machine resolution: steps stalled
    if grad_max >= 1e-8 and not step_converged:
        raise ConvergenceError(
            f"MLE did not converge: L-BFGS-B stopped with status {res.status} "
            f"({str(res.message).rstrip(': ')}) after {res.nit} iterations, "
            f"gradient max-norm {grad_max:.3g}",
            best=result,
        )
    return result


def reconstruct_mle(
    records: list[CountsRecord], *, max_iterations: int = 10_000
) -> TomographyResult:
    """Maximum-likelihood state reconstruction, strictly positive semidefinite.

    The state is parameterized as T^dagger T / Tr[T^dagger T] with a
    lower-triangular T (16 real parameters) and ascended deterministically
    (L-BFGS with analytic gradients) from the linear-inversion seed.  The
    ascent counts as converged when the gradient max-norm falls below 1e-8
    or the remaining steps are below machine resolution; any other stop (the
    iteration cap, a failed line search) raises :class:`ConvergenceError`
    carrying the best iterate, with the solver's status, message, iteration
    count and final gradient max-norm in its message.
    """
    return _mle(*_arrays(records), max_iterations)


def resample_uncertainties(
    records: list[CountsRecord],
    n_resamples: int,
    seed: int,
    *,
    target: BiphotonKet | None = None,
) -> dict[str, MetricStats]:
    """Parametric bootstrap of the entanglement indicators.

    Each resample redraws every count from Poisson(observed count), re-runs
    the maximum-likelihood reconstruction, and evaluates the indicators; the
    spread over resamples estimates the counting-statistics uncertainty.
    Fidelity is included only when a ``target`` ket is supplied.
    """
    if n_resamples < 2:
        raise ValueError("n_resamples must be at least 2")
    vectors, counts, exposures = _arrays(records)
    samples: dict[str, list[float]] = {}
    for child in np.random.SeedSequence(seed).spawn(n_resamples):
        redrawn = np.random.default_rng(child).poisson(counts).astype(float)
        rho = _mle(vectors, redrawn, exposures).rho
        for name, value in entanglement.indicators(rho, target).items():
            samples.setdefault(name, []).append(value)
    return {
        name: MetricStats(
            mean=float(np.mean(values)), std=float(np.std(values, ddof=1))
        )
        for name, values in samples.items()
    }


# ---------------------------------------------------------------------------
# Counts CSV interchange

_CSV_FIELDS = [
    "label",
    "proj_s_h_re", "proj_s_h_im", "proj_s_v_re", "proj_s_v_im",
    "proj_i_h_re", "proj_i_h_im", "proj_i_v_re", "proj_i_v_im",
    "counts", "exposure",
]


def write_counts_csv(records: list[CountsRecord], path, *, comments: list[str] | None = None) -> None:
    """Write records to CSV; optional '#'-prefixed comment lines go first."""
    rows = (
        [rec.setting.label]
        + [
            format_number(x)
            for proj in (rec.setting.proj_s, rec.setting.proj_i)
            for x in (proj.c_h.real, proj.c_h.imag, proj.c_v.real, proj.c_v.imag)
        ]
        + [format_number(rec.counts), format_number(rec.exposure)]
        for rec in records
    )
    write_csv(path, _CSV_FIELDS, rows, comments)


def read_counts_csv(path) -> list[CountsRecord]:
    """Read a counts CSV, validating the header and every field."""
    records = []
    for lineno, row in read_csv(path, _CSV_FIELDS):
        vals = {name: parse_float(row, name, lineno) for name in _CSV_FIELDS[1:]}
        try:
            proj_s = Projector.normalized(
                complex(vals["proj_s_h_re"], vals["proj_s_h_im"]),
                complex(vals["proj_s_v_re"], vals["proj_s_v_im"]),
            )
            proj_i = Projector.normalized(
                complex(vals["proj_i_h_re"], vals["proj_i_h_im"]),
                complex(vals["proj_i_v_re"], vals["proj_i_v_im"]),
            )
        except ValueError as exc:
            raise FileFormatError(lineno, "projector", str(exc))
        if vals["counts"] < 0:
            raise FileFormatError(lineno, "counts", "must be non-negative")
        if vals["exposure"] <= 0:
            raise FileFormatError(lineno, "exposure", "must be positive")
        setting = MeasurementSetting(proj_s, proj_i, row.get("label") or f"row{lineno}")
        records.append(CountsRecord(setting, vals["counts"], vals["exposure"]))
    return records
