"""Two-qubit polarization tomography: simulated coincidence counts, linear
inversion, maximum-likelihood reconstruction, and bootstrap uncertainties.

Counts are modeled as independent Poisson draws per analyzer setting with an
unknown overall flux; the flux is profiled out of the likelihood, so only the
16 state parameters are optimized.  The counts file format is a CSV with
header ``label,proj_s_h_re,proj_s_h_im,proj_s_v_re,proj_s_v_im,proj_i_h_re,
proj_i_h_im,proj_i_v_re,proj_i_v_im,counts,exposure``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import minimize

from . import entanglement
from .polstate import (
    LINEAR,
    BiphotonKet,
    DensityMatrix4,
    Projector,
    named_projector,
)

__all__ = [
    "ConvergenceError",
    "CountsFileError",
    "CountsRecord",
    "DegenerateCountsError",
    "MeasurementSetting",
    "MetricStats",
    "SpanError",
    "TomographyResult",
    "UnphysicalStateError",
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


class CountsFileError(ValueError):
    """A counts CSV violated the format; names the offending line and field."""

    def __init__(self, line: int, fieldname: str, message: str):
        super().__init__(f"line {line}, field {fieldname!r}: {message}")
        self.line = line
        self.fieldname = fieldname


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
    resampled_metrics: dict[str, MetricStats] | None = None


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


def _setting_vector(setting: MeasurementSetting) -> np.ndarray:
    return np.kron(setting.proj_s.vector(LINEAR), setting.proj_i.vector(LINEAR))


def expected_probability(rho: DensityMatrix4, setting: MeasurementSetting) -> float:
    """Born-rule coincidence probability of one setting, clipped at zero."""
    from .polstate import density_change_basis

    v = _setting_vector(setting)
    p = float((v.conj() @ density_change_basis(rho, LINEAR).matrix @ v).real)
    return max(0.0, p)


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
    children = np.random.SeedSequence(seed).spawn(len(settings))
    records = []
    for setting, child in zip(settings, children):
        mu = n_per_setting * expected_probability(rho, setting)
        counts = int(np.random.default_rng(child).poisson(mu))
        records.append(CountsRecord(setting, counts, 1.0))
    return records


# ---------------------------------------------------------------------------
# Linear inversion

def _hermitian_basis() -> list[np.ndarray]:
    basis = []
    for i in range(4):
        e = np.zeros((4, 4), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(4):
        for j in range(i + 1, 4):
            e = np.zeros((4, 4), dtype=complex)
            e[i, j] = 1.0
            e[j, i] = 1.0
            basis.append(e)
            e = np.zeros((4, 4), dtype=complex)
            e[i, j] = -1.0j
            e[j, i] = 1.0j
            basis.append(e)
    return basis


_HERM_BASIS = _hermitian_basis()


def _design_matrix(records: list[CountsRecord]) -> np.ndarray:
    rows = np.empty((len(records), 16))
    for k, rec in enumerate(records):
        v = _setting_vector(rec.setting)
        rows[k] = [float((v.conj() @ b @ v).real) for b in _HERM_BASIS]
    return rows


def _check_span(design: np.ndarray) -> None:
    if np.linalg.matrix_rank(design) < 16:
        raise SpanError(
            "measurement settings do not span the 16-dimensional operator space"
        )


def _linear_estimate(records: list[CountsRecord]) -> np.ndarray:
    """Unnormalized least-squares operator estimate (flux times state)."""
    design = _design_matrix(records)
    _check_span(design)
    y = np.array([rec.counts / rec.exposure for rec in records])
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    est = sum(c * b for c, b in zip(coeffs, _HERM_BASIS))
    return 0.5 * (est + est.conj().T)


def reconstruct_linear(records: list[CountsRecord]) -> DensityMatrix4:
    """Least-squares state estimate; Hermitian and unit trace by construction.

    Statistical noise can push eigenvalues slightly negative; values down to
    -1e-2 are tolerated (inspect with :func:`biphoton.polstate.min_eigenvalue`),
    anything lower raises :class:`UnphysicalStateError` and calls for the
    maximum-likelihood estimator instead.
    """
    est = _linear_estimate(records)
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
# complex sub-diagonal entries row by row.
_TRIL_IDX = [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]


def _t_matrix(params: np.ndarray) -> np.ndarray:
    t = np.zeros((4, 4), dtype=complex)
    t[np.diag_indices(4)] = params[:4]
    for k, (i, j) in enumerate(_TRIL_IDX):
        t[i, j] = params[4 + 2 * k] + 1j * params[5 + 2 * k]
    return t


def _params_from_t(t: np.ndarray) -> np.ndarray:
    params = np.empty(16)
    params[:4] = np.diagonal(t).real
    for k, (i, j) in enumerate(_TRIL_IDX):
        params[4 + 2 * k] = t[i, j].real
        params[5 + 2 * k] = t[i, j].imag
    return params


def _lower_t_factor(mat: np.ndarray) -> np.ndarray:
    """Lower-triangular T with T^dagger T = mat, for a positive definite mat."""
    rev = np.arange(3, -1, -1)
    chol = np.linalg.cholesky(mat[np.ix_(rev, rev)])
    upper = chol[np.ix_(rev, rev)]
    return upper.conj().T


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
    p = q / trace + _P_FLOOR

    n_total = float(counts.sum())
    denom = float(np.dot(exposures, p))
    scale = n_total / denom                # profiled flux
    mu = scale * exposures * p

    pos = counts > 0
    ll = float(np.sum(counts[pos] * np.log(mu[pos])) - mu.sum())

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
    grad[:4] = 2.0 * diag.real - 2.0 * trace_coeff * params[:4]
    for k, (i, j) in enumerate(_TRIL_IDX):
        z = m_complex[i, j]
        grad[4 + 2 * k] = 2.0 * z.real - 2.0 * trace_coeff * t[i, j].real
        grad[5 + 2 * k] = -2.0 * z.imag - 2.0 * trace_coeff * t[i, j].imag
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
    p = np.array([expected_probability(rho, rec.setting) for rec in records])
    p = p + _P_FLOOR
    counts = np.array([rec.counts for rec in records], dtype=float)
    exposures = np.array([rec.exposure for rec in records], dtype=float)
    scale = counts.sum() / float(np.dot(exposures, p))
    mu = scale * exposures * p
    pos = counts > 0
    return float(np.sum(counts[pos] * np.log(mu[pos])) - mu.sum())


def _mle_seed(records: list[CountsRecord]) -> np.ndarray:
    est = _linear_estimate(records)
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
    if len(records) < 16:
        raise SpanError("at least 16 records are required")
    counts = np.array([rec.counts for rec in records], dtype=float)
    if counts.sum() <= 0:
        raise DegenerateCountsError("all settings recorded zero counts")
    design = _design_matrix(records)
    _check_span(design)

    vectors = np.array([_setting_vector(rec.setting) for rec in records])
    exposures = np.array([rec.exposure for rec in records], dtype=float)
    x0 = _mle_seed(records)

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
        log_likelihood=log_likelihood(rho, records),
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


def _resample_once(
    records: list[CountsRecord], child: np.random.SeedSequence
) -> list[CountsRecord]:
    rng = np.random.default_rng(child)
    return [
        CountsRecord(rec.setting, int(rng.poisson(rec.counts)), rec.exposure)
        for rec in records
    ]


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
    children = np.random.SeedSequence(seed).spawn(n_resamples)
    samples: dict[str, list[float]] = {}
    for child in children:
        result = reconstruct_mle(_resample_once(records, child))
        for name, value in entanglement.indicators(result.rho, target).items():
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


def _format_number(x: float) -> str:
    if float(x).is_integer():
        return str(int(x))
    return repr(float(x))


def write_counts_csv(records: list[CountsRecord], path, *, comments: list[str] | None = None) -> None:
    """Write records to CSV; optional '#'-prefixed comment lines go first."""
    with open(path, "w", newline="") as fh:
        for line in comments or []:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(_CSV_FIELDS)
        for rec in records:
            writer.writerow(
                [rec.setting.label]
                + [
                    _format_number(x)
                    for proj in (rec.setting.proj_s, rec.setting.proj_i)
                    for x in (proj.c_h.real, proj.c_h.imag, proj.c_v.real, proj.c_v.imag)
                ]
                + [_format_number(rec.counts), _format_number(rec.exposure)]
            )


def _parse_field(row: dict, name: str, line: int) -> float:
    raw = row.get(name)
    if raw is None or raw == "":
        raise CountsFileError(line, name, "missing value")
    try:
        value = float(raw)
    except ValueError:
        raise CountsFileError(line, name, f"not a number: {raw!r}")
    if not math.isfinite(value):
        raise CountsFileError(line, name, f"not a finite number: {raw!r}")
    return value


def read_counts_csv(path) -> list[CountsRecord]:
    """Read a counts CSV, validating the header and every field."""
    path = Path(path)
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.lstrip().startswith("#")]
    if not lines:
        raise CountsFileError(1, "header", "file is empty")
    reader = csv.DictReader(lines)
    if reader.fieldnames != _CSV_FIELDS:
        raise CountsFileError(1, "header", f"expected columns {','.join(_CSV_FIELDS)}")
    records = []
    for lineno, row in enumerate(reader, start=2):
        vals = {name: _parse_field(row, name, lineno) for name in _CSV_FIELDS[1:]}
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
            raise CountsFileError(lineno, "projector", str(exc))
        if vals["counts"] < 0:
            raise CountsFileError(lineno, "counts", "must be non-negative")
        if vals["exposure"] <= 0:
            raise CountsFileError(lineno, "exposure", "must be positive")
        setting = MeasurementSetting(proj_s, proj_i, row.get("label") or f"row{lineno}")
        records.append(CountsRecord(setting, vals["counts"], vals["exposure"]))
    if not records:
        raise CountsFileError(2, "counts", "no data rows")
    return records
