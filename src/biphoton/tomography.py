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

    ``counts`` is a finite non-negative number; Poisson simulation always produces
    integers, but exact-expectation (noiseless) records are admitted as
    floats so estimators can be exercised without sampling noise.
    """

    setting: MeasurementSetting
    counts: float
    exposure: float = 1.0

    def __post_init__(self) -> None:
        if not 0 <= self.counts < np.inf:
            raise ValueError(f"counts must be finite and non-negative, got {self.counts!r}")
        if not 0 < self.exposure < np.inf:
            raise ValueError(f"exposure must be finite and positive, got {self.exposure!r}")


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
    """Analyzer kets, counts and exposures; ValueError unless the summed counts and rates are finite."""
    vectors = _vectors([rec.setting for rec in records])
    counts = np.array([rec.counts for rec in records], dtype=float)
    exposures = np.array([rec.exposure for rec in records], dtype=float)
    with np.errstate(over="ignore"):
        if not np.isfinite(np.sum(counts) + np.sum(counts / exposures)):
            raise ValueError("the summed counts or rates (counts / exposure) of the records are not finite")
    return vectors, counts, exposures


def _born(matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    # Stacked products, one per row, round as v.conj() @ matrix @ v does; a
    # contraction such as einsum rounds differently, and a shift in the last
    # place can move a Poisson draw.
    return np.maximum(((vectors.conj()[:, None, :] @ matrix) @ vectors[:, :, None])[:, 0, 0].real, 0.0)


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
    if not 0 < n_per_setting < np.inf:
        raise ValueError(f"n_per_setting must be finite and positive, got {n_per_setting!r}")
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
_DIAG = np.arange(4)


def _design(vectors: np.ndarray) -> np.ndarray:
    """<v|B|v> for every analyzer ket v (rows) and basis operator B (columns)."""
    a, b = _PAIRS
    cross = vectors[:, a].conj() * vectors[:, b]
    design = np.empty((len(vectors), 16))
    design[:, :4] = vectors.real**2 + vectors.imag**2
    design[:, 4::2] = 2.0 * cross.real
    design[:, 5::2] = 2.0 * cross.imag
    return design


def _operators(coeffs: np.ndarray) -> np.ndarray:
    """Hermitian operators (..., 4, 4) from their basis coefficients (..., 16)."""
    est = np.zeros(coeffs.shape[:-1] + (4, 4), dtype=complex)
    est[..., _DIAG, _DIAG] = coeffs[..., :4]
    est[..., _PAIRS[0], _PAIRS[1]] = coeffs[..., 4::2] - 1j * coeffs[..., 5::2]
    est[..., _PAIRS[1], _PAIRS[0]] = coeffs[..., 4::2] + 1j * coeffs[..., 5::2]
    return 0.5 * (est + est.conj().swapaxes(-1, -2))


def _linear_estimate(design: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Unnormalized least-squares operator estimates (..., 4, 4), flux times state,
    for rates (..., n).  One SVD of the design gives its rank and its
    pseudo-inverse, with matrix_rank's and pinv's cutoffs."""
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    if np.count_nonzero(s > s.max(initial=0.0) * max(design.shape) * np.finfo(s.dtype).eps) < 16:
        raise SpanError("measurement settings do not span the 16-dimensional operator space")
    inverse = np.divide(1.0, s, out=np.zeros_like(s), where=s > 1e-15 * s.max())
    return _operators((vt.T @ (inverse[:, None] * u.T) @ rates[..., None])[..., 0])


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
#
# The state is rho = T^dagger T / Tr[T^dagger T] with T lower triangular and
# real on the diagonal (James et al., PRA 64, 052312 (2001)).  Its 16 real
# parameters x are the diagonal, then the real and imaginary parts of the
# sub-diagonal entries row by row: T = sum_j x_j E_j.  With the flux profiled
# out, the log-likelihood is, up to a constant,
#
#     ll(x) = sum_k n_k ln q_k - N ln s,   q_k = x^T A_k x,   s = x^T S x,
#
# where A_k = Re(M_k^dagger M_k), column j of M_k is E_j v_k, S = sum_k e_k A_k
# and N = sum_k n_k (_profiled_ll).  ll is homogeneous of degree 0 in x, and
# its gradient and Hessian have closed forms (_likelihood).

_TRIL = np.tril_indices(4, -1)
_E = np.zeros((16, 4, 4), dtype=complex)  # T = sum_j x_j E_j
_E[_DIAG, _DIAG, _DIAG] = 1.0
_E[np.arange(4, 16, 2), _TRIL[0], _TRIL[1]] = 1.0
_E[np.arange(5, 16, 2), _TRIL[0], _TRIL[1]] = 1j

# Damped Newton ascent at |x| = 1 (_ascend): each step solves
# (-H + c x x^T + lambda c I) d = g, c the largest |diagonal entry| of H; the
# x x^T term pins the radial direction, along which ll is flat.  A system with
# no Cholesky factor (not positive definite) gives no ascent step and counts
# as a rejected step, so the ascent cannot settle on a saddle.  Each step
# evaluates ll, gradient and Hessian once, at the trial point of every problem
# still active (its current point if it has no ascent step); a problem leaves
# the stack when it stops.  The damping lambda starts at _DAMPING; it is
# divided by 10 (down to _DAMPING_MIN) after an accepted step and multiplied
# by 10 after a rejected one.  A step is accepted when ll does not fall by
# more than its rounding, _ROUNDING |ll|.  The ascent stops at an accepted
# step with lambda at most _UNDAMPED that gains less than _GAIN_TOL |ll|, and
# fails once lambda exceeds _DAMPING_MAX or the iterations run out.
_DAMPING = 1e-3
_DAMPING_MIN = 1e-12
_UNDAMPED = 1e-6
_DAMPING_MAX = 1e16
_GAIN_TOL = 1e-13
_ROUNDING = 1e-14


def _lower_t_factor(mat: np.ndarray) -> np.ndarray:
    """Lower-triangular T with T^dagger T = mat, for positive definite mats (..., 4, 4)."""
    rev = np.arange(3, -1, -1)[:, None], np.arange(3, -1, -1)
    chol = np.linalg.cholesky(mat[..., rev[0], rev[1]])
    return chol[..., rev[0], rev[1]].conj().swapaxes(-1, -2)


def _rho_from_params(params: np.ndarray) -> np.ndarray:
    """(T^dagger T + 1e-15 Tr I) / (Tr (1 + 4e-15)) for parameters (B, 16); the
    1e-15 Tr I keeps every computed eigenvalue above 0."""
    t = (params @ _E.reshape(16, 16)).reshape(-1, 4, 4)
    mat = t.conj().swapaxes(-1, -2) @ t
    mat = 0.5 * (mat + mat.conj().swapaxes(-1, -2))
    trace = np.trace(mat, axis1=-2, axis2=-1).real[..., None, None]
    return (mat + 1e-15 * trace * np.eye(4)) / (trace * (1.0 + 4e-15))


def _profiled_ll(counts: np.ndarray, total: np.ndarray, q: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sum_k n_k ln q_k - N ln s over the last axis of counts and q (..., n), for
    N = total and s (...); -inf where a setting with counts has q_k = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_q = np.log(q, out=np.zeros_like(q), where=counts > 0)
        return np.sum(counts * log_q, axis=-1) - total * np.log(s)


def _quadratic_forms(vectors: np.ndarray, exposures: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A_k (n, 16, 16) and S (16, 16) of the analyzer kets (n, 4) and exposures."""
    m = (_E @ vectors.T).transpose(2, 1, 0)  # (n, 4, 16): column j of M_k is E_j v_k
    a = (m.conj().swapaxes(1, 2) @ m).real
    a = 0.5 * (a + a.swapaxes(1, 2))
    return a, np.tensordot(exposures, a, axes=1)


def _likelihood(x: np.ndarray, a: np.ndarray, s_mat: np.ndarray, counts: np.ndarray):
    """ll (B,), its gradient (B, 16) and its Hessian (B, 16, 16) at the parameter stack x (B, 16).

    Only stacked products, elementwise operations and reductions over a
    problem's own axes are used, so each problem's numbers do not depend on
    the others in the stack.
    """
    n = a.shape[0]
    ax = (a.reshape(n * 16, 16) @ x[:, :, None]).reshape(len(x), n, 16)  # rows A_k x
    q = (ax @ x[:, :, None])[..., 0]
    sx = (s_mat @ x[:, :, None])[..., 0]
    s = (sx[:, None, :] @ x[:, :, None])[:, 0, 0]
    pos = counts > 0
    total = np.sum(counts, axis=-1)
    ll = _profiled_ll(counts, total, q, s)
    w = np.divide(counts, q, out=np.zeros_like(q), where=pos)
    w_q = np.divide(w, q, out=np.zeros_like(q), where=pos)
    ns = (total / s)[:, None]
    grad = 2.0 * (w[:, None, :] @ ax)[:, 0, :] - 2.0 * ns * sx
    hess = (
        2.0 * (w[:, None, :] @ a.reshape(n, 256)).reshape(-1, 16, 16)
        - 4.0 * ((ax * w_q[:, :, None]).swapaxes(1, 2) @ ax)
        - 2.0 * ns[:, :, None] * s_mat
        + 4.0 * (ns / s[:, None])[:, :, None] * (sx[:, :, None] * sx[:, None, :])
    )
    return ll, grad, hess


def _positive_definite(systems: np.ndarray) -> np.ndarray:
    """Whether each matrix of the stack (B, 16, 16) has a Cholesky factor.  A
    stacked cholesky raises if any one fails; only then are they tested one by one."""
    try:
        np.linalg.cholesky(systems)
    except np.linalg.LinAlgError:
        if len(systems) == 1:
            return np.zeros(1, dtype=bool)
        return np.concatenate([_positive_definite(m[None]) for m in systems])
    return np.ones(len(systems), dtype=bool)


def _ascend(x: np.ndarray, a: np.ndarray, s_mat: np.ndarray, counts: np.ndarray, max_iterations: int):
    """Damped Newton ascent of every problem in the stack.  Returns the final
    parameters, iteration counts, damping, gradient max-norm and a converged
    flag per problem; a problem that stops is written out and leaves the stack."""
    x = x / np.sqrt(np.sum(x * x, axis=-1))[:, None]
    ll, grad, hess = _likelihood(x, a, s_mat, counts)
    damping = np.full(len(x), _DAMPING)
    out_x, out_damping, grad_max = x.copy(), damping.copy(), np.max(np.abs(grad), axis=-1)
    out_iterations, converged = np.zeros(len(x), dtype=int), np.zeros(len(x), dtype=bool)
    live = np.arange(len(x) if max_iterations > 0 else 0)
    iterations = 0  # every live problem has taken this many steps
    eye = np.eye(16)
    while len(live):
        iterations += 1
        scale = np.max(np.abs(np.diagonal(hess, axis1=1, axis2=2)), axis=-1)
        system = (scale[:, None, None] * (x[:, :, None] * x[:, None, :]) - hess
                  + (damping * scale)[:, None, None] * eye)
        ascent = _positive_definite(system)
        step = np.linalg.solve(np.where(ascent[:, None, None], system, eye), grad[:, :, None])
        trial = x + np.where(ascent[:, None], step[..., 0], 0.0)
        trial /= np.sqrt(np.sum(trial * trial, axis=-1))[:, None]
        ll_trial, grad_trial, hess_trial = _likelihood(trial, a, s_mat, counts)
        accept = ascent & (ll_trial >= ll - _ROUNDING * np.abs(ll))
        done = accept & (damping <= _UNDAMPED) & (ll_trial - ll <= _GAIN_TOL * np.abs(ll))
        damping = np.where(accept, np.maximum(damping / 10.0, _DAMPING_MIN), damping * 10.0)
        x = np.where(accept[:, None], trial, x)
        ll = np.where(accept, ll_trial, ll)
        grad = np.where(accept[:, None], grad_trial, grad)
        hess = np.where(accept[:, None, None], hess_trial, hess)
        stop = done | (iterations >= max_iterations) | (damping > _DAMPING_MAX)
        if stop.any():
            j = live[stop]
            out_x[j], out_damping[j], grad_max[j] = x[stop], damping[stop], np.max(np.abs(grad[stop]), axis=-1)
            out_iterations[j], converged[j] = iterations, done[stop]
            live, x, ll, grad, hess, damping, counts = (
                v[~stop] for v in (live, x, ll, grad, hess, damping, counts)
            )
    return out_x, out_iterations, out_damping, grad_max, converged


def _state_ll(mat: np.ndarray, vectors: np.ndarray, counts: np.ndarray, exposures: np.ndarray) -> float:
    """Poisson log-likelihood sum_k n_k ln mu_k - mu_k of the linear-basis state at
    its maximum-likelihood flux N / s, with mu_k = N e_k p_k / s and s = e . p:
    _profiled_ll at the Born probabilities p plus sum_k n_k ln(N e_k) - N."""
    p = _born(mat, vectors)
    total = counts.sum()
    seen = counts > 0
    return float(_profiled_ll(counts, total, p, exposures @ p) + counts[seen] @ np.log(total * exposures[seen]) - total)


def log_likelihood(rho: DensityMatrix4, records: list[CountsRecord]) -> float:
    """Poisson log-likelihood of a state given observed counts, at the
    maximum-likelihood flux; -inf if a setting with counts has probability 0."""
    return _state_ll(density_change_basis(rho, LINEAR).matrix, *_arrays(records))


def _mle_seed(design: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Starting parameters (B, 16) for the rates (B, n): the linear estimate
    projected onto the states and mixed with 1% of I/4."""
    est = _linear_estimate(design, rates)
    trace = np.trace(est, axis1=1, axis2=2).real[:, None, None]
    mat = np.where(trace > 0.0, est / np.where(trace > 0.0, trace, 1.0), np.eye(4) / 4.0)
    evals, evecs = np.linalg.eigh(mat)
    mat = (evecs * np.clip(evals, 0.0, None)[:, None, :]) @ evecs.conj().swapaxes(1, 2)
    trace = np.maximum(np.trace(mat, axis1=1, axis2=2).real, 1e-12)[:, None, None]
    mat = 0.99 * mat / trace + 0.01 * np.eye(4) / 4.0
    mat = 0.5 * (mat + mat.conj().swapaxes(1, 2))
    return (_lower_t_factor(mat).reshape(-1, 16) @ _E.reshape(16, 16).conj().T).real


def _solve(vectors: np.ndarray, counts: np.ndarray, exposures: np.ndarray, max_iterations: int = 10_000):
    """Linear-basis MLE states (B, 4, 4) and iteration counts (B,) for analyzer kets
    (n, 4), counts (B, n) and exposures (n,), solved together with the results of
    stacks of one.  The first problem not converged raises ConvergenceError."""
    x0 = _mle_seed(_design(vectors), counts / exposures)
    if np.any(np.sum(counts, axis=1) <= 0):
        raise DegenerateCountsError("all settings recorded zero counts")
    x, iterations, damping, grad_max, converged = _ascend(
        x0, *_quadratic_forms(vectors, exposures), counts, max_iterations
    )
    mats = _rho_from_params(x)
    failed = np.flatnonzero(~converged)
    if len(failed):
        b = failed[0]
        cause = "iteration cap" if iterations[b] >= max_iterations else "damping overflow"
        raise ConvergenceError(
            f"MLE did not converge: damped Newton stopped ({cause}) after "
            f"{iterations[b]} iterations, damping {damping[b]:.3g}, "
            f"gradient max-norm {grad_max[b]:.3g}",
            best=_result(mats[b], counts[b], iterations[b], vectors, exposures),
        )
    return mats, iterations


def _result(mat, counts, iterations, vectors, exposures) -> TomographyResult:
    """The validated state of one solved problem, with its profiled log-likelihood."""
    return TomographyResult(
        rho=DensityMatrix4(mat, LINEAR),
        log_likelihood=_state_ll(mat, vectors, counts, exposures),
        iterations=int(iterations),
    )


def _mle(vectors, counts, exposures, max_iterations: int = 10_000) -> list[TomographyResult]:
    """_solve, with a validated state and its profiled log-likelihood per problem."""
    mats, iterations = _solve(vectors, counts, exposures, max_iterations)
    return [_result(*problem, vectors, exposures) for problem in zip(mats, counts, iterations)]


def reconstruct_mle(
    records: list[CountsRecord], *, max_iterations: int = 10_000
) -> TomographyResult:
    """Maximum-likelihood state reconstruction, positive semidefinite by construction.

    The state is parameterized as T^dagger T / Tr[T^dagger T] with a
    lower-triangular T (16 real parameters) and ascended deterministically
    from the linear-inversion seed by damped Newton steps on the exact
    Hessian.  A Cholesky test of the damped system decides whether a step
    is an ascent step, one linear solve gives it, and the likelihood is
    evaluated with its derivatives once per step, at the trial point.  The
    ascent counts as converged at a nearly undamped step that
    gains less than 1e-13 of the log-likelihood; running out of
    ``max_iterations`` steps (``iterations`` counts every step tried,
    accepted or not) or of damping raises :class:`ConvergenceError`,
    which carries the best iterate and names the iteration count, the final
    damping and the gradient max-norm.
    """
    vectors, counts, exposures = _arrays(records)
    return _mle(vectors, counts[None], exposures, max_iterations)[0]


def resample_uncertainties(
    records: list[CountsRecord],
    n_resamples: int,
    seed: int,
    *,
    target: BiphotonKet | None = None,
) -> dict[str, MetricStats]:
    """Parametric bootstrap of the entanglement indicators.

    Each resample redraws every count from Poisson(observed count); all
    resamples are then reconstructed by maximum likelihood in one stacked
    solve, with the same results as one at a time, and their indicators
    are evaluated on the stack of states.  The spread over resamples estimates the
    counting-statistics uncertainty.  Fidelity is included only when a
    ``target`` ket is supplied.
    """
    if n_resamples < 2:
        raise ValueError("n_resamples must be at least 2")
    vectors, counts, exposures = _arrays(records)
    redrawn = np.array([
        np.random.default_rng(child).poisson(counts)
        for child in np.random.SeedSequence(seed).spawn(n_resamples)
    ], dtype=float)
    mats, _ = _solve(vectors, redrawn, exposures)
    return {
        name: MetricStats(mean=float(np.mean(values)), std=float(np.std(values, ddof=1)))
        for name, values in entanglement.indicator_arrays(mats, target).items()
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
        if not np.isfinite(vals["counts"] / vals["exposure"]):
            raise FileFormatError(lineno, "exposure", "counts / exposure is not finite")
        setting = MeasurementSetting(proj_s, proj_i, row.get("label") or f"row{lineno}")
        records.append(CountsRecord(setting, vals["counts"], vals["exposure"]))
    return records
