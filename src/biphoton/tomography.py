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
from numpy.linalg import _umath_linalg

from . import entanglement
from .csvio import POISSON_MAX, FileFormatError, format_number, parse_float, read_csv, write_csv
from .polstate import (
    LINEAR,
    BiphotonKet,
    DensityMatrix4,
    Projector,
    _born,
    density_change_basis,
    named_projector,
)

__all__ = [
    "ConvergenceError",
    "CountsRecord",
    "MeasurementSetting",
    "MetricStats",
    "TomographyResult",
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
    if mu.max(initial=0.0) > POISSON_MAX:
        raise ValueError(f"n_per_setting gives a Poisson mean above {POISSON_MAX:.4g}, "
                         f"the largest numpy draws, got {n_per_setting!r}")
    children = np.random.SeedSequence(seed).spawn(len(settings))
    return [
        CountsRecord(setting, int(np.random.default_rng(child).poisson(m)), 1.0)
        for setting, child, m in zip(settings, children, mu)
    ]


# ---------------------------------------------------------------------------
# Linear inversion

def _linear_estimate(vectors: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Unnormalized least-squares operator estimates (..., 4, 4), flux times state, for
    analyzer kets (n, 4) and rates (..., n): the Born rule <v|X|v> = (v* (x) v) . vec X is
    linear in the 16 entries of X, and one SVD of that (n, 16) design gives its rank and its
    pseudo-inverse, with matrix_rank's and pinv's cutoffs; real rates give a Hermitian X."""
    design = (vectors.conj()[:, :, None] * vectors[:, None, :]).reshape(-1, 16)
    u, s, vh = np.linalg.svd(design, full_matrices=False)
    if np.count_nonzero(s > s.max(initial=0.0) * max(design.shape) * np.finfo(s.dtype).eps) < 16:
        raise ValueError("measurement settings do not span the 16-dimensional operator space")
    inverse = np.divide(1.0, s, out=np.zeros_like(s), where=s > 1e-15 * s.max())
    est = (vh.conj().T @ (inverse[:, None] * u.conj().T) @ rates[..., None]).reshape(*rates.shape[:-1], 4, 4)
    return 0.5 * (est + est.conj().swapaxes(-1, -2))


def reconstruct_linear(records: list[CountsRecord]) -> np.ndarray:
    """Least-squares estimate (4, 4) in the linear basis, Hermitian and unit trace.

    The estimate need not be a state: noise can push eigenvalues below zero,
    and it is returned whatever they are.  A non-positive trace carries no
    state and raises ValueError, which says so when every count is zero.
    """
    vectors, counts, exposures = _arrays(records)
    est = _linear_estimate(vectors, counts / exposures)
    trace = float(np.trace(est).real)
    if trace <= 0.0:
        raise ValueError("estimated operator has non-positive trace" if counts.any()
                         else "all settings recorded zero counts")
    return est / trace


# ---------------------------------------------------------------------------
# Maximum likelihood
#
# The state is rho = T^dagger T / Tr[T^dagger T] with T lower triangular and
# real on the diagonal (James et al., PRA 64, 052312 (2001)).  Its 16 real
# parameters x are the diagonal, then the real and imaginary parts of the
# sub-diagonal entries row by row: T = sum_j x_j E_j.  With the flux profiled
# out, the log-likelihood is, up to a constant, one weighted log-sum
#
#     ll(x) = sum_k c_k ln q_k,   q_k = x^T A_k x,   c = (n_1, ..., n_n, -N),
#
# over n + 1 quadratic forms: A_k = Re(M_k^dagger M_k), column j of M_k is
# E_j v_k, then the flux form A_{n+1} = S = sum_k e_k A_k; N = sum_k n_k
# (_profiled_ll).  ll is homogeneous of degree 0 in x; with w = c / q its
# gradient is 2 sum w_k A_k x and its Hessian 2 sum w_k A_k - 4 sum (w_k / q_k)
# (A_k x)(A_k x)^T (_likelihood).

_DIAG = np.arange(4)
_TRIL = np.tril_indices(4, -1)
_E = np.zeros((16, 4, 4), dtype=complex)  # T = sum_j x_j E_j
_E[_DIAG, _DIAG, _DIAG] = 1.0
_E[np.arange(4, 16, 2), _TRIL[0], _TRIL[1]] = 1.0
_E[np.arange(5, 16, 2), _TRIL[0], _TRIL[1]] = 1j

# Damped Newton ascent at |x| = 1 (_ascend): each step solves
# (c (x x^T + lambda I) - H) d = g, c the largest |diagonal entry| of H; the
# x x^T term pins the radial direction, along which ll is flat.  A system with
# no Cholesky factor gives no ascent step and counts as a rejected step, so the
# ascent cannot settle on a saddle.  One stacked LAPACK Cholesky call per step
# tests every live system, a failure read from its NaN output, and one stacked
# solve gives the steps: both from numpy's private numpy.linalg._umath_linalg,
# pinned by test_positive_definite_matches_cholesky and test_step_solve_matches_linalg_solve.
# A step evaluates ll, gradient and Hessian once, at the trial point of every
# active problem (its current point if it has no ascent step), unless none has
# one; a problem leaves the stack when it stops.  The damping lambda starts at
# _DAMPING; it is divided by 10 (down to _DAMPING_MIN) after an accepted step
# and multiplied by 10 after a rejected one.  A step is accepted when ll does
# not fall by more than its rounding, _ROUNDING |ll|.  The ascent stops at an
# accepted step with lambda at most _UNDAMPED that gains less than _GAIN_TOL
# |ll|, and fails once lambda exceeds _DAMPING_MAX or _MAX_ITERATIONS steps run out.
_DAMPING = 1e-3
_DAMPING_MIN = 1e-12
_UNDAMPED = 1e-6
_DAMPING_MAX = 1e16
_GAIN_TOL = 1e-13
_ROUNDING = 1e-14
_MAX_ITERATIONS = 10_000


def _lower_t_factor(mat: np.ndarray) -> np.ndarray:
    """Lower-triangular T with T^dagger T = mat, for positive definite mats (..., 4, 4)."""
    return np.linalg.cholesky(mat[..., ::-1, ::-1])[..., ::-1, ::-1].conj().swapaxes(-1, -2)


def _rho_from_params(params: np.ndarray) -> np.ndarray:
    """(T^dagger T + 1e-15 Tr I) / (Tr (1 + 4e-15)) for parameters (B, 16); the
    1e-15 Tr I keeps every computed eigenvalue above 0."""
    t = (params @ _E.reshape(16, 16)).reshape(-1, 4, 4)
    mat = t.conj().swapaxes(-1, -2) @ t
    mat = 0.5 * (mat + mat.conj().swapaxes(-1, -2))
    trace = np.trace(mat, axis1=-2, axis2=-1).real[..., None, None]
    return (mat + 1e-15 * trace * np.eye(4)) / (trace * (1.0 + 4e-15))


def _profiled_ll(weights: np.ndarray, seen: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sum_k c_k ln q_k over the last axis of the weights c and forms q (..., n + 1),
    for seen = c != 0; -inf where a form with positive weight has q_k = 0.
    Callers ignore numpy's divide and invalid warnings."""
    return (weights * np.log(q, out=np.zeros(q.shape), where=seen)).sum(axis=-1)


def _unit_exposures(exposures: np.ndarray) -> np.ndarray:
    """The exposures times the power of two that brings the largest into [1, 2): an exact
    change of unit, which the MLE does not depend on, that keeps e . p and 1 / (e . p) finite."""
    return np.ldexp(exposures, 1 - np.frexp(exposures.max(initial=0.0))[1])


def _quadratic_forms(vectors: np.ndarray, exposures: np.ndarray) -> np.ndarray:
    """A_k of the analyzer kets (n, 4), then S = sum_k e_k A_k in unit exposures: (n + 1, 16, 16)."""
    m = (_E @ vectors.T).transpose(2, 1, 0)  # (n, 4, 16): column j of M_k is E_j v_k
    a = (m.conj().swapaxes(1, 2) @ m).real
    a = 0.5 * (a + a.swapaxes(1, 2))
    return np.concatenate([a, np.tensordot(_unit_exposures(exposures), a, axes=1)[None]])


def _likelihood(x, rows, flat, weights, seen):
    """ll (B,), gradient (B, 16) and Hessian (B, 16, 16) at the parameters x (B, 16), for the
    forms as rows ((n + 1) 16, 16) and flat (n + 1, 256), weights c (B, n + 1) and seen = c != 0.

    Only stacked products, elementwise operations and reductions over a
    problem's own axes are used, so each problem's numbers do not depend on
    the others in the stack.
    """
    xc = x[:, :, None]
    ax = (rows @ xc).reshape(len(x), -1, 16)  # rows A_k x
    q = (ax @ xc)[..., 0]
    w = np.divide(weights, q, out=np.zeros(q.shape), where=seen)
    w_q = np.divide(w, q, out=np.zeros(q.shape), where=seen)
    grad = 2.0 * (w[:, None, :] @ ax)[:, 0, :]
    hess = 2.0 * (w[:, None, :] @ flat).reshape(-1, 16, 16)
    hess -= 4.0 * ((ax * w_q[:, :, None]).swapaxes(1, 2) @ ax)
    return _profiled_ll(weights, seen, q), grad, hess


def _positive_definite(systems: np.ndarray) -> np.ndarray:
    """Whether each matrix of the stack (B, 16, 16) has a Cholesky factor, as
    np.linalg.cholesky decides, from one stacked call of its LAPACK gufunc: that
    zeroes the upper triangle of a factor and fills a failed one with NaN instead
    of raising.  Callers ignore numpy's invalid warning, its signal of a failure."""
    return _umath_linalg.cholesky_lo(systems, signature="d->d")[:, 0, -1] == 0.0


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _ascend(x: np.ndarray, forms: np.ndarray, counts: np.ndarray):
    """Damped Newton ascent of every problem in the stack.  Returns the final
    parameters, iteration counts, damping, gradient max-norm and a converged
    flag per problem; a problem that stops is written out and leaves the stack."""
    forms = forms.reshape(-1, 16), forms.reshape(len(forms), 256)
    weights = np.concatenate([counts, -counts.sum(axis=-1, keepdims=True)], axis=-1)
    seen = weights != 0
    x = x / np.sqrt((x * x).sum(axis=-1))[:, None]
    ll, grad, hess = _likelihood(x, *forms, weights, seen)
    damping = np.full(len(x), _DAMPING)
    out_x, out_damping, grad_max = x.copy(), damping.copy(), np.abs(grad).max(axis=-1)
    out_iterations, converged = np.zeros(len(x), dtype=int), np.zeros(len(x), dtype=bool)
    live = np.arange(len(x))
    iterations = 0  # every live problem has taken this many steps
    eye = np.eye(16)
    while len(live):
        iterations += 1
        scale = np.abs(hess.diagonal(0, 1, 2)).max(axis=-1)
        system = scale[:, None, None] * (x[:, :, None] * x[:, None, :] + damping[:, None, None] * eye) - hess
        accept = done = _positive_definite(system)  # the problems with an ascent step
        ascents = np.count_nonzero(accept)  # the cheapest numpy test of a small mask
        if ascents:  # without one, every trial would be rejected
            if ascents < len(live):
                system = np.where(accept[:, None, None], system, eye)
            step = _umath_linalg.solve(system, grad[:, :, None], signature="dd->d")[..., 0]
            trial = x + (step if ascents == len(live) else np.where(accept[:, None], step, 0.0))
            trial /= np.sqrt((trial * trial).sum(axis=-1))[:, None]
            ll_trial, grad_trial, hess_trial = _likelihood(trial, *forms, weights, seen)
            tol = np.abs(ll)
            accept = accept & (ll_trial >= ll - _ROUNDING * tol)
            done = accept & (damping <= _UNDAMPED) & (ll_trial - ll <= _GAIN_TOL * tol)
            if np.count_nonzero(accept) == len(live):
                x, ll, grad, hess = trial, ll_trial, grad_trial, hess_trial
            else:
                x = np.where(accept[:, None], trial, x)
                ll = np.where(accept, ll_trial, ll)
                grad = np.where(accept[:, None], grad_trial, grad)
                hess = np.where(accept[:, None, None], hess_trial, hess)
        damping = np.where(accept, np.maximum(damping / 10.0, _DAMPING_MIN), damping * 10.0)
        stop = done | (iterations >= _MAX_ITERATIONS) | (damping > _DAMPING_MAX)
        if np.count_nonzero(stop):
            j = live[stop]
            out_x[j], out_damping[j], grad_max[j] = x[stop], damping[stop], np.abs(grad[stop]).max(axis=-1)
            out_iterations[j], converged[j] = iterations, done[stop]
            live, x, ll, grad, hess, damping, weights, seen = (
                v[~stop] for v in (live, x, ll, grad, hess, damping, weights, seen)
            )
    return out_x, out_iterations, out_damping, grad_max, converged


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _state_ll(mat: np.ndarray, vectors: np.ndarray, counts: np.ndarray, exposures: np.ndarray) -> float:
    """Poisson log-likelihood sum_k n_k ln mu_k - mu_k of the linear-basis state at
    its maximum-likelihood flux N / s, with mu_k = N e_k p_k / s and s = e . p:
    _profiled_ll at the Born probabilities p and s plus sum_k n_k ln(N e_k) - N, in unit exposures."""
    exposures = _unit_exposures(exposures)
    p = _born(mat, vectors)
    total = counts.sum()
    weights, seen = np.append(counts, -total), counts > 0
    ll = _profiled_ll(weights, weights != 0, np.append(p, exposures @ p))
    return float(ll + counts[seen] @ np.log(total * exposures[seen]) - total)


def log_likelihood(rho: DensityMatrix4, records: list[CountsRecord]) -> float:
    """Poisson log-likelihood of a state given observed counts, at the
    maximum-likelihood flux; -inf if a setting with counts has probability 0."""
    return _state_ll(density_change_basis(rho, LINEAR).matrix, *_arrays(records))


def _mle_seed(vectors: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Starting parameters (B, 16) for analyzer kets (n, 4) and rates (B, n): the
    linear estimate projected onto the states and mixed with 1% of I/4."""
    est = _linear_estimate(vectors, rates)
    trace = np.trace(est, axis1=1, axis2=2).real[:, None, None]
    mat = np.where(trace > 0.0, est / np.where(trace > 0.0, trace, 1.0), np.eye(4) / 4.0)
    evals, evecs = np.linalg.eigh(mat)
    mat = (evecs * np.clip(evals, 0.0, None)[:, None, :]) @ evecs.conj().swapaxes(1, 2)
    trace = np.maximum(np.trace(mat, axis1=1, axis2=2).real, 1e-12)[:, None, None]
    mat = 0.99 * mat / trace + 0.01 * np.eye(4) / 4.0
    mat = 0.5 * (mat + mat.conj().swapaxes(1, 2))
    return (_lower_t_factor(mat).reshape(-1, 16) @ _E.reshape(16, 16).conj().T).real


def _solve(vectors: np.ndarray, counts: np.ndarray, exposures: np.ndarray):
    """Linear-basis MLE states (B, 4, 4) and iteration counts (B,) for analyzer kets
    (n, 4), counts (B, n) and exposures (n,), solved together with the results of
    stacks of one.  The first problem not converged raises ConvergenceError, and
    exposures whose optimum the likelihood cannot represent raise ValueError."""
    x0 = _mle_seed(vectors, counts / exposures)
    if np.any(np.sum(counts, axis=1) <= 0):
        raise ValueError("all settings recorded zero counts")
    # Settings exposed over 2^520 (sqrt(float max) * 2^8) times longer than the shortest with
    # counts, if one state can miss them all, would be fitted probabilities whose likelihood
    # curvature ~1/p^2 overflows; the largest such ratio seen to converge was 5e154.
    shortest = float(exposures[np.any(counts > 0, axis=0)].min())
    far = exposures > shortest * 2.0**520
    if np.any(far) and np.linalg.matrix_rank(vectors[far]) < 4:
        raise ValueError(f"exposure {float(exposures.max())!r} is over 2^520 times {shortest!r}, the shortest with "
                         "counts, on settings one state can miss: the MLE cannot represent their probabilities")
    x, iterations, damping, grad_max, converged = _ascend(x0, _quadratic_forms(vectors, exposures), counts)
    mats = _rho_from_params(x)
    failed = np.flatnonzero(~converged)
    if len(failed):
        b = failed[0]
        cause = "iteration cap" if iterations[b] >= _MAX_ITERATIONS else "damping overflow"
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


def reconstruct_mle(records: list[CountsRecord]) -> TomographyResult:
    """Maximum-likelihood state reconstruction, positive semidefinite by construction.

    The state is parameterized as T^dagger T / Tr[T^dagger T] with a
    lower-triangular T (16 real parameters) and ascended deterministically
    from the linear-inversion seed by damped Newton steps on the exact
    Hessian.  A Cholesky test of the damped system decides whether a step
    is an ascent step, one linear solve gives it, and the likelihood is
    evaluated with its derivatives at the trial point, once per step with
    an ascent step.  The ascent counts as converged at a nearly undamped step that
    gains less than 1e-13 of the log-likelihood; running out of
    10,000 steps (``iterations`` counts every step tried, accepted or
    not) or of damping raises :class:`ConvergenceError`,
    which carries the best iterate and names the iteration count, the final
    damping and the gradient max-norm.
    """
    vectors, counts, exposures = _arrays(records)
    mats, iterations = _solve(vectors, counts[None], exposures)
    return _result(mats[0], counts, iterations[0], vectors, exposures)


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
    ``target`` ket is supplied.  A resample that draws no count in any
    setting has no estimate and raises ValueError; it is not redrawn, which
    would bias the bootstrap.  It happens with probability e^-N for N counts
    in total, so the bootstrap needs more than a handful of counts.  A count
    above POISSON_MAX cannot be redrawn and raises ValueError before any draw.
    """
    if n_resamples < 2:
        raise ValueError("n_resamples must be at least 2")
    vectors, counts, exposures = _arrays(records)
    if counts.max(initial=0.0) > POISSON_MAX:
        raise ValueError(f"a count above {POISSON_MAX:.4g}, the largest Poisson mean numpy draws, cannot be redrawn")
    redrawn = np.array([
        np.random.default_rng(child).poisson(counts)
        for child in np.random.SeedSequence(seed).spawn(n_resamples)
    ], dtype=float)
    empty = np.flatnonzero(redrawn.sum(axis=1) <= 0)
    if len(empty):
        raise ValueError(f"resample {empty[0]} drew no counts in any setting: the data hold "
                         f"{counts.sum():g} counts in total, too few to bootstrap")
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
