"""Reference computations made apart from the program, and the checks built on them.

Nothing here imports biphoton.  The conventions are restated from the
project README: L = (H + iV)/sqrt(2), R = (H - iV)/sqrt(2); two-photon
amplitudes are signal-major, (LL, LR, RL, RR) in the circular basis and
(HH, HV, VH, VV) in the linear basis.  Every check raises ``CheckFailed``
with a message naming what disagreed.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

_S = 1.0 / math.sqrt(2.0)
ANALYZERS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([_S, _S], dtype=complex),
    "A": np.array([_S, -_S], dtype=complex),
    "L": np.array([_S, 1j * _S]),
    "R": np.array([_S, -1j * _S]),
}
# Columns are |L> and |R> in (H, V) components.
_CIRC_TO_LIN = np.array([[_S, _S], [1j * _S, -1j * _S]])
_PAIR_CIRC_TO_LIN = np.kron(_CIRC_TO_LIN, _CIRC_TO_LIN)
_YY = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=float)


class CheckFailed(Exception):
    """An output of the program disagrees with the reference or breaks a property."""


# ---------------------------------------------------------------------------
# Polarization states and tomography


def ket_to_linear(amplitudes_circular) -> np.ndarray:
    return _PAIR_CIRC_TO_LIN @ np.asarray(amplitudes_circular, dtype=complex)


def density_to_linear(matrix_circular) -> np.ndarray:
    u = _PAIR_CIRC_TO_LIN
    return u @ np.asarray(matrix_circular, dtype=complex) @ u.conj().T


def setting_vectors(labels) -> np.ndarray:
    """Two-photon analyzer vectors (n, 4), linear basis, from labels such as 'HD'."""
    return np.array([np.kron(ANALYZERS[lbl[0]], ANALYZERS[lbl[1]]) for lbl in labels])


def born_probabilities(rho_linear: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """p_k = <v_k| rho |v_k> for each analyzer vector."""
    return np.einsum("ki,ij,kj->k", vectors.conj(), rho_linear, vectors).real


def profiled_log_likelihood(rho_linear, vectors, counts, exposures) -> float:
    """Poisson log-likelihood with the overall flux set to its maximum-likelihood value.

    Settings with zero counts contribute only through the flux; a setting with
    counts and zero probability makes the likelihood minus infinity.
    """
    counts = np.asarray(counts, dtype=float)
    mu = np.asarray(exposures, dtype=float) * np.clip(born_probabilities(rho_linear, vectors), 0.0, None)
    mu *= counts.sum() / mu.sum()
    pos = counts > 0
    if np.any(mu[pos] <= 0.0):
        return -math.inf
    return float(np.sum(counts[pos] * np.log(mu[pos])) - mu.sum())


def purity(rho) -> float:
    rho = np.asarray(rho)
    return float(np.einsum("ij,ji->", rho, rho).real)


def concurrence(rho_linear) -> float:
    """Wootters concurrence from the eigenvalues of rho (Y x Y) rho* (Y x Y).

    Eigenvalues below 1e-14 are rounding noise of a product of unit-trace
    matrices and are taken as zero before the square root magnifies them.
    """
    rho = np.asarray(rho_linear)
    evals = np.linalg.eigvals(rho @ _YY @ rho.conj() @ _YY).real
    evals = np.where(evals > 1e-14 * max(1.0, float(evals.max())), evals, 0.0)
    lams = np.sort(np.sqrt(evals))[::-1]
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def entanglement_of_formation(c: float) -> float:
    p = 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - c * c)))
    if p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def fidelity(rho_linear, ket_linear) -> float:
    v = np.asarray(ket_linear)
    return float((v.conj() @ np.asarray(rho_linear) @ v).real)


def indicators(rho_linear, ket_linear) -> dict[str, float]:
    c = concurrence(rho_linear)
    return {
        "purity": purity(rho_linear),
        "concurrence": c,
        "entanglement_of_formation": entanglement_of_formation(min(c, 1.0)),
        "fidelity": fidelity(rho_linear, ket_linear),
    }


def beat_ratio(ket_x_linear, ket_y_linear, proj_s, proj_i) -> tuple[float, float]:
    """(R, phi) = (|A_y/A_x|, arg(A_y/A_x)) with A = <p_s p_i|psi>, phi in (-pi, pi]."""
    v = np.kron(np.asarray(proj_s, dtype=complex), np.asarray(proj_i, dtype=complex))
    ratio = complex(v.conj() @ ket_y_linear) / complex(v.conj() @ ket_x_linear)
    phi = cmath.phase(ratio)
    return abs(ratio), (math.pi if phi == -math.pi else phi)


# ---------------------------------------------------------------------------
# Coincidence histograms: exact bin averages of the two published models


def single_bin_means(g0, tau_rise, tau_decay, background, t_start, width, n_bins) -> np.ndarray:
    """Average of g0 e^{t/tau_rise} (t < 0), g0 e^{-t/tau_decay} (t >= 0), plus background."""
    a = t_start + width * np.arange(n_bins)
    b = a + width
    rise = g0 * tau_rise * (np.exp(np.minimum(b, 0.0) / tau_rise) - np.exp(np.minimum(a, 0.0) / tau_rise))
    decay = g0 * tau_decay * (np.exp(-np.maximum(a, 0.0) / tau_decay) - np.exp(-np.maximum(b, 0.0) / tau_decay))
    return (rise + decay) / width + background


def beats_bin_means(g0, tau_x, tau_y, r, phi, delta, background, t_start, width, n_bins) -> np.ndarray:
    """Average of g0^2 (e^{-t/tau_x} + r^2 e^{-t/tau_y} + 2r e^{-gt} cos(delta t + phi)) for t >= 0."""
    a = np.maximum(t_start + width * np.arange(n_bins), 0.0)
    b = np.maximum(t_start + width * (np.arange(n_bins) + 1), 0.0)

    def exp_integral(rate):
        return (np.exp(-rate * a) - np.exp(-rate * b)) / rate

    k = (tau_x + tau_y) / (2.0 * tau_x * tau_y) - 1j * delta
    cross = (np.exp(1j * phi) * exp_integral(k)).real
    total = exp_integral(1.0 / tau_x) + r * r * exp_integral(1.0 / tau_y) + 2.0 * r * cross
    return g0 * g0 * total / width + background


# ---------------------------------------------------------------------------
# Checks


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_density(matrix, tol: float = 1e-9, eig_floor: float = -1e-9) -> None:
    """Hermitian and unit trace within tol; no eigenvalue below eig_floor."""
    m = np.asarray(matrix, dtype=complex)
    check(m.shape == (4, 4) and bool(np.all(np.isfinite(m))), "density matrix is not a finite 4x4 array")
    herm = float(np.max(np.abs(m - m.conj().T)))
    check(herm <= tol, f"density matrix not Hermitian: deviation {herm:.3g}")
    trace = complex(np.trace(m))
    check(abs(trace - 1.0) <= tol, f"density matrix trace {trace:.12g} differs from 1")
    low = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
    check(low >= eig_floor, f"density matrix not positive semidefinite: eigenvalue {low:.3g}")


def check_close(name: str, got: float, want: float, tol: float) -> None:
    check(math.isfinite(got) and abs(got - want) <= tol,
          f"{name}: program gives {got!r}, reference gives {want!r} (tolerance {tol:g})")


def check_within_sigmas(name: str, got: float, want: float, sigma: float, limit: float) -> None:
    check(math.isfinite(got) and math.isfinite(sigma) and sigma > 0.0,
          f"{name}: fitted value {got!r} with sigma {sigma!r} is not usable")
    z = (got - want) / sigma
    check(abs(z) <= limit, f"{name}: fitted {got:.6g} is {z:+.2f} sigma from the true {want:.6g}")
