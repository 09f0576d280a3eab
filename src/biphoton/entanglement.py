"""Scalar entanglement indicators for two-qubit states.

Concurrence uses the spin-flip construction with the conjugation taken in
the linear (H, V) basis; the result is basis-independent but pinning the
convention keeps intermediate values reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from .polstate import LINEAR, BiphotonKet, DensityMatrix4, change_basis, density_change_basis

__all__ = [
    "concurrence",
    "entanglement_of_formation",
    "eof_from_concurrence",
    "fidelity",
    "indicators",
    "purity",
]

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y).real  # the i's cancel; kept real on purpose


def purity(rho: DensityMatrix4) -> float:
    """Tr[rho^2]: 1 for pure states, 1/4 for the maximally mixed state."""
    return float(np.trace(rho.matrix @ rho.matrix).real)


def _clip_dust(evals: np.ndarray) -> np.ndarray:
    """Zero out eigenvalues indistinguishable from rounding noise.

    The square root amplifies eigenvalue dust (sqrt(1e-16) = 1e-8), so
    anything below the rounding floor is treated as an exact zero.  The
    floor is set by the unit-trace scale of the matrices handled here, not
    by the largest eigenvalue, because the products that build them carry
    absolute rounding errors of order machine epsilon.
    """
    floor = 1e-14 * max(float(evals[-1]), 1.0)
    return np.where(evals > floor, evals, 0.0)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Hermitian square root with negative eigenvalue dust clamped to zero."""
    evals, evecs = np.linalg.eigh(mat)
    evals = _clip_dust(evals)
    return (evecs * np.sqrt(evals)) @ evecs.conj().T


def concurrence(rho: DensityMatrix4) -> float:
    """Two-qubit concurrence C in [0, 1].

    C = max(0, l1 - l2 - l3 - l4) where the l_i are the decreasingly ordered
    square roots of the eigenvalues of rho * rho_tilde, computed from the
    numerically stable Hermitian form sqrt(rho) rho_tilde sqrt(rho).
    """
    mat = density_change_basis(rho, LINEAR).matrix
    rho_tilde = _YY @ mat.conj() @ _YY
    root = _psd_sqrt(mat)
    inner = root @ rho_tilde @ root
    inner = 0.5 * (inner + inner.conj().T)
    lams = np.sqrt(_clip_dust(np.linalg.eigvalsh(inner)))[::-1]
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation as a function of concurrence."""
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"concurrence must lie in [0, 1], got {c!r}")
    return _binary_entropy(0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - c * c))))


def entanglement_of_formation(rho: DensityMatrix4) -> float:
    """Entanglement of formation E in [0, 1] via the concurrence."""
    return eof_from_concurrence(min(1.0, concurrence(rho)))


def fidelity(rho: DensityMatrix4, target: BiphotonKet) -> float:
    """Pure-target fidelity <target| rho |target>, clipped into [0, 1]."""
    v = change_basis(target, rho.basis).amplitudes
    f = float((v.conj() @ rho.matrix @ v).real)
    return min(1.0, max(0.0, f))


def indicators(rho: DensityMatrix4, target: BiphotonKet | None = None) -> dict[str, float]:
    """Purity, concurrence and entanglement of formation by name, plus the
    fidelity to ``target`` when one is given."""
    out = {
        "purity": purity(rho),
        "concurrence": concurrence(rho),
        "entanglement_of_formation": entanglement_of_formation(rho),
    }
    if target is not None:
        out["fidelity"] = fidelity(rho, target)
    return out
