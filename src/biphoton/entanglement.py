"""Entanglement indicators for two-qubit states, on a stack of density matrices.

The single-state functions change a state to the linear basis once and call the
parts of :func:`indicator_arrays` with a stack of one, so a state's values are
the same either way.  Concurrence takes the Wootters l_i as the singular values
of X^T (sigma_y (x) sigma_y) X for the factor X = U sqrt(evals) of each state,
with the transpose taken in the linear (H, V) basis; the result is
basis-independent but pinning the convention keeps the values reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from .polstate import LINEAR, BiphotonKet, DensityMatrix4, _born, change_basis, density_change_basis

__all__ = [
    "concurrence",
    "entanglement_of_formation",
    "fidelity",
    "indicator_arrays",
    "indicators",
    "purity",
]

_YY = np.diag([-1.0, 1.0, 1.0, -1.0])[::-1]  # sigma_y (x) sigma_y: the i's cancel


def _clip_dust(evals: np.ndarray) -> np.ndarray:
    """Zero out eigenvalues (..., 4), ascending, indistinguishable from rounding noise.

    The square root amplifies eigenvalue dust (sqrt(1e-16) = 1e-8), so
    anything below the rounding floor is treated as an exact zero.  The
    floor is set by the unit-trace scale of the matrices handled here, not
    by the largest eigenvalue, because the products that build them carry
    absolute rounding errors of order machine epsilon.
    """
    floor = 1e-14 * np.maximum(evals[..., -1:], 1.0)
    return np.where(evals > floor, evals, 0.0)


def _purities(mats: np.ndarray) -> np.ndarray:
    return np.trace(mats @ mats, axis1=-2, axis2=-1).real


def _concurrences(linear: np.ndarray) -> np.ndarray:
    """C = max(0, l1 - l2 - l3 - l4) of linear-basis matrices (B, 4, 4): for any
    factor rho = X X^dagger the l_i are the decreasing singular values of the
    symmetric X^T (sigma_y (x) sigma_y) X (Wootters 1998); X = U sqrt(evals)."""
    evals, evecs = np.linalg.eigh(linear)
    x = evecs * np.sqrt(_clip_dust(evals))[:, None, :]
    lams = np.linalg.svd(x.swapaxes(-1, -2) @ _YY @ x, compute_uv=False)
    return np.maximum(0.0, lams[:, 0] - lams[:, 1] - lams[:, 2] - lams[:, 3])


def _eof_from_concurrence(c: float) -> float:
    """Entanglement of formation of a concurrence c in [0, 1]: the binary entropy of p in [1/2, 1]."""
    p = 0.5 * (1.0 + math.sqrt(1.0 - c * c))
    return 0.0 if p >= 1.0 else -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _fidelities(linear: np.ndarray, target: BiphotonKet) -> np.ndarray:
    v = change_basis(target, LINEAR).amplitudes
    return np.minimum(1.0, _born(linear, v[None])[..., 0])


def indicator_arrays(linear: np.ndarray, target: BiphotonKet | None = None):
    """Purity, concurrence, entanglement of formation and, given a ``target``, fidelity
    by name, each for every unvalidated linear-basis density matrix of the stack
    (B, 4, 4); a state's values do not depend on the others in the stack."""
    c = _concurrences(linear)
    out = {
        "purity": _purities(linear),
        "concurrence": c,
        "entanglement_of_formation": np.array([_eof_from_concurrence(min(1.0, x)) for x in c]),
    }
    if target is not None:
        out["fidelity"] = _fidelities(linear, target)
    return out


def purity(rho: DensityMatrix4) -> float:
    """Tr[rho^2]: 1 for pure states, 1/4 for the maximally mixed state."""
    return float(_purities(rho.matrix[None])[0])


def concurrence(rho: DensityMatrix4) -> float:
    """Two-qubit concurrence C in [0, 1], by the spin-flip construction."""
    return float(_concurrences(density_change_basis(rho, LINEAR).matrix[None])[0])


def entanglement_of_formation(rho: DensityMatrix4) -> float:
    """Entanglement of formation E in [0, 1] via the concurrence."""
    return _eof_from_concurrence(min(1.0, concurrence(rho)))


def fidelity(rho: DensityMatrix4, target: BiphotonKet) -> float:
    """Pure-target fidelity <target| rho |target>, clipped into [0, 1]."""
    return float(_fidelities(density_change_basis(rho, LINEAR).matrix[None], target)[0])


def indicators(rho: DensityMatrix4, target: BiphotonKet | None = None) -> dict[str, float]:
    """indicator_arrays of one state, as floats."""
    linear = density_change_basis(rho, LINEAR).matrix
    return {name: float(v[0]) for name, v in indicator_arrays(linear[None], target).items()}
