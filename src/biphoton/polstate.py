"""Polarization state algebra for photon pairs.

Single-photon states live in the linear basis (H, V) or the circular basis
(L, R) with the convention L = (H + iV)/sqrt(2), R = (H - iV)/sqrt(2).
Two-photon amplitudes are ordered signal-major: (LL, LR, RL, RR) in the
circular basis, (HH, HV, VH, VV) in the linear basis.

JSON interchange encodes every complex number as a two-element list
[re, im]; matrices are row-major lists of such pairs, and every state
object carries a "basis" field.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .angmom import CascadeLevels, path_coupling_x

__all__ = [
    "CIRCULAR",
    "LINEAR",
    "PSD_TOL",
    "BiphotonKet",
    "DensityMatrix4",
    "PathAmplitudes",
    "Projector",
    "beat_params",
    "change_basis",
    "density_change_basis",
    "density_from_ket",
    "density_to_dict",
    "ket_from_dict",
    "ket_from_path",
    "ket_to_dict",
    "named_projector",
    "predict_path_state",
    "projector_to_dict",
]

CIRCULAR = "circular"
LINEAR = "linear"

_NORM_TOL = 1e-12
# A state's eigenvalues may lie this far below zero, for rounding.
PSD_TOL = 1e-9

# Columns are |L> and |R> expressed in (H, V) components.
_CIRC_TO_LIN = np.array([[1.0, 1.0], [1.0j, -1.0j]]) / math.sqrt(2.0)
_LIN_TO_CIRC = _CIRC_TO_LIN.conj().T
# The same rotation on both photons of a pair, keyed by the target basis.
_PAIR_ROTATION = {LINEAR: np.kron(_CIRC_TO_LIN, _CIRC_TO_LIN), CIRCULAR: np.kron(_LIN_TO_CIRC, _LIN_TO_CIRC)}


def _check_basis(basis: str) -> str:
    if basis not in (CIRCULAR, LINEAR):
        raise ValueError(f"unknown basis {basis!r}; expected {CIRCULAR!r} or {LINEAR!r}")
    return basis


@dataclass(frozen=True)
class Projector:
    """A single-photon polarization analyzer setting, stored in the (H, V) basis."""

    c_h: complex
    c_v: complex

    def __post_init__(self) -> None:
        norm2 = abs(self.c_h) ** 2 + abs(self.c_v) ** 2
        if not abs(norm2 - 1.0) <= _NORM_TOL:  # NaN fails too
            raise ValueError(f"projector not normalized: |c|^2 = {norm2!r}")

    @classmethod
    def normalized(cls, c_h, c_v) -> "Projector":
        """Build from unnormalized components."""
        c_h, c_v = complex(c_h), complex(c_v)
        norm = math.hypot(c_h.real, c_h.imag, c_v.real, c_v.imag)
        if not 0.0 < norm < math.inf:
            raise ValueError(f"cannot normalize a projector of norm {norm!r}")
        return cls(c_h / norm, c_v / norm)

    def vector(self, basis: str = LINEAR) -> np.ndarray:
        """Components of the analyzed state in the requested basis."""
        lin = np.array([self.c_h, self.c_v], dtype=complex)
        if _check_basis(basis) == LINEAR:
            return lin
        return _LIN_TO_CIRC @ lin


_NAMED_PROJECTORS = {
    "H": (1.0, 0.0),
    "V": (0.0, 1.0),
    "D": (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
    "A": (1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)),
    "L": (1.0 / math.sqrt(2.0), 1.0j / math.sqrt(2.0)),
    "R": (1.0 / math.sqrt(2.0), -1.0j / math.sqrt(2.0)),
}


def named_projector(name: str) -> Projector:
    """One of the six standard analyzer settings H, V, D, A, L, R."""
    try:
        c_h, c_v = _NAMED_PROJECTORS[name]
    except KeyError:
        raise ValueError(f"unknown projector name {name!r}; use one of H,V,D,A,L,R")
    return Projector(complex(c_h), complex(c_v))


@dataclass(frozen=True)
class BiphotonKet:
    """Pure two-photon polarization state: 4 complex amplitudes plus a basis tag."""

    amplitudes: np.ndarray
    basis: str = CIRCULAR

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(4)
        object.__setattr__(self, "amplitudes", amps)
        _check_basis(self.basis)
        with np.errstate(over="ignore"):  # an overflow gives inf and fails the check below
            norm2 = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm2 - 1.0) <= _NORM_TOL:  # NaN fails too
            raise ValueError(f"ket not normalized: |psi|^2 = {norm2!r}")


@dataclass(frozen=True)
class DensityMatrix4:
    """Two-qubit state: Hermitian, unit trace, no eigenvalue below -PSD_TOL."""

    matrix: np.ndarray
    basis: str = CIRCULAR

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex).reshape(4, 4)
        object.__setattr__(self, "matrix", mat)
        _check_basis(self.basis)
        herm_dev = float(np.max(np.abs(mat - mat.conj().T)))
        if not herm_dev <= 1e-12:  # NaN fails too
            raise ValueError(f"matrix not Hermitian: max deviation {herm_dev!r}")
        trace_dev = abs(complex(np.trace(mat)) - 1.0)
        if not trace_dev <= 1e-12:
            raise ValueError(f"trace differs from 1 by {trace_dev!r}")
        min_eig = float(np.linalg.eigvalsh(mat)[0])
        if min_eig < -PSD_TOL:
            raise ValueError(f"matrix not positive semidefinite: min eigenvalue {min_eig!r}")


def _born(mats: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Born-rule probabilities <v|rho|v> (..., n), clipped at zero, of states (..., 4, 4)
    for kets (n, 4) in their basis.  The stacked (1, 4) @ (4, 4) @ (4, 1) products round
    as v.conj() @ rho @ v does; a contraction such as einsum rounds differently, and a
    shift in the last place can move a Poisson draw."""
    bras = vectors.conj()[:, None, :]
    return np.maximum(((bras @ mats[..., None, :, :]) @ vectors[:, :, None])[..., 0, 0].real, 0.0)


@dataclass(frozen=True)
class PathAmplitudes:
    """Normalized amplitudes (a0, a1) and relative phase phi0 of one decay path."""

    a0: float
    a1: float
    phi0: float

    def __post_init__(self) -> None:
        if self.a0 < 0 or self.a1 < 0:
            raise ValueError("amplitudes must be non-negative")
        norm2 = self.a0**2 + self.a1**2
        if not abs(norm2 - 1.0) <= _NORM_TOL:  # NaN fails too
            raise ValueError(f"amplitudes not normalized: a0^2 + a1^2 = {norm2!r}")
        if not (-math.pi < self.phi0 <= math.pi):
            raise ValueError(f"phi0 must lie in (-pi, pi], got {self.phi0!r}")


def predict_path_state(levels: CascadeLevels) -> PathAmplitudes:
    """Predict the two-photon state of one decay path from its level structure.

    The polarization channels map to helicity transfers as L <-> +1 and
    R <-> -1, so the |LR> amplitude comes from the (alpha_s, alpha_i) =
    (+1, -1) channel and |RL> from (-1, +1).  The co-rotating channels
    (+1, +1) and (-1, -1) vanish identically (the cascade must return the
    atom to its initial projection), so the two counter-rotating amplitudes
    alone are normalized; the relative phase is the sign of the coupling
    ratio: 0 if the two allowed channels share a sign, pi otherwise.
    """
    x_lr = path_coupling_x(levels, +1, -1)
    x_rl = path_coupling_x(levels, -1, +1)
    if x_lr == 0.0 and x_rl == 0.0:
        raise ValueError(
            "both counter-rotating channels are forbidden for these levels"
        )
    norm = math.sqrt(x_lr**2 + x_rl**2)
    a0 = abs(x_lr) / norm
    a1 = abs(x_rl) / norm
    phi0 = math.pi if x_lr * x_rl < 0 else 0.0
    return PathAmplitudes(a0, a1, phi0)


def ket_from_path(path: PathAmplitudes) -> BiphotonKet:
    """Circular-basis ket a0|LR> + e^{i phi0} a1|RL>."""
    amps = np.array(
        [0.0, path.a0, cmath.exp(1j * path.phi0) * path.a1, 0.0], dtype=complex
    )
    return BiphotonKet(amps, CIRCULAR)


def change_basis(ket: BiphotonKet, target: str) -> BiphotonKet:
    """Express the ket in the requested basis (unitary on both photons)."""
    _check_basis(target)
    if target == ket.basis:
        return ket
    amps = _PAIR_ROTATION[target] @ ket.amplitudes
    return BiphotonKet(amps, target)


def density_change_basis(rho: DensityMatrix4, target: str) -> DensityMatrix4:
    """Express the density matrix in the requested basis."""
    if _check_basis(target) == rho.basis:
        return rho
    u = _PAIR_ROTATION[target]
    mat = u @ rho.matrix @ u.conj().T
    return DensityMatrix4(0.5 * (mat + mat.conj().T), target)


def density_from_ket(ket: BiphotonKet) -> DensityMatrix4:
    """Rank-1 density matrix |psi><psi| in the ket's basis."""
    mat = np.outer(ket.amplitudes, ket.amplitudes.conj())
    return DensityMatrix4(mat, ket.basis)


def _joint_amplitude(ket: BiphotonKet, proj_s: Projector, proj_i: Projector) -> complex:
    """Amplitude <p_s p_i | psi> of finding the pair in the analyzed polarizations."""
    v = np.kron(proj_s.vector(ket.basis), proj_i.vector(ket.basis))
    return complex(v.conj() @ ket.amplitudes)


def beat_params(
    ket_x: BiphotonKet,
    ket_y: BiphotonKet,
    proj_s: Projector,
    proj_i: Projector,
) -> tuple[float, float]:
    """Relative amplitude R and phase phi of two interfering decay paths.

    Both paths are projected onto the same analyzer pair; R = |A_y / A_x|
    and phi = arg(A_y / A_x) folded into (-pi, pi].  An amplitude counts as
    vanishing at magnitude 1e-14 or below.  A vanishing A_y gives
    the single-path convention (0, 0).  A vanishing A_x (with A_y nonzero)
    raises ValueError: the reference path is fully suppressed and the
    caller must swap the roles of the two paths.
    """
    a_x = _joint_amplitude(ket_x, proj_s, proj_i)
    a_y = _joint_amplitude(ket_y, proj_s, proj_i)
    if abs(a_y) <= 1e-14:
        return 0.0, 0.0
    if abs(a_x) <= 1e-14:
        raise ValueError(
            "reference path amplitude is zero for these projectors"
        )
    ratio = a_y / a_x
    phi = cmath.phase(ratio)  # in [-pi, pi]
    return abs(ratio), math.pi if phi == -math.pi else phi


# ---------------------------------------------------------------------------
# JSON interchange: complex numbers as [re, im], matrices row-major.

def _c2p(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _p2c(pair) -> complex:
    try:
        re, im = pair if isinstance(pair, (list, tuple)) else ()
        return complex(float(re), float(im))
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond the float range
        raise ValueError(f"expected a [re, im] pair of numbers, got {pair!r}") from None


def projector_to_dict(proj: Projector) -> dict:
    return {
        "type": "projector",
        "basis": LINEAR,
        "components": [_c2p(proj.c_h), _c2p(proj.c_v)],
    }


def ket_to_dict(ket: BiphotonKet) -> dict:
    return {
        "type": "biphoton_ket",
        "basis": ket.basis,
        "amplitudes": [_c2p(a) for a in ket.amplitudes],
    }


def ket_from_dict(data: dict) -> BiphotonKet:
    """Ket from ``{"basis": ..., "amplitudes": [[re, im] x 4]}``; ValueError if malformed."""
    amps = data.get("amplitudes") if isinstance(data, dict) else None
    if not isinstance(amps, list) or len(amps) != 4:
        raise ValueError("a biphoton ket needs a 'basis' and an 'amplitudes' list of 4 [re, im] pairs")
    return BiphotonKet(
        np.array([_p2c(a) for a in amps], dtype=complex), _check_basis(data.get("basis"))
    )


def density_to_dict(matrix: np.ndarray) -> dict:
    """JSON object of a linear-basis matrix (4, 4): a state or a linear-inversion estimate."""
    return {
        "type": "density_matrix",
        "basis": LINEAR,
        "matrix": [[_c2p(z) for z in row] for row in matrix],
    }
