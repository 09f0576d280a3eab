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
from dataclasses import dataclass, field

import numpy as np

from .angmom import CascadeLevels, path_coupling_x

__all__ = [
    "CIRCULAR",
    "LINEAR",
    "BiphotonKet",
    "DensityMatrix4",
    "PathAmplitudes",
    "Projector",
    "DegenerateStateError",
    "ProjectionDegeneracyError",
    "BeatProjectorSearch",
    "beat_params",
    "change_basis",
    "density_change_basis",
    "density_from_ket",
    "density_to_dict",
    "find_beat_projectors",
    "joint_projection_amplitude",
    "ket_from_dict",
    "ket_from_path",
    "ket_to_dict",
    "matrices_change_basis",
    "min_eigenvalue",
    "named_projector",
    "predict_path_state",
    "projector_to_dict",
]

CIRCULAR = "circular"
LINEAR = "linear"

_NORM_TOL = 1e-12

# Columns are |L> and |R> expressed in (H, V) components.
_CIRC_TO_LIN = np.array([[1.0, 1.0], [1.0j, -1.0j]]) / math.sqrt(2.0)
_LIN_TO_CIRC = _CIRC_TO_LIN.conj().T


class DegenerateStateError(ValueError):
    """Raised when every decay channel of a level set is forbidden."""


class ProjectionDegeneracyError(ValueError):
    """Raised when the reference path is fully suppressed by the projectors."""


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
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm2 - 1.0) <= _NORM_TOL:  # NaN fails too
            raise ValueError(f"ket not normalized: |psi|^2 = {norm2!r}")


@dataclass(frozen=True)
class DensityMatrix4:
    """Two-qubit density matrix: Hermitian, unit trace, positive within tolerance.

    ``eig_floor`` is the smallest eigenvalue tolerated at validation;
    reconstruction by linear inversion relaxes it to -1e-2 to admit
    statistical noise, everything else uses the strict default.
    """

    matrix: np.ndarray
    basis: str = CIRCULAR
    eig_floor: float = field(default=-1e-9, compare=False)

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
        if min_eig < self.eig_floor:
            raise ValueError(
                f"matrix not positive semidefinite: min eigenvalue {min_eig!r} "
                f"below floor {self.eig_floor!r}"
            )


def min_eigenvalue(rho: DensityMatrix4) -> float:
    """Smallest eigenvalue of the density matrix (negative values flag noise)."""
    return float(np.linalg.eigvalsh(rho.matrix)[0])


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
    (+1, -1) channel and |RL> from (-1, +1).  Amplitudes are normalized over
    all four helicity combinations (the co-rotating ones vanish identically),
    and the relative phase is the sign of the coupling ratio: 0 if the two
    allowed channels share a sign, pi otherwise.
    """
    x_lr = path_coupling_x(levels, +1, -1)
    x_rl = path_coupling_x(levels, -1, +1)
    x_ll = path_coupling_x(levels, +1, +1)
    x_rr = path_coupling_x(levels, -1, -1)
    norm = math.sqrt(x_lr**2 + x_rl**2 + x_ll**2 + x_rr**2)
    if x_lr == 0.0 and x_rl == 0.0:
        raise DegenerateStateError(
            "both counter-rotating channels are forbidden for these levels"
        )
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


def _pair_unitary(source: str, target: str) -> np.ndarray:
    if source == target:
        return np.eye(4, dtype=complex)
    u = _CIRC_TO_LIN if target == LINEAR else _LIN_TO_CIRC
    return np.kron(u, u)


def change_basis(ket: BiphotonKet, target: str) -> BiphotonKet:
    """Express the ket in the requested basis (unitary on both photons)."""
    _check_basis(target)
    if target == ket.basis:
        return ket
    amps = _pair_unitary(ket.basis, target) @ ket.amplitudes
    return BiphotonKet(amps, target)


def density_change_basis(rho: DensityMatrix4, target: str) -> DensityMatrix4:
    """Express the density matrix in the requested basis."""
    if _check_basis(target) == rho.basis:
        return rho
    return DensityMatrix4(matrices_change_basis(rho.matrix, rho.basis, target), target, eig_floor=rho.eig_floor)


def matrices_change_basis(mats: np.ndarray, source: str, target: str) -> np.ndarray:
    """Express Hermitian matrices (..., 4, 4) given in ``source`` in ``target``, unvalidated."""
    if _check_basis(target) == _check_basis(source):
        return mats
    u = _pair_unitary(source, target)
    mats = u @ mats @ u.conj().T
    return 0.5 * (mats + mats.conj().swapaxes(-1, -2))


def density_from_ket(ket: BiphotonKet) -> DensityMatrix4:
    """Rank-1 density matrix |psi><psi| in the ket's basis."""
    mat = np.outer(ket.amplitudes, ket.amplitudes.conj())
    return DensityMatrix4(mat, ket.basis)


def joint_projection_amplitude(
    ket: BiphotonKet, proj_s: Projector, proj_i: Projector
) -> complex:
    """Amplitude <p_s p_i | psi> of finding the pair in the analyzed polarizations."""
    v = np.kron(proj_s.vector(ket.basis), proj_i.vector(ket.basis))
    return complex(v.conj() @ ket.amplitudes)


def _wrap_phase(phi: float) -> float:
    """Fold an angle into (-pi, pi]."""
    wrapped = math.remainder(phi, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


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
    raises :class:`ProjectionDegeneracyError`: the reference path is fully
    suppressed and the caller must swap the roles of the two paths.
    """
    a_x = joint_projection_amplitude(ket_x, proj_s, proj_i)
    a_y = joint_projection_amplitude(ket_y, proj_s, proj_i)
    if abs(a_y) <= 1e-14:
        return 0.0, 0.0
    if abs(a_x) <= 1e-14:
        raise ProjectionDegeneracyError(
            "reference path amplitude is zero for these projectors"
        )
    ratio = a_y / a_x
    return abs(ratio), _wrap_phase(cmath.phase(ratio))


@dataclass(frozen=True)
class BeatProjectorSearch:
    """Analyzer pair solved for target beat parameters, and what it reaches."""

    attainable: bool
    proj_s: Projector
    proj_i: Projector
    r: float
    phi: float
    residual: float


# Largest residual (log-amplitude and phase combined) reported as attainable.
_ATTAINABLE_RESIDUAL = 1e-9
# Reference amplitudes this small are rounding noise, not a usable solution.
_NOISE_AMPLITUDE = 1e-12


def _beat_residual(r: float, phi: float, target_r: float, target_phi: float) -> float:
    if target_r == 0.0:
        return r
    if r == 0.0:
        return math.inf
    return math.hypot(math.log(r / target_r), _wrap_phase(phi - target_phi))


def find_beat_projectors(
    ket_x: BiphotonKet, ket_y: BiphotonKet, target_r: float, target_phi: float
) -> BeatProjectorSearch:
    """Solve for analyzer settings that realize given beat parameters (R, phi).

    With one analyzer fixed, each path amplitude is linear in the other:
    A_k = <s|u_k> with u_k = M_k conj(i), M_k the linear-basis amplitude
    matrix of ket k.  A_y / A_x = w = R e^{i phi} holds exactly when s is
    orthogonal to u_y - w u_x.  Each of H, V, D, A, L, R is tried as the
    fixed idler and, on the transposed problem, as the fixed signal
    analyzer; the pair with the largest reference amplitude |A_x| wins.
    When no pair has a usable reference amplitude (the ratio is pinned, as
    for identical paths), the pair maximizing |A_x| is returned and the
    target is reported unattainable unless that pinned ratio is the target.
    """
    if not (math.isfinite(target_r) and target_r >= 0):
        raise ValueError("target_r must be finite and non-negative")
    if not math.isfinite(target_phi):
        raise ValueError("target_phi must be finite")
    target_phi = _wrap_phase(target_phi)
    w = cmath.rect(target_r, target_phi)
    m_x = change_basis(ket_x, LINEAR).amplitudes.reshape(2, 2)
    m_y = change_basis(ket_y, LINEAR).amplitudes.reshape(2, 2)

    names = list(_NAMED_PROJECTORS)
    fixed = np.array(list(_NAMED_PROJECTORS.values()), dtype=complex).conj()
    # Rows 0-5: u_k = M_k conj(idler) for each named idler; rows 6-11: the
    # transposed problem M_k^T conj(signal), needed when u_y || u_x for every
    # idler (product states sharing a signal factor).
    u_x = np.concatenate([fixed @ m_x.T, fixed @ m_x])
    v = np.concatenate([fixed @ m_y.T, fixed @ m_y]) - w * u_x
    # The solved analyzer p has conj(p) = (v1, -v0) / |v|, so <p|v> = 0 and
    # its reference amplitude is |A_x| = |<p|u_x>| = |v1 u0 - v0 u1| / |v|.
    norms = np.linalg.norm(v, axis=1)
    amps = np.abs(v[:, 1] * u_x[:, 0] - v[:, 0] * u_x[:, 1])
    amps /= np.where(norms > 0, norms, np.inf)
    k = int(np.argmax(amps))
    if amps[k] > _NOISE_AMPLITUDE:
        solved = Projector.normalized(v[k, 1].conjugate(), -v[k, 0].conjugate())
        named = named_projector(names[k % 6])
        proj_s, proj_i = (solved, named) if k < 6 else (named, solved)
    else:
        left, _, right_h = np.linalg.svd(m_x)
        proj_s, proj_i = Projector.normalized(*left[:, 0]), Projector.normalized(*right_h[0])
    r, phi = beat_params(ket_x, ket_y, proj_s, proj_i)
    residual = _beat_residual(r, phi, target_r, target_phi)
    return BeatProjectorSearch(
        attainable=residual <= _ATTAINABLE_RESIDUAL,
        proj_s=proj_s, proj_i=proj_i, r=r, phi=phi, residual=residual,
    )


# ---------------------------------------------------------------------------
# JSON interchange: complex numbers as [re, im], matrices row-major.

def _c2p(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _p2c(pair) -> complex:
    try:
        re, im = pair if isinstance(pair, (list, tuple)) else ()
        return complex(float(re), float(im))
    except (TypeError, ValueError):
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


def density_to_dict(rho: DensityMatrix4) -> dict:
    return {
        "type": "density_matrix",
        "basis": rho.basis,
        "matrix": [[_c2p(z) for z in row] for row in rho.matrix],
    }
