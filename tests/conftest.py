import numpy as np
import pytest

import biphoton as bp


@pytest.fixture(scope="session")
def ket_x():
    return bp.ket_from_path(bp.predict_path_state(bp.PATH_X))


@pytest.fixture(scope="session")
def ket_y():
    return bp.ket_from_path(bp.predict_path_state(bp.PATH_Y))


@pytest.fixture(scope="session")
def rho_x(ket_x):
    return bp.density_from_ket(ket_x)


def random_pure_ket(rng: np.random.Generator) -> bp.BiphotonKet:
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    return bp.BiphotonKet.normalized(amps, bp.CIRCULAR)


def g2_beats_from_amplitudes(dt, params: bp.BeatModelParams, omega_idler: float = 0.0):
    """|c_x + c_y|^2 + background, from the complex path amplitudes directly.

    The relative phase enters as the factor e^{i phi} on the second path and
    the optical rotation is taken with positive sign, which together produce
    the cos(delta dt + phi) cross term.  The common optical frequency
    ``omega_idler`` cancels in the modulus and may be set to anything; the
    function serves as the independent oracle for ``g2_beats``.
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
    return float(out) if np.ndim(dt) == 0 else out
