"""Polarization state algebra: path-state prediction, basis changes,
projections, beat parameters, and JSON interchange."""

import cmath
import math

import numpy as np
import pytest

import biphoton as bp
from biphoton.angmom import CascadeLevels
from biphoton.polstate import (
    CIRCULAR,
    LINEAR,
    PSD_TOL,
    BiphotonKet,
    DensityMatrix4,
    PathAmplitudes,
    Projector,
    _joint_amplitude,
    beat_params,
    change_basis,
    density_change_basis,
    density_from_ket,
    density_to_dict,
    ket_from_dict,
    ket_from_path,
    ket_to_dict,
    named_projector,
    predict_path_state,
    projector_to_dict,
)
from conftest import random_pure_ket

A0_X = 2 / math.sqrt(13)
A1_X = 3 / math.sqrt(13)
A0_Y = 7 / math.sqrt(58)
A1_Y = 3 / math.sqrt(58)

# the published rounded amplitudes, renormalized to a unit ket
_LIT = math.sqrt(0.55**2 + 0.83**2)
PSI_X_LITERAL = BiphotonKet(
    np.array([0.0, 0.55 / _LIT, -0.83 / _LIT, 0.0], dtype=complex), CIRCULAR
)


class TestPredictPathState:
    def test_path_x_matches_published_state(self):
        p = predict_path_state(bp.PATH_X)
        assert p.a0 == pytest.approx(0.55, abs=0.005)
        assert p.a1 == pytest.approx(0.83, abs=0.005)
        assert p.phi0 == pytest.approx(math.pi)
        assert p.a0 == pytest.approx(A0_X, abs=1e-14)
        assert p.a1 == pytest.approx(A1_X, abs=1e-14)

    def test_path_y_matches_published_state(self):
        p = predict_path_state(bp.PATH_Y)
        assert p.a0 == pytest.approx(0.92, abs=0.005)
        assert p.a1 == pytest.approx(0.39, abs=0.005)
        assert p.phi0 == pytest.approx(math.pi)

    def test_single_channel_levels_give_pure_amplitude(self):
        p = predict_path_state(CascadeLevels.of(1, 0, 1, 0))
        assert (p.a0, p.a1, p.phi0) == (1.0, 0.0, 0.0)

    def test_normalization_over_many_level_sets(self):
        from itertools import product

        checked = 0
        for fs in product((0, 1, 2, 3), repeat=4):
            try:
                levels = CascadeLevels.of(*fs)
                p = predict_path_state(levels)
            except ValueError:
                continue
            assert p.a0**2 + p.a1**2 == pytest.approx(1.0, abs=1e-12)
            checked += 1
        assert checked > 10

    def test_no_valid_level_set_is_degenerate(self):
        # every parity-valid chain up to F = 3 keeps at least one channel open
        from itertools import product

        for fs in product((0, 0.5, 1, 1.5, 2, 2.5, 3), repeat=4):
            try:
                levels = CascadeLevels.of(*fs)
            except ValueError:
                continue
            predict_path_state(levels)  # must not raise

    def test_degenerate_channels_raise(self):
        # bypass chain validation to reach the defensive branch: a mixed-parity
        # chain zeroes every coupling coefficient
        levels = object.__new__(CascadeLevels)
        for name, value in zip(
            ("two_f_g", "two_f_b", "two_f_e", "two_f_d"), (0, 2, 1, 2)
        ):
            object.__setattr__(levels, name, value)
        with pytest.raises(ValueError, match="both counter-rotating channels are forbidden"):
            predict_path_state(levels)

    def test_prediction_fidelity_to_literal_state(self, ket_x):
        overlap = abs(np.vdot(PSI_X_LITERAL.amplitudes, ket_x.amplitudes)) ** 2
        assert overlap >= 0.999


class TestKetFromPath:
    def test_trivial_single_path(self):
        ket = ket_from_path(PathAmplitudes(1.0, 0.0, 0.0))
        assert np.allclose(ket.amplitudes, [0, 1, 0, 0])

    def test_published_amplitudes(self):
        ket = ket_from_path(PathAmplitudes(0.55 / _LIT, 0.83 / _LIT, math.pi))
        assert ket.amplitudes[1] == pytest.approx(0.55 / _LIT)
        assert ket.amplitudes[2] == pytest.approx(-0.83 / _LIT)

    def test_bell_state(self):
        s = 1 / math.sqrt(2)
        ket = ket_from_path(PathAmplitudes(s, s, 0.0))
        assert np.allclose(ket.amplitudes, [0, s, s, 0])


class TestChangeBasis:
    def test_ll_expansion(self):
        ket = BiphotonKet(np.array([1, 0, 0, 0], dtype=complex), CIRCULAR)
        lin = change_basis(ket, LINEAR)
        # |LL> = ((H + iV)/sqrt2) x ((H + iV)/sqrt2)
        assert np.allclose(lin.amplitudes, [0.5, 0.5j, 0.5j, -0.5])

    def test_identity_when_same_basis(self, ket_x):
        assert change_basis(ket_x, CIRCULAR) is ket_x

    def test_norm_preserved_and_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            ket = random_pure_ket(rng)
            lin = change_basis(ket, LINEAR)
            assert np.sum(np.abs(lin.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)
            back = change_basis(lin, CIRCULAR)
            assert np.allclose(back.amplitudes, ket.amplitudes, atol=1e-12)


class TestDensityFromKet:
    def test_basis_state(self):
        ket = BiphotonKet(np.array([1, 0, 0, 0], dtype=complex))
        rho = density_from_ket(ket)
        assert np.allclose(rho.matrix, np.diag([1, 0, 0, 0]))

    def test_published_state_entries(self):
        rho = density_from_ket(PSI_X_LITERAL)
        assert rho.matrix[1, 1].real == pytest.approx(0.3025, abs=0.005)
        assert rho.matrix[1, 2].real == pytest.approx(-0.4565, abs=0.005)
        # exact outer-product arithmetic
        assert rho.matrix[1, 1] == pytest.approx((0.55 / _LIT) ** 2, abs=1e-15)
        assert rho.matrix[1, 2] == pytest.approx(-(0.55 * 0.83) / _LIT**2, abs=1e-15)

    def test_rank_one_purity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rho = density_from_ket(random_pure_ket(rng))
            assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(1.0, abs=1e-12)


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        mat = np.diag([1.0, 0, 0, 0]).astype(complex)
        mat[0, 1] = 0.1
        with pytest.raises(ValueError):
            DensityMatrix4(mat)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix4(np.diag([0.5, 0, 0, 0]).astype(complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix4(np.diag([1.1, -0.1, 0, 0]).astype(complex))

    def test_eigenvalue_tolerance_is_psd_tol(self):
        DensityMatrix4(np.diag([1 + 0.5 * PSD_TOL, -0.5 * PSD_TOL, 0, 0]).astype(complex))
        with pytest.raises(ValueError, match="positive semidefinite"):
            DensityMatrix4(np.diag([1 + 2 * PSD_TOL, -2 * PSD_TOL, 0, 0]).astype(complex))


class TestJointProjection:
    def test_matched_circular_projectors(self):
        ket = BiphotonKet(np.array([0, 1, 0, 0], dtype=complex), CIRCULAR)
        amp = _joint_amplitude(ket, named_projector("L"), named_projector("R"))
        assert amp == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_projector_kills_amplitude(self):
        ket = BiphotonKet(np.array([0, 1, 0, 0], dtype=complex), CIRCULAR)
        for idler in "HVDALR":
            amp = _joint_amplitude(ket, named_projector("R"), named_projector(idler))
            assert amp == pytest.approx(0.0, abs=1e-12)

    def test_against_four_term_dot_product_oracle(self, ket_x):
        proj_s = named_projector("L")
        proj_i = Projector.normalized(0.7 + 0.57j, 0.41j)
        amp = _joint_amplitude(ket_x, proj_s, proj_i)
        # brute force: expand everything in the linear basis by hand
        lin = change_basis(ket_x, LINEAR).amplitudes
        ps = proj_s.vector(LINEAR)
        pi = proj_i.vector(LINEAR)
        oracle = sum(
            (ps[a] * pi[b]).conjugate() * lin[2 * a + b]
            for a in range(2)
            for b in range(2)
        )
        assert amp == pytest.approx(oracle, abs=1e-12)

    def test_invariant_under_joint_basis_change(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            ket = random_pure_ket(rng)
            c = rng.normal(size=4) + 1j * rng.normal(size=4)
            proj_s = Projector.normalized(c[0], c[1])
            proj_i = Projector.normalized(c[2], c[3])
            a_circ = _joint_amplitude(ket, proj_s, proj_i)
            a_lin = _joint_amplitude(change_basis(ket, LINEAR), proj_s, proj_i)
            assert a_circ == pytest.approx(a_lin, abs=1e-12)


# One analyzer pair per beat preset: an elliptical signal analyzer (H, V components)
# and a named idler, found by solving A_y / A_x = r e^{i phi} for the predicted kets.
PRESET_ANALYZERS = {
    "fig3": ((-6.657420543908004e-17 + 0.09142755332923407j, -0.9958117304451831 - 6.657420543908004e-17j), "H"),
    "fig4a": ((3.867572632392712e-17 - 0.9340345618316648j, -0.3571826385813428 + 3.5992739720405484e-17j), "H"),
    "fig4b": ((-8.553173404763018e-17 + 0.587920526122615j, -0.8089186949030832 - 8.553173404763018e-17j), "H"),
    "fig4c": ((0.13376783625861347 - 0.6943386536717431j, -0.13376783625861335 - 0.694338653671743j), "D"),
}


class TestBeatParams:
    @pytest.mark.parametrize("preset", sorted(PRESET_ANALYZERS))
    def test_preset_regime_from_predicted_kets(self, ket_x, ket_y, preset):
        signal, idler = PRESET_ANALYZERS[preset]
        model = bp.FIGURE_PRESETS[preset].model
        r, phi = beat_params(ket_x, ket_y, Projector(*signal), named_projector(idler))
        assert r == pytest.approx(model.r, abs=1e-12)
        assert math.remainder(phi - model.phi, 2 * math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_suppressed_second_path_convention(self, ket_x):
        ket_y = BiphotonKet(np.array([0, 0, 0, 1], dtype=complex), CIRCULAR)  # |RR>
        r, phi = beat_params(ket_x, ket_y, named_projector("L"), named_projector("R"))
        assert (r, phi) == (0.0, 0.0)

    def test_identical_kets(self, ket_x):
        r, phi = beat_params(ket_x, ket_x, named_projector("L"), named_projector("H"))
        assert r == pytest.approx(1.0, abs=1e-12)
        assert phi == pytest.approx(0.0, abs=1e-12)

    def test_suppressed_reference_path_raises(self, ket_x, ket_y):
        # build a projector pair orthogonal to the reference state but not to
        # the second path: the product ratio u/v must equal -x1/x0 = 1.5
        s = np.array([[1, 1], [1j, -1j]]) / math.sqrt(2)  # circular -> linear
        a, b = math.sqrt(0.6), math.sqrt(0.4)
        c = 1 / math.sqrt(2.5)
        d = 1.5 * (b / a) * c
        proj_s = Projector.normalized(*(s @ np.array([a, b])))
        proj_i = Projector.normalized(*(s @ np.array([c, d])))
        assert abs(_joint_amplitude(ket_x, proj_s, proj_i)) < 1e-14
        assert abs(_joint_amplitude(ket_y, proj_s, proj_i)) > 0.1
        with pytest.raises(ValueError, match="reference path amplitude is zero for these projectors"):
            beat_params(ket_x, ket_y, proj_s, proj_i)

    def test_r_invariant_under_global_phase(self, ket_x, ket_y):
        proj_s = named_projector("L")
        proj_i = Projector.normalized(0.7 + 0.57j, 0.41j)
        r0, phi0 = beat_params(ket_x, ket_y, proj_s, proj_i)
        for theta in (0.3, 1.2, -2.2):
            rotated = BiphotonKet(cmath.exp(1j * theta) * ket_x.amplitudes, CIRCULAR)
            r1, phi1 = beat_params(rotated, ket_y, proj_s, proj_i)
            assert r1 == pytest.approx(r0, abs=1e-12)

    def test_phi_tracks_relative_phase(self, ket_x, ket_y):
        proj_s = named_projector("L")
        proj_i = Projector.normalized(0.7 + 0.57j, 0.41j)
        r0, phi0 = beat_params(ket_x, ket_y, proj_s, proj_i)
        beta = 0.77
        shifted = BiphotonKet(cmath.exp(1j * beta) * ket_y.amplitudes, CIRCULAR)
        r1, phi1 = beat_params(ket_x, shifted, proj_s, proj_i)
        assert r1 == pytest.approx(r0, abs=1e-12)
        assert math.remainder(phi1 - phi0 - beta, 2 * math.pi) == pytest.approx(
            0.0, abs=1e-12
        )

    @pytest.mark.parametrize("beta, folded", [
        (3 * math.pi, math.pi), (-math.pi, math.pi), (math.pi, math.pi),
        (-1.5 * math.pi, 0.5 * math.pi), (0.0, 0.0),
    ], ids=["3pi", "-pi", "pi", "-3pi/2", "0"])
    def test_phase_folded_into_principal_range(self, ket_x, beta, folded):
        # at beta = -pi the H, H ratio is (-1, -0.0) to the bit, and cmath.phase gives exactly -pi
        ket_y = BiphotonKet(cmath.exp(1j * beta) * ket_x.amplitudes, CIRCULAR)
        r, phi = beat_params(ket_x, ket_y, named_projector("H"), named_projector("H"))
        assert r == pytest.approx(1.0, abs=1e-12)
        assert -math.pi < phi <= math.pi
        assert phi == pytest.approx(folded, abs=1e-12)


class TestJsonInterchange:
    def test_ket_round_trip(self, ket_x):
        data = ket_to_dict(ket_x)
        assert data["basis"] == CIRCULAR
        back = ket_from_dict(data)
        assert np.allclose(back.amplitudes, ket_x.amplitudes)

    def test_projector_round_trip(self):
        proj = Projector.normalized(0.7 + 0.57j, 0.41j)
        data = projector_to_dict(proj)
        assert data["type"] == "projector" and data["basis"] == LINEAR
        back = Projector(*(complex(re, im) for re, im in data["components"]))
        assert back.c_h == pytest.approx(proj.c_h)
        assert back.c_v == pytest.approx(proj.c_v)

    def test_density_round_trip(self, rho_x):
        linear = density_change_basis(rho_x, LINEAR)
        data = density_to_dict(linear.matrix)
        back = DensityMatrix4([[complex(re, im) for re, im in row] for row in data["matrix"]], data["basis"])
        assert np.allclose(back.matrix, linear.matrix)
        assert back.basis == LINEAR

    def test_complex_numbers_are_pairs(self, ket_x):
        data = ket_to_dict(ket_x)
        for pair in data["amplitudes"]:
            assert isinstance(pair, list) and len(pair) == 2

    def test_malformed_ket_rejected(self):
        with pytest.raises(ValueError):
            ket_from_dict({"basis": CIRCULAR, "amplitudes": [[1.0, 0.0]] * 3})

    @pytest.mark.parametrize("data", [
        {},
        {"amplitudes": 5},
        {"amplitudes": [[0.5, 0.0]] * 4},
        [],
        {"basis": CIRCULAR, "amplitudes": [[0.5, 0.0, 0.0]] * 4},
        {"basis": CIRCULAR, "amplitudes": [0.5] * 4},
        {"basis": CIRCULAR, "amplitudes": [[0.5, 0.0]] * 3},
        {"basis": CIRCULAR, "amplitudes": [[10**400, 0], [0, 0], [0, 0], [0, 0]]},
    ], ids=["empty", "scalar-amplitudes", "no-basis", "list", "triples", "bare-numbers",
            "three-rows", "int-beyond-float-range"])
    def test_malformed_ket_shape_rejected(self, data):
        with pytest.raises(ValueError):
            ket_from_dict(data)


class TestProjectorValidation:
    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            Projector(1.0 + 0.0j, 1.0 + 0.0j)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            Projector(complex(math.nan, 0.0), 0.0j)

    def test_named_set(self):
        for name in "HVDALR":
            vec = named_projector(name).vector(LINEAR)
            assert np.sum(np.abs(vec) ** 2) == pytest.approx(1.0, abs=1e-15)
        # circular components of |L> are (1, 0)
        assert np.allclose(named_projector("L").vector(CIRCULAR), [1, 0], atol=1e-15)


@pytest.mark.parametrize("build, message", [
    (lambda: named_projector("X"), "unknown projector name 'X'; use one of H,V,D,A,L,R"),
    (lambda: PathAmplitudes(-0.6, 0.8, 0.0), "amplitudes must be non-negative"),
    (lambda: PathAmplitudes(0.6, 0.8, -math.pi), r"phi0 must lie in \(-pi, pi\], got -3.14159"),
], ids=["projector-name-unknown", "path-amplitude-negative", "path-phase-at-minus-pi"])
def test_out_of_range_value_rejected(build, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        build()


class TestNanRejected:
    """A NaN compares False with every bound, so each check must fail on it."""

    def test_ket(self):
        with pytest.raises(ValueError, match="not normalized"):
            BiphotonKet(np.array([math.nan, 1.0, 0.0, 0.0]))

    def test_ket_from_dict(self):
        with pytest.raises(ValueError, match="not normalized"):
            ket_from_dict({"basis": CIRCULAR, "amplitudes": [[math.nan, 0.0]] + [[0.0, 0.0]] * 3})

    def test_path_amplitudes(self):
        with pytest.raises(ValueError, match="not normalized"):
            PathAmplitudes(math.nan, 1.0, 0.0)

    @pytest.mark.parametrize("index", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_density_matrix(self, index):
        mat = np.eye(4, dtype=complex) / 4.0
        mat[index] = math.nan
        with pytest.raises(ValueError):
            DensityMatrix4(mat)
