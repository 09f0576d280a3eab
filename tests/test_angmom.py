"""Dipole coupling coefficients: exact values, selection rules, an independent
ladder-operator recursion oracle, and the bits of the predicted couplings."""

import math

import numpy as np
import pytest

from biphoton.angmom import (
    MAX_F,
    PATH_X,
    PATH_Y,
    CascadeLevels,
    _dipole_cg,
    path_coupling_x,
)
from biphoton.polstate import predict_path_state


def _dipole_js(tj1: int) -> range:
    """Doubled J reachable from doubled j1 with one photon."""
    return range(max(tj1 - 2, 2 - tj1), tj1 + 3, 2)


# ---------------------------------------------------------------------------
# Independent oracle: build all coefficients for (j1, j2) by constructing the
# stretched state of each J, Gram-Schmidt-orthogonalizing within the top-M
# subspace, and lowering with the standard ladder recursion.

def _recursion_cg_table(tj1: int, tj2: int):
    pairs = [
        (tm1, tm2)
        for tm1 in range(-tj1, tj1 + 1, 2)
        for tm2 in range(-tj2, tj2 + 1, 2)
    ]
    index = {p: i for i, p in enumerate(pairs)}
    dim = len(pairs)
    table = {}
    for tj in range(tj1 + tj2, abs(tj1 - tj2) - 1, -2):
        if tj == tj1 + tj2:
            vec = np.zeros(dim)
            vec[index[(tj1, tj2)]] = 1.0
        else:
            members = sorted(p for p in pairs if p[0] + p[1] == tj)
            sub = np.zeros((len(members), dim))
            for k, p in enumerate(members):
                sub[k, index[p]] = 1.0
            higher = [table[(tjp, tj)] for tjp in range(tj1 + tj2, tj, -2)]
            constraints = np.array([[np.dot(h, row) for row in sub] for h in higher])
            _, _, vt = np.linalg.svd(constraints)
            coeffs = vt[-1]
            vec = coeffs @ sub
            vec /= np.linalg.norm(vec)
            if vec[index[max(members)]] < 0:  # Condon-Shortley: top m1 positive
                vec = -vec
        table[(tj, tj)] = vec
        for tm in range(tj, -tj + 1, -2):
            current = table[(tj, tm)]
            lowered = np.zeros(dim)
            for (tm1, tm2), i in index.items():
                if current[i] == 0.0:
                    continue
                if tm1 - 2 >= -tj1:
                    amp = math.sqrt((tj1 + tm1) / 2 * ((tj1 - tm1) / 2 + 1))
                    lowered[index[(tm1 - 2, tm2)]] += current[i] * amp
                if tm2 - 2 >= -tj2:
                    amp = math.sqrt((tj2 + tm2) / 2 * ((tj2 - tm2) / 2 + 1))
                    lowered[index[(tm1, tm2 - 2)]] += current[i] * amp
            norm = math.sqrt((tj + tm) / 2 * ((tj - tm) / 2 + 1))
            table[(tj, tm - 2)] = lowered / norm
    return table, index


class TestClebschGordan:
    def test_stretched_state(self):
        assert _dipole_cg(2, 2, 1, 4) == 1.0
        assert _dipole_cg(1, -1, -1, 3) == 1.0

    def test_closed_form_value(self):
        # <1 1; 1 -1 | 0 0> = 1/sqrt(3)
        assert _dipole_cg(2, 2, -1, 0) == pytest.approx(1 / math.sqrt(3), abs=1e-15)

    def test_selection_rules_zero(self):
        assert _dipole_cg(4, 0, 0, 8) == 0.0     # triangle violated
        assert _dipole_cg(0, 0, 0, 0) == 0.0     # j = 0 cannot couple to J = 0
        assert _dipole_cg(2, 4, -1, 2) == 0.0    # |m| > j
        assert _dipole_cg(2, 1, 0, 2) == 0.0     # j and m of different parity
        assert _dipole_cg(4, 4, 1, 2) == 0.0     # |m + q| > J
        assert _dipole_cg(4, 0, 0, 4) == 0.0     # <2 0; 1 0 | 2 0> vanishes

    def test_matches_recursion_oracle_for_dipole(self):
        for tj1 in range(0, 2 * MAX_F + 1):
            table, index = _recursion_cg_table(tj1, 2)
            for (tj, tm), vec in table.items():
                for (tm1, tm2), i in index.items():
                    if tm1 + tm2 == tm:
                        assert _dipole_cg(tj1, tm1, tm2 // 2, tj) == pytest.approx(vec[i], abs=1e-12)

    def test_orthonormality(self):
        for tj1 in range(0, 2 * MAX_F + 1):
            for tj in _dipole_js(tj1):
                for tj_other in _dipole_js(tj1):
                    for tm in range(-min(tj, tj_other), min(tj, tj_other) + 1, 2):
                        total = sum(
                            _dipole_cg(tj1, tm - 2 * q, q, tj) * _dipole_cg(tj1, tm - 2 * q, q, tj_other)
                            for q in (-1, 0, 1)
                        )
                        assert total == pytest.approx(float(tj == tj_other), abs=1e-12)

    def test_m_negation_symmetry(self):
        # <j -m; 1 -q | J -M> = (-1)^(j + 1 - J) <j m; 1 q | J M>, to the bit
        for tj1 in range(0, 2 * MAX_F + 1):
            for tj in _dipole_js(tj1):
                phase = (-1.0) ** ((tj1 + 2 - tj) // 2)
                for tm1 in range(-tj1, tj1 + 1, 2):
                    for q in (-1, 0, 1):
                        assert _dipole_cg(tj1, -tm1, -q, tj) == phase * _dipole_cg(tj1, tm1, q, tj)


class TestCascadeLevels:
    def test_physical_paths_valid(self):
        assert PATH_X.f_values == (2, 2, 3, 3)
        assert PATH_Y.f_values == (2, 2, 3, 2)

    def test_triangle_violation_raises(self):
        with pytest.raises(ValueError):
            CascadeLevels.of(2, 2, 3, 1)  # e-d step needs |3 - F_d| <= 1

    def test_half_integer_levels_accepted(self):
        levels = CascadeLevels.of(1.5, 2.5, 1.5, 0.5)
        assert levels.two_f_g == 3

    def test_f_above_bound_rejected(self):
        CascadeLevels.of(MAX_F, MAX_F, MAX_F, MAX_F)
        for f in (MAX_F + 1, 1e300):
            with pytest.raises(ValueError, match=f"F above {MAX_F}"):
                CascadeLevels.of(f, f, f, f)


class TestPathCoupling:
    def test_path_x_amplitude_ratio_and_sign(self):
        x_lr = path_coupling_x(PATH_X, +1, -1)
        x_rl = path_coupling_x(PATH_X, -1, +1)
        norm = math.hypot(x_lr, x_rl)
        # normalized magnitudes 0.55 / 0.83 with opposite signs
        assert abs(x_lr) / norm == pytest.approx(0.55, abs=0.005)
        assert abs(x_rl) / norm == pytest.approx(0.83, abs=0.005)
        assert x_lr * x_rl < 0

    def test_path_y_amplitude_ratio_and_sign(self):
        x_lr = path_coupling_x(PATH_Y, +1, -1)
        x_rl = path_coupling_x(PATH_Y, -1, +1)
        norm = math.hypot(x_lr, x_rl)
        assert abs(x_lr) / norm == pytest.approx(0.92, abs=0.005)
        assert abs(x_rl) / norm == pytest.approx(0.39, abs=0.005)
        assert x_lr * x_rl < 0

    def test_exact_closed_forms(self):
        # the two physical level sets give rational squared amplitudes
        x_lr = path_coupling_x(PATH_X, +1, -1)
        x_rl = path_coupling_x(PATH_X, -1, +1)
        norm2 = x_lr**2 + x_rl**2
        assert x_lr**2 / norm2 == pytest.approx(4 / 13, abs=1e-14)
        assert x_rl**2 / norm2 == pytest.approx(9 / 13, abs=1e-14)

    def test_corotating_channels_vanish(self):
        for levels in (PATH_X, PATH_Y):
            assert path_coupling_x(levels, +1, +1) == 0.0
            assert path_coupling_x(levels, -1, -1) == 0.0

    def test_angular_momentum_conservation_zero(self):
        # F_b = 0 pins the pump chain to the m = +1 ground sublevel, after
        # which only one helicity ordering can bring the atom back: the other
        # channel cannot conserve angular momentum and sums to exactly zero.
        levels = CascadeLevels.of(1, 0, 1, 0)
        assert path_coupling_x(levels, +1, -1) != 0.0
        assert path_coupling_x(levels, -1, +1) == 0.0

    def test_invalid_helicity_raises(self):
        with pytest.raises(ValueError):
            path_coupling_x(PATH_X, 0, 1)


# float.hex of path_coupling_x for the channels (+1, -1), (-1, +1), (+1, +1),
# (-1, -1) and of the a0, a1 and phi0 that predict_path_state gives, as
# computed by Racah's general formula in exact rationals.
PINNED_BITS = {
    (2, 2, 3, 3): ("-0x1.c28979bff0bd8p-2", "0x1.51e71b4ff48e2p-1", "0x0.0p+0", "0x0.0p+0",
                   "0x1.1c01aa03be896p-1", "0x1.aa027f059dce0p-1", "0x1.921fb54442d18p+1"),
    (2, 2, 3, 2): ("0x1.16c16c16c16c2p-1", "-0x1.ddddddddddddep-3", "0x0.0p+0", "0x0.0p+0",
                   "0x1.d69a2d686ac02p-1", "0x1.935f94a2a4a4ap-2", "0x1.921fb54442d18p+1"),
    (1, 0, 1, 0): ("0x1.5555555555555p-2", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
                   "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0"),
    (1.5, 2.5, 1.5, 0.5): ("0x1.d8f7208e6b82dp-4", "0x1.62b9586ad0a23p-1", "0x0.0p+0", "0x0.0p+0",
                           "0x1.50b06a8fc6b6fp-3", "0x1.f9089fd7aa128p-1", "0x0.0p+0"),
    (19, 20, 20, 19): ("-0x1.5d6dd6da8e473p+1", "0x1.06126123eab55p+2", "0x0.0p+0", "0x0.0p+0",
                       "0x1.1c01aa03be896p-1", "0x1.aa027f059dcdfp-1", "0x1.921fb54442d18p+1"),
}


@pytest.mark.parametrize("f_values", list(PINNED_BITS))
def test_couplings_and_path_state_bits(f_values):
    levels = CascadeLevels.of(*f_values)
    couplings = [path_coupling_x(levels, s, i) for s, i in ((1, -1), (-1, 1), (1, 1), (-1, -1))]
    state = predict_path_state(levels)
    assert tuple(x.hex() for x in (*couplings, state.a0, state.a1, state.phi0)) == PINNED_BITS[f_values]
