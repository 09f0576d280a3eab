"""Coupling coefficients: exact values, selection rules, and an independent
ladder-operator recursion oracle."""

import math

import numpy as np
import pytest

from biphoton.angmom import (
    MAX_F,
    PATH_X,
    PATH_Y,
    AngularMomentum,
    CascadeLevels,
    clebsch_gordan,
    path_coupling_x,
)


def cg(j1, m1, j2, m2, j3, m3) -> float:
    """clebsch_gordan on plain quantum numbers (ints or half-ints)."""
    return clebsch_gordan(
        AngularMomentum.of(j1, m1), AngularMomentum.of(j2, m2), AngularMomentum.of(j3, m3)
    )


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
        assert cg(0.5, 0.5, 0.5, 0.5, 1, 1) == 1.0

    def test_closed_form_value(self):
        # Racah closed form gives <1 1; 1 -1 | 0 0> = 1/sqrt(3)
        assert cg(1, 1, 1, -1, 0, 0) == pytest.approx(1 / math.sqrt(3), abs=1e-15)

    def test_selection_rules_zero(self):
        assert cg(2, 2, 1, 1, 2, 2) == 0.0       # m1 + m2 != M
        assert cg(2, 2, 1, -1, 2, 2) == 0.0      # again m mismatch
        assert cg(2, 0, 1, 0, 4, 0) == 0.0       # triangle violated

    def test_invalid_projection_raises(self):
        with pytest.raises(ValueError):
            AngularMomentum.of(1, 2)

    def test_invalid_parity_raises(self):
        with pytest.raises(ValueError):
            AngularMomentum(2, 1)

    def test_matches_recursion_oracle_all_j_up_to_3(self):
        for tj1 in range(0, 7):
            for tj2 in range(0, 7):
                table, index = _recursion_cg_table(tj1, tj2)
                for (tj, tm), vec in table.items():
                    for (tm1, tm2), i in index.items():
                        if tm1 + tm2 != tm:
                            continue
                        mine = clebsch_gordan(
                            AngularMomentum(tj1, tm1),
                            AngularMomentum(tj2, tm2),
                            AngularMomentum(tj, tm),
                        )
                        assert mine == pytest.approx(vec[i], abs=1e-12)

    def test_orthonormality(self):
        for tj1, tj2 in [(2, 2), (4, 2), (6, 4), (3, 2), (5, 3)]:
            for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                for tm in range(-tj, tj + 1, 2):
                    total = sum(
                        clebsch_gordan(
                            AngularMomentum(tj1, tm1),
                            AngularMomentum(tj2, tm - tm1),
                            AngularMomentum(tj, tm),
                        )
                        ** 2
                        for tm1 in range(-tj1, tj1 + 1, 2)
                        if abs(tm - tm1) <= tj2 and (tj2 - (tm - tm1)) % 2 == 0
                    )
                    assert total == pytest.approx(1.0, abs=1e-12)

    def test_m_negation_symmetry(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            tj1, tj2 = rng.integers(0, 7, size=2)
            tjs = range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
            tj = int(rng.choice(list(tjs)))
            tm1 = int(rng.integers(-tj1, tj1 + 1))
            tm2 = int(rng.integers(-tj2, tj2 + 1))
            if (tj1 - tm1) % 2 or (tj2 - tm2) % 2 or abs(tm1 + tm2) > tj:
                continue
            direct = _cg(tj1, tm1, tj2, tm2, tj, tm1 + tm2)
            flipped = _cg(tj1, -tm1, tj2, -tm2, tj, -(tm1 + tm2))
            phase = (-1.0) ** ((tj1 + tj2 - tj) // 2)
            assert direct == pytest.approx(phase * flipped, abs=1e-12)


def _cg(tj1, tm1, tj2, tm2, tj, tm):
    return clebsch_gordan(
        AngularMomentum(tj1, tm1), AngularMomentum(tj2, tm2), AngularMomentum(tj, tm)
    )


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

    def test_sum_unchanged_by_extended_m_range(self):
        for levels in (PATH_X, PATH_Y):
            for alphas in [(+1, -1), (-1, +1)]:
                base = path_coupling_x(levels, *alphas)
                extended = path_coupling_x(levels, *alphas, m_margin=3)
                assert extended == base

    def test_invalid_helicity_raises(self):
        with pytest.raises(ValueError):
            path_coupling_x(PATH_X, 0, 1)
