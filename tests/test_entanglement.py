"""Entanglement indicators against independent pure-state oracles and mixed-state closed forms."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import biphoton as bp
from biphoton.entanglement import _eof_from_concurrence
from biphoton.polstate import (
    CIRCULAR,
    LINEAR,
    BiphotonKet,
    DensityMatrix4,
    change_basis,
    density_change_basis,
    density_from_ket,
)
from biphoton.tomography import _solve, _vectors, expected_probabilities, standard_settings
from conftest import random_pure_ket


def bell_state() -> BiphotonKet:
    s = 1 / math.sqrt(2)
    return BiphotonKet(np.array([0, s, s, 0], dtype=complex), CIRCULAR)


def pure_concurrence_oracle(ket: BiphotonKet) -> float:
    """2 |a d - b c| determinant formula, valid in any product basis."""
    a, b, c, d = ket.amplitudes
    return 2.0 * abs(a * d - b * c)


def random_local_unitary(rng: np.random.Generator) -> np.ndarray:
    def haar_u2():
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    return np.kron(haar_u2(), haar_u2())


class TestPurity:
    def test_rank_one_is_pure(self, rho_x):
        assert bp.purity(rho_x) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        rho = DensityMatrix4(np.eye(4, dtype=complex) / 4)
        assert bp.purity(rho) == pytest.approx(0.25, abs=1e-15)

    def test_published_scale_plausible(self, rho_x):
        # mixing the predicted state with 5% white noise lands near the
        # reported experimental purity
        mixed = DensityMatrix4(0.95 * rho_x.matrix + 0.05 * np.eye(4) / 4, CIRCULAR)
        assert 0.85 <= bp.purity(mixed) <= 0.95


class TestConcurrence:
    def test_bell_state(self):
        assert bp.concurrence(density_from_ket(bell_state())) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_product_state(self):
        ket = BiphotonKet(np.array([0, 1, 0, 0], dtype=complex), CIRCULAR)
        assert bp.concurrence(density_from_ket(ket)) == pytest.approx(0.0, abs=1e-10)

    def test_predicted_state_near_published_value(self):
        lit = math.sqrt(0.55**2 + 0.83**2)
        ket = BiphotonKet(np.array([0, 0.55, -0.83, 0]) / lit, CIRCULAR)
        assert bp.concurrence(density_from_ket(ket)) == pytest.approx(0.913, abs=0.01)

    def test_exact_predicted_concurrences(self, rho_x, ket_y):
        assert bp.concurrence(rho_x) == pytest.approx(12 / 13, abs=1e-10)
        assert bp.concurrence(density_from_ket(ket_y)) == pytest.approx(
            42 / 58, abs=1e-10
        )

    def test_matches_determinant_oracle_on_random_pure_states(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            ket = random_pure_ket(rng)
            c_eig = bp.concurrence(density_from_ket(ket))
            assert c_eig == pytest.approx(pure_concurrence_oracle(ket), abs=1e-10)

    def test_oracle_basis_independent(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            ket = random_pure_ket(rng)
            assert pure_concurrence_oracle(ket) == pytest.approx(
                pure_concurrence_oracle(change_basis(ket, LINEAR)), abs=1e-12
            )

    def test_invariant_under_local_unitaries(self):
        rng = np.random.default_rng(17)
        base = density_from_ket(
            BiphotonKet(np.array([0, 0.6, -0.8, 0], dtype=complex), CIRCULAR)
        )
        mixed = DensityMatrix4(0.9 * base.matrix + 0.1 * np.eye(4) / 4, CIRCULAR)
        c0 = bp.concurrence(mixed)
        e0 = bp.entanglement_of_formation(mixed)
        for _ in range(25):
            u = random_local_unitary(rng)
            mat = u @ mixed.matrix @ u.conj().T
            mat = 0.5 * (mat + mat.conj().T)
            rotated = DensityMatrix4(mat, CIRCULAR)
            assert bp.concurrence(rotated) == pytest.approx(c0, abs=1e-9)
            assert bp.entanglement_of_formation(rotated) == pytest.approx(e0, abs=1e-9)

    def test_rank_one_consistency(self):
        # for pure (purity 1) inputs both formulas must agree; for visibly
        # mixed inputs the pure-state shortcut is not expected to apply
        rng = np.random.default_rng(29)
        for _ in range(100):
            ket = random_pure_ket(rng)
            rho = density_from_ket(ket)
            assert bp.purity(rho) == pytest.approx(1.0, abs=1e-12)
            assert bp.concurrence(rho) == pytest.approx(
                pure_concurrence_oracle(ket), abs=1e-10
            )


class TestEntanglementOfFormation:
    def test_maximal(self):
        assert bp.entanglement_of_formation(density_from_ket(bell_state())) == (
            pytest.approx(1.0, abs=1e-10)
        )

    def test_zero_for_product_state(self):
        ket = BiphotonKet(np.array([1, 0, 0, 0], dtype=complex), CIRCULAR)
        assert bp.entanglement_of_formation(density_from_ket(ket)) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_published_concurrence_maps_to_published_eof(self):
        # value frozen from an independent binary-entropy evaluation
        assert _eof_from_concurrence(0.913) == pytest.approx(
            0.8763715040481082, abs=1e-12
        )
        assert _eof_from_concurrence(0.913) == pytest.approx(0.876, abs=5e-4)

    def test_monotone_in_concurrence(self):
        grid = np.linspace(0.0, 1.0, 101)
        values = [_eof_from_concurrence(c) for c in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_monotone_over_pure_state_grid(self):
        prev = -1.0
        for a0 in np.linspace(0.0, 1 / math.sqrt(2), 40):
            a1 = math.sqrt(1 - a0**2)
            ket = BiphotonKet(np.array([0, a0, a1, 0], dtype=complex), CIRCULAR)
            eof = bp.entanglement_of_formation(density_from_ket(ket))
            assert eof >= prev - 1e-12
            prev = eof


class TestFidelity:
    def test_self_fidelity(self, rho_x, ket_x):
        assert bp.fidelity(rho_x, ket_x) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_state(self, rho_x):
        ket = BiphotonKet(np.array([1, 0, 0, 0], dtype=complex), CIRCULAR)
        assert bp.fidelity(rho_x, ket) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_vs_any_pure(self):
        rng = np.random.default_rng(31)
        rho = DensityMatrix4(np.eye(4, dtype=complex) / 4)
        for _ in range(20):
            assert bp.fidelity(rho, random_pure_ket(rng)) == pytest.approx(
                0.25, abs=1e-12
            )

    def test_basis_mismatch_handled(self, rho_x, ket_x):
        lin = change_basis(ket_x, LINEAR)
        assert bp.fidelity(rho_x, lin) == pytest.approx(1.0, abs=1e-12)

    def test_stack_matches_per_state_product_to_the_bit(self, ket_x, ket_y, rho_x):
        # MLE bootstrap states, then pure states: one orthogonal to ket_x, one
        # orthogonal to |VV>, and a ket normalized only to rounding, whose
        # <psi|rho|psi> rounds above 1.
        analyzers = standard_settings("minimal16")
        counts = np.random.default_rng(3).poisson(1e3 * expected_probabilities(rho_x, analyzers), size=(20, 16))
        mle, _ = _solve(_vectors(analyzers), counts.astype(float), np.ones(16))
        a = ket_x.amplitudes
        orthogonal = BiphotonKet(np.array([0, a[2].conjugate(), -a[1].conjugate(), 0]), CIRCULAR)
        hh = BiphotonKet(np.array([1, 0, 0, 0], dtype=complex), LINEAR)
        vv = BiphotonKet(np.array([0, 0, 0, 1], dtype=complex), LINEAR)
        overlong = BiphotonKet(np.array([1.0000000000000004, 0, 0, 0], dtype=complex), LINEAR)
        pure = [density_from_ket(change_basis(k, LINEAR)).matrix for k in (orthogonal, hh, overlong)]
        mats = np.concatenate([mle, pure])
        for target in (ket_x, ket_y, change_basis(ket_x, LINEAR), vv, overlong):
            v = change_basis(target, LINEAR).amplitudes
            per_state = np.array([min(1.0, max(0.0, float((v.conj() @ m @ v).real))) for m in mats])
            stacked = bp.entanglement.indicator_arrays(mats, target)["fidelity"]
            assert stacked.tobytes() == per_state.tobytes()
        fidelities = [bp.entanglement.indicator_arrays(mats[-3:], target)["fidelity"][k]
                      for k, target in enumerate((ket_x, vv, overlong))]
        assert fidelities[0] <= 1e-30
        assert fidelities[1] == 0.0 and not np.signbit(fidelities[1])
        v = overlong.amplitudes
        assert (v.conj() @ pure[2] @ v).real > 1.0 and fidelities[2] == 1.0


class TestIndicatorArrays:
    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 6),
        with_target=st.booleans(),
    )
    def test_stack_equals_single_state_functions(self, seed, size, with_target):
        rng = np.random.default_rng(seed)
        mats = []
        for _ in range(size):
            rank = int(rng.integers(1, 5))
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            mat = g @ g.conj().T
            mats.append(0.5 * (mat + mat.conj().T) / np.trace(mat).real)
        mats = np.array(mats)
        target = random_pure_ket(rng) if with_target else None
        values = bp.entanglement.indicator_arrays(mats, target)
        assert ("fidelity" in values) == with_target
        for b, mat in enumerate(mats):
            rho = DensityMatrix4(mat, LINEAR)
            assert values["purity"][b] == bp.purity(rho)
            assert values["concurrence"][b] == bp.concurrence(rho)
            assert values["entanglement_of_formation"][b] == bp.entanglement_of_formation(rho)
            if target is not None:
                assert values["fidelity"][b] == bp.fidelity(rho, target)
            assert bp.entanglement.indicators(rho, target) == {
                name: float(v[b]) for name, v in values.items()
            }

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
    def test_circular_state_agrees_with_its_linear_form(self, seed, rank):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        mat = g @ g.conj().T
        circular = DensityMatrix4(0.5 * (mat + mat.conj().T) / np.trace(mat).real, CIRCULAR)
        linear = density_change_basis(circular, LINEAR)
        target = random_pure_ket(rng)
        values = bp.entanglement.indicators(circular, target)
        for name, value in bp.entanglement.indicators(linear, target).items():
            assert values[name] == pytest.approx(value, abs=1e-12)
        assert bp.concurrence(circular) == pytest.approx(bp.concurrence(linear), abs=1e-12)
        assert bp.fidelity(circular, target) == pytest.approx(bp.fidelity(linear, target), abs=1e-12)


def concurrence_alone_and_in_a_stack(mat: np.ndarray, seed: int) -> tuple[float, float]:
    """The concurrence of a linear-basis state as a stack of one, and in the middle of
    a stack with three random full-rank states."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    others = g @ g.conj().swapaxes(-1, -2)
    others /= np.trace(others, axis1=-2, axis2=-1).real[:, None, None]
    stack = np.concatenate([others[:2], mat[None], others[2:]])
    alone = bp.entanglement.indicator_arrays(mat[None])["concurrence"][0]
    return alone, bp.entanglement.indicator_arrays(stack)["concurrence"][2]


unit = st.floats(0.0, 1.0)
# Populations 0 or at least 1e-3 and coherences at their bound or at most 0.999 of
# it keep every nonzero eigenvalue far above the 1e-14 below which _clip_dust
# counts an eigenvalue as zero.
population = st.just(0.0) | st.floats(1e-3, 1.0)
coherence = st.just(1.0) | st.floats(0.0, 0.999)


class TestMixedConcurrenceClosedForms:
    @settings(deadline=None, max_examples=100)
    @given(p=unit, seed=st.integers(0, 2**32 - 1))
    def test_werner_states(self, p, seed):
        # p |Phi+><Phi+| + (1 - p) I/4 has C = max(0, (3p - 1)/2)
        phi_plus = np.zeros((4, 4), dtype=complex)
        phi_plus[np.ix_([0, 3], [0, 3])] = 0.5
        mat = p * phi_plus + (1.0 - p) * np.eye(4) / 4.0
        for c in concurrence_alone_and_in_a_stack(mat, seed):
            assert abs(c - max(0.0, (3.0 * p - 1.0) / 2.0)) <= 1e-13

    @settings(deadline=None, max_examples=200)
    @given(
        diagonal=st.tuples(population, population, population, population).filter(any),
        saturation=st.tuples(coherence, coherence),
        phases=st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_x_states(self, diagonal, saturation, phases, seed):
        # (HH, HV, VH, VV) populations a, b, c, d with coherences rho_14 = z and
        # rho_23 = w, |z| <= sqrt(ad) and |w| <= sqrt(bc) (saturated: rank-deficient),
        # have C = 2 max(0, |z| - sqrt(bc), |w| - sqrt(ad))
        a, b, c, d = (x / sum(diagonal) for x in diagonal)
        z = saturation[0] * math.sqrt(a * d) * cmath.exp(1j * phases[0])
        w = saturation[1] * math.sqrt(b * c) * cmath.exp(1j * phases[1])
        mat = np.diag([a, b, c, d]).astype(complex)
        mat[0, 3], mat[3, 0], mat[1, 2], mat[2, 1] = z, z.conjugate(), w, w.conjugate()
        expected = 2.0 * max(0.0, abs(z) - math.sqrt(b * c), abs(w) - math.sqrt(a * d))
        for value in concurrence_alone_and_in_a_stack(mat, seed):
            assert abs(value - expected) <= 1e-13
