"""Tomography: settings, simulation, linear inversion, MLE, and bootstrap."""

import math

import numpy as np
import pytest
from hypothesis import given, settings as hypothesis_settings, strategies as st

import biphoton as bp
from biphoton.polstate import (
    LINEAR,
    BiphotonKet,
    DensityMatrix4,
    Projector,
    density_change_basis,
    density_from_ket,
    min_eigenvalue,
)
from biphoton.tomography import (
    ConvergenceError,
    CountsRecord,
    DegenerateCountsError,
    FileFormatError,
    MeasurementSetting,
    SpanError,
    UnphysicalStateError,
    _arrays,
    _design,
    _likelihood,
    _linear_estimate,
    _mle,
    _quadratic_forms,
    _rho_from_params,
    _vectors,
    expected_probabilities,
    expected_probability,
    log_likelihood,
    read_counts_csv,
    reconstruct_linear,
    reconstruct_mle,
    resample_uncertainties,
    simulate_counts,
    standard_settings,
    write_counts_csv,
)

def exact_records(rho: DensityMatrix4, settings, n: float) -> list[CountsRecord]:
    return [
        CountsRecord(s, n * expected_probability(rho, s), 1.0) for s in settings
    ]


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def mixed_truth(ket: BiphotonKet, weight: float = 0.95) -> DensityMatrix4:
    pure = density_from_ket(ket)
    return DensityMatrix4(
        weight * pure.matrix + (1 - weight) * np.eye(4) / 4, pure.basis
    )


class TestStandardSettings:
    def test_overcomplete_cardinality(self):
        settings = standard_settings("overcomplete36")
        assert len(settings) == 36
        for s in settings:
            for proj in (s.proj_s, s.proj_i):
                norm = abs(proj.c_h) ** 2 + abs(proj.c_v) ** 2
                assert norm == pytest.approx(1.0, abs=1e-12)

    def test_minimal_distinct(self):
        settings = standard_settings("minimal16")
        assert len(settings) == 16
        assert len({s.label for s in settings}) == 16

    @pytest.mark.parametrize("kind", ["minimal16", "overcomplete36"])
    def test_spans_operator_space(self, kind):
        # Gram matrix of the projector outer products must have rank 16
        settings = standard_settings(kind)
        ops = []
        for v in _vectors(settings):
            ops.append(np.outer(v, v.conj()).reshape(-1))
        gram = np.array([[np.vdot(a, b) for b in ops] for a in ops])
        assert np.linalg.matrix_rank(gram, tol=1e-10) == 16

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            standard_settings("tetrahedral")


def haar_u2(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def rotated_settings(u_s: np.ndarray, u_i: np.ndarray) -> list[MeasurementSetting]:
    return [
        MeasurementSetting(
            Projector(*(u_s @ s.proj_s.vector(LINEAR))),
            Projector(*(u_i @ s.proj_i.vector(LINEAR))),
            s.label,
        )
        for s in standard_settings("overcomplete36")
    ]


class TestExpectedProbabilities:
    @hypothesis_settings(deadline=None, max_examples=50)
    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
    def test_exact_records_invert_under_local_rotation(self, seed, rank):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        mat = g @ g.conj().T
        rho = DensityMatrix4(0.5 * (mat + mat.conj().T) / np.trace(mat).real, LINEAR)
        settings = rotated_settings(haar_u2(rng), haar_u2(rng))
        probs = expected_probabilities(rho, settings)
        by_label = dict(zip((s.label for s in settings), probs))
        for pair_s in ("HV", "DA", "LR"):
            for pair_i in ("HV", "DA", "LR"):
                total = sum(by_label[a + b] for a in pair_s for b in pair_i)
                assert abs(total - 1.0) <= 1e-12
        records = [CountsRecord(s, float(p), 1.0) for s, p in zip(settings, probs)]
        assert np.max(np.abs(reconstruct_linear(records).matrix - rho.matrix)) <= 1e-10


class TestSimulateCounts:
    @pytest.mark.parametrize("n", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_count_level_rejected(self, rho_x, n):
        with pytest.raises(ValueError, match="n_per_setting must be finite and positive"):
            simulate_counts(rho_x, standard_settings("minimal16"), n, seed=1)

    def test_zero_probability_never_counts(self):
        ket = BiphotonKet(np.array([1, 0, 0, 0], dtype=complex), LINEAR)  # |HH>
        rho = density_from_ket(ket)
        setting = [
            MeasurementSetting(bp.named_projector("V"), bp.named_projector("V"), "VV")
        ]
        for seed in range(10):
            assert simulate_counts(rho, setting, 1e6, seed)[0].counts == 0

    def test_uniform_state_quarter_probability(self):
        rho = DensityMatrix4(np.eye(4, dtype=complex) / 4)
        setting = [
            MeasurementSetting(bp.named_projector("H"), bp.named_projector("H"), "HH")
        ]
        n = 1e6
        counts = simulate_counts(rho, setting, n, seed=2)[0].counts
        assert abs(counts / n - 0.25) < 5 * math.sqrt(0.25 * n) / n

    def test_seeded_determinism(self, rho_x):
        settings = standard_settings("overcomplete36")
        a = simulate_counts(rho_x, settings, 1e4, seed=99)
        b = simulate_counts(rho_x, settings, 1e4, seed=99)
        assert [r.counts for r in a] == [r.counts for r in b]
        c = simulate_counts(rho_x, settings, 1e4, seed=100)
        assert [r.counts for r in a] != [r.counts for r in c]


class TestReconstructLinear:
    def test_noiseless_round_trip(self, ket_x, rho_x):
        records = exact_records(rho_x, standard_settings("overcomplete36"), 1e6)
        rho = reconstruct_linear(records)
        assert bp.fidelity(rho, ket_x) >= 1 - 1e-6

    def test_maximally_mixed(self):
        rho_true = DensityMatrix4(np.eye(4, dtype=complex) / 4)
        records = exact_records(rho_true, standard_settings("overcomplete36"), 1e6)
        rho = reconstruct_linear(records)
        assert np.max(np.abs(rho.matrix - np.eye(4) / 4)) < 1e-6

    def test_duplicate_records_invariance(self, rho_x):
        records = simulate_counts(rho_x, standard_settings("overcomplete36"), 1e4, 5)
        once = reconstruct_linear(records)
        twice = reconstruct_linear(records + records)
        assert np.allclose(once.matrix, twice.matrix, atol=1e-12)

    def test_rank_deficient_settings_raise(self, rho_x):
        settings = standard_settings("overcomplete36")[:12]
        records = exact_records(rho_x, settings, 1e5)
        with pytest.raises(SpanError):
            reconstruct_linear(records)

    def test_small_negative_eigenvalues_tolerated(self, rho_x):
        records = simulate_counts(rho_x, standard_settings("overcomplete36"), 3e4, 21)
        rho = reconstruct_linear(records)
        assert -1e-2 <= min_eigenvalue(rho) < 0.0
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_grossly_unphysical_raises(self):
        # counts engineered to demand a strongly negative eigenvalue: claim
        # perfect correlations in mutually unbiased bases simultaneously
        settings = standard_settings("overcomplete36")
        records = []
        for s in settings:
            hit = s.label in ("HH", "VV", "DD", "AA", "LL", "RR")
            records.append(CountsRecord(s, 1000.0 if hit else 0.0, 1.0))
        with pytest.raises(UnphysicalStateError):
            reconstruct_linear(records)


class TestReconstructMLE:
    def test_round_trip_fidelity(self, ket_x, rho_x):
        records = simulate_counts(rho_x, standard_settings("overcomplete36"), 1e5, 3)
        result = reconstruct_mle(records)
        assert bp.fidelity(result.rho, ket_x) >= 0.995
        assert result.iterations > 0

    def test_agrees_with_linear_on_noiseless_records(self, ket_x):
        rho_true = mixed_truth(ket_x)
        records = exact_records(rho_true, standard_settings("overcomplete36"), 1e8)
        lin = density_change_basis(reconstruct_linear(records), LINEAR)
        mle = reconstruct_mle(records)
        assert trace_distance(lin.matrix, mle.rho.matrix) <= 1e-5

    def test_all_zero_counts_raise(self):
        settings = standard_settings("overcomplete36")
        records = [CountsRecord(s, 0.0, 1.0) for s in settings]
        with pytest.raises(DegenerateCountsError):
            reconstruct_mle(records)

    @pytest.mark.parametrize("estimator", [
        reconstruct_mle, reconstruct_linear, lambda r: resample_uncertainties(r, 2, seed=0),
    ], ids=["mle", "linear", "resample"])
    def test_non_finite_rate_sum_raises(self, estimator):
        records = [CountsRecord(s, 1e308) for s in standard_settings("minimal16")]
        with pytest.raises(ValueError, match="not finite"):
            estimator(records)

    @pytest.mark.parametrize("counts, exposure", [
        (math.nan, 1.0), (math.inf, 1.0), (5.0, math.nan), (5.0, math.inf),
    ])
    def test_non_finite_record_rejected(self, counts, exposure):
        with pytest.raises(ValueError, match="finite"):
            CountsRecord(standard_settings("minimal16")[0], counts, exposure)

    def test_too_few_records_raise(self, rho_x):
        records = exact_records(rho_x, standard_settings("overcomplete36")[:10], 1e4)
        with pytest.raises(SpanError):
            reconstruct_mle(records)

    @pytest.mark.parametrize("estimator", [reconstruct_mle, reconstruct_linear], ids=["mle", "linear"])
    def test_no_records_raise_span_error(self, estimator):
        with pytest.raises(SpanError):
            estimator([])

    def test_output_physical_for_arbitrary_counts(self):
        rng = np.random.default_rng(8)
        settings = standard_settings("overcomplete36")
        for _ in range(5):
            records = [
                CountsRecord(s, float(rng.integers(0, 50)), 1.0) for s in settings
            ]
            if sum(r.counts for r in records) == 0:
                continue
            result = reconstruct_mle(records)
            assert min_eigenvalue(result.rho) >= 0.0
            assert np.trace(result.rho.matrix).real == pytest.approx(1.0, abs=1e-10)

    def test_states_from_parameters_have_unit_trace_and_floor(self):
        # (T^dagger T + 1e-15 Tr I) / (Tr (1 + 4e-15)): unit trace to rounding, every
        # eigenvalue at least about 1e-15, also for nearly rank-one T
        rng = np.random.default_rng(9)
        x = rng.normal(size=(400, 16)) * rng.uniform(1e-3, 1e3, size=(400, 1))
        x[:200, 1:4] *= 1e-12
        mats = _rho_from_params(x)
        assert np.max(np.abs(np.trace(mats, axis1=1, axis2=2) - 1.0)) <= 1e-15
        assert np.min(np.linalg.eigvalsh(mats)) >= 0.9e-15

    def test_likelihood_beats_projected_linear(self, rho_x):
        settings = standard_settings("overcomplete36")
        for seed in (1, 2, 3):
            records = simulate_counts(rho_x, settings, 500, seed)
            mle = reconstruct_mle(records)
            vectors, counts, exposures = _arrays(records)
            est = _linear_estimate(_design(vectors), counts / exposures)
            evals, evecs = np.linalg.eigh(est)
            evals = np.clip(evals, 0.0, None)
            projected = (evecs * evals) @ evecs.conj().T
            projected = projected / np.trace(projected).real
            projected = DensityMatrix4(
                0.5 * (projected + projected.conj().T), LINEAR
            )
            ll_lin = log_likelihood(projected, records)
            assert mle.log_likelihood >= ll_lin - 1e-6 * abs(ll_lin)

    def test_gradient_and_hessian_match_finite_differences(self, rho_x):
        records = simulate_counts(rho_x, standard_settings("overcomplete36"), 1e4, 13)
        vectors, counts, exposures = _arrays(records)
        a, s_mat = _quadratic_forms(vectors, exposures)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 16)) * 0.5
        _, grad, hess = _likelihood(x, a, s_mat, counts[None])
        eps = 1e-6
        for i in range(16):
            dx = np.zeros((1, 16))
            dx[0, i] = eps
            lp, gp, _ = _likelihood(x + dx, a, s_mat, counts[None])
            lm, gm, _ = _likelihood(x - dx, a, s_mat, counts[None])
            assert grad[0, i] == pytest.approx((lp[0] - lm[0]) / (2 * eps), rel=1e-5, abs=1e-4)
            fd_row = (gp[0] - gm[0]) / (2 * eps)
            assert np.allclose(hess[0, i], fd_row, rtol=1e-5, atol=1e-6 * np.max(np.abs(hess)))

    def test_equivariance_under_local_unitaries(self, ket_x):
        rng = np.random.default_rng(77)
        u_s, u_i = haar_u2(rng), haar_u2(rng)
        u = np.kron(u_s, u_i)
        rho = density_from_ket(ket_x)
        rho_lin = density_change_basis(rho, LINEAR)
        mapped = DensityMatrix4(u @ rho_lin.matrix @ u.conj().T, LINEAR)

        settings = standard_settings("overcomplete36")
        mapped_settings = rotated_settings(u_s, u_i)
        rec_a = simulate_counts(rho_lin, settings, 1e5, seed=4)
        rec_b = simulate_counts(mapped, mapped_settings, 1e5, seed=4)
        rho_a = reconstruct_mle(rec_a).rho.matrix
        rho_b = reconstruct_mle(rec_b).rho.matrix
        # Uhlmann fidelity between the mapped reconstruction pair
        mapped_a = u @ rho_a @ u.conj().T
        evals, evecs = np.linalg.eigh(mapped_a)
        root = (evecs * np.sqrt(np.clip(evals, 0, None))) @ evecs.conj().T
        inner = root @ rho_b @ root
        fid = float(
            np.sum(np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0.0, None))) ** 2
        )
        assert fid >= 0.999

    def test_seed_1034_dataset_converges(self, rho_x):
        # L-BFGS-B stopped in its line search on this dataset (status 2, after
        # 55 iterations) with its best iterate at log-likelihood 8429133.40110831.
        settings = standard_settings("overcomplete36")
        probs = np.array([expected_probability(rho_x, s) for s in settings])
        counts = np.random.default_rng(1034).poisson(1e5 * probs)
        records = [CountsRecord(s, int(n)) for s, n in zip(settings, counts)]
        result = reconstruct_mle(records)
        assert result.log_likelihood >= 8429133.40110831
        assert result.log_likelihood == log_likelihood(result.rho, records)

    def test_iteration_cap_raises_convergence_error(self, rho_x):
        records = simulate_counts(rho_x, standard_settings("overcomplete36"), 1e4, 3)
        with pytest.raises(ConvergenceError) as err:
            reconstruct_mle(records, max_iterations=1)
        message = str(err.value)
        assert err.value.best.iterations == 1
        assert "after 1 iterations" in message
        assert "gradient max-norm" in message
        assert err.value.best.log_likelihood <= reconstruct_mle(records).log_likelihood

    @hypothesis_settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["minimal16", "overcomplete36"]),
        size=st.integers(2, 5),
        scale=st.sampled_from([5, 200, 100_000]),
    )
    def test_stacked_solve_equals_single_solves(self, seed, kind, size, scale):
        rng = np.random.default_rng(seed)
        vectors = _vectors(standard_settings(kind))
        counts = rng.integers(0, scale, size=(size, len(vectors))).astype(float)
        counts[:, 0] += 1.0
        exposures = np.ones(len(vectors))
        stacked = _mle(vectors, counts, exposures)
        for b, result in enumerate(stacked):
            single = _mle(vectors, counts[b : b + 1], exposures)[0]
            assert result.rho.matrix.tobytes() == single.rho.matrix.tobytes()
            assert result.log_likelihood == single.log_likelihood
            assert result.iterations == single.iterations
            assert min_eigenvalue(result.rho) >= 0.0
            assert abs(np.trace(result.rho.matrix) - 1.0) <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_stacked_solve_with_indefinite_systems(self, seed, monkeypatch):
        # With random integer counts some stacked damped system has no
        # Cholesky factor, so the stacked test raises and _ascend tests the
        # problems one by one.
        raised = []
        cholesky = np.linalg.cholesky

        def spy(mats):
            try:
                return cholesky(mats)
            except np.linalg.LinAlgError:
                raised.append(len(mats))
                raise

        monkeypatch.setattr(np.linalg, "cholesky", spy)
        rng = np.random.default_rng(seed)
        vectors = _vectors(standard_settings("minimal16"))
        counts = rng.integers(0, 200, size=(4, len(vectors))).astype(float)
        counts[:, 0] += 1.0
        exposures = np.ones(len(vectors))
        stacked = _mle(vectors, counts, exposures)
        assert any(size > 1 for size in raised)
        for b, result in enumerate(stacked):
            single = _mle(vectors, counts[b : b + 1], exposures)[0]
            assert result.rho.matrix.tobytes() == single.rho.matrix.tobytes()
            assert result.log_likelihood == single.log_likelihood
            assert result.iterations == single.iterations

    def test_fidelity_improves_with_counts(self, ket_x, rho_x):
        settings = standard_settings("overcomplete36")
        means = []
        for n in (1e2, 1e3, 1e4, 1e5):
            fids = []
            for seed in range(20):
                records = simulate_counts(rho_x, settings, n, seed=seed)
                fids.append(bp.fidelity(reconstruct_mle(records).rho, ket_x))
            means.append(np.mean(fids))
        assert all(b > a for a, b in zip(means, means[1:]))


class TestLogLikelihood:
    def test_matches_poisson_sum_at_fitted_flux(self):
        # sum_k n_k ln mu_k - mu_k with mu_k = F e_k p_k at the flux F = N / sum_k e_k p_k
        rng = np.random.default_rng(23)
        settings = standard_settings("overcomplete36")
        kets = np.array([np.kron(s.proj_s.vector(LINEAR), s.proj_i.vector(LINEAR)) for s in settings])
        for _ in range(6):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            mat = g @ g.conj().T
            rho = DensityMatrix4(mat / np.trace(mat).real, LINEAR)
            p = np.einsum("ki,ij,kj->k", kets.conj(), rho.matrix, kets).real
            exposures = rng.uniform(0.2, 5.0, size=len(settings))
            counts = rng.poisson(300.0 * exposures * p).astype(float)
            records = [CountsRecord(s, n, e) for s, n, e in zip(settings, counts, exposures)]
            mu = counts.sum() / (exposures @ p) * exposures * p
            seen = counts > 0
            expected = counts[seen] @ np.log(mu[seen]) - mu.sum()
            assert log_likelihood(rho, records) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_minus_infinity_for_a_forbidden_setting_with_counts(self):
        hh = density_from_ket(BiphotonKet(np.array([1.0, 0.0, 0.0, 0.0]), LINEAR))
        settings = standard_settings("overcomplete36")
        records = [CountsRecord(s, 10.0 if s.label in ("HH", "VV") else 0.0) for s in settings]
        assert log_likelihood(hh, records) == -np.inf
        without_vv = [CountsRecord(r.setting, 0.0) if r.setting.label == "VV" else r for r in records]
        # HH takes all N = 10 counts at the flux 10 / 9 (the 36 settings' probabilities sum to 9)
        assert log_likelihood(hh, without_vv) == pytest.approx(10.0 * math.log(10.0 / 9.0) - 10.0, rel=1e-14)


class TestResampling:
    def test_matches_explicit_loop(self, ket_x, rho_x):
        # Each resample: its own child seed, Poisson redraw, MLE, indicators.
        records = simulate_counts(rho_x, standard_settings("overcomplete36"), 1e3, 6)
        samples = {}
        for child in np.random.SeedSequence(42).spawn(4):
            counts = np.random.default_rng(child).poisson([r.counts for r in records])
            redrawn = [
                CountsRecord(r.setting, int(n), r.exposure) for r, n in zip(records, counts)
            ]
            rho = reconstruct_mle(redrawn).rho
            for name, value in bp.entanglement.indicators(rho, ket_x).items():
                samples.setdefault(name, []).append(value)
        stats = resample_uncertainties(records, 4, seed=42, target=ket_x)
        assert set(stats) == set(samples)
        for name, values in samples.items():
            assert stats[name].mean == float(np.mean(values))
            assert stats[name].std == float(np.std(values, ddof=1))

    def test_poisson_scaling_law(self, rho_x):
        settings = standard_settings("overcomplete36")
        small = simulate_counts(rho_x, settings, 300, seed=10)
        big = [
            CountsRecord(r.setting, r.counts * 100, r.exposure) for r in small
        ]
        stats_small = resample_uncertainties(small, 30, seed=11)
        stats_big = resample_uncertainties(big, 30, seed=12)
        ratio = stats_small["concurrence"].std / stats_big["concurrence"].std
        assert 10 / 1.5 <= ratio <= 10 * 1.5

    def test_uncertainties_at_experimental_scale(self, ket_x, rho_x):
        records = simulate_counts(rho_x, standard_settings("overcomplete36"), 1000, 14)
        stats = resample_uncertainties(records, 40, seed=15, target=ket_x)
        for name in ("purity", "concurrence", "entanglement_of_formation", "fidelity"):
            assert 0.0 < stats[name].std <= 0.08

    def test_requires_two_resamples(self, rho_x):
        records = simulate_counts(rho_x, standard_settings("overcomplete36"), 1e3, 1)
        with pytest.raises(ValueError):
            resample_uncertainties(records, 1, seed=0)


class TestCountsCsv:
    def test_round_trip(self, rho_x, tmp_path):
        records = simulate_counts(rho_x, standard_settings("minimal16"), 1e4, 30)
        path = tmp_path / "counts.csv"
        write_counts_csv(records, path, comments=["seed: 30"])
        back = read_counts_csv(path)
        assert len(back) == len(records)
        for orig, read in zip(records, back):
            assert read.counts == orig.counts
            assert read.exposure == orig.exposure
            assert read.setting.label == orig.setting.label
            assert read.setting.proj_s.c_h == pytest.approx(orig.setting.proj_s.c_h)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(FileFormatError):
            read_counts_csv(path)

    def test_bad_number_names_line_and_field(self, rho_x, tmp_path):
        records = simulate_counts(rho_x, standard_settings("minimal16"), 1e3, 31)
        path = tmp_path / "counts.csv"
        write_counts_csv(records, path)
        lines = path.read_text().splitlines()
        parts = lines[3].split(",")
        parts[-2] = "not_a_number"
        lines[3] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError) as err:
            read_counts_csv(path)
        assert err.value.line == 4
        assert err.value.fieldname == "counts"

    def test_nan_counts_names_line_and_field(self, rho_x, tmp_path):
        records = simulate_counts(rho_x, standard_settings("minimal16"), 1e3, 31)
        path = tmp_path / "counts.csv"
        write_counts_csv(records, path)
        lines = path.read_text().splitlines()
        parts = lines[5].split(",")
        parts[-2] = "nan"
        lines[5] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError) as err:
            read_counts_csv(path)
        assert err.value.line == 6
        assert err.value.fieldname == "counts"

    def test_overflowing_rate_names_line_and_field(self, rho_x, tmp_path):
        records = simulate_counts(rho_x, standard_settings("minimal16"), 1e3, 31)
        path = tmp_path / "counts.csv"
        write_counts_csv(records, path)
        lines = path.read_text().splitlines()
        parts = lines[5].split(",")
        parts[-1] = "1e-320"
        lines[5] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match="not finite") as err:
            read_counts_csv(path)
        assert err.value.line == 6
        assert err.value.fieldname == "exposure"

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(FileFormatError):
            read_counts_csv(path)
