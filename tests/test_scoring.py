import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dseval import scoring
from dseval.core import DsevalError
from dseval.scoring import (
    METHODS,
    DegenerateSpread,
    EmptyClassTemplate,
    FitSplit,
    KTooLarge,
    NonPositiveTemperature,
    OutOfRange,
    RankDeficient,
    ScoreInputs,
    ScoreOptions,
    SingularCovariance,
    ZeroVector,
    build_feature_bank,
    default_k,
    default_pca_dim,
    energy,
    fit_class_templates,
    fit_gaussian_stats,
    fit_principal_subspace,
    fit_sirc_params,
    fit_vim_alpha,
    klm,
    knn_score,
    l1_feature_norm,
    mahalanobis,
    max_logit,
    msp,
    neg_entropy,
    residual_score,
    sirc_combine,
    softmax,
    vim,
)


class TestLogitScores:
    def test_msp_symmetry(self):
        assert msp([0.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_msp_closed_form(self):
        assert msp([math.log(3), 0.0]) == pytest.approx(0.75)

    def test_msp_direct_softmax(self):
        # independent evaluation without max-shifting
        z = np.array([5.0, 0.0, 0.0])
        expected = np.exp(z).max() / np.exp(z).sum()
        assert msp(z) == pytest.approx(expected, abs=1e-3)
        assert msp(z) == pytest.approx(0.9866, abs=1e-3)

    def test_msp_range(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            c = int(rng.integers(2, 10))
            v = msp(rng.normal(0, 3, c))
            assert 1.0 / c < v <= 1.0

    def test_max_logit(self):
        assert max_logit([0.0, 0.0]) == 0.0
        assert max_logit([-1.0, 3.0]) == 3.0
        assert max_logit([3.0, -1.0]) == max_logit([-1.0, 3.0])

    def test_energy_values(self):
        assert energy([0.0, 0.0]) == pytest.approx(math.log(2))
        assert energy([3.7]) == pytest.approx(3.7)
        assert energy([10.0, 0.0]) == pytest.approx(10.0000454, abs=1e-6)

    def test_energy_temperature(self):
        with pytest.raises(NonPositiveTemperature):
            energy([1.0, 2.0], temperature=0.0)
        # T * lse(z/T) with a huge T approaches max + T*ln(C) growth; just
        # check a hand value at T=2
        z = np.array([2.0, 0.0])
        assert energy(z, 2.0) == pytest.approx(2 * np.log(np.exp(1.0) + 1.0))

    def test_energy_shift_equivariance_msp_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            z = rng.normal(0, 4, int(rng.integers(2, 8)))
            c = float(rng.normal(0, 4))
            assert energy(z + c) == pytest.approx(energy(z) + c, abs=1e-12)
            assert msp(z + c) == pytest.approx(msp(z), abs=1e-12)
            assert neg_entropy(z + c) == pytest.approx(neg_entropy(z), abs=1e-12)

    def test_neg_entropy_bounds(self):
        assert neg_entropy([0.0] * 4) == pytest.approx(-math.log(4))
        assert neg_entropy([1000.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-9)
        rng = np.random.default_rng(2)
        for _ in range(100):
            c = int(rng.integers(2, 10))
            v = neg_entropy(rng.normal(0, 3, c))
            assert -math.log(c) - 1e-12 <= v <= 0.0

    def test_deterministic(self):
        z = np.random.default_rng(3).normal(0, 2, 6)
        assert msp(z) == msp(z.copy())
        assert energy(z) == energy(z.copy())


class TestKlm:
    def test_match_is_maximum(self):
        probs = np.array([[0.9, 0.1], [0.1, 0.9]])
        templates = fit_class_templates(probs, np.array([0, 1]))
        assert klm([0.9, 0.1], templates) == pytest.approx(0.0, abs=1e-12)
        assert klm([0.5, 0.5], templates) < 0.0

    def test_uniform_templates(self):
        probs = np.full((4, 3), 1 / 3)
        templates = fit_class_templates(probs, np.array([0, 1, 2, 0]))
        assert klm([1 / 3, 1 / 3, 1 / 3], templates) == pytest.approx(0.0, abs=1e-12)

    def test_min_over_templates(self):
        # KL to the matching template is 0; the other is ignored by the min
        templates = np.array([[0.9, 0.1], [0.1, 0.9]])
        assert klm([0.9, 0.1], templates) == pytest.approx(0.0, abs=1e-12)

    def test_empty_class(self):
        probs = np.array([[0.9, 0.1], [0.8, 0.2]])
        with pytest.raises(EmptyClassTemplate):
            fit_class_templates(probs, np.array([0, 0]))


class TestMahalanobis:
    def test_zero_at_class_mean(self):
        x = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        stats = fit_gaussian_stats(x, [0, 0, 1, 1])
        assert mahalanobis(stats.means[0], stats) == pytest.approx(0.0, abs=1e-9)
        assert mahalanobis([10.0, -4.0], stats) < 0.0

    def test_identity_covariance_closed_form(self):
        # centered unit-variance cloud around 0: score at radius r is -r^2
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, (20_000, 2))
        x -= x.mean(axis=0)
        x /= x.std(axis=0)
        stats = fit_gaussian_stats(x, np.zeros(len(x), dtype=int))
        r = 1.7
        assert mahalanobis([r, 0.0], stats) == pytest.approx(-(r**2), rel=0.02)

    def test_two_class_fixture_matches_quadratic_form(self):
        x = np.array(
            [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [3.0, 1.0], [5.0, 1.0], [3.0, 3.0]]
        )
        y = [0, 0, 0, 1, 1, 1]
        stats = fit_gaussian_stats(x, y)
        f = np.array([1.0, 0.25])
        expected = -min(
            (f - mu) @ stats.cov_inv @ (f - mu) for mu in stats.means
        )
        assert mahalanobis(f, stats) == pytest.approx(expected, rel=1e-12)

    def test_singular_covariance(self):
        x = np.zeros((4, 3))
        with pytest.raises(SingularCovariance):
            fit_gaussian_stats(x, [0, 0, 0, 0])


class TestKnn:
    def test_exact_bank_member(self):
        bank = build_feature_bank(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert knn_score([2.0, 0.0], bank, 1) == pytest.approx(0.0)

    def test_antipodal(self):
        bank = build_feature_bank(np.array([[1.0, 0.0]]))
        assert knn_score([-1.0, 0.0], bank, 1) == pytest.approx(-2.0)

    def test_matches_exhaustive_sort(self):
        rng = np.random.default_rng(7)
        bank_vectors = rng.normal(0, 1, (50, 8))
        bank = build_feature_bank(bank_vectors)
        q = rng.normal(0, 1, 8)
        qn = q / np.linalg.norm(q)
        dists = sorted(
            np.linalg.norm(v / np.linalg.norm(v) - qn) for v in bank_vectors
        )
        assert knn_score(q, bank, 5) == pytest.approx(-dists[4], abs=1e-12)

    def test_bounds_for_unit_vectors(self):
        rng = np.random.default_rng(8)
        bank = build_feature_bank(rng.normal(0, 1, (30, 4)))
        for _ in range(50):
            v = knn_score(rng.normal(0, 1, 4), bank, 3)
            assert -2.0 - 1e-12 <= v <= 0.0

    def test_k_bounds(self):
        bank = build_feature_bank(np.array([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(KTooLarge):
            knn_score([1.0, 0.0], bank, 3)
        with pytest.raises(KTooLarge):
            knn_score([1.0, 0.0], bank, 0)

    def test_zero_vectors_rejected(self):
        with pytest.raises(ZeroVector):
            build_feature_bank(np.array([[0.0, 0.0]]))
        bank = build_feature_bank(np.array([[1.0, 0.0]]))
        with pytest.raises(ZeroVector):
            knn_score([0.0, 0.0], bank, 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("exponent", [700, -530, -540, -1070, -1074])
    def test_huge_and_tiny_vectors_keep_their_direction(self, exponent):
        # squared norms that overflow, are subnormal, or are 0 on a nonzero
        # row (2**-1074 is the smallest subnormal); scaling by a power of two
        # is exact, so the normalized vectors and scores must not change
        magnitude = 2.0**exponent
        direction = np.array([[3.0, 4.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, 0.0]])
        bank = build_feature_bank(direction)
        scaled = build_feature_bank(np.vstack([direction[:2] * magnitude, direction[2:]]))
        assert np.array_equal(scaled.vectors, bank.vectors)
        query = np.array([2.0, 1.0, 1.0])
        for k in (1, 2, 3):
            assert knn_score(query * magnitude, scaled, k) == knn_score(query, bank, k)

    def test_default_k(self):
        assert default_k(10) == 1
        assert default_k(10_000) == 50


def test_l1_feature_norm():
    assert l1_feature_norm([0.0, 0.0]) == 0.0
    assert l1_feature_norm([1.0, -1.0]) == 2.0
    rng = np.random.default_rng(9)
    v = rng.normal(0, 1, 6)
    assert l1_feature_norm(3.5 * v) == pytest.approx(3.5 * l1_feature_norm(v))


class TestPrincipalResidual:
    def test_in_span_is_zero(self):
        x = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        basis = fit_principal_subspace(x, 1)
        assert residual_score([7.0, 0.0, 0.0], basis) == pytest.approx(0.0, abs=1e-12)

    def test_d_bounds(self):
        x = np.random.default_rng(10).normal(0, 1, (5, 3))
        with pytest.raises(ValueError):
            fit_principal_subspace(x, 3)
        with pytest.raises(ValueError):
            fit_principal_subspace(x, 0)

    def test_rank_deficient(self):
        x = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(RankDeficient):
            fit_principal_subspace(x, 2)

    def test_matches_projection_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.normal(0, 1, (40, 3))
        basis = fit_principal_subspace(x, 2)
        f = rng.normal(0, 1, 3)
        centered = f - basis.mean
        proj = basis.basis @ basis.basis.T @ centered
        assert residual_score(f, basis) == pytest.approx(
            -np.linalg.norm(centered - proj), abs=1e-12
        )
        # orthonormal columns
        gram = basis.basis.T @ basis.basis
        assert np.allclose(gram, np.eye(2), atol=1e-8)

    def test_default_dim(self):
        assert default_pca_dim(10) == 9
        assert default_pca_dim(2048) == 256


class TestVim:
    def _basis(self, rng):
        return fit_principal_subspace(rng.normal(0, 1, (30, 4)), 2)

    def test_zero_residual_equals_energy(self):
        rng = np.random.default_rng(12)
        basis = self._basis(rng)
        logits = np.array([2.0, -1.0, 0.5])
        in_span = basis.mean + basis.basis @ np.array([0.3, -0.7])
        assert vim(logits, in_span, basis, 3.0) == pytest.approx(
            energy(logits), abs=1e-9
        )

    def test_alpha_zero_degenerates_to_energy(self):
        rng = np.random.default_rng(13)
        basis = self._basis(rng)
        logits = np.array([1.0, 0.0])
        f = rng.normal(0, 1, 4)
        assert vim(logits, f, basis, 0.0) == energy(logits)

    def test_composition(self):
        rng = np.random.default_rng(14)
        basis = self._basis(rng)
        logits = np.array([0.5, 2.5, -1.0])
        f = rng.normal(0, 1, 4)
        alpha = 1.7
        assert vim(logits, f, basis, alpha) == pytest.approx(
            energy(logits) + alpha * residual_score(f, basis), abs=1e-12
        )

    def test_alpha_fit(self):
        rng = np.random.default_rng(15)
        feats = rng.normal(0, 1, (30, 4))
        basis = fit_principal_subspace(feats, 2)
        logits = rng.normal(1, 1, (30, 3)) + 4.0
        alpha = fit_vim_alpha(logits, feats, basis)
        mean_logit = logits.max(axis=1).mean()
        mean_res = np.mean([-residual_score(f, basis) for f in feats])
        assert alpha == pytest.approx(mean_logit / mean_res)
        assert alpha > 0


class TestSirc:
    def test_no_deficit_is_zero(self):
        assert sirc_combine(1.0, 1.0, -123.0, 0.0, 2.0) == 0.0

    def test_b_zero_limit(self):
        assert sirc_combine(0.6, 1.0, 55.0, 0.0, 0.0) == pytest.approx(-0.8)

    def test_at_gate_midpoint(self):
        assert sirc_combine(0.6, 1.0, 0.25, 0.25, 4.0) == pytest.approx(-0.8)

    def test_params_fit(self):
        s2 = np.array([1.0, 2.0, 3.0, 4.0])
        params = fit_sirc_params(s2)
        assert params.a == pytest.approx(s2.mean() - 3 * s2.std())
        assert params.b == pytest.approx(1 / s2.std())

    def test_degenerate_spread(self):
        with pytest.raises(DegenerateSpread):
            fit_sirc_params([2.0, 2.0, 2.0])

    def test_s1_above_max_rejected(self):
        with pytest.raises(ValueError):
            sirc_combine(1.1, 1.0, 0.0, 0.0, 1.0)


def test_value_errors_are_typed():
    # each is a DsevalError, so the CLI reports it on one line, and still a
    # ValueError for callers that catch that
    x = np.random.default_rng(10).normal(0, 1, (5, 3))
    basis = fit_principal_subspace(x, 2)
    calls = [
        lambda: fit_principal_subspace(x, 3),
        lambda: fit_vim_alpha(np.full((5, 2), -50.0), x, basis),
        lambda: sirc_combine(1.1, 1.0, 0.0, 0.0, 1.0),
    ]
    for call in calls:
        with pytest.raises(OutOfRange) as info:
            call()
        assert isinstance(info.value, DsevalError) and isinstance(info.value, ValueError)


class TestOrientation:
    """Fit-set members must outscore far-away inputs for every method."""

    def test_feature_scores(self):
        rng = np.random.default_rng(20)
        feats = rng.normal(0, 1, (200, 6)) + 3.0
        labels = rng.integers(0, 3, 200)
        member = feats[0]
        far = member + 10.0 * feats.std(axis=0) * np.ones(6)

        stats = fit_gaussian_stats(feats, labels)
        assert mahalanobis(member, stats) > mahalanobis(far, stats)

        # knn compares directions, so "far" means angularly off the bulk
        bank = build_feature_bank(feats)
        assert knn_score(member, bank, 5) > knn_score(-member, bank, 5)

        basis = fit_principal_subspace(feats, 2)
        far_off_plane = basis.mean + 10.0 * np.linalg.svd(feats - feats.mean(0))[2][-1]
        assert residual_score(member, basis) >= residual_score(far_off_plane, basis)

    def test_logit_scores(self):
        peaked = np.array([8.0, 0.0, 0.0])
        flat = np.array([0.1, 0.0, 0.05])
        assert msp(peaked) > msp(flat)
        assert max_logit(peaked) > max_logit(flat)
        assert energy(peaked) > energy(flat)
        assert neg_entropy(peaked) > neg_entropy(flat)

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            p = softmax(rng.normal(0, 5, int(rng.integers(2, 12))))
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(p >= 0)


# Per-row reference of every registered method, given its fitted artifact.
REFERENCE = {
    "msp": lambda z, f, a: msp(z),
    "mls": lambda z, f, a: max_logit(z),
    "energy": lambda z, f, a: energy(z, a),
    "neg_entropy": lambda z, f, a: neg_entropy(z),
    "klm": lambda z, f, a: klm(softmax(z), a),
    "mds": lambda z, f, a: mahalanobis(f, a),
    "knn": lambda z, f, a: knn_score(f, *a),
    "l1": lambda z, f, a: l1_feature_norm(f),
    "residual": lambda z, f, a: residual_score(f, a),
    "vim": lambda z, f, a: vim(z, f, *a),
    "sirc_msp_l1": lambda z, f, a: sirc_combine(
        msp(z), 1.0, l1_feature_norm(f), a.a, a.b
    ),
    "sirc_msp_res": lambda z, f, a: sirc_combine(
        msp(z), 1.0, residual_score(f, a[0]), a[1].a, a[1].b
    ),
}
# Matrix products replace matrix-vector products in these, so the last bits
# may differ; every other method must match its reference exactly.
NEAR = {"residual", "vim", "sirc_msp_res"}


def _batch_fixture(seed=30, n_classes=5, dim=6):
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, 1.5, (n_classes, dim))
    fit_labels = rng.integers(0, n_classes, 80)
    fit_features = means[fit_labels] + rng.normal(0, 1, (80, dim))
    fit_logits = fit_features @ means.T + rng.normal(0, 1, (80, n_classes))
    features = np.vstack([means[rng.integers(0, n_classes, 40)], np.zeros((20, dim))])
    features += rng.normal(0, 1, features.shape)
    features[0] = fit_features[3]  # a bank member
    features[1] = -fit_features[3]  # its antipode
    logits = features @ means.T + rng.normal(0, 1, (60, n_classes))
    logits[2] = [900.0, 0.0, -900.0, 1.0, 2.0]  # probabilities that underflow to 0
    split = FitSplit(fit_logits, fit_features, fit_labels, ScoreOptions(temperature=1.7))
    return ScoreInputs(logits, features), split


@pytest.mark.parametrize("block_bytes", [scoring.BLOCK_BYTES, 8])
def test_batched_methods_match_per_row_references(monkeypatch, block_bytes):
    monkeypatch.setattr(scoring, "BLOCK_BYTES", block_bytes)  # 8: one row per block
    inputs, split = _batch_fixture()
    assert set(METHODS) == set(REFERENCE)
    for name, method in METHODS.items():
        fitted = method.fit(split)
        got = method.score_batch(inputs, fitted)
        rows = zip(inputs.logits, inputs.features)
        want = np.array([REFERENCE[name](z, f, fitted) for z, f in rows])
        assert got.shape == want.shape, name
        if name in NEAR:
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12, err_msg=name)
        else:
            assert np.array_equal(got, want), name


def test_shared_basis_is_fitted_once():
    _, split = _batch_fixture()
    basis = METHODS["residual"].fit(split)
    assert METHODS["vim"].fit(split)[0] is basis
    assert METHODS["sirc_msp_res"].fit(split)[0] is basis


def _knn_both(queries, bank_vectors, k):
    bank = build_feature_bank(bank_vectors)
    inputs = ScoreInputs(None, np.asarray(queries, dtype=np.float64))
    got = METHODS["knn"].score_batch(inputs, (bank, k))
    want = np.array([knn_score(q, bank, k) for q in inputs.features])
    return got, want


class TestBatchedKnn:
    def test_bank_members_duplicates_and_antipodes(self):
        rng = np.random.default_rng(31)
        bank = rng.normal(0, 1, (12, 5))
        bank = np.vstack([bank, bank[:4], bank[:2]])  # ties at the k-th neighbor
        queries = np.vstack(
            [bank[:6], -bank[:6], 3.0 * bank[:3], rng.normal(0, 1, (10, 5))]
        )
        for k in (1, 2, 3, 5, bank.shape[0]):
            got, want = _knn_both(queries, bank, k)
            assert np.array_equal(got, want), k

    def test_near_duplicate_bank(self):
        # dot products that differ only in the last bits: the Gram identity
        # alone cannot order them
        rng = np.random.default_rng(32)
        base = rng.normal(0, 1, 8)
        bank = base + rng.normal(0, 1e-9, (40, 8))
        queries = np.vstack([base, bank[:5], base + rng.normal(0, 1e-12, (5, 8))])
        for k in (1, 7, 40):
            got, want = _knn_both(queries, bank, k)
            assert np.array_equal(got, want), k

    def test_first_zero_row_is_reported(self):
        bank = build_feature_bank(np.eye(3))
        queries = np.array([[1.0, 0, 0], [0.0, 0, 0], [0.0, 0, 0]])
        with pytest.raises(ZeroVector) as info:
            METHODS["knn"].score_batch(ScoreInputs(None, queries), (bank, 1))
        assert info.value.row == 1

    def test_k_outside_bank(self):
        bank = build_feature_bank(np.eye(3))
        for k in (0, 4):
            with pytest.raises(KTooLarge):
                METHODS["knn"].score_batch(ScoreInputs(None, np.eye(3)), (bank, k))


# Banks larger than the sample the k-th nearest is first bounded from, at the
# default block size and at one row per block.
@pytest.fixture(params=[None, 8], ids=["blocks", "rows"])
def knn_blocks(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(scoring, "BLOCK_BYTES", request.param)


class TestSampledKnn:
    def test_sample_is_smaller_than_the_bank(self):
        for k in (1, 3, 12):
            assert len(range(1000)[scoring._knn_sample(1000, k)]) < 1000
        assert len(range(1000)[scoring._knn_sample(1000, 25)]) == 1000

    def test_random_bank(self, knn_blocks):
        rng = np.random.default_rng(34)
        bank = rng.normal(0, 1, (1000, 16))
        queries = np.vstack([bank[:10], -bank[10:15], rng.normal(0, 1, (25, 16))])
        for k in (1, 2, 7, 1000):
            got, want = _knn_both(queries, bank, k)
            assert np.array_equal(got, want), k

    def test_sample_holds_the_farthest_vectors(self, knn_blocks):
        # every query lies near one direction and the sampled columns hold
        # the vectors farthest from it, so the sampled bound is the loosest
        rng = np.random.default_rng(35)
        centre = rng.normal(0, 1, 8)
        vectors = centre + rng.normal(0, 0.8, (1200, 8))
        by_distance = np.argsort(-(vectors @ centre) / np.linalg.norm(vectors, axis=1))
        for k in (1, 4, 1200):
            sampled = np.arange(1200)[scoring._knn_sample(1200, k)]
            rest = np.setdiff1d(np.arange(1200), sampled)
            bank = np.empty_like(vectors)
            bank[sampled] = vectors[by_distance[: sampled.size]]
            bank[rest] = vectors[by_distance[sampled.size :]]
            queries = centre + rng.normal(0, 0.1, (20, 8))
            got, want = _knn_both(queries, bank, k)
            assert np.array_equal(got, want), k

    @pytest.mark.parametrize("spread", [1e-9, 1e-7])
    def test_near_duplicates(self, knn_blocks, spread):
        # 1e-9 apart they tie in float32; 1e-7 apart float32 puts some of
        # them out of their float64 order
        rng = np.random.default_rng(36)
        base = rng.normal(0, 1, 64)
        bank = np.vstack([base + rng.normal(0, spread, (1000, 64)), rng.normal(0, 1, (200, 64))])
        rng.shuffle(bank)
        queries = np.vstack([base, bank[:5], base + rng.normal(0, spread, (10, 64))])
        for k in (1, 2, 5, 37, 1000, 1001, 1200):
            got, want = _knn_both(queries, bank, k)
            assert np.array_equal(got, want), k

    @pytest.mark.filterwarnings("error")
    def test_huge_tiny_and_subnormal_queries(self, knn_blocks):
        rng = np.random.default_rng(37)
        bank = rng.normal(0, 1, (800, 12))
        directions = np.vstack([bank[:4], rng.normal(0, 1, (8, 12))])
        queries = np.vstack(
            [directions * 1e200, directions * 1e-160, directions * 1e-315, directions]
        )
        queries[-1] = [5e-324] + [0.0] * 11  # a nonzero row whose squared norm is 0
        for k in (1, 3, 800):
            got, want = _knn_both(queries, bank, k)
            assert np.array_equal(got, want), k


def test_batched_knn_peak_memory():
    """kNN at score-all shapes holds the float32 bank (1.28 MB) and one block of rows."""
    rng = np.random.default_rng(38)
    bank = build_feature_bank(rng.normal(0, 1, (5000, 64)))
    inputs = ScoreInputs(None, rng.normal(0, 1, (5000, 64)))
    tracemalloc.start()
    try:
        METHODS["knn"].score_batch(inputs, (bank, default_k(bank.size)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_500_000


def _mds_both(queries, features, labels):
    stats = fit_gaussian_stats(features, labels)
    inputs = ScoreInputs(None, np.asarray(queries, dtype=np.float64))
    got = METHODS["mds"].score_batch(inputs, stats)
    want = np.array([mahalanobis(q, stats) for q in inputs.features])
    return got, want


def test_batched_mahalanobis_ties():
    # classes mirrored through the origin: the origin and every point on the
    # mirror plane are equally far from two class means
    rng = np.random.default_rng(33)
    half = rng.normal(2.0, 1.0, (30, 4))
    features = np.vstack([half, -half, half * [1, 1, -1, 1]])
    labels = np.repeat([0, 1, 2], 30)
    on_plane = rng.normal(0, 1, (10, 4)) * [1, 1, 0, 1]
    queries = np.vstack([np.zeros(4), features[:5], on_plane])
    got, want = _mds_both(queries, features, labels)
    assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), n_classes=st.integers(1, 4), dim=st.integers(1, 5))
def test_batched_mahalanobis_is_exact(seed, n_classes, dim):
    rng = np.random.default_rng(seed)
    labels = np.arange(4 * n_classes + 3 * dim) % n_classes
    means = rng.normal(0, 2, (n_classes, dim))
    features = rng.normal(0, 1, (labels.size, dim)) + means[labels]
    queries = np.vstack([features[:4], rng.normal(0, 3, (6, dim))])
    got, want = _mds_both(queries, features, labels)
    if dim == 2:
        # numpy's einsum sums 2-d quadratic forms in an order that depends
        # on how many rows it is given, so the per-row reference itself
        # would change in the last bit
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    else:
        assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    n_bank=st.integers(1, 12),
    dim=st.integers(1, 6),
    quantize=st.booleans(),
)
def test_batched_knn_is_exact(seed, n_bank, dim, quantize):
    rng = np.random.default_rng(seed)
    bank = rng.normal(0, 1, (n_bank, dim))
    queries = np.vstack([bank, rng.normal(0, 1, (6, dim))])
    if quantize:  # small integer vectors: many exact ties and duplicates
        bank, queries = np.round(bank), np.round(queries)
        bank[~bank.any(axis=1)] = 1.0
        queries[~queries.any(axis=1)] = -1.0
    k = int(rng.integers(1, n_bank + 1))
    got, want = _knn_both(queries, bank, k)
    assert np.array_equal(got, want)
