import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossmodal import evaluation
from crossmodal.errors import DataError
from crossmodal.evaluation import (
    DEFAULT_GRID,
    auc,
    average_precision,
    binary_report,
    crossval_select,
    error_rate,
    evaluate_model,
    mean_ap,
    zeroshot_report,
)
from crossmodal.model import CorpusExample, Hyperparameters, KernelSpec
from crossmodal.model import scores
from crossmodal.solver import TrainData, train
from crossmodal.synth import SynthConfig, generate
from oracle_utils import (
    brute_force_auc,
    brute_force_average_precision,
    reference_crossval_select,
    reference_generate,
)


class TestErrorRate:
    def test_identical(self):
        assert error_rate([1, -1, 1], [1, -1, 1]) == 0.0

    def test_fully_flipped(self):
        assert error_rate([1, -1], [-1, 1]) == 1.0

    def test_half(self):
        assert error_rate([1, 1, -1, -1], [1, -1, -1, 1]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            error_rate([], [])

    def test_negation_symmetric(self):
        rng = np.random.default_rng(0)
        pred = rng.choice([-1, 1], 20)
        truth = rng.choice([-1, 1], 20)
        assert error_rate(pred, truth) == error_rate(-pred, -truth)


class TestAveragePrecision:
    def test_positives_first(self):
        assert average_precision([0.9, 0.8, 0.1], [1, 1, -1]) == 1.0

    def test_mixed_example(self):
        got = average_precision([0.9, 0.8, 0.7], [1, -1, 1])
        assert got == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)

    def test_single_positive_last(self):
        k = 7
        scores = list(range(k, 0, -1))
        truth = [-1] * (k - 1) + [1]
        assert average_precision(scores, truth) == pytest.approx(1.0 / k)

    def test_no_positive_rejected(self):
        with pytest.raises(DataError):
            average_precision([0.5], [-1])

    def test_tie_stability(self):
        # equal scores keep input order
        got = average_precision([0.5, 0.5, 0.5], [-1, 1, -1])
        assert got == pytest.approx(1.0 / 2.0)


class TestAuc:
    def test_perfect_separation(self):
        assert auc([3.0, 2.0, 0.5], [1, 1, -1]) == 1.0

    def test_all_ties(self):
        assert auc([1.0, 1.0, 1.0, 1.0], [1, -1, 1, -1]) == 0.5

    def test_enumerated_pairs(self):
        assert auc([3.0, 2.0, 1.0], [1, -1, 1]) == pytest.approx(0.5)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            auc([1.0, 2.0], [1, 1])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-320, 320).map(lambda k: k / 64.0), min_size=2, max_size=10),
        st.data(),
    )
    def test_monotone_transform_invariant(self, scores, data):
        n = len(scores)
        truth = data.draw(
            st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)
        )
        if 1 not in truth or -1 not in truth:
            return
        # exact in floating point, so ties are preserved exactly too
        transformed = [8.0 * s + 16.0 for s in scores]
        assert auc(transformed, truth) == pytest.approx(auc(scores, truth))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-3, 3).map(float), min_size=2, max_size=60),
        st.data(),
    )
    def test_heavy_ties_match_pair_count_exactly(self, scores, data):
        # Average ranks are exact halves, so the rank sum and the pair count
        # give the same float.
        truth = data.draw(st.lists(
            st.sampled_from([-1, 1]), min_size=len(scores), max_size=len(scores)
        ))
        if 1 not in truth or -1 not in truth:
            return
        assert auc(scores, truth) == brute_force_auc(scores, truth)

    def test_nan_score_rejected(self):
        with pytest.raises(DataError, match="NaN"):
            auc([0.5, np.nan, 0.1], [1, -1, -1])


class TestBruteForceOracles:
    def test_all_labelings_up_to_8_items(self):
        rng = np.random.default_rng(1)
        for n in range(1, 9):
            scores = list(np.round(rng.uniform(-1, 1, n), 2))
            for labels in itertools.product([-1, 1], repeat=n):
                if 1 in labels:
                    assert average_precision(scores, labels) == pytest.approx(
                        brute_force_average_precision(scores, labels), abs=1e-12
                    )
                if 1 in labels and -1 in labels:
                    assert auc(scores, labels) == pytest.approx(
                        brute_force_auc(scores, labels), abs=1e-12
                    )


class TestMeanAp:
    def test_singleton(self):
        assert mean_ap([0.7]) == 0.7

    def test_pair(self):
        assert mean_ap([1.0, 0.0]) == 0.5

    def test_permutation_invariant(self):
        vals = [0.2, 0.9, 0.5]
        assert mean_ap(vals) == mean_ap(vals[::-1])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            mean_ap([])


class TestBinaryReport:
    def test_matches_evaluate_model(self):
        ds = generate(SynthConfig(p=6, q=5, r_true=2, n_texts=30, m_images=12, l_pairs=40,
                                  n_test=20, seed=11))
        model, _ = train(TrainData(ds.texts, ds.images, ds.pairs), Hyperparameters(max_iter=20))
        s = scores(model, np.stack([e.features for e in ds.test_images]))
        truth = [e.label for e in ds.test_images]
        want = evaluate_model(model, ds.test_images)
        got = binary_report(s, np.where(s > 0, 1, -1), truth)
        assert (got.error_rate, got.ap, got.auc) == (want.error_rate, want.ap, want.auc)
        assert got.as_text() == want.as_text()
        assert (got.error_rate, got.ap, got.auc) == (
            error_rate(np.where(s > 0, 1, -1), truth), average_precision(s, truth), auc(s, truth))


class TestZeroshotReport:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_brute_force_per_column(self, data):
        # Every class labels at least one image, and c9 is not scored. Scores
        # lie on a coarse grid, so ties within a column and across a row are
        # common; the order of `classes` is shuffled.
        extra = data.draw(st.lists(st.sampled_from(["c0", "c1", "c2", "c9"]), max_size=6))
        truth = data.draw(st.permutations(["c0", "c1", "c2"] + extra))
        classes = data.draw(st.permutations(["c0", "c1", "c2"]))
        table = np.array(data.draw(st.lists(
            st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0]), min_size=3, max_size=3),
            min_size=len(truth), max_size=len(truth))))
        ordered = sorted(classes)
        report = zeroshot_report(table, classes, truth)
        aucs, aps = [], []
        for c in ordered:
            col = list(table[:, classes.index(c)])
            y = [1 if t == c else -1 for t in truth]
            aucs.append(brute_force_auc(col, y))
            aps.append(brute_force_average_precision(col, y))
            assert report.per_class[f"auc_{c}"] == pytest.approx(aucs[-1], abs=1e-12)
            assert report.per_class[f"ap_{c}"] == pytest.approx(aps[-1], abs=1e-12)
        assert report.auc == pytest.approx(np.mean(aucs), abs=1e-12)
        assert report.ap == pytest.approx(np.mean(aps), abs=1e-12)
        # The hard prediction: highest score, ties to the first class in sorted
        # order; only images of a scored class count.
        wrong = scored = 0
        for row, t in zip(table, truth):
            if t in ordered:
                scored += 1
                by_class = {c: row[classes.index(c)] for c in ordered}
                wrong += max(ordered, key=lambda c: by_class[c]) != t
        assert report.error_rate == wrong / scored

    def test_tie_goes_to_first_sorted_class(self):
        # Columns given in reverse order; every row ties.
        table = np.array([[0.5, 0.5], [0.1, 0.1], [-1.0, -1.0]])
        report = zeroshot_report(table, ["c1", "c0"], ["c0", "c1", "c0"])
        assert report.error_rate == 1 / 3
        assert sorted(report.per_class) == ["ap_c0", "ap_c1", "auc_c0", "auc_c1"]

    def test_unseen_scores_table(self):
        mc = generate(SynthConfig(p=6, q=5, r_true=2, classes=3, n_texts=45, m_images=24,
                                  l_pairs=60, n_test=30, seed=3))
        truth = [e.label for e in mc.test_images]
        table = np.array([[1.0 if t == c else 0.0 for c in ("c2", "c1")] for t in truth])
        report = zeroshot_report(table, ("c2", "c1"), truth)
        assert (report.error_rate, report.ap, report.auc) == (0.0, 1.0, 1.0)

    def test_class_without_image_rejected(self):
        with pytest.raises(DataError, match="AUC needs at least one positive"):
            zeroshot_report(np.zeros((2, 2)), ["c0", "c1"], ["c0", "c0"])

    def test_no_scored_image_rejected(self):
        with pytest.raises(DataError, match="no predicted image is of a scored class"):
            zeroshot_report(np.zeros((2, 1)), ["c1"], ["c0", "c0"])

    @pytest.mark.parametrize("shape, classes", [((3, 2), ["c0"]), ((2, 1), ["c0"]),
                                                ((3, 2), ["c0", "c0"])])
    def test_table_must_fit_images_and_classes(self, shape, classes):
        with pytest.raises(DataError, match="score table of shape"):
            zeroshot_report(np.zeros(shape), classes, ["c0", "c1", "c0"])


# The perfbench workload configs, the default, and the edge cases of the
# block generator: no noise, empty corpora and a third class.
_GENERATOR_CONFIGS = [
    dict(p=100, q=80, r_true=8, n_texts=500, m_images=150, l_pairs=5000, n_test=500),
    dict(n_test=1000),
    dict(p=60, q=50, n_texts=1000, m_images=400, l_pairs=5000, n_test=4000, classes=5),
    dict(),
    dict(noise_sigma=0.0),
    dict(n_texts=0, l_pairs=0),
    dict(m_images=0, n_test=0),
    dict(classes=3),
]


class TestSynth:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("config", _GENERATOR_CONFIGS)
    def test_matches_per_example_generator_bytes(self, config, seed):
        cfg = SynthConfig(**config, seed=seed)
        ds, ref = generate(cfg), reference_generate(cfg)
        assert ds.class_ids == ref.class_ids
        for group in ("texts", "images", "test_images"):
            got, want = getattr(ds, group), getattr(ref, group)
            assert [(e.id, e.label, type(e.label)) for e in got] == \
                [(e.id, e.label, type(e.label)) for e in want]
            assert [e.features.tobytes() for e in got] == [e.features.tobytes() for e in want]
        assert [p.class_id for p in ds.pairs] == [p.class_id for p in ref.pairs]
        for side in ("text_features", "image_features"):
            assert [getattr(p, side).tobytes() for p in ds.pairs] == \
                [getattr(p, side).tobytes() for p in ref.pairs]

    @pytest.mark.parametrize("seed", range(9))
    def test_five_class_config_draws_on_every_seed(self, seed):
        # Seeds 1 and 8 reach no 70% share of argmax wins in any redraw of the
        # class weights; the draw whose least-won class won most is kept.
        ds = generate(SynthConfig(p=8, q=6, r_true=2, classes=5, n_texts=60, m_images=30,
                                  l_pairs=120, n_test=40, seed=seed))
        for group in (ds.texts, ds.images, ds.test_images):
            counts = [sum(e.label == c for e in group) for c in ds.class_ids]
            assert min(counts) >= 0.5 * len(group) / 5

    def test_deterministic(self):
        a = generate(SynthConfig(seed=5, n_texts=20, m_images=10, l_pairs=15, n_test=5))
        b = generate(SynthConfig(seed=5, n_texts=20, m_images=10, l_pairs=15, n_test=5))
        for ea, eb in zip(a.texts + a.images + a.test_images, b.texts + b.images + b.test_images):
            assert ea.id == eb.id and ea.label == eb.label
            np.testing.assert_array_equal(ea.features, eb.features)
        for pa, pb in zip(a.pairs, b.pairs):
            np.testing.assert_array_equal(pa.text_features, pb.text_features)
            np.testing.assert_array_equal(pa.image_features, pb.image_features)

    def test_noiseless_pair_shares_latent(self):
        cfg = SynthConfig(
            seed=2, noise_sigma=0.0, l_pairs=1, n_texts=4, m_images=4, n_test=2
        )
        ds = generate(cfg)
        pair = ds.pairs[0]
        # one latent h must reproduce both sides exactly
        rng = np.random.default_rng(cfg.seed)
        A = rng.standard_normal((cfg.p, cfg.r_true)) / np.sqrt(cfg.p * cfg.r_true)
        B = rng.standard_normal((cfg.q, cfg.r_true)) / np.sqrt(cfg.q * cfg.r_true)
        stacked_map = np.vstack([A, B])
        stacked_obs = np.concatenate([pair.text_features, pair.image_features])
        h, *_ = np.linalg.lstsq(stacked_map, stacked_obs, rcond=None)
        residual = np.linalg.norm(stacked_map @ h - stacked_obs)
        assert residual < 1e-8

    def test_binary_labels_balanced(self):
        ds = generate(SynthConfig(seed=3, n_texts=100, m_images=40, l_pairs=10, n_test=60))
        for group in (ds.texts, ds.images, ds.test_images):
            labels = [e.label for e in group]
            assert set(labels) <= {-1, 1}
            pos = labels.count(1)
            assert abs(pos - len(labels) / 2) <= 0.05 * len(labels)

    def test_multiclass_tags(self):
        ds = generate(
            SynthConfig(seed=4, classes=3, n_texts=60, m_images=30, l_pairs=40, n_test=30)
        )
        assert ds.class_ids == ["c0", "c1", "c2"]
        assert {e.label for e in ds.texts} <= set(ds.class_ids)
        assert all(p.class_id in ds.class_ids for p in ds.pairs)


class TestCrossval:
    def small_data(self, seed=0):
        ds = generate(
            SynthConfig(seed=seed, n_texts=30, m_images=12, l_pairs=40, n_test=10)
        )
        return TrainData(ds.texts, ds.images, ds.pairs)

    def base(self):
        return Hyperparameters(max_iter=15, tol=1e-5, kernel=KernelSpec(bandwidth=1.0))

    def test_grid_size(self):
        assert (
            len(DEFAULT_GRID["lam"]) * len(DEFAULT_GRID["gamma"]) * len(DEFAULT_GRID["C"])
            == 64
        )
        assert DEFAULT_GRID["lam"] == (0.0, 0.5, 1.0, 2.0)
        assert DEFAULT_GRID["gamma"] == (0.1, 0.5, 1.0, 2.0)
        assert DEFAULT_GRID["C"] == (1.0, 2.0, 5.0, 10.0)

    def test_singleton_grid(self):
        grid = {"lam": (0.5,), "gamma": (1.0,), "C": (2.0,)}
        best = crossval_select(self.small_data(), base=self.base(), grid=grid)
        assert (best.lam, best.gamma, best.C) == (0.5, 1.0, 2.0)

    def test_deterministic_selection(self):
        grid = {"lam": (0.0, 1.0), "gamma": (0.5,), "C": (1.0, 5.0)}
        a = crossval_select(self.small_data(), base=self.base(), grid=grid, seed=3)
        b = crossval_select(self.small_data(), base=self.base(), grid=grid, seed=3)
        assert (a.lam, a.gamma, a.C) == (b.lam, b.gamma, b.C)

    def test_insufficient_data_rejected(self):
        with pytest.raises(DataError):
            crossval_select(TrainData(), base=self.base())

    def test_empty_grid_rejected(self):
        grid = {"lam": (), "gamma": (1.0,), "C": (1.0,)}
        with pytest.raises(DataError, match="empty hyperparameter grid"):
            crossval_select(self.small_data(), base=self.base(), grid=grid)

    def test_fit_at_a_repeated_C_runs_once(self, monkeypatch):
        fits = _count_fits(monkeypatch)
        grid = {"lam": (0.5,), "gamma": (1.0,), "C": (2.0, 2.0)}
        crossval_select(self.small_data(), base=self.base(), grid=grid)
        assert fits == [2.0, 2.0]

    def test_fits_at_C_above_the_peak_are_shared(self, monkeypatch):
        # Both C values lie above every alpha this small problem proposes, so
        # one fit per fold answers both grid points.
        fits = _count_fits(monkeypatch)
        grid = {"lam": (0.5,), "gamma": (1.0,), "C": (100.0, 200.0)}
        crossval_select(self.small_data(), base=self.base(), grid=grid)
        assert fits == [100.0, 100.0]

    @pytest.mark.parametrize("C", [(100.0, 1e-3), (1e-3, 100.0)])
    def test_fits_at_C_below_the_peak_are_run(self, monkeypatch, C):
        # A fit at C = 1e-3 clips alpha probes that one at C = 100 does not,
        # whichever is fitted first.
        fits = _count_fits(monkeypatch)
        grid = {"lam": (0.5,), "gamma": (1.0,), "C": C}
        crossval_select(self.small_data(), base=self.base(), grid=grid)
        assert fits[:2] == [C[0], C[0]] and C[1] in fits

    def test_empty_fold_named(self):
        # One image per label: stratification puts both in the first fold.
        images = [CorpusExample("i0", np.array([1.0]), 1), CorpusExample("i1", np.array([-1.0]), -1)]
        with pytest.raises(DataError, match="second cross-validation fold is empty"):
            crossval_select(TrainData(train_images=images), base=self.base())


def _count_fits(monkeypatch) -> list:
    """The C of every fit crossval_select runs from here on."""
    fits = []
    original = evaluation.train

    def counted(data, hyper):
        fits.append(hyper.C)
        return original(data, hyper)

    monkeypatch.setattr(evaluation, "train", counted)
    return fits


class TestCrossvalMatchesFullGrid:
    """crossval_select skips fits whose error a fit already run gives, or
    whose error cannot change the selection; it must pick what fitting every
    grid point on both folds picks."""

    GRIDS = {
        "unsorted_and_duplicate_C": {"lam": (1.0, 0.5), "gamma": (1.0, 0.1),
                                     "C": (5.0, 1.0, 5.0, 0.05)},
        # Fits on this data at C = 100 report alpha peaks of 0.03 to 0.6.
        "C_both_sides_of_peaks": {"lam": (0.0, 1.0), "gamma": (0.5, 2.0),
                                  "C": (0.01, 0.1, 0.3, 1.0, 10.0)},
        "C_descending": {"lam": (1.0,), "gamma": (0.5, 1.0), "C": (10.0, 0.3, 0.1, 0.01)},
        "lam_zero_tiny_gamma": {"lam": (0.0,), "gamma": (1e-6, 1.0), "C": (0.2, 2.0)},
        "single_point": {"lam": (0.5,), "gamma": (1.0,), "C": (0.3,)},
        # With gamma = 0 the alpha gradient is zero: every probe proposes 0.
        "alpha_still": {"lam": (0.5, 1.0), "gamma": (0.0,), "C": (0.5, 3.0)},
    }

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", GRIDS)
    def test_same_selection(self, name, seed):
        ds = generate(SynthConfig(seed=seed, n_texts=30, m_images=12, l_pairs=40, n_test=1))
        data = TrainData(ds.texts, ds.images, ds.pairs)
        base = Hyperparameters(max_iter=15, tol=1e-5, kernel=KernelSpec(bandwidth=1.0))
        grid = self.GRIDS[name]
        got = crossval_select(data, base=base, grid=grid, seed=seed)
        assert got == reference_crossval_select(data, base, grid, seed)
