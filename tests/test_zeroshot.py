from dataclasses import replace

import numpy as np
import pytest

from crossmodal.errors import DataError
from crossmodal.model import (
    CooccurrencePair,
    CorpusExample,
    Hyperparameters,
    KernelSpec,
    TrainedModel,
    ovr_labels,
    stack_features,
    unseen_scores,
)
from crossmodal.solver import TrainData, train
from crossmodal.synth import SynthConfig, generate
from crossmodal import zeroshot
from crossmodal.zeroshot import train_zeroshot
from oracle_utils import one_vs_rest_texts, score_unseen


def tagged_pairs(rng, tags, p=3, q=2):
    return [
        CooccurrencePair(rng.standard_normal(p), rng.standard_normal(q), class_id=t)
        for t in tags
    ]


def small_classes_data(seed, pair_tags):
    """Texts of classes a, b and u, images of a and b, pairs tagged `pair_tags`."""
    rng = np.random.default_rng(seed)
    texts = [CorpusExample(f"t{k}", rng.standard_normal(3), c) for k, c in enumerate("abuab")]
    images = [CorpusExample(f"i{k}", rng.standard_normal(2), c) for k, c in enumerate("abab")]
    return TrainData(texts, images, tagged_pairs(rng, pair_tags))


def assert_same_fit(fit, ref):
    (model, report), (ref_model, ref_report) = fit, ref
    assert report.objective_trace == ref_report.objective_trace
    assert np.array_equal(model.S, ref_model.S)


HYPER = Hyperparameters(gamma=0.5, lam=1.0, max_iter=15, tol=1e-10)


class TestFilterPairs:
    """train_zeroshot drops the pairs of unseen classes, in order, and needs a
    class tag on every pair."""

    def test_empty_unseen_keeps_all(self):
        # One class and no unseen ones: binary training on every pair,
        # including those of a class that labels no text or image.
        rng = np.random.default_rng(0)
        texts = [CorpusExample(f"t{i}", rng.standard_normal(3), "a") for i in range(4)]
        pairs = tagged_pairs(rng, ["a", "b", "a"])
        zs = train_zeroshot(TrainData(texts, [], pairs), frozenset(), HYPER)
        binary = TrainData([CorpusExample(t.id, t.features, 1) for t in texts], [], pairs)
        assert_same_fit(zs, train(binary, HYPER))

    def test_all_unseen_drops_all(self):
        data = small_classes_data(1, ["u", "u", "u"])
        assert_same_fit(
            train_zeroshot(data, {"u"}, HYPER),
            train_zeroshot(replace(data, pairs=[]), {"u"}, HYPER),
        )

    def test_order_preserved(self):
        tags = ["a", "u", "b", "u", "a", "u", "b", "a", "b", "a"]
        data = small_classes_data(2, tags)
        kept = [c for c in data.pairs if c.class_id != "u"]
        assert len(kept) == 7
        assert_same_fit(
            train_zeroshot(data, {"u"}, HYPER),
            train_zeroshot(replace(data, pairs=kept), {"u"}, HYPER),
        )

    def test_untagged_pair_rejected(self):
        data = small_classes_data(3, ["a", "b"])
        data.pairs.append(CooccurrencePair(np.ones(3), np.ones(2)))
        with pytest.raises(DataError, match="pair at index 2 has no class tag"):
            train_zeroshot(data, {"u"}, HYPER)


class TestDatasetValidation:
    """What train_zeroshot checks of the classes and the training images."""

    def test_unseen_train_image_dropped(self):
        data = small_classes_data(3, ["a", "u", "b"])
        with_unseen = replace(
            data, train_images=data.train_images + [CorpusExample("iu", np.ones(2), "u")]
        )
        assert_same_fit(
            train_zeroshot(with_unseen, {"u"}, HYPER), train_zeroshot(data, {"u"}, HYPER)
        )

    @pytest.mark.parametrize("label", [1, None])
    def test_image_without_class_rejected(self, label):
        texts = [CorpusExample("t0", np.ones(3), "a"), CorpusExample("t1", np.ones(3), "u")]
        data = TrainData(texts, [CorpusExample("i0", np.ones(2), label)])
        with pytest.raises(DataError, match="training image 'i0'"):
            train_zeroshot(data, {"u"}, HYPER)

    def test_seen_classes_from_labels(self, monkeypatch):
        # The seen classes are those of the texts and images, unseen ones
        # excluded: c labels only an image, and u labels only a text.
        blocks = []

        def recording(examples, classes):
            blocks.append(classes)
            return ovr_labels(examples, classes)

        monkeypatch.setattr(zeroshot, "ovr_labels", recording)
        data = small_classes_data(4, ["a", "b"])
        data.train_images.append(CorpusExample("i4", np.ones(2), "c"))
        train_zeroshot(data, {"u"}, Hyperparameters(max_iter=2))
        assert blocks == [["a", "b", "c"], ["a", "b", "c"]]

    def test_no_seen_classes_rejected(self):
        data = TrainData([CorpusExample("t0", np.ones(3), "u")])
        with pytest.raises(DataError, match="at least one seen class"):
            train_zeroshot(data, {"u"}, HYPER)

    def test_unknown_unseen_class_rejected(self):
        # A class no text labels would be scored with every text voting -1.
        data = small_classes_data(5, ["a", "b"])
        with pytest.raises(DataError, match=r"not present in data: \['zz'\]"):
            train_zeroshot(data, {"u", "zz"}, HYPER)

    def test_unseen_class_without_text_rejected(self):
        # Its images are dropped, so it would be ranked by the -1 votes alone.
        data = small_classes_data(5, ["a", "b"])
        data.train_images.append(CorpusExample("iv", np.ones(2), "v"))
        with pytest.raises(DataError, match=r"unseen classes label no source text: \['v'\]"):
            train_zeroshot(data, {"u", "v"}, HYPER)


def multiclass_split(seed=0, **kw):
    """A 5-class synth set whose class c0 is unseen; its images are left in,
    for train_zeroshot to drop."""
    cfg = SynthConfig(
        classes=5, n_texts=120, m_images=60, l_pairs=400, n_test=150, seed=seed, **kw
    )
    ds = generate(cfg)
    return ds, TrainData(ds.texts, ds.images, ds.pairs)


class TestTrainZeroshot:
    def test_zero_weights_give_zero_matrix(self):
        _, data = multiclass_split()
        hyper = Hyperparameters(gamma=0.0, lam=0.0, max_iter=5)
        model, report = train_zeroshot(data, {"c0"}, hyper)
        np.testing.assert_allclose(model.S, 0.0)
        assert model.alpha.size == 0
        assert report.converged

    def test_single_seen_class_matches_binary_train(self):
        # one seen class degenerates to ordinary binary training without alpha
        rng = np.random.default_rng(4)
        texts = [
            CorpusExample(f"t{i}", rng.standard_normal(3), "a") for i in range(4)
        ]
        pairs = tagged_pairs(rng, ["a"] * 5)
        unseen_text = CorpusExample("tu", np.ones(3), "u")
        hyper = Hyperparameters(gamma=0.5, lam=1.0, max_iter=30, tol=1e-10)
        zs_model, zs_report = train_zeroshot(
            TrainData(texts + [unseen_text], [], pairs), {"u"}, hyper
        )

        binary = TrainData(
            source_texts=[CorpusExample(t.id, t.features, 1) for t in texts],
            train_images=[],
            pairs=pairs,
        )
        ref_model, ref_report = train(binary, hyper)
        np.testing.assert_allclose(zs_model.S, ref_model.S)
        assert zs_report.objective_trace == ref_report.objective_trace

    def test_unseen_texts_do_not_affect_training(self):
        _, data = multiclass_split()
        hyper = Hyperparameters(gamma=0.5, lam=1.0, max_iter=20, tol=1e-10)
        _, with_unseen = train_zeroshot(data, {"c0"}, hyper)
        # The unseen class keeps the one text it needs.
        c0_texts = [t for t in data.source_texts if t.label == "c0"]
        assert len(c0_texts) > 1
        stripped = replace(data, source_texts=[t for t in data.source_texts
                                               if t.label != "c0"] + c0_texts[:1])
        _, without_unseen = train_zeroshot(stripped, {"c0"}, hyper)
        assert with_unseen.objective_trace == without_unseen.objective_trace

    def test_normalized_model_ignores_text_scale(self):
        # With normalize, the stored texts are the normalized ones the shared S
        # was fitted on, so unseen scores do not depend on the texts' scale.
        ds, data = multiclass_split(seed=2)
        hyper = Hyperparameters(gamma=0.5, lam=1.0, max_iter=20, normalize=True)
        model, _ = train_zeroshot(data, {"c0"}, hyper)
        scaled = replace(
            data,
            source_texts=[CorpusExample(t.id, 3.0 * t.features, t.label)
                          for t in data.source_texts],
            pairs=[CooccurrencePair(3.0 * c.text_features, c.image_features, c.class_id)
                   for c in data.pairs],
        )
        scaled_model, _ = train_zeroshot(scaled, {"c0"}, hyper)
        Z = stack_features(ds.test_images, ds.config.q, "test image")
        np.testing.assert_allclose(
            unseen_scores(scaled_model, Z, ["c0"]), unseen_scores(model, Z, ["c0"]),
            rtol=1e-12, atol=1e-12,
        )
        norms = np.linalg.norm(stack_features(model.source_texts, ds.config.p, "text"), axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-12)

    def test_no_seen_texts_and_no_pairs_rejected(self):
        rng = np.random.default_rng(6)
        data = TrainData(
            source_texts=[CorpusExample("t0", rng.standard_normal(3), "u")],
            train_images=[CorpusExample("i0", rng.standard_normal(2), "a")],
        )
        with pytest.raises(DataError, match="text dimension"):
            train_zeroshot(data, {"u"}, Hyperparameters(max_iter=5))

    def test_no_images_and_no_pairs_rejected(self):
        rng = np.random.default_rng(7)
        data = TrainData(
            source_texts=[CorpusExample("t0", rng.standard_normal(3), "a"),
                          CorpusExample("t1", np.ones(3), "u")],
        )
        with pytest.raises(DataError, match="image dimension"):
            train_zeroshot(data, {"u"}, Hyperparameters(max_iter=5))

    def test_unseen_class_ranking_beats_chance(self):
        from crossmodal.evaluation import auc

        ds, data = multiclass_split(seed=7)
        hyper = Hyperparameters(gamma=0.5, lam=1.0, max_iter=80, tol=1e-7)
        model, _ = train_zeroshot(data, {"c0"}, hyper)
        Z = stack_features(ds.test_images, ds.config.q, "test image")
        scores = unseen_scores(model, Z, ["c0"])[:, 0]
        truth = np.array([1 if e.label == "c0" else -1 for e in ds.test_images])
        assert auc(scores, truth) > 0.75


def text_model(S, texts):
    """A zero-shot model: class-tagged source texts and no intramodal term."""
    return TrainedModel(
        S=S, alpha=np.zeros(0), source_texts=texts, train_images=[],
        kernel=KernelSpec(), hyper=Hyperparameters(),
    )


class TestScoreUnseen:
    def test_zero_matrix_scores_zero(self):
        rng = np.random.default_rng(5)
        texts = [CorpusExample("t", rng.standard_normal(3), "a")]
        z = rng.standard_normal(2)
        assert unseen_scores(text_model(np.zeros((3, 2)), texts), z[None], ["a"]).tolist() == [[0.0]]
        assert score_unseen(np.zeros((3, 2)), one_vs_rest_texts(texts, "a"), z) == 0.0

    def test_single_positive_text(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(3)
        S = rng.standard_normal((3, 2))
        z = rng.standard_normal(2)
        texts = [CorpusExample("t", x, "a")]
        got = unseen_scores(text_model(S, texts), z[None], ["a"])[0, 0]
        assert got == pytest.approx(np.tanh(x @ S @ z))
        assert score_unseen(S, one_vs_rest_texts(texts, "a"), z) == pytest.approx(
            np.tanh(x @ S @ z)
        )

    def test_label_flip_antisymmetry(self):
        # With two classes, the one-vs-rest labels of one are the negated
        # labels of the other.
        rng = np.random.default_rng(7)
        base = [
            CorpusExample(f"t{i}", rng.standard_normal(3), "a" if i % 2 else "b")
            for i in range(6)
        ]
        S = rng.standard_normal((3, 2))
        Z = rng.standard_normal((3, 2))
        table = unseen_scores(text_model(S, base), Z, ["a", "b"])
        np.testing.assert_allclose(table[:, 1], -table[:, 0], rtol=1e-12)
        texts = one_vs_rest_texts(base, "a")
        flipped = [CorpusExample(t.id, t.features, -t.label) for t in texts]
        assert score_unseen(S, flipped, Z[0]) == pytest.approx(
            -score_unseen(S, texts, Z[0])
        )
