import numpy as np
import pytest

from crossmodal.errors import DataError
from crossmodal.model import (
    CooccurrencePair,
    CorpusExample,
    Hyperparameters,
    KernelSpec,
    TrainedModel,
    stack_features,
    unseen_scores,
)
from crossmodal.solver import TrainData, train
from crossmodal.synth import SynthConfig, generate
from crossmodal.zeroshot import ZeroShotDataset, filter_pairs, train_zeroshot
from oracle_utils import one_vs_rest_texts, score_unseen


def tagged_pairs(rng, tags, p=3, q=2):
    return [
        CooccurrencePair(rng.standard_normal(p), rng.standard_normal(q), class_id=t)
        for t in tags
    ]


class TestFilterPairs:
    def test_empty_unseen_keeps_all(self):
        rng = np.random.default_rng(0)
        pairs = tagged_pairs(rng, ["a", "b", "a"])
        assert filter_pairs(pairs, frozenset()) == pairs

    def test_all_unseen_drops_all(self):
        rng = np.random.default_rng(1)
        pairs = tagged_pairs(rng, ["a", "b"])
        assert filter_pairs(pairs, {"a", "b"}) == []

    def test_order_preserved(self):
        rng = np.random.default_rng(2)
        tags = ["a", "u", "b", "u", "a", "u", "b", "a", "b", "a"]
        pairs = tagged_pairs(rng, tags)
        kept = filter_pairs(pairs, {"u"})
        assert len(kept) == 7
        assert kept == [p for p in pairs if p.class_id != "u"]

    def test_untagged_pair_rejected(self):
        pairs = [CooccurrencePair(np.ones(2), np.ones(2))]
        with pytest.raises(DataError):
            filter_pairs(pairs, {"a"})


class TestDatasetValidation:
    def test_unseen_train_image_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(DataError, match="unseen"):
            ZeroShotDataset(
                unseen_classes=frozenset({"u"}),
                source_texts=[],
                train_images=[CorpusExample("i0", rng.standard_normal(2), "u")],
            )

    @pytest.mark.parametrize("label", [1, None])
    def test_image_without_class_rejected(self, label):
        texts = [CorpusExample("t0", np.ones(3), "a")]
        with pytest.raises(DataError, match="training image 'i0'"):
            ZeroShotDataset(frozenset({"u"}), texts, [CorpusExample("i0", np.ones(2), label)])

    def test_seen_classes_from_labels(self):
        texts = [CorpusExample(f"t{k}", np.ones(3), c) for k, c in enumerate("abu")]
        images = [CorpusExample("i0", np.ones(2), "c")]
        zds = ZeroShotDataset(frozenset({"u", "v"}), texts, images)
        assert zds.seen_classes == {"a", "b", "c"}

    def test_no_seen_classes_rejected(self):
        with pytest.raises(DataError):
            ZeroShotDataset(frozenset({"u"}), [], [])


def multiclass_split(seed=0, unseen_cls="c0", **kw):
    cfg = SynthConfig(
        classes=5, n_texts=120, m_images=60, l_pairs=400, n_test=150, seed=seed, **kw
    )
    ds = generate(cfg)
    unseen = frozenset({unseen_cls})
    zds = ZeroShotDataset(
        unseen_classes=unseen,
        source_texts=ds.texts,
        train_images=[i for i in ds.images if i.label not in unseen],
        pairs=ds.pairs,
    )
    return ds, zds


class TestTrainZeroshot:
    def test_zero_weights_give_zero_matrix(self):
        _, zds = multiclass_split()
        hyper = Hyperparameters(gamma=0.0, lam=0.0, max_iter=5)
        model, report = train_zeroshot(zds, hyper)
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
        zds = ZeroShotDataset(
            unseen_classes=frozenset({"u"}),
            source_texts=texts,
            train_images=[],
            pairs=pairs,
        )
        hyper = Hyperparameters(gamma=0.5, lam=1.0, max_iter=30, tol=1e-10)
        zs_model, zs_report = train_zeroshot(zds, hyper)

        binary = TrainData(
            source_texts=[CorpusExample(t.id, t.features, 1) for t in texts],
            train_images=[],
            pairs=pairs,
        )
        ref_model, ref_report = train(binary, hyper)
        np.testing.assert_allclose(zs_model.S, ref_model.S)
        assert zs_report.objective_trace == ref_report.objective_trace

    def test_unseen_texts_do_not_affect_training(self):
        _, zds = multiclass_split()
        hyper = Hyperparameters(gamma=0.5, lam=1.0, max_iter=20, tol=1e-10)
        _, with_unseen = train_zeroshot(zds, hyper)
        stripped = ZeroShotDataset(
            unseen_classes=zds.unseen_classes,
            source_texts=[t for t in zds.source_texts if t.label != "c0"],
            train_images=zds.train_images,
            pairs=zds.pairs,
        )
        _, without_unseen = train_zeroshot(stripped, hyper)
        assert with_unseen.objective_trace == without_unseen.objective_trace

    def test_normalized_model_ignores_text_scale(self):
        # With normalize, the stored texts are the normalized ones the shared S
        # was fitted on, so unseen scores do not depend on the texts' scale.
        ds, zds = multiclass_split(seed=2)
        hyper = Hyperparameters(gamma=0.5, lam=1.0, max_iter=20, normalize=True)
        model, _ = train_zeroshot(zds, hyper)
        scaled = ZeroShotDataset(
            unseen_classes=zds.unseen_classes,
            source_texts=[CorpusExample(t.id, 3.0 * t.features, t.label)
                          for t in zds.source_texts],
            train_images=zds.train_images,
            pairs=[CooccurrencePair(3.0 * c.text_features, c.image_features, c.class_id)
                   for c in zds.pairs],
        )
        scaled_model, _ = train_zeroshot(scaled, hyper)
        Z = stack_features(ds.test_images, ds.config.q, "test image")
        np.testing.assert_allclose(
            unseen_scores(scaled_model, Z, ["c0"]), unseen_scores(model, Z, ["c0"]),
            rtol=1e-12, atol=1e-12,
        )
        norms = np.linalg.norm(stack_features(model.source_texts, ds.config.p, "text"), axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-12)

    def test_no_seen_texts_and_no_pairs_rejected(self):
        rng = np.random.default_rng(6)
        zds = ZeroShotDataset(
            unseen_classes=frozenset({"u"}),
            source_texts=[CorpusExample("t0", rng.standard_normal(3), "u")],
            train_images=[CorpusExample("i0", rng.standard_normal(2), "a")],
        )
        with pytest.raises(DataError, match="text dimension"):
            train_zeroshot(zds, Hyperparameters(max_iter=5))

    def test_no_images_and_no_pairs_rejected(self):
        rng = np.random.default_rng(7)
        zds = ZeroShotDataset(
            unseen_classes=frozenset({"u"}),
            source_texts=[CorpusExample("t0", rng.standard_normal(3), "a")],
            train_images=[],
        )
        with pytest.raises(DataError, match="image dimension"):
            train_zeroshot(zds, Hyperparameters(max_iter=5))

    def test_unseen_class_ranking_beats_chance(self):
        from crossmodal.evaluation import auc

        ds, zds = multiclass_split(seed=7)
        hyper = Hyperparameters(gamma=0.5, lam=1.0, max_iter=80, tol=1e-7)
        model, _ = train_zeroshot(zds, hyper)
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
