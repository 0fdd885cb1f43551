import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crossmodal.model as model_module
from crossmodal import linalg
from crossmodal.errors import DataError, NumericalError
from crossmodal.model import (
    CorpusExample,
    Hyperparameters,
    KernelSpec,
    TrainedModel,
    kernel_matrix,
    median_bandwidth,
    ovr_labels,
    scores,
    signs,
    stack_features,
    unseen_scores,
)
from crossmodal.solver import TrainData, train
from crossmodal.synth import SynthConfig, generate
from oracle_utils import (
    discriminant,
    f_inter,
    f_intra,
    kernel_eval,
    l2_normalize,
    one_vs_rest_texts,
    predict_label,
    reference_median_bandwidth,
    reference_ovr_labels,
    score_unseen,
    transfer_score,
)


def make_model(S, alpha, texts, images, kernel=None, normalize=False):
    kernel = kernel or KernelSpec(bandwidth=1.0)
    return TrainedModel(
        S=S,
        alpha=np.asarray(alpha, float),
        source_texts=texts,
        train_images=images,
        kernel=kernel,
        hyper=Hyperparameters(kernel=kernel, normalize=normalize),
    )


def labels(s):
    return np.where(s > 0, 1, -1)


def close_to_oracle(batched, oracle, rtol=1e-12):
    """Relative agreement, with a unit floor for scores that cancel to ~0."""
    oracle = np.asarray(oracle, dtype=float)
    return bool(np.all(np.abs(batched - oracle) <= rtol * np.maximum(1.0, np.abs(oracle))))


class TestTransferScore:
    def test_zero_text(self):
        S = np.ones((2, 3))
        assert transfer_score(np.zeros(2), S, np.ones(3)) == 0.0

    def test_zero_matrix(self):
        assert transfer_score(np.ones(2), np.zeros((2, 3)), np.ones(3)) == 0.0

    def test_unit_alignment(self):
        S = np.array([[1.0, 0.0], [0.0, 0.0]])
        got = transfer_score(np.array([1.0, 0.0]), S, np.array([1.0, 0.0]))
        assert got == pytest.approx(math.tanh(1.0), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            transfer_score(np.ones(3), np.zeros((2, 2)), np.ones(2))

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_strictly_inside_unit_interval(self, a, b):
        S = np.array([[a]])
        got = transfer_score(np.array([b]), S, np.array([1.0]))
        assert -1.0 < got < 1.0


class TestFInter:
    def test_empty_corpus(self):
        assert f_inter(np.ones((2, 2)), [], np.ones(2)) == 0.0

    def test_zero_matrix(self):
        texts = [CorpusExample("t0", np.ones(2), 1)]
        assert f_inter(np.zeros((2, 2)), texts, np.ones(2)) == 0.0

    def test_label_cancellation(self):
        x = np.array([0.3, -0.7])
        texts = [CorpusExample("a", x, 1), CorpusExample("b", x, -1)]
        rng = np.random.default_rng(0)
        S = rng.standard_normal((2, 3))
        assert f_inter(S, texts, rng.standard_normal(3)) == pytest.approx(0.0, abs=1e-15)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        texts = [
            CorpusExample(f"t{i}", rng.standard_normal(3), 1 if i % 2 else -1)
            for i in range(6)
        ]
        S = rng.standard_normal((3, 4))
        z = rng.standard_normal(4)
        forward = f_inter(S, texts, z)
        backward = f_inter(S, texts[::-1], z)
        assert forward == pytest.approx(backward, rel=1e-12)

    def test_bounded_by_corpus_size(self):
        rng = np.random.default_rng(2)
        texts = [CorpusExample(f"t{i}", rng.standard_normal(3) * 10, 1) for i in range(5)]
        S = rng.standard_normal((3, 3)) * 10
        assert abs(f_inter(S, texts, rng.standard_normal(3))) < 5


class TestKernel:
    def test_gaussian_same_point(self):
        k = KernelSpec(bandwidth=2.0)
        z = np.array([1.0, 2.0])
        assert kernel_eval(k, z, z) == 1.0

    def test_gaussian_known_distance(self):
        k = KernelSpec(bandwidth=1.0)
        z1 = np.array([0.0, 0.0])
        z2 = np.array([math.sqrt(2.0), 0.0])  # squared distance = 2 * bandwidth^2
        assert kernel_eval(k, z1, z2) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_linear(self):
        k = KernelSpec(kind="linear")
        assert kernel_eval(k, np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0

    def test_symmetric(self):
        k = KernelSpec(bandwidth=0.7)
        rng = np.random.default_rng(3)
        z1, z2 = rng.standard_normal(4), rng.standard_normal(4)
        assert kernel_eval(k, z1, z2) == pytest.approx(kernel_eval(k, z2, z1))

    def test_gaussian_gram_psd(self):
        rng = np.random.default_rng(4)
        k = KernelSpec(bandwidth=1.3)
        for _ in range(5):
            Z = rng.standard_normal((10, 3))
            G = kernel_matrix(k, Z, Z)
            assert np.min(np.linalg.eigvalsh(G)) >= -1e-8

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            KernelSpec(bandwidth=-1.0)


class TestMedianBandwidth:
    def test_two_points(self):
        assert median_bandwidth([np.array([0.0]), np.array([2.0])]) == 2.0

    def test_three_collinear(self):
        pts = [np.array([0.0]), np.array([1.0]), np.array([2.0])]
        assert median_bandwidth(pts) == 1.0  # distances {1, 1, 2}

    def test_identical_points_error(self):
        with pytest.raises(ValueError, match="bandwidth"):
            median_bandwidth([np.ones(2)] * 4)

    def test_subsampled_large_set(self):
        # 300 points have 44850 pairs, above the 10000 the heuristic samples
        rng = np.random.default_rng(5)
        Z = rng.standard_normal((300, 2))
        i, j = np.triu_indices(300, k=1)
        exhaustive = float(np.median(np.linalg.norm(Z[i] - Z[j], axis=1)))
        bw = median_bandwidth(Z)
        assert bw != exhaustive
        # subsampled estimate stays near the exhaustive median
        assert abs(bw - exhaustive) < 0.3


def _bandwidth_outcome(bandwidth, Z):
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # the scales that overflow
            return bandwidth(Z)
    except (DataError, NumericalError, ValueError) as exc:
        return type(exc), str(exc)


class TestBlockedBandwidthMatchesOneShot:
    """The pair distances, taken a block at a time, give the bit-identical
    median of one (pairs, q) difference array, on both sides of
    `_BANDWIDTH_MAX_PAIRS`."""

    # 141 images have 9870 pairs, all used; 142 have 10011, subsampled.
    @settings(max_examples=60, deadline=None)
    @given(n=st.one_of(st.sampled_from([2, 45, 46, 141, 142]), st.integers(2, 220)),
           q=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-300, 1e-160, 1.0, 1e150, 1e300]),
           repeats=st.booleans())
    @example(n=141, q=3, seed=0, scale=1.0, repeats=False)
    @example(n=142, q=3, seed=0, scale=1.0, repeats=False)
    def test_same_median(self, n, q, seed, scale, repeats):
        rng = np.random.default_rng(seed)
        Z = rng.standard_normal((n, q)) * scale
        if repeats:  # many zero distances
            Z = Z[rng.integers(0, 2, n)]
        want = _bandwidth_outcome(reference_median_bandwidth, Z)
        got = _bandwidth_outcome(median_bandwidth, Z)
        assert got == want and type(got) is type(want)


class TestSigns:
    def test_binary_labels(self):
        examples = [CorpusExample("a", np.ones(1), 1), CorpusExample("b", np.ones(1), -1)]
        assert signs(examples, "example").tolist() == [1.0, -1.0]

    # A model file writes a label as it is: 1.0 as a class, which read_model
    # refuses, and np.int64(1) not at all.
    @pytest.mark.parametrize("label", ["c0", 0, 7, None, True, 1.0, -1.0, np.int64(1)])
    def test_other_label_names_example(self, label):
        examples = [CorpusExample("a", np.ones(1), 1), CorpusExample("b", np.ones(1), label)]
        with pytest.raises(DataError, match=r"example 'b' has label .*\+1/-1"):
            signs(examples, "example")


class TestOvrLabelsMatchesTheLoop:
    """`ovr_labels` compares object arrays; `reference_ovr_labels` looks each
    label up in a dict. Classes are distinct, as every caller's are."""

    NAMES = ["a", "b", "1", "-1"]

    @settings(max_examples=300, deadline=None)
    @given(
        labels=st.lists(st.one_of(st.sampled_from(NAMES + ["z"]), st.sampled_from([1, -1]),
                                  st.none()), max_size=20),
        classes=st.lists(st.sampled_from(NAMES), unique=True, max_size=4),
    )
    @example(labels=[1, "1", None, -1, "-1"], classes=["1", "-1"])
    def test_equal(self, labels, classes):
        got = ovr_labels(labels, classes)
        assert got.dtype == np.float64 and got.shape == (len(labels), len(classes))
        np.testing.assert_array_equal(got, reference_ovr_labels(labels, classes))

    def test_int_label_is_not_its_string_class(self):
        assert ovr_labels([1, "1", None], ["1"]).tolist() == [[-1.0], [1.0], [-1.0]]


class TestDiscriminant:
    """The package's discriminant is the batched `scores`; an intramodal-only
    model (no texts) scores by f_intra alone."""

    def test_all_zero(self):
        model = make_model(np.zeros((2, 2)), [], [], [])
        s = scores(model, np.ones((1, 2)))
        assert s.tolist() == [0.0]
        assert labels(s).tolist() == [-1]
        assert discriminant(model, np.ones(2)) == 0.0
        assert predict_label(model, np.ones(2)) == -1

    def test_intra_single_support(self):
        z = np.array([0.5, -0.5])
        model = make_model(
            np.zeros((2, 2)), [1.0], [], [CorpusExample("i0", z, 1)]
        )
        assert scores(model, z[None])[0] == pytest.approx(1.0)
        assert f_intra(model, z) == pytest.approx(1.0)

    def test_intra_cancellation(self):
        z = np.array([0.5, -0.5])
        imgs = [CorpusExample("a", z, 1), CorpusExample("b", z, -1)]
        model = make_model(np.zeros((2, 2)), [0.7, 0.7], [], imgs)
        q = np.array([[1.0, 1.0]])
        assert scores(model, q)[0] == pytest.approx(0.0, abs=1e-15)
        assert f_intra(model, q[0]) == pytest.approx(0.0, abs=1e-15)

    def test_intra_zero_alpha(self):
        imgs = [CorpusExample("a", np.ones(2), 1)]
        model = make_model(np.zeros((2, 2)), [0.0], [], imgs)
        assert scores(model, np.zeros((1, 2))).tolist() == [0.0]
        assert f_intra(model, np.zeros(2)) == 0.0

    def test_sum_of_parts(self):
        rng = np.random.default_rng(6)
        texts = [CorpusExample("t", rng.standard_normal(3), 1)]
        imgs = [CorpusExample("i", rng.standard_normal(2), -1)]
        model = make_model(rng.standard_normal((3, 2)), [0.4], texts, imgs)
        z = rng.standard_normal(2)
        total = f_inter(model.S, texts, z) + f_intra(model, z)
        assert discriminant(model, z) == pytest.approx(total)
        assert scores(model, z[None])[0] == pytest.approx(total)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_label_flip_antisymmetry(self, seed):
        rng = np.random.default_rng(seed)
        texts = [
            CorpusExample(f"t{i}", rng.standard_normal(3), int(s))
            for i, s in enumerate(rng.choice([-1, 1], 4))
        ]
        imgs = [
            CorpusExample(f"i{i}", rng.standard_normal(2), int(s))
            for i, s in enumerate(rng.choice([-1, 1], 3))
        ]
        alpha = rng.uniform(0, 1, 3)
        S = rng.standard_normal((3, 2))
        model = make_model(S, alpha, texts, imgs)
        flipped = make_model(
            S,
            alpha,
            [CorpusExample(t.id, t.features, -t.label) for t in texts],
            [CorpusExample(i.id, i.features, -i.label) for i in imgs],
        )
        Z = rng.standard_normal((4, 2))
        np.testing.assert_allclose(scores(flipped, Z), -scores(model, Z), rtol=0, atol=1e-10)
        z = Z[0]
        assert discriminant(flipped, z) == pytest.approx(-discriminant(model, z), abs=1e-10)


def random_model(rng, kind, normalize, n, m, classes=None):
    """Random small model; texts carry class ids when `classes` is given.

    S is (p, q) with p and q drawn from 1..4, so that p < q, p > q and p = q
    all occur, and is the product of random factors of a rank r drawn from
    0..min(p, q), so scoring truncates the SVD of S to r or fewer columns."""
    p, q = (int(d) for d in rng.integers(1, 5, size=2))
    r = int(rng.integers(0, min(p, q) + 1))
    S = rng.standard_normal((p, r)) @ rng.standard_normal((r, q))
    if classes is None:
        text_labels = [int(v) for v in rng.choice([-1, 1], n)]
    else:
        text_labels = [str(v) for v in rng.choice(classes, n)]
    texts = [
        CorpusExample(f"t{i}", rng.standard_normal(p), y) for i, y in enumerate(text_labels)
    ]
    imgs = [
        CorpusExample(f"i{j}", rng.standard_normal(q), int(y))
        for j, y in enumerate(rng.choice([-1, 1], m))
    ]
    kernel = KernelSpec(kind=kind, bandwidth=float(rng.uniform(0.5, 2.0)))
    return make_model(
        S, rng.uniform(0.0, 2.0, m), texts, imgs,
        kernel=kernel, normalize=normalize,
    )


def queries(rng, k, q):
    """k random query rows plus a zero row, which normalization leaves alone."""
    return np.vstack([rng.standard_normal((k, q)) * 3.0, np.zeros((1, q))])


class TestBatchedScores:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["gaussian", "linear"]),
        normalize=st.booleans(),
        n=st.integers(0, 5),
        m=st.integers(0, 5),
        k=st.integers(0, 6),
    )
    @example(seed=0, kind="gaussian", normalize=False, n=0, m=3, k=4)
    @example(seed=1, kind="linear", normalize=True, n=4, m=0, k=4)
    @example(seed=2, kind="gaussian", normalize=True, n=0, m=0, k=2)
    def test_matches_scalar_oracle(self, seed, kind, normalize, n, m, k):
        rng = np.random.default_rng(seed)
        model = random_model(rng, kind, normalize, n, m)
        Z = queries(rng, k, model.S.shape[1])
        batched = scores(model, Z)
        assert batched.shape == (k + 1,)
        assert close_to_oracle(batched, [discriminant(model, z) for z in Z])

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        normalize=st.booleans(),
        n=st.integers(0, 6),
        k=st.integers(0, 5),
    )
    @example(seed=0, normalize=False, n=0, k=3)
    def test_unseen_matches_scalar_oracle(self, seed, normalize, n, k):
        rng = np.random.default_rng(seed)
        classes = ["a", "b", "c"]
        model = random_model(rng, "gaussian", normalize, n, 0, classes=classes)
        Z = queries(rng, k, model.S.shape[1])
        batched = unseen_scores(model, Z, ["c", "a"])
        assert batched.shape == (k + 1, 2)
        for b, cls in enumerate(["c", "a"]):
            texts = one_vs_rest_texts(model.source_texts, cls)
            Zs = [l2_normalize(z) for z in Z] if normalize else Z
            assert close_to_oracle(batched[:, b], [score_unseen(model.S, texts, z) for z in Zs])

    def test_labels_identical_on_synth_seeds(self):
        for seed in range(10):
            cfg = SynthConfig(seed=seed, n_test=100)
            ds = generate(cfg)
            model, _ = train(
                TrainData(ds.texts, ds.images, ds.pairs),
                Hyperparameters(max_iter=15, normalize=seed % 2 == 1),
            )
            Z = stack_features(ds.test_images, cfg.q, "test image")
            oracle = [predict_label(model, z) for z in Z]
            assert labels(scores(model, Z)).tolist() == oracle

    def test_scoring_factors_nothing_and_stacks_no_text(self, monkeypatch):
        # S is factored, the texts embedded and the labels read once, when
        # the model is built.
        rng = np.random.default_rng(3)
        model = random_model(rng, "gaussian", False, 4, 3)
        zs_model = random_model(rng, "gaussian", False, 4, 0, classes=["a", "b"])
        svds, stacked, signed = [], [], []
        monkeypatch.setattr(linalg, "svd", svds.append)
        stack = model_module.stack_features

        def spy(examples, dim, what):
            stacked.append(what)
            return stack(examples, dim, what)

        monkeypatch.setattr(model_module, "stack_features", spy)
        monkeypatch.setattr(model_module, "signs", lambda *args: signed.append(args))
        for _ in range(2):
            scores(model, queries(rng, 3, model.S.shape[1]))
            unseen_scores(zs_model, queries(rng, 3, zs_model.S.shape[1]), ["a"])
        assert svds == [] and "source text" not in stacked and signed == []

    def test_zero_shot_model_refuses_binary_scores(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, "gaussian", False, 3, 0, classes=["a", "b"])
        assert model.text_signs is None
        with pytest.raises(DataError, match=r"^source text 't0' has label '[ab]'; "
                                            r"binary mode needs \+1/-1$"):
            scores(model, queries(rng, 2, model.S.shape[1]))

    def test_model_is_frozen(self):
        model = random_model(np.random.default_rng(4), "linear", False, 2, 2)
        for name, value in (("S", np.zeros_like(model.S)), ("alpha", model.alpha),
                            ("source_texts", []), ("A", None)):
            with pytest.raises(FrozenInstanceError):
                setattr(model, name, value)

    @pytest.mark.parametrize("S, text", [
        # S's largest singular value overflows float64.
        ([[1e308, -1.7e308], [1.5e308, 3.0]], [1.0, 1.0]),
        # Each factor is finite, but a text's embedding overflows.
        ([[1e300, 0.0], [0.0, 1.0]], [1e300, 0.0]),
    ])
    def test_overflowing_votes_refused(self, S, text):
        # The model is still built, as a model file of finite numbers always
        # loads (`TestRoundTripProperties.test_model`), but it refuses to
        # score instead of returning votes that are not finite.
        model = make_model(np.array(S), [], [CorpusExample("t", np.array(text), 1)], [])
        assert model.A is None
        with pytest.raises(NumericalError, match="overflow float64"):
            scores(model, np.ones((1, 2)))

    def test_wrong_query_dimension_rejected(self):
        model = make_model(np.zeros((3, 2)), [], [], [])
        with pytest.raises(DataError, match="expected"):
            scores(model, np.ones((4, 3)))
        with pytest.raises(DataError, match="expected"):
            unseen_scores(model, np.ones(2), ["a"])
