import math
import pickle
import re
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crossmodal.losses import misalign
from crossmodal.model import (
    CooccurrencePair,
    CorpusExample,
    Hyperparameters,
    KernelSpec,
    scores,
    signs,
    stack_features,
    unseen_scores,
)
from crossmodal import linalg, solver
from crossmodal.errors import NumericalError
from crossmodal.solver import TrainData, project_alpha, prox_step, train
from crossmodal.synth import SynthConfig, generate
from crossmodal.zeroshot import train_zeroshot
from oracle_utils import (
    _dense_pair_scores,
    evaluate_at,
    fd_grad_S,
    fd_grad_alpha,
    grad_S,
    grad_alpha,
    l2_normalized_data,
    numerical_rank,
    objective,
    random_instance,
    reference_train_loop,
    smooth_value,
    trace_norm,
)


def _gradients():
    """Small gradient matrices with exact zeros and entries far enough from
    underflow that dividing them by 2^40 is exact."""
    entries = st.one_of(st.just(0.0), st.floats(1e-6, 1e2), st.floats(-1e2, -1e-6))
    return st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=entries))


@pytest.fixture
def small_instance():
    return random_instance(np.random.default_rng(0))


class TestObjective:
    def test_zero_state_closed_form(self, small_instance):
        data, hyper, S, _ = small_instance
        m = len(data.train_images)
        l = len(data.pairs)
        S = np.zeros_like(S)
        alpha = np.zeros(m)
        expected = hyper.gamma * m + hyper.lam * l * math.log(2.0)
        assert objective(S, alpha, data, hyper) == pytest.approx(expected, rel=1e-12)

    def test_zero_weights(self, small_instance):
        data, hyper, S, _ = small_instance
        hyper0 = Hyperparameters(gamma=0.0, lam=0.0, kernel=hyper.kernel)
        S = np.zeros_like(S)
        assert objective(S, np.zeros(len(data.train_images)), data, hyper0) == 0.0

    def test_linearity_in_lambda(self, small_instance):
        data, hyper, S, alpha = small_instance
        from dataclasses import replace

        doubled = replace(hyper, lam=2 * hyper.lam)
        a = np.array(
            [float(c.text_features @ S @ c.image_features) for c in data.pairs]
        )
        mis = float(np.sum(misalign(a)))
        got = objective(S, alpha, data, doubled) - objective(S, alpha, data, hyper)
        assert got == pytest.approx(hyper.lam * mis, rel=1e-9)

    def test_smooth_value_is_objective_minus_trace_norm(self, small_instance):
        data, hyper, S, alpha = small_instance
        lhs = smooth_value(S, alpha, data, hyper)
        rhs = objective(S, alpha, data, hyper) - trace_norm(S)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestGradients:
    def test_zero_weights_zero_grad(self, small_instance):
        data, hyper, S, alpha = small_instance
        hyper0 = Hyperparameters(gamma=0.0, lam=0.0, kernel=hyper.kernel)
        assert np.all(grad_S(S, alpha, data, hyper0) == 0)
        assert np.all(grad_alpha(S, alpha, data, hyper0) == 0)

    def test_single_pair_closed_form(self):
        rng = np.random.default_rng(1)
        x, z = rng.standard_normal(3), rng.standard_normal(4)
        data = TrainData(pairs=[CooccurrencePair(x, z)])
        hyper = Hyperparameters(gamma=0.0, lam=1.7)
        g = grad_S(np.zeros((3, 4)), np.zeros(0), data, hyper)
        np.testing.assert_allclose(g, -1.7 * np.outer(x, z), atol=1e-12)

    def test_single_image_alpha_closed_form(self):
        # at S = 0, alpha = 0: f = 0, hinge subgrad = -1, K(z, z) = 1
        z = np.array([0.3, -0.2])
        data = TrainData(train_images=[CorpusExample("i", z, 1)])
        hyper = Hyperparameters(gamma=0.8, lam=0.0, kernel=KernelSpec(bandwidth=1.0))
        g = grad_alpha(np.zeros((0, 2)), np.zeros(1), data, hyper)
        np.testing.assert_allclose(g, [-0.8], atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            data, hyper, S, alpha = random_instance(rng)
            np.testing.assert_allclose(
                grad_S(S, alpha, data, hyper),
                fd_grad_S(S, alpha, data, hyper),
                atol=1e-5,
            )
            np.testing.assert_allclose(
                grad_alpha(S, alpha, data, hyper),
                fd_grad_alpha(S, alpha, data, hyper),
                atol=1e-5,
            )


class TestSteps:
    def test_prox_pure_shrinkage(self):
        out = prox_step(np.diag([0.5, 0.3]), np.zeros((2, 2)), 1.0)
        assert out.sigma.size == 0
        np.testing.assert_allclose((out.U * out.sigma) @ out.V.T, 0.0, atol=1e-12)

    def test_prox_diag_example(self):
        out = prox_step(np.diag([3.0, 1.0]), np.zeros((2, 2)), 1.0)
        np.testing.assert_allclose(out.sigma, [2.0], atol=1e-12)
        np.testing.assert_allclose((out.U * out.sigma) @ out.V.T, np.diag([2.0, 0.0]), atol=1e-12)

    def test_prox_large_L_keeps_point(self):
        rng = np.random.default_rng(3)
        S = rng.standard_normal((3, 4))
        g = rng.standard_normal((3, 4))
        out = prox_step(S, g, 1e12)
        np.testing.assert_allclose((out.U * out.sigma) @ out.V.T, S, atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(_gradients())
    @example(np.array([[0.0, 3.0, 0.0], [-2.0, 0.0, 0.0]]))  # exact zeros
    @example(np.array([[0.5, 0.0], [0.0, -0.25]]))           # rank 0 at every L
    @example(np.full((1, 4), -0.5))                          # sigma = 1, a tie
    def test_prox_from_zero_matches_its_svd(self, g):
        # prox_step at S = 0 from the SVD of -grad against the SVD of
        # -grad / L: bit for bit at a power of two, the only L a line search
        # from S = 0 reaches unless L hit its 1e-12 floor; within 1e-12 of
        # the argument's scale after the floor. There a singular value at the
        # threshold may survive one path as a rounding residue and not the
        # other, so ranks are compared through zero-padded singular values.
        zero = np.zeros_like(g)
        ray = linalg.svd(zero - g)
        for k in range(41):
            want, got = prox_step(zero, g, 2.0**k), prox_step(zero, g, 2.0**k, ray)
            for a, b in ((want.U, got.U), (want.sigma, got.sigma), (want.V, got.V)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
        for k in range(41):
            L = 1e-12 * 2.0**k
            want, got = prox_step(zero, g, L), prox_step(zero, g, L, ray)
            scale = max(float(np.max(np.abs(g))), 1.0) / L
            r = max(want.sigma.size, got.sigma.size)
            np.testing.assert_allclose(np.pad(got.sigma, (0, r - got.sigma.size)),
                                       np.pad(want.sigma, (0, r - want.sigma.size)),
                                       rtol=1e-12, atol=1e-12 * scale)
            np.testing.assert_allclose((got.U * got.sigma) @ got.V.T,
                                       (want.U * want.sigma) @ want.V.T,
                                       rtol=0.0, atol=1e-12 * scale)

    def test_project_alpha(self):
        np.testing.assert_allclose(
            project_alpha([-1.0, 0.5, 9.0], 2.0), [0.0, 0.5, 2.0]
        )
        v = np.array([0.1, 1.9])
        np.testing.assert_allclose(project_alpha(v, 2.0), v)
        once = project_alpha([-3.0, 5.0], 2.0)
        np.testing.assert_allclose(project_alpha(once, 2.0), once)


class TestTrain:
    def test_zero_weights_converges_to_zero(self, small_instance):
        data, hyper, _, _ = small_instance
        hyper0 = Hyperparameters(gamma=0.0, lam=0.0, kernel=hyper.kernel)
        model, report = train(data, hyper0)
        assert report.converged and report.stop_reason == "tol"
        assert report.iterations == 1
        np.testing.assert_allclose(model.S, 0.0)
        np.testing.assert_allclose(model.alpha, 0.0)
        assert report.final_objective == 0.0

    def test_first_step_rank_one(self):
        rng = np.random.default_rng(4)
        x, z = rng.standard_normal(3), rng.standard_normal(4)
        data = TrainData(pairs=[CooccurrencePair(x, z)])
        hyper = Hyperparameters(gamma=0.0, lam=50.0, max_iter=1, tol=1e-16)
        model, _ = train(data, hyper)
        assert numerical_rank(model.S) == 1
        # the single singular direction is x z' with positive scale
        scale = float(np.vdot(model.S, np.outer(x, z)))
        assert scale > 0
        np.testing.assert_allclose(
            model.S, scale / np.vdot(np.outer(x, z), np.outer(x, z)) * np.outer(x, z),
            atol=1e-8,
        )

    def test_monotone_descent_and_feasibility(self, small_instance):
        data, hyper, _, _ = small_instance
        from dataclasses import replace

        hyper = replace(hyper, max_iter=60, tol=1e-12)
        model, report = train(data, hyper)
        trace = np.array(report.objective_trace)
        assert np.all(np.diff(trace) <= 1e-9)
        assert np.all(model.alpha >= 0) and np.all(model.alpha <= hyper.C)

    def test_deterministic_trace(self, small_instance):
        data, hyper, _, _ = small_instance
        _, r1 = train(data, hyper)
        _, r2 = train(data, hyper)
        assert r1.objective_trace == r2.objective_trace

    def test_verbose_log_format(self, small_instance):
        data, hyper, _, _ = small_instance
        lines = []
        from dataclasses import replace

        train(data, replace(hyper, max_iter=3, tol=1e-16), log=lines.append)
        assert len(lines) == 3
        first = lines[0].split(",")
        assert len(first) == 5 and first[0] == "1"

    def test_intramodal_only_mode(self):
        # no texts, no pairs: the kernel machine alone
        rng = np.random.default_rng(5)
        images = [
            CorpusExample(f"i{j}", rng.standard_normal(3) + (2 if j % 2 else -2), 1 if j % 2 else -1)
            for j in range(6)
        ]
        data = TrainData(train_images=images)
        model, report = train(data, Hyperparameters(lam=0.0, max_iter=100))
        assert np.all(model.S == 0)
        assert np.any(model.alpha > 0)
        trace = np.array(report.objective_trace)
        assert np.all(np.diff(trace) <= 1e-9)

    def test_stop_reasons(self, small_instance):
        data, hyper, _, _ = small_instance
        from dataclasses import replace

        _, report = train(data, replace(hyper, max_iter=3, tol=1e-16))
        assert report.stop_reason == "max_iter" and report.converged is False
        assert report.iterations == 3

    def test_linesearch_exhaustion_is_not_convergence(self, monkeypatch):
        # One probe per line search: the first S and alpha probes both fail,
        # the iterate stays where it was and the objective does not move. The
        # failure on the float32 gradient moves the loop to float64, which
        # fails too and makes the stop.
        monkeypatch.setattr(solver, "_MAX_BACKTRACKS", 1)
        ds = generate(SynthConfig(seed=0))
        _, report = train(TrainData(ds.texts, ds.images, ds.pairs), Hyperparameters())
        assert report.converged is False
        assert report.stop_reason == "linesearch"
        assert report.iterations == report.float64_from == 2
        assert report.objective_trace == [report.objective_trace[0]] * 3

    @pytest.mark.parametrize("label", [1.0, np.int64(1), np.float64(-1.0)])
    @pytest.mark.parametrize("part", ["source_texts", "train_images"])
    def test_label_that_is_not_an_int_rejected(self, part, label):
        # The model file would write it as a class, or fail to write it.
        from crossmodal.errors import DataError

        ds = _small_synth(0)
        data = TrainData(ds.texts, ds.images, ds.pairs)
        examples = getattr(data, part)
        examples[1] = CorpusExample(examples[1].id, examples[1].features, label)
        name = {"source_texts": "source text", "train_images": "training image"}[part]
        with pytest.raises(DataError, match=rf"^{name} '{examples[1].id}' has label"):
            train(data, Hyperparameters(max_iter=2))

    def test_dimension_mismatch_rejected(self):
        from crossmodal.errors import DataError

        texts = [CorpusExample("t", np.ones(3), 1)]
        pairs = [CooccurrencePair(np.ones(4), np.ones(2))]
        with pytest.raises(DataError):
            train(TrainData(source_texts=texts, pairs=pairs), Hyperparameters())

    @pytest.mark.parametrize("part, name", [
        ("texts", "source text 't2' dimension 4"),
        ("images", "training image 'i2' dimension 3"),
        ("pair_texts", "pair 2 text dimension 4"),
        ("pair_images", "pair 2 image dimension 3"),
    ])
    def test_ragged_widths_name_the_first_odd_example(self, part, name):
        from crossmodal.errors import DataError

        texts = [CorpusExample(f"t{i}", np.ones(3), 1) for i in range(4)]
        images = [CorpusExample(f"i{j}", np.ones(2), -1) for j in range(4)]
        pairs = [CooccurrencePair(np.ones(3), np.ones(2)) for _ in range(4)]
        for k in (2, 3):
            if part == "texts":
                texts[k] = CorpusExample(f"t{k}", np.ones(4), 1)
            elif part == "images":
                images[k] = CorpusExample(f"i{k}", np.ones(3), -1)
            elif part == "pair_texts":
                pairs[k] = CooccurrencePair(np.ones(4), np.ones(2))
            else:
                pairs[k] = CooccurrencePair(np.ones(3), np.ones(3))
        # With and without normalize, one stacking names the same example.
        errors = []
        for normalize in (False, True):
            with pytest.raises(DataError, match=name) as exc:
                train(TrainData(texts, images, pairs),
                      Hyperparameters(max_iter=1, normalize=normalize))
            errors.append(str(exc.value))
        assert errors[0] == errors[1]


def _assert_close(got, want, rtol=1e-12):
    """Elementwise agreement to rtol relative, with a unit floor."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rtol * np.maximum(1.0, np.abs(want)))


def _no_float32_pairs(pair_X, pair_Z):
    """Stands in for `solver._float32_pairs` to keep a fit float64 throughout."""
    return None


def _fit_both(monkeypatch, fit, *args, **kwargs):
    """Run a trainer on the solver's loop with its float32 phase off, then on
    the uncached reference loop, which is float64 throughout."""
    monkeypatch.setattr(solver, "_float32_pairs", _no_float32_pairs)
    fast = fit(*args, **kwargs)
    with monkeypatch.context() as mp:
        mp.setattr(solver, "_train_loop", reference_train_loop)
        ref = fit(*args, **kwargs)
    return fast, ref


def _assert_same_fit(fast, ref):
    (model, report), (ref_model, ref_report) = fast, ref
    assert report.iterations == ref_report.iterations
    assert report.stop_reason == ref_report.stop_reason
    assert report.final_rank == ref_report.final_rank
    assert report.float64_from == ref_report.float64_from
    _assert_close(report.objective_trace, ref_report.objective_trace)
    _assert_close(model.S, ref_model.S)
    _assert_close(model.alpha, ref_model.alpha)


def _small_synth(seed, **kw):
    cfg = dict(p=20, q=15, r_true=4, n_texts=80, m_images=30, l_pairs=400, n_test=100)
    cfg.update(kw)
    return generate(SynthConfig(seed=seed, **cfg))


def _small_data(seed):
    ds = _small_synth(seed)
    return TrainData(ds.texts, ds.images, ds.pairs)


class TestLoopMatchesReference:
    """solver._train_loop evaluates each S once and reuses it across alpha
    probes; it must follow the uncached loop's path."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("kind", ["gaussian", "linear"])
    def test_binary(self, monkeypatch, seed, normalize, kind):
        ds = _small_synth(seed)
        hyper = Hyperparameters(
            gamma=0.7, lam=1.3, C=2.0, kernel=KernelSpec(kind=kind), normalize=normalize,
            max_iter=80,
        )
        data = TrainData(ds.texts, ds.images, ds.pairs)
        _assert_same_fit(*_fit_both(monkeypatch, train, data, hyper))

    def test_zeroshot_three_blocks(self, monkeypatch):
        ds = _small_synth(0, classes=4)
        data = TrainData(ds.texts, ds.images, ds.pairs)
        hyper = Hyperparameters(gamma=0.5, max_iter=80)
        _assert_same_fit(*_fit_both(monkeypatch, train_zeroshot, data, {"c3"}, hyper))

    def test_intramodal_only(self, monkeypatch):
        ds = _small_synth(1)
        data = TrainData(train_images=ds.images)
        _assert_same_fit(*_fit_both(monkeypatch, train, data, Hyperparameters(max_iter=80)))

    def test_no_images(self, monkeypatch):
        ds = _small_synth(2)
        data = TrainData(ds.texts, [], ds.pairs)
        _assert_same_fit(*_fit_both(monkeypatch, train, data, Hyperparameters(max_iter=80)))

    @pytest.mark.parametrize("seed", range(3))
    def test_one_backtrack(self, monkeypatch, seed):
        monkeypatch.setattr(solver, "_MAX_BACKTRACKS", 1)
        ds = _small_synth(seed)
        data = TrainData(ds.texts, ds.images, ds.pairs)
        _assert_same_fit(*_fit_both(monkeypatch, train, data, Hyperparameters(max_iter=80)))

    def test_identical_labels(self, monkeypatch):
        for seed in range(10):
            ds = _small_synth(seed)
            data = TrainData(ds.texts, ds.images, ds.pairs)
            fast, ref = _fit_both(monkeypatch, train, data, Hyperparameters(max_iter=80))
            Z = stack_features(ds.test_images, 15, "test image")
            assert np.array_equal(scores(fast[0], Z) > 0, scores(ref[0], Z) > 0)

    def test_one_svd_and_one_misalignment_per_s_probe(self, monkeypatch):
        # Alpha probes and the per-iteration objective reuse the accepted
        # S probe's terms; only the starting point adds one of each, and the
        # model `train` returns factors S once more for scoring. An S
        # probe computes its misalignment term only when the lower bound
        # cannot reject it, so every accepted probe does and most rejected
        # ones do not.
        calls = Counter()

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(solver, "prox_step")
        counted(solver, "misalign")
        counted(linalg, "svd")
        at_end = {}

        def log(line):
            at_end[int(line.split(",")[0])] = dict(calls)

        ds = _small_synth(0)
        _, report = train(TrainData(ds.texts, ds.images, ds.pairs), Hyperparameters(max_iter=20),
                          log=log)
        assert calls["prox_step"] >= report.iterations
        assert report.iterations + 1 <= calls["misalign"] <= calls["prox_step"] + 1
        assert calls["misalign"] < calls["prox_step"]
        # Iteration 1 starts from S = 0, whose probes share one SVD; no
        # other iteration of this fit starts from rank 0.
        first = at_end[1]["prox_step"]
        assert calls["svd"] == calls["prox_step"] - first + 2

    def test_first_line_search_takes_one_svd(self, monkeypatch):
        # The fit starts at S = 0 with L = 1, and its first line search
        # doubles L over several probes. Each still goes through prox_step,
        # but all of them scale one SVD of the negated gradient.
        calls = Counter()
        svd, prox = linalg.svd, solver.prox_step

        def counted_svd(M):
            calls["svd"] += 1
            return svd(M)

        def counted_prox(*args):
            calls["prox_step"] += 1
            return prox(*args)

        monkeypatch.setattr(linalg, "svd", counted_svd)
        monkeypatch.setattr(solver, "prox_step", counted_prox)
        first = []
        ds = _small_synth(0)
        train(TrainData(ds.texts, ds.images, ds.pairs), Hyperparameters(max_iter=1),
              log=lambda line: first.append(dict(calls)))
        assert first[0]["prox_step"] >= 2
        assert first[0]["svd"] == 1

    def test_non_finite_hinge_on_a_probe_raises_there(self, monkeypatch):
        # The third S probe of this fit fails the lower bound. A NaN in its
        # hinge value raises at that probe, as the full evaluation does,
        # instead of reading as a rejection.
        probes = Counter()
        prox_step, hinge = solver.prox_step, solver.hinge

        def counted_prox_step(*args):
            probes["n"] += 1
            return prox_step(*args)

        def poisoned_hinge(tau):
            out = hinge(tau)
            return out * np.nan if probes["n"] == 3 else out

        monkeypatch.setattr(solver, "prox_step", counted_prox_step)
        monkeypatch.setattr(solver, "hinge", poisoned_hinge)
        ds = _small_synth(0)
        with pytest.raises(NumericalError, match="smooth objective is non-finite"):
            train(TrainData(ds.texts, ds.images, ds.pairs), Hyperparameters(max_iter=20))
        assert probes["n"] == 3


class TestNormalizeMatchesReference:
    """normalize=True fits what an unnormalized fit does on the data that the
    per-vector reference normalizer returns; a zero vector stays zero."""

    @staticmethod
    def with_zero_text(ds):
        texts = list(ds.texts)
        texts[1] = CorpusExample(texts[1].id, np.zeros_like(texts[1].features), texts[1].label)
        return TrainData(texts, ds.images, ds.pairs)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", ["gaussian", "linear"])
    def test_binary(self, seed, kind):
        data = self.with_zero_text(_small_synth(seed))
        hyper = Hyperparameters(gamma=0.7, lam=1.3, C=2.0, kernel=KernelSpec(kind=kind),
                                max_iter=80)
        fit = train(data, replace(hyper, normalize=True))
        ref = train(l2_normalized_data(data), hyper)
        _assert_same_fit(fit, ref)
        assert fit[0].kernel.bandwidth == pytest.approx(ref[0].kernel.bandwidth, rel=1e-12)
        for got, want in [(fit[0].source_texts, ref[0].source_texts),
                          (fit[0].train_images, ref[0].train_images)]:
            _assert_close([e.features for e in got], [e.features for e in want])

    def test_zeroshot(self):
        data = self.with_zero_text(_small_synth(0, classes=4))
        hyper = Hyperparameters(gamma=0.5, max_iter=80)
        fit = train_zeroshot(data, {"c3"}, replace(hyper, normalize=True))
        ref = train_zeroshot(l2_normalized_data(data), {"c3"}, hyper)
        _assert_same_fit(fit, ref)
        _assert_close([e.features for e in fit[0].source_texts],
                      [e.features for e in ref[0].source_texts])


class TestAlphaPeak:
    """C enters a fit only through project_alpha's clip to [0, C]. A fit
    records a fork at its first alpha probe above C, so a fit without one
    never proposed an alpha above C and is the fit at every larger C."""

    @pytest.mark.parametrize("seed", range(4))
    def test_fits_at_C_above_the_peak_are_identical(self, seed):
        hyper = Hyperparameters(gamma=0.7, lam=1.3, C=50.0, max_iter=40)
        fit = train(_small_data(seed), hyper)
        assert fit[1].fork is None and np.any(fit[0].alpha > 0)
        for C in (100.0, 5e7):
            _assert_identical_fit(train(_small_data(seed), replace(hyper, C=C)), fit)

    def test_fork_is_the_first_iteration_past_C(self, monkeypatch):
        # Rejected alpha probes count as well as accepted ones. `lines` holds
        # one log line per finished iteration.
        lines, seen = [], []

        def recording(alpha, C):
            seen.append((len(lines) + 1, float(np.max(alpha))))
            return project_alpha(alpha, C)

        monkeypatch.setattr(solver, "project_alpha", recording)
        hyper = Hyperparameters(lam=2.0, gamma=0.5, C=0.3, max_iter=40)
        _, report = train(_small_data(0), hyper, log=lines.append)
        assert len(seen) > report.iterations
        first = min(it for it, peak in seen if peak > hyper.C)
        assert report.fork.iteration == first > 1

    def test_no_fork_without_alpha(self):
        # C 0.01 is below the first alpha probe of these problems.
        hyper = Hyperparameters(C=0.01, max_iter=20)
        ds = _small_synth(2)
        model, report = train(TrainData(ds.texts, [], ds.pairs), hyper)
        assert model.alpha.size == 0 and report.fork is None
        ds = _small_synth(2, classes=3)
        data = TrainData(ds.texts, ds.images, ds.pairs)
        model, report = train_zeroshot(data, {"c2"}, hyper)
        assert model.alpha.size == 0 and report.fork is None


def _assert_identical_fit(got, want):
    (model, report), (want_model, want_report) = got, want
    assert np.array_equal(model.S, want_model.S)
    assert np.array_equal(model.alpha, want_model.alpha)
    assert report.objective_trace == want_report.objective_trace
    assert report.stop_reason == want_report.stop_reason
    assert report.float64_from == want_report.float64_from
    assert report.final_rank == want_report.final_rank


class TestResume:
    """A fit at C and one at a larger C run the same path up to the first
    alpha probe above C, where the first fit's report records its fork. A
    later fit on the same problem (`train(..., problem=P)`) at a larger C,
    every other hyperparameter equal, continues from that fork and must
    return the fit from the start, bit for bit; its `log` lines start at the
    fork's iteration."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("lam, gamma, C1, C2", [
        (1.0, 1.0, 0.1, 0.3), (2.0, 0.5, 0.3, 1.0), (0.5, 2.0, 0.1, 2.0),
    ])
    def test_resumed_fit_is_the_fit_from_the_start(self, seed, lam, gamma, C1, C2):
        data = _small_data(seed)
        hyper = Hyperparameters(lam=lam, gamma=gamma, C=C1, max_iter=200)
        P = solver.binary_problem(data, hyper)
        _, report = train(data, hyper, problem=P)
        assert report.fork is not None
        larger, lines = replace(hyper, C=C2), []
        _assert_identical_fit(train(data, larger, lines.append, problem=P), train(data, larger))
        assert lines[0].startswith(f"{report.fork.iteration},")

    @pytest.mark.parametrize("seed, lam, gamma, Cs", [
        (5, 2.0, 0.5, (0.3, 0.5, 1.0)),   # forks at iterations 2, 4 and 9
        (2, 1.0, 1.0, (0.1, 0.3, 1.0)),   # forks at iterations 1, 9 and 33
    ])
    def test_chain_resumes_from_a_resumed_fit(self, seed, lam, gamma, Cs):
        data = _small_data(seed)
        hyper = Hyperparameters(lam=lam, gamma=gamma, C=Cs[0], max_iter=200)
        P = solver.binary_problem(data, hyper)
        fit = train(data, hyper, problem=P)
        forks = [fit[1].fork.iteration]
        for C in Cs[1:]:
            cold, lines = train(data, replace(hyper, C=C)), []
            fit = train(data, replace(hyper, C=C), lines.append, problem=P)
            _assert_identical_fit(fit, cold)
            assert lines[0].startswith(f"{forks[-1]},")
            forks.append(fit[1].fork.iteration)
        assert forks == sorted(forks) and forks[-1] > forks[0] > 0

    @pytest.mark.parametrize("seed, C, float64_from", [(5, 0.27, 11), (0, 0.25, 18)])
    def test_fork_after_the_float32_phase(self, seed, C, float64_from):
        # tol 1e-2 ends the float32 phase early. Seed 5 forks three iterations
        # into the float64 phase; seed 0 forks on the iteration right after
        # the switch, the first float64 one.
        data = _small_data(seed)
        hyper = Hyperparameters(lam=1.0, gamma=0.5, C=C, max_iter=200, tol=1e-2)
        P = solver.binary_problem(data, hyper)
        _, report = train(data, hyper, problem=P)
        state = report.fork
        assert state.float64_from == report.float64_from == float64_from
        assert state.iteration >= float64_from > 1
        larger = replace(hyper, C=1.0)
        _assert_identical_fit(train(data, larger, problem=P), train(data, larger))

    def test_log_receives_lines_from_the_fork_on(self):
        data = _small_data(0)
        hyper = Hyperparameters(lam=2.0, gamma=0.5, C=0.3, max_iter=200)
        P = solver.binary_problem(data, hyper)
        _, report = train(data, hyper, problem=P)
        k = report.fork.iteration
        assert k > 1
        cold, resumed = [], []
        train(data, replace(hyper, C=1.0), log=cold.append)
        train(data, replace(hyper, C=1.0), log=resumed.append, problem=P)
        assert resumed == cold[k - 1:]
        assert resumed[0].startswith(f"{k},")

    def test_fork_holds_no_problem_sized_array(self):
        # Every array of a fork is one of S's factors or alpha.
        data = _small_data(0)
        _, report = train(data, Hyperparameters(lam=2.0, gamma=0.5, C=0.3, max_iter=200))
        fork = report.fork
        r = fork.factors.sigma.size
        assert fork.factors.U.shape == (20, r) and fork.factors.V.shape == (15, r)
        assert fork.alpha.shape == (30,)
        assert [type(x) for x in fork[3:]] == [float, float, type(None)]

    def test_no_fork(self):
        # alpha off is TestAlphaPeak.test_no_fork_without_alpha.
        data = _small_data(2)
        hyper = Hyperparameters(C=0.01, max_iter=20)
        assert train(data, hyper)[1].fork is not None
        # No alpha probe exceeds C.
        assert train(data, replace(hyper, C=1e6))[1].fork is None

    def test_data_changed_at_the_fork_rejected(self):
        # One image row of the shared problem negated in place after the fit:
        # the fork's state no longer gives the trace's objective.
        ds = generate(SynthConfig(seed=0))
        data = TrainData(ds.texts, ds.images, ds.pairs)
        hyper = Hyperparameters(gamma=0.5, lam=2.0, C=1.0, max_iter=60)
        P = solver.binary_problem(data, hyper)
        _, report = train(data, hyper, problem=P)
        assert report.fork.iteration == 7
        P.img_Z[0] *= -1.0
        with pytest.raises(ValueError, match="resume: the objective at the fork is 251.30"):
            train(data, replace(hyper, C=10.0), problem=P)

    def test_hyperparameters_are_frozen(self):
        # A problem keeps the Hyperparameters object it was built at, which
        # `train` checks each fit against, so a field changed on it
        # afterwards would pass that check.
        data = _small_data(0)
        hyper = Hyperparameters(lam=2.0, gamma=0.5, C=0.3, max_iter=200)
        P = solver.binary_problem(data, hyper)
        for f in fields(hyper):
            with pytest.raises(FrozenInstanceError):
                setattr(P.hyper, f.name, getattr(hyper, f.name))
        with pytest.raises(FrozenInstanceError):
            hyper.C = -5.0

    def test_report_with_a_fork_pickles(self):
        # The fork is the loop's state, which pickles as it is.
        data = _small_data(0)
        hyper = Hyperparameters(lam=2.0, gamma=0.5, C=0.3, max_iter=200)
        _, report = train(data, hyper)
        unpickled = pickle.loads(pickle.dumps(report))
        assert unpickled.objective_trace == report.objective_trace
        fork, want = unpickled.fork, report.fork
        assert fork.iteration == want.iteration and fork[3:] == want[3:]
        for name in ("U", "sigma", "V"):
            assert np.array_equal(getattr(fork.factors, name), getattr(want.factors, name))
        assert np.array_equal(fork.alpha, want.alpha)

    # Hyperparameters of the property below: the fields besides C take two
    # values each, so some fits share every field but C and others do not.
    Cs = (0.1, 0.3, 1.0, 3.0)
    KEYS = [dict(lam=lam, gamma=gamma, max_iter=max_iter, tol=tol) for lam in (1.0, 2.0)
            for gamma in (0.5, 1.0) for max_iter in (30, 45) for tol in (1e-6, 1e-3)]
    _cold = {}

    @classmethod
    def cold(cls, seed, hyper):
        """The fit from the start, once per seed and hyperparameters."""
        if (seed, hyper) not in cls._cold:
            cls._cold[seed, hyper] = train(_small_data(seed), hyper)
        return cls._cold[seed, hyper]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2),
           fits=st.lists(st.tuples(st.sampled_from(Cs), st.integers(0, len(KEYS) - 1)),
                         min_size=2, max_size=7))
    def test_fits_in_any_order_resume_only_from_a_smaller_C(self, seed, fits):
        data = _small_data(seed)
        P = solver.binary_problem(data, Hyperparameters(lam=1.0))
        run = []
        for C, key in fits:
            hyper = Hyperparameters(C=C, **self.KEYS[key])
            cold, lines = self.cold(seed, hyper), []
            _assert_identical_fit(train(data, hyper, lines.append, problem=P), cold)
            # The fork of the largest smaller C run so far under this key.
            below = [(c, f) for c, k, f in run if k == key and c < C and f is not None]
            first = max(below)[1] if below else 1
            assert len(lines) == cold[1].iterations - first + 1
            run.append((C, key, None if cold[1].fork is None else cold[1].fork.iteration))


class TestSharedProblem:
    """`train(..., problem=)` fits a problem `binary_problem` built once; it
    must return the fit that builds its own, and refuse a problem of other
    data or built at another kernel, normalize or sign of lam."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("base", [
        Hyperparameters(lam=1.0, max_iter=40),
        Hyperparameters(lam=0.0, max_iter=40),
        Hyperparameters(lam=2.0, max_iter=40, normalize=True, kernel=KernelSpec("linear")),
    ])
    def test_shared_problem_gives_the_fit_from_the_start(self, seed, base):
        data = _small_data(seed)
        problem = solver.binary_problem(data, base)
        lams = (0.5, 2.0) if base.lam > 0 else (0.0,)
        for lam, gamma, C in [(lam, g, c) for lam in lams for g in (0.5, 1.0) for c in (0.1, 1.0)]:
            hyper = replace(base, lam=lam, gamma=gamma, C=C)
            _assert_identical_fit(train(data, hyper, problem=problem), train(data, hyper))

    def test_shared_problem_with_resume(self):
        # The forks are kept per fit's hyperparameters, whatever the problem
        # was built at: a fit at C 1.0 continues the fit at C 0.3.
        data = _small_data(0)
        problem = solver.binary_problem(data, Hyperparameters(lam=1.0, C=5.0))
        hyper = Hyperparameters(lam=2.0, gamma=0.5, C=0.3, max_iter=200)
        _, report = train(data, hyper, problem=problem)
        larger, lines = replace(hyper, C=1.0), []
        _assert_identical_fit(train(data, larger, lines.append, problem=problem),
                              train(data, larger))
        assert report.fork.iteration > 1 and lines[0].startswith(f"{report.fork.iteration},")

    @pytest.mark.parametrize("change, expected", [
        ({"kernel": KernelSpec(kind="linear")}, "kernel differ"),
        ({"kernel": KernelSpec(bandwidth=1.0)}, "kernel differ"),
        ({"normalize": True}, "normalize differ"),
        ({"lam": 0.0}, "lam > 0 differ"),
        ({"lam": 0.0, "normalize": True}, "normalize, lam > 0 differ"),
    ])
    def test_mismatched_hyperparameters_rejected(self, change, expected):
        data = _small_data(0)
        hyper = Hyperparameters(lam=1.0, max_iter=5)
        problem = solver.binary_problem(data, hyper)
        with pytest.raises(ValueError, match=re.escape(f"problem: {expected} from the problem's")):
            train(data, replace(hyper, **change), problem=problem)
        # And the other way round: a lam = 0 problem refuses a lam > 0 fit.
        if change == {"lam": 0.0}:
            with pytest.raises(ValueError, match=re.escape("problem: lam > 0 differ")):
                train(data, hyper, problem=solver.binary_problem(data, replace(hyper, **change)))

    def test_other_data_rejected(self):
        data = _small_data(0)
        hyper = Hyperparameters(max_iter=5)
        problem = solver.binary_problem(data, hyper)
        # The same corpora in another TrainData are another data object.
        with pytest.raises(ValueError, match="problem: it was built from another data object"):
            train(replace(data), hyper, problem=problem)
        # Only the data, kernel, normalize and sign of lam are the problem's.
        train(data, replace(hyper, gamma=0.1, lam=3.0, C=5.0, max_iter=2, tol=0.5),
              problem=problem)

    def test_problem_is_keyword_only(self):
        data = _small_data(0)
        hyper = Hyperparameters(max_iter=5)
        with pytest.raises(TypeError):
            train(data, hyper, None, solver.binary_problem(data, hyper))


class TestPairTermsAtLamZero:
    """At lam = 0 `_pair_terms` forms no pair score: the misalignment term is
    0.0, as lam times the sum was, and the fit is the one that forms them."""

    def test_no_pair_scores(self):
        data = _small_data(0)
        hyper = Hyperparameters(lam=0.0)
        pb = solver.binary_problem(data, hyper)
        rng = np.random.default_rng(0)
        S = rng.standard_normal((20, 3)) @ rng.standard_normal((3, 15))
        it = solver._pair_terms(solver._text_terms(linalg.shrink(linalg.svd(S), 0.0), pb), pb, hyper)
        assert it.a is None and it.misalign_term == 0.0
        # There were pairs to score, and a lam = 0 problem has no float32 copies.
        assert pb.pair_X.shape[0] == 400 and pb.pair32 is None

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["gaussian", "linear"])
    def test_fit_equals_the_fit_that_forms_them(self, monkeypatch, seed, kind):
        def forming(it, pb, hyper):
            # `_pair_terms` as it was, at every lam.
            prod = it.US.T @ pb.pair_X.T
            prod *= it.factors.V.T @ pb.pair_Z.T
            it.a = prod.sum(axis=0)
            it.misalign_term = hyper.lam * float(np.sum(misalign(it.a)))
            return it

        data = _small_data(seed)
        ds = _small_synth(seed, classes=4)
        zs_data = TrainData(ds.texts, ds.images, ds.pairs)
        hyper = Hyperparameters(lam=0.0, max_iter=60, kernel=KernelSpec(kind))
        got, got_zs = train(data, hyper), train_zeroshot(zs_data, {"c3"}, hyper)
        monkeypatch.setattr(solver, "_pair_terms", forming)
        _assert_identical_fit(got, train(data, hyper))
        _assert_identical_fit(got_zs, train_zeroshot(zs_data, {"c3"}, hyper))


class TestMisalignFloor:
    """solver._misalign_floor, the bound an S probe is rejected by before its
    pair terms, never exceeds the misalignment term the full evaluation
    computes at the probe: the shortcut cannot reject a probe the acceptance
    test would take."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        # At scale 20 most pair scores have |a| > 19, where tanh(a) rounds to
        # +-1; at 1e3 most have |a| > 400, where logaddexp(0, -2a) is 0 or -2a.
        scale=st.sampled_from([0.0, 1e-3, 0.5, 20.0, 1e3]),
        step=st.sampled_from([0.0, 1e-13, 1e-8, 1e-3, 1.0, 1e3]),
        # The float32 tangent, with the margin for its rounding error.
        float32=st.booleans(),
    )
    def test_floor_below_misalignment_at_probe(self, seed, scale, step, float32):
        rng = np.random.default_rng(seed)
        data, hyper, _, alpha = random_instance(rng, l=8)
        S = scale * rng.standard_normal((3, 4))
        S_probe = S + step * max(scale, 1.0) * rng.standard_normal((3, 4))
        pb, cur, F, _ = evaluate_at(S, alpha, data, hyper)
        _, probe, _, _ = evaluate_at(S_probe, alpha, data, hyper)
        assert pb.pair32 is not None
        _, g_pair, g_err = solver._grad_S(cur, F, pb, hyper, float32)
        delta = probe.S - cur.S
        floor = solver._misalign_floor(cur, g_pair, g_err, delta, np.vdot(delta, delta))
        gap = probe.misalign_term - floor
        assert gap >= 0.0
        if step <= 1e-8:
            # A tangent bound is tight to first order in the step.
            assert gap <= 1e-6 * max(1.0, probe.misalign_term)


class TestFloat32Phase:
    """The S step forms its pair gradient in float32 until the loop would
    stop. The acceptance test stays float64, so the objective never rises,
    and every stop that claims anything is made on float64."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("mode", ["binary", "zeroshot"])
    def test_equal_budget_matches_float64(self, monkeypatch, seed, mode):
        # The benchmark's fixed budget of 20 iterations. Over longer budgets
        # the fit amplifies any 1e-7 relative change of the gradient, float32
        # rounding or random noise alike, to 1e-4 or more of the objective
        # in either direction, so a 1e-6 comparison there measures that
        # amplification, not the float32 phase.
        hyper = Hyperparameters(max_iter=20, tol=1e-12)
        ds = _small_synth(seed, **({"classes": 4} if mode == "zeroshot" else {}))
        data = TrainData(ds.texts, ds.images, ds.pairs)
        Z = stack_features(ds.test_images, 15, "test image")

        def fit():
            if mode == "binary":
                model, report = train(data, hyper)
                return report, scores(model, Z) > 0
            model, report = train_zeroshot(data, {"c2", "c3"}, hyper)
            table = unseen_scores(model, Z, ["c2", "c3"])
            return report, np.vstack([table.T > 0, np.argmax(table, axis=1)])

        report32, labels32 = fit()
        monkeypatch.setattr(solver, "_float32_pairs", _no_float32_pairs)
        report64, labels64 = fit()
        assert report32.float64_from is None and report64.float64_from == 1
        assert np.all(np.diff(report32.objective_trace) <= 1e-9)  # criterion 3
        f32, f64 = report32.final_objective, report64.final_objective
        assert f32 <= f64 + 1e-6 * max(1.0, abs(f64))
        assert np.array_equal(labels32, labels64)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([0.0, 0.5, 20.0]),
        # Pair text features near 1e-45 cast to float32 subnormals or zero,
        # and near 1e-30 their products underflow.
        size=st.sampled_from([1e-45, 1e-30, 1.0, 1e10]),
    )
    def test_pair_gradient_within_its_error_bound(self, seed, scale, size):
        rng = np.random.default_rng(seed)
        data, hyper, _, alpha = random_instance(rng, l=8)
        pairs = [CooccurrencePair(size * c.text_features, c.image_features) for c in data.pairs]
        data = TrainData(data.source_texts, data.train_images, pairs)
        S = scale / size * rng.standard_normal((3, 4))
        pb, cur, F, _ = evaluate_at(S, alpha, data, hyper)
        _, g64, _ = solver._grad_S(cur, F, pb, hyper)
        _, g32, g_err = solver._grad_S(cur, F, pb, hyper, float32=True)
        assert np.all(np.abs(g32 - g64) <= g_err)
        assert np.linalg.norm(g32 - g64) <= g_err

    @pytest.mark.parametrize("seed", range(3))
    def test_tol_stop_is_made_on_a_float64_iteration(self, monkeypatch, seed):
        modes = []
        grad_S = solver._grad_S

        def recording(it, F, pb, hyper, float32=False):
            modes.append(float32)
            return grad_S(it, F, pb, hyper, float32)

        monkeypatch.setattr(solver, "_grad_S", recording)
        ds = _small_synth(seed)
        _, report = train(TrainData(ds.texts, ds.images, ds.pairs), Hyperparameters())
        assert report.stop_reason == "tol"
        assert len(modes) == report.iterations
        first64 = report.float64_from
        assert 1 < first64 <= report.iterations
        assert modes == [True] * (first64 - 1) + [False] * (report.iterations - first64 + 1)

    def test_switch_on_the_last_iteration_names_no_float64_iteration(self):
        # The fit cut at max_iter k - 1 runs the same iterations up to the
        # switch, which is its last, so no float64 iteration follows.
        data = _small_data(0)
        hyper = Hyperparameters(lam=1.0, gamma=0.5, C=0.25, max_iter=200, tol=1e-2)
        _, full = train(data, hyper)
        k = full.float64_from
        _, cut = train(data, replace(hyper, max_iter=k - 1))
        assert k > 2 and cut.float64_from is None and cut.stop_reason == "max_iter"
        assert cut.objective_trace == full.objective_trace[:k]

    def test_products_float32_cannot_hold_keep_float64(self, monkeypatch):
        # Pair features near 1e30 give products near 1e60, past the float32
        # maximum: the fit keeps the float64 gradient from its start and
        # runs as it does with the float32 phase off, bit for bit.
        ds = _small_synth(0)
        pairs = [CooccurrencePair(1e30 * c.text_features, 1e30 * c.image_features)
                 for c in ds.pairs]
        data = TrainData(ds.texts, ds.images, pairs)
        hyper = Hyperparameters(max_iter=80)
        model, report = train(data, hyper)
        assert report.float64_from == 1 and report.stop_reason == "tol"
        with monkeypatch.context() as mp:
            mp.setattr(solver, "_float32_pairs", _no_float32_pairs)
            model64, report64 = train(data, hyper)
        assert report.objective_trace == report64.objective_trace
        assert np.array_equal(model.S, model64.S) and np.array_equal(model.alpha, model64.alpha)
        # Without the guard, the float32 products overflow.
        monkeypatch.setattr(solver, "_FLOAT32_LIMIT", np.inf)
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="in S is non-finite"):
            train(data, hyper)

    def test_no_pair_term_builds_no_float32_pairs(self):
        # With lam = 0 the pairs leave the objective: the problem holds no
        # float32 copy of them and every iteration is float64.
        ds = _small_synth(0)
        data = TrainData(ds.texts, ds.images, ds.pairs)
        hyper = Hyperparameters(lam=0.0, max_iter=20)
        text_Y, img_Y = signs(ds.texts, "text")[:, None], signs(ds.images, "image")[:, None]
        pb = solver._build_problem(data, text_Y, img_Y, hyper.kernel, hyper)
        assert pb.pair32 is None
        _, report = train(data, hyper)
        assert report.float64_from == 1

    @pytest.mark.parametrize("p, q", [(0, 3), (2, 0)])
    def test_zero_width_pair_features_train(self, p, q):
        # An empty feature vector on either side of the pairs leaves nothing
        # for the float32 bound's maxima to reduce over.
        images = [CorpusExample(f"i{k}", k * np.ones(q), (-1) ** k) for k in range(3 if q else 0)]
        pairs = [CooccurrencePair(np.ones(p), np.ones(q))] * 3
        model, report = train(TrainData([], images, pairs), Hyperparameters(max_iter=5))
        assert model.S.shape == (p, q)
        assert report.iterations >= 1


class TestFastPathOracles:
    """Each fast path of the S step against the slow form it replaces: the
    hinge half of the S gradient over the images inside the margin only, and
    the pair scores from the feature-major pairs. The alpha gradient, one
    dense K c, is checked alongside."""

    @staticmethod
    def problem(rng, n, m, B, kernel, normalize=False, l=6, p=5, q=4):
        texts = [CorpusExample(f"t{i}", rng.standard_normal(p), 1) for i in range(n)]
        images = [CorpusExample(f"i{j}", rng.standard_normal(q), 1) for j in range(m)]
        pairs = [CooccurrencePair(rng.standard_normal(p), rng.standard_normal(q))
                 for _ in range(l)]
        text_Y = rng.choice([-1.0, 0.0, 1.0], (n, B))
        img_Y = rng.choice([-1.0, 1.0], (m, B))
        hyper = Hyperparameters(gamma=float(rng.uniform(0.2, 2.0)), lam=0.0, normalize=normalize,
                                kernel=KernelSpec(bandwidth=float(rng.uniform(0.5, 2.0))))
        pb = solver._build_problem(TrainData(texts, images, pairs), text_Y, img_Y,
                                   hyper.kernel if kernel else None, hyper)
        return pb, hyper

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 7), m=st.integers(1, 9), B=st.integers(1, 3),
        # Margins y F all at or above the kink (no active image), all below
        # it (every image active), or either.
        active=st.sampled_from(["none", "all", "some"]),
    )
    def test_active_images_match_the_full_products(self, seed, n, m, B, active):
        rng = np.random.default_rng(seed)
        pb, hyper = self.problem(rng, n, m, B, kernel=True)
        S = rng.standard_normal((5, 4))
        it = solver._text_terms(linalg.shrink(linalg.svd(S), 0.0), pb)
        low, high = {"none": (1.0, 3.0), "all": (-3.0, 0.999), "some": (-1.0, 3.0)}[active]
        yf = rng.uniform(low, high, (B, m))
        if active == "none":
            yf[:, 0] = 1.0  # exactly on the kink, whose subgradient is 0
        F = pb.img_Y.T * yf
        G = hyper.gamma * np.where(yf < 1.0, -1.0, 0.0) * pb.img_Y.T
        full = pb.text_X.T @ ((pb.text_Y @ G) * (1.0 - it.T**2)) @ pb.img_Z
        grad, _, _ = solver._grad_S(it, F, pb, hyper)
        _assert_close(grad, full)
        y = pb.img_Y[:, 0]
        _assert_close(solver._grad_alpha(F, pb, hyper), y * (pb.K @ G[0]))
        if active == "none":
            assert not np.any(grad) and not np.any(solver._grad_alpha(F, pb, hyper))

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        l=st.integers(0, 12), rank=st.integers(0, 4),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        normalize=st.booleans(),
    )
    def test_pair_scores_match_the_dense_form(self, seed, l, rank, scale, normalize):
        rng = np.random.default_rng(seed)
        pb, hyper = self.problem(rng, 2, 2, 1, kernel=False, normalize=normalize, l=l)
        hyper = replace(hyper, lam=1.0)
        S = scale * rng.standard_normal((5, rank)) @ rng.standard_normal((rank, 4))
        it = solver._pair_terms(solver._text_terms(linalg.shrink(linalg.svd(S), 0.0), pb), pb, hyper)
        _assert_close(it.a, _dense_pair_scores(S, pb))

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("l", [1, 400])
    def test_pair_layouts(self, normalize, l):
        # The pair scores read the pairs feature-major; the float32 pair
        # gradient reads its copies row-major, as it always has.
        ds = _small_synth(0, l_pairs=l)
        data = TrainData(ds.texts, ds.images, ds.pairs)
        hyper = Hyperparameters(normalize=normalize)
        text_Y, img_Y = signs(ds.texts, "text")[:, None], signs(ds.images, "image")[:, None]
        pb = solver._build_problem(data, text_Y, img_Y, hyper.kernel, hyper)
        assert pb.pair_X.shape == (l, 20) and pb.pair_Z.shape == (l, 15)
        assert pb.pair_X.flags.f_contiguous and pb.pair_Z.flags.f_contiguous
        assert pb.pair32.X.flags.c_contiguous and pb.pair32.Z.flags.c_contiguous
        np.testing.assert_array_equal(pb.pair32.X, pb.pair_X.astype(np.float32))
