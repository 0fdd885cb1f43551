import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossmodal.losses import misalign
from crossmodal.model import (
    CooccurrencePair,
    CorpusExample,
    Hyperparameters,
    KernelSpec,
    scores,
    stack_features,
)
from crossmodal import linalg, solver, zeroshot
from crossmodal.errors import NumericalError
from crossmodal.solver import TrainData, project_alpha, prox_step, train
from crossmodal.synth import SynthConfig, generate
from crossmodal.zeroshot import train_zeroshot
from oracle_utils import (
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

    def test_fixed_point_restart(self, small_instance):
        data, hyper, _, _ = small_instance
        from dataclasses import replace

        hyper = replace(hyper, max_iter=400, tol=1e-10)
        model, report = train(data, hyper)
        assert report.converged
        _, report2 = train(
            data,
            replace(hyper, max_iter=1),
            init_S=model.S,
            init_alpha=model.alpha,
        )
        first, second = report2.objective_trace[0], report2.objective_trace[-1]
        assert abs(first - second) / max(1.0, first) < hyper.tol * 10

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
        # the iterate stays where it was and the objective does not move.
        from crossmodal.synth import SynthConfig, generate

        monkeypatch.setattr(solver, "_MAX_BACKTRACKS", 1)
        ds = generate(SynthConfig(seed=0))
        _, report = train(TrainData(ds.texts, ds.images, ds.pairs), Hyperparameters())
        assert report.converged is False
        assert report.stop_reason == "linesearch"
        assert report.iterations == 1
        assert report.objective_trace[-1] == report.objective_trace[-2]

    @pytest.mark.parametrize("images, start, expected", [
        (0, {"init_alpha": np.array([0.3])}, "init_alpha has shape (1,), expected (0,)"),
        (16, {"init_alpha": np.zeros(2)}, "init_alpha has shape (2,), expected (16,)"),
        (16, {"init_S": np.zeros((15, 20))}, "init_S has shape (15, 20), expected (20, 15)"),
    ])
    def test_start_of_the_wrong_shape_rejected(self, images, start, expected):
        ds = _small_synth(0)
        data = TrainData(ds.texts, ds.images[:images], ds.pairs)
        with pytest.raises(ValueError, match=re.escape(expected)):
            train(data, Hyperparameters(max_iter=5), **start)

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
        # normalize stacks the corpora first; its error must be training's.
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


def _fit_both(monkeypatch, fit, *args, **kwargs):
    """Run a trainer on the solver's loop, then on the uncached reference loop."""
    fast = fit(*args, **kwargs)
    with monkeypatch.context() as mp:
        mp.setattr(solver, "_train_loop", reference_train_loop)
        mp.setattr(zeroshot, "_train_loop", reference_train_loop)
        ref = fit(*args, **kwargs)
    return fast, ref


def _assert_same_fit(fast, ref):
    (model, report), (ref_model, ref_report) = fast, ref
    assert report.iterations == ref_report.iterations
    assert report.stop_reason == ref_report.stop_reason
    assert report.final_rank == ref_report.final_rank
    _assert_close(report.objective_trace, ref_report.objective_trace)
    _assert_close(report.alpha_peak, ref_report.alpha_peak)
    _assert_close(model.S, ref_model.S)
    _assert_close(model.alpha, ref_model.alpha)


def _small_synth(seed, **kw):
    cfg = dict(p=20, q=15, r_true=4, n_texts=80, m_images=30, l_pairs=400, n_test=100)
    cfg.update(kw)
    return generate(SynthConfig(seed=seed, **cfg))


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

    def test_warm_start(self, monkeypatch):
        ds = _small_synth(3)
        data = TrainData(ds.texts, ds.images, ds.pairs)
        warm, _ = train(data, Hyperparameters(max_iter=10))
        hyper = Hyperparameters(max_iter=60)
        _assert_same_fit(*_fit_both(
            monkeypatch, train, data, hyper, init_S=warm.S, init_alpha=warm.alpha + 0.5
        ))

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
        # S probe's terms; only the starting point adds one of each. An S
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
        ds = _small_synth(0)
        _, report = train(TrainData(ds.texts, ds.images, ds.pairs), Hyperparameters(max_iter=20))
        assert calls["prox_step"] >= report.iterations
        assert report.iterations + 1 <= calls["misalign"] <= calls["prox_step"] + 1
        assert calls["misalign"] < calls["prox_step"]
        assert calls["svd"] == calls["prox_step"] + 1

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
    """C enters a fit only through project_alpha's clip to [0, C], so a fit at
    any C at or above its alpha_peak runs the same path."""

    def fit(self, seed, C=50.0, init_alpha=None):
        ds = _small_synth(seed)
        hyper = Hyperparameters(gamma=0.7, lam=1.3, C=C, max_iter=40)
        return train(TrainData(ds.texts, ds.images, ds.pairs), hyper, init_alpha=init_alpha)

    @pytest.mark.parametrize("seed", range(4))
    def test_fits_at_C_above_the_peak_are_identical(self, seed):
        model, report = self.fit(seed)
        assert 0.0 < report.alpha_peak < 50.0
        assert np.max(model.alpha) <= report.alpha_peak
        for C in (report.alpha_peak, 2.0 * report.alpha_peak, 1e6):
            other, other_report = self.fit(seed, C)
            assert np.array_equal(other.S, model.S)
            assert np.array_equal(other.alpha, model.alpha)
            assert other_report.objective_trace == report.objective_trace
            assert other_report.alpha_peak == report.alpha_peak

    def test_peak_is_the_largest_value_projected(self, monkeypatch):
        # Rejected alpha probes count as well as accepted ones.
        seen = []

        def recording(alpha, C):
            seen.append(float(np.max(alpha, initial=0.0)))
            return project_alpha(alpha, C)

        monkeypatch.setattr(solver, "project_alpha", recording)
        _, report = self.fit(0, init_alpha=np.full(30, 0.2))
        assert len(seen) > report.iterations + 1
        assert report.alpha_peak == max(seen)

    def test_peak_counts_the_start(self):
        _, report = self.fit(1, C=2.0, init_alpha=np.full(30, 7.0))
        assert report.alpha_peak >= 7.0

    def test_zero_without_alpha(self):
        ds = _small_synth(2)
        _, report = train(TrainData(ds.texts, [], ds.pairs), Hyperparameters(max_iter=5))
        assert report.alpha_peak == 0.0
        ds = _small_synth(2, classes=3)
        data = TrainData(ds.texts, ds.images, ds.pairs)
        assert train_zeroshot(data, {"c2"}, Hyperparameters(max_iter=5))[1].alpha_peak == 0.0


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
    )
    def test_floor_below_misalignment_at_probe(self, seed, scale, step):
        rng = np.random.default_rng(seed)
        data, hyper, _, alpha = random_instance(rng, l=8)
        S = scale * rng.standard_normal((3, 4))
        S_probe = S + step * max(scale, 1.0) * rng.standard_normal((3, 4))
        pb, cur, F, _ = evaluate_at(S, alpha, data, hyper)
        _, probe, _, _ = evaluate_at(S_probe, alpha, data, hyper)
        _, g_pair = solver._grad_S(cur, F, pb, hyper)
        gap = probe.misalign_term - solver._misalign_floor(cur, g_pair, probe.S - cur.S)
        assert gap >= 0.0
        if step <= 1e-8:
            # A tangent bound is tight to first order in the step.
            assert gap <= 1e-6 * max(1.0, probe.misalign_term)
