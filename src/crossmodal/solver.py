"""Alternating optimizer for the joint objective: singular-value-thresholding
prox steps on the transfer matrix S and projected-gradient steps on the box
constrained alpha coefficients, both with backtracking so the objective never
increases."""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .errors import DataError, NumericalError
from .losses import hinge, hinge_subgrad, misalign, misalign_deriv
from .model import (
    CooccurrencePair,
    CorpusExample,
    Hyperparameters,
    KernelSpec,
    TrainedModel,
    kernel_matrix,
    median_bandwidth,
    normalize_rows,
    signs,
    stack_features,
    stack_rows,
)

# Backtracking step controls (Beck & Teboulle 2009): the first curvature
# estimate of the S step, the first step size of the alpha step, and the factor
# a rejected probe scales them by.
_L0 = 1.0
_EPS_ALPHA0 = 0.1
_ETA = 2.0
_MAX_BACKTRACKS = 100
_ACCEPT_SLACK = 1e-12
# Relative rounding margin of the misalignment lower bound (`_misalign_floor`),
# far above the float error of the l-term sums on either side of the bound.
_FLOOR_RTOL = 1e-9


@dataclass
class TrainData:
    """Labeled text corpus, labeled image set, and co-occurrence pairs.

    The feature widths p and q come from the data. With no texts and no pairs
    (the intramodal-only baseline) the intermodal term is zero and S has no
    rows.
    """

    source_texts: list[CorpusExample] = field(default_factory=list)
    train_images: list[CorpusExample] = field(default_factory=list)
    pairs: list[CooccurrencePair] = field(default_factory=list)


@dataclass
class TrainReport:
    stop_reason: str  # "tol", "max_iter", or "linesearch" (no step could be accepted)
    iterations: int
    final_rank: int
    objective_trace: list[float]
    # The largest value the fit passed to `project_alpha` (its start and every
    # alpha probe, accepted or not); 0.0 with alpha off. C enters a fit only
    # through that clip, so a fit at any C >= alpha_peak runs the same path.
    alpha_peak: float

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tol"

    @property
    def final_objective(self) -> float:
        return self.objective_trace[-1]


@dataclass
class _Problem:
    """Array form of the smooth objective part.

    The hinge term supports several one-vs-rest labelings ("blocks") sharing one
    S over the same texts and images; ordinary binary training is the single
    block case. Alpha, when enabled, attaches to the first block.
    """

    text_X: np.ndarray   # (n, p)
    text_Y: np.ndarray   # (n, B) labels per block
    img_Z: np.ndarray    # (m, q)
    img_Y: np.ndarray    # (m, B)
    pair_X: np.ndarray   # (l, p)
    pair_Z: np.ndarray   # (l, q)
    K: np.ndarray | None  # (m, m) kernel Gram matrix; None (as when m = 0) disables alpha
    kernel: KernelSpec | None  # the resolved kernel K was built with

    @property
    def n(self) -> int:
        return self.text_X.shape[0]

    @property
    def m(self) -> int:
        return self.img_Z.shape[0]


def _build_problem(data: TrainData, text_Y, img_Y, kernel: KernelSpec | None) -> _Problem:
    """Stack the corpora of `data` into arrays, with (n, B) and (m, B) label
    blocks for texts and images. A `kernel` of None leaves alpha off.

    p is the width of the texts, else of the pairs' texts, else 0; q is the
    width of the images, else of the pairs' images."""
    texts, images, pairs = data.source_texts, data.train_images, data.pairs
    if not images and not pairs:
        raise DataError("no images or pairs to infer the image dimension q")
    p = texts[0].features.shape[0] if texts else pairs[0].text_features.shape[0] if pairs else 0
    q = images[0].features.shape[0] if images else pairs[0].image_features.shape[0]
    text_X = stack_features(texts, p, "source text")
    img_Z = stack_features(images, q, "training image")
    pair_X = stack_rows([c.text_features for c in pairs], p, lambda k: f"pair {k} text")
    pair_Z = stack_rows([c.image_features for c in pairs], q, lambda k: f"pair {k} image")
    if kernel is not None and kernel.kind == "gaussian" and kernel.bandwidth is None:
        # Median heuristic; one training image gives K(z, z) = 1 for any bandwidth.
        bandwidth = median_bandwidth(img_Z) if img_Z.shape[0] >= 2 else 1.0
        kernel = KernelSpec(kind="gaussian", bandwidth=bandwidth)
    K = kernel_matrix(kernel, img_Z, img_Z) if kernel is not None and img_Z.shape[0] > 0 else None
    return _Problem(
        text_X=text_X,
        text_Y=text_Y,
        img_Z=img_Z,
        img_Y=img_Y,
        pair_X=pair_X,
        pair_Z=pair_Z,
        K=K,
        kernel=kernel,
    )


@dataclass
class _Iterate:
    """Everything the smooth objective needs of one S, computed once per S:
    alpha probes and the gradients at an accepted S reuse it.

    `_text_terms` fills the terms of the texts and images; `_pair_terms` adds
    those of the pairs, which an S probe the lower bound rejects never needs.
    """

    S: np.ndarray
    sigma: np.ndarray    # the nonzero singular values of S; their sum is the trace norm
    US: np.ndarray       # (p, r) U diag(sigma)
    V: np.ndarray        # (q, r), so that S = US V'
    T: np.ndarray        # (n, m) tanh(X S Z')
    F_inter: np.ndarray  # (B, m) text_Y' T, the intermodal margins of each block
    a: np.ndarray | None = None            # (l,) pair scores x_k' S z_k
    misalign_term: float | None = None     # lam * sum_k misalign(a_k)


def _text_terms(factors: linalg.SvdResult, pb: _Problem) -> _Iterate:
    """The iterate S = U diag(s) V' without its pair terms, with its products
    taken through the rank-r factors: O((n + m)(p + q) r) instead of O(n p q)."""
    US = factors.U * factors.sigma
    V = factors.V
    T = np.tanh((pb.text_X @ US) @ (pb.img_Z @ V).T)
    return _Iterate(S=US @ V.T, sigma=factors.sigma, US=US, V=V, T=T, F_inter=pb.text_Y.T @ T)


def _pair_terms(it: _Iterate, pb: _Problem, hyper: Hyperparameters) -> _Iterate:
    """Add the pair scores and the misalignment term to `it`, in place:
    O(l (p + q) r) instead of O(l p q)."""
    it.a = np.einsum("ij,ij->i", pb.pair_X @ it.US, pb.pair_Z @ it.V)
    it.misalign_term = hyper.lam * float(np.sum(misalign(it.a)))
    if not np.isfinite(it.misalign_term):
        raise NumericalError("smooth objective is non-finite")
    return it


def _hinge_term(it: _Iterate, alpha, pb: _Problem, hyper: Hyperparameters):
    """Per-block discriminant values F = f_b(z_j), shape (B, m), and the hinge
    part of the smooth objective at (S, alpha). Beyond the cached terms of S
    this costs one K(alpha * y), O(m^2)."""
    F = it.F_inter.copy()
    if pb.K is not None and alpha.size:
        F[0] += pb.K @ (alpha * pb.img_Y[:, 0])
    total = hyper.gamma * float(np.sum(hinge(pb.img_Y.T * F)))
    if not np.isfinite(total):
        raise NumericalError("smooth objective is non-finite")
    return F, total


def _misalign_floor(cur: _Iterate, g_pair: np.ndarray, delta: np.ndarray) -> float:
    """A lower bound on the misalignment term at cur.S + delta, from cur alone.

    misalign is convex and each pair score is linear in S, so the term lies
    above its tangent at cur: M(cur.S + delta) >= M(cur.S) + <grad M, delta>,
    with grad M = g_pair. The margin covers the rounding of both sides; its
    unit floor covers the absolute error of tanh(a) - 1 where tanh saturates."""
    step = float(np.vdot(g_pair, delta))
    scale = max(1.0, abs(cur.misalign_term) + abs(step))
    return cur.misalign_term + step - _FLOOR_RTOL * scale


def _grad_S(it: _Iterate, F, pb: _Problem, hyper: Hyperparameters):
    """The gradient of the smooth objective in S, and its misalignment part
    lam P_x' diag(tanh(a) - 1) P_z alone (zero without pairs or lam)."""
    grad = np.zeros_like(it.S)
    g_pair = np.zeros_like(it.S)
    if hyper.gamma > 0 and pb.n > 0 and pb.m > 0:
        yf = pb.img_Y.T * F                       # (B, m)
        G = hyper.gamma * hinge_subgrad(yf) * pb.img_Y.T
        M = pb.text_Y @ G                         # (n, m)
        grad += pb.text_X.T @ (M * (1.0 - it.T**2)) @ pb.img_Z
    if hyper.lam > 0 and pb.pair_X.shape[0] > 0:
        d = misalign_deriv(it.a)
        g_pair = hyper.lam * pb.pair_X.T @ (d[:, None] * pb.pair_Z)
        grad += g_pair
    if not np.all(np.isfinite(grad)):
        raise NumericalError("gradient in S is non-finite")
    return grad, g_pair


def _grad_alpha(F, pb: _Problem, hyper: Hyperparameters) -> np.ndarray:
    y = pb.img_Y[:, 0]
    c = hyper.gamma * np.asarray(hinge_subgrad(y * F[0])) * y
    grad = y * (pb.K @ c)
    if not np.all(np.isfinite(grad)):
        raise NumericalError("gradient in alpha is non-finite")
    return grad


def prox_step(S_tau: np.ndarray, grad: np.ndarray, L: float) -> linalg.SvdResult:
    """Minimize the quadratic majorizer plus trace norm: svt(S - grad/L, 1/L),
    as the thin factors of its nonzero singular values."""
    if L <= 0:
        raise ValueError("L must be positive")
    return linalg.svt_factors(S_tau - grad / L, 1.0 / L)


def project_alpha(alpha, C: float) -> np.ndarray:
    """Clamp each coefficient into [0, C]."""
    if C <= 0:
        raise ValueError("C must be positive")
    return np.clip(np.asarray(alpha, dtype=float), 0.0, C)


# Training loop ----------------------------------------------------------------

def _train_loop(pb: _Problem, hyper: Hyperparameters, log=None, init_S=None, init_alpha=None):
    """Alternating prox/projected-gradient loop over the array problem.

    Each S probe evaluates its text terms once (`_text_terms`). It adds its
    pair terms (`_pair_terms`) only when the hinge value plus a lower bound on
    the misalignment term (`_misalign_floor`) passes the acceptance test, so a
    probe this skips would have failed it too. Each alpha probe adds only
    K(alpha * y) to the accepted S's terms. `cur`, `F` and `f` always hold the
    accepted iterate, its margins and its smooth value. `log`, when given,
    receives one CSV line per iteration: iteration, objective, rank, L, eps.
    `peak` tracks the largest value passed to `project_alpha`.
    """
    shape_S = (pb.text_X.shape[1], pb.img_Z.shape[1])
    shape_alpha = (pb.m if pb.K is not None else 0,)
    starts = (("init_S", init_S, shape_S), ("init_alpha", init_alpha, shape_alpha))
    for name, start, shape in starts:
        if start is not None and np.shape(start) != shape:
            raise ValueError(f"{name} has shape {np.shape(start)}, expected {shape}")
    S = np.zeros(shape_S) if init_S is None else init_S
    alpha = np.zeros(shape_alpha) if init_alpha is None else project_alpha(init_alpha, hyper.C)
    peak = 0.0 if init_alpha is None else float(np.max(init_alpha, initial=0.0))
    L = _L0
    eps = _EPS_ALPHA0
    cur = _pair_terms(_text_terms(linalg.svt_factors(S, 0.0), pb), pb, hyper)
    F, h = _hinge_term(cur, alpha, pb, hyper)
    f = h + cur.misalign_term
    if not np.isfinite(f):
        raise NumericalError("smooth objective is non-finite")
    trace = [f + float(np.sum(cur.sigma))]
    stop_reason = "max_iter"
    iterations = 0

    for it in range(1, hyper.max_iter + 1):
        iterations = it
        if it > 1:
            L = max(L / 2.0, 1e-12)       # recovery probe: try a bolder step
            eps = min(eps * 2.0, 1e12)

        # S step: backtrack on L until the quadratic majorizer holds.
        g, g_pair = _grad_S(cur, F, pb, hyper)
        moved = False
        for _ in range(_MAX_BACKTRACKS):
            cand = _text_terms(prox_step(cur.S, g, L), pb)
            delta = cand.S - cur.S
            bound = f + float(np.vdot(g, delta)) + 0.5 * L * float(np.vdot(delta, delta))
            F_cand, h_cand = _hinge_term(cand, alpha, pb, hyper)
            if h_cand + _misalign_floor(cur, g_pair, delta) <= bound + _ACCEPT_SLACK:
                f_cand = h_cand + _pair_terms(cand, pb, hyper).misalign_term
                if f_cand <= bound + _ACCEPT_SLACK:
                    cur, F, f = cand, F_cand, f_cand
                    moved = True
                    break
            L *= _ETA

        # alpha step: projected gradient with its own backtracking.
        if alpha.size:
            ga = _grad_alpha(F, pb, hyper)
            for _ in range(_MAX_BACKTRACKS):
                step = alpha - eps * ga
                peak = float(np.max(step, initial=peak))
                cand = project_alpha(step, hyper.C)
                delta = cand - alpha
                bound = f + float(ga @ delta) + float(delta @ delta) / (2.0 * eps)
                F_cand, h_cand = _hinge_term(cur, cand, pb, hyper)
                f_cand = h_cand + cur.misalign_term
                if f_cand <= bound + _ACCEPT_SLACK:
                    alpha, F, f = cand, F_cand, f_cand
                    moved = True
                    break
                eps /= _ETA

        obj = f + float(np.sum(cur.sigma))
        if not np.isfinite(obj):
            raise NumericalError(f"objective became non-finite at iteration {it}")
        trace.append(obj)
        if log is not None:
            log(f"{it},{obj:.12g},{linalg.sigma_rank(cur.sigma)},{L:.6g},{eps:.6g}")
        if not moved:
            # Both line searches ran out: the iterate and the objective are
            # unchanged, which is not convergence.
            stop_reason = "linesearch"
            break
        if abs(trace[-2] - trace[-1]) / max(1.0, abs(trace[-2])) < hyper.tol:
            stop_reason = "tol"
            break

    report = TrainReport(
        stop_reason=stop_reason,
        iterations=iterations,
        final_rank=linalg.sigma_rank(cur.sigma),
        objective_trace=trace,
        alpha_peak=peak,
    )
    return cur.S, alpha, report


def normalize_data(data: TrainData) -> TrainData:
    """L2-normalize every feature vector, returning a new TrainData; a zero
    vector stays zero, and a ragged corpus raises the DataError of training."""
    pb = _build_problem(data, None, None, kernel=None)
    X, Z, pair_X, pair_Z = map(normalize_rows, (pb.text_X, pb.img_Z, pb.pair_X, pb.pair_Z))
    return replace(
        data,
        source_texts=[CorpusExample(e.id, x, e.label) for e, x in zip(data.source_texts, X)],
        train_images=[CorpusExample(e.id, z, e.label) for e, z in zip(data.train_images, Z)],
        pairs=[CooccurrencePair(x, z, c.class_id) for c, x, z in zip(data.pairs, pair_X, pair_Z)],
    )


def train(data: TrainData, hyper: Hyperparameters, log=None, init_S=None, init_alpha=None):
    """Run the alternating optimization, by default from S = 0, alpha = 0.

    Returns (TrainedModel, TrainReport). The objective trace is non-increasing
    up to floating-point slack; convergence means the relative decrease dropped
    below hyper.tol before max_iter, with an accepted step in that iteration.
    `log`, when given, receives one line per iteration (see `_train_loop`);
    None trains silently.
    """
    if hyper.normalize:
        data = normalize_data(data)
    pb = _build_problem(
        data, signs(data.source_texts)[:, None], signs(data.train_images)[:, None], hyper.kernel
    )
    S, alpha, report = _train_loop(pb, hyper, log=log, init_S=init_S, init_alpha=init_alpha)
    model = TrainedModel(
        S=S,
        alpha=alpha,
        source_texts=data.source_texts,
        train_images=data.train_images,
        kernel=pb.kernel,
        hyper=hyper,
        final_objective=report.final_objective,
    )
    return model, report
