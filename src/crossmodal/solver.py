"""Alternating optimizer for the joint objective: singular-value-thresholding
prox steps on the transfer matrix S and projected-gradient steps on the box
constrained alpha coefficients, both with backtracking so the objective never
increases."""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field, fields
from typing import NamedTuple

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
# far above the float64 error of the l-term sums on either side of the bound.
_FLOOR_RTOL = 1e-9
# Largest feature magnitude, and largest bound 2 l max|P_x| max|P_z| on the
# float32 gradient's products and partial sums, for which the loop uses it:
# far enough below the float32 maximum (3.4e38) that nothing overflows.
_FLOAT32_LIMIT = 1e30
_U32 = 2.0**-24  # unit roundoff of float32


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


class _State(NamedTuple):
    """The training loop's state at the start of an iteration. A report's
    `fork` is one, and holds no (n, m) or (l,) array."""

    iteration: int
    factors: linalg.SvdResult  # S = U diag(sigma) V'
    alpha: np.ndarray
    L: float
    eps: float
    float64_from: int | None  # None while the S step is float32 (`_train_loop`)


@dataclass
class TrainReport:
    stop_reason: str  # "tol", "max_iter", or "linesearch" (no step could be accepted)
    final_rank: int
    objective_trace: list[float]
    # The first iteration whose S step took the float64 pair gradient: 1 when
    # the fit never used float32, None when every iteration did.
    float64_from: int | None
    # The state at the start of the iteration whose alpha step first proposed
    # a value above C, where a larger C first parts from this fit: a fit
    # without a fork (alpha off, or no alpha probe above C) is also the fit
    # at every larger C.
    fork: _State | None = None

    @property
    def iterations(self) -> int:
        return len(self.objective_trace) - 1

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tol"

    @property
    def final_objective(self) -> float:
        return self.objective_trace[-1]


@dataclass(frozen=True)
class _Float32Pairs:
    """Float32 copies of the pair features, which the S step's pair gradient
    is formed from, and the terms of the bound on that gradient's rounding
    error (`_grad_S`). The copies are row-major, whatever the layout of the
    float64 pairs, so the gradient's product reads them as it always has."""

    X: np.ndarray   # (l, p) float32, C-contiguous
    Z: np.ndarray   # (l, q) float32, C-contiguous
    scale: float    # gamma_{l+5} sum_k ||x_k|| ||z_k||
    tiny: float     # Frobenius bound of the roundings below float32's normal range


def _float32_pairs(pair_X: np.ndarray, pair_Z: np.ndarray) -> _Float32Pairs | None:
    """The float32 form of the pairs, or None when there are no pairs, when
    float32 cannot hold the gradient's products (see `_FLOAT32_LIMIT`) or when
    l is so large that the error bound below is void.

    The float32 gradient P_x' diag(d) P_z is within max|d| scale + tiny of the
    exact one in Frobenius norm. Each entry takes three casts and two products
    per term and l - 1 roundings to sum the l terms, so it is within
    gamma_{l+4} max|d| W, W = |P_x|' |P_z| (Higham 2002, sections 2.2 and 3.1).
    W sums the rank-one |x_k| |z_k|', so ||W||_F <= sum_k ||x_k|| ||z_k||
    (triangle inequality), and the error costs a step delta at most its norm
    times ||delta||_F (Cauchy-Schwarz; see `_misalign_floor`). One more unit
    in gamma covers the float64 rounding of the norms and of the margin.
    Roundings below float32's normal range (where every entry whose float64
    square underflows is cast) add at most 2^-148 (1 + |x_k|)(1 + |z_k|) per
    term (|d| < 2; a sum that lands there is exact); `tiny` bounds their
    total in an entry with room to spare, times sqrt(p q)."""
    (l, p), q = pair_X.shape, pair_Z.shape[1]
    if l == 0 or (l + 5) * _U32 >= 0.5:
        return None
    mx, mz = (float(max(A.max(initial=0.0), -A.min(initial=0.0))) for A in (pair_X, pair_Z))
    if not (max(mx, mz) < _FLOAT32_LIMIT and 2.0 * l * mx * mz < _FLOAT32_LIMIT):
        return None
    nx, nz = (np.sqrt(np.einsum("kj,kj->k", A, A)) for A in (pair_X, pair_Z))
    return _Float32Pairs(
        X=np.ascontiguousarray(pair_X, dtype=np.float32),
        Z=np.ascontiguousarray(pair_Z, dtype=np.float32),
        scale=(l + 5) * _U32 / (1.0 - (l + 5) * _U32) * float(nx @ nz),
        tiny=l * 2.0**-146 * (1.0 + mx) * (1.0 + mz) * (p * q)**0.5,
    )


@dataclass
class _Problem:
    """Array form of the smooth objective part, with the texts and images the
    model keeps and the forks of the fits made on it.

    The hinge term supports several one-vs-rest labelings ("blocks") sharing one
    S over the same texts and images; ordinary binary training is the single
    block case. Alpha, when enabled, attaches to the first block.
    """

    text_X: np.ndarray   # (n, p)
    text_Y: np.ndarray   # (n, B) labels per block
    img_Z: np.ndarray    # (m, q)
    img_Y: np.ndarray    # (m, B)
    pair_X: np.ndarray   # (l, p), F-contiguous: feature-major for `_pair_terms`
    pair_Z: np.ndarray   # (l, q), F-contiguous
    K: np.ndarray | None  # (m, m) kernel Gram matrix; None (as when m = 0) disables alpha
    kernel: KernelSpec | None  # the resolved kernel K was built with
    pair32: _Float32Pairs | None  # None keeps the float64 pair gradient
    texts: list[CorpusExample]
    images: list[CorpusExample]
    data: weakref.ref        # to the TrainData it was built from
    hyper: Hyperparameters   # the hyperparameters it was built at
    # Per hyperparameters other than C, the (C, report) of every fit of this
    # problem whose report has a fork (`_fit`).
    forks: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.text_X.shape[0]

    @property
    def m(self) -> int:
        return self.img_Z.shape[0]


def _build_problem(data: TrainData, text_Y, img_Y, kernel: KernelSpec | None,
                   hyper: Hyperparameters) -> _Problem:
    """Stack the corpora of `data` into arrays, with (n, B) and (m, B) label
    blocks for texts and images, and keep the texts and images as the model
    keeps them.

    Every text is stacked, so every text's width is checked, but a text whose
    label row is all zero is left out of the problem. The pairs are stacked
    feature-major (column-major), in one allocation. `hyper.normalize`
    L2-normalizes the stacked rows, and `pair32` is built only when lam > 0.
    A `kernel` of None leaves alpha off.

    p is the width of the texts, else of the pairs' texts, else 0; q is the
    width of the images, else of the pairs' images."""
    texts, images, pairs = data.source_texts, data.train_images, data.pairs
    if not images and not pairs:
        raise DataError("no images or pairs to infer the image dimension q")
    p = texts[0].features.shape[0] if texts else pairs[0].text_features.shape[0] if pairs else 0
    q = images[0].features.shape[0] if images else pairs[0].image_features.shape[0]
    text_X = stack_features(texts, p, "source text")
    img_Z = stack_features(images, q, "training image")
    pair_X = stack_rows([c.text_features for c in pairs], p, lambda k: f"pair {k} text", "F")
    pair_Z = stack_rows([c.image_features for c in pairs], q, lambda k: f"pair {k} image", "F")
    if hyper.normalize:
        text_X, img_Z, pair_X, pair_Z = map(normalize_rows, (text_X, img_Z, pair_X, pair_Z))
        texts = [CorpusExample(e.id, x, e.label) for e, x in zip(texts, text_X)]
        images = [CorpusExample(e.id, z, e.label) for e, z in zip(images, img_Z)]
    if kernel is not None and kernel.kind == "gaussian" and kernel.bandwidth is None:
        # Median heuristic; one training image gives K(z, z) = 1 for any bandwidth.
        bandwidth = median_bandwidth(img_Z) if img_Z.shape[0] >= 2 else 1.0
        kernel = KernelSpec(kind="gaussian", bandwidth=bandwidth)
    K = kernel_matrix(kernel, img_Z, img_Z) if kernel is not None and img_Z.shape[0] > 0 else None
    labelled = np.any(text_Y != 0, axis=1)
    return _Problem(
        text_X=text_X[labelled],
        text_Y=text_Y[labelled],
        img_Z=img_Z,
        img_Y=img_Y,
        pair_X=pair_X,
        pair_Z=pair_Z,
        K=K,
        kernel=kernel,
        pair32=_float32_pairs(pair_X, pair_Z) if hyper.lam > 0 else None,
        texts=texts,
        images=images,
        data=weakref.ref(data),
        hyper=hyper,
    )


@dataclass
class _Iterate:
    """Everything the smooth objective needs of one S, computed once per S:
    alpha probes and the gradients at an accepted S reuse it.

    `_text_terms` fills the terms of the texts and images; `_pair_terms` adds
    those of the pairs, which an S probe the lower bound rejects never needs.
    """

    S: np.ndarray
    factors: linalg.SvdResult  # S = U diag(sigma) V' over the nonzero sigma,
                               # whose sum is the trace norm
    US: np.ndarray       # (p, r) U diag(sigma)
    T: np.ndarray        # (n, m) tanh(X S Z')
    F_inter: np.ndarray  # (B, m) text_Y' T, the intermodal margins of each block
    a: np.ndarray | None = None            # (l,) pair scores x_k' S z_k
    misalign_term: float | None = None     # lam * sum_k misalign(a_k)


def _text_terms(factors: linalg.SvdResult, pb: _Problem) -> _Iterate:
    """The iterate S = U diag(s) V' without its pair terms, with its products
    taken through the rank-r factors: O((n + m)(p + q) r) instead of O(n p q)."""
    US = factors.U * factors.sigma
    V = factors.V
    T = (pb.text_X @ US) @ (pb.img_Z @ V).T
    np.tanh(T, out=T)
    return _Iterate(S=US @ V.T, factors=factors, US=US, T=T, F_inter=pb.text_Y.T @ T)


def _pair_terms(it: _Iterate, pb: _Problem, hyper: Hyperparameters) -> _Iterate:
    """Add the pair scores and the misalignment term to `it`, in place:
    O(l (p + q) r) instead of O(l p q). The scores are the column sums of
    (US' P_x') * (V' P_z'), two wide (r, l) products over the feature-major
    pairs. At lam = 0 the term is 0.0 and no score is formed: nothing reads
    `it.a` then, since `_grad_S` checks lam first."""
    if hyper.lam == 0:
        it.misalign_term = 0.0
        return it
    prod = it.US.T @ pb.pair_X.T
    prod *= it.factors.V.T @ pb.pair_Z.T
    it.a = prod.sum(axis=0)
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


def _misalign_floor(cur: _Iterate, g_pair: np.ndarray, g_err: float, delta: np.ndarray,
                    delta_sq: float) -> float:
    """A lower bound on the misalignment term at cur.S + delta, from cur alone.

    misalign is convex and each pair score is linear in S, so the term lies
    above its tangent at cur: M(cur.S + delta) >= M(cur.S) + <grad M, delta>,
    with grad M = g_pair up to g_err in Frobenius norm (see `_grad_S`), which
    costs at most g_err ||delta||_F, with `delta_sq` = ||delta||_F^2. The
    relative margin covers the float64 rounding of both sides; its unit floor
    covers the absolute error of tanh(a) - 1 where tanh saturates."""
    step = float(np.vdot(g_pair, delta))
    scale = max(1.0, abs(cur.misalign_term) + abs(step))
    return cur.misalign_term + step - _FLOOR_RTOL * scale - g_err * delta_sq**0.5


def _grad_S(it: _Iterate, F, pb: _Problem, hyper: Hyperparameters, float32: bool = False):
    """The gradient of the smooth objective in S, its misalignment part
    lam P_x' diag(tanh(a) - 1) P_z alone (zero without pairs or lam), and a
    bound g_err on the Frobenius norm of that part's float32 rounding error.

    The hinge half X' (M * (1 - T^2)) Z, M = text_Y G, is formed over the
    images A whose subgradient G is nonzero in some block, O(p n |A| + p |A| q):
    the other columns of M are exact zeros. With A empty it is skipped.

    With `float32` (which needs pb.pair32) the misalignment part is one
    float32 product of the float32 pair features, returned as float64, and
    g_err = lam (max|d| scale + tiny) (see `_float32_pairs`). Otherwise all of
    it is float64 and g_err is 0.0."""
    grad = np.zeros_like(it.S)
    g_pair = np.zeros_like(it.S)
    g_err = 0.0
    if hyper.gamma > 0 and pb.n > 0 and pb.m > 0:
        yf = pb.img_Y.T * F                       # (B, m)
        G = hyper.gamma * hinge_subgrad(yf) * pb.img_Y.T
        A = np.flatnonzero(np.any(G != 0, axis=0))
        if A.size:
            M = pb.text_Y @ G[:, A]               # (n, |A|)
            grad += pb.text_X.T @ (M * (1.0 - it.T[:, A]**2)) @ pb.img_Z[A]
    if hyper.lam > 0 and pb.pair_X.shape[0] > 0:
        d = misalign_deriv(it.a)
        if float32:
            p32 = pb.pair32
            g32 = p32.X.T @ (d.astype(np.float32)[:, None] * p32.Z)
            g_pair = hyper.lam * g32.astype(float)
            g_err = hyper.lam * (float(np.max(np.abs(d))) * p32.scale + p32.tiny)
        else:
            g_pair = hyper.lam * pb.pair_X.T @ (d[:, None] * pb.pair_Z)
        grad += g_pair
    if not np.all(np.isfinite(grad)):
        raise NumericalError("gradient in S is non-finite")
    return grad, g_pair, g_err


def _grad_alpha(F, pb: _Problem, hyper: Hyperparameters) -> np.ndarray:
    """y * (K c), c = gamma hinge'(y F) y: one dense product, which up to a few
    hundred images is faster than gathering the columns where c is nonzero."""
    y = pb.img_Y[:, 0]
    c = hyper.gamma * np.asarray(hinge_subgrad(y * F[0])) * y
    grad = y * (pb.K @ c)
    if not np.all(np.isfinite(grad)):
        raise NumericalError("gradient in alpha is non-finite")
    return grad


def prox_step(S_tau: np.ndarray, grad: np.ndarray, L: float,
              ray: linalg.SvdResult | None = None) -> linalg.SvdResult:
    """Minimize the quadratic majorizer plus trace norm: svt(S - grad/L, 1/L),
    as the thin factors of its nonzero singular values.

    `ray`, the SVD U diag(sigma) V' of -grad when S_tau is zero, stands in
    for the SVD: svt(-grad/L, 1/L) = U diag((sigma - 1)+ / L) V'. Scaling by
    a power of two is exact, so for such an L the result is the one without
    `ray`, bit for bit."""
    if L <= 0:
        raise ValueError("L must be positive")
    if ray is None:
        return linalg.shrink(linalg.svd(S_tau - grad / L), 1.0 / L)
    out = linalg.shrink(ray, 1.0)
    return linalg.SvdResult(U=out.U, sigma=out.sigma / L, V=out.V)


def project_alpha(alpha, C: float) -> np.ndarray:
    """Clamp each coefficient into [0, C]."""
    if C <= 0:
        raise ValueError("C must be positive")
    return np.clip(np.asarray(alpha, dtype=float), 0.0, C)


# Training loop ----------------------------------------------------------------

def _train_loop(pb: _Problem, hyper: Hyperparameters, log=None,
                resume: TrainReport | None = None):
    """Alternating prox/projected-gradient loop over the array problem.

    Each S probe evaluates its text terms once (`_text_terms`). It adds its
    pair terms (`_pair_terms`) only when the hinge value plus a lower bound on
    the misalignment term (`_misalign_floor`) passes the acceptance test, so a
    probe this skips would have failed it too. Each alpha probe adds only
    K(alpha * y) to the accepted S's terms. `cur`, `F` and `f` always hold the
    accepted iterate, its margins and its smooth value. `log`, when given,
    receives one CSV line per iteration: iteration, objective, rank, L, eps.

    The S step takes the float32 pair gradient (`_grad_S`) while pb.pair32
    allows it. The acceptance test stays float64, so any gradient keeps the
    step monotone. An iteration that would stop the fit on it, for tol or a
    failed line search, instead moves the loop to the float64 gradient for
    the rest of the fit, so only a float64 iteration reports such a stop.

    The report's `fork` is the state at the start of the iteration of the
    first alpha probe above C. `resume`, a report of this problem with a fork
    at a smaller C and every other hyperparameter equal (see `_fit`), starts
    the loop from the fork and the trace before it, not S = 0, alpha = 0:
    `cur`, `F` and `f` are functions of S's factors and alpha, so they come
    out as the fit from the start had them, which the objective at the fork
    checks (a problem whose arrays changed since fails it).
    """
    if resume is None:
        p, q = pb.text_X.shape[1], pb.img_Z.shape[1]
        zero = linalg.SvdResult(U=np.zeros((p, 0)), sigma=np.zeros(0), V=np.zeros((q, 0)))
        state = _State(1, zero, np.zeros(pb.m if pb.K is not None else 0), _L0, _EPS_ALPHA0,
                       None if pb.pair32 is not None else 1)
    else:
        state = resume.fork
    first, factors, alpha, L, eps, float64_from = state
    trace = [] if resume is None else resume.objective_trace[:first - 1]
    cur = _pair_terms(_text_terms(factors, pb), pb, hyper)
    F, h = _hinge_term(cur, alpha, pb, hyper)
    f = h + cur.misalign_term
    if not np.isfinite(f):
        raise NumericalError("smooth objective is non-finite")
    trace.append(f + float(np.sum(cur.factors.sigma)))
    if resume is not None and trace[-1] != resume.objective_trace[first - 1]:
        raise ValueError(f"resume: the objective at the fork is {trace[-1]!r}, not the fit's")
    stop_reason = "max_iter"
    fork = None

    for it in range(first, hyper.max_iter + 1):
        start = _State(it, cur.factors, alpha, L, eps, float64_from)
        if it > 1:
            L = max(L / 2.0, 1e-12)       # recovery probe: try a bolder step
            eps = min(eps * 2.0, 1e12)

        # S step: backtrack on L until the quadratic majorizer holds.
        g, g_pair, g_err = _grad_S(cur, F, pb, hyper, float64_from is None)
        # From S = 0 every probe is a scaling of one SVD (`prox_step`).
        ray = linalg.svd(cur.S - g) if cur.factors.sigma.size == 0 else None
        moved = False
        for _ in range(_MAX_BACKTRACKS):
            cand = _text_terms(prox_step(cur.S, g, L, ray), pb)
            delta = cand.S - cur.S
            dd = float(np.vdot(delta, delta))
            bound = f + float(np.vdot(g, delta)) + 0.5 * L * dd
            F_cand, h_cand = _hinge_term(cand, alpha, pb, hyper)
            if h_cand + _misalign_floor(cur, g_pair, g_err, delta, dd) <= bound + _ACCEPT_SLACK:
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
                if fork is None and np.max(step) > hyper.C:
                    fork = start
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

        obj = f + float(np.sum(cur.factors.sigma))
        if not np.isfinite(obj):
            raise NumericalError(f"objective became non-finite at iteration {it}")
        trace.append(obj)
        if log is not None:
            log(f"{it},{obj:.12g},{linalg.sigma_rank(cur.factors.sigma)},{L:.6g},{eps:.6g}")
        if moved and abs(trace[-2] - trace[-1]) / max(1.0, abs(trace[-2])) >= hyper.tol:
            continue
        if float64_from is None:
            # A switch on the last iteration leaves no float64 iteration.
            float64_from = it + 1 if it < hyper.max_iter else None
            continue
        # Without a move both line searches ran out: the iterate and the
        # objective are unchanged, which is not convergence.
        stop_reason = "tol" if moved else "linesearch"
        break

    report = TrainReport(
        stop_reason=stop_reason,
        final_rank=linalg.sigma_rank(cur.factors.sigma),
        objective_trace=trace,
        float64_from=float64_from,
        fork=fork,
    )
    return cur.S, alpha, report


def _fit(pb: _Problem, hyper: Hyperparameters, log=None):
    """Fit the problem `pb` (see `_build_problem`) and return (TrainedModel,
    TrainReport). With a kernel, alpha is learned and the model keeps the
    training images and the resolved kernel; without, it keeps no images and
    `hyper.kernel`.

    A fit at C runs the path of a fit at a smaller C, every other
    hyperparameter equal, up to that fit's fork, so the fit continues from
    the fork of the largest such C in `pb.forks` (`_train_loop`), and
    records its own fork there."""
    key = tuple(getattr(hyper, f.name) for f in fields(hyper) if f.name != "C")
    forks = pb.forks.setdefault(key, [])
    _, resume = max((fork for fork in forks if fork[0] < hyper.C), key=lambda fork: fork[0],
                    default=(None, None))
    S, alpha, report = _train_loop(pb, hyper, log, resume)
    if report.fork is not None:
        forks.append((hyper.C, report))
    model = TrainedModel(
        S=S,
        alpha=alpha,
        source_texts=pb.texts,
        train_images=pb.images if pb.kernel is not None else [],
        kernel=pb.kernel if pb.kernel is not None else hyper.kernel,
        hyper=hyper,
        final_objective=report.final_objective,
    )
    return model, report


def binary_problem(data: TrainData, hyper: Hyperparameters) -> _Problem:
    """Stack, normalize and label the corpora of `data` for a binary fit at
    `hyper`: the texts' and images' +1/-1 labels are the one label block, and
    `hyper.kernel` (its bandwidth resolved) gives the Gram matrix. The problem
    depends on `hyper` only through `kernel`, `normalize` and whether lam > 0,
    so fits of the same data that agree on these can share it
    (`train(..., problem=)`)."""
    text_Y = signs(data.source_texts, "source text")[:, None]
    img_Y = signs(data.train_images, "training image")[:, None]
    return _build_problem(data, text_Y, img_Y, hyper.kernel, hyper)


def _check_problem(problem: _Problem, data: TrainData, hyper: Hyperparameters):
    """Raise ValueError unless `problem` is the one `binary_problem` builds
    for `data` at `hyper`."""
    if problem.data() is not data:
        raise ValueError("problem: it was built from another data object")
    built = problem.hyper
    differ = [name for name, ours, theirs in (
        ("kernel", hyper.kernel, built.kernel),
        ("normalize", hyper.normalize, built.normalize),
        ("lam > 0", hyper.lam > 0, built.lam > 0),
    ) if ours != theirs]
    if differ:
        raise ValueError(f"problem: {', '.join(differ)} differ from the problem's")


def train(data: TrainData, hyper: Hyperparameters, log=None, *, problem: _Problem | None = None):
    """Run the alternating optimization from S = 0, alpha = 0.

    Returns (TrainedModel, TrainReport). The objective trace is non-increasing
    up to floating-point slack; convergence means the relative decrease dropped
    below hyper.tol before max_iter, with an accepted step in that iteration.
    `log`, when given, receives one line per iteration (see `_train_loop`);
    None trains silently.

    `problem`, built by `binary_problem` from this same `data` object at the
    same `kernel`, `normalize` and lam > 0 (else ValueError), is fitted as it
    is; without it the fit builds its own. Several fits can share it: it
    holds the data as they were when it was built, and the forks of its fits,
    so a fit at a larger C continues an earlier one from its fork (`_fit`)
    and returns exactly what a fit from the start returns, without rerunning
    the iterations before the fork (`log` receives lines from there on).
    """
    if problem is None:
        problem = binary_problem(data, hyper)
    else:
        _check_problem(problem, data, hyper)
    return _fit(problem, hyper, log)
