"""Shared independent oracles: finite differences, brute-force ranking metrics,
the per-image scalar discriminants the batched scoring path is checked
against, the per-vector L2 normalizer the row normalizer is checked against,
the dense trace norm, SVT and numerical rank, the single-block objective and
its gradients, the uncached training loop the solver's loop is checked
against, the full-grid cross-validation crossval_select is checked
against, the loop forms of the one-vs-rest label matrix, the tie ranks and
the stratified fold split, the per-example synthetic generator the block generator is checked
against, the stdlib-only JSON decoder the orjson decoder is checked against,
the record-by-record dataset and model-corpus readers the block
readers are checked against, the one-shot median bandwidth, and random small
training instances."""
import itertools
import json
from dataclasses import replace

import numpy as np

from crossmodal import data_io, linalg, solver
from crossmodal import model as model_module
from crossmodal.errors import DataError, NumericalError
from crossmodal.evaluation import error_rate
from crossmodal.losses import hinge, hinge_subgrad, misalign, misalign_deriv
from crossmodal.model import (
    CooccurrencePair,
    Corpora,
    CorpusExample,
    Hyperparameters,
    KernelSpec,
    TrainedModel,
    is_sign,
    scores,
    signs,
    stack_features,
)
from crossmodal.solver import (
    TrainData,
    TrainReport,
    _grad_alpha,
    _grad_S,
    _hinge_term,
    _pair_terms,
    _text_terms,
    binary_problem,
    project_alpha,
    train,
)
from crossmodal.synth import SynthConfig, SynthDataset, _draw_class_weights, _draw_labeled, _labels


# Scalar scoring oracles: one image, one text or one training image at a time.

def _check_dim(v: np.ndarray, dim: int, name: str):
    if v.shape != (dim,):
        raise ValueError(f"{name} has shape {v.shape}, expected ({dim},)")


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """One feature vector scaled to unit L2 norm; a zero vector stays zero."""
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    return v if norm == 0 else v / norm


def l2_normalized_data(data: TrainData) -> TrainData:
    """`data` with every feature vector normalized by `l2_normalize`."""
    def unit(examples):
        return [CorpusExample(e.id, l2_normalize(e.features), e.label) for e in examples]

    pairs = [CooccurrencePair(l2_normalize(c.text_features), l2_normalize(c.image_features),
                              c.class_id) for c in data.pairs]
    return TrainData(unit(data.source_texts), unit(data.train_images), pairs)


def transfer_score(x: np.ndarray, S: np.ndarray, z: np.ndarray) -> float:
    """Alignment of a text vector and an image vector: tanh(x' S z)."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    p, q = S.shape
    _check_dim(x, p, "text features")
    _check_dim(z, q, "image features")
    t = float(np.tanh(x @ S @ z))
    # tanh saturates to +/-1.0 in double precision around |arg| ~ 19; keep the
    # advertised open interval.
    bound = np.nextafter(1.0, 0.0)
    return min(max(t, -bound), bound)


def f_inter(S: np.ndarray, source_texts: list[CorpusExample], z: np.ndarray) -> float:
    """Intermodal discriminant: sum_i y_i * tanh(x_i' S z) over the text corpus."""
    z = np.asarray(z, dtype=float)
    p, q = S.shape
    _check_dim(z, q, "image features")
    total = 0.0
    for t in source_texts:
        _check_dim(t.features, p, "text features")
        total += float(t.label) * float(np.tanh(t.features @ S @ z))
    return total


def kernel_eval(kernel: KernelSpec, z1: np.ndarray, z2: np.ndarray) -> float:
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    if z1.shape != z2.shape:
        raise ValueError(f"kernel arguments have shapes {z1.shape} vs {z2.shape}")
    if kernel.kind == "linear":
        return float(z1 @ z2)
    if kernel.bandwidth is None:
        raise ValueError("gaussian kernel bandwidth not resolved")
    d2 = float(np.sum((z1 - z2) ** 2))
    return float(np.exp(-d2 / (2.0 * kernel.bandwidth**2)))


def f_intra(model: TrainedModel, z: np.ndarray) -> float:
    """Intramodal discriminant: sum_j y_j alpha_j K(z_j, z) over training images."""
    z = np.asarray(z, dtype=float)
    total = 0.0
    for ex, a in zip(model.train_images, model.alpha):
        total += float(ex.label) * a * kernel_eval(model.kernel, ex.features, z)
    return total


def discriminant(model: TrainedModel, z: np.ndarray) -> float:
    """Joint discriminant f_inter + f_intra for a query image."""
    z = np.asarray(z, dtype=float)
    if model.normalize:
        z = l2_normalize(z)
    return f_inter(model.S, model.source_texts, z) + f_intra(model, z)


def predict_label(model: TrainedModel, z: np.ndarray) -> int:
    """sign of the discriminant; exactly zero maps to -1 for determinism."""
    return 1 if discriminant(model, z) > 0 else -1


def one_vs_rest_texts(texts: list[CorpusExample], cls: str) -> list[CorpusExample]:
    """Relabel class-tagged texts to +1 for `cls` and -1 for everything else."""
    return [
        CorpusExample(t.id, t.features, 1 if t.label == cls else -1) for t in texts
    ]


def score_unseen(
    S: np.ndarray, class_texts: list[CorpusExample], z: np.ndarray
) -> float:
    """Intermodal score of image z for a class given one-vs-rest labeled texts."""
    return f_inter(S, class_texts, z)


# Dense linear-algebra helpers built on the package's SVD.


def trace_norm(M: np.ndarray) -> float:
    """Sum of singular values of M."""
    return float(np.sum(linalg.svd(M).sigma))


def svt(M: np.ndarray, threshold: float) -> np.ndarray:
    """Soft-threshold the singular values of M by `threshold`.

    Returns the unique minimizer of 1/2 ||X - M||_F^2 + threshold * ||X||_tr.
    """
    res = linalg.shrink(linalg.svd(M), threshold)
    return (res.U * res.sigma) @ res.V.T


def numerical_rank(M: np.ndarray) -> int:
    """Number of singular values above RANK_CUTOFF times the largest one."""
    return linalg.sigma_rank(linalg.svd(M).sigma)


# The binary training objective at a given (S, alpha), one call at a time,
# through the package's own iterate, smooth value and gradient code.


def evaluate_at(S, alpha, data: TrainData, hyper: Hyperparameters):
    """(problem, iterate of S, margins, smooth value) at (S, alpha)."""
    pb = binary_problem(data, hyper).arrays
    alpha = np.asarray(alpha, dtype=float)
    factors = linalg.shrink(linalg.svd(np.asarray(S, dtype=float)), 0.0)
    it = _pair_terms(_text_terms(factors, pb), pb, hyper)
    F, h = _hinge_term(it, alpha, pb, hyper)
    return pb, it, F, h + it.misalign_term


def objective(S, alpha, data: TrainData, hyper: Hyperparameters) -> float:
    """Full training objective: hinge + misalignment + trace norm of S."""
    return smooth_value(S, alpha, data, hyper) + trace_norm(S)


def smooth_value(S, alpha, data: TrainData, hyper: Hyperparameters) -> float:
    """The objective minus the trace norm: the (sub)differentiable part."""
    return evaluate_at(S, alpha, data, hyper)[3]


def grad_S(S, alpha, data: TrainData, hyper: Hyperparameters) -> np.ndarray:
    """Subgradient of the smooth part with respect to S."""
    pb, it, F, _ = evaluate_at(S, alpha, data, hyper)
    return _grad_S(it, F, pb, hyper)[0]


def grad_alpha(S, alpha, data: TrainData, hyper: Hyperparameters) -> np.ndarray:
    """Subgradient of the smooth part with respect to alpha."""
    pb, _, F, _ = evaluate_at(S, alpha, data, hyper)
    return _grad_alpha(F, pb, hyper)


# The training loop as it was before it cached anything: every probe
# re-evaluates the smooth objective from the dense S, the S step recomputes
# the current smooth value, and each iteration takes two more SVDs for the
# trace norm and the rank. solver._train_loop is checked against it.


def _dense_margins(S, alpha, pb):
    B = pb.text_Y.shape[1]
    if pb.n > 0 and pb.m > 0:
        T = np.tanh(pb.text_X @ S @ pb.img_Z.T)
        F = pb.text_Y.T @ T
    else:
        T = None
        F = np.zeros((B, pb.m))
    if pb.K is not None and alpha.size:
        F[0] += pb.K @ (alpha * pb.img_Y[:, 0])
    return F, T


def _dense_pair_scores(S, pb) -> np.ndarray:
    if pb.pair_X.shape[0] == 0:
        return np.zeros(0)
    return np.einsum("ij,ij->i", pb.pair_X @ S, pb.pair_Z)


def _dense_smooth(S, alpha, pb, hyper: Hyperparameters) -> float:
    F, _ = _dense_margins(S, alpha, pb)
    yf = pb.img_Y.T * F
    total = hyper.gamma * float(np.sum(hinge(yf)))
    a = _dense_pair_scores(S, pb)
    total += hyper.lam * float(np.sum(misalign(a)))
    if not np.isfinite(total):
        raise NumericalError("smooth objective is non-finite")
    return total


def _dense_grad_S(S, alpha, pb, hyper: Hyperparameters) -> np.ndarray:
    grad = np.zeros(S.shape)
    if hyper.gamma > 0 and pb.n > 0 and pb.m > 0:
        F, T = _dense_margins(S, alpha, pb)
        yf = pb.img_Y.T * F
        G = hyper.gamma * hinge_subgrad(yf) * pb.img_Y.T
        M = pb.text_Y @ G
        grad += pb.text_X.T @ (M * (1.0 - T**2)) @ pb.img_Z
    if hyper.lam > 0 and pb.pair_X.shape[0] > 0:
        d = misalign_deriv(_dense_pair_scores(S, pb))
        grad += hyper.lam * pb.pair_X.T @ (d[:, None] * pb.pair_Z)
    if not np.all(np.isfinite(grad)):
        raise NumericalError("gradient in S is non-finite")
    return grad


def _dense_grad_alpha(S, alpha, pb, hyper: Hyperparameters) -> np.ndarray:
    F, _ = _dense_margins(S, alpha, pb)
    y = pb.img_Y[:, 0]
    c = hyper.gamma * np.asarray(hinge_subgrad(y * F[0])) * y
    grad = y * (pb.K @ c)
    if not np.all(np.isfinite(grad)):
        raise NumericalError("gradient in alpha is non-finite")
    return grad


def reference_train_loop(pb, hyper: Hyperparameters, log=None, resume=None, source=None):
    """solver._train_loop without its caches, its float32 phase or its forks,
    with the same signature and results; it reads the solver's step constants
    and solver._MAX_BACKTRACKS, so a test can patch both loops at once. It
    runs every fit from its start, so it takes no `resume`."""
    assert resume is None
    S = np.zeros((pb.text_X.shape[1], pb.img_Z.shape[1]))
    alpha = np.zeros(pb.m if pb.K is not None else 0)
    L = solver._L0
    eps = solver._EPS_ALPHA0
    trace = [_dense_smooth(S, alpha, pb, hyper) + trace_norm(S)]
    stop_reason = "max_iter"

    for it in range(1, hyper.max_iter + 1):
        if it > 1:
            L = max(L / 2.0, 1e-12)
            eps = min(eps * 2.0, 1e12)

        g = _dense_grad_S(S, alpha, pb, hyper)
        F_cur = _dense_smooth(S, alpha, pb, hyper)
        moved = False
        for _ in range(solver._MAX_BACKTRACKS):
            cand = svt(S - g / L, 1.0 / L)
            delta = cand - S
            bound = F_cur + float(np.vdot(g, delta)) + 0.5 * L * float(np.vdot(delta, delta))
            if _dense_smooth(cand, alpha, pb, hyper) <= bound + solver._ACCEPT_SLACK:
                S = cand
                moved = True
                break
            L *= solver._ETA

        if alpha.size:
            ga = _dense_grad_alpha(S, alpha, pb, hyper)
            F_cur = _dense_smooth(S, alpha, pb, hyper)
            for _ in range(solver._MAX_BACKTRACKS):
                cand = project_alpha(alpha - eps * ga, hyper.C)
                delta = cand - alpha
                bound = F_cur + float(ga @ delta) + float(delta @ delta) / (2.0 * eps)
                if _dense_smooth(S, cand, pb, hyper) <= bound + solver._ACCEPT_SLACK:
                    alpha = cand
                    moved = True
                    break
                eps /= solver._ETA

        obj = _dense_smooth(S, alpha, pb, hyper) + trace_norm(S)
        if not np.isfinite(obj):
            raise NumericalError(f"objective became non-finite at iteration {it}")
        trace.append(obj)
        if log is not None:
            log(f"{it},{obj:.12g},{numerical_rank(S)},{L:.6g},{eps:.6g}")
        if not moved:
            stop_reason = "linesearch"
            break
        if abs(trace[-2] - trace[-1]) / max(1.0, abs(trace[-2])) < hyper.tol:
            stop_reason = "tol"
            break

    report = TrainReport(
        stop_reason=stop_reason,
        final_rank=numerical_rank(S),
        objective_trace=trace,
        float64_from=1 if len(trace) > 1 else None,
    )
    return S, alpha, report


def reference_crossval_select(data: TrainData, base: Hyperparameters, grid: dict, seed=0):
    """crossval_select as it was before it skipped any fit: every grid point
    from a cold start on both folds, the first lowest mean error wins."""
    fold_a, fold_b = reference_stratified_folds(data.train_images, seed)
    Z = stack_features(data.train_images, data.train_images[0].features.shape[0], "image")
    truth = signs(data.train_images, "training image")
    best, best_err = None, np.inf
    for lam, gamma, C in itertools.product(grid["lam"], grid["gamma"], grid["C"]):
        cand = replace(base, lam=lam, gamma=gamma, C=C)
        errs = []
        for train_idx, val_idx in [(fold_a, fold_b), (fold_b, fold_a)]:
            fold_data = TrainData(
                source_texts=data.source_texts,
                train_images=[data.train_images[i] for i in train_idx],
                pairs=data.pairs,
            )
            model, _ = train(fold_data, cand)
            preds = np.where(scores(model, Z[val_idx]) > 0, 1, -1)
            errs.append(error_rate(preds, truth[val_idx]))
        mean_err = float(np.mean(errs))
        if mean_err < best_err:
            best_err, best = mean_err, cand
    return best


def reference_stratified_folds(images: list[CorpusExample], seed: int):
    """evaluation._stratified_folds dealing each label's shuffled indices to
    the two folds one index at a time."""
    rng = np.random.default_rng(seed)
    by_label: dict = {}
    for idx, ex in enumerate(images):
        by_label.setdefault(ex.label, []).append(idx)
    folds = ([], [])
    for label in sorted(by_label, key=str):
        idxs = np.array(by_label[label])
        rng.shuffle(idxs)
        for k, idx in enumerate(idxs):
            folds[k % 2].append(int(idx))
    return sorted(folds[0]), sorted(folds[1])


def reference_ovr_labels(labels: list, classes: list[str]) -> np.ndarray:
    """model.ovr_labels one label at a time, through a dict from class to
    column."""
    out = np.full((len(labels), len(classes)), -1.0)
    index = {c: b for b, c in enumerate(classes)}
    for i, label in enumerate(labels):
        b = index.get(label)
        if b is not None:
            out[i, b] = 1.0
    return out


def reference_generate(cfg: SynthConfig) -> SynthDataset:
    """synth.generate as it was before it built each corpus as one block: one
    `M @ h` matvec and one noise draw per example."""
    rng = np.random.default_rng(cfg.seed)
    binary = cfg.classes == 2

    # Scaled so a typical feature vector has unit expected squared norm and the
    # noise contributes noise_sigma^2 of it.
    A = rng.standard_normal((cfg.p, cfg.r_true)) / np.sqrt(cfg.p * cfg.r_true)
    B = rng.standard_normal((cfg.q, cfg.r_true)) / np.sqrt(cfg.q * cfg.r_true)
    W = _draw_class_weights(rng, cfg, binary)

    def emit_text(h):
        x = A @ h
        if cfg.noise_sigma > 0:
            x = x + cfg.noise_sigma / np.sqrt(cfg.p) * rng.standard_normal(cfg.p)
        return x

    def emit_image(h):
        z = B @ h
        if cfg.noise_sigma > 0:
            z = z + cfg.noise_sigma / np.sqrt(cfg.q) * rng.standard_normal(cfg.q)
        return z

    def to_label(raw):
        return int(raw) if binary else f"c{raw}"

    H, labels = _draw_labeled(rng, cfg.n_texts, cfg, W, binary)
    texts = [
        CorpusExample(f"t{i}", emit_text(H[i]), to_label(labels[i]))
        for i in range(cfg.n_texts)
    ]

    H, labels = _draw_labeled(rng, cfg.m_images, cfg, W, binary)
    images = [
        CorpusExample(f"i{i}", emit_image(H[i]), to_label(labels[i]))
        for i in range(cfg.m_images)
    ]

    H, labels = _draw_labeled(rng, cfg.n_test, cfg, W, binary)
    test_images = [
        CorpusExample(f"e{i}", emit_image(H[i]), to_label(labels[i]))
        for i in range(cfg.n_test)
    ]

    Hp = rng.standard_normal((cfg.l_pairs, cfg.r_true))
    tags = _labels(Hp, W, binary)
    pairs = [
        CooccurrencePair(
            emit_text(Hp[k]),
            emit_image(Hp[k]),
            class_id=None if binary else f"c{tags[k]}",
        )
        for k in range(cfg.l_pairs)
    ]

    return SynthDataset(
        texts=texts,
        images=images,
        test_images=test_images,
        pairs=pairs,
    )


# Record-by-record readers and the one-shot median bandwidth.


# The record checks as data_io made them before it read feature vectors a block
# at a time, kept here so the references share no check with the reader.


def _ref_parse_class(rec: dict):
    if "class" in rec and not isinstance(rec["class"], str):
        raise DataError("class must be a string")
    return rec.get("class")


def _ref_parse_label(rec: dict):
    if "label" in rec:
        label = rec["label"]
        if not is_sign(label):
            raise DataError(f"label must be 1 or -1, got {label!r}")
        return label
    return _ref_parse_class(rec)


def _ref_finite(values, what: str) -> np.ndarray:
    odd = set(map(type, values)) - {float, int}
    if odd:
        names = ", ".join(sorted(t.__name__ for t in odd))
        raise DataError(f"{what} must hold numbers only, not {names}")
    try:
        arr = np.array(values, dtype=float)
    except (OverflowError, TypeError, ValueError) as exc:
        raise DataError(f"{what} must hold numbers: {exc}") from exc
    if not np.isfinite(arr).all():
        raise DataError(f"{what} holds a non-finite number")
    return arr


def _ref_features(rec: dict, key: str, dims: dict, modality: str) -> np.ndarray:
    if key not in rec:
        raise DataError(f"missing {key!r}")
    values = rec[key]
    if not isinstance(values, list) or not values:
        raise DataError(f"{key!r} must be a non-empty array of numbers")
    v = _ref_finite(values, repr(key))
    dim = dims.setdefault(modality, v.shape[0])
    if v.shape[0] != dim:
        raise DataError(f"{modality} feature dimension {v.shape[0]} != expected {dim}")
    return v


def _ref_example(rec: dict, kind: str, dims: dict) -> CorpusExample:
    if not isinstance(rec.get("id"), str):
        raise DataError("missing string id")
    return CorpusExample(rec["id"], _ref_features(rec, "features", dims, kind), _ref_parse_label(rec))


def _ref_reject_constant(token: str):
    raise ValueError(f"non-finite number {token} is not allowed")


_REF_DECODER = json.JSONDecoder(parse_constant=_ref_reject_constant)


def reference_loads_object(raw, what: str) -> dict:
    """data_io.loads_object as it was before it decoded with orjson: the
    stdlib's decoder alone, refusing NaN and Infinity tokens."""
    try:
        doc = _REF_DECODER.decode(raw if isinstance(raw, str) else raw.decode("utf-8"))
    except (RecursionError, ValueError) as exc:
        raise DataError(f"malformed {what}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{what} must be a JSON object")
    return doc


def reference_parse_dataset(path: str) -> Corpora:
    """data_io.parse_dataset as it was before it checked feature vectors a
    block at a time: each record read and checked on its own, in file order,
    and decoded by `reference_loads_object`."""
    corpora = Corpora()
    dims: dict[str, int] = {}
    seen_ids: dict[str, set] = {"text": set(), "image": set(), "pair": set()}

    def take(rec):
        kind = rec.get("kind")
        if kind not in ("text", "image", "pair"):
            raise DataError(f"unknown kind {kind!r}")
        rid = rec.get("id")
        if not isinstance(rid, str):
            raise DataError("missing string id")
        if rid in seen_ids[kind]:
            raise DataError(f"duplicate {kind} id {rid!r}")
        seen_ids[kind].add(rid)
        if kind == "pair":
            x = _ref_features(rec, "text_features", dims, "text")
            z = _ref_features(rec, "image_features", dims, "image")
            corpora.pairs.append(CooccurrencePair(x, z, class_id=_ref_parse_class(rec)))
        else:
            ex = _ref_example(rec, kind, dims)
            (corpora.texts if kind == "text" else corpora.images).append(ex)

    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                if line.strip():
                    take(reference_loads_object(line, "record"))
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    return corpora


def reference_model_examples(doc: dict, key: str, dims: dict, binary: bool) -> list:
    """data_io._model_examples as it was before it checked feature vectors a
    block at a time."""
    kind = "text" if key == "source_texts" else "image"
    out = []
    for rec in doc[key]:
        try:
            ex = _ref_example(rec, kind, dims)
            if binary and not is_sign(ex.label):
                raise DataError(f"label {ex.label!r} in a binary model, which needs +1/-1")
        except DataError as exc:
            if not isinstance(rec.get("id"), str):
                raise DataError(f"{key} record without a string id") from exc
            raise DataError(f"{key} {rec['id']!r}: {exc}") from exc
        out.append(ex)
    return out


def reference_median_bandwidth(Z: np.ndarray) -> float:
    """model.median_bandwidth with every sampled pair's difference taken in
    one (pairs, q) array."""
    Z = np.asarray(Z, dtype=float)
    n = Z.shape[0]
    if n < 2:
        raise ValueError("median bandwidth needs at least 2 images")
    if n * (n - 1) // 2 <= model_module._BANDWIDTH_MAX_PAIRS:
        i, j = np.triu_indices(n, k=1)
    else:
        rng = np.random.default_rng(0)
        i = rng.integers(0, n, size=model_module._BANDWIDTH_MAX_PAIRS)
        j = rng.integers(0, n - 1, size=model_module._BANDWIDTH_MAX_PAIRS)
        j = np.where(j >= i, j + 1, j)
    med = float(np.median(np.linalg.norm(Z[i] - Z[j], axis=1)))
    if not np.isfinite(med):
        raise NumericalError("median image distance is non-finite; pass an explicit bandwidth")
    if med == 0.0:
        raise DataError("all image features are identical; pass an explicit bandwidth")
    return med


# Random instances and finite differences.


def random_instance(rng, p=3, q=4, n=2, m=2, l=3):
    """Small random training instance plus a random (S, alpha) evaluation point,
    resampled so no training margin sits on the hinge kink."""
    for _ in range(200):
        texts = [
            CorpusExample(f"t{i}", rng.standard_normal(p), int(rng.choice([-1, 1])))
            for i in range(n)
        ]
        images = [
            CorpusExample(f"i{j}", rng.standard_normal(q), int(rng.choice([-1, 1])))
            for j in range(m)
        ]
        pairs = [
            CooccurrencePair(rng.standard_normal(p), rng.standard_normal(q))
            for _ in range(l)
        ]
        data = TrainData(source_texts=texts, train_images=images, pairs=pairs)
        hyper = Hyperparameters(
            gamma=float(rng.uniform(0.2, 2.0)),
            lam=float(rng.uniform(0.2, 2.0)),
            C=float(rng.uniform(0.5, 3.0)),
            kernel=KernelSpec(bandwidth=float(rng.uniform(0.5, 2.0))),
        )
        S = rng.standard_normal((p, q)) * 0.5
        alpha = rng.uniform(0.05, hyper.C * 0.95, m)
        if not _near_kink(S, alpha, data, hyper):
            return data, hyper, S, alpha
    raise AssertionError("could not sample a kink-free instance")


def _near_kink(S, alpha, data, hyper, margin_tol=1e-4):
    model = TrainedModel(
        S=S,
        alpha=alpha,
        source_texts=data.source_texts,
        train_images=data.train_images,
        kernel=hyper.kernel,
        hyper=hyper,
    )
    for img in data.train_images:
        yf = float(img.label) * discriminant(model, img.features)
        if abs(yf - 1.0) < margin_tol:
            return True
    return False


def fd_grad_S(S, alpha, data, hyper, h=1e-6):
    grad = np.zeros_like(S)
    for i in range(S.shape[0]):
        for j in range(S.shape[1]):
            Sp, Sm = S.copy(), S.copy()
            Sp[i, j] += h
            Sm[i, j] -= h
            grad[i, j] = (
                smooth_value(Sp, alpha, data, hyper)
                - smooth_value(Sm, alpha, data, hyper)
            ) / (2 * h)
    return grad


def fd_grad_alpha(S, alpha, data, hyper, h=1e-6):
    grad = np.zeros_like(alpha)
    for j in range(alpha.size):
        ap, am = alpha.copy(), alpha.copy()
        ap[j] += h
        am[j] -= h
        grad[j] = (
            smooth_value(S, ap, data, hyper) - smooth_value(S, am, data, hyper)
        ) / (2 * h)
    return grad


def brute_force_average_precision(scores, truth):
    """Direct definition: precision at the rank of each positive under a stable
    descending sort, averaged over positives."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    ranked = [truth[i] for i in order]
    precisions = []
    hits = 0
    for rank, label in enumerate(ranked, start=1):
        if label == 1:
            hits += 1
            precisions.append(hits / rank)
    return sum(precisions) / len(precisions)


def reference_average_ranks(x: np.ndarray) -> np.ndarray:
    """evaluation._average_ranks by a stable argsort and a scan for the runs
    of equal sorted values."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    ends = np.append(starts[1:], x.size)
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def brute_force_auc(scores, truth):
    """Enumerate every positive/negative pair; ties count one half."""
    pos = [s for s, t in zip(scores, truth) if t == 1]
    neg = [s for s, t in zip(scores, truth) if t != 1]
    wins = 0.0
    for sp, sn in itertools.product(pos, neg):
        if sp > sn:
            wins += 1.0
        elif sp == sn:
            wins += 0.5
    return wins / (len(pos) * len(neg))
