"""Command-line surface: synth, train, predict, evaluate, crossval, zeroshot.

Exit codes: 0 success, 1 usage error, 2 data error or an option value out of
range, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import data_io, evaluation, synth, zeroshot
from .errors import DataError, NumericalError
from .model import Hyperparameters, KernelSpec, scores, stack_features, unseen_scores
from .solver import TrainData, TrainReport, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(Exception):
    pass


class OptionValueError(Exception):
    """An option value the parser accepts but the model rejects, such as --cap-c 0."""


def _add_hyper_flags(p: argparse.ArgumentParser):
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--cap-c", dest="cap_c", type=float, default=1.0)
    p.add_argument("--kernel", choices=["gaussian", "linear"], default="gaussian")
    p.add_argument("--bandwidth", type=float, default=None,
                   help="gaussian bandwidth; default: median heuristic")
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--normalize", action="store_true",
                   help="L2-normalize feature vectors before training")


def _hyper_from_args(args) -> Hyperparameters:
    try:
        return Hyperparameters(
            gamma=args.gamma,
            lam=args.lam,
            C=args.cap_c,
            kernel=KernelSpec(kind=args.kernel, bandwidth=args.bandwidth),
            max_iter=args.max_iter,
            tol=args.tol,
            normalize=args.normalize,
        )
    except ValueError as exc:
        raise OptionValueError(f"bad option value: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="crossmodal")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--config", required=True, help="JSON file of generator settings")
    p.add_argument("--out", required=True, help="training dataset path")
    p.add_argument("--seed", type=int, default=None, help="overrides config seed")
    p.add_argument("--test-out", default=None, help="held-out test images path")

    p = sub.add_parser("train", help="train a binary model")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_hyper_flags(p)
    p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("predict", help="score images with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--images", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="compare predictions against truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)

    p = sub.add_parser("crossval", help="twofold cross-validated grid search")
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_hyper_flags(p)

    p = sub.add_parser("zeroshot", help="train a shared transfer matrix")
    p.add_argument("--data", required=True)
    p.add_argument("--unseen", required=True, help="comma-separated class ids")
    p.add_argument("--out", required=True)
    _add_hyper_flags(p)
    p.add_argument("--verbose", action="store_true")

    return parser


def _cmd_synth(args) -> int:
    with open(args.config) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"malformed config {args.config}: {exc}") from exc
    if args.seed is not None:
        raw["seed"] = args.seed
    try:
        cfg = synth.SynthConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise DataError(f"bad synth config: {exc}") from exc
    ds = synth.generate(cfg)
    data_io.write_dataset(
        data_io.Corpora(texts=ds.texts, images=ds.images, pairs=ds.pairs), args.out
    )
    if args.test_out:
        data_io.write_dataset(data_io.Corpora(images=ds.test_images), args.test_out)
    return EXIT_OK


def _read_train_data(path: str) -> TrainData:
    corpora = data_io.parse_dataset(path)
    return TrainData(
        source_texts=corpora.texts,
        train_images=corpora.images,
        pairs=corpora.pairs,
    )


def _print_report(report: TrainReport) -> None:
    print(
        f"converged {report.converged}\n"
        f"stop_reason {report.stop_reason}\n"
        f"iterations {report.iterations}\n"
        f"final_objective {report.final_objective!r}\n"
        f"final_rank {report.final_rank}"
    )


def _cmd_train(args) -> int:
    data = _read_train_data(args.data)
    hyper = _hyper_from_args(args)
    model, report = train(data, hyper, log=print if args.verbose else None)
    data_io.write_model(model, args.out)
    _print_report(report)
    return EXIT_OK


def _cmd_predict(args) -> int:
    model, mode, unseen = data_io.read_model(args.model)
    corpora = data_io.parse_dataset(args.images)
    if mode == "zeroshot" and not unseen:
        raise DataError("zero-shot model lists no unseen classes")
    try:
        Z = stack_features(corpora.images, model.S.shape[1], "query image")
        table = unseen_scores(model, Z, unseen) if mode == "zeroshot" else scores(model, Z)
    except DataError as exc:
        raise DataError(f"{args.images}: {exc}") from exc
    if mode == "zeroshot":
        lines = [
            json.dumps({"id": ex.id, "scores": dict(zip(unseen, map(float, row)))})
            for ex, row in zip(corpora.images, table)
        ]
    else:
        labels = np.where(table > 0, 1, -1)
        lines = [
            json.dumps({"id": ex.id, "score": float(s), "label": int(y)})
            for ex, s, y in zip(corpora.images, table, labels)
        ]
    data_io.atomic_write_text(args.out, "\n".join(lines) + ("\n" if lines else ""))
    return EXIT_OK


def _finite_number(value, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise DataError(f"{what} must be a finite number")


def _check_prediction(rec, first) -> None:
    """A prediction record has a string id and, in the mode of the first record,
    either a finite score and a +1/-1 label, or finite per-class scores over
    the first record's classes."""
    if not isinstance(rec, dict) or not isinstance(rec.get("id"), str):
        raise DataError("missing string id")
    if "scores" in first:
        table = rec.get("scores")
        if not isinstance(table, dict) or not table:
            raise DataError("'scores' must be a non-empty object")
        if table.keys() != first["scores"].keys():
            raise DataError(
                f"classes {sorted(table)} differ from the first record's "
                f"{sorted(first['scores'])}"
            )
        for c, v in table.items():
            _finite_number(v, f"score of class {c!r}")
    else:
        _finite_number(rec.get("score"), "'score'")
        label = rec.get("label")
        if isinstance(label, bool) or label not in (1, -1):
            raise DataError("'label' must be 1 or -1")


def _read_predictions(path: str) -> list[dict]:
    records = []
    ids = set()
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line, parse_constant=data_io._reject_constant)
                _check_prediction(rec, records[0] if records else rec)
                if rec["id"] in ids:
                    raise DataError(f"duplicate id {rec['id']!r}")
                ids.add(rec["id"])
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: malformed prediction: {exc}") from exc
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            records.append(rec)
    return records


def _cmd_evaluate(args) -> int:
    preds = _read_predictions(args.pred)
    truth_corpora = data_io.parse_dataset(args.truth)
    truth_by_id = {ex.id: ex.label for ex in truth_corpora.images}
    if not preds:
        raise DataError("no predictions to evaluate")
    missing = [r["id"] for r in preds if r["id"] not in truth_by_id]
    if missing:
        raise DataError(f"no truth for predicted ids {missing[:3]}")

    if "scores" in preds[0]:
        # Zero-shot predictions: per-class AUC/AP against class-labeled truth.
        classes = sorted(preds[0]["scores"])
        # A hard prediction is one of the scored classes, so only images of
        # those classes can be classified right or wrong.
        scored = [r for r in preds if truth_by_id[r["id"]] in classes]
        if not scored:
            raise DataError(f"{args.truth}: no predicted image is of a scored class {classes}")
        per_class = {}
        aps = []
        for c in classes:
            scores = np.array([r["scores"][c] for r in preds])
            truth = np.array([1 if truth_by_id[r["id"]] == c else -1 for r in preds])
            per_class[f"auc_{c}"] = evaluation.auc(scores, truth)
            ap = evaluation.average_precision(scores, truth)
            per_class[f"ap_{c}"] = ap
            aps.append(ap)
        hard_preds = [max(r["scores"], key=lambda c: r["scores"][c]) for r in scored]
        truths = [truth_by_id[r["id"]] for r in scored]
        report = evaluation.EvalReport(
            error_rate=evaluation.error_rate(np.array(hard_preds), np.array(truths)),
            ap=evaluation.mean_ap(aps),
            auc=float(np.mean([per_class[f"auc_{c}"] for c in classes])),
            per_class=per_class,
        )
    else:
        scores = np.array([r["score"] for r in preds])
        labels = np.array([r["label"] for r in preds])
        for r in preds:
            label = truth_by_id[r["id"]]
            if label not in (1, -1):
                raise DataError(
                    f"{args.truth}: image {r['id']!r} has label {label!r}; "
                    "binary predictions need +1/-1 truth labels"
                )
        truth = np.array([truth_by_id[r["id"]] for r in preds])
        report = evaluation.EvalReport(
            error_rate=evaluation.error_rate(labels, truth),
            ap=evaluation.average_precision(scores, truth),
            auc=evaluation.auc(scores, truth),
        )
    print(report.as_text())
    return EXIT_OK


def _cmd_crossval(args) -> int:
    data = _read_train_data(args.data)
    base = _hyper_from_args(args)
    best = evaluation.crossval_select(data, base=base, seed=args.seed)
    print(f"lambda {best.lam}\ngamma {best.gamma}\nC {best.C}")
    return EXIT_OK


def _cmd_zeroshot(args) -> int:
    data = _read_train_data(args.data)
    unseen = frozenset(c for c in args.unseen.split(",") if c)
    if not unseen:
        raise UsageError("--unseen must name at least one class")
    hyper = _hyper_from_args(args)
    model, report = zeroshot.train_zeroshot(
        data, unseen, hyper, log=print if args.verbose else None
    )
    dropped = sum(ex.label in unseen for ex in data.train_images)
    if dropped:
        print(f"dropped {dropped} training images of unseen classes", file=sys.stderr)
    data_io.write_model(model, args.out, unseen_classes=sorted(unseen))
    _print_report(report)
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "crossval": _cmd_crossval,
    "zeroshot": _cmd_zeroshot,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OptionValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
