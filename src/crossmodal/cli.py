"""Command-line surface: synth, train, predict, evaluate, crossval, zeroshot.

Exit codes: 0 success, 1 usage error, 2 data error or an option value out of
range, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import data_io, evaluation, synth, zeroshot
from .errors import DataError, NumericalError
from .model import Hyperparameters, KernelSpec, scores, signs, stack_features, unseen_scores
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
    d = Hyperparameters()
    p.add_argument("--gamma", type=float, default=d.gamma)
    p.add_argument("--lambda", dest="lam", type=float, default=d.lam)
    p.add_argument("--cap-c", dest="cap_c", type=float, default=d.C)
    p.add_argument("--kernel", choices=["gaussian", "linear"], default=d.kernel.kind)
    p.add_argument("--bandwidth", type=float, default=d.kernel.bandwidth,
                   help="gaussian bandwidth; default: median heuristic")
    p.add_argument("--max-iter", type=int, default=d.max_iter)
    p.add_argument("--tol", type=float, default=d.tol)
    p.add_argument("--normalize", action="store_true", default=d.normalize,
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
            raise DataError(f"bad synth config: {args.config} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DataError(f"bad synth config: {args.config} is not a JSON object")
    if args.seed is not None:
        raw["seed"] = args.seed
    try:
        ds = synth.generate(synth.SynthConfig(**raw))
    except (TypeError, ValueError) as exc:
        raise DataError(f"bad synth config: {exc}") from exc
    data_io.write_dataset(data_io.Corpora(ds.texts, ds.images, ds.pairs), args.out)
    if args.test_out:
        data_io.write_dataset(data_io.Corpora(images=ds.test_images), args.test_out)
    return EXIT_OK


def _read_train_data(path: str) -> TrainData:
    corpora = data_io.parse_dataset(path)
    return TrainData(corpora.texts, corpora.images, corpora.pairs)


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
    images = data_io.parse_dataset(args.images).images
    classes = unseen if mode == "zeroshot" else None
    try:
        Z = stack_features(images, model.S.shape[1], "query image")
        table = scores(model, Z) if classes is None else unseen_scores(model, Z, classes)
    except DataError as exc:
        raise DataError(f"{args.images}: {exc}") from exc
    data_io.write_predictions(args.out, [ex.id for ex in images], table, classes)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    preds = data_io.read_predictions(args.pred)
    truth_by_id = {ex.id: ex for ex in data_io.parse_dataset(args.truth).images}
    if not preds.ids:
        raise DataError("no predictions to evaluate")
    missing = [i for i in preds.ids if i not in truth_by_id]
    if missing:
        raise DataError(f"no truth for predicted ids {missing[:3]}")
    truth = [truth_by_id[i] for i in preds.ids]
    try:
        if preds.classes is None:
            report = evaluation.binary_report(preds.scores, preds.labels, signs(truth, "image"))
        else:
            labels = [ex.label for ex in truth]
            report = evaluation.zeroshot_report(preds.scores, preds.classes, labels)
    except DataError as exc:
        raise DataError(f"{args.truth}: {exc}") from exc
    print(report.as_text())
    return EXIT_OK


def _cmd_crossval(args) -> int:
    if args.seed < 0:
        raise OptionValueError("bad option value: --seed must be >= 0")
    data = _read_train_data(args.data)
    base = _hyper_from_args(args)
    best = evaluation.crossval_select(data, base=base, seed=args.seed)
    print(f"lambda {best.lam}\ngamma {best.gamma}\nC {best.C}")
    return EXIT_OK


def _cmd_zeroshot(args) -> int:
    unseen = frozenset(c for c in args.unseen.split(",") if c)
    if not unseen:
        raise UsageError("--unseen must name at least one class")
    data = _read_train_data(args.data)
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
