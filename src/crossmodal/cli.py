"""Command-line surface: synth, train, predict, evaluate, crossval, zeroshot.

Exit codes: 0 success, 1 usage error, 2 data error or an option value out of
range, 3 numerical failure, 141 standard output closed by its reader (128 +
SIGPIPE, as a shell reports a process that SIGPIPE stopped).
"""
from __future__ import annotations

import argparse
import os
import sys

from . import data_io, evaluation, synth, zeroshot
from .errors import DataError, NumericalError
from .model import Hyperparameters, KernelSpec, scores, signs, stack_features, unseen_scores
from .solver import TrainData, TrainReport, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3
EXIT_PIPE = 141


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(Exception):
    pass


class OptionValueError(Exception):
    """An option value the parser accepts but the model rejects, such as --cap-c 0."""


def _add_hyper_flags(p, reads=("gamma", "lam", "C", "kernel", "max_iter", "tol", "normalize")):
    """The flags of the `Hyperparameters` fields in `reads`, the ones the
    command's fits read; every other field keeps its default."""
    d = Hyperparameters()
    p.set_defaults(gamma=d.gamma, lam=d.lam, cap_c=d.C, kernel=d.kernel.kind,
                   bandwidth=d.kernel.bandwidth, max_iter=d.max_iter, tol=d.tol,
                   normalize=d.normalize)
    for name, flag, kwargs in [
        ("gamma", "--gamma", dict(type=float)),
        ("lam", "--lambda", dict(dest="lam", type=float)),
        ("C", "--cap-c", dict(dest="cap_c", type=float)),
        ("kernel", "--kernel", dict(choices=["gaussian", "linear"])),
        ("kernel", "--bandwidth", dict(type=float, help="gaussian; default: median heuristic")),
        ("max_iter", "--max-iter", dict(type=int)),
        ("tol", "--tol", dict(type=float)),
        ("normalize", "--normalize", dict(action="store_true", help="L2-normalize the features")),
    ]:
        if name in reads:
            p.add_argument(flag, **kwargs)


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
    _add_hyper_flags(p, ("kernel", "max_iter", "tol", "normalize"))

    p = sub.add_parser("zeroshot", help="train a shared transfer matrix")
    p.add_argument("--data", required=True)
    p.add_argument("--unseen", required=True, help="comma-separated class ids")
    p.add_argument("--out", required=True)
    # A zero-shot fit learns no alpha, so it reads no C or kernel.
    _add_hyper_flags(p, ("gamma", "lam", "max_iter", "tol", "normalize"))
    p.add_argument("--verbose", action="store_true")

    return parser


def _cmd_synth(args) -> int:
    try:
        with open(args.config, "rb") as fh:
            config = data_io.loads_object(fh.read(), args.config)
        if args.seed is not None:
            config["seed"] = args.seed
        ds = synth.generate(synth.SynthConfig(**config))
    except (TypeError, ValueError) as exc:
        raise DataError(f"bad synth config: {exc}") from exc
    data_io.write_dataset(ds, args.out)
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
        f"final_rank {report.final_rank}\n"
        f"float64_from {'none' if report.float64_from is None else report.float64_from}"
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
    try:
        data_io.write_predictions(args.out, [ex.id for ex in images], table, classes)
    except ValueError as exc:  # a non-finite score, which no prediction file holds
        raise NumericalError(f"{args.images}: {exc}") from exc
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
            if None in labels:
                raise DataError(f"image {truth[labels.index(None)].id!r} has label None; "
                                "zero-shot mode needs a class")
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
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe fails here, not in the exit flush
        return code
    except BrokenPipeError:
        # Nothing reads standard output; point it at devnull so the exit flush succeeds.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
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
