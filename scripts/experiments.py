#!/usr/bin/env python3
"""Experiments on the planted-alignment synthetic data, over several seeds.

planted  Compare the joint model against an intramodal-only baseline. With
         only a couple of labeled images per class, the kernel part alone
         cannot generalize; the cross-modal transfer term carries the signal.
         Prints per-seed error rates and the paired mean difference with its
         standard error.
pairs    Sweep the number of co-occurring pairs and write one
         `pairs,mean_error,se` CSV row per sweep point to stdout (or --out).
         The trend should be weakly decreasing: more aligned pairs pin down
         the transfer matrix better.
cgrid    Whether cross-validating C pays: on seeds 10 onwards, with 50 and 16
         labelled images of which 0%, 10% or 20% have their label flipped,
         the test errors of crossval_select's picks over DEFAULT_GRID and
         over it with C fixed at 1, each refitted. Prints both errors per
         run, a table per (images, flip) cell and the verdict of the rule in
         README "Experiments".
"""
import argparse
import csv
import sys
from dataclasses import replace

import numpy as np

from crossmodal import (Hyperparameters, SynthConfig, TrainData, crossval_select, evaluate_model,
                        generate, train)
from crossmodal.evaluation import DEFAULT_GRID

HYPER = Hyperparameters(gamma=1.0, lam=1.0, C=1.0, max_iter=120, tol=1e-7)


def _test_error(ds, hyper: Hyperparameters, joint=True) -> float:
    """The test error rate of a fit on `ds`; unless `joint`, on its labelled images alone."""
    data = TrainData(ds.texts, ds.images, ds.pairs) if joint else TrainData([], ds.images, [])
    model, _ = train(data, hyper)
    return evaluate_model(model, ds.test_images).error_rate


def _standard_error(values) -> float:
    """The standard error of the mean of `values`; nan for one value, which has none."""
    values = np.asarray(values)
    return values.std(ddof=1) / np.sqrt(values.size) if values.size > 1 else float("nan")


def seed_errors(seeds, hyper: Hyperparameters, pairs=2000, images=4):
    """Test error rates of the joint model and of the intramodal-only baseline
    (the same fit without texts and pairs, at lam = 0) on each synth seed, as
    two lists."""
    full_errs, base_errs = [], []
    for seed in seeds:
        ds = generate(SynthConfig(seed=seed, m_images=images, l_pairs=pairs))
        full_errs.append(_test_error(ds, hyper))
        base_errs.append(_test_error(ds, replace(hyper, lam=0.0), joint=False))
    return full_errs, base_errs


def sweep_errors(pair_counts, seeds, hyper: Hyperparameters, images_per_class=2):
    """Per pairs count, the test error rate of the joint model on each synth
    seed, as a list."""
    return {l: [_test_error(generate(SynthConfig(seed=seed, m_images=2 * images_per_class,
                                                 l_pairs=l)), hyper) for seed in seeds]
            for l in pair_counts}


def _flipped(images, fraction: float, seed: int):
    """`images` with the labels of round(fraction * len(images)) of them, drawn
    by a fixed default_rng(seed), flipped; fewer flips are a subset of more."""
    order = np.random.default_rng(seed).permutation(len(images))
    flip = set(order[:round(fraction * len(images))].tolist())
    return [replace(e, label=-e.label) if k in flip else e for k, e in enumerate(images)]


def cgrid_errors(seed: int, images: int, flip: float):
    """The (pick, test error) of crossval_select over DEFAULT_GRID and over it
    with C fixed at 1, each pick refitted with train, on a default synth
    config with `images` labelled images and a `flip` share of their labels
    flipped; the test labels stay clean."""
    ds = generate(SynthConfig(seed=seed, m_images=images))
    data = TrainData(ds.texts, _flipped(ds.images, flip, seed), ds.pairs)
    out = []
    for grid in (DEFAULT_GRID, {**DEFAULT_GRID, "C": (1.0,)}):
        pick = crossval_select(data, grid=grid, seed=seed)
        model, _ = train(data, pick)
        out.append((pick, evaluate_model(model, ds.test_images).error_rate))
    return out


def _cgrid(args) -> None:
    n_test = SynthConfig().n_test
    cells = {}  # (images, flip) -> per seed (searched error, C = 1 error)
    for images in (50, 16):
        for flip in (0.0, 0.1, 0.2):
            for seed in range(10, 10 + args.seeds):
                (pick, err), (pick1, err1) = cgrid_errors(seed, images, flip)
                print(f"images {images} flip {flip:.1f} seed {seed}: searched C "
                      f"{err:.3f} at {(pick.lam, pick.gamma, pick.C)}, C = 1 {err1:.3f} "
                      f"at {(pick1.lam, pick1.gamma)}", flush=True)
                cells.setdefault((images, flip), []).append((err, err1))
    print("| images | flip | searched C | C = 1 | mean images lost | most lost in a run "
          "| fewest lost in a run |")
    print("|---|---|---|---|---|---|---|")
    earns = False
    for (images, flip), errs in cells.items():
        errs = np.array(errs)
        lost = np.rint((errs[:, 1] - errs[:, 0]) * n_test)  # test images C = 1 gets wrong
        print(f"| {images} | {flip:.0%} | {errs[:, 0].mean():.4f} | {errs[:, 1].mean():.4f} "
              f"| {lost.mean():+.2f} | {lost.max():+.0f} | {lost.min():+.0f} |")
        earns |= lost.mean() >= 1 or lost.max() > 2
    print(f"verdict: C {'earns' if earns else 'does not earn'} its place")


def _planted(args) -> None:
    full_errs, base_errs = seed_errors(range(args.seeds), HYPER, args.pairs, args.images)
    for seed, (e_full, e_base) in enumerate(zip(full_errs, base_errs)):
        print(f"seed {seed:2d}: full {e_full:.3f}  intramodal-only {e_base:.3f}")
    diffs = np.array(base_errs) - np.array(full_errs)
    print(f"mean paired improvement {diffs.mean():.3f} +- {_standard_error(diffs):.3f} SE")


def _pairs(args) -> None:
    errors = sweep_errors(args.pairs, range(args.seeds), HYPER, args.images_per_class)
    rows = [(l, np.mean(errs), _standard_error(errs)) for l, errs in errors.items()]
    for l, mean, se in rows:
        print(f"pairs={l}: error {mean:.3f} +- {se:.3f}", file=sys.stderr)
    sink = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.writer(sink)
    writer.writerow(["pairs", "mean_error", "se"])
    for l, mean, se in rows:
        writer.writerow([l, f"{mean:.6f}", f"{se:.6f}"])
    if args.out:
        sink.close()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="experiment", required=True)
    p = sub.add_parser("planted", help="joint model vs intramodal-only baseline")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--pairs", type=int, default=2000)
    p.add_argument("--images", type=int, default=4)
    p.set_defaults(run=_planted)
    p = sub.add_parser("pairs", help="test error vs number of pairs, as CSV")
    p.add_argument("--pairs", type=int, nargs="+", default=[100, 500, 2000])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--images-per-class", type=int, default=2)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(run=_pairs)
    p = sub.add_parser("cgrid", help="test error with C cross-validated vs fixed at 1")
    p.add_argument("--seeds", type=int, default=20, help="seeds 10, 11, ...")
    p.set_defaults(run=_cgrid)
    args = ap.parse_args()
    args.run(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
