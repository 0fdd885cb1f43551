#!/usr/bin/env python3
"""Sweep the number of co-occurring pairs and report test error as CSV.

Writes one `pairs,mean_error,se` row per sweep point to stdout (or --out),
averaging over several seeds. The trend should be weakly decreasing: more
aligned pairs pin down the transfer matrix better.
"""
import argparse
import csv
import sys

import numpy as np

from crossmodal import Hyperparameters, SynthConfig, TrainData, evaluate_model, generate, train


def sweep_errors(pair_counts, seeds, hyper: Hyperparameters, images_per_class=2):
    """Per pairs count, the test error rate of the joint model on each synth
    seed, as a list."""
    errors = {}
    for l in pair_counts:
        errors[l] = []
        for seed in seeds:
            cfg = SynthConfig(seed=seed, m_images=2 * images_per_class, l_pairs=l)
            ds = generate(cfg)
            model, _ = train(TrainData(ds.texts, ds.images, ds.pairs), hyper)
            errors[l].append(evaluate_model(model, ds.test_images).error_rate)
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pairs", type=int, nargs="+", default=[100, 500, 2000])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--images-per-class", type=int, default=2)
    ap.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = ap.parse_args()

    hyper = Hyperparameters(gamma=1.0, lam=1.0, C=1.0, max_iter=120, tol=1e-7)
    errors = sweep_errors(args.pairs, range(args.seeds), hyper, args.images_per_class)
    rows = []
    for l, errs in errors.items():
        errs = np.array(errs)
        se = errs.std(ddof=1) / np.sqrt(errs.size) if errs.size > 1 else 0.0
        rows.append((l, errs.mean(), se))
        print(f"pairs={l}: error {errs.mean():.3f} +- {se:.3f}", file=sys.stderr)

    sink = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.writer(sink)
    writer.writerow(["pairs", "mean_error", "se"])
    for l, mean, se in rows:
        writer.writerow([l, f"{mean:.6f}", f"{se:.6f}"])
    if args.out:
        sink.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
