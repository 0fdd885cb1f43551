#!/usr/bin/env python3
"""Compare the joint model against an intramodal-only baseline.

With only a couple of labeled images per class, the kernel part alone cannot
generalize; the cross-modal transfer term carries the signal. Prints per-seed
error rates and the paired mean difference with its standard error.
"""
import argparse
from dataclasses import replace

import numpy as np

from crossmodal import (Hyperparameters, SynthConfig, TrainData, evaluate_model, generate,
                        train)


def seed_errors(seeds, hyper: Hyperparameters, pairs=2000, images=4):
    """Test error rates of the joint model and of the intramodal-only baseline
    (the same fit without texts and pairs, at lam = 0) on each synth seed, as
    two lists."""
    full_errs, base_errs = [], []
    for seed in seeds:
        ds = generate(SynthConfig(seed=seed, m_images=images, l_pairs=pairs))
        full, _ = train(TrainData(ds.texts, ds.images, ds.pairs), hyper)
        base, _ = train(TrainData([], ds.images, []), replace(hyper, lam=0.0))
        full_errs.append(evaluate_model(full, ds.test_images).error_rate)
        base_errs.append(evaluate_model(base, ds.test_images).error_rate)
    return full_errs, base_errs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--pairs", type=int, default=2000)
    ap.add_argument("--images", type=int, default=4)
    args = ap.parse_args()

    hyper = Hyperparameters(gamma=1.0, lam=1.0, C=1.0, max_iter=120, tol=1e-7)
    full_errs, base_errs = seed_errors(range(args.seeds), hyper, args.pairs, args.images)
    for seed, (e_full, e_base) in enumerate(zip(full_errs, base_errs)):
        print(f"seed {seed:2d}: full {e_full:.3f}  intramodal-only {e_base:.3f}")

    diffs = np.array(base_errs) - np.array(full_errs)
    se = diffs.std(ddof=1) / np.sqrt(diffs.size)
    print(f"mean paired improvement {diffs.mean():.3f} +- {se:.3f} SE")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
