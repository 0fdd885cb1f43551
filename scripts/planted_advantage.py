#!/usr/bin/env python3
"""Compare the joint model against an intramodal-only baseline.

With only a couple of labeled images per class, the kernel part alone cannot
generalize; the cross-modal transfer term carries the signal. Prints per-seed
error rates and the paired mean difference with its standard error.
"""
import argparse

import numpy as np

from crossmodal import (Hyperparameters, SynthConfig, TrainData, evaluate_model, generate,
                        train)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--pairs", type=int, default=2000)
    ap.add_argument("--images", type=int, default=4)
    args = ap.parse_args()

    hyper = Hyperparameters(gamma=1.0, lam=1.0, C=1.0, max_iter=120, tol=1e-7)
    baseline_hyper = Hyperparameters(gamma=1.0, lam=0.0, C=1.0, max_iter=120, tol=1e-7)

    diffs = []
    for seed in range(args.seeds):
        ds = generate(SynthConfig(seed=seed, m_images=args.images, l_pairs=args.pairs))
        full, _ = train(TrainData(ds.texts, ds.images, ds.pairs), hyper)
        base, _ = train(TrainData([], ds.images, []), baseline_hyper)
        e_full = evaluate_model(full, ds.test_images).error_rate
        e_base = evaluate_model(base, ds.test_images).error_rate
        diffs.append(e_base - e_full)
        print(f"seed {seed:2d}: full {e_full:.3f}  intramodal-only {e_base:.3f}")

    diffs = np.array(diffs)
    se = diffs.std(ddof=1) / np.sqrt(diffs.size)
    print(f"mean paired improvement {diffs.mean():.3f} +- {se:.3f} SE")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
