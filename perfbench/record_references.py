"""Record the per-seed reference answers that run.py checks outputs against.

    python3 perfbench/record_references.py 0-31 1009 [workload ...]

Runs one pass of every workload named (all when none is) per seed and stores its final objective,
test error, test AUC and crossval selection in references.json, keeping the
seeds already there. Record references only from a commit whose answers are
trusted; a run on a seed with no reference checks quality floors instead.
"""
from __future__ import annotations

import json
import shutil
import sys

import run  # sets up the import path and the BLAS thread cap
from workloads import WORKLOADS


def parse_seeds(specs):
    seeds = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv):
    names = [a for a in argv if a in WORKLOADS] or list(WORKLOADS)
    argv = [a for a in argv if a not in WORKLOADS]
    refs = json.loads(run.REFERENCES.read_text()) if run.REFERENCES.exists() else {}
    workdir = run.OUT / "work-references"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            workload = WORKLOADS[name]()
            for seed in parse_seeds(argv):
                workload.setup(seed, str(workdir))
                result = workload.run_pass()
                failures = workload.check(result)
                if failures:
                    raise SystemExit(f"{name} seed {seed}: {failures}")
                entry = {
                    "final_objective": result.final_objective,
                    "test_error": result.test_error,
                    "test_auc": result.test_auc,
                }
                if result.selection is not None:
                    entry["selection"] = list(result.selection)
                refs.setdefault(name, {})[str(seed)] = entry
                print(name, seed, entry, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name in refs:
        refs[name] = dict(sorted(refs[name].items(), key=lambda kv: int(kv[0])))
    run.REFERENCES.write_text(json.dumps(dict(sorted(refs.items())), indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
