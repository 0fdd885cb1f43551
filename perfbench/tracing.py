"""Span tracer for the crossmodal package, installed from outside it.

`Tracer.install` replaces every public function of the package's layer
modules at each binding a caller uses: a module that did
``from .losses import misalign`` has its own name ``misalign`` replaced, so
the call is seen where it happens and nothing under ``src/`` changes.
Private helpers (leading underscore) are never wrapped; their time counts as
self time of the public function that called them.

Spans are folded in memory as they close: per span name the call count, the
total time and the self time (the span minus the part of it its child spans
cover), and per (caller, callee) pair a call count. `snapshot` hands the
folded spans to the run, which writes them out when it ends.
"""
from __future__ import annotations

import functools
import importlib
import os
import time
import types
from collections import Counter

PACKAGE = "crossmodal"
LAYERS = (
    "linalg", "losses", "solver", "model", "evaluation",
    "zeroshot", "data_io", "cli", "synth",
)


def _count_fit(counts, result, alpha_used):
    """Counters of one `(model, report)` pair returned by a trainer."""
    report = result[1]
    counts["solver.fits"] += 1
    counts["solver.iters"] += report.iterations
    if alpha_used:
        counts["solver.alpha_iters"] += report.iterations
    trace = report.objective_trace
    # ROADMAP item 5: an exhausted line search leaves the iterate unchanged,
    # the relative-decrease test passes and the run reports convergence.
    if report.converged and len(trace) >= 2 and trace[-1] == trace[-2]:
        counts["solver.flat_converged"] += 1


def _hook_train(counts, args, kwargs, result):
    _count_fit(counts, result, alpha_used=result[0].alpha.size > 0)


def _hook_train_zeroshot(counts, args, kwargs, result):
    _count_fit(counts, result, alpha_used=False)


def _hook_parse_dataset(counts, args, kwargs, result):
    counts["data_io.parse_dataset.bytes"] += os.path.getsize(args[0])
    counts["data_io.parse_dataset.records"] += (
        len(result.texts) + len(result.images) + len(result.pairs)
    )


def _hook_write_model(counts, args, kwargs, result):
    counts["data_io.write_model.bytes"] += os.path.getsize(args[1])


def _hook_read_model(counts, args, kwargs, result):
    counts["data_io.read_model.bytes"] += os.path.getsize(args[0])


def _hook_atomic_write_text(counts, args, kwargs, result):
    # json.dumps escapes non-ASCII, so characters are bytes here.
    counts["data_io.atomic_write_text.bytes"] += len(args[1])


# Counters read from arguments or results, by span name.
HOOKS = {
    "solver.train": _hook_train,
    "zeroshot.train_zeroshot": _hook_train_zeroshot,
    "data_io.parse_dataset": _hook_parse_dataset,
    "data_io.write_model": _hook_write_model,
    "data_io.read_model": _hook_read_model,
    "data_io.atomic_write_text": _hook_atomic_write_text,
}


def _cli_span_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.main"


class Tracer:
    def __init__(self):
        self._stack = []    # open spans: [name, start, seconds covered by children]
        self._patched = []  # (module, attribute, original) for uninstall
        self.spans = {}     # name -> [calls, total_s, self_s]
        self.edges = {}     # (caller or None, name) -> calls
        self.counts = Counter()

    def reset(self):
        self.spans.clear()
        self.edges.clear()
        self.counts.clear()

    def _enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self):
        name, start, covered = self._stack.pop()
        duration = time.perf_counter() - start
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            caller = parent[0]
        else:
            caller = None
        stat = self.spans.get(name)
        if stat is None:
            stat = self.spans[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - covered
        edge = (caller, name)
        self.edges[edge] = self.edges.get(edge, 0) + 1

    def _wrap(self, name, fn):
        enter, leave = self._enter, self._exit
        hook = HOOKS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every public layer function at every binding in the package."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS
        ]
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                owner, _, layer = value.__module__.rpartition(".")
                if owner != PACKAGE or layer not in LAYERS or value.__name__.startswith("_"):
                    continue
                wrapper = wrappers.get(id(value))
                if wrapper is None:
                    name = f"{layer}.{value.__name__}"
                    if name == "cli.main":
                        name = _cli_span_name
                    wrapper = wrappers[id(value)] = self._wrap(name, value)
                setattr(module, attr, wrapper)
                self._patched.append((module, attr, value))

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def snapshot(self) -> dict:
        """Folded spans and counters since the last reset, as plain data."""
        return {
            "spans": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.spans.items())
            },
            "edges": [
                {"caller": caller, "callee": callee, "calls": n}
                for (caller, callee), n in sorted(
                    self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
                )
            ],
            "counts": dict(sorted(self.counts.items())),
        }


# Layers whose summed self time is a metric: every workload runs them, so
# none reads a constant 0. Other layers' times are in the spans on disk.
_TIMED_LAYERS = ("linalg", "losses", "solver", "model", "evaluation")
_METRIC_SPANS = ("evaluation.error_rate", "evaluation.average_precision",
                 "evaluation.auc", "evaluation.mean_ap")
_CALL_COUNTS = (
    "linalg.svd", "solver.prox_step", "solver.project_alpha", "losses.misalign",
    "losses.hinge_subgrad", "model.discriminant", "model.kernel_eval",
    "model.f_inter", "model.predict_label", "zeroshot.score_unseen",
    "zeroshot.one_vs_rest_texts",
)
_BYTE_COUNTS = (
    "data_io.parse_dataset.bytes", "data_io.write_model.bytes",
    "data_io.read_model.bytes", "data_io.atomic_write_text.bytes",
)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(snapshot) -> dict:
    """name -> (value, unit) for one traced pass."""
    spans, counts, edges = snapshot["spans"], snapshot["counts"], snapshot["edges"]
    calls = {name: spans[name]["calls"] if name in spans else 0 for name in _CALL_COUNTS}
    iters, alpha_iters = counts.get("solver.iters", 0), counts.get("solver.alpha_iters", 0)
    prox, alpha_probes = calls["solver.prox_step"], calls["solver.project_alpha"]
    out = {f"{name}.calls": (n, "count") for name, n in calls.items()}
    out.update({
        "solver.fits": (counts.get("solver.fits", 0), "count"),
        "solver.iters": (iters, "count"),
        "solver.flat_converged": (counts.get("solver.flat_converged", 0), "count"),
        "linalg.svd.per_iter": (_ratio(calls["linalg.svd"], iters), "1/iter"),
        "losses.smooth_evals.per_iter": (_ratio(calls["losses.misalign"], iters), "1/iter"),
        # Each iteration accepts one step of each kind unless its line search
        # runs out; the probes beyond that are backtracks.
        "solver.s_step.accept_ratio": (_ratio(iters, prox), "ratio"),
        "solver.s_step.backtracks": (prox - iters, "count"),
        "solver.alpha_step.accept_ratio": (_ratio(alpha_iters, alpha_probes), "ratio"),
        "solver.alpha_step.backtracks": (alpha_probes - alpha_iters, "count"),
        "evaluation.crossval_select.fits": (sum(
            e["calls"] for e in edges
            if e["caller"] == "evaluation.crossval_select" and e["callee"] == "solver.train"
        ), "count"),
        "data_io.parse_dataset.records": (counts.get("data_io.parse_dataset.records", 0), "count"),
        "cli.commands": (sum(s["calls"] for n, s in spans.items() if n.startswith("cli.")
                             and n != "cli.build_parser"), "count"),
    })
    out.update({name: (counts.get(name, 0), "B") for name in _BYTE_COUNTS})
    for layer in _TIMED_LAYERS:
        out[f"{layer}.self_s"] = (sum(s["self_s"] for n, s in spans.items()
                                      if n.startswith(layer + ".")), "s")
    self_s = {name: s["self_s"] for name, s in spans.items()}
    out["linalg.svd.self_s"] = (self_s.get("linalg.svd", 0.0), "s")
    out["model.f_inter.self_s"] = (self_s.get("model.f_inter", 0.0), "s")
    out["evaluation.metrics.self_s"] = (sum(self_s.get(n, 0.0) for n in _METRIC_SPANS), "s")
    return out
