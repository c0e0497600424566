"""In-memory span tracer that wraps ammknn's public functions from outside.

Each traced layer boundary is a (module, attribute) pair.  ``install``
replaces the function in its defining module *and* in every loaded
``ammknn`` module that imported it by name (``pipeline`` does
``from .frame import load_csv``), so a call is recorded whichever
reference the caller holds.  Methods are patched on their class.  A target
that no longer exists is reported as absent instead of failing, so the
tracer keeps working when a later refactor deletes or folds a function.

Spans stay in memory as tuples and are written out once, after the run:
``(span_id, parent_id, phase, name, start, end, self_s)``.  Self time is
the span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

PACKAGE = "ammknn"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _frame_cells(args, kwargs, result):
    return {"cells": result.n_rows * result.n_cols}


def _init_cells(args, kwargs, result):
    frame = args[0]
    return {"cells": len(frame.rows) * len(frame.column_names)}


def _ranking(args, kwargs, result):
    scanned = _arg(args, kwargs, 1, "training_features").n_rows
    return {"distance_evals": scanned, "neighbors": len(result)}


def _folds(args, kwargs, result):
    return {"folds": _arg(args, kwargs, 0, "frame").n_rows}


# span name -> ((module, attribute path), ...), optional count hook
SPANS = {
    "cli.main": ((("cli", "main"),), None),
    "config.load_config": ((("config", "load_config"),), None),
    "config.sha256": ((("config", "PipelineConfig.sha256"),), None),
    "frame.load_csv": ((("frame", "load_csv"),), _frame_cells),
    "frame.write_csv": ((("frame", "write_csv"),), _file_bytes),
    "frame.Frame.init": ((("frame", "Frame.__init__"),), _init_cells),
    "frame.feature_matrix": ((("frame", "Frame.feature_matrix"),), None),
    "frame.aggregate_means": ((("frame", "aggregate_means"),), None),
    "frame.filters": (
        (
            ("frame", "filter_by_cutoff"),
            ("frame", "drop_missing_target"),
            ("frame", "drop_incomplete"),
        ),
        None,
    ),
    "preprocess.standardize_joint": ((("preprocess", "standardize_joint"),), None),
    "preprocess.select_by_correlation": (
        (("preprocess", "select_by_correlation"),),
        None,
    ),
    "preprocess.pearson_correlation": ((("preprocess", "pearson_correlation"),), None),
    "knn.rank_neighbors": ((("knn", "rank_neighbors"),), _ranking),
    "knn.cumulative_means": ((("knn", "cumulative_means"),), None),
    "knn.ammknn_predict_batch": ((("knn", "ammknn_predict_batch"),), None),
    "knn.knn_regress": ((("knn", "knn_regress"),), None),
    "evaluation.loocv": ((("evaluation", "loocv"),), _folds),
    "evaluation.confusion": (
        (
            ("evaluation", "confusion_2x2"),
            ("evaluation", "confusion_3x3"),
            ("evaluation", "threshold_sweep"),
        ),
        None,
    ),
    "report.build_report": ((("report", "build_report"),), None),
    "report.dump_json": ((("report", "dump_json"),), _file_bytes),
    "pipeline.resolve_outlier_feature": (
        (("pipeline", "resolve_outlier_feature"),),
        None,
    ),
    "pipeline.run_prepare": ((("pipeline", "run_prepare"),), None),
    "pipeline.run_loocv": ((("pipeline", "run_loocv"),), None),
    "pipeline.run_validate": ((("pipeline", "run_validate"),), None),
    "pipeline.run_predict": ((("pipeline", "run_predict"),), None),
    "pipeline.run_plot": ((("pipeline", "run_plot"),), None),
    "pipeline.run_synth": ((("pipeline", "run_synth"),), None),
    "svgplot.render_plot": ((("svgplot", "render_plot"),), None),
    "synth.generate_cohort": ((("synth", "generate_cohort"),), None),
}


def _resolve(module_name, path):
    """(owner, attribute, original) for a dotted attribute path, or None."""
    owner = sys.modules.get(f"{PACKAGE}.{module_name}")
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    if isinstance(owner, type):  # the class's own attribute, not an inherited one
        original = owner.__dict__.get(parts[-1])
    else:
        original = getattr(owner, parts[-1], None)
    if not callable(original):
        return None
    return owner, parts[-1], original


class Tracer:
    """Records spans and counts for the SPANS table while installed."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))  # phase -> key -> n
        self.phase = "none"
        self.absent = []
        self._stack = []
        self._next_id = 0
        self._patches = []

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            me = [span_id, 0.0]  # id, time covered by direct children
            stack.append(me)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                spans.append(
                    (span_id, None if parent is None else parent[0], self.phase,
                     name, start, end, duration - me[1])
                )
            bucket = counts[self.phase]
            bucket[f"{name}.calls"] += 1
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    bucket[f"{name}.{key}"] += value
            return result

        return traced

    def install(self):
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        self.absent = []
        for name, (targets, hook) in SPANS.items():
            found = False
            for module_name, path in targets:
                resolved = _resolve(module_name, path)
                if resolved is None:
                    continue
                found = True
                owner, attr, original = resolved
                wrapper = self._wrap(name, original, hook)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
            if not found:
                self.absent.append(name)
        return self

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def phase_totals(self, phase):
        """{metric: value} over a phase and its sub-phases ('pass-3' covers
        'pass-3/loocv'): '<span>.s' self time plus counts."""
        def within(label):
            return label == phase or label.startswith(phase + "/")

        totals = defaultdict(float)
        for _, _, span_phase, name, _, _, self_s in self.spans:
            if within(span_phase):
                totals[f"{name}.s"] += self_s
        for label, counts in self.counts.items():
            if within(label):
                for key, value in counts.items():
                    totals[key] += value
        return totals

    def fired(self):
        return {name for _, _, _, name, _, _, _ in self.spans}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "phase", "name", "start", "end", "self_s"), span
                ))))
                fh.write("\n")
