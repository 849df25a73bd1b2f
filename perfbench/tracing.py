"""Per-layer spans and counters, recorded from outside the program.

The benchmark never edits the program. A Tracer replaces each traced
function with a wrapper at every place the program looks the function up
(every ``rboost.*`` module attribute bound to it, or the class attribute
for a method), records one span per call and the layer's counters, and
puts the originals back on exit. A span is (name, start_ns, end_ns,
parent span id, op id); spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

WORKLOADS = ("table_d10", "realdata_stumps", "serve_100k")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_fit_tree(args, kwargs, tree):
    data = _arg(args, kwargs, 0, "data")
    return {
        "rows_x_cols": data.m * data.d,
        "splits": tree.n_splits,
        "split_budget": _arg(args, kwargs, 2, "n_splits"),
    }


def _count_rows(args, kwargs, result):
    return {"rows": result.shape[0]}


def _count_result_bytes(args, kwargs, result):
    return {"bytes": result.nbytes}


def _count_train(args, kwargs, result):
    model, trace = result
    return {
        "rounds": len(model),
        "early_stops": int(trace.stop_reason is not None),
        "gram_fallbacks": int(trace.gram_fallback.sum()),
    }


def _count_u_evaluated(args, kwargs, result):
    return {"u_evaluated": len(result.per_u_curve)}


def _count_dataset_rows(args, kwargs, data):
    return {"rows": data.m}


def _count_file_bytes(path_index, path_name):
    def count(args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(args, kwargs, path_index, path_name))}

    return count


@dataclass(frozen=True)
class Layer:
    """One traced program function.

    ``attrs`` name the function in ``module``; each must exist, and all
    are wrapped under the same span name.
    ``on`` lists the workloads on which the layer must record calls: a
    traced run that sees none there fails, so a refactor that routes
    calls around the wrapped name cannot drop the layer silently.
    """

    name: str
    module: str
    attrs: tuple
    on: tuple
    count: Optional[Callable] = None
    counters: tuple = ()  # (metric suffix, unit, better) the layer reports besides calls and self_s


TRAIN = Layer(
    "boosters.train",
    "rboost.boosters",
    # bench and selection call the per-algorithm entry points directly.
    ("train", "train_boosting", "train_rboosting", "train_ddrboosting"),
    WORKLOADS,
    _count_train,
    (("rounds", "count", "higher"), ("early_stops", "count", "lower"), ("gram_fallbacks", "count", "lower")),
)

LAYERS = (
    Layer("bench.run_comparison", "rboost.bench", ("run_comparison",), ("table_d10",)),
    Layer("bench.sample_dataset", "rboost.bench", ("sample_dataset",), ("table_d10",)),
    TRAIN,
    Layer(
        "boosters.two_dim_linear_search",
        "rboost.boosters",
        ("two_dim_linear_search",),
        ("table_d10", "realdata_stumps"),
    ),
    Layer(
        "learners.fit_tree",
        "rboost.learners",
        ("fit_tree",),
        WORKLOADS,
        _count_fit_tree,
        (("rows_x_cols", "count", "lower"), ("split_fill", "ratio", "higher")),
    ),
    Layer(
        "learners.tree_predict",
        "rboost.learners",
        ("RegressionTree.predict",),
        WORKLOADS,
        _count_rows,
        (("rows", "count", "lower"),),
    ),
    Layer(
        "core.predict",
        "rboost.core",
        ("Ensemble.predict",),
        ("realdata_stumps", "serve_100k"),
        _count_rows,
        (("rows", "count", "lower"),),
    ),
    Layer(
        "core.staged_predict",
        "rboost.core",
        ("Ensemble.staged_predict",),
        ("table_d10", "realdata_stumps"),
        _count_result_bytes,
        (("bytes", "bytes", "lower"),),
    ),
    Layer(
        "selection.adaptive_select",
        "rboost.selection",
        ("adaptive_select",),
        ("realdata_stumps",),
        _count_u_evaluated,
        (("u_evaluated", "count", "higher"),),
    ),
    Layer("selection.select_k_by_validation", "rboost.selection", ("select_k_by_validation",), ("realdata_stumps",)),
    Layer("realdata.realdata_experiment", "rboost.realdata", ("realdata_experiment",), ("realdata_stumps",)),
    Layer(
        "io.load_csv",
        "rboost.io",
        ("load_csv",),
        ("realdata_stumps", "serve_100k"),
        _count_dataset_rows,
        (("rows", "count", "lower"),),
    ),
    Layer("io.load_feature_matrix", "rboost.io", ("load_feature_matrix",), ("serve_100k",)),
    Layer("io.load_model", "rboost.io", ("load_model",), ("serve_100k",)),
    Layer(
        "io.save_model",
        "rboost.io",
        ("save_model",),
        ("serve_100k",),
        _count_file_bytes(1, "path"),
        (("bytes", "bytes", "lower"),),
    ),
    Layer(
        "io.emit_delimited",
        "rboost.io",
        ("emit_delimited",),
        ("realdata_stumps", "serve_100k"),
        _count_file_bytes(0, "path"),
        (("bytes", "bytes", "lower"),),
    ),
    Layer("cli.main", "rboost.cli", ("main",), ("realdata_stumps", "serve_100k")),
)

# Metrics of the traced run besides the layers': (name, unit, better).
TRACE_METRICS = (("trace.overhead_pct", "%", "lower"), ("trace.spans", "count", "lower"))


def per_layer_metric_specs():
    """(name, unit, better) of every per-layer metric a traced run reports, in order."""
    specs = []
    for layer in LAYERS:
        specs.append((f"{layer.name}.calls", "count", "lower"))
        specs.append((f"{layer.name}.self_s", "s", "lower"))
        specs.extend((f"{layer.name}.{suffix}", unit, better) for suffix, unit, better in layer.counters)
    return specs + list(TRACE_METRICS)


def _call_sites(fn):
    """Every (module, attribute) among the loaded rboost modules bound to fn."""
    sites = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "rboost" or mod_name.startswith("rboost.")):
            continue
        sites.extend((mod, key) for key, value in list(vars(mod).items()) if value is fn)
    return sites


class Tracer:
    """Records spans and counters for a set of layers while installed.

    Use as a context manager; ``op`` tags the spans and counts of the op
    in progress. ``last`` keeps each layer's most recent return value.
    """

    def __init__(self, layers):
        self.layers = tuple(layers)
        self.spans = []  # (name, start_ns, end_ns, parent span id or None, op)
        self.counts = defaultdict(lambda: defaultdict(int))  # (op, layer name) -> counter -> total
        self.last = {}
        self.op = None
        self._stack = []
        self._restore = []

    def __enter__(self):
        try:
            for layer in self.layers:
                self._install(layer)
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self._uninstall()

    def _install(self, layer):
        module = importlib.import_module(layer.module)
        for attr in layer.attrs:
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            fn = vars(owner).get(fn_name)
            if fn is None:
                raise LookupError(f"layer {layer.name}: {layer.module}.{attr} does not exist")
            sites = [(owner, fn_name)] if owner_name else _call_sites(fn)
            wrapper = self._wrap(layer, fn)
            for site_owner, key in sites:
                self._restore.append((site_owner, key, fn))
                setattr(site_owner, key, wrapper)

    def _uninstall(self):
        while self._restore:
            owner, key, fn = self._restore.pop()
            setattr(owner, key, fn)

    def _wrap(self, layer, fn):
        name, count = layer.name, layer.count
        spans, stack, now = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)  # reserve the id so spans stay in start order
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                spans[span_id] = (name, start, end, parent, self.op)
            if count is not None:
                totals = self.counts[(self.op, name)]
                for key, value in count(args, kwargs, result).items():
                    totals[key] += value
            self.last[name] = result
            return result

        return traced

    def op_seconds(self, op, name):
        """Total seconds of the outermost spans named ``name`` in one op."""
        ns = sum(end - start for n, start, end, parent, o in self.spans if o == op and n == name and parent is None)
        return ns / 1e9

    def layer_metrics(self, ops):
        """Per-op mean of each layer's calls, self time and counters over ``ops``."""
        ops = set(ops)
        child_ns = defaultdict(int)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        n_spans = 0
        for span_id, (name, start, end, parent, op) in enumerate(self.spans):
            if op in ops:
                n_spans += 1
                calls[name] += 1
                self_ns[name] += end - start - child_ns[span_id]
        n = len(ops)
        out = {}
        for layer in self.layers:
            totals = defaultdict(int)
            for op in ops:
                for key, value in self.counts.get((op, layer.name), {}).items():
                    totals[key] += value
            out[f"{layer.name}.calls"] = calls[layer.name] / n
            out[f"{layer.name}.self_s"] = self_ns[layer.name] / 1e9 / n
            for suffix, _, _ in layer.counters:
                if suffix == "split_fill":
                    budget = totals["split_budget"]
                    out[f"{layer.name}.split_fill"] = totals["splits"] / budget if budget else 0.0
                else:
                    out[f"{layer.name}.{suffix}"] = totals[suffix] / n
        out["trace.spans"] = n_spans / n
        return out

    def missing_layers(self, workload, ops):
        """Layers expected on ``workload`` that recorded no call in ``ops``."""
        ops = set(ops)
        seen = {name for name, _, _, _, op in self.spans if op in ops}
        return [layer.name for layer in self.layers if workload in layer.on and layer.name not in seen]

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, (name, start, end, parent, op) in enumerate(self.spans):
                record = {"id": span_id, "name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op}
                fh.write(json.dumps(record) + "\n")
