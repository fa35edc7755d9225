"""Span tracer that wraps copuladyn's public functions from outside.

``Tracer.install`` replaces each traced function in the module namespace its
callers look it up in (``copuladyn.cli``, ``copuladyn.taildep``,
``copuladyn.copula``, ``copuladyn.gaussian``), so nothing under ``src/``
changes. Each call becomes a span (id, name, start, end, thread CPU time,
parent, thread, attrs) kept in memory and written out as JSON by
``Tracer.dump``. Spans from the ``dynamics`` window pool get the
``windowed_reports`` span that submitted them as parent.

``layer_metrics`` turns a dumped span list into the per-layer metrics: self
times (a span's duration minus the part of it its child spans cover), call
counts, and counters read off the layers' return values. ``blocking_path``
splits the traced run's wall time over the layers.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# namespace -> functions looked up there by their callers
TRACED = {
    "copuladyn.cli": (
        "run", "load_prices", "compute_returns", "average_pairwise_density",
        "difference_map", "pearson_matrix", "tail_curve", "windowed_reports",
        "write_grid_csv", "write_difference_csv", "write_relation_csv",
        "sample_panel", "write_price_csv",
    ),
    "copuladyn.taildep": (
        "window_report", "average_pairwise_density", "pearson_matrix", "tail_curve",
        "gaussian_tail_curve", "gaussian_copula_cdf",
    ),
    "copuladyn.copula": ("quantile_bins",),
    "copuladyn.gaussian": ("gaussian_grid", "bivariate_normal_cdf"),
}

# cpu: CPU seconds of the span's own thread between start and end
SPAN_FIELDS = ("id", "name", "start", "end", "cpu", "parent", "thread", "attrs")
MAIN_THREAD = threading.main_thread().name

WRITERS = (
    "copula.write_grid_csv", "gaussian.write_difference_csv",
    "taildep.write_relation_csv", "synth.write_price_csv",
)


def _panel_attrs(args, kwargs, panel):
    k, union = panel.prices.shape
    return {
        "rows": int(np.count_nonzero(~np.isnan(panel.prices))) + panel.excluded_count,
        "rows_excluded": panel.excluded_count,
        "panel_mb": k * union * 8 / 2**20,
    }


def _returns_attrs(args, kwargs, matrix):
    panel, interval = args[0], args[1]
    sessions = np.unique(panel.timestamps.astype("datetime64[D]")).size
    possible = sessions * (panel.calendar.session_minutes // interval)
    return {"return_cols": matrix.n_observations, "cols_dropped": possible - matrix.n_observations}


def _windows_attrs(args, kwargs, reports):
    threads = kwargs.get("threads")
    return {"threads": threads if threads and threads > 1 else 1}


# counters read off a layer's arguments and return value after its span has
# closed; their cost lands in the caller's self time and in trace.overhead_s
ATTRS = {
    "ingest.load_prices": _panel_attrs,
    "ingest.compute_returns": _returns_attrs,
    "copula.average_pairwise_density": lambda a, k, grid: {"pairs": grid.pair_count},
    "taildep.windowed_reports": _windows_attrs,
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            stack = self._stack()
            parent = stack[-1] if stack else None
            stack.append(span_id)
            record = [span_id, name, time.monotonic(), None, time.thread_time(), parent,
                      threading.current_thread().name, None]
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.monotonic()
                record[4] = time.thread_time() - record[4]
                stack.pop()
                self.spans.append(record)
            if attrs_of:
                record[7] = attrs_of(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function and make window-pool spans find their parent."""
        for module_name, names in TRACED.items():
            module = importlib.import_module(module_name)
            for fn_name in names:
                setattr(module, fn_name, self.wrap(getattr(module, fn_name)))
        importlib.import_module("copuladyn.taildep").ThreadPoolExecutor = self._executor_class()

    def _executor_class(self):
        tracer = self

        class SpanExecutor(ThreadPoolExecutor):
            """Runs each task with the submitting thread's open span as its root parent."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def task():
                    stack = tracer._stack()
                    stack.append(parent)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        stack.pop()

                return super().submit(task)

        return SpanExecutor

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def load_spans(path) -> list:
    """Spans written by ``Tracer.dump``, as dicts."""
    with open(path) as fh:
        return [dict(zip(SPAN_FIELDS, s)) for s in json.load(fh)]


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(children.get(s["id"], ()), s["start"], s["end"])
        for s in spans
    }


def cpu_self_times(spans) -> dict:
    """Span id -> CPU time minus that of its children on the same thread."""
    by_id = {s["id"]: s for s in spans}
    own = {s["id"]: s["cpu"] for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["thread"] == s["thread"]:
            own[parent["id"]] -= s["cpu"]
    return own


def blocking_path(spans) -> dict:
    """Seconds of the root span's interval attributed to each layer.

    Writers count as the ``write`` layer, whatever module they live in.
    Main-thread spans contribute their self times. Time a pooled span
    (``taildep.windowed_reports``) spends waiting on its workers is split over
    the layers by their CPU self times on the worker threads: the workers
    share one interpreter lock, so their wall self times also hold the time
    each waited for the lock while another worker computed. The parts sum to
    the root span's duration.
    """
    own = self_times(spans)
    cpu = cpu_self_times(spans)
    by_id = {s["id"]: s for s in spans}
    layers = {}
    pooled = {}  # pooled parent id -> {layer: worker CPU self time}
    for s in spans:
        layer = "write" if s["name"] in WRITERS else s["name"].split(".", 1)[0]
        if s["thread"] == MAIN_THREAD:
            layers[layer] = layers.get(layer, 0.0) + own[s["id"]]
            continue
        root = s
        while by_id[root["parent"]]["thread"] != MAIN_THREAD:
            root = by_id[root["parent"]]
        shares = pooled.setdefault(root["parent"], {})
        shares[layer] = shares.get(layer, 0.0) + cpu[s["id"]]
    for parent_id, shares in pooled.items():
        parent = by_id[parent_id]
        waited = _covered(
            [(s["start"], s["end"]) for s in spans if s["parent"] == parent_id],
            parent["start"], parent["end"],
        )
        busy = sum(shares.values())
        for layer, t in shares.items():
            layers[layer] = layers.get(layer, 0.0) + waited * t / busy
    return layers


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced run (the ``cli.files_written``,
    ``cli.bytes_written`` and ``trace.*`` metrics are added by the caller)."""
    own = self_times(spans)
    dur, slf, calls, attr = defaultdict(float), defaultdict(float), defaultdict(int), defaultdict(int)
    for s in spans:
        dur[s["name"]] += s["end"] - s["start"]
        slf[s["name"]] += own[s["id"]]
        calls[s["name"]] += 1
        for key, value in (s["attrs"] or {}).items():
            attr[key] += value
    pool_wall = dur["taildep.windowed_reports"]
    busy = dur["taildep.window_report"]
    return {
        "ingest.load_prices_s": dur["ingest.load_prices"],
        "ingest.compute_returns_s": dur["ingest.compute_returns"],
        "ingest.rows": attr["rows"],
        "ingest.rows_excluded": attr["rows_excluded"],
        "ingest.return_cols": attr["return_cols"],
        "ingest.cols_dropped": attr["cols_dropped"],
        "ingest.panel_mb": attr["panel_mb"],
        "copula.pairwise_s": slf["copula.average_pairwise_density"],
        "copula.pairwise_calls": calls["copula.average_pairwise_density"],
        "copula.pairs": attr["pairs"],
        "copula.bins_s": dur["copula.quantile_bins"],
        "copula.bins_calls": calls["copula.quantile_bins"],
        "gaussian.baseline_s": dur["gaussian.difference_map"],
        "gaussian.grids": calls["gaussian.gaussian_grid"],
        "gaussian.bvn_calls": calls["gaussian.bivariate_normal_cdf"],
        "gaussian.bvn_s": dur["gaussian.bivariate_normal_cdf"],
        "gaussian.copula_cdf_calls": calls["gaussian.gaussian_copula_cdf"],
        "taildep.pearson_s": dur["taildep.pearson_matrix"],
        "taildep.tail_curve_s": dur["taildep.tail_curve"],
        "taildep.gauss_tail_s": dur["taildep.gaussian_tail_curve"],
        "taildep.windows": calls["taildep.window_report"],
        "taildep.window_busy_s": busy,
        "taildep.pool_util": busy / (attr["threads"] * pool_wall) if pool_wall else 0.0,
        "cli.write_s": sum(dur[n] for n in WRITERS),
        "cli.other_s": slf["cli.run"],
        "synth.sample_s": dur["synth.sample_panel"],
        "synth.write_s": dur["synth.write_price_csv"],
    }
