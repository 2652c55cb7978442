"""Spans around calls into platekit's layers, and the per-layer metrics.

The tracer replaces, in every loaded ``platekit.*`` module, each name bound
to one of the functions in ``LAYER_FUNCTIONS`` with a wrapper that records a
span (name, start, end, parent span, job).  Calls from one module into
another and calls through a module attribute (``planner.coverage_map``) are
both caught; helpers too cheap to time (``sinc``, ``dbsm``, dB conversions,
everything in ``geometry``) are left alone, so their time counts to the
caller.  The job span itself is ``cli.main``, opened by the runner.

Spans live in flat arrays and are written out after the run.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import sys
import time
import tracemalloc
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYER_FUNCTIONS = {
    "rcs": (
        "rcs",
        "rcs_xy_plate",
        "rcs_perpendicular",
        "rcs_perpendicular_cut",
        "rcs_parallel",
        "rcs_parallel_cut",
        "rcs_large_plate_limit",
    ),
    "link": ("received_power", "power_sweep"),
    "planner": ("coverage_map", "coverage_map_points", "optimize_orientation", "orientation_objective"),
    "po_oracle": ("po_rcs",),
    "validate": ("run_validation",),
    "measure": ("load_series", "theoretical_curve", "compare"),
    "svgplot": ("line_plot", "heatmap"),
}
LAYERS = ("cli",) + tuple(LAYER_FUNCTIONS)
JOB_SPAN = "cli.main"


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _po_nodes(args, kwargs, result) -> dict:
    from platekit.po_oracle import QuadratureSpec

    quad = _arg(args, kwargs, 3, "quad")
    if quad is None:
        wave = _arg(args, kwargs, 1, "wave")
        quad = QuadratureSpec.for_plate(_arg(args, kwargs, 0, "plate"), wave.wavelength)
    return {"nodes": quad.nodes_per_edge**2}


def _optimize_counts(args, kwargs, result) -> dict:
    region = _arg(args, kwargs, 1, "region")
    return {"evaluations": result.evaluations, "cells": region.nu * region.nv}


# Counts read off a call's arguments or result, by span name.
_COUNTERS = {
    "po_oracle.po_rcs": _po_nodes,
    "planner.optimize_orientation": _optimize_counts,
    "planner.coverage_map": lambda args, kwargs, result: {"cells": int(result.points.shape[0])},
    "svgplot.heatmap": lambda args, kwargs, result: {"cells": int(np.size(_arg(args, kwargs, 0, "values")))},
}
# Spans that also record the tracemalloc peak of the call.
_MEMORY_SPANS = {"planner.optimize_orientation"}


class Tracer:
    """Records spans while a job is open; passes calls straight through otherwise."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: list[tuple[int, str, float]] = []
        self.errors: Counter = Counter()
        self.current = -1
        self.job_id = -1
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.current)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.current = idx
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.current = self.parent[idx]

    def begin_job(self, job_id: int) -> int:
        self.job_id = job_id
        return self._open(self._name_id(JOB_SPAN))

    def end_job(self, idx: int, raised: bool) -> None:
        self._close(idx)
        if raised:
            self.errors["cli"] += 1
        self.job_id = -1

    def _wrap(self, fn, span: str, layer: str):
        name_id = self._name_id(span)
        counter = _COUNTERS.get(span)
        memory = span in _MEMORY_SPANS

        def spanned(*args, **kwargs):
            if self.job_id < 0:
                return fn(*args, **kwargs)
            if memory:
                tracemalloc.start()
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                self._close(idx)
                if memory:
                    self.counts.append((idx, "peak_bytes", tracemalloc.get_traced_memory()[1]))
                    tracemalloc.stop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts.append((idx, key, value))
            return result

        spanned.__wrapped__ = fn
        return spanned

    def install(self) -> None:
        """Wrap the traced functions wherever a platekit module binds them."""
        targets = {}
        for layer, functions in LAYER_FUNCTIONS.items():
            module = sys.modules[f"platekit.{layer}"]
            for fn_name in functions:
                fn = getattr(module, fn_name)
                targets[id(fn)] = self._wrap(fn, f"{layer}.{fn_name}", layer)
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("platekit."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """Write every span as gzip CSV: name,start_s,end_s,parent,job."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,job\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{names[self.name[i]]},{self.start[i]:.9f},{self.end[i]:.9f},"
                    f"{self.parent[i]},{self.job[i]}\n"
                )


class SpanTable:
    """Span arrays as numpy columns, with self time per span."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.name = np.frombuffer(tracer.name, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.job = np.frombuffer(tracer.job, dtype=np.int32).copy()
        self.dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
        child = np.zeros_like(self.dur)
        nested = self.parent >= 0
        np.add.at(child, self.parent[nested], self.dur[nested])
        self.self_time = self.dur - child
        self.layer = np.array([n.split(".")[0] for n in self.names], dtype=object)[self.name]
        self.count_rows = list(tracer.counts)

    def select(self, jobs) -> np.ndarray:
        return np.isin(self.job, np.asarray(list(jobs), dtype=np.int32))

    def spans(self, name: str, sel: np.ndarray) -> np.ndarray:
        if name not in self.names:
            return np.zeros_like(sel)
        return sel & (self.name == self.names.index(name))

    def count(self, name: str, key: str, sel: np.ndarray) -> list[float]:
        mask = self.spans(name, sel)
        return [value for idx, k, value in self.count_rows if k == key and mask[idx]]

    def job_counts(self, job: int) -> dict[str, float]:
        """Exact counts of one job: rcs calls and quadrature nodes."""
        sel = self.job == job
        return {
            "rcs.calls": int(np.count_nonzero(sel & (self.layer == "rcs"))),
            "po_oracle.nodes": int(sum(self.count("po_oracle.po_rcs", "nodes", sel))),
        }


def _per_call(total: float, calls: int, scale: float = 1.0) -> float:
    return total / calls * scale if calls else 0.0


def layer_metrics(
    table: SpanTable, jobs: list[int], rows_by_job: dict[int, int]
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics over the given traced jobs (see ``LAYER_MAP``), and
    each layer's share of job time (its self time over the job spans)."""
    sel = table.select(jobs)
    n_jobs = len(jobs)
    job_time = float(table.dur[table.spans(JOB_SPAN, sel)].sum())

    def layer(name):
        return sel & (table.layer == name)

    def total(mask, column=None):
        return float((table.dur if column is None else column)[mask].sum())

    def mean_call(name, scale=1.0):
        mask = table.spans(name, sel)
        return _per_call(total(mask), int(np.count_nonzero(mask)), scale)

    m: dict[str, float] = {}
    rcs = layer("rcs")
    m["rcs.calls"] = np.count_nonzero(rcs) / n_jobs
    m["rcs.us_per_call"] = _per_call(total(rcs), int(np.count_nonzero(rcs)), 1e6)
    m["rcs.self_s"] = total(rcs, table.self_time) / n_jobs
    m["link.calls"] = np.count_nonzero(layer("link")) / n_jobs
    m["link.self_s"] = total(layer("link"), table.self_time) / n_jobs

    main = table.spans(JOB_SPAN, sel)
    m["cli.self_s"] = total(main, table.self_time) / n_jobs
    row_jobs = [j for j in jobs if rows_by_job.get(j)]
    row_self = total(main & table.select(row_jobs), table.self_time)
    m["cli.rows_per_s"] = sum(rows_by_job[j] for j in row_jobs) / row_self if row_self else 0.0

    heat = table.spans("svgplot.heatmap", sel)
    m["svgplot.heatmap_s"] = mean_call("svgplot.heatmap")
    heat_time = total(heat)
    m["svgplot.heatmap_cells_per_s"] = (
        sum(table.count("svgplot.heatmap", "cells", sel)) / heat_time if heat_time else 0.0
    )
    m["svgplot.line_plot_s"] = mean_call("svgplot.line_plot")

    cov = table.spans("planner.coverage_map", sel)
    m["planner.coverage_map_s"] = mean_call("planner.coverage_map")
    cov_cells = sum(table.count("planner.coverage_map", "cells", sel))
    m["planner.coverage_ns_per_cell"] = total(cov) / cov_cells * 1e9 if cov_cells else 0.0
    opt = table.spans("planner.optimize_orientation", sel)
    m["planner.optimize_s"] = mean_call("planner.optimize_orientation")
    m["planner.objective_s"] = mean_call("planner.orientation_objective")
    evals = table.count("planner.optimize_orientation", "evaluations", sel)
    cells = table.count("planner.optimize_orientation", "cells", sel)
    m["planner.evaluations"] = _per_call(sum(evals), len(evals))
    opt_time = total(opt)
    m["planner.evals_per_s"] = sum(e * c for e, c in zip(evals, cells)) / opt_time if opt_time else 0.0
    peaks = table.count("planner.optimize_orientation", "peak_bytes", sel)
    m["planner.optimize_peak_mb"] = max(peaks) / 2**20 if peaks else 0.0

    m["po_oracle.po_rcs_ms"] = mean_call("po_oracle.po_rcs", 1e3)
    nodes = table.count("po_oracle.po_rcs", "nodes", sel)
    m["po_oracle.nodes"] = _per_call(sum(nodes), len(nodes))
    m["validate.self_s"] = total(layer("validate"), table.self_time) / n_jobs
    for fn in ("load_series", "theoretical_curve", "compare"):
        m[f"measure.{fn}_s"] = mean_call(f"measure.{fn}")
    shares = {name: total(layer(name), table.self_time) / job_time if job_time else 0.0 for name in LAYERS}
    return m, shares


# Layer map: metric -> (layer, should move (end-to-end metric), on workload).
# Names, units and directions are those of BENCHMARK.json's per_layer list.
LAYER_MAP = {
    "rcs.calls": ("rcs", "job_s_p50, items_per_s", "sweep"),
    "rcs.us_per_call": ("rcs", "job_s_p50, items_per_s", "sweep"),
    "rcs.self_s": ("rcs", "job_s_p50, items_per_s", "sweep"),
    "link.calls": ("link", "job_s_p50", "sweep"),
    "link.self_s": ("link", "job_s_p50", "sweep"),
    "cli.self_s": ("cli", "job_s_p50, items_per_s", "coverage, sweep"),
    "cli.rows_per_s": ("cli", "job_s_p50, items_per_s", "coverage, sweep"),
    "svgplot.heatmap_s": ("svgplot", "job_s_tail", "coverage"),
    "svgplot.heatmap_cells_per_s": ("svgplot", "job_s_tail", "coverage"),
    "svgplot.line_plot_s": ("svgplot", "job_s_tail", "sweep"),
    "planner.coverage_map_s": ("planner", "items_per_s", "coverage"),
    "planner.coverage_ns_per_cell": ("planner", "items_per_s", "coverage"),
    "planner.optimize_s": ("planner", "job_s_p50, peak_rss_mb", "optimize"),
    "planner.objective_s": ("planner", "job_s_p50, peak_rss_mb", "optimize"),
    "planner.evaluations": ("planner", "job_s_p50, peak_rss_mb", "optimize"),
    "planner.evals_per_s": ("planner", "job_s_p50, peak_rss_mb", "optimize"),
    "planner.optimize_peak_mb": ("planner", "job_s_p50, peak_rss_mb", "optimize"),
    "po_oracle.po_rcs_ms": ("po_oracle", "job_s_p50, items_per_s", "validate"),
    "po_oracle.nodes": ("po_oracle", "job_s_p50, items_per_s", "validate"),
    "validate.self_s": ("validate", "job_s_p50", "validate"),
    "measure.load_series_s": ("measure", "job_s_p50", "sweep"),
    "measure.theoretical_curve_s": ("measure", "job_s_p50", "sweep"),
    "measure.compare_s": ("measure", "job_s_p50", "sweep"),
    **{f"{layer}.errors": (layer, "none (any error fails the job)", "all") for layer in LAYERS},
    "trace.overhead_frac": ("trace", "none", "all"),
}
