"""Per-layer spans and counts, recorded from outside the package.

``Tracer.install`` wraps every public function of each imported package
module in every module namespace that holds it (``harness`` and ``bounds`` import
names such as ``scv`` directly), plus ``rls.GapTable.value``.  Each call
records a span ``[pass, id, parent, "layer.function", start, end]`` in
memory; ``Tracer.finish`` writes the spans as JSON lines.  The kernels that
``ustat``'s factories return get a counting ``fn``.  A few wrappers also
count work computed from their input shapes, and ``summarize`` turns the
spans and counts into the per-layer metrics.  Nothing in the package
changes on disk.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import inspect
import json
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

PACKAGE = "interaction_bounds"
LAYERS = (
    "space",
    "operators",
    "functionals",
    "bounds",
    "harness",
    "quadrature",
    "rng",
    "ustat",
    "rls",
    "cli",
)
KERNEL_FACTORIES = (
    "product_kernel",
    "mean_kernel",
    "sign_agreement_kernel",
    "tabulated_kernel",
    "kernel_from_json",
)

#: Per-layer metrics beyond ``<layer>.calls`` and ``<layer>.self_s``: name,
#: unit and which way is better.
EXTRA_METRICS = (
    ("operators.cond_variance.self_s", "s", "lower"),
    ("operators.cells_out", "count", "lower"),
    ("operators.scv.per_function", "ratio", "lower"),
    ("bounds.range_bound.per_function", "ratio", "lower"),
    ("bounds.sup_bernstein_bound.self_s", "s", "lower"),
    ("bounds.bias_second_difference_bound.self_s", "s", "lower"),
    ("functionals.interaction_report.self_s", "s", "lower"),
    ("functionals.weighted_interaction.self_s", "s", "lower"),
    ("functionals.pair_cells", "count", "lower"),
    ("functionals.approx_reports", "count", "lower"),
    ("harness.exact_tail.calls", "count", "lower"),
    ("harness.exact_tail.self_s", "s", "lower"),
    ("space.fsum.terms", "count", "lower"),
    ("space.fsum.self_s", "s", "lower"),
    ("space.weight_table.hit_ratio", "ratio", "higher"),
    ("quadrature.integrand_evals", "count", "lower"),
    ("rng.substreams", "count", "lower"),
    ("ustat.kernel_evals", "count", "lower"),
    ("ustat.tabulate_u.self_s", "s", "lower"),
    ("ustat.evaluate_u.self_s", "s", "lower"),
    ("ustat.cells_exact", "count", "higher"),
    ("ustat.cells_mc", "count", "lower"),
    ("ustat.cells_skipped", "count", "lower"),
    ("rls.solves", "count", "lower"),
    ("rls.solve.self_s", "s", "lower"),
    ("rls.gap_evals", "count", "lower"),
    ("rls.gap_table.hit_ratio", "ratio", "higher"),
    ("rls.measured_ingredients.self_s", "s", "lower"),
    ("rls.derivative_bound_check.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

PER_LAYER = tuple(
    (f"{layer}.{what}", unit, "lower")
    for layer in LAYERS
    for what, unit in (("calls", "count"), ("self_s", "s"))
) + EXTRA_METRICS


def _table_key(f) -> tuple:
    """Identity of a tabulated function by content: its space and its values."""
    return f.space, hashlib.blake2b(f.values, digest_size=16).digest()


def _pair_cells(shape: tuple[int, ...]) -> int:
    """Cells of every pair-second-difference tensor: size * sum_{k<l} s_k s_l."""
    size = int(np.prod(shape))
    return size * sum(
        shape[k] * shape[l] for k in range(len(shape)) for l in range(k + 1, len(shape))
    )


class Tracer:
    """Span recorder for one pass; install once per process."""

    def __init__(self, pass_id: int) -> None:
        self.pass_id = pass_id
        # Spans live in flat arrays, not in one object per span: hundreds of
        # thousands of live containers would slow the garbage collector and
        # inflate the traced times.  Span ``i`` has id ``i + 1``; id 0 is the root.
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [0]
        self.counts: dict[str, int] = defaultdict(int)
        self.kernel_evals = [0]
        self.distinct: dict[str, set] = defaultdict(set)
        self._weight_table = None

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        name_id = len(self.names)
        self.names.append(name)
        stack, clock = self.stack, perf_counter
        names, parents = self.span_name.append, self.span_parent.append
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            index = len(starts)
            names(name_id)
            parents(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index + 1)
            starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def _hooks(self, layer: str, name: str):
        """Counting hooks for the wrapper of ``layer.name``: (before, after).

        ``before`` gets the call's arguments; ``after`` gets the result and then
        the same arguments.
        """
        counts, distinct = self.counts, self.distinct
        before = after = None
        if layer == "operators":

            def after(result, *args, **kwargs):
                values = getattr(result, "values", result)
                if isinstance(values, np.ndarray):
                    counts["operators.cells_out"] += values.size

            if name == "scv":

                def before(f):
                    distinct["scv"].add(_table_key(f))

        elif (layer, name) == ("bounds", "per_coordinate_range_bound"):

            def before(f):
                distinct["range_bound"].add(_table_key(f))

        elif (layer, name) == ("functionals", "interaction_report"):

            def after(report, f, *args, **kwargs):
                # Only the exact path builds pair tensors; the greedy one builds none.
                if report.approximate:
                    counts["functionals.approx_reports"] += 1
                else:
                    counts["functionals.pair_cells"] += _pair_cells(f.space.shape)

        return before, after

    def _count_fsum(self, fsum):
        counts = self.counts

        def counted(values):
            if isinstance(values, (np.ndarray, np.generic)):
                counts["space.fsum.terms"] += values.size
            else:
                if not hasattr(values, "__len__"):
                    values = list(values)
                counts["space.fsum.terms"] += len(values)
            return fsum(values)

        return functools.wraps(fsum)(counted)

    def _count_kernels(self, factory):
        evals = self.kernel_evals

        def counting(kernel):
            inner = kernel.fn

            def fn(points):
                evals[0] += 1
                return inner(points)

            fn.counted = True
            return dataclasses.replace(kernel, fn=fn)

        @functools.wraps(factory)
        def make(*args, **kwargs):
            kernel = factory(*args, **kwargs)
            return kernel if getattr(kernel.fn, "counted", False) else counting(kernel)

        return make

    def install(self) -> None:
        """Wrap the package modules that are already imported.

        Install after the workload's set-up, which imports every module the
        pass uses, so that a traced pass imports nothing (scipy, say) that an
        untraced pass would not.  A layer that is not imported stays at 0.
        """
        modules = {
            layer: sys.modules[f"{PACKAGE}.{layer}"]
            for layer in LAYERS
            if f"{PACKAGE}.{layer}" in sys.modules
        }
        wrapped = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if (
                    name.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                fn = obj
                if (layer, name) == ("space", "fsum"):
                    fn = self._count_fsum(fn)
                elif layer == "ustat" and name in KERNEL_FACTORIES:
                    fn = self._count_kernels(fn)
                before, after = self._hooks(layer, name)
                wrapped[obj] = self._wrap(f"{layer}.{name}", fn, before, after)
        namespaces = [sys.modules[PACKAGE], *modules.values()]
        for namespace in namespaces:
            for name, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(namespace, name, wrapped[obj])
        if "rls" in modules:
            gap_table = modules["rls"].GapTable
            gap_table.value = self._wrap("rls.GapTable.value", gap_table.value)
        self._weight_table = modules["space"]._weight_table

    # -- output ---------------------------------------------------------------

    def finish(self, spans_path: Path) -> dict:
        """Write the spans as JSON lines; return the counts taken outside spans."""
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.writelines(
                f'[{self.pass_id}, {i + 1}, {parent}, "{self.names[name]}", {start!r}, {end!r}]\n'
                for i, (name, parent, start, end) in enumerate(
                    zip(self.span_name, self.span_parent, self.span_start, self.span_end)
                )
            )
        cache = self._weight_table.cache_info()
        return {
            **self.counts,
            "ustat.kernel_evals": self.kernel_evals[0],
            "scv.distinct": len(self.distinct["scv"]),
            "range_bound.distinct": len(self.distinct["range_bound"]),
            "weight_table.hits": cache.hits,
            "weight_table.misses": cache.misses,
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(spans_path: Path, counts: dict, ustat_csv: str | None) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its spans and counts.

    Self time is a span's duration minus the durations of its child spans.
    ``ustat.cells_*`` count the (m, n) cells of the ``ustat`` output by the
    path in its ``tail_kind`` column.  Ratios are 0 when nothing was counted.
    """
    spans = {}
    child_time: dict[int, float] = defaultdict(float)
    with open(spans_path, encoding="utf-8") as fh:
        for line in fh:
            _, sid, parent, name, start, end = json.loads(line)
            spans[sid] = (parent, name, end - start)
            child_time[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    integrand_evals = gap_misses = 0
    for sid, (parent, name, duration) in spans.items():
        own = duration - child_time.get(sid, 0.0)
        layer = name.split(".", 1)[0]
        for key in (name, layer):
            calls[key] += 1
            self_s[key] += own
        if name == "functionals.entropy" and _has_ancestor(
            spans, parent, "functionals.herbst_log_mgf"
        ):
            integrand_evals += 1
        if name == "rls.generalization_gap" and spans.get(parent, ("", ""))[1] == (
            "rls.GapTable.value"
        ):
            gap_misses += 1

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = self_s[layer]
    for name in (
        "operators.cond_variance",
        "bounds.sup_bernstein_bound",
        "bounds.bias_second_difference_bound",
        "functionals.interaction_report",
        "functionals.weighted_interaction",
        "harness.exact_tail",
        "space.fsum",
        "ustat.tabulate_u",
        "ustat.evaluate_u",
        "rls.solve",
        "rls.measured_ingredients",
        "rls.derivative_bound_check",
    ):
        metrics[f"{name}.self_s"] = self_s[name]
    metrics["harness.exact_tail.calls"] = calls["harness.exact_tail"]
    metrics["operators.cells_out"] = counts.get("operators.cells_out", 0)
    metrics["operators.scv.per_function"] = _ratio(
        calls["operators.scv"], counts["scv.distinct"]
    )
    metrics["bounds.range_bound.per_function"] = _ratio(
        calls["bounds.per_coordinate_range_bound"], counts["range_bound.distinct"]
    )
    metrics["functionals.pair_cells"] = counts.get("functionals.pair_cells", 0)
    metrics["functionals.approx_reports"] = counts.get("functionals.approx_reports", 0)
    metrics["space.fsum.terms"] = counts.get("space.fsum.terms", 0)
    lookups = counts["weight_table.hits"] + counts["weight_table.misses"]
    metrics["space.weight_table.hit_ratio"] = _ratio(counts["weight_table.hits"], lookups)
    metrics["quadrature.integrand_evals"] = integrand_evals
    metrics["rng.substreams"] = calls["rng.substream"]
    metrics["ustat.kernel_evals"] = counts["ustat.kernel_evals"]
    cells = _ustat_cells(ustat_csv)
    for kind in ("exact", "mc", "skipped"):
        metrics[f"ustat.cells_{kind}"] = cells.get(kind, 0)
    metrics["rls.solves"] = calls["rls.solve"]
    metrics["rls.gap_evals"] = calls["rls.GapTable.value"]
    metrics["rls.gap_table.hit_ratio"] = _ratio(
        calls["rls.GapTable.value"] - gap_misses, calls["rls.GapTable.value"]
    )
    return metrics


def _has_ancestor(spans: dict, sid: int, name: str) -> bool:
    while sid:
        parent, span_name, _ = spans[sid]
        if span_name == name:
            return True
        sid = parent
    return False


def _ustat_cells(text: str | None) -> dict[str, int]:
    if not text:
        return {}
    rows = csv.DictReader(line for line in text.splitlines() if not line.startswith("#"))
    kinds = {(row["m"], row["n"]): row["tail_kind"] for row in rows}
    found: dict[str, int] = defaultdict(int)
    for kind in kinds.values():
        found[kind] += 1
    return found
