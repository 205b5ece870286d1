"""Function-boundary spans around hippp's public functions, and the per-layer
metrics computed from them.

The tracer wraps each function in ``TARGETS`` and rebinds the wrapper at every
attribute of a loaded ``hippp`` module that holds the original function. The
package imports names with ``from ... import``, so a caller looks a function up
in its own module; rebinding every such attribute puts the span where the
caller looks, wherever a later change moves the code. A target that no longer
exists is skipped, so its metrics read as 0 calls instead of failing.

Spans live in memory as ``[name, parent, start, end, attrs]`` lists (``parent``
is an index into the list or ``None``) and are written out once at the end.
The interpreter runs one thread, so the children of a span never overlap and
its self time is its duration minus the sum of its children's durations.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

KINDS = ("lshippp", "cppp", "fpp")


def _arg(fn, name):
    """Return a function that picks argument `name` out of a call to `fn`."""
    signature = inspect.signature(fn)
    position = list(signature.parameters).index(name)

    def pick(args, kwargs):
        return args[position] if len(args) > position else kwargs[name]

    return pick


def _flow_attrs(fn):
    arch = _arg(fn, "arch")
    return lambda args, kwargs: {"kind": arch(args, kwargs).kind.value}


def _cell_attrs(fn):
    arch = _arg(fn, "arch")
    trials = _arg(fn, "trials")
    return lambda args, kwargs: {
        "kind": arch(args, kwargs).kind.value, "trials": int(trials(args, kwargs)),
    }


def _layer1_attrs(fn):
    count = getattr(sys.modules["hippp.design"], "interconnection_count", None)
    expected = _arg(fn, "expected")
    cfg = _arg(fn, "cfg")
    if count is None:
        return lambda args, kwargs: {"placements": 0}
    return lambda args, kwargs: {
        "placements": count(expected(args, kwargs).count, cfg(args, kwargs).num_layer1),
    }


# (module, function, span name, attribute recorder factory or None)
TARGETS = (
    ("hippp.cli", "main", "cli", None),
    ("hippp.supply", "flatten", "supply.flatten", None),
    ("hippp.supply", "sample_battery_set", "supply.sample", None),
    ("hippp.lp", "solve", "lp.solve", None),
    ("hippp.powerflow", "optimal_flow", "powerflow.flow", _flow_attrs),
    ("hippp.powerflow", "max_output_power", "powerflow.max_output", None),
    ("hippp.powerflow", "layer1_design_lp", "powerflow.design_lp", None),
    ("hippp.design", "design_layer1", "design.layer1", _layer1_attrs),
    ("hippp.design", "design_layer2", "design.layer2", None),
    ("hippp.evaluate", "evaluate_architecture", "evaluate.cell", _cell_attrs),
    ("hippp.evaluate", "sweep_rating", "evaluate.sweep", None),
    ("hippp.evaluate", "sweep_heterogeneity", "evaluate.sweep", None),
)


def _install(make_wrapper) -> None:
    """Rebind `make_wrapper(index, span_name, fn, attrs_factory)` for every target that exists."""
    for index, (module_name, attr, span_name, attrs_factory) in enumerate(TARGETS):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        fn = getattr(module, attr, None)
        if fn is None:
            continue
        wrapper = make_wrapper(index, span_name, fn, attrs_factory)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").partition(".")[0] != "hippp":
                continue
            for key, value in list(vars(loaded).items()):
                if value is fn:
                    setattr(loaded, key, wrapper)


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, attrs=None):
        spans = self.spans
        open_spans = self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, open_spans[-1] if open_spans else None, 0.0, 0.0,
                      attrs(args, kwargs) if attrs is not None else None]
            open_spans.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                open_spans.pop()

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists."""
        _install(lambda _, name, fn, factory: self.wrap(name, fn, factory(fn) if factory else None))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


class Marks:
    """Wall and CPU clock readings at the entry and exit of every call of a target.

    Much lighter than a Tracer (about 2 us per wrapped call): three array
    appends per boundary and no per-call attributes. A deterministic CLI call
    passes the same sequence of boundaries every time it runs, so the
    stretches between consecutive marks line up across repeated calls.
    """

    def __init__(self):
        self.codes = array("i")  # target index + 1 on entry, its negation on exit
        self.wall = array("d")
        self.cpu = array("d")

    def wrap(self, code, fn):
        codes, wall, cpu = self.codes.append, self.wall.append, self.cpu.append
        clock, cpu_clock = time.perf_counter, time.process_time

        def wrapper(*args, **kwargs):
            codes(code)
            wall(clock())
            cpu(cpu_clock())
            try:
                return fn(*args, **kwargs)
            finally:
                codes(-code)
                wall(clock())
                cpu(cpu_clock())

        return wrapper

    def install(self) -> None:
        _install(lambda index, _, fn, __: self.wrap(index + 1, fn))

    def dump(self, path) -> None:
        with open(path, "wb") as handle:
            for values in (self.codes, self.wall, self.cpu):
                array("q", [len(values)]).tofile(handle)
                values.tofile(handle)


def load_marks(path) -> tuple[array, array, array]:
    """(codes, wall, cpu) as written by Marks.dump."""
    arrays = []
    with open(path, "rb") as handle:
        for typecode in ("i", "d", "d"):
            length = array("q")
            length.fromfile(handle, 1)
            values = array(typecode)
            values.fromfile(handle, length[0])
            arrays.append(values)
    return tuple(arrays)


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list; 0.0 when empty."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts, self times and ratios from one traced run's spans.

    Returns plain values; the caller attaches units and the tracing overhead.
    """
    duration = [end - start for _, _, start, end, _ in spans]
    child_time = [0.0] * len(spans)
    for idx, (_, parent, _, _, _) in enumerate(spans):
        if parent is not None:
            child_time[parent] += duration[idx]

    calls = defaultdict(int)
    self_s = defaultdict(float)

    def name_of(idx):
        name, _, _, _, attrs = spans[idx]
        return f"{name}.{attrs['kind']}" if name == "powerflow.flow" else name

    for idx in range(len(spans)):
        name = name_of(idx)
        calls[name] += 1
        self_s[name] += duration[idx] - child_time[idx]

    def ancestor(idx, name):
        parent = spans[idx][1]
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][1]
        return parent

    lp_us = []
    stage_s = [0.0, 0.0]
    lp_in_flow = defaultdict(int)   # flow span -> LP solves under it so far
    layer1_lps = defaultdict(int)   # layer-1 span -> LP solves under it
    layer1_solved = defaultdict(int)
    layer2_flows = 0
    for idx, (name, _, _, _, _) in enumerate(spans):
        if name == "lp.solve":
            lp_us.append(duration[idx] * 1e6)
            flow = ancestor(idx, "powerflow.flow")
            if flow is not None:
                stage_s[min(lp_in_flow[flow], 1)] += duration[idx]
                lp_in_flow[flow] += 1
            search = ancestor(idx, "design.layer1")
            if search is not None:
                layer1_lps[search] += 1
        elif name == "powerflow.max_output":
            search = ancestor(idx, "design.layer1")
            if search is not None:
                layer1_solved[search] += 1
        elif name == "powerflow.flow" and ancestor(idx, "design.layer2") is not None:
            layer2_flows += 1
    lp_us.sort()

    searches = [idx for idx, span in enumerate(spans) if span[0] == "design.layer1"]
    scanned = [idx for idx in searches if layer1_lps[idx] > 0]
    placements = sum(spans[idx][4]["placements"] for idx in scanned)
    solved = sum(layer1_solved[idx] for idx in scanned)

    cell_s = defaultdict(float)
    cell_trials = defaultdict(int)
    for idx, (name, _, _, _, attrs) in enumerate(spans):
        if name == "evaluate.cell":
            cell_s[attrs["kind"]] += duration[idx]
            cell_trials[attrs["kind"]] += attrs["trials"]

    lp_per_flow = defaultdict(int)
    for flow, count in lp_in_flow.items():
        lp_per_flow[spans[flow][4]["kind"]] += count

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name in ("supply.flatten", "supply.sample", "lp.solve"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out["lp.solve.p50_us"] = _percentile(lp_us, 50)
    out["lp.solve.p99_us"] = _percentile(lp_us, 99)
    out["lp.solve.stage1_s"] = stage_s[0]
    out["lp.solve.stage2_s"] = stage_s[1]
    for kind in KINDS:
        out[f"powerflow.flow.{kind}.calls"] = calls[f"powerflow.flow.{kind}"]
        out[f"powerflow.flow.{kind}.self_s"] = self_s[f"powerflow.flow.{kind}"]
    for kind in ("lshippp", "cppp"):
        out[f"powerflow.flow.{kind}.lp_per_call"] = ratio(
            lp_per_flow[kind], calls[f"powerflow.flow.{kind}"])
    for name in ("powerflow.max_output", "powerflow.design_lp", "design.layer1"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out["design.layer1.placements"] = placements
    out["design.layer1.solved"] = solved
    out["design.layer1.prune_ratio"] = 1.0 - ratio(solved, placements) if placements else 0.0
    out["design.layer1.cache_hits"] = len(searches) - len(scanned)
    out["design.layer2.calls"] = calls["design.layer2"]
    out["design.layer2.self_s"] = self_s["design.layer2"]
    out["design.layer2.flow_calls"] = layer2_flows
    for name in ("evaluate.cell", "evaluate.sweep"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for kind in KINDS:
        out[f"evaluate.{kind}.ms_per_trial"] = 1e3 * ratio(cell_s[kind], cell_trials[kind])
    out["cli.self_s"] = self_s["cli"]
    out["trace.spans"] = len(spans)
    return out


def attributed_s(spans) -> float:
    """Sum of all self times, which equals the total duration of the root spans."""
    return sum(end - start for _, parent, start, end, _ in spans if parent is None)
