"""Span tracing of spinweb from outside the package, and the per-layer metrics.

The tracer replaces each traced function at the module attribute its caller
looks it up through.  spinweb binds names with ``from`` imports, so
``spinweb.statesum.solve_membership`` and ``spinweb.linalg.solve_membership``
are two call sites of one function and both are wrapped.  Attributes that
do not exist are skipped, and every replaced attribute is restored on exit.

A span is ``(site, start, end, parent, request, subject, tag)``.  The
benchmark opens one request per program call it makes.  An "item" span is
one whose parent is a census or CLI span (or that has no parent); its
subject is the graph or tournament it works on, and every span below it
inherits its trace id, so the spans of one input share one id.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
from time import perf_counter

# (module, attribute, layer)
TARGETS = (
    ("graph6", "parse_graph6", "graph6"),
    ("census", "parse_graph6", "graph6"),
    ("cli", "parse_graph6", "graph6"),
    ("census", "graph_from_index", "graphs"),
    ("census", "tournament_from_index", "graphs"),
    ("classifier", "complement", "graphs"),
    ("graphs", "complement", "graphs"),
    ("census", "run_census", "census"),
    ("census", "scan_stream", "census"),
    ("census", "run_tournament_census", "census"),
    ("census", "_regular_mask", "census"),          # the numpy degree pre-filter
    ("census", "classify_symmetric", "classifier"),
    ("census", "classify_tournament", "classifier"),
    ("cli", "classify_symmetric", "classifier"),
    ("cli", "classify_tournament", "classifier"),
    ("classifier", "classify_symmetric", "classifier"),
    ("classifier", "classify_tournament", "classifier"),
    ("census", "three_point_params", "regularity"),
    ("classifier", "three_point_params", "regularity"),
    ("classifier", "srg_params", "regularity"),
    ("classifier", "freeness", "regularity"),
    ("regularity", "three_point_params", "regularity"),
    ("regularity", "srg_params", "regularity"),
    ("regularity", "freeness", "regularity"),
    ("census", "spin_model_verdict", "statesum"),
    ("census", "full_report", "statesum"),
    ("cli", "full_report", "statesum"),
    ("cli", "dim_v3", "statesum"),
    *(("statesum", name, "statesum") for name in (
        "spin_model_verdict", "full_report", "dim_v3",
        "check_1b", "check_2b", "check_3a", "check_3b")),
    *((module, name, "linalg") for module in ("statesum", "linalg")
      for name in ("solve_membership", "best_effort_solution", "matrix_rank")),
    ("cli", "main", "cli"),
    *(("cli", f"cmd_{name}", "cli") for name in ("classify", "verify", "dims", "census")),
)

ENTRY_LAYERS = ("census", "cli")
LINALG = ("solve_membership", "best_effort_solution", "matrix_rank")

# (name, unit, better); the order is the order of the report
PER_LAYER = (
    ("graph6.decode_s", "s", "lower"),
    ("graph6.decode_calls", "count", "lower"),
    ("graph6.bytes", "bytes", "lower"),
    ("graphs.build_s", "s", "lower"),
    ("graphs.build_calls", "count", "lower"),
    ("census.self_s", "s", "lower"),
    ("census.prefilter_rejects", "count", "higher"),
    ("census.guard_samples", "count", "lower"),
    ("census.guard_s", "s", "lower"),
    ("census.regular_checked", "count", "lower"),
    ("census.scaling_eff", "ratio", "higher"),
    ("classifier.s", "s", "lower"),
    ("classifier.calls", "count", "lower"),
    ("regularity.three_point_s", "s", "lower"),
    ("regularity.freeness_s", "s", "lower"),
    ("regularity.srg_s", "s", "lower"),
    ("regularity.scans_per_classify", "ratio", "lower"),
    ("statesum.self_s", "s", "lower"),
    ("statesum.verdict_calls", "count", "lower"),
    ("statesum.report_calls", "count", "lower"),
    ("statesum.dim_calls", "count", "lower"),
    ("statesum.span_checks", "count", "lower"),
    ("linalg.s", "s", "lower"),
    ("linalg.systems", "count", "lower"),
    ("linalg.rows_total", "count", "lower"),
    ("linalg.rows_max", "count", "lower"),
    ("linalg.cells_total", "count", "lower"),
    ("linalg.inconsistent", "count", "lower"),
    ("linalg.calls_per_system", "ratio", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _tag(func: str, args, kwargs, result):
    """Counts read at the call site; None where there are none to read."""
    try:
        if func == "parse_graph6":
            return len(args[0] if args else kwargs["text"])
        if func == "_regular_mask":
            return int(len(result) - result.sum())
        if func == "srg_params":
            return result is not None
        if func in LINALG:
            rows = args[0] if args else kwargs["rows"]
            return (id(rows), len(rows), len(rows[0]) if len(rows) else 0,
                    func == "solve_membership" and result is None)
    except (TypeError, AttributeError, IndexError, KeyError):
        pass  # a signature this tracer does not know: the span keeps no counts
    return None


def _subject(values):
    for value in values:
        rows = getattr(value, "adj", None) or getattr(value, "arc", None)
        if rows is not None and hasattr(value, "n"):
            return (type(value).__name__, value.n, rows)
    return None


class Tracer:
    """Context manager that wraps the TARGETS of the imported spinweb while entered."""

    def __init__(self):
        self.sites: list[tuple[str, str]] = []
        self.spans: list = []
        self.request = 0
        self._stack: list[tuple[int, bool]] = []
        self._targets = []
        for module_name, attr, layer in TARGETS:
            # by import path: the package attribute ``spinweb.regularity`` is
            # the function of that name, not the module
            module = importlib.import_module(f"spinweb.{module_name}")
            fn = getattr(module, attr, None)
            if fn is not None:
                self._targets.append((module, attr, fn, self._wrap(fn, layer, attr)))

    def __enter__(self):
        for module, attr, _, traced in self._targets:
            setattr(module, attr, traced)
        return self

    def __exit__(self, *exc):
        for module, attr, fn, _ in self._targets:
            setattr(module, attr, fn)

    def _wrap(self, fn, layer, func):
        site = len(self.sites)
        self.sites.append((layer, func))
        spans, stack = self.spans, self._stack
        is_entry = layer in ENTRY_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, under_entry = stack[-1] if stack else (-1, True)
            index = len(spans)
            spans.append(None)
            stack.append((index, is_entry))
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                subject = _subject((*args, result)) if under_entry else None
                spans[index] = (site, start, end, parent, self.request, subject,
                                _tag(func, args, kwargs, result))

        return traced

    def take(self) -> list:
        spans = list(self.spans)
        self.spans.clear()
        return spans


def trace_ids(spans) -> list[int]:
    """One id per input: item spans by (request, subject), the rest inherit."""
    ids: dict[tuple, int] = {}
    trace = [0] * len(spans)
    for i, (_, _, _, parent, request, subject, _) in enumerate(spans):
        if subject is not None or parent < 0:
            trace[i] = ids.setdefault((request, subject), len(ids))
        else:
            trace[i] = trace[parent]
    return trace


def write_spans(path, sites, passes) -> None:
    """Write every traced pass's spans as gzip CSV, one row per span."""
    with gzip.open(path, "wt", newline="") as handle:
        out = csv.writer(handle)
        out.writerow(("pass", "span", "layer", "function", "start", "end",
                      "parent", "trace", "tag"))
        for number, spans in enumerate(passes):
            for index, (span, trace) in enumerate(zip(spans, trace_ids(spans))):
                site, start, end, parent, _, _, tag = span
                layer, func = sites[site]
                out.writerow((number, index, layer, func, repr(start), repr(end),
                              parent, trace, "" if tag is None else repr(tag)))


def layer_metrics(spans, sites) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced pass, and any consistency problems.

    A span's self time is its duration minus the durations of its direct
    children.  Times named ``*_s`` without "self" are inclusive span totals.
    """
    problems = []
    count = len(spans)
    layer = [sites[s[0]][0] for s in spans]
    func = [sites[s[0]][1] for s in spans]
    parent = [s[3] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    children = [0.0] * count
    for i in range(count):
        if parent[i] >= 0:
            children[parent[i]] += dur[i]

    # (layer, function) -> [calls, inclusive s, self s, s outside same-layer spans]
    table: dict[tuple[str, str], list] = {}
    for i in range(count):
        if children[i] > dur[i]:
            problems.append(f"children of span {i} ({func[i]}) last "
                            f"{children[i]:.6f} s, longer than its {dur[i]:.6f} s")
        p = parent[i]
        row = table.setdefault((layer[i], func[i]), [0, 0.0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur[i]
        row[2] += dur[i] - children[i]
        if p < 0 or layer[p] != layer[i]:
            row[3] += dur[i]

    def total(column, *, layers=(), funcs=()):
        return sum(row[column] for (lay, fn), row in table.items()
                   if lay in layers or fn in funcs)

    CALLS, INCLUSIVE, SELF, TOP = range(4)
    m: dict[str, float] = {}
    m["graph6.decode_s"] = total(INCLUSIVE, funcs=("parse_graph6",))
    m["graph6.decode_calls"] = total(CALLS, funcs=("parse_graph6",))
    m["graphs.build_s"] = total(INCLUSIVE, layers=("graphs",))
    m["graphs.build_calls"] = total(CALLS, layers=("graphs",))
    m["census.self_s"] = total(SELF, layers=("census",))
    m["classifier.s"] = total(TOP, layers=("classifier",))
    m["classifier.calls"] = total(CALLS, layers=("classifier",))
    m["regularity.three_point_s"] = total(SELF, funcs=("three_point_params",))
    m["regularity.freeness_s"] = total(INCLUSIVE, funcs=("freeness",))
    m["regularity.srg_s"] = total(INCLUSIVE, funcs=("srg_params",))
    m["statesum.self_s"] = total(SELF, layers=("statesum",))
    m["statesum.verdict_calls"] = total(CALLS, funcs=("spin_model_verdict",))
    m["statesum.report_calls"] = total(CALLS, funcs=("full_report",))
    m["statesum.dim_calls"] = total(CALLS, funcs=("dim_v3",))
    m["statesum.span_checks"] = total(CALLS, funcs=("check_3a", "check_3b"))
    m["linalg.s"] = total(TOP, layers=("linalg",))
    m["cli.self_s"] = total(SELF, layers=("cli",))

    trace = trace_ids(spans)
    decoded = rejects = 0
    scanned = set()                      # three_point_params spans that ran the triple scan
    systems: dict[tuple, list] = {}      # (parent span, rows object) -> [rows, cols, inconsistent]
    guard, regular, guard_s = set(), set(), 0.0
    for i, span in enumerate(spans):
        fn, p, tag = func[i], parent[i], span[6]
        if tag is None:
            pass
        elif fn == "parse_graph6":
            decoded += tag
        elif fn == "_regular_mask":
            rejects += tag
        elif fn == "srg_params" and tag and p >= 0 and func[p] == "three_point_params":
            scanned.add(p)
        elif layer[i] == "linalg" and not (p >= 0 and layer[p] == "linalg"):
            rows_id, nrows, ncols, inconsistent = tag
            system = systems.setdefault((p, rows_id), [nrows, ncols, False])
            system[2] = system[2] or inconsistent
        # Items directly under run_census; the guard samples are the
        # irregular graphs, tagged here, after their spans closed.
        subject = span[5]
        if (p >= 0 and func[p] == "run_census" and layer[i] != "census"
                and subject is not None and subject[0] == "Graph"):
            irregular = len({row.bit_count() for row in subject[2]}) > 1
            if irregular:
                guard_s += dur[i]
            if layer[i] == "classifier":
                (guard if irregular else regular).add(trace[i])
    m["graph6.bytes"] = decoded
    m["census.prefilter_rejects"] = rejects
    m["census.guard_samples"] = len(guard)
    m["census.guard_s"] = guard_s
    m["census.regular_checked"] = len(regular)
    classify_calls = total(CALLS, funcs=("classify_symmetric",))
    scans = len(scanned) + total(CALLS, funcs=("freeness",))
    m["regularity.scans_per_classify"] = scans / classify_calls if classify_calls else 0.0
    m["linalg.systems"] = len(systems)
    m["linalg.rows_total"] = sum(s[0] for s in systems.values())
    m["linalg.rows_max"] = max((s[0] for s in systems.values()), default=0)
    m["linalg.cells_total"] = sum(s[0] * s[1] for s in systems.values())
    m["linalg.inconsistent"] = sum(1 for s in systems.values() if s[2])
    calls = total(CALLS, layers=("linalg",))
    m["linalg.calls_per_system"] = calls / len(systems) if systems else 0.0
    return m, problems
