"""Span tracing of pdbpe's public functions from outside the package.

A Tracer wraps each (module, function) named in TARGETS and rebinds the
wrapper under every name that binds the original in any loaded ``pdbpe``
module, so internal calls such as ``pipeline`` calling its imported
``fit_bpe`` are seen without touching the package. A name that no longer
exists is recorded as absent and its metrics read 0. A count that can no
longer be taken from a call is recorded in ``counter_failures``, which the
run reports in ``trace.errors``, so a count that reads 0 for that reason is
not mistaken for a gain.

Each call records a span: id, name, operation id, parent span, thread,
start, end, thread CPU time, whether it raised, and counts taken from its
arguments and result. Items that ``parallel.ordered_map`` hands to its
workers get a ``parallel.item`` span whose parent is the map's span, so
work on pool threads stays attached to the call that caused it. Spans stay
in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass, field


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Counts recorded per call, computed after the call returns so they do not
# add to its span: name -> fn(args, kwargs, result) -> {count: value}.
COUNTERS = {
    "data_io.read_data_csv": lambda a, k, r: {
        "rows": sum(int(ts.mask.sum()) for ts in r)},
    "data_io.write_features_csv": lambda a, k, r: {
        "bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    "variations.apply_rcs": lambda a, k, r: {"tokens_out": len(r)},
    "variations.apply_rcsm": lambda a, k, r: {"tokens_out": len(r)},
    "variations.offset_encode": lambda a, k, r: {"tokens_out": len(r)},
    # Each merge replaces train_frequency pairs by one token.
    "bpe.fit_bpe": lambda a, k, r: _fit_bpe_counts(_arg(a, k, 0, "corpus"), r),
    "bpe.encode": lambda a, k, r: {
        "tokens_in": len(_arg(a, k, 0, "symbols")), "tokens_out": len(r)},
    "features.build_schema": lambda a, k, r: {"columns_raw": len(r.columns)},
    "features.prune_correlated": lambda a, k, r: {
        "columns_kept": int(sum(bool(x) for x in r[1]))},
    "model_io.save_model": lambda a, k, r: {
        "bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    "evaluate.kfold_split": lambda a, k, r: {"folds": int(r.k)},
}


def _fit_bpe_counts(corpus, result) -> dict:
    vocab = result[0] if isinstance(result, tuple) else result
    tokens_in = sum(len(seq) for seq in corpus)
    merged = sum(rule.train_frequency for rule in vocab.rules)
    return {"merges": len(vocab.rules), "tokens_in": tokens_in,
            "tokens_out": tokens_in - merged}


# Functions wrapped, by pdbpe module.
TARGETS = {
    "cli": ("main",),
    "data_io": ("read_data_csv", "write_features_csv"),
    "preprocess": ("zscore_normalize", "paa", "collapse_series"),
    "discretize": ("fit_discretizer", "apply_discretizer"),
    "variations": ("fit_rcsm_medians", "apply_rcs", "apply_rcsm",
                   "apply_autoregressive", "offset_encode"),
    "bpe": ("fit_bpe", "encode"),
    "features": ("build_schema", "count_features", "assemble_matrix",
                 "drop_zero_variance", "prune_correlated", "centroid_augment"),
    "model_io": ("save_model", "load_model"),
    "pipeline": ("fit_pipeline", "transform_dataset"),
    "parallel": ("ordered_map",),
    "evaluate": ("kfold_split", "score_split", "cross_validate"),
}

ITEM = "parallel.item"
MAP = "parallel.ordered_map"


@dataclass
class Span:
    id: int
    name: str
    op: int | None
    parent: int | None
    thread: int
    start: float
    end: float
    cpu: float
    error: bool = False
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans of wrapped pdbpe functions. Create one per traced run,
    ``install()`` it, run operations with ``op`` set to the operation id,
    then ``uninstall()``."""

    def __init__(self, package: str = "pdbpe"):
        self.package = package
        self.spans: list[Span] = []
        self.absent: list[str] = []
        # Wrapped name -> {"calls": failed counter calls, "error": last error}.
        self.counter_failures: dict[str, dict] = {}
        self._failures_lock = threading.Lock()  # counters run on pool threads
        self.op: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._rebound: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, parent=None):
        """Run fn(*args, **kwargs) inside a span. The parent defaults to the
        innermost open span on this thread."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        if name == MAP:
            item_fn = self._items(_arg(args, kwargs, 0, "fn"), sid)
            args, kwargs = (item_fn, list(_arg(args, kwargs, 1, "items"))), {}
        stack.append(sid)
        op = self.op
        t0 = time.perf_counter()
        c0 = time.thread_time()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(sid, name, op, parent, t0, c0, error=True)
            raise
        finally:
            stack.pop()
        span = self._close(sid, name, op, parent, t0, c0, error=False)
        if name == MAP:
            span.counts["items"] = len(args[1])
        counter = COUNTERS.get(name)
        if counter is not None:
            try:
                span.counts.update(counter(args, kwargs, result))
            except Exception as exc:  # an API change must not fail the run
                with self._failures_lock:
                    failure = self.counter_failures.setdefault(name, {"calls": 0})
                    failure["calls"] += 1
                    failure["error"] = f"{type(exc).__name__}: {exc}"
        return result

    def _close(self, sid, name, op, parent, t0, c0, error) -> Span:
        cpu = time.thread_time() - c0
        span = Span(sid, name, op, parent, threading.get_ident(), t0,
                    time.perf_counter(), cpu, error)
        self.spans.append(span)
        return span

    def _items(self, fn, map_span: int):
        def item(x):
            return self.call(ITEM, fn, (x,), {}, parent=map_span)
        return item

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap every target and rebind it wherever a loaded package module
        binds the original function."""
        originals = []
        for module_name, names in targets.items():
            try:
                module = importlib.import_module(f"{self.package}.{module_name}")
            except ImportError:
                self.absent.extend(f"{module_name}.{n}" for n in names)
                continue
            for n in names:
                fn = getattr(module, n, None)
                if not callable(fn):
                    self.absent.append(f"{module_name}.{n}")
                    continue
                originals.append((fn, self.wrap(f"{module_name}.{n}", fn)))
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == self.package
                                         or key.startswith(self.package + "."))]
        for fn, wrapper in originals:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._rebound.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._rebound):
            setattr(module, attr, fn)
        self._rebound.clear()

    def write(self, path: str) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals,
    clipped to the span. Children on other threads may overlap each other
    and are counted once."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ()) if c.end > s.start and c.start < s.end)
        out[s.id] = (s.end - s.start) - covered
    return out


def function_table(spans) -> dict[str, dict]:
    """Per wrapped name: calls, wall_s, cpu_s, wait_s, self_s, errors and
    summed counts."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "wall_s": 0.0, "cpu_s": 0.0,
                                        "self_s": 0.0, "errors": 0})
        row["calls"] += 1
        row["wall_s"] += s.end - s.start
        row["cpu_s"] += s.cpu
        row["self_s"] += selfs[s.id]
        row["errors"] += int(s.error)
        for key, value in s.counts.items():
            row[key] = row.get(key, 0) + value
    for row in table.values():
        row["wait_s"] = row["wall_s"] - row["cpu_s"]
    return table


def trace_errors(table: dict[str, dict], counter_failures: dict[str, dict]) -> int:
    """Wrapped calls that raised plus calls whose counts could not be taken."""
    return (sum(row["errors"] for row in table.values())
            + sum(f["calls"] for f in counter_failures.values()))


def unattributed(spans, op_windows) -> dict[int, float]:
    """Per operation id: its wall time minus the union of its spans, the
    time no wrapped function accounts for."""
    out = {}
    for op, (start, end) in op_windows.items():
        covered = union_length((max(s.start, start), min(s.end, end))
                               for s in spans
                               if s.op == op and s.end > start and s.start < end)
        out[op] = (end - start) - covered
    return out


def _unit(stat: str) -> str:
    if stat.endswith("_s"):
        return "s"
    return "bytes" if stat == "bytes" else "count"


# Per-layer metrics named <function>.<stat>, read from the function table.
FUNCTION_STATS = (
    ("data_io.read_data_csv", ("wall_s", "rows")),
    ("data_io.write_features_csv", ("wall_s", "bytes")),
    ("preprocess.zscore_normalize", ("calls", "cpu_s", "wait_s")),
    ("preprocess.paa", ("calls", "cpu_s", "wait_s")),
    ("preprocess.collapse_series", ("calls", "cpu_s", "wait_s")),
    ("discretize.fit_discretizer", ("wall_s",)),
    ("discretize.apply_discretizer", ("calls", "cpu_s")),
    ("variations.fit_rcsm_medians", ("calls", "cpu_s")),
    ("variations.apply_rcs", ("calls", "cpu_s")),
    ("variations.apply_rcsm", ("calls", "cpu_s")),
    ("variations.apply_autoregressive", ("calls", "cpu_s")),
    ("variations.offset_encode", ("calls", "cpu_s")),
    ("bpe.fit_bpe", ("calls", "cpu_s")),
    ("bpe.encode", ("calls", "cpu_s", "wait_s")),
    ("features.build_schema", ("wall_s",)),
    ("features.assemble_matrix", ("wall_s",)),
    ("features.drop_zero_variance", ("wall_s",)),
    ("features.prune_correlated", ("wall_s",)),
    ("features.centroid_augment", ("wall_s",)),
    ("features.count_features", ("calls", "cpu_s")),
    ("model_io.save_model", ("wall_s",)),
    ("model_io.load_model", ("wall_s",)),
    ("pipeline.fit_pipeline", ("wall_s", "self_s")),
    ("pipeline.transform_dataset", ("wall_s", "self_s")),
    (MAP, ("calls", "wall_s", "items")),
    ("evaluate.kfold_split", ("calls", "wall_s")),
    ("evaluate.score_split", ("calls", "wall_s")),
)

# Per-layer metrics with a name of their own: (metric, function, stat).
NAMED_STATS = (
    ("cli.self_s", "cli.main", "self_s"),
    ("bpe.merges", "bpe.fit_bpe", "merges"),
    ("bpe.fit_tokens_in", "bpe.fit_bpe", "tokens_in"),
    ("bpe.fit_tokens_out", "bpe.fit_bpe", "tokens_out"),
    ("bpe.encode_tokens_in", "bpe.encode", "tokens_in"),
    ("bpe.encode_tokens_out", "bpe.encode", "tokens_out"),
    ("features.columns_raw", "features.build_schema", "columns_raw"),
    ("features.columns_kept", "features.prune_correlated", "columns_kept"),
    ("model_io.bytes", "model_io.save_model", "bytes"),
    ("parallel.item_cpu_s", ITEM, "cpu_s"),
    ("evaluate.folds", "evaluate.kfold_split", "folds"),
)

# Metrics computed from several rows, and run-level metrics filled in by
# the caller: the tracing overhead, each operation's remainder that no
# wrapped function covers, and the health of the trace itself.
DERIVED = (
    ("variations.tokens_out", "count", "lower"),
    ("parallel.busy_ratio", "ratio", "higher"),
    ("trace_overhead_frac", "ratio", "lower"),
    ("fit.unattributed_s", "s", "lower"),
    ("transform.unattributed_s", "s", "lower"),
    ("evaluate.unattributed_s", "s", "lower"),
    ("trace.absent", "count", "lower"),
    ("trace.errors", "count", "lower"),  # raised calls + failed counts
)


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric a traced run reports."""
    specs = [(f"{fn}.{st}", _unit(st), "lower")
             for fn, stats in FUNCTION_STATS for st in stats]
    specs += [(name, _unit(st), "lower") for name, _fn, st in NAMED_STATS]
    return specs + list(DERIVED)


def layer_values(table: dict[str, dict]) -> dict[str, float]:
    """Per-layer metric values computed from a function table; functions
    never called (or absent) read 0. Run-level metrics are not included."""
    def get(fn, stat):
        return table.get(fn, {}).get(stat, 0)

    out = {f"{fn}.{st}": get(fn, st) for fn, stats in FUNCTION_STATS for st in stats}
    out.update({name: get(fn, st) for name, fn, st in NAMED_STATS})
    out["variations.tokens_out"] = sum(
        row.get("tokens_out", 0) for fn, row in table.items()
        if fn.startswith("variations."))
    map_wall = get(MAP, "wall_s")
    out["parallel.busy_ratio"] = get(ITEM, "cpu_s") / map_wall if map_wall else 0.0
    return out
