"""Span tracer that the benchmark installs around the package's functions.

The tracer wraps module-level functions and methods from outside the
package: for each hook it looks up the target once and replaces it at every
``entb92`` module that binds the same object, so calls made through any
import path are seen. A hook whose target no longer exists is recorded as
absent and skipped; renaming or deleting a traced function never crashes a
run.

Every call of a wrapped target is a span with a name, a start, an end and a
parent. Spans opened on a worker thread with nothing open on that thread
take the main thread's innermost open span as parent, so tally chunks run
by a thread pool nest under the session that started them. Aggregates
(calls, inclusive time, self time) are kept as spans close; self time is a
span's duration minus the union of the intervals its children cover, which
stays correct when children overlap on several threads. The first
``max_spans`` spans are also kept as records and written out by ``write``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute path). Several hooks may share a span name.
HOOKS = (
    ("cli.main", "entb92.cli", "main"),
    ("cli.manifest", "entb92.cli", "RunManifest.add_output"),
    ("cli.manifest", "entb92.cli", "RunManifest.write"),
    ("cli.write", "entb92.cli", "_write_json"),
    ("cli.write", "entb92.cli", "_write_csv"),
    ("rates.normalized_rate", "entb92.rates", "normalized_rate"),
    ("rates.optimal_theta", "entb92.rates", "optimal_theta"),
    ("rates.max_depolarization", "entb92.rates", "max_depolarization"),
    ("rates.efficiency_threshold", "entb92.rates", "efficiency_threshold"),
    ("qcore.born_probabilities", "entb92.qcore", "born_probabilities"),
    ("qcore.apply_channel", "entb92.qcore", "apply_channel"),
    ("qcore.DensityMatrix", "entb92.qcore", "DensityMatrix.__init__"),
    ("qcore.Povm", "entb92.qcore", "Povm.__init__"),
    ("channels.depolarize", "entb92.channels", "depolarize"),
    ("channels.analytic_pipeline_state", "entb92.channels", "analytic_pipeline_state"),
    ("bell.ch_with_loss", "entb92.bell", "ch_with_loss"),
    ("bell.table_from_state", "entb92.bell", "table_from_state"),
    ("bell.ch_value", "entb92.bell", "ch_value"),
    ("session.run_session", "entb92.session", "run_session"),
    ("session.distributions", "entb92.session", "_Distributions.__init__"),
    ("session.tally", "entb92.session", "_tally_chunk"),
    ("session.result", "entb92.session", "_result_from_table"),
    ("session.pool", "entb92.session", "ThreadPoolExecutor"),
)

# every public function defined in these modules gets a span "<layer>.<name>"
LAYER_MODULES = ("entb92.states", "entb92.channels")

# (ancestor, descendant): count descendant spans opened inside an ancestor
NESTED = (
    ("rates.optimal_theta", "rates.normalized_rate"),
    ("rates.normalized_rate", "qcore.DensityMatrix"),
)

_BYTES_COUNTED = {"cli.write"}


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    covered, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


class Tracer:
    def __init__(self, max_spans: int = 200_000):
        self.stats = defaultdict(Stat)
        self.nested = defaultdict(int)
        self.counters = defaultdict(float)
        self.records = []
        self.dropped = 0
        self.max_spans = max_spans
        self.absent = []
        self.op_id = 0
        self._patches = []
        self._local = threading.local()
        self._main_stack = []
        self._local.stack = self._main_stack
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._watched = {d: {a for a, dd in NESTED if dd == d} for _, d in NESTED}

    # -- span bookkeeping -------------------------------------------------
    def _open(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        frame = [name, perf_counter(), parent, [], next(self._ids)]
        stack.append(frame)
        return frame

    def _close(self, frame) -> None:
        end = perf_counter()
        self._local.stack.pop()
        name, start, parent, children, span_id = frame
        duration = end - start
        self_time = duration - _covered(start, end, children)
        if parent is not None:
            parent[3].append((start, end))
        ancestors = self._watched.get(name)
        with self._lock:
            stat = self.stats[name]
            stat.calls += 1
            stat.total += duration
            stat.self_time += self_time
            if ancestors:
                seen = set()
                node = parent
                while node is not None:
                    if node[0] in ancestors and node[0] not in seen:
                        seen.add(node[0])
                        self.nested[node[0], name] += 1
                    node = node[2]
            if len(self.records) < self.max_spans:
                self.records.append((span_id, 0 if parent is None else parent[4], name, start, end,
                                     threading.get_ident(), self.op_id))
            else:
                self.dropped += 1

    def _wrap(self, name: str, fn):
        count_bytes = name in _BYTES_COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)
                if count_bytes and args and os.path.exists(args[0]):
                    with self._lock:
                        self.counters["cli.bytes_written"] += os.path.getsize(args[0])

        return traced

    def _wrap_context_class(self, name: str, cls):
        tracer = self

        class Traced(cls):
            def __enter__(self):
                self._bench_frame = tracer._open(name)
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer._close(self._bench_frame)

        Traced.__name__ = Traced.__qualname__ = cls.__name__
        return Traced

    # -- installing hooks -------------------------------------------------
    def install(self) -> None:
        """Wrap every hook target that exists; record the others as absent."""
        for name, module_name, attr in HOOKS:
            self._hook(name, module_name, attr)
        for module_name in LAYER_MODULES:
            module = sys.modules.get(module_name)
            if module is None:
                self.absent.append(module_name)
                continue
            layer = module_name.rsplit(".", 1)[1]
            for attr, obj in list(vars(module).items()):
                if (callable(obj) and not isinstance(obj, type) and not attr.startswith("_")
                        and getattr(obj, "__module__", None) == module_name
                        and not self._is_patched(obj)):
                    self._hook(f"{layer}.{attr}", module_name, attr)

    def _is_patched(self, obj) -> bool:
        return any(new is obj for _, _, _, new in self._patches)

    def _hook(self, name: str, module_name: str, attr: str) -> None:
        try:
            module = importlib.import_module(module_name)
            owner_path, _, leaf = attr.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            self.absent.append(f"{module_name}.{attr}")
            return
        if isinstance(original, type):
            replacement = self._wrap_context_class(name, original)
        else:
            replacement = self._wrap(name, original)
        if owner is module:
            # rebind at every package module that imported the same object
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == module.__name__.split(".")[0]:
                    if getattr(mod, leaf, None) is original:
                        setattr(mod, leaf, replacement)
                        self._patches.append((mod, leaf, original, replacement))
        else:
            setattr(owner, leaf, replacement)
            self._patches.append((owner, leaf, original, replacement))

    def uninstall(self) -> None:
        for owner, leaf, original, _ in reversed(self._patches):
            setattr(owner, leaf, original)
        self._patches.clear()

    # -- reading results --------------------------------------------------
    def layer_self(self, layer: str) -> float:
        return sum(s.self_time for n, s in self.stats.items() if n.startswith(layer + "."))

    def layer_calls(self, layer: str) -> int:
        return sum(s.calls for n, s in self.stats.items() if n.startswith(layer + "."))

    def write(self, path: str) -> None:
        """Write the kept span records as CSV, times relative to the first."""
        t0 = min((r[3] for r in self.records), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,parent_id,name,start_s,end_s,thread,op\n")
            for span_id, parent_id, name, start, end, thread, op in self.records:
                fh.write(f"{span_id},{parent_id},{name},{start - t0:.9f},{end - t0:.9f},{thread},{op}\n")
