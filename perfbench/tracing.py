"""Span recording around the calls packwise modules make into each other.

The library has no timing hook of its own, so the traced run times each
layer from outside: it replaces the module attributes through which one
packwise module calls another (``engine.match``, ``clustering.dunn``, ...)
with wrappers that open and close a span, and puts the originals back
afterwards. Spans nest on one stack because the library is
single-threaded; a span's self time is its duration minus the part its
direct children cover.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

# Functions wrapped as spans, by layer: "<module>.<function>" names the
# defining module inside the packwise package.
SPANS = (
    "demand.demand_for_period",
    "demand.demand_series",
    "demand.demand_from_values",
    "clustering.select_k",
    "clustering.kmeans",
    "clustering.davies_bouldin",
    "clustering.dunn",
    "clustering.ahc",
    "packing.ga_pack",
    "packing.best_fit_pack",
    "packing.first_fit_pack",
    "packing.verify_solution",
    "lookup.match",
    "lookup.pearson",
    "engine.build_offline",
    "engine.run_online",
)

# Spans that also record the tracemalloc peak above their entry level.
# numpy reports its buffers to tracemalloc, so this attributes the n x n
# arrays of the clustering indices to the call that built them.
MEMORY_SPANS = ("clustering.dunn", "clustering.ahc")

# Called inside ga_pack; observed for feasibility and its fitness trace,
# not timed, so that ga_pack keeps the GA's self time.
GA_EVOLVE = "packing.ga_evolve"


@dataclass
class SpanStats:
    """Aggregate of every closed span with one name."""

    calls: int = 0
    self_s: float = 0.0
    durations: list = field(default_factory=list)
    peak_bytes: int = 0


class Tracer:
    """Records nested spans in memory; ``stats()`` aggregates them by name.

    Each span is a list ``[name, parent_index, start, end]`` with times
    from ``time.perf_counter``; parent_index is -1 for a root span.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._mem = []         # per open memory span: [entry bytes, carried peak]
        self._mem_started = False
        self.mem_peaks = {}    # span index -> peak bytes above entry
        self.ga_runs = []      # (feasible, fitness trace) of every ga_evolve call

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append([name, parent, time.perf_counter(), None])
        return index

    def end(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def mem_begin(self) -> None:
        if not self._mem and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._mem_started = True
        current, peak = tracemalloc.get_traced_memory()
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        self._mem.append([current, 0])
        tracemalloc.reset_peak()

    def mem_end(self, index: int) -> None:
        _, peak = tracemalloc.get_traced_memory()
        entry, carried = self._mem.pop()
        peak = max(peak, carried)
        self.mem_peaks[index] = peak - entry
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        elif self._mem_started:
            tracemalloc.stop()
            self._mem_started = False

    def stats(self) -> dict:
        """Per-name SpanStats; self time is duration minus child coverage."""
        covered = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if end is None:
                raise RuntimeError(f"span {name} was never closed")
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for i, (name, _, start, end) in enumerate(self.spans):
            s = out.setdefault(name, SpanStats())
            s.calls += 1
            s.self_s += (end - start) - covered[i]
            s.durations.append(end - start)
            s.peak_bytes = max(s.peak_bytes, self.mem_peaks.get(i, 0))
        return out

    def write_csv(self, path) -> None:
        """One line per span: index, parent, name, start and end in µs
        from the first span's start."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            f.write("span,parent,name,start_us,end_us\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                f.write(f"{i},{parent},{name},{(start - origin) * 1e6:.3f},"
                        f"{(end - origin) * 1e6:.3f}\n")


def _span_wrapper(tracer: Tracer, name: str, fn):
    memory = name in MEMORY_SPANS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        if memory:
            tracer.mem_begin()
        try:
            return fn(*args, **kwargs)
        finally:
            if memory:
                tracer.mem_end(index)
            tracer.end(index)

    return wrapper


def _ga_evolve_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        solution, fitness_trace = fn(*args, **kwargs)
        tracer.ga_runs.append((solution.feasible, fitness_trace))
        return solution, fitness_trace

    return wrapper


def packwise_modules() -> list:
    """The imported modules of the packwise package, top level included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "packwise" or name.startswith("packwise."))]


class Instrumentation:
    """Installs span wrappers in every packwise module namespace that
    holds a wrapped function, and restores the originals on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._replaced = []    # (module, attribute, original)

    def __enter__(self):
        modules = {m.__name__: m for m in packwise_modules()}
        wrappers = {}
        for name in SPANS + (GA_EVOLVE,):
            module_name, attr = name.rsplit(".", 1)
            original = getattr(modules["packwise." + module_name], attr)
            if name == GA_EVOLVE:
                wrappers[id(original)] = (original, _ga_evolve_wrapper(self.tracer, original))
            else:
                wrappers[id(original)] = (original, _span_wrapper(self.tracer, name, original))
        try:
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(module, attr, hit[1])
                        self._replaced.append((module, attr, value))
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self._replaced:
            module, attr, original = self._replaced.pop()
            setattr(module, attr, original)

    def __exit__(self, *exc):
        self.restore()
        return False
