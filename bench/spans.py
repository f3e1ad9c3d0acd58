"""Spans and counts around the calls one dqc1sim layer makes into another.

Modules bind imported names at import time (``from .simulator import
dqc1_distribution``), so a wrapper replaces the name in each consumer
module (``cli``, ``hardness``, ``simulator``), never in the defining one.
Nothing in the package is edited; ``Tracer.installed()`` patches the names
for the duration of a ``with`` block and restores them afterwards.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# (consumer module, imported name, layer of the callee).  A span is named
# "<layer>.<name>"; each per-layer time metric below reads one of them.
WRAPS = (
    ("cli", "load_circuit", "circuits"),
    ("cli", "parse_ensemble_spec", "ensembles"),
    ("cli", "dqc1_distribution", "simulator"),
    ("cli", "f_value", "simulator"),
    ("cli", "verify_chain", "hardness"),
    ("simulator", "adjoint", "circuits"),
    ("hardness", "dqc1_distribution", "simulator"),
    ("hardness", "make_noisy_distribution", "hardness"),
)

# Work counted from a wrapped call's arguments and result.
_COUNTS = {
    "load_circuit": lambda a, r: {"circuits.gates": len(r.gates)},
    "parse_ensemble_spec": lambda a, r: {
        "ensembles.circuits": len(r),
        "circuits.gates": sum(len(c.gates) for c in r.circuits),
    },
    # 2**n columns of 2**(n+1) amplitudes each, swept once per gate.
    "dqc1_distribution": lambda a, r: {
        "simulator.passes": 1 << r.n,
        "simulator.amp_updates": len(a[0].gates) << (2 * r.n + 1),
    },
    "f_value": lambda a, r: {
        "simulator.passes": 1,
        "simulator.amp_updates": len(a[0].gates) << a[0].width,
    },
    "verify_chain": lambda a, r: {"hardness.pairs": r.ensemble_size << (r.n + 1)},
}

# Per-layer time metric -> span name whose durations it sums.
_SPAN_TIMES = {
    "circuits.load_s": "circuits.load_circuit",
    "circuits.adjoint_s": "circuits.adjoint",
    "ensembles.build_s": "ensembles.parse_ensemble_spec",
    "simulator.dist_s": "simulator.dqc1_distribution",
    "simulator.fvalue_s": "simulator.f_value",
    "hardness.chain_s": "hardness.verify_chain",
    "hardness.noisy_s": "hardness.make_noisy_distribution",
}

BYTES_PER_AMP_UPDATE = 32  # read and write one complex128 amplitude


@dataclass
class Span:
    id: int
    name: str
    layer: str
    op: int
    parent: int | None  # None for an op's root span
    thread: int
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans, counts and per-layer busy intervals for traced ops.

    A span opened on a pool thread with nothing open on that thread gets
    the span open on the main thread as its parent: every pool in the
    package is started from a call the main thread is blocked in.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        # layer -> [(wall_s, cpu_s)] over intervals where some span of it is open
        self.busy: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._open_count: Counter = Counter()
        self._busy_since: dict[str, tuple[float, float]] = {}
        self._op = -1

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        parent = (stack or self._main_stack or [None])[-1]
        wall, cpu = time.perf_counter(), time.process_time()
        with self._lock:
            span = Span(
                len(self.spans), name, layer, self._op,
                parent.id if parent else None, threading.get_ident(), wall,
            )
            self.spans.append(span)
            if self._open_count[layer] == 0:
                self._busy_since[layer] = (wall, cpu)
            self._open_count[layer] += 1
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        self._stack().pop()
        wall, cpu = time.perf_counter(), time.process_time()
        with self._lock:
            span.end = wall
            self._open_count[span.layer] -= 1
            if self._open_count[span.layer] == 0:
                wall0, cpu0 = self._busy_since.pop(span.layer)
                self.busy[span.layer].append((wall - wall0, cpu - cpu0))

    @contextmanager
    def op(self, index: int):
        """Root span of one CLI call; spans opened inside belong to op ``index``."""
        self._op = index
        span = self._open("cli.main", "cli")
        try:
            yield span
        finally:
            self._close(span)

    def count(self, key: str, value: int) -> None:
        with self._lock:
            self.counts[key] += value

    def _wrap(self, fn, name: str, layer: str):
        span_name = f"{layer}.{name}"
        counter = _COUNTS.get(name)

        def traced(*args, **kwargs):
            span = self._open(span_name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.count(key, value)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every name in WRAPS by a traced wrapper, restoring on exit."""
        saved = []
        try:
            for module_name, name, layer in WRAPS:
                module = importlib.import_module(f"dqc1sim.{module_name}")
                fn = getattr(module, name)
                saved.append((module, name, fn))
                setattr(module, name, self._wrap(fn, name, layer))
            yield self
        finally:
            for module, name, fn in reversed(saved):
                setattr(module, name, fn)

    def write(self, path) -> None:
        """All spans as one JSON list, times in seconds on the perf_counter clock."""
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)

    def self_time(self, span: Span, children: dict[int, list[Span]]) -> float:
        """Span duration minus the union of its children in other layers.

        Children in the span's own layer count as its own time, but their
        children in other layers are subtracted too.  Children on pool
        threads can overlap, hence the union.
        """

        def foreign(s: Span):
            for c in children.get(s.id, ()):
                if c.layer != span.layer:
                    yield (max(c.start, span.start), min(c.end, span.end))
                else:
                    yield from foreign(c)

        return span.duration - union_length(foreign(span))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        children: dict[int, list[Span]] = defaultdict(list)
        by_name: dict[str, list[Span]] = defaultdict(list)
        for s in self.spans:
            by_name[s.name].append(s)
            if s.parent is not None:
                children[s.parent].append(s)

        m: dict[str, float] = {}
        m["cli.self_s"] = sum(self.self_time(s, children) for s in by_name["cli.main"])
        m["cli.out_bytes"] = self.counts["cli.out_bytes"]
        for metric, span_name in _SPAN_TIMES.items():
            m[metric] = sum(s.duration for s in by_name[span_name])
        m["hardness.self_s"] = sum(
            self.self_time(s, children) for s in by_name["hardness.verify_chain"]
        )
        for key in ("circuits.gates", "ensembles.circuits", "simulator.passes",
                    "simulator.amp_updates", "hardness.pairs"):
            m[key] = self.counts[key]
        sim_wall = sum(w for w, _ in self.busy["simulator"])
        m["simulator.amp_updates_per_s"] = (
            self.counts["simulator.amp_updates"] / sim_wall if sim_wall else 0.0
        )
        m["simulator.bytes_moved_computed"] = (
            BYTES_PER_AMP_UPDATE * self.counts["simulator.amp_updates"]
        )
        for layer in ("simulator", "hardness"):
            wall = sum(w for w, _ in self.busy[layer])
            cpu = sum(c for _, c in self.busy[layer])
            m[f"{layer}.cpu_per_wall"] = cpu / wall if wall else 0.0
        return m


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= max(a, end):
            continue
        total += b - max(a, end)
        end = b
    return total
