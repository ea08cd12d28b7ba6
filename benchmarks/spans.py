"""Span tracer that times calls into catchain's public functions from outside.

``Tracer.install`` wraps every public module-level function of the layer
modules by replacing the attribute in every ``catchain.*`` module that holds
the original object, so calls made inside a module are timed too.
``KernelHandle.probs`` is replaced on the class.  ``Tracer.uninstall`` puts
every original back.

Each thread keeps its own span stack.  A span opened in a worker thread with
no open span of its own takes the main thread's innermost open span as its
parent, so time a caller spends waiting on a pool is charged to the pool's
spans, not to the caller.  Spans are kept in memory; ``layer_metrics`` turns
them into per-layer totals after the run.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

PACKAGE = "catchain"
LAYERS = ("prob", "bounds", "kernels", "models", "simulate", "dependence", "estimate", "cli")


# Work counters computed from the bound arguments (and, for sample_forward,
# the return value), keyed by span name: (counter name, measure).
WORK = {
    "bounds.bstar_from_b": ("horizon_sq", lambda a, result: (a["horizon"] + 1) ** 2),
    "simulate.coupled_ladder_mc": (
        "replica_steps",
        lambda a, result: a["replicas"] * a["length"] * (a["length"] + 2),
    ),
    "simulate.sample_forward": ("steps", lambda a, result: result.burnin_used + a["window"]),
    "cli.write_atomic": ("bytes", lambda a, result: len(a["text"].encode())),
}


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    nested: bool  # the same function was already open on this thread


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> dict:
    """Map span id to its duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - union_length(children.get(s.sid, ())) for s in spans}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.work: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list = []
        self._main_ident = threading.main_thread().ident
        self._lock = threading.Lock()
        self._patched: list = []  # (owner, attribute, original)
        self._wrappers: list = []

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        else:
            main = self._main_stack
            parent = main[-1][0] if (main and stack is not main) else None
        nested = any(n == name for _, n in stack)
        sid = next(self._ids)
        stack.append((sid, name))
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append(Span(sid, parent, name, start, end, threading.get_ident(), nested))
        return result

    def count(self, key: str, amount: int) -> None:
        with self._lock:
            self.work[key] += amount

    def reset(self) -> None:
        self.spans = []
        self.work = defaultdict(int)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        counter = WORK.get(name)
        if counter is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs)

            return wrapper
        key, measure = counter
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            tracer.count(f"{name}.{key}", measure(bound.arguments, result))
            return result

        return counted

    def install(self) -> None:
        """Wrap every public function of the layer modules."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for module in _package_modules():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        handle = sys.modules[f"{PACKAGE}.kernels"].KernelHandle
        probs = handle.__dict__["probs"]
        self._patched.append((handle, "probs", probs))
        handle.probs = self._wrap("kernels.KernelHandle.probs", probs)
        self._wrappers = list(wrappers.values()) + [handle.probs]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def leftovers(self) -> list[str]:
        """Attributes of the package's modules and classes that still hold a wrapper."""
        wrapper_ids = {id(w) for w in self._wrappers}
        found = []
        for module in _package_modules():
            owners = [module] + [v for v in vars(module).values() if inspect.isclass(v)]
            for owner in owners:
                found += [f"{owner.__name__}.{attr}" for attr, obj in vars(owner).items() if id(obj) in wrapper_ids]
        return found

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer self time and per-function calls, inclusive time and work."""
        selfs = self_times(self.spans)
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for s in self.spans:
            layer = s.name.split(".", 1)[0]
            out[f"{layer}.self_s"] += selfs[s.sid]
            out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
            if not s.nested:
                out[f"{s.name}.s"] = out.get(f"{s.name}.s", 0.0) + (s.end - s.start)
        out.update(self.work)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,thread,name,start,end\n")
            for s in self.spans:
                parent = "" if s.parent is None else s.parent
                fh.write(f"{s.sid},{parent},{s.thread},{s.name},{s.start!r},{s.end!r}\n")
