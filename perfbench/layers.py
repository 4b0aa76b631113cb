"""Per-layer spans for the traced run, recorded from the benchmark's side.

:class:`LayerProbe` wraps the public entry points of each layer by
rebinding the names the calling modules look up, so every call made by the
program passes through a wrapper.  A wrapper records one span ``(name,
start, end, parent)`` on a per-thread stack, because engine work runs on
the service's executor thread.  A span's self time is its duration minus
the time covered by its child spans.  Spans stay in memory and are
aggregated when the run ends.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Callable, Dict, List, Tuple

from repro.engine.catalog import CatalogAnalyzer
from repro.templates import from_expression, homomorphism, reduction, substitution
from repro.views import closure

#: Module-level entry points: span name -> (defining module, attribute).
FUNCTIONS = {
    "templates.convert": (from_expression, "template_from_expression"),
    "templates.reduce": (reduction, "reduce_template"),
    "templates.hom": (homomorphism, "has_homomorphism"),
    "templates.substitute": (substitution, "substituted_block"),
    "views.construction": (closure, "find_construction"),
}

#: ``CatalogAnalyzer`` methods: span name -> method name.
METHODS = {
    "engine.matrix": "dominance_matrix",
    "engine.classes": "equivalence_classes",
    "engine.core": "nonredundant_core",
    "engine.with_view": "with_view",
    "engine.without_view": "without_view",
    "engine.diff": "diff",
}


class LayerProbe:
    """Span recorder plus the rebinding that feeds it."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[List[list]] = []
        self._undo: List[Tuple[object, str, object]] = []

    def _spans(self) -> Tuple[List[list], List[int]]:
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack = [], []
            with self._lock:
                self._threads.append(local.spans)
        return local.spans, local.stack

    def _wrap(self, name: str, fn: Callable) -> Callable:
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self._spans()
            record = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Rebind every layer entry point in every loaded ``repro`` module."""

        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))
        for name, method in METHODS.items():
            original = CatalogAnalyzer.__dict__[method]
            setattr(CatalogAnalyzer, method, self._wrap(name, original))
            self._undo.append((CatalogAnalyzer, method, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_us`` and ``self_us``."""

        out: Dict[str, Dict[str, float]] = {}
        with self._lock:
            threads = list(self._threads)
        for spans in threads:
            covered = [0] * len(spans)
            for name, start, end, parent in spans:
                if parent >= 0:
                    covered[parent] += end - start
            for (name, start, end, _), child in zip(spans, covered):
                entry = out.setdefault(name, {"calls": 0, "total_us": 0.0, "self_us": 0.0})
                entry["calls"] += 1
                entry["total_us"] += (end - start) / 1e3
                entry["self_us"] += (end - start - child) / 1e3
        return out
