"""Spans and counters around every public goldencalc function, from outside.

`Tracer.install` replaces each public function (and public method of a
public class) of the layer modules by a wrapper, in every goldencalc
namespace that holds a reference to it, so calls between modules are seen
too. `Tracer.uninstall` puts the originals back. Spans are kept in memory,
only where a call crosses from one layer into another, and written out when
the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("core", "binomials", "calculus", "oscillator", "angular", "verify", "cli")
MAX_SPANS = 50_000
_MARK = "__perfbench_original__"


def _public_functions(module):
    """(owner, attribute, function, qualified name) for the layer's own public API."""
    layer = module.__name__.rsplit(".", 1)[1]
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield module, name, obj, f"{layer}.{name}"
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and not attr.startswith("_"):
                    yield obj, attr, member, f"{layer}.{name}.{attr}"


# Per-layer accumulators, kept in lists so the wrappers update them cheaply.
SELF_NS, LARGE_SELF_NS, FAILED, REPORT_FAILED = range(4)


class Tracer:
    """Per-layer call counts, self time, failures, and boundary spans."""

    def __init__(self) -> None:
        self.layers: dict[str, list[int]] = {}   # layer -> [self_ns, large_self_ns, failed, report_failed]
        self._fn_cells: dict[str, list[int]] = {}  # qualified name -> [calls]
        self.fib_result_bits = 0
        self.series_terms = 0
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._next_span = 0
        self.op_index = -1
        self.op_large = False
        self._stack: list[list] = []  # frames: [layer cell, child_ns, span_id]
        self._patches: list[tuple[object, str, object]] = []

    def fn_calls(self, qualname: str) -> int:
        return self._fn_cells.get(qualname, [0])[0]

    def calls(self, layer: str) -> int:
        return sum(cell[0] for name, cell in self._fn_cells.items() if name.split(".", 1)[0] == layer)

    def layer(self, layer: str) -> list[int]:
        return self.layers.setdefault(layer, [0, 0, 0, 0])

    # -- installation ------------------------------------------------------

    def install(self, package_name: str = "goldencalc") -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = sys.modules[f"{package_name}.{layer}"]
            for owner, attr, fn, qualname in _public_functions(module):
                wrapper = self._wrap(layer, qualname, fn)
                wrappers[id(fn)] = wrapper
                if inspect.isclass(owner):
                    self._patch(owner, attr, fn, wrapper)
        # Module-level names: rebind every alias (e.g. `from .core import fib_exact`).
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package_name and not mod_name.startswith(package_name + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._patch(module, attr, value, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @staticmethod
    def leftover_wrappers(package_name: str = "goldencalc") -> list[str]:
        """Names in goldencalc namespaces that still hold a tracing wrapper."""
        found = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package_name and not mod_name.startswith(package_name + "."):
                continue
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and hasattr(value, _MARK):
                    found.append(f"{mod_name}.{attr}")
                elif inspect.isclass(value):
                    found.extend(f"{mod_name}.{attr}.{m}" for m, v in vars(value).items()
                                 if inspect.isfunction(v) and hasattr(v, _MARK))
        return found

    # -- recording ---------------------------------------------------------

    def begin_op(self, index: int, large: bool) -> None:
        self.op_index = index
        self.op_large = large

    def _wrap(self, layer: str, qualname: str, fn):
        tracer = self
        stack = self._stack
        cell = self.layer(layer)
        counter = self._fn_cells.setdefault(qualname, [0])
        observe = self._observer(layer, qualname)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter[0] += 1
            parent = stack[-1] if stack else None
            boundary = parent is None or parent[0] is not cell
            span_id = None
            if boundary:
                span_id = tracer._next_span
                tracer._next_span += 1
            frame = [cell, 0, span_id]
            stack.append(frame)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                own = elapsed - frame[1]
                cell[SELF_NS] += own
                if tracer.op_large:
                    cell[LARGE_SELF_NS] += own
                if parent is not None:
                    parent[1] += elapsed
                if boundary:
                    tracer._close_span(span_id, qualname, t0, t1, ok)
                    if not ok:
                        cell[FAILED] += 1
            if observe is not None:
                observe(result, boundary)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _close_span(self, span_id, qualname, t0, t1, ok) -> None:
        if len(self.spans) < MAX_SPANS:
            parent_id = next((f[2] for f in reversed(self._stack) if f[2] is not None), None)
            self.spans.append((span_id, parent_id, self.op_index, qualname, t0, t1, ok))
        else:
            self.spans_dropped += 1

    def _observer(self, layer: str, qualname: str):
        """Extra counters for the few functions whose results are measured."""
        if qualname == "core.fib_exact":
            def observe(result, boundary):
                self.fib_result_bits += abs(result).bit_length()
        elif qualname == "calculus.GoldenSeries.evaluate":
            def observe(result, boundary):
                self.series_terms += result.terms_used
        elif layer in ("oscillator", "angular"):
            cell = self.layer(layer)

            def observe(result, boundary):
                if getattr(result, "passed", True) is False:
                    cell[REPORT_FAILED] += 1
                    if boundary:
                        cell[FAILED] += 1
        else:
            observe = None
        return observe

    def write_spans(self, path) -> None:
        """One JSON object per line: id, parent, op, name, start_ns, end_ns, ok."""
        keys = ("id", "parent", "op", "name", "start_ns", "end_ns", "ok")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

