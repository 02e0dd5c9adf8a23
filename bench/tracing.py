"""In-memory span tracer for the benchmark's traced pass.

A span is (name, start, end, parent): the parent is the index of the span
that was open when this one started, or -1.  Spans come from two places:
the benchmark's own phases (``Tracer.span``) and the public functions of
greenring, wrapped at module-attribute level by ``Tracer.install``.  A
wrapper replaces the function in every greenring module that holds it
(``ubasis.mul`` and ``core_ring.mul`` alike), so calls made through an
imported name are seen too.  Recursive helpers are never wrapped: every
level would become a span and the tracer would cost more than the work.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
import time


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``; 0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def _ideal_nonzeros(counters, args, result):
    counters["ideals.generator_nonzeros"] += sum(
        len(g) - g.count(0) for g in result.generators
    )


def _mul_term_pairs(counters, args, result):
    a, b = args[0], args[1]
    counters["core_ring.mul.term_pairs"] += len(a.coeffs) * len(b.coeffs)


def _jordan_dim(key):
    def count(counters, args, result):
        counters[key] += args[1] * args[2]
    return count


def _render_bytes(counters, args, result):
    counters["ubasis.render_matrix.bytes"] += len(result)


def _trick_terms(counters, args, result):
    counters["digits.terms"] += len(result.j_set)


# (module, function, counter hook or None).  Hooks run after the span has
# closed, so their cost lands in the caller's self time, not the callee's.
TRACED = (
    ("oracle", "verify_engine", None),
    ("oracle", "jordan_type", _jordan_dim("oracle.jordan_type.dim")),
    ("oracle", "jordan_type_dense", _jordan_dim("oracle.jordan_type_dense.dim")),
    ("core_ring", "tensor", None),
    ("core_ring", "mul", _mul_term_pairs),
    ("quantum", "eval_at_element", None),
    ("ubasis", "u_element", None),
    ("ubasis", "change_of_basis", None),
    ("ubasis", "v_in_u", None),
    ("ubasis", "render_matrix", _render_bytes),
    ("ideals", "rank_report", None),
    ("ideals", "invariant_factors", None),
    ("ideals", "ideal_lattice", _ideal_nonzeros),
    ("digits", "trick_certificate", _trick_terms),
    ("cli", "main", None),
)

COUNTERS = (
    "oracle.jordan_type.dim",
    "oracle.jordan_type_dense.dim",
    "core_ring.mul.term_pairs",
    "ubasis.render_matrix.bytes",
    "ideals.generator_nonzeros",
    "digits.terms",
)


class Tracer:
    """Records spans and counters while installed; nothing is written
    until ``dump`` is called."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int]] = []
        self._stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span named ``name``."""
        name_id = self._name_id(name)
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name_id, start, end, parent)

    def _wrap(self, name: str, fn, hook):
        name_id = self._name_id(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED wherever a greenring module holds it."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "greenring"]
        for module_name, attr, hook in TRACED:
            original = getattr(sys.modules["greenring." + module_name], attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, and durations.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly in one thread, so children never
        overlap each other.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name_id, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(
                self.names[name_id], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
            )
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            entry["durations"].append(end - start)
        return out

    def time_under(self, child: str, parent: str) -> float:
        """Total duration of ``child`` spans whose direct parent is a ``parent`` span."""
        if child not in self._name_ids or parent not in self._name_ids:
            return 0.0
        cid, pid = self._name_ids[child], self._name_ids[parent]
        return sum(
            end - start
            for name_id, start, end, par in self.spans
            if name_id == cid and par >= 0 and self.spans[par][0] == pid
        )

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"names": self.names, "spans": self.spans}, handle, separators=(",", ":"))
