"""Spans around the calls into each layer, and a gc.callbacks hook.

A span is (name, start, end, parent, request): ``parent`` is the index of
the enclosing span (-1 for none) and ``request`` the index of the root
span, so the spans of one CLI call share it.  Spans stay in memory and are
written out once, when the traced run ends.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("numtheory", "lens", "groups", "orders")
# Per-candidate helpers: called about a million times by `groups`, so a span
# around each call would cost more than the work it measures.
UNTRACED = {"groups.validate_metacyclic"}


class Tracer:
    """Records a span for each call of a wrapped function."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            request = stack[0] if stack else idx
            spans.append((name, 0.0, 0.0, parent, request))  # placeholder
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, request)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap each layer's public functions and the CLI handlers, at every
        module name they are bound to (``cli`` imports ``find_generator_pair``,
        ``lens`` and ``orders`` import ``is_prime``, ...)."""
        hooks = {
            "lens.find_generator_pair": self._count_pair,
            "groups.enumerate_periodic_odd": lambda res: self.counts.update({"groups.listed": len(res)}),
        }
        wrapped = {}
        for layer in (*LAYERS, "cli"):
            mod = importlib.import_module(f"lensbordism.{layer}")
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if layer == "cli":
                    public = attr == "main" or attr.startswith("cmd_")
                else:
                    public = not attr.startswith("_")
                if public and name not in UNTRACED:
                    wrapped[obj] = self.wrap(name, obj, hooks.get(name))
        for modname, mod in list(sys.modules.items()):
            if modname == "lensbordism" or modname.startswith("lensbordism."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(mod, attr, wrapped[obj])

    def _count_pair(self, result) -> None:
        self.counts["lens.find_generator_pair.attempts"] += len(result.proof_trace)
        self.counts[f"lens.stage.{result.stage}"] += 1


class GcHook:
    """Counts collections and their pause time through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = self.gen2 = 0
        self.pause_s = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._start
            self.collections += 1
            self.gen2 += info["generation"] == 2

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for s, e in sorted(children.get(idx, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out


def inclusive_time(spans: list[tuple], name: str) -> float:
    """Time inside spans of ``name``, counting nested ones of the same
    name (recursion) once."""
    names = [s[0] for s in spans]
    total = 0.0
    for name_, start, end, parent, _ in spans:
        if name_ != name:
            continue
        while parent >= 0 and names[parent] != name:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def layer_metrics(spans: list[tuple], counts: Counter) -> dict[str, float]:
    """The per-layer metrics of one traced run, by name."""
    calls = Counter(s[0] for s in spans)
    selfs = self_times(spans)
    layer_self: Counter = Counter()
    fn_self: Counter = Counter()
    for span, st in zip(spans, selfs):
        layer_self[span[0].split(".")[0]] += st
        fn_self[span[0]] += st
    orders_calls = sum(n for name, n in calls.items() if name.startswith("orders."))
    # orders.s: time inside any order formula, nested calls counted once.
    orders_s = sum(
        end - start for name, start, end, parent, _ in spans
        if name.startswith("orders.") and (parent < 0 or not spans[parent][0].startswith("orders."))
    )
    pairs = calls["lens.find_generator_pair"]
    attempts = counts["lens.find_generator_pair.attempts"]
    m = {
        "numtheory.sum_three_unit_squares.calls": calls["numtheory.sum_three_unit_squares"],
        "numtheory.sum_three_unit_squares.s": inclusive_time(spans, "numtheory.sum_three_unit_squares"),
        "numtheory.is_prime.calls": calls["numtheory.is_prime"],
        "numtheory.is_prime.s": inclusive_time(spans, "numtheory.is_prime"),
        "numtheory.primes_in_range.s": inclusive_time(spans, "numtheory.primes_in_range"),
        "lens.find_generator_pair.calls": pairs,
        "lens.find_generator_pair.self_s": fn_self["lens.find_generator_pair"],
        "lens.find_generator_pair.attempts": attempts,
        "lens.find_generator_pair.attempts_per_pair": attempts / pairs if pairs else 0.0,
    }
    for stage in ("i", "ii", "iii", "iv", "exhaustive"):
        m[f"lens.stage.{stage}"] = counts[f"lens.stage.{stage}"]
    m.update({
        "lens.canonical_form.calls": calls["lens.canonical_form"],
        "lens.canonical_form.s": inclusive_time(spans, "lens.canonical_form"),
        "lens.independent_bruteforce.calls": calls["lens.independent_bruteforce"],
        "lens.independent_bruteforce.s": inclusive_time(spans, "lens.independent_bruteforce"),
        "groups.enumerate_periodic_odd.s": inclusive_time(spans, "groups.enumerate_periodic_odd"),
        "groups.listed": counts["groups.listed"],
        "groups.sylow_structure.calls": calls["groups.sylow_structure"],
        "groups.sylow_structure.s": inclusive_time(spans, "groups.sylow_structure"),
        "orders.calls": orders_calls,
        "orders.s": orders_s,
    })
    for layer in (*LAYERS, "cli"):
        m[f"{layer}.self_s"] = layer_self[layer]
    return m
