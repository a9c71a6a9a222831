"""Per-layer spans and counts, taken by wrapping the package's functions.

`Tracer.install` replaces each traced function at every name a package
module binds it to (`sieve.resultant` as well as `exactalg.resultant`), and
wraps `Skeleton.__init__` so every validating construction is seen.  The
program's code is not edited.  Spans are kept in memory as
[name, start, end, parent index] and written out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

PACKAGE_MODULES = ("exactalg", "burau", "typesys", "sieve", "skeleton",
                   "intersect", "golden", "cli")

# Layer module -> traced functions.  `burau` and `golden` do sub-millisecond
# work on every workload and are not traced.
TRACED = {
    "exactalg": ("resultant", "fp_factor"),
    "typesys": ("root_spec",),
    "sieve": ("is_informative", "exceptional_triples"),
    "skeleton": ("enumerate_universal", "genus", "table_verify"),
    "intersect": ("fibered_product", "conjugate_to_e2"),
    "cli": ("cached_enumerate",),
}
SKELETON_CTOR = "skeleton.Skeleton"
OP_SPAN = "cli.main"


def per_layer_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in [f"{m}.{f}" for m, fns in TRACED.items() for f in fns] + [SKELETON_CTOR]:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    units.update({
        "exactalg.resultant.distinct_ratio": "ratio",
        "sieve.candidates": "count",
        "skeleton.enumerate_universal.edges": "count",
        "skeleton.enumerate_universal.useful_ratio": "ratio",
        "intersect.fibered_product.edges": "count",
        "cli.cache.hit_ratio": "ratio",
        "cli.cache.mb": "MB",
    })
    return units


class Tracer:
    """Spans and counts for one process; install once, read at the end."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._resultant_inputs = set()
        self._candidates = 0
        self._walk_edges = 0
        self._walk_genus_zero = 0
        self._pending_walks = {}
        self._cache_misses = set()
        self._product_edges = 0
        self._genus = None
        self.bindings = []

    def wrap(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result
        return traced

    # -- observers: counts taken where the work happens

    def _saw_resultant(self, args, result):
        # The inputs themselves, not their hashes: hash(-1) == hash(-2) in
        # CPython, so hashes of small coefficient tuples collide.
        self._resultant_inputs.add(args)

    def _saw_triples(self, args, result):
        self._candidates += len(result)

    def _saw_walk(self, args, result):
        self._walk_edges += result.edge_count
        self._pending_walks[id(result)] = result
        if self._stack and self.spans[self._stack[-1]][0] == "cli.cached_enumerate":
            self._cache_misses.add(self._stack[-1])

    def _saw_genus(self, args, result):
        if self._pending_walks.pop(id(args[0]), None) is not None:
            self._walk_genus_zero += result == 0

    def _saw_product(self, args, result):
        self._product_edges += result.total_edges

    def install(self):
        modules = [importlib.import_module(f"burausieve.{m}") for m in PACKAGE_MODULES]
        observers = {
            "exactalg.resultant": self._saw_resultant,
            "sieve.exceptional_triples": self._saw_triples,
            "skeleton.enumerate_universal": self._saw_walk,
            "skeleton.genus": self._saw_genus,
            "intersect.fibered_product": self._saw_product,
        }
        for home_name, fn_names in TRACED.items():
            home = importlib.import_module(f"burausieve.{home_name}")
            for fn_name in fn_names:
                name = f"{home_name}.{fn_name}"
                original = getattr(home, fn_name)
                if name == "skeleton.genus":
                    self._genus = original
                traced = self.wrap(name, original, observers.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)
                            self.bindings.append(f"{mod.__name__.split('.')[-1]}.{attr}")
        skeleton_cls = importlib.import_module("burausieve.skeleton").Skeleton
        skeleton_cls.__init__ = self.wrap(SKELETON_CTOR, skeleton_cls.__init__)
        self.bindings.append("skeleton.Skeleton.__init__")

    def metrics(self, cache_bytes):
        """Per-layer metrics over every span recorded so far."""
        for walk in self._pending_walks.values():
            self._walk_genus_zero += self._genus(walk) == 0
        self._pending_walks.clear()
        calls, seconds = Counter(), defaultdict(float)
        for name, start, end, _ in self.spans:
            calls[name] += 1
            seconds[name] += end - start
        out = {}
        for name, unit in per_layer_units().items():
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = calls[base]
            elif kind == "s":
                out[name] = seconds[base]
        walks = calls["skeleton.enumerate_universal"]
        resultants = calls["exactalg.resultant"]
        lookups = calls["cli.cached_enumerate"]
        out.update({
            "exactalg.resultant.distinct_ratio":
                len(self._resultant_inputs) / resultants if resultants else 0.0,
            "sieve.candidates": self._candidates,
            "skeleton.enumerate_universal.edges": self._walk_edges,
            "skeleton.enumerate_universal.useful_ratio":
                self._walk_genus_zero / walks if walks else 0.0,
            "intersect.fibered_product.edges": self._product_edges,
            "cli.cache.hit_ratio":
                (lookups - len(self._cache_misses)) / lookups if lookups else 0.0,
            "cli.cache.mb": cache_bytes / 1e6,
        })
        return out

    def dump(self, path, meta):
        """Write the spans (times relative to the first span) as one JSON file."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = dict(meta, bindings=self.bindings,
                   spans=[[n, round(s - t0, 7), round(e - t0, 7), p]
                          for n, s, e, p in self.spans])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
