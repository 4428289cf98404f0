"""Spans around the calls into each layer of the package, recorded from outside.

``Tracer.install`` replaces every public function of each layer module, in
every namespace of the package that binds it (module globals and the
module-level dicts that hold handlers), with a wrapper.  Nothing inside the
package changes.  A wrapper counts every call.  It records a span (function,
start, end, parent span) when the call enters its layer from another layer or
from the benchmark, and for the few functions that per-layer metrics time on
their own (``DETAILED``).  A call from a layer into its own plain helpers is
counted only; its time stays in the enclosing span of the same layer, which is
where self time puts it anyway.

Spans stay in memory for one operation; ``fold`` then turns them into
per-layer self time (a span's duration minus the time its child spans cover)
and per-function inclusive time, and drops them.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter
from typing import Callable, Sequence

LAYERS = ("combinatorics", "plabic", "cluster", "cm", "numeric", "cli")

# Functions whose own time or results feed a per-layer metric.
DETAILED = {
    "plabic.face_labels",
    "plabic.square_move",
    "cluster.mutate_seed",
    "cluster.mutation_class",
    "cluster.LaurentPoly.evaluate",
    "numeric.minor",
    "numeric.sample_cell_point",
    "numeric.verify_identities",
    "combinatorics.positroid_members",
    "cm.in_gp_b",
    "cm.k2_generator_decomposition",
}

# Methods wrapped besides module-level functions: evaluation of a Laurent
# expansion is cluster work that numeric starts through a method call.
METHODS = {"cluster": {"LaurentPoly": ("evaluate",)}}


def self_times(spans: Sequence[tuple[int, float, float, int]]) -> list[float]:
    """Self time of each span (function id, start, end, parent index).

    Spans are listed in the order they opened, so a parent precedes its
    children; a parent index of -1 marks a span opened from outside.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self.fid: dict[str, int] = {}
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.inclusive: list[float] = []
        self.spans: list = []
        self.open: list[int] = []
        self.open_layers: list[str] = []
        self.observers: dict[str, Callable] = {}
        self.layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.span_count = 0

    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        fid = self.fid[name] = len(self.layer_of)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.inclusive.append(0.0)
        detailed = name in DETAILED
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            tracer.calls[fid] += 1
            layers = tracer.open_layers
            if not detailed and layers and layers[-1] == layer:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer.open
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            layers.append(layer)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                layers.pop()
                spans[idx] = (fid, start, end, parent)
            observe = tracer.observers.get(name)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer wherever the package binds them."""
        modules = {layer: importlib.import_module(f"positroids.{layer}") for layer in LAYERS}
        package = [m for key, m in sys.modules.items() if key == "positroids" or key.startswith("positroids.")]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                wrapped = self.wrap(obj, layer, f"{layer}.{attr}")
                for namespace in package:
                    for key, value in list(vars(namespace).items()):
                        if value is obj:
                            setattr(namespace, key, wrapped)
                        elif isinstance(value, dict):
                            for dkey, dvalue in list(value.items()):
                                if dvalue is obj:
                                    value[dkey] = wrapped
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name, None)
                for method in methods:
                    if cls is not None and inspect.isfunction(getattr(cls, method, None)):
                        setattr(cls, method, self.wrap(getattr(cls, method), layer, f"{layer}.{cls_name}.{method}"))

    def fold(self) -> None:
        """Fold the spans of the operation that just ended into the totals."""
        spans = self.spans
        for (fid, start, end, _), own in zip(spans, self_times(spans)):
            self.layer_self[self.layer_of[fid]] += own
            self.inclusive[fid] += end - start
        self.span_count += len(spans)
        spans.clear()

    def count(self, name: str) -> int:
        """Calls of one wrapped function; 0 if the package has no such function."""
        return self.calls[self.fid[name]] if name in self.fid else 0

    def seconds(self, name: str) -> float:
        """Time inside one wrapped function, summed over its spans."""
        return self.inclusive[self.fid[name]] if name in self.fid else 0.0

    def layer_calls(self, layer: str) -> int:
        return sum(c for lay, c in zip(self.layer_of, self.calls) if lay == layer)


class LayerStats:
    """Per-layer counts that need a look at arguments or results.

    The observers run in the traced round only, after the observed call has
    closed its span.  Each reads the public shape of one result; a value it
    cannot read is skipped, so a later change of that shape zeroes a metric
    instead of stopping the run.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.graphs: set = set()
        self.seeds_kept = 0
        self.max_terms = 0
        self.minor_keys: set = set()
        self.matrices: dict[int, object] = {}
        self.members = 0
        self.decompositions = 0
        self.output_bytes = 0
        tracer.observers.update(
            {
                "plabic.face_labels": self._face_labels,
                "cluster.mutation_class": self._mutation_class,
                "cluster.mutate_seed": self._mutate_seed,
                "numeric.minor": self._minor,
                "combinatorics.positroid_members": self._positroid_members,
                "cm.k2_generator_decomposition": self._k2,
            }
        )

    def _face_labels(self, args, result) -> None:
        if args:
            self.graphs.add(args[0])

    def _mutation_class(self, args, result) -> None:
        try:
            self.seeds_kept += len(result[0]) - 1
        except (TypeError, IndexError):
            pass

    def _mutate_seed(self, args, result) -> None:
        try:
            self.max_terms = max(self.max_terms, len(result.variable(args[1]).terms))
        except (AttributeError, TypeError, IndexError, KeyError):
            pass

    def _minor(self, args, result) -> None:
        # matrices are told apart by identity and kept alive so that an id is
        # never reused within the round
        if len(args) == 2:
            matrix, columns = args
            self.matrices[id(matrix)] = matrix
            self.minor_keys.add((id(matrix), getattr(columns, "elements", None)))

    def _positroid_members(self, args, result) -> None:
        self.members += len(getattr(result, "members", ()))

    def _k2(self, args, result) -> None:
        if result is not None:
            self.decompositions += 1

    def metrics(self, numeric_module) -> dict[str, float]:
        t = self.tracer
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = t.layer_self[layer]
            out[f"{layer}.calls"] = t.layer_calls(layer)
        face_labels = t.count("plabic.face_labels")
        mutations = t.count("cluster.mutate_seed")
        minors = t.count("numeric.minor")
        necklaces = t.count("combinatorics.positroid_members")
        out.update(
            {
                "plabic.face_labels_calls": face_labels,
                "plabic.face_labels_s": t.seconds("plabic.face_labels"),
                "plabic.square_moves": t.count("plabic.square_move"),
                "plabic.face_labels_per_graph": face_labels / len(self.graphs) if self.graphs else 0.0,
                "cluster.mutate_seed_calls": mutations,
                "cluster.mutate_seed_s": t.seconds("cluster.mutate_seed"),
                "cluster.seeds_kept_per_mutation": self.seeds_kept / mutations if mutations else 0.0,
                "cluster.max_laurent_terms": self.max_terms,
                "cluster.evaluate_calls": t.count("cluster.LaurentPoly.evaluate"),
                "numeric.minor_calls": minors,
                "numeric.minor_s": t.seconds("numeric.minor"),
                "numeric.distinct_minor_share": len(self.minor_keys) / minors if minors else 0.0,
                "numeric.points_sampled": t.count("numeric.sample_cell_point"),
                "numeric.sample_cell_point_s": t.seconds("numeric.sample_cell_point"),
                "numeric.verify_identities_s": t.seconds("numeric.verify_identities"),
                "numeric.cache_entries": cache_entries(numeric_module),
                "combinatorics.positroid_members_calls": necklaces,
                "combinatorics.members_per_necklace": self.members / necklaces if necklaces else 0.0,
                "cm.in_gp_b_calls": t.count("cm.in_gp_b"),
                "cm.k2_decompositions": self.decompositions,
                "cli.output_bytes": self.output_bytes,
                "trace.spans": t.span_count,
            }
        )
        return out


def cache_entries(module) -> int:
    """Entries held by the module's function caches (``lru_cache`` and kin)."""
    total = 0
    for obj in vars(module).values():
        info = getattr(obj, "cache_info", None)
        if callable(info):
            total += info().currsize
    return total
