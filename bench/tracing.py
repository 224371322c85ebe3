"""Spans around pgmkit's public layer functions, recorded from outside.

The tracer replaces each listed function with a wrapper in every pgmkit
module that binds it: modules import by name, so ``exact.triangulate`` is
wrapped as well as ``graphs.triangulate``. Methods are wrapped on their
class. ``install`` and ``uninstall`` swap the wrappers in and out, so an
untraced request runs the original functions.

Each span records its name, start, end, parent span and request. Spans
are kept in memory and written out at the end; self time is a span's
duration minus its direct children's. Counters are read at the same
boundaries, from arguments and return values.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


def _entries(args, kwargs, factor):
    return {"factors.entries_written": ("sum", args[0].table.size)}


def _ve(args, kwargs, result):
    return {"exact.variable_elimination.max_scope": ("max", result.max_intermediate_scope)}


def _jt(args, kwargs, jt):
    entries = max(math.prod(jt.model.variable(n).cardinality for n in c) for c in jt.cliques)
    return {"exact.jt.max_clique_entries": ("max", entries)}


def _tree_bp(args, kwargs, result):
    return {"exact.tree_bp.sends": ("sum", result.messages.sends)}


def _loopy(args, kwargs, result):
    return {"variational.loopy_bp.iterations": ("sum", result.iterations)}


def _gibbs(args, kwargs, batch):
    evidence = (args[1] if len(args) > 1 else kwargs.get("evidence")) or {}
    sweeps = len(batch) + batch.metadata["burn_in"]
    free = len(batch.variables) - len(evidence)
    return {"sampling.gibbs.site_updates": ("sum", sweeps * free)}


# (module, attribute, counter read at the span's end)
TARGETS = [
    ("pgmkit.cli", "main", None),
    ("pgmkit.io", "parse_model", None),
    ("pgmkit.io", "load_dataset", None),
    ("pgmkit.factors", "Factor.__init__", _entries),
    ("pgmkit.factors", "product", None),
    ("pgmkit.factors", "reduce_factor", None),
    ("pgmkit.factors", "eliminate", None),
    ("pgmkit.factors", "align_to", None),
    ("pgmkit.graphs", "triangulate", None),
    ("pgmkit.graphs", "max_cliques", None),
    ("pgmkit.graphs", "max_weight_spanning_tree", None),
    ("pgmkit.models", "FactorGraph.neighbors_of_variable", None),
    ("pgmkit.models", "log_joint", None),
    ("pgmkit.exact", "choose_ordering", None),
    ("pgmkit.exact", "variable_elimination", _ve),
    ("pgmkit.exact", "tree_bp", _tree_bp),
    ("pgmkit.exact", "build_junction_tree", _jt),
    ("pgmkit.exact", "running_intersection_holds", None),
    ("pgmkit.exact", "jt_calibrate", None),
    ("pgmkit.exact", "max_product_decode", None),
    ("pgmkit.sampling", "gibbs", _gibbs),
    ("pgmkit.variational", "loopy_bp", _loopy),
    ("pgmkit.variational", "mean_field", None),
    ("pgmkit.variational", "elbo", None),
    ("pgmkit.mapinf", "local_search_map", None),
    ("pgmkit.mapinf", "simulated_annealing_map", None),
    ("pgmkit.mapinf", "dual_decomposition", None),
    ("pgmkit.learning", "counts", None),
    ("pgmkit.learning", "ci_test", None),
    ("pgmkit.learning", "hill_climb", None),
    ("pgmkit.learning", "pc", None),
    ("pgmkit.learning", "chow_liu", None),
    ("pgmkit.learning", "mle_bn", None),
    ("pgmkit.learning", "fit_mrf", None),
    ("pgmkit.learning", "crf_log_likelihood", None),
]


def _label(module: str, attr: str) -> str:
    return f"{module.split('.', 1)[1]}.{attr.removesuffix('.__init__')}"


class Tracer:
    def __init__(self):
        self.labels = [_label(m, a) for m, a, _ in TARGETS]
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request_of = array("q")
        self.stack: list[int] = []
        self.request = -1
        self.counters: dict[int, dict[str, float]] = defaultdict(dict)
        self.patches: list[tuple[object, str, object, object]] = []
        for k, (module_name, attr, counter) in enumerate(TARGETS):
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self.patches.append((owner, method, original, self._wrap(k, original, counter)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(k, original, counter)
            for name, mod in sorted(sys.modules.items()):
                if name == "pgmkit" or name.startswith("pgmkit."):
                    for binding, value in list(vars(mod).items()):
                        if value is original:
                            self.patches.append((mod, binding, original, wrapper))

    def install(self, request: int) -> None:
        self.request = request
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    def _count(self, values: dict[str, tuple[str, float]]) -> None:
        mine = self.counters[self.request]
        for key, (how, value) in values.items():
            old = mine.get(key)
            mine[key] = value if old is None else (old + value if how == "sum" else max(old, value))

    def _wrap(self, name_id, fn, counter):
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.request_of.append(self.request)
            self.end.append(0)
            self.stack.append(span)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                self.stack.pop()
            if counter is not None:
                self._count(counter(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def per_request(self) -> dict[int, dict[str, float]]:
        """For each traced request: ``<label>.calls``, ``<label>.self_ms`` and counters."""
        name_id = np.frombuffer(self.name_id, dtype=np.int64)
        duration = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        request = np.frombuffer(self.request_of, dtype=np.int64)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        self_ns = duration - children
        out: dict[int, dict[str, float]] = {}
        for r in sorted(set(request.tolist()) | set(self.counters)):
            mask = request == r
            calls = np.bincount(name_id[mask], minlength=len(self.labels))
            self_sum = np.bincount(name_id[mask], weights=self_ns[mask], minlength=len(self.labels))
            row = {}
            for k, label in enumerate(self.labels):
                row[f"{label}.calls"] = int(calls[k])
                row[f"{label}.self_ms"] = float(self_sum[k]) / 1e6
            row.update(self.counters.get(r, {}))
            out[r] = row
        return out

    def save(self, path) -> None:
        np.savez(
            path,
            labels=np.array(self.labels),
            name=np.frombuffer(self.name_id, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            request=np.frombuffer(self.request_of, dtype=np.int64),
        )
