"""Span tracer that wraps the package's layer entry points from outside.

Nothing under `src/` is modified: each entry point is rebound in every
`amalgam.*` module namespace that holds it (so the `from .x import y`
copies are caught too), constructors are wrapped through `__init__`, and
`FiniteRing.local_factors` through its `cached_property.func`.  `restore()`
puts every original back, so untraced and traced passes can share a
process.

Spans are kept in memory as (layer, start, end, parent, status) tuples and
summarised or written out when the pass ends.  A layer's self
time is its span duration minus the time its direct child spans cover
(single-threaded, so children never overlap).
"""
from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
import weakref

import numpy as np

from amalgam.errors import CapExceededError

PACKAGE = "amalgam"

# (layer name, defining module, attribute path); "Class.method" paths are
# patched on the class, "Class" paths wrap the constructor.
ENTRY_POINTS = (
    ("expressions.parse", "expressions", "parse"),
    ("expressions.Evaluator.ring", "expressions", "Evaluator.ring"),
    ("rings.FiniteRing", "rings", "FiniteRing"),
    ("rings.RingHom", "rings", "RingHom"),
    ("rings.local_factors", "rings", "FiniteRing.local_factors"),
    ("rings.quotient", "rings", "quotient"),
    ("modules.trivial_extension", "modules", "trivial_extension"),
    ("ideals.Ideal", "ideals", "Ideal"),
    ("ideals.all_ideals", "ideals", "all_ideals"),
    ("ideals.is_distributive_lattice", "ideals", "is_distributive_lattice"),
    ("ideals.maximal_ideals", "ideals", "maximal_ideals"),
    ("ideals.ideal_product", "ideals", "ideal_product"),
    ("properties.gaussian_check", "properties", "gaussian_check"),
    ("properties.arithmetical_check", "properties", "arithmetical_check"),
    ("properties.is_prufer", "properties", "is_prufer"),
    ("properties.property_report", "properties", "property_report"),
    ("amalgamation.amalgamate", "amalgamation", "amalgamate"),
    ("amalgamation.hypothesis_report", "amalgamation", "hypothesis_report"),
    ("amalgamation.f_image_plus_j", "amalgamation", "f_image_plus_j"),
    ("harness.build_catalog", "harness", "build_catalog"),
    ("harness.verify_clauses", "harness", "verify_clauses"),
    ("harness.verify_duplication_criterion", "harness", "verify_duplication_criterion"),
    ("harness.reproduce_examples", "harness", "reproduce_examples"),
)
LAYERS = tuple(name for name, _, _ in ENTRY_POINTS)
_PROPERTY_CHECKS = ("properties.gaussian_check", "properties.arithmetical_check", "properties.is_prufer")

OK, CAP_EXCEEDED, OTHER_ERROR = 0, 1, 2

def table_digest(ring) -> bytes:
    """Identity of a ring's (add, mul, zero, one) tables."""
    h = hashlib.blake2b(digest_size=16)
    h.update(ring.add.tobytes())
    h.update(ring.mul.tobytes())
    h.update(f"{ring.size},{ring.zero},{ring.one}".encode())
    return h.digest()


class _SeenRings:
    """Remembers ring objects without keeping them alive."""

    def __init__(self):
        self._refs: dict[int, weakref.ref] = {}

    def add(self, ring) -> bool:
        """Record the ring; True when this very object was recorded before."""
        ref = self._refs.get(id(ring))
        if ref is not None and ref() is ring:
            return True
        self._refs[id(ring)] = weakref.ref(ring)
        return False


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._all_ideals_seen = _SeenRings()
        self._evaluated = {name: _SeenRings() for name in _PROPERTY_CHECKS}
        self._digests: set[tuple[str, bytes]] = set()
        self.all_ideals_hits = 0
        self.property_evaluations = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer_id, (layer, module_name, path) in enumerate(ENTRY_POINTS):
            home = sys.modules[f"{PACKAGE}.{module_name}"]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:  # method or cached_property on a class
                owner = getattr(home, owner_name)
                member = owner.__dict__[attr]
                if hasattr(member, "func"):  # functools.cached_property
                    self._patch(member, "func", self._wrap(layer_id, member.func))
                else:
                    self._patch(owner, attr, self._wrap(layer_id, member))
                continue
            target = getattr(home, attr)
            if isinstance(target, type):  # constructor: wrap __init__ once
                self._patch(target, "__init__", self._wrap(layer_id, target.__dict__["__init__"]))
                continue
            wrapped = self._wrap(layer_id, target)
            for module in modules:
                if module.__dict__.get(attr) is target:
                    self._patch(module, attr, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _wrap(self, layer_id: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        on_call = self._on_call_hook(LAYERS[layer_id])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args[0] if args else kwargs["ring"])
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            status = OTHER_ERROR
            start = clock()
            try:
                result = fn(*args, **kwargs)
                status = OK
                return result
            except CapExceededError:
                status = CAP_EXCEEDED
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (layer_id, start, end, parent, status)

        return wrapper

    def _on_call_hook(self, layer: str):
        if layer == "ideals.all_ideals":
            def on_all_ideals(ring):
                if self._all_ideals_seen.add(ring):
                    self.all_ideals_hits += 1
            return on_all_ideals
        if layer in _PROPERTY_CHECKS:
            seen = self._evaluated[layer]

            def on_property(ring):
                if not seen.add(ring):
                    self.property_evaluations += 1
                    self._digests.add((layer, table_digest(ring)))
            return on_property
        return None

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        rows = np.array(self.spans, dtype=np.float64).reshape(-1, 5)
        return {
            "layer": rows[:, 0].astype(np.int32),
            "start": rows[:, 1],
            "end": rows[:, 2],
            "parent": rows[:, 3].astype(np.int64),
            "status": rows[:, 4].astype(np.int8),
        }

    def summary(self, wall: float) -> dict[str, float]:
        """Per-layer self time and calls, coverage of `wall`, and counters."""
        a = self.arrays()
        layer, parent, status = a["layer"], a["parent"], a["status"]
        duration = a["end"] - a["start"]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
        self_time = duration - covered
        n_layers = len(LAYERS)
        self_by_layer = np.bincount(layer, weights=self_time, minlength=n_layers)
        calls_by_layer = np.bincount(layer, minlength=n_layers)
        out: dict[str, float] = {}
        for i, name in enumerate(LAYERS):
            out[f"{name}.self_s"] = float(self_by_layer[i])
            out[f"{name}.calls"] = int(calls_by_layer[i])
        out["trace.coverage"] = float(self_time.sum() / wall)

        def ratio(num: int, den: int) -> float:
            return num / den if den else 0.0

        lid = {name: i for i, name in enumerate(LAYERS)}
        all_ideals = layer == lid["ideals.all_ideals"]
        out["ideals.all_ideals.hit_ratio"] = ratio(self.all_ideals_hits, int(all_ideals.sum()))
        out["ideals.all_ideals.overflow_ratio"] = ratio(
            int((all_ideals & (status == CAP_EXCEEDED)).sum()), int(all_ideals.sum())
        )
        arith = np.nonzero(layer == lid["properties.arithmetical_check"])[0]
        crosschecked = np.unique(parent[(layer == lid["ideals.is_distributive_lattice"]) & (status == OK)])
        out["properties.arith_crosscheck_ratio"] = ratio(
            int(np.isin(arith, crosschecked).sum()), len(arith)
        )
        out["properties.distinct_table_ratio"] = ratio(len(self._digests), self.property_evaluations)
        return out

    def write(self, path, item_starts: list[float]) -> None:
        """Every span as one JSON array per line.  `item` is the index of
        the workload item (request or spec) running when the span started;
        spans of one item share it, set-up spans get -1."""
        a = self.arrays()
        items = np.searchsorted(np.asarray(item_starts), a["start"], side="right") - 1
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["layer", "start", "end", "parent", "status", "item"],
                                 "status": {"0": "ok", "1": "CapExceededError", "2": "other error"}}) + "\n")
            for i in range(len(items)):
                fh.write(json.dumps([LAYERS[a["layer"][i]], float(a["start"][i]), float(a["end"][i]),
                                     int(a["parent"][i]), int(a["status"][i]), int(items[i])]) + "\n")
