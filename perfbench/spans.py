"""Per-layer tracing from outside the program.

A ``Tracer`` replaces public functions of the program's modules with
wrappers that record spans (name, start, end, parent) in memory and bump
counters.  A function imported by name into another module (``ends.rank``,
``cohomology.rank_profile``, ``gog.catalog_groups``, ``ends.gog_b1``) is
found by identity and replaced there too.  Leaving the ``with`` block puts
every original back.

A layer's self time is the time its spans cover minus the time their
child spans cover.  Self times sum to the time covered by root spans; the
rest of the traced wall time is the harness and program code outside
every probe.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

PACKAGE = "gogends"


@dataclass(frozen=True)
class Probe:
    """One wrapped function.

    kind: "call" records a span per call; "next" records a span per
    ``next()`` of a generator; "count" and "yields" record no span, only
    the calls or the items yielded.  ``counter`` names the count of items
    yielded, or of calls for "count"; ``errors`` names the count of calls that raised; ``extra``
    adds counters from (counts, layer, args, result).
    """

    module: str
    attr: str
    layer: str
    kind: str = "call"
    counter: str | None = None
    errors: str | None = None
    extra: Callable | None = None


def _elim_shape(counts, layer, args, result):
    m = args[0]
    rows, cols = m.rows, m.cols + (1 if len(args) > 1 else 0)  # solve eliminates [m | rhs]
    counts[layer, "cells"] += rows * cols
    # dense Gauss-Jordan bound from the shape: min(rows, cols) pivots, each
    # updating every cell
    counts[layer, "computed_ops"] += rows * cols * min(rows, cols)


def _catalog_size(counts, layer, args, result):
    counts[layer, "groups"] += len(result)


def _mv_target(counts, layer, args, result):
    counts[layer, "target_dim"] += result.target_dim


PROBES = (
    Probe("cli", "gog_from_json", "cli.gog_from_json"),
    Probe("cli", "canonical_json", "cli.canonical_json"),
    Probe("fpcore", "catalog_groups", "fpcore.catalog_groups", extra=_catalog_size),
    Probe("fpcore", "hom_from_images", "fpcore.hom_from_images", kind="count", errors="rejected"),
    Probe("fpcore", "all_subgroups", "fpcore.all_subgroups"),
    Probe("fplinalg", "rref", "fplinalg.elim", extra=_elim_shape),
    Probe("fplinalg", "rank", "fplinalg.elim", extra=_elim_shape),
    Probe("fplinalg", "solve", "fplinalg.elim", extra=_elim_shape),
    Probe("fplinalg", "rank_profile", "fplinalg.rank_profile"),
    Probe("fplinalg", "FpMatrix.__init__", "fplinalg.FpMatrix", kind="count", counter="count"),
    Probe("fplinalg", "Subspace.reduce", "fplinalg.Subspace.reduce"),
    Probe("gmodules", "regular_bimodule", "gmodules.regular_bimodule"),
    Probe("gmodules", "quotient_module", "gmodules.quotient_module"),
    Probe("gmodules", "min_generators", "gmodules.min_generators"),
    Probe("gmodules", "submodule_generated", "gmodules.submodule_generated"),
    Probe("cohomology", "h0", "cohomology.h0"),
    Probe("cohomology", "h1", "cohomology.h1"),
    Probe("gog", "proper_quotient_search", "gog.proper_quotient_search"),
    Probe("gog", "injective_homs", "gog.injective_homs", kind="yields", counter="yielded"),
    Probe("gog", "presentation", "gog.presentation"),
    Probe("gog", "b1", "gog.b1"),
    Probe("ends", "mv_h0_map", "ends.mv_h0_map", extra=_mv_target),
    Probe("ends", "h1_via_fox", "ends.h1_via_fox"),
    Probe("ends", "ends_level", "ends.ends_level"),
    Probe("graphs", "enumerate_connected_multigraphs", "graphs.enumerate_connected_multigraphs", kind="next", counter="graphs"),
    Probe("graphs", "counting_report", "graphs.counting_report"),
    Probe("graphs", "maximum_matching", "graphs.maximum_matching"),
    Probe("graphs", "suppressed_graph", "graphs.suppressed_graph"),
)

_LEMMAS, _COUNTING, _LEVELS, _SEARCH = (f"wall_s on {w}" for w in ("lemmas", "counting", "levels", "search"))

# (metric, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = (
    ("cli.gog_from_json.self_s", "s", "lower", _SEARCH),
    ("cli.canonical_json.self_s", "s", "lower", "wall_s on lemmas, counting"),
    ("fpcore.catalog_groups.calls", "count", "lower", _SEARCH),
    ("fpcore.catalog_groups.self_s", "s", "lower", _SEARCH),
    ("fpcore.catalog_groups.groups", "count", "lower", _SEARCH),
    ("fpcore.hom_from_images.calls", "count", "lower", _SEARCH),
    ("fpcore.hom_from_images.rejected", "count", "lower", _SEARCH),
    ("fpcore.all_subgroups.self_s", "s", "lower", _LEMMAS),
    ("fplinalg.elim.calls", "count", "lower", "wall_s on lemmas (most), levels; 0 on counting, search"),
    ("fplinalg.elim.self_s", "s", "lower", "wall_s on lemmas (most), levels"),
    ("fplinalg.elim.cells", "count", "lower", "wall_s on lemmas (most), levels"),
    ("fplinalg.elim.computed_ops", "count", "lower", "wall_s on lemmas (most), levels"),
    ("fplinalg.rank_profile.self_s", "s", "lower", _LEMMAS),
    ("fplinalg.FpMatrix.count", "count", "lower", _LEMMAS),
    ("fplinalg.Subspace.reduce.calls", "count", "lower", _LEVELS),
    ("fplinalg.Subspace.reduce.self_s", "s", "lower", _LEVELS),
    ("fplinalg.rref.gf2_2048x1024_ms", "ms", "lower", _LEMMAS),
    ("fplinalg.rref.gf3_1458x729_ms", "ms", "lower", _LEMMAS),
    ("gmodules.regular_bimodule.calls", "count", "lower", "wall_s, peak_rss_mb on lemmas"),
    ("gmodules.regular_bimodule.self_s", "s", "lower", "wall_s, peak_rss_mb on lemmas"),
    ("gmodules.quotient_module.self_s", "s", "lower", _LEVELS),
    ("gmodules.min_generators.calls", "count", "lower", _LEVELS),
    ("gmodules.min_generators.self_s", "s", "lower", _LEVELS),
    ("gmodules.submodule_generated.self_s", "s", "lower", _LEVELS),
    ("cohomology.h0.calls", "count", "lower", _LEMMAS),
    ("cohomology.h0.self_s", "s", "lower", _LEMMAS),
    ("cohomology.h1.calls", "count", "lower", _LEMMAS),
    ("cohomology.h1.self_s", "s", "lower", _LEMMAS),
    ("gog.proper_quotient_search.calls", "count", "lower", _SEARCH),
    ("gog.proper_quotient_search.self_s", "s", "lower", _SEARCH),
    ("gog.injective_homs.yielded", "count", "lower", _SEARCH),
    ("gog.search.hit_ratio", "ratio", "higher", _SEARCH),
    ("gog.presentation.self_s", "s", "lower", _LEVELS),
    ("gog.b1.self_s", "s", "lower", _LEVELS),
    ("ends.mv_h0_map.calls", "count", "lower", _LEVELS),
    ("ends.mv_h0_map.self_s", "s", "lower", _LEVELS),
    ("ends.mv_h0_map.target_dim", "count", "lower", _LEVELS),
    ("ends.h1_via_fox.self_s", "s", "lower", _LEVELS),
    ("ends.ends_level.self_s", "s", "lower", _LEVELS),
    ("graphs.enumerate_connected_multigraphs.self_s", "s", "lower", _COUNTING),
    ("graphs.enumerate_connected_multigraphs.graphs", "count", "higher", _COUNTING),
    ("graphs.counting_report.self_s", "s", "lower", _COUNTING),
    ("graphs.maximum_matching.calls", "count", "lower", _COUNTING),
    ("graphs.maximum_matching.self_s", "s", "lower", _COUNTING),
    ("graphs.suppressed_graph.self_s", "s", "lower", _COUNTING),
    ("trace.overhead_s", "s", "lower", "none: traced wall minus untraced median"),
)


def program_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]


class Tracer:
    """Context manager: wraps the probes on entry, restores on exit."""

    def __init__(self, probes=PROBES):
        self.probes = probes
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.span_layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def _open(self, layer_id: int) -> int:
        i = len(self.start)
        self.span_layer.append(layer_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, fn, probe: Probe):
        counts, layer = self.counts, probe.layer
        layer_id = self._layer_id(layer)
        open_, close = self._open, self._close

        if probe.kind == "call":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[layer, "calls"] += 1
                i = open_(layer_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(i)
                if probe.extra is not None:
                    probe.extra(counts, layer, args, result)
                return result

        elif probe.kind == "count":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[layer, probe.counter or "calls"] += 1
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    if probe.errors is not None:
                        counts[layer, probe.errors] += 1
                    raise

        elif probe.kind == "yields":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[layer, "calls"] += 1
                for item in fn(*args, **kwargs):
                    counts[layer, probe.counter] += 1
                    yield item

        elif probe.kind == "next":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[layer, "calls"] += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        i = open_(layer_id)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            close(i)
                        counts[layer, probe.counter] += 1
                        yield item
                finally:
                    it.close()

        else:
            raise ValueError(f"unknown probe kind {probe.kind!r}")
        wrapper.__perfbench_original__ = fn
        return wrapper

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = {p.module: importlib.import_module(f"{PACKAGE}.{p.module}") for p in self.probes}
        try:
            for probe in self.probes:
                module = modules[probe.module]
                *path, attr = probe.attr.split(".")
                owner = functools.reduce(getattr, path, module)
                original = owner.__dict__[attr]
                wrapper = self._wrap(original, probe)
                self._patch(owner, attr, wrapper)
                if owner is module:
                    for other in program_modules():
                        for name, value in list(vars(other).items()):
                            if value is original:
                                self._patch(other, name, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], float]:
        """(self time per layer, total time covered by root spans)."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = np.bincount(
            np.frombuffer(self.span_layer, dtype=np.uint16),
            weights=dur - child,
            minlength=len(self.layers),
        )
        per_layer = {layer: float(own[i]) for i, layer in enumerate(self.layers)}
        return per_layer, float(dur[~nested].sum())
