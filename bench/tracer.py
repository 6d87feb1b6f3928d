"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the cowpath modules from outside: it
replaces every module attribute that refers to a traced function (the
defining module and each module that imported the name) and puts the
originals back on ``restore``.  Spans nest through a stack; a span's self
time is its duration minus the time of the spans it caused.  Only sums are
kept, per span name: calls, self time and the counts each layer adds.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict

import numpy as np

import cowpath
import cowpath.cli  # not imported by the package; its names are patched too

MODULES = ("model", "ratios", "hints", "bounds", "cli")

# Span name -> (module, function) pairs it covers.  One name may cover
# several functions; a span does not nest in a span of the same name, so
# make_geometric's inner strategy_from_lengths is one build, not two.
LAYERS = {
    "model.strategy_build": [
        ("model", "strategy_from_lengths"),
        ("model", "make_geometric"),
    ],
    "model.search_costs": [("model", "search_costs")],
    "model.search_cost": [("model", "search_cost")],
    "ratios.family_grid": [("ratios", "family_grid")],
    "ratios.evaluate_hinted": [("ratios", "evaluate_hinted")],
    "ratios.competitive_ratio_measured": [("ratios", "competitive_ratio_measured")],
    "hints.best_hint_index": [("hints", "best_hint_index")],
    "hints.preferred_partition": [("hints", "preferred_partition")],
    "bounds.direction_frontier": [("bounds", "direction_frontier")],
    "bounds.build_frontiers": [("bounds", "build_frontiers")],
    "bounds.inequality_sweeps": [
        ("bounds", "growth_lemma_sweep"),
        ("bounds", "prefix_bound_sweep"),
    ],
}


class Tracer:
    def __init__(self) -> None:
        self.stats: dict = defaultdict(lambda: defaultdict(float))
        self._stack: list = []
        self._saved: list = []

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        if self._stack and self._stack[-1][0] == name:
            return fn(*args, **kwargs)
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            stat = self.stats[name]
            stat["calls"] += 1
            stat["self_s"] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def count(self, name: str, key: str, amount: float) -> None:
        self.stats[name][key] += amount

    # ---- install / restore -------------------------------------------------

    def install(self) -> None:
        counting = {
            "search_costs": self._search_costs,
            "family_grid": self._family_grid,
            "evaluate_hinted": self._evaluate_hinted,
            "preferred_partition": self._preferred_partition,
            "direction_frontier": self._direction_frontier,
        }
        for name, functions in LAYERS.items():
            for module, attr in functions:
                original = getattr(getattr(cowpath, module), attr)
                make = counting.get(attr, self.wrap)
                self._replace(original, make(name, original))

    def restore(self) -> None:
        while self._saved:
            namespace, attr, original = self._saved.pop()
            setattr(namespace, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _replace(self, original, wrapper) -> None:
        for namespace in (cowpath, *(getattr(cowpath, m) for m in MODULES)):
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    self._saved.append((namespace, attr, original))
                    setattr(namespace, attr, wrapper)

    # ---- wrappers that also count -----------------------------------------

    def _search_costs(self, name, fn):
        def traced(strategy, distances, *args, **kwargs):
            self.count(name, "targets", np.size(distances))
            return self.call(name, fn, strategy, distances, *args, **kwargs)

        return traced

    def _family_grid(self, name, fn):
        def traced(*args, **kwargs):
            grid = self.call(name, fn, *args, **kwargs)
            self.count(name, "targets", len(grid.distances))
            return grid

        return traced

    def _evaluate_hinted(self, name, fn):
        def traced(family, *args, **kwargs):
            # Builds through the family's select rule form the hints.select
            # layer; builds_per_hint divides them by the hint-space size.
            self.count("hints.select", "hints", len(family.hint_space))
            family = dataclasses.replace(
                family, select=self.wrap("hints.select", family.select)
            )
            before = self.stats["ratios.family_grid"]["targets"]
            point = self.call(name, fn, family, *args, **kwargs)
            grid = kwargs.get("grid")
            targets = (
                len(grid.distances)
                if grid is not None
                else self.stats["ratios.family_grid"]["targets"] - before
            )
            self.count(name, "targets_scored", 2 * targets)
            return point

        return traced

    def _preferred_partition(self, name, fn):
        def traced(r, k, *args, **kwargs):
            cells = self.stats["hints.best_hint_index"]
            builds = self.stats["model.strategy_build"]
            cells_before, builds_before = cells["calls"], builds["calls"]
            partition = self.call(name, fn, r, k, *args, **kwargs)
            self.count(name, "cells", cells["calls"] - cells_before)
            self.count(name, "builds", builds["calls"] - builds_before)
            self.count(name, "members", 2 ** int(k))
            return partition

        return traced

    def _direction_frontier(self, name, fn):
        def traced(r_values, *args, **kwargs):
            r_values = list(r_values)
            self.count(name, "points", len(r_values))
            return self.call(name, fn, r_values, *args, **kwargs)

        return traced


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(stats: dict) -> dict:
    """Per-layer metrics of one traced pass; layers the pass bypassed read 0."""

    def get(name, key):
        return stats[name][key] if name in stats else 0.0

    out = {}
    for name in [*LAYERS, "hints.select"]:
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name, "self_s")
    out["model.strategy_build.us_per_call"] = _ratio(
        get("model.strategy_build", "self_s"), get("model.strategy_build", "calls"), 1e6
    )
    out["model.search_costs.targets"] = get("model.search_costs", "targets")
    out["model.search_costs.ns_per_target"] = _ratio(
        get("model.search_costs", "self_s"), get("model.search_costs", "targets"), 1e9
    )
    out["ratios.family_grid.targets"] = get("ratios.family_grid", "targets")
    out["ratios.evaluate_hinted.targets_scored"] = get(
        "ratios.evaluate_hinted", "targets_scored"
    )
    out["hints.select.builds_per_hint"] = _ratio(
        get("hints.select", "calls"), get("hints.select", "hints")
    )
    out["hints.preferred_partition.cells"] = get("hints.preferred_partition", "cells")
    out["hints.preferred_partition.builds_per_member"] = _ratio(
        get("hints.preferred_partition", "builds"),
        get("hints.preferred_partition", "members"),
    )
    out["bounds.direction_frontier.us_per_point"] = _ratio(
        get("bounds.direction_frontier", "self_s"),
        get("bounds.direction_frontier", "points"),
        1e6,
    )
    return out
