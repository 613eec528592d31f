"""Span tracing of fpvanish's public functions, installed from outside.

`Tracer.install` wraps every public function defined in the traced modules
(of `cli`, only `main`), plus `AbelianGroup.subgroups` and the
`DecompositionPlan` constructor, and rebinds each wrapper under every name
the original is bound to in any fpvanish module: `decomposition` imports
`is_fp_vanishing` by name and `covers` imports `smallest_arithmetic_size`,
so patching the defining module alone would miss those calls.

A span records name, start, end and parent; spans stay in memory in flat
arrays and `write` saves them when the run ends.  A generator's span is one
span per resumption, so work done by its consumer between items is not
charged to it.  Self time is a span's duration minus the durations of its
direct children.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

import fpvanish.cli  # noqa: F401  (loads every traced module)
import fpvanish.covers
import fpvanish.decomposition

TRACED_MODULES = (
    "_kernels",
    "fp_core",
    "group_ring",
    "arithmetic_sets",
    "decomposition",
    "covers",
    "linear_maps",
    "cli",
)


def _cells_binomial(args, result) -> int:  # fp_binomial_power(table, dims, v, r, p)
    return args[0].size * args[3]


def _cells_reach(args, result) -> int:  # reach_expand(reach, dims, step, r, p): 2r shifts
    return args[0].size * 2 * args[3]


def _rows(args, result) -> int:  # masks_arithmetic_ok(masks, r, p)
    return args[0].shape[0]


def _hit(args, result) -> int:  # scan_combinations returns the first passing set or None
    return int(result is not None)


def _descent_steps(args, result) -> int:
    return result.descent_steps


# qualified name -> (counter name, function of (args, result))
COUNTERS = {
    "kernels.fp_binomial_power": ("kernels.fp_binomial_power.cells", _cells_binomial),
    "kernels.reach_expand": ("kernels.reach_expand.cells", _cells_reach),
    "kernels.masks_arithmetic_ok": ("kernels.masks_arithmetic_ok.rows", _rows),
    "kernels.scan_combinations": ("kernels.scan_combinations.hits", _hit),
    "decomposition.represent_in_set": ("decomposition.descent_steps", _descent_steps),
}
# generators whose yielded items are counted
ITEM_COUNTERS = {"covers.enumerate_irredundant_covers": "covers.enumerate_irredundant_covers.covers"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        self.calls.append(0)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, calls, counters, clock = self._stack, self.calls, self.counters, time.perf_counter
        counter = COUNTERS.get(qualname)
        item_counter = ITEM_COUNTERS.get(qualname)

        if inspect.isgeneratorfunction(fn):

            def traced_gen(*args, **kwargs):
                calls[nid] += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        idx = len(starts)
                        names.append(nid)
                        parents.append(stack[-1])
                        ends.append(0.0)
                        stack.append(idx)
                        starts.append(clock())
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            ends[idx] = clock()
                            stack.pop()
                        if item_counter:
                            counters[item_counter] += 1
                        yield item
                finally:
                    it.close()

            traced = traced_gen
        else:

            def traced(*args, **kwargs):
                calls[nid] += 1
                idx = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(idx)
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
                if counter:
                    counters[counter[0]] += counter[1](args, result)
                return result

        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"fpvanish.{short}"]
            for name, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and (short != "cli" or name == "main")
                ):
                    # A metric name must start with a letter: `_kernels` reads `kernels`.
                    wrappers[id(obj)] = (obj, self._wrap(f"{short.lstrip('_')}.{name}", obj))
        for mod in [m for n, m in sys.modules.items() if n.startswith("fpvanish")]:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        for cls, attr, qualname in (
            (fpvanish.covers.AbelianGroup, "subgroups", "covers.AbelianGroup.subgroups"),
            (fpvanish.decomposition.DecompositionPlan, "__init__", "decomposition.DecompositionPlan"),
        ):
            orig = cls.__dict__[attr]
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(qualname, orig))

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._undo):
            setattr(owner, name, obj)
        self._undo.clear()

    # -- results ----------------------------------------------------------------

    def _self_times(self) -> np.ndarray:
        name = np.array(self.span_name, dtype=np.int64)
        parent = np.array(self.span_parent, dtype=np.int64)
        dur = np.array(self.span_end) - np.array(self.span_start)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
        return np.bincount(name, weights=dur - child, minlength=len(self.names))

    def metrics(self, n_queries: int) -> dict[str, float]:
        """Per-function calls and self time, counters, and the derived ratios."""
        self_s = self._self_times()
        out: dict[str, float] = {}
        for i, qualname in enumerate(self.names):
            out[f"{qualname}.calls"] = self.calls[i]
            out[f"{qualname}.self_s"] = float(self_s[i])
            out[f"{qualname}.calls_per_query"] = self.calls[i] / n_queries
        for key in list(COUNTERS.values()) + [(v, None) for v in ITEM_COUNTERS.values()]:
            out[key[0]] = self.counters.get(key[0], 0)
        hits = out["kernels.scan_combinations.hits"]
        rows = out["kernels.masks_arithmetic_ok.rows"]
        out["kernels.masks_arithmetic_ok.rows_per_hit"] = rows / hits if hits else 0.0
        out["trace.spans"] = len(self.span_start)
        return out

    def write(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.span_name, dtype=np.int32),
            parent=np.array(self.span_parent, dtype=np.int32),
            start=np.array(self.span_start),
            end=np.array(self.span_end),
        )
