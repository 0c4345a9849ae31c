"""Span tracing of gencorr's public functions, installed from outside the package.

Tracer.install() replaces every public function of the layer modules at every
module binding that holds it (e.g. `partial_trace` in linalg, entropy,
genuine_correlations, experiments and the package namespace), wraps
`DensityMatrix.__init__` once, and wraps `scipy.optimize.minimize` as a
counter of search starts, evaluations and eval-cap hits.  uninstall() puts
the originals back, so traced and untraced passes can alternate in one
process.  Spans (name, start, end, parent, item) stay in memory until
write() dumps them.
"""

from __future__ import annotations

import sys
import time
import types
from array import array
from collections import defaultdict

import numpy as np
import scipy.optimize

LAYERS = (
    "channels",
    "linalg",
    "entropy",
    "classical_search",
    "genuine_correlations",
    "states",
    "experiments",
)


class Tracer:
    """In-memory span recorder for the gencorr layer modules."""

    def __init__(self, item_marker: str | None = None) -> None:
        # a span with this name starts a new item (e.g. one sweep row)
        self.item_marker = item_marker
        self.item = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.item_of = array("i")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.starts = 0
        self.evals = 0
        self.cap_hits = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        import gencorr  # noqa: F401  (loads every layer module)
        from gencorr.linalg import DensityMatrix

        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"gencorr.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "gencorr" or name.startswith("gencorr.")):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)
        self._patch(DensityMatrix, "__init__", self._wrap("linalg.DensityMatrix", DensityMatrix.__init__))
        self._patch(scipy.optimize, "minimize", self._count_minimize(scipy.optimize.minimize))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        starts_item = name == self.item_marker
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            if starts_item:
                self.item += 1
            idx = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.item_of.append(self.item)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _count_minimize(self, minimize):
        def counted(fun, x0, *args, **kwargs):
            res = minimize(fun, x0, *args, **kwargs)
            cap = (kwargs.get("options") or {}).get("maxfev")
            self.starts += 1
            self.evals += int(res.nfev)
            if cap is not None and res.nfev >= cap:
                self.cap_hits += 1
            return res

        return counted

    # -- summaries ----------------------------------------------------------

    def durations_ns(self) -> np.ndarray:
        return np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)

    def self_ns(self) -> np.ndarray:
        """Span duration minus the part covered by its direct children."""
        dur = self.durations_ns()
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        return dur - covered

    def by_name(self) -> dict[str, dict[str, float]]:
        """calls, p50 duration (us) and total self time (s) per span name."""
        dur = self.durations_ns()
        own = self.self_ns()
        names = np.frombuffer(self.name_of, dtype=np.int32)
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "us_p50": 0.0, "self_s": 0.0})
        for name_id, name in enumerate(self.names):
            sel = names == name_id
            calls = int(sel.sum())
            if calls:
                out[name] = {
                    "calls": calls,
                    "us_p50": float(np.median(dur[sel])) / 1e3,
                    "self_s": float(own[sel].sum()) / 1e9,
                }
        return out

    def layer_self_s(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, stats in self.by_name().items():
            totals[name.split(".", 1)[0]] += stats["self_s"]
        return totals

    def write(self, path) -> None:
        """One header line of span names, then `name start_ns end_ns parent item` rows."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# " + " ".join(self.names) + "\n")
            for row in zip(self.name_of, self.start, self.end, self.parent, self.item_of):
                fh.write("%d %d %d %d %d\n" % row)
