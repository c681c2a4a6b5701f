"""Span tracer that measures rwsurf's layers from outside the package.

``Tracer.install`` replaces every public function of the rwsurf modules, in
every module namespace that holds it (``inner`` lives in ``linalg`` and was
imported by ``ambient``, ``immersion``, ``shape`` and ``verdicts``), with a
wrapper that records a span.  Public methods, ``__call__`` and the
``__init__`` of classes that are not dataclasses are patched on their class.
``uninstall`` puts every original back.

Spans are aggregated per name in memory: calls, busy time (inclusive time of
the outermost active call of that name) and self time (duration minus the
time covered by child spans).  The outermost spans and their direct
children are also kept with start, end and parent and written out by
``dump``.  Closures the program builds internally (catalog
jet evaluators, ODE right-hand sides, monitors) are not public names: their
time is charged to the span that calls them.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

MODULES = ("linalg", "ambient", "immersion", "shape", "verdicts", "solvers",
           "catalog", "cli")


def _rk_hook(tracer, args, result):
    tracer.counters["steps_accepted"] += result.n_accepted
    tracer.counters["steps_rejected"] += result.n_rejected


def _grid_hook(tracer, args, result):
    grid = args[0]
    tracer.counters["report_nodes"] += grid.nu * grid.nv
    tracer.counters["nodes_ok"] += grid.n_ok
    tracer.counters["degenerate_nodes"] += len(grid.degeneracies)


def _verify_hook(tracer, args, result):
    tracer.counters["certificates"] += 1
    tracer.counters["entries_failed"] += sum(not e.passed for e in result.entries)


def _scan_hook(tracer, args, result):
    tracer.counters["scan_nodes"] += result.residuals.size


def _fd_surface_hook(tracer, args, result):
    tracer.fd_surfaces[id(result)] = result


def _jet_hook(tracer, args, result):
    if id(args[0]) in tracer.fd_surfaces:
        tracer.counters["fd_jets"] += 1


# Counters read off a call's arguments or result, by span name.
HOOKS = {
    "solvers.rk_integrate": _rk_hook,
    "shape.SurfaceGrid.__init__": _grid_hook,
    "verdicts.verify_surface": _verify_hook,
    "catalog.nonexistence_scan_e11h4": _scan_hook,
    "catalog.nonexistence_slice_scan": _scan_hook,
    "immersion.finite_difference_jet": _fd_surface_hook,
    "immersion.Jet2Immersion.jet": _jet_hook,
}

# The chart a user hands to finite_difference_jet is wrapped in a span of its
# own, so calls into the benchmark's chart function are counted where the
# program receives it; jets of the surfaces it returns are counted apart.
FD_CHART = "bench.fd_chart"
_FD_ENTRY = "immersion.finite_difference_jet"

# The span log keeps the outermost spans and their direct children, up to
# this many rows; everything below is in the per-name aggregates only.
LOG_DEPTH = 1
LOG_CAP = 20_000


def public_targets(package):
    """(span name, defining object, attribute, original) for every public
    function and method of the rwsurf modules."""
    for modname in MODULES:
        mod = importlib.import_module(f"{package.__name__}.{modname}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{modname}.{name}", mod, name, obj
            elif inspect.isclass(obj):
                for attr, val in vars(obj).items():
                    if not inspect.isfunction(val):
                        continue
                    special = attr == "__call__" or (
                        attr == "__init__" and not dataclasses.is_dataclass(obj))
                    if attr.startswith("_") and not special:
                        continue
                    yield f"{modname}.{obj.__name__}.{attr}", obj, attr, val


def _package_modules(package):
    prefix = package.__name__
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))]


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.busy: list[float] = []
        self.self_s: list[float] = []
        self._active: list[int] = []
        self.counters: Counter = Counter()
        self.fd_surfaces: dict[int, object] = {}  # kept alive so ids stay unique
        # child-time accumulator per open span; the bottom entry collects
        # the outermost spans
        self._child: list[float] = [0.0]
        self._open: list[int] = [-1]  # span-log index per open span
        self.log_name = array.array("i")
        self.log_parent = array.array("i")
        self.log_t0 = array.array("d")
        self.log_t1 = array.array("d")
        self.log_dropped = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def span_id(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.busy.append(0.0)
            self.self_s.append(0.0)
            self._active.append(0)
        return sid

    def _enter(self, sid: int) -> float:
        self.calls[sid] += 1
        self._active[sid] += 1
        idx = -1
        if len(self._child) <= LOG_DEPTH + 1:
            if len(self.log_name) < LOG_CAP:
                idx = len(self.log_name)
                self.log_name.append(sid)
                self.log_parent.append(self._open[-1])
                self.log_t0.append(0.0)
                self.log_t1.append(0.0)
            else:
                self.log_dropped += 1
        self._open.append(idx)
        self._child.append(0.0)
        t0 = time.perf_counter()
        if idx >= 0:
            self.log_t0[idx] = t0
        return t0

    def _exit(self, sid: int, t0: float):
        t1 = time.perf_counter()
        dt = t1 - t0
        child = self._child.pop()
        self._child[-1] += dt
        self.self_s[sid] += dt - child
        self._active[sid] -= 1
        if not self._active[sid]:
            self.busy[sid] += dt
        idx = self._open.pop()
        if idx >= 0:
            self.log_t1[idx] = t1

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (one per workload item)."""
        sid = self.span_id(name)
        t0 = self._enter(sid)
        try:
            yield
        finally:
            self._exit(sid, t0)

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` wrapped in a span called ``name``."""
        sid = self.span_id(name)
        enter, exit_ = self._enter, self._exit
        prepare = self._fd_prepare if name == _FD_ENTRY else None

        def wrapper(*args, **kwargs):
            if prepare is not None:
                args = prepare(args)
            t0 = enter(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(sid, t0)
            if hook is not None:
                hook(self, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _fd_prepare(self, args):
        return (self.wrap(FD_CHART, args[0]),) + tuple(args[1:])

    # -- reading ---------------------------------------------------------------

    def stat(self, name: str, field: str = "calls"):
        sid = self._ids.get(name)
        if sid is None:
            return 0
        return {"calls": self.calls, "busy": self.busy,
                "self": self.self_s}[field][sid]

    def count_snapshot(self) -> dict:
        """Every count this pass recorded: span calls and hook counters."""
        out = {f"{n}.calls": c for n, c in zip(self.names, self.calls) if c}
        out.update(self.counters)
        return out

    # -- patching ------------------------------------------------------------

    def install(self, package) -> "Tracer":
        """Patch every public rwsurf function and method."""
        targets = list(public_targets(package))  # imports every module first
        modules = _package_modules(package)
        for name, owner, attr, original in targets:
            wrapper = self.wrap(name, original, HOOKS.get(name))
            if inspect.isclass(owner):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                if vars(mod).get(attr) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def not_restored(self) -> list[str]:
        """Patched attributes that do not hold their original any more."""
        return [f"{owner.__name__}.{attr}" for owner, attr, original in self._patches
                if vars(owner).get(attr) is not original]

    # -- output ----------------------------------------------------------------

    def dump(self, path):
        """Write the aggregated spans and the coarse span log as JSON."""
        spans = [{"name": n, "calls": c, "busy_s": b, "self_s": s}
                 for n, c, b, s in zip(self.names, self.calls, self.busy,
                                       self.self_s) if c]
        base = self.log_t0[0] if self.log_t0 else 0.0
        log = [[self.log_name[i], self.log_parent[i],
                round(self.log_t0[i] - base, 9), round(self.log_t1[i] - base, 9)]
               for i in range(len(self.log_name))]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": spans,
                       "counters": dict(self.counters),
                       "log_fields": ["name", "parent", "start_s", "end_s"],
                       "log": log, "log_dropped": self.log_dropped}, fh)
