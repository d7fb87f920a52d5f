"""In-memory span tracer that wraps twrelay's public functions from outside.

Every public function defined in one of the layer modules is replaced, at
every module-level name through which the layers call it, by a wrapper
that records one span: (span id, parent span id, trace id, function key,
call site, start ns, end ns). The function key is ``<defining module>.<name>``
and decides the layer a span's self time is charged to; the call site is
``<calling module>.<name>``, e.g. ``relay_opt.inverse_waterfill`` is the
water-fill kernel called from the relay optimizer. Counts that need the
arguments or the result (array sizes, step paths, exceptions) are taken in
the same wrapper. The benchmark opens one ``bench.instance`` root span per
instance, so spans of one instance share its id as their trace id.

Wrappers exist only between ``install`` and ``uninstall``; nothing under
``src/`` is modified.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("waterfill", "channel", "ma_phase", "relay_opt", "oracle", "sim_cli")
ROOT_KEY = "bench.instance"


def _waterfill_elements(args) -> int:
    """Levels (or budgets / targets) times gains evaluated by one kernel call."""
    if len(args) < 2:
        return 0
    return int(np.size(args[0]) * np.size(args[1]))


class Tracer:
    """Collects spans and boundary counts for one traced phase."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, int]] = [(0, 0)]  # (span id, trace id)
        self._next_id = 1
        self._installed: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    def _record(self, key, site, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent, trace = self._stack[-1]
        self._stack.append((sid, trace or sid))
        exc_name = None
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            exc_name = type(exc).__name__
            raise
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, trace or sid, key, site, t0, t1, exc_name))
            if exc_name is not None:
                self.counts[f"raised.{key}.{exc_name}"] += 1
        self._observe(key, args, result)
        return result

    def _observe(self, key, args, result) -> None:
        layer = key.split(".", 1)[0]
        if layer == "waterfill":
            self.counts["waterfill.elements"] += _waterfill_elements(args)
        elif key == "relay_opt.optimize":
            self.counts["relay_opt.path." + "-".join(map(str, result.step_trace))] += 1
        elif key == "sim_cli.run_asymmetry_study":
            self.counts["sim_cli.records"] += len(result[0])

    def instance(self, fn, *args):
        """Run one benchmark instance under a root span."""
        return self._record(ROOT_KEY, ROOT_KEY, fn, args, {})

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, fn, key: str, site: str):
        record = self._record

        def traced(*args, **kwargs):
            return record(key, site, fn, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self, package: str, modules: dict) -> None:
        """Wrap public layer functions at every binding in the layer modules."""
        prefix = package + "."
        for site_layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(prefix):
                    continue
                def_layer = obj.__module__[len(prefix):]
                if def_layer not in LAYERS:
                    continue
                key = f"{def_layer}.{obj.__name__}"
                wrapped = self._wrap(obj, key, f"{site_layer}.{name}")
                self._installed.append((module, name, obj))
                setattr(module, name, wrapped)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._installed):
            setattr(module, name, original)
        self._installed.clear()

    # -- analysis ---------------------------------------------------------
    def self_times_ns(self) -> dict[int, int]:
        """Self time per span id: duration minus the children's durations.

        Children of one span never overlap (single thread, nested calls), so
        subtracting their durations subtracts exactly the covered interval.
        """
        own = {sid: t1 - t0 for sid, _, _, _, _, t0, t1, _ in self.spans}
        for sid, parent, _, _, _, t0, t1, _ in self.spans:
            if parent:
                own[parent] -= t1 - t0
        return own

    def dump(self, path: Path) -> None:
        """Write spans as JSON lines: id, parent, trace, key, site, t0_ns, t1_ns, raised."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in sorted(self.spans, key=lambda s: s[0]):
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
