"""Spans around the public calls of each pulsespec layer, recorded from outside.

``Tracer.install`` finds each layer's public function and rebinds every
reference to it inside the loaded ``pulsespec`` modules to a wrapper that
records a span (name, start, end, parent, op) in memory; ``uninstall`` puts
the originals back. Nothing in the package itself changes. A function that
no longer exists is reported as absent and its span is simply never seen.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

#: span name -> (module, attribute path) of the public call it wraps
LAYERS = {
    "sequences.schedule": ("pulsespec.cli", "RunConfig.build_schedule"),
    "core.params": ("pulsespec.cli", "RunConfig.build_params"),
    "dynamics.trajectory": ("pulsespec.dynamics", "density_trajectory"),
    "correlations.kernel": ("pulsespec.correlations", "accumulate_kernel"),
    "spectra.transform": ("pulsespec.spectra", "spectrum_from_kernel"),
    "spectra.sum_rule": ("pulsespec.spectra", "emission_sum_rule"),
    "spectra.average": ("pulsespec.spectra", "detuning_average"),
}
ROOT_SPAN = "cli.main"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def _lookup(module: str, path: str):
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None, None
    owner = None
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part, None)
        if obj is None:
            return None, None
    return owner, obj


class Tracer:
    """Records spans and the values the wrapped calls saw and returned."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.calls: list[tuple[str, tuple, object]] = []  # (name, args, result) of the current op
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter() - self._t0
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter() - self._t0
            self._stack.pop()
            self.spans[idx] = Span(name, start, end, parent, self.op)
        self.calls.append((name, args, result))
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        self.absent = []
        for name, (module, path) in LAYERS.items():
            owner, fn = _lookup(module, path)
            if fn is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn)
            if isinstance(owner, type):
                self._rebind(owner, path.rsplit(".", 1)[1], wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "pulsespec":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, attr, wrapper)

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def op_times(self, op: int) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name within one op.

        A span's self time is its duration minus that of its direct children.
        """
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s.op != op:
                continue
            total[s.name] += s.duration
            self_time[s.name] += s.duration
            if s.parent >= 0:
                self_time[self.spans[s.parent].name] -= s.duration
        return total, self_time

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op} for s in self.spans]
