"""Outside-in tracing of the synthweave package.

Wrappers are installed from here, around public functions of the package's
modules, without any change to the package itself.  Each call records a span
(name, start, end, parent, operation id, and the ``ru_maxrss`` high-water
mark at both ends).  Spans stay in memory and are written out by the caller
when the benchmark ends.  A wrapper target that no longer exists is recorded
as absent instead of failing, and so is a counter that no longer fits the
call it counts, so the trace survives refactors of the package.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

PACKAGE = "synthweave"


def maxrss_kib() -> int:
    """High-water mark of this process's resident set, in KiB (Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float
    rss0_kib: int
    rss1_kib: int


@dataclass
class Usage:
    """What one span name did within one operation."""

    self_s: float = 0.0
    total_s: float = 0.0
    calls: int = 0
    rss_growth_kib: int = 0


def span_name(target: str) -> str:
    """``design.Design.matrix`` -> ``design.matrix``: module, then function."""
    parts = target.split(".")
    return f"{parts[0]}.{parts[-1]}"


class Tracer:
    """Wraps ``targets`` (``module.function`` or ``module.Class.method``).

    ``targets`` maps each target to an optional counter, called after the
    wrapped call returns as ``counter(arguments, result)`` and returning
    ``{metric: amount}`` to add to the current operation's counts.
    """

    def __init__(self, targets: dict):
        self.targets = targets
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.absent: list[str] = []
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def _resolve(self, target: str):
        """(class or None, function) of a target, or (None, None) if it is gone."""
        module_name, *path = target.split(".")
        try:
            obj = importlib.import_module(f"{PACKAGE}.{module_name}")
        except ImportError:
            return None, None
        for attr in path:
            owner, obj = obj, getattr(obj, attr, None)
            if obj is None:
                return None, None
        return (owner if len(path) > 1 else None), obj

    def _holders(self, fn, cls, attr):
        """Every (namespace, name) through which the package reaches ``fn``."""
        if cls is not None:
            return [(cls, attr)]
        holders = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for name, value in list(vars(mod).items()):
                if value is fn:
                    holders.append((mod, name))
        return holders

    def install(self) -> None:
        for target, counter in self.targets.items():
            cls, fn = self._resolve(target)
            if fn is None or not callable(fn):
                if target not in self.absent:
                    self.absent.append(target)
                continue
            wrapper = self._wrap(span_name(target), fn, counter)
            for holder, name in self._holders(fn, cls, target.split(".")[-1]):
                self._patches.append((holder, name, fn))
                setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            holder, name, fn = self._patches.pop()
            setattr(holder, name, fn)

    def _wrap(self, name: str, fn, counter):
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), name, self.op, parent, time.perf_counter(), 0.0,
                        maxrss_kib(), 0)
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.rss1_kib = maxrss_kib()
                self._stack.pop()
            if counter is not None:
                try:
                    found = counter(signature.bind(*args, **kwargs).arguments, result)
                except (AttributeError, KeyError, TypeError, IndexError):
                    # the call's arguments or result changed shape: count nothing
                    if f"{name} counts" not in self.absent:
                        self.absent.append(f"{name} counts")
                else:
                    counts = self.counts[self.op]
                    for metric, amount in found.items():
                        counts[metric] += amount
            return result

        return wrapper

    # -- reading ----------------------------------------------------------

    def usage(self, op: int) -> dict[str, Usage]:
        """Per span name: self and total seconds, calls and self RSS growth.

        Self time is a span's duration minus the part its child spans cover;
        self RSS growth is the rise of the high-water mark likewise.
        """
        spans = [s for s in self.spans if s.op == op]
        child_s: dict[int, float] = defaultdict(float)
        child_rss: dict[int, int] = defaultdict(int)
        for s in spans:
            if s.parent is not None:
                child_s[s.parent] += s.end - s.start
                child_rss[s.parent] += s.rss1_kib - s.rss0_kib
        out: dict[str, Usage] = defaultdict(Usage)
        for s in spans:
            u = out[s.name]
            u.calls += 1
            u.total_s += s.end - s.start
            u.self_s += (s.end - s.start) - child_s[s.id]
            u.rss_growth_kib += (s.rss1_kib - s.rss0_kib) - child_rss[s.id]
        return dict(out)

    def dump(self) -> dict:
        return {
            "absent": list(self.absent),
            "spans": [asdict(s) for s in self.spans],
            "counts": {str(op): dict(c) for op, c in self.counts.items()},
        }
