"""In-memory span tracer that times a layer by wrapping its public calls.

The benchmark never edits the program: a traced run replaces a public
method or module function with a wrapper that records one span per call
(name, start, end, parent span) and restores the original afterwards.
Spans stay in memory until the run ends; :meth:`Tracer.summary` then
derives per-name call counts, total time and self time, where self time
is a span's duration minus the part of it that child spans cover.

Each ``(owner, attribute)`` pair is wrapped at most once.  Objects such as
the astraea ``PolicyBundle`` are shared by every controller of a
scenario, so wrapping per controller would nest the wrapper inside itself
and count each ``act`` call once per controller.  Wrapping the class
attribute once avoids that, and :meth:`Tracer.wrap` refuses a second
wrap of the same attribute.
"""

from __future__ import annotations

import json
import time
from pathlib import Path


class Tracer:
    """Record nested spans around wrapped calls; restore on :meth:`close`."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.counters: dict[str, float] = {}
        #: Objects kept by ``on_call`` hooks for reading after the run.
        self.captured: dict[str, list] = {}

    # -- recording -----------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(index)
        self.starts.append(self._clock())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = self._clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {self.names[index]!r} closed out of order "
                f"(innermost open span is {self.names[popped]!r})")

    def span(self, name: str) -> "_SpanContext":
        """Context manager recording one span around a block."""
        return _SpanContext(self, name)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def capture(self, name: str, obj) -> None:
        self.captured.setdefault(name, []).append(obj)

    def wrap(self, owner, attr: str, name: str, on_call=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``on_call(tracer, args, kwargs)`` runs before each call and may
        record counters.  Wrapping an attribute that is already wrapped
        raises, which is how a double wrap of a shared object shows.
        """
        original = getattr(owner, attr)
        if getattr(original, "_perfbench_span", None) is not None:
            raise RuntimeError(f"{owner!r}.{attr} is already traced")
        tracer = self

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(tracer, args, kwargs)
            index = tracer.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(index)

        wrapper._perfbench_span = name
        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        # A class keeps its raw descriptor (or inherits the attribute);
        # a module keeps the plain function.
        saved = owner.__dict__.get(attr, _INHERITED) \
            if isinstance(owner, type) else original
        self._patched.append((owner, attr, saved))
        setattr(owner, attr, wrapper)

    def close(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patched:
            owner, attr, saved = self._patched.pop()
            if saved is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    # -- analysis ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children: dict[int, list[int]] = {}
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                children.setdefault(parent, []).append(index)
        out = []
        for index, start in enumerate(self.starts):
            end = self.ends[index]
            covered = 0.0
            cursor = start
            for child in sorted(children.get(index, ()),
                                key=self.starts.__getitem__):
                lo = max(self.starts[child], cursor)
                hi = min(self.ends[child], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append((end - start) - covered)
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """``{name: {"calls", "total_s", "self_s"}}`` over closed spans."""
        selfs = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for index, name in enumerate(self.names):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += self.ends[index] - self.starts[index]
            entry["self_s"] += selfs[index]
        return out

    def inside(self, name: str, ancestor: str) -> float:
        """Total time of ``name`` spans that have an ``ancestor`` span."""
        total = 0.0
        for index, span_name in enumerate(self.names):
            if span_name != name:
                continue
            parent = self.parents[index]
            while parent >= 0 and self.names[parent] != ancestor:
                parent = self.parents[parent]
            if parent >= 0:
                total += self.ends[index] - self.starts[index]
        return total

    def write(self, path: Path, extra: dict | None = None) -> Path:
        """Write the raw spans and counters as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans": {"name": self.names, "start": self.starts,
                      "end": self.ends, "parent": self.parents},
            "counters": self.counters,
            **(extra or {}),
        }
        path.write_text(json.dumps(doc))
        return path


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name
        self._index = -1

    def __enter__(self):
        self._index = self._tracer.begin(self._name)
        return self

    def __exit__(self, *exc) -> None:
        self._tracer.end(self._index)


_INHERITED = object()
