"""Span tracing from outside the program under test.

A :class:`Tracer` replaces chosen public functions of ``repro`` with
wrappers that record one span per call: name, start, end, parent span
and run id. Nothing under ``src/`` changes; :meth:`Tracer.uninstall`
puts every original back. Spans live in memory until the run ends and
are then written as JSON lines.

A span's self time is its duration minus the part of that interval its
child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    #: False when a span of the same name encloses this one (recursion);
    #: only outermost spans add to a name's total time.
    outermost: bool = True

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping
    children (spans from worker threads) are counted once.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = span.duration - covered
    return result


def summarize(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, total time ``s`` and ``self_s``."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own[span.id]
        if span.outermost:
            entry["s"] += span.duration
    return totals


#: Observer: called with (positional args, result) after each call.
Observer = Callable[[tuple, Any], None]


class Tracer:
    """Records spans for every call of the functions it wraps."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._origin = time.perf_counter()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self, name: str, fn: Callable, observe: Optional[Observer] = None
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            span = Span(
                id=span_id,
                name=name,
                start=0.0,
                end=0.0,
                parent=stack[-1].id if stack else None,
                outermost=all(open_span.name != name for open_span in stack),
            )
            stack.append(span)
            span.start = time.perf_counter() - tracer._origin
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter() - tracer._origin
                stack.pop()
                with tracer._lock:
                    tracer.spans.append(span)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # ------------------------------------------------------------- patching
    def install(self, targets: Iterable["Target"]) -> "Tracer":
        for target in targets:
            owner, attr, original = target.resolve()
            raw = owner.__dict__[attr] if isinstance(owner, type) else original
            if isinstance(raw, classmethod):
                patched: Any = classmethod(
                    self.wrap(target.name, raw.__func__, target.observe)
                )
            else:
                patched = self.wrap(target.name, raw, target.observe)
            self._patch(owner, attr, raw, patched)
            if not isinstance(owner, type):
                # A module-level function is also reachable through every
                # ``from module import name`` binding made at import time.
                for module in list(sys.modules.values()):
                    if module is owner or not _is_program_module(module):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, value, patched)
        return self

    def _patch(self, owner: Any, attr: str, original: Any, patched: Any) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --------------------------------------------------------------- output
    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.id):
                handle.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": span.id,
                            "name": span.name,
                            "start": round(span.start, 9),
                            "end": round(span.end, 9),
                            "parent": span.parent,
                        }
                    )
                    + "\n"
                )


def _is_program_module(module: Any) -> bool:
    name = getattr(module, "__name__", "") or ""
    return name == "repro" or name.startswith("repro.")


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module:Qual.name`` plus its span name."""

    name: str
    path: str
    observe: Optional[Observer] = None

    def resolve(self) -> Tuple[Any, str, Any]:
        module_name, _, qualname = self.path.partition(":")
        owner: Any = importlib.import_module(module_name)
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1], getattr(owner, parts[-1])
