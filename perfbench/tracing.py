"""Spans recorded from outside the program.

The tracer swaps module attributes of the ``rmd`` package for timing
wrappers while a traced pass runs and puts the originals back afterwards.
Each span records its name, start, end, parent span and request id.  A
wrapped name the package no longer has is skipped and listed in
``Tracer.missing``, so the layer metrics built on it read as absent instead
of the benchmark crashing.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable

# (module, attribute, span name, optional info(args, kwargs, result) -> dict)
Wrap = tuple[str, str, str, "Callable | None"]


@dataclass
class Span:
    name: str
    parent: int | None
    request: int | None
    start: float
    end: float
    info: dict | None = None


@dataclass
class Tracer:
    wraps: list[Wrap]
    spans: list[Span] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    request: int | None = None
    _stack: list[int] = field(default_factory=list)

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None, self.request,
                    time.perf_counter(), 0.0)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _call(self, name: str, fn: Callable, info: Callable | None, args, kwargs):
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        if info is not None:
            span.info = _safe_info(info, args, kwargs, result)
        return result

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrapped(self, name: str, fn: Callable, info: Callable | None = None) -> Callable:
        def wrapper(*args, **kwargs):
            return self._call(name, fn, info, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Replace each listed module attribute by a traced wrapper."""
        saved = []
        try:
            for module_name, attr, name, info in self.wraps:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if not callable(fn):
                    qual = f"{module_name}.{attr}"
                    if qual not in self.missing:
                        self.missing.append(qual)
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrapped(name, fn, info))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def _safe_info(info: Callable, args, kwargs, result) -> dict | None:
    # The info readers look inside the program's types; a later refactor may
    # rename what they read, which must cost that metric, not the run.
    try:
        return info(args, kwargs, result)
    except (AttributeError, TypeError, ValueError, IndexError, KeyError, OSError):
        return None


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def write_spans(spans: list[Span], path) -> None:
    """Gzipped, one tab-separated line per span: id, parent, name, request,
    start, end, info."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("id\tparent\tname\trequest\tstart_s\tend_s\tinfo\n")
        for i, s in enumerate(spans):
            fh.write(f"{i}\t{'' if s.parent is None else s.parent}\t{s.name}\t"
                     f"{'' if s.request is None else s.request}\t{s.start!r}\t{s.end!r}\t"
                     f"{'' if s.info is None else json.dumps(s.info)}\n")
