"""Span recording around the program's public functions, from outside.

A :class:`Tracer` replaces each target -- a module-level function or a
class attribute, at the place its callers look it up -- with a wrapper
that records a span: name, start, end, parent span and request id.
Spans stay in memory and are written once, at the end of the run.

Async targets also record *busy* time: the time the coroutine itself
ran, excluding time it spent suspended (for example, ``read_request``
waiting for the next request on an idle keep-alive connection).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import json
import time
import types
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "rid", "busy")

    def __init__(self, name, parent, rid):
        self.name = name
        self.parent = parent
        self.rid = rid
        self.start = 0.0
        self.end = 0.0
        self.busy = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Target:
    """One function to wrap: ``module:qualname`` recorded as ``name``.

    ``after(result)`` runs on the wrapped call's return value.
    """

    def __init__(self, module: str, qualname: str, name: str,
                 after: Optional[Callable] = None):
        self.module = module
        self.qualname = qualname
        self.name = name
        self.after = after


def _request_id(args, kwargs):
    rid = kwargs.get("request_id")
    if rid is not None:
        return rid
    for arg in args[:2]:
        if isinstance(arg, dict) and "request_id" in arg:
            return arg["request_id"]
    return None


@types.coroutine
def _drive(coro, span: Span):
    """Run ``coro`` to completion, adding its running time to span.busy."""
    value, error = None, None
    while True:
        start = time.perf_counter()
        try:
            yielded = coro.throw(error) if error is not None \
                else coro.send(value)
        except StopIteration as stop:
            span.busy += time.perf_counter() - start
            return stop.value
        except BaseException:
            span.busy += time.perf_counter() - start
            raise
        span.busy += time.perf_counter() - start
        try:
            value, error = (yield yielded), None
        except GeneratorExit:
            coro.close()
            raise
        except BaseException as exc:  # delivered into coro on resume
            value, error = None, exc


class Tracer:
    """Installs and removes span-recording wrappers around targets."""

    def __init__(self, targets: Sequence[Target]):
        self.targets = list(targets)
        self.spans: List[Span] = []
        self._saved: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _open(self, name: str, rid) -> Span:
        parent = _CURRENT.get()
        if rid is None and parent is not None:
            rid = parent.rid
        span = Span(name, parent, rid)
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str, rid=None):
        """A span owned by the benchmark itself (e.g. one operation)."""
        span = self._open(name, rid)
        token = _CURRENT.set(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            _CURRENT.reset(token)

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        tracer, name, after = self, target.name, target.after
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                span = tracer._open(name, _request_id(args, kwargs))
                span.busy = 0.0
                token = _CURRENT.set(span)
                span.start = time.perf_counter()
                try:
                    result = await _drive(fn(*args, **kwargs), span)
                finally:
                    span.end = time.perf_counter()
                    _CURRENT.reset(token)
                if after is not None:
                    after(result)
                return result
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name, _request_id(args, kwargs))
            token = _CURRENT.set(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                _CURRENT.reset(token)
            if after is not None:
                after(result)
            return result
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            owner = importlib.import_module(target.module)
            *path, attr = target.qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, target))
            elif isinstance(original, staticmethod):
                wrapped = staticmethod(self._wrap(original.__func__, target))
            else:
                wrapped = self._wrap(original, target)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self) -> Dict[int, List[Span]]:
        kids: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                kids.setdefault(id(span.parent), []).append(span)
        return kids

    def write(self, path: str) -> None:
        ids = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            for i, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": (
                        ids.get(id(span.parent))
                        if span.parent is not None else None
                    ),
                    "rid": span.rid,
                    "busy": span.busy,
                }) + "\n")


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_time(span: Span, kids: Dict[int, List[Span]]) -> float:
    """Duration minus the part of it that child spans cover."""
    inner = [
        (max(c.start, span.start), min(c.end, span.end))
        for c in kids.get(id(span), ())
    ]
    return span.duration - covered(i for i in inner if i[1] > i[0])
