"""Span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own files only: :func:`install`
replaces each layer function listed in :data:`LAYERS` with a wrapper that
opens a span around the call, and :func:`uninstall` puts the originals back.
Nothing under ``src/`` is edited.

A span is ``(name, start, end, parent, request)``.  ``parent`` is the
enclosing span on the same thread (-1 for a root); ``request`` is inherited
from the parent, and a root takes the tracer's current request id.  Spans
stay in per-thread in-memory arrays until :meth:`Tracer.dump` writes them
out.  All times come from ``time.perf_counter`` (``CLOCK_MONOTONIC`` on
Linux), so spans written by a server process line up with the client's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Callable


def _mvindex_counts(args: tuple, result: Any) -> dict[str, int]:
    index = args[0]
    return {"components": index.component_count(), "obdd_nodes": index.size}


def _skip_counts(args: tuple, result: Any) -> dict[str, int]:
    store = args[0]
    return {"relevant": result.relevant_count, "total": len(store)}


#: ``(layer, module, owner, attribute, span name, attrs hook)``.  ``owner`` is
#: a class name inside ``module`` or ``None`` for a module-level name.  Each
#: function is wrapped under the name its caller looks it up by: a
#: ``from ... import`` binds its own copy in the importing module, and
#: ``MvIndexMethod._intersect`` binds ``cc_mv_intersect`` when the class is
#: created.
LAYERS: tuple[tuple[str, str, str | None, str, str, Callable | None], ...] = (
    ("dblp", "repro.dblp.workload", None, "generate_dblp", "dblp.generate", None),
    ("core.translate", "repro.core.engine", None, "translate", "translate", None),
    ("mvindex.index", "repro.mvindex.index", "MVIndex", "__init__", "mvindex.compile",
     _mvindex_counts),
    ("serving.server", "repro.serving.server", "_Handler", "_handle_query",
     "server.handle_query", None),
    ("serving.dispatch", "repro.serving.dispatch", "Dispatcher", "execute",
     "dispatch.execute", None),
    ("serving.dispatch", "repro.serving.dispatch", "Dispatcher", "submit",
     "dispatch.submit", None),
    ("serving.dispatch", "repro.serving.dispatch", "Dispatcher", "append_facts",
     "dispatch.append", None),
    ("serving.session", "repro.serving.session", "QuerySession", "execute",
     "session.execute", None),
    ("serving.session", "repro.serving.session", "QuerySession", "warm", "session.warm", None),
    ("query.parser", "repro.client", None, "parse_query", "parse", None),
    ("query.parser", "repro.serving.dispatch", None, "parse_query", "parse", None),
    ("serving.canonical", "repro.serving.session", None, "canonical_key", "canonical", None),
    ("serving.canonical", "repro.serving.session", None, "canonical_cq_key", "canonical", None),
    ("serving.canonical", "repro.serving.dispatch", None, "canonical_key", "canonical", None),
    ("query.evaluator", "repro.serving.session", None, "evaluate_cq", "relational", None),
    ("query.evaluator", "repro.query.evaluator", None, "evaluate_cq", "relational", None),
    ("mvindex.summaries", "repro.mvindex.summaries", "SummaryStore", "analyze", "skip",
     _skip_counts),
    ("mvindex.intersect", "repro.mvindex.cc_intersect", None, "compile_query_obdd", "qobdd",
     None),
    ("mvindex.intersect", "repro.mvindex.intersect", None, "compile_query_obdd", "qobdd", None),
    ("mvindex.cc_intersect", "repro.methods", "MvIndexMethod", "_intersect", "intersect", None),
    ("methods", "repro.methods", "_IntersectMethod", "probability", "method", None),
    ("methods", "repro.mvindex.index", "MVIndex", "touched_factor", "fold", None),
    ("methods", "repro.mvindex.index", "MVIndex", "touched_factor_of", "fold", None),
    ("core.engine", "repro.core.engine", "MVQueryEngine", "prepare_append", "append.prepare",
     None),
    ("core.engine", "repro.core.engine", "MVQueryEngine", "apply_pending", "append.apply", None),
)

#: Span name -> the layer (module) it measures, for the coverage check.
LAYER_OF = {span: layer for layer, __, __, __, span, __ in LAYERS}


class _ThreadSpans:
    """One thread's spans: flat arrays, appended without a lock."""

    def __init__(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.attrs: dict[int, dict[str, Any]] = {}
        self.stack: list[int] = []


class Tracer:
    """In-memory span store; each thread appends to its own buffer."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: Request id given to root spans; the in-process client sets it per
        #: query, and a server leaves it at 0 (joined to requests by time).
        self.current_request = 0
        self._threads: list[_ThreadSpans] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def _buffer(self) -> _ThreadSpans:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = self._local.buffer = _ThreadSpans()
            with self._lock:
                self._threads.append(buffer)
        return buffer

    def open(self, name_id: int) -> tuple[_ThreadSpans, int]:
        buffer = self._buffer()
        stack = buffer.stack
        index = len(buffer.start)
        parent = stack[-1] if stack else -1
        buffer.name.append(name_id)
        buffer.parent.append(parent)
        buffer.request.append(buffer.request[parent] if parent >= 0 else self.current_request)
        buffer.end.append(0.0)
        stack.append(index)
        buffer.start.append(time.perf_counter())
        return buffer, index

    @staticmethod
    def close(buffer: _ThreadSpans, index: int) -> None:
        buffer.end[index] = time.perf_counter()
        buffer.stack.pop()

    def record(self, name: str, start: float, end: float, request: int) -> None:
        """Add a finished root span measured by the caller (e.g. a client request)."""
        saved = self.current_request
        self.current_request = request
        buffer, index = self.open(self.name_id(name))
        self.current_request = saved
        buffer.stack.pop()
        buffer.start[index] = start
        buffer.end[index] = end

    def to_json(self) -> dict[str, Any]:
        """All threads' spans as one list, parent indices made global."""
        document: dict[str, Any] = {
            "names": list(self.names),
            "name": [], "start": [], "end": [], "parent": [], "request": [], "attrs": {},
        }
        with self._lock:
            buffers = list(self._threads)
        for buffer in buffers:
            base = len(document["start"])
            count = len(buffer.start)
            document["name"] += buffer.name[:count].tolist()
            document["start"] += buffer.start[:count].tolist()
            document["end"] += buffer.end[:count].tolist()
            document["parent"] += [
                parent + base if parent >= 0 else -1 for parent in buffer.parent[:count]
            ]
            document["request"] += buffer.request[:count].tolist()
            for index, attrs in list(buffer.attrs.items()):
                document["attrs"][str(index + base)] = attrs
        return document

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json()))


def _wrap(tracer: Tracer, span: str, function: Callable, attrs: Callable | None) -> Callable:
    name_id = tracer.name_id(span)
    open_span, close_span = tracer.open, tracer.close

    @functools.wraps(function)
    def traced(*args: Any, **kwargs: Any) -> Any:
        buffer, index = open_span(name_id)
        try:
            result = function(*args, **kwargs)
        finally:
            close_span(buffer, index)
        if attrs is not None:
            buffer.attrs[index] = attrs(args, result)
        return result

    return traced


def install(tracer: Tracer) -> list[tuple[Any, str, Any]]:
    """Wrap every layer function in :data:`LAYERS`; returns the undo list."""
    undo: list[tuple[Any, str, Any]] = []
    for __, module_name, owner_name, attribute, span, attrs in LAYERS:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        original = inspect.getattr_static(owner, attribute)
        if isinstance(original, staticmethod):
            replacement: Any = staticmethod(_wrap(tracer, span, original.__func__, attrs))
        else:
            replacement = _wrap(tracer, span, original, attrs)
        setattr(owner, attribute, replacement)
        undo.append((owner, attribute, original))
    return undo


def uninstall(undo: list[tuple[Any, str, Any]]) -> None:
    """Put back the originals :func:`install` replaced (in reverse order)."""
    for owner, attribute, original in reversed(undo):
        setattr(owner, attribute, original)


# ------------------------------------------------------------------ analysis
class Spans:
    """Loaded spans with per-span self time (duration minus direct children)."""

    def __init__(self, document: dict[str, Any]) -> None:
        self.names: list[str] = document["names"]
        self.name: list[int] = document["name"]
        self.start: list[float] = document["start"]
        # A span still open when the spans were written (a request cut by
        # shutdown) counts as empty.
        self.end: list[float] = [
            max(start, end) for start, end in zip(document["start"], document["end"])
        ]
        self.parent: list[int] = document["parent"]
        self.request: list[int] = document["request"]
        self.attrs = {int(key): value for key, value in document["attrs"].items()}
        self.self_time = [end - start for start, end in zip(self.start, self.end)]
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                # Children on one thread nest without overlapping, so the
                # time they cover is the sum of their durations.
                self.self_time[parent] -= self.end[index] - self.start[index]

    @classmethod
    def load(cls, path: Path) -> "Spans":
        return cls(json.loads(path.read_text()))

    def of(self, span: str) -> list[int]:
        """Indices of every span with the given name (empty if none)."""
        if span not in self.names:
            return []
        name_id = self.names.index(span)
        return [index for index, value in enumerate(self.name) if value == name_id]

    def duration(self, index: int) -> float:
        return self.end[index] - self.start[index]

    def ancestors(self, index: int) -> list[int]:
        chain = []
        parent = self.parent[index]
        while parent >= 0:
            chain.append(parent)
            parent = self.parent[parent]
        return chain

    def layers(self) -> set[str]:
        """Layers that recorded at least one span."""
        recorded = {self.names[name_id] for name_id in set(self.name)}
        return {LAYER_OF[name] for name in recorded if name in LAYER_OF}
