"""In-memory spans recorded around calls into the qlyap layers.

Spans are kept in a list and written out once, when the run ends. Each
span has a name, start and end (perf_counter seconds), the index of its
parent span, the run id of the operation it belongs to, and the number
of calls it covers (micro-benchmark loops record one span per batch).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

LAYERS = ("dynamics", "ensemble", "analysis", "io", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    calls: int = 1

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.run_id = "setup"
        self._stack = []

    @contextmanager
    def span(self, name, calls=1):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.run_id, calls)

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def cli_boundaries(self):
        """Trace the calls `qlyap.cli` makes into the other layers.

        The CLI imports its collaborators by name, so replacing those names
        in its namespace records a child span for each call main() makes.
        The names are restored on exit.
        """
        cli = importlib.import_module("qlyap.cli")
        saved = {
            attr: value
            for attr, value in vars(cli).items()
            if inspect.isfunction(value) and value.__module__ in {f"qlyap.{layer}" for layer in LAYERS[:-1]}
        }
        try:
            for attr, value in saved.items():
                setattr(cli, attr, self.wrap(value, f"{value.__module__[len('qlyap.'):]}.{attr}"))
            yield
        finally:
            for attr, value in saved.items():
                setattr(cli, attr, value)

    def by_name(self, name, run_id):
        return [s for s in self.spans if s.name == name and s.run_id == run_id]

    def self_times(self, run_prefix=""):
        """Per span name: (calls, total seconds, self seconds).

        A span's self time is its duration minus the time its direct
        children cover; children never overlap because calls are serial.
        """
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        table = defaultdict(lambda: [0, 0.0, 0.0])
        for index, span in enumerate(self.spans):
            if not span.run_id.startswith(run_prefix):
                continue
            row = table[span.name]
            row[0] += span.calls
            row[1] += span.duration
            row[2] += span.duration - child_time[index]
        return {name: tuple(row) for name, row in sorted(table.items())}

    def write(self, path, extra):
        payload = dict(extra)
        payload["spans"] = [asdict(s) for s in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.write("\n")


class Api:
    """Public qlyap entry points, wrapped in a span per call when traced."""

    def __init__(self, tracer=None):
        self._tracer = tracer
        self._modules = [importlib.import_module(f"qlyap.{layer}") for layer in LAYERS]

    def __getattr__(self, name):
        for layer, module in zip(LAYERS, self._modules):
            fn = getattr(module, name, None)
            if callable(fn) and getattr(fn, "__module__", None) == module.__name__:
                break
        else:
            raise AttributeError(name)
        if self._tracer is not None:
            fn = self._tracer.wrap(fn, f"{layer}.{name}")
        setattr(self, name, fn)
        return fn

    @contextmanager
    def boundaries(self):
        """Trace the CLI's calls into the other layers while active."""
        if self._tracer is None:
            yield
        else:
            with self._tracer.cli_boundaries():
                yield
