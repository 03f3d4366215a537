"""Span recorder for the benchmark's traced runs.

The tracer wraps public functions of the program from the outside (the
program itself carries no instrumentation): every call of a wrapped
function opens a span ``(name, start, end, parent, op)``, and spans nest
through an explicit stack, so a span's *parent* is the innermost wrapped
call that was running when it started.  The layer of a span is the prefix
of its name (``"channel.transmit"`` belongs to layer ``"channel"``).

A layer's *self time* is its span's duration minus the part of that
interval covered by its child spans; :func:`self_times` computes it for a
list of spans and is the single implementation the benchmark and its
tests use.

Memory stays bounded on long traced runs: :meth:`Tracer.end_op` folds an
op's spans into running totals and keeps only the first
:attr:`Tracer.keep_spans` raw spans of the run, which
:meth:`Tracer.write_jsonl` writes out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    """One timed call.  Times are ``perf_counter_ns`` values."""

    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the parent span in the same list, -1 for a root
    op: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def covered_ns(intervals: list[tuple[int, int]]) -> int:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[Span]) -> list[int]:
    """Self time of every span: its duration minus what its children cover.

    Child intervals are clipped to the parent's interval before the union
    is taken, so a child that outlives its parent never drives the
    parent's self time below zero.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            parent = spans[span.parent]
            start = max(span.start_ns, parent.start_ns)
            end = min(span.end_ns, parent.end_ns)
            if end > start:
                children[span.parent].append((start, end))
    return [
        (span.end_ns - span.start_ns) - covered_ns(children.get(index, []))
        for index, span in enumerate(spans)
    ]


class Tracer:
    """Records spans and counters around wrapped functions.

    Parameters
    ----------
    keep_spans:
        Raw spans kept in memory for the JSONL file; later ops are still
        aggregated into the totals but their spans are dropped.
    """

    def __init__(self, keep_spans: int = 50_000) -> None:
        self.keep_spans = keep_spans
        self.active = False
        self.kept: list[Span] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.ops = 0
        self.op_ns = 0
        self._spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._op_start = 0
        self._patched: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------- ops
    def begin_op(self, op: int) -> None:
        self._op = op
        self._spans = []
        self._stack = []
        self.active = True
        self._op_start = time.perf_counter_ns()

    def end_op(self) -> None:
        self.op_ns += time.perf_counter_ns() - self._op_start
        self.active = False
        self.ops += 1
        spans = self._spans
        for span, own in zip(spans, self_times(spans)):
            self.self_ns[span.name] += own
            self.total_ns[span.name] += span.end_ns - span.start_ns
            self.calls[span.name] += 1
        # Spans are stored in the order they opened, so any prefix keeps
        # every parent of the spans in it.  Parents become ``kept`` indices.
        base = len(self.kept)
        self.kept.extend(
            span._replace(parent=base + span.parent if span.parent >= 0 else -1)
            for span in spans[:max(self.keep_spans - base, 0)]
        )
        self._spans = []

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add to a counter (only while an op is being traced)."""
        if self.active:
            self.counters[name] += amount

    # ----------------------------------------------------------- spans
    def _open(self, name: str) -> int:
        index = len(self._spans)
        parent = self._stack[-1] if self._stack else -1
        self._spans.append(Span(name, time.perf_counter_ns(), 0, parent, self._op))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self._spans[index]
        self._spans[index] = span._replace(end_ns=time.perf_counter_ns())
        self._stack.pop()

    def _wrap_function(self, function, name, after):
        tracer = self

        if inspect.isgeneratorfunction(function):
            # A generator's work happens inside next(): one span per step.
            @functools.wraps(function)
            def generator_wrapper(*args, **kwargs):
                if not tracer.active:
                    yield from function(*args, **kwargs)
                    return
                steps = function(*args, **kwargs)
                while True:
                    index = tracer._open(name)
                    try:
                        item = next(steps)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(index)
                    yield item

            return generator_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            if name is None:
                result = function(*args, **kwargs)
            else:
                index = tracer._open(name)
                try:
                    result = function(*args, **kwargs)
                finally:
                    tracer._close(index)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def wrap(
        self,
        owner: type,
        attribute: str,
        name: str | None,
        after: Callable | None = None,
    ) -> None:
        """Replace ``owner.attribute`` by a traced version.

        ``name=None`` records no span and only runs ``after(tracer, args,
        result)``, for counters at a boundary that should not split its
        caller's self time.  Static and class methods keep their kind.
        """
        raw = owner.__dict__[attribute]  # KeyError: the target moved
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(self._wrap_function(raw.__func__, name, after))
        else:
            wrapped = self._wrap_function(raw, name, after)
        self._patched.append((owner, attribute, raw))
        setattr(owner, attribute, wrapped)

    def wrap_public(self, owner: type, name: str) -> None:
        """Wrap every public plain method defined on ``owner``."""
        for attribute, raw in list(vars(owner).items()):
            if not attribute.startswith("_") and inspect.isfunction(raw):
                self.wrap(owner, attribute, name)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patched:
            owner, attribute, raw = self._patched.pop()
            setattr(owner, attribute, raw)

    # --------------------------------------------------------- reports
    def per_op_ms(self, name: str, total: bool = False) -> float:
        """Mean self (or total) milliseconds per traced op of spans ``name``."""
        table = self.total_ns if total else self.self_ns
        return table.get(name, 0) / 1e6 / max(self.ops, 1)

    def layer_table(self) -> list[tuple[str, float, float]]:
        """``(layer, self ms per op, share of op time)`` rows, largest first.

        The ``op`` row is op time that no span covers: the benchmark's own
        driving code plus program code outside every wrapped function.
        """
        by_layer: dict[str, int] = defaultdict(int)
        for name, own in self.self_ns.items():
            by_layer[name.split(".", 1)[0]] += own
        by_layer["op"] = self.op_ns - sum(by_layer.values())
        total = max(self.op_ns, 1)
        rows = [
            (layer, own / 1e6 / max(self.ops, 1), own / total)
            for layer, own in by_layer.items()
        ]
        return sorted(rows, key=lambda row: -row[1])

    def write_jsonl(self, path) -> None:
        """Write the kept spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.kept):
                handle.write(json.dumps({
                    "id": index,
                    "name": span.name,
                    "layer": span.layer,
                    "start_ns": span.start_ns,
                    "end_ns": span.end_ns,
                    "parent": span.parent,
                    "op": span.op,
                }) + "\n")
