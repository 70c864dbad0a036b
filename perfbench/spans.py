"""In-memory span recorder for the traced run.

The recorder replaces public functions and methods of the program with
thin wrappers that stamp a span (name, start, end, parent, request id)
around each call.  Wrappers are installed only for the traced phase and
removed with :meth:`SpanRecorder.restore`, so the untraced phases run
the program untouched.  Spans stay in memory and are written out once,
as Chrome trace-event JSON, when the run ends.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Optional



@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]
    args: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans of wrapped calls on one thread."""

    def __init__(self):
        self.spans: list = []
        self.request: Optional[int] = None   # current request, if one applies
        self._stack: list = []
        self._undo: list = []

    def wrap(self, owner, attr: str, name: str,
             info: Optional[Callable] = None,
             on_result: Optional[Callable] = None, undo: bool = True) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call.

        ``info(*args, **kwargs)`` returns extra span fields (a
        ``"request"`` key overrides the current request id);
        ``on_result(span, result)`` may add fields from the return value
        after the span is closed, so its cost is not charged to it.
        ``undo=False`` skips :meth:`restore` for short-lived owners, so
        the recorder does not keep them alive.
        """
        original = getattr(owner, attr)
        had_own = attr in vars(owner)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            meta = info(*args, **kwargs) if info is not None else {}
            request = meta.pop("request", self.request)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None,
                        request, meta)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(span, result)
            return result

        setattr(owner, attr, wrapper)
        if undo:
            self._undo.append((owner, attr, original, had_own))

    def restore(self) -> None:
        """Remove every wrapper, newest first."""
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def write_chrome_trace(self, path) -> None:
        """Write all spans as Chrome trace-event JSON (``ph: "X"``)."""
        t0 = self.spans[0].start if self.spans else 0.0
        events = []
        for index, span in enumerate(self.spans):
            args = {"id": index, "parent": span.parent,
                    "request": span.request}
            args.update(span.args)
            events.append({
                "name": span.name, "ph": "X", "pid": 1, "tid": 1,
                "ts": round((span.start - t0) * 1e6, 3),
                "dur": round(span.seconds * 1e6, 3),
                "args": args,
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
