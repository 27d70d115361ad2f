"""In-memory span tracer and self-time accounting.

Spans are recorded by wrapping functions where callers look them up, so the
program's source stays untouched.  A span is [name, start, end, parent,
attrs]; parent is the index of the enclosing span or -1.
"""

import contextlib
import functools
import time

NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, attrs=None):
        rec = [name, self.clock(), None, self._stack[-1] if self._stack else -1,
               attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[END] = self.clock()

    def wrap(self, fn, name, attrs=None):
        """fn recorded as a span; attrs(args, kwargs, result) -> dict is
        stored on the span after it closes."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if attrs is not None:
                rec[ATTRS] = attrs(args, kwargs, result)
            return result
        return traced


@contextlib.contextmanager
def patched(tracer, targets):
    """Replace each (owner, attr, span_name, attrs) target by its traced
    wrapper for the duration of the block.  Methods and classmethods are
    patched on the class, module functions on the module that calls them."""
    saved = []
    try:
        for owner, attr, name, attrs in targets:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(tracer.wrap(raw.__func__, name, attrs))
            else:
                new = tracer.wrap(raw, name, attrs)
            saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def self_times(spans):
    """Per span: its duration minus the part of its interval covered by its
    direct children (overlapping children are counted once)."""
    children = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered, cur_lo, cur_hi = 0.0, None, None
        for j in sorted(children.get(i, ()), key=lambda j: spans[j][START]):
            lo, hi = max(spans[j][START], start), min(spans[j][END], end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out
