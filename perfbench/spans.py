"""In-memory span recording, self-time arithmetic and timing statistics.

Nothing here knows about flowlab: ``layers.py`` decides which calls get a
span.  A span is ``[name, start, end, parent_index, iteration]``; spans live
in ``Tracer.spans`` until the run ends and ``write_jsonl`` saves them.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    """Records nested spans and per-iteration counters.

    ``iteration`` labels every span and counter recorded while it is set;
    the benchmark sets it to ``"setup"`` or to the pass number.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(float))
        self._stack = []
        self.iteration = "setup"

    def add(self, key: str, value: float = 1.0) -> None:
        self.counts[self.iteration][key] += value

    def span(self, name, fn, on_exit=None):
        """Wrap ``fn`` so that each call records a span.

        ``name`` is a string or a callable ``(*args, **kwargs) -> str``.
        ``on_exit(tracer, span, result, args, kwargs)`` runs after the span
        closes, to record counts derived from the call.
        """
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            rec = [label, self.clock(), None,
                   self._stack[-1] if self._stack else None, self.iteration]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = self.clock()
                self._stack.pop()
            if on_exit is not None:
                on_exit(self, rec, result, args, kwargs)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """Wrap ``fn`` so that each call adds to ``<name>.calls`` and its
        duration to ``<name>.time_s``, without recording a span (for
        callables invoked hundreds of thousands of times)."""
        clock = self.clock

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counts = self.counts[self.iteration]
                counts[name + ".calls"] += 1
                counts[name + ".time_s"] += clock() - t0

        return wrapper

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, iteration) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "iteration": iteration}) + "\n")


def self_times(spans) -> list:
    """Per span: its duration minus the part of its interval that its direct
    child spans cover (overlapping children are merged before subtracting)."""
    children = defaultdict(list)
    for rec in spans:
        if rec[3] is not None:
            children[rec[3]].append((rec[1], rec[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
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


def tail(samples) -> dict:
    """The highest percentile that keeps at least ten samples beyond it,
    never below the median.

    With n >= 21 samples this is the order statistic with exactly ten
    larger samples, at percentile 100 (n - 11) / (n - 1).  With fewer
    samples no percentile above the median has ten samples beyond it, so
    the median is reported and ``beyond`` says how many samples lie above.
    """
    s = sorted(samples)
    n = len(s)
    if n == 0:
        raise ValueError("tail of an empty sample")
    pos = max((n - 1) / 2.0, float(n - 11))
    lo = int(pos)
    frac = pos - lo
    value = s[lo] if frac == 0.0 else s[lo] + frac * (s[lo + 1] - s[lo])
    return {
        "value": value,
        "percentile": 100.0 * pos / (n - 1) if n > 1 else 100.0,
        "samples": n,
        "beyond": sum(1 for v in s if v > value),
    }
