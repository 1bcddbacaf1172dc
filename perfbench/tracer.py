"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark around its own calls into grpfield,
never inside the library.  The benchmark's calls do not nest, so only
per-name durations are kept (one array of nanoseconds per span name)
and a long traced run stays small in memory.  Self times of a single
library call come from replaying its parts on the same operands.
"""

from __future__ import annotations

import statistics
import time
from array import array
from types import SimpleNamespace


def timed(fn, *args, **kwargs):
    """Call fn(*args, **kwargs); return (result, elapsed ns)."""
    start = time.perf_counter_ns()
    out = fn(*args, **kwargs)
    return out, time.perf_counter_ns() - start


def _noop() -> None:
    pass


class Tracer:
    """Per-name span durations, in nanoseconds.

    `timer_ns` is what `timed` adds to every sample it takes; a self time
    derived from k replayed parts adds back (k - 1) of it.
    """

    def __init__(self) -> None:
        self.durations: dict[str, array] = {}
        self.timer_ns = int(statistics.median(timed(_noop)[1]
                                              for _ in range(201)))

    def _array(self, name: str) -> array:
        return self.durations.setdefault(name, array("q"))

    def wrap(self, name: str, fn):
        """Return fn with a span named `name` around every call."""
        durations = self._array(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                durations.append(clock() - start)

        return traced

    def add(self, name: str, ns: int) -> None:
        """Record a sample timed outside a span (a replay or derived time)."""
        self._array(name).append(ns)

    def last(self, name: str) -> int:
        return self.durations[name][-1]

    def samples(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def median_ns(self, name: str) -> float:
        return statistics.median(self.durations[name])

    def absorb_missing(self, other: "Tracer") -> None:
        """Take over the spans of `other` whose names this tracer lacks."""
        for name, durations in other.durations.items():
            if not self.samples(name):
                self.durations[name] = durations


def traced_api(gf, tracer: Tracer, names: dict[str, str]) -> SimpleNamespace:
    """Namespace of grpfield functions, each wrapped in a span.

    `names` maps a grpfield attribute to its span name.  The untraced
    loop calls the module itself, so it pays for no wrapper.
    """
    return SimpleNamespace(**{attr: tracer.wrap(span, getattr(gf, attr))
                              for attr, span in names.items()})
