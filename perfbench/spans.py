"""Spans and counters recorded from outside the program.

The tracer wraps public profitmax functions where the algorithms import
them, for the duration of one traced round, and restores them after.
replay_on_realization, called once per sample, gets a counter and no span.
Sample counts of span-wrapped calls (RA sets per extend, simulations per
estimate) are read from their arguments, so generate_ra_set and
simulate_once need no wrapper at all.
"""

import inspect
import time
import weakref
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the root
    run: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters of one process; spans stay in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.run = 0
        self._open = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def count(self, key: str, amount=1):
        self.counts[key] += amount

    def peak(self, key: str, value):
        self.counts[key] = max(self.counts[key], value)


class NullTracer:
    """Stands in for a Tracer in untraced runs."""

    @contextmanager
    def span(self, name):
        yield

    def count(self, key, amount=1):
        pass

    def peak(self, key, value):
        pass


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children.

    Children run inside their parent and one after another, so their
    durations never overlap.
    """
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def span_table(spans) -> dict:
    """Calls, total and self time per span name."""
    table = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += own
    return table


class _CountingOracle:
    """Counts the marginal queries double greedy makes of an oracle."""

    def __init__(self, oracle, tracer):
        self._oracle = oracle
        self._tracer = tracer

    def gain_add(self, v):
        self._tracer.count("greedy.evaluations")
        return self._oracle.gain_add(v)

    def gain_remove(self, v):
        self._tracer.count("greedy.evaluations")
        return self._oracle.gain_remove(v)

    def __getattr__(self, name):
        return getattr(self._oracle, name)


def _array_bytes(*arrays) -> int:
    return sum(getattr(a, "nbytes", 0) for a in arrays)


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the program's layer boundaries while the block runs.

    A function the program no longer has is skipped, and the metrics it
    fed read zero.
    """
    from profitmax import algorithms, sampling

    patched = []

    def patch(owner, attr, make):
        original = owner.__dict__.get(attr)
        if original is None:
            return
        patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def spanned(name, on_call=None):
        def make(fn):
            sig = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    result = fn(*args, **kwargs)
                if on_call is not None:
                    on_call(sig.bind(*args, **kwargs).arguments, result)
                return result
            return wrapper
        return make

    def counted(key):
        def make(fn):
            def wrapper(*args, **kwargs):
                tracer.count(key)
                return fn(*args, **kwargs)
            return wrapper
        return make

    def probes(a, result):
        tracer.count("algorithms.probes", a["probe_count"])

    def greedy(fn):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.arguments["oracle"] = _CountingOracle(
                bound.arguments["oracle"], tracer)
            with tracer.span("greedy.double_greedy"):
                result = fn(*bound.args, **bound.kwargs)
            tracer.count("greedy.seeds", len(result))
            return result
        return wrapper

    def sims(a, result):
        tracer.count("diffusion.sims", a["l"])

    def realization(a, result):
        tracer.count("algorithms.realizations")

    def extend(fn):
        def wrapper(self, count, *args, **kwargs):
            before = len(getattr(self, "members", ()))
            with tracer.span("sampling.extend"):
                fn(self, count, *args, **kwargs)
            tracer.count("sampling.ra_sets", count)
            tracer.count("sampling.ra_members",
                         len(getattr(self, "members", ())) - before)
        return wrapper

    indexed = weakref.WeakSet()

    def index(fn):
        def wrapper(self):
            if self in indexed:
                return fn(self)
            with tracer.span("sampling.index"):
                result = fn(self)
            indexed.add(self)
            parts = result if isinstance(result, tuple) else (result,)
            size = _array_bytes(getattr(self, "roots", None),
                                getattr(self, "offsets", None),
                                getattr(self, "members", None), *parts)
            tracer.peak("sampling.collection_bytes", size)
            return result
        return wrapper

    patch(algorithms, "generate_collection", spanned("sampling.generate_collection"))
    patch(algorithms, "node_order", spanned("algorithms.node_order", probes))
    patch(algorithms, "double_greedy", greedy)
    patch(algorithms, "estimate_profit_simulation", spanned("diffusion.simulate", sims))
    patch(algorithms, "sample_realization",
          spanned("diffusion.sample_realization", realization))
    patch(algorithms, "replay_on_realization", counted("diffusion.replays"))
    patch(algorithms, "search_rat_params", spanned("bounds.solve"))
    patch(algorithms, "solve_ras_params", spanned("bounds.solve"))
    patch(sampling.CollectionBuilder, "extend", extend)
    patch(sampling.CollectionBuilder, "snapshot", spanned("sampling.snapshot"))
    patch(sampling.RACollection, "index", index)
    try:
        yield
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
