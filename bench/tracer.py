"""Span tracer that wraps the public functions of each lpdecode module.

Every module imports what it calls by name (``from .decoder import decode``),
so a wrapper on ``lpdecode.decode`` alone would never see the calls a sweep
makes.  :meth:`Tracer.install` therefore replaces each traced function in
*every* lpdecode namespace that holds it (``lpdecode.harness.decode``,
``lpdecode.cli.run_sweep``, ``lpdecode.decoder.weighted_least_squares``,
...), and :meth:`Tracer.uninstall` puts the originals back, so untraced
passes run the unmodified code.

Spans are kept in memory as ``(label, start, end, parent)`` tuples, where
``parent`` is the index of the enclosing traced span or -1, and written out
once at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "harness", "ensemble", "decoder", "certify", "threshold", "halfnormal")

# Scalar leaf helpers called from inside quadrature integrands and search
# steps (hundreds of thousands of calls per pass): wrapping them would make
# the trace time the tracer, and they are attributed to their caller's self
# time instead.
UNTRACED = frozenset({"halfnormal.pdf", "ensemble.floor_count", "ensemble.ceil_count"})


def _observe_decode(counts, result):
    counts["decoder.iterations"] += result.iterations
    counts["decoder.nonconverged"] += not result.converged


def _observe_search(counts, result):
    counts["certify.violations_found"] += result.violated


def _observe_sweep(counts, cells):
    counts["harness.trials"] += sum(c.trials for c in cells)
    counts["harness.successes"] += sum(c.successes for c in cells)


# Work counts read from return values at the layer boundary.
OBSERVERS = {
    "decoder.decode": _observe_decode,
    "certify.search_violation": _observe_search,
    "harness.run_sweep": _observe_sweep,
}


class Tracer:
    """Installs span-recording wrappers and aggregates spans per pass."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []
        modules = [sys.modules["lpdecode"]]
        modules += [sys.modules[f"lpdecode.{layer}"] for layer in LAYERS]
        self._modules = modules
        self._wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"lpdecode.{layer}"]
            for name, fn in vars(mod).items():
                label = f"{layer}.{name}"
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not name.startswith("_")
                    and label not in UNTRACED
                ):
                    self._wrappers[fn] = self._wrap(fn, label)

    def _wrap(self, fn, label):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(label)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent)
            if observe is not None:
                observe(counts, result)
            return result

        return wrapper

    def install(self) -> None:
        for mod in self._modules:
            for name, value in list(vars(mod).items()):
                wrapper = self._wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    setattr(mod, name, wrapper)
                    self._patches.append((mod, name, value))

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()

    def mark(self) -> tuple[int, Counter]:
        """Position to pass to :meth:`pass_profile` after the next pass."""
        return len(self.spans), Counter(self.counts)

    def pass_profile(self, mark) -> tuple[dict, dict]:
        """(times, counts) for the spans and counts recorded since ``mark``.

        ``times`` maps ``label.s`` to inclusive seconds, ``label.self_s`` and
        ``layer.self_s`` to self seconds (duration minus traced children).
        ``counts`` maps ``label.calls`` and the observed work counts to
        integers, which repeat exactly for the same inputs.
        """
        first, before = mark
        spans = self.spans[first:]
        child = defaultdict(float)
        for label, start, end, parent in spans:
            if parent >= first:
                child[parent] += end - start
        times = defaultdict(float)
        counts = Counter()
        for i, (label, start, end, _) in enumerate(spans, start=first):
            dur = end - start
            self_s = dur - child[i]
            times[f"{label}.s"] += dur
            times[f"{label}.self_s"] += self_s
            times[f"{label.split('.')[0]}.self_s"] += self_s
            counts[f"{label}.calls"] += 1
        for key, value in self.counts.items():
            counts[key] = value - before[key]
        return dict(times), dict(counts)

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh
            )
