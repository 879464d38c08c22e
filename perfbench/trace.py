"""Spans recorded around calls into boat's public functions.

Functions are wrapped where their callers look them up (a module
attribute), so a call made inside boat is timed as well as one made by
the benchmark. Model evaluations are too many to keep one span each:
they are counted and timed per family on the span that made them.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter

PROB_CORE = ("log_posterior", "log_posterior_grad")


class Recorder:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._originals = []
        self.calls = {}  # wrapped label -> calls recorded since install

    def reset(self):
        self.spans = []

    def span(self, label, attrs=None):
        """Context manager for a span the benchmark opens itself."""
        return self._open(label, attrs or {})

    @contextmanager
    def _open(self, label, attrs):
        span = {"name": label, "id": len(self.spans),
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": perf_counter(), "child_s": 0.0, "attrs": attrs, "evals": {}}
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span["end"] = perf_counter()
            if self._stack:
                self._stack[-1]["child_s"] += span["end"] - span["start"]

    def wrap(self, module, name, label, attrs=None):
        """Replace ``module.name`` by a spanned version; ``attrs(args,
        kwargs)`` adds attributes to each span."""
        fn = getattr(module, name)
        self.calls[label] = 0

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            self.calls[label] += 1
            with self._open(label, attrs(args, kwargs) if attrs else {}):
                return fn(*args, **kwargs)

        self._originals.append((module, name, fn))
        setattr(module, name, spanned)

    def wrap_model_evals(self, module):
        """Count and time log_posterior / log_posterior_grad per family on
        the innermost open span."""
        for name in PROB_CORE:
            fn = getattr(module, name)
            label = f"prob_core.{name}"
            self.calls[label] = 0

            def timed(model, data, params, _fn=fn, _name=name, _label=label):
                self.calls[_label] += 1
                t0 = perf_counter()
                try:
                    return _fn(model, data, params)
                finally:
                    dt = perf_counter() - t0
                    if self._stack:
                        top = self._stack[-1]
                        top["child_s"] += dt
                        rec = top["evals"].setdefault(model.family, {})
                        n, s = rec.get(_name, (0, 0.0))
                        rec[_name] = (n + 1, s + dt)

            self._originals.append((module, name, fn))
            setattr(module, name, timed)

    def uninstall(self):
        for module, name, fn in reversed(self._originals):
            setattr(module, name, fn)
        self._originals = []

    def silent(self):
        """Labels of wrapped functions that recorded no call."""
        return sorted(label for label, n in self.calls.items() if n == 0)


def self_seconds(spans, prefixes) -> float:
    """Summed self time (duration minus child spans and model evaluations)
    of the spans whose name starts with one of ``prefixes``."""
    return sum(s["end"] - s["start"] - s["child_s"] for s in spans
               if s["name"].startswith(prefixes))


def total_seconds(spans, name) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def evals(spans) -> dict:
    """{log_posterior: (n, s), log_posterior_grad: (n, s)} summed over spans."""
    out = {name: (0, 0.0) for name in PROB_CORE}
    for s in spans:
        for rec in s["evals"].values():
            for name, (n, t) in rec.items():
                n0, t0 = out[name]
                out[name] = (n0 + n, t0 + t)
    return out
