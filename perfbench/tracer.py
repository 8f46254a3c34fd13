"""Per-layer tracing of tstruct from outside the package.

The tracer replaces each traced boundary function with a wrapper in
every ``tstruct`` module namespace that binds it (``cech`` imports
``tau_single``, ``rgamma`` and ``rq`` from ``derived``, so patching the
defining module alone would miss the oracle's calls).  Each wrapped
call is one span with a start, an end, its parent span and the case
(root span) it belongs to; a layer's self time is its span's duration
minus the durations of its child spans.  A boundary that the package no
longer defines is recorded as absent and reports zero.

Elementary-module arithmetic is counted, not timed: a span per
construction would cost more than the construction itself.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

BOUNDARIES = {
    "cech": (
        "validate_tau_filtration",
        "validate_rgamma",
        "validate_rq",
        "tau_single_models",
        "formal_object_model",
        "tensor",
        "direct_sum",
        "check_object",
        "observables",
        "predicted_observables",
    ),
    "zmodules": ("homology", "snf_invariants", "hom_ext_tables"),
    "derived": (
        "tau_filtration",
        "tau_single",
        "rgamma",
        "rq",
        "in_coaisle",
        "orthogonality_check",
        "from_free_complex",
    ),
    "filtration": ("enumerate_weak_cousin", "enumerate_census_class"),
    "corpus": ("random_free_complex", "random_formal_object"),
}

# (metric name, ElementaryModule attribute) pairs counted per call
COUNTED_METHODS = (
    ("elementary.constructions", "__post_init__"),
    ("elementary.add.calls", "__add__"),
)

# the five unbounded oracle caches, reported by name
CECH_CACHES = (
    "cech_model",
    "rq_model_complex",
    "formal_object_model",
    "_integral_homology_mod",
    "tau_single_models",
)

CASE_SPAN = "bench.case"
SPAN_CAP = 100_000  # spans kept for the trace file; later ones are only counted


def boundary_names():
    return [f"{m}.{f}" for m, names in BOUNDARIES.items() for f in names]


def _tstruct_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "tstruct" or name.startswith("tstruct."))
    ]


def find_caches():
    """Every ``functools`` cache bound at module level in a loaded
    ``tstruct`` module, by ``module.function``.  Call before tracing,
    while module attributes still hold the cached functions."""
    out = {}
    for m in _tstruct_modules():
        short = m.__name__.rpartition(".")[2]
        for attr, value in vars(m).items():
            if callable(getattr(value, "cache_clear", None)) and callable(
                getattr(value, "cache_info", None)
            ):
                if getattr(value, "__module__", None) == m.__name__:
                    out[f"{short}.{attr}"] = value
    return out


class Tracer:
    """Spans and counts for one traced stretch of a benchmark run."""

    def __init__(self):
        self.calls = {name: 0 for name in boundary_names()}
        self.self_s = {name: 0.0 for name in boundary_names()}
        self.counts = {name: 0 for name, _ in COUNTED_METHODS}
        self.absent = []
        self.spans = []  # (id, parent id, case id, name, start, end)
        self.spans_dropped = 0
        self.tau_inputs = set()
        self._stack = []  # frames [id, start, child seconds, case id]
        self._next_id = 0
        self._undo = []

    # -- patching -------------------------------------------------------------

    def install(self):
        for mod_name, names in BOUNDARIES.items():
            module = importlib.import_module(f"tstruct.{mod_name}")
            for fn_name in names:
                name = f"{mod_name}.{fn_name}"
                original = getattr(module, fn_name, None)
                if not callable(original) or getattr(
                    original, "__module__", None
                ) != module.__name__:
                    self.absent.append(name)
                    continue
                hook = self._note_tau_input if name == "derived.tau_filtration" else None
                self._rebind(original, self.wrap(name, original, hook))
        from tstruct.elementary import ElementaryModule

        for name, attr in COUNTED_METHODS:
            original = ElementaryModule.__dict__.get(attr)
            if original is None:
                self.absent.append(name)
                continue
            setattr(ElementaryModule, attr, self._counting(name, original))
            self._undo.append((ElementaryModule, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _rebind(self, original, wrapper):
        for m in _tstruct_modules():
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)
                    self._undo.append((m, attr, original))

    def _counting(self, name, original):
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return counted

    def _note_tau_input(self, args, kwargs):
        try:
            self.tau_inputs.add((args, tuple(sorted(kwargs.items()))))
        except TypeError:  # an unhashable argument is never reused by value
            pass

    # -- spans ----------------------------------------------------------------

    def wrap(self, name, fn, hook=None):
        """``fn`` recorded as a span called ``name`` on every call."""
        calls, self_s, stack, spans = self.calls, self.self_s, self._stack, self.spans
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            case_id = parent[3] if parent else span_id
            frame = [span_id, clock(), 0.0, case_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                calls[name] += 1
                self_s[name] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if len(spans) < SPAN_CAP:
                    spans.append(
                        (span_id, parent[0] if parent else None, case_id, name, frame[1], end)
                    )
                else:
                    tracer.spans_dropped += 1

        return traced

    def to_json(self) -> dict:
        return {
            "absent": sorted(self.absent),
            "calls": self.calls,
            "self_s": self.self_s,
            "counts": self.counts,
            "tau_filtration_distinct_inputs": len(self.tau_inputs),
            "span_fields": ["id", "parent", "case", "name", "start", "end"],
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }
