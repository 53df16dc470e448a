"""Span tracing of byzfc's layers from outside the package.

A traced run wraps byzfc's public functions at the names their callers look
up: the modules import by name, so a function bound in two modules is
patched in both, and ``Tableau`` methods are patched on the class.  Each
call records one span ``[name, start, end, parent, attrs]`` in memory; the
spans are written out when the run ends.  An untraced run installs nothing.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable

FIELDS = ("name", "start", "end", "parent", "attrs")
NAME, START, END, PARENT, ATTRS = range(len(FIELDS))


class Tracer:
    """In-memory span recorder and wrapper installer for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._active: dict[str, int] = {}
        self._patched: list[tuple[Any, str, Any]] = []

    # -- spans ----------------------------------------------------------------

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._open.append(len(self.spans) - 1)
        self._active[name] = self._active.get(name, 0) + 1
        return len(self.spans) - 1

    def _end(self, idx: int) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        self._open.pop()
        self._active[span[NAME]] -= 1

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def wrap(self, fn: Callable, name: str, note: Callable | None = None) -> Callable:
        """``fn`` recording a span per call.

        A call made while a span of the same name is open (recursion, or a
        patched function calling another binding of itself) records nothing,
        so a layer's time is never counted twice.  ``note(attrs, args,
        kwargs, result)`` stores per-call counts on the span.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._active.get(name):
                return fn(*args, **kwargs)
            idx = tracer._begin(name)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    note(tracer.spans[idx][ATTRS], args, kwargs, result)
                return result
            finally:
                tracer._end(idx)

        wrapper.__bench_original__ = fn
        return wrapper

    # -- patching ---------------------------------------------------------------

    def install(self, targets) -> None:
        """Patch every ``(owner, attr, span_name, note)`` target."""
        if self._patched:
            raise RuntimeError("tracer wrappers are already installed")
        try:
            for owner, attr, name, note in targets:
                original = owner.__dict__[attr]
                setattr(owner, attr, self.wrap(original, name, note))
                self._patched.append((owner, attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every patched name to its original object."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def is_wrapped(obj) -> bool:
    return hasattr(obj, "__bench_original__")


# -- what a traced run patches ------------------------------------------------

def _note_tableau(attrs, args, kwargs, result):
    t = args[0]
    attrs["cells"] = t.m * t.width


def _note_count(attrs, args, kwargs, result):
    attrs["n"] = len(result)


def _note_seed_hits(attrs, args, kwargs, result):
    coords = list(args[1] if len(args) > 1 else kwargs["coords"])
    seeds = args[2] if len(args) > 2 else kwargs.get("seeds", ())
    attrs["coords"] = len(coords)
    attrs["hits"] = sum(1 for j in coords if any(s[j] > 0 for s in seeds))


def _note_viable(attrs, args, kwargs, result):
    attrs["viable"] = bool(result.viable)


def targets() -> list[tuple[Any, str, str, Callable | None]]:
    """Every binding a traced run patches, with its span name."""
    from byzfc import (adversary, decoder, harness, probability, simplex,
                       viability)

    return [
        (simplex.Tableau, "__init__", "simplex.phase1", _note_tableau),
        (simplex.Tableau, "maximize", "simplex.maximize", None),
        (viability, "positive_coordinates", "simplex.positive_coordinates",
         _note_seed_hits),
        (viability, "nonintersecting_collections", "structures.collections", _note_count),
        (decoder, "nonintersecting_collections", "structures.collections", _note_count),
        (viability, "check_viability", "viability.check", _note_viable),
        (viability, "verify_witness", "viability.verify_witness", None),
        (decoder, "build_g", "viability.build_g", None),
        (decoder, "build_decoder_config", "decoder.build_config", None),
        (harness, "build_decoder_config", "decoder.build_config", None),
        (decoder, "distance_to_viewset", "viewsets.distance", None),
        (decoder, "empirical_type", "probability.type", None),
        (decoder, "apply_pointwise", "probability.pointwise", None),
        (harness, "apply_pointwise", "probability.pointwise", None),
        (decoder, "decode", "decoder.decode", None),
        (harness, "decode", "decoder.decode", None),
        (probability, "sample_iid", "probability.sample", None),
        (harness, "sample_iid", "probability.sample", None),
        (adversary, "attack", "adversary.attack", None),
        (harness, "attack", "adversary.attack", None),
        (harness, "run_scenario", "harness.trial", None),
    ]


# -- arithmetic over a finished span list ---------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span cover disjoint
    parts of its interval and their durations add.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - child[i] for i, s in enumerate(spans)]


def nearest_ancestor(spans: list[list], names: set[str]) -> list[int]:
    """Index of each span's nearest ancestor named in ``names``, or -1."""
    out = [-1] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            out[i] = p if spans[p][NAME] in names else out[p]
    return out


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as ``name -> (value, unit)``.

    Times and counts cover the whole traced run (set-up and measurement);
    the ``*_share`` metrics and ``distance_calls_per_op`` cover the
    measured operations only.
    """
    selfs = self_times(spans)
    phase = nearest_ancestor(spans, {"bench.setup", "bench.measure"})
    check = nearest_ancestor(spans, {"viability.check"})
    total, own, m_time = defaultdict(float), defaultdict(float), defaultdict(float)
    calls, m_calls = defaultdict(int), defaultdict(int)
    for i, sp in enumerate(spans):
        name, dur = sp[NAME], sp[END] - sp[START]
        total[name] += dur
        own[name] += selfs[i]
        calls[name] += 1
        if phase[i] >= 0 and spans[phase[i]][NAME] == "bench.measure":
            m_time[name] += dur
            m_calls[name] += 1

    def attr_sum(name, key, where=lambda i: True):
        return sum(sp[ATTRS].get(key, 0) for i, sp in enumerate(spans)
                   if sp[NAME] == name and where(i))

    def ratio(a, b):
        return a / b if b else 0.0

    # pruning is read off viable verdicts only: a refuted instance stops at
    # its first violation, so its unvisited collections were never pruned
    viable = {i for i, sp in enumerate(spans)
              if sp[NAME] == "viability.check" and sp[ATTRS].get("viable")}
    enumerated = attr_sum("structures.collections", "n", lambda i: check[i] in viable)
    solved = sum(1 for i, sp in enumerate(spans)
                 if sp[NAME] == "simplex.positive_coordinates" and check[i] in viable)
    busy = m_time["bench.op"]
    s, count, frac = "s", "count", "frac"
    return {
        "simplex.phase1_s": (total["simplex.phase1"], s),
        "simplex.tableaus": (calls["simplex.phase1"], count),
        "simplex.tableau_cells": (attr_sum("simplex.phase1", "cells"), count),
        "simplex.maximize_s": (total["simplex.maximize"], s),
        "simplex.maximize_calls": (calls["simplex.maximize"], count),
        "simplex.seed_hit_frac": (ratio(attr_sum("simplex.positive_coordinates", "hits"),
                                        attr_sum("simplex.positive_coordinates", "coords")),
                                  frac),
        "simplex.phase1_share": (ratio(m_time["simplex.phase1"], busy), frac),
        "structures.collections": (attr_sum("structures.collections", "n"), count),
        "viability.regions_solved": (
            sum(1 for i, sp in enumerate(spans)
                if sp[NAME] == "simplex.positive_coordinates" and check[i] >= 0), count),
        "viability.pruned_frac": (ratio(enumerated - solved, enumerated), frac),
        "viability.check_self_s": (own["viability.check"], s),
        "viability.build_g_s": (total["viability.build_g"], s),
        "viability.verify_witness_s": (total["viability.verify_witness"], s),
        "decoder.build_config_s": (total["decoder.build_config"], s),
        "viewsets.distance_s": (total["viewsets.distance"], s),
        "viewsets.distance_calls": (calls["viewsets.distance"], count),
        "viewsets.distance_calls_per_op": (
            ratio(m_calls["viewsets.distance"], m_calls["bench.op"]), count),
        "viewsets.distance_share": (ratio(m_time["viewsets.distance"], busy), frac),
        "probability.sample_s": (total["probability.sample"], s),
        "probability.type_s": (total["probability.type"], s),
        "probability.pointwise_s": (total["probability.pointwise"], s),
        "adversary.attack_s": (total["adversary.attack"], s),
        "decoder.decode_self_s": (own["decoder.decode"], s),
        "harness.trial_self_s": (own["harness.trial"], s),
        "trace.setup_s": (total["bench.setup"], s),
        "trace.measure_s": (total["bench.measure"], s),
        "trace.spans": (len(spans), count),
    }
