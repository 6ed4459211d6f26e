"""Spans and counters around the endoperm layers, recorded from outside.

`Tracer.install` wraps the public functions of each layer, patching every
name where its caller looks it up: `pipeline` binds `build_context` by
from-import, `orbenum.classify` calls the module globals `membership` and
`normalize_point`, and methods are patched on their class.  Spans (name,
start, end, parent) and counters stay in memory; `layer_metrics` turns the
phases recorded by `phase` into the per-layer metrics.

The hot point operations (`VectorDomain.apply`, `normalize_point`,
`membership`, `RandomStream.next`) only bump counters; everything else
records a span.
"""

import contextlib
import functools
import statistics
import tracemalloc
from collections import Counter
from time import perf_counter

from endoperm import (candfilter, fixtures, modular, orbenum, permgrp,
                      pipeline, schur, splitchar)


def _after_pipeline(tracer, run):
    tracer.counters["mod_skips"] += len(run.mod_skips)


def _after_classify(tracer, part):
    tracer.counters["records_kept"] += len(part.records)
    tracer.counters["stored_points"] += sum(r.stored for r in part.records)


def _after_enumerate(tracer, record):
    tracer.counters["enumerate_calls"] += 1
    tracer.counters["covered"] += record.covered


def _after_locate(tracer, k):
    tracer.counters["located" if k is not None else "unresolved"] += 1


def _after_filter(tracer, result):
    box, found = result
    tracer.counters["box_points"] += box
    tracer.counters["admissible"] += len(found)


def _after_normalize(tracer, _):
    tracer.counters["normalize_calls"] += 1
    if tracer.open["schur.locate"]:
        tracer.counters["locate_walk_steps"] += 1


def _after_membership(tracer, _):
    if tracer.open["schur.locate"]:
        tracer.counters["locate_records_tried"] += 1


def _after_apply(tracer, _):
    tracer.counters["applies"] += 1


def _after_next(tracer, result):
    if tracer.open["orbenum.classify"]:
        tracer.counters["probes"] += 1
    tracer.maxima["word_letters"] = max(tracer.maxima.get("word_letters", 0),
                                        len(result[1]))


# (owner, attribute, span name or None for counter-only, hook on result)
PATCHES = [
    (pipeline, "run_instance", "pipeline.run_instance", None),
    (pipeline, "run_pipeline", "pipeline.run_pipeline", _after_pipeline),
    (pipeline, "build_context", "corpus.build_context", None),
    (pipeline, "oracle_instance", "oracle.instance", None),
    (orbenum, "classify", "orbenum.classify", _after_classify),
    (orbenum, "enumerate_suborbit", "orbenum.enumerate_suborbit",
     _after_enumerate),
    (orbenum, "normalize_point", None, _after_normalize),
    (orbenum, "membership", None, _after_membership),
    (orbenum.VectorDomain, "apply", None, _after_apply),
    (orbenum.HelperSetup, "__init__", "orbenum.HelperSetup", None),
    (permgrp.GeneratedGroup, "build_chain", "permgrp.build_chain", None),
    (permgrp.RandomStream, "next", None, _after_next),
    (schur, "generate_endomorphism_ring", "schur.generate_endomorphism_ring",
     None),
    (schur, "count_images", "schur.count_images", None),
    (schur.SchurContext, "locate", "schur.locate", _after_locate),
    (schur, "algebra_closure", "schur.algebra_closure", None),
    (splitchar, "build_table", "splitchar.build_table", None),
    (splitchar, "char_poly", "splitchar.char_poly", None),
    (splitchar, "homogeneous_components_center",
     "splitchar.homogeneous_components_center", None),
    (modular, "permutation_verdict", "modular.permutation_verdict", None),
    (modular, "cartan_from_regular", "modular.cartan_from_regular", None),
    (fixtures, "run_suite", "fixtures.run_suite", None),
    (candfilter, "admissible_candidates", "candfilter.admissible_candidates",
     _after_filter),
]


class Phase:
    """What one set-up or one pass recorded."""

    def __init__(self, spans, counters, maxima):
        self.spans = spans
        self.counters = counters
        self.maxima = maxima

    def time(self, name):
        """Inclusive seconds spent in spans of this name."""
        return sum((end - start for n, start, end, _ in self.spans
                    if n == name), 0.0)

    def calls(self, name):
        return sum(1 for span in self.spans if span[0] == name)


class Tracer:
    """Patches the layers while a phase is recorded; see `phase`."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.maxima = {}
        self.open = Counter()
        self.measure_memory = False
        self._stack = []
        self._saved = []

    # -- patching ------------------------------------------------------------

    def install(self):
        for owner, attr, name, hook in PATCHES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, hook):
        tracer = self
        if name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(tracer, result)
                return result
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            memory = tracer.measure_memory and name == "orbenum.classify"
            if memory:
                tracemalloc.start()
            span = [name, perf_counter(), None,
                    tracer._stack[-1] if tracer._stack else None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            tracer.open[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
                tracer.open[name] -= 1
                if memory:
                    current, _ = tracemalloc.get_traced_memory()
                    tracer.counters["classify_bytes"] += current
                    tracemalloc.stop()
            if hook is not None:
                hook(tracer, result)
            return result
        return spanned

    @contextlib.contextmanager
    def phase(self):
        """Trace the block as one phase: the yielded list holds its Phase
        once the block ends.  The patches are only in place inside it."""
        self.spans, self.counters, self.maxima = [], Counter(), {}
        out = []
        self.install()
        try:
            yield out
        finally:
            self.uninstall()
            out.append(Phase([tuple(span) for span in self.spans],
                             self.counters, self.maxima))


# ---------------------------------------------------------------------------
# Per-layer metrics

def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(setups, passes, counted, memory, overhead):
    """Per-layer metrics from traced phases.

    setups: the traced set-up phases; passes: every traced pass; counted:
    the first passes, whose counts repeat exactly for a seed; memory: the
    phase run with tracemalloc around classify, or None; overhead: the
    median over twin passes of traced time / plain time, minus 1.
    Times and rates are medians over `passes` (set-ups for the set-up
    layers); counts are means per pass over `counted`.
    """
    total = Counter()
    for ph in counted:
        total.update(ph.counters)
    n = len(counted)

    def per_pass(key):
        return total[key] / n

    def med(fn, phases=passes):
        return statistics.median(fn(ph) for ph in phases)

    located = total["located"]
    return {
        "orbenum.classify_s": (med(lambda p: p.time("orbenum.classify")), "s"),
        "orbenum.covered_per_s": (med(lambda p: _ratio(
            p.counters["covered"], p.time("orbenum.classify"))), "1/s"),
        "orbenum.applies": (per_pass("applies"), "count"),
        "orbenum.normalize_calls": (per_pass("normalize_calls"), "count"),
        "orbenum.fresh_ratio": (_ratio(total["records_kept"],
                                       total["enumerate_calls"]), "ratio"),
        "orbenum.probes": (per_pass("probes"), "count"),
        "orbenum.stored_points": (per_pass("stored_points"), "count"),
        "orbenum.bytes_per_stored_point": (
            _ratio(memory.counters["classify_bytes"],
                   memory.counters["stored_points"]) if memory else 0.0,
            "B"),
        "orbenum.helper_setup_s": (
            med(lambda p: p.time("orbenum.HelperSetup"), setups), "s"),
        "permgrp.build_chain_calls": (
            sum(ph.calls("permgrp.build_chain") for ph in counted) / n,
            "count"),
        "permgrp.build_chain_s": (
            med(lambda p: p.time("permgrp.build_chain")), "s"),
        "permgrp.max_word_letters": (
            max(ph.maxima.get("word_letters", 0) for ph in counted), "count"),
        "schur.count_s": (med(lambda p: p.time("schur.count_images")), "s"),
        "schur.images_per_s": (med(lambda p: _ratio(
            p.calls("schur.locate"), p.time("schur.count_images"))), "1/s"),
        "schur.walk_steps_per_locate": (
            _ratio(total["locate_walk_steps"], located), "steps/locate"),
        "schur.records_tried_per_locate": (
            _ratio(total["locate_records_tried"], located), "records/locate"),
        "schur.unresolved": (per_pass("unresolved"), "count"),
        "schur.closure_s": (med(lambda p: p.time("schur.algebra_closure")),
                            "s"),
        "splitchar.build_table_s": (
            med(lambda p: p.time("splitchar.build_table")), "s"),
        "splitchar.char_poly_s": (
            med(lambda p: p.time("splitchar.char_poly")), "s"),
        "splitchar.center_fallbacks": (
            sum(ph.calls("splitchar.homogeneous_components_center")
                for ph in counted) / n, "count"),
        "modular.verdict_s": (
            med(lambda p: p.time("modular.permutation_verdict")), "s"),
        "modular.regular_chop_s": (
            med(lambda p: p.time("modular.cartan_from_regular")), "s"),
        "modular.skips": (per_pass("mod_skips"), "count"),
        "oracle.instance_s": (
            med(lambda p: p.time("oracle.instance"), setups), "s"),
        "fixtures.suite_s": (med(lambda p: p.time("fixtures.run_suite")), "s"),
        "candfilter.box_points_per_s": (med(lambda p: _ratio(
            p.counters["box_points"],
            p.time("candfilter.admissible_candidates"))), "1/s"),
        "candfilter.admissible": (per_pass("admissible"), "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def self_times(phases):
    """name -> (calls, inclusive s, self s) summed over phases; self time is
    a span's duration minus that of its direct children."""
    out = {}
    for ph in phases:
        child = Counter()
        for _, start, end, parent in ph.spans:
            if parent is not None:
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(ph.spans):
            calls, incl, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, incl + end - start,
                         own + end - start - child[i])
    return out
