"""Measurement loop and report of the endoperm benchmark.

One run sets the workload up at least SETUP_REPEATS times and for at
least SETUP_SECONDS (setup_s is the median), then times passes until the
requested seconds have gone by, at least MIN_PASSES of them and at least
one per program seed.  The seed only shapes the inputs: pass i runs the
program with seed i mod `program_seeds`, so every run samples the same
random paths of the program and seeds differ only where the inputs do.
Checks run after each timed call, outside the timed region.

With tracing on, plain and traced passes alternate with the same pass
index, so every traced pass has an untraced twin: the per-layer metrics
come from the traced ones, the tracing overhead from the pairs.  A last pass
with tracemalloc around classify measures bytes per stored point.
"""

import contextlib
import json
import resource
import statistics
import sys
import traceback
from time import perf_counter

import tracer as tracing
from workloads import WORKLOADS

SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
MIN_PASSES = 3
COUNTED_PASSES = 2


class Tally:
    """Checks made and failed; a unit that raises counts as one failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, name, ok, detail):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAIL  {name}  [{detail}]", file=sys.stderr)

    def raised(self, label):
        self.attempted += 1
        self.failed += 1
        print(f"FAIL  {label} raised:\n{traceback.format_exc()}",
              file=sys.stderr)


def run_pass(workload, state, index, tally):
    """Seconds spent in each of the program's calls during pass `index`."""
    times = []
    for label, call, check in workload.units(state, index):
        start = perf_counter()
        try:
            result = call()
        except Exception:
            times.append(perf_counter() - start)
            tally.raised(label)
            continue
        times.append(perf_counter() - start)
        for name, ok, detail in check(result):
            tally.check(name, ok, detail)
    return times


def typical_pass(passes, program_seeds):
    """Seconds of a pass in which every call takes its median time over
    the passes with the same program seed, averaged over the seeds.  A
    stall of the machine lands in one call of one pass, so this median per
    call shrugs it off better than the median of pass totals; grouping by
    seed keeps the seeds' different amounts of work out of the medians."""
    groups = (passes[g::program_seeds] for g in range(program_seeds))
    return statistics.fmean(
        sum(statistics.median(times) for times in zip(*group))
        for group in groups)


@contextlib.contextmanager
def _no_trace():
    yield []


def measure(workload, seed, seconds, trace=False):
    """One benchmark run; returns the result object and the report lines.

    Set-ups and passes interleave until both have had their due, so the
    passes sample the machine over the whole run, not one stretch of it."""
    tally = Tally()
    tracer = tracing.Tracer() if trace else None
    record = tracer.phase if trace else _no_trace
    setup_s, setup_phases = [], []
    plain, traced, phases = [], [], []

    def set_up():
        with record() as phase:
            start = perf_counter()
            state = workload.setup(seed)
            setup_s.append(perf_counter() - start)
        setup_phases.extend(phase)
        return state

    min_passes = max(MIN_PASSES, workload.program_seeds)
    state = set_up()
    passing, i = 0.0, 0
    while True:
        more_setups = (len(setup_s) < SETUP_REPEATS
                       or sum(setup_s) < SETUP_SECONDS)
        more_passes = (i < (COUNTED_PASSES if trace else min_passes)
                       or passing < seconds)
        if not (more_setups or more_passes):
            break
        if more_passes:
            start = perf_counter()
            twins = (False, True) if i % 2 == 0 else (True, False)
            for traced_turn in (twins if trace else (False,)):
                if not traced_turn:
                    plain.append(run_pass(workload, state, i, tally))
                    continue
                with record() as phase:
                    traced.append(run_pass(workload, state, i, tally))
                phases.extend(phase)
            passing += perf_counter() - start
            i += 1
        if more_setups:
            state = set_up()

    lines = [f"workload {workload.name}, seed {seed}: {len(plain)} plain "
             f"passes" + (f", {len(traced)} traced" if trace else "")]
    # printed, not reported: a constant over wall_s, it would gate nothing
    # that wall_s does not
    printed = {}
    if not trace:
        wall = typical_pass(plain, workload.program_seeds)
        work = workload.work_per_pass(state)
        metrics = {
            "setup_s": (statistics.median(setup_s), "s",
                        f"median of {len(setup_s)} set-ups"),
            "wall_s": (wall, "s", f"median per call over {len(plain)} "
                       f"passes, program seeds 0-{workload.program_seeds - 1}"
                       "; pass totals " + " ".join(
                           f"{sum(times):.3f}" for times in plain)),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                "peak resident set of the run"),
        }
        printed["work_per_s"] = (work / wall, "1/s",
                                 f"{work} {workload.work} per pass")
    else:
        memory = None
        if phases[0].calls("orbenum.classify"):
            tracer.measure_memory = True
            with record() as phase:
                run_pass(workload, state, 0, tally)
            tracer.measure_memory = False
            memory = phase[0]
        overhead = statistics.median(
            sum(t) / sum(p) for p, t in zip(plain, traced)) - 1
        metrics = {name: (value, unit, "") for name, (value, unit) in
                   tracing.layer_metrics(setup_phases, phases,
                                         phases[:COUNTED_PASSES], memory,
                                         overhead).items()}
        lines.append("span                                   calls  "
                     "inclusive_s      self_s")
        for name, (calls, incl, own) in sorted(
                tracing.self_times(phases).items()):
            lines.append(f"  {name:<36} {calls:6d} {incl:12.4f} {own:11.4f}")
    printed["fail_ratio"] = (tally.failed / tally.attempted, "ratio",
                             f"{tally.failed} of {tally.attempted} checks "
                             "failed or raised")
    for name, (value, unit, note) in {**metrics, **printed}.items():
        lines.append(f"{name:<32} {value:14.6g} {unit:<6} {note}".rstrip())
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    return result, lines


def main(workload_names, seed, seconds, trace):
    for name in workload_names:
        result, lines = measure(WORKLOADS[name](), seed, seconds, trace)
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
