"""The benchmark workloads.

A workload builds its inputs from the benchmark seed in `setup`, and
`units(state, i)` lists what pass i does: (label, call, check).  Pass i
seeds the program's own randomness with i mod `program_seeds`, so every
run replays the same few random paths on its inputs.  Only `call` is
timed; it goes through endoperm's public API by module attribute, so the
tracer's patches see it.  `check` turns the call's answer into (name, ok,
detail) checks.  Why each workload is here, and which layers it loads, is
in README.md next to this file.
"""

from functools import partial

import johnson
import j4box
from endoperm import candfilter, corpus, fixtures, pipeline

JOHNSON_PRIMES = (2, 3, 5, 7)


class JohnsonVector:
    """The full chain on J(n, k) in its F_2 vector action."""

    name = "johnson-vector"
    work = "[G:H] points decided"
    program_seeds = 4

    def __init__(self, n=18, k=2):
        self.n, self.k = n, k

    def setup(self, seed):
        return johnson.JohnsonScenario(self.n, self.k, seed)

    def work_per_pass(self, scenario):
        return scenario.index

    def units(self, scenario, index):
        call = partial(pipeline.run_pipeline, scenario.ctx, scenario.helper,
                       scenario.h_order, primes=JOHNSON_PRIMES,
                       seed=index % self.program_seeds,
                       name=f"J({self.n},{self.k})")
        return [("run_pipeline", call,
                 partial(johnson.check_run, scenario=scenario))]


class CorpusJ4:
    """The manifest instances through run_instance, checked against the
    brute-force oracle answers computed in set-up; then the J4 instance:
    the reference-table suite and the candidate filter over a synthetic
    box shaped like the J4 permutation character.

    The manifest instances are fixed, and every pass runs the pipeline and
    the oracle at their default seed 0, whatever the benchmark seed.  The
    random-element words of `RandomStream` grow exponentially with the
    number of draws, and the regular-action instances need ~100 draws on
    unlucky seeds: pipeline seed 2001 takes 31 s and 1.8 GB on
    random-4-dihedral-16-regular alone (14M-letter words), against 2 s and
    34 MB at seed 0.  Sampling seeds would make the run's time and memory
    a lottery; `permgrp.max_word_letters` in the traced run reports the
    word growth instead.  The benchmark seed shapes the synthetic table.
    """

    name = "corpus-j4"
    work = "instances (the manifest's and J4)"
    program_seeds = 1

    def __init__(self, names=None, constituents=12):
        self.names = names
        self.constituents = constituents

    def setup(self, seed):
        instances = corpus.all_instances()
        if self.names is not None:
            instances = [i for i in instances if i.name in self.names]
        oracles = {i.name: pipeline.oracle_instance(i) for i in instances}
        return instances, oracles, j4box.SyntheticBox(seed, self.constituents)

    def work_per_pass(self, state):
        return len(state[0]) + 1

    def units(self, state, index):
        instances, oracles, box = state
        units = []
        if self.names is None:
            units.append(("manifest",
                          partial(corpus.verify_against_manifest, instances),
                          _manifest_checks))
        for inst in instances:
            units.append((inst.name,
                          partial(pipeline.run_instance, inst),
                          partial(_compare, oracles[inst.name])))
        units += [
            ("fixtures.run_suite", fixtures.run_suite, _suite_checks),
            ("candfilter.admissible_candidates",
             partial(candfilter.admissible_candidates, box.table,
                     box.constituents, j4box.PRIME),
             partial(j4box.check_filter, box=box)),
        ]
        return units


def _manifest_checks(problems):
    return [("corpus matches its manifest", not problems, "; ".join(problems))]


def _compare(oracle, run):
    return pipeline.compare(run, oracle)


def _suite_checks(checks):
    return [(c.name, c.ok, c.detail) for c in checks]


WORKLOADS = {w.name: w for w in (JohnsonVector, CorpusJ4)}
