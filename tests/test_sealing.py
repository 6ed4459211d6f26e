"""Orbit records as `classify` leaves them: when `enumerate_suborbit`
sealed each one, how many Schreier loops it sifted to get there, and the
G-element kept for its representative.

The pins below are (n, |H_j|, covered, stored, chunks, certified) per
record, in canonical order.  They fix the seal decisions themselves, not
only the answers: a change in when loops are sifted must not move them.
"""

import pytest

from endoperm import corpus
from endoperm.orbenum import classify
from endoperm.permgrp import RandomStream
from endoperm.schur import SchurContext
from scenarios import johnson_context


def seal_timing(part):
    return [(r.length, r.stab_order, r.covered, r.stored, r.chunks,
             r.certified) for r in part.records]


JOHNSON_PINS = {
    (10, 2, 0): [(1, 80640, 1, 1, 1, True), (16, 5040, 10, 5, 3, True),
                 (28, 2880, 15, 15, 11, True)],
    (10, 2, 1): [(1, 80640, 1, 1, 1, True), (16, 5040, 10, 5, 3, True),
                 (28, 2880, 15, 15, 10, True)],
    (10, 2, 2): [(1, 80640, 1, 1, 1, True), (16, 5040, 10, 5, 3, True),
                 (28, 2880, 28, 28, 22, True)],
    (10, 2, 3): [(1, 80640, 1, 1, 1, True), (16, 5040, 10, 5, 3, True),
                 (28, 2880, 15, 15, 11, True)],
    (8, 3, 0): [(1, 720, 1, 1, 1, True), (10, 72, 6, 6, 3, True),
                (15, 48, 12, 4, 2, True), (30, 24, 18, 6, 3, True)],
    (8, 3, 1): [(1, 720, 1, 1, 1, True), (10, 72, 8, 8, 4, True),
                (15, 48, 9, 3, 2, True), (30, 24, 18, 6, 3, True)],
    (8, 3, 2): [(1, 720, 1, 1, 1, True), (10, 72, 9, 9, 5, True),
                (15, 48, 9, 3, 2, True), (30, 24, 18, 6, 4, True)],
    (8, 3, 3): [(1, 720, 1, 1, 1, True), (10, 72, 6, 6, 3, True),
                (15, 48, 9, 3, 2, True), (30, 24, 18, 6, 3, True)],
}

CORPUS_PINS = {
    "S4/S3": [(1, 6, 1, 1, 1, True), (3, 2, 3, 1, 1, True)],
    "S5/S4": [(1, 24, 1, 1, 1, True), (4, 6, 4, 1, 1, True)],
    "S6/S5": [(1, 120, 1, 1, 1, True), (5, 24, 5, 1, 1, True)],
    "PSL(2,7)/S4": [(1, 24, 1, 1, 1, True), (6, 4, 6, 4, 2, True)],
    "PSL(2,11)/A5": [(1, 60, 1, 1, 1, True), (10, 6, 10, 4, 2, True)],
    "M11/M10": [(1, 720, 1, 1, 1, True), (10, 72, 6, 3, 1, True)],
    "random-1-dihedral-5-points": [
        (1, 2, 1, 1, 1, True), (2, 1, 2, 1, 1, True), (2, 1, 2, 1, 1, True)],
    "random-2-dihedral-8-points": [
        (1, 2, 1, 1, 1, True), (1, 2, 1, 1, 1, True), (2, 1, 2, 1, 1, True),
        (2, 1, 2, 1, 1, True), (2, 1, 2, 1, 1, True)],
    "random-3-dihedral-12-points": [
        (1, 2, 1, 1, 1, True), (1, 2, 1, 1, 1, True)]
        + [(2, 1, 2, 1, 1, True)] * 5,
    "random-5-quaternion-regular": [(1, 1, 1, 1, 1, True)] * 8,
    "random-6-paley-13": [
        (1, 6, 1, 1, 1, True), (6, 1, 6, 2, 1, True), (6, 1, 6, 2, 1, True)],
    "random-8-frobenius-20": [(1, 4, 1, 1, 1, True), (4, 1, 4, 2, 1, True)],
    "random-9-product-3x3": [
        (1, 4, 1, 1, 1, True), (2, 2, 2, 1, 1, True), (2, 2, 2, 1, 1, True),
        (4, 1, 4, 2, 1, True)],
    "random-10-johnson-5-2": [
        (1, 12, 1, 1, 1, True), (3, 4, 3, 2, 1, True), (6, 2, 6, 3, 1, True)],
}


def johnson_partition(n, k, seed):
    ctx, helper = johnson_context(n, k)
    return ctx, helper, classify(ctx, helper, seed=seed)


def corpus_partition(name):
    inst = next(i for i in corpus.all_instances() if i.name == name)
    ctx, helper, _ = corpus.build_context(inst, seed=0)
    return ctx, helper, classify(ctx, helper, seed=0)


@pytest.mark.parametrize("key", sorted(JOHNSON_PINS),
                         ids=lambda key: "J(%d,%d)-seed%d" % key)
def test_johnson_seal_timing(key):
    _, _, part = johnson_partition(*key)
    assert seal_timing(part) == JOHNSON_PINS[key]


def test_corpus_seal_timing():
    for name, want in CORPUS_PINS.items():
        _, _, part = corpus_partition(name)
        assert seal_timing(part) == want, name


def _single_chunk(ctx, helper, rec):
    """Whether the record's orbit is one K-orbit, so that it is covered in
    the first chunk."""
    seen = {rec.rep}
    frontier = [rec.rep]
    while frontier:
        y = frontier.pop()
        for k in helper.k_gens:
            img = ctx.domain.apply(y, k)
            if img not in seen:
                seen.add(img)
                frontier.append(img)
    return len(seen) == rec.length


def test_loops_are_sifted_only_when_a_seal_can_follow():
    cases = [johnson_partition(10, 2, 0), johnson_partition(8, 3, 2)]
    cases += [corpus_partition(name) for name in CORPUS_PINS]
    single = 0
    for ctx, helper, part in cases:
        v1_rec = part.records[0]
        assert v1_rec.rep == ctx.v1 and v1_rec.loops_sifted == 0
        for rec in part.records:
            assert 0 <= rec.loops_sifted <= rec.loops_seen
            if _single_chunk(ctx, helper, rec):
                single += 1
                assert rec.chunks == 1 and rec.loops_sifted == 0
    assert single > len(cases)
    # (seen, sifted) per record: the larger orbits need loops to seal, and
    # sifting stops at the seal
    loops = [[(r.loops_seen, r.loops_sifted) for r in part.records]
             for _, _, part in cases[:2]]
    assert loops == [[(8, 0), (44, 29), (74, 67)],
                     [(6, 0), (22, 22), (34, 17), (67, 50)]]
    assert "loops_s" not in str(cases[0][2].report())


def replay(ctx, reach):
    """The G-element a record's reach (stream seed, draw number) names:
    the draw's element, its inverse for a negative number, and the
    identity for 0."""
    seed, number = reach
    if number == 0:
        return ctx.domain.identity()
    stream = RandomStream(ctx.g_gens, seed)
    for _ in range(abs(number)):
        el, _ = stream.next()
    return el if number > 0 else stream.last_inverse()


def test_records_keep_the_element_of_their_reach():
    cases = [johnson_partition(8, 3, seed) for seed in range(2)]
    cases += [corpus_partition(name) for name in ("M11/M10", "PSL(2,11)/A5")]
    for seed, (ctx, helper, part) in zip([0, 1, 0, 0], cases):
        sctx = SchurContext(ctx, helper, part)
        assert part.records[0].reach == (seed, 0)
        for i, rec in enumerate(part.records, start=1):
            assert rec.reach[0] == seed
            el = replay(ctx, rec.reach)
            assert rec.reach_element == el
            assert ctx.domain.apply(ctx.v1, el) == rec.rep
            assert sctx.reaching_element(i) is rec.reach_element
