from itertools import combinations

import pytest

from endoperm import oracle, orbenum
from endoperm.corpus import build_context, named_instances
from endoperm.orbenum import classify
from endoperm.permgrp import GeneratedGroup, Permutation
from endoperm.schur import (AlgebraClosure, IntegralityError,
                            IntersectionMatrix, SchurContext,
                            algebra_closure, all_intersection_matrices,
                            count_images, generate_endomorphism_ring,
                            intersection_matrix,
                            validate_intersection_matrix)
from scenarios import johnson_context


def setup_instance(name, seed=1):
    inst = next(i for i in named_instances() if i.name == name)
    ctx, helper, H = build_context(inst, seed=seed)
    part = classify(ctx, helper, seed=seed)
    return inst, ctx, helper, part, SchurContext(ctx, helper, part,
                                                 seed=seed)


def oracle_mats(inst):
    G = inst.group
    G.build_chain()
    H = G.stabilizer(inst.base_point)
    act = oracle.coset_action(G, H)
    basis = oracle.commutant_basis(
        act, oracle.subgroup_coset_perms(act, H.gens))
    return oracle.structure_constants(basis)


def test_single_point_counting():
    inst, ctx, helper, part, sctx = setup_instance("S5/S4")
    # c_1k(g) is the indicator of which orbit v1 g falls into
    for i in (1, 2):
        counts = count_images(sctx, 1, sctx.reaching_element(i))
        assert sum(counts) == 1
    # identity element: c_jk = n_j delta_jk
    ident = ctx.domain.identity()
    for j in (1, 2):
        counts = count_images(sctx, j, ident)
        want = [0] * sctx.r
        want[j - 1] = sctx.lengths[j - 1]
        assert counts == want


def test_s5_s4_full_count_table():
    inst, ctx, helper, part, sctx = setup_instance("S5/S4")
    P2 = intersection_matrix(sctx, 2)
    assert P2.entries == [[0, 1], [4, 3]]
    Ps = oracle_mats(inst)
    for j in (1, 2):
        mine = intersection_matrix(sctx, j)
        assert mine.entries == Ps[j - 1]
    # orbit counting number directly
    assert count_images(sctx, 2, sctx.reaching_element(2))[2 - 1] == 3


def test_intersection_matrix_validation():
    lengths = [1, 4]
    good = [[0, 1], [4, 3]]
    validate_intersection_matrix(good, 2, lengths)
    with pytest.raises(IntegralityError):
        validate_intersection_matrix([[1, 0], [4, 3]], 2, lengths)
    with pytest.raises(IntegralityError):
        validate_intersection_matrix([[0, 1], [4, 2]], 2, lengths)


def test_closure_and_recovery():
    inst, ctx, helper, part, sctx = setup_instance("S5/S4")
    P1 = IntersectionMatrix(1, [[1, 0], [0, 1]], sctx.lengths)
    assert algebra_closure([P1], 2).dimension == 1
    P2 = intersection_matrix(sctx, 2)
    clo = algebra_closure([P2], 2, lengths=sctx.lengths)
    assert clo.dimension == 2
    assert clo.recover(1).entries == [[1, 0], [0, 1]]
    assert clo.recover(2) == P2


def test_recover_matches_direct_count_everywhere():
    for name in ("S5/S4", "PSL(2,7)/S4"):
        inst, ctx, helper, part, sctx = setup_instance(name)
        mats, clo, _ = all_intersection_matrices(sctx)
        Ps = oracle_mats(inst)
        assert [m.entries for m in mats] == Ps
        # recovery reproduces the counted matrices too
        for j in range(1, sctx.r + 1):
            assert clo.recover(j).entries == Ps[j - 1]


def test_paired_orbits_have_equal_lengths():
    x = Permutation([(i + 1) % 7 for i in range(7)])
    y = Permutation([(2 * i) % 7 for i in range(7)])
    from endoperm.corpus import Instance
    inst = Instance("F21", GeneratedGroup([x, y]))
    ctx, helper, H = build_context(inst, seed=11)
    part = classify(ctx, helper, seed=11)
    for j, jstar in enumerate(part.pairing(), start=1):
        assert part.lengths()[j - 1] == part.lengths()[jstar - 1]
    sctx = SchurContext(ctx, helper, part, seed=11)
    mats, clo, _ = all_intersection_matrices(sctx)
    assert clo.dimension == 3
    assert [m.entries for m in mats] == oracle_mats(inst)


def test_generate_stops_at_full_dimension():
    inst, ctx, helper, part, sctx = setup_instance("S6/S5")
    closure, computed = generate_endomorphism_ring(sctx)
    assert closure.dimension == sctx.r
    assert 1 in computed


# ---------------------------------------------------------------------------
# locate on the F_2 vector domain of J(n, k) (`scenarios.johnson_context`).

def vector_scenario(n, k, seed=0):
    ctx, helper = johnson_context(n, k)
    part = classify(ctx, helper, seed=seed)
    return ctx, SchurContext(ctx, helper, part, seed=seed)


def weight_vectors(n, k):
    for support in combinations(range(n), k):
        v = [0] * n
        for i in support:
            v[i] = 1
        yield bytes(v)


@pytest.fixture
def counted_walks(monkeypatch):
    """Count the calls to orbenum.walk; the list holds each call's budget."""
    budgets = []
    real = orbenum.walk

    def counting(ctx, helper, index, x, rng, budget=200):
        budgets.append(budget)
        return real(ctx, helper, index, x, rng, budget)

    monkeypatch.setattr(orbenum, "walk", counting)
    return budgets


@pytest.mark.parametrize("n,k", [(7, 2), (8, 3)])
def test_locate_agrees_with_exhaustive_orbits(n, k, counted_walks):
    ctx, sctx = vector_scenario(n, k, seed=3)
    assert sctx.r == k + 1
    orbit_of = {}
    for j in range(1, sctx.r + 1):
        for x in sctx.orbit_points(j):
            orbit_of[x] = j
    points = list(weight_vectors(n, k))
    assert sorted(orbit_of) == sorted(points)
    for x in points:
        del counted_walks[:]
        assert sctx.locate(x) == orbit_of[x]
        # one walk per round, however many orbits there are
        assert 1 <= len(counted_walks) <= 5
        assert counted_walks == [200 * 4 ** i
                                 for i in range(len(counted_walks))]


def test_locate_returns_none_only_after_every_round_fails(monkeypatch):
    ctx, sctx = vector_scenario(7, 2, seed=1)
    real = orbenum.walk
    budgets, misses = [], []

    def flaky(ctx, helper, index, x, rng, budget=200):
        """orbenum.walk, made to miss while `misses` has entries."""
        budgets.append(budget)
        if misses:
            misses.pop()
            return None
        return real(ctx, helper, index, x, rng, budget)

    monkeypatch.setattr(orbenum, "walk", flaky)
    outside = bytes([1, 1, 1, 0, 0, 0, 0])     # weight 3: in no H-orbit
    assert sctx.locate(outside, rounds=3) is None
    assert budgets == [200, 800, 3200]
    # a point of orbit 2 whose first two walks miss is found in round 3
    x = next(iter(sctx.partition.records[1].store))
    budgets[:], misses[:] = [], [None] * 2
    assert sctx.locate(x, rounds=3) == 2
    assert budgets == [200, 800, 3200]
    budgets[:], misses[:] = [], [None] * 3
    assert sctx.locate(x, rounds=3) is None
    assert budgets == [200, 800, 3200]
