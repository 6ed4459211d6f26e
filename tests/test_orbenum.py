import json
import random

import numpy as np
import pytest

from endoperm import orbenum
from endoperm.corpus import (all_instances, build_context, instance_scenario,
                             named_instances)
from endoperm.gfmat import FqMatrix
from endoperm.orbenum import (ActionContext, HelperNotEquivariant,
                              HelperSetup, MemoryBudgetExceeded,
                              NotCertifiedMember, PermutationDomain,
                              VectorDomain, classify,
                              enumerate_suborbit, load_scenario,
                              membership, memory_estimate, normalize_point,
                              probe_fixed_space, trace_element)
from endoperm.permgrp import (GeneratedGroup, Permutation, evaluate_word,
                              orbit_tree)
from scenarios import johnson_context


def make_ctx(G, point=0, k_words=None, quotient=None, seed=0):
    G.build_chain()
    H, _ = G.stabilizer_with_words(point)
    dom = PermutationDomain(G.degree)
    ctx = ActionContext(dom, G.gens, H.gens, point, faithful_h=H,
                        target_index=G.order() // H.order(), seed=seed)
    if k_words is None:
        k_words = [((i, 1),) for i in range(min(1, len(H.gens)))]
    return ctx, HelperSetup(ctx, k_words, quotient), H


def s5():
    return GeneratedGroup([Permutation([1, 0, 2, 3, 4]),
                           Permutation([1, 2, 3, 4, 0])])


def test_base_point_must_be_fixed():
    G = s5()
    G.build_chain()
    H, hw = G.stabilizer_with_words(0)
    with pytest.raises(ValueError):
        ActionContext(PermutationDomain(5), G.gens, H.gens, 1,
                      faithful_h=H)


def test_trivial_orbit_of_base_point():
    ctx, helper, H = make_ctx(s5())
    rec = enumerate_suborbit(ctx, helper, ctx.v1, {})
    assert rec.length == 1 and rec.stab_order == H.order()


def test_s5_s4_lengths():
    ctx, helper, H = make_ctx(s5())
    part = classify(ctx, helper, seed=1)
    assert part.lengths() == [1, 4]
    assert part.residual == 0
    for rec in part.records:
        assert rec.length * rec.stab_order == H.order()
        assert 2 * rec.covered > rec.length


def test_psl211_a5_two_transitive():
    from endoperm.corpus import _psl2_11_degree11
    ctx, helper, H = make_ctx(_psl2_11_degree11(), seed=2)
    part = classify(ctx, helper, seed=2)
    assert part.lengths() == [1, 10]


def test_pairing_non_self_paired():
    x = Permutation([(i + 1) % 7 for i in range(7)])
    y = Permutation([(2 * i) % 7 for i in range(7)])
    ctx, helper, H = make_ctx(GeneratedGroup([x, y]), seed=11)
    part = classify(ctx, helper, seed=11)
    assert part.lengths() == [1, 3, 3]
    assert part.pairing() == [1, 3, 2]


def test_membership_one_sided():
    ctx, helper, H = make_ctx(s5())
    part = classify(ctx, helper, seed=1)
    rec1, rec2 = part.records
    rng = random.Random(0)
    # a stored point answers True immediately
    some = next(iter(rec2.store))
    assert membership(ctx, helper, rec2, some, rng, budget=0) is True
    # points of the other orbit can never come back True
    for pt in range(5):
        if pt == ctx.v1:
            assert membership(ctx, helper, rec1, pt, rng, 50) is True
        else:
            assert membership(ctx, helper, rec1, pt, rng, 50) == "unknown"


def test_disjointness_matches_exhaustive_partition():
    """An enumeration against the kept records' stored keys stops at the
    record of its start's orbit, from every point and every stored key;
    against no keys it builds a new record of that orbit."""
    ctx, helper, H = make_ctx(s5())
    part = classify(ctx, helper, seed=1)
    for rec in part.records:
        orbit, _ = orbit_tree(rec.rep, ctx.h_gens, ctx.domain.apply)
        for x in set(orbit) | set(rec.store):
            assert enumerate_suborbit(ctx, helper, x, part.record_of) is rec
        fresh = enumerate_suborbit(ctx, helper, next(iter(rec.store)), {})
        assert all(fresh is not kept for kept in part.records)
        assert fresh.length == rec.length


@pytest.mark.parametrize("n, k, seed", [(14, 3, 1), (14, 3, 2), (16, 4, 2)])
def test_classify_keeps_every_record_it_enumerates(monkeypatch, n, k, seed):
    """An enumeration of a kept orbit returns the kept record, so `classify`
    throws no enumeration away."""
    ctx, helper = johnson_context(n, k)
    returned = []
    real = orbenum.enumerate_suborbit

    def spy(*args):
        returned.append(real(*args))
        return returned[-1]

    monkeypatch.setattr(orbenum, "enumerate_suborbit", spy)
    part = classify(ctx, helper, seed=seed)
    assert len(returned) > len(part.records)
    assert all(any(rec is kept for kept in part.records) for rec in returned)


def _s5_context():
    ctx, helper, _ = make_ctx(s5())
    return ctx, helper


def _fibered_context():
    """S_6 over H = S_5 on {1, ..., 5} with K = <(1 2 3 4)> and the
    quotient {0}, {1, 2, 3, 4}, {5}: K fixes every class, so the stored
    points of {1, 2, 3, 4} form one fiber, each reached from the last."""
    G = GeneratedGroup([Permutation.from_cycles(6, [[0, 1]]),
                        Permutation.from_cycles(6, [[0, 1, 2, 3, 4, 5]])])
    h_gens = [Permutation.from_cycles(6, c)
              for c in ([[1, 2, 3, 4]], [[1, 2]], [[4, 5]])]
    ctx = ActionContext(PermutationDomain(6), G.gens, h_gens, 0,
                        faithful_h=GeneratedGroup(h_gens, 6), target_index=6)
    return ctx, HelperSetup(ctx, [((0, 1),)], [0, 1, 1, 1, 1, 2])


@pytest.mark.parametrize("make", [_s5_context, _fibered_context,
                                  lambda: johnson_context(8, 3)],
                         ids=["S5-S4", "S6-S5-fibers", "J(8,3)-vectors"])
def test_trace_element_verified_by_action(make):
    ctx, helper = make()
    dom = ctx.domain
    route = (helper.k_gens, ctx.h_gens, dom.identity())
    part = classify(ctx, helper, seed=1)
    for rec in part.records[1:]:
        for key, (parent, edge) in rec.store.items():
            start = rec.rep if parent is None else parent
            assert dom.apply(start, helper.edge_element(edge, *route)) == key
            h = trace_element(ctx, helper, rec, key)
            assert dom.apply(rec.rep, h) == key
        # the representative's edge t(q)^-1 and its t(q) cancel
        assert trace_element(ctx, helper, rec, rec.rep) == dom.identity()
        # random covered points, via a walk
        pt = rec.rep
        rng = random.Random(5)
        for _ in range(10):
            pt = dom.apply(pt, ctx.h_gens[rng.randrange(len(ctx.h_gens))])
            z, q = normalize_point(helper, pt)
            t = helper.edge_element((helper.tree_word(q), None, None), *route)
            assert dom.apply(z, t) == pt
            if membership(ctx, helper, rec, pt, rng, 200) is True:
                h = trace_element(ctx, helper, rec, pt)
                assert dom.apply(rec.rep, h) == pt
        with pytest.raises(NotCertifiedMember):
            trace_element(ctx, helper, rec, ctx.v1)


def test_faithful_and_domain_edge_elements_agree():
    # a corpus instance's faithful H is H itself on the same points, so
    # both routes of `edge_element` evaluate every edge to one permutation
    for inst in all_instances():
        ctx, helper, _ = build_context(inst)
        part = classify(ctx, helper)
        ident = ctx.domain.identity()
        faithful = (helper.k_group.gens, ctx.faithful_h.gens, ident)
        domain = (helper.k_gens, ctx.h_gens, ident)
        for rec in part.records:
            for _, edge in rec.store.values():
                assert helper.edge_element(edge, *faithful) == \
                    helper.edge_element(edge, *domain)


def test_saving_factor_bounds():
    # trivial K: factor 1
    ctx, helper, H = make_ctx(s5(), k_words=[])
    assert helper.k_order == 1
    part = classify(ctx, helper, seed=1)
    assert all(r.saving_factor() == 1 for r in part.records)
    # K = H = C3 acts regularly on both 3-point orbits of the Frobenius
    # group of order 21, so those records reach the |K| bound exactly
    x = Permutation([(i + 1) % 7 for i in range(7)])
    y = Permutation([(2 * i) % 7 for i in range(7)])
    ctx, helper, H = make_ctx(GeneratedGroup([x, y]), seed=4)
    assert helper.k_order == 3
    part = classify(ctx, helper, seed=4)
    assert [r.saving_factor() for r in part.records] == [1, 3, 3]
    for rec in part.records:
        assert rec.saving_factor() <= helper.k_order


def test_classify_deterministic_across_seeds():
    sigs = set()
    for seed in range(5):
        ctx, helper, H = make_ctx(
            GeneratedGroup([Permutation([1, 2, 3, 4, 0]),
                            Permutation([0, 4, 3, 2, 1])]), seed=seed)
        part = classify(ctx, helper, seed=seed)
        sigs.add((tuple(part.lengths()), tuple(part.pairing()),
                  tuple(r.stab_order for r in part.records)))
    assert len(sigs) == 1


def test_min_point_tiebreak_only_between_equal_lengths(monkeypatch):
    # finding a minimal orbit point enumerates the orbit, so classify asks
    # for one only where two lengths tie
    real = orbenum.orbit_min_key
    asked = []

    def counted(ctx, record):
        asked.append(record.length)
        return real(ctx, record)

    monkeypatch.setattr(orbenum, "orbit_min_key", counted)
    ctx, helper = johnson_context(10, 2)
    assert classify(ctx, helper, seed=1).lengths() == [1, 16, 28]
    assert asked == []
    # the Frobenius group of order 21 from its point 0: C3 has two orbits
    # of 3 points, ordered by their minimal points whatever the seed
    x = Permutation([(i + 1) % 7 for i in range(7)])
    y = Permutation([(2 * i) % 7 for i in range(7)])
    orders = set()
    for seed in range(4):
        asked.clear()
        ctx, helper, H = make_ctx(GeneratedGroup([x, y]), seed=seed)
        part = classify(ctx, helper, seed=seed)
        assert part.lengths() == [1, 3, 3] and sorted(asked) == [3, 3]
        mins = [real(ctx, rec) for rec in part.records[1:]]
        assert mins == sorted(mins)
        orders.add(tuple(mins))
    assert len(orders) == 1


def test_memory_budget():
    ctx, helper, H = make_ctx(s5(), k_words=[])
    ctx.memory_limit = 1
    with pytest.raises(MemoryBudgetExceeded):
        enumerate_suborbit(ctx, helper, 1, {})


def test_memory_estimate_numbers():
    dom = VectorDomain(2, 112)
    assert dom.point_bytes() == 18
    ctx, helper, H = make_ctx(s5())
    est = memory_estimate(ctx)
    assert est["full_orbit_bytes"] == 5 * est["bytes_per_point"]


def test_vector_domain_with_projection():
    def permmat(images):
        M = np.zeros((len(images), len(images)), dtype=int)
        for i, j in enumerate(images):
            M[i, j] = 1
        return FqMatrix(2, M)

    g1, g2 = permmat([1, 0, 2, 3]), permmat([1, 2, 3, 0])
    s4 = GeneratedGroup([Permutation([1, 0, 2, 3]),
                         Permutation([1, 2, 3, 0])])
    s4.build_chain()
    H, h_words = s4.stabilizer_with_words(3)
    mats = [evaluate_word(w, [g1, g2], FqMatrix.identity(2, 4))
            for w in h_words]
    dom = VectorDomain(2, 4)
    ctx = ActionContext(dom, [g1, g2], mats, dom.encode([0, 0, 0, 1]),
                        faithful_h=H, target_index=4)
    proj = FqMatrix(2, [[1, 0], [1, 0], [0, 1], [0, 1]])
    helper = HelperSetup(ctx, [((0, 1),)], proj)
    part = classify(ctx, helper, seed=2)
    assert part.lengths() == [1, 3]


def test_vector_encode_gives_one_key_per_vector():
    dom = VectorDomain(2, 4)
    assert dom.encode([1, 0, 1, 0]) == bytes([1, 0, 1, 0])
    assert dom.encode(np.array([1, 0, 1, 0], dtype=np.uint8)) \
        == dom.encode(np.array([1, 0, 1, 0], dtype=np.int64))
    for bad in ([3, 0, 1, 0], [1, 0, 1], [1, 0, 1, 0, 0], [-1, 0, 0, 0],
                [0.0, 1.0, 0.0, 0.0], [[1, 0], [1, 0]], None, 5):
        with pytest.raises(ValueError):
            dom.encode(bad)
    with pytest.raises(ValueError):
        VectorDomain(3, 2).encode([0, 3])
    for p, dim in ((2, 4), (3, 3)):
        dom = VectorDomain(p, dim)
        for x in dom.points():
            assert dom.encode(list(x)) == x


def test_quotient_equivariance_checked():
    ctx, helper, H = make_ctx(s5())
    # a mapping that identifies points across K-orbits inconsistently
    with pytest.raises((HelperNotEquivariant, ValueError)):
        HelperSetup(ctx, [((0, 1),)], [0, 0, 1, 2, 3])


def test_probe_fixed_space_finds_representative():
    ctx, helper, H = make_ctx(s5())
    part = classify(ctx, helper, seed=1)
    # S = the subgroup of H fixing point 1 as well; its fixed points
    # include a representative of the length-4 orbit
    S = H.stabilizer(1)
    found = probe_fixed_space(ctx, helper, part, S.gens, 4, seed=3)
    assert found is not None
    v, element = found
    assert element in GeneratedGroup(ctx.g_gens)
    assert ctx.domain.apply(ctx.v1, element) == v
    assert all(ctx.domain.apply(v, s) == v for s in S.gens)
    assert len(orbit_tree(v, ctx.h_gens, ctx.domain.apply)[0]) == 4


def test_scenario_roundtrip():
    inst = named_instances()[1]
    data = instance_scenario(inst, seed=5)
    blob = json.loads(json.dumps(data))
    ctx, helper = load_scenario(blob)
    part = classify(ctx, helper, seed=5)
    assert part.lengths() == [1, 4]
    assert ctx.h_order == 24


def _perm_matrix(p, images):
    M = np.zeros((len(images), len(images)), dtype=int)
    M[np.arange(len(images)), images] = 1
    return FqMatrix(p, M)


def _permutation_case():
    dom = PermutationDomain(7)
    k = Permutation([1, 0, 2, 3, 4, 6, 5])
    gens = [k, Permutation([0, 1, 3, 2, 4, 5, 6])]
    return dict(
        dom=dom, gens=gens, k=k, nonzero=lambda x: True,
        point=(3, 2), foreign_point={"vector": [1, 0, 0, 0, 0, 0, 0]},
        foreign_quotient={"projection": [[1]] * 7},
        equivariant=[0, 0, 1, 2, 3, 4, 4],
        not_equivariant=[0, 1, 1, 2, 3, 4, 4],
        not_surjective=[0, 0, 2, 2, 3, 4, 4])


def _vector_case(p, dim):
    dom = VectorDomain(p, dim)
    k = _perm_matrix(p, [1, 0] + list(range(2, dim)))
    cycle = _perm_matrix(p, [0, 1] + [2 + (i + 1) % (dim - 2)
                                      for i in range(dim - 2)])
    e0 = [1] + [0] * (dim - 1)
    zero = dom.encode([0] * dim)
    return dict(
        dom=dom, gens=[k, cycle], k=k, nonzero=lambda x: x != zero,
        point=({"vector": e0}, dom.encode(e0)), foreign_point=1,
        foreign_quotient={"mapping": [1] * dim},
        equivariant=[[1], [1]] + [[0]] * (dim - 2),
        not_equivariant=[[1]] + [[0]] * (dim - 1),
        not_surjective=[[1, 1], [1, 1]] + [[0, 0]] * (dim - 2))


@pytest.mark.parametrize("make", [
    _permutation_case, lambda: _vector_case(2, 5),
    lambda: _vector_case(3, 3)], ids=["perm-7", "F2^5", "F3^3"])
def test_domain_contract(make):
    case = make()
    dom, k = case["dom"], case["k"]
    points = dom.points()
    assert len(points) == len(set(points)) == dom.size
    for gens in ([], case["gens"][:1], case["gens"]):
        want = [x for x in points if case["nonzero"](x)
                and all(dom.apply(x, g) == x for g in gens)]
        assert sorted(dom.fixed_points(gens)) == sorted(want)
    assert dom.quotient([k], None)[0] is dom
    q_dom, project, (q_k,) = dom.quotient([k], case["equivariant"])
    assert {project(x) for x in points} == set(q_dom.points())
    for x in points:
        assert project(dom.apply(x, k)) == q_dom.apply(project(x), q_k)
    with pytest.raises(HelperNotEquivariant):
        dom.quotient([k], case["not_equivariant"])
    with pytest.raises(ValueError) as exc:
        dom.quotient([k], case["not_surjective"])
    assert not isinstance(exc.value, HelperNotEquivariant)
    text, point = case["point"]
    assert dom.parse_point(text) == point
    with pytest.raises(ValueError):
        dom.parse_point(case["foreign_point"])
    with pytest.raises(ValueError):
        dom.parse_quotient(case["foreign_quotient"])
