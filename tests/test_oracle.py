import random
from fractions import Fraction

import numpy as np
import pytest

from endoperm import oracle
from endoperm.permgrp import (GeneratedGroup, Permutation,
                              closure_elements)


def sym(n):
    return GeneratedGroup([Permutation([1, 0] + list(range(2, n))),
                           Permutation(list(range(1, n)) + [0])])


def test_coset_action_whole_group():
    s4 = sym(4)
    act = oracle.coset_action(s4, s4)
    assert act.degree == 1


def test_coset_action_s5_s4():
    s5 = sym(5)
    h = s5.stabilizer(0)
    act = oracle.coset_action(s5, h)
    assert act.degree == 5
    # natural: the action on cosets is equivalent to the point action
    for g, perm in zip(s5.gens, act.gen_perms):
        assert sorted(perm.images) == list(range(5))


def test_psl211_a5_is_two_transitive():
    from endoperm.corpus import _psl2_11_degree11
    G = _psl2_11_degree11()
    assert G.degree == 11 and G.order() == 660
    h = G.stabilizer(0)
    assert h.order() == 60
    act = oracle.coset_action(G, h)
    basis = oracle.commutant_basis(
        act, oracle.subgroup_coset_perms(act, h.gens))
    assert basis.rank == 2  # rank 2 <=> 2-transitive


def test_rank2_orbitals_are_I_and_JminusI():
    s5 = sym(5)
    h = s5.stabilizer(0)
    act = oracle.coset_action(s5, h)
    basis = oracle.commutant_basis(
        act, oracle.subgroup_coset_perms(act, h.gens))
    n = act.degree
    assert np.array_equal(basis.mats[0], np.eye(n, dtype=np.int64))
    assert np.array_equal(basis.mats[1],
                          np.ones((n, n), dtype=np.int64)
                          - np.eye(n, dtype=np.int64))
    Ps = oracle.structure_constants(basis)
    # (J - I)^2 = 4 I + 3 (J - I)
    assert Ps[1] == [[0, 1], [4, 3]]


def test_rank_equals_permutation_character_inner_product():
    # brute-force inner product <1_H^G, 1_H^G> = average fixed points^2
    rng = random.Random(2)
    cases = [sym(4), sym(5),
             GeneratedGroup([Permutation([1, 2, 3, 4, 0]),
                             Permutation([0, 4, 3, 2, 1])]),
             GeneratedGroup([Permutation([(i + 1) % 7 for i in range(7)]),
                             Permutation([(2 * i) % 7 for i in range(7)])])]
    for G in cases:
        G.build_chain()
        h = G.stabilizer(0)
        act = oracle.coset_action(G, h)
        basis = oracle.commutant_basis(
            act, oracle.subgroup_coset_perms(act, h.gens))
        # fixed points of g on cosets equal fixed points on the original
        # points because H is a point stabilizer here
        elements = closure_elements(G.gens, G.degree, 10000)
        total = sum(sum(1 for x, y in enumerate(p.images) if x == y) ** 2
                    for p in elements)
        assert total % len(elements) == 0
        assert basis.rank == total // len(elements)


def test_structure_constants_verified_entrywise():
    G = GeneratedGroup([Permutation([1, 2, 3, 4, 0]),
                        Permutation([0, 4, 3, 2, 1])])
    h = G.stabilizer(0)
    act = oracle.coset_action(G, h)
    basis = oracle.commutant_basis(
        act, oracle.subgroup_coset_perms(act, h.gens))
    Ps = oracle.structure_constants(basis)
    r = basis.rank
    for i in range(r):
        for j in range(r):
            M = basis.mats[i] @ basis.mats[j]
            recon = sum(Ps[j][i][k] * basis.mats[k] for k in range(r))
            assert np.array_equal(M, recon)


def test_char_table_commutative_quadratic():
    G = GeneratedGroup([Permutation([1, 2, 3, 4, 0]),
                        Permutation([0, 4, 3, 2, 1])])
    h = G.stabilizer(0)
    act = oracle.coset_action(G, h)
    basis = oracle.commutant_basis(
        act, oracle.subgroup_coset_perms(act, h.gens))
    rows = oracle.char_table_commutative(basis)
    assert [deg for _, _, deg in rows] == [1, 2, 2]
    assert sum(deg for _, _, deg in rows) == 5
    values = rows[1][0]
    assert values[1].n == 5


def test_char_table_refuses_noncommutative():
    from endoperm.corpus import _quaternion_gens, _regular_group
    G = _regular_group(_quaternion_gens(), 8)
    h = G.stabilizer(0)
    act = oracle.coset_action(G, h)
    basis = oracle.commutant_basis(act, [])
    with pytest.raises(oracle.NonCommutativeCommutant):
        oracle.char_table_commutative(basis)


def test_direct_endo_decomposition_cases():
    s5 = sym(5)
    h = s5.stabilizer(0)
    act = oracle.coset_action(s5, h)
    basis = oracle.commutant_basis(
        act, oracle.subgroup_coset_perms(act, h.gens))
    Ps = oracle.structure_constants(basis)
    at5 = oracle.direct_endo_decomposition(Ps, 5)
    assert at5["local"] and at5["cartan"] == [[2]]
    at3 = oracle.direct_endo_decomposition(Ps, 3)
    assert not at3["local"]
    assert sorted(map(sorted, at3["cartan"])) == [[0, 1], [0, 1]]
    # rank-1 action: E = F, local
    one = oracle.coset_action(s5, s5)
    b1 = oracle.commutant_basis(one, [])
    assert oracle.direct_endo_decomposition(
        oracle.structure_constants(b1), 7)["local"]
