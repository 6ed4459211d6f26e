import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from endoperm import oracle
from endoperm.modular import (CartanDisagreement, InertFieldError,
                              LiftValidationError, SqrtConvention,
                              _block_diag_blocks, _column_blocks,
                              cartan_equivalent, cartan_from_regular,
                              decomposition_matrix, permutation_verdict,
                              projective_columns, reduce_table, reduce_value)
from endoperm.permgrp import GeneratedGroup, Permutation
from endoperm.quadfield import QuadraticNumber
from endoperm.schur import IntersectionMatrix
from endoperm.splitchar import build_table
from scenarios import ordered_tuples_instance


def table_for(Ggens, point=0):
    G = GeneratedGroup(Ggens)
    G.build_chain()
    H = G.stabilizer(point)
    act = oracle.coset_action(G, H)
    basis = oracle.commutant_basis(
        act, oracle.subgroup_coset_perms(act, H.gens))
    Ps = oracle.structure_constants(basis)
    lengths = [len(o) for o in basis.orbits]
    pairing = [p + 1 for p in oracle.orbit_pairing(act, basis.orbits)]
    mats = [IntersectionMatrix(j + 1, P, lengths)
            for j, P in enumerate(Ps)]
    return build_table(mats, lengths, pairing), mats, H


def test_sqrt_convention():
    conv = SqrtConvention(11)
    assert conv.resolve(3) == 5
    assert conv.resolve(33) == 0
    with pytest.raises(InertFieldError):
        conv.resolve(2)
    conv6 = SqrtConvention(11, {3: 6})
    assert conv6.resolve(3) == 6
    with pytest.raises(ValueError):
        SqrtConvention(11, {3: 4})
    # the least root, or InertFieldError, against brute force at every
    # prime below 256
    for p in (p for p in range(2, 256) if all(p % q for q in range(2, p))):
        conv = SqrtConvention(p)
        for n in range(1, p + 2):
            brute = [x for x in range(p) if (x * x - n) % p == 0]
            if brute:
                assert conv.resolve(n) == brute[0]
            else:
                with pytest.raises(InertFieldError):
                    conv.resolve(n)


def test_reduce_value_cases():
    conv = SqrtConvention(11, {3: 6})
    assert reduce_value(QuadraticNumber(3, -4, 3), conv) == 1
    assert reduce_value(QuadraticNumber(Fraction(1, 2)), conv) == 6
    conv2 = SqrtConvention(2)
    # (1 + r17)/2 reduces mod 2 (17 = 1 mod 8), (1 + r5)/2 does not
    ok = reduce_value(QuadraticNumber(Fraction(1, 2), Fraction(1, 2), 17),
                      conv2)
    assert ok in (0, 1)
    with pytest.raises(InertFieldError):
        reduce_value(QuadraticNumber(Fraction(1, 2), Fraction(1, 2), 5),
                     conv2)


def test_reduction_is_multiplicative():
    rng = random.Random(9)
    for p, n in ((11, 3), (11, 5), (13, 3), (7, 2)):
        conv = SqrtConvention(p)
        for _ in range(20):
            a = QuadraticNumber(rng.randrange(-9, 10),
                                rng.randrange(-9, 10), n)
            b = QuadraticNumber(rng.randrange(-9, 10),
                                rng.randrange(-9, 10), n)
            assert reduce_value(a * b, conv) == \
                reduce_value(a, conv) * reduce_value(b, conv) % p
            assert reduce_value(a + b, conv) == \
                (reduce_value(a, conv) + reduce_value(b, conv)) % p


def test_s5s4_local_at_5_split_at_3():
    tbl, mats, H = table_for([Permutation([1, 0, 2, 3, 4]),
                              Permutation([1, 2, 3, 4, 0])])
    v5 = permutation_verdict(tbl, mats, 5, h_order=H.order())
    assert v5.local and v5.indecomposable
    assert v5.projective_cover_answer == "permutation module"
    assert v5.cartan == [[2]]
    assert [row for row in v5.decomposition.entries] == [[1], [1]]
    v3 = permutation_verdict(tbl, mats, 3, h_order=H.order())
    assert not v3.local
    assert v3.projective_cover_answer is None  # 3 divides |S4|
    assert len(cartan_from_regular(mats, 5)["constituents"]) == 1
    assert len(cartan_from_regular(mats, 3)["constituents"]) == 2


def test_m11_miniature():
    m11 = GeneratedGroup([
        Permutation.from_cycles(11, [list(range(11))]),
        Permutation.from_cycles(11, [[2, 6, 10, 7], [3, 9, 4, 5]])])
    tbl, mats, H = table_for(m11.gens)
    v = permutation_verdict(tbl, mats, 11, h_order=H.order())
    assert v.local and v.projective_cover_answer == "permutation module"


def test_basic_set_corner_cases():
    tbl, mats, H = table_for([Permutation([1, 2, 3, 4, 0]),
                              Permutation([0, 4, 3, 2, 1])])
    # ramified at 5: rows collapse, single basic row
    D = decomposition_matrix(reduce_table(tbl, 5), 5)
    assert D.col_origins == [0]
    # split prime: all rows independent, identity decomposition
    D = decomposition_matrix(reduce_table(tbl, 11), 11)
    assert D.col_origins == [0, 1, 2]
    assert D.entries == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert D.transpose_product() == \
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_blocks_match_cartan_blocks():
    tbl, mats, H = table_for([Permutation([1, 2, 3, 4, 0]),
                              Permutation([0, 4, 3, 2, 1])])
    v = permutation_verdict(tbl, mats, 5, h_order=H.order())
    assert len(v.blocks) == 1
    assert v.cartan == [[3]]


def test_cartan_routes_agree_everywhere():
    for gens in ([Permutation([1, 0, 2, 3, 4]),
                  Permutation([1, 2, 3, 4, 0])],
                 [Permutation([1, 2, 3, 4, 0]),
                  Permutation([0, 4, 3, 2, 1])]):
        tbl, mats, H = table_for(gens)
        for p in (2, 3, 5, 11):
            try:
                v = permutation_verdict(tbl, mats, p, h_order=H.order())
            except (InertFieldError, LiftValidationError):
                continue
            reg = cartan_from_regular(mats, p)
            assert sorted(map(sorted, v.cartan)) == \
                sorted(map(sorted, reg["cartan"]))


def test_trivial_character_column():
    # the projective column attached to the trivial simple always carries
    # the trivial ordinary character with coefficient exactly 1
    tbl, mats, H = table_for([Permutation([1, 0, 2, 3, 4]),
                              Permutation([1, 2, 3, 4, 0])])
    v = permutation_verdict(tbl, mats, 5, h_order=H.order())
    cols = v.columns
    triv_label = next(f"phi{i + 1}" for i, row in enumerate(tbl.rows)
                      if row.degree == 1 and row.mult == 1
                      and all(x.b == 0 and x.a >= 0
                              for x in row.values))
    carrying = [c for c in cols if c["entries"].get(triv_label) == 1]
    assert len(carrying) == 1


def test_projective_columns_identity_matrix():
    tbl, mats, H = table_for([Permutation([1, 2, 3, 4, 0]),
                              Permutation([0, 4, 3, 2, 1])])
    D = decomposition_matrix(reduce_table(tbl, 11), 11)
    cols = projective_columns(D, tbl)
    for c in cols:
        assert sum(c["entries"].values()) == 1 and not c["ambiguous"]


def test_lift_validation_error_reported():
    # regular Q8 at p = 2: the multiplicity-2 row reduces to zero and the
    # character-based lift must refuse rather than fabricate entries
    from endoperm.corpus import _quaternion_gens, _regular_group
    G = _regular_group(_quaternion_gens(), 8)
    tbl, mats, H = table_for(G.gens)
    with pytest.raises(LiftValidationError):
        permutation_verdict(tbl, mats, 2, h_order=H.order())
    reg = cartan_from_regular(mats, 2)
    assert len(reg["constituents"]) == 1  # still answers locality


def test_cartan_disagreement_is_an_error_only_where_p_divides_h():
    # S5 on ordered pairs at p = 3 (|H| = 6), where the two routes differ:
    # a structured error when p divides |H|, an assertion otherwise, where
    # Brauer reciprocity makes the two equal
    tbl, mats, H = table_for(ordered_tuples_instance(5, 2, (3,)).group.gens)
    assert H.order() == 6
    with pytest.raises(CartanDisagreement):
        permutation_verdict(tbl, mats, 3, h_order=6)
    for h_order in (None, 4):
        with pytest.raises(AssertionError, match="Cartan matrices disagree"):
            permutation_verdict(tbl, mats, 3, h_order=h_order)


def _brute_components(n, linked):
    """Connected components of the graph on 0..n-1 with edge i - j when
    linked(i, j), by depth-first search; each sorted, by smallest vertex."""
    seen, comps = set(), []
    for s in range(n):
        if s in seen:
            continue
        seen.add(s)
        comp, stack = [], [s]
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if j not in seen and (linked(i, j) or linked(j, i)):
                    seen.add(j)
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def test_blocks_match_brute_force_components():
    rng = random.Random(20)
    for trial in range(200):
        n, k = rng.randint(1, 9), rng.randint(1, 9)
        density = rng.choice([0.05, 0.15, 0.3, 0.6])
        C = [[int(rng.random() < density) for _ in range(n)]
             for _ in range(n)]
        assert _block_diag_blocks(C) == _brute_components(
            n, lambda i, j: C[i][j])
        # a decomposition matrix: every column has a nonzero entry
        D = [[int(rng.random() < density) for _ in range(k)]
             for _ in range(n)]
        for c in range(k):
            D[rng.randrange(n)][c] = 1
        rows = _brute_components(
            n, lambda i, j: any(D[i][c] and D[j][c] for c in range(k)))
        assert _column_blocks(D) == [b for b in rows if any(D[b[0]])]


def _eye(k):
    return [[int(i == j) for j in range(k)] for i in range(k)]


# (labels, cartan, pim_dims) of the regular route on the manifest instances
# that stay in tier-1, at their listed primes, as computed by splitting the
# regular module into direct summands with random endomorphisms (the route
# the lifted idempotents of E/J replaced).  Simples of equal dimension come
# in the order the centre of E/J splits the head; three rows were re-pinned
# when that order replaced the order a seeded random search found them in
# (random-3-dihedral-12-points at 2 and 3, random-10-johnson-5-2 at 3), each
# the earlier row under one permutation of equal-dimension simples
REGULAR_CARTAN = [
    ("S4/S3", 2, ['1a'], [[2]], [2]),
    ("S4/S3", 3, ['1a', '1b'], _eye(2), [1, 1]),
    ("S5/S4", 5, ['1a'], [[2]], [2]),
    ("S5/S4", 3, ['1a', '1b'], _eye(2), [1, 1]),
    ("S5/S4", 2, ['1a', '1b'], _eye(2), [1, 1]),
    ("S6/S5", 2, ['1a'], [[2]], [2]),
    ("S6/S5", 3, ['1a'], [[2]], [2]),
    ("S6/S5", 5, ['1a', '1b'], _eye(2), [1, 1]),
    ("PSL(2,7)/S4", 7, ['1a'], [[2]], [2]),
    ("PSL(2,7)/S4", 3, ['1a', '1b'], _eye(2), [1, 1]),
    ("PSL(2,7)/S4", 2, ['1a', '1b'], _eye(2), [1, 1]),
    ("PSL(2,11)/A5", 11, ['1a'], [[2]], [2]),
    ("PSL(2,11)/A5", 5, ['1a', '1b'], _eye(2), [1, 1]),
    ("PSL(2,11)/A5", 3, ['1a', '1b'], _eye(2), [1, 1]),
    ("M11/M10", 11, ['1a'], [[2]], [2]),
    ("M11/M10", 3, ['1a', '1b'], _eye(2), [1, 1]),
    ("random-1-dihedral-5-points", 2, ['1a', '2a'], _eye(2), [1, 2]),
    ("random-1-dihedral-5-points", 5, ['1a'], [[3]], [3]),
    ("random-2-dihedral-8-points", 2, ['1a'], [[5]], [5]),
    ("random-2-dihedral-8-points", 7,
     ['1a', '1b', '1c', '1d', '1e'], _eye(5), [1, 1, 1, 1, 1]),
    ("random-3-dihedral-12-points", 2, ['1a', '1b'], [[3, 0], [0, 4]], [3, 4]),
    ("random-3-dihedral-12-points", 3,
     ['1a', '1b', '1c'], [[3, 0, 0], [0, 2, 0], [0, 0, 2]], [3, 2, 2]),
    ("random-3-dihedral-12-points", 11,
     ['1a', '1b', '1c', '1d', '1e', '1f', '1g'], _eye(7), [1] * 7),
    ("random-5-quaternion-regular", 2, ['1a'], [[8]], [8]),
    ("random-5-quaternion-regular", 3,
     ['1a', '1b', '1c', '1d', '2a'], _eye(5), [1, 1, 1, 1, 2]),
    ("random-6-paley-13", 3, ['1a', '1b', '1c'], _eye(3), [1, 1, 1]),
    ("random-6-paley-13", 13, ['1a'], [[3]], [3]),
    ("random-8-frobenius-20", 2, ['1a', '1b'], _eye(2), [1, 1]),
    ("random-8-frobenius-20", 5, ['1a'], [[2]], [2]),
    ("random-9-product-3x3", 2,
     ['1a', '1b', '1c', '1d'], _eye(4), [1, 1, 1, 1]),
    ("random-9-product-3x3", 3, ['1a'], [[4]], [4]),
    ("random-10-johnson-5-2", 2, ['1a', '1b'], [[1, 0], [0, 2]], [1, 2]),
    ("random-10-johnson-5-2", 3, ['1a', '1b'], [[1, 0], [0, 2]], [1, 2]),
    ("random-10-johnson-5-2", 5, ['1a', '1b'], [[2, 0], [0, 1]], [2, 1]),
]


def test_regular_cartan_on_the_corpus_is_pinned():
    from endoperm import corpus, pipeline
    instances = {inst.name: inst for inst in corpus.all_instances()}
    mats = {}
    for name, p, labels, cartan, pim_dims in REGULAR_CARTAN:
        if name not in mats:
            mats[name] = pipeline.oracle_instance(instances[name],
                                                  primes=[]).inter_mats
        reg = cartan_from_regular(mats[name], p)
        assert (reg["labels"], reg["cartan"], reg["pim_dims"]) == \
            (labels, cartan, pim_dims), (name, p)
    assert {name for name, *_ in REGULAR_CARTAN} == \
        set(instances) - {"random-7-paley-17", "random-4-dihedral-16-regular"}


def _brute_local_rings(mats, p):
    """(dim eE, dim J(eE)) for each primitive idempotent e of a commutative
    E_F, found by listing all p^r elements as combinations of the
    intersection matrices: e runs over the nonzero idempotents under which
    no other nonzero idempotent lies, dim eE is log_p of the number of
    products e y, and dim J(eE) is log_p of the nilpotent ones."""
    P = np.array([getattr(M, "entries", M) for M in mats], dtype=np.int64)
    r = len(P)
    coeffs = np.array(list(itertools.product(range(p), repeat=r)))
    elems = np.tensordot(coeffs, P, axes=1) % p
    idem = [x for x in elems[1:] if np.array_equal(x @ x % p, x)]
    primitive = [e for e in idem
                 if not any(np.array_equal(e @ f % p, f)
                            and not np.array_equal(e, f) for f in idem)]
    out = []
    for e in primitive:
        prods = {(e @ y % p).tobytes(): e @ y % p for y in elems}
        nil = 0
        for x in prods.values():
            power = x
            for _ in range(r):
                power = power @ x % p
            nil += not power.any()
        dims = [round(math.log(n, p)) for n in (len(prods), nil)]
        assert [p ** k for k in dims] == [len(prods), nil]
        out.append(tuple(dims))
    return out


def test_regular_cartan_against_brute_force_local_rings():
    # every corpus instance and listed prime with p^r <= 3^7 and E
    # commutative: E_F is the sum of the local rings eE_F, so C is
    # diagonal with entry dim eE / (dim eE - dim J(eE)) = [P : S] for the
    # simple S of dimension dim eE - dim J(eE)
    from endoperm import corpus, pipeline
    pairs = 0
    for inst in corpus.all_instances():
        mats = pipeline.oracle_instance(inst, primes=[]).inter_mats
        P = np.array(mats, dtype=np.int64)
        r = len(P)
        if any(not np.array_equal(A @ B, B @ A) for A in P for B in P):
            continue
        for p in inst.primes:
            if p ** r > 3 ** 7:
                continue
            pairs += 1
            rings = _brute_local_rings(mats, p)
            reg = cartan_from_regular(mats, p)
            C = reg["cartan"]
            k = len(C)
            assert all(C[i][j] == 0 for i in range(k) for j in range(k)
                       if i != j), (inst.name, p)
            assert sorted(C[i][i] for i in range(k)) == sorted(
                dim // (dim - nil) for dim, nil in rings), (inst.name, p)
            assert sorted(reg["pim_dims"]) == sorted(
                dim for dim, _ in rings), (inst.name, p)
            assert sum(dim for dim, _ in rings) == r
    assert pairs == 30


def test_cartan_equivalence_is_one_simultaneous_permutation():
    def cycle_graph(edges, n=6):
        A = [[3 * (i == j) for j in range(n)] for i in range(n)]
        for i, j in edges:
            A[i][j] = A[j][i] = 1
        return A

    triangles = cycle_graph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    hexagon = cycle_graph([(i, (i + 1) % 6) for i in range(6)])
    # equal diagonals and equal sorted rows, so equal multisets of
    # (diagonal, sorted row), yet no relabelling maps one to the other
    def signatures(C):
        return sorted((C[i][i], sorted(C[i])) for i in range(len(C)))

    assert signatures(triangles) == signatures(hexagon)
    assert not cartan_equivalent(triangles, hexagon)
    assert not cartan_equivalent(hexagon, triangles)
    relabel = [4, 0, 5, 2, 1, 3]
    moved = [[0] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(6):
            moved[relabel[i]][relabel[j]] = hexagon[i][j]
    assert moved != hexagon and cartan_equivalent(hexagon, moved)
    assert cartan_equivalent([[2, 1], [0, 3]], [[3, 0], [1, 2]])
    assert not cartan_equivalent([[2, 1], [0, 3]], [[3, 1], [0, 2]])
    assert not cartan_equivalent([[1]], [[1, 0], [0, 1]])
