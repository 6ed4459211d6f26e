import random
from fractions import Fraction

import pytest
import sympy

from endoperm import oracle, zpoly
from endoperm.quadfield import QuadraticNumber
from endoperm.permgrp import GeneratedGroup, Permutation, closure_elements
from endoperm.schur import IntersectionMatrix
from endoperm.splitchar import (CharRow, EndoCharTable,
                                UnsupportedComponentError, build_table,
                                char_poly, fitting_degree,
                                homogeneous_components_center, verify_table,
                                _split_quartic)


def oracle_setup(Ggens, point=0):
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
    return mats, lengths, pairing, basis


def test_char_poly_basics():
    ident = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert char_poly(ident) == (-1, 3, -3, 1)
    rng = random.Random(8)
    x = sympy.symbols("x")
    for trial in range(10):
        n = rng.randrange(1, 7)
        M = [[rng.randrange(-50, 51) for _ in range(n)] for _ in range(n)]
        mine = char_poly(M)
        theirs = sympy.Poly(sympy.Matrix(M).charpoly(x), x).all_coeffs()
        assert list(mine) == list(reversed([int(c) for c in theirs]))


def test_char_poly_is_a_similarity_invariant_over_q():
    rng = random.Random(31)
    done = 0
    while done < 6:
        n = rng.randrange(2, 6)
        A = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        T = sympy.Matrix(n, n, lambda i, j: sympy.Rational(
            rng.randrange(-7, 8), rng.randrange(1, 6)))
        if T.det() == 0:
            continue
        conj = T.inv() * sympy.Matrix(A) * T
        B = [[Fraction(int(x.p), int(x.q)) for x in conj.row(i)]
             for i in range(n)]
        assert any(x.denominator != 1 for row in B for x in row)
        assert char_poly(B) == char_poly(A)
        done += 1


def test_char_poly_rejects_a_non_integral_polynomial():
    # X - 1/2: the scaled route must not truncate the entry to 0
    with pytest.raises(AssertionError):
        char_poly([[Fraction(1, 2)]])
    with pytest.raises(AssertionError):
        char_poly([[Fraction(1, 3), 0], [0, 1]])


def test_char_poly_p1_is_xminus1_power():
    r = 5
    P1 = [[int(i == j) for j in range(r)] for i in range(r)]
    cp = char_poly(P1)
    assert zpoly.factor(cp)[2] == [((-1, 1), r)]


def test_factor_over_Z_examples():
    assert zpoly.factor((-1, 0, 1))[2] == [((-1, 1), 1), ((1, 1), 1)]
    assert zpoly.factor((-45, 0, 1))[2] == [((-45, 0, 1), 1)]


def test_rank2_components_and_rows():
    mats, lengths, pairing, _ = oracle_setup(
        [Permutation([1, 0, 2, 3, 4]), Permutation([1, 2, 3, 4, 0])])
    comps = homogeneous_components_center(mats, 2)
    assert sorted(c.dim for c in comps) == [1, 1]
    tbl = build_table(mats, lengths, pairing)
    rows = [(r.values, r.degree) for r in tbl.rows]
    assert rows == [([QuadraticNumber(1), QuadraticNumber(4)], 1),
                    ([QuadraticNumber(1), QuadraticNumber(-1)], 4)]


def test_quadratic_pair_matches_eigen_oracle():
    mats, lengths, pairing, basis = oracle_setup(
        [Permutation([1, 2, 3, 4, 0]), Permutation([0, 4, 3, 2, 1])])
    tbl = build_table(mats, lengths, pairing)
    mine = [(tuple(r.values), r.mult, r.degree) for r in tbl.rows]
    assert mine == list(oracle.char_table_commutative(basis))
    # conjugate rows are linked
    quad = [r for r in tbl.rows if r.field == 5]
    assert len(quad) == 2 and tbl.rows[quad[0].conj] is quad[1]


def test_build_table_needs_every_matrix():
    mats, lengths, pairing, _ = oracle_setup(
        [Permutation([1, 2, 3, 4, 0]), Permutation([0, 4, 3, 2, 1])])
    with pytest.raises(ValueError, match="all 3 intersection matrices, "
                                         "got 2"):
        build_table(mats[:2], lengths, pairing)


def test_complex_field_raises():
    x = Permutation([(i + 1) % 7 for i in range(7)])
    y = Permutation([(2 * i) % 7 for i in range(7)])
    mats, lengths, pairing, _ = oracle_setup([x, y])
    with pytest.raises(UnsupportedComponentError):
        build_table(mats, lengths, pairing)


def regular_instance(gens, degree):
    elems = sorted(closure_elements(gens, degree), key=lambda p: p.images)

    def rmul(g):
        return Permutation([elems.index(x * g) for x in elems])
    return GeneratedGroup([rmul(g) for g in gens])


def test_rational_multiplicity_two_component():
    # regular D4: one M_2(Q) component of dimension 4, trace halving exact
    G = regular_instance([Permutation([1, 2, 3, 0]),
                          Permutation([0, 3, 2, 1])], 4)
    mats, lengths, pairing, _ = oracle_setup(G.gens)
    tbl = build_table(mats, lengths, pairing)
    mult2 = [r for r in tbl.rows if r.mult == 2]
    assert len(mult2) == 1 and mult2[0].degree == 2
    assert sum(r.mult * r.degree for r in tbl.rows) == 8


def test_quadratic_multiplicity_two_component():
    # regular dihedral of order 16: a 2 m^2 = 8 component over Q(r2)
    G = regular_instance([Permutation([1, 2, 3, 4, 5, 6, 7, 0]),
                          Permutation([0, 7, 6, 5, 4, 3, 2, 1])], 8)
    mats, lengths, pairing, _ = oracle_setup(G.gens)
    tbl = build_table(mats, lengths, pairing)
    quad = [r for r in tbl.rows if r.field == 2]
    assert len(quad) == 2
    assert all(r.mult == 2 and r.degree == 2 for r in quad)
    assert quad[0].values == [v.conjugate() for v in quad[1].values]
    assert sum(r.mult * r.degree for r in tbl.rows) == 16


def test_split_quartics_over_real_quadratic():
    n, f1 = _split_quartic((-2768, 1706, -75, -16, 1))
    assert n == 33
    n2, _ = _split_quartic((-2701694976, -2113152, 405424, -1288, 1))
    assert n2 == 33
    # X^4 + 1 splits over Q(r2) into conjugate quadratics
    n3, f3 = _split_quartic((1, 0, 0, 0, 1))
    assert n3 == 2
    # a quartic with Galois group S4 factors over no quadratic field
    with pytest.raises(UnsupportedComponentError):
        _split_quartic((1, 1, 0, 0, 1))


def test_fitting_degree_and_sensitivity():
    mats, lengths, pairing, _ = oracle_setup(
        [Permutation([1, 0, 2, 3, 4]), Permutation([1, 2, 3, 4, 0])])
    tbl = build_table(mats, lengths, pairing)
    triv = next(r for r in tbl.rows
                if [v.as_fraction() for v in r.values] ==
                [Fraction(x) for x in lengths])
    assert triv.degree == 1
    # perturb one value: orthogonality must break
    bad = EndoCharTable(
        [CharRow(list(r.values), r.mult, r.degree) for r in tbl.rows],
        lengths, pairing)
    bad.rows[1].values[1] = bad.rows[1].values[1] + 1
    report = verify_table(bad)
    assert not report["ok"]


def test_table_json_roundtrip():
    mats, lengths, pairing, _ = oracle_setup(
        [Permutation([1, 2, 3, 4, 0]), Permutation([0, 4, 3, 2, 1])])
    tbl = build_table(mats, lengths, pairing)
    back = EndoCharTable.from_json(tbl.to_json())
    assert back.lengths == tbl.lengths
    for a, b in zip(back.rows, tbl.rows):
        assert a.values == b.values and a.degree == b.degree
    assert verify_table(back)["ok"]
