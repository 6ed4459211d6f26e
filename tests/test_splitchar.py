import hashlib
import json
import math
import random
import time
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
import sympy

from endoperm import corpus, oracle, pipeline, quadfield, splitchar, zpoly
from endoperm.quadfield import QuadraticNumber
from endoperm.permgrp import GeneratedGroup, Permutation, closure_elements
from endoperm.schur import IntersectionMatrix
from endoperm.splitchar import (CharRow, EndoCharTable,
                                UnsupportedComponentError, build_table,
                                char_poly, homogeneous_components_center,
                                verify_table, _split_quartic)
from scenarios import johnson_context


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


def _sylvester(n):
    H = [[1]]
    while len(H) < n:
        H = [row + row for row in H] + [row + [-x for x in row] for row in H]
    return H


def test_char_poly_matches_the_oracle_faddeev():
    # oracle._char_poly is an exact Faddeev-LeVerrier on Python ints, with
    # no primes and no coefficient bound
    rng = random.Random(40)
    for trial in range(10):
        # entries up to 2^40, and past int64 in the last two
        n, big = rng.randrange(1, 9), 2 ** (40 if trial < 8 else 70)
        X = [[rng.randrange(-big, big + 1) for _ in range(n)]
             for _ in range(n)]
        assert char_poly(X) == oracle._char_poly(X, 1)
    # a rational M with L > 1: M / L = T A T^-1 for an integer A
    A = [[rng.randrange(-9, 10) for _ in range(5)] for _ in range(5)]
    T = sympy.Matrix(5, 5, lambda i, j: i + 1 if i == j
                     else (rng.randrange(-3, 4) if i < j else 0))
    L = 6
    conj = L * T * sympy.Matrix(A) * T.inv()
    M = [[Fraction(int(x.p), int(x.q)) for x in conj.row(i)]
         for i in range(5)]
    assert any(x.denominator != 1 for row in M for x in row)
    s = math.lcm(*(x.denominator for row in M for x in row))
    want = oracle._char_poly([[int(s * x) for x in row] for row in M], s * L)
    assert char_poly(M, L) == want == char_poly(A)


def test_char_poly_lifts_a_determinant_at_the_hadamard_bound(monkeypatch):
    # the Sylvester Hadamard matrix meets Hadamard's inequality:
    # |det H| = prod |row_i| = 4^16, and H^2 = 16 I
    H = _sylvester(16)
    want = (1,)
    for _ in range(8):
        want = zpoly.mul(want, (-16, 0, 1))
    assert char_poly(H) == oracle._char_poly(H, 1) == tuple(want)
    assert abs(char_poly(H)[0]) == 2 ** 32 \
        == math.prod(math.isqrt(sum(x * x for x in row)) for row in H)
    # with too small a bound the CRT modulus is too small: the lift is
    # wrong, not an error
    rng = random.Random(41)
    X = [[rng.randrange(-2 ** 40, 2 ** 40 + 1) for _ in range(8)]
         for _ in range(8)]
    bound = splitchar._coefficient_bound
    monkeypatch.setattr(splitchar, "_coefficient_bound",
                        lambda entries: math.isqrt(bound(entries)))
    for M in (H, X):
        assert char_poly(M) != oracle._char_poly(M, 1)


def test_stacked_faddeev_guards_its_primes():
    # p > n, so that 1..n are invertible, and n p^2 < 2^63
    A = np.eye(5, dtype=np.int64)
    assert splitchar._charpoly_mod(A, [7, 11]).tolist() == \
        [[1, 2, 3, 4, 5, 6], [1, 6, 10, 1, 5, 10]]
    for primes in ([5], [7, 5], [2 ** 31 - 1]):
        with pytest.raises(AssertionError):
            splitchar._charpoly_mod(A, primes)


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
    # X^4 - 10 X^2 + 1, with roots +-r2 +-r3, splits over Q(r2), Q(r3) and
    # Q(r6)
    assert _split_quartic((1, 0, -10, 0, 1))[0] in (2, 3, 6)
    # a quartic with Galois group S4 factors over no quadratic field
    with pytest.raises(UnsupportedComponentError):
        _split_quartic((1, 1, 0, 0, 1))


def test_fitting_degree_and_sensitivity():
    mats, lengths, pairing, _ = oracle_setup(
        [Permutation([1, 0, 2, 3, 4]), Permutation([1, 2, 3, 4, 0])])
    tbl = build_table(mats, lengths, pairing)
    triv = next(r for r in tbl.rows if r.values == lengths)
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


@pytest.fixture(scope="module")
def corpus_runs():
    return [pipeline.run_instance(inst, primes=())
            for inst in corpus.all_instances()]


def table_of(run):
    return build_table(run.matrices, run.table.lengths, run.table.pairing)


def test_corpus_tables_are_pinned(corpus_runs):
    # the 16 corpus tables and four J(18,2) runs, hashed before the split
    # moved to integer bases and one generic central element
    ctx, helper = johnson_context(18, 2)
    johnson = [pipeline.run_pipeline(ctx, helper, ctx.h_order, primes=(),
                                     seed=seed) for seed in range(4)]
    digest = hashlib.sha256()
    for run in corpus_runs + johnson:
        digest.update(json.dumps(table_of(run).to_json(),
                                 sort_keys=True).encode())
    assert digest.hexdigest() == (
        "f43cde7668d57c1385295fd5be0b86edfe6245d0255794173e55d72aff58b838")


def refined_by_basis_elements(mats, r):
    """The components by the old route, in sympy: the centre's echelon
    basis elements refine Q^r one after the other, each piece cut by the
    kernels of f(C) for the irreducible factors f of the characteristic
    polynomial of C, the element's action on the piece."""
    x = sympy.Symbol("x")
    Ps = [sympy.Matrix(P.entries) for P in mats]
    stacked = sympy.Matrix([[Ps[j][i, k] - Ps[i][j, k] for j in range(r)
                             for k in range(r)] for i in range(r)])
    comps = [sympy.eye(r)]
    for z in stacked.T.nullspace():
        Rz = sum((z[t] * Ps[t] for t in range(r)), sympy.zeros(r, r))
        refined = []
        for B in comps:
            # C B = B Rz, B of full row rank
            C = B.T.gauss_jordan_solve((B * Rz).T)[0].T
            _, facs = sympy.factor_list(C.charpoly(x).as_expr())
            if len(facs) == 1:
                refined.append(B)
                continue
            for f, _ in facs:
                F = sympy.zeros(*C.shape)
                for c in sympy.Poly(f, x).all_coeffs():
                    F = F * C + c * sympy.eye(C.rows)
                K = F.T.nullspace()
                refined.append(sympy.Matrix.hstack(*K).T * B)
        comps = refined
    return comps


def row_space(B):
    """The nonzero rows of the reduced row echelon form of B, as tuples."""
    R, pivots = sympy.Matrix(B).rref()
    return tuple(tuple(R.row(i)) for i in range(len(pivots)))


def test_components_match_a_basis_element_refinement(corpus_runs):
    # a component Ae is the row space of R_e, e's right multiplication
    for run in corpus_runs:
        r = len(run.matrices)
        mine = homogeneous_components_center(run.matrices, r)
        want = refined_by_basis_elements(run.matrices, r)
        assert sorted(row_space(c.action) for c in mine) == \
            sorted(row_space(B) for B in want), run.name
        assert [sympy.Matrix(c.action).rank() for c in mine] == \
            [c.dim for c in mine]


def test_colliding_generic_element_falls_back_to_the_basis(corpus_runs,
                                                           monkeypatch):
    seen = []
    primary = splitchar._primary_pieces

    def spy(rows, z, X, L):
        seen.append(z)
        return primary(rows, z, X, L)

    monkeypatch.setattr(splitchar, "_primary_pieces", spy)
    runs = {run.name: run for run in corpus_runs}
    # dihedral of order 16 acting regularly: the generic element alone
    run = runs["random-4-dihedral-16-regular"]
    comps = homogeneous_components_center(run.matrices, 16)
    assert len(seen) == 1 and all(c.cut[0] == seen[0] for c in comps)
    # Q8 acting regularly: the generic element's eigenvalue on the
    # quaternions is one of a linear character's, so it cuts the centre
    # (of dimension 5) into [1, 1, 1, 2], and the centre's basis cuts the 2
    # into 1 + 1: components of dimensions 1 and 4
    seen.clear()
    run = runs["random-5-quaternion-regular"]
    comps = homogeneous_components_center(run.matrices, 8)
    assert len(seen) > 1 and seen[1] != seen[0]
    assert sorted(c.dim for c in comps) == [1, 1, 1, 1, 4]
    assert verify_table(table_of(run))["ok"]


def test_build_table_eliminations_are_bounded(corpus_runs, monkeypatch):
    # one for the centre, one per factor of the generic element on it and
    # one for the idempotents; a component's values are read off the trace
    # matrix, with no elimination of their own.  The route with a basis
    # per component made 13, and the route through Fractions 32
    calls = []
    eliminate = quadfield._eliminate

    def counted(*args):
        calls.append(args)
        return eliminate(*args)

    monkeypatch.setattr(quadfield, "_eliminate", counted)
    run = next(run for run in corpus_runs
               if run.name == "random-4-dihedral-16-regular")
    table_of(run)
    assert len(calls) <= 8


def test_regular_a5_pair_is_cut_by_a_central_element():
    # Q[A5] has a component M_3(Q(sqrt 5)): every non-central restricted
    # action met first has complex eigenvalues (elements of order 3), so
    # only a central element cuts it
    def even(g):
        return sum(g[i] > g[j] for i in range(5)
                   for j in range(i + 1, 5)) % 2 == 0

    G = sorted(g for g in permutations(range(5)) if even(g))
    index = {g: i for i, g in enumerate(G)}

    def mul(g, h):
        return tuple(h[g[x]] for x in range(5))

    def inv(g):
        return tuple(sorted(range(5), key=g.__getitem__))

    r = len(G)
    mats = [[[int(index[mul(G[i], G[j])] == k) for k in range(r)]
             for i in range(r)] for j in range(r)]
    pairing = [index[inv(g)] + 1 for g in G]
    start = time.perf_counter()
    table = build_table(mats, [1] * r, pairing)
    assert time.perf_counter() - start < 5
    assert verify_table(table)["ok"]
    # the character table of A5 on the classes 1, 2A, 3A, 5A, 5B
    cls = {g: frozenset(mul(mul(inv(h), g), h) for h in G) for g in G}
    g5 = (1, 2, 3, 4, 0)
    s5 = QuadraticNumber(0, Fraction(1, 2), 5)
    phi, bar = Fraction(1, 2) + s5, Fraction(1, 2) - s5

    def column(g):
        order = next(k for k in range(1, 6)
                     if all(x == i for i, x in enumerate(_power(g, k))))
        if order == 5:
            return 3 if g in cls[g5] else 4
        return {1: 0, 2: 1, 3: 2}[order]

    chars = [(1, 1, 1, 1, 1), (4, 0, 1, -1, -1), (5, 1, -1, 0, 0),
             (3, -1, 0, phi, bar), (3, -1, 0, bar, phi)]

    def as_json(x):
        return (QuadraticNumber(x) if type(x) is int else x).to_json()

    want = sorted((tuple(as_json(chi[column(g)]) for g in G), chi[0])
                  for chi in chars)
    got = sorted((tuple(v.to_json() for v in row.values), row.mult)
                 for row in table.rows)
    assert got == want
    assert all(row.mult == row.degree for row in table.rows)
    assert sorted(row.mult for row in table.rows) == [1, 3, 3, 4, 5]
    pair = [row for row in table.rows if row.field == 5]
    assert len(pair) == 2 and table.rows[pair[0].conj] is pair[1]
    # the components are Q[A5] e for the central primitive idempotents,
    # e = sum over a Galois orbit of characters of chi(1)/60 chi(g^-1) g,
    # of dimension tr R_e = sum chi(1)^2
    orbits = {1: chars[:1], 16: chars[1:2], 25: chars[2:3], 18: chars[3:]}
    comps = homogeneous_components_center(mats, r)
    assert sorted(comp.dim for comp in comps) == [1, 16, 18, 25]
    for comp in comps:
        want = [sum(Fraction(chi[0], 60) * chi[column(inv(g))]
                    for chi in orbits[comp.dim]) for g in G]
        assert [Fraction(x, comp.den) for x in comp.idempotent] == want


def _power(g, k):
    out = tuple(range(len(g)))
    for _ in range(k):
        out = tuple(g[x] for x in out)
    return out
