"""Brute-force reference implementations for small instances.

Everything here trades speed for auditability: explicit coset actions,
explicit orbital (adjacency) matrices for the commutant, structure
constants read off from literal matrix products, character tables from
simultaneous eigenspace splitting of the orbital matrices, and modular
decompositions computed directly from the explicit commutant.  The rest of
the package is validated stage by stage against these results.

The exact linear algebra is quadfield's integer entry points over Q:
RowSolver restricts the orbital matrices to a component, poly_kernel
cuts it by a polynomial in a restricted action, and int_product and
primitive form the new component bases.  A quadratic pair of characters
is read off the rational span of two actions on the coset space, where
the pipeline reads it off traces in the regular representation of E.
The characteristic polynomials are the oracle's own (Faddeev-LeVerrier
in _char_poly), not splitchar.char_poly, so the two routes share the
kernel but not the polynomial, and the oracle imports nothing from
splitchar.  The modular data comes from modular.cartan_from_regular, the
pipeline's regular route.
"""

from fractions import Fraction

import numpy as np

from . import modular, zpoly
from .permgrp import Permutation
from .quadfield import (QuadraticNumber, RowSolver, int_product, poly_kernel,
                        primitive, squarefree_part)


class CosetAction:
    """The action of G on the right cosets of H, fully enumerated.

    Coset 0 is H itself; `reps` hold one group element per coset, the
    canonical element of coset i = H reps[i], and `gen_perms` the
    permutations of the cosets by G's generators.
    """

    def __init__(self, degree, gen_perms, reps, G, H):
        self.degree = degree
        self.gen_perms = gen_perms
        self.reps = reps
        self.G = G
        self.H = H

    def coset_of(self, element):
        key = _canonical_rep(self.H, element).images
        return self._index[key]


def _canonical_rep(H, a):
    """Canonical element of the coset H*a (greedy minimum over H's base)."""
    H._require_chain()
    g = a
    for base, trans in zip(H.base, H.transversals):
        best = min(trans, key=lambda y: g.images[y])
        g = trans[best] * g
    return g


def coset_action(G, H, limit=10 ** 5):
    """Explicit permutation action of G's generators on the cosets of H."""
    index, rem = divmod(G.order(), H.order())
    if rem:
        raise ValueError("H is not a subgroup of G (order does not divide)")
    if index > limit:
        raise ValueError(f"index {index} exceeds the oracle limit {limit}")
    ident = Permutation.identity(G.degree)
    start = _canonical_rep(H, ident)
    idx = {start.images: 0}
    reps = [start]
    i = 0
    while i < len(reps):
        a = reps[i]
        i += 1
        for s in G.gens:
            c = _canonical_rep(H, a * s)
            if c.images not in idx:
                idx[c.images] = len(reps)
                reps.append(c)
    if len(reps) != index:
        raise AssertionError(
            f"coset enumeration found {len(reps)} cosets, expected {index}")
    gen_perms = []
    for s in G.gens:
        images = [idx[_canonical_rep(H, a * s).images] for a in reps]
        gen_perms.append(Permutation(images))
    act = CosetAction(index, gen_perms, reps, G, H)
    act._index = idx
    return act


def subgroup_coset_perms(act, gens):
    """Elements of G (e.g. H's generators) as permutations of the cosets."""
    out = []
    for g in gens:
        images = [act.coset_of(a * g) for a in act.reps]
        out.append(Permutation(images))
    return out


def exhaustive_orbits(degree, perms):
    """Orbit partition of {0..degree-1}, sorted by (length, min point)."""
    seen = [False] * degree
    orbits = []
    for start in range(degree):
        if seen[start]:
            continue
        orb = [start]
        seen[start] = True
        qi = 0
        while qi < len(orb):
            pt = orb[qi]
            qi += 1
            for g in perms:
                img = g.images[pt]
                if not seen[img]:
                    seen[img] = True
                    orb.append(img)
        orbits.append(sorted(orb))
    orbits.sort(key=lambda o: (len(o), o[0]))
    return orbits


def orbit_pairing(act, orbits):
    """j* indices: the orbit containing coset(rep_j^{-1}) for min-coset reps."""
    pairing = []
    where = {}
    for j, orb in enumerate(orbits):
        for pt in orb:
            where[pt] = j
    for orb in orbits:
        rep = act.reps[orb[0]]
        pairing.append(where[act.coset_of(rep.inverse())])
    return pairing


class OrbitalBasis:
    """0/1 orbital adjacency matrices on coset indices; the Schur basis
    made explicit."""

    def __init__(self, mats, orbits):
        self.mats = mats
        self.orbits = orbits

    @property
    def rank(self):
        return len(self.mats)


def commutant_basis(act, h_perms, orbits=None):
    """Orbital matrices from the H-orbits on cosets, with sanity checks.

    An explicit orbit list (a permutation of the exhaustive one) may be
    supplied to pin the indexing convention."""
    n = act.degree
    if orbits is None:
        orbits = exhaustive_orbits(n, h_perms)
    if orbits[0] != [0]:
        raise AssertionError("coset 0 is not fixed by H")
    mats = []
    for orb in orbits:
        B = np.zeros((n, n), dtype=np.int64)
        for i, a in enumerate(act.reps):
            for w in orb:
                B[i, act.coset_of(act.reps[w] * a)] = 1
        mats.append(B)
    total = sum(mats)
    if not (total == 1).all():
        raise AssertionError("orbital matrices do not tile the point square")
    for g in act.gen_perms:
        P = np.zeros((n, n), dtype=np.int64)
        for i, j in enumerate(g.images):
            P[i, j] = 1
        for B in mats:
            if not np.array_equal(P @ B, B @ P):
                raise AssertionError("orbital matrix does not centralize G")
    return OrbitalBasis(mats, orbits)


def structure_constants(basis):
    """p_ijk with B_i B_j = sum_k p_ijk B_k, verified entrywise.

    Returns the intersection matrices [P_j] with P_j[i][k] = p_ijk.
    """
    r = basis.rank
    n = basis.mats[0].shape[0]
    cols = [orb[0] for orb in basis.orbits]
    P = [np.zeros((r, r), dtype=object) for _ in range(r)]
    for i in range(r):
        for j in range(r):
            M = basis.mats[i] @ basis.mats[j]
            coeffs = [int(M[0, c]) for c in cols]
            check = sum(c * B for c, B in zip(coeffs, basis.mats))
            if not np.array_equal(check, M):
                raise AssertionError("products do not expand in the basis")
            for k in range(r):
                P[j][i, k] = coeffs[k]
    return [[[int(P[j][i, k]) for k in range(r)] for i in range(r)]
            for j in range(r)]


# ---------------------------------------------------------------------------
# Exact character table by simultaneous diagonalization (commutative case)

class NonCommutativeCommutant(ValueError):
    pass


def char_table_commutative(basis):
    """Rows (values, multiplicity 1, degree) by splitting the coset space
    into simultaneous eigenspaces of the orbital matrices.

    Only valid for commutative commutants (multiplicity-free permutation
    characters).  Character values live in Q or a real quadratic field;
    anything else raises.

    A component is primitive integer rows.  RowSolver restricts an
    orbital matrix to it, as an integer matrix X over the solver's
    denominator L, and poly_kernel cuts it by f(X / L)^e for each factor
    f^e of the characteristic polynomial.  Each orbital matrix must then
    act on a final component as a rational scalar, which is its value,
    or in the rational span of I and Q, the first action that is not a
    scalar, which is asserted entry by entry: X = alpha I + beta Q is
    alpha / L + beta lam on the eigenspace of an eigenvalue lam of Q / L,
    and its conjugate on the other, so the component carries two
    conjugate rows of half its dimension.
    """
    mats = basis.mats
    r = len(mats)
    n = mats[0].shape[0]
    for i in range(r):
        for j in range(i + 1, r):
            if not np.array_equal(mats[i] @ mats[j], mats[j] @ mats[i]):
                raise NonCommutativeCommutant(
                    "orbital matrices do not commute")
    comps = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for B in mats[1:]:
        refined = []
        for comp in comps:
            solver = _basis_solver(comp)
            [X] = solver.act(B.tolist())
            _, _, facs = zpoly.factor(_char_poly(X, solver.L))
            if len(facs) == 1 and facs[0][1] == 1:
                refined.append(comp)
                continue
            for f, mult in facs:
                power = f
                for _ in range(mult - 1):
                    power = zpoly.mul(power, f)
                K = poly_kernel(X, solver.L, power)
                if K:
                    refined.append([primitive(row)
                                    for row in int_product(K, comp)])
        comps = refined
    if sum(len(c) for c in comps) != n:
        raise AssertionError("eigenspace refinement lost dimensions")
    wide = np.hstack(mats).tolist()
    rows = []
    for comp in comps:
        solver = _basis_solver(comp)
        L = solver.L
        actions = solver.act(wide)
        quad = next((X for X in actions if not _is_scalar(X)), None)
        if quad is None:
            values = [QuadraticNumber(Fraction(X[0][0], L)) for X in actions]
            rows.append((tuple(values), 1, len(comp)))
            continue
        lams = _quadratic_eigenvalues(quad, L)
        spans = [_span_coefficients(X, quad) for X in actions]
        for lam in lams:
            values = [alpha / L + beta * lam for alpha, beta in spans]
            rows.append((tuple(values), 1, len(comp) // 2))
    rows.sort(key=_row_sort_key)
    return rows


def _basis_solver(a):
    """The RowSolver of the rows a, which must be a basis."""
    solver = RowSolver(a)
    if len(solver.pivots) != len(a):
        raise AssertionError("component rows are not a basis")
    return solver


def _span_coefficients(X, Q):
    """(alpha, beta) with X = alpha I + beta Q, rational, for a matrix Q
    that is not a scalar; AssertionError when X is outside that span.

    X - X[0][0] I = beta (Q - Q[0][0] I), so beta is read off the first
    entry where Q - Q[0][0] I is not zero and checked on all the others."""
    d = len(Q)

    def shifted(M):
        return [[M[i][j] - (M[0][0] if i == j else 0) for j in range(d)]
                for i in range(d)]

    DX, DQ = shifted(X), shifted(Q)
    x, q = next((x, q) for rx, rq in zip(DX, DQ) for x, q in zip(rx, rq)
                if q)
    if any(a * q != b * x for rx, rq in zip(DX, DQ) for a, b in zip(rx, rq)):
        raise AssertionError("action is not scalar on the eigenspaces")
    beta = Fraction(x, q)
    return X[0][0] - beta * Q[0][0], beta


def _row_sort_key(row):
    values, m, degree = row
    return (degree, [(v.a, v.b, v.n) for v in values])


def _is_scalar(X):
    d = len(X)
    lam = X[0][0]
    for i in range(d):
        for j in range(d):
            if X[i][j] != (lam if i == j else 0):
                return False
    return True


def _char_poly(X, L):
    """Characteristic polynomial of X / L, for an integer matrix X and an
    integer L > 0, as an integer tuple (constant first).

    Faddeev-LeVerrier on X: its coefficients c_k are integers, and those
    of X / L are c_k / L^k.  The oracle keeps this one, independent of
    splitchar.char_poly, so the two routes do not share a polynomial."""
    d = len(X)
    M = [[0] * d for _ in range(d)]
    coeffs = [1]
    for k in range(1, d + 1):
        for i in range(d):
            M[i][i] += coeffs[-1]
        M = int_product(X, M)
        c, rem = divmod(-sum(M[i][i] for i in range(d)), k)
        if rem:
            raise AssertionError("Faddeev-LeVerrier trace is not divisible")
        coeffs.append(c)
    ints = []
    for k, c in enumerate(coeffs):
        q, rem = divmod(c, L ** k)
        if rem:
            raise AssertionError("characteristic polynomial is not integral")
        ints.append(q)
    return tuple(reversed(ints))


def _quadratic_eigenvalues(X, L):
    poly = _char_poly(X, L)
    _, _, facs = zpoly.factor(poly)
    quads = [f for f, m in facs if zpoly.deg(f) == 2]
    if not quads or any(zpoly.deg(f) > 2 for f, m in facs):
        raise ValueError(f"unsupported splitting field: {facs}")
    c0, c1, _ = quads[0]
    disc = c1 * c1 - 4 * c0
    if disc <= 0:
        raise ValueError("complex quadratic fields are not supported")
    nsf, k = squarefree_part(disc)
    lam = QuadraticNumber(Fraction(-c1, 2), Fraction(k, 2), nsf)
    return lam, lam.conjugate()


# ---------------------------------------------------------------------------
# Direct modular decomposition of the explicit commutant

def direct_endo_decomposition(inter_mats, p):
    """Simples, Cartan matrix and locality of E over F_p, straight from the
    regular representation given by the intersection matrices."""
    regular = modular.cartan_from_regular(inter_mats, p)
    return {**regular, "local": len(regular["constituents"]) == 1}
