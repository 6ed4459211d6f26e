"""Brute-force reference implementations for small instances.

Everything here trades speed for auditability: explicit coset actions,
explicit orbital (adjacency) matrices for the commutant, structure
constants read off from literal matrix products, character tables from
simultaneous eigenspace splitting of the orbital matrices, and modular
decompositions computed directly from the explicit commutant.  The rest of
the package is validated stage by stage against these results.
"""

import math
from fractions import Fraction

import numpy as np

from . import gfmat
from .permgrp import GeneratedGroup, Permutation, word_concat
from .quadfield import (QuadraticNumber, left_nullspace, mat_mul, poly_at,
                        solve_action, solve_actions, squarefree_part)
from . import zpoly


class CosetAction:
    """The action of G on the right cosets of H, fully enumerated.

    Coset 0 is H itself; `reps` hold one group element per coset (coset i
    is H.reps[i]) and `words` the generator words producing them.
    """

    def __init__(self, degree, gen_perms, reps, words, G, H):
        self.degree = degree
        self.gen_perms = gen_perms
        self.reps = reps
        self.words = words
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
    words = [()]
    i = 0
    while i < len(reps):
        a = reps[i]
        i += 1
        for si, s in enumerate(G.gens):
            c = _canonical_rep(H, a * s)
            if c.images not in idx:
                idx[c.images] = len(reps)
                reps.append(c)
                words.append(word_concat(words[reps.index(a)], ((si, 1),)))
    if len(reps) != index:
        raise AssertionError(
            f"coset enumeration found {len(reps)} cosets, expected {index}")
    gen_perms = []
    for s in G.gens:
        images = [idx[_canonical_rep(H, a * s).images] for a in reps]
        gen_perms.append(Permutation(images))
    act = CosetAction(index, gen_perms, reps, words, G, H)
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
    characters); each orbital matrix must act as an exact scalar on each
    final component, which is asserted.  Character values live in Q or a
    real quadratic field; anything else raises.
    """
    mats = basis.mats
    r = len(mats)
    n = mats[0].shape[0]
    for i in range(r):
        for j in range(i + 1, r):
            if not np.array_equal(mats[i] @ mats[j], mats[j] @ mats[i]):
                raise NonCommutativeCommutant(
                    "orbital matrices do not commute")
    comps = [[[Fraction(int(i == j)) for j in range(n)] for i in range(n)]]
    for B in mats[1:]:
        BQ = B.tolist()
        refined = []
        for comp in comps:
            C = solve_action(comp, BQ)
            poly = _char_poly_fraction(C)
            _, _, facs = zpoly.factor(poly)
            if len(facs) == 1 and facs[0][1] == 1:
                refined.append(comp)
                continue
            for f, mult in facs:
                FC = poly_at(C, f, mult)
                K = left_nullspace(FC)
                if K:
                    refined.append(mat_mul(K, comp))
        comps = refined
    if sum(len(c) for c in comps) != n:
        raise AssertionError("eigenspace refinement lost dimensions")
    rows = []
    for comp in comps:
        actions = solve_actions(comp, [B.tolist() for B in mats])
        quad = None
        for C in actions:
            if not _is_scalar(C):
                quad = C
                break
        if quad is None:
            values = [QuadraticNumber(C[0][0]) for C in actions]
            rows.append((tuple(values), 1, len(comp)))
            continue
        # split over the quadratic field of the first non-scalar action
        lam, lam_bar = _quadratic_eigenvalues(quad)
        for root in (lam, lam_bar):
            d = len(quad)
            M = [[quad[i][j] - (root if i == j else 0) for j in range(d)]
                 for i in range(d)]
            E = left_nullspace(M)
            if not E:
                raise AssertionError("missing quadratic eigenspace")
            values = []
            for C in actions:
                img = mat_mul(E, C)
                lam_k = None
                for a, b in zip(E, img):
                    for x, y in zip(a, b):
                        if x != 0:
                            cand = y / x
                            if lam_k is None:
                                lam_k = cand
                            elif lam_k != cand:
                                raise AssertionError(
                                    "action is not scalar on eigenspace")
                for a, b in zip(E, img):
                    for x, y in zip(a, b):
                        if y != lam_k * x:
                            raise AssertionError(
                                "action is not scalar on eigenspace")
                values.append(lam_k)
            rows.append((tuple(values), 1, len(E)))
    rows.sort(key=_row_sort_key)
    return rows


def _row_sort_key(row):
    values, m, degree = row
    return (degree, [(v.a, v.b, v.n) for v in values])


def _is_scalar(C):
    d = len(C)
    lam = C[0][0]
    for i in range(d):
        for j in range(d):
            if C[i][j] != (lam if i == j else 0):
                return False
    return True


def _char_poly_fraction(C):
    """Characteristic polynomial of a Fraction matrix, as integer tuple.

    Faddeev-LeVerrier on the integer matrix s C, s the common denominator:
    its coefficients c_k are integers, and C's are c_k / s^k."""
    d = len(C)
    s = math.lcm(*(x.denominator for row in C for x in row))
    Cs = [[int(x * s) for x in row] for row in C]
    M = [[0] * d for _ in range(d)]
    coeffs = [1]
    for k in range(1, d + 1):
        for i in range(d):
            M[i][i] += coeffs[-1]
        M = mat_mul(Cs, M)
        c, rem = divmod(-sum(M[i][i] for i in range(d)), k)
        if rem:
            raise AssertionError("Faddeev-LeVerrier trace is not divisible")
        coeffs.append(c)
    ints = []
    for k, c in enumerate(coeffs):
        q, rem = divmod(c, s ** k)
        if rem:
            raise AssertionError("characteristic polynomial is not integral")
        ints.append(q)
    return tuple(reversed(ints))


def _quadratic_eigenvalues(C):
    poly = _char_poly_fraction(C)
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
    r = len(inter_mats)
    regular = gfmat.ModuleRep(
        p, [gfmat.FqMatrix(p, np.array(P, dtype=np.int64) % p)
            for P in inter_mats], r)
    labels, cartan, dims, simples = gfmat.cartan_matrix(regular)
    return {
        "labels": labels,
        "cartan": cartan,
        "pim_dims": dims,
        "constituents": simples,
        "local": len(simples) == 1,
    }
