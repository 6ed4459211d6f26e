"""The Johnson scheme J(n, k) as an F_2 vector scenario with closed forms.

G = S_n acts on F_2^n by permutation matrices.  H = S_k x S_{n-k} is the
stabilizer of v1 = e_0 + ... + e_{k-1}, so the G-orbit of v1 (the weight-k
vectors) is the coset space of H.  The helper is K = S_k, the first factor,
with the projection onto the first k coordinates as its quotient map: the
shape of the paper's J4 scenario (an F_2 vector domain and a projection
helper) at a size whose answers are all known.  (Coordinates are named
after a seeded relabeling; see JohnsonScenario.)

The H-orbits are the distance classes of the Johnson graph: orbit d holds
the k-sets meeting v1's support in k - d points.  Their lengths, the
intersection numbers p^c_ab and the degrees of the irreducible constituents
are closed forms (Brouwer, Cohen, Neumaier, Distance-Regular Graphs, sec.
9.1), so every pipeline answer is checked without an oracle.
"""

import random
from math import comb, factorial

import numpy as np

from endoperm.gfmat import FqMatrix
from endoperm.orbenum import ActionContext, HelperSetup, VectorDomain
from endoperm.permgrp import GeneratedGroup, Permutation, evaluate_word


def _transposition_word(i):
    """(i i+1) as a word in a = (0 1) and b = (0 1 ... n-1): b^-i a b^i."""
    return ((1, -1),) * i + ((0, 1),) + ((1, 1),) * i


def _factor_words(lo, hi):
    """Generators of the symmetric group on lo..hi-1: the transposition
    (lo lo+1) and, from three points on, the cycle (lo lo+1 ... hi-1)."""
    if hi - lo < 2:
        return []
    words = [_transposition_word(lo)]
    if hi - lo > 2:
        cycle = ()
        for i in range(hi - 2, lo - 1, -1):
            cycle += _transposition_word(i)
        words.append(cycle)
    return words


def _permutation_matrix(perm):
    n = perm.degree
    mat = np.zeros((n, n), dtype=np.int64)
    mat[np.arange(n), list(perm.images)] = 1
    return FqMatrix(2, mat)


class JohnsonScenario:
    """Action context and helper for J(n, k); 2 <= k <= n - k.

    The seed relabels the coordinates by a random permutation: coordinate
    i becomes label[i], so v1's support is label[0..k-1] and the helper
    projects onto those coordinates.  The relabeled scenario is isomorphic
    to the plain one, so the program does the same work on every seed."""

    def __init__(self, n, k, seed=0):
        if not 2 <= k <= n - k:
            raise ValueError(f"J({n},{k}) needs 2 <= k <= n - k")
        self.n, self.k = n, k
        label = Permutation(random.Random(seed).sample(range(n), n))
        unlabel = label.inverse()
        a = unlabel * Permutation([1, 0] + list(range(2, n))) * label
        b = unlabel * Permutation([(i + 1) % n for i in range(n)]) * label
        self.support = [label.images[i] for i in range(k)]
        k_words = _factor_words(0, k)
        h_words = k_words + _factor_words(k, n)
        faithful = GeneratedGroup(
            [evaluate_word(w, [a, b]) for w in h_words], n)
        faithful.build_chain()
        self.h_order = faithful.order()
        if self.h_order != factorial(k) * factorial(n - k):
            raise AssertionError("H is not S_k x S_(n-k)")
        g_mats = [_permutation_matrix(a), _permutation_matrix(b)]
        ident = FqMatrix.identity(2, n)
        h_mats = [evaluate_word(w, g_mats, ident) for w in h_words]
        dom = VectorDomain(2, n)
        v1 = np.zeros(n, dtype=np.int64)
        v1[self.support] = 1
        self.ctx = ActionContext(
            dom, g_mats, h_mats, dom.encode(v1), h_words=h_words,
            faithful_h=faithful, target_index=comb(n, k))
        proj = np.zeros((n, k), dtype=np.int64)
        proj[self.support, np.arange(k)] = 1
        self.helper = HelperSetup(
            self.ctx, [((i, 1),) for i in range(len(k_words))],
            FqMatrix(2, proj))

    @property
    def index(self):
        return comb(self.n, self.k)


# ---------------------------------------------------------------------------
# Closed forms

def orbit_length(n, k, d):
    """Number of k-sets at distance d from a fixed k-set."""
    return comb(k, d) * comb(n - k, d)


def intersection_number(n, k, a, b, c):
    """p^c_ab: for k-sets x, y at distance c, the number of k-sets z with
    d(x, z) = a and d(z, y) = b.

    z meets x & y in s points, x - y in t, y - x in u and the rest in w;
    then d(x, z) = k - s - t and d(z, y) = k - s - u.
    """
    total = 0
    for s in range(k - c + 1):
        t, u = k - a - s, k - b - s
        w = k - s - t - u
        if 0 <= t <= c and 0 <= u <= c and 0 <= w <= n - k - c:
            total += (comb(k - c, s) * comb(c, t) * comb(c, u)
                      * comb(n - k - c, w))
    return total


def fitting_degrees(n, k):
    """Degrees of the constituents of the permutation module: the
    multiplicity-free decomposition C(n, j) - C(n, j - 1), j = 0..k."""
    return [comb(n, j) - (comb(n, j - 1) if j else 0) for j in range(k + 1)]


def check_run(run, scenario):
    """Closed-form checks of a pipeline run on a JohnsonScenario, as
    (name, ok, detail).

    Orbits are mapped to distances by how their representative overlaps
    v1's support."""
    n, k = scenario.n, scenario.k
    records = run.partition.records
    dist = [k - int(np.frombuffer(rec.rep, dtype=np.uint8)[scenario.support]
                    .sum()) for rec in records]
    checks = [("rank r = k + 1", len(records) == k + 1, f"r = {len(records)}")]
    if sorted(dist) != list(range(k + 1)):
        checks.append(("one orbit per distance", False, f"distances {dist}"))
        return checks
    lengths = [rec.length for rec in records]
    want = [orbit_length(n, k, d) for d in dist]
    checks.append(("orbit lengths C(k,i) C(n-k,k-i)", lengths == want,
                   f"{lengths} vs {want}"))
    pairing = run.partition.pairing()
    checks.append(("every orbit is self-paired",
                   pairing == list(range(1, k + 2)), f"pairing {pairing}"))
    degrees = sorted(row.degree for row in run.table.rows)
    want = sorted(fitting_degrees(n, k))
    checks.append(("Fitting degrees C(n,j) - C(n,j-1)", degrees == want,
                   f"{degrees} vs {want}"))
    for j in sorted(run.counted):
        entries = run.matrices[j - 1].entries
        want = [[intersection_number(n, k, dist[i], dist[j - 1], dist[c])
                 for c in range(k + 1)] for i in range(k + 1)]
        checks.append((f"counted P_{j} equals the Johnson intersection "
                       "numbers", entries == want, f"{entries} vs {want}"))
    return checks
