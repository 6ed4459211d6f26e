"""Schur basis and intersection matrices.

Orbit counting numbers c_jk(g_i) = |O_j g_i  meet  O_k| are counted by
explicit enumeration of O_j plus certified orbit membership; intersection
matrices P_j = [n_i / n_k * c_jk(g_i)]_ik give the regular representation
of the endomorphism ring on its Schur basis.  Once a few P_j generate the
full algebra (detected by spinning the first unit vector to dimension r),
the remaining intersection matrices are recovered from the closure without
further counting, exploiting that row 1 of P_j is the j-th unit vector.

All arithmetic is exact; entries are arbitrary-precision integers.
"""

import random

from . import orbenum
from .permgrp import orbit_tree, seed_mix
from .quadfield import RowSolver, int_product, pivot_columns

# Largest orbit that `SchurContext.orbit_points` lists; a P_j whose orbit is
# larger comes from `AlgebraClosure.recover`.
ENUM_CUTOFF = 10 ** 7


class PartialCountsError(RuntimeError):
    """Membership resolution ran out of budget; counts are lower bounds."""

    def __init__(self, message, counts):
        super().__init__(message)
        self.counts = counts


class IntegralityError(ValueError):
    pass


class IntersectionMatrix:
    """P_j over Z: the right regular action of the j-th Schur basis element."""

    def __init__(self, j, entries, lengths=None):
        self.j = j
        self.entries = [list(map(int, row)) for row in entries]
        self.r = len(self.entries)
        if lengths is not None:
            validate_intersection_matrix(self.entries, j, lengths)

    def row(self, i):
        return self.entries[i]

    def __getitem__(self, ik):
        return self.entries[ik[0]][ik[1]]

    def __eq__(self, other):
        return isinstance(other, IntersectionMatrix) \
            and self.entries == other.entries

    def __repr__(self):
        return f"IntersectionMatrix(j={self.j}, r={self.r})"


def validate_intersection_matrix(entries, j, lengths):
    """Unit first row and the weighted row sums forced by the trivial
    character: sum_k p_ijk n_k = n_i n_j for every i."""
    r = len(entries)
    unit = [1 if k == j - 1 else 0 for k in range(r)]
    if entries[0] != unit:
        raise IntegralityError(
            f"first row of P_{j} is not the {j}-th unit vector")
    for i in range(r):
        s = sum(p * n for p, n in zip(entries[i], lengths))
        if s != lengths[i] * lengths[j - 1]:
            raise IntegralityError(
                f"weighted row sum fails in P_{j}, row {i + 1}: "
                f"{s} != {lengths[i]} * {lengths[j - 1]}")


class SchurContext:
    """Orbit partition plus the machinery to count against it."""

    def __init__(self, ctx, helper, partition, seed=0):
        self.ctx = ctx
        self.helper = helper
        self.partition = partition
        self.r = len(partition.records)
        self.lengths = partition.lengths()
        self.pairing = partition.pairing()
        self.rng = random.Random(seed_mix(seed, 0x5C47))
        self._orbit_cache = {}

    def orbit_points(self, j):
        """Explicit point list of O_j (1-indexed j), cached."""
        if j in self._orbit_cache:
            return self._orbit_cache[j]
        rec = self.partition.records[j - 1]
        if rec.length > ENUM_CUTOFF:
            raise ValueError(
                f"orbit {j} has {rec.length} points, over the counting "
                f"cutoff {ENUM_CUTOFF}; use AlgebraClosure.recover "
                "instead")
        out, _ = orbit_tree(rec.rep, self.ctx.h_gens, self.ctx.domain.apply)
        if len(out) != rec.length:
            raise AssertionError("explicit enumeration disagrees with n_j")
        self._orbit_cache[j] = out
        return out

    def reaching_element(self, i):
        """g_i as a single domain actor: the G-element `classify` kept for
        the record, which takes v1 to its representative."""
        return self.partition.records[i - 1].reach_element

    def locate(self, x):
        """Index k with x in O_k; None when every round misses.

        Each of `orbenum.LOCATE_ROUNDS` rounds is one H-walk
        (`orbenum.walk`) looked up against the stored keys of all r orbits
        at once (`partition.record_of`), with the walk budget starting at
        `orbenum.WALK_BUDGET` and quadrupling from round to round."""
        budget = orbenum.WALK_BUDGET
        for _ in range(orbenum.LOCATE_ROUNDS):
            rec = orbenum.walk(self.ctx, self.helper,
                               self.partition.record_of, x, self.rng, budget)
            if rec is not None:
                return rec.index
            budget *= 4
        return None


def count_images(sctx, j, g):
    """Distribution of O_j . g over all orbits; certified complete because
    the per-orbit figures must sum to n_j."""
    points = sctx.orbit_points(j)
    counts = [0] * sctx.r
    unresolved = 0
    for x in points:
        y = sctx.ctx.domain.apply(x, g)
        k = sctx.locate(y)
        if k is None:
            unresolved += 1
        else:
            counts[k - 1] += 1
    if unresolved:
        raise PartialCountsError(
            f"{unresolved} of {len(points)} images unresolved; counts are "
            "lower bounds", counts)
    if sum(counts) != sctx.lengths[j - 1]:
        raise AssertionError("image counts do not sum to n_j")
    return counts


def intersection_matrix(sctx, j):
    """P_j by explicit counting: row i is built from c_jk(g_i)."""
    n = sctx.lengths
    rows = []
    for i in range(1, sctx.r + 1):
        counts = count_images(sctx, j, sctx.reaching_element(i))
        row = []
        for k in range(1, sctx.r + 1):
            num = n[i - 1] * counts[k - 1]
            if num % n[k - 1]:
                raise IntegralityError(
                    f"p_{i}{j}{k} = {n[i-1]}*{counts[k-1]}/{n[k-1]} "
                    "is not integral; counts are wrong")
            row.append(num // n[k - 1])
        rows.append(row)
    return IntersectionMatrix(j, rows, lengths=n)


# ---------------------------------------------------------------------------
# Algebra closure by spinning the first unit vector, level by level

class AlgebraClosure:
    """Standard-form basis of the unital algebra generated by a set of
    intersection matrices, with the matrix word realizing each basis row.

    The basis is spun from the first unit vector level by level: every row
    of the newest level is multiplied by every generator, in order, and a
    candidate is kept when it is independent of the basis and of the
    candidates kept before it.  A basis row is row 0 of its realizing
    matrix, so a level's candidates are one product of its rows per
    generator.  The kept ones are the pivot columns of the reduced row
    echelon form of [basis; candidates] transposed, past the basis's own,
    so one elimination per level makes the greedy choice of the
    one-candidate-at-a-time test.  `add` grows the closure in place by one
    generator: it acts on every basis row so far, and the spinning goes on
    from the rows it adds, by every generator."""

    def __init__(self, generators, r, lengths=None):
        self.r = r
        self.lengths = lengths
        self.generators = []
        self.basis = [tuple(int(i == 0) for i in range(r))]
        self.mats = [[[int(i == j) for j in range(r)] for i in range(r)]]
        self._spin([0], [getattr(g, "entries", g) for g in generators])

    def add(self, generator):
        self._spin(list(range(len(self.basis))),
                   [getattr(generator, "entries", generator)])

    def _spin(self, level, gens):
        """Multiply the rows of level by the new generators gens, then every
        newer level by all the generators."""
        self.generators += gens
        while level and len(self.basis) < self.r:
            products = [int_product([self.basis[q] for q in level], g)
                        for g in gens]
            made = [(q, t) for q in level for t in range(len(gens))]
            cands = [tuple(products[t][s]) for s in range(len(level))
                     for t in range(len(gens))]
            base = len(self.basis)
            pivots = pivot_columns(list(zip(*self.basis, *cands)))
            for c in pivots[base:]:
                q, t = made[c - base]
                self.basis.append(cands[c - base])
                self.mats.append(int_product(self.mats[q], gens[t]))
            level = list(range(base, len(self.basis)))
            gens = self.generators

    @property
    def dimension(self):
        return len(self.basis)

    def recover(self, js):
        """[P_j for j in js]: e_j (the first row of P_j) decomposed in the
        standard basis, by one solve X . basis = L [e_j for j in js], and
        the same combination of the realizing matrices, by one product:
        P_j = X_j . mats / L, which must be integral."""
        if self.dimension < self.r:
            raise ValueError(
                f"closure has dimension {self.dimension} < {self.r}; "
                "add generators before recovering")
        if not js:
            return []
        r = self.r
        solver = RowSolver([list(row) for row in self.basis])
        solved = solver.solve([[int(i == j - 1) for i in range(r)]
                               for j in js])
        if solved is None:
            raise ValueError("a unit vector is outside the closure")
        flats = int_product(solved, [[x for row in M for x in row]
                                     for M in self.mats])
        out = []
        for j, flat in zip(js, flats):
            if any(x % solver.L for x in flat):
                raise IntegralityError(f"recovered P_{j} is not integral")
            out.append(IntersectionMatrix(
                j, [[x // solver.L for x in flat[a * r:(a + 1) * r]]
                    for a in range(r)], lengths=self.lengths))
        return out


def algebra_closure(mats, r, lengths=None):
    """Dimension and standard-form basis of the algebra the given
    intersection matrices generate."""
    return AlgebraClosure(mats, r, lengths=lengths)


def generate_endomorphism_ring(sctx):
    """Count P_j for orbits by increasing length until the closure reaches
    dimension r; returns (closure, computed matrices).  The closure starts
    from P_1 and grows in place by each counted P_j.

    Orbits beyond the enumeration cutoff are skipped during counting (their
    matrices come back via recover once the closure is full).
    """
    computed = {1: IntersectionMatrix(
        1, [[int(i == k) for k in range(sctx.r)] for i in range(sctx.r)],
        lengths=sctx.lengths)}
    closure = algebra_closure([computed[1]], sctx.r, lengths=sctx.lengths)
    order = sorted(range(2, sctx.r + 1),
                   key=lambda j: (sctx.lengths[j - 1], j))
    for j in order:
        if closure.dimension >= sctx.r:
            break
        if sctx.lengths[j - 1] > ENUM_CUTOFF:
            continue
        computed[j] = intersection_matrix(sctx, j)
        closure.add(computed[j])
    if closure.dimension < sctx.r:
        raise RuntimeError(
            f"computed matrices generate only dimension "
            f"{closure.dimension} < {sctx.r}")
    return closure, computed


def all_intersection_matrices(sctx):
    """Every P_j: counted while the closure grows, and the rest recovered
    afterwards by one call.  Returns (P_1..P_r, closure, the sorted j whose
    P_j was counted)."""
    closure, computed = generate_endomorphism_ring(sctx)
    counted = sorted(computed)
    missing = [j for j in range(1, sctx.r + 1) if j not in computed]
    computed.update(zip(missing, closure.recover(missing)))
    return [computed[j] for j in range(1, sctx.r + 1)], closure, counted
