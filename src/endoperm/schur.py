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
from fractions import Fraction

from . import orbenum
from .permgrp import orbit_tree, seed_mix
from .quadfield import express_in_rows, mat_mul


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

    def __init__(self, ctx, helper, partition, seed=0,
                 enum_cutoff=10 ** 7, walk_budget=200):
        self.ctx = ctx
        self.helper = helper
        self.partition = partition
        self.r = len(partition.records)
        self.lengths = partition.lengths()
        self.pairing = partition.pairing()
        self.enum_cutoff = enum_cutoff
        self.walk_budget = walk_budget
        self.rng = random.Random(seed_mix(seed, 0x5C47))
        # stored key -> orbit number; the stores are disjoint subsets of
        # distinct H-orbits, so a hit is still a proof
        self.index = {key: k
                      for k, rec in enumerate(partition.records, start=1)
                      for key in rec.store}
        self._orbit_cache = {}

    def orbit_points(self, j):
        """Explicit point list of O_j (1-indexed j), cached."""
        if j in self._orbit_cache:
            return self._orbit_cache[j]
        rec = self.partition.records[j - 1]
        if rec.length > self.enum_cutoff:
            raise ValueError(
                f"orbit {j} has {rec.length} points, over the counting "
                f"cutoff {self.enum_cutoff}; use recover_matrix instead")
        out, _ = orbit_tree(rec.rep, self.ctx.h_gens, self.ctx.domain.apply)
        if len(out) != rec.length:
            raise AssertionError("explicit enumeration disagrees with n_j")
        self._orbit_cache[j] = out
        return out

    def reaching_element(self, i):
        """g_i as a single domain actor: the G-element `classify` kept for
        the record, which takes v1 to its representative."""
        return self.partition.records[i - 1].reach_element

    def locate(self, x, rounds=5):
        """Index k with x in O_k; None when every round misses.

        Each round is one H-walk (`orbenum.walk`) looked up against the
        stored keys of all r orbits at once, with the walk budget
        quadrupling from round to round."""
        budget = self.walk_budget
        for _ in range(rounds):
            k = orbenum.walk(self.ctx, self.helper, self.index, x, self.rng,
                             budget)
            if k is not None:
                return k
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
# Algebra closure by spinning the first unit vector

class _FractionEchelon:
    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    def residue(self, v):
        v = [Fraction(x) for x in v]
        for row, c in zip(self.rows, self.pivots):
            if v[c]:
                f = v[c]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def add(self, v):
        v = self.residue(v)
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return False
        inv = 1 / v[piv]
        v = [x * inv for x in v]
        for i in range(len(self.rows)):
            if self.rows[i][piv]:
                f = self.rows[i][piv]
                self.rows[i] = [a - f * b
                                for a, b in zip(self.rows[i], v)]
        self.rows.append(v)
        self.pivots.append(piv)
        return True


class AlgebraClosure:
    """Standard-form basis of the unital algebra generated by a set of
    intersection matrices, with the matrix word realizing each basis row."""

    def __init__(self, generators, r, lengths=None, target=None):
        self.r = r
        self.lengths = lengths
        gens = [g.entries if isinstance(g, IntersectionMatrix) else g
                for g in generators]
        self.generators = gens
        e1 = [1 if i == 0 else 0 for i in range(r)]
        ident = [[int(i == j) for j in range(r)] for i in range(r)]
        self._ech = _FractionEchelon(r)
        self._ech.add(e1)
        self.basis = [tuple(e1)]
        self.mats = [ident]
        qi = 0
        while qi < len(self.basis):
            vec, mat = self.basis[qi], self.mats[qi]
            qi += 1
            for g in gens:
                new_vec = mat_mul([vec], g)[0]
                if self._ech.add(new_vec):
                    self.basis.append(tuple(new_vec))
                    self.mats.append(mat_mul(mat, g))
            if target is not None and len(self.basis) >= target:
                break

    @property
    def dimension(self):
        return len(self.basis)

    def recover(self, j):
        """P_j from the closure: decompose the j-th unit vector (the first
        row of P_j) in the standard basis and take the same combination of
        the realizing matrices."""
        if self.dimension < self.r:
            raise ValueError(
                f"closure has dimension {self.dimension} < {self.r}; "
                "add generators before recovering")
        ej = [1 if i == j - 1 else 0 for i in range(self.r)]
        coords = express_in_rows(self.basis, ej)
        if coords is None:
            raise ValueError(f"unit vector e_{j} is outside the closure")
        # one row of products over the flattened realizing matrices
        r = self.r
        flat = mat_mul([coords], [[x for row in M for x in row]
                                  for M in self.mats])[0]
        if any(x.denominator != 1 for x in flat):
            raise IntegralityError(f"recovered P_{j} is not integral")
        out = [[int(x) for x in flat[a * r:(a + 1) * r]] for a in range(r)]
        return IntersectionMatrix(j, out, lengths=self.lengths)


def algebra_closure(mats, r, lengths=None, target=None):
    """Dimension and standard-form basis of the algebra the given
    intersection matrices generate."""
    return AlgebraClosure(mats, r, lengths=lengths, target=target)


def generate_endomorphism_ring(sctx, start=2):
    """Count P_j for orbits by increasing length until the closure reaches
    dimension r; returns (closure, computed matrices).

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
        if sctx.lengths[j - 1] > sctx.enum_cutoff:
            continue
        computed[j] = intersection_matrix(sctx, j)
        closure = algebra_closure(
            [computed[k] for k in sorted(computed)], sctx.r,
            lengths=sctx.lengths)
    if closure.dimension < sctx.r:
        raise RuntimeError(
            f"computed matrices generate only dimension "
            f"{closure.dimension} < {sctx.r}")
    return closure, computed


def all_intersection_matrices(sctx):
    """Every P_j: counted while the closure grows, recovered afterwards.
    Returns (P_1..P_r, closure, the sorted j whose P_j was counted)."""
    closure, computed = generate_endomorphism_ring(sctx)
    out = []
    for j in range(1, sctx.r + 1):
        out.append(computed.get(j) or closure.recover(j))
    return out, closure, sorted(computed)
