"""Orbit-by-suborbit enumeration.

Enumerates the H-orbits of a big implicit G-set (points or vectors) through
a helper subgroup K <= H and a K-set quotient pi: points of an H-orbit are
visited chunk by chunk, one K-orbit at a time, but only the distinguished
points (the pi-fiber over each K-orbit's distinguished image point) are
retained.  A record is sealed once the certified stabilizer and the covered
count satisfy the majority condition 2 * covered * |S| > |H|, which pins
n_j = |H| / |S| exactly.

The stored fiber sets are canonical per K-orbit chunk, and a chunk's fiber
is stored whole or not at all, so two records of one H-orbit share a
stored point once both cover more than half of it.  So `classify` tests
orbit identity only against one stored key -> record map over the kept
records (`OrbitPartition.record_of`): `enumerate_suborbit` looks each
normal form up in it before storing it and stops at a hit, a proof.
`walk` places a point by a random H-walk against the same map, normalizing
each step (one-sided: a hit is a proof; Mueller, Neunhoeffer, Wilson, J.
Algebra 314, 2007).  The accumulated stabilizer of a record grows by
`GeneratedGroup.extend`, one Schreier loop at a time, at the end of a chunk
and only while the seal does not yet hold.

Each stored point keeps one Schreier edge back to the point it was reached
from: store[key] = (parent, (u, hi, q)) with key = parent . u . h_hi .
t(q)^-1, where u is a K-word, hi an H-generator index or None, q a
quotient point or None, and t(q) the K-word of q's Schreier tree (see
`normalize_point`).  The representative is the parent None.  An edge is
read only as an element: `HelperSetup.edge_element` evaluates it in the
faithful permutation action when a Schreier loop is sifted, and on the
domain for `trace_element`.  No H-word is ever spelled out.

`classify` probes v1 . g for g from a seeded random G-stream; a record keeps
g and its replayable name (stream seed, draw number), never a G-word.

The engine treats points as opaque hashable, ordered keys.  The two domain
classes, `PermutationDomain` (integer points) and `VectorDomain` (byte-
encoded F_p vectors), own the point format: they alone know how a point is
stored, acted on, listed, fixed, read from a scenario file and projected to
a helper's quotient set.
"""

import itertools
import random
from fractions import Fraction

import numpy as np

from . import gfmat
from .gfmat import FqMatrix
from .permgrp import (GeneratedGroup, Permutation, RandomStream,
                      evaluate_word, group_from_json, load_word_json,
                      orbit_tree, schreier_stabilizer, seed_mix, tree_word)


# Random H-generator steps of one walk in `probe_fixed_space`, and of the
# first of the LOCATE_ROUNDS walks of `SchurContext.locate`, whose budget
# quadruples from walk to walk.
WALK_BUDGET = 200
LOCATE_ROUNDS = 5


class MemoryBudgetExceeded(RuntimeError):
    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record


class HelperNotEquivariant(ValueError):
    pass


class NotCertifiedMember(ValueError):
    pass


# ---------------------------------------------------------------------------
# Domains: the point format.

class PermutationDomain:
    """Points are integers 0..degree-1; actors are Permutations."""

    def __init__(self, degree):
        self.degree = degree
        self.size = degree

    def apply(self, x, actor):
        return actor.images[x]

    def identity(self):
        return Permutation.identity(self.degree)

    def point_bytes(self):
        return 12

    def points(self):
        return list(range(self.degree))

    def fixed_points(self, gens):
        return [x for x in range(self.degree)
                if all(g.images[x] == x for g in gens)]

    def base_point(self, h_gens):
        """The unique point fixed by every H-generator."""
        fixed = self.fixed_points(h_gens)
        if len(fixed) != 1:
            raise ValueError(
                f"need a unique H-fixed point, found {len(fixed)}; "
                "specify base_point")
        return fixed[0]

    def parse_point(self, value):
        """A scenario file's 1-indexed point number."""
        if type(value) is not int or not 1 <= value <= self.degree:
            raise ValueError(
                f"base point must be a point number 1..{self.degree}")
        return value - 1

    def parse_quotient(self, value):
        """A scenario file's {"mapping": [1-indexed class of each point]}."""
        mapping = value.get("mapping") if isinstance(value, dict) else None
        if not isinstance(mapping, list) or any(
                type(q) is not int or q < 1 for q in mapping):
            raise ValueError("quotient must be a mapping to classes 1, 2, ...")
        return [q - 1 for q in mapping]

    def quotient(self, k_gens, mapping):
        """(quotient domain, projection, K-generators on the quotient) for a
        list sending each point to its class 0..nq-1; None is the identity.
        """
        if mapping is None:
            return self, lambda x: x, k_gens
        mapping = list(mapping)
        if len(mapping) != self.degree:
            raise ValueError("quotient mapping must cover the domain")
        nq = max(mapping) + 1
        if set(mapping) != set(range(nq)):
            raise ValueError("quotient mapping is not surjective")
        q_gens = []
        for k in k_gens:
            images = [None] * nq
            for x in range(self.degree):
                q, qi = mapping[x], mapping[k.images[x]]
                if images[q] is None:
                    images[q] = qi
                elif images[q] != qi:
                    raise HelperNotEquivariant(
                        "mapping is not a map of K-sets")
            q_gens.append(Permutation(images))
        return PermutationDomain(nq), lambda x: mapping[x], q_gens


class VectorDomain:
    """Points are F_p row vectors encoded one byte per entry (`encode`);
    actors are FqMatrix.

    `encode` accepts exactly `dim` integer entries in 0..p-1 and raises
    ValueError otherwise, so every vector has one key and, at p = 2, the
    kernel `gfmat.row_times` sees only 0/1 bytes.
    """

    def __init__(self, p, dim):
        self.p = p
        self.dim = dim
        self.size = p ** dim

    def apply(self, x, actor):
        return gfmat.row_times(x, actor)

    def identity(self):
        return FqMatrix.identity(self.p, self.dim)

    def point_bytes(self):
        return gfmat.vector_bytes(self.p, self.dim)

    def encode(self, vec):
        vec = np.asarray(vec)
        if vec.shape != (self.dim,) or vec.dtype.kind not in "iu" \
                or ((vec < 0) | (vec >= self.p)).any():
            raise ValueError(
                f"a vector needs {self.dim} integer entries in "
                f"0..{self.p - 1}")
        return vec.astype(np.uint8).tobytes()

    def points(self):
        return [bytes(v) for v in _all_vectors(self.p, self.dim)]

    def fixed_points(self, gens):
        """The nonzero vectors fixed by every generator."""
        basis = gfmat.fixed_space(self.p, gens, self.dim)
        basis = basis.toarray().astype(np.int64)
        return [self.encode(np.array(c) @ basis % self.p)
                for c in _all_vectors(self.p, len(basis)) if any(c)]

    def base_point(self, h_gens):
        """A spanning vector of the H-fixed space, which must be a line."""
        basis = gfmat.fixed_space(self.p, h_gens, self.dim)
        if basis.nrows != 1:
            raise ValueError(
                f"need a 1-dimensional H-fixed space, found {basis.nrows}; "
                "specify base_point")
        return self.encode(basis.toarray()[0])

    def parse_point(self, value):
        """A scenario file's {"vector": [entries in 0..p-1]}."""
        try:
            return self.encode(value.get("vector")
                               if isinstance(value, dict) else None)
        except ValueError:
            raise ValueError(
                f"base point must be {{\"vector\": [{self.dim} entries "
                f"in 0..{self.p - 1}]}}") from None

    def parse_quotient(self, value):
        """A scenario file's {"projection": dim x w matrix}."""
        if not isinstance(value, dict) or "projection" not in value:
            raise ValueError("quotient must be a projection matrix")
        return FqMatrix(self.p, value["projection"])

    def quotient(self, k_gens, proj):
        """(quotient domain, projection, K-generators on the quotient) for
        x -> x . proj onto F_p^w; None is the identity."""
        if proj is None:
            return self, lambda x: x, k_gens
        if not isinstance(proj, FqMatrix):
            proj = FqMatrix(self.p, proj)
        if proj.nrows != self.dim:
            raise ValueError("projection must have one row per coordinate")
        if proj.rank() != proj.ncols:
            raise ValueError("projection is not surjective")
        q_gens = []
        for k in k_gens:
            try:
                q_gens.append(gfmat._solve(proj, k * proj))
            except ValueError:
                raise HelperNotEquivariant(
                    "projection does not intertwine the K-action") from None
        return (VectorDomain(self.p, proj.ncols),
                lambda x: gfmat.row_times(x, proj), q_gens)


def _all_vectors(p, dim):
    """Every vector of F_p^dim as a tuple, the first entry varying fastest."""
    return (v[::-1] for v in itertools.product(range(p), repeat=dim))


class ActionContext:
    """Everything the engine needs about one (G, H) scenario.

    The base point v1 must be fixed by every H-generator, so the G-orbit of
    v1 models the coset space of H.  The faithful H-action (a permutation
    group whose generators correspond index-by-index to the H-generators)
    certifies stabilizer orders; without it records carry uncertified
    lower bounds.  `h_words` is accepted and unused (the benchmark passes
    it).
    """

    def __init__(self, domain, g_gens, h_gens, v1, *, h_words=None,
                 faithful_h=None, target_index=None, memory_limit=10 ** 7,
                 seed=0):
        self.domain = domain
        self.g_gens = list(g_gens)
        self.h_gens = list(h_gens)
        self.v1 = v1
        self.faithful_h = faithful_h
        self.target_index = target_index
        self.memory_limit = memory_limit
        self.seed = seed
        for h in self.h_gens:
            if domain.apply(self.v1, h) != self.v1:
                raise ValueError("base point is not fixed by H")
        if faithful_h is not None:
            faithful_h._require_chain()
            if len(faithful_h.gens) != len(self.h_gens):
                raise ValueError(
                    "faithful H-action must list one generator per H-generator")
        self.h_order = faithful_h.order() if faithful_h else None


# ---------------------------------------------------------------------------
# Helper setup: the K-orbit table on the quotient set Q.

class _KOrbit:
    __slots__ = ("length", "tree", "stab_words", "stab_elements")

    def __init__(self, tree):
        self.length = len(tree)
        self.tree = tree          # Schreier tree from the distinguished point
        self.stab_words = []      # its stabilizer's generators, K-words
        self.stab_elements = []   # the same, evaluated as domain actors


class HelperSetup:
    """A helper subgroup K (words in the H-generators) together with a
    K-equivariant quotient map and the complete table of K-orbits on the
    quotient: distinguished points, stabilizer data, Schreier trees."""

    def __init__(self, ctx, k_words, quotient=None, q_limit=2 ** 20):
        self.ctx = ctx
        k_words = list(k_words)
        ident = ctx.domain.identity()
        self.k_gens = [evaluate_word(w, ctx.h_gens, ident) for w in k_words]
        self._k_inv = [k.inverse() for k in self.k_gens]
        if ctx.faithful_h is not None:
            one = Permutation.identity(ctx.faithful_h.degree)
            self.k_group = GeneratedGroup(
                [evaluate_word(w, ctx.faithful_h.gens, one)
                 for w in k_words], ctx.faithful_h.degree)
            self.k_group.build_chain()
            self.k_order = self.k_group.order()
        else:
            self.k_group = None
            self.k_order = None
        self.q_domain, self.project, self.q_gens = ctx.domain.quotient(
            self.k_gens, quotient)
        if self.q_domain.size > q_limit:
            raise ValueError("quotient set exceeds the enumeration budget")
        self._build_orbit_table()

    # -- K-orbit table --------------------------------------------------------

    def _build_orbit_table(self):
        self.orbit_of = {}
        self.orbits = []
        for q0 in self.q_domain.points():
            if q0 in self.orbit_of:
                continue
            order, tree = orbit_tree(q0, self.q_gens, self.q_domain.apply)
            orb = _KOrbit(tree)
            self.orbit_of.update(dict.fromkeys(order, len(self.orbits)))
            self._collect_stabilizer(orb, order)
            self.orbits.append(orb)
        if self.k_order is not None:
            for orb in self.orbits:
                if self.k_order % orb.length:
                    raise AssertionError(
                        "K-orbit length does not divide |K|")

    def _collect_stabilizer(self, orb, order):
        """Schreier generators of Stab_K(distinguished point), as K-words
        and as domain actors."""
        if self.k_group is None or not self.k_gens:
            return
        _, orb.stab_words = schreier_stabilizer(
            order, orb.tree,
            lambda q, gi: self.q_domain.apply(q, self.q_gens[gi]),
            self.k_group.gens, self.k_group.degree,
            self.k_order // orb.length)
        ident = self.ctx.domain.identity()
        orb.stab_elements = [evaluate_word(w, self.k_gens, ident)
                             for w in orb.stab_words]

    def tree_word(self, q):
        """K-word t(q) with distinguished . t(q) = q."""
        return tree_word(self.orbits[self.orbit_of[q]].tree, q)

    def edge_element(self, edge, k_gens, h_gens, identity):
        """The element u . h_hi . t(q)^-1 of a stored point's edge (u, hi, q)
        (module docstring), from K- and H-generators in one action and its
        identity: `k_group.gens` and the faithful H-generators, or `k_gens`
        and `ctx.h_gens`.  hi or q None leaves its factor out."""
        u, hi, q = edge
        el = evaluate_word(u, k_gens, identity)
        if hi is not None:
            el = el * h_gens[hi] if u else h_gens[hi]
        t = () if q is None else self.tree_word(q)
        if t:
            el = el * evaluate_word(t, k_gens).inverse()
        return el


# ---------------------------------------------------------------------------

class OrbitRecord:
    """One H-orbit: representative, certified length and stabilizer order,
    and the store of distinguished points.

    store maps each stored point to its Schreier edge (parent, (u, hi, q)),
    key = parent . u . h_hi . t(q)^-1, with the representative as parent
    None; `HelperSetup.edge_element` evaluates an edge (module docstring).

    `classify` also keeps the G-element taking v1 to the representative
    (`reach_element`), its name `reach` = (stream seed, draw number; negated
    for the draw's inverse, 0 for v1's orbit) and the partner (`pair_rec`).
    loops_seen counts the re-found points, each closing a Schreier loop;
    loops_sifted counts the loops sifted into the accumulated stabilizer."""

    def __init__(self, rep_key):
        self.index = None
        self.rep = rep_key
        self.reach = None
        self.reach_element = None
        self.length = None
        self.stab_order = None
        self.store = {}
        self.covered = 0
        self.chunks = 0
        self.loops_seen = 0
        self.loops_sifted = 0
        self.pair = None
        self.pair_rec = None
        self.certified = False

    @property
    def stored(self):
        return len(self.store)

    def saving_factor(self):
        return Fraction(self.covered, max(1, self.stored))

    def __repr__(self):
        return (f"OrbitRecord(n={self.length}, |H_j|={self.stab_order}, "
                f"stored={self.stored})")


def normalize_point(helper, x):
    """(z, q): q is the image of x in the quotient and z = x . t(q)^-1 lies
    in the fiber over the distinguished image of q's K-orbit, so that
    x = z . t(q).  Walks q's Schreier tree up to the distinguished point,
    applying the inverse K-generators on the way."""
    q = helper.project(x)
    tree = helper.orbits[helper.orbit_of[q]].tree
    apply, k_inv = helper.ctx.domain.apply, helper._k_inv
    edge = tree[q]
    while edge is not None:
        gi, parent = edge
        x = apply(x, k_inv[gi])
        edge = tree[parent]
    return x, q


def enumerate_suborbit(ctx, helper, v, known):
    """Enumerate the H-orbit of v chunk by chunk, storing only fibers.

    Each chunk's normal form is looked up in `known` (stored key -> kept
    record) before it is stored; a hit returns that kept record at once.
    An enumeration of a kept orbit hits before it can seal or finish.

    Seals once 2 * covered * |S_acc| > |H|, where S_acc is the group the
    Schreier loops sifted so far generate: then n_j = |H| / |S_acc| is
    certified by orbit-stabilizer.  Otherwise the record ends on full
    coverage.  Without a faithful H-action the record is completed by
    exhaustion and flagged uncertified.

    A re-found point closes a loop; the loops are only collected while a
    chunk is expanded.  At the chunk's end they are skipped when the queue
    is exhausted (full coverage gives the same n_j and |H_j|) or when the
    seal already holds; otherwise they are sifted in the order they were
    found, stopping once the seal holds.  So S_acc is the same group at
    every seal test as if each loop were sifted when found: a chunk that
    does not seal has sifted all its loops, and once the seal holds S_acc
    is all of Stab_H(v) (its index is below 2), so the loops left could
    not change its order.
    """
    dom = ctx.domain
    record = OrbitRecord(v)
    certify = ctx.faithful_h is not None
    h_order = ctx.h_order
    if certify:
        stab_group = GeneratedGroup([], ctx.faithful_h.degree)
        ident = Permutation.identity(ctx.faithful_h.degree)
        faithful = (helper.k_group.gens, ctx.faithful_h.gens, ident)
    stab_order = 1
    perms = {}   # stored key -> faithful-H permutation from the rep

    def node_perm(key):
        if key not in perms:
            parent, edge = record.store[key]
            base = ident if parent is None else node_perm(parent)
            perms[key] = base * helper.edge_element(edge, *faithful)
        return perms[key]

    z0, q0 = normalize_point(helper, record.rep)
    if z0 in known:
        return known[z0]
    record.store[z0] = (None, ((), None, q0))
    _store_fiber(helper, record, z0)
    queue = [z0]
    qi = 0
    while qi < len(queue):
        if len(record.store) > ctx.memory_limit:
            raise MemoryBudgetExceeded(
                f"stored {len(record.store)} points; covered {record.covered}",
                record)
        root = queue[qi]
        qi += 1
        # transiently enumerate the K-orbit chunk of this root
        order, tree = orbit_tree(root, helper.k_gens, dom.apply)
        record.chunks += 1
        # expand across H-generators
        loops = []
        for y in order:
            for hi, h in enumerate(ctx.h_gens):
                z, q = normalize_point(helper, dom.apply(y, h))
                if z not in record.store:
                    if z in known:
                        return known[z]
                    record.store[z] = (root, (tree_word(tree, y), hi, q))
                    _store_fiber(helper, record, z)
                    queue.append(z)
                else:
                    loops.append((z, y, hi, q))
        record.loops_seen += len(loops)
        if not certify or qi == len(queue):
            continue
        for z, y, hi, q in loops:
            if 2 * record.covered * stab_order > h_order:
                break
            edge = (tree_word(tree, y), hi, q)
            loop = (node_perm(root) * helper.edge_element(edge, *faithful)
                    * node_perm(z).inverse())
            record.loops_sifted += 1
            if stab_group.extend(loop):
                stab_order = stab_group.order()
        if 2 * record.covered * stab_order > h_order:
            record.length = h_order // stab_order
            record.stab_order = stab_order
            record.certified = True
            if record.covered > record.length:
                raise AssertionError("covered more points than orbit length")
            return record
    # full coverage reached
    record.length = record.covered
    if certify:
        record.stab_order = h_order // record.covered
        if h_order % record.covered:
            raise AssertionError("orbit length does not divide |H|")
        record.certified = True
    else:
        record.stab_order = None
        record.certified = False
    return record


def _store_fiber(helper, record, z):
    """Store the full fiber over the distinguished image: the orbit of z
    under the stabilizer in K of the distinguished point, each generator
    applied as one element.

    Also counts the chunk as covered: the K-orbit chunk of z has exactly
    (quotient-orbit length) * (fiber size) points."""
    orb = helper.orbits[helper.orbit_of[helper.project(z)]]
    fiber = 1
    if orb.stab_elements:
        apply = helper.ctx.domain.apply
        frontier = [z]
        while frontier:
            y = frontier.pop()
            for w, s in zip(orb.stab_words, orb.stab_elements):
                img = apply(y, s)
                if img not in record.store:
                    record.store[img] = (y, (w, None, None))
                    frontier.append(img)
                    fiber += 1
    record.covered += orb.length * fiber


def walk(ctx, helper, index, x, rng, budget):
    """One random H-walk from x, looked up step by step in `index`.

    index maps stored keys to anything but None: a record's store, or the
    stored keys of many records to their records (`record_of`).  The
    point itself is normalized and looked up first, then after each of at
    most `budget` random H-generator steps.  Returns the value of the first
    hit, which proves the point lies in that stored key's H-orbit, or None.
    """
    z, _ = normalize_point(helper, x)
    hit = index.get(z)
    nh = len(ctx.h_gens)
    if hit is not None or nh == 0:
        return hit
    for _ in range(budget):
        x = ctx.domain.apply(x, ctx.h_gens[rng.randrange(nh)])
        z, _ = normalize_point(helper, x)
        hit = index.get(z)
        if hit is not None:
            return hit
    return None


def membership(ctx, helper, record, x, rng, budget):
    """Randomized membership in one record: True is certain, otherwise
    'unknown'.  A `walk` against the record's store.  No program path calls
    it; it stays because bench/tracer.py patches it by name for the
    `schur.records_tried_per_locate` metric, and goes with that metric."""
    if walk(ctx, helper, record.store, x, rng, budget) is None:
        return "unknown"
    return True


def trace_element(ctx, helper, record, x):
    """The domain actor h with rep . h = x, for certified members only: the
    edge elements from the representative down to x's normal form z, then
    t(q) with x = z . t(q)."""
    z, q = normalize_point(helper, x)
    if z not in record.store:
        raise NotCertifiedMember("point does not normalize into the store")
    route = (helper.k_gens, ctx.h_gens, ctx.domain.identity())
    h = helper.edge_element((helper.tree_word(q), None, None), *route)
    key = z
    while key is not None:
        key, edge = record.store[key]
        h = helper.edge_element(edge, *route) * h
    if ctx.domain.apply(record.rep, h) != x:
        raise AssertionError("traced element does not take rep to the point")
    return h


class OrbitPartition:
    """The records of `classify` in canonical order, and `record_of`: each
    stored key of every record -> its record, what `enumerate_suborbit` and
    `walk` look up."""

    def __init__(self, records, target_index, record_of):
        self.records = records
        self.target_index = target_index
        self.record_of = record_of

    @property
    def total(self):
        return sum(r.length for r in self.records)

    @property
    def residual(self):
        return self.target_index - self.total

    def lengths(self):
        return [r.length for r in self.records]

    def pairing(self):
        return [r.pair for r in self.records]

    def report(self):
        return {
            "target_index": self.target_index,
            "total": self.total,
            "residual": self.residual,
            "orbits": [
                {
                    "j": r.index,
                    "pair": r.pair,
                    "n": r.length,
                    "stabilizer_order": r.stab_order,
                    "stored": r.stored,
                    "covered": r.covered,
                    "saving_factor": [r.saving_factor().numerator,
                                      r.saving_factor().denominator],
                    "certified": r.certified,
                    "reach": list(r.reach),
                }
                for r in self.records
            ],
        }


def orbit_min_key(ctx, record):
    """Minimal point of the orbit (seed-independent canonical tiebreak);
    past 10^6 points, the minimal stored point, which depends on the
    representative: two such orbits of one length (J4 has four such pairs)
    may then come out in either order."""
    if record.length is not None and record.length > 10 ** 6:
        return min(record.store)
    return min(orbit_tree(record.rep, ctx.h_gens, ctx.domain.apply)[0])


def classify(ctx, helper, seed=0, probe_budget=10 ** 6):
    """Find the full H-orbit decomposition by random G-probes.

    Probes v1 . g for random g until the lengths sum to the target index.
    `enumerate_suborbit` against the kept records' keys keeps a new orbit,
    and its partner v1 . g^{-1} is classified at once so the pairing is an
    involution.  Output ordering is canonical: the orbit of v1 first, then
    by (length, minimal orbit point), independent of seed, except between
    equal lengths past 10^6 points (`orbit_min_key`).
    """
    if ctx.target_index is None:
        raise ValueError("classify needs the target index [G:H]")
    stream = RandomStream(ctx.g_gens, seed)
    records = []
    record_of = {}    # stored key -> record, over every record kept so far
    probes = 0

    def add_new(x, reach, element):
        rec = enumerate_suborbit(ctx, helper, x, record_of)
        if rec.reach is not None:    # a kept record: x's orbit is known
            return rec, False
        rec.reach = reach
        rec.reach_element = element
        records.append(rec)
        record_of.update(dict.fromkeys(rec.store, rec))
        return rec, True

    add_new(ctx.v1, (seed, 0), ctx.domain.identity())
    records[0].pair_rec = records[0]

    while sum(r.length for r in records) < ctx.target_index \
            and probes < probe_budget:
        el, draw = stream.next()
        probes += 1
        rec, fresh = add_new(ctx.domain.apply(ctx.v1, el),
                             (seed, draw.number), el)
        if not fresh:
            continue
        el_inv = stream.last_inverse()
        partner, _ = add_new(ctx.domain.apply(ctx.v1, el_inv),
                             (seed, -draw.number), el_inv)
        rec.pair_rec = partner
        partner.pair_rec = rec
    # canonical ordering and index assignment; every kept record was
    # paired the moment it was kept.  Only equal lengths need the minimal
    # points, and finding one enumerates the orbit
    first, rest = records[0], records[1:]
    lengths = [r.length for r in rest]
    rest.sort(key=lambda r: (r.length, orbit_min_key(ctx, r)
                             if lengths.count(r.length) > 1 else ()))
    ordered = [first] + rest
    for i, rec in enumerate(ordered):
        rec.index = i + 1
    for rec in ordered:
        rec.pair = rec.pair_rec.index
    part = OrbitPartition(ordered, ctx.target_index, record_of)
    for rec in ordered:
        mate = ordered[rec.pair - 1]
        if mate.pair != rec.index:
            raise AssertionError("orbit pairing is not an involution")
        if mate.length != rec.length:
            raise AssertionError("paired orbits differ in length")
    return part


def probe_fixed_space(ctx, helper, partition, s_gens, target_length,
                      seed=0, probes=2000):
    """Hunt a new orbit representative inside the fixed points of S.

    Checks each fixed point v with an H-orbit of the target length by
    probing v . g for random g against the known records; a hit in record
    j gives the G-element g_j h g^-1 taking v1 to v (g_j its
    `reach_element`, h from `trace_element`).  Returns (v, element) or None.
    """
    dom = ctx.domain
    rng = random.Random(seed_mix(seed, 0xF17ED))
    stream = RandomStream(ctx.g_gens, seed + 1)
    for v in dom.fixed_points(s_gens):
        orbit, _ = orbit_tree(v, ctx.h_gens, dom.apply, target_length)
        if len(orbit) != target_length:
            continue
        for _ in range(probes):
            el, _ = stream.next()
            x = dom.apply(v, el)
            rec = walk(ctx, helper, partition.record_of, x, rng, WALK_BUDGET)
            if rec is None:
                continue
            h = trace_element(ctx, helper, rec, x)
            element = rec.reach_element * h * stream.last_inverse()
            if dom.apply(ctx.v1, element) != v:
                raise AssertionError(
                    "reaching element does not take v1 to the vector")
            return v, element
    return None


def memory_estimate(ctx):
    """Naive full-orbit storage estimate in bytes (what the engine avoids)."""
    per = ctx.domain.point_bytes()
    total = None if ctx.target_index is None else ctx.target_index * per
    return {"bytes_per_point": per, "full_orbit_bytes": total}


# ---------------------------------------------------------------------------
# Scenario files

def load_scenario(data):
    """Build (ctx, helper) from a scenario dict (a parsed JSON object).

    Keys:

    - "group": G as a permutation group, {"degree": n, "generators":
      [[image of 1, ..., image of n], ...]} on the points 1..n; or
      "matrix_group": G acting on F_p^dim, {"p": p, "dim": dim,
      "generators": [dim x dim entries, row-major, or for p = 2 a hex
      string of bit-packed rows]}.
    - "h_words": generators of H as words in G's generators, each
      [[generator, exponent], ...] with 1-indexed generators, negated for
      the inverse.
    - "k_words" (optional, default none): generators of the helper K <= H
      as words in the H-generators.
    - "faithful_h" (optional): H as a permutation group with one generator
      per H-generator, in the format of "group"; it certifies orbit
      lengths.
    - "base_point" (optional): v1, a 1-indexed point number for "group",
      {"vector": [dim entries in 0..p-1]} for "matrix_group".  Without it,
      the unique H-fixed point or the H-fixed line is used.
    - "quotient" (optional, default the identity): K's quotient map,
      {"mapping": [1-indexed class of each point]} for "group",
      {"projection": dim x w matrix of rank w} for "matrix_group".
    - "index": [G:H], the total length of the H-orbits.  Classifying needs
      it.
    - "seed" (optional, default 0).
    - "budgets" (optional): {"memory_points": stored points per orbit
      (default 10^7), "q_limit": largest quotient set listed (default
      2^20)}.
    """
    if not isinstance(data, dict):
        raise ValueError("a scenario is a JSON object")
    if not isinstance(data.get("h_words"), list):
        raise ValueError("h_words must be a list of words")
    if not isinstance(data.get("k_words", []), list):
        raise ValueError("k_words must be a list of words")
    seed = data.get("seed", 0)
    if type(seed) is not int:
        raise ValueError("seed must be an integer")
    budgets = data.get("budgets", {})
    if not isinstance(budgets, dict) or any(
            type(b) is not int or b < 1 for b in budgets.values()):
        raise ValueError("budgets must map names to positive integers")
    index = data.get("index")
    if index is not None and (type(index) is not int or index < 1):
        raise ValueError("index must be a positive integer")
    if "group" in data:
        G = group_from_json(data["group"])
        dom = PermutationDomain(G.degree)
        g_gens = G.gens
    else:
        p, g_gens, dim = gfmat.rep_from_json(data["matrix_group"])
        dom = VectorDomain(p, dim)
    h_words = [load_word_json(w) for w in data["h_words"]]
    h_gens = [evaluate_word(w, g_gens, dom.identity()) for w in h_words]
    faithful = None
    if "faithful_h" in data:
        faithful = group_from_json(data["faithful_h"])
        faithful.build_chain()
    if "base_point" in data:
        v1 = dom.parse_point(data["base_point"])
    else:
        v1 = dom.base_point(h_gens)
    ctx = ActionContext(
        dom, g_gens, h_gens, v1, faithful_h=faithful, target_index=index,
        memory_limit=budgets.get("memory_points", 10 ** 7), seed=seed)
    k_words = [load_word_json(w) for w in data.get("k_words", [])]
    quotient = None
    if data.get("quotient"):
        quotient = dom.parse_quotient(data["quotient"])
    helper = HelperSetup(ctx, k_words, quotient,
                         q_limit=budgets.get("q_limit", 2 ** 20))
    return ctx, helper
