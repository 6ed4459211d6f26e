"""Permutation groups given by generators.

Groups carry a deterministic stabilizer chain (base and strong generating
set) built by the Schreier-Sims procedure, giving exact orders, membership
tests and point stabilizers.  Short words in the generators name tree paths
and stabilizer generators; seeded product-replacement streams supply
reproducible random elements, each named by its seed and draw number.

Points are 0-indexed internally and 1-indexed in all file formats.

A permutation of degree n <= 256 holds its images as `bytes`, one byte per
point, and composes with `bytes.translate`; above 256 it holds a tuple of
ints.  Both index to ints, compare and sort alike, and print the same
JSON.  A bytes hash is salted per process, so no output may depend on the
iteration order of a set of permutations.  A *table* is what the
right-hand factor of a composition is read from: for bytes the images
padded to 256 bytes with the identity (a `translate` table), for a tuple
the images themselves.  The stabilizer chain keeps its inverse transversal
entries as tables, built by `bytes.maketrans`.
"""

import random
import sys

_IDENTITY = bytes(range(256))


class _ByteForm:
    """Images as bytes: degree at most 256."""

    from_seq = bytes

    @staticmethod
    def identity(degree):
        return _IDENTITY[:degree]

    @staticmethod
    def table(images):
        return images + _IDENTITY[len(images):]

    compose = bytes.translate   # compose(images, table)

    @staticmethod
    def inverse_table(images):
        return bytes.maketrans(images, _IDENTITY[:len(images)])


class _TupleForm:
    """Images as a tuple of ints: degree above 256."""

    from_seq = tuple

    @staticmethod
    def identity(degree):
        return tuple(range(degree))

    @staticmethod
    def table(images):
        return images

    @staticmethod
    def compose(images, table):
        return tuple(map(table.__getitem__, images))

    @staticmethod
    def inverse_table(images):
        inv = [0] * len(images)
        for i, j in enumerate(images):
            inv[j] = i
        return tuple(inv)


def _form(degree):
    return _ByteForm if degree <= 256 else _TupleForm


class Permutation:
    """A permutation of {0..n-1}, stored as its images: `bytes` when
    n <= 256, else a tuple of ints (see the module docstring).

    Acts on the right: x * p is p.images[x].  `images[x]` is an int in
    both forms, and permutations of one degree hash, compare and sort as
    their image sequences.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        if type(images) is not bytes:
            images = tuple(images)
            images = _form(len(images)).from_seq(images)
        self.images = images

    @classmethod
    def identity(cls, degree):
        return cls(_form(degree).identity(degree))

    @classmethod
    def from_cycles(cls, degree, cycles):
        img = list(range(degree))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:]):
                img[a] = b
            if cyc:
                img[cyc[-1]] = cyc[0]
        return cls(img)

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, point):
        return self.images[point]

    def __mul__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        if len(self.images) != len(other.images):
            raise ValueError("permutations act on different domains")
        form = _form(len(other.images))
        return Permutation(form.compose(self.images, form.table(other.images)))

    def inverse(self):
        n = len(self.images)
        return Permutation(_form(n).inverse_table(self.images)[:n])

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)})"


def seed_mix(*parts):
    """Deterministic integer from integer parts, for seeding sub-streams."""
    acc = 0x9E3779B97F4A7C15
    for x in parts:
        acc = (acc * 0x100000001B3 + (int(x) & 0xFFFFFFFFFFFFFFFF) + 1) \
            % (1 << 61)
    return acc


# ---------------------------------------------------------------------------
# Words in generators: tuples of (generator index, +-1), 0-indexed.

def evaluate_word(word, gens, identity=None):
    """Fold a word left to right over generators (permutations or matrices).

    Generators must support * and .inverse().  The empty word returns
    `identity` when supplied, else the identity permutation of gens[0].
    """
    acc = None
    inverses = {}
    for i, e in word:
        if not 0 <= i < len(gens):
            raise IndexError(f"generator index {i} out of range")
        if e > 0:
            g = gens[i]
        else:
            if i not in inverses:
                inverses[i] = gens[i].inverse()
            g = inverses[i]
        acc = g if acc is None else acc * g
    if acc is not None:
        return acc
    if identity is not None:
        return identity
    return Permutation.identity(gens[0].degree)


def load_word_json(data):
    """Words in files are [[genIndex, exp], ...] with 1-indexed generators."""
    if not isinstance(data, list) or not all(
            isinstance(p, list) and len(p) == 2
            and all(type(v) is int for v in p) for p in data):
        raise ValueError("a word is a list of [generator, exponent] pairs")
    out = []
    for i, e in data:
        if i == 0:
            raise ValueError("word generator indices are 1-indexed in files")
        idx = abs(i) - 1
        sign = 1 if i > 0 else -1
        if e < 0:
            e, sign = -e, -sign
        out.extend([(idx, sign)] * e)
    return tuple(out)


def dump_word_json(word):
    return [[i + 1 if e > 0 else -(i + 1), abs(e)] for i, e in word]


# ---------------------------------------------------------------------------

class Draw:
    """A `RandomStream` element's name: the seed and the draw number, from
    1, to which RandomStream(gens, seed) replays.  len() is the letter count
    (up to sys.maxsize) of the word in the generators whose product the
    element is; the stream counts it in place of keeping the word."""

    def __init__(self, seed, number, letters):
        self.seed, self.number, self.letters = seed, number, letters

    def __len__(self):
        return self.letters


class RandomStream:
    """Product-replacement stream over a fixed generator list.

    Ten slots, or one per generator when there are more, and 50 burn-in
    steps (Celler et al., Comm. Algebra 23, 1995).
    Each step (i, j, inverted) comes from the seeded RNG alone, so a draw
    is replayable.  Each slot also keeps its inverse: the step slot_i <-
    slot_i * other sets inv_i <- other^-1 * inv_i, so no element is ever
    inverted after the generators.
    """

    SLOTS = 10
    BURN_IN = 50

    def __init__(self, gens, seed):
        if not gens:
            raise ValueError("need at least one generator")
        self.seed = seed
        self.rng = random.Random(seed)
        gen_inverses = [g.inverse() for g in gens]
        self.slots = []
        self.inverses = []
        for k in range(max(self.SLOTS, len(gens))):
            i = k % len(gens)
            self.slots.append(gens[i])
            self.inverses.append(gen_inverses[i])
        self.letters = [1] * len(self.slots)
        self.draws = 0
        for _ in range(self.BURN_IN):
            self._step()

    def _step(self):
        rng = self.rng
        i = rng.randrange(len(self.slots))
        j = rng.randrange(len(self.slots) - 1)
        if j >= i:
            j += 1
        if rng.randrange(2):
            other, other_inv = self.inverses[j], self.slots[j]
        else:
            other, other_inv = self.slots[j], self.inverses[j]
        self.slots[i] = self.slots[i] * other
        self.inverses[i] = other_inv * self.inverses[i]
        self.letters[i] = min(self.letters[i] + self.letters[j], sys.maxsize)
        self._last = i
        return i

    def next(self):
        """Return (element, draw): the next element and its `Draw`."""
        i = self._step()
        self.draws += 1
        return self.slots[i], Draw(self.seed, self.draws, self.letters[i])

    def last_inverse(self):
        """The inverse of the element the last `next` returned."""
        return self.inverses[self._last]


# ---------------------------------------------------------------------------

class GeneratedGroup:
    """A permutation group with an optional stabilizer chain.

    The chain comes from one incremental Schreier-Sims (Seress, Permutation
    Group Algorithms, 2003, ch. 4).  Level i holds the base point base[i],
    its generator list L_i (strong generators fixing base[:i], not always
    all of them), the transversal (orbit point -> element taking base[i]
    there) with the inverse of each entry as a table, and one cursor per
    transversal point, in insertion order: how many of the level's
    generators have been checked for that point.  L_i is kept as tables,
    and the image form (bytes or tuple) is chosen once, from the degree.

    Membership: <L_m> is a subgroup of <L_j> for every j < m.  An element
    from outside joins levels 0..lvl.  The residue r of a level-i Schreier
    generator, sifted from depth i + 1, joins only levels i+1..lvl: r is a
    product of elements of L_i and of transversal entries of deeper
    levels, so r already lies in <L_i>, and in <L_j> for every j <= i.
    The groups and orbits of levels 0..i do not change, and Schreier's
    lemma needs only some generating set of each level's group.

    Invariant: the Schreier generators u_pt * s * u_(pt s)^-1 of the pairs
    before a point's cursor have sifted to the identity, and they stay
    members, because transversal entries are only ever added, never
    replaced, and the deeper levels' groups only grow.  A generator joins
    a level at the end of its list, so a cursor never has to move back.
    A level is complete when every cursor has reached its generator count.
    `strong` holds every residue, whichever levels it joined.
    """

    def __init__(self, gens, degree=None):
        gens = [g for g in gens]
        if degree is None:
            if not gens:
                raise ValueError("degree required for the trivial group")
            degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise ValueError("generators act on different domains")
        self.gens = gens
        self.degree = degree
        self._form = _form(degree)
        self._identity_images = self._form.identity(degree)
        self.base = None
        self.strong = None
        self.transversals = None

    # -- chain construction ------------------------------------------------

    def build_chain(self, base_prefix=()):
        """Deterministic Schreier-Sims: the empty chain on the base prefix,
        then each generator absorbed as by `extend`.

        New base points are the first points a residue moves, so chains
        (and everything derived from them) are stable across runs.  An
        optional base prefix forces the leading base points, which is how
        point stabilizers are extracted.
        """
        self.base, self.strong, self.transversals = [], [], []
        self._inverses, self._level_gens, self._cursors = [], [], []
        for b in base_prefix:
            self._open_level(b)
        for g in self.gens:
            self._absorb(g)
        return self

    def extend(self, g):
        """Grow the group to <gens, g>; True when g was not yet a member.

        g is sifted; a non-identity residue becomes a strong generator and
        only the levels at or above its level are completed again, since
        the deeper ones are unchanged.  A member changes nothing, not even
        the generator list.
        """
        if g.degree != self.degree:
            raise ValueError("generators act on different domains")
        self._require_chain()
        if not self._absorb(g):
            return False
        self.gens.append(g)
        return True

    def _absorb(self, g):
        """Sift g in and complete the levels it changed, from its residue's
        level up to level 0; True when the group grew."""
        residue, lvl = self._sift(g.images)
        if residue is None:
            return False
        i = self._add_strong(residue, lvl, 0)
        while i >= 0:
            residue, lvl = self._check_level(i)
            if residue is None:
                i -= 1
            else:
                i = self._add_strong(residue, lvl, i + 1)
        return True

    def _add_strong(self, images, lvl, low):
        """Add the permutation with these images, which fixes base[:lvl],
        as a strong generator of levels low..lvl (opening level lvl when it
        fixes the whole base); returns lvl."""
        if lvl == len(self.base):
            self._open_level(min(i for i, j in enumerate(images) if i != j))
        self.strong.append(Permutation(images))
        table = self._form.table(images)
        for j in range(low, lvl + 1):
            self._level_gens[j].append(table)
            self._grow_orbit(j)
        return lvl

    def _open_level(self, point):
        """Append a level with base point `point` and no generators."""
        self.base.append(point)
        self.transversals.append({point: Permutation(self._identity_images)})
        self._inverses.append({point: self._form.table(self._identity_images)})
        self._level_gens.append([])
        self._cursors.append([0])

    def _grow_orbit(self, j):
        """Close the level-j transversal under the level's generators after
        one joined; existing entries stay.  The older generators already
        closed the old points, so only the joined one is applied to them,
        and every generator to the points found; a new point's cursor
        starts at 0."""
        trans, inv = self.transversals[j], self._inverses[j]
        gens, cursors = self._level_gens[j], self._cursors[j]
        compose, inverse_table = self._form.compose, self._form.inverse_table
        frontier, step = list(trans), gens[-1:]
        while frontier:
            nxt = []
            for pt in frontier:
                rep = trans[pt].images
                for s in step:
                    img = s[pt]
                    if img not in trans:
                        images = compose(rep, s)
                        trans[img] = Permutation(images)
                        inv[img] = inverse_table(images)
                        cursors.append(0)
                        nxt.append(img)
            frontier, step = nxt, gens

    def _check_level(self, i):
        """Sift the Schreier generators of level i from each point's
        cursor, points in transversal order; on the first non-identity
        residue return (its images, level it stopped at), leaving that
        point's cursor on the pair that produced it.  The pairs before a
        cursor are never checked again: they sifted to the identity and
        stay members, as the deeper levels only grow.  A pair whose rep * s
        is the transversal entry of pt s, a tree edge among them, has the
        identity as Schreier generator and is passed without a sift."""
        trans, inv = self.transversals[i], self._inverses[i]
        gens, cursors = self._level_gens[i], self._cursors[i]
        compose, n = self._form.compose, len(gens)
        for k, (pt, rep) in enumerate(trans.items()):
            if cursors[k] == n:
                continue
            rep = rep.images
            for c in range(cursors[k], n):
                s = gens[c]
                img = s[pt]
                images = compose(rep, s)
                if images != trans[img].images:
                    residue, lvl = self._sift(compose(images, inv[img]), i + 1)
                    if residue is not None:
                        cursors[k] = c
                        return residue, lvl
            cursors[k] = n
        return None, None

    def _sift(self, images, depth=0):
        """Strip a permutation (as its images) through levels depth..;
        returns (None, None) when it sifts to the identity, else the
        residue's images and the level where it stopped."""
        compose, base, inverses = self._form.compose, self.base, self._inverses
        for lvl in range(depth, len(base)):
            b = base[lvl]
            pt = images[b]
            if pt == b:
                continue
            back = inverses[lvl].get(pt)
            if back is None:
                return images, lvl
            images = compose(images, back)
        if images == self._identity_images:
            return None, None
        return images, len(self.base)

    def _require_chain(self):
        if self.base is None:
            self.build_chain()

    # -- queries -----------------------------------------------------------

    def order(self):
        self._require_chain()
        n = 1
        for trans in self.transversals:
            n *= len(trans)
        return n

    def __contains__(self, perm):
        self._require_chain()
        if perm.degree != self.degree:
            return False
        return self._sift(perm.images)[0] is None

    def stabilizer(self, point):
        """Full point stabilizer, with its own chain."""
        shifted = GeneratedGroup(self.gens, self.degree)
        shifted.build_chain(base_prefix=(point,))
        gens = [g for g in shifted.strong if g.images[point] == point]
        stab = GeneratedGroup(gens, self.degree)
        stab.build_chain()
        return stab

    def stabilizer_with_words(self, point):
        """Point stabilizer plus words in self.gens for its generators.

        Schreier generators from the orbit of the point, pruned to those
        that grow the subgroup; word lengths stay short because transversal
        words come from a BFS tree.
        """
        self._require_chain()
        points, tree = orbit_tree(point, self.gens, _image)
        return schreier_stabilizer(
            points, tree, lambda pt, gi: self.gens[gi].images[pt],
            self.gens, self.degree, self.order() // len(points))


def _image(pt, g):
    return g.images[pt]


def orbit_tree(start, gens, act, limit=None):
    """Breadth-first orbit of start with its Schreier tree.

    act(pt, g) is the image of pt under the generator g.  Returns (points
    in BFS order, tree), where tree maps start to None and every other
    point to (generator index, parent): parent . gens[index] = point.
    With a limit, the search stops once more than limit points are found.
    """
    tree = {start: None}
    points = [start]
    i = 0
    while i < len(points) and (limit is None or len(points) <= limit):
        pt = points[i]
        i += 1
        for gi, g in enumerate(gens):
            img = act(pt, g)
            if img not in tree:
                tree[img] = (gi, pt)
                points.append(img)
    return points, tree


def tree_word(tree, pt):
    """Word w in the generators with root . w = pt, read off an
    `orbit_tree` tree."""
    out = []
    while tree[pt] is not None:
        gi, pt = tree[pt]
        out.append((gi, 1))
    return tuple(reversed(out))


def schreier_stabilizer(points, tree, image, gens, degree, target):
    """Stabilizer of points[0] in <gens> from pruned Schreier generators.

    points is its orbit in BFS order and tree its `orbit_tree` tree, whose
    generator indices refer to gens; image(pt, i) is the image of pt under
    generator i.  Schreier generators are visited point by point,
    generator by generator; one is kept when it is not yet a member of the
    group the kept ones generate, which grows by `extend`, until that
    group reaches the target order.  The kept words depend only on
    membership and order.
    Returns (group, kept words); the group's gens are the kept elements.
    """
    ident = Permutation.identity(degree)
    group = GeneratedGroup([], degree)
    group.build_chain()
    kept = []
    elements = {}

    def element(pt):
        if pt not in elements:
            elements[pt] = evaluate_word(tree_word(tree, pt), gens, ident)
        return elements[pt]

    for pt in points:
        if group.order() == target:
            break
        for gi, g in enumerate(gens):
            img = image(pt, gi)
            if group.extend(element(pt) * g * element(img).inverse()):
                kept.append(tree_word(tree, pt) + ((gi, 1),) + tuple(
                    (i, -e) for i, e in reversed(tree_word(tree, img))))
                if group.order() == target:
                    break
    if group.order() != target:
        raise RuntimeError("stabilizer generation incomplete")
    return group, kept


def closure_elements(gens, degree, limit=None):
    """Exhaustive closure of a generator set; brute-force oracle for orders."""
    ident = Permutation.identity(degree)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if limit is not None and len(seen) > limit:
                        raise RuntimeError("closure exceeds limit")
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# Group files: {"degree": n, "generators": [[images, 1-indexed], ...]}

def group_from_json(data):
    if not isinstance(data, dict) or type(data.get("degree")) is not int \
            or not isinstance(data.get("generators"), list):
        raise ValueError('a group is {"degree": n, "generators": [...]}')
    degree = data["degree"]
    gens = []
    for images in data["generators"]:
        if not isinstance(images, list) or len(images) != degree:
            raise ValueError("generator length does not match degree")
        if any(type(i) is not int for i in images) \
                or sorted(images) != list(range(1, degree + 1)):
            raise ValueError("generator images are not a 1-indexed bijection")
        gens.append(Permutation(i - 1 for i in images))
    return GeneratedGroup(gens, degree)


def group_to_json(group):
    return {
        "degree": group.degree,
        "generators": [[i + 1 for i in g.images] for g in group.gens],
    }

