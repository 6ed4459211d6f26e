"""A seeded synthetic character table over a box shaped like the J4 one.

The real J4 candidate box needs J4's ordinary character table, which the
repository does not ship.  This stands in for it: the constituents and
their multiplicities are the J4 permutation character's (from
j4_permchar.json, in file order), the quadratic constituents keep their
fields and come in Galois-conjugate pairs, and the values on a few
11-singular classes are small seeded algebraic integers.  Class 2A is
11-regular with J4's 2A centralizer order, whose 11-part is 11, so the
defect filter asks for 11 to divide the candidate's value there.

One candidate is planted: its class sums vanish on every singular class and
its 2A value is divisible by 11, so the admissible set is never empty.  The
admissible count is also computed independently, by dynamic programming
over partial class sums, without the candidate filter's code.
"""

import random
from collections import Counter

from endoperm import candfilter, fixtures
from endoperm.quadfield import QuadraticNumber

PRIME = 11
CENTRALIZER_2A = 21799895040
SINGULAR_CLASSES = 2
VALUE_RANGE = 1


class SyntheticBox:
    """Table, constituents and reference answers for one seed.

    `constituents` is the prefix of the J4 permutation character that the
    box spans (the trivial character first, its coefficient pinned to 1)."""

    def __init__(self, seed, constituents=None):
        rng = random.Random(seed)
        permchar = fixtures.load_permchar()["constituents"]
        if constituents is not None:
            permchar = permchar[:constituents]
        self.labels = [f"chi{c['chi']}" for c in permchar]
        self.mults = [c["m"] for c in permchar]
        fields = [c["field"] for c in permchar]
        conj = _conjugates(fields)
        self.constituents = list(zip(self.labels, self.mults))
        self.box = 1
        for m in self.mults[1:]:
            self.box *= m + 1

        # planted candidate: conjugate pairs share a coefficient, so the
        # radical parts cancel; a constituent without its conjugate is 0
        planted = [1]
        for i in range(1, len(fields)):
            if fields[i] == 1:
                planted.append(rng.randint(0, self.mults[i]))
            elif conj[i] is None:
                planted.append(0)
            elif conj[i] < i:
                planted.append(planted[conj[i]])
            else:
                planted.append(rng.randint(0, self.mults[i]))
        balance = fields.index(1, 1)
        planted[balance] = 1
        self.planted = tuple(planted)

        # integer parts a and radical parts b of every value, per class
        regular = [1] + [rng.randint(-3 * PRIME, 3 * PRIME)
                         for _ in fields[1:]]
        for i, j in enumerate(conj):
            if j is not None and j < i:
                regular[i] = regular[j]
        rest = sum(d * v for i, (d, v) in enumerate(zip(planted, regular))
                   if i != balance)
        regular[balance] -= (rest + regular[balance]) % PRIME
        columns = [[(v, 0) for v in regular]]
        for _ in range(SINGULAR_CLASSES):
            col = [(1, 0)]
            for i in range(1, len(fields)):
                a = rng.randint(-VALUE_RANGE, VALUE_RANGE)
                if fields[i] == 1:
                    col.append((a, 0))
                elif conj[i] is not None and conj[i] < i:
                    a, b = col[conj[i]]
                    col.append((a, -b))
                else:
                    col.append((a, rng.choice((-1, 1))
                                * rng.randint(1, VALUE_RANGE)))
            rest = sum(d * a for i, (d, (a, _)) in
                       enumerate(zip(planted, col)) if i != balance)
            col[balance] = (-rest, 0)
            columns.append(col)

        classes = [{"name": "2A", "centralizer": CENTRALIZER_2A,
                    "p_singular": False}]
        classes += [{"name": f"S{c + 1}", "centralizer": None,
                     "p_singular": True} for c in range(SINGULAR_CLASSES)]
        chars = {label: [QuadraticNumber(a, b, fields[i])
                         for a, b in (col[i] for col in columns)]
                 for i, label in enumerate(self.labels)}
        self.table = candfilter.OrdinaryCharTableG(classes, chars)
        self.admissible = admissible_count(fields, self.mults, columns)
        if self.admissible < 1:
            raise AssertionError("the planted candidate is not admissible")


def _conjugates(fields):
    """Index of each quadratic constituent's Galois conjugate: the next or
    previous constituent over the same field, paired in file order."""
    conj = [None] * len(fields)
    i = 0
    while i < len(fields) - 1:
        if fields[i] != 1 and fields[i + 1] == fields[i]:
            conj[i], conj[i + 1] = i + 1, i
            i += 2
        else:
            i += 1
    return conj


def admissible_count(fields, mults, columns):
    """Box points whose class sums vanish on every singular class and whose
    2A value is divisible by 11, by dynamic programming over partial sums.

    A state is the 2A value mod 11 together with, for each singular class,
    the integer coefficient of every radical (1 and each field's)."""
    radicals = sorted(set(fields))
    slot = {d: i for i, d in enumerate(radicals)}
    width = len(radicals)
    nclasses = len(columns) - 1

    def step(i):
        vec = [0] * (nclasses * width)
        for c, col in enumerate(columns[1:]):
            a, b = col[i]
            vec[c * width] += a
            vec[c * width + slot[fields[i]]] += b
        return columns[0][i][0], vec

    states = Counter()
    val, vec = step(0)
    states[(val % PRIME, tuple(vec))] = 1
    for i in range(1, len(fields)):
        val, vec = step(i)
        nxt = Counter()
        for (vsum, sums), count in states.items():
            for d in range(mults[i] + 1):
                key = ((vsum + d * val) % PRIME,
                       tuple(s + d * v for s, v in zip(sums, vec)))
                nxt[key] += count
        states = nxt
    return states[(0, (0,) * (nclasses * width))]


def check_filter(result, box):
    """Checks of admissible_candidates' (box size, candidates) answer."""
    size, found = result
    coeffs = {c.coeffs for c in found}
    return [
        ("box size is the product of (m_i + 1)", size == box.box,
         f"{size} vs {box.box}"),
        ("admissible count equals the independent count",
         len(found) == box.admissible,
         f"{len(found)} vs {box.admissible}"),
        ("the planted candidate survives", box.planted in coeffs, ""),
    ]
