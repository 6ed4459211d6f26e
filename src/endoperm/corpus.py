"""The pinned instance corpus for oracle cross-validation.

Named instances: S4/S3, S5/S4, S6/S5, PSL(2,7)/S4, PSL(2,11)/A5, M11/M10
(the question in miniature at p = 11), each realized as a transitive
permutation group with H the stabilizer of point 0.  On top of that a
seeded generator produces randomized transitive instances of degree <= 60:
a family is drawn per seed, then the group is re-generated from random
elements and conjugated by a random permutation, so the presentation and
the point labels are scrambled while the endomorphism character fields
stay rational or real quadratic (the splitting the package supports; see
the manifest for what each family exercises).
"""

import json
import random
from importlib import resources

from .orbenum import ActionContext, HelperSetup, PermutationDomain
from .permgrp import (GeneratedGroup, Permutation, RandomStream,
                      closure_elements)


class Instance:
    def __init__(self, name, group, base_point=0, primes=(), notes=""):
        self.name = name
        self.group = group
        self.base_point = base_point
        self.primes = list(primes)
        self.notes = notes

    def __repr__(self):
        return f"Instance({self.name}, degree={self.group.degree})"


# ---------------------------------------------------------------------------
# Named instances

def _symmetric(n):
    return GeneratedGroup([
        Permutation([1, 0] + list(range(2, n))),
        Permutation(list(range(1, n)) + [0])])


def _m11():
    return GeneratedGroup([
        Permutation.from_cycles(11, [list(range(11))]),
        Permutation.from_cycles(11, [[2, 6, 10, 7], [3, 9, 4, 5]])])


def _gl32_on_points():
    """GL(3,2) = PSL(2,7) on the 7 nonzero vectors of F_2^3."""
    import numpy as np
    pts = list(range(1, 8))

    def act(mat):
        images = []
        for v in pts:
            vec = np.array([(v >> k) & 1 for k in range(3)])
            img = vec @ mat % 2
            images.append(int(img[0]) + 2 * int(img[1]) + 4 * int(img[2]))
        return Permutation([images[v - 1] - 1 for v in pts])

    a = act(np.array([[0, 1, 0], [0, 0, 1], [1, 1, 0]]))
    b = act(np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    G = GeneratedGroup([a, b])
    if G.order() != 168:
        raise AssertionError("GL(3,2) construction broke")
    return G


def _psl2_11_degree11():
    """PSL(2,11) in its exceptional degree-11 action (stabilizer A5)."""
    from . import oracle
    # projective line: 0..10 are field elements, 11 is infinity
    s = Permutation([(i + 1) % 11 for i in range(11)] + [11])
    timg = []
    for i in range(11):
        timg.append(11 if i == 0 else (-pow(i, -1, 11)) % 11)
    timg.append(0)
    t = Permutation(timg)
    G = GeneratedGroup([s, t])
    if G.order() != 660:
        raise AssertionError("PSL(2,11) construction broke")
    stream = RandomStream(G.gens, seed=2024)
    a5 = None
    for _ in range(400):
        a, _w = stream.next()
        b, _w = stream.next()
        cand = GeneratedGroup([a, b], 12)
        if cand.order() == 60:
            a5 = cand
            break
    if a5 is None:
        raise AssertionError("no A5 found inside PSL(2,11)")
    act = oracle.coset_action(G, a5)
    G11 = GeneratedGroup(act.gen_perms)
    if G11.order() != 660 or G11.degree != 11:
        raise AssertionError("degree-11 action of PSL(2,11) broke")
    return G11


def named_instances():
    return [
        Instance("S4/S3", _symmetric(4), primes=[2, 3],
                 notes="natural degree 4"),
        Instance("S5/S4", _symmetric(5), primes=[5, 3, 2],
                 notes="local at 5, split at 3"),
        Instance("S6/S5", _symmetric(6), primes=[2, 3, 5],
                 notes="natural degree 6"),
        Instance("PSL(2,7)/S4", _gl32_on_points(), primes=[7, 3, 2],
                 notes="7 points of the Fano plane"),
        Instance("PSL(2,11)/A5", _psl2_11_degree11(), primes=[11, 5, 3],
                 notes="exceptional 2-transitive degree 11"),
        Instance("M11/M10", _m11(), primes=[11, 3],
                 notes="the question in miniature at p = 11"),
    ]


# ---------------------------------------------------------------------------
# Randomized transitive instances (seeded, field-safe families)

def _dihedral_on_points(q):
    return GeneratedGroup([
        Permutation([(i + 1) % q for i in range(q)]),
        Permutation([(-i) % q for i in range(q)])])


def _regular_group(gens, degree):
    elems = sorted(closure_elements(gens, degree), key=lambda p: p.images)
    idx = {p: i for i, p in enumerate(elems)}
    return GeneratedGroup([
        Permutation([idx[x * g] for x in elems]) for g in gens])


def _paley(q, k):
    """C_q : C_k with k | q-1, on q points (quadratic character fields)."""
    g = _primitive_root(q)
    mult = pow(g, (q - 1) // k, q)
    return GeneratedGroup([
        Permutation([(i + 1) % q for i in range(q)]),
        Permutation([(mult * i) % q for i in range(q)])])


def _primitive_root(q):
    for g in range(2, q):
        seen = set()
        x = 1
        for _ in range(q - 1):
            x = x * g % q
            seen.add(x)
        if len(seen) == q - 1:
            return g
    raise ValueError(f"{q} is not prime")


def _product_action():
    """S3 x S3 on 9 points, stabilizer S2 x S2 (rank 4, rational)."""
    def embed(p, left):
        images = []
        for a in range(3):
            for b in range(3):
                aa, bb = (p.images[a], b) if left else (a, p.images[b])
                images.append(3 * aa + bb)
        return Permutation(images)
    s3a = [Permutation([1, 0, 2]), Permutation([1, 2, 0])]
    gens = [embed(p, True) for p in s3a] + [embed(p, False) for p in s3a]
    return GeneratedGroup(gens)


def _pairs_action(n):
    """S_n on unordered pairs (Johnson scheme, rank 3, rational)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    idx = {p: k for k, p in enumerate(pairs)}

    def act(perm):
        images = []
        for i, j in pairs:
            a, b = perm.images[i], perm.images[j]
            images.append(idx[(min(a, b), max(a, b))])
        return Permutation(images)
    sn = _symmetric(n)
    return GeneratedGroup([act(g) for g in sn.gens])


_FAMILIES = [
    ("dihedral-5-points", lambda: _dihedral_on_points(5), [2, 5]),
    ("dihedral-8-points", lambda: _dihedral_on_points(8), [2, 7]),
    ("dihedral-12-points", lambda: _dihedral_on_points(12), [2, 3, 11]),
    ("dihedral-16-regular",
     lambda: _regular_group([Permutation([(i + 1) % 8 for i in range(8)]),
                             Permutation([(-i) % 8 for i in range(8)])], 8),
     [2, 7]),
    ("quaternion-regular", lambda: _regular_group(_quaternion_gens(), 8),
     [2, 3]),
    ("paley-13", lambda: _paley(13, 6), [3, 13]),
    ("paley-17", lambda: _paley(17, 8), [2, 13, 17]),
    ("frobenius-20", lambda: _paley(5, 4), [2, 5]),
    ("product-3x3", _product_action, [2, 3]),
    ("johnson-5-2", lambda: _pairs_action(5), [2, 3, 5]),
    ("johnson-6-2", lambda: _pairs_action(6), [2, 3, 5]),
    ("elementary-8-regular",
     lambda: _regular_group([Permutation([1, 0, 3, 2, 5, 4, 7, 6]),
                             Permutation([2, 3, 0, 1, 6, 7, 4, 5]),
                             Permutation([4, 5, 6, 7, 0, 1, 2, 3])], 8),
     [2, 3]),
]


def _quaternion_gens():
    """Q8 inside S8 by right multiplication with i and j.

    Elements 1, -1, i, -i, j, -j, k, -k are labeled 0..7; ji = -k, ki = j,
    ij = k, kj = -i fix the images."""
    mult_i = Permutation([2, 3, 1, 0, 7, 6, 4, 5])
    mult_j = Permutation([4, 5, 6, 7, 1, 0, 3, 2])
    return [mult_i, mult_j]


def randomized_instances():
    """Ten seeded transitive instances of degree <= 60.

    Randomization: family choice, regeneration from random elements, and
    conjugation by a random relabeling.  Families are restricted to those
    whose endomorphism character fields are rational or real quadratic,
    which is what the exact splitting supports.
    """
    rng = random.Random(1729)
    out = []
    k = 0
    while len(out) < 10:
        name, build, primes = _FAMILIES[k % len(_FAMILIES)]
        k += 1
        G = build()
        order = G.order()
        degree = G.degree
        # scramble the generating set
        stream = RandomStream(G.gens, seed=rng.randrange(2 ** 32))
        for _ in range(60):
            a, _ = stream.next()
            b, _ = stream.next()
            cand = GeneratedGroup([a, b], degree)
            if cand.order() == order:
                G = cand
                break
        # relabel the points
        relabel = Permutation(rng.sample(range(degree), degree))
        inv = relabel.inverse()
        G = GeneratedGroup([inv * g * relabel for g in G.gens])
        if G.order() != order:
            raise AssertionError("conjugation changed the group order")
        out.append(Instance(f"random-{len(out) + 1}-{name}", G,
                            base_point=relabel.images[0], primes=primes,
                            notes=f"seeded from {name}"))
    return out


def all_instances():
    return named_instances() + randomized_instances()


def load_manifest():
    ref = resources.files("endoperm.data").joinpath("corpus_manifest.json")
    return json.loads(ref.read_text())


def verify_against_manifest(instances=None):
    manifest = load_manifest()
    instances = instances or all_instances()
    by_name = {i.name: i for i in instances}
    problems = []
    for entry in manifest["instances"]:
        inst = by_name.get(entry["name"])
        if inst is None:
            problems.append(f"missing instance {entry['name']}")
            continue
        if inst.group.degree != entry["degree"] or \
                inst.group.order() != entry["order"]:
            problems.append(f"{entry['name']}: degree/order mismatch")
    return problems


# ---------------------------------------------------------------------------

def instance_scenario(inst, seed=0):
    """Scenario-file dict for an instance (what the CLI consumes), with
    the helper K of `build_context`."""
    from .permgrp import dump_word_json, group_to_json
    G = inst.group
    H, h_words = G.stabilizer_with_words(inst.base_point)
    k_words = [((0, 1),)] if H.gens else []
    return {
        "group": group_to_json(G),
        "h_words": [dump_word_json(w) for w in h_words],
        "k_words": [dump_word_json(w) for w in k_words],
        "faithful_h": group_to_json(
            GeneratedGroup(H.gens, G.degree) if H.gens
            else GeneratedGroup([], G.degree)),
        "base_point": inst.base_point + 1,
        "index": G.order() // H.order(),
        "seed": seed,
    }


def build_context(inst, seed=0):
    """Wire an instance into (ctx, helper, H): H is the stabilizer of the
    base point on its pruned Schreier generators, K is generated by the
    first H-generator (trivial when H is)."""
    G = inst.group
    H, _ = G.stabilizer_with_words(inst.base_point)
    dom = PermutationDomain(G.degree)
    ctx = ActionContext(dom, G.gens, H.gens, inst.base_point, faithful_h=H,
                        target_index=G.order() // H.order(), seed=seed)
    helper = HelperSetup(ctx, [((0, 1),)] if H.gens else [])
    return ctx, helper, H
