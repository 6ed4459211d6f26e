import gc
import hashlib
import json
import random
import tracemalloc
from math import factorial

import numpy as np
import pytest

from endoperm.corpus import all_instances
from endoperm.gfmat import FqMatrix
from endoperm.permgrp import (GeneratedGroup, Permutation, RandomStream,
                              closure_elements, dump_word_json,
                              evaluate_word, group_from_json, group_to_json,
                              load_word_json, orbit_tree, tree_word)
from scenarios import run_memory_capped


def sym(n):
    return GeneratedGroup([Permutation([1, 0] + list(range(2, n))),
                           Permutation(list(range(1, n)) + [0])])


def test_s3_and_c4_orders():
    s3 = GeneratedGroup([Permutation([1, 0, 2]), Permutation([1, 2, 0])])
    assert s3.order() == 6
    c4 = GeneratedGroup([Permutation([1, 2, 3, 0])])
    assert c4.order() == 4


def test_random_s8_pairs_match_exhaustive_closure():
    rng = random.Random(7)
    for _ in range(6):
        gens = [Permutation(rng.sample(range(8), 8)) for _ in range(2)]
        g = GeneratedGroup(gens)
        assert g.order() == len(closure_elements(gens, 8, limit=50000))


def test_stabilizer_orders():
    s4 = sym(4)
    st = s4.stabilizer(0)
    assert st.order() == 6
    assert st.order() * len(orbit_tree(0, s4.gens, lambda pt, g: g(pt))[0]) \
        == s4.order()
    # the stabilizer really fixes the point
    for p in closure_elements(st.gens, 4, 100):
        assert p.images[0] == 0


def test_random_s7_subgroups_orbit_stabilizer():
    rng = random.Random(3)
    for trial in range(6):
        gens = [Permutation(rng.sample(range(7), 7)) for _ in range(2)]
        g = GeneratedGroup(gens)
        elements = closure_elements(gens, 7, 20000)
        for x in range(7):
            st = g.stabilizer(x)
            orbit = {p.images[x] for p in elements}
            assert st.order() * len(orbit) == g.order()
            assert st.order() == sum(1 for p in elements if p.images[x] == x)


def test_membership_through_chain():
    s5 = sym(5)
    rng = random.Random(1)
    inside = closure_elements(s5.gens, 5, 200)
    for p in list(inside)[:20]:
        assert p in s5
    a5_gens = [Permutation([1, 2, 0, 3, 4]), Permutation([0, 1, 3, 4, 2])]
    a5 = GeneratedGroup(a5_gens)
    assert a5.order() == 60
    odd = Permutation([1, 0, 2, 3, 4])
    assert odd not in a5


def test_evaluate_word_identities():
    s5 = sym(5)
    ident = Permutation.identity(5)
    assert evaluate_word((), s5.gens, ident) == ident
    assert evaluate_word(((0, 1), (0, -1)), s5.gens, ident) == ident
    rng = random.Random(11)
    word = tuple((rng.randrange(2), rng.choice([1, -1])) for _ in range(20))
    # independent oracle: fold the point images directly
    acc = ident
    for i, e in word:
        g = s5.gens[i] if e > 0 else s5.gens[i].inverse()
        acc = Permutation(g.images[acc.images[x]] for x in range(5))
    assert evaluate_word(word, s5.gens, ident) == acc
    with pytest.raises(IndexError):
        evaluate_word(((5, 1),), s5.gens, ident)


def test_random_elements_replay_from_their_draws():
    s4 = sym(4)
    stream = RandomStream(s4.gens, seed=42)
    for number in range(1, 26):
        el, draw = stream.next()
        assert (draw.seed, draw.number) == (42, number)
        assert el in s4
        replay = RandomStream(s4.gens, draw.seed)
        for _ in range(draw.number):
            again, _ = replay.next()
        assert again == el
        assert replay.last_inverse() == stream.last_inverse() == el.inverse()


def test_random_stream_determinism():
    s4 = sym(4)
    a = [RandomStream(s4.gens, 9).next()[0] for _ in range(10)]
    b = [RandomStream(s4.gens, 9).next()[0] for _ in range(10)]
    assert a == b


def test_random_stream_draws_from_every_generator():
    # ten identities ahead of S4's generators: with ten slots filled from
    # the first ten generators alone every draw was the identity
    s4 = sym(4)
    gens = [Permutation.identity(4)] * 10 + s4.gens
    stream = RandomStream(gens, seed=0)
    assert len(stream.slots) == 12
    assert len({stream.next()[0] for _ in range(200)}) == s4.order() == 24


# Generators for the stream test: S_7, and invertible matrices over F_2
# (a companion matrix and a transvection) and over F_3.
STREAM_GENS = {
    "S7": lambda: sym(7).gens,
    "F2": lambda: [
        FqMatrix(2, [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
                     [0, 0, 0, 0, 1], [1, 0, 1, 0, 0]]),
        FqMatrix(2, np.eye(5, dtype=int) + np.eye(5, k=1, dtype=int))],
    "F3": lambda: [
        FqMatrix(3, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
                     [1, 2, 0, 0]]),
        FqMatrix(3, [[2, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                     [0, 0, 0, 1]])],
}

# SHA-256 of the elements and the letter counts of the words they are
# products of, recorded from the stream when it kept those words
STREAM_DIGESTS = {
    "F2": "39ff9d9b27cd5cac26c6759cf2eb505e02df37319dc703d81bf08242aa9cccdc",
    "F3": "fd067fca4234b704976e423cd85f3852b1f4fb47c4ae04a3c54254bc4a42732a",
    "S7": "7ae3c4ef6e9fa9eab1af08cc13ee1c590d5aaf6ab9d547d1b265fd6e96955ccf",
}


@pytest.mark.parametrize("name", sorted(STREAM_GENS))
def test_random_stream_keeps_each_slot_inverse(name):
    gens = STREAM_GENS[name]()
    g = gens[0]
    ident = (Permutation.identity(g.degree) if isinstance(g, Permutation)
             else FqMatrix.identity(g.p, g.nrows))
    stream = RandomStream(gens, seed=5)
    digest = hashlib.sha256()
    for _ in range(100):
        el, draw = stream.next()
        for slot, inv in zip(stream.slots, stream.inverses):
            assert slot * inv == ident
        assert el * stream.last_inverse() == ident
        digest.update(bytes(el.images) if isinstance(el, Permutation)
                      else el.data.tobytes())
        digest.update(len(draw).to_bytes(8, "little"))
    assert digest.hexdigest() == STREAM_DIGESTS[name]


def test_stream_draws_run_in_bounded_memory():
    # 10^5 draws on S_7; the words of the slots, which the stream once
    # kept, would grow about 1.1x per step and exhaust the memory cap
    result = run_memory_capped("""
        import tracemalloc
        from endoperm.permgrp import Permutation, RandomStream
        gens = [Permutation([1, 0, 2, 3, 4, 5, 6]),
                Permutation([1, 2, 3, 4, 5, 6, 0])]
        tracemalloc.start()
        stream = RandomStream(gens, seed=0)
        for _ in range(10 ** 5):
            stream.next()
        print(tracemalloc.get_traced_memory()[1])
    """)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 1 << 20


def test_stabilizer_with_words():
    s5 = sym(5)
    st, words = s5.stabilizer_with_words(0)
    assert st.order() == 24
    for w, g in zip(words, st.gens):
        assert evaluate_word(w, s5.gens, Permutation.identity(5)) == g


def _act(pt, g):
    return g.images[pt]


def test_orbit_tree_bfs_order_and_words():
    s4 = sym(4)     # a = (0 1), b = (0 1 2 3)
    points, tree = orbit_tree(0, s4.gens, _act)
    assert points == [0, 1, 2, 3]
    assert tree == {0: None, 1: (0, 0), 2: (1, 1), 3: (1, 2)}
    assert [tree_word(tree, pt) for pt in points] == [
        (), ((0, 1),), ((0, 1), (1, 1)), ((0, 1), (1, 1), (1, 1))]
    rng = random.Random(11)
    for group in (sym(5), sym(7), *(GeneratedGroup(
            [Permutation(rng.sample(range(9), 9)) for _ in range(2)])
            for _ in range(4))):
        group.build_chain()
        start = group.base[0]
        points, tree = orbit_tree(start, group.gens, _act)
        assert set(points) == set(tree) == set(group.transversals[0])
        ident = Permutation.identity(group.degree)
        for pt in points:
            word = tree_word(tree, pt)
            assert evaluate_word(word, group.gens, ident).images[start] == pt


def test_orbit_tree_stops_past_the_limit():
    s8 = sym(8)
    full, _ = orbit_tree(0, s8.gens, _act)
    assert len(full) == 8
    for limit in range(8):
        points, tree = orbit_tree(0, s8.gens, _act, limit)
        assert limit < len(points) <= limit + len(s8.gens)
        assert points == full[:len(points)] and set(tree) == set(points)
    for limit in (8, 100):
        assert orbit_tree(0, s8.gens, _act, limit)[0] == full
    cycle = GeneratedGroup([Permutation([(i + 1) % 20 for i in range(20)])])
    assert orbit_tree(0, cycle.gens, _act, 5)[0] == [0, 1, 2, 3, 4, 5]


def test_group_json_roundtrip():
    s4 = sym(4)
    data = group_to_json(s4)
    back = group_from_json(data)
    assert back.gens == s4.gens
    with pytest.raises(ValueError):
        group_from_json({"degree": 3, "generators": [[1, 2]]})
    with pytest.raises(ValueError):
        group_from_json({"degree": 3, "generators": [[0, 1, 2]]})


@pytest.mark.parametrize("n", [255, 256, 257, 300])
def test_permutation_forms_agree_at_the_byte_boundary(n):
    rng = random.Random(n)
    perms = [Permutation(rng.sample(range(n), n)) for _ in range(6)]
    ident = Permutation.identity(n)
    for p in perms + [ident]:
        assert type(p.images) is (bytes if n <= 256 else tuple)
        assert type(p.images[0]) is int and type(p(n - 1)) is int
    for p, q in zip(perms, perms[1:]):
        assert list((p * q).images) == [q.images[p.images[x]]
                                        for x in range(n)]
        assert list(p.inverse().images) == sorted(range(n),
                                                  key=p.images.__getitem__)
        assert p * p.inverse() == ident and p.inverse() * p == ident
        assert p != ident
    assert evaluate_word(((0, 1), (1, -1), (0, 1)), perms) \
        == perms[0] * perms[1].inverse() * perms[0]
    twin = Permutation(list(perms[0].images))
    assert twin == perms[0] and hash(twin) == hash(perms[0])
    assert len({twin, perms[0], perms[1]}) == 2 and twin != perms[1]
    assert sorted(perms, key=lambda p: p.images) == sorted(
        perms, key=lambda p: tuple(p.images))
    group = GeneratedGroup(perms[:2], n)
    data = json.loads(json.dumps(group_to_json(group)))
    assert data["generators"][0] == [i + 1 for i in perms[0].images]
    assert group_from_json(data).gens == group.gens


@pytest.mark.parametrize("m, n", [(5, 3), (3, 5), (300, 256), (256, 300)])
def test_product_of_different_degrees_raises(m, n):
    with pytest.raises(ValueError):
        Permutation.identity(m) * Permutation.identity(n)


def _embed(perm, degree, offset):
    """perm acting on offset.. offset+n-1 of {0..degree-1}, fixing the
    other points."""
    img = list(range(degree))
    for x, y in enumerate(perm.images):
        img[x + offset] = y + offset
    return Permutation(img)


def test_chain_does_not_depend_on_the_image_form():
    # the same group on 256 points (bytes) and 300 points (tuples)
    rng = random.Random(300)
    for n in (9, 12):
        for _ in range(3):
            gens = _random_subgroup_gens(rng, n)
            probes = _probes(rng, gens, n)
            ref = GeneratedGroup(gens, n)
            ref.build_chain()
            draws = RandomStream(gens, 3)
            draws = [draws.next()[0] for _ in range(5)]
            for degree, offset in ((256, 0), (256, 256 - n), (300, 0),
                                   (300, 300 - n)):
                big = GeneratedGroup([_embed(g, degree, offset)
                                      for g in gens], degree)
                big.build_chain()
                assert big.base == [b + offset for b in ref.base]
                assert [len(t) for t in big.transversals] == [
                    len(t) for t in ref.transversals]
                assert big.order() == ref.order()
                assert big.strong == [_embed(g, degree, offset)
                                      for g in ref.strong]
                for p in probes:
                    assert (_embed(p, degree, offset) in big) == (p in ref)
                stream = RandomStream(big.gens, 3)
                assert [stream.next()[0] for _ in range(5)] == [
                    _embed(g, degree, offset) for g in draws]


def test_word_json_roundtrip():
    word = ((0, 1), (1, -1), (1, -1), (0, 1))
    data = dump_word_json(word)
    assert load_word_json(data) == word
    assert load_word_json([[2, 2]]) == ((1, 1), (1, 1))
    assert load_word_json([[-2, 1]]) == ((1, -1),)


def _random_subgroup_gens(rng, n):
    """A few generators of a seeded random subgroup of S_n: permutations
    preserving a random block system, products of disjoint transpositions
    and short cycles, so the orders range well below n!."""
    pts = rng.sample(range(n), n)
    size = rng.choice([d for d in range(1, n + 1) if n % d == 0])
    blocks = [pts[i:i + size] for i in range(0, n, size)]
    gens = []
    for _ in range(rng.randrange(1, 4)):
        kind = rng.randrange(3)
        img = list(range(n))
        if kind == 0:
            order = rng.sample(range(len(blocks)), len(blocks))
            for src, dst in zip(blocks, (blocks[i] for i in order)):
                shuffled = rng.sample(dst, len(dst))
                for a, b in zip(src, shuffled):
                    img[a] = b
        elif kind == 1:
            moved = rng.sample(range(n), 2 * rng.randrange(1, n // 2 + 1))
            for a, b in zip(moved[::2], moved[1::2]):
                img[a], img[b] = b, a
        else:
            cyc = rng.sample(range(n), rng.randrange(2, 6))
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                img[a] = b
        gens.append(Permutation(img))
    return gens


def _probes(rng, gens, n, count=12):
    """Members (random words in gens) and mostly non-members (random
    permutations) to test `in` on."""
    out = []
    for _ in range(count):
        word = tuple((rng.randrange(len(gens)), rng.choice([1, -1]))
                     for _ in range(rng.randrange(1, 15)))
        out.append(evaluate_word(word, gens, Permutation.identity(n)))
        out.append(Permutation(rng.sample(range(n), n)))
    return out


def _assert_extend_matches_scratch(gens, n, rng):
    scratch = GeneratedGroup(gens, n)
    scratch.build_chain()
    grown = GeneratedGroup([], n)
    grown.build_chain()
    for g in gens:
        grown.extend(g)
        partial = GeneratedGroup(grown.gens, n)
        assert grown.order() == partial.order()
    assert grown.order() == scratch.order()
    for p in _probes(rng, gens, n):
        assert (p in grown) == (p in scratch)
    return scratch


def test_extend_matches_build_chain_on_random_subgroups():
    rng = random.Random(2509)
    for n in range(8, 13):
        for _ in range(4):
            gens = _random_subgroup_gens(rng, n)
            scratch = _assert_extend_matches_scratch(gens, n, rng)
            if scratch.order() <= 20000:
                assert scratch.order() == len(
                    closure_elements(gens, n, limit=20000))


def test_extend_matches_build_chain_on_corpus_groups():
    rng = random.Random(5805)
    for inst in all_instances():
        G = inst.group
        scratch = _assert_extend_matches_scratch(G.gens, G.degree, rng)
        assert scratch.order() == G.order()


def test_extend_by_a_member_leaves_the_chain_unchanged():
    rng = random.Random(11)
    for n in (8, 10, 12):
        gens = _random_subgroup_gens(rng, n)[:1]
        g = GeneratedGroup(gens, n)
        g.build_chain()

        def snapshot():
            return (list(g.gens), list(g.base), list(g.strong),
                    [dict(t) for t in g.transversals])

        before = snapshot()
        for member in _probes(rng, gens, n)[::2]:
            assert g.extend(member) is False
            assert snapshot() == before
        # a cyclic group of degree n >= 8 misses some random permutation
        outside = next(p for p in (Permutation(rng.sample(range(n), n))
                                   for _ in range(100)) if p not in g)
        order = g.order()
        assert g.extend(outside) is True
        assert g.gens[-1] == outside and g.order() > order
        # transversal entries are only ever added
        for old, new in zip(before[3], g.transversals):
            assert all(new[pt] == rep for pt, rep in old.items())


def _affine_group(n, units):
    """x -> x + 1 and x -> u x mod n for each unit u: above 256 points the
    chain holds tuples."""
    return GeneratedGroup(
        [Permutation([(x + 1) % n for x in range(n)])]
        + [Permutation([u * x % n for x in range(n)]) for u in units], n)


def _pinned_chains():
    """The chains the digest below covers: every corpus group; seeded random
    subgroups of S_8..S_12, each built by `build_chain` and by `extend` one
    generator at a time; S_20 and S_40; an affine group on 300 points."""
    for inst in all_instances():
        yield GeneratedGroup(inst.group.gens, inst.group.degree).build_chain()
    rng = random.Random(2509)
    for n in range(8, 13):
        for _ in range(4):
            gens = _random_subgroup_gens(rng, n)
            yield GeneratedGroup(gens, n).build_chain()
            grown = GeneratedGroup([], n).build_chain()
            for g in gens:
                grown.extend(g)
            yield grown
    yield sym(20).build_chain()
    yield sym(40).build_chain()
    yield _affine_group(300, (7, 11)).build_chain()


# SHA-256 of the base, the strong generators' images in order, and each
# level's transversal points and images in insertion order, recorded from
# the chain that checked every (point, generator) pair against a set
CHAIN_DIGEST = \
    "b70bc533e5a84e89c73e08304123368341e322cbacbc3d07ef8aa00df1837055"


def test_chains_match_the_pinned_digest():
    digest = hashlib.sha256()
    for g in _pinned_chains():
        digest.update(json.dumps([
            g.degree, g.base, [list(s.images) for s in g.strong],
            [[[pt, list(rep.images)] for pt, rep in t.items()]
             for t in g.transversals]]).encode())
    assert digest.hexdigest() == CHAIN_DIGEST


def test_chain_of_s40_sifts_no_more_than_before(monkeypatch):
    calls = []
    real = GeneratedGroup._sift

    def counted(self, *args):
        calls.append(1)
        return real(self, *args)

    monkeypatch.setattr(GeneratedGroup, "_sift", counted)
    assert sym(40).build_chain().order() == factorial(40)
    # 40879 calls when every pair was checked against a set
    assert len(calls) <= 40879


def test_chain_of_s40_is_small():
    gc.collect()
    tracemalloc.start()
    try:
        chain = sym(40).build_chain()
        gc.collect()
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(chain.transversals) == 39
    # 5.2 MB when the sifted (point, generator) pairs were kept in sets
    assert live < 1 << 20
