import itertools
import random
from fractions import Fraction

from endoperm import candfilter
from endoperm.candfilter import (OrdinaryCharTableG, admissible_candidates,
                                 conjugation_closure, defect_integrality,
                                 p_part)
from endoperm.quadfield import QuadraticNumber as Q
from scenarios import radical_dict, sym


def s5_table():
    classes = [
        {"name": "1a", "centralizer": 120, "p_singular": False},
        {"name": "2a", "centralizer": 12, "p_singular": False},
        {"name": "2b", "centralizer": 8, "p_singular": False},
        {"name": "3a", "centralizer": 6, "p_singular": False},
        {"name": "6a", "centralizer": 6, "p_singular": False},
        {"name": "4a", "centralizer": 4, "p_singular": False},
        {"name": "5a", "centralizer": 5, "p_singular": True},
    ]
    chars = {
        "1": [Q(1)] * 7,
        "4": [Q(4), Q(2), Q(0), Q(1), Q(-1), Q(0), Q(-1)],
    }
    return OrdinaryCharTableG(classes, chars)


def without_centralizers(tbl):
    """The table with no centralizer orders, so that only the vanishing
    test filters."""
    return OrdinaryCharTableG(
        [dict(c, centralizer=None) for c in tbl.classes], tbl.characters)


def test_s5_unique_candidate():
    box, cands = admissible_candidates(s5_table(), [("1", 1), ("4", 1)], 5)
    assert box == 2
    assert len(cands) == 1 and cands[0].coeffs == (1, 1)
    # psi(1) = 5 and |C(1)|_5 = 5: the defect filter passes at the identity
    assert defect_integrality([Q(5)], [120], 5)
    assert not defect_integrality([Q(6)], [120], 5)


def test_no_singular_classes_gives_full_box():
    tbl = OrdinaryCharTableG(
        [{"name": "1a", "centralizer": None, "p_singular": False}],
        {"1": [Q(1)], "x": [Q(2)], "y": [Q(3)]})
    box, cands = admissible_candidates(
        tbl, [("1", 1), ("x", 2), ("y", 3)], 7)
    assert box == 12 and len(cands) == 12


def test_matches_brute_force_filter():
    # independent oracle: direct loop over the box with the same data
    tbl = s5_table()
    labels = [("1", 1), ("4", 1)]
    _, fast = admissible_candidates(without_centralizers(tbl), labels, 5)
    slow = []
    for d in itertools.product([1], [0, 1]):
        if sum(c * sym(tbl.value(lab, 6))
               for (lab, m), c in zip(labels, d)) == 0:
            slow.append(d)
    assert [c.coeffs for c in fast] == slow


def test_quadratic_defect_componentwise():
    # (11 + 11 r5) / 11 is integral; (11 + r5)/11 is not
    assert defect_integrality([Q(11, 11, 5)], [11], 11)
    assert not defect_integrality([Q(11, 1, 5)], [11], 11)


def test_defect_over_two_radicands_is_componentwise_on_integers():
    # class sums spanning r5 and r13 pass only with every coefficient
    # divisible by |C(g)|_11 = 11: (11 + 11 r5) / 2 passes alone, since
    # (1 + r5) / 2 is integral in Q(r5), but not beside 11 r13
    def value(c1, c5, c13):
        return {1: Fraction(c1), 5: Fraction(c5), 13: Fraction(c13)}

    centralizers = [None, 2 * 11]
    assert defect_integrality([{}, value(22, -11, 33)], centralizers, 11)
    assert not defect_integrality([{}, value(22, 1, 33)], centralizers, 11)
    half = Fraction(11, 2)
    assert not defect_integrality([{}, value(half, half, 11)],
                                  centralizers, 11)
    assert defect_integrality([Q(half, half, 5)], [11], 11)


def test_conjugation_closure_reports_equalities():
    tbl = s5_table()
    _, cands = admissible_candidates(tbl, [("1", 1), ("4", 1)], 5)
    assert conjugation_closure(cands) == [("1", "4")]


def test_p_part():
    assert p_part(1331 * 6, 11) == 1331
    assert p_part(7, 11) == 1


def quadratic_table(seed, scale=1):
    """Seeded table over Q(r5) and Q(r13): constituents x1/x2 and x3/x4 are
    Galois-conjugate pairs, 3a and 6a are 3-singular, and the centralizer
    of 1a has 3-part 3.  A planted point with equal coefficients on each
    pair and coefficient 1 on x5 vanishes on both singular classes.
    Values on the singular classes are multiplied by `scale`, which leaves
    the vanishing set unchanged."""
    rng = random.Random(seed)
    fields = [1, 5, 5, 13, 13, 1, 1]
    mults = [1, 2, 2, 1, 1, 3, 2]
    conj = {2: 1, 4: 3}
    labels = [f"x{i}" for i in range(len(fields))]
    pair, quad = rng.randint(0, 2), rng.randint(0, 1)
    planted = [1, pair, pair, quad, quad, 1, rng.randint(0, 2)]
    classes = [{"name": "1a", "centralizer": 24, "p_singular": False},
               {"name": "2a", "centralizer": None, "p_singular": False},
               {"name": "3a", "centralizer": None, "p_singular": True},
               {"name": "6a", "centralizer": None, "p_singular": True}]
    chars = {label: [] for label in labels}
    for cls in classes:
        col = []
        for i, n in enumerate(fields):
            if i in conj:
                col.append(col[conj[i]].conjugate())
            elif cls["p_singular"]:
                col.append(Q(rng.randint(-1, 1), rng.choice((-1, 1)) if n > 1
                             else 0, n))
            else:
                col.append(Q(rng.randint(-9, 9)))
        if cls["p_singular"]:
            rest = sum((d * v for i, (d, v) in enumerate(zip(planted, col))
                        if i != 5), Q(0))
            col[5] = -rest
        for label, v in zip(labels, col):
            chars[label].append(v * scale if cls["p_singular"] else v)
    return OrdinaryCharTableG(classes, chars), list(zip(labels, mults))


def direct_filter(tbl, constituents, p):
    """The exact filter point by point, in itertools.product order."""
    labels = [label for label, _ in constituents]
    ranges = [range(1, 2)] + [range(m + 1) for _, m in constituents[1:]]
    centralizers = [c["centralizer"] for c in tbl.classes]
    out = []
    for coeffs in itertools.product(*ranges):
        # class sums in sympy, term by term
        values = [radical_dict(sum(d * sym(tbl.value(label, ci))
                                   for label, d in zip(labels, coeffs)))
                  for ci in range(len(tbl.classes))]
        if any(values[ci] for ci in tbl.singular_classes()):
            continue
        if defect_integrality(values, centralizers, p):
            out.append(coeffs)
    return out


def test_chunked_filter_matches_direct_loop(monkeypatch):
    # box 3*3*2*2*4*3 = 432 points: 8 chunks of 50 and a remainder of 32
    monkeypatch.setattr(candfilter, "CHUNK", 50)
    survivors = 0
    vanishing = 0
    for seed in range(6):
        tbl, cons = quadratic_table(seed)
        box, fast = admissible_candidates(tbl, cons, 3)
        slow = direct_filter(tbl, cons, 3)
        assert box == 432
        assert [c.coeffs for c in fast] == slow
        assert all(type(d) is int for c in fast for d in c.coeffs)
        survivors += len(slow)
        vanishing += len(admissible_candidates(without_centralizers(tbl),
                                               cons, 3)[1])
    # both filters cut: some points vanish, and the defect drops some
    assert 0 < survivors < vanishing


def test_python_int_fallback_beyond_int64():
    # singular values are multiples of 2^62: the int64 bound fails, and in
    # int64 they would overflow or their sums wrap around to false zeros
    for seed in range(3):
        tbl, cons = quadratic_table(seed)
        big, _ = quadratic_table(seed, scale=2 ** 62)
        want = admissible_candidates(tbl, cons, 3)
        got = admissible_candidates(big, cons, 3)
        assert [c.coeffs for c in got[1]] == [c.coeffs for c in want[1]]
        assert [c.coeffs for c in got[1]] == direct_filter(big, cons, 3)
