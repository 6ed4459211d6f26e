import random

import pytest
import sympy

from endoperm import zpoly as zp

X = sympy.symbols("x")


def to_sympy(p):
    return sum(c * X ** i for i, c in enumerate(p))


def test_known_factorizations():
    assert zp.factor((-1, 0, 1)) == (1, 1, [((-1, 1), 1), ((1, 1), 1)])
    unit, cont, facs = zp.factor((-45, 0, 1))
    assert facs == [((-45, 0, 1), 1)]
    f4 = (-2768, 1706, -75, -16, 1)
    assert zp.factor(f4)[2] == [(f4, 1)]


def test_linear_factorizations_match_the_general_path():
    # a linear f is its own factorization; times X^2 + 1 (primitive,
    # irreducible, leading coefficient 1) it takes the general path, with
    # the same unit and content and f's primitive part among the factors
    assert zp.factor((-31, 1)) == (1, 1, [((-31, 1), 1)])
    assert zp.factor((4, -6)) == (-1, 2, [((-2, 3), 1)])
    rng = random.Random(83)
    square = (1, 0, 1)
    for _ in range(40):
        f = (rng.randrange(-50, 51), rng.choice([-1, 1]) * rng.randrange(1, 9))
        f = tuple(rng.randrange(1, 7) * c for c in f)
        unit, cont, facs = zp.factor(f)
        unit2, cont2, facs2 = zp.factor(zp.mul(f, square))
        assert (unit, cont) == (unit2, cont2)
        assert facs + [(square, 1)] == facs2
        assert zp.mul((unit * cont,), facs[0][0]) == f


def test_random_factorizations_match_sympy():
    rng = random.Random(5)
    done = 0
    while done < 60:
        n = rng.randrange(1, 10)
        p = zp.trim(tuple(rng.randrange(-9, 10) for _ in range(n))
                    + (rng.choice([1, 2, 3, -1, 5]),))
        if zp.deg(p) < 1:
            continue
        done += 1
        unit, cont, facs = zp.factor(p, seed=done)
        prod = (unit * cont,)
        for g, m in facs:
            for _ in range(m):
                prod = zp.mul(prod, g)
        assert prod == p
        mine = sorted((zp.deg(g), m) for g, m in facs)
        theirs = sorted((sympy.degree(g), m)
                        for g, m in sympy.factor_list(to_sympy(p))[1]
                        if sympy.degree(g) > 0)
        assert mine == theirs


def test_structured_products_recover():
    rng = random.Random(17)
    for trial in range(8):
        fs = []
        while sum(zp.deg(f) for f in fs) < 16:
            f = zp.trim(tuple(rng.randrange(-20, 21)
                              for _ in range(rng.randrange(1, 5))) + (1,))
            fs.append(f)
        prod = (1,)
        for f in fs:
            prod = zp.mul(prod, f)
        unit, cont, facs = zp.factor(prod, seed=trial)
        re = (unit * cont,)
        for g, m in facs:
            for _ in range(m):
                re = zp.mul(re, g)
        assert re == prod


def test_squarefree_decomposition():
    f = zp.mul(zp.mul((1, 1), (1, 1)), zp.mul((2, 1), (3, 0, 1)))
    parts = zp.squarefree_decomposition(f)
    total = (1,)
    for g, m in parts:
        for _ in range(m):
            total = zp.mul(total, g)
    assert total == f
    assert sorted(m for _, m in parts) == [1, 2]


def test_gcd_and_exact_division():
    a = zp.mul((1, 1), (2, 0, 1))
    b = zp.mul((1, 1), (5, 1))
    assert zp.gcd(a, b) == (1, 1)
    assert zp.exact_div(a, (1, 1)) == (2, 0, 1)
    with pytest.raises(ValueError):
        zp.exact_div((1, 0, 1), (1, 1))
    with pytest.raises(ValueError):
        zp.exact_div((1, 2), (2, 4))    # 1/2 over Q
    assert zp.exact_div(zp.mul((3, -2, 5), (-4, 0, 6)), (-4, 0, 6)) == \
        (3, -2, 5)


def test_fp_factor_reconstructs():
    # the squarefree factoring Zassenhaus runs at its modular prime: monic
    # irreducible factors, sorted, whose product is the monic input
    rng = random.Random(23)
    done = 0
    while done < 40:
        p = rng.choice([2, 3, 5, 11, 13])
        f = zp.fp_trim(tuple(rng.randrange(p) for _ in
                             range(rng.randrange(2, 12))), p)
        if zp.deg(f) < 1 or zp.deg(zp.fp_gcd(f, zp.fp_deriv(f, p), p)):
            continue
        done += 1
        facs = zp.fp_factor_squarefree(f, p, seed=done)
        assert facs == sorted(facs)
        prod = (1,)
        for g in facs:
            assert g[-1] == 1 and zp.deg(g) >= 1
            assert zp.deg(g) == 1 or not zp._fp_roots(g, p)
            prod = zp.fp_mul(prod, g, p)
        assert prod == zp.fp_monic(f, p)
        assert len(facs) == len(set(facs))


def test_fp_irreducibles_have_no_roots():
    # the roots in F_p by Horner at every point at once, against one
    # evaluation per point, on every monic quadratic and a seeded sample
    # of higher degrees
    rng = random.Random(5)
    polys = [(p, (c0, c1, 1)) for p in (3, 5, 7, 11)
             for c0 in range(p) for c1 in range(p)]
    polys += [(p, tuple(rng.randrange(p) for _ in range(rng.randrange(1, 9)))
               + (rng.randrange(1, p),))
              for p in (2, 3, 13, 31) for _ in range(20)]
    for p, f in polys:
        roots = [x for x in range(p)
                 if sum(c * x ** i for i, c in enumerate(f)) % p == 0]
        assert zp._fp_roots(f, p) == roots


def _product(*factors):
    out = (1,)
    for f in factors:
        out = zp.mul(out, f)
    return out


@pytest.mark.parametrize("f", [
    # the root 0, alone and repeated
    _product((0, 1), (-3, 1), (1, 0, 1)),
    _product((0, 1), (0, 1), (0, 1), (5, 1)),
    # roots of size 10^6, two of them adjacent
    _product((-10 ** 6, 1), (10 ** 6 + 1, 1), (-(10 ** 6) - 1, 1)),
    _product((-999983, 1), (7, 0, 1)),
    # repeated rational roots
    _product((-1, 1), (-1, 1), (8, 1), (8, 1), (8, 1), (-120, 1)),
    # not monic: rational roots 2/3 and -5/2, content 6
    _product((6,), (-2, 3), (5, 2), (1, 1), (-2, 0, 1)),
    # a quartic with no rational root, and one that splits into quadratics
    (1, 1, 0, 0, 1),
    _product((-2, 0, 1), (3, 0, 1)),
    # the cubic with three integer roots
    _product((-1, 1), (8, 1), (-120, 1)),
])
def test_rational_roots_match_sympy(f):
    unit, cont, facs = zp.factor(f)
    assert _product((unit * cont,), *[g for g, m in facs for _ in range(m)]) \
        == zp.trim(f)
    assert facs == sorted(facs, key=lambda fm: (zp.deg(fm[0]), fm[0]))
    theirs = sympy.factor_list(to_sympy(f))
    assert unit * cont == theirs[0]
    assert sorted((tuple(int(c) for c in
                         reversed(sympy.Poly(g, X).all_coeffs())), m)
                  for g, m in theirs[1]) == sorted(facs)
