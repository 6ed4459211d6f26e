"""Exact univariate polynomial arithmetic over Z and F_p.

Polynomials are tuples of int coefficients, constant term first, with no
trailing zeros.  Everything here is deterministic given the seed passed to
the factorization routines.

Factorization over Z is Zassenhaus-style: Yun squarefree decomposition,
the integer roots split off (a factor of degree at most 3 left is then
irreducible), modular factorization at a small prime with the fewest
factors (counted by distinct degrees), quadratic Hensel lifting past the
coefficient bound, then subset recombination in increasing cardinality
(ample for the degrees that occur here, which stay below 30).  Over F_p
only what that needs is here: squarefree factoring by distinct and equal
degrees, and the roots in F_p, which the integer-root search and
`gfmat`'s eigenspaces use.
"""

import itertools
import math
import random

import numpy as np


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def deg(p):
    return len(p) - 1


def add(p, q):
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                 for i in range(n)])


def neg(p):
    return tuple(-c for c in p)


def sub(p, q):
    return add(p, neg(q))


def mul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return trim(out)


def scale(p, c):
    if c == 0:
        return ()
    return tuple(a * c for a in p)


def evaluate(p, x):
    out = 0
    for c in reversed(p):
        out = out * x + c
    return out


def deriv(p):
    return trim([i * c for i, c in enumerate(p)][1:])


def exact_div(p, q):
    """Exact quotient p/q, asserted to land in Z[X].

    Long division on integers: when q divides p in Z[X], every quotient
    coefficient is an integer, so a leading coefficient that q's leading
    coefficient does not divide shows that it does not."""
    out = [0] * max(0, len(p) - len(q) + 1)
    rem = list(p)
    lead = q[-1]
    for i in range(len(rem) - len(q), -1, -1):
        c, r = divmod(rem[i + len(q) - 1], lead)
        if r:
            raise ValueError("quotient is not integral")
        out[i] = c
        for j, b in enumerate(q):
            rem[i + j] -= c * b
    if any(rem):
        raise ValueError("division is not exact")
    return trim(out)


def content(p):
    return math.gcd(*[abs(c) for c in p]) if p else 0


def primitive(p):
    if not p:
        return (), 0
    c = content(p)
    if p[-1] < 0:
        c = -c
    return tuple(a // c for a in p), c


def gcd(p, q):
    """Primitive gcd over Z (primitive-PRS, positive leading coefficient)."""
    p, _ = primitive(p)
    q, _ = primitive(q)
    if not p:
        return q
    if not q:
        return p
    if len(p) < len(q):
        p, q = q, p
    while q:
        # pseudo-remainder of p by q
        d = len(p) - len(q)
        r = list(scale(p, q[-1] ** (d + 1)))
        for i in range(d, -1, -1):
            c = r[i + len(q) - 1]
            if c % q[-1]:
                raise AssertionError("pseudo-division arithmetic error")
            c //= q[-1]
            for j, b in enumerate(q):
                r[i + j] -= c * b
        r = trim(r)
        p, q = q, primitive(r)[0]
    return p


def squarefree_decomposition(p):
    """Yun's algorithm: [(g_i, i)] with p = lc * prod g_i^i, g_i squarefree."""
    p, cont = primitive(p)
    if deg(p) <= 0:
        return []
    g = gcd(p, deriv(p))
    out = []
    w = exact_div(p, g)
    y = exact_div(deriv(p), g)
    i = 1
    while deg(w) > 0:
        z = sub(y, deriv(w))
        h = gcd(w, z)
        if deg(h) > 0:
            out.append((h, i))
        w = exact_div(w, h)
        y = exact_div(z, h)
        i += 1
    return out


# ---------------------------------------------------------------------------
# F_p[X]

def fp_trim(p, m):
    p = [c % m for c in p]
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def fp_add(p, q, m):
    n = max(len(p), len(q))
    return fp_trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                    for i in range(n)], m)


def fp_sub(p, q, m):
    n = max(len(p), len(q))
    return fp_trim([(p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0)
                    for i in range(n)], m)


def fp_mul(p, q, m):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] = (out[i + j] + a * b) % m
    return fp_trim(out, m)


def fp_monic(p, m):
    if not p:
        return ()
    inv = pow(p[-1], -1, m)
    return fp_trim([c * inv for c in p], m)


def fp_divmod(p, q, m):
    if not q:
        raise ZeroDivisionError
    inv = pow(q[-1], -1, m)
    p = [c % m for c in p]
    quo = [0] * max(0, len(p) - len(q) + 1)
    for i in range(len(p) - len(q), -1, -1):
        c = (p[i + len(q) - 1] * inv) % m
        if c:
            quo[i] = c
            for j, b in enumerate(q):
                p[i + j] = (p[i + j] - c * b) % m
    return fp_trim(quo, m), fp_trim(p, m)


def fp_gcd(p, q, m):
    while q:
        p, q = q, fp_divmod(p, q, m)[1]
    return fp_monic(p, m)


def fp_powmod(p, e, f, m):
    out = (1,)
    p = fp_divmod(p, f, m)[1]
    while e:
        if e & 1:
            out = fp_divmod(fp_mul(out, p, m), f, m)[1]
        p = fp_divmod(fp_mul(p, p, m), f, m)[1]
        e >>= 1
    return out


def fp_deriv(p, m):
    return fp_trim([i * c for i, c in enumerate(p)][1:], m)


def fp_distinct_degree(f, p):
    """[(product of irreducibles of degree d, d)] for squarefree monic f."""
    out = []
    h = (0, 1)  # x
    d = 0
    while deg(f) > 0:
        d += 1
        if 2 * d > deg(f):
            out.append((f, deg(f)))
            break
        h = fp_powmod(h, p, f, p)
        g = fp_gcd(fp_sub(h, (0, 1), p), f, p)
        if deg(g) > 0:
            out.append((g, d))
            f = fp_divmod(f, g, p)[0]
            h = fp_divmod(h, f, p)[1]
    return out


def fp_equal_degree(f, d, p, rng):
    """Cantor-Zassenhaus split of monic squarefree f into its degree-d parts."""
    n = deg(f)
    if n == d:
        return [f]
    while True:
        a = fp_trim([rng.randrange(p) for _ in range(n)], p)
        if deg(a) < 1:
            continue
        if p == 2:
            t = a
            acc = a
            for _ in range(d - 1):
                acc = fp_powmod(acc, 2, f, p)
                t = fp_add(t, acc, p)
            g = fp_gcd(t, f, p)
        else:
            g = fp_gcd(a, f, p)
            if 0 < deg(g) < n:
                pass
            else:
                b = fp_powmod(a, (p ** d - 1) // 2, f, p)
                g = fp_gcd(fp_sub(b, (1,), p), f, p)
        if 0 < deg(g) < n:
            left = fp_equal_degree(g, d, p, rng)
            right = fp_equal_degree(fp_divmod(f, g, p)[0], d, p, rng)
            return left + right


def fp_factor_squarefree(f, p, seed=1, parts=None):
    """The sorted monic irreducible factors of squarefree f over F_p: its
    distinct-degree `parts` (computed if None) split by equal degrees."""
    rng = random.Random((seed * 1000003 + p) ^ len(f))
    if parts is None:
        parts = fp_distinct_degree(fp_monic(f, p), p)
    out = []
    for g, d in parts:
        out.extend(fp_equal_degree(g, d, p, rng))
    return sorted(out)


def _fp_roots(f, p):
    """The roots of f in F_p, ascending: Horner at all p points at once."""
    x = np.arange(p, dtype=np.int64)
    value = np.zeros(p, dtype=np.int64)
    for c in reversed(f):
        value = (value * x + c) % p
    return np.flatnonzero(value == 0).tolist()


# ---------------------------------------------------------------------------
# Hensel lifting and Zassenhaus

def _hensel_step(m, f, g, h, s, t):
    """One quadratic step: from f=gh, sg+th=1 (mod m) to the same mod m^2."""
    mm = m * m
    e = fp_trim(sub(f, mul(g, h)), mm)
    q, r = fp_divmod(fp_mul(s, e, mm), h, mm)
    g1 = fp_trim(add(add(g, fp_mul(t, e, mm)), mul(q, g)), mm)
    h1 = fp_add(h, r, mm)
    b = fp_trim(sub(add(mul(s, g1), mul(t, h1)), (1,)), mm)
    c, d = fp_divmod(fp_mul(s, b, mm), h1, mm)
    s1 = fp_sub(s, d, mm)
    t1 = fp_trim(sub(sub(t, mul(t, b)), mul(c, g1)), mm)
    return g1, h1, s1, t1


def _fp_ext_gcd(a, b, p):
    """(s, t) with s*a + t*b = 1 over F_p for coprime a, b."""
    r0, r1 = fp_trim(a, p), fp_trim(b, p)
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = fp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, fp_sub(s0, fp_mul(q, s1, p), p)
        t0, t1 = t1, fp_sub(t0, fp_mul(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return fp_trim([c * inv for c in s0], p), fp_trim([c * inv for c in t0], p)


def _hensel_lift_tree(f, factors, p, bound):
    """Lift monic f = prod(factors) mod p to mod p^k > bound; returns
    (p^k, lifted factors)."""
    if len(factors) == 1:
        m = p
        while m <= bound:
            m *= m
        return m, [fp_trim(f, m)]
    half = len(factors) // 2
    g = (1,)
    for q in factors[:half]:
        g = fp_mul(g, q, p)
    h = (1,)
    for q in factors[half:]:
        h = fp_mul(h, q, p)
    s, t = _fp_ext_gcd(g, h, p)
    m = p
    while m <= bound:
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m *= m
    mg, left = _hensel_lift_tree(g, factors[:half], p, bound)
    mh, right = _hensel_lift_tree(h, factors[half:], p, bound)
    return m, [fp_trim(q, m) for q in left + right]


def _symmetric(p, m):
    return tuple(c - m if c > m // 2 else c for c in p)


def _mignotte(f):
    n = deg(f)
    norm = math.isqrt(sum(c * c for c in f)) + 1
    return (2 ** n) * norm * abs(f[-1])


def _integer_roots(f):
    """The integer roots of monic squarefree f over Z, ascending.

    Every root r has |r| <= B = 1 + max |f_i| (Cauchy).  At a prime q at
    which f stays squarefree, each root of f mod q is simple, so Newton's
    step a <- a - f(a) / f'(a) lifts it to the one root mod q^(2^k); once
    q^(2^k) > 2B, an integer root is the symmetric residue of its lift,
    and each residue is checked by Horner's rule in integers."""
    bound = 1 + max(abs(c) for c in f[:-1])
    q = 2
    while True:
        q = _next_prime(q)
        fq = fp_trim(f, q)
        if deg(fq) == deg(f) and deg(fp_gcd(fq, fp_deriv(fq, q), q)) == 0:
            break
    df = deriv(f)
    out = []
    for a in _fp_roots(fq, q):
        m = q
        while m <= 2 * bound:
            m *= m
            a = (a - evaluate(f, a) * pow(evaluate(df, a), -1, m)) % m
        a = a - m if a > m // 2 else a
        if not evaluate(f, a):
            out.append(a)
    return sorted(out)


def _factor_squarefree_monic(f, seed):
    """Zassenhaus for monic squarefree f over Z, after the linear factors
    X - a of its integer roots a are divided out.  What is left has no
    rational root (a rational root of a monic integer polynomial is an
    integer), so it is irreducible when its degree is at most 3."""
    out = []
    for a in _integer_roots(f):
        out.append((-a, 1))
        f = exact_div(f, (-a, 1))
    if deg(f) < 1:
        return out
    if deg(f) <= 3:
        return out + [f]
    return out + _zassenhaus(f, seed)


def _zassenhaus(f, seed):
    """Zassenhaus for monic squarefree f over Z."""
    best = None
    tried = 0
    p = 2
    while tried < 5:
        p = _next_prime(p)
        fp = fp_trim(f, p)
        if deg(fp) != deg(f):
            continue
        if deg(fp_gcd(fp, fp_deriv(fp, p), p)) != 0:
            continue
        # the number of factors mod p, read off the distinct degrees
        parts = fp_distinct_degree(fp_monic(fp, p), p)
        count = sum(deg(g) // d for g, d in parts)
        tried += 1
        if best is None or count < best[0]:
            best = (count, p, fp, parts)
        if count <= 2:
            break
    count, p, fp, parts = best
    if count == 1:
        return [f]
    modular = fp_factor_squarefree(fp, p, seed, parts)
    bound = 2 * _mignotte(f)
    m, lifted = _hensel_lift_tree(f, modular, p, bound)
    out = []
    remaining = list(lifted)
    rest = f
    k = 1
    while 2 * k <= len(remaining):
        found = True
        while found and 2 * k <= len(remaining):
            found = False
            for subset in itertools.combinations(range(len(remaining)), k):
                cand = (1,)
                for i in subset:
                    cand = fp_mul(cand, remaining[i], m)
                # monic, so it divides rest over Z when it does over Q
                cand = _symmetric(cand, m)
                try:
                    rest = exact_div(rest, cand)
                except ValueError:
                    continue
                out.append(cand)
                remaining = [q for i, q in enumerate(remaining)
                             if i not in subset]
                found = True
                break
        k += 1
    if deg(rest) > 0:
        out.append(rest)
    return out


def _next_prime(p):
    p += 1
    while True:
        if p > 2 and p % 2 == 0:
            p += 1
            continue
        if all(p % d for d in range(3, math.isqrt(p) + 1, 2)) and p > 1:
            return p
        p += 1


def factor(f, seed=1):
    """Complete factorization over Z.

    Returns (unit, content, [(irreducible primitive poly, multiplicity)]),
    with unit * content * prod(poly^mult) == f and factors sorted by
    (degree, coefficients).
    """
    f = trim(f)
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    prim, cont = primitive(f)
    unit = -1 if cont < 0 else 1
    cont = abs(cont)
    if deg(prim) == 0:
        return unit, cont, []
    out = []
    for g, mult in squarefree_decomposition(prim):
        lc = g[-1]
        if lc != 1:
            # make monic by x -> x / lc, factor, and map factors back
            n = deg(g)
            monic = tuple(g[i] * lc ** (n - 1 - i) for i in range(n)) + (1,)
            for q in _factor_squarefree_monic(monic, seed):
                back = tuple(c * lc ** i for i, c in enumerate(q))
                out.append((primitive(back)[0], mult))
        else:
            for q in _factor_squarefree_monic(g, seed):
                out.append((q, mult))
    out.sort(key=lambda fm: (deg(fm[0]), fm[0]))
    return unit, cont, out


def poly_str(p, var="X"):
    if not p:
        return "0"
    terms = []
    for i in range(deg(p), -1, -1):
        c = p[i]
        if not c:
            continue
        if i == 0:
            terms.append(f"{c:+d}")
        else:
            x = var if i == 1 else f"{var}^{i}"
            if c == 1:
                terms.append(f"+{x}")
            elif c == -1:
                terms.append(f"-{x}")
            else:
                terms.append(f"{c:+d}{x}")
    s = "".join(terms)
    return s[1:] if s.startswith("+") else s
