import json
import math
import random
from fractions import Fraction
from importlib import resources

import pytest
import sympy

from endoperm import quadfield
from endoperm.quadfield import (QuadraticNumber, RadicalVector, RowSolver,
                                int_product, left_kernel, pivot_columns,
                                poly_kernel, squarefree_part)
from scenarios import radical_dict, sym


def test_squarefree_part():
    assert squarefree_part(45) == (5, 3)
    assert squarefree_part(1) == (1, 1)
    assert squarefree_part(99) == (11, 3)
    with pytest.raises(ValueError):
        squarefree_part(0)


def test_roots_of_quadratics():
    x = QuadraticNumber(-6, 1, 5)
    assert x * x + 12 * x + 31 == 0
    y = QuadraticNumber(0, 3, 5)
    assert y * y == 45
    assert QuadraticNumber(0, 1, 8) == QuadraticNumber(0, 2, 2)
    assert QuadraticNumber(2, 3, 1) == 5 and QuadraticNumber(0, 1, 9) == 3


def test_field_axioms_sampled():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.choice([2, 3, 5, 33])
        a = QuadraticNumber(Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)),
                            Fraction(rng.randrange(-9, 10)), n)
        b = QuadraticNumber(rng.randrange(-9, 10), rng.randrange(-9, 10), n)
        assert (a + b) - b == a
        assert a * b == b * a
        if b != 0:
            assert (a / b) * b == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_mixed_radicands_refused():
    a = QuadraticNumber(1, 1, 3)
    b = QuadraticNumber(1, 1, 5)
    with pytest.raises(ValueError):
        a + b


def test_radical_vector_cross_products():
    r3, r33 = (RadicalVector([QuadraticNumber(0, 1, n)]) for n in (3, 33))
    assert r3.dot(r33) == {11: Fraction(3)}
    a = RadicalVector([QuadraticNumber(1, 2, 3)])
    # (1 + 2 r3) r33 = r33 + 2 r99 = r33 + 6 r11
    assert a.dot(r33) == {33: Fraction(1), 11: Fraction(6)}
    # (1 + 2 r3)(1 - 2 r3) = -11: the cancelled radical is left out
    assert a.dot(RadicalVector([QuadraticNumber(1, -2, 3)])) == \
        {1: Fraction(-11)}


def test_algebraic_integboth():
    assert QuadraticNumber(Fraction(1, 2), Fraction(1, 2), 5) \
        .is_algebraic_integer()
    assert not QuadraticNumber(Fraction(1, 2), Fraction(1, 2), 3) \
        .is_algebraic_integer()
    assert QuadraticNumber(3, -4, 3).is_algebraic_integer()


def test_json_roundtrip():
    x = QuadraticNumber(Fraction(3, 2), Fraction(-1, 2), 13)
    assert QuadraticNumber.from_json(x.to_json()) == x


def test_exact_linear_algebra():
    # rank plus nullity: the pivots of M and its left kernel
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randrange(1, 6)
        M = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n + 1)]
        pivots = pivot_columns(M)
        N = left_kernel(M)
        for v in N:
            assert math.gcd(*v) == 1
            assert all(sum(x * row[j] for x, row in zip(v, M)) == 0
                       for j in range(n))
        assert len(pivots) + len(N) == len(M)


def test_express_and_solve_action():
    # RowSolver.solve expresses rows in a basis, RowSolver.act restricts
    B = [[1, 2, 0], [0, 1, 1]]
    solver = RowSolver(B)
    X = solver.solve([[2, 5, 1]])
    assert [Fraction(x, solver.L) for x in X[0]] == [2, 1]
    assert solver.solve([[0, 0, 7]]) is None
    # invariant row space: the x-y plane under a swap of x and y
    M = [[0, 1, 0], [1, 0, 0], [0, 0, 2]]
    plane = RowSolver([[1, 0, 0], [0, 1, 0]])
    [C] = plane.act(M)
    assert int_product(C, plane.a) == [[plane.L * x for x in row]
                                       for row in int_product(plane.a, M)]
    with pytest.raises(ValueError):
        RowSolver([[1, 1, 1]]).act(M)


# ---------------------------------------------------------------------------
# The rational kernel against sympy, an independent exact reference

def _to_sympy(M):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in M])


def _from_sympy(S):
    return [[int(x) for x in S.row(i)] for i in range(S.rows)]


def _random_integer(rng, rows, cols, rank=None):
    """A rows x cols integer matrix of the given rank (full when None),
    with a zero row mixed in now and then."""
    rank = min(rows, cols) if rank is None else rank
    left = [[rng.randrange(-4, 5) for _ in range(rank)] for _ in range(rows)]
    right = [[rng.randrange(-4, 5) for _ in range(cols)]
             for _ in range(rank)]
    M = _from_sympy(_to_sympy(left) * _to_sympy(right)) if rank else \
        [[0] * cols for _ in range(rows)]
    if rows > 1 and rng.random() < 0.3:
        M[rng.randrange(rows)] = [0] * cols
    return M


def _random_cases(seed, count=40):
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        rank = rng.randrange(0, min(rows, cols) + 1)
        yield rng, _random_integer(rng, rows, cols, rank)


def _with_zero_and_repeated_columns(rng, M):
    """M with a zero column and a copy of one of its columns put in now
    and then; neither changes the left kernel."""
    cols = [list(col) for col in zip(*M)]
    if rng.random() < 0.5:
        cols.insert(rng.randrange(len(cols) + 1), [0] * len(M))
    if rng.random() < 0.5:
        cols.insert(rng.randrange(len(cols) + 1), rng.choice(cols))
    return [list(row) for row in zip(*cols)]


def _same_rows_up_to_positive_scale(got, want):
    """Each row of got is a positive multiple of the matching sympy row."""
    assert len(got) == len(want)
    for v, w in zip(got, want):
        w = list(w)
        f = next(i for i, x in enumerate(w) if x)
        ratio = sympy.Rational(v[f]) / w[f]
        assert ratio > 0 and [sympy.Rational(x) for x in v] == \
            [ratio * x for x in w]


def test_int_product_matches_sympy():
    for rng, A in _random_cases(11):
        B = _random_integer(rng, len(A[0]), rng.randrange(1, 6))
        out = int_product(A, B)
        assert _to_sympy(out) == _to_sympy(A) * _to_sympy(B)
        assert all(type(x) is int for row in out for x in row)


def _python_product(X, Y):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*Y)]
            for row in X]


def test_int_product_crosses_the_int64_bound():
    # max|X| max|Y| len(Y) = a b k just below, at and above 2^63; rows and
    # columns of one sign reach the bound, and at 2^63 that sum would
    # wrap around in int64.  The rows of X repeat until the product is
    # large enough to go to numpy at all
    below = (7, 7 * 73 * 127 * 337, 92737 * 649657)
    assert below[0] * below[1] * below[2] == 2 ** 63 - 1
    for k, a, b in (below, (2, 2 ** 31, 2 ** 31), (3, 2 ** 31, 2 ** 31)):
        X = [[a] * k, [-a] * k, [a if i % 2 else -a for i in range(k)]]
        X *= quadfield._NUMPY_PRODUCT // (3 * k)
        Y = [[b, -b, b - i] for i in range(k)]
        assert len(X) * k * 3 > quadfield._NUMPY_PRODUCT
        out = int_product(X, Y)
        assert out == _python_product(X, Y)
        assert abs(out[0][0]) == a * b * k
        assert all(type(x) is int for row in out for x in row)
    # entries at and beyond int64's own range
    for X, Y in (([[-2 ** 63]], [[-1]]), ([[2 ** 70, 1]], [[3], [-2]]),
                 ([[5, -4]], [[2 ** 63], [1]])):
        assert int_product(X, Y) == _python_product(X, Y)
    # empty shapes: no rows, inner dimension 0, no columns
    for X, Y in (([], [[1, 2]]), ([[], []], []), ([[1], [2]], [[]])):
        assert int_product(X, Y) == _python_product(X, Y)


def test_rref_and_nullspaces_match_sympy():
    # pivot_columns against sympy's rref pivots; left_kernel, of M and of
    # its transpose, against sympy's echelonized nullspaces: the reduced
    # basis is unique, so each kernel row is a positive multiple of
    # sympy's, and primitive
    for rng, M in _random_cases(13):
        S = _to_sympy(M)
        assert pivot_columns(M) == list(S.rref()[1])
        left = left_kernel(_with_zero_and_repeated_columns(rng, M))
        _same_rows_up_to_positive_scale(left, S.T.nullspace())
        right = left_kernel([list(col) for col in zip(*M)])
        _same_rows_up_to_positive_scale(right, S.nullspace())
        assert all(math.gcd(*v) == 1 for v in left + right)


def test_express_in_rows_matches_sympy():
    # RowSolver.solve: X B = L V for V in the row space of B, and None
    # for V outside it
    for rng, B in _random_cases(15):
        S = _to_sympy(B)
        inside = [[rng.randrange(-4, 5) for _ in B] for _ in range(2)]
        V = _from_sympy(_to_sympy(inside) * S)
        solver = RowSolver(B)
        X = _to_sympy(solver.solve(V)) / solver.L
        assert X * S == _to_sympy(V)
        if S.rank() == len(B):
            assert X == _to_sympy(inside)
        w = [rng.randrange(-4, 5) for _ in B[0]]
        in_span = S.col_join(_to_sympy([w])).rank() == S.rank()
        assert (solver.solve([w]) is not None) == in_span


def _invariant_case(rng, n, k):
    """(B, C, M): a k x n integer basis B, and M rational with
    B M = C B, from M = S^-1 T S with S = [B; unit rows] invertible and T
    block lower triangular with C in the corner; None when B is not of
    full rank."""
    B = _random_integer(rng, k, n)
    S = _to_sympy(B)
    if S.rank() < k:
        return None
    for i in range(n):
        unit = sympy.Matrix([[int(i == j) for j in range(n)]])
        if S.col_join(unit).rank() > S.rank():
            S = S.col_join(unit)
    C = _to_sympy(_random_integer(rng, k, k)) / rng.randrange(1, 3)
    T = sympy.zeros(n, n)
    T[:k, :k] = C
    if n > k:
        T[k:, :] = _to_sympy(_random_integer(rng, n - k, n))
    return B, C, S.inv() * T * S


def _integral(S):
    """(M, d): the integer matrix M = d S for d the lcm of the
    denominators of the sympy matrix S."""
    d = math.lcm(*(int(x.q) for x in S))
    return [[int(x * d) for x in S.row(i)] for i in range(S.rows)], d


def test_solve_action_matches_sympy():
    # RowSolver.act on two matrices side by side against the C that
    # built them; ValueError when the row space is not invariant
    rng = random.Random(16)
    checked = 0
    for _ in range(25):
        n = rng.randrange(2, 7)
        k = rng.randrange(1, n + 1)
        case = _invariant_case(rng, n, k)
        if case is None:
            continue
        B, C, M = case
        M1, d1 = _integral(M)
        M2, d2 = _integral(M * M + M)
        solver = RowSolver(B)
        X1, X2 = solver.act([r1 + r2 for r1, r2 in zip(M1, M2)])
        assert _to_sympy(X1) == solver.L * d1 * C
        assert _to_sympy(X2) == solver.L * d2 * (C * C + C)
        checked += 1
        if k < n:
            N = _random_integer(rng, n, n)
            SB = _to_sympy(B)
            if SB.col_join(SB * _to_sympy(N)).rank() > k:
                with pytest.raises(ValueError):
                    solver.act(N)
    assert checked >= 15


def _sympy_poly_at(f, M):
    """f(M) by Horner's rule in sympy, for f over Q (constant first)."""
    F = sympy.zeros(*M.shape)
    for c in f[::-1]:
        F = F * M + sympy.eye(M.rows) * sympy.Rational(c.numerator,
                                                      c.denominator)
    return F


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = a * b + out[i + j]
    return out


def _primitive_integer(f):
    """The primitive integer polynomial that is a positive multiple of f,
    a polynomial over Q; f(X) and it have the same kernel."""
    f = [Fraction(c) for c in f]
    den = math.lcm(*(c.denominator for c in f))
    ints = [int(c * den) for c in f]
    g = math.gcd(*ints)
    return [c // g for c in ints]


def test_poly_at_matches_sympy():
    # poly_kernel(X, L, f) against sympy's left nullspace of f(X / L): f
    # a factor of the characteristic polynomial times a random rational
    # linear factor, passed as its primitive integer polynomial
    rng = random.Random(25)
    x = sympy.Symbol("x")
    for _ in range(24):
        size = rng.randrange(2, 5)
        X, L = _random_integer(rng, size, size), rng.randrange(1, 4)
        C = _to_sympy(X) / L
        g = rng.choice(sympy.factor_list(C.charpoly(x).as_expr())[1])[0]
        f = [Fraction(int(c.p), int(c.q))
             for c in sympy.Poly(g, x).all_coeffs()[::-1]]
        f = _poly_mul(f, [Fraction(rng.randrange(-6, 7), rng.choice((1, 2))),
                          1])
        K = poly_kernel(X, L, _primitive_integer(f))
        F = _sympy_poly_at(f, C)
        want = F.T.nullspace()
        # f has a factor of the characteristic polynomial
        assert len(K) == len(want) > 0
        assert all(math.gcd(*v) == 1 for v in K)
        V = _to_sympy(K)
        assert (V * F).is_zero_matrix
        assert V.rref()[0] == sympy.Matrix.hstack(*want).T.rref()[0]


def _number(rng, n):
    """An int, a Fraction or a QuadraticNumber with half-integral parts."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randrange(-5, 6)
    a = Fraction(rng.randrange(-6, 7), rng.choice((1, 2)))
    if kind == 1:
        return a
    return QuadraticNumber(a, Fraction(rng.randrange(-6, 7), rng.choice((1, 2))),
                           n)


def test_radical_vector_dot_matches_sympy():
    # the term-by-term sum in sympy is the reference
    rng = random.Random(26)
    for _ in range(40):
        size = rng.randrange(1, 7)
        x, y = ([_number(rng, rng.choice((3, 5, 33))) for _ in range(size)]
                for _ in range(2))
        weights = [rng.randrange(-4, 5) for _ in range(size)]
        want = sum(sym(a) * sym(b) * w for a, b, w in zip(x, y, weights))
        got = RadicalVector(x, weights).dot(RadicalVector(y))
        assert got == radical_dict(want)


# ---------------------------------------------------------------------------
# The integer form (an + bn sqrt(n)) / den against a Fraction reference:
# (a, b, n) with Fraction parts, normalized as the constructor documents

RADICANDS = (1, 2, 3, 4, 5, 8, 12, 13, 17, 33, 45, 99)


def _ref(a, b=0, n=1):
    a, b = Fraction(a), Fraction(b)
    if b:
        s, k = squarefree_part(n)
        a, b, n = (a + b * k, Fraction(0), 1) if s == 1 else (a, b * k, s)
    return a, b, (n if b else 1)


def _ref_add(x, y):
    return _ref(x[0] + y[0], x[1] + y[1], x[2] if x[1] else y[2])


def _ref_mul(x, y):
    (a, b, n), (c, d, m) = x, y
    n = n if b else m
    return _ref(a * c + b * d * n, a * d + b * c, n)


def _ref_inverse(x):
    a, b, n = x
    norm = a * a - b * b * n
    return _ref(a / norm, -b / norm, n)


def _parts(x):
    return x.a, x.b, x.n


def _assert_canonical(x):
    assert x.den > 0 and math.gcd(x.an, x.bn, x.den) == 1
    assert squarefree_part(x.n)[0] == x.n and (x.n == 1) == (x.bn == 0)
    assert all(type(t) is int for t in (x.an, x.bn, x.den, x.n))


def _random_parts(rng, n):
    """(a, b, n) as a caller passes them: n may be a square or not
    squarefree, and b is 0 now and then."""
    a = Fraction(rng.randrange(-12, 13), rng.randrange(1, 13))
    b = Fraction(rng.randrange(-12, 13), rng.randrange(1, 13))
    return a, (b if rng.random() < 0.8 else 0), n


def test_integer_form_matches_the_fraction_reference():
    rng = random.Random(31)
    for _ in range(400):
        n = rng.choice(RADICANDS)
        px, py = _random_parts(rng, n), _random_parts(rng, n)
        x, y = QuadraticNumber(*px), QuadraticNumber(*py)
        rx, ry = _ref(*px), _ref(*py)
        q = py[0]
        results = [
            (x, rx), (x + y, _ref_add(rx, ry)), (x - y, _ref_add(rx, _ref(
                -ry[0], -ry[1], ry[2]))), (x * y, _ref_mul(rx, ry)),
            (-x, _ref(-rx[0], -rx[1], rx[2])),
            (x.conjugate(), _ref(rx[0], -rx[1], rx[2])),
            (x + q, _ref_add(rx, _ref(q))), (q - x, _ref_add(_ref(q), _ref(
                -rx[0], -rx[1], rx[2]))), (x * 3, _ref_mul(rx, _ref(3)))]
        if ry != _ref(0):
            results += [(x / y, _ref_mul(rx, _ref_inverse(ry))),
                        (y.inverse(), _ref_inverse(ry)),
                        (q / y, _ref_mul(_ref(q), _ref_inverse(ry)))]
        for got, want in results:
            _assert_canonical(got)
            assert _parts(got) == want
            assert hash(got) == hash(want)
            assert bool(got) == (want != _ref(0))
        assert (x == y) == (rx == ry) and (x != y) == (rx != ry)
        assert (x == q) == (rx == _ref(q))


def test_integer_form_normalizes_the_radicand():
    # a square factor moves into b, and a square radicand into a
    # 1/3 + 1/2 sqrt(12) = (1 + 3 sqrt(3)) / 3
    x = QuadraticNumber(Fraction(1, 3), Fraction(1, 2), 12)
    assert (x.an, x.bn, x.den, x.n) == (1, 3, 3, 3)
    for n, k in ((1, 1), (4, 2), (9, 3), (36, 6)):
        y = QuadraticNumber(Fraction(1, 2), Fraction(-1, 3), n)
        a = Fraction(1, 2) - Fraction(k, 3)
        assert (y.an, y.bn, y.den, y.n) == (a.numerator, 0, a.denominator, 1)
        _assert_canonical(y)
    assert (QuadraticNumber(5, 0, 7).n, QuadraticNumber(5, 0, 7)) == (1, 5)
    with pytest.raises(ValueError):
        QuadraticNumber(1, 1, 0)


def test_repr_and_algebraic_integers():
    cases = {(3, 0, 5): "3", (Fraction(-1, 2), 0, 1): "-1/2",
             (0, 1, 5): "r5", (0, -1, 5): "-r5", (0, 2, 3): "2r3",
             (1, 1, 5): "1+r5", (1, -1, 5): "1-r5",
             (Fraction(1, 2), Fraction(3, 2), 13): "1/2+3/2r13",
             (Fraction(-1, 2), Fraction(-1, 2), 5): "-1/2-1/2r5",
             (1, Fraction(-2, 3), 2): "1-2/3r2"}
    for parts, text in cases.items():
        assert repr(QuadraticNumber(*parts)) == text
    # a + b sqrt(n) is an algebraic integer exactly when the trace 2a and
    # the norm a^2 - b^2 n of its minimal polynomial are integers (a
    # itself when b = 0)
    rng = random.Random(32)
    for _ in range(400):
        den = rng.choice((1, 2, 2, 3, 4))
        a, b, n = _ref(Fraction(rng.randrange(-9, 10), den),
                       Fraction(rng.randrange(-9, 10), den),
                       rng.choice(RADICANDS))
        want = (a.denominator == 1 if b == 0 else
                (2 * a).denominator == 1
                and (a * a - b * b * n).denominator == 1)
        assert QuadraticNumber(a, b, n).is_algebraic_integer() == want


def _ref_dot(xs, ys, weights):
    """sum_j w_j x_j y_j term by term in Fractions."""
    acc = {}
    for x, y, w in zip(xs, ys, weights):
        (a, b, s), (c, d, t) = (
            _parts(v) if isinstance(v, QuadraticNumber) else _ref(v)
            for v in (x, y))
        g = math.gcd(s, t)
        for coeff, rad in ((a * c, 1), (a * d, t), (b * c, s),
                           (b * d * g, (s // g) * (t // g))):
            acc[rad] = acc.get(rad, 0) + w * coeff
    return {rad: c for rad, c in acc.items() if c}


def test_radical_vector_dot_matches_the_fraction_reference():
    rng = random.Random(33)
    for _ in range(100):
        size = rng.randrange(1, 8)

        def value():
            kind = rng.randrange(3)
            if kind == 0:
                return rng.randrange(-5, 6)
            parts = _random_parts(rng, rng.choice(RADICANDS))
            return Fraction(parts[0]) if kind == 1 else \
                QuadraticNumber(*parts)

        x, y = [value() for _ in range(size)], [value() for _ in range(size)]
        weights = [rng.randrange(-4, 5) for _ in range(size)]
        assert RadicalVector(x, weights).dot(RadicalVector(y)) == \
            _ref_dot(x, y, weights)


def test_json_round_trip_of_the_j4_table_is_byte_identical():
    ref = resources.files("endoperm.data").joinpath("j4_chartable_ec.json")
    values = [v for row in json.loads(ref.read_text())["rows"]
              for v in row["values"]]
    assert len(values) == 486
    for v in values:
        x = QuadraticNumber.from_json(v)
        _assert_canonical(x)
        assert _parts(x) == _ref(Fraction(v[0], v[1]), Fraction(v[2], v[3]),
                                 v[4])
        assert json.dumps(x.to_json()) == json.dumps(v)


def test_non_canonical_json_is_normalized():
    cases = [([2, -4, 3, 6, 5], [-1, 2, 1, 2, 5]),
             ([6, 4, 0, -3, 7], [3, 2, 0, 1, 1]),
             ([1, 1, 1, 1, 9], [4, 1, 0, 1, 1]),
             ([0, 5, 1, 1, 12], [0, 1, 2, 1, 3]),
             ([-3, -9, 10, -4, 2], [1, 3, -5, 2, 2])]
    for data, canonical in cases:
        assert QuadraticNumber.from_json(data).to_json() == canonical
    rng = random.Random(34)
    for _ in range(200):
        an, bn = rng.randrange(-20, 21), rng.randrange(-20, 21)
        ad, bd = (rng.choice((-1, 1)) * rng.randrange(1, 30)
                  for _ in range(2))
        n = rng.choice(RADICANDS)
        x = QuadraticNumber.from_json([an, ad, bn, bd, n])
        _assert_canonical(x)
        assert _parts(x) == _ref(Fraction(an, ad), Fraction(bn, bd), n)
    with pytest.raises(ZeroDivisionError):
        QuadraticNumber.from_json([1, 0, 1, 1, 5])
    with pytest.raises(ValueError):
        QuadraticNumber.from_json([1, 1, 1, 1, -5])
