import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from endoperm.quadfield import (QuadraticNumber, RadicalSum, RadicalVector,
                                express_in_rows, left_nullspace, mat_mul,
                                poly_at, right_nullspace, rref, solve_action,
                                squarefree_part)


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


def test_radical_sum_cross_products():
    a = RadicalSum.from_quadratic(QuadraticNumber(1, 2, 3))
    b = RadicalSum.from_quadratic(QuadraticNumber(0, 1, 33))
    prod = a * b
    # (1 + 2 r3) r33 = r33 + 2 r99 = r33 + 6 r11
    assert prod.terms == {33: Fraction(1), 11: Fraction(6)}
    conj = RadicalSum.from_quadratic(QuadraticNumber(1, -2, 3))
    assert (a * conj).terms == {1: Fraction(1 - 12)}


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
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randrange(1, 6)
        M = [[Fraction(rng.randrange(-5, 6)) for _ in range(n)]
             for _ in range(n + 1)]
        R, pivots = rref(M)
        for r, c in enumerate(pivots):
            assert R[r][c] == 1
        N = left_nullspace(M)
        for v in N:
            out = [sum(v[i] * M[i][j] for i in range(len(M)))
                   for j in range(n)]
            assert all(x == 0 for x in out)
        rk = len(pivots)
        assert rk + len(N) == len(M)


def test_express_and_solve_action():
    B = [[Fraction(1), Fraction(2), Fraction(0)],
         [Fraction(0), Fraction(1), Fraction(1)]]
    assert express_in_rows(B, [Fraction(2), Fraction(5), Fraction(1)]) == \
        [Fraction(2), Fraction(1)]
    assert express_in_rows(B, [Fraction(0), Fraction(0), Fraction(7)]) is None
    # invariant row space: x-y plane under a rotation-ish map
    M = [[Fraction(0), Fraction(1), Fraction(0)],
         [Fraction(1), Fraction(0), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(2)]]
    basis = [[Fraction(1), Fraction(0), Fraction(0)],
             [Fraction(0), Fraction(1), Fraction(0)]]
    C = solve_action(basis, M)
    assert mat_mul(C, basis) == mat_mul(basis, M)
    bad = [[Fraction(1), Fraction(1), Fraction(1)]]
    with pytest.raises(ValueError):
        solve_action(bad, M)


# ---------------------------------------------------------------------------
# The rational kernel against sympy, an independent exact reference

def _to_sympy(M):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in M])


def _from_sympy(S):
    return [[Fraction(int(x.p), int(x.q)) for x in S.row(i)]
            for i in range(S.rows)]


def _random_rational(rng, rows, cols, rank=None):
    """A rows x cols rational matrix of the given rank (full when None),
    with a zero row mixed in now and then."""
    def entry():
        return Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
    rank = min(rows, cols) if rank is None else rank
    left = [[entry() for _ in range(rank)] for _ in range(rows)]
    right = [[entry() for _ in range(cols)] for _ in range(rank)]
    M = [[sum((row[t] * right[t][j] for t in range(rank)), Fraction(0))
          for j in range(cols)] for row in left]
    if rows > 1 and rng.random() < 0.3:
        M[rng.randrange(rows)] = [Fraction(0)] * cols
    return M


def _random_cases(seed, count=40):
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        rank = rng.randrange(0, min(rows, cols) + 1)
        yield rng, _random_rational(rng, rows, cols, rank)


def _loop_mat_mul(A, B):
    """The plain triple loop, kept here as the reference for entry types."""
    out = []
    for row in A:
        out.append([])
        for j in range(len(B[0])):
            acc = row[0] * B[0][j]
            for k in range(1, len(B)):
                acc = acc + row[k] * B[k][j]
            out[-1].append(acc)
    return out


def test_mat_mul_matches_sympy_and_keeps_entry_types():
    for rng, A in _random_cases(11):
        B = _random_rational(rng, len(A[0]), rng.randrange(1, 6))
        assert mat_mul(A, B) == _from_sympy(_to_sympy(A) * _to_sympy(B))
    rng = random.Random(12)
    for _ in range(20):
        A = [[rng.randrange(-9, 10) for _ in range(4)] for _ in range(3)]
        B = [[rng.randrange(-9, 10) for _ in range(5)] for _ in range(4)]
        out = mat_mul(A, B)
        assert all(type(x) is int for row in out for x in row)
        # one Fraction in row 0 of A and one in column 2 of B
        A[0][1] = Fraction(A[0][1], 3)
        B[3][2] = Fraction(1, 2)
        out, ref = mat_mul(A, B), _loop_mat_mul(A, B)
        assert out == ref
        assert [[type(x) for x in row] for row in out] == \
            [[type(x) for x in row] for row in ref]


def test_rref_and_nullspaces_match_sympy():
    for _, M in _random_cases(13):
        R, pivots = rref(M)
        SR, spivots = _to_sympy(M).rref()
        assert pivots == list(spivots)
        assert R == _from_sympy(SR)
        assert all(type(x) is Fraction for row in R for x in row)
        S = _to_sympy(M)
        assert right_nullspace(M) == [[Fraction(int(x.p), int(x.q))
                                       for x in v] for v in S.nullspace()]
        assert left_nullspace(M) == [[Fraction(int(x.p), int(x.q))
                                      for x in v] for v in S.T.nullspace()]


def test_generic_path_agrees_with_the_integer_path():
    # rational matrices held as QuadraticNumbers give the answers of
    # their Fraction form
    for _, M in _random_cases(14, count=15):
        Mq = [[QuadraticNumber(x) for x in row] for row in M]
        R, pivots = rref(M)
        Rq, pivots_q = rref(Mq)
        assert (Rq, pivots_q) == (R, pivots)
        assert left_nullspace(Mq) == left_nullspace(M)


def test_express_in_rows_matches_sympy():
    for rng, B in _random_cases(15):
        S = _to_sympy(B)
        inside = [Fraction(rng.randrange(-4, 5)) for _ in B]
        v = mat_mul([inside], B)[0]
        x = express_in_rows(B, v)
        assert x is not None and mat_mul([x], B)[0] == v
        if S.rank() == len(B):
            sol, _ = S.T.gauss_jordan_solve(_to_sympy([v]).T)
            assert x == [row[0] for row in _from_sympy(sol)]
        w = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 3))
             for _ in B[0]]
        in_span = S.col_join(_to_sympy([w])).rank() == S.rank()
        assert (express_in_rows(B, w) is not None) == in_span


def test_solve_action_matches_sympy():
    rng = random.Random(16)
    for _ in range(25):
        n = rng.randrange(2, 7)
        k = rng.randrange(1, n + 1)
        B = _random_rational(rng, k, n)
        if _to_sympy(B).rank() < k:
            continue
        # S: B's rows plus unit rows, invertible; T block lower triangular
        # with C in the corner, so M = S^-1 T S has B M = C B
        S = _to_sympy(B)
        for i in range(n):
            unit = sympy.Matrix([[int(i == j) for j in range(n)]])
            if S.col_join(unit).rank() > S.rank():
                S = S.col_join(unit)
        C = _random_rational(rng, k, k)
        T = sympy.zeros(n, n)
        T[:k, :k] = _to_sympy(C)
        T[k:, :] = _to_sympy(_random_rational(rng, n - k, n)) if n > k \
            else T[k:, :]
        M = _from_sympy(S.inv() * T * S)
        assert solve_action(B, M) == C
        assert _to_sympy(C) * _to_sympy(B) == _to_sympy(B) * _to_sympy(M)
        if k < n:
            N = _random_rational(rng, n, n)
            SB = _to_sympy(B)
            if SB.col_join(SB * _to_sympy(N)).rank() > k:
                with pytest.raises(ValueError):
                    solve_action(B, N)


# ---------------------------------------------------------------------------
# The quadratic kernel against sympy's exact matrices over Q(sqrt(n))

FIELDS = (2, 5, 33)


def _field(n):
    return sympy.QQ.algebraic_field(sympy.sqrt(n))


def _element(x, K):
    """x in K = Q(sqrt(n)), whose primitive element is sqrt(n)."""
    a, b = (x.a, x.b) if type(x) is QuadraticNumber else (Fraction(x), 0)
    b = Fraction(b)
    return K([sympy.QQ(b.numerator, b.denominator),
              sympy.QQ(a.numerator, a.denominator)])


def _dm(M, n, cols=None):
    K = _field(n)
    cols = len(M[0]) if M else cols
    return DomainMatrix([[_element(x, K) for x in row] for row in M],
                        (len(M), cols), K)


def _value(x, n):
    b, a = ([0, 0] + x.to_list())[-2:]
    return QuadraticNumber(Fraction(int(a.numerator), int(a.denominator)),
                           Fraction(int(b.numerator), int(b.denominator)), n)


def _from_dm(D, n):
    return [[_value(x, n) for x in row] for row in D.to_list()]


def _entry(rng, n):
    """An int, a Fraction or a QuadraticNumber with half-integral parts."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randrange(-5, 6)
    a = Fraction(rng.randrange(-6, 7), rng.choice((1, 2)))
    if kind == 1:
        return a
    return QuadraticNumber(a, Fraction(rng.randrange(-6, 7), rng.choice((1, 2))),
                           n)


def _mixed(rng, M):
    """M's rational QuadraticNumbers as ints or Fractions now and then, so
    rows mix the three entry types."""
    def retype(x):
        if type(x) is not QuadraticNumber or x.b or rng.random() < 0.5:
            return x
        return int(x.a) if x.a.denominator == 1 and rng.random() < 0.5 \
            else x.a
    return [[retype(x) for x in row] for row in M]


def _random_quadratic(rng, n, rows, cols, rank=None):
    """A rows x cols matrix over Q(sqrt(n)) of the given rank (full when
    None), built in sympy, with a zero row now and then."""
    rank = min(rows, cols) if rank is None else rank
    left = [[_entry(rng, n) for _ in range(rank)] for _ in range(rows)]
    right = [[_entry(rng, n) for _ in range(cols)] for _ in range(rank)]
    if rank == 0:
        M = [[QuadraticNumber(0)] * cols for _ in range(rows)]
    else:
        M = _from_dm(_dm(left, n) * _dm(right, n), n)
    if rows > 1 and rng.random() < 0.3:
        M[rng.randrange(rows)] = [QuadraticNumber(0)] * cols
    return _mixed(rng, M)


def _quadratic_cases(seed, count=30):
    rng = random.Random(seed)
    for t in range(count):
        n = FIELDS[t % len(FIELDS)]
        rows, cols = (1, 1) if t % 10 == 0 else \
            (rng.randrange(1, 6), rng.randrange(1, 6))
        rank = rng.randrange(0, min(rows, cols) + 1)
        yield rng, n, _random_quadratic(rng, n, rows, cols, rank)


def test_quadratic_mat_mul_matches_sympy_and_the_loop():
    for rng, n, A in _quadratic_cases(21):
        cols = rng.randrange(1, 5)
        B = [[_entry(rng, n) for _ in range(cols)] for _ in A[0]]
        out = mat_mul(A, B)
        assert out == _from_dm(_dm(A, n) * _dm(B, n), n)
        ref = _loop_mat_mul(A, B)
        assert [[type(x) for x in row] for row in out] == \
            [[type(x) for x in row] for row in ref]
        assert mat_mul([], B) == []


def test_quadratic_rref_and_nullspaces_match_sympy():
    for _, n, M in _quadratic_cases(22):
        D = _dm(M, n)
        R, pivots = rref(M)
        SR, spivots = D.rref()
        assert pivots == list(spivots)
        assert R == _from_dm(SR, n)
        quadratic = any(type(x) is QuadraticNumber for row in M for x in row)
        assert {type(x) for row in R for x in row} == \
            {QuadraticNumber if quadratic else Fraction}
        cols, rank = len(M[0]), D.rank()
        free = [c for c in range(cols) if c not in pivots]
        right = right_nullspace(M)
        left = left_nullspace(M)
        assert len(right) == cols - rank and len(left) == len(M) - rank
        # the basis with unit entries at the free columns is unique
        for v, f in zip(right, free):
            assert [v[c] for c in free] == [int(c == f) for c in free]
            assert (D * _dm([[x] for x in v], n)).is_zero_matrix
        for v in left:
            assert (_dm([v], n) * D).is_zero_matrix
    assert rref([]) == ([], [])
    assert right_nullspace([]) == [] and left_nullspace([]) == []


def test_quadratic_express_in_rows_matches_sympy():
    for rng, n, B in _quadratic_cases(23):
        D = _dm(B, n)
        x = [_entry(rng, n) for _ in B]
        v = _from_dm(_dm([x], n) * D, n)[0]
        got = express_in_rows(B, v)
        assert got is not None
        assert _from_dm(_dm([got], n) * D, n)[0] == v
        if D.rank() == len(B):
            assert got == x
        w = [_entry(rng, n) for _ in B[0]]
        in_span = _dm(B + [w], n).rank() == D.rank()
        assert (express_in_rows(B, w) is not None) == in_span


def test_quadratic_solve_action_matches_sympy():
    rng = random.Random(24)
    checked = 0
    for t in range(30):
        n = FIELDS[t % len(FIELDS)]
        size = rng.randrange(1, 6)
        k = rng.randrange(1, size + 1)
        B = _random_quadratic(rng, n, k, size)
        if _dm(B, n).rank() < k:
            continue
        # S: B's rows plus unit rows, invertible; T block lower triangular
        # with C in the corner, so M = S^-1 T S has B M = C B
        S = [list(row) for row in B]
        for i in range(size):
            unit = [int(i == j) for j in range(size)]
            if _dm(S + [unit], n).rank() > len(S):
                S.append(unit)
        C = _random_quadratic(rng, n, k, k)
        T = [row + [0] * (size - k) for row in C] + \
            _random_quadratic(rng, n, size - k, size) if size > k else C
        DS = _dm(S, n)
        M = _from_dm(DS.inv() * _dm(T, n) * DS, n)
        got = solve_action(B, M)
        assert got == C
        assert all(type(x) is QuadraticNumber for row in got for x in row)
        checked += 1
        if k < size:
            N = _random_quadratic(rng, n, size, size)
            DB = _dm(B, n)
            if _dm(B + _from_dm(DB * _dm(N, n), n), n).rank() > k:
                with pytest.raises(ValueError):
                    solve_action(B, N)
    assert checked >= 15


def test_kernel_refuses_mixed_radicands():
    r2, r3 = QuadraticNumber(0, 1, 2), QuadraticNumber(1, 1, 3)
    for call in (lambda: mat_mul([[r2]], [[r3]]),
                 lambda: mat_mul([[r2, r3]], [[1], [1]]),
                 lambda: rref([[r2, 1], [1, r3]]),
                 lambda: left_nullspace([[r2], [r3]]),
                 lambda: solve_action([[1, 0]], [[r2, 0], [0, r3]]),
                 lambda: express_in_rows([[r2, 1]], [r3, 1])):
        with pytest.raises(ValueError, match="mixed radicands"):
            call()


def test_poly_at_matches_sympy():
    rng = random.Random(25)
    for t in range(15):
        n = FIELDS[t % len(FIELDS)]
        size = rng.randrange(1, 5)
        C = _mixed(rng, [[_entry(rng, n) for _ in range(size)]
                         for _ in range(size)])
        poly = [_entry(rng, n) for _ in range(rng.randrange(1, 5))]
        power = rng.randrange(1, 3)
        D = _dm(C, n)
        K = _field(n)
        F = DomainMatrix.zeros((size, size), K)
        for c in poly[::-1]:
            F = F * D + DomainMatrix.eye(size, K) * _element(c, K)
        want = F
        for _ in range(power - 1):
            want = want * F
        got = poly_at(C, poly, power)
        assert got == _from_dm(want, n)
        types = {type(x) for row in C for x in row} | set(map(type, poly))
        want_type = QuadraticNumber if QuadraticNumber in types else \
            int if types == {int} else Fraction
        assert {type(x) for row in got for x in row} == {want_type}
    ints = [[1, 2], [3, 4]]
    assert poly_at(ints, [1, 0, 1]) == [[8, 10], [15, 23]]
    assert all(type(x) is int for row in poly_at(ints, [1, 0, 1])
               for x in row)


def test_radical_vector_dot_matches_radical_sums():
    # the term-by-term RadicalSum loop is the reference
    rng = random.Random(26)
    for _ in range(40):
        size = rng.randrange(1, 7)
        x, y = ([_entry(rng, rng.choice((3, 5, 33))) for _ in range(size)]
                for _ in range(2))
        weights = [rng.randrange(-4, 5) for _ in range(size)]
        want = RadicalSum()
        for a, b, w in zip(x, y, weights):
            a, b = (RadicalSum.from_quadratic(
                v if type(v) is QuadraticNumber else QuadraticNumber(v))
                for v in (a, b))
            want = want + (a * b).scale(w)
        got = RadicalVector(x, weights).dot(RadicalVector(y))
        assert got.terms == want.terms
