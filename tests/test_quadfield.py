import random
from fractions import Fraction

import pytest
import sympy

from endoperm.quadfield import (QuadraticNumber, RadicalSum,
                                express_in_rows, left_nullspace, mat_mul,
                                right_nullspace, rref, solve_action,
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


def test_is_positive_embedding():
    assert QuadraticNumber(-1, 1, 5).is_positive()
    assert QuadraticNumber(3, -1, 5).is_positive()
    assert not QuadraticNumber(2, -1, 5).is_positive()
    assert not QuadraticNumber(0, -1, 2).is_positive()


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
    # the same rational matrices as QuadraticNumber entries take the
    # generic loop; both paths must give equal answers
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
