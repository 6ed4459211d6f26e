"""Exact arithmetic in Q and real quadratic fields, plus exact linear
algebra over such fields.

A QuadraticNumber is a + b*sqrt(n) with rational a, b and squarefree n > 0;
b = 0 encodes a rational (normalized to n = 1).  Arithmetic mixing two
different irrational radicands is refused, except inside RadicalSum, the
accumulator used by orthogonality checks where cross products like
sqrt(3)*sqrt(33) = 3*sqrt(11) genuinely occur.

The linear algebra (mat_mul, rref and what is built on it) has one integer
kernel, and the entry type selects the path.  A matrix whose entries are
all ints and Fractions is scaled to integer rows: products are integer dot
products over one common denominator, and elimination is fraction-free on
primitive integer rows, with Fractions made only for the results.  Any
other entries, QuadraticNumbers in particular, go through the generic
loops.  Both paths return the same values.
"""

import math
import operator
from fractions import Fraction


def squarefree_part(m):
    """(s, k) with m = s * k^2 and s squarefree, for m > 0."""
    if m <= 0:
        raise ValueError("radicand must be positive")
    s, k, d = m, 1, 2
    while d * d <= s:
        while s % (d * d) == 0:
            s //= d * d
            k *= d
        d += 1
    return s, k


class QuadraticNumber:
    __slots__ = ("a", "b", "n")

    def __init__(self, a, b=0, n=1):
        a, b = Fraction(a), Fraction(b)
        if n <= 0:
            raise ValueError("radicand must be positive")
        if b and n != 1:
            s, k = squarefree_part(n)
            if s == 1:
                a, b, n = a + b * k, Fraction(0), 1
            else:
                b, n = b * k, s
        if b == 0:
            n = 1
        self.a, self.b, self.n = a, b, n

    @classmethod
    def rational(cls, q):
        return cls(q, 0, 1)

    def is_rational(self):
        return self.b == 0

    def as_fraction(self):
        if self.b:
            raise ValueError(f"{self} is irrational")
        return self.a

    def conjugate(self):
        return QuadraticNumber(self.a, -self.b, self.n)

    def _coerce(self, other):
        if isinstance(other, QuadraticNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticNumber(other)
        return None

    def _join(self, other):
        if self.b and other.b and self.n != other.n:
            raise ValueError(
                f"mixed radicands sqrt({self.n}) and sqrt({other.n})")
        return self.n if self.b else other.n

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = self._join(other)
        return QuadraticNumber(self.a + other.a, self.b + other.b, n)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticNumber(-self.a, -self.b, self.n)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = self._join(other)
        return QuadraticNumber(
            self.a * other.a + self.b * other.b * n,
            self.a * other.b + self.b * other.a, n)

    __rmul__ = __mul__

    def inverse(self):
        denom = self.a * self.a - self.b * self.b * self.n
        if denom == 0:
            raise ZeroDivisionError("zero or non-field element")
        return QuadraticNumber(self.a / denom, -self.b / denom, self.n)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self.a, self.b, self.n) == (other.a, other.b, other.n)

    def __hash__(self):
        return hash((self.a, self.b, self.n))

    def __bool__(self):
        return bool(self.a or self.b)

    def is_positive(self):
        """Sign under the real embedding with sqrt(n) > 0."""
        if self.b == 0:
            return self.a > 0
        if self.a == 0:
            return self.b > 0
        if self.a > 0 and self.b > 0:
            return True
        if self.a < 0 and self.b < 0:
            return False
        # a and b have opposite signs: compare a^2 with b^2 n
        if self.a > 0:
            return self.a * self.a > self.b * self.b * self.n
        return self.a * self.a < self.b * self.b * self.n

    def is_algebraic_integer(self):
        a, b, n = self.a, self.b, self.n
        if b == 0:
            return a.denominator == 1
        if a.denominator == 1 and b.denominator == 1:
            return True
        if n % 4 == 1:
            # ring of integers is Z[(1+sqrt(n))/2]
            ta, tb = 2 * a, 2 * b
            return (ta.denominator == 1 and tb.denominator == 1
                    and (ta.numerator - tb.numerator) % 2 == 0)
        return False

    def __repr__(self):
        if self.b == 0:
            return str(self.a)
        bs = "" if self.b == 1 else ("-" if self.b == -1 else f"{self.b}")
        rad = f"{bs}r{self.n}"
        if self.a == 0:
            return rad
        sign = "+" if self.b > 0 else ""
        return f"{self.a}{sign}{rad}" if not rad.startswith("-") or self.b < 0 \
            else f"{self.a}+{rad}"

    # JSON form: [a_num, a_den, b_num, b_den, n]
    def to_json(self):
        return [self.a.numerator, self.a.denominator,
                self.b.numerator, self.b.denominator, self.n]

    @classmethod
    def from_json(cls, data):
        an, ad, bn, bd, n = data
        return cls(Fraction(an, ad), Fraction(bn, bd), n)


class RadicalSum:
    """Sum of rational multiples of sqrt(d) over squarefree d >= 1."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for d, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[d] = self.terms.get(d, Fraction(0)) + c
            self.terms = {d: c for d, c in self.terms.items() if c}

    @classmethod
    def from_quadratic(cls, x):
        t = {}
        if x.a:
            t[1] = x.a
        if x.b:
            t[x.n] = x.b
        return cls(t)

    def __add__(self, other):
        out = dict(self.terms)
        for d, c in other.terms.items():
            out[d] = out.get(d, Fraction(0)) + c
        return RadicalSum(out)

    def __mul__(self, other):
        out = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                s, k = squarefree_part(d1 * d2)
                out[s] = out.get(s, Fraction(0)) + c1 * c2 * k
        return RadicalSum(out)

    def scale(self, q):
        return RadicalSum({d: c * q for d, c in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def rational_value(self):
        if set(self.terms) - {1}:
            raise ValueError(f"not rational: {self.terms}")
        return self.terms.get(1, Fraction(0))

    def __repr__(self):
        return f"RadicalSum({self.terms})"


# ---------------------------------------------------------------------------
# Exact linear algebra over Fraction or QuadraticNumber entries.
# Matrices are lists of lists (row-major); row vectors act on the left.

_RATIONAL = frozenset((int, Fraction))


def _zero_like(x):
    return x - x


def _is_rational(*mats):
    return all(type(x) in _RATIONAL for M in mats for row in M for x in row)


def _int_rows(M):
    """(rows, den): integer rows with M = rows / den, one den for all."""
    den = math.lcm(*{x.denominator for row in M for x in row})
    return [[x.numerator * (den // x.denominator) for x in row]
            for row in M], den


def mat_mul(A, B):
    """A . B.  Rational operands multiply as integer rows over one common
    denominator each; an entry is an int exactly when its row of A and its
    column of B hold only ints, as in the generic loop."""
    if _is_rational(A, B):
        return _mat_mul_rational(A, B)
    rows, inner, cols = len(A), len(B), len(B[0])
    out = []
    for i in range(rows):
        row = []
        ai = A[i]
        for j in range(cols):
            acc = ai[0] * B[0][j]
            for k in range(1, inner):
                acc = acc + ai[k] * B[k][j]
            row.append(acc)
        out.append(row)
    return out


def _mat_mul_rational(A, B):
    Ai, da = _int_rows(A)
    Bi, db = _int_rows(B)
    cols = list(zip(*Bi))
    prods = [[sum(map(operator.mul, row, col)) for col in cols]
             for row in Ai]
    den = da * db
    int_rows = [all(type(x) is int for x in row) for row in A]
    int_cols = [all(type(x) is int for x in col) for col in zip(*B)]
    if all(int_rows) and all(int_cols):
        return prods
    return [[s // den if ri and cj else Fraction(s, den)
             for s, cj in zip(row, int_cols)]
            for row, ri in zip(prods, int_rows)]


def mat_from_int(M):
    return [[Fraction(c) for c in row] for row in M]


def rref(M):
    """Reduced row echelon form; returns (rows, pivot column list).

    All rows come back, the zero rows after the pivot rows.  Rational
    input is eliminated fraction-free (_rref_int) and returns Fractions."""
    if M and _is_rational(M):
        return _rref_int(M)
    M = [list(r) for r in M]
    if not M:
        return M, []
    ncols = len(M[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(M)):
            if M[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = 1 / M[r][c] if not hasattr(M[r][c], "inverse") \
            else M[r][c].inverse()
        M[r] = [x * inv for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == len(M):
            break
    return M, pivots


def _rref_int(M):
    """Fraction-free Gauss-Jordan on primitive integer rows.

    A row is reduced by cross-multiplying with the pivot row, so entries
    stay integers (the idea of Bareiss, Math. Comp. 22, 1968); their growth
    is kept down by dividing each new row by its content rather than by
    Bareiss's exact division by the previous pivot.  Pivot rows become
    Fractions only at the end.  The reduced row echelon form is unique, so
    this is the generic loop's answer."""
    rows = [_primitive(row) for row in _int_rows(M)[0]]
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                g = math.gcd(p, f)
                a, b = p // g, f // g
                rows[i] = _primitive(
                    [a * x - b * y for x, y in zip(rows[i], prow)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = [[Fraction(x, rows[i][c]) for x in rows[i]]
           for i, c in enumerate(pivots)]
    out += [[Fraction(0)] * ncols for _ in range(nrows - r)]
    return out, pivots


def _primitive(row):
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def right_nullspace(M):
    """Basis of column vectors v with M v = 0, echelonized, as row lists."""
    if not M:
        return []
    R, pivots = rref(M)
    ncols = len(M[0])
    free = [c for c in range(ncols) if c not in pivots]
    zero = _zero_like(R[0][0])
    one = zero + 1
    basis = []
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for r, c in enumerate(pivots):
            v[c] = zero - R[r][f]
        basis.append(v)
    return basis


def left_nullspace(M):
    """Basis of row vectors v with v M = 0."""
    if not M:
        return []
    T = [[M[i][j] for i in range(len(M))] for j in range(len(M[0]))]
    return right_nullspace(T)


def _solve_rows(B, V):
    """(X, pivots of B) with X . B = V, or (None, pivots) when some row of
    V is outside the row space of B.

    One elimination of [B | I] gives B's pivot columns P and E with
    E . B = rref(B); the first rank(B) rows of E invert B[:, P], so
    X = V[:, P] . E[:rank], checked by multiplying back."""
    n, k = len(B[0]), len(B)
    zero = _zero_like(B[0][0])
    one = zero + 1
    aug = [list(row) + [one if t == i else zero for t in range(k)]
           for i, row in enumerate(B)]
    R, pivots = rref(aug)
    pivots = [c for c in pivots if c < n]
    if not pivots:
        X = [[zero] * k for _ in V]
        ok = all(x == 0 for v in V for x in v)
    else:
        E = [R[t][n:] for t in range(len(pivots))]
        X = mat_mul([[v[c] for c in pivots] for v in V], E)
        ok = mat_mul(X, B) == [list(v) for v in V]
    return (X if ok else None), pivots


def express_in_rows(B, v):
    """Coefficients x with x . B = v, or None when v is outside the span."""
    X, _ = _solve_rows(B, [v])
    return None if X is None else X[0]


def solve_action(B, M):
    """C with C . B = B . M; the action of M restricted to the row space B.

    B must have full row rank (every caller passes a basis).  It is
    eliminated once: with P its pivot columns, C = (B M)[:, P] . B[:, P]^-1,
    and C . B = B . M is checked.  Raises ValueError when the row space is
    not M-invariant.
    """
    C, pivots = _solve_rows(B, mat_mul(B, M))
    if len(pivots) != len(B):
        raise AssertionError("solve_action needs a basis of full row rank")
    if C is None:
        raise ValueError("row space is not invariant under the action")
    return C


def mat_trace(M):
    t = M[0][0]
    for i in range(1, len(M)):
        t = t + M[i][i]
    return t
