"""Exact arithmetic in Q and real quadratic fields, and exact linear
algebra over Q.

A QuadraticNumber is a + b*sqrt(n) with rational a, b and squarefree n > 0;
b = 0 encodes a rational (normalized to n = 1).  Arithmetic mixing two
different irrational radicands is refused.  Sums of radicals, where cross
products like sqrt(3)*sqrt(33) = 3*sqrt(11) genuinely occur, have one
form: RadicalVector holds a vector of such numbers as one integer vector
per radicand, and its dot() returns the weighted sum of products as a
plain dict {squarefree radicand: Fraction coefficient} with no zero
coefficients, so {} is zero and {1: q} is the rational q.

The linear algebra works on integer matrices given as lists of rows of
Python ints; a matrix with a denominator is its integer numerator, and
the caller carries the denominator.  No matrix has irrational entries: a
quadratic character value is read off rational traces (splitchar), or
off a rational span (oracle).  int_product multiplies in numpy int64
when the product is large and a bound on the operands rules out
overflow, and in Python ints otherwise, so its result is exact either
way.  Elimination (_eliminate) is fraction-free Gauss-Jordan on
primitive rows.  The entry points built on it: left_kernel spans a left
kernel by primitive integer rows, poly_kernel that of f(X / L) for an
integer polynomial f, RowSolver eliminates a basis once to solve
X . B = V and to restrict actions to its row space, and pivot_columns
lists the pivots of an integer matrix.
"""

import math
import operator
from fractions import Fraction

import numpy as np


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
        if b:
            s, k = squarefree_part(n)
            if s == 1:
                a, b, n = a + b * k, Fraction(0), 1
            else:
                b, n = b * k, s
        if b == 0:
            n = 1
        self.a, self.b, self.n = a, b, n

    @classmethod
    def _unchecked(cls, a, b, n):
        """a + b sqrt(n) from Fractions a, b and a squarefree n, with no
        normalization but n = 1 for b = 0."""
        x = object.__new__(cls)
        x.a, x.b, x.n = a, b, (n if b else 1)
        return x

    def is_rational(self):
        return self.b == 0

    def as_fraction(self):
        if self.b:
            raise ValueError(f"{self} is irrational")
        return self.a

    def conjugate(self):
        return QuadraticNumber._unchecked(self.a, -self.b, self.n)

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
        return QuadraticNumber._unchecked(self.a + other.a, self.b + other.b,
                                          n)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticNumber._unchecked(-self.a, -self.b, self.n)

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
        return QuadraticNumber._unchecked(
            self.a * other.a + self.b * other.b * n,
            self.a * other.b + self.b * other.a, n)

    __rmul__ = __mul__

    def inverse(self):
        denom = self.a * self.a - self.b * self.b * self.n
        if denom == 0:
            raise ZeroDivisionError("zero or non-field element")
        return QuadraticNumber._unchecked(self.a / denom, -self.b / denom,
                                          self.n)

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


# ---------------------------------------------------------------------------
# Orthogonality sums over vectors of quadratic numbers

class RadicalVector:
    """A vector of rationals and QuadraticNumbers, of any radicands, as
    integer vectors: it is the sum over s of parts[s] * sqrt(s) / den.

    dot() multiplies the parts pairwise, so a weighted sum of products
    costs one integer dot product per pair of radicands (four for two rows
    over Q(sqrt(n))) and one division per radicand at the end."""

    __slots__ = ("parts", "den")

    def __init__(self, values, weights=None):
        cols = {1: [x.a if type(x) is QuadraticNumber else x
                    for x in values]}
        for j, x in enumerate(values):
            if type(x) is QuadraticNumber and x.b:
                cols.setdefault(x.n, [0] * len(values))[j] = x.b
        self.den = math.lcm(*{x.denominator for col in cols.values()
                              for x in col})
        if weights is None:
            weights = [1] * len(values)
        self.parts = {
            s: [x.numerator * (self.den // x.denominator) * w
                for x, w in zip(col, weights)]
            for s, col in cols.items()}

    def dot(self, other):
        """sum_j self_j * other_j as {squarefree radicand: Fraction
        coefficient}, zero coefficients left out."""
        terms = {}
        for s, x in self.parts.items():
            for t, y in other.parts.items():
                c = sum(map(operator.mul, x, y))
                if c:
                    # s, t squarefree: s t = u g^2 with g = gcd(s, t)
                    g = math.gcd(s, t)
                    u = (s // g) * (t // g)
                    terms[u] = terms.get(u, 0) + c * g
        den = self.den * other.den
        return {u: Fraction(c, den) for u, c in terms.items() if c}


# ---------------------------------------------------------------------------
# Exact linear algebra over Q on integers.  A kernel row is primitive,
# since a row space does not change when a row is scaled.  Matrices are
# lists of rows of Python ints; row vectors act on the left.

# A product of at most this many multiplications stays in Python ints:
# below it, the conversion to numpy costs more than the products.
_NUMPY_PRODUCT = 256


def int_product(X, Y):
    """X . Y for integer matrices: in numpy int64 when it takes more than
    _NUMPY_PRODUCT multiplications and max|X| max|Y| len(Y) < 2^63 bounds
    every partial sum, else (and for an empty shape) in Python ints."""
    if X and Y and len(X) * len(Y) * len(Y[0]) > _NUMPY_PRODUCT:
        try:
            A = np.array(X, dtype=np.int64)
            B = np.array(Y, dtype=np.int64)
        except OverflowError:
            pass
        else:
            # Python ints: -(-2^63) does not wrap
            maxabs = max(int(A.max()), -int(A.min()))
            maxabs *= max(int(B.max()), -int(B.min()))
            if maxabs * len(Y) < 2 ** 63:
                return (A @ B).tolist()
    cols = list(zip(*Y))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in X]


def _horner(A, d, g):
    """sum_k g_k d^(deg - k) A^k for an integer matrix A and an integer
    row g (a polynomial's coefficients, constant first).  For C = A / d
    that is d^deg g(C)."""
    size, deg = len(A), len(g) - 1
    P = [[g[deg] if i == j else 0 for j in range(size)] for i in range(size)]
    for k in range(deg - 1, -1, -1):
        P = int_product(P, A)
        c = g[k] * d ** (deg - k)
        for i in range(size):
            P[i][i] += c
    return P


def _eliminate(rows, w):
    """Fraction-free Gauss-Jordan on the first w columns of integer rows;
    (rows, pivots).

    Every row is kept primitive (divided by its content).  Every row with
    an entry f in the pivot column becomes pivot * row - f * pivot row,
    which keeps entries integral (the idea of Bareiss, Math. Comp. 22,
    1968, with content division in place of Bareiss's exact division).
    The reduced row echelon form is unique, so pivot row t is its row t
    times the integer rows[t][pivots[t]]."""
    rows = [primitive(row) for row in rows]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(w):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(nrows):
            row = rows[i]
            f = row[c]
            if i == r or not f:
                continue
            g = math.gcd(p, f)
            s, f = p // g, f // g
            rows[i] = primitive([s * x - f * y for x, y in zip(row, prow)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def primitive(row):
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


class RowSolver:
    """An integer matrix a eliminated once, to solve X . a = V for any
    number of V.

    One elimination of [a | I] gives a's pivot columns P and E with
    E . a the reduced row echelon form of a; the first rank(a) rows of E
    invert a[:, P], so X = V[:, P] . E[:rank], checked by multiplying
    back, all on integers."""

    def __init__(self, a):
        self.a = a
        w, k = len(a[0]), len(a)
        self.k = k
        rows, pivots = _eliminate(
            [row + [int(t == i) for t in range(k)] for i, row in enumerate(a)],
            w + k)
        self.pivots = pivots = [c for c in pivots if c < w]
        # E[:rank] = E / L over L = lcm of the pivots
        self.L = math.lcm(*(rows[t][c] for t, c in enumerate(pivots)))
        self.E = [[self.L // rows[t][c] * x for x in rows[t][w:]]
                  for t, c in enumerate(pivots)]

    def solve(self, V):
        """X with X . a = L V for an integer matrix V, so that X / L solves
        X . a = V; None when some row of V is outside the row space of
        a."""
        if not self.pivots:
            return None if any(map(any, V)) else [[0] * self.k for _ in V]
        X = int_product([[row[c] for c in self.pivots] for row in V], self.E)
        if int_product(X, self.a) != [[self.L * x for x in row] for row in V]:
            return None
        return X

    def act(self, M):
        """[X_j for each M_j] for the integer matrices M_j set side by side
        in M = [M_1 | M_2 | ...]: X_j . a = L a . M_j, so X_j / L is M_j
        restricted to the row space of a.  One product forms every a M_j
        and one solve finds every X_j.  Raises ValueError when the row
        space is not invariant under some M_j."""
        w, k = len(self.a[0]), self.k
        V = int_product(self.a, M)
        X = self.solve([row[s:s + w] for s in range(0, len(M[0]), w)
                        for row in V])
        if X is None:
            raise ValueError("row space is not invariant under the action")
        return [X[t:t + k] for t in range(0, len(X), k)]


def left_kernel(A):
    """Primitive integer rows spanning {v : v A = 0}, the echelonized
    basis of the kernel up to positive factors."""
    k = len(A)
    # zero and repeated columns do not change the kernel
    rows, pivots = _eliminate(
        [list(col) for col in dict.fromkeys(zip(*A)) if any(col)], k)
    kernel = []
    for f in sorted(set(range(k)) - set(pivots)):
        # the null vector that is s at f and 0 at the other free columns
        s = math.lcm(*(rows[t][c] for t, c in enumerate(pivots)
                       if rows[t][f]))
        v = [0] * k
        v[f] = s
        for t, c in enumerate(pivots):
            v[c] = -rows[t][f] * (s // rows[t][c])
        kernel.append(primitive(v))
    return kernel


def poly_kernel(X, L, f):
    """Primitive integer rows spanning the left kernel of f(X / L), for
    an integer matrix X, an integer L > 0 and an integer polynomial f
    (constant first).  Only the integer numerator
    sum_k f_k L^(deg - k) X^k of f(X / L) is formed."""
    return left_kernel(_horner(X, L, f))


def pivot_columns(M):
    """The pivot columns of an integer matrix, each the first column
    independent of the columns before it."""
    return _eliminate([list(row) for row in M], len(M[0]))[1]
