"""Exact arithmetic in Q and real quadratic fields, and exact linear
algebra over Q.

A QuadraticNumber is a + b*sqrt(n) with rational a, b and squarefree n > 0,
stored on integers as (an + bn*sqrt(n)) / den with den > 0 and
gcd(an, bn, den) = 1 (Cohen, A Course in Computational Algebraic Number
Theory, 1993, 4.2); bn = 0 encodes a rational (normalized to n = 1).  The
form is canonical, so == compares integers; a and b are Fraction views.
Arithmetic mixing two different irrational radicands is refused.  Sums of
radicals, where cross products like sqrt(3)*sqrt(33) = 3*sqrt(11)
genuinely occur, have one form: RadicalVector holds a vector of such
numbers as one integer vector per radicand over one denominator, and its
dot() returns the weighted sum of products as a plain dict {squarefree
radicand: Fraction coefficient} with no zero coefficients, so {} is zero
and {1: q} is the rational q.

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
    """(an + bn sqrt(n)) / den = a + b sqrt(n), as the module docstring
    describes."""

    __slots__ = ("an", "bn", "den", "n")

    def __init__(self, a, b=0, n=1):
        a, b = Fraction(a), Fraction(b)
        x = QuadraticNumber.from_json(
            [a.numerator, a.denominator, b.numerator, b.denominator, n])
        self.an, self.bn, self.den, self.n = x.an, x.bn, x.den, x.n

    @property
    def a(self):
        return Fraction(self.an, self.den)

    @property
    def b(self):
        return Fraction(self.bn, self.den)

    def conjugate(self):
        return _number(self.an, -self.bn, self.den, self.n)

    def _coerce(self, other):
        if isinstance(other, QuadraticNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return _number(other.numerator, 0, other.denominator, 1)
        return None

    def _join(self, other):
        if self.bn and other.bn and self.n != other.n:
            raise ValueError(
                f"mixed radicands sqrt({self.n}) and sqrt({other.n})")
        return self.n if self.bn else other.n

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d, e = self.den, other.den
        return _number(self.an * e + other.an * d, self.bn * e + other.bn * d,
                       d * e, self._join(other))

    __radd__ = __add__

    def __neg__(self):
        return _number(-self.an, -self.bn, self.den, self.n)

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
        a, b, c, d = self.an, self.bn, other.an, other.bn
        return _number(a * c + b * d * n, a * d + b * c, self.den * other.den,
                       n)

    __rmul__ = __mul__

    def inverse(self):
        # den / (an + bn sqrt(n)) = den (an - bn sqrt(n)) / (an^2 - bn^2 n)
        norm = self.an * self.an - self.bn * self.bn * self.n
        if norm == 0:
            raise ZeroDivisionError("zero or non-field element")
        return _number(self.den * self.an, -self.den * self.bn, norm, self.n)

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
        return (self.an == other.an and self.bn == other.bn
                and self.den == other.den and self.n == other.n)

    def __hash__(self):
        return hash((self.a, self.b, self.n))

    def __bool__(self):
        return bool(self.an or self.bn)

    def is_algebraic_integer(self):
        if self.den == 1:
            return True
        # for n = 1 mod 4 the ring of integers is Z[(1 + sqrt(n)) / 2]:
        # the halves with an and bn both odd
        return (self.den == 2 and self.n % 4 == 1
                and (self.an - self.bn) % 2 == 0)

    def __repr__(self):
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        bs = "" if b == 1 else ("-" if b == -1 else f"{b}")
        rad = f"{bs}r{self.n}"
        if a == 0:
            return rad
        sign = "+" if b > 0 else ""
        return f"{a}{sign}{rad}" if not rad.startswith("-") or b < 0 \
            else f"{a}+{rad}"

    # JSON form: [a_num, a_den, b_num, b_den, n]
    def to_json(self):
        ga, gb = math.gcd(self.an, self.den), math.gcd(self.bn, self.den)
        return [self.an // ga, self.den // ga, self.bn // gb,
                self.den // gb, self.n]

    @classmethod
    def from_json(cls, data):
        """The number [a_num, a_den, b_num, b_den, n] in the integer form:
        n is reduced to its squarefree part, and a square n is absorbed
        into a."""
        an, ad, bn, bd, n = data
        if not ad * bd:
            raise ZeroDivisionError(f"zero denominator in {data}")
        if n <= 0:
            raise ValueError("radicand must be positive")
        k = 1
        if bn:
            n, k = squarefree_part(n)
        an, bn = an * bd, bn * k * ad
        if n == 1:
            an, bn = an + bn, 0
        return _number(an, bn, ad * bd, n)


def _number(an, bn, den, n):
    """The QuadraticNumber (an + bn sqrt(n)) / den, for integers with
    den != 0 and n squarefree (n = 1 when bn = 0)."""
    g = math.gcd(an, bn, den)
    if den < 0:
        g = -g
    if g != 1:
        an, bn, den = an // g, bn // g, den // g
    x = object.__new__(QuadraticNumber)
    x.an, x.bn, x.den, x.n = an, bn, den, (n if bn else 1)
    return x


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
        dens = [x.den if type(x) is QuadraticNumber else x.denominator
                for x in values]
        self.den = den = math.lcm(*dens)
        if weights is None:
            weights = [1] * len(values)
        rational = []
        self.parts = {1: rational}
        for j, (x, d, w) in enumerate(zip(values, dens, weights)):
            f = den // d * w
            if type(x) is not QuadraticNumber:
                rational.append(x.numerator * f)
                continue
            rational.append(x.an * f)
            if x.bn:
                self.parts.setdefault(x.n, [0] * len(values))[j] = x.bn * f

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
