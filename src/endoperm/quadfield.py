"""Exact arithmetic in Q and real quadratic fields, plus exact linear
algebra over such fields.

A QuadraticNumber is a + b*sqrt(n) with rational a, b and squarefree n > 0;
b = 0 encodes a rational (normalized to n = 1).  Arithmetic mixing two
different irrational radicands is refused.  Sums of radicals, where cross
products like sqrt(3)*sqrt(33) = 3*sqrt(11) genuinely occur, have one
form: RadicalVector holds a vector of such numbers as one integer vector
per radicand, and its dot() returns the weighted sum of products as a
plain dict {squarefree radicand: Fraction coefficient} with no zero
coefficients, so {} is zero and {1: q} is the rational q.

The linear algebra works on integer matrices given as lists of rows of
Python ints and makes no entries; it has one kernel on integer pairs.  A
matrix over Q(sqrt(n)) is a pair of integer matrices (A, B) standing for
A + B sqrt(n), B None when it is rational; a matrix with a denominator is
its integer numerator, and the caller carries the denominator.  A product
is four integer products, two when an operand is rational (int_product,
_pair_product); int_product multiplies in numpy int64 when a bound on
the operands rules out overflow, and in Python ints otherwise, so its
result is exact either way.  Elimination
(_eliminate) is fraction-free Gauss-Jordan on primitive pair rows, each
pivot row multiplied by its pivot's conjugate so that every pivot is a
rational integer.  The entry points built on it: left_kernel spans a
left kernel by primitive integer rows, poly_kernel that of f(X / L) for
a polynomial f over Q or one Q(sqrt(n)), RowSolver eliminates a basis
once to solve X . B = V and to restrict actions to its row space, and
pivot_columns lists the pivots of an integer matrix.  Only poly_kernel's
coefficients are ever converted from QuadraticNumbers and Fractions; two
irrational radicands among them raise ValueError.
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
# Exact linear algebra over Q(sqrt(n)) on integers.  A matrix over
# Q(sqrt(n)) is a pair of integer matrices (A, B) standing for
# A + B sqrt(n), B None when it is rational; a kernel row is an integer
# pair row a + b (concatenated when n != 1) standing for a + b sqrt(n),
# primitive, since a row space does not change when a row is scaled.
# Matrices are lists of rows of Python ints; row vectors act on the left.

def int_product(X, Y):
    """X . Y for integer matrices: in numpy int64 when
    max|X| max|Y| len(Y) < 2^63 bounds every partial sum, else (and for
    an empty shape) in Python ints."""
    if X and Y and Y[0]:
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


def _pair_product(A1, B1, A2, B2, n):
    """(P, Q) with (A1 + B1 r)(A2 + B2 r) = P + Q r for r = sqrt(n); a B
    that is None is zero, and Q is None when both are."""
    if B1 is None and B2 is None:
        return int_product(A1, A2), None
    if B1 is None:
        return int_product(A1, A2), int_product(A1, B2)
    if B2 is None:
        return int_product(A1, A2), int_product(B1, A2)
    # the four products as two of twice the length:
    # [A1 | B1] against [A2 ; n B2] and against [B2 ; A2]
    left = [a + b for a, b in zip(A1, B1)]
    nB2 = [[n * x for x in row] for row in B2]
    return int_product(left, A2 + nB2), int_product(left, B2 + A2)


def _pair_row(f):
    """(a, b, n): the integer rows with f = (a + b sqrt(n)) / den for one
    den > 0, for a row f of ints, Fractions and QuadraticNumbers over Q
    or one Q(sqrt(n)); b is None when f is rational.  Raises ValueError
    when f holds two irrational radicands."""
    ns = sorted({x.n for x in f if type(x) is QuadraticNumber} - {1})
    if len(ns) > 1:
        raise ValueError(f"mixed radicands sqrt({ns[0]}) and sqrt({ns[1]})")
    ra = [x.a if type(x) is QuadraticNumber else x for x in f]
    rb = [x.b if type(x) is QuadraticNumber else 0 for x in f] \
        if ns else []
    den = math.lcm(*(x.denominator for x in ra + rb))
    a, b = ([x.numerator * (den // x.denominator) for x in row]
            for row in (ra, rb))
    return a, b or None, ns[0] if ns else 1


def _horner(A, d, ga, gb, n):
    """(P, Q): P + Q sqrt(n) = sum_k g_k d^(deg - k) A^k for an integer
    matrix A, with g = ga + gb sqrt(n) an integer pair row (a polynomial's
    coefficients times a common denominator, constant first, gb None
    when g is rational).  For C = A / d that is d^deg g(C).  Q is None
    when n = 1."""
    gb = gb or [0] * len(ga)
    size, deg = len(A), len(ga) - 1

    def scalar(k):
        s = d ** (deg - k)
        return ga[k] * s, gb[k] * s

    a, b = scalar(deg)
    P = [[a if i == j else 0 for j in range(size)] for i in range(size)]
    Q = [[b if i == j else 0 for j in range(size)] for i in range(size)] \
        if n != 1 else None
    for k in range(deg - 1, -1, -1):
        P, Q = _pair_product(P, Q, A, None, n)
        a, b = scalar(k)
        for i in range(size):
            P[i][i] += a
            if Q is not None:
                Q[i][i] += b
    return P, Q


def _eliminate(rows, w, n):
    """Fraction-free Gauss-Jordan on integer pair rows; (rows, pivots).

    A row is the list a + b (b omitted when n = 1) of the row a + b sqrt(n)
    of width w, up to a rational factor, and it is kept primitive (divided
    by its content).  A pivot row is first multiplied by its pivot's
    conjugate, so the pivot is the rational integer a^2 - n b^2; every
    other row with an entry f in the pivot column becomes pivot * row -
    f * pivot row, which keeps entries integral (the idea of Bareiss,
    Math. Comp. 22, 1968, with content division in place of Bareiss's
    exact division).  Pivot row t ends with the rational integer
    rows[t][pivots[t]] at its pivot; the reduced row echelon form is
    unique, so these are its rows up to that factor."""
    quad = n != 1
    rows = [primitive(row) for row in rows]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(w):
        cb = c + w
        pr = next((i for i in range(r, nrows)
                   if rows[i][c] or quad and rows[i][cb]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        if quad and prow[cb]:
            pa, pb = prow[c], prow[cb]
            ra, rb = prow[:w], prow[w:]
            prow = rows[r] = primitive(
                [pa * x - n * pb * y for x, y in zip(ra, rb)]
                + [pa * y - pb * x for x, y in zip(ra, rb)])
        p = prow[c]
        ra_p, rb_p = prow[:w], prow[w:]
        for i in range(nrows):
            row = rows[i]
            fa = row[c]
            fb = row[cb] if quad else 0
            if i == r or not (fa or fb):
                continue
            g = math.gcd(p, fa, fb)
            s, fa, fb = p // g, fa // g, fb // g
            if fb:
                nfb = n * fb
                row = ([s * x - fa * y - nfb * z
                        for x, y, z in zip(row[:w], ra_p, rb_p)]
                       + [s * x - fa * z - fb * y
                          for x, y, z in zip(row[w:], ra_p, rb_p)])
            else:
                row = [s * x - fa * y for x, y in zip(row, prow)]
            rows[i] = primitive(row)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def primitive(row):
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _null_vectors(rows, pivots, w, n):
    """(v, s) for each non-pivot column f of rows eliminated by
    _eliminate: v is the integer pair row (a + b when n != 1) of the null
    vector that is s at f and 0 at the other non-pivot columns, s the lcm
    of the pivots it divides by.  Divided by s, these are the echelonized
    basis of the right nullspace."""
    quad = n != 1
    free = set(range(w)) - set(pivots)
    for f in sorted(free):
        s = math.lcm(*(rows[t][c] for t, c in enumerate(pivots)
                       if rows[t][f] or quad and rows[t][f + w]))
        v = [0] * (2 * w if quad else w)
        v[f] = s
        for t, c in enumerate(pivots):
            row, q = rows[t], s // rows[t][c]
            v[c] = -row[f] * q
            if quad:
                v[c + w] = -row[f + w] * q
        yield v, s


class RowSolver:
    """B = a + b sqrt(n) eliminated once, to solve X . B = V for any
    number of V.

    One elimination of [B | I] gives B's pivot columns P and E with
    E . B the reduced row echelon form of B; the first rank(B) rows of E
    invert B[:, P], so X = V[:, P] . E[:rank], checked by multiplying
    back, all on integers.
    a and b are integer matrices, b None for a rational B."""

    def __init__(self, a, b=None, n=1):
        self.a, self.b, self.n = a, b, n
        w, k = len(a[0]), len(a)
        self.k = k
        # [B | I] as integer pair rows
        eye = [[int(t == i) for t in range(k)] for i in range(k)]
        if b is None:
            aug = [ra + e for ra, e in zip(a, eye)]
        else:
            aug = [ra + e + rb + [0] * k for ra, e, rb in zip(a, eye, b)]
        rows, pivots = _eliminate(aug, w + k, n)
        self.pivots = pivots = [c for c in pivots if c < w]
        # E[:rank] = (Ea + Eb sqrt(n)) / L over L = lcm of the pivots
        self.L = math.lcm(*(rows[t][c] for t, c in enumerate(pivots)))
        self.Ea, self.Eb = [], None if b is None else []
        for t, c in enumerate(pivots):
            row, s = rows[t], self.L // rows[t][c]
            self.Ea.append([s * x for x in row[w:w + k]])
            if b is not None:
                self.Eb.append([s * x for x in row[2 * w + k:]])

    def solve(self, va, vb, n):
        """(Xa, Xb) with (Xa + Xb r)(a + b r) = L (va + vb r) for
        r = sqrt(n): for V = (va + vb r) / dv, X = (Xa + Xb r) / (dv L)
        solves X . B = V.  None when some row of V is outside the row
        space of B."""
        pivots = self.pivots
        if not pivots:
            ok = not any(map(any, va)) and not (vb and any(map(any, vb)))
            return ([[0] * self.k for _ in va], None) if ok else None
        Xa, Xb = _pair_product([[row[c] for c in pivots] for row in va],
                               vb and [[row[c] for c in pivots]
                                       for row in vb],
                               self.Ea, self.Eb, n)
        Pa, Pb = _pair_product(Xa, Xb, self.a, self.b, n)
        if not (_equal_scaled(Pa, va, self.L)
                and _equal_scaled(Pb, vb, self.L)):
            return None
        return Xa, Xb

    def act(self, M):
        """[(Xa, Xb) for each M_j] for the integer matrices M_j set side by
        side in M = [M_1 | M_2 | ...]: X_j = Xa + Xb sqrt(n) has
        X_j . B = L B . M_j, so X_j / L is M_j restricted to the row space
        of B (Xb is None when B is rational).  One product forms
        every B M_j and one solve finds every X_j.  Raises ValueError when
        the row space is not invariant under some M_j."""
        w, k = len(self.a[0]), self.k
        va, vb = _pair_product(self.a, self.b, M, None, self.n)
        blocks = range(0, len(M[0]), w)

        def stacked(V):
            return V and [row[s:s + w] for s in blocks for row in V]

        X = self.solve(stacked(va), stacked(vb), self.n)
        if X is None:
            raise ValueError("row space is not invariant under the action")
        Xa, Xb = X
        return [(Xa[t:t + k], Xb and Xb[t:t + k])
                for t in range(0, len(Xa), k)]


def _equal_scaled(P, V, s):
    """P == s V for integer matrices, None standing for zero."""
    if V is None:
        return P is None or not any(map(any, P))
    if P is None:
        return not any(map(any, V))
    return P == [[s * x for x in row] for row in V]


def left_kernel(A, B=None, n=1):
    """Primitive integer pair rows spanning {v : v (A + B sqrt(n)) = 0}."""
    k = len(A)
    cols = zip(*A) if B is None else (a + b for a, b in zip(zip(*A),
                                                             zip(*B)))
    # zero and repeated columns do not change the kernel
    rows = [list(col) for col in dict.fromkeys(cols) if any(col)]
    rows, pivots = _eliminate(rows, k, n)
    return [primitive(v) for v, _ in _null_vectors(rows, pivots, k, n)]


def poly_kernel(X, L, f):
    """(K, n): K the primitive integer pair rows spanning the left kernel
    of f(X / L), for an integer matrix X, an integer L > 0 and a
    polynomial f (constant first) over Q or one Q(sqrt(n)).  Only the
    integer numerator sum_k g_k L^(deg - k) X^k of f(X / L) is formed."""
    ga, gb, n = _pair_row(f)
    return left_kernel(*_horner(X, L, ga, gb, n), n), n


def pivot_columns(M):
    """The pivot columns of an integer matrix, each the first column
    independent of the columns before it."""
    return _eliminate([list(row) for row in M], len(M[0]), 1)[1]
