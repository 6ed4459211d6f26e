"""Exact splitting of the endomorphism ring over Q and real quadratic fields.

The algebra of the intersection matrices is cut into its homogeneous
components by central elements, then each component is split into its
rows (Ronyai, J. Symbolic Comput. 9, 1990; Eberly and Giesbrecht,
J. Symbolic Comput. 29, 2000).  A central element z acts on the
(semisimple) algebra semisimply and has two-sided kernels, so the kernels
ker f(z) of the irreducible factors f of its characteristic polynomial
tile Q^r by sums of components.  One generic central element is tried
first; only when its eigenvalues collide are the pieces refined by the
centre's basis.  Each component yields one Galois orbit of irreducible
characters.  Supported shapes: dimension 1 (rational), 2 (quadratic
conjugate pair), m^2 (rational with multiplicity m), and 2m^2 (quadratic
pair with multiplicity m, read off two rational traces: of each
intersection matrix, and of its product with a central element that is
irrational on the component).  Everything else raises
UnsupportedComponentError.

The arithmetic is exact and carried on integers from the intersection
matrices to the character values: a component basis is primitive integer
rows (a row space does not change when a row is scaled), every kernel
comes back as primitive integer rows, and the action restricted to a
component is an integer matrix over one denominator; no matrix has an
irrational entry.  Only the values of a CharRow are Fractions or
QuadraticNumbers.  Table rows come in one canonical order: by degree,
then by values, as in the brute-force oracle.
"""

import math
from fractions import Fraction

import numpy as np

from . import zpoly
from .quadfield import (QuadraticNumber, RadicalVector, RowSolver,
                        int_product, left_kernel, poly_kernel, primitive,
                        squarefree_part)


class UnsupportedComponentError(ValueError):
    """Component shape outside {1, 2, m^2, 2m^2} or a non-real field."""


class NotACharacterError(ValueError):
    """A row's self-orthogonality sum gives no Fitting degree: it is
    irrational or 0, or the degree is not a positive integer, so the row
    is not a character of the endomorphism ring."""


# ---------------------------------------------------------------------------
# Exact characteristic polynomials (CRT over word-sized primes)

_CRT_PRIMES = None


def _crt_primes():
    global _CRT_PRIMES
    if _CRT_PRIMES is None:
        ps = []
        p = 2 ** 24
        while len(ps) < 120:
            p = zpoly._next_prime(p)
            ps.append(p)
        _CRT_PRIMES = ps
    return _CRT_PRIMES


def _charpoly_mod(A, primes):
    """Faddeev-LeVerrier modulo every p in primes at once, for an n x n
    integer array A (int64 or object): row t of the result holds the
    coefficients 1, c_1, ..., c_n of X^n + c_1 X^(n-1) + ... + c_n modulo
    primes[t].  One (primes, n, n) int64 stack carries all the primes, so
    the loop runs n times.  Requires p > n, so that 1..n are invertible
    mod p, and n p^2 < 2^63, so that a product of residues cannot
    overflow."""
    n = A.shape[0]
    if not all(n < p and n * p * p < 2 ** 63 for p in primes):
        raise AssertionError(
            f"Faddeev-LeVerrier of {n} x {n} matrices mod {max(primes)} "
            "overflows int64 or divides by p")
    ps = np.array(primes, dtype=np.int64)
    mods = ps[:, None, None]
    Ap = (A % mods.astype(A.dtype)).astype(np.int64)
    diag, cols = np.arange(n), np.arange(len(primes))
    # inv[k] = k^-1 mod p, from inv[k] = -(p // k) inv[p mod k] mod p
    inv = np.ones((n + 1, len(primes)), dtype=np.int64)
    coeffs = np.ones((len(primes), n + 1), dtype=np.int64)
    M = np.zeros_like(Ap)
    for k in range(2, n + 1):
        inv[k] = (ps - ps // k) * inv[ps % k, cols] % ps
    for k in range(1, n + 1):
        M[:, diag, diag] += coeffs[:, k - 1, None]
        M = Ap @ (M % mods) % mods
        coeffs[:, k] = (ps - M.trace(axis1=1, axis2=2) % ps) * inv[k] % ps
    return coeffs


def _coefficient_bound(entries):
    """prod_i (2 + isqrt(|row_i|^2)) for an integer matrix: char_poly's
    bound on the coefficients of its characteristic polynomial."""
    return math.prod(2 + math.isqrt(sum(x * x for x in row))
                     for row in entries)


def char_poly(M, L=1):
    """Exact characteristic polynomial of M / L, for a matrix M of
    integers or rationals and an integer L > 0, when that polynomial is
    integral.

    Monic of degree n, constant-first coefficient tuple.  With s the common
    denominator of the entries, the characteristic polynomial of the
    integer matrix X = s M is computed modulo the fewest word-sized primes
    whose product exceeds twice the bound B = prod_i (2 + isqrt(|row_i|^2))
    on its coefficients, in one pass over all of them, and CRT lifted to
    symmetric representatives; its coefficient of X^(n-k) is c_k(X), and
    c_k(M / L) = c_k(X) / (s L)^k.  Raises AssertionError when some
    c_k(M / L) is not an integer.

    The bound: c_k(X) is up to sign the sum of the principal k x k minors,
    each at most the product of its rows' norms (Hadamard), so
    |c_k| <= e_k(|row_1|, ..., |row_n|) <= prod_i (1 + |row_i|) <= B.
    """
    entries = getattr(M, "entries", M)
    n = len(entries)
    if n == 0:
        return (1,)
    s = 1
    if any(type(x) is not int for row in entries for x in row):
        s = math.lcm(*(x.denominator for row in entries for x in row))
        entries = [[int(x * s) for x in row] for row in entries]
    scale = s * L
    bound = 2 * _coefficient_bound(entries)
    primes, modulus = [], 1
    for p in _crt_primes():
        primes.append(p)
        modulus *= p
        if modulus > bound:
            break
    else:
        raise RuntimeError("prime pool exhausted for charpoly CRT")
    maxabs = max(abs(x) for row in entries for x in row)
    ints = np.array(entries, dtype=np.int64 if maxabs < 2 ** 63 else object)
    # the CRT weight of p is 1 mod p and 0 mod the other primes
    weights = [(modulus // p) * pow(modulus // p, -1, p) for p in primes]
    coeffs = []
    for k, res in enumerate(_charpoly_mod(ints, primes).T.tolist()):
        x = sum(r * w for r, w in zip(res, weights)) % modulus
        if x > modulus // 2:
            x -= modulus
        c, rem = divmod(x, scale ** k)
        if rem:
            raise AssertionError(
                "characteristic polynomial is not integral")
        coeffs.append(c)
    # coeffs are [1, c1, ..., cn] for X^n + c1 X^{n-1} + ...; flip order
    poly = tuple(reversed(coeffs))
    if poly[-1] != 1:
        raise AssertionError("characteristic polynomial is not monic")
    return poly


# ---------------------------------------------------------------------------
# Homogeneous components

class HomogeneousComponent:
    """A homogeneous component of the algebra: primitive integer rows of
    Z^r spanning it, stable under every intersection matrix.

    `centre` lists the central elements as coefficient vectors, the
    generic one first, then the centre's basis; `cut` is (z, f), the
    central element and the irreducible factor whose kernel ker f(z) the
    component is.  The basis is eliminated once, in `solver`, which then
    restricts both the central elements that refine the component and the
    intersection matrices that split it."""

    def __init__(self, basis, centre, cut):
        self.basis = basis
        self.dim = len(basis)
        self.centre = centre
        self.cut = cut
        self._solver = None

    @property
    def solver(self):
        if self._solver is None:
            self._solver = RowSolver(self.basis)
        return self._solver

    def __repr__(self):
        return f"HomogeneousComponent(dim={self.dim})"


def _int_entries(P):
    """The entries of an intersection matrix as lists of Python ints."""
    return [[int(x) for x in row] for row in getattr(P, "entries", P)]


def _flat(mats):
    """Each square matrix of mats as one row of its entries."""
    return [[x for row in M for x in row] for M in mats]


def _combination(c, flat):
    """sum_t c[t] M_t as a d x d matrix, for the d x d matrices M_t given
    as the rows of flat: one product."""
    row = int_product([c], flat)[0]
    d = math.isqrt(len(row))
    return [row[i:i + d] for i in range(0, d * d, d)]


def _trace(X):
    return sum(X[i][i] for i in range(len(X)))


def homogeneous_components_center(all_mats, r):
    """Homogeneous components through the centre of the algebra.

    Needs all r intersection matrices, with Python int entries.  The
    centre Z is the left kernel of [P_j[i][k] - P_i[j][k]], as primitive
    integer rows z_1, ..., z_c.  A piece V, a sum of components, is cut
    by a central element z into the kernels ker f(z|V) of the irreducible
    factors f of the characteristic polynomial of z restricted to V, an
    integer matrix X over one denominator L with f(X / L) formed as
    sum_k f_k L^(deg - k) X^k.  z is central, so it acts semisimply and
    ker f(z|V) is already the whole f-primary part of V.

    The generic z = z_1 + 2 z_2 + ... + c z_c cuts Q^r first.  Each
    component's centre is a field, of degree at least deg f on a kernel
    of f(z), so when the degrees of the factors add up to c the kernels
    are the components.  Otherwise a kernel of dimension deg f is a
    component (a field), and the other kernels are refined by z_1, z_2,
    ... in turn, the same two tests closing each round, with c less the
    degrees of the closed components in place of c.
    """
    Ps = [getattr(P, "entries", P) for P in all_mats]
    basis = left_kernel([[Ps[j][i][k] - Ps[i][j][k] for j in range(r)
                          for k in range(r)] for i in range(r)])
    generic = [sum((t + 1) * z[i] for t, z in enumerate(basis))
               for i in range(r)]
    centre = [generic] + basis
    whole = HomogeneousComponent(
        [[int(i == j) for j in range(r)] for i in range(r)], centre, None)
    comps, pending, rank = [], [whole], len(basis)
    flat = _flat(Ps)
    for z in centre:
        Rz = _combination(z, flat)
        pieces = [piece for comp in pending
                  for piece in _primary_pieces(comp, z, Rz)]
        if sum(zpoly.deg(piece.cut[1]) for piece in pieces) == rank:
            comps += pieces
            pending = []
            break
        pending = []
        for piece in pieces:
            e = zpoly.deg(piece.cut[1])
            if piece.dim == e:
                comps.append(piece)
                rank -= e
            else:
                pending.append(piece)
    comps += pending
    total = sum(c.dim for c in comps)
    if total != r:
        raise AssertionError(f"center components cover {total} != {r}")
    return comps


def _primary_pieces(comp, z, Rz):
    """The kernels in comp of f(z) for the irreducible factors f of the
    characteristic polynomial of the central element z on comp; Rz is
    its right multiplication on Q^r."""
    whole = comp.dim == len(Rz)
    if whole:
        X, L = Rz, 1
    else:
        [X] = comp.solver.act(Rz)
        L = comp.solver.L
    _, _, facs = zpoly.factor(char_poly(X, L))
    if len(facs) == 1:
        comp.cut = (z, facs[0][0])
        return [comp]
    pieces = []
    for f, _ in facs:
        K = poly_kernel(X, L, f)
        if not whole:
            K = [primitive(row) for row in int_product(K, comp.basis)]
        pieces.append(HomogeneousComponent(K, comp.centre, (z, f)))
    return pieces


# ---------------------------------------------------------------------------
# Splitting one component into character rows

class CharRow:
    """One irreducible character of the endomorphism ring."""

    def __init__(self, values, mult, degree=None, conj=None, fitting=None,
                 ambiguous=False):
        self.values = list(values)
        self.mult = mult
        self.degree = degree
        self.conj = conj
        self.fitting = fitting
        self.ambiguous = ambiguous

    @property
    def field(self):
        for v in self.values:
            if v.b:
                return v.n
        return 1

    def conjugate_values(self):
        return [v.conjugate() for v in self.values]

    def to_json(self):
        return {
            "values": [v.to_json() for v in self.values],
            "mult": self.mult,
            "degree": self.degree,
            "conjugate_of": self.conj,
            "fitting": self.fitting,
            "ambiguous": self.ambiguous,
        }

    @classmethod
    def from_json(cls, data):
        return cls([QuadraticNumber.from_json(v) for v in data["values"]],
                   data["mult"], data.get("degree"),
                   data.get("conjugate_of"), data.get("fitting"),
                   data.get("ambiguous", False))

    def __repr__(self):
        return (f"CharRow(m={self.mult}, deg={self.degree}, "
                f"values={self.values[:4]}...)")


def split_component(comp, wide):
    """Character rows of one homogeneous component, in no particular order
    (build_table sorts them).

    `wide` is [P_1 | P_2 | ... | P_r], the intersection matrices side by
    side.  The component's solver restricts them all at once, to integer
    matrices X_j over one denominator L.  A component that is rationally
    split (dimension m^2) gives one row of multiplicity m: the values
    tr(X_j) / (L m).  A component of dimension 2 m^2 carrying a quadratic
    field, M_m(Q(sqrt(n))), gives a Galois-conjugate pair phi, conj(phi),
    read off two rational traces (the reduced-trace view of Eberly and
    Giesbrecht, J. Symbolic Comput. 29, 2000).  Its centre is the field,
    and a central element z that is irrational there acts as a root zeta
    of its irreducible quadratic f in the embedding of phi, so
    tr(X_j) / L = m (phi + conj(phi)) and
    tr(X_j Z) / L^2 = m (phi zeta + conj(phi zeta)) for Z = z|C over L,
    whence phi = (tr(X_j Z) / (m L^2) - tr(X_j) conj(zeta) / (m L))
    / (zeta - conj(zeta)).  z is the one that cut the component when its
    factor is quadratic, else the first centre basis element irrational
    there.  Anything else raises UnsupportedComponentError.
    """
    d = comp.dim
    L = comp.solver.L
    actions = comp.solver.act(wide)
    traces = [_trace(X) for X in actions]
    m = math.isqrt(d)
    if m * m == d and all(t % (L * m) == 0 for t in traces):
        return [CharRow([QuadraticNumber(t // (L * m)) for t in traces], m)]
    if d % 2 == 0 and math.isqrt(d // 2) ** 2 == d // 2:
        m = math.isqrt(d // 2)
        flat = _flat(actions)
        Z, f = _quadratic_driver(comp, flat, L)
        # f1 = X - zeta, zeta the root of f in the embedding of phi
        _, f1 = _quadratic_factor(f)
        zeta = -f1[0]
        zc = zeta.conjugate()
        gap = zeta - zc
        # tr(X_j Z) for every j: X_j flattened against Z transposed
        twisted = int_product(flat, [[x] for col in zip(*Z) for x in col])
        values = [(Fraction(tz, m * L * L) - Fraction(t, m * L) * zc) / gap
                  for t, [tz] in zip(traces, twisted)]
        for v in values:
            if not v.is_algebraic_integer():
                raise UnsupportedComponentError(
                    f"character value {v} is not an algebraic integer")
        return [CharRow(values, m),
                CharRow([v.conjugate() for v in values], m)]
    raise UnsupportedComponentError(
        f"component dimension {d} is neither m^2 nor 2m^2")


def _quadratic_driver(comp, flat, L):
    """(Z, f): a central element restricted to the component, the integer
    matrix Z over L, and an irreducible quadratic factor f of its
    characteristic polynomial; flat holds the restricted intersection
    matrices, one row each.  The element that cut the component comes
    first, then the centre's basis."""
    z, f = comp.cut
    if zpoly.deg(f) == 2:
        return _combination(z, flat), f
    for z in comp.centre[1:]:
        Z = _combination(z, flat)
        _, _, facs = zpoly.factor(char_poly(Z, L))
        if zpoly.deg(facs[0][0]) == 2:
            return Z, facs[0][0]
    raise UnsupportedComponentError(
        f"no central element is irrational on the component of dimension "
        f"{comp.dim}")


def _quadratic_factor(f):
    """(n, f1): f1 an irreducible factor of f over Q(sqrt(n)) with the
    conjugate-pair property f = f1 * conj(f1); degree 2 and 4 supported."""
    if zpoly.deg(f) == 2:
        c0, c1, _ = f
        disc = c1 * c1 - 4 * c0
        if disc <= 0:
            raise UnsupportedComponentError(
                f"complex splitting field for {zpoly.poly_str(f)}")
        nsf, k = squarefree_part(disc)
        if nsf == 1:
            raise UnsupportedComponentError(
                f"{zpoly.poly_str(f)} is reducible over Q")
        lam = QuadraticNumber(Fraction(-c1, 2), Fraction(k, 2), nsf)
        return nsf, [-lam, QuadraticNumber(1)]
    if zpoly.deg(f) == 4:
        return _split_quartic(f)
    raise UnsupportedComponentError(
        f"factor degree {zpoly.deg(f)} unsupported")


def _split_quartic(f):
    """Factor an irreducible quartic into conjugate quadratics over a real
    quadratic field: f = (X^2 + a X + b)(X^2 + conj(a) X + conj(b))."""
    c0, c1, c2, c3, _ = [Fraction(c) for c in f]
    s = c3 / 2
    # alpha = s + x, beta = t + y with x = a sqrt(n), y = b sqrt(n);
    # matching coefficients: t = (c2 - s^2 + x^2)/2, x y = s t - c1/2,
    # y^2 = t^2 - c0, so u = x^2 satisfies u (t(u)^2 - c0) = (s t(u) - c1/2)^2
    half = Fraction(1, 2)
    # build the cubic in u with Fraction coefficients
    #   t(u) = t0 + u/2 with t0 = (c2 - s^2)/2
    t0 = (c2 - s * s) * half
    # lhs: u * ((t0 + u/2)^2 - c0);  rhs: (s (t0 + u/2) - c1/2)^2
    # expand to polynomial coefficients in u
    lhs = [Fraction(0), t0 * t0 - c0, t0, Fraction(1, 4)]
    rhs0 = s * t0 - c1 * half
    rhs = [rhs0 * rhs0, s * rhs0, s * s * Fraction(1, 4), Fraction(0)]
    poly = [a - b for a, b in zip(lhs, rhs)]
    den = math.lcm(*(c.denominator for c in poly))
    ipoly = zpoly.trim([int(c * den) for c in poly])
    candidates = []
    if zpoly.deg(ipoly) >= 1:
        _, _, facs = zpoly.factor(ipoly)
        for g, _ in facs:
            if zpoly.deg(g) == 1:
                root = Fraction(-g[0], g[1])
                if root > 0:
                    candidates.append(root)
    for u in candidates:
        sq = u.numerator * u.denominator
        nsf, k = squarefree_part(sq)
        if nsf == 1:
            continue
        x = QuadraticNumber(0, Fraction(k, u.denominator), nsf)
        t = t0 + u * half
        xy = s * t - c1 * half
        y = QuadraticNumber(xy) / x
        alpha = QuadraticNumber(s) + x
        beta = QuadraticNumber(t) + y
        if _verify_quartic_split(f, alpha, beta):
            return nsf, [beta, alpha, QuadraticNumber(1)]
    # x = 0 branch: alpha rational, beta irrational
    if s * (c2 - s * s) == c1:
        t = (c2 - s * s) * half
        y2 = t * t - c0
        if y2 > 0:
            sq = y2.numerator * y2.denominator
            nsf, k = squarefree_part(sq)
            if nsf != 1:
                y = QuadraticNumber(0, Fraction(k, y2.denominator), nsf)
                alpha = QuadraticNumber(s)
                beta = QuadraticNumber(t) + y
                if _verify_quartic_split(f, alpha, beta):
                    return nsf, [beta, alpha, QuadraticNumber(1)]
    raise UnsupportedComponentError(
        f"quartic {zpoly.poly_str(f)} does not split over a real quadratic "
        "field")


def _verify_quartic_split(f, alpha, beta):
    ab, bb = alpha.conjugate(), beta.conjugate()
    # (X^2 + alpha X + beta)(X^2 + ab X + bb)
    coeffs = [
        beta * bb,
        alpha * bb + ab * beta,
        beta + bb + alpha * ab,
        alpha + ab,
        QuadraticNumber(1),
    ]
    return all(c == QuadraticNumber(x) for c, x in zip(coeffs, f))


# ---------------------------------------------------------------------------
# Fitting degrees, table assembly, verification

def fitting_degree(row, lengths, pairing=None):
    """Degree of the Fitting correspondent, from self-orthogonality:
    chi(1) = m n / sum_j phi(A_j*) phi(A_j) / n_j, asserted integral.
    The sum is one weighted dot product, weights L / n_j with L the lcm
    of the n_j, as in verify_table."""
    n = sum(lengths)
    if pairing is None:
        pairing = range(1, len(lengths) + 1)
    L = math.lcm(*lengths)
    paired = RadicalVector([row.values[j - 1] for j in pairing],
                           [L // x for x in lengths])
    acc = paired.dot(RadicalVector(row.values))
    if acc.keys() - {1} or not acc.get(1):
        raise NotACharacterError(
            f"orthogonality sum {acc} / {L} is irrational or 0")
    degree = Fraction(row.mult * n * L) / acc[1]
    if degree.denominator != 1 or degree <= 0:
        raise NotACharacterError(
            f"Fitting degree {degree} is not a positive integer")
    return int(degree)


class EndoCharTable:
    """The split character table of the endomorphism ring."""

    def __init__(self, rows, lengths, pairing):
        self.rows = rows
        self.lengths = lengths
        self.pairing = pairing

    @property
    def r(self):
        return len(self.lengths)

    @property
    def n(self):
        return sum(self.lengths)

    def to_json(self):
        return {
            "lengths": self.lengths,
            "pairing": self.pairing,
            "rows": [row.to_json() for row in self.rows],
        }

    @classmethod
    def from_json(cls, data):
        return cls([CharRow.from_json(r) for r in data["rows"]],
                   data["lengths"], data["pairing"])


def build_table(all_mats, lengths, pairing):
    """Full table: components, split rows, Fitting degrees, conjugate links.

    all_mats are the r intersection matrices P_1..P_r.  The components come
    from the center of the algebra, each splits into its rows, and the rows
    are sorted by (degree, values), the brute-force oracle's order, so the
    order depends on the characters alone.
    """
    r = len(lengths)
    if len(all_mats) != r:
        raise ValueError(
            f"build_table needs all {r} intersection matrices, got "
            f"{len(all_mats)}")
    Ps = [_int_entries(P) for P in all_mats]
    wide = [[x for P in Ps for x in P[i]] for i in range(r)]
    rows = [row for comp in homogeneous_components_center(Ps, r)
            for row in split_component(comp, wide)]
    for row in rows:
        row.degree = fitting_degree(row, lengths, pairing)
    rows.sort(key=lambda row: (row.degree,
                               [(v.a, v.b, v.n) for v in row.values]))
    for i, row in enumerate(rows):
        if row.conj is not None:
            continue
        if row.field == 1:
            continue
        cv = row.conjugate_values()
        for k in range(i + 1, len(rows)):
            if rows[k].conj is None and rows[k].values == cv:
                row.conj = k
                rows[k].conj = i
                break
    table = EndoCharTable(rows, lengths, pairing)
    report = verify_table(table)
    if not report["ok"]:
        raise AssertionError(f"table verification failed: {report}")
    return table


def verify_table(table):
    """Exact checks: orthogonality, pairing symmetry, the unique
    nonnegative row, and the dimension count sum(m * degree) = n."""
    rows, lengths, pairing = table.rows, table.lengths, table.pairing
    n = table.n
    r = table.r
    report = {"ok": True, "failures": []}

    def fail(msg):
        report["ok"] = False
        report["failures"].append(msg)

    for i, row in enumerate(rows):
        for jj in range(r):
            if row.values[pairing[jj] - 1] != row.values[jj]:
                fail(f"row {i}: value at paired orbit {jj + 1} differs")
                break
    # weights L / n_j with L = lcm(n_j) keep the sums integral
    L = math.lcm(*lengths)
    weights = [L // x for x in lengths]
    vecs = [RadicalVector(row.values) for row in rows]
    stars = [RadicalVector([row.values[pairing[jj] - 1] for jj in range(r)],
                           weights) for row in rows]
    for i in range(len(rows)):
        for k in range(i, len(rows)):
            # the sum is L n times the inner product
            acc = stars[i].dot(vecs[k])
            if i == k:
                if not rows[i].degree:
                    continue
                if acc != {1: Fraction(rows[i].mult * L * n,
                                       rows[i].degree)}:
                    fail(f"self-orthogonality fails for row {i}")
            elif acc:
                fail(f"rows {i} and {k} are not orthogonal")
    nonneg = [i for i, row in enumerate(rows)
              if all(v.is_rational() and v.a.denominator == 1 and v.a >= 0
                     for v in row.values)]
    if len(nonneg) != 1:
        fail(f"expected exactly one nonnegative row, found {nonneg}")
    else:
        triv = rows[nonneg[0]]
        if [v.as_fraction() for v in triv.values] != \
                [Fraction(x) for x in lengths]:
            fail("the nonnegative row does not list the orbit lengths")
    if all(row.degree for row in rows):
        total = sum(row.mult * row.degree for row in rows)
        if total != n:
            fail(f"sum of m * degree is {total} != {n}")
    for i, row in enumerate(rows):
        if row.conj is not None:
            partner = rows[row.conj]
            if partner.conj != i or \
                    partner.values != row.conjugate_values():
                fail(f"conjugate pairing broken at row {i}")
    return report
