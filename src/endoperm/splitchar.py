"""Exact splitting of the endomorphism ring over Q and real quadratic fields.

The algebra A of the intersection matrices is cut into its homogeneous
components Ae, one for each central primitive idempotent e, and the
character rows of each are read off traces (Ronyai, J. Symbolic Comput.
9, 1990; Eberly and Giesbrecht, J. Symbolic Comput. 29, 2000).  The cuts
are made in the centre Z of A, of dimension c <= r, by the kernels of the
irreducible factors of a central element's characteristic polynomial on
Z; one solve then splits 1 into the idempotents e.

No component needs a basis of its own, by a trace identity (Higman,
Linear Algebra Appl. 93, 1987; Bannai and Ito, Algebraic Combinatorics I,
1984, II.3).  With R_y = sum_k y_k P_k the right multiplication by y and
tau_k = tr P_k, for a in A and a central idempotent e,

    tr(R_a on Ae) = tr R_(ae) = (e a) . tau.

Proof: A = Ae + A(1 - e), and R_(ae) = R_a R_e agrees with R_a on Ae
(where x e = x) and is 0 on A(1 - e) (where x e = 0); and tr R_y = y . tau
is linear in y.  So with the trace matrix W = [P_1 tau | ... | P_r tau],
the row e W lists tr(P_j on Ae) for every j, and e . tau = dim Ae.

Each component yields one Galois orbit of irreducible characters, of one
of the shapes: dimension 1 (rational), 2 (quadratic conjugate pair), m^2
(rational with multiplicity m), and 2m^2 (quadratic pair with multiplicity
m); anything else raises UnsupportedComponentError.  The arithmetic is
exact, on integers from the intersection matrices to the values: every
kernel is primitive integer rows, and a central element's action on Z and
an idempotent's right multiplication are integer matrices over one
denominator, and so are the values of a CharRow, QuadraticNumbers
(an + bn sqrt(n)) / den.  Table rows come in one canonical order: by
degree, then by values, as in the brute-force oracle.
"""

import collections
import functools
import math
import operator
from fractions import Fraction

import numpy as np

from . import zpoly
from .quadfield import (QuadraticNumber, RadicalVector, RowSolver, _number,
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

@functools.cache
def _crt_primes():
    ps = [zpoly._next_prime(2 ** 24)]
    while len(ps) < 120:
        ps.append(zpoly._next_prime(ps[-1]))
    return ps


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
    denominator of the entries, the characteristic polynomial of X = s M is
    computed modulo the fewest word-sized primes whose product exceeds
    twice the bound B = prod_i (2 + isqrt(|row_i|^2)) on its coefficients,
    in one pass, and CRT lifted to symmetric representatives.  With c_k the
    coefficient of X^(n-k), c_k(M / L) = c_k(X) / (s L)^k, and
    AssertionError when that is not an integer.

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
# Homogeneous components, by their central primitive idempotents

class HomogeneousComponent:
    """A homogeneous component Ae: e = idempotent / den on the Schur basis,
    its right multiplication R_e = action / den (r integer rows),
    dim = tr R_e, and cut = (z, f), the central element and irreducible
    factor with Ze = ker f(z) in the centre Z."""

    def __init__(self, idempotent, action, den, dim, cut):
        self.idempotent, self.action, self.den = idempotent, action, den
        self.dim, self.cut = dim, cut


def _square(row):
    """The d x d matrix whose entries, row by row, are the d^2 of row."""
    d = math.isqrt(len(row))
    return [row[i:i + d] for i in range(0, d * d, d)]


def _traces(mats):
    return [sum(M[i][i] for i in range(len(M))) for M in mats]


def _coordinates(basis, V):
    """(A, D) with A . basis = D V for integer rows V in the row space of
    basis, read at a column per basis row where the others vanish (as at
    left_kernel's free columns); checked by multiplying back."""
    nonzero = [sum(1 for z in basis if z[k]) for k in range(len(basis[0]))]
    reads = [next(k for k, x in enumerate(z) if x and nonzero[k] == 1)
             for z in basis]
    D = math.lcm(*(z[k] for z, k in zip(basis, reads)))
    A = [[v[k] * (D // z[k]) for z, k in zip(basis, reads)] for v in V]
    if int_product(A, basis) != [[D * x for x in v] for v in V]:
        raise AssertionError("a row outside the centre")
    return A, D


def homogeneous_components_center(all_mats, r):
    """Homogeneous components through the centre of the algebra.

    Needs all r intersection matrices, with Python int entries.  The
    centre Z is the left kernel of [P_j[i][k] - P_i[j][k]], as primitive
    integer rows z_1, ..., z_c.  A central element z acts on Z by a c x c
    integer matrix X over one denominator L, read off z's right
    multiplication on those rows.  z acts semisimply, so a piece V of Z,
    a sum of the components' centres, is cut by z into the kernels
    ker f(z|V) of the irreducible factors f of its characteristic
    polynomial on V, with f(X / L) formed as sum_k f_k L^(deg - k) X^k.

    The generic z = z_1 + 2 z_2 + ... + c z_c cuts Z first.  Each
    component's centre is a field, of degree at least deg f on a kernel of
    f(z), so a kernel of dimension deg f is a component's centre; the
    other kernels are refined by z_1, z_2, ... in turn.  One solve then
    splits 1 into its parts in the centres, the central primitive
    idempotents e.  AssertionError unless each e is idempotent (e R_e = e),
    they add up to 1, and the dimensions tr R_e = e . tau are positive
    integers that add up to r.
    """
    Ps = [getattr(P, "entries", P) for P in all_mats]
    basis = left_kernel([[Ps[j][i][k] - Ps[i][j][k] for j in range(r)
                          for k in range(r)] for i in range(r)])
    c = len(basis)
    generic = [sum((t + 1) * z[i] for t, z in enumerate(basis))
               for i in range(r)]
    # the right multiplications R_z of the centre's elements, flattened
    actions = int_product([generic] + basis,
                          [[x for row in P for x in row] for P in Ps])
    comps = []
    pending = [([[int(i == j) for j in range(c)] for i in range(c)], None)]
    for z, Rz in zip([generic] + basis, actions):
        if not pending:
            break
        X, L = _coordinates(basis, int_product(basis, _square(Rz)))
        pieces = [(K, (z, f)) for rows, _ in pending
                  for K, f in _primary_pieces(rows, z, X, L)]
        pending = []
        for K, cut in pieces:
            (comps if len(K) == zpoly.deg(cut[1]) else pending).append(
                (K, cut))
    comps += pending
    parts, den = _central_idempotents(basis, [rows for rows, _ in comps])
    # e = part . basis / den and R_e = part . (R_z_1, ..., R_z_c) / den
    units = int_product(parts, basis)
    if [sum(col) for col in zip(*units)] != [den] + [0] * (r - 1):
        raise AssertionError("central idempotents do not sum to 1")
    tau, out = _traces(Ps), []
    for e, Re, (_, cut) in zip(units, int_product(parts, actions[1:]),
                               comps):
        R = _square(Re)
        if int_product([e], R)[0] != [den * x for x in e]:
            raise AssertionError("a central idempotent is not idempotent")
        dim = Fraction(sum(map(operator.mul, e, tau)), den)
        if dim.denominator != 1 or dim <= 0:
            raise AssertionError(
                f"component dimension {dim} is not a positive integer")
        out.append(HomogeneousComponent(e, R, den, int(dim), cut))
    total = sum(comp.dim for comp in out)
    if total != r:
        raise AssertionError(f"center components cover {total} != {r}")
    return out


def _primary_pieces(rows, z, X, L):
    """[(K, f)]: the kernels K in the span of rows of f(z), for the
    irreducible factors f of the characteristic polynomial of the central
    element z there.  rows and K are coordinate rows on the centre's
    basis, on which z acts by X / L."""
    whole = len(rows) == len(X)
    if not whole:
        solver = RowSolver(rows)
        [X] = solver.act(X)
        L *= solver.L
    _, _, facs = zpoly.factor(char_poly(X, L))
    if len(facs) == 1:
        return [(rows, facs[0][0])]
    pieces = []
    for f, _ in facs:
        K = poly_kernel(X, L, f)
        if not whole:
            K = [primitive(row) for row in int_product(K, rows)]
        pieces.append((K, f))
    return pieces


def _central_idempotents(basis, centres):
    """(parts, den): the parts part / den of 1 in the direct sum of the
    components' centres, all as coordinate rows on the centre's basis; one
    solve.  AssertionError when the centres do not make a basis."""
    [one], D = _coordinates(basis, [[1] + [0] * (len(basis[0]) - 1)])
    stacked = [row for rows in centres for row in rows]
    solver = RowSolver(stacked)
    solved = solver.solve([one])
    if len(stacked) != len(basis) or solved is None:
        raise AssertionError(
            f"center components cover {len(stacked)} != {len(basis)}")
    parts, s = [], 0
    for rows in centres:
        parts.append(int_product([solved[0][s:s + len(rows)]], rows)[0])
        s += len(rows)
    return parts, solver.L * D


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
            if v.bn:
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


def split_component(comp, W):
    """Character rows of one homogeneous component Ae, in no particular
    order (build_table sorts them).

    e W, for build_table's trace matrix W, lists tr(P_j on Ae) over the
    idempotent's denominator (the identity of the module docstring).  A
    rationally split component (dimension m^2) gives one row of
    multiplicity m: the traces over m.  A component M_m(Q(sqrt(n))) of
    dimension 2 m^2 gives a Galois-conjugate pair phi, conj(phi), read off
    two rational traces (the reduced-trace view of Eberly and Giesbrecht):
    the central element z that cut it acts as a root zeta of its
    irreducible quadratic in the embedding of phi, so
    tr(P_j on Ae) = m (phi + conj(phi)) and
    tr(P_j z on Ae) = (e z) W_j = m (phi zeta + conj(phi zeta)).
    Anything else raises UnsupportedComponentError.
    """
    d, den = comp.dim, comp.den
    [traces] = int_product([comp.idempotent], W)
    m = math.isqrt(d)
    if m * m == d and all(t % (den * m) == 0 for t in traces):
        return [CharRow([_number(t // (den * m), 0, 1, 1) for t in traces],
                        m)]
    if d % 2 == 0 and math.isqrt(d // 2) ** 2 == d // 2:
        m = math.isqrt(d // 2)
        ez, f = _quadratic_driver(comp)
        # f1 = X - zeta, zeta = (za + zb sqrt(n)) / zd the root of f in
        # the embedding of phi; with zeta - conj(zeta) = 2 zb sqrt(n) / zd,
        # phi is t / (2 m) + (zd tz - za t) / (2 zb n m) sqrt(n) for
        # traces t, tz, both over the common denominator 2 zb n m den
        n, f1 = _quadratic_factor(f)
        zeta = -f1[0]
        za, zb, zd = zeta.an, zeta.bn, zeta.den
        scale = 2 * zb * n * m * den
        [twisted] = int_product([ez], W)
        values = [_number(t * zb * n, zd * tz - za * t, scale, n)
                  for t, tz in zip(traces, twisted)]
        for v in values:
            if not v.is_algebraic_integer():
                raise UnsupportedComponentError(
                    f"character value {v} is not an algebraic integer")
        return [CharRow(values, m),
                CharRow([v.conjugate() for v in values], m)]
    raise UnsupportedComponentError(
        f"component dimension {d} is neither m^2 nor 2m^2")


def _quadratic_driver(comp):
    """(ez, f): e z = z R_e over the idempotent's denominator, for the
    central element z that cut the component, and z's irreducible
    quadratic f there.  The component's centre has dimension deg f, so
    for any other f, UnsupportedComponentError."""
    z, f = comp.cut
    if zpoly.deg(f) != 2:
        raise UnsupportedComponentError(
            f"no central element is irrational on a quadratic field on the "
            f"component of dimension {comp.dim}")
    return int_product([z], comp.action)[0], f


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
    quadratic field: f = (X^2 + a X + b)(X^2 + conj(a) X + conj(b)).

    theta = b + conj(b) is then a rational root of the resolvent cubic
    theta^3 - c2 theta^2 + (c1 c3 - 4 c0) theta + 4 c0 c2 - c0 c3^2 - c1^2
    (from a + conj(a) = c3, a conj(a) = c2 - theta, b conj(b) = c0 and
    a conj(b) + conj(a) b = c1), so a and b are roots of
    Y^2 - c3 Y + c2 - theta and Y^2 - theta Y + c0; each root of the cubic
    and each choice of the square roots' signs is checked."""
    c0, c1, c2, c3, _ = f
    cubic = (4 * c0 * c2 - c0 * c3 * c3 - c1 * c1, c1 * c3 - 4 * c0, -c2, 1)
    for g, _ in zpoly.factor(cubic)[2]:
        if zpoly.deg(g) > 1:
            continue
        theta = Fraction(-g[0], g[1])
        discs = [c3 * c3 - 4 * (c2 - theta), theta * theta - 4 * c0]
        if min(discs) < 0:
            continue
        # sqrt(p / q) = sqrt(p q) / q = k sqrt(nsf) / q
        roots = []
        for d in discs:
            nsf, k = squarefree_part(d.numerator * d.denominator or 1)
            roots.append(QuadraticNumber(0, Fraction(k, d.denominator), nsf)
                         if d else QuadraticNumber(0))
        fields = {x.n for x in roots} - {1}
        if len(fields) != 1:
            continue
        for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            alpha = (c3 + sa * roots[0]) / 2
            beta = (theta + sb * roots[1]) / 2
            if _verify_quartic_split(f, alpha, beta):
                return fields.pop(), [beta, alpha, QuadraticNumber(1)]
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
    q = acc[1]
    degree, rem = divmod(row.mult * n * L * q.denominator, q.numerator)
    if rem or degree <= 0:
        raise NotACharacterError(
            f"Fitting degree {row.mult * n * L / q} is not a positive "
            "integer")
    return degree


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
    Ps = [[list(map(int, row)) for row in getattr(P, "entries", P)]
          for P in all_mats]
    # the trace matrix W = [P_1 tau | ... | P_r tau]: every row of every
    # P_j against tau, one product
    column = int_product([row for P in Ps for row in P],
                         [[t] for t in _traces(Ps)])
    W = [list(col) for col in zip(*_square([x for [x] in column]))]
    rows = [row for comp in homogeneous_components_center(Ps, r)
            for row in split_component(comp, W)]
    for row in rows:
        row.degree = fitting_degree(row, lengths, pairing)
    # the oracle's key (degree, [(a, b, n), ...]); the values are read only
    # between rows of one degree
    ties = collections.Counter(row.degree for row in rows)
    rows.sort(key=lambda row: (row.degree, [(v.a, v.b, v.n) for v in (
        row.values if ties[row.degree] > 1 else ())]))
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
              if all(not v.bn and v.den == 1 and v.an >= 0
                     for v in row.values)]
    if len(nonneg) != 1:
        fail(f"expected exactly one nonnegative row, found {nonneg}")
    elif [v.an for v in rows[nonneg[0]].values] != list(lengths):
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
