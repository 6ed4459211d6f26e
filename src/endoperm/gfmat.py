"""Matrices and modules over small prime fields, and Cartan matrices of
algebra regular modules.

Supports any prime p < 256.  A matrix stores one byte per entry (a uint8
array) for every p, and a product is one int64 matmul reduced mod p; the
matrices here are small, so per-object overhead dominates and no packed
form pays off for products.  Moving one vector is different: at p = 2,
`row_times` XORs the matrix's rows kept as Python ints (one bit per
entry, built on first use), one operation per selected row in place of
several numpy calls.  On top of the matrix layer sit the module
operations: fixed spaces, quotients and minimal polynomials, and the
Cartan matrix of an algebra regular module, computed deterministically
from the radical of the algebra, the centre of its semisimple quotient
and lifted idempotents.  Their vector loops work on int64 arrays and the
stacked generator matrices, not on 1-row matrices.

Row-vector convention throughout: vectors act from the left, x . M.
"""

import itertools
import math

import numpy as np

from . import zpoly


class UnsupportedCharacteristic(ValueError):
    pass


_PRIMES = frozenset(p for p in range(2, 256)
                   if all(p % d for d in range(2, int(p ** .5) + 1)))


def _check_prime(p):
    if p not in _PRIMES:
        raise UnsupportedCharacteristic(
            f"unsupported characteristic {p} (need a prime < 256)")


def row_times(x, mat):
    """x . mat for a row vector x encoded one byte per entry, returned in
    the same encoding.

    For p = 2 the entries of x must be 0 or 1: the result is the XOR of
    the rows of mat that x's nonzero entries select, taken from the row
    integers mat caches on its first use here.  For odd p it is one int64
    product mod p.
    """
    if len(x) != mat.nrows:
        raise ValueError("shape mismatch")
    if mat.p == 2:
        rows = mat._bit_rows
        if rows is None:
            rows = mat._bit_rows = _rows_as_ints(mat)
        acc = 0
        for r in itertools.compress(rows, x):
            acc ^= r
        # The leading 1 fixes the width at ncols digits, 0 columns too.
        return bin(acc | 1 << mat.ncols)[3:].encode().translate(_FROM_DIGITS)
    v = np.frombuffer(x, dtype=np.uint8).astype(np.int64)
    return (v @ mat.data.astype(np.int64) % mat.p).astype(np.uint8).tobytes()


_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _rows_as_ints(mat):
    """The rows of a 0/1 matrix as ints of ncols bits, entry 0 the most
    significant."""
    n = mat.ncols
    if not n:
        return [0] * mat.nrows
    digits = mat.data.tobytes().translate(_TO_DIGITS)
    return [int(digits[i:i + n], 2) for i in range(0, len(digits), n)]


class FqMatrix:
    """Immutable matrix over F_p; `data` is a read-only uint8 array of its
    entries in 0..p-1.

    At p = 2, `row_times` caches the rows as ints in `_bit_rows` the first
    time it moves a vector by the matrix.  The cache is derived from
    `data`, which is why `data` may never change; `==` and `hash` read
    `data` alone.
    """

    __slots__ = ("p", "nrows", "ncols", "data", "_bit_rows")

    def __init__(self, p, rows):
        _check_prime(p)
        arr = np.asarray(rows, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("need a 2-d array of entries")
        self.p = p
        self.data = np.mod(arr, p).astype(np.uint8)
        self.data.setflags(write=False)
        self.nrows, self.ncols = arr.shape
        self._bit_rows = None

    @classmethod
    def identity(cls, p, n):
        return cls(p, np.eye(n, dtype=np.int64))

    @classmethod
    def zeros(cls, p, r, c):
        return cls(p, np.zeros((r, c), dtype=np.int64))

    def toarray(self):
        """Entries as a uint8 numpy array (a copy)."""
        return self.data.copy()

    def __eq__(self, other):
        return (isinstance(other, FqMatrix) and self.p == other.p
                and self.nrows == other.nrows and self.ncols == other.ncols
                and np.array_equal(self.data, other.data))

    def __hash__(self):
        return hash((self.p, self.nrows, self.ncols, self.data.tobytes()))

    def __add__(self, other):
        self._compat(other)
        return FqMatrix(self.p, self.data.astype(np.int64) + other.data)

    def __sub__(self, other):
        self._compat(other)
        return FqMatrix(self.p, self.data.astype(np.int64) - other.data)

    def _compat(self, other):
        if not isinstance(other, FqMatrix) or other.p != self.p:
            raise TypeError("mixed-field matrix arithmetic")

    def __mul__(self, other):
        if isinstance(other, int):
            return FqMatrix(self.p, self.data.astype(np.int64)
                            * (other % self.p))
        self._compat(other)
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        return FqMatrix(self.p, self.data.astype(np.int64)
                        @ other.data.astype(np.int64))

    def transpose(self):
        return FqMatrix(self.p, self.data.T)

    def is_identity(self):
        return (self.nrows == self.ncols
                and np.array_equal(self.data, np.eye(self.nrows)))

    def is_zero(self):
        return not self.data.any()

    # -- elimination --------------------------------------------------------

    def rref(self):
        R, pivots = _rref(self.data, self.p)
        return FqMatrix(self.p, R), pivots

    def rank(self):
        return len(self.rref()[1])

    def row_basis(self):
        """The nonzero rows of the reduced row echelon form."""
        R, pivots = _rref(self.data, self.p)
        return FqMatrix(self.p, R[:len(pivots)])

    def left_nullspace(self):
        """Rows v with v . M = 0."""
        return FqMatrix(self.p, _nullspace(self.data.T, self.p))

    def right_nullspace(self):
        """Rows v with M . v^T = 0."""
        return FqMatrix(self.p, _nullspace(self.data, self.p))

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("not square")
        n = self.nrows
        aug = np.concatenate(
            [self.data, np.eye(n, dtype=np.uint8)], axis=1)
        R, pivots = _rref(aug, self.p)
        if pivots[:n] != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return FqMatrix(self.p, R[:n, n:])

    def __repr__(self):
        return f"FqMatrix(p={self.p}, {self.nrows}x{self.ncols})"


def _rref(arr, p):
    """Reduced row echelon form of an integer array mod p."""
    M = arr.astype(np.int64) % p
    nr, nc = M.shape
    pivots = []
    r = 0
    for c in range(nc):
        sub = np.nonzero(M[r:, c])[0]
        if len(sub) == 0:
            continue
        pr = r + sub[0]
        if pr != r:
            M[[r, pr]] = M[[pr, r]]
        M[r] = (M[r] * pow(int(M[r, c]), -1, p)) % p
        col = M[:, c].copy()
        col[r] = 0
        nz = np.nonzero(col)[0]
        if len(nz):
            M[nz] = (M[nz] - np.outer(col[nz], M[r])) % p
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return M.astype(np.uint8), pivots


def _nullspace(arr, p):
    """Right nullspace basis (as rows) of a uint8 array mod p."""
    R, pivots = _rref(arr, p)
    nc = arr.shape[1]
    free = np.ones(nc, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    basis = np.zeros((len(free), nc), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -R[:len(pivots), free].T.astype(np.int64) % p
    return basis.astype(np.uint8)


class EchelonBasis:
    """Incremental reduced row echelon form over F_p, for Krylov spaces
    and algebra spans.

    `rows` is an int64 array; row i has a 1 in column `pivots[i]` and 0 in
    every other row's pivot column, so v reduces in one product:
    v - v[pivots] . rows.  The row store doubles as it fills: a space of
    rank k over many columns (an algebra basis as flattened d x d
    matrices) holds k rows, not ncols.
    """

    def __init__(self, p, ncols):
        self.p = p
        self.ncols = ncols
        self.pivots = []
        self._rows = np.zeros((0, ncols), dtype=np.int64)

    @property
    def rows(self):
        return self._rows[:len(self.pivots)]

    def reduce(self, v):
        v = np.asarray(v, dtype=np.int64) % self.p
        if self.pivots:
            v = (v - v[self.pivots] @ self.rows) % self.p
        return v

    def add(self, v):
        """Reduce v; if independent, insert and return True."""
        v = self.reduce(v)
        nz = v.nonzero()[0]
        if len(nz) == 0:
            return False
        c = int(nz[0])
        v = v * pow(int(v[c]), -1, self.p) % self.p
        rows = self.rows
        rows -= rows[:, c, None] * v
        rows %= self.p
        k = len(self.pivots)
        if k == len(self._rows):
            more = min(max(k, 8), self.ncols - k)
            self._rows = np.concatenate(
                [self._rows, np.zeros((more, self.ncols), dtype=np.int64)])
        self._rows[k] = v
        self.pivots.append(c)
        return True

    def dim(self):
        return len(self.pivots)


# ---------------------------------------------------------------------------

class ModuleRep:
    """A module over F_p given by the square matrices of its generators."""

    def __init__(self, p, actions, dim=None):
        self.p = p
        self.actions = list(actions)
        if dim is None:
            if not self.actions:
                raise ValueError("dim required with no generators")
            dim = self.actions[0].nrows
        for a in self.actions:
            if a.nrows != dim or a.ncols != dim or a.p != p:
                raise ValueError("actions must be square of equal size")
        self.dim = dim

    def stacked(self):
        """The generators' entries as one int64 array of shape (r, d, d)."""
        return np.array([a.data for a in self.actions],
                        dtype=np.int64).reshape(-1, self.dim, self.dim)

    def __repr__(self):
        return f"ModuleRep(p={self.p}, dim={self.dim}, gens={len(self.actions)})"


def _solve(A, B):
    """X with A X = B (A of full column rank on its pivot columns)."""
    p = A.p
    aug = np.concatenate([A.data, B.data], axis=1)
    R, pivots = _rref(aug, p)
    n = A.ncols
    X = np.zeros((n, B.ncols), dtype=np.int64)
    for r, c in enumerate(pivots):
        if c >= n:
            raise ValueError("inconsistent system")
        X[c] = R[r, n:]
    if not np.array_equal(A.data.astype(np.int64) @ X % p, B.data):
        raise ValueError("inconsistent system")
    return FqMatrix(p, X)


def fixed_space(rep):
    """Basis of the common fixed space of all generators."""
    ident = FqMatrix.identity(rep.p, rep.dim)
    current = ident
    for a in rep.actions:
        if current.nrows == 0:
            break
        N = (current * (a - ident)).left_nullspace()
        current = N * current
    return current.row_basis()


def quotient(rep, sub_basis):
    """Quotient module by an invariant row space, with the projection map.

    Returns (quotient rep, projection); projection maps old coordinates to
    quotient coordinates and commutes with the actions.
    """
    p = rep.p
    sub = sub_basis.data
    ech = EchelonBasis(p, rep.dim)
    for v in sub:
        ech.add(v)
    k = ech.dim()
    comp = []
    for j in range(rep.dim):
        e = np.zeros(rep.dim, dtype=np.uint8)
        e[j] = 1
        if ech.add(e):
            comp.append(e)
    full = FqMatrix(p, np.array(list(sub) + comp, dtype=np.int64)
                    if (len(sub) + len(comp)) else np.zeros((0, rep.dim)))
    inv = full.inverse().data.astype(np.int64)
    proj = inv[:, k:]
    gens = rep.stacked()
    quo = (full.data.astype(np.int64) @ gens % p @ inv % p)[:, k:, k:]
    if ((gens @ proj - proj @ quo) % p).any():
        raise AssertionError("projection does not commute with action")
    return (ModuleRep(p, [FqMatrix(p, q) for q in quo], rep.dim - k),
            FqMatrix(p, proj))


# ---------------------------------------------------------------------------
# Minimal polynomials, the radical, Cartan matrices

def min_poly(mat):
    """Minimal polynomial: lcm of local minimal polynomials of unit vectors.

    A unit vector e_start already killed by the lcm so far is skipped: that
    is row `start` of poly(mat), recomputed only when poly grows.
    """
    p, d = mat.p, mat.nrows
    M = mat.data.astype(np.int64)
    poly = (1,)
    at = _poly_at(M, poly, p)
    for start in range(d):
        if not at[start].any():
            continue
        ech = EchelonBasis(p, d)
        krylov = []
        w = np.zeros(d, dtype=np.int64)
        w[start] = 1
        while ech.add(w):
            krylov.append(w)
            w = w @ M % p
        K = FqMatrix(p, np.array(krylov))
        coeff = _solve(K.transpose(), FqMatrix(p, w.reshape(-1, 1))).data[:, 0]
        loc = zpoly.fp_trim([(-int(c)) % p for c in coeff] + [1], p)
        g = zpoly.fp_gcd(poly, loc, p)
        poly = zpoly.fp_mul(poly, zpoly.fp_divmod(loc, g, p)[0], p)
        if zpoly.deg(poly) == d:
            break
        at = _poly_at(M, poly, p)
    return poly


def _poly_at(M, poly, p):
    """poly(M) mod p by Horner, for a square int64 array M."""
    out = np.zeros_like(M)
    for c in reversed(poly):
        out = out @ M % p
        out.flat[::len(M) + 1] += int(c)
    return out % p


def _poly_of_matrix(mat, poly):
    return FqMatrix(mat.p, _poly_at(mat.data.astype(np.int64), poly, mat.p))


def cartan_matrix(regular):
    """Cartan matrix of an algebra regular module.

    Entry (j, i) is the multiplicity of the simple S_i in the projective
    indecomposable P_j; rows and columns are ordered by label, the
    dimension of S_i plus a letter.  Returns (labels, matrix, pim_dims,
    simples), where simples lists (label, dim S_i, e_i, n_i, multiplicity
    of S_i in the regular module) for each simple.

    The algebra A spanned by the words in the generators has the regular
    module V as a faithful module, so dim A = dim V = d, and A/J =
    End_{D_1}(S_1) + ... + End_{D_k}(S_k) for the radical J, D_i =
    End_A(S_i) a field of degree e_i over F_p and S_i = D_i^{n_i}.  J comes
    from the trace ladder of Cohen, Ivanyos and Wales (JPAA 117/118
    (1997); `_radical`): floor(log_p d) + 1 nullspaces, each cutting the
    ideal down to the a with Tr((ab)^(p^i)) / p^i = 0 mod p for all b.  The
    head V/VJ is the regular module of A/J, the sum of the isotypic parts
    U_i = S_i^{n_i}.  The centre of A/J is D_1 + ... + D_k, so the kernels
    of the irreducible factors of central elements split the head into the
    U_i; the centre has rank e_i on U_i, and dim U_i = n_i^2 e_i gives n_i.
    These are all the Cartan entries need of a simple, so no simple module
    is built and nothing is random.

    One solve gives elements of A that map to the projections of the head
    onto the U_i, the central idempotents of A/J; e <- 3e^2 - 2e^3 lifts
    them to idempotents eps_j (Curtis and Reiner, Methods of
    Representation Theory I, sec. 6).  Then eps_j A is P_j^{n_j}, and
    dim eps_j A eps_i = dim Hom_A(eps_i A, eps_j A) = n_i n_j e_i C[j][i] is
    read as the rank of the vectors v0 eps_j B_t eps_i over a basis B_t of
    A, for a vector v0 that generates V.  Every step is checked and raises
    AssertionError.
    """
    p, d = regular.p, regular.dim
    basis, = _algebra_basis(regular, [])
    if len(basis) != d:
        raise AssertionError(
            f"the generators span an algebra of dimension {len(basis)} "
            f"!= {d}: not a regular module")
    radical = _radical(basis, p)
    head, _ = quotient(regular,
                       FqMatrix(p, radical.reshape(-1, d)).row_basis())
    if head.dim != d - len(radical):
        raise AssertionError(
            f"dim V/VJ = {head.dim} != dim A - dim J = {d - len(radical)}")
    _, images = _algebra_basis(regular, [head])
    parts, ends, mults = zip(*_isotypic_parts(head, images))
    # eps_j maps to the projection of the head onto U_j along the others
    inv = FqMatrix(p, np.concatenate([U.data for U in parts])).inverse()
    targets, col = [], 0
    for U in parts:
        proj = inv.data[:, col:col + U.nrows].astype(np.int64) @ U.data
        targets.append(proj.reshape(-1) % p)
        col += U.nrows
    try:
        coeffs = _solve(FqMatrix(p, images.reshape(d, -1).T),
                        FqMatrix(p, np.array(targets).T)).data
    except ValueError:
        raise AssertionError(
            "no algebra element maps to a central idempotent of A/J")
    eps = [_lift_idempotent(np.tensordot(c, basis, axes=1) % p, p)
           for c in coeffs.T.astype(np.int64)]
    v0 = next((u for u in range(d)
               if len(_rref(basis[:, u, :], p)[1]) == d), None)
    if v0 is None:
        raise AssertionError("no unit vector generates the regular module")
    C = []
    for j, ej in enumerate(eps):
        span = ej[v0] @ basis % p
        row = []
        for i, ei in enumerate(eps):
            rank = len(_rref(span @ ei % p, p)[1])
            unit = mults[i] * mults[j] * ends[i]
            if rank % unit:
                raise AssertionError(
                    f"dim eps_{j} A eps_{i} = {rank} is not a multiple of "
                    f"n_i n_j e_i = {unit}")
            row.append(rank // unit)
        C.append(row)
    simple_dims = [n * e for n, e in zip(mults, ends)]
    dims = [sum(c * s for c, s in zip(row, simple_dims)) for row in C]
    if sum(n * dim for n, dim in zip(mults, dims)) != d:
        raise AssertionError(
            "projective indecomposables do not add up to the regular module")
    labels = [f"{s}{chr(ord('a') + simple_dims[:i].count(s))}"
              for i, s in enumerate(simple_dims)]
    simples = [(label, s, e, n, sum(nj * row[i] for nj, row in zip(mults, C)))
               for i, (label, s, e, n)
               in enumerate(zip(labels, simple_dims, ends, mults))]
    return labels, C, dims, simples


def _radical(basis, p):
    """The radical J of the algebra A spanned by the d x d matrices in
    `basis` (shape (k, d, d)), as an (m, d, d) array of basis elements.

    Cohen, Ivanyos and Wales, Finding the radical of an algebra of linear
    transformations, JPAA 117/118 (1997), after Ronyai, J. Symbolic Comput.
    9 (1990): with I_{-1} = A and, for i = 0 .. floor(log_p d),
    I_i = {a in I_{i-1} : g_i(ab) = 0 for every b in A}, where
    g_i(x) = (Tr(x^(p^i)) mod p^(i+1)) / p^i on the integer lift of x
    (entries 0..p-1), the last I_i is J.  Each I_i is an ideal and g_i is
    p^i-semilinear on I_{i-1}, which over F_p is linear, so each step is
    one nullspace.  Powers are taken mod p^(i+1) <= p d, so one product
    stays below p^2 d^3; a single a in I_{i-1} is handled at a time, which
    keeps the temporaries at k d^2 entries.
    """
    k, d, _ = basis.shape
    if p * p * d ** 3 >= 2 ** 63:
        raise AssertionError(
            f"trace powers of {d} x {d} matrices mod p^2 d overflow int64")
    ideal = basis
    q = 1
    while q <= d and len(ideal):
        table = np.empty((len(ideal), k), dtype=np.int64)
        for row, a in zip(table, ideal):
            powers = _matrix_power(a @ basis % p, q, q * p)
            traces = np.trace(powers, axis1=1, axis2=2) % (q * p)
            if (traces % q).any():
                raise AssertionError(
                    f"a trace of a {q}-th power is not divisible by {q}")
            row[:] = traces // q
        keep = _nullspace(table.T, p).astype(np.int64)
        ideal = np.tensordot(keep, ideal, axes=1) % p
        q *= p
    return ideal


def _matrix_power(x, e, m):
    """x^e mod m for a stack of square int64 arrays x, e >= 1."""
    out = None
    while True:
        if e & 1:
            out = x if out is None else out @ x % m
        e >>= 1
        if not e:
            return out
        x = x @ x % m


def _isotypic_parts(head, images):
    """The isotypic parts U_i = S_i^(n_i) of the regular module `head` of a
    semisimple algebra, as (row basis, e_i, n_i), e_i the degree of
    End(S_i) over F_p, ordered by dim S_i = n_i e_i and then as split.

    `images` holds the actions of a basis of the algebra on head, shape
    (d, h, h).  The centre is the span of the combinations of them that
    commute with every generator.  Each central element z acts on a part
    as an element of the field End(S_i), so the kernels of the irreducible
    factors f of its minimal polynomial are sums of parts; refining by every
    element of a basis of the centre separates all of them.  The centre
    restricted to U_i is End(S_i), of dimension e_i, and dim U_i = n_i^2 e_i.
    """
    p, h = head.p, head.dim
    d = len(images)
    coeffs = np.eye(d, dtype=np.int64)
    for g in head.stacked():
        comm = (images @ g - g @ images) % p
        rel = coeffs @ comm.reshape(d, -1) % p
        coeffs = _nullspace(rel.T, p).astype(np.int64) @ coeffs % p
    centre = FqMatrix(p, coeffs @ images.reshape(d, -1) % p).row_basis()
    centre = centre.data.reshape(-1, h, h)
    parts = [FqMatrix.identity(p, h)]
    for z in centre:
        z = FqMatrix(p, z)
        _, facs = zpoly.fp_factor(min_poly(z), p)
        at_factors = [_poly_of_matrix(z, f) for f, _ in facs]
        parts = [K * U for U in parts for K in
                 ((U * fz).left_nullspace() for fz in at_factors) if K.nrows]
        if sum(U.nrows for U in parts) != h:
            raise AssertionError("a central element is not semisimple")
    out = []
    for U in parts:
        restricted = U.data.astype(np.int64) @ centre % p
        e = len(_rref(restricted.reshape(len(centre), -1), p)[1])
        n = math.isqrt(U.nrows // e)
        if n * n * e != U.nrows:
            raise AssertionError(
                f"an isotypic part of dimension {U.nrows} is not n^2 e "
                f"for e = {e}")
        out.append((U, e, n))
    return sorted(out, key=lambda part: part[1] * part[2])


def _algebra_basis(rep, modules):
    """A basis B_t of the algebra spanned by the words in rep's generators,
    with the images of each B_t on every other module: one (r, m, m) array
    per module, rep first.

    The identity is spun under right multiplication by the generators in
    rep + M_1 + ... + M_k.  A product is kept when its block on rep is
    independent of those kept; that decides for the whole sum as long as
    rep is faithful, which the dimension check of the caller confirms.
    """
    p, d = rep.p, rep.dim
    gens = [rep.stacked()] + [m.stacked() for m in modules]
    ech = EchelonBasis(p, d * d)
    kept = [[np.eye(g.shape[1], dtype=np.int64) for g in gens]]
    ech.add(kept[0][0].reshape(-1))
    qi = 0
    while qi < len(kept):
        prods = [x @ g % p for x, g in zip(kept[qi], gens)]
        for gi in range(len(rep.actions)):
            if ech.add(prods[0][gi].reshape(-1)):
                kept.append([pr[gi] for pr in prods])
        qi += 1
    return [np.array(blocks) for blocks in zip(*kept)]


def _lift_idempotent(e, p):
    """An idempotent from e with e^2 - e nilpotent, by e <- 3e^2 - 2e^3;
    each round squares e^2 - e, so log2(dim) + 1 rounds suffice."""
    for _ in range(len(e).bit_length() + 1):
        e2 = e @ e % p
        if np.array_equal(e2, e):
            return e
        e = (3 * e2 - 2 * (e2 @ e)) % p
    raise AssertionError("idempotent lift did not converge: e^2 != e")


# ---------------------------------------------------------------------------
# Memory estimate utility and file formats

def vector_bytes(p, dim):
    """Storage for one vector, including a 4-byte header.

    Bit-packed for p = 2 (a 112-dim F_2 vector costs 14 + 4 = 18 bytes),
    byte-per-entry otherwise.
    """
    bits = 1 if p == 2 else 8
    return (dim * bits + 7) // 8 + 4


def rep_from_json(data):
    p, dim = data["p"], data["dim"]
    gens = []
    for g in data["generators"]:
        if isinstance(g, str):
            if p != 2:
                raise ValueError("hex-packed rows are only valid for p = 2")
            raw = bytes.fromhex(g)
            bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                                 bitorder="little")
            rows = bits[:dim * dim].reshape(dim, dim)
            gens.append(FqMatrix(2, rows))
        else:
            arr = np.array(g, dtype=np.int64).reshape(dim, dim)
            gens.append(FqMatrix(p, arr))
    rep = ModuleRep(p, gens, dim)
    return rep


def rep_to_json(rep):
    return {
        "p": rep.p,
        "dim": rep.dim,
        "generators": [a.toarray().astype(int).reshape(-1).tolist()
                       for a in rep.actions],
    }
