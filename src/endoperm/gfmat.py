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
Cartan matrix of an algebra given by a basis of d x d matrices whose
first rows are a basis of F_p^d.  That basis is used as it comes, in one
deterministic pass: the radical from the trace form and the trace
ladder, one change of basis onto the head, the head split by the
eigenspaces of its split centre {z : z^p = z}, with no polynomial
factored, and lifted idempotents only when there are two simples and a
radical.  The simples are ordered by dimension and then by the minimal
polynomials of the centre's reduced echelon basis on them.  Products
and powers work on int64 arrays of stacked matrices, not on 1-row
matrices.  Eliminations (`_rref`, `_nullspace`) choose their kernel by
size: most arrays here have a few dozen entries, and below `_SMALL`
entries the rows are reduced as lists of Python ints, where numpy's
fixed cost per call would outweigh the arithmetic; larger arrays take
one numpy row update per pivot.  Both give the same echelon form.

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

    # -- elimination --------------------------------------------------------

    def rank(self):
        return len(_rref(self.data, self.p)[1])

    def row_basis(self):
        """The nonzero rows of the reduced row echelon form."""
        R, pivots = _rref(self.data, self.p)
        return FqMatrix(self.p, R[:len(pivots)])

    def left_nullspace(self):
        """Rows v with v . M = 0."""
        return FqMatrix(self.p, _nullspace(self.data.T, self.p))

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


# An elimination of fewer entries than this runs on rows of Python ints,
# a larger one on int64 numpy arrays, where numpy's dozen calls per pivot
# pay off.  Timed one call at a time on a 2-vCPU VM (CPython 3.11, numpy
# 2.4): on the 725 arrays of one corpus-j4 pass, int rows take 0.45 of
# numpy's time below 64 entries, and the pass total is flat for cutoffs
# from 384 entries up; on dense random arrays of full rank, int rows lose
# from about 256 entries at odd p, 2.6 times slower at (16, 32) and 6-8
# times at (16, 256) and (256, 16).  At 512 the small arrays, most of
# the calls, take int rows, and large dense ones numpy.
_SMALL = 512


def _rref(arr, p):
    """Reduced row echelon form of an integer array mod p, as (uint8
    array, pivot columns)."""
    nr, nc = arr.shape
    if nr * nc < _SMALL:
        rows, pivots = _rref_rows((arr % p).tolist(), p)
        return np.array(rows, dtype=np.uint8).reshape(nr, nc), pivots
    M = arr.astype(np.int64) % p
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


def _rref_rows(M, p):
    """`_rref` on a list of rows of ints in 0..p-1, reduced in place; the
    same steps, one row update per nonzero entry of the pivot column.
    Entries left of a pivot are 0 in its row, so updates start there."""
    nr = len(M)
    pivots = []
    r = 0
    for c in range(len(M[0]) if M else 0):
        for pr in range(r, nr):
            if M[pr][c]:
                break
        else:
            continue
        row = M[pr]
        M[pr] = M[r]
        if row[c] != 1:
            inv = pow(row[c], -1, p)
            row[c:] = [x * inv % p for x in row[c:]]
        M[r] = row
        tail = row[c:]
        for i, other in enumerate(M):
            f = other[c]
            if f and i != r:
                other[c:] = [(x - f * y) % p
                             for x, y in zip(other[c:], tail)]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return M, pivots


def _nullspace(arr, p):
    """Right nullspace basis (as rows) of an integer array mod p: one row
    per free column f, 1 at f and 0 at the other free columns."""
    nr, nc = arr.shape
    if nr * nc < _SMALL:
        rows, pivots = _rref_rows((arr % p).tolist(), p)
        free = sorted(set(range(nc)).difference(pivots))
        basis = [[0] * nc for _ in free]
        for v, f in zip(basis, free):
            v[f] = 1
            for row, c in zip(rows, pivots):
                v[c] = -row[f] % p
        return np.array(basis, dtype=np.uint8).reshape(len(free), nc)
    R, pivots = _rref(arr, p)
    free = np.ones(nc, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    basis = np.zeros((len(free), nc), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -R[:len(pivots), free].T.astype(np.int64) % p
    return basis.astype(np.uint8)


# ---------------------------------------------------------------------------

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


def fixed_space(p, mats, dim):
    """Basis of the common fixed space in F_p^dim of the dim x dim
    FqMatrix `mats`."""
    ident = FqMatrix.identity(p, dim)
    current = ident
    for a in mats:
        if current.nrows == 0:
            break
        N = (current * (a - ident)).left_nullspace()
        current = N * current
    return current.row_basis()


def _quotient_action(mats, sub, p):
    """(proj, quo): the projection onto the quotient by the row space of
    `sub`, invariant under the d x d matrices `mats` (shape (m, d, d)), and
    their actions on the quotient, shape (m, h, h).

    The quotient's basis is the images of the unit vectors e_j, j in F,
    taken greedily: e_j is kept when it is independent of the subspace and
    the e_j kept before it.  Those F are the pivot columns of the reduced
    echelon basis N of the subspace's annihilator {y : sub y^T = 0}, and
    proj = N^T is the map with sub proj = 0 and proj[F] = I.  The action of
    M on the quotient is then M[F] proj.
    """
    if not sub.any():
        return np.eye(mats.shape[1], dtype=np.int64), mats
    annihilator, F = _rref(_nullspace(sub, p), p)
    proj = annihilator.T.astype(np.int64)
    quo = mats[:, F, :] @ proj % p
    if ((mats @ proj - proj @ quo) % p).any():
        raise AssertionError("projection does not commute with action")
    return proj, quo


# ---------------------------------------------------------------------------
# Minimal polynomials, the radical, Cartan matrices

def _local_min_poly(M, w, p):
    """The monic f of least degree with w f(M) = 0, for a nonzero int64
    array w of rows and a square int64 array M.

    The Krylov arrays w, w M, ..., w M^m (m = len(M)), flattened, are the
    columns of one reduced echelon form R.  Its first non-pivot column k
    is the first w M^k in the span of those before it, which by then are
    all pivots, so w M^k = sum_(i<k) R[i, k] w M^i; by Cayley-Hamilton
    k <= m.
    """
    m = len(M)
    krylov = [w]
    for _ in range(m):
        krylov.append(krylov[-1] @ M % p)
    R, pivots = _rref(np.array(krylov).reshape(m + 1, -1).T, p)
    # pivots is increasing with pivots[i] >= i: equality holds up to k
    k = sum(i == c for i, c in enumerate(pivots))
    if k > m:
        raise AssertionError(
            "no polynomial of degree <= dim kills the matrix")
    return tuple(-int(c) % p for c in R[:k, k]) + (1,)


def cartan_matrix(basis, p):
    """Cartan matrix of the algebra A over F_p with basis `basis`, a
    (d, d, d) int array B_0, ..., B_(d-1), read mod p, whose rows 0 are
    a basis of F_p^d.

    Entry (j, i) is the multiplicity of the simple S_i in the projective
    indecomposable P_j; rows and columns are ordered by label, the
    dimension of S_i plus a letter.  Returns (labels, matrix, pim_dims,
    simples), where simples lists (label, dim S_i, e_i, n_i, multiplicity
    of S_i in the regular module) for each simple.

    That the span is closed under products is the caller's precondition
    and is not checked here: the intersection matrices P_j of a Schur
    basis are closed, which `schur` and the oracle check.  The rank of
    the rows 0 is checked, and the shape: either failing raises
    AssertionError (a p that is not a prime below 256 raises
    UnsupportedCharacteristic).  Row 0 of B_t is e_0 B_t, so the rank
    check says that e_0 generates V = F_p^d, on which A acts by x -> x a,
    and that a -> e_0 a is injective on A: V is the regular module and
    row 0 separates A.  Then A/J = End_{D_1}(S_1) + ... + End_{D_k}(S_k) for the radical
    J, D_i = End_A(S_i) a field of degree e_i over F_p and S_i =
    D_i^{n_i}.  J comes from the trace ladder of Cohen, Ivanyos and Wales
    (JPAA 117/118 (1997); `_radical`): floor(log_p d) + 1 nullspaces, the
    first of them on the trace form Tr(B_s B_t).  The head V/VJ is the
    regular module of A/J, and the change of basis onto it carries the
    B_t there in one product (`_quotient_action`).  By Nakayama e_0 is
    not in VJ, so it is the head's first basis vector and generates it:
    row 0 separates A/J on the head too, which is checked.  The head is
    the sum of the isotypic parts U_i = S_i^{n_i}.  The centre of A/J is
    D_1 + ... + D_k, and its split part {z : z^p = z} = F_p + ... + F_p
    splits the head by eigenspaces (`_isotypic_parts`): the centre has
    rank e_i on one nonzero vector of U_i, and dim U_i = n_i^2 e_i gives
    n_i.  These are all the Cartan entries need of a simple, so no simple
    module is built, no polynomial is factored and nothing is random.

    One solve gives elements of A that map to the projections of the head
    onto the U_i, the central idempotents of A/J; e <- 3e^2 - 2e^3 lifts
    them to idempotents eps_j (Curtis and Reiner, Methods of
    Representation Theory I, sec. 6).  Then eps_j A is P_j^{n_j}, and
    dim eps_j A eps_i = dim Hom_A(eps_i A, eps_j A) = n_i n_j e_i C[j][i] is
    read as the rank of the rows 0 of eps_j B_t eps_i over the B_t.  No
    solve is needed with one simple, where eps_1 = 1, nor with J = 0,
    where the eps_j are the central idempotents themselves: there the rank
    is n_i^2 e_i + dim J on the diagonal and 0 off it.  Every step is
    checked and raises AssertionError.
    """
    _check_prime(p)
    basis = np.asarray(basis, dtype=np.int64) % p
    d = len(basis)
    if basis.shape != (d, d, d):
        raise AssertionError(
            f"an algebra basis of d x d matrices has shape (d, d, d), "
            f"not {basis.shape}")
    if len(_rref(basis[:, 0, :], p)[1]) != d:
        raise AssertionError(
            "row 0 of the basis does not generate the regular module")
    radical = _radical(basis, p)
    _, images = _quotient_action(basis, radical.reshape(-1, d), p)
    h = images.shape[1]
    if h != d - len(radical):
        raise AssertionError(
            f"dim V/VJ = {h} != dim A - dim J = {d - len(radical)}")
    if len(_rref(images[:, 0, :], p)[1]) != h:
        raise AssertionError("row 0 does not generate the head V/VJ")
    parts, ends, mults = zip(*_isotypic_parts(images, p))
    if len(parts) > 1 and len(radical):
        ranks = _idempotent_ranks(basis, images, parts, p)
    else:
        ranks = [[len(radical) + n * n * e if i == j else 0
                  for i, (e, n) in enumerate(zip(ends, mults))]
                 for j in range(len(parts))]
    C = []
    for j, rank_row in enumerate(ranks):
        row = []
        for i, rank in enumerate(rank_row):
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


def _idempotent_ranks(basis, images, parts, p):
    """dim eps_j A eps_i for the idempotents eps_j of A that lift the
    projections of the head onto `parts` (row bases of the U_j)."""
    d = len(basis)
    # eps_j maps to the projection of the head onto U_j along the others
    inv = FqMatrix(p, np.concatenate(parts)).inverse()
    targets, col = [], 0
    for U in parts:
        proj = inv.data[:, col:col + len(U)].astype(np.int64) @ U
        targets.append(proj.reshape(-1) % p)
        col += len(U)
    try:
        coeffs = _solve(FqMatrix(p, images.reshape(d, -1).T),
                        FqMatrix(p, np.array(targets).T)).data
    except ValueError:
        raise AssertionError(
            "no algebra element maps to a central idempotent of A/J")
    eps = [_lift_idempotent(_combine(c, basis, p), p)
           for c in coeffs.T.astype(np.int64)]
    ranks = []
    for ej in eps:
        # rows 0 of eps_j B_t, shape (d, 1, d)
        span = ej[:1] @ basis % p
        ranks.append([len(_rref((span @ ei % p).reshape(d, -1), p)[1])
                      for ei in eps])
    return ranks


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
    one nullspace.  At i = 0, the only step when p > d, the table is the
    trace form Tr(a b) of the basis, one product.  At i >= 1, g_i is read
    on a reduced echelon basis a_u of I_{i-1} alone, from one stack of
    powers, and carried to the a_u b by linearity: a_u b lies in the ideal
    I_{i-1}, and its coordinates there are its entries at the basis's
    pivots.  Powers are taken mod p^(i+1) <= p d, so one product stays
    below p^2 d^3, and the temporaries stay at k d^2 entries.
    """
    k, d, _ = basis.shape
    if p * p * d ** 3 >= 2 ** 63:
        raise AssertionError(
            f"trace powers of {d} x {d} matrices mod p^2 d overflow int64")
    # Tr(a b) = sum_xy a[x, y] b^T[x, y]
    table = (basis.reshape(k, -1)
             @ basis.transpose(0, 2, 1).reshape(k, -1).T % p)
    ideal = _combine(_nullspace(table.T, p).astype(np.int64), basis, p)
    q = p
    while q <= d and len(ideal):
        # g_i on a reduced basis a_u of I_{i-1}, and on a b by linearity:
        # the coordinates of a b in that basis are its pivot entries
        flat, pivots = _rref(ideal.reshape(len(ideal), -1), p)
        ideal = flat[:len(pivots)].astype(np.int64).reshape(-1, d, d)
        traces = np.trace(_matrix_power(ideal, q, q * p),
                          axis1=1, axis2=2) % (q * p)
        if (traces % q).any():
            raise AssertionError(
                f"a trace of a {q}-th power is not divisible by {q}")
        xs, ys = np.divmod(pivots, d)
        coords = np.einsum("suz,tzu->stu", ideal[:, xs, :], basis[:, :, ys])
        table = coords % p @ (traces // q) % p
        keep = _nullspace(table.T, p).astype(np.int64)
        ideal = _combine(keep, ideal, p)
        q *= p
    return ideal


def _combine(x, mats, p):
    """The combinations sum_t x[..., t] mats[t] mod p of a stack of
    matrices, for an int64 coefficient row x or a stack of them."""
    return (x @ mats.reshape(len(mats), -1) % p).reshape(
        x.shape[:-1] + mats.shape[1:])


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


def _isotypic_parts(images, p):
    """The isotypic parts U_i = S_i^(n_i) of the regular module of a
    semisimple algebra B, as (row basis, e_i, n_i), e_i the degree of
    End(S_i) over F_p.

    `images` holds the actions of a spanning set of B, shape (d, h, h),
    whose rows 0 span F_p^h, so that B is faithful on row 0.  The centre
    Z is the span of the combinations x of `images` with x b = b x for
    every b in `images`, tested on row 0; its basis z_1, ..., z_c is the
    reduced echelon one.  Z is D_1 + ... + D_k, D_i = End(S_i) a field of
    degree e_i that acts on U_i, so its split part {z in Z : z^p = z}
    (Berlekamp, Math. Comp. 24 (1970)) is F_p + ... + F_p, a scalar on
    each U_i.  z -> z^p is F_p-linear on the commutative Z, and the
    coordinates of a central element are its entries at the basis's
    pivots, so the split part is one nullspace.  Refining the head by the
    eigenspaces of each of its basis elements, at the roots in F_p of
    their minimal polynomials, leaves exactly the k parts, with no
    factoring.  D_i acts freely on U_i, so the u z_t for one nonzero u in
    U_i have rank e_i, and dim U_i = n_i^2 e_i gives n_i.

    The parts are ordered by dim S_i = n_i e_i, and then by the tuple over
    t of the minimal polynomial of z_t on U_i (irreducible, read off one
    vector of U_i; -lambda + X for a scalar lambda when e_i = 1).
    """
    d, h, _ = images.shape
    # row 0 of x_s x_t - x_t x_s for x = images, at [s, t]
    comm = (images[:, None, :1, :] @ images[None]
            - images[None, :, :1, :] @ images[:, None]) % p
    flat = images.reshape(d, -1)
    if comm.any():
        # the centre is spanned by the commuting combinations; when all
        # of B commutes it is B itself
        flat = _nullspace(comm.reshape(d, -1).T, p).astype(np.int64) \
            @ flat % p
    centre, pivots = _rref(flat, p)
    c = len(pivots)
    centre = centre[:c].astype(np.int64).reshape(-1, h, h)
    # the coordinates x of a split element have x (F - I) = 0, for F[s, t]
    # the coordinate t of z_s^p
    frobenius = _matrix_power(centre, p, p).reshape(c, -1)[:, pivots]
    split = _nullspace((frobenius - np.eye(c, dtype=np.int64)).T, p)
    pieces = [np.eye(h, dtype=np.int64)]
    for z in _combine(split.astype(np.int64), centre, p):
        pieces = [piece for U in pieces for piece in _eigenspaces(U, z, p)]
    if len(pieces) != len(split):
        raise AssertionError(
            f"the split centre of dimension {len(split)} separates the head "
            f"into {len(pieces)} parts")
    parts = []
    for U in pieces:
        # k = c parts leave each e_i = 1, as c = e_1 + ... + e_k
        e = 1 if len(pieces) == c else len(_rref(U[0] @ centre % p, p)[1])
        n = math.isqrt(len(U) // e)
        if n * n * e != len(U):
            raise AssertionError(
                f"an isotypic part of dimension {len(U)} is not n^2 e "
                f"for e = {e}")
        parts.append((U, e, n))
    sizes = [e * n for _, e, n in parts]
    return sorted(parts, key=lambda part: (
        part[1] * part[2],
        _order_key(part[0][0], part[1], centre, p)
        if sizes.count(part[1] * part[2]) > 1 else ()))


def _eigenspaces(U, z, p):
    """The eigenspaces of z on the row space of U, invariant under z, as
    row bases; they fill it when z is diagonalizable there over F_p."""
    # most split elements are scalar on most pieces, and on every line:
    # skip the elimination
    if len(U) == 1:
        return [U]
    j = np.flatnonzero(U[0])[0]
    lam = int(U[0] @ z[:, j]) * pow(int(U[0, j]), -1, p) % p
    if not ((U @ z - lam * U) % p).any():
        return [U]
    U, pivots = _rref(U, p)
    U = U.astype(np.int64)
    X = (U @ z % p)[:, pivots]
    ident = np.eye(len(X), dtype=np.int64)
    roots = zpoly._fp_roots(_local_min_poly(X, ident, p), p)
    spaces = [_nullspace((X - root * ident).T, p).astype(np.int64) @ U % p
              for root in roots]
    if sum(map(len, spaces)) != len(U):
        raise AssertionError(
            "the eigenspaces of a split central element do not fill a "
            "piece of the head")
    return spaces


def _order_key(u, e, centre, p):
    """The minimal polynomials of the z_t in `centre` on the isotypic part
    holding the nonzero row u, whose centre has degree e."""
    if e > 1:
        return tuple(_local_min_poly(z, u, p) for z in centre)
    j = np.flatnonzero(u)[0]
    lam = (u @ centre % p)[:, j] * pow(int(u[j]), -1, p) % p
    return tuple((-int(x) % p, 1) for x in lam)


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
    """(p, generators, dim) of a "matrix_group" scenario entry: {"p": p,
    "dim": dim, "generators": [dim x dim entries, row-major, or for p = 2
    a hex string of bit-packed rows]}."""
    if not isinstance(data, dict):
        raise ValueError("matrix_group must be an object")
    p, dim = data["p"], data["dim"]
    if type(dim) is not int or dim < 1 \
            or not isinstance(data["generators"], list):
        raise ValueError("matrix_group needs a dim >= 1 and a generator list")
    gens = []
    for g in data["generators"]:
        if isinstance(g, str):
            if p != 2:
                raise ValueError("hex-packed rows are only valid for p = 2")
            entries = np.unpackbits(np.frombuffer(bytes.fromhex(g),
                                                  dtype=np.uint8),
                                    bitorder="little")[:dim * dim]
        else:
            entries = np.array(g, dtype=np.int64).reshape(-1)
        if entries.size != dim * dim:
            raise ValueError("actions must be square of equal size")
        gens.append(FqMatrix(p, entries.reshape(dim, dim)))
    return p, gens, dim
