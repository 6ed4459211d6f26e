"""Matrices and modules over small prime fields: a mini MeatAxe.

Supports any prime p < 256.  A matrix stores one byte per entry (a uint8
array) for every p, and a product is one int64 matmul reduced mod p; the
matrices here are small, so per-object overhead dominates and no packed
form pays off for products.  Moving one vector is different: at p = 2,
`row_times` XORs the matrix's rows kept as Python ints (one bit per
entry, built on first use), one operation per selected row in place of
several numpy calls.  On top of the matrix layer sit the module
operations: spin, standard basis, fixed spaces, duals and quotients, the
Norton irreducibility test with the Holt-Rees criterion, chopping into
constituents, and Cartan matrices of algebra regular modules from lifted
idempotents of A/J.  Their vector loops work on int64 arrays and the
stacked generator matrices, not on 1-row matrices.

Row-vector convention throughout: vectors act from the left, x . M.
"""

import itertools
import random

import numpy as np

from . import zpoly
from .permgrp import seed_mix


class RetryBudgetExhausted(RuntimeError):
    """Raised when a randomized search runs out of attempts.

    Retriable: rerun with a larger budget or another seed; never a wrong
    answer.
    """


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

    def is_invertible(self):
        return self.nrows == self.ncols and self.rank() == self.nrows

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
    """Incremental reduced row echelon form over F_p, for spinning.

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

    def matrix(self):
        return FqMatrix(self.p, self.rows[np.argsort(self.pivots)])


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


def spin(seeds, rep):
    """Echelonized basis of the smallest invariant subspace containing seeds.

    Seeds may be an FqMatrix of rows or a list of vectors.  Every vector
    that enlarges the space is queued, and its images under all generators
    are one product with the stacked generators.
    """
    if isinstance(seeds, FqMatrix):
        seeds = seeds.data
    p = rep.p
    ech = EchelonBasis(p, rep.dim)
    queue = [v for v in seeds if ech.add(v)]
    gens = rep.stacked()
    qi = 0
    while qi < len(queue):
        for w in np.asarray(queue[qi], dtype=np.int64) @ gens % p:
            if ech.add(w):
                queue.append(w)
        qi += 1
    return ech.matrix()


class SeedDoesNotGenerate(ValueError):
    pass


def standard_basis(seed, rep):
    """Parker's standard basis from a generating seed vector.

    The basis is canonically determined by (seed, generator order): images
    of basis vectors under the generators are appended, in order, whenever
    they are independent of what came before.  Two isomorphic modules given
    corresponding seeds therefore produce identical rebased actions.
    """
    p = rep.p
    seed = np.asarray(seed, dtype=np.int64) % p
    ech = EchelonBasis(p, rep.dim)
    if not ech.add(seed):
        raise SeedDoesNotGenerate("zero seed")
    basis = [seed]
    gens = rep.stacked()
    qi = 0
    while qi < len(basis):
        for w in basis[qi] @ gens % p:
            if ech.add(w):
                basis.append(w)
        qi += 1
    if len(basis) != rep.dim:
        raise SeedDoesNotGenerate(
            f"seed spins to dimension {len(basis)} < {rep.dim}")
    return FqMatrix(p, np.array(basis))


def rebase(basis, rep):
    """Actions of rep in the coordinates of the given (square) basis."""
    inv = basis.inverse()
    return ModuleRep(rep.p, [basis * a * inv for a in rep.actions],
                     rep.dim)


def restrict(rep, basis):
    """Action on an invariant row space, in basis coordinates.

    The basis rows B must be independent.  With E the reduced echelon rows
    of their span and P its pivot columns, a vector w of the span has
    coordinates w[P] against E and w[P] . T against B, T = B[:, P]^-1.
    """
    if basis.nrows == 0:
        return ModuleRep(rep.p, [], 0), basis
    p = rep.p
    ech = EchelonBasis(p, rep.dim)
    for v in basis.data:
        ech.add(v)
    P = ech.pivots
    T = FqMatrix(p, basis.data[:, P]).inverse().data.astype(np.int64)
    img = basis.data.astype(np.int64) @ rep.stacked() % p
    coords = img[:, :, P]
    if ((img - coords @ ech.rows) % p).any():
        raise ValueError("basis is not invariant under the action")
    acts = [FqMatrix(p, c @ T) for c in coords]
    return ModuleRep(p, acts, basis.nrows), basis


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


def dual(rep):
    """Contragredient module: generators act by inverse transpose."""
    return ModuleRep(rep.p,
                     [a.inverse().transpose() for a in rep.actions], rep.dim)


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
# Random algebra elements, Norton test, chop

def random_algebra_element(rep, rng, words=4, length=4):
    """Sum of up to `words` random generator words with random coefficients."""
    d, p = rep.dim, rep.p
    total = FqMatrix.zeros(p, d, d)
    for _ in range(rng.randrange(1, words + 1)):
        m = FqMatrix.identity(p, d)
        for _ in range(rng.randrange(1, length + 1)):
            m = m * rep.actions[rng.randrange(len(rep.actions))]
        c = rng.randrange(1, p)
        total = total + m * c
    return total


def singular_elements(rep, rng):
    """Yield (f, f(a)) for a random algebra element a and the irreducible
    factors f of its minimal polynomial, each f(a) singular."""
    a = random_algebra_element(rep, rng)
    mp = min_poly(a)
    _, facs = zpoly.fp_factor(mp, rep.p)
    for f, _ in sorted(facs, key=lambda fm: len(fm[0])):
        yield f, _poly_of_matrix(a, f)


def is_irreducible(rep, seed=0, budget=30, enum_cap=4096):
    """Norton irreducibility test.

    Returns (True, witness) where the witness is a singular algebra element
    theta such that every kernel vector of theta spins to the full space
    and every kernel vector of its transpose spins to the full transposed
    module, or (False, proper submodule basis).  When theta = f(a) has
    nullity deg f (Holt-Rees), its kernel is one line over F_p[a]/(f), all
    of whose nonzero vectors spin to the same submodule, so one kernel
    vector and one transpose-kernel vector decide.  Otherwise kernel
    vectors are enumerated projectively, which makes the positive answer
    rigorous; such an element whose kernel is too big to enumerate is
    skipped in favour of the next one.  Raises RetryBudgetExhausted when
    the budget runs out; that error signals "increase the random element
    budget", never a wrong answer.
    """
    if rep.dim == 0:
        raise ValueError("zero module")
    if rep.dim == 1:
        return True, FqMatrix.zeros(rep.p, 1, 1)
    if not rep.actions:
        e = np.zeros(rep.dim, dtype=np.int64)
        e[0] = 1
        return False, FqMatrix(rep.p, e.reshape(1, -1))
    rng = random.Random(seed_mix(seed, rep.dim, rep.p, 0xA11CE))
    transposed = ModuleRep(rep.p, [a.transpose() for a in rep.actions],
                           rep.dim)
    for _ in range(budget):
        for f, theta in singular_elements(rep, rng):
            ker = theta.left_nullspace()
            if ker.nrows == 0:
                continue
            # quick reducibility scan on the basis vectors first
            for v in ker.toarray():
                sp = spin([v], rep)
                if sp.nrows < rep.dim:
                    return False, sp
            ker_t = theta.transpose().left_nullspace()
            if ker.nrows == zpoly.deg(f):
                # Holt-Rees: the scan above settled ker; one vector
                # settles ker_t
                ker_t = FqMatrix(rep.p, ker_t.data[:1])
            elif rep.p ** ker.nrows > enum_cap:
                continue
            else:
                proper = _kernel_spin_proper(ker, rep, skip_basis=True)
                if proper is not None:
                    return False, proper
            proper_t = _kernel_spin_proper(ker_t, transposed)
            if proper_t is not None:
                return False, proper_t.transpose().left_nullspace()
            return True, theta
    raise RetryBudgetExhausted(
        "no decisive singular algebra element; increase random element budget")


def _kernel_spin_proper(K, rep, skip_basis=False):
    """Spin every projective point of the kernel row space; return the first
    proper invariant subspace found, else None."""
    pts = _projective_points(K, rep.p)
    basis_keys = {v.tobytes() for v in K.toarray()} if skip_basis else set()
    for v in pts:
        if v.tobytes() in basis_keys:
            continue
        sp = spin([v], rep)
        if sp.nrows < rep.dim:
            return sp
    return None


class Constituent:
    """An irreducible constituent with its multiplicity and label."""

    def __init__(self, rep, multiplicity, label):
        self.rep = rep
        self.multiplicity = multiplicity
        self.label = label

    def __repr__(self):
        return f"({self.label})^{self.multiplicity}"


def _eval_words(rep, words, coeffs):
    d, p = rep.dim, rep.p
    total = FqMatrix.zeros(p, d, d)
    for w, c in zip(words, coeffs):
        m = FqMatrix.identity(p, d)
        for gi in w:
            m = m * rep.actions[gi]
        total = total + m * c
    return total


def _projective_points(K, p):
    """Nonzero vectors in the row space of K, one per scalar class."""
    k = K.nrows
    arr = K.toarray().astype(np.int64)
    out = []
    for idx in range(1, p ** k):
        digits = []
        t = idx
        for _ in range(k):
            digits.append(t % p)
            t //= p
        lead = next(d for d in reversed(digits) if d)
        if lead != 1:
            continue
        v = np.zeros(K.ncols, dtype=np.int64)
        for d, row in zip(digits, arr):
            v += d * row
        out.append((v % p).astype(np.uint8))
    return out


def isomorphic(m1, m2, seed=0, budget=30):
    """Isomorphism test for irreducible modules, by standard-basis rebasing.

    A singular word element gives matched kernel seeds in both modules;
    equality of the rebased generator actions is an explicit isomorphism.
    Kernel seeds in m2 are tried projectively, so endomorphism fields
    larger than F_p are handled.
    """
    if m1.dim != m2.dim or m1.p != m2.p:
        return False
    if len(m1.actions) != len(m2.actions):
        raise ValueError("modules must share a generator indexing")
    if m1.dim == 1:
        return all(a.toarray()[0, 0] == b.toarray()[0, 0]
                   for a, b in zip(m1.actions, m2.actions))
    p = m1.p
    rng = random.Random(seed_mix(seed, m1.dim, 0x15A))
    best = None
    for _ in range(budget):
        words = [[rng.randrange(len(m1.actions))
                  for _ in range(rng.randrange(1, 5))]
                 for _ in range(rng.randrange(1, 5))]
        coeffs = [rng.randrange(1, p) for _ in words]
        a1 = _eval_words(m1, words, coeffs)
        mp = min_poly(a1)
        _, facs = zpoly.fp_factor(mp, p)
        for f, _ in facs:
            t1 = _poly_of_matrix(a1, f)
            k1 = t1.left_nullspace()
            if k1.nrows == 0:
                continue
            if best is None or k1.nrows < best[0]:
                best = (k1.nrows, words, coeffs, f, k1)
            if k1.nrows == 1:
                break
        if best and best[0] == 1:
            break
    if best is None:
        raise RetryBudgetExhausted("no singular word element found")
    _, words, coeffs, f, k1 = best
    t2 = _poly_of_matrix(_eval_words(m2, words, coeffs), f)
    k2 = t2.left_nullspace()
    if k2.nrows != k1.nrows:
        return False
    try:
        b1 = standard_basis(k1.toarray()[0], m1)
    except SeedDoesNotGenerate:
        raise ValueError("isomorphic() expects irreducible modules")
    r1 = rebase(b1, m1)
    for v2 in _projective_points(k2, p):
        try:
            b2 = standard_basis(v2, m2)
        except SeedDoesNotGenerate:
            raise ValueError("isomorphic() expects irreducible modules")
        r2 = rebase(b2, m2)
        if all(a == b for a, b in zip(r1.actions, r2.actions)):
            return True
    return False


def chop(rep, seed=0):
    """Irreducible constituents with multiplicities.

    Labels are dimension plus a letter in discovery order ("1a", "2a", ...);
    isomorphic constituents are identified by standard-basis rebasing.
    """
    raw = []
    stack = [rep]
    while stack:
        m = stack.pop()
        if m.dim == 0:
            continue
        ok, witness = is_irreducible(m, seed=seed)
        if ok:
            raw.append(m)
            continue
        sub_rep, _ = restrict(m, witness)
        quo_rep, _ = quotient(m, witness)
        stack.append(sub_rep)
        stack.append(quo_rep)
    classes = []
    for m in raw:
        for cls in classes:
            if cls.rep.dim == m.dim and isomorphic(cls.rep, m, seed):
                cls.multiplicity += 1
                break
        else:
            classes.append(Constituent(m, 1, None))
    classes.sort(key=lambda c: c.rep.dim)
    per_dim = {}
    for cls in classes:
        i = per_dim.get(cls.rep.dim, 0)
        per_dim[cls.rep.dim] = i + 1
        cls.label = f"{cls.rep.dim}{chr(ord('a') + i)}"
    total = sum(c.multiplicity * c.rep.dim for c in classes)
    if total != rep.dim:
        raise AssertionError(
            f"chop lost dimensions: {total} != {rep.dim}")
    return classes


# ---------------------------------------------------------------------------
# Homomorphisms, minimal polynomials, Cartan matrices

def hom_basis(m1, m2):
    """Basis of Hom(m1, m2): matrices F with A1_g F = F A2_g for all g.

    The equations for F, flattened row-major, are L . vec(F) = 0 with
    L = A1 (x) I - I (x) A2^T for each generator; L is filled in place as a
    (d1, d2, d1, d2) array.
    """
    p = m1.p
    d1, d2 = m1.dim, m2.dim
    if d1 == 0 or d2 == 0:
        return []
    i1, i2 = np.arange(d1), np.arange(d2)
    blocks = []
    for A, B in zip(m1.stacked(), m2.stacked()):
        L = np.zeros((d1, d2, d1, d2), dtype=np.int64)
        L[:, i2, :, i2] += A
        L[i1, :, i1, :] -= B.T
        blocks.append(L.reshape(d1 * d2, d1 * d2) % p)
    if not blocks:
        return [FqMatrix(p, m) for m in np.eye(d1 * d2, dtype=np.int64)
                .reshape(d1 * d2, d1, d2)] if d1 == d2 else []
    basis = _nullspace(np.concatenate(blocks, axis=0), p)
    return [FqMatrix(p, vec.reshape(d1, d2)) for vec in basis]


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


def cartan_matrix(regular, seed=0):
    """Cartan matrix of an algebra regular module.

    Entry (j, i) is the multiplicity of the simple S_i in the projective
    indecomposable P_j; rows and columns are ordered by constituent label.
    Returns (labels, matrix, pim_dims, constituents).

    The simples come from one chop; the rest is deterministic.  The
    algebra A spanned by the words in the generators has the regular
    module V as a faithful module, so dim A = dim V, and A maps onto
    A/J = End_{D_1}(S_1) + ... + End_{D_k}(S_k), D_i = End_A(S_i) of
    dimension e_i, S_i = D_i^{n_i}.  One solve gives elements of A that map
    to the central idempotents of A/J; e <- 3e^2 - 2e^3 lifts them to
    idempotents eps_j (Curtis and Reiner, Methods of Representation Theory
    I, sec. 6).  Then eps_j A is P_j^{n_j}, and dim eps_j A eps_i =
    dim Hom_A(eps_i A, eps_j A) = n_i n_j e_i C[j][i] is read as the rank
    of the vectors v0 eps_j B_t eps_i over a basis B_t of A, for a vector
    v0 that generates V.  Every step is checked and raises AssertionError.
    """
    cons = chop(regular, seed)
    p, d = regular.p, regular.dim
    simples = [c.rep for c in cons]
    basis, *images = _algebra_basis(regular, simples)
    if len(basis) != d:
        raise AssertionError(
            f"the generators span an algebra of dimension {len(basis)} "
            f"!= {d}: not a regular module")
    # eps_j maps to the identity on S_j and to zero on the other simples
    R = np.concatenate([im.reshape(d, -1) for im in images], axis=1)
    targets = np.zeros((len(cons), R.shape[1]), dtype=np.int64)
    col = 0
    for j, s in enumerate(simples):
        targets[j, col:col + s.dim ** 2] = np.eye(s.dim).reshape(-1)
        col += s.dim ** 2
    try:
        coeffs = _solve(FqMatrix(p, R.T), FqMatrix(p, targets.T)).data
    except ValueError:
        raise AssertionError(
            "no algebra element maps to a central idempotent of A/J")
    eps = [_lift_idempotent(np.tensordot(c, basis, axes=1) % p, p)
           for c in coeffs.T.astype(np.int64)]
    v0 = next((u for u in range(d)
               if len(_rref(basis[:, u, :], p)[1]) == d), None)
    if v0 is None:
        raise AssertionError("no unit vector generates the regular module")
    ends = [len(hom_basis(s, s)) for s in simples]
    mults = [s.dim // e for s, e in zip(simples, ends)]
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
    dims = [sum(c * s.dim for c, s in zip(row, simples)) for row in C]
    if sum(n * dim for n, dim in zip(mults, dims)) != d:
        raise AssertionError(
            "projective indecomposables do not add up to the regular module")
    return [c.label for c in cons], C, dims, cons


def _algebra_basis(rep, simples):
    """A basis B_t of the algebra spanned by the words in rep's generators,
    with the images of each B_t on every simple: one (r, m, m) array per
    module, rep first.

    The identity is spun under right multiplication by the generators in
    rep + S_1 + ... + S_k.  A product is kept when its block on rep is
    independent of those kept; that decides for the whole sum as long as
    rep is faithful, which the dimension check of the caller confirms.
    """
    p, d = rep.p, rep.dim
    gens = [rep.stacked()] + [s.stacked() for s in simples]
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
