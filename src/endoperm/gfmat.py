"""Matrices and modules over small prime fields: a mini MeatAxe.

Supports any prime p < 256.  For p = 2 matrix rows are bit-packed into
64-bit words and multiplication works word-wise; for odd p entries live in
byte arrays with int64 accumulation.  On top of the matrix layer sit the
module operations: spin, standard basis, fixed spaces, duals and quotients,
the Norton irreducibility test, chopping into constituents, direct-summand
decomposition through idempotents of random endomorphisms, and Cartan
matrices of algebra regular modules.

Row-vector convention throughout: vectors act from the left, x . M.
"""

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


def _check_prime(p):
    if p < 2 or p >= 256 or any(p % d == 0 for d in range(2, int(p ** .5) + 1)):
        raise UnsupportedCharacteristic(
            f"unsupported characteristic {p} (need a prime < 256)")


def _pack2(arr):
    arr = np.asarray(arr, dtype=np.uint8) & 1
    nbytes = ((arr.shape[1] + 63) // 64) * 8
    packed = np.packbits(arr, axis=1, bitorder="little")
    out = np.zeros((arr.shape[0], nbytes), dtype=np.uint8)
    out[:, :packed.shape[1]] = packed
    return out.view(np.uint64)


def _unpack2(words, ncols):
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    return bits[:, :ncols].astype(np.uint8)


def row_times(x, mat):
    """x . mat for a row vector x encoded one byte per entry, returned in
    the same encoding; mat is read in its stored form.

    For p = 2 the packed rows of mat picked out by the odd entries of x are
    XORed and the sum is unpacked once; for odd p it is one int64 product
    mod p.
    """
    v = np.frombuffer(x, dtype=np.uint8)
    if len(v) != mat.nrows:
        raise ValueError("shape mismatch")
    if mat.p == 2:
        acc = np.bitwise_xor.reduce(mat.data[np.flatnonzero(v & 1)], axis=0)
        return np.unpackbits(acc.view(np.uint8), bitorder="little",
                             count=mat.ncols).tobytes()
    prod = v.astype(np.int64) @ mat.data.astype(np.int64)
    return (prod % mat.p).astype(np.uint8).tobytes()


class FqMatrix:
    """Immutable-by-convention matrix over F_p."""

    __slots__ = ("p", "nrows", "ncols", "data")

    def __init__(self, p, rows, _packed=None):
        _check_prime(p)
        self.p = p
        if _packed is not None:
            self.nrows, self.ncols = _packed[1], _packed[2]
            self.data = _packed[0]
            return
        arr = np.asarray(rows, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("need a 2-d array of entries")
        arr = np.mod(arr, p).astype(np.uint8)
        self.nrows, self.ncols = arr.shape
        self.data = _pack2(arr) if p == 2 else arr

    @classmethod
    def identity(cls, p, n):
        return cls(p, np.eye(n, dtype=np.int64))

    @classmethod
    def zeros(cls, p, r, c):
        return cls(p, np.zeros((r, c), dtype=np.int64))

    def toarray(self):
        """Entries as a uint8 numpy array (unpacked)."""
        if self.p == 2:
            return _unpack2(self.data, self.ncols)
        return self.data.copy()

    def row(self, i):
        return self.toarray()[i]

    def __eq__(self, other):
        return (isinstance(other, FqMatrix) and self.p == other.p
                and self.nrows == other.nrows and self.ncols == other.ncols
                and np.array_equal(self.data, other.data))

    def __hash__(self):
        return hash((self.p, self.nrows, self.ncols, self.data.tobytes()))

    def __add__(self, other):
        self._compat(other)
        if self.p == 2:
            return FqMatrix(2, None,
                            _packed=(self.data ^ other.data,
                                     self.nrows, self.ncols))
        return FqMatrix(self.p, self.data.astype(np.int64)
                        + other.data.astype(np.int64))

    def __sub__(self, other):
        self._compat(other)
        if self.p == 2:
            return self + other
        return FqMatrix(self.p, self.data.astype(np.int64)
                        - other.data.astype(np.int64))

    def _compat(self, other):
        if not isinstance(other, FqMatrix) or other.p != self.p:
            raise TypeError("mixed-field matrix arithmetic")

    def __mul__(self, other):
        if isinstance(other, int):
            return FqMatrix(self.p, self.toarray().astype(np.int64) * other)
        self._compat(other)
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        if self.p == 2:
            bits = _unpack2(self.data, self.ncols)
            out = np.zeros((self.nrows, other.data.shape[1]), dtype=np.uint64)
            for i in range(self.nrows):
                idx = np.nonzero(bits[i])[0]
                if len(idx):
                    out[i] = np.bitwise_xor.reduce(other.data[idx], axis=0)
            return FqMatrix(2, None, _packed=(out, self.nrows, other.ncols))
        prod = self.data.astype(np.int64) @ other.data.astype(np.int64)
        return FqMatrix(self.p, prod)

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        out = FqMatrix.identity(self.p, self.nrows)
        b = self
        while e:
            if e & 1:
                out = out * b
            b = b * b
            e >>= 1
        return out

    def transpose(self):
        return FqMatrix(self.p, self.toarray().T)

    def is_identity(self):
        return self == FqMatrix.identity(self.p, self.nrows)

    def is_zero(self):
        return not self.data.any()

    # -- elimination --------------------------------------------------------

    def rref(self):
        R, pivots = _rref(self.toarray(), self.p)
        return FqMatrix(self.p, R), pivots

    def rank(self):
        return len(self.rref()[1])

    def left_nullspace(self):
        """Rows v with v . M = 0."""
        basis = _nullspace(self.toarray().T, self.p)
        return FqMatrix(self.p, basis.reshape(-1, self.nrows))

    def right_nullspace(self):
        basis = _nullspace(self.toarray(), self.p)
        return FqMatrix(self.p, basis.reshape(-1, self.ncols))

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("not square")
        n = self.nrows
        aug = np.concatenate(
            [self.toarray(), np.eye(n, dtype=np.uint8)], axis=1)
        R, pivots = _rref(aug, self.p)
        if pivots[:n] != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return FqMatrix(self.p, R[:n, n:])

    def is_invertible(self):
        return self.nrows == self.ncols and self.rank() == self.nrows

    def stack(self, other):
        return FqMatrix(self.p, np.concatenate(
            [self.toarray(), other.toarray()], axis=0))

    def take_rows(self, idx):
        return FqMatrix(self.p, self.toarray()[list(idx)])

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
    free = [c for c in range(nc) if c not in pivots]
    basis = np.zeros((len(free), nc), dtype=np.int64)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for r, c in enumerate(pivots):
            basis[k, c] = (-int(R[r, f])) % p
    return basis.astype(np.uint8)


class EchelonBasis:
    """Incremental row echelon over F_p for spinning."""

    def __init__(self, p, ncols):
        self.p = p
        self.ncols = ncols
        self.rows = []      # echelonized rows, pivot ascending insert order
        self.pivots = []

    def reduce(self, v):
        v = v.astype(np.int64) % self.p
        for row, c in zip(self.rows, self.pivots):
            if v[c]:
                v = (v - v[c] * row) % self.p
        return v

    def add(self, v):
        """Reduce v; if independent, insert and return True."""
        v = self.reduce(v)
        nz = np.nonzero(v)[0]
        if len(nz) == 0:
            return False
        c = int(nz[0])
        v = (v * pow(int(v[c]), -1, self.p)) % self.p
        for i in range(len(self.rows)):
            if self.rows[i][c]:
                self.rows[i] = (self.rows[i] - self.rows[i][c] * v) % self.p
        self.rows.append(v)
        self.pivots.append(c)
        return True

    def dim(self):
        return len(self.rows)

    def contains(self, v):
        return not self.reduce(v).any()

    def matrix(self):
        order = np.argsort(np.array(self.pivots)) if self.pivots else []
        rows = [self.rows[i] for i in order]
        return FqMatrix(self.p, np.array(rows, dtype=np.int64)
                        if rows else np.zeros((0, self.ncols), np.int64))


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

    def __repr__(self):
        return f"ModuleRep(p={self.p}, dim={self.dim}, gens={len(self.actions)})"


def spin(seeds, rep):
    """Echelonized basis of the smallest invariant subspace containing seeds.

    Seeds may be an FqMatrix of rows or a list of vectors.
    """
    if isinstance(seeds, FqMatrix):
        seeds = list(seeds.toarray())
    ech = EchelonBasis(rep.p, rep.dim)
    queue = []
    for v in seeds:
        v = np.asarray(v, dtype=np.int64) % rep.p
        if ech.add(v.astype(np.uint8)):
            queue.append(ech.rows[-1])
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        vm = FqMatrix(rep.p, v.reshape(1, -1))
        for a in rep.actions:
            w = (vm * a).toarray()[0]
            if ech.add(w):
                queue.append(ech.rows[-1])
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
    seed = np.asarray(seed, dtype=np.int64) % rep.p
    ech = EchelonBasis(rep.p, rep.dim)
    if not ech.add(seed.astype(np.uint8)):
        raise SeedDoesNotGenerate("zero seed")
    basis = [seed.astype(np.uint8)]
    qi = 0
    while qi < len(basis):
        v = basis[qi]
        qi += 1
        vm = FqMatrix(rep.p, v.reshape(1, -1))
        for a in rep.actions:
            w = (vm * a).toarray()[0]
            if ech.add(w):
                basis.append(w)
    if len(basis) != rep.dim:
        raise SeedDoesNotGenerate(
            f"seed spins to dimension {len(basis)} < {rep.dim}")
    return FqMatrix(rep.p, np.array(basis, dtype=np.int64))


def rebase(basis, rep):
    """Actions of rep in the coordinates of the given (square) basis."""
    inv = basis.inverse()
    return ModuleRep(rep.p, [basis * a * inv for a in rep.actions],
                     rep.dim)


def restrict(rep, basis):
    """Action on an invariant row space, in basis coordinates."""
    if basis.nrows == 0:
        return ModuleRep(rep.p, [], 0), basis
    arr = basis.toarray()
    ech = EchelonBasis(rep.p, rep.dim)
    for v in arr:
        ech.add(v)
    acts = []
    for a in rep.actions:
        img = (basis * a).toarray()
        rows = []
        for w in img:
            coeff = _coords_in(ech, w, rep.p)
            if coeff is None:
                raise ValueError("basis is not invariant under the action")
            rows.append(coeff)
        # coords are w.r.t. ech rows; convert to basis rows
        T = _transition(ech, arr, rep.p)
        acts.append(FqMatrix(rep.p, np.array(rows, dtype=np.int64)) * T)
    return ModuleRep(rep.p, acts, basis.nrows), basis


def _coords_in(ech, v, p):
    v = v.astype(np.int64) % p
    coeff = np.zeros(len(ech.rows), dtype=np.int64)
    for i, (row, c) in enumerate(zip(ech.rows, ech.pivots)):
        if v[c]:
            coeff[i] = v[c]
            v = (v - v[c] * row) % p
    if v.any():
        return None
    return coeff


def _transition(ech, basis_rows, p):
    """Matrix T with (coords w.r.t. ech rows) * T = coords w.r.t. basis_rows."""
    # express each ech row in basis_rows by solving basis_rows^T x = row
    B = FqMatrix(p, np.array(basis_rows, dtype=np.int64))
    E = FqMatrix(p, np.array(ech.rows, dtype=np.int64)
                 if ech.rows else np.zeros((0, ech.ncols), np.int64))
    # solve X B = E  =>  B^T X^T = E^T
    Xt = _solve(B.transpose(), E.transpose())
    return FqMatrix(p, Xt.toarray().T)


def _solve(A, B):
    """X with A X = B (A of full column rank on its pivot columns)."""
    p = A.p
    aug = np.concatenate([A.toarray(), B.toarray()], axis=1)
    R, pivots = _rref(aug, p)
    n = A.ncols
    X = np.zeros((n, B.ncols), dtype=np.int64)
    for r, c in enumerate(pivots):
        if c >= n:
            raise ValueError("inconsistent system")
        X[c] = R[r, n:]
    if not np.array_equal((A.toarray().astype(np.int64) @ X) % p,
                          B.toarray().astype(np.int64) % p):
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
    return current.rref()[0].take_rows(range(current.rank())) \
        if current.nrows else current


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
    sub = sub_basis.toarray()
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
    inv = full.inverse()
    proj = FqMatrix(p, inv.toarray()[:, k:])
    acts = []
    for a in rep.actions:
        m = full * a * inv
        acts.append(FqMatrix(p, m.toarray()[k:, k:]))
    quo = ModuleRep(p, acts, rep.dim - k)
    for a, q in zip(rep.actions, quo.actions):
        if a * proj != proj * q:
            raise AssertionError("projection does not commute with action")
    return quo, proj


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
    """Yield singular algebra elements: f(a) for random a and irreducible
    factors f of a's minimal polynomial (Cayley-Hamilton makes each
    singular)."""
    a = random_algebra_element(rep, rng)
    mp = min_poly(a)
    _, facs = zpoly.fp_factor(mp, rep.p)
    for f, _ in sorted(facs, key=lambda fm: len(fm[0])):
        yield _poly_of_matrix(a, f)


def is_irreducible(rep, seed=0, budget=30, enum_cap=4096):
    """Norton irreducibility test.

    Returns (True, witness) where the witness is a singular algebra element
    theta such that every kernel vector of theta spins to the full space
    and every kernel vector of its transpose spins to the full transposed
    module, or (False, proper submodule basis).  Kernel vectors are
    enumerated projectively, which makes the positive answer rigorous; an
    element whose kernel is too big to enumerate is skipped in favour of
    the next one.  Raises RetryBudgetExhausted when the budget runs out;
    that error signals "increase the random element budget", never a wrong
    answer.
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
        for theta in singular_elements(rep, rng):
            ker = theta.left_nullspace()
            if ker.nrows == 0:
                continue
            # quick reducibility scan on the basis vectors first
            for v in ker.toarray():
                sp = spin([v], rep)
                if sp.nrows < rep.dim:
                    return False, sp
            if rep.p ** ker.nrows > enum_cap:
                continue
            proper = _kernel_spin_proper(ker, rep, skip_basis=True)
            if proper is not None:
                return False, proper
            ker_t = theta.transpose().left_nullspace()
            if rep.p ** ker_t.nrows > enum_cap:
                continue
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
# Endomorphism rings, summands, Cartan matrices

def hom_basis(m1, m2):
    """Basis of Hom(m1, m2): matrices F with A1_g F = F A2_g for all g."""
    p = m1.p
    d1, d2 = m1.dim, m2.dim
    if d1 == 0 or d2 == 0:
        return []
    blocks = []
    for a1, a2 in zip(m1.actions, m2.actions):
        A = a1.toarray().astype(np.int64)
        B = a2.toarray().astype(np.int64)
        L = np.kron(A, np.eye(d2, dtype=np.int64)) \
            - np.kron(np.eye(d1, dtype=np.int64), B.T)
        blocks.append(L % p)
    if not blocks:
        return [FqMatrix(p, m) for m in np.eye(d1 * d2, dtype=np.int64)
                .reshape(d1 * d2, d1, d2)] if d1 == d2 else []
    big = np.concatenate(blocks, axis=0)
    basis = _nullspace(big, p)
    return [FqMatrix(p, vec.astype(np.int64).reshape(d1, d2))
            for vec in basis]


def endomorphism_basis(rep):
    return hom_basis(rep, rep)


def min_poly(mat):
    """Minimal polynomial: lcm of local minimal polynomials of unit vectors."""
    p, d = mat.p, mat.nrows
    poly = (1,)
    for start in range(d):
        v = np.zeros(d, dtype=np.int64)
        v[start] = 1
        vm = FqMatrix(p, v.reshape(1, -1))
        if _apply_poly(mat, poly, vm).is_zero():
            continue
        ech = EchelonBasis(p, d)
        krylov = []
        w = vm
        while ech.add(w.toarray()[0]):
            krylov.append(w.toarray()[0])
            w = w * mat
        K = FqMatrix(p, np.array(krylov, dtype=np.int64))
        coeff = _solve(K.transpose(), w.transpose()).toarray()[:, 0]
        loc = zpoly.fp_trim([(-int(c)) % p for c in coeff] + [1], p)
        g = zpoly.fp_gcd(poly, loc, p)
        poly = zpoly.fp_mul(poly, zpoly.fp_divmod(loc, g, p)[0], p)
        if zpoly.deg(poly) == d:
            break
    return poly


def _apply_poly(mat, poly, vec):
    out = FqMatrix.zeros(mat.p, 1, mat.nrows)
    pw = vec
    for c in poly:
        if c:
            out = out + pw * int(c)
        pw = pw * mat
    return out


def _poly_of_matrix(mat, poly):
    p, d = mat.p, mat.nrows
    out = FqMatrix.zeros(p, d, d)
    pw = FqMatrix.identity(p, d)
    for c in poly:
        if c:
            out = out + pw * int(c)
        pw = pw * mat
    return out


def split_by_idempotents(rep, theta):
    """Split along the primary decomposition of theta's minimal polynomial.

    Returns a list of invariant bases (one per primary part), or None when
    the minimal polynomial is primary (no split from this element).
    """
    p = rep.p
    mp = min_poly(theta)
    _, facs = zpoly.fp_factor(mp, p)
    if len(facs) <= 1:
        return None
    parts = []
    for f, e in facs:
        q = (1,)
        for _ in range(e):
            q = zpoly.fp_mul(q, f, p)
        parts.append(q)
    bases = []
    for q in parts:
        g = (1,)
        for other in parts:
            if other is not q:
                g = zpoly.fp_mul(g, other, p)
        # u with u*g = 1 mod q
        s, t = zpoly._fp_ext_gcd(zpoly.fp_divmod(g, q, p)[1], q, p)
        eps = _poly_of_matrix(theta, zpoly.fp_mul(s, g, p))
        img = eps.rref()[0].take_rows(range(eps.rank()))
        bases.append(img)
    if sum(b.nrows for b in bases) != rep.dim:
        raise AssertionError("idempotent split does not cover the module")
    return bases


def summands(rep, seed=0, budget=30, endo=None):
    """Indecomposable direct summands, as (basis in parent, rep) pairs.

    Idempotents come from factored minimal polynomials of random elements
    of the endomorphism ring; iterated until no summand splits further.
    The endomorphism basis may be supplied (for algebra regular modules it
    is the left multiplications); otherwise it is solved for.
    """
    out = []
    first = FqMatrix.identity(rep.p, rep.dim)
    work = [(first, rep, endo)]
    while work:
        basis, sub, endo_b = work.pop()
        if sub.dim == 0:
            continue
        if endo_b is None:
            endo_b = endomorphism_basis(sub)
        if len(endo_b) == 1:
            out.append((basis, sub))
            continue
        rng = random.Random(seed_mix(seed, sub.dim, len(out), len(work)))
        pieces = None
        for attempt in range(budget + len(endo_b)):
            if attempt < len(endo_b):
                theta = endo_b[attempt]
            else:
                theta = FqMatrix.zeros(sub.p, sub.dim, sub.dim)
                for e in endo_b:
                    theta = theta + e * rng.randrange(sub.p)
            if theta.is_zero():
                continue
            pieces = split_by_idempotents(sub, theta)
            if pieces:
                break
        if not pieces:
            out.append((basis, sub))
            continue
        for piece in pieces:
            piece_rep, _ = restrict(sub, piece)
            lifted = piece * basis
            # endomorphism rings of summands are recomputed from scratch:
            # left multiplications do not restrict without a projector
            work.append((lifted, piece_rep, None))
    out.sort(key=lambda bs: -bs[1].dim)
    return out


def cartan_matrix(regular, seed=0, endo=None):
    """Cartan matrix of an algebra regular module.

    Entry (i, j) is the multiplicity of the simple S_j in the projective
    indecomposable P_i; rows and columns are ordered by constituent label.
    Returns (labels, matrix, pim_dims, constituents).
    """
    cons = chop(regular, seed)
    labels = [c.label for c in cons]
    pieces = summands(regular, seed, endo=endo)
    heads = []
    for basis, sub in pieces:
        tops = [i for i, c in enumerate(cons) if len(hom_basis(sub, c.rep))]
        if len(tops) != 1:
            raise AssertionError(
                f"summand of dim {sub.dim} has {len(tops)} simple quotients; "
                "not an indecomposable projective decomposition")
        heads.append(tops[0])
    r = len(cons)
    C = [[0] * r for _ in range(r)]
    dims = [0] * r
    seen = [0] * r
    for (basis, sub), h in zip(pieces, heads):
        seen[h] += 1
        if seen[h] > 1:
            continue
        dims[h] = sub.dim
        for c2 in chop(sub, seed):
            j = _match_constituent(c2, cons, seed)
            C[h][j] = c2.multiplicity
    for i, c in enumerate(cons):
        # a simple with endomorphism field F_{p^e} heads dim(S)/e summands
        e = len(hom_basis(c.rep, c.rep))
        if seen[i] * e != c.rep.dim:
            raise AssertionError(
                "projective multiplicities do not match simple dimensions")
    return labels, C, dims, cons


def _match_constituent(c2, cons, seed):
    for j, c in enumerate(cons):
        if c.rep.dim == c2.rep.dim and isomorphic(c.rep, c2.rep, seed):
            return j
    raise AssertionError("constituent not found among regular constituents")


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
