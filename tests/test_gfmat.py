import random

import numpy as np
import pytest

from endoperm.gfmat import (FqMatrix, ModuleRep, UnsupportedCharacteristic,
                            _algebra_basis, _lift_idempotent, _matrix_power,
                            _radical, cartan_matrix, fixed_space, min_poly,
                            quotient, rep_from_json, rep_to_json, row_times,
                            vector_bytes)
from endoperm import zpoly
from endoperm.permgrp import Permutation, closure_elements


def perm_mat(p, images):
    M = np.zeros((len(images), len(images)), dtype=int)
    for i, j in enumerate(images):
        M[i, j] = 1
    return FqMatrix(p, M)


def cyclic_rep(p, n):
    return ModuleRep(p, [perm_mat(p, [(i + 1) % n for i in range(n)])])


def s3_perm_rep(p):
    return ModuleRep(p, [perm_mat(p, [1, 0, 2]), perm_mat(p, [1, 2, 0])])


def test_matrix_arithmetic_matches_numpy():
    rng = np.random.RandomState(3)
    for p in (2, 3, 5, 251):
        for _ in range(8):
            n = rng.randint(1, 9)
            A = FqMatrix(p, rng.randint(0, p, (n, n)))
            B = FqMatrix(p, rng.randint(0, p, (n, n)))
            want = (A.toarray().astype(np.int64)
                    @ B.toarray().astype(np.int64)) % p
            assert np.array_equal((A * B).toarray(), want)
            assert np.array_equal(
                (A + B).toarray(),
                (A.toarray().astype(np.int64) + B.toarray()) % p)
            if A.rank() == n:
                assert (A * A.inverse()).is_identity()
            N = A.left_nullspace()
            if N.nrows:
                assert (N * A).is_zero()
            assert A.rank() + N.nrows == n


def test_fixed_space_examples():
    triv = ModuleRep(5, [FqMatrix.identity(5, 4)])
    assert fixed_space(triv).nrows == 4
    c2_reg = ModuleRep(3, [perm_mat(3, [1, 0])])
    fx = fixed_space(c2_reg)
    assert fx.nrows == 1 and list(fx.toarray()[0]) == [1, 1]
    for p in (2, 3, 5):
        rep = s3_perm_rep(p)
        fx = fixed_space(rep)
        assert fx.nrows == 1 and set(fx.toarray()[0]) == {1}


def test_quotient_examples():
    rep = s3_perm_rep(5)
    full = FqMatrix.identity(5, 3)
    quo, proj = quotient(rep, full)
    assert quo.dim == 0
    # F2 permutation module of S3 modulo the fixed vector: compare with a
    # directly constructed 2-dimensional action on coset coordinates
    rep2 = s3_perm_rep(2)
    quo2, proj2 = quotient(rep2, fixed_space(rep2))
    assert quo2.dim == 2
    for a, q in zip(rep2.actions, quo2.actions):
        assert a * proj2 == proj2 * q


def test_min_poly_random():
    rng = random.Random(0)
    for trial in range(25):
        p = rng.choice([2, 3, 5, 11])
        n = rng.randrange(1, 8)
        A = FqMatrix(p, np.random.RandomState(trial).randint(0, p, (n, n)))
        mp = min_poly(A)
        from endoperm.gfmat import _poly_of_matrix
        assert _poly_of_matrix(A, mp).is_zero()
        _, facs = zpoly.fp_factor(mp, p)
        for f, e in facs:
            q = zpoly.fp_divmod(mp, f, p)[0]
            assert not _poly_of_matrix(A, q).is_zero()


def test_summands_and_cartan():
    c5 = cyclic_rep(5, 5)
    labels, C, dims, simples = cartan_matrix(c5)
    # F_5[C_5] is local: one projective indecomposable, the whole module
    assert C == [[5]] and dims == [5]
    c6 = cyclic_rep(5, 6)
    labels, C, dims, simples = cartan_matrix(c6)
    k = len(labels)
    assert C == [[int(i == j) for j in range(k)] for i in range(k)]
    # the projective indecomposables of a semisimple commutative algebra
    # are its simples
    assert dims == [dim for _, dim, _, _, _ in simples]
    assert sorted(dims) == [1, 1, 2, 2]


def group_regular_rep(gens, p):
    """F_p[G] acting on itself by right multiplication, in the basis of
    group elements."""
    gens = [Permutation(g) for g in gens]
    elems = sorted(closure_elements(gens, gens[0].degree),
                   key=lambda q: q.images)
    index = {x.images: i for i, x in enumerate(elems)}
    return ModuleRep(p, [perm_mat(p, [index[(x * g).images] for x in elems])
                         for g in gens])


S3 = [[1, 0, 2], [1, 2, 0]]
A4 = [[1, 2, 0, 3], [1, 0, 3, 2]]
C7 = [[1, 2, 3, 4, 5, 6, 0]]


@pytest.mark.parametrize("gens, p, want_dims, want_ends, want_C, want_pims", [
    (S3, 2, [1, 2], [1, 1], [[2, 0], [0, 1]], [2, 2]),
    # d = 6 < p^2: floor(log_p d) = 1, the shape of J4's E at p = 11
    (S3, 3, [1, 1], [1, 1], [[2, 1], [1, 2]], [3, 3]),
    # the 2-dim simple of A4 at p = 2 has End = F_4: C is not symmetric,
    # and row j lists the composition factors of P_j
    (A4, 2, [1, 2], [1, 2], [[2, 1], [2, 3]], [4, 8]),
    # x^7 - 1 = (x + 1)(x^3 + x + 1)(x^3 + x^2 + 1) over F_2
    (C7, 2, [1, 3, 3], [1, 3, 3], [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
     [1, 3, 3]),
    # x^7 - 1 = (x - 1) * Phi_7 over F_5, Phi_7 irreducible: a 6-dim simple
    # with End = F_(5^6)
    (C7, 5, [1, 6], [1, 6], [[1, 0], [0, 1]], [1, 6]),
    # p-groups: F_p[G] is local with the single simple the trivial module;
    # D4 at p = 2 (d = 8) and C3^3 at p = 3 (d = 27) take the trace ladder
    # of the radical to its fourth step, i = floor(log_p d) = 3
    ([[1, 2, 3, 0], [0, 3, 2, 1]], 2, [1], [1], [[8]], [8]),
    ([[1, 2, 0, 3, 4, 5, 6, 7, 8], [0, 1, 2, 4, 5, 3, 6, 7, 8],
      [0, 1, 2, 3, 4, 5, 7, 8, 6]], 3, [1], [1], [[27]], [27]),
    ([[1, 2, 3, 4, 0]], 5, [1], [1], [[5]], [5]),
], ids=["S3-p2", "S3-p3", "A4-p2", "C7-p2", "C7-p5", "D4-p2", "C3^3-p3",
        "C5-p5"])
def test_cartan_known_answers(gens, p, want_dims, want_ends, want_C,
                              want_pims):
    reg = group_regular_rep(gens, p)
    labels, C, dims, simples = cartan_matrix(reg)
    assert [s[1] for s in simples] == want_dims
    assert [s[2] for s in simples] == want_ends
    assert C == want_C and dims == want_pims
    d = reg.dim
    mults = [n for _, _, _, n, _ in simples]
    # F_p[G] is P_1^(n_1) + ... + P_k^(n_k), n_j = dim S_j / e_j
    assert sum(n * dim for n, dim in zip(mults, dims)) == d
    assert all(n * e == s for _, s, e, n, _ in simples)
    # A/J = sum of the End_(D_i)(S_i), of dimension n_i^2 e_i
    basis, = _algebra_basis(reg, [])
    radical = _radical(basis, p)
    assert d - len(radical) == sum(n * n * e for _, _, e, n, _ in simples)
    if len(radical):
        assert not _matrix_power(radical, d, p).any()
    # the composition multiplicities of S_i in F_p[G] weigh d
    assert sum(s * m for _, s, _, _, m in simples) == d


def test_cartan_rejects_a_module_that_is_not_regular():
    # the permutation module of S3 over F_5 is 1 + 2: its algebra has
    # dimension 1 + 4 = 5, not 3
    with pytest.raises(AssertionError):
        cartan_matrix(s3_perm_rep(5))


def test_lift_idempotent():
    # an idempotent plus a nilpotent that does not commute with it
    e = np.diag([1, 1, 0, 0]).astype(np.int64)
    e[0, 3] = e[1, 2] = e[2, 3] = 1
    for p in (2, 3, 7):
        assert not np.array_equal(e @ e % p, e % p)
        lifted = _lift_idempotent(e % p, p)
        assert np.array_equal(lifted @ lifted % p, lifted)
        assert FqMatrix(p, lifted).rank() == 2
    # I / 2 is fixed by e -> 3e^2 - 2e^3 and is not idempotent
    with pytest.raises(AssertionError):
        _lift_idempotent(3 * np.eye(3, dtype=np.int64), 5)


def test_cartan_symmetric_on_group_algebras():
    # group algebras are symmetric algebras; D4 over F2 and F3, C6 over F5
    from endoperm.permgrp import GeneratedGroup, Permutation, \
        closure_elements
    r, s = Permutation([1, 2, 3, 0]), Permutation([0, 3, 2, 1])
    elems = sorted(closure_elements([r, s], 4), key=lambda q: q.images)

    def rmul(g):
        return perm_mat(0, [elems.index(x * g) for x in elems])

    for p in (2, 3, 5):
        acts = []
        for g in (r, s):
            images = [elems.index(x * g) for x in elems]
            acts.append(perm_mat(p, images))
        reg = ModuleRep(p, acts)
        labels, C, dims, simples = cartan_matrix(reg)
        assert all(C[i][j] == C[j][i]
                   for i in range(len(C)) for j in range(len(C)))
        # dim P_S = [E : S] for split symmetric algebras
        for i, (_, dim, e, _, mult) in enumerate(simples):
            if e == 1:
                assert dims[i] == mult * dim or dims[i] == mult


def test_vector_bytes():
    assert vector_bytes(2, 112) == 18
    assert vector_bytes(3, 10) == 14


def test_rep_json_and_hex():
    rep = s3_perm_rep(3)
    back = rep_from_json(rep_to_json(rep))
    assert all(a == b for a, b in zip(rep.actions, back.actions))
    bits = np.unpackbits(np.frombuffer(b"\x00", np.uint8))
    ident = FqMatrix.identity(2, 2)
    packed = np.packbits(ident.toarray().reshape(-1),
                         bitorder="little").tobytes().hex()
    rep2 = rep_from_json({"p": 2, "dim": 2, "generators": [packed]})
    assert rep2.actions[0] == ident
    with pytest.raises(ValueError):
        rep_from_json({"p": 3, "dim": 2, "generators": [packed]})


# -- the matrix kernel against plain Python-int arithmetic --------------------

KERNEL_PRIMES = (2, 3, 11, 251)
KERNEL_SHAPES = ((0, 3), (3, 0), (0, 0), (1, 1), (2, 5), (5, 2), (4, 4),
                 (7, 7))


def ref_mul(A, B, p, inner, ncols):
    return [[sum(A[i][k] * B[k][j] for k in range(inner)) % p
             for j in range(ncols)] for i in range(len(A))]


def ref_rref(A, p, ncols):
    M = [[x % p for x in row] for row in A]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(M)) if M[i][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = pow(M[r][c], -1, p)
        M[r] = [x * inv % p for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [(x - f * y) % p for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    return M, pivots


def ref_nullspace(A, p, ncols):
    """Rows v with A v^T = 0: one per free column f, 1 at f, 0 at the other
    free columns."""
    R, pivots = ref_rref(A, p, ncols)
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = -R[r][f] % p
        out.append(v)
    return out


def ref_transpose(A, nrows, ncols):
    return [[A[i][j] for i in range(nrows)] for j in range(ncols)]


def as_matrix(p, rows, nrows, ncols):
    return FqMatrix(p, np.array(rows, dtype=np.int64).reshape(nrows, ncols))


def as_lists(M):
    return M.toarray().astype(int).tolist()


def random_rows(rng, p, m, n, rank=None):
    """An m x n matrix of Python ints, of rank at most `rank`."""
    if rank is None:
        return [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
    return ref_mul(random_rows(rng, p, m, rank),
                   random_rows(rng, p, rank, n), p, rank, n)


def test_kernel_matches_python_int_reference():
    rng = random.Random(4)
    for p in KERNEL_PRIMES:
        for m, n in KERNEL_SHAPES:
            for rank in (None, 1, max(min(m, n) - 1, 0)):
                A = random_rows(rng, p, m, n, rank)
                B = random_rows(rng, p, m, n)
                C = random_rows(rng, p, n, 3)
                FA, FB = as_matrix(p, A, m, n), as_matrix(p, B, m, n)
                FC = as_matrix(p, C, n, 3)
                assert as_lists(FA * FC) == ref_mul(A, C, p, n, 3)
                assert as_lists(FA + FB) == [
                    [(a + b) % p for a, b in zip(ra, rb)]
                    for ra, rb in zip(A, B)]
                assert as_lists(FA - FB) == [
                    [(a - b) % p for a, b in zip(ra, rb)]
                    for ra, rb in zip(A, B)]
                for c in (0, 1, p - 1, 7 * p + 3, -5):
                    assert as_lists(FA * c) == [[a * c % p for a in row]
                                                for row in A]
                R, pivots = FA.rref()
                want_R, want_pivots = ref_rref(A, p, n)
                assert as_lists(R) == want_R and pivots == want_pivots
                right = FA.right_nullspace()
                assert right.ncols == n
                assert as_lists(right) == ref_nullspace(A, p, n)
                left = FA.left_nullspace()
                assert left.ncols == m
                assert as_lists(left) == ref_nullspace(
                    ref_transpose(A, m, n), p, m)
                if m == n:
                    aug = [row + [int(i == j) for j in range(n)]
                           for i, row in enumerate(A)]
                    R2, piv2 = ref_rref(aug, p, 2 * n)
                    if piv2[:n] == list(range(n)):
                        assert as_lists(FA.inverse()) == [row[n:]
                                                          for row in R2]
                    else:
                        with pytest.raises(ZeroDivisionError):
                            FA.inverse()


# At p = 2 row_times works on rows as ints, so these shapes cross the word
# and byte boundaries of that form; (112, 112) is J4's module.
ROW_KERNEL_SHAPES_F2 = ((8, 8), (9, 3), (18, 2), (17, 17), (64, 65),
                        (112, 112))


def test_row_times_matches_vector_product():
    rng = random.Random(8)
    for p in KERNEL_PRIMES:
        shapes = KERNEL_SHAPES + (ROW_KERNEL_SHAPES_F2 if p == 2 else ())
        for m, n in shapes:
            M = random_rows(rng, p, m, n)
            FM = as_matrix(p, M, m, n)
            for _ in range(4):
                x = [rng.randrange(p) for _ in range(m)]
                got = row_times(bytes(x), FM)
                assert list(got) == ref_mul([x], M, p, m, n)[0]
                assert row_times(bytes(x), FM) == got
                assert row_times(bytes(x), as_matrix(p, M, m, n)) == got
            with pytest.raises(ValueError):
                row_times(bytes(m + 1), FM)


def test_matrix_data_is_read_only_and_hash_ignores_row_cache():
    rng = random.Random(6)
    for m, n in ((3, 4), (18, 18)):
        M = random_rows(rng, 2, m, n)
        used, fresh = as_matrix(2, M, m, n), as_matrix(2, M, m, n)
        row_times(bytes(m), used)
        assert used == fresh and hash(used) == hash(fresh)
        for mat in (used, used * fresh.transpose(), used.transpose(),
                    used + fresh, FqMatrix.identity(3, n)):
            with pytest.raises(ValueError):
                mat.data[0, 0] = 1
    assert used.toarray().flags.writeable


def test_equal_matrices_hash_equal():
    rng = random.Random(2)
    for p in KERNEL_PRIMES:
        for m, n in KERNEL_SHAPES:
            A = random_rows(rng, p, m, n)
            direct = as_matrix(p, A, m, n)
            shifted = as_matrix(
                p, [[a + p * rng.randrange(-3, 4) for a in row] for row in A],
                m, n)
            via_product = direct * FqMatrix.identity(p, n)
            via_sum = direct + FqMatrix.zeros(p, m, n)
            for other in (shifted, via_product, via_sum):
                assert other == direct and hash(other) == hash(direct)


def test_characteristic_must_be_a_prime_below_256():
    for p in (0, 1, 4, 255, 256, 257):
        with pytest.raises(UnsupportedCharacteristic):
            FqMatrix(p, [[1]])
    for p in (2, 251):
        assert FqMatrix(p, [[p + 1]]).toarray().tolist() == [[1]]
