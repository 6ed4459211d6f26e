import itertools
import math
import random

import numpy as np
import pytest

from endoperm import zpoly
from endoperm.gfmat import (FqMatrix, UnsupportedCharacteristic,
                            _isotypic_parts, _lift_idempotent,
                            _local_min_poly, _matrix_power, _nullspace,
                            _quotient_action, _radical, _rref, cartan_matrix,
                            fixed_space, rep_from_json, row_times,
                            vector_bytes)
from endoperm.permgrp import Permutation, closure_elements


def perm_array(images):
    M = np.zeros((len(images), len(images)), dtype=np.int64)
    M[np.arange(len(images)), images] = 1
    return M


def perm_mat(p, images):
    return FqMatrix(p, perm_array(images))


def shift_powers(n):
    """F_p[C_n] in the basis of the powers of the shift e_i -> e_(i+1),
    identity first: row 0 of the k-th power is e_k."""
    return np.array([perm_array([(i + k) % n for i in range(n)])
                     for k in range(n)])


def s3_perm_mats(p):
    return [perm_mat(p, [1, 0, 2]), perm_mat(p, [1, 2, 0])]


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
                assert A * A.inverse() == FqMatrix.identity(p, n)
            N = A.left_nullspace()
            if N.nrows:
                assert not (N * A).data.any()
            assert A.rank() + N.nrows == n


def test_fixed_space_examples():
    assert fixed_space(5, [FqMatrix.identity(5, 4)], 4).nrows == 4
    fx = fixed_space(3, [perm_mat(3, [1, 0])], 2)
    assert fx.nrows == 1 and list(fx.toarray()[0]) == [1, 1]
    for p in (2, 3, 5):
        fx = fixed_space(p, s3_perm_mats(p), 3)
        assert fx.nrows == 1 and set(fx.toarray()[0]) == {1}


def test_quotient_examples():
    s3 = np.array([perm_array([1, 0, 2]), perm_array([1, 2, 0])])
    proj, quo = _quotient_action(s3, np.eye(3, dtype=np.int64), 5)
    assert proj.shape == (3, 0) and quo.shape == (2, 0, 0)
    # F2 permutation module of S3 modulo the fixed vector: the projection
    # intertwines each action with its 2-dimensional quotient action
    sub = fixed_space(2, s3_perm_mats(2), 3).data.astype(np.int64)
    proj2, quo2 = _quotient_action(s3, sub, 2)
    assert proj2.shape == (3, 2) and not (sub @ proj2 % 2).any()
    for a, q in zip(s3, quo2):
        assert np.array_equal(a @ proj2 % 2, proj2 @ q % 2)


def test_min_poly_random():
    # w the identity gives the minimal polynomial f of M, and w a single
    # row u, as _order_key calls it, the least f with u f(M) = 0: either
    # way w f(M) = sum_i f_i w M^i = 0, and the Krylov arrays w, w M, ...,
    # w M^(deg f - 1) have full rank, so no lower degree kills w
    rng = random.Random(0)
    for trial in range(25):
        p = rng.choice([2, 3, 5, 11])
        n = rng.randrange(1, 8)
        state = np.random.RandomState(trial)
        M = state.randint(0, p, (n, n)).astype(np.int64)
        u = state.randint(0, p, n).astype(np.int64)
        u[trial % n] = 1
        for w in (np.eye(n, dtype=np.int64), u):
            mp = _local_min_poly(M, w, p)
            k = len(mp) - 1
            assert mp[-1] == 1 and 1 <= k <= n
            krylov = [w]
            for _ in range(k):
                krylov.append(krylov[-1] @ M % p)
            assert not (sum(c * x for c, x in zip(mp, krylov)) % p).any()
            flat = np.array(krylov[:k]).reshape(k, -1)
            assert len(_rref(flat, p)[1]) == k


def test_summands_and_cartan():
    labels, C, dims, simples = cartan_matrix(shift_powers(5), 5)
    # F_5[C_5] is local: one projective indecomposable, the whole module
    assert C == [[5]] and dims == [5]
    labels, C, dims, simples = cartan_matrix(shift_powers(6), 5)
    k = len(labels)
    assert C == [[int(i == j) for j in range(k)] for i in range(k)]
    # the projective indecomposables of a semisimple commutative algebra
    # are its simples
    assert dims == [dim for _, dim, _, _, _ in simples]
    assert sorted(dims) == [1, 1, 2, 2]


def group_regular_rep(gens):
    """The matrices of right multiplication by every element of G on
    F_p[G], in the basis of group elements sorted by images, so the
    identity is first: a basis of F_p[G] whose rows 0 are unit rows."""
    gens = [Permutation(g) for g in gens]
    elems = sorted(closure_elements(gens, gens[0].degree),
                   key=lambda q: q.images)
    index = {x.images: i for i, x in enumerate(elems)}
    return np.array([perm_array([index[(x * g).images] for x in elems])
                     for g in elems])


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
    reg = group_regular_rep(gens)
    labels, C, dims, simples = cartan_matrix(reg, p)
    assert [s[1] for s in simples] == want_dims
    assert [s[2] for s in simples] == want_ends
    assert C == want_C and dims == want_pims
    d = len(reg)
    mults = [n for _, _, _, n, _ in simples]
    # F_p[G] is P_1^(n_1) + ... + P_k^(n_k), n_j = dim S_j / e_j
    assert sum(n * dim for n, dim in zip(mults, dims)) == d
    assert all(n * e == s for _, s, e, n, _ in simples)
    # A/J = sum of the End_(D_i)(S_i), of dimension n_i^2 e_i
    radical = _radical(reg, p)
    assert d - len(radical) == sum(n * n * e for _, _, e, n, _ in simples)
    if len(radical):
        assert not _matrix_power(radical, d, p).any()
    # the composition multiplicities of S_i in F_p[G] weigh d
    assert sum(s * m for _, s, _, _, m in simples) == d


def test_cartan_on_a_regular_module_no_unit_vector_generates():
    # F_2[C_7] in the powers of another generator: no unit row separates
    # the algebra, so row 0 does not generate the regular module and the
    # basis is refused as it comes
    gen = np.array([[1, 1, 0, 1, 1, 1, 1], [1, 1, 0, 1, 0, 1, 0],
                    [1, 0, 0, 0, 0, 0, 1], [1, 1, 0, 0, 1, 0, 1],
                    [0, 0, 1, 1, 1, 0, 0], [0, 1, 1, 0, 1, 1, 0],
                    [1, 0, 1, 1, 0, 1, 0]])
    powers = np.array([np.linalg.matrix_power(gen, k) % 2
                       for k in range(7)])
    assert len(_rref(powers.reshape(7, -1), 2)[1]) == 7
    assert all(len(_rref(powers[:, u, :], 2)[1]) < 7 for u in range(7))
    with pytest.raises(AssertionError, match="row 0 of the basis"):
        cartan_matrix(powers, 2)
    # a vector v that generates: in the basis T of the v B_t (v first,
    # as B_0 = 1) the rows 0 of T B_t T^-1 are the unit rows
    v = next(v for v in itertools.product([0, 1], repeat=7)
             if len(_rref(np.array(v) @ powers % 2, 2)[1]) == 7)
    T = np.array(v) @ powers % 2
    R, _ = _rref(np.hstack([T, np.eye(7, dtype=np.int64)]), 2)
    T_inv = R[:, 7:].astype(np.int64)
    labels, C, dims, simples = cartan_matrix(T @ powers @ T_inv, 2)
    assert [s[1] for s in simples] == [1, 3, 3]
    assert C == [[1, 0, 0], [0, 1, 0], [0, 0, 1]] and dims == [1, 3, 3]


def test_cartan_rejects_a_module_that_is_not_regular():
    # the permutation module of S3 over F_5 is 1 + 2: its algebra has
    # dimension 1 + 4 = 5, not 3, so its basis is 5 matrices of size 3
    elems = closure_elements([Permutation(g) for g in S3], 3)
    R, pivots = _rref(np.array([perm_array(list(x.images)).reshape(-1)
                                for x in elems]), 5)
    basis = R[:len(pivots)].reshape(-1, 3, 3)
    assert basis.shape == (5, 3, 3)
    with pytest.raises(AssertionError, match="shape"):
        cartan_matrix(basis, 5)


def _cyclic_closed_form(p, n):
    """F_p[C_n] for n = p^a m, p not dividing m: the simples are the
    irreducible factors of X^m - 1, one of degree ord_k(p) for each
    divisor k of m taken phi(k) / ord_k(p) times, each with n_i = 1 and
    e_i its degree; C = p^a I and dim P_i = p^a e_i."""
    a, m = 0, n
    while m % p == 0:
        a, m = a + 1, m // p
    degrees = []
    for k in range(1, m + 1):
        if m % k == 0:
            order = next(t for t in range(1, k + 1) if pow(p, t, k) == 1 % k)
            phi = sum(math.gcd(i, k) == 1 for i in range(1, k + 1))
            degrees += [order] * (phi // order)
    return p ** a, sorted(degrees)


@pytest.mark.parametrize("p, n", [(31, 30), (11, 27), (3, 27), (7, 24)])
def test_cartan_of_cyclic_group_algebras_at_rank_27_to_30(p, n):
    scale, degrees = _cyclic_closed_form(p, n)
    labels, C, dims, simples = cartan_matrix(shift_powers(n), p)
    k = len(degrees)
    assert [e for _, _, e, _, _ in simples] == degrees
    assert [s for _, s, _, _, _ in simples] == degrees
    assert all(n_i == 1 and mult == scale for _, _, _, n_i, mult in simples)
    assert C == [[scale * (i == j) for j in range(k)] for i in range(k)]
    assert dims == [scale * e for e in degrees]


def test_cartan_of_thirty_linear_simples_takes_few_eliminations(monkeypatch):
    # F_31[C_30] splits into 30 one-dimensional simples; refining the head
    # by each of the 30 centre basis elements in turn took 12333 nullspaces
    from endoperm import gfmat
    calls = []

    def counted(arr, p):
        calls.append(arr.shape)
        return nullspace(arr, p)

    nullspace = gfmat._nullspace
    monkeypatch.setattr(gfmat, "_nullspace", counted)
    labels, C, dims, simples = cartan_matrix(shift_powers(30), 31)
    assert len(simples) == 30
    assert len(calls) <= 60


def test_head_split_checks_fire(monkeypatch):
    # F_5[C_4] and F_5[S_3] are semisimple, so each basis is its own head;
    # a head matrix replaced by its square leaves a span that is no algebra
    head = shift_powers(4)
    assert [(len(U), e, n) for U, e, n in _isotypic_parts(head, 5)] == \
        [(1, 1, 1)] * 4
    head[1] = head[1] @ head[1]
    with pytest.raises(AssertionError, match="split centre of dimension 3 "
                       "separates the head into 4 parts"):
        _isotypic_parts(head, 5)
    head = group_regular_rep(S3)
    head[1] = head[1] @ head[1]
    with pytest.raises(AssertionError, match=r"dimension 2 is not n\^2 e"):
        _isotypic_parts(head, 5)
    # one root of a split element's minimal polynomial lost
    roots = zpoly._fp_roots
    monkeypatch.setattr(zpoly, "_fp_roots", lambda f, p: roots(f, p)[1:])
    with pytest.raises(AssertionError, match="eigenspaces of a split "
                       "central element do not fill"):
        cartan_matrix(group_regular_rep(S3), 5)


def _radical_on_every_product(basis, p):
    """J by the trace ladder as defined: g_i evaluated on every product
    a b of the current ideal's basis with the algebra's."""
    d = basis.shape[1]
    ideal, q = basis, 1
    while q <= d and len(ideal):
        table = [[int(np.trace(_matrix_power(a @ b % p, q, q * p))
                      % (q * p)) // q for b in basis] for a in ideal]
        keep = FqMatrix(p, table).left_nullspace().data.astype(np.int64)
        ideal = np.tensordot(keep, ideal, axes=1) % p
        q *= p
    return ideal


@pytest.mark.parametrize("gens, p", [
    (S3, 2), (S3, 3), (A4, 2), (A4, 3), (C7, 7),
    ([[1, 2, 3, 0], [0, 3, 2, 1]], 2),
    ([[1, 2, 0, 3, 4, 5, 6, 7, 8], [0, 1, 2, 4, 5, 3, 6, 7, 8],
      [0, 1, 2, 3, 4, 5, 7, 8, 6]], 3),
])
def test_spin_and_radical_match_their_definitions(gens, p):
    basis = group_regular_rep(gens)
    d = len(basis)
    got = FqMatrix(p, _radical(basis, p).reshape(-1, d * d)).row_basis()
    want = FqMatrix(p, _radical_on_every_product(basis, p).reshape(
        -1, d * d)).row_basis()
    assert got == want


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
    # group algebras are symmetric algebras; D4 over F_2, F_3 and F_5
    reg = group_regular_rep([[1, 2, 3, 0], [0, 3, 2, 1]])
    for p in (2, 3, 5):
        labels, C, dims, simples = cartan_matrix(reg, p)
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
    mats = s3_perm_mats(3)
    rows = [a.toarray().astype(int).reshape(-1).tolist() for a in mats]
    assert rep_from_json({"p": 3, "dim": 3, "generators": rows}) \
        == (3, mats, 3)
    ident = FqMatrix.identity(2, 2)
    packed = np.packbits(ident.toarray().reshape(-1),
                         bitorder="little").tobytes().hex()
    assert rep_from_json({"p": 2, "dim": 2, "generators": [packed]}) \
        == (2, [ident], 2)
    with pytest.raises(ValueError):
        rep_from_json({"p": 3, "dim": 2, "generators": [packed]})
    with pytest.raises(ValueError):
        rep_from_json({"p": 3, "dim": 2, "generators": [[1, 0, 0]]})


# -- the matrix kernel against plain Python-int arithmetic --------------------

KERNEL_PRIMES = (2, 3, 11, 251)
# Eliminations below gfmat._SMALL = 512 entries run on Python int rows,
# the rest on numpy: (16, 31) is just below, (16, 32) at and (16, 33)
# above, and the tall and wide shapes are the corpus's largest.
KERNEL_SHAPES = ((0, 3), (3, 0), (0, 0), (1, 1), (2, 5), (5, 2), (4, 4),
                 (7, 7), (16, 31), (16, 32), (16, 33), (256, 16), (16, 256))


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
                R, pivots = _rref(FA.data, p)
                want_R, want_pivots = ref_rref(A, p, n)
                assert R.astype(int).tolist() == want_R
                assert pivots == want_pivots
                assert FA.rank() == len(want_pivots)
                right = _nullspace(FA.data, p)
                assert right.shape[1] == n
                assert right.astype(int).tolist() == ref_nullspace(A, p, n)
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
        flipped = FqMatrix(2, fresh.data.T)
        for mat in (used, used * flipped, flipped, used + fresh,
                    FqMatrix.identity(3, n)):
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
            via_sum = direct + FqMatrix(p, np.zeros((m, n), dtype=np.int64))
            for other in (shifted, via_product, via_sum):
                assert other == direct and hash(other) == hash(direct)


def test_characteristic_must_be_a_prime_below_256():
    for p in (0, 1, 4, 255, 256, 257):
        with pytest.raises(UnsupportedCharacteristic):
            FqMatrix(p, [[1]])
    for p in (2, 251):
        assert FqMatrix(p, [[p + 1]]).toarray().tolist() == [[1]]
