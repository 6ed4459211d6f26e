"""Reduction of the endomorphism ring modulo p.

Reduces the split character table to F_p under an explicit square-root
convention, extracts a basic set, solves for the decomposition matrix,
derives the Cartan matrix both from D^T D and from the regular module
(its radical, the centre of E_F/J and lifted idempotents; the two must
agree when p does not divide |H|, and a disagreement when it does is
raised as CartanDisagreement),
reads off the locality test and the permutation-module verdict, and
assembles the projective character columns with their Fitting
correspondents.
"""

import numpy as np

from . import gfmat


class InertFieldError(ValueError):
    """sqrt(n) does not exist mod p; the reduction would leave F_p."""


class LiftValidationError(ValueError):
    """The mod-p solution does not lift to the integer identity (p too
    small relative to the true decomposition numbers)."""


class CartanDisagreement(ValueError):
    """p divides |H| and D^T D is not the Cartan matrix of E_F from its
    regular module (`regular`, from `cartan_from_regular`): Brauer
    reciprocity, which would make them equal, is not guaranteed there."""

    def __init__(self, message, regular):
        super().__init__(message)
        self.regular = regular


class SqrtConvention:
    """Choice of square roots mod p for the radicands in the table.

    Default: the least root, in {1..(p-1)/2} unless p = 2; p | n reduces
    to 0 (ramified); non-residues raise InertFieldError.  Overrides pin
    specific choices, e.g. {3: 6} at p = 11.  p must be a prime below 256,
    as for FqMatrix; anything else raises UnsupportedCharacteristic before
    any reduction.
    """

    def __init__(self, p, overrides=None):
        gfmat._check_prime(p)
        self.p = p
        # every square mod p has one root in {0..p//2}
        self.roots = {s * s % p: s for s in range(p // 2, -1, -1)}
        self.overrides = dict(overrides or {})
        for n, s in self.overrides.items():
            if (s * s - n) % p:
                raise ValueError(f"override sqrt({n}) = {s} fails mod {p}")

    def resolve(self, n):
        if n == 1:
            return 1
        if n in self.overrides:
            return self.overrides[n] % self.p
        s = self.roots.get(n % self.p)
        if s is None:
            raise InertFieldError(
                f"{n} is not a square mod {self.p}; enlarge the residue "
                "field")
        return s

    def to_json(self):
        return {"p": self.p,
                "sqrt": {str(n): s for n, s in self.overrides.items()}}


def reduce_value(v, conv):
    """v = (an + bn sqrt(n)) / den mod p: (an + bn s) / den, s the
    convention's sqrt(n), when p does not divide den; else only the
    algebraic integers with den = 2 at p = 2 reduce."""
    p = conv.p
    if v.den % p:
        x = v.an + v.bn * conv.resolve(v.n) if v.bn else v.an
        return x * pow(v.den, -1, p) % p
    if not v.bn:
        raise InertFieldError(
            f"denominator of {v} is not invertible mod {p}")
    # half-integer coordinates at p = 2: reduce through the ring of
    # integers Z[w], w = (1 + sqrt(n))/2 a root of X^2 - X + (1 - n)/4;
    # v = (an - bn) / 2 + bn w with an and bn odd
    if p == 2 and v.is_algebraic_integer():
        c = (1 - v.n) // 4
        t = next((t for t in range(2) if (t * t - t + c) % 2 == 0), None)
        if t is None:
            raise InertFieldError(
                f"(1 + sqrt({v.n}))/2 has no residue mod 2; "
                "enlarge the residue field")
        return ((v.an - v.bn) // 2 + v.bn * t) % 2
    raise InertFieldError(
        f"value {v} is not p-integral at p = {p}")


class ReducedCharacter:
    """A row of the reduced table, tagged with its source row index."""

    def __init__(self, values, origin, mult):
        self.values = list(values)
        self.origin = origin
        self.mult = mult

    def __repr__(self):
        return f"ReducedCharacter(phi_{self.origin + 1}, {self.values[:6]}...)"


def reduce_table(table, p, conv=None):
    """Entrywise reduction of the split table mod p under the convention."""
    conv = conv or SqrtConvention(p)
    if conv.p != p:
        raise ValueError("convention is for a different prime")
    out = []
    for i, row in enumerate(table.rows):
        values = [reduce_value(v, conv) for v in row.values]
        if values[0] != row.mult % p:
            raise AssertionError(
                "reduced value at the identity differs from the multiplicity")
        out.append(ReducedCharacter(values, i, row.mult))
    return out


class DecompositionMatrixE:
    """Nonnegative-integer decomposition matrix of the endomorphism ring.

    Rows follow the table's ordinary characters; columns the basic set.
    entries[j][c] expresses (phi_j)_F = sum_c entry * (basic_c)_F, exact
    mod p and lift-validated against the integer multiplicities.
    """

    def __init__(self, entries, row_origins, col_origins, blocks):
        self.entries = entries
        self.row_origins = row_origins
        self.col_origins = col_origins
        self.blocks = blocks

    def column_weights(self, mults):
        """sum_j D[j][c] * m_j per column: dim of the projective
        indecomposable by Brauer reciprocity."""
        out = []
        for c in range(len(self.col_origins)):
            out.append(sum(row[c] * mults[j]
                           for j, row in zip(self.row_origins, self.entries)))
        return out

    def transpose_product(self):
        """Cartan matrix D^T D."""
        k = len(self.col_origins)
        return [[sum(row[i] * row[j] for row in self.entries)
                 for j in range(k)] for i in range(k)]

    def to_json(self):
        return {"rows": [o + 1 for o in self.row_origins],
                "columns": [o + 1 for o in self.col_origins],
                "entries": self.entries,
                "blocks": [sorted(o + 1 for o in b) for b in self.blocks]}


def decomposition_matrix(reduced, p):
    """Solve every reduced row against the basic set and lift.

    The basic set is a greedy maximal F_p-independent subset of the rows,
    scanning them in table order: the pivot columns of R = rref(V^T), the
    reduced rows V set side by side as columns, since a column is a pivot
    exactly when it is independent of the columns before it.  The same R
    gives every row's coordinates over the basic set: column j of R in the
    pivot rows.

    Validation: the coordinates must give back V, and the lift must
    reproduce the integer multiplicity identity m_j = sum_c entry * m_c
    (anything else means p is too small and is reported, never silently
    accepted); blocks are the connected components of rows through shared
    nonzero columns.
    """
    V = np.array([row.values for row in reduced], dtype=np.int64) % p
    R, basic = gfmat._rref(V.T, p)
    X = R[:len(basic)].T.astype(np.int64)
    if not np.array_equal(X @ V[basic] % p, V):
        raise AssertionError("basic-set solve failed")
    entries = []
    for row, x in zip(reduced, X.tolist()):
        mult_sum = sum(xi * reduced[c].mult for xi, c in zip(x, basic))
        if mult_sum != row.mult:
            raise LiftValidationError(
                f"row phi_{row.origin + 1}: lifted entries weigh {mult_sum}"
                f" != multiplicity {row.mult}; p = {p} is too small")
        entries.append(x)
    blocks = _column_blocks(entries)
    return DecompositionMatrixE(entries,
                                [r.origin for r in reduced],
                                [reduced[i].origin for i in basic],
                                blocks)


def _components(k, edges):
    """Connected components of the graph on 0..k-1 with the given edges
    (pairs), each in ascending order, listed by their smallest vertex.
    Union-find with path halving."""
    parent = list(range(k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    groups = {}
    for x in range(k):
        groups.setdefault(find(x), []).append(x)
    return list(groups.values())


def _column_blocks(entries):
    """Connected components of rows linked through shared nonzero columns."""
    k = len(entries[0]) if entries else 0
    nonzero = [[c for c, e in enumerate(row) if e] for row in entries]
    blocks = []
    for cols in _components(k, ((nz[0], c) for nz in nonzero
                                for c in nz[1:])):
        rows = [i for i, row in enumerate(entries)
                if any(row[c] for c in cols)]
        blocks.append(sorted(rows))
    blocks.sort(key=lambda b: b[0])
    return blocks


def cartan_from_regular(inter_mats, p):
    """Cartan data of E_F from its regular module: its radical, the centre
    of E_F/J and lifted idempotents.  The r intersection matrices P_j
    (`IntersectionMatrix`es or integer r x r arrays) mod p are a basis of
    E_F on which row 0 generates the regular module, since row 0 of P_j
    is e_j; gfmat.cartan_matrix takes them as they are.  "constituents"
    lists (label, dim S, e, n, multiplicity) per simple S, and E_F is
    local exactly when there is one."""
    basis = np.array([getattr(P, "entries", P) for P in inter_mats],
                     dtype=np.int64)
    labels, cartan, dims, simples = gfmat.cartan_matrix(basis, p)
    return {"labels": labels, "cartan": cartan, "pim_dims": dims,
            "constituents": simples}


def projective_columns(D, table):
    """Ordinary character columns of the projective indecomposables.

    Column for basic index c: sum_j D[j][c] * chi_{phi_j}.  Rows whose
    Fitting correspondent is ambiguous propagate their flag: the entry is
    reported against both candidate labels as "a" / "1-a".
    """
    columns = []
    for c, col_origin in enumerate(D.col_origins):
        entries = {}
        flagged = []
        for j, row_idx in enumerate(D.row_origins):
            coeff = D.entries[j][c]
            if not coeff:
                continue
            row = table.rows[row_idx]
            label = row.fitting if row.fitting is not None \
                else f"phi{row_idx + 1}"
            if row.ambiguous:
                flagged.append((label, coeff))
            else:
                entries[label] = entries.get(label, 0) + coeff
        columns.append({
            "basic": col_origin + 1,
            "entries": entries,
            "ambiguous": flagged,
        })
    return columns


class Verdict:
    """Block structure, locality, and the permutation-module answer.

    `indecomposable` speaks about F_H^G itself (local endomorphism ring);
    `projective_cover_answer` addresses whether the projective cover of the
    trivial module is this permutation module, and is only meaningful when
    H is a p'-subgroup (p not dividing |H|), else None.
    """

    def __init__(self, p, local, blocks, cartan, pim_dims, columns,
                 h_is_p_prime):
        self.p = p
        self.local = local
        self.blocks = blocks
        self.cartan = cartan
        self.pim_dims = pim_dims
        self.columns = columns
        self.h_is_p_prime = h_is_p_prime
        self.indecomposable = local
        if not h_is_p_prime:
            self.projective_cover_answer = None
        else:
            self.projective_cover_answer = (
                "permutation module" if local else "not a permutation module")

    def to_json(self):
        return {
            "p": self.p,
            "local": self.local,
            "permutation_module_indecomposable": self.indecomposable,
            "projective_cover_answer": self.projective_cover_answer,
            "blocks": self.blocks,
            "cartan": self.cartan,
            "pim_dims": self.pim_dims,
            "projective_columns": self.columns,
        }


def permutation_verdict(table, inter_mats, p, conv=None, h_order=None):
    """Full mod-p pipeline: reduce, basic set, D, Cartan both ways, blocks,
    locality, projective columns, answer.  Two Cartan matrices that differ
    raise CartanDisagreement when p divides h_order, else AssertionError."""
    reduced = reduce_table(table, p, conv)
    D = decomposition_matrix(reduced, p)
    C_dec = D.transpose_product()
    reg = cartan_from_regular(inter_mats, p)
    if not cartan_equivalent(C_dec, reg["cartan"]):
        message = (f"Cartan matrices disagree: D^T D = {C_dec}, "
                   f"regular module = {reg['cartan']}")
        if h_order is not None and h_order % p == 0:
            raise CartanDisagreement(message, reg)
        # p does not divide |H|: Brauer reciprocity makes the two equal
        raise AssertionError(message)
    local = len(reg["constituents"]) == 1
    columns = projective_columns(D, table)
    h_is_p_prime = None if h_order is None else (h_order % p != 0)
    verdict = Verdict(p, local, D.blocks, C_dec, reg["pim_dims"], columns,
                      bool(h_is_p_prime))
    verdict.decomposition = D
    return verdict


def _block_diag_blocks(C):
    """Blocks of a square matrix: indices linked by nonzero entries."""
    k = len(C)
    return _components(k, ((i, j) for i in range(k) for j in range(k)
                           if C[i][j]))


def cartan_equivalent(A, B):
    """Whether B is A with rows and columns relabelled by one simultaneous
    permutation pi: B[pi(i)][pi(j)] = A[i][j] for all i, j.

    Backtracking assigns i = 0, 1, ... in turn to an unused index of B
    with the same diagonal entry and sorted row, and checks the entries
    against the indices already assigned."""
    k = len(A)
    if len(B) != k:
        return False
    sig_a = [(A[i][i], sorted(A[i])) for i in range(k)]
    sig_b = [(B[j][j], sorted(B[j])) for j in range(k)]
    pi = []

    def extend(i):
        if i == k:
            return True
        for j in range(k):
            if j in pi or sig_b[j] != sig_a[i]:
                continue
            if all(A[i][s] == B[j][t] and A[s][i] == B[t][j]
                   for s, t in enumerate(pi)):
                pi.append(j)
                if extend(i + 1):
                    return True
                pi.pop()
        return False

    return extend(0)
