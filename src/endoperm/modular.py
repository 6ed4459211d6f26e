"""Reduction of the endomorphism ring modulo p.

Reduces the split character table to F_p under an explicit square-root
convention, extracts a basic set, solves for the decomposition matrix,
derives the Cartan matrix both from D^T D and from the regular module
(its radical, the centre of E_F/J and lifted idempotents; the two must
agree),
matches projective indecomposables to reduced characters, of which the
locality test and the permutation-module verdict are corollaries, and
assembles the projective character columns with their Fitting
correspondents.
"""

import numpy as np

from . import gfmat
from .gfmat import FqMatrix, ModuleRep


class InertFieldError(ValueError):
    """sqrt(n) does not exist mod p; the reduction would leave F_p."""


class LiftValidationError(ValueError):
    """The mod-p solution does not lift to the integer identity (p too
    small relative to the true decomposition numbers)."""


class SqrtConvention:
    """Choice of square roots mod p for the radicands in the table.

    Default: the root in {1..(p-1)/2}; p | n reduces to 0 (ramified);
    non-residues raise InertFieldError.  Overrides pin specific choices,
    e.g. {3: 6} at p = 11.  p must be a prime below 256, as for FqMatrix;
    anything else raises UnsupportedCharacteristic before any reduction.
    """

    def __init__(self, p, overrides=None):
        gfmat._check_prime(p)
        self.p = p
        self.overrides = dict(overrides or {})
        for n, s in self.overrides.items():
            if (s * s - n) % p:
                raise ValueError(f"override sqrt({n}) = {s} fails mod {p}")

    def resolve(self, n):
        if n == 1:
            return 1
        if n in self.overrides:
            return self.overrides[n] % self.p
        m = n % self.p
        if m == 0:
            return 0
        s = _sqrt_mod(m, self.p)
        if s is None:
            raise InertFieldError(
                f"{n} is not a square mod {self.p}; enlarge the residue "
                "field")
        return min(s, self.p - s)

    def to_json(self):
        return {"p": self.p,
                "sqrt": {str(n): s for n, s in self.overrides.items()}}


def _sqrt_mod(m, p):
    """Tonelli-Shanks; None for non-residues."""
    if p == 2:
        return m % 2
    if pow(m, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(m, (p + 1) // 4, p)
    q, e = p - 1, 0
    while q % 2 == 0:
        q //= 2
        e += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    x = pow(m, (q + 1) // 2, p)
    t = pow(m, q, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (e - i - 1), p)
        x = x * b % p
        t = t * b * b % p
        c = b * b % p
        e = i
    return x


def reduce_value(v, conv):
    p = conv.p
    if v.b == 0:
        if v.a.denominator % p == 0:
            raise InertFieldError(
                f"denominator of {v} is not invertible mod {p}")
        return v.a.numerator * pow(v.a.denominator, -1, p) % p
    if v.a.denominator % p and v.b.denominator % p:
        s = conv.resolve(v.n)
        a = v.a.numerator * pow(v.a.denominator, -1, p) % p
        b = v.b.numerator * pow(v.b.denominator, -1, p) % p
        return (a + b * s) % p
    # half-integer coordinates at p = 2: reduce through the ring of
    # integers Z[w], w = (1 + sqrt(n))/2 a root of X^2 - X + (1 - n)/4
    if p == 2 and v.is_algebraic_integer():
        u = 2 * v.a
        w = 2 * v.b
        c = (1 - v.n) // 4
        t = next((t for t in range(2) if (t * t - t + c) % 2 == 0), None)
        if t is None:
            raise InertFieldError(
                f"(1 + sqrt({v.n}))/2 has no residue mod 2; "
                "enlarge the residue field")
        return (int((u - w) / 2) + int(w) * t) % 2
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


def basic_set(reduced, p):
    """Indices (into the reduced list) of a greedy maximal F_p-independent
    subset, scanning rows in table order."""
    picked = []
    basis = None
    for i, row in enumerate(reduced):
        cand = np.array([row.values], dtype=np.int64)
        stacked = cand if basis is None else np.concatenate([basis, cand])
        if len(gfmat._rref(stacked % p, p)[1]) == stacked.shape[0]:
            picked.append(i)
            basis = stacked
    return picked


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


def decomposition_matrix(table, reduced, basic, p):
    """Solve every reduced row against the basic set and lift.

    Validation: the lift must reproduce the integer multiplicity identity
    m_j = sum_c entry * m_c (anything else means p is too small and is
    reported, never silently accepted); blocks are the connected components
    of rows through shared nonzero columns.
    """
    k = len(basic)
    B = np.array([reduced[i].values for i in basic], dtype=np.int64) % p
    entries = []
    for row in reduced:
        v = np.array(row.values, dtype=np.int64) % p
        aug = np.concatenate([B.T, v.reshape(-1, 1)], axis=1)
        R, pivots = gfmat._rref(aug, p)
        if k in pivots:
            raise AssertionError("reduced row outside the basic-set span")
        x = [0] * k
        for rr, c in enumerate(pivots):
            x[c] = int(R[rr, k])
        if not np.array_equal((np.array(x) @ B) % p, v):
            raise AssertionError("basic-set solve failed")
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


def cartan_from_decomposition(D):
    return D.transpose_product()


def regular_rep_mod_p(inter_mats, p):
    """The regular module of E_F, acted on by all r intersection
    matrices."""
    actions = [FqMatrix(p, [[int(x) % p for x in row]
                            for row in getattr(P, "entries", P)])
               for P in inter_mats]
    return ModuleRep(p, actions, len(inter_mats))


def cartan_from_regular(inter_mats, p):
    """Cartan data from the regular module of E_F directly: its radical,
    the centre of E_F/J and lifted idempotents.  "constituents" lists
    (label, dim S, e, n, multiplicity) per simple S, and E_F is local
    exactly when there is one."""
    regular = regular_rep_mod_p(inter_mats, p)
    labels, cartan, dims, simples = gfmat.cartan_matrix(regular)
    return {"labels": labels, "cartan": cartan, "pim_dims": dims,
            "constituents": simples}


def correspond_projectives(cartan_data, D, table):
    """Match each simple (PIM) to a basic-set column by the identity
    dim P_S = [E_F : S] = column weight; ambiguous dims are reported."""
    mults = [row.mult for row in table.rows]
    weights = D.column_weights(mults)
    dims = cartan_data["pim_dims"]
    labels = cartan_data["labels"]
    matching = {}
    ambiguous = []
    for i, d in enumerate(dims):
        hits = [c for c, w in enumerate(weights) if w == d]
        if len(hits) == 1:
            matching[labels[i]] = D.col_origins[hits[0]]
        else:
            ambiguous.append((labels[i], [D.col_origins[h] for h in hits]))
    return matching, ambiguous


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
    locality, projective columns, answer."""
    reduced = reduce_table(table, p, conv)
    basic = basic_set(reduced, p)
    D = decomposition_matrix(table, reduced, basic, p)
    C_dec = cartan_from_decomposition(D)
    reg = cartan_from_regular(inter_mats, p)
    if _cartan_multiset(C_dec) != _cartan_multiset(reg["cartan"]):
        raise AssertionError(
            f"Cartan matrices disagree: D^T D = {C_dec}, "
            f"regular module = {reg['cartan']}")
    local = len(reg["constituents"]) == 1
    columns = projective_columns(D, table)
    h_is_p_prime = None if h_order is None else (h_order % p != 0)
    verdict = Verdict(p, local, D.blocks, C_dec, reg["pim_dims"], columns,
                      bool(h_is_p_prime))
    verdict.decomposition = D
    verdict.reduced = reduced
    verdict.basic = basic
    verdict.correspondence = correspond_projectives(reg, D, table)
    return verdict


def _block_diag_blocks(C):
    """Blocks of a square matrix: indices linked by nonzero entries."""
    k = len(C)
    return _components(k, ((i, j) for i in range(k) for j in range(k)
                           if C[i][j]))


def _cartan_multiset(C):
    """Canonical form of a Cartan matrix up to simultaneous permutation:
    the sorted multiset of sorted row multisets paired with diagonals."""
    k = len(C)
    return sorted((C[i][i], sorted(C[i])) for i in range(k))
