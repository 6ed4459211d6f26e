"""Character-theoretic filtering of candidates for the projective
indecomposable character of the trivial module.

The projective character is a sub-sum of the permutation character, so its
coefficient vector d lives in the box 0 <= d_i <= m_i with d_1 = 1; two
exact filters cut the box down: projective characters vanish on p-singular
classes, and psi(g)/|C_G(g)|_p must be an algebraic integer.

The constituents' values on a class are one RadicalVector, built once per
call: one integer vector per radical sqrt(n) of the constituents' fields,
over a common denominator.  A class sum sum_i d_i chi_i(g) is that
vector's dot product with d.  The vanishing test runs on integer arrays:
on a singular class the class sum is zero exactly when every radical's
coefficient is, so the integer vectors of the singular classes' vectors
are the columns.  The box is walked in chunks of CHUNK points, decoded
from flat indices in mixed radix (the order of itertools.product), and
multiplied by those columns, in int64 when a bound rules out overflow and
in Python ints otherwise.  Only the survivors get the exact defect check
on their class sums.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from .quadfield import QuadraticNumber, RadicalVector

# box points per chunk of the vanishing test: memory is O(CHUNK), not O(box)
CHUNK = 1024


class OrdinaryCharTableG:
    """A (possibly partial) ordinary character table with p-singularity
    flags and centralizer orders supplied as data.

    classes: list of {"name", "centralizer", "p_singular"}; characters:
    mapping label -> list of QuadraticNumber values per class.  Character
    values outside Q and real quadratic fields are rejected at parse time.
    """

    def __init__(self, classes, characters):
        self.classes = classes
        self.characters = characters
        for label, values in characters.items():
            if len(values) != len(classes):
                raise ValueError(f"character {label} has wrong length")

    @classmethod
    def from_json(cls, data):
        """A table file: {"classes": [{"name", optional "centralizer" (a
        positive integer) and "p_singular"}, ...], "characters": {label:
        [value per class]}}.  Other shapes raise ValueError."""
        if not (isinstance(data, dict)
                and isinstance(data.get("classes"), list)
                and all(isinstance(c, dict) for c in data["classes"])
                and isinstance(data.get("characters"), dict)
                and all(isinstance(v, list)
                        for v in data["characters"].values())):
            raise ValueError('a table is {"classes": [{...}, ...], '
                             '"characters": {label: [...], ...}}')
        for c in data["classes"]:
            cz = c.get("centralizer")
            if cz is not None and (type(cz) is not int or cz < 1):
                raise ValueError("a centralizer order is a positive integer")
        return cls([{"name": c["name"],
                     "centralizer": c.get("centralizer"),
                     "p_singular": bool(c.get("p_singular", False))}
                    for c in data["classes"]],
                   {label: [_parse_value(v) for v in values]
                    for label, values in data["characters"].items()})

    def singular_classes(self):
        return [i for i, c in enumerate(self.classes) if c["p_singular"]]

    def value(self, label, class_index):
        return self.characters[label][class_index]


def _parse_value(v):
    """A table file's character value: an integer, or [a_num, a_den, b_num,
    b_den, n] for a + b sqrt(n)."""
    if type(v) is int:
        return QuadraticNumber(v)
    if not (isinstance(v, list) and len(v) == 5
            and all(type(x) is int for x in v) and v[1] and v[3]):
        raise ValueError(f"bad character value {v!r}")
    return QuadraticNumber.from_json(v)


class CandidateVector:
    """d_i coefficients of one candidate for the projective character."""

    def __init__(self, labels, coeffs):
        self.labels = list(labels)
        self.coeffs = tuple(coeffs)

    def __eq__(self, other):
        return (self.labels, self.coeffs) == (other.labels, other.coeffs)

    def __hash__(self):
        return hash((tuple(self.labels), self.coeffs))

    def as_dict(self):
        return dict(zip(self.labels, self.coeffs))

    def __repr__(self):
        return f"CandidateVector({self.as_dict()})"


def p_part(n, p):
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def defect_integrality(values, centralizers, p):
    """Whether value(g) / |C_G(g)|_p is an algebraic integer for every
    class.  A value is a QuadraticNumber or a class sum as RadicalVector.dot
    returns it, {radicand: coefficient}.  Rational values: exact p-part
    divisibility; quadratic values: componentwise in the ring of integers
    of the field.  Sums spreading over more than one radicand only pass the
    conservative integer componentwise test (soundness note: this can only
    keep, never drop, a true candidate)."""
    for val, cz in zip(values, centralizers):
        if cz is None:
            continue
        pk = p_part(cz, p)
        if pk == 1:
            continue
        if isinstance(val, QuadraticNumber):
            val = {d: c for d, c in ((1, val.a), (val.n, val.b)) if c}
        rads = [d for d in val if d != 1]
        if not rads:
            q = val.get(1, Fraction(0)) / pk
            if q.denominator != 1:
                return False
        elif len(rads) == 1:
            n = rads[0]
            scaled = QuadraticNumber(val.get(1, Fraction(0)) / pk,
                                     val[n] / pk, n)
            if not scaled.is_algebraic_integer():
                return False
        else:
            ok = all((c / pk).denominator == 1 for c in val.values())
            if not ok:
                return False
    return True


def admissible_candidates(tbl, constituents, p):
    """Exhaustive filter of the coefficient box.

    constituents: list of (label, multiplicity); the first must be the
    trivial character (its coefficient is pinned to 1).  Candidates must
    vanish exactly on every flagged p-singular class, which is tested in
    chunks on integer columns (see the module docstring); when centralizer
    orders are supplied the defect-integrality filter then runs on the
    survivors' exact class sums.  Returns (box size before filtering,
    surviving CandidateVectors), in itertools.product order.
    """
    labels = [c[0] for c in constituents]
    mults = [c[1] for c in constituents]
    if mults[0] != 1:
        raise ValueError("the trivial constituent must have multiplicity 1")
    radix = [1] + [max(m + 1, 0) for m in mults[1:]]
    box = math.prod(radix)
    vecs = [RadicalVector([tbl.value(label, ci) for label in labels])
            for ci in range(len(tbl.classes))]
    # one row per constituent, one column per (singular class, radical)
    cols = [vecs[ci].parts[s] for ci in tbl.singular_classes()
            for s in sorted(vecs[ci].parts)]
    columns = np.array(cols, dtype=object).reshape(len(cols), len(labels)).T
    # every coefficient is below max(radix), so this bounds every partial sum
    bound = max(radix) * max((sum(map(abs, col)) for col in cols),
                             default=0)
    if bound < 2 ** 63:
        columns = columns.astype(np.int64)
    centralizers = [c["centralizer"] for c in tbl.classes]
    defect = any(c is not None for c in centralizers)
    out = []
    for start in range(0, box, CHUNK):
        digits = _decode(start, min(start + CHUNK, box), radix)
        sums = digits.astype(columns.dtype, copy=False) @ columns
        for coeffs in map(tuple, digits[~sums.any(axis=1)].tolist()):
            if defect:
                d = RadicalVector(coeffs)
                values = [vec.dot(d) for vec in vecs]
                if not defect_integrality(values, centralizers, p):
                    continue
            out.append(CandidateVector(labels, coeffs))
    return box, out


def _decode(start, stop, radix):
    """Box points with flat indices start..stop-1 as rows of digits, the
    last coordinate varying fastest."""
    flat = np.arange(start, stop, dtype=np.int64)
    digits = np.ones((stop - start, len(radix)), dtype=np.int64)
    for i in range(len(radix) - 1, 0, -1):
        flat, digits[:, i] = np.divmod(flat, radix[i])
    return digits


def conjugation_closure(candidates):
    """Coordinate equalities holding across every surviving candidate.

    Reports, does not enforce: returns the list of label pairs with
    d_i = d_j, i < j, in all candidates."""
    if not candidates:
        return []
    k = len(candidates[0].coeffs)
    out = []
    for i, j in itertools.combinations(range(k), 2):
        if all(c.coeffs[i] == c.coeffs[j] for c in candidates):
            out.append((candidates[0].labels[i], candidates[0].labels[j]))
    return out

