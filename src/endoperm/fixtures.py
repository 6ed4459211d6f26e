"""Bundled J4 reference tables and the consistency suite over them.

The package ships the published data for the J4 computation at p = 11
(orbit table, the intersection matrix P_2, the eigenspace bookkeeping, the
split character table, its reduction mod 11, the decomposition matrix, and
the projective character columns) as JSON fixtures.  Two entries are
corrected against internal identities and noted in the files themselves:
n_10 = 3333120 (orbit-stabilizer forces it) and the chi_51 row of the
projective-column table (the row-sum identity forces it).

run_suite() replays every identity the data must satisfy; each check is
exact integer or quadratic-field arithmetic, no tolerances anywhere.
"""

import json
from importlib import resources

from . import modular, schur, splitchar, zpoly
from .gfmat import vector_bytes


def _load(name):
    ref = resources.files("endoperm.data").joinpath(name)
    return json.loads(ref.read_text())


def load_orbits():
    return _load("j4_orbits.json")


def load_p2():
    return _load("j4_p2.json")


def load_eigenspaces():
    return _load("j4_eigenspaces.json")


def load_chartable():
    data = _load("j4_chartable_ec.json")
    return splitchar.EndoCharTable.from_json(data)


def load_reduced():
    return _load("j4_chartable_ef.json")


def load_decomposition():
    return _load("j4_decomposition.json")


def load_psi_columns():
    return _load("j4_psi_columns.json")


def load_permchar():
    return _load("j4_permchar.json")


class Check:
    def __init__(self, name, ok, detail=""):
        self.name = name
        self.ok = ok
        self.detail = detail

    def line(self):
        return f"{'PASS' if self.ok else 'FAIL'}  {self.name}" + (
            f"  [{self.detail}]" if self.detail else "")


def run_suite():
    """Every fixture identity, as a list of Check results."""
    checks = []
    orb = load_orbits()
    lengths = [o["n"] for o in orb["orbits"]]
    stabs = [o["stabilizer_order"] for o in orb["orbits"]]
    pairing = [o["pair"] for o in orb["orbits"]]
    index = orb["index"]
    h_order = orb["subgroup_order"]

    checks.append(Check(
        "orbit lengths sum to [G:H] = 8474719242",
        sum(lengths) == index == 8474719242,
        f"sum = {sum(lengths)}"))
    checks.append(Check(
        "n_j * |H_j| = |H| for all 27 orbits",
        all(n * s == h_order for n, s in zip(lengths, stabs))))
    checks.append(Check(
        "orbit pairing is an involution with equal lengths",
        all(pairing[pairing[j - 1] - 1] == j
            and lengths[pairing[j - 1] - 1] == lengths[j - 1]
            for j in range(1, 28))))
    checks.append(Check(
        "[G:H] * |H| = |G|",
        index * h_order == orb["group_order"]))
    checks.append(Check(
        "naive vector storage is 18 bytes/point, ~152.5 GB total",
        vector_bytes(2, 112) == 18
        and index * vector_bytes(2, 112) == 152544946356))

    p2 = load_p2()["entries"]
    try:
        schur.validate_intersection_matrix(p2, 2, lengths)
        checks.append(Check(
            "P_2: unit first row and all 27 weighted row sums", True))
    except schur.IntegralityError as exc:
        checks.append(Check("P_2 row identities", False, str(exc)))
    checks.append(Check(
        "P_2 spot rows: 31*n_1 + 1*n_3 = 31^2 and row 3 weighted sum",
        p2[1][0] == 31 and p2[1][2] == 1
        and 31 * lengths[0] + 1 * lengths[2] == 31 ** 2
        and 30 * lengths[1] + 2 * lengths[2] + 1 * lengths[4]
        == lengths[2] * 31))
    checks.append(Check(
        "P_2 pairing: n_k (P_2)_ik = n_i (P_2)_ki (orbit 2 is self-paired)",
        pairing[1] == 2
        and all(lengths[k] * p2[i][k] == lengths[i] * p2[k][i]
                for i in range(27) for k in range(27))))

    eigen = load_eigenspaces()
    # the table's pairs (f, m_f) are char_poly(P_2)'s factorization when
    # the f^m_f multiply back to it and the f are distinct, monic and
    # irreducible (unique factorization in Z[X]), each of degree <= 4
    facs = {(tuple(comp["f"]), comp["mf"]) for comp in eigen["components"]}
    product = (1,)
    for f, m in facs:
        for _ in range(m):
            product = zpoly.mul(product, f)
    certified = (product == splitchar.char_poly(p2)
                 and len({f for f, _ in facs}) == len(facs)
                 and all(0 < zpoly.deg(f) <= 4 and f[-1] == 1
                         and zpoly.factor(f)[2] == [(f, 1)]
                         for f, _ in facs))
    checks.append(Check(
        "char_poly(P_2) factors match eigenspace table column 1 "
        "(including f_4 squared)",
        certified,
        f"{len(facs)} distinct factors"))
    checks.append(Check(
        "X - 31 divides char_poly(P_2) exactly once",
        certified and ((-31, 1), 1) in facs))
    checks.append(Check(
        "component dimensions sum to r = 27",
        sum(c["d"] for c in eigen["components"]) == 27))
    f4 = tuple(eigen["abbrev"]["f4"])
    g4 = tuple(eigen["abbrev"]["g4"])
    try:
        n1, _ = splitchar._quadratic_factor(f4)
        n2, _ = splitchar._quadratic_factor(g4)
        checks.append(Check(
            "f_4 and g_4 split into conjugate quadratics over Q(r33)",
            n1 == 33 and n2 == 33))
    except splitchar.UnsupportedComponentError as exc:
        checks.append(Check("f_4/g_4 quadratic splitting", False, str(exc)))

    table = load_chartable()
    report = splitchar.verify_table(table)
    checks.append(Check(
        "E_C table: exact orthogonality, paired-column equality, unique "
        "nonnegative row, sum m*degree = n",
        report["ok"], "; ".join(report["failures"])))
    degree_ok = True
    for row in table.rows:
        try:
            degree = splitchar.fitting_degree(row, lengths, pairing)
        except ValueError:
            degree = None
        if degree != row.degree:
            degree_ok = False
            break
    checks.append(Check(
        "Fitting degrees recompute exactly (889111, 95288172, ...)",
        degree_ok
        and table.rows[1].degree == 889111
        and table.rows[6].degree == 95288172))
    conj_ok = all(
        (row.conj is None and row.field == 1)
        or (row.conj is not None
            and table.rows[row.conj].values == row.conjugate_values())
        for row in table.rows)
    checks.append(Check(
        "Galois conjugate rows pair up (5-6, 9-10, 14-15, 16-17)",
        conj_ok
        and table.rows[4].conj == 5 and table.rows[8].conj == 9
        and table.rows[13].conj == 14 and table.rows[15].conj == 16))

    reduced_fix = load_reduced()
    conv = modular.SqrtConvention(
        11, {int(k): v for k, v in reduced_fix["sqrt"].items()})
    try:
        reduced = modular.reduce_table(table, 11, conv)
    except AssertionError as exc:
        checks.append(Check("reduction mod 11", False, str(exc)))
        return checks
    rows_ok = all(
        reduced[int(k) - 1].values == v
        for k, v in reduced_fix["rows"].items())
    checks.append(Check(
        "reduction mod 11 under r3 -> 6, r33 -> 0 matches the printed "
        "rows phi_1, phi_3, phi_9, phi_2", rows_ok))
    checks.append(Check(
        "r33 ramified: (phi_5)_F = (phi_6)_F",
        reduced[4].values == reduced[5].values))

    try:
        D = modular.decomposition_matrix(reduced, 11)
    except modular.LiftValidationError as exc:
        checks.append(Check("decomposition matrix mod 11 lifts", False,
                            str(exc)))
        return checks
    checks.append(Check(
        "basic set is {phi_1, phi_2, phi_3, phi_9} (scan order)",
        sorted(o + 1 for o in D.col_origins)
        == sorted(reduced_fix["basic_set"])))
    dec_fix = load_decomposition()
    col_of = {phi: c for c, phi in
              enumerate(o + 1 for o in D.col_origins)}
    perm = [col_of[phi] for phi in dec_fix["columns"]]
    dec_ok = True
    for rowfix in dec_fix["rows"]:
        mine = D.entries[rowfix["phi"] - 1]
        if [mine[perm[c]] for c in range(4)] != rowfix["entries"]:
            dec_ok = False
            break
    checks.append(Check(
        "decomposition matrix reproduces all 18 printed rows exactly",
        dec_ok))
    blocks_mine = {frozenset(D.row_origins[i] + 1 for i in b)
                   for b in D.blocks}
    blocks_fix = {frozenset(b) for b in dec_fix["blocks"]}
    checks.append(Check(
        "column-support blocks are {1,3,4,5,6,7,8,14,17}, "
        "{9,11,12,15,16,18}, {2,10,13}", blocks_mine == blocks_fix))
    C = D.transpose_product()
    Cp = [[C[perm[i]][perm[j]] for j in range(4)] for i in range(4)]
    want_c = [[7, 3, 0, 0], [3, 5, 0, 0], [0, 0, 6, 0], [0, 0, 0, 3]]
    checks.append(Check(
        "D^T D = blockdiag([[7,3],[3,5]], [6], [3])", Cp == want_c))
    checks.append(Check(
        "Cartan matrix is symmetric (11 does not divide any n_j)",
        all(C[i][j] == C[j][i] for i in range(4) for j in range(4))
        and all(n % 11 for n in lengths)))

    mults = [row.mult for row in table.rows]
    weights = D.column_weights(mults)
    wp = [weights[perm[c]] for c in range(4)]
    checks.append(Check(
        "dim P_i = (10, 8, 6, 3) matches the regular-module "
        "multiplicities (1a)^10 (1b)^8 (1c)^6 (1d)^3",
        wp == dec_fix["pim_dims"]))

    psi_fix = load_psi_columns()
    cols = modular.projective_columns(D, table)
    psi_ok = _psi_columns_match(cols, psi_fix, dec_fix)
    checks.append(Check(
        "projective character columns match, including the a/1-a "
        "ambiguity for chi_38/chi_39", psi_ok))

    pch = load_permchar()
    total = 0
    deg_of = {row.fitting: row.degree for row in table.rows}
    for c in pch["constituents"]:
        label = str(c["chi"])
        deg = deg_of.get(label)
        if deg is None:
            deg = next(row.degree for row in table.rows
                       if row.ambiguous and str(c["chi"]) in row.fitting)
        total += c["m"] * deg
    checks.append(Check(
        "sum m_i * chi_i(1) over the permutation character = 8474719242",
        total == 8474719242))
    return checks


def _psi_columns_match(cols, psi_fix, dec_fix):
    by_basic = {c["basic"]: c for c in cols}
    for name, basic in psi_fix["column_basic"].items():
        col = by_basic.get(basic)
        if col is None:
            return False
        want_plain = {}
        want_amb = set()
        cidx = psi_fix["columns"].index(name)
        for rowfix in psi_fix["rows"]:
            e = rowfix["entries"][cidx]
            if e == 0:
                continue
            if isinstance(e, str):
                want_amb.add(rowfix["chi"])
            else:
                want_plain[rowfix["chi"]] = e
        if {k: v for k, v in col["entries"].items()} != want_plain:
            return False
        got_amb = set()
        for label, coeff in col["ambiguous"]:
            if coeff != 1:
                return False
            got_amb.update(label.split("/"))
        if got_amb != {c for c in want_amb}:
            return False
    return True
