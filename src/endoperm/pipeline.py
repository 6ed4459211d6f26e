"""End-to-end orchestration: orbits -> Schur basis -> split table -> mod p.

run_instance drives the production route on one corpus instance;
oracle_instance computes the same quantities by brute force; compare lines
them up check by check.  The mod-p stage records structured skips where
the character-based route is out of its depth (inert residue fields, or p
too small for the lift), in which case locality and the Cartan matrix are
still compared through the field-free regular-module route.
"""

from . import modular, oracle, orbenum, schur, splitchar
from .corpus import build_context
from .quadfield import RadicalVector


class ClassifyIncomplete(RuntimeError):
    """The probe budget ran out with points unaccounted for."""

    def __init__(self, message, run):
        super().__init__(message)
        self.run = run


class InstanceRun:
    def __init__(self, name):
        self.name = name
        self.partition = None
        self.matrices = None
        self.closure = None
        self.counted = None
        self.table = None
        self.verdicts = {}
        self.mod_skips = {}

    def report(self):
        return {
            "name": self.name,
            "orbits": self.partition.report(),
            "closure_dimension": self.closure.dimension,
            "counted": sorted(self.counted),
            "table": self.table.to_json(),
            "verdicts": {str(p): v.to_json()
                         for p, v in self.verdicts.items()},
            "mod_skips": {str(p): s for p, s in self.mod_skips.items()},
        }


def run_instance(inst, primes=None, seed=0):
    """The full production pipeline on one corpus instance."""
    ctx, helper, H = build_context(inst, seed=seed)
    return run_pipeline(ctx, helper, H.order(), primes=primes, seed=seed,
                        name=inst.name,
                        primes_default=inst.primes)


def run_pipeline(ctx, helper, h_order, primes=None, seed=0, name="scenario",
                 primes_default=(), probe_budget=10 ** 6):
    """The full production pipeline over an action context."""
    run = InstanceRun(name)
    run.ctx, run.helper, run.h_order = ctx, helper, h_order
    part = orbenum.classify(ctx, helper, seed=seed,
                            probe_budget=probe_budget)
    if part.residual:
        run.partition = part
        raise ClassifyIncomplete(
            f"{name}: classify left {part.residual} points", run)
    run.partition = part
    sctx = schur.SchurContext(ctx, helper, part, seed=seed)
    mats, run.closure, counted = schur.all_intersection_matrices(sctx)
    run.matrices = mats
    run.counted = set(counted)
    gen_mats = [(j, mats[j - 1]) for j in counted if j != 1]
    if not gen_mats:
        gen_mats = [(1, mats[0])]
    run.table = splitchar.build_table(
        gen_mats, mats, sctx.lengths, sctx.pairing, seed=seed + 1)
    for p in (primes if primes is not None else primes_default):
        try:
            run.verdicts[p] = modular.permutation_verdict(
                run.table, mats, p, h_order=run.h_order)
        except (modular.InertFieldError,
                modular.LiftValidationError) as exc:
            reg = modular.cartan_from_regular(mats, p)
            run.mod_skips[p] = {
                "reason": f"{type(exc).__name__}: {exc}",
                "local": len(reg["constituents"]) == 1,
                "cartan": reg["cartan"],
                "pim_dims": reg["pim_dims"],
            }
    return run


class OracleRun:
    def __init__(self, name):
        self.name = name


def oracle_instance(inst, primes=None, seed=0):
    """Brute-force route on the same instance.

    Orbit indexing follows the engine's canonical convention in point
    space (v1's orbit first, then by length and minimal point), so the two
    routes are comparable entry by entry.  Nothing here is random: `seed`
    is accepted, and ignored, so that callers can pass run_instance's
    arguments unchanged."""
    out = OracleRun(inst.name)
    G = inst.group
    G.build_chain()
    H = G.stabilizer(inst.base_point)
    act = oracle.coset_action(G, H)
    h_perms = oracle.subgroup_coset_perms(act, H.gens)
    coset_orbits = oracle.exhaustive_orbits(act.degree, h_perms)
    point_of = [inst.base_point]
    for rep in act.reps[1:]:
        point_of.append(rep.images[inst.base_point])
    keyed = []
    for orb in coset_orbits:
        pts = sorted(point_of[c] for c in orb)
        keyed.append((0 if orb[0] == 0 else 1, len(orb), pts, orb))
    keyed.sort(key=lambda t: (t[0], t[1], t[2]))
    orbits = [t[3] for t in keyed]
    out.point_orbits = [t[2] for t in keyed]
    basis = oracle.commutant_basis(act, h_perms, orbits=orbits)
    out.h_order = H.order()
    out.orbits = basis.orbits
    out.lengths = [len(o) for o in basis.orbits]
    out.stab_orders = [H.order() // len(o) for o in basis.orbits]
    out.pairing = [p + 1 for p in oracle.orbit_pairing(act, basis.orbits)]
    out.inter_mats = oracle.structure_constants(basis)
    try:
        out.char_rows = oracle.char_table_commutative(basis)
    except oracle.NonCommutativeCommutant:
        out.char_rows = None
    out.modular = {}
    for p in (primes if primes is not None else inst.primes):
        out.modular[p] = oracle.direct_endo_decomposition(out.inter_mats, p)
    return out


def compare(run, orc):
    """Check-by-check agreement of the pipeline with the oracle."""
    checks = []

    def add(name, ok, detail=""):
        checks.append((f"{run.name}: {name}", bool(ok), detail))

    add("orbit lengths",
        run.partition.lengths() == orc.lengths,
        f"{run.partition.lengths()} vs {orc.lengths}")
    add("stabilizer orders",
        [r.stab_order for r in run.partition.records] == orc.stab_orders)
    add("pairing", run.partition.pairing() == orc.pairing)
    same_orbits = True
    for rec, pts in zip(run.partition.records, orc.point_orbits):
        if not set(rec.store) <= set(pts):
            same_orbits = False
    add("stored points lie in the oracle orbits", same_orbits)
    add("intersection matrices (structure constants)",
        all(m.entries == P for m, P in zip(run.matrices, orc.inter_mats)))
    if orc.char_rows is not None:
        mine = sorted(
            ((tuple(row.values), row.mult, row.degree)
             for row in run.table.rows),
            key=lambda t: (t[2], [(v.a, v.b, v.n) for v in t[0]]))
        add("character table (vs simultaneous diagonalization)",
            mine == list(orc.char_rows))
    else:
        report = splitchar.verify_table(run.table)
        add("character table exact identities (non-commutative case)",
            report["ok"], "; ".join(report["failures"]))
        add("trace identity sum m_phi phi(A_j) = n delta_1j",
            _trace_identity(run.table))
    for p, om in orc.modular.items():
        if p in run.verdicts:
            v = run.verdicts[p]
            add(f"locality at p={p}", v.local == om["local"])
            add(f"Cartan matrix at p={p}",
                modular._cartan_multiset(v.cartan)
                == modular._cartan_multiset(om["cartan"]),
                f"{v.cartan} vs {om['cartan']}")
            add(f"PIM dimension multiset at p={p}",
                sorted(v.pim_dims) == sorted(om["pim_dims"]))
            add(f"block count at p={p}",
                len(v.blocks) == len(
                    modular._block_diag_blocks(om["cartan"])))
        elif p in run.mod_skips:
            s = run.mod_skips[p]
            add(f"locality at p={p} (regular route; table route skipped)",
                s["local"] == om["local"], s["reason"])
            add(f"Cartan at p={p} (regular route)",
                modular._cartan_multiset(s["cartan"])
                == modular._cartan_multiset(om["cartan"]))
    return checks


def _trace_identity(table):
    """sum over rows of degree * value(A_j) is n at j = 1 and 0 elsewhere
    (the trace of the orbital basis on the permutation module)."""
    n = table.n
    degrees = RadicalVector([row.degree for row in table.rows])
    for j in range(table.r):
        acc = RadicalVector([row.values[j] for row in table.rows])
        if acc.dot(degrees).terms != ({1: n} if j == 0 else {}):
            return False
    return True
