"""Command-line front end.

Subcommands mirror the pipeline stages: orbits, intersect, chartab,
decomp, verdict on scenario files; candidates on ordinary-table files;
oracle on corpus instance names; fixtures for the bundled J4 table suite.
All outputs are JSON with stable key order; --render (orbits, chartab,
verdict) adds a human-readable sketch on stderr.  Exit codes: 0 success,
2 invariant violation, 3 budget exhausted, 4 input error.
"""

import argparse
import json
import sys

from . import candfilter, fixtures, modular, orbenum, schur, splitchar
from .gfmat import UnsupportedCharacteristic
from .pipeline import (ClassifyIncomplete, compare, oracle_instance,
                       run_instance, run_pipeline)

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_BUDGET = 3
EXIT_INPUT = 4


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _emit(data, args):
    text = json.dumps(data, indent=1, sort_keys=True, default=str)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_scenario(args):
    try:
        with open(args.scenario) as fh:
            data = json.load(fh)
        ctx, helper = orbenum.load_scenario(data)
        if ctx.target_index is None:
            raise ValueError("scenario needs the index [G:H]")
    except (OSError, json.JSONDecodeError, KeyError, IndexError,
            ValueError) as exc:
        raise CliError(f"bad scenario: {exc}", EXIT_INPUT)
    if args.seed is not None:
        ctx.seed = args.seed
    if args.budget_memory is not None:
        ctx.memory_limit = args.budget_memory
    return ctx, helper


def _sqrt_overrides(args):
    out = {}
    for item in args.sqrt or []:
        try:
            n, s = item.split("=")
            out[int(n)] = int(s)
        except ValueError:
            raise CliError(f"bad --sqrt argument {item!r}; use n=s",
                           EXIT_INPUT)
    return out


def _h_order(ctx):
    if ctx.faithful_h is None:
        raise CliError("scenario needs a faithful H-action for this "
                       "command", EXIT_INPUT)
    return ctx.h_order


def cmd_orbits(args):
    ctx, helper = _load_scenario(args)
    seed = ctx.seed
    try:
        part = orbenum.classify(ctx, helper, seed=seed,
                                probe_budget=args.budget_probes)
    except orbenum.MemoryBudgetExceeded as exc:
        _emit({"error": "memory budget exceeded", "detail": str(exc)}, args)
        return EXIT_BUDGET
    report = part.report()
    report["seed"] = seed
    report["memory_estimate"] = orbenum.memory_estimate(ctx)
    _emit(report, args)
    if args.render:
        print(_render_orbits(report), file=sys.stderr)
    return EXIT_OK if part.residual == 0 else EXIT_BUDGET


def _render_orbits(report):
    lines = ["  j   j*            n_j        |H_j|   saving"]
    for o in report["orbits"]:
        sf = o["saving_factor"]
        lines.append(f"{o['j']:>3} {o['pair']:>4} {o['n']:>14} "
                     f"{o['stabilizer_order'] or '?':>12} "
                     f"{sf[0]}/{sf[1]}")
    return "\n".join(lines)


def _pipeline_from_scenario(args, primes):
    ctx, helper = _load_scenario(args)
    try:
        return run_pipeline(ctx, helper, _h_order(ctx), primes=primes,
                            seed=ctx.seed,
                            probe_budget=args.budget_probes)
    except ClassifyIncomplete as exc:
        raise CliError(str(exc), EXIT_BUDGET)


def cmd_intersect(args):
    run = _pipeline_from_scenario(args, primes=[])
    wanted = args.j or list(range(1, len(run.matrices) + 1))
    out = {
        "lengths": run.partition.lengths(),
        "pairing": run.partition.pairing(),
        "closure_dimension": run.closure.dimension,
        "counted": sorted(run.counted),
        "matrices": {str(j): run.matrices[j - 1].entries for j in wanted},
    }
    _emit(out, args)
    return EXIT_OK


def cmd_chartab(args):
    run = _pipeline_from_scenario(args, primes=[])
    out = run.table.to_json()
    out["seed"] = run.ctx.seed
    _emit(out, args)
    if args.render:
        for i, row in enumerate(run.table.rows):
            print(f"phi_{i + 1}: m={row.mult} deg={row.degree} "
                  f"values={row.values}", file=sys.stderr)
    return EXIT_OK


def cmd_decomp(args):
    if not args.p:
        raise CliError("--p is required", EXIT_INPUT)
    run = _pipeline_from_scenario(args, primes=[])
    conv = modular.SqrtConvention(args.p, _sqrt_overrides(args))
    reduced = modular.reduce_table(run.table, args.p, conv)
    basic = modular.basic_set(reduced, args.p)
    D = modular.decomposition_matrix(run.table, reduced, basic, args.p)
    out = {
        "p": args.p,
        "convention": conv.to_json(),
        "reduced_rows": [r.values for r in reduced],
        "basic_set": [b + 1 for b in basic],
        "decomposition": D.to_json(),
        "cartan": modular.cartan_from_decomposition(D),
    }
    _emit(out, args)
    return EXIT_OK


def cmd_verdict(args):
    if not args.p:
        raise CliError("--p is required", EXIT_INPUT)
    run = _pipeline_from_scenario(args, primes=[])
    conv = modular.SqrtConvention(args.p, _sqrt_overrides(args))
    verdict = modular.permutation_verdict(
        run.table, run.matrices, args.p, conv=conv, h_order=run.h_order)
    out = verdict.to_json()
    out["seed"] = run.ctx.seed
    out["convention"] = conv.to_json()
    _emit(out, args)
    if args.render:
        word = "indecomposable" if verdict.local else "decomposable"
        print(f"the permutation module is {word}; projective cover "
              f"answer: {verdict.projective_cover_answer}",
              file=sys.stderr)
    return EXIT_OK


def cmd_candidates(args):
    if not args.p:
        raise CliError("--p is required", EXIT_INPUT)
    try:
        with open(args.table) as fh:
            data = json.load(fh)
        tbl = candfilter.OrdinaryCharTableG.from_json(data)
        constituents = [(c["chi"], c["m"]) for c in data["constituents"]]
        box, cands = candfilter.admissible_candidates(tbl, constituents,
                                                     args.p)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        raise CliError(f"bad table file: {exc}", EXIT_INPUT)
    out = {
        "p": args.p,
        "box_size": box,
        "admissible": len(cands),
        "candidates": [c.as_dict() for c in cands],
        "forced_equalities": candfilter.conjugation_closure(cands),
    }
    _emit(out, args)
    return EXIT_OK


def cmd_oracle(args):
    from . import corpus
    instances = {i.name: i for i in corpus.all_instances()}
    inst = instances.get(args.instance)
    if inst is None:
        raise CliError(
            f"unknown instance {args.instance!r}; known: "
            f"{sorted(instances)}", EXIT_INPUT)
    primes = args.p_list or None
    run = run_instance(inst, primes=primes, seed=args.seed or 0)
    orc = oracle_instance(inst, primes=primes)
    checks = compare(run, orc)
    out = {
        "instance": inst.name,
        "checks": [{"name": n, "ok": ok, "detail": d}
                   for n, ok, d in checks],
        "all_ok": all(ok for _, ok, _ in checks),
    }
    _emit(out, args)
    return EXIT_OK if out["all_ok"] else EXIT_INVARIANT


def cmd_fixtures(args):
    checks = fixtures.run_suite()
    for c in checks:
        print(c.line())
    ok = all(c.ok for c in checks)
    if args.out:
        _emit({"checks": [{"name": c.name, "ok": c.ok} for c in checks],
               "all_ok": ok}, args)
    return EXIT_OK if ok else EXIT_INVARIANT


def build_parser():
    ap = argparse.ArgumentParser(
        prog="endoperm",
        description="endomorphism rings of permutation modules: orbit "
                    "enumeration, Schur bases, exact character tables, "
                    "modular decomposition")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, render=False):
        p.add_argument("scenario", help="scenario JSON file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--budget-probes", type=int, default=10 ** 6)
        p.add_argument("--budget-memory", type=int, default=None)
        p.add_argument("--out", default=None, help="write JSON here")
        if render:
            p.add_argument("--render", action="store_true",
                           help="also print a human-readable table to "
                                "stderr")

    p = sub.add_parser("orbits", help="H-orbit decomposition")
    common(p, render=True)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("intersect", help="intersection matrices")
    common(p)
    p.add_argument("--j", type=int, nargs="*", default=None)
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("chartab", help="split character table of E")
    common(p, render=True)
    p.set_defaults(func=cmd_chartab)

    p = sub.add_parser("decomp",
                       help="reduced table, basic set, D, Cartan")
    common(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--sqrt", action="append", metavar="n=s",
                   help="square-root convention override")
    p.set_defaults(func=cmd_decomp)

    p = sub.add_parser("verdict",
                       help="is F_H^G indecomposable; is the projective "
                            "cover a permutation module")
    common(p, render=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--sqrt", action="append", metavar="n=s")
    p.set_defaults(func=cmd_verdict)

    p = sub.add_parser("candidates",
                       help="projective-character candidate filter")
    p.add_argument("table", help="ordinary character table JSON")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_candidates)

    p = sub.add_parser("oracle", help="cross-check one corpus instance")
    p.add_argument("instance")
    p.add_argument("--p", dest="p_list", type=int, nargs="*", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("fixtures",
                       help="run the bundled J4 reference-table suite")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fixtures)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (modular.InertFieldError, UnsupportedCharacteristic) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (orbenum.MemoryBudgetExceeded, schur.PartialCountsError) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (AssertionError, schur.IntegralityError,
            modular.LiftValidationError,
            splitchar.UnsupportedComponentError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
