import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from endoperm import cli
from endoperm.candfilter import (OrdinaryCharTableG, admissible_candidates,
                                 conjugation_closure)
from endoperm.corpus import instance_scenario, named_instances
from endoperm.modular import SqrtConvention, permutation_verdict
from endoperm.orbenum import classify, load_scenario, memory_estimate
from endoperm.permgrp import (GeneratedGroup, Permutation, dump_word_json,
                              evaluate_word, group_to_json)
from endoperm.pipeline import run_pipeline
from scenarios import ordered_tuples_instance

S5_TABLE = {
    "classes": [
        {"name": "1a", "centralizer": 120},
        {"name": "2a", "centralizer": 12},
        {"name": "2b", "centralizer": 8},
        {"name": "3a", "centralizer": 6},
        {"name": "6a", "centralizer": 6},
        {"name": "4a", "centralizer": 4},
        {"name": "5a", "centralizer": 5, "p_singular": True},
    ],
    "characters": {
        "1": [1, 1, 1, 1, 1, 1, 1],
        "4": [4, 2, 0, 1, -1, 0, -1],
    },
    "constituents": [{"chi": "1", "m": 1}, {"chi": "4", "m": 1}],
}


def write_table(tmp_path, data):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_candidates_matches_the_filter(tmp_path):
    table = write_table(tmp_path, S5_TABLE)
    out = tmp_path / "out.json"
    assert cli.main(["candidates", table, "--p", "5", "--out", str(out)]) \
        == cli.EXIT_OK
    tbl = OrdinaryCharTableG.from_json(S5_TABLE)
    box, cands = admissible_candidates(tbl, [("1", 1), ("4", 1)], 5)
    want = {"p": 5, "box_size": box, "admissible": len(cands),
            "candidates": [c.as_dict() for c in cands],
            "forced_equalities": [list(pair)
                                  for pair in conjugation_closure(cands)]}
    assert json.loads(out.read_text()) == want
    assert want["admissible"] == 1


def test_malformed_tables_are_input_errors(tmp_path, capsys):
    bad_mult = dict(S5_TABLE, constituents=[{"chi": "1", "m": 2},
                                            {"chi": "4", "m": 1}])
    unknown = dict(S5_TABLE, constituents=[{"chi": "1", "m": 1},
                                           {"chi": "5", "m": 1}])
    first, second = S5_TABLE["classes"][:2]
    malformed = [
        dict(S5_TABLE, classes=5),
        dict(S5_TABLE, classes=[first, 5]),
        dict(S5_TABLE, characters=[[1] * 7]),
        dict(S5_TABLE, constituents=5),
        dict(S5_TABLE, classes=[first, dict(second, centralizer="12")]
             + S5_TABLE["classes"][2:]),
        dict(S5_TABLE, characters=dict(S5_TABLE["characters"],
                                       **{"1": [1.5] + [1] * 6})),
        dict(S5_TABLE, characters=dict(S5_TABLE["characters"],
                                       **{"1": [[1, 0, 0, 1, 5]] + [1] * 6})),
        dict(S5_TABLE, constituents=[]),
        [S5_TABLE],
    ]
    for data in [bad_mult, unknown] + malformed:
        table = write_table(tmp_path, data)
        assert cli.main(["candidates", table, "--p", "5"]) == cli.EXIT_INPUT
        assert "bad table file" in capsys.readouterr().err


def test_fixtures_suite_exits_ok(capsys):
    assert cli.main(["fixtures"]) == cli.EXIT_OK
    assert capsys.readouterr().out.strip()


def test_decomp_and_verdict_reject_bad_characteristic(tmp_path, capsys):
    scenario = tmp_path / "s4.json"
    inst = next(i for i in named_instances() if i.name == "S4/S3")
    scenario.write_text(json.dumps(instance_scenario(inst)))
    for command in ("decomp", "verdict"):
        for p in ("1", "4", "257"):
            out = tmp_path / f"{command}-{p}.json"
            assert cli.main([command, str(scenario), "--p", p,
                             "--out", str(out)]) == cli.EXIT_INPUT
            assert "unsupported characteristic" in capsys.readouterr().err
            assert not out.exists()
    out = tmp_path / "decomp-3.json"
    assert cli.main(["decomp", str(scenario), "--p", "3",
                     "--out", str(out)]) == cli.EXIT_OK
    assert json.loads(out.read_text())["p"] == 3


def test_verdict_exits_2_on_a_cartan_disagreement(tmp_path, capsys):
    # p = 3 divides |H| = 6, and D^T D is not E_F's Cartan matrix
    scenario = tmp_path / "s5-pairs.json"
    inst = ordered_tuples_instance(5, 2, primes=(3,))
    scenario.write_text(json.dumps(instance_scenario(inst)))
    out = tmp_path / "verdict.json"
    assert cli.main(["verdict", str(scenario), "--p", "3",
                     "--out", str(out)]) == cli.EXIT_INVARIANT
    assert "Cartan matrices disagree" in capsys.readouterr().err
    assert not out.exists()


def s4_scenario():
    inst = next(i for i in named_instances() if i.name == "S4/S3")
    return instance_scenario(inst)


def j82_scenario():
    """J(8,2): S_8 on the weight-2 vectors of F_2^8, H = S_2 x S_6 fixing
    e_0 + e_1, K = S_2 with the projection onto the first two coordinates.
    """
    n = 8
    a = Permutation([1, 0] + list(range(2, n)))
    b = Permutation([(i + 1) % n for i in range(n)])

    def transposition(i):   # (i i+1) = b^-i a b^i
        return ((1, -1),) * i + ((0, 1),) + ((1, 1),) * i

    cycle = ()               # (2 3 ... n-1)
    for i in range(n - 2, 1, -1):
        cycle += transposition(i)
    h_words = [transposition(0), transposition(2), cycle]
    mats = []
    for g in (a, b):
        m = np.zeros((n, n), dtype=int)
        m[np.arange(n), list(g.images)] = 1
        mats.append(m.reshape(-1).tolist())
    faithful = GeneratedGroup([evaluate_word(w, [a, b]) for w in h_words], n)
    return {
        "matrix_group": {"p": 2, "dim": n, "generators": mats},
        "h_words": [dump_word_json(w) for w in h_words],
        "k_words": [dump_word_json(((0, 1),))],
        "faithful_h": group_to_json(faithful),
        "base_point": {"vector": [1, 1] + [0] * (n - 2)},
        "quotient": {"projection": [[1, 0], [0, 1]] + [[0, 0]] * (n - 2)},
        "index": 28,
        "seed": 3,
    }


def run_cli(tmp_path, command, data, *extra):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(data))
    out = tmp_path / f"{command}.json"
    code = cli.main([command, str(scenario), "--out", str(out), *extra])
    return code, (json.loads(out.read_text()) if out.exists() else None)


def as_json(data):
    return json.loads(json.dumps(data, default=str))


@pytest.mark.parametrize("make", [s4_scenario, j82_scenario],
                         ids=["S4/S3", "J(8,2)"])
def test_scenario_subcommands_match_in_process_runs(tmp_path, make):
    data = make()
    ctx, helper = load_scenario(data)
    part = classify(ctx, helper, seed=ctx.seed)
    want = dict(part.report(), seed=ctx.seed,
                memory_estimate=memory_estimate(ctx))
    assert run_cli(tmp_path, "orbits", data) == (cli.EXIT_OK, as_json(want))

    ctx, helper = load_scenario(data)
    run = run_pipeline(ctx, helper, ctx.h_order, primes=[], seed=ctx.seed)
    want = {
        "lengths": run.partition.lengths(),
        "pairing": run.partition.pairing(),
        "closure_dimension": run.closure.dimension,
        "counted": sorted(run.counted),
        "matrices": {str(j): m.entries
                     for j, m in enumerate(run.matrices, 1)},
    }
    assert run_cli(tmp_path, "intersect", data) == (cli.EXIT_OK,
                                                    as_json(want))
    want = dict(run.table.to_json(), seed=ctx.seed)
    assert run_cli(tmp_path, "chartab", data) == (cli.EXIT_OK,
                                                  as_json(want))
    for p in (2, 3):
        verdict = permutation_verdict(run.table, run.matrices, p,
                                      h_order=run.h_order)
        want = dict(verdict.to_json(), seed=ctx.seed,
                    convention=SqrtConvention(p).to_json())
        assert run_cli(tmp_path, "verdict", data, "--p", str(p)) == (
            cli.EXIT_OK, as_json(want))
        for seed in range(4):
            assert run_cli(tmp_path, "verdict", data, "--p", str(p),
                           "--seed", str(seed)) == (
                cli.EXIT_OK, as_json(dict(want, seed=seed)))


def test_oracle_subcommand_passes_on_s4(tmp_path):
    out = tmp_path / "oracle.json"
    assert cli.main(["oracle", "S4/S3", "--out", str(out)]) == cli.EXIT_OK
    report = json.loads(out.read_text())
    assert report["all_ok"] and report["checks"]


def test_python_m_endoperm_runs_the_cli(tmp_path):
    data = s4_scenario()
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(data))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "endoperm", "orbits", str(scenario)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    ctx, helper = load_scenario(data)
    part = classify(ctx, helper, seed=ctx.seed)
    want = dict(part.report(), seed=ctx.seed,
                memory_estimate=memory_estimate(ctx))
    assert json.loads(proc.stdout) == as_json(want)


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    # bytes hash differently in every process, tuples of ints do not
    inst = next(i for i in named_instances() if i.name == "M11/M10")
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(instance_scenario(inst)))
    src = str(Path(cli.__file__).resolve().parents[1])
    for command in (["orbits"], ["verdict", "--p", "3"]):
        outs = []
        for hash_seed in ("1", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run(
                [sys.executable, "-m", "endoperm", *command, str(scenario)],
                capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == cli.EXIT_OK, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1] and json.loads(outs[0])


def test_exhausted_budgets_exit_3(tmp_path):
    code, report = run_cli(tmp_path, "orbits", s4_scenario(),
                           "--budget-probes", "0")
    assert code == cli.EXIT_BUDGET and report["residual"] > 0
    code, report = run_cli(tmp_path, "orbits", j82_scenario(),
                           "--budget-memory", "1")
    assert code == cli.EXIT_BUDGET
    assert report["error"] == "memory budget exceeded"


@pytest.mark.parametrize("j", ["0", "99"])
def test_intersect_rejects_j_outside_the_orbits(tmp_path, capsys, j):
    assert run_cli(tmp_path, "intersect", s4_scenario(), "--j", j) == (
        cli.EXIT_INPUT, None)
    assert f"--j {j} is outside 1..2" in capsys.readouterr().err


def _without(data, key):
    return {k: v for k, v in data.items() if k != key}


def _matrix_group(**change):
    data = j82_scenario()
    return dict(data, matrix_group=dict(data["matrix_group"], **change))


MALFORMED = {
    "permutation scenario, projection quotient": lambda: dict(
        s4_scenario(), quotient={"projection": [[1, 0]] * 4}),
    "permutation scenario, vector base point": lambda: dict(
        s4_scenario(), base_point={"vector": [1, 0, 0, 0]}),
    "vector scenario, integer base point": lambda: dict(
        j82_scenario(), base_point=1),
    "projection of rank below its width": lambda: dict(
        j82_scenario(), quotient={"projection": [[1, 0]] * 8}),
    "h-word generator out of range": lambda: dict(
        s4_scenario(), h_words=[[[9, 1]]]),
    "no index": lambda: _without(s4_scenario(), "index"),
    "top level is a list": lambda: [],
    "h_words is a number": lambda: dict(s4_scenario(), h_words=5),
    "budgets is a number": lambda: dict(s4_scenario(), budgets=5),
    "memory budget is a string": lambda: dict(
        s4_scenario(), budgets={"memory_points": "x"}),
    "index is a string": lambda: dict(s4_scenario(), index="abc"),
    "index is negative": lambda: dict(s4_scenario(), index=-3),
    "k_words is a number": lambda: dict(s4_scenario(), k_words=5),
    "group is a number": lambda: dict(s4_scenario(), group=5),
    "seed is a string": lambda: dict(s4_scenario(), seed="abc"),
    "h-word entry is a number": lambda: dict(s4_scenario(), h_words=[[5]]),
    "generator image is a string": lambda: dict(
        s4_scenario(), group={"degree": 4, "generators": [["x", 1, 3, 4]]}),
    "matrix dim is a string": lambda: _matrix_group(dim="2"),
    "matrix generators are null": lambda: _matrix_group(generators=None),
    "matrix_group is a list": lambda: dict(j82_scenario(), matrix_group=[]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_scenarios_are_input_errors(tmp_path, capsys, name):
    assert run_cli(tmp_path, "orbits", MALFORMED[name]()) == (
        cli.EXIT_INPUT, None)
    assert "bad scenario" in capsys.readouterr().err
