"""The production pipeline against the brute-force oracle on the corpus."""

import pytest

from endoperm import corpus, modular, pipeline
from endoperm.permgrp import Permutation
from scenarios import ordered_tuples_instance, run_memory_capped

# the two slowest oracle runs (several seconds each) stay out of tier-1
SLOW = {"random-7-paley-17", "random-4-dihedral-16-regular"}
FAST = [inst for inst in corpus.all_instances() if inst.name not in SLOW]


@pytest.mark.parametrize("inst", FAST, ids=lambda inst: inst.name)
def test_pipeline_agrees_with_oracle(inst):
    run = pipeline.run_instance(inst)
    checks = pipeline.compare(run, pipeline.oracle_instance(inst))
    assert checks
    failed = [(name, detail) for name, ok, detail in checks if not ok]
    assert failed == []


def test_trace_identity_detects_a_changed_value():
    inst = next(i for i in FAST if i.name == "random-5-quaternion-regular")
    table = pipeline.run_instance(inst).table
    assert pipeline._trace_identity(table)
    table.rows[-1].values[1] = table.rows[-1].values[1] + 1
    assert not pipeline._trace_identity(table)


@pytest.mark.parametrize("name", ["random-3-dihedral-12-points",
                                  "random-10-johnson-5-2"])
def test_verdicts_do_not_depend_on_the_seed(name):
    # both have simples of equal dimension, whose order once came from a
    # seeded random search
    inst = next(i for i in FAST if i.name == name)
    reports = [pipeline.run_instance(inst, seed=seed).report()
               for seed in range(4)]
    for report in reports[1:]:
        assert report["verdicts"] == reports[0]["verdicts"]
        assert report["mod_skips"] == reports[0]["mod_skips"]


def test_table_rows_come_in_the_oracle_order():
    # unsorted: build_table lists the rows by (degree, values) itself
    compared = []
    for inst in corpus.all_instances():
        want = pipeline.oracle_instance(inst, primes=()).char_rows
        if want is None:
            continue  # non-commutative commutant: no eigenvalue oracle
        rows = pipeline.run_instance(inst, primes=()).table.rows
        assert [(tuple(row.values), row.mult, row.degree)
                for row in rows] == list(want), inst.name
        compared.append(inst.name)
    assert len(compared) == 14


def _dihedral_8_regular():
    rotation, reflection = Permutation([1, 2, 3, 0]), Permutation([0, 3, 2, 1])
    return corpus.Instance(
        "dihedral-8-regular",
        corpus._regular_group([rotation, reflection], 4), primes=(2,))


@pytest.mark.parametrize("build", [
    lambda: next(i for i in corpus.all_instances()
                 if i.name == "random-4-dihedral-16-regular"),
    lambda: next(i for i in FAST if i.name == "random-5-quaternion-regular"),
    _dihedral_8_regular,
], ids=["dihedral-16", "quaternion-8", "dihedral-8"])
def test_regular_route_on_p_groups_is_local(build):
    # a closed form, not the oracle (compare checks the regular route
    # against the same function): a p-group P acting regularly has
    # End(F_p P) = F_p P, a local algebra of dimension |P| at p, so its
    # Cartan matrix is [[|P|]] with one PIM of dimension |P|
    inst = build()
    order = inst.group.order()
    assert order & (order - 1) == 0 and inst.group.degree == order
    run = pipeline.run_instance(inst, primes=[2])
    assert len(run.matrices) == order
    skip = run.mod_skips[2]
    assert (skip["local"], skip["cartan"], skip["pim_dims"]) == \
        (True, [[order]], [order])


def test_cartan_disagreement_at_p_dividing_h_is_a_skip(monkeypatch):
    # S5 on ordered pairs at p = 3, |H| = 6: D^T D = I_4, but listing all
    # 3^7 elements of E_F gives a radical of dimension 3, so E_F is not
    # semisimple; its Cartan matrix below is the brute-force one
    inst = ordered_tuples_instance(5, 2, primes=(3,))
    calls = []
    real = modular.cartan_from_regular

    def counting(inter_mats, p):
        calls.append(p)
        return real(inter_mats, p)

    monkeypatch.setattr(modular, "cartan_from_regular", counting)
    run = pipeline.run_instance(inst)
    # the skip reuses the regular route the verdict ran before it raised
    assert calls == [3]
    assert run.h_order == 6 and run.verdicts == {}
    skip = run.mod_skips[3]
    assert skip["reason"].startswith("CartanDisagreement: ")
    assert modular.cartan_equivalent(
        skip["cartan"], [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0],
                         [1, 0, 0, 2]])
    assert sorted(skip["pim_dims"]) == [1, 1, 2, 3]
    assert skip["local"] is False
    checks = pipeline.compare(run, pipeline.oracle_instance(inst))
    assert [name for name, ok, _ in checks if not ok] == []


def test_s6_on_ordered_triples_agrees_with_oracle():
    # index 120, r = 34, |H| = 6: the largest rank in tier-1.  Under the
    # address-space cap, a random stream that kept its words ran out of
    # memory in classify.
    result = run_memory_capped("""
        from endoperm import pipeline
        from scenarios import ordered_tuples_instance
        inst = ordered_tuples_instance(6, 3, primes=(7,))
        run = pipeline.run_instance(inst)
        assert len(run.matrices) == 34 and run.h_order == 6
        assert sorted(run.verdicts) == [7] and run.mod_skips == {}
        checks = pipeline.compare(run, pipeline.oracle_instance(inst))
        print(len(checks))
        for name, ok, detail in checks:
            if not ok:
                print("FAIL", name, detail)
    """)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["11"]
