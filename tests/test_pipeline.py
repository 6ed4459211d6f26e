"""The production pipeline against the brute-force oracle on the corpus."""

import pytest

from endoperm import corpus, pipeline

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
