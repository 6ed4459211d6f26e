"""The benchmark's own tests: every workload at a tiny size runs clean, and
every checker rejects a corrupted answer."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import harness
import j4box
import johnson
import workloads
from endoperm import candfilter, corpus, pipeline

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = [
    workloads.JohnsonVector(n=6, k=2),
    workloads.CorpusJ4(names={"S4/S3", "S5/S4"}, constituents=6),
]


def failures(checks):
    return [name for name, ok, _ in checks if not ok]


def test_tiny_workloads_run_clean():
    want = [m["name"] for m in SPEC["end_to_end"]]
    for workload in TINY:
        result, lines = harness.measure(workload, seed=1, seconds=0)
        assert result["correct"] and result["failed"] == 0, workload.name
        assert result["attempted"] > 0
        assert list(result["metrics"]) == want
        assert all(m["value"] > 0 for m in result["metrics"].values())
        for printed in ("work_per_s", "fail_ratio"):
            assert any(line.startswith(printed) for line in lines)


def test_traced_run_emits_every_layer_metric_and_repeats_counts():
    want = [m["name"] for m in SPEC["per_layer"]]
    first, _ = harness.measure(TINY[0], seed=3, seconds=0, trace=True)
    again, _ = harness.measure(TINY[0], seed=3, seconds=0, trace=True)
    assert first["correct"] and list(first["metrics"]) == want
    measured = {"s", "1/s", "B"}
    for name, metric in first["metrics"].items():
        if metric["unit"] not in measured and name != "trace.overhead_ratio":
            assert again["metrics"][name] == metric, name
    assert first["metrics"]["orbenum.applies"]["value"] > 0
    assert first["metrics"]["orbenum.bytes_per_stored_point"]["value"] > 0


def test_johnson_checker_rejects_corrupted_answers():
    sc = johnson.JohnsonScenario(7, 2, seed=5)
    run = pipeline.run_pipeline(sc.ctx, sc.helper, sc.h_order, seed=2)
    assert failures(johnson.check_run(run, sc)) == []

    rec = run.partition.records[1]
    rec.length += 1
    assert failures(johnson.check_run(run, sc)) == [
        "orbit lengths C(k,i) C(n-k,k-i)"]
    rec.length -= 1

    row = run.table.rows[-1]
    row.degree += 1
    assert failures(johnson.check_run(run, sc)) == [
        "Fitting degrees C(n,j) - C(n,j-1)"]
    row.degree -= 1

    j = max(run.counted)
    run.matrices[j - 1].entries[1][0] += 1
    assert failures(johnson.check_run(run, sc)) == [
        f"counted P_{j} equals the Johnson intersection numbers"]


def test_johnson_closed_forms_are_consistent():
    n, k = 9, 3
    lengths = [johnson.orbit_length(n, k, d) for d in range(k + 1)]
    assert sum(lengths) == 84
    for a in range(k + 1):
        for c in range(k + 1):
            row = [johnson.intersection_number(n, k, a, b, c)
                   for b in range(k + 1)]
            assert sum(row) == lengths[a]
    assert sum(johnson.fitting_degrees(n, k)) == sum(lengths)


def test_corpus_checker_rejects_corrupted_answers():
    inst = next(i for i in corpus.named_instances() if i.name == "S5/S4")
    run = pipeline.run_instance(inst, seed=1)
    oracle = pipeline.oracle_instance(inst, seed=1)
    assert failures(workloads._compare(oracle, run)) == []
    run.partition.records[1].length += 1
    assert "S5/S4: orbit lengths" in failures(workloads._compare(oracle, run))
    assert failures(workloads._manifest_checks(["missing instance x"]))


def test_j4_checker_rejects_corrupted_counts():
    for seed in range(4):
        box = j4box.SyntheticBox(seed, constituents=8)
        size, found = candfilter.admissible_candidates(
            box.table, box.constituents, j4box.PRIME)
        assert failures(j4box.check_filter((size, found), box)) == []
        assert len(found) == box.admissible >= 1
    assert failures(j4box.check_filter((size + 1, found), box)) == [
        "box size is the product of (m_i + 1)"]
    rest = [c for c in found if c.coeffs != box.planted]
    assert set(failures(j4box.check_filter((size, rest), box))) == {
        "admissible count equals the independent count",
        "the planted candidate survives"}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "corpus-j4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
