import random
from fractions import Fraction

import pytest
import sympy

from endoperm import cli, fixtures, schur, splitchar
from endoperm.modular import SqrtConvention, reduce_table
from endoperm.quadfield import QuadraticNumber
from scenarios import sym


def test_full_suite_passes():
    checks = fixtures.run_suite()
    failing = [c.name for c in checks if not c.ok]
    assert not failing, failing
    assert len(checks) >= 20


def test_tampering_is_detected():
    p2 = [row[:] for row in fixtures.load_p2()["entries"]]
    lengths = [o["n"] for o in fixtures.load_orbits()["orbits"]]
    schur.validate_intersection_matrix(p2, 2, lengths)
    p2[3][4] += 1
    with pytest.raises(schur.IntegralityError):
        schur.validate_intersection_matrix(p2, 2, lengths)


def test_pairing_check_detects_one_changed_entry(monkeypatch):
    # change (P_2)_ik of a pair with (P_2)_ik and (P_2)_ki nonzero, i != k,
    # and leave (P_2)_ki as printed
    data = fixtures.load_p2()
    p2 = data["entries"]
    i, k = next((i, k) for i in range(1, 27) for k in range(i + 1, 27)
                if p2[i][k] and p2[k][i])
    p2[i][k] += 1
    monkeypatch.setattr(fixtures, "load_p2", lambda: data)
    pairing = [c for c in fixtures.run_suite()
               if c.name.startswith("P_2 pairing")]
    assert len(pairing) == 1 and not pairing[0].ok


def test_convention_is_forced_by_the_reduced_rows():
    # with the default root r3 -> 5 the printed reduction cannot match
    table = fixtures.load_chartable()
    wrong = reduce_table(table, 11, SqrtConvention(11))
    fixture_rows = fixtures.load_reduced()["rows"]
    assert wrong[8].values != fixture_rows["9"]
    right = reduce_table(table, 11, SqrtConvention(11, {3: 6}))
    assert right[8].values == fixture_rows["9"]


def test_corpus_manifest_verifies():
    from endoperm.corpus import verify_against_manifest
    assert verify_against_manifest() == []


def corrupted_table(seed):
    """The bundled E_C table with one value changed by a nonzero amount in
    the row's field (any of Q, Q(r3), Q(r5), Q(r33) for a rational row),
    at an orbit and at its paired orbit alike; (table, row, orbit)."""
    table = fixtures.load_chartable()
    rng = random.Random(seed)
    i, j = rng.randrange(len(table.rows)), rng.randrange(table.r)
    row = table.rows[i]
    n = row.field if row.field != 1 else rng.choice([1, 3, 5, 33])
    a = b = 0
    while not (a or b):
        a, b = rng.randint(-3, 3), rng.randint(-2, 2) if n != 1 else 0
    value = row.values[j] + QuadraticNumber(a, b, n)
    for jj in {j, table.pairing[j] - 1}:
        row.values[jj] = value
    return table, i, j


def test_verify_table_reports_every_corruption():
    rational = [row.field == 1 for row in fixtures.load_chartable().rows]
    irrational = 0
    for seed in range(40):
        table, i, _ = corrupted_table(seed)
        report = splitchar.verify_table(table)
        assert not report["ok"], seed
        # a rational row given an irrational value has an irrational
        # self-orthogonality sum, which used to raise
        if rational[i] and table.rows[i].field != 1:
            irrational += 1
            assert f"self-orthogonality fails for row {i}" in \
                report["failures"]
    assert irrational


def test_fixtures_on_a_corrupted_table_exits_2(monkeypatch, capsys):
    tables = [corrupted_table(seed)[0] for seed in range(4)]
    for table in tables:
        monkeypatch.setattr(fixtures, "load_chartable", lambda: table)
        assert cli.main(["fixtures"]) == cli.EXIT_INVARIANT
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "FAIL" in captured.out or "invariant violation" in captured.err


def test_mod_11_failures_are_reported_after_the_checks_made(monkeypatch,
                                                           capsys):
    # seed 15 breaks the reduction at the identity; 32 and 37 break the
    # lift of the decomposition matrix
    cases = [(corrupted_table(seed)[0], failing) for seed, failing in (
        (15, "reduction mod 11"),
        (32, "decomposition matrix mod 11 lifts"),
        (37, "decomposition matrix mod 11 lifts"))]
    for table, failing in cases:
        monkeypatch.setattr(fixtures, "load_chartable", lambda: table)
        assert cli.main(["fixtures"]) == cli.EXIT_INVARIANT
        captured = capsys.readouterr()
        assert "invariant violation" not in captured.err
        lines = captured.out.splitlines()
        assert any(line.startswith("FAIL  E_C table: exact orthogonality")
                   for line in lines)
        assert lines[-1].startswith(f"FAIL  {failing}  [")


def fitting_degree_term_by_term(row, lengths, pairing):
    """The Fitting degree from the self-orthogonality sum taken term by
    term in sympy, or ValueError in fitting_degree's two cases."""
    acc = sympy.expand(sympy.Add(*(
        sym(row.values[pairing[j] - 1]) * sym(row.values[j]) / n_j
        for j, n_j in enumerate(lengths))))
    if not acc.is_Rational:
        raise ValueError("irrational")
    degree = Fraction(row.mult * sum(lengths)) / Fraction(acc.p, acc.q)
    if degree.denominator != 1 or degree <= 0:
        raise ValueError("not a positive integer")
    return degree


def test_fitting_degree_matches_the_term_by_term_sum():
    tables = [fixtures.load_chartable()]
    tables += [corrupted_table(seed)[0] for seed in range(40)]
    outcomes = set()
    for table in tables:
        for row in table.rows:
            try:
                want = fitting_degree_term_by_term(row, table.lengths,
                                                   table.pairing)
            except ValueError:
                with pytest.raises(splitchar.NotACharacterError):
                    splitchar.fitting_degree(row, table.lengths,
                                             table.pairing)
                outcomes.add("raises")
                continue
            got = splitchar.fitting_degree(row, table.lengths, table.pairing)
            assert got == want and type(got) is int
            outcomes.add("degree")
    assert outcomes == {"raises", "degree"}
    assert [row.degree for row in tables[0].rows] == [
        splitchar.fitting_degree(row, tables[0].lengths, tables[0].pairing)
        for row in tables[0].rows]
