import json

from endoperm import cli
from endoperm.candfilter import (OrdinaryCharTableG, admissible_candidates,
                                 conjugation_closure)
from endoperm.corpus import instance_scenario, named_instances

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
    for data in (bad_mult, unknown):
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
