"""``tools/small_scope.py``: every 2x2 table, and a seeded sample in lockstep."""

import importlib.util
import json
import random
import sys
from pathlib import Path

import codonmachine
from codonmachine import BisimVerdict

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "small_scope.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("small_scope", _TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_every_table_once():
    tables = load_tool().tables()
    assert len(tables) == len(set(tables)) == 11**4
    assert () in tables  # the table with no rule at all
    assert max(map(len, tables)) == 4


def test_a_seeded_sample_passes_in_both_modes():
    tool = load_tool()
    sample = random.Random(24).sample(tool.tables(), 300)
    result = tool.check(sample)
    assert (result["tables"], result["bisims"], result["failed"]) == (300, 600, 0)
    assert result["halted"] > 0 and result["step_limit"] > 0


def test_a_failing_verdict_exits_1(monkeypatch, capsys):
    tool = load_tool()
    one = tool.tables()[1]  # no rule but the last entry's first moving rule
    monkeypatch.setattr(tool, "tables", lambda: [one])
    monkeypatch.setattr(codonmachine, "bisimulate", lambda *_: BisimVerdict(False, 0, None))
    monkeypatch.setattr(sys, "path", sys.path[:])
    assert tool.main() == 1
    result = json.loads(capsys.readouterr().out)
    assert (result["bisims"], result["failed"]) == (2, 2)
    assert result["first_failures"][1] == {
        "rules": ["B 1 0 R A"], "mode": "inferred",
        "verdict": "BisimVerdict(passed=False, steps=0, outcome=None, divergence=None)"}
