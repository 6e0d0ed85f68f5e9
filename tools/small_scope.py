"""Bisimulate every two-state, two-symbol machine in both compile modes.

    python3 tools/small_scope.py

Enumerates every rule table over states {A, B} and symbols {0, 1}. Each of
the four (state, symbol) entries is no rule, one of the 8 moving rules (write
0 or 1, move left or right, go to A or B) or one of the 2 halt rules (write 0
or 1), so there are 11**4 = 14,641 tables. Each machine starts in A on a
one-cell blank tape and runs for 50 steps through ``bisimulate``, in dual and
in inferred mode, with the least codec. Every verdict must pass with the steps
and outcome of ``tm_run``. Runs this checkout's ``src/`` in-process and prints
one JSON object: the tables, the bisims, the failures (the first ten shown as
rules, mode and verdict), how many tables halt within the budget and how many
reach it, and the wall seconds. Exits 1 on any failure.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATES, SYMBOLS, STEPS = ("A", "B"), ("0", "1"), 50


def tables() -> list[tuple]:
    """Every table, as the tuple of its rules, in a fixed order."""
    from codonmachine import Move, Rule

    def choices(state: str, symbol: str) -> list:
        moving = [Rule(state, symbol, write, move, next_state) for write in SYMBOLS
                  for move in (Move.RIGHT, Move.LEFT) for next_state in STATES]
        return [None, *moving, *(Rule(state, symbol, write, Move.HALT) for write in SYMBOLS)]

    entries = [choices(state, symbol) for state in STATES for symbol in SYMBOLS]
    return [tuple(rule for rule in pick if rule) for pick in itertools.product(*entries)]


def check(rule_tables: list[tuple]) -> dict:
    """Bisimulate each table in both modes against ``tm_run``."""
    import codonmachine as cm
    from codonmachine.machine import format_rule

    blank = cm.MachineSpec(SYMBOLS, STATES, (), SYMBOLS[0], STATES[0], (SYMBOLS[0],), 0)
    codec = cm.build_codec(blank)
    failures, halted = [], 0
    t0 = time.perf_counter()
    for rules in rule_tables:
        spec = dataclasses.replace(blank, rules=rules)
        ref = cm.tm_run(spec, STEPS)
        halted += ref.outcome is cm.Outcome.HALTED
        for mode in cm.CompileMode:
            verdict = cm.bisimulate(spec, codec, mode, STEPS)
            if (verdict.passed, verdict.steps, verdict.outcome) != (True, ref.steps, ref.outcome):
                failures.append({
                    "rules": [format_rule(r) for r in rules],
                    "mode": mode.value, "verdict": repr(verdict)})
    return {
        "tables": len(rule_tables),
        "bisims": len(rule_tables) * len(cm.CompileMode),
        "failed": len(failures),
        "first_failures": failures[:10],
        "halted": halted,
        "step_limit": len(rule_tables) - halted,
        "seconds": round(time.perf_counter() - t0, 3),
    }


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    result = check(tables())
    print(json.dumps(result))
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
