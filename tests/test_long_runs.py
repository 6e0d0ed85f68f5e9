"""Long mechanical runs against the classical interpreter.

Walkers grow the tape by one cell on every step for 16k steps, rightward and
leftward. Seeded random sweepers bounce between the ends of a marked region
for 10k steps, growing the tape on both sides and walking back over every
cell they wrote. The BB(4) champion runs to its halt. For each, ``run``'s
final tape, step count and halting equal ``tm_run``'s, and ``bisimulate``
passes. The BB(5) champion is bisimulated for its first 20k steps.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from codonmachine import (
    BisimVerdict,
    CompileMode,
    MachineSpec,
    Move,
    Outcome,
    Rule,
    bisimulate,
    build_codec,
    parse_machine_spec,
    tm_run,
    validate,
)

from conftest import STATE_POOL, SYMBOL_POOL, assert_run_matches_tm_run, walker_text

GOLDEN = Path(__file__).resolve().parent / "golden"
_TOOL = Path(__file__).resolve().parent.parent / "tools" / "long_proof.py"


def assert_run_matches_classical(spec: MachineSpec, budget: int):
    codec = build_codec(spec)
    _, ref = assert_run_matches_tm_run(spec, codec, budget)
    verdict = bisimulate(spec, codec, max_steps=budget)
    assert (verdict.passed, verdict.steps, verdict.outcome) == (True, ref.steps, ref.outcome)
    return ref


@pytest.mark.parametrize("move", ["R", "L"])
def test_walker_16k_steps(move):
    spec = parse_machine_spec(walker_text(8, move))
    ref = assert_run_matches_classical(spec, 16_000)
    assert ref.outcome is Outcome.STEP_LIMIT
    assert ref.max_pos - ref.min_pos + 1 == 8 + 16_000


@pytest.mark.parametrize("mode", list(CompileMode))
def test_bb4_champion_to_its_halt(mode):
    """Brady's BB(4) champion halts after 107 steps with 13 ones. It writes
    on both sides of its one-cell tape, left to -10 and right to 3."""
    spec = parse_machine_spec((GOLDEN / "bb4.spec").read_text(encoding="utf-8"))
    ref = assert_run_matches_classical(spec, 1_000)
    assert (ref.steps, ref.outcome, ref.min_pos, ref.max_pos) == (107, Outcome.HALTED, -10, 3)
    assert list(ref.config.symbols.values()).count("1") == 13
    assert min(ref.config.symbols) == -10 and max(ref.config.symbols) == 3
    verdict = bisimulate(spec, build_codec(spec), mode)
    assert verdict == BisimVerdict(True, 107, Outcome.HALTED)


@pytest.mark.parametrize("mode", list(CompileMode))
def test_bb5_champion_for_20k_steps(mode):
    """The first 20k of the 47,176,870 steps of Marxen and Buntrock's BB(5)
    champion write 223 ones, from -257 to 21, and pass in lockstep."""
    spec = parse_machine_spec((GOLDEN / "bb5.spec").read_text(encoding="utf-8"))
    ref = tm_run(spec, 20_000)
    assert (ref.steps, ref.outcome, ref.min_pos, ref.max_pos) == (
        20_000, Outcome.STEP_LIMIT, -257, 21)
    assert list(ref.config.symbols.values()).count("1") == 223
    verdict = bisimulate(spec, build_codec(spec), mode, max_steps=20_000)
    assert verdict == BisimVerdict(True, 20_000, Outcome.STEP_LIMIT)


@pytest.mark.parametrize("budget, outcome, steps", [(None, "halted", 107), (50, "step-limit", 50)])
def test_long_proof_tool(budget, outcome, steps):
    """``tools/long_proof.py`` proves BB(4) to its halt or for a budget."""
    spec = importlib.util.spec_from_file_location("long_proof", _TOOL)
    long_proof = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(long_proof)
    text = (GOLDEN / "bb4.spec").read_text(encoding="utf-8")
    result = long_proof.prove(text, budget or sys.maxsize)
    assert (result["passed"], result["outcome"], result["steps"]) == (True, outcome, steps)
    assert result["max_rss_mb"] > 0


def random_sweeper(rng: random.Random) -> MachineSpec:
    """A random total machine with no halt rule that sweeps a region of marks
    (non-default symbols) right, then left, and so on. Each sweep has its own
    cycle of one to three states; a state rewrites every mark it crosses with
    a random mark and turns back at the default symbol, writing a mark there,
    so every sweep grows the region by one cell."""
    symbols = tuple(SYMBOL_POOL[: rng.randint(2, 4)])
    default, marks = symbols[0], symbols[1:]
    names = iter(STATE_POOL)
    sweeps = {m: [next(names) for _ in range(rng.randint(1, 3))] for m in (Move.RIGHT, Move.LEFT)}
    back = {Move.RIGHT: Move.LEFT, Move.LEFT: Move.RIGHT}
    rules = []
    for move, cycle in sweeps.items():
        for i, state in enumerate(cycle):
            rules += [Rule(state, s, rng.choice(marks), move, cycle[(i + 1) % len(cycle)])
                      for s in marks]
            rules.append(Rule(state, default, rng.choice(marks), back[move],
                              rng.choice(sweeps[back[move]])))
    tape = tuple(rng.choice(marks) for _ in range(rng.randint(1, 8)))
    states = tuple(sweeps[Move.RIGHT] + sweeps[Move.LEFT])
    return MachineSpec(symbols=symbols, states=states, rules=tuple(rules), default_symbol=default,
                       initial_state=rng.choice(states), tape=tape, head=rng.randrange(len(tape)))


@pytest.mark.parametrize("seed", range(3))
def test_random_sweepers_10k_steps(seed):
    spec = random_sweeper(random.Random(seed))
    assert validate(spec) == []
    ref = assert_run_matches_classical(spec, 10_000)
    assert ref.outcome is Outcome.STEP_LIMIT
    assert ref.min_pos < -40 and ref.max_pos > len(spec.tape) + 40  # grew on both sides
