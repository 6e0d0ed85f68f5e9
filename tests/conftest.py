import dataclasses
import random

import pytest
from hypothesis import settings

from codonmachine import (
    MachineSpec,
    Move,
    Outcome,
    Rule,
    builtin_corpus,
    compile_ruleset,
    corpus_codec,
    decode_tape,
    new_sim,
    run,
    tm_run,
)

# every run draws the same examples: no per-run seed, no saved failures
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

STATE_POOL = ["qa", "qb", "qc", "qd", "qe", "qf", "qg", "qh", "qi", "qj"]
SYMBOL_POOL = ["x", "y", "z", "w", "v", "u"]


def random_total_machine(
    rng: random.Random, max_states=4, max_symbols=3, min_states=1, min_symbols=1
) -> MachineSpec:
    """Random deterministic TM with a total rule table and at least one halt rule."""
    n_states = rng.randint(min_states, max_states)
    n_symbols = rng.randint(min_symbols, max_symbols)
    states = tuple(STATE_POOL[:n_states])
    symbols = tuple(SYMBOL_POOL[:n_symbols])
    rules = []
    pairs = [(q, s) for q in states for s in symbols]
    halt_pair = rng.choice(pairs)
    for q, s in pairs:
        write = rng.choice(symbols)
        if (q, s) == halt_pair or rng.random() < 0.15:
            rules.append(Rule(q, s, write, Move.HALT, None))
        else:
            move = rng.choice([Move.LEFT, Move.RIGHT])
            rules.append(Rule(q, s, write, move, rng.choice(states)))
    tape_len = rng.randint(1, 8)
    tape = tuple(rng.choice(symbols) for _ in range(tape_len))
    return MachineSpec(
        symbols=symbols,
        states=states,
        rules=tuple(rules),
        default_symbol=rng.choice(symbols),
        initial_state=rng.choice(states),
        tape=tape,
        head=rng.randrange(tape_len),
    )


def random_partial_machine(rng: random.Random) -> MachineSpec:
    """Like random_total_machine but with rules randomly dropped (stuck halts)."""
    spec = random_total_machine(rng)
    kept = tuple(r for r in spec.rules if rng.random() < 0.7)
    return MachineSpec(
        symbols=spec.symbols,
        states=spec.states,
        rules=kept,
        default_symbol=spec.default_symbol,
        initial_state=spec.initial_state,
        tape=spec.tape,
        head=spec.head,
    )


@pytest.fixture(scope="session")
def corpus():
    return builtin_corpus()


@pytest.fixture(scope="session")
def adder(corpus):
    return corpus["unary_adder"]


@pytest.fixture(scope="session")
def adder_codec(adder):
    return corpus_codec("unary_adder")


@pytest.fixture(scope="session")
def utm(corpus):
    return corpus["utm55"]


@pytest.fixture(scope="session")
def utm_codec():
    return corpus_codec("utm55")


# the encoded-tape lines of the unary adder's six-step run, initial first
ADDER_TRACE_LINES = [
    "001_01_111_10_111_10_111_01_111_10_111_01_111",
    "111_01_001_10_111_10_111_01_111_10_111_01_111",
    "111_01_111_01_010_10_111_01_111_10_111_01_111",
    "111_01_111_01_111_10_010_01_111_10_111_01_111",
    "111_01_111_01_111_10_100_10_111_10_111_01_111",
    "111_01_111_01_100_10_111_10_111_10_111_01_111",
    "111_01_111_01_111_10_111_10_111_10_111_01_111",
]

# classical checkpoints of the utm55 corpus run, frozen from the pre-build
# derivation: window [0..22] after the named step, and the halting profile
UTM_WINDOW_AFTER_94 = "dggbbδδδbbδbbbbbδbbcccc"
UTM_WINDOW_AFTER_95 = "dgbbbδδδbbδbbbbbδbbcccc"
UTM_WINDOW_95_HEAD_MASKED = "d|bbbδδδbbδbbbbbδbbcccc"
UTM_HEAD_AFTER_95 = 1
UTM_HALT_STEPS = 98
UTM_FINAL_TAPE = "cbbbbbδδδbbδbbbbbδbbcccc"  # over touched region [-1..22]
UTM_FINAL_HEAD = -1

# incrementer golden value, frozen from the pre-build hand derivation
INCREMENTER_FINAL_TAPE = "##01#1"
INCREMENTER_FINAL_HEAD = 5
INCREMENTER_STEPS = 4


ONE_RULE_WALKER = """\
symbols: 0 1
states: q1
rule: q1 0 1 R q1
default: 0
initial: q1
tape: 00
head: 0
"""


def walker_text(cells: int, move: str) -> str:
    """One-state walker over an all-0 tape, head on the edge it grows."""
    head = cells - 1 if move == "R" else 0
    return (
        "symbols: 0 1\nstates: q1\n"
        f"rule: q1 0 1 {move} q1\n"
        f"default: 0\ninitial: q1\ntape: {'0' * cells}\nhead: {head}\n"
    )


def corrupt_first_write(spec, codec):
    """The compiled ruleset with rule 1 writing the default symbol instead."""
    trnas = compile_ruleset(spec, codec)
    slot, _, other = trnas[0].write
    bad = (slot, codec.symbol_write[spec.default_symbol], other)
    return [dataclasses.replace(trnas[0], write=bad), *trnas[1:]]


def assert_run_matches_tm_run(spec: MachineSpec, codec, budget: int):
    """``run``'s final tape, state, head, step count and halting against
    ``tm_run``'s, over every cell either side touched; returns both finals."""
    final, _, outcome = run(new_sim(spec, codec), budget)
    ref = tm_run(spec, budget)
    assert (final.step_count, outcome) == (ref.steps, ref.outcome)
    decoded = decode_tape(final.tape, codec)
    lo = min(decoded.origin, ref.min_pos)
    hi = max(decoded.origin + len(decoded.symbols) - 1, ref.max_pos)
    mech = dict(enumerate(decoded.symbols, start=decoded.origin))
    default = spec.default_symbol
    assert [mech.get(p, default) for p in range(lo, hi + 1)] == [
        ref.config.symbols.get(p, default) for p in range(lo, hi + 1)
    ]
    if ref.outcome is Outcome.HALTED and decoded.state is not None:
        # a stuck halt leaves its state on the tape, where tm_run reports None
        assert decoded.head_abs == ref.config.head
        stuck_on = (decoded.state, mech[decoded.head_abs])
        assert all((r.state, r.read_symbol) != stuck_on for r in spec.rules)
    else:
        assert decoded.state == ref.config.state
        assert decoded.head_abs == (None if ref.config.state is None else ref.config.head)
    return final, ref
