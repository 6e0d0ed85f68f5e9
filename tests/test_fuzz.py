"""Property-based differential tests against the classical interpreter.

Hypothesis draws total and partial machines on up to conftest's full pools
(10 states, 6 symbols), short tapes with the head anywhere on them, and the
least codec, a widened one or one with every name on a drawn balanced codon.
Total FSMs on the same pools and codecs run against the FSM oracle.
Runs that grow the tape on either side are labelled with ``event``; the
statistics (``pytest --hypothesis-show-statistics``) show how many did.
"""

from hypothesis import event, given, settings
from hypothesis import strategies as st

from codonmachine import (
    Arrival,
    CodecOverrides,
    CompileMode,
    FsmSpec,
    MachineSpec,
    Move,
    Rule,
    bisimulate,
    build_codec,
    enumerate_balanced,
    fsm_oracle,
    fsm_run,
    new_sim,
    run,
    tm_run,
)

from conftest import STATE_POOL, SYMBOL_POOL, assert_run_matches_tm_run

BUDGET = 100
EXAMPLES = settings(max_examples=30, deadline=None)


@st.composite
def machines(draw) -> MachineSpec:
    """A machine with a rule for every (state, symbol) pair, or for a drawn
    subset of them; about one rule in eight halts."""
    states = tuple(STATE_POOL[: draw(st.integers(1, len(STATE_POOL)))])
    symbols = tuple(SYMBOL_POOL[: draw(st.integers(1, len(SYMBOL_POOL)))])
    partial = draw(st.booleans())
    rules = []
    for q in states:
        for s in symbols:
            if partial and not draw(st.booleans()):
                continue
            write, kind = draw(st.sampled_from(symbols)), draw(st.integers(0, 7))
            if kind == 0:
                rules.append(Rule(q, s, write, Move.HALT, None))
            else:
                move = Move.LEFT if kind % 2 else Move.RIGHT
                rules.append(Rule(q, s, write, move, draw(st.sampled_from(states))))
    tape = tuple(draw(st.lists(st.sampled_from(symbols), min_size=1, max_size=8)))
    return MachineSpec(
        symbols=symbols,
        states=states,
        rules=tuple(rules),
        default_symbol=draw(st.sampled_from(symbols)),
        initial_state=draw(st.sampled_from(states)),
        tape=tape,
        head=draw(st.integers(0, len(tape) - 1)),
    )


@st.composite
def codecs(draw, spec):
    """A codec for a machine or an FSM: the least lengths or wider, on the
    default codons or with every name on a drawn balanced codon."""
    least = build_codec(spec)
    symbol_len = least.symbol_len + draw(st.sampled_from([0, 2]))
    state_len = least.state_len + draw(st.integers(0, 2))
    symbols = states = None
    if draw(st.booleans()):
        symbols = dict(zip(spec.symbols, draw(st.permutations(enumerate_balanced(symbol_len)))))
        states = dict(zip(spec.states, draw(st.permutations(enumerate_balanced(state_len)))))
    return build_codec(spec, CodecOverrides(symbol_len, state_len, symbols, states))


@st.composite
def cases(draw):
    """A machine and a codec for it."""
    spec = draw(machines())
    return spec, draw(codecs(spec))


@st.composite
def fsm_cases(draw):
    """A total FSM, a codec for it and an input over its symbols."""
    states = tuple(STATE_POOL[: draw(st.integers(1, len(STATE_POOL)))])
    symbols = tuple(SYMBOL_POOL[: draw(st.integers(1, len(SYMBOL_POOL)))])
    spec = FsmSpec(
        symbols=symbols,
        states=states,
        transitions={(q, s): draw(st.sampled_from(states)) for q in states for s in symbols},
        initial_state=draw(st.sampled_from(states)),
    )
    return spec, draw(codecs(spec)), draw(st.lists(st.sampled_from(symbols), max_size=40))


@EXAMPLES
@given(cases())
def test_bisimulate_passes_in_both_modes(case):
    spec, codec = case
    ref = tm_run(spec, BUDGET)
    for mode in CompileMode:
        verdict = bisimulate(spec, codec, mode, max_steps=BUDGET)
        assert (verdict.passed, verdict.steps, verdict.outcome) == (True, ref.steps, ref.outcome), (
            mode, verdict.divergence)


@EXAMPLES
@given(cases())
def test_run_matches_tm_run(case):
    spec, codec = case
    final, _ = assert_run_matches_tm_run(spec, codec, BUDGET)
    if final.tape.origin < 0:
        event("grew left")
    if final.tape.origin + final.tape.cell_count > len(spec.tape):
        event("grew right")


@EXAMPLES
@given(cases(), st.integers(0, 2**32 - 1))
def test_stochastic_arrival_fires_the_deterministic_rules(case, seed):
    spec, codec = case

    def rule_ids(arrival, rng_seed=None):
        _, trace, _ = run(new_sim(spec, codec, rng_seed=rng_seed), BUDGET, arrival)
        return [e.rule_id for e in trace]

    assert rule_ids(Arrival.STOCHASTIC, seed) == rule_ids(Arrival.DETERMINISTIC)


@EXAMPLES
@given(cases())
def test_dual_and_inferred_runs_agree(case):
    spec, codec = case

    def outcome(mode):
        final, trace, result = run(new_sim(spec, codec, mode), BUDGET)
        return [e.rule_id for e in trace], final.tape, final.step_count, result

    assert outcome(CompileMode.DUAL) == outcome(CompileMode.INFERRED)


@EXAMPLES
@given(fsm_cases())
def test_fsm_run_follows_the_oracle_walk(case):
    spec, codec, symbols = case
    final, trace = fsm_run(spec, symbols, codec)
    assert final == fsm_oracle(spec, symbols)
    assert len(trace) == len(symbols)
    # rule ids count (state, symbol) pairs state-major, symbol-minor, from 1
    walk = [fsm_oracle(spec, symbols[:i]) for i in range(len(symbols))]
    assert trace == [spec.states.index(q) * len(spec.symbols) + spec.symbols.index(s) + 1
                     for q, s in zip(walk, symbols)]
