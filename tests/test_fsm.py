import dataclasses
import gc
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import codonmachine.fsm as fsm_module
from codonmachine import (
    CodecOverrides,
    FsmSpec,
    build_codec,
    compile_fsm,
    corpus_codec,
    enumerate_balanced,
    fsm_oracle,
    fsm_run,
)
from codonmachine.codec import read_form
from codonmachine.fsm import FsmCompileCorruption, FsmError

# names of one and several characters; UNDECLARED holds none of SYMBOL_NAMES
STATE_NAMES = ("A", "r0", "even", "odd", "q10", "s")
SYMBOL_NAMES = ("0", "1", "zero", "one", "ab")
UNDECLARED = ("?", "two", "o")
CORRUPTIONS = ("none", "dropped", "duplicated", "unnamed-deposit", "other-state-deposit")


@pytest.fixture(scope="module")
def parity():
    from codonmachine import builtin_corpus

    return builtin_corpus()["parity"]


@pytest.fixture(scope="module")
def parity_codec(parity):
    return build_codec(parity)


class TestCompile:
    def test_four_rules(self, parity, parity_codec):
        trnas = compile_fsm(parity, parity_codec)
        assert len(trnas) == 4
        assert [t.rule_id for t in trnas] == [1, 2, 3, 4]

    def test_rule_two_fields(self, parity, parity_codec):
        # (A, 1) -> B with write codons 0:01 1:10 A:01 B:10
        assert parity_codec.symbol_write == {"0": "01", "1": "10"}
        assert parity_codec.state_write == {"A": "01", "B": "10"}
        t = compile_fsm(parity, parity_codec)[1]
        assert t.state_match == "10"
        assert t.symbol_match == "01"
        assert t.new_state == "10"

    def test_output_size_is_product(self, parity, parity_codec):
        assert len(compile_fsm(parity, parity_codec)) == len(parity.states) * len(
            parity.symbols
        )

    def test_identity_machine(self):
        spec = FsmSpec(
            symbols=("x",),
            states=("S",),
            transitions={("S", "x"): "S"},
            initial_state="S",
        )
        codec = build_codec(spec)
        trnas = compile_fsm(spec, codec)
        assert len(trnas) == 1
        assert trnas[0].new_state == codec.state_write["S"]

    def test_missing_transition_rejected(self):
        # a hand-built spec: the parser refuses a table that is not total
        spec = FsmSpec(symbols=("x", "y"), states=("S",), transitions={("S", "x"): "S"},
                       initial_state="S")
        with pytest.raises(FsmError) as info:
            compile_fsm(spec, build_codec(spec))
        assert str(info.value) == "no transition for ('S', 'y')"

    def test_codec_without_a_name_rejected(self, parity):
        spec = FsmSpec(symbols=("0",), states=("A",), transitions={("A", "0"): "A"},
                       initial_state="A")
        with pytest.raises(FsmError) as info:
            compile_fsm(parity, build_codec(spec))
        assert str(info.value) == "no codon for '1'"


class TestRun:
    def test_even_count_input(self, parity, parity_codec):
        final, trace = fsm_run(parity, "110", parity_codec)
        assert final == "A"
        assert len(trace) == 3
        assert trace == [2, 4, 1]

    def test_empty_input(self, parity, parity_codec):
        final, trace = fsm_run(parity, "", parity_codec)
        assert final == "A"
        assert trace == []

    def test_single_symbols(self, parity, parity_codec):
        assert fsm_run(parity, "0", parity_codec)[0] == "A"
        assert fsm_run(parity, "1", parity_codec)[0] == "B"

    def test_undeclared_symbol(self, parity, parity_codec):
        with pytest.raises(FsmError, match="undeclared"):
            fsm_run(parity, "2", parity_codec)

    def test_retained_trace_is_one_pointer_per_symbol(self, parity, parity_codec):
        symbols = random.Random(16).choices("01", k=100_000)
        gc.collect()
        tracemalloc.start()
        try:
            trace = fsm_run(parity, symbols, parity_codec)[1]
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(trace) == len(symbols)
        assert retained / len(trace) < 16, retained / len(trace)

    def test_corpus_codec_equivalent(self, parity):
        final, _ = fsm_run(parity, "110", corpus_codec("parity"))
        assert final == "A"

    def test_missing_trna_is_corruption(self, parity, parity_codec, monkeypatch):
        dropped = compile_fsm(parity, parity_codec)[1:]  # no tRNA for (A, 0)
        monkeypatch.setattr(fsm_module, "compile_fsm", lambda spec, codec: dropped)
        with pytest.raises(FsmCompileCorruption, match="no tRNA matched"):
            fsm_run(parity, "0", parity_codec)

    def test_unnamed_deposit_is_corruption(self, parity, parity_codec, monkeypatch):
        trnas = compile_fsm(parity, parity_codec)
        unnamed = "0" * parity_codec.state_len
        assert parity_codec.state_name(unnamed) is None
        bad = [t if t.rule_id != 2 else dataclasses.replace(t, new_state=unnamed) for t in trnas]
        monkeypatch.setattr(fsm_module, "compile_fsm", lambda spec, codec: bad)
        with pytest.raises(FsmCompileCorruption, match="no tRNA matched"):
            fsm_run(parity, "10", parity_codec)  # rule 2 is (A, 1)
        # the same deposit on the last input symbol leaves a final state with no name
        with pytest.raises(FsmCompileCorruption) as info:
            fsm_run(parity, "01", parity_codec)
        assert str(info.value) == f"final codon {unnamed} names no state"


class TestOracle:
    def test_single_steps(self, parity):
        assert fsm_oracle(parity, "110") == "A"
        assert fsm_oracle(parity, "0") == "A"
        assert fsm_oracle(parity, "1") == "B"

    def test_undeclared_symbol(self, parity):
        with pytest.raises(FsmError, match="undeclared"):
            fsm_oracle(parity, "x")

    def test_missing_transition_is_an_fsm_error(self):
        # a hand-built spec: the walk reaches the pair the table lacks
        spec = FsmSpec(symbols=("x", "y"), states=("S",), transitions={("S", "x"): "S"},
                       initial_state="S")
        assert fsm_oracle(spec, "xx") == "S"
        with pytest.raises(FsmError) as info:
            fsm_oracle(spec, "xy")
        assert str(info.value) == "no transition for ('S', 'y')"

    def test_undeclared_symbol_names_its_position(self, parity):
        with pytest.raises(FsmError) as info:
            fsm_oracle(parity, "01x1")
        assert str(info.value) == "input position 2: undeclared symbol 'x'"

    def test_an_iterator_is_read_as_the_engine_reads_it(self, parity, parity_codec):
        assert fsm_oracle(parity, iter("0110")) == fsm_run(parity, iter("0110"), parity_codec)[0]
        for run in (fsm_oracle, lambda spec, symbols: fsm_run(spec, symbols, parity_codec)):
            with pytest.raises(FsmError) as info:
                run(parity, (symbol for symbol in "01x1"))
            assert str(info.value) == "input position 2: undeclared symbol 'x'"

    def test_undeclared_symbol_in_a_state_with_no_row(self):
        # the undeclared initial state has no transitions, so no symbol is
        # found; an undeclared one is still reported as undeclared
        spec = FsmSpec(symbols=("0",), states=("S",), transitions={("S", "0"): "S"},
                       initial_state="Z")
        with pytest.raises(FsmError) as info:
            fsm_oracle(spec, ["x"])
        assert str(info.value) == "input position 0: undeclared symbol 'x'"
        with pytest.raises(FsmError) as info:
            fsm_oracle(spec, ["0"])
        assert str(info.value) == "no transition for ('Z', '0')"


class TestAgreement:
    @given(st.text(alphabet="01", max_size=64))
    def test_run_matches_oracle(self, parity, parity_codec, s):
        assert fsm_run(parity, s, parity_codec)[0] == fsm_oracle(parity, s)

    @given(st.text(alphabet="01", max_size=64))
    def test_oracle_matches_direct_parity(self, parity, s):
        expected = "A" if s.count("1") % 2 == 0 else "B"
        assert fsm_oracle(parity, s) == expected

    def test_exactly_one_match_per_step(self, parity, parity_codec):
        trnas = compile_fsm(parity, parity_codec)
        state = parity_codec.state_write[parity.initial_state]
        for symbol in "1101001":
            key_s = read_form(state)
            key_y = read_form(parity_codec.symbol_write[symbol])
            fired = [
                t for t in trnas if t.state_match == key_s and t.symbol_match == key_y
            ]
            assert len(fired) == 1
            state = fired[0].new_state


def reference_run(spec, input_symbols, codec, trnas):
    """The stream engine as it ran before it read each symbol from its state
    codon's row: one match lookup per symbol, over the given tRNAs."""
    # keyed on the write forms the match fields lock onto, so a lookup takes
    # the state and symbol codons as they are
    by_match = {
        (read_form(t.state_match), read_form(t.symbol_match)): t
        for t in trnas
    }
    symbol_write = codec.symbol_write
    state_codon = codec.state_write[spec.initial_state]
    trace: list[int] = []
    for symbol in input_symbols:
        symbol_codon = symbol_write.get(symbol)
        if symbol_codon is None:
            raise FsmError(f"input position {len(trace)}: undeclared symbol {symbol!r}")
        fired = by_match.get((state_codon, symbol_codon))
        if fired is None:
            raise FsmCompileCorruption(
                f"no tRNA matched state codon {state_codon} on {symbol!r}"
            )
        trace.append(fired.rule_id)
        state_codon = fired.new_state
    name = codec.state_name(state_codon)
    if name is None:
        raise FsmCompileCorruption(f"final codon {state_codon} names no state")
    return name, trace


def random_fsm(rng: random.Random) -> FsmSpec:
    """A total FSM on 1-6 states and 1-5 symbols drawn from names of one and
    several characters."""
    states = tuple(rng.sample(STATE_NAMES, rng.randint(1, len(STATE_NAMES))))
    symbols = tuple(rng.sample(SYMBOL_NAMES, rng.randint(1, len(SYMBOL_NAMES))))
    transitions = {(q, s): rng.choice(states) for q in states for s in symbols}
    return FsmSpec(symbols, states, transitions, rng.choice(states))


def random_codec(spec: FsmSpec, rng: random.Random):
    """The least codec, or one widened with every name on a drawn codon."""
    least = build_codec(spec)
    if rng.random() < 0.5:
        return least
    symbol_len = least.symbol_len + rng.choice([0, 2])
    state_len = least.state_len + rng.randint(0, 2)
    return build_codec(spec, CodecOverrides(
        symbol_len, state_len,
        dict(zip(spec.symbols, rng.sample(enumerate_balanced(symbol_len), len(spec.symbols)))),
        dict(zip(spec.states, rng.sample(enumerate_balanced(state_len), len(spec.states)))),
    ))


def corrupt(trnas, kind: str, codec, rng: random.Random):
    """The compiled tRNAs with one corruption of the given kind ("none"
    leaves them whole)."""
    trnas = list(trnas)
    i = rng.randrange(len(trnas))
    if kind == "dropped":
        del trnas[i]
    elif kind == "duplicated":
        # a second tRNA on the same key, later in the list, so it wins
        later = dataclasses.replace(
            trnas[i], rule_id=len(trnas) + 1,
            new_state=rng.choice(list(codec.state_write.values())))
        trnas.insert(rng.randint(i + 1, len(trnas)), later)
    elif kind == "unnamed-deposit":
        named = set(codec.state_write.values())
        unnamed = [c for c in (format(v, f"0{codec.state_len}b")
                               for v in range(2**codec.state_len)) if c not in named]
        trnas[i] = dataclasses.replace(trnas[i], new_state=rng.choice(unnamed))
    elif kind == "other-state-deposit":
        others = [c for c in codec.state_write.values() if c != trnas[i].new_state]
        if others:
            trnas[i] = dataclasses.replace(trnas[i], new_state=rng.choice(others))
    return trnas


def random_input(spec: FsmSpec, rng: random.Random) -> list[str]:
    """Declared symbols, with one undeclared symbol at a drawn position in
    about a third of the inputs."""
    symbols = rng.choices(spec.symbols, k=rng.randint(0, 30))
    if rng.random() < 1 / 3:
        symbols.insert(rng.randint(0, len(symbols)), rng.choice(UNDECLARED))
    return symbols


def outcome(run, *args):
    """A run's result, or the type and message of what it raised."""
    try:
        return run(*args)
    except (FsmError, FsmCompileCorruption) as e:
        return type(e), str(e)


class TestDifferential:
    """fsm_run against the engine it replaced, on the same tRNAs, whole or
    corrupted: the same final state and trace, or the same error."""

    @pytest.mark.parametrize("kind", CORRUPTIONS)
    def test_matches_the_reference_engine(self, kind, monkeypatch):
        rng = random.Random(f"fsm-differential-{kind}")
        raised = set()
        for _ in range(150):
            spec = random_fsm(rng)
            codec = random_codec(spec, rng)
            trnas = corrupt(compile_fsm(spec, codec), kind, codec, rng)
            monkeypatch.setattr(fsm_module, "compile_fsm", lambda spec, codec: trnas)
            for _ in range(3):
                symbols = random_input(spec, rng)
                got = outcome(fsm_run, spec, symbols, codec)
                assert got == outcome(reference_run, spec, symbols, codec, trnas), (
                    spec, codec, trnas, symbols)
                assert outcome(fsm_run, spec, iter(symbols), codec) == got, (
                    spec, codec, trnas, symbols)
                raised.add(got[0] if isinstance(got[0], type) else None)
        # every kind reaches the undeclared-symbol error; only a dropped tRNA
        # or an unnamed deposit leaves a symbol that no tRNA matches
        assert FsmError in raised
        assert (FsmCompileCorruption in raised) == (kind in ("dropped", "unnamed-deposit"))


def test_a_run_leaves_no_cyclic_garbage(parity, parity_codec, monkeypatch):
    # the linked rows of a cyclic FSM refer to each other; every way out of a
    # run must unlink them, so refcounting alone frees the table
    spec = random_fsm(random.Random(0))  # 4 states, 13 of 16 rules change state
    assert len(spec.states) > 1
    codec = build_codec(spec)
    symbols = random.Random(4).choices(spec.symbols, k=200)
    dropped = compile_fsm(parity, parity_codec)[1:]  # no tRNA for (A, 0)

    def kind(got):
        return got[0] if isinstance(got[0], type) else type(got[0])

    gc.collect()
    gc.disable()
    try:
        kinds = [kind(outcome(fsm_run, *args)) for args in (
            (parity, "0110", parity_codec),
            (parity, "01x1", parity_codec),
            (spec, symbols, codec),
            (spec, [*symbols, UNDECLARED[0]], codec),
        )]
        monkeypatch.setattr(fsm_module, "compile_fsm", lambda spec, codec: dropped)
        kinds.append(kind(outcome(fsm_run, parity, "0", parity_codec)))
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert kinds == [str, FsmError, str, FsmError, FsmCompileCorruption]


def reference_oracle(spec, input_symbols):
    """The reference walk as it ran before it read each symbol from a resolved
    row: a membership test and a pair lookup per symbol."""
    state = spec.initial_state
    try:
        for i, symbol in enumerate(input_symbols):
            if symbol not in spec.symbols:
                raise FsmError(f"input position {i}: undeclared symbol {symbol!r}")
            state = spec.transitions[(state, symbol)]
    except KeyError:
        raise FsmError(f"no transition for ({state!r}, {symbol!r})") from None
    return state


# names a hand-built spec may use without declaring them; the one-character
# alphabets spell inputs as str, the others as lists
CHAR_SYMBOLS, CHAR_UNDECLARED = ("0", "1", "a", "b"), ("x", "?")
STRAY_STATES = ("Z", "dead")


def hand_built_fsm(rng: random.Random, symbol_names, undeclared) -> FsmSpec:
    """An FsmSpec as a caller may build it without the parser: a table that
    need not be total, with transitions to and from undeclared states and on
    undeclared symbols, and an initial state that may be undeclared."""
    states = tuple(rng.sample(STATE_NAMES, rng.randint(1, 4)))
    symbols = tuple(rng.sample(symbol_names, rng.randint(1, len(symbol_names))))
    targets = states + STRAY_STATES
    total = rng.random() < 0.3
    transitions = {(q, s): rng.choice(targets if rng.random() < 0.2 else states)
                   for q in states + STRAY_STATES for s in symbols + undeclared
                   if (q in states and s in symbols and (total or rng.random() < 0.8))
                   or rng.random() < 0.1}
    initial = rng.choice(targets if rng.random() < 0.1 else states)
    return FsmSpec(symbols, states, transitions, initial)


def hand_built_input(spec: FsmSpec, rng: random.Random, undeclared) -> list[str]:
    """Declared symbols, with an undeclared one at a drawn position in about
    half the inputs, repeated later in about half of those."""
    symbols = rng.choices(spec.symbols, k=rng.randint(0, 12))
    if rng.random() < 0.5:
        stray = rng.choice(undeclared)
        at = rng.randint(0, len(symbols))
        symbols.insert(at, stray)
        if rng.random() < 0.5:
            symbols.insert(rng.randint(at + 1, len(symbols)), stray)
    return symbols


class TestOracleDifferential:
    """fsm_oracle against the walk it replaced, on hand-built specs: the same
    final state, or an FsmError with the same message."""

    @pytest.mark.parametrize("as_text", [True, False], ids=["str", "list"])
    def test_matches_the_reference_walk(self, as_text):
        names = (CHAR_SYMBOLS, CHAR_UNDECLARED) if as_text else (SYMBOL_NAMES, UNDECLARED)
        rng = random.Random(f"fsm-oracle-differential-{as_text}")
        seen = set()
        for _ in range(1500):
            spec = hand_built_fsm(rng, *names)
            symbols = hand_built_input(spec, rng, names[1])
            if as_text:
                symbols = "".join(symbols)
            got = outcome(fsm_oracle, spec, symbols)
            assert got == outcome(reference_oracle, spec, symbols), (spec, symbols)
            assert outcome(fsm_oracle, spec, iter(symbols)) == got, (spec, symbols)
            seen.add(got[1].split(" ")[0] if isinstance(got, tuple) else "state")
        # every outcome is drawn: a final state, an undeclared symbol and a
        # missing transition
        assert seen == {"state", "input", "no"}
