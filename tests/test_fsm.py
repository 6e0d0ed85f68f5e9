import dataclasses
import gc
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from codonmachine import (
    FsmSpec,
    build_codec,
    compile_fsm,
    corpus_codec,
    fsm_oracle,
    fsm_run,
)
from codonmachine.fsm import FsmCompileCorruption, FsmError


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
        import codonmachine.fsm as fsm_module

        dropped = compile_fsm(parity, parity_codec)[1:]  # no tRNA for (A, 0)
        monkeypatch.setattr(fsm_module, "compile_fsm", lambda spec, codec: dropped)
        with pytest.raises(FsmCompileCorruption, match="no tRNA matched"):
            fsm_run(parity, "0", parity_codec)

    def test_unnamed_deposit_is_corruption(self, parity, parity_codec, monkeypatch):
        import codonmachine.fsm as fsm_module

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


class TestAgreement:
    @given(st.text(alphabet="01", max_size=64))
    def test_run_matches_oracle(self, parity, parity_codec, s):
        assert fsm_run(parity, s, parity_codec)[0] == fsm_oracle(parity, s)

    @given(st.text(alphabet="01", max_size=64))
    def test_oracle_matches_direct_parity(self, parity, s):
        expected = "A" if s.count("1") % 2 == 0 else "B"
        assert fsm_oracle(parity, s) == expected

    def test_exactly_one_match_per_step(self, parity, parity_codec):
        from codonmachine.codec import read_form

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
