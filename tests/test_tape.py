import random

import pytest

from codonmachine import (
    EncodedTape,
    MachineSpec,
    TapeError,
    build_codec,
    corpus_codec,
    decode_tape,
    encode_tape,
    grow,
    validate,
)

from conftest import ADDER_TRACE_LINES, random_partial_machine


class TestEncode:
    def test_adder_initial_tape(self, adder, adder_codec):
        tape = encode_tape(adder, adder_codec)
        assert tape.render() == ADDER_TRACE_LINES[0]
        assert tape.window == 0
        assert tape.origin == 0

    def test_utm_fragment(self, utm, utm_codec):
        # two-delta/three-b fragment with the state planted left of the head
        fragment = MachineSpec(
            symbols=utm.symbols,
            states=utm.states,
            rules=utm.rules,
            default_symbol=utm.default_symbol,
            initial_state="q1",
            tape=("δ", "δ", "b", "b", "b"),
            head=2,
        )
        assert validate(fragment) == []
        rendered = encode_tape(fragment, utm_codec).render()
        assert rendered == (
            "111111_010011_111111_010011_000111_001011_111111_001011_111111_001011_111111"
        )

    def test_exactly_one_live_slot(self, corpus, utm_codec, adder_codec):
        for name, codec in (("unary_adder", adder_codec), ("utm55", utm_codec)):
            spec = corpus[name]
            tape = encode_tape(spec, codec)
            live = [s for s in tape.state_slots if s != codec.halt_state]
            assert len(live) == 1

    def test_empty_tape_rejected(self, adder, adder_codec):
        empty = MachineSpec(
            symbols=adder.symbols,
            states=adder.states,
            rules=adder.rules,
            default_symbol=adder.default_symbol,
            initial_state=adder.initial_state,
            tape=(),
            head=0,
        )
        with pytest.raises(TapeError, match="empty"):
            encode_tape(empty, adder_codec)

    def test_uncovered_symbol_rejected(self, adder, adder_codec):
        spec = MachineSpec(
            symbols=("0", "1", "2"),
            states=adder.states,
            rules=adder.rules,
            default_symbol="0",
            initial_state="q1",
            tape=("2",),
            head=0,
        )
        with pytest.raises(TapeError, match="no codon"):
            encode_tape(spec, adder_codec)


def one_cell_tape():
    # 001_01_111: a single default-0 cell with q1 parked on its left
    return EncodedTape(fields=("001", "01", "111"), window=0)


class TestGrow:
    def test_grow_right(self):
        grown = grow(one_cell_tape(), "right", "01")
        assert grown.render() == "001_01_111_01_111"
        assert grown.window == 0 and grown.origin == 0

    def test_grow_left_preserves_absolute_head(self, adder_codec):
        tape = one_cell_tape()
        grown = grow(tape, "left", "01")
        before = decode_tape(tape, adder_codec)
        after = decode_tape(grown, adder_codec)
        assert after.symbols == ("0",) + before.symbols
        assert after.head_abs == before.head_abs
        assert grown.origin == -1

    def test_reads_by_absolute_position_after_left_grow(self):
        grown = grow(one_cell_tape(), "left", "10")
        assert (grown.origin, grown.window, grown.window_abs) == (-1, 1, 0)
        assert [grown.cell_at(p) for p in (-1, 0)] == ["10", "01"]
        assert [grown.slot_at(p) for p in (-1, 0, 1)] == ["111", "001", "111"]
        assert grown.window_triple() == ("001", "01", "111")
        assert grown.cell_count == 2

    def test_forty_right_growths(self, adder_codec):
        tape = one_cell_tape()
        for _ in range(40):
            tape = grow(tape, "right", "01")
        assert len(tape.symbol_cells) == 41
        assert len(tape.state_slots) == 42
        decoded = decode_tape(tape, adder_codec)
        assert decoded.symbols == ("0",) * 41
        assert decoded.state == "q1"

    def test_bad_side(self):
        with pytest.raises(ValueError, match="side"):
            grow(one_cell_tape(), "up", "01")


class TestDecode:
    def test_initial_adder(self, adder, adder_codec):
        decoded = decode_tape(encode_tape(adder, adder_codec), adder_codec)
        assert "".join(decoded.symbols) == "011010"
        assert decoded.state == "q1"
        assert decoded.head == 0

    def test_final_adder_all_halt(self, adder_codec):
        fields = ADDER_TRACE_LINES[-1].split("_")
        tape = EncodedTape(fields=tuple(fields), window=1)
        decoded = decode_tape(tape, adder_codec)
        assert "".join(decoded.symbols) == "001110"
        assert decoded.state is None
        assert decoded.head is None

    def test_two_live_slots_rejected(self, adder_codec):
        tape = EncodedTape(fields=("001", "01", "010", "10", "111"), window=0)
        with pytest.raises(TapeError, match="more than one"):
            decode_tape(tape, adder_codec)

    def test_unknown_codon_rejected(self, adder_codec):
        tape = EncodedTape(fields=("001", "11", "111"), window=0)
        with pytest.raises(TapeError, match="no known symbol"):
            decode_tape(tape, adder_codec)

    def test_state_right_of_window(self, adder_codec):
        # live slot 1, window 0: the machine faces cell 0 with the state on
        # its right (the parked position after a left move)
        tape = EncodedTape(fields=("111", "01", "100", "10", "111"), window=0)
        decoded = decode_tape(tape, adder_codec)
        assert decoded.state == "q3"
        assert decoded.head == 0

    def test_slot_shape_enforced(self):
        with pytest.raises(TapeError, match="slots"):
            EncodedTape(fields=("111", "01"), window=0)


class TestRoundTrip:
    def test_corpus_round_trip(self, corpus):
        for name in ("incrementer", "unary_adder", "utm55"):
            spec = corpus[name]
            codec = corpus_codec(name)
            decoded = decode_tape(encode_tape(spec, codec), codec)
            assert decoded.symbols == spec.tape
            assert decoded.state == spec.initial_state
            assert decoded.head == spec.head

    def test_random_round_trip(self):
        rng = random.Random(9)
        checked = 0
        while checked < 120:
            spec = random_partial_machine(rng)
            if validate(spec):
                continue
            codec = build_codec(spec)
            decoded = decode_tape(encode_tape(spec, codec), codec)
            assert (decoded.symbols, decoded.state, decoded.head) == (
                spec.tape,
                spec.initial_state,
                spec.head,
            )
            checked += 1
