import copy
import dataclasses
import gc
import pickle
import random
import tracemalloc
from pathlib import Path

import pytest

from codonmachine import (
    Codec,
    EncodedTape,
    MachineSpec,
    TapeError,
    bisimulate,
    build_codec,
    corpus_codec,
    decode_tape,
    encode_tape,
    grow,
    new_sim,
    parse_machine_spec,
    run,
    validate,
)

from conftest import ADDER_TRACE_LINES, random_partial_machine, walker_text


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

    def test_one_cell_tape_is_its_interleaved_fields(self, adder, adder_codec):
        # a one-cell tape's cell row is a tuple, as every other tape's is
        spec = dataclasses.replace(adder, tape=("1",), head=0)
        tape = encode_tape(spec, adder_codec)
        fields = (adder_codec.state_write["q1"], adder_codec.symbol_write["1"],
                  adder_codec.halt_state)
        assert (tape.symbol_cells, tape.state_slots) == (fields[1:2], fields[0::2])
        assert tape == EncodedTape(fields, 0)
        assert tape.render() == "_".join(fields)

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

    def test_uncovered_initial_state_rejected(self, adder, adder_codec):
        spec = MachineSpec(
            symbols=adder.symbols,
            states=("q1", "q4"),
            rules=(),
            default_symbol="0",
            initial_state="q4",
            tape=("0",),
            head=0,
        )
        with pytest.raises(TapeError) as info:
            encode_tape(spec, adder_codec)
        assert str(info.value) == "initial state 'q4' has no codon"


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
        assert [grown.triple_at(p) for p in (-1, 0)] == [("111", "10", "001"), ("001", "01", "111")]
        assert grown.window_triple() == ("001", "01", "111")
        assert grown.cell_count == 2

    @pytest.mark.parametrize("left_grows", [0, 1], ids=["encoded", "left-grown"])
    def test_reads_off_the_strand_raise(self, adder, adder_codec, left_grows):
        tape = encode_tape(adder, adder_codec)
        for _ in range(left_grows):
            tape = grow(tape, "left", "01")
        lo, n = tape.origin, tape.cell_count
        assert (lo, tape.window) == (-left_grows, left_grows)
        assert (tape.triple_at(lo), tape.triple_at(lo + n - 1)) == (tape.fields[:3], tape.fields[-3:])
        for pos in (lo - 1, lo + n):
            with pytest.raises(IndexError, match="off the strand"):
                tape.triple_at(pos)

    def test_forty_right_growths(self, adder_codec):
        tape = one_cell_tape()
        for _ in range(40):
            # q1 steps right onto each new cell, as a right move carries it
            tape = grow(tape, "right", "01").write(("111", "01", "001"), 1)
        assert len(tape.symbol_cells) == 41
        assert len(tape.state_slots) == 42
        decoded = decode_tape(tape, adder_codec)
        assert decoded.symbols == ("0",) * 41
        assert (decoded.state, decoded.head) == ("q1", 40)

    def test_only_the_window_edge_grows_and_only_one_cell_moves(self):
        # three-cell tapes, fresh and after a move: a shift of 0 or 2 and a
        # grow of an edge the window is not on raise and leave the tape as it was
        fields = ("001", "01", "111", "10", "111", "01", "111")
        row = ("111", "10", "010")
        tapes = [EncodedTape(fields, w) for w in range(3)]
        tapes += [EncodedTape(fields, 0).write(row, 1), EncodedTape(fields, 2).write(row, -1)]
        for tape in tapes:
            before = EncodedTape(tape.fields, tape.window, tape.origin)
            requests = [lambda: tape.write(row, 0), lambda: tape.write(row, 2)]
            if tape.window != 0:
                requests.append(lambda: grow(tape, "left", "01"))
            if tape.window != 2:
                requests.append(lambda: grow(tape, "right", "01"))
            for request in requests:
                result = None
                with pytest.raises(TapeError):
                    result = request()
                assert result is None and tape == before

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
        with pytest.raises(TapeError, match=r"^more than one live state slot: \[0, 1\]$"):
            decode_tape(tape, adder_codec)
        tape = EncodedTape(fields=("111", "01", "010", "10", "111", "01", "001"), window=0)
        with pytest.raises(TapeError, match=r"^more than one live state slot: \[1, 3\]$"):
            decode_tape(tape, adder_codec)

    def test_unknown_codon_rejected(self, adder_codec):
        tape = EncodedTape(fields=("001", "11", "111"), window=0)
        with pytest.raises(TapeError, match="^cell 0: 11 decodes to no known symbol$"):
            decode_tape(tape, adder_codec)
        # the first bad cell is named, whatever follows it
        tape = EncodedTape(fields=("001", "01", "111", "00", "111", "11", "111"), window=0)
        with pytest.raises(TapeError, match="^cell 1: 00 decodes to no known symbol$"):
            decode_tape(tape, adder_codec)

    def test_unknown_state_codon_rejected(self, adder_codec):
        tape = EncodedTape(fields=("111", "01", "000", "10", "111"), window=0)
        with pytest.raises(TapeError, match="^slot 1: 000 decodes to no known state$"):
            decode_tape(tape, adder_codec)

    def test_state_right_of_window(self, adder_codec):
        # live slot 1, window 0: the machine faces cell 0 with the state on
        # its right (the parked position after a left move)
        tape = EncodedTape(fields=("111", "01", "100", "10", "111"), window=0)
        decoded = decode_tape(tape, adder_codec)
        assert decoded.state == "q3"
        assert decoded.head == 0

    def test_live_last_slot_away_from_window(self, adder_codec):
        # a hand-built tape whose live slot is right of the last cell, with
        # the window elsewhere: the head is the last cell, on the strand
        tape = EncodedTape(fields=("111", "01", "111", "10", "100"), window=0)
        decoded = decode_tape(tape, adder_codec)
        assert (decoded.state, decoded.head) == ("q3", 1)

    def test_slot_shape_enforced(self):
        with pytest.raises(TapeError, match="slots"):
            EncodedTape(fields=("111", "01"), window=0)


def count_symbol_names(monkeypatch) -> list[str]:
    """Wrap ``Codec.symbol_name`` as perfbench does; the list fills with the
    codon of every call."""
    calls, name = [], Codec.symbol_name

    def counted(codec, codon):
        calls.append(codon)
        return name(codec, codon)

    monkeypatch.setattr(Codec, "symbol_name", counted)
    return calls


class TestSymbolNameLookups:
    """The contract perfbench counts by: one ``Codec.symbol_name`` call per
    decoded cell, and a passing lockstep proof decodes one tape, its last."""

    @pytest.mark.parametrize("move", ["R", "L"])
    def test_decode_names_each_cell_once(self, monkeypatch, move):
        spec = parse_machine_spec(walker_text(1000, move))
        codec = build_codec(spec)
        final, _, _ = run(new_sim(spec, codec), 8)
        assert final.tape.cell_count == 1008
        calls = count_symbol_names(monkeypatch)
        decoded = decode_tape(final.tape, codec)
        assert len(calls) == final.tape.cell_count
        assert calls == list(final.tape.symbol_cells)
        # eight cells written 1 behind the head, which stands on a grown 0
        walked = "0" + "1" * 8 + "0" * 999
        assert "".join(decoded.symbols) == (walked if move == "L" else walked[::-1])

    @pytest.mark.parametrize("move", ["R", "L"])
    def test_a_passing_proof_names_one_tape(self, monkeypatch, move):
        spec = parse_machine_spec(walker_text(1000, move))
        codec = build_codec(spec)
        calls = count_symbol_names(monkeypatch)
        verdict = bisimulate(spec, codec, max_steps=8)
        assert (verdict.passed, verdict.steps) == (True, 8)
        final, _, _ = run(new_sim(spec, codec), 8)
        assert len(calls) == final.tape.cell_count
        assert calls == list(final.tape.symbol_cells)

    def test_unnamed_cells_and_falsy_names(self, monkeypatch):
        calls = count_symbol_names(monkeypatch)
        fields = ("001", "01", "111", "00", "111", "11", "111")
        with pytest.raises(TapeError, match="^cell 1: 00 decodes to no known symbol$"):
            decode_tape(EncodedTape(fields, 0), corpus_codec("unary_adder"))
        assert calls == ["01", "00", "11"]
        # an empty name is falsy but a name: it decodes
        codec = Codec(2, 3, {"": "01", "1": "10"}, {"q": "001"})
        decoded = decode_tape(EncodedTape(("111", "10", "001", "01", "111"), 1), codec)
        assert (decoded.symbols, decoded.state, decoded.head) == (("1", ""), "q", 1)


class TestStrandHeldOnce:
    """A tape holds its strand once: the whole-strand views are built on each
    read from one splice of the rows, and none is kept beside them."""

    def test_whole_tape_reads_retain_nothing(self):
        spec = parse_machine_spec(walker_text(50_000, "R"))
        codec = build_codec(spec)
        tape, twin = (run(new_sim(spec, codec), 8)[0].tape for _ in range(2))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rendered, hashed, equal = tape.render(), hash(tape), tape == twin
            del rendered
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert equal and hashed == hash(twin)
        # a cached interleaving would be 2n+1 references, 800 KB per tape
        assert retained < 1024, retained

    def test_deep_tape_decodes_as_its_fields_rebuilt(self):
        text = (Path(__file__).resolve().parent / "golden" / "bb5.spec").read_text(encoding="utf-8")
        spec = parse_machine_spec(text)
        codec = build_codec(spec)
        tape = run(new_sim(spec, codec), 20_000)[0].tape
        assert tape.origin < 0 < tape.window < tape.cell_count - 1  # grown on both sides
        assert tape.origin + tape.cell_count > len(spec.tape)
        rebuilt = EncodedTape(tape.fields, tape.window, tape.origin)
        assert rebuilt == tape and rebuilt.render() == tape.render()
        assert decode_tape(tape, codec) == decode_tape(rebuilt, codec)


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


class TupleTape:
    """The plain-tuple tape the zipper must agree with: every write and grow
    copies the whole strand."""

    def __init__(self, fields, window, origin=0):
        self.fields, self.window, self.origin = tuple(fields), window, origin

    def write(self, row, shift):
        f = 2 * self.window
        fields = self.fields[:f] + tuple(row) + self.fields[f + 3 :]
        return TupleTape(fields, self.window + shift, self.origin)

    def grow(self, side, default):
        halt = "1" * len(self.fields[0])
        if side == "right":
            return TupleTape(self.fields + (default, halt), self.window, self.origin)
        return TupleTape((halt, default) + self.fields, self.window + 1, self.origin - 1)

    @property
    def cell_count(self):
        return len(self.fields) // 2


def assert_same_tape(tape: EncodedTape, model: TupleTape):
    """Every read of the tape against the model. The two views come first,
    each spliced from its own row and the stacks, before anything reads
    ``fields``; then the per-position reads: the window and a neighbour a
    move has reached are read from the zipper, any other cell from the
    strand that the first such read caches."""
    assert tape.symbol_cells == model.fields[1::2]
    assert tape.state_slots == model.fields[0::2]
    cells = model.cell_count
    positions = range(model.origin, model.origin + cells)
    assert [tape.triple_at(p) for p in positions] == [
        model.fields[f : f + 3] for f in range(0, 2 * cells, 2)
    ]
    w = 2 * model.window
    assert tape.window_triple() == model.fields[w : w + 3]
    assert (tape.window, tape.origin, tape.cell_count) == (model.window, model.origin, cells)
    assert tape.window_abs == model.origin + model.window
    assert tape.fields == model.fields
    assert tape == EncodedTape(model.fields, model.window, model.origin)
    assert hash(tape) == hash(EncodedTape(model.fields, model.window, model.origin))


class TestZipperAgainstTuples:
    """Seeded random writes, one-cell shifts and grows on both sides, against
    TupleTape. The window never leaves the strand: a write past an edge grows
    it first, and only an edge the window sits on grows."""

    @staticmethod
    def _codon(rng, width):
        return "".join(rng.choice("01") for _ in range(width))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_edit_sequences(self, seed):
        rng = random.Random(seed)
        cells = rng.randint(1, 6)
        fields = [self._codon(rng, 3 if i % 2 == 0 else 2) for i in range(2 * cells + 1)]
        window = rng.randrange(cells)
        self._edit_at_random(rng, EncodedTape(tuple(fields), window), TupleTape(fields, window))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_edit_sequences_from_an_encoded_tape(self, seed):
        """The same edits on a tape that ``encode_tape`` built from its two
        rows, against fields interleaved here from the spec."""
        rng = random.Random(100 + seed)
        spec = random_partial_machine(rng)
        codec = build_codec(spec)
        fields = [codec.halt_state] * (2 * len(spec.tape) + 1)
        fields[1::2] = [codec.symbol_write[s] for s in spec.tape]
        fields[2 * spec.head] = codec.state_write[spec.initial_state]
        self._edit_at_random(rng, encode_tape(spec, codec), TupleTape(fields, spec.head))

    def _edit_at_random(self, rng, tape, model):
        slot_width, cell_width = len(model.fields[0]), len(model.fields[1])
        assert_same_tape(tape, model)
        history, grown, drift = [(tape, model)], set(), 1
        for _ in range(300):
            # only the edges the window sits on can grow
            edges = [side for side, edge in (("left", 0), ("right", model.cell_count - 1))
                     if model.window == edge]
            if edges and rng.random() < 0.1:
                ops = [rng.choice(edges)]
            else:
                row = (self._codon(rng, slot_width), self._codon(rng, cell_width),
                       self._codon(rng, slot_width))
                shift = rng.choice([drift, drift, drift, -drift])
                ops = [(row, shift)]
                if not 0 <= model.window + shift < model.cell_count:
                    # a write past an edge grows that edge first, as apply_trna
                    # does, then sweeps back toward the other edge
                    ops.insert(0, "left" if shift < 0 else "right")
                    drift = -shift
            for op in ops:
                if op in ("left", "right"):
                    grown.add(op)
                    default = self._codon(rng, cell_width)
                    tape, model = grow(tape, op, default), model.grow(op, default)
                else:
                    tape, model = tape.write(*op), model.write(*op)
                assert_same_tape(tape, model)
                history.append((tape, model))
        assert grown == {"left", "right"}
        # persistence: no later edit reached into an earlier version
        for old_tape, old_model in history:
            assert old_tape.render() == "_".join(old_model.fields)
            assert_same_tape(old_tape, old_model)

    def test_value_semantics(self):
        tape = EncodedTape(("001", "01", "111"), 0)
        moved = grow(tape, "right", "01").write(("111", "10", "010"), 1)
        assert repr(tape) == "EncodedTape(fields=('001', '01', '111'), window=0, origin=0)"
        assert moved == EncodedTape(fields=("111", "10", "010", "01", "111"), window=1)
        assert len({moved, EncodedTape(moved.fields, 1, 0)}) == 1
        with pytest.raises(AttributeError):
            tape.window = 1

    def test_write_needs_a_window_on_the_strand_and_a_one_cell_shift(self):
        fields = ("001", "01", "111", "10", "010")
        row = ("111", "10", "010")
        with pytest.raises(TapeError, match="shift"):
            EncodedTape(fields, 1).write(row, 2)
        for window, shift in ((0, -1), (1, 1)):
            tape, moved = EncodedTape(fields, window), None
            with pytest.raises(TapeError, match="off the strand"):
                moved = tape.write(row, shift)
            assert moved is None and tape == EncodedTape(fields, window)
        # each edge as built and as reached by a move, with a stack entry
        # beside the window: a bad shift is named first, then the edge
        built = [EncodedTape(fields, 0), EncodedTape(fields, 1)]
        for tape in [*built, built[1].write(row, -1), built[0].write(row, 1)]:
            for shift in (0, 2, -2):
                with pytest.raises(TapeError) as bad:
                    tape.write(row, shift)
                assert str(bad.value) == f"shift must be -1 or 1, got {shift!r}"
            for shift in (1, True) if tape.window else (-1,):
                with pytest.raises(TapeError) as bad:
                    tape.write(row, shift)
                assert str(bad.value) == (f"window {tape.window + shift} would be off the "
                                          "strand of 2 cells: grow first")
            if not tape.window:
                assert tape.write(row, True) == tape.write(row, 1)
        for window in (-1, 2):
            with pytest.raises(TapeError, match="off the strand"):
                EncodedTape(fields, window)

    def test_deep_stacks_pickle_and_copy_by_value(self):
        tape = EncodedTape(("001", "01", "111"), 0)
        for _ in range(5000):  # every write nests the left stack one entry deeper
            tape = grow(tape, "right", "01").write(("111", "10", "001"), 1)
        assert pickle.loads(pickle.dumps(tape)) == tape
        assert copy.deepcopy(tape) == tape

    def test_equal_only_to_a_tape(self):
        tape = one_cell_tape()
        assert tape.__eq__(object()) is NotImplemented
        assert tape != object() and tape != tape.fields
        assert tape == one_cell_tape()
