import copy
import dataclasses
import itertools
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from codonmachine import (
    Codec,
    CodecError,
    CodecOverrides,
    FsmSpec,
    build_codec,
    capacity,
    enumerate_balanced,
    min_lengths,
    parse_codec_overrides,
    read_form,
)
from codonmachine.corpus import UTM55_CODEC_TEXT

from conftest import random_total_machine


def brute_balanced(n):
    """Independent oracle: filter all length-n strings by popcount."""
    k = n // 2
    return [
        "".join(bits)
        for bits in itertools.product("01", repeat=n)
        if bits.count("1") == k
    ]


class TestCapacity:
    def test_known_table(self):
        assert [capacity(n) for n in range(1, 7)] == [1, 2, 3, 6, 10, 20]

    def test_matches_enumeration(self):
        for n in range(1, 13):
            assert capacity(n) == len(enumerate_balanced(n))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            capacity(0)


class TestEnumerateBalanced:
    def test_small_instances(self):
        assert enumerate_balanced(2) == ["01", "10"]
        assert enumerate_balanced(3) == ["001", "010", "100"]
        assert enumerate_balanced(1) == ["0"]

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="codon length must be positive, got 0"):
            enumerate_balanced(0)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_against_brute_force(self, n):
        got = enumerate_balanced(n)
        assert got == sorted(brute_balanced(n))
        assert len(set(got)) == len(got)
        assert all(c.count("1") == n // 2 for c in got)
        # ascending numeric order
        values = [int(c, 2) for c in got]
        assert values == sorted(values)


class TestMinLengths:
    def test_examples(self):
        assert min_lengths(2, 3) == (2, 3)
        assert min_lengths(1, 1) == (2, 1)

    def test_five_by_five(self):
        # capacity(4) = 6 covers five symbols and five states; the bundled
        # six-bit utm55 assignment is wider than minimal and arrives via overrides
        assert min_lengths(5, 5) == (4, 4)

    def test_minimality(self):
        for n_sym in range(1, 22):
            for n_st in range(1, 22):
                sym, st = min_lengths(n_sym, n_st)
                assert sym % 2 == 0 and capacity(sym) >= n_sym
                assert sym == 2 or capacity(sym - 2) < n_sym
                assert capacity(st) >= n_st
                assert st == 1 or capacity(st - 1) < n_st

    def test_halt_codon_not_counted(self):
        # capacity(1) = 1 covers one state; the halt codon '1' is extra
        _, state_len = min_lengths(1, 1)
        assert state_len == 1

    @pytest.mark.parametrize("counts", [(0, 3), (3, 0), (0, 0)])
    def test_needs_a_symbol_and_a_state(self, counts):
        with pytest.raises(ValueError, match="need at least one symbol and one state"):
            min_lengths(*counts)

    def test_symbol_length_always_even(self):
        for n in range(1, 25):
            symbol_len, _ = min_lengths(n, 1)
            assert symbol_len % 2 == 0
            assert capacity(symbol_len) >= n


class TestReadForm:
    def test_examples(self):
        assert read_form("01") == "10"
        assert read_form("111") == "000"

    @given(st.text(alphabet="01", min_size=1, max_size=24))
    def test_involution(self, bits):
        assert read_form(read_form(bits)) == bits

    def test_complement_of_every_bit_string(self):
        for n in range(1, 13):
            mask = (1 << n) - 1
            for v in range(1 << n):
                bits = format(v, f"0{n}b")
                assert read_form(bits) == format(v ^ mask, f"0{n}b")
                assert read_form(read_form(bits)) == bits

    def test_no_balanced_read_form_is_zero(self):
        for n in range(1, 13):
            for codon in enumerate_balanced(n):
                assert set(read_form(codon)) != {"0"}


class TestBuildCodec:
    def test_adder_defaults(self, adder):
        codec = build_codec(adder)
        assert codec.symbol_write == {"0": "01", "1": "10"}
        assert codec.state_write == {"q1": "001", "q2": "010", "q3": "100"}
        assert codec.halt_state == "111"

    def test_utm_overrides(self, utm):
        codec = build_codec(utm, parse_codec_overrides(UTM55_CODEC_TEXT))
        assert codec.symbol_write == {
            "g": "000111",
            "b": "001011",
            "δ": "010011",
            "c": "100011",
            "d": "001110",
        }
        assert codec.state_write == {
            "q1": "000111",
            "q2": "001011",
            "q3": "010011",
            "q4": "100011",
            "q5": "001110",
        }
        assert codec.halt_state == "111111"

    def test_duplicate_assignment_rejected(self, adder):
        with pytest.raises(CodecError, match="duplicate"):
            build_codec(adder, CodecOverrides(symbols={"0": "01", "1": "01"}))

    def test_odd_symbol_length_rejected(self, adder):
        with pytest.raises(CodecError, match="even"):
            build_codec(adder, CodecOverrides(symbol_len=3))

    def test_unbalanced_override_rejected(self, adder):
        with pytest.raises(CodecError, match="balanced"):
            build_codec(adder, CodecOverrides(symbols={"0": "11"}))

    def test_halt_codon_assignment_rejected(self, adder):
        with pytest.raises(CodecError, match="halt"):
            build_codec(adder, CodecOverrides(states={"q1": "111"}))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (CodecOverrides(symbol_len=0), "symbol codon length must be positive and even, got 0"),
            (CodecOverrides(state_len=0), "state codon length must be positive, got 0"),
            (CodecOverrides(state_len=-2), "state codon length must be positive, got -2"),
        ],
    )
    def test_non_positive_length_rejected(self, adder, overrides, message):
        with pytest.raises(CodecError) as info:
            build_codec(adder, overrides)
        assert str(info.value) == message

    def test_capacity_overflow_rejected(self, utm):
        with pytest.raises(CodecError, match="capacity"):
            build_codec(utm, CodecOverrides(symbol_len=2))

    def test_wrong_length_rejected(self, adder):
        with pytest.raises(CodecError, match="length"):
            build_codec(adder, CodecOverrides(symbols={"0": "0101"}))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (CodecOverrides(symbols={"0": "1a"}), "symbol '0': codon '1a' is not a bit string"),
            (CodecOverrides(states={"q2": "0x1"}), "state 'q2': codon '0x1' is not a bit string"),
            (CodecOverrides(symbols={"1": " 1"}), "symbol '1': codon ' 1' is not a bit string"),
        ],
    )
    def test_non_binary_override_rejected(self, adder, overrides, message):
        # each codon has the right length and as many '1's as a balanced one
        with pytest.raises(CodecError) as info:
            build_codec(adder, overrides)
        assert str(info.value) == message

    def test_default_assignment_is_enumeration_prefix(self):
        for n in range(1, 11):
            codons = enumerate_balanced(n)
            for count in {1, len(codons) // 2 or 1, len(codons)}:
                names = tuple(f"n{i}" for i in range(count))
                spec = FsmSpec(symbols=("a",), states=names, transitions={}, initial_state="n0")
                codec = build_codec(spec, CodecOverrides(state_len=n))
                assert list(codec.state_write.values()) == codons[:count]
                if n % 2 == 0:
                    spec = FsmSpec(symbols=names, states=("a",), transitions={}, initial_state="a")
                    codec = build_codec(spec, CodecOverrides(symbol_len=n))
                    assert list(codec.symbol_write.values()) == codons[:count]

    def test_undeclared_override_rejected(self, adder):
        with pytest.raises(CodecError, match="undeclared"):
            build_codec(adder, CodecOverrides(symbols={"9": "01"}))


class TestDerivedLookups:
    """The halt codon and the reverse maps, set at construction, hold on a
    codec however it was made, and a replaced field rebuilds them."""

    @staticmethod
    def check(codec):
        assert codec.halt_state == "1" * codec.state_len
        for name, bits in codec.symbol_write.items():
            assert codec.symbol_name(bits) == name
        for name, bits in codec.state_write.items():
            assert codec.state_name(bits) == name
        assert codec.symbol_name(codec.halt_state) is None
        assert codec.state_name(codec.halt_state) is None

    def test_every_way_of_making_a_codec(self):
        direct = Codec(symbol_len=4, state_len=3, symbol_write={"a": "0011", "b": "1100"},
                       state_write={"p": "001", "q": "110"})
        for codec in (direct, dataclasses.replace(direct),
                      pickle.loads(pickle.dumps(direct)), copy.deepcopy(direct)):
            assert codec == direct
            self.check(codec)
        wider = dataclasses.replace(direct, state_len=4,
                                    state_write={"p": "0011", "q": "0101"})
        self.check(wider)
        assert (wider.halt_state, wider.state_name("001")) == ("1111", None)
        assert direct.state_name("001") == "p"  # the original keeps its own maps

    def test_built_codecs(self, utm):
        self.check(build_codec(utm, parse_codec_overrides(UTM55_CODEC_TEXT)))
        self.check(build_codec(random_total_machine(random.Random(5), 5, 4)))


def reference_build_codec(spec, overrides=None):
    """Test-local reference: apply every override, then check every
    assignment, the default codons included."""
    ov = overrides or CodecOverrides()
    symbol_len, state_len = min_lengths(len(spec.symbols), len(spec.states))
    symbol_len = symbol_len if ov.symbol_len is None else ov.symbol_len
    state_len = state_len if ov.state_len is None else ov.state_len
    if symbol_len < 2 or symbol_len % 2:
        raise CodecError(f"symbol codon length must be positive and even, got {symbol_len}")
    if state_len < 1:
        raise CodecError(f"state codon length must be positive, got {state_len}")
    for kind, length, names in (("symbol", symbol_len, spec.symbols),
                                ("state", state_len, spec.states)):
        if capacity(length) < len(names):
            raise CodecError(f"{len(names)} {kind}s exceed capacity {capacity(length)} "
                             f"of length {length}")
    symbol_write = dict(zip(spec.symbols, enumerate_balanced(symbol_len)))
    state_write = dict(zip(spec.states, enumerate_balanced(state_len)))
    for kind, assigned, given in (("symbol", symbol_write, ov.symbols),
                                  ("state", state_write, ov.states)):
        for name, bits in (given or {}).items():
            if name not in assigned:
                raise CodecError(f"override for undeclared {kind} {name!r}")
            assigned[name] = bits
    halt = "1" * state_len
    for kind, length, assigned in (("symbol", symbol_len, symbol_write),
                                   ("state", state_len, state_write)):
        for name, bits in assigned.items():
            if len(bits) != length:
                raise CodecError(
                    f"{kind} {name!r}: codon {bits} has length {len(bits)}, expected {length}"
                )
            if kind == "state" and bits == halt:
                raise CodecError(f"state {name!r} assigned the reserved halt codon {halt}")
            if set(bits) - {"0", "1"}:
                raise CodecError(f"{kind} {name!r}: codon {bits!r} is not a bit string")
            if bits.count("1") != length // 2:
                raise CodecError(f"{kind} {name!r}: codon {bits} is not balanced")
        if len(set(assigned.values())) != len(assigned):
            raise CodecError(f"duplicate {kind} codon assignment")
    return Codec(symbol_len, state_len, symbol_write, state_write)


FAULTS = ["undeclared", "length", "halt", "character", "unbalanced", "duplicate", "capacity"]
SEEDS = range(400)


def _result(build, spec, overrides):
    """The codec, with its names in order, or the error message."""
    try:
        codec = build(spec, overrides)
    except CodecError as e:
        return "error", str(e)
    return "codec", codec, list(codec.symbol_write.items()), list(codec.state_write.items())


def _drawn_overrides(rng, spec):
    """The least or widened lengths, and a drawn subset of names on drawn
    balanced codons (at random, so some sets collide and are skipped)."""
    least = min_lengths(len(spec.symbols), len(spec.states))
    widen = rng.choice([0, 2]), rng.choice([0, 1, 2])
    given = {}
    for kind, names, n, w in zip(("symbol", "state"), (spec.symbols, spec.states), least, widen):
        codons = enumerate_balanced(n + w)
        given[kind] = {name: rng.choice(codons)
                       for name in rng.sample(names, rng.randint(0, len(names)))}
    return [n + w if w else None for n, w in zip(least, widen)], given


def _overrides(lengths, given):
    return CodecOverrides(*lengths, given["symbol"] or None, given["state"] or None)


def _too_short(rng, spec, lengths):
    """``lengths`` with one kind's length drawn valid but too short for its
    names; None when neither kind has such a length."""
    least = min_lengths(len(spec.symbols), len(spec.states))
    short = [(0, n) for n in range(2, least[0], 2)] + [(1, n) for n in range(1, least[1])]
    if not short:
        return None
    k, n = rng.choice(short)
    return [n if i == k else length for i, length in enumerate(lengths)]


def _inject(rng, spec, codec, given, fault):
    """A copy of ``given``, whose codec is ``codec``, with exactly one fault
    of the named kind; None when the spec has no room for it."""
    kinds = {"symbol": (spec.symbols, codec.symbol_len, codec.symbol_write),
             "state": (spec.states, codec.state_len, codec.state_write)}
    if fault == "duplicate":
        kinds = {kind: v for kind, v in kinds.items() if len(v[0]) > 1}
        if not kinds:
            return None
    kind = "state" if fault == "halt" else rng.choice(sorted(kinds))
    names, length, write = kinds[kind]
    name = rng.choice(names)
    valid = rng.choice(enumerate_balanced(length))
    i = rng.randrange(length)
    if fault == "undeclared":
        name, faulty = "undeclared", valid
    elif fault == "halt":
        faulty = "1" * length
    elif fault == "length":
        wrong = length + 1 if length == 1 else length + rng.choice([-1, 1])
        faulty = rng.choice(enumerate_balanced(wrong))
    elif fault == "character":
        faulty = valid[:i] + rng.choice("2x ") + valid[i + 1:]
    elif fault == "unbalanced":
        faulty = valid[:i] + "10"[int(valid[i])] + valid[i + 1:]
    else:
        faulty = write[rng.choice([n for n in names if n != name])]
    given = {k: dict(v) for k, v in given.items()}
    given[kind][name] = faulty
    return given


@pytest.mark.parametrize("fault", [None, *FAULTS])
def test_build_codec_matches_the_reference(fault):
    """Seeded machines up to 6 states and 5 symbols; override sets that are
    valid or carry exactly one fault, or, for ``capacity``, a symbol or state
    length too short for the names, drawn codons unchanged. A set already
    faulty before its fault is injected is skipped."""
    compared, messages = 0, set()
    for seed in SEEDS:
        rng = random.Random(seed)
        spec = random_total_machine(rng, max_states=6, max_symbols=5)
        lengths, given = _drawn_overrides(rng, spec)
        base = _result(reference_build_codec, spec, _overrides(lengths, given))
        if base[0] == "error":
            continue
        if fault == "capacity":
            lengths = _too_short(rng, spec, lengths)
            if lengths is None:
                continue
        elif fault is not None:
            given = _inject(rng, spec, base[1], given, fault)
            if given is None:
                continue
        overrides = _overrides(lengths, given)
        want = _result(reference_build_codec, spec, overrides)
        assert want[0] == ("codec" if fault is None else "error"), (seed, want)
        assert _result(build_codec, spec, overrides) == want, (seed, overrides)
        compared += 1
        if fault == "capacity":
            messages.add(want[1].split()[1])
    assert compared >= len(SEEDS) // 3
    if fault == "capacity":  # both kinds' messages were compared
        assert messages == {"symbols", "states"}


class TestParseOverrides:
    def test_round_trip_fields(self):
        ov = parse_codec_overrides(UTM55_CODEC_TEXT)
        assert ov.symbol_len == 6 and ov.state_len == 6
        assert ov.symbols["d"] == "001110"
        assert ov.states["q5"] == "001110"

    def test_blank_lines_ignored(self):
        ov = parse_codec_overrides("\nsymbol x 01\n   \n\nstate-len 3\n\n")
        assert (ov.symbols, ov.state_len, ov.symbol_len) == ({"x": "01"}, 3, None)

    def test_bad_length(self):
        with pytest.raises(CodecError) as info:
            parse_codec_overrides("state-len 3\nsymbol-len six\n")
        assert str(info.value) == "line 2: bad length 'six'"

    def test_bad_line(self):
        with pytest.raises(CodecError, match="line 1"):
            parse_codec_overrides("symbol only-two\n")

    def test_bad_bits(self):
        with pytest.raises(CodecError, match="bad codon"):
            parse_codec_overrides("symbol x 01e1\n")

    def test_names_read_the_delta_alias(self):
        ov = parse_codec_overrides("symbol delta 010011\nstate delta 0011\n")
        assert (ov.symbols, ov.states) == ({"δ": "010011"}, {"δ": "0011"})
        with pytest.raises(CodecError, match="duplicate override for 'δ'"):
            parse_codec_overrides("symbol δ 010011\nsymbol delta 001011\n")

    def test_duplicate(self):
        with pytest.raises(CodecError, match="duplicate"):
            parse_codec_overrides("symbol x 01\nsymbol x 10\n")

    @pytest.mark.parametrize("kind", ["symbol-len", "state-len"])
    def test_duplicate_length(self, kind):
        with pytest.raises(CodecError) as info:
            parse_codec_overrides(f"{kind} 6\nsymbol x 01\n{kind} 8\n")
        assert str(info.value) == f"line 3: duplicate override for {kind!r}"

    @pytest.mark.parametrize("line", ["symbol-len 6 7", "symbol g"])
    def test_a_line_of_the_wrong_arity_cannot_be_parsed(self, line):
        with pytest.raises(CodecError) as info:
            parse_codec_overrides(f"{line}\n")
        assert str(info.value) == f"line 1: cannot parse {line!r}"
