import dataclasses
import random

import pytest

from codonmachine import (
    FsmSpec,
    MachineSpec,
    Move,
    Rule,
    SpecSyntaxError,
    SpecValidationError,
    parse_fsm_spec,
    parse_machine_spec,
    parse_spec,
    serialize_fsm_spec,
    serialize_machine_spec,
    validate,
    validate_fsm,
)
from codonmachine.corpus import (
    INCREMENTER_TEXT,
    PARITY_TEXT,
    UNARY_ADDER_TEXT,
)
from codonmachine.machine import split_names

from conftest import random_partial_machine


class TestParse:
    def test_incrementer_shape(self):
        spec = parse_machine_spec(INCREMENTER_TEXT)
        assert len(spec.symbols) == 3
        assert len(spec.states) == 2
        assert len(spec.rules) == 6
        assert spec.default_symbol == "#"
        assert spec.initial_state == "q1"

    def test_blank_lines_skipped(self):
        spaced = "\n" + UNARY_ADDER_TEXT.replace("\n", "\n\n  \n")
        assert parse_machine_spec(spaced) == parse_machine_spec(UNARY_ADDER_TEXT)

    def test_adder_shape(self):
        spec = parse_machine_spec(UNARY_ADDER_TEXT)
        assert len(spec.symbols) == 2
        assert len(spec.states) == 3
        assert len(spec.rules) == 6
        assert spec.tape == tuple("011010")
        assert spec.head == 0

    def test_determinism_enforced(self):
        text = UNARY_ADDER_TEXT.replace(
            "rule: q1 0 0 R q1\n", "rule: q1 0 0 R q1\nrule: q1 0 1 L q2\n"
        )
        with pytest.raises(SpecValidationError, match="duplicate"):
            parse_machine_spec(text)

    def test_syntax_error_carries_line(self):
        bad = "symbols: 0 1\nstates q1\n"
        with pytest.raises(SpecSyntaxError, match="line 2"):
            parse_machine_spec(bad)

    def test_rule_arity_checked(self):
        with pytest.raises(SpecSyntaxError, match="5 fields"):
            parse_machine_spec("rule: q1 0 0 R\n")

    def test_halt_rule_needs_dash(self):
        text = UNARY_ADDER_TEXT.replace("rule: q3 0 0 H -\n", "rule: q3 0 0 H q1\n")
        with pytest.raises(SpecSyntaxError, match="'-'"):
            parse_machine_spec(text)

    def test_head_bounds_checked(self):
        text = UNARY_ADDER_TEXT.replace("head: 0", "head: 6")
        with pytest.raises(SpecValidationError, match="head"):
            parse_machine_spec(text)

    def test_undeclared_name_checked(self):
        text = UNARY_ADDER_TEXT.replace("tape: 011010", "tape: 011017")
        with pytest.raises(SpecValidationError, match="undeclared"):
            parse_machine_spec(text)

    def test_delta_alias(self):
        text = (
            "symbols: a delta\nstates: q1\nrule: q1 delta a R q1\n"
            "default: a\ninitial: q1\ntape: a delta a\nhead: 0\n"
        )
        spec = parse_machine_spec(text)
        assert "δ" in spec.symbols
        assert spec.rules[0].read_symbol == "δ"
        assert spec.tape == ("a", "δ", "a")

    def test_missing_directive(self):
        with pytest.raises(SpecSyntaxError, match="missing"):
            parse_machine_spec("symbols: 0\nstates: q1\n")

    def test_dispatch(self):
        assert isinstance(parse_spec(PARITY_TEXT), FsmSpec)
        assert isinstance(parse_spec(UNARY_ADDER_TEXT), MachineSpec)

    @pytest.mark.parametrize(
        "text, key",
        [
            *(pytest.param(INCREMENTER_TEXT, key, id=f"tm-{key}")
              for key in ("symbols", "states", "default", "initial", "tape", "head")),
            *(pytest.param(PARITY_TEXT, key, id=f"fsm-{key}")
              for key in ("symbols", "states", "initial")),
        ],
    )
    def test_a_repeated_single_valued_directive_is_rejected(self, text, key):
        """A second line of the directive, right after the first, fails at its
        own line rather than replacing the first."""
        lines = text.splitlines(keepends=True)
        i = next(i for i, line in enumerate(lines) if line.startswith(f"{key}:"))
        lines.insert(i + 1, lines[i])
        with pytest.raises(SpecSyntaxError) as info:
            parse_spec("".join(lines))
        assert str(info.value) == f"line {i + 2}, column 1: duplicate directive {key!r}"

    @pytest.mark.parametrize(
        "parser, text, message",
        [
            pytest.param(
                parse_machine_spec,
                "symbols: 0\nfsm-rule: A 0 A\n",
                "line 2, column 1: fsm-rule not allowed in a Turing machine spec",
                id="tm-fsm-rule",
            ),
            pytest.param(
                parse_machine_spec,
                "foo: bar\n",
                "line 1, column 1: unknown directive 'foo'",
                id="tm-unknown",
            ),
            pytest.param(
                parse_machine_spec,
                "head: x\n",
                "line 1, column 1: head must be an integer, got 'x'",
                id="tm-head",
            ),
            pytest.param(
                parse_machine_spec,
                "rule: q1 0 0 X q1\n",
                "line 1, column 1: bad move 'X', expected L, R or H",
                id="tm-move",
            ),
            pytest.param(
                parse_machine_spec,
                "rule: q1 0 0 R -\n",
                "line 1, column 1: only halt rules may end with '-'",
                id="tm-dash",
            ),
            pytest.param(
                parse_machine_spec,
                "tape:\n",
                "line 1, column 1: empty tape",
                id="tm-empty-tape",
            ),
            pytest.param(
                parse_machine_spec,
                "symbols: 0\n",
                "line 1, column 1: missing directive(s): "
                "states, default, initial, tape, head",
                id="tm-missing",
            ),
            pytest.param(
                parse_fsm_spec,
                "fsm-rule: A 0\n",
                "line 1, column 1: fsm-rule needs 3 fields (state symbol new-state), got 2",
                id="fsm-arity",
            ),
            pytest.param(
                parse_fsm_spec,
                "symbols: 0 1\ntape: 01\n",
                "line 2, column 1: unknown directive 'tape'",
                id="fsm-unknown",
            ),
            pytest.param(
                parse_fsm_spec,
                "fsm-rule: A 0 A\n",
                "line 1, column 1: missing directive(s): symbols, states, initial",
                id="fsm-missing",
            ),
            pytest.param(
                parse_spec,
                "# comment\n",
                "line 1, column 1: expected 'directive: value'",
                id="comment-column",
            ),
            pytest.param(
                parse_spec,
                "symbols: 0\n  states q1\n",
                "line 2, column 3: expected 'directive: value'",
                id="indented-column",
            ),
        ],
    )
    def test_error_message(self, parser, text, message):
        with pytest.raises(SpecSyntaxError) as info:
            parser(text)
        assert str(info.value) == message


class TestValidateAsData:
    def test_builtins_valid(self, corpus):
        for name, spec in corpus.items():
            if isinstance(spec, FsmSpec):
                assert validate_fsm(spec) == []
            else:
                assert validate(spec) == []

    def test_halt_rule_with_next_state(self, adder):
        broken = MachineSpec(
            symbols=adder.symbols,
            states=adder.states,
            rules=adder.rules[:-1] + (Rule("q3", "0", "0", Move.HALT, "q1"),),
            default_symbol=adder.default_symbol,
            initial_state=adder.initial_state,
            tape=adder.tape,
            head=adder.head,
        )
        violations = validate(broken)
        assert len(violations) == 1
        assert "halt" in violations[0]

    def test_head_at_tape_length(self, adder):
        broken = MachineSpec(
            symbols=adder.symbols,
            states=adder.states,
            rules=adder.rules,
            default_symbol=adder.default_symbol,
            initial_state=adder.initial_state,
            tape=adder.tape,
            head=len(adder.tape),
        )
        violations = validate(broken)
        assert len(violations) == 1
        assert "head" in violations[0]


    def test_every_violation_in_order(self):
        broken = MachineSpec(
            symbols=("0", "1", "0"),
            states=("q1", "q2", "q2"),
            rules=(
                Rule("q1", "0", "1", Move.RIGHT, "q2"),
                Rule("q9", "x", "y", Move.LEFT, None),
                Rule("q1", "0", "0", Move.HALT, "q1"),
                Rule("q2", "1", "1", Move.RIGHT, "q7"),
                Rule("q2", "1", "z", Move.HALT, None),
                Rule("q2", "0", "0", Move.LEFT, "q1"),
            ),
            default_symbol="#",
            initial_state="q0",
            tape=("0", "2", "1"),
            head=3,
        )
        assert validate(broken) == [
            "duplicate symbol declaration",
            "duplicate state declaration",
            "rule 2: undeclared state 'q9'",
            "rule 2: undeclared read symbol 'x'",
            "rule 2: undeclared write symbol 'y'",
            "rule 2: missing next state",
            "rule 3: halt rule must not name a next state",
            "rule 3: duplicate (state, symbol) pair ('q1', '0') also used by rule 1",
            "rule 4: undeclared next state 'q7'",
            "rule 5: undeclared write symbol 'z'",
            "rule 5: duplicate (state, symbol) pair ('q2', '1') also used by rule 4",
            "undeclared default symbol '#'",
            "undeclared initial state 'q0'",
            "tape cell 1: undeclared symbol '2'",
            "head 3 outside tape of length 3",
        ]


class TestCorpus:
    def test_names(self, corpus):
        assert sorted(corpus) == ["incrementer", "parity", "unary_adder", "utm55"]

    def test_rule_counts(self, corpus):
        assert len(corpus["incrementer"].rules) == 6
        assert len(corpus["unary_adder"].rules) == 6
        assert len(corpus["utm55"].rules) == 25

    def test_adder_fourth_rule(self, corpus):
        assert corpus["unary_adder"].rules[3] == Rule("q2", "0", "1", Move.LEFT, "q3")

    def test_parity_lookup(self, corpus):
        assert corpus["parity"].transitions[("B", "1")] == "A"

    def test_utm_alphabet(self, corpus):
        utm = corpus["utm55"]
        assert utm.symbols == ("g", "b", "δ", "c", "d")
        assert utm.initial_state == "q1"
        assert utm.default_symbol == "c"


class TestRoundTrip:
    def test_corpus_round_trips(self, corpus):
        for spec in corpus.values():
            if isinstance(spec, FsmSpec):
                assert parse_fsm_spec(serialize_fsm_spec(spec)) == spec
            else:
                assert parse_machine_spec(serialize_machine_spec(spec)) == spec

    def test_random_specs_round_trip(self):
        rng = random.Random(71)
        for _ in range(100):
            spec = random_partial_machine(rng)
            if validate(spec):
                continue
            assert parse_machine_spec(serialize_machine_spec(spec)) == spec

    def test_multichar_symbol_tape(self):
        spec = MachineSpec(
            symbols=("sym0", "sym1"),
            states=("q1",),
            rules=(Rule("q1", "sym0", "sym1", Move.HALT, None),),
            default_symbol="sym0",
            initial_state="q1",
            tape=("sym1", "sym0"),
            head=1,
        )
        assert parse_machine_spec(serialize_machine_spec(spec)) == spec

    def test_one_multichar_cell_tape_is_refused(self):
        # "tape: 11" would read back as two cells named 1
        spec = parse_machine_spec(
            "symbols: 1 11\nstates: q1\nrule: q1 1 11 H -\n"
            "default: 1\ninitial: q1\ntape: 1 1\nhead: 0\n"
        )
        spec = dataclasses.replace(spec, tape=("11",))
        assert validate(spec) == []
        with pytest.raises(SpecValidationError, match=r"tape \('11',\)"):
            serialize_machine_spec(spec)



class TestSplitNames:
    """One rule reads a ``tape:`` value and ``fsm``'s input."""

    @pytest.mark.parametrize("value, separated, names", [
        ("0δ1", False, ("0", "δ", "1")),
        ("delta", False, ("d", "e", "l", "t", "a")),
        (" 0 delta\t1 ", False, ("0", "δ", "1")),
        ("one delta", True, ("one", "δ")),
        ("delta", True, ("δ",)),
        ("", False, ()),
    ])
    def test_split(self, value, separated, names):
        assert split_names(value, separated) == names

    def test_a_tape_reads_the_same_rule(self):
        spec = parse_machine_spec("symbols: 0 δ\nstates: q1\nrule: q1 0 δ H -\ndefault: 0\n"
                                  "initial: q1\ntape: 0 delta δ\nhead: 0\n")
        assert spec.tape == split_names("0 delta δ") == ("0", "δ", "δ")


class TestFsmParse:
    def test_parity(self):
        spec = parse_fsm_spec(PARITY_TEXT)
        assert len(spec.transitions) == 4
        assert spec.initial_state == "A"

    def test_totality_enforced(self):
        text = PARITY_TEXT.replace("fsm-rule: B 1 A\n", "")
        with pytest.raises(SpecValidationError, match="missing transition"):
            parse_fsm_spec(text)

    @pytest.mark.parametrize(
        "alphabets, violations",
        [
            pytest.param("symbols: 0 0 1\nstates: A B", ["duplicate symbol declaration"],
                         id="symbol"),
            pytest.param("symbols: 0 1\nstates: A B A", ["duplicate state declaration"],
                         id="state"),
            pytest.param("symbols: 0 0 1\nstates: A B A",
                         ["duplicate symbol declaration", "duplicate state declaration"],
                         id="both"),
        ],
    )
    def test_a_name_declared_twice_is_rejected(self, alphabets, violations):
        """The rules stay total over the distinct names, so the duplicates are
        all that is reported, in the order a Turing machine spec reports them."""
        text = PARITY_TEXT.replace("symbols: 0 1\nstates: A B", alphabets)
        with pytest.raises(SpecValidationError) as info:
            parse_fsm_spec(text)
        assert info.value.violations == violations

    def test_a_missing_transition_is_reported_once(self):
        """Each missing pair once, in declared order, however often its state
        or symbol is declared."""
        text = (PARITY_TEXT.replace("symbols: 0 1\nstates: A B", "symbols: 0 1 0\nstates: A B A")
                .replace("fsm-rule: A 0 A\n", ""))
        with pytest.raises(SpecValidationError) as info:
            parse_fsm_spec(text)
        assert info.value.violations == [
            "duplicate symbol declaration",
            "duplicate state declaration",
            "missing transition for ('A', '0')",
        ]

    def test_duplicate_fsm_rule(self):
        text = PARITY_TEXT.replace(
            "fsm-rule: A 0 A\n", "fsm-rule: A 0 A\nfsm-rule: A 0 B\n"
        )
        with pytest.raises(SpecValidationError, match="duplicate"):
            parse_fsm_spec(text)

    @pytest.mark.parametrize(
        "old, new, violation",
        [
            ("initial: A", "initial: C", "undeclared initial state 'C'"),
            ("fsm-rule: B 1 A", "fsm-rule: B 2 A", "transition on undeclared pair ('B', '2')"),
            ("fsm-rule: B 1 A", "fsm-rule: C 1 A", "transition on undeclared pair ('C', '1')"),
            ("fsm-rule: B 1 A", "fsm-rule: B 1 C",
             "transition ('B', '1') to undeclared state 'C'"),
        ],
    )
    def test_undeclared_names_rejected(self, old, new, violation):
        with pytest.raises(SpecValidationError) as info:
            parse_fsm_spec(PARITY_TEXT.replace(old, new))
        assert violation in info.value.violations

    def test_tm_directive_rejected(self):
        with pytest.raises(SpecSyntaxError, match="not allowed"):
            parse_fsm_spec(PARITY_TEXT + "rule: A 0 0 R A\n")
