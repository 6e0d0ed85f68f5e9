import copy
import dataclasses
import pickle
import random
from collections import Counter

import pytest

from codonmachine import (
    CompileMode,
    MachineSpec,
    Move,
    Rule,
    Side,
    Trna,
    TrnaError,
    build_codec,
    compile_rule,
    compile_ruleset,
    infer_sides,
    render_trna,
    render_trna_listing,
    validate,
)

from conftest import random_total_machine

LEFT = frozenset({Side.STATE_ON_LEFT})
RIGHT = frozenset({Side.STATE_ON_RIGHT})
BOTH = frozenset({Side.STATE_ON_LEFT, Side.STATE_ON_RIGHT})


class TestCompileRule:
    def test_adder_rule_one_left(self, adder, adder_codec):
        t = compile_rule(adder.rules[0], 1, adder_codec, LEFT)
        assert t.read_row(Side.STATE_ON_LEFT) == ("110", "10", "000")
        assert t.read_row(Side.STATE_ON_RIGHT) is None
        assert not t.hole
        assert t.write == ("111", "01", "001")

    def test_adder_rule_six_right(self, adder, adder_codec):
        t = compile_rule(adder.rules[5], 6, adder_codec, RIGHT)
        assert t.read_row(Side.STATE_ON_RIGHT) == ("000", "10", "011")
        assert not t.hole
        assert t.write == ("111", "01", "111")

    def test_utm_rule_one_both(self, utm, utm_codec):
        t = compile_rule(utm.rules[0], 1, utm_codec, BOTH)
        assert t.read_row(Side.STATE_ON_LEFT) == ("111000", "111000", "000000")
        assert t.read_row(Side.STATE_ON_RIGHT) == ("000000", "111000", "111000")
        assert t.hole
        assert t.write == ("000111", "001011", "111111")

    def test_adder_rule_one_dual_pair(self, adder, adder_codec):
        # the generic disambiguation: same rule readable from either side,
        # identical move and write rows
        t = compile_rule(adder.rules[0], 1, adder_codec, BOTH)
        assert t.read_row(Side.STATE_ON_LEFT) == ("110", "10", "000")
        assert t.read_row(Side.STATE_ON_RIGHT) == ("000", "10", "110")
        assert t.write == ("111", "01", "001")
        assert not t.hole

    def test_sides_required(self, adder, adder_codec):
        with pytest.raises(ValueError, match="side"):
            compile_rule(adder.rules[0], 1, adder_codec, frozenset())

    @pytest.mark.parametrize("sides", [LEFT, RIGHT, BOTH])
    def test_record_equals_one_built_by_the_dataclass(self, utm, utm_codec, sides):
        """compile_rule builds its record without ``__init__``; it is the same
        frozen value as one built through it."""
        for i, rule in enumerate(utm.rules, start=1):
            t = compile_rule(rule, i, utm_codec, sides)
            built = Trna(**{f.name: getattr(t, f.name) for f in dataclasses.fields(Trna)})
            assert (t, hash(t), repr(t)) == (built, hash(built), repr(built))
            assert pickle.loads(pickle.dumps(t)) == t == copy.deepcopy(t)
            assert dataclasses.replace(t, rule_id=0) == dataclasses.replace(built, rule_id=0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                t.hole = not t.hole


class TestSide:
    """Side hashes by identity; everything else an Enum member does stays."""

    def test_hash_is_identity(self):
        assert Side.__hash__ is object.__hash__
        assert {hash(s) for s in Side} == {object.__hash__(s) for s in Side}

    def test_equality(self):
        assert Side.STATE_ON_LEFT == Side.STATE_ON_LEFT != Side.STATE_ON_RIGHT
        assert Side.STATE_ON_LEFT != "left"
        assert Side("left") is Side.STATE_ON_LEFT

    def test_pickle_and_copy_keep_the_member(self):
        for s in Side:
            assert pickle.loads(pickle.dumps(s)) is s
            assert copy.deepcopy(s) is s
        both = pickle.loads(pickle.dumps(BOTH))
        assert both == BOTH == frozenset(Side) and Side.STATE_ON_RIGHT in both

    def test_sets_and_counters(self):
        assert LEFT | RIGHT == BOTH and BOTH - LEFT == RIGHT
        assert Side.STATE_ON_LEFT in LEFT and Side.STATE_ON_RIGHT not in LEFT
        counts = Counter([Side.STATE_ON_LEFT, Side.STATE_ON_RIGHT, Side.STATE_ON_LEFT])
        assert counts == {Side.STATE_ON_LEFT: 2, Side.STATE_ON_RIGHT: 1}
        assert {(1, Side.STATE_ON_LEFT): "x"}[(1, Side.STATE_ON_LEFT)] == "x"


class TestInferSides:
    def test_adder(self, adder):
        sides, warnings = infer_sides(adder)
        assert warnings == []
        assert sides["q1"] == LEFT
        assert sides["q2"] == LEFT
        assert sides["q3"] == RIGHT

    def test_unentered_state_warns(self):
        spec = MachineSpec(
            symbols=("0",),
            states=("q1", "q2"),
            rules=(
                Rule("q1", "0", "0", Move.HALT, None),
                Rule("q2", "0", "0", Move.HALT, None),
            ),
            default_symbol="0",
            initial_state="q1",
            tape=("0",),
            head=0,
        )
        sides, warnings = infer_sides(spec)
        assert len(warnings) == 1
        assert "q2" in warnings[0]
        assert sides["q2"] == LEFT

    def test_initial_state_gets_left(self):
        spec = MachineSpec(
            symbols=("0",),
            states=("q1",),
            rules=(Rule("q1", "0", "0", Move.HALT, None),),
            default_symbol="0",
            initial_state="q1",
            tape=("0",),
            head=0,
        )
        sides, warnings = infer_sides(spec)
        assert sides["q1"] == LEFT and warnings == []


def _one_rule_spec(rule: Rule) -> MachineSpec:
    return MachineSpec(symbols=("0", "1"), states=("q1",), rules=(rule,), default_symbol="0",
                       initial_state="q1", tape=("0",), head=0)


class TestCompileRuleset:
    @pytest.mark.parametrize("rule, name", [
        (Rule("q1", "0", "1", Move.RIGHT, "q9"), "q9"),
        (Rule("q1", "0", "1", Move.LEFT, "q9"), "q9"),
        (Rule("q7", "0", "1", Move.RIGHT, "q1"), "q7"),
        (Rule("q7", "0", "1", Move.HALT, None), "q7"),
    ])
    def test_undeclared_state_is_a_trna_error_in_both_modes(self, rule, name):
        """A spec built without validation may name a state it does not
        declare; both modes report it as the missing codon."""
        spec = _one_rule_spec(rule)
        codec = build_codec(spec)
        for mode in CompileMode:
            with pytest.raises(TrnaError, match=f"^no codon for '{name}'$"):
                compile_ruleset(spec, codec, mode)

    def test_utm_dual_counts(self, utm, utm_codec):
        trnas = compile_ruleset(utm, utm_codec, CompileMode.DUAL)
        assert len(trnas) == 25
        assert sum(len(t.reads) for t in trnas) == 50

    def test_adder_inferred_single_rows(self, adder, adder_codec):
        trnas = compile_ruleset(adder, adder_codec, CompileMode.INFERRED)
        assert len(trnas) == 6
        assert all(len(t.reads) == 1 for t in trnas)
        sides = [t.reads[0][0] for t in trnas]
        assert sides == [
            Side.STATE_ON_LEFT,
            Side.STATE_ON_LEFT,
            Side.STATE_ON_LEFT,
            Side.STATE_ON_LEFT,
            Side.STATE_ON_RIGHT,
            Side.STATE_ON_RIGHT,
        ]

    def test_hole_iff_left_move(self, utm, utm_codec):
        for t in compile_ruleset(utm, utm_codec, CompileMode.DUAL):
            assert t.hole == (t.rule.move is Move.LEFT)

    def test_rule_ids_one_based(self, adder, adder_codec):
        trnas = compile_ruleset(adder, adder_codec)
        assert [t.rule_id for t in trnas] == [1, 2, 3, 4, 5, 6]


class TestDistinctRows:
    @staticmethod
    def all_rows(trnas):
        return [row for t in trnas for _, row in t.reads]

    def test_corpus_rows_distinct(self, corpus, adder_codec, utm_codec):
        for spec, codec in (
            (corpus["unary_adder"], adder_codec),
            (corpus["utm55"], utm_codec),
        ):
            rows = self.all_rows(compile_ruleset(spec, codec, CompileMode.DUAL))
            assert len(set(rows)) == len(rows)

    def test_read1_never_equals_read2(self, utm, utm_codec):
        trnas = compile_ruleset(utm, utm_codec, CompileMode.DUAL)
        lefts = {row for t in trnas for s, row in t.reads if s is Side.STATE_ON_LEFT}
        rights = {row for t in trnas for s, row in t.reads if s is Side.STATE_ON_RIGHT}
        assert not lefts & rights

    def test_random_machines_rows_distinct(self):
        rng = random.Random(23)
        for _ in range(60):
            spec = random_total_machine(rng)
            if validate(spec):
                continue
            codec = build_codec(spec)
            rows = self.all_rows(compile_ruleset(spec, codec, CompileMode.DUAL))
            assert len(set(rows)) == len(rows)


class TestRender:
    def test_utm_left_move_hole_row(self, utm, utm_codec):
        trnas = compile_ruleset(utm, utm_codec, CompileMode.DUAL)
        assert "R/L: 011111_111111_111111" in render_trna(trnas[3])

    def test_adder_right_move_row(self, adder, adder_codec):
        trnas = compile_ruleset(adder, adder_codec, CompileMode.INFERRED)
        assert "R/L: 111_11_111" in render_trna(trnas[2])

    def test_right_mover_has_no_zero_bit(self, utm, utm_codec):
        for t in compile_ruleset(utm, utm_codec, CompileMode.DUAL):
            if not t.hole:
                rl_line = next(
                    l for l in render_trna(t).splitlines() if l.startswith("R/L:")
                )
                assert "0" not in rl_line.split(" ", 1)[1]

    def test_halt_header_uses_dash(self, adder, adder_codec):
        trnas = compile_ruleset(adder, adder_codec, CompileMode.INFERRED)
        assert render_trna(trnas[5]).splitlines()[0] == "6. q3 0 0 H -:"

    def test_dual_layout_lines(self, utm, utm_codec):
        trnas = compile_ruleset(utm, utm_codec, CompileMode.DUAL)
        lines = render_trna(trnas[0]).splitlines()
        assert lines[0] == "1. q1 g b L q1:"
        assert lines[1] == "read: '111000'_111000_'000000'"
        assert lines[2] == "read1: 111000_111000_000000"
        assert lines[3] == "read2: 000000_111000_111000"

    def test_listing_blank_line_separated(self, adder, adder_codec):
        trnas = compile_ruleset(adder, adder_codec, CompileMode.INFERRED)
        listing = render_trna_listing(trnas)
        assert listing.count("\n\n") == 5
