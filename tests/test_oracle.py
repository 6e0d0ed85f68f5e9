import dataclasses
import random
from pathlib import Path

import pytest

from codonmachine import (
    BisimVerdict,
    ClassicalConfig,
    CodecOverrides,
    CompileMode,
    MachineSpec,
    Move,
    Outcome,
    Rule,
    bisimulate,
    build_codec,
    compile_ruleset,
    corpus_codec,
    decode_tape,
    enumerate_balanced,
    initial_config,
    new_sim,
    parse_machine_spec,
    run,
    tm_run,
    tm_step,
    validate,
)
from codonmachine.cli import main
from codonmachine.oracle import TmRunResult

from conftest import (
    INCREMENTER_FINAL_HEAD,
    INCREMENTER_FINAL_TAPE,
    INCREMENTER_STEPS,
    ONE_RULE_WALKER,
    UTM_FINAL_HEAD,
    UTM_FINAL_TAPE,
    UTM_HALT_STEPS,
    UTM_HEAD_AFTER_95,
    UTM_WINDOW_95_HEAD_MASKED,
    UTM_WINDOW_AFTER_94,
    UTM_WINDOW_AFTER_95,
    corrupt_first_write,
    random_partial_machine,
    random_total_machine,
)


class TestTmStep:
    def test_right_move(self, adder):
        cfg = initial_config(adder)
        nxt = tm_step(adder, cfg)
        assert nxt.state == "q1"
        assert nxt.head == 1
        assert nxt.symbols[0] == "0"

    def test_halt_rule_writes_and_stops(self, adder):
        cfg = initial_config(adder)
        cfg.state = "q3"
        cfg.head = 0
        nxt = tm_step(adder, cfg)
        assert nxt.state is None
        assert nxt.head == 0
        assert nxt.symbols[0] == "0"

    def test_missing_rule_is_stuck_halt(self, adder):
        partial = MachineSpec(
            symbols=adder.symbols,
            states=adder.states,
            rules=adder.rules[:1],
            default_symbol=adder.default_symbol,
            initial_state=adder.initial_state,
            tape=("1",),
            head=0,
        )
        cfg = initial_config(partial)
        nxt = tm_step(partial, cfg)
        assert nxt.state is None
        assert nxt.head == cfg.head
        assert nxt.symbols == dict(enumerate(partial.tape))

    def test_halted_config_rejected(self, adder):
        cfg = initial_config(adder)
        cfg.state = None
        with pytest.raises(ValueError):
            tm_step(adder, cfg)


# writes left of the tape, inside it and right of it, over a non-default tape
BOTH_SIDES = parse_machine_spec(
    "symbols: 0 1 2\nstates: a b c d\n"
    "rule: a 1 0 L b\nrule: b 2 2 L b\nrule: b 0 1 R c\nrule: c 2 2 R c\n"
    "rule: c 0 0 R d\nrule: d 2 2 R d\nrule: d 0 1 H -\n"
    "default: 0\ninitial: a\ntape: 212\nhead: 1\n"
)
BOTH_SIDES_FINAL = {-1: "1", 0: "2", 1: "0", 2: "2", 3: "1"}


class TestFullConfigs:
    """The configurations returned to callers hold every cell in ``symbols``,
    although ``bisimulate`` reads the spec's tape as a shared ``base``."""

    def test_tm_run(self):
        r = tm_run(BOTH_SIDES)
        assert (r.steps, r.outcome, r.min_pos, r.max_pos) == (7, Outcome.HALTED, -1, 3)
        assert r.config == ClassicalConfig(BOTH_SIDES_FINAL, None, 3)

    def test_tm_step_from_the_initial_config(self):
        cfg = initial_config(BOTH_SIDES)
        assert cfg == ClassicalConfig({0: "2", 1: "1", 2: "2"}, "a", 1)
        while cfg.state is not None:
            cfg = tm_step(BOTH_SIDES, cfg)
        assert cfg == ClassicalConfig(BOTH_SIDES_FINAL, None, 3)

    def test_tm_step_from_an_overlay(self):
        # the state after six steps, with cell 2 (rewritten with its own symbol) in base
        cfg = ClassicalConfig({-1: "1", 0: "2", 1: "0"}, "d", 3, base=BOTH_SIDES.tape)
        assert [cfg.symbol_at(p, "0") for p in range(-2, 5)] == list("0120200")
        nxt = tm_step(BOTH_SIDES, cfg)
        assert nxt == ClassicalConfig(BOTH_SIDES_FINAL, None, 3)
        assert cfg.symbols == {-1: "1", 0: "2", 1: "0"}  # the step went to a copy


class TestTmRun:
    def test_adder(self, adder):
        r = tm_run(adder)
        assert r.outcome is Outcome.HALTED
        assert r.steps == 6
        assert (r.min_pos, r.max_pos) == (0, 5)
        assert r.tape_string(adder) == "001110"

    def test_incrementer_frozen_golden(self, corpus):
        inc = corpus["incrementer"]
        r = tm_run(inc)
        assert r.outcome is Outcome.HALTED
        assert r.steps == INCREMENTER_STEPS
        assert r.tape_string(inc) == INCREMENTER_FINAL_TAPE
        assert r.config.head == INCREMENTER_FINAL_HEAD

    def test_utm_endpoints(self, utm):
        r = tm_run(utm)
        assert r.outcome is Outcome.HALTED
        assert r.steps == UTM_HALT_STEPS
        assert r.config.head == UTM_FINAL_HEAD
        assert r.tape_string(utm) == UTM_FINAL_TAPE

    def test_utm_trace_checkpoints(self, utm):
        cfg = initial_config(utm)

        def window(c):
            return "".join(c.symbols.get(p, utm.default_symbol) for p in range(0, 23))

        for _ in range(94):
            cfg = tm_step(utm, cfg)
        assert window(cfg) == UTM_WINDOW_AFTER_94
        cfg = tm_step(utm, cfg)
        assert window(cfg) == UTM_WINDOW_AFTER_95
        assert cfg.head == UTM_HEAD_AFTER_95
        masked = "".join(
            "|" if p == cfg.head else cfg.symbols.get(p, utm.default_symbol)
            for p in range(0, 23)
        )
        assert masked == UTM_WINDOW_95_HEAD_MASKED

    def test_step_limit(self, utm):
        r = tm_run(utm, max_steps=10)
        assert r.outcome is Outcome.STEP_LIMIT
        assert r.steps == 10

    @pytest.mark.parametrize("budget", [0, -3])
    def test_bad_budget_rejected(self, adder, budget):
        with pytest.raises(ValueError, match="max_steps must be at least 1"):
            tm_run(adder, max_steps=budget)

    def test_stuck_halt_leaves_no_state(self):
        # no rule for q1 on the default 1 at head 2: tm_run reports the stuck
        # halt as a halt rule would, with no state, while run's final tape
        # keeps q1 in its slot; bisimulate compares before the stuck probe
        spec = parse_machine_spec(
            "symbols: 0 1\nstates: q1\nrule: q1 0 1 R q1\n"
            "default: 1\ninitial: q1\ntape: 00\nhead: 0\n"
        )
        codec = build_codec(spec)
        r = tm_run(spec)
        assert (r.steps, r.outcome, r.config.state, r.config.head) == (
            2, Outcome.HALTED, None, 2)
        final, _, outcome = run(new_sim(spec, codec))
        decoded = decode_tape(final.tape, codec)
        assert (final.step_count, outcome, decoded.state, decoded.head_abs) == (
            2, Outcome.HALTED, "q1", 2)
        assert bisimulate(spec, codec) == BisimVerdict(True, 2, Outcome.HALTED)


def _one_cell_machine(rule: str) -> str:
    return (
        f"symbols: 0 1\nstates: q1\nrule: {rule}\n"
        "default: 0\ninitial: q1\ntape: 0\nhead: 0\n"
    )


# (spec rule, rule the mechanical side runs instead or None for no tRNA,
# mechanical halted, classical halted) on the one-cell tape 0
HALT_MISMATCH_CASES = {
    # the classical halt rule rewrites the 0 under the head; nothing fires mechanically
    "mechanical-stuck": ("q1 0 0 H -", None, "True", "False"),
    # the mechanical side halts by rule where the classical table is stuck
    "classical-stuck": ("q1 1 1 H -", "q1 0 0 H -", "False", "True"),
}


class TestBisimulate:
    @pytest.mark.parametrize("name", ["incrementer", "unary_adder", "utm55"])
    @pytest.mark.parametrize("mode", [CompileMode.DUAL, CompileMode.INFERRED])
    def test_corpus_passes(self, corpus, name, mode):
        verdict = bisimulate(corpus[name], corpus_codec(name), mode)
        assert verdict.passed, verdict.divergence
        assert verdict.outcome is Outcome.HALTED

    def test_adder_lockstep_count(self, adder, adder_codec):
        verdict = bisimulate(adder, adder_codec, CompileMode.INFERRED)
        assert verdict.passed
        assert verdict.steps == 6

    def test_injected_fault_detected(self, adder, adder_codec):
        # flip rule 4's direction on the mechanical side only
        flipped = Rule("q2", "0", "1", Move.RIGHT, "q3")
        spec_flipped = MachineSpec(
            symbols=adder.symbols,
            states=adder.states,
            rules=adder.rules[:3] + (flipped,) + adder.rules[4:],
            default_symbol=adder.default_symbol,
            initial_state=adder.initial_state,
            tape=adder.tape,
            head=adder.head,
        )
        trnas = compile_ruleset(spec_flipped, adder_codec, CompileMode.DUAL)
        verdict = bisimulate(adder, adder_codec, CompileMode.DUAL, trnas=trnas)
        assert not verdict.passed
        assert verdict.divergence.step == 4
        assert verdict.divergence.kind in ("state", "head", "symbols", "halting")

    def test_joint_step_limit_passes(self, utm, utm_codec):
        verdict = bisimulate(utm, utm_codec, max_steps=20)
        assert verdict.passed
        assert verdict.outcome is Outcome.STEP_LIMIT
        assert verdict.steps == 20

    def test_stuck_machines_halt_together(self):
        spec = MachineSpec(
            symbols=("a", "b"),
            states=("q1",),
            rules=(Rule("q1", "a", "b", Move.RIGHT, "q1"),),
            default_symbol="a",
            initial_state="q1",
            tape=("a", "b"),
            head=0,
        )
        verdict = bisimulate(spec, build_codec(spec))
        assert verdict.passed
        assert verdict.outcome is Outcome.HALTED
        assert verdict.steps == 1  # one move, then stuck on 'b'


    def test_divergence_reports_no_outcome(self):
        spec = parse_machine_spec(ONE_RULE_WALKER)
        codec = build_codec(spec)
        verdict = bisimulate(spec, codec, trnas=corrupt_first_write(spec, codec))
        assert not verdict.passed
        assert verdict.outcome is None
        assert verdict.divergence.kind == "symbols"

    @pytest.mark.parametrize("case", sorted(HALT_MISMATCH_CASES))
    def test_both_sides_fire_or_both_halt(self, case):
        rule, injected, mechanical, classical = HALT_MISMATCH_CASES[case]
        spec = parse_machine_spec(_one_cell_machine(rule))
        codec = build_codec(spec)
        trnas = []
        if injected is not None:
            trnas = compile_ruleset(parse_machine_spec(_one_cell_machine(injected)), codec)
        verdict = bisimulate(spec, codec, trnas=trnas)
        assert (verdict.passed, verdict.outcome) == (False, None)
        d = verdict.divergence
        assert (d.kind, d.step) == ("halting", 0)
        assert (d.mechanical, d.classical) == (mechanical, classical)

    @pytest.mark.parametrize("budget", [0, -3])
    def test_bad_budget_rejected(self, adder, adder_codec, budget):
        with pytest.raises(ValueError):
            bisimulate(adder, adder_codec, max_steps=budget)


BUDGET_CASES = {
    # q2 has no rule: the machine is stuck exactly at the budget
    "stuck-at-budget": ("states: q1 q2\nrule: q1 0 1 R q2\ntape: 00\n", Outcome.HALTED),
    "halt-rule-at-budget": ("states: q1\nrule: q1 0 1 H -\ntape: 00\n", Outcome.HALTED),
    "step-limit": ("states: q1\nrule: q1 0 1 R q1\ntape: 00\n", Outcome.STEP_LIMIT),
}


class TestBudgetRule:
    """run, tm_run, bisimulate and the CLI agree on what happens at the budget."""

    @pytest.mark.parametrize("case", sorted(BUDGET_CASES))
    def test_one_step_budget(self, case, tmp_path, capsys):
        body, expected = BUDGET_CASES[case]
        text = f"symbols: 0 1\n{body}default: 0\ninitial: q1\nhead: 0\n"
        spec = parse_machine_spec(text)
        codec = build_codec(spec)

        final, _, outcome = run(new_sim(spec, codec), max_steps=1)
        assert (outcome, final.step_count) == (expected, 1)
        classical = tm_run(spec, max_steps=1)
        assert (classical.outcome, classical.steps) == (expected, 1)
        verdict = bisimulate(spec, codec, max_steps=1)
        assert verdict.passed, verdict.divergence
        assert (verdict.outcome, verdict.steps) == (expected, 1)

        path = tmp_path / "machine.spec"
        path.write_text(text, encoding="utf-8")
        code = main(["run", str(path), "--max-steps", "1"])
        out = capsys.readouterr().out.splitlines()
        assert code == (0 if expected is Outcome.HALTED else 3)
        assert f"outcome: {expected.value}" in out and "steps: 1" in out


class TestFuzz:
    def test_random_total_machines(self):
        rng = random.Random(2024)
        for _ in range(40):
            spec = random_total_machine(rng)
            if validate(spec):
                continue
            verdict = bisimulate(spec, build_codec(spec), max_steps=500)
            assert verdict.passed, (spec, verdict.divergence)

    def test_random_partial_machines(self):
        rng = random.Random(77)
        for _ in range(40):
            spec = random_partial_machine(rng)
            if validate(spec):
                continue
            verdict = bisimulate(spec, build_codec(spec), max_steps=500)
            assert verdict.passed, (spec, verdict.divergence)

    def test_wide_alphabets_with_overridden_codecs(self):
        rng = random.Random(5150)
        for _ in range(20):
            spec = random_total_machine(
                rng, max_states=10, max_symbols=6, min_states=7, min_symbols=4
            )
            assert validate(spec) == []
            overrides = CodecOverrides(
                symbols=dict(zip(spec.symbols, rng.sample(enumerate_balanced(4), 6))),
                states=dict(zip(spec.states, rng.sample(enumerate_balanced(5), 10))),
            )
            codec = build_codec(spec, overrides)
            assert (codec.state_len, codec.symbol_len) == (5, 4)
            for mode in (CompileMode.DUAL, CompileMode.INFERRED):
                verdict = bisimulate(spec, codec, mode, max_steps=500)
                assert verdict.passed, (spec, overrides, mode, verdict.divergence)

    def test_utm55_on_seeded_random_tapes(self, utm, utm_codec):
        """utm55 from 12 seeded tapes of 5-40 cells over its five symbols, each
        with a random head: in both modes bisimulate passes with tm_run's steps
        and outcome, and the runs fire twice the (rule, side) pairs of the
        bundled input."""
        def fired(spec, mode):
            _, trace, _ = run(new_sim(spec, utm_codec, mode), 1_000)
            return {(e.rule_id, e.side) for e in trace}

        rng = random.Random(5555)
        outcomes, seen = set(), set()
        for _ in range(12):
            cells = rng.randint(5, 40)
            tape = tuple(rng.choice(utm.symbols) for _ in range(cells))
            spec = dataclasses.replace(utm, tape=tape, head=rng.randrange(cells))
            ref = tm_run(spec, 1_000)
            outcomes.add(ref.outcome)
            for mode in CompileMode:
                verdict = bisimulate(spec, utm_codec, mode, 1_000)
                assert (verdict.passed, verdict.steps, verdict.outcome) == (
                    True, ref.steps, ref.outcome), (tape, spec.head, mode, verdict)
                seen |= fired(spec, mode)
        assert outcomes == {Outcome.HALTED, Outcome.STEP_LIMIT}
        assert len(seen) >= 2 * len(fired(utm, CompileMode.DUAL))


# The classical reference as it stood before its rules became a table of what
# each one does and before tm_run read its extent at the end: it tracks the
# extent on every step and decides each rule's move as it fires.


def reference_rule_table(spec):
    return {(r.state, r.read_symbol): r for r in spec.rules}


def reference_classical_step(table, default_symbol, cfg, probe=False):
    head = cfg.head
    symbol = cfg.symbols.get(head)
    if symbol is None:
        base = cfg.base
        symbol = base[head] if 0 <= head < len(base) else default_symbol
    rule = table.get((cfg.state, symbol))
    if rule is None:
        cfg.state = None
        return False
    if probe:
        return True
    cfg.symbols[head] = rule.write_symbol
    if rule.move is Move.HALT:
        cfg.state = None
    else:
        cfg.head = head + 1 if rule.move is Move.RIGHT else head - 1
        cfg.state = rule.next_state
    return True


def reference_tm_run(spec, max_steps):
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    table = reference_rule_table(spec)
    cfg = ClassicalConfig(dict(enumerate(spec.tape)), spec.initial_state, spec.head)
    lo = min(0, cfg.head)
    hi = max(len(spec.tape) - 1, cfg.head)
    steps = 0
    while cfg.state is not None and steps < max_steps:
        if reference_classical_step(table, spec.default_symbol, cfg):
            steps += 1
            lo, hi = min(lo, cfg.head), max(hi, cfg.head)
    if cfg.state is not None:
        reference_classical_step(table, spec.default_symbol, cfg, probe=True)
    outcome = Outcome.HALTED if cfg.state is None else Outcome.STEP_LIMIT
    return TmRunResult(config=cfg, steps=steps, outcome=outcome, min_pos=lo, max_pos=hi)


def _result(run_fn, spec, budget):
    """The whole result with its cells' insertion order, or the exception's
    type and message."""
    try:
        r = run_fn(spec, budget)
    except Exception as e:
        return type(e), str(e)
    return r, list(r.config.symbols)


_WALK = (Rule("a", "0", "1", Move.RIGHT, "b"), Rule("b", "0", "1", Move.LEFT, "a"),
         Rule("a", "1", "0", Move.LEFT, "b"), Rule("b", "1", "1", Move.HALT, None))
_HAND = MachineSpec(symbols=("0", "1"), states=("a", "b"), rules=_WALK, default_symbol="0",
                    initial_state="a", tape=("1", "0"), head=1)

# specs the parser rejects, built by hand
HAND_BUILT = {
    "empty-tape": dataclasses.replace(_HAND, tape=(), head=0),
    # the reference's extent still reaches cell -1, the end of the empty tape
    "empty-tape-head-left": dataclasses.replace(
        _HAND, tape=(), head=-3, rules=(Rule("a", "0", "0", Move.LEFT, "a"),)),
    "head-right-of-the-tape": dataclasses.replace(_HAND, head=5),
    "head-left-of-the-tape": dataclasses.replace(_HAND, head=-3),
    "halt-rule-names-a-state": dataclasses.replace(
        _HAND, rules=(Rule("a", "0", "0", Move.HALT, "a"),)),
    "right-move-names-no-state": dataclasses.replace(
        _HAND, rules=(Rule("a", "0", "1", Move.RIGHT, None),)),
    "left-move-names-no-state": dataclasses.replace(
        _HAND, rules=(Rule("a", "0", "1", Move.LEFT, None),)),
}

# where tm_run departs from the reference: an empty tape has no cells 0 or -1
# to count as touched, so the extent is the head's walk alone, -3 leftwards
EMPTY_TAPE_EXTENT = {("empty-tape-head-left", 1): (-4, -3), ("empty-tape-head-left", 3): (-6, -3)}

GOLDEN = Path(__file__).resolve().parent / "golden"


class TestReferenceDifferential:
    """``tm_run`` returns what the reference above returns: the whole
    ``TmRunResult``, cell order included, or the same exception. The one
    departure is the extent on an empty tape (``EMPTY_TAPE_EXTENT``)."""

    @pytest.mark.parametrize("draw", [random_total_machine, random_partial_machine])
    def test_seeded_machines(self, draw):
        rng = random.Random(2121)
        for _ in range(150):
            spec = draw(rng)
            for budget in (1, 2, 3, 10, 50, 500):
                assert _result(tm_run, spec, budget) == _result(reference_tm_run, spec, budget), (
                    spec, budget)

    @pytest.mark.parametrize("budget", [0, 1, 3])
    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_hand_built_specs(self, name, budget):
        spec = HAND_BUILT[name]
        assert validate(spec)
        got, want = _result(tm_run, spec, budget), _result(reference_tm_run, spec, budget)
        extent = EMPTY_TAPE_EXTENT.get((name, budget))
        if extent is not None:
            assert (got[0].min_pos, got[0].max_pos) == extent
            want[0].min_pos, want[0].max_pos = extent
        assert got == want

    @pytest.mark.parametrize("name, budget", [("bb4", 1_000), ("bb5", 20_000)])
    def test_champions(self, name, budget):
        spec = parse_machine_spec((GOLDEN / f"{name}.spec").read_text(encoding="utf-8"))
        assert _result(tm_run, spec, budget) == _result(reference_tm_run, spec, budget)
