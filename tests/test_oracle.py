import dataclasses
import random

import pytest

from codonmachine import (
    CodecOverrides,
    CompileMode,
    MachineSpec,
    Move,
    Outcome,
    Rule,
    RunOutcome,
    bisimulate,
    build_codec,
    compile_ruleset,
    corpus_codec,
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


class TestTmRun:
    def test_adder(self, adder):
        r = tm_run(adder)
        assert r.outcome is RunOutcome.HALTED
        assert r.steps == 6
        assert r.tape_string(adder, 0, 5) == "001110"

    def test_incrementer_frozen_golden(self, corpus):
        inc = corpus["incrementer"]
        r = tm_run(inc)
        assert r.outcome is RunOutcome.HALTED
        assert r.steps == INCREMENTER_STEPS
        assert r.tape_string(inc) == INCREMENTER_FINAL_TAPE
        assert r.config.head == INCREMENTER_FINAL_HEAD

    def test_utm_endpoints(self, utm):
        r = tm_run(utm)
        assert r.outcome is RunOutcome.HALTED
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
        assert r.outcome is RunOutcome.STEP_LIMIT
        assert r.steps == 10


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
        assert verdict.outcome is RunOutcome.HALTED

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
        assert verdict.outcome is RunOutcome.STEP_LIMIT
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
        assert verdict.outcome is RunOutcome.HALTED
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
