"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).
"""

import random
from contextlib import contextmanager
from pathlib import Path

from codonmachine import (
    Arrival,
    CompileMode,
    Outcome,
    bisimulate,
    build_codec,
    builtin_corpus,
    capacity,
    compile_ruleset,
    corpus_codec,
    decode_tape,
    encode_tape,
    enumerate_balanced,
    fsm_oracle,
    fsm_run,
    initial_config,
    match_window,
    new_sim,
    parse_codec_overrides,
    read_form,
    render_trna_listing,
    run,
    step,
    tm_run,
    tm_step,
    validate,
)
from codonmachine.corpus import UTM55_CODEC_TEXT

from conftest import (
    ADDER_TRACE_LINES,
    INCREMENTER_FINAL_TAPE,
    INCREMENTER_STEPS,
    UTM_HALT_STEPS,
    UTM_HEAD_AFTER_95,
    UTM_WINDOW_95_HEAD_MASKED,
    UTM_WINDOW_AFTER_94,
    UTM_WINDOW_AFTER_95,
    random_partial_machine,
    random_total_machine,
)

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:>2} {name}: PASS")


def golden_listing(filename):
    """The tRNA listing portion of a compile golden file (after the tape line)."""
    text = (GOLDEN / filename).read_text(encoding="utf-8")
    return text.split("\n\n", 1)[1].rstrip("\n")


def test_01_capacity_table():
    with criterion(1, "balanced codon capacity for lengths 1..6"):
        assert [capacity(n) for n in range(1, 7)] == [1, 2, 3, 6, 10, 20]


def test_02_codec_golden_values():
    with criterion(2, "codec assignments match their golden values"):
        corpus = builtin_corpus()
        adder_codec = build_codec(corpus["unary_adder"])
        assert adder_codec.symbol_write == {"0": "01", "1": "10"}
        assert adder_codec.state_write == {"q1": "001", "q2": "010", "q3": "100"}
        assert adder_codec.halt_state == "111"
        utm_codec = build_codec(
            corpus["utm55"], parse_codec_overrides(UTM55_CODEC_TEXT)
        )
        assert utm_codec.symbol_write == {
            "g": "000111",
            "b": "001011",
            "δ": "010011",
            "c": "100011",
            "d": "001110",
        }
        assert utm_codec.state_write == {
            "q1": "000111",
            "q2": "001011",
            "q3": "010011",
            "q4": "100011",
            "q5": "001110",
        }
        assert utm_codec.halt_state == "111111"


def test_03_unary_adder_compilation():
    with criterion(3, "inferred-mode adder compile matches the golden listing"):
        corpus = builtin_corpus()
        spec = corpus["unary_adder"]
        trnas = compile_ruleset(spec, build_codec(spec), CompileMode.INFERRED)
        assert len(trnas) == 6
        assert render_trna_listing(trnas) == golden_listing("unary_adder_compile.txt")


def test_04_unary_adder_execution():
    with criterion(4, "adder halts in 6 steps through the exact tape sequence"):
        corpus = builtin_corpus()
        spec = corpus["unary_adder"]
        codec = build_codec(spec)
        sim = new_sim(spec, codec, CompileMode.INFERRED)
        lines = [sim.tape.render()]
        while not sim.halted:
            sim, event = step(sim)
            if event:
                lines.append(sim.tape.render())
        assert sim.step_count == 6
        assert lines == ADDER_TRACE_LINES
        decoded = decode_tape(sim.tape, codec)
        assert "".join(decoded.symbols) == "001110"
        assert decoded.state is None
        assert all(s == codec.halt_state for s in sim.tape.state_slots)


def test_05_utm_compilation():
    with criterion(5, "dual-mode utm55 compile matches the golden listing"):
        spec = builtin_corpus()["utm55"]
        trnas = compile_ruleset(spec, corpus_codec("utm55"), CompileMode.DUAL)
        assert len(trnas) == 25
        assert sum(len(t.reads) for t in trnas) == 50
        assert render_trna_listing(trnas) == golden_listing("utm55_compile.txt")


def test_06_utm_emulation():
    with criterion(6, "utm55 bisimulation with joint halt in [80, 100] steps"):
        spec = builtin_corpus()["utm55"]
        codec = corpus_codec("utm55")
        verdict = bisimulate(spec, codec, CompileMode.DUAL)
        assert verdict.passed, verdict.divergence
        assert verdict.outcome is Outcome.HALTED
        classical = tm_run(spec)
        assert classical.outcome is Outcome.HALTED
        assert verdict.steps == classical.steps == UTM_HALT_STEPS
        assert 80 <= verdict.steps <= 100
        # the documented trace checkpoints appear on the way: the windows
        # after steps 94 and 95, the latter also rendered with the head
        # cell masked by '|'
        cfg = initial_config(spec)
        for _ in range(94):
            cfg = tm_step(spec, cfg)

        def window(c, mask_head=False):
            return "".join(
                "|"
                if mask_head and p == c.head
                else c.symbols.get(p, spec.default_symbol)
                for p in range(0, 23)
            )

        assert window(cfg) == UTM_WINDOW_AFTER_94
        cfg = tm_step(spec, cfg)
        assert window(cfg) == UTM_WINDOW_AFTER_95
        assert cfg.head == UTM_HEAD_AFTER_95
        assert window(cfg, mask_head=True) == UTM_WINDOW_95_HEAD_MASKED


def test_07_comparison_count_claim():
    with criterion(7, "mean stochastic read-row trials per step within [40, 60]"):
        spec = builtin_corpus()["utm55"]
        codec = corpus_codec("utm55")
        total_trials = 0
        total_steps = 0
        for seed in range(1, 11):
            sim = new_sim(spec, codec, CompileMode.DUAL, rng_seed=seed)
            final, trace, outcome = run(sim, arrival=Arrival.STOCHASTIC)
            assert outcome is Outcome.HALTED
            total_trials += final.trial_count
            total_steps += final.step_count
        mean = total_trials / total_steps
        assert 40 <= mean <= 60, mean


def test_08_parity_fsm():
    with criterion(8, "parity FSM matches its oracle on 1000 random strings"):
        spec = builtin_corpus()["parity"]
        codec = build_codec(spec)
        assert fsm_run(spec, "110", codec)[0] == "A"
        rng = random.Random(8)
        for _ in range(1000):
            s = "".join(rng.choice("01") for _ in range(rng.randint(0, 64)))
            assert fsm_run(spec, s, codec)[0] == fsm_oracle(spec, s)


def test_09a_codon_properties():
    with criterion(9, "(a) read-form involution and balance for lengths <= 12"):
        for n in range(1, 13):
            codons = enumerate_balanced(n)
            assert len(codons) == capacity(n)
            for c in codons:
                assert c.count("1") == n // 2
                assert read_form(read_form(c)) == c
            halt = "1" * n
            assert read_form(halt) == "0" * n


def test_09b_09c_run_invariants():
    with criterion(9, "(b,c) unique match and single live slot on corpus runs"):
        corpus = builtin_corpus()
        for name in ("incrementer", "unary_adder", "utm55"):
            spec = corpus[name]
            codec = corpus_codec(name)
            for mode in (CompileMode.DUAL, CompileMode.INFERRED):
                sim = new_sim(spec, codec, mode)
                while not sim.halted:
                    window = sim.tape.window_triple()
                    matches = [
                        t.rule_id
                        for t in sim.trnas
                        if match_window(t, window) is not None
                    ]
                    assert len(matches) <= 1, (name, mode, matches)
                    sim, event = step(sim)
                    live = [
                        s for s in sim.tape.state_slots if s != codec.halt_state
                    ]
                    assert len(live) <= 1, (name, mode)
                    if event is None:
                        assert not matches
                    else:
                        assert matches == [event.rule_id]


def test_09d_roundtrip_identity():
    with criterion(9, "(d) encode/decode round-trip on 200 random machines"):
        rng = random.Random(94)
        checked = 0
        while checked < 200:
            spec = random_partial_machine(rng)
            if validate(spec):
                continue
            codec = build_codec(spec)
            decoded = decode_tape(encode_tape(spec, codec), codec)
            assert decoded.symbols == spec.tape
            assert decoded.state == spec.initial_state
            assert decoded.head == spec.head
            checked += 1


def test_09e_fuzz_bisimulation():
    with criterion(9, "(e) dual bisimulation on 100 random deterministic machines"):
        rng = random.Random(95)
        checked = 0
        while checked < 100:
            spec = random_total_machine(rng)
            if validate(spec):
                continue
            verdict = bisimulate(spec, build_codec(spec), max_steps=500)
            assert verdict.passed, (spec, verdict.divergence)
            checked += 1


def test_10_incrementer():
    with criterion(10, "incrementer bisimulates and hits its frozen final tape"):
        spec = builtin_corpus()["incrementer"]
        verdict = bisimulate(spec, build_codec(spec))
        assert verdict.passed, verdict.divergence
        assert verdict.outcome is Outcome.HALTED
        result = tm_run(spec)
        assert result.steps == INCREMENTER_STEPS
        assert result.tape_string(spec) == INCREMENTER_FINAL_TAPE
