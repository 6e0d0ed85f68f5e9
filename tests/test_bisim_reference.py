"""bisimulate's local checks against a full-compare reference checker.

``reference_bisimulate`` decodes and compares the whole mechanical tape before
every step, as bisimulate did before it checked only what each step wrote.
The two must reach the same verdict on seeded machines under seeded
corruptions of one tRNA, except where the reference cannot decode a tape or
misreads a live slot that has left the window.
"""

import dataclasses
import random
from pathlib import Path

import pytest

from codonmachine import (
    CodecOverrides,
    CompileMode,
    MachineSpec,
    Outcome,
    bisimulate,
    build_codec,
    compile_ruleset,
    corpus_codec,
    enumerate_balanced,
    parse_machine_spec,
    tm_run,
    validate,
)
from codonmachine import oracle
from codonmachine import sim as sim_module
from codonmachine.oracle import (
    BisimVerdict,
    ClassicalConfig,
    Divergence,
    _classical_step,
    _compare,
    _divergence,
    _rule_table,
    _written_divergence,
    initial_config,
)
from codonmachine.sim import Arrival, iter_run, new_sim, run
from codonmachine.tape import EncodedTape, TapeError, decode_tape

from conftest import ONE_RULE_WALKER, random_partial_machine, random_total_machine

BOUNCE = Path(__file__).resolve().parent / "golden" / "cli" / "bounce.spec"


def reference_bisimulate(spec, codec, mode, max_steps, trnas):
    """Decode and compare before every step, then check that both sides fire
    or both halt. A tape that does not decode is reported as the string
    ``"undecodable at step k"``."""
    sim = new_sim(spec, codec, mode, trnas=trnas)
    table = _rule_table(spec)
    cfg = initial_config(spec)
    steps = 0
    for after, event in iter_run(sim, Arrival.DETERMINISTIC, max_steps):
        try:
            divergence = _divergence(spec, steps, decode_tape(sim.tape, codec), cfg)
        except TapeError:
            return f"undecodable at step {steps}"
        fired = _classical_step(table, spec.default_symbol, cfg)
        if divergence is None and fired != (event is not None):
            divergence = Divergence(steps, "halting", str(event is None), str(not fired))
        if divergence:
            return BisimVerdict(False, steps, None, divergence)
        sim = after
        steps += event is not None
    if not sim.halted:
        _classical_step(table, spec.default_symbol, cfg, probe=True)
        try:
            divergence = _divergence(spec, steps, decode_tape(sim.tape, codec), cfg)
        except TapeError:
            return f"undecodable at step {steps}"
        if divergence:
            return BisimVerdict(False, steps, None, divergence)
    return BisimVerdict(True, steps, Outcome.HALTED if sim.halted else Outcome.STEP_LIMIT)


def _corrupt(rng, codec, trnas):
    """Replace one written slot or cell of one tRNA by a valid, halt or random
    codon, flip its hole, or both."""
    i = rng.randrange(len(trnas))
    t = trnas[i]
    what = rng.choice(["field", "hole", "both"])
    write = list(t.write)
    if what != "hole":
        j = rng.randrange(3)
        n, named = (
            (codec.symbol_len, codec.symbol_write)
            if j == 1
            else (codec.state_len, codec.state_write)
        )
        kind = rng.choice(["valid", "halt", "random"])
        if kind == "valid":
            write[j] = rng.choice(sorted(named.values()))
        elif kind == "halt":
            write[j] = "1" * n
        else:
            write[j] = "".join(rng.choice("01") for _ in range(n))
    hole = t.hole != (what != "field")
    bad = dataclasses.replace(t, write=tuple(write), hole=hole)
    return [*trnas[:i], bad, *trnas[i + 1 :]]


def _category(new, ref):
    if new == ref:
        return "identical"
    d = new.divergence
    if isinstance(ref, str) and d is not None and ref == f"undecodable at step {d.step}":
        return "undecodable"
    off_window = d is not None and d.kind == "head" and d.mechanical.startswith("slot ")
    if off_window and isinstance(ref, BisimVerdict):
        if ref.passed and ref.steps == d.step:
            return "off-window"
        if not ref.passed and ref.divergence.step == d.step:
            return "off-window"
    return None


def test_same_verdicts_as_the_full_compare_reference():
    rng = random.Random(6006)
    counts = {"identical": 0, "undecodable": 0, "off-window": 0}
    cases = 0
    while cases < 500:
        make = random_total_machine if cases % 2 else random_partial_machine
        spec = make(rng)
        if validate(spec):
            continue
        codec = build_codec(spec)
        mode = rng.choice([CompileMode.DUAL, CompileMode.INFERRED])
        budget = rng.choice([1, 3, 10, 50, 500])
        trnas = compile_ruleset(spec, codec, mode)
        if not trnas:
            continue
        trnas = _corrupt(rng, codec, trnas)
        cases += 1
        ref = reference_bisimulate(spec, codec, mode, budget, trnas)
        new = bisimulate(spec, codec, mode, budget, trnas=trnas)
        category = _category(new, ref)
        assert category, (spec, mode, budget, trnas, new, ref)
        counts[category] += 1
    assert all(counts.values()), counts


def _overridden_codec(rng, spec):
    """Every name on a random balanced codon, at the least lengths or wider."""
    least = build_codec(spec)
    symbol_len = least.symbol_len + rng.choice([0, 2])
    state_len = least.state_len + rng.choice([0, 1, 2])
    symbols = rng.sample(enumerate_balanced(symbol_len), len(spec.symbols))
    states = rng.sample(enumerate_balanced(state_len), len(spec.states))
    return build_codec(spec, CodecOverrides(
        symbol_len=symbol_len,
        state_len=state_len,
        symbols=dict(zip(spec.symbols, symbols)),
        states=dict(zip(spec.states, states)),
    ))


def test_same_verdicts_on_overridden_and_widened_codecs():
    rng = random.Random(7117)
    counts = {"identical": 0, "undecodable": 0, "off-window": 0}
    cases = 0
    while cases < 300:
        make = random_total_machine if cases % 2 else random_partial_machine
        spec = make(rng)
        if validate(spec):
            continue
        codec = _overridden_codec(rng, spec)
        mode = rng.choice([CompileMode.DUAL, CompileMode.INFERRED])
        budget = rng.choice([1, 3, 10, 50, 500])
        trnas = compile_ruleset(spec, codec, mode)
        if not trnas:
            continue
        trnas = _corrupt(rng, codec, trnas)
        cases += 1
        ref = reference_bisimulate(spec, codec, mode, budget, trnas)
        new = bisimulate(spec, codec, mode, budget, trnas=trnas)
        category = _category(new, ref)
        assert category, (spec, codec, mode, budget, trnas, new, ref)
        counts[category] += 1
    assert all(counts.values()), counts


@pytest.mark.parametrize("mode", list(CompileMode))
@pytest.mark.parametrize("budget", [1, 3])
def test_tracked_extent_with_the_head_on_a_grown_cell(mode, budget):
    """bounce.spec grows the tape right, then left. At these budgets the head
    sits on a grown cell no step has written, which a tracked classical extent
    had to widen to; the compare over the strand holds that cell already."""
    spec = parse_machine_spec(BOUNCE.read_text(encoding="utf-8"))
    codec = build_codec(spec)
    ref = tm_run(spec, budget)
    assert ref.config.head not in ref.config.symbols
    verdict = bisimulate(spec, codec, mode, budget)
    assert verdict == reference_bisimulate(spec, codec, mode, budget, None)
    assert (verdict.passed, verdict.steps) == (True, budget)


def test_classical_tape_lies_on_the_strand_at_every_whole_tape_compare(corpus, monkeypatch):
    """The whole-tape compare covers the mechanical strand alone. That is
    sound only if every position of the classical tape lies on the strand,
    so both bisimulate's compare and the reference's assert it on the bundled
    machines, the seeded fuzz sweeps and the corrupted-compile sweep."""
    calls, compare = {"bisimulate": 0, "reference": 0}, _divergence

    def on_the_strand(caller):
        def checked(spec, step, decoded, cfg):
            strand = range(decoded.origin, decoded.origin + len(decoded.symbols))
            assert all(p in strand for p in cfg.symbols), (step, decoded, cfg)
            calls[caller] += 1
            return compare(spec, step, decoded, cfg)

        return checked

    monkeypatch.setattr(oracle, "_divergence", on_the_strand("bisimulate"))
    monkeypatch.setitem(globals(), "_divergence", on_the_strand("reference"))
    for name, spec in corpus.items():
        if isinstance(spec, MachineSpec):
            for mode in CompileMode:
                assert bisimulate(spec, corpus_codec(name), mode).passed, (name, mode)
    for seed, make in ((2024, random_total_machine), (77, random_partial_machine)):
        rng = random.Random(seed)
        for _ in range(40):
            spec = make(rng)
            if not validate(spec):
                assert bisimulate(spec, build_codec(spec), max_steps=500).passed, spec
    test_same_verdicts_as_the_full_compare_reference()
    assert all(calls.values()), calls


def test_classical_probe_at_the_budget_comes_first():
    # the corrupted step parks the mechanical side in q2, which fires on the
    # 1 where the classical q1 is stuck: at a budget of 1 that is a halting
    # divergence, as the reference finds, not a state one
    spec = parse_machine_spec(
        "symbols: 0 1\nstates: q1 q2\nrule: q1 0 1 R q1\nrule: q2 1 1 R q2\n"
        "default: 0\ninitial: q1\ntape: 01\nhead: 0\n"
    )
    codec = build_codec(spec)
    trnas = compile_ruleset(spec, codec)
    slot, cell, _ = trnas[0].write
    trnas[0] = dataclasses.replace(trnas[0], write=(slot, cell, codec.state_write["q2"]))
    verdict = bisimulate(spec, codec, max_steps=1, trnas=trnas)
    assert verdict == reference_bisimulate(spec, codec, CompileMode.DUAL, 1, trnas)
    assert verdict.divergence == Divergence(1, "halting", "False", "True")


def test_whole_tape_decoded_only_at_the_ends(corpus, monkeypatch):
    """A passing run decodes one whole tape, the final one: the base case
    passes on codons, and every step between on what it wrote."""
    calls = []

    def counting_decode(tape, codec):
        calls.append(tape)
        return decode_tape(tape, codec)

    monkeypatch.setattr(oracle, "decode_tape", counting_decode)
    verdict = bisimulate(corpus["utm55"], corpus_codec("utm55"))
    assert (verdict.passed, verdict.steps) == (True, 98)
    final, _, _ = run(new_sim(corpus["utm55"], corpus_codec("utm55")))
    assert calls == [final.tape]


def test_steps_that_agree_are_not_reported(corpus, monkeypatch):
    """Only the whole-tape compare at the end and the halting step, where no
    state flanks the window, reach the ordered report; the base case and
    every other step pass on their codons alone."""
    calls = []

    def counting_compare(spec, step, *args):
        calls.append(step)
        return _compare(spec, step, *args)

    monkeypatch.setattr(oracle, "_compare", counting_compare)
    verdict = bisimulate(corpus["utm55"], corpus_codec("utm55"))
    assert (verdict.passed, verdict.steps) == (True, 98)
    assert calls == [98, 98]


def _other(named, name):
    """A codon of ``named`` other than ``name``'s."""
    return next(bits for other, bits in named.items() if other != name)


TAMPERS = [
    "wrong cell codon", "unnamed cell codon", "slot on the far side",
    "slot at another cell", "window at another cell", "another state",
    "two live slots", "no live slot", "origin -1", "origin 1",
]


def _tampered(tamper, spec, codec, clean):
    """The freshly encoded strand ``clean`` with one thing changed."""
    fields, window, origin = list(clean.fields), clean.window, 0
    live, halt = fields[2 * window], codec.halt_state
    other = (window + 2) % 3  # a cell whose left slot does not flank the window
    if tamper == "wrong cell codon":
        fields[2 * window + 1] = _other(codec.symbol_write, spec.tape[window])
    elif tamper == "unnamed cell codon":
        fields[3] = "0" * codec.symbol_len
    elif tamper == "slot on the far side":
        fields[2 * window], fields[2 * window + 2] = halt, live
    elif tamper in ("slot at another cell", "window at another cell"):
        fields[2 * window], fields[2 * other] = halt, live
        window = other if tamper == "window at another cell" else window
    elif tamper == "another state":
        fields[2 * window] = _other(codec.state_write, spec.initial_state)
    elif tamper == "two live slots":
        fields[2 * other] = live
    elif tamper == "no live slot":
        fields[2 * window] = halt
    else:
        origin = int(tamper.removeprefix("origin "))
    return EncodedTape(tuple(fields), window, origin)


def _outcome(check):
    try:
        return check()
    except TapeError as e:
        return f"TapeError: {e}"


@pytest.mark.parametrize("name", ["unary_adder", "incrementer", "utm55"])
@pytest.mark.parametrize("tamper", TAMPERS)
def test_base_case_falls_back_to_the_whole_tape_compare(corpus, monkeypatch, name, tamper):
    """A strand that is not the initial configuration's codons gets the
    verdict, or the ``TapeError``, of the decode and whole-tape compare."""
    spec, codec = corpus[name], corpus_codec(name)
    clean = sim_module.encode_tape(spec, codec)
    tape = _tampered(tamper, spec, codec, clean)
    assert tape != clean
    cfg = initial_config(spec)
    expected = _outcome(lambda: _divergence(spec, 0, decode_tape(tape, codec), cfg))
    assert _outcome(lambda: oracle._initial_divergence(spec, codec, tape, cfg)) == expected

    monkeypatch.setattr(sim_module, "encode_tape", lambda spec, codec: tape)
    for mode in CompileMode:
        ref = reference_bisimulate(spec, codec, mode, 500, None)
        verdict = _outcome(lambda: bisimulate(spec, codec, mode, 500))
        if isinstance(ref, str):
            assert (ref, verdict) == ("undecodable at step 0", expected)
        else:
            assert verdict == ref


def _walker(tape="00"):
    spec = parse_machine_spec(ONE_RULE_WALKER.replace("tape: 00", f"tape: {tape}"))
    codec = build_codec(spec)
    return spec, codec, compile_ruleset(spec, codec)


class TestVerdictChanges:
    """Corrupted compiles the full-compare check passed or crashed on."""

    def test_live_slot_left_behind_is_a_head_divergence(self):
        spec, codec, (trna,) = _walker("01")
        bad = [dataclasses.replace(trna, hole=not trna.hole)]
        verdict = bisimulate(spec, codec, trnas=bad)
        assert (verdict.passed, verdict.outcome) == (False, None)
        assert verdict.divergence == Divergence(1, "head", "slot 1, window -1", "1")

    def test_two_live_slots_are_a_state_divergence(self):
        spec, codec, (trna,) = _walker()
        q1 = codec.state_write["q1"]
        bad = [dataclasses.replace(trna, write=(q1, trna.write[1], q1))]
        verdict = bisimulate(spec, codec, trnas=bad)
        assert verdict.divergence == Divergence(1, "state", "q1,q1", "q1")

    @pytest.mark.parametrize("slot", ["000", "011"])
    def test_unnamed_state_codon_is_reported_raw(self, adder, adder_codec, slot):
        trnas = compile_ruleset(adder, adder_codec)
        first = trnas[0]  # q1 0 0 R q1
        bad = dataclasses.replace(first, write=(*first.write[:2], slot))
        verdict = bisimulate(adder, adder_codec, trnas=[bad, *trnas[1:]])
        assert verdict.divergence == Divergence(1, "state", slot, "q1")

    def test_unnamed_cell_is_reported_raw(self):
        spec, codec, (trna,) = _walker()
        bad = [dataclasses.replace(trna, write=(trna.write[0], "00", trna.write[2]))]
        verdict = bisimulate(spec, codec, trnas=bad)
        assert verdict.divergence == Divergence(1, "symbols", "0:00", "0:1")

    @pytest.mark.parametrize("budget", [1, 2, 3])
    def test_raw_cell_codon_that_spells_the_classical_symbol(self, budget):
        # the codec is {"0": "01", "11": "10"}; the corrupt write leaves the raw
        # codon 11 where the classical side wrote the symbol named 11
        spec = parse_machine_spec(
            "symbols: 0 11\nstates: q1\nrule: q1 0 11 R q1\n"
            "default: 0\ninitial: q1\ntape: 00\nhead: 0\n"
        )
        codec = build_codec(spec)
        (trna,) = compile_ruleset(spec, codec)
        bad = [dataclasses.replace(trna, write=(trna.write[0], "11", trna.write[2]))]
        verdict = bisimulate(spec, codec, max_steps=budget, trnas=bad)
        assert (verdict.passed, verdict.outcome) == (False, None)
        assert verdict.divergence == Divergence(1, "symbols", "0:11", "0:11")

    @pytest.mark.parametrize("budget", [1, 2, 3])
    def test_raw_slot_codon_that_spells_the_classical_state(self, budget):
        # the states are {"q1": "01", "00": "10"}; the corrupt write leaves the
        # raw codon 00 in the live slot where the classical state is named 00
        spec = parse_machine_spec(
            "symbols: 0 1\nstates: q1 00\nrule: q1 0 1 R 00\nrule: 00 0 1 R 00\n"
            "default: 0\ninitial: q1\ntape: 00\nhead: 0\n"
        )
        codec = build_codec(spec)
        first, second = compile_ruleset(spec, codec)
        bad = [dataclasses.replace(first, write=(*first.write[:2], "00")), second]
        verdict = bisimulate(spec, codec, max_steps=budget, trnas=bad)
        assert (verdict.passed, verdict.outcome) == (False, None)
        assert verdict.divergence == Divergence(1, "state", "00", "00")


@pytest.mark.parametrize("window, written", [(0, 1), (1, 0)], ids=["moved-left", "moved-right"])
def test_written_check_names_the_lower_position_first(window, written):
    """With both the written cell and the cell moved onto wrong, the local
    check reports the lower position, as the whole-tape compare would."""
    spec, codec, _ = _walker()
    one, halt, q1 = codec.symbol_write["1"], codec.halt_state, codec.state_write["q1"]
    slots = [halt] * 3
    slots[window + (window < written)] = q1  # flanking the window, away from the write
    tape = EncodedTape((slots[0], one, slots[1], one, slots[2]), window)
    cfg = ClassicalConfig({0: "0", 1: "0"}, "q1", window)
    divergence = _written_divergence(spec, codec, 3, written, tape, cfg)
    assert divergence == Divergence(3, "symbols", "0:1", "0:0")


def test_written_check_reads_the_cell_under_the_window():
    """Everything a correct step leaves, but the cell moved onto is wrong."""
    spec, codec, _ = _walker()
    one, halt, q1 = codec.symbol_write["1"], codec.halt_state, codec.state_write["q1"]
    tape = EncodedTape((halt, one, q1, one, halt), 1)
    cfg = ClassicalConfig({0: "1", 1: "0"}, "q1", 1)
    divergence = _written_divergence(spec, codec, 1, 0, tape, cfg)
    assert divergence == Divergence(1, "symbols", "1:1", "1:0")


@pytest.mark.parametrize("written, window, live", [(0, 2, 1), (3, 1, 3)], ids=["left", "right"])
def test_written_check_needs_the_written_cell_next_to_the_window(written, window, live):
    """The live slot borders the written cell but not the window."""
    spec, codec, _ = _walker("0000")
    zero, halt, q1 = codec.symbol_write["0"], codec.halt_state, codec.state_write["q1"]
    slots = [halt] * 5
    slots[live] = q1
    fields = [zero] * 9
    fields[0::2] = slots
    tape = EncodedTape(tuple(fields), window)
    cfg = ClassicalConfig(dict.fromkeys(range(4), "0"), "q1", window)
    divergence = _written_divergence(spec, codec, 2, written, tape, cfg)
    assert divergence == Divergence(2, "head", f"slot {live}, window {window}", str(window))
