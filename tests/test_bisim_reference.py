"""bisimulate's local checks against a full-compare reference checker.

``reference_bisimulate`` decodes and compares the whole mechanical tape before
every step, as bisimulate did before it checked only what each step wrote.
The two must reach the same verdict on seeded machines under seeded
corruptions of one tRNA, except where the reference cannot decode a tape or
misreads a live slot that has left the window.
"""

import dataclasses
import random
from collections import Counter
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
from codonmachine.tape import DecodedConfig, EncodedTape, TapeError, decode_tape

from conftest import (
    ONE_RULE_WALKER,
    random_partial_machine,
    random_total_machine,
    walker_text,
)

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
    sound only if every position of the classical tape, its writes and its
    ``base``, lies on the strand, so both bisimulate's compare and the
    reference's assert it on the bundled machines, the seeded fuzz sweeps
    and the corrupted-compile sweep."""
    calls, compare = {"bisimulate": 0, "reference": 0}, _divergence

    def on_the_strand(caller):
        def checked(spec, step, decoded, cfg):
            strand = range(decoded.origin, decoded.origin + len(decoded.symbols))
            assert all(p in strand for p in cfg.symbols), (step, decoded, cfg)
            assert all(p in strand for p in range(len(cfg.base))), (step, decoded, cfg)
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


def full_dict_divergence(spec, step, decoded, cfg):
    """The whole-tape compare over a full dict, as bisimulate made it before
    it read the spec's tape as ``base``: every strand position looked up in
    ``cfg.symbols``, the default elsewhere."""
    positions = range(decoded.origin, decoded.origin + len(decoded.symbols))
    classical = tuple(cfg.symbols.get(p, spec.default_symbol) for p in positions)
    cells = () if decoded.symbols == classical else zip(positions, decoded.symbols)
    states = [] if decoded.state is None else [decoded.state]
    return _compare(spec, step, cfg, cells, states, decoded.head_abs)


STRAND_TAMPERS = [
    "none", "origin 1", "origin 2", "left of base", "shorter than base", "wrong cell in base",
    "wrong cell off base", "write off the strand", "another state", "head moved", "halted",
]


def _strand_tamper(rng, tamper, spec, decoded, writes):
    """``decoded`` and the classical ``writes`` with one thing changed."""
    symbols, base_len = list(decoded.symbols), len(spec.tape)
    origin, state, head = decoded.origin, decoded.state, decoded.head
    inside = [i for i in range(len(symbols)) if 0 <= origin + i < base_len]
    outside = [i for i in range(len(symbols)) if not 0 <= origin + i < base_len]
    if tamper.startswith("origin "):
        origin = int(tamper.removeprefix("origin "))
    elif tamper == "left of base":
        origin = -len(symbols) - rng.randrange(3)
    elif tamper == "shorter than base":
        symbols = symbols[: rng.randrange(max(base_len - origin, 1))]
    elif tamper in ("wrong cell in base", "wrong cell off base"):
        at = inside if tamper == "wrong cell in base" else outside
        if not at:
            return None
        i = rng.choice(at)
        symbols[i] = rng.choice([s for s in spec.symbols if s != symbols[i]])
    elif tamper == "write off the strand":
        off = rng.choice([origin - 1, origin + len(symbols)]) + rng.choice([-1, 0, 1])
        writes = {**writes, off: rng.choice(spec.symbols)}
    elif state is None or tamper == "another state" and len(spec.states) == 1:
        return None
    elif tamper == "another state":
        state = rng.choice([s for s in spec.states if s != state])
    elif tamper == "head moved":
        head = (head + 1) % len(symbols)
    else:
        state = head = None
    tampered = DecodedConfig(tuple(symbols), state, head, origin)
    return tampered, writes


def test_strand_compare_matches_the_full_dict_compare(corpus, monkeypatch):
    """``_divergence`` on the overlay (``base`` plus the writes) reaches the
    verdict and ``Divergence`` of the full-dict compare, on strands that
    agree and on tampered ones. A strand that agrees matches its classical
    row at once: no cell reaches the ordered report."""
    reported = []

    def recording_compare(spec, step, cfg, cells, *args):
        cells = list(cells)
        reported.append(cells)
        return _compare(spec, step, cfg, cells, *args)

    monkeypatch.setattr(oracle, "_compare", recording_compare)
    specs = [corpus["utm55"], parse_machine_spec(BOUNCE.read_text(encoding="utf-8"))]
    specs += [parse_machine_spec(walker_text(n, move)) for n in (1, 5) for move in "RL"]
    rng = random.Random(1616)
    seen = set()
    for spec in specs:
        codec, table = build_codec(spec), _rule_table(spec)
        for budget in sorted(rng.sample(range(1, 120), 6)):
            final, _, _ = run(new_sim(spec, codec), budget)
            overlay = ClassicalConfig({}, spec.initial_state, spec.head, base=spec.tape)
            for _ in range(final.step_count):
                _classical_step(table, spec.default_symbol, overlay)
            for tamper in STRAND_TAMPERS:
                tampered = _strand_tamper(rng, tamper, spec, decode_tape(final.tape, codec),
                                          overlay.symbols)
                if tampered is None:
                    continue
                decoded, writes = tampered
                cfg = dataclasses.replace(overlay, symbols=writes)
                full = ClassicalConfig(dict(enumerate(spec.tape)) | writes, cfg.state, cfg.head)
                expected = full_dict_divergence(spec, budget, decoded, full)
                assert _divergence(spec, budget, decoded, cfg) == expected, (
                    spec, budget, tamper, decoded, cfg)
                if expected is None:
                    assert reported[-1] == [], (spec, budget, tamper)
                seen.add((tamper, expected and expected.kind))
    assert {kind for _, kind in seen} == {None, "symbols", "state", "head", "halting"}, seen
    assert {tamper for tamper, _ in seen} == set(STRAND_TAMPERS), seen


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


def reference_initial_divergence(spec, codec, tape, cfg):
    """Test-local reference: the base case as it was when the strand was one
    interleaved tuple, its rows sliced from ``fields`` and the spec's codons
    mapped cell by cell."""
    slots, window = tape.fields[0::2], tape.window
    if (
        tape.origin == 0
        and window == cfg.head
        and slots[window] == codec.state_write.get(cfg.state)
        and len(slots) - slots.count(codec.halt_state) == 1
        and tape.fields[1::2] == tuple(map(codec.symbol_write.get, spec.tape))
    ):
        return None
    return _divergence(spec, 0, decode_tape(tape, codec), cfg)


BASE_TAMPERS = ["none", "cell", "unnamed cell", "live codon", "live slot", "origin",
                "missing symbol"]


def _base_case(rng, spec, codec, tamper):
    """Arguments for the base case: a spec's encoded tape and initial
    configuration, one thing changed as ``tamper`` names. A cell or the live
    codon changes by encoding another spec from its rows (possibly to the
    same symbol or state); a live slot, an unnamed cell and the origin by
    editing the strand's fields; a missing symbol by naming one in the spec
    that the codec lacks. Half the unedited strands are rebuilt from their
    fields."""
    encoded, origin = spec, 0
    if tamper == "cell":
        cells = list(spec.tape)
        cells[rng.randrange(len(cells))] = rng.choice(spec.symbols)
        encoded = dataclasses.replace(spec, tape=tuple(cells))
    elif tamper == "live codon":
        encoded = dataclasses.replace(spec, initial_state=rng.choice(spec.states))
    elif tamper == "missing symbol":
        cells = list(spec.tape)
        cells[rng.randrange(len(cells))] = "?"
        spec = dataclasses.replace(spec, symbols=(*spec.symbols, "?"), tape=tuple(cells))
    tape = sim_module.encode_tape(encoded, codec)
    fields, window = list(tape.fields), tape.window
    if tamper == "live slot":  # to another slot, or halted where it stands
        other, live = rng.randrange(len(fields) // 2 + 1), fields[2 * window]
        fields[2 * window] = codec.halt_state
        if other != window:
            fields[2 * other] = live
    elif tamper == "unnamed cell":
        fields[2 * rng.randrange(len(spec.tape)) + 1] = "1" * codec.symbol_len
    elif tamper == "origin":
        origin = rng.choice([-1, 1])
    if tamper in ("live slot", "unnamed cell", "origin") or rng.random() < 0.5:
        tape = EncodedTape(tuple(fields), window, origin)
    cfg = initial_config(spec) if rng.random() < 0.5 else oracle._start(spec)
    return spec, codec, tape, cfg


@pytest.mark.parametrize("tamper", BASE_TAMPERS)
def test_base_case_matches_the_interleaved_reference(corpus, tamper):
    """The base case reaches the reference's verdict, or raises its
    ``TapeError``, on the corpus and on seeded specs with least and
    overridden codecs, one-cell tapes among them. An untampered tape passes;
    a tampered one passes only where the change left the configuration
    equal (a live slot or cell codon rewritten to itself)."""
    rng = random.Random(2323)
    cases = [(corpus[name], codec) for name in ("unary_adder", "incrementer", "utm55")
             for codec in (corpus_codec(name), build_codec(corpus[name]))]
    while len(cases) < 150:
        spec = random_partial_machine(rng)
        if len(cases) % 3 == 0:
            spec = dataclasses.replace(spec, tape=spec.tape[:1], head=0)
        if validate(spec):
            continue
        cases.append((spec, build_codec(spec) if rng.random() < 0.5
                      else _overridden_codec(rng, spec)))
    verdicts = Counter()
    for spec, codec in cases:
        args = _base_case(rng, spec, codec, tamper)
        got = _outcome(lambda: oracle._initial_divergence(*args))
        assert got == _outcome(lambda: reference_initial_divergence(*args)), args
        verdicts["passed" if got is None else "raised" if isinstance(got, str) else "diverged"] += 1
    if tamper == "none":
        assert verdicts == {"passed": 150}
    else:
        assert verdicts["diverged"] + verdicts["raised"] > 0, verdicts


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


def reference_written_divergence(spec, codec, step, pos, tape, cfg):
    """Test-local reference: the per-step check as it was before its passing
    path read the classical cells inline and built no tuples."""
    window = tape.window_abs
    slot, cell, next_slot = tape.triple_at(pos)
    seen = tape.window_triple()[1]
    halt, write = "1" * codec.state_len, codec.symbol_write
    default = spec.default_symbol
    live = codec.state_write.get(cfg.state)
    flank = (halt, live) if pos == window - 1 else (live, halt) if pos == window + 1 else None
    if (
        (slot, next_slot) == flank
        and window == cfg.head
        and cell == write.get(cfg.symbol_at(pos, default))
        and seen == write.get(cfg.symbol_at(window, default))
    ):
        return None
    written, moved = (pos, cell), (window, seen)
    cells = (written, moved) if pos <= window else (moved, written)
    states = [s for s in (slot, next_slot) if s != halt]
    first = pos if slot != halt else pos + 1
    head = window
    if states and first - window not in (0, 1):
        head = f"slot {first}, window {window}"
    return _compare(spec, step, cfg, cells, states, head, codec)


def _checked(check, *args):
    """The check's result, or the exception it raised, by type and message."""
    try:
        return check(*args)
    except Exception as e:  # both sides must raise alike
        return type(e).__name__, str(e)


def test_written_check_matches_the_reference_on_every_step(monkeypatch):
    """Every per-step check that ``bisimulate`` makes returns what the
    reference returns: None or the same ``Divergence``. The runs are seeded
    total and partial machines on least and overridden codecs, in both
    modes, three in four of the compiles corrupted by ``_corrupt``."""
    check, kinds = oracle._written_divergence, Counter()

    def both(*args):
        got = check(*args)
        assert got == reference_written_divergence(*args), args
        kinds[got and got.kind] += 1
        return got

    monkeypatch.setattr(oracle, "_written_divergence", both)
    rng = random.Random(1919)
    cases = 0
    while cases < 300:
        make = random_total_machine if cases % 2 else random_partial_machine
        spec = make(rng)
        if validate(spec):
            continue
        codec = build_codec(spec) if rng.random() < 0.5 else _overridden_codec(rng, spec)
        for mode in CompileMode:
            trnas = compile_ruleset(spec, codec, mode)
            if trnas and rng.random() < 0.75:
                trnas = _corrupt(rng, codec, trnas)
            bisimulate(spec, codec, mode, rng.choice([3, 10, 50, 200]), trnas=trnas)
        cases += 1
    assert set(kinds) == {None, "symbols", "state", "head", "halting"}, kinds
    assert kinds[None] > 5_000, kinds


CHECK_TAMPERS = [
    "none", "head", "state", "live slot", "swapped flanks", "far slot", "cell at pos",
    "cell at window", "classical at pos", "classical at window", "pos off by one",
]


def _check_case(rng, tamper):
    """Arguments for the per-step check: a strand with the written cell next
    to the window, the live slot between them, and a classical configuration
    it agrees with, read from writes, ``base`` or the default; then one
    thing changed as ``tamper`` names."""
    spec = random_total_machine(rng, max_states=4, max_symbols=3, min_states=2, min_symbols=2)
    codec = build_codec(spec)
    halt, named = codec.halt_state, codec.symbol_write
    cells, origin = rng.randint(2, 6), rng.randint(-3, 3)
    window = rng.randrange(cells)
    side = rng.choice([s for s in (-1, 1) if 0 <= window + s < cells])
    symbols = [rng.choice(spec.symbols) for _ in range(cells)]
    base = tuple(rng.choice(spec.symbols) for _ in range(rng.randint(0, 4)))
    writes = {}
    for i, symbol in enumerate(symbols):
        p = origin + i
        under = base[p] if 0 <= p < len(base) else spec.default_symbol
        if symbol != under or rng.random() < 0.3:
            writes[p] = symbol
    state = rng.choice(spec.states)
    slots = [halt] * (cells + 1)
    between = max(window, window + side)  # the slot between the two cells
    slots[between] = codec.state_write[state]
    codons = [named[s] for s in symbols]
    far = between + side  # the written cell's other slot
    pos, head = origin + window + side, origin + window
    if tamper == "head":
        head += rng.choice([-1, 1])
    elif tamper == "state":
        state = rng.choice([None, *(s for s in spec.states if s != state)])
    elif tamper == "live slot":
        slots[between] = rng.choice([halt, _other(codec.state_write, state), "0" * codec.state_len])
    elif tamper == "swapped flanks":
        slots[between], slots[far] = halt, slots[between]
    elif tamper == "far slot":
        slots[far] = rng.choice(list(codec.state_write.values()))
    elif tamper in ("cell at pos", "cell at window"):
        i = window + side if tamper == "cell at pos" else window
        codons[i] = rng.choice([_other(named, symbols[i]), "1" * codec.symbol_len])
    elif tamper in ("classical at pos", "classical at window"):
        p = pos if tamper == "classical at pos" else head
        writes[p] = _other({s: s for s in spec.symbols}, symbols[p - origin])
    elif tamper == "pos off by one":
        pos += rng.choice([-1, 1])
    fields = [halt] * (2 * cells + 1)
    fields[0::2], fields[1::2] = slots, codons
    tape = EncodedTape(tuple(fields), window, origin)
    cfg = ClassicalConfig(writes, state, head, base)
    return spec, codec, rng.randrange(1, 100), pos, tape, cfg


@pytest.mark.parametrize("tamper", CHECK_TAMPERS)
def test_written_check_matches_the_reference_on_built_strands(tamper):
    """On strands built by hand, with everything a correct step leaves or
    one thing changed, the check returns the reference's result or raises
    its error. An untampered strand passes and every other tamper is
    reported, except a position beside the written cell: the slow path may
    find that strand consistent, or raise off the strand, as the reference
    does."""
    rng = random.Random(2020)
    for _ in range(300):
        args = _check_case(rng, tamper)
        got = _checked(_written_divergence, *args)
        assert got == _checked(reference_written_divergence, *args), (tamper, args)
        if tamper != "pos off by one":
            assert (got is None) == (tamper == "none"), (tamper, args, got)
