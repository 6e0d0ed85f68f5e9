import copy
import dataclasses
import gc
import math
import pickle
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

import codonmachine.sim as sim_module
from codonmachine import (
    Arrival,
    CompileMode,
    EncodedTape,
    NondeterminismFault,
    Outcome,
    Side,
    SimInstance,
    TapeError,
    TraceEvent,
    apply_trna,
    bisimulate,
    build_codec,
    compile_rule,
    compile_ruleset,
    corpus_codec,
    decode_tape,
    iter_run,
    match_window,
    new_sim,
    parse_machine_spec,
    read_form,
    run,
    step,
    validate,
)

from conftest import (
    ADDER_TRACE_LINES,
    ONE_RULE_WALKER,
    random_partial_machine,
    random_total_machine,
    walker_text,
)
from test_bisim_reference import _corrupt, _overridden_codec
from test_tape import TupleTape

BOTH = frozenset({Side.STATE_ON_LEFT, Side.STATE_ON_RIGHT})


@pytest.fixture
def adder_sim(adder, adder_codec):
    return new_sim(adder, adder_codec, CompileMode.INFERRED)


@pytest.fixture
def adder_trnas(adder, adder_codec):
    return compile_ruleset(adder, adder_codec, CompileMode.INFERRED)


class TestMatchWindow:
    def test_state_on_left(self, adder_trnas):
        assert match_window(adder_trnas[0], ("001", "01", "111")) == Side.STATE_ON_LEFT

    def test_state_on_right(self, adder_trnas):
        assert match_window(adder_trnas[4], ("111", "10", "100")) == Side.STATE_ON_RIGHT

    def test_all_halt_window_matches_nothing(self, adder_trnas):
        for t in adder_trnas:
            assert match_window(t, ("111", "01", "111")) is None


class TestApply:
    def test_first_adder_step_write_and_shift(self, adder_sim, adder_trnas):
        after = apply_trna(adder_trnas[0], adder_sim)
        assert after.tape.render() == ADDER_TRACE_LINES[1]
        assert after.tape.window == 1
        assert after.step_count == 1

    def test_left_move_parks_state_left_of_cell(self, adder, adder_codec, adder_trnas):
        sim = new_sim(adder, adder_codec, CompileMode.INFERRED)
        for _ in range(3):
            sim, _ = step(sim)
        # step 4 applies the left-moving rule at window 3
        assert sim.tape.window == 3
        after = apply_trna(adder_trnas[3], sim)
        assert after.tape.window == 2
        assert after.tape.state_slots[3] == "100"
        assert after.tape.render() == ADDER_TRACE_LINES[4]

    def test_halt_rule_leaves_no_live_slot(self, adder, adder_codec):
        sim = new_sim(adder, adder_codec, CompileMode.INFERRED)
        for _ in range(6):
            sim, event = step(sim)
            assert event is not None
        halt = adder_codec.halt_state
        assert all(s == halt for s in sim.tape.state_slots)
        after, event = step(sim)
        assert event is None and after.halted

    def test_window_growth_past_left_edge(self, utm, utm_codec):
        # the utm run walks off the left edge once near the end and the tape
        # must grow a default cell there
        sim = new_sim(utm, utm_codec, CompileMode.DUAL)
        while not sim.halted:
            sim, _ = step(sim)
        assert sim.tape.origin == -1
        assert len(sim.tape.symbol_cells) == 24


class TestStep:
    def test_first_event(self, adder_sim, adder_codec):
        after, event = step(adder_sim)
        assert event.rule_id == 1
        assert event.side == Side.STATE_ON_LEFT
        assert event.step == 1
        assert adder_sim.tape.window_triple() == ("001", "01", "111")
        decoded = decode_tape(adder_sim.tape, adder_codec)
        assert decoded.state == "q1"
        assert decoded.head == 0

    def test_halted_machine_rejects_step(self, adder_sim):
        sim = adder_sim
        while not sim.halted:
            sim, _ = step(sim)
        with pytest.raises(ValueError, match="halted"):
            step(sim)

    def test_deterministic_trials_are_scan_positions(self, adder_sim):
        sim, event = step(adder_sim)
        assert event.trials == 1  # rule 1 sits first in the scan order

    def test_stochastic_seeded_reproducible(self, adder, adder_codec):
        def trial_seq(seed):
            sim = new_sim(adder, adder_codec, CompileMode.INFERRED, rng_seed=seed)
            out = []
            while not sim.halted:
                sim, event = step(sim, Arrival.STOCHASTIC)
                if event:
                    out.append(event.trials)
            return out

        assert trial_seq(42) == trial_seq(42)
        seqs = {tuple(trial_seq(s)) for s in range(12)}
        assert len(seqs) > 1

    def test_an_unseeded_run_draws_seed_zeros_stream(self, utm, utm_codec):
        def trials(**seed):
            _, trace, _ = run(new_sim(utm, utm_codec, **seed), arrival=Arrival.STOCHASTIC)
            return [e.trials for e in trace]

        # keyed, not drawn from a global stream: two unseeded runs agree
        assert trials() == trials() == trials(rng_seed=0)

    def test_a_seed_of_none_draws_seed_zeros_stream(self, utm, utm_codec):
        def trace(sim):
            return run(sim, arrival=Arrival.STOCHASTIC)[1]

        seeded = new_sim(utm, utm_codec, rng_seed=0)
        built = dataclasses.replace(seeded, rng_seed=None)  # direct construction
        assert built.rng_seed == 0
        assert trace(new_sim(utm, utm_codec, rng_seed=None)) == trace(built) == trace(seeded)

    def test_deterministic_and_stochastic_agree_on_rules(self, utm, utm_codec):
        def rule_seq(arrival, seed=None):
            sim = new_sim(utm, utm_codec, CompileMode.DUAL, rng_seed=seed)
            out = []
            while not sim.halted:
                sim, event = step(sim, arrival)
                if event:
                    out.append(event.rule_id)
            return out

        det = rule_seq(Arrival.DETERMINISTIC)
        sto = rule_seq(Arrival.STOCHASTIC, seed=3)
        assert det == sto
        assert len(det) == 98

    def test_stochastic_one_row_pool_draws_once(self):
        # log1p(-1 / pool) has no value at a pool of 1: that pool takes one draw
        spec = parse_machine_spec(ONE_RULE_WALKER)
        sim = new_sim(spec, build_codec(spec), CompileMode.INFERRED, rng_seed=3)
        assert sim.index.pool == 1
        final, trace, _ = run(sim, 20, Arrival.STOCHASTIC)
        assert final.trial_count == final.step_count == len(trace) == 20

    def test_stochastic_two_row_pool_draws_the_inverse_cdf(self):
        # one rule compiled dual: two read rows, so a draw can miss
        spec = parse_machine_spec(ONE_RULE_WALKER)
        sim = new_sim(spec, build_codec(spec), CompileMode.DUAL, rng_seed=3)
        assert sim.index.pool == 2
        _, trace, _ = run(sim, 40, Arrival.STOCHASTIC)
        want = [1 + int(math.log(1.0 - sim_module._uniform(3 * 1_000_003 + k)) / math.log1p(-0.5))
                for k in range(40)]
        assert [e.trials for e in trace] == want
        assert max(want) > 1

    def test_nondeterminism_fault(self, adder, adder_codec):
        t1 = compile_rule(adder.rules[0], 1, adder_codec, BOTH)
        t2 = compile_rule(adder.rules[0], 2, adder_codec, BOTH)
        sim = new_sim(adder, adder_codec, trnas=[t1, t2])
        with pytest.raises(NondeterminismFault):
            step(sim)


class TestSeededDraws:
    """A seeded step's uniform: splitmix64 on a key of the seed and the step."""

    SEEDS = [0, 7, -1, 2**63 - 1]
    POOL = 2**40  # so large that the trials tell almost any two draws apart

    def test_uniform_is_splitmix64(self):
        # the first two outputs of splitmix64 from state 0, top 53 bits
        assert sim_module._uniform(0) == (0xE220A8397B1DCDAF >> 11) * 2.0**-53
        assert sim_module._uniform(0x9E3779B97F4A7C15) == (0x6E789E6AA1B965F4 >> 11) * 2.0**-53

    def trials(self, seed, step):
        sim = SimpleNamespace(index=SimpleNamespace(pool=self.POOL), rng_seed=seed,
                              step_count=step)
        return sim_module._stochastic_trials(sim)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_the_next_seed_does_not_replay_this_one(self, seed):
        later = [self.trials(seed, 1_000_003 + k) for k in range(1000)]
        first = [self.trials(seed + 1, k) for k in range(1000)]
        assert all(a != b for a, b in zip(later, first))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_step_below_the_stride_keeps_its_key(self, seed):
        for k in (*range(1000), *range(1_000_003 - 1000, 1_000_003)):
            u = sim_module._uniform(seed * 1_000_003 + k)
            want = 1 + int(math.log(1.0 - u) / math.log1p(-1.0 / self.POOL))
            assert self.trials(seed, k) == want, k


class TestStochasticFit:
    """Stochastic arrival's per-step trials over consecutive seeds 0..N-1 fit
    Geometric(1/pool): a chi-square test over 10 bins cut at the geometric
    deciles, with each bin's exact expected count, at chi-square(9)'s 0.999
    quantile. N is fixed per machine, so each sample is the same every run;
    so is the one long walker run, the last test."""

    CHI2_9_999 = 27.88

    @staticmethod
    def decile_bins(pool):
        """The upper trial count of each bin but the last, and each bin's
        exact probability: the smallest k whose CDF 1 - (1 - 1/pool)^k
        reaches each decile."""
        q = 1 - Fraction(1, pool)
        uppers, k = [], 0
        for d in range(1, 10):
            while 1 - q**k < Fraction(d, 10):
                k += 1
            uppers.append(k)
        cdf = [0, *(1 - q**k for k in uppers), 1]
        return uppers, [b - a for a, b in zip(cdf, cdf[1:])]

    @pytest.mark.parametrize("name, mode, pool, seeds", [
        ("utm55", CompileMode.DUAL, 50, 200),
        ("incrementer", CompileMode.INFERRED, 9, 1000),
    ])
    def test_trials_fit_the_geometric(self, corpus, name, mode, pool, seeds):
        start = new_sim(corpus[name], corpus_codec(name), mode)
        assert start.index.pool == pool
        counts = Counter()
        for seed in range(seeds):
            _, trace, _ = run(dataclasses.replace(start, rng_seed=seed), arrival=Arrival.STOCHASTIC)
            counts.update(e.trials for e in trace)
        uppers, probs = self.decile_bins(pool)
        assert len(set(uppers)) == 9  # ten bins, none empty by construction
        edges = [0, *uppers, max(counts)]
        observed = [sum(counts[k] for k in range(lo + 1, hi + 1))
                    for lo, hi in zip(edges, edges[1:])]
        n = sum(counts.values())
        assert sum(observed) == n
        chi2 = sum((o - n * p) ** 2 / (n * p) for o, p in zip(observed, probs))
        assert chi2 < self.CHI2_9_999, (observed, [float(n * p) for p in probs], float(chi2))

    CHI2_4_999 = 18.47

    def test_walker_run_fits_the_geometric(self):
        """One seed-0 10,000-step run of a one-rule walker in dual mode, pool 2.
        Half the mass sits on one trial, so the deciles do not cut ten bins:
        the bins are exactly 1, 2, 3, 4 and 5 or more trials, at chi-square(4)'s
        0.999 quantile."""
        spec = parse_machine_spec("symbols: 0 1\nstates: q1\nrule: q1 0 1 R q1\n"
                                  "default: 0\ninitial: q1\ntape: 0\nhead: 0\n")
        start = new_sim(spec, build_codec(spec), CompileMode.DUAL, rng_seed=0)
        assert start.index.pool == 2
        _, trace, outcome = run(start, 10_000, Arrival.STOCHASTIC)
        assert outcome is Outcome.STEP_LIMIT
        counts = Counter(min(e.trials, 5) for e in trace)
        observed = [counts[k] for k in range(1, 6)]
        probs = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16), Fraction(1, 16)]
        n = len(trace)
        assert sum(observed) == n == 10_000
        chi2 = sum((o - n * p) ** 2 / (n * p) for o, p in zip(observed, probs))
        assert chi2 < self.CHI2_4_999, (observed, [float(n * p) for p in probs], float(chi2))


class TestRun:
    def test_adder_halts_in_six(self, adder_sim, adder_codec):
        final, trace, outcome = run(adder_sim)
        assert outcome is Outcome.HALTED
        assert len(trace) == 6
        assert [e.rule_id for e in trace] == [1, 2, 3, 4, 5, 6]
        decoded = decode_tape(final.tape, adder_codec)
        assert "".join(decoded.symbols) == "001110"
        assert decoded.state is None

    def test_adder_trace_lines(self, adder_sim):
        sim = adder_sim
        lines = [sim.tape.render()]
        while not sim.halted:
            sim, event = step(sim)
            if event:
                lines.append(sim.tape.render())
        assert lines == ADDER_TRACE_LINES

    def test_step_limit(self, adder_sim):
        final, trace, outcome = run(adder_sim, max_steps=2)
        assert outcome is Outcome.STEP_LIMIT
        assert len(trace) == 2
        assert final.step_count == 2

    def test_limit_equal_to_halt_count_reports_halt(self, adder_sim):
        final, trace, outcome = run(adder_sim, max_steps=6)
        assert outcome is Outcome.HALTED
        assert len(trace) == 6

    def test_bad_limit(self, adder_sim):
        with pytest.raises(ValueError):
            run(adder_sim, max_steps=0)

    def test_run_on_halted_instance(self, adder_sim):
        final, _, _ = run(adder_sim)
        again, trace, outcome = run(final)
        assert outcome is Outcome.HALTED
        assert trace == []
        assert again is final

    def test_utm_run(self, utm, utm_codec):
        sim = new_sim(utm, utm_codec, CompileMode.DUAL)
        final, trace, outcome = run(sim)
        assert outcome is Outcome.HALTED
        assert final.step_count == 98
        decoded = decode_tape(final.tape, utm_codec)
        assert decoded.state is None


class TestNewSim:
    @pytest.mark.parametrize("entry", [new_sim, bisimulate])
    def test_default_symbol_with_no_codon_is_a_tape_error(self, adder, entry):
        """As a tape symbol with no codon is: after the compile and the
        encode pass, never a bare KeyError."""
        spec = dataclasses.replace(adder, default_symbol="#")
        with pytest.raises(TapeError, match="^default symbol '#' has no codon$"):
            entry(spec, build_codec(spec))


class TestIterRun:
    def test_yields_each_step_then_the_halt(self, adder_sim):
        _, trace, _ = run(adder_sim)
        steps = list(iter_run(adder_sim))
        assert [e for _, e in steps[:-1]] == trace
        assert all(after.step_count == e.step for after, e in steps[:-1])
        last, event = steps[-1]
        assert event is None and last.halted and last.step_count == 6

    def test_step_limit_ends_without_a_halt(self, adder_sim):
        steps = list(iter_run(adder_sim, max_steps=2))
        assert [e.step for _, e in steps] == [1, 2]
        assert not steps[-1][0].halted

    def test_halted_instance_yields_only_the_halt(self, adder_sim):
        final, _, _ = run(adder_sim)
        assert list(iter_run(final)) == [(final, None)]

    @pytest.mark.parametrize("budget", [0, -3])
    def test_bad_budget(self, adder_sim, budget):
        with pytest.raises(ValueError):
            next(iter_run(adder_sim, max_steps=budget))


class TestBudgetCheck:
    """At the budget iter_run only matches the window; it applies nothing."""

    def test_applies_one_trna_per_step(self, monkeypatch):
        real = sim_module.apply_trna
        applied = []

        def counting(trna, sim):
            applied.append(trna.rule_id)
            return real(trna, sim)

        monkeypatch.setattr(sim_module, "apply_trna", counting)
        spec = parse_machine_spec(ONE_RULE_WALKER)
        final, trace, outcome = run(new_sim(spec, build_codec(spec)), 5)
        assert outcome is Outcome.STEP_LIMIT
        assert final.step_count == len(trace) == 5
        assert applied == [1] * 5

    def test_ambiguity_first_reached_at_the_budget_raises(self):
        spec = parse_machine_spec(
            "symbols: 0 1\nstates: q1\nrule: q1 0 0 R q1\nrule: q1 1 1 R q1\n"
            "default: 0\ninitial: q1\ntape: 01\nhead: 0\n"
        )
        codec = build_codec(spec)
        # a third tRNA sharing rule 2's read rows, which first match on step 2
        twin = compile_rule(spec.rules[1], 3, codec, BOTH)
        sim = new_sim(spec, codec, trnas=[*compile_ruleset(spec, codec), twin])
        with pytest.raises(NondeterminismFault, match=r"rules \[2, 3\]"):
            run(sim, 1)


class TestConstantStep:
    """A step allocates the same few objects whatever the tape's length:
    measured in bytes, so the check does not depend on the host's speed."""

    @pytest.mark.parametrize("move", ["R", "L"])
    @pytest.mark.parametrize("cells", [1_000, 100_000])
    def test_step_allocation_is_flat(self, cells, move):
        spec = parse_machine_spec(walker_text(cells, move))
        sim, _ = step(new_sim(spec, build_codec(spec)))  # one cell grown, window on the edge
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            after, event = step(sim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert event is not None and after.tape.cell_count == cells + 2
        assert peak < 8 * 1024, peak

    def test_retained_event_is_small(self):
        """A kept event holds only what fired: about 200 B with its step int."""
        spec = parse_machine_spec(walker_text(1_000, "R"))
        sim = new_sim(spec, build_codec(spec))
        gc.collect()
        tracemalloc.start()
        try:
            trace = run(sim, 16_000)[1]
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(trace) == 16_000
        assert retained / len(trace) < 260, retained / len(trace)


def rebuilt(obj):
    """A copy of a dataclass instance built through its constructor."""
    return type(obj)(**{f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})


class TestValueSemantics:
    """Instances and events that the step builds without ``__init__`` behave
    like ones built through their constructors."""

    @pytest.fixture
    def produced(self, adder_sim, adder_trnas):
        stepped, event = step(adder_sim)
        applied = apply_trna(adder_trnas[0], adder_sim)
        *_, (halted, none) = iter_run(adder_sim)
        assert none is None and halted.halted
        return [stepped, event, applied, halted]

    def test_equal_hash_and_repr_as_constructed(self, produced):
        for obj in produced:
            copy_ = rebuilt(obj)
            assert obj == copy_ and copy_ == obj
            assert hash(obj) == hash(copy_)
            assert repr(obj) == repr(copy_)
            assert vars(obj) == vars(copy_)

    def test_fields_are_frozen(self, produced):
        for obj in produced:
            for f in dataclasses.fields(obj):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, f.name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                obj.extra = 1

    def test_replace_pickle_and_deepcopy_round_trip(self, produced):
        for obj in produced:
            for twin in (dataclasses.replace(obj), pickle.loads(pickle.dumps(obj)),
                         copy.deepcopy(obj)):
                assert type(twin) is type(obj)
                assert twin == obj and hash(twin) == hash(obj) and repr(twin) == repr(obj)

    def test_copies_step_on_alike(self, produced):
        stepped = produced[0]
        for twin in (rebuilt(stepped), dataclasses.replace(stepped),
                     pickle.loads(pickle.dumps(stepped)), copy.deepcopy(stepped)):
            assert step(twin) == step(stepped)

    def test_copied_index_matches_through_its_own_rows(self, adder_sim):
        window = adder_sim.tape.window_triple()
        for twin in (pickle.loads(pickle.dumps(adder_sim)), copy.deepcopy(adder_sim)):
            assert twin.index is not adder_sim.index and twin.index.trnas is twin.trnas
            assert twin.index.match(window)[1] is twin.trnas[0]

    def test_successors_share_the_index(self, adder_sim, adder_trnas):
        stepped, _ = step(adder_sim)
        *_, (halted, _) = iter_run(adder_sim)
        for after in (stepped, apply_trna(adder_trnas[0], adder_sim), halted):
            assert after.index is adder_sim.index
            assert after.trnas is adder_sim.trnas

    def test_stepping_leaves_the_predecessor_as_it_was(self, adder_sim):
        before = rebuilt(adder_sim)
        after, event = step(adder_sim)
        assert adder_sim == before and adder_sim.trial_count == 0
        assert after.trial_count == event.trials

    @pytest.mark.parametrize("arrival", list(Arrival))
    def test_counts_add_up_over_utm55(self, utm, utm_codec, arrival):
        sim = new_sim(utm, utm_codec, rng_seed=5)
        final, trace, outcome = run(sim, arrival=arrival)
        assert outcome is Outcome.HALTED
        assert final.step_count == len(trace) == 98
        assert [e.step for e in trace] == list(range(1, 99))
        assert final.trial_count == sum(e.trials for e in trace)
        assert all(isinstance(e, TraceEvent) for e in trace)
        assert type(final) is SimInstance and final.index is sim.index


class TestInvariants:
    @pytest.mark.parametrize("name", ["incrementer", "unary_adder", "utm55"])
    @pytest.mark.parametrize("mode", [CompileMode.DUAL, CompileMode.INFERRED])
    def test_corpus_run_invariants(self, corpus, name, mode):
        spec = corpus[name]
        codec = corpus_codec(name)
        sim = new_sim(spec, codec, mode)
        halt = codec.halt_state
        while not sim.halted:
            window = sim.tape.window_triple()
            matches = [
                (t.rule_id, side)
                for t in sim.trnas
                for side in [match_window(t, window)]
                if side
            ]
            assert len(matches) <= 1
            before_window = sim.tape.origin + sim.tape.window
            sim_after, event = step(sim)
            if event is None:
                assert not matches
                sim = sim_after
                break
            assert len(matches) == 1
            live = [s for s in sim_after.tape.state_slots if s != halt]
            assert len(live) <= 1
            trna = next(t for t in sim_after.trnas if t.rule_id == event.rule_id)
            shift = -1 if trna.hole else 1
            # window shifts by exactly the hole direction, in absolute terms
            assert sim_after.tape.origin + sim_after.tape.window == before_window + shift
            sim = sim_after
        assert sim.halted


def _reached_instances(corpus):
    """The instance at each window reached, in both modes, by the corpus
    machines and by a seeded sweep of random machines, halting windows
    included."""
    machines = [(corpus[n], corpus_codec(n)) for n in ("incrementer", "unary_adder", "utm55")]
    rng = random.Random(4141)
    while len(machines) < 33:
        spec = random_total_machine(rng)
        if not validate(spec):
            machines.append((spec, build_codec(spec)))
    for spec, codec in machines:
        for mode in CompileMode:
            sim = new_sim(spec, codec, mode)
            yield sim
            for after, _ in iter_run(sim, max_steps=200):
                if not after.halted:
                    yield after


def test_window_index_agrees_with_match_window(corpus):
    """The index finds, for every reached window, the first row in scan order
    that the lock-and-key definition says matches."""
    checked = 0
    for sim in _reached_instances(corpus):
        window = sim.tape.window_triple()
        scan = ((t, side) for t in sim.trnas for side, _ in t.reads)
        first = next(
            ((i, t, side) for i, (t, side) in enumerate(scan) if match_window(t, window) is side),
            None,
        )
        assert sim.index.match(window) == first, window
        checked += 1
    assert checked > 1_000


@pytest.mark.parametrize("mode", [CompileMode.DUAL, CompileMode.INFERRED])
def test_window_index_records_each_clashing_window(corpus, mode):
    trnas = compile_ruleset(corpus["utm55"], corpus_codec("utm55"), mode)
    assert sim_module.WindowIndex(trnas).clashes == {}
    # a second rule on the first rule's rows clashes on each of its windows
    twin = dataclasses.replace(trnas[0], rule_id=len(trnas) + 1)
    index = sim_module.WindowIndex((*trnas, twin))
    assert len(index.clashes) == len(trnas[0].reads)
    assert all(ids == [trnas[0].rule_id, twin.rule_id] for ids in index.clashes.values())
    # each clashing window keeps the first row in scan order
    assert all(index.rows[w][1] is trnas[0] for w in index.clashes)
    assert index.pool == sum(len(t.reads) for t in trnas) + len(twin.reads)


def reference_window_index(trnas):
    """Test-local reference: the index as it was built before it memoised
    read forms, as (rows, clashes, pool)."""
    rows, rule_ids = {}, {}
    scan = ((t, side, row) for t in trnas for side, row in t.reads)
    for i, (t, side, row) in enumerate(scan):
        window = tuple(read_form(f) for f in row)
        rows.setdefault(window, (i, t, side))
        rule_ids.setdefault(window, []).append(t.rule_id)
    clashes = {w: sorted(ids) for w, ids in rule_ids.items() if len(set(ids)) > 1}
    return rows, clashes, sum(len(t.reads) for t in trnas)


READ_TAMPERS = ["none", "twin", "same-id twin", "copied reads", "dropped side", "read field",
                "non-bit field", "row length", "write"]


def _tampered_reads(rng, tamper, codec, trnas):
    """``trnas`` with one tRNA changed as ``tamper`` names, or added."""
    i = rng.randrange(len(trnas))
    t = trnas[i]
    if tamper == "twin":  # another rule on t's rows: a clash on each of them
        twin = dataclasses.replace(t, rule_id=rng.choice([0, len(trnas) + 1, trnas[-1].rule_id]))
        return [*trnas[:i], twin, *trnas[i:]] if rng.random() < 0.5 else [*trnas, twin]
    if tamper == "same-id twin":  # the same rule twice: no clash
        return [*trnas, dataclasses.replace(t)]
    if tamper == "copied reads":
        other = rng.choice(trnas)
        return [*trnas[:i], dataclasses.replace(t, reads=other.reads), *trnas[i + 1:]]
    if tamper == "write":
        return _corrupt(rng, codec, trnas)
    reads = [list(row) for _, row in t.reads]
    sides = [side for side, _ in t.reads]
    if tamper == "dropped side":
        if len(reads) < 2:
            return None
        j = rng.randrange(2)
        reads, sides = reads[j:j + 1], sides[j:j + 1]
    else:
        row = rng.choice(reads)
        j = rng.randrange(len(row))
        if tamper == "read field":
            n = len(row[j])
            row[j] = rng.choice(["1" * n, "0" * n, "".join(rng.choice("01") for _ in range(n))])
        elif tamper == "non-bit field":
            row[j] = row[j][:-1] + rng.choice("2x_")
        elif rng.random() < 0.5:  # "row length": a field too many or too few
            row.append(row[0])
        else:
            del row[j]
    bad = dataclasses.replace(t, reads=tuple(zip(sides, map(tuple, reads))))
    return [*trnas[:i], bad, *trnas[i + 1:]]


@pytest.mark.parametrize("tamper", READ_TAMPERS)
def test_window_index_matches_the_reference(tamper):
    """On seeded compiles in both modes, each with one tRNA tampered as named,
    the index has the reference's rows, clashes with their sorted rule ids,
    and pool: it is built from each tRNA's own read rows."""
    rng = random.Random(1919)
    compared = clashing = 0
    while compared < 150:
        spec = random_total_machine(rng, max_states=5, max_symbols=4)
        codec = build_codec(spec)
        trnas = compile_ruleset(spec, codec, rng.choice(list(CompileMode)))
        if tamper != "none":
            trnas = _tampered_reads(rng, tamper, codec, trnas)
            if trnas is None:
                continue
        index = sim_module.WindowIndex(tuple(trnas))
        rows, clashes, pool = reference_window_index(trnas)
        assert (index.rows, index.clashes, index.pool) == (rows, clashes, pool), (spec, trnas)
        # the first row in scan order, not an equal record after it
        assert all(index.rows[w][1] is rows[w][1] for w in rows)
        compared += 1
        clashing += bool(clashes)
    if tamper in ("twin", "copied reads"):
        assert clashing
    elif tamper in ("none", "same-id twin", "dropped side", "write"):
        assert not clashing


# --- the step chain against a plain reference --------------------------------


def reference_match(index, window):
    """The lookup written out: the first row in scan order, then the clash check."""
    found = index.rows.get(window)
    if index.clashes and window in index.clashes:
        raise NondeterminismFault(f"rules {index.clashes[window]} all match window {window}")
    return found


def reference_apply(trna, sim):
    """The step on ``test_tape.py``'s whole-strand model: grow the edge the
    move would pass, write and move, then build the tape from the fields."""
    tape, shift = sim.tape, -1 if trna.hole else 1
    model = TupleTape(tape.fields, tape.window, tape.origin)
    if model.window + shift < 0:
        model = model.grow("left", sim.default_codon)
    elif model.window + shift == model.cell_count:
        model = model.grow("right", sim.default_codon)
    model = model.write(trna.write, shift)
    return dataclasses.replace(sim, tape=EncodedTape(model.fields, model.window, model.origin),
                               step_count=sim.step_count + 1)


def reference_step(sim, arrival):
    if sim.halted:
        raise ValueError("machine already halted")
    found = reference_match(sim.index, sim.tape.window_triple())
    if found is None:
        return dataclasses.replace(sim, halted=True), None
    scan_index, trna, side = found
    if arrival is Arrival.DETERMINISTIC:
        trials = scan_index + 1
    else:
        trials = sim_module._stochastic_trials(sim)
    after = reference_apply(trna, sim)
    after = dataclasses.replace(after, trial_count=after.trial_count + trials)
    return after, TraceEvent(after.step_count, trna.rule_id, side, trials)


def reference_iter_run(sim, arrival, max_steps):
    if sim.halted:
        yield sim, None
    while not sim.halted:
        if sim.step_count >= max_steps and reference_match(sim.index, sim.tape.window_triple()):
            return
        sim, event = reference_step(sim, arrival)
        yield sim, event


def _outputs(pairs):
    """Each yielded pair, then the error that ended the run, if any."""
    out = []
    try:
        for pair in pairs:
            out.append(pair)
    except (NondeterminismFault, TapeError) as e:
        out.append((type(e), str(e)))
    return out


def assert_same_run(sim, arrival, budget):
    """iter_run and the reference yield equal pairs, field by field, and end
    with the same error, if any; returns what iter_run gave."""
    got = _outputs(iter_run(sim, arrival, budget))
    want = _outputs(reference_iter_run(sim, arrival, budget))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a == b
        if isinstance(a[0], SimInstance):
            assert vars(a[0]) == vars(b[0])
            assert a[1] is None is b[1] or vars(a[1]) == vars(b[1])
            ta, tb = a[0].tape, b[0].tape
            assert (ta.fields, ta.window, ta.origin) == (tb.fields, tb.window, tb.origin)
    return got


class TestStepChainDifferential:
    """``iter_run``, ``step``, ``apply_trna``, the index lookup and
    ``EncodedTape.write`` against the plain versions above, the tape through
    ``test_tape.py``'s whole-strand model: every yielded instance and event,
    and every error, on seeded machines."""

    def test_seeded_runs(self):
        rng = random.Random(2222)
        grew = {"left": 0, "right": 0, "both": 0}
        stochastic = 0
        for case in range(160):
            make = random_total_machine if case % 2 else random_partial_machine
            spec = make(rng)
            if validate(spec):
                continue
            codec = _overridden_codec(rng, spec) if rng.random() < 0.5 else build_codec(spec)
            trnas = compile_ruleset(spec, codec, rng.choice(list(CompileMode)))
            if trnas and rng.random() < 0.2:
                trnas = _corrupt(rng, codec, trnas)
            arrival = rng.choice(list(Arrival))
            stochastic += arrival is Arrival.STOCHASTIC
            sim = new_sim(spec, codec, rng_seed=rng.randrange(100), trnas=trnas)
            last, _ = assert_same_run(sim, arrival, rng.choice([1, 2, 10, 50, 300]))[-1]
            if isinstance(last, SimInstance):
                left = last.tape.origin < 0
                right = last.tape.origin + last.tape.cell_count > len(spec.tape)
                grew["left"] += left
                grew["right"] += right
                grew["both"] += left and right
        assert all(grew.values()) and stochastic, (grew, stochastic)

    def test_clashes_raise_at_the_same_step(self):
        """A second rule on the rows of a rule that fires: the fault comes at
        that rule's first step, or at the budget check just before it."""
        rng = random.Random(3333)
        ends = Counter()
        while min(ends["step"], ends["budget"]) < 15:
            spec = random_total_machine(rng)
            if validate(spec):
                continue
            codec = build_codec(spec)
            trnas = compile_ruleset(spec, codec, rng.choice(list(CompileMode)))
            _, trace, _ = run(new_sim(spec, codec, trnas=trnas), 300)
            if not trace:
                continue
            rule_id = rng.choice(trace).rule_id
            first = next(i for i, e in enumerate(trace) if e.rule_id == rule_id)
            t = next(t for t in trnas if t.rule_id == rule_id)
            twin = dataclasses.replace(t, rule_id=len(trnas) + 1)
            sim = new_sim(spec, codec, rng_seed=5, trnas=[*trnas, twin])
            budget = first if first and rng.random() < 0.5 else 300
            out = assert_same_run(sim, rng.choice(list(Arrival)), budget)
            assert out[-1][0] is NondeterminismFault and len(out) == first + 1, out[-1]
            ends["budget" if budget == first else "step"] += 1
