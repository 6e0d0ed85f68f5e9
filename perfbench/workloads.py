"""Benchmark workloads: seeded inputs, timed jobs and their reference checks.

A workload is one *round*: a fixed list of jobs built from the seed before
timing starts. The benchmark repeats the round until its time is up, so every
round runs the same inputs and must produce the same exact counts.

Jobs reach the package only through module attributes (``cm.sim.run``,
``cm.oracle.bisimulate``...), so the traced run's wrappers see every call.
A job returns its timings and a ``check`` closure; the runner calls the
check outside the timed region with tracing paused.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

clock = time.perf_counter

# utm55's frozen profile: the bundled input halts after 98 steps with this
# tape over absolute positions -1..22.
UTM55_STEPS = 98
UTM55_FINAL = "cbbbbbδδδbbδbbbbbδbbcccc"
UTM55_LO = -1
UTM55_BUDGET = 1000

# long_tape: the large tape is LARGE_FACTOR times the small one, and each
# direction runs SMALL_REPEATS small jobs per large job.
LARGE_FACTOR = 8
SMALL_REPEATS = 3


@dataclass
class JobOut:
    """One job's timings and results.

    ``ms`` is the whole job's latency (None for rounds' side jobs that are not
    latency samples). ``parts`` maps a family (run, stochastic, verify,
    classical) to (seconds inside the engine call, steps or symbols done).
    ``counts`` holds exact values that must repeat from round to round.
    """

    ms: float | None = None
    parts: dict[str, tuple[float, int]] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    check: Callable[[], str | None] = lambda: None


@dataclass
class Job:
    fn: Callable[[], JobOut]
    tag: str | None = None


@dataclass
class Workload:
    jobs: list[Job]
    first_instance: object
    static: dict[str, float] = field(default_factory=dict)


def _is_halted(outcome) -> bool:
    return outcome.value == "halted"


def _tm_mismatch(cm, codec, spec, final, outcome, ref) -> str | None:
    """Mechanical final tape, step count and halting against oracle.tm_run's
    result ``ref`` under the same step budget."""
    if final.step_count != ref.steps:
        return f"steps {final.step_count} != classical {ref.steps}"
    if _is_halted(outcome) != _is_halted(ref.outcome):
        return f"outcome {outcome.value} != classical {ref.outcome.value}"
    decoded = cm.tape.decode_tape(final.tape, codec)
    lo, hi = decoded.origin, decoded.origin + len(decoded.symbols) - 1
    lo, hi = min(lo, ref.min_pos), max(hi, ref.max_pos)
    mech = dict(enumerate(decoded.symbols, start=decoded.origin))
    for p in range(lo, hi + 1):
        m = mech.get(p, spec.default_symbol)
        c = ref.config.symbols.get(p, spec.default_symbol)
        if m != c:
            return f"cell {p}: {m} != classical {c}"
    if decoded.state != ref.config.state:
        return f"state {decoded.state} != classical {ref.config.state}"
    if decoded.state is not None and decoded.head_abs != ref.config.head:
        return f"head {decoded.head_abs} != classical {ref.config.head}"
    return None


def _verdict_mismatch(verdict, steps: int, halted: bool) -> str | None:
    if not verdict.passed:
        return f"bisimulation failed: {verdict.divergence}"
    if verdict.steps != steps or (verdict.outcome.value == "halted") != halted:
        return f"bisimulation proved {verdict.steps} steps, {verdict.outcome.value}"
    return None


def _read_rows(sim) -> int:
    return sum(len(t.reads) for t in sim.trnas)


# --- long_tape -------------------------------------------------------------


def walker_text(cells: int, move: str) -> str:
    """One-state walker over an all-0 tape, head on the edge it grows."""
    head = cells - 1 if move == "R" else 0
    return (
        "symbols: 0 1\nstates: q1\n"
        f"rule: q1 0 1 {move} q1\n"
        f"default: 0\ninitial: q1\ntape: {'0' * cells}\nhead: {head}\n"
    )


def _walker_job(cm, spec, codec, budget: int, trnas=None) -> JobOut:
    t0 = clock()
    sim = cm.sim.new_sim(spec, codec, trnas=trnas)
    t1 = clock()
    final, _, outcome = cm.sim.run(sim, budget)
    t2 = clock()
    verdict = cm.oracle.bisimulate(spec, codec, max_steps=budget, trnas=trnas)
    t3 = clock()
    ref = cm.oracle.tm_run(spec, budget)
    t4 = clock()
    return JobOut(
        ms=(t3 - t0) * 1e3,
        parts={"run": (t2 - t1, final.step_count), "verify": (t3 - t2, verdict.steps),
               "classical": (t4 - t3, ref.steps)},
        counts={"instances": 1, "steps.deterministic": final.step_count,
                "trials.deterministic": final.trial_count, "verify_steps": verdict.steps,
                "peak_cells": len(final.tape.symbol_cells), "read_rows": _read_rows(sim)},
        check=lambda: (_tm_mismatch(cm, codec, spec, final, outcome, ref)
                       or _verdict_mismatch(verdict, budget, False)),
    )


def long_tape(cm, seed: int, small: int = 1000, budget: int = 8) -> Workload:
    """Walkers right and left at a small and a LARGE_FACTOR times larger tape.

    Small jobs repeat SMALL_REPEATS times per large job so the job latency
    median falls among small jobs and p90 among large ones, away from the
    boundary between the two.
    """
    cells = small + random.Random(seed).randrange(32)
    large = cells * LARGE_FACTOR
    jobs, first = [], None
    for move in ("R", "L"):
        for size, tag, repeats in ((cells, "tape_small", SMALL_REPEATS),
                                   (large, "tape_large", 1)):
            spec = cm.machine.parse_machine_spec(walker_text(size, move))
            codec = cm.codec.build_codec(spec)
            if first is None:
                first = cm.sim.new_sim(spec, codec)
            jobs += [Job(partial(_walker_job, cm, spec, codec, budget), tag)] * repeats
    return Workload(jobs, first, {"cells.small": cells, "cells.large": large, "budget": budget})


# --- utm55_jobs ------------------------------------------------------------


def _utm55_job(cm, spec_text, codec_text, mode, arrival, seed, ref_rules, trnas=None) -> JobOut:
    t0 = clock()
    spec = cm.machine.parse_machine_spec(spec_text)
    codec = cm.codec.build_codec(spec, cm.codec.parse_codec_overrides(codec_text))
    sim = cm.sim.new_sim(spec, codec, mode, rng_seed=seed, trnas=trnas)
    t1 = clock()
    final, trace, outcome = cm.sim.run(sim, UTM55_BUDGET, arrival)
    t2 = clock()
    decoded = cm.tape.decode_tape(final.tape, codec)
    t3 = clock()
    ref = cm.oracle.tm_run(spec, UTM55_BUDGET)
    t4 = clock()
    arrival_name = arrival.value
    family = "run" if arrival is cm.sim.Arrival.DETERMINISTIC else "stochastic"

    def check():
        if not _is_halted(outcome) or final.step_count != UTM55_STEPS:
            return f"utm55 {outcome.value} after {final.step_count} steps"
        if decoded.origin != UTM55_LO or "".join(decoded.symbols) != UTM55_FINAL:
            return f"utm55 final tape {''.join(decoded.symbols)} from {decoded.origin}"
        if [e.rule_id for e in trace] != ref_rules:
            return f"{arrival_name} arrival fired another rule sequence"
        return _tm_mismatch(cm, codec, spec, final, outcome, ref)

    return JobOut(
        ms=(t3 - t0) * 1e3,
        parts={family: (t2 - t1, final.step_count), "classical": (t4 - t3, ref.steps)},
        counts={"instances": 1, f"steps.{arrival_name}": final.step_count,
                f"trials.{arrival_name}": final.trial_count,
                "peak_cells": len(final.tape.symbol_cells), "read_rows": _read_rows(sim)},
        check=check,
    )


def _utm55_bisim(cm, spec, codec, trnas=None) -> JobOut:
    t0 = clock()
    verdict = cm.oracle.bisimulate(spec, codec, max_steps=UTM55_BUDGET, trnas=trnas)
    t1 = clock()
    return JobOut(parts={"verify": (t1 - t0, verdict.steps)},
                  counts={"verify_steps": verdict.steps},
                  check=lambda: _verdict_mismatch(verdict, UTM55_STEPS, True))


def utm55_jobs(cm, seed: int, repeats: int = 8) -> Workload:
    """Rotate dual, inferred and stochastic-dual jobs built from text; one
    bisimulation per rotation. Each stochastic job has its own seed."""
    spec_text = cm.corpus.corpus_spec_text("utm55")
    codec_text = cm.corpus.corpus_codec_text("utm55")
    spec = cm.machine.parse_machine_spec(spec_text)
    codec = cm.codec.build_codec(spec, cm.codec.parse_codec_overrides(codec_text))
    first = cm.sim.new_sim(spec, codec)
    _, ref_trace, _ = cm.sim.run(first)
    ref_rules = [e.rule_id for e in ref_trace]
    det, stoch = cm.sim.Arrival.DETERMINISTIC, cm.sim.Arrival.STOCHASTIC
    dual, inferred = cm.trna.CompileMode.DUAL, cm.trna.CompileMode.INFERRED
    rng = random.Random(seed)
    job = partial(_utm55_job, cm, spec_text, codec_text)
    jobs = []
    for _ in range(repeats):
        jobs += [
            Job(partial(job, dual, det, None, ref_rules)),
            Job(partial(job, inferred, det, None, ref_rules)),
            Job(partial(job, dual, stoch, rng.getrandbits(32), ref_rules)),
            Job(partial(_utm55_bisim, cm, spec, codec)),
        ]
    return Workload(jobs, first, {"repeats": repeats})


# --- parity_stream ---------------------------------------------------------


def _parity_job(cm, spec, codec, symbols) -> JobOut:
    t0 = clock()
    final, trace = cm.fsm.fsm_run(spec, symbols, codec)
    t1 = clock()
    reference = cm.fsm.fsm_oracle(spec, symbols)
    t2 = clock()
    expected = "A" if symbols.count("1") % 2 == 0 else "B"

    def check():
        if not final == reference == expected:
            return f"parity {final}, oracle {reference}, expected {expected}"
        if len(trace) != len(symbols):
            return f"{len(trace)} trace entries for {len(symbols)} symbols"
        return None

    n = len(symbols)
    return JobOut(ms=(t1 - t0) * 1e3,
                  parts={"run": (t1 - t0, n), "verify": (t2 - t1, n)},
                  counts={"symbols": n}, check=check)


def parity_stream(cm, seed: int, strings: int = 16, length: int = 3000) -> Workload:
    """Seeded random 0/1 strings through the bundled parity FSM."""
    spec = cm.machine.parse_fsm_spec(cm.corpus.corpus_spec_text("parity"))
    codec = cm.codec.build_codec(spec)
    rng = random.Random(seed)
    inputs = [rng.choices("01", k=length) for _ in range(strings)]
    first = cm.fsm.compile_fsm(spec, codec)
    jobs = [Job(partial(_parity_job, cm, spec, codec, s)) for s in inputs]
    return Workload(jobs, first,
                    {"length": length, "fsm.trnas": len(first)})


BUILDERS = {"long_tape": long_tape, "utm55_jobs": utm55_jobs, "parity_stream": parity_stream}
