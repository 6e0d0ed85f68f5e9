"""Mechanical execution: match, write, move.

Each step compares tRNA read rows against the current window by bitwise
complement. The matching tRNA's write row replaces the window; the window then
shifts one cell left when the move row carries a hole, otherwise one cell
right, growing the tape with default-symbol cells as needed. When nothing
matches -- every slot around the head holds the halt codon -- the machine has
halted.

Arrival order is either deterministic (scan the pool in order, trials = scan
position of the match) or stochastic (sample read rows uniformly with
replacement until the match arrives, trials = number of draws). The sampling
pool is the individual read rows, so a dual-compiled ruleset of 25 records
offers 50 arrivals.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass, replace
from enum import Enum

from .codec import Codec, read_form
from .machine import MachineSpec
from .tape import EncodedTape, encode_tape, grow
from .trna import CompileMode, Side, Trna, compile_ruleset


class Arrival(Enum):
    DETERMINISTIC = "deterministic"
    STOCHASTIC = "stochastic"


class Outcome(Enum):
    HALTED = "halted"
    STEP_LIMIT = "step-limit"


DEFAULT_MAX_STEPS = 10_000


class NondeterminismFault(RuntimeError):
    """Two distinct tRNA matched one window; the compile is corrupt."""


@dataclass(frozen=True)
class SimInstance:
    tape: EncodedTape
    trnas: tuple[Trna, ...]
    default_codon: str
    rng_seed: int | None = None
    step_count: int = 0
    trial_count: int = 0
    halted: bool = False


@dataclass(frozen=True)
class TraceEvent:
    step: int  # 1-based
    rule_id: int
    side: Side
    trials: int
    window_before: str
    window_after: str


def new_sim(
    spec: MachineSpec,
    codec: Codec,
    mode: CompileMode = CompileMode.DUAL,
    rng_seed: int | None = None,
    trnas: list[Trna] | None = None,
) -> SimInstance:
    """Compile and encode a machine into a runnable instance.

    ``trnas`` overrides the compiled ruleset (fault injection, tests).
    """
    if trnas is None:
        trnas = compile_ruleset(spec, codec, mode)
    return SimInstance(
        tape=encode_tape(spec, codec),
        trnas=tuple(trnas),
        default_codon=codec.symbol_write[spec.default_symbol],
        rng_seed=rng_seed,
    )


def _match(
    trnas: tuple[Trna, ...], window: tuple[str, str, str]
) -> tuple[int, Trna, Side] | None:
    """The first read row, in scan order, equal to the window's fieldwise
    complement: (scan index, tRNA, side), or None if no row matches. Rows of
    two rules matching one window raise NondeterminismFault."""
    key = tuple(read_form(f) for f in window)
    rows = ((t, side, row) for t in trnas for side, row in t.reads)
    matches = [(i, t, side) for i, (t, side, row) in enumerate(rows) if row == key]
    if len({t.rule_id for _, t, _ in matches}) > 1:
        ids = sorted(t.rule_id for _, t, _ in matches)
        raise NondeterminismFault(f"rules {ids} all match window {window}")
    return matches[0] if matches else None


def match_window(trna: Trna, window: tuple[str, str, str]) -> Side | None:
    """The side whose read row equals the window's fieldwise complement."""
    found = _match((trna,), window)
    return None if found is None else found[2]


def apply_trna(trna: Trna, sim: SimInstance) -> SimInstance:
    """Push the write row down over the window, then shift the window."""
    tape = sim.tape.write(trna.write, -1 if trna.hole else 1)
    if tape.window < 0:
        tape = grow(tape, "left", sim.default_codon)
    elif tape.window >= tape.cell_count:
        tape = grow(tape, "right", sim.default_codon)
    return replace(sim, tape=tape, step_count=sim.step_count + 1)


def step(
    sim: SimInstance, arrival: Arrival = Arrival.DETERMINISTIC
) -> tuple[SimInstance, TraceEvent | None]:
    """One match-write-move attempt; no event means the machine just halted."""
    if sim.halted:
        raise ValueError("machine already halted")
    window = sim.tape.window_triple()
    found = _match(sim.trnas, window)
    if found is None:
        return replace(sim, halted=True), None
    scan_index, trna, side = found
    if arrival is Arrival.DETERMINISTIC:
        trials = scan_index + 1
    else:
        pool_size = sum(len(t.reads) for t in sim.trnas)
        rng = (
            random.Random()
            if sim.rng_seed is None
            else random.Random(sim.rng_seed * 1_000_003 + sim.step_count)
        )
        trials = 1
        while rng.randrange(pool_size) != scan_index:
            trials += 1
    after = apply_trna(trna, sim)
    after = replace(after, trial_count=after.trial_count + trials)
    event = TraceEvent(
        step=after.step_count,
        rule_id=trna.rule_id,
        side=side,
        trials=trials,
        window_before="_".join(window),
        window_after="_".join(after.tape.window_triple()),
    )
    return after, event


def iter_run(
    sim: SimInstance,
    arrival: Arrival = Arrival.DETERMINISTIC,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Iterator[tuple[SimInstance, TraceEvent | None]]:
    """Step until halt or the step budget runs out.

    Yields (instance after, event) for each step, then (halted instance, None)
    if the machine halts. At the budget the window is matched once more as a
    halt check, so a machine that halts exactly there reports the halt; if a
    rule would fire, nothing is applied and the run ends at the step limit. A
    budget below 1 raises ValueError when iteration starts.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    if sim.halted:
        yield sim, None
    while not sim.halted:
        if sim.step_count >= max_steps and _match(sim.trnas, sim.tape.window_triple()):
            return
        sim, event = step(sim, arrival)
        yield sim, event


def run(
    sim: SimInstance,
    max_steps: int = DEFAULT_MAX_STEPS,
    arrival: Arrival = Arrival.DETERMINISTIC,
) -> tuple[SimInstance, list[TraceEvent], Outcome]:
    """Collect iter_run's events and the final instance and outcome."""
    trace: list[TraceEvent] = []
    for sim, event in iter_run(sim, arrival, max_steps):
        if event is not None:
            trace.append(event)
    return sim, trace, Outcome.HALTED if sim.halted else Outcome.STEP_LIMIT
