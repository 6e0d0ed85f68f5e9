"""Mechanical execution: match, write, move.

Each step compares tRNA read rows against the current window by bitwise
complement. The matching tRNA's write row replaces the window; the window then
shifts one cell left when the move row carries a hole, otherwise one cell
right, growing the tape with default-symbol cells as needed. When nothing
matches -- every slot around the head holds the halt codon -- the machine has
halted.

Matching is one dict lookup: each instance carries a ``WindowIndex``, built
once from its tRNAs, that maps the complement of every read row (the window
that row locks onto) to the row's scan position, tRNA and side. On an index
with no clashing window the lookup is the rows' own ``dict.get``, so it runs
in C. A step is then O(1): one lookup, at most one grow at the edge the
window is about to cross, and one write. It builds one tape, one instance and
one event, without the dataclass ``__init__``: ``apply_trna`` copies the
predecessor's fields in one dict, with the tRNAs and index it already holds,
and ``step`` adds the trials to that fresh instance.

Arrival order is either deterministic (scan the pool in order, trials = scan
position of the match) or stochastic (sample read rows uniformly with
replacement until the match arrives, trials = number of draws). The sampling
pool is the individual read rows, so a dual-compiled ruleset of 25 records
offers 50 arrivals. The number of draws is Geometric(1/pool), so it is taken
in one inverse-CDF draw rather than by drawing rows one by one. Every
stochastic run keys each step's uniform on (seed, step count), and an instance
built without a seed uses seed 0, so ``step`` stays pure; from step 1,000,003
on, where seed s's key would be seed s + 1's, the key mixes the seed.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from enum import Enum

from .codec import Codec, read_form
from .machine import MachineSpec
from .tape import EncodedTape, TapeError, encode_tape, grow
from .trna import CompileMode, Side, Trna, compile_ruleset

Window = tuple[str, str, str]


class Arrival(Enum):
    DETERMINISTIC = "deterministic"
    STOCHASTIC = "stochastic"


class Outcome(Enum):
    HALTED = "halted"
    STEP_LIMIT = "step-limit"


DEFAULT_MAX_STEPS = 10_000


class NondeterminismFault(RuntimeError):
    """Two distinct tRNA matched one window; the compile is corrupt."""


class _ReadForms(dict):
    """Each field's read form, computed on its first lookup: a compile's rows
    repeat a few codons, so an index complements each distinct field once and
    each row in one C-level ``map``."""

    def __missing__(self, field: str) -> str:
        self[field] = flipped = read_form(field)
        return flipped


class WindowIndex:
    """The read rows of ``trnas`` by the window each one matches.

    ``rows`` maps a window to the first read row, in scan order, that equals
    its fieldwise complement: (scan index, tRNA, side). A window that rows of
    two rules match is recorded in ``clashes`` and raises NondeterminismFault
    when it is looked up, not when the index is built. ``pool`` counts the
    read rows.

    ``match(window)`` returns the window's row or None. Without clashes it is
    ``rows.get`` itself, so a lookup runs in C; with them it checks each
    window first. A copy or a pickle rebuilds the index from its tRNAs, so
    its ``match`` always reads its own ``rows``.
    """

    __slots__ = ("trnas", "rows", "clashes", "pool", "match")

    def __init__(self, trnas: tuple[Trna, ...]):
        self.trnas = trnas
        self.rows: dict[Window, tuple[int, Trna, Side]] = {}
        rule_ids: dict[Window, list[int]] = {}
        flip = _ReadForms().__getitem__
        scan = ((t, side, row) for t in trnas for side, row in t.reads)
        for i, (t, side, row) in enumerate(scan):
            window = tuple(map(flip, row))
            self.rows.setdefault(window, (i, t, side))
            rule_ids.setdefault(window, []).append(t.rule_id)
        # a clash is a rule id other than the first; counting, unlike a set, builds nothing
        self.clashes = {w: sorted(ids) for w, ids in rule_ids.items()
                        if ids.count(ids[0]) != len(ids)}
        self.pool = sum(len(t.reads) for t in trnas)
        self.match = self._checked_match if self.clashes else self.rows.get

    def __reduce__(self):
        return WindowIndex, (self.trnas,)

    def _checked_match(self, window: Window) -> tuple[int, Trna, Side] | None:
        if window in self.clashes:
            raise NondeterminismFault(f"rules {self.clashes[window]} all match window {window}")
        return self.rows.get(window)


@dataclass(frozen=True)
class SimInstance:
    tape: EncodedTape
    trnas: tuple[Trna, ...]
    default_codon: str
    rng_seed: int | None = 0
    step_count: int = 0
    trial_count: int = 0
    halted: bool = False
    # derived from trnas; rebuilt whenever it was built for another tuple
    index: WindowIndex | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.rng_seed is None:  # no seed is seed 0, so a stochastic step reads an int
            object.__setattr__(self, "rng_seed", 0)
        if self.index is None or self.index.trnas is not self.trnas:
            object.__setattr__(self, "index", WindowIndex(self.trnas))


@dataclass(frozen=True)
class TraceEvent:
    step: int  # 1-based
    rule_id: int
    side: Side
    trials: int


def new_sim(
    spec: MachineSpec,
    codec: Codec,
    mode: CompileMode = CompileMode.DUAL,
    rng_seed: int | None = 0,
    trnas: list[Trna] | None = None,
) -> SimInstance:
    """Compile and encode a machine into a runnable instance.

    ``rng_seed`` keys stochastic arrival, with ``None`` read as seed 0;
    deterministic arrival never reads it. ``trnas`` overrides the compiled
    ruleset (fault injection, tests).
    """
    if trnas is None:
        trnas = compile_ruleset(spec, codec, mode)
    tape = encode_tape(spec, codec)
    default_codon = codec.symbol_write.get(spec.default_symbol)
    if default_codon is None:
        raise TapeError(f"default symbol {spec.default_symbol!r} has no codon")
    return SimInstance(
        tape=tape, trnas=tuple(trnas), default_codon=default_codon, rng_seed=rng_seed
    )


def match_window(trna: Trna, window: Window) -> Side | None:
    """The side of the read row of ``trna`` that ``WindowIndex`` matches to ``window``."""
    found = WindowIndex((trna,)).match(tuple(window))
    return None if found is None else found[2]


_new, _set = object.__new__, object.__setattr__


def apply_trna(trna: Trna, sim: SimInstance) -> SimInstance:
    """Grow the tape at the edge the shift would cross, then push the write
    row down over the window and shift the window.

    The successor is built without ``__init__``: its tRNAs, default codon,
    seed and index are the predecessor's, which ``__post_init__`` has already
    made consistent, so the fields are copied in one dict and nothing is
    checked again."""
    tape, shift = sim.tape, -1 if trna.hole else 1
    moved = tape.window + shift
    if moved < 0:
        tape = grow(tape, "left", sim.default_codon)
    elif moved == tape.cell_count:
        tape = grow(tape, "right", sim.default_codon)
    state = sim.__dict__.copy()
    state["tape"] = tape.write(trna.write, shift)
    state["step_count"] += 1
    after = _new(SimInstance)
    _set(after, "__dict__", state)
    return after


_MASK64 = (1 << 64) - 1
_STRIDE = 1_000_003  # below this step, a seed's key is seed * _STRIDE + step


def _uniform(key: int) -> float:
    """A uniform draw in [0, 1) from an integer key: the splitmix64 finaliser,
    top 53 bits. Counter-based, so each step's draw costs a few integer ops."""
    z = (key + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return ((z ^ (z >> 31)) >> 11) * 2.0**-53


def _stochastic_trials(sim: SimInstance) -> int:
    """Draws, with replacement from the read-row pool, until the matching row
    arrives: Geometric(1/pool), by one inverse-CDF draw keyed per step. From
    step ``_STRIDE`` on, where seed * _STRIDE + step is the next seed's key,
    the key is the step plus the seed mixed: ``_uniform(seed)``'s 53 bits."""
    pool = sim.index.pool
    if pool <= 1:
        return 1
    seed, step = sim.rng_seed, sim.step_count
    if step < _STRIDE:
        u = _uniform(seed * _STRIDE + step)
    else:
        u = _uniform(int(_uniform(seed) * 2.0**64) + step)
    return 1 + int(math.log(1.0 - u) / math.log1p(-1.0 / pool))


# a module global: on Python 3.11 ``Arrival.DETERMINISTIC`` costs over 100 ns a read
_DETERMINISTIC = Arrival.DETERMINISTIC


def step(
    sim: SimInstance, arrival: Arrival = Arrival.DETERMINISTIC
) -> tuple[SimInstance, TraceEvent | None]:
    """One match-write-move attempt; no event means the machine just halted."""
    if sim.halted:
        raise ValueError("machine already halted")
    found = sim.index.match(sim.tape.window_triple())
    if found is None:
        return replace(sim, halted=True), None
    scan_index, trna, side = found
    trials = scan_index + 1 if arrival is _DETERMINISTIC else _stochastic_trials(sim)
    after = apply_trna(trna, sim)
    state = after.__dict__  # apply_trna's fresh successor: no one else holds it yet
    state["trial_count"] += trials
    event = _new(TraceEvent)
    fields = event.__dict__  # filled in field order, it keeps sharing its keys with other events
    fields["step"] = state["step_count"]
    fields["rule_id"] = trna.rule_id
    fields["side"] = side
    fields["trials"] = trials
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
        if sim.step_count >= max_steps and sim.index.match(sim.tape.window_triple()):
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
