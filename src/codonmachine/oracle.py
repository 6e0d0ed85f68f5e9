"""Classical reference interpreter and the lockstep equivalence check.

The classical interpreter runs the 5-tuple table over a sparse absolute-
position tape. The bisimulation runs it side by side with the mechanical
simulation. The mechanical tape must agree with the classical configuration
on state, absolute head position, and the symbol content of every position
either run has touched, and on every step both must fire a rule or both must
halt. The freshly encoded tape is checked in codons against the initial
configuration; each step is checked where it wrote, also in codons; and only
the tape at the end (the halt or the budget) is decoded and compared whole,
over the mechanical strand, which holds every position the classical tape
records. Names are looked up only to report a divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

from .codec import Codec, build_codec
from .machine import MachineSpec, Move, Rule
from .sim import DEFAULT_MAX_STEPS, Arrival, Outcome, iter_run, new_sim
from .tape import DecodedConfig, EncodedTape, decode_tape
from .trna import CompileMode, Trna

RunOutcome = Outcome  # the oracle's public name for sim.Outcome


@dataclass
class ClassicalConfig:
    """Sparse tape (default elsewhere), state (None = halted), head position."""

    symbols: dict[int, str] = field(default_factory=dict)
    state: str | None = None
    head: int = 0


def initial_config(spec: MachineSpec) -> ClassicalConfig:
    return ClassicalConfig(
        symbols=dict(enumerate(spec.tape)), state=spec.initial_state, head=spec.head
    )


_RuleTable = dict[tuple[str, str], Rule]


def _rule_table(spec: MachineSpec) -> _RuleTable:
    return {(r.state, r.read_symbol): r for r in spec.rules}


def _classical_step(
    table: _RuleTable, default_symbol: str, cfg: ClassicalConfig, probe: bool = False
) -> bool:
    """Fire the rule under the head, updating ``cfg`` in place; ``probe`` only
    looks. A missing rule is a stuck halt: the state becomes None and the
    result is False."""
    rule = table.get((cfg.state, cfg.symbols.get(cfg.head, default_symbol)))
    if rule is None:
        cfg.state = None
        return False
    if probe:
        return True
    cfg.symbols[cfg.head] = rule.write_symbol
    if rule.move is Move.HALT:
        cfg.state = None
    else:
        cfg.head += 1 if rule.move is Move.RIGHT else -1
        cfg.state = rule.next_state
    return True


def tm_step(spec: MachineSpec, cfg: ClassicalConfig) -> ClassicalConfig:
    """One classical step on a copy of ``cfg``; a missing rule is a stuck
    halt, not an error."""
    if cfg.state is None:
        raise ValueError("machine already halted")
    nxt = ClassicalConfig(dict(cfg.symbols), cfg.state, cfg.head)
    _classical_step(_rule_table(spec), spec.default_symbol, nxt)
    return nxt


@dataclass
class TmRunResult:
    config: ClassicalConfig
    steps: int
    outcome: Outcome
    min_pos: int
    max_pos: int

    def tape_string(self, spec: MachineSpec, lo: int | None = None, hi: int | None = None) -> str:
        lo = self.min_pos if lo is None else lo
        hi = self.max_pos if hi is None else hi
        return "".join(
            self.config.symbols.get(p, spec.default_symbol) for p in range(lo, hi + 1)
        )


def tm_run(spec: MachineSpec, max_steps: int = DEFAULT_MAX_STEPS) -> TmRunResult:
    """Step the classical table until halt or the budget, tracking the touched
    extent (initial cells + visits). As in ``sim.iter_run``, a machine stuck
    exactly at the budget reports the halt."""
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    table = _rule_table(spec)
    cfg = initial_config(spec)
    lo = min(0, cfg.head)
    hi = max(len(spec.tape) - 1, cfg.head)
    steps = 0
    while cfg.state is not None and steps < max_steps:
        if _classical_step(table, spec.default_symbol, cfg):
            steps += 1
            lo, hi = min(lo, cfg.head), max(hi, cfg.head)
    if cfg.state is not None:
        _classical_step(table, spec.default_symbol, cfg, probe=True)
    outcome = Outcome.HALTED if cfg.state is None else Outcome.STEP_LIMIT
    return TmRunResult(config=cfg, steps=steps, outcome=outcome, min_pos=lo, max_pos=hi)


@dataclass(frozen=True)
class Divergence:
    step: int
    kind: str  # "state" | "head" | "symbols" | "halting"
    mechanical: str
    classical: str


@dataclass(frozen=True)
class BisimVerdict:
    passed: bool
    steps: int
    outcome: Outcome | None  # None on a divergence
    divergence: Divergence | None = None


def _compare(
    spec: MachineSpec, step: int, cfg: ClassicalConfig, cells, states: list[str], head,
    codec: Codec | None = None,
) -> Divergence | None:
    """The first disagreement with ``cfg``: halting, then ``cells`` ((position,
    symbol) in order), then the live slots' ``states``, then ``head``.

    Cells and states are names, or with ``codec`` write codons, which are
    compared with the codons of the classical names and looked up by name only
    for a report; a codon that has no name is reported raw."""
    halted = not states
    if halted != (cfg.state is None):
        return Divergence(step, "halting", str(halted), str(cfg.state is None))
    for p, m in cells:
        c = cfg.symbols.get(p, spec.default_symbol)
        if m != (c if codec is None else codec.symbol_write.get(c)):
            shown = m if codec is None else codec.symbol_name(m) or m
            return Divergence(step, "symbols", f"{p}:{shown}", f"{p}:{c}")
    if halted:
        return None
    if states != [cfg.state if codec is None else codec.state_write.get(cfg.state)]:
        shown = states if codec is None else [codec.state_name(s) or s for s in states]
        return Divergence(step, "state", ",".join(shown), str(cfg.state))
    if head != cfg.head:
        return Divergence(step, "head", str(head), str(cfg.head))
    return None


def _divergence(
    spec: MachineSpec, step: int, decoded: DecodedConfig, cfg: ClassicalConfig
) -> Divergence | None:
    """Compare a whole decoded tape with ``cfg`` over the mechanical strand,
    which holds every position of ``cfg.symbols`` at each compare
    ``bisimulate`` makes (see its docstring)."""
    mech, origin = decoded.symbols, decoded.origin
    positions = range(origin, origin + len(mech))
    classical = tuple(map(cfg.symbols.get, positions, repeat(spec.default_symbol)))
    cells = () if mech == classical else zip(positions, mech)
    states = [] if decoded.state is None else [decoded.state]
    return _compare(spec, step, cfg, cells, states, decoded.head_abs)


def _initial_divergence(
    spec: MachineSpec, codec: Codec, tape: EncodedTape, cfg: ClassicalConfig
) -> Divergence | None:
    """The base case: compare the freshly encoded ``tape`` with the initial
    ``cfg`` in codons. A strand from origin 0 whose cells are the codons of
    ``spec.tape`` and whose one live slot, left of the window on the classical
    head, holds the codon of the classical state passes without a name looked
    up: ``build_codec`` rejects duplicate codons, so equal codons are equal
    names, and that strand decodes to exactly ``cfg``. Any other strand is
    decoded and compared whole, so its divergence or ``TapeError`` is
    ``_divergence``'s."""
    slots, window = tape.state_slots, tape.window
    if (
        tape.origin == 0
        and window == cfg.head
        and slots[window] == codec.state_write.get(cfg.state)
        and len(slots) - slots.count(codec.halt_state) == 1
        and tape.symbol_cells == tuple(map(codec.symbol_write.get, spec.tape))
    ):
        return None
    return _divergence(spec, 0, decode_tape(tape, codec), cfg)


def _written_divergence(
    spec: MachineSpec, codec: Codec, step: int, pos: int, tape: EncodedTape, cfg: ClassicalConfig
) -> Divergence | None:
    """Compare what one step wrote on ``tape``: cell ``pos``, the slots on either
    side, and the cell the window moved onto (which a grow adds), by absolute
    position, as a left grow shifts indices. Codons are compared, not names."""
    window = tape.window_abs
    slot, cell, next_slot = tape.triple_at(pos)
    seen = tape.window_triple()[1]
    halt, write = codec.halt_state, codec.symbol_write
    symbols, default = cfg.symbols, spec.default_symbol
    # what a step leaves while the machine runs: the live state on the slot
    # between the written cell and the window, the halt codon on the other
    live = codec.state_write.get(cfg.state)
    flank = (halt, live) if pos == window - 1 else (live, halt) if pos == window + 1 else None
    if (
        (slot, next_slot) == flank
        and window == cfg.head
        and cell == write.get(symbols.get(pos, default))
        and seen == write.get(symbols.get(window, default))
    ):
        return None
    written, moved = (pos, cell), (window, seen)
    cells = (written, moved) if pos <= window else (moved, written)
    states = [s for s in (slot, next_slot) if s != halt]
    first = pos if slot != halt else pos + 1  # the leftmost live slot, if any
    head = window
    if states and first - window not in (0, 1):
        head = f"slot {first}, window {window}"
    return _compare(spec, step, cfg, cells, states, head, codec)


def bisimulate(
    spec: MachineSpec,
    codec: Codec | None = None,
    mode: CompileMode = CompileMode.DUAL,
    max_steps: int = DEFAULT_MAX_STEPS,
    trnas: list[Trna] | None = None,
) -> BisimVerdict:
    """Prove the mechanical run equivalent to the classical run, step by step.

    The mechanical side is ``sim.iter_run`` with deterministic arrival, and
    the classical side follows the same budget rule. ``trnas`` substitutes the
    compiled ruleset on the mechanical side only (useful to demonstrate that a
    corrupted compile is caught).

    The base case compares the encoded tape with the initial configuration
    in codons (see ``_initial_divergence``), so a passing run decodes one
    whole tape, at the end: at a halt before the classical side probes for a
    stuck rule, at the budget after it. That compare stays a decode, one
    ``Codec.symbol_name`` per cell, because perfbench counts those lookups
    and its smoke test requires them. It covers the mechanical strand alone,
    which holds every position of the classical tape: the strand starts as
    the initial tape and never shrinks, the classical side writes only at its
    head, and before each classical step a passing check has pinned that head
    to a cell of the strand (the window, or the decoded head where the base
    case decodes).

    Each step in between is checked by induction. If the tape equals the
    classical configuration and its one live slot flanks the window, every
    other slot holds the halt codon, so the matched window holds that slot.
    The write then replaces slot[w], cell[w] and slot[w+1], the only cells a
    step can change besides a grown default cell, so checking them (and that
    the one live slot left flanks the new window) keeps the invariant. The
    check compares codons with the codons of the classical symbols and state,
    and looks names up only to report a divergence, so a raw codon that
    spells the expected name does not pass.
    """
    if codec is None:
        codec = build_codec(spec)
    sim = new_sim(spec, codec, mode, trnas=trnas)
    table = _rule_table(spec)
    cfg = initial_config(spec)
    steps, written = 0, None  # absolute position of the cell the last step wrote
    divergence = _initial_divergence(spec, codec, sim.tape, cfg)
    for after, event in iter_run(sim, Arrival.DETERMINISTIC, max_steps):
        # check the tape this step starts from, then whether both sides fire
        if divergence is None and written is not None:
            divergence = _written_divergence(spec, codec, steps, written, sim.tape, cfg)
        if divergence is None and event is None:
            divergence = _divergence(spec, steps, decode_tape(sim.tape, codec), cfg)
        fired = _classical_step(table, spec.default_symbol, cfg)
        if divergence is None and fired != (event is not None):
            divergence = Divergence(steps, "halting", str(event is None), str(not fired))
        if divergence:
            return BisimVerdict(False, steps, None, divergence)
        written, sim = sim.tape.window_abs, after
        steps += event is not None
    if not sim.halted:
        # iter_run stopped at the budget after its halt check found a rule
        _classical_step(table, spec.default_symbol, cfg, probe=True)
        divergence = _written_divergence(spec, codec, steps, written, sim.tape, cfg)
        divergence = divergence or _divergence(spec, steps, decode_tape(sim.tape, codec), cfg)
        if divergence:
            return BisimVerdict(False, steps, None, divergence)
    return BisimVerdict(True, steps, Outcome.HALTED if sim.halted else Outcome.STEP_LIMIT)
