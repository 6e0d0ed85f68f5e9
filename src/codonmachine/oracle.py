"""Classical reference interpreter and the lockstep equivalence check.

The classical interpreter runs the 5-tuple table over a sparse absolute-
position tape: a cell is read from the written ``symbols``, then from the
``base`` tuple, then as the default symbol. Every classical run starts from
the spec's tape as ``base``, shared and never copied, and records only the
writes; a rule is looked up as what it does: the symbol it writes, the head
shift and the next state. The configurations that ``initial_config``,
``tm_step`` and ``tm_run`` return come from one conversion that puts every
cell in ``symbols``. The bisimulation runs the interpreter side by side with
the mechanical simulation. The mechanical tape must agree with the classical
configuration on state, absolute head position, and the symbol content of
every position either run has touched, and on every step both must fire a
rule or both must halt. The freshly encoded tape is checked in codons against
the initial configuration; each step is checked where it wrote, also in
codons; and only the tape at the end (the halt or the budget) is decoded and
compared whole, over the mechanical strand, which holds every position the
classical tape records. Names are looked up only to report a divergence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codec import Codec, build_codec
from .machine import MachineSpec, Move
from .sim import DEFAULT_MAX_STEPS, Arrival, Outcome, iter_run, new_sim
from .tape import DecodedConfig, EncodedTape, cell_row, decode_tape
from .trna import CompileMode, Trna


@dataclass
class ClassicalConfig:
    """Sparse tape, state (None = halted), head position.

    A cell is read from ``symbols`` (the cells written over ``base``, or every
    cell when ``base`` is empty), then from ``base`` (cells 0 onwards), then
    as the default symbol."""

    symbols: dict[int, str]
    state: str | None
    head: int
    base: tuple[str, ...] = ()

    def symbol_at(self, p: int, default: str) -> str:
        symbol = self.symbols.get(p)
        if symbol is None:
            symbol = self.base[p] if 0 <= p < len(self.base) else default
        return symbol


def _start(spec: MachineSpec) -> ClassicalConfig:
    """The start of every classical run: no writes over the spec's tape."""
    return ClassicalConfig({}, spec.initial_state, spec.head, base=spec.tape)


def _full(cfg: ClassicalConfig) -> ClassicalConfig:
    """``cfg`` as callers get it: a copy with every cell in ``symbols``, the
    ``base`` cells first (copied once: ``|`` would copy them twice)."""
    symbols = dict(enumerate(cfg.base))
    symbols |= cfg.symbols
    return ClassicalConfig(symbols, cfg.state, cfg.head)


def initial_config(spec: MachineSpec) -> ClassicalConfig:
    return _full(_start(spec))


# what a rule does: (write symbol, head shift, next state); a halt shifts 0 to None
_RuleTable = dict[tuple[str, str], tuple[str, int, str | None]]


def _rule_table(spec: MachineSpec) -> _RuleTable:
    halt, right = Move.HALT, Move.RIGHT  # tested by identity: Enum members hash in Python
    return {(r.state, r.read_symbol): (r.write_symbol, 0, None) if r.move is halt
            else (r.write_symbol, 1 if r.move is right else -1, r.next_state) for r in spec.rules}


def _classical_step(
    table: _RuleTable, default_symbol: str, cfg: ClassicalConfig, probe: bool = False
) -> bool:
    """Fire the rule under the head, updating ``cfg`` in place; ``probe`` only
    looks. A missing rule is a stuck halt: the state becomes None and the
    result is False. A written head cell is read inline, as this runs on every
    lockstep step, and every other through ``ClassicalConfig.symbol_at``."""
    head = cfg.head
    symbol = cfg.symbols.get(head) or cfg.symbol_at(head, default_symbol)
    action = table.get((cfg.state, symbol))
    if action is None:
        cfg.state = None
        return False
    if not probe:
        cfg.symbols[head], shift, cfg.state = action
        cfg.head = head + shift
    return True


def tm_step(spec: MachineSpec, cfg: ClassicalConfig) -> ClassicalConfig:
    """One classical step on a copy of ``cfg``; a missing rule is a stuck
    halt, not an error."""
    if cfg.state is None:
        raise ValueError("machine already halted")
    nxt = _full(cfg)
    _classical_step(_rule_table(spec), spec.default_symbol, nxt)
    return nxt


@dataclass
class TmRunResult:
    config: ClassicalConfig
    steps: int
    outcome: Outcome
    min_pos: int
    max_pos: int

    def tape_string(self, spec: MachineSpec) -> str:
        return "".join(self.config.symbols.get(p, spec.default_symbol)
                       for p in range(self.min_pos, self.max_pos + 1))


def tm_run(spec: MachineSpec, max_steps: int = DEFAULT_MAX_STEPS) -> TmRunResult:
    """Step the classical table until halt or the budget. As in
    ``sim.iter_run``, a machine stuck exactly at the budget reports the halt.
    A stuck halt, like a halt rule, leaves ``config.state`` None; ``run``'s
    final tape keeps the stuck state. The touched extent (cells 0 to the
    tape's end when it has cells, and every head position) is read at the
    end: each step writes the cell it leaves, so the writes and the final head
    hold every position."""
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    table, default, cfg, steps = _rule_table(spec), spec.default_symbol, _start(spec), 0
    while cfg.state is not None and steps < max_steps:
        steps += _classical_step(table, default, cfg)
    if cfg.state is not None:
        _classical_step(table, default, cfg, probe=True)
    outcome = Outcome.HALTED if cfg.state is None else Outcome.STEP_LIMIT
    ends = (0, len(spec.tape) - 1) if spec.tape else (cfg.head,)
    lo = min(*ends, cfg.head, *cfg.symbols)
    hi = max(*ends, cfg.head, *cfg.symbols)
    return TmRunResult(_full(cfg), steps, outcome, min_pos=lo, max_pos=hi)


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
        c = cfg.symbol_at(p, spec.default_symbol)
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
    which holds every position of ``cfg`` at each compare ``bisimulate``
    makes (see its docstring). The classical row is the default symbol, then
    the part of ``base`` on the strand, then the writes on the strand."""
    mech, origin = decoded.symbols, decoded.origin
    end = origin + len(mech)
    base = cfg.base
    lo = max(origin, 0)
    hi = max(min(end, len(base)), lo)
    classical = [spec.default_symbol] * len(mech)
    classical[lo - origin : hi - origin] = base[lo:hi]
    for p, symbol in cfg.symbols.items():
        if origin <= p < end:
            classical[p - origin] = symbol
    positions = range(origin, end)
    cells = () if mech == tuple(classical) else zip(positions, mech)
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
    ):
        try:
            if tape.symbol_cells == cell_row(codec, spec.tape):
                return None
        except KeyError:  # a spec symbol with no codon: decoded below
            pass
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
    # what a step leaves while the machine runs: the live state on the slot
    # between the written cell and the window, the halt codon on the other
    live = codec.state_write.get(cfg.state)
    offset = pos - window
    if window == cfg.head and (
        offset == -1 and slot == halt and next_slot == live
        or offset == 1 and slot == live and next_slot == halt
    ):
        symbols, default = cfg.symbols, spec.default_symbol
        at_pos = symbols.get(pos) or cfg.symbol_at(pos, default)
        at_window = symbols.get(window) or cfg.symbol_at(window, default)
        if cell == write.get(at_pos) and seen == write.get(at_window):
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

    Each pass of the loop checks the tape its step starts from at one site:
    the first pass is the base case, which compares the encoded tape with the
    initial configuration in codons (see ``_initial_divergence``), and every
    later pass checks what the last step wrote. So a passing run decodes one
    whole tape, at the end: at a halt before the classical side probes for a
    stuck rule, at the budget after it. That compare stays a decode, one
    ``Codec.symbol_name`` per cell, because perfbench counts those lookups
    and its smoke test requires them. It covers the mechanical strand alone,
    which holds every position of the classical tape: the strand starts as
    the initial tape, which is the classical side's ``base``, and never
    shrinks; the classical side writes only at its head; and before each
    classical step a passing check has pinned that head to a cell of the
    strand (the window, or the decoded head where the base case decodes).

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
    table, cfg = _rule_table(spec), _start(spec)
    written = None  # absolute position of the cell the last step wrote
    for after, event in iter_run(sim, Arrival.DETERMINISTIC, max_steps):
        # check the tape this step starts from, then whether both sides fire
        steps = sim.step_count
        if written is None:
            divergence = _initial_divergence(spec, codec, sim.tape, cfg)
        else:
            divergence = _written_divergence(spec, codec, steps, written, sim.tape, cfg)
        if event is None:
            divergence = divergence or _divergence(spec, steps, decode_tape(sim.tape, codec), cfg)
        fired = _classical_step(table, spec.default_symbol, cfg)
        if fired != (event is not None):
            divergence = divergence or Divergence(
                steps, "halting", str(event is None), str(not fired))
        if divergence:
            return BisimVerdict(False, steps, None, divergence)
        written, sim = sim.tape.window_abs, after
    steps = sim.step_count
    if not sim.halted:
        # iter_run stopped at the budget after its halt check found a rule
        _classical_step(table, spec.default_symbol, cfg, probe=True)
        divergence = _written_divergence(spec, codec, steps, written, sim.tape, cfg)
        divergence = divergence or _divergence(spec, steps, decode_tape(sim.tape, codec), cfg)
        if divergence:
            return BisimVerdict(False, steps, None, divergence)
    return BisimVerdict(True, steps, Outcome.HALTED if sim.halted else Outcome.STEP_LIMIT)
