"""Compile 5-tuple rules into tRNA records.

A tRNA holds up to two read rows, a move row, and a write row, each a
(state-width, symbol-width, state-width) triple of bit fields:

* read row, state on left:  (read(state), read(symbol), zeros)
* read row, state on right: (zeros, read(symbol), read(state))
* move row: all ones; a left-moving rule clears the leading bit (the "hole"
  the machine grips to drag the tape the other way)
* write row: left move  -> (write(next), write(symbol), halt)
             right move -> (halt, write(symbol), write(next))
             halt       -> (halt, write(symbol), halt)

A read row matches a tape window exactly when it equals the fieldwise bitwise
complement of the window's (slot, cell, slot) content.

Dual compilation emits both read rows for every rule, so the machine works no
matter which side the previous move parked the state on, at the cost of twice
the pool. Inferred compilation derives the needed sides per state from which
directions ever enter it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum

from .codec import Codec, read_form
from .machine import MachineSpec, Move, Rule, format_rule


class Side(Enum):
    STATE_ON_LEFT = "left"
    STATE_ON_RIGHT = "right"

    # members are singletons, so identity hashes them; Enum's own __hash__
    # is Python code, run on every ``in sides`` test and every Counter key
    __hash__ = object.__hash__


class CompileMode(Enum):
    DUAL = "dual"
    INFERRED = "inferred"


Row = tuple[str, str, str]


class TrnaError(ValueError):
    """Rule references a name the codec does not cover."""


@dataclass(frozen=True)
class Trna:
    rule_id: int  # 1-based rule number as printed in rule tables
    rule: Rule
    reads: tuple[tuple[Side, Row], ...]
    hole: bool
    write: Row

    def read_row(self, side: Side) -> Row | None:
        for s, row in self.reads:
            if s is side:
                return row
        return None


_new, _set = object.__new__, object.__setattr__
# Enum members as globals: on Python 3.11 ``Move.HALT`` costs over 100 ns a read
_HALT, _LEFT = Move.HALT, Move.LEFT
_ON_LEFT, _ON_RIGHT = Side.STATE_ON_LEFT, Side.STATE_ON_RIGHT


def compile_rule(rule: Rule, rule_id: int, codec: Codec, sides: frozenset[Side]) -> Trna:
    """One rule to one tRNA carrying a read row per requested side.

    The record is built without the frozen dataclass ``__init__``, its fields
    set in one dict in field order, because a compile builds one per rule."""
    if not sides:
        raise ValueError("at least one side required")
    try:
        state = codec.state_write[rule.state]
        symbol = codec.symbol_write[rule.read_symbol]
        write_symbol = codec.symbol_write[rule.write_symbol]
    except KeyError as e:
        raise TrnaError(f"no codon for {e.args[0]!r}") from None
    halt, move = codec.halt_state, rule.move
    zeros = "0" * codec.state_len
    if move is _HALT:
        write = (halt, write_symbol, halt)
    else:
        next_state = codec.state_write.get(rule.next_state)
        if next_state is None:
            raise TrnaError(f"no codon for {rule.next_state!r}")
        if move is _LEFT:
            write = (next_state, write_symbol, halt)
        else:
            write = (halt, write_symbol, next_state)
    read_state, read_symbol = read_form(state), read_form(symbol)
    reads = []
    if _ON_LEFT in sides:
        reads.append((_ON_LEFT, (read_state, read_symbol, zeros)))
    if _ON_RIGHT in sides:
        reads.append((_ON_RIGHT, (zeros, read_symbol, read_state)))
    trna = _new(Trna)
    _set(trna, "__dict__", {"rule_id": rule_id, "rule": rule, "reads": tuple(reads),
                            "hole": move is _LEFT, "write": write})
    return trna


def infer_sides(spec: MachineSpec) -> tuple[dict[str, frozenset[Side]], list[str]]:
    """Which side(s) the state can be parked on when each state is entered.

    A state entered by a right move (or the initial state) finds itself left
    of the head; one entered by a left move, right of the head. Returns the
    per-state sides and warnings for states with outgoing rules that are never
    entered (those compile as state-on-left). A state the rules name but the
    spec does not declare gets sides too, so that compiling its rule raises
    the same ``TrnaError`` in both modes.
    """
    sides: dict[str, set[Side]] = defaultdict(set, {s: set() for s in spec.states})
    sides[spec.initial_state].add(Side.STATE_ON_LEFT)
    for r in spec.rules:
        if r.next_state is None:
            continue
        if r.move is Move.RIGHT:
            sides[r.next_state].add(Side.STATE_ON_LEFT)
        elif r.move is Move.LEFT:
            sides[r.next_state].add(Side.STATE_ON_RIGHT)
    warnings = []
    for r in spec.rules:
        if not sides[r.state]:
            warnings.append(
                f"state {r.state!r} has rules but is never entered; "
                "compiling state-on-left"
            )
            sides[r.state].add(Side.STATE_ON_LEFT)
    return {s: frozenset(v) for s, v in sides.items()}, warnings


def compile_ruleset(
    spec: MachineSpec, codec: Codec, mode: CompileMode = CompileMode.DUAL
) -> list[Trna]:
    """Compile every rule; dual mode gives every state both sides."""
    sides = infer_sides(spec)[0] if mode is CompileMode.INFERRED else {}
    both = frozenset(Side)
    return [
        compile_rule(r, i + 1, codec, sides.get(r.state, both))
        for i, r in enumerate(spec.rules)
    ]


def move_row(t: Trna) -> Row:
    """All ones, with the leading bit cleared (the hole) on a left move."""
    state_ones = "1" * len(t.write[0])
    symbol_ones = "1" * len(t.write[1])
    first = "0" + state_ones[1:] if t.hole else state_ones
    return (first, symbol_ones, state_ones)


def _join(row: Row) -> str:
    return "_".join(row)


def render_trna(t: Trna) -> str:
    """Printable block for one tRNA.

    Single-sided records list one ``read:`` row; dual records list a quoted
    summary row plus ``read1:``/``read2:``.
    """
    lines = [f"{t.rule_id}. {format_rule(t.rule)}:"]
    left = t.read_row(Side.STATE_ON_LEFT)
    right = t.read_row(Side.STATE_ON_RIGHT)
    if left and right:
        lines.append(f"read: '{left[0]}'_{left[1]}_'{left[2]}'")
        lines.append(f"read1: {_join(left)}")
        lines.append(f"read2: {_join(right)}")
    else:
        lines.append(f"read: {_join(left or right)}")
    lines.append(f"R/L: {_join(move_row(t))}")
    lines.append(f"write: {_join(t.write)}")
    return "\n".join(lines)


def render_trna_listing(trnas: list[Trna]) -> str:
    """Blank-line separated blocks, one per tRNA."""
    return "\n\n".join(render_trna(t) for t in trnas)
