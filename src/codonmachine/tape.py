"""Encoded tapes: one strand of state slots alternating with symbol cells.

``EncodedTape(fields, window, origin)`` stores a tape of n symbols as 2n+1
fields, slot, cell, slot, ..., cell, slot: cell i is field 2i+1 and slot i,
immediately left of it, is field 2i. Every slot holds the halt codon except at
most one, which carries the live state. The ``window`` is the index of the
symbol cell the machine will read next; its triple is fields 2w to 2w+2.
``origin`` maps cell 0 to an absolute position so grown tapes stay aligned
with a classical run. Only this module indexes the strand; ``state_slots`` and
``symbol_cells`` are O(n) copies for decoding and inspection, not for a step.

Rendered form: all fields joined with underscores, e.g.
``001_01_111_10_111``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .codec import Codec
from .machine import MachineSpec


class TapeError(ValueError):
    """Encoding or decoding failure."""


@dataclass(frozen=True)
class EncodedTape:
    fields: tuple[str, ...]
    window: int
    origin: int = 0

    def __post_init__(self):
        if len(self.fields) % 2 == 0:
            raise TapeError(f"{len(self.fields)} fields cannot frame cells between slots")

    @property
    def state_slots(self) -> tuple[str, ...]:
        return self.fields[0::2]

    @property
    def symbol_cells(self) -> tuple[str, ...]:
        return self.fields[1::2]

    @property
    def cell_count(self) -> int:
        return len(self.fields) // 2

    @property
    def window_abs(self) -> int:
        return self.origin + self.window

    def cell_at(self, pos: int) -> str:
        return self.fields[2 * (pos - self.origin) + 1]

    def slot_at(self, pos: int) -> str:
        """The slot immediately left of the cell at absolute position ``pos``."""
        return self.fields[2 * (pos - self.origin)]

    def render(self) -> str:
        return "_".join(self.fields)

    def window_triple(self) -> tuple[str, str, str]:
        w = 2 * self.window
        return self.fields[w : w + 3]

    def write(self, row: tuple[str, str, str], shift: int) -> EncodedTape:
        """Replace the window's three fields with ``row``, then move the window
        ``shift`` cells. A window moved past either end waits for ``grow``."""
        slot, cell, next_slot = row
        w = 2 * self.window
        fields = self.fields[:w] + (slot, cell, next_slot) + self.fields[w + 3 :]
        return EncodedTape(fields, self.window + shift, self.origin)


@dataclass(frozen=True)
class DecodedConfig:
    """Classical view of an encoded tape; state None means halted."""

    symbols: tuple[str, ...]
    state: str | None
    head: int | None
    origin: int = 0

    @property
    def head_abs(self) -> int | None:
        return None if self.head is None else self.origin + self.head


def encode_tape(spec: MachineSpec, codec: Codec) -> EncodedTape:
    """Translate a machine's tape: write codons per cell, halt codons in every
    slot except the one left of the head, which holds the initial state."""
    if not spec.tape:
        raise TapeError("cannot encode an empty tape: no head cell")
    try:
        cells = [codec.symbol_write[s] for s in spec.tape]
    except KeyError as e:
        raise TapeError(f"tape symbol {e.args[0]!r} has no codon") from None
    if spec.initial_state not in codec.state_write:
        raise TapeError(f"initial state {spec.initial_state!r} has no codon")
    fields = [codec.halt_state] * (2 * len(cells) + 1)
    fields[1::2] = cells
    fields[2 * spec.head] = codec.state_write[spec.initial_state]
    return EncodedTape(tuple(fields), window=spec.head, origin=0)


def grow(tape: EncodedTape, side: Literal["left", "right"], default_codon: str) -> EncodedTape:
    """Extend by one default-symbol cell plus one halt slot on the given side."""
    halt = "1" * len(tape.fields[0])
    if side == "right":
        return EncodedTape(tape.fields + (default_codon, halt), tape.window, tape.origin)
    if side == "left":
        return EncodedTape((halt, default_codon) + tape.fields, tape.window + 1, tape.origin - 1)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def decode_tape(tape: EncodedTape, codec: Codec) -> DecodedConfig:
    """Invert the encoding back to (symbols, state, head).

    The head is the window cell when the live slot flanks it (a slot between
    two cells belongs to whichever side the machine is facing); for a tape
    not produced by a simulation the state is taken to sit left of its cell.
    """
    symbols = []
    for i, cell in enumerate(tape.symbol_cells):
        name = codec.symbol_name(cell)
        if name is None:
            raise TapeError(f"cell {i}: {cell} decodes to no known symbol")
        symbols.append(name)
    halt = codec.halt_state
    slots = tape.state_slots
    live = [i for i, slot in enumerate(slots) if slot != halt]
    if not live:
        return DecodedConfig(
            symbols=tuple(symbols), state=None, head=None, origin=tape.origin
        )
    if len(live) > 1:
        raise TapeError(f"more than one live state slot: {live}")
    slot_index = live[0]
    state = codec.state_name(slots[slot_index])
    if state is None:
        raise TapeError(
            f"slot {slot_index}: {slots[slot_index]} decodes to no known state"
        )
    if tape.window in (slot_index - 1, slot_index):
        head = tape.window
    else:
        head = slot_index
    if not 0 <= head < tape.cell_count:
        head = slot_index - 1 if slot_index == tape.cell_count else slot_index
    return DecodedConfig(
        symbols=tuple(symbols), state=state, head=head, origin=tape.origin
    )
