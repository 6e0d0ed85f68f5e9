"""Encoded tapes: one strand of state slots alternating with symbol cells.

``EncodedTape(fields, window, origin)`` describes a tape of n symbols as 2n+1
fields, slot, cell, slot, ..., cell, slot: cell i is field 2i+1 and slot i,
immediately left of it, is field 2i. Every slot holds the halt codon except at
most one, which carries the live state. The ``window`` is the index of the
symbol cell the machine will read next; its triple is fields 2w to 2w+2.
``origin`` maps cell 0 to an absolute position so grown tapes stay aligned
with a classical run. Only this module indexes the strand.

The strand is stored as a persistent zipper: the window triple, two stacks of
one entry per cell, ``(cell, slot, rest)``, holding the cells and slots left
and right of the window, nearest first, and the two rows the tape was built
from, its n cells and its n+1 slots, for the cells no move has reached yet.
Tapes never change, and each one shares all but a few fields with the tape it
was made from.

The window is always on the strand, 0 <= window < cell_count, and the tape
is edited only there: ``write`` rewrites the window and moves it one cell,
and ``grow`` extends the edge the window sits on. The constructor rejects a
window off the strand, ``write`` any other shift or one that would leave the
strand, and ``grow`` the edge the window is not on, so a move past an edge
grows that edge first. Costs, for a tape of n cells:

* O(1): ``write``, ``grow``, ``window_triple``, ``window``, ``origin``,
  ``cell_count``, ``window_abs``, and ``triple_at`` for a neighbour of the
  window that a move has reached; ``symbol_cells`` and ``state_slots`` of a
  tape no move has made, which are its rows;
* O(n) per call, nothing cached: the rest. Both rows of a moved tape come
  from one splice of the built rows and one walk of each stack, which
  ``symbol_cells``, ``state_slots``, ``decode_tape``, equality, hashing and
  ``triple_at`` anywhere else read; ``fields`` interleaves them on each read,
  for ``render``, ``repr`` and pickling.

Rendered form: all fields joined with underscores, e.g.
``001_01_111_10_111``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Literal

from .codec import Codec
from .machine import MachineSpec


class TapeError(ValueError):
    """Encoding or decoding failure."""


class EncodedTape:
    """An immutable encoded tape, equal and hashed by its cells, slots,
    window and origin, whatever history built it, and printed by its fields.
    Its window is a cell of the strand: ``0 <= window < cell_count``.

    ``_zipper`` is (triple, left, right, rows, k, m), where ``rows`` is
    (cells, slots) and ``k`` and ``m`` are cell indices. Left of the window
    lie ``cells[:k]`` and ``slots[:k]``, then the left stack; right of it,
    the right stack, then ``cells[m:]`` and ``slots[m + 1:]``. Each stack
    entry holds one cell and the slot beyond it, ``(cell, slot, rest)``.
    """

    __slots__ = ("_window", "_origin", "_cells", "_zipper")

    def __init__(self, fields: tuple[str, ...], window: int, origin: int = 0):
        fields = tuple(fields)
        if len(fields) % 2 == 0:
            raise TapeError(f"{len(fields)} fields cannot frame cells between slots")
        _root(self, fields[1::2], fields[0::2], window, origin)

    def __reduce__(self):  # by value: the stacks may nest too deep to recurse
        return EncodedTape, (self.fields, self.window, self.origin)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self._rows(), self.window, self.origin)
                == (other._rows(), other.window, other.origin))

    def __hash__(self):
        return hash((self._rows(), self.window, self.origin))

    def __repr__(self):
        return (f"{type(self).__qualname__}(fields={self.fields!r}, "
                f"window={self.window!r}, origin={self.origin!r})")

    # read-only views of three slots, read in C rather than by a Python getter
    window = property(attrgetter("_window"))
    origin = property(attrgetter("_origin"))
    cell_count = property(attrgetter("_cells"))

    @property
    def fields(self) -> tuple[str, ...]:
        cells, slots = self._rows()
        fields = [None] * (2 * self._cells + 1)
        fields[0::2], fields[1::2] = slots, cells
        return tuple(fields)

    @property
    def symbol_cells(self) -> tuple[str, ...]:
        return self._rows()[0]

    @property
    def state_slots(self) -> tuple[str, ...]:
        return self._rows()[1]

    def _rows(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The n cells and n+1 slots: the built rows before any move, else both
        spliced from those rows and one walk of each stack."""
        triple, left, right, (cells, slots), k, m = self._zipper
        if left is None and right is None:
            return cells, slots
        (left_cells, left_slots), (right_cells, right_slots) = _unstack(left), _unstack(right)
        return (cells[:k] + (*reversed(left_cells), triple[1], *right_cells) + cells[m:],
                slots[:k] + (*reversed(left_slots), triple[0], triple[2], *right_slots)
                + slots[m + 1 :])

    @property
    def window_abs(self) -> int:
        return self._origin + self._window

    def triple_at(self, pos: int) -> tuple[str, str, str]:
        """The cell at absolute position ``pos`` between the slots on either
        side of it: O(1) for a cell next to the window that a move has
        reached, read from the spliced rows elsewhere, the window's own cell
        included (``window_triple`` reads that in O(1)). A position off the
        strand raises IndexError."""
        triple, left, right, _, _, _ = self._zipper
        cell = pos - self._origin
        offset = cell - self._window
        if offset == -1 and left is not None:
            return left[1], left[0], triple[0]
        if offset == 1 and right is not None:
            return triple[2], right[0], right[1]
        if not 0 <= cell < self._cells:
            raise IndexError(f"position {pos} is off the strand of {self._cells} cells")
        cells, slots = self._rows()
        return slots[cell], cells[cell], slots[cell + 1]

    def render(self) -> str:
        return "_".join(self.fields)

    def window_triple(self) -> tuple[str, str, str]:
        return self._zipper[0]

    def write(self, row: tuple[str, str, str], shift: int) -> EncodedTape:
        """Replace the window's three fields with ``row``, then move the window
        one cell: left for a shift of -1, right for 1; any other shift raises
        TapeError. A move past either end needs ``grow`` there first."""
        slot, cell, next_slot = row
        cells = self._cells
        _, left, right, rows, k, m = self._zipper
        if shift == 1:
            w = self._window + 1
            if w == cells:
                raise _off_strand(w, cells)
            left = (cell, slot, left)
            if right is None:
                triple, m = (next_slot, rows[0][m], rows[1][m + 1]), m + 1
            else:
                near, far, right = right
                triple = (next_slot, near, far)
        elif shift == -1:
            w = self._window - 1
            if w < 0:
                raise _off_strand(w, cells)
            right = (cell, next_slot, right)
            if left is None:
                triple, k = (rows[1][k - 1], rows[0][k - 1], slot), k - 1
            else:
                near, far, left = left
                triple = (far, near, slot)
        else:
            raise TapeError(f"shift must be -1 or 1, got {shift!r}")
        return _zipped(w, self._origin, cells, (triple, left, right, rows, k, m))


def _off_strand(window: int, cells: int) -> TapeError:
    return TapeError(f"window {window} would be off the strand of {cells} cells: grow first")


def _unstack(stack) -> tuple[list[str], list[str]]:
    """The cells and the slots of a stack of ``(cell, slot, rest)`` entries, top first."""
    cells, slots = [], []
    while stack is not None:
        cell, slot, stack = stack
        cells.append(cell)
        slots.append(slot)
    return cells, slots


def _root(tape: EncodedTape, cells: tuple[str, ...], slots: tuple[str, ...], window: int,
          origin: int) -> EncodedTape:
    """Set up ``tape`` as the strand of the rows ``cells`` and ``slots`` before
    any move: both stacks empty, the window read from the rows."""
    n = len(cells)
    if not 0 <= window < n:
        raise TapeError(f"window {window} is off the strand of {n} cells")
    tape._window, tape._origin, tape._cells = window, origin, n
    triple = (slots[window], cells[window], slots[window + 1])
    tape._zipper = (triple, None, None, (cells, slots), window, window + 1)
    return tape


def _zipped(window: int, origin: int, cells: int, zipper: tuple) -> EncodedTape:
    tape = object.__new__(EncodedTape)
    tape._window, tape._origin, tape._cells, tape._zipper = window, origin, cells, zipper
    return tape


@dataclass(frozen=True)
class DecodedConfig:
    """Classical view of an encoded tape; state None means halted."""

    symbols: tuple[str, ...]
    state: str | None
    head: int | None
    origin: int

    @property
    def head_abs(self) -> int | None:
        return None if self.head is None else self.origin + self.head


def cell_row(codec: Codec, symbols: tuple[str, ...]) -> tuple[str, ...]:
    """The write codon of each symbol, looked up in one C call; a symbol with
    no codon raises KeyError naming it."""
    if len(symbols) > 1:
        return itemgetter(*symbols)(codec.symbol_write)
    return tuple(map(codec.symbol_write.__getitem__, symbols))  # itemgetter of one key is bare


def encode_tape(spec: MachineSpec, codec: Codec) -> EncodedTape:
    """Translate a machine's tape: write codons per cell, halt codons in every
    slot except the one left of the head, which holds the initial state."""
    if not spec.tape:
        raise TapeError("cannot encode an empty tape: no head cell")
    try:
        cells = cell_row(codec, spec.tape)
    except KeyError as e:
        raise TapeError(f"tape symbol {e.args[0]!r} has no codon") from None
    if spec.initial_state not in codec.state_write:
        raise TapeError(f"initial state {spec.initial_state!r} has no codon")
    slots = [codec.halt_state] * (len(cells) + 1)
    slots[spec.head] = codec.state_write[spec.initial_state]
    return _root(object.__new__(EncodedTape), cells, tuple(slots), spec.head, 0)


def grow(tape: EncodedTape, side: Literal["left", "right"], default_codon: str) -> EncodedTape:
    """Extend the edge the window sits on by one default-symbol cell plus one
    halt slot, in O(1): that side's stack is empty, and the new cell becomes
    its only entry. Growing an edge the window is not on raises TapeError."""
    w, cells, origin = tape._window, tape._cells, tape._origin
    triple, left, right, rows, k, m = tape._zipper
    halt = "1" * len(triple[0])
    entry = (default_codon, halt, None)  # a stack of the new cell alone
    if side == "right":
        if w != cells - 1:
            raise TapeError(f"window {w} is not on the right edge of {cells} cells")
        return _zipped(w, origin, cells + 1, (triple, left, entry, rows, k, m))
    if side == "left":
        if w != 0:
            raise TapeError(f"window {w} is not on the left edge of {cells} cells")
        return _zipped(1, origin - 1, cells + 1, (triple, entry, right, rows, k, m))
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def decode_tape(tape: EncodedTape, codec: Codec) -> DecodedConfig:
    """Invert the encoding back to (symbols, state, head).

    The head is the window cell when the live slot flanks it (a slot between
    two cells belongs to whichever side the machine is facing); for a tape
    not produced by a simulation the state is taken to sit left of its cell.

    Each cell is named by one ``Codec.symbol_name`` call, never by the reverse
    dict directly: perfbench counts reverse lookups by wrapping that method,
    and its smoke test requires at least one per decoded cell.
    """
    cells, slots = tape._rows()
    name = codec.symbol_name  # called inline, not from C as map would: faster on 3.11
    symbols = tuple([name(cell) for cell in cells])
    if not all(symbols) and None in symbols:
        i = symbols.index(None)
        raise TapeError(f"cell {i}: {cells[i]} decodes to no known symbol")
    halt, w = codec.halt_state, tape.window
    live = len(slots) - slots.count(halt)
    if not live:
        return DecodedConfig(
            symbols=symbols, state=None, head=None, origin=tape.origin
        )
    if live > 1:
        live_at = [i for i, slot in enumerate(slots) if slot != halt]
        raise TapeError(f"more than one live state slot: {live_at}")
    if slots[w] != halt:
        slot_index, head = w, w
    elif slots[w + 1] != halt:
        slot_index, head = w + 1, w
    else:
        slot_index = next(i for i, slot in enumerate(slots) if slot != halt)
        head = min(slot_index, tape.cell_count - 1)
    state = codec.state_name(slots[slot_index])
    if state is None:
        raise TapeError(
            f"slot {slot_index}: {slots[slot_index]} decodes to no known state"
        )
    return DecodedConfig(
        symbols=symbols, state=state, head=head, origin=tape.origin
    )
