"""Balanced codons and the symbol/state <-> codon assignment.

A codon is a fixed-length bit string written most-significant-bit first. A
write-form codon is balanced: exactly floor(n/2) of its n bits are ones. The
matching read form is the bitwise complement (lock and key). The halt state
gets the all-ones codon of the state length; it is never balanced, so it sits
outside the enumerable capacity and is never assigned to a named state.

Symbol codons must have even length; state codons may be odd or even.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from .machine import FsmSpec, MachineSpec, _name


class CodecError(ValueError):
    """Bad codon assignment: wrong length/balance, duplicate, or overflow."""


def capacity(n: int) -> int:
    """Number of balanced codons of length n: C(n, floor(n/2))."""
    if n < 1:
        raise ValueError(f"codon length must be positive, got {n}")
    return math.comb(n, n // 2)


def enumerate_balanced(n: int) -> list[str]:
    """All length-n bit strings with exactly floor(n/2) ones, numerically ascending."""
    if n < 1:
        raise ValueError(f"codon length must be positive, got {n}")
    return list(_balanced(n))


def _balanced(n: int) -> Iterator[str]:
    """The balanced codons of a positive length n, numerically ascending, on demand."""
    k = n // 2
    if k == 0:
        yield "0" * n
        return
    v = (1 << k) - 1
    limit = 1 << n
    while v < limit:
        yield format(v, f"0{n}b")
        # Gosper's hack: next integer with the same popcount
        low = v & -v
        ripple = v + low
        v = ripple | (((v ^ ripple) >> 2) // low)


_FLIP = str.maketrans("01", "10")


def read_form(codon: str) -> str:
    """Bitwise complement of a 0/1 string; an involution mapping write forms
    to read forms. Any other character passes through unchanged, so callers
    pass only bit strings (``build_codec`` admits no other codon)."""
    return codon.translate(_FLIP)


def min_lengths(num_symbols: int, num_states: int) -> tuple[int, int]:
    """Smallest even symbol length and smallest state length with room.

    The halt codon is the all-ones extra and never counts against state
    capacity.
    """
    if num_symbols < 1 or num_states < 1:
        raise ValueError("need at least one symbol and one state")
    symbol_len = 2
    while capacity(symbol_len) < num_symbols:
        symbol_len += 2
    state_len = 1
    while capacity(state_len) < num_states:
        state_len += 1
    return symbol_len, state_len


@dataclass(frozen=True)
class CodecOverrides:
    """Explicit assignment choices layered over the default enumeration."""

    symbol_len: int | None = None
    state_len: int | None = None
    symbols: dict[str, str] | None = None
    states: dict[str, str] | None = None


def parse_codec_overrides(text: str) -> CodecOverrides:
    """Parse an override file.

    Lines: ``symbol <name> <bits>``, ``state <name> <bits>``,
    ``symbol-len <n>``, ``state-len <n>``; each length and each name is
    given at most once. A name is read through the spec's ``delta`` alias, so
    ``symbol delta`` overrides ``δ``. Blank lines are ignored.
    """
    lengths: dict[str, int] = {}
    symbols: dict[str, str] = {}
    states: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind in ("symbol-len", "state-len") and len(tokens) == 2:
            try:
                value = int(tokens[1])
            except ValueError:
                raise CodecError(f"line {line_no}: bad length {tokens[1]!r}")
            target, name = lengths, kind
        elif kind in ("symbol", "state") and len(tokens) == 3:
            name, value = _name(tokens[1]), tokens[2]
            if not value or set(value) - {"0", "1"}:
                raise CodecError(f"line {line_no}: bad codon {value!r}")
            target = symbols if kind == "symbol" else states
        else:
            raise CodecError(f"line {line_no}: cannot parse {line!r}")
        if name in target:
            raise CodecError(f"line {line_no}: duplicate override for {name!r}")
        target[name] = value
    return CodecOverrides(
        symbol_len=lengths.get("symbol-len"),
        state_len=lengths.get("state-len"),
        symbols=symbols or None,
        states=states or None,
    )


@dataclass(frozen=True)
class Codec:
    """Write codons by name. The halt codon and the two reverse maps are set
    once, in ``__post_init__``, so ``dataclasses.replace`` rebuilds them."""

    symbol_len: int
    state_len: int
    symbol_write: dict[str, str]
    state_write: dict[str, str]

    def __post_init__(self):
        object.__setattr__(self, "halt_state", "1" * self.state_len)
        object.__setattr__(self, "_symbol_names",
                           {bits: name for name, bits in self.symbol_write.items()})
        object.__setattr__(self, "_state_names",
                           {bits: name for name, bits in self.state_write.items()})

    def symbol_name(self, codon: str) -> str | None:
        """Reverse-map a write codon to its symbol name, if assigned."""
        return self._symbol_names.get(codon)

    def state_name(self, codon: str) -> str | None:
        return self._state_names.get(codon)


def _is_balanced(bits: str) -> bool:
    return bits.count("1") == len(bits) // 2


def build_codec(
    spec: MachineSpec | FsmSpec, overrides: CodecOverrides | None = None
) -> Codec:
    """Assign write codons to every declared symbol and state.

    The default maps the i-th declared name to the i-th balanced codon in
    ascending numeric order; overrides replace individual assignments and may
    widen the lengths. The halt codon (all ones at the state length) is
    implicit and reserved. Overrides are checked symbols first, then states,
    each in the order given.
    """
    ov = overrides or CodecOverrides()
    symbol_len, state_len = min_lengths(len(spec.symbols), len(spec.states))
    if ov.symbol_len is not None:
        symbol_len = ov.symbol_len
    if ov.state_len is not None:
        state_len = ov.state_len
    if symbol_len < 2 or symbol_len % 2:
        raise CodecError(f"symbol codon length must be positive and even, got {symbol_len}")
    if state_len < 1:
        raise CodecError(f"state codon length must be positive, got {state_len}")
    for kind, length, names in (("symbol", symbol_len, spec.symbols),
                                ("state", state_len, spec.states)):
        if capacity(length) < len(names):
            raise CodecError(f"{len(names)} {kind}s exceed capacity {capacity(length)} "
                             f"of length {length}")

    # zip draws as many codons as there are names, each valid by construction
    symbol_write = dict(zip(spec.symbols, _balanced(symbol_len)))
    state_write = dict(zip(spec.states, _balanced(state_len)))
    halt = "1" * state_len
    for kind, length, assigned, given in (
        ("symbol", symbol_len, symbol_write, ov.symbols),
        ("state", state_len, state_write, ov.states),
    ):
        for name, bits in (given or {}).items():
            if name not in assigned:
                raise CodecError(f"override for undeclared {kind} {name!r}")
            if len(bits) != length:
                raise CodecError(
                    f"{kind} {name!r}: codon {bits} has length {len(bits)}, expected {length}"
                )
            if kind == "state" and bits == halt:
                raise CodecError(f"state {name!r} assigned the reserved halt codon {halt}")
            if set(bits) - {"0", "1"}:
                raise CodecError(f"{kind} {name!r}: codon {bits!r} is not a bit string")
            if not _is_balanced(bits):
                raise CodecError(f"{kind} {name!r}: codon {bits} is not balanced")
            assigned[name] = bits
        if len(set(assigned.values())) != len(assigned):
            raise CodecError(f"duplicate {kind} codon assignment")

    return Codec(
        symbol_len=symbol_len,
        state_len=state_len,
        symbol_write=symbol_write,
        state_write=state_write,
    )
