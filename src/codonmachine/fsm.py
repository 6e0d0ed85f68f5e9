"""FSM mode: a lookup table compiled to one tRNA per (state, symbol) pair.

The stream engine reads one symbol at a time: the tRNA whose two match fields
are the complements of the current state codon and the symbol codon fires and
deposits the new state codon. Input exhaustion is the only stopping rule;
there is no halt state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .codec import Codec, read_form
from .machine import FsmSpec


class FsmError(ValueError):
    """Undeclared input symbol or codec coverage failure."""


class FsmCompileCorruption(RuntimeError):
    """No tRNA matched even though the transition table is total."""


@dataclass(frozen=True)
class FsmTrna:
    rule_id: int  # 1-based row in declared state-major, symbol-minor order
    state_match: str  # read form of the current state codon
    symbol_match: str  # read form of the current symbol codon
    new_state: str  # write form of the successor state codon


def compile_fsm(spec: FsmSpec, codec: Codec) -> list[FsmTrna]:
    """One FsmTrna per (state, symbol) pair of the total transition table."""
    out = []
    rule_id = 0
    for state in spec.states:
        for symbol in spec.symbols:
            rule_id += 1
            try:
                new = spec.transitions[(state, symbol)]
            except KeyError:
                raise FsmError(f"no transition for ({state!r}, {symbol!r})") from None
            try:
                out.append(
                    FsmTrna(
                        rule_id=rule_id,
                        state_match=read_form(codec.state_write[state]),
                        symbol_match=read_form(codec.symbol_write[symbol]),
                        new_state=codec.state_write[new],
                    )
                )
            except KeyError as e:
                raise FsmError(f"no codon for {e.args[0]!r}") from None
    return out


def fsm_oracle(spec: FsmSpec, input_symbols: Sequence[str]) -> str:
    """Ground truth: walk the transition map directly, no codons."""
    state = spec.initial_state
    for i, symbol in enumerate(input_symbols):
        if symbol not in spec.symbols:
            raise FsmError(f"input position {i}: undeclared symbol {symbol!r}")
        state = spec.transitions[(state, symbol)]
    return state


def fsm_run(
    spec: FsmSpec, input_symbols: Sequence[str], codec: Codec
) -> tuple[str, list[int]]:
    """Run the compiled stream engine; returns the final state and the rule id
    fired on each input symbol, in input order."""
    # keyed on the write forms the match fields lock onto, so a lookup takes
    # the state and symbol codons as they are
    by_match = {
        (read_form(t.state_match), read_form(t.symbol_match)): t
        for t in compile_fsm(spec, codec)
    }
    symbol_write = codec.symbol_write
    state_codon = codec.state_write[spec.initial_state]
    trace: list[int] = []
    for symbol in input_symbols:
        symbol_codon = symbol_write.get(symbol)
        if symbol_codon is None:
            raise FsmError(f"input position {len(trace)}: undeclared symbol {symbol!r}")
        fired = by_match.get((state_codon, symbol_codon))
        if fired is None:
            raise FsmCompileCorruption(
                f"no tRNA matched state codon {state_codon} on {symbol!r}"
            )
        trace.append(fired.rule_id)
        state_codon = fired.new_state
    name = codec.state_name(state_codon)
    if name is None:
        raise FsmCompileCorruption(f"final codon {state_codon} names no state")
    return name, trace
