"""FSM mode: a lookup table compiled to one tRNA per (state, symbol) pair.

The stream engine reads one symbol at a time: the tRNA whose two match fields
are the complements of the current state codon and the symbol codon fires and
deposits the new state codon. Input exhaustion is the only stopping rule;
there is no halt state.

Each run resolves that match once, up front, into one row per state codon the
run can hold (the initial codon and every deposit): the row maps each input
symbol to the rule id that fires and the row of the codon it deposits. A
symbol then costs one dict subscript, and a failed one is diagnosed after the
loop stops. Rows that lead to each other form a reference cycle, so each run
unlinks them before it returns or raises, and refcounting frees its table.

The reference, ``fsm_oracle``, walks the transition map by name and shares no
code with the engine's codon table. It too resolves the map once, into one row
of declared symbols per state, so a symbol costs one chained subscript; the
position of an undeclared symbol is recovered after the loop, exactly, as its
first occurrence in the input.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

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


def fsm_oracle(spec: FsmSpec, input_symbols: Iterable[str]) -> str:
    """Ground truth: walk the transition map directly, by name, no codons.

    The map is resolved once into ``{state: {symbol: next state}}``: declared
    symbols only, under every state the map leaves on one, declared or not, so
    a symbol costs one chained subscript. A state with no row fails its next
    lookup as a missing pair would. A failed lookup is diagnosed after the loop
    stops: an undeclared symbol first, at ``input_symbols.index(symbol)``,
    which is exact because every earlier symbol was found in a row and so was
    declared; otherwise the table lacks the pair. An input that is not a
    ``str``, list or tuple, such as an iterator, is read into a list first, so
    the diagnosis can read it again.
    """
    if not isinstance(input_symbols, (str, list, tuple)):
        input_symbols = list(input_symbols)
    declared = set(spec.symbols)
    rows: dict[str, dict[str, str]] = {}
    for (state, symbol), new in spec.transitions.items():
        if symbol in declared:
            rows.setdefault(state, {})[symbol] = new
    state = spec.initial_state
    try:
        for symbol in input_symbols:
            state = rows[state][symbol]
    except KeyError:
        if symbol not in declared:
            position = input_symbols.index(symbol)
            raise FsmError(f"input position {position}: undeclared symbol {symbol!r}") from None
        # a hand-built spec whose table is not total, as compile_fsm reports it
        raise FsmError(f"no transition for ({state!r}, {symbol!r})") from None
    return state


def fsm_run(
    spec: FsmSpec, input_symbols: Iterable[str], codec: Codec
) -> tuple[str, list[int]]:
    """Run the compiled stream engine; returns the final state and the rule id
    fired on each input symbol, in input order.

    The match is resolved into linked rows before the first symbol, one
    ``{symbol: (rule id, row)}`` per state codon the run can hold: each tRNA
    is keyed on the write forms its two match fields lock onto (a later tRNA
    on the same key wins), composed with ``codec.symbol_write``, and each
    entry holds the row of the codon it deposits. The rows are cleared before
    the call returns or raises, because an FSM with a cycle links them into a
    reference cycle that only the cyclic collector would free. A symbol with
    no codon raises ``FsmError``; a symbol whose codon no tRNA matches in the
    current state raises ``FsmCompileCorruption``, as does a final codon that
    names no state.
    """
    by_match = {
        (read_form(t.state_match), read_form(t.symbol_match)): (t.rule_id, t.new_state)
        for t in compile_fsm(spec, codec)
    }
    symbol_write = codec.symbol_write
    initial = codec.state_write[spec.initial_state]
    rows = {codon: {} for codon in (initial, *(deposit for _, deposit in by_match.values()))}
    for state_codon, entries in rows.items():
        for symbol, codon in symbol_write.items():
            if (state_codon, codon) in by_match:
                rule_id, deposit = by_match[(state_codon, codon)]
                entries[symbol] = (rule_id, rows[deposit])
    codon_of = {id(entries): state_codon for state_codon, entries in rows.items()}
    row = rows[initial]
    trace: list[int] = []
    append = trace.append
    try:
        for symbol in input_symbols:
            rule_id, row = row[symbol]
            append(rule_id)
    except KeyError:
        # the symbol that stopped the loop, read in the row it was read in
        if symbol not in symbol_write:
            raise FsmError(
                f"input position {len(trace)}: undeclared symbol {symbol!r}"
            ) from None
        raise FsmCompileCorruption(
            f"no tRNA matched state codon {codon_of[id(row)]} on {symbol!r}"
        ) from None
    finally:
        for entries in rows.values():
            entries.clear()
    state_codon = codon_of[id(row)]
    name = codec.state_name(state_codon)
    if name is None:
        raise FsmCompileCorruption(f"final codon {state_codon} names no state")
    return name, trace
