"""Formal machine descriptions and their text format.

A Turing machine is a list of 5-tuple rules (state, read, write, move,
next-state) over declared symbol and state alphabets, with a finite tape, a
default symbol for everything beyond it, and a head index. A halting rule
writes and stops; it has no next state. A finite-state machine is a total
lookup table (state, symbol) -> state.

The text format is line oriented, one directive per line:

    symbols: 0 1 #
    states: q1 q2
    rule: q1 0 0 R q1
    rule: q2 0 1 H -
    default: #
    initial: q1
    tape: ##01##
    head: 2

FSM files use ``fsm-rule: A 0 A`` lines and omit ``rule``/``default``/
``tape``/``head``. A tape value without whitespace is read one character per
symbol; with whitespace it is read as separated tokens (required when any
symbol name is longer than one character). The token ``delta`` is accepted as
an ASCII alias for the symbol name ``δ`` everywhere a name may appear.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class SpecError(ValueError):
    """Base class for machine description errors."""


class SpecSyntaxError(SpecError):
    """Malformed spec text; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class SpecValidationError(SpecError):
    """Structurally well-formed spec that breaks an invariant."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class Move(Enum):
    LEFT = "L"
    RIGHT = "R"
    HALT = "H"


_MOVES = {m.value: m for m in Move}

_DELTA_ALIAS = {"delta": "δ"}


def _name(token: str) -> str:
    return _DELTA_ALIAS.get(token, token)


@dataclass(frozen=True)
class Rule:
    """One 5-tuple transition; ``next_state`` is None exactly for halts."""

    state: str
    read_symbol: str
    write_symbol: str
    move: Move
    next_state: str | None = None


@dataclass(frozen=True)
class MachineSpec:
    symbols: tuple[str, ...]
    states: tuple[str, ...]
    rules: tuple[Rule, ...]
    default_symbol: str
    initial_state: str
    tape: tuple[str, ...]
    head: int


@dataclass(frozen=True)
class FsmSpec:
    symbols: tuple[str, ...]
    states: tuple[str, ...]
    transitions: dict[tuple[str, str], str]
    initial_state: str


def _duplicate_declarations(spec: MachineSpec | FsmSpec) -> list[str]:
    """The violations both spec kinds start from: a name declared twice."""
    return [f"duplicate {kind} declaration" for kind, names in
            (("symbol", spec.symbols), ("state", spec.states)) if len(set(names)) != len(names)]


def validate(spec: MachineSpec) -> list[str]:
    """Return all invariant violations, empty when the spec is valid."""
    v = _duplicate_declarations(spec)
    declared_symbols = set(spec.symbols)
    declared_states = set(spec.states)
    seen: dict[tuple[str, str], int] = {}
    for i, r in enumerate(spec.rules):
        where = f"rule {i + 1}"
        if r.state not in declared_states:
            v.append(f"{where}: undeclared state {r.state!r}")
        if r.read_symbol not in declared_symbols:
            v.append(f"{where}: undeclared read symbol {r.read_symbol!r}")
        if r.write_symbol not in declared_symbols:
            v.append(f"{where}: undeclared write symbol {r.write_symbol!r}")
        if r.move is Move.HALT:
            if r.next_state is not None:
                v.append(f"{where}: halt rule must not name a next state")
        else:
            if r.next_state is None:
                v.append(f"{where}: missing next state")
            elif r.next_state not in declared_states:
                v.append(f"{where}: undeclared next state {r.next_state!r}")
        key = (r.state, r.read_symbol)
        if key in seen:
            v.append(
                f"{where}: duplicate (state, symbol) pair {key!r} "
                f"also used by rule {seen[key] + 1}"
            )
        else:
            seen[key] = i
    if spec.default_symbol not in declared_symbols:
        v.append(f"undeclared default symbol {spec.default_symbol!r}")
    if spec.initial_state not in declared_states:
        v.append(f"undeclared initial state {spec.initial_state!r}")
    for i, s in enumerate(spec.tape):
        if s not in declared_symbols:
            v.append(f"tape cell {i}: undeclared symbol {s!r}")
    if not 0 <= spec.head < len(spec.tape):
        v.append(f"head {spec.head} outside tape of length {len(spec.tape)}")
    return v


def validate_fsm(spec: FsmSpec) -> list[str]:
    """Violations for an FSM spec; transitions must be total."""
    v = _duplicate_declarations(spec)
    declared_symbols = set(spec.symbols)
    declared_states = set(spec.states)
    if spec.initial_state not in declared_states:
        v.append(f"undeclared initial state {spec.initial_state!r}")
    for (state, symbol), new in spec.transitions.items():
        if state not in declared_states or symbol not in declared_symbols:
            v.append(f"transition on undeclared pair ({state!r}, {symbol!r})")
        if new not in declared_states:
            v.append(f"transition ({state!r}, {symbol!r}) to undeclared state {new!r}")
    for state in dict.fromkeys(spec.states):
        for symbol in dict.fromkeys(spec.symbols):
            if (state, symbol) not in spec.transitions:
                v.append(f"missing transition for ({state!r}, {symbol!r})")
    return v


def split_names(value: str, separated: bool = False) -> tuple[str, ...]:
    """``value`` as a row of names, each read through the ``delta`` alias: its
    whitespace-separated tokens when it holds whitespace or ``separated`` is
    set, else one name per character. A ``tape:`` value and ``fsm``'s input
    are both read so."""
    if separated or any(c.isspace() for c in value):
        return tuple(_name(t) for t in value.split())
    return tuple(_name(c) for c in value)


def _split_tape(value: str, line_no: int) -> tuple[str, ...]:
    if not value:
        raise SpecSyntaxError("empty tape", line_no)
    return split_names(value)


def _parse_directives(text: str) -> list[tuple[int, str, str]]:
    out = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        if not sep:
            column = len(raw) - len(raw.lstrip()) + 1
            raise SpecSyntaxError("expected 'directive: value'", line_no, column)
        out.append((line_no, key.strip(), value.strip()))
    return out


def _parse_rule(value: str, line_no: int) -> Rule:
    tokens = value.split()
    if len(tokens) != 5:
        raise SpecSyntaxError(
            f"rule needs 5 fields (state read write move next), got {len(tokens)}",
            line_no,
        )
    state, read, write, move_token, next_token = tokens
    move = _MOVES.get(move_token)
    if move is None:
        raise SpecSyntaxError(f"bad move {move_token!r}, expected L, R or H", line_no)
    if move is Move.HALT:
        if next_token != "-":
            raise SpecSyntaxError("halt rule must end with '-'", line_no)
        next_state = None
    else:
        if next_token == "-":
            raise SpecSyntaxError("only halt rules may end with '-'", line_no)
        next_state = _name(next_token)
    return Rule(_name(state), _name(read), _name(write), move, next_state)


def _parse_fsm_rule(value: str, line_no: int) -> tuple[str, ...]:
    tokens = value.split()
    if len(tokens) != 3:
        raise SpecSyntaxError(
            f"fsm-rule needs 3 fields (state symbol new-state), got {len(tokens)}",
            line_no,
        )
    return tuple(_name(t) for t in tokens)


# Per rule directive, the kind of spec it makes: the line parser, the
# single-valued directives in the order missing ones are reported, and the
# error for the other kind's rule directive.
_KINDS = {
    "rule": (
        _parse_rule,
        ("symbols", "states", "default", "initial", "tape", "head"),
        "fsm-rule not allowed in a Turing machine spec",
    ),
    "fsm-rule": (
        _parse_fsm_rule,
        ("symbols", "states", "initial"),
        "rule not allowed in an FSM spec",
    ),
}


def _parse(lines: list[tuple[int, str, str]], rule_key: str) -> MachineSpec | FsmSpec:
    """The directive pass both spec kinds share; ``rule_key`` names the kind."""
    parse_line, required, foreign = _KINDS[rule_key]
    values: dict = {}
    rules = []
    for line_no, key, value in lines:
        if key == rule_key:
            rules.append(parse_line(value, line_no))
        elif key in _KINDS:
            raise SpecSyntaxError(foreign, line_no)
        elif key not in required:
            raise SpecSyntaxError(f"unknown directive {key!r}", line_no)
        elif key in values:
            raise SpecSyntaxError(f"duplicate directive {key!r}", line_no)
        elif key in ("symbols", "states"):
            values[key] = tuple(_name(t) for t in value.split())
        elif key == "tape":
            values[key] = _split_tape(value, line_no)
        elif key == "head":
            try:
                values[key] = int(value)
            except ValueError:
                raise SpecSyntaxError(f"head must be an integer, got {value!r}", line_no)
        else:
            values[key] = _name(value)
    missing = [name for name in required if name not in values]
    if missing:
        raise SpecSyntaxError(f"missing directive(s): {', '.join(missing)}", 1)
    if rule_key == "rule":
        spec = MachineSpec(
            symbols=values["symbols"],
            states=values["states"],
            rules=tuple(rules),
            default_symbol=values["default"],
            initial_state=values["initial"],
            tape=values["tape"],
            head=values["head"],
        )
        violations = validate(spec)
    else:
        transitions: dict[tuple[str, str], str] = {}
        for state, symbol, new in rules:
            if (state, symbol) in transitions:
                raise SpecValidationError(
                    [f"duplicate fsm-rule for ({state!r}, {symbol!r})"]
                )
            transitions[(state, symbol)] = new
        spec = FsmSpec(
            symbols=values["symbols"],
            states=values["states"],
            transitions=transitions,
            initial_state=values["initial"],
        )
        violations = validate_fsm(spec)
    if violations:
        raise SpecValidationError(violations)
    return spec


def parse_machine_spec(text: str) -> MachineSpec:
    """Parse and validate a Turing machine description.

    Raises SpecSyntaxError on malformed text and SpecValidationError when an
    invariant fails; the result round-trips through serialize_machine_spec.
    """
    return _parse(_parse_directives(text), "rule")


def parse_fsm_spec(text: str) -> FsmSpec:
    """Parse and validate an FSM description (fsm-rule lines, no tape)."""
    return _parse(_parse_directives(text), "fsm-rule")


def parse_spec(text: str) -> MachineSpec | FsmSpec:
    """Parse either kind of spec, dispatching on the rule directive used."""
    lines = _parse_directives(text)
    fsm = any(key == "fsm-rule" for _, key, _ in lines)
    return _parse(lines, "fsm-rule" if fsm else "rule")


def _join_tape(tape: tuple[str, ...]) -> str:
    if all(len(s) == 1 for s in tape):
        return "".join(tape)
    if len(tape) == 1:  # no whitespace to split on: it would read back per character
        raise SpecValidationError([f"tape {tape!r}: one cell named by more than one "
                                   "character has no spelling in the text format"])
    return " ".join(tape)


def format_rule(r: Rule) -> str:
    """A rule as the text format spells it, ``state read write move next``,
    with ``-`` for a halt's next state."""
    next_token = "-" if r.next_state is None else r.next_state
    return f"{r.state} {r.read_symbol} {r.write_symbol} {r.move.value} {next_token}"


def _spec_text(spec: MachineSpec | FsmSpec, *lines: str) -> str:
    """Either kind's text: the alphabets, then ``lines``."""
    lines = (f"symbols: {' '.join(spec.symbols)}", f"states: {' '.join(spec.states)}", *lines)
    return "\n".join(lines) + "\n"


def serialize_machine_spec(spec: MachineSpec) -> str:
    return _spec_text(spec, *(f"rule: {format_rule(r)}" for r in spec.rules),
                      f"default: {spec.default_symbol}", f"initial: {spec.initial_state}",
                      f"tape: {_join_tape(spec.tape)}", f"head: {spec.head}")


def serialize_fsm_spec(spec: FsmSpec) -> str:
    rules = (f"fsm-rule: {q} {s} {new}" for (q, s), new in spec.transitions.items())
    return _spec_text(spec, *rules, f"initial: {spec.initial_state}")
