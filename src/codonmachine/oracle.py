"""Classical reference interpreter and the lockstep equivalence check.

The classical interpreter runs the 5-tuple table over a sparse absolute-
position tape. The bisimulation runs it side by side with the mechanical
simulation: before every step the decoded mechanical tape must agree with the
classical configuration on state, absolute head position, and the symbol
content of every position either run has touched; on every step both must
fire a rule or both must halt.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .codec import Codec, build_codec
from .machine import MachineSpec, Move, Rule
from .sim import DEFAULT_MAX_STEPS, Arrival, Outcome, iter_run, new_sim
from .tape import DecodedConfig, decode_tape
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


def _divergence(
    spec: MachineSpec, step: int, decoded: DecodedConfig, cfg: ClassicalConfig
) -> Divergence | None:
    """The first disagreement between the decoded mechanical tape and the
    classical configuration: halting, then every symbol either side holds,
    then state and head. A cell neither holds is the default on both."""
    mech_halted = decoded.state is None
    cls_halted = cfg.state is None
    if mech_halted != cls_halted:
        return Divergence(step, "halting", str(mech_halted), str(cls_halted))
    mech = dict(enumerate(decoded.symbols, start=decoded.origin))
    for p in sorted(mech.keys() | cfg.symbols.keys()):
        m = mech.get(p, spec.default_symbol)
        c = cfg.symbols.get(p, spec.default_symbol)
        if m != c:
            return Divergence(step, "symbols", f"{p}:{m}", f"{p}:{c}")
    if mech_halted:
        return None
    if decoded.state != cfg.state:
        return Divergence(step, "state", str(decoded.state), str(cfg.state))
    if decoded.head_abs != cfg.head:
        return Divergence(step, "head", str(decoded.head_abs), str(cfg.head))
    return None


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
    """
    if codec is None:
        codec = build_codec(spec)
    sim = new_sim(spec, codec, mode, trnas=trnas)
    table = _rule_table(spec)
    cfg = initial_config(spec)
    steps = 0
    for after, event in iter_run(sim, Arrival.DETERMINISTIC, max_steps):
        # compare the tape each step started from, then whether both sides fired
        divergence = _divergence(spec, steps, decode_tape(sim.tape, codec), cfg)
        fired = _classical_step(table, spec.default_symbol, cfg)
        if divergence is None and fired != (event is not None):
            divergence = Divergence(steps, "halting", str(event is None), str(not fired))
        if divergence:
            return BisimVerdict(False, steps, None, divergence)
        sim = after
        steps += event is not None
    if not sim.halted:
        # iter_run stopped at the budget after its halt check found a rule
        _classical_step(table, spec.default_symbol, cfg, probe=True)
        divergence = _divergence(spec, steps, decode_tape(sim.tape, codec), cfg)
        if divergence:
            return BisimVerdict(False, steps, None, divergence)
    return BisimVerdict(True, steps, Outcome.HALTED if sim.halted else Outcome.STEP_LIMIT)
