"""Codon-tape machine toolkit.

Compiles Turing machines and finite-state machines into balanced-codon tapes
and tRNA transition records, executes them under mechanical match-write-move
semantics, and proves the mechanical runs equivalent to a classical reference
interpreter.
"""

from .codec import (
    Codec,
    CodecError,
    CodecOverrides,
    build_codec,
    capacity,
    enumerate_balanced,
    min_lengths,
    parse_codec_overrides,
    read_form,
)
from .corpus import builtin_corpus, corpus_codec, corpus_codec_text, corpus_spec_text
from .fsm import FsmTrna, compile_fsm, fsm_oracle, fsm_run
from .machine import (
    FsmSpec,
    MachineSpec,
    Move,
    Rule,
    SpecError,
    SpecSyntaxError,
    SpecValidationError,
    parse_fsm_spec,
    parse_machine_spec,
    parse_spec,
    serialize_fsm_spec,
    serialize_machine_spec,
    validate,
    validate_fsm,
)
from .oracle import (
    BisimVerdict,
    ClassicalConfig,
    Divergence,
    TmRunResult,
    bisimulate,
    initial_config,
    tm_run,
    tm_step,
)
from .sim import (
    Arrival,
    NondeterminismFault,
    Outcome,
    SimInstance,
    TraceEvent,
    apply_trna,
    iter_run,
    match_window,
    new_sim,
    run,
    step,
)
from .tape import DecodedConfig, EncodedTape, TapeError, decode_tape, encode_tape, grow
from .trna import (
    CompileMode,
    Side,
    Trna,
    TrnaError,
    compile_rule,
    compile_ruleset,
    infer_sides,
    move_row,
    render_trna,
    render_trna_listing,
)

__version__ = "0.1.0"
