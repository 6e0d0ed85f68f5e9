"""Codon-tape machine toolkit.

Compiles Turing machines and finite-state machines into balanced-codon tapes
and tRNA transition records, executes them under mechanical match-write-move
semantics, and proves the mechanical runs equivalent to a classical reference
interpreter.

Each layer module loads on first use (PEP 562): ``import codonmachine`` loads
none, and reading a layer or one of its names imports that layer and the
layers it imports. An FSM-only caller (``parse_fsm_spec``, ``build_codec``,
``fsm_run``, ``fsm_oracle`` and the bundled specs) loads ``machine``,
``codec``, ``corpus`` and ``fsm``, never the TM layers ``tape``, ``trna``,
``sim`` and ``oracle``.
"""

import importlib

# Each layer module and the public names the package exports from it.
_EXPORTS = {
    "codec": ("Codec", "CodecError", "CodecOverrides", "build_codec", "capacity",
              "enumerate_balanced", "min_lengths", "parse_codec_overrides", "read_form"),
    "corpus": ("builtin_corpus", "corpus_codec", "corpus_codec_text", "corpus_spec_text"),
    "fsm": ("FsmCompileCorruption", "FsmError", "FsmTrna", "compile_fsm", "fsm_oracle",
            "fsm_run"),
    "machine": ("FsmSpec", "MachineSpec", "Move", "Rule", "SpecError", "SpecSyntaxError",
                "SpecValidationError", "parse_fsm_spec", "parse_machine_spec", "parse_spec",
                "serialize_fsm_spec", "serialize_machine_spec", "validate", "validate_fsm"),
    "oracle": ("BisimVerdict", "ClassicalConfig", "Divergence", "TmRunResult", "bisimulate",
               "initial_config", "tm_run", "tm_step"),
    "sim": ("Arrival", "NondeterminismFault", "Outcome", "SimInstance", "TraceEvent",
            "apply_trna", "iter_run", "match_window", "new_sim", "run", "step"),
    "tape": ("DecodedConfig", "EncodedTape", "TapeError", "decode_tape", "encode_tape", "grow"),
    "trna": ("CompileMode", "Side", "Trna", "TrnaError", "compile_rule", "compile_ruleset",
             "infer_sides", "move_row", "render_trna", "render_trna_listing"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)

__version__ = "0.1.0"


def __getattr__(name):
    """Import a layer, or a layer's export, on its first access and keep it
    in the package's globals, so a second access is a plain attribute read."""
    if name in _EXPORTS:
        value = importlib.import_module("." + name, __name__)
    elif name in _OWNER:
        value = getattr(__getattr__(_OWNER[name]), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
