"""Bundled example machines.

Four machines exercise every part of the toolkit:

* ``parity`` -- two-state FSM flagging whether the input held an even (A) or
  odd (B) number of 1 symbols.
* ``incrementer`` -- two-state binary incrementer over 0/1/# with default #.
* ``unary_adder`` -- three-state adder joining two unary numbers; its default
  codec uses 2-bit symbol codons and 3-bit state codons.
* ``utm55`` -- a small 5-state, 5-symbol universal Turing machine together
  with its fixed 6-bit codon assignment (``utm55`` ships a codec override
  because the assignment is not the ascending default). Its input encodes one
  read cycle of the simulated tag system: the run reaches the documented
  checkpoint windows after steps 94 and 95 and halts after 98 steps on the
  first default cell grown past the left edge.
"""

from __future__ import annotations

from .codec import Codec, CodecOverrides, build_codec, parse_codec_overrides
from .machine import FsmSpec, MachineSpec, parse_spec

PARITY_TEXT = """\
symbols: 0 1
states: A B
fsm-rule: A 0 A
fsm-rule: A 1 B
fsm-rule: B 0 B
fsm-rule: B 1 A
initial: A
"""

# The head starts on cell 2, the first non-default cell (frozen convention).
INCREMENTER_TEXT = """\
symbols: 0 1 #
states: q1 q2
rule: q1 0 0 R q1
rule: q1 1 1 R q1
rule: q1 # # R q2
rule: q2 0 1 H -
rule: q2 1 0 L q2
rule: q2 # 1 H -
default: #
initial: q1
tape: ##01##
head: 2
"""

UNARY_ADDER_TEXT = """\
symbols: 0 1
states: q1 q2 q3
rule: q1 0 0 R q1
rule: q1 1 0 R q2
rule: q2 1 1 R q2
rule: q2 0 1 L q3
rule: q3 1 1 L q3
rule: q3 0 0 H -
default: 0
initial: q1
tape: 011010
head: 0
"""

UTM55_TEXT = """\
symbols: g b δ c d
states: q1 q2 q3 q4 q5
rule: q1 g b L q1
rule: q1 b g L q1
rule: q1 δ c R q2
rule: q1 c δ L q1
rule: q1 d b L q1
rule: q2 g g R q1
rule: q2 b g R q2
rule: q2 δ c R q2
rule: q2 c b L q3
rule: q2 d g R q2
rule: q3 g b L q3
rule: q3 b d R q5
rule: q3 δ δ R q3
rule: q3 c δ L q3
rule: q3 d b L q5
rule: q4 g g H -
rule: q4 b g R q4
rule: q4 δ c R q4
rule: q4 c δ L q3
rule: q4 d b L q2
rule: q5 g g H -
rule: q5 b d R q3
rule: q5 δ d R q1
rule: q5 c c H -
rule: q5 d b L q4
default: c
initial: q1
tape: dddddδδδbbδbbbbbδcccccc
head: 14
"""

UTM55_CODEC_TEXT = """\
symbol-len 6
state-len 6
symbol g 000111
symbol b 001011
symbol δ 010011
symbol c 100011
symbol d 001110
state q1 000111
state q2 001011
state q3 010011
state q4 100011
state q5 001110
"""

_CODEC_TEXTS = {"utm55": UTM55_CODEC_TEXT}

_SPEC_TEXTS = {
    "parity": PARITY_TEXT,
    "incrementer": INCREMENTER_TEXT,
    "unary_adder": UNARY_ADDER_TEXT,
    "utm55": UTM55_TEXT,
}


def builtin_corpus() -> dict[str, MachineSpec | FsmSpec]:
    """Parse and return all bundled machines, keyed by name."""
    return {name: parse_spec(text) for name, text in _SPEC_TEXTS.items()}


def corpus_spec_text(name: str) -> str:
    return _SPEC_TEXTS[name]


def corpus_codec_text(name: str) -> str | None:
    """Override file text for machines whose codec is not the default."""
    return _CODEC_TEXTS.get(name)


def corpus_overrides(name: str) -> CodecOverrides | None:
    text = corpus_codec_text(name)
    return parse_codec_overrides(text) if text else None


def corpus_codec(name: str) -> Codec:
    """The codec a bundled machine is meant to run with."""
    spec = parse_spec(corpus_spec_text(name))
    return build_codec(spec, corpus_overrides(name))
