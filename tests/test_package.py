"""The package namespace: every export resolves to its layer's object, and a
layer module loads only when it or one of its names is first read."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import codonmachine
import codonmachine.fsm

SRC = Path(codonmachine.__file__).parents[1]
LAYERS = {"codec", "corpus", "fsm", "machine", "oracle", "sim", "tape", "trna"}

EXPORTS = {
    "Arrival", "BisimVerdict", "ClassicalConfig", "Codec", "CodecError", "CodecOverrides",
    "CompileMode", "DecodedConfig", "Divergence", "EncodedTape", "FsmCompileCorruption",
    "FsmError", "FsmSpec", "FsmTrna", "MachineSpec", "Move", "NondeterminismFault", "Outcome",
    "Rule", "Side", "SimInstance", "SpecError", "SpecSyntaxError", "SpecValidationError",
    "TapeError", "TmRunResult", "TraceEvent", "Trna", "TrnaError", "apply_trna", "bisimulate",
    "build_codec", "builtin_corpus", "capacity", "compile_fsm", "compile_rule",
    "compile_ruleset", "corpus_codec", "corpus_codec_text", "corpus_spec_text", "decode_tape",
    "encode_tape", "enumerate_balanced", "fsm_oracle", "fsm_run", "grow", "infer_sides",
    "initial_config", "iter_run", "match_window", "min_lengths", "move_row", "new_sim",
    "parse_codec_overrides", "parse_fsm_spec", "parse_machine_spec", "parse_spec", "read_form",
    "render_trna", "render_trna_listing", "run", "serialize_fsm_spec", "serialize_machine_spec",
    "step", "tm_run", "tm_step", "validate", "validate_fsm",
}


def test_all_is_the_export_list():
    assert len(codonmachine.__all__) == len(EXPORTS)
    assert set(codonmachine.__all__) == EXPORTS


def test_every_export_is_its_layers_object_and_stays_bound():
    listed = dir(codonmachine)
    for name in codonmachine.__all__:
        layer = getattr(codonmachine, codonmachine._OWNER[name])
        assert getattr(codonmachine, name) is getattr(layer, name), name
        assert vars(codonmachine)[name] is getattr(layer, name), name
        assert name in listed, name
    assert LAYERS <= set(listed)
    assert {"__version__", "__all__"} <= set(listed)


@pytest.mark.parametrize("name", ["FsmError", "FsmCompileCorruption"])
def test_fsm_errors_are_exported(name):
    assert getattr(codonmachine, name) is getattr(codonmachine.fsm, name)


def test_an_unknown_name_is_the_standard_attribute_error():
    with pytest.raises(AttributeError) as caught:
        codonmachine.nope  # noqa: B018
    assert str(caught.value) == "module 'codonmachine' has no attribute 'nope'"
    assert not hasattr(codonmachine, "nope")
    with pytest.raises(ImportError, match="cannot import name 'nope'"):
        from codonmachine import nope  # noqa: F401


def test_a_layers_import_error_propagates(monkeypatch):
    """A layer that fails to import raises its ImportError, not AttributeError."""
    monkeypatch.delitem(vars(codonmachine), "run")
    monkeypatch.delitem(vars(codonmachine), "sim")
    monkeypatch.setitem(sys.modules, "codonmachine.sim", None)
    with pytest.raises(ModuleNotFoundError, match="codonmachine.sim"):
        codonmachine.run  # noqa: B018


def loaded_after(code: str) -> list[str]:
    """The layer modules a fresh interpreter, importing this checkout's
    package, holds after running ``code``."""
    script = (code + "\nimport sys, json\n"
              "print(json.dumps(sorted(n.partition('.')[2] for n in sys.modules"
              " if n.startswith('codonmachine.'))))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_a_bare_import_loads_no_layer():
    assert loaded_after("import codonmachine") == []


def test_the_fsm_path_loads_only_the_fsm_layers():
    code = """
from codonmachine import build_codec, corpus_spec_text, fsm_oracle, fsm_run, parse_fsm_spec
spec = parse_fsm_spec(corpus_spec_text("parity"))
final, trace = fsm_run(spec, "0110", build_codec(spec))
assert final == fsm_oracle(spec, "0110") == "A" and len(trace) == 4
"""
    assert loaded_after(code) == ["codec", "corpus", "fsm", "machine"]


def test_bisimulate_loads_the_tm_layers():
    code = """
import codonmachine as cm
assert cm.bisimulate(cm.builtin_corpus()["utm55"], cm.corpus_codec("utm55")).passed
"""
    assert loaded_after(code) == sorted(LAYERS - {"fsm"})


def test_a_star_import_binds_every_export():
    code = """
from codonmachine import *
import codonmachine
missing = [n for n in codonmachine.__all__ if n not in globals()]
assert not missing, missing
"""
    assert loaded_after(code) == sorted(LAYERS)
