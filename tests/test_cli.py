import argparse
import dataclasses
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from codonmachine import (
    BisimVerdict,
    Divergence,
    build_codec,
    compile_ruleset,
    corpus_codec,
    decode_tape,
    iter_run,
    new_sim,
    parse_spec,
)
import codonmachine
from codonmachine.cli import _build_parser, main
from codonmachine.corpus import UNARY_ADDER_TEXT, UTM55_CODEC_TEXT

from conftest import UTM_FINAL_TAPE, UTM_HALT_STEPS

GOLDEN = Path(__file__).parent / "golden"
TRANSCRIPTS = json.loads((GOLDEN / "cli" / "commands.json").read_text(encoding="utf-8"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", list(TRANSCRIPTS))
def test_transcript(capsys, name):
    """stdout and exit code of each command in commands.json, byte for byte."""
    entry = TRANSCRIPTS[name]
    code, out, _ = run_cli(capsys, *entry["argv"])
    assert code == entry["exit"]
    assert out.encode("utf-8") == (GOLDEN / entry["stdout"]).read_bytes()


class TestLoadSpec:
    """A command resolves its machine without parsing the whole corpus."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "unary_adder"],
            ["verify", "utm55"],
            ["compile", "utm55"],
            ["fsm", "parity", "110"],
            ["run", "machine.spec"],
            ["corpus", "utm55"],
            ["corpus", "utm55", "--part", "codec"],
        ],
    )
    def test_one_machine_parsed(self, capsys, monkeypatch, tmp_path, argv):
        import codonmachine.cli as cli_mod

        def whole_corpus():
            raise AssertionError("builtin_corpus called")

        monkeypatch.setattr(cli_mod, "builtin_corpus", whole_corpus)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "machine.spec").write_text(UNARY_ADDER_TEXT, encoding="utf-8")
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")

    def test_bundled_name_wins_over_a_file(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "utm55").write_text("not a spec\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify", "utm55")
        assert code == 0 and out.startswith("PASS: 98 lockstep steps")


class TestCompile:
    def test_adder_golden(self, capsys):
        code, out, _ = run_cli(capsys, "compile", "unary_adder", "--mode", "inferred")
        assert code == 0
        assert out == (GOLDEN / "unary_adder_compile.txt").read_text(encoding="utf-8")

    def test_utm_golden(self, capsys):
        code, out, _ = run_cli(capsys, "compile", "utm55", "--mode", "dual")
        assert code == 0
        assert out == (GOLDEN / "utm55_compile.txt").read_text(encoding="utf-8")

    def test_bad_spec_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.spec"
        bad.write_text("symbols 0 1\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "compile", str(bad))
        assert code == 1
        assert "error" in err

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "compile", "no-such-machine.spec")
        assert code == 1

    @pytest.mark.parametrize(
        "line",
        ["symbol 0 11", "symbol-len 0", "symbol-len -2"],
        ids=["unbalanced", "len-zero", "len-negative"],
    )
    def test_bad_codec_exits_two(self, capsys, tmp_path, line):
        spec = tmp_path / "adder.spec"
        spec.write_text(UNARY_ADDER_TEXT, encoding="utf-8")
        codec = tmp_path / "broken.codec"
        codec.write_text(line + "\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "compile", str(spec), "--codec", str(codec))
        assert code == 2
        assert err.startswith("error: codec:")

    def test_spec_file_with_codec_file(self, capsys, tmp_path):
        spec = tmp_path / "utm.spec"
        from codonmachine.corpus import UTM55_TEXT

        spec.write_text(UTM55_TEXT, encoding="utf-8")
        codec = tmp_path / "utm.codec"
        codec.write_text(UTM55_CODEC_TEXT, encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "compile", str(spec), "--mode", "dual", "--codec", str(codec)
        )
        assert code == 0
        assert out == (GOLDEN / "utm55_compile.txt").read_text(encoding="utf-8")

    def test_codec_file_reads_the_delta_alias(self, capsys, tmp_path):
        codec = tmp_path / "utm.codec"
        codec.write_text(UTM55_CODEC_TEXT.replace("symbol δ", "symbol delta"), encoding="utf-8")
        assert "symbol delta 010011" in codec.read_text(encoding="utf-8")
        assert run_cli(capsys, "verify", "utm55", "--codec", str(codec)) == (
            0, (GOLDEN / "cli" / "verify_utm55.txt").read_text(encoding="utf-8"), "")

    def test_inferred_warns_of_a_state_never_entered(self, capsys, tmp_path):
        spec = tmp_path / "unentered.spec"
        spec.write_text(
            "symbols: 0\nstates: q1 q2\nrule: q1 0 0 H -\nrule: q2 0 0 H -\n"
            "default: 0\ninitial: q1\ntape: 0\nhead: 0\n",
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "compile", str(spec), "--mode", "inferred")
        assert code == 0 and out
        assert err == (
            "warning: state 'q2' has rules but is never entered; compiling state-on-left\n"
        )
        assert run_cli(capsys, "compile", str(spec))[2] == ""


class TestRun:
    def test_adder_text_trace(self, capsys):
        code, out, _ = run_cli(capsys, "run", "unary_adder", "--mode", "inferred")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "001_01_111_10_111_10_111_01_111_10_111_01_111"
        assert "symbols: 001110" in lines
        assert "outcome: halted" in lines
        assert "steps: 6" in lines

    def test_step_limit_exit(self, capsys):
        code, out, _ = run_cli(capsys, "run", "unary_adder", "--max-steps", "2")
        assert code == 3
        assert "outcome: step-limit" in out

    def test_seeded_stochastic_reproducible(self, capsys):
        args = ("run", "utm55", "--arrival", "stochastic", "--seed", "7")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_unseeded_stochastic_run_is_seed_zeros(self, capsys):
        args = ("run", "utm55", "--arrival", "stochastic")
        assert run_cli(capsys, *args) == run_cli(capsys, *args, "--seed", "0")

    def test_nondeterminism_fault_exits_four_after_the_trace_so_far(self, capsys, monkeypatch):
        """A twin of the last rule to fire for the first time clashes on its
        windows, so the run stops there, with the earlier steps printed."""
        import codonmachine.cli as cli_mod

        argv = ("run", "unary_adder", "--format", "structured")
        _, whole, _ = run_cli(capsys, *argv)
        lines = whole.splitlines(keepends=True)
        rules = [json.loads(line)["rule"] for line in lines[1:-1]]
        k = max(map(rules.index, rules))  # the step index of the last rule to fire first
        real = cli_mod.new_sim

        def twinned(spec, codec, mode, rng_seed=None):
            trnas = compile_ruleset(spec, codec, mode)
            twin = dataclasses.replace(trnas[rules[k] - 1], rule_id=len(trnas) + 1)
            return real(spec, codec, mode, rng_seed, trnas=[*trnas, twin])

        monkeypatch.setattr(cli_mod, "new_sim", twinned)
        code, out, err = run_cli(capsys, *argv)
        assert code == 4
        assert out == "".join(lines[: k + 1])
        assert err.startswith(f"nondeterminism fault: rules [{rules[k]}, ")

    @pytest.mark.parametrize(
        "name, steps, symbols",
        [("unary_adder", 6, "001110"), ("utm55", UTM_HALT_STEPS, UTM_FINAL_TAPE)],
        ids=["unary_adder", "utm55"],
    )
    def test_structured_format(self, capsys, corpus, name, steps, symbols):
        code, out, _ = run_cli(capsys, "run", name, "--format", "structured")
        assert code == 0
        lines = out.splitlines()
        header = json.loads(lines[0])
        assert header == {"format": "codonmachine-trace", "version": 1}
        events = [json.loads(l) for l in lines[1:-1]]
        spec, codec = corpus[name], corpus_codec(name)
        assert events[0]["state"] == spec.initial_state
        assert events[0]["head"] == spec.head
        # every event shows the decoded instance its step started from
        expected = []
        sim = new_sim(spec, codec)
        for after, event in iter_run(sim):
            if event is not None:
                d = decode_tape(sim.tape, codec)
                expected.append((event.rule_id, d.state, d.head_abs, "".join(d.symbols)))
            sim = after
        assert [(e["rule"], e["state"], e["head"], e["symbols"]) for e in events] == expected
        summary = json.loads(lines[-1])
        assert summary["outcome"] == "halted"
        assert summary["symbols"] == symbols
        assert summary["steps"] == steps == len(events)


class TestVerify:
    def test_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "utm55", "--mode", "dual")
        assert code == 0
        assert out.startswith("PASS")
        assert "98" in out

    def test_pass_structured(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "unary_adder", "--format", "structured")
        assert code == 0
        record = json.loads(out)
        assert record["passed"] is True
        assert record["steps"] == 6

    def test_divergence_exits_five(self, capsys, monkeypatch):
        import codonmachine.cli as cli_mod

        verdict = BisimVerdict(
            passed=False,
            steps=4,
            outcome=None,
            divergence=Divergence(4, "head", "4", "2"),
        )
        monkeypatch.setattr(cli_mod, "bisimulate", lambda *a, **k: verdict)
        code, out, _ = run_cli(capsys, "verify", "unary_adder")
        assert code == 5
        assert "DIVERGENCE at step 4" in out

    def test_divergence_structured_outcome_is_null(self, capsys, monkeypatch, tmp_path):
        import codonmachine.cli as cli_mod
        from conftest import ONE_RULE_WALKER, corrupt_first_write

        spec = parse_spec(ONE_RULE_WALKER)
        bad = corrupt_first_write(spec, build_codec(spec))
        real = cli_mod.bisimulate
        monkeypatch.setattr(cli_mod, "bisimulate", lambda *a: real(*a, trnas=bad))
        path = tmp_path / "walker.spec"
        path.write_text(ONE_RULE_WALKER, encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify", str(path), "--format", "structured")
        assert code == 5
        record = json.loads(out)
        assert record["passed"] is False
        assert record["outcome"] is None
        assert '"outcome": null' in out

    def test_nondeterminism_fault_exits_four(self, capsys, monkeypatch):
        import codonmachine.cli as cli_mod
        from codonmachine import NondeterminismFault

        def boom(*a, **k):
            raise NondeterminismFault("rules [1, 2] all match")

        monkeypatch.setattr(cli_mod, "bisimulate", boom)
        code, _, err = run_cli(capsys, "verify", "unary_adder")
        assert code == 4
        assert "nondeterminism" in err


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("budget", ["0", "-3"])
def test_non_positive_budget_exits_one(capsys, command, budget):
    code, out, err = run_cli(capsys, command, "unary_adder", "--max-steps", budget)
    assert code == 1
    assert out == ""
    assert err.startswith("error: --max-steps must be at least 1")


@pytest.mark.parametrize("command", ["run", "verify"])
def test_budget_is_checked_before_the_spec_is_read(capsys, tmp_path, command):
    missing = str(tmp_path / "missing.spec")
    code, out, err = run_cli(capsys, command, missing, "--max-steps", "0")
    assert (code, out, err) == (1, "", "error: --max-steps must be at least 1, got 0\n")


_SOURCE = {"spec": ((), None, None, None, None), "codec": (("--codec",), None, None, None, None)}
_MODE = {"mode": (("--mode",), "dual", ("dual", "inferred"), None, None)}
_BUDGET = {
    "max_steps": (("--max-steps",), 10_000, None, int, None),
    "format": (("--format",), "text", ("text", "structured"), None, None),
}
OPTION_TABLES = {
    "compile": {**_SOURCE, **_MODE},
    "run": {
        **_SOURCE,
        **_MODE,
        "arrival": (("--arrival",), "deterministic", ("deterministic", "stochastic"), None, None),
        "seed": (("--seed",), 0, None, int, None),
        **_BUDGET,
    },
    "verify": {**_SOURCE, **_MODE, **_BUDGET},
    "fsm": {**_SOURCE, "input": ((), None, None, None, None)},
    "corpus": {
        "name": ((), None, None, None, "?"),
        "part": (("--part",), "spec", ("spec", "codec"), None, None),
    },
}


def test_option_tables():
    """Each subcommand's arguments by dest: option strings, default, choices,
    type and nargs."""
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    tables = {
        name: {
            a.dest: (tuple(a.option_strings), a.default,
                     a.choices and tuple(a.choices), a.type, a.nargs)
            for a in p._actions if not isinstance(a, argparse._HelpAction)
        }
        for name, p in commands.choices.items()
    }
    assert tables == OPTION_TABLES


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_ends_the_console_script_by_sigpipe():
    """``codonmachine run bb5.spec --max-steps 20000 | head -n 1``: once the
    reader closes the pipe, the console script dies by SIGPIPE, as a filter
    does, with nothing on stderr."""
    src = str(Path(codonmachine.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    argv = ["run", str(GOLDEN / "bb5.spec"), "--max-steps", "20000"]
    script = "from codonmachine.cli import entrypoint; entrypoint()"
    proc = subprocess.Popen([sys.executable, "-c", script, *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)  # reads stderr alone: stdout is closed
    assert (proc.returncode, err) == (-signal.SIGPIPE, b"")
    assert first == b"0011_01_1111\n"  # the encoded initial tape


class TestFsm:
    def test_parity(self, capsys):
        code, out, _ = run_cli(capsys, "fsm", "parity", "110")
        assert code == 0
        assert out.splitlines()[-1] == "final: A"

    def test_empty_input(self, capsys):
        code, out, _ = run_cli(capsys, "fsm", "parity", "")
        assert code == 0
        assert out.splitlines()[-1] == "final: A"

    def test_single_one(self, capsys):
        code, out, _ = run_cli(capsys, "fsm", "parity", "1")
        assert code == 0
        assert out.splitlines()[-1] == "final: B"

    def test_multichar_symbols_split_on_whitespace(self, capsys, tmp_path):
        spec = tmp_path / "bits.spec"
        spec.write_text(
            "symbols: zero one\nstates: A B\nfsm-rule: A zero A\nfsm-rule: A one B\n"
            "fsm-rule: B zero B\nfsm-rule: B one A\ninitial: A\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(capsys, "fsm", str(spec), "one  zero\tone")
        assert code == 0
        assert out.splitlines() == [
            "0: one -> rule 2", "1: zero -> rule 3", "2: one -> rule 4", "final: A"
        ]

    def test_single_character_symbols_split_on_whitespace(self, capsys):
        assert run_cli(capsys, "fsm", "parity", " 1 1\t0 ") == run_cli(capsys, "fsm", "parity", "110")

    def test_input_reads_the_delta_alias(self, capsys):
        spec = str(GOLDEN / "cli" / "delta.fsm")
        code, out, _ = run_cli(capsys, "fsm", spec, "delta δ 0")
        assert code == 0
        assert out.splitlines() == ["0: δ -> rule 2", "1: δ -> rule 4", "2: 0 -> rule 1",
                                    "final: A"]
        # without whitespace, one symbol per character: "delta" is five names
        code, _, err = run_cli(capsys, "fsm", spec, "delta")
        assert (code, err) == (1, "error: input position 0: undeclared symbol 'd'\n")

    def test_undeclared_symbol_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "fsm", "parity", "12")
        assert code == 1
        assert err == "error: input position 1: undeclared symbol '2'\n"

    def test_tm_spec_rejected(self, capsys):
        code, _, err = run_cli(capsys, "fsm", "unary_adder", "0")
        assert code == 1


class TestCorpus:
    def test_listing(self, capsys):
        code, out, _ = run_cli(capsys, "corpus")
        assert code == 0
        assert "utm55: tm, 5 states, 5 symbols, 25 rules" in out

    def test_spec_text_round_trips(self, capsys):
        from codonmachine import parse_spec

        code, out, _ = run_cli(capsys, "corpus", "unary_adder")
        assert code == 0
        spec = parse_spec(out)
        assert len(spec.rules) == 6

    def test_codec_part(self, capsys):
        code, out, _ = run_cli(capsys, "corpus", "utm55", "--part", "codec")
        assert code == 0
        assert out == UTM55_CODEC_TEXT

    def test_codec_part_missing(self, capsys):
        code, _, err = run_cli(capsys, "corpus", "parity", "--part", "codec")
        assert code == 2

    def test_unknown_name(self, capsys):
        code, _, err = run_cli(capsys, "corpus", "nope")
        assert code == 1
