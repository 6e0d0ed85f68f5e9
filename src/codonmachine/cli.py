"""Command-line front end.

Subcommands and the options each takes:

* ``compile SPEC [--codec] [--mode]`` -- print the encoded tape and the tRNA
  listing
* ``run SPEC [--codec] [--mode] [--arrival] [--seed] [--max-steps]
  [--format]`` -- execute mechanically, print the trace and final state
* ``verify SPEC [--codec] [--mode] [--max-steps] [--format]`` --
  lockstep-check the mechanical run against the classical interpreter
* ``fsm SPEC INPUT [--codec]`` -- run an FSM spec over an input string, read
  as a ``tape:`` value is, and by tokens whenever a symbol name is longer
  than one character
* ``corpus [NAME] [--part]`` -- list bundled machines or print one's
  spec/codec text

Each option is declared once, in a parent parser shared by the commands that
take it, and every command that reads a machine loads it through ``_load``,
which rejects a --max-steps below 1 before it reads anything.

``--seed`` keys stochastic arrival; without it a run prints what ``--seed 0`` does.

SPEC is a bundled machine name or a path to a spec file. Bundled machines use
their bundled codec automatically; ``--codec`` points at an override file.

Exit codes: 0 success, 1 parse/validation failure or a --max-steps below 1,
2 codec failure, 3 step limit reached, 4 nondeterministic match fault,
5 verification divergence. The console script ends by SIGPIPE, silently,
when its stdout is closed early (``| head``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import signal
import sys

from .codec import Codec, CodecError, build_codec, parse_codec_overrides
from .corpus import builtin_corpus, corpus_codec_text, corpus_overrides, corpus_spec_text
from .fsm import FsmError, fsm_run
from .machine import FsmSpec, MachineSpec, SpecError, parse_spec, split_names
from .oracle import bisimulate
from .sim import DEFAULT_MAX_STEPS, Arrival, NondeterminismFault, Outcome, iter_run, new_sim
from .tape import decode_tape, encode_tape
from .trna import CompileMode, compile_ruleset, infer_sides, move_row, render_trna_listing

TRACE_FORMAT_HEADER = {"format": "codonmachine-trace", "version": 1}

EXIT_OK = 0
EXIT_SPEC = 1
EXIT_CODEC = 2
EXIT_STEP_LIMIT = 3
EXIT_NONDETERMINISM = 4
EXIT_DIVERGENCE = 5


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# the error for a spec of the other kind, per kind a command needs
_WRONG_KIND = {
    MachineSpec: "this command needs a Turing machine spec",
    FsmSpec: "fsm needs an FSM spec",
}


def _read(path: str, code: int, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise _CliFailure(code, f"cannot read {what} {path!r}: {e}")


def _load(args, kind: type) -> tuple[MachineSpec | FsmSpec, Codec]:
    """Check the step budget, if the command has one, before anything is read;
    then resolve SPEC, a bundled name winning over a file of the same name,
    check its kind and build its codec from ``--codec`` or the bundled one."""
    if vars(args).get("max_steps", 1) < 1:
        raise _CliFailure(EXIT_SPEC, f"--max-steps must be at least 1, got {args.max_steps}")
    try:
        text = corpus_spec_text(args.spec)
    except KeyError:  # not bundled: a file path
        text = _read(args.spec, EXIT_SPEC, "spec")
    try:
        spec = parse_spec(text)
    except SpecError as e:
        raise _CliFailure(EXIT_SPEC, f"{args.spec}: {e}")
    if not isinstance(spec, kind):
        raise _CliFailure(EXIT_SPEC, _WRONG_KIND[kind])
    try:
        if args.codec:
            overrides = parse_codec_overrides(_read(args.codec, EXIT_CODEC, "codec"))
        else:  # None unless bundled: only bundled names have override texts
            overrides = corpus_overrides(args.spec)
        return spec, build_codec(spec, overrides)
    except CodecError as e:
        raise _CliFailure(EXIT_CODEC, f"codec: {e}")


def cmd_compile(args) -> int:
    spec, codec = _load(args, MachineSpec)
    mode = CompileMode(args.mode)
    if mode is CompileMode.INFERRED:
        for w in infer_sides(spec)[1]:
            print(f"warning: {w}", file=sys.stderr)
    print(encode_tape(spec, codec).render())
    print()
    print(render_trna_listing(compile_ruleset(spec, codec, mode)))
    return EXIT_OK


def _structured_event(e, before, after, codec) -> str:
    """One JSON line of the structured trace: event ``e`` with the windows of
    the instances stepped from and to, and the decoded tape stepped from."""
    d = decode_tape(before.tape, codec)
    record = {
        "step": e.step,
        "rule": e.rule_id,
        "side": e.side.value,
        "trials": e.trials,
        "window_before": "_".join(before.tape.window_triple()),
        "window_after": "_".join(after.tape.window_triple()),
        "state": d.state,
        "head": d.head_abs,
        "symbols": "".join(d.symbols),
    }
    return json.dumps(record, ensure_ascii=False)


def _text_event(after, e) -> str:
    """The fired rule's read, move and write rows, then the tape after."""
    trna = next(t for t in after.trnas if t.rule_id == e.rule_id)
    rows = (trna.read_row(e.side), move_row(trna), trna.write)
    return "\n".join(f"  {'_'.join(row)}" for row in rows) + "\n" + after.tape.render()


def cmd_run(args) -> int:
    spec, codec = _load(args, MachineSpec)
    arrival = Arrival(args.arrival)
    final = new_sim(spec, codec, CompileMode(args.mode), rng_seed=args.seed)
    structured = args.format == "structured"
    print(json.dumps(TRACE_FORMAT_HEADER) if structured else final.tape.render())
    for after, e in iter_run(final, arrival, args.max_steps):
        if e is not None and structured:
            print(_structured_event(e, final, after, codec))
        elif e is not None:
            print(_text_event(after, e))
        final = after
    decoded = decode_tape(final.tape, codec)
    outcome = Outcome.HALTED if final.halted else Outcome.STEP_LIMIT
    summary = {
        "outcome": outcome.value,
        "steps": final.step_count,
        "trials": final.trial_count,
        "state": decoded.state,
        "symbols": "".join(decoded.symbols),
    }
    if structured:
        print(json.dumps(summary, ensure_ascii=False))
    else:
        summary["state"] = decoded.state or "halted"
        for key in ("symbols", "state", "outcome", "steps", "trials"):
            print(f"{key}: {summary[key]}")
    return EXIT_OK if outcome is Outcome.HALTED else EXIT_STEP_LIMIT


def cmd_verify(args) -> int:
    spec, codec = _load(args, MachineSpec)
    verdict = bisimulate(spec, codec, CompileMode(args.mode), args.max_steps)
    if args.format == "structured":
        record = {
            "passed": verdict.passed,
            "steps": verdict.steps,
            "outcome": verdict.outcome and verdict.outcome.value,
        }
        if verdict.divergence:
            record["divergence"] = dataclasses.asdict(verdict.divergence)
        print(json.dumps(record, ensure_ascii=False))
    elif verdict.passed:
        print(f"PASS: {verdict.steps} lockstep steps, {verdict.outcome.value}")
    else:
        d = verdict.divergence
        print(
            f"DIVERGENCE at step {d.step}: {d.kind} "
            f"(mechanical {d.mechanical!r} vs classical {d.classical!r})"
        )
    return EXIT_OK if verdict.passed else EXIT_DIVERGENCE


def cmd_fsm(args) -> int:
    spec, codec = _load(args, FsmSpec)
    symbols = split_names(args.input, any(len(s) > 1 for s in spec.symbols))
    try:
        final, trace = fsm_run(spec, symbols, codec)
    except FsmError as e:
        raise _CliFailure(EXIT_SPEC, str(e))
    for pos, rule_id in enumerate(trace):
        print(f"{pos}: {symbols[pos]} -> rule {rule_id}")
    print(f"final: {final}")
    return EXIT_OK


def cmd_corpus(args) -> int:
    if not args.name:
        for name, spec in sorted(builtin_corpus().items()):
            kind = "fsm" if isinstance(spec, FsmSpec) else "tm"
            n_rules = (
                len(spec.transitions) if isinstance(spec, FsmSpec) else len(spec.rules)
            )
            print(
                f"{name}: {kind}, {len(spec.states)} states, "
                f"{len(spec.symbols)} symbols, {n_rules} rules"
            )
        return EXIT_OK
    try:
        text = corpus_spec_text(args.name)
    except KeyError:
        raise _CliFailure(EXIT_SPEC, f"no bundled machine named {args.name!r}") from None
    if args.part == "codec":
        text = corpus_codec_text(args.name)
        if text is None:
            raise _CliFailure(
                EXIT_CODEC, f"{args.name!r} uses the default codec; no override file"
            )
    print(text, end="")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codonmachine",
        description="Compile and run machines as codon tapes and tRNA rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each option is declared once, in a parent shared by every command taking
    # it; run's own options are a parent too, so its usage lists them in order
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("spec", help="corpus name or spec file")
    source.add_argument("--codec", help="codec override file")
    mode = argparse.ArgumentParser(add_help=False)
    mode.add_argument("--mode", choices=["dual", "inferred"], default="dual",
                      help="read-row compilation mode (default: dual)")
    arrival = argparse.ArgumentParser(add_help=False)
    arrival.add_argument("--arrival", choices=["deterministic", "stochastic"],
                         default="deterministic")
    arrival.add_argument("--seed", type=int, default=0,
                         help="stochastic arrival seed (default: 0)")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    budget.add_argument("--format", choices=["text", "structured"], default="text")

    def command(name, func, help, parents=()):
        p = sub.add_parser(name, help=help, parents=list(parents))
        p.set_defaults(func=func)
        return p

    command("compile", cmd_compile, "print encoded tape and tRNA listing", (source, mode))
    command("run", cmd_run, "execute the mechanical simulation", (source, mode, arrival, budget))
    command("verify", cmd_verify, "lockstep-check against the classical run",
            (source, mode, budget))
    command("fsm", cmd_fsm, "run an FSM over an input string", (source,)).add_argument("input")
    p = command("corpus", cmd_corpus, "list or print bundled machines")
    p.add_argument("name", nargs="?")
    p.add_argument("--part", choices=["spec", "codec"], default="spec")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except NondeterminismFault as e:
        print(f"nondeterminism fault: {e}", file=sys.stderr)
        return EXIT_NONDETERMINISM


def entrypoint() -> None:
    # a closed stdout (``| head``) ends the console script silently, as it
    # ends any filter, instead of raising BrokenPipeError; main() is unchanged
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
