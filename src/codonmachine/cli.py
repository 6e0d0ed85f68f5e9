"""Command-line front end.

Subcommands:

* ``compile SPEC``  -- print the encoded tape and the tRNA listing
* ``run SPEC``      -- execute mechanically, print the trace and final state
* ``verify SPEC``   -- lockstep-check the mechanical run against the
  classical interpreter
* ``fsm SPEC INPUT`` -- run an FSM spec over an input string
* ``corpus [NAME]`` -- list bundled machines or print one's spec/codec text

SPEC is a bundled machine name or a path to a spec file. Bundled machines use
their bundled codec automatically; ``--codec`` points at an override file.

Exit codes: 0 success, 1 parse/validation failure or a --max-steps below 1,
2 codec failure, 3 step limit reached, 4 nondeterministic match fault,
5 verification divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .codec import CodecError, build_codec, parse_codec_overrides
from .corpus import builtin_corpus, corpus_codec_text, corpus_overrides, corpus_spec_text
from .fsm import FsmError, fsm_run
from .machine import FsmSpec, MachineSpec, SpecError, parse_spec
from .oracle import bisimulate
from .sim import DEFAULT_MAX_STEPS, Arrival, NondeterminismFault, Outcome, iter_run, new_sim
from .tape import decode_tape
from .trna import CompileMode, infer_sides, move_row, render_trna_listing

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


def _load_spec(ref: str) -> tuple[MachineSpec | FsmSpec, str | None]:
    """Resolve a corpus name or file path; returns (spec, corpus_name). A
    bundled name wins over a file of the same name."""
    try:
        text = corpus_spec_text(ref)
    except KeyError:  # not bundled: a file path
        text = None
    if text is not None:
        return parse_spec(text), ref
    try:
        with open(ref, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise _CliFailure(EXIT_SPEC, f"cannot read spec {ref!r}: {e}")
    try:
        return parse_spec(text), None
    except SpecError as e:
        raise _CliFailure(EXIT_SPEC, f"{ref}: {e}")


def _load_codec(spec, corpus_name: str | None, codec_path: str | None):
    try:
        if codec_path:
            with open(codec_path, encoding="utf-8") as f:
                overrides = parse_codec_overrides(f.read())
        else:
            overrides = corpus_overrides(corpus_name) if corpus_name else None
        return build_codec(spec, overrides)
    except OSError as e:
        raise _CliFailure(EXIT_CODEC, f"cannot read codec {codec_path!r}: {e}")
    except CodecError as e:
        raise _CliFailure(EXIT_CODEC, f"codec: {e}")


def _require_tm(spec) -> MachineSpec:
    if not isinstance(spec, MachineSpec):
        raise _CliFailure(EXIT_SPEC, "this command needs a Turing machine spec")
    return spec


def cmd_compile(args) -> int:
    spec, corpus_name = _load_spec(args.spec)
    spec = _require_tm(spec)
    codec = _load_codec(spec, corpus_name, args.codec)
    mode = CompileMode(args.mode)
    sim = new_sim(spec, codec, mode)
    if mode is CompileMode.INFERRED:
        for w in infer_sides(spec)[1]:
            print(f"warning: {w}", file=sys.stderr)
    print(sim.tape.render())
    print()
    print(render_trna_listing(list(sim.trnas)))
    return EXIT_OK


def _check_budget(args) -> None:
    if args.max_steps < 1:
        raise _CliFailure(EXIT_SPEC, f"--max-steps must be at least 1, got {args.max_steps}")


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
    _check_budget(args)
    spec, corpus_name = _load_spec(args.spec)
    spec = _require_tm(spec)
    codec = _load_codec(spec, corpus_name, args.codec)
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
    _check_budget(args)
    spec, corpus_name = _load_spec(args.spec)
    spec = _require_tm(spec)
    codec = _load_codec(spec, corpus_name, args.codec)
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
    spec, corpus_name = _load_spec(args.spec)
    if not isinstance(spec, FsmSpec):
        raise _CliFailure(EXIT_SPEC, "fsm needs an FSM spec")
    codec = _load_codec(spec, corpus_name, args.codec)
    text = args.input
    if any(len(s) > 1 for s in spec.symbols):
        symbols = text.split()
    else:
        symbols = list(text)
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

    def common(p):
        p.add_argument("--codec", help="codec override file")
        p.add_argument(
            "--mode",
            choices=["dual", "inferred"],
            default="dual",
            help="read-row compilation mode (default: dual)",
        )

    p = sub.add_parser("compile", help="print encoded tape and tRNA listing")
    p.add_argument("spec", help="corpus name or spec file")
    common(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="execute the mechanical simulation")
    p.add_argument("spec")
    common(p)
    p.add_argument(
        "--arrival",
        choices=["deterministic", "stochastic"],
        default="deterministic",
    )
    p.add_argument("--seed", type=int, default=None, help="stochastic arrival seed")
    p.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="lockstep-check against the classical run")
    p.add_argument("spec")
    common(p)
    p.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fsm", help="run an FSM over an input string")
    p.add_argument("spec")
    p.add_argument("input")
    p.add_argument("--codec", help="codec override file")
    p.set_defaults(func=cmd_fsm)

    p = sub.add_parser("corpus", help="list or print bundled machines")
    p.add_argument("name", nargs="?")
    p.add_argument("--part", choices=["spec", "codec"], default="spec")
    p.set_defaults(func=cmd_corpus)

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
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
