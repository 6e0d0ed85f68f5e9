"""Alternating parent/change pairs of the benchmark, summarised per metric.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload utm55_jobs \\
        --seed 1 2 --out BENCH_11.json

Both commits are checked out with ``git worktree add`` into a temporary
directory and removed again at the end. Each of the 10 pairs per workload and
seed runs ``python3 perfbench/run.py`` once in each checkout, for
``BENCHMARK.json``'s ``run_seconds``, one run at a time, the parent first in
even-numbered pairs and the change first in odd ones. Every run gets the same
environment with
``PYTHONDONTWRITEBYTECODE=1``, and a fresh worktree holds no ``__pycache__``,
so both sides compile the package from source on every import: a ``.pyc``
cache on one side only moves ``setup_s`` about 2x and ``peak_rss_mb`` by
1-2 MB. A run that exits non-zero stops the pair run: the tool prints the
workload, seed, pair, side and exit code with the last lines of that run's
stderr, removes the worktrees and exits 1. A pair run stopped by SIGTERM
removes them too and exits 143, and the running benchmark is killed.

The JSON written to ``--out`` names both commits and the git tree of each
one's ``src/``, so the timed code can be matched to a later commit by
``git rev-parse <commit>:src``. It holds, per workload and seed, every run's
metrics and, per end-to-end metric of ``BENCHMARK.json``: each side's median
and quartiles, the change/parent ratio of the medians, the pairs the change
won (ties count for neither side) and a verdict, the first of these that
holds:

* ``failing``: a larger share of the change's operations failed than of the
  parent's, or a change run was not correct; no gain counts then;
* ``unresolved``: on either side the interquartile range is wider than the
  metric's bound times that side's median, so the runs spread too widely to
  tell, unless every change run is better than every parent run;
* ``claim``: the change won at least nine tenths of the pairs and its median
  is better than the parent's by more than the parent's interquartile range;
* ``regression``: the change's median is worse than the parent's by more than
  the metric's bound (a fraction of the parent's median);
* ``no claim``: anything else.

``--probe`` instead times this checkout's ``src/`` in-process, at fixed
sizes, and prints one JSON object: walker ``run`` microseconds per step in
both directions; utm55's parse, codec, ``compile_ruleset``, ``WindowIndex``,
``new_sim``, ``run``, ``bisimulate`` and the classical ``tm_run`` in
microseconds, ``new_sim`` over ``run``, and the lockstep check's
microseconds per step, ``bisimulate`` less ``new_sim`` and ``run`` over the
run's steps, as a median of rounds that time the three back to back; BB(5)
``run`` microseconds per step over the first 20,000 steps of
``tests/golden/bb5.spec``, the mechanical chain alone on a tape that grows on
both sides; the milliseconds a fresh interpreter takes to import the bare
package, an FSM-only caller's names and a TM caller's names, each a median
over fresh interpreters that time their own import; the parity FSM's ``fsm_run`` and ``fsm_oracle`` over the same
symbols and their ratio; and, in milliseconds, an 8-step ``bisimulate`` at
the growing edge of all-0 tapes, with the two whole-tape ends of that proof
on the same tapes: ``encode_tape`` of the spec, and ``decode_tape`` of the
tape 8 steps of ``run`` leave. Each timed figure is a median of repeated
calls.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
CLAIM_SHARE = 0.9
STDERR_LINES = 20  # of a failed benchmark run, printed before the pair run stops

# --probe sizes: walker run lengths, tape cells for the 8-step bisimulate,
# BB(5) run steps, parity input symbols, and calls per median (40 times as
# many for utm55 and the 8-step bisimulate, which take a millisecond or less)
WALKER_STEPS = (1_000, 4_000, 16_000)
BISIM_CELLS = (1_000, 8_000)
BISIM_STEPS = 8
BB5_STEPS = 20_000
PARITY_SYMBOLS = 100_000
REPEATS = 5
# --probe import paths, each timed in fresh interpreters: the bare package, an
# FSM-only caller's names and a TM caller's names
IMPORT_PATHS = {
    "bare": "import codonmachine",
    "fsm": "from codonmachine import (build_codec, corpus_spec_text, fsm_oracle, fsm_run,\n"
           "    parse_fsm_spec)",
    "tm": "from codonmachine import (bisimulate, build_codec, decode_tape, new_sim,\n"
          "    parse_machine_spec, run)",
}


def quartiles(values: list[float]) -> dict[str, float]:
    """Median, first and third quartile (inclusive method) and their spread."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def pairs_won(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change reads strictly better; ties count for neither."""
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change))
    return sum(c > p for p, c in zip(parent, change))


def summarise(parent: list[float], change: list[float], better: str, bound: float,
              failed: dict[str, list[float]], correct: dict[str, list[bool]]) -> dict:
    """One metric's sides, ratio, pairs won and verdict over paired runs.

    ``failed`` and ``correct`` map ``"parent"`` and ``"change"`` to each run's
    failed share of attempted operations and its ``correct`` flag.
    """
    if len(parent) != len(change) or len(parent) < PAIRS:
        raise ValueError(f"need the same number of runs, at least {PAIRS}, on each side")
    p, c = quartiles(parent), quartiles(change)
    won = pairs_won(parent, change, better)
    # the change's gain over the parent, positive when the change is better
    gain = p["median"] - c["median"] if better == "lower" else c["median"] - p["median"]
    separated = (max(change) < min(parent) if better == "lower"
                 else min(change) > max(parent))
    if (statistics.fmean(failed["change"]) > statistics.fmean(failed["parent"])
            or not all(correct["change"])):
        verdict = "failing"
    elif not separated and any(s["iqr"] > bound * abs(s["median"]) for s in (p, c)):
        verdict = "unresolved"
    elif won >= CLAIM_SHARE * len(parent) and gain > p["iqr"]:
        verdict = "claim"
    elif -gain > bound * abs(p["median"]):
        verdict = "regression"
    else:
        verdict = "no claim"
    return {
        "parent": p,
        "change": c,
        "ratio": c["median"] / p["median"] if p["median"] else None,
        "pairs_won": won,
        "pairs": len(parent),
        "verdict": verdict,
    }


def _result(stdout: str) -> dict:
    """The JSON verdict the benchmark prints as its last line."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_once(checkout: Path, workload: str, seed: int, seconds: float
             ) -> subprocess.CompletedProcess:
    # no bytecode cache is read or written, and the package comes from the
    # checkout's own src/ only
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    env.pop("PYTHONPATH", None)
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, env=env, capture_output=True, text=True,
    )


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def measure(checkouts: dict[str, Path], workload: str, seed: int, spec: dict) -> dict:
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            done = run_once(checkouts[side], workload, seed, spec["run_seconds"])
            if done.returncode:
                tail = "\n".join(done.stderr.splitlines()[-STDERR_LINES:])
                print(f"{workload} seed={seed} pair={i + 1} {side}: perfbench/run.py exited "
                      f"{done.returncode}\n{tail}", file=sys.stderr, flush=True)
                raise SystemExit(1)
            result = _result(done.stdout)
            runs[side].append(result)
            values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
            print(f"{workload} seed={seed} pair={i + 1} {side}: failed={result['failed']} "
                  f"correct={result['correct']} {values}", flush=True)
    failed = {side: [r["failed"] / r["attempted"] if r["attempted"] else 0.0 for r in rs]
              for side, rs in runs.items()}
    correct = {side: [r["correct"] for r in rs] for side, rs in runs.items()}
    metrics = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        metrics[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                         **summarise(values["parent"], values["change"], m["better"],
                                     m["bound"], failed, correct)}
    return {
        "workload": workload,
        "seed": seed,
        "attempted": {side: [r["attempted"] for r in rs] for side, rs in runs.items()},
        "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
        "correct": correct,
        "metrics": metrics,
        "runs": {side: [{k: v["value"] for k, v in r["metrics"].items()} for r in rs]
                 for side, rs in runs.items()},
    }


def _median_s(fn, calls: int) -> float:
    """Median wall-clock seconds of ``calls`` calls of ``fn``."""
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _median_check_s(new_sim, run, bisimulate, calls: int) -> float:
    """Median over ``calls`` rounds of one ``bisimulate`` less one ``new_sim``
    and one ``run``, timed back to back, so that the host's drift between
    separately timed medians does not swamp their small difference."""
    extra = []
    for _ in range(calls):
        t0 = time.perf_counter()
        new_sim()
        run()
        t1 = time.perf_counter()
        bisimulate()
        t2 = time.perf_counter()
        extra.append((t2 - t1) - (t1 - t0))
    return statistics.median(extra)


def _import_ms(code: str, interpreters: int) -> float:
    """Median milliseconds ``code`` takes in ``interpreters`` fresh interpreters,
    each timing itself, so interpreter start-up is left out. Each imports this
    checkout's ``src/`` as a benchmark run does, writing no bytecode."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONPYCACHEPREFIX", None)
    script = f"import time\nt0 = time.perf_counter()\n{code}\nprint(time.perf_counter() - t0)"
    return statistics.median(
        1e3 * float(subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                   text=True, check=True).stdout)
        for _ in range(interpreters))


def probe(walker_steps=WALKER_STEPS, bisim_cells=BISIM_CELLS,
          parity_symbols=PARITY_SYMBOLS, repeats=REPEATS) -> dict:
    """Time the layers of the importable ``codonmachine``; see the module doc."""
    import codonmachine as cm
    from codonmachine.sim import WindowIndex

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import walker_text

    walker, bisim, encode, decode = {}, {}, {}, {}
    for side, move in (("right", "R"), ("left", "L")):
        spec = cm.parse_machine_spec(walker_text(8, move))
        codec = cm.build_codec(spec)
        walker[side] = {str(n): 1e6 / n * _median_s(lambda: cm.run(cm.new_sim(spec, codec), n),
                                                    repeats)
                        for n in walker_steps}
        bisim[side], encode[side], decode[side] = {}, {}, {}
        for n in bisim_cells:
            spec = cm.parse_machine_spec(walker_text(n, move))
            codec = cm.build_codec(spec)
            bisim[side][str(n)] = 1e3 * _median_s(
                lambda: cm.bisimulate(spec, codec, max_steps=BISIM_STEPS), 40 * repeats)
            encode[side][str(n)] = 1e3 * _median_s(
                lambda: cm.encode_tape(spec, codec), 40 * repeats)
            final = cm.run(cm.new_sim(spec, codec), BISIM_STEPS)[0].tape
            decode[side][str(n)] = 1e3 * _median_s(
                lambda: cm.decode_tape(final, codec), 40 * repeats)

    spec_text, codec_text = cm.corpus_spec_text("utm55"), cm.corpus_codec_text("utm55")
    spec = cm.parse_machine_spec(spec_text)
    codec = cm.build_codec(spec, cm.parse_codec_overrides(codec_text))
    sim = cm.new_sim(spec, codec)
    steps = cm.run(sim)[0].step_count
    phases = {
        "parse": lambda: cm.parse_machine_spec(spec_text),
        "codec": lambda: cm.build_codec(spec, cm.parse_codec_overrides(codec_text)),
        "compile": lambda: cm.compile_ruleset(spec, codec),
        "index": lambda: WindowIndex(sim.trnas),
        "new_sim": lambda: cm.new_sim(spec, codec),
        "run": lambda: cm.run(sim),
        "bisimulate": lambda: cm.bisimulate(spec, codec),
        "tm_run": lambda: cm.tm_run(spec),
    }
    utm55 = {name: 1e6 * _median_s(fn, 40 * repeats) for name, fn in phases.items()}
    check_us = 1e6 / steps * _median_check_s(
        phases["new_sim"], phases["run"], phases["bisimulate"], 40 * repeats)

    bb5 = cm.parse_machine_spec((ROOT / "tests/golden/bb5.spec").read_text(encoding="utf-8"))
    bb5_sim = cm.new_sim(bb5, cm.build_codec(bb5))
    bb5_us = 1e6 / BB5_STEPS * _median_s(lambda: cm.run(bb5_sim, BB5_STEPS), repeats)

    fsm = cm.parse_fsm_spec(cm.corpus_spec_text("parity"))
    fsm_codec = cm.build_codec(fsm)
    symbols = random.Random(1).choices("01", k=parity_symbols)
    run_s = _median_s(lambda: cm.fsm_run(fsm, symbols, fsm_codec), repeats)
    oracle_s = _median_s(lambda: cm.fsm_oracle(fsm, symbols), repeats)
    return {
        "python": platform.python_version(),
        "import_ms": {path: _import_ms(code, repeats) for path, code in IMPORT_PATHS.items()},
        "walker_run_us_per_step": walker,
        "utm55_us": utm55,
        "utm55_new_sim_over_run": utm55["new_sim"] / utm55["run"],
        "utm55_check_us_per_step": check_us,
        "bb5_run_us_per_step": bb5_us,
        "parity": {"fsm_run_ms": 1e3 * run_s, "fsm_oracle_ms": 1e3 * oracle_s,
                   "ratio": run_s / oracle_s},
        f"bisimulate_{BISIM_STEPS}_steps_ms": bisim,
        "encode_tape_ms": encode,
        f"decode_tape_after_{BISIM_STEPS}_steps_ms": decode,
    }


def _exit_on_sigterm(signum, frame):
    # raised in the main thread, so the worktree cleanup's ``finally`` runs and
    # ``subprocess.run`` kills the benchmark it is waiting on
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD~1", help="parent commit (default HEAD~1)")
    parser.add_argument("--change", default="HEAD", help="changed commit (default HEAD)")
    parser.add_argument("--workload", nargs="+", help="default: every workload of BENCHMARK.json")
    parser.add_argument("--seed", type=int, nargs="+", default=[1])
    parser.add_argument("--out", type=Path, help="where the pair run writes its JSON")
    parser.add_argument("--probe", action="store_true",
                        help="time this checkout's src/ in-process instead of running pairs")
    args = parser.parse_args(argv)
    if args.probe:
        sys.path.insert(0, str(ROOT / "src"))
        print(json.dumps(probe(), indent=1))
        return 0
    if args.out is None:
        parser.error("--out is required for a pair run")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    revs = {"parent": _git("rev-parse", args.parent), "change": _git("rev-parse", args.change)}
    src_trees = {side: _git("rev-parse", f"{rev}:src") for side, rev in revs.items()}
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {side: Path(tmp) / side for side in revs}
        try:
            for side, rev in revs.items():
                _git("worktree", "add", "--detach", str(checkouts[side]), rev)
            results = [measure(checkouts, w, seed, spec)
                       for w in workloads for seed in args.seed]
        finally:
            for path in checkouts.values():
                if path.exists():
                    _git("worktree", "remove", "--force", str(path))
            _git("worktree", "prune")
    report = {"parent": revs["parent"], "change": revs["change"], "src_tree": src_trees,
              "pairs": PAIRS, "seconds": spec["run_seconds"],
              "bytecode": "none (PYTHONDONTWRITEBYTECODE=1, fresh worktrees)",
              "results": results}
    args.out.write_text(json.dumps(report, indent=1, ensure_ascii=False) + "\n",
                        encoding="utf-8")
    for r in results:
        for name, m in r["metrics"].items():
            ratio = "n/a" if m["ratio"] is None else f"{m['ratio']:.3f}x"
            print(f"{r['workload']} seed={r['seed']} {name}: {m['parent']['median']:.6g} -> "
                  f"{m['change']['median']:.6g} ({ratio}), won "
                  f"{m['pairs_won']}/{m['pairs']}, {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
