"""codonmachine benchmark.

    python3 perfbench/run.py --workload long_tape --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``. One client in one process runs a closed loop: it repeats the
workload's round of jobs (see workloads.py) for ``--seconds`` seconds,
checks every job against its reference outside the timed region, and prints
a readable report followed by one JSON line with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` first repeats the
untraced loop, then installs the span wrappers from spans.py and runs the
loop again for ``--seconds`` seconds. Last it records the reverse lookups of
two rounds and times their replay. It reports the per-layer metrics,
``trace_overhead`` and writes the spans to ``perfbench/.out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from spans import Tracer
from workloads import BUILDERS

clock = time.perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / ".out"

SETUP_REPEATS = 15  # one before measuring, the rest spread over the run
MIN_ROUNDS = 2  # the exact-count repeat check compares rounds
MIN_JOBS = 100  # latency samples an untraced run takes at least
# Host speed. On a shared host, other tenants' load slows all work by up to
# ~1.9x, for seconds to minutes at a time. The fixed calibration loop below
# runs between rounds. Each round's times are scaled to a host that runs the
# loop in CAL_REF_S. A round's host factor is the mean of its two neighbouring
# loop times divided by CAL_REF_S. Each metric is the median over rounds (or
# over set-ups) of the scaled values.
CAL_REF_S = 0.005

LOOKUP_REPLAYS = 5  # timed replays of the recorded reverse lookups
CAL_LOOPS = 12_000

# name -> unit, as BENCHMARK.json declares them.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter work: calls, tuples, dict and
    string operations. Independent of codonmachine, so only the host moves it."""

    def key(i: int) -> tuple[int, str]:
        return (i & 63, "ab" if i & 1 else "ba")

    table: dict[tuple[int, str], int] = {}
    t0 = clock()
    for i in range(CAL_LOOPS):
        k = key(i)
        table[k] = table.get(k, 0) + 1
        if k[1] == "ab":
            k = tuple(reversed(k))
    return clock() - t0


def import_package():
    """Import codonmachine afresh from the checkout's src/ (part of setup_s)."""
    for name in [n for n in sys.modules if n.split(".")[0] == "codonmachine"]:
        del sys.modules[name]
    cm = importlib.import_module("codonmachine")
    if Path(cm.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"codonmachine came from {cm.__file__}, not {SRC}")
    return cm


@dataclass
class Phase:
    """What one timed loop saw. Each round is a dict of summed parts
    (``part:<family>:s`` / ``part:<family>:n``), exact counts and, when
    traced, the tracer's counter deltas."""

    rounds: list[dict[str, float]] = field(default_factory=list)
    latencies_ms: list[list[float]] = field(default_factory=list)  # per round
    host_factors: list[float] = field(default_factory=list)  # per round
    setup_s: list[float] = field(default_factory=list)  # scaled to the reference host
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)


def _merge(acc: dict[str, float], counts: dict[str, float]) -> None:
    for k, v in counts.items():
        acc[k] = max(acc.get(k, 0), v) if k.startswith("peak") else acc.get(k, 0) + v


def measure(workload, seconds: float, tracer: Tracer | None = None,
            setup: Callable[[], float] | None = None) -> Phase:
    """Repeat the workload's round for ``seconds`` (at least MIN_ROUNDS rounds
    and MIN_JOBS latency samples), checking every job. ``setup`` is timed
    between rounds, SETUP_REPEATS - 1 times spread over the run."""
    phase = Phase()
    paused = tracer.paused if tracer else nullcontext
    gc.collect()
    start = clock()
    min_jobs = 0 if tracer else MIN_JOBS
    cal = calibrate()
    while (clock() - start < seconds or len(phase.rounds) < MIN_ROUNDS
           or sum(map(len, phase.latencies_ms)) + phase.failed < min_jobs):
        due = (len(phase.setup_s) + 1) * seconds / SETUP_REPEATS
        if setup and len(phase.setup_s) < SETUP_REPEATS - 1 and clock() - start >= due:
            setup_s, cal_after = setup(), calibrate()
            phase.setup_s.append(setup_s / host_factor(cal, cal_after))
            cal = cal_after
        before = tracer.snapshot() if tracer else {}
        stats: dict[str, float] = defaultdict(float)
        counts: dict[str, float] = {}
        latencies: list[float] = []
        for job in workload.jobs:
            if tracer:
                tracer.tag = job.tag
            phase.attempted += 1
            try:
                out = job.fn()
                with paused():
                    error = out.check()
            except Exception as e:  # a crashing job is a failed job, not a crash
                error = f"{type(e).__name__}: {e}"
            if error:
                phase.failed += 1
                if len(phase.errors) < 5:
                    phase.errors.append(error)
                continue
            if out.ms is not None:
                latencies.append(out.ms)
            for family, (s, n) in out.parts.items():
                # tagged jobs also count under family@tag, e.g. run@tape_large
                for key in (family, f"{family}@{job.tag}") if job.tag else (family,):
                    stats[f"part:{key}:s"] += s
                    stats[f"part:{key}:n"] += n
            _merge(counts, out.counts)
        if tracer:
            tracer.tag = None
            after = tracer.snapshot()
            stats.update({k: v - before.get(k, 0) for k, v in after.items()})
        stats.update(counts)
        _check_repeat(phase, stats, tracer is not None)
        phase.rounds.append(stats)
        phase.latencies_ms.append(latencies)
        cal_after = calibrate()
        phase.host_factors.append(host_factor(cal, cal_after))
        cal = cal_after
    return phase


def _exact(key: str) -> bool:
    return not key.startswith(("part:", "total:", "self:"))


def _check_repeat(phase: Phase, stats: dict[str, float], traced: bool) -> None:
    """Every round runs the same inputs, so every exact count must repeat."""
    if not phase.rounds:
        return
    first = phase.rounds[0]
    for key in sorted(set(first) | set(stats)):
        if _exact(key) and first.get(key, 0) != stats.get(key, 0):
            if len(phase.mismatches) < 5:
                phase.mismatches.append(
                    f"round {len(phase.rounds) + 1} {key}: {stats.get(key, 0)} "
                    f"!= round 1 {first.get(key, 0)}" + (" (traced)" if traced else ""))


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def host_factor(cal_before: float, cal_after: float) -> float:
    """How much slower than the reference host the host ran, between two loops."""
    return (cal_before + cal_after) / 2 / CAL_REF_S


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _rate(phase: Phase, family: str, scaled: bool = True) -> float:
    """Steps (or symbols) per second inside the engine calls of one family."""
    return _median(r[f"part:{family}:n"] / r[f"part:{family}:s"] * (f if scaled else 1)
                   for r, f in zip(phase.rounds, phase.host_factors)
                   if r.get(f"part:{family}:s"))


def _job_ms(phase: Phase, pct: int) -> float:
    """Job latency percentile within each round, median over rounds."""
    return _median(_percentile(lat, pct) / f
                   for lat, f in zip(phase.latencies_ms, phase.host_factors) if lat)


def end_to_end(phase: Phase, setup_times: list[float]) -> dict[str, float]:
    return {
        "setup_s": _median(setup_times),
        "job_ms_p50": _job_ms(phase, 50),
        "job_ms_p90": _job_ms(phase, 90),
        "run_steps_per_s": _rate(phase, "run"),
        "verify_steps_per_s": _rate(phase, "verify"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def lookup_round(workload, package, tracer: Tracer) -> tuple[Phase, float, float]:
    """Record the reverse lookups of MIN_ROUNDS rounds, then time their replay
    LOOKUP_REPLAYS times. Returns the phase, the lookups per round and the
    median replay seconds per round, scaled by the host factor."""
    tracer.record_lookups(package)
    try:
        phase = measure(workload, 0, tracer)
    finally:
        tracer.uninstall()
    rounds = len(phase.rounds)
    times, cal = [], calibrate()
    for _ in range(LOOKUP_REPLAYS):
        replay_s, cal_after = tracer.replay_lookups(), calibrate()
        times.append(replay_s / host_factor(cal, cal_after) / rounds)
        cal = cal_after
    return phase, tracer.lookup_calls() / rounds, _median(times)


def per_layer(traced: Phase, untraced: Phase, tracer: Tracer, static,
              lookups: float, lookup_s: float) -> dict[str, float]:
    """``lookups`` and ``lookup_s`` are the reverse lookups per round and their
    seconds per round, from ``lookup_round``; every other value comes from the
    spans of ``traced``."""
    rounds = traced.rounds
    first = rounds[0] if rounds else {}

    def scaled(key: str) -> float:
        return _median(r.get(key, 0) / f for r, f in zip(rounds, traced.host_factors))

    def summed(key: str) -> float:
        return sum(r.get(key, 0) for r in rounds)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def per_symbol_us(key: str) -> float:
        return scaled(key) / first.get("symbols", 0) * 1e6 if first.get("symbols") else 0.0

    def step_us(tag: str) -> float:
        samples = tracer.step_samples.get(tag)
        return statistics.median(samples) * 1e6 if samples else 0.0

    steps = first.get("calls:sim.step", 0)
    det_steps, det_trials = first.get("steps.deterministic", 0), first.get("trials.deterministic", 0)
    sto_steps, sto_trials = first.get("steps.stochastic", 0), first.get("trials.stochastic", 0)
    small, large = step_us("tape_small"), step_us("tape_large")
    return {
        "tape.decode_cells_per_step": ratio(first.get("cells:tape.decode", 0), steps),
        # lookups are not wrapped in the traced loop, so decode's span holds them
        "tape.decode_self_s": max(scaled("self:tape.decode") - lookup_s, 0.0),
        "codec.reverse_lookups_per_step": ratio(lookups, steps),
        "codec.reverse_lookup_s": lookup_s,
        "tape.grow_calls": first.get("calls:tape.grow", 0),
        "tape.grow_s": scaled("total:tape.grow"),
        "tape.peak_cells": first.get("peak_cells", 0),
        "tape.encode_s": scaled("total:tape.encode"),
        "sim.step_calls": steps,
        "sim.step_self_s": scaled("self:sim.step"),
        "sim.apply_s": scaled("total:sim.apply"),
        # sim.step's wrapped children are decode and apply, so what is left of
        # its inclusive time after self and apply is decode with its lookups.
        "sim.step_decode_share": ratio(
            summed("total:sim.step") - summed("self:sim.step") - summed("total:sim.apply"),
            summed("total:sim.step")),
        "sim.step_us_p50.tape_small": small,
        "sim.step_us_p50.tape_large": large,
        "sim.step_cost_growth": ratio(large, small),
        "sim.trials_per_step.deterministic": ratio(det_trials, det_steps),
        "sim.trials_per_step.stochastic": ratio(sto_trials, sto_steps),
        "sim.match_yield": ratio(det_steps + sto_steps, det_trials + sto_trials),
        "oracle.bisim_self_s": scaled("self:oracle.bisim"),
        "oracle.tm_step_calls": first.get("calls:oracle.tm_step", 0),
        "oracle.tm_step_s": scaled("total:oracle.tm_step"),
        "oracle.tm_run_s": scaled("total:oracle.tm_run"),
        "machine.parse_s": scaled("total:machine.parse"),
        "codec.build_s": scaled("total:codec.build"),
        "trna.compile_s": scaled("total:trna.compile"),
        "trna.read_rows": ratio(first.get("read_rows", 0), first.get("instances", 0)),
        "fsm.compile_s": scaled("total:fsm.compile"),
        "fsm.run_symbol_us": per_symbol_us("total:fsm.run"),
        "fsm.oracle_symbol_us": per_symbol_us("total:fsm.oracle"),
        "fsm.trnas": static.get("fsm.trnas", 0),
        "trace_overhead": ratio(_job_ms(traced, 50), _job_ms(untraced, 50)),
    }


def _print_phase(label: str, phase: Phase, rates: bool = True) -> None:
    failed_frac = phase.failed / phase.attempted if phase.attempted else 0.0
    print(f"[{label}] rounds={len(phase.rounds)} jobs_attempted={phase.attempted} "
          f"failed={phase.failed} failed_frac={failed_frac:.4f} "
          f"latency_samples={sum(map(len, phase.latencies_ms))} "
          f"host_factor={_median(phase.host_factors):.3f} (median; calibration loop "
          f"{_median(phase.host_factors) * CAL_REF_S * 1e3:.2f} ms vs {CAL_REF_S * 1e3:g} ms)")
    families = sorted({k.split(":")[1] for r in phase.rounds[:1] for k in r
                       if rates and k.startswith("part:")})
    for family in families:
        n = sum(r.get(f"part:{family}:n", 0) for r in phase.rounds)
        if n:
            print(f"[{label}] {family}_steps_per_s = {_rate(phase, family):.6g} 1/s "
                  f"(raw {_rate(phase, family, scaled=False):.6g}; "
                  f"{len(phase.rounds)} rounds, {int(n)} steps)")
    for message in phase.errors:
        print(f"[{label}] FAILED: {message}")
    for message in phase.mismatches:
        print(f"[{label}] COUNT MISMATCH: {message}")


def run_benchmark(workload, seconds: float, trace: bool, setup_times: list[float],
                  package=None, setup: Callable[[], float] | None = None,
                  spans_path: Path | None = None) -> dict:
    """Measure a built workload, print the readable report and return the
    result object. ``setup_times`` holds the set-ups already made; ``setup``
    is timed again during the untraced loop. ``trace`` patches ``package``."""
    untraced = measure(workload, seconds, setup=setup)
    setup_times = setup_times + untraced.setup_s
    _print_phase("untraced", untraced)
    phases = [untraced]
    if trace:
        tracer = Tracer()
        tracer.install(package)
        try:
            traced = measure(workload, seconds, tracer)
        finally:
            tracer.uninstall()
        _print_phase("traced", traced)
        lookup_phase, lookups, lookup_s = lookup_round(workload, package, tracer)
        _print_phase("lookups", lookup_phase, rates=False)  # recording slows it
        phases += [traced, lookup_phase]
        if tracer.missing:
            print(f"[traced] not found, reported as 0: {', '.join(tracer.missing)}")
        if spans_path is not None:
            tracer.write(spans_path)
            print(f"[traced] {len(tracer.spans)} spans written to {spans_path}")
        values = per_layer(traced, untraced, tracer, workload.static, lookups, lookup_s)
        units = PER_LAYER
    else:
        values = end_to_end(untraced, setup_times)
        units = END_TO_END
    jobs = sum(map(len, untraced.latencies_ms))
    rounds = f"median of {len(untraced.rounds)} rounds"
    notes = {"setup_s": f"median of {len(setup_times)} set-ups",
             "job_ms_p50": f"{rounds}, {jobs} jobs", "job_ms_p90": f"{rounds}, {jobs} jobs",
             "run_steps_per_s": rounds, "verify_steps_per_s": rounds}
    for name, unit in units.items():
        note = None if trace else notes.get(name)
        print(f"{name} = {values[name]:.6g} {unit}" + (f" ({note})" if note else ""))
    return {
        "correct": all(p.failed == 0 and not p.mismatches for p in phases),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "codonmachine" / "__init__.py").is_file():
        print(f"error: no codonmachine package under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    def set_up():
        """Import the package afresh, generate the inputs, build the first instance."""
        t0 = clock()
        cm = import_package()
        workload = BUILDERS[args.workload](cm, args.seed)
        return clock() - t0, cm, workload

    cal = calibrate()
    first_s, cm, workload = set_up()
    first_s /= host_factor(cal, calibrate())
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} inputs={workload.static}")
    result = run_benchmark(workload, args.seconds, bool(args.trace), [first_s], cm,
                           lambda: set_up()[0],
                           OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    print(json.dumps(result, ensure_ascii=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
