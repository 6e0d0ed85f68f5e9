"""Tests of the benchmark itself, on minimum-size workloads.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import re
import sys
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SMALL = {
    "long_tape": dict(small=12, budget=4),
    "utm55_jobs": dict(repeats=1),
    "parity_stream": dict(strings=4, length=64),
}


@pytest.fixture(scope="module")
def cm():
    return run.import_package()


def _build(cm, name, seed=7):
    return workloads.BUILDERS[name](cm, seed, **SMALL[name])


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_prints_every_metric(cm, name, trace, capsys):
    result = run.run_benchmark(_build(cm, name), 0, trace, [0.01], cm)
    out = capsys.readouterr().out
    table = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(table)
    for metric, unit in table.items():
        assert result["metrics"][metric]["unit"] == unit
        assert re.search(rf"^{re.escape(metric)} = \S+ {re.escape(unit)}( |$)", out, re.M)
    assert "failed_frac=0.0000" in out
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif name == "long_tape":
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["codec.reverse_lookups_per_step"] >= m["tape.decode_cells_per_step"] > 0
        assert m["codec.reverse_lookup_s"] > 0
    assert cm.codec.Codec.symbol_name.__qualname__ == "Codec.symbol_name"  # unwrapped


def _corrupt(trnas, codec, symbol):
    """Make the first rule write ``symbol`` instead of its own symbol."""
    first = trnas[0]
    slot, _, other = first.write
    bad = dataclasses.replace(first, write=(slot, codec.symbol_write[symbol], other))
    return [bad, *trnas[1:]]


def _corrupt_jobs(cm):
    walker = cm.machine.parse_machine_spec(workloads.walker_text(12, "R"))
    walker_codec = cm.codec.build_codec(walker)
    walker_bad = _corrupt(cm.trna.compile_ruleset(walker, walker_codec), walker_codec, "0")

    utm_text = cm.corpus.corpus_spec_text("utm55")
    codec_text = cm.corpus.corpus_codec_text("utm55")
    utm = cm.machine.parse_machine_spec(utm_text)
    utm_codec = cm.codec.build_codec(utm, cm.codec.parse_codec_overrides(codec_text))
    utm_bad = _corrupt(cm.trna.compile_ruleset(utm, utm_codec), utm_codec, "c")
    _, trace, _ = cm.sim.run(cm.sim.new_sim(utm, utm_codec))
    ref_rules = [e.rule_id for e in trace]
    det = cm.sim.Arrival.DETERMINISTIC
    return [
        workloads.Job(partial(workloads._walker_job, cm, walker, walker_codec, 4, walker_bad)),
        workloads.Job(partial(workloads._utm55_job, cm, utm_text, codec_text,
                              cm.trna.CompileMode.DUAL, det, None, ref_rules, utm_bad)),
        workloads.Job(partial(workloads._utm55_bisim, cm, utm, utm_codec, utm_bad)),
    ]


def test_corrupted_ruleset_counts_as_failure(cm):
    jobs = _corrupt_jobs(cm)
    for job in jobs:
        out = job.fn()
        assert out.check() is not None
    phase = run.measure(workloads.Workload(jobs, None), 0)
    assert phase.attempted > 0 and phase.failed == phase.attempted


def test_exact_counts_repeat_for_a_seed(cm):
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install(cm)
        try:
            phase = run.measure(_build(cm, "utm55_jobs", seed=3), 0, tracer)
        finally:
            tracer.uninstall()
        assert not phase.mismatches
        counts.append({k: v for k, v in phase.rounds[0].items() if run._exact(k)})
    assert counts[0] == counts[1]
    for key in ("steps.deterministic", "trials.stochastic", "calls:tape.grow", "read_rows"):
        assert counts[0][key] > 0


def test_times_are_scaled_by_the_host_factor():
    assert run.host_factor(run.CAL_REF_S / 2, run.CAL_REF_S * 3 / 2) == 1
    phase = run.Phase(rounds=[{"part:run:s": 2.0, "part:run:n": 100}],
                      latencies_ms=[[10.0, 20.0]], host_factors=[2.0])
    assert run._rate(phase, "run") == 100 and run._rate(phase, "run", scaled=False) == 50
    assert run._job_ms(phase, 50) == 7.5


def test_count_mismatch_is_reported():
    phase = run.Phase(rounds=[{"calls:tape.grow": 3, "part:run:s": 0.1}])
    run._check_repeat(phase, {"calls:tape.grow": 4, "part:run:s": 0.2}, traced=True)
    assert len(phase.mismatches) == 1 and "calls:tape.grow" in phase.mismatches[0]


def test_missing_wrapped_function_reads_zero(cm):
    tracer = Tracer()
    tracer.install(SimpleNamespace(sim=cm.sim))  # every other module "renamed away"
    try:
        phase = run.measure(_build(cm, "utm55_jobs"), 0, tracer)
    finally:
        tracer.uninstall()
    assert "oracle.tm_step" in tracer.missing and phase.failed == 0
    values = run.per_layer(phase, phase, tracer, {}, 0, 0.0)
    assert values["oracle.tm_step_s"] == 0 and values["sim.step_calls"] > 0
    assert cm.sim.step.__module__ == "codonmachine.sim"  # wrappers removed


def test_benchmark_json_names_the_workloads():
    assert {w["name"] for w in run.SPEC["workloads"]} == set(workloads.BUILDERS)
    bounds = {m["name"]: m["bound"] for m in run.SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_refuses_to_run_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "utm55_jobs", "--seed", "1", "--seconds", "1"]) != 0
    assert "{" not in capsys.readouterr().out
