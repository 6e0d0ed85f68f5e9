"""The pair driver's summary maths, on made-up runs, and its handling of a
failed run, on a stub checkout (no benchmark is run)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# parent runs: IQR 4.5 is 4% of the median 104.5, within every bound
PARENT = [100.0 + i for i in range(10)]
# IQR 4.5 is 31% of the median 14.5, too wide for a 25% bound
WIDE = [10.0 + i for i in range(10)]


class TestQuartiles:
    def test_inclusive_quartiles(self):
        assert bench_pairs.quartiles(WIDE) == {
            "median": 14.5, "q1": 12.25, "q3": 16.75, "iqr": 4.5,
        }

    def test_single_run(self):
        assert bench_pairs.quartiles([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0, "iqr": 0.0}


class TestPairsWon:
    def test_lower_is_better_and_ties_count_for_neither(self):
        assert bench_pairs.pairs_won([5, 5, 5], [4, 5, 6], "lower") == 1

    def test_higher_is_better(self):
        assert bench_pairs.pairs_won([5, 5, 5], [4, 5, 6], "higher") == 1


HEALTHY = {
    "failed": {"parent": [0.0] * 10, "change": [0.0] * 10},
    "correct": {"parent": [True] * 10, "change": [True] * 10},
}


def verdict(parent, change, better="lower", bound=0.25, **health):
    return bench_pairs.summarise(parent, change, better, bound,
                                 **{**HEALTHY, **health})["verdict"]


class TestSummarise:
    def test_claim_needs_nine_tenths_and_more_than_the_parent_iqr(self):
        change = [p - 5.0 for p in PARENT]  # 10/10 won, gain 5.0 > IQR 4.5
        s = bench_pairs.summarise(PARENT, change, "lower", 0.25, **HEALTHY)
        assert (s["pairs_won"], s["pairs"], s["verdict"]) == (10, 10, "claim")
        assert s["ratio"] == pytest.approx(99.5 / 104.5)
        assert s["change"]["median"] == 99.5

    def test_nine_of_ten_is_enough(self):
        change = [p - 5.0 for p in PARENT[:9]] + [PARENT[9]]
        s = bench_pairs.summarise(PARENT, change, "lower", 0.25, **HEALTHY)
        assert (s["pairs_won"], s["verdict"]) == (9, "claim")

    def test_eight_of_ten_is_not(self):
        change = [p - 5.0 for p in PARENT[:8]] + PARENT[8:]
        s = bench_pairs.summarise(PARENT, change, "lower", 0.25, **HEALTHY)
        assert (s["pairs_won"], s["verdict"]) == (8, "no claim")

    def test_gain_within_the_parent_iqr_is_no_claim(self):
        change = [p - 4.0 for p in PARENT]  # 10/10 won, but gain 4.0 <= IQR 4.5
        assert verdict(PARENT, change) == "no claim"

    def test_higher_is_better(self):
        change = [p + 5.0 for p in PARENT]
        assert verdict(PARENT, change, "higher") == "claim"
        assert verdict(PARENT, change, "lower") == "no claim"

    def test_regression_past_the_bound(self):
        # parent median 104.5, bound 10%: worse by 10.45 or less is no regression
        assert verdict(PARENT, [p + 10.4 for p in PARENT], bound=0.1) == "no claim"
        assert verdict(PARENT, [p + 10.5 for p in PARENT], bound=0.1) == "regression"

    def test_more_failed_operations_withhold_the_claim(self):
        change = [p - 5.0 for p in PARENT]
        failed = {"parent": [0.0] * 10, "change": [0.0] * 9 + [0.01]}
        assert verdict(PARENT, change, failed=failed) == "failing"
        # as many failures as the parent leave the claim standing
        same = {"parent": [0.01] + [0.0] * 9, "change": [0.0] * 9 + [0.01]}
        assert verdict(PARENT, change, failed=same) == "claim"

    def test_an_incorrect_change_run_withholds_the_claim(self):
        change = [p - 5.0 for p in PARENT]
        correct = {"parent": [True] * 10, "change": [True] * 9 + [False]}
        assert verdict(PARENT, change, correct=correct) == "failing"
        # an incorrect parent run does not count against the change
        correct = {"parent": [False] * 10, "change": [True] * 10}
        assert verdict(PARENT, change, correct=correct) == "claim"

    def test_spread_wider_than_the_bound_is_unresolved(self):
        # 10/10 won and a gain of 5.0 over an IQR of 4.5, yet the runs overlap
        assert verdict(WIDE, [w - 5.0 for w in WIDE]) == "unresolved"
        assert verdict(WIDE, [w + 1.0 for w in WIDE]) == "unresolved"
        # a change whose own runs spread too widely is unresolved too
        assert verdict(PARENT, [60.0 + 10 * i for i in range(10)]) == "unresolved"

    def test_wide_spread_is_resolved_when_every_change_run_beats_every_parent_run(self):
        assert verdict(WIDE, [w - 10.0 for w in WIDE]) == "claim"
        assert verdict(WIDE, [w + 10.0 for w in WIDE], "higher") == "claim"

    def test_sides_must_pair_up_over_at_least_ten_pairs(self):
        with pytest.raises(ValueError):
            verdict(PARENT, PARENT[:-1])
        with pytest.raises(ValueError):
            verdict(PARENT[:9], [p - 5.0 for p in PARENT[:9]])
        with pytest.raises(ValueError):
            verdict([], [])


def test_result_is_the_last_line():
    out = 'report line\nsetup_s = 0.1 s\n{"correct": true, "failed": 0, "metrics": {}}\n'
    assert bench_pairs._result(out) == {"correct": True, "failed": 0, "metrics": {}}


def test_probe_reports_every_figure():
    report = bench_pairs.probe(walker_steps=(10, 20), bisim_cells=(8, 16),
                               parity_symbols=50, repeats=1)
    sides = {"right", "left"}
    assert set(report) == {"python", "walker_run_us_per_step", "utm55_us", "parity",
                           "bisimulate_8_steps_ms"}
    assert set(report["walker_run_us_per_step"]) == sides
    assert set(report["bisimulate_8_steps_ms"]) == sides
    for side in sides:
        assert set(report["walker_run_us_per_step"][side]) == {"10", "20"}
        assert set(report["bisimulate_8_steps_ms"][side]) == {"8", "16"}
    assert set(report["utm55_us"]) == {"parse", "codec", "new_sim", "run", "bisimulate"}
    assert set(report["parity"]) == {"fsm_run_ms", "fsm_oracle_ms", "ratio"}
    figures = [*report["utm55_us"].values(), *report["parity"].values()]
    for side in sides:
        figures += [*report["walker_run_us_per_step"][side].values(),
                    *report["bisimulate_8_steps_ms"][side].values()]
    assert all(f > 0 for f in figures)


def test_failed_run_is_reported_not_swallowed(tmp_path, capsys):
    """A benchmark run that exits non-zero stops the pair run with its side,
    workload, seed, pair, exit code and the last lines of its stderr."""
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\n"
        "for i in range(30):\n"
        "    print(f'trace line {i}', file=sys.stderr)\n"
        "sys.exit(3)\n",
        encoding="utf-8",
    )
    spec = {"run_seconds": 1, "end_to_end": []}
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.measure({"parent": tmp_path, "change": tmp_path}, "long_tape", 7, spec)
    assert exit_info.value.code == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "long_tape seed=7 pair=1 parent: perfbench/run.py exited 3"
    assert err[1:] == [f"trace line {i}" for i in range(10, 30)]
