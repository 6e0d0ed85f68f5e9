"""The pair driver's summary maths, on made-up runs, and its handling of a
failed run and of SIGTERM, on stub checkouts (no benchmark is run)."""

import importlib.util
import os
import signal
import subprocess
import sys
import time
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
    cell_figures = ("bisimulate_8_steps_ms", "encode_tape_ms", "decode_tape_after_8_steps_ms")
    assert set(report) == {"python", "import_ms", "walker_run_us_per_step", "utm55_us",
                           "utm55_new_sim_over_run", "utm55_check_us_per_step",
                           "bb5_run_us_per_step", "parity", *cell_figures}
    assert set(report["walker_run_us_per_step"]) == sides
    for side in sides:
        assert set(report["walker_run_us_per_step"][side]) == {"10", "20"}
        for name in cell_figures:
            assert set(report[name][side]) == {"8", "16"}
    assert set(report["utm55_us"]) == {"parse", "codec", "compile", "index", "new_sim", "run",
                                       "bisimulate", "tm_run"}
    utm55 = report["utm55_us"]
    assert report["utm55_new_sim_over_run"] == utm55["new_sim"] / utm55["run"]
    # a median of differences, so a loaded host may read it below 0
    assert isinstance(report["utm55_check_us_per_step"], float)
    assert set(report["parity"]) == {"fsm_run_ms", "fsm_oracle_ms", "ratio"}
    assert set(report["import_ms"]) == {"bare", "fsm", "tm"}
    figures = [*report["import_ms"].values(), *report["utm55_us"].values(),
               *report["parity"].values(),
               report["bb5_run_us_per_step"]]
    for side in sides:
        figures += report["walker_run_us_per_step"][side].values()
        for name in cell_figures:
            figures += report[name][side].values()
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


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                          cwd=repo, capture_output=True, text=True, check=True).stdout


def worktrees(repo: Path) -> list[str]:
    return [line for line in _git(repo, "worktree", "list", "--porcelain").splitlines()
            if line.startswith("worktree ")]


def test_sigterm_removes_the_worktrees_and_kills_the_run(tmp_path):
    """A pair run stopped by SIGTERM while a benchmark run blocks leaves no
    checkout in ``git worktree list`` and no benchmark process behind."""
    repo, pid_file = tmp_path / "repo", tmp_path / "run.pid"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "src").mkdir()
    (repo / "src" / "keep").write_text("", encoding="utf-8")
    (repo / "BENCHMARK.json").write_text(
        '{"run_seconds": 1, "workloads": [{"name": "stub"}], "end_to_end": []}',
        encoding="utf-8")
    (repo / "perfbench" / "run.py").write_text(
        "import os, time\n"
        "open(os.environ['STUB_PID_FILE'], 'w').write(str(os.getpid()))\n"
        "time.sleep(60)\n",
        encoding="utf-8")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "stub")
    driver = subprocess.Popen(
        [sys.executable, "-c",
         "import importlib.util, sys\n"
         f"spec = importlib.util.spec_from_file_location('bench_pairs', {str(_PATH)!r})\n"
         "bench_pairs = importlib.util.module_from_spec(spec)\n"
         "spec.loader.exec_module(bench_pairs)\n"
         f"bench_pairs.ROOT = bench_pairs.Path({str(repo)!r})\n"
         "sys.exit(bench_pairs.main(['--parent', 'HEAD', '--change', 'HEAD',\n"
         f"                           '--out', {str(tmp_path / 'out.json')!r}]))\n"],
        env=dict(os.environ, STUB_PID_FILE=str(pid_file)))
    try:
        deadline = time.monotonic() + 30
        while not (pid_file.exists() and pid_file.read_text()):
            assert driver.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        assert len(worktrees(repo)) == 3
        driver.send_signal(signal.SIGTERM)
        assert driver.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        driver.kill()
    assert worktrees(repo) == [f"worktree {repo.resolve()}"]
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)
    assert not (tmp_path / "out.json").exists()
