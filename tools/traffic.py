"""List the statements of ``src/codonmachine`` that no traffic, and no test, reaches.

    python3 tools/traffic.py

Runs this checkout's ``src/`` in-process under a ``sys.settrace`` tracer that
records the lines run in ``src/codonmachine`` and traces no other frame's
lines. The package is imported afresh under the tracer, so its module-level
statements count. The traffic, each part checked:

* one seed-1 round of each perfbench workload, every job against its check;
* every transcript in ``tests/golden/cli/commands.json`` through
  ``cli.main``, its exit code and stdout compared byte by byte;
* ``tools/small_scope.py`` on its seeded 300-table sample, in both modes;
* BB(5)'s first 20,000 steps through ``tools/long_proof.py``.

Then the whole Tier-1 suite runs through ``pytest.main``, traced too.

A statement is reached when any line it spans ran; a bare string statement,
such as a docstring, is not counted. Prints one JSON object: under
``traffic``, per module, the first line of each statement the traffic never
reached, which only tests or nothing reach; under ``traffic_and_tier1``,
those that the suite did not reach either. Exits 1, with what failed on
stderr, if any check, transcript or test fails.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import importlib.util
import io
import json
import os
import random
import sys
import threading
from collections import defaultdict
from collections.abc import Callable
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "codonmachine"


def statement_spans(source: str) -> list[tuple[int, int]]:
    """(first line, last line) of every statement in ``source``, nested ones
    included, bare strings left out; a decorated definition starts at its
    first decorator."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        spans.append((first, node.end_lineno))
    return sorted(spans)


def trace_lines(root: Path, traffic: Callable[[], object]) -> dict[str, set[int]]:
    """Run ``traffic`` and return the lines it ran in each file under ``root``.
    Frames of other files get no line tracer. The tracer in place before is
    put back afterwards, so one run may nest in another. One line tracer
    serves every frame: a closure made per call that returns itself would be
    a reference cycle per call, garbage that traced code's own cyclic-garbage
    checks would count."""
    prefix = str(root.resolve()) + os.sep
    lines: dict[str, set[int]] = defaultdict(set)

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines[filename].add(frame.f_lineno)
        return on_line

    def on_line(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    before = sys.gettrace()
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        traffic()
    finally:
        sys.settrace(before)
        threading.settrace(before)
    return lines


def unreached(root: Path, lines: dict[str, set[int]]) -> dict[str, list[int]]:
    """Per module under ``root``, by dotted name relative to it, the first line
    of each statement none of whose lines ran."""
    out = {}
    for path in sorted(root.resolve().rglob("*.py")):
        ran = lines.get(str(path), set())
        spans = statement_spans(path.read_text(encoding="utf-8"))
        name = ".".join(path.relative_to(root.resolve()).with_suffix("").parts)
        out[name] = [first for first, last in spans
                     if not any(line in ran for line in range(first, last + 1))]
    return out


def _load(path: Path):
    """Import a script by path, registered under its stem as dataclasses need."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = sys.modules[path.stem] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workloads(cm) -> list[str]:
    """One seed-1 round of each perfbench workload; each job's check error."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    workloads = _load(ROOT / "perfbench" / "workloads.py")
    errors = []
    for name, build in workloads.BUILDERS.items():
        for job in build(cm, 1).jobs:
            error = job.fn().check()
            if error:
                errors.append(f"{name}: {error}")
    return errors


def _transcripts(cm) -> list[str]:
    """The transcripts whose exit code or stdout differs from the golden one."""
    golden = ROOT / "tests" / "golden"
    entries = json.loads((golden / "cli" / "commands.json").read_text(encoding="utf-8"))
    differ = []
    for name, entry in entries.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cm.cli.main(entry["argv"])
        if code != entry["exit"] or out.getvalue().encode("utf-8") != (
                golden / entry["stdout"]).read_bytes():
            differ.append(f"transcript {name}")
    return differ


def _small_scope() -> list[str]:
    tool = _load(ROOT / "tools" / "small_scope.py")
    result = tool.check(random.Random(24).sample(tool.tables(), 300))
    return [f"small_scope: {result['failed']} failed"] if result["failed"] else []


def _long_proof() -> list[str]:
    tool = _load(ROOT / "tools" / "long_proof.py")
    result = tool.prove((ROOT / "tests" / "golden" / "bb5.spec").read_text(encoding="utf-8"),
                        20_000)
    return [] if result["passed"] else [f"long_proof: {result}"]


def _tier1() -> list[str]:
    import pytest

    code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                        str(ROOT / "tests")])
    return [f"tier-1: pytest exited {code}"] if code else []


def main() -> int:
    os.chdir(ROOT)  # the transcripts name spec files by relative path
    sys.path.insert(0, str(ROOT / "src"))
    for name in [n for n in sys.modules if n.split(".")[0] == "codonmachine"]:
        del sys.modules[name]
    failures: list[str] = []

    def traffic():
        cm = importlib.import_module("codonmachine")
        importlib.import_module("codonmachine.cli")
        failures.extend(_workloads(cm))
        failures.extend(_transcripts(cm))
        failures.extend(_small_scope())
        failures.extend(_long_proof())

    def tier1():
        with contextlib.redirect_stdout(sys.stderr):  # stdout carries the JSON alone
            failures.extend(_tier1())

    lines = trace_lines(PACKAGE, traffic)
    by_traffic = unreached(PACKAGE, lines)
    for filename, ran in trace_lines(PACKAGE, tier1).items():
        lines[filename] |= ran
    for failure in failures:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({"traffic": by_traffic, "traffic_and_tier1": unreached(PACKAGE, lines)}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
