"""``tools/traffic.py``: statement spans, the line tracer and the unreached
report, on a fixture package of one small module."""

import importlib.util
import json
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "traffic.py"

FIXTURE = '''"""A module docstring."""


def branch(x):
    """A function docstring."""
    if x:
        return 1
    return 2


@staticmethod
def never():
    return (
        3)
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("traffic", _TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_spans_leave_out_docstrings_and_start_at_decorators():
    assert load_tool().statement_spans(FIXTURE) == [(4, 8), (6, 7), (7, 7), (8, 8), (11, 14),
                                                   (13, 14)]


def test_unreached_statements_of_a_traced_run(tmp_path):
    tool = load_tool()
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "fixture.py").write_text(FIXTURE, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("fixture", package / "fixture.py")

    def traffic():
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.branch(True) == 1

    before = sys.gettrace()
    lines = tool.trace_lines(package, traffic)
    assert sys.gettrace() is before
    assert set(lines) == {str((package / "fixture.py").resolve())}
    # the second return and the body of the function never called
    assert json.dumps(tool.unreached(package, lines)) == '{"fixture": [8, 13]}'
