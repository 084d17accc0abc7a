"""tools/untraced_lines.py: which statements it lists, which executed lines it records, and its allowed list."""

from __future__ import annotations

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load("untraced_lines", ROOT / "tools" / "untraced_lines.py")

SAMPLE = '''\
"""A module docstring."""
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import json

COUNT = 0


def f(x):
    """A function docstring."""
    global COUNT
    COUNT += 1
    if x > 0:
        return (x +
                1)
    for k in range(
            x, 0):
        x += k
    return x


class C:
    def m(self):
        return 1
'''


def test_statements_are_the_lines_that_run_code(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    found = {first: (list(lines), scope) for first, lines, scope in tool.statements(path)}
    # no docstring, def, global or TYPE_CHECKING block; a simple statement spans all its lines,
    # a compound one only its header; each is named by its enclosing function
    assert found == {2: ([2], "<module>"), 7: ([7], "<module>"), 13: ([13], "f"), 14: ([14], "f"),
                     15: ([15, 16], "f"), 17: ([17, 18], "f"), 19: ([19], "f"), 20: ([20], "f"),
                     25: ([25], "C.m")}


def test_tracer_records_only_the_lines_that_ran(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    before = sys.gettrace()
    with tool.LineTracer({str(path)}) as tracer:
        module = _load("untraced_sample", path)
        module.f(2)
    assert sys.gettrace() is before
    ran = {first for first, lines, _ in tool.statements(path) if any((str(path), n) in tracer.hit for n in lines)}
    assert ran == {2, 7, 13, 14, 15}


def test_allowed_list_matches_by_function_and_text(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    with tool.LineTracer({str(path)}) as tracer:
        _load("untraced_sample_allowed", path).f(2)
    found = [("sample.py", scope, text) for _, scope, text in tool.untraced(path, tracer.hit)]
    assert found == [("sample.py", "f", "for k in range("), ("sample.py", "f", "x += k"),
                     ("sample.py", "f", "return x"), ("sample.py", "C.m", "return 1")]
    allowed = tmp_path / "allowed.txt"
    allowed.write_text("# file | scope | statement | reason\n\n"
                       "sample.py | f | x += k | the loop body\n"
                       "sample.py | f | return x | x <= 0\n"
                       "sample.py | C.m | return 1 | never called\n"
                       "sample.py | C.m | return 1 | listed twice, untraced once\n"
                       "sample.py | f | return (x + | ran\n", encoding="utf-8")
    keys = tool.read_allowed(allowed)
    assert keys[("sample.py", "C.m", "return 1")] == 2
    unlisted, ran = tool.unmatched(found, keys)
    assert unlisted == [("sample.py", "f", "for k in range(")]
    assert ran == [("sample.py", "C.m", "return 1"), ("sample.py", "f", "return (x +")]
    assert tool.unmatched(found, Counter(found)) == ([], [])


def test_allowed_line_without_a_reason_is_refused(tmp_path):
    allowed = tmp_path / "allowed.txt"
    allowed.write_text("sample.py | f | x += k\n", encoding="utf-8")
    with pytest.raises(ValueError, match="allowed.txt:1"):
        tool.read_allowed(allowed)
