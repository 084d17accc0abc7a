"""tools/untraced_lines.py: which statements it lists, and which executed lines it records."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

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
'''


def test_statements_are_the_lines_that_run_code(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    found = {first: list(lines) for first, lines in tool.statements(path)}
    # no docstring, def, global or TYPE_CHECKING block; a simple statement spans all its lines,
    # a compound one only its header
    assert found == {2: [2], 7: [7], 13: [13], 14: [14], 15: [15, 16], 17: [17, 18], 19: [19], 20: [20]}


def test_tracer_records_only_the_lines_that_ran(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    before = sys.gettrace()
    with tool.LineTracer({str(path)}) as tracer:
        module = _load("untraced_sample", path)
        module.f(2)
    assert sys.gettrace() is before
    ran = {first for first, lines in tool.statements(path) if any((str(path), n) in tracer.hit for n in lines)}
    assert ran == {2, 7, 13, 14, 15}
