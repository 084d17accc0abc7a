"""List the statements of src/goldencalc that a replay of real traffic never runs, and check them against a list.

The traffic is what users and the benchmark send the library:

* perfbench's workload operations, each prepared, called and checked as
  perfbench/run.py does it, the first few operations of every workload at a
  few seeds (perfbench/workloads.py is imported, never modified);
* a corpus of CLI command lines, each in the plain, json and csv formats,
  run through the console entry point `goldencalc.cli.main`;
* `goldencalc verify` at several precisions.

A statement this traffic never reaches is either a path that only the tests
take (a candidate for deletion) or a gap in `goldencalc verify` (a candidate
for a suite). Run it from anywhere; it needs only the standard library and
the project's own dependencies:

    python tools/untraced_lines.py

It prints one `path:line: source` line per untraced statement, then a
summary on stderr. tools/untraced_allowed.txt lists the statements allowed to
stay untraced, each by file, enclosing function and statement text with a
reason (refusals and failure reports, mostly). The exit code is 1 if a
replayed operation failed its check (then the traffic was not the working
traffic it stands for), if an untraced statement is not in that list, or if a
listed one ran; else 0.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "goldencalc"
ALLOWED = ROOT / "tools" / "untraced_allowed.txt"
LAYERS = ("core", "binomials", "calculus", "oscillator", "angular", "verify", "cli")
# Operations replayed per workload and seed: over seeds 0-2, 3 verify runs, 300 exact and 900 numeric calls.
SEEDS = (0, 1, 2)
OPS_PER_SEED = {"verify": 1, "exact": 100, "numeric": 300}
FORMATS = ("plain", "json", "csv")
# One command line per command and option, errors included; {out} is a scratch file.
ARGV_CORPUS = (
    "fib 7", "fib -3", "fib 2000", "fib 2.5",
    "fibx 0.5", "fibx 2.5 1", "fibx 3", "fibx -999.5", "fibx 1e9",
    "fibonomial 10 4", "fibonomial 5 7",
    "binom 6", "binom 6 --form expansion", "binom 31",
    "poly 7 --a 3/2", "poly 3", "poly 2 --a 0",
    "deriv 1,2,3", "deriv 1/3,2/7,5/11 --x 0.5", "deriv 7", "deriv 1,2,0",
    "deriv " + ",".join(["1"] * 1006),  # degree 1005: fib_range(0, 1005) walks past the shared table's F_1003
    "exp 5/2", "exp 1 --kind big_E --terms 40", "exp 1e30 --terms 10",
    "trig 0.7 --kind sin_F", "trig 1e-30 --kind Cosh_F",
    "integrate 1/3,2/7 --x 0.5",
    "spectrum --n-max 10 --hbar-omega 7/3", "ratios --n-max 20",
    "angmom --j 3/2", "angmom --j 2 --variant symmetric", "angmom --j 5/2 --variant tilde", "angmom --j 1/3",
    "invert-n 55 --parity even", "invert-n 56 --parity even",
    "limit 1", "limit -4.75 --n 37", "limit 1e1000000 --n 200",
    "plot-data ratios --n-max 10 --output {out}", "plot-data spectrum --n-max 10 --output {out}",
    "plot-data casimir_ratios --n-max 5 --output {out}",
    "verify --only core --report {out}", "--precision 15 verify",
)
VERIFY_PRECISIONS = (16, 34, 100, 400)


def statements(path: Path) -> list[tuple[int, range, str]]:
    """(first line, lines whose execution counts as reaching it, enclosing scope) for each executable statement.

    A compound statement is reached through its header lines, a simple one through any of its
    lines. Definitions, declarations and docstrings run no code of their own and are left out,
    and so is the `if TYPE_CHECKING:` block, which only type checkers read. The scope is the
    dotted name of the enclosing functions and classes, `<module>` at the top level.
    """
    out = []

    def visit(body, scope: str) -> None:
        for i, node in enumerate(body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(node.body, node.name if scope == "<module>" else f"{scope}.{node.name}")
                continue
            if i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
                continue  # a docstring
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                continue  # a declaration: no code to run
            if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
                continue
            inner = [getattr(node, name) for name in ("body", "orelse", "finalbody") if getattr(node, name, None)]
            inner += [handler.body for handler in getattr(node, "handlers", ())]
            header_end = min(block[0].lineno for block in inner) if inner else node.end_lineno + 1
            out.append((node.lineno, range(node.lineno, max(header_end, node.lineno + 1)), scope))
            for block in inner:
                visit(block, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")).body, "<module>")
    return out


def untraced(path: Path, hit: set[tuple[str, int]]) -> list[tuple[int, str, str]]:
    """(first line, enclosing scope, first line's text) of each statement in `path` that never ran."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [(first, scope, lines[first - 1].strip()) for first, reached, scope in statements(path)
            if not any((str(path), line) in hit for line in reached)]


def read_allowed(path: Path) -> Counter:
    """The allowed (file, scope, statement) keys: one `file | scope | statement | reason` line each.

    Blank lines and `#` comments are skipped. A key listed k times allows k untraced statements.
    """
    allowed = Counter()
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split(" | ", 2)
        text, _, reason = fields[-1].rpartition(" | ")
        if len(fields) < 3 or not text or not reason.strip():
            raise ValueError(f"{path}:{number}: expected 'file | scope | statement | reason', got {line!r}")
        allowed[(fields[0], fields[1], text)] += 1
    return allowed


def unmatched(found: list[tuple[str, str, str]], allowed: Counter) -> tuple[list, list]:
    """(untraced keys that `allowed` does not cover, allowed keys that no untraced statement uses)."""
    found = Counter(found)
    return sorted((found - allowed).elements()), sorted((allowed - found).elements())


class LineTracer:
    """Records the (file, line) pairs executed in the package's own source files."""

    def __init__(self, files: set[str]) -> None:
        self.files, self.hit = files, set()

    def _global(self, frame, event, arg):
        return self._local if frame.f_code.co_filename in self.files else None

    def _local(self, frame, event, arg):
        if event == "line":
            self.hit.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def __enter__(self):
        self.previous = sys.gettrace()
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self.previous)


def replay_operations(failures: list[str]) -> int:
    """Prepare, call and check each scheduled operation as perfbench does; returns the count."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads  # perfbench's inputs, calls and checks

    lib = SimpleNamespace(**{layer: importlib.import_module(f"goldencalc.{layer}") for layer in LAYERS})
    count = 0
    for workload, per_seed in OPS_PER_SEED.items():
        for seed in SEEDS:
            schedule = workloads.schedule(workload, seed)
            for _ in range(per_seed):
                op = next(schedule)
                spec = workloads.OPS[op["op"]]
                result = error = None
                try:
                    result = spec.call(lib, op, spec.prepare(lib, op))
                except Exception as exc:  # checked below, as perfbench counts it
                    error = exc
                outcome = workloads.check(op, result, error)
                if outcome.status != "ok":
                    failures.append(f"{workloads.describe(op)}: {outcome.status} {outcome.detail}")
                count += 1
    return count


def run_cli(argv: list[str]) -> None:
    """One console-script run of `goldencalc argv`, its output and exit code discarded."""
    from goldencalc.cli import main

    saved, sys.argv = sys.argv, ["goldencalc", *argv]
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main()
    except SystemExit:
        pass
    finally:
        sys.argv = saved


def replay_cli() -> int:
    """The argv corpus in every format, then `verify` at each precision; returns the run count."""
    count = 0
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "out")
        for line in ARGV_CORPUS:
            for fmt in FORMATS:
                run_cli(["--format", fmt, *line.format(out=out).split()])
                count += 1
        for precision in VERIFY_PRECISIONS:
            run_cli(["--precision", str(precision), "verify"])
            count += 1
    return count


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sources = sorted(PACKAGE.glob("*.py"))
    failures: list[str] = []
    with LineTracer({str(path) for path in sources}) as tracer:
        import goldencalc  # module bodies run under the tracer
        if Path(goldencalc.__file__).resolve().parent != PACKAGE:
            raise SystemExit(f"goldencalc imported from {goldencalc.__file__}, not {PACKAGE}")
        ops = replay_operations(failures)
        runs = replay_cli()

    total, found = 0, []
    for path in sources:
        total += len(statements(path))
        for first, scope, text in untraced(path, tracer.hit):
            print(f"{path.relative_to(ROOT)}:{first}: {text}")
            found.append((path.name, scope, text))
    unlisted, ran = unmatched(found, read_allowed(ALLOWED))
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    for key in unlisted:
        print(f"UNTRACED, NOT LISTED {' | '.join(key)}", file=sys.stderr)
    for key in ran:
        print(f"LISTED, NOT UNTRACED {' | '.join(key)}", file=sys.stderr)
    print(f"{ops} operations ({len(failures)} failed checks), {runs} CLI runs; "
          f"{len(found)} of {total} statements never ran, {len(unlisted)} of them not in "
          f"{ALLOWED.relative_to(ROOT)}, {len(ran)} listed ones not untraced", file=sys.stderr)
    return 1 if failures or unlisted or ran else 0


if __name__ == "__main__":
    sys.exit(main())
