#!/usr/bin/env python3
"""goldencalc benchmark: one closed-loop caller over the public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {verify,exact,numeric} --seed N \
        --seconds S --trace {0,1}

--trace 0 measures the end-to-end metrics with tracing off: it times a fresh
interpreter's `import goldencalc.cli` (setup_s), then calls the library one
operation at a time for S seconds and checks every result against
reference.py. --trace 1 runs a fixed number of operations twice, untraced
and traced, and reports the per-layer metrics, the tracing overhead, every
verifier suite's time and the import times; its spans go to
.perfbench/trace-<workload>-seed<N>.jsonl.

Metric names and units come from BENCHMARK.json. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Only unexpected failures count in "failed"; a failure matching a documented
defect (workloads.KNOWN_DEFECTS) is printed and lowers ok_ratio instead.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# One BLAS thread (nproc or fewer) keeps dense-matrix timings steady; it must
# be set before numpy is first imported, here and in every child.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import hostspeed  # noqa: E402  (these import numpy)
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Fresh-interpreter imports per run, half before and half after the measured
# loop, so that one slow stretch of the host does not set the median.
SETUP_REPEATS = 10
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 60
# Operations per phase of a traced run: fixed, so that counts repeat exactly
# for a seed. TRACE_WALL_CAP_S stops a phase early if the code gets slower.
TRACE_OPS = {"verify": 5, "exact": 210, "numeric": 700}
TRACE_WALL_CAP_S = 50
TAIL_MIN_BEYOND = 10
SETUP_CODE = ("import time; t = time.perf_counter(); import goldencalc.cli; "
              "print(time.perf_counter() - t)")


class HarnessError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


# ---------------------------------------------------------------------------
# Child interpreters: setup time and import breakdown
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _run_child(args: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise HarnessError(f"child {args} failed: {proc.stderr.strip()[-500:]}")
    return proc


def measure_setup(count: int) -> list[float]:
    """Import time of goldencalc.cli in `count` fresh interpreters."""
    return [float(_run_child(["-c", SETUP_CODE]).stdout.strip()) for _ in range(count)]


def _importtime_once() -> dict[str, float]:
    stderr = _run_child(["-X", "importtime", "-c", "import goldencalc.cli"]).stderr
    cumulative: dict[str, int] = {}
    own_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_part, cum_part, name_part = line.split("|")
        try:
            self_us = int(self_part.split(":")[1])
            cum_us = int(cum_part)
        except ValueError:
            continue  # the header line
        name = name_part.strip()
        cumulative.setdefault(name, cum_us)
        if name == "goldencalc" or name.startswith("goldencalc."):
            own_us += self_us
    return {"import.numpy_ms": cumulative.get("numpy", 0) / 1e3,
            "import.mpmath_ms": cumulative.get("mpmath", 0) / 1e3,
            "import.click_ms": cumulative.get("click", 0) / 1e3,
            "import.goldencalc_ms": own_us / 1e3}


def measure_imports() -> dict[str, float]:
    """Median over children of `-X importtime`: third-party packages and goldencalc's own code."""
    runs = [_importtime_once() for _ in range(IMPORTTIME_REPEATS)]
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


# ---------------------------------------------------------------------------
# The library under test
# ---------------------------------------------------------------------------

def load_library() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    import goldencalc  # noqa: F401  (imports every layer)
    import goldencalc.cli  # noqa: F401
    if Path(goldencalc.__file__).resolve().parent != (SRC / "goldencalc").resolve():
        raise HarnessError(f"goldencalc imported from {goldencalc.__file__}, not {SRC}")
    return SimpleNamespace(**{layer: sys.modules[f"goldencalc.{layer}"] for layer in tracing.LAYERS})


def environment(workload: str, seed: int, digest: str) -> dict:
    import mpmath
    import numpy
    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "numpy": numpy.__version__,
            "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)), "workload": workload, "seed": seed,
            "inputs_sha256": digest, "inputs_digest_ops": workloads.DIGEST_OPS}


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Phase:
    probes: hostspeed.Probes
    samples_ns: list[int] = dataclasses.field(default_factory=list)
    status: Counter = dataclasses.field(default_factory=Counter)
    known: Counter = dataclasses.field(default_factory=Counter)
    series: Counter = dataclasses.field(default_factory=Counter)  # attempts, ok
    truncated: bool = False

    @property
    def attempted(self) -> int:
        return len(self.samples_ns)

    def scaled_ns(self) -> list[float]:
        return self.probes.scale(self.samples_ns)


def run_phase(lib, ops, *, seconds: float | None = None, count: int | None = None,
              tracer=None) -> Phase:
    """Call each operation after the previous one returned; time only the call."""
    phase = Phase(hostspeed.Probes())
    start = time.perf_counter()
    for index, op in enumerate(ops):
        elapsed = time.perf_counter() - start
        if count is not None and index >= count:
            break
        if seconds is not None and elapsed >= seconds:
            break
        if count is not None and elapsed >= TRACE_WALL_CAP_S:
            phase.truncated = True
            break
        spec = workloads.OPS[op["op"]]
        prepared = spec.prepare(lib, op)
        if tracer is not None:
            tracer.begin_op(index, workloads.is_large(op))
        result = error = None
        t0 = time.perf_counter_ns()
        try:
            result = spec.call(lib, op, prepared)
        except Exception as exc:  # counted as a failed operation, never fatal
            error = exc
        t1 = time.perf_counter_ns()
        outcome = workloads.check(op, result, error)
        phase.samples_ns.append(t1 - t0)
        phase.status[outcome.status] += 1
        if op["op"] in workloads.SERIES_OPS:
            phase.series["attempts"] += 1
            phase.series["ok"] += outcome.status == "ok"
        if outcome.status == "known":
            phase.known[outcome.defect] += 1
            print(f"KNOWN-DEFECT {outcome.defect} {workloads.describe(op)}: {outcome.detail}")
        elif outcome.status == "unexpected":
            print(f"FAIL {workloads.describe(op)}: {outcome.detail}")
        phase.probes.maybe(phase.attempted)
    phase.probes.take(phase.attempted)
    return phase


def tail(samples_ns: list[float]) -> tuple[float, float, int]:
    """(percentile, value in ms, samples beyond it) for the highest percentile
    with TAIL_MIN_BEYOND samples above it: the 11th-largest sample, or the
    maximum when there are too few samples."""
    ordered = sorted(samples_ns)
    n = len(ordered)
    if n <= TAIL_MIN_BEYOND:
        return 100.0, ordered[-1] / 1e6, 0
    return 100 * (n - TAIL_MIN_BEYOND) / n, ordered[n - TAIL_MIN_BEYOND - 1] / 1e6, TAIL_MIN_BEYOND


# ---------------------------------------------------------------------------
# Self-checks of the harness
# ---------------------------------------------------------------------------

def self_checks(lib, workload: str, seed: int) -> list[tuple[str, bool, str]]:
    results = []

    d1 = workloads.inputs_digest(workload, seed)
    d2 = workloads.inputs_digest(workload, seed)
    d3 = workloads.inputs_digest(workload, seed + 1)
    results.append(("same seed gives identical inputs", d1 == d2, d1[:16]))
    results.append(("another seed gives other inputs", d1 != d3, d3[:16]))

    original = lib.binomials.fibonomial
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = lib.binomials.fibonomial is not original and lib.core.fib_exact(10) == 55
        lib.binomials.fibonomial(6, 3)
        counted = tracer.fn_calls("binomials.fibonomial") == 1 and tracer.calls("core") >= 1
    finally:
        tracer.uninstall()
    restored = lib.binomials.fibonomial is original and not tracing.Tracer.leftover_wrappers()
    results.append(("tracing wraps, counts and restores the originals",
                    wrapped and counted and restored, ""))

    def is_unexpected(op, value) -> bool:
        return workloads.check(op, value, None).status == "unexpected"

    row_op = {"op": "fibonomial_row", "n": 12}
    row = [lib.binomials.fibonomial(12, k) for k in range(13)]
    bad_row = row[:5] + [row[5] + 1] + row[6:]
    results.append(("a Fibonomial off by one is a failure",
                    not is_unexpected(row_op, row) and is_unexpected(row_op, bad_row), ""))

    exp_op = {"op": "golden_exp", "x": 0.5, "kind": "small_e", "precision": 34}
    sv = lib.calculus.golden_exp(0.5, precision=34)
    bad_sv = dataclasses.replace(sv, value=sv.value * (1 + 1e-20))
    results.append(("a series value wrong in digit 20 is not excused as a known defect",
                    is_unexpected(exp_op, bad_sv), ""))

    osc_op = {"op": "verify_oscillator_algebra", "dim": 40}
    report = lib.oscillator.verify_oscillator_algebra(40)
    bad_report = dataclasses.replace(
        report, residuals={k: v * 1e6 + 1 for k, v in report.residuals.items()},
        failures=("corrupted",))
    results.append(("a large operator residual is not excused as a known defect",
                    is_unexpected(osc_op, bad_report), ""))

    rows = [reference.fibonomial_row(n) for n in range(31)]
    pascal = all(reference.pascal_holds(n, rows[n], rows[n - 1], k)
                 for n in range(2, 31) for k in range(1, n))
    results.append(("reference Fibonomials satisfy the Fibonacci Pascal rule", pascal, ""))
    return results


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

def time_suites(lib, seed: int) -> tuple[dict[str, float], int]:
    """Each verifier suite alone, as verify_all runs it (default profile).

    verify_all(only=[id]) matches ids by prefix, so it cannot isolate
    calculus.leibnitz-rule-i from calculus.leibnitz-rule-ii; the registered
    runners are called directly instead.
    """
    samples, failed = [], 0
    probes = hostspeed.Probes()
    for suite in lib.verify.SUITES:
        ctx = lib.verify.SuiteContext(tol=suite.default_tol, rng=random.Random(seed),
                                      precision=lib.verify.DEFAULT_PRECISION)
        t0 = time.perf_counter_ns()
        ok, _, notes = suite.runner(ctx)
        samples.append(time.perf_counter_ns() - t0)
        probes.take(len(samples))
        if not ok:
            failed += 1
            print(f"FAIL verify suite {suite.id}: {notes}")
    times = {f"verify.suite.{suite.id}.ms": ns / 1e6
             for suite, ns in zip(lib.verify.SUITES, probes.scale(samples))}
    return times, failed


def layer_metrics(tracer, phase: Phase) -> dict[str, float]:
    """Counts as recorded; times scaled by the traced phase's median probe."""
    to_ms = phase.probes.factor() / 1e6
    out = {}
    for layer in tracing.LAYERS:
        cell = tracer.layer(layer)
        out[f"{layer}.calls"] = tracer.calls(layer)
        out[f"{layer}.self_ms"] = cell[tracing.SELF_NS] * to_ms
        out[f"{layer}.failed"] = cell[tracing.FAILED]
    attempts = phase.series["attempts"]
    out.update({
        "binomials.fibonomial.calls": tracer.fn_calls("binomials.fibonomial"),
        "binomials.fib_factorial.calls": tracer.fn_calls("binomials.fib_factorial"),
        "core.fib_exact.result_bits": tracer.fib_result_bits,
        "calculus.series_terms": tracer.series_terms,
        "calculus.series_checked": attempts,
        "calculus.digits_ok_ratio": phase.series["ok"] / attempts if attempts else 0.0,
        "oscillator.report_failed": tracer.layer("oscillator")[tracing.REPORT_FAILED],
        "angular.report_failed": tracer.layer("angular")[tracing.REPORT_FAILED],
        "oscillator.self_ms_dim_ge_100": tracer.layer("oscillator")[tracing.LARGE_SELF_NS] * to_ms,
        "angular.self_ms_j_ge_20": tracer.layer("angular")[tracing.LARGE_SELF_NS] * to_ms,
    })
    return out


def traced_run(lib, workload: str, seed: int) -> tuple[dict, int, int]:
    count = TRACE_OPS[workload]
    metrics = measure_imports()
    plain = run_phase(lib, workloads.schedule(workload, seed), count=count)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_phase(lib, workloads.schedule(workload, seed), count=count, tracer=tracer)
    finally:
        tracer.uninstall()
    leftovers = tracing.Tracer.leftover_wrappers()
    if leftovers:
        raise HarnessError(f"tracing wrappers left in place: {leftovers[:5]}")
    m = min(plain.attempted, traced.attempted)
    metrics["trace.overhead_pct"] = 100 * (sum(traced.scaled_ns()[:m]) / sum(plain.scaled_ns()[:m]) - 1)
    metrics.update(layer_metrics(tracer, traced))
    suite_times, suite_failed = time_suites(lib, seed)
    metrics.update(suite_times)

    OUT_DIR.mkdir(exist_ok=True)
    span_path = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl"
    tracer.write_spans(span_path)
    print(f"trace {count} ops per phase (untraced {plain.attempted}, traced {traced.attempted}"
          f"{', truncated by the wall cap' if plain.truncated or traced.truncated else ''}); "
          f"{len(tracer.spans)} spans ({tracer.spans_dropped} dropped) in "
          f"{span_path.relative_to(ROOT)}")
    for phase_name, phase in (("untraced", plain), ("traced", traced)):
        print(f"phase {phase_name}: {dict(phase.status)} known defects {dict(phase.known)}")
    attempted = plain.attempted + traced.attempted + len(suite_times)
    failed = plain.status["unexpected"] + traced.status["unexpected"] + suite_failed
    return metrics, attempted, failed


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def end_to_end_run(lib, workload: str, seed: int, seconds: float,
                   setup: list[float]) -> tuple[dict, int, int]:
    phase = run_phase(lib, workloads.schedule(workload, seed), seconds=seconds)
    if not phase.attempted:
        raise HarnessError("no operation completed")
    setup = setup + measure_setup(SETUP_REPEATS - len(setup))
    scaled = phase.scaled_ns()
    busy_s = sum(scaled) / 1e9
    pct, tail_ms, beyond = tail(scaled)
    n = phase.attempted
    ok = phase.status["ok"]
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": n / busy_s,
        "op_p50_ms": statistics.median(scaled) / 1e6,
        "op_tail_ms": tail_ms,
        "ok_ratio": ok / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"setup: {SETUP_REPEATS} fresh interpreters (half before, half after the loop), "
          f"import goldencalc.cli took "
          + ", ".join(f"{s:.4f}" for s in setup) + " s")
    raw_s = sum(phase.samples_ns) / 1e9
    probe_ms = [ns / 1e6 for _, ns in phase.probes.readings]
    print(f"ops: {n} attempted in {busy_s:.3f} s of calls at reference speed ({raw_s:.3f} s raw: "
          f"{n / raw_s:.4g} ops/s, p50 {statistics.median(phase.samples_ns) / 1e6:.4g} ms); "
          f"tail is p{pct:.4g} with {beyond} samples beyond it")
    print(f"host speed: {len(probe_ms)} probes, median {statistics.median(probe_ms):.4f} ms, "
          f"range {min(probe_ms):.4f}-{max(probe_ms):.4f} ms (nominal "
          f"{hostspeed.PROBE_NOMINAL_NS / 1e6:g} ms)")
    print(f"outcomes: ok {ok}, known defect {phase.status['known']}, unexpected "
          f"{phase.status['unexpected']}; error_rate {(n - ok) / n:.4f} = {n - ok}/{n}")
    for defect, hits in sorted(phase.known.items()):
        print(f"known defect {defect}: {hits} ops ({workloads.KNOWN_DEFECTS[defect]})")
    if phase.series["attempts"]:
        print(f"series ops meeting the requested digits: {phase.series['ok']}/{phase.series['attempts']}")
    return metrics, n, phase.status["unexpected"]


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    bench_json = ROOT / "BENCHMARK.json"
    if not (SRC / "goldencalc" / "__init__.py").is_file() or not bench_json.is_file():
        print(f"error: run from a goldencalc checkout: need {SRC / 'goldencalc'} and {bench_json}",
              file=sys.stderr)
        return 2
    spec = json.loads(bench_json.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    setup = []
    if not args.trace:
        _run_child(["-c", SETUP_CODE])  # bytecode compiled once, as for any user
        setup = measure_setup(SETUP_REPEATS // 2)
    lib = load_library()
    digest = workloads.inputs_digest(args.workload, args.seed)
    print("env " + json.dumps(environment(args.workload, args.seed, digest), sort_keys=True))

    checks = self_checks(lib, args.workload, args.seed)
    for name, ok, detail in checks:
        print(f"selfcheck {'ok' if ok else 'FAILED'}: {name} {detail}".rstrip())

    if args.trace:
        metrics, attempted, failed = traced_run(lib, args.workload, args.seed)
    else:
        metrics, attempted, failed = end_to_end_run(lib, args.workload, args.seed,
                                                    args.seconds, setup)
    moves = {}
    if args.trace:
        layers = json.loads((BENCH_DIR / "layers.json").read_text(encoding="utf-8"))
        moves = {r["metric"]: f"  (moves {', '.join(r['moves']) or 'nothing'} on {', '.join(r['on'])})"
                 for r in layers["per_layer"]}
        unmapped = [m["name"] for m in wanted if m["name"] not in moves]
        if unmapped:
            raise HarnessError(f"per-layer metrics missing from layers.json: {unmapped}")
    units = {m["name"]: m["unit"] for m in wanted}
    for name in sorted(metrics):
        print(f"metric {name} = {metrics[name]!r} {units.get(name, '')}{moves.get(name, '')}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise HarnessError(f"metrics not produced: {missing}")
    result = {
        "correct": failed == 0 and all(ok for _, ok, _ in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
