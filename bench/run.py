"""Benchmark for recip: four closed-loop workloads, one caller, in-process.

    python3 bench/run.py --workload closure --seed 1 --seconds 14 --trace 0
    python3 bench/run.py --selftest

Run from the root of a source checkout; the library is imported from
``src/``.  Each operation starts only after the previous one returned.
Results are checked after each operation, outside the timed region.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json, every time stated at the reference pace of ``pace.py``
(raw times are in the metadata).  With ``--trace 1`` the run first repeats
a fixed batch of operations untraced, then traced; the last line reports
the per-layer metrics of the traced batch (counts and self times per
operation), the tracing overhead is the ratio of the two batches' busy
time, and the spans are written under ``.bench_out/``.  The line before the
last holds the run metadata.  ``--selftest`` runs every workload briefly, checks that every
metric of BENCHMARK.json is emitted, and checks that corrupted results are
counted as failures.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))
from pace import REFERENCE_S, Pace  # noqa: E402
from tracer import Tracer, moves  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = (
    "laurent", "ratfunc", "parse", "semigroup", "membership", "linsolve",
    "valuation", "dimension", "dplusm", "egyptian", "cli",
)
SETUP_MIN_REPS = 3  # set up at least this often, and more while the
SETUP_MAX_REPS = 9  # set-ups so far took under SETUP_BUDGET_S in total
SETUP_BUDGET_S = 2.0
WARM_OPS = 2
WALL_LIMIT = 2.1  # a run on a slow host stops after this many times --seconds
TAIL_BEYOND = 10  # op_tail_ms is the highest percentile with this many samples beyond it
clock = time.perf_counter


def load_library() -> types.SimpleNamespace:
    """Import ``recip`` afresh from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "recip" or m.startswith("recip.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("recip")
    if Path(package.__file__).resolve().parent != SRC / "recip":
        raise ImportError(f"recip imported from {package.__file__}, not from {SRC}")
    lib = types.SimpleNamespace(package=package, MODULES=MODULES)
    for name in MODULES:
        setattr(lib, name, importlib.import_module(f"recip.{name}"))
    lib.sprime_cache = lib.semigroup.derive_sprime  # the lru_cache object itself
    return lib


def set_up(name: str, seed: int, reps: int | None = None):
    """Import, generate the seeded inputs and warm up, ``reps`` times or as
    often as the set-up budget allows.  Returns the last library and
    workload, the median set-up time at the reference pace, and every
    set-up time, raw."""
    pace = Pace()
    times: list[float] = []
    scaled: list[float] = []
    while len(times) < (reps or SETUP_MIN_REPS) or (
        reps is None and len(times) < SETUP_MAX_REPS and sum(times) < SETUP_BUDGET_S
    ):
        mark = len(pace.readings) - 1
        start = clock()
        lib = load_library()
        workload = WORKLOADS[name]()
        workload.setup(lib, seed)
        for op in next(workload.rounds())[:WARM_OPS]:
            workload.before(lib)
            workload.run(lib, op)
        times.append(clock() - start)
        pace.close()
        scaled.append(pace.scale(times[-1], mark))
    return lib, workload, statistics.median(scaled), times


class Batch:
    """Latencies and outcomes of the operations of one measured phase."""

    def __init__(self):
        self.latencies: list[float] = []  # raw
        self.scaled: list[float] = []  # at the reference pace
        self.pace_readings: list[float] = []
        self.failed = 0
        self.rounds = 0
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def measure(lib, workload, seconds, *, max_rounds=None, max_ops=None, tracer=None, corrupt=False):
    """Run whole rounds of operations while the next round is expected to
    end within ``seconds`` at the reference pace, and within WALL_LIMIT
    times ``seconds`` of wall time; check every result after it is timed.

    Counting the run's length at the reference pace makes a run of one seed
    do the same operations whatever the host's speed, so the operations
    that hold op_p50_ms and op_tail_ms do not change with it."""
    batch = Batch()
    pace = Pace()
    marks: list[int] = []
    round_times: list[float] = []
    start = clock()
    for ops in workload.rounds():
        if max_rounds is not None and batch.rounds >= max_rounds:
            break
        if round_times:
            elapsed = clock() - start + statistics.fmean(round_times)
            if elapsed * pace.factor() > seconds or elapsed > WALL_LIMIT * seconds:
                break
        round_start = clock()
        for op in ops[:max_ops]:
            workload.before(lib)
            before = lib.sprime_cache.cache_info()
            marks.append(pace.mark())
            t0 = clock()
            try:
                if tracer is None:
                    result = workload.run(lib, op)
                else:
                    result = tracer.operation(workload.run, lib, op)
            except Exception:
                batch.latencies.append(clock() - t0)
                batch.failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            batch.latencies.append(clock() - t0)
            after = lib.sprime_cache.cache_info()
            batch.cache_hits += after.hits - before.hits
            batch.cache_misses += after.misses - before.misses
            if corrupt:
                result = workload.corrupt(lib, result)
            if not workload.check(lib, op, result):
                batch.failed += 1
        batch.rounds += 1
        round_times.append(clock() - round_start)
        if max_ops is not None:
            break
    pace.close()
    batch.scaled = [pace.scale(t, mark) for t, mark in zip(batch.latencies, marks)]
    batch.pace_readings = pace.readings
    return batch


def end_to_end(batch: Batch, setup_s: float, latencies: list[float]) -> tuple[dict, dict]:
    lat = sorted(latencies)
    n = len(lat)
    tail_index = max(n - 1 - TAIL_BEYOND, 0)
    correct = n - batch.failed
    values = {
        "ops_per_s": correct / sum(lat),  # per second busy in the library
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": lat[tail_index] * 1e3,
        "correct_frac": correct / n,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    tail = {
        "percentile": 100.0 * (tail_index + 1) / n,
        "samples": n,
        "samples_beyond": n - 1 - tail_index,
    }
    return values, tail


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(spec, name, seed, seconds, trace, *, setup_reps=None, max_ops=None,
                 corrupt=False):
    """One benchmark run; returns (metrics, meta, attempted, failed)."""
    lib, workload, setup_s, setup_times = set_up(name, seed, setup_reps)
    meta = {
        "workload": name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
        "cache": workload.cache,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loop": "closed, one caller, no threads",
        "setup_s_runs": setup_times,
    }
    if not trace:
        batch = measure(lib, workload, seconds, max_ops=max_ops, corrupt=corrupt)
        values, tail = end_to_end(batch, setup_s, batch.scaled)
        raw, _ = end_to_end(batch, statistics.median(setup_times), batch.latencies)
        readings = batch.pace_readings
        meta.update(rounds=batch.rounds, ops=batch.attempted, failed=batch.failed,
                    failed_frac=batch.failed / batch.attempted, op_tail=tail,
                    raw={k: raw[k] for k in ("ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s")},
                    pace={"reference_s": REFERENCE_S, "readings": len(readings),
                          "median_s": statistics.median(readings),
                          "min_s": min(readings), "max_s": max(readings)})
        return values, meta, batch.attempted, batch.failed

    plain = measure(lib, workload, 0.45 * seconds, max_rounds=workload.traced_rounds,
                    max_ops=max_ops, corrupt=corrupt)
    tracer = Tracer(lib)
    tracer.install()
    try:
        traced = measure(lib, workload, seconds, max_rounds=plain.rounds, max_ops=max_ops,
                         tracer=tracer, corrupt=corrupt)
    finally:
        tracer.uninstall()
    values = tracer.layer_values(traced.attempted, traced.cache_hits, traced.cache_misses,
                                 scale=sum(traced.scaled) / sum(traced.latencies))
    values["trace.overhead_frac"] = sum(traced.scaled) / sum(plain.scaled) - 1
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{name}-seed{seed}.tsv.gz"
    tracer.write(spans_file)
    meta.update(
        rounds=traced.rounds,
        ops=traced.attempted,
        untraced_busy_s=sum(plain.scaled),
        traced_busy_s=sum(traced.scaled),
        spans=len(tracer.spans),
        spans_file=str(spans_file.relative_to(ROOT)),
        moves={m["name"]: dict(zip(("metric", "workload"), moves(m["name"])))
               for m in spec["per_layer"]},
    )
    attempted = plain.attempted + traced.attempted
    return values, meta, attempted, plain.failed + traced.failed


def report(spec, values, trace) -> dict:
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    if set(values) != {m["name"] for m in listed}:
        raise KeyError(f"metrics {sorted(set(values) ^ {m['name'] for m in listed})} "
                       "differ between the benchmark and BENCHMARK.json")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def selftest(spec) -> bool:
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            values, _, attempted, failed = run_workload(
                spec, name, 1, 5, trace, setup_reps=1, max_ops=6)
            for metric, entry in report(spec, values, trace).items():
                print(f"{name} trace={trace} {metric} = {entry['value']:.6g} {entry['unit']}")
            ok = ok and failed == 0
        _, _, attempted, failed = run_workload(
            spec, name, 1, 5, 0, setup_reps=1, max_ops=6, corrupt=True)
        print(f"{name}: corrupted results counted as failed: {failed}/{attempted}")
        ok = ok and failed == attempted
    print("selftest", "passed" if ok else "FAILED")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=14)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.selftest:
        return 0 if selftest(spec) else 1
    if args.workload is None:
        parser.error("--workload is required")
    try:
        values, meta, attempted, failed = run_workload(
            spec, args.workload, args.seed, args.seconds, args.trace)
    except ImportError as exc:
        print(f"error: cannot import the library: {exc}", file=sys.stderr)
        return 2
    metrics = report(spec, values, args.trace)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
