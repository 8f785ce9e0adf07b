"""Run bench/run.py in two checkouts in alternating order and compare them.

    python3 tools/bench_pairs.py BEFORE AFTER --workload strata --seeds 1-10 [--seconds 14]

BEFORE and AFTER are the roots of two source checkouts.  For each seed the
two run back to back, BEFORE first on odd seeds and AFTER first on even
ones.  Before every run the checkout's ``src/recip/__pycache__`` is deleted
and the run writes no bytecode, because a warm cache lowers ``setup_s``.
Each run prints its operation count and every end-to-end metric of
BENCHMARK.json, with the number of set-ups (``len(setup_s_runs)`` in the
run's metadata line) beside ``setup_s``; at the end each metric gets both
sides' median and quartiles, the ratio AFTER/BEFORE of the medians and the
pairs AFTER won.  The script writes no file.

``setup_s`` is the median of the set-ups that run before the timed phase,
so it does not depend on ``--seconds``: a short run measures it as well as
a full one.  The number of set-ups does depend on the library: the run
repeats the set-up while the set-ups so far took under the benchmark's
set-up budget, so a faster set-up may run more of them, and keeps one
more imported library in memory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def run(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The result line and the metadata of one run of bench/run.py."""
    shutil.rmtree(root / "src" / "recip" / "__pycache__", ignore_errors=True)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True, check=True)
    *_, meta, line = result.stdout.splitlines()
    return json.loads(line), json.loads(meta)["meta"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=14)
    args = parser.parse_args(argv)
    spec = json.loads((args.before / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]
    sides = {"before": args.before.resolve(), "after": args.after.resolve()}
    results: dict[str, list[dict]] = {"before": [], "after": []}
    for seed in args.seeds:
        order = ("before", "after") if seed % 2 else ("after", "before")
        for side in order:
            line, meta = run(sides[side], args.workload, seed, args.seconds)
            results[side].append(line)
            fields = []
            for m in metrics:
                fields.append(f"{m['name']}={line['metrics'][m['name']]['value']:.6g}")
                if m["name"] == "setup_s":
                    fields.append(f"setup_reps={len(meta['setup_s_runs'])}")
            values = " ".join(fields)
            print(f"{args.workload} seed={seed} {side:<6} ops={line['attempted']} failed={line['failed']} {values}",
                  flush=True)
    print(f"{'metric':<14} {'before q1/median/q3':>34} {'after q1/median/q3':>34} {'ratio':>7}  won")
    for metric in [{"name": "ops", "better": "higher"}] + metrics:
        name = metric["name"]

        def values(side: str) -> list[float]:
            return [line["attempted"] if name == "ops" else line["metrics"][name]["value"]
                    for line in results[side]]

        before, after = values("before"), values("after")
        sign = 1 if metric["better"] == "higher" else -1
        won = sum(sign * (a - b) > 0 for a, b in zip(after, before))
        qb, qa = quartiles(before), quartiles(after)
        ratio = qa[1] / qb[1] if qb[1] else float("nan")
        print(f"{name:<14} {'/'.join(f'{v:.5g}' for v in qb):>34} {'/'.join(f'{v:.5g}' for v in qa):>34} "
              f"{ratio:>7.3f}  {won}/{len(before)}")


if __name__ == "__main__":
    main(sys.argv[1:])
