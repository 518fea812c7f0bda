"""Run the benchmark several times per workload and record the spread.

Usage, from the root of a checkout::

    python3 perfbench/record.py --first-seed 1 [--out FILE] [--compare EARLIER_FILE]

For every workload in ``BENCHMARK.json`` it makes ``RUNS`` untraced runs,
one seed each (``first-seed``, ``first-seed + 1``, ...), with the run length
from ``BENCHMARK.json``, then one traced run on the first seed.  For each
end-to-end metric it reports the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread (Q3 - Q1) /
median next to the metric's bound.  With ``--compare`` it also reports how
far each median moved against an earlier record, as a share of that
record's median.  ``--out`` writes the whole record as JSON (a BENCH file).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Untraced runs per workload, one seed each.
RUNS = 10


def git(*args: str) -> str:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def bench_run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_s"] = time.monotonic() - t0
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "runs": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--compare", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    earlier = json.loads(args.compare.read_text()) if args.compare else None
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    record = {
        "git_head": git("rev-parse", "HEAD"),
        "src_tree": git("rev-parse", "HEAD:src"),
        "python": sys.version.split()[0],
        "machine": f"{platform.machine()} {platform.processor() or platform.platform()}",
        "nproc": os.cpu_count(),
        "run_seconds": spec["run_seconds"],
        "bounds": bounds,
        "seeds": seeds,
        "workloads": {},
    }
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench_run(spec, workload, seed, 0) for seed in seeds]
        if not all(r["correct"] and r["failed"] == 0 for r in runs):
            print(f"{workload}: a run reported failed operations", file=sys.stderr)
            ok = False
        end_to_end = {}
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["bound"] = bound
            line = f"{workload:14s} {name:18s} median={s['median']:<12.6g} spread={s['spread']:.4f} bound={bound}"
            if s["spread"] > bound / 3:
                line += "  SPREAD ABOVE BOUND/3"
            if earlier is not None:
                before = earlier["workloads"][workload]["end_to_end"][name]["median"]
                s["moved"] = (s["median"] - before) / before
                line += f" moved={s['moved']:+.4f}"
            print(line, flush=True)
            end_to_end[name] = s
        traced = bench_run(spec, workload, seeds[0], 1)
        record["workloads"][workload] = {
            "end_to_end": end_to_end,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_wall_s": [r["wall_s"] for r in runs] + [traced["wall_s"]],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
