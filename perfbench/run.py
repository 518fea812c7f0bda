"""weylunip benchmark: one run of one workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` times the untraced program: it runs passes of the workload
(each in a fresh interpreter, one at a time, each preceded by cold starts of
a trivial CLI call) until the ``--seconds`` budget is spent, and reports
medians over the passes.  Times are reported in seconds at a reference
speed: each measured time is scaled by how much slower or faster a fixed
pure-Python loop ran around it than ``worker.REFERENCE_S`` (see
``worker.SpeedProbe``); the measured values are printed and recorded too.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics.  Every output is checked
against ``golden.json``.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it repeat the figures for people, and the full record (seed, every pass,
environment) is written under ``.perfbench/`` in the checkout.
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
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402
import worker as w  # noqa: E402

#: Every run makes at least this many passes, so medians have three samples.
MIN_PASSES = 3
#: Cold-start samples of the trivial CLI call taken before each pass (after
#: one untimed warm-up call per run), so they spread over the run ...
COLD_PER_PASS = 4
#: ... and topped up after the last pass to at least this many.
COLD_MIN = 32
#: A run stops starting passes after this many seconds whatever the budget.
HARD_LIMIT_S = 120
OUT_DIR = ROOT / ".perfbench"

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "op_p50_us": "us",
    "cli_cold_start_ms": "ms",
    "peak_rss_mb": "MB",
}


class PassFailed(Exception):
    pass


def run_worker(workload: str, seed: int, trace_dir: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, env=w.child_env(), timeout=HARD_LIMIT_S)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass timed out after {exc.timeout} s") from exc
    t1 = time.monotonic()
    if proc.returncode != 0:
        raise PassFailed(proc.stderr.decode("utf-8", "replace").strip()[-2000:])
    result = json.loads(proc.stdout.decode("utf-8").splitlines()[-1])
    result["interval"] = [t0, t1]
    return result


def cold_call(golden: dict) -> tuple[float, bool]:
    """Seconds for one trivial CLI call, and whether it printed the golden
    answer with exit status 0."""
    key, argv = w.COLD_START
    t0 = time.perf_counter()
    proc = subprocess.run(w.cli_command(argv), capture_output=True, env=w.child_env(), timeout=60)
    elapsed = time.perf_counter() - t0
    ok = proc.returncode == 0 and w.sha(proc.stdout.decode("utf-8", "replace")) == golden["cli-atlas"]["commands"][key]
    return elapsed, ok


def timed_run(workload: str, seed: int, seconds: int, golden: dict) -> dict:
    start = time.monotonic()
    cold, cold_ok = [], [cold_call(golden)[1]]  # the first call may compile bytecode
    w.reference_loop()  # likewise the first run of the reference loop
    cold_factor = []
    passes = []

    def time_cold_start():
        before = w.time_reference()
        elapsed, ok = cold_call(golden)
        cold_factor.append(2 * w.REFERENCE_S / (before + w.time_reference()))
        cold.append(elapsed)
        cold_ok.append(ok)

    while True:
        for _ in range(COLD_PER_PASS):
            time_cold_start()
        passes.append(run_worker(workload, seed))
        elapsed = time.monotonic() - start
        walls = [p["interval"][1] - p["interval"][0] for p in passes]
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            break
        if elapsed > HARD_LIMIT_S:
            break
    while len(cold) < COLD_MIN:
        time_cold_start()

    def raw(key):
        return statistics.median(p[key] for p in passes)

    def norm(key):
        return statistics.median(p["normalized"][key] for p in passes)

    metrics = {
        "setup_s": norm("setup_s"),
        "run_s": norm("run_s"),
        "op_p50_us": norm("op_p50_us"),
        "cli_cold_start_ms": statistics.median(c * f for c, f in zip(cold, cold_factor)) * 1e3,
        "peak_rss_mb": raw("peak_rss_kb") / 1024,
    }
    measured = {
        "setup_s": raw("setup_s"),
        "run_s": raw("run_s"),
        "op_p50_us": raw("op_p50_us"),
        "cli_cold_start_ms": statistics.median(cold) * 1e3,
    }
    return {
        "metrics": metrics,
        "measured": measured,
        "attempted": sum(p["attempted"] for p in passes) + len(cold_ok),
        "failed": sum(p["failed"] for p in passes) + cold_ok.count(False),
        "passes": passes,
        "cold_start_s": cold,
        "cold_speed_factor": cold_factor,
    }


def traced_run(workload: str, seed: int) -> dict:
    trace_dir = OUT_DIR / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    plain = run_worker(workload, seed)
    traced = run_worker(workload, seed, trace_dir)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = traced["run_s"] / plain["run_s"]
    return {
        "metrics": metrics,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "passes": [plain, traced],
    }


def human_lines(workload: str, seed: int, record: dict) -> list[str]:
    lines = [f"workload={workload} seed={seed} passes={len(record['passes'])}"]
    lines += [f"{name}={value:.6g}" for name, value in record["metrics"].items()]
    if "measured" in record:
        lines.append("as measured, before speed normalization: "
                     + " ".join(f"{k}={v:.6g}" for k, v in record["measured"].items()))
    passes = [p for p in record["passes"] if "layers" not in p]  # untraced only
    first = passes[0]
    run_s = statistics.median(p["normalized"]["run_s"] for p in passes)
    if "checks" in first["extra"]:
        lines.append(f"checks_per_s={first['extra']['checks'] / run_s:.6g} checks={first['extra']['checks']}")
    if workload == "query-mix":
        p50 = statistics.median(p["normalized"]["op_p50_us"] for p in passes)
        p99 = statistics.median(p["normalized"]["op_p99_us"] for p in passes)
        lines.append(
            f"queries_per_s={first['ops'] / run_s:.6g} query_p50_us={p50:.6g} query_p99_us={p99:.6g} "
            f"queries_per_pass={first['ops']} exceptional_share={first['extra']['exceptional_share']:.4f} "
            f"stream_sha256={first['extra']['stream_sha256']}"
        )
    lines.append(f"ops_failed_ratio={record['failed'] / record['attempted']:.6g} "
                 f"({record['failed']}/{record['attempted']})")
    for p in record["passes"]:
        for failure in p["failures"]:
            lines.append(f"FAILED {failure}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="weylunip benchmark: one run of one workload")
    parser.add_argument("--workload", required=True, choices=sorted(w.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "weylunip" / "__init__.py").is_file():
        print(f"error: no weylunip sources under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # one CPU for the whole run, so the speed probes and the timed work
    # (children included, which inherit the affinity) share a processor
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    golden = w.load_golden()
    try:
        if args.trace:
            record = traced_run(args.workload, args.seed)
        else:
            record = timed_run(args.workload, args.seed, args.seconds, golden)
    except PassFailed as exc:
        print(f"error: a pass of {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    for line in human_lines(args.workload, args.seed, record):
        print(line)
    units = END_TO_END if not args.trace else {name: unit for name, unit, _ in tr.LAYER_METRICS}
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        python=sys.version.split()[0],
        machine=platform.machine(),
        nproc=os.cpu_count(),
    )
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
