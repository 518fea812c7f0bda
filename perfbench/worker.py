"""One benchmark pass in a fresh interpreter.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py --workload NAME --seed N [--trace-dir DIR]

The pass sets up (imports ``weylunip.cli``, which pulls in every module, and
loads every fiber table and tau table), builds the workload's inputs outside
the timed region, runs the workload's fixed work once with one caller and no
threads, checks every output against ``golden.json``, and prints one JSON
object.  With ``--trace-dir`` the pass is traced (see ``tracer.py``) and the
spans are written there.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402

#: Largest special-set total for ``special-sweep``; criterion 7 uses 30.
SPECIAL_N = 22
#: Rank up to which ``special-sweep`` also checks the class maps.
SPECIAL_MAPS_RANK = 12
#: Queries per ``query-mix`` pass.
QUERIES = 15_000
#: CLI commands run by every ``cli-atlas`` pass besides the seeded fibers.
CLI_FIXED = (
    ("phi D_4/good r=4,4;p=", ["phi", "--family", "D", "--rank", "4", "r=4,4;p="]),
    ("atlas B_16/good", ["atlas", "--family", "B", "--rank", "16"]),
    ("atlas C_12/p2", ["atlas", "--family", "C", "--rank", "12", "--char", "p2"]),
    ("atlas E8/p2", ["atlas", "--family", "E8", "--char", "p2"]),
)
#: The trivial CLI call whose cold start every run times.
COLD_START = CLI_FIXED[0]


#: Seconds the reference loop takes at the reference speed (see ``SpeedProbe``).
REFERENCE_S = 0.002
#: Operation time between two reference probes.
PROBE_EVERY_NS = 50_000_000


def reference_loop() -> list:
    """Fixed pure-Python work (tuples, dict updates, a sort) that does not
    touch the library; its run time tracks the machine's current speed."""
    counts = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())[:3]


def time_reference() -> float:
    """Time ``reference_loop`` with garbage collection off, so that the
    probe does not scan objects the library left behind and its time does
    not depend on the size of the program's heap."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class SpeedProbe:
    """Samples the machine's speed around each timed operation.

    On a shared machine the processor's speed for the same code drifts by up
    to 2x over seconds and minutes.  The probe times ``reference_loop`` before
    the first operation, then once per ``PROBE_EVERY_NS`` of operation time
    (between operations, outside their timings), and once at the end.
    ``normalized`` scales each operation's measured time to the reference
    speed, using the mean of the probes just before and just after it."""

    def __init__(self, active: bool = True):
        self.active = active
        if active:
            reference_loop()  # the first run in a process is slower: not a sample
        self.samples = [time_reference()] if active else []
        self._marks = []  # per operation: index of the last probe before it
        self._owed = 0

    def sample(self) -> None:
        if self.active:
            self.samples.append(time_reference())

    def after(self, op_ns: int) -> None:
        if not self.active:
            return
        self._marks.append(len(self.samples) - 1)
        self._owed += op_ns
        while self._owed >= PROBE_EVERY_NS:
            self._owed -= PROBE_EVERY_NS
            self.samples.append(time_reference())

    def factor_between(self, i: int, j: int) -> float:
        return 2 * REFERENCE_S / (self.samples[i] + self.samples[j])

    def normalized(self, op_ns: list[int]) -> list[float]:
        """Operation times in nanoseconds at the reference speed; the pass
        must have ended with ``sample``."""
        return [t * self.factor_between(m, m + 1) for t, m in zip(op_ns, self._marks)]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden() -> dict:
    return json.loads((HERE / "golden.json").read_text())


def mod(name: str):
    """A library module; ``weylunip.special_classes`` is shadowed by a
    function of the same name on the package, so never use attribute access
    on the package."""
    return importlib.import_module(f"weylunip.{name}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cli_command(argv: list[str], trace_out: Path | None = None) -> list[str]:
    extra = [f"--trace-out={trace_out}"] if trace_out else []
    return [sys.executable, str(HERE / "cli_entry.py"), *extra, "--", *argv]


# --- workloads ---------------------------------------------------------------
#
# Each workload has ``prepare(seed, golden)`` returning its calls, built
# outside the timed region, and ``check(calls, outputs, golden)`` returning
# (attempted, failed keys, extra figures).  ``run`` times every call.


def verifier_outputs(reports) -> list[tuple[str, str]]:
    return [(f"{r.suite} {r.context}", sha("\n".join(r.record_lines()))) for r in reports]


def check_keyed(outputs, golden_map) -> tuple[int, list[str]]:
    failed = [key for key, digest in outputs if golden_map.get(key) != digest]
    missing = set(golden_map) - {key for key, _ in outputs}
    return len(golden_map), failed + sorted(missing)


def prepare_oracle_sweep(seed, golden):
    oracle = mod("oracle")
    calls = []
    for ctx in oracle.acceptance_contexts(12):
        calls.append(("verify_theorem_0_2", (ctx,), {}))
        calls.append(("verify_phi_psi_identity", (ctx,), {}))
        if ctx.char != "good":
            calls.append(("verify_rho_pi", (ctx,), {}))
    calls.append(("verify_xi_bijection", (24,), {}))
    calls.append(("verify_fiber_minimum", (25,), {}))
    for family in ("G2", "F4", "E6", "E7", "E8"):
        calls.append(("verify_tables", (family,), {}))
    return calls


def prepare_special_sweep(seed, golden):
    GroupContext = mod("weyl_classes").GroupContext
    calls = []
    for family, lo in (("C", 2), ("D", 3)):
        for n in range(lo, SPECIAL_N + 1):
            ctx = GroupContext(family, n, "good")
            calls.append(("verify_special", (ctx,), {"check_maps": n <= SPECIAL_MAPS_RANK}))
    return calls


def run_verifiers(calls, probe: SpeedProbe):
    oracle = mod("oracle")
    reports, op_ns = [], []
    clock = time.perf_counter_ns
    for name, args, kwargs in calls:
        fn = getattr(oracle, name)
        t0 = clock()
        try:
            reports.append(fn(*args, **kwargs))
        except Exception as exc:  # counted as a failed operation by the check
            reports.append(exc)
        op_ns.append(clock() - t0)
        probe.after(op_ns[-1])
    return reports, op_ns


def check_verifiers(workload):
    def check(calls, outs, golden):
        # a report with failures, or a call that raised and left its key
        # missing, fails its digest once
        reports = [r for r in outs if not isinstance(r, Exception)]
        attempted, failed = check_keyed(verifier_outputs(reports), golden[workload])
        errors = [repr(e) for e in outs if isinstance(e, Exception)]
        return attempted, failed, {"checks": sum(r.checked for r in reports), "errors": errors[:10]}

    return check


def context_of(family, rank, char):
    return mod("weyl_classes").GroupContext(family, rank, char)


def parse_query_input(qmap, ctx, text):
    if qmap in ("phi", "m", "tau"):
        return mod("weyl_classes").parse_class(ctx, text)
    if qmap == "pi":
        return mod("classical_maps").parse_unipotent(ctx.good(), text)
    return mod("classical_maps").parse_unipotent(ctx, text)


def query_functions():
    cm, wc, sc = mod("classical_maps"), mod("weyl_classes"), mod("special_classes")
    return {"phi": cm.phi, "psi": cm.psi, "m": wc.m_of_class, "tau": sc.tau, "rho": cm.rho, "pi": cm.pi}


def prepare_query_mix(seed, golden):
    pool = golden["query-mix"]["pool"]
    fns = query_functions()
    items = []
    for qmap, family, rank, char, text, _digest in pool:
        ctx = context_of(family, rank, char)
        items.append((fns[qmap], ctx, parse_query_input(qmap, ctx, text)))
    picks = random.Random(seed).choices(range(len(pool)), k=QUERIES)
    return [(i, *items[i]) for i in picks]


def run_queries(calls, probe: SpeedProbe):
    outs, op_ns = [], []
    clock = time.perf_counter_ns
    for _i, fn, ctx, x in calls:
        t0 = clock()
        try:
            outs.append(fn(ctx, x))
        except Exception as exc:  # counted as a failed operation by the check
            outs.append(exc)
        op_ns.append(clock() - t0)
        probe.after(op_ns[-1])
    return outs, op_ns


def check_query_mix(calls, outs, golden):
    pool = golden["query-mix"]["pool"]
    texts = [str(o) for o in outs]
    failed = [
        f"{pool[i][0]} {pool[i][1]}_{pool[i][2]}/{pool[i][3]} {pool[i][4]}"
        for (i, *_rest), text in zip(calls, texts)
        if sha(text) != pool[i][5]
    ]
    exceptional = sum(1 for _i, _fn, ctx, _x in calls if ctx.is_exceptional)
    extra = {
        "exceptional_share": exceptional / len(calls),
        "stream_sha256": sha("\n".join(texts)),
    }
    return len(calls), failed, extra


def prepare_cli_atlas(seed, golden):
    rng = random.Random(seed)
    commands = [(key, argv) for key, argv in CLI_FIXED]
    for slot in golden["cli-atlas"]["fiber_slots"]:
        family, rank, char = slot["family"], slot["rank"], slot["char"]
        payload, _digest = rng.choice(slot["pool"])
        key = f"fiber {family}_{rank}/{char} {payload}"
        argv = ["fiber", "--family", family, "--rank", str(rank), "--char", char, payload]
        commands.append((key, argv))
    return commands


def cli_digests(golden) -> dict[str, str]:
    digests = dict(golden["cli-atlas"]["commands"])
    for slot in golden["cli-atlas"]["fiber_slots"]:
        for payload, digest in slot["pool"]:
            digests[f"fiber {slot['family']}_{slot['rank']}/{slot['char']} {payload}"] = digest
    return digests


def run_cli(commands, probe: SpeedProbe, trace_dir: Path | None = None):
    """Run each command as its own CLI process, one at a time."""
    outs, op_ns, dumps = [], [], []
    env = child_env()
    for n, (_key, argv) in enumerate(commands):
        trace_out = trace_dir / f"cli-{os.getpid()}-{n}.json" if trace_dir else None
        t0 = time.perf_counter_ns()
        proc = subprocess.run(cli_command(argv, trace_out), capture_output=True, env=env, timeout=120)
        op_ns.append(time.perf_counter_ns() - t0)
        probe.after(op_ns[-1])
        outs.append((proc.returncode, proc.stdout.decode("utf-8", "replace")))
        if trace_out:
            dumps.append(json.loads(trace_out.read_text()))
            trace_out.unlink()
    return outs, op_ns, dumps


def check_cli(commands, outs, golden):
    digests = cli_digests(golden)
    failed = [
        key
        for (key, _argv), (code, stdout) in zip(commands, outs)
        if code != 0 or digests.get(key) != sha(stdout)
    ]
    lines = sum(stdout.count("\n") for _code, stdout in outs)
    return len(commands), failed, {"output_lines": lines}


WORKLOADS = {
    "oracle-sweep": (prepare_oracle_sweep, run_verifiers, check_verifiers("oracle-sweep")),
    "special-sweep": (prepare_special_sweep, run_verifiers, check_verifiers("special-sweep")),
    "query-mix": (prepare_query_mix, run_queries, check_query_mix),
    "cli-atlas": (prepare_cli_atlas, None, check_cli),
}


# --- one pass ------------------------------------------------------------------


def setup(tracer: tr.Tracer | None) -> tuple[float, float, int]:
    """Import the package through its CLI module and load every table.

    Returns (import seconds, set-up seconds, table-load nanoseconds as
    traced, or 0 when untraced)."""
    t0 = time.perf_counter()
    importlib.import_module("weylunip.cli")
    t_import = time.perf_counter()
    if tracer is not None:
        tr.install(tracer)
    et, sc, wc = mod("exceptional_tables"), mod("special_classes"), mod("weyl_classes")
    with tracer.span("bench.setup") if tracer else nullcontext():
        for family, char in et.TABLE_FILES:
            et.load_table(wc.GroupContext(family, wc.EXCEPTIONAL_RANK[family], char))
        for family in sc.TAU_FILES:
            sc.load_tau_table(family)
    t_end = time.perf_counter()
    load_ns = tracer.stats["exceptional_tables._load"][1] if tracer else 0
    return t_import - t0, t_end - t0, load_ns


def percentile(sorted_values: list, q: float):
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def run_pass(workload: str, seed: int, trace_dir: Path | None = None) -> dict:
    golden = load_golden()
    tracer = tr.Tracer() if trace_dir else None
    probe = SpeedProbe(active=tracer is None)
    import_s, setup_s, load_ns = setup(tracer)
    probe.sample()
    prepare, run, check = WORKLOADS[workload]
    calls = prepare(seed, golden)
    if tracer is not None:  # count the timed work only
        tracer.stats = {}
        tracer.counters.clear()
    before = tr.cache_snapshot()
    t0 = time.perf_counter_ns()
    if workload == "cli-atlas":
        outs, op_ns, dumps = run_cli(calls, probe, trace_dir)
        wall_ns = time.perf_counter_ns() - t0
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        with tracer.span("bench.run") if tracer else nullcontext():
            outs, op_ns = run(calls, probe)
        wall_ns = time.perf_counter_ns() - t0
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # copied now: checking the outputs below calls traced formatters
        dumps = [json.loads(json.dumps({"stats": tracer.stats, "counters": tracer.counters}))] if tracer else []
    cache = tr.cache_delta(before, tr.cache_snapshot())
    probe.sample()
    attempted, failed, extra = check(calls, outs, golden)
    op_sorted = sorted(op_ns)
    result = {
        "workload": workload,
        "seed": seed,
        "import_s": import_s,
        "setup_s": setup_s,
        "run_s": sum(op_ns) / 1e9,
        "probes": len(probe.samples),
        "ops": len(op_ns),
        "op_p50_us": percentile(op_sorted, 0.5) / 1e3,
        "op_p99_us": percentile(op_sorted, 0.99) / 1e3,
        "attempted": attempted,
        "failed": len(failed),
        "failures": failed[:10],
        "peak_rss_kb": rss_kb,
        "threads": threading.active_count(),
        "extra": extra,
    }
    if probe.active:
        norm = probe.normalized(op_ns)
        result["normalized"] = {
            "setup_s": setup_s * probe.factor_between(0, 1),
            "run_s": sum(norm) / 1e9,
            "op_p50_us": percentile(sorted(norm), 0.5) / 1e3,
            "op_p99_us": percentile(sorted(norm), 0.99) / 1e3,
        }
    if tracer is not None:
        merged = {"stats": {}, "counters": {}, "cache": {}}
        for dump in dumps:
            dump.setdefault("cache", cache)
            tr.merge(merged, dump)
        if workload == "cli-atlas":  # the import as each CLI process made it
            import_s = statistics.median(d["import_s"] for d in dumps)
        else:
            wall_ns = dumps[0]["stats"]["bench.run"][1]
        result["layers"] = tr.layer_metrics(merged, wall_ns, load_ns, import_s, extra.get("output_lines", 0))
        spans = {
            "pass": tracer.spans,
            "dropped": tracer.dropped,
            "cli_processes": [{"argv": d["argv"], "spans": d["spans"]} for d in dumps if "argv" in d],
        }
        (trace_dir / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(spans))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-dir", type=Path, default=None)
    args = parser.parse_args(argv)
    print(json.dumps(run_pass(args.workload, args.seed, args.trace_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
