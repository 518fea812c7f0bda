"""Capture the golden digests that every benchmark run checks against.

Run from the root of a checkout, at the commit whose outputs are the
reference::

    PYTHONPATH=src python3 perfbench/capture_golden.py

It writes ``perfbench/golden.json``: SHA-256 digests of each verifier
report's ``record_lines()`` for the two sweeps, the query pool of
``query-mix`` with the digest of each answer, and the stdout digests of the
``cli-atlas`` commands and of every candidate in its seeded fiber pool.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import worker as w  # noqa: E402

#: Inputs per (map, context) in the query pool, evenly spaced through the
#: library's enumeration order.
POOL_PER_GROUP = 32
QUERY_CONTEXTS = [("E8", 8, "p2"), ("E8", 8, "p3"), ("E7", 7, "p2"), ("F4", 4, "p2"), ("G2", 2, "p3")] + [
    (family, 12, char) for family in "BCD" for char in ("good", "p2")
]
#: Fiber slots of ``cli-atlas``: the seed picks one unipotent of each.
FIBER_SLOTS = [("B", 16, "good"), ("C", 17, "good"), ("D", 18, "good")]
FIBER_POOL = 8


def spaced(items: list, n: int) -> list:
    if len(items) <= n:
        return list(items)
    return [items[(i * len(items)) // n] for i in range(n)]


def query_domain(qmap: str, ctx) -> list:
    wc, cm, sc = w.mod("weyl_classes"), w.mod("classical_maps"), w.mod("special_classes")
    if qmap in ("phi", "m"):
        return wc.enumerate_classes(ctx)
    if qmap == "tau":
        return sc.special_classes(ctx)
    if qmap == "pi":
        return cm.enumerate_unipotents(ctx.good())
    return cm.enumerate_unipotents(ctx)


def query_pool() -> list:
    fns = w.query_functions()
    pool = []
    for family, rank, char in QUERY_CONTEXTS:
        ctx = w.context_of(family, rank, char)
        for qmap in fns:
            if qmap in ("rho", "pi") and char == "good":
                continue
            for x in spaced(query_domain(qmap, ctx), POOL_PER_GROUP):
                text = str(x)
                if w.parse_query_input(qmap, ctx, text) != x:
                    raise SystemExit(f"{qmap} {ctx}: {text!r} does not parse back")
                pool.append([qmap, family, rank, char, text, w.sha(str(fns[qmap](ctx, x)))])
    return pool


def cli_stdout(argv: list[str]) -> str:
    proc = subprocess.run(w.cli_command(argv), capture_output=True, env=w.child_env(), check=True)
    return proc.stdout.decode("utf-8")


def fiber_slots() -> list:
    cm = w.mod("classical_maps")
    slots = []
    for family, rank, char in FIBER_SLOTS:
        ctx = w.context_of(family, rank, char)
        pool = []
        for u in spaced(cm.enumerate_unipotents(ctx, bound=rank), FIBER_POOL):
            argv = ["fiber", "--family", family, "--rank", str(rank), "--char", char, str(u)]
            pool.append([str(u), w.sha(cli_stdout(argv))])
        slots.append({"family": family, "rank": rank, "char": char, "pool": pool})
    return slots


def main() -> int:
    w.setup(None)
    golden = {}
    for workload in ("oracle-sweep", "special-sweep"):
        prepare, run, _check = w.WORKLOADS[workload]
        reports, _ = run(prepare(0, golden), w.SpeedProbe(active=False))
        golden[workload] = dict(w.verifier_outputs(reports))
    golden["query-mix"] = {"pool": query_pool()}
    golden["cli-atlas"] = {
        "commands": {key: w.sha(cli_stdout(argv)) for key, argv in w.CLI_FIXED},
        "fiber_slots": fiber_slots(),
    }
    out = Path(w.HERE) / "golden.json"
    out.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
