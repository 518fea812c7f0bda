"""Span tracer for the benchmark's traced run.

The library is not edited: ``install`` wraps the public functions of each
module from outside and rebinds every name in the package that refers to
one of them, so calls made through ``from .x import f`` names (as in
``oracle``, ``cli`` and ``special_classes``) and module-internal calls are
seen too.  Each call records a span (name, parent, start, end).  Spans are
kept in memory, up to a cap, and written when the benchmark ends; the
per-name aggregates (calls, inclusive time, self time) cover every call.

Self time is a span's duration minus the time covered by its child spans.
Hot leaf helpers listed in ``UNTRACED`` are not wrapped; their time is
charged to the traced caller.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager

MODULES = (
    "partitions",
    "weyl_classes",
    "classical_maps",
    "exceptional_tables",
    "special_classes",
    "oracle",
    "cli",
)

#: Private names that mark a layer boundary and are traced anyway.
PRIVATE_TRACED = {"exceptional_tables": ("_load",)}

#: Leaf helpers called millions of times per pass; wrapping them would make
#: the traced run many times slower than the untraced one.
UNTRACED = {
    "partitions": ("partition", "check_partition", "multiplicity", "odd_entries"),
}

SUITE_OF = {
    "verify_theorem_0_2": "theorem02",
    "verify_phi_psi_identity": "phipsi",
    "verify_xi_bijection": "xi",
    "verify_fiber_minimum": "fiber-min",
    "verify_rho_pi": "rhopi",
    "verify_tables": "tables",
    "verify_special": "special",
}

SPECIAL_GROUPS = {
    "enumerate": ("enumerate_A", "enumerate_A_prime", "enumerate_C", "enumerate_C_prime"),
    "bijection": ("h", "h_inv", "k", "k_inv"),
    "membership": ("in_A", "in_C", "in_C0", "in_A_prime", "in_C_prime", "in_C0_prime"),
}


#: Spans kept in memory per process; later calls still count in ``stats``.
SPAN_CAP = 200_000


class Tracer:
    """Collects nested spans for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start ns, end ns]
        self.dropped = 0
        self._stack: list[list] = []  # [name, span index, child ns, start ns]
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total ns, self ns]
        self.counters: Counter = Counter()

    def enter(self, name: str) -> None:
        parent = self._stack[-1][1] if self._stack else -1
        if len(self.spans) < SPAN_CAP:
            idx = len(self.spans)
            self.spans.append([name, parent, 0, 0])
        else:
            idx = -1
            self.dropped += 1
        self._stack.append([name, idx, 0, time.perf_counter_ns()])

    def exit(self) -> None:
        end = time.perf_counter_ns()
        name, idx, child, start = self._stack.pop()
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0, 0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if idx >= 0:
            self.spans[idx][2] = start
            self.spans[idx][3] = end

    def open_names(self) -> list[str]:
        return [frame[0] for frame in self._stack]

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code."""
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def dump(self) -> dict:
        return {
            "stats": self.stats,
            "counters": dict(self.counters),
            "spans": self.spans,
            "spans_dropped": self.dropped,
        }


def _post_hooks(tracer: Tracer) -> dict:
    """Counting hooks, run after a traced call returns (the caller's span is
    then the innermost open one)."""
    c = tracer.counters

    def enumerate_classes(result):
        c["weyl_classes.enumerate_classes.classes"] += len(result)
        if tracer.open_names()[-1:] == ["cli.atlas_lines"]:
            c["cli.atlas.classes"] += len(result)

    def fiber_map(result):
        scanned = sum(len(v) for v in result.values())
        c["oracle.fiber_map.classes_scanned"] += scanned
        if tracer.open_names()[-1:] == ["oracle.fiber_of"]:
            c["oracle.fiber_of.scanned"] += scanned

    def fiber_of(result):
        c["oracle.fiber_of.fiber_size"] += len(result)

    def enumerate_special(result):
        c["special_classes.enumerate.objects"] += len(result)

    def phi(result):
        names = tracer.open_names()
        if names[-1:] == ["cli.atlas_lines"] or names[-2:] == ["cli.atlas_lines", "oracle.fiber_map"]:
            c["cli.atlas.phi_calls"] += 1

    hooks = {
        "weyl_classes.enumerate_classes": enumerate_classes,
        "oracle.fiber_map": fiber_map,
        "oracle.fiber_of": fiber_of,
        "classical_maps.phi": phi,
    }
    for fn, suite in SUITE_OF.items():
        hooks["oracle." + fn] = (lambda s: lambda r: c.update({f"oracle.{s}.checked": r.checked}))(suite)
    for fn in SPECIAL_GROUPS["enumerate"]:
        hooks["special_classes." + fn] = enumerate_special
    return hooks


def _wrap(tracer: Tracer, name: str, fn, post=None):
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        if post is not None:
            post(result)
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every module and rebind each name in
    the package that refers to one of them.  Call after the package is
    imported and before any traced work."""
    modules = {m: importlib.import_module(f"weylunip.{m}") for m in MODULES}
    hooks = _post_hooks(tracer)
    wrapped = {}
    for short, mod in modules.items():
        private = PRIVATE_TRACED.get(short, ())
        skip = UNTRACED.get(short, ())
        for attr, value in list(vars(mod).items()):
            if (
                callable(value)
                and not isinstance(value, type)
                and getattr(value, "__module__", None) == mod.__name__
                and (not attr.startswith("_") or attr in private)
                and attr not in skip
            ):
                name = f"{short}.{attr}"
                wrapped[id(value)] = (value, _wrap(tracer, name, value, hooks.get(name)))
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])


def _cache_info(fn):
    while not hasattr(fn, "cache_info"):
        fn = fn.__wrapped__
    return fn.cache_info()


def cache_snapshot() -> dict[str, list[int]]:
    """Hits and misses of the library's caches, read from outside through
    ``cache_info()``: {cache name: [hits, misses]}."""
    p = importlib.import_module("weylunip.partitions")
    et = importlib.import_module("weylunip.exceptional_tables")
    sc = importlib.import_module("weylunip.special_classes")
    caches = {
        "partitions_of": p.partitions_of,
        "tables_load": et._load,
        "tau_table": sc.load_tau_table,
        "class_index": et.FiberTable._class_index,
        "unipotent_index": et.FiberTable._unipotent_index,
    }
    out = {}
    for name, fn in caches.items():
        info = _cache_info(fn)
        out[name] = [info.hits, info.misses]
    return out


def cache_delta(before: dict, after: dict) -> dict[str, list[int]]:
    return {k: [after[k][0] - before[k][0], after[k][1] - before[k][1]] for k in after}


def merge(into: dict, part: dict) -> None:
    """Add one process's stats, counters and cache deltas into ``into``."""
    for name, st in part["stats"].items():
        acc = into["stats"].setdefault(name, [0, 0, 0])
        for i in range(3):
            acc[i] += st[i]
    for name, n in part["counters"].items():
        into["counters"][name] = into["counters"].get(name, 0) + n
    for name, (hits, misses) in part["cache"].items():
        acc = into["cache"].setdefault(name, [0, 0])
        acc[0] += hits
        acc[1] += misses


#: The per-layer metrics of a traced pass: (name, unit, better).
LAYER_METRICS = (
    [
        ("exceptional_tables.lookup.us_per_call", "us", "lower"),
        ("exceptional_tables.lookup.calls", "count", "lower"),
        ("exceptional_tables.load_s", "s", "lower"),
        ("exceptional_tables.index.calls", "count", "lower"),
        ("exceptional_tables.index.hit_ratio", "ratio", "higher"),
        ("exceptional_tables.self_s", "s", "lower"),
        ("special_classes.enumerate.objects", "count", "lower"),
        ("special_classes.enumerate.self_s", "s", "lower"),
        ("special_classes.bijection.calls", "count", "lower"),
        ("special_classes.bijection.self_s", "s", "lower"),
        ("special_classes.membership.calls", "count", "lower"),
        ("special_classes.membership.self_s", "s", "lower"),
        ("special_classes.tau.us_per_call", "us", "lower"),
        ("special_classes.tau_table.hit_ratio", "ratio", "higher"),
        ("special_classes.self_s", "s", "lower"),
        ("oracle.fiber_map.classes_scanned", "count", "lower"),
        ("oracle.fiber_of.useful_ratio", "ratio", "higher"),
    ]
    + [(f"oracle.{s}.self_s", "s", "lower") for s in SUITE_OF.values()]
    + [(f"oracle.{s}.checked", "count", "higher") for s in SUITE_OF.values()]
    + [
        ("oracle.self_s", "s", "lower"),
        ("cli.atlas.phi_per_class", "ratio", "lower"),
        ("cli.import_s", "s", "lower"),
        ("cli.output_lines", "count", "higher"),
        ("cli.self_s", "s", "lower"),
        ("weyl_classes.enumerate_classes.classes", "count", "lower"),
        ("weyl_classes.enumerate_classes.self_s", "s", "lower"),
        ("weyl_classes.m_of_class.us_per_call", "us", "lower"),
        ("weyl_classes.self_s", "s", "lower"),
        ("classical_maps.phi.us_per_call", "us", "lower"),
        ("classical_maps.psi.us_per_call", "us", "lower"),
        ("classical_maps.enumerate_unipotents.self_s", "s", "lower"),
        ("classical_maps.self_s", "s", "lower"),
        ("partitions.partitions_of.calls", "count", "lower"),
        ("partitions.partitions_of.hit_ratio", "ratio", "higher"),
        ("partitions.self_s", "s", "lower"),
        ("bench.self_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)


def layer_metrics(run: dict, wall_ns: int, load_ns: int, import_s: float, output_lines: int) -> dict:
    """Per-layer metrics of one traced pass from its merged ``run`` record
    (stats, counters, cache deltas).  A layer the workload never calls
    reads 0.  ``trace.overhead_ratio`` needs the untraced pass and is
    filled in by the caller."""
    stats, counters, cache = run["stats"], run["counters"], run["cache"]

    def col(names, i):
        return sum(stats.get(n, (0, 0, 0))[i] for n in names)

    def per_call_us(*names):
        n = col(names, 0)
        return col(names, 1) / n / 1e3 if n else 0.0

    def self_s(*names):
        return col(names, 2) / 1e9

    def module_self_s(module):
        return sum(st[2] for n, st in stats.items() if n.startswith(module + ".")) / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    def hit_ratio(*caches):
        hits = sum(cache[c][0] for c in caches)
        return ratio(hits, hits + sum(cache[c][1] for c in caches))

    sc = {g: [f"special_classes.{f}" for f in fs] for g, fs in SPECIAL_GROUPS.items()}
    lookups = ("exceptional_tables.phi_lookup", "exceptional_tables.fiber")
    m = {
        "exceptional_tables.lookup.us_per_call": per_call_us(*lookups),
        "exceptional_tables.lookup.calls": col(lookups, 0),
        "exceptional_tables.load_s": load_ns / 1e9,
        "exceptional_tables.index.calls": sum(sum(cache[c]) for c in ("class_index", "unipotent_index")),
        "exceptional_tables.index.hit_ratio": hit_ratio("class_index", "unipotent_index"),
        "exceptional_tables.self_s": module_self_s("exceptional_tables"),
        "special_classes.enumerate.objects": counters.get("special_classes.enumerate.objects", 0),
        "special_classes.enumerate.self_s": self_s(*sc["enumerate"]),
        "special_classes.bijection.calls": col(sc["bijection"], 0),
        "special_classes.bijection.self_s": self_s(*sc["bijection"]),
        "special_classes.membership.calls": col(sc["membership"], 0),
        "special_classes.membership.self_s": self_s(*sc["membership"]),
        "special_classes.tau.us_per_call": per_call_us("special_classes.tau"),
        "special_classes.tau_table.hit_ratio": hit_ratio("tau_table"),
        "special_classes.self_s": module_self_s("special_classes"),
        "oracle.fiber_map.classes_scanned": counters.get("oracle.fiber_map.classes_scanned", 0),
        "oracle.fiber_of.useful_ratio": ratio(
            counters.get("oracle.fiber_of.fiber_size", 0), counters.get("oracle.fiber_of.scanned", 0)
        ),
    }
    for fn, suite in SUITE_OF.items():
        m[f"oracle.{suite}.self_s"] = self_s(f"oracle.{fn}")
    for suite in SUITE_OF.values():
        m[f"oracle.{suite}.checked"] = counters.get(f"oracle.{suite}.checked", 0)
    modules_self = sum(module_self_s(mod) for mod in MODULES)
    m.update(
        {
            "oracle.self_s": module_self_s("oracle"),
            "cli.atlas.phi_per_class": ratio(
                counters.get("cli.atlas.phi_calls", 0), counters.get("cli.atlas.classes", 0)
            ),
            "cli.import_s": import_s,
            "cli.output_lines": output_lines,
            "cli.self_s": module_self_s("cli"),
            "weyl_classes.enumerate_classes.classes": counters.get("weyl_classes.enumerate_classes.classes", 0),
            "weyl_classes.enumerate_classes.self_s": self_s("weyl_classes.enumerate_classes"),
            "weyl_classes.m_of_class.us_per_call": per_call_us("weyl_classes.m_of_class"),
            "weyl_classes.self_s": module_self_s("weyl_classes"),
            "classical_maps.phi.us_per_call": per_call_us("classical_maps.phi"),
            "classical_maps.psi.us_per_call": per_call_us("classical_maps.psi"),
            "classical_maps.enumerate_unipotents.self_s": self_s("classical_maps.enumerate_unipotents"),
            "classical_maps.self_s": module_self_s("classical_maps"),
            "partitions.partitions_of.calls": sum(cache["partitions_of"]),
            "partitions.partitions_of.hit_ratio": hit_ratio("partitions_of"),
            "partitions.self_s": module_self_s("partitions"),
            "bench.self_s": wall_ns / 1e9 - modules_self,
            "trace.wall_s": wall_ns / 1e9,
        }
    )
    return m
