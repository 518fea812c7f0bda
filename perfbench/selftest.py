"""Self-tests of the benchmark itself (not part of the library's test suite).

Run from the root of a checkout::

    python3 perfbench/selftest.py

They show that a perturbed output fails the correctness gate, that the
traced per-layer self times add up to the traced wall time, that the load
stays at one caller, that the benchmark refuses to run without the
program's sources, and that ``BENCHMARK.json`` names what the code reports.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import tracer as tr  # noqa: E402
import worker as w  # noqa: E402

SCRATCH = ROOT / ".perfbench" / "selftest"


def setUpModule():
    SCRATCH.mkdir(parents=True, exist_ok=True)
    w.setup(None)


class CorrectnessGate(unittest.TestCase):
    golden = w.load_golden()

    def test_perturbed_report_fails(self):
        report = w.mod("oracle").verify_tables("G2")
        want = {"tables G2": self.golden["oracle-sweep"]["tables G2"]}
        self.assertEqual(w.check_keyed(w.verifier_outputs([report]), want), (1, []))
        report.count("class-count")
        self.assertEqual(w.check_keyed(w.verifier_outputs([report]), want), (1, ["tables G2"]))

    def test_perturbed_program_fails_query_mix(self):
        wc = w.mod("weyl_classes")
        original = wc.m_of_class
        calls = w.prepare_query_mix(5, self.golden)[:3000]
        outs, _ = w.run_queries(calls, w.SpeedProbe(active=False))
        self.assertEqual(w.check_query_mix(calls, outs, self.golden)[1], [])

        def off_by_one_on_g2(ctx, C):
            return original(ctx, C) + (ctx.family == "G2")

        wc.m_of_class = off_by_one_on_g2
        try:
            calls = w.prepare_query_mix(5, self.golden)[:3000]
        finally:
            wc.m_of_class = original
        outs, _ = w.run_queries(calls, w.SpeedProbe(active=False))
        failed = w.check_query_mix(calls, outs, self.golden)[1]
        g2_m = [c for c in calls if c[1] is off_by_one_on_g2 and c[2].family == "G2"]
        self.assertTrue(g2_m)
        self.assertEqual(len(failed), len(g2_m))

    def test_perturbed_cli_output_fails(self):
        key, argv = w.COLD_START
        commands = [(key, argv)] * 3
        outs, _, _ = w.run_cli(commands[:1], w.SpeedProbe(active=False))
        code, stdout = outs[0]
        outs = [(code, stdout), (code, stdout + " "), (1, stdout)]
        attempted, failed, _ = w.check_cli(commands, outs, self.golden)
        self.assertEqual((attempted, len(failed)), (3, 2))


class Tracing(unittest.TestCase):
    def test_self_times_sum_to_traced_wall(self):
        trace_dir = SCRATCH / "trace"
        trace_dir.mkdir(exist_ok=True)
        result = bench.run_worker("query-mix", 3, trace_dir)
        layers = result["layers"]
        spans = json.loads((trace_dir / "spans-query-mix-seed3.json").read_text())
        self.assertEqual(spans["dropped"], 0)
        spans = spans["pass"]
        # recompute self time per span from the span list alone
        children = defaultdict(int)
        for name, parent, start, end in spans:
            if parent >= 0:
                children[parent] += end - start
        root = next(i for i, s in enumerate(spans) if s[0] == "bench.run")
        under_root, module_self = set(), defaultdict(int)
        for i, (name, parent, start, end) in enumerate(spans):
            if i == root or parent in under_root:
                under_root.add(i)
                module_self[name.split(".")[0]] += end - start - children[i]
        root_ns = spans[root][3] - spans[root][2]
        self.assertEqual(sum(module_self.values()), root_ns)
        self.assertAlmostEqual(layers["trace.wall_s"], root_ns / 1e9, places=9)
        for module in tr.MODULES:
            self.assertAlmostEqual(layers[f"{module}.self_s"], module_self[module] / 1e9, places=9)
        self.assertAlmostEqual(layers["bench.self_s"], module_self["bench"] / 1e9, places=9)
        self.assertGreater(layers["exceptional_tables.lookup.calls"], 0)
        self.assertEqual(layers["oracle.self_s"], 0)


class SpeedNormalization(unittest.TestCase):
    def test_operation_scaled_by_reference_slowdown_around_it(self):
        probe = w.SpeedProbe()
        probe.samples = [2 * w.REFERENCE_S]  # the reference ran at half speed
        probe.after(1000)
        probe.samples.append(4 * w.REFERENCE_S)  # and then at a quarter
        self.assertAlmostEqual(probe.normalized([1000])[0], 1000 / 3)

    def test_probes_spread_over_operation_time(self):
        probe = w.SpeedProbe()
        for _ in range(10):
            probe.after(w.PROBE_EVERY_NS // 2)
        self.assertEqual(len(probe.samples), 1 + 5)


class OneCaller(unittest.TestCase):
    def test_passes_run_one_at_a_time_without_threads(self):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "query-mix", "--seed", "3",
             "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        record = json.loads((ROOT / ".perfbench" / "query-mix-seed3-trace0.json").read_text())
        passes = record["passes"]
        self.assertGreaterEqual(len(passes), bench.MIN_PASSES)
        for earlier, later in zip(passes, passes[1:]):
            self.assertLessEqual(earlier["interval"][1], later["interval"][0])
        self.assertTrue(all(p["threads"] == 1 for p in passes))

    def test_cli_pass_runs_commands_in_sequence(self):
        result = bench.run_worker("cli-atlas", 3)
        self.assertEqual(result["threads"], 1)
        self.assertEqual(result["failed"], 0)


class Contract(unittest.TestCase):
    def test_refuses_to_run_without_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "query-mix", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_benchmark_json_names_what_the_code_reports(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(bench.END_TO_END))
        self.assertEqual([m["unit"] for m in spec["end_to_end"]], list(bench.END_TO_END.values()))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], list(tr.LAYER_METRICS)
        )
        self.assertEqual(sorted(x["name"] for x in spec["workloads"]), sorted(w.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
