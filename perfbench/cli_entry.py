"""Run the ``weylunip`` command line in this process, as the installed
``weylunip`` script does, optionally traced.

Usage (with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/cli_entry.py [--trace-out=PATH] -- <weylunip arguments>

With ``--trace-out`` the import of ``weylunip.cli`` is timed, every module is
traced (see ``tracer.py``) and the spans, per-name aggregates, counters and
cache deltas are written to PATH as JSON when the command ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    trace_out = None
    if argv and argv[0].startswith("--trace-out="):
        trace_out = Path(argv.pop(0).split("=", 1)[1])
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if trace_out is None:
        from weylunip.cli import main as cli_main

        return cli_main(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracer as tr

    t0 = time.perf_counter()
    cli = importlib.import_module("weylunip.cli")
    import_s = time.perf_counter() - t0
    tracer = tr.Tracer()
    tr.install(tracer)
    before = tr.cache_snapshot()
    with tracer.span("bench.cli"):
        code = cli.main(argv)
        sys.stdout.flush()
    dump = tracer.dump()
    dump.update(cache=tr.cache_delta(before, tr.cache_snapshot()), import_s=import_s, argv=argv)
    trace_out.write_text(json.dumps(dump))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
