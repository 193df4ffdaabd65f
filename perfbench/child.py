"""Run one rough-gauss CLI invocation in this fresh interpreter.

    python3 child.py <src-dir> <record.json> <trace 0|1> [cli args...]

Imports ``rough_gauss.cli`` from ``<src-dir>`` first thing, so the moment the
import finishes marks the end of set-up; without cli args it stops there.
With trace 1 the package's functions are wrapped in spans (see tracer.py)
before the CLI runs.  The record written to ``<record.json>`` holds
CLOCK_MONOTONIC readings, which the parent process compares with its own,
and the span aggregates.
"""

import json
import sys
import time

src, record_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
sys.path.insert(0, src)
import rough_gauss.cli as cli  # noqa: E402

imported = time.monotonic()
if not cli.__file__.startswith(src):
    sys.exit(f"rough_gauss was imported from {cli.__file__}, not {src}")

if len(sys.argv) == 4:
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({"imported": imported}, fh)
    sys.exit(0)

tracer = None
if trace:
    import tracer as tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)

start = time.monotonic()
code = cli.main(sys.argv[4:])
end = time.monotonic()
record = {"imported": imported, "main_start": start, "main_end": end,
          "exit": code, "rough_gauss": cli.__file__}
if tracer is not None:
    record.update(tracer.snapshot())
with open(record_path, "w", encoding="utf-8") as fh:
    json.dump(record, fh)
sys.exit(code)
