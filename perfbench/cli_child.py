"""One traced `pidcheck` command in a fresh process, for the traced run of
the cli-corpus workload.

    python3 perfbench/cli_child.py SPAN_FILE <pidcheck arguments...>

Behaves like `python -m pidcheck.cli <arguments>` and also writes the
spans of the command to SPAN_FILE.
"""
import sys

import spans

tracer = spans.Tracer()
import pidcheck.cli  # noqa: E402

spans.install(tracer)
op = tracer.open("op")
t0 = tracer.enter(op)
try:
    rc = pidcheck.cli.main(sys.argv[2:])
finally:
    tracer.leave(op, t0)
    tracer.write(sys.argv[1])
sys.exit(rc)
