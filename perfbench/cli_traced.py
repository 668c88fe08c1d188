"""Run one ``coss`` command with the benchmark's tracer installed.

    python3 perfbench/cli_traced.py TRACE_JSON <coss arguments...>

Writes the spans and the time spent in ``coss.cli.main`` to TRACE_JSON and
exits with the command's exit code.  Untraced rounds run ``python3 -m
coss.cli`` instead, which loads no wrappers.
"""

import importlib
import json
import sys
import time

import tracing


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    cli = importlib.import_module("coss.cli")
    tracer = tracing.Tracer()
    tracer.install(cli)
    start = time.perf_counter()
    code = cli.main(argv)
    main_s = time.perf_counter() - start
    with open(trace_path, "w") as fh:
        json.dump({"main_s": main_s, "trace": tracer.export()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
