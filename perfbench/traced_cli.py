"""Run the bcsgl command line with a span around each layer's calls.

Usage: python perfbench/traced_cli.py SPANS_FILE [bcsgl arguments ...]

The spans, and the time taken to import ``bcsgl.cli``, are written to
SPANS_FILE when the command ends; the exit code is the command's own.
"""

import sys
import time

import tracer as tr


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import bcsgl.cli
    import_s = time.perf_counter() - start
    tracer = tr.Tracer()
    tr.install(tracer)
    try:
        return bcsgl.cli.main(argv)
    finally:
        tracer.dump(spans_path, {"import_s": import_s})


if __name__ == "__main__":
    sys.exit(main())
