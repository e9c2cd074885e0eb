"""Traced CLI job in a fresh interpreter.

Usage: ``python3 bench/cli_child.py TRACE_FILE CLI_ARGS...`` with ``src`` on
``PYTHONPATH``.  Imports the CLI (timing the import), installs the
benchmark's span wrappers, calls ``cli.main(CLI_ARGS)`` and, at exit, writes
``{"import_s": ..., "spans": [...]}`` to TRACE_FILE.
"""
import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from biased_shuffle import cli  # noqa: E402

IMPORT_S = time.perf_counter() - _START

from spans import Tracer  # noqa: E402


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse exits for --version and usage errors
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    tracer.active = False
    sys.stdout.flush()
    with open(trace_file, "w") as fh:
        json.dump({"import_s": IMPORT_S, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
