"""One set-up sample in a fresh interpreter.

Usage: ``python3 bench/probe.py WORKLOAD`` with ``src`` on ``PYTHONPATH``.
Times the imports a workload needs plus its warm-up calls, from the first
line of this file, and prints ``{"setup_s": ...}``.
"""
import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.WORKLOADS[sys.argv[1]]().warm_up()
    print(json.dumps({"setup_s": time.perf_counter() - _START}))
