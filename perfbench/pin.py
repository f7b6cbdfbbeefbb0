"""Record the gate's pins from the current checker.

    python3 perfbench/pin.py

Runs every workload once (and the negative control through the ``verify``
command line) and rewrites ``pins.json``.  The pins do not depend on the
seed, so a fixed one is used.  Re-pin only when the checked
records are meant to change; the diff of ``pins.json`` then shows which
suites changed.
"""
from __future__ import annotations

import json
import time

from gate import PINS_PATH, summarize
from run import DEADLINE_S, bench_env, control_report, run_worker
from workloads import NEGATIVE_CONTROL, WORKLOADS


SEED = 42


def main():
    env = bench_env()
    pins = {}
    for name in WORKLOADS:
        pins[name] = run_worker(["summary", name, str(SEED)], env,
                                time.monotonic() + DEADLINE_S)
    report, status = control_report(SEED, env, time.monotonic() + DEADLINE_S)
    if report is None:
        raise SystemExit(f"{NEGATIVE_CONTROL}: exited {status} without a report")
    pins[NEGATIVE_CONTROL] = summarize(report, status)
    PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n")
    for name, pin in pins.items():
        total = sum(s["records"] for s in pin["suites"].values())
        print(f"{name}: exit {pin['exit_status']}, {total} records, "
              f"{len(pin['failing'])} failing")


if __name__ == "__main__":
    main()
