"""Correctness gate applied to every benchmark run, timed, traced or control.

A run passes when, against the pins in ``pins.json``:

- its exit status is the pinned one;
- every suite yields the pinned ordered records, compared on
  ``(check, params, pass, exact_discrepancy)`` through a per-suite digest;
- the failing records are exactly the pinned ones;
- every residual of a passing record is within its tolerance (negative
  controls: at least their detection floor).

Residual floats are deliberately not pinned: a reordered BLAS sum may move
them by 1e-16 without changing any verdict.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import ALL_SUITES

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

# The suites record a negative control as passing when its residual reaches
# this floor (``fail_floor`` in the suites).
NEGATIVE_CONTROL_FLOOR = 1e-4
# Checks whose tolerance is fixed in the suites rather than taken from the config.
FIXED_TOLERANCES = {"idempotent_state_marginal_round_trip": 1e-12}


def _suite_records(report: dict):
    for suite in ALL_SUITES:
        if suite in report["suites"]:
            yield suite, report["suites"][suite]["records"]


def _pattern(rec: dict) -> list:
    return [rec["check"], rec["params"], rec["pass"], rec.get("exact_discrepancy")]


def summarize(report: dict, exit_status: int) -> dict:
    """The pinned view of a report: exit status, per-suite digests, failing records."""
    suites = {}
    failing = []
    for suite, records in _suite_records(report):
        blob = json.dumps([_pattern(r) for r in records], sort_keys=True,
                          separators=(",", ":"))
        suites[suite] = {"records": len(records),
                         "digest": hashlib.sha256(blob.encode()).hexdigest()}
        failing += [[suite, r["check"], r["params"]] for r in records if not r["pass"]]
    return {"exit_status": exit_status, "suites": suites, "failing": failing}


def residual_problems(report: dict) -> list[str]:
    """Passing records whose residual is outside the tolerance they were checked against."""
    tol = report["config"]["tolerance"]
    problems = []
    for suite, records in _suite_records(report):
        for rec in records:
            if not rec["pass"] or "residual" not in rec:
                continue
            res = rec["residual"]
            if "negative_control" in rec["check"]:
                ok = res >= NEGATIVE_CONTROL_FLOOR
            else:
                ok = res <= FIXED_TOLERANCES.get(rec["check"], tol)
            if not ok:
                problems.append(f"{suite}/{rec['check']} {rec['params']}: "
                                f"passing record has residual {res!r}")
    return problems


def check(name: str, report: dict, exit_status: int, pins: dict) -> list[str]:
    """Every way the run deviates from its pins; an empty list means it passes the gate."""
    if name not in pins:
        return [f"{name}: no pins recorded"]
    want = pins[name]
    got = summarize(report, exit_status)
    problems = []
    if got["exit_status"] != want["exit_status"]:
        problems.append(f"{name}: exit status {got['exit_status']}, "
                        f"pinned {want['exit_status']}")
    if list(got["suites"]) != list(want["suites"]):
        problems.append(f"{name}: suites {list(got['suites'])}, pinned {list(want['suites'])}")
    for suite, pin in want["suites"].items():
        have = got["suites"].get(suite)
        if have is not None and have != pin:
            problems.append(f"{name}/{suite}: {have['records']} records, digest "
                            f"{have['digest'][:12]}; pinned {pin['records']}, "
                            f"{pin['digest'][:12]}")
    if got["failing"] != want["failing"]:
        problems.append(f"{name}: failing records {got['failing']}, pinned {want['failing']}")
    return problems + residual_problems(report)


def load_pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)
