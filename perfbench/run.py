"""Benchmark of the checker's ``verify`` path on fixed workloads.

    python3 perfbench/run.py --workload subproduct-grid6 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the checker is imported from its ``src/``.
Every run first executes the perturbed oracle as an untimed negative control,
then one of:

- ``--trace 0``: ``setup_s`` from fresh processes, then cold ``verify`` runs in
  one workload process for ``--seconds``, giving ``verify_s`` (median) and
  ``peak_rss_mb``;
- ``--trace 1``: alternating untraced and traced ``verify`` runs, giving the
  per-layer metrics (medians over traced runs) and the tracing overhead.

Every verify passes through the correctness gate in ``gate.py``.  Metric lines
with units go to stdout, then one JSON object as the last line.  Full results,
the environment and the span sidecar are written to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from gate import check, load_pins
from tracer import PER_LAYER_METRICS
from workloads import NEGATIVE_CONTROL, WORKLOADS, config_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# One BLAS thread: steadier than two on a 2-CPU machine, and identical on both
# sides of any comparison.
BLAS_THREADS = 1
SETUP_PROBES = 9
# A run must end within 180 s at the window the benchmark is run with.  Longer
# windows get three windows plus a margin, since a traced pair can overrun one.
DEADLINE_S = 170


def deadline_s(seconds: float) -> float:
    return max(DEADLINE_S, 30 + 3 * seconds)


END_TO_END = [("verify_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


class BenchError(RuntimeError):
    pass


def bench_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Bytecode is cached as for an installed package, whatever the caller's
    # setting: compiling the sources is not a cost ``verify`` pays per run.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time")
    return left


def run_worker(args: list[str], env: dict, deadline: float) -> dict:
    """Run ``worker.py`` to completion and return the JSON object it prints last."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=_remaining(deadline))
    if proc.returncode != 0:
        raise BenchError(f"worker {args[:2]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe_setup(workload: str, seed: int, env: dict, deadline: float) -> float:
    """Seconds from starting a fresh process to its built ``Setup``, imports included."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), "setup", workload,
                             str(seed)], env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    timer = threading.Timer(_remaining(deadline), proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"setup probe exited {proc.returncode}")
    return elapsed


def control_report(seed: int, env: dict, deadline: float) -> tuple[dict | None, int]:
    """Run the negative control through the ``verify`` command line; (report, exit status)."""
    RESULTS.mkdir(exist_ok=True)
    cfg_path = RESULTS / "control-config.json"
    report_path = RESULTS / "control-report.json"
    cfg_path.write_text(json.dumps(config_for(NEGATIVE_CONTROL, seed)))
    report_path.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, "-m", "cstar_systems.cli", "--config",
                           str(cfg_path), "--report", str(report_path)],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=_remaining(deadline))
    if not report_path.exists():
        return None, proc.returncode
    return json.loads(report_path.read_text()), proc.returncode


def environment(worker_env: dict) -> dict:
    caches = {}
    try:
        conf = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                              timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        conf = ""
    for line in conf.splitlines():
        name, _, value = line.partition(" ")
        if name.endswith("CACHE_SIZE") and value.strip().isdigit() and int(value):
            caches[name] = int(value)
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "cpu_cache_bytes": caches, "python": sys.version.split()[0], **worker_env}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cstar_systems" / "cli.py").is_file():
        print(f"benchmark error: no checker sources at {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + deadline_s(args.seconds)
    env = bench_env()
    pins = load_pins()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        report, status = control_report(args.seed, env, deadline)
        problems = ([f"{NEGATIVE_CONTROL}: exited {status} without a report"]
                    if report is None else check(NEGATIVE_CONTROL, report, status, pins))
        attempted, failed = 1, int(bool(problems))
        if args.trace:
            spans = RESULTS / f"spans-{tag}.json.gz"
            res = run_worker(["trace", args.workload, str(args.seed), str(args.seconds),
                              str(spans)], env, deadline)
            metrics = {name: (res["metrics"][name], unit)
                       for name, unit, _better in PER_LAYER_METRICS}
        else:
            setup = [probe_setup(args.workload, args.seed, env, deadline)
                     for _ in range(SETUP_PROBES)]
            res = run_worker(["measure", args.workload, str(args.seed), str(args.seconds)],
                             env, deadline)
            res["setup_s"] = setup
            values = {"verify_s": statistics.median(res["verify_s"]),
                      "setup_s": statistics.median(setup),
                      "peak_rss_mb": res["peak_rss_mb"]}
            metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    attempted += res["attempted"]
    failed += res["failed"]
    problems += res["problems"]
    env_info = environment(res.pop("environment"))
    metrics_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env_info, "attempted": attempted,
              "failed": failed, "problems": problems,
              "metrics": metrics_json, "raw": res}
    (RESULTS / f"result-{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env_info, sort_keys=True))
    for problem in problems[:10]:
        print(f"gate: {problem}", file=sys.stderr)
    if args.trace:
        shares = "  ".join(f"{s} {v:.0%}" for s, v in res["suite_share"].items() if v)
        print(f"suite share of traced verify_s: {shares}")
        print(f"tracing overhead {metrics['trace.overhead_s'][0]:.3f} s on untraced "
              f"verify_s {statistics.median(res['untraced_verify_s']):.3f} s; "
              f"{res['span_count']} spans")
    else:
        print(f"verify_s is the median of {len(res['verify_s'])} cold runs: "
              f"min {min(res['verify_s']):.4f} s, max {max(res['verify_s']):.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    print(f"{'failed_frac':48s} {failed / attempted:.6g} ({failed}/{attempted} runs "
          f"failed the correctness gate)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics_json}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
