"""One benchmark process: imports the checker from ``src/`` and runs one mode.

    python3 perfbench/worker.py setup    <workload> <seed>
    python3 perfbench/worker.py measure  <workload> <seed> <seconds>
    python3 perfbench/worker.py trace    <workload> <seed> <seconds> <spans.json.gz>
    python3 perfbench/worker.py summary  <workload> <seed>

``run.py`` starts these with the thread settings and ``PYTHONPATH`` pinned;
every mode but ``setup`` prints one JSON object as its last line.
"""
from __future__ import annotations

import gc
import gzip
import itertools
import json
import resource
import statistics
import sys
import time

import gate
from tracer import PACKAGE, Tracer
from workloads import ALL_SUITES, config_for


def _verify(cli, config):
    """One cold ``verify``: build the setup, run the suites, serialise the report.

    Returns (report text or None, exit status as ``verify`` would give it).
    """
    from cstar_systems.algebra import DimensionCapError

    try:
        out, overall, _wall = cli.run(config)
    except (cli.ConfigError, DimensionCapError):
        return None, 2
    return json.dumps(out, indent=2, sort_keys=True) + "\n", 0 if overall else 1


def _check(name, text, status, pins) -> list[str]:
    if text is None:
        return [f"{name}: verify exited {status} without a report"]
    return gate.check(name, json.loads(text), status, pins)


def _clear_process_caches():
    """Empty the package's process-wide memo tables so every verify starts cold."""
    for modname, mod in list(sys.modules.items()):
        if modname.startswith(PACKAGE + ".") and mod is not None:
            for val in vars(mod).values():
                if callable(getattr(val, "cache_clear", None)):
                    val.cache_clear()
    gc.collect()


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version")}


def _timed(verify, *args):
    """Wall time of one cold ``verify(*args)``, with its report text and exit status."""
    _clear_process_caches()
    t0 = time.perf_counter()
    text, status = verify(*args)
    return time.perf_counter() - t0, text, status


def mode_setup(workload, seed):
    from cstar_systems import cli

    cli.build_setup(cli.RunConfig.from_json(config_for(workload, seed)))
    print("ready", flush=True)


def mode_measure(workload, seed, seconds):
    from cstar_systems import cli

    pins = gate.load_pins()
    config = cli.RunConfig.from_json(config_for(workload, seed))
    samples, problems, failed = [], [], 0
    start = time.perf_counter()
    while True:
        dt, text, status = _timed(_verify, cli, config)
        samples.append(dt)
        found = _check(workload, text, status, pins)
        problems += found
        failed += bool(found)
        # stop before a further verify would overrun the measuring window
        if time.perf_counter() - start + dt > seconds:
            break
    print(json.dumps({
        "verify_s": samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(samples),
        "failed": failed,
        "problems": problems[:20],
        "environment": _environment(),
    }))


def mode_trace(workload, seed, seconds, spans_path):
    from cstar_systems import cli

    pins = gate.load_pins()
    config = cli.RunConfig.from_json(config_for(workload, seed))
    tracer = Tracer()
    untraced, traced, problems, failed = [], [], [], 0

    def run_untraced():
        dt, text, status = _timed(_verify, cli, config)
        untraced.append(dt)
        return dt, _check(workload, text, status, pins)

    def run_traced():
        tracer.install()
        tracer.begin_run()
        try:
            dt, text, status = _timed(tracer.span, "bench.verify", _verify, cli, config)
        finally:
            tracer.uninstall()
        traced.append(dt)
        tracer.end_run(len(text.encode()) if text is not None else 0)
        return dt, _check(workload, text, status, pins)

    start = time.perf_counter()
    for pair in itertools.count():
        # alternate which side runs first, so that neither always runs first in the process
        order = (run_untraced, run_traced) if (seed + pair) % 2 == 0 else \
            (run_traced, run_untraced)
        pair_s = 0.0
        for side in order:
            dt, found = side()
            pair_s += dt
            problems += found
            failed += bool(found)
        if time.perf_counter() - start + pair_s > seconds:
            break

    metrics = tracer.layer_metrics()
    metrics["trace.verify_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    _write_spans(spans_path, workload, seed, tracer)
    print(json.dumps({
        "metrics": metrics,
        "untraced_verify_s": untraced,
        "traced_verify_s": traced,
        "suite_share": {s: metrics[f"cli.run_{s}.s"] / metrics["trace.verify_s"]
                        for s in ALL_SUITES},
        "span_count": len(tracer.spans),
        "attempted": len(untraced) + len(traced),
        "failed": failed,
        "problems": problems[:20],
        "environment": _environment(),
    }))


def _write_spans(path, workload, seed, tracer):
    names = sorted({s[3] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    t_base = min((s[4] for s in tracer.spans), default=0.0)
    doc = {
        "workload": workload,
        "seed": seed,
        "fields": ["run", "id", "parent", "name", "start_s", "end_s"],
        "names": names,
        "spans": [[r, i, p, index[n], s - t_base, e - t_base]
                  for r, i, p, n, s, e in tracer.spans],
        "cache_snapshot_fields": ["run", "after", "entries", "bytes", "hits", "misses"],
        "cache_snapshots": tracer.cache_snapshots,
    }
    with gzip.open(path, "wt", compresslevel=1) as fh:
        json.dump(doc, fh)


def mode_summary(workload, seed):
    from cstar_systems import cli

    text, status = _verify(cli, cli.RunConfig.from_json(config_for(workload, seed)))
    if text is None:
        sys.exit(f"{workload}: verify exited {status} without a report")
    print(json.dumps(gate.summarize(json.loads(text), status)))


def main(argv):
    mode, workload, seed, *rest = argv
    seed = int(seed)
    if mode == "setup":
        mode_setup(workload, seed)
    elif mode == "measure":
        mode_measure(workload, seed, float(rest[0]))
    elif mode == "trace":
        mode_trace(workload, seed, float(rest[0]), rest[1])
    elif mode == "summary":
        mode_summary(workload, seed)
    else:
        sys.exit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
