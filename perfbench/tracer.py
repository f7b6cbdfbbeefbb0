"""Per-layer spans measured from outside the checker.

``Tracer.install`` replaces each public function named in ``TARGETS`` by a
timing wrapper in every ``cstar_systems`` module namespace that binds it,
including module-level dicts such as ``cli.SUITE_RUNNERS``: ``cli`` imports
by name and ``partition_calculus`` recurses through its own globals, so
patching only the defining module would miss most calls.  No file of the
package changes; ``uninstall`` puts every original back.

Spans ``(run, id, parent, name, start, end)`` are kept in memory and written
out by the caller at the end.  A layer's self time is its duration minus the
time covered by its child spans; its inclusive time counts only the outermost
call of a recursive function.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict

from workloads import ALL_SUITES

PACKAGE = "cstar_systems"

TARGETS = {
    "cli": ("build_setup",) + tuple(f"run_{s}" for s in ALL_SUITES),
    "partition_calculus": (
        "delta_interval_to_partition", "delta_refinement", "delta_cross",
        "interval_map_left_nested", "interval_map_right_nested",
        "lifted_morphism_residual", "one_param_coassociativity_residual",
    ),
    "linalg": ("superop_tensor", "compose", "superop_tensor_const", "max_abs",
               "check_star_homomorphism", "numerical_rank"),
    "algebra": ("gns", "functional_tensor", "gram_matrix"),
    "states_gns": ("gns_system", "dilation_isomorphism_check", "gram_preservation_residual",
                   "build_idempotent_state", "counit_dilation_eval"),
    "systems": ("check_system_axioms", "check_hilbert_axioms", "enumerate_partitions",
                "enumerate_all_partitions", "check_comultiplicative"),
    "timegrid": ("common_refinement", "inner_decompose", "outer_decompose"),
    "commutative": ("chi_cross", "check_mult_system", "measure_projectivity_discrepancy"),
}
METHODS = {"report": (("Report", "to_json"),)}

# Functions returning a dense superoperator; their largest result is recorded.
SUPEROP_BUILDERS = ("linalg.superop_tensor", "linalg.compose", "linalg.superop_tensor_const")

_CALLS_S_SELF = ("calls", "s", "self_s")


def _metric_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(f"cli.run_{s}.s", "s", "lower") for s in ALL_SUITES]
    out += [(f"cli.run_{s}.self_s", "s", "lower") for s in ("partition", "algebra", "gns")]
    out.append(("cli.build_setup.s", "s", "lower"))

    def full(module, names):
        for fn in names:
            for field in _CALLS_S_SELF:
                out.append((f"{module}.{fn}.{field}", "count" if field == "calls" else "s",
                            "lower"))

    full("partition_calculus", TARGETS["partition_calculus"])
    out += [("partition_calculus.cache.entries", "count", "lower"),
            ("partition_calculus.cache.hit_ratio", "ratio", "higher"),
            ("partition_calculus.cache.bytes", "bytes", "lower")]
    full("linalg", TARGETS["linalg"])
    out.append(("linalg.superop.max_bytes", "bytes_computed", "lower"))
    full("algebra", TARGETS["algebra"])
    full("states_gns", TARGETS["states_gns"])
    out.append(("systems.check_comultiplicative.calls", "count", "lower"))
    full("systems", TARGETS["systems"][:4])
    out += [(f"timegrid.{fn}.calls", "count", "lower") for fn in TARGETS["timegrid"]]
    full("commutative", TARGETS["commutative"])
    out += [("report.Report.to_json.s", "s", "lower"),
            ("report.json_bytes", "bytes", "lower"),
            ("trace.verify_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower")]
    return out


PER_LAYER_METRICS = _metric_spec()


class CountingCache(dict):
    """The partition-map cache with hit and miss counts.

    The calculus probes its cache with ``key in cache`` (or ``not in``)
    before every lookup, so membership tests count every access.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.hits = 0
        self.misses = 0

    def __contains__(self, key):
        found = dict.__contains__(self, key)
        if found:
            self.hits += 1
        else:
            self.misses += 1
        return found

    def nbytes(self) -> int:
        return sum(v.matrix.nbytes for v in self.values() if hasattr(v, "matrix"))


class Tracer:
    """Wraps the checker's layers and aggregates their spans per traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.cache_snapshots: list[tuple] = []
        self.runs: list[dict] = []
        self._patches: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._run = 0
        self._reset()

    def _reset(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self._depth = Counter()
        self.max_superop_bytes = 0
        self.cache = None

    # -- spans -------------------------------------------------------------------

    def _open(self, name):
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [self._next_id, 0.0, parent]
        self._stack.append(frame)
        self._depth[name] += 1
        return frame

    def _close(self, name, frame, start, end):
        self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        self.calls[name] += 1
        self.self_s[name] += dur - frame[1]
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.total_s[name] += dur
        self.spans.append((self._run, frame[0], frame[2], name, start, end))

    def _wrap(self, name, fn, on_return):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, start, clock())
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def span(self, name, fn, *args):
        """Call ``fn(*args)`` inside a span of the benchmark's own."""
        return self._wrap(name, fn, None)(*args)

    # -- hooks ---------------------------------------------------------------------

    def _on_setup(self, setup):
        self.cache = CountingCache(setup.system._cache)
        setup.system._cache = self.cache
        self._snapshot("build_setup")

    def _on_superop(self, op):
        self.max_superop_bytes = max(self.max_superop_bytes, op.matrix.nbytes)

    def _snapshot(self, boundary):
        c = self.cache
        self.cache_snapshots.append((self._run, boundary, len(c), c.nbytes(), c.hits, c.misses))

    def _hook(self, name):
        if name == "cli.build_setup":
            return self._on_setup
        if name in SUPEROP_BUILDERS:
            return self._on_superop
        if name.startswith("cli.run_"):
            suite = name[len("cli.run_"):]
            return lambda _report: self._snapshot(suite)
        return None

    # -- installation --------------------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for modname, names in TARGETS.items():
            mod = importlib.import_module(f"{PACKAGE}.{modname}")
            for fn_name in names:
                orig = getattr(mod, fn_name)
                name = f"{modname}.{fn_name}"
                wrapper = self._wrap(name, orig, self._hook(name))
                for m in modules:
                    self._rebind(vars(m), orig, wrapper)
        for modname, methods in METHODS.items():
            mod = importlib.import_module(f"{PACKAGE}.{modname}")
            for cls_name, meth in methods:
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(f"{modname}.{cls_name}.{meth}", orig, None))
                self._patches.append((cls, meth, orig, True))

    def _rebind(self, namespace, orig, wrapper):
        for key, val in list(namespace.items()):
            if val is orig:
                namespace[key] = wrapper
                self._patches.append((namespace, key, orig, False))
            elif isinstance(val, dict) and not key.startswith("__"):
                for k, v in list(val.items()):
                    if v is orig:
                        val[k] = wrapper
                        self._patches.append((val, k, orig, False))

    def uninstall(self):
        for target, key, orig, is_attr in reversed(self._patches):
            if is_attr:
                setattr(target, key, orig)
            else:
                target[key] = orig
        self._patches.clear()

    # -- runs ----------------------------------------------------------------------

    def begin_run(self):
        self._run += 1
        self._reset()

    def end_run(self, json_bytes: int):
        """Freeze the per-layer figures of the traced run that just finished."""
        c = self.cache if self.cache is not None else CountingCache()  # setup failed
        lookups = c.hits + c.misses
        out = {}
        for name, _unit, _better in PER_LAYER_METRICS:
            layer, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = self.calls[layer]
            elif field == "s":
                out[name] = self.total_s[layer]
            elif field == "self_s":
                out[name] = self.self_s[layer]
        out["partition_calculus.cache.entries"] = len(c)
        out["partition_calculus.cache.hit_ratio"] = c.hits / lookups if lookups else 0.0
        out["partition_calculus.cache.bytes"] = c.nbytes()
        out["linalg.superop.max_bytes"] = self.max_superop_bytes
        out["report.json_bytes"] = json_bytes
        self.runs.append(out)
        self.cache = None

    def layer_metrics(self) -> dict:
        """The median over traced runs of every per-layer metric except the trace.* ones.

        Counts and sizes take the lower median, so they stay observed integers.
        """
        out = {}
        for name, unit, _better in PER_LAYER_METRICS:
            if not name.startswith("trace."):
                median = statistics.median if unit in ("s", "ratio") else statistics.median_low
                out[name] = median(run[name] for run in self.runs)
        return out
