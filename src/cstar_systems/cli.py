"""The ``verify`` command: parse a configuration, build its system, run the suites, print.

``SYSTEM_KINDS`` is the one registry of configured system kinds.  Each entry
holds the payload builder, which returns the system, its Hilbert or
multiplicative system if there is one and the class the generator should
produce, together with the unit and the co-unit that ``"standard"`` means for
that kind.  Defaults are keyed on the configured kind, so a ``perturb_delta``
negative control keeps the defaults of the system it perturbs.  The suites
themselves live in ``suites.py``.

Exit codes: 0 all checks pass, 1 some check fails, 2 invalid configuration
(including a dimension-cap violation, which names the offending partition).
Reports are JSON and byte-identical across reruns of the same config: the
wall clock is printed on stdout only, and all randomness is derived from the
configured seed per suite, so any subset of suites reproduces exactly the
records of the full run.
"""
from __future__ import annotations

import argparse
import json
import math
import sys as _sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .algebra import (
    DimensionCapError,
    FiniteCStarAlgebra,
    tensor_algebra,
    trace_functional,
    vector_state,
)
from .commutative import (
    FiniteMultSystem,
    FiniteSpace,
    MultMap,
    as_measure,
    glue_system,
    indicator_unit,
    measure_family_functionals,
    modular_addition_system,
    to_cstar,
)
from .linalg import Superoperator, Tolerance
from .serialize import element_from_json, functional_from_json, parse_time_key, superop_from_json
# Every runner stays bound as cli.run_<suite>: perfbench/tracer.py times the
# suites under these names, and run() dispatches through SUITE_RUNNERS.
from .suites import (  # noqa: F401
    ALL_SUITES,
    SUITE_RUNNERS,
    Setup,
    run_algebra,
    run_axioms,
    run_commutative,
    run_dilation,
    run_gns,
    run_morphism,
    run_partition,
)
from .systems import (
    FunctionalFamily,
    Grid,
    HilbertSystem,
    TensorialSystem,
    UnitFamily,
    constant_functional_family,
    diagonal_system,
    from_one_parameter,
    glue_cell_state,
    glue_hilbert_system,
    group_z2_bialgebra,
    standard_unit,
    trivial_from_bialgebra,
    trivial_unit,
)
from .timegrid import format_timepoint


class ConfigError(ValueError):
    pass


def _as_integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _integer(obj: dict, name: str, default: int) -> int:
    return _as_integer(obj.get(name, default), name)


def _object(obj: dict, name: str) -> Optional[dict]:
    value = obj.get(name)
    if value is not None and not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    return value


def _grid(value, name: str) -> Grid:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a JSON array of time points, got {value!r}")
    try:
        return Grid(value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid {name}: {exc}") from exc


def _tolerance(obj: dict) -> float:
    value = obj.get("tolerance", 1e-9)
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value) or value < 0:
        raise ConfigError(f"tolerance must be a finite number >= 0, got {value!r}")
    return float(value)


def _report_path(obj: dict) -> Optional[str]:
    value = obj.get("report_path")
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"report_path must be a string, got {value!r}")
    return value


CONFIG_KEYS = frozenset({"grid", "system", "suites", "unit", "counit", "measures", "tolerance",
                         "max_interior_points", "dim_cap", "seed", "report_path",
                         "perturb_delta"})


@dataclass
class RunConfig:
    grid: Grid
    system: dict
    suites: tuple[str, ...]
    unit_spec: Optional[dict] = None
    counit_spec: Optional[dict] = None
    measures: Optional[dict] = None
    tolerance: float = 1e-9
    max_interior_points: int = 4
    dim_cap: int = 4096
    seed: int = 42
    report_path: Optional[str] = None
    perturb_delta: Optional[dict] = None

    @staticmethod
    def from_json(obj: dict) -> "RunConfig":
        if not isinstance(obj, dict):
            raise ConfigError(f"a config must be a JSON object, got {obj!r}")
        unknown = sorted(set(obj) - CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}; valid: {sorted(CONFIG_KEYS)}")
        grid = _grid(obj.get("grid"), "grid")
        system = obj.get("system")
        if not isinstance(system, dict) or "kind" not in system:
            raise ConfigError("config needs a system object with a 'kind'")
        if "grid" in system:
            # standalone system objects carry their grid; it must agree
            if _grid(system["grid"], "system grid").points != grid.points:
                raise ConfigError("the system object's grid differs from the config grid")
        suites = obj.get("suites", [])
        if not isinstance(suites, list):
            raise ConfigError(f"suites must be a JSON array, got {suites!r}")
        suites = tuple(suites)
        if not suites:
            raise ConfigError("config needs a nonempty list of suites")
        unknown = [s for s in suites if s not in ALL_SUITES]
        if unknown:
            raise ConfigError(f"unknown suites {unknown}; valid: {list(ALL_SUITES)}")
        config = RunConfig(
            grid=grid,
            system=system,
            suites=suites,
            unit_spec=_object(obj, "unit"),
            counit_spec=_object(obj, "counit"),
            measures=_object(obj, "measures"),
            tolerance=_tolerance(obj),
            max_interior_points=_integer(obj, "max_interior_points", 4),
            dim_cap=_integer(obj, "dim_cap", 4096),
            seed=_integer(obj, "seed", 42),
            report_path=_report_path(obj),
            perturb_delta=_object(obj, "perturb_delta"),
        )
        if config.max_interior_points < 0:
            raise ConfigError("max_interior_points must be >= 0")
        return config

    def normalized(self) -> dict:
        return {
            "grid": [format_timepoint(p) for p in self.grid.points],
            "system": self.system,
            "suites": list(self.suites),
            "unit": self.unit_spec,
            "counit": self.counit_spec,
            "measures": self.measures,
            "tolerance": self.tolerance,
            "max_interior_points": self.max_interior_points,
            "dim_cap": self.dim_cap,
            "seed": self.seed,
            "perturb_delta": self.perturb_delta,
        }


# -- system kinds ------------------------------------------------------------------

class Built(NamedTuple):
    """What a payload builder returns; ``expected`` is the class the generator should produce."""

    system: TensorialSystem
    hilbert: Optional[HilbertSystem] = None
    mult: Optional[FiniteMultSystem] = None
    expected: Optional[str] = None


class SystemKind(NamedTuple):
    """A payload builder ``(payload, grid, dim_cap) -> Built`` and the kind's standard families."""

    build: Callable[[dict, Grid, int], Built]
    unit: Callable[[TensorialSystem], UnitFamily]
    counit: Callable[..., FunctionalFamily]  # (system, mult, measures)


def _keyed(table: dict, arity: int, make: Callable) -> dict:
    """Parse ``{"s,t": spec}`` into ``{(s, t): make(spec, s, t)}``; one-point keys stay points."""
    out = {}
    for key, spec in table.items():
        times = parse_time_key(key)
        if len(times) != arity:
            raise ValueError(f"key {key!r} needs {arity} time points")
        out[times[0] if arity == 1 else times] = make(spec, *times)
    return out


def _algebras(table: dict, arity: int) -> dict:
    return _keyed(table, arity, lambda spec, *_: FiniteCStarAlgebra(spec["blocks"]))


def _build_diagonal(payload: dict, grid: Grid, dim_cap: int) -> Built:
    d = _integer(payload, "d", 2)
    hilbert, system = diagonal_system(grid, d, dim_cap=dim_cap)
    return Built(system, hilbert, expected="product" if d == 1 else "subproduct")


def _build_glue_hilbert(payload: dict, grid: Grid, dim_cap: int) -> Built:
    dims = [_as_integer(x, "cell_dims entry") for x in payload["cell_dims"]]
    hilbert, system = glue_hilbert_system(grid, dims, dim_cap=dim_cap)
    return Built(system, hilbert, expected="product")


def _build_bialgebra(payload: dict, grid: Grid, dim_cap: int) -> Built:
    model = payload.get("model", "z2")
    if model == "z2":
        alg, delta = group_z2_bialgebra()
    elif model == "explicit":
        alg = FiniteCStarAlgebra(payload["blocks"])
        delta = superop_from_json(payload["delta"], alg.blocks, tensor_algebra(alg, alg).blocks)
    else:
        raise ConfigError(f"unknown bialgebra model {model!r}")
    return Built(trivial_from_bialgebra(grid, alg, delta, dim_cap=dim_cap))


def _build_one_parameter(payload: dict, grid: Grid, dim_cap: int) -> Built:
    z = _algebras(payload["durations"], 1)
    xi = _keyed(payload["maps"], 2, lambda spec, d1, d2: superop_from_json(
        spec, z[d1 + d2].blocks, tensor_algebra(z[d1], z[d2]).blocks))
    return Built(from_one_parameter(grid, z, xi, dim_cap=dim_cap))


def _build_custom(payload: dict, grid: Grid, dim_cap: int) -> Built:
    algs = _algebras(payload["algebras"], 2)
    deltas = _keyed(payload["deltas"], 3, lambda spec, r, s, t: superop_from_json(
        spec, algs[(r, t)].blocks, tensor_algebra(algs[(r, s)], algs[(s, t)]).blocks))
    return Built(TensorialSystem(grid, algs, deltas, dim_cap=dim_cap, kind="custom"))


def _build_commutative(payload: dict, grid: Grid, dim_cap: int) -> Built:
    model = payload.get("model", "explicit")
    if model == "glue":
        mult, expected = glue_system(grid, FiniteSpace(_integer(payload, "base", 2))), "product"
    elif model == "z2":
        mult, expected = modular_addition_system(grid, 2), "subproduct"
    elif model == "explicit":
        spaces = _keyed(payload["spaces"], 2,
                        lambda n, s, t: FiniteSpace(_as_integer(n, "space size")))
        chi = _keyed(payload["chi"], 3, lambda table, r, s, t: MultMap(
            np.asarray(table), spaces[(r, t)].size))
        mult, expected = FiniteMultSystem(grid, spaces, chi), None
    else:
        raise ConfigError(f"unknown commutative model {model!r}")
    return Built(to_cstar(mult, dim_cap=dim_cap), mult=mult, expected=expected)


def _vector_states(system, mult, measures) -> FunctionalFamily:
    return constant_functional_family(system, vector_state)


def _faithful_cell_product(system, mult, measures) -> FunctionalFamily:
    if not system.payload.get("cell_dims"):
        raise ConfigError("faithful_cell_product needs a glue_hilbert system")
    return glue_cell_state(system, system.payload["cell_dims"])


def _from_measures(system, mult, measures) -> FunctionalFamily:
    if mult is None or not measures:
        raise ConfigError("from_measures needs a commutative system and measures")
    return measure_family_functionals(system, measures)


def _uniform(system, mult, measures) -> FunctionalFamily:
    if mult is None:
        raise ConfigError("uniform counit needs a commutative system")
    return measure_family_functionals(system, {
        pair: as_measure([Fraction(1, sp.size)] * sp.size) for pair, sp in mult.spaces.items()})


def _measures_or_uniform(system, mult, measures) -> FunctionalFamily:
    return (_from_measures if measures else _uniform)(system, mult, measures)


# "standard" means the first basis projection and the vector state on matrix
# systems; the identity on systems with unital maps (function algebras, group
# coproducts); and on the commutative models their configured measures, or the
# uniform ones when none are configured.
SYSTEM_KINDS = {
    "diagonal": SystemKind(_build_diagonal, standard_unit, _vector_states),
    "glue_hilbert": SystemKind(_build_glue_hilbert, standard_unit, _faithful_cell_product),
    "trivial_bialgebra": SystemKind(_build_bialgebra, trivial_unit, _vector_states),
    "one_parameter": SystemKind(_build_one_parameter, standard_unit, _vector_states),
    "custom": SystemKind(_build_custom, standard_unit, _vector_states),
    "commutative": SystemKind(_build_commutative, trivial_unit, _measures_or_uniform),
}
UNIT_KINDS = {"trivial": trivial_unit, "first_point_indicator": indicator_unit}
COUNIT_KINDS = {
    "vector_state": _vector_states,
    "faithful_cell_product": _faithful_cell_product,
    "from_measures": _from_measures,
    "uniform": _uniform,
    "trace_normalized": lambda system, *_: constant_functional_family(
        system, partial(trace_functional, normalized=True)),
}


def _perturbed(system: TensorialSystem, spec: dict) -> TensorialSystem:
    """The system with one entry of one comultiplication bumped by ``epsilon``."""
    key = parse_time_key(spec["triple"]) if "triple" in spec else system.grid.triples()[0]
    old = system.deltas[key]
    mat = old.matrix.copy()
    mat[0, 0] += float(spec.get("epsilon", 1e-3))
    deltas = {**system.deltas, key: Superoperator(mat, old.dom, old.cod)}
    return TensorialSystem(system.grid, system.algebras, deltas, dim_cap=system.dim_cap,
                           kind=system.kind + "+perturbed", payload=system.payload)


def _resolve_unit(spec: Optional[dict], kind: SystemKind,
                  system: TensorialSystem) -> Optional[UnitFamily]:
    name = (spec or {}).get("kind", "standard")
    if name == "none":
        return None
    if name == "explicit":
        return UnitFamily(_keyed(spec["elements"], 2, lambda obj, s, t: element_from_json(
            system.algebras[(s, t)], obj)))
    make = kind.unit if name == "standard" else UNIT_KINDS.get(name)
    if make is None:
        raise ConfigError(f"unknown unit kind {name!r}")
    return make(system)


def _resolve_counit(spec: Optional[dict], kind: SystemKind, system: TensorialSystem,
                    mult: Optional[FiniteMultSystem],
                    measures: Optional[dict]) -> Optional[FunctionalFamily]:
    name = (spec or {}).get("kind", "standard")
    if name == "none":
        return None
    if name == "explicit":
        return FunctionalFamily(_keyed(spec["functionals"], 2, lambda obj, s, t: (
            functional_from_json(system.algebras[(s, t)], obj))))
    make = kind.counit if name == "standard" else COUNIT_KINDS.get(name)
    if make is None:
        raise ConfigError(f"unknown counit kind {name!r}")
    return make(system, mult, measures)


def build_setup(config: RunConfig) -> Setup:
    kind = SYSTEM_KINDS.get(config.system["kind"])
    if kind is None:
        raise ConfigError(f"unknown system kind {config.system['kind']!r}")
    try:
        built = kind.build(config.system, config.grid, config.dim_cap)
        if config.measures is not None and built.mult is None:
            raise ConfigError(f"measures need a commutative system, not {config.system['kind']!r}")
        system, expected = built.system, built.expected
        if config.perturb_delta:
            system, expected = _perturbed(system, config.perturb_delta), None
        if len(config.grid.points) < 3:
            expected = None  # no triples: the classification is vacuous
        measures = None if config.measures is None else _keyed(
            config.measures, 2, lambda vals, s, t: as_measure(vals))
        unit = _resolve_unit(config.unit_spec, kind, system)
        counit = _resolve_counit(config.counit_spec, kind, system, built.mult, measures)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    return Setup(system=system, max_interior_points=config.max_interior_points,
                 hilbert=built.hilbert, unit=unit, counit=counit, mult_system=built.mult,
                 measures=measures, expected_class=expected, tol=Tolerance(config.tolerance))


def run(config: RunConfig) -> tuple[dict, bool, float]:
    """Execute the selected suites; returns (report json, overall pass, wall seconds)."""
    start = time.perf_counter()
    setup = build_setup(config)
    suites_out = {}
    overall = True
    for suite in ALL_SUITES:
        if suite not in config.suites:
            continue
        rng = np.random.default_rng([config.seed, ALL_SUITES.index(suite)])
        rep = SUITE_RUNNERS[suite](setup, rng)
        suites_out[suite] = rep.to_json()
        overall &= rep.passed
    wall = time.perf_counter() - start
    total = sum(s["summary"]["total"] for s in suites_out.values())
    failed = sum(s["summary"]["failed"] for s in suites_out.values())
    out = {
        "config": config.normalized(),
        "suites": suites_out,
        "summary": {
            "total": total,
            "passed": total - failed,
            "failed": failed,
            "overall_pass": overall,
        },
    }
    return out, overall, wall


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run identity-check suites for two-parameter operator-algebra "
                    "systems over a finite grid.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON run configuration")
    parser.add_argument("--tol", type=float, default=None, help="residual tolerance override")
    parser.add_argument("--max-interior", type=int, default=None,
                        help="max interior points per partition")
    parser.add_argument("--report", default=None, help="path for the JSON report")
    parser.add_argument("--seed", type=int, default=None, help="seed for random elements")
    parser.add_argument("--suites", default=None,
                        help="comma-separated subset of " + ",".join(ALL_SUITES))
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2

    overrides = {
        "tolerance": args.tol,
        "max_interior_points": args.max_interior,
        "seed": args.seed,
        "report_path": args.report,
        "suites": None if args.suites is None
        else [s.strip() for s in args.suites.split(",") if s.strip()],
    }
    for key, value in overrides.items():
        if value is not None:
            raw[key] = value

    try:
        config = RunConfig.from_json(raw)
        out, overall, wall = run(config)
    except (ConfigError, DimensionCapError) as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2

    if config.report_path:
        with open(config.report_path, "w") as fh:
            json.dump(out, fh, indent=2, sort_keys=True)
            fh.write("\n")

    for suite, body in out["suites"].items():
        s = body["summary"]
        residuals = [r.get("residual") for r in body["records"]
                     if "residual" in r and "negative_control" not in r["check"]]
        worst = max(residuals) if residuals else 0.0
        status = "pass" if s["failed"] == 0 else "FAIL"
        print(f"{suite:12s} {status}  checks={s['total']:4d}  max residual={worst:.3e}")
    s = out["summary"]
    print(f"{'overall':12s} {'pass' if overall else 'FAIL'}  "
          f"checks={s['total']}  wall={wall:.2f}s")
    return 0 if overall else 1


if __name__ == "__main__":
    _sys.exit(main())
