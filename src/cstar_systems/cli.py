"""The ``verify`` command: parse a configuration, build its system, run the suites, print.

Each config key is a ``RunConfig`` field with its default and its check.  Each
system kind declares its payload fields, with theirs, in its ``SYSTEM_KINDS``
entry, beside its builder and the unit and co-unit that ``"standard"`` means for
it.  So ``RunConfig.from_json`` checks the whole document before anything is
built.  Defaults are keyed on the configured kind, so a ``perturb_delta`` negative
control keeps the defaults of the system it perturbs; it declares none of the kind's
morphism families, which need not be morphisms of the perturbed maps.  The suites live
in ``suites.py``.

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
import os
import sys as _sys
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .algebra import (
    DEFAULT_DIM_CAP,
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
from .linalg import DEFAULT_TOL, Superoperator, superop_from_conjugation
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
    MorphismFamily,
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
from .timegrid import Partition, format_timepoint


class ConfigError(ValueError):
    pass


def _check(ok: Callable, what: str) -> Callable:
    """The check that passes a value on which ``ok`` holds; ``what`` describes such a value."""
    def check(value, name: str):
        if not ok(value):
            raise ConfigError(f"{name} must be {what}, got {value!r}")
        return value
    return check


_table = _check(lambda value: isinstance(value, dict), "a JSON object")
_object = _check(lambda value: value is None or isinstance(value, dict), "a JSON object")
_text = _check(lambda value: value is None or isinstance(value, str), "a string")
_array = _check(lambda value: isinstance(value, (list, tuple)), "a JSON array")


def _one_of(*options: str) -> Callable:
    return _check(lambda value: value in options, f"one of {list(options)}")


def _integer(value, name: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}")
    return value


def _integers(value, name: str) -> list[int]:
    return [_integer(x, f"{name} entry") for x in _array(value, name)]


def _grid(value, name: str) -> Grid:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a JSON array of time points, got {value!r}")
    try:
        return Grid(value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid {name}: {exc}") from exc


def _system(value, name: str) -> dict:
    if not isinstance(value, dict) or not isinstance(value.get("kind"), str):
        raise ConfigError("config needs a system object with a string 'kind'")
    if value["kind"] not in SYSTEM_KINDS:
        raise ConfigError(f"unknown system kind {value['kind']!r}")
    return value


def _suites(value, name: str) -> tuple[str, ...]:
    if not _array(value, name):
        raise ConfigError("config needs a nonempty list of suites")
    unknown = [s for s in value if s not in ALL_SUITES]
    if unknown:
        raise ConfigError(f"unknown suites {unknown}; valid: {list(ALL_SUITES)}")
    return tuple(value)


def _finite(value, name: str, minimum: float = -_sys.float_info.max) -> float:
    """A finite JSON number of at least ``minimum``; a boolean is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not minimum <= value <= _sys.float_info.max:
        bound = f" >= {minimum:g}" if minimum > -_sys.float_info.max else ""
        raise ConfigError(f"{name} must be a finite number{bound}, got {value!r}")
    return float(value)


def _epsilon(value, name: str) -> float:
    epsilon = _finite(value, "perturb_delta epsilon")
    if abs(epsilon) > 1:
        # no larger than the 0/1 entries it bumps; far larger ones overflow the residuals
        raise ConfigError(f"perturb_delta epsilon must lie in [-1, 1], got {epsilon!r}")
    return epsilon


def _report_path(value, name: str) -> Optional[str]:
    if _text(value, name) and not os.path.isdir(os.path.dirname(value) or "."):
        raise ConfigError(f"report_path {value!r} is in a directory that does not exist")
    return value


def _fields(declared: dict, obj: dict, owner: str, allowed: tuple = ()) -> dict:
    """The fields of ``obj`` declared as ``{name: (check, default)}``, checked, with the
    defaults filled in; keys besides those and the ``allowed`` ones are an error."""
    valid = sorted({*declared, *allowed})
    unknown = sorted(set(obj).difference(valid))
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {owner}; valid: {valid}")
    return {name: check(obj.get(name, default), name)
            for name, (check, default) in declared.items()}


def _key(check: Callable, default=None):
    """A config key: a ``RunConfig`` field with its check ``(value, name) -> value`` and its
    default.  As for payload fields, the default goes through the check too, so a key whose
    default fails its check must be given."""
    return field(default=default, metadata={"check": check})


PERTURBATION = {"triple": (_text, None), "epsilon": (_epsilon, 1e-3)}


@dataclass
class RunConfig:
    """A checked configuration: one field per config key, then the checked fields of
    ``system`` and ``perturb_delta``, which the report shows as written."""

    grid: Grid = _key(_grid)
    system: dict = _key(_system)
    suites: tuple[str, ...] = _key(_suites, ())
    unit: Optional[dict] = _key(_object)
    counit: Optional[dict] = _key(_object)
    measures: Optional[dict] = _key(_object)
    tolerance: float = _key(partial(_finite, minimum=0), DEFAULT_TOL)
    max_interior_points: int = _key(partial(_integer, minimum=0), 4)
    dim_cap: int = _key(_integer, DEFAULT_DIM_CAP)
    seed: int = _key(partial(_integer, minimum=0), 42)
    report_path: Optional[str] = _key(_report_path)
    perturb_delta: Optional[dict] = _key(_object)
    payload: dict = field(default=None, init=False, repr=False)
    perturbation: Optional[dict] = field(default=None, init=False, repr=False)

    @staticmethod
    def from_json(obj: dict) -> "RunConfig":
        if not isinstance(obj, dict):
            raise ConfigError(f"a config must be a JSON object, got {obj!r}")
        keys = {f.name: f for f in fields(RunConfig) if f.init}
        unknown = sorted(set(obj).difference(keys))
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}; valid: {sorted(keys)}")
        config = RunConfig(**{name: f.metadata["check"](obj.get(name, f.default), name)
                              for name, f in keys.items()})
        system, kind = config.system, config.system["kind"]
        # standalone system objects carry their grid; it must agree
        if "grid" in system and _grid(system["grid"], "system grid").points != config.grid.points:
            raise ConfigError("the system object's grid differs from the config grid")
        config.payload = _fields(SYSTEM_KINDS[kind].fields, system, f"a {kind!r} system",
                                 ("kind", "grid"))
        if config.perturb_delta:
            config.perturbation = _fields(PERTURBATION, config.perturb_delta, "perturb_delta")
        return config

    def normalized(self) -> dict:
        """The report's config block: every key but ``report_path``."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.init and f.name != "report_path"}
        return dict(out, grid=[format_timepoint(p) for p in self.grid.points],
                    suites=list(self.suites))


# -- system kinds ------------------------------------------------------------------

class Built(NamedTuple):
    """What a payload builder returns; ``expected`` is the class the generator should produce,
    and ``morphisms`` are the kind's automorphism families besides the identity."""

    system: TensorialSystem
    hilbert: Optional[HilbertSystem] = None
    mult: Optional[FiniteMultSystem] = None
    expected: Optional[str] = None
    morphisms: tuple[tuple[str, MorphismFamily], ...] = ()


class SystemKind(NamedTuple):
    """A payload builder ``(payload, grid, dim_cap) -> Built``, the kind's standard families
    and its payload fields ``{name: (check, default)}``, besides ``kind`` and ``grid``."""

    build: Callable[[dict, Grid, int], Built]
    unit: Callable[[TensorialSystem], UnitFamily]
    counit: Callable[..., FunctionalFamily]  # (system, payload, mult, measures)
    fields: dict


def _entry(name: str, make: Callable, *args):
    """``make(*args)``; what it rejects is a config error that names the entry ``name``."""
    try:
        return make(*args)
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"{name}: {detail}") from exc


def _keyed(name: str, table: dict, arity: int, make: Callable, cover=()) -> dict:
    """Parse the table ``name``, ``{"s,t": spec}``, into ``{(s, t): make(spec, s, t)}``;
    one-point keys stay points.  Each pair in ``cover`` needs an entry, and an entry that
    ``make`` rejects is a config error naming the table and the key."""
    out = {}
    for key, spec in _table(table, name).items():
        times = parse_time_key(key)
        if len(times) != arity:
            raise ValueError(f"key {key!r} needs {arity} time points")
        out[times[0] if arity == 1 else times] = _entry(f"{name} entry {key!r}", make, spec,
                                                        *times)
    for pair in cover:
        if pair not in out:
            raise ConfigError(f"{name} has no entry for the pair {Partition(pair)}")
    return out


def _algebras(name: str, table: dict, arity: int) -> dict:
    return _keyed(name, table, arity, lambda spec, *_: FiniteCStarAlgebra(spec["blocks"]))


def _basis_permutation(system: TensorialSystem, d: int, head: list[int]) -> MorphismFamily:
    """Conjugation of every pair algebra M_d by the basis permutation starting with ``head``."""
    perm = np.eye(d, dtype=complex)[head + list(range(len(head), d))]
    return MorphismFamily(dict.fromkeys(system.algebras, superop_from_conjugation(perm)))


def _build_diagonal(payload: dict, grid: Grid, dim_cap: int) -> Built:
    d = payload["d"]
    hilbert, system = diagonal_system(grid, d, dim_cap=dim_cap)
    heads = {"permutation_fixing_the_unit": [0, 2, 1], "swap_first_two": [1, 0]}
    return Built(system, hilbert, expected="product" if d == 1 else "subproduct",
                 morphisms=tuple((name, _basis_permutation(system, d, head))
                                 for name, head in heads.items() if len(head) <= d))


def _build_glue_hilbert(payload: dict, grid: Grid, dim_cap: int) -> Built:
    hilbert, system = glue_hilbert_system(grid, payload["cell_dims"], dim_cap=dim_cap)
    return Built(system, hilbert, expected="product")


def _build_bialgebra(payload: dict, grid: Grid, dim_cap: int) -> Built:
    if payload["model"] == "z2":
        alg, delta = group_z2_bialgebra()
    else:
        alg = FiniteCStarAlgebra(payload["blocks"])
        delta = _entry("delta", superop_from_json, payload["delta"], alg.blocks,
                       tensor_algebra(alg, alg).blocks)
    return Built(trivial_from_bialgebra(grid, alg, delta, dim_cap=dim_cap))


def _build_one_parameter(payload: dict, grid: Grid, dim_cap: int) -> Built:
    z = _algebras("durations", payload["durations"], 1)
    xi = _keyed("maps", payload["maps"], 2, lambda spec, d1, d2: superop_from_json(
        spec, z[d1 + d2].blocks, tensor_algebra(z[d1], z[d2]).blocks))
    return Built(from_one_parameter(grid, z, xi, dim_cap=dim_cap))


def _build_custom(payload: dict, grid: Grid, dim_cap: int) -> Built:
    algs = _algebras("algebras", payload["algebras"], 2)
    deltas = _keyed("deltas", payload["deltas"], 3, lambda spec, r, s, t: superop_from_json(
        spec, algs[(r, t)].blocks, tensor_algebra(algs[(r, s)], algs[(s, t)]).blocks))
    return Built(TensorialSystem(grid, algs, deltas, dim_cap=dim_cap))


def _build_commutative(payload: dict, grid: Grid, dim_cap: int) -> Built:
    if payload["model"] == "glue":
        mult, expected = glue_system(grid, FiniteSpace(payload["base"]), dim_cap=dim_cap), "product"
    elif payload["model"] == "z2":
        mult, expected = modular_addition_system(grid, 2), "subproduct"
    else:
        spaces = _keyed("spaces", payload["spaces"], 2, lambda n, s, t: FiniteSpace(n),
                        cover=grid.pairs())
        chi = _keyed("chi", payload["chi"], 3, lambda table, r, s, t: MultMap(
            np.asarray(table), spaces[(r, t)].size))
        mult, expected = FiniteMultSystem(grid, spaces, chi), None
    return Built(to_cstar(mult, dim_cap=dim_cap), mult=mult, expected=expected)


def _measure(weights, space: Optional[FiniteSpace]) -> tuple[Fraction, ...]:
    """``weights`` as an exact measure on ``space``, the space of its pair."""
    if space is None:
        raise ValueError("not a pair of the grid")
    measure = as_measure(weights)
    if len(measure) != space.size:
        raise ValueError(f"{len(measure)} weights for a space of {space.size} points")
    return measure


def _vector_states(system, payload, mult, measures) -> FunctionalFamily:
    return constant_functional_family(system, vector_state)


def _faithful_cell_product(system, payload, mult, measures) -> FunctionalFamily:
    if not payload.get("cell_dims"):
        raise ConfigError("faithful_cell_product needs a glue_hilbert system")
    return glue_cell_state(system, payload["cell_dims"])


def _from_measures(system, payload, mult, measures) -> FunctionalFamily:
    if mult is None or not measures:
        raise ConfigError("from_measures needs a commutative system and measures")
    return measure_family_functionals(system, measures)


def _uniform(system, payload, mult, measures) -> FunctionalFamily:
    if mult is None:
        raise ConfigError("uniform counit needs a commutative system")
    return measure_family_functionals(system, {
        pair: as_measure([Fraction(1, sp.size)] * sp.size) for pair, sp in mult.spaces.items()})


def _measures_or_uniform(system, payload, mult, measures) -> FunctionalFamily:
    return (_from_measures if measures else _uniform)(system, payload, mult, measures)


_positive = partial(_integer, minimum=1)

# "standard" means the first basis projection and the vector state on matrix
# systems; the identity on systems with unital maps (function algebras, group
# coproducts); and on the commutative models their configured measures, or the
# uniform ones when none are configured.
SYSTEM_KINDS = {
    "diagonal": SystemKind(_build_diagonal, standard_unit, _vector_states, {"d": (_positive, 2)}),
    "glue_hilbert": SystemKind(_build_glue_hilbert, standard_unit, _faithful_cell_product,
                               {"cell_dims": (_integers, None)}),
    "trivial_bialgebra": SystemKind(_build_bialgebra, trivial_unit, _vector_states, {
        "model": (_one_of("z2", "explicit"), "z2"), "blocks": (_integers, []),
        "delta": (_table, {})}),
    "one_parameter": SystemKind(_build_one_parameter, standard_unit, _vector_states,
                                {"durations": (_table, None), "maps": (_table, None)}),
    "custom": SystemKind(_build_custom, standard_unit, _vector_states,
                         {"algebras": (_table, None), "deltas": (_table, None)}),
    "commutative": SystemKind(_build_commutative, trivial_unit, _measures_or_uniform, {
        "model": (_one_of("glue", "z2", "explicit"), "explicit"), "base": (_positive, 2),
        "spaces": (_table, {}), "chi": (_table, {})}),
}
# per role: the family, the table an explicit spec gives, its entry parser and the named kinds
FAMILIES = {
    "unit": (UnitFamily, "elements", element_from_json,
             {"trivial": trivial_unit, "first_point_indicator": indicator_unit}),
    "counit": (FunctionalFamily, "functionals", functional_from_json, {
        "vector_state": _vector_states,
        "faithful_cell_product": _faithful_cell_product,
        "from_measures": _from_measures,
        "uniform": _uniform,
        "trace_normalized": lambda system, *_: constant_functional_family(
            system, partial(trace_functional, normalized=True)),
    }),
}


def _perturbed(system: TensorialSystem, triple: Optional[str], epsilon: float) -> TensorialSystem:
    """The system with one entry of one comultiplication bumped by ``epsilon``."""
    key = min(system.deltas, default=None) if triple is None else parse_time_key(triple)
    if key not in system.deltas:
        raise ConfigError(f"perturb_delta needs a triple of the grid, got {triple!r}")
    old = system.deltas[key]
    mat = old.matrix.copy()
    mat[0, 0] += epsilon
    deltas = {**system.deltas, key: Superoperator(mat, old.dom, old.cod)}
    return TensorialSystem(system.grid, system.algebras, deltas, dim_cap=system.dim_cap)


def _family(role: str, config: RunConfig, system: TensorialSystem, *args):
    """The unit or co-unit family that ``config`` names; ``args`` go to a co-unit's maker."""
    family, table, parse, kinds = FAMILIES[role]
    spec = getattr(config, role)
    name = (spec or {}).get("kind", "standard")
    if name == "none":
        return None
    if name == "explicit":
        return family(_keyed(f"{role} {table}", spec.get(table), 2, lambda obj, s, t: parse(
            system.algebras[(s, t)], obj), cover=system.algebras))
    make = {"standard": getattr(SYSTEM_KINDS[config.system["kind"]], role), **kinds}.get(name)
    if make is None:
        raise ConfigError(f"unknown {role} kind {name!r}")
    return make(system, *args)


def build_setup(config: RunConfig) -> Setup:
    try:
        built = SYSTEM_KINDS[config.system["kind"]].build(config.payload, config.grid,
                                                          config.dim_cap)
        if config.measures is not None and built.mult is None:
            raise ConfigError(f"measures need a commutative system, not {config.system['kind']!r}")
        system, expected, morphisms = built.system, built.expected, built.morphisms
        if config.perturbation:
            system, expected, morphisms = _perturbed(system, **config.perturbation), None, ()
        if len(config.grid.points) < 3:
            expected = None  # no triples: the classification is vacuous
        measures = None if config.measures is None else _keyed(
            "measures", config.measures, 2,
            lambda vals, s, t: _measure(vals, built.mult.spaces.get((s, t))),
            cover=system.algebras)
        unit = _family("unit", config, system)
        counit = _family("counit", config, system, config.payload, built.mult, measures)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    return Setup(system=system, max_interior_points=config.max_interior_points,
                 hilbert=built.hilbert, unit=unit, counit=counit, mult_system=built.mult,
                 measures=measures, expected_class=expected, tol=config.tolerance,
                 morphisms=morphisms)


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
    # every other flag overrides the config key it names as its dest
    parser.add_argument("--tol", dest="tolerance", type=float, help="residual tolerance override")
    parser.add_argument("--max-interior", dest="max_interior_points", type=int,
                        help="max interior points per partition")
    parser.add_argument("--report", dest="report_path", help="path for the JSON report")
    parser.add_argument("--seed", type=int, help="seed for random elements")
    parser.add_argument("--suites",
                        type=lambda text: [s.strip() for s in text.split(",") if s.strip()],
                        help="comma-separated subset of " + ",".join(ALL_SUITES))
    overrides = vars(parser.parse_args(argv))
    path = overrides.pop("config")

    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2

    if isinstance(raw, dict):  # from_json rejects any other document
        raw.update((key, value) for key, value in overrides.items() if value is not None)
    try:
        config = RunConfig.from_json(raw)
        out, overall, wall = run(config)
    except (ConfigError, DimensionCapError) as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2

    if config.report_path:
        try:
            with open(config.report_path, "w") as fh:
                json.dump(out, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            print(f"report error: cannot write {config.report_path}: {exc.strerror or exc}",
                  file=_sys.stderr)
            return 2

    for suite, body in out["suites"].items():
        s = body["summary"]
        residuals = [r.get("residual") for r in body["records"]
                     if "residual" in r and "negative_control" not in r["check"]]
        worst = np.max(residuals) if residuals else 0.0
        status = "pass" if s["failed"] == 0 else "FAIL"
        print(f"{suite:12s} {status}  checks={s['total']:4d}  max residual={worst:.3e}")
    s = out["summary"]
    print(f"{'overall':12s} {'pass' if overall else 'FAIL'}  "
          f"checks={s['total']}  wall={wall:.2f}s")
    return 0 if overall else 1


if __name__ == "__main__":
    _sys.exit(main())
