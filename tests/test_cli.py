import contextlib
import copy
import dataclasses
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstar_systems import commutative, systems
from cstar_systems.algebra import FiniteCStarAlgebra, LinearFunctional, functional_tensor
from cstar_systems.cli import (
    ALL_SUITES,
    PERTURBATION,
    SYSTEM_KINDS,
    ConfigError,
    RunConfig,
    build_setup,
    main,
    run,
)
from cstar_systems.linalg import check_star_homomorphism, exact_real, max_abs, numerical_rank
from cstar_systems.report import Report
from cstar_systems.suites import (
    associativity_residual,
    brute_force_gram,
    run_algebra,
    run_dilation,
    run_partition,
)

ORACLE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "oracle.json"
SRC = Path(__file__).resolve().parent.parent / "src"

BASE = {
    "grid": ["1", "2", "3"],
    "system": {"kind": "diagonal", "d": 2},
    "suites": ["axioms"],
    "seed": 42,
}


def config(**overrides):
    raw = dict(BASE)
    raw.update(overrides)
    return RunConfig.from_json(raw)


def matrix_json(m) -> dict:
    """The config encoding of a matrix: shape plus row-major real and imaginary parts."""
    m = np.asarray(m, dtype=complex)
    return {"rows": m.shape[0], "cols": m.shape[1],
            "re": m.real.reshape(-1).tolist(), "im": m.imag.reshape(-1).tolist()}


PAIRS = ("1,2", "1,3", "2,3")
# the diagonal comultiplication of M_2, the group coproduct of functions on Z_2,
# the first matrix unit of M_2 and the vector state at the first basis vector
_U2 = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
DIAGONAL_DELTA = matrix_json(np.kron(_U2, _U2))
Z2_DELTA = matrix_json([[1, 0], [0, 1], [0, 1], [1, 0]])
E11 = {"blocks": [matrix_json(np.diag([1.0, 0.0]))]}
OMEGA = {"densities": [matrix_json(np.diag([1.0, 0.0]))]}
CUSTOM = {"kind": "custom", "algebras": {k: {"blocks": [2]} for k in PAIRS},
          "deltas": {"1,2,3": DIAGONAL_DELTA}}
EXPLICIT_COMMUTATIVE = {"kind": "commutative", "model": "explicit",
                        "spaces": dict.fromkeys(PAIRS, 2), "chi": {"1,2,3": [[0, 1], [1, 0]]}}


def test_config_validation():
    with pytest.raises(ConfigError, match="suites"):
        config(suites=[])
    with pytest.raises(ConfigError, match="unknown suites"):
        config(suites=["axioms", "nope"])
    with pytest.raises(ConfigError, match="grid"):
        config(grid=["2", "1"])
    with pytest.raises(ConfigError, match="kind"):
        config(system={})
    with pytest.raises(ConfigError, match="unknown system kind"):
        build_setup(config(system={"kind": "warp"}))


def test_explicit_commutative_payload():
    cfg = config(
        grid=["1", "2", "3"],
        system={
            "kind": "commutative",
            "model": "explicit",
            "spaces": {"1,2": 2, "2,3": 2, "1,3": 2},
            "chi": {"1,2,3": [[0, 1], [1, 0]]},
        },
        unit={"kind": "trivial"},
        counit={"kind": "uniform"},
    )
    setup = build_setup(cfg)
    assert setup.mult_system is not None
    out, ok, _ = run(cfg)
    assert ok
    assert record_digest(out) == "0fb4c9a7496b6141689b01b3c155010b99620d1bf0bca054ed5ac15d19d73646"


def test_glue_system_runs_all_suites():
    cfg = config(
        grid=["1", "2", "3", "4"],
        system={"kind": "glue_hilbert", "cell_dims": [2, 3, 2]},
        suites=list(ALL_SUITES),
        max_interior_points=2,
    )
    out, ok, _ = run(cfg)
    assert ok
    assert record_digest(out) == "b9074357288effb7109bf77eb8fd2124f59b94ebcc4b5e83cc25028a92862bf1"
    gns_records = {r["check"]: r for r in out["suites"]["gns"]["records"]}
    # the faithful cell state does not normalize the rank-one unit
    assert gns_records["counit_normalization_on_unit"]["detail"].startswith("not normalized")


def test_one_parameter_system_kind():
    u = np.zeros((4, 2))
    u[0, 0] = u[3, 1] = 1.0
    dmat = np.kron(u, u.conj())
    cfg = config(
        grid=["1", "3/2", "2"],
        system={
            "kind": "one_parameter",
            "durations": {"1/2": {"blocks": [2]}, "1": {"blocks": [2]}},
            "maps": {"1/2,1/2": matrix_json(dmat)},
        },
        suites=["axioms", "partition"],
        max_interior_points=1,
    )
    out, ok, _ = run(cfg)
    assert ok
    assert record_digest(out) == "feb2b74c312eda559c0e054cf97d1abbcd190b7fafab037c6ae1e9554f674232"


def test_custom_system_with_explicit_families():
    u = np.zeros((4, 2))
    u[0, 0] = u[3, 1] = 1.0
    dmat = np.kron(u, u.conj())
    e11 = {"blocks": [matrix_json(np.diag([1.0, 0.0]))]}
    omega = {"densities": [matrix_json(np.diag([1.0, 0.0]))]}
    pairs = ["1,2", "1,3", "2,3"]
    cfg = config(
        grid=["1", "2", "3"],
        system={
            "kind": "custom",
            "algebras": {k: {"blocks": [2]} for k in pairs},
            "deltas": {"1,2,3": matrix_json(dmat)},
        },
        unit={"kind": "explicit", "elements": {k: e11 for k in pairs}},
        counit={"kind": "explicit", "functionals": {k: omega for k in pairs}},
        suites=["axioms", "gns"],
    )
    out, ok, _ = run(cfg)
    assert ok
    assert record_digest(out) == "546fc515ae0e1b3d49078fe7c1b0b88a23c834e31baa15d195a80249b6b55ad1"


def test_direct_sum_blocks_through_the_full_pipeline():
    """A system on M_2 (+) C: mixed block sizes exercise every tensor layout."""
    u = np.zeros((4, 2))
    u[0, 0] = u[3, 1] = 1.0
    dmat = np.zeros((25, 5), dtype=complex)
    dmat[:16, :4] = np.kron(u, u.conj())   # M_2 summand into the (0,0) block
    dmat[24, 4] = 1.0                      # scalar summand into the (1,1) block
    pairs = ["1,2", "1,3", "2,3"]
    p_unit = {"blocks": [matrix_json(np.diag([1.0, 0.0])),
                         matrix_json(np.zeros((1, 1)))]}
    omega = {"densities": [matrix_json(np.diag([1.0, 0.0])),
                           matrix_json(np.zeros((1, 1)))]}
    cfg = config(
        grid=["1", "2", "3"],
        system={
            "kind": "custom",
            "algebras": {k: {"blocks": [2, 1]} for k in pairs},
            "deltas": {"1,2,3": matrix_json(dmat)},
        },
        unit={"kind": "explicit", "elements": {k: p_unit for k in pairs}},
        counit={"kind": "explicit", "functionals": {k: omega for k in pairs}},
        suites=["axioms", "partition", "dilation", "algebra", "gns"],
        max_interior_points=1,
    )
    out, ok, _ = run(cfg)
    assert ok
    assert record_digest(out) == "fa79086a57ec7a8408d92ce5b8c4237599b33fd55ebdf9f5b6883f9db36af43e"
    cls = [r for r in out["suites"]["axioms"]["records"]
           if r["check"] == "system_classification"][0]
    assert cls["detail"] == "subproduct"


def test_z2_bialgebra_defaults_to_identity_unit():
    cfg = config(
        grid=["1", "2", "3", "4"],
        system={"kind": "trivial_bialgebra", "model": "z2"},
        counit={"kind": "trace_normalized"},
        suites=["axioms", "partition", "gns"],
        max_interior_points=2,
    )
    out, ok, _ = run(cfg)
    assert ok
    assert record_digest(out) == "eb2de9c59d371d7ba85985addf8b88aca7c847f6e9be8977cda686f968801be7"


def test_diagonal_d3_full_pipeline():
    cfg = config(
        grid=["1", "2", "3", "4"],
        system={"kind": "diagonal", "d": 3},
        suites=list(ALL_SUITES),
        max_interior_points=2,
    )
    out, ok, _ = run(cfg)
    assert ok
    dims = [r for r in out["suites"]["algebra"]["records"]
            if r["check"] == "gns_dimension_matches_brute_force_gram_rank"]
    assert dims and all(r["params"]["dim"] == 3 for r in dims)


def test_two_point_grid_degenerates_gracefully():
    cfg = config(grid=["1", "2"], suites=list(ALL_SUITES), max_interior_points=4)
    out, ok, _ = run(cfg)
    assert ok  # no triples: most suites reduce to pair-level checks


def test_run_is_deterministic():
    cfg = config(suites=list(ALL_SUITES))
    out1, ok1, _ = run(cfg)
    out2, ok2, _ = run(cfg)
    assert ok1 and ok2
    assert json.dumps(out1, sort_keys=True) == json.dumps(out2, sort_keys=True)


def test_suite_subsets_reproduce_full_run_records():
    full, ok, _ = run(config(suites=list(ALL_SUITES)))
    assert ok
    for suite in ("partition", "gns", "morphism"):
        solo, ok_solo, _ = run(config(suites=[suite]))
        assert ok_solo
        assert solo["suites"][suite] == full["suites"][suite]


def record_digest(out: dict) -> str:
    """sha256 of the ordered (suite, check, params, pass, exact_discrepancy) records."""
    rows = [[suite, r["check"], r["params"], r["pass"], r.get("exact_discrepancy")]
            for suite, body in out["suites"].items() for r in body["records"]]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


GRID5 = {
    "grid": ["1", "2", "3", "4", "5"],
    "system": {"kind": "diagonal", "d": 2},
    "unit": {"kind": "standard"},
    "counit": {"kind": "standard"},
    "suites": ["partition", "gns", "commutative", "morphism"],
    "max_interior_points": 3,
    "seed": 42,
}

# words over {0, 1} with independent Bernoulli(1/3, 2/3) letters, one per cell
BERNOULLI = (Fraction(1, 3), Fraction(2, 3))
GLUE_MEASURES = {
    "grid": ["1", "2", "3", "4"],
    "system": {"kind": "commutative", "model": "glue"},
    "measures": {
        f"{s},{t}": [str(math.prod(w)) for w in itertools.product(BERNOULLI, repeat=t - s)]
        for s in range(1, 5) for t in range(s + 1, 5)
    },
    "suites": list(ALL_SUITES),
    "max_interior_points": 2,
    "seed": 7,
}


# padded germs over cells of different dimensions
GLUE_232 = {
    "grid": ["1", "2", "3", "4"],
    "system": {"kind": "glue_hilbert", "cell_dims": [2, 3, 2]},
    "unit": {"kind": "standard"},
    "counit": {"kind": "faithful_cell_product"},
    "suites": ["dilation", "gns"],
    "max_interior_points": 2,
    "seed": 5,
}


PAIRS4 = [f"{s},{t}" for s, t in itertools.combinations(range(1, 5), 2)]
# diagonal d=3 whose unit and co-unit sit at the last basis vector, not the first
E22 = matrix_json(np.diag([0.0, 0.0, 1.0]))
DIAGONAL_LAST_VECTOR = {
    "grid": ["1", "2", "3", "4"],
    "system": {"kind": "diagonal", "d": 3},
    "unit": {"kind": "explicit", "elements": dict.fromkeys(PAIRS4, {"blocks": [E22]})},
    "counit": {"kind": "explicit", "functionals": dict.fromkeys(PAIRS4, {"densities": [E22]})},
    "suites": list(ALL_SUITES),
    "max_interior_points": 2,
}


@pytest.mark.parametrize("raw, controls, padded", [
    # (0, 2, 1) moves e_2 and the swap of e_0 and e_1 fixes it: the roles of the
    # diagonal kind's two families are those of the standard unit, exchanged
    (DIAGONAL_LAST_VECTOR, {"permutation_fixing_the_unit"}, {"identity", "swap_first_two"}),
    (dict(DIAGONAL_LAST_VECTOR, unit={"kind": "trivial"}, suites=["morphism"]), set(),
     {"identity", "permutation_fixing_the_unit", "swap_first_two"}),
    (dict(DIAGONAL_LAST_VECTOR, unit={"kind": "standard"}, suites=["morphism"]),
     {"swap_first_two"}, {"identity", "permutation_fixing_the_unit"}),
], ids=["last-basis-vector", "trivial-unit", "standard-unit"])
def test_the_unit_decides_which_permutation_is_the_negative_control(raw, controls, padded):
    out, ok, _ = run(RunConfig.from_json(raw))
    assert ok
    records = out["suites"]["morphism"]["records"]
    by_check = lambda check: {r["params"]["morphism"] for r in records if r["check"] == check}
    assert by_check("unit_moving_morphism_fails_padding_negative_control") == controls
    assert by_check("lifted_morphism_intertwines_padding") == padded


# the gns suite of the product-glue16 workload: a faithful, so mixed, co-unit on M_4 (x) M_4
PRODUCT_GLUE16 = {"grid": ["1", "2", "3"], "system": {"kind": "glue_hilbert", "cell_dims": [4, 4]},
                  "suites": ["gns"], "dim_cap": 65536}


@pytest.mark.parametrize("raw, generator_records", [
    (dict(GLUE_232, counit={"kind": "vector_state"}), 4),
    ({"grid": ["1", "2", "3"], "system": {"kind": "glue_hilbert", "cell_dims": [1, 1]},
      "suites": ["gns"]}, 1),
    (PRODUCT_GLUE16, 0),
], ids=["glue-232-vector-state", "glue-11-standard", "product-glue16"])
def test_generator_record_runs_exactly_when_the_counit_is_pure(raw, generator_records):
    out, ok, _ = run(RunConfig.from_json(raw))
    assert ok
    records = [r for r in out["suites"]["gns"]["records"]
               if r["check"] == "gns_isometry_recovers_generator"]
    assert len(records) == generator_records
    assert all(r["pass"] and r["residual"] == 0.0 for r in records)


@pytest.mark.parametrize("raw, total, digest", [
    (json.loads(ORACLE_CONFIG.read_text()), 443,
     "9a4cb8dacc37de5be4cd601913623cfd8db60ce25e1a69914080b458b6f55ca5"),
    (GRID5, 746, "e138c2c8c5af2daea272e296254eb57ff047ccbfaac7cfad43b19a3a40a19cd2"),
    (GLUE_MEASURES, 497, "bfc42e76714fe333b3dac02c4392f9df76ec83e50adaa33b4b70fbe0dd8febdc"),
    (GLUE_232, 39, "6edf50df8224f45846069fb0bdb9dcd002231926bec628240becf3251a91708d"),
], ids=["oracle", "diagonal-grid5", "commutative-glue-measures", "glue-hilbert-232"])
def test_report_records_keep_their_order(raw, total, digest):
    out, ok, _ = run(RunConfig.from_json(raw))
    assert ok
    assert out["summary"]["total"] == total
    assert record_digest(out) == digest


def test_oracle_report_is_byte_identical():
    # the whole report as verify writes it, residuals included: all are 0 but the
    # two negative controls', and those are deterministic
    out, ok, _ = run(RunConfig.from_json(json.loads(ORACLE_CONFIG.read_text())))
    assert ok
    text = json.dumps(out, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "a8a9d536a322cc25f8471a9f77331ec533343ad8825debbe14d8a3f39268c4a4"


@pytest.mark.parametrize("system", [
    {"kind": "glue_hilbert", "cell_dims": [2, 3]},
    {"kind": "commutative", "model": "glue"},
    {"kind": "diagonal", "d": 3},
], ids=["glue_hilbert", "commutative", "diagonal"])
def test_perturbation_keeps_the_default_unit_and_counit(system):
    plain = build_setup(config(system=system))
    perturbed = build_setup(config(system=system, perturb_delta={"epsilon": 1e-3}))
    # the kind's morphism families need not be morphisms of the perturbed maps
    assert perturbed.morphisms == ()
    for pair in plain.system.algebras:
        assert np.array_equal(perturbed.unit.p(*pair).vec(), plain.unit.p(*pair).vec())
        assert np.array_equal(perturbed.counit.phi(*pair).row(), plain.counit.phi(*pair).row())


def test_perturbed_diagonal_checks_only_the_identity_morphism():
    system = {"kind": "diagonal", "d": 3}
    assert [name for name, _ in build_setup(config(system=system)).morphisms] == [
        "permutation_fixing_the_unit", "swap_first_two"]
    out, _, _ = run(config(system=system, suites=["morphism"], perturb_delta={"epsilon": 1e-3}))
    records = out["suites"]["morphism"]["records"]
    assert records and {r["params"]["morphism"] for r in records} == {"identity"}


def test_perturbed_system_fails_with_visible_residual():
    cfg = config(perturb_delta={"epsilon": 1e-3})
    out, ok, _ = run(cfg)
    assert not ok
    failing = [r for body in out["suites"].values() for r in body["records"]
               if not r["pass"]]
    assert failing
    assert max(r.get("residual", 0.0) for r in failing) >= 1e-4


def test_streamed_associativity_residual_equals_dense_residual():
    rng = np.random.default_rng(3)
    alg = FiniteCStarAlgebra([1, 2, 3])
    densities = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                 for n in alg.blocks]
    phi = LinearFunctional(alg, densities)
    lhs = functional_tensor(functional_tensor(phi, phi), phi).row()
    rhs = functional_tensor(phi, functional_tensor(phi, phi)).row()
    dense = max_abs(lhs - rhs)
    assert dense > 0.0  # rounding differs between the two bracketings
    assert associativity_residual(phi) == dense


def test_associativity_residual_memory_stays_bounded_on_m16():
    # the pair density's 1-MiB vec, then only its 16 x 16 entries over the co-unit's
    # support (1.26 MiB measured); no copy of the vec, no slice of the triple density
    setup = build_setup(config(system={"kind": "glue_hilbert", "cell_dims": [4, 4]},
                               dim_cap=65536))
    phi = setup.counit.phi(Fraction(1), Fraction(3))
    assert phi.algebra.blocks == (16,)
    tracemalloc.start()
    try:
        res = associativity_residual(phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res <= 1e-15
    assert peak < 1.4 * 2**20


def test_star_homomorphism_check_memory_stays_bounded_on_m16():
    # the M_16 triple of glue [4,4]: GEMM chunks of STREAM_ENTRIES, no pair tensor, and
    # the adjoint compared in column chunks (2.6 MB measured, 5.2 MB with a dense one)
    setup = build_setup(config(system={"kind": "glue_hilbert", "cell_dims": [4, 4]},
                               dim_cap=65536))
    delta = setup.system.deltas[(Fraction(1), Fraction(2), Fraction(3))]
    assert delta.dom == delta.cod == (16,)
    dense = delta.out_dim * delta.in_dim * 16
    tracemalloc.start()
    try:
        rep = check_star_homomorphism(delta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.is_isomorphism and rep.multiplicativity_residual == 0
    assert peak < dense + 2 * 2**20


def test_algebra_suite_memory_stays_bounded_on_m16():
    cfg = config(
        grid=["1", "2", "3"],
        system={"kind": "glue_hilbert", "cell_dims": [4, 4]},
        suites=["algebra"],
        dim_cap=65536,
    )
    setup = build_setup(cfg)
    tracemalloc.start()
    try:
        report = run_algebra(setup, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 128 * 2**20


DIAGONAL_D3 = dict(BASE, grid=["1", "2", "3", "4"], system={"kind": "diagonal", "d": 3},
                   unit={"kind": "standard"}, counit={"kind": "standard"},
                   suites=["partition", "dilation"], max_interior_points=3)


def test_dilation_caches_no_identity_refinement():
    # a germ pushed to its own partition and a padded map whose middle is not
    # refined both meet D[J,J]; the identity is used, never stored
    setup = build_setup(RunConfig.from_json(DIAGONAL_D3))
    assert run_dilation(setup, np.random.default_rng(0)).passed
    refine = [key for key in setup.system._cache if key[0] == "refine"]
    assert refine and all(coarse != fine for _, coarse, fine in refine)


def test_partition_and_dilation_memory_stays_bounded_on_d3():
    # factored maps and streamed identities: no dense 729 x 729 map is formed
    setup = build_setup(RunConfig.from_json(DIAGONAL_D3))
    tracemalloc.start()
    try:
        reports = [runner(setup, np.random.default_rng(0))
                   for runner in (run_partition, run_dilation)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(report.passed for report in reports)
    assert peak < 8 * 2**20


def test_partition_suite_memory_stays_bounded_on_dense_d3():
    # the nested-expansion oracles stay chains, and the interval maps conjugations by
    # their Hilbert maps: no 6561 x 81 composite (8.5 MB) of the oracles and no dense
    # 6561 x 9 interval map is formed (2.5 MiB measured in a fresh process, 4.1 MiB with
    # dense interval maps, 21.4 MB with dense oracles)
    setup = build_setup(RunConfig.from_json(dict(
        DIAGONAL_D3, grid=["1", "2", "3", "4", "5"], suites=["partition"], dim_cap=8192)))
    tracemalloc.start()
    try:
        report = run_partition(setup, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 3 * 2**20


def test_dimension_cap_is_a_config_error(tmp_path):
    raw = dict(BASE)
    raw["grid"] = ["1", "2", "3", "4", "5", "6"]
    raw["suites"] = ["partition"]
    raw["dim_cap"] = 64
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(raw))
    assert main(["--config", str(path)]) == 2


@pytest.mark.parametrize("system, points, named", [
    ({"kind": "glue_hilbert", "cell_dims": [4, 4]}, 3, "triple {1, 2, 3}"),
    ({"kind": "diagonal", "d": 5}, 3, "triple {1, 2, 3}"),
    ({"kind": "commutative", "model": "glue", "base": 2}, 8, "triple {1, 2, 8}"),
    ({"kind": "diagonal", "d": 3000}, 2, "pair {1, 2}"),
], ids=["glue_hilbert", "diagonal", "commutative", "diagonal-two-points"])
def test_oversized_triples_exit_two_before_any_map_is_built(tmp_path, capsys, monkeypatch,
                                                            system, points, named):
    # the generators check dim A(r,s) * dim A(s,t), and each pair's dim A(s,t),
    # before they build D[r,s,t] or the isometry it conjugates by
    def refuse(*args):
        raise AssertionError("a comultiplication was built past the dimension cap")

    monkeypatch.setattr(systems, "superop_from_conjugation", refuse)
    monkeypatch.setattr(systems, "diagonal_isometry", refuse)
    monkeypatch.setattr(commutative, "superop_from_point_map", refuse)
    raw = {"grid": [str(t) for t in range(1, points + 1)], "system": system,
           "suites": ["axioms"], "dim_cap": 64}
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(raw))
    assert main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("override", [
    {"tolerance": "abc"},
    {"seed": "x"},
    {"dim_cap": "big"},
    {"max_interior_points": "x"},
    {"unit": {"kind": "explicit"}},
    {"counit": {"kind": "explicit"}},
    {"measures": {"1,2": ["a"]}},
    {"perturb_delta": {"triple": "9,9,9"}},
    {"dim_cap": 4096.9},
    {"max_interior_points": 2.5},
    {"seed": True},
    {"tolerance": -1},
    {"tolerance": float("nan")},
    {"counit": "uniform"},
    {"unit": "trivial"},
    {"perturb_delta": [1]},
    {"measures": [1]},
    {"system": {"kind": "diagonal", "d": 2.5}},
    {"system": {"kind": "glue_hilbert", "cell_dims": [2, 2.5]}},
    {"measures": {"1,2": ["1/2", "1/2"], "2,3": ["1/2", "1/2"], "1,3": ["1/2", "1/2"]}},
    {"grid": ["1/0", "2", "3"]},
    {"grid": [True, 2, 3]},
    {"grid": "1,2,3"},
    {"suites": "axioms"},
    {"bogus": 1},
    {"report_path": True},
    {"report_path": 5},
    {"seed": -5},
    {"system": {"kind": ["diagonal"]}},
    {"perturb_delta": {"epsilon": float("nan")}},
    {"perturb_delta": {"epsilon": float("inf")}},
    {"perturb_delta": {"epsilon": True}},
    {"perturb_delta": {"epsilon": 10**400}},
    {"tolerance": 10**400},
    {"system": {"kind": "diagonal", "d": 2, "cell_dims": [2]}},
    {"system": {"kind": "glue_hilbert", "cell_dims": [2, 2], "d": 2}},
    {"perturb_delta": {"epsilon": 1e155}},
    {"perturb_delta": {"epsilon": 1e308}},
    {"perturb_delta": {"epsilon": -1e200}},
    {"system": {"kind": "one_parameter", "durations": [], "maps": {}}},
    {"perturb_delta": {"triple": 5}},
    {"unit": {"kind": "explicit", "elements": []}},
    {"unit": {"kind": "explicit", "elements": {"1,2": E11}}},
    {"counit": {"kind": "explicit", "functionals": {}}},
    {"system": dict(CUSTOM, deltas={})},
    {"system": dict(CUSTOM, algebras={k: {"blocks": [2]} for k in ("1,2", "2,3")})},
    {"system": {"kind": "diagonal", "d": 3000}},
    {"system": {"kind": "trivial_bialgebra", "model": "explicit", "blocks": [1.0, 1.9],
                "delta": Z2_DELTA}},
    {"system": dict(EXPLICIT_COMMUTATIVE, chi={"1,2,3": [[0, 1], [1, 0.5]]})},
    {"system": dict(EXPLICIT_COMMUTATIVE, spaces={"1,2": 2, "1,3": 2, "2,3": True})},
    {"perturb_delta": {"epsilon": 1e-3, "bogus": 1}},
    {"perturb_delta": {"triple": "1,2"}},
    {"grid": ["1", "2"], "perturb_delta": {"epsilon": 1e-3}},
    {"system": {"kind": "commutative", "model": "glue"}, "counit": {"kind": "none"},
     "measures": {"1,2": ["1/2", "1/2"]}},
    {"system": {"kind": "commutative", "model": "bogus"}},
    {"system": {"kind": "glue_hilbert"}},
])
def test_malformed_config_values_exit_two(tmp_path, capsys, override):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(BASE, **override)))
    assert main(["--config", str(path)]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("override, named", [
    ({"bogus": 1, "seed": 1}, "['bogus']"),
    ({"report_path": True}, "report_path must be a string, got True"),
    ({"system": {"kind": "diagonal", "cell_dims": [2]}}, "unknown keys ['cell_dims']"),
    ({"perturb_delta": {"epsilon": 1.5}}, "perturb_delta epsilon must lie in [-1, 1], got 1.5"),
])
def test_config_errors_name_the_offending_key(tmp_path, capsys, override, named):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(BASE, **override)))
    assert main(["--config", str(path)]) == 2
    assert named in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]
    with pytest.raises(ConfigError, match="must be a JSON object"):
        RunConfig.from_json([BASE])


def _bad_delta(**entry):
    deltas = {"1,2,3": dict(DIAGONAL_DELTA, **entry)}
    return {"system": dict(CUSTOM, deltas=deltas)}


NAN_STATE = {"densities": [{"rows": 2, "cols": 2, "re": [math.nan, 0, 0, 0]}]}


@pytest.mark.parametrize("override, named", [
    (_bad_delta(rows=16.9), "deltas entry '1,2,3': matrix sizes must be positive integers, "
                            "got 16.9 x 4"),
    (_bad_delta(cols=0), "deltas entry '1,2,3': matrix sizes must be positive integers"),
    (_bad_delta(re=DIAGONAL_DELTA["re"][:-1]), "deltas entry '1,2,3': matrix 're' has 63 "
                                               "entries, a 16 x 4 matrix needs 64"),
    (_bad_delta(im=[0.0] * 65), "deltas entry '1,2,3': matrix 'im' has 65 entries"),
    (_bad_delta(re=[math.nan] * 64), "deltas entry '1,2,3': matrix 're' has a non-finite"),
    (_bad_delta(im=[math.inf] + [0.0] * 63), "matrix 'im' has a non-finite entry"),
    (_bad_delta(re=[10**400] + [0] * 63), "matrix 're' has a non-finite entry"),
    ({"system": {"kind": "trivial_bialgebra", "model": "explicit", "blocks": [1, 1],
                 "delta": dict(Z2_DELTA, rows=2.5)}},
     "delta: matrix sizes must be positive integers, got 2.5 x 2"),
    ({"suites": ["algebra"], "counit": {"kind": "explicit",
                                        "functionals": dict.fromkeys(PAIRS, NAN_STATE)}},
     "counit functionals entry '1,2': matrix 're' has a non-finite entry"),
    ({"suites": ["algebra"], "counit": {"kind": "explicit", "functionals": dict.fromkeys(
        PAIRS, {"densities": OMEGA["densities"] * 2})}},
     "counit functionals entry '1,2': one matrix per block required"),
    ({"system": {"kind": "commutative", "model": "glue"}, "suites": ["commutative"],
      "counit": {"kind": "none"}, "measures": dict.fromkeys(PAIRS, ["1/3"] * 3)},
     "measures entry '1,2': 3 weights for a space of 2 points"),
    ({"system": {"kind": "commutative", "model": "glue"}, "suites": ["commutative"],
      "measures": {**dict.fromkeys(PAIRS, ["1/2", "1/2"]), "1,3": ["1/4"] * 4, "1,4": [1]}},
     "measures entry '1,4': not a pair of the grid"),
], ids=["float-rows", "zero-cols", "short-re", "long-im", "nan-re", "inf-im", "huge-re",
        "bialgebra-delta", "nan-counit", "density-count", "measure-sizes",
        "measure-off-grid"])
def test_malformed_payload_entries_exit_two_naming_the_entry(tmp_path, capsys, override,
                                                             named):
    # these once ran as a truncated 16 x 4 map, or ended in a LinAlgError, an
    # ArithmeticError from Gram-Schmidt, an IndexError from the densities past the
    # blocks or a ValueError from run_commutative
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(BASE, **override)))
    assert main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


def test_a_counit_that_is_no_state_fails_with_a_report(tmp_path, capsys):
    # the algebra suite once ended in "ValueError: not a state" from gns
    bad = {"densities": [matrix_json(np.diag([2.0, -1.0]))]}
    path, report = tmp_path / "cfg.json", tmp_path / "report.json"
    path.write_text(json.dumps(dict(BASE, suites=ALL_SUITES, counit={
        "kind": "explicit", "functionals": dict.fromkeys(PAIRS, bad)})))
    assert main(["--config", str(path), "--report", str(report)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    suites = json.loads(report.read_text())["suites"]
    algebra = suites["algebra"]["records"]
    for pair in PAIRS:
        s, t = pair.split(",")
        mine = [r for r in algebra if r["params"] == {"s": s, "t": t}]
        assert [(r["check"], r["pass"]) for r in mine] == [
            ("functional_tensor_associative", True), ("gns_needs_state", False)]
        assert mine[1]["detail"] == "not a state: positivity residual 1, trace error 0"
    assert [r["check"] for r in algebra if not r["params"]] == ["gns_rejects_non_states"]
    [needs] = suites["gns"]["records"]
    assert needs["check"] == "gns_suite_needs_counit" and not needs["pass"]
    assert needs["detail"] == "the co-unit is not a family of states"
    path.write_text(json.dumps(dict(BASE, suites=["gns"], counit={"kind": "none"})))
    assert main(["--config", str(path), "--report", str(report)]) == 1
    [needs] = json.loads(report.read_text())["suites"]["gns"]["records"]
    assert needs["detail"] == "no co-unit configured"


def test_rank_cutoff_does_not_follow_the_tolerance(tmp_path, capsys):
    # a tolerance of 0.5 once cut every singular value of the comultiplications
    # (all equal to 1), so their four homomorphism records failed with residual 0
    raw = json.loads(ORACLE_CONFIG.read_text())
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(raw, tolerance=0.5, suites=["axioms"])))
    assert main(["--config", str(path)]) == 0
    # a huge tolerance no longer overflows the cutoff
    path.write_text(json.dumps(dict(raw, tolerance=1e308, suites=["axioms"])))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        main(["--config", str(path)])


@pytest.mark.parametrize("tolerance", [1, 1e308])
def test_a_tolerance_of_one_or_more_keeps_every_gns_space(tmp_path, capsys, tolerance):
    # a cut at tolerance * lambda_max once emptied every GNS space, and the gns
    # suite ended in a ValueError from an algebra without blocks
    raw = json.loads(ORACLE_CONFIG.read_text())
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(raw, tolerance=tolerance)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", str(path)]) in (0, 1)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "Traceback" not in capsys.readouterr().err


_DELETE = object()
FUZZ_VALUES = st.sampled_from([
    _DELETE, None, True, False, 0, 1, -1, -5, 0.5, -0.5, 2**63, 10**400, 1e308, -1e308,
    math.nan, math.inf, -math.inf, "", "x", "1,2,3", [], [1], ["x"], {}, {"kind": 1},
    {"kind": ["x"]}, {"kind": "none"},
])


def assert_exits_cleanly(raw, mutations):
    """``verify`` on ``raw`` writes a report or a config error: no traceback, no RuntimeWarning."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["--config", path])
    assert code in (0, 1, 2), mutations
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], mutations
    assert "Traceback" not in out.getvalue() + err.getvalue()


def mutate(obj: dict, path: tuple, value):
    """Set, delete or reshape (a ``RESHAPES`` function) the entry at ``path`` under ``obj``;
    a path through a value that is no longer an object is left alone."""
    *parents, key = path
    for name in parents:
        obj = obj.setdefault(name, {})
        if not isinstance(obj, dict):
            return
    if value is _DELETE:
        obj.pop(key, None)
    elif callable(value):
        obj[key] = reshaped(obj.get(key), value)
    else:
        obj[key] = value


def reshaped(value, how):
    """``value`` with ``how`` applied to each of its lists, a dict's values each reshaped."""
    if isinstance(value, dict):
        return {key: reshaped(item, how) for key, item in value.items()}
    return how(value) if isinstance(value, list) else value


def drop_row(value: list) -> list:
    return value[:-1]


def repeat_row(value: list) -> list:
    return value + value[:1]


def drop_column(value: list) -> list:
    return [row[:-1] if isinstance(row, list) else row for row in value]


def repeat_column(value: list) -> list:
    return [row + row[:1] if isinstance(row, list) else row for row in value]


# the reshapes of an explicit table's entry
RESHAPES = [drop_row, repeat_row, drop_column, repeat_column]


@settings(deadline=None, max_examples=50)
@given(st.lists(st.tuples(st.sampled_from(sorted(json.loads(ORACLE_CONFIG.read_text()))),
                          FUZZ_VALUES), min_size=1, max_size=2))
def test_mutated_oracle_configs_exit_cleanly(mutations):
    # each top-level key of the oracle config deleted, retyped or set to a negative,
    # non-finite, boolean or huge number: a report or a config error, never a traceback
    raw = json.loads(ORACLE_CONFIG.read_text())
    for key, value in mutations:
        mutate(raw, (key,), value)
    assert_exits_cleanly(raw, mutations)


# one small config per system kind and model, all suites
PAYLOAD_CONFIGS = [dict(BASE, suites=list(ALL_SUITES), max_interior_points=1, **extra)
                   for extra in [
    {"system": {"kind": "diagonal", "d": 2}},
    {"system": {"kind": "glue_hilbert", "cell_dims": [2, 2]}},
    {"system": {"kind": "trivial_bialgebra", "model": "z2"}},
    {"system": {"kind": "trivial_bialgebra", "model": "explicit", "blocks": [1, 1],
                "delta": Z2_DELTA}},
    {"grid": ["1", "3/2", "2"],
     "system": {"kind": "one_parameter", "maps": {"1/2,1/2": DIAGONAL_DELTA},
                "durations": {"1/2": {"blocks": [2]}, "1": {"blocks": [2]}}}},
    {"system": CUSTOM, "unit": {"kind": "explicit", "elements": dict.fromkeys(PAIRS, E11)},
     "counit": {"kind": "explicit", "functionals": dict.fromkeys(PAIRS, OMEGA)}},
    {"system": {"kind": "commutative", "model": "glue", "base": 2}},
    {"system": {"kind": "commutative", "model": "z2"}},
    {"system": EXPLICIT_COMMUTATIVE},
]]


def payload_targets(raw: dict) -> list[tuple[str, ...]]:
    """The paths the payload fuzzer mutates: every key of the system object, the sub-keys
    of ``unit``, ``counit`` and ``perturb_delta``, and each entry of an explicit table
    among these, such as one gluing table of ``chi``."""
    system_keys = ["kind", "grid", *SYSTEM_KINDS[raw["system"]["kind"]].fields]
    keys = [("system", key) for key in system_keys] + [
        ("unit", "kind"), ("unit", "elements"), ("counit", "kind"), ("counit", "functionals"),
        *(("perturb_delta", key) for key in PERTURBATION)]
    entries = [(obj, key, entry) for obj, key in keys
               if isinstance(table := raw.get(obj, {}).get(key), dict) for entry in table]
    return keys + entries


def mutation_of(path: tuple):
    """``path`` with a value for it: a table entry may also be reshaped."""
    values = st.one_of(FUZZ_VALUES, st.sampled_from(RESHAPES)) if len(path) == 3 else FUZZ_VALUES
    return st.tuples(st.just(path), values)


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(PAYLOAD_CONFIGS).flatmap(lambda raw: st.tuples(st.just(raw), st.lists(
    st.sampled_from(payload_targets(raw)).flatmap(mutation_of), min_size=1, max_size=2))))
def test_mutated_payloads_exit_cleanly(case):
    # a payload field, a unit or co-unit sub-key, a perturb_delta field or an entry of an
    # explicit table deleted, retyped or set to a negative, non-finite, boolean or huge
    # number, or the entry reshaped
    raw, changes = copy.deepcopy(case[0]), case[1]
    for path, value in changes:
        mutate(raw, path, value)
    assert_exits_cleanly(raw, changes)


RESHAPED_ENTRIES = [(raw, path, how) for raw in PAYLOAD_CONFIGS for path in payload_targets(raw)
                    if len(path) == 3 for how in RESHAPES]


@pytest.mark.parametrize("raw, path, how", RESHAPED_ENTRIES, ids=[
    f"{raw['system']['kind']}-{'.'.join(path)}-{how.__name__}"
    for raw, path, how in RESHAPED_ENTRIES])
def test_reshaped_table_entries_exit_cleanly(raw, path, how):
    # every entry of every explicit table of the payload configs with a row or a column
    # dropped or repeated, as the fuzzer above draws them
    raw = copy.deepcopy(raw)
    mutate(raw, path, how)
    assert_exits_cleanly(raw, (path, how.__name__))


def test_explicit_spaces_must_cover_every_pair(tmp_path, capsys):
    # a missing X(1,2) once exited 2 naming no table: "(TimePoint(1, 1), TimePoint(2, 1))"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(BASE, system={
        "kind": "commutative", "spaces": {"2,3": 2, "1,3": 4},
        "chi": {"1,2,3": [[0, 1], [2, 3]]}})))
    assert main(["--config", str(path)]) == 2
    assert "spaces has no entry for the pair {1, 2}" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["axioms", "commutative", "partition", "gns"])
def test_a_misshaped_gluing_table_is_a_config_error(tmp_path, capsys, suite):
    # a 2 x 3 table where X(1,2) x X(2,3) has 2 x 2 points once ended each of these
    # suites in a ValueError traceback, with the exit code of a failing check
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(BASE, suites=[suite], system={
        "kind": "commutative", "spaces": {"1,2": 2, "2,3": 2, "1,3": 3},
        "chi": {"1,2,3": [[0, 1, 2], [1, 2, 0]]}})))
    assert main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "the gluing table at (1,2,3) has shape (2, 3) into 3 points, expected (2, 2) into 3" \
        in err


def complex_svd_rank(m) -> int:
    """The rank by ``numerical_rank``'s cutoff, from singular values taken in complex128."""
    s = np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > max(m.shape) * np.finfo(float).eps * s[0]))


@pytest.mark.parametrize("raw", PAYLOAD_CONFIGS + [
    dict(BASE, system={"kind": "glue_hilbert", "cell_dims": [4, 4]}, dim_cap=65536),
    dict(BASE, grid=["1", "2", "3", "4"], system={"kind": "diagonal", "d": 3})])
def test_float64_rank_is_the_complex_rank_on_shipped_maps(raw):
    # numerical_rank decomposes real input in float64; on every comultiplication and
    # every co-unit's brute-force Gram matrix it must find the complex SVD's rank
    setup = build_setup(RunConfig.from_json(raw))
    mats = [d.matrix for d in setup.system.deltas.values()]
    if setup.counit is not None:
        mats += [brute_force_gram(alg, setup.counit.phi(*pair))
                 for pair, alg in setup.system.algebras.items()]
    assert any(np.isrealobj(exact_real(m)) for m in mats)
    for m in mats:
        assert numerical_rank(m) == complex_svd_rank(m)


def test_max_residual_is_nan_when_a_record_is():
    report = Report()
    for res in (0.0, np.nan, 0.5):
        report.residual_record("check", "law", {}, res, 1e-9)
    assert np.isnan(report.max_residual)
    assert not report.passed


def test_readme_names_every_config_key_and_payload_field():
    readme = (ORACLE_CONFIG.parent.parent / "README.md").read_text()
    names = [f.name for f in dataclasses.fields(RunConfig) if f.init] + list(PERTURBATION)
    names += [name for kind in SYSTEM_KINDS.values() for name in kind.fields] + list(SYSTEM_KINDS)
    assert [name for name in names if f"`{name}`" not in readme] == []


def load_benchmark_module(monkeypatch, name):
    """perfbench/<name>.py, loaded read-only and without writing bytecode."""
    bench = ORACLE_CONFIG.parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", bench / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_cold_cache_hook_runs_on_every_module(monkeypatch):
    # perfbench/worker.py empties the package's memo tables before each timed verify by
    # calling ``cache_clear()`` on every module-level callable that has one: a module-level
    # class with a ``cache_clear`` method would make it raise TypeError and fail every run.
    # After a verify, every ``lru_cache`` of every module is filled or not, and after the
    # hook every one is empty, so no frame or interned map carries over into a timed verify
    import pkgutil

    import cstar_systems

    worker = load_benchmark_module(monkeypatch, "worker")
    modules = [importlib.import_module(f"{worker.PACKAGE}.{info.name}")
               for info in pkgutil.iter_modules(cstar_systems.__path__)]
    run(RunConfig.from_json(json.loads(ORACLE_CONFIG.read_text())))
    tables = {f"{fn.__module__}.{fn.__qualname__}": fn for mod in modules
              for fn in vars(mod).values() if callable(getattr(fn, "cache_info", None))}
    filled = {name for name, fn in tables.items() if fn.cache_info().currsize > 0}
    assert {"cstar_systems.linalg._frame", "cstar_systems.linalg._identity",
            "cstar_systems.linalg.tensor_perm"} <= filled
    worker._clear_process_caches()
    sizes = {name: fn.cache_info().currsize for name, fn in tables.items()}
    assert sizes == dict.fromkeys(tables, 0)


GLUE_2312 = {"grid": ["1", "2", "3", "4", "5"],
             "system": {"kind": "glue_hilbert", "cell_dims": [2, 3, 1, 2]},
             "unit": {"kind": "standard"}, "counit": {"kind": "standard"},
             "suites": ALL_SUITES, "max_interior_points": 4, "dim_cap": 65536}


SETTLE_CONFIGS = {
    "glue-2312": GLUE_2312,
    "commutative-glue": {"grid": ["1", "2", "3", "4", "5"], "suites": ALL_SUITES,
                         "system": {"kind": "commutative", "model": "glue", "base": 2},
                         "max_interior_points": 4},
    "oracle": json.loads(ORACLE_CONFIG.read_text()),
}


@pytest.mark.parametrize("name, settled, calls", [
    ("subproduct-grid6", 1512, 1626), ("product-glue16", 30, 113), ("dense-d3", 208, 208),
    ("glue-2312", 285, 378), ("commutative-glue", 266, 373), ("oracle", 72, 158)])
def test_map_identities_settle_at_least_as_often_as_measured(monkeypatch, name, settled, calls):
    # a settled ``composite_residual`` call compares factors and streams no column; a faster
    # comparator must not settle fewer of the benchmark's identities, nor of glue [2,3,1,2],
    # whose cell of dimension 1 makes factors on blocks (1,) that merged sides split off,
    # nor of commutative glue, whose maps are dense pullbacks, nor of the oracle config
    from cstar_systems import linalg

    if name in SETTLE_CONFIGS:
        raw = dict(SETTLE_CONFIGS[name], seed=1)
    else:
        raw = load_benchmark_module(monkeypatch, "workloads").config_for(name, 1)
    outcomes = []
    same_maps = linalg._same_maps

    def recording(lhs, rhs):
        outcomes.append(same_maps(lhs, rhs))
        return outcomes[-1]

    monkeypatch.setattr(linalg, "_same_maps", recording)
    run(RunConfig.from_json(raw))
    assert len(outcomes) == calls and sum(outcomes) >= settled


def test_benchmark_tracer_names_resolve(monkeypatch):
    # perfbench/tracer.py wraps these names by lookup; a rename breaks --trace 1
    tracer = load_benchmark_module(monkeypatch, "tracer")
    for modname, names in tracer.TARGETS.items():
        mod = importlib.import_module(f"{tracer.PACKAGE}.{modname}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{modname}.{name}"
    for modname, methods in tracer.METHODS.items():
        mod = importlib.import_module(f"{tracer.PACKAGE}.{modname}")
        for cls_name, meth in methods:
            assert callable(getattr(getattr(mod, cls_name), meth, None)), f"{cls_name}.{meth}"


def test_benchmark_tracer_times_every_suite(monkeypatch):
    # run() must call the objects the tracer rebinds, or --trace 1 reports 0 s
    tracer = load_benchmark_module(monkeypatch, "tracer")
    spans = tracer.Tracer()
    try:
        spans.install()
        run(RunConfig.from_json(json.loads(ORACLE_CONFIG.read_text())))
    finally:
        spans.uninstall()
    names = ["cli.build_setup"] + [f"cli.run_{suite}" for suite in ALL_SUITES]
    assert {name: spans.calls[name] for name in names} == dict.fromkeys(names, 1)


class TestMainEntryPoint:
    def write(self, tmp_path, raw, name="cfg.json"):
        path = tmp_path / name
        path.write_text(json.dumps(raw))
        return path

    def test_exit_zero_and_report(self, tmp_path, capsys):
        report = tmp_path / "out.json"
        path = self.write(tmp_path, BASE)
        code = main(["--config", str(path), "--report", str(report)])
        assert code == 0
        body = json.loads(report.read_text())
        assert body["summary"]["overall_pass"] is True
        assert "axioms" in body["suites"]
        assert "wall" in capsys.readouterr().out  # human summary only

    def test_reports_are_byte_identical(self, tmp_path):
        path = self.write(tmp_path, dict(BASE, suites=list(ALL_SUITES)))
        rep1, rep2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["--config", str(path), "--report", str(rep1)]) == 0
        assert main(["--config", str(path), "--report", str(rep2)]) == 0
        assert rep1.read_bytes() == rep2.read_bytes()

    def test_flag_overrides(self, tmp_path):
        path = self.write(tmp_path, BASE)
        report = tmp_path / "out.json"
        code = main(["--config", str(path), "--suites", "axioms,algebra",
                     "--seed", "7", "--tol", "1e-8", "--max-interior", "1",
                     "--report", str(report)])
        assert code == 0
        body = json.loads(report.read_text())
        assert set(body["suites"]) == {"axioms", "algebra"}
        assert body["config"]["seed"] == 7
        assert body["config"]["tolerance"] == 1e-8

    def test_invalid_config_exits_two(self, tmp_path):
        path = self.write(tmp_path, dict(BASE, suites=[]))
        assert main(["--config", str(path)]) == 2
        missing = tmp_path / "missing.json"
        assert main(["--config", str(missing)]) == 2

    def test_report_in_a_missing_directory_exits_two_before_any_suite(self, tmp_path, capsys):
        path = self.write(tmp_path, BASE)
        report = tmp_path / "nonexistent" / "r.json"
        assert main(["--config", str(path), "--report", str(report)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "config error:" in out.err and "does not exist" in out.err

    def test_unwritable_report_exits_two_and_names_the_path(self, tmp_path, capsys):
        path = self.write(tmp_path, BASE)
        assert main(["--config", str(path), "--report", str(tmp_path)]) == 2
        assert f"cannot write {tmp_path}" in capsys.readouterr().err

    def test_huge_tolerance_still_finds_the_unit_non_zero(self, tmp_path):
        raw = dict(json.loads(ORACLE_CONFIG.read_text()), suites=["axioms"], tolerance=1e308)
        assert main(["--config", str(self.write(tmp_path, raw))]) == 0

    def test_failing_checks_exit_one(self, tmp_path):
        raw = dict(BASE, perturb_delta={"epsilon": 1e-3})
        path = self.write(tmp_path, raw)
        assert main(["--config", str(path)]) == 1

    def test_gns_suite_reports_a_non_isometric_system(self, tmp_path):
        raw = json.loads(ORACLE_CONFIG.read_text())
        raw.update(suites=["gns"], perturb_delta={"epsilon": 1e-3})
        path = self.write(tmp_path, raw)
        report = tmp_path / "out.json"
        assert main(["--config", str(path), "--report", str(report)]) == 1
        records = json.loads(report.read_text())["suites"]["gns"]["records"]
        assert [r["check"] for r in records] == ["gns_system_isometry"]
        (record,) = records
        assert record["pass"] is False
        assert record["params"] == {"r": "1", "s": "2", "t": "3"}
        assert record["residual"] > 1e-4

    def test_gns_suite_reports_a_near_comultiplicative_family(self, tmp_path):
        # V[r,s,t] passes the isometry test, but the family misses
        # co-multiplicativity by 1e-8
        raw = json.loads(ORACLE_CONFIG.read_text())
        raw.update(suites=["gns"], perturb_delta={"epsilon": 1e-8})
        path = self.write(tmp_path, raw)
        report = tmp_path / "out.json"
        assert main(["--config", str(path), "--report", str(report)]) == 1
        records = json.loads(report.read_text())["suites"]["gns"]["records"]
        assert records
        assert all(r["pass"] is False for r in records)
        assert {r["check"] for r in records} == {"functional_comultiplicativity"}

    def test_console_entry_point_runs(self, tmp_path):
        path = self.write(tmp_path, BASE)
        # the child imports the checkout's package, as pytest's pythonpath does
        pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "cstar_systems.cli", "--config", str(path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert proc.returncode == 0
        assert "overall" in proc.stdout
