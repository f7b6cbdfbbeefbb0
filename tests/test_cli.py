import hashlib
import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cstar_systems.algebra import FiniteCStarAlgebra, LinearFunctional, functional_tensor
from cstar_systems.cli import ALL_SUITES, ConfigError, RunConfig, build_setup, main, run
from cstar_systems.linalg import max_abs
from cstar_systems.suites import associativity_residual, run_algebra, run_dilation, run_partition

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


@pytest.mark.parametrize("raw, total, digest", [
    (json.loads(ORACLE_CONFIG.read_text()), 443,
     "9a4cb8dacc37de5be4cd601913623cfd8db60ce25e1a69914080b458b6f55ca5"),
    (GRID5, 746, "e138c2c8c5af2daea272e296254eb57ff047ccbfaac7cfad43b19a3a40a19cd2"),
    (GLUE_MEASURES, 497, "bfc42e76714fe333b3dac02c4392f9df76ec83e50adaa33b4b70fbe0dd8febdc"),
], ids=["oracle", "diagonal-grid5", "commutative-glue-measures"])
def test_report_records_keep_their_order(raw, total, digest):
    out, ok, _ = run(RunConfig.from_json(raw))
    assert ok
    assert out["summary"]["total"] == total
    assert record_digest(out) == digest


@pytest.mark.parametrize("system", [
    {"kind": "glue_hilbert", "cell_dims": [2, 3]},
    {"kind": "commutative", "model": "glue"},
], ids=["glue_hilbert", "commutative"])
def test_perturbation_keeps_the_default_unit_and_counit(system):
    plain = build_setup(config(system=system))
    perturbed = build_setup(config(system=system, perturb_delta={"epsilon": 1e-3}))
    assert perturbed.system.kind == system["kind"] + "+perturbed"
    for pair in plain.system.algebras:
        assert np.array_equal(perturbed.unit.p(*pair).vec(), plain.unit.p(*pair).vec())
        assert np.array_equal(perturbed.counit.phi(*pair).row(), plain.counit.phi(*pair).row())


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
    # one row of the pair density at a time: no 16-MB slice of the triple density
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
    assert peak < 8 * 2**20


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


def test_dimension_cap_is_a_config_error(tmp_path):
    raw = dict(BASE)
    raw["grid"] = ["1", "2", "3", "4", "5", "6"]
    raw["suites"] = ["partition"]
    raw["dim_cap"] = 64
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(raw))
    assert main(["--config", str(path)]) == 2


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
])
def test_malformed_config_values_exit_two(tmp_path, capsys, override):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(BASE, **override)))
    assert main(["--config", str(path)]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("override, named", [
    ({"bogus": 1, "seed": 1}, "['bogus']"),
    ({"report_path": True}, "report_path must be a string, got True"),
])
def test_config_errors_name_the_offending_key(tmp_path, capsys, override, named):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(BASE, **override)))
    assert main(["--config", str(path)]) == 2
    assert named in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]
    with pytest.raises(ConfigError, match="must be a JSON object"):
        RunConfig.from_json([BASE])


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


def load_benchmark_tracer(monkeypatch):
    """perfbench/tracer.py, loaded read-only and without writing bytecode."""
    bench = ORACLE_CONFIG.parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", bench / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_names_resolve(monkeypatch):
    # perfbench/tracer.py wraps these names by lookup; a rename breaks --trace 1
    tracer = load_benchmark_tracer(monkeypatch)
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
    tracer = load_benchmark_tracer(monkeypatch)
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
