from fractions import Fraction as F

import numpy as np
import pytest

from cstar_systems.algebra import FiniteCStarAlgebra, LinearFunctional, vector_state
from cstar_systems.linalg import max_abs
from cstar_systems.serialize import (
    element_from_json,
    functional_from_json,
    matrix_from_json,
    parse_time_key,
)
from cstar_systems.timegrid import as_timepoint, format_timepoint
from test_cli import matrix_json

RNG = np.random.default_rng(5)


def test_rational_wire_format():
    assert as_timepoint("3/4") == F(3, 4)
    assert as_timepoint("2") == F(2)
    assert format_timepoint(F(1, 3)) == "1/3" and format_timepoint(F(2)) == "2"
    assert parse_time_key("1/3, 2") == (F(1, 3), F(2))
    with pytest.raises(ValueError):
        parse_time_key("-1/2")


def test_matrix_round_trip():
    m = RNG.standard_normal((2, 3)) + 1j * RNG.standard_normal((2, 3))
    obj = matrix_json(m)
    assert obj["rows"] == 2 and obj["cols"] == 3 and len(obj["re"]) == 6
    assert max_abs(matrix_from_json(obj) - m) == 0


def test_matrix_from_json_defaults_imaginary_part():
    obj = {"rows": 2, "cols": 2, "re": [1, 0, 0, 1]}
    assert max_abs(matrix_from_json(obj) - np.eye(2)) == 0


@pytest.mark.parametrize("obj, error, match", [
    ({"rows": 1.9, "cols": 2, "re": [1, 0]}, TypeError, "positive integers, got 1.9 x 2"),
    ({"rows": 2.0, "cols": 1, "re": [1, 0]}, TypeError, "positive integers"),
    ({"rows": -1, "cols": 2, "re": [1, 0]}, ValueError, "positive integers"),
    ({"rows": 2, "cols": 2, "re": [1, 0, 0]}, ValueError, "'re' has 3 entries"),
    ({"rows": 1, "cols": 2, "re": [1, 0], "im": [1]}, ValueError, "'im' has 1 entries"),
    ({"rows": 1, "cols": 2, "re": [float("nan"), 0]}, ValueError, "'re' has a non-finite"),
    ({"rows": 1, "cols": 2, "re": [1, 0], "im": [0, -float("inf")]}, ValueError, "non-finite"),
    ({"rows": 1, "cols": 1, "re": [10**400]}, ValueError, "'re' has a non-finite"),
])
def test_matrix_from_json_rejects_bad_sizes_and_entries(obj, error, match):
    with pytest.raises(error, match=match):
        matrix_from_json(obj)


def test_algebra_element_functional_round_trips():
    alg = FiniteCStarAlgebra([2, 1])
    x = alg.random_element(RNG)
    x2 = element_from_json(alg, {"blocks": [matrix_json(m) for m in x.block_matrices]})
    assert x.distance(x2) == 0
    phi = LinearFunctional(alg, [np.diag([0.25, 0.25]), [[0.5]]])
    phi2 = functional_from_json(alg, {"densities": [matrix_json(r) for r in phi.densities]})
    assert max_abs(phi.row() - phi2.row()) == 0
    assert phi2.is_state()


def test_vector_state_serializes_as_density():
    alg = FiniteCStarAlgebra([2])
    obj = {"densities": [{"rows": 2, "cols": 2, "re": [1, 0, 0, 0]}]}
    assert max_abs(functional_from_json(alg, obj).row() - vector_state(alg).row()) == 0


def test_config_grid_must_match_system_grid():
    from cstar_systems.cli import ConfigError, RunConfig

    with pytest.raises(ConfigError, match="grid differs"):
        RunConfig.from_json({
            "grid": ["1", "2"],
            "system": {"kind": "diagonal", "d": 2, "grid": ["1", "3"]},
            "suites": ["axioms"],
        })
