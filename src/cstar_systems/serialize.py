"""JSON encodings of config payloads: time keys as "p,q", matrices as split re/im."""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .algebra import AlgebraElement, FiniteCStarAlgebra, LinearFunctional
from .linalg import Superoperator
from .timegrid import as_timepoint


def parse_time_key(key: str) -> tuple[Fraction, ...]:
    return tuple(as_timepoint(part.strip()) for part in key.split(","))


def matrix_from_json(obj: dict) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    re = np.asarray(obj["re"], dtype=float).reshape(rows, cols)
    im = np.asarray(obj.get("im", np.zeros(rows * cols)), dtype=float).reshape(rows, cols)
    return re + 1j * im


def element_from_json(alg: FiniteCStarAlgebra, obj: dict) -> AlgebraElement:
    return AlgebraElement(alg, [matrix_from_json(m) for m in obj["blocks"]])


def functional_from_json(alg: FiniteCStarAlgebra, obj: dict) -> LinearFunctional:
    return LinearFunctional(alg, [matrix_from_json(m) for m in obj["densities"]])


def superop_from_json(obj: dict, dom: tuple[int, ...], cod: tuple[int, ...]) -> Superoperator:
    return Superoperator(matrix_from_json(obj), dom, cod)
