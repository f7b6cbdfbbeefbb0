"""JSON encodings of config payloads: time keys as "p,q", matrices as split re/im."""
from __future__ import annotations

import operator
from fractions import Fraction

import numpy as np

from .algebra import AlgebraElement, FiniteCStarAlgebra, LinearFunctional
from .linalg import Superoperator
from .timegrid import as_timepoint


def parse_time_key(key: str) -> tuple[Fraction, ...]:
    return tuple(as_timepoint(part.strip()) for part in key.split(","))


def matrix_from_json(obj: dict) -> np.ndarray:
    """``{"rows", "cols", "re", "im"}`` as a complex matrix; ``im`` defaults to zeros.

    The sizes are positive integers, as block sizes are (a float size is a
    TypeError), and ``re`` and ``im`` each hold ``rows * cols`` finite numbers.
    """
    sizes = f"matrix sizes must be positive integers, got {obj['rows']!r} x {obj['cols']!r}"
    try:
        rows, cols = operator.index(obj["rows"]), operator.index(obj["cols"])
    except TypeError:
        raise TypeError(sizes) from None
    if min(rows, cols) < 1:
        raise ValueError(sizes)
    re = _entries(obj["re"], "re", rows, cols)
    im = _entries(obj["im"], "im", rows, cols) if "im" in obj else np.zeros_like(re)
    return re + 1j * im


def _entries(values, key: str, rows: int, cols: int) -> np.ndarray:
    non_finite = ValueError(f"matrix {key!r} has a non-finite entry")
    try:
        part = np.asarray(values, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise non_finite from None
    if part.size != rows * cols:
        raise ValueError(f"matrix {key!r} has {part.size} entries, "
                         f"a {rows} x {cols} matrix needs {rows * cols}")
    if not np.isfinite(part).all():
        raise non_finite
    return part.reshape(rows, cols)


def element_from_json(alg: FiniteCStarAlgebra, obj: dict) -> AlgebraElement:
    return AlgebraElement(alg, [matrix_from_json(m) for m in obj["blocks"]])


def functional_from_json(alg: FiniteCStarAlgebra, obj: dict) -> LinearFunctional:
    return LinearFunctional(alg, [matrix_from_json(m) for m in obj["densities"]])


def superop_from_json(obj: dict, dom: tuple[int, ...], cod: tuple[int, ...]) -> Superoperator:
    return Superoperator(matrix_from_json(obj), dom, cod)
