import copy
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cstar_systems.systems import (
    Grid,
    OffGridError,
    enumerate_all_partitions,
    enumerate_partitions,
)
from cstar_systems.timegrid import (
    EndpointMismatchError,
    NotARefinementError,
    Partition,
    TimePoint,
    as_timepoint,
    common_refinement,
    format_timepoint,
    inner_decompose,
    is_refinement,
    outer_decompose,
    refinement_chains,
    refinement_pairs,
)


def P(*pts):
    return Partition(pts)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition([1])
    with pytest.raises(ValueError):
        Partition([2, 1])
    with pytest.raises(ValueError):
        Partition([1, 1])
    with pytest.raises(ValueError):
        Partition([0, 1])
    with pytest.raises(TypeError):
        Partition([0.5, 1.5])


def test_rational_points_exact():
    p = Partition(["1/3", "2/3", 1])
    assert p.points == (F(1, 3), F(2, 3), F(1))
    assert format_timepoint(F(1, 3)) == "1/3"
    assert format_timepoint(F(4, 2)) == "2"


@pytest.mark.parametrize("coarse, fine, expected", [
    (P(1, 2), P(1, F(3, 2), 2), True),
    (P(1, 2), P(1, 2), True),
    (P(1, 2), P(1, 3), False),
])
def test_is_refinement(coarse, fine, expected):
    assert is_refinement(coarse, fine) is expected


@pytest.mark.parametrize("coarse, fine, blocks", [
    (P(1, 3), P(1, 2, 3), [P(1, 2, 3)]),
    (P(1, 2, 3), P(1, F(3, 2), 2, 3), [P(1, F(3, 2), 2), P(2, 3)]),
    (P(1, 2), P(1, 2), [P(1, 2)]),
])
def test_inner_decompose(coarse, fine, blocks):
    assert inner_decompose(coarse, fine) == blocks


def test_inner_decompose_errors():
    with pytest.raises(EndpointMismatchError):
        inner_decompose(P(1, 2), P(1, 2, 3))
    with pytest.raises(NotARefinementError):
        inner_decompose(P(1, F(3, 2), 3), P(1, 2, 3))


def test_outer_decompose():
    dec = outer_decompose(P(2, 3), P(1, 2, 3, 4))
    assert dec.lower == P(1, 2) and dec.middle == P(2, 3) and dec.upper == P(3, 4)

    dec = outer_decompose(P(1, 2), P(1, 2, 3))
    assert dec.lower is None and dec.middle == P(1, 2) and dec.upper == P(2, 3)

    dec = outer_decompose(P(1, 3), P(1, 2, 3))
    assert dec.lower is None and dec.middle == P(1, 2, 3) and dec.upper is None


@pytest.mark.parametrize("one, other, expected", [
    (P(1, 2), P(1, F(3, 2), 2), P(1, F(3, 2), 2)),
    (P(1, 2), P(2, 3), P(1, 2, 3)),
    (P(1, 4), P(2, 3), P(1, 2, 3, 4)),
])
def test_common_refinement(one, other, expected):
    assert common_refinement(one, other) == expected


points = st.lists(
    st.integers(min_value=1, max_value=6).map(F), min_size=2, max_size=6, unique=True,
).map(lambda pts: Partition(sorted(pts)))


@given(points, points)
def test_common_refinement_is_join(a, b):
    j = common_refinement(a, b)
    assert is_refinement(a, j) and is_refinement(b, j)
    assert set(j.points) == set(a.points) | set(b.points)


@given(points, points, points)
def test_common_refinement_semilattice_laws(a, b, c):
    assert common_refinement(a, b) == common_refinement(b, a)
    assert common_refinement(a, a) == a
    assert common_refinement(common_refinement(a, b), c) == \
        common_refinement(a, common_refinement(b, c))


@given(points, st.data())
def test_inner_decompose_concat_round_trip(fine, data):
    subset = data.draw(st.sets(st.sampled_from(fine.points)))
    coarse = Partition(sorted(subset | set(fine.endpoints)))
    blocks = inner_decompose(coarse, fine)
    merged = [blocks[0].points[0]]
    for block in blocks:
        merged.extend(block.points[1:])
    assert tuple(merged) == fine.points


def test_outer_decompose_merges_back():
    coarse, fine = P(2, 3), P(1, F(3, 2), 2, F(5, 2), 3, 4, 5)
    dec = outer_decompose(coarse, fine)
    pieces = [p for p in (dec.lower, dec.middle, dec.upper) if p is not None]
    merged = list(pieces[0].points)
    for piece in pieces[1:]:
        assert merged[-1] == piece.points[0]
        merged.extend(piece.points[1:])
    assert tuple(merged) == fine.points


@st.composite
def partition_lists(draw):
    """A sub-list, in random order, of one enumeration over a grid of 2-7 points."""
    pts = draw(st.lists(st.integers(1, 32).map(lambda n: F(n, 4)), min_size=2,
                        max_size=7, unique=True))
    grid = Grid(sorted(pts))
    if draw(st.booleans()):
        parts = enumerate_all_partitions(grid, draw(st.integers(2, len(pts))))
    else:
        s, t = sorted(draw(st.lists(st.sampled_from(grid.points), min_size=2, max_size=2,
                                    unique=True)))
        parts = enumerate_partitions(grid, s, t, draw(st.integers(0, len(pts))))
    return draw(st.lists(st.sampled_from(parts), unique=True, max_size=24))


@settings(deadline=None)  # the naive triple loop grows as the cube of the list
@given(partition_lists())
def test_refinement_helpers_match_naive_comprehensions(parts):
    pairs = [(i, j) for i in parts for j in parts
             if i != j and set(i.points) <= set(j.points)]
    chains = [(i, j, k) for i in parts for j in parts for k in parts
              if set(i.points) <= set(j.points) <= set(k.points) and i != j and j != k]
    assert refinement_pairs(parts) == pairs
    assert refinement_chains(parts) == chains


rationals = st.fractions(min_value=F(1, 64), max_value=64, max_denominator=64)


@given(rationals)
def test_time_points_are_interned(q):
    point = as_timepoint(q)
    assert type(point) is TimePoint and point == q
    assert as_timepoint(f"{q.numerator}/{q.denominator}") is point
    assert as_timepoint(F(q.numerator * 3, q.denominator * 3)) is point
    assert as_timepoint(point) is point
    if q.denominator == 1:
        assert as_timepoint(q.numerator) is point
        assert as_timepoint(str(q.numerator)) is point
    assert hash(point) == hash(F(q)) == hash(q)
    assert {F(q): "found"}[point] == "found" and {point: "found"}[F(q)] == "found"
    for copied in (copy.copy(point), copy.deepcopy(point), pickle.loads(pickle.dumps(point))):
        assert copied is point
        assert copied == q and hash(copied) == hash(F(q))


@given(rationals)
def test_time_points_carry_their_wire_string(q):
    # the string stored at interning is the formatting of the plain Fraction
    wire = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    inputs = [q, F(q.numerator * 2, q.denominator * 2), f"{q.numerator}/{q.denominator}"]
    if q.denominator == 1:
        inputs.append(q.numerator)
    for value in inputs:
        point = as_timepoint(value)
        assert point._wire == format_timepoint(point) == format_timepoint(F(q)) == wire
        for copied in (copy.copy(point), copy.deepcopy(point),
                       pickle.loads(pickle.dumps(point))):
            assert copied is point and format_timepoint(copied) == wire
    assert str(Partition([q, q + 1])) == "{" + wire + ", " + format_timepoint(q + 1) + "}"


@given(rationals, rationals)
def test_time_point_order_matches_fractions(a, b):
    pa, pb = as_timepoint(a), as_timepoint(b)
    for x, y in ((pa, pb), (pa, b), (a, pb)):
        assert (x < y, x <= y, x > y, x >= y, x == y) == (a < b, a <= b, a > b, a >= b, a == b)


@given(st.lists(rationals, min_size=2, max_size=6, unique=True), st.data())
def test_partitions_from_mixed_inputs_are_equal(values, data):
    values = sorted(values)
    mixed = [data.draw(st.sampled_from([v, f"{v.numerator}/{v.denominator}",
                                        as_timepoint(v)])) for v in values]
    a, b = Partition(values), Partition(mixed)
    assert a == b and hash(a) == hash(b)
    assert all(p is q for p, q in zip(a.points, b.points))
    assert {a: 1}[b] == 1
    for copied in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert copied == a and hash(copied) == hash(a)
    assert a != tuple(values) and a.points != a and Partition([1, 2]) != (1, 2)


@pytest.mark.parametrize("value, error", [
    (True, TypeError), (0.5, TypeError), ("1/0", ValueError), (0, ValueError),
    ("-1/2", ValueError),
])
def test_as_timepoint_rejects(value, error):
    with pytest.raises(error):
        as_timepoint(value)


def test_grid_membership_uses_values():
    grid = Grid([1, "3/2", 2])
    assert F(3, 2) in grid and 2 in grid and F(5, 4) not in grid
    grid.require(F(3, 2), 1, as_timepoint("2"))
    with pytest.raises(OffGridError):
        grid.require(F(5, 4))
