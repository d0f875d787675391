import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stencilrt.lattice import (
    BBox,
    GridGeometry,
    Point,
    Stride,
    UsageError,
    format_bbox,
    parse_bbox,
    point,
    stride,
    to_physical,
)
from stencilrt.oracle import PointSet


def box(lo, up, st=None):
    lo = lo if isinstance(lo, tuple) else (lo,)
    up = up if isinstance(up, tuple) else (up,)
    st = st or (1,) * len(lo)
    return BBox(Point(lo), Point(up), Stride(st))


class TestContains:
    def test_stride_aligned_interior(self):
        assert box(0, 4, (2,)).contains(point(2))

    def test_off_stride(self):
        assert not box(0, 4, (2,)).contains(point(1))

    def test_inclusive_upper_corner(self):
        assert box((0, 0), (3, 1)).contains(point(3, 1))

    def test_outside(self):
        assert not box((0, 0), (3, 1)).contains(point(4, 0))

    def test_empty_contains_nothing(self):
        assert not BBox.empty(2).contains(point(0, 0))

    def test_dim_mismatch(self):
        with pytest.raises(UsageError):
            box(0, 4).contains(point(0, 0))


class TestIntersect:
    def test_corner_overlap(self):
        assert box((0, 0), (3, 3)).intersect(box((2, 2), (5, 5))) == box((2, 2), (3, 3))

    def test_disjoint(self):
        assert box(0, 1).intersect(box(4, 5)).is_empty

    def test_mixed_stride_rejected(self):
        with pytest.raises(UsageError):
            box(0, 4, (2,)).intersect(box(0, 4, (1,)))

    def test_different_sublattice_rejected(self):
        with pytest.raises(UsageError):
            box(0, 4, (2,)).intersect(box(1, 5, (2,)))

    def test_empty_operand(self):
        assert box(0, 4).intersect(BBox.empty(1)).is_empty


class TestShiftExpand:
    def test_shift(self):
        assert box(0, 3).shift(point(2)) == box(2, 5)

    def test_shift_zero_identity(self):
        b = box((1, 2), (5, 6))
        assert b.shift(Point.zero(2)) == b

    def test_shift_inverse(self):
        b = box((1, 2), (5, 6))
        v = point(3, -4)
        assert b.shift(v).shift(-v) == b

    def test_expand(self):
        assert box(2, 5).expand(point(1), point(1)) == box(1, 6)

    def test_expand_identity(self):
        assert box(2, 5).expand(point(0), point(0)) == box(2, 5)

    def test_overshrink_empty(self):
        assert box(2, 3).expand(point(-2), point(0)).is_empty

    def test_expand_strided(self):
        assert box(0, 4, (2,)).expand(point(1), point(1)) == box(-2, 6, (2,))


class TestCounts:
    def test_rectangle(self):
        assert box((0, 0), (3, 1)).point_count() == 8

    def test_empty(self):
        assert BBox.empty(3).point_count() == 0

    def test_strided(self):
        assert box(0, 4, (2,)).point_count() == 3


class TestPhysical:
    def test_direct(self):
        g = GridGeometry((0.0, 0.0), (0.5, 0.5))
        assert to_physical(g, point(2, 4)) == (1.0, 2.0)

    def test_origin(self):
        g = GridGeometry((3.0, -1.0), (0.25, 2.0))
        assert to_physical(g, Point.zero(2)) == (3.0, -1.0)

    def test_1d(self):
        assert to_physical(GridGeometry((-1.0,), (0.25,)), point(4)) == (0.0,)

    def test_nonpositive_spacing_rejected(self):
        with pytest.raises(UsageError):
            GridGeometry((0.0,), (0.0,))


class TestValidation:
    def test_off_lattice_upper_rejected(self):
        with pytest.raises(UsageError):
            box(0, 3, (2,))

    def test_inverted_normalizes_to_empty(self):
        assert box(5, 3).is_empty

    def test_empty_is_canonical(self):
        assert box(5, 3) == BBox.empty(1) == box(7, 2)

    def test_dim_bounds(self):
        with pytest.raises(UsageError):
            Point(())
        with pytest.raises(UsageError):
            Point((0,) * 5)

    def test_unit_axis_in_range(self):
        assert [Point.unit(3, a).coords for a in range(3)] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        for axis in (3, 5, -1):
            with pytest.raises(UsageError, match="axis"):
                Point.unit(3, axis)

    def test_stride_positive(self):
        with pytest.raises(UsageError):
            stride(0)


class TestSerialization:
    def test_format(self):
        assert format_bbox(box((0, 0), (3, 1))) == "([0:3:1],[0:1:1])"
        assert format_bbox(BBox.empty(2)) == "(empty/2)"

    def test_roundtrip(self):
        for b in (box((0, -2), (6, 4), (2, 2)), BBox.empty(3), box(5, 5)):
            assert parse_bbox(format_bbox(b)) == b

    def test_malformed(self):
        for text in ("[0:1:1]", "(0:1:1)", "([0:1])", "(empty)"):
            with pytest.raises(UsageError):
                parse_bbox(text)

    @pytest.mark.parametrize("text", ["([a:1:1])", "([0:1:1],[0:b:1])", "(empty/x)", "(empty/)"])
    def test_non_integer_field(self, text):
        with pytest.raises(UsageError, match="malformed bbox text"):
            parse_bbox(text)


coords = st.integers(min_value=-8, max_value=8)


@st.composite
def boxes_on_lattice(draw, dim=None, n=1):
    d = dim if dim is not None else draw(st.integers(1, 3))
    steps = tuple(draw(st.sampled_from((1, 2))) for _ in range(d))
    out = []
    for _ in range(n):
        lo, up = [], []
        for s in steps:
            a = draw(st.integers(0, 4)) * s
            b = draw(st.integers(0, 4)) * s
            lo.append(min(a, b))
            up.append(max(a, b))
        out.append(BBox(Point(tuple(lo)), Point(tuple(up)), Stride(steps)))
    return out if n > 1 else out[0]


@given(boxes_on_lattice(), st.lists(coords, min_size=3, max_size=3), st.lists(coords, min_size=3, max_size=3))
@settings(max_examples=80)
def test_shift_group_action(b, u, v):
    u = Point(tuple(u[: b.dim]))
    v = Point(tuple(v[: b.dim]))
    assert b.shift(u).shift(v) == b.shift(u + v)
    assert b.shift(Point.zero(b.dim)) == b


@given(boxes_on_lattice(n=3))
@settings(max_examples=80)
def test_intersect_laws_against_oracle(bs):
    b1, b2, b3 = bs
    assert b1.intersect(b2) == b2.intersect(b1)
    assert b1.intersect(b1) == b1
    assert b1.intersect(b2).intersect(b3) == b1.intersect(b2.intersect(b3))
    got = b1.intersect(b2)
    want = {p for p in pts(b1)} & {p for p in pts(b2)}
    assert {p for p in pts(got)} == want


def pts(b):
    return {p.coords for p in b.points()}


@given(boxes_on_lattice())
@settings(max_examples=60)
def test_point_count_matches_enumeration(b):
    assert b.point_count() == len(pts(b))
    assert b.point_count() == PointSet.from_bboxes([b]).point_count()


@given(boxes_on_lattice(), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=60)
def test_expand_roundtrip(b, lo, hi):
    low = Point((lo,) * b.dim)
    high = Point((hi,) * b.dim)
    grown = b.expand(low, high)
    assert grown.expand(-low, -high) == b
