import itertools

import pytest

from stencilrt.bboxset import BBoxSet
from stencilrt.lattice import BBox, Point, ResourceError, Stride, point, stride
from stencilrt.oracle import PointSet, oracle_from_bboxset, oracle_to_bboxset


def pset(*coords):
    return PointSet(1, Stride((1,)), Point((0,)), frozenset((c,) for c in coords))


class TestSetSemantics:
    def test_union(self):
        assert pset(1, 2).union(pset(2, 3)).points == {(1,), (2,), (3,)}

    def test_xor_self_empty(self):
        a = pset(1, 2, 5)
        assert a.symmetric_difference(a).is_empty()

    def test_difference_identity(self):
        a = pset(4, 7)
        assert a.difference(PointSet.empty(1)).points == a.points

    def test_intersection(self):
        assert pset(1, 2, 3).intersection(pset(2, 3, 4)).points == {(2,), (3,)}


class TestConversions:
    def test_lshape_12_points(self):
        boxes = [
            BBox(point(0, 0), point(3, 1), stride(1, 1)),
            BBox(point(0, 2), point(1, 3), stride(1, 1)),
        ]
        assert PointSet.from_bboxes(boxes).point_count() == 12

    def test_roundtrip_preserves_equals(self):
        boxes = [
            BBox(point(0, 0), point(3, 1), stride(1, 1)),
            BBox(point(2, 1), point(5, 4), stride(1, 1)),
        ]
        r = BBoxSet.from_bboxes(boxes)
        back = oracle_to_bboxset(oracle_from_bboxset(r))
        assert back.equals(r)

    def test_empty_roundtrip(self):
        r = BBoxSet.empty(2)
        a = oracle_from_bboxset(r)
        assert a.is_empty()
        assert oracle_to_bboxset(a).is_empty()

    def test_point_cap(self):
        big = BBox(point(0, 0, 0), point(199, 199, 199), stride(1, 1, 1))
        with pytest.raises(ResourceError):
            PointSet.from_bboxes([big], cap=10**6)


def test_op_equivalence_randomized(rng):
    from helpers import make_operands

    for _ in range(60):
        dim = rng.choice([1, 2, 3])
        boxes_r, boxes_s, st = make_operands(rng, dim)
        r = BBoxSet.from_bboxes(boxes_r, dim=dim, stride=st)
        s = BBoxSet.from_bboxes(boxes_s, dim=dim, stride=st)
        a = PointSet.from_bboxes(boxes_r, dim=dim, stride=st)
        b = PointSet.from_bboxes(boxes_s, dim=dim, stride=st)
        for op in ("union", "intersection", "difference", "xor"):
            assert oracle_from_bboxset(r.apply(op, s)).points == a.op(op, b).points


def test_oracle_derivative_matches_tree_leaves(rng):
    """Numerical derivative on the point set (xor with the one-step-right
    translate, folded over every dimension) equals the stored tree leaves."""
    from helpers import make_operands

    for _ in range(40):
        dim = rng.choice([1, 2, 3])
        boxes_r, _, st = make_operands(rng, dim, hull_extent=10, max_boxes=5)
        r = BBoxSet.from_bboxes(boxes_r, dim=dim, stride=st)
        d = oracle_from_bboxset(r)
        for axis in range(dim):
            e = Point(tuple(st.steps[axis] if i == axis else 0 for i in range(dim)))
            d = d.symmetric_difference(d.shift(e))
        leaves = {p.coords for p in r.derivative_points()}
        assert d.points == leaves
        assert len(leaves) == r.derivative_element_count()


def _product_expand(a, lo, hi):
    """Reference dilation: every point plus every offset of the full product."""
    deltas = list(itertools.product(*[
        range(-l * s, h * s + 1, s) for l, h, s in zip(lo.coords, hi.coords, a.stride.steps)
    ]))
    return {tuple(x + d for x, d in zip(p, delta)) for p in a.points for delta in deltas}


def test_separable_expand_matches_product(rng):
    from helpers import make_operands

    for _ in range(200):
        dim = rng.randint(1, 4)
        steps = tuple(rng.randint(1, 3) for _ in range(dim))
        boxes, _, st = make_operands(rng, dim, hull_extent=8, max_boxes=4, steps=steps)
        a = PointSet.from_bboxes(boxes, dim=dim, stride=st)
        lo = Point(tuple(rng.randint(0, 2) for _ in range(dim)))
        hi = Point(tuple(rng.randint(0, 2) for _ in range(dim)))
        assert a.expand(lo, hi).points == _product_expand(a, lo, hi)


def test_expand_budgets():
    a = PointSet.from_bboxes([BBox(point(0, 0), point(9, 9), stride(1, 1))])
    with pytest.raises(ResourceError, match="dilation budget"):
        a.expand(point(2, 2), point(2, 2), cap=100)  # 100 points x 25 offsets > 4 x 100
    with pytest.raises(ResourceError, match="point budget"):
        a.expand(point(1, 0), point(0, 0), cap=100)  # 110 points, within the dilation budget
