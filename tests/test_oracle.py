import itertools

import pytest

from stencilrt.bboxset import BBoxSet
from stencilrt.lattice import SET_OPS, BBox, Point, ResourceError, Stride, UsageError, point, stride
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

    @pytest.mark.parametrize("name", SET_OPS)
    def test_op_runs_every_set_op(self, name):
        expected = {"union": {1, 2, 3, 4}, "intersection": {2, 3}, "difference": {1}, "xor": {1, 4}}
        assert pset(1, 2, 3).op(name, pset(2, 3, 4)).points == {(c,) for c in expected[name]}


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


_B11 = BBox(point(0, 0), point(2, 2), stride(1, 1))
_B21 = BBox(point(0, 0), point(4, 2), stride(2, 1))


@pytest.mark.parametrize("boxes, kwargs, message", [
    ([_B11], dict(dim=3), "dimension mismatch"),
    ([_B11], dict(stride=stride(2, 1)), "stride mismatch"),
    ([_B11, BBox(point(0), point(2), stride(1))], {}, "mixed dimension"),
    ([_B11, _B21], {}, "mixed stride"),                                   # would hold odd points
    ([_B21, BBox(point(1, 0), point(5, 2), stride(2, 1))], {}, "different sub-lattices"),
    ([], dict(dim=2, stride=stride(1, 1, 1)), "stride dimension"),
])
def test_from_bboxes_rejects_what_the_tree_rejects(boxes, kwargs, message):
    """The oracle's entry check raises the tree's UsageError, word for word."""
    with pytest.raises(UsageError, match=message) as tree_err:
        BBoxSet.from_bboxes(boxes, **kwargs)
    with pytest.raises(UsageError, match=message) as oracle_err:
        PointSet.from_bboxes(boxes, **kwargs)
    assert str(oracle_err.value) == str(tree_err.value)


def _same_error(tree_call, oracle_call):
    with pytest.raises(UsageError) as tree_err:
        tree_call()
    with pytest.raises(UsageError) as oracle_err:
        oracle_call()
    assert str(oracle_err.value) == str(tree_err.value)


_BAD_ARGUMENTS = {
    "shift": lambda s: s.shift(point(1)),
    "expand-lo": lambda s: s.expand(point(1), point(1, 1)),
    "expand-hi": lambda s: s.expand(point(1, 1), point(1, 1, 1)),
    "expand-negative": lambda s: s.expand(point(0, -1), point(1, 1)),
    "coarsen": lambda s: s.coarsen(stride(2)),
    "refine": lambda s: s.refine(stride(1)),
    "refine-not-dividing": lambda s: s.refine(stride(3, 1)),
    "contains": lambda s: s.contains(point(1)),
}


@pytest.mark.parametrize("empty", [False, True])
@pytest.mark.parametrize("name", sorted(_BAD_ARGUMENTS))
def test_arguments_rejected_as_the_tree_rejects(name, empty):
    """Every bad argument of a 2-D set on stride (2, 1), full or empty, gives
    the tree's UsageError, word for word."""
    boxes = [] if empty else [_B21]
    tree = BBoxSet.from_bboxes(boxes, dim=2, stride=stride(2, 1))
    orc = PointSet.from_bboxes(boxes, dim=2, stride=stride(2, 1))
    call = _BAD_ARGUMENTS[name]
    _same_error(lambda: call(tree), lambda: call(orc))


@pytest.mark.parametrize("op", ["union", "intersection", "difference", "xor", "nand"])
@pytest.mark.parametrize("other", [
    [BBox(point(0), point(2), stride(2))],                     # dimension
    [_B11],                                                    # stride
    [BBox(point(1, 0), point(5, 2), stride(2, 1))],           # anchor
], ids=["dimension", "stride", "anchor"])
@pytest.mark.parametrize("swap", [False, True])
def test_operands_rejected_as_the_tree_rejects(op, other, swap):
    """Mismatched operands of every binary op, either way round, give the
    tree's UsageError, word for word."""
    r, s = BBoxSet.from_bboxes([_B21]), BBoxSet.from_bboxes(other)
    a, b = PointSet.from_bboxes([_B21]), PointSet.from_bboxes(other)
    if swap:
        r, s, a, b = s, r, b, a
    _same_error(lambda: r.apply(op, s), lambda: a.op(op, b))


def test_empty_rejected_as_the_tree_rejects():
    _same_error(lambda: BBoxSet.empty(2, stride(1, 1, 1)), lambda: PointSet.empty(2, stride(1, 1, 1)))


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
