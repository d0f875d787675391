import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_operands
from stencilrt.bboxset import SET_OPS, BBoxSet
from stencilrt.lattice import BBox, Point, Stride, UsageError, point, stride
from stencilrt.oracle import PointSet, oracle_from_bboxset

ONE2 = stride(1, 1)


def lshape():
    """The two-box L: a 4x2 base plus a 2x2 column, 12 points, notch at top right."""
    return BBoxSet.from_bboxes([
        BBox(point(0, 0), point(3, 1), ONE2),
        BBox(point(0, 2), point(1, 3), ONE2),
    ])


class TestDerivativeCounts:
    def test_lshape_six_leaves(self):
        assert lshape().derivative_element_count() == 6

    def test_3d_cuboid_eight_leaves(self):
        cub = BBoxSet.from_bboxes([BBox(point(1, 2, 3), point(7, 9, 4), stride(1, 1, 1))])
        assert cub.derivative_element_count() == 8

    def test_1d_interval_two_leaves(self):
        assert BBoxSet.from_bboxes([BBox(point(3), point(9), stride(1))]).derivative_element_count() == 2

    def test_sparsity_bound_for_disjoint_boxes(self, rng):
        for _ in range(30):
            dim = rng.choice([1, 2, 3])
            boxes_r, _, steps = make_operands(rng, dim)
            disjoint = BBoxSet.from_bboxes(boxes_r, dim=dim, stride=steps).to_bboxes()
            r = BBoxSet.from_bboxes(disjoint, dim=dim, stride=steps)
            assert r.derivative_element_count() <= (2 ** dim) * max(1, len(disjoint))


class TestFromBoxes:
    def test_empty_list(self):
        assert BBoxSet.from_bboxes([], dim=2).is_empty()

    def test_lshape_point_count(self):
        assert lshape().point_count() == 12

    def test_overlapping_inputs_unioned(self):
        r = BBoxSet.from_bboxes([
            BBox(point(0, 0), point(3, 3), ONE2),
            BBox(point(2, 2), point(5, 5), ONE2),
        ])
        assert r.point_count() == 16 + 16 - 4

    def test_random_union_matches_oracle(self, rng):
        for _ in range(40):
            dim = rng.choice([1, 2, 3])
            boxes_r, _, steps = make_operands(rng, dim, max_boxes=20)
            r = BBoxSet.from_bboxes(boxes_r, dim=dim, stride=steps)
            a = PointSet.from_bboxes(boxes_r, dim=dim, stride=steps)
            assert oracle_from_bboxset(r).points == a.points

    def test_mixed_stride_rejected(self):
        with pytest.raises(UsageError):
            BBoxSet.from_bboxes([
                BBox(point(0), point(4), stride(2)),
                BBox(point(0), point(4), stride(1)),
            ])

    def test_mixed_sublattice_rejected(self):
        with pytest.raises(UsageError):
            BBoxSet.from_bboxes([
                BBox(point(0), point(4), stride(2)),
                BBox(point(1), point(5), stride(2)),
            ])


class TestApplyBinary:
    def test_1d_union_merges(self):
        r = BBoxSet.from_bboxes([BBox(point(0), point(3), stride(1))])
        s = BBoxSet.from_bboxes([BBox(point(2), point(5), stride(1))])
        assert [b for b in r.union(s).to_bboxes()] == [BBox(point(0), point(5), stride(1))]

    def test_all_ops_match_oracle(self, rng):
        for _ in range(60):
            dim = rng.choice([1, 2, 3])
            boxes_r, boxes_s, steps = make_operands(rng, dim)
            r = BBoxSet.from_bboxes(boxes_r, dim=dim, stride=steps)
            s = BBoxSet.from_bboxes(boxes_s, dim=dim, stride=steps)
            a = PointSet.from_bboxes(boxes_r, dim=dim, stride=steps)
            b = PointSet.from_bboxes(boxes_s, dim=dim, stride=steps)
            for op in SET_OPS:
                assert oracle_from_bboxset(r.apply(op, s)).points == a.op(op, b).points

    def test_incompatible_rejected(self):
        r = BBoxSet.from_bboxes([BBox(point(0), point(4), stride(2))])
        s = BBoxSet.from_bboxes([BBox(point(0), point(4), stride(1))])
        with pytest.raises(UsageError):
            r.union(s)

    def test_unknown_op_rejected(self):
        r = BBoxSet.empty(1)
        with pytest.raises(UsageError):
            r.apply("nand", r)


class TestSymmetricDifference:
    def test_self_inverse(self):
        r = lshape()
        assert r.symmetric_difference(r).is_empty()

    def test_identity_element(self):
        r = lshape()
        assert (r ^ BBoxSet.empty(2)).equals(r)
        assert (BBoxSet.empty(2) ^ r).equals(r)

    def test_fast_path_equals_sweep_and_oracle(self, rng):
        for _ in range(60):
            dim = rng.choice([1, 2, 3])
            boxes_r, boxes_s, steps = make_operands(rng, dim)
            r = BBoxSet.from_bboxes(boxes_r, dim=dim, stride=steps)
            s = BBoxSet.from_bboxes(boxes_s, dim=dim, stride=steps)
            fast = r.symmetric_difference(s)
            sweep = r.apply("xor", s)
            assert fast == sweep
            a = PointSet.from_bboxes(boxes_r, dim=dim, stride=steps)
            b = PointSet.from_bboxes(boxes_s, dim=dim, stride=steps)
            assert oracle_from_bboxset(fast).points == a.symmetric_difference(b).points


class TestShift:
    def test_zero_identity(self):
        r = lshape()
        assert r.shift(Point.zero(2)).equals(r)

    def test_inverse(self):
        r = lshape()
        v = point(5, -3)
        assert r.shift(v).shift(-v).equals(r)

    def test_lshape_translate_matches_oracle(self):
        r = lshape()
        moved = r.shift(point(1, 1))
        want = {(x + 1, y + 1) for (x, y) in oracle_from_bboxset(r).points}
        assert oracle_from_bboxset(moved).points == want


def _box_route_expand(r, lo, hi):
    """Reference expand: grow each normalized box and rebuild from the union."""
    return BBoxSet.from_bboxes([b.expand(lo, hi) for b in r.to_bboxes()], dim=r.dim, stride=r.stride)


def _random_set(rng, dim, steps):
    """Up to five boxes on a random anchor of the lattice, corners possibly negative."""
    anchor = tuple(rng.randrange(s) for s in steps)
    boxes = []
    for _ in range(rng.randint(0, 5)):
        lo = tuple(a + s * rng.randint(-4, 3) for a, s in zip(anchor, steps))
        up = tuple(l + s * rng.randint(0, 4) for l, s in zip(lo, steps))
        boxes.append(BBox(Point(lo), Point(up), Stride(steps)))
    return BBoxSet.from_bboxes(boxes, dim=dim, stride=Stride(steps))


class TestExpand:
    def test_zero_identity(self, rng):
        """No growth returns the input's very tree."""
        assert lshape().expand(Point.zero(2), Point.zero(2)) == lshape()
        for _ in range(50):
            dim = rng.randint(1, 4)
            r = _random_set(rng, dim, tuple(rng.randint(1, 3) for _ in range(dim)))
            assert r.expand(Point.zero(dim), Point.zero(dim)) == r

    def test_touching_spans_merge(self):
        r = BBoxSet.from_bboxes([BBox(point(0), point(0), stride(1)), BBox(point(3), point(3), stride(1))])
        assert r.expand(point(1), point(1)).to_bboxes() == [BBox(point(-1), point(4), stride(1))]

    def test_expand_matches_box_route(self, rng):
        """The window sweep gives the very tree the box route builds (trees are canonical)."""
        for k in range(320):
            dim = rng.randint(1, 4)
            steps = tuple(rng.randint(1, 3) for _ in range(dim))
            r = BBoxSet.empty(dim, Stride(steps)) if k % 40 == 0 else _random_set(rng, dim, steps)
            lo = Point(tuple(rng.randint(0, 3) for _ in range(dim)))
            hi = Point(tuple(rng.randint(0, 3) for _ in range(dim)))
            got, want = r.expand(lo, hi), _box_route_expand(r, lo, hi)
            assert (got.root, got.stride, got.offset) == (want.root, want.stride, want.offset)

    def test_stays_on_the_tree(self, monkeypatch):
        r = lshape()
        want = _box_route_expand(r, point(1, 2), point(3, 0))

        def no_boxes(*args, **kwargs):
            raise AssertionError("expand left the derivative tree")

        monkeypatch.setattr(BBoxSet, "to_bboxes", no_boxes)
        monkeypatch.setattr(BBoxSet, "from_bboxes", no_boxes)
        assert r.expand(point(1, 2), point(3, 0)) == want

    def test_single_box_reduction(self):
        b = BBox(point(2, 4), point(6, 8), stride(2, 2))
        r = BBoxSet.from_bboxes([b])
        got = r.expand(point(1, 0), point(0, 2))
        assert got.to_bboxes() == [b.expand(point(1, 0), point(0, 2))]

    def test_lshape_dilation_matches_oracle(self):
        r = lshape()
        lo = hi = point(1, 1)
        got = oracle_from_bboxset(r.expand(lo, hi))
        want = oracle_from_bboxset(r).expand(lo, hi)
        assert got.points == want.points

    def test_negative_rejected(self):
        with pytest.raises(UsageError):
            lshape().expand(point(-1, 0), point(0, 0))


def _box_route_coarsen(r, factor):
    """Reference coarsen: round each normalized box's corners inward onto the
    coarse lattice and rebuild from the boxes that stay non-empty."""
    new_stride = Stride(tuple(s * f for s, f in zip(r.stride.steps, factor.steps)))
    kept = []
    for b in r.to_bboxes():
        trio = zip(b.lower.coords, b.upper.coords, r.offset.coords, new_stride.steps)
        corners = [(l + (o - l) % ns, u - (u - o) % ns) for l, u, o, ns in trio]
        if all(l <= u for l, u in corners):
            kept.append(BBox(Point(tuple(l for l, _ in corners)), Point(tuple(u for _, u in corners)), new_stride))
    return BBoxSet.from_bboxes(kept, dim=r.dim, stride=new_stride)


class TestCoarsenRefine:
    def test_coarsen_example(self):
        r = BBoxSet.from_bboxes([BBox(point(0), point(4), stride(1))])
        c = r.coarsen(stride(2))
        assert c.stride == stride(2)
        assert c.point_count() == 3
        assert c.to_bboxes() == [BBox(point(0), point(4), stride(2))]

    def test_refine_keeps_membership(self):
        c = BBoxSet.from_bboxes([BBox(point(0), point(4), stride(2))])
        fine = c.refine(stride(2))
        assert fine.stride == stride(1)
        assert oracle_from_bboxset(fine).points == oracle_from_bboxset(c).points

    def test_roundtrip(self, rng):
        for _ in range(30):
            dim = rng.choice([1, 2])
            boxes_r, _, steps = make_operands(rng, dim, steps=(2,) * dim)
            r = BBoxSet.from_bboxes(boxes_r, dim=dim, stride=steps)
            f = Stride((2,) * dim)
            assert r.refine(f).coarsen(f) == r

    def test_coarsen_matches_oracle_filter(self, rng):
        for _ in range(30):
            dim = rng.choice([1, 2, 3])
            boxes_r, _, steps = make_operands(rng, dim)
            r = BBoxSet.from_bboxes(boxes_r, dim=dim, stride=steps)
            a = PointSet.from_bboxes(boxes_r, dim=dim, stride=steps)
            f = Stride(tuple(rng.choice((1, 2, 3)) for _ in range(dim)))
            assert oracle_from_bboxset(r.coarsen(f)).points == a.coarsen(f).points

    def test_coarsen_matches_box_route(self, rng):
        """The tree pass gives the very tree the box route builds (trees are canonical)."""
        for _ in range(320):
            dim = rng.randint(1, 4)
            steps = tuple(rng.randint(1, 3) for _ in range(dim))
            r = _random_set(rng, dim, steps)
            f = Stride(tuple(rng.randint(1, 3) for _ in range(dim)))
            got, want = r.coarsen(f), _box_route_coarsen(r, f)
            assert (got.root, got.stride, got.offset) == (want.root, want.stride, want.offset)
            # refine, which also walks runs, must keep its trees canonical too
            fr = r.refine(Stride(steps))
            assert BBoxSet.from_bboxes(fr.to_bboxes(), dim=dim, stride=fr.stride).root == fr.root

    def test_coarsen_merges_colliding_toggles(self):
        lone = BBoxSet.from_bboxes([BBox(point(1), point(1), stride(1))])
        assert lone.coarsen(stride(2)).is_empty()
        pair = BBoxSet.from_bboxes([BBox(point(0), point(0), stride(1)), BBox(point(2), point(2), stride(1))])
        assert pair.coarsen(stride(2)).to_bboxes() == [BBox(point(0), point(2), stride(2))]

    def test_bad_factor_rejected(self):
        r = BBoxSet.from_bboxes([BBox(point(0), point(4), stride(1))])
        with pytest.raises(UsageError):
            r.coarsen(Stride((0,)))
        with pytest.raises(UsageError):
            r.refine(stride(2))  # stride 1 not divisible by 2


class TestToBoxes:
    def test_empty(self):
        assert BBoxSet.empty(3).to_bboxes() == []

    def test_lshape_two_disjoint_boxes(self):
        boxes = lshape().to_bboxes()
        assert len(boxes) == 2
        assert sum(b.point_count() for b in boxes) == 12
        assert boxes[0].intersect(boxes[1]).is_empty

    def test_membership_roundtrip(self, rng):
        for _ in range(40):
            dim = rng.choice([1, 2, 3])
            boxes_r, _, steps = make_operands(rng, dim)
            r = BBoxSet.from_bboxes(boxes_r, dim=dim, stride=steps)
            again = BBoxSet.from_bboxes(r.to_bboxes(), dim=dim, stride=steps)
            assert again == r

    def test_canonical_across_construction_orders(self, rng):
        for _ in range(20):
            dim = rng.choice([1, 2, 3])
            boxes_r, _, steps = make_operands(rng, dim, max_boxes=6)
            ref = BBoxSet.from_bboxes(boxes_r, dim=dim, stride=steps)
            shuffled = boxes_r[:]
            rng.shuffle(shuffled)
            incremental = BBoxSet.empty(dim, steps)
            for b in shuffled:
                incremental = incremental.union(BBoxSet.from_bboxes([b]))
            assert incremental == ref
            assert incremental.to_bboxes() == ref.to_bboxes()


class TestContains:
    def test_lshape_geometry(self):
        r = lshape()
        assert r.contains(point(0, 0))
        assert not r.contains(point(3, 3))  # the notch

    def test_exhaustive_against_oracle(self, rng):
        for _ in range(15):
            dim = rng.choice([1, 2])
            boxes_r, _, steps = make_operands(rng, dim, hull_extent=10)
            r = BBoxSet.from_bboxes(boxes_r, dim=dim, stride=steps)
            a = PointSet.from_bboxes(boxes_r, dim=dim, stride=steps)
            for coords in _hull_points(dim, 12):
                assert r.contains(Point(coords)) == a.contains(Point(coords))


def _hull_points(dim, extent):
    import itertools

    return itertools.product(range(-1, extent), repeat=dim)


class TestQueries:
    def test_point_count_empty(self):
        assert BBoxSet.empty(2).point_count() == 0

    def test_equals_reflexive(self):
        r = lshape()
        assert r.equals(r)

    def test_is_empty(self):
        assert BBoxSet.empty(1).is_empty()
        assert not lshape().is_empty()


class TestAlgebraicLaws:
    def test_laws_on_random_triples(self, rng):
        hull = BBox(point(0, 0), point(15, 15), ONE2)
        for _ in range(25):
            boxes_r, boxes_s, _ = make_operands(rng, 2, steps=(1, 1))
            boxes_t, _, _ = make_operands(rng, 2, steps=(1, 1))
            r = BBoxSet.from_bboxes(boxes_r, dim=2, stride=ONE2)
            s = BBoxSet.from_bboxes(boxes_s, dim=2, stride=ONE2)
            t = BBoxSet.from_bboxes(boxes_t, dim=2, stride=ONE2)
            assert r.union(s) == s.union(r)
            assert r.intersection(s) == s.intersection(r)
            assert r.union(s).union(t) == r.union(s.union(t))
            assert r.intersection(s).intersection(t) == r.intersection(s.intersection(t))
            assert r.intersection(s.union(t)) == r.intersection(s).union(r.intersection(t))
            assert r.union(s.intersection(t)) == r.union(s).intersection(r.union(t))
            # difference via complement, De Morgan -- all within the hull
            rh = r.intersection(BBoxSet.from_bboxes([hull]))
            sh = s.intersection(BBoxSet.from_bboxes([hull]))
            assert rh.difference(sh) == rh.intersection(sh.complement_within(hull))
            assert rh.union(sh).complement_within(hull) == \
                rh.complement_within(hull).intersection(sh.complement_within(hull))
            assert rh.intersection(sh).complement_within(hull) == \
                rh.complement_within(hull).union(sh.complement_within(hull))


class TestSerialization:
    def test_text_roundtrip(self, rng):
        for _ in range(20):
            dim = rng.choice([1, 2, 3])
            boxes_r, _, steps = make_operands(rng, dim)
            r = BBoxSet.from_bboxes(boxes_r, dim=dim, stride=steps)
            assert BBoxSet.from_text(r.to_text(), dim=dim, stride=steps) == r

    def test_empty_text(self):
        assert BBoxSet.empty(2).to_text() == ""
        assert BBoxSet.from_text("", dim=2).is_empty()


sets_strategy = st.builds(
    lambda seeds: [
        BBox(Point((min(a, b), min(c, d))), Point((max(a, b), max(c, d))), Stride((1, 1)))
        for a, b, c, d in seeds
    ],
    st.lists(st.tuples(*[st.integers(0, 10)] * 4), min_size=0, max_size=6),
)


@given(sets_strategy, sets_strategy)
@settings(max_examples=60, deadline=None)
def test_union_membership_property(boxes_r, boxes_s):
    r = BBoxSet.from_bboxes(boxes_r, dim=2, stride=Stride((1, 1)))
    s = BBoxSet.from_bboxes(boxes_s, dim=2, stride=Stride((1, 1)))
    u = r.union(s)
    a = PointSet.from_bboxes(boxes_r, dim=2, stride=Stride((1, 1)))
    b = PointSet.from_bboxes(boxes_s, dim=2, stride=Stride((1, 1)))
    assert oracle_from_bboxset(u).points == (a.points | b.points)


@given(sets_strategy)
@settings(max_examples=60, deadline=None)
def test_normalization_disjoint_and_exact(boxes):
    r = BBoxSet.from_bboxes(boxes, dim=2, stride=Stride((1, 1)))
    norm = r.to_bboxes()
    for i in range(len(norm)):
        for j in range(i + 1, len(norm)):
            assert norm[i].intersect(norm[j]).is_empty
    assert PointSet.from_bboxes(norm, dim=2, stride=Stride((1, 1))).points == \
        PointSet.from_bboxes(boxes, dim=2, stride=Stride((1, 1))).points
    assert r.point_count() == sum(b.point_count() for b in norm)
