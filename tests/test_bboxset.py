import gc
import random
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (assert_canonical, make_operands, reference_apply, reference_apply_1d, staggered_slabs,
                     union_route)
from stencilrt.bboxset import SET_OPS, BBoxSet, _apply_1d, _runs
from stencilrt.fuzz import random_boxes
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

    def test_sweep_matches_pairwise_route(self, rng):
        """Tree for tree, on 1-4 dims and strides 1-3, with empty, duplicate,
        nested and touching boxes."""
        for _ in range(200):
            dim = rng.randint(1, 4)
            steps = tuple(rng.randint(1, 3) for _ in range(dim))
            base = random_boxes(rng, (12,) * dim, steps, rng.randint(0, 10))
            boxes = list(base)
            for b in base:
                kind = rng.randrange(4)
                if kind == 0:
                    boxes.append(b)
                elif kind == 1:
                    boxes.append(BBox(b.upper, b.upper, b.stride))
                elif kind == 2:
                    axis = rng.randrange(dim)
                    width = b.upper.coords[axis] - b.lower.coords[axis] + steps[axis]
                    boxes.append(b.shift(Point(tuple(width if a == axis else 0 for a in range(dim)))))
                else:
                    boxes.append(BBox.empty(dim))
            rng.shuffle(boxes)
            r = BBoxSet.from_bboxes(boxes, dim=dim, stride=Stride(steps))
            assert r.root == union_route(boxes, dim)
            assert_canonical(r.root, dim)

    def test_guarded_lists_match_pairwise_route(self):
        """Lists whose boxes stay active at most events, along the last axis or
        inside one slice, get the same tree from the pairwise fallback."""
        flat = [BBox(point(i, i), point(i, i + 50), ONE2) for i in range(50)]
        in_one_slice = [BBox(point(i, i, 0), point(i, i + 40, 0), Stride.ones(3)) for i in range(40)]
        stack = [BBox(point(0, 0, 3 * k), point(2, 2, 3 * k + 1), Stride.ones(3)) for k in range(200)]
        long = [BBox(point(10 + 2 * j, 0, 0), point(10 + 2 * j, 5, 600), Stride.ones(3)) for j in range(8)]
        for boxes in (staggered_slabs(3), staggered_slabs(90), flat, in_one_slice, stack + long):
            r = BBoxSet.from_bboxes(boxes)
            assert r.root == union_route(boxes, r.dim)
            assert_canonical(r.root, r.dim)

    def test_staggered_slabs_no_slower_than_pairwise_route(self):
        """Unguarded, the sweep would rebuild about 1,600 slices of up to 800
        slabs each, 5x the pairwise route's time; guarded, it runs that route
        after one pass over the bounds.  Best of 5 runs each, in alternating
        order and with the cyclic collector off, as timeit runs.  Past the
        guard both run the same unions, so the only allowance is for noise: the
        25% the benchmark allows an end-to-end metric."""
        boxes = staggered_slabs(800)
        times = {"sweep": [], "route": []}
        build = {"sweep": lambda: BBoxSet.from_bboxes(boxes).root, "route": lambda: union_route(boxes, 3)}
        trees = {}
        gc.disable()
        try:
            for k in range(5):
                for name in ("sweep", "route")[::1 if k % 2 else -1]:
                    t0 = time.perf_counter()
                    trees[name] = build[name]()
                    times[name].append(time.perf_counter() - t0)
        finally:
            gc.enable()
        assert trees["sweep"] == trees["route"]
        assert min(times["sweep"]) <= 1.25 * min(times["route"]), times

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


def _far_box(steps, anchor, distance):
    """A one-point box `distance` strides from the anchor along the last axis."""
    lo = anchor[:-1] + (anchor[-1] + distance * steps[-1],)
    return BBoxSet.from_bboxes([BBox(Point(lo), Point(lo), Stride(steps))])


class TestDeltaSweep:
    def test_1d_step_matches_reference(self, rng):
        """Every op on coordinate tuples that share bounds, nest and touch,
        against the parity-bit sweep; b's toggles land on a's run ends too."""
        for _ in range(2000):
            coords = sorted(rng.sample(range(30), rng.randrange(0, 16, 2)))
            a = tuple(coords)
            b = tuple(sorted(rng.sample(range(30), rng.randrange(0, 16, 2))))
            if rng.random() < 0.3 and a:
                b = tuple(sorted(set(b) ^ {a[0], a[-1]}))
                b = b[:len(b) // 2 * 2]
            for op in ("union", "intersection", "difference"):
                if a and b:
                    assert _apply_1d(op, a, b) == reference_apply_1d(op, a, b), (op, a, b)

    def test_matches_reference_sweep(self, rng):
        """Every op gives the very tree the full-slice sweep builds, including
        empty operands, an operand applied to itself and operands of which
        one runs out of toggles long before the other."""
        for k in range(480):
            dim = rng.randint(1, 4)
            steps = tuple(rng.randint(1, 3) for _ in range(dim))
            anchor = tuple(rng.randrange(s) for s in steps)
            r = _random_set(rng, dim, steps, anchor)
            s = _random_set(rng, dim, steps, anchor)
            case = k % 8
            if case == 0:
                r = BBoxSet.empty(dim, Stride(steps))
            elif case == 1:
                s = BBoxSet.empty(dim, Stride(steps))
            elif case == 2:
                s = r
            elif case == 3:
                s = s | _far_box(steps, anchor, 60)
            elif case == 4:
                r = r | _far_box(steps, anchor, -60)
            elif case == 5:
                s = s.shift(Point((0,) * (dim - 1) + (40 * steps[-1],)))
            for op in SET_OPS:
                want = reference_apply(op, r.root, s.root, dim)
                assert r.apply(op, s).root == want, (k, op)


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
            assert fast.root == reference_apply("xor", r.root, s.root, dim)
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


def _random_boxes(rng, steps, anchor, count):
    """count boxes on the anchor's sub-lattice, corners possibly negative."""
    boxes = []
    for _ in range(count):
        lo = tuple(a + s * rng.randint(-4, 3) for a, s in zip(anchor, steps))
        up = tuple(l + s * rng.randint(0, 4) for l, s in zip(lo, steps))
        boxes.append(BBox(Point(lo), Point(up), Stride(steps)))
    return boxes


def _random_set(rng, dim, steps, anchor=None):
    """Up to five boxes on a random (or the given) anchor of the lattice."""
    if anchor is None:
        anchor = tuple(rng.randrange(s) for s in steps)
    return BBoxSet.from_bboxes(_random_boxes(rng, steps, anchor, rng.randint(0, 5)), dim=dim, stride=Stride(steps))


def _close_slabs(rng):
    """One-layer slabs one stride apart along the last axis, with growth of at
    least four strides there, so that each grown run overlaps those two and
    more places away, not only its neighbours'."""
    dim = rng.randint(1, 4)
    steps = tuple(rng.randint(1, 3) for _ in range(dim))
    anchor = tuple(rng.randrange(s) for s in steps)
    boxes = []
    for j in range(rng.randint(3, 6)):
        z = anchor[-1] + 2 * j * steps[-1]
        for _ in range(rng.randint(1, 2)):
            lo = tuple(a + s * rng.randint(-3, 3) for a, s in zip(anchor[:-1], steps)) + (z,)
            up = tuple(l + s * rng.randint(0, 3) for l, s in zip(lo[:-1], steps)) + (z,)
            boxes.append(BBox(Point(lo), Point(up), Stride(steps)))
    lo = Point(tuple(rng.randint(0, 3) for _ in range(dim - 1)) + (rng.randint(2, 3),))
    hi = Point(tuple(rng.randint(0, 3) for _ in range(dim - 1)) + (rng.randint(2, 3),))
    return BBoxSet.from_bboxes(boxes), lo, hi


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
        """The union of grown runs gives the very tree the box route builds
        (trees are canonical), also where grown runs overlap beyond their
        neighbours."""
        for k in range(320):
            dim = rng.randint(1, 4)
            steps = tuple(rng.randint(1, 3) for _ in range(dim))
            r = BBoxSet.empty(dim, Stride(steps)) if k % 40 == 0 else _random_set(rng, dim, steps)
            lo = Point(tuple(rng.randint(0, 3) for _ in range(dim)))
            hi = Point(tuple(rng.randint(0, 3) for _ in range(dim)))
            got, want = r.expand(lo, hi), _box_route_expand(r, lo, hi)
            assert (got.root, got.stride, got.offset) == (want.root, want.stride, want.offset)
        for _ in range(50):
            r, lo, hi = _close_slabs(rng)
            if r.dim == 1:
                runs = list(zip(r.root[0::2], r.root[1::2]))
            else:
                runs = [(start, stop) for start, stop, _ in _runs(r.root, r.dim)]
            down, up = lo.coords[-1] * r.stride.steps[-1], hi.coords[-1] * r.stride.steps[-1]
            assert all(runs[i + 2][0] - down < runs[i][1] + up for i in range(len(runs) - 2))
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

    def test_every_result_tree_is_canonical(self, rng):
        """Every construction, operation and 5-step chain returns a canonical tree."""
        for bad, dim in [((3, 1), 1), ((1, 2, 3), 1), (((2, (1, 2)), (1, (1, 2))), 2), (((1, ()),), 2),
                         (((1, (1, 2)),), 2)]:
            with pytest.raises(AssertionError):
                assert_canonical(bad, dim)
        for _ in range(300):
            dim = rng.choice([1, 2, 3])
            boxes_r, boxes_s, steps = make_operands(rng, dim)
            r = BBoxSet.from_bboxes(boxes_r, dim=dim, stride=steps)
            s = BBoxSet.from_bboxes(boxes_s, dim=dim, stride=steps)
            lo, hi = (Point(tuple(rng.randint(0, 2) for _ in range(dim))) for _ in "lh")
            f = Stride(tuple(rng.choice((1, 2, 3)) for _ in range(dim)))
            trees = [r, s, *(r.apply(op, s) for op in SET_OPS), r.expand(lo, hi), r.coarsen(f), r.refine(steps),
                     r.shift(Point(tuple(rng.randint(-5, 5) for _ in range(dim))))]
            chain = r.expand(lo, hi)
            for step in (lambda t: t & s, lambda t: t.coarsen(f), lambda t: t.refine(f), lambda t: t - s):
                chain = step(chain)
                trees.append(chain)
            for t in trees:
                assert_canonical(t.root, t.dim)


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


class TestRunsTable:
    def test_queries_match_oracle(self, rng):
        """contains, to_bboxes and point_count against the point oracle on
        random sets in 1-4 dims (strides 1-3, any anchor, the empty set too).
        Probes: each box's lower corner (a run start, inside), its upper
        corner, one stride past it (a run stop, outside unless another run
        starts there), one stride before the lower corner, the points one
        lattice unit off each of those, and points beyond the hull."""
        for k in range(240):
            dim = rng.randint(1, 4)
            steps = tuple(rng.randint(1, 3) for _ in range(dim))
            anchor = tuple(rng.randrange(s) for s in steps)
            boxes = _random_boxes(rng, steps, anchor, 0 if k % 12 == 0 else rng.randint(1, 6))
            r = BBoxSet.from_bboxes(boxes, dim=dim, stride=Stride(steps))
            a = PointSet.from_bboxes(boxes, dim=dim, stride=Stride(steps))
            norm = r.to_bboxes()
            assert norm == sorted(norm, key=lambda b: (b.lower.coords, b.upper.coords))
            assert PointSet.from_bboxes(norm, dim=dim, stride=Stride(steps)).points == a.points
            assert r.point_count() == sum(b.point_count() for b in norm) == a.point_count()
            probes = [Point(tuple(c + 40 * rng.choice((-1, 1)) for c in anchor)) for _ in range(4)]
            for b in (norm or [BBox(Point(anchor), Point(anchor), Stride(steps))]):
                st = Point(steps)
                for corner in (b.lower, b.upper, b.upper + st, b.lower - st):
                    probes.append(corner)
                    probes.extend(corner + Point.unit(dim, axis) for axis in range(dim))
            for q in probes:
                assert r.contains(q) == a.contains(q), (k, q)

    def test_built_once_and_ignored_by_equality(self):
        r, again = lshape(), lshape()
        assert r.contains(point(0, 0))
        table = r._table
        assert table is not None and again._table is None
        r.to_bboxes()
        r.point_count()
        assert r._table is table
        assert r == again and hash(r) == hash(again)

    def test_threads_share_a_set_before_its_table_exists(self, rng):
        """Four threads (more than the cores here) query fresh shared sets
        at once, with a short switch interval: every answer is the oracle's,
        whichever thread's table ends up stored."""
        boxes = _random_boxes(rng, (1, 1, 1), (0, 0, 0), 40)
        a = PointSet.from_bboxes(boxes, dim=3)
        probes = [Point(tuple(rng.randint(-5, 8) for _ in range(3))) for _ in range(300)]
        want = [a.contains(q) for q in probes]
        norm = BBoxSet.from_bboxes(boxes).to_bboxes()
        errors = []

        def query(r):
            try:
                if [r.contains(q) for q in probes] != want or r.to_bboxes() != norm:
                    errors.append("wrong answer")
            except Exception as exc:  # a thread's failure must reach the assert
                errors.append(repr(exc))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                r = BBoxSet.from_bboxes(boxes)
                workers = [threading.Thread(target=query, args=(r,)) for _ in range(4)]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=30)
                assert not any(w.is_alive() for w in workers)
        finally:
            sys.setswitchinterval(old)
        assert errors == []

    def test_table_memory_bounded_and_returned(self, rng):
        """Building the table of a regrid-like level (clustered boxes, buffered
        and clipped) allocates at most twice the tree's own size; on any set,
        including staggered slabs whose runs hold O(n^2) intervals for n
        boxes, at most half what the box list to_bboxes returns from it holds.
        Dropping the set returns all of it."""
        cases = []
        for dim in (2, 3):
            centre = [rng.randint(16, 48) for _ in range(dim)]
            boxes = []
            for _ in range(120):
                lo = tuple(min(63, max(0, c + round(rng.gauss(0, 6)))) for c in centre)
                boxes.append(BBox(Point(lo), Point(tuple(min(63, l + rng.randint(1, 7)) for l in lo)), Stride.ones(dim)))
            domain = BBoxSet.from_bboxes([BBox(Point.zero(dim), Point((63,) * dim), Stride.ones(dim))])
            cases.append((lambda boxes=boxes, domain=domain, dim=dim:
                          BBoxSet.from_bboxes(boxes).expand(Point((2,) * dim), Point((2,) * dim)) & domain, 2.0))
        stagger = [BBox(point(3 * i, i), point(3 * i + 1, 500 + i), ONE2) for i in range(120)]
        cases.append((lambda: BBoxSet.from_bboxes(stagger), None))
        for make, tree_factor in cases:
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                r = make()
                tree = tracemalloc.get_traced_memory()[0] - base
                tracemalloc.reset_peak()
                r.contains(Point.zero(r.dim))
                table = tracemalloc.get_traced_memory()[1] - base - tree
                listed = tracemalloc.get_traced_memory()[0]
                boxes = r.to_bboxes()
                listed = tracemalloc.get_traced_memory()[0] - listed
                del r, boxes
                gc.collect()
                left = tracemalloc.get_traced_memory()[0] - base
            finally:
                tracemalloc.stop()
            if tree_factor is not None:
                assert table <= tree_factor * tree, (table, tree)
            assert table <= listed / 2, (table, listed)
            assert left <= 1024, left


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
