import gc
import itertools
import pickle
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
from stencilrt import bboxset
from stencilrt.bboxset import SET_OPS, BBoxSet, _apply_trees, _runs
from stencilrt.fuzz import grid_of_boxes, random_boxes
from stencilrt.lattice import BBox, Point, Stride, UsageError, point, stride
from stencilrt.oracle import PointSet, oracle_from_bboxset

ONE2 = stride(1, 1)


def lshape():
    """The two-box L: a 4x2 base plus a 2x2 column, 12 points, notch at top right."""
    return BBoxSet.from_bboxes([
        BBox(point(0, 0), point(3, 1), ONE2),
        BBox(point(0, 2), point(1, 3), ONE2),
    ])


def _with_variants(rng, boxes, dim, steps):
    """The boxes plus, for each, a duplicate, a nested one-point box, a
    touching neighbour or an empty box, shuffled."""
    out = list(boxes)
    for b in boxes:
        kind = rng.randrange(4)
        if kind == 0:
            out.append(b)
        elif kind == 1:
            out.append(BBox(b.upper, b.upper, b.stride))
        elif kind == 2:
            axis = rng.randrange(dim)
            width = b.upper.coords[axis] - b.lower.coords[axis] + steps[axis]
            out.append(b.shift(Point(tuple(width if a == axis else 0 for a in range(dim)))))
        else:
            out.append(BBox.empty(dim))
    rng.shuffle(out)
    return out


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
            boxes = _with_variants(rng, random_boxes(rng, (12,) * dim, steps, rng.randint(0, 10)), dim, steps)
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
        after one pass over the bounds.  Past the guard both run the same
        unions, so the only allowance is for noise: the 25% the benchmark
        allows an end-to-end metric (see _no_slower; a sample is 4 calls, as
        one takes some 20-40 ms and a single call's jitter reached 1.25x)."""
        boxes = staggered_slabs(800)
        _no_slower(lambda: [BBoxSet.from_bboxes(boxes).root for _ in range(4)],
                   lambda: [union_route(boxes, 3) for _ in range(4)])

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
        through the bitset pass, against the parity-bit sweep; b's toggles
        land on a's run ends too."""
        for _ in range(2000):
            coords = sorted(rng.sample(range(30), rng.randrange(0, 16, 2)))
            a = tuple(coords)
            b = tuple(sorted(rng.sample(range(30), rng.randrange(0, 16, 2))))
            if rng.random() < 0.3 and a:
                b = tuple(sorted(set(b) ^ {a[0], a[-1]}))
                b = b[:len(b) // 2 * 2]
            for op in ("union", "intersection", "difference"):
                if a and b:
                    assert _apply_trees(op, a, b, 1) == reference_apply_1d(op, a, b), (op, a, b)

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

    def test_cost_independent_of_coordinate_span(self, rng):
        """A pass indexes its bitsets by its own keys, never by coordinate:
        with dimension-1 keys at negative coordinates spread over up to
        10^12, every op and expand still builds the reference tree, and no
        call's traced peak grows with the span (a bitset indexed by the
        offset from the least key would need span / 8 bytes).  Spans grow,
        so such a bitset fails at 10^7, long before it would need 10^12 / 8."""
        for span in (10**3, 10**6, 10**7, 10**9, 10**12):
            for dim in (1, 2, 3, 4):
                steps = tuple(rng.randint(1, 3) for _ in range(dim))
                anchor = tuple(rng.randrange(s) for s in steps)
                far = Point((-(span // steps[0]) * steps[0],) + (0,) * (dim - 1))
                sets = []
                for _ in range(2):
                    boxes = _random_boxes(rng, steps, anchor, rng.randint(2, 4))
                    boxes = [b.shift(far) if j % 2 else b for j, b in enumerate(boxes)]
                    sets.append(BBoxSet.from_bboxes(boxes, dim=dim, stride=Stride(steps)))
                r, s = sets
                lo = Point(tuple(rng.randint(0, 2) for _ in range(dim)))
                hi = Point(tuple(rng.randint(0, 2) for _ in range(dim)))
                calls = {op: (lambda op=op: r.apply(op, s)) for op in SET_OPS}
                calls["expand"] = lambda: r.expand(lo, hi)
                for name, call in calls.items():
                    tracemalloc.start()
                    try:
                        got = call()
                        peak = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                    assert peak < 256 * 1024, (span, dim, name, peak)
                    if name == "expand":
                        assert got.root == _box_route_expand(r, lo, hi).root, (span, dim)
                    else:
                        assert got.root == reference_apply(name, r.root, s.root, dim), (span, dim, name)

    def test_operand_past_the_other_end_stays_unconverted(self, rng):
        """A pass converts an operand only up to where the other one ends:
        against two small boxes below all of a 300-box set, no op in either
        order peaks near the 50-230 KiB that converting the large set takes.
        The pair inside or above the set checks the trees where the pass does
        convert the large set in part or in full.  Two boxes, as one box
        takes the clip instead of the pass."""
        unit = Stride((1, 1, 1))
        boxes = []
        for _ in range(300):
            lo = tuple(rng.randrange(100) for _ in range(3))
            boxes.append(BBox(Point(lo), Point(tuple(c + rng.randrange(1, 6) for c in lo)), unit))
        big = BBoxSet.from_bboxes(boxes)
        for z, bounded in ((-10, True), (40, False), (110, False)):
            box = BBoxSet.from_bboxes([BBox(Point((3, 3, z)), Point((6, 6, z + 5)), unit),
                                       BBox(Point((10, 10, z)), Point((12, 12, z + 2)), unit)])
            for op in ("union", "intersection", "difference"):
                for r, s in ((big, box), (box, big)):
                    tracemalloc.start()
                    try:
                        got = r.apply(op, s)
                        peak = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                    assert got.root == reference_apply(op, r.root, s.root, 3), (z, op)
                    assert peak < 16 * 1024 or not bounded, (z, op, peak)


_OPS = ("union", "intersection", "difference")


def _fresh(r):
    """A new set over an equal tree of new tuples, which no remembered meet
    is keyed by."""
    return BBoxSet(r.dim, r.stride, r.offset, pickle.loads(pickle.dumps(r.root)))


def _lattice_box(anchor, steps, lo, up):
    """The box from lattice indices lo..up (inclusive) on the anchor's sub-lattice."""
    at = lambda idx: Point(tuple(a + s * i for a, s, i in zip(anchor, steps, idx)))
    return BBox(at(lo), at(up), Stride(steps))


def _box_operands(rng, boxes, steps, anchor):
    """Boxes against the set of the given boxes, named by case: containing
    it, inside it, cutting it, disjoint from it, with a bound on one of its
    own keys at lo or at hi, and a single point, all on its sub-lattice."""
    dim = len(steps)
    if boxes:
        lows = [min((b.lower.coords[a] - anchor[a]) // steps[a] for b in boxes) for a in range(dim)]
        ups = [max((b.upper.coords[a] - anchor[a]) // steps[a] for b in boxes) for a in range(dim)]
    else:
        lows, ups = [0] * dim, [3] * dim
    keys = [sorted({(c - anchor[a]) // steps[a] for b in boxes for c in (b.lower.coords[a], b.upper.coords[a] + steps[a])}
                   or {0, 4}) for a in range(dim)]
    inner = [sorted((rng.randint(lo, up), rng.randint(lo, up))) for lo, up in zip(lows, ups)]
    cut = [(rng.randint(lo, up), up + rng.randint(1, 3)) for lo, up in zip(lows, ups)]
    if rng.random() < 0.5:
        cut = [(lo - rng.randint(1, 3), rng.randint(lo, up)) for lo, up in zip(lows, ups)]
    far = rng.randrange(dim)
    key_lo = [(rng.choice(k), rng.choice(k) + rng.randint(0, 3)) for k in keys]
    key_hi = [(rng.choice(k) - rng.randint(1, 4), rng.choice(k) - 1) for k in keys]
    point = [rng.choice(k) for k in keys]
    cases = {
        "containing": ([lo - rng.randint(0, 2) for lo in lows], [up + rng.randint(0, 2) for up in ups]),
        "inside": ([lo for lo, _ in inner], [up for _, up in inner]),
        "cutting": ([lo for lo, _ in cut], [up for _, up in cut]),
        "disjoint": ([up + 2 if a == far else lo for a, (lo, up) in enumerate(zip(lows, ups))],
                     [up + 5 if a == far else up for a, up in enumerate(ups)]),
        "key at lo": ([lo for lo, _ in key_lo], [max(lo, up) for lo, up in key_lo]),
        "key at hi": ([min(lo, up) for lo, up in key_hi], [up for _, up in key_hi]),
        "point": (point, point),
    }
    return {name: _lattice_box(anchor, steps, lo, up) for name, (lo, up) in cases.items()}


class TestMeet:
    """Intersection and difference sweep an operand pair at most once, for
    its intersection M, as A - B is A ^ M; the last pair's M is remembered,
    keyed by both roots.  A box operand is clipped structurally instead,
    and its M is never kept.  Union runs its own sweep."""

    @staticmethod
    def _pair(rng, dim=None):
        dim = dim or rng.randint(1, 4)
        steps = tuple(rng.randint(1, 3) for _ in range(dim))
        anchor = tuple(rng.randrange(s) - s * rng.randint(0, 3) for s in steps)
        boxes = [_random_boxes(rng, steps, anchor, rng.randint(0, 5)) for _ in range(2)]
        sets = [BBoxSet.from_bboxes(b, dim=dim, stride=Stride(steps)) for b in boxes]
        points = [PointSet.from_bboxes(b, dim=dim, stride=Stride(steps)) for b in boxes]
        return dim, anchor, sets, points

    def test_every_call_order_gives_the_reference_tree(self, rng):
        """Union, intersection, difference and the reverse difference, in
        each of their 24 orders on one pair of objects and then once more on
        the same objects (every & and - a hit), on random pairs in 1-4 dims
        with strides 1-3 and negative anchors, where one in four pairs is a
        set with itself: each tree is the reference sweep's and the
        oracle's, and canonical."""
        calls = [(op, False) for op in _OPS] + [("difference", True)]
        for k in range(60):
            dim, _, (r, s), (a, b) = self._pair(rng)
            if k % 4 == 0:
                s, b = r, a
            want = {(op, rev): reference_apply(op, *((s.root, r.root) if rev else (r.root, s.root)), dim)
                    for op, rev in calls}
            for (op, rev), tree in want.items():
                assert oracle_from_bboxset(BBoxSet(dim, r.stride, r.offset, tree)).points == \
                    (b.op(op, a) if rev else a.op(op, b)).points
                assert_canonical(tree, dim)
            for order in itertools.permutations(calls):
                x = _fresh(r)
                y = x if s is r else _fresh(s)
                for _ in range(2):
                    for op, rev in order:
                        got = (y.apply(op, x) if rev else x.apply(op, y)).root
                        assert got == want[op, rev], (k, order, op, rev)

    def test_one_set_against_several_partners(self, rng):
        """One set met in turn with three partners, in any order, never
        answers with the meet of another partner: the entry is looked up by
        both operands' trees, in either order."""
        for k in range(60):
            dim, anchor, (r, s), _ = self._pair(rng)
            t = _random_set(rng, dim, r.stride.steps, anchor)
            u = s | t
            partners = [s, t, u]
            want = {(id(p), op): reference_apply(op, r.root, p.root, dim) for p in partners for op in _OPS}
            for _ in range(12):
                p = rng.choice(partners)
                op = rng.choice(_OPS)
                got = r.apply(op, p) if rng.random() < 0.5 or op == "difference" else p.apply(op, r)
                assert got.root == want[id(p), op], (k, op)

    def test_box_operands_match_the_reference(self, rng):
        """A box on either side: containing the set, inside, cutting,
        disjoint, bounded on one of the set's own keys at lo or at hi, a
        single point, and the empty set, on strides 1-3 and negative anchors;
        also a set that is one box itself, and complement_within.  Every tree
        is the reference sweep's and the oracle's, is canonical, and no meet
        with a box is remembered."""
        for k in range(150):
            dim = rng.randint(1, 4)
            steps = tuple(rng.randint(1, 3) for _ in range(dim))
            anchor = tuple(rng.randrange(s) - s * rng.randint(0, 3) for s in steps)
            boxes = _random_boxes(rng, steps, anchor, 1 if k % 5 == 0 else rng.randint(0, 5))
            r = BBoxSet.from_bboxes(boxes, dim=dim, stride=Stride(steps))
            a = PointSet.from_bboxes(boxes, dim=dim, stride=Stride(steps))
            cases = _box_operands(rng, boxes, steps, anchor)
            for name, box in [*cases.items(), ("empty", None)]:
                q = BBoxSet.from_bboxes([box] if box else [], dim=dim, stride=Stride(steps))
                b = PointSet.from_bboxes([box] if box else [], dim=dim, stride=Stride(steps))
                for op in _OPS:
                    for x, y, px, py in ((r, q, a, b), (q, r, b, a)):
                        x, y = _fresh(x), _fresh(y)
                        last = bboxset._MEET
                        got = x.apply(op, y)
                        assert got.root == reference_apply(op, x.root, y.root, dim), (k, name, op)
                        assert oracle_from_bboxset(got).points == px.op(op, py).points
                        assert_canonical(got.root, dim)
                        if box:
                            assert bboxset._MEET is last, (k, name, op)
                if box:
                    got = r.complement_within(box)
                    assert got.root == reference_apply("difference", q.root, r.root, dim), (k, name)
                    assert oracle_from_bboxset(got).points == b.op("difference", a).points

    def test_remembered_meet_is_bounded(self, rng):
        """A long-lived set met with 200 fresh sets leaves one entry, the last
        pair's: past the first few, traced memory does not grow (a table of
        every partner would keep some 200 x 2 KiB here).  Memory is read
        every 20 sets after a full collection, which also empties the free
        lists."""
        unit = Stride.ones(3)
        boxes = _random_boxes(rng, (1, 1, 1), (0, 0, 0), 12)
        keep = BBoxSet.from_bboxes(_random_boxes(rng, (1, 1, 1), (0, 0, 0), 12))
        gc.collect()
        tracemalloc.start()
        try:
            held = []
            for k in range(200):
                fresh = BBoxSet.from_bboxes(boxes, stride=unit)
                keep & fresh
                keep - fresh
                del fresh
                if k % 20 == 4:
                    gc.collect()
                    held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert bboxset._MEET[0] is keep.root
        assert max(held) - held[0] <= 1024, held

    def test_meets_of_many_sets_are_bounded_in_all(self, rng):
        """Thirty long-lived small sets, each met with a large set of its own
        that is then dropped, leave at most one large tree and one meet
        alive in all: traced memory grows by under twice the largest of those
        trees, where an entry kept on each set would keep all thirty."""
        unit = Stride.ones(3)
        small = [BBoxSet.from_bboxes([BBox(Point((k,) * 3), Point((k + 9,) * 3), unit),
                                      BBox(Point((k + 20,) * 3), Point((k + 29,) * 3), unit)]) for k in range(30)]
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sizes = []
            for s in small:
                boxes = []
                for _ in range(300):
                    lo = tuple(rng.randrange(100) for _ in range(3))
                    boxes.append(BBox(Point(lo), Point(tuple(c + rng.randrange(1, 6) for c in lo)), unit))
                before = tracemalloc.get_traced_memory()[0]
                big = BBoxSet.from_bboxes(boxes, stride=unit)
                sizes.append(tracemalloc.get_traced_memory()[0] - before)
                s & big
                s - big
                del big, boxes
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held <= 2 * max(sizes), (held, sizes)

    def test_threads_share_a_pair(self, rng):
        """Two threads apply every op to one shared pair, in opposite operand
        and op orders, 200 times each, and between rounds meet their own
        first operand with a third set, so the entry is replaced over and
        over while the other thread reads it; with a short switch interval
        every tree is the single-thread one."""
        dim, anchor, (r, s), _ = self._pair(rng, 3)
        extra = [_random_set(rng, 3, r.stride.steps, anchor) for _ in range(2)]
        want = {(op, rev): reference_apply(op, *((s.root, r.root) if rev else (r.root, s.root)), dim)
                for op in _OPS for rev in (False, True)}
        errors = []

        def work(x, y, rev, other):
            try:
                order = [(op, rev) for op in _OPS]
                for _ in range(200):
                    for op, rev_ in (order if not rev else order[::-1]):
                        if x.apply(op, y).root != want[op, rev_]:
                            errors.append((op, rev_))
                    x & other
            except Exception as exc:  # a thread's failure must reach the assert
                errors.append(repr(exc))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(r, s, False, extra[0])),
                       threading.Thread(target=work, args=(s, r, True, extra[1]))]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
            assert not any(w.is_alive() for w in workers)
        finally:
            sys.setswitchinterval(old)
        assert errors == []


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


def _regrid_flags(rng, per_cluster=30, extent=128):
    """A regrid step's flag boxes: one cluster of 1-7 point boxes around a
    centre in each octant of [0, extent)^3, as amr-regrid draws them."""
    half, boxes = extent // 2, []
    for octant in range(8):
        centre = [(octant >> a & 1) * half + rng.uniform(20, half - 20) for a in range(3)]
        for _ in range(per_cluster):
            lo = [min(max(int(rng.gauss(c, 6.0)), 0), extent - 1) for c in centre]
            up = [min(v + rng.randint(1, 7), extent - 1) for v in lo]
            boxes.append(BBox(Point(tuple(lo)), Point(tuple(up)), Stride.ones(3)))
    return boxes


def _route(monkeypatch, planes, call):
    """call() with every pass forced onto planes (True) or rows (False)."""
    with monkeypatch.context() as m:
        m.setattr(bboxset, "_plane_fits", lambda *counts: planes)
        return call()


def _no_slower(call, route):
    """call() and route() each take one sample (a list of trees built by
    several calls) and return the same trees; best of 5 samples in
    alternating order with the cyclic collector off, as timeit runs, call()
    takes at most 1.25x route()."""
    want = route()
    sample = {"call": call, "route": route}
    times = {"call": [], "route": []}
    gc.disable()
    try:
        for k in range(5):
            for side in ("call", "route")[::1 if k % 2 else -1]:
                t0 = time.perf_counter()
                trees = sample[side]()
                times[side].append(time.perf_counter() - t0)
                assert trees == want, side
    finally:
        gc.enable()
    assert min(times["call"]) <= 1.25 * min(times["route"]), times


def _no_slower_than_rows(monkeypatch, call, reps):
    """reps calls of call() with the guard choosing its route against reps
    calls with the row route forced, patched once per sample (see
    _no_slower)."""
    calls = lambda: [call() for _ in range(reps)]
    _no_slower(calls, lambda: _route(monkeypatch, False, calls))


class TestPlanes:
    """From dimension 3 up, from_bboxes and expand build dimension-2 slices as
    planes where _plane_fits says they pay, and as rows elsewhere."""

    def test_plane_route_matches_row_route(self, rng, monkeypatch):
        """Tree for tree, on 3-D and 4-D inputs with strides 1-3, negative
        anchors and empty, duplicate, nested and touching boxes; expand by
        0-3 strides per axis and side, where no growth returns the very tree."""
        for k in range(160):
            dim = 3 + k % 2
            steps = tuple(rng.randint(1, 3) for _ in range(dim))
            anchor = tuple(rng.randrange(s) for s in steps)
            boxes = _with_variants(rng, _random_boxes(rng, steps, anchor, rng.randint(0, 8)), dim, steps)
            build = lambda: BBoxSet.from_bboxes(boxes, dim=dim, stride=Stride(steps))
            rows, planes = _route(monkeypatch, False, build), _route(monkeypatch, True, build)
            assert planes.root == rows.root == build().root, k
            assert_canonical(planes.root, dim)
            zero = Point.zero(dim)
            assert _route(monkeypatch, True, lambda: rows.expand(zero, zero)).root == rows.root, k
            assert _route(monkeypatch, False, lambda: rows.expand(zero, zero)).root == rows.root, k
            lo = Point(tuple(rng.randint(0, 3) for _ in range(dim)))
            hi = Point(tuple(rng.randint(0, 3) for _ in range(dim)))
            grow = lambda: rows.expand(lo, hi)
            want = _route(monkeypatch, False, grow).root
            assert _route(monkeypatch, True, grow).root == want == grow().root, (k, lo, hi)
            assert_canonical(want, dim)

    def test_regrid_inputs_take_planes(self, rng, monkeypatch):
        """A regrid step's flag boxes and their expand never reach the row
        route: the 2-D unions of from_bboxes' sweep and the 2-D growth of
        expand raise here, and the trees equal the row route's."""
        boxes = _regrid_flags(rng)
        g = Point((2, 2, 2))
        flagged = _route(monkeypatch, False, lambda: BBoxSet.from_bboxes(boxes))
        grown = _route(monkeypatch, False, lambda: flagged.expand(g, g))
        union_boxes, grow = bboxset._union_boxes, bboxset._grow

        def no_row_unions(boxes, dim):
            assert dim != 2, "from_bboxes took the row route"
            return union_boxes(boxes, dim)

        def no_row_growth(node, dim, lo, hi, steps, dilate, paint=None):
            assert paint or dim == 1, "expand took the row route"
            return grow(node, dim, lo, hi, steps, dilate, paint)

        monkeypatch.setattr(bboxset, "_union_boxes", no_row_unions)
        monkeypatch.setattr(bboxset, "_grow", no_row_growth)
        assert BBoxSet.from_bboxes(boxes).root == flagged.root
        assert flagged.expand(g, g).root == grown.root

    def test_sparse_wide_inputs_keep_the_row_route(self, monkeypatch):
        """600 one-point boxes on a 3-D diagonal, two apart: a plane would hold
        1,200 x 1,200 bits for each of 1,200 bounds, and built anyway it took
        over 300x the row route's time in from_bboxes and 250 MiB in expand.
        Guarded, from_bboxes and expand each take at most 1.25x the row route
        (see _no_slower_than_rows; a from_bboxes sample is 8 calls, as one
        takes a few ms) and peak under 16 MiB."""
        unit = Stride.ones(3)
        boxes = [BBox(Point((2 * i,) * 3), Point((2 * i,) * 3), unit) for i in range(600)]
        g = Point((1, 1, 1))
        flagged = BBoxSet.from_bboxes(boxes)
        calls = {"from_bboxes": (lambda: BBoxSet.from_bboxes(boxes).root, 8),
                 "expand": (lambda: flagged.expand(g, g).root, 1)}
        for name, (call, reps) in calls.items():
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20, (name, peak)
            _no_slower_than_rows(monkeypatch, call, reps)

    def test_boxes_at_one_bound_each_keep_the_row_route(self, monkeypatch):
        """grid_of_boxes(4096, 3), disjoint boxes each active at one bound:
        on rows each is unioned once, and on planes its corners cost a Python
        read-out each, which took 1.9-3.3x the row route's time.  Guarded,
        from_bboxes takes at most 1.25x the row route (a sample is 2 calls)."""
        boxes = grid_of_boxes(4096, 3)
        _no_slower_than_rows(monkeypatch, lambda: BBoxSet.from_bboxes(boxes).root, 2)

    def test_boxes_active_together_keep_the_row_route(self):
        """1,000 boxes with corners among about 340 values on x and y, each
        spanning 2-4 of about 7 bounds along z: nearly all are active at
        once, so the plane route would keep about 1,000 rectangles of a
        340 x 340-bit plane (7.9 MiB traced, against 1.0 MiB on rows).  The
        guard counts the boxes active together, so the traced peak stays
        under 4 MiB."""
        rng = random.Random(3)
        boxes = []
        for _ in range(1000):
            x, y, z = rng.randrange(300), rng.randrange(300), rng.randrange(3)
            up = (x + rng.randrange(40), y + rng.randrange(40), z + rng.randrange(2, 5))
            boxes.append(BBox(Point((x, y, z)), Point(up), Stride.ones(3)))
        tracemalloc.start()
        try:
            r = BBoxSet.from_bboxes(boxes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak
        assert_canonical(r.root, 3)


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
