"""A derivative tree and the point oracle kept in step under random programs.

Hypothesis picks each step and its arguments: the four binary operations
against fresh box lists, shift, expand, coarsen, refine, the complement
within a hull box, a round trip through the normalized boxes, and point
queries.  After every step the tree is in canonical form and holds exactly
the oracle's points, on the same stride and anchor.  Shrinking reduces a
failing program to a short one (Claessen & Hughes, ICFP 2000).
"""
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from helpers import assert_canonical
from stencilrt.bboxset import SET_OPS, BBoxSet
from stencilrt.lattice import BBox, Point, Stride
from stencilrt.oracle import PointSet, oracle_from_bboxset

# expand only while the oracle is small, so a program's cost stays bounded
MAX_POINTS_TO_EXPAND = 1500
MAX_STEP = 6


class TreeAndOracle(RuleBasedStateMachine):
    @initialize(dim=st.integers(1, 3), data=st.data())
    def start(self, dim, data):
        self.dim = dim
        self.stride = Stride(tuple(data.draw(st.integers(1, 2)) for _ in range(dim)))
        self.tree = BBoxSet.empty(dim, self.stride)  # any anchor for the first boxes
        boxes = self._boxes(data)
        self.tree = BBoxSet.from_bboxes(boxes, dim=dim, stride=self.stride)
        self.oracle = PointSet.from_bboxes(boxes, dim=dim, stride=self.stride)

    def _anchor(self, data):
        """The sub-lattice an operand must lie on: the set's own, or any while
        the set is empty (the anchor of an empty set is a wildcard)."""
        if not self.tree.is_empty():
            return self.tree.offset.coords
        return tuple(data.draw(st.integers(-s, 0)) for s in self.stride.steps)

    def _box(self, data, anchor, reach=4, width=4):
        steps = self.stride.steps
        lo = tuple(a + s * data.draw(st.integers(-reach, reach)) for a, s in zip(anchor, steps))
        up = tuple(x + s * data.draw(st.integers(0, width)) for x, s in zip(lo, steps))
        return BBox(Point(lo), Point(up), self.stride)

    def _boxes(self, data):
        anchor = self._anchor(data)
        return [self._box(data, anchor) for _ in range(data.draw(st.integers(0, 4)))]

    @rule(op=st.sampled_from(SET_OPS), data=st.data())
    def binary(self, op, data):
        boxes = self._boxes(data)
        other = BBoxSet.from_bboxes(boxes, dim=self.dim, stride=self.stride)
        self.tree = self.tree.apply(op, other)
        self.oracle = self.oracle.op(op, PointSet.from_bboxes(boxes, dim=self.dim, stride=self.stride))

    @rule(data=st.data())
    def shift(self, data):
        v = Point(tuple(data.draw(st.integers(-5, 5)) for _ in range(self.dim)))
        self.tree = self.tree.shift(v)
        self.oracle = self.oracle.shift(v)

    @precondition(lambda self: self.oracle.point_count() <= MAX_POINTS_TO_EXPAND)
    @rule(data=st.data())
    def expand(self, data):
        lo = Point(tuple(data.draw(st.integers(0, 2)) for _ in range(self.dim)))
        hi = Point(tuple(data.draw(st.integers(0, 2)) for _ in range(self.dim)))
        self.tree = self.tree.expand(lo, hi)
        self.oracle = self.oracle.expand(lo, hi)

    @rule(data=st.data())
    def coarsen(self, data):
        factor = Stride(tuple(data.draw(st.integers(1, 3)) if s * 3 <= MAX_STEP else 1 for s in self.stride.steps))
        self.tree = self.tree.coarsen(factor)
        self.oracle = self.oracle.coarsen(factor)
        self.stride = self.tree.stride

    @rule(data=st.data())
    def refine(self, data):
        factor = Stride(tuple(data.draw(st.sampled_from([f for f in range(1, s + 1) if s % f == 0]))
                              for s in self.stride.steps))
        self.tree = self.tree.refine(factor)
        self.oracle = self.oracle.refine(factor)
        self.stride = self.tree.stride

    @rule(data=st.data())
    def complement_within(self, data):
        hull = self._box(data, self._anchor(data), width=8)
        self.tree = self.tree.complement_within(hull)
        self.oracle = PointSet.from_bboxes([hull], dim=self.dim, stride=self.stride).difference(self.oracle)

    @rule()
    def boxes_round_trip(self):
        again = BBoxSet.from_bboxes(self.tree.to_bboxes(), dim=self.dim, stride=self.stride)
        assert again.root == self.tree.root

    @rule(data=st.data())
    def contains(self, data):
        for _ in range(8):
            p = Point(tuple(data.draw(st.integers(-20, 20)) for _ in range(self.dim)))
            assert self.tree.contains(p) == self.oracle.contains(p), p

    @invariant()
    def in_step(self):
        if not hasattr(self, "oracle"):
            return  # invariants may run before the initialize rule
        assert_canonical(self.tree.root, self.dim)
        assert self.tree.stride == self.oracle.stride
        assert self.tree.offset == self.oracle.offset
        assert oracle_from_bboxset(self.tree).points == self.oracle.points


TreeAndOracle.TestCase.settings = settings(max_examples=100, stateful_step_count=20, deadline=None)
test_tree_and_oracle_in_step = TreeAndOracle.TestCase
