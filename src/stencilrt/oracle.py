"""Brute-force ground truth: explicit point sets mirroring every region operation.

This is the representation the derivative trees exist to avoid; we keep it
around deliberately, as the oracle every fast operation is checked against.
It shares lattice's input checks with the tree algebra, so both reject the
same input with the same text, and nothing that computes a result: its
points, strides and anchors are its own.  It is allowed to cost O(points).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .lattice import (SET_OPS, BBox, Point, ResourceError, Stride, check_boxes, check_dims, check_expand, check_op,
                      check_operands, check_refine)

DEFAULT_POINT_CAP = 10**6

_SET_OPS = dict(zip(SET_OPS, (frozenset.union, frozenset.intersection, frozenset.difference,
                              frozenset.symmetric_difference)))


@dataclass(frozen=True, slots=True)
class PointSet:
    """Lattice points enumerated one by one, with literal set semantics."""

    dim: int
    stride: Stride
    offset: Point
    points: frozenset[tuple[int, ...]]

    @staticmethod
    def empty(dim: int, stride: Stride | None = None) -> "PointSet":
        return PointSet.from_bboxes((), dim, stride)

    @staticmethod
    def from_bboxes(boxes, dim: int | None = None, stride: Stride | None = None,
                    cap: int = DEFAULT_POINT_CAP) -> "PointSet":
        live, dim, stride, anchor = check_boxes(boxes, dim, stride)
        total = sum(b.point_count() for b in live)
        if total > cap:
            raise ResourceError(f"oracle point budget exceeded: {total} > {cap}")
        pts = frozenset(itertools.chain.from_iterable(
            itertools.product(*[
                range(l, u + 1, s)
                for l, u, s in zip(b.lower.coords, b.upper.coords, b.stride.steps)
            ])
            for b in live
        ))
        return _wrap(dim, stride, anchor, pts)

    def op(self, name: str, other: "PointSet") -> "PointSet":
        check_op(name)
        off = check_operands(self, other)
        return _wrap(self.dim, self.stride, off, frozenset(_SET_OPS[name](self.points, other.points)))

    def union(self, other):
        return self.op("union", other)

    def intersection(self, other):
        return self.op("intersection", other)

    def difference(self, other):
        return self.op("difference", other)

    def symmetric_difference(self, other):
        return self.op("xor", other)

    def contains(self, p: Point) -> bool:
        check_dims(self.dim, p)
        return p.coords in self.points

    def is_empty(self) -> bool:
        return not self.points

    def point_count(self) -> int:
        return len(self.points)

    def shift(self, v: Point) -> "PointSet":
        check_dims(self.dim, v)
        vv = v.coords
        off = Point(tuple((o + dv) % s for o, dv, s in zip(self.offset.coords, vv, self.stride.steps)))
        return _wrap(self.dim, self.stride, off,
                     frozenset(tuple(x + d for x, d in zip(p, vv)) for p in self.points))

    def expand(self, lo: Point, hi: Point, cap: int = DEFAULT_POINT_CAP) -> "PointSet":
        """Dilation, one axis at a time: each point yields its lo+hi+1
        stride-step neighbours along the axis."""
        check_expand(self.dim, lo, hi)
        if len(self.points) * math.prod(l + h + 1 for l, h in zip(lo.coords, hi.coords)) > 4 * cap:
            raise ResourceError("oracle dilation budget exceeded")
        pts = self.points
        for axis, (l, h, s) in enumerate(zip(lo.coords, hi.coords, self.stride.steps)):
            span = range(-l * s, h * s + 1, s)
            pts = {p[:axis] + (p[axis] + d,) + p[axis + 1:] for p in pts for d in span}
        pts = frozenset(pts)
        if len(pts) > cap:
            raise ResourceError(f"oracle point budget exceeded: {len(pts)} > {cap}")
        return _wrap(self.dim, self.stride, self.offset, pts)

    def coarsen(self, factor: Stride) -> "PointSet":
        check_dims(self.dim, factor)
        new_steps = tuple(s * f for s, f in zip(self.stride.steps, factor.steps))
        pts = frozenset(
            p for p in self.points
            if all((x - o) % ns == 0 for x, o, ns in zip(p, self.offset.coords, new_steps))
        )
        return _wrap(self.dim, Stride(new_steps), self.offset, pts)

    def refine(self, factor: Stride) -> "PointSet":
        check_refine(self.stride, factor)
        new_steps = tuple(s // f for s, f in zip(self.stride.steps, factor.steps))
        off = Point(tuple(o % ns for o, ns in zip(self.offset.coords, new_steps)))
        return _wrap(self.dim, Stride(new_steps), off, self.points)


def _wrap(dim: int, stride: Stride, offset: Point, pts: frozenset) -> PointSet:
    if not pts:
        return PointSet(dim, stride, Point.zero(dim), frozenset())
    return PointSet(dim, stride, offset, pts)


def oracle_from_bboxset(r, cap: int = DEFAULT_POINT_CAP) -> PointSet:
    """Enumerate a derivative-tree set into an explicit PointSet."""
    return PointSet.from_bboxes(r.to_bboxes(), dim=r.dim, stride=r.stride, cap=cap)


def oracle_to_bboxset(a: PointSet):
    """Rebuild a derivative-tree set from unit boxes, one per point."""
    from .bboxset import BBoxSet

    boxes = [BBox(Point(p), Point(p), a.stride) for p in sorted(a.points)]
    return BBoxSet.from_bboxes(boxes, dim=a.dim, stride=a.stride)
