"""Brute-force ground truth: explicit point sets mirroring every region operation.

This is the representation the derivative trees exist to avoid; we keep it
around deliberately, as the oracle every fast operation is checked against.
It shares nothing with the tree algebra except the box membership predicate,
and it is allowed to cost O(points).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import mod

from .lattice import BBox, Point, ResourceError, Stride, UsageError

DEFAULT_POINT_CAP = 10**6

_SET_OPS = {
    "union": frozenset.union,
    "intersection": frozenset.intersection,
    "difference": frozenset.difference,
    "xor": frozenset.symmetric_difference,
}


@dataclass(frozen=True, slots=True)
class PointSet:
    """Lattice points enumerated one by one, with literal set semantics."""

    dim: int
    stride: Stride
    offset: Point
    points: frozenset[tuple[int, ...]]

    @staticmethod
    def empty(dim: int, stride: Stride | None = None) -> "PointSet":
        stride = stride if stride is not None else Stride.ones(dim)
        if stride.dim != dim:
            raise UsageError("stride dimension disagrees with set dimension")
        return PointSet(dim, stride, Point.zero(dim), frozenset())

    @staticmethod
    def from_bboxes(boxes, dim: int | None = None, stride: Stride | None = None,
                    cap: int = DEFAULT_POINT_CAP) -> "PointSet":
        live = [b for b in boxes if not b.is_empty]
        if not live:
            if dim is None:
                raise UsageError("cannot infer dimension of an empty box list")
            return PointSet.empty(dim, stride)
        first = live[0]
        if dim is not None and first.dim != dim:
            raise UsageError(f"dimension mismatch: boxes are {first.dim}d, requested {dim}d")
        steps = first.stride.steps
        if stride is not None and stride.steps != steps:
            raise UsageError("stride mismatch between boxes and requested stride")
        off = tuple(map(mod, first.lower.coords, steps))
        total = 0
        for b in live:  # the tree's entry checks, in the one pass over the boxes
            if b.stride.steps != steps:
                raise UsageError("boxes of mixed dimension" if b.dim != first.dim else "boxes of mixed stride")
            if tuple(map(mod, b.lower.coords, steps)) != off:
                raise UsageError("boxes on different sub-lattices")
            total += b.point_count()
        if total > cap:
            raise ResourceError(f"oracle point budget exceeded: {total} > {cap}")
        pts = frozenset(itertools.chain.from_iterable(
            itertools.product(*[
                range(l, u + 1, s)
                for l, u, s in zip(b.lower.coords, b.upper.coords, b.stride.steps)
            ])
            for b in live
        ))
        return _wrap(first.dim, first.stride, Point(off), pts)

    def op(self, name: str, other: "PointSet") -> "PointSet":
        if name not in _SET_OPS:
            raise UsageError(f"unknown set operation {name!r}")
        off = _compatible(self, other)
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
        return p.coords in self.points

    def is_empty(self) -> bool:
        return not self.points

    def point_count(self) -> int:
        return len(self.points)

    def shift(self, v: Point) -> "PointSet":
        vv = v.coords
        off = Point(tuple((o + dv) % s for o, dv, s in zip(self.offset.coords, vv, self.stride.steps)))
        return _wrap(self.dim, self.stride, off,
                     frozenset(tuple(x + d for x, d in zip(p, vv)) for p in self.points))

    def expand(self, lo: Point, hi: Point, cap: int = DEFAULT_POINT_CAP) -> "PointSet":
        """Dilation, one axis at a time: each point yields its lo+hi+1
        stride-step neighbours along the axis."""
        if any(c < 0 for c in lo.coords) or any(c < 0 for c in hi.coords):
            raise UsageError("expand takes non-negative step counts")
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
        new_steps = tuple(s * f for s, f in zip(self.stride.steps, factor.steps))
        pts = frozenset(
            p for p in self.points
            if all((x - o) % ns == 0 for x, o, ns in zip(p, self.offset.coords, new_steps))
        )
        return _wrap(self.dim, Stride(new_steps), self.offset, pts)

    def refine(self, factor: Stride) -> "PointSet":
        for s, f in zip(self.stride.steps, factor.steps):
            if s % f != 0:
                raise UsageError(f"refinement factor {factor.steps} does not divide stride {self.stride.steps}")
        new_steps = tuple(s // f for s, f in zip(self.stride.steps, factor.steps))
        off = Point(tuple(o % ns for o, ns in zip(self.offset.coords, new_steps)))
        return _wrap(self.dim, Stride(new_steps), off, self.points)


def _wrap(dim: int, stride: Stride, offset: Point, pts: frozenset) -> PointSet:
    if not pts:
        return PointSet(dim, stride, Point.zero(dim), frozenset())
    return PointSet(dim, stride, offset, pts)


def _compatible(a: PointSet, b: PointSet) -> Point:
    if a.dim != b.dim:
        raise UsageError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.stride != b.stride:
        raise UsageError(f"stride mismatch: {a.stride.steps} vs {b.stride.steps}")
    if not a.is_empty() and not b.is_empty() and a.offset != b.offset:
        raise UsageError("operands on different sub-lattices")
    return b.offset if a.is_empty() else a.offset


def oracle_from_bboxset(r, cap: int = DEFAULT_POINT_CAP) -> PointSet:
    """Enumerate a derivative-tree set into an explicit PointSet."""
    return PointSet.from_bboxes(r.to_bboxes(), dim=r.dim, stride=r.stride, cap=cap)


def oracle_to_bboxset(a: PointSet):
    """Rebuild a derivative-tree set from unit boxes, one per point."""
    from .bboxset import BBoxSet

    boxes = [BBox(Point(p), Point(p), a.stride) for p in sorted(a.points)]
    return BBoxSet.from_bboxes(boxes, dim=a.dim, stride=a.stride)
