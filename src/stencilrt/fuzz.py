"""Random operands and the oracle cross-check of the set algebra, shared by
the ``setops-check``/``setops-bench`` subcommands and the tests."""
from __future__ import annotations

import random

from .bboxset import BBoxSet, SET_OPS
from .lattice import BBox, Point, Stride, format_bbox
from .oracle import DEFAULT_POINT_CAP, PointSet, oracle_from_bboxset


def random_box(rng: random.Random, hull: tuple[int, ...], steps: tuple[int, ...]) -> BBox:
    """Uniform corners within the hull, swapped if inverted (rejection-free)."""
    lo, up = [], []
    for e, s in zip(hull, steps):
        a = rng.randrange(0, max(1, e // s)) * s
        b = rng.randrange(0, max(1, e // s)) * s
        lo.append(min(a, b))
        up.append(max(a, b))
    return BBox(Point(tuple(lo)), Point(tuple(up)), Stride(steps))


def random_boxes(rng: random.Random, hull: tuple[int, ...], steps: tuple[int, ...],
                 count: int) -> list[BBox]:
    return [random_box(rng, hull, steps) for _ in range(count)]


def check_case(seed: int, dim: int, max_boxes: int, max_extent: int,
               point_cap: int = DEFAULT_POINT_CAP) -> str | None:
    """One randomized cross-check of every set operation against the oracle.

    Returns None on agreement, else a reproduction message.
    """
    rng = random.Random(seed)
    steps = tuple(rng.choice((1, 1, 2)) for _ in range(dim))
    hull = tuple(rng.randint(4, max_extent) for _ in range(dim))
    boxes_r = random_boxes(rng, hull, steps, rng.randint(0, max_boxes))
    boxes_s = random_boxes(rng, hull, steps, rng.randint(0, max_boxes))

    def fail(op: str) -> str:
        lines = [f"mismatch in {op} (seed={seed}, dim={dim})",
                 "R boxes:"] + [f"  {format_bbox(b)}" for b in boxes_r] + \
                ["S boxes:"] + [f"  {format_bbox(b)}" for b in boxes_s]
        return "\n".join(lines)

    r = BBoxSet.from_bboxes(boxes_r, dim=dim, stride=Stride(steps))
    s = BBoxSet.from_bboxes(boxes_s, dim=dim, stride=Stride(steps))
    a = PointSet.from_bboxes(boxes_r, dim=dim, stride=Stride(steps), cap=point_cap)
    b = PointSet.from_bboxes(boxes_s, dim=dim, stride=Stride(steps), cap=point_cap)
    norm = r.to_bboxes()
    decoded = PointSet.from_bboxes(norm, dim=dim, stride=Stride(steps), cap=point_cap)
    if decoded.points != a.points:
        return fail("from_bboxes")
    # disjoint exactly when the box volumes sum to the size of their union
    if sum(box.point_count() for box in norm) != decoded.point_count():
        return fail("to_bboxes (overlap)")

    for op in SET_OPS:
        if oracle_from_bboxset(r.apply(op, s), cap=point_cap).points != a.op(op, b).points:
            return fail(op)
    if oracle_from_bboxset(r.symmetric_difference(s), cap=point_cap).points != a.symmetric_difference(b).points:
        return fail("symmetric_difference (fast path)")

    v = Point(tuple(rng.randint(-3, 3) * st for st in steps))
    if oracle_from_bboxset(r.shift(v), cap=point_cap).points != a.shift(v).points:
        return fail("shift")

    lo = Point(tuple(rng.randint(0, 1) for _ in range(dim)))
    hi = Point(tuple(rng.randint(0, 1) for _ in range(dim)))
    if oracle_from_bboxset(r.expand(lo, hi), cap=point_cap).points != a.expand(lo, hi, cap=point_cap).points:
        return fail("expand")

    f = Stride(tuple(rng.choice((1, 2, 3)) for _ in range(dim)))
    if oracle_from_bboxset(r.coarsen(f), cap=point_cap).points != a.coarsen(f).points:
        return fail("coarsen")

    fr = Stride(tuple(rng.choice((1, st)) for st in steps))
    if oracle_from_bboxset(r.refine(fr), cap=point_cap).points != a.refine(fr).points:
        return fail("refine")
    return None


def grid_of_boxes(n: int, dim: int) -> list[BBox]:
    """n disjoint unit-spaced boxes arranged on a d-dimensional grid."""
    side = max(1, round(n ** (1.0 / dim)))
    while side ** dim < n:
        side += 1
    boxes = []
    st = Stride.ones(dim)
    for idx in range(n):
        rest, coord = idx, []
        for _ in range(dim):
            coord.append(rest % side)
            rest //= side
        lo = tuple(4 * c for c in coord)          # 3-wide boxes, 1-point gaps
        up = tuple(4 * c + 2 for c in coord)
        boxes.append(BBox(Point(lo), Point(up), st))
    return boxes
