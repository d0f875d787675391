"""Random operands and the oracle cross-check of the set algebra, shared by
the ``setops-check``/``setops-bench`` subcommands and the tests."""
from __future__ import annotations

import random
from typing import Callable

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

    Returns None on agreement, else a reproduction message that lists the
    box lists shrunk to a small pair on which the same check still fails.
    """
    rng = random.Random(seed)
    steps = tuple(rng.choice((1, 1, 2)) for _ in range(dim))
    hull = tuple(rng.randint(4, max_extent) for _ in range(dim))
    boxes_r = random_boxes(rng, hull, steps, rng.randint(0, max_boxes))
    boxes_s = random_boxes(rng, hull, steps, rng.randint(0, max_boxes))
    v = Point(tuple(rng.randint(-3, 3) * st for st in steps))
    lo = Point(tuple(rng.randint(0, 1) for _ in range(dim)))
    hi = Point(tuple(rng.randint(0, 1) for _ in range(dim)))
    f = Stride(tuple(rng.choice((1, 2, 3)) for _ in range(dim)))
    fr = Stride(tuple(rng.choice((1, st)) for st in steps))

    def mismatch(r_boxes: list[BBox], s_boxes: list[BBox]) -> str | None:
        return _first_mismatch(r_boxes, s_boxes, dim, Stride(steps), v, lo, hi, f, fr, point_cap)

    what = mismatch(boxes_r, boxes_s)
    if what is None:
        return None
    tagged = [(0, b) for b in boxes_r] + [(1, b) for b in boxes_s]
    split = lambda items: ([b for k, b in items if k == 0], [b for k, b in items if k == 1])
    small = _ddmin(tagged, lambda items: mismatch(*split(items)) == what)
    small_r, small_s = split(small)
    lines = [f"mismatch in {what} (seed={seed}, dim={dim}; "
             f"shrunk from {len(tagged)} to {len(small)} boxes)",
             "R boxes:"] + [f"  {format_bbox(b)}" for b in small_r] + \
            ["S boxes:"] + [f"  {format_bbox(b)}" for b in small_s]
    return "\n".join(lines)


def _first_mismatch(boxes_r: list[BBox], boxes_s: list[BBox], dim: int, stride: Stride,
                    v: Point, lo: Point, hi: Point, f: Stride, fr: Stride, point_cap: int) -> str | None:
    """The first check in which the tree and the oracle disagree, or None."""
    r = BBoxSet.from_bboxes(boxes_r, dim=dim, stride=stride)
    s = BBoxSet.from_bboxes(boxes_s, dim=dim, stride=stride)
    a = PointSet.from_bboxes(boxes_r, dim=dim, stride=stride, cap=point_cap)
    b = PointSet.from_bboxes(boxes_s, dim=dim, stride=stride, cap=point_cap)
    decoded = oracle_from_bboxset(r, cap=point_cap)
    if decoded.points != a.points or oracle_from_bboxset(s, cap=point_cap).points != b.points:
        return "from_bboxes"
    # disjoint exactly when the box volumes sum to the size of their union
    if sum(box.point_count() for box in r.to_bboxes()) != decoded.point_count():
        return "to_bboxes (overlap)"

    for op in SET_OPS:
        if oracle_from_bboxset(r.apply(op, s), cap=point_cap).points != a.op(op, b).points:
            return op
    if oracle_from_bboxset(r.symmetric_difference(s), cap=point_cap).points != a.symmetric_difference(b).points:
        return "symmetric_difference (fast path)"
    if oracle_from_bboxset(r.shift(v), cap=point_cap).points != a.shift(v).points:
        return "shift"
    if oracle_from_bboxset(r.expand(lo, hi), cap=point_cap).points != a.expand(lo, hi, cap=point_cap).points:
        return "expand"
    if oracle_from_bboxset(r.coarsen(f), cap=point_cap).points != a.coarsen(f).points:
        return "coarsen"
    if oracle_from_bboxset(r.refine(fr), cap=point_cap).points != a.refine(fr).points:
        return "refine"
    return None


CHAIN_STEPS = ("from_bboxes", "expand", "& hull", "coarsen", "refine", "- previous level")


def check_chain(seed: int, dim: int, max_boxes: int, max_extent: int,
                point_cap: int = DEFAULT_POINT_CAP) -> str | None:
    """One seeded regrid-like chain on the tree and on the oracle in step:
    the union of flag boxes, grown by a buffer, clipped to the domain hull,
    coarsened onto a parent lattice and refined back, minus the previous
    level (the same chain on other flags, up to the clip).

    Returns None when every step agrees, else the first step that differs."""
    rng = random.Random(seed)
    steps = tuple(rng.choice((1, 1, 2, 3)) for _ in range(dim))
    extent = tuple(rng.randint(4, max_extent) for _ in range(dim))
    stride = Stride(steps)
    hull = [BBox(Point((0,) * dim), Point(tuple((e - 1) // s * s for e, s in zip(extent, steps))), stride)]
    flags = random_boxes(rng, extent, steps, rng.randint(0, max_boxes))
    previous = random_boxes(rng, extent, steps, rng.randint(0, max_boxes))
    grow = Point(tuple(rng.randint(0, 2) for _ in range(dim)))
    factor = Stride(tuple(rng.choice((1, 2, 3)) for _ in range(dim)))

    def chain(build, grown):
        """The sets after each step, built by one implementation."""
        domain = build(hull)
        old = grown(build(previous)).intersection(domain)
        out = [build(flags)]
        for step in (grown, lambda x: x.intersection(domain), lambda x: x.coarsen(factor),
                     lambda x: x.refine(factor), lambda x: x.difference(old)):
            out.append(step(out[-1]))
        return out

    trees = chain(lambda boxes: BBoxSet.from_bboxes(boxes, dim=dim, stride=stride),
                  lambda x: x.expand(grow, grow))
    points = chain(lambda boxes: PointSet.from_bboxes(boxes, dim=dim, stride=stride, cap=point_cap),
                   lambda x: x.expand(grow, grow, cap=point_cap))
    for name, tree, want in zip(CHAIN_STEPS, trees, points):
        if oracle_from_bboxset(tree, cap=point_cap).points != want.points:
            return (f"mismatch in {name} (seed={seed}, dim={dim}): flags "
                    f"{' '.join(map(format_bbox, flags))}; previous {' '.join(map(format_bbox, previous))}")
    return None


def _ddmin(items: list, fails: Callable[[list], bool]) -> list:
    """Delta debugging (Zeller & Hildebrandt, TSE 2002): a sublist of a failing
    list on which fails() still holds and from which no single chunk of the
    final granularity can be dropped."""
    n = 2
    while len(items) >= 2:
        size = -(-len(items) // n)
        chunks = [items[i:i + size] for i in range(0, len(items), size)]
        smaller = next((c for c in chunks if fails(c)), None)
        if smaller is not None:
            items, n = smaller, 2
            continue
        if len(chunks) > 2:  # of two chunks each is the complement of the other
            rests = ([x for j, c in enumerate(chunks) if j != k for x in c] for k in range(len(chunks)))
            smaller = next((r for r in rests if fails(r)), None)
            if smaller is not None:
                items, n = smaller, max(n - 1, 2)
                continue
        if n >= len(items):
            break
        n = min(2 * n, len(items))
    return items


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
