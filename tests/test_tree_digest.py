"""Every tree of a seeded regrid chain, pinned by one digest.

The chain runs the set algebra the way a regrid step does: the union of
flag boxes around drifting cluster centres, a buffer grown by ``expand``,
the clip to the domain, the proper-nesting pass (``coarsen`` then
``refine``), both differences and the xor against the previous level, the
normalized boxes and point queries.  Any change to a tree's canonical form
or to an answer changes the digest, so a faster sweep that keeps the digest
builds the very trees the slower one did.
"""
import hashlib
import random

from stencilrt.bboxset import BBoxSet
from stencilrt.lattice import BBox, Point, Stride

# sha256 over every result of the three chains below
PINNED = "e84811702ef1d2c07cf3804de3c83aeca321ee1780fba8aa151a841246a73bca"


def _flag_boxes(rng, centres, extent, steps, per_centre):
    """Boxes of 1-6 strides per axis scattered around each centre; corners may
    fall a few strides outside the domain, as buffered flags do."""
    boxes = []
    for c in centres:
        for _ in range(per_centre):
            lo = [int(rng.gauss(x, 4.0 * s)) // s * s for x, s in zip(c, steps)]
            lo = [min(max(v, -2 * s), e) for v, s, e in zip(lo, steps, extent)]
            up = [v + rng.randint(0, 5) * s for v, s in zip(lo, steps)]
            boxes.append(BBox(Point(tuple(lo)), Point(tuple(up)), Stride(steps)))
    return boxes


def _chain(h, seed, extent, steps, n_steps, per_centre, factor):
    """Feed every result of n_steps regrid steps into the hash h."""
    rng = random.Random(seed)
    dim, stride = len(extent), Stride(steps)
    top = Point(tuple((e - 1) // s * s for e, s in zip(extent, steps)))
    domain = BBoxSet.from_bboxes([BBox(Point.zero(dim), top, stride)])
    centres = [[rng.uniform(0, e) for e in extent] for _ in range(4)]
    velocity = [[rng.gauss(0, 2.0) for _ in extent] for _ in centres]
    grow, f = Point((2,) * dim), Stride(factor)
    prev = BBoxSet.empty(dim, stride)

    def feed(tree):
        h.update(repr((tree.stride.steps, tree.offset.coords, tree.root)).encode())

    for _ in range(n_steps):
        for c, v in zip(centres, velocity):
            for axis, e in enumerate(extent):
                c[axis] = min(max(c[axis] + v[axis], 0.0), e - 1.0)
        flagged = BBoxSet.from_bboxes(_flag_boxes(rng, centres, extent, steps, per_centre), dim=dim, stride=stride)
        grown = flagged.expand(grow, grow)
        level = grown & domain
        coarse = level.coarsen(f)
        for tree in (flagged, grown, level, coarse, coarse.refine(f), level - prev, prev - level, level ^ prev):
            feed(tree)
        h.update(repr([(b.lower.coords, b.upper.coords) for b in level.to_bboxes()]).encode())
        queries = [Point(tuple(rng.randrange(-2, e + 2) for e in extent)) for _ in range(50)]
        h.update(bytes(level.contains(q) for q in queries))
        prev = level


def test_regrid_chain_trees_pinned():
    h = hashlib.sha256()
    _chain(h, 2101, (80, 80, 80), (1, 1, 1), 6, 40, (2, 2, 2))
    _chain(h, 2102, (90, 72), (2, 3), 6, 30, (2, 1))
    _chain(h, 2103, (16, 14, 12, 12), (1, 1, 1, 1), 3, 8, (2, 2, 1, 2))
    assert h.hexdigest() == PINNED
