"""Deliberately naive list-of-boxes set, the benchmark baseline.

Keeps a normalized (pairwise disjoint) list and inserts one box at a time by
subtracting every existing box from it, so building a union of n boxes scans
O(n) list entries per insert: O(n^2) overall.  This is the representation the
derivative trees replace; it exists to make the scaling comparison honest.
Each box is checked once, when it is added; the list keeps raw corner tuples.
"""
from operator import gt

from .lattice import BBox, Point, check_dims


def box_minus(a: tuple, b: tuple, steps: tuple[int, ...]) -> list[tuple]:
    """a \\ b as disjoint (lower, upper) corner pairs, a and b on one sub-lattice."""
    (alo, aup), (blo, bup) = a, b
    if any(map(gt, alo, bup)) or any(map(gt, blo, aup)):
        return [a]
    ilo, iup = tuple(map(max, alo, blo)), tuple(map(min, aup, bup))
    out, lo, up = [], list(alo), list(aup)
    for i, s in enumerate(steps):
        if lo[i] < ilo[i]:
            out.append((tuple(lo), (*up[:i], ilo[i] - s, *up[i + 1:])))
        if up[i] > iup[i]:
            out.append(((*lo[:i], iup[i] + s, *lo[i + 1:]), tuple(up)))
        lo[i], up[i] = ilo[i], iup[i]
    return out


class NaiveBoxList:
    """Disjoint box list with insert-by-subtraction union."""

    def __init__(self, dim: int):
        self.dim = dim
        self._first: BBox | None = None  # the first non-empty box, checked against once per add
        self._corners: list[tuple] = []

    @property
    def boxes(self) -> list[BBox]:
        return [BBox(Point(lo), Point(up), self._first.stride) for lo, up in self._corners]

    def add(self, box: BBox) -> None:
        check_dims(self.dim, box)
        if box.is_empty:
            return
        if self._first is None:
            self._first = box
        box.intersect(self._first)  # raises unless box has the list's stride and sub-lattice
        pieces, steps = [(box.lower.coords, box.upper.coords)], box.stride.steps
        for existing in self._corners:
            pieces = [q for piece in pieces for q in box_minus(piece, existing, steps)]
            if not pieces:
                return
        self._corners.extend(pieces)

    def union_all(self, boxes) -> "NaiveBoxList":
        for b in boxes:
            self.add(b)
        return self
