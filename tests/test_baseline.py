"""The naive box-list baseline against the earlier BBox-based route and the oracle."""
import random

import pytest

from stencilrt.baseline import NaiveBoxList
from stencilrt.lattice import BBox, Point, Stride, UsageError
from stencilrt.oracle import PointSet


# -- reference: the earlier route, cutting checked BBox objects pair by pair ---

def ref_box_minus(a: BBox, b: BBox) -> list[BBox]:
    inter = a.intersect(b)
    if inter.is_empty:
        return [a]
    out = []
    lo = list(a.lower.coords)
    up = list(a.upper.coords)
    for i in range(a.dim):
        s = a.stride.steps[i]
        if lo[i] < inter.lower.coords[i]:
            part_lo, part_up = lo.copy(), up.copy()
            part_up[i] = inter.lower.coords[i] - s
            out.append(BBox(Point(tuple(part_lo)), Point(tuple(part_up)), a.stride))
            lo[i] = inter.lower.coords[i]
        if up[i] > inter.upper.coords[i]:
            part_lo, part_up = lo.copy(), up.copy()
            part_lo[i] = inter.upper.coords[i] + s
            out.append(BBox(Point(tuple(part_lo)), Point(tuple(part_up)), a.stride))
            up[i] = inter.upper.coords[i]
    return out


class RefNaiveBoxList:
    def __init__(self, dim: int):
        self.dim = dim
        self.boxes: list[BBox] = []

    def add(self, box: BBox) -> None:
        if box.dim != self.dim:
            raise UsageError(f"dimension mismatch: {self.dim} vs {box.dim}")
        if box.is_empty:
            return
        pieces = [box]
        for existing in self.boxes:
            pieces = [q for piece in pieces for q in ref_box_minus(piece, existing)]
            if not pieces:
                return
        self.boxes.extend(pieces)

    def union_all(self, boxes) -> "RefNaiveBoxList":
        for b in boxes:
            self.add(b)
        return self


# -- inputs ---------------------------------------------------------------------

def random_input(rng: random.Random) -> tuple[int, list[BBox]]:
    """Overlapping boxes on one sub-lattice (negative corners, some empty)."""
    dim = rng.randint(1, 4)
    steps = tuple(rng.randint(1, 3) for _ in range(dim))
    off = tuple(rng.randrange(s) for s in steps)
    span = (12, 8, 5, 4)[dim - 1]
    boxes = []
    for _ in range(rng.randint(0, 12)):
        lo = tuple(o + s * rng.randint(-span // 2, span // 2) for o, s in zip(off, steps))
        up = tuple(l + s * rng.randint(-1, span // 2) for l, s in zip(lo, steps))
        boxes.append(BBox(Point(lo), Point(up), Stride(steps)))
    return dim, boxes


def test_boxes_match_reference_and_oracle():
    rng = random.Random(80_001)
    for case in range(400):
        dim, boxes = random_input(rng)
        got = NaiveBoxList(dim).union_all(boxes).boxes
        assert got == RefNaiveBoxList(dim).union_all(boxes).boxes, case
        live = [b for b in boxes if not b.is_empty]
        if not live:
            assert got == []
            continue
        st = live[0].stride
        union = PointSet.from_bboxes(live, dim=dim, stride=st)
        pieces = PointSet.from_bboxes(got, dim=dim, stride=st)
        assert pieces.points == union.points, case
        # pairwise disjoint exactly when the volumes sum to the size of the union
        assert sum(b.point_count() for b in got) == len(union.points), f"{case}: overlapping output"


S11 = Stride((1, 1))
S21 = Stride((2, 1))


@pytest.mark.parametrize("first, second, message", [
    (BBox(Point((0, 0)), Point((2, 2)), S11), BBox(Point((0,)), Point((2,)), Stride((1,))), "dimension mismatch"),
    (BBox(Point((0, 0)), Point((2, 2)), S11), BBox(Point((0, 0)), Point((2, 2)), S21), "stride mismatch"),
    (BBox(Point((0, 0)), Point((4, 2)), S21), BBox(Point((1, 0)), Point((5, 2)), S21), "different sub-lattices"),
    (BBox(Point((0, 0)), Point((4, 2)), S21), BBox(Point((41, 30)), Point((45, 32)), S21), "different sub-lattices"),
])
def test_mixed_input_rejected_like_reference(first, second, message):
    """The second box is rejected with the reference's error, disjoint or not,
    and the list is left as it was."""
    messages = []
    for cls in (NaiveBoxList, RefNaiveBoxList):
        boxes = cls(2).union_all([first])
        before = list(boxes.boxes)
        with pytest.raises(UsageError, match=message) as err:
            boxes.add(second)
        assert boxes.boxes == before
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_empty_boxes_skipped_before_lattice_check():
    boxes = NaiveBoxList(2).union_all([BBox.empty(2), BBox(Point((1, 0)), Point((3, 2)), S21), BBox.empty(2)])
    assert boxes.boxes == [BBox(Point((1, 0)), Point((3, 2)), S21)]
    assert NaiveBoxList(3).boxes == []
