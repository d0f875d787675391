"""Sets of lattice points stored as nested discrete derivatives.

A d-dimensional set is represented by its discrete derivative along the last
axis: an ordered map from a coordinate n to the (d-1)-dimensional set that
toggles membership AT n (membership for coordinates >= n flips).  Each toggle
slice is itself stored the same way, down to dimension 1, where a slice is
the sorted tuple of its toggle coordinates: a point x is a member when an odd
number of them are <= x.  The derivative of a union of a few rectangles is
sparse (a box keeps only its 2^d corners), which is what makes the whole
algebra cheap.

Internally a node is a tuple: at dimension 1 the strictly increasing toggle
coordinates (k0, k1, ...), so its runs are [k0, k1), [k2, k3), ...; above,
(coordinate, child-node) pairs with strictly increasing coordinates and no
empty children.  The empty tuple is the empty node at every dimension, so
``not node`` tests emptiness.

Operations linear over xor (shift, refine, coarsen, symmetric difference)
are structural passes over the toggles.  Union, intersection and difference
run the sweep: advance over the merged toggle coordinates of both operands,
reconstruct the running operand slices by xor-accumulation, and store each
change of the result as computed from that coordinate's operand toggles
against the other operand's slice, never from the whole result slice.
At dimension 1, intersection and difference bisect each run of one operand
into the other's coordinates.  Expand is one union of grown runs: each run's
slice is dilated and its span grown, and _union_all, a balanced pairwise
union, merges the overlapping pieces.

``from_bboxes`` builds its tree in one event sweep over the boxes' bounds
along the last axis: at each bound the slice is the union of the active
boxes' projections, built by the same sweep one axis down, and a change is
stored where the slice changed (the union of a box list is Klee's measure
problem; van Leeuwen & Wood, J. Algorithms 1981).  An event costs about its
active count, so where that summed count passes n log2 n (boxes active at
most events, as in staggered slabs) the boxes are unioned pairwise instead.
Expand keeps _union_all: its grown runs overlap their neighbours, and every
event-sweep form measured on them (a full union of the active runs at each
event, the same with a two-stack window, a three-level prism sweep) was
slower or no faster.

Queries read a runs table that each set builds once, on first use, and keeps
for its lifetime: for every node, the sorted run starts, the run stops and the
tables of the run slices.  ``contains`` bisects down it, ``to_bboxes`` reads
the corners from it, and ``point_count`` sums the boxes ``to_bboxes`` returns.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import add, itemgetter, mod, sub
from typing import Iterable, Iterator

from .lattice import (SET_OPS, BBox, Point, Stride, check_boxes, check_dims, check_expand, check_op, check_operands,
                      check_refine, format_bbox, parse_bbox)

UNION, INTERSECTION, DIFFERENCE, XOR = SET_OPS

# (op for an A toggle against B's slice, op for a B toggle against A's): the
# points of the toggle where the result flips with that operand's membership
_DELTA_OPS = {
    UNION: (DIFFERENCE, DIFFERENCE),
    INTERSECTION: (INTERSECTION, INTERSECTION),
    DIFFERENCE: (DIFFERENCE, INTERSECTION),
}

_Node = tuple  # (k0, k1, ...) at dim 1, ((int, _Node), ...) above
# (starts, stops, child tables) at dim >= 2; the node itself at dim 1
_Table = tuple


def _xor_1d(a: _Node, b: _Node) -> _Node:
    """Merge of two coordinate tuples in which equal keys cancel."""
    if not a:
        return b
    if not b:
        return a
    out = []
    ia, ib, na, nb = 0, 0, len(a), len(b)
    while ia < na and ib < nb:
        ka = a[ia]
        kb = b[ib]
        if ka < kb:
            out.append(ka)
            ia += 1
        elif kb < ka:
            out.append(kb)
            ib += 1
        else:
            ia += 1
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return tuple(out)


def _xor_nodes(a: _Node, b: _Node, dim: int) -> _Node:
    """Structural merge: symmetric difference applied directly to derivatives."""
    if dim == 1:
        return _xor_1d(a, b)
    if not a:
        return b
    if not b:
        return a
    out = []
    ia, ib, na, nb = 0, 0, len(a), len(b)
    while ia < na and ib < nb:
        ka, ca = a[ia]
        kb, cb = b[ib]
        if ka < kb:
            out.append(a[ia])
            ia += 1
        elif kb < ka:
            out.append(b[ib])
            ib += 1
        else:
            # canonical children cancel exactly when equal, and == runs in C
            if ca != cb:
                out.append((ka, _xor_1d(ca, cb) if dim == 2 else _xor_nodes(ca, cb, dim - 1)))
            ia += 1
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return tuple(out)


def _apply_nodes(op: str, a: _Node, b: _Node, dim: int) -> _Node:
    """The sweep: T := A (op) B by scanning merged toggle coordinates.

    Each stored change comes from the toggles alone: A toggling by dA with
    B's slice fixed changes T by dA & (f(1,B) ^ f(0,B)), and B toggling by dB
    against the updated A likewise (_DELTA_OPS).  Once either operand is
    spent its running slice is empty, so T follows the other one's toggles."""
    if not a or not b:
        return _tail(op, a, b)
    if dim == 1:
        return _apply_1d(op, a, b)
    d1 = dim - 1
    op_a, op_b = _DELTA_OPS[op]
    sub = _apply_1d if d1 == 1 else lambda o, x, y: _apply_nodes(o, x, y, d1)
    xor = _xor_1d if d1 == 1 else lambda x, y: _xor_nodes(x, y, d1)
    run_a = run_b = ()
    out = []
    ia, ib, na, nb = 0, 0, len(a), len(b)
    while ia < na and ib < nb:
        ka, da = a[ia]
        kb, db = b[ib]
        delta = ()
        if ka <= kb:
            delta = sub(op_a, da, run_b) if run_b else _tail(op_a, da, ())
            ia += 1
            # the last toggle empties the running slice: no need to xor it out
            run_a = (xor(run_a, da) if run_a else da) if ia < na else ()
        if kb <= ka:
            d = sub(op_b, db, run_a) if run_a else _tail(op_b, db, ())
            if d:
                delta = xor(delta, d) if delta else d
            ib += 1
            run_b = (xor(run_b, db) if run_b else db) if ib < nb else ()
        if delta:
            out.append((ka if ka < kb else kb, delta))
    return tuple(out) + _tail(op, a[ia:], b[ib:])


def _tail(op: str, a: _Node, b: _Node) -> _Node:
    """A op B where A or B is empty: the other's toggles, A's, or none."""
    return a + b if op == UNION else a if op == DIFFERENCE else ()


def _apply_1d(op: str, a: _Node, b: _Node) -> _Node:
    """Dimension-1 sweep over two coordinate tuples.

    Intersection and difference bisect each run [k0, k1) of a into b: b's
    toggles inside the run carry over, and k0 (k1) is kept where b's parity
    just at (before) it says the point is in b (intersection) or out
    (difference).  Union merges the two tuples with a parity bit each: a
    toggle flips the result where the other operand is off."""
    if op != UNION:
        keep = op == INTERSECTION
        out = []
        # iter/next beats zip over slices: most tuples hold one run
        it = iter(a)
        for k0 in it:
            k1 = next(it)
            i0 = bisect_right(b, k0)
            i1 = bisect_left(b, k1, i0)
            if (i0 & 1) == keep:
                out.append(k0)
            out += b[i0:i1]
            if (i1 & 1) == keep:
                out.append(k1)
        return tuple(out)
    run_a = run_b = False
    out = []
    ia, ib, na, nb = 0, 0, len(a), len(b)
    while ia < na and ib < nb:
        ka = a[ia]
        kb = b[ib]
        flip = False
        if ka <= kb:
            flip = not run_b
            run_a = not run_a
            ia += 1
        if kb <= ka:
            if not run_a:
                flip = not flip
            run_b = not run_b
            ib += 1
        if flip:
            out.append(ka if ka < kb else kb)
    return tuple(out) + a[ia:] + b[ib:]


def _shift_node(node: _Node, dim: int, v: tuple[int, ...]) -> _Node:
    dv = v[dim - 1]
    if dim == 1:
        return tuple(k + dv for k in node)
    d1 = dim - 1
    return tuple((k + dv, _shift_node(c, d1, v)) for k, c in node)


def _leaf_count(node: _Node, dim: int) -> int:
    if dim == 1:
        return len(node)
    return sum(_leaf_count(c, dim - 1) for _, c in node)


def _leaf_points(node: _Node, dim: int) -> list[tuple[int, ...]]:
    if dim == 1:
        return [(k,) for k in node]
    return [prefix + (k,) for k, child in node for prefix in _leaf_points(child, dim - 1)]


def _runs(node: _Node, dim: int) -> Iterator[tuple[int, int, _Node]]:
    """Yield (start, stop, slice) for each non-empty slice along the last
    axis of a node above dimension 1 (at dimension 1 the runs are the key
    pairs, zip(node[0::2], node[1::2]))."""
    d1 = dim - 1
    run = ()
    # the last toggle closes the last run and empties the slice
    for j in range(len(node) - 1):
        run = _xor_nodes(run, node[j][1], d1)
        if run:
            yield node[j][0], node[j + 1][0], run


def _refine_node(node: _Node, dim: int, old_steps: tuple[int, ...], new_steps: tuple[int, ...]) -> _Node:
    """Re-encode the same membership on a finer stride: each run's slice is
    refined, and each position k, k+s, ... of a run on a stride that changes
    becomes its own on/off toggle pair sharing that refined slice."""
    d1 = dim - 1
    so, sn = old_steps[d1], new_steps[d1]
    if dim == 1:
        if so == sn:
            return node
        return tuple(k for start, stop in zip(node[0::2], node[1::2])
                     for p in range(start, stop, so) for k in (p, p + sn))
    if so == sn:
        return tuple((k, _refine_node(c, d1, old_steps, new_steps)) for k, c in node)
    out = []
    for start, stop, run in _runs(node, dim):
        fine = _refine_node(run, d1, old_steps, new_steps)
        for p in range(start, stop, so):
            out.append((p, fine))
            out.append((p + sn, fine))
    return tuple(out)


def _coarsen_node(node: _Node, dim: int, offset: tuple[int, ...], new_steps: tuple[int, ...]) -> _Node:
    """Restrict to the coarse lattice through offset: each toggle key moves up
    to the next coarse coordinate, which keeps membership at every coarse
    point since k <= n iff the moved key is; toggles that collide merge by
    xor (at dimension 1 they cancel)."""
    d1 = dim - 1
    o, ns = offset[d1], new_steps[d1]
    out = []
    if dim == 1:
        for k in node:
            k += (o - k) % ns
            if out and out[-1] == k:
                out.pop()
            else:
                out.append(k)
        return tuple(out)
    for k, child in node:
        k += (o - k) % ns
        c = _coarsen_node(child, d1, offset, new_steps)
        if out and out[-1][0] == k:
            c = _xor_nodes(out.pop()[1], c, d1)
        if c:
            out.append((k, c))
    return tuple(out)


def _expand_node(node: _Node, dim: int, lo: tuple[int, ...], hi: tuple[int, ...], steps: tuple[int, ...]) -> _Node:
    """Dilate by lo/hi steps: each run's slice is dilated and its span grown
    to [start - lo*s, stop + hi*s); the union of the grown runs merges them.
    At dimension 1 the grown runs arrive in order, so one pass merges them."""
    d1 = dim - 1
    down, up = lo[d1] * steps[d1], hi[d1] * steps[d1]
    if dim == 1:
        out = []
        for start, stop in zip(node[0::2], node[1::2]):
            if out and start - down <= out[-1]:
                out[-1] = stop + up
            else:
                out.append(start - down)
                out.append(stop + up)
        return tuple(out)
    grown = []
    for start, stop, run in _runs(node, dim):
        run = _expand_node(run, d1, lo, hi, steps)
        grown.append(((start - down, run), (stop + up, run)))
    return _union_all(grown, dim) if grown else ()


def _union_boxes(boxes: list[tuple[tuple[int, int], ...]], dim: int) -> _Node:
    """The union of boxes given as per-axis [lo, hi) intervals, by one event
    sweep along the last axis (see the module docstring).  The sweep runs
    while the active counts summed over the events, counted box by box, stay
    within n log2 n; past that (boxes active at most events, where it would
    cost up to n^2) _union_all unions the single-box trees pairwise."""
    if dim == 1:
        return _merge_intervals([b[0] for b in boxes])
    n, d1 = len(boxes), dim - 1
    if n == 1:
        return _box_node(boxes[0], dim)
    spans = [b[d1] for b in boxes]
    keys = sorted({k for span in spans for k in span})
    at = {k: j for j, k in enumerate(keys)}
    starts = [[] for _ in keys]
    budget = n * n.bit_length()
    for b, (lo, hi) in zip(boxes, spans):
        j = at[lo]
        starts[j].append(b)
        budget -= at[hi] - j
        if budget < 0:
            return _union_all([_box_node(b, dim) for b in boxes], dim)
    active, out, prev = [], [], ()
    for k, new in zip(keys, starts):
        active = [b for b in active if b[d1][1] > k]
        active += new
        cur = _union_boxes(active, d1) if active else ()
        if cur != prev:
            out.append((k, _xor_nodes(prev, cur, d1)))
            prev = cur
    return tuple(out)


def _merge_intervals(intervals: list[tuple[int, int]]) -> _Node:
    """The dimension-1 node of a union of [lo, hi) intervals."""
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1]:
            if hi > out[-1]:
                out[-1] = hi
        else:
            out.append(lo)
            out.append(hi)
    return tuple(out)


def _box_node(box: tuple[tuple[int, int], ...], dim: int) -> _Node:
    """Derivative tree of a single box: toggle on at lower, off at upper."""
    lo, hi = box[dim - 1]
    if dim == 1:
        return (lo, hi)
    child = _box_node(box, dim - 1)
    return ((lo, child), (hi, child))


def _union_all(nodes: list[_Node], dim: int) -> _Node:
    """Balanced pairwise union of one or more trees, near O(n log n) for n boxes."""
    while len(nodes) > 1:
        merged = [_apply_nodes(UNION, nodes[i], nodes[i + 1], dim) for i in range(0, len(nodes) - 1, 2)]
        if len(nodes) % 2:
            merged.append(nodes[-1])
        nodes = merged
    return nodes[0]


def _build_table(node: _Node, dim: int) -> _Table:
    """The runs table of a node: one walk of its runs, all the way down."""
    if dim == 1:
        return node
    starts, stops, kids = [], [], []
    for start, stop, run in _runs(node, dim):
        starts.append(start)
        stops.append(stop)
        kids.append(_build_table(run, dim - 1))
    return tuple(starts), tuple(stops), tuple(kids)


def _table_contains(table: _Table, dim: int, p: tuple[int, ...]) -> bool:
    """Bisect down the runs that hold p's coordinates, last axis first."""
    while dim > 1:
        starts, stops, kids = table
        x = p[dim - 1]
        i = bisect_right(starts, x) - 1
        if i < 0 or x >= stops[i]:
            return False
        table = kids[i]
        dim -= 1
    return bisect_right(table, p[0]) & 1 == 1


def _table_corners(table: _Table, dim: int, steps: tuple[int, ...], lo: tuple[int, ...] = (),
                   up: tuple[int, ...] = (), out: list | None = None) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Canonical normalization: (lower, upper) corner pairs, disjoint and exact.

    Each maximal run of coordinates with a constant non-empty slice extrudes
    that slice's own normalized boxes.  Runs end exactly at stored toggles, so
    no further merging is possible.  The coordinates of the enclosing runs
    come down as the corners' tails lo and up, so each corner is built once,
    into out.
    """
    if out is None:
        out = []
    s = steps[dim - 1]
    if dim == 1:
        out += [((start,) + lo, (stop - s,) + up) for start, stop in zip(table[0::2], table[1::2])]
        return out
    for start, stop, kid in zip(*table):
        _table_corners(kid, dim - 1, steps, (start,) + lo, (stop - s,) + up, out)
    return out


@dataclass(frozen=True, slots=True)
class BBoxSet:
    """An immutable set of lattice points on one sub-lattice.

    All operations are pure functions returning new sets; values are safe to
    share between threads.  Binary operations require compatible operands:
    same dimension, same stride, and same sub-lattice anchor (the anchor of
    an empty set is a wildcard).  The runs table is assigned once, fully
    built, so a thread sees either none or all of it.
    """

    dim: int
    stride: Stride
    offset: Point
    root: _Node = field(repr=False)
    _table: _Table | None = field(default=None, init=False, repr=False, compare=False)

    # -- construction ------------------------------------------------------

    @staticmethod
    def empty(dim: int, stride: Stride | None = None) -> "BBoxSet":
        return BBoxSet.from_bboxes((), dim, stride)

    @staticmethod
    def from_bboxes(boxes: Iterable[BBox], dim: int | None = None, stride: Stride | None = None) -> "BBoxSet":
        """Union of the given boxes (overlap allowed), as lattice.check_boxes admits them."""
        live, dim, stride, anchor = check_boxes(boxes, dim, stride)
        steps = stride.steps
        spans = [tuple(zip(b.lower.coords, map(add, b.upper.coords, steps))) for b in live]
        root = _union_boxes(spans, dim) if live else ()
        return _wrap(dim, stride, anchor, root)

    @staticmethod
    def from_text(text: str, dim: int | None = None, stride: Stride | None = None) -> "BBoxSet":
        boxes = [parse_bbox(line) for line in text.splitlines() if line.strip()]
        return BBoxSet.from_bboxes(boxes, dim=dim, stride=stride)

    # -- queries -----------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.root

    def _runs_table(self) -> _Table:
        table = self._table
        if table is None:
            table = _build_table(self.root, self.dim)
            object.__setattr__(self, "_table", table)
        return table

    def contains(self, p: Point) -> bool:
        check_dims(self.dim, p)
        if any(map(mod, map(sub, p.coords, self.offset.coords), self.stride.steps)):
            return False  # off the set's sub-lattice
        return _table_contains(self._runs_table(), self.dim, p.coords)

    def to_bboxes(self) -> list[BBox]:
        """Canonical disjoint box decomposition, sorted by (lower, upper)."""
        corners = _table_corners(self._runs_table(), self.dim, self.stride.steps)
        corners.sort(key=itemgetter(0))  # disjoint boxes: no two share a lower corner
        box, point, stride = BBox._trusted, Point._trusted, self.stride
        return [box(point(lo), point(up), stride) for lo, up in corners]

    def to_text(self) -> str:
        return "\n".join(format_bbox(b) for b in self.to_bboxes())

    def point_count(self) -> int:
        return sum(b.point_count() for b in self.to_bboxes())

    def derivative_element_count(self) -> int:
        """Number of toggle leaves in the derivative tree (= |dR| as a point set)."""
        return _leaf_count(self.root, self.dim)

    def derivative_points(self) -> list[Point]:
        """Coordinates of the derivative leaves (test plumbing)."""
        return [Point(c) for c in _leaf_points(self.root, self.dim)]

    def equals(self, other: "BBoxSet") -> bool:
        check_operands(self, other)
        return not _xor_nodes(self.root, other.root, self.dim)

    # -- set algebra -------------------------------------------------------

    def apply(self, op: str, other: "BBoxSet") -> "BBoxSet":
        """Binary set operation evaluated by the dimensional-recursion sweep
        (xor by the structural merge)."""
        check_op(op)
        if op == XOR:
            return self.symmetric_difference(other)
        off = check_operands(self, other)
        return _wrap(self.dim, self.stride, off, _apply_nodes(op, self.root, other.root, self.dim))

    def union(self, other: "BBoxSet") -> "BBoxSet":
        return self.apply(UNION, other)

    def intersection(self, other: "BBoxSet") -> "BBoxSet":
        return self.apply(INTERSECTION, other)

    def difference(self, other: "BBoxSet") -> "BBoxSet":
        return self.apply(DIFFERENCE, other)

    def symmetric_difference(self, other: "BBoxSet") -> "BBoxSet":
        """Fast xor: structural merge of the derivative trees, no sweep."""
        off = check_operands(self, other)
        return _wrap(self.dim, self.stride, off, _xor_nodes(self.root, other.root, self.dim))

    __or__ = union
    __and__ = intersection
    __sub__ = difference
    __xor__ = symmetric_difference

    def complement_within(self, hull: BBox) -> "BBoxSet":
        """Complement relative to an explicit hull box (unbounded complement is not representable)."""
        hull_set = BBoxSet.from_bboxes([hull], dim=self.dim, stride=self.stride)
        return hull_set.difference(self)

    # -- geometry ----------------------------------------------------------

    def shift(self, v: Point) -> "BBoxSet":
        check_dims(self.dim, v)
        off = Point(tuple((o + dv) % s for o, dv, s in zip(self.offset.coords, v.coords, self.stride.steps)))
        return _wrap(self.dim, self.stride, off, _shift_node(self.root, self.dim, v.coords))

    def expand(self, lo: Point, hi: Point) -> "BBoxSet":
        """Dilate by lo/hi stride steps per dimension (non-negative only)."""
        check_expand(self.dim, lo, hi)
        root = _expand_node(self.root, self.dim, lo.coords, hi.coords, self.stride.steps)
        return _wrap(self.dim, self.stride, self.offset, root)

    def coarsen(self, factor: Stride) -> "BBoxSet":
        """Keep only points on the coarser sub-lattice (stride * factor, same anchor)."""
        check_dims(self.dim, factor)
        new_steps = tuple(s * f for s, f in zip(self.stride.steps, factor.steps))
        # the anchor, below the old stride, is a coarse-lattice coordinate too
        root = _coarsen_node(self.root, self.dim, self.offset.coords, new_steps)
        return _wrap(self.dim, Stride(new_steps), self.offset, root)

    def refine(self, factor: Stride) -> "BBoxSet":
        """Make a finer lattice available: stride / factor, membership unchanged."""
        check_refine(self.stride, factor)
        new_steps = tuple(s // f for s, f in zip(self.stride.steps, factor.steps))
        off = Point(tuple(o % ns for o, ns in zip(self.offset.coords, new_steps)))
        root = _refine_node(self.root, self.dim, self.stride.steps, new_steps)
        return _wrap(self.dim, Stride(new_steps), off, root)


def _wrap(dim: int, stride: Stride, offset: Point, root: _Node) -> BBoxSet:
    if not root:
        return BBoxSet(dim, stride, Point.zero(dim), ())
    return BBoxSet(dim, stride, offset, root)
