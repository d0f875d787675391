"""Sets of lattice points stored as nested discrete derivatives.

A d-dimensional set is represented by its discrete derivative along the last
axis: an ordered map from a coordinate n to the (d-1)-dimensional set that
toggles membership AT n (membership for coordinates >= n flips).  Each toggle
slice is itself stored the same way, down to a single boolean at dimension 0.
The derivative of a union of a few rectangles is sparse (a box keeps only its
2^d corners), which is what makes the whole algebra cheap.

Internally a node is either a bool (dimension 0) or a tuple of (coordinate,
child-node) pairs with strictly increasing coordinates and no empty children.
An empty tuple and False are both falsy, so ``not node`` tests emptiness at
any dimension.

Operations linear over xor (shift, refine, coarsen, symmetric difference)
are structural passes over the toggles.  Union, intersection and difference
run the sweep: advance over the merged toggle coordinates of both operands,
reconstruct the running operand slices by xor-accumulation, and store each
change of the result as computed from that coordinate's operand toggles
against the other operand's slice, never from the whole result slice.
Expand is one union of grown runs: each run's slice is dilated and its span
grown, and the union sweep merges the overlapping pieces.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .lattice import BBox, Point, Stride, UsageError, format_bbox, parse_bbox

UNION = "union"
INTERSECTION = "intersection"
DIFFERENCE = "difference"
XOR = "xor"

_BOOL_OPS: dict[str, Callable[[bool, bool], bool]] = {
    UNION: lambda a, b: a or b,
    INTERSECTION: lambda a, b: a and b,
    DIFFERENCE: lambda a, b: a and not b,
    XOR: lambda a, b: a is not b,
}

SET_OPS = tuple(_BOOL_OPS)

# (op for an A toggle against B's slice, op for a B toggle against A's): the
# points of the toggle where the result flips with that operand's membership
_DELTA_OPS = {
    UNION: (DIFFERENCE, DIFFERENCE),
    INTERSECTION: (INTERSECTION, INTERSECTION),
    DIFFERENCE: (DIFFERENCE, INTERSECTION),
}

_Node = object  # bool at dim 0, tuple[(int, _Node), ...] above


def _empty_node(dim: int) -> _Node:
    return False if dim == 0 else ()


def _xor_nodes(a: _Node, b: _Node, dim: int) -> _Node:
    """Structural merge: symmetric difference applied directly to derivatives."""
    if dim == 0:
        return a is not b
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
            child = _xor_nodes(ca, cb, dim - 1)
            if child:
                out.append((ka, child))
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
    if dim == 0:
        return _BOOL_OPS[op](a, b)
    if not a or not b:
        return _tail(op, a, b)
    if dim == 1:
        return _apply_1d(op, a, b)
    d1 = dim - 1
    op_a, op_b = _DELTA_OPS[op]
    run_a = run_b = empty = _empty_node(d1)
    out = []
    ia, ib, na, nb = 0, 0, len(a), len(b)
    while ia < na and ib < nb:
        ka, da = a[ia]
        kb, db = b[ib]
        delta = empty
        if ka <= kb:
            delta = _apply_nodes(op_a, da, run_b, d1)
            ia += 1
            # the last toggle empties the running slice: no need to xor it out
            run_a = _xor_nodes(run_a, da, d1) if ia < na else empty
        if kb <= ka:
            delta = _xor_nodes(delta, _apply_nodes(op_b, db, run_a, d1), d1)
            ib += 1
            run_b = _xor_nodes(run_b, db, d1) if ib < nb else empty
        if delta:
            out.append((ka if ka < kb else kb, delta))
    return tuple(out) + _tail(op, a[ia:], b[ib:])


def _tail(op: str, a: _Node, b: _Node) -> _Node:
    """A op B where A or B is empty: the other's toggles, A's, or none."""
    return a + b if op == UNION else a if op == DIFFERENCE else ()


def _apply_1d(op: str, a: _Node, b: _Node) -> _Node:
    """Dimension-1 sweep with plain parity bits (children are booleans)."""
    # a toggle flips the result where the other operand is off (DIFFERENCE)
    # or on (INTERSECTION)
    op_a, op_b = _DELTA_OPS[op]
    off_a, off_b = op_a == DIFFERENCE, op_b == DIFFERENCE
    run_a = run_b = False
    out = []
    ia, ib, na, nb = 0, 0, len(a), len(b)
    while ia < na and ib < nb:
        ka = a[ia][0]
        kb = b[ib][0]
        flip = False
        if ka <= kb:
            flip = run_b is not off_a
            run_a = not run_a
            ia += 1
        if kb <= ka:
            if run_a is not off_b:
                flip = not flip
            run_b = not run_b
            ib += 1
        if flip:
            out.append((ka if ka < kb else kb, True))
    return tuple(out) + _tail(op, a[ia:], b[ib:])


def _box_node(box: BBox, dim: int) -> _Node:
    """Derivative tree of a single box: toggle on at lower, off past upper."""
    if dim == 0:
        return True
    child = _box_node(box, dim - 1)
    lo = box.lower.coords[dim - 1]
    hi = box.upper.coords[dim - 1]
    s = box.stride.steps[dim - 1]
    return ((lo, child), (hi + s, child))


def _shift_node(node: _Node, dim: int, v: tuple[int, ...]) -> _Node:
    if dim == 0:
        return node
    dv = v[dim - 1]
    d1 = dim - 1
    return tuple((k + dv, _shift_node(c, d1, v)) for k, c in node)


def _contains_node(node: _Node, dim: int, p: tuple[int, ...]) -> bool:
    if dim == 0:
        return node
    x = p[dim - 1]
    parity = False
    for k, child in node:
        if k > x:
            break
        if _contains_node(child, dim - 1, p):
            parity = not parity
    return parity


def _leaf_count(node: _Node, dim: int) -> int:
    if dim == 0:
        return 1 if node else 0
    return sum(_leaf_count(c, dim - 1) for _, c in node)


def _leaf_points(node: _Node, dim: int) -> list[tuple[int, ...]]:
    if dim == 0:
        return [()] if node else []
    return [prefix + (k,) for k, child in node for prefix in _leaf_points(child, dim - 1)]


def _runs(node: _Node, dim: int) -> Iterator[tuple[int, int, _Node]]:
    """Yield (start, stop, slice) for each non-empty slice along the last axis."""
    d1 = dim - 1
    run = _empty_node(d1)
    # the last toggle closes the last run and empties the slice
    for j in range(len(node) - 1):
        run = _xor_nodes(run, node[j][1], d1)
        if run:
            yield node[j][0], node[j + 1][0], run


def _refine_node(node: _Node, dim: int, old_steps: tuple[int, ...], new_steps: tuple[int, ...]) -> _Node:
    """Re-encode the same membership on a finer stride: each run's slice is
    refined, and each position k, k+s, ... of a run on a stride that changes
    becomes its own on/off toggle pair sharing that refined slice."""
    if dim == 0:
        return node
    d1 = dim - 1
    so, sn = old_steps[d1], new_steps[d1]
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
    point since k <= n iff the moved key is; toggles that collide merge by xor."""
    if dim == 0:
        return node
    d1 = dim - 1
    o, ns = offset[d1], new_steps[d1]
    out = []
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
    to [start - lo*s, stop + hi*s); the union of the grown runs merges them."""
    if dim == 0:
        return node
    d1 = dim - 1
    down, up = lo[d1] * steps[d1], hi[d1] * steps[d1]
    grown = []
    for start, stop, run in _runs(node, dim):
        run = _expand_node(run, d1, lo, hi, steps)
        grown.append(((start - down, run), (stop + up, run)))
    return _union_all(grown, dim) if grown else ()


def _node_boxes(node: _Node, dim: int, steps: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Canonical normalization: (lower, upper) corner pairs, disjoint and exact.

    Sweeps the last axis; each maximal run of coordinates with a constant
    non-empty slice extrudes that slice's own normalized boxes.  Runs end
    exactly at stored toggles, so no further merging is possible.
    """
    if dim == 0:
        return [((), ())] if node else []
    s = steps[dim - 1]
    return [(lo + (start,), up + (stop - s,))
            for start, stop, run in _runs(node, dim)
            for lo, up in _node_boxes(run, dim - 1, steps)]


def _union_all(nodes: list[_Node], dim: int) -> _Node:
    """Balanced pairwise union of one or more trees, near O(n log n) for n boxes."""
    while len(nodes) > 1:
        merged = [_apply_nodes(UNION, nodes[i], nodes[i + 1], dim) for i in range(0, len(nodes) - 1, 2)]
        if len(nodes) % 2:
            merged.append(nodes[-1])
        nodes = merged
    return nodes[0]


@dataclass(frozen=True, slots=True)
class BBoxSet:
    """An immutable set of lattice points on one sub-lattice.

    All operations are pure functions returning new sets; values are safe to
    share between threads.  Binary operations require compatible operands:
    same dimension, same stride, and same sub-lattice anchor (the anchor of
    an empty set is a wildcard).
    """

    dim: int
    stride: Stride
    offset: Point
    root: _Node = field(repr=False)

    # -- construction ------------------------------------------------------

    @staticmethod
    def empty(dim: int, stride: Stride | None = None) -> "BBoxSet":
        stride = stride if stride is not None else Stride.ones(dim)
        if stride.dim != dim:
            raise UsageError("stride dimension disagrees with set dimension")
        return BBoxSet(dim, stride, Point.zero(dim), _empty_node(dim))

    @staticmethod
    def from_bboxes(boxes: Iterable[BBox], dim: int | None = None, stride: Stride | None = None) -> "BBoxSet":
        """Union of the given boxes (overlap allowed).

        All non-empty boxes must share dimension, stride, and sub-lattice.
        dim/stride are only required when the box list has no non-empty entry.
        """
        live = [b for b in boxes if not b.is_empty]
        if not live:
            if dim is None:
                raise UsageError("cannot infer dimension of an empty box list")
            return BBoxSet.empty(dim, stride)
        first = live[0]
        if dim is not None and first.dim != dim:
            raise UsageError(f"dimension mismatch: boxes are {first.dim}d, requested {dim}d")
        if stride is not None and first.stride != stride:
            raise UsageError("stride mismatch between boxes and requested stride")
        off = tuple(l % s for l, s in zip(first.lower.coords, first.stride.steps))
        for b in live:
            if b.dim != first.dim:
                raise UsageError("boxes of mixed dimension")
            if b.stride != first.stride:
                raise UsageError("boxes of mixed stride")
            if tuple(l % s for l, s in zip(b.lower.coords, b.stride.steps)) != off:
                raise UsageError("boxes on different sub-lattices")
        d = first.dim
        root = _union_all([_box_node(b, d) for b in live], d)
        return _wrap(d, first.stride, Point(off), root)

    @staticmethod
    def from_text(text: str, dim: int | None = None, stride: Stride | None = None) -> "BBoxSet":
        boxes = [parse_bbox(line) for line in text.splitlines() if line.strip()]
        return BBoxSet.from_bboxes(boxes, dim=dim, stride=stride)

    # -- queries -----------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.root

    def contains(self, p: Point) -> bool:
        if p.dim != self.dim:
            raise UsageError(f"dimension mismatch: {self.dim} vs {p.dim}")
        if any((x - o) % s != 0 for x, o, s in zip(p.coords, self.offset.coords, self.stride.steps)):
            return False
        return _contains_node(self.root, self.dim, p.coords)

    def to_bboxes(self) -> list[BBox]:
        """Canonical disjoint box decomposition, sorted by (lower, upper)."""
        corners = _node_boxes(self.root, self.dim, self.stride.steps)
        corners.sort()
        return [BBox(Point(lo), Point(up), self.stride) for lo, up in corners]

    def to_text(self) -> str:
        return "\n".join(format_bbox(b) for b in self.to_bboxes())

    def point_count(self) -> int:
        return sum(b.point_count() for b in self.to_bboxes())

    def derivative_element_count(self) -> int:
        """Number of boolean leaves in the derivative tree (= |dR| as a point set)."""
        return _leaf_count(self.root, self.dim)

    def derivative_points(self) -> list[Point]:
        """Coordinates of the derivative leaves (test plumbing)."""
        return [Point(c) for c in _leaf_points(self.root, self.dim)]

    def equals(self, other: "BBoxSet") -> bool:
        _compatible(self, other)
        return not _xor_nodes(self.root, other.root, self.dim)

    # -- set algebra -------------------------------------------------------

    def apply(self, op: str, other: "BBoxSet") -> "BBoxSet":
        """Binary set operation evaluated by the dimensional-recursion sweep
        (xor by the structural merge)."""
        if op not in _BOOL_OPS:
            raise UsageError(f"unknown set operation {op!r}")
        if op == XOR:
            return self.symmetric_difference(other)
        off = _compatible(self, other)
        return _wrap(self.dim, self.stride, off, _apply_nodes(op, self.root, other.root, self.dim))

    def union(self, other: "BBoxSet") -> "BBoxSet":
        return self.apply(UNION, other)

    def intersection(self, other: "BBoxSet") -> "BBoxSet":
        return self.apply(INTERSECTION, other)

    def difference(self, other: "BBoxSet") -> "BBoxSet":
        return self.apply(DIFFERENCE, other)

    def symmetric_difference(self, other: "BBoxSet") -> "BBoxSet":
        """Fast xor: structural merge of the derivative trees, no sweep."""
        off = _compatible(self, other)
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
        if v.dim != self.dim:
            raise UsageError(f"dimension mismatch: {self.dim} vs {v.dim}")
        off = Point(tuple((o + dv) % s for o, dv, s in zip(self.offset.coords, v.coords, self.stride.steps)))
        return _wrap(self.dim, self.stride, off, _shift_node(self.root, self.dim, v.coords))

    def expand(self, lo: Point, hi: Point) -> "BBoxSet":
        """Dilate by lo/hi stride steps per dimension (non-negative only)."""
        if lo.dim != self.dim or hi.dim != self.dim:
            raise UsageError(f"dimension mismatch: {self.dim} vs {lo.dim}/{hi.dim}")
        if any(c < 0 for c in lo.coords) or any(c < 0 for c in hi.coords):
            raise UsageError("expand takes non-negative step counts; shrink via complement within a hull")
        root = _expand_node(self.root, self.dim, lo.coords, hi.coords, self.stride.steps)
        return _wrap(self.dim, self.stride, self.offset, root)

    def coarsen(self, factor: Stride) -> "BBoxSet":
        """Keep only points on the coarser sub-lattice (stride * factor, same anchor)."""
        if factor.dim != self.dim:
            raise UsageError(f"dimension mismatch: {self.dim} vs {factor.dim}")
        new_steps = tuple(s * f for s, f in zip(self.stride.steps, factor.steps))
        # the anchor, below the old stride, is a coarse-lattice coordinate too
        root = _coarsen_node(self.root, self.dim, self.offset.coords, new_steps)
        return _wrap(self.dim, Stride(new_steps), self.offset, root)

    def refine(self, factor: Stride) -> "BBoxSet":
        """Make a finer lattice available: stride / factor, membership unchanged."""
        if factor.dim != self.dim:
            raise UsageError(f"dimension mismatch: {self.dim} vs {factor.dim}")
        for s, f in zip(self.stride.steps, factor.steps):
            if s % f != 0:
                raise UsageError(f"refinement factor {factor.steps} does not divide stride {self.stride.steps}")
        new_steps = tuple(s // f for s, f in zip(self.stride.steps, factor.steps))
        off = Point(tuple(o % ns for o, ns in zip(self.offset.coords, new_steps)))
        root = _refine_node(self.root, self.dim, self.stride.steps, new_steps)
        return _wrap(self.dim, Stride(new_steps), off, root)


def _wrap(dim: int, stride: Stride, offset: Point, root: _Node) -> BBoxSet:
    if not root:
        return BBoxSet(dim, stride, Point.zero(dim), _empty_node(dim))
    return BBoxSet(dim, stride, offset, root)


def _compatible(a: BBoxSet, b: BBoxSet) -> Point:
    """Validate operands; returns the sub-lattice anchor the result lives on."""
    if a.dim != b.dim:
        raise UsageError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.stride != b.stride:
        raise UsageError(f"stride mismatch: {a.stride.steps} vs {b.stride.steps}")
    if not a.is_empty() and not b.is_empty() and a.offset != b.offset:
        raise UsageError(f"operands on different sub-lattices: {a.offset.coords} vs {b.offset.coords}")
    return b.offset if a.is_empty() else a.offset
