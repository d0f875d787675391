"""Integer-lattice primitives: points, strides, rectangular regions, physical mapping.

Conventions used throughout the package:

* box bounds are INCLUSIVE at both ends;
* a box's points are ``lower + k * stride`` componentwise, so ``upper - lower``
  must be divisible by the stride in every dimension;
* set operations require both operands to live on the same sub-lattice
  (equal stride, lower corners congruent modulo the stride);
* the empty box is a single canonical value per dimension, regardless of the
  stride it was produced with.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import mod
from typing import Iterable, Iterator

MAX_DIM = 4


class UsageError(ValueError):
    """An operation was called with operands that violate its contract."""


class ResourceError(RuntimeError):
    """A configured resource limit was exceeded."""


def check_dims(dim: int, *args) -> None:
    """The dimension check of the points, strides or boxes passed to a dim-dimensional object."""
    for arg in args:  # a plain loop: contains calls this once per query
        if arg.dim != dim:
            raise UsageError(f"dimension mismatch: {dim} vs {'/'.join(str(a.dim) for a in args)}")


@dataclass(frozen=True, slots=True)
class Point:
    """A lattice point: d signed integer coordinates, 1 <= d <= 4."""

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.coords) <= MAX_DIM:
            raise UsageError(f"unsupported dimension {len(self.coords)}")

    @classmethod
    def _trusted(cls, coords: tuple[int, ...]) -> "Point":
        """A point without the dimension check, for coordinates read from a checked set."""
        p = object.__new__(cls)
        _set_coords(p, coords)
        return p

    @property
    def dim(self) -> int:
        return len(self.coords)

    @staticmethod
    def zero(dim: int) -> "Point":
        return Point((0,) * dim)

    @staticmethod
    def unit(dim: int, axis: int) -> "Point":
        """e^axis: 1 in the given axis, 0 elsewhere."""
        if not 0 <= axis < dim:
            raise UsageError(f"axis {axis} outside 0..{dim - 1}")
        return Point(tuple(1 if i == axis else 0 for i in range(dim)))

    def __getitem__(self, i: int) -> int:
        return self.coords[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.coords)

    def __add__(self, other: "Point") -> "Point":
        return Point(tuple(a + b for a, b in zip(self.coords, other.coords, strict=True)))

    def __sub__(self, other: "Point") -> "Point":
        return Point(tuple(a - b for a, b in zip(self.coords, other.coords, strict=True)))

    def __neg__(self) -> "Point":
        return Point(tuple(-a for a in self.coords))


# the slot's own setter: what a frozen dataclass's __setattr__ refuses, and
# object.__setattr__ reaches only through an attribute lookup by name
_set_coords = Point.coords.__set__


@dataclass(frozen=True, slots=True)
class Stride:
    """Per-dimension lattice spacing; every component strictly positive."""

    steps: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.steps) <= MAX_DIM:
            raise UsageError(f"unsupported dimension {len(self.steps)}")
        if any(s <= 0 for s in self.steps):
            raise UsageError(f"stride components must be positive: {self.steps}")

    @property
    def dim(self) -> int:
        return len(self.steps)

    @staticmethod
    def ones(dim: int) -> "Stride":
        return Stride((1,) * dim)

    def __getitem__(self, i: int) -> int:
        return self.steps[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.steps)


def point(*coords: int) -> Point:
    return Point(coords)


def stride(*steps: int) -> Stride:
    return Stride(steps)


@dataclass(frozen=True, slots=True)
class BBox:
    """A rectangular lattice region: inclusive corners plus per-dimension stride.

    Construction normalizes any region with an inverted corner pair to the
    canonical empty box of that dimension, so over-shrinking and disjoint
    intersections yield empty rather than raising.
    """

    lower: Point
    upper: Point
    stride: Stride

    def __post_init__(self) -> None:
        if self.lower.dim != self.upper.dim or self.lower.dim != self.stride.dim:
            raise UsageError("bbox corner/stride dimensions disagree")
        lo, up = self.lower.coords, self.upper.coords
        if any(u < l for l, u in zip(lo, up)):
            d = len(lo)
            object.__setattr__(self, "lower", Point.zero(d))
            object.__setattr__(self, "upper", Point((-1,) * d))
            object.__setattr__(self, "stride", Stride.ones(d))
            return
        for l, u, s in zip(lo, up, self.stride.steps):
            if (u - l) % s != 0:
                raise UsageError(f"upper corner not on the stride lattice: {lo}..{up} step {self.stride.steps}")

    @classmethod
    def _trusted(cls, lower: Point, upper: Point, stride: Stride) -> "BBox":
        """A non-empty box without the corner checks, for corners read from a checked set."""
        box = object.__new__(cls)
        _set_lower(box, lower)
        _set_upper(box, upper)
        _set_stride(box, stride)
        return box

    @staticmethod
    def empty(dim: int) -> "BBox":
        box = _EMPTY_BOXES.get(dim)
        if box is None:
            box = _EMPTY_BOXES[dim] = BBox(Point.zero(dim), Point((-1,) * dim), Stride.ones(dim))
        return box

    @property
    def dim(self) -> int:
        return self.lower.dim

    @property
    def is_empty(self) -> bool:
        return self.upper.coords[0] < self.lower.coords[0]

    def contains(self, p: Point) -> bool:
        check_dims(self.dim, p)
        if self.is_empty:
            return False
        return all(
            l <= x <= u and (x - l) % s == 0
            for x, l, u, s in zip(p.coords, self.lower.coords, self.upper.coords, self.stride.steps)
        )

    def intersect(self, other: "BBox") -> "BBox":
        check_dims(self.dim, other)
        if self.is_empty or other.is_empty:
            return BBox.empty(self.dim)
        if self.stride != other.stride:
            raise UsageError(f"stride mismatch: {self.stride.steps} vs {other.stride.steps}")
        for a, b, s in zip(self.lower.coords, other.lower.coords, self.stride.steps):
            if (a - b) % s != 0:
                raise UsageError("operands live on different sub-lattices")
        lo = tuple(max(a, b) for a, b in zip(self.lower.coords, other.lower.coords))
        up = tuple(min(a, b) for a, b in zip(self.upper.coords, other.upper.coords))
        if any(u < l for l, u in zip(lo, up)):
            return BBox.empty(self.dim)
        return BBox(Point(lo), Point(up), self.stride)

    def shift(self, v: Point) -> "BBox":
        """Translate by v (lattice units, not stride steps)."""
        check_dims(self.dim, v)
        if self.is_empty:
            return self
        return BBox(self.lower + v, self.upper + v, self.stride)

    def expand(self, lo: Point, hi: Point) -> "BBox":
        """Grow by lo/hi stride steps per dimension; negative counts shrink.

        Over-shrinking yields the empty box.
        """
        check_dims(self.dim, lo, hi)
        if self.is_empty:
            return self
        new_lo = tuple(l - c * s for l, c, s in zip(self.lower.coords, lo.coords, self.stride.steps))
        new_up = tuple(u + c * s for u, c, s in zip(self.upper.coords, hi.coords, self.stride.steps))
        return BBox(Point(new_lo), Point(new_up), self.stride)

    def point_count(self) -> int:
        if self.is_empty:
            return 0
        return math.prod((u - l) // s + 1 for l, u, s in zip(self.lower.coords, self.upper.coords, self.stride.steps))

    def points(self) -> Iterator[Point]:
        """Enumerate member points (test/oracle plumbing; cost is O(points))."""
        if self.is_empty:
            return
        axes = [
            range(l, u + 1, s)
            for l, u, s in zip(self.lower.coords, self.upper.coords, self.stride.steps)
        ]
        for c in itertools.product(*axes):
            yield Point(c)


_set_lower, _set_upper, _set_stride = BBox.lower.__set__, BBox.upper.__set__, BBox.stride.__set__
_EMPTY_BOXES: dict[int, BBox] = {}


@dataclass(frozen=True, slots=True)
class GridGeometry:
    """Physical-coordinate mapping for a lattice: x_i = origin_i + n_i * spacing_i."""

    origin: tuple[float, ...]
    spacing: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.origin) != len(self.spacing):
            raise UsageError("origin/spacing dimensions disagree")
        if any(s <= 0 for s in self.spacing):
            raise UsageError(f"grid spacing must be positive: {self.spacing}")

    @property
    def dim(self) -> int:
        return len(self.origin)


def to_physical(g: GridGeometry, p: Point) -> tuple[float, ...]:
    check_dims(g.dim, p)
    return tuple(o + n * dx for o, n, dx in zip(g.origin, p.coords, g.spacing))


# -- what a caller may pass to a point set: BBoxSet and the PointSet oracle
# both call these checks, so the two reject the same input with the same text


def check_boxes(boxes: Iterable[BBox], dim: int | None = None,
                stride: Stride | None = None) -> tuple[list[BBox], int, Stride, Point]:
    """The entry check of a box list: its non-empty boxes, plus the dimension,
    stride and sub-lattice anchor they share.  dim/stride are only required
    when the box list has no non-empty entry."""
    live = [b for b in boxes if not b.is_empty]
    if not live:
        if dim is None:
            raise UsageError("cannot infer dimension of an empty box list")
        stride = stride if stride is not None else Stride.ones(dim)
        if stride.dim != dim:
            raise UsageError("stride dimension disagrees with set dimension")
        return live, dim, stride, Point.zero(dim)
    first = live[0]
    if dim is not None and first.dim != dim:
        raise UsageError(f"dimension mismatch: boxes are {first.dim}d, requested {dim}d")
    if stride is not None and first.stride != stride:
        raise UsageError("stride mismatch between boxes and requested stride")
    steps = first.stride.steps
    anchor = tuple(map(mod, first.lower.coords, steps))
    for b in live:
        if b.stride.steps != steps:
            raise UsageError("boxes of mixed dimension" if b.dim != first.dim else "boxes of mixed stride")
        if tuple(map(mod, b.lower.coords, steps)) != anchor:
            raise UsageError("boxes on different sub-lattices")
    return live, first.dim, first.stride, Point(anchor)


SET_OPS = ("union", "intersection", "difference", "xor")


def check_op(name: str) -> None:
    """The name of a binary set operation: one of SET_OPS."""
    if name not in SET_OPS:
        raise UsageError(f"unknown set operation {name!r}")


def check_operands(a, b) -> Point:
    """The operand check of a binary set operation: same dimension, stride
    and anchor (an empty set's anchor is a wildcard).  Returns the anchor the
    result lives on."""
    if a.dim != b.dim:
        raise UsageError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.stride != b.stride:
        raise UsageError(f"stride mismatch: {a.stride.steps} vs {b.stride.steps}")
    if not a.is_empty() and not b.is_empty() and a.offset != b.offset:
        raise UsageError(f"operands on different sub-lattices: {a.offset.coords} vs {b.offset.coords}")
    return b.offset if a.is_empty() else a.offset


def check_expand(dim: int, lo: Point, hi: Point) -> None:
    """Dilation step counts: one per dimension, none negative."""
    check_dims(dim, lo, hi)
    if any(c < 0 for c in lo.coords) or any(c < 0 for c in hi.coords):
        raise UsageError("expand takes non-negative step counts; shrink via complement within a hull")


def check_refine(stride: Stride, factor: Stride) -> None:
    """A refinement factor: one per dimension, each dividing the set's stride."""
    check_dims(stride.dim, factor)
    for s, f in zip(stride.steps, factor.steps):
        if s % f != 0:
            raise UsageError(f"refinement factor {factor.steps} does not divide stride {stride.steps}")


def format_bbox(b: BBox) -> str:
    """Text form for fixtures: ([l0:u0:s0],[l1:u1:s1],...), empty as (empty/d)."""
    if b.is_empty:
        return f"(empty/{b.dim})"
    parts = [
        f"[{l}:{u}:{s}]"
        for l, u, s in zip(b.lower.coords, b.upper.coords, b.stride.steps)
    ]
    return "(" + ",".join(parts) + ")"


def parse_bbox(text: str) -> BBox:
    t = text.strip()
    if not (t.startswith("(") and t.endswith(")")):
        raise UsageError(f"malformed bbox text: {text!r}")
    body = t[1:-1].strip()
    if body.startswith("empty/"):
        return BBox.empty(_parse_int(body[len("empty/"):], text))
    lo, up, st = [], [], []
    for part in body.split(","):
        p = part.strip()
        if not (p.startswith("[") and p.endswith("]")):
            raise UsageError(f"malformed bbox component: {part!r}")
        fields = p[1:-1].split(":")
        if len(fields) != 3:
            raise UsageError(f"malformed bbox component: {part!r}")
        l, u, s = (_parse_int(f, text) for f in fields)
        lo.append(l)
        up.append(u)
        st.append(s)
    return BBox(Point(tuple(lo)), Point(tuple(up)), Stride(tuple(st)))


def _parse_int(field: str, text: str) -> int:
    try:
        return int(field)
    except ValueError:
        raise UsageError(f"malformed bbox text: {text!r}") from None
