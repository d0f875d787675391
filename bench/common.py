"""Pieces shared by the workloads: source-tree import, check failures, dense grids.

The dense-grid helpers are the benchmark's own reference computations.  They
use numpy boolean arrays over an explicit coordinate window and share no code
with the derivative trees or the point oracle they check.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's reference."""


def require(ok: bool, message: str) -> None:
    """Raise CheckFailed unless ok (survives ``python -O``, unlike assert)."""
    if not ok:
        raise CheckFailed(message)


def use_source_tree() -> None:
    """Import stencilrt from ``src/`` of the checkout this file lives in."""
    src = ROOT / "src"
    if not (src / "stencilrt" / "__init__.py").is_file():
        print(f"bench: no stencilrt package under {src}; run from a source checkout", file=sys.stderr)
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


class Stopwatch:
    """Accumulates the time spent inside ``with`` blocks (input generation)."""

    def __init__(self) -> None:
        self.total = 0.0

    def __enter__(self):
        self._t = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.total += time.perf_counter() - self._t


class Window:
    """An axis-aligned window of integer coordinates, [origin, origin + shape)."""

    def __init__(self, origin: tuple[int, ...], shape: tuple[int, ...]):
        self.origin = tuple(origin)
        self.shape = tuple(shape)

    def empty(self) -> np.ndarray:
        return np.zeros(self.shape, dtype=bool)

    def box_slices(self, lower, upper, steps) -> tuple[slice, ...]:
        return tuple(
            slice(l - o, u - o + 1, s)
            for l, u, s, o in zip(lower, upper, steps, self.origin)
        )

    def paint(self, boxes) -> np.ndarray:
        """Union of lattice boxes (BBox objects) as a boolean grid."""
        g = self.empty()
        for b in boxes:
            if not b.is_empty:
                g[self.box_slices(b.lower.coords, b.upper.coords, b.stride.steps)] = True
        return g

    def coverage(self, boxes) -> np.ndarray:
        """How many of the boxes hold each point (disjointness shows as max <= 1)."""
        g = np.zeros(self.shape, dtype=np.int32)
        for b in boxes:
            if not b.is_empty:
                g[self.box_slices(b.lower.coords, b.upper.coords, b.stride.steps)] += 1
        return g

    def from_points(self, points) -> np.ndarray:
        g = self.empty()
        pts = np.array(list(points), dtype=np.int64).reshape(-1, len(self.shape))
        if len(pts):
            g[tuple((pts - np.array(self.origin)).T)] = True
        return g

    def lattice(self, anchor: tuple[int, ...], steps: tuple[int, ...]) -> np.ndarray:
        """Points congruent to anchor modulo steps, in every dimension."""
        g = np.ones(self.shape, dtype=bool)
        for axis, (o, n, a, s) in enumerate(zip(self.origin, self.shape, anchor, steps)):
            on = (np.arange(o, o + n) - a) % s == 0
            g &= on.reshape([-1 if i == axis else 1 for i in range(len(self.shape))])
        return g

    def tree_grid(self, region) -> np.ndarray:
        """Decode a BBoxSet from its derivative leaves, independently of to_bboxes.

        A point belongs to the set when an odd number of leaves lie at or below
        it in every coordinate; that parity is a running xor along each axis.
        The parity is only meaningful on the set's own sub-lattice.
        """
        toggles = np.zeros(self.shape, dtype=bool)
        leaves = np.array([p.coords for p in region.derivative_points()], dtype=np.int64)
        if len(leaves):
            idx = leaves - np.array(self.origin)
            inside = np.all((idx >= 0) & (idx < np.array(self.shape)), axis=1)
            require(bool(inside.all()), "derivative leaves outside the reference window")
            np.logical_xor.at(toggles, tuple(idx.T), True)
        for axis in range(toggles.ndim):
            toggles = np.logical_xor.accumulate(toggles, axis=axis)
        return toggles & self.lattice(region.offset.coords, region.stride.steps)


def shifted(g: np.ndarray, axis: int, d: int) -> np.ndarray:
    """g moved by d cells along axis; cells moved out are dropped, new ones False."""
    out = np.zeros_like(g)
    n = g.shape[axis]
    src = [slice(None)] * g.ndim
    dst = [slice(None)] * g.ndim
    if d >= 0:
        src[axis], dst[axis] = slice(0, n - d), slice(d, n)
    else:
        src[axis], dst[axis] = slice(-d, n), slice(0, n + d)
    out[tuple(dst)] = g[tuple(src)]
    return out


def dilate(g: np.ndarray, lo: tuple[int, ...], hi: tuple[int, ...], steps: tuple[int, ...]) -> np.ndarray:
    """Separable box dilation by lo/hi stride steps per axis."""
    for axis, (l, h, s) in enumerate(zip(lo, hi, steps)):
        acc = g.copy()
        for k in range(1, l + 1):
            acc |= shifted(g, axis, -k * s)
        for k in range(1, h + 1):
            acc |= shifted(g, axis, k * s)
        g = acc
    return g


def check_boxes(window: Window, boxes, expected: np.ndarray, what: str) -> None:
    """to_bboxes output: pairwise disjoint, and covering exactly the expected points."""
    cover = window.coverage(boxes)
    require(int(cover.max(initial=0)) <= 1, f"{what}: to_bboxes boxes overlap")
    volume = sum(b.point_count() for b in boxes)
    require(volume == int(expected.sum()), f"{what}: box volumes sum to {volume}, grid holds {int(expected.sum())}")
    require(np.array_equal(cover.astype(bool), expected), f"{what}: to_bboxes covers other points than the grid")
