"""Loop execution engine: split a d-dimensional index space and run a kernel.

An index space (exclusive upper bounds, innermost dimension first) is split
through four nested mechanisms, each level partitioning its parent exactly:

1. coarse-thread blocks, pulled dynamically by workers from a shared queue
   (handles kernels with non-uniform cost per iteration);
2. tiles, anchored on an absolute grid of the tile size so interior cut
   points stay cache/vector aligned;
3. fine-thread slices within a tile: for each block its coarse worker runs
   a group of fine workers, and fine worker f runs slices f::n_fine of every
   tile in the block, with no wait between tiles;
4. lane-aligned inner runs via vlanes.iterate_masked inside the kernel.

The space is checked when it is built, the parameters once in build_plan
by tuner.check_shape, which rejects any split, tile size or vector width
below 1.  Each fine worker cuts its block itself, each dimension once into
tile intervals and each of those once into fine chunks, and builds each of
its slices, an IndexSpace built unchecked, only when it reaches it, so no
list of a block's pieces exists.  Every entry that runs a plan checks its
thread counts with tuner.check_threads before any thread starts.  The
calling thread is the first worker of every group, so a run with one coarse
and one fine worker starts no thread at all.

Interior cut points along the innermost dimension are multiples of the lane
width, so masked partial stores are only ever needed at the boundary of the
whole space.  Kernels receive one fine slice at a time and must write only
within it, so pieces run in any order and on any worker give the same
result.  The engine times each whole execution (including plan build and
dispatch, since that is what tuning can improve) and feeds the measurement
to the tuner.
"""
from __future__ import annotations

import itertools
import math
import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from .lattice import BBox, Point, Stride, UsageError
from .tuner import ExecParams, LoopSetup, Tuner, check_shape, check_threads


@dataclass(frozen=True, slots=True)
class IndexSpace:
    """[lo, hi) per dimension, innermost first."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise UsageError("index space bounds disagree in dimension")
        if any(h < l for l, h in zip(self.lo, self.hi)):
            raise UsageError(f"index space with inverted bounds: {self.lo}..{self.hi}")

    @classmethod
    def _trusted(cls, lo: tuple[int, ...], hi: tuple[int, ...]) -> IndexSpace:
        """A space without the bounds check, for cells cut from a checked space."""
        space = object.__new__(cls)
        _set_lo(space, lo)
        _set_hi(space, hi)
        return space

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def extents(self) -> tuple[int, ...]:
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    def volume(self) -> int:
        return math.prod(self.extents)


_set_lo, _set_hi = IndexSpace.lo.__set__, IndexSpace.hi.__set__


def index_space_from_bbox(b: BBox) -> IndexSpace:
    """Region convention (inclusive, possibly strided) to loop convention."""
    if b.is_empty:
        return IndexSpace((0,) * b.dim, (0,) * b.dim)
    if any(s != 1 for s in b.stride.steps):
        raise UsageError("only unit-stride boxes convert to index spaces")
    return IndexSpace(b.lower.coords, tuple(u + 1 for u in b.upper.coords))


def index_space_to_bbox(s: IndexSpace) -> BBox:
    if s.volume() == 0:
        return BBox.empty(s.dim)
    return BBox(Point(s.lo), Point(tuple(h - 1 for h in s.hi)), Stride.ones(s.dim))


@dataclass(frozen=True)
class SplitPlan:
    """The nested decomposition of a checked space, cut on demand."""

    space: IndexSpace
    params: ExecParams

    def blocks(self) -> list[IndexSpace]:
        return list(self._split([[iv] for iv in zip(self.space.lo, self.space.hi)], self.params.coarse_split))

    def tiles(self, block: IndexSpace) -> list[IndexSpace]:
        return list(self._split(_grid_cuts(block, self.params.tile_size), (1,) * block.dim))

    def slices(self, tile: IndexSpace) -> list[IndexSpace]:
        return list(self._split([[iv] for iv in zip(tile.lo, tile.hi)], self.params.fine_split))

    def tile_slices(self, block: IndexSpace, f: int, n_fine: int) -> Iterator[IndexSpace]:
        """Fine slices f::n_fine of each tile of the block, tiles in order, each built when reached."""
        return self._split(_grid_cuts(block, self.params.tile_size), self.params.fine_split, f, n_fine)

    def pieces(self) -> Iterator[IndexSpace]:
        for block in self.blocks():
            yield from self.tile_slices(block, 0, 1)

    def _split(self, intervals_per_dim, split: tuple[int, ...], first: int = 0, step: int = 1) -> Iterator[IndexSpace]:
        """Even chunks first::step of each cell of the intervals' product, cells
        and chunks outermost dimension slowest, each interval cut once."""
        units = (self.params.vector_width,) + (1,) * (len(intervals_per_dim) - 1)
        chunks = [[_even_cuts(a, b, n, u) for a, b in intervals]
                  for intervals, n, u in zip(intervals_per_dim, split, units)]
        cell = IndexSpace._trusted
        for cell_chunks in itertools.product(*chunks[::-1]):
            for outer_first in itertools.islice(itertools.product(*cell_chunks), first, None, step):
                yield cell(*zip(*outer_first[::-1])) if outer_first else cell((), ())


def _even_cuts(a: int, b: int, n: int, unit: int) -> list[tuple[int, int]]:
    """<= n chunks of [a, b), interior boundaries on absolute multiples of unit."""
    cuts = [a]
    for j in range(1, n):
        c = a + (b - a) * j // n
        c = (c // unit) * unit
        if cuts[-1] < c < b:
            cuts.append(c)
    cuts.append(b)
    return list(zip(cuts, cuts[1:]))


def _grid_cuts(block: IndexSpace, tile_size: tuple[int, ...]) -> list[list[tuple[int, int]]]:
    """Each dimension of the block in chunks cut at absolute multiples of its tile size."""
    cuts = [[a, *range((a // t + 1) * t, b, t), b] for a, b, t in zip(block.lo, block.hi, tile_size)]
    return [list(zip(c, c[1:])) for c in cuts]


def build_plan(space: IndexSpace, p: ExecParams) -> SplitPlan:
    """Deterministic nested decomposition, checked here once; impossible splits degrade to fewer pieces."""
    check_shape(p, space.dim)
    return SplitPlan(space, p)


Kernel = Callable[[IndexSpace], None]


def _run_group(n: int, work: Callable[[int], None]) -> None:
    """Run work(0..n-1) concurrently, work(0) on the calling thread; re-raise
    the first error once every member has finished."""
    errors: list[BaseException] = []

    def member(k: int) -> None:
        try:
            work(k)
        except BaseException as exc:  # re-raised below, after the group joins
            errors.append(exc)

    started = []
    try:
        for k in range(1, n):
            t = threading.Thread(target=member, args=(k,))
            t.start()
            started.append(t)
        member(0)
    finally:
        for t in started:
            t.join()
    if errors:
        raise errors[0]


def execute_plan(plan: SplitPlan, kernel: Kernel, n_coarse: int, n_fine: int) -> None:
    """Run the kernel over every piece: coarse workers pull blocks from a
    queue; within a block, fine worker f runs slices f::n_fine of every tile."""
    check_threads(n_coarse, n_fine)
    work: queue.SimpleQueue = queue.SimpleQueue()
    for block in plan.blocks():
        work.put(block)
    failed = False

    def fine_worker(block: IndexSpace, f: int) -> None:
        for piece in plan.tile_slices(block, f, n_fine):
            kernel(piece)

    def coarse_worker(_: int) -> None:
        nonlocal failed
        while not failed:
            try:
                block = work.get_nowait()
            except queue.Empty:
                return
            try:
                _run_group(n_fine, lambda f: fine_worker(block, f))
            except BaseException:  # stop every coarse worker pulling blocks
                failed = True
                raise

    _run_group(n_coarse, coarse_worker)


def run_loop(setup: LoopSetup, space: IndexSpace, kernel: Kernel, tuner: Tuner) -> float:
    """One tuned execution: ask for params, split, run, time, record.

    Returns the elapsed wall-clock seconds, plan build included.  A failing
    kernel propagates after the pool quiesces and its timing is discarded.
    """
    if space.extents != setup.extents:
        raise UsageError(f"index space extents {space.extents} differ from the setup's {setup.extents}")
    params = tuner.next_params(setup)
    start = time.perf_counter()
    execute_plan(build_plan(space, params), kernel, setup.n_coarse_threads, setup.n_fine_threads)
    elapsed = time.perf_counter() - start
    tuner.record_timing(setup, params, elapsed)
    return elapsed


def run_static(space: IndexSpace, kernel: Kernel, n_threads: int) -> float:
    """Naive baseline: one even chunk of the outermost dimension per thread,
    no tiling, no tuning.  Returns elapsed seconds."""
    check_threads(n_threads, 1)
    ones = (1,) * space.dim
    # tiles are cut at absolute multiples of their size, so max(-lo, hi) leaves at most one cut, at 0
    tile = tuple(max(1, -l, h) for l, h in zip(space.lo, space.hi))
    coarse = ones[1:] + (n_threads,) if space.dim else ()  # a 0-d space is one piece
    params = ExecParams(coarse, tile, ones, 1)
    start = time.perf_counter()
    execute_plan(build_plan(space, params), kernel, n_threads, 1)
    return time.perf_counter() - start
