"""Tuned 3D stencil demo: one 7-point Laplacian smoothing pass per iteration.

Runs the same Jacobi update three ways (a serial reference, a naive static
even split over threads, and the tuned traverse/tuner path) and checks the
outputs stay bit-identical.  Every path evaluates the identical elementwise
expression tree on the identical elements, so decomposition cannot change a
single bit; only the timing differs.

Arrays are numpy (z, y, x) with x contiguous; kernels update interior row
segments, boundary values are carried over unchanged each iteration.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .traverse import IndexSpace, run_loop, run_static
from .tuner import LoopSetup, TopologyConfig, Tuner

C0 = -6.0 / 8.0
C1 = 1.0 / 8.0


def make_field(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((n, n, n), dtype=np.float64)


def _update_rows(dst: np.ndarray, src: np.ndarray, z0: int, z1: int,
                 y0: int, y1: int, x0: int, x1: int) -> None:
    """Laplacian update of dst[z0:z1, y0:y1, x0:x1]; one fixed expression tree."""
    b = src
    dst[z0:z1, y0:y1, x0:x1] = C0 * b[z0:z1, y0:y1, x0:x1] + C1 * (
        (b[z0:z1, y0:y1, x0 - 1:x1 - 1] + b[z0:z1, y0:y1, x0 + 1:x1 + 1])
        + (b[z0:z1, y0 - 1:y1 - 1, x0:x1] + b[z0:z1, y0 + 1:y1 + 1, x0:x1])
        + (b[z0 - 1:z1 - 1, y0:y1, x0:x1] + b[z0 + 1:z1 + 1, y0:y1, x0:x1])
    )


def _piece_kernel(dst: np.ndarray, src: np.ndarray):
    def kernel(piece: IndexSpace) -> None:
        (x0, y0, z0), (x1, y1, z1) = piece.lo, piece.hi
        _update_rows(dst, src, z0, z1, y0, y1, x0, x1)
    return kernel


@dataclass
class StencilRun:
    final: np.ndarray
    iter_seconds: list[float] = field(default_factory=list)


def _iterate(n: int, iters: int, seed: int, sweep: Callable[[np.ndarray, np.ndarray], float]) -> StencilRun:
    """Jacobi iterations from the seeded field: sweep(dst, src) updates the
    interior of dst, a copy of src, and returns the seconds it took."""
    src = make_field(n, seed)
    seconds = []
    for _ in range(iters):
        dst = src.copy()
        seconds.append(sweep(dst, src))
        src = dst
    return StencilRun(src, seconds)


def run_serial(n: int, iters: int, seed: int) -> StencilRun:
    def sweep(dst: np.ndarray, src: np.ndarray) -> float:
        t0 = time.perf_counter()
        _update_rows(dst, src, 1, n - 1, 1, n - 1, 1, n - 1)
        return time.perf_counter() - t0
    return _iterate(n, iters, seed, sweep)


def run_naive(n: int, iters: int, seed: int, n_threads: int) -> StencilRun:
    space = IndexSpace((1, 1, 1), (n - 1, n - 1, n - 1))
    return _iterate(n, iters, seed, lambda dst, src: run_static(space, _piece_kernel(dst, src), n_threads))


def run_tuned(n: int, iters: int, seed: int, topo: TopologyConfig) -> tuple[StencilRun, Tuner]:
    space = IndexSpace((1, 1, 1), (n - 1, n - 1, n - 1))
    setup = LoopSetup("laplacian3d", space.extents, "vector", topo.n_coarse_threads, topo.n_fine_threads)
    tuner = Tuner(topo)
    return _iterate(n, iters, seed, lambda dst, src: run_loop(setup, space, _piece_kernel(dst, src), tuner)), tuner


def bit_identical(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()
