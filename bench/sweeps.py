"""Loop-engine workloads: fixed-setting 7-point Laplacian sweeps.

One operation is one sweep, ``build_plan`` + ``execute_plan``: the work
``run_loop`` does per execution, without the tuner, so that every sweep
runs the same setting.  Sweeps alternate between two arrays (Jacobi style),
so a point the engine skips keeps a value two sweeps old and shows in the
final field.

``sweep-tiled``: one worker, cache-sized tiles; bound by the kernel.
``sweep-threaded``: small tiles split over two fine threads; bound by the
engine (plan build and per-tile thread starts).
"""
from __future__ import annotations

import os
import threading
import time

import numpy as np

from common import require
from stencilrt import traverse
from stencilrt.traverse import IndexSpace
from stencilrt.tuner import ExecParams, LoopSetup, TopologyConfig, check_params

LANES = 4
# Jacobi relaxation with the Laplacian stencil: u + (1/8) * lap(u).  Its
# amplification factor stays within [-0.5, 1], so the field stays finite over
# any number of sweeps.
C0 = 0.25
C1 = 0.125


def laplacian(dst: np.ndarray, src: np.ndarray, z0: int, z1: int, y0: int, y1: int, x0: int, x1: int) -> None:
    """dst[z0:z1, y0:y1, x0:x1] from its 7-point neighbourhood in src; one fixed expression tree."""
    s = src
    dst[z0:z1, y0:y1, x0:x1] = C0 * s[z0:z1, y0:y1, x0:x1] + C1 * (
        (s[z0:z1, y0:y1, x0 - 1:x1 - 1] + s[z0:z1, y0:y1, x0 + 1:x1 + 1])
        + (s[z0:z1, y0 - 1:y1 - 1, x0:x1] + s[z0:z1, y0 + 1:y1 + 1, x0:x1])
        + (s[z0 - 1:z1 - 1, y0:y1, x0:x1] + s[z0 + 1:z1 + 1, y0:y1, x0:x1])
    )


class Sweep:
    """Sweeps of an n^3 field (boundary fixed) with one fixed ExecParams."""

    round_ops = 1

    def __init__(self, seed: int, inputs, n: int, tile: tuple[int, int, int], fine: tuple[int, int, int]) -> None:
        with inputs:
            field = np.random.default_rng(seed).random((n, n, n))
        self.n = n
        self.space = IndexSpace((1, 1, 1), (n - 1, n - 1, n - 1))
        self.n_fine = fine[0] * fine[1] * fine[2]
        self.params = ExecParams((1, 1, 1), tile, fine, LANES)
        self.setup = LoopSetup(self.name, self.space.extents, "vector", 1, self.n_fine)
        self.topo = TopologyConfig(n_coarse_threads=1, n_fine_threads=self.n_fine, lane_width=LANES)
        check_params(self.params, self.setup, self.topo)
        self.src, self.dst = field, field.copy()
        self.ref_src, self.ref_dst = field.copy(), field.copy()
        self.tracer = None
        self.busy = {}
        self._busy_lock = threading.Lock()

    def next_input(self):
        return None

    def _kernel(self, pieces: list):
        dst, src = self.dst, self.src
        tracer = self.tracer

        def kernel(piece: IndexSpace) -> None:
            pieces.append(piece)
            (x0, y0, z0), (x1, y1, z1) = piece.lo, piece.hi
            laplacian(dst, src, z0, z1, y0, y1, x0, x1)

        if tracer is None:
            return kernel

        def traced(piece: IndexSpace) -> None:
            t0 = time.perf_counter_ns()
            kernel(piece)
            t1 = time.perf_counter_ns()
            ident = threading.get_ident()
            with self._busy_lock:
                self.busy[ident] = self.busy.get(ident, 0) + (t1 - t0)

        return traced

    def op(self, _):
        pieces: list[IndexSpace] = []
        kernel = self._kernel(pieces)
        t0 = time.perf_counter_ns()
        plan = traverse.build_plan(self.space, self.params)
        traverse.execute_plan(plan, kernel, 1, self.n_fine)
        elapsed = time.perf_counter_ns() - t0
        self.src, self.dst = self.dst, self.src
        if self.tracer is not None:
            busy, self.busy = list(self.busy.values()), {}
            self.tracer.count("traverse.pieces", len(pieces))
            self.tracer.count("kernel.busy_ns", sum(busy))
            self.tracer.count("traverse.imbalance", max(busy) * len(busy) / sum(busy))
        return (self.src, pieces), elapsed

    def check(self, _, out) -> None:
        result, pieces = out
        n = self.n
        writes = np.zeros((n, n, n), dtype=np.int32)
        for p in pieces:
            (x0, y0, z0), (x1, y1, z1) = p.lo, p.hi
            writes[z0:z1, y0:y1, x0:x1] += 1
        require(bool((writes[1:-1, 1:-1, 1:-1] == 1).all()), f"{self.name}: an interior point was not written exactly once")
        require(int(writes.sum()) == (n - 2) ** 3, f"{self.name}: a boundary point was written")
        laplacian(self.ref_dst, self.ref_src, 1, n - 1, 1, n - 1, 1, n - 1)
        self.ref_src, self.ref_dst = self.ref_dst, self.ref_src
        require(bit_identical(result, self.ref_src), f"{self.name}: field differs from the whole-grid reference")

    def finish(self) -> dict:
        return {}


def bit_identical(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class SweepTiled(Sweep):
    name = "sweep-tiled"

    def __init__(self, seed: int, inputs) -> None:
        # 72 tiles of about 48 x 16 x 16 doubles: a tile of each array fits in L2.
        # Tiles sit on absolute multiples of the tile size, so the 95-wide
        # interior splits into two near-equal halves along x.
        super().__init__(seed, inputs, n=97, tile=(48, 16, 16), fine=(1, 1, 1))


class SweepThreaded(Sweep):
    name = "sweep-threaded"
    # The sweep is mostly thread starts and hand-overs, which do not slow
    # down with the speed probe: scaled by it, the ten-run spread of op_p50_ms
    # was 0.150, raw 0.036.  So this workload reports raw wall-clock times.
    scale_by_probe = False

    def __init__(self, seed: int, inputs) -> None:
        # 256 tiles of 16 x 8 x 8, each cut in two along z for the two fine threads
        super().__init__(seed, inputs, n=64, tile=(16, 8, 8), fine=(1, 1, 2))
        # Every thread of this process runs on one core.  Spread over both
        # cores of a 2-core virtual machine, the same sweeps took 50 to 160 ms
        # from one run to the next, with each thread start waiting on the
        # other core's scheduling.  The sweep is bound by the engine, not the
        # kernel, and the threads still start, hand over and join once per
        # tile.
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
