"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances are fixed here, not tuned at runtime.
"""
import itertools
import random
import time

import numpy as np

import stencilrt.vlanes as vl
from helpers import make_operands, reference_apply
from stencilrt.baseline import NaiveBoxList
from stencilrt.bboxset import BBoxSet
from stencilrt.fuzz import check_case, grid_of_boxes
from stencilrt.lattice import BBox, point, stride
from stencilrt.oracle import PointSet, oracle_from_bboxset
from stencilrt.stencil import bit_identical, run_naive, run_serial, run_tuned
from stencilrt.synthetic import run_simulation
from stencilrt.traverse import IndexSpace, build_plan, execute_plan
from stencilrt.tuner import LoopSetup, TopologyConfig, enumerate_valid_params


def report(num, ok, text):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} -- {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_oracle_equivalence():
    """1,000 randomized cases per dimension, every operation exact vs the oracle."""
    t0 = time.perf_counter()
    cases = 0
    for dim in (1, 2, 3):
        for k in range(1000):
            msg = check_case(910_000 + k, dim, max_boxes=30, max_extent=32)
            assert msg is None, msg
            cases += 1
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 60.0,
           f"{cases} cases (union/intersection/difference/xor/shift/expand/"
           f"coarsen/refine/to_bboxes) all exact in {elapsed:.1f}s (< 60s)")


def test_criterion_2_derivative_constants():
    """The flagship sparsity numbers: 6 leaves for the 2D L, 8 for a 3D cuboid."""
    lshape = BBoxSet.from_bboxes([
        BBox(point(0, 0), point(3, 1), stride(1, 1)),
        BBox(point(0, 2), point(1, 3), stride(1, 1)),
    ])
    cuboid = BBoxSet.from_bboxes([BBox(point(0, 0, 0), point(5, 6, 7), stride(1, 1, 1))])
    ok = lshape.derivative_element_count() == 6 and cuboid.derivative_element_count() == 8
    report(2, ok,
           f"L-shape derivative = {lshape.derivative_element_count()} (want 6), "
           f"cuboid derivative = {cuboid.derivative_element_count()} (want 8)")


def test_criterion_3_xor_triple_equivalence():
    """Tree-merge xor == sweep xor == oracle xor on 1,000 random pairs (the
    sweep is the full-slice reference; apply("xor") is the merge itself)."""
    rng = random.Random(930_000)
    hull = {1: 32, 2: 24, 3: 12}
    for k in range(1000):
        dim = 1 + k % 3
        boxes_r, boxes_s, steps = make_operands(rng, dim, hull_extent=hull[dim], max_boxes=10)
        r = BBoxSet.from_bboxes(boxes_r, dim=dim, stride=steps)
        s = BBoxSet.from_bboxes(boxes_s, dim=dim, stride=steps)
        merge = r.symmetric_difference(s)
        assert merge == r.apply("xor", s), f"pair {k}: merge != apply"
        sweep = reference_apply("xor", r.root, s.root, dim)
        assert merge.root == sweep, f"pair {k}: merge != sweep"
        a = PointSet.from_bboxes(boxes_r, dim=dim, stride=steps)
        b = PointSet.from_bboxes(boxes_s, dim=dim, stride=steps)
        assert oracle_from_bboxset(merge).points == a.symmetric_difference(b).points, \
            f"pair {k}: != oracle"
    report(3, True, "1000 pairs: derivative-merge xor == sweep xor == oracle xor, exact")


def test_criterion_4_union_scaling():
    """Log-log slope <= 1.5 for the derivative tree, >= 1.8 for the naive list."""
    t0 = time.perf_counter()
    ns = [64, 128, 256, 512, 1024, 2048, 4096]
    tree_ts, naive_ts = [], []
    for n in ns:
        boxes = grid_of_boxes(n, 2)
        # both sides get the same repetitions, so neither slope carries more
        # single-shot noise than the other
        reps = 3 if n <= 1024 else 1
        tree_ts.append(min(_timed(lambda: BBoxSet.from_bboxes(boxes)) for _ in range(reps)))
        naive_ts.append(min(_timed(lambda: NaiveBoxList(2).union_all(boxes)) for _ in range(reps)))
    slope_tree = float(np.polyfit(np.log(ns), np.log(tree_ts), 1)[0])
    slope_naive = float(np.polyfit(np.log(ns), np.log(naive_ts), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = slope_tree <= 1.5 and slope_naive >= 1.8 and elapsed < 300.0
    report(4, ok,
           f"grid-of-boxes union, n=64..4096: tree slope {slope_tree:.2f} (<= 1.5), "
           f"naive slope {slope_naive:.2f} (>= 1.8), {elapsed:.0f}s (< 300s)")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_5_iterate_masked_exhaustive():
    """Every index in [imin, imax) hit exactly once, for all bounds <= 64 and widths."""
    checked = 0
    for w in (1, 2, 4, 8):
        for imin in range(0, 65):
            for imax in range(imin, 65):
                seen = []
                for i, m in vl.iterate_masked(imin, imax, w):
                    seen.extend(i + l for l in range(w) if m.active[l])
                assert seen == list(range(imin, imax)), (w, imin, imax)
                checked += 1
    report(5, True, f"{checked} (imin, imax, W) combinations: coverage and uniqueness exact")


def test_criterion_6_stencil_kernels_bit_identical():
    """Forward/centered difference kernels bit-identical to the scalar loops,
    lengths 1..129, every supported width, unfused-fma contract."""
    x, y, z = 0.1, 10.0, -1.0  # x*y rounds to 1.0, so x*y + z is 0.0; fused, it is not
    assert vl.vfma_fused(vl.vset1(x, 1), vl.vset1(y, 1), vl.vset1(z, 1)).lanes[0] != x * y + z
    assert vl.vfma(vl.vset1(x, 1), vl.vset1(y, 1), vl.vset1(z, 1)).lanes[0] == x * y + z
    rng = random.Random(960_000)
    checked = 0
    for n in range(1, 130):
        vals = [rng.uniform(-1e6, 1e6) for _ in range(n)]
        fwd_ref, ctr_ref = [0.0] * n, [0.0] * n
        for i in range(n - 1):
            fwd_ref[i] = vals[i + 1] - vals[i]
        for i in range(1, n - 1):
            ctr_ref[i] = 0.5 * (vals[i + 1] - vals[i - 1])
        for w in (1, 2, 4, 8):
            src = vl.AlignedArray.from_values(vals, w)
            dst = vl.AlignedArray(n, w)
            vl.forward_difference(dst, src, n)
            assert dst.to_list() == fwd_ref, (n, w, "forward")
            dst = vl.AlignedArray(n, w)
            vl.centered_difference(dst, src, n)
            assert dst.to_list() == ctr_ref, (n, w, "centered")
            checked += 2
    report(6, True, f"{checked} kernel runs bit-identical to scalar reference")


def test_criterion_7_plan_partition_and_result_independence():
    """200 random plans partition exactly at every level; kernel output is
    bit-identical across parameter settings and worker counts."""
    rng = random.Random(970_000)
    topo = TopologyConfig(n_coarse_threads=4, n_fine_threads=2, lane_width=4)
    for _ in range(200):
        d = rng.choice([1, 2, 3])
        lo = tuple(rng.randint(-8, 8) for _ in range(d))
        ext = tuple(rng.randint(1, 32) for _ in range(d))
        space = IndexSpace(lo, tuple(l + e for l, e in zip(lo, ext)))
        setup = LoopSetup("c7", ext, "vector", 4, 2)
        params = rng.choice(enumerate_valid_params(setup, topo))
        plan = build_plan(space, params)
        _assert_partition(space, plan.blocks())
        for b in plan.blocks():
            _assert_partition(b, plan.tiles(b))
            for t in plan.tiles(b):
                _assert_partition(t, plan.slices(t))

    # result independence on a fixed 3-point stencil
    n, w = 301, 4
    vals = [rng.uniform(-10, 10) for _ in range(n)]
    setup = LoopSetup("c7k", (n - 2,), "vector", 1, 1)
    reference = None
    pool = enumerate_valid_params(setup, TopologyConfig(lane_width=w))
    runs = 0
    for params in rng.sample(pool, min(12, len(pool))):
        for workers in (1, 2, 4):
            src = vl.AlignedArray.from_values(vals, w)
            dst = vl.AlignedArray(n, w)

            def kern(piece):
                half = vl.vset1(0.5, w)
                for i, m in vl.iterate_masked(piece.lo[0], piece.hi[0], w):
                    bim = vl.vload_off(-1, src, i - 1)
                    bip = vl.vload_off(+1, src, i + 1)
                    vl.vstore_nta_partial(dst, i, vl.vmul(half, vl.vsub(bip, bim)), m)

            execute_plan(build_plan(IndexSpace((1,), (n - 1,)), params), kern, workers, 1)
            got = dst.to_list()
            reference = reference if reference is not None else got
            assert got == reference, (params, workers)
            runs += 1
    report(7, True,
           f"200 plans partition exactly at every level; "
           f"{runs} kernel runs bit-identical across params and 1/2/4 workers")


def _assert_partition(parent, children):
    assert sum(c.volume() for c in children) == parent.volume()
    seen = set()
    for c in children:
        for p in itertools.product(*[range(l, h) for l, h in zip(c.lo, c.hi)]):
            assert p not in seen
            seen.add(p)


def test_criterion_8_tuner_convergence():
    """>= 90/100 seeded runs within 10% of the exhaustively known optimum in
    <= 50 evaluations; bad configs never re-sampled consecutively; deterministic."""
    t0 = time.perf_counter()
    topo = TopologyConfig(n_coarse_threads=4, n_fine_threads=1, lane_width=4)
    rep1 = run_simulation(100, 50, topo)
    rep2 = run_simulation(100, 50, topo)
    deterministic = [r.sampled for r in rep1.results] == [r.sampled for r in rep2.results]
    elapsed = time.perf_counter() - t0
    ok = (rep1.converged >= 90 and rep1.max_violations == 0
          and deterministic and elapsed < 30.0)
    report(8, ok,
           f"{rep1.converged}/100 seeds within 10% of optimum {rep1.optimum:.3f} "
           f"in <= 50 evals (median {rep1.median_evals_to_target}); "
           f"consecutive re-samples of >1.5x-best configs: {rep1.max_violations} (want 0); "
           f"deterministic: {deterministic}; {elapsed:.1f}s (< 30s)")


def test_criterion_9_stencil_demo_bit_identical():
    """Serial, naive-split, and tuned 64^3 Laplacian agree bit for bit over
    100 iterations; relative timings are reported, not asserted."""
    n, iters, seed = 64, 100, 20130715
    topo = TopologyConfig(n_coarse_threads=2, n_fine_threads=1, lane_width=4, rng_seed=seed)
    serial = run_serial(n, iters, seed)
    naive = run_naive(n, iters, seed, topo.n_coarse_threads)
    tuned, tuner = run_tuned(n, iters, seed, topo)
    ok = bit_identical(serial.final, naive.final) and bit_identical(serial.final, tuned.final)
    med = lambda xs: sorted(xs)[len(xs) // 2]
    report(9, ok,
           f"64^3 x 100 iterations bit-identical across serial/naive/tuned; "
           f"median s/iter serial {med(serial.iter_seconds):.4f}, "
           f"naive {med(naive.iter_seconds):.4f}, "
           f"tuned (last 20) {med(tuned.iter_seconds[-20:]):.4f} (reported only)")
