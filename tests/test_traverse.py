import itertools
import random
import threading
import time
import tracemalloc
from collections import Counter, defaultdict

import pytest

import stencilrt.vlanes as vl
from stencilrt.lattice import BBox, UsageError, point, stride
from stencilrt.traverse import (
    IndexSpace,
    build_plan,
    execute_plan,
    index_space_from_bbox,
    index_space_to_bbox,
    run_loop,
    run_static,
)
from stencilrt.tuner import (
    ExecParams,
    LoopSetup,
    TopologyConfig,
    Tuner,
    check_params,
    enumerate_valid_params,
)


def points_of(s: IndexSpace):
    return itertools.product(*[range(l, h) for l, h in zip(s.lo, s.hi)])


def prefix_split(cuts_per_dim):
    """Reference cutter: grows every piece one dimension at a time, outermost
    dimension varying slowest, building a space for each prefix."""
    pieces = [IndexSpace((), ())]
    for cuts in reversed(cuts_per_dim):
        nxt = []
        for piece in pieces:
            for k in range(len(cuts) - 1):
                nxt.append(IndexSpace((cuts[k],) + piece.lo, (cuts[k + 1],) + piece.hi))
        pieces = nxt
    return pieces


def _ref_even_cuts(a, b, n, unit):
    cuts = [a]
    for j in range(1, n):
        c = a + (b - a) * j // n
        c = (c // unit) * unit
        if cuts[-1] < c < b:
            cuts.append(c)
    cuts.append(b)
    return cuts


def _ref_grid_cuts(a, b, t):
    cuts = [a]
    first = (a // t + 1) * t
    cuts.extend(range(first, b, t))
    cuts.append(b)
    return cuts


def _ref_split_space(cuts_per_dim):
    outer_first = cuts_per_dim[::-1]
    los = itertools.product(*(cuts[:-1] for cuts in outer_first))
    his = itertools.product(*(cuts[1:] for cuts in outer_first))
    return [IndexSpace(lo[::-1], hi[::-1]) for lo, hi in zip(los, his)]


class ReferencePlan:
    """The engine's earlier cutting route, kept as the reference: each level
    cut on its own (every tile re-cut into slices) into checked IndexSpaces
    by a cutter over per-dimension cut lists."""

    def __init__(self, space, params, cutter=_ref_split_space):
        self.space, self.params, self.cutter = space, params, cutter

    def blocks(self):
        return self._even(self.space, self.params.coarse_split)

    def tiles(self, block):
        return self.cutter([_ref_grid_cuts(a, b, t) for a, b, t in zip(block.lo, block.hi, self.params.tile_size)])

    def slices(self, tile):
        return self._even(tile, self.params.fine_split)

    def _even(self, space, split):
        units = [self.params.vector_width] + [1] * (space.dim - 1)
        return self.cutter([_ref_even_cuts(a, b, n, u) for a, b, n, u in zip(space.lo, space.hi, split, units)])

    def pieces(self):
        for block in self.blocks():
            for tile in self.tiles(block):
                yield from self.slices(tile)


def random_plan_args(rng, lanes=(1, 2, 4, 8)):
    """A space of 1-3 dims (negative lows, empty dimensions) and positive params."""
    d = rng.choice([1, 2, 3])
    lo = tuple(rng.randint(-9, 9) for _ in range(d))
    ext = tuple(rng.randint(0, 20) for _ in range(d))
    p = ExecParams(
        tuple(rng.randint(1, 4) for _ in range(d)),
        tuple(rng.randint(1, 12) for _ in range(d)),
        tuple(rng.randint(1, 3) for _ in range(d)),
        rng.choice(lanes),
    )
    return IndexSpace(lo, tuple(l + e for l, e in zip(lo, ext))), p


def assert_partition(parent, children):
    assert sum(c.volume() for c in children) == parent.volume()
    seen = set()
    for c in children:
        for p in points_of(c):
            assert p not in seen, f"{p} covered twice"
            seen.add(p)
    assert len(seen) == parent.volume()


def assert_plan_partitions(plan):
    assert_partition(plan.space, plan.blocks())
    for b in plan.blocks():
        assert_partition(b, plan.tiles(b))
        for t in plan.tiles(b):
            assert_partition(t, plan.slices(t))


class TestBuildPlan:
    def test_16x16_example(self):
        space = IndexSpace((0, 0), (16, 16))
        plan = build_plan(space, ExecParams((2, 1), (8, 8), (1, 1), 4))
        assert len(plan.blocks()) == 2
        assert_plan_partitions(plan)
        starts = set()
        for piece in plan.pieces():
            for i, _ in vl.iterate_masked(piece.lo[0], piece.hi[0], 4):
                starts.add(i)
        assert starts == {0, 4, 8, 12}

    def test_degenerate_whole_space(self):
        space = IndexSpace((0, 0), (12, 7))
        plan = build_plan(space, ExecParams((1, 1), (12, 7), (1, 1), 4))
        pieces = list(plan.pieces())
        assert pieces == [space]

    def test_more_blocks_than_indices_degrades(self):
        space = IndexSpace((0,), (3,))
        plan = build_plan(space, ExecParams((8,), (3,), (1,), 4))
        assert_plan_partitions(plan)
        assert 1 <= len(plan.blocks()) <= 3

    @pytest.mark.parametrize("params", [
        ExecParams((1,), (4, 4), (1, 1), 4),
        ExecParams((1, 1), (4,), (1, 1), 4),
        ExecParams((1, 1), (4, 4), (1,), 4),
    ])
    def test_dimension_mismatch_rejected(self, params):
        with pytest.raises(UsageError):
            build_plan(IndexSpace((0, 0), (8, 8)), params)

    def test_deterministic(self):
        space = IndexSpace((0, 0, 0), (20, 20, 20))
        p = ExecParams((1, 2, 2), (8, 8, 8), (1, 1, 1), 4)
        assert build_plan(space, p) == build_plan(space, p)
        assert list(build_plan(space, p).pieces()) == list(build_plan(space, p).pieces())

    def test_pieces_match_prefix_cutter(self, rng):
        for _ in range(300):
            space, p = random_plan_args(rng)
            assert list(build_plan(space, p).pieces()) == list(ReferencePlan(space, p, prefix_split).pieces())

    def test_cuts_match_reference_route(self, rng):
        empty_dims = 0
        for _ in range(320):
            space, p = random_plan_args(rng, lanes=range(1, 9))
            empty_dims += space.volume() == 0
            plan, ref = build_plan(space, p), ReferencePlan(space, p)
            blocks = ref.blocks()
            assert plan.blocks() == blocks
            for block in blocks:
                tiles = ref.tiles(block)
                assert plan.tiles(block) == tiles
                slices = [ref.slices(tile) for tile in tiles]
                assert [plan.slices(tile) for tile in tiles] == slices
                for n in (1, 2, 3):
                    for f in range(n):
                        assert list(plan.tile_slices(block, f, n)) == [s for ss in slices for s in ss[f::n]]
            assert list(plan.pieces()) == list(ref.pieces())
        assert empty_dims > 10

    def test_zero_dimensional_space_is_one_piece(self):
        plan = build_plan(IndexSpace((), ()), ExecParams((), (), (), 1))
        assert list(plan.pieces()) == [IndexSpace((), ())]

    @pytest.mark.parametrize("params", [
        ExecParams((2,), (16,), (1,), 0),
        ExecParams((2,), (16,), (1,), -4),
        ExecParams((0,), (16,), (1,), 4),
        ExecParams((-1,), (16,), (1,), 4),
        ExecParams((2,), (0,), (1,), 4),
        ExecParams((2,), (-8,), (1,), 4),
        ExecParams((2,), (16,), (0,), 4),
        ExecParams((2,), (16,), (-2,), 4),
        ExecParams((1, 0), (4, 4), (1, 1), 4),
        ExecParams((1, 1), (4, 0), (1, 1), 4),
        ExecParams((1, 1), (4, 4), (0, 1), 4),
    ])
    def test_non_positive_params_rejected(self, params):
        with pytest.raises(UsageError):
            build_plan(IndexSpace((0,) * len(params.tile_size), (8,) * len(params.tile_size)), params)

    @pytest.mark.parametrize("params", [
        ExecParams((2,), (8, 8), (1, 1), 4),          # dimension
        ExecParams((-1, -2), (8, 8), (1, 1), 4),      # negative splits whose product is the thread count
        ExecParams((2, 1), (8, 8), (-1, -1), 4),
        ExecParams((2, 1), (0, 8), (1, 1), 4),        # tile below 1
        ExecParams((2, 1), (8, 8), (1, 1), 0),        # vector width below 1
    ])
    def test_shape_rejected_with_the_tuner_text(self, params):
        """build_plan and check_params reject a bad shape with one text."""
        with pytest.raises(UsageError) as plan_error:
            build_plan(IndexSpace((0, 0), (64, 64)), params)
        with pytest.raises(UsageError) as tuner_error:
            check_params(params, LoopSetup("s", (64, 64), "vector", 2, 1), TopologyConfig(lane_width=4))
        assert str(plan_error.value) == str(tuner_error.value)

    def test_every_valid_param_builds(self):
        for ext in [(7,), (12, 5), (9, 6, 4)]:
            setup = LoopSetup("v", ext, "vector", 2, 2)
            params = enumerate_valid_params(setup, TopologyConfig(n_coarse_threads=2, n_fine_threads=2, lane_width=4))
            assert params
            for p in params:
                build_plan(IndexSpace((0,) * len(ext), ext), p)

    def test_checks_once_per_plan(self, monkeypatch):
        space = IndexSpace((0, 0, 0), (62, 62, 62))
        plan = build_plan(space, ExecParams((1, 1, 1), (4, 1, 1), (1, 1, 1), 4))
        checks = []
        real_check = IndexSpace.__post_init__

        def counting_check(s):
            checks.append(s)
            real_check(s)

        monkeypatch.setattr(IndexSpace, "__post_init__", counting_check)
        ran = []
        execute_plan(plan, ran.append, 1, 2)
        assert len(ran) == 61_504
        assert all(type(piece) is IndexSpace for piece in ran[::997])
        assert len(checks) <= 2
        n_checks = len(checks)
        with pytest.raises(UsageError):
            IndexSpace((0,), (-1,))
        with pytest.raises(UsageError):
            IndexSpace((0,), (1, 2))
        assert len(checks) == n_checks + 2

    def test_randomized_partition_exactness(self, rng):
        topo = TopologyConfig(n_coarse_threads=4, n_fine_threads=2, lane_width=4)
        for _ in range(60):
            d = rng.choice([1, 2, 3])
            lo = tuple(rng.randint(-4, 4) for _ in range(d))
            ext = tuple(rng.randint(1, 24) for _ in range(d))
            space = IndexSpace(lo, tuple(l + e for l, e in zip(lo, ext)))
            setup = LoopSetup("r", ext, "vector", 4, 2)
            p = rng.choice(enumerate_valid_params(setup, topo))
            assert_plan_partitions(build_plan(space, p))

    def test_lane_runs_cover_exactly_once(self, rng):
        for _ in range(20):
            d = rng.choice([1, 2])
            ext = tuple(rng.randint(1, 20) for _ in range(d))
            space = IndexSpace((0,) * d, ext)
            setup = LoopSetup("r", ext, "vector", 2, 1)
            topo = TopologyConfig(n_coarse_threads=2, lane_width=4)
            p = rng.choice(enumerate_valid_params(setup, topo))
            plan = build_plan(space, p)
            seen = set()
            for piece in plan.pieces():
                outer = itertools.product(*[range(piece.lo[k], piece.hi[k]) for k in range(1, d)])
                for rest in outer:
                    for i, m in vl.iterate_masked(piece.lo[0], piece.hi[0], 4):
                        for l in range(4):
                            if m.active[l]:
                                idx = (i + l,) + rest
                                assert idx not in seen
                                seen.add(idx)
            assert len(seen) == space.volume()

    def test_interior_inner_boundaries_lane_aligned(self, rng):
        """Masked stores are only needed at the space boundary: every piece
        either starts at a multiple of W or at the space's own lower bound,
        and ends at a multiple of W or the space's upper bound."""
        topo = TopologyConfig(n_coarse_threads=4, n_fine_threads=2, lane_width=4)
        for _ in range(30):
            ext = (rng.randint(1, 30), rng.randint(1, 8))
            space = IndexSpace((0, 0), ext)
            setup = LoopSetup("r", ext, "vector", 4, 2)
            p = rng.choice(enumerate_valid_params(setup, topo))
            for piece in build_plan(space, p).pieces():
                assert piece.lo[0] % 4 == 0 or piece.lo[0] == space.lo[0]
                assert piece.hi[0] % 4 == 0 or piece.hi[0] == space.hi[0]


class TestConversions:
    def test_bbox_roundtrip(self):
        b = BBox(point(2, 3), point(9, 4), stride(1, 1))
        s = index_space_from_bbox(b)
        assert s == IndexSpace((2, 3), (10, 5))
        assert index_space_to_bbox(s) == b

    def test_empty(self):
        assert index_space_from_bbox(BBox.empty(2)).volume() == 0
        assert index_space_to_bbox(IndexSpace((3,), (3,))).is_empty

    def test_strided_rejected(self):
        with pytest.raises(UsageError):
            index_space_from_bbox(BBox(point(0), point(4), stride(2)))


class TestRunLoop:
    def test_identity_kernel_100_tuned_iterations(self):
        n = 1000
        src = list(range(n))
        out = [0] * n

        def kern(piece):
            for i in range(piece.lo[0], piece.hi[0]):
                out[i] = src[i]

        setup = LoopSetup("ident", (n,), "vector", 2, 1)
        tuner = Tuner(TopologyConfig(n_coarse_threads=2, lane_width=4))
        space = IndexSpace((0,), (n,))
        for _ in range(100):
            out[:] = [0] * n
            elapsed = run_loop(setup, space, kern, tuner)
            assert elapsed >= 0
            assert out == src

    def test_stencil_bit_exact_for_random_shapes(self, rng):
        for trial in range(50):
            n = rng.randint(3, 300)
            w = rng.choice([1, 2, 4, 8])
            vals = [rng.uniform(-5, 5) for _ in range(n)]
            src = vl.AlignedArray.from_values(vals, w)
            dst = vl.AlignedArray(n, w)

            def kern(piece):
                half = vl.vset1(0.5, w)
                for i, m in vl.iterate_masked(piece.lo[0], piece.hi[0], w):
                    bim = vl.vload_off(-1, src, i - 1)
                    bip = vl.vload_off(+1, src, i + 1)
                    vl.vstore_nta_partial(dst, i, vl.vmul(half, vl.vsub(bip, bim)), m)

            setup = LoopSetup(f"s{trial}", (n - 2,), "vector", 2, 1)
            tuner = Tuner(TopologyConfig(n_coarse_threads=2, lane_width=w))
            run_loop(setup, IndexSpace((1,), (n - 1,)), kern, tuner)
            ref = [0.0] * n
            for i in range(1, n - 1):
                ref[i] = 0.5 * (vals[i + 1] - vals[i - 1])
            assert dst.to_list() == ref

    def test_nonuniform_kernel_blocks_run_exactly_once(self):
        space = IndexSpace((0, 0), (32, 32))
        plan = build_plan(space, ExecParams((2, 2), (8, 8), (1, 1), 4))
        executed = []

        def kern(piece):
            # cost grows with index; list.append is atomic under the GIL
            total = sum(i for i in range(piece.lo[0], piece.hi[0]))
            executed.append((piece, total))

        execute_plan(plan, kern, 4, 1)
        pieces = [e[0] for e in executed]
        assert_partition(space, pieces)

    def test_failure_propagates_and_timing_discarded(self):
        setup = LoopSetup("boom", (16,), "vector", 2, 1)
        tuner = Tuner(TopologyConfig(n_coarse_threads=2, lane_width=4))

        def bad(piece):
            raise ValueError("kernel boom")

        with pytest.raises(ValueError):
            run_loop(setup, IndexSpace((0,), (16,)), bad, tuner)
        assert tuner.log == []

    @pytest.mark.parametrize("lo, hi", [((0,), (17,)), ((1,), (16,)), ((0, 0), (16, 1))])
    def test_space_the_setup_does_not_describe_rejected(self, lo, hi):
        setup = LoopSetup("s", (16,), "vector", 1, 1)
        tuner = Tuner(TopologyConfig(lane_width=4))
        ran = []
        with pytest.raises(UsageError, match="extents"):
            run_loop(setup, IndexSpace(lo, hi), ran.append, tuner)
        assert ran == []
        assert tuner.log == []
        assert tuner._states == {}

    def test_output_identical_across_params_and_worker_counts(self, rng):
        n = 257
        vals = [rng.uniform(-5, 5) for _ in range(n)]
        w = 4
        setup = LoopSetup("x", (n - 2,), "vector", 1, 1)
        topo = TopologyConfig(lane_width=w)
        reference = None
        params_pool = enumerate_valid_params(setup, topo)
        for params in rng.sample(params_pool, min(10, len(params_pool))):
            for workers in (1, 2, 4):
                src = vl.AlignedArray.from_values(vals, w)
                dst = vl.AlignedArray(n, w)

                def kern(piece):
                    for i, m in vl.iterate_masked(piece.lo[0], piece.hi[0], w):
                        bi = vl.vload_aligned(src, i)
                        bip = vl.vload_off(+1, src, i + 1)
                        vl.vstore_partial(dst, i, vl.vsub(bip, bi), m)

                plan = build_plan(IndexSpace((1,), (n - 1,)), params)
                execute_plan(plan, kern, workers, 1)
                got = dst.to_list()
                if reference is None:
                    reference = got
                assert got == reference


@pytest.fixture
def thread_starts(monkeypatch):
    """Threads started while the test runs, counted through Thread.start."""
    started = []
    real_start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


@pytest.fixture
def no_thread_start(monkeypatch):
    """Thread.start raises, so a call that misses a thread-count check fails
    without starting any thread."""

    def refuse(thread):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)


class TestExecuteThreads:
    # 2 blocks of 2 x 2 tiles, each tile cut into 2 fine slices along dim 1
    SPACE = IndexSpace((0, 0), (32, 16))
    PARAMS = ExecParams((2, 1), (8, 8), (1, 2), 4)

    @pytest.mark.parametrize("n_coarse, n_fine, expected", [(1, 1, 0), (1, 2, 2), (2, 1, 1)])
    def test_thread_starts_per_run(self, thread_starts, n_coarse, n_fine, expected):
        plan = build_plan(self.SPACE, self.PARAMS)
        assert len(plan.blocks()) == 2
        executed = []
        execute_plan(plan, executed.append, n_coarse, n_fine)
        assert len(thread_starts) == expected
        assert_partition(self.SPACE, executed)

    @pytest.mark.parametrize("n_coarse, n_fine", [(0, 1), (1, 0), (-1, 1), (65, 1), (9, 8)])
    def test_bad_thread_counts_rejected(self, no_thread_start, n_coarse, n_fine):
        ran = []
        with pytest.raises(UsageError, match="thread"):
            execute_plan(build_plan(self.SPACE, self.PARAMS), ran.append, n_coarse, n_fine)
        assert ran == []

    @pytest.mark.parametrize("failing_on_main", [False, True])
    def test_fine_worker_error_propagates_and_no_thread_left(self, failing_on_main):
        before = set(threading.enumerate())

        def bad(piece):
            if (threading.current_thread() is threading.main_thread()) == failing_on_main:
                raise ValueError("fine boom")

        with pytest.raises(ValueError, match="fine boom"):
            execute_plan(build_plan(self.SPACE, self.PARAMS), bad, 1, 2)
        assert set(threading.enumerate()) == before


@pytest.mark.parametrize("n_coarse, n_fine", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_execute_hands_kernel_reference_pieces(rng, n_coarse, n_fine):
    """Every reference piece reaches the kernel once, and within each block
    fine worker f runs slices f::n_fine of every tile, in tile order."""
    for _ in range(40):
        space, p = random_plan_args(rng, lanes=range(1, 9))
        ref = ReferencePlan(space, p)
        block_of = {piece: i for i, b in enumerate(ref.blocks()) for t in ref.tiles(b) for piece in ref.slices(t)}
        ran = []
        execute_plan(build_plan(space, p), lambda piece: ran.append((piece, threading.current_thread())), n_coarse, n_fine)
        assert Counter(piece for piece, _ in ran) == Counter(ref.pieces())
        assert len(ran) == len(block_of)
        runs = defaultdict(list)
        for piece, thread in ran:
            runs[block_of[piece], thread].append(piece)
        key = lambda seq: [(s.lo, s.hi) for s in seq]
        for i, block in enumerate(ref.blocks()):
            tiles = [ref.slices(t) for t in ref.tiles(block)]
            expected = [[s for slices in tiles for s in slices[f::n_fine]] for f in range(n_fine)]
            got = [seq for (j, _), seq in runs.items() if j == i]
            assert sorted(got, key=key) == sorted((seq for seq in expected if seq), key=key)


@pytest.mark.parametrize("n_fine", [1, 2])
def test_execution_memory_is_bounded(n_fine):
    """Each fine worker builds its slices as it reaches them, so a run of
    8,192 pieces traces under 1 MiB: no list of a block's pieces exists."""
    plan = build_plan(IndexSpace((0,) * 3, (32,) * 3), ExecParams((1, 1, 1), (4, 1, 2), (1, 1, 2), 4))
    ran = itertools.count()
    tracemalloc.start()
    try:
        execute_plan(plan, lambda piece: next(ran), 1, n_fine)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert next(ran) == 8192
    assert peak < 2 ** 20


@pytest.mark.parametrize("n_coarse, n_fine", [(3, 1), (1, 3)])
def test_refused_thread_start_propagates_after_join(monkeypatch, n_coarse, n_fine):
    """The second Thread.start of a group fails, as when the OS refuses a
    thread: the error reaches the caller once the first thread has ended."""
    before = set(threading.enumerate())
    started = []
    real_start = threading.Thread.start

    def refusing_start(thread):
        if started:
            raise RuntimeError("can't start new thread")
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", refusing_start)

    def slow(piece):
        time.sleep(0.02)

    plan = build_plan(IndexSpace((0, 0), (16, 16)), ExecParams((2, 1), (8, 8), (1, 3), 4))
    with pytest.raises(RuntimeError, match="can't start new thread"):
        execute_plan(plan, slow, n_coarse, n_fine)
    assert len(started) == 1
    assert not started[0].is_alive()
    assert set(threading.enumerate()) == before


class TestRunStatic:
    def test_even_split_correct(self):
        n = 100
        out = [0] * n

        def kern(piece):
            for i in range(piece.lo[0], piece.hi[0]):
                out[i] = i

        run_static(IndexSpace((0,), (n,)), kern, 4)
        assert out == list(range(n))

    def test_negative_lo_covers_every_point_once(self):
        space = IndexSpace((-5, -3, -7), (4, 6, 2))
        executed = []
        run_static(space, executed.append, 3)
        assert_partition(space, executed)

    SPACES = [((0,), (0,)), ((-3, 0), (5, 2)), ((2, 0, -4), (9, 3, 0))]

    @pytest.mark.parametrize("lo, hi", SPACES)
    @pytest.mark.parametrize("n_threads", [1, 3])
    def test_builds_for_any_space(self, lo, hi, n_threads):
        space = IndexSpace(lo, hi)
        executed = []
        run_static(space, executed.append, n_threads)
        assert_partition(space, executed)

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_zero_dimensional_space_runs_its_one_piece(self, n_threads):
        # build_plan and execute_plan run the one piece of a 0-d space; so must the baseline
        executed = []
        run_static(IndexSpace((), ()), executed.append, n_threads)
        assert executed == [IndexSpace((), ())]

    @pytest.mark.parametrize("lo, hi", SPACES)
    @pytest.mark.parametrize("n_threads", [0, -1, 65])
    def test_bad_thread_count_rejected(self, no_thread_start, lo, hi, n_threads):
        executed = []
        with pytest.raises(UsageError, match="thread"):
            run_static(IndexSpace(lo, hi), executed.append, n_threads)
        assert executed == []

    @pytest.mark.parametrize("lo, hi, n_pieces", [
        ((-64,) * 3, (0,) * 3, 2),      # one tile per block, not one per point
        ((-64,) * 3, (-10,) * 3, 2),
        ((-32,) * 3, (32,) * 3, 8),     # the only tile cut is at 0
        ((0,) * 3, (64,) * 3, 2),
    ])
    def test_tile_cut_only_at_zero(self, lo, hi, n_pieces):
        space = IndexSpace(lo, hi)
        executed = []
        run_static(space, executed.append, 2)
        assert len(executed) == n_pieces
        assert sum(p.volume() for p in executed) == space.volume()

    def test_one_thread_starts_none(self, thread_starts):
        executed = []
        run_static(IndexSpace((0, 0), (9, 9)), executed.append, 1)
        assert thread_starts == []
        assert executed == [IndexSpace((0, 0), (9, 9))]
