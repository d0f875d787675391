import csv
import gc
import hashlib
import math
import pickle
import random
import statistics
import tracemalloc
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import fields, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import stencilrt.tuner as tuner
from stencilrt.lattice import UsageError
from stencilrt.synthetic import SyntheticSurface, run_simulation
from stencilrt.tuner import (
    ExecParams,
    LoopSetup,
    TopologyConfig,
    Tuner,
    check_params,
    enumerate_valid_params,
    neighbors,
    params_initial,
    random_params,
)

TOPO4 = TopologyConfig(n_coarse_threads=4, n_fine_threads=1, lane_width=4)
SETUP3D = LoopSetup("cfg", (64, 64, 64), "vector", 4, 1)


class TestTopologyConfig:
    def test_from_file(self, tmp_path):
        cfg = tmp_path / "topo.cfg"
        cfg.write_text(
            "# test topology\n"
            "cache_size_bytes = 131072\n"
            "n_coarse_threads = 8\n"
            "p_restart = 0.1\n"
        )
        topo = TopologyConfig.from_file(cfg)
        assert topo.cache_size_bytes == 131072
        assert topo.n_coarse_threads == 8
        assert topo.p_restart == 0.1
        assert topo.lane_width == 4  # default preserved

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "topo.cfg"
        cfg.write_text("cache_levels = 3\n")
        with pytest.raises(UsageError):
            TopologyConfig.from_file(cfg)

    def test_repeated_key_rejected(self, tmp_path):
        cfg = tmp_path / "topo.cfg"
        cfg.write_text("lane_width = 4\ncache_line_bytes = 64\nlane_width = 8\n")
        with pytest.raises(UsageError, match="repeated topology key: lane_width"):
            TopologyConfig.from_file(cfg)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(UsageError):
            TopologyConfig.from_file(tmp_path / "absent.cfg")

    @pytest.mark.parametrize("line", ["n_coarse_threads = two", "p_restart = often", "lane_width = 3"])
    def test_bad_file_value_rejected(self, tmp_path, line):
        cfg = tmp_path / "topo.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(UsageError):
            TopologyConfig.from_file(cfg)

    @pytest.mark.parametrize("bad", [
        {"n_coarse_threads": 0},
        {"n_fine_threads": 0},
        {"n_coarse_threads": 65},
        {"n_coarse_threads": 8, "n_fine_threads": 9},
        {"lane_width": 3},
        {"lane_width": 0},
        {"lane_width": 32},
        {"p_restart": -0.01},
        {"p_restart": 1.01},
        {"p_restart": float("nan")},
        {"abort_factor": 1.0},
        {"abort_factor": float("inf")},
        {"abort_factor": float("nan")},
        {"cache_size_bytes": 0},
        {"cache_line_bytes": -64},
    ])
    def test_bad_values_rejected(self, bad):
        with pytest.raises(UsageError):
            TopologyConfig(**bad)

    def test_lane_width_ignores_environment(self, monkeypatch):
        monkeypatch.setenv("LANE_WIDTH", "8")
        assert TopologyConfig().lane_width == 4

    def test_limits_accepted(self):
        # constructing a config starts no thread, so the thread cap is tested as a value
        topo = TopologyConfig(n_coarse_threads=8, n_fine_threads=8, lane_width=16,
                              p_restart=1.0, abort_factor=1.01, cache_size_bytes=1, cache_line_bytes=1)
        assert topo.n_coarse_threads * topo.n_fine_threads == 64
        assert TopologyConfig(n_coarse_threads=64, lane_width=1, p_restart=0.0).n_coarse_threads == 64


class TestParamsInitial:
    def test_satisfies_invariants(self):
        p = params_initial(SETUP3D, TOPO4)
        check_params(p, SETUP3D, TOPO4)

    def test_degenerate_single_thread(self):
        setup = LoopSetup("s", (8,), "vector", 1, 1)
        p = params_initial(setup, TopologyConfig(lane_width=4))
        assert p.coarse_split == (1,)
        assert p.tile_size == (8,)

    def test_deterministic(self):
        assert params_initial(SETUP3D, TOPO4) == params_initial(SETUP3D, TOPO4)

    def test_tiny_inner_extent_degrades(self):
        setup = LoopSetup("s", (3, 16), "vector", 1, 1)
        p = params_initial(setup, TopologyConfig(lane_width=4))
        assert p.tile_size[0] == 3  # whole extent, smaller than W
        check_params(p, setup, TopologyConfig(lane_width=4))
        assert p in enumerate_valid_params(setup, TopologyConfig(lane_width=4))

    def test_cache_line_alignment_class(self):
        setup = LoopSetup("s", (64, 64), "cache_line", 1, 1)
        topo = TopologyConfig(lane_width=4, cache_line_bytes=64)
        p = params_initial(setup, topo)
        assert p.tile_size[0] % 8 == 0  # 64-byte lines = 8 doubles
        assert p in enumerate_valid_params(setup, topo)

    def test_non_power_of_two_extents_start_listed(self):
        # the stencil-bench interior of a 64^3 grid on 2 coarse threads
        setup = LoopSetup("s", (62, 62, 62), "vector", 2, 1)
        topo = TopologyConfig(n_coarse_threads=2, lane_width=4)
        p = params_initial(setup, topo)
        assert p == ExecParams((1, 1, 2), (62, 16, 16), (1, 1, 1), 4)
        assert p in enumerate_valid_params(setup, topo)

    def test_inner_tile_floor_of_two_lanes(self):
        # a 4-point block along the inner axis, and a cache too small for any tile
        topo = TopologyConfig(n_coarse_threads=4, lane_width=4)
        assert params_initial(LoopSetup("s", (16, 2), "vector", 4, 1), topo).tile_size == (8, 2)
        small = TopologyConfig(lane_width=4, cache_size_bytes=64)
        assert params_initial(LoopSetup("s", (64, 4), "vector", 1, 1), small).tile_size == (8, 1)

    def test_split_outside_the_domain_falls_back(self):
        # the greedy split of 3 fine threads over the 2x2 tile would put 3 pieces on an extent of 2
        setup = LoopSetup("s", (2, 18), "vector", 9, 3)
        topo = TopologyConfig(n_coarse_threads=9, n_fine_threads=3, lane_width=4)
        p = params_initial(setup, topo)
        assert tuner._greedy_split(3, p.tile_size) == (3, 1)
        assert p.fine_split == (1, 3)
        assert p in enumerate_valid_params(setup, topo)


@pytest.mark.parametrize("alignment", ["none", "page"])
def test_unknown_alignment_class_rejected(alignment):
    with pytest.raises(UsageError):
        LoopSetup("s", (8,), alignment)


@pytest.mark.parametrize("extents, n_coarse, n_fine", [
    ((), 1, 1),
    ((8,), 0, 1),
    ((8,), -2, 1),
    ((8,), 1, 0),
    ((8,), 1, -2),
    ((8,), 8, 9),
])
def test_bad_loop_setup_rejected(extents, n_coarse, n_fine):
    with pytest.raises(UsageError):
        LoopSetup("s", extents, "vector", n_coarse, n_fine)


def enumerate_recursive(setup, topo):
    """Reference enumeration: tiles lexicographic with the innermost axis
    slowest, then coarse splits, then fine splits."""
    coarse = tuner._split_domain(setup.n_coarse_threads, setup)
    fine = tuner._split_domain(setup.n_fine_threads, setup)
    out = []

    def rec(axis, tile):
        if axis == setup.dim:
            out.extend(ExecParams(c, tuple(tile), f, topo.lane_width) for c in coarse for f in fine)
            return
        for t in tuner._tile_domain(setup, topo, axis):
            rec(axis + 1, tile + [t])

    rec(0, [])
    return out


def test_enumeration_order_matches_recursive_reference(rng):
    # random draws from the enumeration (criterion 7) depend on its order
    for _ in range(100):
        d = rng.choice([1, 2, 3])
        nc, nf = rng.choice([1, 2, 4, 6]), rng.choice([1, 2, 3])
        setup = LoopSetup("e", tuple(rng.randint(1, 40) for _ in range(d)),
                          rng.choice(["vector", "cache_line"]), nc, nf)
        topo = TopologyConfig(n_coarse_threads=nc, n_fine_threads=nf, lane_width=rng.choice([1, 2, 4, 8]))
        assert enumerate_valid_params(setup, topo) == enumerate_recursive(setup, topo)


class TestNeighbors:
    def test_double_and_halve_present(self):
        p = ExecParams((1, 2, 2), (8, 8, 8), (1, 1, 1), 4)
        moves = {q.tile_size for q in neighbors(p, SETUP3D, TOPO4)}
        assert (4, 8, 8) in moves
        assert (16, 8, 8) in moves

    def test_no_halving_below_width(self):
        p = ExecParams((1, 2, 2), (4, 8, 8), (1, 1, 1), 4)
        moves = {q.tile_size for q in neighbors(p, SETUP3D, TOPO4)}
        assert not any(t[0] < 4 for t in moves)

    def test_split_swap_preserves_product(self):
        p = ExecParams((1, 2, 2), (8, 8, 8), (1, 1, 1), 4)
        for q in neighbors(p, SETUP3D, TOPO4):
            assert math.prod(q.coarse_split) == 4

    def test_excludes_self_and_dedupes(self):
        p = params_initial(SETUP3D, TOPO4)
        ns = neighbors(p, SETUP3D, TOPO4)
        assert p not in ns
        assert len(ns) == len(set(ns))

    def test_symmetric_for_in_range_tiles(self):
        # enumerate a small grid; double/halve moves must be mutually reachable
        setup = LoopSetup("s", (32, 32), "vector", 2, 1)
        topo = TopologyConfig(n_coarse_threads=2, lane_width=4)
        for p in enumerate_valid_params(setup, topo):
            if p.tile_size[0] == setup.extents[0] or p.tile_size[1] == setup.extents[1]:
                continue  # clamped moves are legitimately one-way
            for q in neighbors(p, setup, topo):
                if q.coarse_split != p.coarse_split or q.fine_split != p.fine_split:
                    continue
                if q.tile_size[0] == setup.extents[0] or q.tile_size[1] == setup.extents[1]:
                    continue
                assert p in neighbors(q, setup, topo), (p, q)

    def test_all_valid(self):
        rng = random.Random(0)
        for _ in range(20):
            p = random_params(SETUP3D, TOPO4, rng)
            for q in neighbors(p, SETUP3D, TOPO4):
                check_params(q, SETUP3D, TOPO4)


def ref_neighbors(p, setup, topo):
    """The earlier route: double or halve by unit arithmetic, every candidate
    checked, first occurrences kept; halving from a whole extent that is not a
    power-of-two multiple of the unit goes to the largest one below it."""
    unit = tuner._inner_unit(setup, topo)
    out = []
    for i in range(setup.dim):
        lo = unit if i == 0 else 1
        e = setup.extents[i]
        t = p.tile_size[i]
        if t < e:
            out.append(replace(p, tile_size=tuner._set(p.tile_size, i, min(t * 2, e))))
        down = max(lo, ((t // 2) // lo) * lo)
        if t == e > lo:
            down = lo << ((e - 1) // lo).bit_length() - 1
        if down < t:
            out.append(replace(p, tile_size=tuner._set(p.tile_size, i, down)))
    out.extend(replace(p, coarse_split=m) for m in tuner._split_moves(p.coarse_split, setup))
    out.extend(replace(p, fine_split=m) for m in tuner._split_moves(p.fine_split, setup))
    seen, uniq = {p}, []
    for q in out:
        if q not in seen:
            try:
                check_params(q, setup, topo)
            except UsageError:
                continue
            seen.add(q)
            uniq.append(q)
    return uniq


def ref_random_params(setup, topo, rng):
    """The earlier route: domains rebuilt on every draw."""
    coarse = tuner._split_domain(setup.n_coarse_threads, setup)
    fine = tuner._split_domain(setup.n_fine_threads, setup)
    tile = tuple(rng.choice(tuner._tile_domain(setup, topo, axis)) for axis in range(setup.dim))
    return ExecParams(rng.choice(coarse), tile, rng.choice(fine), topo.lane_width)


def ref_params_initial(setup, topo):
    """The earlier route: domains rebuilt on every call."""
    def initial_split(threads, ext):
        split = tuner._greedy_split(threads, ext)
        domain = tuner._split_domain(threads, setup)
        return split if split in domain else domain[0]

    coarse = initial_split(setup.n_coarse_threads, setup.extents)
    domains = [tuner._tile_domain(setup, topo, axis) for axis in range(setup.dim)]
    blocks = [max(1, -(-e // c)) for e, c in zip(setup.extents, coarse)]
    k = [max(0, bisect_right(dom, b) - 1) for dom, b in zip(domains, blocks)]
    floor = min(bisect_left(domains[0], 2 * topo.lane_width), len(domains[0]) - 1)
    k[0] = max(k[0], floor)
    target = max(1, topo.cache_size_bytes // 16)
    while math.prod(dom[j] for dom, j in zip(domains, k)) > target:
        outer = [(domains[i][k[i]], i) for i in range(1, setup.dim) if k[i] > 0]
        if outer:
            k[max(outer)[1]] -= 1
        elif k[0] > floor:
            k[0] -= 1
        else:
            break
    tile = tuple(dom[j] for dom, j in zip(domains, k))
    return ExecParams(coarse, tile, initial_split(setup.n_fine_threads, tile), topo.lane_width)


def test_neighbors_match_checked_reference():
    """Identical lists on random (setup, params) pairs: 1-4 dims, any extents,
    both alignment classes, lane widths 1-8; params drawn from the enumeration,
    the heuristic start and short walks from it.  The draw and the start equal
    the uncached routes', and the draw leaves the rng where they leave it."""
    rng = random.Random(80_003)
    pairs = 0
    while pairs < 1200:
        d = rng.randint(1, 4)
        nc, nf = rng.choice([1, 2, 3, 4, 6]), rng.choice([1, 2, 3])
        setup = LoopSetup("n", tuple(rng.randint(1, 70) for _ in range(d)),
                          rng.choice(["vector", "cache_line"]), nc, nf)
        topo = TopologyConfig(n_coarse_threads=nc, n_fine_threads=nf, lane_width=rng.choice([1, 2, 4, 8]),
                              cache_line_bytes=rng.choice([32, 64, 128]))
        ref_rng = random.Random()
        ref_rng.setstate(rng.getstate())
        drawn = random_params(setup, topo, rng)
        assert drawn == ref_random_params(setup, topo, ref_rng), (setup, topo)
        assert rng.getstate() == ref_rng.getstate()
        start = params_initial(setup, topo)
        assert start == ref_params_initial(setup, topo), (setup, topo)
        p = rng.choice([drawn, start])
        for _ in range(4):
            ref = ref_neighbors(p, setup, topo)
            assert neighbors(p, setup, topo) == ref, (setup, topo, p)
            pairs += 1
            if not ref:
                break
            p = rng.choice(ref)


# settings outside SETUP3D's space under TOPO4
INVALID_SETTINGS = [
    ExecParams((1, 2, 2), (8, 8, 8), (1, 1, 1), 8),     # vector width
    ExecParams((1, 2, 1), (8, 8, 8), (1, 1, 1), 4),     # coarse split product
    ExecParams((1, 2, 2), (8, 8, 8), (1, 2, 1), 4),     # fine split product
    ExecParams((1, 2, 2), (0, 8, 8), (1, 1, 1), 4),     # tile below 1
    ExecParams((1, 2, 2), (8, 65, 8), (1, 1, 1), 4),    # tile beyond the extent
    ExecParams((1, 2, 2), (6, 8, 8), (1, 1, 1), 4),     # innermost tile off the lane grid
    ExecParams((1, 2, 2), (12, 8, 8), (1, 1, 1), 4),    # innermost tile on the grid, off the domain
    ExecParams((1, 2, 2), (8, 12, 8), (1, 1, 1), 4),    # outer tile off the domain
    ExecParams((2, 2), (8, 8), (1, 1), 4),              # dimension
    ExecParams((-1, -2, 2), (8, 8, 8), (1, 1, 1), 4),   # negative coarse pair, product 4
    ExecParams((1, 2, 2), (8, 8, 8), (-1, -1, 1), 4),   # negative fine pair, product 1
    ExecParams((1, 1, 1), (3, 3, 3), (1, 1, 1), 4),     # coarse split product 1, tiles off the domain
]


@pytest.mark.parametrize("bad", INVALID_SETTINGS)
def test_neighbors_reject_invalid_params(bad):
    with pytest.raises(UsageError):
        neighbors(bad, SETUP3D, TOPO4)


class TestSpaceMemo:
    def test_one_space_per_setup_across_seeds(self):
        setup = LoopSetup("memo-seeds", (64, 64, 64), "vector", 4, 1)
        surface = SyntheticSurface()
        tuner._space_of.cache_clear()
        for seed in range(100):
            t = Tuner(replace(TOPO4, rng_seed=seed))
            for _ in range(30):
                p = t.next_params(setup)
                t.record_timing(setup, p, surface.cost(p))
        assert tuner._space_of.cache_info().misses == 1

    def test_layout_fields_key_the_space(self):
        setup = LoopSetup("memo-key", (64, 64), "cache_line", 2, 1)
        topo = TopologyConfig(n_coarse_threads=2, lane_width=4)
        same = replace(topo, rng_seed=7, p_restart=0.5, abort_factor=3.0)
        assert tuner._space(setup, same) is tuner._space(setup, topo)
        for other in (replace(topo, lane_width=8), replace(topo, cache_line_bytes=128),
                      replace(topo, cache_size_bytes=4096)):
            assert tuner._space(setup, other) is not tuner._space(setup, topo)

    def test_memo_bounded(self):
        topo = TopologyConfig(lane_width=4)
        for n in range(tuner.SPACE_MEMO + 10):
            setup = LoopSetup(f"memo-{n}", (16, 16))
            assert params_initial(setup, topo) == ref_params_initial(setup, topo)
        info = tuner._space_of.cache_info()
        assert info.maxsize == tuner.SPACE_MEMO
        assert info.currsize == tuner.SPACE_MEMO

    @pytest.mark.parametrize("n_coarse", [60, 64])
    def test_one_full_space_is_small(self, n_coarse):
        """A 4-D space with every split's moves filled, as a long run may fill them."""
        setup = LoopSetup("memo-size", (64, 64, 64, 64), "vector", n_coarse, 1)
        topo = TopologyConfig(n_coarse_threads=n_coarse, lane_width=4)
        gc.collect()  # empties the tuple free lists, whose reuse tracemalloc does not see
        tracemalloc.start()
        try:
            space = tuner._Space(setup, topo)
            for split in tuner._factorizations(n_coarse, 4) + tuner._factorizations(1, 4):
                space.moves(split)
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert size < 96 * 1024


def walk(setup, topo, limit=None):
    """The start point and the settings a breadth-first walk of neighbors
    from it reaches, stopping once limit settings are known."""
    start = params_initial(setup, topo)
    seen, queue = {start}, deque([start])
    while queue and (limit is None or len(seen) < limit):
        for q in neighbors(queue.popleft(), setup, topo):
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return start, seen


def test_walk_reaches_exactly_the_enumeration():
    setup = LoopSetup("s", (62, 62, 62), "vector", 2, 1)
    topo = TopologyConfig(n_coarse_threads=2, lane_width=4)
    _, seen = walk(setup, topo)
    assert seen == set(enumerate_valid_params(setup, topo))


def test_walk_moves_every_prime_factor():
    """Coarse (5, 2) is reached only by moving the 5 out of (1, 10), not its smallest factor."""
    setup = LoopSetup("s", (8, 57), "vector", 10, 2)
    topo = TopologyConfig(n_coarse_threads=10, n_fine_threads=2, lane_width=4)
    _, seen = walk(setup, topo)
    assert seen == set(enumerate_valid_params(setup, topo))


@pytest.mark.parametrize("extents, n_coarse, n_listed", [
    ((3, 3), 6, 18),        # (2, 3) and (3, 2) fit; moving one prime gives (1, 6) or (6, 1)
    ((6, 4, 5), 30, 240),   # fitting splits connected only by swaps of different primes
    ((8, 1), 9, 12),        # no split of 9 fits: every factorization is listed
])
def test_walk_swaps_prime_factors(extents, n_coarse, n_listed):
    setup = LoopSetup("s", extents, "vector", n_coarse, 1)
    topo = TopologyConfig(n_coarse_threads=n_coarse, lane_width=1)
    listed = set(enumerate_valid_params(setup, topo))
    _, seen = walk(setup, topo)
    assert len(listed) == n_listed
    assert seen == listed


def test_walk_stays_in_the_enumeration():
    """On 1000 random setups (1-4 dims, extents 1-70, 1-12 coarse and 1-4 fine
    threads, both alignment classes, lane widths 1-8) the start point and the
    first 300 settings a walk reaches lie in the space.  Membership is judged
    by the domains whose product enumerate_valid_params lists (the enumeration
    order test pins that product), since the largest spaces hold ~10^6 settings.
    A walk that ends below 300 settings is complete, and reaches the whole
    enumeration."""
    rng = random.Random(10_001)
    complete = 0
    for _ in range(1000):
        d = rng.randint(1, 4)
        nc, nf = rng.randint(1, 12), rng.randint(1, 4)
        setup = LoopSetup("w", tuple(rng.randint(1, 70) for _ in range(d)),
                          rng.choice(["vector", "cache_line"]), nc, nf)
        topo = TopologyConfig(n_coarse_threads=nc, n_fine_threads=nf, lane_width=rng.choice([1, 2, 4, 8]))
        domains = [tuner._tile_domain(setup, topo, axis) for axis in range(d)]
        coarse, fine = tuner._split_domain(nc, setup), tuner._split_domain(nf, setup)
        start, seen = walk(setup, topo, limit=300)
        for q in seen:
            assert all(t in dom for t, dom in zip(q.tile_size, domains)), (setup, topo, start, q)
            assert q.coarse_split in coarse and q.fine_split in fine, (setup, topo, start, q)
        if len(seen) < 300:
            complete += 1
            assert seen == set(enumerate_valid_params(setup, topo)), (setup, topo)
    assert complete > 400


class TestRecordTiming:
    def test_warmup_discarded_then_first_sample_is_best(self):
        tuner = Tuner(TOPO4)
        p = tuner.next_params(SETUP3D)
        tuner.record_timing(SETUP3D, p, 100.0)  # warm-up, discarded
        assert tuner.best(SETUP3D) == (None, float("inf"))
        p2 = tuner.next_params(SETUP3D)
        assert p2 == p  # re-measure the heuristic params
        tuner.record_timing(SETUP3D, p2, 2.0)
        assert tuner.best(SETUP3D) == (p, 2.0)

    def test_better_median_updates_best(self):
        tuner = Tuner(TOPO4)
        p = tuner.next_params(SETUP3D)
        tuner.record_timing(SETUP3D, p, 5.0)
        tuner.record_timing(SETUP3D, p, 5.0)
        q = tuner.next_params(SETUP3D)
        tuner.record_timing(SETUP3D, q, 1.0)
        best_params, best_time = tuner.best(SETUP3D)
        assert best_params == q and best_time == 1.0

    def test_repeated_identical_samples_fix_median(self):
        tuner = Tuner(TOPO4)
        p = tuner.next_params(SETUP3D)
        for _ in range(6):
            tuner.record_timing(SETUP3D, p, 3.0)
        assert tuner.best(SETUP3D)[1] == 3.0

    def test_rejects_bad_values(self):
        tuner = Tuner(TOPO4)
        p = tuner.next_params(SETUP3D)
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(UsageError):
                tuner.record_timing(SETUP3D, p, bad)

    def test_one_window_per_setting(self, monkeypatch):
        built = []
        monkeypatch.setattr(tuner, "deque", lambda maxlen: built.append(maxlen) or deque(maxlen=maxlen))
        t = Tuner(TOPO4)
        p = t.next_params(SETUP3D)
        for _ in range(1 + 2 * tuner.MEDIAN_WINDOW):
            t.record_timing(SETUP3D, p, 1.0)
        assert built == [tuner.MEDIAN_WINDOW]

    @pytest.mark.parametrize("bad", INVALID_SETTINGS)
    def test_best_outside_the_space_rejected(self, bad):
        """A sample that would make a setting outside the space the best raises,
        keeps no sample of that setting and leaves the best and the log as
        they were, so next_params keeps handing out settings of the space."""
        tuner = Tuner(TOPO4)
        p = tuner.next_params(SETUP3D)
        tuner.record_timing(SETUP3D, p, 1.0)  # warm-up
        tuner.record_timing(SETUP3D, tuner.next_params(SETUP3D), 1.0)
        log = list(tuner.log)
        with pytest.raises(UsageError):
            tuner.record_timing(SETUP3D, bad, 0.1)
        assert tuner.best(SETUP3D) == (p, 1.0) and tuner.log == log
        assert bad not in tuner._states[SETUP3D].samples
        for _ in range(5):
            q = tuner.next_params(SETUP3D)
            check_params(q, SETUP3D, TOPO4)
            tuner.record_timing(SETUP3D, q, 2.0)

    def test_record_before_next_rejected(self):
        tuner = Tuner(TOPO4)
        with pytest.raises(UsageError, match="before next_params"):
            tuner.record_timing(SETUP3D, params_initial(SETUP3D, TOPO4), 1.0)

    @pytest.mark.parametrize("ask", [
        lambda t, s: t.best(s),
        lambda t, s: t.phase(s),
        lambda t, s: t.should_abort_excursion(s, 1.0),
    ], ids=["best", "phase", "should_abort_excursion"])
    def test_queries_of_an_unseen_setup_rejected(self, ask):
        tuner = Tuner(TOPO4)
        tuner.next_params(SETUP3D)
        with pytest.raises(UsageError, match="before next_params"):
            ask(tuner, LoopSetup("x", (8, 8)))
        assert list(tuner._states) == [SETUP3D]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=tuner.MEDIAN_WINDOW))
def test_window_median_is_the_statistics_median(samples):
    assert tuner._median(deque(samples)) == statistics.median(samples)


class TestCachedIdentity:
    """A setting or setup hashes (and a setting formats its flat() text) once;
    none of that may change what it equals, its repr or its fields."""

    def test_equal_distinct_settings_agree(self):
        a = ExecParams((1, 2, 2), (8, 16, 64), (1, 1, 1), 4)
        b = ExecParams((1, 2, 2), (8, 16, 64), (1, 1, 1), 4)
        assert a is not b
        assert a.flat() == "1x2x2/8x16x64/1x1x1/w4"
        assert a == b and not a != b and hash(a) == hash(b) and b.flat() == a.flat()
        assert {a: 1}[b] == 1

    def test_settings_differing_in_one_field_differ(self):
        a = ExecParams((1, 2, 2), (8, 16, 64), (1, 1, 1), 4)
        for b in (replace(a, coarse_split=(2, 2, 1)), replace(a, tile_size=(8, 16, 32)),
                  replace(a, fine_split=(1, 1, 2)), replace(a, vector_width=8)):
            assert a != b and not a == b and b not in {a}

    def test_equal_hashes_still_compare_fields(self):
        # hash(-1) == hash(-2) in CPython, so these two settings collide
        a, b = ExecParams((1,), (-1,), (1,), 1), ExecParams((1,), (-2,), (1,), 1)
        assert hash(a) == hash(b) and a != b and len({a, b}) == 2

    def test_replace_gives_fresh_text_and_hash(self):
        a = ExecParams((1, 2, 2), (8, 16, 64), (1, 1, 1), 4)
        a.flat(), hash(a)
        b = replace(a, tile_size=(4, 16, 64))
        assert b.flat() == "1x2x2/4x16x64/1x1x1/w4"
        assert hash(b) == hash(ExecParams((1, 2, 2), (4, 16, 64), (1, 1, 1), 4))
        assert b != a

    def test_repr_and_fields_unchanged(self):
        a = ExecParams((1, 2, 2), (8, 16, 64), (1, 1, 1), 4)
        a.flat(), hash(a)
        assert repr(a) == "ExecParams(coarse_split=(1, 2, 2), tile_size=(8, 16, 64), fine_split=(1, 1, 1), vector_width=4)"
        assert [f.name for f in fields(ExecParams)] == ["coarse_split", "tile_size", "fine_split", "vector_width"]
        assert [f.name for f in fields(LoopSetup)] == [
            "site_id", "extents", "alignment", "n_coarse_threads", "n_fine_threads"]
        assert repr(SETUP3D) == ("LoopSetup(site_id='cfg', extents=(64, 64, 64), alignment='vector', "
                                 "n_coarse_threads=4, n_fine_threads=1)")

    def test_setups_compare_by_fields(self):
        a = LoopSetup("cfg", (64, 64, 64), "vector", 4, 1)
        assert a is not SETUP3D and a == SETUP3D and hash(a) == hash(SETUP3D)
        assert replace(a, site_id="other") != SETUP3D
        assert a != ExecParams((1, 2, 2), (8, 16, 64), (1, 1, 1), 4) and a != ("cfg", (64, 64, 64))

    def test_pickle_carries_fields_only(self):
        # a cached hash of a str holds in one process only
        p = ExecParams((1, 2, 2), (8, 16, 64), (1, 1, 1), 4)
        p.flat()
        for obj in (SETUP3D, p):
            hash(obj)
            copy = pickle.loads(pickle.dumps(obj))
            assert vars(copy) == {f.name: getattr(obj, f.name) for f in fields(obj)}
            assert copy == obj and hash(copy) == hash(obj)


class TestAbortRule:
    def _primed(self):
        tuner = Tuner(TOPO4)
        p = tuner.next_params(SETUP3D)
        tuner.record_timing(SETUP3D, p, 1.0)   # warm-up
        tuner.record_timing(SETUP3D, tuner.next_params(SETUP3D), 1.0)
        return tuner

    def test_double_of_best_aborts(self):
        tuner = self._primed()
        assert tuner.should_abort_excursion(SETUP3D, 2.0)

    def test_equal_to_best_does_not(self):
        tuner = self._primed()
        assert not tuner.should_abort_excursion(SETUP3D, 1.0)

    def test_threshold_is_strict(self):
        tuner = self._primed()
        assert not tuner.should_abort_excursion(SETUP3D, 1.5)
        assert tuner.should_abort_excursion(SETUP3D, 1.5 + 1e-9)


class TestStateMachine:
    def test_monotone_best(self):
        surface = SyntheticSurface()
        tuner = Tuner(TOPO4)
        best_seen = float("inf")
        for _ in range(80):
            p = tuner.next_params(SETUP3D)
            tuner.record_timing(SETUP3D, p, surface.cost(p))
            _, bt = tuner.best(SETUP3D)
            assert bt <= best_seen + 1e-12
            best_seen = bt

    def test_neighbor_beating_best_becomes_center(self):
        # strictly decreasing costs force a recenter on every improvement
        tuner = Tuner(TOPO4)
        costs = iter(range(100, 0, -1))
        p = tuner.next_params(SETUP3D)
        tuner.record_timing(SETUP3D, p, float(next(costs)))  # warm-up
        seen = set()
        for _ in range(30):
            p = tuner.next_params(SETUP3D)
            seen.add(p)
            tuner.record_timing(SETUP3D, p, float(next(costs)))
        assert len(seen) > 5  # the climb keeps moving

    def test_setup_isolation(self):
        tuner = Tuner(TOPO4)
        s1 = LoopSetup("a", (64, 64, 64), "vector", 4, 1)
        s2 = LoopSetup("b", (64, 64, 64), "vector", 4, 1)
        p1 = tuner.next_params(s1)
        tuner.record_timing(s1, p1, 1.0)
        tuner.record_timing(s1, tuner.next_params(s1), 1.0)
        before = tuner.best(s2) if s2 in tuner._states else None
        tuner.next_params(s2)
        tuner.record_timing(s2, tuner.next_params(s2), 9.0)
        assert tuner.best(s1) == (p1, 1.0)

    def test_deterministic_sequences(self):
        surface = SyntheticSurface()

        def run():
            tuner = Tuner(TopologyConfig(n_coarse_threads=4, lane_width=4, rng_seed=77))
            seq = []
            for _ in range(60):
                p = tuner.next_params(SETUP3D)
                seq.append(p)
                tuner.record_timing(SETUP3D, p, surface.cost(p))
            return seq

        assert run() == run()

    def test_executed_params_always_valid(self):
        surface = SyntheticSurface()
        tuner = Tuner(TOPO4)
        for _ in range(80):
            p = tuner.next_params(SETUP3D)
            check_params(p, SETUP3D, TOPO4)
            tuner.record_timing(SETUP3D, p, surface.cost(p))


class TestSimulation:
    def test_convergence_small(self):
        report = run_simulation(20, 50, TOPO4)
        assert report.converged >= 18
        assert report.max_violations == 0

    def test_bad_config_dwell_bounded(self):
        # a restart landing on a 10x-cost config must be left after one sample
        surface = SyntheticSurface(cliff_penalty=10.0, cliff_volume=4096)
        report = run_simulation(30, 50, TOPO4, surface=surface)
        assert report.max_violations == 0

    def test_deterministic_report(self):
        r1 = run_simulation(10, 40, TOPO4)
        r2 = run_simulation(10, 40, TOPO4)
        assert [r.sampled for r in r1.results] == [r.sampled for r in r2.results]

    def test_decisions_pinned(self):
        """Criterion 8's sampled sequences, fixed: a change meant to alter the
        tuner's decisions updates this digest on purpose; any other must keep it."""
        sampled = [r.sampled for r in run_simulation(100, 50, TOPO4).results]
        digest = hashlib.sha256(repr(sampled).encode()).hexdigest()
        assert digest == "57c5610871063b3d67e8a724d0090528adcc4bd219241f836f88e2999c9011de"


class NoisySurface:
    """A cost times seeded log-normal noise, in SyntheticSurface's place."""

    def __init__(self, cost, sigma, seed):
        self._cost, self.sigma, self.rng = cost, sigma, random.Random(seed)

    def cost(self, p):
        return self._cost(p) * self.rng.lognormvariate(0.0, self.sigma)


def decisions(topo, setup, surface, evals):
    """Each setting next_params hands out, with the phase it leaves."""
    t = Tuner(topo)
    out = []
    for _ in range(evals):
        p = t.next_params(setup)
        out.append((p.flat(), t.phase(setup)))
        t.record_timing(setup, p, surface.cost(p))
    return out


def test_noisy_decisions_pinned():
    """Decisions under noise, fixed like test_decisions_pinned, on two surfaces
    that together reach every branch of next_params: criterion 8's surface
    with log-normal noise (sigma 0.2) aborts excursions, and a flat cost with
    sigma 0.1 noise and p_restart 0.5 serves a random setting's neighbors,
    recenters on random settings and lets excursions run out."""
    setup = LoopSetup("synthetic", (64, 64, 64), "vector", 4, 1)
    noisy = [decisions(replace(TOPO4, rng_seed=s), setup, NoisySurface(SyntheticSurface().cost, 0.2, s), 50)
             for s in range(100)]
    flat = replace(TOPO4, p_restart=0.5)
    flat_runs = [decisions(replace(flat, rng_seed=s), setup, NoisySurface(lambda p: 1.0, 0.1, s), 60)
                 for s in range(20)]
    digest = lambda runs: hashlib.sha256(repr(runs).encode()).hexdigest()
    assert digest(noisy) == "0ed7a5174bbd90fbf231acd0b5506ba22846c5e10505329c7d8f54b0cd7bc5b3"
    assert digest(flat_runs) == "7edbceddfd3816bf2652cd3f78542b4599b458abc6fdc1c77d0c8c88b5518910"


def test_csv_log_schema(tmp_path):
    surface = SyntheticSurface()
    tuner = Tuner(TOPO4)
    for _ in range(10):
        p = tuner.next_params(SETUP3D)
        tuner.record_timing(SETUP3D, p, surface.cost(p))
    out = tmp_path / "log.csv"
    tuner.write_log(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "setup_id,params,elapsed_ns,phase,is_best"
    assert len(lines) == 11
    assert lines[1].startswith("cfg,")
    phases = {line.split(",")[3] for line in lines[1:]}
    assert "warmup" in phases


def test_csv_log_quotes_fields(tmp_path):
    """A site_id holding a comma and a quote reads back through csv.reader as logged."""
    setup = LoopSetup('laplace,3d "v2"', (8, 8))
    tuner = Tuner(TopologyConfig(lane_width=4))
    for _ in range(5):
        p = tuner.next_params(setup)
        tuner.record_timing(setup, p, 1e-3)
    out = tmp_path / "log.csv"
    tuner.write_log(out)
    with open(out, newline="") as f:
        header, *rows = csv.reader(f)
    assert header == ["setup_id", "params", "elapsed_ns", "phase", "is_best"]
    assert rows == [[str(r[k]) for k in header] for r in tuner.log]
