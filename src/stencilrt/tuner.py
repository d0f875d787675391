"""Run-time loop autotuner: random-restart hill climbing over index-space splits.

Each loop setup (source site + index-space extents + alignment + thread
counts) is optimized independently.  The tuner hands out execution parameters
(coarse-thread split, tile sizes, fine-thread split, vector width), receives
wall-clock measurements, and walks the parameter space:

* hill climbing: measure the neighbors of the best known setting one at a
  time, recentering whenever one improves on the best median;
* random restart: at a local optimum, jump to a uniformly random valid
  setting with a small probability, explore its neighborhood, and keep it
  only if it beats the best;
* excursion abort: any single sample worse than abort_factor x best causes
  an immediate return to the best setting, since bad parameter settings can
  be an order of magnitude slower and must never be dwelt on.

Thread counts are fixed at configuration time and never tuned.  All index
vectors (extents, tiles, splits) are ordered innermost dimension first.
"""
from __future__ import annotations

import itertools
import math
import random
import statistics
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path

from .lattice import UsageError
from .vlanes import _check_width

MEDIAN_WINDOW = 5
MAX_THREADS = 64  # coarse x fine threads of one loop


@dataclass(frozen=True)
class TopologyConfig:
    """Hardware description and tuner constants, supplied by configuration.

    Stands in for run-time hardware discovery; see topology.cfg in the README
    for the file format (``key = value`` lines, # comments).
    """

    cache_size_bytes: int = 262144
    cache_line_bytes: int = 64
    n_coarse_threads: int = 1
    n_fine_threads: int = 1
    lane_width: int = 4
    p_restart: float = 0.05
    abort_factor: float = 1.5
    rng_seed: int = 12345

    _INT_KEYS = ("cache_size_bytes", "cache_line_bytes", "n_coarse_threads",
                 "n_fine_threads", "lane_width", "rng_seed")
    _FLOAT_KEYS = ("p_restart", "abort_factor")

    def __post_init__(self) -> None:
        if self.n_coarse_threads < 1 or self.n_fine_threads < 1:
            raise UsageError("thread counts must be at least 1")
        if self.n_coarse_threads * self.n_fine_threads > MAX_THREADS:
            raise UsageError(f"coarse x fine threads must not exceed {MAX_THREADS}")
        _check_width(self.lane_width)
        if not 0 <= self.p_restart <= 1:
            raise UsageError(f"p_restart must lie in [0, 1]: {self.p_restart}")
        if not self.abort_factor > 1:
            raise UsageError(f"abort_factor must exceed 1: {self.abort_factor}")
        if self.cache_size_bytes < 1 or self.cache_line_bytes < 1:
            raise UsageError("cache sizes must be positive")

    @staticmethod
    def from_file(path: str | Path) -> "TopologyConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise UsageError(f"cannot read topology file: {exc}") from exc
        values = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"malformed topology line: {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key in TopologyConfig._INT_KEYS:
                parse = int
            elif key in TopologyConfig._FLOAT_KEYS:
                parse = float
            else:
                raise UsageError(f"unknown topology key: {key}")
            try:
                values[key] = parse(val)
            except ValueError:
                raise UsageError(f"malformed value for {key}: {val!r}") from None
        return TopologyConfig(**values)

    @property
    def cache_line_elems(self) -> int:
        return max(1, self.cache_line_bytes // 8)


@dataclass(frozen=True)
class LoopSetup:
    """Identity key for tuning; equal setups share one tuning history."""

    site_id: str
    extents: tuple[int, ...]
    alignment: str = "vector"  # vector | cache_line
    n_coarse_threads: int = 1
    n_fine_threads: int = 1

    def __post_init__(self) -> None:
        if any(e <= 0 for e in self.extents):
            raise UsageError(f"extents must be positive: {self.extents}")
        if self.alignment not in ("vector", "cache_line"):
            raise UsageError(f"unknown alignment class {self.alignment!r}")

    @property
    def dim(self) -> int:
        return len(self.extents)


@dataclass(frozen=True)
class ExecParams:
    """One point in the tunable space; thread counts are never changed."""

    coarse_split: tuple[int, ...]
    tile_size: tuple[int, ...]
    fine_split: tuple[int, ...]
    vector_width: int

    def flat(self) -> str:
        return "x".join(map(str, self.coarse_split)) + "/" + \
            "x".join(map(str, self.tile_size)) + "/" + \
            "x".join(map(str, self.fine_split)) + "/w" + str(self.vector_width)


def _inner_unit(setup: LoopSetup, topo: TopologyConfig) -> int:
    """Innermost tile sizes must be multiples of this: W, or the cache line
    for padded (cache_line aligned) arrays."""
    w = topo.lane_width
    if setup.alignment == "cache_line":
        line = topo.cache_line_elems
        return line * w // math.gcd(line, w)
    return w


def check_params(p: ExecParams, setup: LoopSetup, topo: TopologyConfig) -> None:
    """Raise unless p satisfies every invariant for this setup."""
    d = setup.dim
    if len(p.coarse_split) != d or len(p.tile_size) != d or len(p.fine_split) != d:
        raise UsageError("parameter vectors disagree with setup dimension")
    if math.prod(p.coarse_split) != setup.n_coarse_threads:
        raise UsageError(f"coarse split {p.coarse_split} does not use {setup.n_coarse_threads} threads")
    if math.prod(p.fine_split) != setup.n_fine_threads:
        raise UsageError(f"fine split {p.fine_split} does not use {setup.n_fine_threads} threads")
    if p.vector_width != topo.lane_width:
        raise UsageError(f"vector width {p.vector_width} != configured {topo.lane_width}")
    for i, (t, e) in enumerate(zip(p.tile_size, setup.extents)):
        if t < 1 or t > e:
            raise UsageError(f"tile size {t} out of range 1..{e} in dim {i}")
    unit = _inner_unit(setup, topo)
    t0, e0 = p.tile_size[0], setup.extents[0]
    if t0 % unit != 0 and t0 != e0:
        raise UsageError(f"innermost tile {t0} neither multiple of {unit} nor whole extent {e0}")


def _factorizations(n: int, d: int) -> list[tuple[int, ...]]:
    """All d-tuples of positive integers with product n, lexicographic."""
    if d == 1:
        return [(n,)]
    out = []
    for first in range(1, n + 1):
        if n % first == 0:
            out.extend((first,) + rest for rest in _factorizations(n // first, d - 1))
    return out


def _tile_domain(setup: LoopSetup, topo: TopologyConfig, axis: int) -> list[int]:
    """Power-of-two multiples of the axis unit, capped by (and including) the extent."""
    e = setup.extents[axis]
    unit = _inner_unit(setup, topo) if axis == 0 else 1
    vals = []
    t = unit
    while t < e:
        vals.append(t)
        t *= 2
    vals.append(e)
    return vals


def _split_domain(threads: int, setup: LoopSetup) -> list[tuple[int, ...]]:
    """Factorizations of a thread count over the dimensions; ones needing more
    pieces than a dimension has indices are kept only when nothing fits (the
    planner degrades such splits to fewer blocks)."""
    all_f = _factorizations(threads, setup.dim)
    fitting = [c for c in all_f if all(ci <= ei for ci, ei in zip(c, setup.extents))]
    return fitting or all_f


def enumerate_valid_params(setup: LoopSetup, topo: TopologyConfig) -> list[ExecParams]:
    """The full tunable space for a setup (used for random draws and for
    exhaustively locating the optimum of synthetic surfaces)."""
    coarse = _split_domain(setup.n_coarse_threads, setup)
    fine = _split_domain(setup.n_fine_threads, setup)
    tiles = itertools.product(*(_tile_domain(setup, topo, axis) for axis in range(setup.dim)))
    return [ExecParams(c, tile, f, topo.lane_width)
            for tile, c, f in itertools.product(tiles, coarse, fine)]


def random_params(setup: LoopSetup, topo: TopologyConfig, rng: random.Random) -> ExecParams:
    """Uniform draw from the valid parameter space."""
    d = setup.dim
    coarse = _split_domain(setup.n_coarse_threads, setup)
    fine = _split_domain(setup.n_fine_threads, setup)
    tile = tuple(rng.choice(_tile_domain(setup, topo, axis)) for axis in range(d))
    return ExecParams(rng.choice(coarse), tile, rng.choice(fine), topo.lane_width)


def params_initial(setup: LoopSetup, topo: TopologyConfig) -> ExecParams:
    """Deterministic heuristic starting point.

    Coarse threads split outer dimensions, balancing block volumes; tiles
    start at the block shape and halve outer dimensions until the working set
    is roughly half the target cache; the innermost tile stays a multiple of
    the alignment unit (and at least 2W) unless the extent itself is smaller.
    """
    d = setup.dim
    ext = setup.extents
    w = topo.lane_width
    unit = _inner_unit(setup, topo)

    coarse = _greedy_split(setup.n_coarse_threads, ext)
    block = [max(1, -(-e // c)) for e, c in zip(ext, coarse)]

    tile = list(block)
    tile[0] = _round_inner(block[0], ext[0], unit, 2 * w)
    target = max(1, topo.cache_size_bytes // 16)  # half the cache, in doubles
    while math.prod(tile) > target:
        # halve the largest outer dimension first; the inner tile only as a last resort
        outer = [(tile[i], i) for i in range(1, d) if tile[i] > 1]
        if outer:
            _, i = max(outer)
            tile[i] = max(1, tile[i] // 2)
        elif tile[0] > max(unit, 2 * w) and tile[0] % (2 * unit) == 0:
            tile[0] //= 2
        else:
            break
    tile[0] = _round_inner(tile[0], ext[0], unit, 2 * w)

    fine = _greedy_split(setup.n_fine_threads, tuple(tile))
    return ExecParams(tuple(coarse), tuple(tile), tuple(fine), w)


def _round_inner(t: int, extent: int, unit: int, floor: int) -> int:
    """Snap an innermost tile size to the unit grid, at least min(floor, extent)."""
    if extent < unit:
        return extent
    t = min(t, extent)
    t = max(t, min(floor, extent))
    if t % unit != 0 and t != extent:
        t = max(unit, (t // unit) * unit)
    return t


def _greedy_split(threads: int, ext: tuple[int, ...]) -> list[int]:
    """Factor a thread count over dimensions, biggest remaining extent first
    (ties go to the outermost dimension)."""
    d = len(ext)
    split = [1] * d
    for f in _prime_factors(threads):
        best_i, best_ratio = None, 0
        for i in range(d - 1, -1, -1):
            ratio = ext[i] / (split[i] * f)
            if ratio >= 1 and ratio > best_ratio:
                best_i, best_ratio = i, ratio
        if best_i is None:
            best_i = max(range(d), key=lambda i: ext[i] / split[i])
        split[best_i] *= f
    return split


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        while n % f == 0:
            out.append(f)
            n //= f
        f += 1
    if n > 1:
        out.append(n)
    return sorted(out, reverse=True)


def neighbors(p: ExecParams, setup: LoopSetup, topo: TopologyConfig) -> list[ExecParams]:
    """All settings one move away: double/halve one tile dimension, or move
    one prime factor of a thread split between two dimensions.

    Only p is checked: every such move of a valid setting is valid.
    """
    check_params(p, setup, topo)
    d = setup.dim
    unit = _inner_unit(setup, topo)
    out: list[ExecParams] = []

    for i in range(d):
        lo = unit if i == 0 else 1
        e = setup.extents[i]
        t = p.tile_size[i]
        if t < e:
            out.append(replace(p, tile_size=_set(p.tile_size, i, min(t * 2, e))))
        down = max(lo, ((t // 2) // lo) * lo)
        if down < t:
            out.append(replace(p, tile_size=_set(p.tile_size, i, down)))

    out.extend(_split_moves(p, setup, coarse=True))
    out.extend(_split_moves(p, setup, coarse=False))

    return [q for q in dict.fromkeys(out) if q != p]


def _set(t: tuple[int, ...], i: int, v: int) -> tuple[int, ...]:
    return t[:i] + (v,) + t[i + 1:]


def _split_moves(p: ExecParams, setup: LoopSetup, coarse: bool) -> list[ExecParams]:
    split = p.coarse_split if coarse else p.fine_split
    d = len(split)
    out = []
    for i in range(d):
        for j in range(d):
            if i == j or split[j] == 1:
                continue
            f = min(_prime_factors(split[j]))
            if split[i] * f > setup.extents[i]:
                continue
            moved = _set(_set(split, j, split[j] // f), i, split[i] * f)
            out.append(replace(p, coarse_split=moved) if coarse else replace(p, fine_split=moved))
    return out


# -- the optimizer state machine ----------------------------------------------

_INITIAL = "initial"
_CLIMBING = "climbing"
_EXCURSION = "excursion"


@dataclass
class _SetupState:
    rng: random.Random
    current: ExecParams
    phase: str = _INITIAL
    center: ExecParams | None = None
    pending: list[ExecParams] = field(default_factory=list)
    best_params: ExecParams | None = None
    best_time: float = float("inf")
    samples: dict[ExecParams, deque] = field(default_factory=dict)
    warmed_up: bool = False
    last_elapsed: float | None = None


class Tuner:
    """Per-setup optimization state plus a CSV-able execution log.

    State is mutated only between loop executions by a single coordinator;
    record/next calls must be externally serialized (the traverse module
    guarantees this).
    """

    def __init__(self, topo: TopologyConfig):
        self.topo = topo
        self._states: dict[LoopSetup, _SetupState] = {}
        self.log: list[dict] = []

    def _state(self, setup: LoopSetup) -> _SetupState:
        st = self._states.get(setup)
        if st is None:
            rng = random.Random(f"{self.topo.rng_seed}:{setup.site_id}:{setup.extents}")
            st = _SetupState(rng=rng, current=params_initial(setup, self.topo))
            self._states[setup] = st
        return st

    def next_params(self, setup: LoopSetup) -> ExecParams:
        """Advance the state machine and return the setting to execute next."""
        st = self._state(setup)
        if st.best_params is None:
            return st.current  # warm-up and first measured sample of the heuristic

        if st.phase == _EXCURSION and self.should_abort_excursion(setup, st.last_elapsed):
            st.pending.clear()
            return self._settle(st)

        if st.center != st.best_params:
            # new best found: recenter the climb on it
            st.phase = _CLIMBING
            st.center = st.best_params
            st.pending = neighbors(st.best_params, setup, self.topo)
            st.rng.shuffle(st.pending)

        if st.pending:
            st.current = st.pending.pop()
            return st.current

        if st.phase == _EXCURSION:
            # neighborhood of the random point fully explored, nothing beat best
            return self._settle(st)

        # local optimum: occasionally jump somewhere random
        if st.rng.random() < self.topo.p_restart:
            cand = random_params(setup, self.topo, st.rng)
            st.phase = _EXCURSION
            st.center = cand
            st.pending = neighbors(cand, setup, self.topo)
            st.rng.shuffle(st.pending)
            st.current = cand
            return cand

        st.current = st.best_params
        return st.current

    def _settle(self, st: _SetupState) -> ExecParams:
        st.phase = _CLIMBING
        st.center = st.best_params
        st.current = st.best_params
        return st.current

    def record_timing(self, setup: LoopSetup, params: ExecParams, elapsed: float) -> None:
        """Fold one wall-clock measurement into the per-setting medians."""
        if not (elapsed == elapsed and elapsed >= 0 and elapsed != float("inf")):
            raise UsageError(f"rejecting non-finite or negative timing {elapsed!r}")
        if setup not in self._states:
            raise UsageError("record_timing before next_params for this setup")
        st = self._states[setup]
        if not st.warmed_up:
            # the first execution of a setup pays warm-up costs; discard it
            st.warmed_up = True
            self._log_row(setup, st, params, elapsed, warmup=True)
            return
        window = st.samples.setdefault(params, deque(maxlen=MEDIAN_WINDOW))
        window.append(elapsed)
        med = statistics.median(window)
        if med < st.best_time:
            st.best_time = med
            st.best_params = params
        st.last_elapsed = elapsed
        self._log_row(setup, st, params, elapsed, warmup=False)

    def should_abort_excursion(self, setup: LoopSetup, latest: float | None) -> bool:
        """True when the latest single sample is bad enough to flee from."""
        st = self._states[setup]
        if latest is None or st.best_time == float("inf"):
            return False
        return latest > self.topo.abort_factor * st.best_time

    def best(self, setup: LoopSetup) -> tuple[ExecParams | None, float]:
        st = self._states[setup]
        return st.best_params, st.best_time

    def phase(self, setup: LoopSetup) -> str:
        return self._states[setup].phase

    def _log_row(self, setup, st, params, elapsed, warmup):
        self.log.append({
            "setup_id": setup.site_id,
            "params": params.flat(),
            "elapsed_ns": int(elapsed * 1e9),
            "phase": "warmup" if warmup else st.phase,
            "is_best": int(params == st.best_params),
        })

    def write_log(self, path: str | Path) -> None:
        lines = ["setup_id,params,elapsed_ns,phase,is_best"]
        lines += [
            f"{r['setup_id']},{r['params']},{r['elapsed_ns']},{r['phase']},{r['is_best']}"
            for r in self.log
        ]
        Path(path).write_text("\n".join(lines) + "\n")
