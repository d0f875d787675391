"""Run-time loop autotuner: random-restart hill climbing over index-space splits.

Each loop setup (source site + index-space extents + alignment + thread
counts) is optimized independently.  The tuner hands out execution parameters
(coarse-thread split, tile sizes, fine-thread split, vector width), receives
wall-clock measurements, and walks the one space enumerate_valid_params lists:

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
Each LoopSetup and ExecParams hashes itself, and each ExecParams formats flat(), at most once.
Each setup's space (tile and split domains, split moves, start point) is
built once per cache and lane layout and kept in a bounded memo shared by
every Tuner, so a fresh Tuner per seed rebuilds none of it.  An evaluation
(next_params + record_timing) of a 64^3 setup on 4 coarse threads takes
4.8 us at the median and 9.3 us on average (2-core x86 machine).
"""
from __future__ import annotations

import csv
import functools
import itertools
import math
import random
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field, fields
from operator import attrgetter, le
from pathlib import Path

from .lattice import UsageError
from .vlanes import check_width

MEDIAN_WINDOW = 5
MAX_THREADS = 64  # coarse x fine threads of one loop
SPACE_MEMO = 32  # setup spaces kept by _space_of


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

    def __post_init__(self) -> None:
        check_threads(self.n_coarse_threads, self.n_fine_threads)
        check_width(self.lane_width)
        if not 0 <= self.p_restart <= 1:
            raise UsageError(f"p_restart must lie in [0, 1]: {self.p_restart}")
        if not 1 < self.abort_factor < math.inf:
            raise UsageError(f"abort_factor must exceed 1 and be finite: {self.abort_factor}")
        if self.cache_size_bytes < 1 or self.cache_line_bytes < 1:
            raise UsageError("cache sizes must be positive")

    @staticmethod
    def from_file(path: str | Path) -> "TopologyConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise UsageError(f"cannot read topology file: {exc}") from exc
        parsers = {f.name: type(f.default) for f in fields(TopologyConfig)}
        values = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"malformed topology line: {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            parse = parsers.get(key)
            if parse is None:
                raise UsageError(f"unknown topology key: {key}")
            if key in values:
                raise UsageError(f"repeated topology key: {key}")
            try:
                values[key] = parse(val)
            except ValueError:
                raise UsageError(f"malformed value for {key}: {val!r}") from None
        return TopologyConfig(**values)

    @property
    def cache_line_elems(self) -> int:
        return max(1, self.cache_line_bytes // 8)


def check_threads(n_coarse: int, n_fine: int) -> None:
    """The thread counts of one loop: each at least 1, together at most MAX_THREADS."""
    if n_coarse < 1 or n_fine < 1:
        raise UsageError(f"thread counts must be at least 1: {n_coarse}, {n_fine}")
    if n_coarse * n_fine > MAX_THREADS:
        raise UsageError(f"coarse x fine threads must not exceed {MAX_THREADS}")


def _hashed_once(cls):
    """Give a frozen dataclass a field hash computed at most once per
    instance, and an equality that checks identity, then hashes, then fields.
    Pickles carry the fields only: a cached hash of a str is per process."""
    key = attrgetter(*(f.name for f in fields(cls)))

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(key(self))
            object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return hash(self) == hash(other) and key(self) == key(other)

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    cls._hash = None
    cls.__hash__, cls.__eq__, cls.__getstate__ = __hash__, __eq__, __getstate__
    return cls


@_hashed_once
@dataclass(frozen=True, eq=False)
class LoopSetup:
    """Identity key for tuning; equal setups share one tuning history."""

    site_id: str
    extents: tuple[int, ...]
    alignment: str = "vector"  # vector | cache_line
    n_coarse_threads: int = 1
    n_fine_threads: int = 1

    def __post_init__(self) -> None:
        if not self.extents or any(e <= 0 for e in self.extents):
            raise UsageError(f"extents must be a non-empty tuple of positive sizes: {self.extents}")
        check_threads(self.n_coarse_threads, self.n_fine_threads)
        if self.alignment not in ("vector", "cache_line"):
            raise UsageError(f"unknown alignment class {self.alignment!r}")

    @property
    def dim(self) -> int:
        return len(self.extents)


@_hashed_once
@dataclass(frozen=True, eq=False)
class ExecParams:
    """One point in the tunable space; thread counts are never changed."""

    coarse_split: tuple[int, ...]
    tile_size: tuple[int, ...]
    fine_split: tuple[int, ...]
    vector_width: int

    _text = None  # flat(), once formatted

    def flat(self) -> str:
        text = self._text
        if text is None:
            text = "x".join(map(str, self.coarse_split)) + "/" + \
                "x".join(map(str, self.tile_size)) + "/" + \
                "x".join(map(str, self.fine_split)) + "/w" + str(self.vector_width)
            object.__setattr__(self, "_text", text)
        return text


def check_shape(p: ExecParams, dim: int) -> None:
    """One entry per dimension in each vector, and every split, tile size and
    the vector width at least 1: what any plan of a dim-dimensional space needs."""
    if len(p.coarse_split) != dim or len(p.tile_size) != dim or len(p.fine_split) != dim:
        raise UsageError(f"params {p.flat()} disagree with dimension {dim}")
    if p.vector_width < 1 or min(p.coarse_split + p.tile_size + p.fine_split, default=1) < 1:
        raise UsageError(f"params must be positive: {p.flat()}")


def _inner_unit(setup: LoopSetup, topo: TopologyConfig) -> int:
    """Innermost tile sizes must be multiples of this: W, or the cache line
    for padded (cache_line aligned) arrays."""
    if setup.alignment == "cache_line":
        return math.lcm(topo.cache_line_elems, topo.lane_width)
    return topo.lane_width


def check_params(p: ExecParams, setup: LoopSetup, topo: TopologyConfig) -> None:
    """Raise unless p satisfies every invariant for this setup."""
    check_shape(p, setup.dim)
    if math.prod(p.coarse_split) != setup.n_coarse_threads:
        raise UsageError(f"coarse split {p.coarse_split} does not use {setup.n_coarse_threads} threads")
    if math.prod(p.fine_split) != setup.n_fine_threads:
        raise UsageError(f"fine split {p.fine_split} does not use {setup.n_fine_threads} threads")
    if p.vector_width != topo.lane_width:
        raise UsageError(f"vector width {p.vector_width} != configured {topo.lane_width}")
    for i, (t, e) in enumerate(zip(p.tile_size, setup.extents)):
        if t > e:
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
    fitting = [c for c in all_f if _fits(c, setup)]
    return fitting or all_f


def _fits(split: tuple[int, ...], setup: LoopSetup) -> bool:
    """No dimension is split into more pieces than it has indices."""
    return all(map(le, split, setup.extents))


class _Space:
    """One setup's tunable space: each axis's _tile_domain with its
    value -> index map, the coarse and fine _split_domain, the params_initial
    start point, and each split's _split_moves, filled when first asked for.
    Equal splits are stored as one tuple.  Two callers filling one split at
    once store equal lists, so the memo needs no lock."""

    __slots__ = ("tiles", "tile_index", "coarse", "fine", "start", "_setup", "_splits", "_moves")

    def __init__(self, setup: LoopSetup, topo: TopologyConfig):
        self.tiles = [_tile_domain(setup, topo, axis) for axis in range(setup.dim)]
        self.tile_index = [{t: k for k, t in enumerate(dom)} for dom in self.tiles]
        self.coarse = _split_domain(setup.n_coarse_threads, setup)
        self.fine = _split_domain(setup.n_fine_threads, setup)
        self._setup = setup
        self._splits = {split: split for split in self.coarse + self.fine}
        self._moves: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        self.start = _heuristic_start(setup, topo, self)

    def moves(self, split: tuple[int, ...]) -> list[tuple[int, ...]]:
        moves = self._moves.get(split)
        if moves is None:
            moves = [self._splits.setdefault(m, m) for m in _split_moves(split, self._setup)]
            self._moves[split] = moves
        return moves


def _space(setup: LoopSetup, topo: TopologyConfig) -> _Space:
    """The setup's space under the topology fields that shape it: a Tuner per
    rng_seed (or per p_restart) shares one space."""
    return _space_of(setup, topo.cache_size_bytes, topo.cache_line_bytes, topo.lane_width)


@functools.lru_cache(maxsize=SPACE_MEMO)
def _space_of(setup: LoopSetup, cache_size_bytes: int, cache_line_bytes: int, lane_width: int) -> _Space:
    return _Space(setup, TopologyConfig(cache_size_bytes=cache_size_bytes,
                                        cache_line_bytes=cache_line_bytes, lane_width=lane_width))


def enumerate_valid_params(setup: LoopSetup, topo: TopologyConfig) -> list[ExecParams]:
    """The tuner's one space for a setup: every tile in its axis's
    _tile_domain, every split in _split_domain.  The start point, each climb
    move and each random restart lie in it, so exhaustive optima over it cover
    whatever the tuner can pick."""
    space = _space(setup, topo)
    tiles = itertools.product(*space.tiles)
    return [ExecParams(c, tile, f, topo.lane_width)
            for tile, c, f in itertools.product(tiles, space.coarse, space.fine)]


def random_params(setup: LoopSetup, topo: TopologyConfig, rng: random.Random) -> ExecParams:
    """Uniform draw from the enumerated space."""
    space = _space(setup, topo)
    tile = tuple(rng.choice(dom) for dom in space.tiles)
    return ExecParams(rng.choice(space.coarse), tile, rng.choice(space.fine), topo.lane_width)


def params_initial(setup: LoopSetup, topo: TopologyConfig) -> ExecParams:
    """Deterministic heuristic starting point, a member of the enumerated space.

    Coarse threads split the dimensions, balancing block volumes.  Each tile
    starts at its domain's largest size within the block, the innermost at
    least at the first size >= 2W.  The largest outer tile then steps down its
    domain until the working set is at most half the target cache, the
    innermost only as a last resort and never below that floor.
    """
    return _space(setup, topo).start


def _heuristic_start(setup: LoopSetup, topo: TopologyConfig, space: _Space) -> ExecParams:
    """params_initial over the space's domains."""
    coarse = _initial_split(setup.n_coarse_threads, setup.extents, space.coarse)
    domains = space.tiles
    blocks = [max(1, -(-e // c)) for e, c in zip(setup.extents, coarse)]
    k = [max(0, bisect_right(dom, b) - 1) for dom, b in zip(domains, blocks)]
    floor = min(bisect_left(domains[0], 2 * topo.lane_width), len(domains[0]) - 1)
    k[0] = max(k[0], floor)

    target = max(1, topo.cache_size_bytes // 16)  # half the cache, in doubles
    while math.prod(dom[j] for dom, j in zip(domains, k)) > target:
        outer = [(domains[i][k[i]], i) for i in range(1, setup.dim) if k[i] > 0]
        if outer:
            k[max(outer)[1]] -= 1
        elif k[0] > floor:
            k[0] -= 1
        else:
            break

    tile = tuple(dom[j] for dom, j in zip(domains, k))
    fine = _initial_split(setup.n_fine_threads, tile, space.fine)
    return ExecParams(coarse, tile, fine, topo.lane_width)


def _initial_split(threads: int, ext: tuple[int, ...], domain: list[tuple[int, ...]]) -> tuple[int, ...]:
    """_greedy_split's split of ext when the split domain holds it, else the domain's first."""
    split = _greedy_split(threads, ext)
    return split if split in domain else domain[0]


def _greedy_split(threads: int, ext: tuple[int, ...]) -> tuple[int, ...]:
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
    return tuple(split)


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
    """All settings one move away in the enumerated space: one tile size steps
    one place up (listed first) or down its axis's _tile_domain, or any one prime
    factor of a thread split moves between two dimensions or swaps with a
    larger prime of another.

    Only p is checked, and each of its tiles must lie in its domain; every
    move of such a setting whose splits lie in _split_domain stays in the space.
    """
    check_params(p, setup, topo)
    space = _space(setup, topo)
    coarse, tile, fine, width = p.coarse_split, p.tile_size, p.fine_split, p.vector_width
    out: list[ExecParams] = []
    for i, (t, domain, index) in enumerate(zip(tile, space.tiles, space.tile_index)):
        k = index.get(t)
        if k is None:
            raise UsageError(f"tile size {t} in dim {i} is not in the tuner's domain {domain}")
        for v in domain[k + 1:k + 2] + domain[max(0, k - 1):k]:
            out.append(ExecParams(coarse, _set(tile, i, v), fine, width))
    out.extend([ExecParams(m, tile, fine, width) for m in space.moves(coarse)])
    out.extend([ExecParams(coarse, tile, m, width) for m in space.moves(fine)])
    return out


def _set(t: tuple[int, ...], i: int, v: int) -> tuple[int, ...]:
    return t[:i] + (v,) + t[i + 1:]


def _split_moves(split: tuple[int, ...], setup: LoopSetup) -> list[tuple[int, ...]]:
    """Each distinct prime f of dimension j moves to dimension i, or swaps with
    a larger prime g of dimension i.  Moves stay in _split_domain: while the
    split fits, each move must; when none fits, every factorization is in."""
    primes = [sorted(set(_prime_factors(c))) if c > 1 else () for c in split]
    moves = []
    for i, j in itertools.permutations(range(len(split)), 2):
        for f in primes[j]:
            rest = split[j] // f
            moves.append(_set(_set(split, j, rest), i, split[i] * f))
            for g in primes[i]:
                if g > f:
                    moves.append(_set(_set(split, j, rest * g), i, split[i] // g * f))
    if moves and _fits(split, setup):
        moves = [m for m in moves if _fits(m, setup)]
    return moves


# -- the optimizer state machine ----------------------------------------------

def _median(window: deque) -> float:
    """statistics.median of a short window, from one sort."""
    s = sorted(window)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


_INITIAL = "initial"
_CLIMBING = "climbing"
_EXCURSION = "excursion"


@dataclass
class _SetupState:
    rng: random.Random
    start: ExecParams
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
            st = _SetupState(rng=rng, start=params_initial(setup, self.topo))
            self._states[setup] = st
        return st

    def _known(self, setup: LoopSetup, caller: str) -> _SetupState:
        """The setup's state; a setup next_params never saw has none."""
        st = self._states.get(setup)
        if st is None:
            raise UsageError(f"{caller} before next_params for this setup")
        return st

    def next_params(self, setup: LoopSetup) -> ExecParams:
        """Advance the state machine and return the setting to execute next."""
        st = self._state(setup)
        if st.best_params is None:
            return st.start  # warm-up and first measured sample of the heuristic

        if st.phase == _EXCURSION and self._abort(st, st.last_elapsed):
            st.pending.clear()
            return self._settle(st)

        if st.center != st.best_params:
            # new best found: recenter the climb on it
            st.phase = _CLIMBING
            st.center = st.best_params
            st.pending = neighbors(st.best_params, setup, self.topo)
            st.rng.shuffle(st.pending)

        if st.pending:
            return st.pending.pop()

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
            return cand

        return st.best_params

    def _settle(self, st: _SetupState) -> ExecParams:
        st.phase = _CLIMBING
        st.center = st.best_params
        return st.best_params

    def record_timing(self, setup: LoopSetup, params: ExecParams, elapsed: float) -> None:
        """Fold one wall-clock measurement into the per-setting medians."""
        if not 0 <= elapsed < math.inf:
            raise UsageError(f"rejecting non-finite or negative timing {elapsed!r}")
        st = self._known(setup, "record_timing")
        if not st.warmed_up:
            # the first execution of a setup pays warm-up costs; discard it
            st.warmed_up = True
            self._log_row(setup, st, params, elapsed, warmup=True)
            return
        window = st.samples.get(params)
        if window is None:
            window = st.samples[params] = deque(maxlen=MEDIAN_WINDOW)
        window.append(elapsed)
        med = _median(window)
        if med < st.best_time:
            st.best_time = med
            st.best_params = params
        st.last_elapsed = elapsed
        self._log_row(setup, st, params, elapsed, warmup=False)

    def should_abort_excursion(self, setup: LoopSetup, latest: float | None) -> bool:
        """True when the latest single sample is bad enough to flee from."""
        return self._abort(self._known(setup, "should_abort_excursion"), latest)

    def _abort(self, st: _SetupState, latest: float | None) -> bool:
        if latest is None or st.best_time == math.inf:
            return False
        return latest > self.topo.abort_factor * st.best_time

    def best(self, setup: LoopSetup) -> tuple[ExecParams | None, float]:
        st = self._known(setup, "best")
        return st.best_params, st.best_time

    def phase(self, setup: LoopSetup) -> str:
        return self._known(setup, "phase").phase

    def _log_row(self, setup, st, params, elapsed, warmup):
        self.log.append({
            "setup_id": setup.site_id,
            "params": params.flat(),
            "elapsed_ns": int(elapsed * 1e9),
            "phase": "warmup" if warmup else st.phase,
            "is_best": int(params == st.best_params),
        })

    def write_log(self, path: str | Path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.DictWriter(f, ["setup_id", "params", "elapsed_ns", "phase", "is_best"], lineterminator="\n")
            writer.writeheader()
            writer.writerows(self.log)
