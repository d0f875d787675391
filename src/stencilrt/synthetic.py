"""Synthetic cost surface and tuner simulation.

Replaces wall-clock timing with a deterministic cost over execution
parameters so the optimizer's behaviour can be asserted: a separable convex
bowl over log2 tile sizes, a multiplicative cliff once the tile working set
overflows the modelled cache, a penalty for unbalanced thread splits, and one
deceptive basin: a far-away local optimum just close enough to the global
one to trap pure hill climbing, but outside the 10%-of-optimum target, so
only random restarts plus the excursion-abort economics get runs out of it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .tuner import (
    ExecParams,
    LoopSetup,
    TopologyConfig,
    Tuner,
    enumerate_valid_params,
)


@dataclass(frozen=True)
class SyntheticSurface:
    """Deterministic cost model over ExecParams for one loop setup."""

    opt_tile: tuple[int, ...] = (32, 16, 8)
    opt_coarse: tuple[int, ...] = (1, 2, 2)
    cliff_volume: int = 32768         # tiles bigger than this "fall out of cache"
    cliff_penalty: float = 4.0
    bowl_weight: float = 0.35
    split_penalty: float = 0.6
    decoy_tile: tuple[int, ...] = (4, 1, 64)
    decoy_depth: float = 1.18         # local optimum at 1.18x the global minimum

    def cost(self, p: ExecParams) -> float:
        bowl = sum(
            (math.log2(t) - math.log2(o)) ** 2
            for t, o in zip(p.tile_size, self.opt_tile)
        )
        main = 1.0 + self.bowl_weight * bowl
        if p.coarse_split != self.opt_coarse:
            main += self.split_penalty
        if math.prod(p.tile_size) > self.cliff_volume:
            main *= self.cliff_penalty
        decoy_bowl = sum(
            (math.log2(t) - math.log2(o)) ** 2
            for t, o in zip(p.tile_size, self.decoy_tile)
        )
        decoy = self.decoy_depth + 0.8 * decoy_bowl
        if p.coarse_split != self.opt_coarse:
            decoy += self.split_penalty
        return min(main, decoy)


@dataclass
class SimResult:
    seed: int
    best_cost: float
    evals_to_within_10pct: int | None
    consecutive_bad_violations: int
    total_cost: float
    sampled: list[str] = field(default_factory=list)


def simulate(seed: int, evals: int, surface: SyntheticSurface, setup: LoopSetup,
             topo: TopologyConfig, optimum: float) -> SimResult:
    """One deterministic tuner run against the surface."""
    tuner = Tuner(replace(topo, rng_seed=seed))
    best = float("inf")
    reach = None
    violations = 0
    total = 0.0
    prev_params = None
    prev_was_bad = False
    sampled = []
    for k in range(evals):
        p = tuner.next_params(setup)
        c = surface.cost(p)
        sampled.append(p.flat())
        total += c
        # a config is "bad" when it costs over abort_factor x the best seen so far
        bad = best < float("inf") and c > topo.abort_factor * best
        if bad and prev_was_bad and p == prev_params:
            violations += 1
        prev_params, prev_was_bad = p, bad
        best = min(best, c)
        if reach is None and best <= 1.1 * optimum:
            reach = k + 1
        tuner.record_timing(setup, p, c)
    return SimResult(seed, best, reach, violations, total, sampled)


@dataclass
class SimReport:
    seeds: int
    evals: int
    optimum: float
    converged: int
    median_evals_to_target: float | None
    max_violations: int
    results: list[SimResult]


def run_simulation(n_seeds: int, evals: int, topo: TopologyConfig,
                   setup: LoopSetup | None = None,
                   surface: SyntheticSurface | None = None) -> SimReport:
    """Run the tuner against the surface for many seeds; exhaustively compute
    the true optimum for the convergence target."""
    setup = setup or LoopSetup(
        "synthetic", (64, 64, 64), "vector",
        topo.n_coarse_threads, topo.n_fine_threads,
    )
    surface = surface or SyntheticSurface()
    optimum = min(surface.cost(p) for p in enumerate_valid_params(setup, topo))
    results = [
        simulate(seed, evals, surface, setup, topo, optimum)
        for seed in range(n_seeds)
    ]
    converged = sum(1 for r in results if r.best_cost <= 1.1 * optimum)
    reached = sorted(r.evals_to_within_10pct for r in results if r.evals_to_within_10pct)
    median_reach = reached[len(reached) // 2] if reached else None
    return SimReport(
        seeds=n_seeds,
        evals=evals,
        optimum=optimum,
        converged=converged,
        median_evals_to_target=median_reach,
        max_violations=max(r.consecutive_bad_violations for r in results),
        results=results,
    )
