"""Tuner workload ``tune-noisy``: the Tuner against a noisy modelled cost surface.

One operation is one tuner evaluation: ``next_params`` hands out a setting,
the benchmark looks up its modelled cost on the ``synthetic`` surface,
multiplies it by seeded log-normal noise and feeds it back through
``record_timing``.  Only the two tuner calls are timed.  A tuner run is
EVALS evaluations from a fresh Tuner; every tuner run has its own seed.

Modelled costs make every decision repeatable for a seed while keeping the
noise a wall-clock tuner sees, so the quality figures repeat exactly.
"""
from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import replace

from common import CheckFailed, require
from stencilrt.lattice import UsageError
from stencilrt.synthetic import SyntheticSurface
from stencilrt.tuner import LoopSetup, TopologyConfig, Tuner, check_params, enumerate_valid_params

SIGMA = 0.2        # log-normal noise: cost * exp(SIGMA * N(0, 1))
EVALS = 50         # evaluations per tuner run, as in tune-sim
STUDY = 200        # tuner runs behind the tune_* figures of one benchmark run
TARGET = 1.1       # "near the optimum" means within 10%
REPLAY_EVERY = 25  # every this many tuner runs, one is replayed to check repeatability

TOPO = TopologyConfig(n_coarse_threads=4, n_fine_threads=1, lane_width=4)
SETUP = LoopSetup("synthetic", (64, 64, 64), "vector", TOPO.n_coarse_threads, TOPO.n_fine_threads)


def tuner_seed(seed: int, k: int) -> int:
    return seed * 1_000_003 + k


def noise(seed: int) -> list[float]:
    rng = random.Random(f"tune-noisy:{seed}")
    return [math.exp(SIGMA * rng.gauss(0.0, 1.0)) for _ in range(EVALS)]


class TuneNoisy:
    name = "tune-noisy"
    round_ops = EVALS
    min_ops = STUDY * EVALS

    def __init__(self, seed: int, inputs) -> None:
        self.seed = seed
        self.surface = SyntheticSurface()
        with inputs:
            # the benchmark's reference: the exhaustive optimum over the valid space
            self.valid = {p: self.surface.cost(p) for p in enumerate_valid_params(SETUP, TOPO)}
            self.optimum = min(self.valid.values())
        self.k = -1        # tuner run in progress
        self.e = EVALS     # evaluations done in it
        self.runs: list[dict] = []

    def next_input(self):
        if self.e == EVALS:
            self.k += 1
            self.e = 0
            self._start_run(tuner_seed(self.seed, self.k))
        e = self.e
        self.e += 1
        return e

    def _start_run(self, seed: int) -> None:
        self.tuner = Tuner(replace(TOPO, rng_seed=seed))
        self.noise = noise(seed)
        self.run = dict(seed=seed, settings=[], costs=[], phases=[], bests=[])

    def op(self, e: int):
        tuner = self.tuner
        t0 = time.perf_counter_ns()
        p = tuner.next_params(SETUP)
        t1 = time.perf_counter_ns()
        cost = self.valid.get(p)
        measured = (cost if cost is not None else self.surface.cost(p)) * self.noise[e]
        t2 = time.perf_counter_ns()
        tuner.record_timing(SETUP, p, measured)
        t3 = time.perf_counter_ns()
        return p, (t1 - t0) + (t3 - t2)

    def check(self, e: int, p) -> None:
        run = self.run
        try:
            check_params(p, SETUP, TOPO)
        except UsageError as exc:
            raise CheckFailed(f"tune-noisy: handed-out setting {p.flat()} fails check_params: {exc}") from exc
        require(p in self.valid, f"tune-noisy: setting {p.flat()} is not in enumerate_valid_params")
        run["settings"].append(p)
        run["costs"].append(self.valid[p])
        run["phases"].append(self.tuner.phase(SETUP))
        run["bests"].append(self.tuner.best(SETUP)[0])
        if e == EVALS - 1:
            self._end_run()

    def _end_run(self) -> None:
        run = self.run
        best = run["bests"][-1]
        require(best in self.valid, "tune-noisy: final best setting is not in the valid space")
        require(self.valid[best] >= self.optimum, "tune-noisy: final best costs less than the exhaustive optimum")
        if self.k % REPLAY_EVERY == 0:
            require(replay(run["seed"], self.valid) == run["settings"],
                    f"tune-noisy: tuner seed {run['seed']} handed out another sequence when run again")
        if len(self.runs) < STUDY:
            self.runs.append(summarize(run, self.tuner, self.valid, self.optimum))

    def finish(self) -> dict:
        require(len(self.runs) == STUDY, f"tune-noisy: only {len(self.runs)} of {STUDY} tuner runs finished")
        med = lambda key: statistics.median(r[key] for r in self.runs)
        return {
            "tune_evals_to_target": med("evals_to_target"),
            "tune_final_cost_ratio": med("final_ratio"),
            "tune_run_cost_ratio": med("run_ratio"),
            "tuner.excursions": statistics.mean(r["excursions"] for r in self.runs),
            "tuner.best_changes": statistics.mean(r["best_changes"] for r in self.runs),
            "tuner.best_samples": statistics.mean(r["best_samples"] for r in self.runs),
            "tuner.distinct_settings": statistics.mean(r["distinct"] for r in self.runs),
            "tuner.converged_share": statistics.mean(r["final_ratio"] <= TARGET for r in self.runs),
        }


def replay(seed: int, valid) -> list:
    """The settings a fresh tuner with this seed hands out on the same noise."""
    tuner = Tuner(replace(TOPO, rng_seed=seed))
    factors = noise(seed)
    out = []
    for e in range(EVALS):
        p = tuner.next_params(SETUP)
        tuner.record_timing(SETUP, p, valid[p] * factors[e])
        out.append(p)
    return out


def summarize(run: dict, tuner: Tuner, valid, optimum: float) -> dict:
    costs = run["costs"]
    reach = next((i + 1 for i, c in enumerate(costs) if c <= TARGET * optimum), EVALS + 1)
    best = run["bests"][-1]
    changes = sum(1 for a, b in zip([None] + run["bests"][:-1], run["bests"]) if a != b and b is not None)
    excursions = sum(1 for a, b in zip(["initial"] + run["phases"][:-1], run["phases"])
                     if b == "excursion" and a != "excursion")
    samples = sum(1 for row in tuner.log if row["phase"] != "warmup" and row["params"] == best.flat())
    return dict(
        evals_to_target=reach,
        final_ratio=valid[best] / optimum,
        run_ratio=sum(costs) / (len(costs) * optimum),
        excursions=excursions,
        best_changes=changes,
        best_samples=samples,
        distinct=len(set(run["settings"])),
    )
