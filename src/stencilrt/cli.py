"""Command-line harness: oracle fuzzing, scaling benchmarks, the tuned
stencil demo, and the synthetic tuner simulation.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage error.
All subcommands are deterministic for a fixed seed, wall-clock columns aside.
"""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .baseline import NaiveBoxList
from .bboxset import BBoxSet
from .fuzz import check_case, grid_of_boxes
from .lattice import ResourceError, UsageError
from .oracle import DEFAULT_POINT_CAP
from .stencil import bit_identical, run_naive, run_serial, run_tuned
from .synthetic import run_simulation
from .tuner import TopologyConfig

DEFAULT_SEED = 20130715


def cmd_setops_check(args) -> int:
    total = 0
    t0 = time.perf_counter()
    for dim in (range(1, args.dims + 1) if args.all_dims else [args.dims]):
        for k in range(args.cases):
            seed = args.seed + k
            msg = check_case(seed, dim, args.boxes, args.extent, args.point_cap)
            if msg is not None:
                print(msg)
                print(f"reproduce with: stencilrt setops-check --dims {dim} "
                      f"--seed {seed} --cases 1 --boxes {args.boxes} --extent {args.extent}")
                return 1
            total += 1
    wall = time.perf_counter() - t0
    print(f"setops-check: {total} randomized cases agree with the oracle")
    print(f"setops-check: {wall:.3f} s wall, {total / wall:.1f} cases/s")
    return 0


def _fit_slope(ns, ts) -> float:
    return float(np.polyfit(np.log(ns), np.log(ts), 1)[0])


def _median_time(fn, reps: int, budget: float = 1.0) -> float:
    """Median of up to `reps` runs; points slower than the budget are run once
    (repetition damps noise on fast points, and is pure cost on slow ones)."""
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    if first > budget or reps <= 1:
        return first
    times = [first]
    for _ in range(reps - 1):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def cmd_setops_bench(args) -> int:
    ns = []
    n = 64
    while n <= args.boxes:
        ns.append(n)
        n *= 2
    rows = ["impl,n,seconds"]
    tree_ts, naive_ts = [], []
    for n in ns:
        boxes = grid_of_boxes(n, args.dims)
        t_tree = _median_time(lambda: BBoxSet.from_bboxes(boxes), args.reps)
        t_naive = _median_time(lambda: NaiveBoxList(args.dims).union_all(boxes), args.reps)
        tree_ts.append(t_tree)
        naive_ts.append(t_naive)
        rows.append(f"derivative_tree,{n},{t_tree:.6f}")
        rows.append(f"naive_list,{n},{t_naive:.6f}")
        print(f"n={n:5d}  tree {t_tree*1e3:9.2f} ms   naive {t_naive*1e3:9.2f} ms")
    slope_tree = _fit_slope(ns, tree_ts)
    slope_naive = _fit_slope(ns, naive_ts)
    print(f"fitted log-log slope: derivative_tree {slope_tree:.3f}, naive_list {slope_naive:.3f}")
    if args.out:
        Path(args.out).write_text("\n".join(rows) + "\n")
    return 0


def cmd_stencil_bench(args) -> int:
    topo = _topology(args, rng_seed=args.seed)
    n, iters = args.extent, args.iters
    seed = DEFAULT_SEED if args.seed is None else args.seed
    serial = run_serial(n, iters, seed)
    naive = run_naive(n, iters, seed, topo.n_coarse_threads)
    tuned, tuner = run_tuned(n, iters, seed, topo)

    ok = bit_identical(serial.final, naive.final) and bit_identical(serial.final, tuned.final)
    ns = {name: [int(t * 1e9) for t in run.iter_seconds]
          for name, run in (("serial", serial), ("naive", naive), ("tuned", tuned))}
    rows = ["impl,iter,elapsed_ns,phase,is_best,params"]
    for i, t in enumerate(ns["serial"]):
        rows.append(f"serial,{i},{t},,,")
    for i, t in enumerate(ns["naive"]):
        rows.append(f"naive,{i},{t},,,")
    for i, (t, log) in enumerate(zip(ns["tuned"], tuner.log)):
        rows.append(f"tuned,{i},{t},{log['phase']},{log['is_best']},{log['params']}")
    if args.out:
        Path(args.out).write_text("\n".join(rows) + "\n")

    med = lambda xs: sorted(xs)[len(xs) // 2]
    tail = max(1, min(20, iters // 2))
    print(f"stencil-bench {n}^3 x{iters}: outputs bit-identical: {ok}")
    print(f"median seconds/iter: serial {med(serial.iter_seconds):.4f}  "
          f"naive {med(naive.iter_seconds):.4f}  "
          f"tuned(last {tail}) {med(tuned.iter_seconds[-tail:]):.4f}")
    # the sums of the CSV's elapsed_ns rows: a whole run counts the tuner's excursions too
    print("total ms of the run: " + "  ".join(f"{name} {sum(t) / 1e6:.3f}" for name, t in ns.items()))
    return 0 if ok else 1


def cmd_tune_sim(args) -> int:
    # without a topology file the simulated machine has 4 coarse threads
    topo = _topology(args, TopologyConfig(n_coarse_threads=4))
    report = run_simulation(args.seeds, args.iters, topo)
    print(f"tune-sim: optimum {report.optimum:.4f}, "
          f"{report.converged}/{report.seeds} seeds within 10% in <= {report.evals} evals "
          f"(median {report.median_evals_to_target}), "
          f"max consecutive bad re-samples {report.max_violations}")
    if args.out:
        rows = ["seed,best_cost,evals_to_within_10pct,consecutive_bad_violations,total_cost"]
        rows += [
            f"{r.seed},{r.best_cost:.6f},{r.evals_to_within_10pct},{r.consecutive_bad_violations},{r.total_cost:.6f}"
            for r in report.results
        ]
        Path(args.out).write_text("\n".join(rows) + "\n")
    return 0


def _topology(args, default: TopologyConfig = TopologyConfig(), **overrides) -> TopologyConfig:
    """The topology file (or else the default) with every value a flag gave."""
    topo = TopologyConfig.from_file(args.topology) if args.topology else default
    given = dict(n_coarse_threads=args.threads, n_fine_threads=args.fine_threads,
                 lane_width=args.lane_width, **overrides)
    return replace(topo, **{k: v for k, v in given.items() if v is not None})


def _at_least(minimum: int):
    """argparse type: an integer no smaller than minimum."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}: {value}")
        return value
    parse.__name__ = "int"  # argparse reports a ValueError as "invalid int value"
    return parse


def _config_flags(p: argparse.ArgumentParser) -> None:
    """The topology flags and the CSV output of the two tuned subcommands."""
    p.add_argument("--threads", type=int, default=None, help="coarse threads")
    p.add_argument("--fine-threads", dest="fine_threads", type=int, default=None)
    p.add_argument("--lane-width", dest="lane_width", type=int, default=None)
    p.add_argument("--topology", type=str, default=None, help="topology file; flags override it")
    p.add_argument("--out", type=str, default=None, help="CSV file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stencilrt")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("setops-check", allow_abbrev=False,
                       help="fuzz the set algebra against the point oracle")
    p.add_argument("--dims", type=int, default=3, choices=(1, 2, 3, 4))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed of the first case")
    p.add_argument("--boxes", type=_at_least(0), default=20, help="most boxes per operand")
    p.add_argument("--extent", type=_at_least(4), default=16, help="largest hull extent")
    p.add_argument("--cases", type=_at_least(1), default=200)
    p.add_argument("--point-cap", dest="point_cap", type=_at_least(1), default=DEFAULT_POINT_CAP,
                   help="oracle point budget per operand")
    p.add_argument("--all-dims", action="store_true",
                   help="run every dimension from 1 up to --dims")
    p.set_defaults(fn=cmd_setops_check)

    p = sub.add_parser("setops-bench", allow_abbrev=False,
                       help="union scaling: derivative tree vs naive list")
    p.add_argument("--dims", type=int, default=2, choices=(1, 2, 3, 4))
    p.add_argument("--boxes", type=_at_least(128), default=4096,
                   help="largest box count; counts double from 64 and the slope needs two")
    p.add_argument("--reps", type=_at_least(1), default=5)
    p.add_argument("--out", type=str, default=None, help="CSV file")
    p.set_defaults(fn=cmd_setops_bench)

    p = sub.add_parser("stencil-bench", allow_abbrev=False,
                       help="tuned 3D Laplacian vs serial and static split")
    p.add_argument("--seed", type=int, default=None,
                   help=f"grid seed (default {DEFAULT_SEED}); if given, also the tuner's rng_seed")
    p.add_argument("--extent", type=_at_least(3), default=64)
    p.add_argument("--iters", type=_at_least(1), default=100)
    _config_flags(p)
    p.set_defaults(fn=cmd_stencil_bench)

    p = sub.add_parser("tune-sim", allow_abbrev=False,
                       help="tuner convergence on the synthetic cost surface")
    p.add_argument("--seeds", type=_at_least(1), default=100, help="tuner seeds 0..N-1, one run each")
    p.add_argument("--iters", type=_at_least(1), default=50, help="evaluations per run")
    _config_flags(p)
    p.set_defaults(fn=cmd_tune_sim)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)  # exits 2 with usage text on bad flags
    try:
        return args.fn(args)
    except (UsageError, ResourceError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
