#!/usr/bin/env python3
"""Collect a BENCH file from the fixed benchmark, or compare two of them.

    python3 tools/collect_bench.py --label NAME [--repo DIR]
    python3 tools/collect_bench.py --compare OLD.json NEW.json
    python3 tools/collect_bench.py --pairs N --against OLD_DIR --workload NAME [--repo DIR]

Collecting runs ``bench/run.py`` of the checkout DIR (default: the one this
file belongs to) once per workload listed in its ``BENCHMARK.json``, per seed
in SEEDS, with ``--trace 0`` (end-to-end metrics) and ``--trace 1``
(per-layer metrics), for the benchmark's ``run_seconds``.  It reads each
run's JSON result line and its results file, and writes
``BENCH_<NAME>.json`` to the current directory: for each workload and
metric, the median, the quartiles and the number of runs (Kalibera & Jones,
ISMM 2013), both for the figures scaled to the benchmark's reference speed
and for the untraced runs' raw ones, with every run kept as it was read.
The file also records the core count, the Python and numpy versions and the
commit.

Comparing prints new/old median ratios for every metric both files hold, and
marks an end-to-end metric that got worse by more than its bound in
``BENCHMARK.json``, or whose runs spread wider than that bound while the
runs of the two files overlap.

Pairing runs one workload untraced in two checkouts, OLD_DIR and DIR, N
times each: pair k runs both on one seed (1001 + k, and 424242 for the last
pair), and the side that runs first alternates from pair to pair, so a
machine phase that lasts a pair slows both sides alike.  It prints each
side's median and quartiles per end-to-end metric, in how many pairs the
new side did better (a tie counts for neither side), and the verdict that
comparing gives.  Per metric it says whether a gain claim holds: the new
side won at least 9 of every 10 pairs, and the medians differ by more than
the old side's q3 - q1.  Then it lists every pair: its seed, the side that
ran first, and both sides' value of each metric.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

SEEDS = (1001, 2002, 424242)
HERE = Path(__file__).resolve().parent.parent


def summarize(values: list[float]) -> dict:
    """Median, quartiles and count of one metric over repeated runs."""
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _git(repo: Path, *args: str) -> str:
    try:
        return subprocess.run(["git", "-C", str(repo), *args], capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def run_once(repo: Path, command: list[str], workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: its result line plus the raw figures of its results file."""
    argv = [sys.executable if command[0].startswith("python") else command[0], *command[1:],
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=repo, capture_output=True, text=True)
    if proc.returncode == 2 or not proc.stdout.strip():
        raise SystemExit(f"collect_bench: {' '.join(argv)} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    stem = f"{workload}-seed{seed}-trace{trace}"
    reference = json.loads((repo / "bench" / "results" / f"{stem}.json").read_text())["reference"]
    result["raw"] = {k: v for k, v in reference.items()
                     if isinstance(v, (int, float)) and not isinstance(v, bool)}
    return {"seed": seed, "trace": trace, **result}


def collect(repo: Path, label: str) -> dict:
    spec = json.loads((repo / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = {}
    for wl in spec["workloads"]:
        name = wl["name"]
        runs = []
        for seed in SEEDS:
            for trace in (0, 1):
                print(f"collect_bench: {name} seed {seed} trace {trace}", file=sys.stderr, flush=True)
                runs.append(run_once(repo, spec["command"], name, seed, seconds, trace))
        scaled, raw, units = {}, {}, {}
        for run in runs:
            for metric, m in run["metrics"].items():
                scaled.setdefault(metric, []).append(m["value"])
                units[metric] = m["unit"]
            # the untraced runs' own figures; a traced run's op times include the tracing
            for key, v in run["raw"].items() if run["trace"] == 0 else ():
                raw.setdefault(key, []).append(v)
        workloads[name] = {
            "why": wl.get("why", ""),
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {k: {"unit": units[k], **summarize(v)} for k, v in scaled.items()},
            "raw": {k: summarize(v) for k, v in raw.items()},
            "runs": runs,
        }
    status = _git(repo, "status", "--porcelain", "--untracked-files=no")
    return {
        "label": label,
        "commit": _git(repo, "rev-parse", "HEAD"),
        "dirty": bool(status),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": workloads,
    }


def _values(workload: dict, metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in workload.get("runs", ()) if metric in r["metrics"]]


def _separated(old: list[float], new: list[float]) -> bool:
    """Every run of one side lies beyond every run of the other."""
    return bool(old and new) and (max(new) < min(old) or min(new) > max(old))


def verdict(o: dict, m: dict, old: list[float], new: list[float], bound: dict) -> str:
    """Judge an end-to-end metric's new summary m against the old one o: unresolved
    while either side's runs spread wider than the bound and the runs of the two
    sides overlap, else WORSE when the new median is worse by more than the bound."""
    ratio = m["median"] / o["median"] if o["median"] else float("nan")
    worse = ratio - 1 if bound["better"] == "lower" else 1 - ratio
    spread = max(((s["q3"] - s["q1"]) / s["median"] for s in (o, m) if s["median"]), default=0.0)
    if spread > bound["bound"] and not _separated(old, new):
        return f"unresolved: spread {spread:.2f} > bound {bound['bound']}"
    if worse > bound["bound"]:
        return f"WORSE beyond bound {bound['bound']}"
    return "within bound"


def compare(old: dict, new: dict, bounds: dict[str, dict]) -> list[str]:
    """One line per workload and metric held by both files: new/old median
    ratio, and for end-to-end metrics a verdict against the bound."""
    lines = [f"{'workload':<15} {'metric':<28} {'old':>12} {'new':>12} {'new/old':>8}"]
    for name, wl in new["workloads"].items():
        before = old["workloads"].get(name)
        if before is None:
            continue
        for metric, m in wl["metrics"].items():
            o = before["metrics"].get(metric)
            if o is None or o["median"] == m["median"] == 0:
                continue
            ratio = m["median"] / o["median"] if o["median"] else float("nan")
            bound = bounds.get(metric)
            judged = "" if bound is None else verdict(o, m, _values(before, metric), _values(wl, metric), bound)
            lines.append(f"{name:<15} {metric:<28} {o['median']:>12.4g} {m['median']:>12.4g} "
                         f"{ratio:>8.3f}  {judged}".rstrip())
    return lines


def pair_seeds(n: int) -> list[int]:
    """One seed per pair: 1001, 1002, ... and the held-out 424242 last."""
    return [SEEDS[0] + k for k in range(n - 1)] + [SEEDS[-1]]


def run_pairs(new: Path, old: Path, workload: str, n: int) -> list[dict]:
    """n pairs of untraced runs of one workload in two checkouts, one seed a
    pair, the side that runs first alternating."""
    spec = json.loads((new / "BENCHMARK.json").read_text())
    pairs = []
    for k, seed in enumerate(pair_seeds(n)):
        order = [("old", old), ("new", new)]
        if k % 2:
            order.reverse()
        pair = {"seed": seed, "first": order[0][0]}
        for side, repo in order:
            print(f"collect_bench: {workload} pair {k + 1}/{n} seed {seed} {side}", file=sys.stderr, flush=True)
            pair[side] = run_once(repo, spec["command"], workload, seed, spec["run_seconds"], 0)
        pairs.append(pair)
    return pairs


def _clean(run: dict) -> bool:
    return run["correct"] and not run["failed"]


def gain_claim(won: int, n: int, o: dict, m: dict, better: str) -> str:
    """Whether a gain of the new side may be claimed (choosing-metrics rule): it
    won at least 9 of every 10 pairs, and its median beats the old one by more
    than the old runs' own spread, q3 - q1."""
    gain = o["median"] - m["median"] if better == "lower" else m["median"] - o["median"]
    spread = o["q3"] - o["q1"]
    holds = 10 * won >= 9 * n and gain > spread
    return (f"{'holds' if holds else 'does not hold'}: new won {won}/{n} (needs {-(-9 * n // 10)}), "
            f"median gain {gain:.4g} against old q3 - q1 {spread:.4g}")


def pair_report(pairs: list[dict], bounds: dict[str, dict]) -> list[str]:
    """Each side's median [q1, q3] per end-to-end metric, the pairs the new side
    won and the verdict against the bound; then whether a gain claim holds per
    metric, each pair's seed, first side and figures, and the operation counts,
    failures and correctness of the runs."""
    fmt = lambda s: f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
    lines = [f"{'metric':<14} {'old median [q1, q3]':>30} {'new median [q1, q3]':>30}  new won  verdict"]
    claims = []
    for metric, bound in bounds.items():
        old, new = ([p[side]["metrics"][metric]["value"] for p in pairs] for side in ("old", "new"))
        sign = 1 if bound["better"] == "lower" else -1
        won = sum(sign * (o - n) > 0 for o, n in zip(old, new))
        o, m = summarize(old), summarize(new)
        lines.append(f"{metric:<14} {fmt(o):>30} {fmt(m):>30}  {f'{won}/{len(pairs)}':>7}  "
                     f"{verdict(o, m, old, new, bound)}")
        claims.append(f"claim {metric:<14} {gain_claim(won, len(pairs), o, m, bound['better'])}")
    lines += claims
    lines.append(f"pair {'seed':>7} {'first':>5}  " + "  ".join(f"{m + ' old/new':>24}" for m in bounds))
    for p in pairs:
        figures = (f"{p['old']['metrics'][m]['value']:.4g}/{p['new']['metrics'][m]['value']:.4g}" for m in bounds)
        lines.append(f"pair {p['seed']:>7} {p.get('first', '?'):>5}  " + "  ".join(f"{f:>24}" for f in figures))
    old, new = ([p[side]["attempted"] for p in pairs] for side in ("old", "new"))
    lines.append(f"{'ops':<14} {fmt(summarize(old)):>30} {fmt(summarize(new)):>30}")
    bad = [f"{side} seed {p['seed']}" for p in pairs for side in ("old", "new") if not _clean(p[side])]
    lines.append("every run correct, none failed" if not bad else f"checks failed: {', '.join(bad)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/collect_bench.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="write BENCH_<label>.json from a collection run")
    parser.add_argument("--repo", type=Path, default=HERE, help="checkout whose benchmark runs")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), type=Path)
    parser.add_argument("--pairs", type=int, metavar="N", help="alternate N pairs of runs of two checkouts")
    parser.add_argument("--against", type=Path, metavar="OLD_DIR", help="the old checkout of --pairs")
    parser.add_argument("--workload", help="the workload --pairs runs")
    args = parser.parse_args(argv)
    if sum(x is not None for x in (args.label, args.compare, args.pairs)) != 1:
        parser.error("give one of --label, --compare or --pairs")
    if (args.pairs is None) != (args.against is None) or (args.pairs is None) != (args.workload is None):
        parser.error("--pairs, --against and --workload go together")
    spec = json.loads((HERE / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    if args.compare:
        old, new = (json.loads(p.read_text()) for p in args.compare)
        print("\n".join(compare(old, new, bounds)))
        return 0
    repo = args.repo.resolve()
    checkouts = [repo] if args.pairs is None else [repo, args.against.resolve()]
    for checkout in checkouts:
        if not (checkout / "BENCHMARK.json").is_file():
            parser.error(f"{checkout} holds no BENCHMARK.json")
    if args.pairs is not None:
        if args.pairs < 1:
            parser.error("--pairs must be at least 1")
        if args.workload not in {wl["name"] for wl in spec["workloads"]}:
            parser.error(f"unknown workload {args.workload!r}")
        pairs = run_pairs(repo, checkouts[1], args.workload, args.pairs)
        print("\n".join(pair_report(pairs, bounds)))
        return 0 if all(_clean(p[side]) for p in pairs for side in ("old", "new")) else 1
    data = collect(repo, args.label)
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(data, indent=1) + "\n")
    bad = [name for name, wl in data["workloads"].items() if not wl["correct"] or wl["failed"]]
    print(f"collect_bench: wrote {out}" + (f"; checks failed on {', '.join(bad)}" if bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
