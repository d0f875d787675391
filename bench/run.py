#!/usr/bin/env python3
"""stencilrt benchmark: run one workload for a while and print one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from any directory; the package is imported from ``src/`` of the
checkout this file belongs to.  Workloads (see bench/README.md for why each exists):

    amr-regrid      3-D regrid steps over drifting flag clusters   (bboxset, large trees)
    setops-fuzz     random tiny operands, tree vs oracle vs grid    (bboxset, oracle)
    sweep-tiled     Laplacian sweeps, one worker, cache-sized tiles (traverse, kernel)
    sweep-threaded  the same with small tiles on two fine threads  (traverse)
    tune-noisy      Tuner on the noisy synthetic cost surface       (tuner)

Each is a closed loop with one client: the next operation starts when the
previous one and its output check are done.  Operations repeat until
``--seconds`` of wall time have passed, in whole rounds.  Inputs come from
``--seed`` alone.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` public functions of the program are wrapped to record spans,
and the result holds the per-layer metrics.  Both runs check every output.
Result and span files go to bench/results/.  Exit status: 0 when every
check passed, 1 when a check failed, 2 on a usage error.
"""
import time

_T_SCRIPT = time.perf_counter()

import os


def _since_process_start() -> float:
    """Seconds since this process started, from /proc (Linux, 10 ms ticks); 0 elsewhere."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - started)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


_T_PROCESS = time.perf_counter() - max(_since_process_start(), time.perf_counter() - _T_SCRIPT)

# The speed probe: a fixed pure-Python loop, timed between operations.  On the
# 2-core virtual machine the reference figures come from, the same code ran
# 1.0x to 1.7x slower for phases of 10 to 100 s, longer than a run, so time metrics are reported at the probe's
# reference speed: raw time * PROBE_REFERENCE_NS / (nearby probe time),
# unless the workload sets scale_by_probe = False.  The raw figures go to the
# results file.  The probe does integer arithmetic only, so the garbage
# collector never runs inside it and the program's heap cannot slow it.
PROBE_LOOP = 12_000
PROBE_REFERENCE_NS = 1_000_000
PROBE_EVERY_S = 0.25


def probe_ns() -> int:
    """Median of three timings of the probe loop, in ns."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter_ns()
        s = 0
        for i in range(PROBE_LOOP):
            s += (i * i) % 7
        times.append(time.perf_counter_ns() - t0)
    return sorted(times)[1]


_T_PROBE = time.perf_counter()
_START_PROBE = probe_ns()
_START_PROBE_S = time.perf_counter() - _T_PROBE

# numpy's BLAS pool is unused here; keep it from starting threads of its own
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402

import common  # noqa: E402

WORKLOADS = ("amr-regrid", "setops-fuzz", "sweep-tiled", "sweep-threaded", "tune-noisy")
RESULTS = common.ROOT / "bench" / "results"


def load(name: str):
    common.use_source_tree()
    if name in ("amr-regrid", "setops-fuzz"):
        import regions
        return regions.AmrRegrid if name == "amr-regrid" else regions.SetopsFuzz
    if name in ("sweep-tiled", "sweep-threaded"):
        import sweeps
        return sweeps.SweepTiled if name == "sweep-tiled" else sweeps.SweepThreaded
    import tuning
    return tuning.TuneNoisy


def trace_layers(tracer) -> None:
    """Wrap the public entry points of each layer."""
    import threading

    from stencilrt import bboxset, oracle, traverse, tuner

    def leaves(tr, result):
        if isinstance(result, bboxset.BBoxSet):
            tr.count("bboxset.leaves_out", result.derivative_element_count())

    def points(tr, result):
        if isinstance(result, oracle.PointSet):
            tr.count("oracle.points", len(result.points))

    for attr, name in [
        ("from_bboxes", "from_bboxes"), ("apply", "sweep"), ("symmetric_difference", "xor"),
        ("__xor__", "xor"), ("equals", "equals"), ("shift", "shift"), ("expand", "expand"),
        ("coarsen", "coarsen"), ("refine", "refine"), ("to_bboxes", "to_bboxes"),
        ("contains", "contains"), ("point_count", "point_count"),
    ]:
        tracer.install(bboxset.BBoxSet, attr, "bboxset." + name, leaves)
    tracer.install(oracle.PointSet, "from_bboxes", "oracle.enumerate", points)
    tracer.install(oracle, "oracle_from_bboxset", "oracle.enumerate", points)
    for attr in ("op", "shift", "expand", "coarsen", "refine", "contains"):
        tracer.install(oracle.PointSet, attr, "oracle.op", points)
    tracer.install(traverse, "build_plan", "traverse.build_plan")
    tracer.install(traverse, "execute_plan", "traverse.execute")
    tracer.install(threading.Thread, "start", "traverse.thread_start")
    tracer.install(tuner.Tuner, "next_params", "tuner.next_params")
    tracer.install(tuner.Tuner, "record_timing", "tuner.record_timing")


PER_LAYER_MS = {
    "bboxset.from_bboxes_ms": "bboxset.from_bboxes",
    "bboxset.sweep_ms": "bboxset.sweep",
    "bboxset.xor_ms": "bboxset.xor",
    "bboxset.expand_ms": "bboxset.expand",
    "bboxset.coarsen_ms": "bboxset.coarsen",
    "bboxset.refine_ms": "bboxset.refine",
    "bboxset.to_bboxes_ms": "bboxset.to_bboxes",
    "oracle.enumerate_ms": "oracle.enumerate",
    "oracle.op_ms": "oracle.op",
    "traverse.build_plan_ms": "traverse.build_plan",
    "traverse.thread_start_ms": "traverse.thread_start",
}
PER_CALL_US = {
    "bboxset.contains_us": "bboxset.contains",
    "tuner.next_params_us": "tuner.next_params",
    "tuner.record_timing_us": "tuner.record_timing",
}
TUNER_FIGURES = ("tune_evals_to_target", "tune_final_cost_ratio", "tune_run_cost_ratio",
                 "tuner.excursions", "tuner.best_changes", "tuner.best_samples",
                 "tuner.distinct_settings", "tuner.converged_share")
UNITS = {"count": ("bboxset.calls", "bboxset.leaves_out", "oracle.points", "traverse.pieces",
                   "traverse.thread_starts", "tuner.excursions", "tuner.best_changes",
                   "tuner.best_samples", "tuner.distinct_settings"),
         "evals": ("tune_evals_to_target",),
         "ratio": ("traverse.imbalance", "tune_final_cost_ratio", "tune_run_cost_ratio",
                   "tuner.converged_share")}


def unit_of(name: str) -> str:
    for unit, names in UNITS.items():
        if name in names:
            return unit
    return name.rsplit("_", 1)[1]


def speed_factors(probes) -> list[float]:
    """Reference-speed factor for the ops after each probe sample: the median
    of that sample and its neighbours, against PROBE_REFERENCE_NS."""
    out = []
    for k in range(len(probes)):
        near = sorted(probes[max(0, k - 1):k + 2])
        out.append(PROBE_REFERENCE_NS / near[len(near) // 2])
    return out


def layer_metrics(tracer, n_ops: int, n_workers: int, extra: dict, speed: float) -> tuple[dict, dict]:
    """Per-layer metrics (per operation unless named per call) and op-time
    shares.  Times are scaled to the probe's reference speed by the run's
    median probe sample."""
    selfs = tracer.self_times()
    incl = tracer.inclusive_times()
    per_op = lambda ns: ns * speed / n_ops / 1e6
    out = {}
    for metric, span in PER_LAYER_MS.items():
        out[metric] = per_op(selfs.get(span, (0, 0))[0])
    for metric, span in PER_CALL_US.items():
        total, calls = selfs.get(span, (0, 0))
        out[metric] = total * speed / calls / 1e3 if calls else 0.0
    c = tracer.counters
    out["bboxset.calls"] = sum(n for name, (_, n) in selfs.items() if name.startswith("bboxset.")) / n_ops
    out["bboxset.leaves_out"] = c["bboxset.leaves_out"] / n_ops
    out["oracle.points"] = c["oracle.points"] / n_ops
    out["traverse.pieces"] = c["traverse.pieces"] / n_ops
    out["traverse.thread_starts"] = selfs.get("traverse.thread_start", (0, 0))[1] / n_ops
    out["traverse.execute_ms"] = per_op(incl.get("traverse.execute", 0))
    out["kernel.busy_ms"] = per_op(c["kernel.busy_ns"])
    out["traverse.overhead_ms"] = out["traverse.execute_ms"] - out["kernel.busy_ms"] / n_workers \
        if "traverse.execute" in incl else 0.0
    out["traverse.imbalance"] = c["traverse.imbalance"] / n_ops
    for name in TUNER_FIGURES:
        out[name] = float(extra.get(name, 0.0))
    op_ns = incl.get("op", 0)
    shares = {name: ns / op_ns for name, ns in sorted(incl.items()) if op_ns and name != "op"}
    return {k: {"value": v, "unit": unit_of(k)} for k, v in out.items()}, shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 600:
        parser.error("--seconds must be in (0, 600]")

    cls = load(args.workload)
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        trace_layers(tracer)
    inputs = common.Stopwatch()
    wl = cls(args.seed, inputs)
    if tracer is not None:
        wl.tracer = tracer
    round_ops = getattr(wl, "round_ops", 1)
    min_ops = getattr(wl, "min_ops", round_ops)

    # compact arrays, so the record of op times barely moves peak RSS
    op_ns = array("q")
    op_probe = array("i")  # index of the last probe sample before each op
    probes = array("q")
    probing = common.Stopwatch()
    probing.total = _START_PROBE_S
    last_probe = float("-inf")
    failed = 0
    correct = True
    first_op = None
    setup_s = None
    try:
        while True:
            with inputs:
                inp = wl.next_input()
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                with probing:
                    probes.append(probe_ns())
                last_probe = time.perf_counter()
            if first_op is None:
                first_op = time.perf_counter()
                setup_s = first_op - _T_PROCESS - inputs.total - probing.total
            op_probe.append(len(probes) - 1)
            span = None
            if tracer is not None:
                tracer.op_id = len(op_ns)
                span = tracer.begin("op")
            try:
                out, ns = wl.op(inp)
            except Exception:
                failed += 1
                if failed == 1:
                    traceback.print_exc()
                out, ns = None, 0
            finally:
                if span is not None:
                    tracer.finish(span)
                    tracer.op_id = -1
            op_ns.append(ns)
            if out is not None:
                wl.check(inp, out)
            n = len(op_ns)
            if n % round_ops == 0 and n >= min_ops and time.perf_counter() - first_op >= args.seconds:
                break
        # read before the summaries below allocate anything
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        extra = wl.finish()
    except common.CheckFailed as exc:
        print(f"bench: check failed: {exc}", file=sys.stderr)
        correct = False
        extra = {}
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if tracer is not None:
            tracer.uninstall()
    probes.append(probe_ns())

    scaled = getattr(wl, "scale_by_probe", True)
    speed = speed_factors(probes) if scaled else [1.0] * len(probes)
    raw = [ns for ns in op_ns if ns]
    done = [ns * speed[k] for ns, k in zip(op_ns, op_probe) if ns]
    run_speed = PROBE_REFERENCE_NS / statistics.median(probes) if scaled else 1.0
    reference = {
        "ops": len(op_ns), "input_generation_s": inputs.total,
        "probe_median_ns": statistics.median(probes), "probe_samples": len(probes), "scaled_by_probe": scaled,
        "raw_setup_s": setup_s,
    }
    if raw:
        reference["raw_ops_per_s"] = len(raw) / (sum(raw) / 1e9)
        reference["raw_op_p50_ms"] = statistics.median(raw) / 1e6
    if len(done) >= 2:
        reference["op_p90_ms"] = statistics.quantiles(done, n=10)[-1] / 1e6
    if tracer is not None:
        workers = getattr(wl, "n_fine", 1)
        metrics, reference["op_time_shares"] = layer_metrics(tracer, max(1, len(op_ns)), workers, extra, run_speed)
    else:
        setup_speed = PROBE_REFERENCE_NS / statistics.median([_START_PROBE] + list(probes[:2])) if scaled else 1.0
        metrics = {
            "setup_s": {"value": setup_s * setup_speed, "unit": "s"},
            "ops_per_s": {"value": len(done) / (sum(done) / 1e9) if done else 0.0, "unit": "op/s"},
            "op_p50_ms": {"value": statistics.median(done) / 1e6 if done else 0.0, "unit": "ms"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
        reference.update({k: v for k, v in extra.items() if k.startswith("tune_")})
    result = {"correct": correct, "attempted": len(op_ns), "failed": failed, "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps({**result, "reference": reference}, indent=1) + "\n")
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
