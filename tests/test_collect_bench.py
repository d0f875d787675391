import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "collect_bench", Path(__file__).resolve().parent.parent / "tools" / "collect_bench.py")
collect_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(collect_bench)

BOUNDS = {"op_p50_ms": {"name": "op_p50_ms", "better": "lower", "bound": 0.25},
          "ops_per_s": {"name": "ops_per_s", "better": "higher", "bound": 0.25}}


def _file(**metrics):
    runs = [{"metrics": {k: {"value": v[i]} for k, v in metrics.items()}}
            for i in range(len(next(iter(metrics.values()))))]
    return {"workloads": {"w": {"metrics": {k: collect_bench.summarize(v) for k, v in metrics.items()},
                                "runs": runs}}}


def test_summarize_median_quartiles_count():
    assert collect_bench.summarize([5.0, 1.0, 3.0, 2.0, 4.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    assert collect_bench.summarize([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}


def test_compare_verdicts_follow_direction_and_bound():
    old = _file(op_p50_ms=[100, 100, 101], ops_per_s=[10, 10, 10], calls=[5, 5, 5], idle=[0, 0, 0])
    new = _file(op_p50_ms=[130, 130, 131], ops_per_s=[20, 20, 20], calls=[4, 4, 4], idle=[0, 0, 0])
    lines = {line.split()[1]: line for line in collect_bench.compare(old, new, BOUNDS)[1:]}
    assert "WORSE beyond bound 0.25" in lines["op_p50_ms"]
    assert "within bound" in lines["ops_per_s"]      # higher is better: doubled
    assert "0.800" in lines["calls"] and "bound" not in lines["calls"]
    assert "idle" not in lines                         # zero at both ends says nothing


def test_compare_reports_wide_spread_as_unresolved():
    old = _file(op_p50_ms=[60, 100, 140])
    new = _file(op_p50_ms=[100, 100, 100])
    (line,) = collect_bench.compare(old, new, BOUNDS)[1:]
    assert "unresolved" in line


def test_compare_resolves_wide_spreads_whose_runs_do_not_overlap():
    slow, fast = [100, 150, 200], [40, 50, 60]
    (line,) = collect_bench.compare(_file(op_p50_ms=slow), _file(op_p50_ms=fast), BOUNDS)[1:]
    assert "within bound" in line
    (line,) = collect_bench.compare(_file(op_p50_ms=fast), _file(op_p50_ms=slow), BOUNDS)[1:]
    assert "WORSE beyond bound 0.25" in line
