import importlib.util
import json
from pathlib import Path

import pytest

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


def _stub_runs(monkeypatch, value):
    """Replace run_once by a stub that logs each call and reads its figures from value(side, seed)."""
    calls = []

    def run_once(repo, command, workload, seed, seconds, trace):
        side = repo.name
        calls.append((side, seed, trace))
        return {"seed": seed, "trace": trace, "correct": True, "attempted": 100, "failed": 0,
                "metrics": {m: {"value": value(side, seed)[m]} for m in BOUNDS}}

    monkeypatch.setattr(collect_bench, "run_once", run_once)
    return calls


def _checkouts(tmp_path):
    for side in ("old", "new"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps({"command": ["python3", "bench/run.py"],
                                                                   "run_seconds": 1}))
    return tmp_path / "new", tmp_path / "old"


def test_pairs_share_a_seed_alternate_order_and_end_on_the_held_out_seed(monkeypatch, tmp_path):
    calls = _stub_runs(monkeypatch, lambda side, seed: {"op_p50_ms": 1.0, "ops_per_s": 1.0})
    pairs = collect_bench.run_pairs(*_checkouts(tmp_path), "w", 4)
    assert calls == [("old", 1001, 0), ("new", 1001, 0), ("new", 1002, 0), ("old", 1002, 0),
                     ("old", 1003, 0), ("new", 1003, 0), ("new", 424242, 0), ("old", 424242, 0)]
    assert [p["seed"] for p in pairs] == [1001, 1002, 1003, 424242]
    assert collect_bench.pair_seeds(1) == [424242]


def test_pair_report_counts_wins_by_direction_and_not_ties(monkeypatch, tmp_path):
    # op_p50_ms: new lower in pairs 1 and 2, tied in 3, higher in 4; ops_per_s: new higher in 3 of 4
    p50 = {1001: (10, 8), 1002: (10, 9), 1003: (10, 10), 424242: (10, 11)}
    rate = {1001: (5, 6), 1002: (5, 7), 1003: (5, 4), 424242: (5, 9)}
    side_of = {"old": 0, "new": 1}
    _stub_runs(monkeypatch, lambda side, seed: {"op_p50_ms": p50[seed][side_of[side]],
                                                "ops_per_s": rate[seed][side_of[side]]})
    pairs = collect_bench.run_pairs(*_checkouts(tmp_path), "w", 4)
    lines = {line.split()[0]: line for line in collect_bench.pair_report(pairs, BOUNDS)[1:]}
    assert lines["op_p50_ms"].split()[7] == "2/4"
    assert lines["ops_per_s"].split()[7] == "3/4"
    assert "10 [10, 10]" in lines["op_p50_ms"] and "9.5 [8.75, 10.25]" in lines["op_p50_ms"]
    assert lines["ops"].split()[1:] == ["100", "[100,", "100]", "100", "[100,", "100]"]
    assert lines["every"] == "every run correct, none failed"


def _pairs(**metrics):
    """Pairs whose runs read metric values (old, new) in turn."""
    run = lambda i, side: {"correct": True, "attempted": 1, "failed": 0,
                           "metrics": {k: {"value": v[i][side]} for k, v in metrics.items()}}
    n = len(next(iter(metrics.values())))
    return [{"seed": 1001 + i, "old": run(i, 0), "new": run(i, 1)} for i in range(n)]


@pytest.mark.parametrize("p50, rate, want", [
    ([(10, 13), (10, 13.2), (10.1, 13)], [(5, 5)] * 3, "WORSE beyond bound 0.25"),
    ([(10, 10), (10, 5), (10, 15)], [(5, 5)] * 3, "unresolved: spread 0.50 > bound 0.25"),
    ([(10, 11), (10, 12), (10.1, 11)], [(5, 5)] * 3, "within bound"),
])
def test_pair_report_gives_the_compare_verdict(p50, rate, want):
    lines = {line.split()[0]: line for line in collect_bench.pair_report(_pairs(op_p50_ms=p50, ops_per_s=rate),
                                                                           BOUNDS)[1:]}
    assert lines["op_p50_ms"].endswith(want)
    assert lines["ops_per_s"].endswith("within bound")


def test_pair_report_names_failed_runs():
    run = lambda ok: {"correct": ok, "attempted": 1, "failed": 0,
                      "metrics": {m: {"value": 1.0} for m in BOUNDS}}
    lines = collect_bench.pair_report([{"seed": 7, "old": run(True), "new": run(False)}], BOUNDS)
    assert lines[-1] == "checks failed: new seed 7"


@pytest.mark.parametrize("argv", [
    ["--pairs", "3"],
    ["--pairs", "3", "--against", "."],
    ["--against", ".", "--workload", "tune-noisy"],
    ["--label", "x", "--pairs", "3", "--against", ".", "--workload", "tune-noisy"],
    ["--pairs", "0", "--against", ".", "--workload", "tune-noisy"],
    ["--pairs", "3", "--against", ".", "--workload", "no-such-workload"],
])
def test_pairs_arguments_checked(monkeypatch, argv):
    monkeypatch.setattr(collect_bench, "run_pairs", lambda *a: pytest.fail("ran with bad arguments"))
    with pytest.raises(SystemExit) as exc:
        collect_bench.main(argv)
    assert exc.value.code == 2


def test_pair_report_lists_every_pair_with_its_seed_and_first_side(monkeypatch, tmp_path):
    p50 = {1001: (10, 8), 1002: (10, 9), 424242: (10.5, 11)}
    side_of = {"old": 0, "new": 1}
    _stub_runs(monkeypatch, lambda side, seed: {"op_p50_ms": p50[seed][side_of[side]], "ops_per_s": 5.0})
    pairs = collect_bench.run_pairs(*_checkouts(tmp_path), "w", 3)
    rows = [line.split() for line in collect_bench.pair_report(pairs, BOUNDS) if line.startswith("pair ")]
    assert rows[0][:3] == ["pair", "seed", "first"]
    assert [row[1:] for row in rows[1:]] == [["1001", "old", "10/8", "5/5"],
                                             ["1002", "new", "10/9", "5/5"],
                                             ["424242", "old", "10.5/11", "5/5"]]


@pytest.mark.parametrize("p50, holds", [
    ([(10, 8)] * 9 + [(10, 11)], True),             # 9 of 10 won, gain 2 > spread 0
    ([(10, 8)] * 8 + [(10, 11)] * 2, False),        # 8 of 10 won
    ([(9, 8.5), (10, 9.5), (11, 10.5), (12, 11.5)] * 2 + [(10, 9.5)] * 2, False),  # gain 0.5 < q3 - q1
    ([(10, 11)] * 10, False),                       # worse in every pair
])
def test_pair_report_says_whether_a_gain_claim_holds(p50, holds):
    lines = collect_bench.pair_report(_pairs(op_p50_ms=p50, ops_per_s=[(5, 6)] * len(p50)), BOUNDS)
    claims = {line.split()[1]: line for line in lines if line.startswith("claim ")}
    assert claims["op_p50_ms"].split()[2] == ("holds:" if holds else "does")
    assert claims["ops_per_s"].split()[2] == "holds:"        # higher is better: won 10/10
