import re
from pathlib import Path

import pytest

import stencilrt.cli as cli
from stencilrt.bboxset import BBoxSet
from stencilrt.cli import build_parser, main
from stencilrt.fuzz import check_case, grid_of_boxes
from stencilrt.lattice import parse_bbox
from stencilrt.oracle import PointSet

FLAGS = {
    "setops-check": {"--dims", "--seed", "--boxes", "--extent", "--cases", "--point-cap", "--all-dims"},
    "setops-bench": {"--dims", "--boxes", "--reps", "--out"},
    "stencil-bench": {"--seed", "--extent", "--iters", "--threads", "--fine-threads",
                      "--lane-width", "--topology", "--out"},
    "tune-sim": {"--seeds", "--iters", "--threads", "--fine-threads", "--lane-width",
                 "--topology", "--out"},
}
# flags of other subcommands that each command does not read
UNREAD = [
    *(("setops-check", f) for f in ("--iters", "--threads", "--fine-threads", "--lane-width",
                                    "--topology", "--out")),
    *(("setops-bench", f) for f in ("--seed", "--extent", "--iters", "--threads",
                                    "--fine-threads", "--lane-width", "--topology")),
    *(("stencil-bench", f) for f in ("--dims", "--boxes")),
    *(("tune-sim", f) for f in ("--dims", "--seed", "--boxes", "--extent")),
]
# small sizes, so that a run which wrongly accepts a flag ends quickly
SMALL = {
    "setops-check": ["--cases", "1"],
    "setops-bench": ["--boxes", "128", "--reps", "1"],
    "stencil-bench": ["--extent", "8", "--iters", "1"],
    "tune-sim": ["--seeds", "1", "--iters", "1"],
}


class TestSetopsCheck:
    def test_default_small_run_passes(self, capsys):
        assert main(["setops-check", "--cases", "30", "--dims", "2", "--extent", "12"]) == 0
        assert "30 randomized cases agree" in capsys.readouterr().out

    def test_all_dims(self, capsys):
        assert main(["setops-check", "--all-dims", "--dims", "3",
                     "--cases", "10", "--extent", "10", "--boxes", "6"]) == 0
        assert "30 randomized cases" in capsys.readouterr().out

    def test_case_function_returns_none_on_agreement(self):
        for seed in range(20):
            assert check_case(seed, 2, 10, 12) is None

    def test_case_function_reports_overlapping_boxes(self, monkeypatch):
        """A decomposition with the right union but a box listed twice is an overlap."""
        to_bboxes = BBoxSet.to_bboxes
        monkeypatch.setattr(BBoxSet, "to_bboxes", lambda r: to_bboxes(r) + to_bboxes(r)[:1])
        msg = check_case(3, 2, 10, 12)
        assert msg is not None and msg.startswith("mismatch in to_bboxes (overlap)")

    def test_failing_case_shrinks(self, monkeypatch):
        """A planted fault (difference returns its left operand) fails on some
        case of at least 30 boxes; the message lists a few boxes on which the
        fault still shows: R and S still overlap."""
        apply = BBoxSet.apply
        monkeypatch.setattr(BBoxSet, "apply", lambda r, op, s: r if op == "difference" else apply(r, op, s))
        for seed in range(100):
            msg = check_case(seed, 2, 30, 24)
            total, kept = map(int, re.search(r"shrunk from (\d+) to (\d+) boxes", msg).groups())
            if total >= 30:
                break
        assert msg.startswith("mismatch in difference") and total >= 30 and kept <= 3, msg
        listed = msg.split("S boxes:")
        r_boxes, s_boxes = ([parse_bbox(line) for line in part.splitlines() if line.startswith("  (")]
                            for part in listed)
        a = PointSet.from_bboxes(r_boxes, dim=2)
        b = PointSet.from_bboxes(s_boxes, dim=2)
        assert a.op("difference", b).points != a.points


class TestUsageErrors:
    def test_malformed_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["setops-check", "--bogus"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [
        ["--threads", "0"],
        ["--threads", "65"],
        ["--threads", "8", "--fine-threads", "16"],
        ["--fine-threads", "0"],
        ["--lane-width", "3"],
    ])
    def test_bad_topology_flags_exit_2(self, flags, capsys):
        # rejected while the topology is built, before any stencil runs
        assert main(["stencil-bench", "--extent", "8", "--iters", "1"] + flags) == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", UNREAD, ids=[f"{c} {f}" for c, f in UNREAD])
    def test_flag_the_command_does_not_read_exits_2(self, command, flag, capsys):
        # abbreviations are off, so tune-sim --seed is not taken for --seeds
        with pytest.raises(SystemExit) as exc:
            main([command, *SMALL[command], flag, "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        "stencil-bench --iters 0",
        "tune-sim --seeds 0",
        "setops-check --extent 3",
        "setops-check --boxes -1",
        "setops-bench --boxes 10",
        "setops-bench --boxes 64",  # one point, no slope to fit
    ])
    def test_count_the_command_cannot_run_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument" in err and "Traceback" not in err

    def test_missing_topology_file_exits_2(self, tmp_path, capsys):
        assert main(["tune-sim", "--seeds", "1", "--topology", str(tmp_path / "absent.cfg")]) == 2
        assert "topology" in capsys.readouterr().err


class TestSetopsBench:
    def test_csv_schema_and_slope_output(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["setops-bench", "--boxes", "128", "--reps", "1",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "impl,n,seconds"
        impls = {line.split(",")[0] for line in lines[1:]}
        assert impls == {"derivative_tree", "naive_list"}
        ns = {int(line.split(",")[1]) for line in lines[1:]}
        assert ns == {64, 128}
        assert "fitted log-log slope" in capsys.readouterr().out

    def test_grid_workload_is_disjoint(self):
        boxes = grid_of_boxes(64, 2)
        assert len(boxes) == 64
        assert PointSet.from_bboxes(boxes).point_count() == 64 * 9


class TestStencilBench:
    def test_small_run_bit_identical(self, tmp_path, capsys):
        out = tmp_path / "st.csv"
        assert main(["stencil-bench", "--extent", "16", "--iters", "8",
                     "--threads", "2", "--out", str(out)]) == 0
        assert "bit-identical: True" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "impl,iter,elapsed_ns,phase,is_best,params"
        tuned = [line for line in lines[1:] if line.startswith("tuned,")]
        assert tuned and all(len(line.split(",")) == 6 for line in lines[1:])
        assert all(line.endswith(",") for line in lines[1:] if not line.startswith("tuned,"))
        assert all(re.fullmatch(r"\d+x\d+x\d+/\d+x\d+x\d+/\d+x\d+x\d+/w\d+", line.split(",")[5]) for line in tuned)
        phases = {line.split(",")[3] for line in tuned}
        assert phases & {"warmup", "initial", "climbing", "excursion"}

    def test_totals_are_the_csv_sums(self, tmp_path, capsys):
        """Each path's printed total is the sum of its CSV elapsed_ns rows,
        to the printed precision."""
        out = tmp_path / "st.csv"
        assert main(["stencil-bench", "--extent", "8", "--iters", "5", "--out", str(out)]) == 0
        line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("total ms of the run: "))
        printed = dict(re.findall(r"(\w+) (\d+\.\d{3})", line))
        sums = {}
        for row in out.read_text().splitlines()[1:]:
            impl, _, elapsed = row.split(",")[:3]
            sums[impl] = sums.get(impl, 0) + int(elapsed)
        assert set(printed) == set(sums) == {"serial", "naive", "tuned"}
        for impl, total in sums.items():
            assert abs(float(printed[impl]) - total / 1e6) <= 0.0005, (impl, printed[impl], total)

    def test_topology_file_rng_seed_reaches_tuner(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "topo.cfg"
        cfg.write_text("rng_seed = 7\n")
        seen = []
        real = cli.run_tuned

        def spy(n, iters, seed, topo):
            seen.append((seed, topo.rng_seed))
            return real(n, iters, seed, topo)

        monkeypatch.setattr(cli, "run_tuned", spy)
        small = ["stencil-bench", "--extent", "8", "--iters", "2", "--topology", str(cfg)]
        assert main(small) == 0
        assert main(small + ["--seed", "11"]) == 0
        # the grid keeps its default seed; --seed, when given, wins over the file
        assert seen == [(cli.DEFAULT_SEED, 7), (11, 11)]


class TestTuneSim:
    def test_deterministic_output(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["tune-sim", "--seeds", "10", "--iters", "30", "--out", str(out1)]) == 0
        report1 = capsys.readouterr().out
        assert main(["tune-sim", "--seeds", "10", "--iters", "30", "--out", str(out2)]) == 0
        report2 = capsys.readouterr().out
        assert report1 == report2
        assert out1.read_text() == out2.read_text()
        header = out1.read_text().splitlines()[0]
        assert header == "seed,best_cost,evals_to_within_10pct,consecutive_bad_violations,total_cost"

    @pytest.mark.parametrize("file_threads, flags, want", [
        (2, [], 2),                  # the file's value holds
        (2, ["--threads", "3"], 3),  # a given flag wins over the file
        (None, [], 4),               # no file: 4 coarse threads
    ])
    def test_coarse_threads_source(self, file_threads, flags, want, tmp_path, monkeypatch, capsys):
        seen = []
        real = cli.run_simulation

        def spy(seeds, iters, topo):
            seen.append(topo.n_coarse_threads)
            return real(seeds, iters, topo)

        monkeypatch.setattr(cli, "run_simulation", spy)
        if file_threads is not None:
            cfg = tmp_path / "topo.cfg"
            cfg.write_text(f"n_coarse_threads = {file_threads}\n")
            flags = flags + ["--topology", str(cfg)]
        assert main(["tune-sim", "--seeds", "1", "--iters", "2", *flags]) == 0
        assert seen == [want]


def test_parser_lists_all_subcommands():
    parser = build_parser()
    sub = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
    assert set(sub.choices) == {"setops-check", "setops-bench", "stencil-bench", "tune-sim"}


def test_each_subcommand_accepts_exactly_the_flags_it_reads():
    parser = build_parser()
    sub = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
    accepted = {
        name: {opt for a in p._actions for opt in a.option_strings if opt.startswith("--")} - {"--help"}
        for name, p in sub.choices.items()
    }
    assert accepted == FLAGS
    assert sum(map(len, accepted.values())) == 26


def test_source_reads_no_environment():
    # settings come from flags, the topology file or the defaults only
    src = Path(cli.__file__).parent
    for path in src.glob("*.py"):
        assert not re.search(r"\b(environ|getenv)\b", path.read_text()), path.name
