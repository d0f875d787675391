import pytest

from stencilrt.cli import build_parser, check_case, grid_of_boxes, main
from stencilrt.oracle import PointSet


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
        assert lines[0] == "impl,iter,elapsed_ns,phase,is_best"
        tuned = [line for line in lines[1:] if line.startswith("tuned,")]
        assert tuned and all(len(line.split(",")) == 5 for line in lines[1:])
        phases = {line.split(",")[3] for line in tuned}
        assert phases & {"warmup", "initial", "climbing", "excursion"}


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


def test_parser_lists_all_subcommands():
    parser = build_parser()
    sub = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
    assert set(sub.choices) == {"setops-check", "setops-bench", "stencil-bench", "tune-sim"}
