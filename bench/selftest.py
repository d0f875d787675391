#!/usr/bin/env python3
"""Self-tests of the benchmark's output checks: each must reject a planted fault.

    python3 bench/selftest.py

Every workload runs one real operation; its untouched output must pass the
check, and the same output with one planted fault (a flipped point in a
region, an altered cell of the field, a setting outside the valid space, a
faulty set operation) must fail it.
"""
from __future__ import annotations

import copy
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.use_source_tree()

import numpy as np  # noqa: E402

import regions  # noqa: E402
import sweeps  # noqa: E402
import tuning  # noqa: E402
from stencilrt.bboxset import BBoxSet  # noqa: E402
from stencilrt.lattice import BBox  # noqa: E402
from stencilrt.oracle import PointSet  # noqa: E402
from stencilrt.tuner import ExecParams  # noqa: E402

SEED = 7


def flip_point(region: BBoxSet) -> BBoxSet:
    """The region with membership of one lattice point inverted."""
    p = region.offset
    return region ^ BBoxSet.from_bboxes([BBox(p, p, region.stride)])


class FaultCase(unittest.TestCase):
    def assertRejects(self, wl, inp, out, what: str) -> None:
        with self.assertRaises(common.CheckFailed, msg=f"planted fault not caught: {what}"):
            wl.check(inp, out)


class AmrRegridChecks(FaultCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = regions.AmrRegrid(SEED, common.Stopwatch())
        cls.inp = cls.wl.next_input()
        cls.out, _ = cls.wl.op(cls.inp)

    def planted(self, **changes):
        out = dict(self.out)
        out.update(changes)
        return out

    def test_flipped_point_in_each_region(self):
        for key in ("flagged", "level", "parent_points", "restriction", "added", "dropped", "changed"):
            with self.subTest(result=key):
                self.assertRejects(self.wl, self.inp, self.planted(**{key: flip_point(self.out[key])}), key)

    def test_overlapping_or_missing_boxes(self):
        boxes = self.out["normal"]
        self.assertRejects(self.wl, self.inp, self.planted(normal=boxes + boxes[:1]), "overlapping box")
        self.assertRejects(self.wl, self.inp, self.planted(normal=boxes[1:]), "missing box")

    def test_wrong_ownership_answer(self):
        owned = list(self.out["owned"])
        owned[0] = not owned[0]
        self.assertRejects(self.wl, self.inp, self.planted(owned=owned), "contains answer")

    def test_faulty_union_breaks_the_laws(self):
        w, o = self.wl.window, self.out
        union = BBoxSet.union
        try:
            BBoxSet.__or__ = lambda a, b: flip_point(union(a, b))
            with self.assertRaises(common.CheckFailed):
                regions.check_laws(w, o["level"], o["prev"], o["changed"], o["added"], o["dropped"])
        finally:
            BBoxSet.__or__ = union
        with self.assertRaises(common.CheckFailed):
            regions.check_laws(w, o["level"], o["prev"], flip_point(o["changed"]), o["added"], o["dropped"])

    def test_untouched_output_passes(self):
        wl = regions.AmrRegrid(SEED, common.Stopwatch())
        inp = wl.next_input()
        out, _ = wl.op(inp)
        wl.check(inp, out)


class SetopsFuzzChecks(FaultCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = regions.SetopsFuzz(SEED, common.Stopwatch())
        cls.cases = []
        for _ in range(3):  # one case per dimension
            inp = cls.wl.next_input()
            cls.cases.append((inp, cls.wl.op(inp)[0]))

    def test_untouched_output_passes(self):
        for inp, out in self.cases:
            self.wl.check(inp, out)

    def test_flipped_point_in_tree_or_oracle(self):
        for inp, out in self.cases:
            for key in ("union", "expand", "coarsen", "shift"):
                tree, orc = out["pairs"][key]
                bad = copy.copy(out)
                bad["pairs"] = {**out["pairs"], key: (flip_point(tree), orc)}
                with self.subTest(dim=inp["dim"], result=key, side="tree"):
                    self.assertRejects(self.wl, inp, bad, f"tree {key}")
                p = orc.offset.coords
                flipped = PointSet(orc.dim, orc.stride, orc.offset, orc.points ^ {p})
                bad["pairs"] = {**out["pairs"], key: (tree, flipped)}
                with self.subTest(dim=inp["dim"], result=key, side="oracle"):
                    self.assertRejects(self.wl, inp, bad, f"oracle {key}")

    def test_reported_disagreement_and_wrong_probe(self):
        inp, out = self.cases[2]
        self.assertRejects(self.wl, inp, {**out, "disagree": ["union"]}, "disagreement")
        probes = list(out["probes"])
        probes[0] = (not probes[0][0], probes[0][1])
        self.assertRejects(self.wl, inp, {**out, "probes": probes}, "contains answer")
        self.assertRejects(self.wl, inp, {**out, "normal": out["normal"] + out["normal"][:1]}, "overlapping box")


class SweepChecks(FaultCase):
    def run_one(self, cls):
        wl = cls(SEED, common.Stopwatch())
        inp = wl.next_input()
        (field, pieces), _ = wl.op(inp)
        return wl, inp, field, pieces

    def test_altered_cell_of_the_field(self):
        for cls in (sweeps.SweepTiled, sweeps.SweepThreaded):
            with self.subTest(workload=cls.name):
                wl, inp, field, pieces = self.run_one(cls)
                bad = field.copy()
                bad[5, 6, 7] = np.nextafter(bad[5, 6, 7], 2.0)
                self.assertRejects(wl, inp, (bad, pieces), "altered cell")

    def test_piece_written_twice_or_skipped(self):
        for cls in (sweeps.SweepTiled, sweeps.SweepThreaded):
            with self.subTest(workload=cls.name):
                wl, inp, field, pieces = self.run_one(cls)
                self.assertRejects(wl, inp, (field, pieces + pieces[:1]), "piece written twice")
                self.assertRejects(wl, inp, (field, pieces[1:]), "piece skipped")

    def test_untouched_output_passes(self):
        for cls in (sweeps.SweepTiled, sweeps.SweepThreaded):
            with self.subTest(workload=cls.name):
                wl, inp, field, pieces = self.run_one(cls)
                wl.check(inp, (field, pieces))


class TuneNoisyChecks(FaultCase):
    def setUp(self):
        self.wl = tuning.TuneNoisy(SEED, common.Stopwatch())
        self.e = self.wl.next_input()
        self.p, _ = self.wl.op(self.e)

    def test_setting_outside_the_valid_space(self):
        p = self.p
        not_listed = ExecParams(p.coarse_split, (12,) + p.tile_size[1:], p.fine_split, p.vector_width)
        self.assertRejects(self.wl, self.e, not_listed, "tile 12 is not a listed tile size")
        invalid = ExecParams(p.coarse_split, (3,) + p.tile_size[1:], p.fine_split, p.vector_width)
        self.assertRejects(self.wl, self.e, invalid, "tile 3 fails check_params")

    def test_sequence_that_does_not_repeat(self):
        self.wl.check(self.e, self.p)
        for _ in range(tuning.EVALS - 2):
            e = self.wl.next_input()
            self.wl.check(e, self.wl.op(e)[0])
        e = self.wl.next_input()
        p, _ = self.wl.op(e)
        settings = self.wl.run["settings"]
        settings[3] = next(q for q in self.wl.valid if q != settings[3])
        self.assertRejects(self.wl, e, p, "altered sequence")

    def test_untouched_run_passes(self):
        self.wl.check(self.e, self.p)
        for _ in range(tuning.EVALS - 1):
            e = self.wl.next_input()
            self.wl.check(e, self.wl.op(e)[0])
        self.assertEqual(len(self.wl.runs), 1)


if __name__ == "__main__":
    unittest.main(verbosity=2)
