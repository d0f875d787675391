"""Region-algebra workloads: ``amr-regrid`` (large trees) and ``setops-fuzz`` (tiny trees).

Both time calls into ``stencilrt.bboxset`` (and, for the fuzz cases,
``stencilrt.oracle``) and check every result against a dense numpy grid that
the benchmark computes itself.
"""
from __future__ import annotations

import random
import time

import numpy as np

from common import Window, check_boxes, dilate, require
from stencilrt import oracle
from stencilrt.bboxset import SET_OPS, BBoxSet
from stencilrt.lattice import BBox, Point, Stride
from stencilrt.oracle import PointSet

# -- amr-regrid --------------------------------------------------------------

N = 128                      # domain [0, N)^3
BOXES_PER_CLUSTER = 30       # one cluster per octant: 240 flag boxes per step
CLUSTER_SPREAD = 6.0         # std. dev. of box corners around a cluster centre
DRIFT = 2.0                  # std. dev. of a cluster's per-step velocity
# a cluster centre stays this far inside its octant, so clusters never merge
# and every step holds eight clusters' worth of work, whatever the seed
OCTANT_MARGIN = 20
BUFFER = 2                   # buffer zone grown around flagged cells
REFINE = 2                   # refinement factor between levels
QUERIES = 200                # point-ownership queries per step
LAWS_EVERY = 4               # steps between checks of the algebraic laws
PAD = 4                      # reference window margin (> BUFFER + REFINE)


class AmrRegrid:
    """One operation is one regrid step of a fine level over drifting flags.

    Step: union of the flag boxes; buffer by ``expand`` and clip to the
    domain; the proper-nesting pass (``coarsen`` onto the parent lattice, then
    ``refine`` back, giving the fine points that coincide with parent points);
    ``difference`` both ways and ``^`` against the previous level;
    ``to_bboxes`` of the new level; point-ownership ``contains`` queries.
    """

    name = "amr-regrid"
    round_ops = 1

    def __init__(self, seed: int, inputs) -> None:
        self.window = Window((-PAD,) * 3, (N + 2 * PAD,) * 3)
        self.domain_box = BBox(Point((0, 0, 0)), Point((N - 1,) * 3), Stride.ones(3))
        with inputs:
            self.rng = np.random.default_rng(seed)
            corners = np.array([[(k >> a) & 1 for a in range(3)] for k in range(8)]) * (N // 2)
            self.low = corners + OCTANT_MARGIN
            self.high = corners + N // 2 - OCTANT_MARGIN
            self.centres = self.rng.uniform(self.low, self.high)
            self.velocity = self.rng.normal(0.0, DRIFT, size=(8, 3))
            self.domain_grid = self.window.paint([self.domain_box])
            self.coarse_lattice = self.window.lattice((0, 0, 0), (REFINE,) * 3)
            first = self.next_input()
        # initial program state: the domain and the level the first flags make
        self.domain = BBoxSet.from_bboxes([self.domain_box])
        self.level = self._buffered(BBoxSet.from_bboxes(first[0]))
        with inputs:
            self.level_grid = self._reference_level(first[0])
        self.steps = 0

    def next_input(self):
        """Flag boxes and query points of the next step (input generation)."""
        self.centres += self.velocity
        outside = (self.centres < self.low) | (self.centres > self.high)
        self.velocity[outside] *= -1
        self.centres = np.clip(self.centres, self.low, self.high)
        boxes = []
        for c in self.centres:
            lows = np.clip((c + self.rng.normal(0.0, CLUSTER_SPREAD, size=(BOXES_PER_CLUSTER, 3))).astype(int), 0, N - 1)
            ups = np.clip(lows + self.rng.integers(1, 8, size=(BOXES_PER_CLUSTER, 3)), 0, N - 1)
            boxes.extend(
                BBox(Point(tuple(map(int, lo))), Point(tuple(map(int, up))), Stride.ones(3))
                for lo, up in zip(lows, ups)
            )
        queries = [Point(tuple(map(int, p))) for p in self.rng.integers(0, N, size=(QUERIES, 3))]
        return boxes, queries

    def _buffered(self, flagged: BBoxSet) -> BBoxSet:
        g = Point((BUFFER,) * 3)
        return flagged.expand(g, g) & self.domain

    def _reference_level(self, boxes) -> np.ndarray:
        flags = self.window.paint(boxes)
        return dilate(flags, (BUFFER,) * 3, (BUFFER,) * 3, (1, 1, 1)) & self.domain_grid

    def op(self, inp):
        boxes, queries = inp
        f = Stride((REFINE,) * 3)
        prev = self.level
        t0 = time.perf_counter_ns()
        flagged = BBoxSet.from_bboxes(boxes)
        level = self._buffered(flagged)
        parent_points = level.coarsen(f)
        restriction = parent_points.refine(f)
        added = level - prev
        dropped = prev - level
        changed = level ^ prev
        normal = level.to_bboxes()
        owned = [level.contains(q) for q in queries]
        elapsed = time.perf_counter_ns() - t0
        self.level = level
        return dict(prev=prev, flagged=flagged, level=level, parent_points=parent_points,
                    restriction=restriction, added=added, dropped=dropped, changed=changed,
                    normal=normal, owned=owned), elapsed

    def check(self, inp, out) -> None:
        boxes, queries = inp
        w = self.window
        prev_g = self.level_grid
        flags_g = w.paint(boxes)
        level_g = dilate(flags_g, (BUFFER,) * 3, (BUFFER,) * 3, (1, 1, 1)) & self.domain_grid
        coarse_g = level_g & self.coarse_lattice
        expect = {
            "flagged": flags_g, "level": level_g, "parent_points": coarse_g,
            "added": level_g & ~prev_g, "dropped": prev_g & ~level_g, "changed": level_g ^ prev_g,
        }
        for key, g in expect.items():
            require(np.array_equal(w.tree_grid(out[key]), g), f"amr-regrid: {key} differs from the dense grid")
        # refine(coarsen(level)) is X on the coarse sub-lattice; one leaf pair per
        # point, so its normalized boxes are the cheaper decoding
        check_boxes(w, out["restriction"].to_bboxes(), coarse_g, "amr-regrid restriction")
        self.steps += 1
        if self.steps % LAWS_EVERY == 1:
            # the laws cost two more sweeps over the largest trees
            check_laws(w, out["level"], out["prev"], out["changed"], out["added"], out["dropped"])
        check_boxes(w, out["normal"], level_g, "amr-regrid level")
        for q, got in zip(queries, out["owned"]):
            want = bool(level_g[tuple(c + PAD for c in q.coords)])
            require(got == want, f"amr-regrid: contains{q.coords} gave {got}, grid says {want}")
        self.level_grid = level_g

    def finish(self) -> dict:
        return {}


def check_laws(w: Window, a: BBoxSet, b: BBoxSet, xor: BBoxSet, a_minus_b: BBoxSet, b_minus_a: BBoxSet) -> None:
    """Properties every correct algebra has, evaluated through the program itself."""
    count = lambda x: int(w.tree_grid(x).sum())
    lhs = count(a | b) + count(a & b)
    rhs = count(a) + count(b)
    require(lhs == rhs, f"|A|B| + |A&B| = {lhs} but |A| + |B| = {rhs}")
    require(xor.equals(a_minus_b | b_minus_a), "A ^ B differs from (A - B) | (B - A)")


# -- setops-fuzz --------------------------------------------------------------

FUZZ_MAX_BOXES = 30
FUZZ_MAX_EXTENT = 32
FUZZ_PROBES = 16
# shifts reach 3 strides and expands 1 stride (stride <= 2) past the hull
FUZZ_MARGIN = 8


class SetopsFuzz:
    """One operation is one fuzz case: every set operation on two random
    operands, on the tree and on the point oracle, compared point for point.

    Cases cycle through 1, 2 and 3 dimensions, every operand size and a
    fixed list of hull extents (4 to 32), so that every round of cases holds
    the same mix of work; box positions, strides and the other operands are
    random.
    """

    name = "setops-fuzz"
    round_ops = 3 * FUZZ_MAX_BOXES

    def __init__(self, seed: int, inputs) -> None:
        self.seed = seed
        self.k = 0

    def next_input(self):
        rng = random.Random(f"setops-fuzz:{self.seed}:{self.k}")
        dim = self.k % 3 + 1
        size = self.k // 3 % FUZZ_MAX_BOXES + 1
        self.k += 1
        steps = tuple(rng.choice((1, 2)) for _ in range(dim))
        hull = tuple(4 + (7 * size + 13 * axis) % (FUZZ_MAX_EXTENT - 3) for axis in range(dim))

        def boxes(count):
            out = []
            for _ in range(count):
                lo, up = [], []
                for e, s in zip(hull, steps):
                    a, b = (rng.randrange(0, max(1, e // s)) * s for _ in range(2))
                    lo.append(min(a, b))
                    up.append(max(a, b))
                out.append(BBox(Point(tuple(lo)), Point(tuple(up)), Stride(steps)))
            return out

        r_boxes, s_boxes = boxes(size), boxes(FUZZ_MAX_BOXES + 1 - size)
        shift = Point(tuple(rng.randint(-3, 3) * s for s in steps))
        lo = Point(tuple(rng.randint(0, 1) for _ in range(dim)))
        hi = Point(tuple(rng.randint(0, 1) for _ in range(dim)))
        coarse = Stride(tuple(rng.choice((1, 2, 3)) for _ in range(dim)))
        fine = Stride(tuple(rng.choice((1, s)) for s in steps))
        probes = [Point(tuple(rng.randint(-2, e + 2) for e in hull)) for _ in range(FUZZ_PROBES)]
        return dict(dim=dim, steps=steps, hull=hull, r=r_boxes, s=s_boxes, shift=shift,
                    lo=lo, hi=hi, coarse=coarse, fine=fine, probes=probes)

    def op(self, case):
        st = Stride(case["steps"])
        t0 = time.perf_counter_ns()
        r = BBoxSet.from_bboxes(case["r"], stride=st)
        s = BBoxSet.from_bboxes(case["s"], stride=st)
        a = PointSet.from_bboxes(case["r"], stride=st)
        b = PointSet.from_bboxes(case["s"], stride=st)
        pairs = {"r": (r, a), "s": (s, b)}
        for name in SET_OPS:
            pairs[name] = (r.apply(name, s), a.op(name, b))
        pairs["xor_merge"] = (r ^ s, a.symmetric_difference(b))
        pairs["shift"] = (r.shift(case["shift"]), a.shift(case["shift"]))
        pairs["expand"] = (r.expand(case["lo"], case["hi"]), a.expand(case["lo"], case["hi"]))
        pairs["coarsen"] = (r.coarsen(case["coarse"]), a.coarsen(case["coarse"]))
        pairs["refine"] = (r.refine(case["fine"]), a.refine(case["fine"]))
        disagree = [k for k, (t, o) in pairs.items() if oracle.oracle_from_bboxset(t).points != o.points]
        probes = [(r.contains(p), a.contains(p)) for p in case["probes"]]
        normal = r.to_bboxes()
        elapsed = time.perf_counter_ns() - t0
        return dict(pairs=pairs, disagree=disagree, probes=probes, normal=normal), elapsed

    def check(self, case, out) -> None:
        require(not out["disagree"], f"setops-fuzz: tree and oracle disagree on {out['disagree']}")
        dim, steps = case["dim"], case["steps"]
        w = Window((-FUZZ_MARGIN,) * dim, tuple(e + 2 * FUZZ_MARGIN for e in case["hull"]))
        expect = fuzz_reference(w, case)
        for key, g in expect.items():
            tree, orc = out["pairs"][key]
            require(np.array_equal(w.tree_grid(tree), g), f"setops-fuzz dim {dim}: tree {key} differs from the dense grid")
            require(np.array_equal(w.from_points(orc.points), g), f"setops-fuzz dim {dim}: oracle {key} differs from the dense grid")
        check_boxes(w, out["normal"], expect["r"], f"setops-fuzz dim {dim}")
        for p, (got_t, got_o) in zip(case["probes"], out["probes"]):
            want = bool(expect["r"][tuple(c + FUZZ_MARGIN for c in p.coords)])
            require(got_t == want and got_o == want, f"setops-fuzz: contains{p.coords} tree {got_t} oracle {got_o} grid {want}")

    def finish(self) -> dict:
        return {}


def fuzz_reference(w: Window, case) -> dict[str, np.ndarray]:
    """Every fuzz result as a dense grid, from the case's boxes alone."""
    steps = case["steps"]
    r, s = w.paint(case["r"]), w.paint(case["s"])
    live = [b for b in case["r"] if not b.is_empty]
    anchor = tuple(l % st for l, st in zip(live[0].lower.coords, steps))
    shifted = np.zeros_like(r)
    src = tuple(slice(max(0, -d), n - max(0, d)) for d, n in zip(case["shift"].coords, w.shape))
    dst = tuple(slice(max(0, d), n - max(0, -d)) for d, n in zip(case["shift"].coords, w.shape))
    shifted[dst] = r[src]
    coarse_steps = tuple(st * f for st, f in zip(steps, case["coarse"].steps))
    return {
        "r": r, "s": s,
        "union": r | s, "intersection": r & s, "difference": r & ~s, "xor": r ^ s, "xor_merge": r ^ s,
        "shift": shifted,
        "expand": dilate(r, case["lo"].coords, case["hi"].coords, steps),
        "coarsen": r & w.lattice(anchor, coarse_steps),
        "refine": r,
    }

