import pytest

import stencilrt.fuzz as fuzz
from helpers import assert_canonical
from stencilrt.bboxset import BBoxSet
from stencilrt.lattice import BBox


@pytest.fixture
def canonical_trees(monkeypatch):
    """Check the form of every tree the fuzz routines compare with the oracle."""
    seen = []
    to_oracle = fuzz.oracle_from_bboxset

    def checked(tree, cap):
        assert_canonical(tree.root, tree.dim)
        seen.append(tree)
        return to_oracle(tree, cap=cap)

    monkeypatch.setattr(fuzz, "oracle_from_bboxset", checked)
    return seen


def test_every_tree_check_case_builds_is_canonical(canonical_trees):
    for seed in range(160):
        dim = seed % 4 + 1
        del canonical_trees[:]
        assert fuzz.check_case(seed, dim, max_boxes=12, max_extent=12) is None
        # r and s, four ops, the xor merge, shift, expand, coarsen, refine
        assert len(canonical_trees) == 11


def test_regrid_chains_match_the_oracle(canonical_trees):
    for seed in range(200):
        assert fuzz.check_chain(seed, seed % 3 + 1, max_boxes=12, max_extent=24) is None
    assert len(canonical_trees) == 200 * len(fuzz.CHAIN_STEPS)
    assert sum(not t.is_empty() for t in canonical_trees[len(fuzz.CHAIN_STEPS) - 1::len(fuzz.CHAIN_STEPS)]) > 50


@pytest.mark.parametrize("step, method", zip(fuzz.CHAIN_STEPS[1:],
                                                ("expand", "intersection", "coarsen", "refine", "difference")))
def test_chain_names_the_first_step_that_differs(monkeypatch, step, method):
    """A method that drops one point of its result is caught at its own step
    of the chain, and no step before it is named."""
    right, minus = getattr(BBoxSet, method), BBoxSet.difference

    def drops_a_point(self, *args):
        out = right(self, *args)
        if out.is_empty():
            return out
        corner = out.to_bboxes()[0].lower
        return minus(out, BBoxSet.from_bboxes([BBox(corner, corner, out.stride)]))

    monkeypatch.setattr(BBoxSet, method, drops_a_point)
    messages = [fuzz.check_chain(seed, 2, max_boxes=12, max_extent=24) for seed in range(20)]
    from_here = tuple(f"mismatch in {s} (seed=" for s in fuzz.CHAIN_STEPS[fuzz.CHAIN_STEPS.index(step):])
    assert any(m and m.startswith(from_here[0]) for m in messages)
    assert all(m is None or m.startswith(from_here) for m in messages)
