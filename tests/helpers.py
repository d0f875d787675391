"""Shared generators for randomized set-algebra tests."""

from stencilrt.bboxset import _xor_nodes
from stencilrt.fuzz import random_boxes
from stencilrt.lattice import Stride


def make_operands(rng, dim, hull_extent=16, max_boxes=8, steps=None):
    """Two random box lists on one shared sub-lattice."""
    steps = steps or tuple(rng.choice((1, 1, 2)) for _ in range(dim))
    hull = (hull_extent,) * dim
    return (
        random_boxes(rng, hull, steps, rng.randint(0, max_boxes)),
        random_boxes(rng, hull, steps, rng.randint(0, max_boxes)),
        Stride(steps),
    )


def assert_canonical(node, dim):
    """The one canonical form of a derivative tree: keys strictly increase at
    every level, a dimension-1 tuple has even length, no child is empty, and
    the xor of each node's toggles is the empty slice."""
    if dim == 1:
        assert all(a < b for a, b in zip(node, node[1:])), f"keys not increasing: {node}"
        assert len(node) % 2 == 0, f"odd dimension-1 tuple: {node}"
        return
    keys = [k for k, _ in node]
    assert all(a < b for a, b in zip(keys, keys[1:])), f"keys not increasing: {keys}"
    total = ()
    for _, child in node:
        assert child, f"empty child in {node}"
        assert_canonical(child, dim - 1)
        total = _xor_nodes(total, child, dim - 1)
    assert total == (), f"toggles do not close: {node}"


BOOL_OPS = {
    "union": lambda a, b: a or b,
    "intersection": lambda a, b: a and b,
    "difference": lambda a, b: a and not b,
    "xor": lambda a, b: a is not b,
}


def reference_apply(op, a, b, dim):
    """Reference sweep: re-evaluate A op B on the whole running slices at every
    toggle coordinate and store the xor of the new result slice with the old."""
    if dim == 1:
        return reference_apply_1d(op, a, b)
    d1 = dim - 1
    run_a = run_b = result = ()
    out = []
    ia, ib, na, nb = 0, 0, len(a), len(b)
    while ia < na or ib < nb:
        if ib >= nb:
            n = a[ia][0]
        elif ia >= na:
            n = b[ib][0]
        else:
            n = min(a[ia][0], b[ib][0])
        if ia < na and a[ia][0] == n:
            run_a = _xor_nodes(run_a, a[ia][1], d1)
            ia += 1
        if ib < nb and b[ib][0] == n:
            run_b = _xor_nodes(run_b, b[ib][1], d1)
            ib += 1
        new_result = reference_apply(op, run_a, run_b, d1)
        delta = _xor_nodes(new_result, result, d1)
        result = new_result
        if delta:
            out.append((n, delta))
    return tuple(out)


def reference_apply_1d(op, a, b):
    """The same sweep on coordinate tuples, with a parity bit per operand."""
    f = BOOL_OPS[op]
    run_a = run_b = result = False
    out = []
    ia, ib, na, nb = 0, 0, len(a), len(b)
    while ia < na or ib < nb:
        if ib >= nb:
            n = a[ia]
        elif ia >= na:
            n = b[ib]
        else:
            n = min(a[ia], b[ib])
        if ia < na and a[ia] == n:
            run_a = not run_a
            ia += 1
        if ib < nb and b[ib] == n:
            run_b = not run_b
            ib += 1
        new_result = f(run_a, run_b)
        if new_result is not result:
            out.append(n)
            result = new_result
    return tuple(out)
