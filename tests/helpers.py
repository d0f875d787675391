"""Shared generators for randomized set-algebra tests."""

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
