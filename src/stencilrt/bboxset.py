"""Sets of lattice points stored as nested discrete derivatives.

A d-dimensional set is represented by its discrete derivative along the last
axis: an ordered map from a coordinate n to the (d-1)-dimensional set that
toggles membership AT n (membership for coordinates >= n flips).  Each toggle
slice is itself stored the same way, down to dimension 1, where a slice is
the sorted tuple of its toggle coordinates: a point x is a member when an odd
number of them are <= x.  The derivative of a union of a few rectangles is
sparse (a box keeps only its 2^d corners), which is what makes the whole
algebra cheap.

Internally a node is a tuple: at dimension 1 the strictly increasing toggle
coordinates (k0, k1, ...), so its runs are [k0, k1), [k2, k3), ...; above,
(coordinate, child-node) pairs with strictly increasing coordinates and no
empty children.  The empty tuple is the empty node at every dimension, so
``not node`` tests emptiness.

Operations linear over xor (shift, refine, coarsen, symmetric difference,
intersection with one box) are structural passes over the toggles.  Union
and intersection run the sweep: advance over the merged toggle coordinates
of both operands, reconstruct the running operand slices by
xor-accumulation, and store each change of the result as computed from
that coordinate's operand toggles against the other operand's slice, never
from the whole result slice.  Difference reuses the pair's intersection M,
as A - B = A ^ M is a structural merge.  The process remembers the last
pair's M, keyed by both operands' roots (the computed table of BDD
packages; Brace, Rudell & Bryant, DAC 1990), so a pair's intersection and
both differences sweep once; one entry bounds what it keeps alive to one
pair and one meet.  Against one box the meet is a clip (_clip), never
remembered: the long-lived box of a domain would keep the last set it
clipped alive.
Expand is one union of grown runs: each run's slice is dilated and its span
grown, and a balanced pairwise union merges the overlapping pieces.

Trees at rest keep their dimension-1 slices as sorted tuples.  A pass (one
union, intersection or difference, one expand, one pairwise union of a box
list) converts its operands' dimension-1 tuples once on entry into Python
int bitsets, and its result once back on exit.  Bit i of a bitset stands
for the interval from the pass's i-th to its (i+1)-th distinct dimension-1
key, so a bitset has as many bits as the pass has keys, whatever their span
(a bit per coordinate from the least key would make a union of two small
sets far apart cost in proportion to their distance).  Inside the pass a
running slice is run ^ d and a change is d & run or d & ~run, word-parallel
where the tuples were merged key by key (as Roaring bitmaps do for dense
ranges; Chambi et al., Softw. Pract. Exper. 2016).  Past the last key of
the operand that ends first, a union, intersection or difference only
appends the other's toggles, so those stay tuples and are not converted.
Expand maps its input's keys to the grown keys k - lo*s and k + hi*s and
dilates each slice run by run.  A box operand is clipped, not swept, since
against a box a pass's conversions outweigh its sweep.  CHANGES.md and the
BENCH_*.json files hold the timings behind these choices.

``from_bboxes`` builds its tree in one event sweep over the boxes' bounds
along the last axis: at each bound the slice is the union of the active
boxes' projections, built by the same sweep one axis down, and a change is
stored where the slice changed (the union of a box list is Klee's measure
problem; van Leeuwen & Wood, J. Algorithms 1981).  An event costs about its
active count, so where that summed count passes n log2 n (boxes active at
most events, as in staggered slabs) the boxes are unioned pairwise instead.

From dimension 3 up, ``from_bboxes`` and ``expand`` lift the pass form one
dimension: a dimension-2 slice is one int plane, whose bit r*nx + c stands
for the cell [ys[r], ys[r+1]) x [xs[c], xs[c+1]) of the pass's sorted keys
on axes 1 and 0.  A rectangle is a row bitset times a repunit of its rows
(_painter), a union is |, and _plane_node reads a plane back into its
canonical node.  The 3-D sweep of ``from_bboxes`` ORs the active boxes'
rectangles; ``expand`` paints each row run's dilated bitset across its
grown rows.  A plane has len(ys) * len(xs) bits whatever the set holds, and
each corner is read out in Python, so _plane_fits weighs the plane bits
against the row route's work and keeps sparse, wide inputs on rows (such
as one-point boxes on a diagonal, whose planes hold far more bits than
their rows hold keys), as well as boxes that each stay active at one bound
only.  Union, intersection and difference stay on rows.

Queries read a runs table that each set builds once, on first use, and keeps
for its lifetime: for every node, the sorted run starts, the run stops and the
tables of the run slices.  ``contains`` bisects down it, ``to_bboxes`` reads
the corners from it, and ``point_count`` sums the boxes ``to_bboxes`` returns.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import accumulate, pairwise
from operator import add, itemgetter, mod, or_, sub, xor as _xor
from typing import Callable, Iterable, Iterator

from .lattice import (SET_OPS, BBox, Point, Stride, check_boxes, check_dims, check_expand, check_op, check_operands,
                      check_refine, format_bbox, parse_bbox)

UNION, INTERSECTION, DIFFERENCE, XOR = SET_OPS

# (op for an A toggle against B's slice, op for a B toggle against A's): the
# points of the toggle where the result flips with that operand's membership
_DELTA_OPS = {
    UNION: (DIFFERENCE, DIFFERENCE),
    INTERSECTION: (INTERSECTION, INTERSECTION),
    DIFFERENCE: (DIFFERENCE, INTERSECTION),
}

_Node = tuple  # (k0, k1, ...) at dim 1, ((int, _Node), ...) above
# (starts, stops, child tables) at dim >= 2; the node itself at dim 1
_Table = tuple
# The last intersection swept for a pair of operands, neither one box:
# (root, root, meet root), one entry for the whole process, replaced whole
_MEET: tuple[_Node, _Node, _Node] | None = None


def _xor_1d(a: _Node, b: _Node) -> _Node:
    """Merge of two coordinate tuples in which equal keys cancel."""
    if not a:
        return b
    if not b:
        return a
    out = []
    ia, ib, na, nb = 0, 0, len(a), len(b)
    while ia < na and ib < nb:
        ka = a[ia]
        kb = b[ib]
        if ka < kb:
            out.append(ka)
            ia += 1
        elif kb < ka:
            out.append(kb)
            ib += 1
        else:
            ia += 1
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return tuple(out)


def _xor_nodes(a: _Node, b: _Node, dim: int, leaf=_xor_1d) -> _Node:
    """Structural merge: symmetric difference applied directly to derivatives
    (leaf xors two dimension-1 slices: _xor_1d at rest, ^ in a pass)."""
    if dim == 1:
        return leaf(a, b)
    if not a:
        return b
    if not b:
        return a
    out = []
    ia, ib, na, nb = 0, 0, len(a), len(b)
    while ia < na and ib < nb:
        ka, ca = a[ia]
        kb, cb = b[ib]
        if ka < kb:
            out.append(a[ia])
            ia += 1
        elif kb < ka:
            out.append(b[ib])
            ib += 1
        else:
            # canonical children cancel exactly when equal, and == runs in C
            if ca != cb:
                out.append((ka, leaf(ca, cb) if dim == 2 else _xor_nodes(ca, cb, dim - 1, leaf)))
            ia += 1
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return tuple(out)


def _tail(op: str, a: _Node, b: _Node) -> _Node:
    """A op B where A or B is empty: the other's toggles, A's, or none."""
    return a + b if op == UNION else a if op == DIFFERENCE else ()


# -- passes: dimension-1 slices as bitsets over the pass's own keys -----------


def _slices(nodes: Iterable[_Node], dim: int, level: int = 1) -> list[_Node]:
    """The dimension-level slices of some trees."""
    for _ in range(dim - level):
        nodes = [c for node in nodes for _, c in node]
    return nodes


def _leaf_keys(nodes: Iterable[_Node], dim: int) -> set[int]:
    """The distinct dimension-1 keys of some trees."""
    return {k for node in _slices(nodes, dim) for k in node}


def _ranks(keys: list[int]) -> dict[int, int]:
    """The bit of each of a pass's sorted keys: bit i stands for the
    elementary interval [keys[i], keys[i + 1]), so a bitset has as many bits
    as the pass has keys, whatever their span."""
    return {k: 1 << i for i, k in enumerate(keys)}


def _into(keys: list[int]) -> Callable[[_Node], int]:
    """Coordinate tuple -> bitset over the sorted keys (see _ranks)."""
    bit = _ranks(keys)

    def mask(node: _Node) -> int:
        m = 0
        it = iter(node)
        for k0 in it:
            m += bit[next(it)] - bit[k0]
        return m

    return mask


def _back(keys: list[int]) -> Callable[[int], _Node]:
    """Bitset -> coordinate tuple: the keys at which its bit changes."""
    return lambda m: tuple(map(keys.__getitem__, _set_bits(m ^ (m << 1))))


def _convert(node: _Node, dim: int, leaf: Callable) -> _Node:
    """The tree with each dimension-1 slice s replaced by leaf(s): into a
    pass form (_into) or back out of one (_back)."""
    if dim == 1:
        return leaf(node)
    if dim == 2:
        return tuple([(k, leaf(c)) for k, c in node])
    d1 = dim - 1
    return tuple([(k, _convert(c, d1, leaf)) for k, c in node])


def _set_bits(x: int) -> list[int]:
    """Indices of the set bits of x >= 0, lowest first."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


# -- planes: dimension-2 slices as 2-D bitmaps over the pass's own keys -------


def _plane_fits(cost: int, work: int) -> bool:
    """Whether a pass pays for planes: cost counts the plane bits it would
    build or read, work the row route's steps that planes can save.  Planes
    pay while they come to at most 32 words a step, and tiny ones always do."""
    return cost <= 2048 * work + (1 << 16)


def _painter(ys: list[int], nx: int) -> Callable[[int, int, int], int]:
    """paint(y0, y1, row): the plane holding the row bitset in every row from
    key y0 to key y1.  Row r of a plane stands for [ys[r], ys[r + 1]), its
    bit r*nx + c for that row's part of the row bitsets' bit c."""
    at = {k: r * nx for r, k in enumerate(ys)}
    top = len(ys) * nx
    ones = ((1 << top) - 1) // ((1 << nx) - 1)  # bit 0 of every row
    return lambda y0, y1, row: row * (ones >> top - at[y1] + at[y0]) << at[y0]


def _plane_node(m: int, ys: list[int], xs: list[int]) -> _Node:
    """The canonical dimension-2 node of a plane over the keys ys and xs: its
    leaves are the corner bits m ^ m<<1 ^ m<<nx ^ m<<(nx+1), read lowest
    first, bit r*nx + c standing for the leaf (xs[c], ys[r])."""
    nx = len(xs)
    d = m ^ (m << nx)
    corners = bin(d ^ (d << 1))
    top = len(corners) - 1  # the string index of bit 0
    out, r0 = [], -1
    i = corners.rfind("1")
    while i > 1:
        r, c = divmod(top - i, nx)
        if r != r0:
            r0, row = r, []
            out.append((ys[r], row))
        row.append(xs[c])
        i = corners.rfind("1", 0, i)
    return tuple([(k, tuple(row)) for k, row in out])


def _sweep(op: str, a: _Node, b: _Node, dim: int) -> _Node:
    """The sweep on pass forms: T := A (op) B by scanning merged toggle
    coordinates.

    Each stored change comes from the toggles alone: A toggling by dA with
    B's slice fixed changes T by dA & (f(1,B) ^ f(0,B)), and B toggling by dB
    against the updated A likewise (_DELTA_OPS).  Once either operand is
    spent its running slice is empty, so T follows the other one's toggles.
    Dimension-1 slices are bitsets, so at dimension 2 a running slice is
    run ^ d and a change is d & run or d & ~run (d & (run ^ -1)), written in
    the loop in place of the calls one level down."""
    if dim == 1:
        return a | b if op == UNION else a & (b ^ -(op == DIFFERENCE))
    if not a or not b:
        return _tail(op, a, b)
    op_a, op_b = _DELTA_OPS[op]
    out = []
    ia, ib, na, nb = 0, 0, len(a), len(b)
    d1 = dim - 1
    bits = d1 == 1  # the slices are bitsets: int operators, not calls
    flip_a, flip_b = -(op_a == DIFFERENCE), -(op_b == DIFFERENCE)
    empty, merge = (0, _xor) if bits else ((), partial(_xor_nodes, dim=d1, leaf=_xor))
    run_a = run_b = empty
    while ia < na and ib < nb:
        ka, da = a[ia]
        kb, db = b[ib]
        delta = empty
        if ka <= kb:
            delta = da & (run_b ^ flip_a) if bits else _sweep(op_a, da, run_b, d1)
            ia += 1
            # the last toggle empties the running slice: no need to xor it out
            run_a = merge(run_a, da) if ia < na else empty
        if kb <= ka:
            delta = merge(delta, db & (run_a ^ flip_b) if bits else _sweep(op_b, db, run_a, d1))
            ib += 1
            run_b = merge(run_b, db) if ib < nb else empty
        if delta:
            out.append((ka if ka < kb else kb, delta))
    return tuple(out) + _tail(op, a[ia:], b[ib:])


def _unite(nodes: list[_Node], dim: int) -> _Node:
    """Balanced pairwise union of one or more pass forms, near O(n log n) for n boxes."""
    while len(nodes) > 1:
        merged = [_sweep(UNION, nodes[i], nodes[i + 1], dim) for i in range(0, len(nodes) - 1, 2)]
        if len(nodes) % 2:
            merged.append(nodes[-1])
        nodes = merged
    return nodes[0]


def _apply_trees(op: str, a: _Node, b: _Node, dim: int) -> _Node:
    """A op B for union, intersection or difference, in one pass.  Past the
    last key of the operand that ends first, the sweep only appends the
    other's toggles (_tail), so above dimension 1 those stay tuples: the pass
    converts the operand that ends later only up to its first key past that
    last key (the sweep reads that operand's slice after each key up to it)."""
    if not a or not b:
        return _tail(op, a, b)
    tail = ()
    if dim > 1:
        end_a, end_b = a[-1][0], b[-1][0]
        a, rest_a = _cut(a, end_b)
        b, rest_b = _cut(b, end_a)
        tail = _tail(op, rest_a, rest_b)
    keys = sorted(_leaf_keys((a, b), dim))
    into = _into(keys)
    return _convert(_sweep(op, _convert(a, dim, into), _convert(b, dim, into), dim), dim, _back(keys)) + tail


def _cut(node: _Node, end: int) -> tuple[_Node, _Node]:
    """A node above dimension 1 split after its first key past end."""
    i = bisect_right(node, end, key=itemgetter(0)) + 1
    return node[:i], node[i:]


def _box_spans(node: _Node, dim: int) -> list[tuple[int, int]] | None:
    """The per-axis [lo, hi) spans of a node that is one box, else None.  A
    canonical node of two toggles has equal children (their xor is empty),
    so it is a box when every level down its first child has two entries."""
    spans = []
    while dim > 1:
        if len(node) != 2:
            return None
        (lo, node), (hi, _) = node
        spans.append((lo, hi))
        dim -= 1
    if len(node) != 2:
        return None
    spans.append(node)
    return spans[::-1]


def _box_meet(a: _Node, b: _Node, dim: int) -> _Node | None:
    """A & B by a clip when either operand is one box, else None."""
    for node, box in ((a, b), (b, a)):
        spans = _box_spans(box, dim)
        if spans:
            return _clip(node, dim, spans)
    return None


def _clip(node: _Node, dim: int, box: list[tuple[int, int]]) -> _Node:
    """node & box for the box's per-axis [lo, hi) spans, as a structural pass
    (intersection with a fixed set is linear over xor).  Each toggle is
    clipped on its own, and those at or below lo fold into one toggle at lo.
    Where keys lie past hi, the slice left open there is the xor of the kept
    clipped toggles (a bounded set's toggles xor to nothing), and a toggle
    at hi closes it; toggles past hi are never read."""
    lo, hi = box[dim - 1]
    if dim == 1:
        i = bisect_right(node, lo)
        j = bisect_left(node, hi, i)
        return (lo,) * (i & 1) + node[i:j] + (hi,) * (j & 1)
    d1 = dim - 1
    key = itemgetter(0)
    i = bisect_right(node, lo, key=key)
    j = bisect_left(node, hi, i, key=key)
    merge = partial(_xor_nodes, dim=d1)
    fold = reduce(merge, [_clip(child, d1, box) for _, child in node[:i]], ())
    out = [(lo, fold)] if fold else []
    for k, child in node[i:j]:
        child = _clip(child, d1, box)
        if child:
            out.append((k, child))
    if j < len(node):
        close = reduce(merge, [c for _, c in out], ())
        if close:
            out.append((hi, close))
    return tuple(out)


def _union_all(nodes: list[_Node], dim: int) -> _Node:
    """Balanced pairwise union of one or more trees, in one pass."""
    keys = sorted(_leaf_keys(nodes, dim))
    into = _into(keys)
    return _convert(_unite([_convert(node, dim, into) for node in nodes], dim), dim, _back(keys))


def _shift_node(node: _Node, dim: int, v: tuple[int, ...]) -> _Node:
    dv = v[dim - 1]
    if dim == 1:
        return tuple(k + dv for k in node)
    d1 = dim - 1
    return tuple((k + dv, _shift_node(c, d1, v)) for k, c in node)


def _leaf_count(node: _Node, dim: int) -> int:
    if dim == 1:
        return len(node)
    return sum(_leaf_count(c, dim - 1) for _, c in node)


def _leaf_points(node: _Node, dim: int) -> list[tuple[int, ...]]:
    if dim == 1:
        return [(k,) for k in node]
    return [prefix + (k,) for k, child in node for prefix in _leaf_points(child, dim - 1)]


def _runs(node: _Node, dim: int, leaf=_xor_1d) -> Iterator[tuple[int, int, _Node]]:
    """Yield (start, stop, slice) for each non-empty slice along the last
    axis of a node above dimension 1 (at dimension 1 the runs are the key
    pairs, zip(node[0::2], node[1::2])); leaf as for _xor_nodes."""
    d1 = dim - 1
    run = None
    # the last toggle closes the last run and empties the slice
    for (start, child), (stop, _) in pairwise(node):
        run = child if run is None else _xor_nodes(run, child, d1, leaf)
        if run:
            yield start, stop, run


def _refine_node(node: _Node, dim: int, old_steps: tuple[int, ...], new_steps: tuple[int, ...]) -> _Node:
    """Re-encode the same membership on a finer stride: each run's slice is
    refined, and each position k, k+s, ... of a run on a stride that changes
    becomes its own on/off toggle pair sharing that refined slice."""
    d1 = dim - 1
    so, sn = old_steps[d1], new_steps[d1]
    if dim == 1:
        if so == sn:
            return node
        return tuple(k for start, stop in zip(node[0::2], node[1::2])
                     for p in range(start, stop, so) for k in (p, p + sn))
    if so == sn:
        return tuple((k, _refine_node(c, d1, old_steps, new_steps)) for k, c in node)
    out = []
    for start, stop, run in _runs(node, dim):
        fine = _refine_node(run, d1, old_steps, new_steps)
        for p in range(start, stop, so):
            out.append((p, fine))
            out.append((p + sn, fine))
    return tuple(out)


def _coarsen_node(node: _Node, dim: int, offset: tuple[int, ...], new_steps: tuple[int, ...]) -> _Node:
    """Restrict to the coarse lattice through offset: each toggle key moves up
    to the next coarse coordinate, which keeps membership at every coarse
    point since k <= n iff the moved key is; toggles that collide merge by
    xor (at dimension 1 they cancel)."""
    d1 = dim - 1
    o, ns = offset[d1], new_steps[d1]
    out = []
    if dim == 1:
        for k in node:
            k += (o - k) % ns
            if out and out[-1] == k:
                out.pop()
            else:
                out.append(k)
        return tuple(out)
    for k, child in node:
        k += (o - k) % ns
        c = _coarsen_node(child, d1, offset, new_steps)
        if out and out[-1][0] == k:
            c = _xor_nodes(out.pop()[1], c, d1)
        if c:
            out.append((k, c))
    return tuple(out)


def _expand_node(node: _Node, dim: int, lo: tuple[int, ...], hi: tuple[int, ...], steps: tuple[int, ...]) -> _Node:
    """Dilate by lo/hi steps, in one pass: the input's slices are bitsets over
    its own keys, and the result's over the grown keys k - lo*s and k + hi*s,
    so a run [k0, k1) dilates to the bits from k0 - lo*s to k1 + hi*s.  From
    dimension 3 up, where the plane fits, dimension-2 slices grow as planes."""
    if not node:
        return ()
    level1 = _slices((node,), dim)
    keys = sorted({k for c in level1 for k in c})
    down, up = lo[0] * steps[0], hi[0] * steps[0]
    grown = sorted({k - down for k in keys} | {k + up for k in keys})
    bit = _ranks(grown)
    lows = [bit[k - down] for k in keys]
    highs = [bit[k + up] for k in keys]

    memo = {}

    def dilate(m: int) -> int:
        out = memo.get(m)
        if out is None:
            ends = _set_bits(m ^ (m << 1))
            out = 0
            for i in range(0, len(ends), 2):
                out |= highs[ends[i + 1]] - lows[ends[i]]
            memo[m] = out
        return out

    tree = _convert(node, dim, _into(keys))
    if dim > 2:
        down, up = lo[1] * steps[1], hi[1] * steps[1]
        level2 = _slices((node,), dim, 2)
        ys = {k for c in level2 for k, _ in c}
        rows = {k - down for k in ys} | {k + up for k in ys}
        nx = len(grown)
        # a plane per dimension-2 slice of the input, against its leaves
        if _plane_fits(len(rows) * nx * len(level2), sum(map(len, level1))):
            rows = sorted(rows)
            planes = _grow(tree, dim, lo, hi, steps, dilate, _painter(rows, nx))
            return _convert(planes, dim - 1, lambda m: _plane_node(m, rows, grown))
    return _convert(_grow(tree, dim, lo, hi, steps, dilate), dim, _back(grown))


def _grow(node: _Node, dim: int, lo: tuple[int, ...], hi: tuple[int, ...], steps: tuple[int, ...],
          dilate: Callable[[int], int], paint: Callable[[int, int, int], int] | None = None) -> _Node:
    """Expand on a pass form: each run's slice is dilated and its span grown
    to [start - lo*s, stop + hi*s); the union of the grown runs merges them.
    With paint, a dimension-2 slice grows into a plane, each row run's
    dilated bitset painted across its grown rows, and the grown runs above
    are unioned as trees of planes."""
    if dim == 1:
        return dilate(node)
    d1 = dim - 1
    down, up = lo[d1] * steps[d1], hi[d1] * steps[d1]
    if paint and dim == 2:
        plane = 0
        for start, stop, run in _runs(node, 2, _xor):
            plane |= paint(start - down, stop + up, dilate(run))
        return plane
    grown = []
    for start, stop, run in _runs(node, dim, _xor):
        run = _grow(run, d1, lo, hi, steps, dilate, paint)
        grown.append(((start - down, run), (stop + up, run)))
    # a tree of planes is a pass form one dimension lower
    return _unite(grown, d1 if paint else dim)


def _union_boxes(boxes: list[tuple[tuple[int, int], ...]], dim: int) -> _Node:
    """The union of boxes given as per-axis [lo, hi) intervals, by one event
    sweep along the last axis (see the module docstring).  The sweep runs
    while the active counts summed over the events, counted box by box, stay
    within n log2 n; past that (boxes active at most events, where it would
    cost up to n^2) _union_all unions the single-box trees pairwise.  At
    dimension 3 the slices are planes where _plane_fits says they pay."""
    if dim == 1:
        return _merge_intervals([b[0] for b in boxes])
    n, d1 = len(boxes), dim - 1
    if n == 1:
        return _box_node(boxes[0], dim)
    spans = [b[d1] for b in boxes]
    keys = sorted({k for span in spans for k in span})
    at = {k: j for j, k in enumerate(keys)}
    starts = [[] for _ in keys]
    cap = budget = n * n.bit_length()
    for b, (lo, hi) in zip(boxes, spans):
        j = at[lo]
        starts[j].append(b)
        budget -= at[hi] - j
        if budget < 0:
            return _union_all([_box_node(b, dim) for b in boxes], dim)
    # planes read a plane per bound and keep a rectangle per active box; they
    # save the active counts past 1.5 per box, as painting a box and reading
    # out its corners cost about that many row steps (the bounds, a lower
    # bound of the cost, are checked first, as the other counts take time)
    work = cap - budget - 3 * n // 2
    if dim == 3 and _plane_fits(len(keys), work):
        xs = {k for b in boxes for k in b[0]}
        ys = {k for b in boxes for k in b[1]}
        stops = Counter(at[hi] for _, hi in spans)
        peak = max(accumulate(len(new) - stops[j] for j, new in enumerate(starts)))
        if _plane_fits(len(ys) * len(xs) * (len(keys) + peak), work):
            return _union_rects(keys, starts, sorted(ys), sorted(xs))
    active, out, prev = [], [], ()
    for k, new in zip(keys, starts):
        active = [b for b in active if b[d1][1] > k]
        active += new
        cur = _union_boxes(active, d1) if active else ()
        if cur != prev:
            out.append((k, _xor_nodes(prev, cur, d1)))
            prev = cur
    return tuple(out)


def _union_rects(keys: list[int], starts: list[list], ys: list[int], xs: list[int]) -> _Node:
    """The 3-D sweep of _union_boxes on planes over the boxes' keys ys and xs:
    the slice at a bound is the OR of the active boxes' rectangles, each
    painted once, and each change is read out once, from prev ^ cur."""
    bit, paint = _ranks(xs), _painter(ys, len(xs))
    active, out, prev = [], [], 0
    for k, new in zip(keys, starts):
        active = [a for a in active if a[0] > k]
        active += [(b[2][1], paint(*b[1], bit[b[0][1]] - bit[b[0][0]])) for b in new]
        cur = reduce(or_, [rect for _, rect in active], 0)
        if cur != prev:
            out.append((k, _plane_node(prev ^ cur, ys, xs)))
            prev = cur
    return tuple(out)


def _merge_intervals(intervals: list[tuple[int, int]]) -> _Node:
    """The dimension-1 node of a union of [lo, hi) intervals."""
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1]:
            if hi > out[-1]:
                out[-1] = hi
        else:
            out.append(lo)
            out.append(hi)
    return tuple(out)


def _box_node(box: tuple[tuple[int, int], ...], dim: int) -> _Node:
    """Derivative tree of a single box: toggle on at lower, off at upper."""
    lo, hi = box[dim - 1]
    if dim == 1:
        return (lo, hi)
    child = _box_node(box, dim - 1)
    return ((lo, child), (hi, child))


def _build_table(node: _Node, dim: int) -> _Table:
    """The runs table of a node: one walk of its runs, all the way down."""
    if dim == 1:
        return node
    starts, stops, kids = [], [], []
    for start, stop, run in _runs(node, dim):
        starts.append(start)
        stops.append(stop)
        kids.append(_build_table(run, dim - 1))
    return tuple(starts), tuple(stops), tuple(kids)


def _table_contains(table: _Table, dim: int, p: tuple[int, ...]) -> bool:
    """Bisect down the runs that hold p's coordinates, last axis first."""
    while dim > 1:
        starts, stops, kids = table
        x = p[dim - 1]
        i = bisect_right(starts, x) - 1
        if i < 0 or x >= stops[i]:
            return False
        table = kids[i]
        dim -= 1
    return bisect_right(table, p[0]) & 1 == 1


def _table_corners(table: _Table, dim: int, steps: tuple[int, ...], lo: tuple[int, ...] = (),
                   up: tuple[int, ...] = (), out: list | None = None) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Canonical normalization: (lower, upper) corner pairs, disjoint and exact.

    Each maximal run of coordinates with a constant non-empty slice extrudes
    that slice's own normalized boxes.  Runs end exactly at stored toggles, so
    no further merging is possible.  The coordinates of the enclosing runs
    come down as the corners' tails lo and up, so each corner is built once,
    into out.
    """
    if out is None:
        out = []
    s = steps[dim - 1]
    if dim == 1:
        out += [((start,) + lo, (stop - s,) + up) for start, stop in zip(table[0::2], table[1::2])]
        return out
    for start, stop, kid in zip(*table):
        _table_corners(kid, dim - 1, steps, (start,) + lo, (stop - s,) + up, out)
    return out


@dataclass(frozen=True, slots=True)
class BBoxSet:
    """An immutable set of lattice points on one sub-lattice.

    All operations are pure functions returning new sets; values are safe to
    share between threads.  Binary operations require compatible operands:
    same dimension, same stride, and same sub-lattice anchor (the anchor of
    an empty set is a wildcard).  The runs table is assigned once, fully
    built, so a thread sees either none or all of it.  The remembered
    intersection (_MEET) is replaced whole, so a thread reads the old entry
    or the new one, and a hit needs both operands' very roots.
    """

    dim: int
    stride: Stride
    offset: Point
    root: _Node = field(repr=False)
    _table: _Table | None = field(default=None, init=False, repr=False, compare=False)

    # -- construction ------------------------------------------------------

    @staticmethod
    def empty(dim: int, stride: Stride | None = None) -> "BBoxSet":
        return BBoxSet.from_bboxes((), dim, stride)

    @staticmethod
    def from_bboxes(boxes: Iterable[BBox], dim: int | None = None, stride: Stride | None = None) -> "BBoxSet":
        """Union of the given boxes (overlap allowed), as lattice.check_boxes admits them."""
        live, dim, stride, anchor = check_boxes(boxes, dim, stride)
        steps = stride.steps
        spans = [tuple(zip(b.lower.coords, map(add, b.upper.coords, steps))) for b in live]
        root = _union_boxes(spans, dim) if live else ()
        return _wrap(dim, stride, anchor, root)

    @staticmethod
    def from_text(text: str, dim: int | None = None, stride: Stride | None = None) -> "BBoxSet":
        boxes = [parse_bbox(line) for line in text.splitlines() if line.strip()]
        return BBoxSet.from_bboxes(boxes, dim=dim, stride=stride)

    # -- queries -----------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.root

    def _runs_table(self) -> _Table:
        table = self._table
        if table is None:
            table = _build_table(self.root, self.dim)
            object.__setattr__(self, "_table", table)
        return table

    def contains(self, p: Point) -> bool:
        check_dims(self.dim, p)
        if any(map(mod, map(sub, p.coords, self.offset.coords), self.stride.steps)):
            return False  # off the set's sub-lattice
        return _table_contains(self._runs_table(), self.dim, p.coords)

    def to_bboxes(self) -> list[BBox]:
        """Canonical disjoint box decomposition, sorted by (lower, upper)."""
        corners = _table_corners(self._runs_table(), self.dim, self.stride.steps)
        corners.sort(key=itemgetter(0))  # disjoint boxes: no two share a lower corner
        box, point, stride = BBox._trusted, Point._trusted, self.stride
        return [box(point(lo), point(up), stride) for lo, up in corners]

    def to_text(self) -> str:
        return "\n".join(format_bbox(b) for b in self.to_bboxes())

    def point_count(self) -> int:
        return sum(b.point_count() for b in self.to_bboxes())

    def derivative_element_count(self) -> int:
        """Number of toggle leaves in the derivative tree (= |dR| as a point set)."""
        return _leaf_count(self.root, self.dim)

    def derivative_points(self) -> list[Point]:
        """Coordinates of the derivative leaves (test plumbing)."""
        return [Point(c) for c in _leaf_points(self.root, self.dim)]

    def equals(self, other: "BBoxSet") -> bool:
        check_operands(self, other)
        return not _xor_nodes(self.root, other.root, self.dim)

    # -- set algebra -------------------------------------------------------

    def apply(self, op: str, other: "BBoxSet") -> "BBoxSet":
        """Binary set operation.  Union runs the sweep; intersection and
        difference share the pair's intersection M, as A - B is A ^ M by the
        structural merge (as xor itself).  M is a clip where either operand
        is one box; otherwise the last pair's M is remembered, in either
        operand order."""
        global _MEET
        check_op(op)
        if op == XOR:
            return self.symmetric_difference(other)
        off = check_operands(self, other)
        a, b, dim = self.root, other.root, self.dim
        if op == UNION:
            return _wrap(dim, self.stride, off, _apply_trees(UNION, a, b, dim))
        meet = _box_meet(a, b, dim)
        if meet is None:
            last = _MEET
            if last is not None and (last[0] is a and last[1] is b or last[0] is b and last[1] is a):
                meet = last[2]
            else:
                meet = _apply_trees(INTERSECTION, a, b, dim)
                _MEET = (a, b, meet)
        if op == DIFFERENCE:
            meet = _xor_nodes(a, meet, dim)
        return _wrap(dim, self.stride, off, meet)

    def union(self, other: "BBoxSet") -> "BBoxSet":
        return self.apply(UNION, other)

    def intersection(self, other: "BBoxSet") -> "BBoxSet":
        return self.apply(INTERSECTION, other)

    def difference(self, other: "BBoxSet") -> "BBoxSet":
        return self.apply(DIFFERENCE, other)

    def symmetric_difference(self, other: "BBoxSet") -> "BBoxSet":
        """Fast xor: structural merge of the derivative trees, no sweep."""
        off = check_operands(self, other)
        return _wrap(self.dim, self.stride, off, _xor_nodes(self.root, other.root, self.dim))

    __or__ = union
    __and__ = intersection
    __sub__ = difference
    __xor__ = symmetric_difference

    def complement_within(self, hull: BBox) -> "BBoxSet":
        """Complement relative to an explicit hull box (unbounded complement is not representable)."""
        hull_set = BBoxSet.from_bboxes([hull], dim=self.dim, stride=self.stride)
        return hull_set.difference(self)

    # -- geometry ----------------------------------------------------------

    def shift(self, v: Point) -> "BBoxSet":
        check_dims(self.dim, v)
        off = Point(tuple((o + dv) % s for o, dv, s in zip(self.offset.coords, v.coords, self.stride.steps)))
        return _wrap(self.dim, self.stride, off, _shift_node(self.root, self.dim, v.coords))

    def expand(self, lo: Point, hi: Point) -> "BBoxSet":
        """Dilate by lo/hi stride steps per dimension (non-negative only)."""
        check_expand(self.dim, lo, hi)
        root = _expand_node(self.root, self.dim, lo.coords, hi.coords, self.stride.steps)
        return _wrap(self.dim, self.stride, self.offset, root)

    def coarsen(self, factor: Stride) -> "BBoxSet":
        """Keep only points on the coarser sub-lattice (stride * factor, same anchor)."""
        check_dims(self.dim, factor)
        new_steps = tuple(s * f for s, f in zip(self.stride.steps, factor.steps))
        # the anchor, below the old stride, is a coarse-lattice coordinate too
        root = _coarsen_node(self.root, self.dim, self.offset.coords, new_steps)
        return _wrap(self.dim, Stride(new_steps), self.offset, root)

    def refine(self, factor: Stride) -> "BBoxSet":
        """Make a finer lattice available: stride / factor, membership unchanged."""
        check_refine(self.stride, factor)
        new_steps = tuple(s // f for s, f in zip(self.stride.steps, factor.steps))
        off = Point(tuple(o % ns for o, ns in zip(self.offset.coords, new_steps)))
        root = _refine_node(self.root, self.dim, self.stride.steps, new_steps)
        return _wrap(self.dim, Stride(new_steps), off, root)


def _wrap(dim: int, stride: Stride, offset: Point, root: _Node) -> BBoxSet:
    if not root:
        return BBoxSet(dim, stride, Point.zero(dim), ())
    return BBoxSet(dim, stride, offset, root)
