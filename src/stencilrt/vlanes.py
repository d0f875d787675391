"""Lane-width-generic reference semantics for explicit vectorization.

Vectors and masks are immutable tuples of width W (a power of two, 1..16);
every operation is one named function that applies the host's scalar
double-precision arithmetic per lane, in lane order.  Operands, masks and
the arrays stores write to must share one width.  A loop written against
this API therefore produces bit-identical results to the equivalent scalar
loop, which is the property the test suite leans on.

Loads are never masked: arrays carry padding so reads slightly out of bounds
always succeed.  Only stores honour masks.  vfma is the unfused x*y + z (two
roundings), so results stay bit-reproducible; vfma_fused is the correctly
rounded fused form, within 1 ulp of it.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from .lattice import UsageError

MAX_WIDTH = 16


def check_width(w: int) -> int:
    if w < 1 or w > MAX_WIDTH or w & (w - 1):
        raise UsageError(f"lane width must be a power of two in 1..{MAX_WIDTH}: {w}")
    return w


@dataclass(frozen=True, slots=True)
class LaneVector:
    lanes: tuple[float, ...]

    @property
    def width(self) -> int:
        return len(self.lanes)

    def __getitem__(self, i: int) -> float:
        return self.lanes[i]


@dataclass(frozen=True, slots=True)
class LaneMask:
    active: tuple[bool, ...]

    @property
    def width(self) -> int:
        return len(self.active)

    def any(self) -> bool:
        return any(self.active)

    def all(self) -> bool:
        return all(self.active)


def vset1(s: float, width: int) -> LaneVector:
    return LaneVector((float(s),) * check_width(width))


def mask_full(width: int, value: bool = True) -> LaneMask:
    return LaneMask((value,) * check_width(width))


class AlignedArray:
    """A 1D double array whose element 0 is lane-aligned, padded at both ends.

    Logical indices run 0..length-1; reads and writes may additionally touch
    the padding range [-padding, length+padding).  Padding must be at least
    W-1 for offset loads to stay in bounds.
    """

    __slots__ = ("width", "length", "padding", "_buf")

    def __init__(self, length: int, width: int, padding: int | None = None, fill: float = 0.0):
        check_width(width)
        if padding is None:
            padding = width
        if length < 0:
            raise UsageError(f"array length must not be negative: {length}")
        if padding < width - 1:
            raise UsageError(f"padding {padding} < W-1 = {width - 1}")
        self.width = width
        self.length = length
        self.padding = padding
        self._buf = [float(fill)] * (length + 2 * padding)

    @classmethod
    def from_values(cls, values, width: int, padding: int | None = None) -> "AlignedArray":
        a = cls(len(values), width, padding)
        for i, v in enumerate(values):
            a[i] = float(v)
        return a

    def _at(self, i: int) -> int:
        j = i + self.padding
        if j < 0 or j >= len(self._buf):
            raise IndexError(f"index {i} outside data+padding of length-{self.length} array")
        return j

    def __getitem__(self, i: int) -> float:
        return self._buf[self._at(i)]

    def __setitem__(self, i: int, v: float) -> None:
        self._buf[self._at(i)] = float(v)

    def __len__(self) -> int:
        return self.length

    def to_list(self) -> list[float]:
        return self._buf[self.padding:self.padding + self.length]


def _same_width(x, y) -> None:
    """The one width rule: vectors, masks and arrays combine only at one width."""
    if x.width != y.width:
        raise UsageError(f"width mismatch: {x.width} vs {y.width}")


def _aligned(a: AlignedArray, i: int, what: str) -> None:
    if i % a.width != 0:
        raise UsageError(f"{what} at index {i} not a multiple of W={a.width}")


# -- memory access -----------------------------------------------------------

def vloadu(a: AlignedArray, j: int) -> LaneVector:
    """Unaligned load with unknown offset: a[j], ..., a[j+W-1]."""
    s = j + a.padding
    if s < 0 or s + a.width > len(a._buf):
        raise IndexError(f"lanes [{j}, {j + a.width}) outside data+padding of length-{a.length} array")
    return LaneVector(tuple(a._buf[s:s + a.width]))


def vload_aligned(a: AlignedArray, i: int) -> LaneVector:
    _aligned(a, i, "aligned load")
    return vloadu(a, i)


def vload_off(k: int, a: AlignedArray, j: int) -> LaneVector:
    """Load at a known small offset k from an aligned index (j - k aligned).

    Semantically an unaligned load; the offset is a performance hint only.
    """
    _aligned(a, j - k, "offset load base")
    return vloadu(a, j)


def vstore_partial(a: AlignedArray, i: int, v: LaneVector, m: LaneMask) -> None:
    """Write only lanes whose mask bit is set; other elements stay untouched."""
    _aligned(a, i, "store")
    _same_width(a, v)
    _same_width(a, m)
    for l, (x, on) in enumerate(zip(v.lanes, m.active)):
        if on:
            a[i + l] = x


def vstore_aligned(a: AlignedArray, i: int, v: LaneVector) -> None:
    vstore_partial(a, i, v, mask_full(a.width))


# Masked store with a non-temporal hint; the hint is a no-op here.
vstore_nta_partial = vstore_partial


# -- lane-wise operations -----------------------------------------------------
# Each operation runs one scalar function on every lane, in lane order; a
# comment names that function where the code does not.

def _binary(f: Callable[[float, float], object], out=LaneVector) -> Callable:
    """The operation that runs f on the lanes of two vectors of one width."""
    def op(x: LaneVector, y: LaneVector):
        _same_width(x, y)
        return out(tuple(map(f, x.lanes, y.lanes)))
    return op


def _unary(f: Callable[[float], object], out=LaneVector) -> Callable:
    """The operation that runs f on the lanes of one vector."""
    def op(x: LaneVector):
        return out(tuple(map(f, x.lanes)))
    return op


def _host(fn) -> Callable[..., float]:
    # numpy's float64 function; division by zero, overflow and domain errors
    # give IEEE inf or NaN lanes, never traps or warnings
    def apply(*xs: float) -> float:
        with np.errstate(all="ignore"):
            return float(fn(*map(np.float64, xs)))
    return apply


vadd = _binary(operator.add)                            # x + y
vsub = _binary(operator.sub)                            # x - y
vmul = _binary(operator.mul)                            # x * y
vdiv = _binary(_host(np.divide))                        # IEEE x / y
vmin = _binary(lambda x, y: y if y < x else x)          # x unless y < x
vmax = _binary(lambda x, y: y if y > x else x)          # x unless y > x
vcopysign = _binary(math.copysign)                      # |x| with y's sign

vcmplt = _binary(operator.lt, LaneMask)                 # x < y
vcmple = _binary(operator.le, LaneMask)                 # x <= y
vcmpgt = _binary(operator.gt, LaneMask)                 # x > y
vcmpge = _binary(operator.ge, LaneMask)                 # x >= y
vcmpeq = _binary(operator.eq, LaneMask)                 # x == y
vcmpne = _binary(operator.ne, LaneMask)                 # x != y

vsqrt = _unary(_host(np.sqrt))
vexp = _unary(_host(np.exp))
vlog = _unary(_host(np.log))
vsin = _unary(_host(np.sin))
vcos = _unary(_host(np.cos))
vfabs = _unary(math.fabs)
vsignbit = _unary(lambda x: math.copysign(1.0, x) < 0, LaneMask)
visnan = _unary(math.isnan, LaneMask)


def _fma_fused(x: float, y: float, z: float) -> float:
    # correctly rounded x*y+z: exact rational arithmetic, one final rounding
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        return x * y + z
    exact = Fraction(x) * Fraction(y) + Fraction(z)
    try:
        return float(exact)
    except OverflowError:  # rounds beyond the largest double
        return math.inf if exact > 0 else -math.inf


def vfma(x: LaneVector, y: LaneVector, z: LaneVector) -> LaneVector:
    """Lane-wise x*y + z, unfused (two roundings)."""
    _same_width(x, y)
    _same_width(x, z)
    return LaneVector(tuple(a * b + c for a, b, c in zip(x.lanes, y.lanes, z.lanes)))


def vfma_fused(x: LaneVector, y: LaneVector, z: LaneVector) -> LaneVector:
    """Lane-wise x*y + z, correctly rounded (one rounding)."""
    _same_width(x, y)
    _same_width(x, z)
    return LaneVector(tuple(map(_fma_fused, x.lanes, y.lanes, z.lanes)))


def ifthen(m: LaneMask, t: LaneVector, e: LaneVector) -> LaneVector:
    """Lane select, no shortcut semantics: both branches already evaluated."""
    _same_width(t, e)
    _same_width(m, t)
    return LaneVector(tuple(tv if mv else ev for mv, tv, ev in zip(m.active, t.lanes, e.lanes)))


# -- iteration ----------------------------------------------------------------

def iterate_masked(imin: int, imax: int, width: int) -> Iterator[tuple[int, LaneMask]]:
    """Vector loop bounds: i runs over multiples of W covering [imin, imax).

    i starts at floor(imin/W)*W (below imin if needed) and steps by W while
    i < imax; the mask activates exactly the lanes l with imin <= i+l < imax.
    Every index in [imin, imax) is covered by exactly one active lane.
    """
    check_width(width)
    if imin > imax:
        raise UsageError(f"iteration bounds inverted: [{imin}, {imax})")
    if imin == imax:
        return
    i = (imin // width) * width
    while i < imax:
        yield i, LaneMask(tuple(imin <= i + l < imax for l in range(width)))
        i += width


# -- reference stencil kernels -------------------------------------------------

def forward_difference(dst: AlignedArray, src: AlignedArray, n: int) -> None:
    """dst[i] = src[i+1] - src[i] for 0 <= i < n-1, vector-width generic."""
    if n < 2:
        return
    for i, m in iterate_masked(0, n - 1, src.width):
        bi = vload_aligned(src, i)
        bip = vload_off(+1, src, i + 1)
        vstore_partial(dst, i, vsub(bip, bi), m)


def centered_difference(dst: AlignedArray, src: AlignedArray, n: int) -> None:
    """dst[i] = 0.5 * (src[i+1] - src[i-1]) for 1 <= i < n-1."""
    if n < 3:
        return
    half = vset1(0.5, src.width)
    for i, m in iterate_masked(1, n - 1, src.width):
        bim = vload_off(-1, src, i - 1)
        bip = vload_off(+1, src, i + 1)
        vstore_nta_partial(dst, i, vmul(half, vsub(bip, bim)), m)
