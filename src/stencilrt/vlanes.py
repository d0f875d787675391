"""Lane-width-generic reference semantics for explicit vectorization.

Vectors and masks are immutable tuples of width W (a power of two, 1..16);
every operation applies the host's scalar double-precision arithmetic per
lane, in lane order.  A loop written against this API therefore produces
bit-identical results to the equivalent scalar loop, which is the property
the test suite leans on.

Loads are never masked: arrays carry padding so reads slightly out of bounds
always succeed.  Only stores honour masks.  vfma is the unfused x*y + z (two
roundings), so results stay bit-reproducible; vfma_fused is the correctly
rounded fused form, within 1 ulp of it.
"""
from __future__ import annotations

import math
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


# -- memory access -----------------------------------------------------------

def vload_aligned(a: AlignedArray, i: int) -> LaneVector:
    if i % a.width != 0:
        raise UsageError(f"aligned load at index {i} not a multiple of W={a.width}")
    return LaneVector(tuple(a[i + l] for l in range(a.width)))


def vload_off(k: int, a: AlignedArray, j: int) -> LaneVector:
    """Load at a known small offset k from an aligned index (j - k aligned).

    Semantically an unaligned load; the offset is a performance hint only.
    """
    if (j - k) % a.width != 0:
        raise UsageError(f"offset load: base {j}-{k} not a multiple of W={a.width}")
    return LaneVector(tuple(a[j + l] for l in range(a.width)))


def vloadu(a: AlignedArray, j: int) -> LaneVector:
    """Unaligned load with unknown offset."""
    return LaneVector(tuple(a[j + l] for l in range(a.width)))


def vstore_aligned(a: AlignedArray, i: int, v: LaneVector) -> None:
    if i % a.width != 0:
        raise UsageError(f"aligned store at index {i} not a multiple of W={a.width}")
    for l in range(a.width):
        a[i + l] = v.lanes[l]


def vstore_partial(a: AlignedArray, i: int, v: LaneVector, m: LaneMask) -> None:
    """Write only lanes whose mask bit is set; other elements stay untouched."""
    if i % a.width != 0:
        raise UsageError(f"partial store at index {i} not a multiple of W={a.width}")
    for l in range(a.width):
        if m.active[l]:
            a[i + l] = v.lanes[l]


def vstore_nta_partial(a: AlignedArray, i: int, v: LaneVector, m: LaneMask) -> None:
    """Masked store with a non-temporal hint; the hint is a no-op here."""
    vstore_partial(a, i, v, m)


# -- arithmetic ---------------------------------------------------------------

def _div(x: float, y: float) -> float:
    # IEEE division: inf/nan instead of ZeroDivisionError
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.float64(x) / np.float64(y))


_ELEM_OPS: dict[str, Callable[[float, float], float]] = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": _div,
    "min": lambda x, y: y if y < x else x,
    "max": lambda x, y: y if y > x else x,
}

_CMP_OPS: dict[str, Callable[[float, float], bool]] = {
    "lt": lambda x, y: x < y,
    "le": lambda x, y: x <= y,
    "gt": lambda x, y: x > y,
    "ge": lambda x, y: x >= y,
    "eq": lambda x, y: x == y,
    "ne": lambda x, y: x != y,
}


def _pair(x: LaneVector, y: LaneVector) -> None:
    if x.width != y.width:
        raise UsageError(f"width mismatch: {x.width} vs {y.width}")


def velem(op: str, x: LaneVector, y: LaneVector) -> LaneVector:
    if op not in _ELEM_OPS:
        raise UsageError(f"unknown elementwise op {op!r}")
    _pair(x, y)
    f = _ELEM_OPS[op]
    return LaneVector(tuple(f(a, b) for a, b in zip(x.lanes, y.lanes)))


def vadd(x, y):
    return velem("add", x, y)


def vsub(x, y):
    return velem("sub", x, y)


def vmul(x, y):
    return velem("mul", x, y)


def vdiv(x, y):
    return velem("div", x, y)


def vmin(x, y):
    return velem("min", x, y)


def vmax(x, y):
    return velem("max", x, y)


def _fma_fused(x: float, y: float, z: float) -> float:
    # correctly rounded x*y+z: exact rational arithmetic, one final rounding
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        return x * y + z
    return float(Fraction(x) * Fraction(y) + Fraction(z))


def vfma(x: LaneVector, y: LaneVector, z: LaneVector) -> LaneVector:
    """Lane-wise x*y + z, unfused (two roundings)."""
    _pair(x, y)
    _pair(x, z)
    return LaneVector(tuple(a * b + c for a, b, c in zip(x.lanes, y.lanes, z.lanes)))


def vfma_fused(x: LaneVector, y: LaneVector, z: LaneVector) -> LaneVector:
    """Lane-wise x*y + z, correctly rounded (one rounding)."""
    _pair(x, y)
    _pair(x, z)
    return LaneVector(tuple(map(_fma_fused, x.lanes, y.lanes, z.lanes)))


def vcmp(op: str, x: LaneVector, y: LaneVector) -> LaneMask:
    if op not in _CMP_OPS:
        raise UsageError(f"unknown comparison {op!r}")
    _pair(x, y)
    f = _CMP_OPS[op]
    return LaneMask(tuple(f(a, b) for a, b in zip(x.lanes, y.lanes)))


def ifthen(m: LaneMask, t: LaneVector, e: LaneVector) -> LaneVector:
    """Lane select, no shortcut semantics: both branches already evaluated."""
    _pair(t, e)
    if m.width != t.width:
        raise UsageError(f"width mismatch: {m.width} vs {t.width}")
    return LaneVector(tuple(tv if mv else ev for mv, tv, ev in zip(m.active, t.lanes, e.lanes)))


# -- math functions -----------------------------------------------------------

def _host(fn) -> Callable[[float], float]:
    def apply(x: float) -> float:
        with np.errstate(all="ignore"):
            return float(fn(np.float64(x)))
    return apply


_MATH_FNS: dict[str, Callable[[float], float]] = {
    "sqrt": _host(np.sqrt),
    "exp": _host(np.exp),
    "log": _host(np.log),
    "sin": _host(np.sin),
    "cos": _host(np.cos),
    "fabs": math.fabs,
}


def vmath(fn: str, x: LaneVector) -> LaneVector:
    """Lane-wise host math; domain errors become NaN lanes, never traps."""
    if fn not in _MATH_FNS:
        raise UsageError(f"unknown math function {fn!r}")
    f = _MATH_FNS[fn]
    return LaneVector(tuple(f(a) for a in x.lanes))


def vsqrt(x):
    return vmath("sqrt", x)


def vexp(x):
    return vmath("exp", x)


def vlog(x):
    return vmath("log", x)


def vcopysign(x: LaneVector, y: LaneVector) -> LaneVector:
    _pair(x, y)
    return LaneVector(tuple(math.copysign(a, b) for a, b in zip(x.lanes, y.lanes)))


def vsignbit(x: LaneVector) -> LaneMask:
    return LaneMask(tuple(math.copysign(1.0, a) < 0 for a in x.lanes))


def visnan(x: LaneVector) -> LaneMask:
    return LaneMask(tuple(math.isnan(a) for a in x.lanes))


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
