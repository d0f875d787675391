import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stencilrt.vlanes as vl
from stencilrt.lattice import UsageError

WIDTHS = (1, 2, 4, 8)


def vec(*xs):
    return vl.LaneVector(tuple(float(x) for x in xs))


def mask(*bs):
    return vl.LaneMask(tuple(bool(b) for b in bs))


class TestIterateMasked:
    def test_partial_ends(self):
        got = [(i, m.active) for i, m in vl.iterate_masked(1, 7, 4)]
        assert got == [
            (0, (False, True, True, True)),
            (4, (True, True, True, False)),
        ]

    def test_fully_aligned(self):
        got = [(i, m.active) for i, m in vl.iterate_masked(0, 8, 4)]
        assert got == [(0, (True,) * 4), (4, (True,) * 4)]

    def test_empty_range(self):
        assert list(vl.iterate_masked(5, 5, 4)) == []

    def test_unaligned_start_below_imin(self):
        (i0, m0), *_ = vl.iterate_masked(6, 9, 4)
        assert i0 == 4 and m0.active == (False, False, True, True)

    def test_inverted_rejected(self):
        with pytest.raises(UsageError):
            list(vl.iterate_masked(3, 1, 4))

    @given(st.integers(0, 64), st.integers(0, 64), st.sampled_from(WIDTHS))
    @settings(max_examples=200)
    def test_coverage_uniqueness(self, a, b, w):
        imin, imax = min(a, b), max(a, b)
        seen = []
        for i, m in vl.iterate_masked(imin, imax, w):
            assert i % w == 0
            seen.extend(i + l for l in range(w) if m.active[l])
        assert seen == list(range(imin, imax))


class TestLoads:
    def test_aligned(self):
        a = vl.AlignedArray.from_values([0, 1, 2, 3, 4, 5, 6, 7], 4)
        assert vl.vload_aligned(a, 0).lanes == (0, 1, 2, 3)
        assert vl.vload_aligned(a, 4).lanes == (4, 5, 6, 7)

    def test_misaligned_rejected(self):
        a = vl.AlignedArray.from_values([0, 1, 2, 3], 4)
        with pytest.raises(UsageError):
            vl.vload_aligned(a, 2)

    def test_offset_forward(self):
        a = vl.AlignedArray.from_values(range(8), 4)
        assert vl.vload_off(+1, a, 1).lanes == (1, 2, 3, 4)

    def test_offset_backward_reads_padding(self):
        a = vl.AlignedArray.from_values(range(8), 4)
        assert vl.vload_off(-1, a, -1).lanes == (0.0, 0, 1, 2)

    def test_offset_zero_is_aligned_load(self):
        a = vl.AlignedArray.from_values(range(8), 4)
        assert vl.vload_off(0, a, 4).lanes == vl.vload_aligned(a, 4).lanes

    def test_offset_base_misaligned_rejected(self):
        a = vl.AlignedArray.from_values(range(8), 4)
        with pytest.raises(UsageError):
            vl.vload_off(+1, a, 2)

    def test_unaligned_any_offset(self):
        a = vl.AlignedArray.from_values(range(8), 4)
        assert vl.vloadu(a, 3).lanes == (3, 4, 5, 6)

    def test_out_of_padding_rejected(self):
        a = vl.AlignedArray.from_values(range(4), 4)
        with pytest.raises(UsageError, match="outside data"):
            vl.vloadu(a, 8)
        with pytest.raises(UsageError, match="outside data"):
            vl.vload_aligned(a, -8)
        with pytest.raises(IndexError):  # the sequence protocol's error
            a[8]

    def test_insufficient_padding_rejected(self):
        with pytest.raises(UsageError):
            vl.AlignedArray(8, 4, padding=1)

    def test_negative_length_rejected(self):
        with pytest.raises(UsageError, match="negative"):
            vl.AlignedArray(-3, 4)
        assert len(vl.AlignedArray(0, 4)) == 0


class TestStores:
    def test_full_mask_is_aligned_store(self):
        a1 = vl.AlignedArray(4, 4)
        a2 = vl.AlignedArray(4, 4)
        v = vec(1, 2, 3, 4)
        vl.vstore_aligned(a1, 0, v)
        vl.vstore_partial(a2, 0, v, vl.mask_full(4))
        assert a1.to_list() == a2.to_list() == [1, 2, 3, 4]

    def test_all_false_mask_no_writes(self):
        a = vl.AlignedArray.from_values([9, 9, 9, 9], 4)
        vl.vstore_partial(a, 0, vec(1, 2, 3, 4), vl.mask_full(4, False))
        assert a.to_list() == [9, 9, 9, 9]

    def test_half_mask(self):
        a = vl.AlignedArray.from_values([0, 0, 0, 0], 4)
        vl.vstore_partial(a, 0, vec(9, 9, 9, 9), mask(1, 1, 0, 0))
        assert a.to_list() == [9, 9, 0, 0]

    def test_nta_variant_identical(self):
        a = vl.AlignedArray.from_values([0, 0, 0, 0], 4)
        vl.vstore_nta_partial(a, 0, vec(9, 9, 9, 9), mask(1, 1, 0, 0))
        assert a.to_list() == [9, 9, 0, 0]

    def test_misaligned_store_rejected(self):
        a = vl.AlignedArray(8, 4)
        with pytest.raises(UsageError):
            vl.vstore_aligned(a, 2, vec(0, 0, 0, 0))

    @pytest.mark.parametrize("vw, mw", [(8, 4), (2, 4), (4, 8), (4, 2)])
    def test_width_mismatch_rejected(self, vw, mw):
        """A wider or narrower vector or mask than the array is refused and writes nothing."""
        a = vl.AlignedArray.from_values([7.0] * 8, 4)
        v, m = vl.vset1(1.0, vw), vl.mask_full(mw)
        stores = [lambda: vl.vstore_partial(a, 0, v, m), lambda: vl.vstore_nta_partial(a, 0, v, m)]
        if mw == 4:
            stores.append(lambda: vl.vstore_aligned(a, 0, v))
        for store in stores:
            with pytest.raises(UsageError, match="width mismatch"):
                store()
        assert a.to_list() == [7.0] * 8


class TestArithmetic:
    def test_fma(self):
        assert vl.vfma(vec(1, 2), vec(3, 4), vec(5, 6)).lanes == (8.0, 14.0)

    def test_cmp(self):
        x, y = vec(1, 3, 5), vec(3, 3, 3)
        assert vl.vcmplt(x, y).active == (True, False, False)
        assert vl.vcmple(x, y).active == (True, True, False)
        assert vl.vcmpgt(x, y).active == (False, False, True)
        assert vl.vcmpge(x, y).active == (False, True, True)
        assert vl.vcmpeq(x, y).active == (False, True, False)
        assert vl.vcmpne(x, y).active == (True, False, True)

    def test_set1(self):
        assert vl.vset1(0.5, 4).lanes == (0.5, 0.5, 0.5, 0.5)

    def test_elementwise_table(self):
        x, y = vec(6, -2), vec(3, 4)
        assert vl.vadd(x, y).lanes == (9, 2)
        assert vl.vsub(x, y).lanes == (3, -6)
        assert vl.vmul(x, y).lanes == (18, -8)
        assert vl.vdiv(x, y).lanes == (2, -0.5)
        assert vl.vmin(x, y).lanes == (3, -2)
        assert vl.vmax(x, y).lanes == (6, 4)

    def test_ieee_division(self):
        lanes = vl.vdiv(vec(1, -1, 0), vec(0, 0, 0)).lanes
        assert lanes[0] == math.inf and lanes[1] == -math.inf and math.isnan(lanes[2])

    def test_width_mismatch_rejected(self):
        with pytest.raises(UsageError):
            vl.vadd(vec(1), vec(1, 2))

    def test_nan_propagates(self):
        out = vl.vadd(vec(float("nan"), 1), vec(1, 1)).lanes
        assert math.isnan(out[0]) and out[1] == 2


class TestIfthen:
    def test_all_true(self):
        assert vl.ifthen(vl.mask_full(2), vec(1, 1), vec(2, 2)).lanes == (1, 1)

    def test_all_false(self):
        assert vl.ifthen(vl.mask_full(2, False), vec(1, 1), vec(2, 2)).lanes == (2, 2)

    def test_mixed(self):
        assert vl.ifthen(mask(1, 0), vec(1, 1), vec(2, 2)).lanes == (1, 2)


class TestMath:
    def test_sqrt(self):
        assert vl.vsqrt(vec(4, 9)).lanes == (2, 3)

    def test_isnan_mask(self):
        assert vl.visnan(vec(float("nan"), 1)).active == (True, False)

    def test_exp_zero(self):
        assert vl.vexp(vl.vset1(0.0, 4)).lanes == (1.0,) * 4

    def test_domain_errors_become_nan(self):
        assert math.isnan(vl.vsqrt(vec(-1)).lanes[0])
        assert math.isnan(vl.vlog(vec(-1)).lanes[0])
        assert vl.vlog(vec(0)).lanes == (-math.inf,)

    def test_copysign_signbit(self):
        assert vl.vcopysign(vec(3, 3), vec(-1, 1)).lanes == (-3, 3)
        assert vl.vsignbit(vec(-0.0, 2.0)).active == (True, False)


# Every lane operation and the scalar function its lanes must equal bit for bit.
def _ieee_div(x, y):
    if y:
        return x / y
    return math.nan if x == 0 or math.isnan(x) else math.copysign(math.inf, x) * math.copysign(1.0, y)


def _numpy(fn):
    def ref(x):
        with np.errstate(all="ignore"):
            return float(fn(np.float64(x)))
    return ref


BINARY = {
    "vadd": lambda x, y: x + y,
    "vsub": lambda x, y: x - y,
    "vmul": lambda x, y: x * y,
    "vdiv": _ieee_div,
    "vmin": lambda x, y: y if y < x else x,
    "vmax": lambda x, y: y if y > x else x,
    "vcopysign": math.copysign,
    "vcmplt": lambda x, y: x < y,
    "vcmple": lambda x, y: x <= y,
    "vcmpgt": lambda x, y: x > y,
    "vcmpge": lambda x, y: x >= y,
    "vcmpeq": lambda x, y: x == y,
    "vcmpne": lambda x, y: x != y,
}
UNARY = {
    "vsqrt": _numpy(np.sqrt),
    "vexp": _numpy(np.exp),
    "vlog": _numpy(np.log),
    "vsin": _numpy(np.sin),
    "vcos": _numpy(np.cos),
    "vfabs": math.fabs,
    "vsignbit": lambda x: math.copysign(1.0, x) < 0,
    "visnan": math.isnan,
}
SPECIAL_LANES = (0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -2.0)


def _same_bits(got, want):
    if isinstance(want, bool):
        return got is want
    return (math.isnan(got) and math.isnan(want)) or struct.pack("<d", got) == struct.pack("<d", want)


@pytest.mark.parametrize("name", [*BINARY, *UNARY])
@pytest.mark.parametrize("w", (1, 2, 4, 8, 16))
def test_every_lane_op_matches_its_scalar_function(name, w):
    r = random.Random(f"{name}/{w}")
    ref = BINARY.get(name) or UNARY[name]
    arity = 2 if name in BINARY else 1
    for _ in range(40):
        xs = [tuple(r.choice(SPECIAL_LANES) if r.random() < 0.4 else r.uniform(-4, 4) * 10.0 ** r.randint(-300, 300)
                    for _ in range(w)) for _ in range(arity)]
        out = getattr(vl, name)(*map(vl.LaneVector, xs))
        got = out.active if isinstance(out, vl.LaneMask) else out.lanes
        want = tuple(map(ref, *xs))
        assert isinstance(out, vl.LaneMask) == isinstance(want[0], bool)
        assert len(got) == w and all(map(_same_bits, got, want)), (xs, got, want)


def scalar_forward(vals, n, fill):
    out = [fill] * n
    for i in range(n - 1):
        out[i] = vals[i + 1] - vals[i]
    return out


def scalar_centered(vals, n, fill):
    out = [fill] * n
    for i in range(1, n - 1):
        out[i] = 0.5 * (vals[i + 1] - vals[i - 1])
    return out


@given(st.integers(1, 129), st.sampled_from(WIDTHS), st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_kernels_bit_identical_to_scalar(n, w, seed):
    r = random.Random(seed)
    vals = [r.uniform(-1e6, 1e6) for _ in range(n)]
    src = vl.AlignedArray.from_values(vals, w)
    for kernel, ref in ((vl.forward_difference, scalar_forward),
                        (vl.centered_difference, scalar_centered)):
        dst = vl.AlignedArray(n, w, fill=0.125)
        kernel(dst, src, n)
        assert dst.to_list() == ref(vals, n, 0.125)


@given(st.integers(0, 40), st.integers(0, 40), st.sampled_from(WIDTHS))
@settings(max_examples=100)
def test_masked_store_frame_rule(a, b, w):
    """A loop over [imin, imax) never touches elements outside it."""
    imin, imax = min(a, b), max(a, b)
    arr = vl.AlignedArray.from_values([-1.0] * 64, w)
    for i, m in vl.iterate_masked(imin, imax, w):
        vl.vstore_partial(arr, i, vl.vset1(5.0, w), m)
    got = arr.to_list()
    assert all(got[i] == 5.0 for i in range(imin, imax))
    assert all(got[i] == -1.0 for i in range(64) if not imin <= i < imax)


def test_width_one_is_the_scalar_program():
    r = random.Random(11)
    vals = [r.uniform(-5, 5) for _ in range(37)]
    src = vl.AlignedArray.from_values(vals, 1)
    dst = vl.AlignedArray(37, 1)
    vl.centered_difference(dst, src, 37)
    assert dst.to_list() == scalar_centered(vals, 37, 0.0)
    # every run is one index with a full mask
    for i, m in vl.iterate_masked(3, 11, 1):
        assert m.active == (True,)


class TestFusedFma:
    def test_fused_is_correctly_rounded(self):
        from fractions import Fraction

        r = random.Random(5)
        for _ in range(50):
            x, y, z = (r.uniform(-1e8, 1e8) for _ in range(3))
            got = vl.vfma_fused(vec(x), vec(y), vec(z)).lanes[0]
            assert got == float(Fraction(x) * Fraction(y) + Fraction(z))

    def test_fused_within_one_ulp_of_unfused(self):
        r = random.Random(6)
        for _ in range(200):
            x, y, z = (r.uniform(-1e3, 1e3) for _ in range(3))
            fused = vl.vfma_fused(vec(x), vec(y), vec(z)).lanes[0]
            unfused = x * y + z
            assert abs(fused - unfused) <= math.ulp(unfused)

    def test_fused_overflow_rounds_to_infinity(self):
        got = vl.vfma_fused(vec(1e300, -1e300, 1e300), vec(1e300, 1e300, 1e-300), vec(0, 0, 1)).lanes
        assert got == (math.inf, -math.inf, 2.0)
