"""Differential suite: binned kernels vs the pure-Python sparse path.

The binned exponent fold (PR 6 tentpole) re-derives the exact sum from
raw bit fields — biased exponents, hidden bits, mantissa halves —
rather than from the digit split the sparse superaccumulator uses, so
the two implementations share no arithmetic. These tests pit them
against each other on the inputs where bit-field extraction goes wrong
first: subnormals (no hidden bit), signed zeros, values at the
overflow boundary, and folds engineered to exercise the deferred
bin-carry resolution. ±inf/NaN must be rejected with the same typed
error the rest of the package raises.

``binned_jit`` runs the identical battery when numba is importable and
is skipped cleanly otherwise (the CI optional-deps matrix covers both
sides).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import exact_sum
from repro.core.digits import DEFAULT_RADIX, RadixConfig, split_scaled_ints_vec
from repro.core.sparse import SparseSuperaccumulator
from repro.errors import CodecError, NonFiniteInputError
from repro.kernels import get_kernel, kernel_names, kernel_sum
from repro.kernels.binned import (
    BIN_COUNT,
    BIN_EXP_OFFSET,
    BINNED_FOLD_THRESHOLD,
    DEPOSIT_CHUNK,
    RESOLVE_CHUNKS,
    BinnedPartial,
)
from repro.util.capabilities import has_numba

KERNELS = ["binned"] + (["binned_jit"] if has_numba() else [])

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, allow_subnormal=True, width=64
)
float_lists = st.lists(finite_floats, min_size=0, max_size=80)


def _ref(values) -> Fraction:
    return sum((Fraction(float(v)) for v in values), Fraction(0))


def _routes(arr: np.ndarray):
    """``arr`` as given, and zero-padded past ``BINNED_FOLD_THRESHOLD``.

    Short blocks fold into the sparse spill; the padded copy has the
    same exact sum but goes through the bin deposit, so each test
    checks both routes of ``fold``.
    """
    return [arr, np.concatenate([arr, np.zeros(BINNED_FOLD_THRESHOLD)])]


@pytest.fixture(params=KERNELS)
def kernel(request):
    return get_kernel(request.param)


# ---------------------------------------------------------------------------
# hypothesis differentials vs the sparse superaccumulator


@pytest.mark.parametrize("name", KERNELS)
@given(values=float_lists)
@settings(max_examples=150, deadline=None)
def test_fold_matches_sparse_exactly(name, values):
    arr = np.array(values, dtype=np.float64)
    k = get_kernel(name)
    ref = SparseSuperaccumulator.from_floats(arr, DEFAULT_RADIX)
    for block in _routes(arr):
        part = k.fold(block)
        assert k.exact_fraction(part) == _ref(arr)
        for mode in ("nearest", "down", "up"):
            assert k.round(part, mode) == ref.to_float(mode)


@pytest.mark.parametrize("name", KERNELS)
@given(values=float_lists, splits=st.integers(min_value=1, max_value=7))
@settings(max_examples=100, deadline=None)
def test_split_fold_combine_is_exact(name, values, splits):
    arr = np.array(values, dtype=np.float64)
    k = get_kernel(name)
    want = exact_sum(arr, method="sparse")
    assert kernel_sum(k, np.array_split(arr, splits)) == want
    padded = [_routes(b)[1] for b in np.array_split(arr, splits)]
    assert kernel_sum(k, padded) == want


@pytest.mark.parametrize("name", KERNELS)
@given(
    values=st.lists(
        st.floats(
            allow_nan=False,
            allow_infinity=False,
            allow_subnormal=True,
            width=64,
            min_value=-1e-300,
            max_value=1e-300,
        ),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=100, deadline=None)
def test_subnormal_panels_match(name, values):
    """Bins without a hidden bit: the subnormal/bin-1 sharing path."""
    arr = np.array(values, dtype=np.float64)
    k = get_kernel(name)
    for block in _routes(arr):
        assert k.exact_fraction(k.fold(block)) == _ref(arr)


@pytest.mark.parametrize("name", KERNELS)
@given(values=float_lists)
@settings(max_examples=80, deadline=None)
def test_wire_roundtrip_is_stable_and_exact(name, values):
    arr = np.array(values, dtype=np.float64)
    k = get_kernel(name)
    for block in _routes(arr):
        frame = k.to_wire(k.fold(block))
        back = k.from_wire(frame)
        assert k.to_wire(back) == frame
        assert k.exact_fraction(back) == _ref(arr)


# ---------------------------------------------------------------------------
# directed edge panels


EDGE_PANELS = [
    np.array([5e-324, -5e-324]),  # smallest subnormals, exact cancel
    np.array([5e-324] * 33),
    np.array([-0.0, 0.0, -0.0]),
    np.array([-0.0]),
    np.array([2.0**-1074, 2.0**-1022, 2.0**-1021]),  # subnormal/normal seam
    np.array([1.7976931348623157e308, -1.7976931348623157e308, 1.0]),
    np.array([1e308, 1e308, -1e308, -1e308]),  # would overflow naively
    np.array([2.0**1023, 2.0**970]),  # top bin, ulp apart
    np.array([1.0, 2.0**-53]),  # the classic rounding tie
    np.array([]),
]


@pytest.mark.parametrize("panel", range(len(EDGE_PANELS)))
def test_edge_panels_match_sparse(kernel, panel):
    arr = EDGE_PANELS[panel].astype(np.float64)
    for block in _routes(arr):
        part = kernel.fold(block)
        assert kernel.exact_fraction(part) == _ref(arr)
        assert kernel.round(part) == exact_sum(arr, method="sparse")


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_nonfinite_rejected_with_typed_error(kernel, bad):
    with pytest.raises(NonFiniteInputError):
        kernel.fold(np.array([1.0, bad, 2.0]))
    with pytest.raises(NonFiniteInputError):
        kernel.fold_scalar(bad)
    # a later chunk must also be caught, not just the first
    arr = np.ones(3000)
    arr[-1] = bad
    with pytest.raises(NonFiniteInputError):
        kernel.fold(arr)


def test_signed_zero_folds_contribute_nothing(kernel):
    part = kernel.fold(np.array([-0.0, 0.0, -0.0, 0.0]))
    assert kernel.exact_fraction(part) == 0
    assert kernel.round(part) == 0.0


# ---------------------------------------------------------------------------
# deferred bin-carry resolution


def test_resolution_triggers_at_the_chunk_budget(monkeypatch):
    import repro.kernels.binned as binned_mod

    monkeypatch.setattr(binned_mod, "RESOLVE_CHUNKS", 3)
    monkeypatch.setattr(binned_mod, "DEPOSIT_CHUNK", 16)
    rng = np.random.default_rng(5)
    arr = (rng.random(400) - 0.5) * 10.0 ** rng.integers(-100, 100, 400)
    part = BinnedPartial(DEFAULT_RADIX)
    part.deposit(arr)
    # the budget forced at least one resolution into the spill
    assert part.spill.active_count > 0
    assert part.chunks <= 3
    assert part.to_fraction() == _ref(arr)


def test_merge_resolves_when_budgets_would_overflow(monkeypatch):
    import repro.kernels.binned as binned_mod

    monkeypatch.setattr(binned_mod, "RESOLVE_CHUNKS", 2)
    rng = np.random.default_rng(6)
    k = get_kernel("binned")
    size = BINNED_FOLD_THRESHOLD  # large enough to fold into bins
    arrs = [
        (rng.random(size) - 0.5) * 10.0 ** rng.integers(-50, 50, size)
        for _ in range(6)
    ]
    total = k.zero()
    for a in arrs:
        total = k.combine(total, k.fold(a))
        assert total.chunks <= 2
    assert k.exact_fraction(total) == _ref(np.concatenate(arrs))


def test_near_overflow_bins_resolve_exactly():
    """Bins driven to the top of the per-chunk magnitude bound.

    Every element maxes the 52-bit mantissa in one bin: the low-half
    bin sum grows by ~2**32 per element, the high half by ~2**21 —
    after a full chunk of identical values the bins sit near the
    documented per-chunk bound, and resolution must still be exact.
    """
    x = float(np.nextafter(2.0, 1.0))  # mantissa all-ones, one bin
    for n in (1, 1000, 65536):
        arr = np.full(n, x)
        part = BinnedPartial(DEFAULT_RADIX)
        part.deposit(arr)
        assert part.to_fraction() == Fraction(x) * n
        part.resolve()
        assert part.chunks == 0
        assert part.to_fraction() == Fraction(x) * n


@pytest.mark.parametrize("signs", ["positive", "mixed"])
def test_full_deposit_chunk_at_one_exponent_is_exact(monkeypatch, kernel, signs):
    """One full chunk at the per-chunk bin bound the chunk size rests on.

    Every value has an all-ones mantissa, so each low-half bin sum
    reaches ``DEPOSIT_CHUNK * (2**32 - 1)``, just below ``2**48``: the
    float64 ``bincount`` weights must still be exact. The mixed panel
    adds negative and subnormal values (bin 1, no hidden bit). The
    fold is checked again with a two-chunk budget, so that chunks are
    resolved into the spill mid-fold.
    """
    import repro.kernels.binned as binned_mod
    import repro.kernels.binned_jit as binned_jit_mod

    top = float(np.nextafter(2.0, 1.0))  # 0x1.fffffffffffffp+0
    arr = np.full(DEPOSIT_CHUNK, top)
    if signs == "mixed":
        sub = float(np.nextafter(2.0**-1022, 0.0))  # all-ones subnormal
        arr[1::3] = -top
        arr[2::3] = sub
        arr[5::6] = -sub
    want = exact_sum(arr, method="sparse")
    exact = _ref(arr)
    for budget in (RESOLVE_CHUNKS, 2):
        monkeypatch.setattr(binned_mod, "RESOLVE_CHUNKS", budget)
        monkeypatch.setattr(binned_jit_mod, "RESOLVE_CHUNKS", budget)
        # one chunk; three chunks merged; three chunks in one fold
        for blocks in ([arr], [arr, arr, arr], [np.tile(arr, 3)]):
            total = kernel.zero()
            for block in blocks:
                total = kernel.combine(total, kernel.fold(block))
            assert total.chunks <= budget
            both = np.concatenate(blocks)
            assert kernel.exact_fraction(total) == exact * (both.size // arr.size)
            assert kernel.round(total) == exact_sum(both, method="sparse")
        part = kernel.fold(arr)
        assert kernel.round(part) == want
        if signs == "positive":
            assert int(part.bins_lo.max()) == DEPOSIT_CHUNK * (2**32 - 1)
            assert int(part.bins_lo.max()) < 2**48


def test_short_folds_skip_the_bins(kernel):
    """Few-term folds build only the sparse spill (no 32 KiB of bins)."""
    short = np.linspace(-1.0, 1.0, BINNED_FOLD_THRESHOLD - 1) * 2.0**40
    part = kernel.fold(short)
    assert part.bins_lo is None and part.bins_hi is None
    assert kernel.exact_fraction(part) == _ref(short)
    full = np.append(short, 3.0)
    part = kernel.fold(full)
    assert part.bins_lo is not None
    assert kernel.exact_fraction(part) == _ref(full)


def test_mixed_sign_bin_cancellation_is_exact(kernel):
    rng = np.random.default_rng(7)
    base = (rng.random(500) + 1.0) * 2.0**300
    arr = np.concatenate([base, -base, [3.5e-320, -1.25]])
    rng.shuffle(arr)
    part = kernel.fold(arr)
    assert kernel.exact_fraction(part) == _ref(arr)
    assert kernel.round(part) == exact_sum(arr, method="sparse")


# ---------------------------------------------------------------------------
# the sign-keyed deposit: bit-pattern edges and non-finite rejection


_SUB_MAX = float(np.nextafter(2.0**-1022, 0.0))  # largest subnormal
_FINITE_EDGES = [
    0.0, 5e-324, _SUB_MAX, 2.0**-1022, float(np.finfo(np.float64).max)
]
DEPOSIT_EDGES = {repr(x): np.array([x]) for v in _FINITE_EDGES for x in (v, -v)}
DEPOSIT_EDGES["all-edges"] = np.array([x for v in _FINITE_EDGES for x in (v, -v)])
DEPOSIT_EDGES["lopsided-exponent-0"] = np.concatenate(
    [np.full(1000, -_SUB_MAX), np.full(7, 5e-324), [0.0, -0.0, 2.0**-1022]]
)


@pytest.mark.parametrize("case", list(DEPOSIT_EDGES))
def test_deposit_edge_panel_matches_fraction(case):
    """Signed zeros, subnormals (keys 0 and 2048: no hidden bit), the
    subnormal/normal seam and the top finite bin, deposited as given
    and repeated to a full chunk."""
    for arr in (DEPOSIT_EDGES[case], np.resize(DEPOSIT_EDGES[case], DEPOSIT_CHUNK)):
        part = BinnedPartial(DEFAULT_RADIX)
        part.deposit(arr)
        assert part.bins_lo[0] == 0 and part.bins_hi[0] == 0
        assert part.to_fraction() == _ref(arr)


@pytest.mark.parametrize(
    "x", [-float(np.nextafter(2.0, 1.0)), -_SUB_MAX], ids=["normal", "subnormal"]
)
def test_full_chunk_of_negative_all_ones_mantissas(x):
    """The per-chunk bound on the negative side of one key."""
    arr = np.full(DEPOSIT_CHUNK, x)
    part = BinnedPartial(DEFAULT_RADIX)
    part.deposit(arr)
    assert part.chunks == 1
    assert int(part.bins_lo.min()) == -DEPOSIT_CHUNK * (2**32 - 1)
    assert np.count_nonzero(part.bins_lo) == 1
    assert part.to_fraction() == Fraction(x) * DEPOSIT_CHUNK
    assert part.to_float() == exact_sum(arr, method="sparse")


_SIGNED_NAN = float(np.array([0xFFF8000000000001], dtype=np.uint64).view(np.float64)[0])
_NONFINITE = {"+inf": np.inf, "-inf": -np.inf, "+nan": np.nan, "-nan": _SIGNED_NAN}
_BAD_AT = {
    "first": 0,
    "chunk-end": DEPOSIT_CHUNK - 1,
    "later-chunk": 2 * DEPOSIT_CHUNK + 17,
}


@pytest.mark.parametrize("where", list(_BAD_AT))
@pytest.mark.parametrize("bad", list(_NONFINITE))
def test_nonfinite_deposit_names_the_index_and_spares_the_bins(kernel, bad, where):
    import repro.kernels.binned as binned_mod

    at = _BAD_AT[where]
    rng = np.random.default_rng(at)
    arr = (rng.random(3 * DEPOSIT_CHUNK) - 0.5) * 2.0 ** rng.integers(-60, 60, 3 * DEPOSIT_CHUNK)
    arr[at] = _NONFINITE[bad]
    assert np.signbit(arr[at]) == bad.startswith("-")
    message = f"at index {at}: "
    with pytest.raises(NonFiniteInputError, match=message):
        kernel.fold(arr)
    with pytest.raises(NonFiniteInputError, match=message):
        exact_sum(arr)
    # The offending chunk raises before it touches the bins: what the
    # partial holds is exactly the chunks before it.
    part = BinnedPartial(DEFAULT_RADIX)
    with pytest.raises(NonFiniteInputError, match=message):
        part.deposit(arr)
    done = at // DEPOSIT_CHUNK * DEPOSIT_CHUNK
    assert part.to_fraction() == _ref(arr[:done])
    lo, hi = part.bins_lo.copy(), part.bins_hi.copy()
    chunk = arr[done : done + DEPOSIT_CHUNK].view(np.int64)
    with pytest.raises(NonFiniteInputError, match=message):
        binned_mod._deposit_chunk(chunk, part.bins_lo, part.bins_hi, done)
    assert (part.bins_lo == lo).all() and (part.bins_hi == hi).all()


# ---------------------------------------------------------------------------
# the scaled-int split underneath resolution


@given(
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=-(2**62), max_value=2**62),
            st.integers(min_value=BIN_EXP_OFFSET, max_value=BIN_COUNT + 32),
        ),
        min_size=0,
        max_size=40,
    ),
    w=st.sampled_from([4, 16, 30, 31]),
)
@settings(max_examples=150, deadline=None)
def test_split_scaled_ints_vec_is_exact(pairs, w):
    radix = RadixConfig(w)
    v = np.array([p[0] for p in pairs], dtype=np.int64)
    e = np.array([p[1] for p in pairs], dtype=np.int64)
    idx, dig = split_scaled_ints_vec(v, e, radix)
    got = sum(
        (Fraction(int(d)) * Fraction(2) ** (w * int(j)) for j, d in zip(idx, dig)),
        Fraction(0),
    )
    want = sum(
        (Fraction(int(vi)) * Fraction(2) ** int(ei) for vi, ei in zip(v, e)),
        Fraction(0),
    )
    assert got == want
    assert (dig != 0).all()
    assert (np.abs(dig) <= radix.mask).all()


def test_split_scaled_ints_vec_rejects_int64_min():
    with pytest.raises(ValueError, match="2\\*\\*63"):
        split_scaled_ints_vec(
            np.array([np.iinfo(np.int64).min]), np.array([0]), DEFAULT_RADIX
        )


# ---------------------------------------------------------------------------
# wire-format hostility specific to BSUP


def test_decode_rejects_bins_beyond_the_chunk_budget():
    from repro import codec

    k = get_kernel("binned")
    arr = np.resize([1.0, 2.0**-300], BINNED_FOLD_THRESHOLD)
    frame = bytearray(k.to_wire(k.fold(arr)))
    # header: <4sqq> = magic, chunks, nbins; zero the chunk budget so
    # the (legitimately folded) bins exceed what 0 chunks can produce
    frame[4:12] = (0).to_bytes(8, "little")
    with pytest.raises(CodecError, match="chunk budget"):
        codec.decode_binned(bytes(frame))


def test_decode_rejects_unsorted_or_out_of_range_bins():
    from repro import codec
    from repro.core.sparse import SparseSuperaccumulator

    spill = SparseSuperaccumulator(DEFAULT_RADIX)
    good = codec.encode_binned(
        1,
        np.array([5, 4], dtype=np.int64),
        np.array([1, 1], dtype=np.int64),
        np.array([0, 0], dtype=np.int64),
        spill,
    )
    with pytest.raises(CodecError, match="strictly increasing"):
        codec.decode_binned(good)
    bad_range = codec.encode_binned(
        1,
        np.array([0], dtype=np.int64),
        np.array([1], dtype=np.int64),
        np.array([0], dtype=np.int64),
        spill,
    )
    with pytest.raises(CodecError, match="biased-exponent range"):
        codec.decode_binned(bad_range)


# ---------------------------------------------------------------------------
# jit-specific plumbing


def test_binned_jit_registration_tracks_capability():
    assert ("binned_jit" in kernel_names()) == has_numba()


@pytest.mark.skipif(not has_numba(), reason="numba not installed")
def test_binned_jit_matches_binned_bitwise():
    rng = np.random.default_rng(9)
    arr = (rng.random(200_000) - 0.5) * 10.0 ** rng.integers(-250, 250, 200_000)
    kj = get_kernel("binned_jit")
    kb = get_kernel("binned")
    assert kj.round(kj.fold(arr)) == kb.round(kb.fold(arr))
    assert kj.exact_fraction(kj.fold(arr)) == _ref(arr)


def test_binned_jit_without_numba_falls_back_to_numpy_fold():
    """Direct instantiation with no numba still sums exactly."""
    if has_numba():
        pytest.skip("numba installed: the fallback path is not reachable")
    from repro.kernels.binned_jit import BinnedJitKernel

    k = BinnedJitKernel()
    rng = np.random.default_rng(10)
    arr = (rng.random(5000) - 0.5) * 10.0 ** rng.integers(-100, 100, 5000)
    assert k.round(k.fold(arr)) == exact_sum(arr, method="sparse")
