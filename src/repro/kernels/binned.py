"""Exponent-binned superaccumulator kernel (vectorized Neal-style fold).

The sparse superaccumulator's bulk fold pays for generality: every
float is split into radix digits, scatter-added, and renormalized.
Neal's *small superaccumulator* observation (arXiv:1505.05571) is that
binary64 only has 2046 distinct finite exponent values, so a fold can
instead deposit each mantissa into a per-exponent integer bin — no
digit split at all — and defer every carry until one bounded
resolution pass. detfp's ``if64Sum`` uses the same shape with
per-thread bins merged carry-free at the end.

This module is the fully vectorized form of that fold:

* the 12-bit sign|exponent field of each float is its ``bincount``
  key (Neal's large superaccumulator indexes its chunks the same way),
  so no per-element sign multiply or branch is needed: key ``k`` and
  key ``k + 2048`` are the positive and negative halves of bin ``k``;
* both 32-bit halves of the mantissa are deposited *unsigned* — the
  low half ``bits & 0xFFFFFFFF`` and the high half with the hidden
  bit always set — as float64 ``bincount`` weights, which stay exact
  because chunks of ``2**16`` elements keep every per-key sum below
  ``2**48`` (low) and ``2**37`` (high);
* once per chunk, keys 0 and 2048 (zeros and subnormals) give back
  the hidden bit they do not have, counted from their elements, and
  fold into bin 1, whose scale they share; the signed int64 bins then
  gain ``pos - neg``, one subtraction per bin (the paper's carry-free
  add, §2, applied per chunk instead of per element). Keys 2047 and
  4095 (±inf/NaN) raise before any bin changes;
* the chunk is small enough that its bit patterns and the few numpy
  temporaries (512 KiB each) stay in cache, which is where the fold's
  speed comes from — the same reason Neal's and detfp's bin arrays
  are small;
* carries are *deferred*: bins absorb up to :data:`RESOLVE_CHUNKS`
  chunk deposits (``|bin| <= RESOLVE_CHUNKS * 2**48 = 2**58``, inside
  int64) before one vectorized resolution converts them into a sparse
  superaccumulator spill: the high bins are added into the low bins 32
  places up, and that one int64 array goes through
  :func:`~repro.core.digits.split_scaled_ints_vec`;
* rounding reuses the existing exact carry-propagate round of
  :class:`~repro.core.sparse.SparseSuperaccumulator`.

Bin ``b`` (the biased exponent, with subnormals and zeros sharing bin
1 — no hidden bit there) holds integer mantissa units worth
``2**(b + BIN_EXP_OFFSET)`` each: a finite float with biased exponent
``eb`` equals ``±m * 2**(eb - 1075)`` (``m`` including the hidden
bit), and a subnormal equals ``±m * 2**(1 - 1075)``.

The partial (:class:`BinnedPartial`) = bins + chunk budget + sparse
spill, merged carry-free (bins add componentwise, spills merge via the
paper's Lemma 1 add), so the kernel serves every execution plane like
any other registered kernel. The optional numba backend
(:mod:`repro.kernels.binned_jit`) shares this partial and wire frame
and replaces only the deposit loop.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from repro import codec
from repro.core.digits import RadixConfig, split_scaled_ints_vec
from repro.core.sparse import SparseSuperaccumulator
from repro.errors import NonFiniteInputError
from repro.kernels.base import SumKernel, register_kernel
from repro.util.validation import ensure_float64_array

__all__ = [
    "BIN_COUNT",
    "BIN_EXP_OFFSET",
    "RESOLVE_CHUNKS",
    "DEPOSIT_CHUNK",
    "BINNED_FOLD_THRESHOLD",
    "BinnedPartial",
    "BinnedKernel",
]

#: Bin array length: biased exponents 0..2046 are finite (2047 is
#: inf/NaN); bin 0 is never used (subnormals share bin 1, where the
#: scale matches because they carry no hidden bit).
BIN_COUNT = 2047

#: Bin ``b`` holds mantissa units of ``2**(b + BIN_EXP_OFFSET)``:
#: a normal float is ``±m * 2**(eb - 1023 - 52)``.
BIN_EXP_OFFSET = -1075

#: Deferred-carry budget, counted in deposit chunks. One chunk adds at
#: most ``2**16 * (2**32 - 1) < 2**48`` to a low bin, so after
#: ``RESOLVE_CHUNKS = 2**10`` chunks ``|bin| <= 2**58`` — still inside
#: int64. The next deposit first resolves the bins into the sparse
#: spill (one vectorized pass) and restarts the budget.
RESOLVE_CHUNKS = 1 << 10

#: Elements per deposit chunk. Bounds the per-bin float64 bincount
#: sums: low halves < ``2**16 * 2**32 = 2**48``, high halves <
#: ``2**16 * 2**21 = 2**37`` — both exactly representable in float64.
#: It also keeps a chunk's temporaries cache-resident: at ``2**20`` the
#: same fold ran at less than half the speed.
DEPOSIT_CHUNK = 1 << 16

#: Folds shorter than this skip the bins and build the sparse spill
#: directly: below it, allocating and resolving ~32 KiB of bins costs
#: more than the vectorized deposit saves (few-term geometry
#: predicates, PRAM leaves, small shuffle blocks).
BINNED_FOLD_THRESHOLD = 2048

#: Sign|exponent keys: the top 12 bits of a float64. Key ``k < 2048``
#: is the positive half of bin ``k``, key ``k + 2048`` its negative
#: half; keys 2047 and 4095 are the +/- inf/NaN patterns.
_KEYS = 4096
_NEG = 2048
_KEY_SHIFT = np.uint64(52)
_LOW32_MASK = np.int64((1 << 32) - 1)
_HIGH20_MASK = np.int64((1 << 20) - 1)
_HIDDEN_HI = np.int64(1 << 20)
_EXP_FIELD = np.int64(0x7FF << 52)


def _nonfinite_error(bits: np.ndarray, base: int) -> NonFiniteInputError:
    """The typed error for the first inf/NaN in ``bits``.

    ``base`` is the index of ``bits[0]`` in the caller's input, so the
    message names the same position a finiteness pre-check would.
    """
    bad = int(np.flatnonzero((bits & _EXP_FIELD) == _EXP_FIELD)[0])
    value = bits[bad : bad + 1].view(np.float64)[0]
    return NonFiniteInputError(
        f"input contains a non-finite value at index {base + bad}: {value!r}"
    )


def _deposit_chunk(
    bits: np.ndarray, bins_lo: np.ndarray, bins_hi: np.ndarray, base: int
) -> None:
    """Scatter-add one chunk of float64 bit patterns into the bins.

    Branch-free: the 12-bit sign|exponent field is the ``bincount``
    key, so both halves are deposited unsigned and the sign is applied
    once per bin (``pos - neg``), not once per element. The high half
    always carries the hidden bit; keys 0 and 2048 (zeros and
    subnormals, which have none) give it back from their element count
    and then fold into bin 1, whose scale they share.

    Rejects non-finite values *before* touching the bins, so a raising
    call leaves them unchanged (earlier chunks of the same fold may
    already be deposited; callers discard the partial on error).
    ``base`` is the input index of ``bits[0]``, for the error message.
    """
    # The same key as (bits >> 52) & 0xFFF, in one logical shift.
    key = (bits.view(np.uint64) >> _KEY_SHIFT).view(np.int64)
    lo = (bits & _LOW32_MASK).astype(np.float64)
    hi = ((bits >> np.int64(32)) & _HIGH20_MASK | _HIDDEN_HI).astype(np.float64)
    # Float64 bincount weights are exact here: per-key chunk sums stay
    # below 2**48 (low) and 2**37 (high) by the DEPOSIT_CHUNK bound.
    lo_keys = np.bincount(key, weights=lo, minlength=_KEYS)
    hi_keys = np.bincount(key, weights=hi, minlength=_KEYS)
    # Every element adds at least the hidden bit to its high key, so a
    # key is occupied exactly when its high sum is non-zero.
    if hi_keys[_NEG - 1] or hi_keys[_KEYS - 1]:
        raise _nonfinite_error(bits, base)
    for k in (0, _NEG):
        if hi_keys[k]:
            hi_keys[k] -= np.count_nonzero(key == k) * float(_HIDDEN_HI)
            lo_keys[k + 1] += lo_keys[k]
            hi_keys[k + 1] += hi_keys[k]
    pos, neg = slice(1, _NEG - 1), slice(_NEG + 1, _KEYS - 1)
    bins_lo[1:] += (lo_keys[pos] - lo_keys[neg]).astype(np.int64)
    bins_hi[1:] += (hi_keys[pos] - hi_keys[neg]).astype(np.int64)


class BinnedPartial:
    """Exponent bins + deferred-carry budget + sparse spill.

    Attributes:
        radix: shared digit-width configuration (used by resolution).
        bins_lo: int64[BIN_COUNT] low-half mantissa-unit sums, or
            ``None`` while no bulk deposit has happened (scalar folds,
            folds shorter than :data:`BINNED_FOLD_THRESHOLD` and empty
            partials stay bin-free: 32 KiB per partial would dominate
            PRAM leaves and few-term sums otherwise).
        bins_hi: matching high-half sums (allocated together).
        chunks: deposit chunks absorbed since the last resolution
            (``<= RESOLVE_CHUNKS``; the overflow-safety budget).
        spill: resolved remainder as a sparse superaccumulator — the
            carry-free representation merges and rounding run on.

    The represented exact value is ``spill + sum_b (bins_lo[b] +
    bins_hi[b] * 2**32) * 2**(b + BIN_EXP_OFFSET)``.
    """

    __slots__ = ("radix", "bins_lo", "bins_hi", "chunks", "spill")

    def __init__(
        self,
        radix: RadixConfig,
        bins_lo: Optional[np.ndarray] = None,
        bins_hi: Optional[np.ndarray] = None,
        chunks: int = 0,
        spill: Optional[SparseSuperaccumulator] = None,
    ) -> None:
        self.radix = radix
        self.bins_lo = bins_lo
        self.bins_hi = bins_hi
        self.chunks = int(chunks)
        self.spill = spill if spill is not None else SparseSuperaccumulator(radix)

    def ensure_bins(self) -> Tuple[np.ndarray, np.ndarray]:
        """Allocate the bin arrays on first bulk deposit."""
        if self.bins_lo is None or self.bins_hi is None:
            self.bins_lo = np.zeros(BIN_COUNT, dtype=np.int64)
            self.bins_hi = np.zeros(BIN_COUNT, dtype=np.int64)
        return self.bins_lo, self.bins_hi

    def deposit(self, arr: np.ndarray) -> None:
        """Fold a contiguous float64 array into the bins (vectorized).

        Raises :class:`~repro.errors.NonFiniteInputError` on NaN or
        infinities; the partial must then be discarded (chunks folded
        before the offending one are already deposited).
        """
        bins_lo, bins_hi = self.ensure_bins()
        bits = arr.view(np.int64)
        for start in range(0, bits.size, DEPOSIT_CHUNK):
            if self.chunks >= RESOLVE_CHUNKS:
                self.resolve()
            _deposit_chunk(
                bits[start : start + DEPOSIT_CHUNK], bins_lo, bins_hi, start
            )
            self.chunks += 1

    def _bins_to_sparse(self) -> Optional[SparseSuperaccumulator]:
        """Current bin contents as a sparse accumulator (None if empty).

        A high-half unit of bin ``b`` is a low-half unit of bin
        ``b + 32``, so both halves resolve as one int64 array of
        ``BIN_COUNT + 32`` scaled integers. It stays inside int64: the
        codec's bin bounds give ``|v| <= 2**62 + 2**51``.
        """
        if self.bins_lo is None or self.bins_hi is None:
            return None
        merged = np.zeros(BIN_COUNT + 32, dtype=np.int64)
        merged[:BIN_COUNT] = self.bins_lo
        merged[32:] += self.bins_hi
        nz = np.flatnonzero(merged)
        if nz.size == 0:
            return None
        idx, dig = split_scaled_ints_vec(merged[nz], nz + BIN_EXP_OFFSET, self.radix)
        return SparseSuperaccumulator.from_digit_pairs(idx, dig, self.radix)

    def resolve(self) -> None:
        """Fold the bins into the spill and restart the carry budget."""
        resolved = self._bins_to_sparse()
        if resolved is not None:
            self.spill = self.spill.add(resolved)
            assert self.bins_lo is not None and self.bins_hi is not None
            self.bins_lo[:] = 0
            self.bins_hi[:] = 0
        self.chunks = 0

    def merge(self, other: "BinnedPartial") -> "BinnedPartial":
        """Carry-free merge (mutates and returns self; never ``other``).

        Bins add componentwise — the binned analogue of the paper's
        carry-free accumulator add — after resolving self when the
        combined chunk budgets would exceed the int64 safety bound.
        """
        if other.radix != self.radix:
            raise ValueError("cannot merge binned partials with different radix")
        if other.spill.active_count:
            self.spill = self.spill.add(other.spill)
        if other.bins_lo is not None and other.bins_hi is not None:
            if self.chunks + other.chunks > RESOLVE_CHUNKS:
                self.resolve()
            bins_lo, bins_hi = self.ensure_bins()
            bins_lo += other.bins_lo
            bins_hi += other.bins_hi
            self.chunks += other.chunks
        return self

    def to_sparse(self) -> SparseSuperaccumulator:
        """Total value as a sparse superaccumulator (non-mutating)."""
        resolved = self._bins_to_sparse()
        if resolved is None:
            return self.spill
        return self.spill.add(resolved)

    def to_float(self, mode: str = "nearest") -> float:
        """Correctly rounded value (exact resolution + exact round)."""
        return self.to_sparse().to_float(mode)

    def to_fraction(self) -> Fraction:
        """Exact value as a Fraction."""
        return self.to_sparse().to_fraction()

    def to_scaled_int(self) -> Tuple[int, int]:
        """Exact value as ``(V, shift)``: the number is ``V * 2**shift``."""
        return self.to_sparse().to_scaled_int()

    @property
    def width(self) -> int:
        """Occupied components: non-zero bins + active spill positions."""
        bins = 0
        if self.bins_lo is not None and self.bins_hi is not None:
            bins = int(
                np.count_nonzero((self.bins_lo != 0) | (self.bins_hi != 0))
            )
        return bins + self.spill.active_count

    def __repr__(self) -> str:
        return (
            f"BinnedPartial(w={self.radix.w}, bins={self.width - self.spill.active_count}, "
            f"chunks={self.chunks}, spill_active={self.spill.active_count})"
        )


@register_kernel
class BinnedKernel(SumKernel):
    """Vectorized exponent-bin kernel (exact; Neal-style deferred carry).

    Partial type: :class:`BinnedPartial`. The fold is the fastest pure
    numpy exact path in the package (~20x the sparse bulk fold at
    ``n = 2**22`` on the reference host — see ``BENCH_native.json``)
    and the default of ``exact_sum``, ``repro.reduce`` and
    ``parallel_sum``; merges stay carry-free, so the kernel serves
    every plane.

    Blocks shorter than :data:`BINNED_FOLD_THRESHOLD`, and radices too
    wide for the vectorized integer paths (``w > 31``), fold straight
    into the sparse spill of the same partial, so exactness never
    depends on the radix and few-term sums allocate no bins.
    """

    name = "binned"

    def zero(self) -> BinnedPartial:
        return BinnedPartial(self.radix)

    def fold(self, block: np.ndarray) -> BinnedPartial:
        arr = ensure_float64_array(block)
        part = BinnedPartial(self.radix)
        if arr.size < BINNED_FOLD_THRESHOLD or not self.radix.supports_vectorized:
            part.spill = SparseSuperaccumulator.from_floats(arr, self.radix)
            return part
        self._deposit(part, arr)
        return part

    def _deposit(self, part: BinnedPartial, arr: np.ndarray) -> None:
        """Deposit a block of at least :data:`BINNED_FOLD_THRESHOLD` values.

        The seam an alternative deposit backend overrides.
        """
        part.deposit(arr)

    def fold_scalar(self, x: float) -> BinnedPartial:
        # PRAM leaves: one canonical spill component beats a 32 KiB bin
        # allocation per element (from_float also rejects non-finites).
        part = BinnedPartial(self.radix)
        part.spill = SparseSuperaccumulator.from_float(float(x), self.radix)
        return part

    def combine(self, a: BinnedPartial, b: BinnedPartial) -> BinnedPartial:
        return a.merge(b)

    def round(self, partial: BinnedPartial, mode: str = "nearest") -> float:
        return partial.to_float(mode)

    def to_wire(self, partial: BinnedPartial) -> bytes:
        return codec.encode_binned(partial.chunks, *_wire_bins(partial),
                                   partial.spill)

    def from_wire(self, payload: bytes) -> BinnedPartial:
        chunks, indices, lo, hi, spill = codec.decode_binned(payload)
        # The wire's digit width wins (mirrors the sparse kernel).
        part = BinnedPartial(spill.radix, chunks=chunks, spill=spill)
        if indices.size:
            bins_lo, bins_hi = part.ensure_bins()
            bins_lo[indices] = lo
            bins_hi[indices] = hi
        return part

    def width(self, partial: BinnedPartial) -> int:
        return partial.width

    def exact_fraction(self, partial: BinnedPartial) -> Fraction:
        return partial.to_fraction()


def _wire_bins(partial: BinnedPartial) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical (indices, lo, hi) of the non-zero bins for the wire."""
    if partial.bins_lo is None or partial.bins_hi is None:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    nz = np.flatnonzero((partial.bins_lo != 0) | (partial.bins_hi != 0))
    return nz.astype(np.int64), partial.bins_lo[nz], partial.bins_hi[nz]
