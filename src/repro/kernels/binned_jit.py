"""Thread-parallel exponent-bin fold via numba (optional backend).

The jitted analogue of :mod:`repro.kernels.binned`: the same
per-exponent int64 bins, but deposited by an ``@njit(parallel=True)``
loop that gives each thread a private ``(threads, BIN_COUNT)`` bin
block and merges the blocks carry-free at the end — detfp's
``if64Sum`` shape (per-thread ``IFloat64`` bins, one no-carry merge,
carries computed once), expressed as a ``prange`` over elements. True
shared-memory parallelism: no process pool, no pickling, no GIL.

Everything else — the partial, the ``BSUP`` wire frame, resolution,
rounding — is inherited from :class:`~repro.kernels.binned.BinnedKernel`,
so the two backends are bit-interchangeable on every plane.

numba is strictly optional. This module always imports cleanly; the
kernel registers only when :func:`repro.util.capabilities.has_numba`
sees a numba distribution (a cheap ``find_spec``, no import), and the
actual numba import + JIT compilation happen lazily on the first fold.
If that first import fails despite the installed distribution (broken
LLVM, ABI drift), the fold degrades to the vectorized numpy deposit
with a one-time warning — slower, never wrong.
"""

from __future__ import annotations

import warnings
from typing import Any, Callable, Optional

import numpy as np

from repro.kernels.base import register_kernel
from repro.kernels.binned import (
    BIN_COUNT,
    DEPOSIT_CHUNK,
    RESOLVE_CHUNKS,
    BinnedKernel,
    BinnedPartial,
    _nonfinite_error,
)
from repro.util.capabilities import has_numba, load_numba

__all__ = ["BinnedJitKernel"]

#: Compiled fold, cached module-wide after the first successful build.
_FOLD_FN: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], int]] = None

#: True once a compile attempt failed; suppresses retries and warnings.
_FOLD_BROKEN = False


def _jit_fold() -> Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], int]]:
    """Compile (once) and return the jitted deposit, or ``None``."""
    global _FOLD_FN, _FOLD_BROKEN
    if _FOLD_FN is not None or _FOLD_BROKEN:
        return _FOLD_FN
    numba = load_numba()
    if numba is None:
        _FOLD_BROKEN = True
        if has_numba():
            # A distribution exists but would not import — worth a
            # diagnostic. (Instantiating the class with no numba at
            # all is a deliberate fallback, not a surprise.)
            warnings.warn(
                "numba is installed but failed to import; binned_jit "
                "falls back to the vectorized numpy fold",
                RuntimeWarning,
                stacklevel=3,
            )
        return None
    try:
        _FOLD_FN = _compile(numba)
    except Exception as exc:  # jit compilation failure
        _FOLD_BROKEN = True
        warnings.warn(
            f"numba JIT compilation failed ({type(exc).__name__}: {exc}); "
            f"binned_jit falls back to the vectorized numpy fold",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    return _FOLD_FN


def _compile(numba: Any) -> Callable[[np.ndarray, np.ndarray, np.ndarray], int]:
    """Build the parallel deposit kernel (detfp if64Sum shape)."""
    nbins = BIN_COUNT

    @numba.njit(parallel=True, cache=False)
    def deposit(bits, out_lo, out_hi):  # pragma: no cover - jitted
        nthreads = numba.get_num_threads()
        local_lo = np.zeros((nthreads, nbins), dtype=np.int64)
        local_hi = np.zeros((nthreads, nbins), dtype=np.int64)
        bad = 0
        for i in numba.prange(bits.shape[0]):
            t = numba.get_thread_id()
            v = bits[i]
            eb = (v >> 52) & 0x7FF
            if eb == 0x7FF:
                bad += 1
            else:
                m = v & 0xFFFFFFFFFFFFF
                b = eb
                if eb != 0:
                    m |= 1 << 52
                else:
                    b = 1
                lo = m & 0xFFFFFFFF
                hi = m >> 32
                if v < 0:
                    lo = -lo
                    hi = -hi
                # Per-thread private rows: race-free without atomics,
                # and pure int64 arithmetic — exact by the
                # deferred-carry budget, so no FP rules apply here.
                local_lo[t, b] += lo
                local_hi[t, b] += hi
        # Carry-free merge of the thread blocks (single-threaded tail).
        for t in range(nthreads):
            for b in range(nbins):
                out_lo[b] += local_lo[t, b]
                out_hi[b] += local_hi[t, b]
        return bad

    # Force compilation now so a broken toolchain surfaces here, inside
    # _jit_fold's try, rather than mid-fold.
    empty = np.empty(0, dtype=np.int64)
    deposit(empty, np.zeros(nbins, dtype=np.int64), np.zeros(nbins, dtype=np.int64))
    return deposit  # type: ignore[no-any-return]


class BinnedJitKernel(BinnedKernel):
    """Exponent-bin kernel with a numba thread-parallel deposit.

    Registered as ``binned_jit`` only when a numba distribution is
    present (see the module docstring); partials, merges, wire frames
    and rounding are exactly :class:`BinnedKernel`'s, so results are
    bit-identical to every other exact kernel on every plane.
    """

    name = "binned_jit"

    def _deposit(self, part: BinnedPartial, arr: np.ndarray) -> None:
        fold_fn = _jit_fold()
        if fold_fn is None:
            part.deposit(arr)
            return
        bits = arr.view(np.int64)
        bins_lo, bins_hi = part.ensure_bins()
        # Same chunk budget as the numpy deposit: each chunk adds at most
        # 2**16 * (2**32 - 1) < 2**48 to a bin, so RESOLVE_CHUNKS = 2**10
        # chunks keep |bin| <= 2**58, inside int64.
        for start in range(0, bits.size, DEPOSIT_CHUNK):
            if part.chunks >= RESOLVE_CHUNKS:
                part.resolve()
            chunk = bits[start : start + DEPOSIT_CHUNK]
            bad = fold_fn(chunk, bins_lo, bins_hi)
            if bad:
                # The jitted loop skips non-finite elements (counting
                # them) so the bins hold only finite deposits; locate
                # the first offender for the diagnostic and discard.
                raise _nonfinite_error(chunk, start)
            part.chunks += 1


if has_numba():
    register_kernel(BinnedJitKernel)
