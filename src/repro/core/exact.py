"""High-level exact summation API.

These are the entry points a downstream user calls; everything else in
:mod:`repro.core` is machinery. ``exact_sum`` returns the correctly
rounded (hence faithfully rounded) float sum of any finite float64
array using the representation of the caller's choice.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Tuple

import numpy as np

from repro.core.digits import DEFAULT_RADIX, RadixConfig
from repro.util.validation import check_finite_array, ensure_float64_array

__all__ = [
    "exact_sum",
    "exact_sum_scaled",
    "exact_sum_fraction",
    "exact_sum_to_format",
    "exact_dot",
]

_METHODS = ("sparse", "small", "dense", "adaptive", "auto")


def _build(values: np.ndarray, method: str, radix: RadixConfig):
    # "auto" is the binned exponent fold: exact, and its speed does not
    # depend on how badly the input cancels. The "adaptive" ladder
    # certifies only a rounded nearest float, so its scaled/fraction
    # and directed-mode calls land here and run the sparse kernel, the
    # paper's exact reference. Construction goes through the kernel
    # registry so this module holds no representation-specific build
    # code of its own.
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {_METHODS}")
    from repro.kernels import get_kernel

    name = {"auto": "binned", "adaptive": "sparse"}.get(method, method)
    return get_kernel(name, radix=radix).exact_variant().fold_exact(values)


def exact_sum(
    values: Iterable[float],
    *,
    method: str = "auto",
    mode: str = "nearest",
    radix: RadixConfig = DEFAULT_RADIX,
) -> float:
    """Faithfully rounded sum of ``values``.

    Args:
        values: any array-like of finite float64 values.
        method: representation — ``"auto"`` (the default: the
            cache-resident exponent-binned fold, whose speed does not
            depend on the input's conditioning; nearest sums shorter
            than :data:`~repro.kernels.binned.BINNED_FOLD_THRESHOLD`
            run the ``"adaptive"`` ladder instead), ``"adaptive"``
            (condition-adaptive tier ladder: certified fast paths for
            well-conditioned inputs, bit-identical escalation
            otherwise), ``"sparse"`` (the paper's sparse
            superaccumulator), ``"small"`` (Neal-style dense
            fixed-size), ``"dense"`` (full fixed-point array), or any
            registered kernel name.
        mode: rounding direction; ``"nearest"`` (default) is correct
            rounding, which implies faithful rounding.
        radix: digit-width configuration.

    Returns:
        The rounded sum; exact intermediate arithmetic guarantees the
        result is independent of input order — every method returns the
        same bits on the same input.
    """
    arr = ensure_float64_array(values)
    from repro.kernels.binned import BINNED_FOLD_THRESHOLD

    # Short nearest sums keep the ladder: below the binned kernel's fold
    # threshold its tier-0 certificate costs less than building even
    # the kernel's sparse spill (few-term geometry predicates).
    short = arr.size < BINNED_FOLD_THRESHOLD
    if mode == "nearest" and (method == "adaptive" or (method == "auto" and short)):
        from repro.adaptive import adaptive_sum

        check_finite_array(arr)
        return adaptive_sum(arr, radix=radix)
    if method == "auto":
        # The binned fold rejects inf/NaN itself, naming the same index,
        # so the default path makes no separate finiteness pass.
        return _build(arr, method, radix).to_float(mode)
    check_finite_array(arr)
    if method in _METHODS:
        return _build(arr, method, radix).to_float(mode)
    # Any registered kernel name works as a method: one fold + round
    # through the generic schedule (with escalation for speculative
    # kernels), so new kernels are usable here without touching this
    # module.
    from repro.kernels import get_kernel, kernel_sum

    try:
        kernel = get_kernel(method, radix=radix)
    except ValueError:
        raise ValueError(
            f"unknown method {method!r}; expected one of {_METHODS} "
            f"or a registered kernel name"
        ) from None
    return kernel_sum(kernel, [arr], mode=mode)


def exact_sum_scaled(
    values: Iterable[float],
    *,
    method: str = "auto",
    radix: RadixConfig = DEFAULT_RADIX,
) -> Tuple[int, int]:
    """Exact sum as ``(V, shift)`` with value ``V * 2**shift``."""
    arr = ensure_float64_array(values)
    check_finite_array(arr)
    return _build(arr, method, radix).to_scaled_int()


def exact_sum_fraction(
    values: Iterable[float],
    *,
    radix: RadixConfig = DEFAULT_RADIX,
) -> Fraction:
    """Exact sum as a :class:`fractions.Fraction`."""
    v, s = exact_sum_scaled(values, radix=radix)
    return Fraction(v, 1) * Fraction(2) ** s


def exact_sum_to_format(
    values: Iterable[float],
    fmt,
    *,
    mode: str = "nearest",
    radix: RadixConfig = DEFAULT_RADIX,
) -> Tuple[int, int]:
    """Faithfully rounded sum targeted at *any* base-2 format.

    The precision-independent endpoint of the paper's pipeline: the
    exact sum of (binary64) inputs rounded once to a caller-chosen
    :class:`~repro.core.fpinfo.FloatFormat` — binary32, binary16, quad,
    or anything custom. Returns the canonical ``(M, E)`` mantissa/
    exponent pair (``value == M * 2**E``); raises ``OverflowError`` when
    the rounded magnitude exceeds the format's finite range.

    Note this is *not* the same as rounding to binary64 first and
    converting (double rounding can differ by one target ulp).
    """
    from repro.core.rounding import round_scaled_int_to_format

    v, s = exact_sum_scaled(values, radix=radix)
    return round_scaled_int_to_format(v, s, fmt, mode)


def exact_dot(
    x: Iterable[float],
    y: Iterable[float],
    *,
    mode: str = "nearest",
    radix: RadixConfig = DEFAULT_RADIX,
) -> float:
    """Correctly rounded dot product via TwoProduct + exact summation.

    Each elementwise product is expanded error-free (Dekker/Veltkamp
    TwoProduct for normal-range products; exact integer decomposition
    where a float product would under- or overflow), and the expansion
    is summed exactly. A true dot product beyond the float range
    returns the correctly rounded ``±inf``/``±MAX_FINITE`` per mode.
    """
    from repro.stats import exact_dot_fraction, round_fraction

    return round_fraction(exact_dot_fraction(x, y), mode)
