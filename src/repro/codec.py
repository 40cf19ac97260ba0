"""The wire-format registry: every byte layout in one module.

Every serialized object that crosses a process or machine boundary in
this package — MapReduce shuffle payloads, BSP messages, service
snapshots, streaming checkpoints, dataset files — is a *magic-tagged
frame*: a 4-byte ASCII magic identifying the format, followed by a
format-specific body. This module owns all of those layouts; nothing
else in the package touches :mod:`struct`. (reprolint rule ``ARCH001``
enforces that — see :mod:`repro.analysis` — and CI runs it as a
blocking check.)

Registered frame formats:

========  =================================================  =========
magic     payload                                            producer
========  =================================================  =========
``SSUP``  sparse superaccumulator: w, count, indices,        kernels /
          digits                                             shuffles
``DSUP``  dense superaccumulator: w, base, nlimbs, limbs     kernels
``ERSM``  running sum: count + embedded ``SSUP``             serve
          (service snapshot format)                          snapshots
``KSTR``  generic kernel stream: count + any embedded frame  serve
``TSUP``  gamma-truncated sparse: gamma, drop accounting +   truncated
          embedded ``SSUP``                                  kernel
``BSUP``  binned superaccumulator: chunk budget, non-zero    binned
          exponent bins (index/lo/hi) + embedded ``SSUP``    kernels
          spill
``ACRT``  adaptive certificate: (value, remainder, bound)    adaptive
``ACMP``  adaptive composite: (bound, certs, fulls) +        adaptive
          embedded ``SSUP``
``RAWB``  raw float64 block (no-combiner ablation,           mapreduce /
          binary-wire value payload)                         serve wire
``NF64``  one naive float (inexact control job)              mapreduce
``F64D``  dataset file header: item count                    data/io
``WALR``  write-ahead-log ingest record: seq, CRC-32,        cluster
          length-prefixed stream name + float64 payload      WAL
``BBAT``  binary batch ingest op: request id, seq,           serve wire
          length-prefixed stream name + embedded ``RAWB``    (binary)
``RBAT``  binary reduce-batch ingest op: request id, seq,    serve wire
          op tag (pairs/squares/observations), name +        (binary)
          one or two embedded ``RAWB`` input blocks
``WALO``  op-tagged WAL reduce record: seq, CRC-32, op tag,  cluster
          name + raw pre-expansion float64 input(s) —        WAL
          replay re-expands deterministically
========  =================================================  =========

Decoders reject truncated payloads, wrong magics, and corrupt headers
with :class:`~repro.errors.CodecError` (a ``ValueError``); embedded
accumulator bodies are additionally structurally validated by their
constructors. :func:`decode` dispatches any frame by its magic.

The serve transport's length prefix (``LENGTH_PREFIX``) also lives
here: it is the one non-magic layout, framing whole messages rather
than encoding values, and is re-exported by :mod:`repro.serve.protocol`.
"""

from __future__ import annotations

import struct
import zlib
from typing import TYPE_CHECKING, Any, Callable, Dict, Tuple, Union

import numpy as np

from repro.core.digits import RadixConfig
from repro.errors import CodecError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.sparse import SparseSuperaccumulator
    from repro.core.superaccumulator import DenseSuperaccumulator

__all__ = [
    "MAGIC_SPARSE",
    "MAGIC_DENSE",
    "MAGIC_RUNNING",
    "MAGIC_STREAM",
    "MAGIC_TRUNCATED",
    "MAGIC_BINNED",
    "MAGIC_CERT",
    "MAGIC_COMPOSITE",
    "MAGIC_RAW_BLOCK",
    "MAGIC_FLOAT",
    "MAGIC_DATASET",
    "MAGIC_WAL",
    "MAGIC_BATCH",
    "MAGIC_REDUCE_BATCH",
    "MAGIC_WAL_REDUCE",
    "REDUCE_OP_CODES",
    "REDUCE_OP_NAMES",
    "LENGTH_PREFIX",
    "DATASET_HEADER_SIZE",
    "WAL_HEADER_SIZE",
    "WAL_UNSEQUENCED",
    "peek_magic",
    "decode",
    "registered_formats",
    "encode_sparse",
    "decode_sparse",
    "encode_dense",
    "decode_dense",
    "encode_running",
    "decode_running",
    "encode_stream",
    "decode_stream",
    "encode_truncated",
    "decode_truncated",
    "encode_binned",
    "decode_binned",
    "encode_cert",
    "decode_cert",
    "encode_composite",
    "decode_composite",
    "encode_raw_block",
    "decode_raw_block",
    "encode_float",
    "decode_float",
    "encode_dataset_header",
    "decode_dataset_header",
    "encode_wal_record",
    "decode_wal_record",
    "encode_wal_reduce",
    "decode_wal_reduce",
    "decode_wal_any",
    "wal_record_size",
    "encode_batch",
    "decode_batch",
    "batch_wire_body",
    "encode_reduce_batch",
    "decode_reduce_batch",
    "reduce_batch_wire_bodies",
]

MAGIC_SPARSE = b"SSUP"
MAGIC_DENSE = b"DSUP"
MAGIC_RUNNING = b"ERSM"
MAGIC_STREAM = b"KSTR"
MAGIC_TRUNCATED = b"TSUP"
MAGIC_BINNED = b"BSUP"
MAGIC_CERT = b"ACRT"
MAGIC_COMPOSITE = b"ACMP"
MAGIC_RAW_BLOCK = b"RAWB"
MAGIC_FLOAT = b"NF64"
MAGIC_DATASET = b"F64D"
MAGIC_WAL = b"WALR"
MAGIC_BATCH = b"BBAT"
MAGIC_REDUCE_BATCH = b"RBAT"
MAGIC_WAL_REDUCE = b"WALO"

_SPARSE_HEADER = struct.Struct("<4sBq")  # magic, w, ncomponents
_DENSE_HEADER = struct.Struct("<4sBqqq")  # magic, w, base_index, nlimbs, count
_COUNT_HEADER = struct.Struct("<4sq")  # magic, count (ERSM / KSTR / F64D)
_TRUNC_HEADER = struct.Struct("<4sqq?q")  # magic, gamma, drops, flag, max_idx
_BINNED_HEADER = struct.Struct("<4sqq")  # magic, chunk budget used, nbins
_CERT_FRAME = struct.Struct("<4sddd")  # magic, value, remainder, bound
_COMPOSITE_HEADER = struct.Struct("<4sdqq")  # magic, bound, certs, fulls
_FLOAT_FRAME = struct.Struct("<4sd")  # magic, value
_WAL_HEADER = struct.Struct("<4sqIqq")  # magic, seq, crc32, stream_len, payload_len
_BATCH_HEADER = struct.Struct("<4sqqqq")  # magic, request id, seq, stream_len, nvalues
# magic, seq, crc32, op code, stream_len, n inputs, pad — 32 bytes, the
# same fixed prefix as _WAL_HEADER so one reader loop serves both.
_WAL_REDUCE_HEADER = struct.Struct("<4sqIHHq4x")
# magic, request id, seq, op code, stream_len, nx, ny
_REDUCE_BATCH_HEADER = struct.Struct("<4sqqqqqq")

#: Reduction ingest kinds carried by ``RBAT``/``WALO`` frames: the op
#: tag names the *expansion* the receiver applies before folding, so
#: WAL replay and shard scatter see identical deterministic terms.
REDUCE_OP_CODES: Dict[str, int] = {"pairs": 1, "squares": 2, "observations": 3}
REDUCE_OP_NAMES: Dict[int, str] = {v: k for k, v in REDUCE_OP_CODES.items()}

#: Serve-transport frame length prefix (network byte order uint32).
#: Message framing, not value encoding — but it is still a byte layout,
#: so it lives here with the rest of them.
LENGTH_PREFIX = struct.Struct("!I")

#: Size in bytes of the ``.f64`` dataset file header.
DATASET_HEADER_SIZE = _COUNT_HEADER.size

#: Size in bytes of a ``WALR`` record header (the fixed-length prefix a
#: WAL reader consumes before it knows how much body to read).
WAL_HEADER_SIZE = _WAL_HEADER.size

#: Sequence number meaning "this record carries no cluster sequence"
#: (scatter-mode ingest; dedup does not apply).
WAL_UNSEQUENCED = -1


def peek_magic(payload: bytes) -> bytes:
    """First 4 bytes of a frame (its magic tag).

    Raises:
        CodecError: if the payload is shorter than a magic tag.
    """
    if len(payload) < 4:
        raise CodecError(
            f"frame truncated: {len(payload)} bytes is shorter than a magic tag"
        )
    return bytes(payload[:4])


def _check_header(payload: bytes, header: struct.Struct, what: str) -> None:
    if len(payload) < header.size:
        raise CodecError(
            f"{what} payload truncated: "
            f"{len(payload)} bytes < {header.size}-byte header"
        )


def _radix_from_width(w: int) -> RadixConfig:
    try:
        return RadixConfig(w)
    except ValueError as exc:
        raise CodecError(f"corrupt header: {exc}") from exc


# ----------------------------------------------------------------------
# SSUP — sparse superaccumulator
# ----------------------------------------------------------------------


def encode_sparse(acc: "SparseSuperaccumulator") -> bytes:
    """``SSUP`` frame: header + indices + digits, little endian."""
    header = _SPARSE_HEADER.pack(MAGIC_SPARSE, acc.radix.w, acc.indices.size)
    return (
        header
        + acc.indices.astype("<i8").tobytes()
        + acc.digits.astype("<i8").tobytes()
    )


def decode_sparse(payload: bytes) -> "SparseSuperaccumulator":
    """Inverse of :func:`encode_sparse`.

    Raises:
        CodecError: wrong magic, truncated or oversized body, invalid
            digit width.
        RepresentationError: decoded components violate the regularized
            representation (also a ``ValueError``).
    """
    from repro.core.sparse import SparseSuperaccumulator

    _check_header(payload, _SPARSE_HEADER, "SparseSuperaccumulator")
    magic, w, count = _SPARSE_HEADER.unpack_from(payload, 0)
    if magic != MAGIC_SPARSE:
        raise CodecError("not a SparseSuperaccumulator payload")
    if count < 0:
        raise CodecError(f"corrupt header: negative component count {count}")
    expected = _SPARSE_HEADER.size + 16 * count
    if len(payload) != expected:
        raise CodecError(
            f"SparseSuperaccumulator payload length mismatch: "
            f"expected {expected} bytes for {count} components, "
            f"got {len(payload)}"
        )
    radix = _radix_from_width(w)
    off = _SPARSE_HEADER.size
    idx = np.frombuffer(payload, dtype="<i8", count=count, offset=off)
    off += 8 * count
    dig = np.frombuffer(payload, dtype="<i8", count=count, offset=off)
    # Full structural validation (sorted indices, regularized digits):
    # RepresentationError is a ValueError subclass, so corrupted bodies
    # fail as cleanly as corrupted headers.
    return SparseSuperaccumulator(radix, idx.astype(np.int64), dig.astype(np.int64))


# ----------------------------------------------------------------------
# DSUP — dense superaccumulator
# ----------------------------------------------------------------------


def encode_dense(acc: "DenseSuperaccumulator") -> bytes:
    """``DSUP`` frame: header + raw little-endian limbs.

    The accumulator must already be renormalized (callers' ``to_bytes``
    does that) so observable wire state is always regularized.
    """
    header = _DENSE_HEADER.pack(
        MAGIC_DENSE, acc.radix.w, acc.base_index, len(acc.limbs), 1
    )
    return header + acc.limbs.astype("<i8").tobytes()


def decode_dense(payload: bytes) -> "DenseSuperaccumulator":
    """Inverse of :func:`encode_dense` (always a dense accumulator).

    Raises:
        CodecError: wrong magic, truncated or oversized body, invalid
            digit width.
    """
    from repro.core.superaccumulator import DenseSuperaccumulator

    _check_header(payload, _DENSE_HEADER, "DenseSuperaccumulator")
    magic, w, base, nlimbs, _count = _DENSE_HEADER.unpack_from(payload, 0)
    if magic != MAGIC_DENSE:
        raise CodecError("not a DenseSuperaccumulator payload")
    if nlimbs < 0:
        raise CodecError(f"corrupt header: negative limb count {nlimbs}")
    expected = _DENSE_HEADER.size + 8 * nlimbs
    if len(payload) != expected:
        raise CodecError(
            f"DenseSuperaccumulator payload length mismatch: "
            f"expected {expected} bytes for {nlimbs} limbs, "
            f"got {len(payload)}"
        )
    radix = _radix_from_width(w)
    acc = DenseSuperaccumulator(radix, base_index=base, nlimbs=nlimbs)
    acc.limbs[:] = np.frombuffer(
        payload, dtype="<i8", count=nlimbs, offset=_DENSE_HEADER.size
    )
    return acc


# ----------------------------------------------------------------------
# ERSM / KSTR — counted streams (running sums, generic kernel streams)
# ----------------------------------------------------------------------


def encode_running(count: int, acc: "SparseSuperaccumulator") -> bytes:
    """``ERSM`` frame: count + embedded ``SSUP`` (service snapshots)."""
    return _COUNT_HEADER.pack(MAGIC_RUNNING, count) + encode_sparse(acc)


def decode_running(payload: bytes) -> Tuple[int, "SparseSuperaccumulator"]:
    """Inverse of :func:`encode_running`; returns ``(count, acc)``.

    Raises:
        CodecError: wrong magic, truncated header, negative count, or a
            corrupt embedded accumulator.
    """
    _check_header(payload, _COUNT_HEADER, "ExactRunningSum")
    magic, count = _COUNT_HEADER.unpack_from(payload, 0)
    if magic != MAGIC_RUNNING:
        raise CodecError("not an ExactRunningSum payload")
    if count < 0:
        raise CodecError(f"corrupt header: negative count {count}")
    return int(count), decode_sparse(payload[_COUNT_HEADER.size :])


def encode_stream(count: int, inner: bytes) -> bytes:
    """``KSTR`` frame: count + any embedded kernel partial frame."""
    return _COUNT_HEADER.pack(MAGIC_STREAM, count) + inner


def decode_stream(payload: bytes) -> Tuple[int, bytes]:
    """Inverse of :func:`encode_stream`; returns ``(count, inner)``."""
    _check_header(payload, _COUNT_HEADER, "kernel stream")
    magic, count = _COUNT_HEADER.unpack_from(payload, 0)
    if magic != MAGIC_STREAM:
        raise CodecError("not a kernel stream payload")
    if count < 0:
        raise CodecError(f"corrupt header: negative count {count}")
    inner = payload[_COUNT_HEADER.size :]
    # The embedded frame must itself decode: a stream snapshot whose
    # body was clipped is corrupt, not a shorter snapshot.
    decode(inner)
    return int(count), inner


# ----------------------------------------------------------------------
# TSUP — gamma-truncated sparse superaccumulator
# ----------------------------------------------------------------------


def encode_truncated(
    gamma: int,
    drop_count: int,
    truncated: bool,
    max_dropped_index: int,
    acc: "SparseSuperaccumulator",
) -> bytes:
    """``TSUP`` frame: truncation accounting + embedded ``SSUP``.

    ``max_dropped_index`` is meaningful only when ``drop_count > 0``
    (encode 0 otherwise).
    """
    header = _TRUNC_HEADER.pack(
        MAGIC_TRUNCATED, gamma, drop_count, truncated, max_dropped_index
    )
    return header + encode_sparse(acc)


def decode_truncated(
    payload: bytes,
) -> Tuple[int, int, bool, int, "SparseSuperaccumulator"]:
    """Inverse of :func:`encode_truncated`.

    Returns ``(gamma, drop_count, truncated, max_dropped_index, acc)``.
    """
    _check_header(payload, _TRUNC_HEADER, "TruncatedSparseSuperaccumulator")
    magic, gamma, drops, truncated, max_idx = _TRUNC_HEADER.unpack_from(payload, 0)
    if magic != MAGIC_TRUNCATED:
        raise CodecError("not a TruncatedSparseSuperaccumulator payload")
    if gamma < 1:
        raise CodecError(f"corrupt header: gamma {gamma} must be >= 1")
    if drops < 0:
        raise CodecError(f"corrupt header: negative drop count {drops}")
    acc = decode_sparse(payload[_TRUNC_HEADER.size :])
    return int(gamma), int(drops), bool(truncated), int(max_idx), acc


# ----------------------------------------------------------------------
# BSUP — exponent-binned superaccumulator
# ----------------------------------------------------------------------


def encode_binned(
    chunks: int,
    indices: np.ndarray,
    bins_lo: np.ndarray,
    bins_hi: np.ndarray,
    spill: "SparseSuperaccumulator",
) -> bytes:
    """``BSUP`` frame: bin accounting + non-zero bins + embedded ``SSUP``.

    ``indices`` are the (strictly increasing) occupied biased-exponent
    bins; ``bins_lo``/``bins_hi`` their int64 low/high mantissa-unit
    sums; ``chunks`` the deferred-carry budget already consumed (bounds
    the bin magnitudes the decoder will accept).
    """
    header = _BINNED_HEADER.pack(MAGIC_BINNED, chunks, indices.size)
    return (
        header
        + np.asarray(indices, dtype="<i8").tobytes()
        + np.asarray(bins_lo, dtype="<i8").tobytes()
        + np.asarray(bins_hi, dtype="<i8").tobytes()
        + encode_sparse(spill)
    )


def decode_binned(
    payload: bytes,
) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray, "SparseSuperaccumulator"]:
    """Inverse of :func:`encode_binned`.

    Returns ``(chunks, indices, bins_lo, bins_hi, spill)``. Structural
    validation is strict because these frames cross process boundaries:
    the chunk budget must respect the kernel's int64 safety bound, bin
    indices must be strictly increasing finite biased exponents, and
    every bin magnitude must be achievable within the declared budget.
    """
    from repro.kernels.binned import BIN_COUNT, RESOLVE_CHUNKS

    _check_header(payload, _BINNED_HEADER, "BinnedPartial")
    magic, chunks, nbins = _BINNED_HEADER.unpack_from(payload, 0)
    if magic != MAGIC_BINNED:
        raise CodecError("not a BinnedPartial payload")
    if not 0 <= chunks <= RESOLVE_CHUNKS:
        raise CodecError(
            f"corrupt header: chunk budget {chunks} outside "
            f"[0, {RESOLVE_CHUNKS}]"
        )
    if not 0 <= nbins <= BIN_COUNT:
        raise CodecError(
            f"corrupt header: bin count {nbins} outside [0, {BIN_COUNT}]"
        )
    off = _BINNED_HEADER.size
    body = 24 * nbins
    if len(payload) < off + body:
        raise CodecError(
            f"BinnedPartial payload truncated: expected at least "
            f"{off + body} bytes for {nbins} bins, got {len(payload)}"
        )
    indices = np.frombuffer(payload, dtype="<i8", count=nbins, offset=off)
    off += 8 * nbins
    bins_lo = np.frombuffer(payload, dtype="<i8", count=nbins, offset=off)
    off += 8 * nbins
    bins_hi = np.frombuffer(payload, dtype="<i8", count=nbins, offset=off)
    off += 8 * nbins
    if nbins:
        if indices[0] < 1 or indices[-1] >= BIN_COUNT:
            raise CodecError(
                "corrupt bins: index outside the finite biased-exponent range"
            )
        if nbins > 1 and not (np.diff(indices) > 0).all():
            raise CodecError("corrupt bins: indices must be strictly increasing")
        # A deposit chunk contributes < 2**48 (low) / 2**37 (high) per
        # bin; the check allows 2**52 / 2**41 per chunk, which still
        # bounds every merge inside int64 (RESOLVE_CHUNKS * 2**52 =
        # 2**62), and the resolve's one-array sum of both halves too
        # (2**62 + 2**51). A magnitude beyond
        # chunks * bound cannot be the output of any legal fold —
        # reject rather than resolve garbage.
        # Two-sided compares, not np.abs: abs(int64 min) wraps negative
        # and would sneak past a magnitude check.
        lo_bound = int(chunks) << 52
        hi_bound = int(chunks) << 41
        if (
            (bins_lo > lo_bound).any()
            or (bins_lo < -lo_bound).any()
            or (bins_hi > hi_bound).any()
            or (bins_hi < -hi_bound).any()
        ):
            raise CodecError(
                "corrupt bins: magnitude exceeds the declared chunk budget"
            )
    spill = decode_sparse(payload[off:])
    return (
        int(chunks),
        indices.astype(np.int64),
        bins_lo.astype(np.int64),
        bins_hi.astype(np.int64),
        spill,
    )


# ----------------------------------------------------------------------
# ACRT / ACMP — adaptive certificates and composites
# ----------------------------------------------------------------------


def encode_cert(value: float, remainder: float, bound: float) -> bytes:
    """``ACRT`` frame: one Tier-0-certified block, 32 bytes.

    ``value + remainder`` is within ``bound`` of the exact block sum;
    value and remainder are exact floats the reducer folds losslessly,
    only ``bound`` carries uncertainty.
    """
    return _CERT_FRAME.pack(MAGIC_CERT, value, remainder, bound)


def decode_cert(payload: bytes) -> Tuple[float, float, float]:
    """Inverse of :func:`encode_cert`: ``(value, remainder, bound)``."""
    _check_header(payload, _CERT_FRAME, "adaptive certificate")
    magic, value, remainder, bound = _CERT_FRAME.unpack_from(payload, 0)
    if magic != MAGIC_CERT:
        raise CodecError("not an adaptive certificate payload")
    if len(payload) != _CERT_FRAME.size:
        raise CodecError(
            f"adaptive certificate payload length mismatch: "
            f"expected {_CERT_FRAME.size} bytes, got {len(payload)}"
        )
    if not bound >= 0.0:  # also rejects NaN
        raise CodecError(f"corrupt certificate: negative or NaN bound {bound!r}")
    return float(value), float(remainder), float(bound)


def encode_composite(
    bound: float, certs: int, fulls: int, acc: "SparseSuperaccumulator"
) -> bytes:
    """``ACMP`` frame: (bound, cert/full block counts) + embedded ``SSUP``."""
    header = _COMPOSITE_HEADER.pack(MAGIC_COMPOSITE, bound, certs, fulls)
    return header + encode_sparse(acc)


def decode_composite(
    payload: bytes,
) -> Tuple[float, int, int, "SparseSuperaccumulator"]:
    """Inverse of :func:`encode_composite`: ``(bound, certs, fulls, acc)``."""
    _check_header(payload, _COMPOSITE_HEADER, "adaptive composite")
    magic, bound, certs, fulls = _COMPOSITE_HEADER.unpack_from(payload, 0)
    if magic != MAGIC_COMPOSITE:
        raise CodecError("not an adaptive composite payload")
    if certs < 0 or fulls < 0:
        raise CodecError(
            f"corrupt header: negative block counts ({certs}, {fulls})"
        )
    if not bound >= 0.0:
        raise CodecError(f"corrupt composite: negative or NaN bound {bound!r}")
    acc = decode_sparse(payload[_COMPOSITE_HEADER.size :])
    return float(bound), int(certs), int(fulls), acc


# ----------------------------------------------------------------------
# RAWB / NF64 — raw blocks and naive floats (control jobs)
# ----------------------------------------------------------------------


def encode_raw_block(block: np.ndarray) -> bytes:
    """``RAWB`` frame: magic + raw little-endian float64 payload."""
    return MAGIC_RAW_BLOCK + np.ascontiguousarray(block, dtype="<f8").tobytes()


def decode_raw_block(payload: bytes) -> np.ndarray:
    """Inverse of :func:`encode_raw_block` (read-only view)."""
    if peek_magic(payload) != MAGIC_RAW_BLOCK:
        raise CodecError("not a raw block payload")
    if (len(payload) - 4) % 8:
        raise CodecError(
            f"raw block payload length mismatch: {len(payload) - 4} "
            f"body bytes is not a whole number of float64s"
        )
    return np.frombuffer(payload, dtype="<f8", offset=4)


def encode_float(value: float) -> bytes:
    """``NF64`` frame: one float64 (the naive control job's payload)."""
    return _FLOAT_FRAME.pack(MAGIC_FLOAT, value)


def decode_float(payload: bytes) -> float:
    """Inverse of :func:`encode_float`."""
    _check_header(payload, _FLOAT_FRAME, "naive float")
    magic, value = _FLOAT_FRAME.unpack_from(payload, 0)
    if magic != MAGIC_FLOAT:
        raise CodecError("not a naive float payload")
    if len(payload) != _FLOAT_FRAME.size:
        raise CodecError(
            f"naive float payload length mismatch: "
            f"expected {_FLOAT_FRAME.size} bytes, got {len(payload)}"
        )
    return float(value)


# ----------------------------------------------------------------------
# F64D — dataset file header
# ----------------------------------------------------------------------


def encode_dataset_header(count: int) -> bytes:
    """``F64D`` dataset file header: magic + int64 item count."""
    return _COUNT_HEADER.pack(MAGIC_DATASET, count)


def decode_dataset_header(raw: bytes) -> int:
    """Item count from a ``.f64`` file header.

    Raises:
        CodecError: short read (truncated file), wrong magic, or a
            negative count.
    """
    if len(raw) < _COUNT_HEADER.size:
        raise CodecError(
            f"dataset header truncated: {len(raw)} bytes "
            f"< {_COUNT_HEADER.size}-byte header"
        )
    magic, count = _COUNT_HEADER.unpack_from(raw, 0)
    if magic != MAGIC_DATASET:
        raise CodecError("not a repro .f64 dataset file")
    if count < 0:
        raise CodecError(f"corrupt header: negative item count {count}")
    return int(count)


# ----------------------------------------------------------------------
# WALR — cluster write-ahead-log ingest record
# ----------------------------------------------------------------------


def encode_wal_record(
    seq: int, stream: str, values: Union[np.ndarray, bytes, bytearray, memoryview]
) -> bytes:
    """``WALR`` frame: one durably logged ingest batch.

    Layout: header (magic, int64 ``seq``, uint32 CRC-32, int64 stream-name
    length, int64 value-payload length) followed by the UTF-8 stream name
    and the raw little-endian float64 values.  The CRC covers the body
    (name + values) so replay can distinguish a torn tail from silent
    corruption.  ``seq`` is the cluster's per-stream sequence number;
    :data:`WAL_UNSEQUENCED` marks scatter-mode records with no dedup
    identity.

    ``values`` may be a float array or already-encoded little-endian
    float64 bytes — the binary wire path logs the frame payload it
    received verbatim, with no decode/re-encode on the durability path.

    Raises:
        CodecError: empty stream name, ``seq < WAL_UNSEQUENCED``, or a
            byte payload that is not a whole number of float64s.
    """
    if not stream:
        raise CodecError("WAL record requires a non-empty stream name")
    if seq < WAL_UNSEQUENCED:
        raise CodecError(f"corrupt WAL record: sequence {seq} < -1")
    name = stream.encode("utf-8")
    if isinstance(values, (bytes, bytearray, memoryview)):
        body = bytes(values)
        if len(body) % 8:
            raise CodecError(
                f"WAL payload of {len(body)} bytes is not a whole "
                f"number of float64s"
            )
    else:
        body = np.ascontiguousarray(values, dtype="<f8").tobytes()
    crc = zlib.crc32(name + body) & 0xFFFFFFFF
    header = _WAL_HEADER.pack(MAGIC_WAL, seq, crc, len(name), len(body))
    return header + name + body


def wal_record_size(header: bytes) -> int:
    """Total record length (header + body) from a WAL record header.

    Lets a WAL reader consume a fixed :data:`WAL_HEADER_SIZE` prefix,
    learn how much body follows, and read exactly that — without the
    length arithmetic leaking out of the codec. Dispatches on the magic:
    both ``WALR`` (plain ingest) and ``WALO`` (op-tagged reduce ingest)
    share the 32-byte fixed prefix, so one reader loop serves both.

    Raises:
        CodecError: truncated header, wrong magic, or negative lengths.
    """
    _check_header(header, _WAL_HEADER, "WAL record")
    magic = bytes(header[:4])
    if magic == MAGIC_WAL_REDUCE:
        _, seq, _crc, op_code, stream_len, nx = _WAL_REDUCE_HEADER.unpack_from(
            header, 0
        )
        if op_code not in REDUCE_OP_NAMES:
            raise CodecError(f"corrupt WAL header: unknown reduce op {op_code}")
        if stream_len <= 0 or nx < 0:
            raise CodecError(
                f"corrupt WAL header: lengths ({stream_len}, {nx})"
            )
        if seq < WAL_UNSEQUENCED:
            raise CodecError(f"corrupt WAL header: sequence {seq} < -1")
        ny = nx if op_code == REDUCE_OP_CODES["pairs"] else 0
        return int(_WAL_REDUCE_HEADER.size + stream_len + 8 * (nx + ny))
    if magic != MAGIC_WAL:
        raise CodecError("not a WAL record payload")
    _, seq, _crc, stream_len, payload_len = _WAL_HEADER.unpack_from(header, 0)
    if stream_len <= 0 or payload_len < 0:
        raise CodecError(
            f"corrupt WAL header: lengths ({stream_len}, {payload_len})"
        )
    if seq < WAL_UNSEQUENCED:
        raise CodecError(f"corrupt WAL header: sequence {seq} < -1")
    return int(_WAL_HEADER.size + stream_len + payload_len)


def decode_wal_record(payload: bytes) -> Tuple[int, str, np.ndarray]:
    """Inverse of :func:`encode_wal_record`: ``(seq, stream, values)``.

    Raises:
        CodecError: truncation, wrong magic, corrupt lengths, a body that
            is not a whole number of float64s, or a CRC mismatch.
    """
    total = wal_record_size(payload)
    if bytes(payload[:4]) != MAGIC_WAL:
        raise CodecError("not a WAL record payload")
    _, seq, crc, stream_len, payload_len = _WAL_HEADER.unpack_from(payload, 0)
    if len(payload) != total:
        raise CodecError(
            f"WAL record length mismatch: expected {total} bytes, "
            f"got {len(payload)}"
        )
    if payload_len % 8:
        raise CodecError(
            f"corrupt WAL record: {payload_len} value bytes is not a "
            f"whole number of float64s"
        )
    body = payload[_WAL_HEADER.size :]
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise CodecError("WAL record CRC mismatch: corrupt body")
    name = body[:stream_len]
    try:
        stream = name.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"corrupt WAL record: bad stream name: {exc}") from exc
    values = np.frombuffer(body[stream_len:], dtype="<f8")
    return int(seq), stream, values


# ----------------------------------------------------------------------
# WALO — op-tagged WAL reduce record
# ----------------------------------------------------------------------


def _as_f64_bytes(values: Union[np.ndarray, bytes, bytearray, memoryview]) -> bytes:
    if isinstance(values, (bytes, bytearray, memoryview)):
        body = bytes(values)
        if len(body) % 8:
            raise CodecError(
                f"payload of {len(body)} bytes is not a whole number of float64s"
            )
        return body
    return np.ascontiguousarray(values, dtype="<f8").tobytes()


def encode_wal_reduce(
    seq: int,
    stream: str,
    op: str,
    x: Union[np.ndarray, bytes, bytearray, memoryview],
    y: Union[np.ndarray, bytes, bytearray, memoryview, None] = None,
) -> bytes:
    """``WALO`` frame: one durably logged *reduction* ingest batch.

    Logs the raw **pre-expansion** inputs plus the op tag (one of
    :data:`REDUCE_OP_CODES`), not the expanded terms: the EFT expansion
    is deterministic, so replay re-expands and re-scatters bit-identical
    terms while the log stays half the size. ``pairs`` records carry two
    equal-length input blocks (``x`` then ``y``); the other ops carry
    one. The 32-byte header matches :data:`WAL_HEADER_SIZE` so the WAL
    reader's fixed-prefix loop is unchanged; the CRC covers the body
    (name + inputs) like ``WALR``.

    ``x``/``y`` may be float arrays or already-encoded little-endian
    float64 bytes — the binary wire path logs the frame payloads it
    received verbatim.

    Raises:
        CodecError: unknown op, empty or oversized stream name,
            ``seq < WAL_UNSEQUENCED``, a missing/mismatched pair input,
            or byte payloads that are not whole float64s.
    """
    code = REDUCE_OP_CODES.get(op)
    if code is None:
        raise CodecError(
            f"unknown reduce op {op!r}; expected one of {sorted(REDUCE_OP_CODES)}"
        )
    if not stream:
        raise CodecError("WAL record requires a non-empty stream name")
    if seq < WAL_UNSEQUENCED:
        raise CodecError(f"corrupt WAL record: sequence {seq} < -1")
    name = stream.encode("utf-8")
    if len(name) > 0xFFFF:
        raise CodecError(f"stream name of {len(name)} bytes exceeds 65535")
    xb = _as_f64_bytes(x)
    if op == "pairs":
        if y is None:
            raise CodecError("reduce op 'pairs' requires a second input block")
        yb = _as_f64_bytes(y)
        if len(yb) != len(xb):
            raise CodecError(
                f"reduce op 'pairs' input length mismatch: "
                f"{len(xb)} vs {len(yb)} bytes"
            )
    else:
        if y is not None:
            raise CodecError(f"reduce op {op!r} takes a single input block")
        yb = b""
    body = name + xb + yb
    crc = zlib.crc32(body) & 0xFFFFFFFF
    header = _WAL_REDUCE_HEADER.pack(
        MAGIC_WAL_REDUCE, seq, crc, code, len(name), len(xb) // 8
    )
    return header + body


def decode_wal_reduce(
    payload: bytes,
) -> Tuple[int, str, str, np.ndarray, "np.ndarray | None"]:
    """Inverse of :func:`encode_wal_reduce`: ``(seq, stream, op, x, y)``.

    ``y`` is ``None`` for single-input ops.

    Raises:
        CodecError: truncation, wrong magic, corrupt lengths, unknown
            op code, or a CRC mismatch.
    """
    total = wal_record_size(payload)
    if bytes(payload[:4]) != MAGIC_WAL_REDUCE:
        raise CodecError("not a WAL reduce record payload")
    _, seq, crc, op_code, stream_len, nx = _WAL_REDUCE_HEADER.unpack_from(
        payload, 0
    )
    if len(payload) != total:
        raise CodecError(
            f"WAL reduce record length mismatch: expected {total} bytes, "
            f"got {len(payload)}"
        )
    body = payload[_WAL_REDUCE_HEADER.size :]
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise CodecError("WAL record CRC mismatch: corrupt body")
    try:
        stream = body[:stream_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"corrupt WAL record: bad stream name: {exc}") from exc
    op = REDUCE_OP_NAMES[op_code]
    off = stream_len
    x = np.frombuffer(payload, dtype="<f8", count=nx,
                      offset=_WAL_REDUCE_HEADER.size + off)
    y = None
    if op == "pairs":
        y = np.frombuffer(payload, dtype="<f8", count=nx,
                          offset=_WAL_REDUCE_HEADER.size + off + 8 * nx)
    return int(seq), stream, op, x, y


def decode_wal_any(
    payload: bytes,
) -> Tuple[int, str, str, np.ndarray, "np.ndarray | None"]:
    """Decode either WAL record kind: ``(seq, stream, op, x, y)``.

    Plain ``WALR`` ingest records come back with ``op == "sum"`` and
    ``y is None``, so one replay loop handles a mixed log.
    """
    if peek_magic(payload) == MAGIC_WAL_REDUCE:
        return decode_wal_reduce(payload)
    seq, stream, values = decode_wal_record(payload)
    return seq, stream, "sum", values, None


# ----------------------------------------------------------------------
# BBAT — binary batch ingest op (serve wire)
# ----------------------------------------------------------------------


def encode_batch(
    request_id: int, seq: int, stream: str, values: np.ndarray
) -> bytes:
    """``BBAT`` frame: one binary-wire ingest op.

    Layout: header (magic, int64 request id, int64 ``seq``, int64
    stream-name length, int64 value count) followed by the UTF-8 stream
    name and an embedded ``RAWB`` frame carrying the raw little-endian
    float64 values.  The explicit value count makes truncation at *any*
    byte offset detectable (a bare ``RAWB`` frame cannot distinguish a
    tail lost on an 8-byte boundary from a shorter batch).

    ``seq`` is the cluster plane's per-stream dedup sequence;
    :data:`WAL_UNSEQUENCED` marks single-node ops with no dedup identity.
    The embedded ``RAWB`` body bytes are exactly what
    :func:`encode_wal_record` accepts verbatim, so the durability path
    never re-encodes values.

    Raises:
        CodecError: negative request id, ``seq < WAL_UNSEQUENCED``, or an
            empty stream name.
    """
    if request_id < 0:
        raise CodecError(f"batch frame requires request id >= 0, got {request_id}")
    if seq < WAL_UNSEQUENCED:
        raise CodecError(f"corrupt batch frame: sequence {seq} < -1")
    if not stream:
        raise CodecError("batch frame requires a non-empty stream name")
    name = stream.encode("utf-8")
    block = encode_raw_block(values)
    nvalues = (len(block) - 4) // 8
    header = _BATCH_HEADER.pack(MAGIC_BATCH, request_id, seq, len(name), nvalues)
    return header + name + block


def decode_batch(payload: bytes) -> Tuple[int, int, str, np.ndarray]:
    """Inverse of :func:`encode_batch`: ``(request_id, seq, stream, values)``.

    The returned ``values`` is a read-only zero-copy view over the frame
    bytes (:func:`decode_raw_block` semantics) — callers that outlive the
    frame buffer must copy.

    Raises:
        CodecError: truncation or trailing garbage at any offset, wrong
            magic (outer or embedded), corrupt lengths, or a value count
            that disagrees with the payload size.
    """
    _check_header(payload, _BATCH_HEADER, "batch frame")
    magic, request_id, seq, stream_len, nvalues = _BATCH_HEADER.unpack_from(
        payload, 0
    )
    if magic != MAGIC_BATCH:
        raise CodecError("not a batch frame payload")
    if request_id < 0:
        raise CodecError(f"corrupt batch frame: request id {request_id} < 0")
    if seq < WAL_UNSEQUENCED:
        raise CodecError(f"corrupt batch frame: sequence {seq} < -1")
    if stream_len <= 0 or nvalues < 0:
        raise CodecError(
            f"corrupt batch frame: lengths ({stream_len}, {nvalues})"
        )
    total = _BATCH_HEADER.size + stream_len + 4 + 8 * nvalues
    if len(payload) != total:
        raise CodecError(
            f"batch frame length mismatch: expected {total} bytes for "
            f"{nvalues} values, got {len(payload)}"
        )
    name = payload[_BATCH_HEADER.size : _BATCH_HEADER.size + stream_len]
    try:
        stream = name.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"corrupt batch frame: bad stream name: {exc}") from exc
    values = decode_raw_block(payload[_BATCH_HEADER.size + stream_len :])
    if values.size != nvalues:
        raise CodecError(
            f"corrupt batch frame: header promises {nvalues} values, "
            f"embedded block holds {values.size}"
        )
    return int(request_id), int(seq), stream, values


def batch_wire_body(payload: bytes) -> bytes:
    """The embedded ``RAWB`` float64 body bytes of a ``BBAT`` frame.

    This is the exact byte slice :func:`encode_wal_record` logs verbatim
    on the binary durability path; extracting it here keeps the offset
    arithmetic inside the codec.
    """
    _check_header(payload, _BATCH_HEADER, "batch frame")
    magic, _rid, _seq, stream_len, _n = _BATCH_HEADER.unpack_from(payload, 0)
    if magic != MAGIC_BATCH:
        raise CodecError("not a batch frame payload")
    return payload[_BATCH_HEADER.size + stream_len + 4 :]


# ----------------------------------------------------------------------
# RBAT — binary reduce-batch ingest op (serve wire)
# ----------------------------------------------------------------------


def encode_reduce_batch(
    request_id: int,
    seq: int,
    stream: str,
    op: str,
    x: np.ndarray,
    y: "np.ndarray | None" = None,
) -> bytes:
    """``RBAT`` frame: one binary-wire reduction ingest op.

    The reduce analogue of ``BBAT``: header (magic, int64 request id,
    int64 ``seq``, int64 op code from :data:`REDUCE_OP_CODES`, int64
    stream-name length, int64 x count, int64 y count) followed by the
    UTF-8 stream name and one (``squares``/``observations``) or two
    (``pairs``) embedded ``RAWB`` frames carrying the raw little-endian
    float64 *inputs*. Shipping inputs rather than expanded terms halves
    the wire volume of a dot and lets the durability path log the exact
    bytes received; the receiver's EFT expansion is deterministic.

    Raises:
        CodecError: unknown op, negative request id,
            ``seq < WAL_UNSEQUENCED``, empty stream name, or a
            missing/mismatched/superfluous second block.
    """
    code = REDUCE_OP_CODES.get(op)
    if code is None:
        raise CodecError(
            f"unknown reduce op {op!r}; expected one of {sorted(REDUCE_OP_CODES)}"
        )
    if request_id < 0:
        raise CodecError(f"batch frame requires request id >= 0, got {request_id}")
    if seq < WAL_UNSEQUENCED:
        raise CodecError(f"corrupt batch frame: sequence {seq} < -1")
    if not stream:
        raise CodecError("batch frame requires a non-empty stream name")
    name = stream.encode("utf-8")
    x_block = encode_raw_block(x)
    nx = (len(x_block) - 4) // 8
    if op == "pairs":
        if y is None:
            raise CodecError("reduce op 'pairs' requires a second input block")
        y_block = encode_raw_block(y)
        ny = (len(y_block) - 4) // 8
        if ny != nx:
            raise CodecError(
                f"reduce op 'pairs' input length mismatch: {nx} vs {ny}"
            )
    else:
        if y is not None:
            raise CodecError(f"reduce op {op!r} takes a single input block")
        y_block = b""
        ny = 0
    header = _REDUCE_BATCH_HEADER.pack(
        MAGIC_REDUCE_BATCH, request_id, seq, code, len(name), nx, ny
    )
    return header + name + x_block + y_block


def decode_reduce_batch(
    payload: bytes,
) -> Tuple[int, int, str, str, np.ndarray, "np.ndarray | None"]:
    """Inverse of :func:`encode_reduce_batch`.

    Returns ``(request_id, seq, stream, op, x, y)``; ``y`` is ``None``
    for single-input ops. The arrays are read-only zero-copy views over
    the frame bytes — callers that outlive the buffer must copy.

    Raises:
        CodecError: truncation or trailing garbage, wrong magic (outer
            or embedded), corrupt lengths, or an unknown op code.
    """
    _check_header(payload, _REDUCE_BATCH_HEADER, "reduce batch frame")
    magic, request_id, seq, code, stream_len, nx, ny = (
        _REDUCE_BATCH_HEADER.unpack_from(payload, 0)
    )
    if magic != MAGIC_REDUCE_BATCH:
        raise CodecError("not a reduce batch frame payload")
    op = REDUCE_OP_NAMES.get(code)
    if op is None:
        raise CodecError(f"corrupt reduce batch frame: unknown op code {code}")
    if request_id < 0:
        raise CodecError(f"corrupt batch frame: request id {request_id} < 0")
    if seq < WAL_UNSEQUENCED:
        raise CodecError(f"corrupt batch frame: sequence {seq} < -1")
    if stream_len <= 0 or nx < 0 or ny < 0:
        raise CodecError(
            f"corrupt reduce batch frame: lengths ({stream_len}, {nx}, {ny})"
        )
    if op == "pairs":
        if ny != nx:
            raise CodecError(
                f"corrupt reduce batch frame: pair counts differ ({nx}, {ny})"
            )
        nblocks = 2
    else:
        if ny != 0:
            raise CodecError(
                f"corrupt reduce batch frame: op {op!r} carries one block, "
                f"header promises {ny} extra values"
            )
        nblocks = 1
    total = _REDUCE_BATCH_HEADER.size + stream_len + nblocks * 4 + 8 * (nx + ny)
    if len(payload) != total:
        raise CodecError(
            f"reduce batch frame length mismatch: expected {total} bytes "
            f"for {nx}+{ny} values, got {len(payload)}"
        )
    off = _REDUCE_BATCH_HEADER.size
    try:
        stream = payload[off : off + stream_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"corrupt batch frame: bad stream name: {exc}") from exc
    off += stream_len
    x = decode_raw_block(payload[off : off + 4 + 8 * nx])
    y = None
    if op == "pairs":
        y = decode_raw_block(payload[off + 4 + 8 * nx :])
    return int(request_id), int(seq), stream, op, x, y


def reduce_batch_wire_bodies(payload: bytes) -> Tuple[bytes, "bytes | None"]:
    """The embedded ``RAWB`` float64 body bytes of an ``RBAT`` frame.

    Returns ``(x_bytes, y_bytes)`` (``y_bytes`` is ``None`` for
    single-input ops) — exactly the slices :func:`encode_wal_reduce`
    logs verbatim on the binary durability path.
    """
    _check_header(payload, _REDUCE_BATCH_HEADER, "reduce batch frame")
    magic, _rid, _seq, code, stream_len, nx, _ny = (
        _REDUCE_BATCH_HEADER.unpack_from(payload, 0)
    )
    if magic != MAGIC_REDUCE_BATCH:
        raise CodecError("not a reduce batch frame payload")
    op = REDUCE_OP_NAMES.get(code)
    if op is None:
        raise CodecError(f"corrupt reduce batch frame: unknown op code {code}")
    off = _REDUCE_BATCH_HEADER.size + stream_len
    xb = payload[off + 4 : off + 4 + 8 * nx]
    if op != "pairs":
        return xb, None
    return xb, payload[off + 4 + 8 * nx + 4 :]


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------

_DECODERS: Dict[bytes, Tuple[str, Callable[[bytes], Any]]] = {
    MAGIC_SPARSE: ("sparse-superaccumulator", decode_sparse),
    MAGIC_DENSE: ("dense-superaccumulator", decode_dense),
    MAGIC_RUNNING: ("running-sum", decode_running),
    MAGIC_STREAM: ("kernel-stream", decode_stream),
    MAGIC_TRUNCATED: ("truncated-superaccumulator", decode_truncated),
    MAGIC_BINNED: ("binned-superaccumulator", decode_binned),
    MAGIC_CERT: ("adaptive-certificate", decode_cert),
    MAGIC_COMPOSITE: ("adaptive-composite", decode_composite),
    MAGIC_RAW_BLOCK: ("raw-block", decode_raw_block),
    MAGIC_FLOAT: ("naive-float", decode_float),
    MAGIC_DATASET: ("dataset-header", decode_dataset_header),
    MAGIC_WAL: ("wal-record", decode_wal_record),
    MAGIC_BATCH: ("binary-batch", decode_batch),
    MAGIC_REDUCE_BATCH: ("binary-reduce-batch", decode_reduce_batch),
    MAGIC_WAL_REDUCE: ("wal-reduce-record", decode_wal_reduce),
}


def registered_formats() -> Dict[bytes, str]:
    """``{magic: format name}`` for every registered frame format."""
    return {magic: name for magic, (name, _) in _DECODERS.items()}


def decode(payload: bytes) -> Any:
    """Decode any registered frame by its magic tag.

    Raises:
        CodecError: unknown magic or any format-level corruption.
    """
    magic = peek_magic(payload)
    entry = _DECODERS.get(magic)
    if entry is None:
        raise CodecError(f"unknown frame magic {magic!r}")
    return entry[1](payload)
