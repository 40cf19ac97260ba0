"""Write-ahead log of ingest frames: durability before application.

Every ingest batch a cluster node accepts is first appended to its WAL
as a ``WALR`` codec frame (length-prefixed header + CRC-32 over the
body), then folded into shard state. Replaying the file therefore
reconstructs shard state bit-identically: superaccumulator folds are
exact and merge-order-independent, so "same records" implies "same
rounded value" — no matter how the records were interleaved across
shards before the crash or will be after replay.

Tail semantics follow the classic WAL contract:

* a *torn tail* — the file ends mid-record because the process died
  inside a write — is expected and tolerated: replay stops at the last
  complete record and reports ``truncated=True``. The owning node's
  recovery (``read_wal(path, repair=True)``) also cuts the torn bytes
  off and fsyncs, so the next append starts on a record boundary
  instead of burying the tear mid-file;
* a failed append (``OSError`` from the write or the fsync: disk
  full, EIO) truncates the file back to its pre-append size before the
  error propagates, so no partial record stays behind;
* corruption *before* the tail (CRC mismatch, bad magic, nonsense
  lengths with more bytes following) is not a crash artifact and
  raises :class:`~repro.errors.CodecError`.

:class:`WalWriter` is the async façade used by the node service: an
owner task drains a queue of encoded records, writes them in one
group-commit batch via ``asyncio.to_thread`` (the CC004 discipline —
the event loop never touches the file), fsyncs, then resolves the
waiters. Batching amortizes the fsync, which is the entire cost of a
WAL at cluster scale.
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro import codec
from repro.errors import ServiceError

__all__ = ["WalRecord", "WriteAheadLog", "WalWriter", "read_wal", "iter_wal"]


@dataclass(frozen=True)
class WalRecord:
    """One durably logged ingest batch.

    Attributes:
        seq: cluster per-stream sequence number, or
            :data:`repro.codec.WAL_UNSEQUENCED` for scatter-mode
            records that carry no dedup identity.
        stream: target stream name.
        values: the float64 batch, exactly as ingested. For reduction
            records these are the *pre-expansion* inputs — replay
            re-runs the deterministic EFT expansion, so the recovered
            term multiset is bit-identical to the original ingest.
        op: ``"sum"`` for plain ``WALR`` ingest records, or a reduction
            kind (``"pairs"``/``"squares"``/``"observations"``) for
            op-tagged ``WALO`` records.
        values2: the second input array of a ``"pairs"`` record, else
            ``None``.
    """

    seq: int
    stream: str
    values: np.ndarray
    op: str = "sum"
    values2: Optional[np.ndarray] = None

    @property
    def sequenced(self) -> bool:
        return self.seq != codec.WAL_UNSEQUENCED


def iter_wal(path: Union[str, Path]) -> Iterator[Union[WalRecord, bool]]:
    """Yield every complete record, then one ``bool``: tail-torn flag.

    The trailing flag (always the final yield) is ``True`` when the
    file ended mid-record — the signature of a crash during append.

    Raises:
        CodecError: corruption before the tail (CRC/magic/lengths).
        OSError: unreadable file.
    """
    with open(Path(path), "rb") as fh:
        yield from _records(fh)


def _records(fh: BinaryIO) -> Iterator[Union[WalRecord, bool]]:
    """:func:`iter_wal` over an open file; after each record,
    ``fh.tell()`` is the end of the complete prefix."""
    while True:
        header = fh.read(codec.WAL_HEADER_SIZE)
        if not header:
            yield False
            return
        if len(header) < codec.WAL_HEADER_SIZE:
            yield True
            return
        total = codec.wal_record_size(header)
        body = fh.read(total - codec.WAL_HEADER_SIZE)
        if len(body) < total - codec.WAL_HEADER_SIZE:
            yield True
            return
        seq, stream, op, values, values2 = codec.decode_wal_any(header + body)
        yield WalRecord(seq=seq, stream=stream, values=values, op=op, values2=values2)


def read_wal(
    path: Union[str, Path], *, repair: bool = False
) -> Tuple[List[WalRecord], bool]:
    """All complete records plus the torn-tail flag; ``([], False)``
    for a missing file (a node that never ingested has no WAL).

    With ``repair=True`` — only for the log's owner, before it appends
    again — a torn tail is truncated away and the file fsynced, so a
    record appended after recovery is not read back as corruption.
    The returned flag still reports that the tail was torn.
    """
    if not Path(path).exists():
        return [], False
    records: List[WalRecord] = []
    truncated = False
    with open(Path(path), "r+b" if repair else "rb") as fh:
        end = 0
        for item in _records(fh):
            if isinstance(item, bool):
                truncated = item
            else:
                records.append(item)
                end = fh.tell()
        if truncated and repair:
            fh.truncate(end)
            fh.flush()
            os.fsync(fh.fileno())
    return records, truncated


class WriteAheadLog:
    """Synchronous append-only WAL file (the writer task's core).

    All methods block; the async service reaches them only through
    :class:`WalWriter`'s ``asyncio.to_thread`` hop. Useful directly in
    synchronous tools (benchmarks, forensics, tests).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def append(
        self, seq: int, stream: str, values: Union[np.ndarray, bytes]
    ) -> int:
        """Encode, append, fsync one record; returns bytes written.

        ``values`` may be raw little-endian float64 bytes (a binary-wire
        frame body): the codec logs them verbatim, so the durability
        path never re-encodes what the network delivered.
        """
        blob = codec.encode_wal_record(seq, stream, values)
        self.append_blob(blob)
        return len(blob)

    def append_reduce(
        self,
        seq: int,
        stream: str,
        op: str,
        x: Union[np.ndarray, bytes],
        y: Optional[Union[np.ndarray, bytes]] = None,
    ) -> int:
        """Append one op-tagged ``WALO`` reduction record; returns bytes.

        The record carries the *raw pre-expansion* inputs (half the
        volume of logging expanded terms); replay re-expands
        deterministically. ``y`` is required for ``"pairs"`` and
        rejected otherwise — see :func:`repro.codec.encode_wal_reduce`.
        """
        blob = codec.encode_wal_reduce(seq, stream, op, x, y)
        self.append_blob(blob)
        return len(blob)

    def append_blob(self, blob: bytes) -> None:
        """Append pre-encoded record bytes and fsync (group commit).

        If the write or the fsync raises ``OSError``, the file is
        truncated back to its size before this call and the error is
        re-raised: a failed append leaves no partial record behind.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            start = os.fstat(fd).st_size
            try:
                view = memoryview(blob)
                while view:
                    view = view[os.write(fd, view) :]
                os.fsync(fd)
            except OSError:
                os.ftruncate(fd, start)
                os.fsync(fd)
                raise
        finally:
            os.close(fd)

    def replay(self) -> Tuple[List[WalRecord], bool]:
        """(records, truncated) — see :func:`read_wal`."""
        return read_wal(self.path)

    def size(self) -> int:
        return self.path.stat().st_size if self.path.exists() else 0


class WalWriter:
    """Async group-commit writer around :class:`WriteAheadLog`.

    ``append`` resolves only after the record is on disk (fsync'd), so
    a node acks an ingest only once replay is guaranteed to recover it.
    Concurrent appends that arrive while a batch is being synced are
    coalesced into the next batch — one fsync covers them all.
    """

    _STOP = object()

    def __init__(self, path: Union[str, Path], *, max_batch: int = 256) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.log = WriteAheadLog(path)
        self._max_batch = max_batch
        self._queue: Optional[asyncio.Queue] = None
        self._task: Optional["asyncio.Task[None]"] = None
        self.records_written = 0
        self.batches_written = 0

    @property
    def path(self) -> Path:
        return self.log.path

    def start(self) -> None:
        if self._task is not None:
            return
        self._queue = asyncio.Queue()
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        if self._task is None or self._queue is None:
            return
        await self._queue.put(self._STOP)
        await self._task
        self._task = None
        self._queue = None

    async def append(
        self, seq: int, stream: str, values: Union[np.ndarray, bytes]
    ) -> None:
        """Durably log one record; resolves after fsync.

        Raw float64 bytes are accepted and logged verbatim (the
        binary-wire passthrough) — see :meth:`WriteAheadLog.append`.
        """
        await self._enqueue(codec.encode_wal_record(seq, stream, values))

    async def append_reduce(
        self,
        seq: int,
        stream: str,
        op: str,
        x: Union[np.ndarray, bytes],
        y: Optional[Union[np.ndarray, bytes]] = None,
    ) -> None:
        """Durably log one op-tagged reduction record; resolves after fsync.

        Logs the raw pre-expansion inputs verbatim (binary-wire frame
        bodies pass through untouched) — see
        :meth:`WriteAheadLog.append_reduce`.
        """
        await self._enqueue(codec.encode_wal_reduce(seq, stream, op, x, y))

    async def _enqueue(self, blob: bytes) -> None:
        if self._queue is None:
            raise RuntimeError("WalWriter is not started")
        done: "asyncio.Future[None]" = asyncio.get_running_loop().create_future()
        await self._queue.put((blob, done))
        await done

    async def _run(self) -> None:
        assert self._queue is not None
        while True:
            item = await self._queue.get()
            if item is self._STOP:
                return
            batch = [item]
            while len(batch) < self._max_batch:
                try:
                    extra = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is self._STOP:
                    # Flush what we have, then honor the stop.
                    await self._commit(batch)
                    return
                batch.append(extra)
            await self._commit(batch)

    async def _commit(self, batch: List[Tuple[bytes, "asyncio.Future[None]"]]) -> None:
        blob = b"".join(item[0] for item in batch)
        try:
            await asyncio.to_thread(self.log.append_blob, blob)
        except OSError as exc:
            err = ServiceError(f"WAL append failed: {exc}")
            err.code = "wal-io"
            for _, done in batch:
                if not done.done():
                    done.set_exception(err)
            return
        self.records_written += len(batch)
        self.batches_written += 1
        for _, done in batch:
            if not done.done():
                done.set_result(None)
